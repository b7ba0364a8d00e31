//! Hand-packed bit fields of 128-bit storage words.
//!
//! The in-DRAM translation structures (the POM-TLB partitions and the TSB)
//! store each entry as one 16-byte word, the size Figure 5 budgets, rather
//! than as a decoded struct. A [`Field`] names one bit range of such a word
//! and reads or writes it; a word layout is a list of `const` fields, each
//! placed after the previous one with [`Field::after`], so the layout reads
//! top to bottom like a `bitfield!` declaration without the dependency.

/// One bit range `[lo, lo + width)` of a `u128` storage word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Lowest bit of the field.
    pub lo: u32,
    /// Width in bits (1..=64).
    pub width: u32,
}

impl Field {
    /// The field starting at bit 0.
    pub const fn first(width: u32) -> Field {
        assert!(width >= 1 && width <= 64, "a field is 1..=64 bits wide");
        Field { lo: 0, width }
    }

    /// The field immediately above `prev`.
    pub const fn after(prev: Field, width: u32) -> Field {
        assert!(width >= 1 && width <= 64, "a field is 1..=64 bits wide");
        assert!(prev.lo + prev.width + width <= 128, "fields overflow the 128-bit word");
        Field { lo: prev.lo + prev.width, width }
    }

    /// One past the field's highest bit.
    pub const fn end(self) -> u32 {
        self.lo + self.width
    }

    /// The field's bits, in place.
    pub const fn mask(self) -> u128 {
        (u128::MAX >> (128 - self.width)) << self.lo
    }

    /// Whether `v` fits the field's width.
    #[inline]
    pub const fn fits(self, v: u64) -> bool {
        self.width == 64 || v >> self.width == 0
    }

    /// `v` shifted into place. The caller guarantees [`Field::fits`]; the
    /// entry codecs check it with `assert!` before packing.
    #[inline]
    pub const fn place(self, v: u64) -> u128 {
        (v as u128) << self.lo
    }

    /// The field's value in `word`.
    #[inline]
    pub const fn get(self, word: u128) -> u64 {
        ((word & self.mask()) >> self.lo) as u64
    }

    /// `word` with the field replaced by `v`.
    #[inline]
    pub const fn set(self, word: u128, v: u64) -> u128 {
        (word & !self.mask()) | (self.place(v) & self.mask())
    }
}

/// The mask of every bit below `field`'s end: the bits of `field` and of
/// all fields laid out before it.
pub const fn mask_through(field: Field) -> u128 {
    u128::MAX >> (128 - field.end())
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Field = Field::first(36);
    const B: Field = Field::after(A, 16);
    const C: Field = Field::after(B, 1);
    const WIDE: Field = Field::after(C, 64);

    #[test]
    fn fields_tile_the_word() {
        assert_eq!((A.lo, B.lo, C.lo, WIDE.lo), (0, 36, 52, 53));
        assert_eq!(A.mask() & B.mask(), 0);
        assert_eq!(mask_through(C), A.mask() | B.mask() | C.mask());
        assert_eq!(WIDE.mask().count_ones(), 64);
    }

    #[test]
    fn set_then_get_round_trips_without_touching_neighbours() {
        let w = A.set(B.set(0, 0xffff), (1 << 36) - 1);
        assert_eq!(A.get(w), (1 << 36) - 1);
        assert_eq!(B.get(w), 0xffff);
        assert_eq!(C.get(w), 0);
        let w = B.set(w, 0x1234);
        assert_eq!(A.get(w), (1 << 36) - 1);
        assert_eq!(B.get(w), 0x1234);
        assert_eq!(WIDE.get(WIDE.set(w, u64::MAX)), u64::MAX);
    }

    #[test]
    fn fits_checks_width() {
        assert!(B.fits(0xffff));
        assert!(!B.fits(0x1_0000));
        assert!(WIDE.fits(u64::MAX));
    }
}
