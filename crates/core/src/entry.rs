//! The 16-byte POM-TLB entry format of Figure 5.
//!
//! Each die-stacked DRAM row (2 KB) holds 128 entries; each 64-byte burst
//! carries one 4-way set of four entries. An entry is one little-endian
//! 128-bit word:
//!
//! ```text
//! bits   0..36   VPN (36b)
//! bits  36..52   process ID (16b)
//! bits  52..68   VM ID (16b)
//! bit   68       valid
//! bits  69..105  PPN (36b)
//! bits 105..107  LRU age (2b, §2.2)
//! bits 107..115  attr (8b: protection/replacement, modeled not interpreted)
//! bits 115..128  zero
//! ```
//!
//! Figure 5 budgets 12 bits each for the VM and process IDs; this layout
//! widens both to the full 16 bits of [`VmId`] and [`ProcessId`]. The
//! consolidation workloads run up to 10,000 VMs and requests allow 65,536,
//! so a 12-bit field would fold VM 4096 onto VM 0 and serve one tenant's
//! translation to another. The fields still fit with 13 bits to spare
//! (1 + 16 + 16 + 36 + 36 + 2 + 8 = 115).
//!
//! The word is the only entry codec: the POM-TLB partitions store these
//! words directly (an all-zero word is an invalid slot, so a partition is a
//! lazily zeroed allocation), and [`PomEntry::pack`] / [`PomEntry::unpack`]
//! are its byte serialization.

use pomtlb_types::bits::mask_through;
use pomtlb_types::{AddressSpace, Field, PageSize, ProcessId, VmId};
use serde::{Deserialize, Serialize};

/// Virtual page number, in units of the partition's page size.
pub(crate) const VPN: Field = Field::first(36);
/// Process ID.
pub(crate) const PID: Field = Field::after(VPN, 16);
/// VM ID.
pub(crate) const VM: Field = Field::after(PID, 16);
/// Valid bit: set in every live entry, so no live word is zero.
pub(crate) const VALID: Field = Field::after(VM, 1);
/// Physical page number.
pub(crate) const PPN: Field = Field::after(VALID, 36);
/// 2-bit LRU age, 0 = most recently used.
pub(crate) const LRU: Field = Field::after(PPN, 2);
/// Attribute bits.
const ATTR: Field = Field::after(LRU, 8);

/// The bits a set probe compares: valid, VM, process and VPN. A probe key
/// has the valid bit set, so it never matches an empty slot.
pub(crate) const KEY_MASK: u128 = mask_through(VALID);

/// One POM-TLB entry (Figure 5), decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PomEntry {
    /// The owning VM and process.
    pub space: AddressSpace,
    /// Virtual page number (in units of the partition's page size).
    pub vpn: u64,
    /// Physical page number.
    pub ppn: u64,
    /// 2-bit LRU age used for within-set replacement (§2.2 "Entry
    /// Replacement"): 0 = most recently used.
    pub lru: u8,
    /// Protection/attribute bits (modeled, not interpreted).
    pub attr: u8,
}

impl PomEntry {
    /// Serialized size of one entry.
    pub const BYTES: usize = 16;

    /// Creates an entry with MRU age and empty attributes.
    pub fn new(space: AddressSpace, vpn: u64, ppn: u64) -> PomEntry {
        PomEntry { space, vpn, ppn, lru: 0, attr: 0 }
    }

    /// The probe key of `(space, vpn)`: what [`KEY_MASK`] leaves of the
    /// word of any entry translating it.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` exceeds its 36-bit field (a 36-bit 4 KB VPN covers a
    /// 48-bit virtual address space, matching x86-64).
    #[inline]
    pub fn key(space: AddressSpace, vpn: u64) -> u128 {
        assert!(VPN.fits(vpn), "VPN {vpn:#x} exceeds 36 bits");
        VALID.place(1)
            | VM.place(space.vm.as_u64())
            | PID.place(space.process.as_u64())
            | VPN.place(vpn)
    }

    /// Packs into the 16-byte storage word.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` or `ppn` exceed their 36-bit fields or `lru` its 2
    /// bits. These are `assert!`s, not debug checks: a truncated field in
    /// a release build would silently serve another page's frame.
    #[inline]
    pub fn to_word(&self) -> u128 {
        assert!(PPN.fits(self.ppn), "PPN {:#x} exceeds 36 bits", self.ppn);
        assert!(LRU.fits(self.lru as u64), "LRU is a 2-bit field");
        Self::key(self.space, self.vpn)
            | PPN.place(self.ppn)
            | LRU.place(self.lru as u64)
            | ATTR.place(self.attr as u64)
    }

    /// Decodes a storage word; `None` if the valid bit is clear.
    pub fn from_word(word: u128) -> Option<PomEntry> {
        if VALID.get(word) == 0 {
            return None;
        }
        Some(PomEntry {
            space: AddressSpace::new(VmId(VM.get(word) as u16), ProcessId(PID.get(word) as u16)),
            vpn: VPN.get(word),
            ppn: PPN.get(word),
            lru: LRU.get(word) as u8,
            attr: ATTR.get(word) as u8,
        })
    }

    /// The storage word's 16 bytes, little-endian (the on-DRAM image).
    ///
    /// # Panics
    ///
    /// As [`PomEntry::to_word`].
    pub fn pack(&self) -> [u8; Self::BYTES] {
        self.to_word().to_le_bytes()
    }

    /// Unpacks the on-DRAM image; `None` if the valid bit is clear.
    pub fn unpack(bytes: &[u8; Self::BYTES]) -> Option<PomEntry> {
        Self::from_word(u128::from_le_bytes(*bytes))
    }

    /// Whether this entry translates `(space, vpn)`.
    #[inline]
    pub fn matches(&self, space: AddressSpace, vpn: u64) -> bool {
        self.space == space && self.vpn == vpn
    }

    /// Reach of one entry in bytes for a given partition page size.
    pub fn reach_bytes(size: PageSize) -> u64 {
        size.bytes()
    }
}

/// Whether a storage word holds a live entry.
#[inline]
pub(crate) fn is_live(word: u128) -> bool {
    word & VALID.mask() != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn space(vm: u16, pid: u16) -> AddressSpace {
        AddressSpace::new(VmId(vm), ProcessId(pid))
    }

    #[test]
    fn sixteen_bytes_exactly() {
        assert_eq!(PomEntry::BYTES, 16);
        let e = PomEntry::new(space(1, 2), 0x12345, 0x6789a);
        assert_eq!(e.pack().len(), 16);
        assert_eq!(ATTR.end(), 115, "the layout leaves 13 spare bits");
    }

    #[test]
    fn pack_unpack_round_trip() {
        let e = PomEntry {
            space: space(0xabc, 0x123),
            vpn: 0xf_dead_beef,
            ppn: 0xe_cafe_f00d,
            lru: 3,
            attr: 0x5a,
        };
        assert_eq!(PomEntry::unpack(&e.pack()), Some(e));
    }

    #[test]
    fn vm_ids_past_twelve_bits_do_not_alias() {
        // Figure 5's 12-bit VM field would pack VM 4096 onto VM 0.
        let a = PomEntry::new(space(0, 0), 0x42, 0x99);
        let b = PomEntry::new(space(4096, 0), 0x42, 0x99);
        assert_ne!(a.pack(), b.pack());
        assert_eq!(PomEntry::unpack(&a.pack()), Some(a));
        assert_eq!(PomEntry::unpack(&b.pack()), Some(b));
        let c = PomEntry::new(space(7, 4096), 0x42, 0x99);
        assert_eq!(PomEntry::unpack(&c.pack()), Some(c));
        assert_ne!(PomEntry::key(space(0, 0), 0x42), PomEntry::key(space(4096, 0), 0x42));
    }

    #[test]
    fn zeroed_slot_is_invalid() {
        assert_eq!(PomEntry::unpack(&[0u8; 16]), None);
        assert!(!is_live(0));
    }

    #[test]
    fn key_is_the_masked_word() {
        let e = PomEntry { space: space(9, 3), vpn: 77, ppn: 5, lru: 2, attr: 0xff };
        assert_eq!(e.to_word() & KEY_MASK, PomEntry::key(e.space, e.vpn));
        assert!(is_live(e.to_word()));
    }

    #[test]
    fn matches_requires_space_and_vpn() {
        let e = PomEntry::new(space(1, 2), 100, 200);
        assert!(e.matches(space(1, 2), 100));
        assert!(!e.matches(space(1, 3), 100));
        assert!(!e.matches(space(1, 2), 101));
    }

    #[test]
    #[should_panic(expected = "exceeds 36 bits")]
    fn oversized_vpn_rejected() {
        PomEntry::new(space(0, 0), 1 << 36, 0).pack();
    }

    #[test]
    #[should_panic(expected = "exceeds 36 bits")]
    fn oversized_ppn_rejected() {
        PomEntry::new(space(0, 0), 0, 1 << 36).pack();
    }

    #[test]
    #[should_panic(expected = "2-bit field")]
    fn oversized_lru_rejected() {
        PomEntry { lru: 4, ..PomEntry::new(space(0, 0), 0, 0) }.pack();
    }

    #[test]
    fn four_entries_per_line() {
        assert_eq!(64 / PomEntry::BYTES, 4);
    }

    #[test]
    fn reach_math() {
        // A 16 MB POM-TLB of 4 KB entries reaches 4 GB of memory.
        let entries = (16u64 << 20) / PomEntry::BYTES as u64;
        assert_eq!(entries * PomEntry::reach_bytes(PageSize::Small4K), 4 << 30);
    }

    proptest! {
        #[test]
        fn prop_round_trip(vm in any::<u16>(), pid in any::<u16>(),
                           vpn in 0u64..1 << 36, ppn in 0u64..1 << 36,
                           lru in 0u8..4, attr in any::<u8>()) {
            let e = PomEntry { space: space(vm, pid), vpn, ppn, lru, attr };
            prop_assert_eq!(PomEntry::unpack(&e.pack()), Some(e));
            prop_assert_eq!(PomEntry::from_word(e.to_word()), Some(e));
        }
    }
}
