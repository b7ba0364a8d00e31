//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The per-reference hot path looks up each reference's address space in
//! a map (`SpaceTables::slot` in `pom_tlb::chunk`) before it descends
//! that space's radix page tables. The standard library's default
//! SipHash-1-3 is keyed and DoS-resistant — properties a simulator
//! hashing its *own* identifiers does not need — and costs a long
//! dependency chain per probe. This module provides an FxHash-style
//! multiply-xor hasher: one wrapping multiply per 8 bytes, unkeyed, and
//! identical across runs and platforms, which also removes a source of
//! incidental nondeterminism (`RandomState` seeds differ per process even
//! though iteration order is never relied on).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (the rustc `FxHasher` construction): `hash = (hash
/// rotated ^ word) * K` per 8-byte word, with `K` an odd constant derived
/// from the golden ratio.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// [`HashMap`] keyed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// [`HashSet`] keyed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(0xdead_beef), hash(0xdead_beef));
        assert_ne!(hash(1), hash(2));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 0x1000, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 0x1000)), Some(&i));
        }
        assert_eq!(m.get(&0x5), None);
    }

    #[test]
    fn byte_tail_is_hashed() {
        let mut a = FastHasher::default();
        a.write(b"abcdefghi"); // 8 bytes + 1 remainder
        let mut b = FastHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
