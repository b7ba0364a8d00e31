//! Dependency-free, byte-stable hashing shared by the content-addressed
//! stores.
//!
//! Two families live here: FNV-1a 64 for section integrity checksums, and
//! a 4-lane splitmix-based 256-bit digest for content addressing. Both are
//! byte-stable across platforms, builds and processes — unlike
//! `#[derive(Hash)]` + SipHash with its per-process random keys — which is
//! what lets a digest computed today name a file written last month.
//!
//! The trace store's POMTRC2 format (`disk`) addresses
//! recordings by [`digest256`] of a canonical [`crate::TraceKey`] encoding;
//! the report store in `pomtlb-serve` addresses memoized reports by
//! [`digest256`] of a canonical request encoding. Keeping one construction
//! for both means one set of collision/stability tests and no second hash
//! to audit.

use std::fmt::Write as _;

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer: a strong, invertible 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 256-bit digest: four independently-seeded 64-bit lanes, each absorbing
/// every 8-byte word at a different rotation, finalized with the input
/// length and a cross-lane mix. Not cryptographic — the stores are local
/// caches, not trust boundaries — but collision-resistant far beyond the
/// handful of distinct keys a sweep produces, and byte-stable everywhere.
pub fn digest256(bytes: &[u8]) -> [u8; 32] {
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(w);
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = mix64(*lane ^ word.rotate_left(l as u32 * 17 + 1));
        }
    }
    let len = bytes.len() as u64;
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = mix64(*lane ^ len ^ ((l as u64) << 32));
    }
    let cross = mix64(lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]);
    let mut out = [0u8; 32];
    for (l, lane) in lanes.iter().enumerate() {
        let v = mix64(*lane ^ cross.rotate_left(l as u32 * 13));
        out[l * 8..l * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Lowercase-hex rendering of a digest (the stores' file stem).
pub fn digest_hex(digest: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in digest {
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest256_is_stable_and_length_sensitive() {
        let a = digest256(b"pom-tlb");
        assert_eq!(a, digest256(b"pom-tlb"), "same bytes, same digest");
        // A trailing zero byte must change the digest even though the
        // zero-padded final word is identical (length finalization).
        assert_ne!(a, digest256(b"pom-tlb\0"));
        assert_eq!(digest_hex(&a).len(), 64);
    }

    #[test]
    fn digest256_separates_near_collisions() {
        let mut seen = vec![digest256(b"")];
        for i in 0..=255u8 {
            let d = digest256(&[i]);
            assert!(!seen.contains(&d), "collision at byte {i}");
            seen.push(d);
        }
        // Word-boundary shifts: the same bytes split differently.
        assert_ne!(digest256(&[1, 0, 0, 0, 0, 0, 0, 0]), digest256(&[0, 0, 0, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn digest_hex_is_lowercase_hex() {
        let h = digest_hex(&digest256(b"hex"));
        assert!(h.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }
}
