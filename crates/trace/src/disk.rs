//! The `POMTRC2` on-disk encoding of a [`SharedTrace`] recording.
//!
//! One file holds one recording — the merged reference + OS-event stream of
//! [`crate::SharedTrace`] — laid out so replay can decode it *in place*: the
//! cores and refs sections are byte-for-byte the buffers the in-memory
//! recording already uses, and the sparse event section is small enough to
//! decode eagerly at load. Layout (all integers little-endian):
//!
//! ```text
//! offset size
//! 0      8   magic "POMTRC2\n"
//! 8      4   format version (3)
//! 12     4   key-digest version (2)
//! 16     32  TraceKey content digest (see [`key_digest`])
//! 48     8   n_items  — items in merge order (n_refs + n_events)
//! 56     8   n_refs
//! 64     8   n_events
//! 72     8   FNV-1a 64 checksum of the cores section
//! 80     8   FNV-1a 64 checksum of the refs section
//! 88     8   FNV-1a 64 checksum of the events section
//! 96     8   FNV-1a 64 checksum of header bytes [0, 96)
//! 104        cores  section: n_items  ×  2-byte issuing-core id
//!            refs   section: n_refs   × 22-byte record
//!            events section: n_events × 32-byte event record
//! ```
//!
//! Event records pack one `(item position, OsEvent)` pair:
//!
//! ```text
//! pos u64 | icount u64 | vm u16 | pid u16 | kind u8 | size u8 | pad u16 | payload u64
//! ```
//!
//! `kind` is 0 unmap / 1 remap / 2 promote / 3 migrate / 4 vm-destroy;
//! `size` tags the page size (0 = 4 KB, 1 = 2 MB) for unmap/remap and is 0
//! otherwise; `payload` carries the target VA, window base, or destination
//! core. Section lengths are implied by the header counts, so the expected
//! file length is exact — a file one byte short or long is rejected.
//!
//! Every consumer validates magic, both versions, the header checksum, the
//! exact file length, and the per-section checksums before trusting a byte;
//! any mismatch is an `InvalidData` error the [`crate::TraceStore`] turns
//! into a warn-and-regenerate fallback, never a wrong answer.

use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

use pomtlb_types::{AddressSpace, Gva, PageSize, ProcessId, VmId};

pub(crate) use crate::digest::{digest256, digest_hex, fnv1a64};
use crate::event::{OsEvent, OsEventKind};
use crate::record::RECORD_BYTES;
use crate::shared::TraceKey;
use crate::spec::LocalityModel;

/// File magic of the store's merged-and-checksummed recording.
pub(crate) const STORE_MAGIC: &[u8; 8] = b"POMTRC2\n";
/// Bumped whenever the layout above changes; readers reject other versions.
/// Version 3 added the tenant-mix fields to the key encoding: records are
/// unchanged, but pre-tenancy recordings must not alias tenancy-aware keys,
/// so the reader rejects version-2 files and the store regenerates them.
pub(crate) const FORMAT_VERSION: u32 = 3;
/// Version of the canonical [`key_bytes`] encoding, baked into both the
/// digest input and the header so stale digests can never alias new ones.
pub(crate) const KEY_DIGEST_VERSION: u32 = 2;
/// Fixed header size in bytes.
pub(crate) const HEADER_BYTES: usize = 104;
/// Bytes per encoded event record.
pub(crate) const EVENT_BYTES: usize = 32;
/// Bytes per core-id entry in the cores section.
pub(crate) const CORE_BYTES: usize = 2;

// ---------------------------------------------------------------------------
// Hashing: FNV-1a 64 for section integrity, the shared [`crate::digest`]
// 4-lane splitmix 256-bit construction for content addressing (re-exported
// above so this module's callers keep their `disk::` paths).

// ---------------------------------------------------------------------------
// Canonical TraceKey serialization. Field-by-field, explicitly versioned,
// with tagged enums and length-prefixed strings — the digest depends only on
// the key's *values*, never on struct layout, field order in memory, or a
// derived Hash implementation.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_locality(out: &mut Vec<u8>, m: &LocalityModel) {
    match m {
        LocalityModel::Streaming { streams } => {
            put_u8(out, 0);
            put_u32(out, *streams);
        }
        LocalityModel::UniformRandom => put_u8(out, 1),
        LocalityModel::Zipf { alpha } => {
            put_u8(out, 2);
            put_f64(out, *alpha);
        }
        LocalityModel::PointerChase { hot_frac, hot_prob } => {
            put_u8(out, 3);
            put_f64(out, *hot_frac);
            put_f64(out, *hot_prob);
        }
        LocalityModel::WorkingSetWindow { window_pages, dwell } => {
            put_u8(out, 4);
            put_u64(out, *window_pages);
            put_u64(out, *dwell);
        }
        LocalityModel::TlbConflictSet { pages, stride_pages } => {
            put_u8(out, 5);
            put_u32(out, *pages);
            put_u64(out, *stride_pages);
        }
        LocalityModel::Mixed(parts) => {
            put_u8(out, 6);
            put_u64(out, parts.len() as u64);
            for (weight, sub) in parts {
                put_f64(out, *weight);
                put_locality(out, sub);
            }
        }
    }
}

/// The canonical byte encoding of a [`TraceKey`], version
/// [`KEY_DIGEST_VERSION`]. Every field that influences the recorded stream
/// is included — spec (name, footprint, page mix, rates, locality, burst
/// knobs, all five OS-event rates), seed, core count, sharing mode and
/// reference budget.
pub(crate) fn key_bytes(key: &TraceKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(160);
    put_u32(&mut out, KEY_DIGEST_VERSION);
    let spec = &key.spec;
    put_str(&mut out, &spec.name);
    put_u64(&mut out, spec.footprint_bytes);
    put_f64(&mut out, spec.large_page_frac);
    put_f64(&mut out, spec.refs_per_kilo_instr);
    put_f64(&mut out, spec.write_frac);
    put_locality(&mut out, &spec.locality);
    put_f64(&mut out, spec.same_page_burst);
    put_f64(&mut out, spec.line_repeat);
    put_f64(&mut out, spec.os_events.unmaps);
    put_f64(&mut out, spec.os_events.remaps);
    put_f64(&mut out, spec.os_events.promotes);
    put_f64(&mut out, spec.os_events.migrations);
    put_f64(&mut out, spec.os_events.vm_destroys);
    put_u64(&mut out, u64::from(spec.tenancy.vms));
    put_f64(&mut out, spec.tenancy.skew);
    put_f64(&mut out, spec.tenancy.ws_decay);
    put_f64(&mut out, spec.tenancy.churn_destroys_per_10k);
    put_f64(&mut out, spec.tenancy.fork_storms_per_10k);
    put_u64(&mut out, u64::from(spec.tenancy.fork_pages));
    put_u64(&mut out, key.seed);
    put_u64(&mut out, key.n_cores as u64);
    put_u8(&mut out, u8::from(key.shared_memory));
    put_u64(&mut out, key.total_refs);
    out
}

/// [`digest256`] of [`key_bytes`] — the store's content address.
pub(crate) fn key_digest(key: &TraceKey) -> [u8; 32] {
    digest256(&key_bytes(key))
}

// ---------------------------------------------------------------------------
// Event record codec.

fn size_tag(size: PageSize) -> u8 {
    match size {
        PageSize::Small4K => 0,
        PageSize::Large2M => 1,
        PageSize::Huge1G => 2,
    }
}

fn tag_size(tag: u8) -> io::Result<PageSize> {
    match tag {
        0 => Ok(PageSize::Small4K),
        1 => Ok(PageSize::Large2M),
        2 => Ok(PageSize::Huge1G),
        other => Err(invalid(format!("invalid page-size tag {other}"))),
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Encodes one `(item position, event)` pair into a 32-byte record.
pub(crate) fn encode_event(pos: u64, e: &OsEvent, buf: &mut [u8; EVENT_BYTES]) {
    buf.fill(0);
    buf[0..8].copy_from_slice(&pos.to_le_bytes());
    buf[8..16].copy_from_slice(&e.icount.to_le_bytes());
    buf[16..18].copy_from_slice(&e.space.vm.0.to_le_bytes());
    buf[18..20].copy_from_slice(&e.space.process.0.to_le_bytes());
    let (kind, size, payload): (u8, u8, u64) = match e.kind {
        OsEventKind::UnmapPage { va, size } => (0, size_tag(size), va.raw()),
        OsEventKind::RemapPage { va, size } => (1, size_tag(size), va.raw()),
        OsEventKind::PromotePage { window_base } => (2, 0, window_base.raw()),
        OsEventKind::MigrateProcess { to_core } => (3, 0, u64::from(to_core)),
        OsEventKind::DestroyVm => (4, 0, 0),
    };
    buf[20] = kind;
    buf[21] = size;
    buf[24..32].copy_from_slice(&payload.to_le_bytes());
}

/// Decodes one event record, validating every tag.
pub(crate) fn decode_event(buf: &[u8; EVENT_BYTES]) -> io::Result<(u64, OsEvent)> {
    let pos = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let icount = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let vm = u16::from_le_bytes(buf[16..18].try_into().expect("2 bytes"));
    let pid = u16::from_le_bytes(buf[18..20].try_into().expect("2 bytes"));
    if buf[22] != 0 || buf[23] != 0 {
        return Err(invalid("nonzero event-record padding"));
    }
    let payload = u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes"));
    let kind = match buf[20] {
        0 => OsEventKind::UnmapPage { va: Gva::new(payload), size: tag_size(buf[21])? },
        1 => OsEventKind::RemapPage { va: Gva::new(payload), size: tag_size(buf[21])? },
        2 => OsEventKind::PromotePage { window_base: Gva::new(payload) },
        3 => {
            if payload > u64::from(u16::MAX) {
                return Err(invalid(format!("migration target {payload} exceeds u16")));
            }
            OsEventKind::MigrateProcess { to_core: payload as u16 }
        }
        4 => OsEventKind::DestroyVm,
        other => return Err(invalid(format!("invalid event kind byte {other}"))),
    };
    let space = AddressSpace::new(VmId(vm), ProcessId(pid));
    Ok((pos, OsEvent { icount, space, kind }))
}

/// Decodes a whole events section, enforcing strictly increasing positions
/// bounded by `n_items` (replay requires position-sorted events).
pub(crate) fn decode_events(bytes: &[u8], n_items: u64) -> io::Result<Vec<(u64, OsEvent)>> {
    if !bytes.len().is_multiple_of(EVENT_BYTES) {
        return Err(invalid("events section is not a whole number of records"));
    }
    let mut out = Vec::with_capacity(bytes.len() / EVENT_BYTES);
    let mut prev: Option<u64> = None;
    for rec in bytes.chunks_exact(EVENT_BYTES) {
        let rec: &[u8; EVENT_BYTES] = rec.try_into().expect("chunk has EVENT_BYTES bytes");
        let (pos, e) = decode_event(rec)?;
        if pos >= n_items {
            return Err(invalid(format!("event position {pos} beyond {n_items} items")));
        }
        if prev.is_some_and(|p| pos <= p) {
            return Err(invalid("event positions are not strictly increasing"));
        }
        prev = Some(pos);
        out.push((pos, e));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Whole-file write / parse / validate.

/// Header counts and section extents, decoded and sanity-checked.
#[derive(Debug)]
pub(crate) struct StoredHeader {
    /// The key digest the writer recorded.
    pub digest: [u8; 32],
    /// Items in merge order (refs + events).
    pub n_items: u64,
    /// Memory-reference records.
    pub n_refs: u64,
    /// Event records.
    pub n_events: u64,
    /// Byte extent of the cores section within the file.
    pub cores_range: Range<usize>,
    /// Byte extent of the refs section within the file.
    pub refs_range: Range<usize>,
    /// Byte extent of the events section within the file.
    pub events_range: Range<usize>,
    /// Expected checksums of the three sections, in the same order.
    pub section_checksums: [u64; 3],
}

/// Serializes one recording, returning the bytes written.
pub(crate) fn write_stored<W: Write>(
    w: &mut W,
    digest: &[u8; 32],
    cores: &[u8],
    refs: &[u8],
    events: &[(u64, OsEvent)],
) -> io::Result<u64> {
    let n_items = (cores.len() / CORE_BYTES) as u64;
    let n_refs = (refs.len() / RECORD_BYTES) as u64;
    let mut ev_bytes = Vec::with_capacity(events.len() * EVENT_BYTES);
    let mut buf = [0u8; EVENT_BYTES];
    for (pos, e) in events {
        encode_event(*pos, e, &mut buf);
        ev_bytes.extend_from_slice(&buf);
    }
    let mut header = [0u8; HEADER_BYTES];
    header[0..8].copy_from_slice(STORE_MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&KEY_DIGEST_VERSION.to_le_bytes());
    header[16..48].copy_from_slice(digest);
    header[48..56].copy_from_slice(&n_items.to_le_bytes());
    header[56..64].copy_from_slice(&n_refs.to_le_bytes());
    header[64..72].copy_from_slice(&(events.len() as u64).to_le_bytes());
    header[72..80].copy_from_slice(&fnv1a64(cores).to_le_bytes());
    header[80..88].copy_from_slice(&fnv1a64(refs).to_le_bytes());
    header[88..96].copy_from_slice(&fnv1a64(&ev_bytes).to_le_bytes());
    let hsum = fnv1a64(&header[..96]);
    header[96..104].copy_from_slice(&hsum.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(cores)?;
    w.write_all(refs)?;
    w.write_all(&ev_bytes)?;
    Ok((HEADER_BYTES + cores.len() + refs.len() + ev_bytes.len()) as u64)
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Parses and validates a header against the full file contents: magic,
/// versions, header checksum, count consistency, and the *exact* expected
/// file length (so truncation and trailing garbage both fail here).
pub(crate) fn parse_header(bytes: &[u8]) -> io::Result<StoredHeader> {
    if bytes.len() < HEADER_BYTES {
        return Err(invalid(format!("file is {} bytes, header needs {HEADER_BYTES}", bytes.len())));
    }
    if &bytes[0..8] != STORE_MAGIC {
        return Err(invalid("not a POMTRC2 recording (bad magic)"));
    }
    let stored_hsum = read_u64(bytes, 96);
    if fnv1a64(&bytes[..96]) != stored_hsum {
        return Err(invalid("header checksum mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(invalid(format!("format version {version}, reader supports {FORMAT_VERSION}")));
    }
    let kd_version = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if kd_version != KEY_DIGEST_VERSION {
        return Err(invalid(format!(
            "key-digest version {kd_version}, reader supports {KEY_DIGEST_VERSION}"
        )));
    }
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&bytes[16..48]);
    let n_items = read_u64(bytes, 48);
    let n_refs = read_u64(bytes, 56);
    let n_events = read_u64(bytes, 64);
    if n_refs.checked_add(n_events) != Some(n_items) {
        return Err(invalid("item count does not equal refs + events"));
    }
    let cores_len = (n_items as usize).checked_mul(CORE_BYTES).ok_or_else(|| invalid("cores section overflows"))?;
    let refs_len = (n_refs as usize).checked_mul(RECORD_BYTES).ok_or_else(|| invalid("refs section overflows"))?;
    let events_len = (n_events as usize).checked_mul(EVENT_BYTES).ok_or_else(|| invalid("events section overflows"))?;
    let expected = HEADER_BYTES
        .checked_add(cores_len)
        .and_then(|n| n.checked_add(refs_len))
        .and_then(|n| n.checked_add(events_len))
        .ok_or_else(|| invalid("file length overflows"))?;
    if bytes.len() != expected {
        return Err(invalid(format!(
            "file is {} bytes, header promises {expected} (truncated or oversized)",
            bytes.len()
        )));
    }
    let cores_start = HEADER_BYTES;
    let refs_start = cores_start + cores_len;
    let events_start = refs_start + refs_len;
    Ok(StoredHeader {
        digest,
        n_items,
        n_refs,
        n_events,
        cores_range: cores_start..refs_start,
        refs_range: refs_start..events_start,
        events_range: events_start..expected,
        section_checksums: [read_u64(bytes, 72), read_u64(bytes, 80), read_u64(bytes, 88)],
    })
}

/// Recomputes and compares all three section checksums.
pub(crate) fn validate_sections(bytes: &[u8], h: &StoredHeader) -> io::Result<()> {
    let sections = [
        ("cores", &h.cores_range, h.section_checksums[0]),
        ("refs", &h.refs_range, h.section_checksums[1]),
        ("events", &h.events_range, h.section_checksums[2]),
    ];
    for (name, range, expected) in sections {
        if fnv1a64(&bytes[range.clone()]) != expected {
            return Err(invalid(format!("{name} section checksum mismatch")));
        }
    }
    Ok(())
}

/// Fully validates one recording file: header, length, section checksums,
/// and record-level decode of the events section plus the refs kind bytes.
/// Returns the header on success.
pub(crate) fn verify_file(path: &Path) -> io::Result<StoredHeader> {
    let bytes = std::fs::read(path)?;
    let h = parse_header(&bytes)?;
    validate_sections(&bytes, &h)?;
    decode_events(&bytes[h.events_range.clone()], h.n_items)?;
    for rec in bytes[h.refs_range.clone()].chunks_exact(RECORD_BYTES) {
        if rec[20] > 1 || rec[21] != 0 {
            return Err(invalid("malformed reference record"));
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OsEventRates;
    use crate::spec::WorkloadSpec;
    use proptest::prelude::*;

    fn key(seed: u64) -> TraceKey {
        let spec = WorkloadSpec::builder("digest-test")
            .footprint_bytes(32 << 20)
            .large_page_frac(0.3)
            .locality(LocalityModel::Zipf { alpha: 0.9 })
            .build();
        TraceKey { spec, seed, n_cores: 4, shared_memory: false, total_refs: 10_000 }
    }

    #[test]
    fn digest_is_stable_across_computations() {
        let k = key(7);
        let (a, b) = (key_digest(&k), key_digest(&k));
        assert_eq!(a, b);
        assert_eq!(digest_hex(&a).len(), 64);
    }

    #[test]
    fn digest_distinguishes_every_key_field() {
        let base = key(7);
        let mut variants: Vec<TraceKey> = vec![
            TraceKey { seed: 8, ..base.clone() },
            TraceKey { n_cores: 8, ..base.clone() },
            TraceKey { shared_memory: true, ..base.clone() },
            TraceKey { total_refs: 10_001, ..base.clone() },
        ];
        let mut s = base.clone();
        s.spec.name = "digest-test2".into();
        variants.push(s);
        let mut s = base.clone();
        s.spec.footprint_bytes += 4 << 10;
        variants.push(s);
        let mut s = base.clone();
        s.spec.locality = LocalityModel::Zipf { alpha: 0.91 };
        variants.push(s);
        let mut s = base.clone();
        s.spec.locality = LocalityModel::UniformRandom;
        variants.push(s);
        let mut s = base.clone();
        s.spec.os_events = OsEventRates::unmap_heavy(5.0);
        variants.push(s);
        let mut s = base.clone();
        s.spec.os_events = OsEventRates { remaps: 5.0, ..Default::default() };
        variants.push(s);
        let mut s = base.clone();
        s.spec.write_frac += 0.01;
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix { vms: 1000, ..Default::default() };
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix { vms: 1000, skew: 0.9, ..Default::default() };
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix {
            vms: 1000,
            churn_destroys_per_10k: 0.5,
            ..Default::default()
        };
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix {
            vms: 1000,
            fork_storms_per_10k: 1.0,
            fork_pages: 16,
            ..Default::default()
        };
        variants.push(s);

        let mut digests = vec![key_digest(&base)];
        for v in &variants {
            let d = key_digest(v);
            assert!(!digests.contains(&d), "collision for variant {v:?}");
            digests.push(d);
        }
    }

    #[test]
    fn mixed_locality_digest_is_parameter_sensitive() {
        let mk = |parts: Vec<(f64, LocalityModel)>| {
            let mut k = key(1);
            k.spec.locality = LocalityModel::Mixed(parts);
            key_digest(&k)
        };
        let a = mk(vec![(0.7, LocalityModel::UniformRandom), (0.3, LocalityModel::Zipf { alpha: 0.9 })]);
        let b = mk(vec![(0.3, LocalityModel::UniformRandom), (0.7, LocalityModel::Zipf { alpha: 0.9 })]);
        let c = mk(vec![(0.7, LocalityModel::UniformRandom), (0.3, LocalityModel::Zipf { alpha: 0.8 })]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn event_record_round_trips_every_kind() {
        let space = AddressSpace::new(VmId(3), ProcessId(9));
        let events = [
            OsEventKind::UnmapPage { va: Gva::new(0x1000), size: PageSize::Small4K },
            OsEventKind::RemapPage { va: Gva::new(0x40_0000), size: PageSize::Large2M },
            OsEventKind::PromotePage { window_base: Gva::new(0x20_0000) },
            OsEventKind::MigrateProcess { to_core: 6 },
            OsEventKind::DestroyVm,
        ];
        let mut buf = [0u8; EVENT_BYTES];
        for (i, kind) in events.into_iter().enumerate() {
            let e = OsEvent { icount: 1000 + i as u64, space, kind };
            encode_event(42 + i as u64, &e, &mut buf);
            let (pos, back) = decode_event(&buf).expect("round trip");
            assert_eq!(pos, 42 + i as u64);
            assert_eq!(back, e);
        }
    }

    #[test]
    fn decode_rejects_bad_tags() {
        let e = OsEvent {
            icount: 1,
            space: AddressSpace::default(),
            kind: OsEventKind::DestroyVm,
        };
        let mut buf = [0u8; EVENT_BYTES];
        encode_event(0, &e, &mut buf);
        let mut bad = buf;
        bad[20] = 9;
        assert!(decode_event(&bad).is_err(), "bad kind byte");
        let mut bad = buf;
        bad[22] = 1;
        assert!(decode_event(&bad).is_err(), "nonzero padding");
    }

    #[test]
    fn file_round_trips_and_rejects_corruption() {
        let digest = key_digest(&key(3));
        let cores: Vec<u8> = (0u16..6).flat_map(|c| c.to_le_bytes()).collect();
        // 4 refs + 2 events = 6 items.
        let mut refs = Vec::new();
        let mut rbuf = [0u8; RECORD_BYTES];
        for i in 0..4u64 {
            let r = crate::record::MemoryRef::new(
                i * 10,
                Gva::new(0x1000 * (i + 1)),
                pomtlb_types::AccessKind::Read,
                AddressSpace::default(),
            );
            crate::record::encode_record(&r, &mut rbuf);
            refs.extend_from_slice(&rbuf);
        }
        let events = vec![
            (1u64, OsEvent { icount: 5, space: AddressSpace::default(), kind: OsEventKind::DestroyVm }),
            (4u64, OsEvent {
                icount: 25,
                space: AddressSpace::default(),
                kind: OsEventKind::UnmapPage { va: Gva::new(0x2000), size: PageSize::Small4K },
            }),
        ];
        let mut file = Vec::new();
        let written = write_stored(&mut file, &digest, &cores, &refs, &events).expect("write");
        assert_eq!(written as usize, file.len());

        let h = parse_header(&file).expect("parse");
        assert_eq!(h.digest, digest);
        assert_eq!((h.n_items, h.n_refs, h.n_events), (6, 4, 2));
        validate_sections(&file, &h).expect("checksums");
        let back = decode_events(&file[h.events_range.clone()], h.n_items).expect("events");
        assert_eq!(back, events);

        // Any flipped byte is caught: header flips fail the header checksum
        // or magic; section flips fail a section checksum.
        for pos in [0, 20, 50, 97, HEADER_BYTES + 1, file.len() - 1] {
            let mut bad = file.clone();
            bad[pos] ^= 0xff;
            let broken = match parse_header(&bad) {
                Err(_) => true,
                Ok(h) => validate_sections(&bad, &h).is_err(),
            };
            assert!(broken, "flip at {pos} must be detected");
        }

        // Truncation at any boundary fails the length check.
        for cut in [10, HEADER_BYTES, file.len() - 1] {
            assert!(parse_header(&file[..cut]).is_err(), "truncation to {cut} must be detected");
        }

        // A version bump is rejected cleanly (checksum recomputed so the
        // version check itself is reached).
        let mut wrong = file.clone();
        wrong[8..12].copy_from_slice(&9u32.to_le_bytes());
        let hsum = fnv1a64(&wrong[..96]);
        wrong[96..104].copy_from_slice(&hsum.to_le_bytes());
        let err = parse_header(&wrong).expect_err("future version must be rejected");
        assert!(err.to_string().contains("format version"), "got: {err}");
    }

    /// The checks `TraceStore::load` runs, in its order.
    fn decode(bytes: &[u8]) -> io::Result<(StoredHeader, Vec<(u64, OsEvent)>)> {
        let h = parse_header(bytes)?;
        validate_sections(bytes, &h)?;
        let events = decode_events(&bytes[h.events_range.clone()], h.n_items)?;
        Ok((h, events))
    }

    /// A valid recording file and the sections it was written from.
    struct Recording {
        file: Vec<u8>,
        cores: Vec<u8>,
        refs: Vec<u8>,
        events: Vec<(u64, OsEvent)>,
    }

    /// A valid recording of `n_refs` references and `n_events` events,
    /// spread evenly over the merged stream.
    fn recording(n_refs: usize, n_events: usize, salt: u64) -> Recording {
        let n_items = n_refs + n_events;
        let cores: Vec<u8> =
            (0..n_items as u64).flat_map(|i| ((i ^ salt) as u16 % 8).to_le_bytes()).collect();
        let mut refs = Vec::new();
        let mut rbuf = [0u8; RECORD_BYTES];
        for i in 0..n_refs as u64 {
            let kind = if (salt >> (i % 64)) & 1 == 1 {
                pomtlb_types::AccessKind::Write
            } else {
                pomtlb_types::AccessKind::Read
            };
            let r = crate::record::MemoryRef::new(
                i * 7 + salt % 1000,
                Gva::new(0x1000 * ((salt.wrapping_add(i)) % (1 << 30) + 1)),
                kind,
                AddressSpace::default(),
            );
            crate::record::encode_record(&r, &mut rbuf);
            refs.extend_from_slice(&rbuf);
        }
        let events: Vec<(u64, OsEvent)> = (0..n_events)
            .map(|i| {
                let va = Gva::new(0x2000 * (i as u64 + 1));
                let kind = if i % 2 == 0 {
                    OsEventKind::DestroyVm
                } else {
                    OsEventKind::UnmapPage { va, size: PageSize::Small4K }
                };
                let pos = (i * (n_items / n_events)) as u64;
                (pos, OsEvent { icount: pos * 3, space: AddressSpace::default(), kind })
            })
            .collect();
        let mut file = Vec::new();
        write_stored(&mut file, &key_digest(&key(salt)), &cores, &refs, &events).expect("write");
        Recording { file, cores, refs, events }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn intact_recording_round_trips(
            n_refs in 1usize..40,
            n_events in 0usize..6,
            salt in any::<u64>(),
        ) {
            let r = recording(n_refs, n_events, salt);
            let (h, back) = decode(&r.file).expect("an intact recording decodes");
            prop_assert_eq!(h.digest, key_digest(&key(salt)));
            prop_assert_eq!(&r.file[h.cores_range.clone()], r.cores.as_slice());
            prop_assert_eq!(&r.file[h.refs_range.clone()], r.refs.as_slice());
            prop_assert_eq!(back, r.events);
        }

        #[test]
        fn any_flipped_byte_is_an_error(
            n_refs in 1usize..40,
            n_events in 0usize..6,
            pos in any::<usize>(),
            mask in any::<u8>(),
        ) {
            let mut file = recording(n_refs, n_events, pos as u64).file;
            let pos = pos % file.len();
            file[pos] ^= mask.max(1);
            let flipped = decode(&file);
            prop_assert!(flipped.is_err(), "flip of byte {} with {:#x} decoded", pos, mask.max(1));
        }

        #[test]
        fn any_truncation_is_an_error(
            n_refs in 1usize..40,
            n_events in 0usize..6,
            cut in any::<usize>(),
        ) {
            let file = recording(n_refs, n_events, cut as u64).file;
            let cut = cut % file.len();
            let truncated = decode(&file[..cut]);
            prop_assert!(truncated.is_err(), "truncation to {} of {} decoded", cut, file.len());
        }

        #[test]
        fn any_extension_is_an_error(
            n_refs in 1usize..40,
            n_events in 0usize..6,
            tail in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let mut file = recording(n_refs, n_events, tail.len() as u64).file;
            file.extend_from_slice(&tail);
            prop_assert!(decode(&file).is_err(), "{} trailing bytes decoded", tail.len());
        }
    }
}
