//! A persistent, content-addressed store of memoized serve responses.
//!
//! The trace store removed redundant *generator* passes across
//! invocations; every finished `SimReport` still died with its process. The
//! report store closes that gap for the serve daemon: the canonical
//! response body of a completed request is spilled to disk in the
//! checksummed POMREP1 format, addressed by the request digest
//! (`pomtlb_serve::request_digest`), so a repeated identical request —
//! same TraceKey, same hardware/run configuration — is a disk read, not a
//! simulation.
//!
//! # Layout on disk
//!
//! ```text
//! <root>/
//!   <64-hex-char request digest>.pomrep   one memoized body each (POMREP1)
//!   manifest.tsv                          advisory index: sizes, LRU stamps
//! ```
//!
//! One POMREP1 file (all integers little-endian):
//!
//! ```text
//! offset size
//! 0      8   magic "POMREP1\n"
//! 8      4   format version (1)
//! 12     32  request digest (must match the file stem's hex)
//! 44     8   payload length in bytes
//! 52     8   FNV-1a 64 checksum of the payload
//! 60     8   FNV-1a 64 checksum of header bytes [0, 60)
//! 68         payload: the canonical JSON response body, byte-exact
//! ```
//!
//! [`ReportStore`] is the one content-addressed [`Store`] of
//! [`crate::manifest`] over this codec, as [`crate::TraceStore`] is over
//! POMTRC2: the staged write, the advisory manifest (written at most once
//! per second per handle, so a memoized answer is one file read and a
//! checksum), the load path with its fallback rules, `verify` and the LRU
//! GC pass live there. It lives in this crate because its typed `save` is
//! an inherent method of `Store<ReportCodec>`, which Rust allows only in
//! the crate that defines `Store`; `pomtlb_serve` re-exports it.
//!
//! Because the payload is stored byte-exact, a hit is byte-identical to
//! the computed response it memoizes; any defect is a miss, and the
//! service recomputes.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::digest::{digest_hex, fnv1a64};
use crate::manifest::{check_name, Codec, Row, Store};

/// File magic for memoized response bodies.
const REPORT_MAGIC: &[u8; 8] = b"POMREP1\n";
/// Bumped whenever the layout above changes; readers reject other versions.
pub const REPORT_FORMAT_VERSION: u32 = 1;
/// Fixed header size in bytes.
const HEADER_BYTES: usize = 68;
/// Default size cap for [`ReportStore::gc`]: 256 MiB (bodies are small
/// JSON documents; this is thousands of memoized sweeps).
pub const DEFAULT_REPORT_MAX_BYTES: u64 = 256 << 20;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The POMREP1 codec: response bodies keyed by their request digest.
#[derive(Debug)]
pub struct ReportCodec;

/// A persistent, content-addressed cache of serve response bodies under
/// one directory. See the module docs for the on-disk contract.
pub type ReportStore = Store<ReportCodec>;

/// One memoized body visible in the store directory, merged from the file
/// scan and the advisory manifest.
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// Request digest (the file stem).
    pub digest: String,
    /// Request kind ("?" when the manifest lacks the entry).
    pub kind: String,
    /// Workload name ("?" when the manifest lacks the entry).
    pub workload: String,
    /// File size in bytes (from the file system, not the manifest).
    pub bytes: u64,
    /// Unix seconds of last load or save (0 when unknown).
    pub last_used: u64,
}

/// Fixed columns first, the free-form kind and workload last.
impl Row for ReportEntry {
    const TAG: &'static str = "pomtlb-report-manifest";
    const VERSION: u32 = REPORT_FORMAT_VERSION;

    fn digest(&self) -> &str {
        &self.digest
    }

    fn last_used(&self) -> u64 {
        self.last_used
    }

    fn set_last_used(&mut self, stamp: u64) {
        self.last_used = stamp;
    }

    fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    fn to_line(&self) -> String {
        let clean = |s: &str| s.chars().filter(|c| !c.is_control()).collect::<String>();
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.digest,
            self.bytes,
            self.last_used,
            clean(&self.kind),
            clean(&self.workload),
        )
    }

    fn parse(line: &str) -> Option<ReportEntry> {
        let f: Vec<&str> = line.splitn(5, '\t').collect();
        if f.len() != 5 {
            return None;
        }
        Some(ReportEntry {
            digest: f[0].to_string(),
            kind: f[3].to_string(),
            workload: f[4].to_string(),
            bytes: f[1].parse().ok()?,
            last_used: f[2].parse().ok()?,
        })
    }
}

impl Codec for ReportCodec {
    type Row = ReportEntry;
    type Key = [u8; 32];
    type Value = Vec<u8>;
    const EXT: &'static str = "pomrep";
    const NAME: &'static str = "report-store";
    const FALLBACK: &'static str = "recomputing";
    const DEFAULT_MAX_BYTES: u64 = DEFAULT_REPORT_MAX_BYTES;

    fn digest(key: &[u8; 32]) -> [u8; 32] {
        *key
    }

    fn decode(path: &Path, key: &[u8; 32]) -> io::Result<(Vec<u8>, u64)> {
        let bytes = fs::read(path)?;
        Ok((decode_entry(&bytes, key)?, bytes.len() as u64))
    }

    fn value_bytes(payload: &Vec<u8>) -> u64 {
        payload.len() as u64
    }

    /// Header, digest against the file name, exact length, checksums.
    fn verify(path: &Path, name: &str) -> io::Result<()> {
        let mut bytes = Vec::new();
        fs::File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_BYTES {
            return Err(invalid("file shorter than the POMREP1 header"));
        }
        let mut digest = [0u8; 32];
        digest.copy_from_slice(&bytes[12..44]);
        check_name(&digest, name)?;
        decode_entry(&bytes, &digest).map(|_| ())
    }

    /// Unlabelled: a body records no kind or workload.
    fn unindexed(_: &Path, digest: String, bytes: u64, last_used: u64) -> ReportEntry {
        ReportEntry { digest, kind: "?".into(), workload: "?".into(), bytes, last_used }
    }
}

impl Store<ReportCodec> {
    /// Persists `payload` as the memoized body for `digest`, returning the
    /// bytes written (see [`crate::manifest::write_staged`]); its manifest
    /// row is labelled with `kind` and `workload`, and the flush that
    /// merges it runs a GC pass to enforce the size cap.
    pub fn save(
        &self,
        digest: &[u8; 32],
        payload: &[u8],
        kind: &str,
        workload: &str,
    ) -> io::Result<u64> {
        let hex = digest_hex(digest);
        let encoded = encode_entry(digest, payload);
        self.save_body(
            &hex,
            |w| w.write_all(&encoded).map(|()| encoded.len() as u64),
            |bytes| ReportEntry {
                digest: hex.clone(),
                kind: kind.to_string(),
                workload: workload.to_string(),
                bytes,
                last_used: 0,
            },
        )
    }
}

/// Encodes one POMREP1 file: header + payload.
fn encode_entry(digest: &[u8; 32], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(REPORT_MAGIC);
    out.extend_from_slice(&REPORT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(digest);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    let header_sum = fnv1a64(&out[..60]);
    out.extend_from_slice(&header_sum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes and fully validates one POMREP1 file against the expected
/// request digest, returning the payload bytes.
fn decode_entry(bytes: &[u8], expect_digest: &[u8; 32]) -> io::Result<Vec<u8>> {
    if bytes.len() < HEADER_BYTES {
        return Err(invalid("file shorter than the POMREP1 header"));
    }
    if &bytes[..8] != REPORT_MAGIC {
        return Err(invalid("bad magic (not a POMREP1 file)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap_or_default());
    if version != REPORT_FORMAT_VERSION {
        return Err(invalid(format!(
            "format version {version}, expected {REPORT_FORMAT_VERSION}"
        )));
    }
    let header_sum = u64::from_le_bytes(bytes[60..68].try_into().unwrap_or_default());
    if fnv1a64(&bytes[..60]) != header_sum {
        return Err(invalid("header checksum mismatch"));
    }
    if &bytes[12..44] != expect_digest {
        return Err(invalid("stored digest does not match the requested key"));
    }
    let payload_len = u64::from_le_bytes(bytes[44..52].try_into().unwrap_or_default());
    let expect_len = HEADER_BYTES as u64 + payload_len;
    if bytes.len() as u64 != expect_len {
        return Err(invalid(format!(
            "file is {} bytes, header implies {expect_len}",
            bytes.len()
        )));
    }
    let payload = &bytes[HEADER_BYTES..];
    let payload_sum = u64::from_le_bytes(bytes[52..60].try_into().unwrap_or_default());
    if fnv1a64(payload) != payload_sum {
        return Err(invalid("payload checksum mismatch"));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest256;
    use crate::manifest::{unix_now, MANIFEST_FILE, STAGING_MAX_AGE};
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::time::{Duration, SystemTime};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir()
                .join(format!("pomtlb-report-store-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_then_load_round_trips_byte_exact() {
        let dir = TempDir::new("roundtrip");
        let store = ReportStore::open(&dir.0).expect("open");
        let digest = digest256(b"request-1");
        let payload = br#"{"kind":"compare","reports":[1,2,3]}"#;
        store.save(&digest, payload, "compare", "gups").expect("save");
        let back = store.load(&digest).expect("hit");
        assert_eq!(back, payload.to_vec(), "payload is byte-exact");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 0, 1));
        assert_eq!(c.bytes_read, payload.len() as u64);
    }

    #[test]
    fn absent_entry_is_a_clean_miss() {
        let dir = TempDir::new("miss");
        let store = ReportStore::open(&dir.0).expect("open");
        assert!(store.load(&digest256(b"never-saved")).is_none());
        let c = store.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.load_failures, 0, "absence is not a defect");
    }

    #[test]
    fn corruption_is_detected_and_recomputed() {
        let dir = TempDir::new("corrupt");
        let store = ReportStore::open(&dir.0).expect("open");
        let digest = digest256(b"to-corrupt");
        store.save(&digest, b"payload bytes here", "sim", "mcf").expect("save");
        // Flip one payload byte on disk.
        let path = store.body_path(&digest_hex(&digest));
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(store.load(&digest).is_none(), "corrupt entry must miss");
        assert_eq!(store.counters().load_failures, 1);
        // A recompute's save overwrites and the entry is usable again.
        store.save(&digest, b"payload bytes here", "sim", "mcf").expect("resave");
        assert_eq!(store.load(&digest).expect("hit"), b"payload bytes here".to_vec());
    }

    #[test]
    fn truncation_and_foreign_magic_are_defects() {
        let dir = TempDir::new("defects");
        let store = ReportStore::open(&dir.0).expect("open");
        let digest = digest256(b"trunc");
        store.save(&digest, b"0123456789", "sim", "gups").expect("save");
        let path = store.body_path(&digest_hex(&digest));
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 1]).expect("truncate");
        assert!(store.load(&digest).is_none());
        fs::write(&path, b"NOTAREPORTFILE..").expect("clobber");
        assert!(store.load(&digest).is_none());
        assert_eq!(store.counters().load_failures, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn intact_entry_round_trips(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            key in any::<u64>(),
        ) {
            let digest = digest256(&key.to_le_bytes());
            let file = encode_entry(&digest, &payload);
            let back = decode_entry(&file, &digest).expect("an intact entry decodes");
            prop_assert_eq!(back, payload);
        }

        #[test]
        fn any_flipped_byte_is_an_error(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            pos in any::<usize>(),
            mask in any::<u8>(),
        ) {
            let digest = digest256(&pos.to_le_bytes());
            let mut file = encode_entry(&digest, &payload);
            let pos = pos % file.len();
            file[pos] ^= mask.max(1);
            prop_assert!(
                decode_entry(&file, &digest).is_err(),
                "flip of byte {} with {:#x} decoded",
                pos,
                mask.max(1)
            );
        }

        #[test]
        fn any_truncation_is_an_error(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            cut in any::<usize>(),
        ) {
            let digest = digest256(&cut.to_le_bytes());
            let file = encode_entry(&digest, &payload);
            let cut = cut % file.len();
            let truncated = decode_entry(&file[..cut], &digest);
            prop_assert!(truncated.is_err(), "truncation to {} decoded", cut);
        }

        #[test]
        fn any_extension_is_an_error(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            tail in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let digest = digest256(&payload);
            let mut file = encode_entry(&digest, &payload);
            file.extend_from_slice(&tail);
            let extended = decode_entry(&file, &digest);
            prop_assert!(extended.is_err(), "{} trailing bytes decoded", tail.len());
        }
    }

    #[test]
    fn verify_reports_defects_with_reasons() {
        let dir = TempDir::new("verify");
        let store = ReportStore::open(&dir.0).expect("open");
        let good = digest256(b"good");
        let bad = digest256(b"bad");
        store.save(&good, b"fine", "compare", "gups").expect("save");
        store.save(&bad, b"doomed", "compare", "mcf").expect("save");
        let path = store.body_path(&digest_hex(&bad));
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).expect("rewrite");
        let entries = store.verify();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries.iter().filter(|e| e.is_ok()).count(), 1);
        let defect = entries.iter().find(|e| !e.is_ok()).expect("one defect");
        assert_eq!(defect.digest, digest_hex(&bad));
        assert!(defect.error.as_deref().unwrap_or("").contains("checksum"));
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = TempDir::new("gc");
        let store = ReportStore::open(&dir.0).expect("open");
        let payload = vec![0x5a_u8; 1024];
        let digests: Vec<[u8; 32]> =
            (0..4).map(|i| digest256(format!("entry-{i}").as_bytes())).collect();
        for (i, d) in digests.iter().enumerate() {
            store.save(d, &payload, "compare", "gups").expect("save");
            store.force_last_used(&digest_hex(d), 1000 + i as u64);
        }
        let total = store.total_bytes();
        let store = ReportStore::open(&dir.0).expect("reopen").with_max_bytes(total - 1);
        let report = store.gc();
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.evicted[0].0, digest_hex(&digests[0]), "LRU entry goes first");
        assert!(store.load(&digests[0]).is_none());
        assert!(store.load(&digests[3]).is_some());
    }

    #[test]
    fn entries_merge_manifest_and_scan() {
        let dir = TempDir::new("entries");
        let store = ReportStore::open(&dir.0).expect("open");
        let d = digest256(b"listed");
        store.save(&d, b"body", "fault-sweep", "streamcluster").expect("save");
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].digest, digest_hex(&d));
        assert_eq!(entries[0].kind, "fault-sweep");
        assert_eq!(entries[0].workload, "streamcluster");
        // A lost manifest degrades to "?" labels, never to a failure.
        fs::remove_file(dir.0.join(MANIFEST_FILE)).expect("drop manifest");
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "?");
    }

    #[test]
    fn a_load_indexes_an_orphaned_body() {
        let dir = TempDir::new("orphan");
        let store = ReportStore::open(&dir.0).expect("open");
        let d = digest256(b"orphan");
        let written = store.save(&d, b"orphaned body", "sim", "gcc").expect("save");
        store.entries();
        fs::remove_file(dir.0.join(MANIFEST_FILE)).expect("drop manifest");
        assert!(store.load(&d).is_some());
        // The load's row indexes the orphan: unlabelled, but sized and
        // stamped in the manifest itself.
        store.entries();
        let text = fs::read_to_string(dir.0.join(MANIFEST_FILE)).expect("manifest rewritten");
        let rows: Vec<ReportEntry> = crate::manifest::parse(&text);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].kind.as_str(), rows[0].workload.as_str()), ("?", "?"));
        assert_eq!(rows[0].bytes, written);
        assert!(rows[0].last_used > 0);
    }

    /// The manifest's inode, or 0 while there is none.
    #[cfg(unix)]
    fn manifest_inode(dir: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(dir.join(MANIFEST_FILE)).map_or(0, |m| m.ino())
    }

    #[cfg(unix)]
    #[test]
    fn loads_within_one_second_write_the_manifest_at_most_once() {
        let dir = TempDir::new("batched");
        let store = ReportStore::open(&dir.0).expect("open");
        let d = digest256(b"batched");
        store.save(&d, b"memoized body", "compare", "gups").expect("save");
        store.entries();
        // Every write renames a fresh file over the manifest, so each one
        // shows as a new inode after the load that made it.
        let mut inode = manifest_inode(&dir.0);
        let mut replaced = 0;
        let first = unix_now();
        for _ in 0..200 {
            assert!(store.load(&d).is_some());
            let now = manifest_inode(&dir.0);
            replaced += u64::from(now != inode);
            inode = now;
        }
        let seconds = unix_now() - first + 1;
        assert!(replaced <= seconds, "{replaced} manifest writes in {seconds} s");
        assert_eq!(store.counters().hits, 200);
    }

    #[test]
    fn dropping_a_handle_flushes_its_pending_rows() {
        let dir = TempDir::new("drop-flush");
        let (a, b) = (digest256(b"first"), digest256(b"second"));
        {
            let store = ReportStore::open(&dir.0).expect("open");
            store.save(&a, b"first body", "sim", "mcf").expect("save");
            store.save(&b, b"second body", "compare", "gcc").expect("save, pending");
        }
        let entries = ReportStore::open(&dir.0).expect("reopen").entries();
        assert_eq!(entries.len(), 2);
        let label = |d: &[u8; 32]| {
            let e = entries.iter().find(|e| e.digest == digest_hex(d)).expect("listed");
            (e.kind.clone(), e.workload.clone())
        };
        assert_eq!(label(&a), ("sim".to_string(), "mcf".to_string()));
        assert_eq!(label(&b), ("compare".to_string(), "gcc".to_string()));
    }

    #[test]
    fn a_body_evicted_by_another_handle_is_a_clean_miss() {
        let dir = TempDir::new("evicted");
        let reader = ReportStore::open(&dir.0).expect("open reader");
        let writer = ReportStore::open(&dir.0).expect("open writer").with_max_bytes(1);
        let d = digest256(b"short-lived");
        writer.save(&d, b"evicted by the next pass", "sim", "gups").expect("save");
        writer.gc();
        assert!(!writer.body_path(&digest_hex(&d)).exists(), "the writer's GC evicted it");
        assert!(reader.load(&d).is_none());
        let c = reader.counters();
        assert_eq!((c.misses, c.load_failures), (1, 0), "eviction is not corruption");
        drop(reader);
        let manifest = fs::read_to_string(dir.0.join(MANIFEST_FILE)).unwrap_or_default();
        assert!(!manifest.contains(&digest_hex(&d)), "an evicted body keeps no manifest row");
    }

    #[test]
    fn a_failed_save_leaves_no_staging_file_and_gc_sweeps_aged_ones() {
        let dir = TempDir::new("staging");
        let store = ReportStore::open(&dir.0).expect("open").with_max_bytes(1);
        let d = digest256(b"blocked");
        // A directory where the body belongs fails the rename after the
        // staging file is written and synced.
        let body = store.body_path(&digest_hex(&d));
        fs::create_dir_all(body.join("occupied")).expect("block the body path");
        assert!(store.save(&d, &[7u8; 4096], "sim", "gups").is_err());
        fs::remove_dir_all(&body).expect("unblock");
        let staged: Vec<_> = fs::read_dir(&dir.0)
            .expect("list")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(staged.is_empty(), "the failed save left {staged:?}");

        // Staging files a killed writer left: a young one may still be a
        // save in progress and only counts toward the cap; an aged one goes.
        let young = dir.0.join(".young.1.0.tmp");
        let aged = dir.0.join(".aged.1.1.tmp");
        fs::write(&young, [1u8; 100]).expect("plant young");
        fs::write(&aged, [2u8; 200]).expect("plant aged");
        let long_ago = SystemTime::now() - STAGING_MAX_AGE - Duration::from_secs(60);
        let file = fs::File::options().write(true).open(&aged).expect("open aged");
        file.set_modified(long_ago).expect("age it");
        let report = store.gc();
        assert!(!aged.exists(), "one GC pass removes an aged staging file");
        assert!(young.exists(), "a young staging file stays");
        assert_eq!(report.live_bytes, 100, "young staging bytes count toward the cap");
        assert!(report.evicted.is_empty(), "staging files are not listed as bodies");
    }
}
