//! A persistent, content-addressed store of memoized serve responses.
//!
//! The trace store (PR 4) removed redundant *generator* passes across
//! invocations; every finished `SimReport` still died with its process. The
//! report store closes that gap for the serve daemon: the canonical
//! response body of a completed request is spilled to disk in the
//! checksummed POMREP1 format, addressed by the request digest
//! ([`crate::request_digest`]), so a repeated identical request — same
//! TraceKey, same hardware/run configuration — is a disk read, not a
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
//! Files are written to a tmp name and atomically renamed, so readers
//! never observe a half-written entry. The manifest is *advisory* exactly
//! as the trace store's is: it accelerates `stats` and feeds LRU eviction,
//! but entries are self-describing and self-checking. Both stores keep it
//! through [`pomtlb_trace::manifest`], which writes it at most once per
//! second per handle, so a memoized answer is one file read and a checksum.
//!
//! # Fallback rules
//!
//! [`ReportStore::load`] returns `None` — and the service recomputes — for
//! a missing file (a clean miss) or *any* defect: foreign magic, version
//! or digest mismatch, bad length, failed checksum. A defective entry is
//! reported on stderr and counted, never trusted; the recompute's save
//! overwrites it. The store can make a request cheaper or leave it
//! unchanged, but never wrong — and because the payload is stored
//! byte-exact, a hit is byte-identical to the computed response it
//! memoizes.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pomtlb_trace::digest::{digest_hex, fnv1a64};
use pomtlb_trace::manifest::{Manifest, Row};

/// What one [`ReportStore::gc`] pass evicted (the shared manifest type).
pub use pomtlb_trace::manifest::GcReport as ReportGcReport;
/// Integrity-check result for one memoized body (the shared manifest type).
pub use pomtlb_trace::manifest::VerifyEntry as ReportVerifyEntry;

/// File magic for memoized response bodies.
const REPORT_MAGIC: &[u8; 8] = b"POMREP1\n";
/// Bumped whenever the layout above changes; readers reject other versions.
pub const REPORT_FORMAT_VERSION: u32 = 1;
/// Fixed header size in bytes.
const HEADER_BYTES: usize = 68;
/// Default size cap for [`ReportStore::gc`]: 256 MiB (bodies are small
/// JSON documents; this is thousands of memoized sweeps).
pub const DEFAULT_REPORT_MAX_BYTES: u64 = 256 << 20;

const REPORT_EXT: &str = "pomrep";

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Counter snapshot of one store handle's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCounters {
    /// Bodies served from disk.
    pub hits: u64,
    /// Lookups that found no usable entry (absent or defective).
    pub misses: u64,
    /// Bodies persisted by this handle.
    pub stores: u64,
    /// Total payload bytes read for hits.
    pub bytes_read: u64,
    /// Misses caused by a defective file rather than an absent one.
    pub load_failures: u64,
}

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

/// Validates one POMREP1 file on disk without an expected digest (the
/// stem supplies it): `verify`'s per-file check.
fn verify_file(path: &Path, stem_hex: &str) -> io::Result<()> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_BYTES {
        return Err(invalid("file shorter than the POMREP1 header"));
    }
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&bytes[12..44]);
    if digest_hex(&digest) != stem_hex {
        return Err(invalid("stored digest does not match the file name"));
    }
    decode_entry(&bytes, &digest).map(|_| ())
}

/// A persistent, content-addressed cache of serve response bodies under
/// one directory. See the module docs for the on-disk contract.
///
/// Handles are cheap and independent: two processes (or two handles in
/// one process) pointed at the same directory interoperate through the
/// atomic-rename write protocol, exactly like [`pomtlb_trace::TraceStore`].
#[derive(Debug)]
pub struct ReportStore {
    /// Body paths, the manifest's pending rows, its flush and the GC pass.
    index: Manifest<ReportEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    bytes_read: AtomicU64,
    load_failures: AtomicU64,
}

impl ReportStore {
    /// Opens (creating if needed) a store rooted at `dir`, with the
    /// default [`DEFAULT_REPORT_MAX_BYTES`] garbage-collection cap.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ReportStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ReportStore {
            index: Manifest::new(root, REPORT_EXT, DEFAULT_REPORT_MAX_BYTES),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
        })
    }

    /// Replaces the garbage-collection size cap (floored at one byte).
    pub fn with_max_bytes(mut self, max_bytes: u64) -> ReportStore {
        self.index.set_max_bytes(max_bytes);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.index.root()
    }

    /// The garbage-collection size cap in bytes.
    pub fn max_bytes(&self) -> u64 {
        self.index.max_bytes()
    }

    /// Snapshot of this handle's hit/miss counters.
    pub fn counters(&self) -> ReportCounters {
        ReportCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
        }
    }

    /// Loads the memoized body for `digest`, or `None` on a miss.
    ///
    /// A miss is an absent file *or any defect whatsoever* — wrong magic,
    /// version or digest mismatch, truncation, checksum failure. Defects
    /// warn on stderr and count as [`ReportCounters::load_failures`]; the
    /// service recomputes, so a damaged store costs time, never a wrong
    /// (or non-identical) answer. A file that is absent when opened — never
    /// saved, or evicted by another handle a moment ago — is a clean miss.
    pub fn load(&self, digest: &[u8; 32]) -> Option<Vec<u8>> {
        let hex = digest_hex(digest);
        let path = self.index.body_path(&hex);
        let read = fs::read(&path)
            .and_then(|bytes| Ok((decode_entry(&bytes, digest)?, bytes.len() as u64)));
        match read {
            Ok((payload, file_bytes)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(payload.len() as u64, Ordering::Relaxed);
                // An orphan (absent from the manifest) is indexed unlabelled.
                self.index.loaded(&hex, || ReportEntry {
                    digest: hex.clone(),
                    kind: "?".into(),
                    workload: "?".into(),
                    bytes: file_bytes,
                    last_used: 0,
                });
                Some(payload)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "report-store: {} unusable ({e}); recomputing",
                    path.display()
                );
                None
            }
        }
    }

    /// Persists `payload` as the memoized body for `digest`, returning the
    /// bytes written. The write goes to a per-call tmp file, is synced and
    /// atomically renamed into place, then the manifest row (labelled with
    /// `kind` and `workload`) is recorded; the flush that merges it runs a
    /// GC pass to enforce the size cap.
    pub fn save(
        &self,
        digest: &[u8; 32],
        payload: &[u8],
        kind: &str,
        workload: &str,
    ) -> io::Result<u64> {
        let hex = digest_hex(digest);
        let tmp = self.index.tmp_path(&hex);
        let path = self.index.body_path(&hex);
        let encoded = encode_entry(digest, payload);
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&encoded)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.index.saved(ReportEntry {
            digest: hex,
            kind: kind.to_string(),
            workload: workload.to_string(),
            bytes: encoded.len() as u64,
            last_used: 0,
        });
        Ok(encoded.len() as u64)
    }

    /// Every memoized body currently on disk, most recently used first.
    pub fn entries(&self) -> Vec<ReportEntry> {
        let manifest = self.index.rows();
        let mut out: Vec<ReportEntry> = self
            .index
            .scan()
            .into_iter()
            .map(|(digest, bytes)| match manifest.iter().find(|e| e.digest == digest) {
                Some(m) => ReportEntry { bytes, ..m.clone() },
                None => ReportEntry {
                    last_used: self.index.mtime(&digest),
                    digest,
                    kind: "?".into(),
                    workload: "?".into(),
                    bytes,
                },
            })
            .collect();
        out.sort_by(|a, b| b.last_used.cmp(&a.last_used).then_with(|| a.digest.cmp(&b.digest)));
        out
    }

    /// Total bytes of memoized bodies on disk (manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.index.scan().iter().map(|(_, b)| b).sum()
    }

    /// Integrity-checks every body on disk: header, digest-vs-name, exact
    /// length, checksums. Defective entries are reported with the reason
    /// but left in place (the next `save` of that key overwrites them;
    /// `gc` evicts them like any other entry).
    pub fn verify(&self) -> Vec<ReportVerifyEntry> {
        self.index
            .scan()
            .into_iter()
            .map(|(digest, bytes)| {
                let error =
                    verify_file(&self.index.body_path(&digest), &digest).err().map(|e| e.to_string());
                ReportVerifyEntry { digest, bytes, error }
            })
            .collect()
    }

    /// Evicts least-recently-used bodies until the store fits
    /// [`ReportStore::max_bytes`], after merging this handle's pending
    /// manifest rows. Recency comes from the manifest's `last_used` stamps,
    /// falling back to file mtime for unindexed files; ties break by digest
    /// so the pass is deterministic.
    pub fn gc(&self) -> ReportGcReport {
        self.index.gc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_trace::digest::digest256;
    use pomtlb_trace::manifest::{unix_now, MANIFEST_FILE};
    use proptest::prelude::*;

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
        let path = store.index.body_path(&digest_hex(&digest));
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
        let path = store.index.body_path(&digest_hex(&digest));
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
        let path = store.index.body_path(&digest_hex(&bad));
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
            store.index.force_last_used(&digest_hex(d), 1000 + i as u64);
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
        let rows: Vec<ReportEntry> = pomtlb_trace::manifest::parse(&text);
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
        assert!(!writer.index.body_path(&digest_hex(&d)).exists(), "the writer's GC evicted it");
        assert!(reader.load(&d).is_none());
        let c = reader.counters();
        assert_eq!((c.misses, c.load_failures), (1, 0), "eviction is not corruption");
        drop(reader);
        let manifest = fs::read_to_string(dir.0.join(MANIFEST_FILE)).unwrap_or_default();
        assert!(!manifest.contains(&digest_hex(&d)), "an evicted body keeps no manifest row");
    }
}
