//! A persistent, content-addressed store of [`SharedTrace`] recordings.
//!
//! PR 3's `SharedTrace` removed redundant generator passes *within* one
//! batch; every recording still died with the process. The store spills
//! recordings to disk in the checksummed POMTRC2 format (see `disk`) so the
//! *next* invocation — a repeated `experiments` sweep, a CI perf run on a
//! restored cache — replays every stream straight off the page cache and
//! runs **zero** generator passes.
//!
//! # Layout on disk
//!
//! ```text
//! <root>/
//!   <64-hex-char key digest>.pomtrc   one recording each (POMTRC2)
//!   manifest.tsv                      advisory index: sizes, LRU stamps
//! ```
//!
//! Files are content-addressed by [`TraceKey::digest`], written to a tmp
//! name and atomically renamed, so readers never observe a half-written
//! recording. The manifest is *advisory*: it accelerates `stats` and feeds
//! LRU eviction, but the recordings are self-describing and self-checking —
//! a deleted or stale manifest only costs metadata, never correctness.
//! Its rows, its once-per-second batched writes, its lock and the LRU GC
//! pass live in [`crate::manifest`], shared with the serve crate's report
//! store.
//!
//! # Fallback rules
//!
//! [`TraceStore::load`] returns `None` — and the caller regenerates live —
//! for a missing file (a clean miss) or *any* defect: foreign magic,
//! version or digest mismatch, bad length, failed checksum. A defective
//! entry is reported on stderr and counted, never trusted; a subsequent
//! save overwrites it. The store can therefore make a run faster or leave
//! it unchanged, but never wrong.
//!
//! ```no_run
//! use std::sync::Arc;
//! use pomtlb_trace::{SharedTrace, TraceStore, WorkloadSpec};
//!
//! # fn main() -> std::io::Result<()> {
//! let store = TraceStore::open(".pomtlb-trace-store")?;
//! let spec = WorkloadSpec::builder("mine").build();
//! // First call generates and records; every later call (any process)
//! // replays from disk.
//! let trace: Arc<SharedTrace> = store.load_or_record(&spec, 42, 4, false, 100_000);
//! # Ok(())
//! # }
//! ```

use std::fs;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::disk::{self, Mapping};
use crate::manifest::{GcReport, Manifest, Row, VerifyEntry};
use crate::shared::{Section, SharedTrace, TraceKey};
use crate::spec::WorkloadSpec;

/// The POMTRC2 on-disk format version. A CI cache key (or any other
/// invalidation scheme) should incorporate this: readers reject every other
/// version, so a mismatched cache is only dead weight.
pub const STORE_FORMAT_VERSION: u32 = disk::FORMAT_VERSION;

/// Default size cap for [`TraceStore::gc`]: 2 GiB.
pub const DEFAULT_MAX_BYTES: u64 = 2 << 30;

const TRACE_EXT: &str = "pomtrc";

/// Total read attempts [`TraceStore::load`] makes against transient I/O
/// errors before treating the entry as unusable.
pub const DEFAULT_RETRY_ATTEMPTS: u32 = 3;

/// First-retry backoff delay; each further retry doubles it, capped at
/// [`RETRY_DELAY_CAP`].
pub const DEFAULT_RETRY_BASE_DELAY: Duration = Duration::from_millis(10);

/// Upper bound on the per-retry backoff delay.
pub const RETRY_DELAY_CAP: Duration = Duration::from_millis(200);

/// Transient errors are environmental hiccups worth retrying; everything
/// else (corruption, truncation, version skew) is a *defect* that a
/// re-read cannot fix.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A persistent, content-addressed cache of trace recordings under one
/// directory. See the module docs for the on-disk contract.
///
/// Handles are cheap and independent: two processes (or two handles in one
/// process) pointed at the same directory interoperate through the
/// atomic-rename write protocol.
#[derive(Debug)]
pub struct TraceStore {
    /// Body paths, the manifest's pending rows, its flush and the GC pass.
    index: Manifest<StoreEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_mapped: AtomicU64,
    load_failures: AtomicU64,
    transient_retries: AtomicU64,
    /// Armed test faults: each pending unit makes one load attempt fail
    /// with a synthetic transient I/O error.
    injected_load_faults: AtomicU64,
    retry_attempts: u32,
    retry_base_delay: Duration,
}

/// Counter snapshot of one store handle's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Recordings served from disk.
    pub hits: u64,
    /// Lookups that found no usable recording (absent or defective).
    pub misses: u64,
    /// Total bytes of recording files mapped (or read) for hits.
    pub bytes_mapped: u64,
    /// Misses caused by a defective file rather than an absent one.
    pub load_failures: u64,
    /// Read attempts re-issued after a transient I/O error.
    pub transient_retries: u64,
}

/// One recording visible in the store directory, merged from the file
/// scan and the advisory manifest.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Content digest (the file stem).
    pub digest: String,
    /// Generating workload name ("?" when the manifest lacks the entry).
    pub workload: String,
    /// Base seed of the recording.
    pub seed: u64,
    /// Cores merged into the stream.
    pub n_cores: usize,
    /// Whether all cores shared one address space.
    pub shared_memory: bool,
    /// Reference budget of the recording.
    pub total_refs: u64,
    /// File size in bytes (from the file system, not the manifest).
    pub bytes: u64,
    /// Memory references recorded.
    pub refs: u64,
    /// OS events recorded.
    pub events: u64,
    /// Unix seconds of last load or save (0 when unknown).
    pub last_used: u64,
}

/// Fixed columns first, the workload name (the only free-form field) last.
impl Row for StoreEntry {
    const TAG: &'static str = "pomtlb-manifest";
    const VERSION: u32 = STORE_FORMAT_VERSION;

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
        let workload: String = self.workload.chars().filter(|c| !c.is_control()).collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.digest,
            self.seed,
            self.n_cores,
            u8::from(self.shared_memory),
            self.total_refs,
            self.bytes,
            self.refs,
            self.events,
            self.last_used,
            workload,
        )
    }

    fn parse(line: &str) -> Option<StoreEntry> {
        let f: Vec<&str> = line.splitn(10, '\t').collect();
        if f.len() != 10 {
            return None;
        }
        let num = |s: &str| s.parse::<u64>().ok();
        Some(StoreEntry {
            digest: f[0].to_string(),
            workload: f[9].to_string(),
            seed: num(f[1])?,
            n_cores: num(f[2])? as usize,
            shared_memory: f[3] == "1",
            total_refs: num(f[4])?,
            bytes: num(f[5])?,
            refs: num(f[6])?,
            events: num(f[7])?,
            last_used: num(f[8])?,
        })
    }
}

impl TraceStore {
    /// Opens (creating if needed) a store rooted at `dir`, with the default
    /// [`DEFAULT_MAX_BYTES`] garbage-collection cap.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(TraceStore {
            index: Manifest::new(root, TRACE_EXT, DEFAULT_MAX_BYTES),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_mapped: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            transient_retries: AtomicU64::new(0),
            injected_load_faults: AtomicU64::new(0),
            retry_attempts: DEFAULT_RETRY_ATTEMPTS,
            retry_base_delay: DEFAULT_RETRY_BASE_DELAY,
        })
    }

    /// Replaces the garbage-collection size cap (floored at one byte).
    pub fn with_max_bytes(mut self, max_bytes: u64) -> TraceStore {
        self.index.set_max_bytes(max_bytes);
        self
    }

    /// Replaces the transient-error retry policy: total read `attempts`
    /// per load (floored at one) and the first-retry backoff delay (each
    /// further retry doubles it, capped at [`RETRY_DELAY_CAP`]). Tests use
    /// a zero delay to exercise the retry path without sleeping.
    pub fn with_retry_policy(mut self, attempts: u32, base_delay: Duration) -> TraceStore {
        self.retry_attempts = attempts.max(1);
        self.retry_base_delay = base_delay;
        self
    }

    /// Arms `n` synthetic transient I/O faults: each of the next `n` load
    /// attempts fails with `ErrorKind::Interrupted` before touching the
    /// file. Test hook for the retry/backoff machinery; harmless (and
    /// pointless) outside tests.
    #[doc(hidden)]
    pub fn inject_transient_load_faults(&self, n: u64) {
        self.injected_load_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one armed synthetic fault, if any.
    fn take_injected_fault(&self) -> bool {
        let mut cur = self.injected_load_faults.load(Ordering::Relaxed);
        while cur > 0 {
            match self.injected_load_faults.compare_exchange(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
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
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_mapped: self.bytes_mapped.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            transient_retries: self.transient_retries.load(Ordering::Relaxed),
        }
    }

    /// Loads the recording for `key`, or `None` on a miss.
    ///
    /// *Transient* I/O errors (interrupted / would-block / timed-out reads
    /// — the kind a flaky network filesystem produces) are retried up to
    /// the handle's attempt budget with capped exponential backoff before
    /// the entry is given up on. A miss is an absent file *or any defect
    /// whatsoever* — wrong magic, version or digest mismatch, truncation,
    /// checksum failure, or exhausted retries. Defects warn on stderr and
    /// count as [`StoreCounters::load_failures`]; the caller falls back to
    /// live generation, so a damaged store can cost time but never
    /// correctness. A file that is absent when opened — never saved, or
    /// evicted by another handle a moment ago — is a clean miss.
    pub fn load(&self, key: &TraceKey) -> Option<Arc<SharedTrace>> {
        let hex = key.digest_hex();
        let path = self.index.body_path(&hex);
        let attempts = self.retry_attempts.max(1);
        let mut attempt = 0u32;
        let outcome = loop {
            attempt += 1;
            let read = if self.take_injected_fault() {
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected transient I/O fault",
                ))
            } else {
                self.try_load(key, &path)
            };
            match read {
                Ok(trace) => break Ok(trace),
                Err(e) if is_transient(&e) && attempt < attempts => {
                    self.transient_retries.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "trace-store: transient error reading {} ({e}); retry {attempt}/{}",
                        path.display(),
                        attempts - 1
                    );
                    let delay = self
                        .retry_base_delay
                        .saturating_mul(1u32 << (attempt - 1).min(4))
                        .min(RETRY_DELAY_CAP);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Ok((trace, file_bytes)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_mapped.fetch_add(trace.buffer_bytes() as u64, Ordering::Relaxed);
                // An orphan (absent from the manifest) is indexed with its
                // full identity, which this load holds.
                self.index.loaded(&hex, || Self::entry_for(&trace, &hex, file_bytes));
                Some(Arc::new(trace))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "trace-store: {} unusable ({e}); falling back to live generation",
                    path.display()
                );
                None
            }
        }
    }

    /// The recording and its file size.
    fn try_load(&self, key: &TraceKey, path: &Path) -> io::Result<(SharedTrace, u64)> {
        let map = Arc::new(Mapping::open(path)?);
        let bytes = map.bytes();
        let file_bytes = bytes.len() as u64;
        let header = disk::parse_header(bytes)?;
        if header.digest != key.digest() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stored digest does not match the requested key",
            ));
        }
        disk::validate_sections(bytes, &header)?;
        // Events are sparse: decode them eagerly (with full validation) and
        // keep the two bulk sections zero-copy inside the mapping.
        let events = disk::decode_events(&bytes[header.events_range.clone()], header.n_items)?;
        let cores = Section::Stored {
            map: Arc::clone(&map),
            offset: header.cores_range.start,
            len: header.cores_range.len(),
        };
        let refs = Section::Stored {
            map,
            offset: header.refs_range.start,
            len: header.refs_range.len(),
        };
        Ok((SharedTrace::from_sections(key.clone(), cores, refs, events), file_bytes))
    }

    /// Persists `trace`, returning the bytes written. The write goes to a
    /// per-call tmp file, is synced and atomically renamed into place, then
    /// the manifest row is recorded; the flush that merges it runs a GC
    /// pass to enforce the size cap.
    pub fn save(&self, trace: &SharedTrace) -> io::Result<u64> {
        let key = trace.key();
        let hex = key.digest_hex();
        let tmp = self.index.tmp_path(&hex);
        let path = self.index.body_path(&hex);
        let digest = key.digest();
        let file = fs::File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        let written = disk::write_stored(
            &mut w,
            &digest,
            trace.cores_bytes(),
            trace.refs_bytes(),
            trace.events_list(),
        )?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        self.index.saved(Self::entry_for(trace, &hex, written));
        Ok(written)
    }

    /// Loads the recording for these parameters, or generates, persists and
    /// returns it. Generation failures panic exactly as
    /// [`SharedTrace::generate`] does; persistence failures only warn — the
    /// freshly generated trace is returned either way.
    pub fn load_or_record(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        n_cores: usize,
        shared_memory: bool,
        total_refs: u64,
    ) -> Arc<SharedTrace> {
        let key = TraceKey {
            spec: spec.clone(),
            seed,
            n_cores,
            shared_memory,
            total_refs,
        };
        if let Some(t) = self.load(&key) {
            return t;
        }
        let trace = Arc::new(SharedTrace::generate(spec, seed, n_cores, shared_memory, total_refs));
        if let Err(e) = self.save(&trace) {
            eprintln!("trace-store: cannot persist recording for `{}`: {e}", spec.name);
        }
        trace
    }

    /// Every recording currently on disk, most recently used first.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let manifest = self.index.rows();
        let mut out: Vec<StoreEntry> = self
            .index
            .scan()
            .into_iter()
            .map(|(digest, bytes)| {
                match manifest.iter().find(|e| e.digest == digest) {
                    Some(m) => StoreEntry { bytes, ..m.clone() },
                    None => {
                        // Not indexed (the manifest is advisory) — recover
                        // the record counts from the file header itself.
                        let (refs, events) = disk::Mapping::open(&self.index.body_path(&digest))
                            .ok()
                            .and_then(|m| disk::parse_header(m.bytes()).ok())
                            .map(|h| (h.n_refs, h.n_events))
                            .unwrap_or((0, 0));
                        StoreEntry {
                            last_used: self.index.mtime(&digest),
                            digest,
                            workload: "?".into(),
                            seed: 0,
                            n_cores: 0,
                            shared_memory: false,
                            total_refs: 0,
                            bytes,
                            refs,
                            events,
                        }
                    }
                }
            })
            .collect();
        out.sort_by(|a, b| b.last_used.cmp(&a.last_used).then_with(|| a.digest.cmp(&b.digest)));
        out
    }

    /// Total bytes of recordings on disk (manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.index.scan().iter().map(|(_, b)| b).sum()
    }

    /// Integrity-checks every recording on disk: header, exact length,
    /// section checksums, record-level tags. Defective entries are reported
    /// with the reason but left in place (the next `save` of that key
    /// overwrites them; `gc` evicts them like any other entry).
    pub fn verify(&self) -> Vec<VerifyEntry> {
        self.index
            .scan()
            .into_iter()
            .map(|(digest, bytes)| {
                let error = disk::verify_file(&self.index.body_path(&digest)).err().map(|e| e.to_string());
                VerifyEntry { digest, bytes, error }
            })
            .collect()
    }

    /// Evicts least-recently-used recordings until the store fits
    /// [`TraceStore::max_bytes`], after merging this handle's pending
    /// manifest rows. Recency comes from the manifest's `last_used` stamps,
    /// falling back to file mtime for unindexed files; ties break by digest
    /// so the pass is deterministic.
    pub fn gc(&self) -> GcReport {
        self.index.gc()
    }

    /// The manifest row for a recording whose identity we hold in full
    /// (the index stamps it).
    fn entry_for(trace: &SharedTrace, digest: &str, bytes: u64) -> StoreEntry {
        let key = trace.key();
        StoreEntry {
            digest: digest.to_string(),
            workload: key.spec.name.clone(),
            seed: key.seed,
            n_cores: key.n_cores,
            shared_memory: key.shared_memory,
            total_refs: key.total_refs,
            bytes,
            refs: trace.refs(),
            events: trace.events(),
            last_used: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OsEventRates;
    use crate::manifest;
    use crate::spec::LocalityModel;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir()
                .join(format!("pomtlb-store-{tag}-{}", std::process::id()));
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

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::builder(name)
            .footprint_bytes(16 << 20)
            .large_page_frac(0.25)
            .locality(LocalityModel::Zipf { alpha: 0.9 })
            .os_events(OsEventRates::unmap_heavy(4.0))
            .build()
    }

    #[test]
    fn save_then_load_replays_identically() {
        let dir = TempDir::new("roundtrip");
        let store = TraceStore::open(&dir.0).expect("open");
        let s = spec("rt");
        let live = Arc::new(SharedTrace::generate(&s, 11, 2, false, 2000));
        store.save(&live).expect("save");

        let reopened = TraceStore::open(&dir.0).expect("reopen");
        let key = live.key().clone();
        let loaded = reopened.load(&key).expect("hit after save");
        assert!(loaded.is_stored(), "loaded trace replays from the store");
        assert_eq!(loaded.refs(), live.refs());
        assert_eq!(loaded.events(), live.events());
        let a: Vec<_> = live.replay().collect();
        let b: Vec<_> = loaded.replay().collect();
        assert_eq!(a, b, "disk replay is bit-identical to the live recording");
        let c = reopened.counters();
        assert_eq!((c.hits, c.misses, c.load_failures), (1, 0, 0));
        assert!(c.bytes_mapped > 0);
    }

    #[test]
    fn absent_key_is_a_clean_miss() {
        let dir = TempDir::new("miss");
        let store = TraceStore::open(&dir.0).expect("open");
        let key = TraceKey {
            spec: spec("nope"),
            seed: 1,
            n_cores: 2,
            shared_memory: false,
            total_refs: 100,
        };
        assert!(store.load(&key).is_none());
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.load_failures), (0, 1, 0));
    }

    #[test]
    fn load_or_record_records_once_then_hits() {
        let dir = TempDir::new("lor");
        let store = TraceStore::open(&dir.0).expect("open");
        let s = spec("lor");
        let first = store.load_or_record(&s, 5, 2, true, 1000);
        assert!(!first.is_stored(), "first call generates live");
        let second = store.load_or_record(&s, 5, 2, true, 1000);
        assert!(second.is_stored(), "second call replays from disk");
        let a: Vec<_> = first.replay().collect();
        let b: Vec<_> = second.replay().collect();
        assert_eq!(a, b);
        let c = store.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn corrupt_file_warns_and_misses_then_heals_on_save() {
        let dir = TempDir::new("corrupt");
        let store = TraceStore::open(&dir.0).expect("open");
        let s = spec("bad");
        let live = Arc::new(SharedTrace::generate(&s, 9, 2, false, 500));
        store.save(&live).expect("save");
        let path = store.index.body_path(&live.key().digest_hex());
        let mut bytes = fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).expect("corrupt");

        assert_eq!(store.verify().iter().filter(|e| !e.is_ok()).count(), 1);
        assert!(store.load(live.key()).is_none(), "corrupt entry must miss");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.load_failures), (0, 1, 1));

        store.save(&live).expect("re-save heals");
        assert!(store.verify().iter().all(VerifyEntry::is_ok));
        assert!(store.load(live.key()).is_some());
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = TempDir::new("gc");
        let s = spec("gc");
        let traces: Vec<Arc<SharedTrace>> = (0..3)
            .map(|seed| Arc::new(SharedTrace::generate(&s, seed, 1, false, 400)))
            .collect();
        // Write with the default (never-evicting) cap first, then re-open
        // capped so exactly one explicit GC pass does the evicting.
        let writer = TraceStore::open(&dir.0).expect("open");
        let sizes: Vec<u64> =
            traces.iter().map(|t| writer.save(t).expect("save")).collect();
        // Make recency unambiguous: oldest → newest by seed.
        for (i, t) in traces.iter().enumerate() {
            writer.index.force_last_used(&t.key().digest_hex(), 1000 + i as u64);
        }
        // Cap fits the two newest recordings but not all three.
        let store = TraceStore::open(&dir.0)
            .expect("open")
            .with_max_bytes(sizes[1] + sizes[2] + sizes[0] / 2);
        let report = store.gc();
        assert_eq!(report.evicted.len(), 1, "one eviction brings the store under cap");
        assert_eq!(report.evicted[0].0, traces[0].key().digest_hex(), "LRU entry goes first");
        assert!(report.live_bytes <= store.max_bytes());
        assert!(store.load(traces[0].key()).is_none(), "evicted entry is gone");
        assert!(store.load(traces[2].key()).is_some(), "recent entry survives");
    }

    #[test]
    fn entries_reflect_disk_and_manifest() {
        let dir = TempDir::new("entries");
        let store = TraceStore::open(&dir.0).expect("open");
        let s = spec("ent");
        let t = Arc::new(SharedTrace::generate(&s, 3, 2, false, 600));
        store.save(&t).expect("save");
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.digest, t.key().digest_hex());
        assert_eq!(e.workload, "ent");
        assert_eq!(e.refs, 600);
        assert_eq!(e.n_cores, 2);
        assert!(e.bytes > 0 && e.last_used > 0);
        assert_eq!(store.total_bytes(), e.bytes);
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let m = vec![StoreEntry {
            digest: "ab".repeat(32),
            workload: "gups".into(),
            seed: 7,
            n_cores: 4,
            shared_memory: true,
            total_refs: 9000,
            bytes: 1234,
            refs: 8000,
            events: 12,
            last_used: 1722,
        }];
        let text = manifest::format(&m);
        assert!(text.starts_with(&format!("pomtlb-manifest\t{STORE_FORMAT_VERSION}\n")));
        let back: Vec<StoreEntry> = manifest::parse(&text);
        assert_eq!(back.len(), 1);
        let (a, b) = (&m[0], &back[0]);
        assert_eq!((a.digest.as_str(), a.workload.as_str()), (b.digest.as_str(), b.workload.as_str()));
        assert_eq!((a.seed, a.n_cores, a.shared_memory), (b.seed, b.n_cores, b.shared_memory));
        assert_eq!(
            (a.total_refs, a.bytes, a.refs, a.events, a.last_used),
            (b.total_refs, b.bytes, b.refs, b.events, b.last_used)
        );
        assert!(manifest::parse::<StoreEntry>("not a manifest\n").is_empty());
    }

    #[test]
    fn transient_load_faults_retry_then_succeed() {
        let dir = TempDir::new("retry");
        let s = spec("retry");
        let live = Arc::new(SharedTrace::generate(&s, 21, 2, false, 500));
        TraceStore::open(&dir.0).expect("open").save(&live).expect("save");

        let store = TraceStore::open(&dir.0)
            .expect("reopen")
            .with_retry_policy(3, Duration::ZERO);
        store.inject_transient_load_faults(2);
        let loaded = store.load(live.key()).expect("third attempt succeeds");
        assert!(loaded.is_stored());
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.load_failures), (1, 0, 0));
        assert_eq!(c.transient_retries, 2);
    }

    #[test]
    fn exhausted_retries_fall_back_to_a_miss() {
        let dir = TempDir::new("retry-exhaust");
        let s = spec("retry-exhaust");
        let live = Arc::new(SharedTrace::generate(&s, 22, 2, false, 500));
        let store = TraceStore::open(&dir.0)
            .expect("open")
            .with_retry_policy(2, Duration::ZERO);
        store.save(&live).expect("save");
        store.inject_transient_load_faults(10);
        assert!(store.load(live.key()).is_none(), "every attempt faulted");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.load_failures), (0, 1, 1));
        assert_eq!(c.transient_retries, 1, "one retry for a two-attempt budget");
        // The armed faults drain; the store heals on its own afterwards.
        store.inject_transient_load_faults(0);
        while store.counters().load_failures < 5 {
            if store.load(live.key()).is_some() {
                break;
            }
        }
        assert!(store.load(live.key()).is_some(), "store recovers once faults drain");
    }

    #[test]
    fn touch_reindexes_orphaned_recordings() {
        let dir = TempDir::new("orphan");
        let store = TraceStore::open(&dir.0).expect("open");
        let s = spec("orphan");
        let live = Arc::new(SharedTrace::generate(&s, 31, 2, true, 700));
        store.save(&live).expect("save");
        // `entries()` flushes the save's pending row; then lose the
        // manifest: the recording is now an orphan whose recency would
        // otherwise be frozen at file mtime forever.
        assert_eq!(store.entries()[0].workload, "orphan", "the save was indexed");
        fs::remove_file(dir.0.join("manifest.tsv")).expect("drop manifest");
        let before = store.entries();
        assert_eq!(before[0].workload, "?", "orphan has no manifest identity");

        assert!(store.load(live.key()).is_some(), "orphan still replays");
        let after = store.entries();
        assert_eq!(after.len(), 1);
        let e = &after[0];
        assert_eq!(e.workload, "orphan", "load re-indexed the orphan's identity");
        assert_eq!((e.seed, e.n_cores, e.shared_memory, e.total_refs), (31, 2, true, 700));
        assert!(e.bytes > 0 && e.last_used > 0);
        // And the restored stamp is manifest-backed: it can now be aged
        // like any indexed entry (force_last_used edits manifest entries
        // only, so this succeeding proves the entry exists there).
        store.index.force_last_used(&live.key().digest_hex(), 42);
        assert_eq!(store.entries()[0].last_used, 42);
    }

    /// The manifest's inode, or 0 while there is none.
    #[cfg(unix)]
    fn manifest_inode(dir: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(dir.join(manifest::MANIFEST_FILE)).map_or(0, |m| m.ino())
    }

    #[cfg(unix)]
    #[test]
    fn loads_within_one_second_write_the_manifest_at_most_once() {
        let dir = TempDir::new("batched");
        let store = TraceStore::open(&dir.0).expect("open");
        let live = Arc::new(SharedTrace::generate(&spec("batched"), 51, 1, false, 300));
        store.save(&live).expect("save");
        store.entries();
        // Every write renames a fresh file over the manifest, so each one
        // shows as a new inode after the load that made it.
        let mut inode = manifest_inode(&dir.0);
        let mut replaced = 0;
        let first = manifest::unix_now();
        for _ in 0..200 {
            assert!(store.load(live.key()).is_some());
            let now = manifest_inode(&dir.0);
            replaced += u64::from(now != inode);
            inode = now;
        }
        let seconds = manifest::unix_now() - first + 1;
        assert!(replaced <= seconds, "{replaced} manifest writes in {seconds} s");
        assert_eq!(store.counters().hits, 200);
    }

    #[test]
    fn dropping_a_handle_flushes_its_pending_rows() {
        let dir = TempDir::new("drop-flush");
        let t = Arc::new(SharedTrace::generate(&spec("dropped"), 52, 2, true, 300));
        {
            let store = TraceStore::open(&dir.0).expect("open");
            store.save(&t).expect("save");
            store.save(&Arc::new(SharedTrace::generate(&spec("later"), 53, 1, false, 300)))
                .expect("second save, pending in the same second");
        }
        let fresh = TraceStore::open(&dir.0).expect("reopen");
        let entries = fresh.entries();
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert_ne!(e.workload, "?", "every save was indexed by the drop: {}", e.digest);
        }
        let e = entries.iter().find(|e| e.digest == t.key().digest_hex()).expect("listed");
        let identity = (e.workload.as_str(), e.seed, e.n_cores, e.shared_memory);
        assert_eq!(identity, ("dropped", 52, 2, true));
    }

    #[test]
    fn a_flush_into_a_deleted_directory_fails_quietly() {
        let dir = TempDir::new("deleted");
        let store = TraceStore::open(&dir.0).expect("open");
        let t = Arc::new(SharedTrace::generate(&spec("gone"), 54, 1, false, 300));
        store.save(&t).expect("save");
        store.save(&t).expect("re-save leaves a pending row");
        fs::remove_dir_all(&dir.0).expect("delete the store");
        assert!(store.entries().is_empty());
        assert!(store.gc().evicted.is_empty());
        drop(store);
        assert!(!dir.0.exists(), "nothing was recreated");
    }

    #[test]
    fn concurrent_writers_do_not_lose_manifest_entries() {
        let dir = TempDir::new("racing-writers");
        let s = spec("race");
        // Two independent handles: separate in-process mutexes, so only
        // the advisory lock file serializes their manifest rewrites.
        let traces: Vec<Vec<Arc<SharedTrace>>> = (0..2)
            .map(|h| {
                (0..3)
                    .map(|i| Arc::new(SharedTrace::generate(&s, h * 100 + i, 1, false, 300)))
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for batch in &traces {
                let root = dir.0.clone();
                scope.spawn(move || {
                    let store = TraceStore::open(root).expect("open handle");
                    for t in batch {
                        store.save(t).expect("save");
                    }
                });
            }
        });
        let reader = TraceStore::open(&dir.0).expect("open reader");
        let entries = reader.entries();
        assert_eq!(entries.len(), 6, "all recordings on disk");
        for e in &entries {
            assert_eq!(e.workload, "race", "no entry lost its manifest row: {}", e.digest);
        }
        assert!(!dir.0.join("manifest.lock").exists(), "lock released after writes");
    }

    #[test]
    fn foreign_lock_file_delays_but_never_blocks_writes() {
        let dir = TempDir::new("stuck-lock");
        let store = TraceStore::open(&dir.0).expect("open");
        // A lock left by some other live writer (mtime = now, so not
        // stale): the bounded wait must give up and proceed unlocked.
        fs::write(dir.0.join("manifest.lock"), b"").expect("plant lock");
        let s = spec("stuck");
        let t = Arc::new(SharedTrace::generate(&s, 41, 1, false, 300));
        store.save(&t).expect("save proceeds despite the foreign lock");
        assert_eq!(store.entries()[0].workload, "stuck");
        assert!(dir.0.join("manifest.lock").exists(), "a lock we never held stays put");
    }
}
