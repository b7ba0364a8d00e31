//! A persistent, content-addressed store of [`SharedTrace`] recordings.
//!
//! PR 3's `SharedTrace` removed redundant generator passes *within* one
//! batch; every recording still died with the process. The store spills
//! recordings to disk in the checksummed POMTRC2 format (see `disk`) so the
//! *next* invocation — a repeated `experiments` sweep, a CI perf run on a
//! restored cache — reads each recording once from its file and runs
//! **zero** generator passes.
//!
//! # Layout on disk
//!
//! ```text
//! <root>/
//!   <64-hex-char key digest>.pomtrc   one recording each (POMTRC2)
//!   manifest.tsv                      advisory index: sizes, LRU stamps
//! ```
//!
//! [`TraceStore`] is the one content-addressed [`Store`] of
//! [`crate::manifest`] over this module's POMTRC2 codec, as
//! [`crate::ReportStore`] is over POMREP1: the staged write, the manifest,
//! the load path with its fallback rules, `verify` and the LRU GC pass
//! live there. This module keeps the format: decode, verify, the manifest
//! row, and the typed `save`.
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

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::disk;
use crate::manifest::{check_name, Codec, Row, Store};
use crate::shared::{Section, SharedTrace, TraceKey};
use crate::spec::WorkloadSpec;

/// The POMTRC2 on-disk format version. A CI cache key (or any other
/// invalidation scheme) should incorporate this: readers reject every other
/// version, so a mismatched cache is only dead weight.
pub const STORE_FORMAT_VERSION: u32 = disk::FORMAT_VERSION;

/// Default size cap for [`TraceStore::gc`]: 2 GiB.
pub const DEFAULT_MAX_BYTES: u64 = 2 << 30;

/// The POMTRC2 codec: recordings keyed by [`TraceKey`], replayed from
/// their file's bytes without copying the bulk sections.
#[derive(Debug)]
pub struct TraceCodec;

/// A persistent, content-addressed cache of trace recordings under one
/// directory. See the module docs for the on-disk contract.
pub type TraceStore = Store<TraceCodec>;

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

    fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
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

impl Codec for TraceCodec {
    type Row = StoreEntry;
    type Key = TraceKey;
    type Value = Arc<SharedTrace>;
    const EXT: &'static str = "pomtrc";
    const NAME: &'static str = "trace-store";
    const FALLBACK: &'static str = "falling back to live generation";
    const DEFAULT_MAX_BYTES: u64 = DEFAULT_MAX_BYTES;

    fn digest(key: &TraceKey) -> [u8; 32] {
        key.digest()
    }

    fn decode(path: &Path, key: &TraceKey) -> io::Result<(Arc<SharedTrace>, u64)> {
        let file = Arc::new(std::fs::read(path)?);
        let bytes = file.as_slice();
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
        // keep the two bulk sections in place inside the file's bytes.
        let events = disk::decode_events(&bytes[header.events_range.clone()], header.n_items)?;
        let cores = Section::Stored {
            file: Arc::clone(&file),
            offset: header.cores_range.start,
            len: header.cores_range.len(),
        };
        let refs = Section::Stored {
            file,
            offset: header.refs_range.start,
            len: header.refs_range.len(),
        };
        let trace = SharedTrace::from_sections(key.clone(), cores, refs, events);
        Ok((Arc::new(trace), file_bytes))
    }

    fn value_bytes(trace: &Arc<SharedTrace>) -> u64 {
        trace.buffer_bytes() as u64
    }

    /// Header, exact length, section checksums, record-level tags, and
    /// the key digest against the file name.
    fn verify(path: &Path, name: &str) -> io::Result<()> {
        check_name(&disk::verify_file(path)?.digest, name)
    }

    /// Not indexed (the manifest is advisory): the record counts come
    /// from the file header itself.
    fn unindexed(path: &Path, digest: String, bytes: u64, last_used: u64) -> StoreEntry {
        let (refs, events) = std::fs::read(path)
            .ok()
            .and_then(|bytes| disk::parse_header(&bytes).ok())
            .map(|h| (h.n_refs, h.n_events))
            .unwrap_or((0, 0));
        StoreEntry {
            digest,
            workload: "?".into(),
            seed: 0,
            n_cores: 0,
            shared_memory: false,
            total_refs: 0,
            bytes,
            refs,
            events,
            last_used,
        }
    }

    /// An orphan is indexed with its full identity, which the load holds.
    fn loaded_row(trace: &Arc<SharedTrace>, _: &Path, digest: &str, file_bytes: u64) -> StoreEntry {
        entry_for(trace, digest, file_bytes)
    }
}

impl Store<TraceCodec> {
    /// Persists `trace`, returning the bytes written (see
    /// [`crate::manifest::write_staged`]); the flush that merges its
    /// manifest row runs a GC pass to enforce the size cap.
    pub fn save(&self, trace: &SharedTrace) -> io::Result<u64> {
        let key = trace.key();
        let hex = key.digest_hex();
        let digest = key.digest();
        self.save_body(
            &hex,
            |w| {
                let events = trace.events_list();
                disk::write_stored(w, &digest, trace.cores_bytes(), trace.refs_bytes(), events)
            },
            |bytes| entry_for(trace, &hex, bytes),
        )
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
}

/// The manifest row for a recording whose identity we hold in full (the
/// store stamps it).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OsEventRates;
    use crate::manifest::{self, VerifyEntry};
    use crate::spec::LocalityModel;
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;

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
        assert!(c.bytes_read > 0);
    }

    #[test]
    fn verify_rejects_a_recording_under_another_name() {
        let dir = TempDir::new("misnamed");
        let store = TraceStore::open(&dir.0).expect("open");
        let live = Arc::new(SharedTrace::generate(&spec("misnamed"), 61, 1, false, 300));
        store.save(&live).expect("save");
        let other = "ab".repeat(32);
        fs::copy(store.body_path(&live.key().digest_hex()), store.body_path(&other))
            .expect("copy the recording under another name");
        let bad: Vec<VerifyEntry> = store.verify().into_iter().filter(|e| !e.is_ok()).collect();
        assert_eq!(bad.len(), 1, "only the misnamed copy fails: {bad:?}");
        assert_eq!(bad[0].digest, other);
        assert!(bad[0].error.as_deref().unwrap_or("").contains("file name"));
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
        let path = store.body_path(&live.key().digest_hex());
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
            writer.force_last_used(&t.key().digest_hex(), 1000 + i as u64);
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
        store.force_last_used(&live.key().digest_hex(), 42);
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
