//! Multi-handle store safety (PR 8, satellite): two independent
//! [`ReportStore`] / [`pomtlb_trace::TraceStore`] handles pointed at one
//! directory — the daemon's per-connection world — racing saves, loads
//! and GC passes must never lose an entry or surface a torn body. The
//! write protocol that makes this true: stage into a per-call tmp file,
//! atomically rename into place, serialize manifest read-modify-write
//! behind the in-process mutex plus the advisory lock file.
//!
//! The crash suite at the end runs one generic body against both stores
//! (both are `pomtlb_trace::Store` over a codec): a store holding what a
//! crashed writer leaves behind, and a seeded loop that SIGKILLs a child
//! writer, must both leave a store that verifies, lists exactly its
//! bodies and loads every one byte for byte.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, SystemTime};

use pom_tlb::{run_jobs, share_traces_with_store, Scheme, SimConfig, SimJob, SystemConfig};
use pomtlb_serve::{ReportStore, TierSnapshot, SERVE_COUNTERS_FILE};
use pomtlb_trace::digest::digest_hex;
use pomtlb_trace::manifest::{parse, Row, MANIFEST_FILE, STAGING_MAX_AGE};
use pomtlb_trace::{
    Codec, ReportCodec, SharedTrace, Store, TraceCodec, TraceKey, TraceStore, WorkloadSpec,
};
use pomtlb_workloads::by_name;

/// The trace test counts against process-global state and every test
/// here hammers the filesystem; serialize them.
fn serialize() -> MutexGuard<'static, ()> {
    static SEQ: OnceLock<Mutex<()>> = OnceLock::new();
    SEQ.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("pomtlb-store-conc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn digest(i: u64) -> [u8; 32] {
    let mut d = [0u8; 32];
    d[..8].copy_from_slice(&i.to_le_bytes());
    d[8] = 0xa5;
    d
}

fn payload(i: u64) -> Vec<u8> {
    format!("{{\"entry\":{i},\"fill\":\"{}\"}}", "x".repeat(64 + (i as usize % 7) * 17))
        .into_bytes()
}

#[test]
fn racing_handles_saving_disjoint_keys_lose_nothing() {
    let _guard = serialize();
    let dir = TempDir::new("disjoint");
    const PER_HANDLE: u64 = 24;

    let a = ReportStore::open(dir.path()).expect("open handle a");
    let b = ReportStore::open(dir.path()).expect("open handle b");
    let gc_handle = ReportStore::open(dir.path()).expect("open gc handle");

    let barrier = Barrier::new(3);
    let done = AtomicBool::new(false);
    let saver = |store: &ReportStore, base: u64| {
        for i in base..base + PER_HANDLE {
            store
                .save(&digest(i), &payload(i), "sim", "gups")
                .expect("save succeeds under contention");
        }
    };
    std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            barrier.wait();
            saver(&a, 0);
        });
        let tb = scope.spawn(|| {
            barrier.wait();
            saver(&b, PER_HANDLE);
        });
        // A third handle runs GC passes the whole time the writers are
        // racing (each save also runs its own pass).
        scope.spawn(|| {
            barrier.wait();
            while !done.load(Ordering::Relaxed) {
                gc_handle.gc();
            }
        });
        ta.join().expect("writer a");
        tb.join().expect("writer b");
        done.store(true, Ordering::Relaxed);
    });

    // A fresh handle sees every entry, byte-exact, with a clean verify.
    let fresh = ReportStore::open(dir.path()).expect("reopen");
    assert_eq!(
        fresh.entries().len(),
        2 * PER_HANDLE as usize,
        "no entry lost to the concurrent manifest rewrites"
    );
    for i in 0..2 * PER_HANDLE {
        assert_eq!(
            fresh.load(&digest(i)).as_deref(),
            Some(payload(i).as_slice()),
            "entry {i} loads byte-exact"
        );
    }
    let verify = fresh.verify();
    assert_eq!(verify.len(), 2 * PER_HANDLE as usize);
    assert!(verify.iter().all(|e| e.is_ok()), "every body passes checksums: {verify:?}");
    assert_eq!(fresh.counters().load_failures, 0);
}

#[test]
fn racing_writers_of_one_key_never_surface_a_torn_body() {
    let _guard = serialize();
    let dir = TempDir::new("torn");
    const ROUNDS: u64 = 40;
    let key = digest(7777);
    // Two distinct bodies of different lengths: a torn mix of the two
    // would fail the length or checksum validation — and a lost rename
    // would fail the load outright.
    let body_a = payload(1).repeat(97);
    let body_b = payload(2).repeat(61);

    let a = ReportStore::open(dir.path()).expect("open handle a");
    let b = ReportStore::open(dir.path()).expect("open handle b");
    let reader = ReportStore::open(dir.path()).expect("open reader");

    // Seed the key so the reader never races file creation itself.
    a.save(&key, &body_a, "sim", "gups").expect("seed save");

    let done = AtomicBool::new(false);
    let barrier = Barrier::new(3);
    std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            barrier.wait();
            for _ in 0..ROUNDS {
                a.save(&key, &body_a, "sim", "gups").expect("save a");
            }
        });
        let tb = scope.spawn(|| {
            barrier.wait();
            for _ in 0..ROUNDS {
                b.save(&key, &body_b, "sim", "gups").expect("save b");
            }
        });
        let observed = scope.spawn(|| {
            barrier.wait();
            let mut loads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let got = reader.load(&key).expect("the key always loads once seeded");
                assert!(
                    got == body_a || got == body_b,
                    "a load surfaced bytes that were never saved (torn body)"
                );
                loads += 1;
            }
            loads
        });
        ta.join().expect("writer a");
        tb.join().expect("writer b");
        done.store(true, Ordering::Relaxed);
        assert!(observed.join().expect("reader") > 0, "the reader observed at least one load");
    });

    assert_eq!(reader.counters().load_failures, 0, "no load ever saw a defective file");
    let fresh = ReportStore::open(dir.path()).expect("reopen");
    let last = fresh.load(&key).expect("final load");
    assert!(last == body_a || last == body_b);
    assert!(fresh.verify().iter().all(|e| e.is_ok()), "the surviving file is intact");
}

/// Two workloads × all four schemes — two distinct input streams — same
/// batch the trace-store integration tests use.
fn batch() -> Vec<SimJob> {
    let sim = SimConfig { refs_per_core: 3_000, warmup_per_core: 1_000, seed: 0xbeef };
    let sys = SystemConfig { n_cores: 2, ..Default::default() };
    let mut jobs = Vec::new();
    for name in ["gups", "mcf"] {
        let w = by_name(name).expect("workload exists");
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            jobs.push(
                SimJob::new(format!("{name}/{}", scheme.label()), &w.spec, scheme, sim)
                    .with_system_config(sys.clone())
                    .shared_memory(w.suite.shares_memory()),
            );
        }
    }
    jobs
}

fn fingerprints(results: &[pom_tlb::JobResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| serde_json::to_string(&r.report).unwrap_or_else(|_| format!("{:?}", r.report)))
        .collect()
}

#[test]
fn racing_trace_store_handles_record_once_each_and_replay_identically() {
    let _guard = serialize();
    let dir = TempDir::new("traces");
    let live = fingerprints(&run_jobs(batch(), 1));

    // Two cold handles race record-on-miss for the same two streams —
    // both may generate, both may save the same digest concurrently; the
    // rename protocol must leave exactly one intact recording per stream.
    let barrier = Barrier::new(2);
    let reports: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let root = dir.path().to_path_buf();
                let barrier = &barrier;
                scope.spawn(move || {
                    let store = TraceStore::open(&root).expect("open handle");
                    let mut jobs = batch();
                    barrier.wait();
                    share_traces_with_store(&mut jobs, Some(&store));
                    fingerprints(&run_jobs(jobs, 1))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("racer")).collect()
    });
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r, &live, "racer {i}'s reports diverged from the live reference");
    }

    // The surviving recordings are intact and a fresh handle replays both
    // streams from disk without regenerating anything.
    let store = TraceStore::open(dir.path()).expect("reopen");
    let verify = store.verify();
    assert_eq!(verify.len(), 2, "one recording per distinct stream survived the race");
    assert!(verify.iter().all(|e| e.is_ok()), "both recordings pass verify: {verify:?}");
    let mut jobs = batch();
    let outcome = share_traces_with_store(&mut jobs, Some(&store));
    assert_eq!((outcome.store_hits, outcome.store_misses), (2, 0));
    assert_eq!(outcome.recorded, 0, "a warm store regenerates nothing");
    assert_eq!(fingerprints(&run_jobs(jobs, 1)), live, "disk replay stays byte-identical");
}

// ---------------------------------------------------------------------
// Crash suite: one generic body, run against each store.

/// A store under the crash suite: the body a writer saves for key `i`,
/// and how to tell that a loaded value is that body.
trait Subject: Codec + Sized {
    fn key(i: u64) -> Self::Key;
    fn save(store: &Store<Self>, i: u64);
    fn is_body(value: &Self::Value, i: u64) -> bool;
    /// Whether a listed row lacks the labels its save recorded.
    fn unlabelled(row: &Self::Row) -> bool;
}

impl Subject for ReportCodec {
    fn key(i: u64) -> [u8; 32] {
        digest(i)
    }

    fn save(store: &ReportStore, i: u64) {
        store.save(&digest(i), &payload(i), "sim", "gups").expect("save a report");
    }

    fn is_body(value: &Vec<u8>, i: u64) -> bool {
        *value == payload(i)
    }

    fn unlabelled(row: &pomtlb_trace::ReportEntry) -> bool {
        row.kind == "?" || row.workload == "?"
    }
}

fn crash_spec() -> WorkloadSpec {
    WorkloadSpec::builder("crash").footprint_bytes(4 << 20).build()
}

fn recording(i: u64) -> Arc<SharedTrace> {
    Arc::new(SharedTrace::generate(&crash_spec(), i, 1, false, 300))
}

impl Subject for TraceCodec {
    fn key(i: u64) -> TraceKey {
        TraceKey { spec: crash_spec(), seed: i, n_cores: 1, shared_memory: false, total_refs: 300 }
    }

    fn save(store: &TraceStore, i: u64) {
        store.save(&recording(i)).expect("save a recording");
    }

    fn is_body(value: &Arc<SharedTrace>, i: u64) -> bool {
        value.replay().eq(recording(i).replay())
    }

    fn unlabelled(row: &pomtlb_trace::StoreEntry) -> bool {
        row.workload == "?"
    }
}

fn hex<C: Subject>(i: u64) -> String {
    digest_hex(&C::digest(&C::key(i)))
}

/// Writes `bytes` to `path` and sets its mtime `age` in the past.
fn plant(path: &Path, bytes: &[u8], age: Duration) {
    fs::write(path, bytes).expect("plant a file");
    let file = fs::File::options().write(true).open(path).expect("reopen planted file");
    file.set_modified(SystemTime::now() - age).expect("age planted file");
}

fn staging_files(root: &Path) -> Vec<PathBuf> {
    let Ok(dir) = fs::read_dir(root) else { return Vec::new() };
    dir.flatten().map(|e| e.path()).filter(|p| p.to_string_lossy().ends_with(".tmp")).collect()
}

/// Plants everything a crashed writer can leave, then checks that a fresh
/// handle sees a whole store.
fn planted_leftovers_leave_the_store_whole<C: Subject>() {
    let dir = TempDir::new(&format!("planted-{}", C::EXT));
    let root = dir.path();
    let scratch = TempDir::new(&format!("planted-scratch-{}", C::EXT));
    {
        let store = Store::<C>::open(root).expect("open");
        for i in 0..3 {
            C::save(&store, i);
        }
        // A body renamed into place by a writer that died before its row
        // flushed: saved elsewhere, then copied in without a row.
        C::save(&Store::<C>::open(scratch.path()).expect("open scratch"), 3);
    }
    let orphan = format!("{}.{}", hex::<C>(3), C::EXT);
    fs::copy(scratch.path().join(&orphan), root.join(&orphan)).expect("plant the orphan");
    let aged = STAGING_MAX_AGE + Duration::from_secs(60);
    plant(&root.join(format!(".{}.4242.0.tmp", hex::<C>(4))), b"half a body", aged);
    plant(&root.join(".manifest.4242.1.tmp"), b"pomtlb-half-a-manifest", aged);
    plant(&root.join("manifest.lock"), b"", Duration::from_secs(10));
    let manifest = root.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).expect("manifest written on drop");
    let last = text.trim_end().lines().last().expect("a row").len();
    fs::write(&manifest, &text[..text.trim_end().len() - last / 2]).expect("tear the last line");

    let fresh = Store::<C>::open(root).expect("fresh handle");
    let verify = fresh.verify();
    assert_eq!(verify.len(), 4);
    assert!(verify.iter().all(|e| e.is_ok()), "verify is clean: {verify:?}");
    let listed: BTreeSet<String> = fresh.entries().iter().map(|e| e.digest().to_string()).collect();
    assert_eq!(listed, (0..4).map(hex::<C>).collect(), "entries list exactly the bodies");
    for i in 0..4 {
        let value = fresh.load(&C::key(i)).expect("every body loads");
        assert!(C::is_body(&value, i), "body {i} loads byte for byte");
    }
    assert_eq!(fresh.counters().load_failures, 0);
    assert!(fresh.gc().evicted.is_empty(), "nothing over the default cap");
    assert_eq!(staging_files(root), Vec::<PathBuf>::new(), "one GC pass swept aged staging files");
    assert!(!root.join("manifest.lock").exists(), "the stale lock was broken, ours released");
}

#[test]
fn planted_leftovers_leave_the_report_store_whole() {
    let _guard = serialize();
    planted_leftovers_leave_the_store_whole::<ReportCodec>();
}

#[test]
fn planted_leftovers_leave_the_trace_store_whole() {
    let _guard = serialize();
    planted_leftovers_leave_the_store_whole::<TraceCodec>();
}

/// Set only by the kill loop: it turns this test binary into its child
/// writer, rooted at the variable's directory.
const CHILD_DIR_VAR: &str = "POMTLB_KILL_LOOP_CHILD_DIR";
/// Distinct keys the child writer cycles through, per store.
const CHILD_KEYS: u64 = 12;

/// The kill loop's child writer: saves, loads and GCs on both stores (and
/// the serve counters snapshot) until it is killed. A no-op in a normal
/// test run.
#[test]
fn kill_loop_child_writer() {
    let Some(dir) = std::env::var_os(CHILD_DIR_VAR).map(PathBuf::from) else { return };
    // Caps below the working set, so the flushes' GC passes evict.
    let reports = ReportStore::open(dir.join("reports")).expect("open").with_max_bytes(2 << 10);
    let traces = TraceStore::open(dir.join("traces")).expect("open").with_max_bytes(40 << 10);
    for i in 0.. {
        let k = i % CHILD_KEYS;
        <ReportCodec as Subject>::save(&reports, k);
        let _ = reports.load(&digest(i * 7 % CHILD_KEYS));
        <TraceCodec as Subject>::save(&traces, k);
        let _ = traces.load(&TraceCodec::key(i * 5 % CHILD_KEYS));
        let snapshot = TierSnapshot { computed: i, memoized: i, ..TierSnapshot::default() };
        snapshot.save(reports.root()).expect("save the serve counters");
        if i % 8 == 0 {
            reports.gc();
            traces.gc();
        }
    }
}

/// splitmix64: the kill loop's seeded delay stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a fresh handle must find after a kill: every body verified or
/// absent, every present one the child's bytes for its key, no load
/// failure, no row lost except those of bodies saved after the writer's
/// last manifest write (its last unflushed second, DESIGN.md §8), and the
/// staging files it left swept once they age.
fn check_after_kill<C: Subject>(root: &Path, round: usize) {
    // Read before any handle opens the store: the killed writer's last
    // manifest write and the bodies it indexed.
    let manifest = root.join(MANIFEST_FILE);
    let written =
        fs::metadata(&manifest).and_then(|m| m.modified()).unwrap_or(SystemTime::UNIX_EPOCH);
    let text = fs::read_to_string(&manifest).unwrap_or_default();
    let indexed: BTreeSet<String> =
        parse::<C::Row>(&text).iter().map(|r| r.digest().to_string()).collect();
    let store = Store::<C>::open(root).expect("fresh handle");
    let verify = store.verify();
    assert!(verify.iter().all(|e| e.is_ok()), "round {round}: verify {verify:?}");
    let keys: HashMap<String, u64> = (0..CHILD_KEYS).map(|i| (hex::<C>(i), i)).collect();
    for row in store.entries() {
        let digest = row.digest();
        assert!(keys.contains_key(digest), "round {round}: stray body {digest}");
        // An indexed `?` row is a report body a load indexed (DESIGN.md §8).
        if C::unlabelled(&row) && !indexed.contains(digest) {
            let saved = fs::metadata(store.body_path(digest))
                .and_then(|m| m.modified())
                .expect("a listed body has an mtime");
            assert!(
                saved + Duration::from_secs(1) >= written,
                "round {round}: {digest} lost its row but was saved before the last manifest write"
            );
        }
    }
    for i in 0..CHILD_KEYS {
        if let Some(value) = store.load(&C::key(i)) {
            assert!(C::is_body(&value, i), "round {round}: body {i} differs");
        }
    }
    assert_eq!(store.counters().load_failures, 0, "round {round}: a load failed");
    for path in staging_files(root) {
        plant(&path, &fs::read(&path).unwrap_or_default(), STAGING_MAX_AGE * 2);
    }
    store.gc();
    assert_eq!(staging_files(root), Vec::<PathBuf>::new(), "round {round}: aged staging left");
}

#[test]
fn killed_writers_leave_both_stores_whole() {
    let _guard = serialize();
    let dir = TempDir::new("kill-loop");
    let exe = std::env::current_exe().expect("this test binary");
    let mut seed = 0x5eed_0fc0_ffee_u64;
    for round in 0..16 {
        let delay = Duration::from_millis(10 + splitmix64(&mut seed) % 1200);
        let mut child = Command::new(&exe)
            .args(["kill_loop_child_writer", "--exact", "--nocapture", "--test-threads=1"])
            .env(CHILD_DIR_VAR, dir.path())
            .stdout(Stdio::null())
            .spawn()
            .expect("start the child writer");
        std::thread::sleep(delay);
        let exited = child.try_wait().expect("poll the child");
        assert!(exited.is_none(), "round {round}: the child writer exited early: {exited:?}");
        child.kill().expect("SIGKILL the child writer");
        child.wait().expect("reap the child writer");
        check_after_kill::<ReportCodec>(&dir.path().join("reports"), round);
        check_after_kill::<TraceCodec>(&dir.path().join("traces"), round);
        let counters = dir.path().join("reports").join(SERVE_COUNTERS_FILE);
        if counters.exists() {
            assert!(TierSnapshot::load(counters.parent().expect("dir")).is_some(), "torn");
        }
    }
}
