//! Reproducible perf-tracking harness: runs a pinned reference matrix and
//! writes `BENCH_perf.json`, so the simulator's performance trajectory is
//! tracked commit over commit.
//!
//! ```text
//! perf_track [--out PATH] [--jobs N|auto] [--refs N] [--warmup N]
//!            [--laps N] [--trace-store DIR]
//! ```
//!
//! Each mode (serial / trace-cached / pooled) is run `--laps` times
//! (default 3) and the best lap is reported: wall-clock medians on shared
//! runners drift with neighbor load, but the minimum is a stable estimate
//! of the achievable time and is the standard statistic for this kind of
//! tracking.
//!
//! The matrix is fixed — three workloads spanning the paper's suites
//! (`gups`, `mcf`, `streamcluster`) × all four schemes at reduced ref
//! counts — and every job is seeded, so two runs on the same machine do the
//! same work. The harness runs the matrix three times: serially (`--jobs
//! 1`) for per-job wall time, per-scheme refs/sec and ns/walk; serially
//! with the shared trace cache (one recording per workload, replayed to
//! every scheme); then on the worker pool for the end-to-end speedup. It
//! cross-checks that all runs produced identical reports (the runner's and
//! trace cache's determinism contracts) and fails loudly if they did not.
//!
//! Each `per_scheme` row also carries `storage_bytes`: the POM-TLB, TSB
//! and page-table storage the largest of the scheme's jobs allocated
//! (`JobResult::storage`). A figure that means nothing on the run is
//! `null`, not `0`: `wall_ns_per_walk` for a scheme that never walks, and
//! every pool speedup when `--jobs 1` leaves no pool to speak of.
//!
//! On top of those three, two persistent-store passes exercise the POMTRC2
//! disk path: a *record* pass through a cold (or CI-restored) store, then a
//! *replay* pass through a **fresh** handle over the same directory — the
//! cross-invocation boundary. The replay pass must serve every stream from
//! disk (zero generator passes) or the harness fails; both passes join the
//! determinism cross-check. `--trace-store DIR` points the store at a
//! persistent directory (CI caches it across commits); without the flag an
//! ephemeral pid-suffixed temp directory is used and removed on exit. The
//! store numbers land in a NEW top-level `"trace_store"` object — every
//! pre-existing field of `BENCH_perf.json` keeps its name and meaning.
//!
//! A memoization pass exercises the serve subsystem's report store: one
//! compare-shaped request is answered cold through a `Service` (computing
//! and memoizing), then again through a *fresh* service over the same
//! directory. The warm answer must come back tagged `memoized` and
//! byte-identical or the harness fails; cold vs memoized latency and the
//! store's hit ratio land in a NEW top-level `"report_store"` object —
//! again, every pre-existing field keeps its name and meaning.
//!
//! The pooled pass runs through the fault-tolerant runner entry point and
//! the artifact records a `"job_outcomes"` tally (ok / retried / timed-out
//! / panicked, summed over every pooled lap). On a healthy build every
//! outcome is `ok`; a panicked job fails the run outright.
//!
//! A consolidation pass runs the multi-tenant QoS workload at the
//! smallest ladder rung (100 VMs, default churn) serially and on the
//! pool over a shared recorded stream, hard-failing on any report
//! divergence or an empty per-tenant accounting section; its walls and
//! QoS digest land in a top-level `"consolidation"` object.
//!
//! A concurrent-serve pass measures the daemon's closed-loop throughput:
//! eight clients on per-connection handles over one shared warm core,
//! each repeating one identical compare request, against the same request
//! stream answered one conversation at a time with disk memoization only
//! (the pre-concurrency daemon shape). The pass hard-fails unless every
//! response is byte-identical to the sequential run's, at least one
//! client coalesced onto the leader's flight, exactly one computation's
//! worth of simulation jobs ran, and throughput is at least 3x the
//! sequential baseline. The numbers land in a NEW top-level
//! `"serve_concurrent"` object — every pre-existing field keeps its name
//! and meaning.
//!
//! A transport pass runs the same closed-loop batch over both *real*
//! socket transports: eight clients on a Unix domain socket and eight on
//! loopback TCP, each daemon a fresh warm core behind the hardened
//! per-connection loop. The pass hard-fails unless every response on
//! both transports is byte-identical to the sequential reference, each
//! transport's barrier-released first wave coalesced at least once, and
//! TCP closed-loop throughput is at least 0.8x the Unix socket's on the
//! same request batch. The numbers land in a NEW top-level `"serve_tcp"`
//! object — every pre-existing field keeps its name and meaning.
//!
//! The record is written with a local JSON emitter rather than a serde
//! round trip: the artifact is diffed across commits by CI, so its byte
//! layout should depend only on this file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pom_tlb::{
    default_jobs, run_jobs, run_jobs_with, share_traces, share_traces_with_store,
    simulations_run, JobResult, RunPolicy, Scheme, ShareOutcome, SimConfig, SimJob,
    StorageBytes,
};
use pomtlb_serve::{ServeConfig, Service};
use pomtlb_trace::TraceStore;
use pomtlb_workloads::by_name;
use pomtlb_workloads::consolidation::{
    consolidation_spec, DEFAULT_CHURN_DESTROYS, DEFAULT_CHURN_FORKS,
};

type SchemeCtor = fn() -> Scheme;

const WORKLOADS: [&str; 3] = ["gups", "mcf", "streamcluster"];
const SCHEMES: [(&str, SchemeCtor); 4] = [
    ("baseline", || Scheme::Baseline),
    ("shared_l2", || Scheme::SharedL2),
    ("tsb", || Scheme::Tsb),
    ("pom_tlb", Scheme::pom_tlb),
];

fn batch(refs: u64, warmup: u64) -> Vec<SimJob> {
    let sim = SimConfig { refs_per_core: refs, warmup_per_core: warmup, seed: 0x90af };
    let mut jobs = Vec::new();
    for name in WORKLOADS {
        let w = by_name(name).expect("pinned workload exists");
        for (slabel, scheme) in SCHEMES {
            let mut spec = w.spec.clone();
            spec.os_events = Default::default();
            jobs.push(
                SimJob::new(format!("{name}/{slabel}"), &spec, scheme(), sim)
                    .shared_memory(w.suite.shares_memory()),
            );
        }
    }
    jobs
}

/// A stable fingerprint of one report: JSON when serde_json is functional,
/// the full Debug rendering otherwise. Both capture every field.
fn fingerprint(r: &JobResult) -> String {
    serde_json::to_string(&r.report).unwrap_or_else(|_| format!("{:?}", r.report))
}

fn same_reports(a: &[JobResult], b: &[JobResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.label == y.label && fingerprint(x) == fingerprint(y))
}

/// Per-scheme aggregation over the serial run: simulated references per
/// wall-clock second, wall nanoseconds per completed page walk (the
/// walk-path cost the arena page tables and SoA caches target), and the
/// largest translation-structure storage any one of the scheme's jobs
/// allocated.
#[derive(Default)]
struct SchemeRow {
    refs: u64,
    page_walks: u64,
    wall_secs: f64,
    storage: StorageBytes,
}

fn per_scheme(serial: &[JobResult]) -> BTreeMap<String, SchemeRow> {
    let mut rows: BTreeMap<String, SchemeRow> = BTreeMap::new();
    for r in serial {
        let scheme = r.label.split('/').nth(1).unwrap_or("?").to_string();
        let row = rows.entry(scheme).or_default();
        row.refs += r.report.refs;
        row.page_walks += r.report.page_walks;
        row.wall_secs += r.wall.as_secs_f64();
        row.storage.pom_tlb = row.storage.pom_tlb.max(r.storage.pom_tlb);
        row.storage.tsb = row.storage.tsb.max(r.storage.tsb);
        row.storage.page_tables = row.storage.page_tables.max(r.storage.page_tables);
    }
    rows
}

/// Run `f` `laps` times; return the shortest wall time and that lap's
/// results. Reports are identical across laps (determinism contract), so
/// which lap's results survive only affects the per-job wall columns.
fn best_of<F: FnMut() -> Vec<JobResult>>(laps: u32, mut f: F) -> (Duration, Vec<JobResult>) {
    let mut best: Option<(Duration, Vec<JobResult>)> = None;
    for _ in 0..laps.max(1) {
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed();
        if best.as_ref().is_none_or(|(b, _)| wall < *b) {
            best = Some((wall, r));
        }
    }
    best.expect("at least one lap runs")
}

// --- minimal JSON emitter -------------------------------------------------

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.000".to_string()
    }
}

/// A number that may mean nothing on this run: `null` when absent.
fn jopt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), jnum)
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One transport client's halves: a buffered reader and a writer over
/// the same socket.
type ConnPair = (Box<dyn std::io::BufRead + Send>, Box<dyn std::io::Write + Send>);

/// One closed-loop transport conversation: send `request` `count` times,
/// read one response line each, require every body byte-equal `expect`.
fn closed_loop_client(
    reader: &mut dyn std::io::BufRead,
    writer: &mut dyn std::io::Write,
    request: &str,
    count: usize,
    expect: &str,
) -> bool {
    // One wire write per request: two small writes would hand Nagle +
    // delayed-ACK a 40 ms stall per round trip on TCP.
    let mut wire = request.trim_end().as_bytes().to_vec();
    wire.push(b'\n');
    let mut response = String::new();
    for _ in 0..count {
        if writer.write_all(&wire).is_err() || writer.flush().is_err() {
            return false;
        }
        response.clear();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 => {}
            _ => return false,
        }
        // Same tail convention as main's `body_of`: the raw slice from
        // `"body":` to the end of the line.
        let line = response.trim_end();
        let Some(i) = line.find("\"body\":") else { return false };
        if &line[i..] != expect {
            return false;
        }
    }
    true
}

/// Closed-loop throughput over a real socket transport: `clients`
/// concurrent conversations, each `requests_each` identical requests,
/// released together by a barrier so the first wave overlaps (and
/// coalesces). Returns the wall time and whether every body matched.
fn transport_closed_loop(
    connect: &(dyn Fn() -> std::io::Result<ConnPair> + Sync),
    clients: usize,
    requests_each: usize,
    request: &str,
    expect: &str,
) -> (Duration, bool) {
    let barrier = std::sync::Barrier::new(clients);
    let start = Instant::now();
    let oks: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || match connect() {
                    Ok((mut reader, mut writer)) => {
                        barrier.wait();
                        closed_loop_client(
                            reader.as_mut(),
                            writer.as_mut(),
                            request,
                            requests_each,
                            expect,
                        )
                    }
                    Err(_) => {
                        barrier.wait();
                        false
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(false)).collect()
    });
    (start.elapsed(), oks.iter().all(|&ok| ok))
}

/// Sends a `shutdown` request over an already-connected conversation and
/// waits for the ack, so the daemon's drain begins deterministically.
fn shutdown_conversation(pair: std::io::Result<ConnPair>) {
    if let Ok((mut reader, mut writer)) = pair {
        let _ = writer.write_all(b"{\"id\":\"q\",\"kind\":\"shutdown\"}\n");
        let _ = writer.flush();
        let mut ack = String::new();
        let _ = reader.read_line(&mut ack);
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_perf.json".to_string();
    let mut jobs_n = default_jobs();
    let mut refs = 8_000u64;
    let mut warmup = 4_000u64;
    let mut laps = 3u32;
    let mut trace_store_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let r = match a.as_str() {
            "--out" => value("--out").map(|v| out = v.clone()),
            "--jobs" | "-j" => value("--jobs").and_then(|v| {
                if v == "auto" {
                    jobs_n = default_jobs();
                    Ok(())
                } else {
                    v.parse().map(|n| jobs_n = n).map_err(|_| format!("bad --jobs `{v}`"))
                }
            }),
            "--refs" => value("--refs")
                .and_then(|v| v.parse().map(|n| refs = n).map_err(|_| format!("bad --refs `{v}`"))),
            "--warmup" => value("--warmup").and_then(|v| {
                v.parse().map(|n| warmup = n).map_err(|_| format!("bad --warmup `{v}`"))
            }),
            "--laps" => value("--laps")
                .and_then(|v| v.parse().map(|n| laps = n).map_err(|_| format!("bad --laps `{v}`"))),
            "--trace-store" => {
                value("--trace-store").map(|v| trace_store_dir = Some(v.clone()))
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("{e}");
            eprintln!(
                "usage: perf_track [--out PATH] [--jobs N|auto] [--refs N] [--warmup N] \
                 [--laps N] [--trace-store DIR]"
            );
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "perf_track: {} jobs ({} workloads x {} schemes), {refs} refs/core, pool of {jobs_n}, \
         best of {laps} lap(s)",
        WORKLOADS.len() * SCHEMES.len(),
        WORKLOADS.len(),
        SCHEMES.len(),
    );

    let (serial_wall, serial) = best_of(laps, || run_jobs(batch(refs, warmup), 1));

    // Shared-trace serial pass: record each workload's stream once, replay
    // it to all four schemes. Generation cost is measured separately so the
    // artifact shows both the recording overhead and the replay win; the
    // lap wall time includes it (a fresh recording is made every lap).
    let mut recordings = 0;
    let mut cache_gen_wall = Duration::MAX;
    let (cache_wall, cached) = best_of(laps, || {
        let gen_start = Instant::now();
        let mut cached_jobs = batch(refs, warmup);
        recordings = share_traces(&mut cached_jobs);
        cache_gen_wall = cache_gen_wall.min(gen_start.elapsed());
        run_jobs(cached_jobs, 1)
    });

    // The pooled pass goes through the fault-tolerant entry point so the
    // artifact also tracks per-job outcome tallies, summed over every pooled
    // lap. On a healthy build every outcome is `ok`; any `retried`,
    // `timed-out` or `panicked` count is a robustness regression signal
    // worth catching commit over commit.
    let mut job_outcomes: BTreeMap<&'static str, u64> =
        ["ok", "retried", "timed-out", "panicked"].into_iter().map(|s| (s, 0)).collect();
    let (parallel_wall, parallel) = best_of(laps, || {
        let outcomes =
            run_jobs_with(batch(refs, warmup), jobs_n, RunPolicy::default(), &|_, _| {});
        let mut results = Vec::new();
        for o in outcomes {
            *job_outcomes.entry(o.status()).or_insert(0) += 1;
            if let Some(r) = o.into_result() {
                results.push(r);
            }
        }
        results
    });
    let outcome = |s: &str| job_outcomes.get(s).copied().unwrap_or(0);
    let panicked_jobs = outcome("panicked");

    // Persistent-store passes. The record pass runs once (its wall time
    // includes recording overhead, which only happens once per store
    // lifetime); the replay pass is best-of-laps like the others, through a
    // *fresh* handle over the same directory so every byte crosses the
    // process-invocation boundary via the files.
    let ephemeral = trace_store_dir.is_none();
    let store_dir = trace_store_dir.unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("pomtlb-perf-store-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let store = match TraceStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open trace store {store_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record_start = Instant::now();
    let mut record_jobs = batch(refs, warmup);
    let record = share_traces_with_store(&mut record_jobs, Some(&store));
    let recorded_results = run_jobs(record_jobs, 1);
    let record_wall = record_start.elapsed();
    drop(store);

    let store = match TraceStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot reopen trace store {store_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut replay = ShareOutcome::default();
    let (replay_wall, replayed_results) = best_of(laps, || {
        let mut jobs = batch(refs, warmup);
        replay = share_traces_with_store(&mut jobs, Some(&store));
        run_jobs(jobs, 1)
    });
    drop(store);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    let replay_all_hits = replay.store_misses == 0 && replay.store_hits == replay.attached;

    // Consolidation pass: the multi-tenant QoS workload at the smallest
    // ladder rung — 100 VMs with default lifecycle churn — run serially
    // and on the pool over a shared recorded stream. Tracks the cost of
    // tenant attribution and churn handling commit over commit, and
    // hard-fails if the pooled replay moves a byte of any report or the
    // QoS section comes back empty.
    const CONS_VMS: u32 = 100;
    let cons_batch = || -> Vec<SimJob> {
        let sim = SimConfig { refs_per_core: refs, warmup_per_core: warmup, seed: 0x90af };
        let spec =
            consolidation_spec(CONS_VMS, Some((DEFAULT_CHURN_DESTROYS, DEFAULT_CHURN_FORKS)));
        SCHEMES
            .into_iter()
            .map(|(slabel, scheme)| {
                SimJob::new(format!("consolidation/{slabel}"), &spec, scheme(), sim)
                    .shared_memory(true)
            })
            .collect()
    };
    let (cons_wall, cons_serial) = best_of(laps, || run_jobs(cons_batch(), 1));
    let (cons_pooled_wall, cons_pooled) = best_of(laps, || {
        let mut jobs = cons_batch();
        share_traces(&mut jobs);
        run_jobs(jobs, jobs_n)
    });
    let cons_deterministic = same_reports(&cons_serial, &cons_pooled);
    let cons_tenancy = cons_serial
        .iter()
        .find(|r| r.label.ends_with("/pom_tlb"))
        .map(|r| r.report.tenancy.clone())
        .unwrap_or_default();
    let cons_accounted = cons_tenancy.measured_tenants > 0 && cons_tenancy.dispersion > 0.0;

    // Report-store memoization pass: one compare-shaped request, cold
    // through a fresh service (computes + memoizes) and warm through a
    // second fresh service over the same directory, so the memoized body
    // crosses the invocation boundary via the POMREP1 file.
    let report_dir =
        std::env::temp_dir().join(format!("pomtlb-perf-reports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&report_dir);
    let serve_request = format!(
        "{{\"id\":\"perf\",\"kind\":\"compare\",\"workload\":\"gups\",\
         \"cores\":2,\"refs\":{refs},\"warmup\":{warmup}}}"
    );
    let serve = |tag: &str| -> Result<Service, String> {
        Service::new(ServeConfig { report_dir: Some(report_dir.clone()), ..Default::default() })
            .map_err(|e| format!("cannot open {tag} serve service: {e}"))
    };
    let serve_pass = |tag: &str| -> Result<(String, Duration, pomtlb_serve::ReportCounters), String> {
        let mut svc = serve(tag)?;
        let t = Instant::now();
        let line = svc
            .handle_line(&serve_request)
            .ok_or_else(|| format!("{tag} serve pass produced no response"))?;
        let wall = t.elapsed();
        let counters = svc.report_store().map(|s| s.counters()).unwrap_or_default();
        Ok((line, wall, counters))
    };
    let (cold_line, cold_wall, cold_counters) = match serve_pass("cold") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (warm_line, memoized_wall, warm_counters) = match serve_pass("warm") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&report_dir);
    // `body` is the final field of a response line, so this is a raw slice.
    let body_of =
        |line: &str| line.find("\"body\":").map(|i| &line[i..]).unwrap_or_default().to_string();
    let memoized_ok = warm_line.contains("\"provenance\":\"memoized\"")
        && !body_of(&cold_line).is_empty()
        && body_of(&cold_line) == body_of(&warm_line);
    let report_hits = cold_counters.hits + warm_counters.hits;
    let report_misses = cold_counters.misses + warm_counters.misses;
    let report_hit_ratio = if report_hits + report_misses > 0 {
        report_hits as f64 / (report_hits + report_misses) as f64
    } else {
        0.0
    };

    // Concurrent-serve pass (PR 8): the same memoized-heavy request mix —
    // every client repeating one identical compare — answered two ways.
    // The sequential baseline is the pre-concurrency daemon shape: one
    // conversation at a time, disk memoization only (hot tier off), every
    // warm answer paying the POMREP1 read + checksum (its manifest stamp
    // is batched into one write per second).
    // The concurrent pass is the production shape: K closed-loop clients
    // on per-connection handles over one shared warm core, the first wave
    // coalescing onto a single flight and every repeat served by the
    // in-memory hot tier. Gates (all hard): every response byte-identical
    // to the sequential run's, at least one coalesced splice, exactly one
    // computation's worth of simulation jobs during the concurrent pass,
    // and closed-loop throughput at least 3x the sequential baseline.
    // A small pinned request keeps the one computation from dominating
    // either pass: the contrast under test is the per-repeat answer path
    // (disk read + checksum vs an in-memory probe), so the repeats must
    // be the bulk of the wall time.
    const CONC_CLIENTS: usize = 8;
    const CONC_REPEATS: usize = 1_200;
    let conc_request = "{\"id\":\"conc\",\"kind\":\"compare\",\"workload\":\"gups\",\
                        \"cores\":2,\"refs\":800,\"warmup\":200}";
    let conc_total = CONC_CLIENTS * (1 + CONC_REPEATS);
    let conc_service = |tag: &str, hot: u64, dir: &std::path::Path| -> Result<Service, String> {
        Service::new(ServeConfig {
            report_dir: Some(dir.to_path_buf()),
            hot_max_bytes: hot,
            ..Default::default()
        })
        .map_err(|e| format!("cannot open {tag} serve service: {e}"))
    };
    let conc_root =
        std::env::temp_dir().join(format!("pomtlb-perf-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&conc_root);

    let seq_dir = conc_root.join("sequential");
    let mut seq_svc = match conc_service("sequential", 0, &seq_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seq_start = Instant::now();
    let mut seq_body = String::new();
    let mut seq_ok = true;
    for i in 0..conc_total {
        let Some(line) = seq_svc.handle_line(conc_request) else {
            seq_ok = false;
            break;
        };
        let body = body_of(&line);
        if i == 0 {
            seq_body = body;
        } else if body != seq_body {
            seq_ok = false;
            break;
        }
    }
    let seq_wall = seq_start.elapsed();

    let conc_dir = conc_root.join("concurrent");
    let conc_svc =
        match conc_service("concurrent", pomtlb_serve::DEFAULT_HOT_MAX_BYTES, &conc_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    let sims_before = simulations_run();
    let conc_barrier = std::sync::Barrier::new(CONC_CLIENTS);
    let conc_start = Instant::now();
    let client_ok: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONC_CLIENTS)
            .map(|_| {
                let mut conn = conc_svc.connection();
                let barrier = &conc_barrier;
                let expect = seq_body.as_str();
                scope.spawn(move || {
                    barrier.wait();
                    (0..1 + CONC_REPEATS).all(|_| {
                        conn.handle_line(conc_request)
                            .is_some_and(|line| body_of(&line) == expect)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(false)).collect()
    });
    let conc_wall = conc_start.elapsed();
    let sims_during_conc = simulations_run() - sims_before;
    let conc_counters = conc_svc.counters();
    let _ = std::fs::remove_dir_all(&conc_root);

    let conc_identical = seq_ok && !seq_body.is_empty() && client_ok.iter().all(|ok| *ok);
    let seq_ms = seq_wall.as_secs_f64() * 1e3;
    let conc_ms = conc_wall.as_secs_f64() * 1e3;
    let throughput_x = if conc_ms > 0.0 { seq_ms / conc_ms } else { 0.0 };
    // One compare request = one simulation job per scheme.
    let one_computation = SCHEMES.len() as u64;
    let serve_concurrent_ok = conc_identical
        && conc_counters.coalesced >= 1
        && sims_during_conc == one_computation
        && throughput_x >= 3.0;

    // Hardened-transport pass (PR 10): the same closed-loop batch over
    // the two real socket transports — the Unix path PR 8 shipped and
    // the TCP path this PR adds. Gates (all hard): byte-identity to the
    // sequential reference on both transports, at least one coalesced
    // splice on each (the barrier-released first wave), and TCP
    // closed-loop throughput at least 0.8x the Unix socket's on the same
    // request batch — loopback TCP may pay the network stack's tax, but
    // not a design tax. The batch mixes one computed wave with hot-tier
    // repeats, the daemon's production request mix; all-hot batches
    // measure raw loopback RTT (where TCP legitimately trails Unix well
    // below the gate) instead of the served-request path under test.
    const TRANSPORT_REPEATS: usize = 100;
    // Best of three laps per arm, fresh daemon and report dir each lap:
    // one cold compute's wall variance would otherwise dominate the
    // throughput ratio.
    const TRANSPORT_LAPS: usize = 3;
    let transport_requests_each = 1 + TRANSPORT_REPEATS;
    let transport_total = CONC_CLIENTS * transport_requests_each;
    let transport_root =
        std::env::temp_dir().join(format!("pomtlb-perf-transport-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&transport_root);

    let mut tcp_wall = Duration::MAX;
    let mut tcp_identical = true;
    let mut tcp_coalesced = 0u64;
    for lap in 0..TRANSPORT_LAPS {
        let tcp_svc = match conc_service(
            "tcp-transport",
            pomtlb_serve::DEFAULT_HOT_MAX_BYTES,
            &transport_root.join(format!("tcp-{lap}")),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let tcp_listener = match pomtlb_serve::bind_tcp_listener("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind TCP transport pass listener: {e}");
                return ExitCode::FAILURE;
            }
        };
        let tcp_addr = tcp_listener.local_addr().expect("ephemeral TCP address");
        let tcp_connect = move || -> std::io::Result<ConnPair> {
            let stream = std::net::TcpStream::connect(tcp_addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            let reader = std::io::BufReader::new(stream.try_clone()?);
            Ok((Box::new(reader), Box::new(stream)))
        };
        let (wall, identical) = std::thread::scope(|scope| {
            let daemon = {
                let svc = &tcp_svc;
                scope.spawn(move || pomtlb_serve::serve_tcp(svc, tcp_listener))
            };
            let result = transport_closed_loop(
                &tcp_connect,
                CONC_CLIENTS,
                transport_requests_each,
                conc_request,
                &seq_body,
            );
            shutdown_conversation(tcp_connect());
            let _ = daemon.join();
            result
        });
        tcp_wall = tcp_wall.min(wall);
        tcp_identical &= identical;
        tcp_coalesced += tcp_svc.counters().coalesced;
    }

    #[cfg(unix)]
    let unix_arm: Option<(Duration, bool, u64)> = {
        let mut unix_wall = Duration::MAX;
        let mut unix_identical = true;
        let mut unix_coalesced = 0u64;
        for lap in 0..TRANSPORT_LAPS {
            let unix_svc = match conc_service(
                "unix-transport",
                pomtlb_serve::DEFAULT_HOT_MAX_BYTES,
                &transport_root.join(format!("unix-{lap}")),
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let sock = transport_root.join(format!("daemon-{lap}.sock"));
            let unix_connect = {
                let sock = sock.clone();
                move || -> std::io::Result<ConnPair> {
                    let stream = std::os::unix::net::UnixStream::connect(&sock)?;
                    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
                    let reader = std::io::BufReader::new(stream.try_clone()?);
                    Ok((Box::new(reader), Box::new(stream)))
                }
            };
            let (wall, identical) = std::thread::scope(|scope| {
                let daemon = {
                    let svc = &unix_svc;
                    let sock = sock.clone();
                    scope.spawn(move || pomtlb_serve::serve_unix(svc, &sock))
                };
                let bind_deadline = Instant::now() + Duration::from_secs(30);
                while !sock.exists() && Instant::now() < bind_deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let result = transport_closed_loop(
                    &unix_connect,
                    CONC_CLIENTS,
                    transport_requests_each,
                    conc_request,
                    &seq_body,
                );
                shutdown_conversation(unix_connect());
                let _ = daemon.join();
                result
            });
            unix_wall = unix_wall.min(wall);
            unix_identical &= identical;
            unix_coalesced += unix_svc.counters().coalesced;
        }
        Some((unix_wall, unix_identical, unix_coalesced))
    };
    #[cfg(not(unix))]
    let unix_arm: Option<(Duration, bool, u64)> = None;
    let _ = std::fs::remove_dir_all(&transport_root);

    let tcp_ms = tcp_wall.as_secs_f64() * 1e3;
    let unix_ms = unix_arm.map(|(w, _, _)| w.as_secs_f64() * 1e3).unwrap_or(0.0);
    // Same request count both arms, so the throughput ratio is the
    // inverse wall ratio.
    let tcp_vs_unix_x = if tcp_ms > 0.0 && unix_ms > 0.0 { unix_ms / tcp_ms } else { 0.0 };
    let serve_tcp_ok = tcp_identical
        && !seq_body.is_empty()
        && tcp_coalesced >= 1
        && match unix_arm {
            Some((_, unix_identical, unix_coalesced)) => {
                unix_identical && unix_coalesced >= 1 && tcp_vs_unix_x >= 0.8
            }
            None => true,
        };

    let deterministic = same_reports(&serial, &parallel)
        && same_reports(&serial, &cached)
        && same_reports(&serial, &recorded_results)
        && same_reports(&serial, &replayed_results);

    let total_refs: u64 = serial.iter().map(|r| r.report.refs).sum();
    let serial_secs = serial_wall.as_secs_f64();
    let cache_secs = cache_wall.as_secs_f64();
    let parallel_secs = parallel_wall.as_secs_f64();

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(
        j,
        "  \"workloads\": [{}],",
        WORKLOADS.map(jstr).join(", ")
    );
    let _ = writeln!(
        j,
        "  \"schemes\": [{}],",
        SCHEMES.map(|(s, _)| jstr(s)).join(", ")
    );
    let _ = writeln!(j, "  \"refs_per_core\": {refs},");
    let _ = writeln!(j, "  \"warmup_per_core\": {warmup},");
    let _ = writeln!(j, "  \"seed\": {},", 0x90afu64);
    let _ = writeln!(j, "  \"host_cores\": {},", default_jobs());
    let _ = writeln!(j, "  \"jobs\": {jobs_n},");
    let _ = writeln!(j, "  \"laps\": {},", laps.max(1));
    let _ = writeln!(
        j,
        "  \"job_outcomes\": {{\"ok\": {}, \"retried\": {}, \"timed-out\": {}, \"panicked\": {}}},",
        outcome("ok"),
        outcome("retried"),
        outcome("timed-out"),
        outcome("panicked")
    );
    let _ = writeln!(j, "  \"serial_wall_ms\": {},", jnum(serial_secs * 1e3));
    let _ = writeln!(
        j,
        "  \"serial_refs_per_sec\": {},",
        jnum(if serial_secs > 0.0 { total_refs as f64 / serial_secs } else { 0.0 })
    );
    j.push_str("  \"serial_jobs\": [\n");
    for (i, r) in serial.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"label\": {}, \"refs\": {}, \"wall_ms\": {}, \"refs_per_sec\": {}}}{}",
            jstr(&r.label),
            r.report.refs,
            jnum(r.wall.as_secs_f64() * 1e3),
            jnum(r.refs_per_sec()),
            if i + 1 < serial.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"per_scheme\": {\n");
    let rows = per_scheme(&serial);
    for (i, (scheme, row)) in rows.iter().enumerate() {
        let rps = if row.wall_secs > 0.0 { row.refs as f64 / row.wall_secs } else { 0.0 };
        // A scheme that never walks has no per-walk cost.
        let ns_per_walk =
            (row.page_walks > 0).then(|| row.wall_secs * 1e9 / row.page_walks as f64);
        let _ = writeln!(
            j,
            "    {}: {{\"refs_per_sec\": {}, \"page_walks\": {}, \"wall_ns_per_walk\": {}, \
             \"storage_bytes\": {{\"pom_tlb\": {}, \"tsb\": {}, \"page_tables\": {}}}}}{}",
            jstr(scheme),
            jnum(rps),
            row.page_walks,
            jopt(ns_per_walk),
            row.storage.pom_tlb,
            row.storage.tsb,
            row.storage.page_tables,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  },\n");
    j.push_str("  \"trace_cache\": {\n");
    let _ = writeln!(j, "    \"recordings\": {recordings},");
    let _ = writeln!(j, "    \"generate_wall_ms\": {},", jnum(cache_gen_wall.as_secs_f64() * 1e3));
    let _ = writeln!(j, "    \"serial_wall_ms\": {},", jnum(cache_secs * 1e3));
    let _ = writeln!(
        j,
        "    \"speedup_vs_serial\": {}",
        jnum(if cache_secs > 0.0 { serial_secs / cache_secs } else { 0.0 })
    );
    j.push_str("  },\n");
    let replay_secs = replay_wall.as_secs_f64();
    j.push_str("  \"trace_store\": {\n");
    let _ = writeln!(
        j,
        "    \"record\": {{\"store_hits\": {}, \"store_misses\": {}, \"recorded\": {}}},",
        record.store_hits, record.store_misses, record.recorded
    );
    let _ = writeln!(
        j,
        "    \"replay\": {{\"store_hits\": {}, \"store_misses\": {}, \"recorded\": {}}},",
        replay.store_hits, replay.store_misses, replay.recorded
    );
    let _ = writeln!(j, "    \"bytes_mapped\": {},", replay.bytes_mapped);
    let _ = writeln!(j, "    \"record_wall_ms\": {},", jnum(record_wall.as_secs_f64() * 1e3));
    let _ = writeln!(j, "    \"replay_wall_ms\": {},", jnum(replay_secs * 1e3));
    let _ = writeln!(
        j,
        "    \"replay_speedup_vs_serial\": {},",
        jnum(if replay_secs > 0.0 { serial_secs / replay_secs } else { 0.0 })
    );
    let _ = writeln!(j, "    \"replay_all_hits\": {replay_all_hits}");
    j.push_str("  },\n");
    // A pool of one worker has no parallel speedup to report: its ratios
    // to the serial run measure scheduling overhead and host noise only.
    let pool_ratio =
        |num: f64, den: f64| (jobs_n > 1 && den > 0.0).then(|| num / den);
    let cons_secs = cons_wall.as_secs_f64();
    let cons_pooled_secs = cons_pooled_wall.as_secs_f64();
    j.push_str("  \"consolidation\": {\n");
    let _ = writeln!(j, "    \"vms\": {CONS_VMS},");
    let _ = writeln!(j, "    \"serial_wall_ms\": {},", jnum(cons_secs * 1e3));
    let _ = writeln!(j, "    \"pooled_wall_ms\": {},", jnum(cons_pooled_secs * 1e3));
    let _ = writeln!(
        j,
        "    \"pooled_speedup_vs_serial\": {},",
        jopt(pool_ratio(cons_secs, cons_pooled_secs))
    );
    let _ = writeln!(j, "    \"measured_tenants\": {},", cons_tenancy.measured_tenants);
    let _ = writeln!(j, "    \"dispersion\": {},", jnum(cons_tenancy.dispersion));
    let _ = writeln!(j, "    \"worst_p99\": {},", cons_tenancy.worst_p99);
    let _ = writeln!(j, "    \"median_p99\": {},", cons_tenancy.median_p99);
    let _ = writeln!(j, "    \"churn_destroys\": {},", cons_tenancy.churn.destroys);
    let _ = writeln!(j, "    \"deterministic\": {cons_deterministic}");
    j.push_str("  },\n");
    let cold_ms = cold_wall.as_secs_f64() * 1e3;
    let memoized_ms = memoized_wall.as_secs_f64() * 1e3;
    j.push_str("  \"report_store\": {\n");
    let _ = writeln!(j, "    \"cold_wall_ms\": {},", jnum(cold_ms));
    let _ = writeln!(j, "    \"memoized_wall_ms\": {},", jnum(memoized_ms));
    let _ = writeln!(
        j,
        "    \"memoized_speedup\": {},",
        jnum(if memoized_ms > 0.0 { cold_ms / memoized_ms } else { 0.0 })
    );
    let _ = writeln!(j, "    \"hits\": {report_hits},");
    let _ = writeln!(j, "    \"misses\": {report_misses},");
    let _ = writeln!(j, "    \"stores\": {},", cold_counters.stores + warm_counters.stores);
    let _ = writeln!(j, "    \"hit_ratio\": {},", jnum(report_hit_ratio));
    let _ = writeln!(j, "    \"memoized_ok\": {memoized_ok}");
    j.push_str("  },\n");
    j.push_str("  \"serve_concurrent\": {\n");
    let _ = writeln!(j, "    \"clients\": {CONC_CLIENTS},");
    let _ = writeln!(j, "    \"requests_per_client\": {},", 1 + CONC_REPEATS);
    let _ = writeln!(j, "    \"sequential_wall_ms\": {},", jnum(seq_ms));
    let _ = writeln!(j, "    \"concurrent_wall_ms\": {},", jnum(conc_ms));
    let _ = writeln!(j, "    \"throughput_x\": {},", jnum(throughput_x));
    let _ = writeln!(
        j,
        "    \"tiers\": {{\"computed\": {}, \"memoized\": {}, \"hot\": {}, \"coalesced\": {}}},",
        conc_counters.computed, conc_counters.memoized, conc_counters.hot, conc_counters.coalesced
    );
    let _ = writeln!(j, "    \"simulations_during_concurrent\": {sims_during_conc},");
    let _ = writeln!(j, "    \"byte_identical\": {conc_identical},");
    let _ = writeln!(j, "    \"serve_concurrent_ok\": {serve_concurrent_ok}");
    j.push_str("  },\n");
    j.push_str("  \"serve_tcp\": {\n");
    let _ = writeln!(j, "    \"clients\": {CONC_CLIENTS},");
    let _ = writeln!(j, "    \"laps\": {TRANSPORT_LAPS},");
    let _ = writeln!(j, "    \"requests_per_client\": {transport_requests_each},");
    let _ = writeln!(j, "    \"total_requests\": {transport_total},");
    let _ = writeln!(j, "    \"tcp_wall_ms\": {},", jnum(tcp_ms));
    let _ = writeln!(j, "    \"unix_wall_ms\": {},", jnum(unix_ms));
    let _ = writeln!(j, "    \"tcp_vs_unix_throughput_x\": {},", jnum(tcp_vs_unix_x));
    let _ = writeln!(j, "    \"tcp_coalesced\": {tcp_coalesced},");
    let _ = writeln!(
        j,
        "    \"unix_coalesced\": {},",
        unix_arm.map(|(_, _, c)| c).unwrap_or(0)
    );
    let _ = writeln!(j, "    \"byte_identical\": {tcp_identical},");
    let _ = writeln!(j, "    \"serve_tcp_ok\": {serve_tcp_ok}");
    j.push_str("  },\n");
    let _ = writeln!(j, "  \"parallel_wall_ms\": {},", jnum(parallel_secs * 1e3));
    let _ = writeln!(j, "  \"speedup\": {},", jopt(pool_ratio(serial_secs, parallel_secs)));
    let _ = writeln!(j, "  \"deterministic\": {deterministic}");
    j.push_str("}\n");

    if let Err(e) = std::fs::write(&out, j) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let times = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.2}x"));
    eprintln!(
        "perf_track: serial {:.0} ms, trace-cache {:.0} ms, pooled {:.0} ms on {} workers \
         -> {} pool / {:.2}x cache; store replay {:.0} ms ({} hit(s), {} byte(s) \
         mapped); serve cold {cold_ms:.0} ms vs \
         memoized {memoized_ms:.0} ms; {CONC_CLIENTS} concurrent clients {conc_ms:.0} ms vs \
         sequential {seq_ms:.0} ms -> {throughput_x:.2}x; tcp {tcp_ms:.0} ms vs unix \
         {unix_ms:.0} ms -> {tcp_vs_unix_x:.2}x; wrote {}",
        serial_secs * 1e3,
        cache_secs * 1e3,
        parallel_secs * 1e3,
        jobs_n,
        times(pool_ratio(serial_secs, parallel_secs)),
        if cache_secs > 0.0 { serial_secs / cache_secs } else { 0.0 },
        replay_secs * 1e3,
        replay.store_hits,
        replay.bytes_mapped,
        out
    );
    if panicked_jobs > 0 {
        eprintln!(
            "perf_track: FAIL — {panicked_jobs} pooled job(s) panicked across {} lap(s); the \
             pinned matrix must complete cleanly",
            laps.max(1)
        );
        return ExitCode::FAILURE;
    }
    if !deterministic {
        eprintln!(
            "perf_track: FAIL — pooled, trace-cached or store-replayed reports differ from \
             serial reports"
        );
        return ExitCode::FAILURE;
    }
    if !replay_all_hits {
        eprintln!(
            "perf_track: FAIL — the store replay pass missed ({}/{} hit(s)); a just-recorded \
             store must serve every stream from disk",
            replay.store_hits, replay.attached
        );
        return ExitCode::FAILURE;
    }
    if !cons_deterministic || !cons_accounted {
        eprintln!(
            "perf_track: FAIL — consolidation pass broke its contract: deterministic \
             {cons_deterministic}, measured_tenants {}, dispersion {:.4}",
            cons_tenancy.measured_tenants, cons_tenancy.dispersion
        );
        return ExitCode::FAILURE;
    }
    if !memoized_ok {
        eprintln!(
            "perf_track: FAIL — warm serve pass was not a byte-identical memoized answer \
             ({report_hits} hit(s), {report_misses} miss(es))"
        );
        return ExitCode::FAILURE;
    }
    if !serve_concurrent_ok {
        eprintln!(
            "perf_track: FAIL — concurrent serve pass broke its contract: byte_identical \
             {conc_identical}, coalesced {}, simulations {sims_during_conc} (expected \
             {one_computation}), throughput {throughput_x:.2}x (gate 3.0x)",
            conc_counters.coalesced
        );
        return ExitCode::FAILURE;
    }
    if !serve_tcp_ok {
        eprintln!(
            "perf_track: FAIL — TCP transport pass broke its contract: byte_identical \
             {tcp_identical}, tcp coalesced {tcp_coalesced}, unix coalesced {}, tcp vs unix \
             throughput {tcp_vs_unix_x:.2}x (gate 0.8x)",
            unix_arm.map(|(_, _, c)| c).unwrap_or(0)
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
