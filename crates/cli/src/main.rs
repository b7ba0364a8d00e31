//! `pomtlb` — run one simulation from the command line.
//!
//! ```text
//! pomtlb list
//! pomtlb sim --workload mcf [--scheme pom-tlb] [--cores N] [--refs N]
//!            [--warmup N] [--seed N] [--capacity-mb N] [--native]
//!            [--no-prepopulate] [--unmaps-per-10k X] [--check-consistency]
//!            [--json]
//! pomtlb compare --workload gups [--cores N] [--refs N] [--json]
//! pomtlb shootdown-sweep --workload gups [--json]
//! pomtlb consolidation-sweep [--vms N] [--churn-destroys-per-10k X]
//!                            [--churn-forks-per-10k X] [--no-churn]
//!                            [--assert-determinism] [--json]
//! pomtlb fault-sweep --workload gups [--fault-seed N] [--assert-detection]
//!                    [--json]
//! pomtlb trace-store stats|verify|gc --dir DIR [--max-mb N]
//! pomtlb report-store stats|verify|gc --dir DIR [--max-mb N]
//! pomtlb serve [--socket PATH | --tcp HOST:PORT] [--trace-cache-dir DIR]
//!              [--report-dir DIR] [--report-max-mb N] [--jobs N]
//!              [--max-connections N] [--max-inflight N|auto] [--max-queue N]
//!              [--hot-cache-mb N] [--idle-timeout-secs N]
//!              [--drain-timeout-secs N] [--max-line-bytes N]
//!              [--compute-deadline-ms N]
//! pomtlb client --tcp HOST:PORT [--deadline-ms N] [--max-retries N]
//!               [--backoff-base-ms N] [--backoff-cap-ms N] [--seed N]
//! pomtlb chaos-proxy --upstream HOST:PORT [--seed N] [--reset-per-10k N]
//!                    [--torn-per-10k N] [--stall-per-10k N] [--stall-ms N]
//!                    [--delay-ms N]
//! ```
//!
//! The five simulation commands build their batches the way the daemon
//! does. The flags fill a [`ServeRequest`] under its request names, and
//! `ServeRequest::resolve_given` plus `ResolvedRequest::jobs` turn it into
//! jobs: `sim` and `compare` run one request each, `shootdown-sweep` one
//! `compare` request per unmap rate (0, 1, 10 per 10k references),
//! `consolidation-sweep` one `consolidation` request per ladder rung and
//! `fault-sweep` one `fault-sweep` request. Every sweep therefore lists
//! its schemes in `compare`'s order. Flags are literal: `--warmup 0` runs
//! without warmup, where a zero on the wire means "default".
//!
//! Every simulation command (`sim`, `compare`, `shootdown-sweep`,
//! `consolidation-sweep`, `fault-sweep`) accepts `--trace-cache-dir DIR`:
//! shared recordings persist to a POMTRC2 store at DIR and later
//! invocations replay them from disk instead of regenerating.
//! `trace-store` inspects such a store: `stats` lists its recordings,
//! `verify` integrity-checks every file (exit code 1 if any fails), `gc`
//! evicts least-recently-used recordings down to `--max-mb`.
//!
//! `fault-sweep` runs every scheme with seeded fault injection (POM-TLB
//! DRAM bit flips, cached-copy flips, dropped shootdown IPIs, stale
//! reinsertions — see `pom_tlb::fault`) twice: with the consistency
//! machinery detecting-and-repairing, and with it off. The report
//! quantifies detection coverage, detection latency and wrong-translation
//! escapes per scheme; `--assert-detection` turns the expected invariants
//! into the exit code for CI.
//!
//! `serve` runs the long-lived sweep service (see `pomtlb_serve`): requests
//! arrive as JSON lines on stdin (default), a Unix socket, or TCP — both
//! socket transports serve up to `--max-connections` conversations
//! concurrently against one shared warm core, with per-connection idle
//! timeouts, a per-request compute deadline, bounded request lines, and
//! graceful drain on shutdown (see `DESIGN.md` §12). `client` is the
//! matching resilient TCP client (reconnect, capped seeded-jitter backoff
//! on typed `busy`/`deadline_exceeded` refusals, a byte-identity
//! assertion on retries), and `chaos-proxy` is the deterministic
//! fault-injection proxy the chaos suite and CI smoke job run them
//! through. The trace store stays warm across
//! requests, and finished response bodies are answered from three cache
//! tiers, each byte-identical to the computed body: an in-memory hot
//! cache (`"hot"`, sized by `--hot-cache-mb`), the content-addressed
//! report store at `--report-dir` (`"memoized"`), and single-flight
//! coalescing of identical requests already computing (`"coalesced"`).
//! Admission control bounds concurrent computes to `--max-inflight` with
//! a `--max-queue` backlog; overload gets a typed busy line. The daemon
//! persists its tier counters into the report dir, and `report-store
//! stats` (same three actions as `trace-store`) prints them back.

use std::process::ExitCode;

use pom_tlb::{
    consolidation_ladder, run_jobs, share_traces, share_traces_with_store, FaultStats, Scheme,
    ShootdownStats, SimJob, SimReport,
};
use pomtlb_serve::{
    parse_scheme, ResolvedRequest, RowMeta, ServeConfig, ServeRequest, Service,
    DEFAULT_CAPACITY_MB, DEFAULT_CORES, DEFAULT_FAULT_SEED, DEFAULT_REFS, DEFAULT_SEED,
    DEFAULT_WARMUP,
};
use pomtlb_trace::{
    Codec, OsEventRates, ReportCodec, ReportEntry, ReportStore, Store, StoreEntry, TraceCodec,
    TraceStore,
};
use pomtlb_workloads::PaperWorkload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("sim") => run_simulation(&args[1..], Command::Sim),
        Some("compare") => run_simulation(&args[1..], Command::Compare),
        Some("shootdown-sweep") => run_simulation(&args[1..], Command::ShootdownSweep),
        Some("consolidation-sweep") => run_simulation(&args[1..], Command::ConsolidationSweep),
        Some("fault-sweep") => run_simulation(&args[1..], Command::FaultSweep),
        Some("trace-store") => {
            run_store::<TraceCodec>("trace-store", &args[1..], "recording(s)", trace_stats)
        }
        Some("report-store") => {
            run_store::<ReportCodec>("report-store", &args[1..], "body(ies)", report_stats)
        }
        Some("serve") => run_serve(&args[1..]),
        Some("client") => run_client(&args[1..]),
        Some("chaos-proxy") => run_chaos_proxy(&args[1..]),
        Some("--help") | Some("-h") | None => {
            help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            help();
            ExitCode::FAILURE
        }
    }
}

/// The five simulation commands.
#[derive(Clone, Copy)]
enum Command {
    Sim,
    Compare,
    ShootdownSweep,
    ConsolidationSweep,
    FaultSweep,
}

/// A simulation command line: the simulation knobs, held in a serve request
/// under their request names, and the flags only the CLI has.
#[derive(Debug, Clone)]
struct Options {
    request: ServeRequest,
    json: bool,
    jobs: usize,
    trace_cache: bool,
    trace_cache_dir: Option<String>,
    assert_detection: bool,
    assert_determinism: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        // Flags are taken as given, so the numeric knobs start at their
        // defaults spelled out rather than at the wire's zero.
        request: ServeRequest {
            cores: DEFAULT_CORES,
            refs: DEFAULT_REFS,
            warmup: DEFAULT_WARMUP,
            seed: DEFAULT_SEED,
            capacity_mb: DEFAULT_CAPACITY_MB,
            fault_seed: DEFAULT_FAULT_SEED,
            ..ServeRequest::default()
        },
        json: false,
        jobs: 1,
        trace_cache: false,
        trace_cache_dir: None,
        assert_detection: false,
        assert_determinism: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let r = &mut o.request;
        match a.as_str() {
            "--workload" | "-w" => r.workload = value("--workload")?,
            "--scheme" | "-s" => {
                let scheme = value("--scheme")?;
                parse_scheme(&scheme)?;
                r.scheme = scheme;
            }
            "--cores" => r.cores = num(&value("--cores")?)?,
            "--refs" => r.refs = num(&value("--refs")?)?,
            "--warmup" => r.warmup = num(&value("--warmup")?)?,
            "--seed" => r.seed = num(&value("--seed")?)?,
            "--capacity-mb" => r.capacity_mb = num(&value("--capacity-mb")?)?,
            "--native" => r.native = true,
            "--no-prepopulate" => r.no_prepopulate = true,
            "--unmaps-per-10k" => r.unmaps_per_10k = fnum(&value("--unmaps-per-10k")?)?,
            "--remaps-per-10k" => r.remaps_per_10k = fnum(&value("--remaps-per-10k")?)?,
            "--promotes-per-10k" => r.promotes_per_10k = fnum(&value("--promotes-per-10k")?)?,
            "--migrations-per-10k" => {
                r.migrations_per_10k = fnum(&value("--migrations-per-10k")?)?;
            }
            "--vm-destroys-per-10k" => {
                r.vm_destroys_per_10k = fnum(&value("--vm-destroys-per-10k")?)?;
            }
            "--vms" => r.vms = num_u32(&value("--vms")?)?,
            "--churn-destroys-per-10k" => {
                r.churn_destroys_per_10k = fnum(&value("--churn-destroys-per-10k")?)?;
            }
            "--churn-forks-per-10k" => {
                r.churn_forks_per_10k = fnum(&value("--churn-forks-per-10k")?)?;
            }
            "--no-churn" => r.no_churn = true,
            "--check-consistency" => r.check_consistency = true,
            "--fault-seed" => r.fault_seed = num(&value("--fault-seed")?)?,
            "--assert-determinism" => o.assert_determinism = true,
            "--assert-detection" => o.assert_detection = true,
            "--json" => o.json = true,
            "--trace-cache" => o.trace_cache = true,
            "--trace-cache-dir" => {
                o.trace_cache_dir = Some(value("--trace-cache-dir")?);
                o.trace_cache = true;
            }
            "--jobs" | "-j" => {
                let v = value("--jobs")?;
                o.jobs = if v == "auto" {
                    pom_tlb::default_jobs()
                } else {
                    num(&v)? as usize
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

/// A flag held in a `u32`: values past `u32::MAX` are refused, never
/// wrapped.
fn num_u32(s: &str) -> Result<u32, String> {
    u32::try_from(num(s)?).map_err(|_| format!("`{s}` is out of range (at most {})", u32::MAX))
}

fn fnum(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

impl Command {
    /// The serve requests this command line stands for, resolved with the
    /// flags taken as given. `Err` is the refusal to print.
    fn resolve(self, base: &ServeRequest) -> Result<Vec<ResolvedRequest>, String> {
        let request = |kind: &str| ServeRequest { kind: kind.to_string(), ..base.clone() };
        let requests = match self {
            Command::FaultSweep if base.workload.is_empty() => {
                vec![ServeRequest { workload: "gups".to_string(), ..request("fault-sweep") }]
            }
            Command::FaultSweep => vec![request("fault-sweep")],
            Command::ConsolidationSweep => {
                let rungs =
                    if base.vms == 0 { consolidation_ladder().to_vec() } else { vec![base.vms] };
                let rung = |vms| ServeRequest { vms, ..request("consolidation") };
                rungs.into_iter().map(rung).collect()
            }
            _ if base.workload.is_empty() => {
                return Err("--workload is required (see `pomtlb list`)".to_string());
            }
            Command::Sim => vec![request("sim")],
            Command::Compare => vec![request("compare")],
            Command::ShootdownSweep => {
                // The flags as given pass their own checks first; then any
                // event rate is refused, as the sweep sets the unmap rate.
                if request("compare").resolve_given()?.events != OsEventRates::default() {
                    return Err("shootdown-sweep sets the unmap rate itself (0, 1 and 10 per \
                                10k references); drop the --*-per-10k flags"
                        .to_string());
                }
                [0.0, 1.0, 10.0]
                    .into_iter()
                    .map(|unmaps_per_10k| ServeRequest { unmaps_per_10k, ..request("compare") })
                    .collect()
            }
        };
        requests.iter().map(ServeRequest::resolve_given).collect()
    }
}

/// One finished job: the request it came from, its identity within that
/// request's batch, and its report.
struct Row<'a> {
    request: &'a ResolvedRequest,
    meta: RowMeta,
    report: SimReport,
}

/// Every request's jobs in request order, each paired with its request and
/// row identity.
fn batch(requests: &[ResolvedRequest]) -> (Vec<SimJob>, Vec<(&ResolvedRequest, RowMeta)>) {
    let mut jobs = Vec::new();
    let mut rows = Vec::new();
    for request in requests {
        let (more, metas) = request.jobs();
        jobs.extend(more);
        rows.extend(metas.into_iter().map(|meta| (request, meta)));
    }
    (jobs, rows)
}

/// Runs every request's jobs as one batch on the worker pool. Rows come
/// back request by request, each request's rows in the daemon's order.
fn run_batch<'a>(requests: &'a [ResolvedRequest], o: &Options) -> Result<Vec<Row<'a>>, String> {
    let (mut jobs, rows) = batch(requests);
    if o.trace_cache {
        // One recording per distinct input stream (an unmap rate changes
        // the stream, a scheme or a fault plan does not).
        let store = o.trace_cache_dir.as_deref().map(|d| {
            TraceStore::open(d).map_err(|e| format!("cannot open trace store {d}: {e}"))
        });
        share_traces_with_store(&mut jobs, store.transpose()?.as_ref());
    }
    Ok(run_jobs(jobs, o.jobs)
        .into_iter()
        .zip(rows)
        .map(|(res, (request, meta))| Row { request, meta, report: res.report })
        .collect())
}

/// `sim`, `compare` and the three sweeps: resolve, run one batch, print.
fn run_simulation(args: &[String], command: Command) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    let held = command.resolve(&opts.request).and_then(|requests| {
        let rows = run_batch(&requests, &opts)?;
        let (request, json) = (&requests[0], opts.json);
        Ok(match command {
            Command::Sim | Command::Compare => emit(request, &rows, json),
            Command::ShootdownSweep => print_shootdown_rows(request, &rows, json),
            Command::ConsolidationSweep => {
                let deterministic = !opts.assert_determinism
                    || consolidation_is_deterministic(&requests, opts.jobs);
                print_consolidation_rows(request, &rows, json) && deterministic
            }
            Command::FaultSweep => {
                let rows: Vec<FaultRow> = rows.iter().map(FaultRow::from).collect();
                print_fault_rows(request, &rows, json)
                    && (!opts.assert_detection || fault_rows_hold_invariants(&rows))
            }
        })
    });
    match held {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The paper workload of a request that names one (every kind but
/// `consolidation`).
fn paper_workload(request: &ResolvedRequest) -> &PaperWorkload {
    request.workload.as_ref().expect("workload kinds carry a workload")
}

/// Prints `value` as pretty JSON; false (after saying why) if it cannot be
/// serialized.
fn print_json<T: serde::Serialize + ?Sized>(value: &T) -> bool {
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            println!("{s}");
            true
        }
        Err(e) => {
            eprintln!("cannot serialize rows: {e}");
            false
        }
    }
}

/// One row of the `shootdown-sweep` output: scheme × unmap rate, with the
/// per-level invalidation counts and the consistency cycles added.
#[derive(serde::Serialize)]
struct SweepRow {
    unmaps_per_10k: f64,
    scheme: String,
    p_avg: f64,
    shootdowns: ShootdownStats,
}

fn print_shootdown_rows(request: &ResolvedRequest, rows: &[Row], json: bool) -> bool {
    let rows: Vec<SweepRow> = rows
        .iter()
        .map(|row| SweepRow {
            unmaps_per_10k: row.request.events.unmaps,
            scheme: row.report.scheme.label().to_string(),
            p_avg: row.report.p_avg(),
            shootdowns: row.report.shootdowns,
        })
        .collect();
    if json {
        return print_json(&rows);
    }
    let w = paper_workload(request);
    println!("workload {} ({:?}), {} cores: unmap-rate sweep", w.name, w.suite, request.cores);
    println!(
        "{:>9} {:>12} {:>10} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>12}",
        "per-10k", "scheme", "p_avg", "unmaps", "sram", "sh-l2", "tsb", "pom", "lines", "penalty(cyc)"
    );
    for row in &rows {
        let s = &row.shootdowns;
        println!(
            "{:>9} {:>12} {:>10.1} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>12}",
            row.unmaps_per_10k,
            row.scheme,
            row.p_avg,
            s.unmaps,
            s.sram_invalidations,
            s.shared_l2_invalidations,
            s.tsb_invalidations,
            s.pom_invalidations,
            s.cached_line_invalidations,
            s.penalty.raw(),
        );
    }
    true
}

/// One row of the `consolidation-sweep` output: tenant count × scheme,
/// with the per-tenant QoS digest (worst/median tail latency, Eq. (1)
/// set-index dispersion) and the lifecycle churn counters.
#[derive(serde::Serialize)]
struct ConsolidationRow {
    vms: u32,
    scheme: String,
    p_avg: f64,
    dispersion: f64,
    measured_tenants: u32,
    median_p99: u64,
    worst_p99: u64,
    destroys: u64,
    reboots: u64,
    fork_remaps: u64,
}

impl From<&Row<'_>> for ConsolidationRow {
    fn from(row: &Row) -> Self {
        let (r, t) = (&row.report, &row.report.tenancy);
        ConsolidationRow {
            vms: row.request.tenants.map_or(0, |t| t.vms),
            scheme: r.scheme.label().to_string(),
            p_avg: r.p_avg(),
            dispersion: t.dispersion,
            measured_tenants: t.measured_tenants,
            median_p99: t.median_p99,
            worst_p99: t.worst_p99,
            destroys: t.churn.destroys,
            reboots: t.churn.reboots,
            fork_remaps: t.churn.fork_remaps,
        }
    }
}

/// `--assert-determinism`: the same batch must fingerprint byte-identically
/// when run serially and on a worker pool over a shared recorded trace.
/// Returns false (after naming the divergent job) if the pooled replay
/// disagrees with the serial reference.
fn consolidation_is_deterministic(requests: &[ResolvedRequest], jobs: usize) -> bool {
    let serial = run_jobs(batch(requests).0, 1);
    let mut replay_jobs = batch(requests).0;
    share_traces(&mut replay_jobs);
    let pooled = run_jobs(replay_jobs, jobs.max(2));
    let mut ok = true;
    for (a, b) in serial.iter().zip(&pooled) {
        if serde_json::to_string(&a.report).unwrap_or_default()
            != serde_json::to_string(&b.report).unwrap_or_default()
        {
            eprintln!("consolidation-sweep: {}: serial vs pooled-replay reports diverged", a.label);
            ok = false;
        }
    }
    ok
}

/// `pomtlb consolidation-sweep` output: all four schemes across a
/// tenant-count ladder (or one `--vms` rung) under lifecycle churn, with
/// per-tenant p50/p99 tail latency and Eq. (1) set-index dispersion.
fn print_consolidation_rows(request: &ResolvedRequest, rows: &[Row], json: bool) -> bool {
    let rows: Vec<ConsolidationRow> = rows.iter().map(ConsolidationRow::from).collect();
    if json {
        return print_json(&rows);
    }
    let churn = request.tenants.and_then(|t| t.churn);
    let (destroys, forks) = churn.unwrap_or((0.0, 0.0));
    println!(
        "consolidation sweep, {} cores, churn {}: destroys {destroys:.2}/10k forks {forks:.2}/10k",
        request.cores,
        if churn.is_some() { "on" } else { "off" },
    );
    println!(
        "{:>7} {:>12} {:>10} {:>11} {:>8} {:>10} {:>10} {:>9} {:>8} {:>11}",
        "vms",
        "scheme",
        "p_avg",
        "dispersion",
        "tenants",
        "med_p99",
        "worst_p99",
        "destroys",
        "reboots",
        "fork_remaps"
    );
    for row in &rows {
        println!(
            "{:>7} {:>12} {:>10.1} {:>11.4} {:>8} {:>10} {:>10} {:>9} {:>8} {:>11}",
            row.vms,
            row.scheme,
            row.p_avg,
            row.dispersion,
            row.measured_tenants,
            row.median_p99,
            row.worst_p99,
            row.destroys,
            row.reboots,
            row.fork_remaps,
        );
    }
    true
}

/// One row of the `fault-sweep` output: scheme × detection mode, with the
/// fault-injection outcome counters.
#[derive(serde::Serialize)]
struct FaultRow {
    scheme: String,
    consistency: bool,
    p_avg: f64,
    faults: FaultStats,
}

impl From<&Row<'_>> for FaultRow {
    fn from(row: &Row) -> Self {
        FaultRow {
            scheme: row.report.scheme.label().to_string(),
            consistency: row.meta.consistency == Some(true),
            p_avg: row.report.p_avg(),
            faults: row.report.faults,
        }
    }
}

/// The invariants `--assert-detection` turns into the exit code: with
/// consistency on no injected fault may escape as a wrong translation
/// (POM-TLB must also actually detect some), and with it off the POM-TLB
/// run must show the escapes the machinery would have caught.
fn fault_rows_hold_invariants(rows: &[FaultRow]) -> bool {
    let mut ok = true;
    for row in rows.iter().filter(|r| r.consistency) {
        if row.faults.escapes > 0 {
            eprintln!(
                "fault-sweep: {} let {} stale serve(s) escape with consistency ON",
                row.scheme, row.faults.escapes
            );
            ok = false;
        }
    }
    let pom_on = rows.iter().find(|r| r.consistency && r.scheme == Scheme::pom_tlb().label());
    if pom_on.is_none_or(|r| r.faults.detected_total == 0) {
        eprintln!("fault-sweep: POM-TLB with consistency ON detected no injected faults");
        ok = false;
    }
    let pom_off = rows.iter().find(|r| !r.consistency && r.scheme == Scheme::pom_tlb().label());
    if pom_off.is_none_or(|r| r.faults.escapes == 0) {
        eprintln!("fault-sweep: POM-TLB with consistency OFF shows no escapes to quantify");
        ok = false;
    }
    ok
}

/// `pomtlb fault-sweep` output: every scheme with and without the
/// consistency machinery, under one seeded fault plan, with detection
/// coverage, latency and wrong-translation escapes.
fn print_fault_rows(request: &ResolvedRequest, rows: &[FaultRow], json: bool) -> bool {
    if json {
        return print_json(rows);
    }
    let w = paper_workload(request);
    println!(
        "workload {} ({:?}), {} cores: fault sweep (fault seed {:#x})",
        w.name, w.suite, request.cores, request.fault_seed
    );
    println!(
        "{:>12} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "scheme",
        "detect",
        "injected",
        "detected",
        "escapes",
        "faults",
        "dormant",
        "lat(refs)",
        "repair(cyc)",
        "p_avg"
    );
    for row in rows {
        let f = &row.faults;
        println!(
            "{:>12} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10.1} {:>12} {:>10.1}",
            row.scheme,
            if row.consistency { "on" } else { "off" },
            f.injected_total(),
            f.detected_total,
            f.escapes,
            f.escaped_faults,
            f.dormant,
            f.mean_detection_latency_refs(),
            f.repair_penalty.raw(),
            row.p_avg,
        );
    }
    true
}

/// Parses `stats|verify|gc --dir DIR [--max-mb N]` for `command` and opens
/// the store: the action and the handle, or the refusal to print.
fn open_store<'a, C: Codec>(
    command: &str,
    args: &'a [String],
) -> Result<(&'a str, Store<C>), String> {
    let mut action = None;
    let mut dir = None;
    let mut max_bytes = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "stats" | "verify" | "gc" if action.is_none() => action = Some(a.as_str()),
            "--dir" => dir = Some(it.next().ok_or("--dir needs a directory")?.clone()),
            "--max-mb" => {
                let mb = it.next().and_then(|v| num(v).ok()).ok_or("--max-mb needs a number")?;
                max_bytes = Some(mb.saturating_mul(1 << 20));
            }
            other => {
                return Err(format!(
                    "unknown {command} argument `{other}`\n\
                     usage: pomtlb {command} stats|verify|gc --dir DIR [--max-mb N]"
                ));
            }
        }
    }
    let action = action.ok_or_else(|| format!("{command} needs an action: stats | verify | gc"))?;
    let dir = dir.ok_or_else(|| format!("{command} needs --dir DIR"))?;
    let store = Store::<C>::open(&dir)
        .map_err(|e| format!("cannot open {} {dir}: {e}", command.replace('-', " ")))?;
    Ok((action, match max_bytes { Some(b) => store.with_max_bytes(b), None => store }))
}

/// `pomtlb trace-store|report-store stats|verify|gc --dir DIR [--max-mb N]`
/// — inspect, integrity-check, or trim one content-addressed store (POMTRC2
/// recordings or POMREP1 memoized serve bodies). `noun` names its bodies;
/// `stats` prints its listing, the one part the two commands do not share.
/// `verify` exits 1 if any body is defective.
fn run_store<C: Codec>(
    command: &str,
    args: &[String],
    noun: &str,
    stats: fn(&Store<C>, &[C::Row]),
) -> ExitCode {
    let (action, store) = match open_store::<C>(command, args) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match action {
        "stats" => stats(&store, &store.entries()),
        "verify" => {
            let entries = store.verify();
            let mut bad = 0usize;
            for e in &entries {
                match &e.error {
                    None => println!("OK    {} ({} bytes)", e.digest, e.bytes),
                    Some(err) => {
                        bad += 1;
                        println!("FAIL  {} ({} bytes): {err}", e.digest, e.bytes);
                    }
                }
            }
            println!("{} {noun}, {} defective", entries.len(), bad);
            if bad > 0 {
                return ExitCode::FAILURE;
            }
        }
        _gc => {
            let report = store.gc();
            for (digest, bytes) in &report.evicted {
                println!("evicted {digest} ({bytes} bytes)");
            }
            println!(
                "{} {noun} evicted, {} bytes live (cap {} bytes)",
                report.evicted.len(),
                report.live_bytes,
                store.max_bytes(),
            );
        }
    }
    ExitCode::SUCCESS
}

/// `trace-store stats`: the store's size, then one row per recording.
fn trace_stats(store: &TraceStore, entries: &[StoreEntry]) {
    println!(
        "trace store {}: {} recording(s), {} bytes (cap {} bytes)",
        store.root().display(),
        entries.len(),
        store.total_bytes(),
        store.max_bytes(),
    );
    if !entries.is_empty() {
        println!(
            "{:<16} {:<14} {:>10} {:>5} {:>10} {:>10} {:>11}",
            "digest", "workload", "seed", "cores", "refs", "bytes", "last_used"
        );
        for e in entries {
            println!(
                "{:<16} {:<14} {:>10} {:>5} {:>10} {:>10} {:>11}",
                &e.digest[..e.digest.len().min(16)],
                e.workload,
                e.seed,
                e.n_cores,
                e.refs,
                e.bytes,
                e.last_used,
            );
        }
    }
}

/// `report-store stats`: the store's size, the last daemon's tier
/// counters, then one row per memoized body.
fn report_stats(store: &ReportStore, entries: &[ReportEntry]) {
    println!(
        "report store {}: {} memoized body(ies), {} bytes (cap {} bytes)",
        store.root().display(),
        entries.len(),
        store.total_bytes(),
        store.max_bytes(),
    );
    // The daemon persists its in-memory tier counters next to the
    // store (see pomtlb_serve::TierSnapshot), so operators get tier
    // hit ratios here without parsing perf JSON.
    if let Some(t) = pomtlb_serve::TierSnapshot::load(store.root()) {
        let answered = t.computed + t.memoized + t.hot + t.coalesced;
        let ratio = |n: u64| {
            if answered == 0 { 0.0 } else { n as f64 * 100.0 / answered as f64 }
        };
        println!(
            "serve tiers (last daemon): {} answered — {} computed ({:.1}%), \
             {} memoized ({:.1}%), {} hot ({:.1}%), {} coalesced ({:.1}%)",
            answered,
            t.computed,
            ratio(t.computed),
            t.memoized,
            ratio(t.memoized),
            t.hot,
            ratio(t.hot),
            t.coalesced,
            ratio(t.coalesced),
        );
        println!(
            "  hot cache: {}/{} bytes, {} hits / {} misses, {} eviction(s); \
             single-flight: {} led, {} coalesced; admission: {} admitted, \
             {} rejected, {} busy line(s)",
            t.hot_bytes,
            t.hot_max_bytes,
            t.hot_hits,
            t.hot_misses,
            t.hot_evictions,
            t.flights_led,
            t.flights_coalesced,
            t.admitted,
            t.rejected,
            t.busy,
        );
    }
    if !entries.is_empty() {
        println!(
            "{:<16} {:<12} {:<14} {:>10} {:>11}",
            "digest", "kind", "workload", "bytes", "last_used"
        );
        for e in entries {
            println!(
                "{:<16} {:<12} {:<14} {:>10} {:>11}",
                &e.digest[..e.digest.len().min(16)],
                e.kind,
                e.workload,
                e.bytes,
                e.last_used,
            );
        }
    }
}

/// Parsed `serve` command line: the service configuration plus the chosen
/// transport (`None` = stdin).
struct ServeArgs {
    socket: Option<String>,
    tcp: Option<String>,
    cfg: ServeConfig,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs { socket: None, tcp: None, cfg: ServeConfig::default() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--stdin" => {
                out.socket = None;
                out.tcp = None;
            }
            "--socket" => out.socket = Some(value("--socket")?),
            "--tcp" => out.tcp = Some(value("--tcp")?),
            "--trace-cache-dir" => {
                out.cfg.trace_dir = Some(value("--trace-cache-dir")?.into());
            }
            "--report-dir" => out.cfg.report_dir = Some(value("--report-dir")?.into()),
            "--report-max-mb" => {
                out.cfg.report_max_bytes =
                    num(&value("--report-max-mb")?)?.saturating_mul(1 << 20);
            }
            "--jobs" | "-j" => {
                let v = value("--jobs")?;
                out.cfg.jobs = if v == "auto" { 0 } else { num(&v)? as usize };
            }
            "--max-connections" => {
                out.cfg.max_connections = num(&value("--max-connections")?)? as usize;
            }
            "--max-inflight" => {
                let v = value("--max-inflight")?;
                out.cfg.max_inflight = if v == "auto" { 0 } else { num(&v)? as usize };
            }
            "--max-queue" => out.cfg.max_queue = num(&value("--max-queue")?)? as usize,
            "--hot-cache-mb" => {
                out.cfg.hot_max_bytes = num(&value("--hot-cache-mb")?)?.saturating_mul(1 << 20);
            }
            "--idle-timeout-secs" => {
                let secs = num(&value("--idle-timeout-secs")?)?;
                out.cfg.idle_timeout =
                    (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--drain-timeout-secs" => {
                out.cfg.drain_timeout =
                    std::time::Duration::from_secs(num(&value("--drain-timeout-secs")?)?);
            }
            "--max-line-bytes" => {
                out.cfg.max_line_bytes = num(&value("--max-line-bytes")?)? as usize;
            }
            "--compute-deadline-ms" => {
                let ms = num(&value("--compute-deadline-ms")?)?;
                out.cfg.policy.deadline =
                    (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    if out.socket.is_some() && out.tcp.is_some() {
        return Err("--socket and --tcp are mutually exclusive; pick one transport".into());
    }
    Ok(out)
}

/// `pomtlb serve` — the long-lived sweep service: JSON-lines requests on
/// stdin (default) or a Unix socket, one warm trace store and memoized
/// report cache across all of them. Runs until EOF or a `shutdown`
/// request.
fn run_serve(args: &[String]) -> ExitCode {
    let parsed = match parse_serve(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    let mut service = match Service::new(parsed.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let served = match (&parsed.socket, &parsed.tcp) {
        (Some(path), _) => serve_on_socket(&service, path),
        (None, Some(addr)) => serve_on_tcp(&service, addr),
        (None, None) => pomtlb_serve::serve_stdin(&mut service),
    };
    if let Err(e) = served {
        eprintln!("serve failed: {e}");
        return ExitCode::FAILURE;
    }
    let c = service.counters();
    eprintln!(
        "pomtlb-serve: done ({} computed, {} memoized, {} hot, {} coalesced, \
         {} busy, {} error(s))",
        c.computed, c.memoized, c.hot, c.coalesced, c.busy, c.errors
    );
    ExitCode::SUCCESS
}

#[cfg(unix)]
fn serve_on_socket(service: &Service, path: &str) -> std::io::Result<()> {
    pomtlb_serve::serve_unix(service, std::path::Path::new(path))
}

#[cfg(not(unix))]
fn serve_on_socket(_service: &Service, _path: &str) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket needs Unix domain sockets; use --tcp or --stdin on this platform",
    ))
}

fn serve_on_tcp(service: &Service, addr: &str) -> std::io::Result<()> {
    let listener = pomtlb_serve::bind_tcp_listener(addr)?;
    pomtlb_serve::serve_tcp(service, listener)
}

/// Parsed `client` command line.
struct ClientArgs {
    cfg: pomtlb_serve::ClientConfig,
}

fn parse_client(args: &[String]) -> Result<ClientArgs, String> {
    let mut addr: Option<String> = None;
    let mut cfg = pomtlb_serve::ClientConfig::new(String::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let millis = |v: String| num(&v).map(std::time::Duration::from_millis);
        match a.as_str() {
            "--tcp" => addr = Some(value("--tcp")?),
            "--deadline-ms" => {
                let deadline = millis(value("--deadline-ms")?)?;
                cfg.deadline = (!deadline.is_zero()).then_some(deadline);
            }
            "--max-retries" => cfg.max_retries = num_u32(&value("--max-retries")?)?,
            "--backoff-base-ms" => cfg.backoff_base = millis(value("--backoff-base-ms")?)?,
            "--backoff-cap-ms" => cfg.backoff_cap = millis(value("--backoff-cap-ms")?)?,
            "--seed" => cfg.seed = num(&value("--seed")?)?,
            other => return Err(format!("unknown client flag `{other}`")),
        }
    }
    cfg.addr = addr.ok_or_else(|| "client needs --tcp HOST:PORT".to_string())?;
    Ok(ClientArgs { cfg })
}

/// `pomtlb client` — send JSON request lines from stdin to a TCP daemon
/// through the resilient client: reconnect on torn connections, capped
/// jittered backoff on `busy`/`deadline_exceeded`, byte-identity
/// assertion on retried requests. One response line per request on
/// stdout; exit 1 if any request exhausted its budget.
fn run_client(args: &[String]) -> ExitCode {
    let parsed = match parse_client(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    let mut client = pomtlb_serve::Client::new(parsed.cfg);
    let mut failures = 0u64;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin read failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        match client.request(&line) {
            Ok(response) => println!("{response}"),
            Err(e) => {
                failures += 1;
                eprintln!("request failed: {e}");
            }
        }
    }
    let c = client.counters();
    eprintln!(
        "pomtlb-client: {} request(s), {} attempt(s), {} connect(s), \
         {} io / {} busy / {} deadline retries, {} identity check(s), {} failure(s)",
        c.requests,
        c.attempts,
        c.connects,
        c.io_retries,
        c.busy_retries,
        c.deadline_retries,
        c.identity_checks,
        failures,
    );
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `pomtlb chaos-proxy` — run the deterministic fault-injection proxy in
/// front of a TCP daemon. Prints its listen address to stdout, then runs
/// until stdin reaches EOF (close its stdin to stop it), then prints the
/// injected-fault counters to stderr.
fn run_chaos_proxy(args: &[String]) -> ExitCode {
    let mut upstream: Option<String> = None;
    let mut cfg = pomtlb_serve::ChaosConfig::stormy(0x000c_0a05);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = (|| -> Result<(), String> {
            match a.as_str() {
                "--upstream" => upstream = Some(value("--upstream")?),
                "--seed" => cfg.seed = num(&value("--seed")?)?,
                "--reset-per-10k" => cfg.reset_per_10k = num_u32(&value("--reset-per-10k")?)?,
                "--torn-per-10k" => cfg.torn_write_per_10k = num_u32(&value("--torn-per-10k")?)?,
                "--stall-per-10k" => cfg.stall_per_10k = num_u32(&value("--stall-per-10k")?)?,
                "--stall-ms" => cfg.stall_ms = num(&value("--stall-ms")?)?,
                "--delay-ms" => cfg.delay_ms = num(&value("--delay-ms")?)?,
                other => return Err(format!("unknown chaos-proxy flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    }
    let Some(upstream) = upstream else {
        eprintln!("chaos-proxy needs --upstream HOST:PORT\n");
        help();
        return ExitCode::FAILURE;
    };
    let upstream_addr = match std::net::ToSocketAddrs::to_socket_addrs(upstream.as_str())
        .ok()
        .and_then(|mut addrs| addrs.next())
    {
        Some(addr) => addr,
        None => {
            eprintln!("cannot resolve upstream `{upstream}`");
            return ExitCode::FAILURE;
        }
    };
    let mut proxy = match pomtlb_serve::ChaosProxy::start(upstream_addr, cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot start chaos proxy: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Stdout carries exactly the listen address, so scripts can capture
    // it; diagnostics go to stderr.
    println!("{}", proxy.addr());
    eprintln!(
        "chaos-proxy: {} -> {} (seed {}, reset {}/10k, torn {}/10k, stall {}/10k x {} ms, \
         delay {} ms); close stdin to stop",
        proxy.addr(),
        upstream_addr,
        cfg.seed,
        cfg.reset_per_10k,
        cfg.torn_write_per_10k,
        cfg.stall_per_10k,
        cfg.stall_ms,
        cfg.delay_ms,
    );
    let mut sink = String::new();
    while matches!(std::io::BufRead::read_line(&mut std::io::stdin().lock(), &mut sink), Ok(n) if n > 0)
    {
        sink.clear();
    }
    proxy.stop();
    let c = proxy.counters();
    eprintln!(
        "chaos-proxy: done ({} connection(s), {} chunk(s), {} reset(s), {} torn write(s), \
         {} stall(s))",
        c.connections, c.chunks, c.resets, c.torn_writes, c.stalls,
    );
    ExitCode::SUCCESS
}

/// `sim` and `compare` output: the reports in full (`--json`) or one line
/// per scheme.
fn emit(request: &ResolvedRequest, rows: &[Row], json: bool) -> bool {
    let w = paper_workload(request);
    let reports: Vec<&SimReport> = rows.iter().map(|row| &row.report).collect();
    if json {
        return print_json(&serde_json::json!({
            "workload": w.name,
            "suite": format!("{:?}", w.suite),
            "table2": w.table2,
            "reports": reports,
        }));
    }
    println!(
        "workload {} ({:?}), {} cores, {} refs/core",
        w.name,
        w.suite,
        reports[0].n_cores,
        request.sim.refs_per_core
    );
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "scheme", "p_avg(cyc)", "misses", "walks", "L2D$%", "L3D$%", "RBH%"
    );
    for r in reports {
        println!(
            "{:>12} {:>12.1} {:>10} {:>10} {:>9.1} {:>9.1} {:>9.1}",
            r.scheme.label(),
            r.p_avg(),
            r.l2_tlb_misses,
            r.page_walks,
            r.fig9_l2d_hit_rate() * 100.0,
            r.fig9_l3d_hit_rate() * 100.0,
            r.fig11_rbh() * 100.0,
        );
        let s = &r.shootdowns;
        if s.events > 0 {
            println!(
                "{:>12} consistency: {} OS events, {} invalidations, {}",
                "",
                s.events,
                s.total_invalidations(),
                s.penalty
            );
        }
    }
    true
}

fn list() {
    println!("{:<14} {:>8} {:>10} {:>12} {:>8}", "workload", "suite", "ovh virt%", "cyc/miss", "large%");
    for w in pomtlb_workloads::all() {
        println!(
            "{:<14} {:>8} {:>10.2} {:>12.0} {:>8.1}",
            w.name,
            format!("{:?}", w.suite),
            w.table2.overhead_virtual_pct,
            w.table2.cycles_per_miss_virtual,
            w.table2.frac_large_pages_pct
        );
    }
}

fn help() {
    eprintln!(
        "pomtlb — POM-TLB simulator driver

USAGE:
  pomtlb list
  pomtlb sim             --workload NAME [flags]   one scheme, full report
  pomtlb compare         --workload NAME [flags]   all four schemes side by side
  pomtlb shootdown-sweep --workload NAME [flags]   0/1/10 unmaps per 10k refs
                                                   x all four schemes (sets
                                                   the event rates itself)
  pomtlb consolidation-sweep [flags]               multi-tenant consolidation:
                                                   all four schemes across a
                                                   100/1000/10000-VM ladder
                                                   (or one --vms rung) under
                                                   lifecycle churn, reporting
                                                   per-tenant p50/p99 tail
                                                   latency and Eq. (1)
                                                   set-index dispersion (no
                                                   --workload, no
                                                   --*-per-10k flags)
  pomtlb fault-sweep    [--workload NAME] [flags]  seeded fault injection x
                                                   all four schemes, with the
                                                   consistency machinery on
                                                   and off (default: gups)
  pomtlb trace-store stats|verify|gc --dir DIR [--max-mb N]
                                                   inspect / integrity-check /
                                                   trim a recording store
  pomtlb report-store stats|verify|gc --dir DIR [--max-mb N]
                                                   same, for a store of
                                                   memoized serve responses
  pomtlb serve [--socket PATH | --tcp HOST:PORT] [--trace-cache-dir DIR]
               [--report-dir DIR] [--report-max-mb N] [--jobs N]
               [--max-connections N] [--max-inflight N|auto] [--max-queue N]
               [--hot-cache-mb N] [--idle-timeout-secs N]
               [--drain-timeout-secs N] [--max-line-bytes N]
               [--compute-deadline-ms N]
                                                   long-lived sweep service:
                                                   JSON-lines requests on
                                                   stdin (default), a Unix
                                                   socket, or TCP. Both socket
                                                   transports serve up to
                                                   --max-connections
                                                   conversations concurrently
                                                   against one shared warm
                                                   core; identical repeat
                                                   requests are answered
                                                   byte-identically from the
                                                   in-memory hot cache
                                                   (\"hot\", --hot-cache-mb,
                                                   0 disables), the memoized
                                                   report store at
                                                   --report-dir (\"memoized\"),
                                                   or an identical request
                                                   already in flight
                                                   (\"coalesced\"). At most
                                                   --max-inflight requests
                                                   compute at once; past a
                                                   --max-queue backlog the
                                                   daemon answers a typed
                                                   busy line. A request whose
                                                   compute blows
                                                   --compute-deadline-ms gets
                                                   a typed deadline_exceeded
                                                   line; a connection idle
                                                   past --idle-timeout-secs
                                                   (measured from its last
                                                   completed request) gets a
                                                   typed idle_timeout line; a
                                                   request line over
                                                   --max-line-bytes gets a
                                                   typed error. `shutdown`
                                                   drains in-flight
                                                   connections for up to
                                                   --drain-timeout-secs, then
                                                   persists tier counters
                                                   exactly once
  pomtlb client --tcp HOST:PORT [--deadline-ms N] [--max-retries N]
                [--backoff-base-ms N] [--backoff-cap-ms N] [--seed N]
                                                   resilient TCP client:
                                                   JSON request lines on
                                                   stdin, one response line
                                                   each on stdout. Reconnects
                                                   on torn connections,
                                                   retries busy /
                                                   deadline_exceeded with
                                                   capped seeded-jitter
                                                   backoff inside one
                                                   --deadline-ms budget, and
                                                   asserts retried requests
                                                   answer byte-identically
  pomtlb chaos-proxy --upstream HOST:PORT [--seed N] [--reset-per-10k N]
                     [--torn-per-10k N] [--stall-per-10k N] [--stall-ms N]
                     [--delay-ms N]
                                                   deterministic TCP fault
                                                   injector: prints its
                                                   loopback listen address on
                                                   stdout, forwards bytes to
                                                   --upstream while injecting
                                                   seeded resets, torn
                                                   writes, stalls and
                                                   latency; close stdin to
                                                   stop

FLAGS:
  --scheme S        baseline | pom-tlb | pom-uncached | shared-l2 | tsb
  --cores N         simulated cores (default {DEFAULT_CORES})
  --refs N          post-warmup references per core (default {DEFAULT_REFS})
  --warmup N        warmup references per core (default {DEFAULT_WARMUP})
  --seed N          RNG seed (default {DEFAULT_SEED:#x})
  --capacity-mb N   POM-TLB capacity (default {DEFAULT_CAPACITY_MB})
  --native          bare-metal 1-D walks instead of virtualized 2-D
  --no-prepopulate  cold-start in-DRAM structures
  --unmaps-per-10k X      page-unmap events per 10k refs per core
  --remaps-per-10k X      page-remap (migration) events
  --promotes-per-10k X    THP promotion events (512-page windows)
  --migrations-per-10k X  process-migration events
  --vm-destroys-per-10k X VM-teardown events
  --check-consistency     enable the stale-translation watchdog (panics
                          if any level serves a dead mapping)
  --vms N           consolidation-sweep tenant count (0 = the full
                    100/1000/10000 ladder; max 65536)
  --churn-destroys-per-10k X  VM teardowns per 10k refs per core
                    (0 = default 0.5; out-of-range values are errors,
                    never clamped)
  --churn-forks-per-10k X     fork COW storms per 10k refs per core
                    (0 = default 1.0; same validation)
  --no-churn        consolidation-sweep control arm: static tenant
                    population, no teardowns or fork storms
  --assert-determinism    consolidation-sweep exits nonzero unless the
                          batch fingerprints byte-identically when run
                          serially and pooled over a shared recorded
                          trace (for CI)
  --fault-seed N    RNG seed for fault-sweep's injection plan
                    (default {DEFAULT_FAULT_SEED:#x})
  --assert-detection      fault-sweep exits nonzero unless consistency-on
                          rows show zero escapes and POM-TLB detects
                          injected faults (for CI)
  --jobs N          worker threads for batched commands (compare and
                    the three sweeps); `auto` = all cores. Output is
                    byte-identical to --jobs 1 (default)
  --trace-cache     simulation commands record each input stream once
                    and replay it to every scheme instead of regenerating
                    it per run. Output is byte-identical either way
  --trace-cache-dir DIR   persist those recordings to a POMTRC2 store at
                    DIR (implies --trace-cache); later invocations replay
                    them from disk. Damaged files fall back to live
                    generation — output never changes
  --json            machine-readable output"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_serve::RequestKind;

    fn args(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    /// The resolve step of a command line, taken as `fault-sweep` (the one
    /// workload command that needs no flags).
    fn resolve(flags: &[&str]) -> Result<ResolvedRequest, String> {
        Ok(Command::FaultSweep.resolve(&parse(&args(flags))?.request)?.remove(0))
    }

    /// `command` on `flags`: resolved and run through the CLI's batch path.
    fn run_rows(command: Command, flags: &[&str]) -> Vec<(RowMeta, SimReport)> {
        let o = parse(&args(flags)).expect("flags parse");
        let requests = command.resolve(&o.request).expect("flags resolve");
        let rows = run_batch(&requests, &o).expect("batch runs");
        rows.into_iter().map(|row| (row.meta, row.report)).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.request.cores, 8);
        assert!(!o.request.no_prepopulate);
        assert!(!o.json);
    }

    #[test]
    fn parse_full_flag_set() {
        let o = parse(&args(&[
            "--workload", "mcf", "--scheme", "tsb", "--cores", "4", "--refs", "100",
            "--warmup", "50", "--seed", "9", "--capacity-mb", "8", "--native",
            "--no-prepopulate", "--json",
        ]))
        .unwrap();
        assert_eq!(o.request.workload, "mcf");
        assert_eq!(parse_scheme(&o.request.scheme), Ok(Scheme::Tsb));
        assert_eq!(o.request.cores, 4);
        assert_eq!(o.request.refs, 100);
        assert_eq!(o.request.capacity_mb, 8);
        assert!(o.request.native && o.request.no_prepopulate && o.json);
    }

    #[test]
    fn parse_event_flags() {
        let o = parse(&args(&[
            "--unmaps-per-10k", "10", "--migrations-per-10k", "0.5", "--check-consistency",
        ]))
        .unwrap();
        assert_eq!(o.request.unmaps_per_10k, 10.0);
        assert_eq!(o.request.migrations_per_10k, 0.5);
        assert!(o.request.check_consistency);
        // Negative rates are rejected by validation.
        assert!(resolve(&["--unmaps-per-10k", "-1"]).is_err());
    }

    #[test]
    fn parse_jobs() {
        assert_eq!(parse(&[]).unwrap().jobs, 1);
        assert_eq!(parse(&["--jobs".into(), "4".into()]).unwrap().jobs, 4);
        assert_eq!(parse(&["-j".into(), "2".into()]).unwrap().jobs, 2);
        assert!(parse(&["--jobs".into(), "auto".into()]).unwrap().jobs >= 1);
        assert!(parse(&["--jobs".into(), "x".into()]).is_err());
    }

    #[test]
    fn parse_trace_cache() {
        assert!(!parse(&[]).unwrap().trace_cache);
        assert!(parse(&["--trace-cache".into()]).unwrap().trace_cache);
    }

    #[test]
    fn parse_trace_cache_dir_implies_trace_cache() {
        let o = parse(&["--trace-cache-dir".into(), "/tmp/store".into()]).unwrap();
        assert!(o.trace_cache);
        assert_eq!(o.trace_cache_dir.as_deref(), Some("/tmp/store"));
        assert!(parse(&["--trace-cache-dir".into()]).is_err());
    }

    #[test]
    fn parse_consolidation_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.request.vms, 0, "zero means the full ladder");
        assert_eq!(o.request.churn_destroys_per_10k, 0.0);
        assert_eq!(o.request.churn_forks_per_10k, 0.0);
        assert!(!o.request.no_churn && !o.assert_determinism);

        let o = parse(&args(&[
            "--vms", "250", "--churn-destroys-per-10k", "2.5", "--churn-forks-per-10k",
            "0.25", "--no-churn", "--assert-determinism",
        ]))
        .unwrap();
        assert_eq!(o.request.vms, 250);
        assert_eq!(o.request.churn_destroys_per_10k, 2.5);
        assert_eq!(o.request.churn_forks_per_10k, 0.25);
        assert!(o.request.no_churn && o.assert_determinism);
        assert!(parse(&["--vms".into()]).is_err());
        // 2^32 + 50 is refused, not wrapped to a 50-VM run.
        assert_eq!(parse(&["--vms".into(), "4294967295".into()]).unwrap().request.vms, u32::MAX);
        assert!(parse(&["--vms".into(), "4294967346".into()]).is_err());
    }

    #[test]
    fn consolidation_resolution_is_validation_not_clamping() {
        // The CLI shares serve's resolver: zero falls back to defaults,
        // out-of-domain values error instead of being silently clamped.
        let sweep =
            |flags: &[&str]| Command::ConsolidationSweep.resolve(&parse(&args(flags))?.request);
        assert!(sweep(&[]).is_ok());
        assert!(sweep(&["--vms", "70000"]).is_err());
        assert!(sweep(&["--vms", "100", "--churn-destroys-per-10k", "-0.5"]).is_err());
    }

    #[test]
    fn consolidation_jobs_cover_the_ladder_by_scheme() {
        let o = parse(&args(&["--cores", "2", "--refs", "500", "--warmup", "100"])).unwrap();
        let ladder = Command::ConsolidationSweep.resolve(&o.request).unwrap();
        let (jobs, rows) = batch(&ladder[..2]);
        assert_eq!(jobs.len(), 8, "two rungs x four schemes");
        let vms_of: Vec<u32> = rows.iter().map(|(r, _)| r.tenants.map_or(0, |t| t.vms)).collect();
        assert_eq!(vms_of, [100, 100, 100, 100, 1_000, 1_000, 1_000, 1_000]);
    }

    #[test]
    fn consolidation_smoke_is_deterministic() {
        let flags = [
            "--vms", "30", "--churn-destroys-per-10k", "10", "--churn-forks-per-10k", "5",
            "--cores", "2", "--refs", "700", "--warmup", "200", "--jobs", "2",
        ];
        let o = parse(&args(&flags)).unwrap();
        let requests = Command::ConsolidationSweep.resolve(&o.request).unwrap();
        assert!(consolidation_is_deterministic(&requests, o.jobs));
    }

    #[test]
    fn parse_rejects_a_non_power_of_two_capacity() {
        let err = resolve(&["--capacity-mb", "5"]).expect_err("5 MB is no POM-TLB geometry");
        assert_eq!(err, pomtlb_serve::EnvelopeError::CapacityMb(5).to_string());
        assert!(resolve(&["--capacity-mb", "2048"]).is_err());
        assert_eq!(resolve(&["--capacity-mb", "32"]).unwrap().capacity_mb, 32);
    }

    #[test]
    fn parse_rejects_cores_outside_the_envelope() {
        let err = resolve(&["--cores", "0"]).expect_err("a machine needs a core");
        assert_eq!(err, pomtlb_serve::EnvelopeError::Cores(0).to_string());
        assert!(resolve(&["--cores", "65"]).is_err());
        assert_eq!(resolve(&["--cores", "64"]).unwrap().cores, 64);
    }

    #[test]
    fn parse_rejects_an_overflowing_reference_budget() {
        let err = resolve(&["--refs", "18446744073709551615"])
            .expect_err("warmup + refs overflows");
        let budget =
            pomtlb_serve::EnvelopeError::Budget { warmup: 15_000, refs: u64::MAX, cores: 8 };
        assert_eq!(err, budget.to_string());
        assert!(resolve(&["--cores", "64", "--refs", "1152921504606846976"]).is_err());
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse(&["--bogus".into()]).is_err());
        assert!(parse(&["--cores".into()]).is_err());
        assert!(parse(&["--cores".into(), "x".into()]).is_err());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(parse_scheme("baseline").unwrap(), Scheme::Baseline);
        assert_eq!(parse_scheme("pom").unwrap(), Scheme::pom_tlb());
        assert_eq!(parse_scheme("shared-l2").unwrap(), Scheme::SharedL2);
        assert!(parse_scheme("nope").is_err());
    }


    #[test]
    fn simulate_smoke() {
        let rows = run_rows(
            Command::Sim,
            &["--workload", "streamcluster", "--cores", "2", "--refs", "1000", "--warmup", "300"],
        );
        let r = &rows[0].1;
        assert!(r.refs > 0);
        assert!(r.walks_eliminated() > 0.9);
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let p = parse_serve(&[]).unwrap();
        assert!(p.socket.is_none(), "stdin is the default transport");
        assert!(p.cfg.trace_dir.is_none() && p.cfg.report_dir.is_none());
        assert_eq!(p.cfg.jobs, 0, "auto worker count");

        let p = parse_serve(&args(&[
            "--socket", "/tmp/pomtlb.sock", "--trace-cache-dir", "/tmp/traces",
            "--report-dir", "/tmp/reports", "--report-max-mb", "4", "--jobs", "2",
            "--max-connections", "9", "--max-inflight", "3", "--max-queue", "7",
            "--hot-cache-mb", "8",
        ]))
        .unwrap();
        assert_eq!(p.socket.as_deref(), Some("/tmp/pomtlb.sock"));
        assert_eq!(p.cfg.trace_dir.as_deref(), Some(std::path::Path::new("/tmp/traces")));
        assert_eq!(p.cfg.report_dir.as_deref(), Some(std::path::Path::new("/tmp/reports")));
        assert_eq!(p.cfg.report_max_bytes, 4 << 20);
        assert_eq!(p.cfg.jobs, 2);
        assert_eq!(p.cfg.max_connections, 9);
        assert_eq!(p.cfg.max_inflight, 3);
        assert_eq!(p.cfg.max_queue, 7);
        assert_eq!(p.cfg.hot_max_bytes, 8 << 20);

        assert!(parse_serve(&["--bogus".into()]).is_err());
        assert!(parse_serve(&["--socket".into()]).is_err());
        assert_eq!(parse_serve(&["--jobs".into(), "auto".into()]).unwrap().cfg.jobs, 0);
        let auto = parse_serve(&["--max-inflight".into(), "auto".into()]).unwrap();
        assert_eq!(auto.cfg.max_inflight, 0, "auto admission width");
    }

    #[test]
    fn parse_serve_transport_hardening_flags() {
        let p = parse_serve(&[]).unwrap();
        assert!(p.tcp.is_none() && p.cfg.idle_timeout.is_none());
        assert!(p.cfg.policy.deadline.is_none());
        assert_eq!(p.cfg.max_line_bytes, pomtlb_serve::DEFAULT_MAX_LINE_BYTES);
        assert_eq!(
            p.cfg.drain_timeout,
            std::time::Duration::from_secs(pomtlb_serve::DEFAULT_DRAIN_TIMEOUT_SECS)
        );

        let p = parse_serve(&args(&[
            "--tcp", "127.0.0.1:7070", "--idle-timeout-secs", "30",
            "--drain-timeout-secs", "5", "--max-line-bytes", "4096",
            "--compute-deadline-ms", "1500",
        ]))
        .unwrap();
        assert_eq!(p.tcp.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(p.cfg.idle_timeout, Some(std::time::Duration::from_secs(30)));
        assert_eq!(p.cfg.drain_timeout, std::time::Duration::from_secs(5));
        assert_eq!(p.cfg.max_line_bytes, 4096);
        assert_eq!(p.cfg.policy.deadline, Some(std::time::Duration::from_millis(1500)));

        // Zero means "off" for the optional timeouts, matching "never".
        let off = parse_serve(&[
            "--idle-timeout-secs".into(), "0".into(),
            "--compute-deadline-ms".into(), "0".into(),
        ])
        .unwrap();
        assert!(off.cfg.idle_timeout.is_none() && off.cfg.policy.deadline.is_none());

        // One daemon, one transport.
        assert!(parse_serve(&[
            "--socket".into(), "/tmp/x.sock".into(),
            "--tcp".into(), "127.0.0.1:7070".into(),
        ])
        .is_err());
    }

    #[test]
    fn parse_client_requires_addr_and_maps_flags() {
        assert!(parse_client(&[]).is_err(), "--tcp is mandatory");
        let p = parse_client(&["--tcp".into(), "127.0.0.1:7070".into()]).unwrap();
        assert_eq!(p.cfg.addr, "127.0.0.1:7070");
        assert!(p.cfg.deadline.is_none(), "no budget unless asked");
        assert_eq!(p.cfg.max_retries, 8);

        let p = parse_client(&args(&[
            "--tcp", "h:1", "--deadline-ms", "2500", "--max-retries", "3",
            "--backoff-base-ms", "10", "--backoff-cap-ms", "200", "--seed", "42",
        ]))
        .unwrap();
        assert_eq!(p.cfg.deadline, Some(std::time::Duration::from_millis(2500)));
        assert_eq!(p.cfg.max_retries, 3);
        assert_eq!(p.cfg.backoff_base, std::time::Duration::from_millis(10));
        assert_eq!(p.cfg.backoff_cap, std::time::Duration::from_millis(200));
        assert_eq!(p.cfg.seed, 42);
        assert!(parse_client(&["--tcp".into(), "h:1".into(), "--bogus".into()]).is_err());
        let retries = |v: &str| {
            parse_client(&["--tcp".into(), "h:1".into(), "--max-retries".into(), v.into()])
                .map(|c| c.cfg.max_retries)
        };
        assert_eq!(retries("4294967295"), Ok(u32::MAX));
        assert!(retries("4294967296").is_err(), "refused, not wrapped to 0");
    }

    #[test]
    fn parse_fault_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.request.fault_seed, 0x5eed);
        assert!(!o.assert_detection);
        let o = parse(&["--fault-seed".into(), "7".into(), "--assert-detection".into()]).unwrap();
        assert_eq!(o.request.fault_seed, 7);
        assert!(o.assert_detection);
        assert!(parse(&["--fault-seed".into(), "x".into()]).is_err());
    }

    #[test]
    fn fault_sweep_batch_covers_schemes_and_modes() {
        let o = parse(&args(&["--cores", "2", "--refs", "1000", "--warmup", "300"])).unwrap();
        let requests = Command::FaultSweep.resolve(&o.request).unwrap();
        assert_eq!(requests[0].workload_name(), "gups", "fault-sweep defaults to gups");
        let (jobs, rows) = batch(&requests);
        assert_eq!(jobs.len(), 8, "four schemes x consistency on/off");
        assert_eq!(rows.iter().filter(|(_, m)| m.consistency == Some(true)).count(), 4);
        for (job, (_, meta)) in jobs.iter().zip(&rows) {
            assert!(job.faults.is_some(), "every row is fault-armed");
            assert_eq!(job.check_consistency, meta.consistency);
            assert!(job.spec.os_events.remaps > 0.0, "eventful default mix applied");
        }
    }

    #[test]
    fn fault_sweep_rows_respect_detection_mode() {
        // 50k total accesses: at the default per-10k rates the POM-TLB rows
        // apply some fault with near-certainty under the pinned seed. The
        // other machines have no POM-TLB array, so only dropped IPIs can
        // reach them, and on gups those rarely find a stale entry to leave.
        let flags = ["--workload", "gups", "--cores", "2", "--refs", "20000", "--warmup", "5000"];
        let o = parse(&args(&flags)).unwrap();
        let requests = Command::FaultSweep.resolve(&o.request).unwrap();
        let rows: Vec<FaultRow> = run_batch(&requests, &Options { jobs: 2, ..o })
            .unwrap()
            .iter()
            .map(FaultRow::from)
            .collect();
        // Structural guarantees at any run length: the detector never
        // lets a serve escape while on, and never claims detections while
        // off. (Detection *counts* need longer runs — the CI fault-smoke
        // job asserts those via --assert-detection.)
        for row in &rows {
            let f = &row.faults;
            if row.scheme.starts_with("POM-TLB") {
                assert!(f.injected_total() > 0, "{}: faults were injected", row.scheme);
            } else {
                assert_eq!(f.injected_total(), f.injected_dropped_ipis, "{}: {f:?}", row.scheme);
            }
            if row.consistency {
                assert_eq!(row.faults.escapes, 0, "{}: no escapes with detection on", row.scheme);
            } else {
                assert_eq!(row.faults.detected_total, 0, "{}: nothing detected when off", row.scheme);
            }
        }
    }

    #[test]
    fn detection_invariants_judge_rows_correctly() {
        let row = |scheme: &str, consistency: bool, detected: u64, escapes: u64| {
            let faults =
                FaultStats { detected_total: detected, escapes, ..Default::default() };
            FaultRow { scheme: scheme.to_string(), consistency, p_avg: 0.0, faults }
        };
        let pom = Scheme::pom_tlb().label();
        let good = vec![row(pom, true, 5, 0), row(pom, false, 0, 3)];
        assert!(fault_rows_hold_invariants(&good));
        let escaped_while_on = vec![row(pom, true, 5, 1), row(pom, false, 0, 3)];
        assert!(!fault_rows_hold_invariants(&escaped_while_on));
        let detected_nothing = vec![row(pom, true, 0, 0), row(pom, false, 0, 3)];
        assert!(!fault_rows_hold_invariants(&detected_nothing));
        let no_escapes_off = vec![row(pom, true, 5, 0), row(pom, false, 0, 0)];
        assert!(!fault_rows_hold_invariants(&no_escapes_off));
    }

    #[test]
    fn consolidation_sweep_refuses_a_workload_and_event_flags() {
        let sweep = |flags: &[&str]| {
            Command::ConsolidationSweep.resolve(&parse(&args(flags)).unwrap().request).unwrap_err()
        };
        assert!(sweep(&["--workload", "gups"]).contains("`workload`"), "the daemon's refusal");
        for flag in ["--unmaps-per-10k", "--vm-destroys-per-10k"] {
            assert!(sweep(&["--vms", "100", flag, "50"]).contains("knobs do not apply"), "{flag}");
        }
        let exit = run_simulation(&args(&["--workload", "gups"]), Command::ConsolidationSweep);
        assert_eq!(exit, ExitCode::FAILURE);
    }

    #[test]
    fn shootdown_sweep_refuses_event_flags_it_would_drop() {
        let sweep =
            |flags: &[&str]| Command::ShootdownSweep.resolve(&parse(&args(flags)).unwrap().request);
        for flag in ["--unmaps", "--remaps", "--promotes", "--migrations", "--vm-destroys"] {
            let err = sweep(&["--workload", "gups", &format!("{flag}-per-10k"), "1"]).unwrap_err();
            assert!(err.contains("sets the unmap rate itself"), "{flag}: {err}");
        }
        // A bad value still gets its own refusal first.
        let err = sweep(&["--workload", "gups", "--remaps-per-10k", "-1"]).unwrap_err();
        assert!(err.contains("must be finite"), "{err}");
        let flags = args(&["--workload", "gups", "--remaps-per-10k", "100"]);
        assert_eq!(run_simulation(&flags, Command::ShootdownSweep), ExitCode::FAILURE);
        // Without them the sweep is one compare request per unmap rate.
        let requests = sweep(&["--workload", "gups"]).unwrap();
        assert!(requests.iter().all(|r| r.kind == RequestKind::Compare));
        let rates: Vec<f64> = requests.iter().map(|r| r.events.unmaps).collect();
        assert_eq!(rates, [0.0, 1.0, 10.0]);
    }

    #[test]
    fn cli_flags_are_literal_where_the_wire_means_default() {
        let given = resolve(&["--warmup", "0", "--seed", "0", "--fault-seed", "0"]).unwrap();
        assert_eq!((given.sim.warmup_per_core, given.sim.seed, given.fault_seed), (0, 0, 0));
        let wire = r#"{"kind":"fault-sweep","workload":"gups","warmup":0,"seed":0}"#;
        let wire = serde_json::from_str::<ServeRequest>(wire).unwrap().resolve().unwrap();
        assert_eq!(wire.sim.warmup_per_core, DEFAULT_WARMUP);
        assert_eq!((wire.sim.seed, wire.fault_seed), (DEFAULT_SEED, DEFAULT_FAULT_SEED));
    }

    /// What a storeless daemon answers `line` with: each row's JSON text.
    fn daemon_rows(line: &str) -> Vec<String> {
        let mut service = Service::new(ServeConfig::default()).expect("service starts");
        let response = service.handle_line(line).expect("one response line");
        let response: serde_json::Value = serde_json::from_str(&response).expect("JSON line");
        match &response["body"]["rows"] {
            serde_json::Value::Array(rows) => {
                rows.iter().map(|row| serde_json::to_string(row).unwrap()).collect()
            }
            other => panic!("no rows in {response:?}: {other:?}"),
        }
    }

    #[test]
    fn cli_and_daemon_build_the_same_rows() {
        let budget = ["--cores", "2", "--refs", "3000", "--warmup", "1000"];
        let cases = [
            (Command::Compare, vec!["--workload", "mcf"], r#""kind":"compare","workload":"mcf""#),
            (Command::FaultSweep, vec![], r#""kind":"fault-sweep","workload":"gups""#),
            (Command::ConsolidationSweep, vec!["--vms", "8"], r#""kind":"consolidation","vms":8"#),
        ];
        for (command, flags, knobs) in cases {
            let cli: Vec<String> = run_rows(command, &[&flags[..], &budget[..]].concat())
                .iter()
                .map(|(meta, report)| {
                    let row = serde_json::json!({
                        "scheme": meta.scheme.label(),
                        "consistency": meta.consistency,
                        "report": report,
                    });
                    serde_json::to_string(&row).unwrap()
                })
                .collect();
            let line = format!(r#"{{{knobs},"cores":2,"refs":3000,"warmup":1000}}"#);
            assert_eq!(cli, daemon_rows(&line), "{line}");
        }
    }
}
