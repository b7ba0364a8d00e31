//! `pomtlb` — run one simulation from the command line.
//!
//! ```text
//! pomtlb list
//! pomtlb sim --workload mcf [--scheme pom-tlb] [--cores 8] [--refs 40000]
//!            [--warmup 15000] [--seed N] [--capacity-mb 16] [--native]
//!            [--no-prepopulate] [--unmaps-per-10k X] [--check-consistency]
//!            [--json]
//! pomtlb compare --workload gups [--cores 8] [--refs 40000] [--json]
//! pomtlb shootdown-sweep --workload gups [--json]
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
//! Batched commands (`compare`, `shootdown-sweep`, `fault-sweep`) accept
//! `--trace-cache-dir DIR`: shared recordings persist to a POMTRC2 store at
//! DIR and later invocations replay them from disk instead of regenerating.
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
    consolidation_ladder, run_jobs, share_traces, share_traces_with_store, FaultConfig,
    FaultStats, PomTlbConfig, Scheme, ShootdownStats, SimConfig, SimJob, SimReport, SystemConfig,
};
use pomtlb_serve::{
    check_envelope, fault_sweep_default_events, parse_scheme, ReportStore, ServeConfig, Service,
};
use pomtlb_tlb::WalkMode;
use pomtlb_trace::{OsEventRates, TraceStore};
use pomtlb_workloads::consolidation::{consolidation_spec, resolve_mix};
use pomtlb_workloads::{by_name, names, PaperWorkload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("sim") => run_command(&args[1..], CommandKind::Sim),
        Some("compare") => run_command(&args[1..], CommandKind::Compare),
        Some("shootdown-sweep") => run_sweep(&args[1..]),
        Some("consolidation-sweep") => run_consolidation_sweep(&args[1..]),
        Some("fault-sweep") => run_fault_sweep(&args[1..]),
        Some("trace-store") => run_trace_store(&args[1..]),
        Some("report-store") => run_report_store(&args[1..]),
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

enum CommandKind {
    Sim,
    Compare,
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    scheme: Scheme,
    cores: usize,
    refs: u64,
    warmup: u64,
    seed: u64,
    capacity_mb: u64,
    native: bool,
    prepopulate: bool,
    events: OsEventRates,
    check_consistency: bool,
    json: bool,
    jobs: usize,
    trace_cache: bool,
    trace_cache_dir: Option<String>,
    fault_seed: u64,
    assert_detection: bool,
    vms: u32,
    churn_destroys: f64,
    churn_forks: f64,
    no_churn: bool,
    assert_determinism: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            scheme: Scheme::pom_tlb(),
            cores: 8,
            refs: 40_000,
            warmup: 15_000,
            seed: 0x90af,
            capacity_mb: 16,
            native: false,
            prepopulate: true,
            events: OsEventRates::default(),
            check_consistency: false,
            json: false,
            jobs: 1,
            trace_cache: false,
            trace_cache_dir: None,
            fault_seed: 0x5eed,
            assert_detection: false,
            vms: 0,
            churn_destroys: 0.0,
            churn_forks: 0.0,
            no_churn: false,
            assert_determinism: false,
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" | "-w" => o.workload = Some(value("--workload")?),
            "--scheme" | "-s" => {
                o.scheme = parse_scheme(&value("--scheme")?)?;
            }
            "--cores" => o.cores = num(&value("--cores")?)? as usize,
            "--refs" => o.refs = num(&value("--refs")?)?,
            "--warmup" => o.warmup = num(&value("--warmup")?)?,
            "--seed" => o.seed = num(&value("--seed")?)?,
            "--capacity-mb" => o.capacity_mb = num(&value("--capacity-mb")?)?,
            "--native" => o.native = true,
            "--no-prepopulate" => o.prepopulate = false,
            "--unmaps-per-10k" => o.events.unmaps = fnum(&value("--unmaps-per-10k")?)?,
            "--remaps-per-10k" => o.events.remaps = fnum(&value("--remaps-per-10k")?)?,
            "--promotes-per-10k" => o.events.promotes = fnum(&value("--promotes-per-10k")?)?,
            "--migrations-per-10k" => {
                o.events.migrations = fnum(&value("--migrations-per-10k")?)?;
            }
            "--vm-destroys-per-10k" => {
                o.events.vm_destroys = fnum(&value("--vm-destroys-per-10k")?)?;
            }
            "--vms" => o.vms = num_u32(&value("--vms")?)?,
            "--churn-destroys-per-10k" => {
                o.churn_destroys = fnum(&value("--churn-destroys-per-10k")?)?;
            }
            "--churn-forks-per-10k" => {
                o.churn_forks = fnum(&value("--churn-forks-per-10k")?)?;
            }
            "--no-churn" => o.no_churn = true,
            "--assert-determinism" => o.assert_determinism = true,
            "--check-consistency" => o.check_consistency = true,
            "--fault-seed" => o.fault_seed = num(&value("--fault-seed")?)?,
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
    o.events.validate()?;
    // The daemon's admission envelope, so a bad geometry or an
    // overflowing budget is an error here rather than a panic (or a
    // wrapped budget) inside the simulator.
    check_envelope(o.cores as u64, o.capacity_mb, o.warmup, o.refs).map_err(|e| e.to_string())?;
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

fn run_command(args: &[String], kind: CommandKind) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    let Some(name) = opts.workload.clone() else {
        eprintln!("--workload is required (see `pomtlb list`)");
        return ExitCode::FAILURE;
    };
    let Some(w) = by_name(&name) else {
        eprintln!("unknown workload `{name}`; known: {}", names().join(" "));
        return ExitCode::FAILURE;
    };

    match kind {
        CommandKind::Sim => {
            let report = simulate(&w, opts.scheme, &opts);
            emit(&w, &[report], &opts);
        }
        CommandKind::Compare => {
            let mut jobs: Vec<SimJob> =
                [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb]
                    .into_iter()
                    .map(|s| job_for(&w, s, &opts))
                    .collect();
            if opts.trace_cache {
                let store = match open_store(&opts.trace_cache_dir) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                share_traces_with_store(&mut jobs, store.as_ref());
            }
            let reports: Vec<SimReport> = run_jobs(jobs, opts.jobs)
                .into_iter()
                .map(|r| r.report)
                .collect();
            emit(&w, &reports, &opts);
        }
    }
    ExitCode::SUCCESS
}

/// Opens the persistent trace store when `--trace-cache-dir` was given;
/// `Ok(None)` means plain in-memory sharing.
fn open_store(dir: &Option<String>) -> Result<Option<TraceStore>, String> {
    match dir {
        Some(d) => TraceStore::open(d)
            .map(Some)
            .map_err(|e| format!("cannot open trace store {d}: {e}")),
        None => Ok(None),
    }
}

/// Builds the fully-specified job `simulate` would run, so batched commands
/// (compare, sweeps) can hand the same configuration to the parallel runner.
fn job_for(w: &PaperWorkload, scheme: Scheme, o: &Options) -> SimJob {
    let sys = SystemConfig {
        n_cores: o.cores,
        walk_mode: if o.native { WalkMode::Native } else { WalkMode::Virtualized },
        pom: PomTlbConfig { capacity_bytes: o.capacity_mb << 20, ..Default::default() },
        ..Default::default()
    };
    let sim = SimConfig { refs_per_core: o.refs, warmup_per_core: o.warmup, seed: o.seed };
    let mut spec = w.spec.clone();
    spec.os_events = o.events;
    let mut job = SimJob::new(format!("{}/{}", w.name, scheme.label()), &spec, scheme, sim)
        .with_system_config(sys)
        .shared_memory(w.suite.shares_memory());
    job.prepopulate = o.prepopulate;
    if o.check_consistency {
        job.check_consistency = Some(true);
    }
    job
}

fn simulate(w: &PaperWorkload, scheme: Scheme, o: &Options) -> SimReport {
    job_for(w, scheme, o).run()
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

fn run_sweep(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    let Some(name) = opts.workload.clone() else {
        eprintln!("--workload is required (see `pomtlb list`)");
        return ExitCode::FAILURE;
    };
    let Some(w) = by_name(&name) else {
        eprintln!("unknown workload `{name}`; known: {}", names().join(" "));
        return ExitCode::FAILURE;
    };

    // Build the whole rate x scheme matrix as independent jobs, then run it
    // on the worker pool; `run_jobs` keeps submission order, so rows come
    // back exactly as the serial loop produced them.
    let mut jobs = Vec::new();
    let mut rates = Vec::new();
    for rate in [0.0, 1.0, 10.0] {
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            let mut o = opts.clone();
            o.events = OsEventRates::unmap_heavy(rate);
            jobs.push(job_for(&w, scheme, &o));
            rates.push(rate);
        }
    }
    if opts.trace_cache {
        // One recording per unmap rate (the event mix changes the stream);
        // the four schemes at each rate share it.
        let store = match open_store(&opts.trace_cache_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        share_traces_with_store(&mut jobs, store.as_ref());
    }
    let rows: Vec<SweepRow> = run_jobs(jobs, opts.jobs)
        .into_iter()
        .zip(rates)
        .map(|(res, rate)| {
            let r = res.report;
            SweepRow {
                unmaps_per_10k: rate,
                scheme: r.scheme.label().to_string(),
                p_avg: r.p_avg(),
                shootdowns: r.shootdowns,
            }
        })
        .collect();

    if opts.json {
        return match serde_json::to_string_pretty(&rows) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot serialize sweep rows: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("workload {} ({:?}), {} cores: unmap-rate sweep", w.name, w.suite, opts.cores);
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
    ExitCode::SUCCESS
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

impl ConsolidationRow {
    fn from_report(vms: u32, r: &SimReport) -> Self {
        let t = &r.tenancy;
        ConsolidationRow {
            vms,
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

/// Builds the consolidation batch: every ladder rung × scheme, one shared
/// host-memory image per rung so the tenant population (not the core
/// count) sets the table footprint. Returns the jobs and, per job, its
/// tenant count.
fn consolidation_jobs(rungs: &[u32], churn: Option<(f64, f64)>, o: &Options) -> (Vec<SimJob>, Vec<u32>) {
    let sys = SystemConfig {
        n_cores: o.cores,
        walk_mode: if o.native { WalkMode::Native } else { WalkMode::Virtualized },
        pom: PomTlbConfig { capacity_bytes: o.capacity_mb << 20, ..Default::default() },
        ..Default::default()
    };
    let sim = SimConfig { refs_per_core: o.refs, warmup_per_core: o.warmup, seed: o.seed };
    let mut jobs = Vec::new();
    let mut vms_of = Vec::new();
    for &vms in rungs {
        let spec = consolidation_spec(vms, churn);
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            let mut job =
                SimJob::new(format!("{}/{}", spec.name, scheme.label()), &spec, scheme, sim)
                    .with_system_config(sys.clone())
                    .shared_memory(true);
            job.prepopulate = o.prepopulate;
            if o.check_consistency {
                job.check_consistency = Some(true);
            }
            jobs.push(job);
            vms_of.push(vms);
        }
    }
    (jobs, vms_of)
}

/// `--assert-determinism`: the same batch must fingerprint byte-identically
/// when run serially and on a worker pool over a shared recorded trace.
/// Returns false (after naming the divergent job) if the pooled replay
/// disagrees with the serial reference.
fn consolidation_is_deterministic(
    rungs: &[u32],
    churn: Option<(f64, f64)>,
    opts: &Options,
) -> bool {
    let serial = run_jobs(consolidation_jobs(rungs, churn, opts).0, 1);
    let mut replay_jobs = consolidation_jobs(rungs, churn, opts).0;
    share_traces(&mut replay_jobs);
    let pooled = run_jobs(replay_jobs, opts.jobs.max(2));
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

/// `pomtlb consolidation-sweep`: all four schemes across a tenant-count
/// ladder (or one `--vms` rung) under lifecycle churn, reporting per-tenant
/// p50/p99 tail latency and Eq. (1) set-index dispersion per scheme.
fn run_consolidation_sweep(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    // Zero means default, out-of-domain values are refused outright — the
    // exact resolution serve's `consolidation` requests go through.
    let (vms, destroys, forks) =
        match resolve_mix(opts.vms, opts.churn_destroys, opts.churn_forks) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("consolidation-sweep: {e}");
                return ExitCode::FAILURE;
            }
        };
    let churn = if opts.no_churn { None } else { Some((destroys, forks)) };
    let rungs: Vec<u32> =
        if opts.vms == 0 { consolidation_ladder().to_vec() } else { vec![vms] };

    let (mut jobs, vms_of) = consolidation_jobs(&rungs, churn, &opts);
    if opts.trace_cache {
        let store = match open_store(&opts.trace_cache_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        share_traces_with_store(&mut jobs, store.as_ref());
    }
    let rows: Vec<ConsolidationRow> = run_jobs(jobs, opts.jobs)
        .into_iter()
        .zip(vms_of)
        .map(|(res, vms)| ConsolidationRow::from_report(vms, &res.report))
        .collect();

    let deterministic =
        !opts.assert_determinism || consolidation_is_deterministic(&rungs, churn, &opts);

    if opts.json {
        match serde_json::to_string_pretty(&rows) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize consolidation rows: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "consolidation sweep, {} cores, churn {}: destroys {:.2}/10k forks {:.2}/10k",
            opts.cores,
            if churn.is_some() { "on" } else { "off" },
            if churn.is_some() { destroys } else { 0.0 },
            if churn.is_some() { forks } else { 0.0 },
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
    }
    if deterministic {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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

/// Builds the fault-sweep batch: every scheme × consistency {on, off},
/// each armed with the same seeded fault plan. Returns the jobs and, per
/// job, whether detection is on.
fn fault_sweep_jobs(w: &PaperWorkload, opts: &Options) -> (Vec<SimJob>, Vec<bool>) {
    let fault_cfg = FaultConfig { seed: opts.fault_seed, ..FaultConfig::default() };
    let mut o = opts.clone();
    if o.events == OsEventRates::default() {
        o.events = fault_sweep_default_events();
    }
    let mut jobs = Vec::new();
    let mut detect = Vec::new();
    for consistency in [true, false] {
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            let mut job = job_for(w, scheme, &o).with_faults(fault_cfg);
            job.check_consistency = Some(consistency);
            jobs.push(job);
            detect.push(consistency);
        }
    }
    (jobs, detect)
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

/// `pomtlb fault-sweep`: every scheme with and without the consistency
/// machinery, under one seeded fault plan, reporting detection coverage,
/// latency and wrong-translation escapes.
fn run_fault_sweep(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n");
            help();
            return ExitCode::FAILURE;
        }
    };
    let name = opts.workload.clone().unwrap_or_else(|| "gups".to_string());
    let Some(w) = by_name(&name) else {
        eprintln!("unknown workload `{name}`; known: {}", names().join(" "));
        return ExitCode::FAILURE;
    };

    let (mut jobs, detect) = fault_sweep_jobs(&w, &opts);
    if opts.trace_cache {
        // All rows consume one recording: the fault plan perturbs served
        // translations, never the input stream.
        let store = match open_store(&opts.trace_cache_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        share_traces_with_store(&mut jobs, store.as_ref());
    }
    let rows: Vec<FaultRow> = run_jobs(jobs, opts.jobs)
        .into_iter()
        .zip(detect)
        .map(|(res, consistency)| {
            let r = res.report;
            FaultRow {
                scheme: r.scheme.label().to_string(),
                consistency,
                p_avg: r.p_avg(),
                faults: r.faults,
            }
        })
        .collect();

    if opts.json {
        match serde_json::to_string_pretty(&rows) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize fault-sweep rows: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "workload {} ({:?}), {} cores: fault sweep (fault seed {:#x})",
            w.name, w.suite, opts.cores, opts.fault_seed
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
        for row in &rows {
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
    }
    if opts.assert_detection && !fault_rows_hold_invariants(&rows) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `pomtlb trace-store stats|verify|gc --dir DIR [--max-mb N]` — inspect,
/// integrity-check, or trim a persistent POMTRC2 recording store.
fn run_trace_store(args: &[String]) -> ExitCode {
    let mut action: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut max_mb: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "stats" | "verify" | "gc" if action.is_none() => action = Some(a.clone()),
            "--dir" => match it.next() {
                Some(v) => dir = Some(v.clone()),
                None => {
                    eprintln!("--dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--max-mb" => match it.next().map(|v| num(v)) {
                Some(Ok(n)) => max_mb = Some(n),
                _ => {
                    eprintln!("--max-mb needs a number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown trace-store argument `{other}`");
                eprintln!("usage: pomtlb trace-store stats|verify|gc --dir DIR [--max-mb N]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(action) = action else {
        eprintln!("trace-store needs an action: stats | verify | gc");
        return ExitCode::FAILURE;
    };
    let Some(dir) = dir else {
        eprintln!("trace-store needs --dir DIR");
        return ExitCode::FAILURE;
    };
    let store = match TraceStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open trace store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = match max_mb {
        Some(mb) => store.with_max_bytes(mb.saturating_mul(1 << 20)),
        None => store,
    };

    match action.as_str() {
        "stats" => {
            let entries = store.entries();
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
                for e in &entries {
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
            ExitCode::SUCCESS
        }
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
            println!("{} recording(s), {} defective", entries.len(), bad);
            if bad > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "gc" => {
            let report = store.gc();
            for (digest, bytes) in &report.evicted {
                println!("evicted {digest} ({bytes} bytes)");
            }
            println!(
                "{} recording(s) evicted, {} bytes live (cap {} bytes)",
                report.evicted.len(),
                report.live_bytes,
                store.max_bytes(),
            );
            ExitCode::SUCCESS
        }
        _ => unreachable!("actions are validated above"),
    }
}

/// `pomtlb report-store stats|verify|gc --dir DIR [--max-mb N]` — inspect,
/// integrity-check, or trim a store of memoized serve response bodies
/// (POMREP1 files), mirroring `trace-store`'s actions.
fn run_report_store(args: &[String]) -> ExitCode {
    let mut action: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut max_mb: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "stats" | "verify" | "gc" if action.is_none() => action = Some(a.clone()),
            "--dir" => match it.next() {
                Some(v) => dir = Some(v.clone()),
                None => {
                    eprintln!("--dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--max-mb" => match it.next().map(|v| num(v)) {
                Some(Ok(n)) => max_mb = Some(n),
                _ => {
                    eprintln!("--max-mb needs a number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown report-store argument `{other}`");
                eprintln!("usage: pomtlb report-store stats|verify|gc --dir DIR [--max-mb N]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(action) = action else {
        eprintln!("report-store needs an action: stats | verify | gc");
        return ExitCode::FAILURE;
    };
    let Some(dir) = dir else {
        eprintln!("report-store needs --dir DIR");
        return ExitCode::FAILURE;
    };
    let store = match ReportStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open report store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = match max_mb {
        Some(mb) => store.with_max_bytes(mb.saturating_mul(1 << 20)),
        None => store,
    };

    match action.as_str() {
        "stats" => {
            let entries = store.entries();
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
                for e in &entries {
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
            ExitCode::SUCCESS
        }
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
            println!("{} body(ies), {} defective", entries.len(), bad);
            if bad > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "gc" => {
            let report = store.gc();
            for (digest, bytes) in &report.evicted {
                println!("evicted {digest} ({bytes} bytes)");
            }
            println!(
                "{} body(ies) evicted, {} bytes live (cap {} bytes)",
                report.evicted.len(),
                report.live_bytes,
                store.max_bytes(),
            );
            ExitCode::SUCCESS
        }
        _ => unreachable!("actions are validated above"),
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
    let mut deadline_ms = 0u64;
    let mut max_retries = 8u32;
    let mut backoff_base_ms = 25u64;
    let mut backoff_cap_ms = 1000u64;
    let mut seed = 0x5eedu64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--tcp" => addr = Some(value("--tcp")?),
            "--deadline-ms" => deadline_ms = num(&value("--deadline-ms")?)?,
            "--max-retries" => max_retries = num_u32(&value("--max-retries")?)?,
            "--backoff-base-ms" => backoff_base_ms = num(&value("--backoff-base-ms")?)?,
            "--backoff-cap-ms" => backoff_cap_ms = num(&value("--backoff-cap-ms")?)?,
            "--seed" => seed = num(&value("--seed")?)?,
            other => return Err(format!("unknown client flag `{other}`")),
        }
    }
    let addr = addr.ok_or_else(|| "client needs --tcp HOST:PORT".to_string())?;
    let mut cfg = pomtlb_serve::ClientConfig::new(addr);
    cfg.deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    cfg.max_retries = max_retries;
    cfg.backoff_base = std::time::Duration::from_millis(backoff_base_ms);
    cfg.backoff_cap = std::time::Duration::from_millis(backoff_cap_ms);
    cfg.seed = seed;
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

fn emit(w: &PaperWorkload, reports: &[SimReport], o: &Options) {
    if o.json {
        let value = serde_json::json!({
            "workload": w.name,
            "suite": format!("{:?}", w.suite),
            "table2": w.table2,
            "reports": reports,
        });
        match serde_json::to_string_pretty(&value) {
            Ok(s) => println!("{s}"),
            Err(e) => eprintln!("cannot serialize reports: {e}"),
        }
        return;
    }
    println!(
        "workload {} ({:?}), {} cores, {} refs/core",
        w.name,
        w.suite,
        reports[0].n_cores,
        o.refs
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
                                                   x all four schemes
  pomtlb consolidation-sweep [flags]               multi-tenant consolidation:
                                                   all four schemes across a
                                                   100/1000/10000-VM ladder
                                                   (or one --vms rung) under
                                                   lifecycle churn, reporting
                                                   per-tenant p50/p99 tail
                                                   latency and Eq. (1)
                                                   set-index dispersion
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
  --cores N         simulated cores (default 8)
  --refs N          post-warmup references per core (default 40000)
  --warmup N        warmup references per core (default 15000)
  --seed N          RNG seed
  --capacity-mb N   POM-TLB capacity (default 16)
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
                    (default 0x5eed)
  --assert-detection      fault-sweep exits nonzero unless consistency-on
                          rows show zero escapes and POM-TLB detects
                          injected faults (for CI)
  --jobs N          worker threads for batched commands (compare and
                    the three sweeps); `auto` = all cores. Output is
                    byte-identical to --jobs 1 (default)
  --trace-cache     batched commands record each input stream once and
                    replay it to every scheme instead of regenerating it
                    per run. Output is byte-identical either way
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

    #[test]
    fn parse_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.cores, 8);
        assert!(o.prepopulate);
        assert!(!o.json);
    }

    #[test]
    fn parse_full_flag_set() {
        let args: Vec<String> = [
            "--workload", "mcf", "--scheme", "tsb", "--cores", "4", "--refs", "100",
            "--warmup", "50", "--seed", "9", "--capacity-mb", "8", "--native",
            "--no-prepopulate", "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.workload.as_deref(), Some("mcf"));
        assert_eq!(o.scheme, Scheme::Tsb);
        assert_eq!(o.cores, 4);
        assert_eq!(o.refs, 100);
        assert_eq!(o.capacity_mb, 8);
        assert!(o.native && !o.prepopulate && o.json);
    }

    #[test]
    fn parse_event_flags() {
        let args: Vec<String> = [
            "--unmaps-per-10k", "10", "--migrations-per-10k", "0.5", "--check-consistency",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.events.unmaps, 10.0);
        assert_eq!(o.events.migrations, 0.5);
        assert!(o.check_consistency);
        // Negative rates are rejected by validation.
        assert!(parse(&["--unmaps-per-10k".into(), "-1".into()]).is_err());
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
        assert_eq!(o.vms, 0, "zero means the full ladder");
        assert_eq!(o.churn_destroys, 0.0);
        assert_eq!(o.churn_forks, 0.0);
        assert!(!o.no_churn && !o.assert_determinism);

        let args: Vec<String> = [
            "--vms", "250", "--churn-destroys-per-10k", "2.5", "--churn-forks-per-10k",
            "0.25", "--no-churn", "--assert-determinism",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.vms, 250);
        assert_eq!(o.churn_destroys, 2.5);
        assert_eq!(o.churn_forks, 0.25);
        assert!(o.no_churn && o.assert_determinism);
        assert!(parse(&["--vms".into()]).is_err());
        // 2^32 + 50 is refused, not wrapped to a 50-VM run.
        assert_eq!(parse(&["--vms".into(), "4294967295".into()]).unwrap().vms, u32::MAX);
        assert!(parse(&["--vms".into(), "4294967346".into()]).is_err());
    }

    #[test]
    fn consolidation_resolution_is_validation_not_clamping() {
        // The CLI shares serve's resolver: zero falls back to defaults,
        // out-of-domain values error instead of being silently clamped.
        assert!(resolve_mix(0, 0.0, 0.0).is_ok());
        assert!(resolve_mix(70_000, 0.0, 0.0).is_err());
        assert!(resolve_mix(100, -0.5, 0.0).is_err());
    }

    #[test]
    fn consolidation_jobs_cover_the_ladder_by_scheme() {
        let o = Options { cores: 2, refs: 500, warmup: 100, ..Default::default() };
        let (jobs, vms_of) = consolidation_jobs(&[100, 1_000], Some((0.5, 1.0)), &o);
        assert_eq!(jobs.len(), 8, "two rungs x four schemes");
        assert_eq!(vms_of, [100, 100, 100, 100, 1_000, 1_000, 1_000, 1_000]);
    }

    #[test]
    fn consolidation_smoke_is_deterministic() {
        let o = Options { cores: 2, refs: 700, warmup: 200, jobs: 2, ..Default::default() };
        assert!(consolidation_is_deterministic(&[30], Some((10.0, 5.0)), &o));
    }

    fn args(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_rejects_a_non_power_of_two_capacity() {
        let err = parse(&args(&["--capacity-mb", "5"])).expect_err("5 MB is no POM-TLB geometry");
        assert_eq!(err, pomtlb_serve::EnvelopeError::CapacityMb(5).to_string());
        assert!(parse(&args(&["--capacity-mb", "2048"])).is_err());
        assert_eq!(parse(&args(&["--capacity-mb", "32"])).unwrap().capacity_mb, 32);
    }

    #[test]
    fn parse_rejects_cores_outside_the_envelope() {
        let err = parse(&args(&["--cores", "0"])).expect_err("a machine needs a core");
        assert_eq!(err, pomtlb_serve::EnvelopeError::Cores(0).to_string());
        assert!(parse(&args(&["--cores", "65"])).is_err());
        assert_eq!(parse(&args(&["--cores", "64"])).unwrap().cores, 64);
    }

    #[test]
    fn parse_rejects_an_overflowing_reference_budget() {
        let err = parse(&args(&["--refs", "18446744073709551615"]))
            .expect_err("warmup + refs overflows");
        let budget =
            pomtlb_serve::EnvelopeError::Budget { warmup: 15_000, refs: u64::MAX, cores: 8 };
        assert_eq!(err, budget.to_string());
        assert!(parse(&args(&["--cores", "64", "--refs", "1152921504606846976"])).is_err());
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
        let w = by_name("streamcluster").unwrap();
        let o = Options { cores: 2, refs: 1_000, warmup: 300, ..Default::default() };
        let r = simulate(&w, Scheme::pom_tlb(), &o);
        assert!(r.refs > 0);
        assert!(r.walks_eliminated() > 0.9);
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let p = parse_serve(&[]).unwrap();
        assert!(p.socket.is_none(), "stdin is the default transport");
        assert!(p.cfg.trace_dir.is_none() && p.cfg.report_dir.is_none());
        assert_eq!(p.cfg.jobs, 0, "auto worker count");

        let args: Vec<String> = [
            "--socket", "/tmp/pomtlb.sock", "--trace-cache-dir", "/tmp/traces",
            "--report-dir", "/tmp/reports", "--report-max-mb", "4", "--jobs", "2",
            "--max-connections", "9", "--max-inflight", "3", "--max-queue", "7",
            "--hot-cache-mb", "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_serve(&args).unwrap();
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

        let args: Vec<String> = [
            "--tcp", "127.0.0.1:7070", "--idle-timeout-secs", "30",
            "--drain-timeout-secs", "5", "--max-line-bytes", "4096",
            "--compute-deadline-ms", "1500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_serve(&args).unwrap();
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

        let args: Vec<String> = [
            "--tcp", "h:1", "--deadline-ms", "2500", "--max-retries", "3",
            "--backoff-base-ms", "10", "--backoff-cap-ms", "200", "--seed", "42",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_client(&args).unwrap();
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
        assert_eq!(o.fault_seed, 0x5eed);
        assert!(!o.assert_detection);
        let o = parse(&["--fault-seed".into(), "7".into(), "--assert-detection".into()]).unwrap();
        assert_eq!(o.fault_seed, 7);
        assert!(o.assert_detection);
        assert!(parse(&["--fault-seed".into(), "x".into()]).is_err());
    }

    #[test]
    fn fault_sweep_batch_covers_schemes_and_modes() {
        let w = by_name("gups").unwrap();
        let o = Options { cores: 2, refs: 1_000, warmup: 300, ..Default::default() };
        let (jobs, detect) = fault_sweep_jobs(&w, &o);
        assert_eq!(jobs.len(), 8, "four schemes x consistency on/off");
        assert_eq!(detect.iter().filter(|d| **d).count(), 4);
        for (job, on) in jobs.iter().zip(&detect) {
            assert!(job.faults.is_some(), "every row is fault-armed");
            assert_eq!(job.check_consistency, Some(*on));
            assert!(job.spec.os_events.remaps > 0.0, "eventful default mix applied");
        }
    }

    #[test]
    fn fault_sweep_rows_respect_detection_mode() {
        let w = by_name("gups").unwrap();
        // 50k total accesses: at the default per-10k rates the POM-TLB rows
        // apply some fault with near-certainty under the pinned seed. The
        // other machines have no POM-TLB array, so only dropped IPIs can
        // reach them, and on gups those rarely find a stale entry to leave.
        let o = Options { cores: 2, refs: 20_000, warmup: 5_000, ..Default::default() };
        let (jobs, detect) = fault_sweep_jobs(&w, &o);
        let rows: Vec<FaultRow> = run_jobs(jobs, 2)
            .into_iter()
            .zip(detect)
            .map(|(res, consistency)| {
                let r = res.report;
                FaultRow {
                    scheme: r.scheme.label().to_string(),
                    consistency,
                    p_avg: r.p_avg(),
                    faults: r.faults,
                }
            })
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
}
