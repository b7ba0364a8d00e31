//! End-to-end and per-layer benchmark of the POM-TLB simulator and its
//! serve daemon.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones ([`END_TO_END`]), measured with no timers inside the
//! program's loops; with `--trace 1` they are the per-layer ones
//! ([`PER_LAYER`]), from a separate run that times each layer from the
//! outside. The benchmark drives the program only through public
//! functions of `pom-tlb`, `pomtlb-trace`, `pomtlb-tlb` and
//! `pomtlb-serve`, on one thread of simulation and one client connection,
//! pinned to one CPU, with glibc's malloc thresholds fixed (see
//! [`host::settle_malloc_thresholds`]).
//! `NOTES.md` beside this crate says why each workload and metric exists.

use std::path::Path;
use std::time::Duration;

use serde_json::Value;

pub mod alloc;
pub mod host;
pub mod measure;
pub mod serve;
pub mod sim;
pub mod span;
pub mod traced;

use measure::{result_line, Metrics};
use span::SpanLog;

/// The end-to-end metrics every `--trace 0` run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_refs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
];

/// The per-layer metrics every `--trace 1` run prints, with units. A
/// layer a workload does not exercise reads 0, and the run's notes name
/// it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.record_ms", "ms"),
    ("system.new_ms", "ms"),
    ("page_table.prepopulate_ms", "ms"),
    ("alloc.setup_mb", "MB"),
    ("alloc.loop_per_kref", "count/kref"),
    ("trace.replay_ns_per_ref", "ns"),
    ("page_table.map_ns_per_ref", "ns"),
    ("system.access_ns_per_ref", "ns"),
    ("system.miss_ns.baseline", "ns"),
    ("system.miss_ns.shared_l2", "ns"),
    ("system.miss_ns.tsb", "ns"),
    ("system.miss_ns.pom_tlb", "ns"),
    ("shootdown.event_us", "us"),
    ("mmu.l2_mpki", "1/kinstr"),
    ("walker.walks", "count"),
    ("walker.refs_per_walk", "count"),
    ("walker.psc_hit_frac", "ratio"),
    ("pom_tlb.l2d_frac", "ratio"),
    ("pom_tlb.l3d_frac", "ratio"),
    ("pom_tlb.dram_frac", "ratio"),
    ("dram.pom_row_hit_frac", "ratio"),
    ("predictor.size_acc", "ratio"),
    ("predictor.bypass_acc", "ratio"),
    ("shootdown.events", "count"),
    ("shootdown.invalidations", "count"),
    ("sim.p_avg_cycles.baseline", "cycles"),
    ("sim.p_avg_cycles.shared_l2", "cycles"),
    ("sim.p_avg_cycles.tsb", "cycles"),
    ("sim.p_avg_cycles.pom_tlb", "cycles"),
    ("transport.overhead_us", "us"),
    ("request.parse_us", "us"),
    ("request.resolve_us", "us"),
    ("request.digest_us", "us"),
    ("hot_cache.get_us", "us"),
    ("report_store.load_us", "us"),
    ("report_store.save_ms", "ms"),
    ("trace_store.load_ms", "ms"),
    ("trace_store.save_ms", "ms"),
    ("runner.compute_ms", "ms"),
    ("admission.queue_wait_us", "us"),
    ("tier.hot_frac", "ratio"),
    ("tier.memoized_frac", "ratio"),
    ("tier.computed_frac", "ratio"),
    ("served.failed", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: &[&str] = &["sim_churn", "serve_mix"];

/// What one workload run produced, before the per-layer list is filled.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <sim_churn|serve_mix> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.max(1),
                "--trace" => parsed.trace = number()? != 0,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!("unknown workload `{}`", parsed.workload));
        }
        Ok(parsed)
    }
}

/// Runs the workload and returns the lines to print: a line of host
/// facts and notes, then the result line.
pub fn run(args: &Args) -> Result<Vec<String>, String> {
    // Read before pinning, which narrows what the process may use.
    let host_cores = host::host_cores();
    let pinned = host::pin_to_one_cpu();
    let settled_malloc = host::settle_malloc_thresholds();
    let budget = Duration::from_secs(args.seconds);
    let mut spans = SpanLog::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("sim_churn", false) => sim::run(args.seed, budget)?,
        ("sim_churn", true) => sim::run_traced(args.seed, budget, &mut spans)?,
        (_, false) => serve::run(args.seed, budget)?,
        (_, true) => serve::run_traced(args.seed, budget, &mut spans)?,
    };

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    let mut not_measured = Vec::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).unwrap_or_else(|| {
            not_measured.push(name);
            0.0
        });
        metrics.put(name, value, unit);
    }
    let mut notes = outcome.notes;
    if args.trace {
        if !not_measured.is_empty() {
            notes.push(format!(
                "0 = layer not exercised by this workload: {}",
                not_measured.join(" ")
            ));
        }
        if !spans.is_empty() {
            let path = Path::new(".bench_work")
                .join("spans")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match spans.write_jsonl(&path) {
                Ok(()) => notes.push(format!(
                    "{} spans written to {}",
                    spans.len(),
                    path.display()
                )),
                Err(e) => notes.push(format!("spans not written: {e}")),
            }
        }
    }
    let correct = outcome.failed == 0 && metrics.all_finite();
    let facts = Value::Object(vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::U64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("host_cores".to_string(), Value::U64(host_cores as u64)),
        (
            "pinned_cpu".to_string(),
            pinned.map_or(Value::Null, |c| Value::U64(c as u64)),
        ),
        ("settled_malloc".to_string(), Value::Bool(settled_malloc)),
        (
            "store_fs".to_string(),
            Value::String(host::fs_type(Path::new("."))),
        ),
        (
            "build_profile".to_string(),
            Value::String(host::build_profile().to_string()),
        ),
        (
            "notes".to_string(),
            Value::Array(notes.into_iter().map(Value::String).collect()),
        ),
    ]);
    Ok(vec![
        serde_json::to_string(&facts).unwrap_or_default(),
        result_line(correct, outcome.attempted, outcome.failed, &metrics),
    ])
}
