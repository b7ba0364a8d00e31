//! The simulation workload: one four-scheme batch (Baseline, POM-TLB,
//! Shared_L2, TSB) run lap after lap on one worker.
//!
//! A lap is what a user's batch costs: `share_traces` records the input
//! stream once, then each row runs `Simulation::begin`, one unbounded
//! `ChunkSim::advance` and `ChunkSim::finish`, and is dropped before the
//! next row starts. The batch is built from a serve request line through
//! `ServeRequest::resolve` and `ResolvedRequest::jobs`, the same path the
//! daemon takes, so the rows are the daemon's rows.

use std::time::{Duration, Instant};

use pom_tlb::{share_traces, Scheme, SimJob, SimReport};
use pomtlb_serve::ServeRequest;

use crate::alloc::AllocCount;
use crate::measure::{median, Metrics, Tally};
use crate::span::SpanLog;
use crate::traced::{self, RowTimes, TracedRow};
use crate::Outcome;

/// Laps every run makes, however short `--seconds` is (setup is reported
/// as a median over laps).
const MIN_LAPS: usize = 3;

/// The `sim_churn` batch as a serve request line: the four schemes over
/// the 1,000-VM consolidation mix on the 8-core Table 1 system. Every
/// input is drawn from `seed`. The sizes keep one lap near 2.4 s on a
/// 2-vCPU host; the churn rates are four times the mix's defaults, which
/// brings the shootdowns' share of a row nearer to what the default mix
/// has at its default, five-times-longer budget (see NOTES.md).
pub fn request_line(seed: u64) -> String {
    format!(
        r#"{{"id":"sim_churn","kind":"consolidation","cores":8,"refs":8000,"warmup":2000,"churn_destroys_per_10k":2,"churn_forks_per_10k":4,"seed":{}}}"#,
        input_seed(seed)
    )
}

/// Maps the benchmark seed to a simulator seed (non-zero, since a zero
/// seed in a request means "the default").
pub fn input_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) | 1
}

/// The batch a request line describes, in the daemon's row order.
pub fn batch(line: &str) -> Result<Vec<SimJob>, String> {
    let request: ServeRequest =
        serde_json::from_str(line).map_err(|e| format!("bad request line: {e}"))?;
    Ok(request.resolve()?.jobs().0)
}

/// A report's canonical text; two runs agree when these are equal.
pub fn fingerprint(report: &SimReport) -> String {
    serde_json::to_string(report).unwrap_or_else(|_| format!("{report:?}"))
}

/// One row of an untraced lap.
pub struct RowRun {
    /// `Simulation::begin`: `System::new` plus prepopulation.
    pub begin: Duration,
    /// The one unbounded `ChunkSim::advance`.
    pub advance: Duration,
    /// Begin through finish and drop.
    pub wall: Duration,
    pub refs: u64,
    pub report: SimReport,
}

/// One untraced lap over the whole batch.
pub struct Lap {
    pub record: Duration,
    pub rows: Vec<RowRun>,
    /// Allocations made by `share_traces` and every `begin`.
    pub alloc_setup: AllocCount,
    /// Allocations made inside `advance`.
    pub alloc_loop: AllocCount,
}

impl Lap {
    pub fn setup(&self) -> Duration {
        self.record + self.rows.iter().map(|r| r.begin).sum::<Duration>()
    }

    pub fn advance(&self) -> Duration {
        self.rows.iter().map(|r| r.advance).sum()
    }

    pub fn refs(&self) -> u64 {
        self.rows.iter().map(|r| r.refs).sum()
    }

    pub fn wall(&self) -> Duration {
        self.record + self.rows.iter().map(|r| r.wall).sum::<Duration>()
    }
}

/// Runs the batch once through `begin` / `advance` / `finish`.
pub fn untraced_lap(jobs: &[SimJob]) -> Lap {
    let mut jobs = jobs.to_vec();
    let before = AllocCount::now();
    let t = Instant::now();
    share_traces(&mut jobs);
    let record = t.elapsed();
    let mut alloc_setup = AllocCount::since(before);
    let mut alloc_loop = AllocCount::default();
    let mut rows = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let before = AllocCount::now();
        let start = Instant::now();
        let mut sim = job.to_simulation().begin();
        let begin = start.elapsed();
        alloc_setup += AllocCount::since(before);

        let before = AllocCount::now();
        let t = Instant::now();
        let refs = sim.advance(u64::MAX);
        let advance = t.elapsed();
        alloc_loop += AllocCount::since(before);

        let report = sim.finish();
        drop(sim);
        rows.push(RowRun {
            begin,
            advance,
            wall: start.elapsed(),
            refs,
            report,
        });
    }
    Lap {
        record,
        rows,
        alloc_setup,
        alloc_loop,
    }
}

/// Checks a batch's reports against what every correct run must show:
/// one row per job in order, the full measured budget, one front end
/// (identical reference and miss counts in every row), and every L2 TLB
/// miss resolved exactly once, by the scheme's structure or by a walk.
pub fn check_batch(jobs: &[SimJob], reports: &[SimReport]) -> Vec<String> {
    let mut problems = Vec::new();
    if reports.len() != jobs.len() {
        problems.push(format!("{} reports for {} rows", reports.len(), jobs.len()));
        return problems;
    }
    for (job, r) in jobs.iter().zip(reports) {
        let label = &job.label;
        let measured = job.sim.refs_per_core * job.sys.n_cores as u64;
        if r.scheme != job.scheme || r.workload != job.spec.name {
            problems.push(format!(
                "{label}: report is for {:?} / {}",
                r.scheme, r.workload
            ));
        }
        if r.refs != measured {
            problems.push(format!(
                "{label}: {} measured refs, expected {measured}",
                r.refs
            ));
        }
        if r.l2_tlb_misses == 0 || r.l2_tlb_misses > r.l1_tlb_misses {
            problems.push(format!(
                "{label}: {} L2 misses against {} L1 misses",
                r.l2_tlb_misses, r.l1_tlb_misses
            ));
        }
        let resolved = match r.scheme {
            Scheme::Baseline => 0,
            Scheme::PomTlb { .. } => r.resolved_l2d + r.resolved_l3d + r.resolved_pom_dram,
            Scheme::SharedL2 => r.resolved_shared_l2,
            Scheme::Tsb => r.resolved_tsb,
        };
        if resolved + r.page_walks != r.l2_tlb_misses {
            problems.push(format!(
                "{label}: {resolved} resolved + {} walks != {} L2 misses",
                r.page_walks, r.l2_tlb_misses
            ));
        }
    }
    let first = &reports[0];
    for r in &reports[1..] {
        if (r.refs, r.instructions, r.l1_tlb_misses, r.l2_tlb_misses)
            != (
                first.refs,
                first.instructions,
                first.l1_tlb_misses,
                first.l2_tlb_misses,
            )
        {
            problems.push(format!(
                "{:?}: front-end counts differ from {:?}",
                r.scheme, first.scheme
            ));
        }
    }
    problems
}

/// Shared `--trace 0` / `--trace 1` bookkeeping: the first lap's reports
/// are the reference every later lap (and every traced row) must match.
struct Reference {
    fingerprints: Vec<String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Reference {
    fn new(jobs: &[SimJob], first: &Lap) -> Reference {
        let reports: Vec<SimReport> = first.rows.iter().map(|r| r.report.clone()).collect();
        let problems = check_batch(jobs, &reports);
        // A batch that breaks an invariant is wrong as a whole: every
        // later row is compared against it.
        let failed = if problems.is_empty() {
            0
        } else {
            jobs.len() as u64
        };
        Reference {
            fingerprints: reports.iter().map(fingerprint).collect(),
            attempted: jobs.len() as u64,
            failed,
            notes: problems,
        }
    }

    /// Counts `reports` as attempted rows, failing each that differs from
    /// the reference.
    fn compare<'a>(&mut self, what: &str, reports: impl Iterator<Item = &'a SimReport>) -> bool {
        let mut identical = true;
        for (i, report) in reports.enumerate() {
            self.attempted += 1;
            if self.fingerprints.get(i) != Some(&fingerprint(report)) {
                self.failed += 1;
                identical = false;
                self.notes
                    .push(format!("{what}: row {i} differs from the first lap"));
            }
        }
        identical
    }
}

/// The end-to-end run: laps until `budget` is spent.
pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let jobs = batch(&request_line(seed))?;
    let start = Instant::now();
    let first = untraced_lap(&jobs);
    // Later laps repeat the same work; read the peak before allocator
    // reuse across laps can move it (see NOTES.md).
    let peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(f64::NAN);
    let mut reference = Reference::new(&jobs, &first);
    let mut laps = vec![first];
    while laps.len() < MIN_LAPS || start.elapsed() < budget {
        let lap = untraced_lap(&jobs);
        reference.compare("lap", lap.rows.iter().map(|r| &r.report));
        laps.push(lap);
    }

    let row_ms: Vec<f64> = laps
        .iter()
        .flat_map(|l| l.rows.iter().map(|r| r.wall.as_secs_f64() * 1e3))
        .collect();
    // Rows keep their scheme's position in every lap.
    let slowest_scheme_ms = (0..jobs.len())
        .map(|i| {
            median(
                &laps
                    .iter()
                    .map(|l| l.rows[i].wall.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .fold(0.0, f64::max);

    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(
            &laps
                .iter()
                .map(|l| l.setup().as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.put(
        "sim_refs_per_s",
        median(
            &laps
                .iter()
                .map(|l| l.refs() as f64 / l.advance().as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put(
        "ops_per_s",
        median(
            &laps
                .iter()
                .map(|l| l.rows.len() as f64 / l.wall().as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    m.put("op_p50_ms", median(&row_ms), "ms");
    m.put("op_p99_ms", slowest_scheme_ms, "ms");

    let notes = vec![
        format!("{} laps of {} rows; an operation is one row (begin, advance, finish)", laps.len(), jobs.len()),
        "op_p99_ms here is the slowest scheme's median row time: a run has too few rows for a sampled tail"
            .to_string(),
    ];
    Ok(Outcome {
        attempted: reference.attempted,
        failed: reference.failed,
        metrics: m,
        notes: notes.into_iter().chain(reference.notes).collect(),
    })
}

/// One traced lap: `share_traces` and every row through the mirrored loop.
struct TracedLap {
    record: Duration,
    rows: Vec<TracedRow>,
}

fn traced_lap(jobs: &[SimJob], spans: &mut SpanLog, lap: usize) -> TracedLap {
    let mut jobs = jobs.to_vec();
    let trace = spans.trace(format!("lap{lap}"));
    let t = Instant::now();
    share_traces(&mut jobs);
    let end = Instant::now();
    spans.record(trace, 0, "trace.record", t, end);
    let rows = jobs
        .iter()
        .map(|job| {
            let trace = spans.trace(format!("lap{lap}/{}", job.label));
            let start = Instant::now();
            let row_span = spans.record(trace, 0, "row", start, start);
            let row = traced::run_row(job, spans, trace, row_span);
            spans.close(row_span, Instant::now());
            row
        })
        .collect();
    TracedLap {
        record: end - t,
        rows,
    }
}

/// Metric-name suffix for a scheme's per-row metrics.
fn scheme_key(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Baseline => "baseline",
        Scheme::SharedL2 => "shared_l2",
        Scheme::Tsb => "tsb",
        Scheme::PomTlb { .. } => "pom_tlb",
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: untraced and traced laps in pairs until `budget` is
/// spent, every traced row checked against the untraced reference.
pub fn run_traced(seed: u64, budget: Duration, spans: &mut SpanLog) -> Result<Outcome, String> {
    let jobs = batch(&request_line(seed))?;
    let start = Instant::now();
    let mut untraced = vec![untraced_lap(&jobs)];
    let mut reference = Reference::new(&jobs, &untraced[0]);
    let mut traced = Vec::new();
    let mut identical = true;
    loop {
        let lap = traced_lap(&jobs, spans, traced.len());
        identical &= reference.compare("traced row", lap.rows.iter().map(|r| &r.report));
        traced.push(lap);
        if start.elapsed() >= budget {
            break;
        }
        let lap = untraced_lap(&jobs);
        reference.compare("lap", lap.rows.iter().map(|r| &r.report));
        untraced.push(lap);
    }

    let mut m = Metrics::default();
    if identical {
        let pooled: Vec<&RowTimes> = traced
            .iter()
            .flat_map(|l| l.rows.iter().map(|r| &r.times))
            .collect();
        let sum = |f: fn(&RowTimes) -> Tally| {
            let mut total = Tally::default();
            for t in &pooled {
                total.merge(f(t));
            }
            total
        };
        let refs: u64 = pooled.iter().map(|t| t.refs).sum();
        let replay = sum(|t| t.replay);
        let map = sum(|t| t.map);
        let access = sum(|t| t.access);
        let event = sum(|t| t.event);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;

        m.put(
            "trace.record_ms",
            median(&traced.iter().map(|l| ms(l.record)).collect::<Vec<_>>()),
            "ms",
        );
        m.put(
            "system.new_ms",
            median(&pooled.iter().map(|t| ms(t.system_new)).collect::<Vec<_>>()),
            "ms",
        );
        m.put(
            "page_table.prepopulate_ms",
            median(&pooled.iter().map(|t| ms(t.prepopulate)).collect::<Vec<_>>()),
            "ms",
        );
        let first = &untraced[0];
        m.put(
            "alloc.setup_mb",
            first.alloc_setup.bytes as f64 / (1u64 << 20) as f64,
            "MB",
        );
        m.put(
            "alloc.loop_per_kref",
            first.alloc_loop.calls as f64 * 1e3 / first.refs() as f64,
            "count/kref",
        );
        m.put("trace.replay_ns_per_ref", replay.mean_ns(), "ns");
        m.put(
            "page_table.map_ns_per_ref",
            map.ns as f64 / refs as f64,
            "ns",
        );
        m.put(
            "system.access_ns_per_ref",
            access.ns as f64 / refs as f64,
            "ns",
        );
        let reports: Vec<&SimReport> = untraced[0].rows.iter().map(|r| &r.report).collect();
        for (i, report) in reports.iter().enumerate() {
            let mut measured = Tally::default();
            for lap in &traced {
                measured.merge(lap.rows[i].times.access_measured);
            }
            let per_lap_ns = measured.ns as f64 / traced.len() as f64;
            m.put(
                format!("system.miss_ns.{}", scheme_key(report.scheme)),
                per_lap_ns / report.l2_tlb_misses as f64,
                "ns",
            );
        }
        m.put("shootdown.event_us", event.mean_ns() / 1e3, "us");
        let traced_loop: f64 = traced
            .iter()
            .flat_map(|l| l.rows.iter().map(|r| r.times.loop_wall.as_secs_f64()))
            .sum();
        let untraced_loop: f64 = untraced.iter().map(|l| l.advance().as_secs_f64()).sum();
        m.put(
            "trace.overhead_frac",
            traced_loop / untraced_loop - 1.0,
            "ratio",
        );
        put_report_metrics(&mut m, &reports);
    }

    let notes = vec![
        format!(
            "{} untraced and {} traced laps; {} spans kept",
            untraced.len(),
            traced.len(),
            spans.len()
        ),
        if identical {
            "traced reports are byte-identical to the untraced run".to_string()
        } else {
            "traced reports differ from the untraced run: traced numbers withheld".to_string()
        },
    ];
    Ok(Outcome {
        attempted: reference.attempted,
        failed: reference.failed,
        metrics: m,
        notes: notes.into_iter().chain(reference.notes).collect(),
    })
}

/// The per-layer counts the reports carry. For a change that only speeds
/// up the simulator these must repeat exactly.
fn put_report_metrics(m: &mut Metrics, reports: &[&SimReport]) {
    let first = reports[0];
    m.put("mmu.l2_mpki", first.mpki(), "1/kinstr");
    let walks: u64 = reports.iter().map(|r| r.walker.walks).sum();
    let walk_refs: u64 = reports.iter().map(|r| r.walker.mem_refs).sum();
    let psc_hits: u64 = reports.iter().map(|r| r.walker.psc_hits).sum();
    let psc_probes: u64 = reports
        .iter()
        .map(|r| r.walker.psc_hits + r.walker.psc_misses)
        .sum();
    m.put("walker.walks", walks as f64, "count");
    m.put("walker.refs_per_walk", ratio(walk_refs, walks), "count");
    m.put("walker.psc_hit_frac", ratio(psc_hits, psc_probes), "ratio");
    if let Some(pom) = reports
        .iter()
        .find(|r| matches!(r.scheme, Scheme::PomTlb { .. }))
    {
        m.put(
            "pom_tlb.l2d_frac",
            ratio(pom.resolved_l2d, pom.l2_tlb_misses),
            "ratio",
        );
        m.put(
            "pom_tlb.l3d_frac",
            ratio(pom.resolved_l3d, pom.l2_tlb_misses),
            "ratio",
        );
        m.put(
            "pom_tlb.dram_frac",
            ratio(pom.resolved_pom_dram, pom.l2_tlb_misses),
            "ratio",
        );
        m.put(
            "dram.pom_row_hit_frac",
            pom.pom_dram.row_buffer_hit_rate(),
            "ratio",
        );
        m.put("predictor.size_acc", pom.size_pred.accuracy(), "ratio");
        m.put("predictor.bypass_acc", pom.bypass_pred.accuracy(), "ratio");
    }
    let events: u64 = reports.iter().map(|r| r.shootdowns.events).sum();
    let invalidations: u64 = reports
        .iter()
        .map(|r| {
            let s = &r.shootdowns;
            s.sram_invalidations
                + s.shared_l2_invalidations
                + s.tsb_invalidations
                + s.pom_invalidations
                + s.cached_line_invalidations
        })
        .sum();
    m.put("shootdown.events", events as f64, "count");
    m.put("shootdown.invalidations", invalidations as f64, "count");
    for r in reports {
        m.put(
            format!("sim.p_avg_cycles.{}", scheme_key(r.scheme)),
            r.p_avg(),
            "cycles",
        );
    }
}
