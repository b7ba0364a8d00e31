//! Memoized simulation matrix and the anchored performance model.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Mutex;

use pom_tlb::perf_model::improvement_pct;
use pom_tlb::{
    run_jobs_with, share_traces_with_store, JobOutcome, RunPolicy, Scheme, SimConfig, SimJob,
    SimReport, SystemConfig,
};
use pomtlb_tlb::WalkMode;
use pomtlb_trace::{write_staged, TraceStore};
use pomtlb_workloads::PaperWorkload;
use serde::{Deserialize, Serialize};

/// Run-length preset for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// Per-core simulated references after warmup.
    pub refs_per_core: u64,
    /// Per-core warmup references.
    pub warmup_per_core: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ExpConfig {
    /// The default experiment length (≈0.5 s per run in release builds).
    pub fn standard() -> ExpConfig {
        ExpConfig { refs_per_core: 40_000, warmup_per_core: 15_000, seed: 0x90af }
    }

    /// A fast smoke-test length for CI and `--quick`.
    pub fn quick() -> ExpConfig {
        ExpConfig { refs_per_core: 8_000, warmup_per_core: 4_000, seed: 0x90af }
    }

    fn sim(&self) -> SimConfig {
        SimConfig {
            refs_per_core: self.refs_per_core,
            warmup_per_core: self.warmup_per_core,
            seed: self.seed,
        }
    }
}

/// Journal format version; bumped if the line layout ever changes.
const CHECKPOINT_VERSION: u32 = 1;

/// First line of a checkpoint journal: identifies the format and pins the
/// run-length configuration, so a resume against different lengths or a
/// different seed discards the journal instead of mixing incompatible
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CheckpointHeader {
    pomtlb_checkpoint: u32,
    refs_per_core: u64,
    warmup_per_core: u64,
    seed: u64,
}

impl CheckpointHeader {
    fn for_config(cfg: &ExpConfig) -> CheckpointHeader {
        CheckpointHeader {
            pomtlb_checkpoint: CHECKPOINT_VERSION,
            refs_per_core: cfg.refs_per_core,
            warmup_per_core: cfg.warmup_per_core,
            seed: cfg.seed,
        }
    }
}

/// One completed matrix cell, journaled the moment its simulation lands.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointCell {
    workload: String,
    variant: String,
    report: SimReport,
}

/// An append-only JSON-lines journal of completed matrix cells.
///
/// Each line is self-contained, so a run killed mid-sweep leaves at worst
/// one torn final line; resume keeps the valid prefix, drops the tear, and
/// rewrites the journal atomically before appending again. Simulations are
/// deterministic (each cell owns its seed), so cells replayed from the
/// journal are byte-identical to recomputing them — a resumed sweep's
/// output cannot differ from an uninterrupted one.
#[derive(Debug)]
struct Checkpoint {
    path: PathBuf,
    /// Append handle; a Mutex because `execute_plan`'s workers journal
    /// cells from their own threads.
    file: Mutex<fs::File>,
}

impl Checkpoint {
    /// Serializes and appends one completed cell, flushing so a kill right
    /// after costs nothing. Journal I/O is best-effort: a failed append
    /// only warns (the cell is still cached in memory and the sweep goes
    /// on — it would merely be recomputed on a later resume).
    fn append(&self, workload: &str, variant: &str, report: &SimReport) {
        let cell = CheckpointCell {
            workload: workload.to_string(),
            variant: variant.to_string(),
            report: report.clone(),
        };
        let line = match serde_json::to_string(&cell) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("checkpoint: cannot serialize cell {workload}/{variant}: {e}");
                return;
            }
        };
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!("checkpoint: cannot append to {}: {e}", self.path.display());
        }
    }
}

/// Memoized `(workload, scheme, system-variant) → SimReport` runner.
///
/// The anchored performance model lives here too. The paper computes
/// Figure 8 improvements from *measured* baseline penalties (Table 2) and
/// *simulated* scheme penalties (§3.2–3.3); a pure software reproduction
/// has no hardware to measure, so each workload's baseline penalty is
/// anchored at
///
/// ```text
/// P_anchor = max(P_table2, P_sim_baseline)
/// ```
///
/// — the measured number is authoritative where the simulator is too
/// optimistic about walk microarchitecture, and the simulated number is
/// authoritative where our synthetic traces stress contention harder than
/// the original run did. Scheme penalties have their *residual walk*
/// cycles rescaled by `κ = P_anchor / P_sim_baseline` so a scheme's page
/// walks cost what the anchored baseline says walks cost (see
/// `SimReport::p_avg_calibrated`).
pub struct Matrix {
    cfg: ExpConfig,
    cache: HashMap<(String, String), SimReport>,
    /// In plan mode, `report_with` records the job it *would* run and
    /// returns a zeroed placeholder instead of simulating. Jobs are kept in
    /// first-request order (deduplicated), so `execute_plan` warms the
    /// cache deterministically.
    planning: bool,
    planned: Vec<((String, String), SimJob)>,
    planned_keys: HashSet<(String, String)>,
    /// When on, `execute_plan` records each distinct input stream once and
    /// replays it to every scheme sharing it (see [`pom_tlb::share_traces`]).
    trace_cache: bool,
    /// Persistent backing for the trace cache: recordings hit here replay
    /// from disk across invocations (see [`pom_tlb::share_traces_with_store`]).
    trace_store: Option<TraceStore>,
    /// Optional journal of completed cells; `--resume` preloads the cache
    /// from it, so a killed sweep restarts where it stopped.
    checkpoint: Option<Checkpoint>,
    /// Echo each run to stderr as it happens (the full matrix takes a
    /// couple of minutes; silence is unnerving).
    pub verbose: bool,
}

impl Matrix {
    /// Creates an empty matrix.
    pub fn new(cfg: ExpConfig) -> Matrix {
        Matrix {
            cfg,
            cache: HashMap::new(),
            planning: false,
            planned: Vec::new(),
            planned_keys: HashSet::new(),
            trace_cache: false,
            trace_store: None,
            checkpoint: None,
            verbose: true,
        }
    }

    /// Attaches a checkpoint journal at `path` and, with `resume`, preloads
    /// the cache from cells a previous (possibly killed) run journaled
    /// there. Returns how many cells were restored.
    ///
    /// The journal's header must match this matrix's run-length config and
    /// seed; a mismatched or unreadable journal is discarded (restoring 0
    /// cells) rather than mixing incompatible reports. A torn final line —
    /// the signature of a kill mid-append — is dropped and the journal is
    /// compacted to its valid prefix before new cells are appended.
    /// Restored cells satisfy `report_with` straight from the cache, so the
    /// planner never re-runs them, and determinism makes the resumed output
    /// byte-identical to an uninterrupted sweep.
    pub fn set_checkpoint(&mut self, path: impl Into<PathBuf>, resume: bool) -> io::Result<usize> {
        let path = path.into();
        let header = CheckpointHeader::for_config(&self.cfg);
        let mut restored: Vec<CheckpointCell> = Vec::new();
        if resume {
            if let Ok(text) = fs::read_to_string(&path) {
                let mut lines = text.lines();
                let header_ok = lines
                    .next()
                    .and_then(|l| serde_json::from_str::<CheckpointHeader>(l).ok())
                    .is_some_and(|h| h == header);
                if header_ok {
                    for line in lines {
                        match serde_json::from_str::<CheckpointCell>(line) {
                            Ok(cell) => restored.push(cell),
                            // First unreadable line is the torn tail of a
                            // killed append; nothing after it is trusted.
                            Err(_) => break,
                        }
                    }
                } else if self.verbose {
                    eprintln!(
                        "  [ckpt] {} belongs to a different configuration; starting fresh",
                        path.display()
                    );
                }
            }
        }
        // Rewrite header + valid prefix atomically, then keep appending.
        write_staged(&path, |out| {
            writeln!(out, "{}", serde_json::to_string(&header).map_err(io::Error::other)?)?;
            for cell in &restored {
                writeln!(out, "{}", serde_json::to_string(cell).map_err(io::Error::other)?)?;
            }
            Ok(())
        })?;
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        let n = restored.len();
        for cell in restored {
            self.cache.insert((cell.workload, cell.variant), cell.report);
        }
        self.checkpoint = Some(Checkpoint { path, file: Mutex::new(file) });
        Ok(n)
    }

    /// Enables shared-trace execution for planned batches: the scheme ×
    /// variant jobs of one workload consume one recording of its reference
    /// stream instead of regenerating it per job. Replay is bit-identical,
    /// so cached reports — and every figure built from them — are unchanged.
    pub fn set_trace_cache(&mut self, on: bool) {
        self.trace_cache = on;
    }

    /// Backs the trace cache with a persistent store: planned batches
    /// replay recordings from disk when present (map-on-hit) and persist
    /// what they generate (record-on-miss), so a *second* invocation over
    /// the same matrix runs zero generator passes. Implies
    /// [`Matrix::set_trace_cache`]. Store defects degrade to live
    /// generation; output never changes.
    pub fn set_trace_store(&mut self, store: Option<TraceStore>) {
        if store.is_some() {
            self.trace_cache = true;
        }
        self.trace_store = store;
    }

    /// The persistent trace store, if one is attached.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.trace_store.as_ref()
    }

    /// Switches plan mode on or off. While planning, `report_with` records
    /// jobs instead of running them and hands back placeholder reports
    /// ([`SimReport::placeholder`] — every rate is 0, never a panic), so a
    /// figure builder can be walked cheaply to discover its simulations.
    pub fn set_planning(&mut self, on: bool) {
        self.planning = on;
    }

    /// Runs every planned job on `n_workers` threads (see
    /// [`pom_tlb::run_jobs_with`]) and moves the reports into the cache,
    /// then leaves plan mode. Rebuilding the same figures afterwards
    /// replays entirely from the warm cache, so output is byte-identical
    /// to a serial run — each job owns its seed and the cache is keyed
    /// exactly like serial memoization.
    ///
    /// Jobs run under panic isolation: a cell whose simulation panics is
    /// warned about and left uncached (its siblings complete normally),
    /// so the figure pass recomputes it on demand — and only then does the
    /// panic surface, attributed to exactly that cell. With a checkpoint
    /// attached, every completed cell is journaled the moment it lands,
    /// from the worker that ran it.
    pub fn execute_plan(&mut self, n_workers: usize) {
        self.planning = false;
        let planned = std::mem::take(&mut self.planned);
        self.planned_keys.clear();
        if planned.is_empty() {
            return;
        }
        if self.verbose {
            eprintln!("  [plan] {} simulations on {} workers", planned.len(), n_workers);
        }
        let (keys, jobs): (Vec<_>, Vec<_>) = planned.into_iter().unzip();
        let mut jobs = jobs;
        if self.trace_cache {
            let outcome = share_traces_with_store(&mut jobs, self.trace_store.as_ref());
            if self.verbose {
                eprintln!(
                    "  [plan] {} shared trace recording(s) ({} replayed from disk, {} recorded)",
                    outcome.attached, outcome.store_hits, outcome.recorded
                );
            }
        }
        let checkpoint = self.checkpoint.as_ref();
        let observer = |idx: usize, outcome: &JobOutcome| {
            if let (Some(ckpt), Some(result)) = (checkpoint, outcome.result()) {
                let (workload, variant) = &keys[idx];
                ckpt.append(workload, variant, &result.report);
            }
        };
        let outcomes = run_jobs_with(jobs, n_workers, RunPolicy::strict(), &observer);
        for (key, outcome) in keys.iter().zip(outcomes) {
            match outcome {
                JobOutcome::Panicked { label, message, .. } => {
                    eprintln!(
                        "  [plan] job `{label}` panicked ({message}); \
                         cell left uncached for on-demand recompute"
                    );
                }
                other => {
                    if let Some(result) = other.into_result() {
                        self.cache.insert(key.clone(), result.report);
                    }
                }
            }
        }
    }

    /// The run-length configuration.
    pub fn config(&self) -> ExpConfig {
        self.cfg
    }

    /// The `(workload, cell)` keys plan mode has recorded so far, in
    /// first-request order; `cell` is `"{scheme:?}/{variant}"`.
    pub fn planned_cells(&self) -> Vec<(String, String)> {
        self.planned.iter().map(|(key, _)| key.clone()).collect()
    }

    /// The report cached under a key [`Matrix::planned_cells`] returned.
    pub fn cached(&self, workload: &str, cell: &str) -> Option<&SimReport> {
        self.cache.get(&(workload.to_string(), cell.to_string()))
    }

    /// Simulates (or recalls) `workload` under `scheme` on the default
    /// Table 1 system.
    pub fn report(&mut self, w: &PaperWorkload, scheme: Scheme) -> SimReport {
        self.report_with(w, scheme, "default", SystemConfig::default())
    }

    /// Simulates (or recalls) with an explicit system variant; `variant`
    /// names it for memoization (e.g. `"cap8MB"`, `"cores4"`, `"native"`).
    pub fn report_with(
        &mut self,
        w: &PaperWorkload,
        scheme: Scheme,
        variant: &str,
        sys: SystemConfig,
    ) -> SimReport {
        let key = (w.name.to_string(), format!("{scheme:?}/{variant}"));
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        let job = SimJob::new(format!("{}/{}/{variant}", w.name, scheme.label()), &w.spec, scheme, self.cfg.sim())
            .with_system_config(sys)
            .shared_memory(w.suite.shares_memory());
        if self.planning {
            if self.planned_keys.insert(key.clone()) {
                self.planned.push((key, job));
            }
            return SimReport::placeholder(scheme, w.name, 0);
        }
        if self.verbose {
            eprintln!("  [sim] {} / {} / {variant}", w.name, scheme.label());
        }
        let report = job.run();
        if let Some(ckpt) = &self.checkpoint {
            ckpt.append(&key.0, &key.1, &report);
        }
        self.cache.insert(key, report.clone());
        report
    }

    /// The native-execution baseline (1-D walks), for Figure 3.
    pub fn native_baseline(&mut self, w: &PaperWorkload) -> SimReport {
        let sys = SystemConfig { walk_mode: WalkMode::Native, ..Default::default() };
        self.report_with(w, Scheme::Baseline, "native", sys)
    }

    /// The simulated virtualized baseline.
    pub fn baseline(&mut self, w: &PaperWorkload) -> SimReport {
        self.report(w, Scheme::Baseline)
    }

    /// The anchored baseline penalty (see type-level docs).
    pub fn p_anchor(&mut self, w: &PaperWorkload) -> f64 {
        let sim = self.baseline(w).p_avg();
        sim.max(w.table2.cycles_per_miss_virtual)
    }

    /// The walk re-pricing factor κ.
    pub fn kappa(&mut self, w: &PaperWorkload) -> f64 {
        let sim = self.baseline(w).p_avg();
        if sim <= 0.0 {
            1.0
        } else {
            self.p_anchor(w) / sim
        }
    }

    /// A scheme's calibrated per-miss penalty.
    pub fn p_scheme(&mut self, w: &PaperWorkload, scheme: Scheme) -> f64 {
        let kappa = self.kappa(w);
        self.report(w, scheme).p_avg_calibrated(kappa)
    }

    /// Figure 8's quantity: percentage performance improvement of `scheme`
    /// over the anchored baseline under the paper's additive model.
    pub fn improvement(&mut self, w: &PaperWorkload, scheme: Scheme) -> f64 {
        let anchor = self.p_anchor(w);
        let p = self.p_scheme(w, scheme);
        improvement_pct(w.table2.overhead_virtual_pct, anchor, p)
    }

    /// Like [`Matrix::improvement`] but for an explicit system variant.
    pub fn improvement_with(
        &mut self,
        w: &PaperWorkload,
        scheme: Scheme,
        variant: &str,
        sys: SystemConfig,
    ) -> f64 {
        let anchor = self.p_anchor(w);
        let kappa = self.kappa(w);
        let p = self.report_with(w, scheme, variant, sys).p_avg_calibrated(kappa);
        improvement_pct(w.table2.overhead_virtual_pct, anchor, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_workloads::by_name;

    fn tiny() -> ExpConfig {
        ExpConfig { refs_per_core: 2_000, warmup_per_core: 1_000, seed: 3 }
    }

    #[test]
    fn memoization_returns_identical_reports() {
        let mut m = Matrix::new(tiny());
        m.verbose = false;
        let w = by_name("streamcluster").unwrap();
        let a = m.report(&w, Scheme::pom_tlb());
        let b = m.report(&w, Scheme::pom_tlb());
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
        assert_eq!(a.total_penalty, b.total_penalty);
    }

    #[test]
    fn anchor_is_at_least_table2() {
        let mut m = Matrix::new(tiny());
        m.verbose = false;
        let w = by_name("mcf").unwrap();
        assert!(m.p_anchor(&w) >= w.table2.cycles_per_miss_virtual);
        assert!(m.kappa(&w) >= 1.0);
    }

    #[test]
    fn plan_then_execute_matches_serial() {
        let w = by_name("streamcluster").unwrap();

        let mut serial = Matrix::new(tiny());
        serial.verbose = false;
        let want_base = serial.baseline(&w);
        let want_pom = serial.report(&w, Scheme::pom_tlb());

        let mut planned = Matrix::new(tiny());
        planned.verbose = false;
        planned.set_planning(true);
        // Placeholders during planning: identity only, all counters zero.
        let ph = planned.baseline(&w);
        assert_eq!(ph.refs, 0);
        let _ = planned.report(&w, Scheme::pom_tlb());
        let _ = planned.baseline(&w); // duplicate request is deduplicated
        planned.execute_plan(2);

        // Replay comes from the warm cache and matches the serial run.
        let a = planned.baseline(&w);
        let b = planned.report(&w, Scheme::pom_tlb());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&want_base).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&b).unwrap(),
            serde_json::to_string(&want_pom).unwrap()
        );
    }

    #[test]
    fn trace_cached_plan_matches_serial() {
        let w = by_name("gups").unwrap();

        let mut serial = Matrix::new(tiny());
        serial.verbose = false;
        let want: Vec<SimReport> =
            [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb]
                .into_iter()
                .map(|s| serial.report(&w, s))
                .collect();

        let mut cached = Matrix::new(tiny());
        cached.verbose = false;
        cached.set_trace_cache(true);
        cached.set_planning(true);
        for s in [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb] {
            let _ = cached.report(&w, s);
        }
        cached.execute_plan(2);

        for (s, want) in
            [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb]
                .into_iter()
                .zip(&want)
        {
            let got = cached.report(&w, s);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{s:?} diverged");
        }
    }

    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> TempFile {
            TempFile(
                std::env::temp_dir()
                    .join(format!("pomtlb-ckpt-{tag}-{}.jsonl", std::process::id())),
            )
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    fn all_schemes() -> [Scheme; 4] {
        [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb]
    }

    /// Offline builds stub serde_json with an always-Err serializer; the
    /// journal cannot be written at all there, so the checkpoint tests
    /// only run where serialization is functional.
    fn serde_is_stubbed() -> bool {
        serde_json::to_string(&CheckpointHeader::for_config(&tiny())).is_err()
    }

    #[test]
    fn resumed_checkpoint_run_is_byte_identical() {
        if serde_is_stubbed() {
            eprintln!("serde_json stubbed; skipping checkpoint round trip");
            return;
        }
        let w = by_name("gups").unwrap();
        let ckpt = TempFile::new("resume");
        let _ = fs::remove_file(&ckpt.0);

        // Ground truth: an uninterrupted, checkpoint-free run.
        let mut truth = Matrix::new(tiny());
        truth.verbose = false;
        let want: Vec<String> = all_schemes()
            .into_iter()
            .map(|s| serde_json::to_string(&truth.report(&w, s)).unwrap())
            .collect();

        // "Killed" run: journals only the first two cells, then the
        // process (here: the Matrix) goes away.
        let mut first = Matrix::new(tiny());
        first.verbose = false;
        assert_eq!(first.set_checkpoint(&ckpt.0, true).unwrap(), 0, "nothing to resume yet");
        first.set_planning(true);
        for s in &all_schemes()[..2] {
            let _ = first.report(&w, *s);
        }
        first.execute_plan(2);
        drop(first);

        // Resumed run: the two journaled cells preload the cache (and must
        // not be planned again); the rest run now.
        let mut second = Matrix::new(tiny());
        second.verbose = false;
        let restored = second.set_checkpoint(&ckpt.0, true).unwrap();
        assert_eq!(restored, 2, "both completed cells come back");
        second.set_planning(true);
        for s in all_schemes() {
            let _ = second.report(&w, s);
        }
        assert_eq!(second.planned.len(), 2, "restored cells are not re-planned");
        second.execute_plan(2);
        for (s, want) in all_schemes().into_iter().zip(&want) {
            let got = serde_json::to_string(&second.report(&w, s)).unwrap();
            assert_eq!(&got, want, "{s:?} diverged after resume");
        }

        // Third run over the fully-journaled matrix: pure replay.
        let mut third = Matrix::new(tiny());
        third.verbose = false;
        assert_eq!(third.set_checkpoint(&ckpt.0, true).unwrap(), 4);
        for (s, want) in all_schemes().into_iter().zip(&want) {
            let got = serde_json::to_string(&third.report(&w, s)).unwrap();
            assert_eq!(&got, want, "{s:?} diverged on full replay");
        }
    }

    #[test]
    fn torn_tail_and_foreign_headers_are_discarded() {
        if serde_is_stubbed() {
            eprintln!("serde_json stubbed; skipping torn-tail test");
            return;
        }
        let w = by_name("streamcluster").unwrap();
        let ckpt = TempFile::new("torn");
        let _ = fs::remove_file(&ckpt.0);

        let mut m = Matrix::new(tiny());
        m.verbose = false;
        m.set_checkpoint(&ckpt.0, false).unwrap();
        let want = serde_json::to_string(&m.baseline(&w)).unwrap();
        drop(m);

        // A kill mid-append leaves a torn final line.
        let mut text = fs::read_to_string(&ckpt.0).unwrap();
        text.push_str("{\"workload\":\"gups\",\"vari");
        fs::write(&ckpt.0, &text).unwrap();

        let mut resumed = Matrix::new(tiny());
        resumed.verbose = false;
        assert_eq!(resumed.set_checkpoint(&ckpt.0, true).unwrap(), 1, "valid prefix survives");
        assert_eq!(serde_json::to_string(&resumed.baseline(&w)).unwrap(), want);
        // The compacted journal has no tear left (its only cell is the
        // streamcluster baseline; the torn gups fragment is gone).
        assert!(!fs::read_to_string(&ckpt.0).unwrap().contains("gups"));

        // A journal recorded under different run lengths must not leak
        // its cells into this configuration.
        let mut other_cfg = Matrix::new(ExpConfig { refs_per_core: 999, ..tiny() });
        other_cfg.verbose = false;
        assert_eq!(other_cfg.set_checkpoint(&ckpt.0, true).unwrap(), 0);
    }

    #[test]
    fn variants_are_cached_separately() {
        let mut m = Matrix::new(tiny());
        m.verbose = false;
        let w = by_name("streamcluster").unwrap();
        let virt = m.baseline(&w);
        let native = m.native_baseline(&w);
        // Native walks are structurally cheaper.
        assert!(native.p_avg() < virt.p_avg());
    }
}
