//! Job-level parallel execution of independent simulations.
//!
//! Every experiment in this repository — scheme comparisons, capacity and
//! core-count sweeps, the full figure matrix — decomposes into *independent*
//! simulation runs: each owns its RNG seed, its page tables and its system
//! state, and shares nothing with its siblings. That makes the sweep matrix
//! embarrassingly parallel at job granularity while each simulation stays
//! single-threaded and bit-for-bit deterministic (the determinism contract
//! of DESIGN.md §3).
//!
//! [`run_jobs_with`] executes a batch of [`SimJob`]s on a scoped worker
//! pool (`std::thread::scope`, no extra dependencies) with *panic
//! isolation*: each job runs under `catch_unwind`, so one diverging
//! simulation cannot take down a multi-hour sweep. A [`RunPolicy`] bounds
//! retries for transiently-failing jobs and flags jobs that blow a soft
//! wall-clock budget; every slot comes back as a [`JobOutcome`] in the
//! *submission* order regardless of completion order, so any output derived
//! from a batch — tables, JSON artifacts — is byte-identical to a serial
//! run of the same jobs. [`run_jobs`] is the historical strict wrapper:
//! it still completes every sibling before surfacing the first failure as
//! a panic.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pomtlb_trace::{AddressLayout, SharedTrace, TraceKey, TraceStore, WorkloadSpec};

use crate::chunk::StorageBytes;
use crate::config::{SimConfig, SystemConfig};
use crate::fault::FaultConfig;
use crate::report::SimReport;
use crate::scheme::Scheme;
use crate::system::Simulation;

/// One fully-specified simulation run: everything [`Simulation`]'s builder
/// takes, captured as plain data so the job can execute on any thread.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Display label (workload / scheme / variant), carried into the result.
    pub label: String,
    /// The workload to synthesize.
    pub spec: WorkloadSpec,
    /// Translation scheme.
    pub scheme: Scheme,
    /// Run lengths and RNG seed — each job owns its seed.
    pub sim: SimConfig,
    /// Hardware configuration.
    pub sys: SystemConfig,
    /// Shared-address-space (PARSEC/graph) vs SPECrate-copies mode.
    pub shared_memory: bool,
    /// Steady-state pre-population (see `Simulation::prepopulate`).
    pub prepopulate: bool,
    /// Stale-translation watchdog override; `None` keeps the build default.
    pub check_consistency: Option<bool>,
    /// Pre-recorded input stream to replay instead of generating (see
    /// [`share_traces`]). Jobs sharing one recording hold clones of one
    /// `Arc`.
    pub trace: Option<Arc<SharedTrace>>,
    /// Simulated fault injection for this run (see [`crate::fault`]).
    pub faults: Option<FaultConfig>,
    /// Harness fault injection: deliberately panic the first N attempts
    /// (see [`SimJob::sabotage_panics`]). Test hook for the runner's own
    /// isolation and retry machinery.
    pub sabotage: Option<Sabotage>,
}

/// A deliberate, bounded panic planted in a job — the harness-level fault
/// the runner's isolation/retry machinery is tested against. The counter
/// is shared across clones of the job, so "panic twice then succeed"
/// means twice total, not twice per attempt site.
#[derive(Debug, Clone)]
pub struct Sabotage {
    message: String,
    remaining: Arc<AtomicU32>,
}

impl Sabotage {
    /// Panics with the configured message if any sabotaged attempts
    /// remain, consuming one; otherwise returns normally.
    pub(crate) fn trip(&self) {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        while cur > 0 {
            match self.remaining.compare_exchange(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => panic!("{}", self.message),
                Err(now) => cur = now,
            }
        }
    }
}

impl SimJob {
    /// A job with the builder's defaults (prepopulated, watchdog default).
    pub fn new(label: impl Into<String>, spec: &WorkloadSpec, scheme: Scheme, sim: SimConfig) -> SimJob {
        SimJob {
            label: label.into(),
            spec: spec.clone(),
            scheme,
            sim,
            sys: SystemConfig::default(),
            shared_memory: false,
            prepopulate: true,
            check_consistency: None,
            trace: None,
            faults: None,
            sabotage: None,
        }
    }

    /// Overrides the hardware configuration.
    pub fn with_system_config(mut self, sys: SystemConfig) -> SimJob {
        self.sys = sys;
        self
    }

    /// Sets shared-address-space mode.
    pub fn shared_memory(mut self, shared: bool) -> SimJob {
        self.shared_memory = shared;
        self
    }

    /// Arms simulated fault injection for this job (see [`crate::fault`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> SimJob {
        self.faults = Some(faults);
        self
    }

    /// Harness fault injection: the job's first `times` executions panic
    /// with `message` instead of simulating; later executions run
    /// normally. This is how the runner's panic isolation and retry
    /// machinery is exercised without a genuinely broken simulation.
    pub fn sabotage_panics(mut self, message: impl Into<String>, times: u32) -> SimJob {
        self.sabotage = Some(Sabotage {
            message: message.into(),
            remaining: Arc::new(AtomicU32::new(times)),
        });
        self
    }

    /// The total reference budget (warmup + measured, summed over cores) a
    /// replayed trace must cover for this job.
    fn total_refs(&self) -> u64 {
        (self.sim.warmup_per_core + self.sim.refs_per_core) * self.sys.n_cores as u64
    }

    /// How long this job should run, in the pool's start order's units:
    /// its reference budget plus one unit per page prepopulated into a
    /// POM-TLB or TSB (the in-DRAM fills that make those jobs' setup
    /// several times the others').
    fn expected_work(&self) -> u64 {
        let fills_dram_structure = matches!(self.scheme, Scheme::PomTlb { .. } | Scheme::Tsb);
        let prepopulated = if self.prepopulate && fills_dram_structure {
            let spaces = if self.shared_memory { 1 } else { self.sys.n_cores as u64 };
            AddressLayout::of_spec(&self.spec).total_pages().saturating_mul(spaces)
        } else {
            0
        };
        self.total_refs().saturating_add(prepopulated)
    }

    /// Executes the simulation synchronously on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the job was sabotaged ([`SimJob::sabotage_panics`]) and
    /// sabotaged attempts remain, or if the simulation itself panics
    /// (e.g. the stale watchdog fires without fault injection armed).
    pub fn run(&self) -> SimReport {
        self.run_measured().0
    }

    /// [`SimJob::run`], also returning the storage the run allocated.
    fn run_measured(&self) -> (SimReport, StorageBytes, Duration) {
        if let Some(sabotage) = &self.sabotage {
            sabotage.trip();
        }
        let start = Instant::now();
        let mut sim = self.to_simulation().begin();
        let begin = start.elapsed();
        sim.advance(u64::MAX);
        (sim.finish(), sim.storage_bytes(), begin)
    }

    /// Builds the [`Simulation`] this job describes, without running it,
    /// so a caller can [`Simulation::begin`] a resumable run; sabotage is
    /// *not* tripped here (it belongs to the execution attempt, not to
    /// construction).
    pub fn to_simulation(&self) -> Simulation {
        let mut sim = Simulation::new(&self.spec, self.scheme, self.sim)
            .shared_memory(self.shared_memory)
            .with_system_config(self.sys.clone())
            .prepopulate(self.prepopulate);
        if let Some(on) = self.check_consistency {
            sim = sim.check_consistency(on);
        }
        if let Some(trace) = &self.trace {
            sim = sim.with_trace(Arc::clone(trace));
        }
        if let Some(faults) = self.faults {
            sim = sim.with_faults(faults);
        }
        sim
    }
}

/// What [`share_traces_with_store`] did for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareOutcome {
    /// Distinct input streams attached across the batch.
    pub attached: usize,
    /// Streams generated live this call (store misses, or no store).
    pub recorded: usize,
    /// Streams replayed from the persistent store.
    pub store_hits: usize,
    /// Distinct streams the store lacked (absent or unusable on disk).
    pub store_misses: usize,
    /// Total byte footprint of store-replayed recordings, read from their
    /// files.
    pub bytes_mapped: u64,
}

/// Records each distinct input stream in `jobs` once and attaches the
/// recording to every job that consumes it, so a compare/sweep batch
/// generates each (workload, seed, core-count) trace a single time instead
/// of once per scheme. Returns the number of distinct recordings made.
///
/// Jobs are grouped by the exact parameters that determine the stream —
/// spec, seed, core count, sharing mode and reference budget — and replay
/// is bit-identical to live generation, so batch output is unchanged.
/// Jobs that already carry a trace are left alone.
pub fn share_traces(jobs: &mut [SimJob]) -> usize {
    share_traces_with_store(jobs, None).attached
}

/// [`share_traces`] backed by a persistent [`TraceStore`]: each distinct
/// stream is replayed from disk when a valid recording exists
/// (*map-on-hit*) and generated live then persisted when it does not
/// (*record-on-miss*), so a second invocation over the same batch — even in
/// a new process — runs zero generator passes.
///
/// With `store: None` this is exactly [`share_traces`]. Store defects
/// (corruption, version mismatch, truncation) degrade to live generation —
/// transient I/O errors are first retried with capped exponential backoff
/// inside [`TraceStore::load`] — and persistence failures only warn; the
/// batch output is byte-identical to a storeless run in every case.
pub fn share_traces_with_store(jobs: &mut [SimJob], store: Option<&TraceStore>) -> ShareOutcome {
    let mut outcome = ShareOutcome::default();
    let mut recordings: Vec<Arc<SharedTrace>> = Vec::new();
    for job in jobs.iter_mut() {
        if job.trace.is_some() {
            continue;
        }
        let n = job.sys.n_cores;
        let total = job.total_refs();
        let existing = recordings.iter().find(|t| {
            t.matches(&job.spec, job.sim.seed, n, job.shared_memory, total)
        });
        let trace = match existing {
            Some(t) => Arc::clone(t),
            None => {
                let from_store = store.and_then(|s| {
                    let key = TraceKey {
                        spec: job.spec.clone(),
                        seed: job.sim.seed,
                        n_cores: n,
                        shared_memory: job.shared_memory,
                        total_refs: total,
                    };
                    s.load(&key)
                });
                let t = match from_store {
                    Some(t) => {
                        outcome.store_hits += 1;
                        outcome.bytes_mapped += t.buffer_bytes() as u64;
                        t
                    }
                    None => {
                        if store.is_some() {
                            outcome.store_misses += 1;
                        }
                        let t = Arc::new(SharedTrace::generate(
                            &job.spec,
                            job.sim.seed,
                            n,
                            job.shared_memory,
                            total,
                        ));
                        if let Some(s) = store {
                            if let Err(e) = s.save(&t) {
                                eprintln!(
                                    "trace-store: cannot persist recording for `{}`: {e}",
                                    job.spec.name
                                );
                            }
                        }
                        outcome.recorded += 1;
                        t
                    }
                };
                outcome.attached += 1;
                recordings.push(Arc::clone(&t));
                t
            }
        };
        job.trace = Some(trace);
    }
    outcome
}

/// The outcome of one job: the report plus wall-clock accounting.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label, echoed back.
    pub label: String,
    /// The simulation's report.
    pub report: SimReport,
    /// Wall time this job took on its worker.
    pub wall: Duration,
    /// The part of `wall` its last attempt spent in `Simulation::begin`:
    /// building the machine and prepopulating it.
    pub begin: Duration,
    /// Translation-structure storage the job allocated.
    pub storage: StorageBytes,
}

impl JobResult {
    /// Simulated post-warmup references per wall-clock second of the
    /// reference loop: `wall` less `begin`.
    pub fn refs_per_sec(&self) -> f64 {
        let secs = self.wall.saturating_sub(self.begin).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.report.refs as f64 / secs
        }
    }
}

/// How [`run_jobs_with`] treats a job that panics or overruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Re-run a panicking job up to this many additional times before
    /// reporting it [`JobOutcome::Panicked`]. Simulations are
    /// deterministic, so retries only help against *harness* faults
    /// (trace-store I/O, sabotage, resource exhaustion) — keep this small.
    pub max_retries: u32,
    /// Soft per-attempt wall-clock budget: an attempt that completes but
    /// took longer comes back as [`JobOutcome::TimedOut`] (the report is
    /// kept — the flag marks the job for operator attention, it does not
    /// discard work or abort the attempt mid-flight).
    pub soft_timeout: Option<Duration>,
    /// Hard wall-clock budget for the *whole batch*, measured from the
    /// moment [`run_jobs_with`] starts. Jobs are never killed mid-attempt
    /// — attempts are single-threaded simulation loops with no safe
    /// preemption point — but once the budget is spent, no *new* attempt
    /// starts: jobs not yet begun (and retries of panicked attempts) come
    /// back as [`JobOutcome::DeadlineExceeded`]. `None` means unbounded.
    pub deadline: Option<Duration>,
}

impl Default for RunPolicy {
    fn default() -> RunPolicy {
        RunPolicy { max_retries: 1, soft_timeout: None, deadline: None }
    }
}

impl RunPolicy {
    /// No retries, no timeout flagging — the historical strict behaviour.
    pub fn strict() -> RunPolicy {
        RunPolicy { max_retries: 0, soft_timeout: None, deadline: None }
    }

    /// The strict policy bounded by a whole-batch deadline.
    pub fn with_deadline(deadline: Duration) -> RunPolicy {
        RunPolicy { deadline: Some(deadline), ..RunPolicy::strict() }
    }
}

/// How one job in a batch ended.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Completed on the first attempt, inside the soft time budget.
    Ok(JobResult),
    /// Completed after one or more panicking attempts.
    Retried {
        /// The completed result.
        result: JobResult,
        /// Panicking attempts before the success.
        retries: u32,
    },
    /// Completed, but the successful attempt exceeded the soft timeout.
    TimedOut {
        /// The completed (kept) result.
        result: JobResult,
        /// The budget the attempt blew.
        limit: Duration,
    },
    /// Every permitted attempt panicked; the job produced no report.
    Panicked {
        /// The job's label, for attribution in sweep output.
        label: String,
        /// The (last) panic message.
        message: String,
        /// Attempts made, all panicking.
        attempts: u32,
    },
    /// The batch deadline ([`RunPolicy::deadline`]) expired before this
    /// job could start (or restart after a panic); no report was produced.
    DeadlineExceeded {
        /// The job's label, for attribution in sweep output.
        label: String,
    },
}

impl JobOutcome {
    /// The job's label, whatever happened.
    pub fn label(&self) -> &str {
        match self {
            JobOutcome::Ok(r) | JobOutcome::Retried { result: r, .. } => &r.label,
            JobOutcome::TimedOut { result: r, .. } => &r.label,
            JobOutcome::Panicked { label, .. } => label,
            JobOutcome::DeadlineExceeded { label } => label,
        }
    }

    /// The completed result, unless the job panicked or missed the deadline.
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            JobOutcome::Ok(r) | JobOutcome::Retried { result: r, .. } => Some(r),
            JobOutcome::TimedOut { result: r, .. } => Some(r),
            JobOutcome::Panicked { .. } | JobOutcome::DeadlineExceeded { .. } => None,
        }
    }

    /// Consumes the outcome into its completed result, if any.
    pub fn into_result(self) -> Option<JobResult> {
        match self {
            JobOutcome::Ok(r) | JobOutcome::Retried { result: r, .. } => Some(r),
            JobOutcome::TimedOut { result: r, .. } => Some(r),
            JobOutcome::Panicked { .. } | JobOutcome::DeadlineExceeded { .. } => None,
        }
    }

    /// Whether the job produced a report (retried and timed-out jobs did).
    pub fn completed(&self) -> bool {
        !matches!(
            self,
            JobOutcome::Panicked { .. } | JobOutcome::DeadlineExceeded { .. }
        )
    }

    /// One-word tag for tables and logs.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Retried { .. } => "retried",
            JobOutcome::TimedOut { .. } => "timed-out",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::DeadlineExceeded { .. } => "deadline-exceeded",
        }
    }
}

/// The worker-pool width to use when the user asks for "all cores".
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One job, isolated: attempts under `catch_unwind` until it completes or
/// the retry budget is spent.
///
/// `AssertUnwindSafe` is sound here because a failed attempt's state is
/// discarded wholesale: `SimJob::run` builds a fresh `Simulation` (tables,
/// system, generators) per call, and the only state shared across attempts
/// is the sabotage counter, which is atomic.
fn run_one(job: &SimJob, policy: &RunPolicy, deadline_at: Option<Instant>) -> JobOutcome {
    let mut attempts = 0u32;
    loop {
        // The deadline gates attempt *starts* (first and retry alike):
        // a running attempt is never preempted, so a job that begins just
        // inside the budget may still complete past it.
        if let Some(at) = deadline_at {
            if Instant::now() >= at {
                return JobOutcome::DeadlineExceeded { label: job.label.clone() };
            }
        }
        attempts += 1;
        let start = Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_measured()));
        let wall = start.elapsed();
        match caught {
            Ok((report, storage, begin)) => {
                let result = JobResult { label: job.label.clone(), report, wall, begin, storage };
                if let Some(limit) = policy.soft_timeout {
                    if wall > limit {
                        return JobOutcome::TimedOut { result, limit };
                    }
                }
                return if attempts > 1 {
                    JobOutcome::Retried { result, retries: attempts - 1 }
                } else {
                    JobOutcome::Ok(result)
                };
            }
            Err(payload) => {
                if attempts > policy.max_retries {
                    return JobOutcome::Panicked {
                        label: job.label.clone(),
                        message: panic_text(payload.as_ref()),
                        attempts,
                    };
                }
            }
        }
    }
}

/// Locks a mutex, tolerating poison: a panicking sibling must never cost
/// the batch its completed results (the poisoned state is just "a panic
/// happened while held", and slot writes are single plain stores).
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The order [`run_jobs_with`]'s pool starts `jobs` in: descending
/// expected work, ties in submission order (the sort is stable). Starting
/// the longest job first keeps a batch whose slowest job was submitted
/// last — `compare` submits the TSB last — from leaving a worker idle at
/// its tail.
fn start_order(jobs: &[SimJob]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&idx| std::cmp::Reverse(jobs[idx].expected_work()));
    order
}

/// Runs `jobs` on up to `n_workers` OS threads with panic isolation and
/// returns one [`JobOutcome`] per job in submission order.
///
/// `n_workers <= 1` runs everything serially on the calling thread, in
/// submission order (no pool is spawned); larger values use a scoped pool
/// whose workers claim jobs from one shared queue, longest expected job
/// first. A job that panics is retried per `policy` and, if it keeps
/// panicking, reported as [`JobOutcome::Panicked`] — its siblings run to
/// completion regardless. Because every job is self-contained and seeds
/// its own RNG, completed reports — and anything rendered from them in
/// submission order — are identical whatever `n_workers` is; only wall
/// time changes.
///
/// `observer` is invoked once per job, on the executing thread, right
/// after that job's outcome is decided — the hook sweep checkpointing
/// uses to journal completed cells as they land. Observer calls for
/// different jobs may race; serialize internally if needed.
pub fn run_jobs_with(
    jobs: Vec<SimJob>,
    n_workers: usize,
    policy: RunPolicy,
    observer: &(dyn Fn(usize, &JobOutcome) + Sync),
) -> Vec<JobOutcome> {
    let n_workers = n_workers.max(1).min(jobs.len().max(1));
    let deadline_at = policy.deadline.map(|d| Instant::now() + d);
    if n_workers <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(idx, job)| {
                let outcome = run_one(job, &policy, deadline_at);
                observer(idx, &outcome);
                outcome
            })
            .collect();
    }

    let order = start_order(&jobs);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<JobOutcome>>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || Mutex::new(None));
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| {
                while let Some(&idx) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let outcome = run_one(&jobs[idx], &policy, deadline_at);
                    observer(idx, &outcome);
                    *lock_clean(&slots[idx]) = Some(outcome);
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            // Defensive: with panics caught inside run_one, every claimed
            // index stores an outcome; an empty slot would mean a worker
            // died outside the isolation boundary. Report it as a failed
            // job rather than killing the batch.
            let inner = slot.into_inner().unwrap_or_else(|poison| poison.into_inner());
            inner.unwrap_or_else(|| JobOutcome::Panicked {
                label: format!("job #{idx}"),
                message: "worker terminated before storing an outcome".to_string(),
                attempts: 0,
            })
        })
        .collect()
}

/// Runs `jobs` and returns the results in submission order, panicking if
/// any job failed — but only after every sibling has run to completion
/// (strict policy: no retries).
///
/// # Panics
///
/// Panics with the first failed job's label and message once the whole
/// batch has been attempted.
pub fn run_jobs(jobs: Vec<SimJob>, n_workers: usize) -> Vec<JobResult> {
    let outcomes = run_jobs_with(jobs, n_workers, RunPolicy::strict(), &|_, _| {});
    let mut results = Vec::with_capacity(outcomes.len());
    let mut failure: Option<String> = None;
    for outcome in outcomes {
        match outcome {
            JobOutcome::Panicked { label, message, .. } => {
                if failure.is_none() {
                    failure = Some(format!("job `{label}` panicked: {message}"));
                }
            }
            other => {
                if let Some(result) = other.into_result() {
                    results.push(result);
                }
            }
        }
    }
    if let Some(message) = failure {
        panic!("{message}");
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_trace::LocalityModel;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::builder("runner-unit")
            .footprint_bytes(16 << 20)
            .locality(LocalityModel::UniformRandom)
            .build()
    }

    fn tiny() -> SimConfig {
        SimConfig { refs_per_core: 1_500, warmup_per_core: 500, seed: 42 }
    }

    fn batch() -> Vec<SimJob> {
        [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb]
            .into_iter()
            .map(|s| {
                SimJob::new(format!("{s:?}"), &spec(), s, tiny()).with_system_config(
                    SystemConfig { n_cores: 2, ..Default::default() },
                )
            })
            .collect()
    }

    /// `batch()` with the second job rigged to panic forever.
    fn batch_with_poison() -> Vec<SimJob> {
        let mut jobs = batch();
        jobs[1] = jobs[1].clone().sabotage_panics("deliberate test sabotage", u32::MAX);
        jobs
    }

    #[test]
    fn pool_starts_the_prepopulated_dram_structures_first() {
        // `batch()` is compare-shaped: Baseline, POM-TLB, Shared_L2, TSB.
        assert_eq!(start_order(&batch()), vec![1, 3, 0, 2]);
    }

    #[test]
    fn equal_expected_work_keeps_submission_order() {
        let mut jobs = batch();
        jobs.extend(batch());
        assert_eq!(start_order(&jobs), vec![1, 3, 5, 7, 0, 2, 4, 6]);
        // A larger budget outranks prepopulation of this small footprint.
        jobs[6].sim.refs_per_core *= 10;
        assert_eq!(start_order(&jobs), vec![6, 1, 3, 5, 7, 0, 2, 4]);
    }

    #[test]
    fn without_prepopulation_the_pool_starts_in_submission_order() {
        let jobs: Vec<SimJob> =
            batch().into_iter().map(|j| SimJob { prepopulate: false, ..j }).collect();
        assert_eq!(start_order(&jobs), vec![0, 1, 2, 3]);
    }

    #[test]
    fn results_keep_submission_order() {
        let labels: Vec<String> = run_jobs(batch(), 4).into_iter().map(|r| r.label).collect();
        let expected: Vec<String> = batch().into_iter().map(|j| j.label).collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn each_scheme_stores_only_its_own_structure() {
        // A TSB is 1 Mi slots at 16 bytes each. A POM-TLB stores its
        // 16-byte entries only in the 4 KiB chunks its inserts reached,
        // beside its 16 KiB of chunk tables. The Baseline and Shared_L2
        // machines have no in-DRAM structure.
        const POM_TABLES: u64 = 16 << 10;
        for r in run_jobs(batch(), 1) {
            let (pom_tlb, tsb) = (r.storage.pom_tlb, r.storage.tsb);
            match r.report.scheme {
                Scheme::PomTlb { .. } => {
                    let chunks = pom_tlb.saturating_sub(POM_TABLES) / 4096;
                    assert_eq!(pom_tlb, POM_TABLES + chunks * 4096, "{}", r.label);
                    assert!((1..4096).contains(&chunks), "{}: {chunks} chunks", r.label);
                    assert_eq!(tsb, 0, "{}", r.label);
                }
                Scheme::Tsb => assert_eq!((pom_tlb, tsb), (0, 16 << 20), "{}", r.label),
                Scheme::Baseline | Scheme::SharedL2 => assert_eq!((pom_tlb, tsb), (0, 0), "{}", r.label),
            }
            assert!(r.storage.page_tables > 0, "{}", r.label);
        }
    }

    /// Full-fidelity report fingerprint: JSON when serde_json is
    /// functional, the Debug rendering (which also covers every field)
    /// otherwise.
    fn fingerprint(report: &crate::SimReport) -> String {
        serde_json::to_string(report).unwrap_or_else(|_| format!("{report:?}"))
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = run_jobs(batch(), 1);
        let parallel = run_jobs(batch(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                fingerprint(&a.report),
                fingerprint(&b.report),
                "job {} diverged across worker counts",
                a.label
            );
        }
    }

    #[test]
    fn panicking_job_does_not_abort_siblings() {
        let outcomes = run_jobs_with(batch_with_poison(), 4, RunPolicy::strict(), &|_, _| {});
        assert_eq!(outcomes.len(), 4);
        let expected_label = batch()[1].label.clone();
        for (idx, outcome) in outcomes.iter().enumerate() {
            if idx == 1 {
                let JobOutcome::Panicked { label, message, attempts } = outcome else {
                    panic!("slot 1 must be Panicked, got {}", outcome.status());
                };
                assert_eq!(label, &expected_label);
                assert!(message.contains("deliberate test sabotage"), "{message}");
                assert_eq!(*attempts, 1, "strict policy makes one attempt");
            } else {
                let result = outcome
                    .result()
                    .unwrap_or_else(|| panic!("sibling {idx} must complete"));
                assert!(result.report.refs > 0);
            }
        }
    }

    #[test]
    fn failed_slots_keep_submission_order_and_serial_matches_pooled() {
        let serial = run_jobs_with(batch_with_poison(), 1, RunPolicy::strict(), &|_, _| {});
        let pooled = run_jobs_with(batch_with_poison(), 4, RunPolicy::strict(), &|_, _| {});
        let expected: Vec<String> = batch().into_iter().map(|j| j.label).collect();
        for outcomes in [&serial, &pooled] {
            let labels: Vec<&str> = outcomes.iter().map(|o| o.label()).collect();
            assert_eq!(labels, expected.iter().map(String::as_str).collect::<Vec<_>>());
        }
        for (idx, (a, b)) in serial.iter().zip(&pooled).enumerate() {
            assert_eq!(a.status(), b.status(), "slot {idx} status diverged");
            if let (Some(ra), Some(rb)) = (a.result(), b.result()) {
                assert_eq!(
                    fingerprint(&ra.report),
                    fingerprint(&rb.report),
                    "slot {idx} report diverged across worker counts"
                );
            }
        }
    }

    #[test]
    fn transient_panic_is_retried_and_reported() {
        let mut jobs = batch();
        jobs[2] = jobs[2].clone().sabotage_panics("transient glitch", 1);
        let policy = RunPolicy { max_retries: 2, ..RunPolicy::strict() };
        let outcomes = run_jobs_with(jobs, 2, policy, &|_, _| {});
        let JobOutcome::Retried { result, retries } = &outcomes[2] else {
            panic!("slot 2 must be Retried, got {}", outcomes[2].status());
        };
        assert_eq!(*retries, 1);
        assert!(result.report.refs > 0, "the retried attempt really ran");
        assert!(outcomes.iter().all(|o| o.completed()));
    }

    #[test]
    fn exhausted_retries_report_panicked_with_attempts() {
        let jobs = vec![batch()[0].clone().sabotage_panics("always down", u32::MAX)];
        let policy = RunPolicy { max_retries: 2, ..RunPolicy::strict() };
        let outcomes = run_jobs_with(jobs, 1, policy, &|_, _| {});
        let JobOutcome::Panicked { attempts, message, .. } = &outcomes[0] else {
            panic!("must exhaust retries");
        };
        assert_eq!(*attempts, 3, "initial attempt + 2 retries");
        assert!(message.contains("always down"));
    }

    #[test]
    fn soft_timeout_flags_but_keeps_results() {
        let policy = RunPolicy {
            soft_timeout: Some(Duration::ZERO),
            ..RunPolicy::strict()
        };
        let outcomes = run_jobs_with(batch(), 2, policy, &|_, _| {});
        for outcome in &outcomes {
            let JobOutcome::TimedOut { result, limit } = outcome else {
                panic!("zero budget flags every job, got {}", outcome.status());
            };
            assert_eq!(*limit, Duration::ZERO);
            assert!(result.report.refs > 0, "the report is kept");
        }
    }

    #[test]
    fn expired_deadline_skips_jobs_without_running_them() {
        let policy = RunPolicy::with_deadline(Duration::ZERO);
        let outcomes = run_jobs_with(batch(), 2, policy, &|_, _| {});
        assert_eq!(outcomes.len(), 4);
        let expected: Vec<String> = batch().into_iter().map(|j| j.label).collect();
        for (outcome, label) in outcomes.iter().zip(&expected) {
            assert_eq!(outcome.status(), "deadline-exceeded");
            assert_eq!(outcome.label(), label, "labels survive a missed deadline");
            assert!(outcome.result().is_none(), "no report was produced");
            assert!(!outcome.completed());
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let policy = RunPolicy::with_deadline(Duration::from_secs(3600));
        let outcomes = run_jobs_with(batch(), 2, policy, &|_, _| {});
        assert!(outcomes.iter().all(|o| matches!(o, JobOutcome::Ok(_))));
    }

    #[test]
    fn observer_sees_every_job_exactly_once() {
        let seen = Mutex::new(vec![0u32; 4]);
        let outcomes = run_jobs_with(batch_with_poison(), 4, RunPolicy::strict(), &|idx, o| {
            lock_clean(&seen)[idx] += 1;
            let _ = o.label();
        });
        assert_eq!(outcomes.len(), 4);
        assert_eq!(*lock_clean(&seen), vec![1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "deliberate test sabotage")]
    fn strict_run_jobs_still_panics_on_failure() {
        let _ = run_jobs(batch_with_poison(), 2);
    }

    #[test]
    fn share_traces_records_each_stream_once() {
        let mut jobs = batch();
        let n = share_traces(&mut jobs);
        assert_eq!(n, 1, "four schemes over one workload share one recording");
        let first = jobs[0].trace.as_ref().unwrap();
        for job in &jobs {
            assert!(Arc::ptr_eq(first, job.trace.as_ref().unwrap()));
        }
        // A job with a different seed needs its own recording.
        let mut reseeded = batch();
        reseeded[3].sim.seed = 77;
        assert_eq!(share_traces(&mut reseeded), 2);
        assert!(!Arc::ptr_eq(
            reseeded[0].trace.as_ref().unwrap(),
            reseeded[3].trace.as_ref().unwrap()
        ));
    }

    #[test]
    fn shared_trace_reports_match_generated_reports() {
        let live = run_jobs(batch(), 1);
        let mut jobs = batch();
        share_traces(&mut jobs);
        let replayed = run_jobs(jobs, 1);
        for (a, b) in live.iter().zip(&replayed) {
            let fa = format!("{:?}", a.report);
            let fb = format!("{:?}", b.report);
            assert_eq!(fa, fb, "job {} diverged under trace replay", a.label);
        }
    }

    #[test]
    fn share_traces_with_store_round_trips_across_handles() {
        let dir = std::env::temp_dir()
            .join(format!("pomtlb-runner-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Cold handle: the one distinct stream is generated and persisted.
        let store = TraceStore::open(&dir).expect("open store");
        let mut jobs = batch();
        let cold = share_traces_with_store(&mut jobs, Some(&store));
        assert_eq!((cold.attached, cold.recorded, cold.store_hits), (1, 1, 0));
        assert_eq!(cold.store_misses, 1);
        drop(store);
        // Fresh handle over the same directory: pure replay.
        let store = TraceStore::open(&dir).expect("reopen store");
        let mut jobs = batch();
        let warm = share_traces_with_store(&mut jobs, Some(&store));
        assert_eq!((warm.attached, warm.recorded, warm.store_hits), (1, 0, 1));
        assert!(warm.bytes_mapped > 0);
        assert!(jobs[0].trace.as_ref().unwrap().is_stored());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_jobs(Vec::new(), 8).is_empty());
        assert!(run_jobs(Vec::new(), 0).is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_serial() {
        let r = run_jobs(batch(), 0);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|j| j.report.refs > 0));
    }
}
