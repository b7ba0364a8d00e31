//! Chunk-granular simulation: resumable runs and the work-stealing
//! chunked scheduler.
//!
//! [`crate::runner`] parallelizes at *job* granularity — fine when a batch
//! has more jobs than workers, but a 3×4 compare matrix on a 16-way host
//! leaves workers idle, and one slow cell (a large footprint, a
//! fault-injected run doing repairs) sets the batch's critical path. This
//! module splits each job's reference stream into fixed-size **chunks**
//! and schedules chunks instead:
//!
//! * [`Simulation::begin`] builds everything [`Simulation::run`] would
//!   (system, tables, stream) but stops before the reference loop,
//!   returning a [`ChunkSim`] — the complete mid-stream machine state as
//!   one owned value. [`ChunkSim::advance`] executes the *identical*
//!   per-reference loop for a bounded number of references;
//!   `Simulation::run` itself is now `begin` + one unbounded `advance`,
//!   so chunked and whole-job execution share one code path by
//!   construction.
//! * [`run_jobs_chunked_with`] schedules chunk continuations on one
//!   Chase–Lev deque per worker ([`crate::deque::StealDeque`]): a worker
//!   pushes and pops its own continuations at the bottom (the chunk it
//!   just ran is cache-warm) and steals the *oldest* continuation from a
//!   sibling when its own deque drains. Stealing moves the whole owned
//!   [`ChunkSim`] to the thief through a slab slot, so a job migrates
//!   between workers at chunk boundaries without any shared mutable
//!   simulator state.
//!
//! # Why chunking cannot change a report
//!
//! A job's chunks form a sequential chain — chunk *k+1* starts from the
//! exact machine state chunk *k* left behind, wherever each chunk ran.
//! The determinism contract of DESIGN.md §3 therefore survives: the
//! per-chunk statistics are "merged" in chunk order simply by *being
//! carried* — counters, cache/TLB contents, DRAM bank clocks and RNG
//! cursors all live in the [`ChunkSim`] that moves down the chain — and
//! the final report is read off the cumulative state after the last
//! chunk, exactly as a whole-job run reads it. Only per-chunk wall times
//! are merged explicitly (summed in chunk order into
//! [`JobResult::wall`]). Byte-identical output across serial, pooled
//! whole-job, and chunked execution is asserted by this module's tests
//! and the `integration_chunked_scheduler` suite.
//!
//! # Fault tolerance
//!
//! Each chunk executes under `catch_unwind`. When a chunk panics and the
//! [`RunPolicy`] grants retries, the scheduler rewinds to a snapshot
//! taken just before the chunk ([`ChunkSim::snapshot`] — an arena memcpy
//! of the page tables plus plain clones of the SoA TLB/cache arrays) and
//! re-executes it; streams that cannot snapshot (live generators hold an
//! un-clonable heap of generator states) restart the job from its first
//! chunk instead. Either way the recovery is confined to the one job:
//! sibling jobs own disjoint `ChunkSim`s and never observe a retry.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pomtlb_tlb::{Tsb, VirtTables, WalkMode, MAX_REGIONS};
use pomtlb_trace::{
    AddressLayout, CoreItem, Interleaver, SharedTraceIter, TraceItem, WorkloadStream,
};
use pomtlb_types::{AddressSpace, Cycles, ProcessId, VmId};

use crate::deque::StealDeque;
use crate::pom_tlb::PomTlb;
use crate::report::SimReport;
use crate::runner::{
    lock_clean, panic_text, run_jobs_with, JobOutcome, JobResult, RunPolicy, SimJob,
};
use crate::system::{Simulation, System};

/// Where a [`ChunkSim`] draws its merged reference stream from.
///
/// Live generators are resumable (they sit right here, paused between
/// chunks) but not *clonable* — [`Interleaver`] owns generator heaps with
/// interior cursors that were never built to fork. Replay iterators over
/// a shared recording clone freely. This split is exactly why
/// [`ChunkSim::snapshot`] is an `Option`.
enum StreamSource {
    /// Per-core generators merged on the fly.
    Live(Interleaver<WorkloadStream>),
    /// Replay of a pre-recorded [`pomtlb_trace::SharedTrace`].
    Replay(SharedTraceIter),
}

impl StreamSource {
    fn next(&mut self) -> Option<CoreItem<TraceItem>> {
        match self {
            StreamSource::Live(it) => it.next(),
            StreamSource::Replay(it) => it.next(),
        }
    }
}

/// Per-address-space page tables, created lazily as the reference stream
/// introduces spaces.
///
/// Non-tenancy runs only ever see the base spaces [`Simulation::begin`]
/// pre-creates (one per core, or one shared), in the same creation order
/// as before this struct existed — so their reports are byte-identical.
/// Consolidation runs introduce up to 10k tenant spaces mid-stream; each
/// gets its own tables on first touch. Physical regions are assigned
/// round-robin over the [`MAX_REGIONS`] arena stripes, so beyond 64 live
/// spaces two VMs' frames may alias the same host-physical range — an
/// accepted approximation (every translation structure and the stale
/// watchdog key on the full [`AddressSpace`], so correctness is
/// unaffected; only data-cache contention is modeled as slightly higher).
#[derive(Clone)]
struct SpaceTables {
    list: Vec<VirtTables>,
    index: HashMap<AddressSpace, usize>,
    walk_mode: WalkMode,
}

impl SpaceTables {
    fn new(walk_mode: WalkMode) -> SpaceTables {
        SpaceTables { list: Vec::new(), index: HashMap::new(), walk_mode }
    }

    /// Index of `space`'s tables, creating them on first sight.
    fn slot(&mut self, space: AddressSpace) -> usize {
        if let Some(&i) = self.index.get(&space) {
            return i;
        }
        let i = self.list.len();
        let region = (i as u32) % MAX_REGIONS;
        self.list.push(VirtTables::with_region(self.walk_mode, region));
        self.index.insert(space, i);
        i
    }
}

/// A simulation paused between references: the whole machine state —
/// [`System`], page tables, stream cursor, per-core clocks — as one owned,
/// `Send` value.
///
/// Produced by [`Simulation::begin`]; driven by [`ChunkSim::advance`];
/// reported by [`ChunkSim::finish`]. The chunked scheduler moves these
/// between workers; the fork-modeling example snapshots them.
pub struct ChunkSim {
    stream: StreamSource,
    system: System,
    tables: SpaceTables,
    layout: AddressLayout,
    workload_name: String,
    warm_total: u64,
    main_total: u64,
    refs_done: u64,
    core_stall: Vec<Cycles>,
    icount_latest: Vec<u64>,
    icount_base: Vec<u64>,
}

impl Simulation {
    /// Builds the simulation up to — but not into — the reference loop.
    ///
    /// Everything [`Simulation::run`] constructs (hardware, address
    /// spaces, page tables, optional prepopulation, the merged input
    /// stream) happens here; the returned [`ChunkSim`] holds it all and
    /// has consumed zero references. `run` is literally `begin` +
    /// `advance(u64::MAX)` + `finish`, so resuming in chunks replays the
    /// identical computation.
    pub fn begin(self) -> ChunkSim {
        Simulation::note_simulation_started();
        let n = self.sys_cfg.n_cores;
        let walk_mode = self.sys_cfg.walk_mode;
        let workload_name = self.spec.name.clone();
        let mut system = System::new(self.sys_cfg, self.scheme);
        if let Some(on) = self.check_consistency {
            system.set_check_consistency(on);
        }
        if let Some(cfg) = self.faults {
            system.set_fault_plan(cfg);
        }
        if self.spec.tenancy.active() {
            system.enable_tenancy(self.spec.tenancy.vms);
        }

        let spaces: Vec<AddressSpace> = (0..n)
            .map(|c| {
                let pid = if self.shared_memory { 0 } else { c as u16 };
                AddressSpace::new(VmId(0), ProcessId(pid))
            })
            .collect();
        // Pre-create the base spaces' tables in core order — the same
        // regions, in the same order, as the pre-tenancy fixed layout, so
        // non-tenancy reports stay byte-identical. Tenant spaces the
        // stream introduces later are created lazily by `slot`.
        let mut tables = SpaceTables::new(walk_mode);
        for &space in &spaces {
            tables.slot(space);
        }
        let layout = AddressLayout::of_spec(&self.spec);

        if self.prepopulate {
            // One pass per *distinct* base space (shared memory collapses
            // all cores onto one), exactly as the old per-table loop did.
            let mut seen: Vec<AddressSpace> = Vec::new();
            for &space in &spaces {
                if seen.contains(&space) {
                    continue;
                }
                seen.push(space);
                let ti = tables.slot(space);
                for (page, size) in layout.pages() {
                    let hpa = tables.list[ti].ensure_mapped(page, size);
                    system.note_mapped(space, page, size, hpa);
                    system.prepopulate_translation(space, page, size, hpa);
                }
            }
        }

        let warm_total = self.sim_cfg.warmup_per_core * n as u64;
        let main_total = self.sim_cfg.refs_per_core * n as u64;

        // Input stream: live generators, or a shared recording of the
        // identical stream (one generation amortized over a whole batch).
        let stream = match &self.trace {
            Some(trace) => {
                assert!(
                    trace.matches(
                        &self.spec,
                        self.sim_cfg.seed,
                        n,
                        self.shared_memory,
                        warm_total + main_total,
                    ),
                    "shared trace was recorded for different parameters than this run"
                );
                StreamSource::Replay(trace.replay())
            }
            None => {
                let streams: Vec<WorkloadStream> = (0..n)
                    .map(|c| {
                        WorkloadStream::new(
                            &self.spec,
                            self.sim_cfg.seed + c as u64,
                            spaces[c],
                            n as u16,
                        )
                    })
                    .collect();
                StreamSource::Live(Interleaver::new(streams))
            }
        };

        ChunkSim {
            stream,
            system,
            tables,
            layout,
            workload_name,
            warm_total,
            main_total,
            refs_done: 0,
            core_stall: vec![Cycles::ZERO; n],
            icount_latest: vec![0u64; n],
            icount_base: vec![0u64; n],
        }
    }
}

impl ChunkSim {
    /// Executes up to `max_refs` further memory references and returns how
    /// many actually ran (less than `max_refs` only at end of stream).
    ///
    /// This is the one reference loop in the workspace — byte for byte the
    /// loop `Simulation::run` historically inlined. OS events encountered
    /// along the way are handled where they fall but do not count against
    /// `max_refs` (they never consumed ref budget); the warmup boundary
    /// (stat reset + instruction rebase) fires at the same positional
    /// reference wherever the chunk boundaries land, because `refs_done`
    /// travels with the state.
    pub fn advance(&mut self, max_refs: u64) -> u64 {
        let target = self.total_refs().min(self.refs_done.saturating_add(max_refs));
        let before = self.refs_done;
        while self.refs_done < target {
            let ci = self.stream.next().expect("streams are infinite");
            let core = ci.core;
            let mref = match ci.item {
                TraceItem::Event(event) => {
                    // OS events stall the initiating core but are not
                    // memory references: they don't consume the ref budget
                    // and don't advance the instruction count. Tables are
                    // keyed by the event's own address space — for base
                    // spaces that is the same table the old per-core
                    // indexing chose; tenant churn events hit their VM's.
                    let ti = self.tables.slot(event.space);
                    let penalty =
                        self.system.handle_os_event(core, &event, &mut self.tables.list[ti]);
                    self.core_stall[core.index()] += penalty;
                    continue;
                }
                TraceItem::Ref(mref) => mref,
            };
            if self.refs_done == self.warm_total {
                self.system.reset_stats();
                self.icount_base.copy_from_slice(&self.icount_latest);
            }
            self.refs_done += 1;
            let size = self
                .layout
                .page_size_of(mref.addr)
                .expect("generator addresses stay inside the layout");
            let ti = self.tables.slot(mref.space);
            let hpa = self.tables.list[ti].ensure_mapped(mref.addr, size);
            self.system.note_mapped(mref.space, mref.addr, size, hpa);
            // Per-core wall clock: instruction progress plus translation
            // stalls (blocking, §2.2) plus half the data latency — data
            // accesses are non-blocking and overlap with execution via
            // memory-level parallelism, so they advance the clock at a
            // discounted rate. This paces DRAM arrivals realistically.
            let now = Cycles::new(mref.icount) + self.core_stall[core.index()];
            let (penalty, data_latency) = self.system.access(
                core,
                mref.space,
                mref.addr,
                mref.kind,
                &self.tables.list[ti],
                now,
            );
            self.core_stall[core.index()] += penalty + Cycles::new(data_latency.raw() / 2);
            self.icount_latest[core.index()] = mref.icount;
        }
        self.refs_done - before
    }

    /// Total reference budget (warmup + measured, summed over cores).
    pub fn total_refs(&self) -> u64 {
        self.warm_total + self.main_total
    }

    /// References executed so far.
    pub fn refs_done(&self) -> u64 {
        self.refs_done
    }

    /// References still to run before [`ChunkSim::finish`] is meaningful.
    pub fn remaining_refs(&self) -> u64 {
        self.total_refs() - self.refs_done
    }

    /// Whether the whole reference budget has been executed.
    pub fn is_done(&self) -> bool {
        self.refs_done >= self.total_refs()
    }

    /// Renders the report from the current cumulative state. Callers
    /// normally [`advance`](ChunkSim::advance) to completion first; a
    /// mid-stream call reports the references executed so far.
    pub fn finish(&self) -> SimReport {
        let instructions: u64 = self
            .icount_latest
            .iter()
            .zip(&self.icount_base)
            .map(|(latest, base)| latest - base)
            .sum();
        self.system.report(&self.workload_name, instructions)
    }

    /// A checkpoint of the whole machine mid-stream: page tables (arena
    /// copy), SRAM TLBs and caches (flat SoA clones), POM-TLB partitions,
    /// DRAM bank clocks, fault/RNG cursors, and the replay position.
    ///
    /// Returns `None` when the input is a live generator stream
    /// ([`StreamSource::Live`]) — generator state cannot be forked, which
    /// is one more reason batches record traces first. The chunked
    /// scheduler uses this for chunk-level retry; the fork-modeling
    /// example uses it to clone a VM at a point in time.
    pub fn snapshot(&self) -> Option<ChunkSim> {
        let stream = match &self.stream {
            StreamSource::Live(_) => return None,
            StreamSource::Replay(it) => StreamSource::Replay(it.clone()),
        };
        Some(ChunkSim {
            stream,
            system: self.system.clone(),
            tables: self.tables.clone(),
            layout: self.layout,
            workload_name: self.workload_name.clone(),
            warm_total: self.warm_total,
            main_total: self.main_total,
            refs_done: self.refs_done,
            core_stall: self.core_stall.clone(),
            icount_latest: self.icount_latest.clone(),
            icount_base: self.icount_base.clone(),
        })
    }

    /// Whether [`ChunkSim::snapshot`] can succeed (replayed streams only).
    pub fn can_snapshot(&self) -> bool {
        matches!(self.stream, StreamSource::Replay(_))
    }

    /// Bytes of translation-structure storage this job has allocated in
    /// the simulator's own memory. A [`System`] builds only its scheme's
    /// in-DRAM structure (the POM-TLB or the TSB, or neither); the page
    /// tables grow as the stream maps pages.
    pub fn storage_bytes(&self) -> StorageBytes {
        StorageBytes {
            pom_tlb: self.system.pom().map_or(0, PomTlb::storage_bytes),
            tsb: self.system.tsb().map_or(0, Tsb::storage_bytes),
            page_tables: self.tables.list.iter().map(VirtTables::storage_bytes).sum(),
        }
    }
}

/// Host bytes a job's translation structures occupy: see
/// [`ChunkSim::storage_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBytes {
    /// The POM-TLB's two partitions, 16 bytes per entry.
    pub pom_tlb: u64,
    /// The TSB, 16 bytes per slot.
    pub tsb: u64,
    /// Every address space's radix page-table arenas.
    pub page_tables: u64,
}

// ---------------------------------------------------------------------------
// The chunked work-stealing scheduler.

/// One job's in-flight execution state as it hops between workers.
#[derive(Default)]
struct ChunkTask {
    /// `None` until the first chunk begins the simulation (construction
    /// is deferred so a 100-job batch doesn't hold 100 live systems), and
    /// reset to `None` when a panic forces a restart from chunk zero.
    sim: Option<ChunkSim>,
    /// Pre-chunk checkpoint for chunk-level retry (replayable streams
    /// under a retrying policy only).
    checkpoint: Option<Box<ChunkSim>>,
    /// Wall time accumulated across this job's chunks, in chunk order.
    wall: Duration,
    /// Panicking chunk executions so far.
    failures: u32,
}

/// What one chunk execution decided. The outcome is boxed so the enum
/// stays two words wide on the hot scheduling path.
enum Step {
    /// The job completed (successfully or by exhausting retries).
    Done(Box<JobOutcome>),
    /// More chunks remain; re-queue the continuation.
    Continue,
}

/// Runs one chunk of `task` under panic isolation, honouring `policy`.
fn step_chunk(
    task: &mut ChunkTask,
    job: &SimJob,
    chunk_refs: u64,
    policy: &RunPolicy,
    want_checkpoint: bool,
) -> Step {
    if want_checkpoint {
        task.checkpoint = task.sim.as_ref().and_then(ChunkSim::snapshot).map(Box::new);
    }
    let start = Instant::now();
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // Sabotage fires per chunk *execution*, mirroring its per-attempt
        // semantics in `run_one`: "panic N times" means the first N chunk
        // executions, wherever they run.
        if let Some(sabotage) = &job.sabotage {
            sabotage.trip();
        }
        let sim = task.sim.get_or_insert_with(|| job.to_simulation().begin());
        sim.advance(chunk_refs);
        if sim.is_done() {
            Some((sim.finish(), sim.storage_bytes()))
        } else {
            None
        }
    }));
    task.wall += start.elapsed();
    match caught {
        Ok(Some((report, storage))) => {
            let result = JobResult { label: job.label.clone(), report, wall: task.wall, storage };
            Step::Done(Box::new(match policy.soft_timeout {
                Some(limit) if task.wall > limit => JobOutcome::TimedOut { result, limit },
                _ if task.failures > 0 => {
                    JobOutcome::Retried { result, retries: task.failures }
                }
                _ => JobOutcome::Ok(result),
            }))
        }
        Ok(None) => Step::Continue,
        Err(payload) => {
            task.failures += 1;
            if task.failures > policy.max_retries {
                return Step::Done(Box::new(JobOutcome::Panicked {
                    label: job.label.clone(),
                    message: panic_text(payload.as_ref()),
                    attempts: task.failures,
                }));
            }
            // Recover at the finest grain available: rewind to the
            // pre-chunk checkpoint when one exists, otherwise restart the
            // job from its first chunk. Either way only *this* job's
            // state is touched — siblings own disjoint ChunkSims.
            task.sim = task.checkpoint.take().map(|boxed| *boxed);
            Step::Continue
        }
    }
}

/// Runs `jobs` chunk by chunk on up to `n_workers` threads with Chase–Lev
/// work stealing, returning one [`JobOutcome`] per job in submission
/// order.
///
/// Each job's reference stream is executed in chunks of `chunk_refs`
/// references; a worker runs its own jobs' next chunks back to back
/// (bottom of its deque, state still cache-warm) and steals the oldest
/// continuation from a sibling when idle. `chunk_refs == 0` disables
/// chunking and delegates to [`run_jobs_with`]. Reports are byte-identical
/// to serial and whole-job-pooled execution for any `chunk_refs` and any
/// `n_workers` (see the module docs); panicking chunks are retried per
/// `policy` from a pre-chunk snapshot when the stream supports it, from
/// chunk zero otherwise.
///
/// `observer` is invoked once per *job* (not per chunk), on the thread
/// that ran the final chunk, right after the outcome is decided.
pub fn run_jobs_chunked_with(
    jobs: Vec<SimJob>,
    n_workers: usize,
    chunk_refs: u64,
    policy: RunPolicy,
    observer: &(dyn Fn(usize, &JobOutcome) + Sync),
) -> Vec<JobOutcome> {
    if chunk_refs == 0 {
        return run_jobs_with(jobs, n_workers, policy, observer);
    }
    let n_workers = n_workers.max(1).min(jobs.len().max(1));
    let want_checkpoint = policy.max_retries > 0;
    if n_workers <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(idx, job)| {
                let mut task = ChunkTask::default();
                loop {
                    if let Step::Done(outcome) =
                        step_chunk(&mut task, job, chunk_refs, &policy, want_checkpoint)
                    {
                        observer(idx, &outcome);
                        break *outcome;
                    }
                }
            })
            .collect();
    }

    let n_jobs = jobs.len();
    let mut slab: Vec<Mutex<Option<ChunkTask>>> = Vec::with_capacity(n_jobs);
    slab.resize_with(n_jobs, || Mutex::new(Some(ChunkTask::default())));
    let mut slots: Vec<Mutex<Option<JobOutcome>>> = Vec::with_capacity(n_jobs);
    slots.resize_with(n_jobs, || Mutex::new(None));
    let deques: Vec<StealDeque> = (0..n_workers).map(|_| StealDeque::new(n_jobs)).collect();
    // Initial distribution: round-robin across workers, before any worker
    // exists — these are the only pushes not made by a deque's owner.
    for idx in 0..n_jobs {
        deques[idx % n_workers].push(idx);
    }
    let remaining = AtomicUsize::new(n_jobs);

    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let (deques, slab, slots, jobs, remaining, policy) =
                (&deques, &slab, &slots, &jobs, &remaining, &policy);
            scope.spawn(move || loop {
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Own continuations first (LIFO, cache-warm), then scan
                // the other workers' deques oldest-first.
                let found = deques[w].pop().or_else(|| {
                    (1..n_workers).find_map(|d| deques[(w + d) % n_workers].steal())
                });
                let Some(idx) = found else {
                    std::thread::yield_now();
                    continue;
                };
                // The deque routed us the index; the slab hands over the
                // owned state. Every queued index has its task parked
                // (tasks are re-parked before re-queuing), so an empty
                // slot would be a routing bug — skip defensively.
                let Some(mut task) = lock_clean(&slab[idx]).take() else { continue };
                match step_chunk(&mut task, &jobs[idx], chunk_refs, policy, want_checkpoint) {
                    Step::Done(outcome) => {
                        observer(idx, &outcome);
                        *lock_clean(&slots[idx]) = Some(*outcome);
                        remaining.fetch_sub(1, Ordering::Release);
                    }
                    Step::Continue => {
                        *lock_clean(&slab[idx]) = Some(task);
                        deques[w].push(idx);
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            let inner = slot.into_inner().unwrap_or_else(|poison| poison.into_inner());
            inner.unwrap_or_else(|| JobOutcome::Panicked {
                label: format!("job #{idx}"),
                message: "worker terminated before storing an outcome".to_string(),
                attempts: 0,
            })
        })
        .collect()
}

/// Strict chunked execution: [`run_jobs_chunked_with`] under
/// [`RunPolicy::strict`], panicking (after the whole batch has been
/// attempted) if any job failed — the chunked analogue of
/// [`crate::runner::run_jobs`].
///
/// # Panics
///
/// Panics with the first failed job's label and message once every
/// sibling has run to completion.
pub fn run_jobs_chunked(jobs: Vec<SimJob>, n_workers: usize, chunk_refs: u64) -> Vec<JobResult> {
    let outcomes =
        run_jobs_chunked_with(jobs, n_workers, chunk_refs, RunPolicy::strict(), &|_, _| {});
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
    use crate::config::{SimConfig, SystemConfig};
    use crate::runner::{run_jobs, share_traces};
    use crate::scheme::Scheme;
    use pomtlb_trace::{LocalityModel, WorkloadSpec};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::builder("chunk-unit")
            .footprint_bytes(16 << 20)
            .locality(LocalityModel::PointerChase { hot_frac: 0.2, hot_prob: 0.7 })
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

    fn fingerprint(report: &SimReport) -> String {
        serde_json::to_string(report).unwrap_or_else(|_| format!("{report:?}"))
    }

    #[test]
    fn run_equals_begin_advance_finish_in_chunks() {
        let job = batch().remove(1);
        let whole = job.to_simulation().run();
        let mut chunked = job.to_simulation().begin();
        let mut total = 0;
        loop {
            let n = chunked.advance(700);
            total += n;
            if chunked.is_done() {
                break;
            }
            assert_eq!(n, 700, "non-final chunks run exactly the requested refs");
        }
        assert_eq!(total, chunked.total_refs());
        assert_eq!(fingerprint(&whole), fingerprint(&chunked.finish()));
    }

    #[test]
    fn snapshot_resumes_bit_identically_mid_stream() {
        let mut jobs = batch();
        share_traces(&mut jobs);
        let job = jobs.remove(0);
        let mut sim = job.to_simulation().begin();
        sim.advance(1_300);
        let mut resumed = sim.snapshot().expect("replayed streams snapshot");
        sim.advance(u64::MAX);
        resumed.advance(u64::MAX);
        assert_eq!(fingerprint(&sim.finish()), fingerprint(&resumed.finish()));
    }

    #[test]
    fn live_streams_cannot_snapshot_replayed_streams_can() {
        let live = batch().remove(0).to_simulation().begin();
        assert!(!live.can_snapshot());
        assert!(live.snapshot().is_none());
        let mut jobs = batch();
        share_traces(&mut jobs);
        let replayed = jobs.remove(0).to_simulation().begin();
        assert!(replayed.can_snapshot());
        assert!(replayed.snapshot().is_some());
    }

    #[test]
    fn chunked_stealing_matches_serial_bit_for_bit() {
        let serial = run_jobs(batch(), 1);
        for (workers, chunk) in [(2, 400), (3, 700), (4, 950)] {
            let chunked = run_jobs_chunked(batch(), workers, chunk);
            assert_eq!(serial.len(), chunked.len());
            for (a, b) in serial.iter().zip(&chunked) {
                assert_eq!(a.label, b.label);
                assert_eq!(
                    fingerprint(&a.report),
                    fingerprint(&b.report),
                    "job {} diverged under {workers} workers / {chunk}-ref chunks",
                    a.label
                );
            }
        }
    }

    #[test]
    fn zero_chunk_refs_delegates_to_whole_job_runner() {
        let whole = run_jobs(batch(), 2);
        let outcomes =
            run_jobs_chunked_with(batch(), 2, 0, RunPolicy::strict(), &|_, _| {});
        for (a, b) in whole.iter().zip(&outcomes) {
            let b = b.result().expect("all jobs complete");
            assert_eq!(fingerprint(&a.report), fingerprint(&b.report));
        }
    }

    #[test]
    fn sabotaged_chunk_is_retried_from_snapshot_without_perturbing_output() {
        let clean = run_jobs(batch(), 1);
        let mut jobs = batch();
        share_traces(&mut jobs);
        // Two mid-job panics: the retries must rewind to the pre-chunk
        // checkpoint and end up byte-identical to the clean run.
        jobs[2] = jobs[2].clone().sabotage_panics("chunk glitch", 2);
        let policy = RunPolicy { max_retries: 3, ..RunPolicy::strict() };
        let outcomes = run_jobs_chunked_with(jobs, 2, 600, policy, &|_, _| {});
        let JobOutcome::Retried { result, retries } = &outcomes[2] else {
            panic!("slot 2 must be Retried, got {}", outcomes[2].status());
        };
        assert_eq!(*retries, 2);
        for (idx, (a, b)) in clean.iter().zip(&outcomes).enumerate() {
            let b = b.result().expect("all jobs complete");
            assert_eq!(
                fingerprint(&a.report),
                fingerprint(&b.report),
                "slot {idx} diverged under sabotage-driven chunk retries"
            );
        }
        let _ = result;
    }

    #[test]
    fn exhausted_chunk_retries_report_panicked() {
        let mut jobs = batch();
        jobs[1] = jobs[1].clone().sabotage_panics("always down", u32::MAX);
        let policy = RunPolicy { max_retries: 1, ..RunPolicy::strict() };
        let outcomes = run_jobs_chunked_with(jobs, 2, 500, policy, &|_, _| {});
        let JobOutcome::Panicked { attempts, message, .. } = &outcomes[1] else {
            panic!("must exhaust retries, got {}", outcomes[1].status());
        };
        assert_eq!(*attempts, 2, "initial attempt + 1 retry");
        assert!(message.contains("always down"));
        assert!(outcomes.iter().enumerate().all(|(i, o)| i == 1 || o.completed()));
    }

    #[test]
    fn observer_fires_once_per_job() {
        let seen = Mutex::new(vec![0u32; 4]);
        let outcomes = run_jobs_chunked_with(batch(), 3, 800, RunPolicy::strict(), &|idx, o| {
            lock_clean(&seen)[idx] += 1;
            let _ = o.label();
        });
        assert_eq!(outcomes.len(), 4);
        assert_eq!(*lock_clean(&seen), vec![1, 1, 1, 1]);
    }
}
