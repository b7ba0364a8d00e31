//! Resumable simulation: one reference loop, run in as many bounded
//! steps as the caller likes.
//!
//! * [`Simulation::begin`] builds everything [`Simulation::run`] would
//!   (system, tables, prepopulation, stream) but stops before the
//!   reference loop, returning a [`ChunkSim`] — the complete mid-stream
//!   machine state as one owned value.
//! * [`ChunkSim::advance`] executes the per-reference loop for a bounded
//!   number of references; [`ChunkSim::finish`] reads the report off the
//!   cumulative state.
//!
//! `Simulation::run` and every [`crate::runner`] job are `begin` + one
//! unbounded `advance` + `finish`. Splitting a run into several bounded
//! advances cannot change its report: counters, cache/TLB contents, DRAM
//! bank clocks, RNG cursors and the warmup position all live in the
//! [`ChunkSim`] and carry from one step to the next (this module's tests
//! check it byte for byte). The repository benchmark drives the three
//! calls directly, so it can time setup apart from the loop.

use std::collections::HashMap;

use pomtlb_tlb::{Tsb, VirtTables, WalkMode, MAX_REGIONS};
use pomtlb_trace::{
    AddressLayout, CoreItem, Interleaver, SharedTraceIter, TraceItem, WorkloadStream,
};
use pomtlb_types::{AddressSpace, Cycles, ProcessId, VmId};

use crate::pom_tlb::PomTlb;
use crate::report::SimReport;
use crate::system::{Simulation, System};

/// Where a [`ChunkSim`] draws its merged reference stream from.
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
/// reported by [`ChunkSim::finish`].
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
    /// reference wherever the step boundaries land, because `refs_done`
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use crate::config::{SimConfig, SystemConfig};
    use crate::runner::{
        lock_clean, run_jobs, run_jobs_with, share_traces, JobOutcome, RunPolicy, SimJob,
    };
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

    /// `job` run as `begin` + `step`-bounded advances + `finish`.
    fn in_steps(job: &SimJob, step: u64) -> String {
        let mut sim = job.to_simulation().begin();
        while sim.advance(step) > 0 {}
        fingerprint(&sim.finish())
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

    /// A paused `ChunkSim` is the run's whole mid-stream state: reading a
    /// report off it mid-stream and handing it to another thread to resume
    /// must leave the final report bit-identical to an uninterrupted run.
    #[test]
    fn snapshot_resumes_bit_identically_mid_stream() {
        let mut jobs = batch();
        share_traces(&mut jobs);
        let job = jobs.remove(0);
        let whole = job.to_simulation().run();
        let mut sim = job.to_simulation().begin();
        assert_eq!(sim.advance(1_300), 1_300);
        // 1,000 warmup references (500 per core), then 300 measured.
        assert_eq!(sim.finish().refs, 300, "a mid-stream report counts the measured refs so far");
        let resumed = std::thread::spawn(move || {
            sim.advance(u64::MAX);
            sim.finish()
        })
        .join()
        .expect("the resumed run completes");
        assert_eq!(fingerprint(&whole), fingerprint(&resumed));
    }

    #[test]
    fn chunked_stealing_matches_serial_bit_for_bit() {
        let serial = run_jobs(batch(), 1);
        for step in [400, 700, 950] {
            // Round-robin over the batch, each job's next step on a fresh
            // thread: every paused job migrates between threads, and its
            // steps run concurrently with its siblings'.
            let mut sims: Vec<ChunkSim> =
                batch().iter().map(|job| job.to_simulation().begin()).collect();
            while !sims.iter().all(ChunkSim::is_done) {
                let handles: Vec<_> = sims
                    .into_iter()
                    .map(|mut sim| {
                        std::thread::spawn(move || {
                            sim.advance(step);
                            sim
                        })
                    })
                    .collect();
                sims = handles.into_iter().map(|h| h.join().expect("step completes")).collect();
            }
            assert_eq!(serial.len(), sims.len());
            for (a, sim) in serial.iter().zip(&sims) {
                assert_eq!(
                    fingerprint(&a.report),
                    fingerprint(&sim.finish()),
                    "job {} diverged under {step}-ref steps",
                    a.label
                );
            }
        }
    }

    /// Retry is whole-job: a sabotaged job on a shared recording fails
    /// twice, restarts from `begin` at the start of the replay each time,
    /// and every slot still equals the clean run taken in bounded steps.
    #[test]
    fn sabotaged_chunk_is_retried_from_snapshot_without_perturbing_output() {
        let clean: Vec<String> = batch().iter().map(|job| in_steps(job, 600)).collect();
        let mut jobs = batch();
        share_traces(&mut jobs);
        jobs[2] = jobs[2].clone().sabotage_panics("chunk glitch", 2);
        let policy = RunPolicy { max_retries: 3, ..RunPolicy::strict() };
        let outcomes = run_jobs_with(jobs, 2, policy, &|_, _| {});
        let JobOutcome::Retried { retries, .. } = &outcomes[2] else {
            panic!("slot 2 must be Retried, got {}", outcomes[2].status());
        };
        assert_eq!(*retries, 2);
        for (idx, (a, b)) in clean.iter().zip(&outcomes).enumerate() {
            let b = b.result().expect("all jobs complete");
            assert_eq!(a, &fingerprint(&b.report), "slot {idx} diverged under sabotage retries");
        }
    }

    #[test]
    fn exhausted_chunk_retries_report_panicked() {
        let mut jobs = batch();
        jobs[1] = jobs[1].clone().sabotage_panics("always down", u32::MAX);
        let policy = RunPolicy { max_retries: 1, ..RunPolicy::strict() };
        let outcomes = run_jobs_with(jobs, 2, policy, &|_, _| {});
        let JobOutcome::Panicked { attempts, message, .. } = &outcomes[1] else {
            panic!("must exhaust retries, got {}", outcomes[1].status());
        };
        assert_eq!(*attempts, 2, "initial attempt + 1 retry");
        assert!(message.contains("always down"));
        // The failing sibling costs the others nothing: each still reports
        // what its own bounded-step run reports.
        for (idx, (job, outcome)) in batch().iter().zip(&outcomes).enumerate() {
            if idx != 1 {
                let result = outcome.result().expect("siblings complete");
                assert_eq!(in_steps(job, 500), fingerprint(&result.report), "slot {idx}");
            }
        }
    }

    #[test]
    fn observer_fires_once_per_job() {
        let seen: Mutex<Vec<Vec<String>>> = Mutex::new(vec![Vec::new(); 4]);
        let outcomes = run_jobs_with(batch(), 3, RunPolicy::strict(), &|idx, o| {
            let report = o.result().expect("every job completes");
            lock_clean(&seen)[idx].push(fingerprint(&report.report));
        });
        assert_eq!(outcomes.len(), 4);
        let seen = seen.into_inner().unwrap();
        for (idx, (job, reports)) in batch().iter().zip(&seen).enumerate() {
            // Once each, with the report the job's bounded-step run gives.
            assert_eq!(reports, &vec![in_steps(job, 800)], "slot {idx}");
        }
    }
}
