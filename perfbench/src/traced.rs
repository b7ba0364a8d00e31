//! The traced simulation loop: one batch row re-driven through the
//! public calls `Simulation::begin`, `ChunkSim::advance` and
//! `ChunkSim::finish` make, with a timer around each layer boundary.
//!
//! `ChunkSim` keeps its loop private, so this module mirrors it call for
//! call. The mirror is only trusted while it reproduces the untraced
//! report byte for byte: the benchmark compares every traced row against
//! the `begin`/`advance`/`finish` row of the same seed, counts a mismatch
//! as a failed operation and withholds the traced numbers. A change to the
//! loop that this mirror does not follow therefore fails loudly (see
//! `tests/identity.rs`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pom_tlb::{SimJob, SimReport, System};
use pomtlb_tlb::{VirtTables, WalkMode, MAX_REGIONS};
use pomtlb_trace::{AddressLayout, TraceItem};
use pomtlb_types::{AddressSpace, Cycles, ProcessId, VmId};

use crate::measure::Tally;
use crate::span::{SpanId, SpanLog};

/// Every this many references, the per-reference calls are also kept as
/// full spans.
const SPAN_SAMPLE_EVERY: u64 = 1 << 12;

/// Per-address-space page tables, created on first touch in the order
/// `Simulation::begin` and `ChunkSim::advance` create them.
struct SpaceTables {
    list: Vec<VirtTables>,
    index: HashMap<AddressSpace, usize>,
    walk_mode: WalkMode,
}

impl SpaceTables {
    fn slot(&mut self, space: AddressSpace) -> usize {
        if let Some(&i) = self.index.get(&space) {
            return i;
        }
        let i = self.list.len();
        self.list.push(VirtTables::with_region(
            self.walk_mode,
            (i as u32) % MAX_REGIONS,
        ));
        self.index.insert(space, i);
        i
    }
}

/// Host time of one row, split by layer.
#[derive(Debug, Clone, Default)]
pub struct RowTimes {
    /// `System::new` plus the per-run switches set on it.
    pub system_new: Duration,
    /// `ensure_mapped` + `note_mapped` + `prepopulate_translation` over
    /// the layout.
    pub prepopulate: Duration,
    /// `SharedTraceIter::next`, one per stream item.
    pub replay: Tally,
    /// Page-size and table lookup + `ensure_mapped` + `note_mapped`, one
    /// per reference.
    pub map: Tally,
    /// `System::access`, one per reference.
    pub access: Tally,
    /// `System::access` after the warmup boundary only (the references
    /// the report's miss counts describe).
    pub access_measured: Tally,
    /// `System::handle_os_event`, one per OS event.
    pub event: Tally,
    /// Wall time of the whole reference loop, timers included.
    pub loop_wall: Duration,
    /// References executed.
    pub refs: u64,
}

/// One traced row: its report and where its host time went.
pub struct TracedRow {
    pub report: SimReport,
    pub times: RowTimes,
}

/// Runs `job` through the mirrored loop. The job must carry a shared
/// trace (`share_traces`), as every batch row in the benchmark does.
pub fn run_row(job: &SimJob, spans: &mut SpanLog, trace: u32, parent: SpanId) -> TracedRow {
    let mut times = RowTimes::default();
    let n = job.sys.n_cores;

    let t = Instant::now();
    let mut system = System::new(job.sys.clone(), job.scheme);
    if let Some(on) = job.check_consistency {
        system.set_check_consistency(on);
    }
    if let Some(cfg) = job.faults {
        system.set_fault_plan(cfg);
    }
    if job.spec.tenancy.active() {
        system.enable_tenancy(job.spec.tenancy.vms);
    }
    let end = Instant::now();
    times.system_new = end - t;
    spans.record(trace, parent, "system.new", t, end);

    let spaces: Vec<AddressSpace> = (0..n)
        .map(|c| {
            let pid = if job.shared_memory { 0 } else { c as u16 };
            AddressSpace::new(VmId(0), ProcessId(pid))
        })
        .collect();
    let mut tables = SpaceTables {
        list: Vec::new(),
        index: HashMap::new(),
        walk_mode: job.sys.walk_mode,
    };
    for &space in &spaces {
        tables.slot(space);
    }
    let layout = AddressLayout::of_spec(&job.spec);

    let t = Instant::now();
    if job.prepopulate {
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
    let end = Instant::now();
    times.prepopulate = end - t;
    spans.record(trace, parent, "page_table.prepopulate", t, end);

    let warm_total = job.sim.warmup_per_core * n as u64;
    let total = warm_total + job.sim.refs_per_core * n as u64;
    let shared = job
        .trace
        .as_ref()
        .expect("batch rows replay a shared trace");
    assert!(
        shared.matches(&job.spec, job.sim.seed, n, job.shared_memory, total),
        "shared trace was recorded for different parameters than this row"
    );
    let mut stream = shared.replay();
    let mut core_stall = vec![Cycles::ZERO; n];
    let mut icount_latest = vec![0u64; n];
    let mut icount_base = vec![0u64; n];
    let mut refs_done = 0u64;

    let loop_start = Instant::now();
    let loop_span = spans.record(trace, parent, "loop", loop_start, loop_start);
    let mut mark = loop_start;
    while refs_done < total {
        let next_start = mark;
        let item = stream.next().expect("streams are infinite");
        let next_done = Instant::now();
        times.replay.add(next_done - next_start);
        let core = item.core;
        let mref = match item.item {
            TraceItem::Event(event) => {
                let ti = tables.slot(event.space);
                let penalty = system.handle_os_event(core, &event, &mut tables.list[ti]);
                mark = Instant::now();
                times.event.add(mark - next_done);
                spans.record(trace, loop_span, "shootdown.event", next_done, mark);
                core_stall[core.index()] += penalty;
                continue;
            }
            TraceItem::Ref(mref) => mref,
        };
        if refs_done == warm_total {
            let t = Instant::now();
            system.reset_stats();
            spans.record(trace, loop_span, "system.reset_stats", t, Instant::now());
            icount_base.copy_from_slice(&icount_latest);
        }
        let sampled = refs_done % SPAN_SAMPLE_EVERY == 0;
        let measured = refs_done >= warm_total;
        refs_done += 1;
        let map_start = next_done;
        let size = layout
            .page_size_of(mref.addr)
            .expect("generator addresses stay inside the layout");
        let ti = tables.slot(mref.space);
        let hpa = tables.list[ti].ensure_mapped(mref.addr, size);
        system.note_mapped(mref.space, mref.addr, size, hpa);
        let map_done = Instant::now();
        times.map.add(map_done - map_start);
        let now = Cycles::new(mref.icount) + core_stall[core.index()];
        let (penalty, data_latency) = system.access(
            core,
            mref.space,
            mref.addr,
            mref.kind,
            &tables.list[ti],
            now,
        );
        mark = Instant::now();
        times.access.add(mark - map_done);
        if measured {
            times.access_measured.add(mark - map_done);
        }
        if sampled {
            spans.record(trace, loop_span, "trace.replay", next_start, next_done);
            spans.record(trace, loop_span, "page_table.map", map_start, map_done);
            spans.record(trace, loop_span, "system.access", map_done, mark);
        }
        core_stall[core.index()] += penalty + Cycles::new(data_latency.raw() / 2);
        icount_latest[core.index()] = mref.icount;
    }
    let loop_end = Instant::now();
    spans.close(loop_span, loop_end);
    times.loop_wall = loop_end - loop_start;
    times.refs = refs_done;

    let instructions: u64 = icount_latest
        .iter()
        .zip(&icount_base)
        .map(|(latest, base)| latest - base)
        .sum();
    let t = Instant::now();
    let report = system.report(&job.spec.name, instructions);
    spans.record(trace, parent, "system.report", t, Instant::now());
    TracedRow { report, times }
}
