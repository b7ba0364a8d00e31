//! The full-system simulator: N cores, the SRAM TLB front end, data caches,
//! two DRAM channels, the page walker, and the four translation schemes.
//!
//! This is the paper's §3.2 simulator: trace-driven, with per-core
//! reference streams merged at their instruction-count issue cadence, both
//! translation and data traffic flowing through the same cache hierarchy,
//! and the POM-TLB lookup flow of Figure 7 implemented literally:
//!
//! ```text
//! L2 TLB miss ─ predict size ─┬─ bypass? ──────────► POM-TLB DRAM ─┐
//! (predictor)                 └─ probe L2D$ → L3D$ → POM-TLB DRAM ─┤
//!                                                                  ▼
//!                                 entry found? ── no (other size) ─┤
//!                                      │ yes                       ▼
//!                                      ▼                    2-D page walk
//!                                   done (PFN)              + POM-TLB fill
//! ```

use pomtlb_cache::{Hierarchy, Level};
use pomtlb_dram::Channel;
use pomtlb_tlb::{NestedWalker, SramTlb, Tsb, VirtTables};
use std::sync::Arc;

use pomtlb_trace::{
    AddressLayout, OsEvent, OsEventKind, SharedTrace, WorkloadSpec, PROMOTE_WINDOW_PAGES,
};
use pomtlb_types::{AccessKind, AddressSpace, CoreId, Cycles, Gva, Hpa, PageSize, VmId};

use crate::config::{SimConfig, SystemConfig};
use crate::fault::{fault_key, FaultConfig, FaultKind, FaultState, FaultStats};
use crate::mmu::{CoreMmu, MmuHit};
use crate::pom_tlb::PomTlb;
use crate::predictor::SizeBypassPredictor;
use crate::report::SimReport;
use crate::scheme::Scheme;
use crate::shootdown::{
    ShootdownEngine, ShootdownParts, ShootdownStats, StaleChecker, StaleVerdict,
};
use crate::tenancy::TenantQos;
use crate::translator::Translator;

/// Resolution-path counters reset at warmup boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    refs: u64,
    l1_tlb_misses: u64,
    l2_tlb_misses: u64,
    total_penalty: Cycles,
    walk_penalty: Cycles,
    page_walks: u64,
    resolved_l2d: u64,
    resolved_l3d: u64,
    resolved_pom_dram: u64,
    resolved_shared_l2: u64,
    resolved_tsb: u64,
}

/// The hardware: everything that persists across the reference stream.
///
/// Most users drive this through [`Simulation`]; direct access is for
/// custom experiments (see the `custom_workload` example).
pub struct System {
    config: SystemConfig,
    scheme: Scheme,
    mmus: Vec<CoreMmu>,
    predictors: Vec<SizeBypassPredictor>,
    walkers: Vec<NestedWalker>,
    hier: Hierarchy,
    /// The scheme's own structure below the SRAM TLBs — the one part of
    /// the machine that differs between schemes.
    translator: Translator,
    die_stacked: Channel,
    main_mem: Channel,
    counters: Counters,
    shootdowns: ShootdownEngine,
    stale: StaleChecker,
    fault: Option<FaultState>,
    /// Per-tenant QoS accounting; inert unless [`System::enable_tenancy`]
    /// switched it on for a consolidation run.
    tenancy: TenantQos,
    /// Reusable evicted-line buffer for [`Translator::flush_vm`].
    flush_scratch: Vec<Hpa>,
}

impl System {
    /// Builds the hardware for `config` running `scheme`: the shared front
    /// end, caches and DRAM, plus only `scheme`'s own [`Translator`].
    pub fn new(config: SystemConfig, scheme: Scheme) -> System {
        let n = config.n_cores;
        System {
            mmus: (0..n).map(|_| CoreMmu::new(&config.mmu)).collect(),
            predictors: (0..n)
                .map(|_| SizeBypassPredictor::with_hysteresis(config.predictor_hysteresis))
                .collect(),
            walkers: (0..n).map(|_| NestedWalker::new(config.psc)).collect(),
            hier: Hierarchy::new(config.caches, n),
            translator: Translator::new(&config, scheme),
            die_stacked: Channel::new(config.die_stacked.clone(), config.die_stacked_banks),
            main_mem: Channel::new(config.ddr.clone(), config.dram_banks),
            counters: Counters::default(),
            shootdowns: ShootdownEngine::new(config.shootdown),
            stale: StaleChecker::new(cfg!(debug_assertions)),
            fault: None,
            tenancy: TenantQos::default(),
            flush_scratch: Vec::new(),
            config,
            scheme,
        }
    }

    /// Arms deterministic fault injection for this run (see [`crate::fault`]).
    ///
    /// The stale-translation shadow map is forced on — it is the oracle the
    /// detector compares every served translation against — while the
    /// *consistency checking* setting (detect-and-repair vs count-escapes)
    /// keeps whatever [`System::set_check_consistency`] last chose.
    pub fn set_fault_plan(&mut self, config: FaultConfig) {
        let detect = self.stale.enabled();
        self.stale.set_enabled(true);
        self.fault = Some(FaultState::new(config, detect));
    }

    /// Fault-injection statistics, when a plan is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.snapshot())
    }

    /// Draws and applies this reference's scheduled faults: corrupts a
    /// live POM-TLB array entry now, and arms one-shot faults (cached-copy
    /// flip, dropped IPI, stale re-insert) that the next matching
    /// operation consumes.
    ///
    /// Every machine takes the same draws, so each fault lands on the same
    /// reference whatever the scheme; the POM-only kinds are no-ops on a
    /// machine without a POM-TLB array.
    fn inject_faults(&mut self) {
        let Some(fault) = self.fault.as_mut() else { return };
        let draw = fault.begin_access();
        if draw.cached_flip {
            fault.arm_cached_flip();
        }
        if draw.stale_reinsert {
            fault.arm_stale_reinsert();
        }
        if draw.dropped_ipi {
            self.shootdowns.inject_dropped_ipi();
        }
        if draw.pom_bit_flip {
            let selector = fault.pick(u64::MAX);
            let bit = fault.pick(36) as u32;
            if let Translator::Pom(pom) = &mut self.translator {
                if let Some((space, va, size)) = pom.corrupt_entry(selector, bit) {
                    fault.track(fault_key(space, va, size), FaultKind::PomBitFlip);
                }
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The scheme being simulated.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The POM-TLB structure, on a POM-TLB machine (inspection).
    pub fn pom(&self) -> Option<&PomTlb> {
        self.translator.pom()
    }

    /// The TSB structure, on a TSB machine (inspection).
    pub(crate) fn tsb(&self) -> Option<&Tsb> {
        self.translator.tsb()
    }

    /// Switches per-tenant QoS accounting on for a `vms`-tenant
    /// consolidation run. Costs one flat `vms × 26`-counter array; without
    /// this call the accounting is a single branch per reference.
    pub fn enable_tenancy(&mut self, vms: u32) {
        self.tenancy.enable(vms);
    }

    /// The per-tenant QoS accounting state (inspection).
    pub fn tenancy(&self) -> &TenantQos {
        &self.tenancy
    }

    /// Page walks performed so far (inspection; resets with
    /// [`System::reset_stats`]).
    pub fn page_walks(&self) -> u64 {
        self.counters.page_walks
    }

    /// Processes one memory reference: translation (front end + scheme)
    /// followed by the data access. Returns the translation penalty charged
    /// beyond an L2 TLB hit (the quantity summed into `P_total`) and the
    /// data-access latency (used for wall-clock pacing only).
    pub fn access(
        &mut self,
        core: CoreId,
        space: AddressSpace,
        va: Gva,
        kind: AccessKind,
        tables: &VirtTables,
        now: Cycles,
    ) -> (Cycles, Cycles) {
        self.counters.refs += 1;
        self.inject_faults();
        let (hit, cached_pa) = self.mmus[core.index()].lookup(space, va);
        let (mut page_base, size, mut penalty) = match hit {
            MmuHit::L1(size) => (cached_pa.expect("hit carries PA"), size, Cycles::ZERO),
            MmuHit::L2(size) => {
                self.counters.l1_tlb_misses += 1;
                (cached_pa.expect("hit carries PA"), size, Cycles::ZERO)
            }
            MmuHit::Miss => {
                self.counters.l1_tlb_misses += 1;
                self.counters.l2_tlb_misses += 1;
                let (base, size, penalty) = self.resolve_miss(core, space, va, tables, now);
                self.counters.total_penalty += penalty;
                (base, size, penalty)
            }
        };

        // Detector (§2.2): whichever level answered must agree with the
        // live page tables. Without fault injection this is the legacy
        // watchdog — a disagreement means a shootdown missed a level, and
        // the run panics. With a fault plan armed it is the first-class
        // detection path: a wrong serve is repaired and accounted when
        // consistency checking is on, or counted as an escape (and served
        // onward, wrong) when it is off.
        if self.fault.is_none() {
            if self.stale.enabled() {
                let source = match hit {
                    MmuHit::L1(_) => "L1 TLB",
                    MmuHit::L2(_) => "L2 TLB",
                    MmuHit::Miss => "miss path",
                };
                self.stale.verify(space, va, size, page_base, source);
            }
        } else {
            let verdict = self.stale.check(space, va, size, page_base);
            if verdict != StaleVerdict::Clean {
                let key = fault_key(space, va, size);
                let detect = self.fault.as_ref().is_some_and(|f| f.detect);
                if detect {
                    // Purge the corrupted translation from every structure
                    // (a full shootdown round) and serve the frame the
                    // page tables actually hold.
                    let mut parts = ShootdownParts {
                        mmus: &mut self.mmus,
                        walkers: &mut self.walkers,
                        hier: &mut self.hier,
                        translator: &mut self.translator,
                    };
                    let repair = self.shootdowns.repair_page(&mut parts, space, va);
                    penalty += repair;
                    self.counters.total_penalty += repair;
                    match verdict {
                        StaleVerdict::Wrong { expected } => page_base = expected,
                        _ => {
                            if let Some(correct) = self.stale.lookup_page(space, va, size) {
                                page_base = correct;
                            }
                        }
                    }
                    if let Some(fault) = self.fault.as_mut() {
                        fault.record_detection(key);
                        fault.stats.repair_penalty += repair;
                    }
                } else if let Some(fault) = self.fault.as_mut() {
                    fault.record_escape(key);
                }
            }
        }

        // The data access proper (pollutes caches, exercises DRAM state).
        let hpa = Hpa::new(page_base.raw() + va.page_offset(size));
        let probe = self.hier.access_data(core, hpa, kind.is_write());
        let data_latency = if probe.hit() {
            probe.latency
        } else {
            probe.latency + self.main_mem.access(hpa, now + penalty + probe.latency).latency
        };
        self.tenancy.record(space.vm, penalty);
        (penalty, data_latency)
    }

    /// Handles an L2 TLB miss: the scheme's structure answers, or the walk
    /// does (and the structure is filled).
    fn resolve_miss(
        &mut self,
        core: CoreId,
        space: AddressSpace,
        va: Gva,
        tables: &VirtTables,
        now: Cycles,
    ) -> (Hpa, PageSize, Cycles) {
        let c = core.index();
        let mut miss = Miss {
            core,
            space,
            va,
            tables,
            now,
            mmu: &mut self.mmus[c],
            walker: &mut self.walkers[c],
            hier: &mut self.hier,
            die_stacked: &mut self.die_stacked,
            main_mem: &mut self.main_mem,
            counters: &mut self.counters,
        };
        match &mut self.translator {
            Translator::Walk => miss.walk(Cycles::ZERO),
            Translator::SharedL2 { tlb, latency } => miss.shared_l2(tlb, *latency),
            Translator::Tsb(tsb) => miss.tsb(tsb),
            Translator::Pom(pom) => {
                let Scheme::PomTlb { cache_entries, bypass_predictor } = self.scheme else {
                    unreachable!("only Scheme::PomTlb builds a POM-TLB")
                };
                let predictor = &mut self.predictors[c];
                miss.pom(pom, predictor, self.fault.as_mut(), cache_entries, bypass_predictor)
            }
        }
    }

    /// Maps every page of `layout` into `space`'s `tables`, one run per
    /// region, and records and installs each page's translation as that
    /// page is mapped, in layout order ([`System::note_mapped`],
    /// [`System::prepopulate_translation`]).
    pub fn prepopulate(&mut self, space: AddressSpace, tables: &mut VirtTables, layout: &AddressLayout) {
        for (first, size, count) in layout.runs() {
            tables.map_run(first, size, count, |page, hpa| {
                self.note_mapped(space, page, size, hpa);
                self.prepopulate_translation(space, page, size, hpa);
            });
        }
    }

    /// Installs one translation into the scheme's in-DRAM structure
    /// (POM-TLB or TSB) without charging time — the steady state a long
    /// trace reaches. SRAM structures are untouched; they warm naturally.
    pub fn prepopulate_translation(
        &mut self,
        space: AddressSpace,
        va: Gva,
        size: PageSize,
        page_base: Hpa,
    ) {
        self.translator.prepopulate(space, va, size, page_base);
    }

    /// Applies one OS event (§2.2): updates the live page tables, runs the
    /// matching shootdown round through every translation-holding level,
    /// and returns the cycles the initiating core stalls for.
    pub fn handle_os_event(
        &mut self,
        core: CoreId,
        event: &OsEvent,
        tables: &mut VirtTables,
    ) -> Cycles {
        let space = event.space;
        let mut parts = ShootdownParts {
            mmus: &mut self.mmus,
            walkers: &mut self.walkers,
            hier: &mut self.hier,
            translator: &mut self.translator,
        };
        match event.kind {
            OsEventKind::UnmapPage { va, size } => {
                if !tables.unmap(va, size) {
                    return Cycles::ZERO;
                }
                self.stale.note_unmapped(space, va, size);
                let drops_before = self.shootdowns.dropped_ipis();
                let cost = self.shootdowns.unmap_page(&mut parts, space, va);
                // An armed IPI drop that actually left a stale SRAM entry
                // becomes a tracked fault: the skipped core may now serve
                // the dead translation.
                if self.shootdowns.dropped_ipis() > drops_before {
                    if let Some(fault) = self.fault.as_mut() {
                        fault.track(fault_key(space, va, size), FaultKind::DroppedIpi);
                    }
                }
                cost
            }
            OsEventKind::RemapPage { va, size } => {
                if !tables.unmap(va, size) {
                    return Cycles::ZERO;
                }
                self.tenancy.note_fork_remap(space.vm);
                let old_base = self.stale.lookup_page(space, va, size);
                self.stale.note_unmapped(space, va, size);
                let drops_before = self.shootdowns.dropped_ipis();
                let cost = self.shootdowns.remap_page(&mut parts, space, va);
                if self.shootdowns.dropped_ipis() > drops_before {
                    if let Some(fault) = self.fault.as_mut() {
                        fault.track(fault_key(space, va, size), FaultKind::DroppedIpi);
                    }
                }
                // The kernel moved the frame: the page is immediately live
                // again at a fresh host-physical address.
                let hpa = tables.ensure_mapped(va, size);
                self.stale.note_mapped(space, va, size, hpa);
                // Fault injection: a buggy write-back racing the round
                // re-installs the dead translation into the POM-TLB array
                // after the shootdown completed. Only latched when the
                // frame actually moved — re-inserting an unchanged base
                // would be indistinguishable from a correct entry — and a
                // no-op on a machine without the array.
                if let Some(fault) = self.fault.as_mut() {
                    if let Some(base) = old_base {
                        if base != hpa && fault.take_stale_reinsert() {
                            if let Translator::Pom(pom) = &mut *parts.translator {
                                pom.insert(space, va, size, base);
                                fault.track(fault_key(space, va, size), FaultKind::StaleReinsert);
                            }
                        }
                    }
                }
                cost
            }
            OsEventKind::PromotePage { window_base } => {
                let mut pages = Vec::new();
                for i in 0..PROMOTE_WINDOW_PAGES {
                    let va = window_base.wrapping_add(i << 12);
                    if let Some((_, PageSize::Small4K)) = tables.lookup_page(va) {
                        tables.unmap(va, PageSize::Small4K);
                        self.stale.note_unmapped(space, va, PageSize::Small4K);
                        pages.push(va);
                    }
                }
                if pages.is_empty() {
                    return Cycles::ZERO;
                }
                self.shootdowns.promote_window(&mut parts, space, &pages)
            }
            OsEventKind::MigrateProcess { to_core: _ } => {
                self.shootdowns.migrate(&mut parts, core, space)
            }
            OsEventKind::DestroyVm => {
                // Structures are flushed; the tables themselves are kept (a
                // successor VM with the same id reuses the frames), so no
                // live mapping goes stale.
                self.tenancy.note_destroy(space.vm);
                self.shootdowns.destroy_vm(&mut parts, space.vm)
            }
        }
    }

    /// Aggregate shootdown statistics (reset by [`System::reset_stats`]).
    pub fn shootdown_stats(&self) -> &ShootdownStats {
        self.shootdowns.stats()
    }

    /// Turns the stale-translation watchdog on or off (on by default in
    /// debug builds). Disabling clears the shadow state. With a fault plan
    /// armed, the shadow map stays on regardless (it is the detection
    /// oracle) and the flag instead selects detect-and-repair (`true`) vs
    /// count-escapes (`false`).
    pub fn set_check_consistency(&mut self, on: bool) {
        if let Some(fault) = self.fault.as_mut() {
            fault.detect = on;
        } else {
            self.stale.set_enabled(on);
        }
    }

    /// Whether the stale-translation watchdog (or, with faults armed, the
    /// detect-and-repair path) is active.
    pub fn check_consistency(&self) -> bool {
        match &self.fault {
            Some(fault) => fault.detect,
            None => self.stale.enabled(),
        }
    }

    /// Records a live mapping with the watchdog. Call after mapping a page
    /// in the tables this system translates through.
    pub fn note_mapped(&mut self, space: AddressSpace, va: Gva, size: PageSize, page_base: Hpa) {
        self.stale.note_mapped(space, va, size, page_base);
    }

    /// Records an unmap with the watchdog *without* running a shootdown —
    /// the test hook proving the watchdog catches missed shootdowns.
    pub fn note_unmapped(&mut self, space: AddressSpace, va: Gva, size: PageSize) {
        self.stale.note_unmapped(space, va, size);
    }

    /// Broadcast TLB shootdown of one page: SRAM TLBs and the scheme's
    /// structure — for the POM-TLB also its cached lines (§2.2
    /// "Consistency"). Returns the number of locations that held state for
    /// the page.
    pub fn shootdown(&mut self, space: AddressSpace, va: Gva, size: PageSize) -> u64 {
        let mut found = 0u64;
        for mmu in &mut self.mmus {
            found += mmu.invalidate_page(space, va, size) as u64;
        }
        let purge = self.translator.invalidate_page(&mut self.hier, space, va, size);
        found + purge.entries + purge.lines
    }

    /// Flushes all state belonging to a VM (teardown across structures).
    pub fn flush_vm(&mut self, vm: VmId) -> u64 {
        let purge = self.translator.flush_vm(&mut self.hier, vm, &mut self.flush_scratch);
        let mut dropped = purge.entries + purge.lines;
        for mmu in &mut self.mmus {
            dropped += mmu.flush_vm(vm);
        }
        for w in &mut self.walkers {
            w.flush_vm(vm);
        }
        dropped
    }

    /// Clears statistics after warmup (contents stay).
    pub fn reset_stats(&mut self) {
        self.counters = Counters::default();
        for mmu in &mut self.mmus {
            mmu.reset_stats();
        }
        for p in &mut self.predictors {
            p.reset_stats();
        }
        for w in &mut self.walkers {
            w.reset_stats();
        }
        self.hier.reset_stats();
        self.translator.reset_stats();
        self.die_stacked.reset_stats();
        self.main_mem.reset_stats();
        self.shootdowns.reset_stats();
        self.tenancy.reset_stats();
    }

    /// Assembles the report for a finished run.
    pub fn report(&self, workload: &str, instructions: u64) -> SimReport {
        let mut size_pred = crate::predictor::PredictorStats::default();
        let mut bypass_pred = crate::predictor::PredictorStats::default();
        for p in &self.predictors {
            size_pred.correct += p.size_stats().correct;
            size_pred.wrong += p.size_stats().wrong;
            bypass_pred.correct += p.bypass_stats().correct;
            bypass_pred.wrong += p.bypass_stats().wrong;
        }
        let mut walker = pomtlb_tlb::WalkerStats::default();
        for w in &self.walkers {
            let s = w.stats();
            walker.walks += s.walks;
            walker.mem_refs += s.mem_refs;
            walker.pte_cache_hits += s.pte_cache_hits;
            walker.pte_dram_refs += s.pte_dram_refs;
            walker.psc_hits += s.psc_hits;
            walker.psc_misses += s.psc_misses;
            walker.total_latency += s.total_latency;
        }
        let l2_total = self.hier.l2_stats_total();
        SimReport {
            scheme: self.scheme,
            workload: workload.to_string(),
            n_cores: self.config.n_cores,
            refs: self.counters.refs,
            instructions,
            l1_tlb_misses: self.counters.l1_tlb_misses,
            l2_tlb_misses: self.counters.l2_tlb_misses,
            total_penalty: self.counters.total_penalty,
            walk_penalty: self.counters.walk_penalty,
            page_walks: self.counters.page_walks,
            resolved_l2d: self.counters.resolved_l2d,
            resolved_l3d: self.counters.resolved_l3d,
            resolved_pom_dram: self.counters.resolved_pom_dram,
            resolved_shared_l2: self.counters.resolved_shared_l2,
            resolved_tsb: self.counters.resolved_tsb,
            size_pred,
            bypass_pred,
            pom_dram: self.die_stacked.stats().clone(),
            main_dram: self.main_mem.stats().clone(),
            walker,
            l2d_tlb_lines: *l2_total.kind(pomtlb_cache::LineKind::TlbEntry),
            l3d_tlb_lines: *self.hier.l3_stats().kind(pomtlb_cache::LineKind::TlbEntry),
            l3d_data_lines: *self.hier.l3_stats().kind(pomtlb_cache::LineKind::Data),
            shootdowns: *self.shootdowns.stats(),
            faults: self.fault.as_ref().map(|f| f.snapshot()).unwrap_or_default(),
            tenancy: self.tenancy.stats(&self.config.pom),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedAt {
    L2d,
    L3d,
    PomDram,
}

/// One L2 TLB miss being resolved: what missed, and the parts of the
/// machine every scheme's miss path shares.
struct Miss<'a> {
    core: CoreId,
    space: AddressSpace,
    va: Gva,
    tables: &'a VirtTables,
    now: Cycles,
    mmu: &'a mut CoreMmu,
    walker: &'a mut NestedWalker,
    hier: &'a mut Hierarchy,
    die_stacked: &'a mut Channel,
    main_mem: &'a mut Channel,
    counters: &'a mut Counters,
}

impl Miss<'_> {
    /// The 2-D (or native 1-D) page walk every scheme falls back to.
    /// `upfront` is latency already accumulated before the walk starts.
    fn walk(&mut self, upfront: Cycles) -> (Hpa, PageSize, Cycles) {
        let walk = self
            .walker
            .walk(
                self.core,
                self.space,
                self.va,
                self.tables,
                self.hier,
                self.main_mem,
                self.now + upfront,
            )
            .expect("simulation maps every generated page before access");
        self.counters.page_walks += 1;
        self.counters.walk_penalty += walk.latency;
        self.mmu.fill(self.space, self.va, walk.size, walk.page_base);
        (walk.page_base, walk.size, upfront + walk.latency)
    }

    fn shared_l2(&mut self, tlb: &mut SramTlb, latency: Cycles) -> (Hpa, PageSize, Cycles) {
        for size in PageSize::POM_SIZES {
            if let Some(hit) = tlb.lookup(self.space, self.va, size) {
                self.counters.resolved_shared_l2 += 1;
                self.mmu.fill(self.space, self.va, size, hit.page_base);
                return (hit.page_base, size, latency);
            }
        }
        let (base, size, total) = self.walk(latency);
        tlb.insert(self.space, self.va, size, base);
        (base, size, total)
    }

    fn tsb(&mut self, tsb: &mut Tsb) -> (Hpa, PageSize, Cycles) {
        let (space, va) = (self.space, self.va);
        // The handler knows the faulting context's page size (SPARC keeps
        // separate TSBs per size); granting the model that knowledge is
        // generous to the TSB baseline.
        let (_, size) = self.tables.lookup_page(va).expect("mapped before access");
        let out = tsb.translate(self.core, space, va, size, self.hier, self.die_stacked, self.now);
        if let Some(page_base) = out.page_base {
            self.counters.resolved_tsb += 1;
            self.mmu.fill(space, va, out.size, page_base);
            return (page_base, out.size, out.latency);
        }
        // Software walk: the hardware walk cost plus a second trap-length
        // stretch of handler instructions.
        let sw_overhead = tsb.config().trap_cycles;
        let (base, size, total) = self.walk(out.latency + sw_overhead);
        let (gpa_base, _) = self.tables.guest_translate_page(va).expect("mapped");
        tsb.fill(space, va, size, gpa_base.raw(), base);
        (base, size, total)
    }

    /// Figure 7: the POM-TLB lookup flow, with the Figure 12 ablation
    /// switches of [`Scheme::PomTlb`].
    fn pom(
        &mut self,
        pom: &mut PomTlb,
        predictor: &mut SizeBypassPredictor,
        fault: Option<&mut FaultState>,
        cache_entries: bool,
        bypass_predictor: bool,
    ) -> (Hpa, PageSize, Cycles) {
        let (core, space, va, now) = (self.core, self.space, self.va, self.now);
        let predicted_size = predictor.predict_size(va);
        let predicted_bypass = bypass_predictor && predictor.predict_bypass(va);
        // With caching disabled (Figure 12 ablation) every probe goes
        // straight to DRAM.
        let go_direct = !cache_entries || predicted_bypass;

        let mut penalty = Cycles::ZERO;
        let mut found: Option<(Hpa, PageSize, ResolvedAt)> = None;
        // `Some(level)` once the first (predicted-size) probe has
        // established whether the line was cache-resident.
        let mut first_probe_cached: Option<bool> = None;

        for size in [predicted_size, predicted_size.other_pom_size()] {
            let set_addr = pom.set_addr(space, va, size);
            let resolved_at = if go_direct {
                let access = self.die_stacked.access(set_addr, now + penalty);
                penalty += access.latency;
                if first_probe_cached.is_none() {
                    // Oracle snoop for predictor training: would the probe
                    // have hit the data caches?
                    first_probe_cached = Some(self.hier.contains_line(core, set_addr));
                }
                // §2.1.3: entries resolved at the POM-TLB are filled into
                // the data caches like data misses — bypassing skips the
                // *lookup* latency, not the fill (off the critical path).
                if cache_entries {
                    self.hier.access_tlb_line(core, set_addr, false);
                }
                ResolvedAt::PomDram
            } else {
                let probe = self.hier.access_tlb_line(core, set_addr, false);
                penalty += probe.latency;
                let at = match probe.level {
                    Level::L2 => ResolvedAt::L2d,
                    Level::L3 => ResolvedAt::L3d,
                    Level::L1 | Level::Memory => {
                        let access = self.die_stacked.access(set_addr, now + penalty);
                        penalty += access.latency;
                        ResolvedAt::PomDram
                    }
                };
                if first_probe_cached.is_none() {
                    first_probe_cached = Some(at != ResolvedAt::PomDram);
                }
                at
            };
            if let Some(hit) = pom.lookup(space, va, size) {
                found = Some((hit.page_base, hit.size, resolved_at));
                break;
            }
        }

        let (page_base, size) = match found {
            Some((mut base, size, at)) => {
                match at {
                    ResolvedAt::L2d => self.counters.resolved_l2d += 1,
                    ResolvedAt::L3d => self.counters.resolved_l3d += 1,
                    ResolvedAt::PomDram => self.counters.resolved_pom_dram += 1,
                }
                // Fault injection: an armed soft error corrupts the next
                // translation resolved from a *cached* copy of a POM-TLB
                // line (the DRAM array itself stays intact). The flipped
                // frame fills the MMU and is served — the access-path
                // detector judges it immediately after this returns.
                if at != ResolvedAt::PomDram {
                    if let Some(fault) = fault {
                        if fault.take_cached_flip() {
                            base = Hpa::new(base.raw() ^ fault.flip_mask(size));
                            fault.track(fault_key(space, va, size), FaultKind::CachedBitFlip);
                        }
                    }
                }
                self.mmu.fill(space, va, size, base);
                (base, size)
            }
            None => {
                let (base, size, total) = self.walk(penalty);
                penalty = total;
                pom.insert(space, va, size, base);
                if cache_entries {
                    // The resolved entry is written to its POM-TLB location
                    // through the caches (fill off the critical path).
                    let set_addr = pom.set_addr(space, va, size);
                    self.hier.access_tlb_line(core, set_addr, true);
                }
                (base, size)
            }
        };

        // Train the predictors with the resolved truth.
        predictor.train_size(va, predicted_size, size);
        if bypass_predictor && cache_entries {
            if let Some(was_cached) = first_probe_cached {
                predictor.train_bypass(va, predicted_bypass, !was_cached);
            }
        }
        (page_base, size, penalty)
    }
}

// ---------------------------------------------------------------------------

/// Process-wide count of [`Simulation::run`] invocations.
static SIMULATIONS_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many simulations this process has run to date (every
/// [`Simulation::run`] entry counts, warm or cold, completed or panicked).
///
/// The memoized serving path never constructs a `Simulation`, so a delta
/// of zero across a request *proves* it was answered entirely from the
/// report store — the `pomtlb-serve` integration tests assert exactly
/// that, mirroring [`pomtlb_trace::interleaver_constructions`]'s role for
/// generator passes. Monotonic and process-global; meaningful as a
/// before/after delta, not an absolute.
pub fn simulations_run() -> u64 {
    SIMULATIONS_RUN.load(std::sync::atomic::Ordering::Relaxed)
}

/// A complete trace-driven run: builds the per-core generators, the
/// interleaver, the tables and the [`System`]; maps pages on demand; warms
/// up; measures.
pub struct Simulation {
    pub(crate) spec: WorkloadSpec,
    pub(crate) scheme: Scheme,
    pub(crate) sim_cfg: SimConfig,
    pub(crate) sys_cfg: SystemConfig,
    pub(crate) shared_memory: bool,
    pub(crate) prepopulate: bool,
    pub(crate) check_consistency: Option<bool>,
    pub(crate) trace: Option<Arc<SharedTrace>>,
    pub(crate) faults: Option<FaultConfig>,
}

impl Simulation {
    /// A simulation with the default Table 1 system.
    pub fn new(spec: &WorkloadSpec, scheme: Scheme, sim_cfg: SimConfig) -> Simulation {
        Simulation {
            spec: spec.clone(),
            scheme,
            sim_cfg,
            sys_cfg: SystemConfig::default(),
            shared_memory: false,
            prepopulate: true,
            check_consistency: None,
            trace: None,
            faults: None,
        }
    }

    /// Overrides the hardware configuration (capacity sweeps, core-count
    /// sweeps, native mode, ...).
    pub fn with_system_config(mut self, sys_cfg: SystemConfig) -> Simulation {
        self.sys_cfg = sys_cfg;
        self
    }

    /// Multithreaded-workload mode: all cores share one address space (the
    /// paper's PARSEC and graph workloads run with 8 threads). Default is
    /// SPECrate-style separate copies.
    pub fn shared_memory(mut self, shared: bool) -> Simulation {
        self.shared_memory = shared;
        self
    }

    /// Whether to pre-map the whole footprint and install every
    /// translation into the in-DRAM structures (POM-TLB, TSB) before the
    /// run. Default **on**: the paper's 20-billion-instruction traces reach
    /// exactly this steady state (a 16 MB POM-TLB retains every page ever
    /// touched), which short simulations cannot reach organically. Turn off
    /// to study cold-start capture behaviour.
    pub fn prepopulate(mut self, on: bool) -> Simulation {
        self.prepopulate = on;
        self
    }

    /// Forces the stale-translation watchdog on or off for this run.
    /// Default: on in debug builds, off in release (see [`StaleChecker`]).
    pub fn check_consistency(mut self, on: bool) -> Simulation {
        self.check_consistency = Some(on);
        self
    }

    /// Arms deterministic fault injection for this run (see
    /// [`crate::fault`]). Combined with [`Simulation::check_consistency`]:
    /// with checking on, wrong serves are detected and repaired; off, they
    /// are counted as escapes and served onward. The report's `faults`
    /// field carries the outcome.
    pub fn with_faults(mut self, config: FaultConfig) -> Simulation {
        self.faults = Some(config);
        self
    }

    /// Replays a pre-recorded input stream instead of running the
    /// generators. The recording must have been generated with exactly this
    /// simulation's spec, seed, core count, sharing mode and reference
    /// budget ([`SharedTrace::matches`]); a compare batch records once and
    /// hands the same `Arc` to every scheme, which is observationally
    /// identical to live generation (the replay yields the same merged
    /// stream bit for bit).
    pub fn with_trace(mut self, trace: Arc<SharedTrace>) -> Simulation {
        self.trace = Some(trace);
        self
    }

    /// Runs the simulation to completion.
    ///
    /// Equivalent to [`Simulation::begin`] followed by advancing the
    /// resulting [`crate::chunk::ChunkSim`] through the whole reference
    /// budget in one step.
    pub fn run(self) -> SimReport {
        let mut chunk = self.begin();
        chunk.advance(u64::MAX);
        chunk.finish()
    }

    /// Bumps the process-wide simulation counter; called exactly once per
    /// run, from [`Simulation::begin`].
    pub(crate) fn note_simulation_started() {
        SIMULATIONS_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_trace::LocalityModel;
    use pomtlb_types::ProcessId;

    /// A footprint the POM-TLB can fully capture within the test budget:
    /// bigger than the L2 TLB's reach (so misses happen) but small enough
    /// that warmup touches every page. Walks are cheap here (the PDE PSC
    /// covers the whole footprint), so use it for mechanics, not for
    /// scheme-latency comparisons.
    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::builder("unit")
            .footprint_bytes(16 << 20)
            .large_page_frac(0.4)
            .line_repeat(0.2)
            .locality(LocalityModel::UniformRandom)
            .build()
    }

    /// A paper-scale footprint whose page-table working set blows the
    /// 32-entry PDE PSC (128 two-megabyte prefixes), making baseline walks
    /// genuinely expensive, while the Zipf head gives the POM-TLB a large
    /// reusable miss population — the regime the paper evaluates in.
    fn chase_spec() -> WorkloadSpec {
        WorkloadSpec::builder("unit-zipf")
            .footprint_bytes(128 << 20)
            .large_page_frac(0.0)
            .same_page_burst(0.4)
            .locality(LocalityModel::Zipf { alpha: 1.1 })
            .build()
    }

    /// Longer run for the scheme-latency comparisons: the POM-TLB needs
    /// its miss population dominated by *reused* pages, as in the paper's
    /// 20-billion-instruction traces.
    fn long() -> SimConfig {
        SimConfig { refs_per_core: 120_000, warmup_per_core: 150_000, seed: 11 }
    }

    fn pom(system: &System) -> &PomTlb {
        system.pom().expect("a POM-TLB machine")
    }

    fn tiny_sys(n_cores: usize) -> SystemConfig {
        SystemConfig { n_cores, ..Default::default() }
    }

    fn quick() -> SimConfig {
        // Long enough that the 64 MB footprint (16 Ki small pages) is
        // touched several times per page — the POM-TLB needs one touch per
        // page to capture a translation.
        SimConfig { refs_per_core: 30_000, warmup_per_core: 30_000, seed: 11 }
    }

    #[test]
    fn baseline_walks_every_l2_miss() {
        let r = Simulation::new(&small_spec(), Scheme::Baseline, quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(r.l2_tlb_misses > 0, "uniform over 64MB must miss");
        assert_eq!(r.page_walks, r.l2_tlb_misses);
        assert!(r.p_avg() > 20.0, "virtualized walks are expensive: {}", r.p_avg());
    }

    #[test]
    fn pom_eliminates_most_walks_organically() {
        // Even without steady-state pre-population, one touch per page is
        // enough for the POM-TLB to capture a 16 MB footprint.
        let r = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .prepopulate(false)
            .run();
        assert!(r.l2_tlb_misses > 0);
        assert!(
            r.walks_eliminated() > 0.9,
            "POM-TLB should absorb misses, eliminated {:.3}",
            r.walks_eliminated()
        );
    }

    #[test]
    fn prepopulated_pom_never_walks() {
        // The steady state the paper's 20-billion-instruction traces reach:
        // every translation already resides in the 16 MB structure.
        let r = Simulation::new(&chase_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(r.l2_tlb_misses > 0);
        assert!(
            r.walks_eliminated() > 0.999,
            "prepopulated POM must absorb essentially everything: {}",
            r.walks_eliminated()
        );
    }

    #[test]
    fn pom_penalty_bounded_by_dram_not_walks() {
        // The paper's central latency claim: one POM-TLB access (often a
        // cache hit, at worst ~a die-stacked DRAM access) replaces a
        // multi-reference walk. Steady-state penalty must stay in the
        // DRAM-access band even for a streaming workload that misses the
        // on-chip TLBs on every new page.
        let stream_spec = WorkloadSpec::builder("unit-stream")
            .footprint_bytes(128 << 20)
            .large_page_frac(0.0)
            .same_page_burst(0.5)
            .locality(LocalityModel::Streaming { streams: 4 })
            .build();
        let r = Simulation::new(&stream_spec, Scheme::pom_tlb(), long())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(r.walks_eliminated() > 0.99, "streaming laps cover everything");
        assert!(r.p_avg() < 150.0, "penalty band: {}", r.p_avg());
        assert!(r.fig11_rbh() > 0.5, "sequential sets should hit rows: {}", r.fig11_rbh());
    }

    #[test]
    fn pom_beats_tsb() {
        // Same capacity, same DRAM: the POM-TLB wins on trap-free access,
        // associativity, and single-access translation (§4.1).
        let pom = Simulation::new(&chase_spec(), Scheme::pom_tlb(), long())
            .with_system_config(tiny_sys(2))
            .run();
        let tsb = Simulation::new(&chase_spec(), Scheme::Tsb, long())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(
            pom.p_avg() < tsb.p_avg(),
            "POM {} !< TSB {}",
            pom.p_avg(),
            tsb.p_avg()
        );
        assert!(pom.page_walks <= tsb.page_walks, "direct-mapped TSB conflicts");
    }

    #[test]
    fn shared_l2_reduces_walks() {
        let base = Simulation::new(&chase_spec(), Scheme::Baseline, long())
            .with_system_config(tiny_sys(2))
            .run();
        let shared = Simulation::new(&chase_spec(), Scheme::SharedL2, long())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(shared.resolved_shared_l2 > 0);
        assert!(
            shared.page_walks < base.page_walks,
            "pooled capacity must capture reuse: {} !< {}",
            shared.page_walks,
            base.page_walks
        );
    }

    #[test]
    fn tsb_resolves_translations() {
        let r = Simulation::new(&small_spec(), Scheme::Tsb, quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(r.resolved_tsb > 0, "TSB must capture reuse");
        // Every TSB path charges at least the trap cost.
        assert!(r.p_avg() >= 40.0, "trap floor: {}", r.p_avg());
    }

    #[test]
    fn uncached_pom_is_slower_than_cached() {
        let cached = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        let uncached = Simulation::new(&small_spec(), Scheme::pom_tlb_uncached(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(
            uncached.p_avg() > cached.p_avg(),
            "uncached {} !> cached {}",
            uncached.p_avg(),
            cached.p_avg()
        );
        // Figure 12's mechanism: same walk elimination either way.
        assert!((uncached.walks_eliminated() - cached.walks_eliminated()).abs() < 0.05);
    }

    #[test]
    fn predictors_train_during_pom_runs() {
        let r = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert!(r.size_pred.correct + r.size_pred.wrong > 0);
        assert!(r.bypass_pred.correct + r.bypass_pred.wrong > 0);
        assert!(r.size_pred.accuracy() > 0.5, "size acc {}", r.size_pred.accuracy());
    }

    #[test]
    fn shared_memory_mode_shares_translations() {
        let spec = WorkloadSpec::builder("shared")
            .footprint_bytes(16 << 20)
            .locality(LocalityModel::UniformRandom)
            .build();
        let shared = Simulation::new(&spec, Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(4))
            .shared_memory(true)
            .prepopulate(false)
            .run();
        let private = Simulation::new(&spec, Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(4))
            .prepopulate(false)
            .run();
        // Private L1/L2 TLB behaviour is identical either way (each core
        // runs the same stream), but sharing one address space means a page
        // first touched by core A is already in the shared POM-TLB when
        // core B misses on it: fewer page walks.
        assert!(shared.l2_tlb_misses > 0);
        assert!(
            shared.page_walks < private.page_walks,
            "shared {} !< private {}",
            shared.page_walks,
            private.page_walks
        );
    }

    #[test]
    fn native_mode_runs_and_is_cheaper() {
        let virt = Simulation::new(&small_spec(), Scheme::Baseline, quick())
            .with_system_config(tiny_sys(2))
            .run();
        let mut native_cfg = tiny_sys(2);
        native_cfg.walk_mode = pomtlb_tlb::WalkMode::Native;
        let native = Simulation::new(&small_spec(), Scheme::Baseline, quick())
            .with_system_config(native_cfg)
            .run();
        assert!(
            native.p_avg() < virt.p_avg(),
            "native {} !< virtualized {}",
            native.p_avg(),
            virt.p_avg()
        );
    }

    #[test]
    fn shootdown_purges_all_structures() {
        let mut system = System::new(tiny_sys(2), Scheme::pom_tlb());
        let mut tables = VirtTables::new(pomtlb_tlb::WalkMode::Virtualized);
        let space = AddressSpace::new(VmId(0), ProcessId(0));
        let va = Gva::new(0x1000_0000_0000);
        tables.ensure_mapped(va, PageSize::Small4K);
        // Touch twice so the translation lands everywhere.
        let _ = system.access(CoreId(0), space, va, AccessKind::Read, &tables, Cycles::ZERO);
        let _ = system.access(CoreId(0), space, va, AccessKind::Read, &tables, Cycles::new(1000));
        let found = system.shootdown(space, va, PageSize::Small4K);
        assert!(found >= 2, "entry must exist in MMU and POM, found {found}");
        assert!(!pom(&system).contains(space, va, PageSize::Small4K));
        let again = system.shootdown(space, va, PageSize::Small4K);
        assert_eq!(again, 0, "second shootdown finds nothing");
    }

    #[test]
    fn deterministic_reports() {
        let a = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        let b = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
        assert_eq!(a.total_penalty, b.total_penalty);
        assert_eq!(a.page_walks, b.page_walks);
    }

    /// An event-laden spec exercising every OS event kind at rates high
    /// enough that a 120k-ref run sees dozens of each frequent kind.
    fn eventful_spec() -> WorkloadSpec {
        WorkloadSpec::builder("unit-events")
            .footprint_bytes(16 << 20)
            .large_page_frac(0.25)
            .locality(LocalityModel::UniformRandom)
            .os_events(pomtlb_trace::OsEventRates {
                unmaps: 6.0,
                remaps: 3.0,
                promotes: 0.5,
                migrations: 1.0,
                vm_destroys: 0.1,
            })
            .build()
    }

    #[test]
    fn os_events_drive_shootdowns_for_every_scheme() {
        // The load-bearing part is the watchdog: with the checker on, every
        // one of these runs proves no level served a translation its unmap
        // round should have killed — across all four schemes. Each machine
        // invalidates, and pays for, only the structure it owns.
        let cost = crate::shootdown::ShootdownCost::default();
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            let r = Simulation::new(&eventful_spec(), scheme, quick())
                .with_system_config(tiny_sys(2))
                .check_consistency(true)
                .run();
            let s = r.shootdowns;
            assert!(s.events > 0, "{scheme:?} saw no events");
            assert!(s.unmaps > 0 && s.remaps > 0, "{scheme:?}: {s:?}");
            assert!(s.ipis > 0, "unmaps broadcast IPIs");
            assert!(s.total_invalidations() > 0);
            // Rounds cost IPIs and acks; only POM-TLB array rewrites and
            // cached-line scrubs cost more.
            let rounds = s.unmaps + s.remaps + s.promotes + s.vm_destroys;
            let ipis_only = (cost.ipi_send + cost.per_core_ack * 2) * rounds
                + cost.per_core_ack * s.migrations;
            match scheme {
                Scheme::PomTlb { .. } => {
                    // The array is prepopulated with the whole footprint, so
                    // every unmapped page had an entry to kill there.
                    assert!(s.pom_invalidations > 0, "{scheme:?}: {s:?}");
                    assert_eq!(s.tsb_invalidations + s.shared_l2_invalidations, 0, "{s:?}");
                    assert!(s.penalty > ipis_only, "array writes cost cycles: {s:?}");
                }
                Scheme::Tsb => {
                    assert!(s.tsb_invalidations > 0, "{scheme:?}: {s:?}");
                    assert_eq!(s.pom_invalidations + s.shared_l2_invalidations, 0, "{s:?}");
                    assert_eq!(s.cached_line_invalidations, 0, "{s:?}");
                    assert_eq!(s.penalty, ipis_only, "no pom_write cycles: {s:?}");
                }
                Scheme::Baseline | Scheme::SharedL2 => {
                    assert_eq!(s.pom_invalidations + s.tsb_invalidations, 0, "{scheme:?}: {s:?}");
                    assert_eq!(s.cached_line_invalidations, 0, "{scheme:?}: {s:?}");
                    assert_eq!(s.penalty, ipis_only, "{scheme:?}: no pom_write cycles: {s:?}");
                    let owned = u64::from(scheme == Scheme::SharedL2);
                    assert_eq!(s.shared_l2_invalidations.min(1), owned, "{scheme:?}: {s:?}");
                }
            }
        }
    }

    #[test]
    fn quiet_specs_report_no_shootdowns() {
        let r = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert_eq!(r.shootdowns, ShootdownStats::default());
    }

    #[test]
    fn event_runs_are_deterministic() {
        let run = || {
            Simulation::new(&eventful_spec(), Scheme::pom_tlb(), quick())
                .with_system_config(tiny_sys(2))
                .check_consistency(true)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.shootdowns, b.shootdowns);
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
        assert_eq!(a.total_penalty, b.total_penalty);
    }

    #[test]
    fn unmap_rate_scales_shootdown_penalty() {
        let at_rate = |unmaps: f64| {
            let spec = WorkloadSpec::builder("unit-rate")
                .footprint_bytes(16 << 20)
                .locality(LocalityModel::UniformRandom)
                .os_events(pomtlb_trace::OsEventRates::unmap_heavy(unmaps))
                .build();
            Simulation::new(&spec, Scheme::pom_tlb(), quick())
                .with_system_config(tiny_sys(2))
                .check_consistency(true)
                .run()
        };
        let quiet = at_rate(0.0);
        let light = at_rate(1.0);
        let heavy = at_rate(10.0);
        assert_eq!(quiet.shootdowns.events, 0);
        assert!(light.shootdowns.events > 0);
        assert!(
            heavy.shootdowns.events > 4 * light.shootdowns.events,
            "10x the rate: {} vs {}",
            heavy.shootdowns.events,
            light.shootdowns.events
        );
        assert!(heavy.shootdowns.penalty > light.shootdowns.penalty);
    }

    #[test]
    #[should_panic(expected = "stale translation")]
    fn stale_checker_catches_missed_shootdown() {
        let mut system = System::new(tiny_sys(1), Scheme::pom_tlb());
        system.set_check_consistency(true);
        let mut tables = VirtTables::new(pomtlb_tlb::WalkMode::Virtualized);
        let space = AddressSpace::new(VmId(0), ProcessId(0));
        let va = Gva::new(0x1000_0000_0000);
        let hpa = tables.ensure_mapped(va, PageSize::Small4K);
        system.note_mapped(space, va, PageSize::Small4K, hpa);
        let _ = system.access(CoreId(0), space, va, AccessKind::Read, &tables, Cycles::ZERO);
        // The OS drops the mapping but "forgets" the shootdown: the L1 TLB
        // still holds the dead translation and must be caught serving it.
        system.note_unmapped(space, va, PageSize::Small4K);
        let _ = system.access(CoreId(0), space, va, AccessKind::Read, &tables, Cycles::new(100));
    }

    /// Rates high enough that a 120k-ref run injects hundreds of faults,
    /// making serve-and-detect events statistically certain while staying
    /// fully deterministic (fixed seed).
    fn heavy_faults() -> FaultConfig {
        FaultConfig {
            pom_bit_flips_per_10k: 20.0,
            cached_flips_per_10k: 10.0,
            dropped_ipis_per_10k: 20.0,
            stale_reinserts_per_10k: 20.0,
            seed: 0x5eed,
        }
    }

    #[test]
    fn faults_detected_and_repaired_with_consistency_on() {
        let r = Simulation::new(&eventful_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .check_consistency(true)
            .with_faults(heavy_faults())
            .run();
        let f = r.faults;
        assert!(f.injected_total() > 0, "heavy rates must inject: {f:?}");
        assert!(f.detected_total > 0, "some corrupted serves must be caught: {f:?}");
        assert_eq!(f.escapes, 0, "consistency on lets nothing escape: {f:?}");
        assert_eq!(f.escaped_faults, 0);
        assert!(f.repair_penalty > Cycles::ZERO, "repairs cost cycles");
        assert!(f.mean_detection_latency_refs() >= 0.0);
    }

    #[test]
    fn faults_escape_with_consistency_off() {
        let r = Simulation::new(&eventful_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .check_consistency(false)
            .with_faults(heavy_faults())
            .run();
        let f = r.faults;
        assert!(f.injected_total() > 0, "{f:?}");
        assert_eq!(f.detected_total, 0, "detection is off: {f:?}");
        assert!(f.escapes > 0, "wrong serves must be counted: {f:?}");
        assert!(f.escaped_faults > 0);
        assert_eq!(f.repair_penalty, Cycles::ZERO, "no repairs without detection");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            Simulation::new(&eventful_spec(), Scheme::pom_tlb(), quick())
                .with_system_config(tiny_sys(2))
                .check_consistency(true)
                .with_faults(heavy_faults())
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.total_penalty, b.total_penalty);
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
    }

    #[test]
    fn zero_rate_fault_plan_perturbs_nothing() {
        let zero = FaultConfig {
            pom_bit_flips_per_10k: 0.0,
            cached_flips_per_10k: 0.0,
            dropped_ipis_per_10k: 0.0,
            stale_reinserts_per_10k: 0.0,
            seed: 1,
        };
        let base = Simulation::new(&eventful_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .check_consistency(true)
            .run();
        let armed = Simulation::new(&eventful_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .check_consistency(true)
            .with_faults(zero)
            .run();
        assert_eq!(armed.faults, FaultStats::default());
        assert_eq!(base.total_penalty, armed.total_penalty);
        assert_eq!(base.page_walks, armed.page_walks);
        assert_eq!(base.shootdowns, armed.shootdowns);
    }

    #[test]
    fn report_counters_are_consistent() {
        let r = Simulation::new(&small_spec(), Scheme::pom_tlb(), quick())
            .with_system_config(tiny_sys(2))
            .run();
        assert_eq!(
            r.resolved_l2d + r.resolved_l3d + r.resolved_pom_dram + r.page_walks,
            r.l2_tlb_misses,
            "every L2 TLB miss resolves exactly once"
        );
        assert!(r.l1_tlb_misses >= r.l2_tlb_misses);
        assert!(r.refs >= r.l1_tlb_misses);
        assert!(r.instructions > r.refs, "gaps imply more instructions than refs");
    }
}
