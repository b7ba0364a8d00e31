//! TLB consistency: the shootdown engine and the stale-translation checker.
//!
//! §2.2 of the paper addresses the one structural liability of making TLB
//! entries cacheable: a translation can now live in *three* kinds of places
//! at once — per-core SRAM TLBs, the POM-TLB's DRAM array, and ordinary
//! data-cache lines holding copies of POM-TLB sets. A shootdown that missed
//! any one of them would leave the machine silently using a dead mapping.
//! The paper's answer is the *mostly-inclusive* rule: the POM-TLB set
//! address computed by Eq. (1) is a real host-physical address, so the
//! initiating core can issue a plain cache-line invalidation for that
//! address and the existing coherence machinery scrubs every cached copy.
//!
//! [`ShootdownEngine`] models the whole round for each OS event kind:
//! which structures are touched, how many entries die in each, and what the
//! round costs in cycles (IPI dispatch, per-core interrupt + flush + ack,
//! DRAM row activation for each POM-TLB array write, and one coherence
//! action per cached line scrubbed). Counts and cycles land in
//! [`ShootdownStats`], which `SimReport` carries to the CLI and JSON
//! output.
//!
//! [`StaleChecker`] is the corresponding watchdog: it shadows the live
//! mapping set and panics the simulation if *any* level ever serves a
//! translation after its unmap — the invariant the engine exists to uphold,
//! checked end to end for all four schemes.

use std::collections::HashMap;

use pomtlb_cache::Hierarchy;
use pomtlb_tlb::NestedWalker;
use pomtlb_types::{AddressSpace, CoreId, Cycles, Gva, Hpa, PageSize, VmId};
use serde::{Deserialize, Serialize};

use crate::mmu::CoreMmu;
use crate::translator::{Purge, Translator};

/// Cycle costs of the shootdown machinery.
///
/// The constants model a software IPI round on a ~4 GHz core: an initiator
/// trap plus APIC writes to dispatch the round, an interrupt entry +
/// `invlpg`/flush + acknowledgement on every responding core, a row
/// activation + write recovery per POM-TLB DRAM line rewritten, and one
/// coherence invalidation per data-cache line scrubbed under the
/// mostly-inclusive rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShootdownCost {
    /// Initiator-side cost of assembling and dispatching one IPI round.
    pub ipi_send: Cycles,
    /// Per-responding-core interrupt entry, local flush, and ack.
    pub per_core_ack: Cycles,
    /// One POM-TLB DRAM array line rewrite (row activation + write
    /// recovery on the die-stacked channel).
    pub pom_write: Cycles,
    /// Scrubbing one cached POM-TLB line from the data caches.
    pub cached_line_inval: Cycles,
}

impl Default for ShootdownCost {
    fn default() -> ShootdownCost {
        ShootdownCost {
            ipi_send: Cycles::new(400),
            per_core_ack: Cycles::new(150),
            pom_write: Cycles::new(120),
            cached_line_inval: Cycles::new(24),
        }
    }
}

/// What the consistency machinery did, per structure and per event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShootdownStats {
    /// OS events handled (all kinds).
    pub events: u64,
    /// Unmap events.
    pub unmaps: u64,
    /// Remap events.
    pub remaps: u64,
    /// Promotion events.
    pub promotes: u64,
    /// Migration events.
    pub migrations: u64,
    /// VM-teardown events.
    pub vm_destroys: u64,
    /// Inter-processor interrupts delivered.
    pub ipis: u64,
    /// Entries dropped from per-core L1/L2 SRAM TLBs.
    pub sram_invalidations: u64,
    /// Entries dropped from the shared L2 TLB (SharedL2 scheme).
    pub shared_l2_invalidations: u64,
    /// Slots cleared in the TSB (Tsb scheme).
    pub tsb_invalidations: u64,
    /// Entries cleared in the POM-TLB DRAM array.
    pub pom_invalidations: u64,
    /// Cached POM-TLB lines scrubbed from the data caches
    /// (mostly-inclusive rule).
    pub cached_line_invalidations: u64,
    /// Paging-structure-cache flushes on migrations and teardowns.
    pub psc_flushes: u64,
    /// Total cycles charged for consistency work.
    pub penalty: Cycles,
}

impl ShootdownStats {
    /// Total entries dropped across every level.
    pub fn total_invalidations(&self) -> u64 {
        self.sram_invalidations
            + self.shared_l2_invalidations
            + self.tsb_invalidations
            + self.pom_invalidations
            + self.cached_line_invalidations
    }
}

/// Mutable borrows of every structure a shootdown can reach.
///
/// The engine does not own the hardware — [`crate::System`] does — so each
/// event handler borrows the affected structures through this view, which
/// keeps the borrows disjoint from the engine's own statistics.
pub struct ShootdownParts<'a> {
    /// Per-core MMUs (L1 + L2 SRAM TLBs).
    pub mmus: &'a mut [CoreMmu],
    /// Per-core page walkers (paging-structure caches).
    pub walkers: &'a mut [NestedWalker],
    /// The data-cache hierarchy holding cached POM-TLB lines.
    pub hier: &'a mut Hierarchy,
    /// The scheme's own structure: nothing, the Shared_L2 TLB, the TSB or
    /// the POM-TLB DRAM array.
    pub translator: &'a mut Translator,
}

/// Issues shootdown rounds for OS events and accounts their cost.
#[derive(Debug, Clone)]
pub struct ShootdownEngine {
    cost: ShootdownCost,
    stats: ShootdownStats,
    /// Fault injection: shootdown rounds that must "lose" one core's IPI.
    pending_ipi_drops: u32,
    /// IPI drops that actually left a stale SRAM entry behind.
    dropped_ipis: u64,
    /// Reusable evicted-set-address buffer for [`Translator::flush_vm`],
    /// so churn-heavy consolidation runs don't allocate per teardown.
    scratch: Vec<Hpa>,
}

impl ShootdownEngine {
    /// Creates an engine with the given cost model.
    pub fn new(cost: ShootdownCost) -> ShootdownEngine {
        ShootdownEngine {
            cost,
            stats: ShootdownStats::default(),
            pending_ipi_drops: 0,
            dropped_ipis: 0,
            scratch: Vec::new(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ShootdownStats {
        &self.stats
    }

    /// Resets statistics (post-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = ShootdownStats::default();
    }

    /// Fault injection: arms one IPI drop — the next per-page shootdown
    /// round skips the last core's SRAM invalidation, leaving whatever
    /// that core's TLBs held for the page.
    pub fn inject_dropped_ipi(&mut self) {
        self.pending_ipi_drops = self.pending_ipi_drops.saturating_add(1);
    }

    /// IPI drops that actually left a stale entry behind (an armed drop
    /// whose victim core held nothing for the page is a harmless no-op and
    /// is not counted).
    pub fn dropped_ipis(&self) -> u64 {
        self.dropped_ipis
    }

    /// Books what a translator purge removed under its structure's counter
    /// and returns its cycles: a die-stacked row write per POM-TLB array
    /// entry and a coherence action per cached line scrubbed. SRAM and TSB
    /// drops ride the IPI round for free.
    fn account(&mut self, translator: &Translator, purge: Purge) -> Cycles {
        self.stats.cached_line_invalidations += purge.lines;
        let array_writes = match translator {
            Translator::Walk => 0,
            Translator::SharedL2 { .. } => {
                self.stats.shared_l2_invalidations += purge.entries;
                0
            }
            Translator::Tsb(_) => {
                self.stats.tsb_invalidations += purge.entries;
                0
            }
            Translator::Pom(_) => {
                self.stats.pom_invalidations += purge.entries;
                purge.entries
            }
        };
        self.cost.pom_write * array_writes + self.cost.cached_line_inval * purge.lines
    }

    /// Kills one page's translation in every structure that may hold it.
    ///
    /// The OS does not know which page size (if either) the translation
    /// was cached under, so both are invalidated in the SRAM TLBs and in
    /// the scheme's structure; on a POM-TLB machine that scrubs the cached
    /// copy of both partitions' set lines (see
    /// [`Translator::invalidate_page`]).
    ///
    /// Returns the array-write + line-scrub cycles (the per-round IPI costs
    /// are added by the calling event handler).
    fn invalidate_page_everywhere(
        &mut self,
        parts: &mut ShootdownParts<'_>,
        space: AddressSpace,
        va: Gva,
    ) -> Cycles {
        // Fault injection: an armed IPI drop silences the last core for
        // this round. The drop is consumed either way, but only counts as
        // an applied fault when that core actually held the translation —
        // a lost IPI to a core with nothing stale is a harmless no-op.
        let skip = if self.pending_ipi_drops > 0 && !parts.mmus.is_empty() {
            self.pending_ipi_drops -= 1;
            let victim = parts.mmus.len() - 1;
            let held = PageSize::POM_SIZES
                .iter()
                .any(|&s| parts.mmus[victim].holds(space, va, s));
            if held {
                self.dropped_ipis += 1;
                Some(victim)
            } else {
                None
            }
        } else {
            None
        };
        let mut cycles = Cycles::ZERO;
        for size in PageSize::POM_SIZES {
            for (i, mmu) in parts.mmus.iter_mut().enumerate() {
                if Some(i) == skip {
                    continue;
                }
                self.stats.sram_invalidations += u64::from(mmu.invalidate_page(space, va, size));
            }
            let purge = parts.translator.invalidate_page(parts.hier, space, va, size);
            cycles += self.account(parts.translator, purge);
        }
        cycles
    }

    /// Adds one full IPI broadcast round to the stats and returns its total
    /// cost including `extra` (array writes and line scrubs).
    fn broadcast_round(&mut self, n_cores: usize, extra: Cycles) -> Cycles {
        self.stats.ipis += n_cores as u64;
        let total = self.cost.ipi_send + self.cost.per_core_ack * n_cores as u64 + extra;
        self.stats.penalty += total;
        total
    }

    /// Shootdown for an `UnmapPage` event. Returns the cycles charged.
    pub fn unmap_page(
        &mut self,
        parts: &mut ShootdownParts<'_>,
        space: AddressSpace,
        va: Gva,
    ) -> Cycles {
        self.stats.events += 1;
        self.stats.unmaps += 1;
        let extra = self.invalidate_page_everywhere(parts, space, va);
        self.broadcast_round(parts.mmus.len(), extra)
    }

    /// Shootdown for a `RemapPage` event (the caller re-maps the page after
    /// this returns). Returns the cycles charged.
    pub fn remap_page(
        &mut self,
        parts: &mut ShootdownParts<'_>,
        space: AddressSpace,
        va: Gva,
    ) -> Cycles {
        self.stats.events += 1;
        self.stats.remaps += 1;
        let extra = self.invalidate_page_everywhere(parts, space, va);
        self.broadcast_round(parts.mmus.len(), extra)
    }

    /// Shootdown for a `PromotePage` event: one broadcast round covers the
    /// whole window of 4 KB pages (as Linux batches THP promotion flushes),
    /// but every page is scrubbed from every structure individually.
    /// Returns the cycles charged.
    pub fn promote_window(
        &mut self,
        parts: &mut ShootdownParts<'_>,
        space: AddressSpace,
        pages: &[Gva],
    ) -> Cycles {
        self.stats.events += 1;
        self.stats.promotes += 1;
        let mut extra = Cycles::ZERO;
        for va in pages {
            extra += self.invalidate_page_everywhere(parts, space, *va);
        }
        self.broadcast_round(parts.mmus.len(), extra)
    }

    /// A `MigrateProcess` event: the process leaves `core`, so that core's
    /// per-space SRAM TLB entries and paging-structure-cache state are dead
    /// weight. No broadcast is needed — only the source core flushes.
    /// Returns the cycles charged.
    pub fn migrate(
        &mut self,
        parts: &mut ShootdownParts<'_>,
        core: CoreId,
        space: AddressSpace,
    ) -> Cycles {
        self.stats.events += 1;
        self.stats.migrations += 1;
        self.stats.sram_invalidations += parts.mmus[core.index()].flush_space(space);
        parts.walkers[core.index()].flush_space(space);
        self.stats.psc_flushes += 1;
        let total = self.cost.per_core_ack;
        self.stats.penalty += total;
        total
    }

    /// A `DestroyVm` event: every translation the VM owns dies everywhere —
    /// per-core TLBs, PSCs and the scheme's structure (on a POM-TLB machine
    /// the array and, mostly-inclusive, every cached copy of the array
    /// lines the flush touched). Returns the cycles charged.
    pub fn destroy_vm(&mut self, parts: &mut ShootdownParts<'_>, vm: VmId) -> Cycles {
        self.stats.events += 1;
        self.stats.vm_destroys += 1;
        for mmu in parts.mmus.iter_mut() {
            self.stats.sram_invalidations += mmu.flush_vm(vm);
        }
        for walker in parts.walkers.iter_mut() {
            walker.flush_vm(vm);
            self.stats.psc_flushes += 1;
        }
        let purge = parts.translator.flush_vm(parts.hier, vm, &mut self.scratch);
        let extra = self.account(parts.translator, purge);
        self.broadcast_round(parts.mmus.len(), extra)
    }

    /// Detection-triggered repair: purges one page's translation from
    /// every structure with a full broadcast round, exactly like an unmap
    /// shootdown but not counted as an OS event. A repair never consumes a
    /// pending injected IPI drop — a repair round that sabotaged itself
    /// would make the detector look worse than the fault model intends.
    /// Returns the cycles charged.
    pub fn repair_page(
        &mut self,
        parts: &mut ShootdownParts<'_>,
        space: AddressSpace,
        va: Gva,
    ) -> Cycles {
        let stashed = std::mem::take(&mut self.pending_ipi_drops);
        let extra = self.invalidate_page_everywhere(parts, space, va);
        let total = self.broadcast_round(parts.mmus.len(), extra);
        self.pending_ipi_drops = stashed;
        total
    }
}

/// The recorded fate of one page mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MappingState {
    Live(Hpa),
    Unmapped,
}

/// Debug watchdog that shadows the live mapping set and panics if any level
/// of any scheme serves a translation after its unmap, or serves a frame
/// that disagrees with the page tables.
///
/// Enabled under `cfg(debug_assertions)` by default and via the CLI's
/// `--check-consistency` flag in release builds; when disabled it records
/// and checks nothing. Pages never noted are ignored, so partial
/// instrumentation is safe.
#[derive(Debug, Clone, Default)]
pub struct StaleChecker {
    enabled: bool,
    mappings: HashMap<(AddressSpace, u64, PageSize), MappingState>,
}

impl StaleChecker {
    /// Creates a checker; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> StaleChecker {
        StaleChecker { enabled, mappings: HashMap::new() }
    }

    /// Whether the checker is recording and verifying.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables checking. Disabling clears the shadow state.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.mappings.clear();
        }
    }

    /// Records that `va` is now mapped to `page_base`.
    pub fn note_mapped(&mut self, space: AddressSpace, va: Gva, size: PageSize, page_base: Hpa) {
        if self.enabled {
            let key = (space, va.page_base(size).raw(), size);
            self.mappings.insert(key, MappingState::Live(page_base));
        }
    }

    /// Records that `va`'s mapping was destroyed.
    pub fn note_unmapped(&mut self, space: AddressSpace, va: Gva, size: PageSize) {
        if self.enabled {
            let key = (space, va.page_base(size).raw(), size);
            self.mappings.insert(key, MappingState::Unmapped);
        }
    }

    /// The frame the shadowed page tables hold for `va`, if the page is
    /// noted live. Detection-triggered repair uses this to serve the
    /// correct translation after purging a corrupted one.
    pub fn lookup_page(&self, space: AddressSpace, va: Gva, size: PageSize) -> Option<Hpa> {
        let key = (space, va.page_base(size).raw(), size);
        match self.mappings.get(&key) {
            Some(MappingState::Live(expected)) => Some(*expected),
            _ => None,
        }
    }

    /// Judges a translation some level just served, without panicking —
    /// the detector interface fault injection runs against. A disabled
    /// checker judges everything [`StaleVerdict::Clean`].
    pub fn check(
        &self,
        space: AddressSpace,
        va: Gva,
        size: PageSize,
        served: Hpa,
    ) -> StaleVerdict {
        if !self.enabled {
            return StaleVerdict::Clean;
        }
        let key = (space, va.page_base(size).raw(), size);
        match self.mappings.get(&key) {
            Some(MappingState::Unmapped) => StaleVerdict::Stale,
            Some(MappingState::Live(expected)) if *expected != served => {
                StaleVerdict::Wrong { expected: *expected }
            }
            _ => StaleVerdict::Clean,
        }
    }

    /// Verifies a translation some level just served.
    ///
    /// # Panics
    ///
    /// Panics if the page was noted unmapped, or if the served frame
    /// disagrees with the recorded mapping.
    pub fn verify(
        &self,
        space: AddressSpace,
        va: Gva,
        size: PageSize,
        served: Hpa,
        source: &str,
    ) {
        match self.check(space, va, size, served) {
            StaleVerdict::Clean => {}
            StaleVerdict::Stale => panic!(
                "stale translation: {source} served {served} for {space} {va} ({size}) \
                 after its unmap"
            ),
            StaleVerdict::Wrong { expected } => panic!(
                "wrong translation: {source} served {served} for {space} {va} ({size}), \
                 page tables say {expected}"
            ),
        }
    }
}

/// The checker's judgement of one served translation — the non-panicking
/// detector interface fault injection runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleVerdict {
    /// The serve agrees with the shadowed page tables (or the page was
    /// never noted — partial instrumentation is safe).
    Clean,
    /// The page was unmapped and the serve used the dead translation.
    Stale,
    /// The serve disagrees with the live mapping.
    Wrong {
        /// The frame the shadowed page tables actually hold.
        expected: Hpa,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_types::ProcessId;

    fn space(vm: u16, pid: u16) -> AddressSpace {
        AddressSpace::new(VmId(vm), ProcessId(pid))
    }

    #[test]
    fn default_costs_are_ordered_sensibly() {
        let c = ShootdownCost::default();
        assert!(c.ipi_send > c.per_core_ack, "dispatch dominates a single ack");
        assert!(c.pom_write > c.cached_line_inval, "DRAM write beats a coherence action");
    }

    #[test]
    fn stats_total_sums_all_levels() {
        let s = ShootdownStats {
            sram_invalidations: 1,
            shared_l2_invalidations: 2,
            tsb_invalidations: 3,
            pom_invalidations: 4,
            cached_line_invalidations: 5,
            ..Default::default()
        };
        assert_eq!(s.total_invalidations(), 15);
    }

    #[test]
    fn checker_accepts_live_and_ignores_unknown() {
        let mut c = StaleChecker::new(true);
        let s = space(0, 0);
        c.note_mapped(s, Gva::new(0x1234), PageSize::Small4K, Hpa::new(0x9000));
        // Any address inside the page verifies against the page's mapping.
        c.verify(s, Gva::new(0x1fff), PageSize::Small4K, Hpa::new(0x9000), "test");
        // A page never noted is ignored entirely.
        c.verify(s, Gva::new(0xdead_f000), PageSize::Small4K, Hpa::new(0x1), "test");
    }

    #[test]
    #[should_panic(expected = "stale translation")]
    fn checker_panics_on_use_after_unmap() {
        let mut c = StaleChecker::new(true);
        let s = space(0, 0);
        c.note_mapped(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x9000));
        c.note_unmapped(s, Gva::new(0x1000), PageSize::Small4K);
        c.verify(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x9000), "L1 TLB");
    }

    #[test]
    #[should_panic(expected = "wrong translation")]
    fn checker_panics_on_frame_mismatch() {
        let mut c = StaleChecker::new(true);
        let s = space(0, 0);
        c.note_mapped(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x9000));
        c.verify(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0xb000), "POM-TLB");
    }

    #[test]
    fn check_returns_verdicts_without_panicking() {
        let mut c = StaleChecker::new(true);
        let s = space(0, 0);
        let va = Gva::new(0x1000);
        assert_eq!(c.check(s, va, PageSize::Small4K, Hpa::new(0x1)), StaleVerdict::Clean);
        c.note_mapped(s, va, PageSize::Small4K, Hpa::new(0x9000));
        assert_eq!(c.check(s, va, PageSize::Small4K, Hpa::new(0x9000)), StaleVerdict::Clean);
        assert_eq!(
            c.check(s, va, PageSize::Small4K, Hpa::new(0xb000)),
            StaleVerdict::Wrong { expected: Hpa::new(0x9000) }
        );
        assert_eq!(c.lookup_page(s, va, PageSize::Small4K), Some(Hpa::new(0x9000)));
        c.note_unmapped(s, va, PageSize::Small4K);
        assert_eq!(c.check(s, va, PageSize::Small4K, Hpa::new(0x9000)), StaleVerdict::Stale);
        assert_eq!(c.lookup_page(s, va, PageSize::Small4K), None);
    }

    #[test]
    fn disabled_checker_checks_clean() {
        let mut c = StaleChecker::new(false);
        let s = space(0, 0);
        c.note_unmapped(s, Gva::new(0x1000), PageSize::Small4K);
        assert_eq!(
            c.check(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x9000)),
            StaleVerdict::Clean
        );
    }

    #[test]
    fn armed_ipi_drop_is_remembered() {
        let mut e = ShootdownEngine::new(ShootdownCost::default());
        assert_eq!(e.dropped_ipis(), 0);
        e.inject_dropped_ipi();
        e.inject_dropped_ipi();
        assert_eq!(e.pending_ipi_drops, 2);
        assert_eq!(e.dropped_ipis(), 0, "drops count only when applied to a held entry");
    }

    #[test]
    fn disabled_checker_is_inert() {
        let mut c = StaleChecker::new(false);
        let s = space(0, 0);
        c.note_unmapped(s, Gva::new(0x1000), PageSize::Small4K);
        c.verify(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x9000), "test");
        assert!(!c.enabled());
        // Re-mapping after enabling starts from clean state.
        c.set_enabled(true);
        c.verify(s, Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x9000), "test");
    }
}
