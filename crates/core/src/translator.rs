//! The one structure that tells the four machines apart.
//!
//! Below the per-core SRAM TLBs, the paper's machines differ in exactly
//! one structure: the walker alone (Baseline), a pooled SRAM L2 TLB
//! (Shared_L2), a 16 MB software TSB, or the 16 MB POM-TLB. [`Translator`]
//! is that structure, built from the [`Scheme`], so a machine allocates,
//! fills, scans on VM teardown and pays shootdown cycles for its own
//! structure only.

use pomtlb_cache::Hierarchy;
use pomtlb_sram_model::SramModel;
use pomtlb_tlb::{SramTlb, TlbConfig, Tsb};
use pomtlb_types::{AddressSpace, Cycles, Gva, Hpa, PageSize, VmId};

use crate::config::SystemConfig;
use crate::pom_tlb::PomTlb;
use crate::scheme::Scheme;

/// The scheme's own translation structure, consulted on an L2 TLB miss
/// before (or instead of) the page walk.
#[derive(Debug, Clone)]
pub enum Translator {
    /// Baseline: every L2 TLB miss walks.
    Walk,
    /// Shared_L2: the private L2 capacities pooled into one chip-level
    /// SRAM TLB.
    SharedL2 {
        /// The pooled TLB.
        tlb: SramTlb,
        /// Its access latency: the CACTI-style array time plus a fixed
        /// interconnect hop (it sits at the chip level like the L3).
        latency: Cycles,
    },
    /// SPARC's software-managed translation storage buffer in DRAM.
    Tsb(Tsb),
    /// The paper's POM-TLB.
    Pom(PomTlb),
}

/// What one invalidation removed from a [`Translator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Purge {
    /// Entries dropped from the structure.
    pub entries: u64,
    /// Cached copies of POM-TLB set lines scrubbed from the data caches
    /// (mostly-inclusive rule; zero for every other structure).
    pub lines: u64,
}

impl Translator {
    /// Builds `scheme`'s structure for `config`.
    pub fn new(config: &SystemConfig, scheme: Scheme) -> Translator {
        match scheme {
            Scheme::Baseline => Translator::Walk,
            Scheme::SharedL2 => {
                let entries = config.shared_l2_total_entries();
                let array_bytes = (u64::from(entries) * 16).next_power_of_two();
                let latency = SramModel::default().access_cycles(array_bytes, config.cpu_ghz) + 8;
                Translator::SharedL2 {
                    tlb: SramTlb::new(TlbConfig::new(entries, 12, 0)),
                    latency: Cycles::new(latency),
                }
            }
            Scheme::Tsb => Translator::Tsb(Tsb::new(config.tsb)),
            Scheme::PomTlb { .. } => Translator::Pom(PomTlb::new(config.pom)),
        }
    }

    /// The POM-TLB, on a POM-TLB machine.
    pub fn pom(&self) -> Option<&PomTlb> {
        match self {
            Translator::Pom(pom) => Some(pom),
            _ => None,
        }
    }

    /// The TSB, on a TSB machine.
    pub fn tsb(&self) -> Option<&Tsb> {
        match self {
            Translator::Tsb(tsb) => Some(tsb),
            _ => None,
        }
    }

    /// Installs one translation into an in-DRAM structure without charging
    /// time; SRAM structures warm naturally and are left alone.
    pub fn prepopulate(&mut self, space: AddressSpace, va: Gva, size: PageSize, page_base: Hpa) {
        match self {
            Translator::Pom(pom) => {
                pom.insert(space, va, size, page_base);
            }
            // The TSB stores per-dimension entries; the guest-physical base
            // is only used as a key, so derive it from the vpn.
            Translator::Tsb(tsb) => tsb.fill(space, va, size, va.page_base(size).raw(), page_base),
            Translator::Walk | Translator::SharedL2 { .. } => {}
        }
    }

    /// Kills `va`'s `size` translation. On a POM-TLB machine the cached
    /// copy of its Eq. (1) set line is scrubbed too, unconditionally: a
    /// data cache may hold the line after the array entry was evicted.
    pub fn invalidate_page(
        &mut self,
        hier: &mut Hierarchy,
        space: AddressSpace,
        va: Gva,
        size: PageSize,
    ) -> Purge {
        match self {
            Translator::Walk => Purge::default(),
            Translator::SharedL2 { tlb, .. } => {
                Purge { entries: u64::from(tlb.invalidate_page(space, va, size)), lines: 0 }
            }
            Translator::Tsb(tsb) => {
                Purge { entries: u64::from(tsb.invalidate(space, va, size)), lines: 0 }
            }
            Translator::Pom(pom) => {
                let lines = u64::from(hier.invalidate_line(pom.set_addr(space, va, size)));
                Purge { entries: u64::from(pom.invalidate_page(space, va, size)), lines }
            }
        }
    }

    /// Drops every entry of `vm`. On a POM-TLB machine the cached copy of
    /// every set line the flush touched is scrubbed too; `evicted` is the
    /// reusable buffer of those set addresses.
    pub fn flush_vm(&mut self, hier: &mut Hierarchy, vm: VmId, evicted: &mut Vec<Hpa>) -> Purge {
        match self {
            Translator::Walk => Purge::default(),
            Translator::SharedL2 { tlb, .. } => Purge { entries: tlb.flush_vm(vm), lines: 0 },
            Translator::Tsb(tsb) => Purge { entries: tsb.flush_vm(vm), lines: 0 },
            Translator::Pom(pom) => {
                pom.flush_vm(vm, evicted);
                let lines = evicted.iter().map(|a| u64::from(hier.invalidate_line(*a))).sum();
                Purge { entries: evicted.len() as u64, lines }
            }
        }
    }

    /// Clears the structure's statistics after warmup (contents stay).
    pub fn reset_stats(&mut self) {
        match self {
            Translator::SharedL2 { tlb, .. } => tlb.reset_stats(),
            Translator::Pom(pom) => pom.reset_stats(),
            Translator::Walk | Translator::Tsb(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_types::ProcessId;

    #[test]
    fn only_in_dram_structures_prepopulate_and_purge() {
        let config = SystemConfig { n_cores: 1, ..Default::default() };
        let mut hier = Hierarchy::new(config.caches, 1);
        let mut evicted = Vec::new();
        let space = AddressSpace::new(VmId(1), ProcessId(0));
        let (a, b) = (Gva::new(0x1000), Gva::new(0x2000));
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            let mut t = Translator::new(&config, scheme);
            let in_dram = matches!(t, Translator::Tsb(_) | Translator::Pom(_));
            for va in [a, b] {
                t.prepopulate(space, va, PageSize::Small4K, Hpa::new(va.raw() << 4));
            }
            let mut kill = || t.invalidate_page(&mut hier, space, a, PageSize::Small4K).entries;
            assert_eq!(kill(), u64::from(in_dram), "{scheme:?}");
            assert_eq!(kill(), 0, "{scheme:?}: already gone");
            let flushed = t.flush_vm(&mut hier, VmId(1), &mut evicted).entries;
            assert_eq!(flushed > 0, in_dram, "{scheme:?}");
            assert_eq!(t.flush_vm(&mut hier, VmId(1), &mut evicted), Purge::default());
        }
    }
}
