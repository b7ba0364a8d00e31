//! System and simulation configuration (the paper's Table 1, plus POM-TLB
//! geometry and run lengths).

use pomtlb_cache::HierarchyConfig;
use pomtlb_dram::DramTiming;
use pomtlb_tlb::{MmuConfig, PscConfig, TsbConfig, WalkMode};
use pomtlb_types::{AddressSpace, Gva, Hpa, PageSize};
use serde::{Deserialize, Serialize};

use crate::pom_tlb::eq1_set_index;
use crate::shootdown::ShootdownCost;

/// Geometry and placement of the POM-TLB itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PomTlbConfig {
    /// Total capacity across both partitions (paper default: 16 MB; §4.6
    /// sweeps 8–32 MB with <1 % effect).
    pub capacity_bytes: u64,
    /// Fraction of capacity given to the 4 KB partition; the paper fixes
    /// the split statically and notes exact sizes "do not matter much".
    pub small_fraction: f64,
    /// Ways per set — 4, matching one 64 B die-stacked burst (§2.1.1).
    pub ways: u32,
    /// Base host-physical address of the 4 KB partition.
    pub base_small: Hpa,
}

impl Default for PomTlbConfig {
    fn default() -> Self {
        PomTlbConfig {
            capacity_bytes: 16 << 20,
            small_fraction: 0.5,
            ways: 4,
            base_small: Hpa::new(0x60_0000_0000),
        }
    }
}

impl PomTlbConfig {
    /// Bytes of the 4 KB-entry partition.
    pub fn small_bytes(&self) -> u64 {
        let raw = (self.capacity_bytes as f64 * self.small_fraction) as u64;
        raw.next_power_of_two() / if raw.is_power_of_two() { 1 } else { 2 }
    }

    /// Bytes of the 2 MB-entry partition.
    pub fn large_bytes(&self) -> u64 {
        self.capacity_bytes - self.small_bytes()
    }

    /// Base host-physical address of the 2 MB partition (laid out directly
    /// after the small partition).
    pub fn base_large(&self) -> Hpa {
        Hpa::new(self.base_small.raw() + self.small_bytes())
    }

    /// Sets in the `size` partition: one set is `ways` 16-byte entries, so
    /// with the paper's 4 ways a set is exactly one 64-byte burst. The
    /// associativity ablation (DESIGN.md abl1) varies `ways`.
    ///
    /// # Panics
    ///
    /// Panics for 1 GB pages, which have no partition, and if the geometry
    /// is degenerate: zero ways, or a set count that is not a power of two
    /// (Eq. (1) extracts the index with a mask).
    pub fn n_sets(&self, size: PageSize) -> u64 {
        assert!(self.ways > 0, "associativity must be nonzero");
        let bytes = match size {
            PageSize::Small4K => self.small_bytes(),
            PageSize::Large2M => self.large_bytes(),
            PageSize::Huge1G => panic!("1 GB pages have no POM-TLB partition"),
        };
        let n_sets = bytes / (16 * u64::from(self.ways));
        assert!(n_sets > 0 && n_sets.is_power_of_two(), "partition needs a power-of-two set count, got {n_sets}");
        n_sets
    }

    /// Eq. (1): the set index `va` maps to in the `size` partition. A
    /// function of the geometry alone, so a machine without a POM-TLB can
    /// still report how evenly its tenants would spread
    /// ([`crate::tenancy::set_index_dispersion`]).
    pub fn set_index(&self, space: AddressSpace, va: Gva, size: PageSize) -> u64 {
        eq1_set_index(space, va, size, self.n_sets(size) - 1)
    }
}

/// The full hardware configuration (Table 1 defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core count (paper headline: 8; §4.6 sweeps 4 and 32).
    pub n_cores: usize,
    /// CPU frequency in GHz.
    pub cpu_ghz: f64,
    /// Data-cache hierarchy.
    pub caches: HierarchyConfig,
    /// Per-core TLB front end.
    pub mmu: MmuConfig,
    /// Paging-structure caches.
    pub psc: PscConfig,
    /// Die-stacked DRAM channel (hosts the POM-TLB).
    pub die_stacked: DramTiming,
    /// Off-chip DDR4 channel (hosts data and page tables).
    pub ddr: DramTiming,
    /// Banks in the off-chip DDR4 channel.
    pub dram_banks: u32,
    /// Banks in the die-stacked channel (HBM2 exposes 16 banks across 4
    /// bank groups per pseudo-channel; the POM-TLB's dedicated channel gets
    /// the full complement).
    pub die_stacked_banks: u32,
    /// POM-TLB geometry.
    pub pom: PomTlbConfig,
    /// TSB baseline configuration.
    pub tsb: TsbConfig,
    /// Native or virtualized translation.
    pub walk_mode: WalkMode,
    /// Saturating-counter depth of the size/bypass predictor; 1 is the
    /// paper's single-bit design, larger values add the hysteresis its
    /// footnote 2 suggests (ablation abl2).
    pub predictor_hysteresis: u8,
    /// Entries of the Shared_L2 baseline's shared TLB. The scheme combines
    /// the private L2 capacities (§3.3), so the default scales with cores
    /// at build time when left `None`.
    pub shared_l2_entries: Option<u32>,
    /// Cycle costs of TLB shootdown rounds (§2.2 consistency machinery).
    /// Defaulted on deserialization so older configs load unchanged.
    #[serde(default)]
    pub shootdown: ShootdownCost,
}

impl Default for SystemConfig {
    fn default() -> Self {
        let cpu_ghz = 4.0;
        SystemConfig {
            n_cores: 8,
            cpu_ghz,
            caches: HierarchyConfig::default(),
            mmu: MmuConfig::default(),
            psc: PscConfig::default(),
            die_stacked: DramTiming::die_stacked(cpu_ghz),
            ddr: DramTiming::ddr4_2133(cpu_ghz),
            dram_banks: 16,
            die_stacked_banks: 32,
            pom: PomTlbConfig::default(),
            tsb: TsbConfig::default(),
            walk_mode: WalkMode::Virtualized,
            predictor_hysteresis: 1,
            shared_l2_entries: None,
            shootdown: ShootdownCost::default(),
        }
    }
}

impl SystemConfig {
    /// The Shared_L2 baseline's shared TLB size: explicit override or the
    /// combined private L2 capacity (1536 × cores).
    pub fn shared_l2_total_entries(&self) -> u32 {
        self.shared_l2_entries
            .unwrap_or(self.mmu.l2_unified.entries * self.n_cores as u32)
    }
}

/// Run-length knobs for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Memory references simulated per core after warmup.
    pub refs_per_core: u64,
    /// Warmup references per core (structures fill, stats discarded).
    pub warmup_per_core: u64,
    /// Base RNG seed; core *i* uses `seed + i`.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { refs_per_core: 400_000, warmup_per_core: 120_000, seed: 0x9e37 }
    }
}

impl SimConfig {
    /// A tiny configuration for doctests and smoke tests.
    pub fn quick_test() -> SimConfig {
        SimConfig { refs_per_core: 4_000, warmup_per_core: 1_000, seed: 7 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.n_cores, 8);
        assert_eq!(c.cpu_ghz, 4.0);
        assert_eq!(c.pom.capacity_bytes, 16 << 20);
        assert_eq!(c.pom.ways, 4);
        assert_eq!(c.die_stacked.t_cas, 11);
        assert_eq!(c.ddr.t_cas, 14);
    }

    #[test]
    fn pom_partitions_cover_capacity() {
        let p = PomTlbConfig::default();
        assert_eq!(p.small_bytes() + p.large_bytes(), p.capacity_bytes);
        assert_eq!(p.small_bytes(), 8 << 20);
        assert!(p.small_bytes().is_power_of_two());
        assert_eq!(p.base_large().raw(), p.base_small.raw() + p.small_bytes());
    }

    #[test]
    fn pom_partition_sweep_capacities() {
        for cap in [8u64 << 20, 16 << 20, 32 << 20] {
            let p = PomTlbConfig { capacity_bytes: cap, ..Default::default() };
            assert_eq!(p.small_bytes() + p.large_bytes(), cap);
            assert!(p.small_bytes().is_power_of_two());
        }
    }

    #[test]
    fn shared_l2_scales_with_cores() {
        let mut c = SystemConfig::default();
        assert_eq!(c.shared_l2_total_entries(), 1536 * 8);
        c.n_cores = 4;
        assert_eq!(c.shared_l2_total_entries(), 1536 * 4);
        c.shared_l2_entries = Some(4096);
        assert_eq!(c.shared_l2_total_entries(), 4096);
    }

    #[test]
    fn config_serde_round_trip() {
        let c = SystemConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
