//! How evenly Eq. (1)'s VM_ID XOR spreads a tenant population over sets.
//!
//! The paper's salted set index exists so co-resident VMs don't pile onto
//! the same POM-TLB sets. With 10k tenants that property must be measured,
//! not assumed: this module probes one fixed virtual page per live VM_ID
//! through the configured partition geometry and reports (a) a normalized
//! Shannon entropy in `[0, 1]` for the report ("how spread out are we"),
//! and (b) a chi-square statistic the uniformity unit test bounds.

use pomtlb_types::{AddressSpace, Gva, PageSize, ProcessId, VmId};

use crate::config::PomTlbConfig;

/// The fixed virtual page every VM is probed at: the base of the small-page
/// region the trace generator hands out, so the measured spread is the one
/// consolidation traffic actually exercises.
const PROBE_VA: u64 = 0x0000_1000_0000_0000;

/// Set indices for one fixed VA across VM_IDs `0..vms`, sorted ascending.
///
/// Sorting makes downstream run-length counting deterministic without any
/// hash-map iteration order in the loop.
fn probe_indices(pom: &PomTlbConfig, vms: u32, size: PageSize) -> Vec<u64> {
    let va = Gva::new(PROBE_VA);
    let mut idx: Vec<u64> = (0..vms)
        .map(|vm| {
            let space = AddressSpace::new(VmId(vm as u16), ProcessId(0));
            pom.set_index(space, va, size)
        })
        .collect();
    idx.sort_unstable();
    idx
}

/// Normalized Shannon entropy of the set indices VM_IDs `0..vms` map to:
/// `H / log2(min(n_sets, vms))`, so 1.0 means the population spreads as
/// evenly as its size allows and 0.0 means every VM collides on one set.
///
/// Populations of zero or one VM are trivially dispersed (returns 1.0).
pub fn set_index_dispersion(pom: &PomTlbConfig, vms: u32, size: PageSize) -> f64 {
    if vms <= 1 {
        return 1.0;
    }
    let idx = probe_indices(pom, vms, size);
    let total = idx.len() as f64;
    let mut entropy = 0.0;
    let mut run = 1u64;
    for i in 1..=idx.len() {
        if i < idx.len() && idx[i] == idx[i - 1] {
            run += 1;
            continue;
        }
        let p = run as f64 / total;
        entropy -= p * p.log2();
        run = 1;
    }
    let max_bins = (pom.n_sets(size).min(u64::from(vms))) as f64;
    if max_bins <= 1.0 {
        return 1.0;
    }
    (entropy / max_bins.log2()).clamp(0.0, 1.0)
}

/// Chi-square statistic of the VM_ID → set mapping against the uniform
/// distribution, with sets coarsened into `groups` equal bins (so the test
/// keeps healthy expected counts even when `vms` ≪ `n_sets`).
///
/// # Panics
///
/// Panics if `groups` is zero or exceeds the partition's set count.
pub fn set_index_chi_square(pom: &PomTlbConfig, vms: u32, size: PageSize, groups: u64) -> f64 {
    let n_sets = pom.n_sets(size);
    assert!(groups > 0 && groups <= n_sets, "groups {groups} vs {n_sets} sets");
    let mut observed = vec![0u64; groups as usize];
    for idx in probe_indices(pom, vms, size) {
        observed[(idx * groups / n_sets) as usize] += 1;
    }
    let expected = f64::from(vms) / groups as f64;
    observed
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pom_tlb::PomTlb;

    fn geometry(capacity_bytes: u64) -> PomTlbConfig {
        PomTlbConfig { capacity_bytes, ..PomTlbConfig::default() }
    }

    /// Satellite: Eq. (1)'s XOR must spread VM_IDs 0..10_000 uniformly
    /// across sets at every configured POM-TLB geometry. 255 degrees of
    /// freedom put the 1e-4 critical value near 345; a bound of 400 fails
    /// only on real clustering, not statistical noise.
    #[test]
    fn vm_id_xor_spreads_uniformly_chi_square() {
        for capacity in [8 << 20, 16 << 20, 32 << 20] {
            let pom = geometry(capacity);
            for size in [PageSize::Small4K, PageSize::Large2M] {
                let groups = pom.n_sets(size).min(256);
                let chi2 = set_index_chi_square(&pom, 10_000, size, groups);
                assert!(
                    chi2 < 400.0,
                    "{capacity}B {size:?}: chi2 {chi2:.1} over {groups} groups"
                );
            }
        }
    }

    #[test]
    fn dispersion_is_high_for_real_geometry_and_trivial_for_tiny_pops() {
        let pom = geometry(16 << 20);
        for size in [PageSize::Small4K, PageSize::Large2M] {
            let d = set_index_dispersion(&pom, 10_000, size);
            assert!(d > 0.95, "{size:?}: dispersion {d}");
            assert!(d <= 1.0);
        }
        assert_eq!(set_index_dispersion(&pom, 0, PageSize::Small4K), 1.0);
        assert_eq!(set_index_dispersion(&pom, 1, PageSize::Small4K), 1.0);
    }

    #[test]
    fn dispersion_detects_collapse() {
        // Two VMs either collide (entropy 0) or split (entropy 1); over a
        // few geometries at least one pair must land in each regime is too
        // strong a claim, but the metric must stay in range and be exact
        // for the degenerate single-set grouping.
        let pom = geometry(8 << 20);
        for vms in [2, 3, 17, 100] {
            let d = set_index_dispersion(&pom, vms, PageSize::Small4K);
            assert!((0.0..=1.0).contains(&d), "vms {vms}: {d}");
        }
    }

    #[test]
    fn chi_square_rejects_bad_grouping() {
        let pom = geometry(8 << 20);
        let n = pom.n_sets(PageSize::Small4K);
        assert!(std::panic::catch_unwind(|| set_index_chi_square(
            &pom,
            10,
            PageSize::Small4K,
            n + 1
        ))
        .is_err());
    }

    #[test]
    fn probe_matches_public_set_index() {
        // The geometry-only index must be the set the structure really
        // probes: its Eq. (1) set address is the partition base plus the
        // index times one 64-byte set.
        let config = geometry(16 << 20);
        let idx = probe_indices(&config, 4, PageSize::Small4K);
        assert_eq!(idx.len(), 4);
        let pom = PomTlb::new(config);
        let mut manual: Vec<u64> = (0..4u32)
            .map(|vm| {
                let addr = pom.set_addr(
                    AddressSpace::new(VmId(vm as u16), ProcessId(0)),
                    Gva::new(PROBE_VA),
                    PageSize::Small4K,
                );
                (addr.raw() - config.base_small.raw()) / 64
            })
            .collect();
        manual.sort_unstable();
        assert_eq!(idx, manual);
    }
}
