//! Streaming per-tenant QoS accounting: p50/p99 translation latency per VM.
//!
//! A 10k-VM run cannot afford per-VM sliding windows or sorted latency
//! lists. Instead each tenant owns a row of fixed log2 buckets — recording
//! a reference is one index computation and one increment, and
//! percentiles fall out of a cumulative walk at report time.

use serde::{Deserialize, Serialize};

use pomtlb_types::{Cycles, VmId};

use crate::config::PomTlbConfig;
use crate::tenancy::churn::{ChurnCounters, VmLifecycle};
use crate::tenancy::dispersion::set_index_dispersion;

/// Log2 latency buckets per tenant: bucket 0 holds zero-penalty references
/// (SRAM TLB hits), bucket `b` holds penalties in `[2^(b-1), 2^b)`, and the
/// last bucket absorbs everything from `2^(N_BUCKETS-2)` cycles up
/// (~33 M cycles — far beyond any shootdown storm).
pub const N_BUCKETS: usize = 26;

/// Bucket index for one translation penalty.
fn bucket_of(penalty: Cycles) -> usize {
    let p = penalty.raw();
    if p == 0 {
        0
    } else {
        ((64 - p.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Representative latency of a bucket (its lower bound), for percentiles.
fn bucket_value(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1 << (b - 1)
    }
}

/// One tenant's measured translation-latency summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantLatency {
    /// The tenant's VM_ID.
    pub vm: u16,
    /// Measured references the tenant issued.
    pub refs: u64,
    /// Median translation penalty in cycles (log2-bucket lower bound).
    pub p50: u64,
    /// 99th-percentile translation penalty in cycles.
    pub p99: u64,
}

/// The consolidation section of a [`crate::SimReport`].
///
/// Defaults to an inactive record (zero VMs, empty tenant list) so
/// pre-tenancy serialized reports still deserialize.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenancyStats {
    /// Tenant population size (0 = tenancy disabled for this run).
    pub vms: u32,
    /// VM lifecycle churn observed during the measured window.
    pub churn: ChurnCounters,
    /// Eq. (1) set-index dispersion across live VM_IDs: normalized Shannon
    /// entropy in `[0, 1]`, 1.0 = perfectly even spread over POM-TLB sets.
    pub dispersion: f64,
    /// Tenants that issued at least one measured reference.
    pub measured_tenants: u32,
    /// Worst per-tenant p99 translation penalty (cycles).
    pub worst_p99: u64,
    /// Median of the per-tenant p99s (cycles) — the "typical tenant" tail.
    pub median_p99: u64,
    /// Per-tenant summaries, VM_ID ascending, tenants with traffic only.
    pub tenants: Vec<TenantLatency>,
}

/// Streaming per-VM QoS accounting carried by [`crate::System`].
///
/// Disabled (and free) unless [`TenantQos::enable`] is called; every state
/// transition is deterministic, so consolidation reports stay
/// byte-identical however a batch is scheduled.
#[derive(Debug, Clone, Default)]
pub struct TenantQos {
    vms: u32,
    /// `vms × N_BUCKETS` latency histogram, row per tenant.
    hist: Vec<u64>,
    lifecycle: VmLifecycle,
}

impl TenantQos {
    /// Switches accounting on for `vms` tenants (idempotent per size).
    pub fn enable(&mut self, vms: u32) {
        self.vms = vms;
        self.hist = vec![0; vms as usize * N_BUCKETS];
        self.lifecycle = VmLifecycle::new(vms);
    }

    /// Whether accounting is on.
    pub fn enabled(&self) -> bool {
        self.vms > 0
    }

    /// Records one reference's translation penalty against its tenant.
    #[inline]
    pub fn record(&mut self, vm: VmId, penalty: Cycles) {
        if self.vms == 0 {
            return;
        }
        let row = usize::from(vm.0);
        if row >= self.vms as usize {
            return;
        }
        self.lifecycle.note_active(vm);
        self.hist[row * N_BUCKETS + bucket_of(penalty)] += 1;
    }

    /// Records a `DestroyVm` teardown.
    pub fn note_destroy(&mut self, vm: VmId) {
        if self.vms > 0 {
            self.lifecycle.note_destroy(vm);
        }
    }

    /// Records a fork-storm COW remap.
    pub fn note_fork_remap(&mut self, vm: VmId) {
        if self.vms > 0 {
            self.lifecycle.note_fork_remap(vm);
        }
    }

    /// Clears measurements at the warmup boundary (population stays).
    pub fn reset_stats(&mut self) {
        self.hist.iter_mut().for_each(|c| *c = 0);
        self.lifecycle.reset();
    }

    /// Percentile of one tenant's histogram row (`q` in (0, 1]), as the
    /// lower bound of the bucket holding the q-quantile reference.
    fn percentile(&self, row: usize, q: f64) -> u64 {
        let h = &self.hist[row * N_BUCKETS..(row + 1) * N_BUCKETS];
        let refs: u64 = h.iter().sum();
        if refs == 0 {
            return 0;
        }
        let target = ((refs as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, c) in h.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(b);
            }
        }
        bucket_value(N_BUCKETS - 1)
    }

    /// Builds the report section, computing the Eq. (1) dispersion of the
    /// live population through the given POM-TLB geometry.
    pub fn stats(&self, pom: &PomTlbConfig) -> TenancyStats {
        if self.vms == 0 {
            return TenancyStats::default();
        }
        let mut tenants = Vec::new();
        for row in 0..self.vms as usize {
            let refs: u64 = self.hist[row * N_BUCKETS..(row + 1) * N_BUCKETS].iter().sum();
            if refs == 0 {
                continue;
            }
            tenants.push(TenantLatency {
                vm: row as u16,
                refs,
                p50: self.percentile(row, 0.50),
                p99: self.percentile(row, 0.99),
            });
        }
        let mut p99s: Vec<u64> = tenants.iter().map(|t| t.p99).collect();
        p99s.sort_unstable();
        TenancyStats {
            vms: self.vms,
            churn: self.lifecycle.counters(),
            dispersion: set_index_dispersion(pom, self.vms, pomtlb_types::PageSize::Small4K),
            measured_tenants: tenants.len() as u32,
            worst_p99: p99s.last().copied().unwrap_or(0),
            median_p99: p99s.get(p99s.len() / 2).copied().unwrap_or(0),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_bucket() {
        assert_eq!(bucket_of(Cycles::ZERO), 0);
        assert_eq!(bucket_of(Cycles::new(1)), 1);
        assert_eq!(bucket_of(Cycles::new(2)), 2);
        assert_eq!(bucket_of(Cycles::new(3)), 2);
        assert_eq!(bucket_of(Cycles::new(4)), 3);
        assert_eq!(bucket_of(Cycles::new(1023)), 10);
        assert_eq!(bucket_of(Cycles::new(u64::MAX)), N_BUCKETS - 1, "clamped");
        assert_eq!(bucket_value(0), 0);
        assert_eq!(bucket_value(10), 512);
    }

    #[test]
    fn percentiles_walk_the_histogram() {
        let mut q = TenantQos::default();
        q.enable(4);
        // VM 2: 98 zero-penalty refs, one at ~100 cycles, one at ~1000.
        for _ in 0..98 {
            q.record(VmId(2), Cycles::ZERO);
        }
        q.record(VmId(2), Cycles::new(100));
        q.record(VmId(2), Cycles::new(1000));
        let pom = PomTlbConfig::default();
        let stats = q.stats(&pom);
        assert_eq!(stats.measured_tenants, 1);
        let t = stats.tenants[0];
        assert_eq!((t.vm, t.refs), (2, 100));
        assert_eq!(t.p50, 0, "median ref is an SRAM hit");
        assert_eq!(t.p99, bucket_value(bucket_of(Cycles::new(100))), "99th is the walk");
        assert_eq!(stats.worst_p99, t.p99);
    }

    #[test]
    fn disabled_accounting_is_inert_and_stats_default() {
        let mut q = TenantQos::default();
        q.record(VmId(0), Cycles::new(50));
        q.note_destroy(VmId(0));
        let pom = PomTlbConfig::default();
        assert_eq!(q.stats(&pom), TenancyStats::default());
    }

    #[test]
    fn out_of_population_vms_are_ignored() {
        let mut q = TenantQos::default();
        q.enable(2);
        q.record(VmId(7), Cycles::new(5));
        let pom = PomTlbConfig::default();
        assert_eq!(q.stats(&pom).measured_tenants, 0);
    }

    #[test]
    fn reset_keeps_population_but_clears_measurements() {
        let mut q = TenantQos::default();
        q.enable(3);
        q.record(VmId(1), Cycles::new(10));
        q.note_destroy(VmId(1));
        q.reset_stats();
        assert!(q.enabled());
        let pom = PomTlbConfig::default();
        let stats = q.stats(&pom);
        assert_eq!(stats.measured_tenants, 0);
        assert_eq!(stats.churn, ChurnCounters::default());
    }

    #[test]
    fn serde_round_trip_with_default_fallback() {
        let stats = TenancyStats {
            vms: 100,
            churn: ChurnCounters { destroys: 3, reboots: 1, fork_remaps: 12 },
            dispersion: 0.97,
            measured_tenants: 2,
            worst_p99: 512,
            median_p99: 256,
            tenants: vec![TenantLatency { vm: 0, refs: 10, p50: 0, p99: 512 }],
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: TenancyStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
        let legacy: TenancyStats = serde_json::from_str("{}").unwrap_or_default();
        assert_eq!(legacy, TenancyStats::default());
    }
}
