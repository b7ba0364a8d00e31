//! Multi-tenant consolidation: tenant populations, per-tenant QoS
//! accounting, and the Eq. (1) set-index dispersion metric.
//!
//! The paper evaluates Eq. (1)'s VM_ID XOR at a handful of VMs; real
//! consolidated hosts run 100..10 000 guests with Zipf-skewed traffic and
//! constant lifecycle churn. This module is the core-side half of that
//! scenario (the trace-side half — [`pomtlb_trace::TenantMix`] attribution
//! and churn generation — lives in the trace crate):
//!
//! * [`TenantSet`] — the descriptive view of a tenant population: traffic
//!   shares, per-tenant working-set scaling, and the standard VM-count
//!   ladder consolidation sweeps walk;
//! * [`TenantQos`] — streaming per-VM translation-latency histograms
//!   (fixed log2 buckets, so 10k VMs cost one flat array, not 10k sliding
//!   windows) plus VM lifecycle counters, folded into every
//!   [`crate::SimReport`] as [`TenancyStats`];
//! * [`dispersion`] — quantifies how evenly Eq. (1) spreads live VM_IDs
//!   across POM-TLB sets (normalized entropy, plus the chi-square helper
//!   the 10k-VM uniformity test uses);
//! * [`VmLifecycle`] — destroy/reboot tracking that survives VM_ID reuse.
//!
//! All state here is plain owned data that evolves deterministically with
//! the reference stream, so the byte-identical determinism contract holds
//! for consolidation runs too.

pub mod churn;
pub mod dispersion;
pub mod qos;
pub mod set;

pub use churn::{ChurnCounters, VmLifecycle};
pub use dispersion::{set_index_chi_square, set_index_dispersion};
pub use qos::{TenancyStats, TenantLatency, TenantQos};
pub use set::{consolidation_ladder, TenantSet};
