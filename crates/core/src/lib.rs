//! # POM-TLB: A Very Large Part-of-Memory TLB
//!
//! A from-scratch implementation and evaluation harness for the ISCA 2017
//! paper *"Rethinking TLB Designs in Virtualized Environments: A Very Large
//! Part-of-Memory TLB"* (Ryoo, Gulur, Song, John).
//!
//! ## The idea
//!
//! In a virtualized x86 system an L2 TLB miss triggers a 2-D nested page
//! walk of up to 24 memory references. POM-TLB replaces that walk, almost
//! always, with **one** access to a very large (16 MB) third-level TLB that
//! lives in (die-stacked) DRAM and — crucially — is **mapped into the
//! physical address space**, so its entries are cached by the ordinary L2
//! and L3 *data* caches. A miss that would have cost a multi-hundred-cycle
//! walk becomes, in the common case, a single L2D$ hit.
//!
//! ## Crate layout
//!
//! * [`PomTlb`] — the in-memory TLB itself: Figure 5's 16-byte entry format
//!   ([`entry::PomEntry`]), the Eq. (1) set-address function, static
//!   4 KB / 2 MB partitioning, and 4-way associativity within one 64-byte
//!   DRAM burst;
//! * [`SizeBypassPredictor`] — the 512×2-bit page-size + cache-bypass
//!   predictor (§2.1.4–2.1.5);
//! * [`CoreMmu`] — the per-core L1/L2 SRAM TLB front end;
//! * [`System`] / [`Simulation`] — the full 8-core simulator: data caches,
//!   die-stacked + DDR4 DRAM channels, nested page walker, and the four
//!   translation schemes of §4 ([`Scheme`]);
//! * [`ShootdownEngine`] / [`StaleChecker`] — the §2.2 consistency
//!   machinery: full shootdown rounds for OS events (unmap, remap, THP
//!   promotion, migration, VM teardown) under the mostly-inclusive rule,
//!   plus a debug watchdog proving no level ever serves a stale
//!   translation;
//! * [`perf_model`] — the paper's additive performance model (Eqs. 2–5)
//!   that converts simulated per-miss penalties into Figure 8's
//!   improvement percentages.
//!
//! ## Quickstart
//!
//! ```
//! use pom_tlb::{Scheme, Simulation, SimConfig};
//! use pomtlb_trace::{LocalityModel, WorkloadSpec};
//!
//! // A GUPS-like random-access workload whose working set far exceeds the
//! // on-chip TLBs (8 MB = 2048 pages vs 1536 L2 TLB entries)...
//! let spec = WorkloadSpec::builder("demo")
//!     .footprint_bytes(8 << 20)
//!     .locality(LocalityModel::UniformRandom)
//!     .build();
//! let report = Simulation::new(&spec, Scheme::pom_tlb(), SimConfig::quick_test()).run();
//! assert!(report.l2_tlb_misses > 0);
//! // ...but fits easily in the 16 MB POM-TLB: almost no page walks.
//! assert!(report.walks_eliminated() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod chunk;
pub mod config;
pub mod entry;
pub mod fault;
pub mod mmu;
pub mod perf_model;
pub mod pom_tlb;
pub mod predictor;
pub mod report;
pub mod runner;
pub mod scheme;
pub mod shootdown;
pub mod skew;
pub mod system;
pub mod tenancy;
pub mod translator;

pub use admission::{AdmissionControl, AdmissionCounters, AdmissionPermit, Busy};
pub use chunk::{ChunkSim, StorageBytes};
pub use config::{PomTlbConfig, SimConfig, SystemConfig};
pub use entry::PomEntry;
pub use fault::{FaultConfig, FaultKind, FaultPlan, FaultStats};
pub use mmu::{CoreMmu, MmuHit};
pub use pom_tlb::{PomLookup, PomTlb, PomTlbStats};
pub use predictor::{PredictorStats, SizeBypassPredictor};
pub use report::SimReport;
pub use runner::{
    default_jobs, run_jobs, run_jobs_with, share_traces, share_traces_with_store, JobOutcome,
    JobResult, RunPolicy, ShareOutcome, SimJob,
};
pub use scheme::Scheme;
pub use shootdown::{
    ShootdownCost, ShootdownEngine, ShootdownParts, ShootdownStats, StaleChecker, StaleVerdict,
};
pub use skew::SkewPomTlb;
pub use system::{simulations_run, Simulation, System};
pub use translator::{Purge, Translator};
pub use tenancy::{
    consolidation_ladder, set_index_chi_square, set_index_dispersion, ChurnCounters,
    TenancyStats, TenantLatency, TenantQos, TenantSet, VmLifecycle,
};
