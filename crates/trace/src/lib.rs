//! Memory-reference traces and synthetic workload generators.
//!
//! The paper drives its simulator with PIN + Linux-pagemap traces of SPEC,
//! PARSEC and graph workloads (20 billion instructions each). Those traces
//! are not redistributable and require the original binaries and inputs, so
//! this crate provides the substitution documented in `DESIGN.md`:
//! **synthetic generators** whose page-level locality structure is what a
//! TLB study actually consumes:
//!
//! * [`LocalityModel::Streaming`] — sequential page walks (lbm, libquantum,
//!   streamcluster, bwaves),
//! * [`LocalityModel::UniformRandom`] — GUPS-style random access with
//!   essentially no reuse,
//! * [`LocalityModel::Zipf`] — power-law page popularity (graph500,
//!   pagerank, connected components),
//! * [`LocalityModel::PointerChase`] — hot-set + cold-miss mixtures (mcf,
//!   astar, soplex, ...),
//! * [`LocalityModel::Mixed`] — phase mixtures of the above.
//!
//! A generated [`MemoryRef`] carries the same fields the paper's traces do
//! (§3.2): virtual address, instruction count, read/write flag, and the
//! generating address space; page size is a property of the address layout
//! (see [`spec::WorkloadSpec::large_page_frac`]) exactly as Linux pagemap
//! made it a property of the mapping.
//!
//! Everything is deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use pomtlb_trace::{LocalityModel, TraceGenerator, WorkloadSpec};
//!
//! let spec = WorkloadSpec::builder("toy")
//!     .footprint_bytes(8 << 20)
//!     .locality(LocalityModel::Zipf { alpha: 0.9 })
//!     .build();
//! let mut gen = TraceGenerator::new(&spec, 42);
//! let first = gen.next_ref();
//! let again = TraceGenerator::new(&spec, 42).next_ref();
//! assert_eq!(first, again, "same seed, same trace");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod disk;
mod event;
mod generator;
mod interleave;
pub mod manifest;
mod picker;
mod record;
mod report_store;
mod shared;
mod spec;
mod store;
mod tenancy;
mod zipf;

pub use event::{
    OsEvent, OsEventGenerator, OsEventKind, OsEventRates, TraceItem, WorkloadStream,
    PROMOTE_WINDOW_PAGES,
};
pub use generator::{AddressLayout, TraceGenerator, LARGE_REGION_BASE, SMALL_REGION_BASE};
pub use interleave::{interleaver_constructions, CoreItem, CoreRef, Interleaver, Timestamped};
pub use record::MemoryRef;
pub use shared::{SharedTrace, SharedTraceIter, TraceKey};
pub use spec::{LocalityModel, WorkloadSpec, WorkloadSpecBuilder};
pub use manifest::{write_staged, Codec, GcReport, Store, StoreCounters, VerifyEntry};
pub use report_store::{
    ReportCodec, ReportEntry, ReportStore, DEFAULT_REPORT_MAX_BYTES, REPORT_FORMAT_VERSION,
};
pub use store::{StoreEntry, TraceCodec, TraceStore, DEFAULT_MAX_BYTES, STORE_FORMAT_VERSION};
pub use tenancy::{ChurnGenerator, TenantAttrib, TenantMix, CHURN_SEED_SALT, TENANT_SEED_SALT};
pub use zipf::Zipf;

/// Re-exported for downstream crates that need the spec module path.
pub mod prelude {
    pub use crate::{
        Interleaver, LocalityModel, MemoryRef, OsEvent, OsEventKind, TenantMix, TraceItem,
        TraceGenerator, WorkloadSpec, WorkloadStream,
    };
}
