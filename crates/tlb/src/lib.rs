//! SRAM TLBs, radix page tables, the 2-D nested page walker, page-structure
//! caches, and the SPARC-TSB baseline.
//!
//! This crate is the conventional address-translation machinery the POM-TLB
//! sits on top of (and is compared against):
//!
//! * [`SramTlb`] — a set-associative on-chip TLB; instantiated per Table 1
//!   as per-core L1s (64-entry 4 KB + 32-entry 2 MB, 4-way) and a unified
//!   1536-entry 12-way L2, and reused at larger capacity for the
//!   *Shared_L2* baseline of Bhattacharjee et al.,
//! * [`RadixPageTable`] — a real 4-level x86-style radix table whose nodes
//!   are allocated in simulated physical memory, so every PTE the walker
//!   touches has a realistic physical address that contends in the data
//!   caches,
//! * [`VirtTables`] — the guest (gVA→gPA) + host (gPA→hPA) table pair of a
//!   virtualized system, with the Figure 1 walk geometry: up to 24 memory
//!   references per translation,
//! * [`NestedWalker`] — the hardware page walker with Intel-style
//!   paging-structure caches ([`Psc`], Table 1: PML4 ×2, PDP ×4, PDE ×32 at
//!   2 cycles) and PTE caching in the data caches,
//! * [`Tsb`] — the software-managed Translation Storage Buffer baseline
//!   (§3.3): OS trap per miss, direct-mapped, per-dimension lookups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod page_table;
mod psc;
mod sram_tlb;
mod tsb;
mod walker;

pub use config::{MmuConfig, TlbConfig};
pub use page_table::{FrameAlloc, PathLevels, RadixPageTable, VirtTables, WalkMode, WalkPath, MAX_REGIONS};
pub use psc::{Psc, PscConfig, PscLevel};
pub use sram_tlb::{SramTlb, TlbLookup, TlbStats};
pub use tsb::{Tsb, TsbConfig, TsbOutcome};
pub use walker::{NestedWalker, WalkOutcome, WalkerStats};
