//! Core value types shared by every crate in the POM-TLB workspace.
//!
//! The POM-TLB paper (ISCA 2017) operates in a virtualized x86 address world
//! with three address spaces:
//!
//! * **guest virtual** ([`Gva`]) — what an application running inside a VM
//!   issues,
//! * **guest physical** ([`Gpa`]) — what the guest OS's page table maps a
//!   [`Gva`] to,
//! * **host physical** ([`Hpa`]) — what the hypervisor's page table maps a
//!   [`Gpa`] to, and the only space in which memory is actually addressed.
//!
//! The types here are deliberately tiny newtypes over `u64`: they exist to
//! prevent the classic simulator bug of handing a guest-physical address to a
//! structure indexed by host-physical addresses, while compiling down to
//! nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bits;
pub mod cycles;
pub mod fasthash;
pub mod ids;
pub mod page;
pub mod simd;

pub use addr::{Gpa, Gva, Hpa};
pub use bits::Field;
pub use cycles::Cycles;
pub use fasthash::{FastHasher, FastMap, FastSet};
pub use ids::{AddressSpace, CoreId, ProcessId, VmId};
pub use page::{PageSize, Ppn, Vpn};
pub use simd::match_mask;

/// The cache line (and die-stacked DRAM burst) size used throughout the
/// paper: 64 bytes. Four 16-byte POM-TLB entries fit in one line, which is
/// what gives the POM-TLB its natural 4-way associativity (§2.1.1).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Log2 of [`CACHE_LINE_BYTES`].
pub const CACHE_LINE_SHIFT: u32 = 6;

/// Size in bytes of a single POM-TLB entry (Figure 5).
pub const TLB_ENTRY_BYTES: u64 = 16;

/// Number of POM-TLB entries per cache line / DRAM burst.
pub const TLB_ENTRIES_PER_LINE: u64 = CACHE_LINE_BYTES / TLB_ENTRY_BYTES;

/// Kind of a memory access as recorded in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_holds_four_entries() {
        assert_eq!(TLB_ENTRIES_PER_LINE, 4);
        assert_eq!(1u64 << CACHE_LINE_SHIFT, CACHE_LINE_BYTES);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
