//! Fork-time copy-on-write modeled with page-table clones.
//!
//! `fork()` (or a VM clone) duplicates an address space at an instant: the
//! child starts from a byte-identical copy of the parent's page tables and
//! both sides share physical frames until one writes. Every copy-on-write
//! break then *remaps* a child page to a fresh frame — and each remap must
//! shoot the now-stale translation out of every TLB level, including the
//! in-DRAM POM-TLB. A fork followed by a write burst is therefore a
//! shootdown *storm*, and it must leave the parent's translations
//! untouched.
//!
//! The arena layout of `RadixPageTable` makes the fork itself a handful of
//! `Vec` memcpys: `clone` *is* the child's copy, and a second `clone`
//! records the fork point the parent is checked against.
//!
//! ```sh
//! cargo run --release --example fork_shootdown
//! ```

use pom_tlb::{PomTlb, Scheme, System, SystemConfig};
use pomtlb_tlb::{VirtTables, WalkMode};
use pomtlb_types::{AccessKind, AddressSpace, CoreId, Cycles, Gva, Hpa, PageSize, ProcessId, VmId};

const PAGES: u64 = 512;
const WRITE_SET: u64 = 128; // pages the child dirties after the fork

/// The POM-TLB of a [`Scheme::PomTlb`] machine (other schemes build none).
fn pom(system: &System) -> &PomTlb {
    system.pom().expect("a POM-TLB machine")
}

fn main() {
    let mut system =
        System::new(SystemConfig { n_cores: 2, ..Default::default() }, Scheme::pom_tlb());
    let parent_space = AddressSpace::new(VmId(0), ProcessId(0));
    let child_space = AddressSpace::new(VmId(0), ProcessId(1));

    // The parent runs for a while: map its working set and pull every
    // translation through the hierarchy into the POM-TLB.
    let mut parent = VirtTables::with_region(WalkMode::Virtualized, 0);
    let pages: Vec<Gva> = (0..PAGES).map(|i| Gva::new(0x2000_0000_0000 + (i << 12))).collect();
    let mut now = Cycles::ZERO;
    for page in &pages {
        let hpa = parent.ensure_mapped(*page, PageSize::Small4K);
        system.note_mapped(parent_space, *page, PageSize::Small4K, hpa);
        let _ = system.access(CoreId(0), parent_space, *page, AccessKind::Read, &parent, now);
        now += Cycles::new(50);
    }

    // --- fork() ---------------------------------------------------------
    // The child's tables are an arena copy of the parent's; a second copy
    // pins the fork point so we can prove later that the parent never
    // moved off it.
    let fork_point = parent.clone();
    let mut child = parent.clone();
    println!(
        "fork: copied {} bytes of page-table arenas and path caches ({} mappings)",
        fork_point.storage_bytes(),
        PAGES,
    );
    // Both sides share frames until a write; the child warms its own TLB
    // tags over the *shared* frames.
    for page in &pages {
        let hpa = child.translate(*page).expect("child inherits every mapping");
        assert_eq!(hpa, parent.translate(*page).unwrap(), "COW shares frames at fork");
        system.note_mapped(child_space, *page, PageSize::Small4K, hpa);
        let _ = system.access(CoreId(1), child_space, *page, AccessKind::Read, &child, now);
        now += Cycles::new(50);
    }

    // --- the write burst ------------------------------------------------
    // Every first write breaks COW: new frame, remap, and a shootdown of
    // the stale child translation from every level that may cache it.
    let parent_frames: Vec<Hpa> =
        pages.iter().map(|p| parent.translate(*p).expect("parent mapped")).collect();
    let mut purged_locations = 0u64;
    for page in pages.iter().take(WRITE_SET as usize) {
        let old = child.translate(*page).expect("mapped before the write");
        assert!(child.unmap(*page, PageSize::Small4K));
        let fresh = child.ensure_mapped(*page, PageSize::Small4K);
        assert_ne!(fresh, old, "COW break lands on a fresh frame");
        system.note_mapped(child_space, *page, PageSize::Small4K, fresh);
        purged_locations += system.shootdown(child_space, *page, PageSize::Small4K);
        let _ = system.access(CoreId(1), child_space, *page, AccessKind::Write, &child, now);
        now += Cycles::new(50);
    }
    println!(
        "write burst: {WRITE_SET} COW breaks purged {purged_locations} cached translations"
    );
    assert!(
        purged_locations >= WRITE_SET,
        "every COW break found stale state to shoot down (POM-TLB at minimum)"
    );

    // --- the parent is untouched ----------------------------------------
    // Its mappings still resolve to the pre-fork frames, its POM-TLB
    // entries survived the storm, and its tables still match the copy
    // taken at the fork.
    for (page, before) in pages.iter().zip(&parent_frames) {
        assert_eq!(parent.translate(*page), Some(*before), "parent frame moved");
        assert!(
            pom(&system).contains(parent_space, *page, PageSize::Small4K),
            "parent POM-TLB entry was collateral damage"
        );
    }
    for page in &pages {
        assert_eq!(fork_point.translate(*page), parent.translate(*page));
    }
    println!("parent: all {PAGES} translations intact and identical to the fork point");

    // The child's dirtied pages really diverged; its clean pages still
    // share the parent's frames.
    for (i, page) in pages.iter().enumerate() {
        let shared = child.translate(*page) == parent.translate(*page);
        assert_eq!(shared, i as u64 >= WRITE_SET, "page {i}: COW sharing state");
    }
    println!("child: {WRITE_SET} private pages, {} still shared", PAGES - WRITE_SET);
}
