//! §5.2 "Efficient Virtual Machine Switching": the POM-TLB's VM-ID-tagged
//! entries let translations from many VMs coexist, so switching between VMs
//! does not flush translation state — and consistency events (shootdowns,
//! VM teardown) surgically remove exactly the right entries.
//!
//! This example drives the [`pom_tlb::System`] directly rather than through
//! the trace harness, showing the lower-level public API.
//!
//! ```sh
//! cargo run --release --example multi_vm
//! ```

use pom_tlb::{PomTlb, Scheme, System, SystemConfig};
use pomtlb_tlb::{VirtTables, WalkMode};
use pomtlb_types::{AccessKind, AddressSpace, CoreId, Cycles, Gva, PageSize, ProcessId, VmId};

/// The POM-TLB of a [`Scheme::PomTlb`] machine (other schemes build none).
fn pom(system: &System) -> &PomTlb {
    system.pom().expect("a POM-TLB machine")
}

fn main() {
    let mut system = System::new(SystemConfig { n_cores: 2, ..Default::default() }, Scheme::pom_tlb());

    // Three VMs, each with its own nested page tables and its own copy of
    // the same guest-virtual addresses — the aliasing case the VM-ID tag
    // (and Eq. 1's VM-ID hash) exists for.
    let vms: Vec<(AddressSpace, VirtTables)> = (0..3u16)
        .map(|vm| {
            (
                AddressSpace::new(VmId(vm), ProcessId(0)),
                VirtTables::with_region(WalkMode::Virtualized, vm as u32),
            )
        })
        .collect();
    let mut vms = vms;
    let pages: Vec<Gva> = (0..256u64).map(|i| Gva::new(0x1000_0000_0000 + (i << 12))).collect();

    // Touch every page from every VM, round-robin — a context-switch-heavy
    // consolidation pattern.
    let mut now = Cycles::ZERO;
    let mut walks_per_round = Vec::new();
    for round in 0..3 {
        let mut walks = 0u64;
        for (space, tables) in vms.iter_mut() {
            for page in &pages {
                tables.ensure_mapped(*page, PageSize::Small4K);
                let before = pom(&system).stats().misses;
                let _ = system.access(CoreId(0), *space, *page, AccessKind::Read, tables, now);
                now += Cycles::new(50);
                if pom(&system).stats().misses > before {
                    walks += 1;
                }
            }
        }
        walks_per_round.push(walks);
        println!(
            "round {round}: {walks} POM-TLB misses across 3 VMs x {} pages",
            pages.len()
        );
    }
    assert!(
        walks_per_round[1] < walks_per_round[0] / 10,
        "after one round, every VM's translations are retained simultaneously"
    );

    // All three VMs' entries coexist.
    for (space, _) in &vms {
        let resident = pages
            .iter()
            .filter(|p| pom(&system).contains(*space, **p, PageSize::Small4K))
            .count();
        println!("{}: {resident}/{} pages resident in POM-TLB", space, pages.len());
        assert!(resident > 240);
    }

    // A shootdown in VM 1 must not disturb VM 0 or VM 2.
    let victim_page = pages[7];
    let found = system.shootdown(vms[1].0, victim_page, PageSize::Small4K);
    println!(
        "\nshootdown of {} in {}: removed from {found} locations",
        victim_page, vms[1].0
    );
    assert!(!pom(&system).contains(vms[1].0, victim_page, PageSize::Small4K));
    assert!(pom(&system).contains(vms[0].0, victim_page, PageSize::Small4K));
    assert!(pom(&system).contains(vms[2].0, victim_page, PageSize::Small4K));

    // VM teardown flushes exactly that VM.
    let dropped = system.flush_vm(VmId(2));
    println!("teardown of vm2: {dropped} entries flushed");
    assert!(!pom(&system).contains(vms[2].0, pages[0], PageSize::Small4K));
    assert!(pom(&system).contains(vms[0].0, pages[0], PageSize::Small4K));

    println!("\nok: translations of multiple VMs coexist; consistency events are surgical.");
}
