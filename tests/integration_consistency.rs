//! Consistency semantics across the whole translation stack (§2.2):
//! shootdowns, VM flushes, and the mostly-inclusive relationship between
//! SRAM TLBs, cached POM-TLB lines and the in-DRAM structure.

use pom_tlb::{PomTlb, Scheme, SimConfig, Simulation, System, SystemConfig};
use pomtlb_tlb::{VirtTables, WalkMode};
use pomtlb_trace::{LocalityModel, OsEventRates, WorkloadSpec};
use pomtlb_types::{AccessKind, AddressSpace, CoreId, Cycles, Gva, PageSize, ProcessId, VmId};

fn system() -> System {
    System::new(SystemConfig { n_cores: 2, ..Default::default() }, Scheme::pom_tlb())
}

fn pom(sys: &System) -> &PomTlb {
    sys.pom().expect("a POM-TLB machine")
}

fn space(vm: u16, pid: u16) -> AddressSpace {
    AddressSpace::new(VmId(vm), ProcessId(pid))
}

fn touch(system: &mut System, tables: &VirtTables, s: AddressSpace, va: Gva, t: u64) {
    let _ = system.access(CoreId(0), s, va, AccessKind::Read, tables, Cycles::new(t));
}

#[test]
fn shootdown_reaches_every_structure() {
    let mut sys = system();
    let mut tables = VirtTables::new(WalkMode::Virtualized);
    let s = space(0, 0);
    let va = Gva::new(0x1000_0000_0000);
    tables.ensure_mapped(va, PageSize::Small4K);
    // First touch walks and fills; second touch promotes into L1/L2 TLBs
    // and leaves a cached POM-TLB line.
    touch(&mut sys, &tables, s, va, 0);
    touch(&mut sys, &tables, s, va, 10_000);
    assert!(pom(&sys).contains(s, va, PageSize::Small4K));

    let found = sys.shootdown(s, va, PageSize::Small4K);
    assert!(found >= 2, "SRAM TLB + POM-TLB at minimum, found {found}");
    assert!(!pom(&sys).contains(s, va, PageSize::Small4K));

    // Idempotence: a second shootdown finds nothing anywhere.
    assert_eq!(sys.shootdown(s, va, PageSize::Small4K), 0);
}

#[test]
fn shootdown_then_remap_gets_fresh_translation() {
    let mut sys = system();
    let mut tables = VirtTables::new(WalkMode::Virtualized);
    let s = space(0, 0);
    let va = Gva::new(0x1000_0000_0000);
    let first_frame = tables.ensure_mapped(va, PageSize::Small4K);
    touch(&mut sys, &tables, s, va, 0);

    // The OS unmaps and remaps the page elsewhere, with a shootdown in
    // between — the sequence §2.2's consistency argument covers.
    sys.shootdown(s, va, PageSize::Small4K);
    assert!(tables.unmap(va, PageSize::Small4K));
    let second_frame = tables.ensure_mapped(va, PageSize::Small4K);
    assert_ne!(first_frame, second_frame, "remap allocates a new frame");

    touch(&mut sys, &tables, s, va, 50_000);
    assert!(pom(&sys).contains(s, va, PageSize::Small4K));
    // The fresh walk resolved to the *new* frame: a subsequent lookup in
    // the POM-TLB must agree with the page table.
    let mut pom = pom(&sys).clone();
    let hit = pom.lookup(s, va, PageSize::Small4K).expect("refilled");
    assert_eq!(hit.page_base, second_frame);
}

#[test]
fn vm_flush_is_scoped() {
    let mut sys = system();
    let mut t1 = VirtTables::with_region(WalkMode::Virtualized, 0);
    let mut t2 = VirtTables::with_region(WalkMode::Virtualized, 1);
    let s1 = space(1, 0);
    let s2 = space(2, 0);
    let va = Gva::new(0x1000_0000_0000);
    t1.ensure_mapped(va, PageSize::Small4K);
    t2.ensure_mapped(va, PageSize::Small4K);
    touch(&mut sys, &t1, s1, va, 0);
    touch(&mut sys, &t2, s2, va, 10_000);
    assert!(pom(&sys).contains(s1, va, PageSize::Small4K));
    assert!(pom(&sys).contains(s2, va, PageSize::Small4K));

    let dropped = sys.flush_vm(VmId(1));
    assert!(dropped >= 1);
    assert!(!pom(&sys).contains(s1, va, PageSize::Small4K), "vm1 flushed");
    assert!(pom(&sys).contains(s2, va, PageSize::Small4K), "vm2 untouched");
}

#[test]
fn processes_within_a_vm_do_not_alias() {
    let mut sys = system();
    let mut ta = VirtTables::with_region(WalkMode::Virtualized, 1);
    let mut tb = VirtTables::with_region(WalkMode::Virtualized, 2);
    let pa = space(0, 1);
    let pb = space(0, 2);
    let va = Gva::new(0x1000_0000_0000);
    let frame_a = ta.ensure_mapped(va, PageSize::Small4K);
    let frame_b = tb.ensure_mapped(va, PageSize::Small4K);
    assert_ne!(frame_a, frame_b, "separate address spaces, separate frames");

    touch(&mut sys, &ta, pa, va, 0);
    touch(&mut sys, &tb, pb, va, 10_000);
    let mut pom = pom(&sys).clone();
    assert_eq!(pom.lookup(pa, va, PageSize::Small4K).unwrap().page_base, frame_a);
    assert_eq!(pom.lookup(pb, va, PageSize::Small4K).unwrap().page_base, frame_b);
}

#[test]
fn large_and_small_translations_coexist_for_one_space() {
    let mut sys = system();
    let mut tables = VirtTables::new(WalkMode::Virtualized);
    let s = space(0, 0);
    let small_va = Gva::new(0x1000_0000_0000);
    let large_va = Gva::new(0x2000_0000_0000);
    tables.ensure_mapped(small_va, PageSize::Small4K);
    tables.ensure_mapped(large_va, PageSize::Large2M);
    touch(&mut sys, &tables, s, small_va, 0);
    touch(&mut sys, &tables, s, large_va, 10_000);
    assert!(pom(&sys).contains(s, small_va, PageSize::Small4K));
    assert!(pom(&sys).contains(s, large_va, PageSize::Large2M));
    // A shootdown of the 2 MB page leaves the 4 KB page alone.
    sys.shootdown(s, large_va, PageSize::Large2M);
    assert!(!pom(&sys).contains(s, large_va, PageSize::Large2M));
    assert!(pom(&sys).contains(s, small_va, PageSize::Small4K));
}

fn eventful(name: &str, rates: OsEventRates) -> WorkloadSpec {
    WorkloadSpec::builder(name)
        .footprint_bytes(16 << 20)
        .large_page_frac(0.25)
        .locality(LocalityModel::UniformRandom)
        .os_events(rates)
        .build()
}

#[test]
fn event_stream_stays_consistent_for_every_scheme() {
    // The end-to-end acceptance check: a run with every OS event kind
    // active, with the stale-translation watchdog armed, must complete
    // without the watchdog firing — for all four schemes. Each unmap or
    // remap leaves a dead translation at up to five levels; any missed
    // invalidation panics the run.
    let rates = OsEventRates {
        unmaps: 5.0,
        remaps: 2.0,
        promotes: 0.5,
        migrations: 1.0,
        vm_destroys: 0.1,
    };
    let cfg = SimConfig { refs_per_core: 20_000, warmup_per_core: 10_000, seed: 3 };
    for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
        let r = Simulation::new(&eventful("consistency", rates), scheme, cfg)
            .with_system_config(SystemConfig { n_cores: 2, ..Default::default() })
            .check_consistency(true)
            .run();
        let s = r.shootdowns;
        assert!(s.events > 0, "{scheme:?} handled no events");
        assert!(s.unmaps > 0, "{scheme:?}: {s:?}");
        assert!(s.total_invalidations() > 0, "{scheme:?}: {s:?}");
        assert!(s.penalty > Cycles::ZERO, "{scheme:?}");
        // Shootdowns must not break the per-miss resolution accounting.
        assert_eq!(
            r.resolved_l2d
                + r.resolved_l3d
                + r.resolved_pom_dram
                + r.resolved_shared_l2
                + r.resolved_tsb
                + r.page_walks,
            r.l2_tlb_misses,
            "{scheme:?}: every miss resolves exactly once, events or not"
        );
    }
}

#[test]
fn unmap_rate_sweep_orders_consistency_costs() {
    let cfg = SimConfig { refs_per_core: 15_000, warmup_per_core: 5_000, seed: 5 };
    let run = |rate: f64| {
        Simulation::new(&eventful("sweep", OsEventRates::unmap_heavy(rate)), Scheme::pom_tlb(), cfg)
            .with_system_config(SystemConfig { n_cores: 2, ..Default::default() })
            .check_consistency(true)
            .run()
    };
    let (r0, r1, r10) = (run(0.0), run(1.0), run(10.0));
    assert_eq!(r0.shootdowns.events, 0, "quiet spec stays quiet");
    assert!(r1.shootdowns.events > 0);
    assert!(r10.shootdowns.events > r1.shootdowns.events);
    assert!(r10.shootdowns.penalty > r1.shootdowns.penalty);
    assert!(r10.shootdowns.total_invalidations() > r1.shootdowns.total_invalidations());
}

#[test]
fn every_resolved_translation_matches_the_page_tables() {
    // Mostly-inclusive or not, the values must never diverge from the
    // radix tables: walk every touched page's final translation and compare
    // against the POM-TLB's answer.
    let mut sys = system();
    let mut tables = VirtTables::new(WalkMode::Virtualized);
    let s = space(0, 0);
    let pages: Vec<Gva> = (0..128u64).map(|i| Gva::new(0x1000_0000_0000 + (i << 12))).collect();
    for (i, va) in pages.iter().enumerate() {
        tables.ensure_mapped(*va, PageSize::Small4K);
        touch(&mut sys, &tables, s, *va, i as u64 * 500);
    }
    let mut pom = pom(&sys).clone();
    for va in &pages {
        let expected = tables.lookup_page(*va).expect("mapped").0;
        let got = pom
            .lookup(s, *va, PageSize::Small4K)
            .expect("pom holds all 128 pages")
            .page_base;
        assert_eq!(got, expected, "translation integrity for {va}");
    }
}
