//! Multi-tenant consolidation end to end: Zipf-skewed tenant attribution,
//! lifecycle churn through the shootdown engine, per-tenant QoS accounting
//! in the report, determinism serial, pooled and replayed, and the VM_ID-reuse
//! safety property (a rebooted VM with a recycled VM_ID must never be
//! served a predecessor's translation).

use pom_tlb::{
    run_jobs, share_traces, Scheme, SimConfig, SimJob, SimReport, Simulation, System,
    SystemConfig,
};
use pomtlb_tlb::{VirtTables, WalkMode};
use pomtlb_trace::{LocalityModel, OsEvent, OsEventKind, TenantMix, WorkloadSpec};
use pomtlb_types::{AccessKind, AddressSpace, CoreId, Cycles, Gva, PageSize, ProcessId, VmId};
use proptest::prelude::*;

/// A consolidation workload small enough for test budgets: 40 tenants,
/// Zipf-skewed traffic, aggressive churn so a few thousand references see
/// real teardown and fork-storm activity.
fn tenant_spec() -> WorkloadSpec {
    WorkloadSpec::builder("tenancy-it")
        .footprint_bytes(8 << 20)
        .large_page_frac(0.2)
        .locality(LocalityModel::Zipf { alpha: 1.1 })
        .tenancy(TenantMix {
            vms: 40,
            skew: 0.8,
            ws_decay: 0.5,
            churn_destroys_per_10k: 30.0,
            fork_storms_per_10k: 15.0,
            fork_pages: 4,
        })
        .build()
}

fn quick() -> SimConfig {
    SimConfig { refs_per_core: 6_000, warmup_per_core: 2_000, seed: 0xbeef }
}

fn two_cores() -> SystemConfig {
    SystemConfig { n_cores: 2, ..Default::default() }
}

fn fingerprint(r: &SimReport) -> String {
    serde_json::to_string(r).expect("reports serialize")
}

#[test]
fn tenancy_report_accounts_tenants_and_churn() {
    let report = Simulation::new(&tenant_spec(), Scheme::pom_tlb(), quick())
        .with_system_config(two_cores())
        .run();
    let t = &report.tenancy;
    assert_eq!(t.vms, 40);
    assert!(t.measured_tenants > 10, "skewed traffic still reaches many tenants");
    assert!(t.dispersion > 0.5 && t.dispersion <= 1.0, "dispersion {}", t.dispersion);
    assert!(t.churn.destroys > 0, "churn rate guarantees teardowns in 16k refs");
    assert!(t.churn.fork_remaps > 0, "fork storms must reach the remap path");
    assert!(t.worst_p99 >= t.median_p99);
    let mut vms: Vec<u16> = t.tenants.iter().map(|x| x.vm).collect();
    let sorted = {
        let mut v = vms.clone();
        v.sort_unstable();
        v
    };
    assert_eq!(vms, sorted, "tenant rows come out VM_ID-ascending");
    vms.dedup();
    assert_eq!(vms.len(), t.tenants.len(), "one row per tenant");
    let refs: u64 = t.tenants.iter().map(|x| x.refs).sum();
    assert_eq!(refs, report.refs, "every measured reference is attributed");
}

#[test]
fn non_tenancy_reports_carry_a_default_section() {
    let spec = WorkloadSpec::builder("plain")
        .footprint_bytes(4 << 20)
        .locality(LocalityModel::UniformRandom)
        .build();
    let report = Simulation::new(&spec, Scheme::pom_tlb(), quick())
        .with_system_config(two_cores())
        .run();
    assert_eq!(report.tenancy, pom_tlb::TenancyStats::default());
}

#[test]
fn tenancy_is_deterministic_across_serial_pooled_and_replayed() {
    let jobs = || -> Vec<SimJob> {
        [Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb]
            .into_iter()
            .map(|s| {
                SimJob::new(format!("{s:?}"), &tenant_spec(), s, quick())
                    .with_system_config(two_cores())
            })
            .collect()
    };
    let serial = run_jobs(jobs(), 1);
    let pooled = run_jobs(jobs(), 3);
    let mut replay_jobs = jobs();
    share_traces(&mut replay_jobs);
    let replayed = run_jobs(replay_jobs, 3);
    for ((a, b), c) in serial.iter().zip(&pooled).zip(&replayed) {
        assert_eq!(
            fingerprint(&a.report),
            fingerprint(&b.report),
            "{}: serial vs pooled diverged",
            a.label
        );
        assert_eq!(
            fingerprint(&a.report),
            fingerprint(&c.report),
            "{}: serial vs pooled replay diverged",
            a.label
        );
    }
}

// ---------------------------------------------------------------------------
// VM_ID reuse: destroy a VM, boot a successor with the same VM_ID, and
// prove the stale watchdog finds zero stale translations however the
// successor's boot reshuffles frames.

/// Drives one destroy→reboot cycle through the real System event path with
/// the stale watchdog armed (any stale serve panics, failing the case).
fn reuse_cycle(vm: u16, n_pages: usize, remap_mask: u32) {
    let space = AddressSpace::new(VmId(vm), ProcessId(0));
    let mut tables = VirtTables::new(WalkMode::Virtualized);
    let mut sys = System::new(two_cores(), Scheme::pom_tlb());
    sys.set_check_consistency(true);
    let pages: Vec<Gva> =
        (0..n_pages as u64).map(|i| Gva::new(0x5000_0000_0000 + (i << 12))).collect();
    let mut now = 0u64;
    for page in &pages {
        let hpa = tables.ensure_mapped(*page, PageSize::Small4K);
        sys.note_mapped(space, *page, PageSize::Small4K, hpa);
        let _ = sys.access(CoreId(0), space, *page, AccessKind::Read, &tables, Cycles::new(now));
        now += 100;
    }

    // Teardown: structures flushed, tables kept (frames await the
    // successor).
    let destroy = OsEvent { icount: now, space, kind: OsEventKind::DestroyVm };
    let _ = sys.handle_os_event(CoreId(0), &destroy, &mut tables);

    // The successor boots under the same VM_ID. Some pages it remaps to
    // fresh frames (COW breaks, new allocations); the rest it inherits.
    for (i, page) in pages.iter().enumerate() {
        if remap_mask & (1 << (i % 32)) != 0 {
            let remap = OsEvent {
                icount: now,
                space,
                kind: OsEventKind::RemapPage { va: *page, size: PageSize::Small4K },
            };
            let _ = sys.handle_os_event(CoreId(0), &remap, &mut tables);
        }
    }

    // Every successor access must be served the live frame — the watchdog
    // panics on anything stale, and the POM-TLB must agree with the
    // tables afterwards.
    for page in &pages {
        now += 100;
        let _ = sys.access(CoreId(0), space, *page, AccessKind::Read, &tables, Cycles::new(now));
    }
    let mut pom = sys.pom().expect("a POM-TLB machine").clone();
    for page in &pages {
        let expect = tables.lookup_page(*page).expect("successor pages stay mapped").0;
        let hit = pom
            .lookup(space, *page, PageSize::Small4K)
            .expect("successor touches refill the POM-TLB");
        assert_eq!(hit.page_base, expect, "POM-TLB serves the successor's frame");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite property: recycling a VM_ID after `DestroyVm` never
    /// exposes the predecessor's translations, for arbitrary VM_IDs,
    /// footprint sizes and boot-time remap patterns.
    #[test]
    fn prop_vm_id_reuse_serves_zero_stale_translations(
        vm in 1u16..512,
        n_pages in 1usize..24,
        remap_mask in any::<u32>(),
    ) {
        reuse_cycle(vm, n_pages, remap_mask);
    }
}
