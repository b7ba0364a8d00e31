//! Determinism contract of the parallel runner: a batch of seeded jobs run
//! on a worker pool must produce reports byte-identical to the same batch
//! run serially, whatever order the pool starts them in. Every figure
//! regenerated under `--jobs N` leans on this.

use pom_tlb::{default_jobs, run_jobs, Scheme, SimConfig, SimJob, SystemConfig};
use pomtlb_trace::OsEventRates;
use pomtlb_workloads::by_name;

fn batch() -> Vec<SimJob> {
    let sim = SimConfig { refs_per_core: 4_000, warmup_per_core: 1_000, seed: 0xd00d };
    let sys = SystemConfig { n_cores: 2, ..Default::default() };
    let mut jobs = Vec::new();
    for name in ["gups", "mcf", "streamcluster"] {
        let w = by_name(name).expect("workload exists");
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            jobs.push(
                SimJob::new(format!("{name}/{}", scheme.label()), &w.spec, scheme, sim)
                    .with_system_config(sys.clone())
                    .shared_memory(w.suite.shares_memory()),
            );
        }
    }
    jobs
}

/// All four schemes over a gups with unmaps and remaps: OS events land
/// between references, and the prepopulated POM-TLB and TSB jobs start
/// ahead of the two submitted before them.
fn eventful_gups_batch() -> Vec<SimJob> {
    let sim = SimConfig { refs_per_core: 4_000, warmup_per_core: 1_000, seed: 0xc4a1 };
    let sys = SystemConfig { n_cores: 2, ..Default::default() };
    let w = by_name("gups").expect("workload exists");
    let mut spec = w.spec.clone();
    spec.os_events = OsEventRates { unmaps: 4.0, remaps: 2.0, ..Default::default() };
    [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()]
        .into_iter()
        .map(|scheme| {
            SimJob::new(format!("gups/{}", scheme.label()), &spec, scheme, sim)
                .with_system_config(sys.clone())
                .shared_memory(w.suite.shares_memory())
        })
        .collect()
}

fn as_json(results: &[pom_tlb::JobResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| serde_json::to_string(&r.report).expect("report serializes"))
        .collect()
}

fn assert_pooled_matches_serial(make: fn() -> Vec<SimJob>, worker_counts: &[usize]) {
    let serial = run_jobs(make(), 1);
    for &workers in worker_counts {
        let pooled = run_jobs(make(), workers);
        assert_eq!(serial.len(), pooled.len());
        // Results come back in submission order regardless of which
        // worker started or finished first.
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.label, b.label);
        }
        assert_eq!(
            as_json(&serial),
            as_json(&pooled),
            "pooled reports must be byte-identical at {workers} workers"
        );
    }
}

#[test]
fn pooled_run_matches_serial_run() {
    assert_pooled_matches_serial(batch, &[4]);
    assert_pooled_matches_serial(eventful_gups_batch, &[1, 2, default_jobs()]);
}

#[test]
fn oversized_pool_is_harmless() {
    // More workers than jobs: the pool must not deadlock, drop, or reorder.
    let sim = SimConfig { refs_per_core: 2_000, warmup_per_core: 500, seed: 7 };
    let w = by_name("gups").expect("workload exists");
    let jobs: Vec<SimJob> = (0..3)
        .map(|i| SimJob::new(format!("gups/{i}"), &w.spec, Scheme::pom_tlb(), sim))
        .collect();
    let results = run_jobs(jobs, 16);
    assert_eq!(results.len(), 3);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.label, format!("gups/{i}"));
        assert!(r.report.refs > 0);
    }
}

#[test]
fn repeated_pooled_runs_agree() {
    // The pool itself must not introduce run-to-run variance.
    let first = as_json(&run_jobs(batch(), 4));
    let second = as_json(&run_jobs(batch(), 4));
    assert_eq!(first, second);
}
