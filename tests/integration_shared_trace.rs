//! Determinism contract of shared-trace execution: a batch where every
//! scheme replays one recorded input stream must produce reports
//! byte-identical to the same batch generating its streams live, serially
//! or pooled. `--trace-cache` output leans on this.

use pom_tlb::{run_jobs, share_traces, Scheme, SimConfig, SimJob, SystemConfig};
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

/// All four schemes over a gups with unmaps and remaps, so the recording
/// carries OS events between its references.
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

/// A stable per-report fingerprint: the JSON encoding where serde_json is
/// functional, the full Debug rendering otherwise. Either captures every
/// field, which is what "byte-identical" means here.
fn fingerprints(results: &[pom_tlb::JobResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            serde_json::to_string(&r.report).unwrap_or_else(|_| format!("{:?}", r.report))
        })
        .collect()
}

#[test]
fn trace_cache_shares_one_recording_per_workload() {
    let mut jobs = batch();
    let recordings = share_traces(&mut jobs);
    assert_eq!(recordings, 3, "three workloads, four schemes each: three recordings");
    assert!(jobs.iter().all(|j| j.trace.is_some()));
}

#[test]
fn shared_trace_serial_matches_generated_serial() {
    let live = run_jobs(batch(), 1);
    let mut cached = batch();
    share_traces(&mut cached);
    let replayed = run_jobs(cached, 1);

    assert_eq!(live.len(), replayed.len());
    for (a, b) in live.iter().zip(&replayed) {
        assert_eq!(a.label, b.label);
    }
    assert_eq!(
        fingerprints(&live),
        fingerprints(&replayed),
        "replaying the shared recording must not change any report"
    );
}

#[test]
fn shared_trace_pooled_matches_generated_serial() {
    for (make, recordings) in [(batch as fn() -> Vec<SimJob>, 3), (eventful_gups_batch, 1)] {
        let live = run_jobs(make(), 1);
        let mut cached = make();
        assert_eq!(share_traces(&mut cached), recordings);
        let pooled = run_jobs(cached, 4);
        assert_eq!(
            fingerprints(&live),
            fingerprints(&pooled),
            "worker pool + shared recording must still be byte-identical to serial live"
        );
    }
}

#[test]
fn repeated_shared_trace_runs_agree() {
    let mut a = batch();
    share_traces(&mut a);
    let mut b = batch();
    share_traces(&mut b);
    assert_eq!(fingerprints(&run_jobs(a, 4)), fingerprints(&run_jobs(b, 4)));
}
