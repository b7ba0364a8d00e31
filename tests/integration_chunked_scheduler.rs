//! Determinism contract of the chunked work-stealing scheduler: splitting
//! a job's reference stream into chunks and scheduling the chunks across
//! Chase–Lev deques must produce reports byte-identical to serial and to
//! whole-job pooled execution — for every scheme, every worker count, any
//! chunk size, with or without a shared-trace replay, and under fault
//! injection with chunk-level retries in the mix.

use pom_tlb::{
    default_jobs, run_jobs, run_jobs_chunked, run_jobs_chunked_with, share_traces, FaultConfig,
    JobOutcome, RunPolicy, Scheme, SimConfig, SimJob, SystemConfig,
};
use pomtlb_trace::OsEventRates;
use pomtlb_workloads::by_name;

/// All four schemes over an eventful gups so chunk boundaries land between
/// OS events as well as between plain references.
fn batch() -> Vec<SimJob> {
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

#[test]
fn chunked_matches_serial_for_all_schemes_and_worker_counts() {
    let serial = run_jobs(batch(), 1);
    assert_eq!(serial.len(), 4, "all four schemes");
    let golden = as_json(&serial);
    // jobs ∈ {1, 2, auto}: the chunk chain must serialize identically no
    // matter how many workers steal from it. Odd chunk sizes make the
    // boundaries land mid-warmup and mid-measurement.
    for workers in [1, 2, default_jobs()] {
        for chunk_refs in [700, 4_096] {
            let chunked = run_jobs_chunked(batch(), workers, chunk_refs);
            assert_eq!(
                golden,
                as_json(&chunked),
                "reports diverged at {workers} workers / {chunk_refs}-ref chunks"
            );
            for (a, b) in serial.iter().zip(&chunked) {
                assert_eq!(a.label, b.label, "submission order broke");
            }
        }
    }
}

#[test]
fn chunked_replay_from_shared_trace_matches_live_generation() {
    let live = run_jobs(batch(), 1);
    let mut jobs = batch();
    let distinct = share_traces(&mut jobs);
    assert_eq!(distinct, 1, "four schemes share one recording");
    let replayed = run_jobs_chunked(jobs, 3, 1_100);
    assert_eq!(
        as_json(&live),
        as_json(&replayed),
        "chunked replay of a recorded stream must equal live chunked generation"
    );
}

#[test]
fn chunked_equals_whole_job_pooled_execution() {
    let pooled = run_jobs(batch(), 4);
    let chunked = run_jobs_chunked(batch(), 4, 900);
    assert_eq!(as_json(&pooled), as_json(&chunked));
}

/// Fault injection rides along: the injected-fault plan is part of the
/// simulated machine state, so chunk boundaries (and chunk-level retries
/// rewinding that state) must not move a single injected fault.
#[test]
fn fault_injected_jobs_survive_chunking_and_chunk_retries() {
    let faults = FaultConfig {
        pom_bit_flips_per_10k: 20.0,
        cached_flips_per_10k: 20.0,
        dropped_ipis_per_10k: 20.0,
        stale_reinserts_per_10k: 20.0,
        seed: 0xfa57,
    };
    let arm = |mut jobs: Vec<SimJob>| -> Vec<SimJob> {
        for job in &mut jobs {
            job.faults = Some(faults);
            job.check_consistency = Some(true);
        }
        jobs
    };
    let serial = run_jobs(arm(batch()), 1);
    for r in &serial {
        let f = &r.report.faults;
        if matches!(r.report.scheme, Scheme::PomTlb { .. }) {
            assert!(f.injected_total() > 0, "{}: faults must fire", r.label);
        } else {
            // No POM-TLB array to corrupt or re-insert into, and no cached
            // POM-TLB line to flip: only dropped IPIs can apply.
            assert_eq!(f.injected_total(), f.injected_dropped_ipis, "{}: {f:?}", r.label);
        }
    }
    // Plain chunking first.
    let chunked = run_jobs_chunked(arm(batch()), 2, 800);
    assert_eq!(as_json(&serial), as_json(&chunked), "fault plans diverged under chunking");

    // Now sabotage one job mid-stream: its chunks panic twice and are
    // retried from pre-chunk snapshots (the batch replays a shared trace,
    // so snapshots are available). The retries must not perturb the
    // sabotaged job's own report *or* any sibling's.
    let mut jobs = arm(batch());
    share_traces(&mut jobs);
    jobs[2] = jobs[2].clone().sabotage_panics("injected chunk failure", 2);
    let policy = RunPolicy { max_retries: 3, ..RunPolicy::strict() };
    let outcomes = run_jobs_chunked_with(jobs, 2, 800, policy, &|_, _| {});
    assert_eq!(outcomes.len(), serial.len());
    let JobOutcome::Retried { retries, .. } = &outcomes[2] else {
        panic!("sabotaged job must be Retried, got {}", outcomes[2].status());
    };
    assert_eq!(*retries, 2);
    for (idx, (a, b)) in serial.iter().zip(&outcomes).enumerate() {
        let b = b.result().expect("every job completes");
        assert_eq!(a.label, b.label);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap(),
            "slot {idx} perturbed by a sibling's chunk retries"
        );
    }
}

#[test]
fn oversized_pool_and_oversized_chunks_are_harmless() {
    // More workers than jobs, and chunks larger than the whole stream:
    // degenerates to whole-job scheduling, same bytes out.
    let serial = run_jobs(batch(), 1);
    let chunked = run_jobs_chunked(batch(), 16, u64::MAX);
    assert_eq!(as_json(&serial), as_json(&chunked));
}
