//! Determinism contract of chunked execution: a job driven as
//! `Simulation::begin`, then bounded `ChunkSim::advance` steps, then
//! `finish` must report byte-identically to the same job run whole,
//! serially or on the worker pool — for every scheme, any step size, with
//! the paused jobs handed between threads from step to step, with or
//! without a shared-trace replay, and under fault injection with abandoned
//! attempts restarted in the mix.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pom_tlb::{
    default_jobs, run_jobs, share_traces, ChunkSim, FaultConfig, Scheme, SimConfig, SimJob,
    SystemConfig,
};
use pomtlb_trace::OsEventRates;
use pomtlb_workloads::by_name;

/// All four schemes over an eventful gups so step boundaries land between
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

/// Runs `jobs` in bounded steps of `step_refs` references on up to
/// `workers` threads (clamped to the batch size, as the pool clamps) and
/// returns each report as JSON, in submission order. Every round starts
/// fresh threads that claim the unfinished jobs one step each, so a job's
/// steps land on different threads and interleave with its siblings'.
fn run_chunked(jobs: &[SimJob], workers: usize, step_refs: u64) -> Vec<String> {
    let workers = workers.clamp(1, jobs.len().max(1));
    let sims: Vec<Mutex<ChunkSim>> =
        jobs.iter().map(|job| Mutex::new(job.to_simulation().begin())).collect();
    while !sims.iter().all(|sim| sim.lock().unwrap().is_done()) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(sim) = sims.get(next.fetch_add(1, Ordering::Relaxed)) {
                        sim.lock().unwrap().advance(step_refs);
                    }
                });
            }
        });
    }
    sims.into_iter()
        .map(|sim| {
            let report = sim.into_inner().unwrap().finish();
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect()
}

#[test]
fn chunked_matches_serial_for_all_schemes_and_worker_counts() {
    let serial = run_jobs(batch(), 1);
    assert_eq!(serial.len(), 4, "all four schemes");
    let golden = as_json(&serial);
    // Threads ∈ {1, 2, auto}: how the steps are spread must not matter.
    // Odd step sizes make the boundaries land mid-warmup and
    // mid-measurement.
    for workers in [1, 2, default_jobs()] {
        for step_refs in [700, 4_096] {
            assert_eq!(
                golden,
                run_chunked(&batch(), workers, step_refs),
                "reports diverged at {workers} workers / {step_refs}-ref steps"
            );
        }
    }
}

#[test]
fn chunked_replay_from_shared_trace_matches_live_generation() {
    let live = run_jobs(batch(), 1);
    let mut jobs = batch();
    let distinct = share_traces(&mut jobs);
    assert_eq!(distinct, 1, "four schemes share one recording");
    assert_eq!(
        as_json(&live),
        run_chunked(&jobs, 3, 1_100),
        "chunked replay of a recorded stream must equal live generation"
    );
}

#[test]
fn chunked_equals_whole_job_pooled_execution() {
    let pooled = run_jobs(batch(), 4);
    assert_eq!(as_json(&pooled), run_chunked(&batch(), 4, 900));
}

/// Fault injection rides along: the injected-fault plan is part of the
/// simulated machine state, so step boundaries must not move a single
/// injected fault — and neither may an earlier attempt at the same job
/// that was abandoned mid-stream, which is how a retry treats a failed
/// attempt.
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
    let golden = as_json(&serial);
    // Plain chunking first.
    assert_eq!(golden, run_chunked(&arm(batch()), 2, 800), "fault plans diverged under chunking");

    // Now abandon every job partway — the batch replays one shared trace,
    // so the abandoned attempts and the restarts read the same recording —
    // and run it again from `begin`. The discarded state must leave no
    // trace in any job's report.
    let mut jobs = arm(batch());
    share_traces(&mut jobs);
    for job in &jobs {
        let mut abandoned = job.to_simulation().begin();
        assert_eq!(abandoned.advance(3_000), 3_000, "{}: abandoned mid-stream", job.label);
    }
    assert_eq!(golden, run_chunked(&jobs, 2, 800), "an abandoned attempt perturbed a restart");
}

#[test]
fn oversized_pool_and_oversized_chunks_are_harmless() {
    // More workers than jobs, and steps larger than the whole stream:
    // degenerates to one step per job, same bytes out.
    let serial = run_jobs(batch(), 1);
    assert_eq!(as_json(&serial), run_chunked(&batch(), 16, u64::MAX));
}
