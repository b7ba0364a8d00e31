//! End-to-end fault tolerance: a sweep with a permanently panicking job
//! and transient trace-store I/O faults still completes every sibling and
//! reports a per-job outcome; a transiently failing job retries to a
//! byte-identical report; and seeded translation-fault injection obeys the
//! detection contract (consistency on ⇒ zero escapes, off ⇒ zero
//! detections) while staying deterministic under a pinned seed.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pom_tlb::{
    run_jobs, run_jobs_with, share_traces, share_traces_with_store, FaultConfig, JobOutcome,
    JobResult, RunPolicy, Scheme, SimConfig, SimJob, SystemConfig,
};
use pomtlb_trace::{OsEventRates, TraceStore};
use pomtlb_workloads::by_name;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("pomtlb-fault-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two workloads × all four schemes: the shape of a small sweep.
fn batch() -> Vec<SimJob> {
    let sim = SimConfig { refs_per_core: 3_000, warmup_per_core: 1_000, seed: 0xbeef };
    let sys = SystemConfig { n_cores: 2, ..Default::default() };
    let mut jobs = Vec::new();
    for name in ["gups", "mcf"] {
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

fn fingerprint(r: &pom_tlb::JobResult) -> String {
    serde_json::to_string(&r.report).unwrap_or_else(|_| format!("{:?}", r.report))
}

/// The acceptance scenario: one job in the sweep panics on every attempt
/// and the trace store throws transient I/O errors on the way in. The
/// sweep must still run every sibling to completion, report the failure as
/// a per-job outcome in submission order, and leave sibling reports
/// byte-identical to an undisturbed serial run.
#[test]
fn panicking_job_and_transient_store_faults_do_not_take_down_the_sweep() {
    let dir = TempDir::new("sweep");
    let clean = run_jobs(batch(), 1);

    // Record pass: put both distinct streams on disk.
    let store = TraceStore::open(dir.path()).expect("open store");
    let mut warm = batch();
    let cold = share_traces_with_store(&mut warm, Some(&store));
    assert_eq!(cold.recorded, 2, "both distinct streams recorded");
    drop((warm, store));

    // Replay pass under fire: two injected transient I/O faults, retried
    // with a zero-delay backoff, must not cost a single recording.
    let store = TraceStore::open(dir.path())
        .expect("reopen store")
        .with_retry_policy(4, Duration::ZERO);
    store.inject_transient_load_faults(2);
    let mut jobs = batch();
    let replay = share_traces_with_store(&mut jobs, Some(&store));
    assert_eq!((replay.store_hits, replay.store_misses), (2, 0));
    let counters = store.counters();
    assert_eq!(counters.transient_retries, 2, "both faults retried");
    assert_eq!(counters.load_failures, 0, "no fault was terminal");

    // Break one job permanently and run the sweep on a pool.
    let victim = jobs.remove(3);
    let expected_label = victim.label.clone();
    jobs.insert(3, victim.sabotage_panics("injected harness fault", u32::MAX));
    let outcomes = run_jobs_with(jobs, 4, RunPolicy::default(), &|_, _| {});

    assert_eq!(outcomes.len(), clean.len(), "every job has an outcome");
    match &outcomes[3] {
        JobOutcome::Panicked { label, message, attempts } => {
            assert_eq!(label, &expected_label);
            assert!(message.contains("injected harness fault"), "payload kept: {message}");
            assert_eq!(*attempts, 2, "default policy retries once before giving up");
        }
        other => panic!("sabotaged job should panic, got {}", other.status()),
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        if i == 3 {
            continue;
        }
        assert_eq!(outcome.status(), "ok", "sibling `{}` unaffected", outcome.label());
        let result = outcome.result().expect("completed outcome has a result");
        assert!(result.report.refs > 0, "sibling `{}` simulated", result.label);
        assert_eq!(
            fingerprint(result),
            fingerprint(&clean[i]),
            "sibling `{}` diverged from the undisturbed run",
            result.label
        );
    }
}

/// Runs `jobs` on two workers with slot `victim` made to panic `panics`
/// times under `policy`: the victim must come back retried, every sibling
/// ok, and every slot byte-identical to the undisturbed serial `clean`.
fn assert_retries_to_identical_reports(
    clean: &[JobResult],
    mut jobs: Vec<SimJob>,
    victim: usize,
    panics: u32,
    policy: RunPolicy,
) {
    jobs[victim] = jobs[victim].clone().sabotage_panics("transient harness fault", panics);
    let outcomes = run_jobs_with(jobs, 2, policy, &|_, _| {});

    assert_eq!(outcomes.len(), clean.len(), "every job has an outcome");
    match &outcomes[victim] {
        JobOutcome::Retried { retries, .. } => assert_eq!(*retries, panics),
        other => panic!("expected a retried outcome, got {}", other.status()),
    }
    for (i, (outcome, clean)) in outcomes.iter().zip(clean).enumerate() {
        if i != victim {
            assert_eq!(outcome.status(), "ok", "sibling `{}` unaffected", outcome.label());
        }
        let result = outcome.result().expect("no job was lost");
        assert_eq!(
            fingerprint(result),
            fingerprint(clean),
            "slot {i} (`{}`) must match an undisturbed serial run",
            result.label
        );
    }
}

/// A job that panics and then recovers is retried and lands the same
/// report as a run that never failed, without perturbing its siblings.
#[test]
fn transient_panic_retries_to_an_identical_report() {
    assert_retries_to_identical_reports(
        &run_jobs(batch(), 1),
        batch(),
        5,
        1,
        RunPolicy::default(),
    );

    // Fault-armed, eventful and replaying one shared recording: the fault
    // plan is part of the simulated machine, so neither the pool nor a
    // retried attempt may move a single injected fault.
    let armed = || -> Vec<SimJob> {
        [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()]
            .into_iter()
            .map(|scheme| faulted_job(scheme, true))
            .collect()
    };
    let clean = run_jobs(armed(), 1);
    assert!(clean[3].report.faults.injected_total() > 0, "the POM-TLB row injects");
    let mut jobs = armed();
    assert_eq!(share_traces(&mut jobs), 1, "four schemes share one recording");
    let policy = RunPolicy { max_retries: 3, ..RunPolicy::strict() };
    assert_retries_to_identical_reports(&clean, jobs, 2, 2, policy);
}

/// Amplified rates so every kind of fault fires many times even in a short
/// run, over an eventful OS mix so the shootdown-borne kinds get rounds to
/// land in.
fn hot_faults() -> (FaultConfig, OsEventRates) {
    let faults = FaultConfig {
        pom_bit_flips_per_10k: 20.0,
        cached_flips_per_10k: 20.0,
        dropped_ipis_per_10k: 20.0,
        stale_reinserts_per_10k: 20.0,
        seed: 0xfa57,
    };
    let events =
        OsEventRates { unmaps: 20.0, remaps: 10.0, promotes: 0.5, migrations: 1.0, vm_destroys: 0.0 };
    (faults, events)
}

fn faulted_job(scheme: Scheme, detect: bool) -> SimJob {
    let (faults, events) = hot_faults();
    let w = by_name("gups").expect("workload exists");
    let mut spec = w.spec.clone();
    spec.os_events = events;
    let sim = SimConfig { refs_per_core: 6_000, warmup_per_core: 2_000, seed: 0xbeef };
    let sys = SystemConfig { n_cores: 2, ..Default::default() };
    let mut job = SimJob::new(format!("gups/{}", scheme.label()), &spec, scheme, sim)
        .with_system_config(sys)
        .shared_memory(w.suite.shares_memory())
        .with_faults(faults);
    job.check_consistency = Some(detect);
    job
}

/// The detection contract, end to end across every scheme: with the
/// consistency machinery on, no wrong translation is ever served (zero
/// escapes); with it off, nothing is ever claimed detected. The POM-TLB
/// rows — the only scheme whose served path all four fault kinds can
/// reach — must show actual detections when on and actual escapes when
/// off.
#[test]
fn injected_faults_are_detected_or_escape_by_consistency_setting() {
    let mut jobs = Vec::new();
    let mut detect_flags = Vec::new();
    for detect in [true, false] {
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            jobs.push(faulted_job(scheme, detect));
            detect_flags.push(detect);
        }
    }
    let results = run_jobs(jobs, 2);
    for (r, detect) in results.iter().zip(&detect_flags) {
        let f = &r.report.faults;
        if matches!(r.report.scheme, Scheme::PomTlb { .. }) {
            assert!(f.injected_total() > 0, "{}: faults were injected", r.label);
        } else {
            // Only dropped IPIs reach a machine without a POM-TLB array.
            assert_eq!(f.injected_total(), f.injected_dropped_ipis, "{}: {f:?}", r.label);
        }
        if *detect {
            assert_eq!(f.escapes, 0, "{}: detection repaired every wrong serve", r.label);
        } else {
            assert_eq!(f.detected_total, 0, "{}: nothing is detected when off", r.label);
        }
    }
    let pom_on = &results[3].report.faults;
    let pom_off = &results[7].report.faults;
    assert!(pom_on.detected_total > 0, "POM-TLB with detection on catches faults");
    assert!(pom_off.escapes > 0, "POM-TLB with detection off lets wrong serves through");
}

/// Fault injection is seeded: the same job run twice produces the same
/// report, fault statistics included.
#[test]
fn faulted_runs_are_deterministic() {
    let a = run_jobs(vec![faulted_job(Scheme::pom_tlb(), true)], 1);
    let b = run_jobs(vec![faulted_job(Scheme::pom_tlb(), true)], 1);
    assert!(a[0].report.faults.injected_total() > 0, "the run actually injected");
    assert_eq!(fingerprint(&a[0]), fingerprint(&b[0]), "same seed, same report");
}
