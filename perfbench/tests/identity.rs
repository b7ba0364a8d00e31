//! The traced loop must reproduce the untraced `begin` / `advance` /
//! `finish` report of every row byte for byte. If `ChunkSim::advance`
//! changes in a way the mirror does not follow, these tests fail before
//! any traced number is trusted.

use pom_tlb::share_traces;
use pomtlb_perfbench::sim::{batch, fingerprint};
use pomtlb_perfbench::span::SpanLog;
use pomtlb_perfbench::traced::run_row;

/// Runs every row of `line`'s batch both ways and returns the reports'
/// OS-event count, so callers can insist the event path ran.
fn assert_traced_matches(line: &str) -> u64 {
    let mut jobs = batch(line).expect("valid request line");
    share_traces(&mut jobs);
    let mut spans = SpanLog::default();
    let mut events = 0;
    for job in &jobs {
        let mut sim = job.to_simulation().begin();
        let refs = sim.advance(u64::MAX);
        let untraced = sim.finish();
        let trace = spans.trace(job.label.clone());
        let traced = run_row(job, &mut spans, trace, 0);
        assert_eq!(
            fingerprint(&untraced),
            fingerprint(&traced.report),
            "traced row {} differs from the untraced run",
            job.label
        );
        assert_eq!(traced.times.refs, refs);
        assert_eq!(traced.times.access.count, refs);
        assert_eq!(traced.times.event.count, traced.times.replay.count - refs);
        events += untraced.shootdowns.events;
    }
    assert!(!spans.is_empty(), "the traced loop keeps sampled spans");
    events
}

#[test]
fn traced_rows_match_on_a_paper_workload() {
    let events = assert_traced_matches(
        r#"{"kind":"compare","workload":"mcf","cores":2,"refs":1500,"warmup":500,"seed":7,"unmaps_per_10k":40,"remaps_per_10k":20,"promotes_per_10k":5}"#,
    );
    assert!(events > 0, "the batch exercises handle_os_event");
}

#[test]
fn traced_rows_match_on_a_consolidation_spec() {
    let events = assert_traced_matches(
        r#"{"kind":"consolidation","vms":40,"cores":2,"refs":2500,"warmup":500,"seed":11,"churn_destroys_per_10k":30,"churn_forks_per_10k":30}"#,
    );
    assert!(events > 0, "the churn mix drives shootdowns");
}
