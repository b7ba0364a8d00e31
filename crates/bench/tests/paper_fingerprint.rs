//! The paper figures must not move unnoticed: recomputes the Figs. 8–12
//! report digests at the `--quick` budget and diffs them against the
//! committed file. A change that moves a figure on purpose regenerates it
//! with `experiments --quick --fingerprint > results/paper_fingerprint_quick.tsv`.
//!
//! Ignored by default (it simulates every cell); run it in release:
//! `cargo test --release -p pomtlb-bench --test paper_fingerprint -- --ignored`.

use pomtlb_bench::fingerprint::paper_fingerprint;
use pomtlb_bench::ExpConfig;

const COMMITTED: &str = include_str!("../../../results/paper_fingerprint_quick.tsv");

#[test]
#[ignore = "simulates every Figs. 8-12 cell; run in release"]
fn paper_figures_match_the_committed_fingerprint() {
    let fresh = paper_fingerprint(ExpConfig::quick(), pom_tlb::default_jobs().min(4));
    let moved: Vec<String> = COMMITTED
        .lines()
        .zip(fresh.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  committed {want}\n  now       {got}"))
        .collect();
    assert!(
        moved.is_empty() && COMMITTED.lines().count() == fresh.lines().count(),
        "{} of {} fingerprint lines moved ({} committed, {} now):\n{}",
        moved.len(),
        COMMITTED.lines().count(),
        COMMITTED.lines().count(),
        fresh.lines().count(),
        moved.join("\n")
    );
}
