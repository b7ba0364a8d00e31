//! Byte-level fingerprint of the paper figures: one digest of the
//! serialized [`pom_tlb::SimReport`] per simulation cell Figs. 8–12 read.
//!
//! The rendered figures round to one decimal, so a refactor can move a
//! report field without moving a printed number. The fingerprint cannot
//! miss it: every cell's whole report is hashed, and a changed cell shows
//! up as a one-line diff against `results/paper_fingerprint_quick.tsv`
//! (regenerate with `experiments --quick --fingerprint`).

use std::fmt::Write as _;

use pomtlb_trace::digest::{digest256, digest_hex};

use crate::figures::{self, Figure};
use crate::matrix::{ExpConfig, Matrix};

/// A figure constructor that reads simulation cells from a [`Matrix`].
pub type FigureFn = fn(&mut Matrix) -> Figure;

/// The fingerprinted artifacts, in output order.
pub const ARTIFACTS: [(&str, FigureFn); 5] = [
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
];

/// One line per cell of every artifact in [`ARTIFACTS`]:
/// `artifact \t workload \t cell \t digest`, where `cell` is
/// `"{scheme:?}/{variant}"` and `digest` is the hex digest of the cell's
/// JSON report. Simulates at `cfg`'s budget on `n_workers` threads; the
/// output does not depend on `n_workers`.
pub fn paper_fingerprint(cfg: ExpConfig, n_workers: usize) -> String {
    let mut cells = Vec::new();
    let mut matrix = Matrix::new(cfg);
    matrix.verbose = false;
    matrix.set_trace_cache(true);
    matrix.set_planning(true);
    for (name, build) in ARTIFACTS {
        // A throwaway plan per artifact lists the cells it reads, shared
        // ones included; the real matrix plans each cell once.
        let mut probe = Matrix::new(cfg);
        probe.set_planning(true);
        build(&mut probe);
        cells.extend(probe.planned_cells().into_iter().map(|cell| (name, cell)));
        build(&mut matrix);
    }
    matrix.execute_plan(n_workers);
    let mut out = String::new();
    for (name, (workload, cell)) in cells {
        let report = matrix
            .cached(&workload, &cell)
            .unwrap_or_else(|| panic!("cell {workload} {cell} did not complete"));
        let json = serde_json::to_string(report).expect("reports serialize");
        let digest = digest_hex(&digest256(json.as_bytes()));
        let _ = writeln!(out, "{name}\t{workload}\t{cell}\t{digest}");
    }
    out
}
