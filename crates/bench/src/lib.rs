//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§3–§4) from the simulator.
//!
//! * [`matrix`] — memoized simulation runner: one `(workload, scheme,
//!   system-variant)` triple is simulated at most once per process, and the
//!   anchored performance model (DESIGN.md §6) converts per-miss penalties
//!   into Figure 8-style improvement percentages;
//! * [`figures`] — one constructor per paper artifact (`table1`, `table2`,
//!   `fig1` … `fig12`, plus the §4.6 sweeps and two ablations), each
//!   returning a printable/serializable [`figures::Figure`];
//! * [`fingerprint`] — a per-cell report digest of Figs. 8–12, the
//!   committed byte-identity check for refactors;
//! * the `experiments` binary wires these to a tiny CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod fingerprint;
pub mod matrix;

pub use figures::Figure;
pub use matrix::{ExpConfig, Matrix};
