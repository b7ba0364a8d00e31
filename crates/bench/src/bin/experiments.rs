//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--jobs N] [--trace-cache] [--trace-cache-dir DIR]
//!             [--checkpoint FILE [--resume]] [--json DIR] [ARTIFACT...]
//!
//! ARTIFACT: table1 table2 fig1 fig2 fig3 fig4 fig8 fig9 fig10 fig11 fig12
//!           capacity cores assoc predictor-sweep all   (default: all)
//! ```
//!
//! With `--jobs N > 1` the artifact builders are first walked in the
//! matrix's *plan mode* to discover every simulation they need, the whole
//! batch runs on a worker pool, and the builders then replay against the
//! warm cache — so stdout and the JSON in `--json DIR` are byte-identical
//! to a serial run.
//!
//! `--trace-cache-dir DIR` persists the shared recordings to a POMTRC2
//! store at DIR (implies `--trace-cache`): the first invocation records
//! every distinct input stream, a second invocation over the same matrix
//! replays all of them from disk and runs zero generator passes. Damaged
//! or stale store files fall back to live generation — output never
//! changes, only speed.
//!
//! `--checkpoint FILE` journals every completed simulation to FILE as it
//! lands; `--resume` preloads the matrix from that journal, so a sweep
//! killed mid-run restarts where it stopped. Simulations are
//! deterministic, so a resumed run's output is byte-identical to an
//! uninterrupted one.
//!
//! `--fingerprint` prints one report digest per Figs. 8–12 cell instead of
//! the figures (see `pomtlb_bench::fingerprint`); at `--quick` it is the
//! committed `results/paper_fingerprint_quick.tsv`.

use std::fs;
use std::process::ExitCode;

use pomtlb_bench::figures::{self, Figure};
use pomtlb_bench::fingerprint::paper_fingerprint;
use pomtlb_bench::matrix::{ExpConfig, Matrix};
use pomtlb_trace::TraceStore;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut fingerprint = false;
    let mut jobs = 1usize;
    let mut trace_cache = false;
    let mut trace_cache_dir: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut json_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--fingerprint" => fingerprint = true,
            "--trace-cache" => trace_cache = true,
            "--trace-cache-dir" => match it.next() {
                Some(dir) => trace_cache_dir = Some(dir),
                None => {
                    eprintln!("--trace-cache-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match it.next() {
                Some(file) => checkpoint = Some(file),
                None => {
                    eprintln!("--checkpoint needs a file");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => resume = true,
            "--json" => match it.next() {
                Some(dir) => json_dir = Some(dir),
                None => {
                    eprintln!("--json needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" | "-j" => match it.next() {
                Some(v) if v == "auto" => jobs = pom_tlb::default_jobs(),
                Some(v) => match v.parse() {
                    Ok(n) => jobs = n,
                    Err(_) => {
                        eprintln!("--jobs needs a number or `auto`, got `{v}`");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--jobs needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                print_help();
                return ExitCode::FAILURE;
            }
            artifact => wanted.push(artifact.to_string()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL_ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }

    let cfg = if quick { ExpConfig::quick() } else { ExpConfig::standard() };
    if fingerprint {
        print!("{}", paper_fingerprint(cfg, jobs));
        return ExitCode::SUCCESS;
    }
    let mut matrix = Matrix::new(cfg);
    matrix.set_trace_cache(trace_cache);
    if let Some(dir) = &trace_cache_dir {
        match TraceStore::open(dir) {
            Ok(store) => {
                trace_cache = true;
                matrix.set_trace_store(Some(store));
            }
            Err(e) => {
                eprintln!("cannot open trace store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if resume && checkpoint.is_none() {
        eprintln!("--resume needs --checkpoint FILE");
        return ExitCode::FAILURE;
    }
    if let Some(file) = &checkpoint {
        match matrix.set_checkpoint(file, resume) {
            Ok(n) if n > 0 => eprintln!("resumed {n} checkpointed simulation(s) from {file}"),
            Ok(_) => {}
            Err(e) => {
                eprintln!("cannot open checkpoint {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut produced: Vec<Figure> = Vec::new();

    if let Some(unknown) = wanted.iter().find(|n| !ALL_ARTIFACTS.contains(&n.as_str())) {
        eprintln!("unknown artifact `{unknown}`");
        print_help();
        return ExitCode::FAILURE;
    }

    // A checkpoint forces the planning pass even serially, so cells are
    // journaled (and restored cells skipped) through one code path.
    if jobs > 1 || trace_cache || checkpoint.is_some() {
        // Planning pass: walk every builder against placeholder reports to
        // collect the full simulation batch, run it on the pool, and leave
        // the cache warm. The real pass below then replays from the cache
        // and emits byte-identical output to a serial run.
        matrix.set_planning(true);
        for name in &wanted {
            let _ = build(name, &mut matrix);
        }
        matrix.execute_plan(jobs);
    }

    for name in &wanted {
        let fig = build(name, &mut matrix).expect("artifact names are validated above");
        println!("{}", fig.render());
        produced.push(fig);
    }

    if let Some(dir) = json_dir {
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for fig in &produced {
            let path = format!("{dir}/{}.json", fig.id);
            if let Err(e) = fs::write(&path, serde_json::to_string_pretty(&fig.to_json()).unwrap())
            {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("wrote {} JSON artifacts to {dir}", produced.len());
    }
    ExitCode::SUCCESS
}

/// Builds one named artifact against `matrix` (which may be in plan mode).
fn build(name: &str, matrix: &mut Matrix) -> Option<Figure> {
    Some(match name {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(matrix),
        "fig3" => figures::fig3(matrix),
        "fig4" => figures::fig4(),
        "fig8" => figures::fig8(matrix),
        "fig9" => figures::fig9(matrix),
        "fig10" => figures::fig10(matrix),
        "fig11" => figures::fig11(matrix),
        "fig12" => figures::fig12(matrix),
        "capacity" => figures::capacity(matrix),
        "cores" => figures::cores(matrix),
        "assoc" => figures::assoc(matrix),
        "predictor-sweep" => figures::predictor_sweep(matrix),
        "tlb-aware" => figures::ext_tlb_aware(matrix),
        "skew" => figures::skew(),
        "vm-switching" => figures::vm_switching(),
        _ => return None,
    })
}

const ALL_ARTIFACTS: &[&str] = &[
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11",
    "fig12", "capacity", "cores", "assoc", "predictor-sweep", "tlb-aware", "skew",
    "vm-switching",
];

fn print_help() {
    eprintln!(
        "usage: experiments [--quick] [--jobs N|auto] [--trace-cache] \
         [--trace-cache-dir DIR] [--checkpoint FILE [--resume]] [--json DIR] [ARTIFACT...]"
    );
    eprintln!("  --fingerprint          print one report digest per Figs. 8-12 cell instead");
    eprintln!("  --trace-cache-dir DIR  persist shared recordings to a POMTRC2 store");
    eprintln!("                         (implies --trace-cache; warm runs skip generation)");
    eprintln!("  --checkpoint FILE      journal each completed simulation to FILE");
    eprintln!("  --resume               preload the matrix from FILE before running");
    eprintln!("artifacts: {}", ALL_ARTIFACTS.join(" "));
}
