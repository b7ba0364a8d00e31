//! `BENCHMARK.json` and the binary must agree on every workload and metric
//! name and unit, or the runs print metrics nobody gates.

use std::path::Path;

use pomtlb_perfbench::{Args, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    let Value::Array(items) = list else {
        panic!("expected an array")
    };
    items
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().unwrap_or("").to_string(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let spec = benchmark_json();
    assert_eq!(names_and_units(&spec["end_to_end"]), owned(END_TO_END));
    let per_layer: Vec<(String, String)> = names_and_units(&spec["per_layer"]);
    assert_eq!(per_layer, owned(PER_LAYER));
}

#[test]
fn workloads_match_benchmark_json() {
    let spec = benchmark_json();
    let Value::Array(items) = &spec["workloads"] else {
        panic!("workloads array")
    };
    let names: Vec<&str> = items
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn command_line_is_parsed_strictly() {
    let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let parsed = args("--workload sim_churn --seed 3 --seconds 10 --trace 1").expect("valid");
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 10, true));
    assert!(args("--workload nope --seed 3").is_err());
    assert!(args("--workload serve_mix --seed x").is_err());
    assert!(args("--workload serve_mix --seed").is_err());
}
