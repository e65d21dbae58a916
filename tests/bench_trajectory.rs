//! `BENCH_pipeline.json`, the benchmark's trajectory: one JSON object per
//! line, one line per (commit, workload, seed), appended and never edited
//! (CI fails when a line of the parent commit's file is changed or
//! removed). A row is one `benchmark run`'s
//! `benchmark/out/results-<workload>.json` cut down to the commit it
//! measured, its workload, seed and seconds, the host speed factor, and the
//! median, q1, q3 and n of every end-to-end metric `BENCHMARK.json`
//! declares.

use serde_json::Value;
use std::collections::{BTreeMap, HashSet};

fn object(v: &Value) -> &BTreeMap<String, Value> {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    v.as_f64()
        .unwrap_or_else(|| panic!("expected a number, got {v:?}"))
}

fn read(file: &str) -> String {
    std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR"))).expect(file)
}

/// The `name` of every entry of `BENCHMARK.json`'s list `list`.
fn declared(manifest: &Value, list: &str) -> HashSet<String> {
    let Value::Array(entries) = &manifest[list] else {
        panic!("BENCHMARK.json has no list {list}");
    };
    entries
        .iter()
        .map(|e| string(&e["name"]).to_string())
        .collect()
}

#[test]
fn every_trajectory_row_is_whole_and_keyed_once() {
    let manifest = serde_json::from_str(&read("BENCHMARK.json")).expect("BENCHMARK.json");
    let (workloads, metrics) = (
        declared(&manifest, "workloads"),
        declared(&manifest, "end_to_end"),
    );
    let text = read("BENCH_pipeline.json");
    let mut keys = HashSet::new();
    for (at, line) in text.lines().enumerate() {
        let what = format!("BENCH_pipeline.json line {}", at + 1);
        let row = serde_json::from_str(line).unwrap_or_else(|e| panic!("{what}: {e}"));
        let fields: Vec<&str> = object(&row).keys().map(String::as_str).collect();
        assert_eq!(
            fields,
            [
                "commit",
                "host_speed_factor",
                "metrics",
                "seconds",
                "seed",
                "workload"
            ],
            "{what}"
        );
        let commit = string(&row["commit"]);
        let hex = |c: char| c.is_ascii_digit() || ('a'..='f').contains(&c);
        assert!(
            commit.len() == 40 && commit.chars().all(hex),
            "{what}: commit {commit:?}"
        );
        let workload = string(&row["workload"]);
        assert!(
            workloads.contains(workload),
            "{what}: workload {workload:?}"
        );
        let seed = number(&row["seed"]);
        assert!(seed >= 0.0 && seed.fract() == 0.0, "{what}: seed {seed}");
        assert!(
            number(&row["seconds"]) > 0.0 && number(&row["host_speed_factor"]) > 0.0,
            "{what}"
        );
        let row_metrics = object(&row["metrics"]);
        let names: HashSet<String> = row_metrics.keys().cloned().collect();
        assert_eq!(names, metrics, "{what}: every end-to-end metric, no other");
        for (name, m) in row_metrics {
            let fields: Vec<&str> = object(m).keys().map(String::as_str).collect();
            assert_eq!(fields, ["median", "n", "q1", "q3"], "{what}: {name}");
            let (q1, median, q3, n) = (
                number(&m["q1"]),
                number(&m["median"]),
                number(&m["q3"]),
                number(&m["n"]),
            );
            assert!(
                q1 <= median && median <= q3,
                "{what}: {name} quartiles {q1} {median} {q3}"
            );
            assert!(n >= 1.0 && n.fract() == 0.0, "{what}: {name} n {n}");
        }
        assert!(
            keys.insert((commit.to_string(), workload.to_string(), seed as u64)),
            "{what}: key repeats"
        );
    }
    assert!(!keys.is_empty(), "BENCH_pipeline.json holds no row");
    assert!(
        text.ends_with('\n'),
        "the last row ends its line, so the next appends a line"
    );
}
