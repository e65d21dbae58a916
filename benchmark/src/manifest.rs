//! `BENCHMARK.json`, generated from the tables in the code so the two
//! cannot drift: `benchmark manifest > BENCHMARK.json` writes the file, and
//! a self-test holds the committed file equal to what that prints.

use crate::json::Json;
use crate::layers;
use crate::report::END_TO_END;
use crate::workloads::Workload;
use crate::RUN_SECONDS;

impl Workload {
    /// Why the workload exists: which layers it stresses, and which it
    /// bypasses (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CaptureMem => {
                "paper-default config (Turtle, at-end, async store): tracker, model and graph insert do the capture work; frame, WAL, parity and manifest are bypassed, so a store-format change must not move it"
            }
            Workload::CaptureDurable => {
                "the same streams with every durability plane on and sync flushes each 1000 records: render, frame, WAL, parity, commits and seal set capture throughput and the p99.9 flush stall"
            }
            Workload::Workflows => {
                "the three paper drivers (H5bench, DASSA, Top Reco) untracked vs tracked under their Table 3 selectors: connector, syscall wrapper, explicit APIs and the selector's filtered path"
            }
            Workload::Posthoc => {
                "read-only repetitions over a larger sealed durable directory with a crashed writer, captured in set-up: decode, parse, journal replay, merge, three query passes, rot + scrub + verify"
            }
        }
    }
}

pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::str(w.name())),
                            ("why", Json::str(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::metric_names()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj(vec![
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = serde_json::from_str(&text).expect("valid JSON");
        let generated = serde_json::from_str(&benchmark_json().pretty()).expect("valid JSON");
        assert_eq!(committed, generated);
    }

    #[test]
    fn whys_fit_the_contract() {
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200,
                "{}: {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
        }
    }
}
