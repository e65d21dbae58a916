//! Metric definitions, the printed tables and the JSON results.

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen before a change is rejected.
/// `BENCHMARK.json` repeats this table; a self-test holds the two equal.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A bound is three times the widest spread the metric showed on any
/// workload over two sets of ten runs with ten seeds on the 2-core sizing
/// host, rounded up to a multiple of 5% and capped at the 25% the benchmark
/// contract allows (README, "The A/A run and the bounds"; the spreads are in
/// RESULTS.md). After host-speed rescaling every timing's widest spread is
/// 7.8–17.6% there, so all of them sit at the cap; sizes and counts are near
/// exact. `passed_ops_pct` is 100 − `failed_ops_pct` (the contract wants
/// metrics that are never 0); its bound is below the weight of the
/// smallest check, so one failed operation is a regression.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("capture_events_per_s", "1/s", Better::Higher, 0.25),
    e2e("capture_event_p50_ns", "ns", Better::Lower, 0.25),
    e2e("capture_event_tail_us", "us", Better::Lower, 0.25),
    e2e("finish_s", "s", Better::Lower, 0.25),
    e2e("track_overhead_ns_per_event", "ns", Better::Lower, 0.25),
    e2e("prov_bytes_per_event", "B", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("merge_triples_per_s", "1/s", Better::Higher, 0.25),
    e2e("query_mix_s", "s", Better::Lower, 0.25),
    e2e("query_ms_p90", "ms", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("passed_ops_pct", "%", Better::Higher, 0.000001),
];

/// A measured metric: its summary over the run's samples.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Measured {
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Self {
        Measured {
            name: name.into(),
            unit,
            summary,
        }
    }

    /// A metric with one sample (a count, a ratio, a pooled percentile).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Measured::new(
            name,
            unit,
            Summary {
                n: 1,
                median: value,
                q1: value,
                q3: value,
            },
        )
    }

    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

/// `{"name": {"value": v, "unit": u}, …}` — the `metrics` object of the
/// result line.
pub fn metrics_json(metrics: &[Measured]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::num(m.value())),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The same metrics with quartiles and sample counts, for the result files.
pub fn metrics_detail_json(metrics: &[Measured]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("unit", Json::str(m.unit)),
                        ("median", Json::num(m.summary.median)),
                        ("q1", Json::num(m.summary.q1)),
                        ("q3", Json::num(m.summary.q3)),
                        ("n", Json::num(m.summary.n as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

fn sig(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else if a >= 0.1 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// Print metrics by name with unit, median, quartiles and sample count.
pub fn print_table(title: &str, metrics: &[Measured]) {
    println!("{title}");
    println!(
        "  {:<44} {:>8} {:>14} {:>14} {:>14} {:>6}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in metrics {
        println!(
            "  {:<44} {:>8} {:>14} {:>14} {:>14} {:>6}",
            m.name,
            m.unit,
            sig(m.summary.median),
            sig(m.summary.q1),
            sig(m.summary.q3),
            m.summary.n
        );
    }
}

/// The one-line result object the contract asks for.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .line()
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when it is better).
pub fn relative_gap(better: Better, base: f64, candidate: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_follows_direction() {
        assert!((relative_gap(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((relative_gap(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(relative_gap(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Measured::single("latency_ms", "ms", 1.2034)];
        let v = serde_json::from_str(&result_line(0, 0, &m)).unwrap();
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 1);
        assert_eq!(v["failed"], 0);
        assert_eq!(v["metrics"]["latency_ms"]["value"], 1.2034);
        assert_eq!(v["metrics"]["latency_ms"]["unit"], "ms");
    }
}
