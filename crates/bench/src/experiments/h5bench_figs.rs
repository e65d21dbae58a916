//! Figures 6(c,d,e) and 7(c,d,e): H5bench tracking performance and storage
//! vs. MPI ranks, for three I/O patterns × three scenarios.
//!
//! Paper shape: overhead 0.5%–4% even under heavy I/O; the
//! write+append+read pattern has the lowest relative overhead (its per-op
//! compute is higher); scenario 2 (API + duration) stores the most, and
//! tracking the duration adds little time over scenario 1; storage scales
//! linearly with rank count, topping out near 168 MB.

use crate::report::{human_bytes, Report};
use crate::scale::Scale;
use provio::ProvIoConfig;
use provio_model::ClassSelector;
use provio_simrt::SimDuration;
use provio_workflows::h5bench::{run as h5bench, H5benchParams, IoPattern};
use provio_workflows::{Cluster, ProvMode};

/// A Table 3 scenario: its label and the selector preset.
type Scenario = (&'static str, fn() -> ClassSelector);

const SCENARIOS: [Scenario; 3] = [
    ("scenario-1", ClassSelector::h5bench_scenario1),
    ("scenario-2", ClassSelector::h5bench_scenario2),
    ("scenario-3", ClassSelector::h5bench_scenario3),
];

fn fig_ids(pattern: IoPattern) -> (&'static str, &'static str) {
    match pattern {
        IoPattern::WriteRead => ("fig6c", "fig7c"),
        IoPattern::WriteOverwriteRead => ("fig6d", "fig7d"),
        IoPattern::WriteAppendRead => ("fig6e", "fig7e"),
    }
}

pub fn run_pattern(scale: Scale, pattern: IoPattern) -> Vec<Report> {
    let (time_id, storage_id) = fig_ids(pattern);
    let mut time = Report::new(
        time_id,
        format!("H5bench {} tracking performance vs ranks [{}]", pattern.name(), scale.name()),
        &["ranks", "baseline_s", "scenario", "provio_s", "normalized", "overhead_%", "events"],
    );
    let mut storage = Report::new(
        storage_id,
        format!("H5bench {} provenance size vs ranks [{}]", pattern.name(), scale.name()),
        &["ranks", "scenario", "prov_bytes", "prov_human", "prov_files"],
    );

    let ranks = if pattern == IoPattern::WriteAppendRead {
        scale.h5bench_append_ranks()
    } else {
        scale.h5bench_ranks()
    };

    let mut s1_vs_s2: Vec<(f64, f64)> = Vec::new();
    let mut s2_sizes: Vec<u64> = Vec::new();
    let mut max_oh = 0.0f64;
    for &r in &ranks {
        let params = |mode: ProvMode| H5benchParams {
            ranks: r,
            pattern,
            steps: 3,
            particles_per_rank: 1 << 17,
            blocks: 4,
            compute_per_step: SimDuration::from_secs(25),
            seed: 5,
            mode,
        };
        let base = h5bench(&Cluster::new(), &params(ProvMode::Off));
        let mut ohs = Vec::new();
        for (name, preset) in SCENARIOS {
            let out = h5bench(
                &Cluster::new(),
                &params(ProvMode::provio(
                    ProvIoConfig::default().with_selector(preset()),
                )),
            );
            let overhead = out.metrics.overhead_vs(&base.metrics);
            max_oh = max_oh.max(overhead);
            ohs.push(overhead);
            time.row(vec![
                r.into(),
                base.metrics.completion.as_secs_f64().into(),
                name.into(),
                out.metrics.completion.as_secs_f64().into(),
                out.metrics.normalized_vs(&base.metrics).into(),
                (overhead * 100.0).into(),
                out.metrics.tracked_events.into(),
            ]);
            storage.row(vec![
                r.into(),
                name.into(),
                out.metrics.prov_bytes.into(),
                human_bytes(out.metrics.prov_bytes).into(),
                out.metrics.prov_files.into(),
            ]);
            if name == "scenario-2" {
                s2_sizes.push(out.metrics.prov_bytes);
            }
        }
        s1_vs_s2.push((ohs[0], ohs[1]));
    }

    time.note(format!(
        "max overhead {:.2}% (paper: 0.5%–4% across patterns)",
        max_oh * 100.0
    ));
    let piggyback = s1_vs_s2
        .iter()
        .all(|(s1, s2)| (s2 - s1).abs() < 0.01 + s1 * 0.5);
    time.note(format!(
        "duration tracking (s2) adds little over s1: {piggyback} (paper: timing piggybacks on API tracking)"
    ));
    storage.note(format!(
        "scenario-2 size grows ~linearly with ranks: {} (paper: linear, up to 168 MB)",
        s2_sizes.windows(2).all(|w| w[1] > w[0])
    ));

    vec![time, storage]
}
