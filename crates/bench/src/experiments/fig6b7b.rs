//! Figures 6(b) and 7(b): DASSA tracking performance and storage vs.
//! input-file count, for File / Dataset / Attribute lineage.
//!
//! Paper shape: overhead ranges ~1.8%–11%, highest for attribute lineage
//! (attribute access forces extra file/dataset opens); storage grows
//! linearly from tens to hundreds of MB and is similar across the three
//! granularities because I/O API records dominate.

use crate::report::{human_bytes, Report};
use crate::scale::Scale;
use provio::ProvIoConfig;
use provio_model::ClassSelector;
use provio_workflows::dassa::{run as dassa, DassaParams};
use provio_workflows::{Cluster, ProvMode};

/// A Table 3 scenario: its label and the selector preset.
type Scenario = (&'static str, fn() -> ClassSelector);

const SCENARIOS: [Scenario; 3] = [
    ("file", ClassSelector::dassa_file_lineage),
    ("dataset", ClassSelector::dassa_dataset_lineage),
    ("attribute", ClassSelector::dassa_attribute_lineage),
];

pub fn run(scale: Scale) -> Vec<Report> {
    let mut time = Report::new(
        "fig6b",
        format!(
            "DASSA tracking performance vs input files, 32 nodes [{}]",
            scale.name()
        ),
        &["files", "baseline_s", "lineage", "provio_s", "normalized", "overhead_%", "events"],
    );
    let mut storage = Report::new(
        "fig7b",
        format!("DASSA provenance size vs input files [{}]", scale.name()),
        &["files", "lineage", "prov_bytes", "prov_human", "prov_files"],
    );

    let mut per_granularity_overheads: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut attr_sizes = Vec::new();
    for &n_files in &scale.dassa_files() {
        let params = |mode: ProvMode| DassaParams {
            n_files,
            nodes: 32,
            file_mib: 675,
            channels: 96,
            datasets: 4,
            seed: 11,
            mode,
        };
        let base = dassa(&Cluster::new(), &params(ProvMode::Off));
        let mut overheads = Vec::new();
        for (name, preset) in SCENARIOS {
            let out = dassa(
                &Cluster::new(),
                &params(ProvMode::provio(
                    ProvIoConfig::default().with_selector(preset()),
                )),
            );
            let overhead = out.metrics.overhead_vs(&base.metrics);
            overheads.push(overhead);
            time.row(vec![
                n_files.into(),
                base.metrics.completion.as_secs_f64().into(),
                name.into(),
                out.metrics.completion.as_secs_f64().into(),
                out.metrics.normalized_vs(&base.metrics).into(),
                (overhead * 100.0).into(),
                out.metrics.tracked_events.into(),
            ]);
            storage.row(vec![
                n_files.into(),
                name.into(),
                out.metrics.prov_bytes.into(),
                human_bytes(out.metrics.prov_bytes).into(),
                out.metrics.prov_files.into(),
            ]);
            if name == "attribute" {
                attr_sizes.push(out.metrics.prov_bytes);
            }
        }
        per_granularity_overheads.push((n_files, overheads));
    }

    let ordered = per_granularity_overheads
        .iter()
        .all(|(_, o)| o[0] < o[1] && o[1] < o[2]);
    time.note(format!(
        "file < dataset < attribute overhead at every point: {ordered} (paper: attribute highest, ~11% max)"
    ));
    let max_attr = per_granularity_overheads
        .iter()
        .map(|(_, o)| o[2])
        .fold(0.0, f64::max);
    time.note(format!(
        "max attribute-lineage overhead {:.2}% (paper: ~11%)",
        max_attr * 100.0
    ));
    storage.note(format!(
        "attribute-lineage size doubles with file count: {} (paper: linear, 40→800 MB)",
        attr_sizes.windows(2).all(|w| {
            let r = w[1] as f64 / w[0] as f64;
            (1.6..=2.4).contains(&r)
        })
    ));

    vec![time, storage]
}
