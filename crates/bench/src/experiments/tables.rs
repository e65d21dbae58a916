//! Tables 3, 4 and 5.
//!
//! * Table 3 — the information tracked per workflow need (rendered from
//!   the actual selector presets).
//! * Table 4 — basic characteristics of Komadu / ProvLake / PROV-IO.
//! * Table 5 — the example SPARQL queries, *executed* against provenance
//!   captured from real (small) runs of all three workflows, reporting
//!   each query's statement count and result size.

use crate::report::Report;
use crate::scale::Scale;
use provio::{merge_directory, ProvIoConfig, ProvQueryEngine};
use provio_model::{ActivityClass, AgentClass, ClassSelector, EntityClass, ExtensibleClass, TrackItem};
use provio_simrt::SimDuration;
use provio_sparql::Query;
use provio_workflows::{dassa, h5bench, topreco, Cluster, ProvMode};

fn tab3() -> Report {
    let mut t = Report::new(
        "tab3",
        "Provenance needs and information tracked (from the selector presets)",
        &["workflow", "need", "tracked"],
    );
    let describe = |sel: &ClassSelector| -> String {
        let mut parts: Vec<&str> = Vec::new();
        for (item, name) in [
            (TrackItem::Agent(AgentClass::User), "user"),
            (TrackItem::Agent(AgentClass::Thread), "thread"),
            (TrackItem::Agent(AgentClass::Program), "program"),
            (TrackItem::Activity(ActivityClass::Read), "I/O API"),
            (TrackItem::Entity(EntityClass::File), "file"),
            (TrackItem::Entity(EntityClass::Dataset), "dataset"),
            (TrackItem::Entity(EntityClass::Attribute), "attr"),
            (TrackItem::Duration, "duration"),
            (TrackItem::Extensible(ExtensibleClass::Configuration), "configuration"),
            (TrackItem::Extensible(ExtensibleClass::Metrics), "metrics"),
        ] {
            if sel.is_enabled(item) {
                parts.push(name);
            }
        }
        parts.join(", ")
    };
    t.row(vec![
        "Top Reco (Python)".into(),
        "metadata version control & mapping".into(),
        describe(&ClassSelector::topreco()).into(),
    ]);
    for (need, sel) in [
        ("file lineage", ClassSelector::dassa_file_lineage()),
        ("dataset lineage", ClassSelector::dassa_dataset_lineage()),
        ("attribute lineage", ClassSelector::dassa_attribute_lineage()),
    ] {
        t.row(vec!["DASSA (C++)".into(), need.into(), describe(&sel).into()]);
    }
    for (need, sel) in [
        ("scenario-1", ClassSelector::h5bench_scenario1()),
        ("scenario-2", ClassSelector::h5bench_scenario2()),
        ("scenario-3", ClassSelector::h5bench_scenario3()),
    ] {
        t.row(vec!["H5bench (C)".into(), need.into(), describe(&sel).into()]);
    }
    t
}

fn tab4() -> Report {
    let mut t = Report::new(
        "tab4",
        "Basic characteristics of three frameworks",
        &["framework", "base_model", "languages", "transparency"],
    );
    for f in provio_provlake::framework_characteristics() {
        t.row(vec![
            f.name.into(),
            f.base_model.into(),
            f.languages.join(", ").into(),
            f.transparency.as_str().into(),
        ]);
    }
    t.note("PROV-IO's I/O-library integration is transparent; explicit APIs cover extensible needs (Hybrid)");
    t
}

struct QueryCase {
    workflow: &'static str,
    need: &'static str,
    sparql: String,
}

fn tab5() -> Report {
    let mut t = Report::new(
        "tab5",
        "Example queries, executed against captured provenance",
        &["workflow", "need", "statements", "results", "sample"],
    );

    // --- DASSA: capture + backward lineage queries -------------------------
    let dassa_cluster = Cluster::new();
    let dassa_out = dassa::run(
        &dassa_cluster,
        &dassa::DassaParams {
            n_files: 4,
            nodes: 2,
            file_mib: 32,
            channels: 8,
            datasets: 2,
            seed: 11,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::dassa_file_lineage()),
            ),
        },
    );
    let (dassa_graph, _) = merge_directory(&dassa_cluster.fs, &dassa_out.prov_dir);
    let mut dassa_engine = ProvQueryEngine::new(dassa_graph);
    dassa_engine.derive_lineage();
    let product = dassa_engine
        .entity_by_label("/dassa/products/decimate_0000.h5")
        .expect("tracked product");
    let program = dassa_engine.programs_of(&product);
    let program_iri = program
        .first()
        .map(|g| g.to_iri().to_string())
        .unwrap_or_default();

    // The paper's three-statement backward step (Table 5 rows 1–3).
    let dassa_q = QueryCase {
        workflow: "DASSA",
        need: "file/dataset/attribute lineage (one backward step)",
        sparql: format!(
            "SELECT ?data_object ?IO_API WHERE {{ \
               <{}> prov:wasAttributedTo ?program . \
               ?data_object (provio:wasReadBy|provio:wasOpenedBy) ?IO_API . \
               ?IO_API prov:wasAssociatedWith {} . }}",
            product.to_iri().as_str(),
            program_iri,
        ),
    };

    // --- H5bench: capture + the three scenario queries ---------------------
    let h5_cluster = Cluster::new();
    let _ = h5bench::run(
        &h5_cluster,
        &h5bench::H5benchParams {
            ranks: 4,
            pattern: h5bench::IoPattern::WriteRead,
            steps: 2,
            particles_per_rank: 1 << 12,
            blocks: 2,
            compute_per_step: SimDuration::from_secs(25),
            seed: 5,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario2()),
            ),
        },
    );
    let (h5_graph, _) = merge_directory(&h5_cluster.fs, "/h5bench/provio");
    let h5_engine = ProvQueryEngine::new(h5_graph);

    // Scenario 3 needs agent tracking — separate run.
    let h5s3_cluster = Cluster::new();
    let _ = h5bench::run(
        &h5s3_cluster,
        &h5bench::H5benchParams {
            ranks: 4,
            pattern: h5bench::IoPattern::WriteRead,
            steps: 2,
            particles_per_rank: 1 << 12,
            blocks: 2,
            compute_per_step: SimDuration::from_secs(25),
            seed: 5,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario3()),
            ),
        },
    );
    let (h5s3_graph, _) = merge_directory(&h5s3_cluster.fs, "/h5bench/provio");
    let h5s3_engine = ProvQueryEngine::new(h5s3_graph);

    let h5_q1 = QueryCase {
        workflow: "H5bench",
        need: "scenario-1 (I/O API count)",
        sparql: "SELECT ?IO_API WHERE { ?IO_API prov:wasMemberOf prov:Activity . }".to_string(),
    };
    let h5_q2 = QueryCase {
        workflow: "H5bench",
        need: "scenario-2 (API + duration)",
        sparql: "SELECT ?IO_API ?duration WHERE { \
                   ?IO_API prov:wasMemberOf prov:Activity ; provio:elapsed ?duration . }"
            .to_string(),
    };
    let h5_q3 = QueryCase {
        workflow: "H5bench",
        need: "scenario-3 (who touched the file)",
        sparql: "SELECT ?program ?thread ?user WHERE { \
                   ?file prov:wasAttributedTo ?program . \
                   ?program prov:actedOnBehalfOf ?thread . \
                   ?thread prov:actedOnBehalfOf ?user . }"
            .to_string(),
    };

    // --- Top Reco: capture + version/accuracy mapping ----------------------
    let tr_cluster = Cluster::new();
    let tr_out = topreco::run(
        &tr_cluster,
        &topreco::TopRecoParams {
            epochs: 6,
            n_configs: 10,
            n_events: 10_000,
            epoch_compute: SimDuration::from_secs(10),
            seed: 3,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::topreco()),
            ),
            run_id: 0,
        },
    );
    let (tr_graph, _) = merge_directory(&tr_cluster.fs, &tr_out.prov_dir);
    let tr_engine = ProvQueryEngine::new(tr_graph);
    let tr_q = QueryCase {
        workflow: "Top Reco",
        need: "metadata version control & mapping",
        sparql: "SELECT ?configuration ?version ?accuracy WHERE { \
                   ?configuration provio:version ?version ; provio:hasAccuracy ?accuracy . }"
            .to_string(),
    };

    for (case, engine) in [
        (&dassa_q, &dassa_engine),
        (&h5_q1, &h5_engine),
        (&h5_q2, &h5_engine),
        (&h5_q3, &h5s3_engine),
        (&tr_q, &tr_engine),
    ] {
        let parsed = Query::parse(&case.sparql).expect("valid query");
        let sols = parsed.execute(engine.graph());
        let sample = sols
            .rows()
            .next()
            .map(|r| {
                r.iter()
                    .map(|(k, v)| format!("?{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_else(|| "(none)".to_string());
        t.row(vec![
            case.workflow.into(),
            case.need.into(),
            parsed.statement_count.into(),
            sols.len().into(),
            sample.chars().take(90).collect::<String>().into(),
        ]);
        t.attach(
            format!("tab5_{}_{}.rq", case.workflow.replace(' ', "_"), parsed.statement_count),
            case.sparql.clone(),
        );
    }
    t.note("statement counts match the paper's Table 5: 3 per DASSA backward step; 1/2/3 for H5bench scenarios; 2 for Top Reco");
    t
}

pub fn run(_scale: Scale) -> Vec<Report> {
    vec![tab3(), tab4(), tab5()]
}
