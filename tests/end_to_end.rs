//! End-to-end integration: capture → store → merge → query for each of the
//! three evaluation workflows, spanning every workspace crate.

use prov_io::prelude::*;
use prov_io::workflows::{dassa, h5bench, topreco};

#[test]
fn topreco_capture_to_query() {
    let cluster = Cluster::new();
    let out = topreco::run(
        &cluster,
        &topreco::TopRecoParams {
            epochs: 8,
            n_configs: 6,
            n_events: 5_000,
            epoch_compute: SimDuration::from_secs(10),
            seed: 4,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::topreco()),
            ),
            run_id: 0,
        },
    );
    assert!(out.metrics.prov_bytes > 0);

    let (graph, report) = merge_directory(&cluster.fs, &out.prov_dir);
    assert_eq!(report.files, 1);
    assert!(report.corrupt.is_empty());

    let engine = ProvQueryEngine::new(graph);
    // The Table 5 Top Reco query: version ↔ accuracy mapping.
    let sols = engine
        .sparql(
            "SELECT ?configuration ?version ?accuracy WHERE { \
               ?configuration provio:version ?version ; provio:hasAccuracy ?accuracy . }",
        )
        .unwrap();
    assert_eq!(sols.len(), 6, "one row per tracked configuration");
    // The recorded accuracy equals the workflow's final accuracy.
    let acc = sols.row(0).get("accuracy").unwrap()
        .as_literal()
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((acc - out.final_accuracy).abs() < 1e-9);
}

#[test]
fn dassa_capture_to_lineage_and_viz() {
    let cluster = Cluster::new();
    let out = dassa::run(
        &cluster,
        &dassa::DassaParams {
            n_files: 6,
            nodes: 3,
            file_mib: 16,
            channels: 6,
            datasets: 2,
            seed: 2,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::dassa_dataset_lineage()),
            ),
        },
    );
    // 3 phases × 3 nodes of tracked processes.
    assert_eq!(out.metrics.prov_files, 9);

    let (graph, report) = merge_directory(&cluster.fs, &out.prov_dir);
    assert_eq!(report.files, 9);
    let mut engine = ProvQueryEngine::new(graph);
    let derived = engine.derive_lineage();

    // Every decimate product has a lineage that reaches a raw input.
    for i in 0..6 {
        let label = format!("/dassa/products/decimate_{i:04}.h5");
        let product = engine.entity_by_label(&label).unwrap_or_else(|| {
            panic!("{label} missing from provenance");
        });
        let lineage = engine.backward_lineage(&product);
        assert!(
            lineage
                .iter()
                .filter_map(|g| engine.label_of(g))
                .any(|l| l.ends_with(".tdms")),
            "{label} lineage does not reach raw input"
        );
    }

    // The visualization renders and highlights.
    let product = engine
        .entity_by_label("/dassa/products/decimate_0000.h5")
        .unwrap();
    let lineage = engine.backward_lineage(&product);
    let dot = prov_io::core::engine::viz::to_dot_lineage(engine.graph(), &product, &lineage);
    assert!(dot.contains("#1f5fd0"), "lineage highlighted in blue");

    // The lineage answers, frozen: the derived edge count, the backward
    // walk from the product, the forward walk from its first raw input,
    // and the rendered neighborhood.
    let raw = lineage
        .iter()
        .find(|g| engine.label_of(g).is_some_and(|l| l.ends_with(".tdms")))
        .unwrap();
    let mut h = sha2::Sha256::new();
    h.update(&(derived as u64).to_le_bytes());
    for walk in [lineage.clone(), engine.forward_lineage(raw)] {
        h.update(&(walk.len() as u64).to_le_bytes());
        for g in &walk {
            h.update(g.as_str().as_bytes());
            h.update(b"\n");
        }
    }
    h.update(dot.as_bytes());
    assert_eq!(
        sha2::hex(&h.finalize()),
        "89b49f63d37d3f0697aab66cb918145ed61ea1da1e22f71488e4815ddc8562b0"
    );
}

#[test]
fn h5bench_capture_to_stats() {
    let cluster = Cluster::new();
    let out = h5bench::run(
        &cluster,
        &h5bench::H5benchParams {
            ranks: 8,
            pattern: h5bench::IoPattern::WriteOverwriteRead,
            steps: 2,
            particles_per_rank: 1 << 12,
            blocks: 2,
            compute_per_step: SimDuration::from_secs(25),
            seed: 1,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario2()),
            ),
        },
    );
    assert_eq!(out.metrics.prov_files, 8, "one sub-graph per rank");

    let (graph, _) = merge_directory(&cluster.fs, &out.prov_dir);
    let stats = IoStats::from_graph(&graph, 1_000_000_000);
    // Two write passes + one read pass per step → writes outnumber reads.
    let w = &stats.by_class["Write"];
    let r = &stats.by_class["Read"];
    assert!(w.count > r.count, "writes {} vs reads {}", w.count, r.count);
    // Scenario 2 recorded durations.
    assert!(w.total_duration_ns > 0);
    assert!(stats.bottleneck().is_some());
    // Total ops match the tracker's event count.
    assert_eq!(stats.total_ops(), out.metrics.tracked_events);

    // The graph readers' outputs, frozen: the statistics (table, timeline
    // and per-API counts), the whole graph as DOT, the doctor's findings,
    // and what reduction keeps of the graph.
    let mut h = sha2::Sha256::new();
    h.update(stats.to_table().as_bytes());
    h.update(format!("{stats:?}").as_bytes());
    h.update(to_dot(&graph, &Default::default()).as_bytes());
    let health = doctor(&graph);
    h.update(format!("{health}\n{health:?}").as_bytes());
    let mut engine = ProvQueryEngine::new(graph);
    let (before, after) = engine.reduce_activities();
    assert!(
        after < before,
        "equivalent activities collapse: {before} -> {after}"
    );
    h.update(format!("{before} {after}\n").as_bytes());
    for line in prov_io::rdf::ntriples::sorted_graph_lines(engine.graph()) {
        h.update(line.as_bytes());
        h.update(b"\n");
    }
    assert_eq!(
        sha2::hex(&h.finalize()),
        "5036fc64b930a6610c7ec5a35f28c476ce2be3be9315c23924e0f71d3e9b84bf"
    );
}

#[test]
fn baseline_and_tracked_produce_identical_science() {
    // Provenance must never change workflow results (transparency).
    let base = topreco::run(
        &Cluster::new(),
        &topreco::TopRecoParams {
            epochs: 6,
            n_configs: 4,
            n_events: 2_000,
            epoch_compute: SimDuration::from_secs(5),
            seed: 9,
            mode: ProvMode::Off,
            run_id: 0,
        },
    );
    let tracked = topreco::run(
        &Cluster::new(),
        &topreco::TopRecoParams {
            epochs: 6,
            n_configs: 4,
            n_events: 2_000,
            epoch_compute: SimDuration::from_secs(5),
            seed: 9,
            mode: ProvMode::provio(ProvIoConfig::default()),
            run_id: 0,
        },
    );
    assert_eq!(base.accuracy_curve, tracked.accuracy_curve);
    assert_eq!(base.final_accuracy, tracked.final_accuracy);
}

#[test]
fn multi_run_provenance_merges_without_duplication() {
    // The paper's future-work scenario (§8): integrate provenance across
    // executions. Content-addressed GUIDs make the merge safe.
    let cluster = Cluster::new();
    for run_id in [1u32, 2] {
        topreco::run(
            &cluster,
            &topreco::TopRecoParams {
                epochs: 4,
                n_configs: 4,
                n_events: 2_000,
                epoch_compute: SimDuration::from_secs(5),
                seed: 5, // same seed → same configurations
                mode: ProvMode::provio(
                    ProvIoConfig::default().with_selector(ClassSelector::topreco()),
                ),
                run_id,
            },
        );
    }
    let mut graph = prov_io::rdf::Graph::new();
    for run_id in [1u32, 2] {
        let (g, _) = merge_directory(&cluster.fs, &format!("/topreco/run{run_id}/provio"));
        graph.merge(&g);
    }
    let engine = ProvQueryEngine::new(graph);
    // Identical configurations from the two runs merged into single nodes.
    let sols = engine
        .sparql("SELECT DISTINCT ?c WHERE { ?c a provio:Configuration . }")
        .unwrap();
    assert_eq!(sols.len(), 4, "same configs across runs share GUIDs");
    // But per-run records stayed distinct: one Metrics node per epoch per
    // run (their GUIDs embed the minting process).
    let metrics = engine
        .sparql("SELECT DISTINCT ?m WHERE { ?m a provio:Metrics . }")
        .unwrap();
    assert_eq!(metrics.len(), 2 * 4);
}
