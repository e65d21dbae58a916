//! The runs `golden_workflows.rs` freezes — the three paper workflows and
//! a four-rank create/write loop under four store configurations — and the
//! fingerprint recorded for each.

use super::{Scenario, files_digest, files_under, graph_digest, DIR, KEY, RANKS};
use prov_io::core::{merge_directory, ProvIoConfig, RdfFormat, SerializationPolicy};
use prov_io::hdf5::{Data, Datatype};
use prov_io::model::ClassSelector;
use prov_io::mpi::MpiWorld;
use prov_io::simrt::SimDuration;
use prov_io::workflows::{dassa, h5bench, topreco, Cluster, ProvMode, RunMetrics};

/// A finished run: the cluster it ran on, where its provenance went, and
/// what it reported.
pub struct Run {
    pub cluster: Cluster,
    pub dir: String,
    pub metrics: RunMetrics,
}

pub type Files = Vec<(String, Vec<u8>)>;

/// The run's store directory and the text the tests pin.
pub fn fingerprint(run: &Run) -> (Files, String) {
    let files = files_under(&run.cluster.fs, &run.dir);
    let (graph, report) = merge_directory(&run.cluster.fs, &run.dir);
    assert!(report.corrupt.is_empty() && report.quarantined.is_empty(), "{report}");
    let text = format!(
        "directory {} {}\ngraph {} {}\n{:?}\n",
        files.len(),
        files_digest(&files),
        graph.len(),
        graph_digest(&graph),
        run.metrics,
    );
    (files, text)
}

/// H5bench, write-overwrite-read on eight ranks, under Table 3's scenario 2.
pub fn h5bench() -> Run {
    let cluster = Cluster::new();
    let out = h5bench::run(
        &cluster,
        &h5bench::H5benchParams {
            ranks: 8,
            pattern: h5bench::IoPattern::WriteOverwriteRead,
            steps: 2,
            particles_per_rank: 1 << 12,
            blocks: 2,
            seed: 1,
            mode: ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario2()),
            ),
            ..h5bench::H5benchParams::default()
        },
    );
    Run {
        cluster,
        dir: out.prov_dir,
        metrics: out.metrics,
    }
}

/// DASSA on three nodes, under its attribute-lineage selector.
pub fn dassa() -> Run {
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
                ProvIoConfig::default().with_selector(ClassSelector::dassa_attribute_lineage()),
            ),
        },
    );
    Run {
        cluster,
        dir: out.prov_dir,
        metrics: out.metrics,
    }
}

/// Top Reco, eight epochs over six configurations.
pub fn topreco() -> Run {
    let cluster = Cluster::new();
    let out = topreco::run(
        &cluster,
        &topreco::TopRecoParams {
            epochs: 8,
            n_configs: 6,
            n_events: 5_000,
            epoch_compute: SimDuration::from_secs(10),
            seed: 4,
            mode: ProvMode::provio(ProvIoConfig::default().with_selector(ClassSelector::topreco())),
            run_id: 0,
        },
    );
    Run {
        cluster,
        dir: out.prov_dir,
        metrics: out.metrics,
    }
}

/// Four ranks, two phases: each rank creates one HDF5 file per phase and
/// writes 30 small datasets into it; then one `finish_all`.
pub fn create_write_loop(cfg: ProvIoConfig) -> Run {
    create_write_loop_on(Cluster::new(), cfg)
}

pub fn create_write_loop_on(cluster: Cluster, cfg: ProvIoConfig) -> Run {
    let cfg = cfg.shared();
    let world = MpiWorld::new(RANKS);
    for phase in 0..2 {
        let outcomes = world.superstep(|ctx| {
            let (_session, h5) =
                cluster.process(ctx.rank, "alice", "loop", ctx.clock().clone(), Some(&cfg));
            let file = h5
                .create_file(&format!("/r{}_p{phase}.h5", ctx.rank))
                .expect("a fresh path");
            for i in 0..30 {
                let values = Data::from_f64s(&[f64::from(ctx.rank), f64::from(i)]);
                let dset = h5
                    .write_dataset_full(file, &format!("d{i}"), Datatype::Float64, &[2], &values)
                    .expect("a fresh dataset");
                h5.close_dataset(dset).expect("just created");
            }
            h5.close_file(file).expect("just created");
        });
        assert!(outcomes.iter().all(|o| o.is_completed()));
    }
    let summaries = cluster.registry.finish_all();
    assert!(summaries.iter().all(|(_, s)| !s.degraded && s.store_bytes > 0));
    let (prov_bytes, prov_files) = cluster.prov_usage(DIR);
    Run {
        cluster,
        dir: DIR.to_string(),
        metrics: RunMetrics {
            completion: world.elapsed(),
            prov_bytes,
            prov_files,
            tracked_events: summaries.iter().map(|(_, s)| s.events).sum(),
        },
    }
}

/// Every plane on — framed N-Triples, a flush every 50 records, journal,
/// parity, early compaction, signed manifest — on the asynchronous store.
pub fn every_plane() -> ProvIoConfig {
    ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .with_policy(SerializationPolicy::EveryRecords(50))
        .with_checksums(true)
        .with_wal(true, 8)
        .with_parity(true, 2)
        .with_compact_every(2)
        .with_manifest(true)
        .with_manifest_key(KEY)
}

/// Unframed N-Triples, a flush every 50 records.
pub fn periodic_ntriples() -> ProvIoConfig {
    ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .with_policy(SerializationPolicy::EveryRecords(50))
}

pub const H5BENCH: &str = "\
directory 8 86c896b53ace347a9e9bb6b30a1a1a8fc183874e499deea75632c28966a91511\n\
graph 6110 df96daade450ef69d5abb12e5dfda5c51fa3adf56a6926b04007119f9294513a\n\
RunMetrics { completion: SimDuration(100382629348), prov_bytes: 257862, prov_files: 8, tracked_events: 1222 }\n\
";
pub const DASSA: &str = "\
directory 9 d08583f37d32d9baf3a59642d972b5b7f29368668e78dc1ce52aa1f4768dee2c\n\
graph 2160 d2101dacbf46db402b8e31a011c589c0a8252337d84dfff56f2ebe7a75275d55\n\
RunMetrics { completion: SimDuration(833626526), prov_bytes: 129720, prov_files: 9, tracked_events: 366 }\n\
";
pub const TOPRECO: &str = "\
directory 1 a54dbf0a4bd1da4bcebed3e0f7c19f36905630662007474a9e13a0edfa0c4863\n\
graph 76 f5ecb2d33d5af50f653f6cb63df13ebf78630b217a59f3ebe5dc9b62f9af0831\n\
RunMetrics { completion: SimDuration(84038865820), prov_bytes: 4257, prov_files: 1, tracked_events: 0 }\n\
";
pub const LOOP_DEFAULT: &str = "\
directory 4 f5e0cc29402c5e456a4ed4163b9be637ca0045e05e47f6dd72f516f71a2015d3\n\
graph 4424 47124f219b3444d8d6e47a85393ec7b4fd7aa7a12a668fddf8df142e19b8bfed\n\
RunMetrics { completion: SimDuration(266587992), prov_bytes: 210616, prov_files: 4, tracked_events: 488 }\n\
";
pub const LOOP_PERIODIC: &str = "\
directory 4 86829c455012c231cdebeecce956b4fcdd55a8d0543b25bba9ac341608c45fe0\n\
graph 4424 47124f219b3444d8d6e47a85393ec7b4fd7aa7a12a668fddf8df142e19b8bfed\n\
RunMetrics { completion: SimDuration(266587992), prov_bytes: 540760, prov_files: 4, tracked_events: 488 }\n\
";
pub const LOOP_EVERY_PLANE: &str = "\
directory 10 3210fc29634b392d62a81e371a85fb2c2eb47e15ea219a134b2cdcb494c65254\n\
graph 4424 47124f219b3444d8d6e47a85393ec7b4fd7aa7a12a668fddf8df142e19b8bfed\n\
RunMetrics { completion: SimDuration(266587992), prov_bytes: 1089680, prov_files: 10, tracked_events: 488 }\n\
";

/// Every run with its recorded fingerprint.
pub const SCENARIOS: [Scenario<Run, &str>; 7] = [
    ("h5bench", h5bench, H5BENCH),
    ("dassa", dassa, DASSA),
    ("topreco", topreco, TOPRECO),
    ("loop, default config", || create_write_loop(ProvIoConfig::default()), LOOP_DEFAULT),
    ("loop, periodic N-Triples", || create_write_loop(periodic_ntriples()), LOOP_PERIODIC),
    ("loop, every plane", || create_write_loop(every_plane()), LOOP_EVERY_PLANE),
    ("loop, every plane, synchronous", || create_write_loop(every_plane().synchronous()), LOOP_EVERY_PLANE),
];
