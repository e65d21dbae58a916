//! Write-ahead journal, end to end: a rank whose store commits are all
//! dropped by a failing storage target crashes mid-run, and merge-time
//! journal replay recovers everything it recorded — with the journal off,
//! the same run loses all of it.
//!
//! Run with `cargo run --release --example wal_replay_demo`.

use prov_io::hpcfs::FsError;
use prov_io::prelude::*;

/// One 4-rank run: rank 2 panics in the `reduce` phase, and every store
/// commit of its provenance file is dropped (the journal generations,
/// living beside the store, stay writable). Returns the merged graph size
/// and the run report.
fn run(wal: bool) -> (usize, RunReport) {
    let cluster = Cluster::new();
    let plan = FaultPlan::new(42);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("prov_p102.ttl.tmp"));
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("prov_p102.ttl.d"));
    cluster.fs.install_faults(plan);

    let cfg = ProvIoConfig::default()
        .with_policy(SerializationPolicy::EveryRecords(1))
        .synchronous()
        .with_retry(RetryPolicy {
            max_attempts: 1,
            backoff_ns: 0,
            ..RetryPolicy::default()
        })
        .with_wal(wal, 8)
        .with_manifest(true)
        .with_manifest_key("wal-demo-key")
        .shared();

    let world = MpiWorld::new(4);
    let mut report = RunReport::new(4);
    for phase in ["ingest", "transform", "reduce"] {
        let outcomes = world.superstep_named(phase, |ctx| {
            if ctx.rank == 2 && phase == "reduce" {
                panic!("ESIMCRASH: node 2 lost power");
            }
            let (_s, h5) = cluster.process(
                100 + ctx.rank,
                "alice",
                "demo",
                ctx.clock().clone(),
                Some(&cfg),
            );
            let f = h5
                .create_file(&format!("/r{}_{phase}.h5", ctx.rank))
                .unwrap();
            h5.close_file(f).unwrap();
        });
        report.record_outcomes(&outcomes);
    }
    // The crashed rank's tracker dies without a flush.
    if let Some(t) = cluster.registry.unregister(102) {
        std::mem::forget(t);
    }
    cluster.registry.finish_all();

    let (graph, mrep) = merge_directory(&cluster.fs, "/provio");
    report.attach_merge(report.surviving_ranks().len(), &mrep);
    // The run was sealed at finish_all: the crashed rank's surviving
    // journal generations are signed too, so replayed provenance is
    // trusted provenance.
    let verdict = verify_directory(&cluster.fs, "/provio", "wal-demo-key");
    assert!(verdict.is_trusted(), "clean run, journals and all: {verdict}");
    report.attach_verify(&verdict);
    let engine = ProvQueryEngine::new(graph);
    let recovered = (0..2)
        .map(|p| {
            let label = format!("/r2_{}.h5", ["ingest", "transform"][p]);
            engine.entity_by_label(&label).is_some()
        })
        .filter(|b| *b)
        .count();
    println!(
        "wal={wal:<5} → {} triples merged, {} replayed from journals, \
         {}/2 of the crashed rank's files recovered",
        report.merge.triples, report.merge.replayed_triples, recovered
    );
    println!("          {report}");
    (recovered, report)
}

fn main() {
    println!("-- journal off: the crashed rank's records die with it --");
    let (lost, off) = run(false);
    assert_eq!(lost, 0, "nothing recoverable without the journal");
    assert_eq!(off.merge.replayed_triples, 0);

    println!("-- journal on: merge replays the journal above the watermark --");
    let (recovered, on) = run(true);
    assert_eq!(recovered, 2, "both pre-crash files recovered from the journal");
    assert!(on.merge.replayed_triples > 0);
    assert_eq!(on.merge.wal_tails_truncated, 0);

    println!("ok: bounded-loss contract held (loss ≤ wal_group records per crashed rank)");
}
