//! Fault-tolerant streaming collection, end to end: four ranks stream
//! their provenance to a live aggregator over a hostile fabric (25%
//! loss + duplication + reordering, one all-ranks partition episode),
//! the aggregator crashes mid-run and resyncs from the rank-durable
//! stores — and the live graph still converges triple-for-triple to the
//! post-hoc `merge_directory` pass.
//!
//! Run with `cargo run --release --example streaming_demo`.

use prov_io::prelude::*;
use prov_io::rdf::ntriples::sorted_graph_lines;
use std::sync::Arc;

fn main() {
    let cluster = Cluster::new();

    // A seeded faulty fabric: every message faces 25% loss, ack loss,
    // duplication, and reordering, plus one partition from t=0.5ms to
    // t=3ms that cuts every rank off the aggregator.
    let plan = NetPlan::hostile(42, 0.25)
        .with_partition(PartitionEpisode::all(500_000, 3_000_000));
    let collector = Collector::new(Arc::clone(&cluster.fs), "/provio", plan);
    cluster.stream_to(Arc::clone(&collector));

    // net requires wal: an ack may only follow the rank-local journal
    // sync, so anything the aggregator acked survives its crash.
    let cfg = ProvIoConfig::default()
        .with_policy(SerializationPolicy::EveryRecords(4))
        .synchronous()
        .with_wal(true, 8)
        .with_net(true, 200_000)
        .shared();

    let world = MpiWorld::new(4);
    let mut report = RunReport::new(4);
    for (pi, phase) in ["ingest", "transform", "reduce", "publish"]
        .iter()
        .enumerate()
    {
        let outcomes = world.superstep_named(phase, |ctx| {
            let (_s, h5) = cluster.process(
                100 + ctx.rank,
                "alice",
                "streamer",
                ctx.clock().clone(),
                Some(&cfg),
            );
            for i in 0..3 {
                let f = h5
                    .create_file(&format!("/r{}_p{pi}_{i}.h5", ctx.rank))
                    .unwrap();
                h5.close_file(f).unwrap();
            }
        });
        report.record_outcomes(&outcomes);
        // The aggregator node dies after the transform barrier...
        if pi == 1 {
            collector.crash();
            println!("[{phase}] aggregator crashed — arrivals refused, ranks buffer and retry");
        }
        // ...and recovers one phase later from the rank-durable stores.
        if pi == 2 {
            let (recovered, _) = collector.resync();
            println!("[{phase}] aggregator resynced: {recovered} triples rebuilt from rank stores");
        }
    }

    let summaries = cluster.registry.finish_all();
    report.attach_summaries(&summaries);
    report.attach_delivery(&collector.report());
    println!("\n{report}");

    // The convergence oracle: live streamed graph == post-hoc merge.
    let (ground, _) = merge_directory(&cluster.fs, "/provio");
    let live = sorted_graph_lines(&collector.graph());
    let post = sorted_graph_lines(&ground);
    assert_eq!(live, post, "live graph diverged from the post-hoc merge");
    assert_eq!(report.net.unacked_batches, 0, "every batch acked after the drain");
    println!(
        "converged: live streamed graph == post-hoc merge ({} triples), \
         zero unacked batches",
        live.len()
    );
}
