//! Fault-tolerant streaming collection, end to end: a live aggregator fed
//! over an unreliable interconnect must converge to exactly the graph the
//! post-hoc [`merge_directory`] pass produces, whatever the fabric does —
//! loss, duplication, reordering, partition episodes, even an aggregator
//! crash mid-run (the rank-durable stores are the recovery source).
//!
//! The sweep test is parameterized by environment for the CI matrix:
//! `PROVIO_NET_SEED` (fault schedule), `PROVIO_NET_LOSS` (per-message
//! loss/dup/reorder probability), `PROVIO_NET_PARTITION` (0/1: one
//! all-ranks partition episode), `PROVIO_NET_CRASH` (0/1: crash the
//! aggregator mid-run and resync).

use prov_io::prelude::*;
use prov_io::rdf::ntriples::sorted_graph_lines;
use proptest::prelude::*;
use std::sync::Arc;

/// The named supersteps of the synthetic workflow.
const PHASES: [&str; 4] = ["ingest", "transform", "reduce", "publish"];

/// Files each rank creates per phase.
const FILES_PER_PHASE: u32 = 3;

/// Ack timeout for the streaming client, virtual ns (200 µs).
const TIMEOUT_NS: u64 = 200_000;

fn net_cfg() -> Arc<ProvIoConfig> {
    ProvIoConfig::default()
        .with_policy(SerializationPolicy::EveryRecords(4))
        .synchronous()
        .with_wal(true, 8)
        .with_net(true, TIMEOUT_NS)
        .shared()
}

/// Run a streamed `world_size`-rank workflow over the four phases. When
/// `crash_after_phase` is set, the aggregator crashes right after that
/// phase's barrier, stays down for the next phase (every arrival refused,
/// clients buffer and retry), and resyncs from the rank-durable stores at
/// the barrier after that.
fn run_streamed(
    world_size: u32,
    plan: NetPlan,
    crash_after_phase: Option<usize>,
) -> (Cluster, Arc<Collector>, RunReport, Vec<(u32, TrackSummary)>) {
    let cluster = Cluster::new();
    let collector = Collector::new(Arc::clone(&cluster.fs), "/provio", plan);
    cluster.stream_to(Arc::clone(&collector));
    let cfg = net_cfg();
    let world = MpiWorld::new(world_size);
    let mut report = RunReport::new(world_size);

    for (pi, phase) in PHASES.iter().enumerate() {
        let outcomes = world.superstep_named(phase, |ctx| {
            let pid = 100 + ctx.rank;
            let (_s, h5) =
                cluster.process(pid, "alice", "streamer", ctx.clock().clone(), Some(&cfg));
            for i in 0..FILES_PER_PHASE {
                let f = h5
                    .create_file(&format!("/r{}_p{pi}_{i}.h5", ctx.rank))
                    .unwrap();
                h5.close_file(f).unwrap();
            }
        });
        report.record_outcomes(&outcomes);
        if crash_after_phase == Some(pi) {
            collector.crash();
        }
        // One crashed phase later, recovery: rebuild the live view from
        // the rank-durable stores (flushed segments + WAL replay).
        if crash_after_phase.map(|c| c + 1) == Some(pi) {
            collector.resync();
        }
    }

    let summaries = cluster.registry.finish_all();
    report.attach_summaries(&summaries);
    report.attach_delivery(&collector.report());
    (cluster, collector, report, summaries)
}

/// The convergence oracle: the live streamed graph must be
/// triple-identical to the post-hoc merge of the rank files.
fn assert_converged(cluster: &Cluster, collector: &Collector) -> usize {
    let (ground, mrep) = merge_directory(&cluster.fs, "/provio");
    assert!(mrep.corrupt.is_empty(), "rank files intact: {mrep:?}");
    let live = sorted_graph_lines(&collector.graph());
    let post = sorted_graph_lines(&ground);
    assert_eq!(
        live, post,
        "live streamed graph diverged from the post-hoc merge"
    );
    live.len()
}

/// The ISSUE acceptance schedule: ≥20% loss + duplication + reordering
/// plus one partition episode, seeded. The collector's live graph must be
/// triple-identical to `merge_directory` over the rank files.
#[test]
fn hostile_fabric_with_partition_converges_to_post_hoc_merge() {
    let plan = NetPlan::hostile(42, 0.25)
        .with_partition(PartitionEpisode::all(500_000, 3_000_000));
    let (cluster, collector, report, summaries) = run_streamed(4, plan, None);

    let triples = assert_converged(&cluster, &collector);
    assert!(triples > 0, "the run produced provenance");

    // The fabric actually misbehaved and the pipeline absorbed it.
    let delivery = report.delivery.expect("run_streamed attaches the aggregator view");
    assert!(report.net.retries > 0, "loss forced retransmissions");
    assert!(
        delivery.duplicate_batches > 0,
        "the (rank, seq) watermark dropped retransmitted/duplicated copies"
    );
    assert_eq!(report.net.unacked_batches, 0, "everything acked after the drain");
    assert!(report.streamed());
    for (_, s) in &summaries {
        assert!(s.net_sent > 0, "every rank streamed");
        assert_eq!(s.net_sent, s.net_acked, "at-least-once acked every batch");
    }
    let text = report.to_string();
    assert!(text.contains("stream:"), "report surfaces delivery: {text}");
}

/// Aggregator crash mid-run: acked records are journal-durable on the
/// ranks (the tracker wal-syncs before every send), so the resync rebuilds
/// them all — zero loss — and the final live graph still converges.
#[test]
fn aggregator_crash_resyncs_with_zero_acked_loss() {
    let plan = NetPlan::ideal(7).with_loss(0.10).with_duplicate(0.10);
    let (cluster, collector, report, _) = run_streamed(4, plan, Some(1));

    assert_converged(&cluster, &collector);
    let delivery = report.delivery.expect("run_streamed attaches the aggregator view");
    assert_eq!(delivery.crashes, 1);
    assert_eq!(delivery.resyncs, 1);
    assert!(
        delivery.resync_triples > 0,
        "resync recovered the crashed-away live view from the rank stores"
    );
    // Every gap is accounted: batches refused while down were retried and
    // acked afterwards; nothing is silently missing.
    assert_eq!(report.net.unacked_batches, 0);
    let delivery = collector.report();
    assert!(
        delivery.refused_batches > 0,
        "the crashed window actually refused arrivals"
    );
    let text = report.to_string();
    assert!(text.contains("1 collector crash(es)"), "{text}");
    assert!(text.contains("1 resync(s)"), "{text}");
}

/// A terminal partition (never heals before the drain budget) must not
/// lose records either: the durable store owns the gap, the report counts
/// it, and the post-hoc merge remains the superset.
#[test]
fn terminal_partition_is_accounted_not_lost() {
    // Partition from t=0 far past anything 64 drain rounds can cross.
    let horizon = 1_000 * TIMEOUT_NS * 1_000;
    let plan = NetPlan::ideal(3).with_partition(PartitionEpisode::all(0, horizon));
    let (cluster, collector, report, summaries) = run_streamed(2, plan, None);

    assert_eq!(collector.triples(), 0, "nothing crossed the partition");
    assert!(report.net.unacked_batches > 0, "the gap is visible, not silent");
    assert_eq!(
        report.net.sent_batches,
        report.net.unacked_batches,
        "every batch is accounted as still-buffered"
    );
    for (_, s) in &summaries {
        assert_eq!(s.net_acked, 0);
    }
    // The durable side lost nothing: a resync converges the live view.
    collector.resync();
    let (ground, _) = merge_directory(&cluster.fs, "/provio");
    assert_eq!(
        sorted_graph_lines(&collector.graph()),
        sorted_graph_lines(&ground),
        "resync from the rank stores recovers the partitioned-away records"
    );
}

/// Seeded net-fault sweep, parameterized by environment for the CI
/// matrix: `PROVIO_NET_SEED`, `PROVIO_NET_LOSS`, `PROVIO_NET_PARTITION`,
/// `PROVIO_NET_CRASH`.
fn sweep_env<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn seeded_netfault_sweep_converges() {
    let seed: u64 = sweep_env("PROVIO_NET_SEED", 11u64);
    let loss: f64 = sweep_env("PROVIO_NET_LOSS", 0.25f64);
    let partition: u64 = sweep_env("PROVIO_NET_PARTITION", 1u64);
    let crash: u64 = sweep_env("PROVIO_NET_CRASH", 0u64);

    let mut plan = NetPlan::hostile(seed, loss);
    if partition != 0 {
        plan = plan.with_partition(PartitionEpisode::all(500_000, 3_000_000));
    }
    let crash_after = (crash != 0).then_some(1);
    let (cluster, collector, report, _) = run_streamed(4, plan, crash_after);

    assert_converged(&cluster, &collector);
    assert_eq!(report.net.unacked_batches, 0);
    if loss > 0.0 {
        assert!(report.net.retries > 0);
    }
    if crash != 0 {
        let delivery = report.delivery.expect("run_streamed attaches the aggregator view");
        assert_eq!(delivery.crashes, 1);
        assert_eq!(delivery.resyncs, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Any bounded partition heals: the live graph converges once the
    /// episode ends, for random seeds, loss rates, and window lengths.
    #[test]
    fn partition_heals_to_converged_graph(
        seed in 0u64..1_000,
        loss in 0.0f64..0.3,
        window_us in 100u64..3_000,
    ) {
        let plan = NetPlan::ideal(seed)
            .with_loss(loss)
            .with_partition(PartitionEpisode::all(0, window_us * 1_000));
        let (cluster, collector, report, _) = run_streamed(2, plan, None);
        assert_converged(&cluster, &collector);
        prop_assert_eq!(report.net.unacked_batches, 0);
    }

    /// Duplication and reordering are idempotent: the streamed graph is
    /// triple-identical to the `merge_directory` ground truth for random
    /// seeds and fault probabilities.
    #[test]
    fn duplication_and_reordering_are_idempotent(
        seed in 0u64..1_000,
        dup in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        ack_loss in 0.0f64..0.3,
    ) {
        let plan = NetPlan::ideal(seed)
            .with_duplicate(dup)
            .with_reorder(reorder)
            .with_ack_loss(ack_loss);
        let (cluster, collector, report, _) = run_streamed(2, plan, None);
        assert_converged(&cluster, &collector);
        prop_assert_eq!(report.net.unacked_batches, 0);
        prop_assert_eq!(report.net.sent_batches, report.net.acked_batches);
    }
}
