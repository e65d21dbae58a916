//! `provio collect` — drive the streaming collection pipeline over a
//! hostile simulated fabric and check convergence.
//!
//! Builds a multi-rank tracked run whose flushed batches stream to a live
//! aggregator [`Collector`] over a seeded faulty interconnect (loss,
//! duplication, reordering, an optional partition episode, an optional
//! aggregator crash + resync mid-run), then compares the live graph
//! triple-for-triple against the post-hoc [`merge_directory`] ground
//! truth. Passes when the live view converged, fails when it diverged —
//! so CI can smoke the whole pipeline.

use crate::opts::{parse, Opt, Outcome, Slot};
use crate::scenario::Scenario;
use provio::{merge_directory, Collector, RunReport};
use provio_rdf::ntriples::sorted_graph_lines;
use provio_simrt::{NetPlan, PartitionEpisode};
use provio_workflows::Cluster;
use std::sync::Arc;

const PHASES: [&str; 3] = ["ingest", "transform", "publish"];

pub fn main(argv: Vec<String>) -> Outcome {
    let (mut ranks, mut seed, mut partition_us) = (4, 11, 2_000);
    let (mut loss, mut dup, mut reorder) = (0.25, 0.25, 0.25);
    let (mut crash, mut show_report) = (false, false);
    let table = &mut [
        Opt("--ranks", "ranks streaming to the collector", Slot::U32(1, &mut ranks)),
        Opt("--seed", "seeds the fabric's fault schedule", Slot::U64(&mut seed)),
        Opt("--loss", "chance a batch, or its ack, is lost", Slot::Prob(&mut loss)),
        Opt("--dup", "chance a batch is delivered twice", Slot::Prob(&mut dup)),
        Opt("--reorder", "chance a batch is overtaken by its successor", Slot::Prob(&mut reorder)),
        Opt("--partition-us", "length of the one partition episode (0 = none)", Slot::U64(&mut partition_us)),
        Opt("--crash", "crash the aggregator after the first phase, resync after the second", Slot::Switch(&mut crash)),
        Opt("--report", "print the joined run report", Slot::Switch(&mut show_report)),
    ];
    let about = "stream a run to a live collector over a faulty fabric, check convergence";
    if let Some(over) = parse::<()>("collect", about, table, None, argv) {
        return over;
    }

    // ---- The fault schedule ----------------------------------------------
    let mut plan = NetPlan::ideal(seed)
        .with_loss(loss)
        .with_ack_loss(loss)
        .with_duplicate(dup)
        .with_reorder(reorder)
        .with_delay(0, 50_000);
    if partition_us > 0 {
        plan = plan.with_partition(PartitionEpisode::all(500_000, partition_us.saturating_mul(1_000)));
    }

    // ---- A streamed run over the simulated cluster -----------------------
    let cluster = Cluster::new();
    let collector = Collector::new(Arc::clone(&cluster.fs), "/provio", plan);
    cluster.stream_to(Arc::clone(&collector));
    let streamed = Scenario {
        ini: "[provio]\npolicy = every:4\nasync = false\n\
              [store]\nwal = true\nwal_group = 8\n\
              [net]\nnet = true\nnet_timeout_ns = 200000\n"
            .to_string(),
        pid_base: 700,
        user: "operator",
        program: "collect-cli",
        phases: &PHASES,
        files_per_phase: 4,
        kill: None,
    }
    .run(&cluster, ranks, |pi| {
        if crash && pi == 0 {
            collector.crash();
            println!("injected: aggregator crash after '{}'", PHASES[pi]);
        }
        if crash && pi == 1 {
            let (recovered, _) = collector.resync();
            println!("resync: {recovered} triple(s) rebuilt from the rank stores");
        }
    });
    let summaries = match streamed {
        Ok(summaries) => summaries,
        Err(refused) => return refused,
    };

    // ---- Convergence check -----------------------------------------------
    let delivery = collector.report();
    println!("{delivery}");
    if show_report {
        let mut report = RunReport::new(ranks);
        report.attach_summaries(&summaries);
        report.attach_delivery(&delivery);
        println!("{report}");
    }
    let (ground, mrep) = merge_directory(&cluster.fs, "/provio");
    if !mrep.corrupt.is_empty() {
        eprintln!("rank files corrupt: {:?}", mrep.corrupt);
        return Outcome::Fail;
    }
    let live = sorted_graph_lines(&collector.graph());
    let post = sorted_graph_lines(&ground);
    if live == post {
        println!("converged: live graph == post-hoc merge ({} triple(s))", live.len());
        return Outcome::Pass;
    }
    eprintln!("DIVERGED: live {} triple(s), post-hoc merge {} triple(s)", live.len(), post.len());
    Outcome::Fail
}
