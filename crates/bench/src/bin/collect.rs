//! `provio collect` — drive the streaming collection pipeline over a
//! hostile simulated fabric and check convergence.
//!
//! ```text
//! collect [--ranks N] [--seed N] [--loss P] [--dup P] [--reorder P]
//!         [--partition-us N] [--crash] [--report]
//! ```
//!
//! Builds a multi-rank tracked run whose flushed batches stream to a live
//! aggregator [`Collector`] over a seeded faulty interconnect (loss,
//! duplication, reordering, an optional partition episode, an optional
//! aggregator crash + resync mid-run), then compares the live graph
//! triple-for-triple against the post-hoc [`merge_directory`] ground
//! truth. Exit status: 0 when the live view converged, 1 when it
//! diverged, 2 on bad arguments — so CI can smoke the whole pipeline.

use provio::{merge_directory, Collector, ProvIoConfig};
use provio_bench::parse;
use provio_mpi::MpiWorld;
use provio_rdf::ntriples::sorted_graph_lines;
use provio_simrt::{NetPlan, PartitionEpisode};
use provio_workflows::Cluster;
use std::sync::Arc;

const PHASES: [&str; 3] = ["ingest", "transform", "publish"];

fn main() {
    let mut ranks: u32 = 4;
    let mut seed: u64 = 11;
    let mut loss: f64 = 0.25;
    let mut dup: f64 = 0.25;
    let mut reorder: f64 = 0.25;
    let mut partition_us: u64 = 2_000;
    let mut crash = false;
    let mut show_report = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => ranks = parse(&mut args, "--ranks"),
            "--seed" => seed = parse(&mut args, "--seed"),
            "--loss" => loss = parse(&mut args, "--loss"),
            "--dup" => dup = parse(&mut args, "--dup"),
            "--reorder" => reorder = parse(&mut args, "--reorder"),
            "--partition-us" => partition_us = parse(&mut args, "--partition-us"),
            "--crash" => crash = true,
            "--report" => show_report = true,
            "--help" | "-h" => {
                println!(
                    "collect [--ranks N] [--seed N] [--loss P] [--dup P] [--reorder P]\n\
                     \x20       [--partition-us N] [--crash] [--report]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    if ranks == 0 || !(0.0..1.0).contains(&loss) || !(0.0..1.0).contains(&dup)
        || !(0.0..1.0).contains(&reorder)
    {
        eprintln!("--ranks must be >= 1 and probabilities in [0, 1) (try --help)");
        std::process::exit(2);
    }

    // ---- The fault schedule ----------------------------------------------
    let mut plan = NetPlan::ideal(seed)
        .with_loss(loss)
        .with_ack_loss(loss)
        .with_duplicate(dup)
        .with_reorder(reorder)
        .with_delay(0, 50_000);
    if partition_us > 0 {
        plan = plan.with_partition(PartitionEpisode::all(500_000, partition_us * 1_000));
    }

    // ---- A streamed run over the simulated cluster -----------------------
    let cluster = Cluster::new();
    let collector = Collector::new(Arc::clone(&cluster.fs), "/provio", plan);
    cluster.stream_to(Arc::clone(&collector));
    let cfg = ProvIoConfig::from_ini(
        "[provio]\npolicy = every:4\nasync = false\n\
         [store]\nwal = true\nwal_group = 8\n\
         [net]\nnet = true\nnet_timeout_ns = 200000\n",
    )
    .expect("valid config")
    .shared();

    let world = MpiWorld::new(ranks);
    for (pi, phase) in PHASES.iter().enumerate() {
        world.superstep_named(phase, |ctx| {
            let (_s, h5) = cluster.process(
                700 + ctx.rank,
                "operator",
                "collect-cli",
                ctx.clock().clone(),
                Some(&cfg),
            );
            for i in 0..4 {
                let f = h5
                    .create_file(&format!("/run_r{}_p{pi}_{i}.h5", ctx.rank))
                    .unwrap();
                h5.close_file(f).unwrap();
            }
        });
        if crash && pi == 0 {
            collector.crash();
            println!("injected: aggregator crash after '{phase}'");
        }
        if crash && pi == 1 {
            let (recovered, _) = collector.resync();
            println!("resync: {recovered} triple(s) rebuilt from the rank stores");
        }
    }
    let summaries = cluster.registry.finish_all();

    // ---- Convergence check -----------------------------------------------
    let delivery = collector.report();
    println!("{delivery}");
    if show_report {
        let mut report = provio::RunReport::new(ranks);
        report.attach_summaries(&summaries);
        report.attach_delivery(&delivery);
        println!("{report}");
    }
    let (ground, mrep) = merge_directory(&cluster.fs, "/provio");
    if !mrep.corrupt.is_empty() {
        eprintln!("rank files corrupt: {:?}", mrep.corrupt);
        std::process::exit(1);
    }
    let live = sorted_graph_lines(&collector.graph());
    let post = sorted_graph_lines(&ground);
    if live == post {
        println!(
            "converged: live graph == post-hoc merge ({} triple(s))",
            live.len()
        );
        std::process::exit(0);
    }
    eprintln!(
        "DIVERGED: live {} triple(s), post-hoc merge {} triple(s)",
        live.len(),
        post.len()
    );
    std::process::exit(1);
}
