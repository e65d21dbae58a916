//! Rank-failure resilience, end to end: a superstep survives an injected
//! rank panic, the breaker rides out a flaky store, and the run report
//! states exactly what was lost.
//!
//! Run with `cargo run --release --example rank_failure_demo`.

use prov_io::hpcfs::FsError;
use prov_io::prelude::*;
use std::sync::Arc;

fn main() {
    // ---- A crashing superstep ------------------------------------------
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::default().shared();
    let world = MpiWorld::new(8);
    let mut report = RunReport::new(8);

    for phase in ["ingest", "transform", "publish"] {
        let outcomes = world.superstep_named(phase, |ctx| {
            if ctx.rank == 3 && phase != "ingest" {
                if phase == "transform" {
                    panic!("ESIMCRASH: node 3 lost power");
                }
                return; // a dead rank stays dead
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
        let crashed = outcomes.iter().filter(|o| o.is_crashed()).count();
        println!("phase {phase:>9}: {}/8 ranks completed", 8 - crashed);
        report.record_outcomes(&outcomes);
    }

    // Rank 3's process died without flushing.
    if let Some(t) = cluster.registry.unregister(103) {
        std::mem::forget(t);
    }
    cluster.registry.finish_all();
    cluster.registry.finish_all(); // idempotent: second call is a no-op

    let (graph, mrep) = merge_directory(&cluster.fs, "/provio");
    report.attach_merge(report.surviving_ranks().len(), &mrep);
    println!("{report}");
    for c in &report.crashed {
        println!("  crashed: rank {} in {:?} ({})", c.rank, c.phase, c.cause);
    }
    let dr = doctor(&graph);
    println!("doctor: clean={} over {} triples", dr.is_clean(), dr.checked_triples);

    // ---- A breaker episode ---------------------------------------------
    let cluster = Cluster::new();
    let plan = FaultPlan::new(91);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("prov_p300."));
    cluster.fs.install_faults(Arc::clone(&plan));
    let cfg = ProvIoConfig::default()
        .with_policy(SerializationPolicy::EveryRecords(1))
        .synchronous()
        .with_retry(RetryPolicy {
            max_attempts: 1,
            backoff_ns: 0,
            ..RetryPolicy::default()
        })
        .with_breaker(2, 10_000_000_000)
        .shared();
    let (_s, h5) = cluster.process(300, "alice", "pusher", VirtualClock::new(), Some(&cfg));
    for i in 0..6 {
        let f = h5.create_file(&format!("/burst_{i}.h5")).unwrap();
        h5.close_file(f).unwrap();
    }
    cluster.fs.clear_faults();
    let summaries = cluster.registry.finish_all();
    let s = &summaries.iter().find(|(p, _)| *p == 300).unwrap().1;
    println!(
        "breaker: trips={} skipped={} state={} (injected {} faults)",
        s.breaker_trips,
        s.breaker_skipped,
        s.breaker_state,
        plan.injected()
    );
    let (graph, mrep) = merge_directory(&cluster.fs, "/provio");
    println!(
        "merged {} triples from {} files, {} corrupt",
        graph.len(),
        mrep.files,
        mrep.corrupt.len()
    );

    // ---- A query budget ------------------------------------------------
    let q = "SELECT ?e WHERE { ?e a provio:File . }";
    let starved = ProvQueryEngine::new(graph.clone()).with_budget(2);
    match starved.sparql(q) {
        Err(e) => println!("budget 2: {e}"),
        Ok(sols) => println!("budget 2: unexpectedly returned {} rows", sols.len()),
    }
    let engine = ProvQueryEngine::new(graph);
    println!("unlimited: {} files found", engine.sparql(q).unwrap().len());

    // ---- Config knobs from ini -----------------------------------------
    let ini = ProvIoConfig::from_ini(
        "queue_capacity = 64\noverload_policy = shed\nbreaker_threshold = 3",
    )
    .unwrap();
    println!(
        "ini: queue={} policy={:?} breaker={}",
        ini.queue_capacity, ini.overload, ini.breaker_threshold
    );
    match ProvIoConfig::from_ini("overload_policy = panic") {
        Err(e) => println!("bad ini rejected: {e}"),
        Ok(_) => println!("bad ini unexpectedly accepted"),
    }
}
