//! `finish_all` renders the ranks' final snapshots in parallel and commits
//! them from one thread. Fault plans count file-system calls and op traces
//! record their order, so that split must be invisible on disk: the same
//! operations in the same order on every run, equal to finishing rank by
//! rank in pid order, and a fault on the N-th call hitting the same rank.

use provio::{
    IoEvent, ObjectDesc, ProvIoConfig, ProvTracker, RdfFormat, RetryPolicy, SerializationPolicy,
    TrackSummary, TrackerRegistry,
};
use provio_hpcfs::{
    FaultOp, FaultPlan, FaultRule, FileSystem, FsError, LustreConfig, OpTrace, TraceOp,
};
use provio_model::{ActivityClass, EntityClass};
use provio_simrt::VirtualClock;
use std::sync::Arc;

const RANKS: u32 = 8;
const DIR: &str = "/provio";

/// Every durability plane on, synchronous flushes: each file-system
/// operation is issued by the thread that drives the tracker.
fn durable_config() -> Arc<ProvIoConfig> {
    ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .synchronous()
        .with_policy(SerializationPolicy::EveryRecords(40))
        .with_checksums(true)
        .with_wal(true, 16)
        .with_parity(true, 4)
        .with_manifest(true)
        .with_manifest_key("finish-order-key")
        // One attempt per commit: a single injected failure degrades.
        .with_retry(RetryPolicy {
            max_attempts: 1,
            backoff_ns: 0,
            ..RetryPolicy::default()
        })
        .with_record_latency_ns(0)
        .shared()
}

fn event(rank: u32, i: u32) -> IoEvent {
    let (activity, api_name) = if i.is_multiple_of(3) {
        (ActivityClass::Write, "H5Dwrite")
    } else {
        (ActivityClass::Read, "H5Dread")
    };
    IoEvent {
        activity,
        api_name: api_name.to_string(),
        object: Some(ObjectDesc::hdf5(
            EntityClass::Dataset,
            format!("/data/r{rank}.h5"),
            format!("/d{}", i % 5),
        )),
        bytes: 512 + u64::from(i),
        duration_ns: 100 + u64::from(i),
        timestamp_ns: 10_000 + u64::from(i),
        ok: true,
    }
}

enum Finish {
    /// One `finish_all` sweep.
    Registry,
    /// `finish()` rank by rank in pid order, then the sweep (which only
    /// reads the cached summaries and seals).
    RankByRank,
}

struct Run {
    /// Operations issued from the start of the finish on.
    ops: Vec<TraceOp>,
    files: Vec<(String, Vec<u8>)>,
    summaries: Vec<(u32, TrackSummary)>,
}

/// Capture on 8 ranks — a different event count per rank, none a multiple
/// of the flush interval, so every rank enters the finish with pending
/// records, buffered journal chunks and live delta segments — then finish.
/// `fail_rename`, if set, makes the N-th rename issued during the finish
/// fail.
fn run(finish: Finish, fail_rename: Option<u32>) -> Run {
    let fs = FileSystem::new(LustreConfig::default());
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));
    let cfg = durable_config();
    let registry = TrackerRegistry::new();
    // Registered out of pid order: the sweep must not depend on it.
    for pid in [5, 2, 7, 0, 3, 6, 1, 4] {
        let tracker = ProvTracker::new(
            Arc::clone(&cfg),
            Arc::clone(&fs),
            pid,
            "alice",
            &format!("prog-r{pid}"),
            VirtualClock::new(),
        );
        for i in 0..(70 + 13 * pid) {
            tracker.track_io(&event(pid, i));
        }
        registry.register(pid, tracker);
    }
    let captured = trace.len();
    if let Some(n) = fail_rename {
        // Every rename of the store moves a `.tmp` into place; matching on
        // the source keeps the count at one per rename (the file system
        // consults a rule for both of a rename's paths).
        let rule = FaultRule::fail(FaultOp::Rename, FsError::Io)
            .on_suffix(".tmp")
            .after(n)
            .times(1);
        let plan = FaultPlan::new(9);
        plan.add_rule(rule);
        fs.install_faults(plan);
    }
    if matches!(finish, Finish::RankByRank) {
        for pid in 0..RANKS {
            registry.get(pid).expect("registered").finish();
        }
    }
    let summaries = registry.finish_all();
    fs.clear_faults();

    let mut files: Vec<(String, Vec<u8>)> = fs
        .walk_files(DIR)
        .expect("store directory")
        .into_iter()
        .map(|path| {
            let ino = fs.lookup(&path).expect("listed file");
            let size = fs.stat(&path).expect("listed file").size;
            let bytes = fs.read_at(ino, 0, size).expect("readable").to_vec();
            (path, bytes)
        })
        .collect();
    files.sort();
    Run {
        ops: trace.snapshot().split_off(captured),
        files,
        summaries,
    }
}

/// The finish's renames, as (index among them, destination).
fn renames(ops: &[TraceOp]) -> Vec<String> {
    ops.iter()
        .filter_map(|op| match op {
            TraceOp::Rename { new, .. } => Some(new.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn finish_all_issues_the_operations_of_finishing_rank_by_rank_in_pid_order() {
    let first = run(Finish::Registry, None);
    let second = run(Finish::Registry, None);
    let sequential = run(Finish::RankByRank, None);

    assert!(first.summaries.iter().all(|(_, s)| !s.degraded && s.store_bytes > 0));
    let pids: Vec<u32> = first.summaries.iter().map(|(pid, _)| *pid).collect();
    assert_eq!(pids, (0..RANKS).collect::<Vec<_>>());

    assert!(first.ops == second.ops, "two sweeps, two op traces");
    assert!(first.files == second.files, "two sweeps, two directories");
    assert!(
        first.ops == sequential.ops,
        "finish_all's trace differs from finish() rank by rank:\n{:#?}\nvs\n{:#?}",
        renames(&first.ops),
        renames(&sequential.ops)
    );
    assert!(first.files == sequential.files);
    assert_eq!(first.summaries, sequential.summaries);

    // The snapshot commits appear in pid order, each rank's operations in
    // one contiguous run, the seal after the last rank.
    let commits: Vec<String> = renames(&first.ops)
        .into_iter()
        .filter(|dst| dst.ends_with(".nt") && !dst.contains(".nt."))
        .collect();
    let expected: Vec<String> = (0..RANKS).map(|pid| format!("{DIR}/prov_p{pid}.nt")).collect();
    assert_eq!(commits, expected);
    let mut owners: Vec<u32> = first
        .ops
        .iter()
        .filter_map(|op| {
            let rest = op.path().strip_prefix(&format!("{DIR}/prov_p"))?;
            rest[..rest.find('.')?].parse().ok()
        })
        .collect();
    owners.dedup();
    assert_eq!(owners, (0..RANKS).collect::<Vec<_>>(), "one contiguous run per rank");
}

#[test]
fn a_fault_on_the_nth_rename_degrades_the_same_rank_on_every_run() {
    // Aim at rank 5's snapshot commit: its position among the finish's
    // renames, read off a clean run.
    let clean = run(Finish::Registry, None);
    let target = format!("{DIR}/prov_p5.nt");
    let nth = renames(&clean.ops)
        .iter()
        .position(|dst| *dst == target)
        .expect("rank 5 commits a snapshot") as u32;

    let degraded = |r: &Run| -> Vec<u32> {
        r.summaries
            .iter()
            .filter(|(_, s)| s.degraded)
            .map(|(pid, _)| *pid)
            .collect()
    };
    let first = run(Finish::Registry, Some(nth));
    let second = run(Finish::Registry, Some(nth));
    let sequential = run(Finish::RankByRank, Some(nth));
    assert_eq!(degraded(&first), vec![5]);
    assert_eq!(degraded(&second), vec![5]);
    assert_eq!(degraded(&sequential), vec![5]);
    assert!(first.ops == second.ops);
    assert!(first.ops == sequential.ops);
    assert!(first.files == second.files);
    assert_eq!(first.summaries, second.summaries);
}
