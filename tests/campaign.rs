//! The fault campaign: every fault cell this repository checks, as one
//! table. Each row of [`cells`] is a typed cell — a family and the
//! parameters its check takes — and each family runs as one test that
//! checks its rows in table order, collects one outcome line per row (the
//! exact losses, replays, verdicts, repairs or explored states the row
//! ended with) and holds the SHA-256 of those lines to a pinned digest. A
//! changed outcome therefore fails even when every assertion in the check
//! still passes.
//!
//! Run one family: `cargo test --test campaign seeded_netfault` (or any
//! other family test's name). Add a row: one more value in one of its
//! family's axis lists in [`cells`], then re-pin the family's digest from
//! the failing assertion, which prints the new digest and every outcome
//! line. A digest that changes without a new row means some run ended
//! differently: compare the printed lines with the same family's lines at
//! the parent commit, and re-pin only for a deliberate model or format
//! change, saying which line moved and why.
//!
//! `the_campaign_at_ten_seeds` (`cargo test --test campaign -- --ignored`,
//! nightly) runs every seeded row again at seed + 1 … seed + 9 with the
//! assertions only; a failure's captured output ends with its cell.
//!
//! Beside the families sit the fixed-scenario tests of the same fixtures:
//! rank crashes, streaming over a faulty fabric, bit rot, tampering and
//! scrub repair.

use proptest::prelude::*;
use prov_io::crashcheck::{crashcheck, repro_text, CrashcheckConfig};
use prov_io::core::RdfFormat;
use prov_io::hpcfs::FsError;
use prov_io::prelude::*;
use prov_io::rdf::ntriples::{self, sorted_graph_lines};
use prov_io::simrt::{DetRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// One fault cell: its family and the parameters its check takes.
/// [`Cell::check`] names the check function that documents each family.
#[derive(Debug, Clone, Copy)]
#[rustfmt::skip]
enum Cell {
    RankCrash { world: u32, seed: u64, prob: f64 },
    WalReplay { world: u32, seed: u64, prob: f64, group: u32 },
    Net { seed: u64, loss: f64, partition: bool, crash: bool },
    Rot { seed: u64, flips: u32, framed: bool },
    Tamper { seed: u64, kind: TamperKind, signed: bool },
    Scrub { seed: u64, damage: Damage, group: u32 },
    JournalTail { seed: u64 },
    TornCommit { op: FaultOp, keep: u64 },
    Explore { pushes: usize, groups: u32, signed: bool },
}

/// What a scrub row does to the one artifact it damages.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// Three bit flips in a covered member.
    Corrupt,
    /// A covered member unlinked.
    Delete,
    /// A CRC-patched rewrite of a covered snapshot or segment.
    Tamper,
    /// One rotted byte in a parity file's data block.
    Parity,
    /// A parity file zero-filled.
    ParityDestroy,
}

/// The whole campaign in the order each family runs: per family, loops
/// over its axis lists, each list spelled once.
#[rustfmt::skip]
fn cells() -> Vec<Cell> {
    use Cell::*;
    use FaultOp::*;
    use TamperKind::*;
    let scrub_seeds = [1, 17, 42];
    let mut c = Vec::new();
    // rank crash: 16 ranks at 0.25, then world × seed × crash probability
    c.push(RankCrash { world: 16, seed: 7, prob: 0.25 });
    for world in [16, 64] { for seed in [7, 41, 1337] { for prob in [0.1, 0.3] {
        c.push(RankCrash { world, seed, prob });
    } } }
    // WAL replay at 16 ranks: 0.25 in groups of 8, then seed × crash probability × group
    c.push(WalReplay { world: 16, seed: 7, prob: 0.25, group: 8 });
    for seed in [7, 41, 1337] { for prob in [0.1, 0.3] { for group in [1, 8, 64] {
        c.push(WalReplay { world: 16, seed, prob, group });
    } } }
    // netfault: seed × loss × partition × aggregator crash
    for seed in [11, 42, 1337] { for loss in [0.1, 0.25] { for partition in [false, true] { for crash in [false, true] {
        c.push(Net { seed, loss, partition, crash });
    } } } }
    // corruption: seed × flips × framed
    for seed in [11, 42, 90125] { for flips in [1, 4, 32] { for framed in [true, false] {
        c.push(Rot { seed, flips, framed });
    } } }
    // tamper: seed × kind × signed
    for seed in [7, 41, 90125] {
        for kind in [CrcPatchedRewrite, FileSubstitution, ManifestEdit, LedgerTruncate] { for signed in [true, false] {
            // an unsigned run has no manifest or ledger to attack
            if signed || matches!(kind, CrcPatchedRewrite | FileSubstitution) {
                c.push(Tamper { seed, kind, signed });
            }
        } }
    }
    // scrub repair: seed × damage × parity group width
    for seed in scrub_seeds {
        for damage in [Damage::Corrupt, Damage::Delete, Damage::Tamper, Damage::Parity, Damage::ParityDestroy] {
            for group in [1, 2, 3] { c.push(Scrub { seed, damage, group }); }
        }
    }
    // the crashed rank's journal tail, at the scrub seeds
    for seed in scrub_seeds { c.push(JournalTail { seed }); }
    // torn commit: crash op × torn-write length
    for op in [CreateFile, WriteAt, TruncateIno, Rename] { for keep in [0, 1, 80, 400, 4096] {
        c.push(TornCommit { op, keep });
    } }
    // crash-state exploration: the all-knobs workload, one with groups
    // larger than the flush cadence, and the unsigned ablation, then the
    // same two shapes at the smaller sizes
    c.push(Explore { pushes: 6, groups: 2, signed: true });
    c.push(Explore { pushes: 8, groups: 3, signed: true });
    c.push(Explore { pushes: 6, groups: 2, signed: false });
    c.push(Explore { pushes: 6, groups: 3, signed: true });
    c.push(Explore { pushes: 4, groups: 2, signed: false });
    c
}

impl Cell {
    /// The family's name: the first word of each of its outcome lines.
    fn family(&self) -> &'static str {
        match self {
            Cell::RankCrash { .. } => "crash",
            Cell::WalReplay { .. } => "wal",
            Cell::Net { .. } => "net",
            Cell::Rot { .. } => "rot",
            Cell::Tamper { .. } => "tamper",
            Cell::Scrub { .. } => "scrub",
            Cell::JournalTail { .. } => "tail",
            Cell::TornCommit { .. } => "torn",
            Cell::Explore { .. } => "explore",
        }
    }

    /// Run the cell's check: it panics on a broken guarantee and otherwise
    /// returns the cell's outcome line.
    fn check(&self) -> String {
        match *self {
            Cell::RankCrash { world, seed, prob } => crash_sweep(world, seed, prob),
            Cell::WalReplay {
                world,
                seed,
                prob,
                group,
            } => wal_ablation(world, seed, prob, group),
            Cell::Net {
                seed,
                loss,
                partition,
                crash,
            } => netfault(seed, loss, partition, crash),
            Cell::Rot {
                seed,
                flips,
                framed,
            } => corruption(seed, flips, framed),
            Cell::Tamper { seed, kind, signed } => tamper(seed, kind, signed),
            Cell::Scrub {
                seed,
                damage,
                group,
            } => scrub_repair(seed, damage, group),
            Cell::JournalTail { seed } => journal_tail(seed),
            Cell::TornCommit { op, keep } => torn_commit(op, keep),
            Cell::Explore {
                pushes,
                groups,
                signed,
            } => explore(pushes, groups, signed),
        }
    }

    /// The same cell at `seed + by`; `None` for a cell without a seed.
    fn reseeded(mut self, by: u64) -> Option<Cell> {
        match &mut self {
            Cell::RankCrash { seed, .. }
            | Cell::WalReplay { seed, .. }
            | Cell::Net { seed, .. }
            | Cell::Rot { seed, .. }
            | Cell::Tamper { seed, .. }
            | Cell::Scrub { seed, .. }
            | Cell::JournalTail { seed } => *seed += by,
            Cell::TornCommit { .. } | Cell::Explore { .. } => return None,
        }
        Some(self)
    }
}

/// Check every row of `family` in table order, then hold the SHA-256 of
/// their outcome lines to `pinned`.
fn run_family(family: &str, pinned: &str) {
    let mut text = String::new();
    for cell in cells().into_iter().filter(|c| c.family() == family) {
        println!("{cell:?}");
        text += &cell.check();
        text.push('\n');
    }
    let digest = sha2::hex(&sha2::sha256(text.as_bytes()));
    assert!(
        digest == pinned,
        "{family} outcomes changed: digest {digest}, pinned {pinned}\n{text}"
    );
}

#[test]
fn seeded_crash_sweep_accounts_for_every_rank() {
    run_family(
        "crash",
        "fab22e6d4048859420cb2963d144905f6b0c1433c29e28796ddd23826d60c5bf",
    );
}

#[test]
fn wal_ablation_bounds_crashed_rank_loss_to_the_group_commit_size() {
    run_family(
        "wal",
        "5c593745831f16e1d21251a30061023b5fcaf9bc37c6eb01d1a0a8e4f8ed057a",
    );
}

#[test]
fn seeded_netfault_sweep_converges() {
    run_family(
        "net",
        "af0c97894fe612aca16090e8f1899e87ded3aadbad9324e2b7302f214436df22",
    );
}

#[test]
fn seeded_corruption_sweep_detects_or_tolerates_every_flip() {
    run_family(
        "rot",
        "d7a34ccddd8773ea0c7d29a97243105c9795589dc7187b32eb5874227d70b8a8",
    );
}

#[test]
fn seeded_tamper_sweep_every_mutation_is_detected() {
    run_family(
        "tamper",
        "9a95b84527b9586808a20160299daa1e76931c2cd0bd5f6e41fc6cc02953abdf",
    );
}

#[test]
fn single_damage_within_tolerance_repairs_to_zero_loss() {
    run_family(
        "scrub",
        "ae2b32d91494ee290fe9e4ed4b3d77ef5ad038368f8433ec58937f0c6cbf3d85",
    );
}

#[test]
fn crashed_rank_journal_tail_survives_damage() {
    run_family(
        "tail",
        "0a383c5e8f76d99b61a21a1804c76eec7dbb1865ce1fafde7febcc5621608c52",
    );
}

#[test]
fn fault_sweep_merge_always_recovers_committed_subgraphs() {
    run_family(
        "torn",
        "0fd3ac2579c8a092f52b5cf9548ac023325e657063def473ceeb7156b82d4e0b",
    );
}

#[test]
fn crash_state_exploration_holds_every_recovery_invariant() {
    run_family(
        "explore",
        "79d7e329451e3809c4a15c24f6f3e3338372746cafa52deca606363c329f9c8b",
    );
}

/// Every seeded row at nine more seeds, assertions only: the nightly
/// widening of the campaign. No digest is pinned here.
#[test]
#[ignore = "nightly: 1 260 runs; cargo test --test campaign -- --ignored"]
fn the_campaign_at_ten_seeds() {
    for by in 1..=9 {
        for cell in cells().into_iter().filter_map(|c| c.reseeded(by)) {
            println!("{cell:?}");
            cell.check();
        }
    }
}

/// The named supersteps of the phased and streamed workflows.
const PHASES: [&str; 4] = ["ingest", "transform", "reduce", "publish"];

/// The key every signed run here seals its manifest under.
const KEY: &str = "fault-campaign-key";

fn read(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
    let ino = fs.lookup(path).unwrap();
    let md = fs.stat(path).unwrap();
    fs.read_at(ino, 0, md.size).unwrap().to_vec()
}

fn lines(g: &prov_io::rdf::Graph) -> BTreeSet<String> {
    ntriples::serialize(g).lines().map(str::to_string).collect()
}

/// Byte image of every file under /provio — the ground truth a repair must
/// restore exactly.
fn disk_image(fs: &Arc<FileSystem>) -> BTreeMap<String, Vec<u8>> {
    fs.walk_files("/provio")
        .unwrap()
        .into_iter()
        .map(|p| {
            let bytes = read(fs, &p);
            (p, bytes)
        })
        .collect()
}

/// `items` as one comma-separated outcome field.
fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

// Rank failure: crashed ranks must not abort the run, surviving ranks'
// provenance must land in full, and the [`RunReport`] must state exactly
// what was lost.

fn data_path(rank: u32, phase: usize) -> String {
    format!("/data_r{rank}_p{phase}.h5")
}

/// What ranks listed in the crash set do during a run.
#[derive(Clone, Copy, PartialEq)]
enum WorldMode {
    /// Crashing ranks panic at the start of their crash phase and stay
    /// dead afterwards; their trackers vanish without a flush.
    Faulted,
    /// Crashing ranks never run at all: the no-fault baseline restricted
    /// to survivors.
    Ghost,
    /// Crashing ranks run only their pre-crash phases, then stop cleanly
    /// and finish like everyone else: exactly the work a crashed rank did
    /// before dying, but committed. The loss-measurement baseline.
    Truncated,
}

/// Run a `world_size`-rank workflow over the four phases under `mode`,
/// with every tracker built from `cfg`. When `faults` is given, the plan
/// is installed on the cluster filesystem before any phase runs.
///
/// Returns the cluster and the per-phase outcome report.
fn phased_world(
    world_size: u32,
    crashes: &[(u32, usize)],
    mode: WorldMode,
    cfg: &Arc<ProvIoConfig>,
    faults: Option<Arc<FaultPlan>>,
) -> (Cluster, RunReport) {
    let cluster = Cluster::new();
    if let Some(plan) = faults {
        cluster.fs.install_faults(plan);
    }
    let world = MpiWorld::new(world_size);
    let mut report = RunReport::new(world_size);

    for (pi, phase) in PHASES.iter().enumerate() {
        let outcomes = world.superstep_named(phase, |ctx| {
            let rank = ctx.rank;
            if let Some(&(_, crash_phase)) = crashes.iter().find(|(r, _)| *r == rank) {
                match mode {
                    WorldMode::Ghost => return,
                    WorldMode::Truncated if pi >= crash_phase => return,
                    WorldMode::Faulted if pi > crash_phase => return, // dead ranks stay dead
                    WorldMode::Faulted if pi == crash_phase => {
                        panic!("ESIMCRASH: injected rank fault at {phase}");
                    }
                    _ => {}
                }
            }
            let pid = 100 + rank;
            let (_s, h5) =
                cluster.process(pid, "alice", "resilient", ctx.clock().clone(), Some(cfg));
            let f = h5.create_file(&data_path(rank, pi)).unwrap();
            h5.close_file(f).unwrap();
        });
        report.record_outcomes(&outcomes);
    }

    // Crashed ranks' processes died: their trackers vanish without a flush
    // (forgetting the Arc models a killed process — no Drop salvage).
    if mode == WorldMode::Faulted {
        for &(rank, _) in crashes {
            if let Some(t) = cluster.registry.unregister(100 + rank) {
                std::mem::forget(t);
            }
        }
    }
    cluster.registry.finish_all();
    (cluster, report)
}

#[test]
fn sixty_four_ranks_survive_four_crashes_with_exact_accounting() {
    // One crash in each distinct phase.
    let crashes = [(5u32, 0usize), (17, 1), (33, 2), (60, 3)];
    let cfg = ProvIoConfig::default().shared();
    let (cluster, mut report) = phased_world(64, &crashes, WorldMode::Faulted, &cfg, None);

    // The run completed; the report lists exactly the crashed ranks, each
    // at its actual crash phase.
    let listed: Vec<(u32, &str)> = report
        .crashed
        .iter()
        .map(|c| (c.rank, c.phase.as_str()))
        .collect();
    assert_eq!(
        listed,
        vec![
            (5, "ingest"),
            (17, "transform"),
            (33, "reduce"),
            (60, "publish")
        ]
    );
    for c in &report.crashed {
        assert!(c.cause.contains("ESIMCRASH"), "cause recorded: {}", c.cause);
    }
    assert_eq!(report.surviving_ranks().len(), 60);

    // Merge and join: all 60 survivor sub-graphs recovered, none corrupt.
    let (graph, mrep) = merge_directory(&cluster.fs, "/provio");
    report.attach_merge(report.surviving_ranks().len(), &mrep);
    assert_eq!(report.merge.files, 60, "one sub-graph per survivor");
    assert_eq!(report.completeness(), 1.0);
    assert!(report.merge.corrupt.is_empty());
    assert!(!report.is_complete(), "crashes keep the run marked incomplete");
    assert!(report.to_string().contains("60/64 ranks survived"));

    // The merged graph contains every triple the no-fault baseline
    // (restricted to survivors) produces — nothing a survivor recorded was
    // lost to someone else's crash. Timing properties are excluded from the
    // comparison: virtual I/O costs depend on global filesystem load, and
    // the crashed ranks' pre-crash work shifts survivor timings slightly.
    let timing = |iri: &str| iri.ends_with("#timestamp") || iri.ends_with("#elapsed");
    let (baseline_cluster, _) = phased_world(64, &crashes, WorldMode::Ghost, &cfg, None);
    let (baseline, _) = merge_directory(&baseline_cluster.fs, "/provio");
    assert!(!baseline.is_empty());
    let mut compared = 0usize;
    for t in baseline.iter() {
        if timing(t.predicate.as_str()) {
            continue;
        }
        compared += 1;
        assert!(
            graph.contains(&t),
            "survivor triple lost from merged graph: {t}"
        );
    }
    assert!(compared > 60 * 4, "comparison covered the structural triples");

    // And the survivor graph is structurally consistent.
    let dr = doctor(&graph);
    assert!(dr.is_clean(), "doctor findings on survivor graph: {dr:?}");
}

#[test]
fn crashed_ranks_partial_phases_do_not_pollute_the_report() {
    // A rank that crashes in phase 2 completed phases 0 and 1; its earlier
    // work exists as workflow data but its provenance is gone with it.
    let crashes = [(3u32, 2usize)];
    let cfg = ProvIoConfig::default().shared();
    let (cluster, report) = phased_world(8, &crashes, WorldMode::Faulted, &cfg, None);
    assert_eq!(report.crashed.len(), 1);
    assert_eq!(report.crashed[0].phase, "reduce");
    // The workflow data from the pre-crash phases is on disk…
    assert!(cluster.fs.exists(&data_path(3, 0)));
    assert!(cluster.fs.exists(&data_path(3, 1)));
    // …but the merged graph only speaks for survivors.
    let (graph, _) = merge_directory(&cluster.fs, "/provio");
    let engine = ProvQueryEngine::new(graph);
    assert!(engine.entity_by_label(&data_path(3, 0)).is_none());
    for rank in report.surviving_ranks() {
        for pi in 0..PHASES.len() {
            assert!(
                engine.entity_by_label(&data_path(rank, pi)).is_some(),
                "survivor rank {rank} phase {pi} provenance present"
            );
        }
    }
}

/// Seeded crash-site selection shared by the sweep tests: every rank
/// crashes with probability `prob`, at a uniformly chosen phase.
fn seeded_crashes(world: u32, prob: f64, seed: u64) -> Vec<(u32, usize)> {
    let mut rng = DetRng::new(seed);
    let mut crashes = Vec::new();
    for r in 0..world {
        if rng.chance(prob) {
            crashes.push((r, rng.below(PHASES.len() as u64) as usize));
        }
    }
    crashes
}

/// Crash sites as an outcome field, `rank@phase` in rank order.
fn sites<'a>(crashes: impl IntoIterator<Item = (u32, &'a str)>) -> String {
    let mut crashes: Vec<(u32, &str)> = crashes.into_iter().collect();
    crashes.sort();
    list(
        crashes
            .iter()
            .map(|(rank, phase)| format!("{rank}@{phase}")),
    )
}

/// A rank-crash row: exactly the seeded ranks crash, and every survivor's
/// sub-graph merges.
fn crash_sweep(world: u32, seed: u64, prob: f64) -> String {
    let crashes = seeded_crashes(world, prob, seed);

    let cfg = ProvIoConfig::default().shared();
    let (cluster, mut report) = phased_world(world, &crashes, WorldMode::Faulted, &cfg, None);
    let crashed_ranks: HashSet<u32> = report.crashed.iter().map(|c| c.rank).collect();
    let expected: HashSet<u32> = crashes.iter().map(|(r, _)| *r).collect();
    assert_eq!(crashed_ranks, expected, "exactly the seeded ranks crashed");
    assert_eq!(
        report.surviving_ranks().len(),
        world as usize - crashes.len()
    );

    let (graph, mrep) = merge_directory(&cluster.fs, "/provio");
    report.attach_merge(report.surviving_ranks().len(), &mrep);
    assert_eq!(report.completeness(), 1.0, "all survivor sub-graphs merged");
    assert!(doctor(&graph).is_clean());
    format!(
        "crash world={world} seed={seed} prob={prob} crashed={} survivors={} files={} triples={}",
        sites(report.crashed.iter().map(|c| (c.rank, c.phase.as_str()))),
        report.surviving_ranks().len(),
        mrep.files,
        graph.len()
    )
}

/// A WAL-replay row: the rank-crash row's crashes, ablating the journal.
///
/// Crashing ranks additionally sit on a failing storage target: every
/// snapshot/segment commit of their store is dropped, so nothing they
/// record ever reaches a committed file. With `wal = false` that loss is
/// exact — the merged graph is the ghost baseline, and every structural
/// triple the crashed ranks produced pre-crash is gone. With `wal = true`
/// the journal (whose appends bypass the commit fault, as on a real
/// system where the WAL lives on a separate healthy device) is replayed
/// at merge time, and residual loss per crashed rank is bounded by the
/// group-commit size: at most `wal_group` records were still riding in
/// the unflushed buffer.
fn wal_ablation(world: u32, seed: u64, prob: f64, wal_group: u32) -> String {
    let mut crashes = seeded_crashes(world, prob, seed);
    if crashes.is_empty() {
        crashes.push((world / 2, 2)); // always have a loss to measure
    }

    let cfg_for = |wal: bool| {
        ProvIoConfig::default()
            .with_policy(SerializationPolicy::EveryRecords(1))
            .synchronous()
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
            })
            .with_wal(wal, wal_group)
            .shared()
    };
    // Drop every store commit (snapshot tmp + delta-segment tmp) of the
    // crashing ranks; journal generations (`.ttl.wNNNNNN.nt`) match
    // neither substring and stay writable.
    let plan_for = || {
        let plan = FaultPlan::new(seed ^ 0xF1);
        for &(r, _) in &crashes {
            let pid = 100 + r;
            plan.add_rule(
                FaultRule::fail(FaultOp::WriteAt, FsError::Io)
                    .on_path(format!("prov_p{pid}.ttl.tmp")),
            );
            plan.add_rule(
                FaultRule::fail(FaultOp::WriteAt, FsError::Io)
                    .on_path(format!("prov_p{pid}.ttl.d")),
            );
        }
        plan
    };
    let timing = |iri: &str| iri.ends_with("#timestamp") || iri.ends_with("#elapsed");
    let structural_missing = |from: &prov_io::rdf::Graph, merged: &prov_io::rdf::Graph| {
        from.iter()
            .filter(|t| !timing(t.predicate.as_str()) && !merged.contains(t))
            .count()
    };

    // Loss-measurement baseline: the crashed ranks' exact pre-crash work,
    // committed cleanly (no faults, no crash).
    let (base_cluster, _) = phased_world(world, &crashes, WorldMode::Truncated, &cfg_for(false), None);
    let (baseline, _) = merge_directory(&base_cluster.fs, "/provio");
    // Ghost baseline: survivors only.
    let (ghost_cluster, _) = phased_world(world, &crashes, WorldMode::Ghost, &cfg_for(false), None);
    let (ghost, _) = merge_directory(&ghost_cluster.fs, "/provio");
    let crashed_work = structural_missing(&baseline, &ghost);
    assert!(crashed_work > 0, "crashed ranks did measurable pre-crash work");

    // wal = false: exact loss — everything the crashed ranks recorded.
    let (c_off, _) = phased_world(world, &crashes, WorldMode::Faulted, &cfg_for(false), Some(plan_for()));
    let (g_off, m_off) = merge_directory(&c_off.fs, "/provio");
    assert_eq!(m_off.replayed_triples, 0, "no journal, nothing to replay");
    assert_eq!(
        structural_missing(&baseline, &g_off),
        crashed_work,
        "without the journal, loss is exact: the crashed ranks' entire output"
    );
    assert_eq!(
        structural_missing(&ghost, &g_off),
        0,
        "survivor provenance is never collateral damage"
    );

    // wal = true: replay recovers the journaled records; residual loss is
    // bounded by the group-commit size per crashed rank.
    let (c_on, _) = phased_world(world, &crashes, WorldMode::Faulted, &cfg_for(true), Some(plan_for()));
    let (g_on, m_on) = merge_directory(&c_on.fs, "/provio");
    assert!(m_on.replayed_triples > 0, "journal replay recovered records");
    let residual = structural_missing(&baseline, &g_on);
    assert!(
        residual <= crashes.len() * wal_group as usize,
        "bounded loss: {residual} missing > {} crashed ranks x wal_group {wal_group}",
        crashes.len()
    );
    assert_eq!(structural_missing(&ghost, &g_on), 0);
    assert!(doctor(&g_on).is_clean());
    format!(
        "wal world={world} seed={seed} prob={prob} group={wal_group} crashed={} work={crashed_work} replayed={} residual={residual}",
        sites(crashes.iter().map(|&(r, p)| (r, PHASES[p]))),
        m_on.replayed_triples
    )
}

#[test]
fn transient_flush_failures_trip_the_breaker_without_losing_triples() {
    // Rank 0's store hits persistent write failures mid-run: the breaker
    // trips (no retry storm), intermediate flushes are skipped, and finish
    // — which bypasses the open breaker — still lands every triple.
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
        })
        .with_breaker(2, 10_000_000_000) // trip after 2 failures, 10s backoff
        .shared();

    let world = MpiWorld::new(4);
    let outcomes = world.superstep_named("write", |ctx| {
        let pid = 300 + ctx.rank;
        let (_s, h5) =
            cluster.process(pid, "alice", "pusher", ctx.clock().clone(), Some(&cfg));
        for i in 0..6 {
            let f = h5.create_file(&format!("/burst_r{}_{i}.h5", ctx.rank)).unwrap();
            h5.close_file(f).unwrap();
        }
    });
    assert!(outcomes.iter().all(|o| o.is_completed()));

    // Stop injecting before finish: the failure was transient after all.
    cluster.fs.clear_faults();
    let summaries = cluster.registry.finish_all();
    let s300 = &summaries.iter().find(|(p, _)| *p == 300).unwrap().1;
    assert!(s300.breaker_trips >= 1, "breaker tripped: {s300:?}");
    assert!(
        s300.breaker_skipped >= 1,
        "open breaker skipped flushes instead of hammering the store"
    );
    assert_eq!(
        s300.breaker_state, "closed",
        "successful finish closed the breaker"
    );
    assert!(plan.injected() >= 2, "failures actually happened");

    // No triple lost: every file every rank created is in the merged graph.
    let (graph, mrep) = merge_directory(&cluster.fs, "/provio");
    assert!(mrep.corrupt.is_empty());
    let engine = ProvQueryEngine::new(graph);
    for rank in 0..4u32 {
        for i in 0..6 {
            assert!(
                engine
                    .entity_by_label(&format!("/burst_r{rank}_{i}.h5"))
                    .is_some(),
                "rank {rank} file {i} survived the breaker episode"
            );
        }
    }
}

// Fault-tolerant streaming collection: a live aggregator fed over an
// unreliable interconnect must converge to exactly the graph the post-hoc
// [`merge_directory`] pass produces, whatever the fabric does — loss,
// duplication, reordering, partition episodes, even an aggregator crash
// mid-run (the rank-durable stores are the recovery source).

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

/// The acceptance schedule: ≥20% loss + duplication + reordering
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

/// A netfault row: a 4-rank streamed run over a fabric that loses,
/// duplicates and reorders at `loss`, with one all-ranks partition episode
/// and an aggregator crash + resync when asked, converges to the post-hoc
/// merge with nothing left unacked.
fn netfault(seed: u64, loss: f64, partition: bool, crash: bool) -> String {
    let mut plan = NetPlan::hostile(seed, loss);
    if partition {
        plan = plan.with_partition(PartitionEpisode::all(500_000, 3_000_000));
    }
    let crash_after = crash.then_some(1);
    let (cluster, collector, report, _) = run_streamed(4, plan, crash_after);

    let triples = assert_converged(&cluster, &collector);
    assert_eq!(report.net.unacked_batches, 0);
    if loss > 0.0 {
        assert!(report.net.retries > 0);
    }
    let delivery = report.delivery.expect("run_streamed attaches the aggregator view");
    if crash {
        assert_eq!(delivery.crashes, 1);
        assert_eq!(delivery.resyncs, 1);
    }
    format!(
        "net seed={seed} loss={loss} part={} crash={} triples={triples} retries={} dup={} unacked={}",
        u8::from(partition),
        u8::from(crash),
        report.net.retries,
        delivery.duplicate_batches,
        report.net.unacked_batches
    )
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

// Integrity and trust. A multi-rank workflow writes checksummed sub-graph
// stores; bit rot lands on the committed files after the run, and the
// merge must never put a triple into the merged graph that the fault-free
// run would not have produced, and must account for every piece of damage
// — corrupt batches, quarantined files, chain breaks — in the
// [`RunReport`]. Under `manifest = true`, `finish_all` also seals the run
// (a signed `MANIFEST.provio` plus a `CAMPAIGN.provio` ledger entry); an
// adversary then mutates the committed bytes with format-aware tampering,
// and [`verify_directory`] must report every applied mutation with
// file-level blast radius, zero false positives on the untouched run, and
// the same verdict on re-verify. Legacy (pre-manifest) directories keep
// merging and come back `Unsigned`, never an error.

const MANIFEST: &str = "/provio/MANIFEST.provio";
const LEDGER: &str = "/provio/CAMPAIGN.provio";

/// Run a `world_size`-rank workflow as `program`, whose trackers write
/// N-Triples stores flushed every two records, configured by the `[store]`
/// section `store`. Ranks in `killed` have their tracker forgotten instead
/// of finished — the killed process leaves its snapshot + uncompacted delta
/// segments on disk, which is exactly the state whose chain the merge must
/// verify, and which a seal still signs: the sealer walks the directory,
/// not the registry.
fn store_world(
    world_size: u32,
    killed: &[u32],
    program: &str,
    store: &str,
    faults: Option<Arc<FaultPlan>>,
) -> Cluster {
    let cluster = Cluster::new();
    if let Some(plan) = faults {
        cluster.fs.install_faults(plan);
    }
    // Through the config-file interface: integrity is a knob, not code.
    let cfg = ProvIoConfig::from_ini(&format!(
        "[provio]\n\
         format = ntriples\n\
         policy = every:2\n\
         async = false\n\
         [store]\n\
         {store}"
    ))
    .unwrap()
    .shared();
    let world = MpiWorld::new(world_size);
    let outcomes = world.superstep_named("produce", |ctx| {
        let pid = 500 + ctx.rank;
        let (_s, h5) = cluster.process(pid, "alice", program, ctx.clock().clone(), Some(&cfg));
        for i in 0..6 {
            let f = h5
                .create_file(&format!("/data_r{}_{i}.h5", ctx.rank))
                .unwrap();
            h5.close_file(f).unwrap();
        }
    });
    assert!(outcomes.iter().all(|o| o.is_completed()));
    for &rank in killed {
        if let Some(t) = cluster.registry.unregister(500 + rank) {
            std::mem::forget(t); // killed process: no Drop, no final flush
        }
    }
    cluster.registry.finish_all();
    cluster
}

/// The integrity run: framed stores, or legacy ones without `checksums`.
fn integrity_world(
    world_size: u32,
    killed: &[u32],
    checksums: bool,
    faults: Option<Arc<FaultPlan>>,
) -> Cluster {
    let store = format!("checksum_format = {checksums}\n");
    store_world(world_size, killed, "integrity", &store, faults)
}

/// The trust run: framed stores, sealed under [`KEY`] with `manifest`.
fn trust_world(world_size: u32, killed: &[u32], manifest: bool) -> Cluster {
    let trust_knobs = if manifest {
        format!("manifest = true\nmanifest_key = {KEY}\n")
    } else {
        String::new()
    };
    let store = format!("checksum_format = true\n{trust_knobs}");
    store_world(world_size, killed, "trust", &store, None)
}

#[test]
fn corrupted_files_are_accounted_exactly_and_never_forge_triples() {
    // Rank 4 is killed mid-run so its store survives as snapshot + delta
    // segments; everyone else finishes (and compacts) normally.
    let cluster = integrity_world(6, &[4], true, None);
    let fs = &cluster.fs;

    let files = fs.walk_files("/provio").unwrap();
    assert!(files.len() > 6, "rank 4 contributes more than one file");
    for f in &files {
        let text = String::from_utf8(read(fs, f)).unwrap();
        assert!(
            text.starts_with("# PROVIO1 "),
            "checksum_format=true frames every store file: {f}"
        );
    }
    let segments: Vec<&String> = files
        .iter()
        .filter(|f| f.contains("prov_p504.nt.d"))
        .collect();
    assert!(segments.len() >= 2, "killed rank left segments: {files:?}");

    // Fault-free baseline: same directory, before any rot.
    let (baseline, rb) = merge_directory(fs, "/provio");
    assert!(rb.corrupt.is_empty() && rb.quarantined.is_empty());
    assert_eq!(rb.chain_breaks, 0);
    let baseline_lines = lines(&baseline);
    let clean_files = rb.files;

    // Injected damage, one of each kind:
    // 1. rank 2's snapshot rots to all-zeroes — unrecoverable content;
    let zeroed = "/provio/prov_p502.nt";
    fs.corrupt_at_rest(zeroed, &CorruptKind::ZeroFill, 1).unwrap();
    // 2. a middle delta segment of rank 4's store loses its tail — the
    //    footer is gone, so identity can't verify, and its ordinal leaves a
    //    hole in the store's chain.
    let torn = segments[segments.len() / 2].clone();
    let ino = fs.lookup(&torn).unwrap();
    let size = fs.file_size(ino).unwrap();
    fs.truncate_ino(ino, size / 3, SimTime::ZERO).unwrap();

    let (merged, mrep) = merge_directory(fs, "/provio");
    let merged_lines = lines(&merged);

    // (a) No forgery: everything merged existed in the fault-free run.
    assert!(merged_lines.is_subset(&baseline_lines));
    assert!(
        merged_lines.len() < baseline_lines.len(),
        "the damage actually cost triples"
    );

    // (b) Exact accounting: one corrupt file, one quarantined file, one
    // chain break — nothing more, nothing less.
    assert_eq!(mrep.corrupt, vec![zeroed.to_string()]);
    assert_eq!(mrep.quarantined, vec![torn.clone()]);
    assert_eq!(mrep.chain_breaks, 1, "the quarantined ordinal is a hole");
    assert_eq!(mrep.files, clean_files - 2);
    assert!(fs.exists(&format!("{torn}.quarantine")));

    let mut report = RunReport::new(6);
    report.attach_merge(clean_files, &mrep);
    assert_eq!(report.merge.corrupt.len(), 1);
    assert_eq!(report.merge.quarantined.len(), 1);
    assert_eq!(report.merge.chain_breaks, 1);
    assert!(!report.is_complete());
    let expected = (clean_files - 2) as f64 / clean_files as f64;
    assert!((report.completeness() - expected).abs() < 1e-9);
    assert!(report.to_string().contains("1 chain breaks"));

    // Idempotent re-merge: the quarantined file stays condemned (not
    // re-reported, not re-renamed), the zeroed file is still honestly
    // corrupt, and the chain hole remains visible.
    let (again, r2) = merge_directory(fs, "/provio");
    assert!(r2.quarantined.is_empty());
    assert_eq!(r2.corrupt, vec![zeroed.to_string()]);
    assert_eq!(r2.chain_breaks, 1, "the hole in history does not heal");
    assert_eq!(lines(&again), merged_lines);
    assert!(!fs.exists(&format!("{torn}.quarantine.quarantine")));

    // What survived is still structurally consistent per-file: the doctor
    // may flag cross-file orphan edges (a zeroed store takes its nodes with
    // it) but must not find duplicate GUIDs or forged classes.
    let dr = doctor(&merged);
    assert!(dr.duplicate_guids.is_empty(), "no forged identities: {dr:?}");
}

/// Corruption can also be *scheduled*, not just applied at rest: a
/// [`FaultPlan`] rule arms silent write-path corruption (a failing
/// controller damaging buffers in flight), so every flush rank 1 commits
/// lands rotten on media while the write reports success. The guarantees
/// are the same — no forged triples, damage attributed to the faulted
/// store — exercised through the scheduler rather than post-hoc mutation.
#[test]
fn scheduled_write_corruption_is_detected_and_attributed() {
    let baseline_cluster = integrity_world(4, &[], true, None);
    let (baseline, rb) = merge_directory(&baseline_cluster.fs, "/provio");
    assert!(rb.corrupt.is_empty() && rb.quarantined.is_empty());

    let plan = FaultPlan::new(77).with_rule(
        FaultRule::corrupt(FaultOp::WriteAt, CorruptKind::BitFlips { count: 8 })
            .on_path("prov_p501"),
    );
    let cluster = integrity_world(4, &[], true, Some(Arc::clone(&plan)));
    assert!(plan.injected() > 0, "the schedule actually fired");

    let (merged, report) = merge_directory(&cluster.fs, "/provio");
    // Timing properties are excluded from cross-run comparison: virtual I/O
    // costs depend on global filesystem load, which two separate runs need
    // not reproduce exactly. Everything structural must match.
    let timing = |iri: &str| iri.ends_with("#timestamp") || iri.ends_with("#elapsed");
    let structural = |g: &prov_io::rdf::Graph| -> BTreeSet<String> {
        g.iter()
            .filter(|t| !timing(t.predicate.as_str()))
            .map(|t| t.to_string())
            .collect()
    };
    let baseline_lines = structural(&baseline);
    let merged_lines = structural(&merged);
    assert!(
        merged_lines.is_subset(&baseline_lines),
        "in-flight corruption must never forge a triple"
    );
    let detected =
        !report.corrupt.is_empty() || !report.quarantined.is_empty() || report.chain_breaks > 0;
    assert!(
        detected || merged_lines == baseline_lines,
        "undetected corruption must be harmless"
    );
    // Damage is attributed to the faulted store, never its neighbors.
    for p in report.corrupt.iter().chain(report.quarantined.iter()) {
        assert!(p.contains("prov_p501"), "misattributed damage: {p}");
    }
    // Every committed file is accounted for exactly once.
    assert_eq!(report.files + report.quarantined.len(), rb.files);
}

/// A corruption row: rot hits about half the committed files of a 4-rank
/// run (rank 3 killed), `flips` bit flips each. Framed stores detect every
/// flip or are unharmed by it; the legacy ablation only stays honest.
fn corruption(seed: u64, flips: u32, framed: bool) -> String {
    let cluster = integrity_world(4, &[3], framed, None);
    let fs = &cluster.fs;
    let (baseline, rb) = merge_directory(fs, "/provio");
    assert!(rb.corrupt.is_empty() && rb.quarantined.is_empty());
    let baseline_lines = lines(&baseline);

    // Rot hits roughly half the committed files, `flips` bit flips each.
    let mut rng = DetRng::new(seed);
    let mut hit = 0u32;
    for f in fs.walk_files("/provio").unwrap() {
        if rng.chance(0.5) {
            fs.corrupt_at_rest(&f, &CorruptKind::BitFlips { count: flips }, rng.u64())
                .unwrap();
            hit += 1;
        }
    }
    assert!(hit > 0, "seed {seed} corrupted nothing — widen the sweep");

    let (merged, report) = merge_directory(fs, "/provio");
    if framed {
        // The integrity guarantee: flips are detected or harmless.
        let merged_lines = lines(&merged);
        assert!(
            merged_lines.is_subset(&baseline_lines),
            "forged triple under seed {seed} x{flips}"
        );
        let detected = !report.corrupt.is_empty()
            || !report.quarantined.is_empty()
            || report.chain_breaks > 0;
        if !detected {
            assert_eq!(merged_lines, baseline_lines, "undetected flips must be harmless");
        }
    } else {
        // Legacy ablation: the merge survives and stays honest about what
        // it could not read, but unframed files cannot promise more — a
        // flipped triple can merge silently. (That asymmetry is the point
        // of the checksummed format.)
        assert!(report.quarantined.is_empty(), "legacy files never quarantine");
        assert_eq!(report.chain_breaks, 0, "no chains without frames");
        assert!(report.files + report.corrupt.len() <= rb.files + report.recovered.len());
    }
    format!(
        "rot seed={seed} flips={flips} framed={} hit={hit} files={} corrupt={} quarantined={} breaks={} salvaged={} recovered={} triples={}",
        u8::from(framed),
        report.files,
        report.corrupt.len(),
        report.quarantined.len(),
        report.chain_breaks,
        report.salvaged_batches,
        report.recovered.len(),
        merged.len()
    )
}

/// Store files on disk — what the manifest signs: no trust artifacts, no
/// tmp droppings, no quarantine copies.
fn store_files(fs: &Arc<FileSystem>) -> Vec<String> {
    let mut files: Vec<String> = fs
        .walk_files("/provio")
        .unwrap()
        .into_iter()
        .filter(|p| {
            !p.ends_with(".tmp")
                && !p.ends_with(".quarantine")
                && !p.ends_with("MANIFEST.provio")
                && !p.ends_with("CAMPAIGN.provio")
        })
        .collect();
    files.sort();
    files
}

#[test]
fn sealed_run_is_trusted_files_of_crashed_ranks_included() {
    // Rank 2 crashes before its final flush; its surviving segments must
    // still be signed — the manifest covers the directory, not the ranks
    // that happened to exit cleanly.
    let cluster = trust_world(4, &[2], true);
    let fs = &cluster.fs;

    assert!(fs.exists(MANIFEST), "finish_all sealed the run");
    assert!(fs.exists(LEDGER), "finish_all appended the campaign ledger");

    let report = verify_directory(fs, "/provio", KEY);
    assert!(report.is_trusted(), "clean sealed run: {report}");
    assert!(report.manifest_present && report.manifest_ok && report.ledger_ok);
    let files = store_files(fs);
    assert_eq!(
        report.count(FileVerdict::Verified),
        files.len(),
        "every store file verifies, including the crashed rank's: {report}"
    );
    assert_eq!(report.checks.len(), files.len(), "no spurious rows");
    assert!(
        files.iter().any(|f| f.contains("prov_p502.nt.d")),
        "crashed rank left segments and they are signed: {files:?}"
    );

    // Re-verify is idempotent — verifying changes nothing on disk.
    let again = verify_directory(fs, "/provio", KEY);
    assert_eq!(report.to_string(), again.to_string());

    // The merge is oblivious to the trust artifacts: same triples, no
    // complaints, manifest and ledger never enter the graph.
    let (graph, mrep) = merge_directory(fs, "/provio");
    assert!(mrep.corrupt.is_empty() && mrep.quarantined.is_empty());
    assert_eq!(mrep.files, files.len());
    assert!(
        !lines(&graph).iter().any(|l| l.contains("MANIFEST")),
        "trust artifacts stay out of the merged graph"
    );

    // Trust joins the run report next to completeness.
    let mut run = RunReport::new(4);
    run.attach_merge(mrep.files, &mrep);
    run.attach_verify(&report);
    assert!(run.is_trusted());
    assert!(run.to_string().contains("trust: TRUSTED"), "{run}");
}

/// A tamper row: one mutation of a 3-rank run, `signed = false` being the
/// unsigned ablation. Every applied mutation must flip the run to NOT
/// TRUSTED with blast radius confined to the mutated file; a mutation that
/// found no target (`affected == 0`) must leave the verdict untouched.
fn tamper(seed: u64, kind: TamperKind, signed: bool) -> String {
    let cluster = trust_world(3, &[], signed);
    let fs = &cluster.fs;
    let files = store_files(fs);
    let mut rng = DetRng::new(seed);
    let target = match kind {
        TamperKind::ManifestEdit => MANIFEST.to_string(),
        TamperKind::LedgerTruncate => LEDGER.to_string(),
        _ => files[rng.below(files.len() as u64) as usize].clone(),
    };
    let affected = fs.tamper_at_rest(&target, &kind, seed).unwrap();
    let report = verify_directory(fs, "/provio", KEY);
    let line = format!(
        "tamper seed={seed} kind={kind:?} signed={} target={target} affected={affected} verified={} tampered={} damaged={} missing={} unsigned={} manifest_ok={} ledger_ok={}",
        u8::from(signed),
        report.count(FileVerdict::Verified),
        report.count(FileVerdict::Tampered),
        report.count(FileVerdict::Damaged),
        report.count(FileVerdict::Missing),
        report.count(FileVerdict::Unsigned),
        u8::from(report.manifest_ok),
        u8::from(report.ledger_ok)
    );

    if !signed {
        // Ablation: without a manifest there is nothing to judge —
        // the CRC-patched forgery merges silently. That asymmetry is
        // the signed manifest's whole argument.
        assert!(!report.manifest_present);
        assert!(report.ledger_ok, "no ledger to break");
        assert_eq!(report.count(FileVerdict::Tampered), 0);
        assert_eq!(report.count(FileVerdict::Unsigned), report.checks.len());
        let (_, mrep) = merge_directory(fs, "/provio");
        assert!(
            !mrep.corrupt.contains(&target) && !mrep.quarantined.contains(&target),
            "tamper={kind:?} seed={seed}: a patched rewrite passes every CRC"
        );
        return line;
    }

    if affected == 0 {
        // Provably harmless: the mutation found no valid target and
        // changed nothing, so trust must be intact.
        assert!(report.is_trusted(), "tamper={kind:?} seed={seed}: {report}");
        return line;
    }
    assert!(
        !report.is_trusted(),
        "tamper={kind:?} seed={seed} went undetected: {report}"
    );

    match kind {
        TamperKind::CrcPatchedRewrite | TamperKind::FileSubstitution => {
            // Blast radius: exactly the mutated file, and it is
            // Tampered, not Damaged — every CRC still passes.
            assert_eq!(report.count(FileVerdict::Tampered), 1, "{report}");
            assert_eq!(report.count(FileVerdict::Damaged), 0, "{report}");
            assert_eq!(report.count(FileVerdict::Verified), files.len() - 1);
            let hit: Vec<&str> = report
                .checks
                .iter()
                .filter(|c| c.verdict == FileVerdict::Tampered)
                .map(|c| c.path.as_str())
                .collect();
            assert_eq!(hit, vec![target.as_str()], "misattributed blast radius");
            assert!(report.manifest_ok && report.ledger_ok);

            // The gap verify closes: the merge accepts the forgery —
            // its CRCs, chain, and ordinals are all internally
            // consistent. Only the signed root tells the truth.
            let (graph, mrep) = merge_directory(fs, "/provio");
            assert!(
                !mrep.corrupt.contains(&target) && !mrep.quarantined.contains(&target),
                "tamper={kind:?} seed={seed}: the rewrite should pass the CRC tier"
            );
            if matches!(kind, TamperKind::FileSubstitution) {
                assert!(
                    lines(&graph).iter().any(|l| l.contains("urn:forged")),
                    "the forged triples really merged — that is the threat"
                );
            }

            // Quarantine on verify's verdict; the next merge excludes
            // the forgery and the verdict stays sticky.
            let renamed = quarantine_tampered(fs, &report);
            assert_eq!(renamed, vec![target.clone()]);
            assert!(fs.exists(&format!("{target}.quarantine")));
            let (clean, _) = merge_directory(fs, "/provio");
            assert!(
                !lines(&clean).iter().any(|l| l.contains("urn:forged")),
                "quarantined forgery must not merge"
            );
            let again = verify_directory(fs, "/provio", KEY);
            assert_eq!(again.count(FileVerdict::Tampered), 1, "sticky verdict");
            assert!(!again.is_trusted());
            assert!(
                quarantine_tampered(fs, &again).is_empty(),
                "re-quarantine is a no-op"
            );
        }
        TamperKind::ManifestEdit => {
            // An edited manifest fails its own signature; the files
            // can no longer be judged at all.
            assert!(!report.manifest_ok);
            let bad: Vec<&FileCheck> = report
                .checks
                .iter()
                .filter(|c| c.verdict == FileVerdict::Tampered)
                .collect();
            assert_eq!(bad.len(), 1);
            assert_eq!(bad[0].path, MANIFEST);
            assert_eq!(report.count(FileVerdict::Unsigned), files.len());
        }
        TamperKind::LedgerTruncate => {
            // The files and manifest still verify — only the campaign
            // seal is gone, and that alone breaks trust.
            assert!(report.manifest_ok && !report.ledger_ok);
            assert_eq!(report.count(FileVerdict::Verified), files.len());
            let bad: Vec<&FileCheck> = report
                .checks
                .iter()
                .filter(|c| c.verdict == FileVerdict::Tampered)
                .collect();
            assert_eq!(bad.len(), 1);
            assert_eq!(bad[0].path, LEDGER);
        }
    }
    line
}

#[test]
fn legacy_directory_stays_unsigned_and_keeps_merging() {
    let cluster = trust_world(3, &[], false);
    let fs = &cluster.fs;
    assert!(!fs.exists(MANIFEST) && !fs.exists(LEDGER));

    let report = verify_directory(fs, "/provio", KEY);
    assert!(!report.is_trusted(), "unsigned is not trusted");
    assert!(!report.manifest_present);
    assert!(report.ledger_ok, "nothing sealed, nothing broken");
    assert_eq!(report.count(FileVerdict::Unsigned), report.checks.len());
    assert_eq!(report.count(FileVerdict::Tampered), 0, "no false positives");
    assert!(report.to_string().contains("no manifest"));

    // Merging is exactly the pre-manifest behavior.
    let (graph, mrep) = merge_directory(fs, "/provio");
    assert!(mrep.corrupt.is_empty() && mrep.quarantined.is_empty());
    assert!(!lines(&graph).is_empty());

    // The run report says "unverified" until someone runs verify, and
    // NOT TRUSTED once they do — unsigned completeness is still honest
    // completeness.
    let mut run = RunReport::new(3);
    run.attach_merge(mrep.files, &mrep);
    assert!(run.to_string().contains("trust: unverified"), "{run}");
    run.attach_verify(&report);
    assert!(!run.is_trusted());
    assert!(run.is_complete(), "trust and completeness are orthogonal");
    assert!(run.to_string().contains("NOT TRUSTED"), "{run}");
}

/// Deleting the manifest after sealing is itself evidence: the ledger
/// remembers the run, so the absence reads as tampering, not legacy.
#[test]
fn deleting_the_manifest_is_visible_through_the_ledger() {
    let cluster = trust_world(3, &[], true);
    let fs = &cluster.fs;
    fs.unlink(MANIFEST).unwrap();

    let report = verify_directory(fs, "/provio", KEY);
    assert!(!report.is_trusted());
    assert!(!report.manifest_present && !report.ledger_ok);
    assert!(report
        .checks
        .iter()
        .any(|c| c.path == MANIFEST && c.verdict == FileVerdict::Missing));
}

// Self-healing. A multi-rank workflow writes parity-protected checksummed
// stores and seals a signed manifest; a single artifact per parity group
// is then lost or corrupted at rest, and the scrub pass must restore the
// run to zero data loss — every repaired file byte-identical to what was
// sealed, the manifest verifying again, and the final [`RunReport`]
// complete. Beyond tolerance, the merge's loss accounting (salvage,
// quarantine, honest incompleteness) must stand untouched.

/// A 4-rank parity-protected run. Ranks in `killed` are forgotten instead
/// of finished: their stores survive as snapshot + delta segments (and,
/// when the flush cadence leaves a journaled tail, a live WAL generation)
/// — never compacted, so their mid-run parity groups (width `group`) are
/// what protects them. Survivors compact at finish and get a forced
/// single-member seal over the final snapshot. `finish_all` seals the
/// signed manifest over whatever is on disk.
fn parity_world(
    killed: &[u32],
    group: u32,
    flush_every: u32,
    files_per_rank: u32,
    plan: Option<std::sync::Arc<FaultPlan>>,
) -> Cluster {
    let cluster = Cluster::new();
    if let Some(plan) = plan {
        cluster.fs.install_faults(plan);
    }
    let cfg = ProvIoConfig::from_ini(&format!(
        "[provio]\n\
         format = ntriples\n\
         policy = every:{flush_every}\n\
         async = false\n\
         [store]\n\
         checksum_format = true\n\
         compact_every = 0\n\
         wal = true\n\
         wal_group = 2\n\
         parity = true\n\
         parity_group = {group}\n\
         manifest = true\n\
         manifest_key = {KEY}\n"
    ))
    .unwrap()
    .shared();
    let world = MpiWorld::new(4);
    let outcomes = world.superstep_named("produce", |ctx| {
        let pid = 700 + ctx.rank;
        let (_s, h5) = cluster.process(pid, "alice", "scrubwf", ctx.clock().clone(), Some(&cfg));
        for i in 0..files_per_rank {
            let f = h5
                .create_file(&format!("/data_r{}_{i}.h5", ctx.rank))
                .unwrap();
            h5.close_file(f).unwrap();
        }
    });
    assert!(outcomes.iter().all(|o| o.is_completed()));
    for &rank in killed {
        if let Some(t) = cluster.registry.unregister(700 + rank) {
            std::mem::forget(t); // killed process: no Drop, no final flush
        }
    }
    cluster.registry.finish_all();
    cluster
}

fn is_parity(p: &str) -> bool {
    p.ends_with(".par")
}

/// A scrub row: one covered artifact (or its parity file) is damaged, and
/// the run must come back with zero data loss.
fn scrub_repair(seed: u64, damage: Damage, group: u32) -> String {
    // Rank 2 is killed: its store survives uncompacted with mid-run parity
    // groups over its snapshot and delta segments.
    let cluster = parity_world(&[2], group, 2, 8, None);
    let fs = &cluster.fs;

    // Ground truth before any damage.
    let sealed_image = disk_image(fs);
    let (baseline, rb) = merge_directory(fs, "/provio");
    assert!(rb.corrupt.is_empty() && rb.quarantined.is_empty());
    let baseline_lines = lines(&baseline);
    assert!(verify_directory(fs, "/provio", KEY).is_trusted());
    assert!(scrub_directory(fs, "/provio").is_clean(), "clean run scrubs clean");

    // Target pool: what the sealed parity actually covers. Members for the
    // member-damage kinds, parity files for the parity kinds.
    let covered = repairable_paths(fs, "/provio");
    let mut members: Vec<String> = covered.iter().filter(|p| !is_parity(p)).cloned().collect();
    members.sort();
    let mut parities: Vec<String> = covered.iter().filter(|p| is_parity(p)).cloned().collect();
    parities.sort();
    assert!(!members.is_empty() && !parities.is_empty(), "parity coverage exists");
    // Tampering forges a framed store file; journal generations are
    // framed per chunk, so restrict that kind to snapshot/segment files.
    let tamperable: Vec<String> = members
        .iter()
        .filter(|p| !prov_io::core::frame::is_wal_path(p))
        .cloned()
        .collect();

    let mut rng = DetRng::new(seed);
    let target = match damage {
        Damage::Tamper => tamperable[rng.below(tamperable.len() as u64) as usize].clone(),
        Damage::Parity | Damage::ParityDestroy => {
            parities[rng.below(parities.len() as u64) as usize].clone()
        }
        Damage::Corrupt | Damage::Delete => {
            members[rng.below(members.len() as u64) as usize].clone()
        }
    };
    match damage {
        Damage::Corrupt => {
            fs.corrupt_at_rest(&target, &CorruptKind::BitFlips { count: 3 }, seed).unwrap();
        }
        Damage::Delete => fs.unlink(&target).unwrap(),
        Damage::Tamper => {
            fs.tamper_at_rest(&target, &TamperKind::CrcPatchedRewrite, seed).unwrap();
        }
        Damage::Parity => {
            // Hit the block itself, the raw batch between its `#~R` marker
            // line and the `\n` before the footer: the member records
            // survive, so the parity file must regenerate byte-identical.
            let bytes = read(fs, &target);
            let marker = bytes.windows(4).position(|w| w == b"\n#~R").expect("parity raw batch") + 1;
            let block = marker + bytes[marker..].iter().position(|&b| b == b'\n').unwrap() + 1;
            let footer = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap();
            let off = block + rng.below((footer - block).max(1) as u64) as usize;
            let ino = fs.lookup(&target).unwrap();
            fs.write_at(ino, off as u64, vec![!bytes[off]], SimTime::ZERO).unwrap();
        }
        Damage::ParityDestroy => {
            // Obliterate the whole parity file: redundancy is honestly
            // lost, but no data is — completeness must survive.
            fs.corrupt_at_rest(&target, &CorruptKind::ZeroFill, seed).unwrap();
        }
    }
    assert_ne!(
        disk_image(fs).get(&target),
        sealed_image.get(&target),
        "the damage actually landed on {target}"
    );

    // The damaged parity file's members, held as windows on their files'
    // buffers: a one-member group's block is its member's own buffer, so a
    // rot or a repair that wrote into it would show here.
    let members_of = |par: &[u8]| -> Vec<String> {
        let text = String::from_utf8_lossy(par);
        text.lines().filter_map(|l| Some(l.strip_prefix("member ")?.split_once(" path=")?.1.to_string())).collect()
    };
    let held: Vec<(String, _)> = match damage {
        Damage::Parity => members_of(&sealed_image[&target])
            .into_iter()
            .map(|path| {
                let window = fs.read_at(fs.lookup(&path).unwrap(), 0, fs.stat(&path).unwrap().size).unwrap();
                (path, window)
            })
            .collect(),
        _ => Vec::new(),
    };
    let scrubbed = scrub_directory(fs, "/provio");
    match damage {
        Damage::Parity => {
            assert_eq!(scrubbed.repaired_parity, vec![target.clone()], "{scrubbed}");
            assert!(scrubbed.fully_repaired(), "{scrubbed}");
            for (path, window) in &held {
                assert!(window[..] == sealed_image[path][..], "{path}: its buffer is as committed");
            }
        }
        Damage::ParityDestroy => {
            assert_eq!(scrubbed.unusable_parity, vec![target.clone()], "{scrubbed}");
            assert!(scrubbed.unrecoverable.is_empty(), "{scrubbed}");
        }
        _ => {
            assert_eq!(scrubbed.repaired_files, vec![target.clone()], "{scrubbed}");
            assert!(scrubbed.fully_repaired(), "{scrubbed}");
        }
    }

    // Zero data loss, literally: every file byte-identical to the sealed
    // image (the destroyed-parity case loses only the parity file itself).
    let healed = disk_image(fs);
    for (path, bytes) in &sealed_image {
        if damage == Damage::ParityDestroy && path == &target {
            continue;
        }
        assert_eq!(
            healed.get(path).map(Vec::len),
            Some(bytes.len()),
            "file size restored: {path}"
        );
        assert!(healed.get(path) == Some(bytes), "byte-identical after scrub: {path}");
    }

    // The sealed manifest verifies again after repair. A destroyed parity
    // file is the one honest exception: unframed bytes where a framed
    // artifact was sealed are indistinguishable from replacement, so that
    // file — and only that file — fails verification, while every data
    // artifact still verifies.
    let verified = verify_directory(fs, "/provio", KEY);
    if damage == Damage::ParityDestroy {
        assert_eq!(verified.count(FileVerdict::Tampered), 1, "{verified}");
        assert!(!verified.is_trusted());
    } else {
        assert!(verified.is_trusted(), "{verified}");
        assert_eq!(verified.count(FileVerdict::Damaged), 0, "{verified}");
        assert_eq!(verified.count(FileVerdict::Missing), 0, "{verified}");
    }

    // And the merged graph is exactly the fault-free one.
    let (merged, mrep) = merge_directory(fs, "/provio");
    assert_eq!(lines(&merged), baseline_lines, "merge sees no damage at all");
    assert!(mrep.corrupt.is_empty() && mrep.quarantined.is_empty(), "{mrep}");
    assert_eq!(mrep.chain_breaks, 0);

    let mut report = RunReport::new(4);
    report.record_outcomes::<()>(&[]);
    report.attach_merge(rb.files, &mrep);
    report.attach_scrub(&scrubbed);
    report.attach_verify(&verified);
    assert!(report.is_complete(), "zero data loss: {report}");
    if damage != Damage::ParityDestroy {
        assert!(report.is_trusted(), "{report}");
    }
    if damage != Damage::Parity && damage != Damage::ParityDestroy {
        assert_eq!(report.scrub.repaired_files.len(), 1);
        assert!(report.to_string().contains("scrub: 1 files repaired"), "{report}");
    }
    format!(
        "scrub seed={seed} damage={damage:?} group={group} target={target} groups={} repaired={} batches={} parity={} unusable={} tampered={} files={} triples={}",
        scrubbed.groups,
        list(&scrubbed.repaired_files),
        scrubbed.repaired_batches,
        list(&scrubbed.repaired_parity),
        list(&scrubbed.unusable_parity),
        verified.count(FileVerdict::Tampered),
        mrep.files,
        merged.len()
    )
}

/// The crashed rank's journal tail — the bytes its WAL held that no
/// snapshot or segment ever covered — is itself parity-protected: rot it
/// (or delete the whole generation) and scrub must bring the replayed
/// triples back bit-for-bit.
fn journal_tail(seed: u64) -> String {
    // Rank 1's store commits are all dropped by fault injection (snapshot
    // tmp and delta-segment writes fail), so its records live *only* in
    // its journal — the crashed-rank tail. Width 1 seals parity per
    // journal chunk, so the whole generation is covered as it commits.
    let plan = FaultPlan::new(seed ^ 0x5C);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, prov_io::hpcfs::FsError::Io).on_path("prov_p701.nt.tmp"));
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, prov_io::hpcfs::FsError::Io).on_path("prov_p701.nt.d"));
    let cluster = parity_world(&[1], 1, 4, 8, Some(plan));
    let fs = &cluster.fs;

    let gens: Vec<String> = fs
        .walk_files("/provio")
        .unwrap()
        .into_iter()
        .filter(|p| p.contains("prov_p701") && prov_io::core::frame::is_wal_path(p))
        .collect();
    assert!(!gens.is_empty(), "the killed rank left a live journal generation");

    let sealed_image = disk_image(fs);
    let (baseline, rb) = merge_directory(fs, "/provio");
    assert!(
        !baseline.is_empty() && rb.replayed_triples > 0,
        "the crashed rank's tail only exists in its journal: {rb}"
    );
    let baseline_lines = lines(&baseline);

    let mut rng = DetRng::new(seed);
    let target = gens[rng.below(gens.len() as u64) as usize].clone();
    let rot = rng.chance(0.5);
    if rot {
        fs.corrupt_at_rest(&target, &CorruptKind::BitFlips { count: 2 }, seed).unwrap();
    } else {
        fs.unlink(&target).unwrap();
    }

    let scrubbed = scrub_directory(fs, "/provio");
    assert!(scrubbed.repaired_files.contains(&target), "{scrubbed}");
    assert!(scrubbed.fully_repaired(), "{scrubbed}");
    let healed = disk_image(fs);
    for (path, bytes) in &sealed_image {
        assert!(healed.get(path) == Some(bytes), "byte-identical after scrub: {path}");
    }

    let (merged, mrep) = merge_directory(fs, "/provio");
    assert_eq!(lines(&merged), baseline_lines);
    assert_eq!(mrep.replayed_triples, rb.replayed_triples, "the tail replays in full");
    assert_eq!(mrep.wal_tails_truncated, 0, "{mrep}");
    assert!(verify_directory(fs, "/provio", KEY).is_trusted());
    format!(
        "tail seed={seed} target={target} damage={} replayed={} repaired={} batches={}",
        if rot { "rot" } else { "delete" },
        mrep.replayed_triples,
        list(&scrubbed.repaired_files),
        scrubbed.repaired_batches
    )
}

/// Two members lost in one group: over tolerance. Scrub must refuse to
/// guess, report the loss, and leave the merge's loss accounting (salvage,
/// quarantine, honest incompleteness) exactly as it was.
#[test]
fn beyond_tolerance_falls_back_to_loss_accounting() {
    let cluster = parity_world(&[2], 2, 2, 8, None);
    let fs = &cluster.fs;

    // The killed rank's first commit-plane group covers its snapshot and
    // first delta segment (commit order, width 2).
    let snap = "/provio/prov_p702.nt";
    let seg = "/provio/prov_p702.nt.d000000.nt";
    assert!(fs.exists(snap) && fs.exists(seg));
    let (_, rb) = merge_directory(fs, "/provio");
    fs.unlink(snap).unwrap();
    fs.unlink(seg).unwrap();

    let before = disk_image(fs);
    let scrubbed = scrub_directory(fs, "/provio");
    let mut lost = scrubbed.unrecoverable.clone();
    lost.sort();
    assert_eq!(lost, vec![snap.to_string(), seg.to_string()], "{scrubbed}");
    assert!(scrubbed.repaired_files.is_empty(), "no partial guesses");
    // Scrub touched nothing it could not prove.
    assert_eq!(disk_image(fs), before, "over-tolerance scrub is read-only");

    // Loss accounting stands: fewer sub-graphs, missing files on verify,
    // and the run is honestly incomplete.
    let (_, mrep) = merge_directory(fs, "/provio");
    assert!(mrep.files < rb.files);
    let verified = verify_directory(fs, "/provio", KEY);
    assert!(verified.count(FileVerdict::Missing) >= 2, "{verified}");
    assert!(!verified.is_trusted());
    let mut report = RunReport::new(4);
    report.attach_merge(rb.files, &mrep);
    report.attach_scrub(&scrubbed);
    report.attach_verify(&verified);
    assert!(!report.is_complete(), "{report}");
    assert_eq!(report.scrub.unrecoverable.len(), 2);
}

// Torn commits: whatever crash point and torn-write length hits one rank's
// commit, the merge recovers every committed sub-graph in full, salvages
// what it can of the torn one, and never reports a committed file corrupt.

/// A torn-commit row: rank 1 of three dies at `op` of its N-Triples
/// commit, its write torn after `keep` bytes; ranks 0 and 2 commit cleanly.
fn torn_commit(op: FaultOp, keep: u64) -> String {
    let ops = [
        FaultOp::CreateFile,
        FaultOp::WriteAt,
        FaultOp::TruncateIno,
        FaultOp::Rename,
    ];
    let i = ops
        .iter()
        .position(|&o| o == op)
        .expect("an op the sweep crashes at");
    let ctx = format!("op={op:?} keep={keep}");
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .shared();
    for pid in [0u32, 1, 2] {
        let (_s, h5) =
            cluster.process(pid, "alice", "prog", VirtualClock::new(), Some(&cfg));
        let f = h5.create_file(&format!("/rank{pid}.h5")).unwrap();
        h5.close_file(f).unwrap();
    }
    // Rank 1 dies mid-serialization; ranks 0 and 2 commit cleanly.
    let plan = FaultPlan::new(1000 + i as u64);
    plan.add_rule(FaultRule::crash(op).on_path("prov_p1.nt").torn(keep));
    cluster.fs.install_faults(plan);
    let summaries = cluster.registry.finish_all();
    let crashed = &summaries.iter().find(|(p, _)| *p == 1).unwrap().1;
    assert_eq!(crashed.store_bytes, 0, "{ctx}");
    assert!(crashed.degraded, "{ctx}");
    assert_eq!(crashed.last_error.as_deref(), Some("ESIMCRASH"), "{ctx}");
    cluster.fs.clear_faults(); // the merge runs on a healthy reader

    let (graph, report) = merge_directory(&cluster.fs, "/provio");
    let triples = graph.len();
    let engine = ProvQueryEngine::new(graph);
    for pid in [0u32, 2] {
        assert!(
            engine.entity_by_label(&format!("/rank{pid}.h5")).is_some(),
            "{ctx}: committed sub-graph of rank {pid} fully recovered"
        );
    }
    // A torn file can only ever be the crashed rank's tmp; merge
    // must never find a committed file unreadable.
    for c in &report.corrupt {
        assert!(c.ends_with(".tmp"), "{ctx}: committed file torn: {c}");
    }
    if op == FaultOp::WriteAt && keep >= 400 {
        // A mid-file tear salvages a prefix; a tear past the end
        // of the serialization leaves a complete, adoptable tmp.
        assert!(
            report.salvaged_triples > 0
                || engine.entity_by_label("/rank1.h5").is_some(),
            "{ctx}: torn prefix long enough to salvage"
        );
    }
    if op == FaultOp::Rename {
        // tmp was fully serialized; adoption recovers rank 1 whole.
        assert!(
            engine.entity_by_label("/rank1.h5").is_some(),
            "{ctx}: complete orphan tmp adopted"
        );
    }
    format!(
        "torn op={op:?} keep={keep} files={} corrupt={} recovered={} salvaged={} rank1={} triples={triples}",
        report.files,
        list(&report.corrupt),
        list(&report.recovered),
        report.salvaged_triples,
        u8::from(engine.entity_by_label("/rank1.h5").is_some())
    )
}

// Crash-state exploration: every operation prefix of a recorded workload,
// with torn-tail and every barrier-free reorder variant, reconstructed and
// recovered twice, holds the invariant set of DESIGN.md §15.

/// An exploration row: two ranks push `pushes` records each, flushing
/// every second push, with `groups` as the WAL group, the parity group and
/// the compaction cadence at once. Groups above the flush cadence force
/// partial WAL and parity groups out at flush boundaries, the shape that
/// exposed the per-rank ack granularity. An unsigned row runs without the
/// trust tier: durability and loss bounds must hold on their own.
fn explore(pushes: usize, groups: u32, signed: bool) -> String {
    let mut cfg = CrashcheckConfig {
        pushes,
        wal_group: groups,
        parity_group: groups,
        compact_every: groups,
        max_dropped: usize::MAX,
        max_states: 0,
        ..CrashcheckConfig::default()
    };
    if !signed {
        cfg.manifest_key = None;
    }
    let (w, report) = crashcheck(&cfg);
    if let Some(min) = report.minimized() {
        panic!("{report}\n{}", repro_text(&w, min));
    }
    // No budget was set: the enumeration covered at least one state per
    // operation prefix, so the whole protocol timeline was explored.
    assert_eq!(report.checked, report.states);
    assert!(report.states > w.ops.len());
    format!("explore ops={} states={}", w.ops.len(), report.states)
}
