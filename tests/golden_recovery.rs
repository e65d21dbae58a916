//! What recovery makes of a damaged run directory is frozen: `recover_all`
//! over the every-plane scenario of `golden_store.rs` — clean, damaged
//! within parity tolerance, and damaged beyond it — must leave exactly the
//! bytes and file names, issue exactly the mutating file-system operations
//! in exactly the order, merge exactly the graph and print exactly the four
//! reports it did when the values below were recorded (at the commit before
//! the read path was restructured). A second pass must change nothing.
//!
//! Beside it, how often recovery reads: every tier reads each file it needs
//! once, counted by a zero-delay fault rule on `read_at`.

mod common;

use common::{durable_config, graph_digest, tracked_rank, Image, DIR, KEY, RANKS, SEED};
use prov_io::core::{recover_all, scrub_directory, ProvenanceStore, RdfFormat, TrackerRegistry};
use prov_io::hpcfs::{
    CorruptKind, FaultOp, FaultPlan, FaultRule, FileSystem, LustreConfig, OpTrace, TamperKind,
};
use prov_io::rdf::{Iri, Subject, Term, Triple};
use prov_io::simrt::{DetRng, SimTime};
use std::sync::Arc;

/// The rank that never finishes (scenarios with an unfinished store).
const UNFINISHED: u32 = RANKS;

fn snapshot(pid: u32) -> String {
    format!("{DIR}/prov_p{pid}.nt")
}

/// The sealed every-plane directory: four finished ranks and, when asked
/// for, a fifth writer that died before `finish_all` sealed the run.
fn capture(unfinished: bool) -> Arc<FileSystem> {
    let cfg = durable_config();
    let fs = FileSystem::new(LustreConfig::default());
    let registry = TrackerRegistry::new();
    for pid in 0..RANKS {
        registry.register(pid, tracked_rank(&cfg, &fs, pid));
    }
    if unfinished {
        unfinished_store(&fs);
    }
    let summaries = registry.finish_all();
    assert!(summaries.iter().all(|(_, s)| !s.degraded));
    fs
}

/// A store driven directly and never finished: its snapshot, live
/// segments, parity groups of two on both planes and a journaled,
/// unflushed tail stay behind (a synchronous store's `Drop` writes nothing).
fn unfinished_store(fs: &Arc<FileSystem>) {
    let store = ProvenanceStore::new(
        Arc::clone(fs),
        snapshot(UNFINISHED),
        RdfFormat::NTriples,
        false,
    )
    .with_checksums(true)
    .with_wal(true, 4)
    .with_parity(true, 2)
    .with_compact_every(3);
    let mut rng = DetRng::with_stream(SEED, 98);
    for push in 0..58u64 {
        let batch: Vec<Triple> = (0..rng.range(1, 7))
            .map(|_| {
                Triple::new(
                    Subject::iri(format!("urn:golden:s{}", rng.below(120))),
                    Iri::new(format!("urn:golden:p{}", rng.below(3))),
                    Term::plain(format!("value {}", rng.below(9))),
                )
            })
            .collect();
        store.push(batch, None);
        if push % 5 == 4 {
            store.flush(None);
        }
    }
    store.wal_sync();
}

fn files_with(fs: &Arc<FileSystem>, marker: &str) -> Vec<String> {
    let files = fs.walk_files(DIR).expect("store directory");
    files.into_iter().filter(|p| p.contains(marker)).collect()
}

fn rot(fs: &Arc<FileSystem>, path: &str, seed: u64) {
    let hit = fs.corrupt_at_rest(path, &CorruptKind::BitFlips { count: 3 }, seed);
    assert!(hit.is_ok_and(|n| n > 0), "{path} rotted");
}

fn rewrite(fs: &Arc<FileSystem>, path: &str, seed: u64) {
    let hit = fs.tamper_at_rest(path, &TamperKind::CrcPatchedRewrite, seed);
    assert!(hit.is_ok_and(|n| n > 0), "{path} rewritten");
}

fn read(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
    let ino = fs.lookup(path).expect("file");
    let size = fs.file_size(ino).expect("file");
    fs.read_at(ino, 0, size).expect("readable").to_vec()
}

fn write(fs: &Arc<FileSystem>, path: &str, bytes: &[u8]) {
    let ino = fs
        .create_file(path, false, "golden", SimTime::ZERO)
        .expect("created");
    fs.write_at(ino, 0, bytes, SimTime::ZERO).expect("written");
}

/// Damage parity can absorb: one rotted member, one deleted member of
/// another group, a torn journal tail on the unfinished store, an orphan
/// tmp torn mid-frame, and a rotted parity block.
fn damage_in_tolerance(fs: &Arc<FileSystem>) {
    rot(fs, &snapshot(0), 11);
    fs.unlink(&snapshot(1)).expect("deleted");
    let journal = files_with(fs, &format!("prov_p{UNFINISHED}.nt.w"))
        .pop()
        .expect("a journal");
    let ino = fs.lookup(&journal).expect("journal");
    let size = fs.file_size(ino).expect("journal");
    fs.truncate_ino(ino, size - 41, SimTime::ZERO)
        .expect("torn");
    let half = read(fs, &snapshot(2));
    write(
        fs,
        &format!("{}.d000007.nt.tmp", snapshot(2)),
        &half[..half.len() / 2],
    );
    rot(fs, &format!("{}.p000003.par", snapshot(3)), 12);
}

/// Damage beyond tolerance, and an adversary: both members of the
/// unfinished store's commit-plane group lost; one CRC-patched rewrite
/// parity can still undo, and one whose parity file went with it, so only
/// quarantine is left.
fn damage_over_tolerance(fs: &Arc<FileSystem>) {
    fs.unlink(&snapshot(UNFINISHED)).expect("deleted");
    for segment in files_with(fs, &format!("prov_p{UNFINISHED}.nt.d")) {
        fs.unlink(&segment).expect("deleted");
    }
    rewrite(fs, &snapshot(0), 21);
    rewrite(fs, &snapshot(1), 22);
    fs.unlink(&format!("{}.p000003.par", snapshot(1)))
        .expect("deleted");
}

/// One `recover_all` under a fresh op trace, as the text the tests pin.
fn recovery(fs: &Arc<FileSystem>) -> (Image, String) {
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));
    let out = recover_all(fs, DIR, Some(KEY));
    fs.detach_tracer();
    let image = Image::of(fs, &trace);
    let text = format!(
        "directory {}\nmutations {} {}\ngraph {} {}\n{}\n{}\n{}\n{}\nquarantined {:?}\n",
        image.directory_digest(),
        image.ops.len(),
        image.trace_digest(),
        out.graph.len(),
        graph_digest(&out.graph),
        out.scrub,
        out.merge,
        out.verify.as_ref().expect("keyed recovery audits"),
        out.report(),
        out.quarantined,
    );
    (image, text)
}

/// Recover the scenario twice from scratch (the runs must agree), compare
/// with the recorded text, then recover the recovered directory again: no
/// byte moves and no mutating operation is issued.
fn assert_frozen(scenario: impl Fn() -> Arc<FileSystem>, recorded: &str) {
    let fs = scenario();
    let (image, text) = recovery(&fs);
    assert!(text == recovery(&scenario()).1, "two runs, two results");
    assert_eq!(text, recorded, "(left: this build, right: recorded)");
    let (again, _) = recovery(&fs);
    assert!(again.files == image.files, "a second pass moved bytes");
    assert_eq!(again.ops, Vec::new(), "a second pass mutated the directory");
}

/// Recorded at 3ce4414, the commit before the read path was restructured.
const CLEAN: &str = "\
directory cd5285346013533d7744eb1f251221b2528353e11c7692ebafbcbb39b9db4cee\n\
mutations 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n\
graph 100700 fb2a5313f89ff9d5ebde420032f08a524023780f7c507120c565aef331239964\n\
scrub: 4 groups, 0 files repaired (0 batches), 0 parity regenerated, 0 unrecoverable, 0 parity unusable, 0 stale groups\n\
merge: 4 files, 100700 triples, 0 salvaged (0 batches), 0 replayed from journals, 0 files lost, 0 recovered, 0 quarantined, 0 chain breaks, 0 journal tails truncated\n\
verify /provio: TRUSTED — 8 verified, 0 tampered, 0 damaged, 0 missing, 0 unsigned; manifest signed; ledger sealed\n\
run: 0/0 ranks survived; 4/4 sub-graphs recovered (100.0% complete), 100700 triples merged, 0 salvaged, 0 replayed from journals, 0 files lost, 0 quarantined, 0 chain breaks, 0 journal tails truncated; trust: TRUSTED — 8 verified, 0 tampered, 0 missing, 0 unsigned, manifest signed, ledger sealed\n\
quarantined []\n\
";

const IN_TOLERANCE: &str = "\
directory d6affc4c777c9a0f697849ebbab7e2b6ddc2bfa2be809df842888d6c1dcaeac8\n\
mutations 16 9001225383769f54d668d7ae765c1ac05a64d4a47985016950c957eac3d9e0bd\n\
graph 100910 d52560ea5d84555a6245ae7a4bd1e9a02d663551f0b2c0773b470afac430e185\n\
scrub: 6 groups, 3 files repaired (398 batches), 1 parity regenerated, 0 unrecoverable, 0 parity unusable, 0 stale groups\n\
merge: 6 files, 100910 triples, 0 salvaged (0 batches), 9 replayed from journals, 0 files lost, 0 recovered, 0 quarantined, 0 chain breaks, 0 journal tails truncated\n\
verify /provio: TRUSTED — 13 verified, 0 tampered, 0 damaged, 0 missing, 0 unsigned; manifest signed; ledger sealed\n\
run: 0/0 ranks survived; 6/6 sub-graphs recovered (100.0% complete), 100910 triples merged, 0 salvaged, 9 replayed from journals, 0 files lost, 0 quarantined, 0 chain breaks, 0 journal tails truncated; scrub: 3 files repaired (398 batches), 0 unrecoverable; trust: TRUSTED — 13 verified, 0 tampered, 0 missing, 0 unsigned, manifest signed, ledger sealed\n\
quarantined []\n\
";

const OVER_TOLERANCE: &str = "\
directory 7ab02e58f783eb0b7602568f54f6796750c81e5e5770ac18e40497e53d6551b6\n\
mutations 5 24b851cdf7d82a83ec071fd86ab2933d85dd258347cfac5df01dbc00b9c32749\n\
graph 100709 2acf522b3b9b5ebe9dff641730ab28b11bcc0319f04294ac8ac66f010213cd56\n\
scrub: 5 groups, 1 files repaired (1 batches), 0 parity regenerated, 2 unrecoverable, 0 parity unusable, 0 stale groups\n\
merge: 4 files, 100709 triples, 0 salvaged (0 batches), 9 replayed from journals, 0 files lost, 0 recovered, 0 quarantined, 0 chain breaks, 0 journal tails truncated\n\
verify /provio: NOT TRUSTED — 9 verified, 1 tampered, 0 damaged, 3 missing, 0 unsigned; manifest signed; ledger sealed\n\
\x20 tampered  /provio/prov_p1.nt — internally consistent but the Merkle root differs from the signed root\n\
\x20 missing   /provio/prov_p1.nt.p000003.par — listed in the manifest but absent on disk\n\
\x20 missing   /provio/prov_p4.nt — listed in the manifest but absent on disk\n\
\x20 missing   /provio/prov_p4.nt.d000009.nt — listed in the manifest but absent on disk\n\
run: 0/0 ranks survived; 4/4 sub-graphs recovered (100.0% complete), 100709 triples merged, 0 salvaged, 9 replayed from journals, 0 files lost, 0 quarantined, 0 chain breaks, 0 journal tails truncated; scrub: 1 files repaired (1 batches), 2 unrecoverable; trust: NOT TRUSTED — 9 verified, 1 tampered, 3 missing, 0 unsigned, manifest signed, ledger sealed\n\
quarantined [\"/provio/prov_p1.nt\"]\n\
";

#[test]
fn clean_directory_recovery_is_frozen() {
    assert_frozen(|| capture(false), CLEAN);
}

#[test]
fn in_tolerance_recovery_is_frozen() {
    assert_frozen(
        || {
            let fs = capture(true);
            damage_in_tolerance(&fs);
            fs
        },
        IN_TOLERANCE,
    );
}

#[test]
fn over_tolerance_and_tamper_recovery_is_frozen() {
    assert_frozen(
        || {
            let fs = capture(true);
            damage_over_tolerance(&fs);
            fs
        },
        OVER_TOLERANCE,
    );
}

/// `read_at` calls `work` issues, counted by a zero-delay fault rule.
fn reads(fs: &Arc<FileSystem>, work: impl FnOnce()) -> u64 {
    let plan = FaultPlan::new(0).with_rule(FaultRule::delay(FaultOp::ReadAt, 0));
    fs.install_faults(Arc::clone(&plan));
    work();
    fs.clear_faults();
    plan.injected()
}

#[test]
fn each_tier_reads_each_file_once() {
    // Ten files: four snapshots, their four single-member parity files,
    // the manifest and the ledger. Scrub reads every parity file and every
    // member (8), merge every snapshot (4), verify the ledger, the manifest
    // and the eight files it lists (10); with nothing tampered, the
    // quarantine sweep has nothing to ask scrub about (0).
    let fs = capture(false);
    assert_eq!(fs.walk_files(DIR).expect("store directory").len(), 10);
    let clean = reads(&fs, || {
        assert!(recover_all(&fs, DIR, Some(KEY)).report().is_trusted());
    });
    assert_eq!(clean, 22, "clean keyed recover_all");

    // One rotted member costs no read more than a clean pass (8 and 22
    // when this was written; 10 and 32 before): the bytes that classify
    // it also count its failed batches and answer the superseded check,
    // and the repair writes back what it reconstructed without reading.
    rot(&fs, &snapshot(0), 11);
    let scrub_only = reads(&fs, || {
        assert_eq!(scrub_directory(&fs, DIR).repaired_files, vec![snapshot(0)]);
    });
    assert!(
        scrub_only <= 9,
        "scrub with one rotted member read {scrub_only} times"
    );

    rot(&fs, &snapshot(0), 11);
    let repairing = reads(&fs, || {
        assert!(recover_all(&fs, DIR, Some(KEY)).report().is_trusted());
    });
    assert!(
        repairing <= 23,
        "recover_all with one rotted member read {repairing} times"
    );
}
