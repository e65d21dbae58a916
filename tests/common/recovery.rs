//! The damaged run directories `golden_recovery.rs` recovers — the
//! every-plane scenario of `golden_store.rs` clean, damaged within parity
//! tolerance, and damaged beyond it — and what recovery made of each when
//! it was recorded.

use super::{durable_config, files_under, graph_digest, tracked_rank, Image, DIR, KEY, RANKS, SEED};
use prov_io::core::{
    merge_directory, quarantine_tampered, recover_all, scrub_directory, verify_directory,
    ProvenanceStore, RdfFormat, RecoveryOutcome, TrackerRegistry,
};
use prov_io::hpcfs::{CorruptKind, FileSystem, LustreConfig, OpTrace, TamperKind};
use prov_io::rdf::{Iri, Subject, Term, Triple};
use prov_io::simrt::{DetRng, SimTime};
use std::sync::Arc;

/// The rank that never finishes (scenarios with an unfinished store).
pub const UNFINISHED: u32 = RANKS;

pub fn snapshot(pid: u32) -> String {
    format!("{DIR}/prov_p{pid}.nt")
}

/// The sealed every-plane directory: four finished ranks and, when asked
/// for, a fifth writer that died before `finish_all` sealed the run.
pub fn capture(unfinished: bool) -> Arc<FileSystem> {
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
pub fn unfinished_store(fs: &Arc<FileSystem>) {
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

pub fn files_with(fs: &Arc<FileSystem>, marker: &str) -> Vec<String> {
    let files = fs.walk_files(DIR).expect("store directory");
    files.into_iter().filter(|p| p.contains(marker)).collect()
}

pub fn rot(fs: &Arc<FileSystem>, path: &str, seed: u64) {
    let hit = fs.corrupt_at_rest(path, &CorruptKind::BitFlips { count: 3 }, seed);
    assert!(hit.is_ok_and(|n| n > 0), "{path} rotted");
}

pub fn rewrite(fs: &Arc<FileSystem>, path: &str, seed: u64) {
    let hit = fs.tamper_at_rest(path, &TamperKind::CrcPatchedRewrite, seed);
    assert!(hit.is_ok_and(|n| n > 0), "{path} rewritten");
}

pub fn read(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
    let ino = fs.lookup(path).expect("file");
    let size = fs.file_size(ino).expect("file");
    fs.read_at(ino, 0, size).expect("readable").to_vec()
}

pub fn write(fs: &Arc<FileSystem>, path: &str, bytes: &[u8]) {
    let ino = fs
        .create_file(path, false, "golden", SimTime::ZERO)
        .expect("created");
    fs.write_at(ino, 0, bytes, SimTime::ZERO).expect("written");
}

/// Damage parity can absorb: one rotted member, one deleted member of
/// another group, a torn journal tail on the unfinished store, an orphan
/// tmp torn mid-frame, and a rotted parity block.
pub fn damage_in_tolerance(fs: &Arc<FileSystem>) {
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
pub fn damage_over_tolerance(fs: &Arc<FileSystem>) {
    fs.unlink(&snapshot(UNFINISHED)).expect("deleted");
    for segment in files_with(fs, &format!("prov_p{UNFINISHED}.nt.d")) {
        fs.unlink(&segment).expect("deleted");
    }
    rewrite(fs, &snapshot(0), 21);
    rewrite(fs, &snapshot(1), 22);
    fs.unlink(&format!("{}.p000003.par", snapshot(1)))
        .expect("deleted");
}

/// The keyed `recover_all`, which hands what scrub decoded to merge and
/// verify.
pub fn keyed(fs: &Arc<FileSystem>) -> RecoveryOutcome {
    recover_all(fs, DIR, Some(KEY))
}

/// The same tiers in the same order, called one by one (as the benchmark's
/// traced run does): nothing passes from one to the next but the disk.
pub fn by_hand(fs: &Arc<FileSystem>) -> RecoveryOutcome {
    let scrub = scrub_directory(fs, DIR);
    let (graph, merge) = merge_directory(fs, DIR);
    let audit = verify_directory(fs, DIR, KEY);
    let quarantined = quarantine_tampered(fs, &audit);
    RecoveryOutcome { graph, scrub, merge, verify: Some(audit), quarantined }
}

/// A whole recovery of `DIR`: [`keyed`] or [`by_hand`].
pub type Recover = fn(&Arc<FileSystem>) -> RecoveryOutcome;

/// One recovery under a fresh op trace, as the text the tests pin.
pub fn recovery(fs: &Arc<FileSystem>, recover: Recover) -> (Image, String) {
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));
    let out = recover(fs);
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

/// Recorded at 3ce4414, the commit before the read path was restructured.
pub const CLEAN: &str = "\
directory ca32a0ee588a7278d32b594383254b7e490f9f836767c4c5874ec3a532832073\n\
mutations 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n\
graph 100700 fb2a5313f89ff9d5ebde420032f08a524023780f7c507120c565aef331239964\n\
scrub: 4 groups, 0 files repaired (0 batches), 0 parity regenerated, 0 unrecoverable, 0 parity unusable, 0 stale groups\n\
merge: 4 files, 100700 triples, 0 salvaged (0 batches), 0 replayed from journals, 0 files lost, 0 recovered, 0 quarantined, 0 chain breaks, 0 journal tails truncated\n\
verify /provio: TRUSTED — 8 verified, 0 tampered, 0 damaged, 0 missing, 0 unsigned; manifest signed; ledger sealed\n\
run: 0/0 ranks survived; 4/4 sub-graphs recovered (100.0% complete), 100700 triples merged, 0 salvaged, 0 replayed from journals, 0 files lost, 0 quarantined, 0 chain breaks, 0 journal tails truncated; trust: TRUSTED — 8 verified, 0 tampered, 0 missing, 0 unsigned, manifest signed, ledger sealed\n\
quarantined []\n\
";

pub const IN_TOLERANCE: &str = "\
directory d6135c46730fe315e1922dc5a445e2c45ea1c4a555d75645d80ff15c65d0c736\n\
mutations 18 60caebcc76f4b741c3604bd9523fd3982b9044ea1ad919ae32806900a672477a\n\
graph 100910 d52560ea5d84555a6245ae7a4bd1e9a02d663551f0b2c0773b470afac430e185\n\
scrub: 6 groups, 3 files repaired (398 batches), 1 parity regenerated, 0 unrecoverable, 0 parity unusable, 0 stale groups\n\
merge: 6 files, 100910 triples, 0 salvaged (0 batches), 9 replayed from journals, 0 files lost, 0 recovered, 0 quarantined, 0 chain breaks, 0 journal tails truncated\n\
verify /provio: TRUSTED — 13 verified, 0 tampered, 0 damaged, 0 missing, 0 unsigned; manifest signed; ledger sealed\n\
run: 0/0 ranks survived; 6/6 sub-graphs recovered (100.0% complete), 100910 triples merged, 0 salvaged, 9 replayed from journals, 0 files lost, 0 quarantined, 0 chain breaks, 0 journal tails truncated; scrub: 3 files repaired (398 batches), 0 unrecoverable; trust: TRUSTED — 13 verified, 0 tampered, 0 missing, 0 unsigned, manifest signed, ledger sealed\n\
quarantined []\n\
";

pub const OVER_TOLERANCE: &str = "\
directory c1f3188f419e29df35854cf0da31dc913f8ade06d585c9aebcc88d27905f4d4b\n\
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

/// The sealed directory, untouched.
pub fn clean() -> Arc<FileSystem> {
    capture(false)
}

/// [`damage_in_tolerance`] over the directory with an unfinished store.
pub fn in_tolerance() -> Arc<FileSystem> {
    let fs = capture(true);
    damage_in_tolerance(&fs);
    fs
}

/// [`damage_over_tolerance`] over the directory with an unfinished store.
pub fn over_tolerance() -> Arc<FileSystem> {
    let fs = capture(true);
    damage_over_tolerance(&fs);
    fs
}

/// A fresh file system holding `fs`'s files under `DIR`, byte for byte:
/// what recovery reads and writes, so one capture serves two scenarios.
pub fn copy(fs: &Arc<FileSystem>) -> Arc<FileSystem> {
    let out = FileSystem::new(LustreConfig::default());
    out.mkdir_all(DIR, "golden", SimTime::ZERO).expect("a fresh directory");
    for (path, bytes) in files_under(fs, DIR) {
        write(&out, &path, &bytes);
    }
    out
}
