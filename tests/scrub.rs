//! End-to-end self-healing: a multi-rank workflow writes parity-protected
//! checksummed stores and seals a signed manifest; a single artifact per
//! parity group is then lost or corrupted at rest, and the scrub pass must
//! restore the run to *zero data loss* — every repaired file byte-identical
//! to what was sealed, the manifest verifying again, and the final
//! [`RunReport`] complete. Beyond tolerance, the PR 4/5 loss accounting
//! (salvage, quarantine, honest incompleteness) must stand untouched.
//!
//! The sweep is environment-parameterized so CI can matrix it:
//! `PROVIO_SCRUB_SEED` (damage placement), `PROVIO_SCRUB_DAMAGE`
//! (`corrupt` | `delete` | `tamper` | `parity` | `parity-destroy`),
//! `PROVIO_SCRUB_GROUP` (parity group width).

use prov_io::prelude::*;
use prov_io::rdf::ntriples;
use prov_io::simrt::{DetRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const KEY: &str = "scrub-campaign-key";

fn env_u64(k: &str, default: u64) -> u64 {
    std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_str(k: &str, default: &str) -> String {
    std::env::var(k).unwrap_or_else(|_| default.to_string())
}

/// A 4-rank parity-protected run. Ranks in `killed` are forgotten instead
/// of finished: their stores survive as snapshot + delta segments (and,
/// when the flush cadence leaves a journaled tail, a live WAL generation)
/// — never compacted, so their mid-run parity groups (width `group`) are
/// what protects them. Survivors compact at finish and get a forced
/// single-member seal over the final snapshot. `finish_all` seals the
/// signed manifest over whatever is on disk.
fn run_world(
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

fn read(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
    let ino = fs.lookup(path).unwrap();
    let md = fs.stat(path).unwrap();
    fs.read_at(ino, 0, md.size).unwrap().to_vec()
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

fn lines(g: &prov_io::rdf::Graph) -> BTreeSet<String> {
    ntriples::serialize(g).lines().map(str::to_string).collect()
}

fn is_parity(p: &str) -> bool {
    p.ends_with(".par")
}

/// The seeded sweep: one covered artifact (or its parity file) is damaged,
/// and the run must come back with zero data loss.
#[test]
fn single_damage_within_tolerance_repairs_to_zero_loss() {
    let seed = env_u64("PROVIO_SCRUB_SEED", 17);
    let damage = env_str("PROVIO_SCRUB_DAMAGE", "corrupt");
    let group = env_u64("PROVIO_SCRUB_GROUP", 2) as u32;

    // Rank 2 is killed: its store survives uncompacted with mid-run parity
    // groups over its snapshot and delta segments.
    let cluster = run_world(&[2], group, 2, 8, None);
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
    let target = match damage.as_str() {
        "tamper" => tamperable[rng.below(tamperable.len() as u64) as usize].clone(),
        "parity" | "parity-destroy" => parities[rng.below(parities.len() as u64) as usize].clone(),
        _ => members[rng.below(members.len() as u64) as usize].clone(),
    };
    match damage.as_str() {
        "corrupt" => {
            fs.corrupt_at_rest(&target, &CorruptKind::BitFlips { count: 3 }, seed).unwrap();
        }
        "delete" => fs.unlink(&target).unwrap(),
        "tamper" => {
            fs.tamper_at_rest(&target, &TamperKind::CrcPatchedRewrite, seed).unwrap();
        }
        "parity" => {
            // Hit the data block itself (base64 XOR for multi-member
            // groups, an escaped raw replica for single-member ones): the
            // member records survive, so the parity file must regenerate
            // byte-identical.
            let text = String::from_utf8(read(fs, &target)).unwrap();
            let header_at = text.find(" b64=").unwrap_or_else(|| {
                let raw = text.find("enc=raw").expect("parity data line");
                raw + text[raw..].find('\n').expect("replica follows header")
            }) as u64;
            let span = (text.len() as u64 - header_at) / 2;
            let mut off = header_at + 5 + rng.below(span.max(1));
            // Rot a content byte, not a line break: severing a replica
            // line would change the frame's line counts, which models a
            // different (structural) failure than bit rot in the block.
            while text.as_bytes()[off as usize] == b'\n' {
                off += 1;
            }
            let ino = fs.lookup(&target).unwrap();
            fs.write_at(ino, off, b"\x00", SimTime::ZERO).unwrap();
        }
        "parity-destroy" => {
            // Obliterate the whole parity file: redundancy is honestly
            // lost, but no data is — completeness must survive.
            fs.corrupt_at_rest(&target, &CorruptKind::ZeroFill, seed).unwrap();
        }
        other => panic!("unknown PROVIO_SCRUB_DAMAGE {other}"),
    }
    assert_ne!(
        disk_image(fs).get(&target),
        sealed_image.get(&target),
        "the damage actually landed on {target}"
    );

    let scrubbed = scrub_directory(fs, "/provio");
    match damage.as_str() {
        "parity" => {
            assert_eq!(scrubbed.repaired_parity, vec![target.clone()], "{scrubbed}");
            assert!(scrubbed.fully_repaired(), "{scrubbed}");
        }
        "parity-destroy" => {
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
        if damage == "parity-destroy" && path == &target {
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
    if damage == "parity-destroy" {
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
    if damage != "parity-destroy" {
        assert!(report.is_trusted(), "{report}");
    }
    if damage != "parity" && damage != "parity-destroy" {
        assert_eq!(report.scrub_repaired_files, 1);
        assert!(report.to_string().contains("scrub: 1 files repaired"), "{report}");
    }
}

/// The crashed rank's journal tail — the bytes its WAL held that no
/// snapshot or segment ever covered — is itself parity-protected: rot it
/// (or delete the whole generation) and scrub must bring the replayed
/// triples back bit-for-bit.
#[test]
fn crashed_rank_journal_tail_survives_damage() {
    let seed = env_u64("PROVIO_SCRUB_SEED", 17);
    // Rank 1's store commits are all dropped by fault injection (snapshot
    // tmp and delta-segment writes fail), so its records live *only* in
    // its journal — the crashed-rank tail. Width 1 seals parity per
    // journal chunk, so the whole generation is covered as it commits.
    let plan = FaultPlan::new(seed ^ 0x5C);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, prov_io::hpcfs::FsError::Io).on_path("prov_p701.nt.tmp"));
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, prov_io::hpcfs::FsError::Io).on_path("prov_p701.nt.d"));
    let cluster = run_world(&[1], 1, 4, 8, Some(plan));
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
    if rng.chance(0.5) {
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
}

/// Two members lost in one group: over tolerance. Scrub must refuse to
/// guess, report the loss, and leave the PR 4/5 accounting (salvage,
/// quarantine, honest incompleteness) exactly as it was.
#[test]
fn beyond_tolerance_falls_back_to_loss_accounting() {
    let cluster = run_world(&[2], 2, 2, 8, None);
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
    assert_eq!(report.scrub_unrecoverable, 2);
}
