//! What recovery makes of a damaged run directory is frozen: `recover_all`
//! over the every-plane scenario of `golden_store.rs` — clean, damaged
//! within parity tolerance, and damaged beyond it — must leave exactly the
//! bytes and file names, issue exactly the mutating file-system operations
//! in exactly the order, merge exactly the graph and print exactly the four
//! reports it did when the values in `common/recovery.rs` were recorded
//! (at the commit before the read path was restructured). The tiers
//! composed by hand must do exactly the same, and a second pass must
//! change nothing.
//!
//! Beside it, how often recovery reads: `recover_all` reads each file
//! once — scrub reads, merge parses the frames scrub decoded, and verify
//! judges those files from the roots scrub left — counted by a zero-delay
//! fault rule on `read_at`.

mod common;

use common::recovery::{by_hand, capture, clean, in_tolerance, keyed, over_tolerance};
use common::recovery::{recovery, rot, snapshot, CLEAN, IN_TOLERANCE, OVER_TOLERANCE};
use common::{DIR, KEY};
use prov_io::core::{scrub_directory, verify_directory};
use prov_io::hpcfs::{FaultOp, FaultPlan, FaultRule, FileSystem};
use std::sync::Arc;

/// Recover the scenario from scratch with `recover_all` and again with the
/// tiers composed by hand (bytes, operations, graph and reports must agree),
/// compare with the recorded text, then recover the recovered directory
/// again: no byte moves and no mutating operation is issued.
fn assert_frozen(scenario: impl Fn() -> Arc<FileSystem>, recorded: &str) {
    let fs = scenario();
    let (image, text) = recovery(&fs, keyed);
    let (_, composed) = recovery(&scenario(), by_hand);
    assert_eq!(text, composed, "(left: recover_all, right: the tiers by hand)");
    assert_eq!(text, recorded, "(left: this build, right: recorded)");
    let (again, _) = recovery(&fs, keyed);
    assert!(again.files == image.files, "a second pass moved bytes");
    assert_eq!(again.ops, Vec::new(), "a second pass mutated the directory");
}

#[test]
fn clean_directory_recovery_is_frozen() {
    assert_frozen(clean, CLEAN);
}

#[test]
fn in_tolerance_recovery_is_frozen() {
    assert_frozen(in_tolerance, IN_TOLERANCE);
}

#[test]
fn over_tolerance_and_tamper_recovery_is_frozen() {
    assert_frozen(over_tolerance, OVER_TOLERANCE);
}

/// `read_at` calls `work` issues, counted by a counting fault rule.
fn reads(fs: &Arc<FileSystem>, work: impl FnOnce()) -> u64 {
    let plan = FaultPlan::new(0).with_rule(FaultRule::count(FaultOp::ReadAt));
    fs.install_faults(Arc::clone(&plan));
    work();
    fs.clear_faults();
    plan.injected()
}

#[test]
fn keyed_recovery_reads_each_file_once() {
    // Ten files: four snapshots, their four single-member parity files,
    // the manifest and the ledger. Scrub reads every member once (4) and
    // every parity file in three reads — its head, its footer line and its
    // block, a window on the snapshot's own buffer — so that no byte of the
    // block is copied (12); it hands merge the frames it decoded, so merge
    // reads nothing (0); verify reads the ledger and the manifest (2) and
    // judges the eight files they list from the roots scrub left. With
    // nothing tampered, the quarantine sweep has nothing to ask scrub
    // about (0).
    let fs = capture(false);
    assert_eq!(fs.walk_files(DIR).expect("store directory").len(), 10);
    let clean = reads(&fs, || {
        assert!(keyed(&fs).report().is_trusted());
    });
    assert_eq!(clean, 18, "clean keyed recover_all");
    // On its own, verify has no roots to go on: the ledger, the manifest
    // and the eight files they list.
    let alone = reads(&fs, || {
        assert!(verify_directory(&fs, DIR, KEY).is_trusted());
    });
    assert_eq!(alone, 10, "standalone verify_directory");

    // One rotted member costs no read more than a clean pass: the bytes
    // that classify it also count its failed batches and answer the
    // superseded check, the repair writes back what it reconstructed
    // without reading, and merge and verify take the repaired file's frame
    // and root from the reconstruction.
    rot(&fs, &snapshot(0), 11);
    let scrub_only = reads(&fs, || {
        assert_eq!(scrub_directory(&fs, DIR).repaired_files, vec![snapshot(0)]);
    });
    assert_eq!(scrub_only, 16, "scrub with one rotted member");

    rot(&fs, &snapshot(0), 11);
    let repairing = reads(&fs, || {
        assert!(keyed(&fs).report().is_trusted());
    });
    assert_eq!(repairing, 18, "recover_all with one rotted member");
}
