//! A run is a function of its model and its seed, not of the host: virtual
//! time advances only by modeled amounts, and `IoEvent::timestamp_ns` /
//! `ElapsedNs` are read off it, so every byte a run stores — and every
//! number it reports — repeats exactly. Each scenario here runs twice in
//! one process; the runs must agree with each other, and the first with the
//! recorded fingerprint: SHA-256 of the store directory by (sorted path,
//! bytes), SHA-256 of the merged graph, and the run's `RunMetrics`.
//!
//! Where `golden_store.rs` feeds the tracker generated timestamps to freeze
//! the store format, these scenarios take their timestamps from the
//! simulated file system, HDF5 and MPI cost models, which is what a paper
//! workflow does.

mod common;

use common::workflows::{create_write_loop, create_write_loop_on, every_plane, fingerprint};
use common::workflows::{dassa, h5bench, periodic_ntriples, topreco, Files, Run};
use common::workflows::{DASSA, H5BENCH, LOOP_DEFAULT, LOOP_EVERY_PLANE, LOOP_PERIODIC, TOPRECO};
use common::{files_under, DIR};
use prov_io::core::verify::read_ledger;
use prov_io::core::ProvIoConfig;
use prov_io::simrt::SimTime;
use prov_io::workflows::Cluster;

/// Run `scenario` twice: the runs must agree with each other, and the first
/// with the recorded fingerprint. Returns the first run's directory.
fn assert_frozen(scenario: impl Fn() -> Run, recorded: &str) -> Files {
    let (files, text) = fingerprint(&scenario());
    assert_eq!(text, fingerprint(&scenario()).1, "two runs, two results");
    assert_eq!(text, recorded, "(left: this build, right: recorded)");
    files
}

#[test]
fn h5bench_run_is_frozen() {
    assert_frozen(h5bench, H5BENCH);
}

#[test]
fn dassa_run_is_frozen() {
    assert_frozen(dassa, DASSA);
}

#[test]
fn topreco_run_is_frozen() {
    assert_frozen(topreco, TOPRECO);
}

#[test]
fn loop_default_config_is_frozen() {
    assert_frozen(
        || create_write_loop(ProvIoConfig::default()),
        LOOP_DEFAULT,
    );
}

#[test]
fn loop_periodic_ntriples_is_frozen() {
    assert_frozen(|| create_write_loop(periodic_ntriples()), LOOP_PERIODIC);
}

/// Nothing the synchronous store does costs virtual time, so it leaves the
/// bytes the asynchronous one leaves: one recorded fingerprint serves both.
#[test]
fn loop_every_plane_is_frozen_and_sync_equals_async() {
    let on_pool = assert_frozen(|| create_write_loop(every_plane()), LOOP_EVERY_PLANE);
    let on_caller = assert_frozen(
        || create_write_loop(every_plane().synchronous()),
        LOOP_EVERY_PLANE,
    );
    assert!(on_pool == on_caller, "sync and async directories differ");
}

/// A campaign re-runs one workflow over the ledger its first run left: the
/// second run signs the identical manifest, so its seal finds its digest
/// already at the ledger's head and appends nothing.
#[test]
fn a_signed_rerun_reproduces_the_manifest_and_leaves_the_ledger_alone() {
    let artifact = |files: &Files, name: &str| -> Vec<u8> {
        let path = format!("{DIR}/{name}");
        let found = files.iter().find(|(p, _)| *p == path);
        found.unwrap_or_else(|| panic!("{path} missing")).1.clone()
    };
    let first = create_write_loop(every_plane());
    let first_files = files_under(&first.cluster.fs, DIR);
    let ledger = artifact(&first_files, "CAMPAIGN.provio");

    let rerun = Cluster::new();
    let (fs, now) = (&rerun.fs, SimTime::ZERO);
    fs.mkdir_all(DIR, "alice", now).expect("a fresh directory");
    let ino = fs
        .create_file(&format!("{DIR}/CAMPAIGN.provio"), false, "alice", now)
        .expect("a fresh path");
    fs.write_at(ino, 0, &ledger, now).expect("a fault-free fs");
    let second = create_write_loop_on(rerun, every_plane());
    let second_files = files_under(&second.cluster.fs, DIR);
    assert!(
        artifact(&first_files, "MANIFEST.provio") == artifact(&second_files, "MANIFEST.provio"),
        "two identical signed runs, two manifests"
    );
    assert!(
        artifact(&second_files, "CAMPAIGN.provio") == ledger,
        "the second seal rewrote the ledger"
    );
    let sealed = read_ledger(&second.cluster.fs, DIR).expect("a ledger");
    assert_eq!(sealed.records.len(), 1);
    assert!(first_files == second_files);
}
