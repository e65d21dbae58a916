//! The transparency claim (paper Table 4): users control provenance
//! through a configuration *file*, without modifying workflow source.

use prov_io::prelude::*;
use provio_simrt::SimTime;
use std::sync::Arc;

/// The same untouched "workflow function" runs under different provenance
/// configurations loaded from a file on the (simulated) file system.
fn the_workflow(session: &FsSession, h5: &H5) {
    session.mkdir("/wf").unwrap();
    session.write_file("/wf/input.dat", b"raw bytes").unwrap();
    let f = h5.create_file("/wf/out.h5").unwrap();
    let g = h5.create_group(f, "g").unwrap();
    let d = h5
        .write_dataset_full(g, "x", Datatype::Int32, &[8], &Data::synthetic(32))
        .unwrap();
    h5.create_attr(d, "origin", Datatype::VarString, b"/wf/input.dat")
        .unwrap();
    h5.close_dataset(d).unwrap();
    h5.close_group(g).unwrap();
    h5.close_file(f).unwrap();
}

/// Drop `ini` at /etc/provio.ini, launch the workflow under it, and return
/// (cluster, tracked events, store dir).
fn run_with_config(ini: &str) -> (Cluster, u64, String) {
    let cluster = Cluster::new();
    cluster.fs.mkdir_all("/etc", "admin", SimTime::ZERO).unwrap();
    let boot = FsSession::new(
        Arc::clone(&cluster.fs),
        1,
        "admin",
        "launcher",
        VirtualClock::new(),
        prov_io::hpcfs::Dispatcher::new(),
    );
    boot.write_file("/etc/provio.ini", ini.as_bytes()).unwrap();

    // Process start: read the config file, attach, run unmodified code.
    let text = String::from_utf8(boot.read_file("/etc/provio.ini").unwrap()).unwrap();
    let cfg = ProvIoConfig::from_ini(&text).expect("valid config").shared();
    let store_dir = cfg.store_dir.clone();
    let (session, h5) = cluster.process(10, "alice", "sci_app", VirtualClock::new(), Some(&cfg));
    the_workflow(&session, &h5);
    let events = cluster
        .registry
        .finish_all()
        .iter()
        .map(|(_, s)| s.events)
        .sum();
    (cluster, events, store_dir)
}

#[test]
fn full_tracking_from_config_file() {
    let (cluster, events, store_dir) =
        run_with_config("[provio]\npreset = all\nstore_dir = /prov_all\n");
    assert!(events >= 6, "POSIX + HDF5 events captured: {events}");
    assert_eq!(store_dir, "/prov_all");
    let (graph, _) = merge_directory(&cluster.fs, &store_dir);
    let engine = ProvQueryEngine::new(graph);
    assert!(engine.entity_by_label("/wf/out.h5").is_some());
    assert!(engine.entity_by_label("/wf/input.dat").is_some());
}

#[test]
fn granularity_flips_without_source_changes() {
    let mut counts = Vec::new();
    for preset in ["dassa_file", "dassa_dataset", "dassa_attribute"] {
        let ini = format!(
            "[provio]\npreset = {preset}\nstore_dir = /prov_{preset}\nformat = ntriples\n"
        );
        let (_, events, _) = run_with_config(&ini);
        counts.push(events);
    }
    assert!(
        counts[0] < counts[1] && counts[1] < counts[2],
        "granularity controls captured events: {counts:?}"
    );
}

#[test]
fn tracking_disabled_by_config() {
    let (cluster, events, store_dir) =
        run_with_config("[provio]\npreset = none\nstore_dir = /prov_off\n");
    assert_eq!(events, 0);
    let (bytes, _) = cluster.prov_usage(&store_dir);
    // Only the (empty-ish) store file at most; no event records.
    let (graph, _) = merge_directory(&cluster.fs, &store_dir);
    let engine = ProvQueryEngine::new(graph);
    assert!(engine.entity_by_label("/wf/out.h5").is_none());
    let _ = bytes;
}

#[test]
fn ntriples_format_selected_by_config() {
    let (cluster, _, store_dir) = run_with_config(
        "[provio]\npreset = all\nstore_dir = /prov_nt\nformat = ntriples\n",
    );
    let files = cluster.fs.walk_files(&store_dir).unwrap();
    assert!(files.iter().all(|f| f.ends_with(".nt")), "{files:?}");
}

#[test]
fn bad_config_rejected_before_workflow_start() {
    assert!(ProvIoConfig::from_ini("preset = everything_and_more").is_err());
    assert!(ProvIoConfig::from_ini("policy = every:not_a_number").is_err());
}

#[test]
fn parity_misconfiguration_rejected_before_workflow_start() {
    // A zero-width group would seal a parity file per commit member with
    // nothing to XOR against — reject it like `wal_group = 0`.
    let err = ProvIoConfig::from_ini("[store]\nparity_group = 0\n").unwrap_err();
    assert!(err.contains("parity_group"), "{err}");
    // Parity reconstruction verifies against recorded CRCs; without the
    // checksummed frame format there is nothing to verify repairs against.
    let err = ProvIoConfig::from_ini("[store]\nparity = true\n").unwrap_err();
    assert!(err.contains("checksum_format"), "{err}");
    // Key order in the file must not matter (cross-key check runs after
    // the whole file parses).
    assert!(
        ProvIoConfig::from_ini("[store]\nparity = true\nchecksum_format = false\n").is_err()
    );
    assert!(
        ProvIoConfig::from_ini("[store]\nchecksum_format = true\nparity = true\n").is_ok()
    );
}

#[test]
fn parity_enabled_by_config_file_alone() {
    // Transparency extends to redundancy: parity files appear (and protect
    // the store) with zero workflow-source changes.
    let (cluster, _, store_dir) = run_with_config(
        "[provio]\npreset = all\nstore_dir = /prov_par\nformat = ntriples\npolicy = every:1\n\
         [store]\nchecksum_format = true\nparity = true\nparity_group = 2\n",
    );
    let files = cluster.fs.walk_files(&store_dir).unwrap();
    assert!(
        files.iter().any(|f| f.ends_with(".par")),
        "parity files sealed from config alone: {files:?}"
    );
    let report = scrub_directory(&cluster.fs, &store_dir);
    assert!(report.is_clean(), "fresh run scrubs clean: {report}");
    assert!(report.groups > 0);
}
