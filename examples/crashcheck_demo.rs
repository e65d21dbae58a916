//! Crashcheck, end to end: record the complete syscall trace of an
//! all-knobs commit-protocol workload, enumerate every post-crash disk
//! state (operation prefixes, torn in-flight writes, reordered writes
//! inside barrier-free windows), run the full recovery pipeline over
//! each, and machine-check the recovery invariants — then pick one
//! mid-protocol state apart by hand to show what recovery sees.
//!
//! Run with `cargo run --release --example crashcheck_demo`.

use prov_io::crashcheck::CRASHCHECK_DIR;
use prov_io::prelude::*;

fn main() {
    // ---- The exploration: every crash state of the default workload ----
    let cfg = CrashcheckConfig::default();
    let (workload, report) = crashcheck(&cfg);
    println!(
        "workload: {} ranks x {} pushes, all durability knobs armed",
        cfg.ranks, cfg.pushes
    );
    println!("{report}");
    assert!(report.ok(), "recovery invariants must hold: {:?}", report.violations);

    // ---- One state under the microscope: crash mid-run, then recover ----
    // Pick the midpoint prefix — the writer died with some records
    // committed, some journaled, some still in memory.
    let states = enumerate_crash_states(&workload.ops, 0);
    let state = states
        .iter()
        .find(|s| s.prefix == workload.ops.len() / 2)
        .copied()
        .expect("midpoint prefix is always enumerated");
    let fs = reconstruct(&workload.ops, &state);
    let out = recover_all(&fs, CRASHCHECK_DIR, cfg.manifest_key.as_deref());
    println!(
        "\nmid-run state ({state}): merged {} triples, {} replayed from the journal,\n\
         scrub clean: {}, quarantined: {}, trusted: {}",
        out.graph.len(),
        out.merge.replayed_triples,
        out.scrub.is_clean(),
        out.merge.quarantined.len() + out.quarantined.len(),
        out.verify.as_ref().is_none_or(|v| v.is_trusted()),
    );

    // Recovery is idempotent: a second pass finds the same world.
    let again = recover_all(&fs, CRASHCHECK_DIR, cfg.manifest_key.as_deref());
    assert_eq!(out.report(), again.report(), "recovery must be idempotent");
    assert_eq!(out.graph.len(), again.graph.len());
    println!("second recovery pass: identical report — recovery is a fixpoint");
}
