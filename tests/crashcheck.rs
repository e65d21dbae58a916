//! Crashcheck end to end: the enumerated crash-state space of the full
//! commit protocol (checksums + delta segments + WAL + parity + signed
//! manifest/ledger) must satisfy every recovery invariant of
//! DESIGN.md §15 — plus targeted regressions for the protocol bugs the
//! explorer found, a crash-during-recovery (double-crash) exploration,
//! and a property test that recovery is idempotent on arbitrary
//! reconstructed crash states.

use prov_io::core::crashcheck::{
    check_recovered, check_state, crashcheck, record_workload, repro_text, CrashcheckConfig,
    CRASHCHECK_DIR,
};
use prov_io::core::frame::{is_parity_path, is_wal_path};
use prov_io::core::recover::recover_all;
use prov_io::hpcfs::{
    apply_prefix, enumerate_crash_states, reconstruct, CrashState, CrashVariant, FileSystem,
    OpTrace, TraceOp,
};
use prov_io::simrt::SimTime;
use proptest::prelude::*;
use std::sync::Arc;

/// Byte-exact image of every file under `/provio`, for fixpoint checks.
fn snapshot(fs: &Arc<FileSystem>) -> Vec<(String, Vec<u8>)> {
    let Ok(files) = fs.walk_files(CRASHCHECK_DIR) else {
        return Vec::new();
    };
    files
        .into_iter()
        .map(|path| {
            let ino = fs.lookup(&path).unwrap();
            let size = fs.file_size(ino).unwrap();
            (path, fs.read_at(ino, 0, size).unwrap().to_vec())
        })
        .collect()
}

/// The store a WAL generation (`<store>.wNNNNNN.nt`) belongs to.
fn wal_store(path: &str) -> &str {
    &path[..path.rfind(".w").expect("wal generation path")]
}

/// The store a parity file (`<store>.pNNNNNN.par`) belongs to. The
/// `.par` extension is stripped first so its own `.p` cannot match.
fn parity_store(path: &str) -> &str {
    let p = path.strip_suffix(".par").unwrap_or(path);
    &p[..p.rfind(".p").expect("parity path")]
}

// ---------------------------------------------------------------------------
// The tentpole: exhaustive exploration under the full knob set.
// ---------------------------------------------------------------------------

/// Every operation prefix of the all-knobs workload, plus torn-tail and
/// barrier-free reorder variants, recovers within the invariant set.
#[test]
fn full_protocol_exploration_holds_all_invariants() {
    let cfg = CrashcheckConfig::default();
    let (w, report) = crashcheck(&cfg);
    if let Some(min) = report.minimized() {
        panic!("{report}\n{}", repro_text(&w, min));
    }
    // No budget was set: the enumeration covered at least one state per
    // operation prefix, so the whole protocol timeline was explored.
    assert_eq!(report.checked, report.states);
    assert!(report.states > w.ops.len());
}

/// A second knob mix — larger groups than the flush cadence, so flush
/// boundaries force partial WAL groups and short parity groups out.
/// This shape is what exposed the per-rank ack granularity during
/// development; keep it explored.
#[test]
fn off_cadence_groups_hold_all_invariants() {
    let cfg = CrashcheckConfig {
        ranks: 2,
        pushes: 6,
        flush_every: 2,
        wal_group: 3,
        parity_group: 3,
        compact_every: 3,
        ..CrashcheckConfig::default()
    };
    let (w, report) = crashcheck(&cfg);
    if let Some(min) = report.minimized() {
        panic!("{report}\n{}", repro_text(&w, min));
    }
}

/// Without the trust tier (no manifest key) the durability and loss
/// invariants must hold on their own.
#[test]
fn unsigned_runs_hold_all_invariants() {
    let cfg = CrashcheckConfig {
        manifest_key: None,
        pushes: 4,
        ..CrashcheckConfig::default()
    };
    let (w, report) = crashcheck(&cfg);
    if let Some(min) = report.minimized() {
        panic!("{report}\n{}", repro_text(&w, min));
    }
}

// ---------------------------------------------------------------------------
// Regressions for the protocol bugs crashcheck found.
// ---------------------------------------------------------------------------

/// `wal_recycle` must retire journal-plane parity *before* unlinking the
/// WAL generation it covers. Pre-fix the order was reversed, so a crash
/// between the two unlinks left parity over a deleted generation —
/// journal members can never classify as superseded, so scrub read the
/// orphaned group as unrecoverable loss (or, single-member groups,
/// "repaired" the retired generation back into existence).
#[test]
fn wal_recycle_retires_journal_parity_before_the_generation() {
    let w = record_workload(&CrashcheckConfig::default());
    let mut covered_recycles = 0;
    for (i, op) in w.ops.iter().enumerate() {
        let TraceOp::Unlink { path } = op else {
            continue;
        };
        if !is_wal_path(path) || path.ends_with(".tmp") {
            continue;
        }
        let store = wal_store(path);
        // Within the contiguous unlink window after the generation
        // unlink, no parity of the same store may still be pending.
        for later in &w.ops[i + 1..] {
            let TraceOp::Unlink { path: p } = later else {
                break;
            };
            assert!(
                !(is_parity_path(p) && parity_store(p) == store),
                "journal parity {p} unlinked after its generation {path}: \
                 a crash between the two resurrects a retired generation"
            );
        }
        // And the window before it must hold the parity retirement.
        let mut j = i;
        while j > 0 && matches!(&w.ops[j - 1], TraceOp::Unlink { .. }) {
            j -= 1;
            if let TraceOp::Unlink { path: p } = &w.ops[j] {
                if is_parity_path(p) && parity_store(p) == store {
                    covered_recycles += 1;
                }
            }
        }
    }
    assert!(
        covered_recycles > 0,
        "workload never recycled a parity-covered WAL generation — the \
         regression scenario was not exercised"
    );
}

/// A torn orphan tmp (the crash signature of an interrupted commit) is
/// debris, not corruption: the merge must leave it in place unparsed,
/// never quarantine it. Pre-fix it was condemned via the identity
/// quarantine path, which both branded a pure crash as tampering and
/// broke recovery idempotence.
#[test]
fn torn_orphan_tmp_is_crash_debris_not_corruption() {
    let w = record_workload(&CrashcheckConfig::default());
    let (i, path, keep) = w
        .ops
        .iter()
        .enumerate()
        .find_map(|(i, op)| match op {
            TraceOp::WriteAt { path, data, .. }
                if path.ends_with(".tmp") && !is_parity_path(path) && !is_wal_path(path) =>
            {
                Some((i, path.clone(), (data.len() / 2).max(1) as u64))
            }
            _ => None,
        })
        .expect("the workload commits stores through tmp files");
    let state = CrashState {
        prefix: i,
        variant: CrashVariant::TornNext { keep },
    };

    let fs = reconstruct(&w.ops, &state);
    let out = recover_all(&fs, CRASHCHECK_DIR, w.config.manifest_key.as_deref());
    assert!(
        out.merge.quarantined.is_empty(),
        "merge quarantined {:?} for a torn uncommitted tmp",
        out.merge.quarantined
    );
    assert!(fs.exists(&path), "the torn tmp must stay in place, unparsed");
    assert!(!fs.exists(&format!("{path}.quarantine")));

    // And the state passes the full invariant set.
    let violations = check_state(&w, state);
    assert!(violations.is_empty(), "{violations:?}");
}

// ---------------------------------------------------------------------------
// Double crash: crashing *during recovery* is itself recoverable.
// ---------------------------------------------------------------------------

/// Recovery mutates the disk through the same traced, fault-injectable
/// file system with tmp+rename discipline as the write path — so a
/// crash mid-repair is just another crash state. Rot one parity-covered
/// member, trace the repairing recovery, enumerate every crash state of
/// *that* trace, and require a second recovery from each to restore the
/// full invariant set (modulo `no-spurious-mutation`, which does not
/// apply: repairing rot is recovery's job).
#[test]
fn crash_during_repair_is_recoverable_from_every_state() {
    let cfg = CrashcheckConfig {
        ranks: 1,
        pushes: 4,
        ..CrashcheckConfig::default()
    };
    let w = record_workload(&cfg);
    let done = CrashState {
        prefix: w.ops.len(),
        variant: CrashVariant::Clean,
    };

    // The damaged base disk: the completed run with one rotted byte in
    // the committed snapshot. Rebuilt identically for every state.
    let damaged = || {
        let fs = reconstruct(&w.ops, &done);
        let target = format!("{CRASHCHECK_DIR}/rank0.nt");
        let ino = fs.lookup(&target).unwrap();
        let size = fs.file_size(ino).unwrap();
        fs.write_at(ino, size / 2, b"\x00", SimTime::ZERO).unwrap();
        fs
    };

    // Trace the recovery that repairs the rot.
    let fs = damaged();
    let rec_trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&rec_trace));
    let out = recover_all(&fs, CRASHCHECK_DIR, cfg.manifest_key.as_deref());
    fs.detach_tracer();
    assert!(
        !out.scrub.repaired_files.is_empty(),
        "precondition: the rot must be parity-repairable ({:?})",
        out.scrub
    );
    let rec_ops = rec_trace.snapshot();
    assert!(!rec_ops.is_empty(), "repair must go through the traced fs");

    // Crash the repair at every enumerated point; a fresh recovery from
    // each resulting disk must still satisfy the invariants.
    for state in enumerate_crash_states(&rec_ops, 64) {
        let fs = damaged();
        apply_prefix(&fs, &rec_ops, &state);
        let violations: Vec<_> = check_recovered(&w, done, &fs)
            .into_iter()
            .filter(|v| v.invariant != "no-spurious-mutation")
            .collect();
        assert!(
            violations.is_empty(),
            "crash mid-repair at {state} left an unrecoverable disk: {violations:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property: recovery is idempotent on arbitrary crash states.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Recovering any reconstructed crash state twice yields a
    /// byte-identical directory, an equal `RunReport`, and a graph of
    /// the same size (invariant I6, sampled over the knob space).
    #[test]
    fn recovery_is_idempotent_on_any_crash_state(
        ranks in 1u32..3,
        pushes in 2usize..5,
        wal_group in 1u32..4,
        parity_group in 1u32..4,
        compact_every in 1u32..4,
        signed in any::<bool>(),
        pick in 0usize..1 << 16,
    ) {
        let cfg = CrashcheckConfig {
            ranks,
            pushes,
            wal_group,
            parity_group,
            compact_every,
            manifest_key: signed.then(|| "prop-key".to_string()),
            ..CrashcheckConfig::default()
        };
        let w = record_workload(&cfg);
        let states = enumerate_crash_states(&w.ops, 16);
        let state = states[pick % states.len()];
        let fs = reconstruct(&w.ops, &state);
        let key = cfg.manifest_key.as_deref();

        let first = recover_all(&fs, CRASHCHECK_DIR, key);
        let after_first = snapshot(&fs);
        let second = recover_all(&fs, CRASHCHECK_DIR, key);
        let after_second = snapshot(&fs);

        prop_assert_eq!(first.report(), second.report());
        prop_assert_eq!(first.graph.len(), second.graph.len());
        prop_assert_eq!(after_first, after_second);
    }
}
