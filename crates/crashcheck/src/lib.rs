//! `provio-crashcheck` — systematic crash-state exploration of the store's
//! full commit protocol, with machine-checked recovery invariants
//! (DESIGN.md §15). A verification harness, not part of the
//! capture/store/merge pipeline: no product crate depends on it.
//!
//! The seeded fault sweeps elsewhere in the suite *sample* crash points;
//! this crate *enumerates* them. A deterministic workload with every
//! durability knob armed (checksums + WAL + parity + delta segments +
//! manifest/ledger) runs once against a traced file system
//! ([`provio_hpcfs::OpTrace`]); the recorded operation sequence then
//! defines the complete crash-state space — every operation prefix,
//! torn-tail variants of the write at each crash point, and reorder
//! variants inside rename-barrier-free windows. Each state reconstructs
//! into a fresh simulated disk, the full recovery pipeline
//! ([`provio::recover_all`]) runs over it **twice**, and an
//! invariant set is checked mechanically:
//!
//! | id | invariant |
//! |----|-----------|
//! | I1 | **durability** — every record acked by a successful flush before the crash point is in the merged graph |
//! | I2 | **no phantom / no double count** — the merged graph contains only records the workload pushed (the graph is a set, so replay can never double-count) |
//! | I3 | **bounded loss** — each rank loses at most `wal_group` unflushed records (plus, for a dropped journal append, the records journaled behind the hole) |
//! | I4 | **no innocent quarantine** — a pure crash never quarantines a file or reports unrecoverable/ unusable parity members |
//! | I5 | **atomic trust artifacts** — the manifest and ledger are old-or-new: any `Tampered` verdict, or a present-but-unverifiable manifest, is a protocol bug |
//! | I6 | **idempotent recovery** — a second recovery pass yields a byte-identical directory, an equal `RunReport` (whole tier reports, paths included), and the same graph |
//! | I7 | **non-destructive** — recovery of a pure crash state leaves the disk byte-identical (repair and quarantine exist for rot and tamper, which a crash cannot produce) |
//!
//! A violation carries the failing [`CrashState`]; the report's
//! minimizer picks the smallest one and [`repro_text`] renders the
//! deterministic repro (a [`provio_hpcfs::FaultPlan`] for plannable
//! states, the trace-window spec for reorder states).
//!
//! Which post-crash disks a trace can reach is decided in one place,
//! [`enumerate_crash_states`]; the file system only records the trace.
#![warn(unreachable_pub)]

mod crashcheck;
mod trace;

pub use crashcheck::{
    check_recovered, check_state, crashcheck, dir_snapshot, record_workload, repro_text,
    CrashcheckConfig, CrashcheckReport, RecordedWorkload, Violation, CRASHCHECK_DIR,
};
pub use trace::{apply_prefix, enumerate_crash_states, reconstruct, CrashState, CrashVariant};
