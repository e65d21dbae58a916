//! Crashcheck — systematic crash-state exploration of the full commit
//! protocol, with machine-checked recovery invariants (DESIGN.md §15).
//!
//! The seeded fault sweeps elsewhere in the suite *sample* crash points;
//! this module *enumerates* them. A deterministic workload with every
//! durability knob armed (checksums + WAL + parity + delta segments +
//! manifest/ledger) runs once against a traced file system
//! ([`provio_hpcfs::OpTrace`]); the recorded operation sequence then
//! defines the complete crash-state space — every operation prefix,
//! torn-tail variants of the write at each crash point, and reorder
//! variants inside rename-barrier-free windows. Each state reconstructs
//! into a fresh simulated disk, the full recovery pipeline
//! ([`crate::recover::recover_all`]) runs over it **twice**, and an
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

use std::collections::HashMap;
use std::sync::Arc;

use provio_hpcfs::{
    describe_state, enumerate_crash_states, reconstruct, repro_plan, CrashState, CrashVariant,
    FileSystem, LustreConfig, OpTrace, TraceOp,
};
use provio_rdf::{Iri, Subject, Term, Triple};

use crate::config::RdfFormat;
use crate::frame;
use crate::recover::recover_all;
use crate::store::ProvenanceStore;
use crate::verify::{seal_run_with_roots, FileVerdict, RankEntry, RootCache};

/// The run directory every crashcheck workload writes under.
pub const CRASHCHECK_DIR: &str = "/provio";

/// Shape of the recorded workload and the exploration budget.
#[derive(Debug, Clone)]
pub struct CrashcheckConfig {
    /// Simulated ranks, each with its own store.
    pub ranks: u32,
    /// Pushes per rank (one record each — the finest ack granularity).
    pub pushes: usize,
    /// Force a flush every this many pushes per rank.
    pub flush_every: usize,
    /// WAL group-commit size (`wal_group` knob).
    pub wal_group: u32,
    /// Parity group size (`parity_group` knob).
    pub parity_group: u32,
    /// Compact segments into a snapshot every this many delta appends.
    pub compact_every: u32,
    /// Campaign key; `Some` arms manifest + ledger sealing and the
    /// post-recovery verify stage.
    pub manifest_key: Option<String>,
    /// Budget for reorder (dropped-write) variants; they grow
    /// quadratically with the trace. `usize::MAX` = exhaustive.
    pub max_dropped: usize,
    /// Overall cap on explored states (0 = all). When capped, states are
    /// kept at an even stride so coverage stays spread over the trace.
    pub max_states: usize,
}

impl Default for CrashcheckConfig {
    fn default() -> Self {
        CrashcheckConfig {
            ranks: 2,
            pushes: 6,
            flush_every: 2,
            wal_group: 2,
            parity_group: 2,
            compact_every: 2,
            manifest_key: Some("crashcheck-key".to_string()),
            max_dropped: 256,
            max_states: 0,
        }
    }
}

/// The record pushed as rank `rank`'s `seq`-th push — globally unique,
/// so graph membership identifies exactly which records survived.
pub(crate) fn crashcheck_triple(rank: u32, seq: usize) -> Triple {
    Triple::new(
        Subject::iri(format!("urn:crashcheck:r{rank}")),
        Iri::new("urn:crashcheck:pushed"),
        Term::iri(format!("urn:crashcheck:v{seq}")),
    )
}

/// One push, tied to its position in the operation trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PushMark {
    /// Trace length when the push returned: a crash state with
    /// `prefix >= op_end` has this record journaled (or buffered).
    pub(crate) op_end: usize,
    pub(crate) rank: u32,
    pub(crate) seq: usize,
}

/// One successful flush acknowledgement: everything `rank` pushed before
/// this point is durably committed. Acks are strictly per rank — rank
/// 0's flush returning says nothing about rank 1's still-buffered data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckMark {
    /// Trace length when the flush returned.
    pub(crate) op_end: usize,
    pub(crate) rank: u32,
    /// Count of this rank's records covered by the ack.
    pub(crate) acked: usize,
}

/// The traced workload: the operation sequence plus the ack/push marks
/// the invariants are checked against.
#[derive(Debug)]
pub struct RecordedWorkload {
    pub config: CrashcheckConfig,
    pub ops: Vec<TraceOp>,
    pub(crate) pushes: Vec<PushMark>,
    pub(crate) acks: Vec<AckMark>,
}

/// Run the all-knobs-armed workload once, recording its complete
/// syscall trace. Deterministic: same config, same trace.
pub fn record_workload(config: &CrashcheckConfig) -> RecordedWorkload {
    let fs = FileSystem::new(LustreConfig::default());
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));

    let stores: Vec<ProvenanceStore> = (0..config.ranks)
        .map(|r| {
            ProvenanceStore::new(
                Arc::clone(&fs),
                format!("{CRASHCHECK_DIR}/rank{r}.nt"),
                RdfFormat::NTriples,
                false,
            )
            .with_checksums(true)
            .with_wal(true, config.wal_group)
            .with_parity(true, config.parity_group)
            .with_compact_every(config.compact_every)
        })
        .collect();

    let mut pushes = Vec::new();
    let mut acks = Vec::new();
    let mut counts = vec![0usize; config.ranks as usize];
    for seq in 0..config.pushes {
        for (r, store) in stores.iter().enumerate() {
            store.push(vec![crashcheck_triple(r as u32, seq)], None);
            counts[r] = seq + 1;
            pushes.push(PushMark {
                op_end: trace.len(),
                rank: r as u32,
                seq,
            });
        }
        if config.flush_every > 0 && (seq + 1) % config.flush_every == 0 {
            for (r, store) in stores.iter().enumerate() {
                store.flush(None);
                debug_assert!(!store.degraded(), "recording runs are fault-free");
                acks.push(AckMark {
                    op_end: trace.len(),
                    rank: r as u32,
                    acked: counts[r],
                });
            }
        }
    }
    for (r, store) in stores.iter().enumerate() {
        store.finish(None);
        acks.push(AckMark {
            op_end: trace.len(),
            rank: r as u32,
            acked: counts[r],
        });
    }

    // Seal manifest + ledger exactly as `TrackerRegistry::finish_all`
    // does, so the trace covers the trust tier's commit windows too.
    if let Some(key) = &config.manifest_key {
        let mut roots = RootCache::new();
        let mut ranks = Vec::new();
        for (r, store) in stores.iter().enumerate() {
            for (path, ord, root) in store.committed_roots() {
                roots.insert(path, (ord, root));
            }
            ranks.push(RankEntry {
                pid: r as u32,
                degraded: store.degraded(),
                triples: counts[r] as u64,
            });
        }
        let _ = seal_run_with_roots(&fs, CRASHCHECK_DIR, key, &ranks, &roots);
    }

    fs.detach_tracer();
    RecordedWorkload {
        config: config.clone(),
        ops: trace.snapshot(),
        pushes,
        acks,
    }
}

/// One invariant breach at one crash state.
#[derive(Debug, Clone)]
pub struct Violation {
    pub(crate) state: CrashState,
    /// Invariant id from the table above (`durability`, `no-phantom`,
    /// `bounded-loss`, `no-innocent-quarantine`, `atomic-trust`,
    /// `idempotent-recovery`, `no-spurious-mutation`).
    pub invariant: &'static str,
    pub(crate) detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {}: {}", self.invariant, self.state, self.detail)
    }
}

/// What one exploration found.
#[derive(Debug, Default)]
pub struct CrashcheckReport {
    /// Length of the recorded operation trace.
    pub(crate) trace_len: usize,
    /// States the enumeration produced.
    pub states: usize,
    /// States actually reconstructed and recovered (≤ `states` under a
    /// `max_states` budget).
    pub checked: usize,
    pub violations: Vec<Violation>,
}

impl CrashcheckReport {
    /// Did every checked state satisfy every invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The minimal failing state: smallest prefix, simplest variant.
    pub fn minimized(&self) -> Option<&Violation> {
        self.violations.iter().min_by_key(|v| v.state.sort_key())
    }
}

impl std::fmt::Display for CrashcheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crashcheck: {} trace ops, {}/{} states checked, {} violation(s)",
            self.trace_len, self.checked, self.states, self.violations.len()
        )
    }
}

/// Byte-exact image of every file under `dir`, for idempotence checks.
fn dir_snapshot(fs: &Arc<FileSystem>, dir: &str) -> Vec<(String, Vec<u8>)> {
    let read = |path: String| crate::fsio::read_file(fs, &path).map(|bytes| (path, bytes));
    fs.walk_files(dir).unwrap_or_default().into_iter().filter_map(read).collect()
}

/// First path where two directory images differ, for violation details.
fn first_divergence(a: &[(String, Vec<u8>)], b: &[(String, Vec<u8>)]) -> String {
    let index: HashMap<&str, &[u8]> = b.iter().map(|(p, d)| (p.as_str(), d.as_slice())).collect();
    for (p, d) in a {
        match index.get(p.as_str()) {
            None => return format!("{p} present only after the first pass"),
            Some(other) if *other != d.as_slice() => return format!("{p} differs between passes"),
            _ => {}
        }
    }
    for (p, _) in b {
        if !a.iter().any(|(q, _)| q == p) {
            return format!("{p} appeared in the second pass");
        }
    }
    "directory listings diverge".to_string()
}

/// Run recovery twice over an already-reconstructed crash disk and check
/// the full invariant set against the workload's marks at `state`.
/// Exposed so the double-crash test can re-check a disk that crashed
/// *during* recovery under the same invariants.
pub fn check_recovered(
    w: &RecordedWorkload,
    state: CrashState,
    fs: &Arc<FileSystem>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut fail = |invariant: &'static str, detail: String| {
        violations.push(Violation {
            state,
            invariant,
            detail,
        });
    };
    let key = w.config.manifest_key.as_deref();

    let d0 = dir_snapshot(fs, CRASHCHECK_DIR);
    let out1 = recover_all(fs, CRASHCHECK_DIR, key);
    let d1 = dir_snapshot(fs, CRASHCHECK_DIR);
    let out2 = recover_all(fs, CRASHCHECK_DIR, key);
    let d2 = dir_snapshot(fs, CRASHCHECK_DIR);

    // --- I7: non-destructive on pure crashes -------------------------------
    // Every mutation recovery can make (parity repair, quarantine) exists
    // to answer rot or tamper; a crash produces neither, so recovering a
    // pure crash state must leave the disk byte-identical. This is the
    // regression guard for the journal-recycle unlink-ordering bug, where a
    // single-member journal parity group "repaired" the retired WAL
    // generation back into existence.
    if d0 != d1 {
        fail("no-spurious-mutation", first_divergence(&d0, &d1));
    }

    // --- I6: idempotence --------------------------------------------------
    // The first pass must reach a fixpoint: the second pass changes no
    // byte and performs no repair or quarantine. When the first pass
    // itself changed nothing (every pure crash state, by I7), the two
    // reports must also agree exactly — when it legitimately mutated
    // (e.g. repairing rot on a disk the double-crash harness damaged),
    // the repair counters honestly differ and only the no-op contract
    // applies to the second pass.
    if d1 != d2 {
        fail("idempotent-recovery", first_divergence(&d1, &d2));
    }
    if !out2.scrub.repaired_files.is_empty()
        || !out2.merge.quarantined.is_empty()
        || !out2.quarantined.is_empty()
    {
        fail(
            "idempotent-recovery",
            format!(
                "second pass was not a no-op: repaired {:?}, quarantined {:?}/{:?}",
                out2.scrub.repaired_files, out2.merge.quarantined, out2.quarantined
            ),
        );
    }
    let (report1, report2) = (out1.report(), out2.report());
    if d0 == d1 && report1 != report2 {
        fail(
            "idempotent-recovery",
            format!(
                "RunReport changed between passes over an unchanged disk:\n  \
                 pass 1: {report1:?}\n  pass 2: {report2:?}"
            ),
        );
    }

    // --- I1: durability of acked records ----------------------------------
    for r in 0..w.config.ranks {
        let n = w
            .acks
            .iter()
            .filter(|a| a.rank == r && a.op_end <= state.prefix)
            .map(|a| a.acked)
            .max()
            .unwrap_or(0);
        for seq in 0..n {
            let t = crashcheck_triple(r, seq);
            if !out1.graph.contains(&t) {
                fail(
                    "durability",
                    format!("rank {r} record {seq} was acked before the crash but is absent after recovery"),
                );
            }
        }
    }

    // --- I2: no phantom records (and, since the graph is a set, no
    // double count) --------------------------------------------------------
    let mut matched = 0usize;
    for r in 0..w.config.ranks {
        for seq in 0..w.config.pushes {
            let present = out1.graph.contains(&crashcheck_triple(r, seq));
            let present2 = out2.graph.contains(&crashcheck_triple(r, seq));
            if present != present2 {
                fail(
                    "idempotent-recovery",
                    format!("rank {r} record {seq} present after one pass but not the other"),
                );
            }
            matched += usize::from(present);
        }
    }
    if out1.graph.len() > matched {
        fail(
            "no-phantom",
            format!(
                "merged graph holds {} triples but only {} correspond to pushed records",
                out1.graph.len(),
                matched
            ),
        );
    }

    // --- I3: bounded loss --------------------------------------------------
    // A dropped journal append leaves a hole mid-generation: every chunk
    // journaled behind it in the same generation is honestly lost too
    // (merge truncates at the hole). Widen that rank's bound by the
    // records it pushed after the dropped write.
    let mut wal_drop = None;
    if let CrashVariant::DroppedWrite { op } = state.variant {
        if let Some(o) = w.ops.get(op) {
            if frame::is_wal_path(o.path()) {
                wal_drop = Some((o.path().to_string(), op));
            }
        }
    }
    for r in 0..w.config.ranks as usize {
        let issued: Vec<usize> = w
            .pushes
            .iter()
            .filter(|p| p.rank == r as u32 && p.op_end <= state.prefix)
            .map(|p| p.seq)
            .collect();
        let lost = issued
            .iter()
            .filter(|&&seq| !out1.graph.contains(&crashcheck_triple(r as u32, seq)))
            .count();
        let mut bound = w.config.wal_group as usize;
        if let Some((path, op)) = &wal_drop {
            if path.starts_with(&format!("{CRASHCHECK_DIR}/rank{r}.nt.")) {
                bound += w
                    .pushes
                    .iter()
                    .filter(|p| p.rank == r as u32 && p.op_end > *op && p.op_end <= state.prefix)
                    .count();
            }
        }
        if lost > bound {
            fail(
                "bounded-loss",
                format!(
                    "rank {r} lost {lost} of {} issued records; bound is {bound} (wal_group {})",
                    issued.len(),
                    w.config.wal_group
                ),
            );
        }
    }

    // --- I4: no innocent quarantine or phantom loss ------------------------
    for out in [&out1, &out2] {
        if !out.merge.quarantined.is_empty() {
            fail(
                "no-innocent-quarantine",
                format!("merge quarantined {:?} in a pure-crash state", out.merge.quarantined),
            );
        }
        if !out.quarantined.is_empty() {
            fail(
                "no-innocent-quarantine",
                format!("verify quarantined {:?} in a pure-crash state", out.quarantined),
            );
        }
        if !out.scrub.unrecoverable.is_empty() {
            fail(
                "no-innocent-quarantine",
                format!(
                    "scrub reported {:?} unrecoverable in a pure-crash state",
                    out.scrub.unrecoverable
                ),
            );
        }
        if !out.scrub.unusable_parity.is_empty() {
            fail(
                "no-innocent-quarantine",
                format!(
                    "scrub reported parity {:?} unusable: a crash can only leave parity absent or whole",
                    out.scrub.unusable_parity
                ),
            );
        }
    }

    // --- I5: atomic manifest/ledger — old-or-new, never torn-and-trusted ---
    if let Some(audit) = &out1.verify {
        for check in &audit.checks {
            if check.verdict == FileVerdict::Tampered {
                fail(
                    "atomic-trust",
                    format!("{} judged Tampered in a pure-crash state: {}", check.path, check.detail),
                );
            }
        }
        if audit.manifest_present && !audit.manifest_ok {
            fail(
                "atomic-trust",
                "a manifest is present on disk but does not verify — the manifest commit tore"
                    .to_string(),
            );
        }
    }

    violations
}

/// Reconstruct `state` from the recorded trace and check it.
pub fn check_state(w: &RecordedWorkload, state: CrashState) -> Vec<Violation> {
    let fs = reconstruct(&w.ops, &state);
    check_recovered(w, state, &fs)
}

/// Record the workload and explore its crash-state space under the
/// configured budget.
pub fn crashcheck(config: &CrashcheckConfig) -> (RecordedWorkload, CrashcheckReport) {
    let w = record_workload(config);
    let mut states = enumerate_crash_states(&w.ops, config.max_dropped);
    let total = states.len();
    if config.max_states > 0 && states.len() > config.max_states {
        let stride = states.len().div_ceil(config.max_states);
        states = states.into_iter().step_by(stride).collect();
    }
    let mut report = CrashcheckReport {
        trace_len: w.ops.len(),
        states: total,
        checked: 0,
        violations: Vec::new(),
    };
    for state in states {
        report.violations.extend(check_state(&w, state));
        report.checked += 1;
    }
    (w, report)
}

/// The deterministic repro artifact for a violation: the trace window
/// around the crash point, plus a [`provio_hpcfs::FaultPlan`] when a
/// single crash rule expresses the state (reorder states reproduce via
/// [`provio_hpcfs::reconstruct`] instead).
pub fn repro_text(w: &RecordedWorkload, violation: &Violation) -> String {
    let mut out = format!("{violation}\n\n");
    out.push_str(&describe_state(&w.ops, &violation.state));
    match repro_plan(&w.ops, &violation.state) {
        Some(plan) => {
            out.push_str("\nfault plan (install on the workload fs to reproduce live):\n");
            out.push_str(&format!("{plan:?}\n"));
        }
        None => {
            out.push_str(
                "\nno single-rule fault plan expresses this state; reproduce by\n\
                 replaying the trace prefix via provio_hpcfs::reconstruct.\n",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_records_trace_and_marks() {
        let cfg = CrashcheckConfig {
            ranks: 1,
            pushes: 4,
            ..CrashcheckConfig::default()
        };
        let w = record_workload(&cfg);
        assert!(!w.ops.is_empty());
        assert_eq!(w.pushes.len(), 4);
        assert!(!w.acks.is_empty());
        // Marks are monotone in the trace.
        let mut last = 0;
        for p in &w.pushes {
            assert!(p.op_end >= last);
            last = p.op_end;
        }
        // The final ack covers every push.
        assert_eq!(w.acks.last().unwrap().acked, 4);
        // Recording is deterministic.
        let w2 = record_workload(&cfg);
        assert_eq!(w.ops, w2.ops);
    }

    #[test]
    fn full_prefix_state_recovers_everything() {
        let cfg = CrashcheckConfig {
            ranks: 2,
            pushes: 4,
            ..CrashcheckConfig::default()
        };
        let w = record_workload(&cfg);
        let state = CrashState {
            prefix: w.ops.len(),
            variant: CrashVariant::Clean,
        };
        let violations = check_state(&w, state);
        assert!(violations.is_empty(), "crash-free run must be invariant-clean: {violations:?}");
    }

    #[test]
    fn empty_prefix_state_is_trivially_clean() {
        let cfg = CrashcheckConfig {
            ranks: 1,
            pushes: 2,
            ..CrashcheckConfig::default()
        };
        let w = record_workload(&cfg);
        let state = CrashState {
            prefix: 0,
            variant: CrashVariant::Clean,
        };
        assert!(check_state(&w, state).is_empty());
    }

    #[test]
    fn state_budget_caps_work() {
        let cfg = CrashcheckConfig {
            ranks: 1,
            pushes: 2,
            flush_every: 1,
            max_dropped: 4,
            max_states: 10,
            ..CrashcheckConfig::default()
        };
        let (_, report) = crashcheck(&cfg);
        assert!(report.checked <= 10);
        assert!(report.states >= report.checked);
    }
}
