//! Post-crash disk states of a recorded [`TraceOp`] sequence: which
//! disks a crash can leave behind, and how to rebuild each one as a fresh
//! file system by replaying the surviving prefix.
//!
//! The model is deliberately conservative about ordering: data writes
//! may be reordered or lost until a *rename* of any path commits, which
//! models the store's tmp+rename discipline (rename is the protocol's
//! only durability barrier). Operations are never reordered across a
//! rename, and metadata operations (create/rename/unlink/truncate) are
//! never dropped individually — only truncated with everything after
//! them, which the prefix states cover.

use std::sync::Arc;

use provio_hpcfs::{FaultOp, FaultPlan, FaultRule, FileSystem, LustreConfig, TraceOp};
use provio_simrt::SimTime;

/// How the operation *at* the crash point fared, refining the plain
/// prefix state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashVariant {
    /// Operations `0..prefix` persisted whole; nothing after survives.
    Clean,
    /// Additionally, the first `keep` bytes of the write at index
    /// `prefix` reached disk before the crash (a torn tail).
    TornNext { keep: u64 },
    /// The write at index `op` (`op < prefix`) never reached disk even
    /// though later operations did — legal reordering inside a window
    /// with no intervening rename barrier.
    DroppedWrite { op: usize },
}

/// One reachable post-crash disk state of a traced workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashState {
    /// Operations `0..prefix` are on disk (minus a dropped write).
    pub prefix: usize,
    pub variant: CrashVariant,
}

impl std::fmt::Display for CrashState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.variant {
            CrashVariant::Clean => write!(f, "prefix {}", self.prefix),
            CrashVariant::TornNext { keep } => {
                write!(f, "prefix {} + torn write ({} bytes kept)", self.prefix, keep)
            }
            CrashVariant::DroppedWrite { op } => {
                write!(f, "prefix {} with write #{op} dropped", self.prefix)
            }
        }
    }
}

/// Severity/simplicity order for the minimizer: for the same prefix, a
/// clean truncation is a simpler repro than a torn tail, which is
/// simpler than a reorder.
fn variant_rank(v: &CrashVariant) -> u8 {
    match v {
        CrashVariant::Clean => 0,
        CrashVariant::TornNext { .. } => 1,
        CrashVariant::DroppedWrite { .. } => 2,
    }
}

impl CrashState {
    /// Total order used by the failing-state minimizer: smallest prefix
    /// first, simpler variant first.
    pub(crate) fn sort_key(&self) -> (usize, u8) {
        (self.prefix, variant_rank(&self.variant))
    }
}

/// Enumerate every crash state of `ops`, in minimizer order.
///
/// * one [`CrashVariant::Clean`] state per prefix `0..=len` (the full
///   prefix is the crash-free run — recovery must be a no-op there);
/// * for each prefix whose next operation is a write of ≥ 2 bytes,
///   [`CrashVariant::TornNext`] states at keep points 1, len/2 and
///   len−1 (deduplicated);
/// * for each prefix, one [`CrashVariant::DroppedWrite`] per earlier
///   write with no rename barrier between the write and the crash
///   point. `max_dropped` caps these (they grow quadratically); the cap
///   keeps an even deterministic stride across the window list, never a
///   silent truncation of one region.
pub fn enumerate_crash_states(ops: &[TraceOp], max_dropped: usize) -> Vec<CrashState> {
    let mut states = Vec::new();
    for prefix in 0..=ops.len() {
        states.push(CrashState {
            prefix,
            variant: CrashVariant::Clean,
        });
        if let Some(TraceOp::WriteAt { data, .. }) = ops.get(prefix) {
            let len = data.len() as u64;
            if len >= 2 {
                let mut keeps = vec![1, len / 2, len - 1];
                keeps.sort_unstable();
                keeps.dedup();
                for keep in keeps {
                    if keep > 0 && keep < len {
                        states.push(CrashState {
                            prefix,
                            variant: CrashVariant::TornNext { keep },
                        });
                    }
                }
            }
        }
    }

    // Reorder variants: a write at `i` drops while `i+1..prefix` persist,
    // provided no rename (the barrier) sits in `i+1..prefix`. Walking
    // prefixes outward from each write visits each window once.
    let mut dropped = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !matches!(op, TraceOp::WriteAt { .. }) {
            continue;
        }
        for prefix in (i + 2)..=ops.len() {
            if ops[i + 1..prefix]
                .iter()
                .any(|o| matches!(o, TraceOp::Rename { .. }))
            {
                break;
            }
            dropped.push(CrashState {
                prefix,
                variant: CrashVariant::DroppedWrite { op: i },
            });
        }
    }
    if dropped.len() > max_dropped && max_dropped > 0 {
        let stride = dropped.len().div_ceil(max_dropped);
        dropped = dropped.into_iter().step_by(stride).collect();
    } else if max_dropped == 0 {
        dropped.clear();
    }
    states.extend(dropped);
    states.sort_by_key(CrashState::sort_key);
    states
}

/// Replay `ops[..prefix]` onto `fs`, skipping index `skip` if given,
/// then (for torn states) the kept head of the write at `prefix`.
/// Replay resolves paths at apply time, so renames recorded mid-trace
/// compose exactly as they did live.
pub fn apply_prefix(fs: &Arc<FileSystem>, ops: &[TraceOp], state: &CrashState) {
    let now = SimTime::ZERO;
    let skip = match state.variant {
        CrashVariant::DroppedWrite { op } => Some(op),
        _ => None,
    };
    let apply = |op: &TraceOp, torn_keep: Option<u64>| match op {
        TraceOp::Create { path } => {
            if let Some((dir, _)) = path.rsplit_once('/') {
                if !dir.is_empty() {
                    let _ = fs.mkdir_all(dir, "crashcheck", now);
                }
            }
            let _ = fs.create_file(path, false, "crashcheck", now);
        }
        TraceOp::WriteAt { path, offset, data } => {
            let ino = match fs.lookup(path) {
                Ok(ino) => ino,
                // A dropped create cannot precede a recorded write (creates
                // are never dropped), but a reconstruction under a skipped
                // write may leave the file shorter than recorded — recreate
                // defensively so replay never wedges.
                Err(_) => match fs.create_file(path, false, "crashcheck", now) {
                    Ok(ino) => ino,
                    Err(_) => return,
                },
            };
            let data = match torn_keep {
                Some(keep) => data.slice(..keep.min(data.len() as u64) as usize),
                None => data.clone(),
            };
            let _ = fs.write_at(ino, *offset, data, now);
        }
        TraceOp::Rename { old, new } => {
            let _ = fs.rename(old, new, now);
        }
        TraceOp::Unlink { path } => {
            let _ = fs.unlink(path);
        }
        TraceOp::Truncate { path, size } => {
            if let Ok(ino) = fs.lookup(path) {
                let _ = fs.truncate_ino(ino, *size, now);
            }
        }
    };
    for (i, op) in ops.iter().take(state.prefix).enumerate() {
        if Some(i) == skip {
            continue;
        }
        apply(op, None);
    }
    if let CrashVariant::TornNext { keep } = state.variant {
        if let Some(op @ TraceOp::WriteAt { .. }) = ops.get(state.prefix) {
            apply(op, Some(keep));
        }
    }
}

/// Reconstruct the post-crash disk of `state` as a fresh file system.
pub fn reconstruct(ops: &[TraceOp], state: &CrashState) -> Arc<FileSystem> {
    let fs = FileSystem::new(LustreConfig::default());
    apply_prefix(&fs, ops, state);
    fs
}

/// A deterministic [`FaultPlan`] that reproduces `state` in a live
/// re-run of the same workload: crash on the Nth operation of the
/// matching kind, torn-tail included. `None` for states a single crash
/// rule cannot express — the crash-free full prefix, and reorder
/// states (those reproduce via [`reconstruct`]; see
/// [`describe_state`]).
pub(crate) fn repro_plan(ops: &[TraceOp], state: &CrashState) -> Option<Arc<FaultPlan>> {
    if state.prefix >= ops.len() && matches!(state.variant, CrashVariant::Clean) {
        return None;
    }
    if matches!(state.variant, CrashVariant::DroppedWrite { .. }) {
        return None;
    }
    let target = ops.get(state.prefix)?;
    let kind = fault_kind(target);
    let prior = ops[..state.prefix]
        .iter()
        .filter(|o| fault_kind(o) == kind)
        .count();
    let mut rule = FaultRule::crash(kind).after(prior as u32).times(1);
    if let CrashVariant::TornNext { keep } = state.variant {
        rule = rule.torn(keep);
    }
    Some(FaultPlan::new(0).with_rule(rule))
}

/// A human-readable specification of `state` against its trace — the
/// repro artifact for states [`repro_plan`] cannot express, and the
/// context line for those it can.
pub(crate) fn describe_state(ops: &[TraceOp], state: &CrashState) -> String {
    let mut out = format!("crash state: {state}\n");
    let around = state.prefix.saturating_sub(3)..(state.prefix + 2).min(ops.len());
    for i in around {
        let marker = if i == state.prefix { ">" } else { " " };
        let dropped = matches!(state.variant, CrashVariant::DroppedWrite { op } if op == i);
        let d = if dropped { " [DROPPED]" } else { "" };
        let line = match &ops[i] {
            TraceOp::Create { path } => format!("create {path}"),
            TraceOp::WriteAt { path, offset, data } => {
                format!("write {path} @{offset} +{}", data.len())
            }
            TraceOp::Rename { old, new } => format!("rename {old} -> {new}"),
            TraceOp::Unlink { path } => format!("unlink {path}"),
            TraceOp::Truncate { path, size } => format!("truncate {path} -> {size}"),
        };
        out.push_str(&format!("{marker} op {i:5}: {line}{d}\n"));
    }
    out
}

/// The [`FaultOp`] kind a fault rule would match to interrupt `op` in a
/// live re-run.
fn fault_kind(op: &TraceOp) -> FaultOp {
    match op {
        TraceOp::Create { .. } => FaultOp::CreateFile,
        TraceOp::WriteAt { .. } => FaultOp::WriteAt,
        TraceOp::Rename { .. } => FaultOp::Rename,
        TraceOp::Unlink { .. } => FaultOp::Unlink,
        TraceOp::Truncate { .. } => FaultOp::TruncateIno,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::{FsError, OpTrace};

    const T0: SimTime = SimTime(1_000);

    fn traced_fs() -> (Arc<FileSystem>, Arc<OpTrace>) {
        let fs = FileSystem::new(LustreConfig::default());
        let trace = OpTrace::new();
        fs.attach_tracer(Arc::clone(&trace));
        (fs, trace)
    }

    fn read(fs: &Arc<FileSystem>, path: &str) -> Option<Vec<u8>> {
        let ino = fs.lookup(path).ok()?;
        let size = fs.file_size(ino).ok()?;
        Some(fs.read_at(ino, 0, size).ok()?.to_vec())
    }

    #[test]
    fn reconstruct_replays_each_prefix() {
        let (fs, trace) = traced_fs();
        fs.mkdir_all("/d", "t", T0).unwrap();
        let ino = fs.create_file("/d/f.tmp", false, "t", T0).unwrap();
        fs.write_at(ino, 0, b"abcdef", T0).unwrap();
        fs.rename("/d/f.tmp", "/d/f", T0).unwrap();
        let ops = trace.snapshot();
        assert_eq!(ops.len(), 3);

        // After only the create, the file exists empty under the tmp name.
        let s1 = CrashState { prefix: 1, variant: CrashVariant::Clean };
        let r1 = reconstruct(&ops, &s1);
        assert_eq!(read(&r1, "/d/f.tmp"), Some(Vec::new()));
        assert!(read(&r1, "/d/f").is_none());

        // Full prefix reproduces the final disk exactly.
        let s3 = CrashState { prefix: 3, variant: CrashVariant::Clean };
        let r3 = reconstruct(&ops, &s3);
        assert_eq!(read(&r3, "/d/f"), Some(b"abcdef".to_vec()));
        assert!(read(&r3, "/d/f.tmp").is_none());
    }

    #[test]
    fn torn_variant_keeps_write_head() {
        let (fs, trace) = traced_fs();
        let ino = fs.create_file("/f", false, "t", T0).unwrap();
        fs.write_at(ino, 0, b"abcdef", T0).unwrap();
        let ops = trace.snapshot();
        let s = CrashState { prefix: 1, variant: CrashVariant::TornNext { keep: 3 } };
        let r = reconstruct(&ops, &s);
        assert_eq!(read(&r, "/f"), Some(b"abc".to_vec()));
    }

    #[test]
    fn dropped_write_variant_skips_one_write() {
        let (fs, trace) = traced_fs();
        let a = fs.create_file("/a", false, "t", T0).unwrap();
        let b = fs.create_file("/b", false, "t", T0).unwrap();
        fs.write_at(a, 0, b"xx", T0).unwrap();
        fs.write_at(b, 0, b"yy", T0).unwrap();
        let ops = trace.snapshot();
        let s = CrashState { prefix: 4, variant: CrashVariant::DroppedWrite { op: 2 } };
        let r = reconstruct(&ops, &s);
        assert_eq!(read(&r, "/a"), Some(Vec::new()));
        assert_eq!(read(&r, "/b"), Some(b"yy".to_vec()));
    }

    #[test]
    fn enumeration_covers_prefixes_torn_and_barriers() {
        let (fs, trace) = traced_fs();
        let a = fs.create_file("/a.tmp", false, "t", T0).unwrap();
        fs.write_at(a, 0, b"abcd", T0).unwrap();
        fs.rename("/a.tmp", "/a", T0).unwrap();
        let b = fs.create_file("/b", false, "t", T0).unwrap();
        fs.write_at(b, 0, b"zz", T0).unwrap();
        let ops = trace.snapshot();
        let states = enumerate_crash_states(&ops, usize::MAX);

        // Every prefix 0..=5 appears as a clean state.
        for p in 0..=ops.len() {
            assert!(states
                .iter()
                .any(|s| s.prefix == p && s.variant == CrashVariant::Clean));
        }
        // Torn variants for the 4-byte write: keeps {1, 2, 3}.
        for keep in [1, 2, 3] {
            assert!(states
                .iter()
                .any(|s| s.prefix == 1 && s.variant == CrashVariant::TornNext { keep }));
        }
        // No reorder crosses the rename at index 2: the write at 1 may
        // drop only with prefix <= 2 (and prefix must exceed op + 1).
        assert!(!states.iter().any(|s| matches!(
            s.variant,
            CrashVariant::DroppedWrite { op: 1 }
        ) && s.prefix > 2));
        // The write at index 4 has nothing after it to reorder past.
        assert!(!states
            .iter()
            .any(|s| matches!(s.variant, CrashVariant::DroppedWrite { op: 4 })));
        // Minimizer order: sorted by (prefix, variant rank).
        let keys: Vec<_> = states.iter().map(CrashState::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn dropped_budget_strides_evenly() {
        let (fs, trace) = traced_fs();
        let a = fs.create_file("/a", false, "t", T0).unwrap();
        for i in 0..10 {
            fs.write_at(a, i * 2, b"xy", T0).unwrap();
        }
        let ops = trace.snapshot();
        let all = enumerate_crash_states(&ops, usize::MAX);
        let total_dropped = all
            .iter()
            .filter(|s| matches!(s.variant, CrashVariant::DroppedWrite { .. }))
            .count();
        assert!(total_dropped > 8);
        let capped = enumerate_crash_states(&ops, 8);
        let kept: Vec<_> = capped
            .iter()
            .filter(|s| matches!(s.variant, CrashVariant::DroppedWrite { .. }))
            .collect();
        assert!(kept.len() <= 8 && !kept.is_empty());
        let none = enumerate_crash_states(&ops, 0);
        assert!(!none
            .iter()
            .any(|s| matches!(s.variant, CrashVariant::DroppedWrite { .. })));
    }

    #[test]
    fn repro_plan_crashes_the_exact_operation() {
        // Record a workload with three writes; a repro plan for a crash
        // at the third write must fire on that call in a live re-run.
        let (fs, trace) = traced_fs();
        let a = fs.create_file("/a", false, "t", T0).unwrap();
        fs.write_at(a, 0, b"one", T0).unwrap();
        fs.write_at(a, 3, b"two", T0).unwrap();
        fs.write_at(a, 6, b"three", T0).unwrap();
        let ops = trace.snapshot();
        let state = CrashState { prefix: 3, variant: CrashVariant::Clean };
        let plan = repro_plan(&ops, &state).expect("plannable state");

        let live = FileSystem::new(LustreConfig::default());
        live.install_faults(plan);
        let ino = live.create_file("/a", false, "t", T0).unwrap();
        live.write_at(ino, 0, b"one", T0).unwrap();
        live.write_at(ino, 3, b"two", T0).unwrap();
        assert!(matches!(
            live.write_at(ino, 6, b"three", T0),
            Err(FsError::Crashed)
        ));

        // Crash-free full prefix and reorder states have no single-rule plan.
        let full = CrashState { prefix: 4, variant: CrashVariant::Clean };
        assert!(repro_plan(&ops, &full).is_none());
        let dropped = CrashState { prefix: 3, variant: CrashVariant::DroppedWrite { op: 1 } };
        assert!(repro_plan(&ops, &dropped).is_none());
        assert!(describe_state(&ops, &dropped).contains("[DROPPED]"));
    }

    #[test]
    fn torn_repro_plan_keeps_prefix() {
        let (fs, trace) = traced_fs();
        let a = fs.create_file("/a", false, "t", T0).unwrap();
        fs.write_at(a, 0, b"abcdef", T0).unwrap();
        let ops = trace.snapshot();
        let state = CrashState { prefix: 1, variant: CrashVariant::TornNext { keep: 2 } };
        let plan = repro_plan(&ops, &state).expect("plannable");

        let live = FileSystem::new(LustreConfig::default());
        live.install_faults(plan);
        let ino = live.create_file("/a", false, "t", T0).unwrap();
        assert!(live.write_at(ino, 0, b"abcdef", T0).is_err());
        assert_eq!(live.file_size(ino).unwrap(), 2);
    }
}
