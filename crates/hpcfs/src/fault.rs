//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is installed on a [`crate::FileSystem`] and consulted by
//! the mutating data-path operations (`create_file`, `write_at`, `rename`,
//! `truncate_ino`). Each [`FaultRule`] selects an operation (optionally
//! narrowed to paths containing a substring), waits out a number of clean
//! calls, then fires a [`FaultAction`] — a typed POSIX error, a *torn write*
//! that persists only a prefix of the buffer, or a *crash point* that kills
//! the writing process mid-operation ([`FsError::Crashed`]).
//!
//! Randomized rules draw from a [`DetRng`] stream derived from the plan's
//! seed, so a failing schedule replays bit-for-bit from `(seed, rules)` —
//! the same contract the rest of the simulation keeps for time and data.

use crate::error::FsError;
use parking_lot::Mutex;
use provio_simrt::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stream id carved out of the run seed for fault decisions, so fault
/// randomness never perturbs workload randomness under the same seed.
const FAULT_STREAM: u64 = 0xFA17;

/// Which file-system operation a rule arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    CreateFile,
    WriteAt,
    Rename,
    TruncateIno,
    /// `unlink(2)` — armed so recovery-time cleanup (quarantine removal,
    /// WAL recycling) is as crashable as the write path it cleans up after.
    Unlink,
    /// Data-path reads; the only op where [`FaultAction::Corrupt`] mutates
    /// the bytes handed back instead of the bytes on media.
    ReadAt,
}

/// The shape of a silent-corruption fault: what bit rot, a misdirected
/// write, or a failing controller does to committed bytes. Where the bytes
/// land (the media, or just one read's returned copy) is decided by the op
/// the rule armed; *which* bytes are hit is drawn from the plan's seeded
/// RNG, so a damaging schedule replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip `count` independently-chosen bits anywhere in the buffer.
    BitFlips { count: u32 },
    /// Cut the buffer at a random point strictly inside it.
    Truncate,
    /// Overwrite one randomly-placed `len`-byte window with a copy of
    /// another (a stale or misdirected block; length is preserved).
    DuplicateBlock { len: u64 },
    /// Zero every byte (a lost stripe reading back as holes).
    ZeroFill,
}

/// What happens when a rule fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Fail the call with a typed errno; nothing is persisted.
    Fail(FsError),
    /// Persist only the first `keep` bytes of the buffer, then report EIO.
    /// Models a torn write: the media holds a prefix, the caller sees an
    /// error. Only meaningful for `WriteAt`; elsewhere it degrades to EIO.
    TornWrite { keep: u64 },
    /// Kill the writer mid-operation: optionally persist a `torn_keep`-byte
    /// prefix (for `WriteAt`), then return [`FsError::Crashed`]. A crashed
    /// process must not retry or clean up — recovery happens at merge time.
    Crash { torn_keep: Option<u64> },
    /// Silently corrupt the data and report *success* — the caller never
    /// learns. On `WriteAt` the mutated buffer is what lands on media; on
    /// `ReadAt` the media is intact and only the returned copy is mutated.
    /// On ops that move no data it degrades to EIO.
    Corrupt(CorruptKind),
    /// No fault: the file system counts the injection and lets the
    /// operation succeed untouched, so a rule with this action counts the
    /// calls it matches. The op persists (or returns) exactly the bytes a
    /// fault-free call would, and no clock is charged.
    Count,
}

impl CorruptKind {
    /// Apply this corruption to `data` in place, drawing positions from
    /// `rng`. Returns the number of bytes affected (0 = the buffer was too
    /// small to damage, e.g. an empty file).
    pub(crate) fn apply(&self, data: &mut Vec<u8>, rng: &mut DetRng) -> u64 {
        if data.is_empty() {
            return 0;
        }
        let len = data.len() as u64;
        match *self {
            CorruptKind::BitFlips { count } => {
                for _ in 0..count {
                    let byte = rng.below(len) as usize;
                    let bit = rng.below(8) as u8;
                    data[byte] ^= 1 << bit;
                }
                count as u64
            }
            CorruptKind::Truncate => {
                let keep = rng.below(len) as usize;
                let cut = data.len() - keep;
                data.truncate(keep);
                cut as u64
            }
            CorruptKind::DuplicateBlock { len: block } => {
                let block = (block.max(1)).min(len) as usize;
                let src = rng.below(len - block as u64 + 1) as usize;
                let dst = rng.below(len - block as u64 + 1) as usize;
                let window: Vec<u8> = data[src..src + block].to_vec();
                data[dst..dst + block].copy_from_slice(&window);
                block as u64
            }
            CorruptKind::ZeroFill => {
                data.iter_mut().for_each(|b| *b = 0);
                len
            }
        }
    }
}

/// The shape of an *adversarial* at-rest mutation. Unlike [`CorruptKind`]
/// — rot, which damages bytes blindly and trips CRCs — these are
/// format-aware: the adversary has read the `PROVIO1` frame layout and
/// patches every internal check (batch CRC, footer Merkle root) so the
/// mutated file stays internally consistent and the merge accepts it
/// without complaint. Only a signed run manifest, anchored in a key the
/// adversary does not hold, can tell the difference — which is exactly the
/// threat model `provio verify` exists for. The frame knowledge is
/// deliberately reimplemented here rather than imported: the fault layer
/// plays the adversary, not the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperKind {
    /// Flip one payload byte inside a randomly-chosen batch, then
    /// recompute and patch that batch's `crc=` and the footer `root=`.
    /// Every frame check passes; the content is a lie.
    CrcPatchedRewrite,
    /// Replace a whole batch body with forged triples (same line count),
    /// patching `crc=` and `root=` the same way.
    FileSubstitution,
    /// Flip one hex digit of a signed `root=` inside a run manifest,
    /// leaving its HMAC stale.
    ManifestEdit,
    /// Cut the campaign ledger's tail: either cleanly at the last chunk
    /// boundary (the last sealed run silently vanishes) or mid-chunk (a
    /// torn tail indistinguishable from a crashed append).
    LedgerTruncate,
}

/// One `PROVIO1` frame pulled apart for re-forging: header and footer
/// fields kept verbatim, batch bodies editable.
struct FrameScan {
    header: String,
    /// `(lines= field, body including trailing newlines)` per batch.
    batches: Vec<(usize, String)>,
    footer_batches: String,
    footer_chain: String,
}

fn scan_frame(text: &str) -> Option<FrameScan> {
    if !text.starts_with("# PROVIO1") {
        return None;
    }
    let mut lines = text.split_inclusive('\n');
    let header = lines.next()?.trim_end_matches('\n').to_string();
    let mut batches: Vec<(usize, String)> = Vec::new();
    let mut current: Option<(usize, String)> = None;
    let mut footer = None;
    for line in lines {
        let trimmed = line.trim_end_matches('\n');
        if let Some(rest) = trimmed.strip_prefix("#~B ") {
            if let Some(done) = current.take() {
                batches.push(done);
            }
            let n = rest
                .split(' ')
                .find_map(|t| t.strip_prefix("lines="))
                .and_then(|v| v.parse().ok())?;
            current = Some((n, String::new()));
        } else if let Some(rest) = trimmed.strip_prefix("#~F ") {
            if let Some(done) = current.take() {
                batches.push(done);
            }
            let field = |k: &str| {
                rest.split(' ')
                    .find_map(|t| t.strip_prefix(k))
                    .map(str::to_string)
            };
            footer = Some((field("batches=")?, field("chain=")?));
            break;
        } else if let Some((_, body)) = &mut current {
            body.push_str(line);
        } else {
            return None; // payload before any batch marker
        }
    }
    let (footer_batches, footer_chain) = footer?;
    Some(FrameScan {
        header,
        batches,
        footer_batches,
        footer_chain,
    })
}

/// The frame layer's Merkle fold, as the adversary reimplements it:
/// leaves are SHA-256 of each batch CRC's big-endian bytes, interior nodes
/// hash child concatenations, odd nodes promote, zero leaves root at
/// SHA-256 of the empty string.
fn forged_root(leaves: &[u32]) -> [u8; 32] {
    let mut level: Vec<[u8; 32]> = leaves
        .iter()
        .map(|crc| sha2::sha256(&crc.to_be_bytes()))
        .collect();
    if level.is_empty() {
        return sha2::sha256(b"");
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if let [left, right] = pair {
                let mut h = sha2::Sha256::new();
                h.update(left);
                h.update(right);
                next.push(h.finalize());
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// Re-forge a frame around mutated batch bodies: every `crc=` recomputed,
/// the footer `root=` patched to the forged leaves. Returns the rebuilt
/// text's length, or 0 if the bytes are not a single forgeable frame.
fn rewrite_frame(data: &mut Vec<u8>, rng: &mut DetRng, substitute: bool) -> u64 {
    use std::fmt::Write as _;
    let Ok(text) = std::str::from_utf8(data) else {
        return 0;
    };
    let Some(mut scan) = scan_frame(text) else {
        return 0;
    };
    if scan.batches.is_empty() {
        return 0;
    }
    let idx = rng.below(scan.batches.len() as u64) as usize;
    if substitute {
        let lines = scan.batches[idx].1.lines().count().max(1);
        let mut forged = String::new();
        for i in 0..lines {
            let _ = writeln!(forged, "<urn:forged> <urn:prop> <urn:forged{i}> .");
        }
        scan.batches[idx].1 = forged;
    } else {
        let mut body = std::mem::take(&mut scan.batches[idx].1).into_bytes();
        let spots: Vec<usize> = body
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_alphanumeric())
            .map(|(i, _)| i)
            .collect();
        if spots.is_empty() {
            return 0;
        }
        let at = spots[rng.below(spots.len() as u64) as usize];
        body[at] = if body[at] == b'x' { b'y' } else { b'x' };
        scan.batches[idx].1 = String::from_utf8(body).expect("ascii swap");
    }
    let mut out = String::with_capacity(text.len() + 16);
    out.push_str(&scan.header);
    out.push('\n');
    let mut leaves = Vec::with_capacity(scan.batches.len());
    for (lines, body) in &scan.batches {
        let crc = crc32fast::hash(body.as_bytes());
        leaves.push(crc);
        let _ = writeln!(out, "#~B lines={lines} crc={crc:08x}");
        out.push_str(body);
    }
    let _ = writeln!(
        out,
        "#~F batches={} chain={} root={}",
        scan.footer_batches,
        scan.footer_chain,
        sha2::hex(&forged_root(&leaves))
    );
    let n = out.len() as u64;
    *data = out.into_bytes();
    n
}

fn manifest_edit(data: &mut [u8], rng: &mut DetRng) -> u64 {
    let Ok(text) = std::str::from_utf8(data) else {
        return 0;
    };
    if !text.starts_with("# PROVIO-MANIFEST1") {
        return 0;
    }
    let mut targets: Vec<usize> = Vec::new();
    let mut off = 0usize;
    for line in text.split_inclusive('\n') {
        if line.starts_with("file ") {
            if let Some(p) = line.find("root=") {
                targets.push(off + p + "root=".len());
            }
        }
        off += line.len();
    }
    if targets.is_empty() {
        return 0;
    }
    let base = targets[rng.below(targets.len() as u64) as usize];
    let digit = base + rng.below(64) as usize;
    data[digit] = if data[digit] == b'0' { b'1' } else { b'0' };
    1
}

fn ledger_truncate(data: &mut Vec<u8>, rng: &mut DetRng) -> u64 {
    let Ok(text) = std::str::from_utf8(data) else {
        return 0;
    };
    let mut starts: Vec<usize> = Vec::new();
    let mut off = 0usize;
    for line in text.split_inclusive('\n') {
        if line.starts_with("# PROVIO1") {
            starts.push(off);
        }
        off += line.len();
    }
    let Some(&last) = starts.last() else {
        return 0;
    };
    let cut = if rng.below(2) == 0 {
        last // clean cut at the chunk boundary
    } else {
        last + 1 + rng.below((data.len() - last - 1).max(1) as u64) as usize
    };
    let removed = (data.len() - cut) as u64;
    data.truncate(cut);
    removed
}

impl TamperKind {
    /// Apply this mutation to `data` in place, drawing choices from `rng`.
    /// Returns the number of bytes affected — 0 means the bytes were not a
    /// valid target (e.g. a frame rewrite aimed at an unframed file), in
    /// which case `data` is unchanged: tamper is surgical, never noisy.
    pub(crate) fn apply(&self, data: &mut Vec<u8>, rng: &mut DetRng) -> u64 {
        match self {
            TamperKind::CrcPatchedRewrite => rewrite_frame(data, rng, false),
            TamperKind::FileSubstitution => rewrite_frame(data, rng, true),
            TamperKind::ManifestEdit => manifest_edit(data, rng),
            TamperKind::LedgerTruncate => ledger_truncate(data, rng),
        }
    }
}

/// One armed fault: operation selector, path filter, scheduling, action.
#[derive(Debug, Clone)]
pub struct FaultRule {
    op: FaultOp,
    path_substr: Option<String>,
    /// Path suffix filter (e.g. `".par.tmp"`), sharper than the substring
    /// filter when artifact families share infixes.
    path_suffix: Option<String>,
    /// Clean calls to let through before the rule becomes eligible.
    skip: u32,
    /// How many times the rule may fire (`None` = unlimited).
    times: Option<u32>,
    /// Probability of firing once eligible (1.0 = always).
    probability: f64,
    action: FaultAction,
}

impl FaultRule {
    /// Rule taking `action` on every eligible `op` call.
    fn on(op: FaultOp, action: FaultAction) -> Self {
        FaultRule {
            op,
            path_substr: None,
            path_suffix: None,
            skip: 0,
            times: None,
            probability: 1.0,
            action,
        }
    }

    /// Rule failing `op` with errno `err` on every eligible call.
    pub fn fail(op: FaultOp, err: FsError) -> Self {
        FaultRule::on(op, FaultAction::Fail(err))
    }

    /// Torn write: persist `keep` bytes then fail with EIO.
    pub fn torn_write(keep: u64) -> Self {
        FaultRule::on(FaultOp::WriteAt, FaultAction::TornWrite { keep })
    }

    /// Crash point on `op` (no partial persistence unless [`Self::torn`]).
    pub fn crash(op: FaultOp) -> Self {
        FaultRule::on(op, FaultAction::Crash { torn_keep: None })
    }

    /// Silent corruption on `op` (see [`FaultAction::Corrupt`]). For
    /// committed-at-rest damage, prefer
    /// [`crate::FileSystem::corrupt_at_rest`], which needs no armed rule.
    pub fn corrupt(op: FaultOp, kind: CorruptKind) -> Self {
        FaultRule::on(op, FaultAction::Corrupt(kind))
    }

    /// Count the eligible calls of `op` in [`FaultPlan::injected`]; each
    /// still succeeds (see [`FaultAction::Count`]).
    pub fn count(op: FaultOp) -> Self {
        FaultRule::on(op, FaultAction::Count)
    }

    /// For a crash rule: also persist a `keep`-byte prefix of the buffer.
    pub fn torn(mut self, keep: u64) -> Self {
        if let FaultAction::Crash { torn_keep } = &mut self.action {
            *torn_keep = Some(keep);
        }
        self
    }

    /// Only fire on paths containing `substr`.
    pub fn on_path(mut self, substr: impl Into<String>) -> Self {
        self.path_substr = Some(substr.into());
        self
    }

    /// Only fire on paths ending in `suffix` — e.g. `".par.tmp"` to damage
    /// a parity seal in flight without touching the store commits whose
    /// paths contain the same infix. Composes with [`Self::on_path`].
    pub fn on_suffix(mut self, suffix: impl Into<String>) -> Self {
        self.path_suffix = Some(suffix.into());
        self
    }

    /// Let `n` matching calls through cleanly before becoming eligible.
    pub fn after(mut self, n: u32) -> Self {
        self.skip = n;
        self
    }

    /// Fire at most `n` times, then disarm — the transient-then-recover
    /// shape: `.times(2)` fails twice, then the operation succeeds.
    pub fn times(mut self, n: u32) -> Self {
        self.times = Some(n);
        self
    }

    /// Fire with probability `p` per eligible call (seeded, deterministic).
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    fn matches(&self, op: FaultOp, path: &str) -> bool {
        self.op == op
            && self
                .path_substr
                .as_deref()
                .is_none_or(|s| path.contains(s))
            && self
                .path_suffix
                .as_deref()
                .is_none_or(|s| path.ends_with(s))
    }
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    skipped: u32,
    fired: u32,
}

/// A deterministic schedule of faults, shared by reference with the
/// file system it is installed on.
#[derive(Debug)]
pub struct FaultPlan {
    rules: Mutex<Vec<RuleState>>,
    rng: Mutex<DetRng>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(FaultPlan {
            rules: Mutex::new(Vec::new()),
            rng: Mutex::new(DetRng::with_stream(seed, FAULT_STREAM)),
            injected: AtomicU64::new(0),
        })
    }

    /// Arm a rule. Rules are consulted in insertion order; the first one
    /// that fires wins.
    pub fn add_rule(&self, rule: FaultRule) {
        self.rules.lock().push(RuleState {
            rule,
            skipped: 0,
            fired: 0,
        });
    }

    /// Builder-style [`Self::add_rule`] for plan construction chains.
    pub fn with_rule(self: Arc<Self>, rule: FaultRule) -> Arc<Self> {
        self.add_rule(rule);
        self
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consult the plan for `op` on `path`. Called by the file system on
    /// every armed operation; returns the action to apply, if any.
    pub(crate) fn decide(&self, op: FaultOp, path: &str) -> Option<FaultAction> {
        let mut rules = self.rules.lock();
        for st in rules.iter_mut() {
            if !st.rule.matches(op, path) {
                continue;
            }
            if st.skipped < st.rule.skip {
                st.skipped += 1;
                continue;
            }
            if st.rule.times.is_some_and(|t| st.fired >= t) {
                continue;
            }
            if st.rule.probability < 1.0 {
                let draw = self.rng.lock().f64();
                if draw >= st.rule.probability {
                    continue;
                }
            }
            st.fired += 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(st.rule.action.clone());
        }
        None
    }

    /// Apply a fired [`FaultAction::Corrupt`] to `data` using the plan's
    /// RNG stream, so *where* the damage lands replays from `(seed, rules)`
    /// just like whether it fires. Returns bytes affected.
    pub(crate) fn apply_corruption(&self, kind: &CorruptKind, data: &mut Vec<u8>) -> u64 {
        kind.apply(data, &mut self.rng.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_fires_after_skip_then_exhausts() {
        let plan = FaultPlan::new(1);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).after(2).times(1));
        assert_eq!(plan.decide(FaultOp::WriteAt, "/a"), None);
        assert_eq!(plan.decide(FaultOp::WriteAt, "/a"), None);
        assert_eq!(
            plan.decide(FaultOp::WriteAt, "/a"),
            Some(FaultAction::Fail(FsError::Io))
        );
        assert_eq!(plan.decide(FaultOp::WriteAt, "/a"), None);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn path_filter_narrows_blast_radius() {
        let plan = FaultPlan::new(2);
        plan.add_rule(FaultRule::fail(FaultOp::Rename, FsError::NoSpace).on_path("prov_p3"));
        assert_eq!(plan.decide(FaultOp::Rename, "/provio/prov_p1.nt.tmp"), None);
        assert_eq!(
            plan.decide(FaultOp::Rename, "/provio/prov_p3.nt.tmp"),
            Some(FaultAction::Fail(FsError::NoSpace))
        );
    }

    #[test]
    fn suffix_filter_hits_only_ends_of_paths() {
        let plan = FaultPlan::new(7);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_suffix(".par.tmp"));
        // The infix appears mid-path: no match.
        assert_eq!(plan.decide(FaultOp::WriteAt, "/p/a.par.tmp.backup"), None);
        // The store commit sharing the directory: no match.
        assert_eq!(plan.decide(FaultOp::WriteAt, "/p/prov_p0.nt.tmp"), None);
        // The in-flight parity seal: match.
        assert_eq!(
            plan.decide(FaultOp::WriteAt, "/p/prov_p0.nt.p000003.par.tmp"),
            Some(FaultAction::Fail(FsError::Io))
        );
    }

    #[test]
    fn wrong_op_never_fires() {
        let plan = FaultPlan::new(3);
        plan.add_rule(FaultRule::crash(FaultOp::Rename));
        assert_eq!(plan.decide(FaultOp::WriteAt, "/x"), None);
        assert_eq!(plan.decide(FaultOp::CreateFile, "/x"), None);
        assert!(matches!(
            plan.decide(FaultOp::Rename, "/x"),
            Some(FaultAction::Crash { torn_keep: None })
        ));
    }

    #[test]
    fn probabilistic_rule_is_seed_deterministic() {
        let draws = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed);
            plan.add_rule(
                FaultRule::fail(FaultOp::WriteAt, FsError::Io).with_probability(0.5),
            );
            (0..64)
                .map(|_| plan.decide(FaultOp::WriteAt, "/x").is_some())
                .collect()
        };
        let a = draws(7);
        assert_eq!(a, draws(7), "same seed, same schedule");
        assert_ne!(a, draws(8), "different seed, different schedule");
        let hits = a.iter().filter(|&&h| h).count();
        assert!(hits > 8 && hits < 56, "p=0.5 should fire sometimes: {hits}");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(4);
        plan.add_rule(FaultRule::torn_write(10));
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::NoSpace));
        assert_eq!(
            plan.decide(FaultOp::WriteAt, "/x"),
            Some(FaultAction::TornWrite { keep: 10 })
        );
    }

    #[test]
    fn bit_flips_are_seed_deterministic_and_counted() {
        let damage = |seed: u64| -> Vec<u8> {
            let mut rng = DetRng::with_stream(seed, FAULT_STREAM);
            let mut data = vec![0u8; 64];
            let n = CorruptKind::BitFlips { count: 3 }.apply(&mut data, &mut rng);
            assert_eq!(n, 3);
            data
        };
        assert_eq!(damage(9), damage(9), "same seed, same bits");
        assert_ne!(damage(9), damage(10));
        let flipped: u32 = damage(9).iter().map(|b| b.count_ones()).sum();
        assert!((1..=3).contains(&flipped), "3 flips may collide: {flipped}");
    }

    #[test]
    fn truncate_strictly_shrinks_nonempty_buffers() {
        let mut rng = DetRng::with_stream(4, FAULT_STREAM);
        for len in [1usize, 2, 17, 400] {
            let mut data = vec![7u8; len];
            let cut = CorruptKind::Truncate.apply(&mut data, &mut rng);
            assert!(data.len() < len, "len {len} not shrunk");
            assert_eq!(cut as usize, len - data.len());
        }
    }

    #[test]
    fn duplicate_block_preserves_length_and_zero_fill_clears() {
        let mut rng = DetRng::with_stream(5, FAULT_STREAM);
        let original: Vec<u8> = (0..100u8).collect();
        let mut data = original.clone();
        CorruptKind::DuplicateBlock { len: 16 }.apply(&mut data, &mut rng);
        assert_eq!(data.len(), 100);
        let mut zeroed = original.clone();
        assert_eq!(CorruptKind::ZeroFill.apply(&mut zeroed, &mut rng), 100);
        assert!(zeroed.iter().all(|&b| b == 0));
        // Empty buffers are a no-op, never a panic.
        let mut empty = Vec::new();
        for kind in [
            CorruptKind::BitFlips { count: 4 },
            CorruptKind::Truncate,
            CorruptKind::DuplicateBlock { len: 8 },
            CorruptKind::ZeroFill,
        ] {
            assert_eq!(kind.apply(&mut empty, &mut rng), 0);
        }
    }

    #[test]
    fn corrupt_rule_fires_on_reads_only_when_armed_there() {
        let plan = FaultPlan::new(6);
        plan.add_rule(FaultRule::corrupt(FaultOp::ReadAt, CorruptKind::BitFlips { count: 1 }));
        assert_eq!(plan.decide(FaultOp::WriteAt, "/x"), None);
        assert_eq!(
            plan.decide(FaultOp::ReadAt, "/x"),
            Some(FaultAction::Corrupt(CorruptKind::BitFlips { count: 1 }))
        );
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn delay_rule_fires_and_is_counted() {
        let plan = FaultPlan::new(11);
        plan.add_rule(FaultRule::count(FaultOp::WriteAt).times(2));
        assert_eq!(plan.decide(FaultOp::WriteAt, "/x"), Some(FaultAction::Count));
        assert_eq!(plan.decide(FaultOp::ReadAt, "/x"), None, "op selector holds");
        assert_eq!(plan.decide(FaultOp::WriteAt, "/x"), Some(FaultAction::Count));
        assert_eq!(plan.decide(FaultOp::WriteAt, "/x"), None, "exhausted");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn crash_with_torn_prefix() {
        let plan = FaultPlan::new(5);
        plan.add_rule(FaultRule::crash(FaultOp::WriteAt).torn(32));
        assert_eq!(
            plan.decide(FaultOp::WriteAt, "/x"),
            Some(FaultAction::Crash {
                torn_keep: Some(32)
            })
        );
    }
}
