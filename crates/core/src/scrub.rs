//! Self-healing stores: XOR parity groups and the scrub/repair pass.
//!
//! Every detection path built so far ends in loss accounting: a rotted
//! batch is dropped at merge time, a damaged file is quarantined, and the
//! run report honestly says the data is gone. This module turns
//! detect-and-drop into detect-and-repair. The write path
//! ([`crate::store::ProvenanceStore`]) XORs every committed artifact into
//! an accumulator and seals a parity file (`<store>.pNNNNNN.par`) once
//! `parity_group` members have accumulated; the scrub pass here walks a
//! run directory after the fact, locates damaged or missing group members,
//! and reconstructs their bytes from the survivors — byte-identical, so
//! the Merkle roots recorded in a sealed manifest still verify.
//!
//! The parity file's layout — member records and the raw XOR block — is
//! [`crate::artifact`]'s; this module is the repair algorithm over it. The
//! block is read as a window on the buffer it was committed from (for a
//! one-member group, the snapshot's own): a clean scrub CRCs it where it
//! lies, and only a repair or a regeneration XORs or copies it.
//!
//! # Repair rules
//!
//! Per group, in one scrub pass:
//! - every member verifies against its recorded check (live file first,
//!   then a `.quarantine` copy left by an earlier merge or verify) —
//!   a member whose bytes verify only under quarantine is *displaced*
//!   and is restored for free, without spending the parity tolerance;
//! - exactly one bad member: XOR the parity block with every surviving
//!   member, verify the reconstruction against the recorded check, and
//!   splice it back under the store's tmp+rename discipline (whole-file
//!   members are rewritten outright; journal chunks are spliced into the
//!   surrounding generation bytes, preserving any torn tail that was
//!   present when the manifest was sealed);
//! - more than one bad member, or a bad member with the parity block
//!   itself lost: over tolerance — the paths are reported unrecoverable
//!   and the merge's loss accounting (salvage, quarantine, truncation)
//!   stands;
//! - a "bad" snapshot member that decodes intact with a *higher* ordinal
//!   than the parity recorded was legitimately superseded after the
//!   parity sealed (a crash window around compaction): the group is
//!   stale and is skipped — scrub never rolls committed data backwards.
//!
//! Quarantine is thereby demoted to the over-tolerance fallback:
//! [`crate::verify::quarantine_tampered`] consults [`repairable_paths`]
//! and never condemns a file scrub can still repair.

use crate::artifact::{parse_members, Decoded, HandOff, MemberCheck, Verified};
use crate::frame::{self, FrameKind, FramedFile};
use crate::fsio::{commit_atomic, copies, read_file};
use crate::names::{self, Role, State};
use bytes::Bytes;
use provio_hpcfs::{FileSystem, FsError};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

pub(crate) use crate::artifact::{encode_parity_frame, xor_into, ParityMember};

/// What one scrub pass over a run directory found and fixed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Parity groups examined (usable or not).
    pub groups: u64,
    /// Live paths rewritten from parity or restored from a quarantine
    /// copy — byte-identical to what the group sealed over.
    pub repaired_files: Vec<String>,
    /// CRC batches (or journal chunks) that verify again after repair.
    pub repaired_batches: u64,
    /// Parity files regenerated byte-identical from their intact members.
    pub repaired_parity: Vec<String>,
    /// Member paths lost beyond parity tolerance: more than one bad member
    /// in the group, or a bad member whose parity block is itself lost.
    /// The pre-existing loss accounting stands for these.
    pub unrecoverable: Vec<String>,
    /// Parity files whose member records could not be read (damaged member
    /// batch or unverifiable identity): the group's coverage is gone.
    pub unusable_parity: Vec<String>,
    /// Groups skipped because a member was legitimately superseded by a
    /// later commit after the parity sealed (compaction crash window).
    pub(crate) stale_groups: u64,
}

impl ScrubReport {
    /// True when the directory needed no repairs and lost no coverage.
    pub fn is_clean(&self) -> bool {
        self.repaired_files.is_empty()
            && self.repaired_parity.is_empty()
            && self.unrecoverable.is_empty()
            && self.unusable_parity.is_empty()
    }

    /// True when every detected loss was repaired within tolerance.
    pub fn fully_repaired(&self) -> bool {
        self.unrecoverable.is_empty() && self.unusable_parity.is_empty()
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scrub: {} groups, {} files repaired ({} batches), \
             {} parity regenerated, {} unrecoverable, {} parity unusable, \
             {} stale groups",
            self.groups,
            self.repaired_files.len(),
            self.repaired_batches,
            self.repaired_parity.len(),
            self.unrecoverable.len(),
            self.unusable_parity.len(),
            self.stale_groups,
        )
    }
}

/// A parity file decoded far enough to act on.
struct ParsedParity {
    /// Live parity path (quarantine suffix stripped).
    path: String,
    guid: u64,
    seq: u64,
    members: Vec<ParityMember>,
    /// Raw member record lines, re-batched verbatim on regeneration so
    /// the rebuilt parity file is byte-identical to the original seal.
    member_lines: Vec<String>,
    /// The XOR block, when its batch verified: a window on the parity
    /// file's bytes.
    data: Option<Bytes>,
    /// `(bytes, Merkle root)` of the live parity file when it decoded
    /// intact, data block included — what verify would recompute. `None`:
    /// it needs rewriting (missing, damaged data batch, or only a
    /// quarantine copy survives).
    root: Option<(u64, [u8; 32])>,
}

/// How one member fared against its recorded check. The verifying states
/// carry what verified, so reconstruction, displaced-member restore and
/// parity regeneration reuse the bytes, and the hand-off the frame, instead
/// of reading and verifying the member again.
enum MemberState {
    /// Live bytes verify.
    Intact(Verified),
    /// Only a `.quarantine` copy verifies: restore is free.
    Displaced(Verified),
    /// No verifying source: costs the group's parity tolerance.
    /// `failed_batches`: CRC batches that failed in the live file, when it
    /// is a whole-file member that still decoded far enough to count them.
    Bad { failed_batches: Option<u64> },
}

impl MemberState {
    /// The member's verified bytes, wherever they were found.
    fn bytes(&self) -> Option<&[u8]> {
        match self {
            MemberState::Intact(v) | MemberState::Displaced(v) => Some(&v.bytes),
            MemberState::Bad { .. } => None,
        }
    }
}

/// `len` bytes of `path` from `offset` on — all the rest when `None` — or
/// `None` when the file is missing, unreadable or shorter than that.
fn read_range(fs: &Arc<FileSystem>, path: &str, offset: u64, len: Option<u64>) -> Option<Bytes> {
    let ino = fs.lookup(path).ok()?;
    let size = fs.file_size(ino).ok()?;
    let len = len.unwrap_or(size.saturating_sub(offset));
    if size < offset.saturating_add(len) {
        return None;
    }
    fs.read_at(ino, offset, len).ok()
}

/// The parity file at `path`, read so that the bytes of its raw batch are a
/// window on the buffer they were committed from and only the text around
/// them is copied: `(text, Some(batch))`, placed from the file's head and
/// its tail. A file whose head or tail does not place the batch is read
/// whole: `(bytes, None)`.
fn read_parity(fs: &FileSystem, path: &str) -> Option<(Bytes, Option<Bytes>)> {
    const HEAD: u64 = 16 << 10; // about a hundred member records
    const TAIL: u64 = 1 << 10; // the footer line is about 110 bytes
    let ino = fs.lookup(path).ok()?;
    let size = fs.file_size(ino).ok()?;
    let read = |at: u64, len: u64| fs.read_at(ino, at, len).ok();
    let tail_at = size.saturating_sub(TAIL);
    let (head, tail) = (read(0, size.min(HEAD))?, read(tail_at, size - tail_at)?);
    let Some(span) = frame::raw_batch_span(&head, &tail, tail_at as usize) else {
        return Some((read(0, size)?, None));
    };
    let text = [&head[..span.start], &tail[span.end - tail_at as usize..]].concat();
    Some((text.into(), Some(read(span.start as u64, span.len() as u64)?)))
}

/// Decode the parity file for `live`, as [`read_parity`] read it — under
/// its own name or `quarantined` — into an actionable group. `None` means
/// the member records are unreadable.
fn parse_parity((text, batch): (Bytes, Option<Bytes>), live: &str, quarantined: bool) -> Option<ParsedParity> {
    let framed = frame::decode_apart(&text, batch.as_deref())?;
    if framed.kind != FrameKind::Parity || !framed.belongs_to(live) {
        return None;
    }
    let (members, member_lines) = parse_members(&framed.payload);
    let len = (text.len() + batch.as_ref().map_or(0, Bytes::len)) as u64;
    let data = framed.raw.clone().map(|at| batch.unwrap_or_else(|| text.slice(at)));
    let intact = !quarantined && framed.intact() && data.is_some();
    // The member batch is the one part parity cannot outlive: with the
    // records gone there is nothing to verify members against.
    (!members.is_empty()).then(|| ParsedParity {
        path: live.to_string(),
        guid: framed.guid,
        seq: framed.ordinal,
        members,
        member_lines,
        data,
        root: intact.then_some((len, framed.computed_root)),
    })
}

/// Classify one member: do its recorded bytes still exist anywhere? One
/// read of the live file answers everything asked of it — a whole-file
/// member is read whole, so that when its recorded range no longer
/// verifies the same bytes say whether a newer commit superseded it and
/// how many of its batches rotted. `None`: superseded — the live file
/// verifies as a *newer* commit than the parity recorded, which makes the
/// whole group stale, not damaged.
fn member_state(fs: &Arc<FileSystem>, m: &ParityMember) -> Option<MemberState> {
    let read = |path: &str| read_range(fs, path, m.offset, (!m.whole_file()).then_some(m.len));
    let live = match read(&m.path).map(|bytes| m.cover(bytes)) {
        Some(Ok(verified)) => return Some(MemberState::Intact(verified)),
        unverified => unverified.and_then(Result::err),
    };
    if let Some(Ok(verified)) = read(&names::quarantine_of(&m.path)).map(|bytes| m.cover(bytes)) {
        return Some(MemberState::Displaced(verified));
    }
    // Whole-file member that re-verifies as a newer commit of the same
    // store: superseded after the parity sealed (a crash window around
    // compaction). Anything else — same or lower ordinal, foreign GUID,
    // failed decode — is a genuine candidate for repair (or quarantine, if
    // over tolerance).
    let framed = live.filter(|_| m.whole_file()).and_then(|b| frame::decode_bytes(&b).ok());
    let newer = |f: &FramedFile| f.intact() && f.belongs_to(&m.path) && Some(f.ordinal) > m.ord;
    if framed.as_ref().is_some_and(newer) {
        return None;
    }
    Some(MemberState::Bad {
        failed_batches: framed.map(|f| f.batches_corrupt as u64),
    })
}

/// One parity group as read from disk, with its member states — `None`
/// for a stale group, one with a superseded member (where classification
/// stops): scrub skips it and never rolls committed data backwards.
type Group = (ParsedParity, Option<Vec<MemberState>>);

/// Read the parity file for `live` (from its live path, else from its
/// quarantined copy) and classify its members; `None` when its member
/// records are unreadable. A group with nothing to repair or regenerate
/// drops its data block (nothing will XOR it); member bytes are windows on
/// the files and cost nothing to keep.
fn read_group(fs: &Arc<FileSystem>, live: &str) -> Option<Group> {
    let parsed = |(read, quarantined)| parse_parity(read, live, quarantined);
    let mut group = copies(fs, live, read_parity).find_map(parsed)?;
    let states: Option<Vec<_>> = group.members.iter().map(|m| member_state(fs, m)).collect();
    let intact = |s: &MemberState| matches!(s, MemberState::Intact(_));
    if group.root.is_some() && states.iter().flatten().all(intact) {
        group.data = None;
    }
    Some((group, states))
}

/// What a classified group has lost. Displaced members don't spend the
/// tolerance (their bytes survive, just under the wrong name), bad members
/// do. `Ok`: nothing, or the one member (by index) the surviving parity
/// block can rebuild; `Err`: every bad member of a loss beyond that.
fn losses(group: &ParsedParity, states: &[MemberState]) -> Result<Option<usize>, Vec<usize>> {
    let bad: Vec<usize> = (0..states.len())
        .filter(|&i| matches!(states[i], MemberState::Bad { .. }))
        .collect();
    match bad[..] {
        [] => Ok(None),
        [one] if group.data.is_some() => Ok(Some(one)),
        _ => Err(bad),
    }
}

/// XOR the parity block against every surviving member, yielding the lost
/// member's bytes. `None` when the result fails the recorded check —
/// reconstruction never guesses. The block is a window on a committed
/// buffer, so the XOR runs in a copy of it.
fn reconstruct(group: &ParsedParity, states: &[MemberState], bad: usize) -> Option<Verified> {
    let mut acc = group.data.as_deref()?.to_vec();
    for (i, state) in states.iter().enumerate() {
        if i != bad {
            xor_into(&mut acc, state.bytes()?);
        }
    }
    group.members[bad].cover(acc.into()).ok()
}

/// Keep `decoded` true to `m`'s live file, which now holds the member's
/// verified bytes (`frame` their decode): only a whole-file member pinned
/// by root has an entry.
fn note_root(decoded: &mut HandOff, m: &ParityMember, frame: Option<FramedFile>) {
    match m.check {
        MemberCheck::Root(root) if m.whole_file() => {
            decoded.insert(m.path.clone(), Decoded { len: m.len, root, frame })
        }
        _ => decoded.remove(&m.path),
    };
}

/// Splice verified bytes back into the member's live file. Whole-file
/// members are rewritten outright (the recorded range *is* the committed
/// file); journal chunks overwrite only `[offset, offset+len)` of whatever
/// is on disk — surrounding bytes, torn tails included, were present when
/// the manifest sealed and must survive the repair byte-for-byte.
fn splice_member(
    fs: &Arc<FileSystem>,
    m: &ParityMember,
    v: &Verified,
    decoded: &mut HandOff,
) -> Result<(), FsError> {
    let out = if m.whole_file() {
        v.bytes.clone()
    } else {
        let mut current = copies(fs, &m.path, read_file).next().map_or_else(Vec::new, |(bytes, _)| bytes.into());
        let end = (m.offset + m.len) as usize;
        if current.len() < end {
            current.resize(end, 0);
        }
        current[m.offset as usize..end].copy_from_slice(&v.bytes);
        current.into()
    };
    commit_atomic(fs, &m.path, [out])?;
    note_root(decoded, m, v.frame.clone());
    // The live path verifies again: any quarantine copy is now a stale
    // duplicate of repaired data, not evidence.
    let _ = fs.unlink(&names::quarantine_of(&m.path));
    Ok(())
}

/// How many verification units (CRC batches for framed files, one chunk
/// for a journal member) the repair of `m` to `recon` brought back, `was`
/// being its state before the repair.
fn repaired_units(m: &ParityMember, recon: &Verified, was: &MemberState) -> u64 {
    if !m.whole_file() {
        return 1; // one journal chunk per member
    }
    // With no count from before the repair the file was missing outright
    // (or past decoding): every batch of the restored frame.
    let total = || frame::decode_bytes(&recon.bytes).map_or(1, |f| f.batches_total as u64);
    match was {
        MemberState::Bad { failed_batches: Some(n) } => *n,
        _ => total(),
    }
    .max(1)
}

/// Regenerate a parity file byte-identical to its original seal: verbatim
/// member record lines, data block recomputed from the (all-verified)
/// member bytes through the same [`encode_parity_frame`] builder the store
/// sealed with.
fn regenerate_parity(
    fs: &Arc<FileSystem>,
    group: &ParsedParity,
    states: &[MemberState],
) -> Result<(), FsError> {
    let mut acc = Vec::new();
    for state in states {
        xor_into(&mut acc, state.bytes().ok_or(FsError::Io)?);
    }
    let (parts, _root) = encode_parity_frame(group.guid, group.seq, &group.member_lines, acc.into());
    commit_atomic(fs, &group.path, parts)?;
    let _ = fs.unlink(&names::quarantine_of(&group.path));
    Ok(())
}

/// The live path of every parity file among `files`, each once, with its
/// group read and classified on the pool, in path order (and therefore by
/// store and sequence — the walk is sorted and the sequence is
/// zero-padded): the read-only half of a scrub, before any repair wrote.
fn read_groups<'a>(fs: &Arc<FileSystem>, files: &'a [String]) -> Vec<(&'a str, Option<Group>)> {
    let mut live: Vec<&str> = files
        .iter()
        .map(|p| names::parse(p))
        .filter(|n| matches!(n.role, Role::Parity(_)) && n.state != State::Tmp)
        .map(|n| n.live)
        .collect();
    live.sort_unstable();
    live.dedup();
    let groups: Vec<Option<Group>> = live.par_iter().map(|path| read_group(fs, path)).collect();
    live.into_iter().zip(groups).collect()
}

/// Walk `dir`, verify every parity group, and repair what the surviving
/// redundancy allows. Safe to re-run: a clean directory scrubs to a clean
/// report, and repairs are idempotent.
pub fn scrub_directory(fs: &Arc<FileSystem>, dir: &str) -> ScrubReport {
    scrub_listed(fs, &fs.walk_files(dir).unwrap_or_default(), &mut HandOff::new())
}

/// [`scrub_directory`] over a directory's walk `files`, leaving in `decoded`
/// the root and frame of every whole-file member that passed its root
/// check or was written back, and the root of every intact parity file (a
/// regenerated one never), for the merge and the verify of one recovery.
///
/// Reads run on the pool, mutations here in group order. A group read before
/// an earlier group of the pass wrote one of its members (journal chunks in
/// two groups, a snapshot a stale group still names) is read again at its
/// turn, so every repair sees what a sequential pass would have.
pub(crate) fn scrub_listed(
    fs: &Arc<FileSystem>,
    files: &[String],
    decoded: &mut HandOff,
) -> ScrubReport {
    let groups = read_groups(fs, files);
    let mut report = ScrubReport { groups: groups.len() as u64, ..ScrubReport::default() };
    for (live, read) in groups {
        // Every member an earlier group wrote is in one of these lists.
        let moved = [&report.repaired_files, &report.unrecoverable];
        let touched = |(group, _): &Group| {
            group.members.iter().any(|m| moved.iter().any(|list| list.contains(&m.path)))
        };
        let read = if read.as_ref().is_some_and(touched) { read_group(fs, live) } else { read };
        let Some((group, states)) = read else {
            report.unusable_parity.push(live.to_string());
            continue;
        };
        let Some(mut states) = states else {
            report.stale_groups += 1;
            continue;
        };
        if let Some((len, root)) = group.root {
            decoded.insert(group.path.clone(), Decoded { len, root, frame: None });
        }
        // Displaced members restore for free regardless of the group's
        // repair verdict: their bytes survive under the quarantine name.
        for (m, state) in group.members.iter().zip(&mut states) {
            match state {
                MemberState::Intact(v) => note_root(decoded, m, v.frame.take()),
                MemberState::Displaced(v) if splice_member(fs, m, v, decoded).is_ok() => {
                    push_unique(&mut report.repaired_files, &m.path);
                }
                MemberState::Displaced(_) => push_unique(&mut report.unrecoverable, &m.path),
                MemberState::Bad { .. } => {}
            }
        }
        match losses(&group, &states) {
            Ok(None) => {}
            Ok(Some(bad)) => {
                let m = &group.members[bad];
                match reconstruct(&group, &states, bad) {
                    Some(recon) if splice_member(fs, m, &recon, decoded).is_ok() => {
                        push_unique(&mut report.repaired_files, &m.path);
                        report.repaired_batches += repaired_units(m, &recon, &states[bad]);
                        states[bad] = MemberState::Intact(recon);
                    }
                    _ => push_unique(&mut report.unrecoverable, &m.path),
                }
            }
            Err(bad) => {
                for i in bad {
                    push_unique(&mut report.unrecoverable, &group.members[i].path);
                }
            }
        }
        if group.root.is_none() && regenerate_parity(fs, &group, &states).is_ok() {
            push_unique(&mut report.repaired_parity, &group.path);
        }
    }
    report
}

/// Live paths a scrub of `dir` could still make whole: every member (and
/// the parity file itself) of a group that is healthy, repairable, or
/// merely missing its parity block while all members survive.
/// [`crate::verify::quarantine_tampered`] consults this so quarantine
/// stays the over-tolerance fallback, never a preemptive strike on a
/// repairable file.
pub fn repairable_paths(fs: &Arc<FileSystem>, dir: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    for (_, read) in read_groups(fs, &fs.walk_files(dir).unwrap_or_default()) {
        let Some((group, Some(states))) = read else { continue };
        if losses(&group, &states).is_ok() {
            out.extend(group.members.iter().map(|m| m.path.clone()));
            out.insert(group.path);
        }
    }
    out
}

fn push_unique(list: &mut Vec<String>, path: &str) {
    if !list.iter().any(|p| p == path) {
        list.push(path.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{encode_parity_frame, member_line, parse_member_line, MemberCheck, ParityMember};
    use proptest::prelude::*;
    use provio_hpcfs::LustreConfig;
    use provio_simrt::SimTime;
    use std::collections::HashMap;

    fn fs() -> Arc<FileSystem> {
        FileSystem::new(LustreConfig::default())
    }

    /// Scrub `/prov`, leaving what it decoded in `decoded`.
    fn scrub_into(fs: &Arc<FileSystem>, decoded: &mut HandOff) -> ScrubReport {
        scrub_listed(fs, &fs.walk_files("/prov").unwrap(), decoded)
    }

    /// Each entry's `(bytes, root)`: what verify judges by.
    fn roots_of(decoded: &HandOff) -> HashMap<String, (u64, [u8; 32])> {
        decoded.iter().map(|(path, d)| (path.clone(), (d.len, d.root))).collect()
    }

    fn put(fs: &Arc<FileSystem>, path: &str, bytes: &[u8]) {
        if let Some((dir, _)) = path.rsplit_once('/') {
            let _ = fs.mkdir_all(dir, "provio", SimTime::ZERO);
        }
        commit_atomic(fs, path, [bytes]).unwrap();
    }

    /// Commit parity file `seq` of `store` over the member record `lines`
    /// and `block` the way the store's seal does; its size and root.
    fn commit_parity(fs: &Arc<FileSystem>, store: &str, seq: u64, lines: &[String], block: Bytes) -> (u64, [u8; 32]) {
        let (parts, root) = encode_parity_frame(frame::store_guid(store), seq, lines, block);
        let len = parts.iter().map(|part| part.len() as u64).sum();
        commit_atomic(fs, &format!("{store}.p{seq:06}.par"), parts).unwrap();
        (len, root)
    }

    /// Seal a parity file over whole-file members exactly the way the
    /// store's write path does.
    fn seal_parity(fs: &Arc<FileSystem>, store: &str, seq: u64, members: &[(&str, &[u8], u64)]) {
        let mut acc = Vec::new();
        let mut recs = Vec::new();
        for (path, bytes, ord) in members {
            xor_into(&mut acc, bytes);
            recs.push(member_line(&ParityMember {
                path: (*path).to_string(),
                offset: 0,
                len: bytes.len() as u64,
                check: MemberCheck::Crc(crc32fast::hash(bytes)),
                ord: Some(*ord),
            }));
        }
        commit_parity(fs, store, seq, &recs, acc.into());
    }

    /// The block of a one-member group over `data`, committed and read
    /// back the way scrub reads it.
    fn block_read_back(data: &[u8]) -> Option<Bytes> {
        let fs = fs();
        let member = ParityMember { path: "/prov/a.nt".into(), offset: 0, len: 0, check: MemberCheck::Crc(0), ord: Some(0) };
        let _ = fs.mkdir_all("/prov", "provio", SimTime::ZERO);
        commit_parity(&fs, "/prov/a.nt", 0, &[member_line(&member)], Bytes::from(data));
        let par = "/prov/a.nt.p000000.par";
        let bytes = read_file(&fs, par).unwrap();
        let f = frame::decode_bytes(&bytes).unwrap();
        assert!(f.batches_total == 2, "{data:?}");
        parse_parity(read_parity(&fs, par).unwrap(), par, false).unwrap().data
    }

    #[test]
    fn raw_blocks_round_trip() {
        for len in 0..40usize {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37).wrapping_add(len as u8)).collect();
            assert_eq!(block_read_back(&data).as_deref(), Some(&data[..]), "len {len}");
        }
        // A block whose bytes disagree with the count of its marker fails.
        let member = member_line(&ParityMember { path: "/x".into(), offset: 0, len: 0, check: MemberCheck::Crc(0), ord: Some(0) });
        let (parts, _) = encode_parity_frame(7, 0, &[member], Bytes::from(b"prov".to_vec()));
        let file = [&parts[0][..], &parts[1], &parts[2]].concat();
        let at = file.windows(7).position(|w| w == b"bytes=4").unwrap() + 6;
        for count in [b'3', b'5'] {
            let mut file = file.clone();
            file[at] = count;
            let f = frame::decode_bytes(&file).unwrap();
            assert_eq!((f.batches_corrupt, f.raw), (1, None), "bytes={}", count as char);
        }
    }

    #[test]
    fn raw_block_round_trips_verbatim() {
        // Lines opening with '#', '~' or a frame sigil, a missing trailing
        // newline, blank lines, an empty block and bytes that are not UTF-8
        // are all written and read back as they are: the raw batch is
        // framed from its marker to the footer, never line by line.
        for data in [
            &b"plain line\n# PROVIO1 kind=snapshot embedded\n#~B lines=1 crc=00000000\n~tilde\n"[..],
            b"no trailing newline",
            b"\n\ntwo leading blanks\n",
            b"#~F batches=1 chain=00000000 root=00\n",
            b"",
            &[0xff, 0xfe, 0x00],
        ] {
            assert_eq!(block_read_back(data).as_deref(), Some(data), "{data:?}");
        }
        // A block cut short fails its count rather than returning short bytes.
        let member = member_line(&ParityMember { path: "/x".into(), offset: 0, len: 0, check: MemberCheck::Crc(0), ord: Some(0) });
        let (parts, _) = encode_parity_frame(7, 0, &[member], Bytes::from(b"0123456789".to_vec()));
        let short = [&parts[0][..], b"abc", &parts[2][..]].concat();
        assert_eq!(frame::decode_bytes(&short).unwrap().raw, None);
    }

    #[test]
    fn single_member_seal_uses_raw_replica_and_parses_back() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"# PROVIO1 kind=snapshot guid=0 ordinal=1 prev=00000000\n<a> <b> <c> .\n".to_vec();
        put(&fs, store, &a);
        // The store folds the committed window of a member into its group.
        let committed = read_file(&fs, store).unwrap();
        let m = ParityMember { path: store.into(), offset: 0, len: a.len() as u64, check: MemberCheck::Crc(crc32fast::hash(&a)), ord: Some(1) };
        commit_parity(&fs, store, 0, &[member_line(&m)], committed.clone());
        let par = "/prov/prov_p0.nt.p000000.par";
        let (text, block) = read_parity(&fs, par).unwrap();
        let block = block.expect("the block is read apart");
        assert_eq!(block.as_ptr(), committed.as_ptr(), "the block is the snapshot's own buffer");
        assert!(!text.windows(3).any(|w| w == b"<a>"), "only the text around the block is copied");
        let parsed = parse_parity((text, Some(block)), par, false).unwrap();
        assert_eq!(parsed.data.as_deref(), Some(&a[..]), "the block is the member's bytes");
        assert_eq!(parsed.members, vec![m]);
        assert_eq!(parsed.root.map(|(len, _)| len), Some(read_file(&fs, par).unwrap().len() as u64));
    }

    /// A scrub reads every block as a window on a committed buffer — a
    /// one-member group's is its snapshot's own — so regenerating a rotted
    /// parity file and rebuilding a lost member XOR into copies: every
    /// other file, and every window read off it before, stays as committed.
    #[test]
    fn repairs_leave_every_other_committed_buffer_as_committed() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let (d1, d2) = ("/prov/prov_p0.nt.d000001.nt", "/prov/prov_p0.nt.d000002.nt");
        let bodies: [(&str, &[u8]); 3] = [
            (store, b"<urn:s> <urn:p> <urn:snapshot> .\n"),
            (d1, b"<urn:s> <urn:p> <urn:one> .\n"),
            (d2, b"<urn:s> <urn:p> <urn:the-second> .\n"),
        ];
        for (path, body) in bodies {
            put(&fs, path, body);
        }
        let window = |path: &str| read_file(&fs, path).unwrap();
        let member = |(ord, (path, body)): (usize, &(&str, &[u8]))| ParityMember {
            path: path.to_string(),
            offset: 0,
            len: body.len() as u64,
            check: MemberCheck::Crc(crc32fast::hash(body)),
            ord: Some(ord as u64),
        };
        let members: Vec<ParityMember> = bodies.iter().enumerate().map(member).collect();
        // Group 0 holds the snapshot alone, its block the snapshot's window;
        // group 1 XORs the two segments.
        commit_parity(&fs, store, 0, &[member_line(&members[0])], window(store));
        seal(&fs, store, 1, &members[1..], &[bodies[1].1, bodies[2].1]);
        let sealed: Vec<(String, Vec<u8>, Bytes)> = fs
            .walk_files("/prov")
            .unwrap()
            .into_iter()
            .map(|p| (p.clone(), window(&p).to_vec(), window(&p)))
            .collect();
        // Rot group 0's block, and lose a member of group 1.
        let par0 = format!("{store}.p000000.par");
        let block = bodies[0].1;
        let par0_bytes = &sealed.iter().find(|(p, ..)| *p == par0).unwrap().1;
        let rotted = par0_bytes.windows(block.len()).position(|w| w == block).unwrap() + block.len() / 2;
        fs.write_at(fs.lookup(&par0).unwrap(), rotted as u64, vec![b'!'], SimTime::ZERO).unwrap();
        fs.unlink(d1).unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert_eq!((rep.repaired_files, rep.repaired_parity), (vec![d1.to_string()], vec![par0]));
        for (path, bytes, held) in &sealed {
            assert_eq!(&window(path).to_vec(), bytes, "{path} as committed");
            assert_eq!(&held.to_vec(), bytes, "a window read off {path} before the scrub");
        }
        assert_eq!(window(store).as_ptr(), sealed[0].2.as_ptr(), "the snapshot keeps its buffer");
    }

    #[test]
    fn multi_member_seal_writes_the_xor_block_raw() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"member a\n".to_vec();
        let b = b"member b, longer\n".to_vec();
        put(&fs, store, &a);
        put(&fs, "/prov/prov_p0.nt.d000001.nt", &b);
        seal_parity(&fs, store, 0, &[(store, &a, 1), ("/prov/prov_p0.nt.d000001.nt", &b, 2)]);
        let par = "/prov/prov_p0.nt.p000000.par";
        let parsed = parse_parity(read_parity(&fs, par).unwrap(), par, false).unwrap();
        let mut acc = Vec::new();
        xor_into(&mut acc, &a);
        xor_into(&mut acc, &b);
        assert_eq!(parsed.data.as_deref(), Some(&acc[..]));
        let bytes = read_file(&fs, par).unwrap();
        assert!(bytes.windows(acc.len()).any(|w| w == acc), "the XOR block sits in the file verbatim");
    }

    #[test]
    fn member_line_round_trips() {
        for m in [
            ParityMember { path: "/p/a.nt".into(), offset: 0, len: 9, check: MemberCheck::Crc(0xdead_beef), ord: Some(3) },
            ParityMember { path: "/p/a.nt.wal.000002".into(), offset: 4096, len: 128, check: MemberCheck::Crc(7), ord: None },
            ParityMember { path: "/p/a.nt.d000003.nt".into(), offset: 0, len: 512, check: MemberCheck::Root([0xA5; 32]), ord: Some(4) },
        ] {
            let line = member_line(&m);
            assert_eq!(parse_member_line(&line).unwrap(), m);
        }
        assert!(parse_member_line("member crc=zz offset=0 len=1 ord=- path=/x").is_none());
        assert!(parse_member_line("not a member").is_none());
    }

    #[test]
    fn xor_reconstructs_uneven_lengths() {
        let a = b"short".to_vec();
        let b = b"a considerably longer member".to_vec();
        let mut acc = Vec::new();
        xor_into(&mut acc, &a);
        xor_into(&mut acc, &b);
        // Recover `a` from parity + b.
        let mut rec = acc.clone();
        xor_into(&mut rec, &b);
        rec.truncate(a.len());
        assert_eq!(rec, a);
        // Recover `b` from parity + a.
        let mut rec = acc;
        xor_into(&mut rec, &a);
        rec.truncate(b.len());
        assert_eq!(rec, b);
    }

    #[test]
    fn scrub_restores_deleted_and_corrupted_member() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"file a contents: twelve provenance triples\n".to_vec();
        let b = b"file b: different length entirely\n".to_vec();
        put(&fs, store, &a);
        put(&fs, "/prov/prov_p0.nt.d000001.nt", &b);
        seal_parity(&fs, store, 0, &[(store, &a, 1), ("/prov/prov_p0.nt.d000001.nt", &b, 2)]);

        // Deletion.
        fs.unlink(store).unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert_eq!(rep.repaired_files, vec![store.to_string()]);
        assert!(rep.fully_repaired(), "{rep}");
        assert_eq!(read_file(&fs, store).unwrap(), a);

        // Corruption of the other member.
        let ino = fs.lookup("/prov/prov_p0.nt.d000001.nt").unwrap();
        fs.write_at(ino, 3, b"XXXX", SimTime::ZERO).unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert_eq!(rep.repaired_files, vec!["/prov/prov_p0.nt.d000001.nt".to_string()]);
        assert_eq!(read_file(&fs, "/prov/prov_p0.nt.d000001.nt").unwrap(), b);

        // Clean directory scrubs clean.
        let rep = scrub_directory(&fs, "/prov");
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.groups, 1);
    }

    #[test]
    fn two_lost_members_are_unrecoverable() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"aaaa\n".to_vec();
        let b = b"bbbbbb\n".to_vec();
        put(&fs, store, &a);
        put(&fs, "/prov/prov_p0.nt.d000001.nt", &b);
        seal_parity(&fs, store, 0, &[(store, &a, 1), ("/prov/prov_p0.nt.d000001.nt", &b, 2)]);
        fs.unlink(store).unwrap();
        fs.unlink("/prov/prov_p0.nt.d000001.nt").unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert!(rep.repaired_files.is_empty());
        assert_eq!(rep.unrecoverable.len(), 2, "{rep}");
    }

    #[test]
    fn superseded_snapshot_is_never_rolled_back() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        // Old snapshot (ordinal 1) sealed into parity, then legitimately
        // replaced by a newer snapshot (ordinal 5) whose parity
        // invalidation crashed before unlinking the old parity file.
        let guid = frame::store_guid(store);
        let old = {
            let mut enc = frame::Encoder::new(FrameKind::Snapshot, guid, 1, frame::CHAIN_START);
            enc.batch(&["<a> <b> <c> ."]);
            enc.finish_with_root().0
        };
        let new = {
            let mut enc = frame::Encoder::new(FrameKind::Snapshot, guid, 5, frame::CHAIN_START);
            enc.batch(&["<a> <b> <c> .", "<d> <e> <f> ."]);
            enc.finish_with_root().0
        };
        put(&fs, store, &old);
        seal_parity(&fs, store, 0, &[(store, &old, 1)]);
        put(&fs, store, &new);
        let rep = scrub_directory(&fs, "/prov");
        assert_eq!(rep.stale_groups, 1, "{rep}");
        assert!(rep.repaired_files.is_empty());
        assert_eq!(read_file(&fs, store).unwrap(), new, "newer commit must survive scrub");
    }

    /// Seal `members` over `data` (one slice per member) into the parity
    /// file `seq` of `store`, the way the store's write path does.
    fn seal(fs: &Arc<FileSystem>, store: &str, seq: u64, members: &[ParityMember], data: &[&[u8]]) {
        let mut acc = Vec::new();
        for bytes in data {
            xor_into(&mut acc, bytes);
        }
        let lines: Vec<String> = members.iter().map(member_line).collect();
        commit_parity(fs, store, seq, &lines, acc.into());
    }

    /// A journal generation of four chunks whose first two sit in parity
    /// group 0 and last two in group 1; a verify moved the generation
    /// aside. Group 0 restores it from the quarantined copy, so group 1,
    /// read while the live file was still missing, must be read again.
    fn generation_across_two_groups() -> Arc<FileSystem> {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let gen = "/prov/prov_p0.nt.w000001.nt";
        let chunks: [&[u8]; 4] = [b"chunk one\n", b"chunk two, longer\n", b"chunk three\n", b"four\n"];
        let mut offset = 0;
        let members: Vec<ParityMember> = chunks
            .iter()
            .map(|chunk| {
                let m = ParityMember {
                    path: gen.into(),
                    offset,
                    len: chunk.len() as u64,
                    check: MemberCheck::Crc(crc32fast::hash(chunk)),
                    ord: None,
                };
                offset += m.len;
                m
            })
            .collect();
        put(&fs, gen, &chunks.concat());
        seal(&fs, store, 0, &members[..2], &chunks[..2]);
        seal(&fs, store, 1, &members[2..], &chunks[2..]);
        fs.rename(gen, &names::quarantine_of(gen), SimTime::ZERO).unwrap();
        fs
    }

    /// A snapshot of ordinal 1 (one batch) in parity group 0, superseded by
    /// one of ordinal 5 (two batches) in group 1, whose live file is lost.
    /// Group 0 cannot tell it is stale and writes ordinal 1 back; group 1,
    /// read while the file was missing, must be read again to see it there.
    fn snapshot_beside_its_stale_group() -> Arc<FileSystem> {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        for (seq, ordinal, batches) in [(0, 1, 1), (1, 5, 2)] {
            let mut enc = frame::Encoder::new(FrameKind::Snapshot, frame::store_guid(store), ordinal, frame::CHAIN_START);
            for b in 0..batches {
                enc.batch(&[format!("<s{b}> <p> <o{ordinal}> .")]);
            }
            let (bytes, _chain, root) = enc.finish_with_root();
            let m = ParityMember { path: store.into(), offset: 0, len: bytes.len() as u64, check: MemberCheck::Root(root), ord: Some(ordinal) };
            put(&fs, store, &bytes);
            seal(&fs, store, seq, &[m], &[&bytes]);
        }
        fs.unlink(store).unwrap();
        fs
    }

    type Scrubbed = (ScrubReport, Vec<String>, HashMap<String, (u64, [u8; 32])>, Vec<(String, Vec<u8>)>);

    /// Scrub a fresh copy of `scenario` with `threads` workers: the report,
    /// every mutation in issue order, the roots left for verify and the
    /// directory afterwards.
    fn scrub_at(threads: usize, scenario: fn() -> Arc<FileSystem>) -> Scrubbed {
        let fs = scenario();
        let trace = provio_hpcfs::OpTrace::new();
        fs.attach_tracer(Arc::clone(&trace));
        let mut decoded = HandOff::new();
        let report = crate::merge::tests::with_pool(threads, || scrub_into(&fs, &mut decoded));
        let ops = trace.snapshot().into_iter().map(|op| {
            use provio_hpcfs::TraceOp::*;
            let verb = match op {
                Create { .. } => "create",
                WriteAt { .. } => "write",
                Rename { .. } => "rename",
                Unlink { .. } => "unlink",
                Truncate { .. } => "truncate",
            };
            format!("{verb} {}", op.path())
        });
        let files = fs.walk_files("/prov").unwrap().into_iter().map(|p| {
            let bytes = read_file(&fs, &p).unwrap().to_vec();
            (p, bytes)
        });
        (report, ops.collect(), roots_of(&decoded), files.collect())
    }

    #[test]
    fn overlapping_groups_scrub_as_a_sequential_pass_would() {
        let gen = "/prov/prov_p0.nt.w000001.nt";
        let commit = |path: &str| {
            let tmp = format!("{path}.tmp");
            [format!("create {tmp}"), format!("truncate {tmp}"), format!("write {tmp}"), format!("rename {tmp}")]
        };
        let (report, ops, roots, files) = scrub_at(1, generation_across_two_groups);
        assert_eq!(scrub_at(4, generation_across_two_groups), (report.clone(), ops.clone(), roots.clone(), files));
        // Group 0 splices its two chunks; group 1 then finds its chunks
        // intact in the restored live file and writes nothing.
        assert_eq!(report.repaired_files, vec![gen.to_string()], "{report}");
        let mut want: Vec<String> = commit(gen).into();
        want.push(format!("unlink {gen}.quarantine"));
        want.extend(commit(gen));
        assert_eq!(ops, want);

        let store = "/prov/prov_p0.nt";
        let (report, ops, roots, files) = scrub_at(1, snapshot_beside_its_stale_group);
        assert_eq!(scrub_at(4, snapshot_beside_its_stale_group), (report.clone(), ops.clone(), roots.clone(), files.clone()));
        // Group 0 writes ordinal 1 back (its one batch); group 1 then finds
        // it where its own member was lost, so its repair counts one batch,
        // not the two of a missing file.
        assert_eq!(report.repaired_files, vec![store.to_string()], "{report}");
        assert_eq!(report.repaired_batches, 2, "{report}");
        assert_eq!(ops, [commit(store), commit(store)].concat());
        let live = &files.iter().find(|(p, _)| p == store).unwrap().1;
        let newest = frame::decode_bytes(live).unwrap();
        assert_eq!(newest.ordinal, 5);
        assert_eq!(roots[store], (live.len() as u64, newest.computed_root));
    }

    #[test]
    fn damaged_parity_block_regenerates_byte_identical() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"member a bytes here\n".to_vec();
        put(&fs, store, &a);
        seal_parity(&fs, store, 0, &[(store, &a, 1)]);
        let par = "/prov/prov_p0.nt.p000000.par";
        let original = read_file(&fs, par).unwrap();
        // Flip a byte inside the block itself, leaving the member batch and
        // the frame identity intact.
        let marker = original.windows(3).position(|w| w == b"#~R").unwrap();
        let off = (marker + original[marker..].iter().position(|&b| b == b'\n').unwrap() + 2) as u64;
        let ino = fs.lookup(par).unwrap();
        fs.write_at(ino, off, b"\x00", SimTime::ZERO).unwrap();
        assert_ne!(read_file(&fs, par).unwrap(), original);
        let mut roots = HandOff::new();
        let rep = scrub_into(&fs, &mut roots);
        assert_eq!(rep.repaired_parity, vec![par.to_string()], "{rep}");
        assert!(rep.unrecoverable.is_empty());
        assert_eq!(read_file(&fs, par).unwrap(), original, "regeneration must be byte-identical");
        assert!(!roots.contains_key(par), "a regenerated parity file is never recorded");
    }

    #[test]
    fn root_pinned_member_repairs_everywhere_a_crc_would() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let guid = frame::store_guid(store);
        let mut enc = frame::Encoder::new(FrameKind::Snapshot, guid, 1, frame::CHAIN_START);
        enc.batch(&["<a> <b> <c> .", "<d> <e> <f> ."]);
        let (bytes, _chain, root) = enc.finish_with_root();
        put(&fs, store, &bytes);
        // Seal with a root-pinned member, the way the commit plane does.
        let m = ParityMember {
            path: store.into(),
            offset: 0,
            len: bytes.len() as u64,
            check: MemberCheck::Root(root),
            ord: Some(1),
        };
        let (par_len, par_root) = commit_parity(&fs, store, 0, &[member_line(&m)], Bytes::from(&bytes));
        let par_path = "/prov/prov_p0.nt.p000000.par";
        // Both frames decode intact, and scrub records each as it sits on
        // disk for verify, the member with its frame for merge.
        let sealed = (bytes.len() as u64, root);
        let decoded = frame::decode_bytes(&bytes).ok();
        let mut roots = HandOff::new();
        assert!(scrub_into(&fs, &mut roots).is_clean());
        let both = [(store.to_string(), sealed), (par_path.to_string(), (par_len, par_root))];
        assert_eq!(roots_of(&roots), HashMap::from(both));
        assert_eq!(roots[store].frame, decoded);
        assert_eq!(roots[par_path].frame, None);
        // Rot anywhere in the member — body, header, and the (rewritable)
        // footer — must read as Bad and repair byte-identical; the repaired
        // file's entry replaces whatever stood for it before.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let body_off = text.find("<a>").unwrap() as u64;
        let footer_off = text.rfind(" root=").unwrap() as u64 + 8;
        for off in [body_off, 3, footer_off] {
            let ino = fs.lookup(store).unwrap();
            fs.write_at(ino, off, b"!", SimTime::ZERO).unwrap();
            let poisoned = Decoded { len: bytes.len() as u64, root: [0xAB; 32], frame: None };
            roots.insert(store.to_string(), poisoned);
            let rep = scrub_into(&fs, &mut roots);
            assert_eq!(rep.repaired_files, vec![store.to_string()], "off {off}: {rep}");
            assert_eq!(read_file(&fs, store).unwrap(), bytes, "off {off}");
            assert_eq!(roots_of(&roots).get(store), Some(&sealed), "off {off}");
            assert_eq!(roots[store].frame, decoded, "off {off}");
        }
    }

    #[test]
    fn journal_chunk_splice_preserves_surrounding_bytes() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let gen = "/prov/prov_p0.nt.wal.000001";
        // A journal generation: two "chunks" plus a torn tail.
        let chunk_a = b"chunk-a-payload-0123456789\n".to_vec();
        let chunk_b = b"chunk-b-payload-abcdefghij\n".to_vec();
        let tail = b"torn".to_vec();
        let mut file = Vec::new();
        file.extend_from_slice(&chunk_a);
        file.extend_from_slice(&chunk_b);
        file.extend_from_slice(&tail);
        put(&fs, gen, &file);
        // Seal chunk members the way the store's journal plane does.
        let members = [
            ParityMember { path: gen.into(), offset: 0, len: chunk_a.len() as u64, check: MemberCheck::Crc(crc32fast::hash(&chunk_a)), ord: None },
            ParityMember { path: gen.into(), offset: chunk_a.len() as u64, len: chunk_b.len() as u64, check: MemberCheck::Crc(crc32fast::hash(&chunk_b)), ord: None },
        ];
        seal(&fs, store, 0, &members, &[&chunk_a, &chunk_b]);
        // Rot chunk b in place.
        let ino = fs.lookup(gen).unwrap();
        fs.write_at(ino, chunk_a.len() as u64 + 5, b"ROT", SimTime::ZERO).unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert_eq!(rep.repaired_files, vec![gen.to_string()], "{rep}");
        assert_eq!(rep.repaired_batches, 1);
        assert_eq!(read_file(&fs, gen).unwrap(), file, "torn tail must survive the splice");
    }

    #[test]
    fn quarantined_member_restores_for_free() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"displaced member bytes\n".to_vec();
        let b = b"other member\n".to_vec();
        put(&fs, store, &a);
        put(&fs, "/prov/prov_p0.nt.d000001.nt", &b);
        seal_parity(&fs, store, 0, &[(store, &a, 1), ("/prov/prov_p0.nt.d000001.nt", &b, 2)]);
        // A previous verify quarantined the snapshot AND the other member
        // rotted: tolerance would be exceeded if the quarantined copy cost
        // anything — it must not.
        fs.rename(store, "/prov/prov_p0.nt.quarantine", SimTime::ZERO).unwrap();
        fs.unlink("/prov/prov_p0.nt.d000001.nt").unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert!(rep.fully_repaired(), "{rep}");
        assert_eq!(read_file(&fs, store).unwrap(), a);
        assert_eq!(read_file(&fs, "/prov/prov_p0.nt.d000001.nt").unwrap(), b);
        assert!(!fs.exists("/prov/prov_p0.nt.quarantine"), "quarantine copy demoted after restore");
    }

    #[test]
    fn repairable_paths_guard_quarantine_precedence() {
        let fs = fs();
        let store = "/prov/prov_p0.nt";
        let a = b"aaaa\n".to_vec();
        let b = b"bbbb\n".to_vec();
        put(&fs, store, &a);
        put(&fs, "/prov/prov_p0.nt.d000001.nt", &b);
        seal_parity(&fs, store, 0, &[(store, &a, 1), ("/prov/prov_p0.nt.d000001.nt", &b, 2)]);
        // One member damaged: still repairable, both members protected.
        let ino = fs.lookup(store).unwrap();
        fs.write_at(ino, 0, b"X", SimTime::ZERO).unwrap();
        let protected = repairable_paths(&fs, "/prov");
        assert!(protected.contains(store));
        assert!(protected.contains("/prov/prov_p0.nt.d000001.nt"));
        assert!(protected.contains("/prov/prov_p0.nt.p000000.par"));
        // Both members damaged: over tolerance, nothing protected.
        let ino = fs.lookup("/prov/prov_p0.nt.d000001.nt").unwrap();
        fs.write_at(ino, 0, b"X", SimTime::ZERO).unwrap();
        assert!(repairable_paths(&fs, "/prov").is_empty());
    }

    /// The single damages the pin below applies, one at a time, to a
    /// freshly sealed group.
    #[derive(Clone, Copy, Debug)]
    enum Damage {
        DeleteMember(usize),
        RotMember(usize),
        /// A byte in the middle of the data batch's body.
        RotData,
        /// The last digit of the data batch marker's count.
        RotCount,
        /// The first digit of the data batch marker's CRC.
        RotCrc,
        /// The sigil letter of the data batch marker.
        RotSigil,
        ZeroFill,
    }

    /// Member bytes spelled from pieces that probe the frame's line
    /// grammar: lines opening with `#`, `~` and the frame sigils, bytes
    /// that are not UTF-8, RDF text, and no trailing newline unless a piece
    /// ends in one. No pieces is an empty member.
    fn member_bytes() -> impl Strategy<Value = Vec<u8>> {
        const PIECES: [&[u8]; 11] = [
            b"\n",
            b"#",
            b"~",
            b"#~B lines=1 crc=00000000",
            b"#~F batches=1 chain=00000000",
            b"#~R bytes=2 crc=00000000\n",
            b"\xff\xfe\x00",
            b"<urn:a> <urn:p> \"\xc3\xa9\" .\n",
            b"plain text",
            b"\n\n",
            b"~#~B tilde\n",
        ];
        prop::collection::vec(0..PIECES.len(), 0..9)
            .prop_map(|picks| picks.into_iter().flat_map(|i| PIECES[i].iter().copied()).collect())
    }

    /// Where the frame's data batch sits in `par`: the start and end of its
    /// marker line — the frame's second, after the member batch's — and the
    /// start of the footer line, the frame's last.
    fn data_batch(par: &[u8]) -> (usize, usize, usize) {
        let lines: Vec<usize> = std::iter::once(0)
            .chain(par.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
            .filter(|&at| at < par.len())
            .collect();
        let footer = *lines.iter().rfind(|&&at| par[at..].starts_with(b"#~F")).unwrap();
        let marker = *lines.iter().filter(|&&at| par[at..].starts_with(b"#~")).nth(1).unwrap();
        let marker_end = marker + par[marker..].iter().position(|&b| b == b'\n').unwrap() + 1;
        (marker, marker_end, footer)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Every single damage to a sealed group of one to four members of
        /// arbitrary bytes scrubs back to the sealed bytes: a lost or
        /// rotted member is rebuilt, a parity file whose data batch or its
        /// marker's count or CRC rotted is regenerated byte-identical, and
        /// a parity file whose marker sigil rotted or that was zero-filled
        /// is reported unusable, its members left as they were.
        #[test]
        fn every_single_damage_scrubs_back_to_the_sealed_bytes(
            bodies in prop::collection::vec(member_bytes(), 1..5),
        ) {
            let store = "/prov/prov_p0.nt";
            let par = format!("{store}.p000000.par");
            let paths: Vec<String> = (1..=bodies.len()).map(|i| format!("{store}.d{i:06}.nt")).collect();
            let members: Vec<ParityMember> = paths
                .iter()
                .zip(&bodies)
                .enumerate()
                .map(|(i, (path, body))| ParityMember {
                    path: path.clone(),
                    offset: 0,
                    len: body.len() as u64,
                    check: MemberCheck::Crc(crc32fast::hash(body)),
                    ord: Some(i as u64 + 1),
                })
                .collect();
            let data: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
            let mut damages: Vec<Damage> = (0..bodies.len()).map(Damage::DeleteMember).collect();
            damages.extend((0..bodies.len()).filter(|&i| !bodies[i].is_empty()).map(Damage::RotMember));
            damages.extend([Damage::RotData, Damage::RotCount, Damage::RotCrc, Damage::RotSigil, Damage::ZeroFill]);
            for damage in damages {
                let fs = fs();
                for (path, body) in paths.iter().zip(&bodies) {
                    put(&fs, path, body);
                }
                seal(&fs, store, 0, &members, &data);
                let sealed = read_file(&fs, &par).unwrap().to_vec();
                let (marker, marker_end, footer) = data_batch(&sealed);
                let rot = |at: usize, to: u8| {
                    let ino = fs.lookup(&par).unwrap();
                    fs.write_at(ino, at as u64, vec![to], SimTime::ZERO).unwrap();
                };
                let count_at = marker + sealed[marker..marker_end].windows(5).position(|w| w == b" crc=").unwrap() - 1;
                let digit = |b: u8| if b == b'9' { b'0' } else { b + 1 };
                match damage {
                    Damage::DeleteMember(i) => fs.unlink(&paths[i]).unwrap(),
                    Damage::RotMember(i) => {
                        let ino = fs.lookup(&paths[i]).unwrap();
                        let at = bodies[i].len() / 2;
                        fs.write_at(ino, at as u64, vec![bodies[i][at] ^ 0x20], SimTime::ZERO).unwrap();
                    }
                    Damage::RotData => {
                        // A content byte, not a line end: the damage is rot
                        // in the block, not a change of its line structure.
                        let mid = marker_end + (footer - marker_end) / 2;
                        let Some(at) = (mid..footer.saturating_sub(1)).find(|&at| sealed[at] != b'\n') else {
                            continue;
                        };
                        rot(at, if sealed[at] == 0 { 1 } else { 0 });
                    }
                    Damage::RotCount => rot(count_at, digit(sealed[count_at])),
                    Damage::RotCrc => rot(count_at + 6, if sealed[count_at + 6] == b'0' { b'1' } else { b'0' }),
                    Damage::RotSigil => rot(marker + 2, b'?'),
                    Damage::ZeroFill => {
                        fs.corrupt_at_rest(&par, &provio_hpcfs::CorruptKind::ZeroFill, 7).unwrap();
                    }
                }
                let rep = scrub_directory(&fs, "/prov");
                for (path, body) in paths.iter().zip(&bodies) {
                    prop_assert_eq!(read_file(&fs, path).map(|b| b.to_vec()), Some(body.clone()), "{:?}: {}", damage, rep);
                }
                let none: Vec<String> = Vec::new();
                let (files, parity, unusable) = match damage {
                    Damage::DeleteMember(i) | Damage::RotMember(i) => (vec![paths[i].clone()], none.clone(), none),
                    Damage::RotData | Damage::RotCount | Damage::RotCrc => (none.clone(), vec![par.clone()], none),
                    Damage::RotSigil | Damage::ZeroFill => (none.clone(), none, vec![par.clone()]),
                };
                prop_assert_eq!(&rep.repaired_files, &files, "{:?}: {}", damage, rep);
                prop_assert_eq!(&rep.repaired_parity, &parity, "{:?}: {}", damage, rep);
                prop_assert_eq!(&rep.unusable_parity, &unusable, "{:?}: {}", damage, rep);
                prop_assert!(rep.unrecoverable.is_empty(), "{:?}: {}", damage, rep);
                if unusable.is_empty() {
                    prop_assert_eq!(read_file(&fs, &par).unwrap().to_vec(), sealed.clone(), "{:?}: {}", damage, rep);
                }
            }
        }
    }

    #[test]
    fn empty_or_absent_directory_scrubs_clean() {
        let fs = fs();
        assert!(scrub_directory(&fs, "/nowhere").is_clean());
        fs.mkdir_all("/prov", "provio", SimTime::ZERO).unwrap();
        let rep = scrub_directory(&fs, "/prov");
        assert!(rep.is_clean());
        assert_eq!(rep.groups, 0);
    }
}
