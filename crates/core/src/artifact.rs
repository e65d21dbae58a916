//! The store's record formats: the parity payload, the run manifest and
//! the campaign ledger line — struct, printer, parser and check for each,
//! as pure functions of text and bytes.
//!
//! The write path ([`crate::store`]) prints these records and the read
//! path ([`crate::scrub`], [`crate::verify`]) parses them back, so they
//! live beneath both: nothing here touches the file system, and every
//! line goes through the one `key=value` tokenizer, `frame::fields`.
//!
//! # Parity file layout
//!
//! A parity file is an ordinary PROVIO1 frame (`kind=parity`) whose
//! ordinal is a store-wide parity sequence and whose `prev` is always
//! [`frame::CHAIN_START`] — parity files are redundancy, not history, so
//! they stand outside the commit chain. The payload is two CRC batches:
//!
//! ```text
//! batch 1   one line per member:
//!           member crc=<08x>|root=<64hex> offset=<n> len=<n> ord=<n|-> path=<path>
//! batch 2   the XOR block over all member byte ranges, as the frame's raw
//!           batch: #~R bytes=<n> crc=<08x>, the bytes, `\n`
//! ```
//!
//! The XOR block of one member is the member itself, so a one-member
//! group's block is the member's committed bytes verbatim — the very
//! buffer its file adopted, written with no copy.
//!
//! The two batches fail independently: a bit flip in the (large) data
//! batch leaves the member records verifiable, so the parity file itself
//! can be regenerated byte-identical from its intact members. Whole-file
//! members (snapshots, delta segments) record `offset=0`, the commit
//! ordinal, and the commit frame's Merkle `root=` (already computed by
//! the committing encoder — see [`MemberCheck`]); journal members cover
//! one group-commit chunk each (`ord=-`) with a raw-span `crc=`, so a
//! crashed rank's journal tail stays covered — the rank that would have
//! recycled it is dead.
//!
//! # Manifest and ledger
//!
//! ```text
//! # PROVIO-MANIFEST1 run=<16hex> files=<n> ranks=<n>
//! file root=<64hex> mode=<merkle|raw> bytes=<n> path=<path>
//! rank pid=<n> outcome=<finished|degraded> triples=<n>
//! sig alg=hmac-sha256 keyid=<8hex> hmac=<64hex>
//! ```
//!
//! The `sig` line's HMAC covers every byte before it. A ledger record is
//! one line, `run=<16hex> manifest=<64hex> prev=<64hex|->`, framed as one
//! WAL chunk per sealed run by [`crate::verify::append_ledger`].
//!
//! The round-trip tests sit with the algorithms that use the records
//! (`scrub::tests`, `verify::tests`); `frame::tests` holds the property
//! that no line parser here panics on mutated lines.

use crate::frame::{self, FrameKind, FramedFile};
use bytes::Bytes;
use std::collections::HashMap;

/// One byte range covered by a parity group: `check` pins the member's
/// `[offset, offset+len)` bytes as they were at seal time, and `ord` is
/// the commit ordinal for whole-file members (`None` for journal chunks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParityMember {
    /// Path of the covered artifact (a live, committed path — never tmp).
    pub(crate) path: String,
    /// Byte offset of the covered range within the file.
    pub(crate) offset: u64,
    /// Length of the covered range.
    pub(crate) len: u64,
    /// How the covered bytes verify.
    pub(crate) check: MemberCheck,
    /// Commit ordinal for whole-file members; `None` for journal chunks.
    pub(crate) ord: Option<u64>,
}

/// How a member's bytes are pinned at seal time.
///
/// Whole-file commits record the frame's Merkle root: the committing
/// encoder already computed it for the manifest cache, so tracking a
/// member costs no extra pass over the bytes. Journal chunks (and legacy
/// parity files) record a CRC32 of the raw span. A chunk is one whole
/// `FrameKind::Wal` frame inside a generation file, but the encoder's
/// `finish()` that writes it drops the frame's root, so there is no
/// root to record without a second pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemberCheck {
    /// CRC32 of the covered bytes.
    Crc(u32),
    /// Merkle root of the covered frame, as recomputed from the bytes on
    /// disk by a full [`frame::decode`].
    Root([u8; 32]),
}

/// Verify candidate member bytes against the recorded check: `Some` when
/// they match, holding the frame a root check decoded to judge them. Root
/// members fully decode the candidate frame: the batch bodies must fold to
/// the recorded Merkle root, the footer must claim that same root, every
/// batch must verify, and the header must carry the member's store GUID —
/// between the root (bodies + footer) and the footer's chain field (a CRC
/// of the header line, enforced by [`frame::decode`]), rot anywhere in
/// the frame fails the comparison, exactly as the old whole-file CRC did.
fn check_matches(bytes: &[u8], check: &MemberCheck, path: &str) -> Option<Option<FramedFile>> {
    match check {
        MemberCheck::Crc(c) => (crc32fast::hash(bytes) == *c).then_some(None),
        MemberCheck::Root(r) => frame::decode_bytes(bytes)
            .ok()
            .filter(|f| {
                f.intact()
                    && f.belongs_to(path)
                    && f.computed_root == *r
                    && f.declared_root == Some(*r)
            })
            .map(Some),
    }
}

/// A member's bytes that passed their recorded check, and the frame a
/// root check decoded to pass them.
pub(crate) struct Verified {
    pub(crate) bytes: Bytes,
    pub(crate) frame: Option<FramedFile>,
}

impl ParityMember {
    /// A snapshot or delta segment, covered from its first byte to its
    /// last; journal members cover one chunk of a generation file.
    pub(crate) fn whole_file(&self) -> bool {
        self.offset == 0 && self.ord.is_some()
    }

    /// `bytes`, read from `offset` on, cut down to the covered range — when
    /// they reach that far and the range verifies; else handed back as is.
    pub(crate) fn cover(&self, bytes: Bytes) -> Result<Verified, Bytes> {
        let len = usize::try_from(self.len).ok().filter(|&len| len <= bytes.len());
        let check = |len: usize| Some((len, check_matches(&bytes[..len], &self.check, &self.path)?));
        match len.and_then(check) {
            Some((len, frame)) => Ok(Verified { bytes: bytes.slice(..len), frame }),
            None => Err(bytes),
        }
    }
}

/// XOR `bytes` into `acc`, growing `acc` with zero padding as needed —
/// XOR against zero is identity, so shorter members simply leave the
/// accumulator's tail untouched.
pub(crate) fn xor_into(acc: &mut Vec<u8>, bytes: &[u8]) {
    if acc.len() < bytes.len() {
        acc.resize(bytes.len(), 0);
    }
    // Word-at-a-time: members can be snapshot-sized, and this runs on the
    // commit path of every flush. Slicing `acc` to the member's length
    // keeps the two remainders aligned when `acc` is the longer of the two.
    let mut a = acc[..bytes.len()].chunks_exact_mut(8);
    let mut b = bytes.chunks_exact(8);
    for (aw, bw) in (&mut a).zip(&mut b) {
        let x = u64::from_ne_bytes(aw.try_into().unwrap())
            ^ u64::from_ne_bytes(bw.try_into().unwrap());
        aw.copy_from_slice(&x.to_ne_bytes());
    }
    for (ab, bb) in a.into_remainder().iter_mut().zip(b.remainder()) {
        *ab ^= bb;
    }
}

/// Render one member record line of a parity payload.
pub(crate) fn member_line(m: &ParityMember) -> String {
    let ord = m.ord.map_or_else(|| "-".to_string(), |o| o.to_string());
    let check = match &m.check {
        MemberCheck::Crc(crc) => format!("crc={crc:08x}"),
        MemberCheck::Root(root) => format!("root={}", sha2::hex(root)),
    };
    format!("member {check} offset={} len={} ord={ord} path={}", m.offset, m.len, m.path)
}

/// Build the complete framed parity file for a sealed group: the member
/// record batch, then `block`, the XOR of the members, as the raw batch.
/// The file comes back as the three parts a commit writes — head, `block`
/// itself, tail — so the block is never copied, and its root. The store's
/// seal and scrub's regeneration share this one builder, which is what
/// makes a regenerated parity file byte-identical to the original.
pub(crate) fn encode_parity_frame(
    guid: u64,
    seq: u64,
    member_lines: &[String],
    block: Bytes,
) -> ([Bytes; 3], [u8; 32]) {
    let mut enc = frame::Encoder::new(FrameKind::Parity, guid, seq, frame::CHAIN_START);
    enc.batch(member_lines);
    let (head, tail, root) = enc.finish_raw(&block);
    ([head.into(), block, tail.into()], root)
}

pub(crate) fn parse_member_line(line: &str) -> Option<ParityMember> {
    let [crc, root, offset, len, ord, path] = frame::fields(
        line,
        "member ",
        ["crc=", "root=", "offset=", "len=", "ord=", "path="],
    )?;
    // Exactly one content check: a line carrying both does not say which
    // one the group sealed over.
    let check = match (crc, root) {
        (Some(v), None) => MemberCheck::Crc(u32::from_str_radix(v, 16).ok()?),
        (None, Some(v)) => MemberCheck::Root(frame::parse_hex32(v)?),
        _ => return None,
    };
    Some(ParityMember {
        path: path?.to_string(),
        offset: offset?.parse().ok()?,
        len: len?.parse().ok()?,
        check,
        ord: match ord? {
            "-" => None,
            v => Some(v.parse().ok()?),
        },
    })
}

/// The member records of a decoded `kind=parity` frame's payload: parsed,
/// and verbatim so a regenerated parity file re-batches the original
/// lines. Lines that do not parse are skipped; the caller decides what a
/// group without members is worth.
pub(crate) fn parse_members(payload: &str) -> (Vec<ParityMember>, Vec<String>) {
    payload
        .lines()
        .filter_map(|line| Some((parse_member_line(line)?, line.to_string())))
        .unzip()
}

/// First-line magic of the manifest; the trailing digit is the version.
pub const MANIFEST_MAGIC: &str = "# PROVIO-MANIFEST1";

/// One rank's outcome as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankEntry {
    pub pid: u32,
    pub degraded: bool,
    pub triples: u64,
}

/// One committed file as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub(crate) path: String,
    /// Content root: the frame Merkle root for framed files
    /// (`mode=merkle`), the SHA-256 of the raw bytes otherwise
    /// (`mode=raw`, legacy unframed stores).
    pub(crate) root: [u8; 32],
    pub(crate) merkle: bool,
    pub(crate) bytes: u64,
}

/// A parsed run manifest (signature judged separately, against the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Run GUID: FNV-1a over the sorted `(path, root)` pairs, so a re-run
    /// over identical bytes signs the identical manifest.
    pub(crate) run: u64,
    pub(crate) files: Vec<ManifestEntry>,
    pub(crate) ranks: Vec<RankEntry>,
}

/// First 8 hex digits of SHA-256 of the key: enough to tell "edited after
/// signing" apart from "verified with the wrong key" in reports, without
/// leaking the key.
pub(crate) fn key_id(key: &str) -> String {
    sha2::hex(&sha2::sha256(key.as_bytes()))[..8].to_string()
}

/// Render the manifest text: header, one `file` line per committed file
/// (path last, so paths may contain spaces), one `rank` line per rank, and
/// the `sig` line whose HMAC covers every byte before it.
pub(crate) fn render_manifest(manifest: &Manifest, key: &str) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{MANIFEST_MAGIC} run={:016x} files={} ranks={}\n",
        manifest.run,
        manifest.files.len(),
        manifest.ranks.len()
    );
    for e in &manifest.files {
        let _ = writeln!(
            out,
            "file root={} mode={} bytes={} path={}",
            sha2::hex(&e.root),
            if e.merkle { "merkle" } else { "raw" },
            e.bytes,
            e.path
        );
    }
    for r in &manifest.ranks {
        let _ = writeln!(
            out,
            "rank pid={} outcome={} triples={}",
            r.pid,
            if r.degraded { "degraded" } else { "finished" },
            r.triples
        );
    }
    let mac = sha2::hmac_sha256(key.as_bytes(), out.as_bytes());
    let _ = writeln!(
        out,
        "sig alg=hmac-sha256 keyid={} hmac={}",
        key_id(key),
        sha2::hex(&mac)
    );
    out
}

/// A manifest parsed off disk, before any trust decision: the claims plus
/// the signature fields and how many bytes the signature covers.
pub(crate) struct ParsedManifest {
    pub(crate) manifest: Manifest,
    pub(crate) alg: String,
    pub(crate) keyid: String,
    pub(crate) hmac: String,
    pub(crate) signed_len: usize,
}

/// The manifest header's `(run, files, ranks)`.
pub(crate) fn parse_manifest_header(line: &str) -> Option<(u64, usize, usize)> {
    let [run, files, ranks] = frame::fields(line, MANIFEST_MAGIC, ["run=", "files=", "ranks="])?;
    Some((
        u64::from_str_radix(run?, 16).ok()?,
        files?.parse().ok()?,
        ranks?.parse().ok()?,
    ))
}

pub(crate) fn parse_file_line(line: &str) -> Option<ManifestEntry> {
    let [root, mode, bytes, path] =
        frame::fields(line, "file ", ["root=", "mode=", "bytes=", "path="])?;
    Some(ManifestEntry {
        path: path?.to_string(),
        root: frame::parse_hex32(root?)?,
        merkle: match mode? {
            "merkle" => true,
            "raw" => false,
            _ => return None,
        },
        bytes: bytes?.parse().ok()?,
    })
}

pub(crate) fn parse_rank_line(line: &str) -> Option<RankEntry> {
    let [pid, outcome, triples] = frame::fields(line, "rank ", ["pid=", "outcome=", "triples="])?;
    Some(RankEntry {
        pid: pid?.parse().ok()?,
        degraded: match outcome? {
            "finished" => false,
            "degraded" => true,
            _ => return None,
        },
        triples: triples?.parse().ok()?,
    })
}

/// The signature line's `(alg, keyid, hmac)`.
pub(crate) fn parse_sig_line(line: &str) -> Option<(&str, &str, &str)> {
    let [alg, keyid, hmac] = frame::fields(line, "sig ", ["alg=", "keyid=", "hmac="])?;
    Some((alg?, keyid?, hmac?))
}

pub(crate) fn parse_manifest(text: &str) -> Option<ParsedManifest> {
    // The signature is the last line; everything before it is signed.
    let sig_off = text.rfind("\nsig ")? + 1;
    let tail = text[sig_off..].trim_end();
    if tail.contains('\n') {
        return None; // content after the signature line
    }
    let (alg, keyid, hmac) = parse_sig_line(tail)?;
    let mut lines = text[..sig_off].lines();
    let (run, nfiles, nranks) = parse_manifest_header(lines.next()?)?;
    let mut manifest = Manifest {
        run,
        files: Vec::new(),
        ranks: Vec::new(),
    };
    for line in lines {
        if line.starts_with("file ") {
            manifest.files.push(parse_file_line(line)?);
        } else {
            manifest.ranks.push(parse_rank_line(line)?);
        }
    }
    if manifest.files.len() != nfiles || manifest.ranks.len() != nranks {
        return None; // declared counts disagree with the lines present
    }
    Some(ParsedManifest {
        manifest,
        alg: alg.to_string(),
        keyid: keyid.to_string(),
        hmac: hmac.to_string(),
        signed_len: sig_off,
    })
}

/// Commit-time root cache handed to the sealing pass by the writers: path
/// → `(committed bytes, Merkle root)`, as collected from
/// [`crate::store::ProvenanceStore::committed_roots`].
pub type RootCache = HashMap<String, (u64, [u8; 32])>;

/// What one recovery's scrub hands its later tiers for a live file it
/// decoded intact or wrote back: the file's length and Merkle root, which
/// verify judges it by unread, and for a snapshot or segment the decoded
/// frame, until merge takes it instead of reading the file again.
pub(crate) struct Decoded {
    pub(crate) len: u64,
    pub(crate) root: [u8; 32],
    pub(crate) frame: Option<FramedFile>,
}

/// Live path → what scrub decoded there, for one recovery.
pub(crate) type HandOff = HashMap<String, Decoded>;

/// One sealed run in the campaign ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRecord {
    pub(crate) run: u64,
    /// SHA-256 of the run's full manifest file.
    pub(crate) manifest: [u8; 32],
    /// The previous record's manifest digest (`None` for the first run),
    /// chaining the campaign root-to-root independently of frame chaining.
    pub(crate) prev: Option<[u8; 32]>,
}

pub(crate) fn parse_ledger_line(line: &str) -> Option<LedgerRecord> {
    let [run, manifest, prev] = frame::fields(line, "", ["run=", "manifest=", "prev="])?;
    Some(LedgerRecord {
        run: u64::from_str_radix(run?, 16).ok()?,
        manifest: frame::parse_hex32(manifest?)?,
        prev: match prev? {
            "-" => None,
            v => Some(frame::parse_hex32(v)?),
        },
    })
}

/// Render one ledger record line, newline included (the inverse of
/// [`parse_ledger_line`]).
pub(crate) fn ledger_line(rec: &LedgerRecord) -> String {
    let prev = rec.prev.map_or_else(|| "-".to_string(), |d| sha2::hex(&d));
    format!(
        "run={:016x} manifest={} prev={prev}\n",
        rec.run,
        sha2::hex(&rec.manifest)
    )
}
