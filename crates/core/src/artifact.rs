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
//! batch 2   the XOR block over all member byte ranges, either base64:
//!           data len=<n> b64=<base64>
//!           or (single-member groups only) an escaped verbatim replica:
//!           data len=<n> enc=raw term=<0|1>
//!           <member lines, `~`-escaped where they would collide with
//!            frame sigils>
//! ```
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
use std::io::Write as _;

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
/// record batch plus the data batch. Single-member groups skip XOR and
/// base64 entirely — the "XOR block" of one member is the member itself,
/// so the data batch is an escaped verbatim replica (`enc=raw`), one
/// third smaller and two full passes cheaper than encoding it, written
/// straight into the frame. The store's seal and scrub's regeneration
/// share this one builder, which is what makes a regenerated parity file
/// byte-identical to the original.
pub(crate) fn encode_parity_frame(
    guid: u64,
    seq: u64,
    member_lines: &[String],
    acc: &[u8],
) -> (Vec<u8>, [u8; 32]) {
    let mut enc = frame::Encoder::new(FrameKind::Parity, guid, seq, frame::CHAIN_START);
    let head: usize = member_lines.iter().map(|l| l.len() + 1).sum();
    // A replica needs UTF-8 text; the base64 path handles anything else.
    let replica = std::str::from_utf8(acc).ok().filter(|t| member_lines.len() == 1 && !t.is_empty());
    enc.reserve(head + replica.map_or(acc.len().div_ceil(3) * 4, |t| t.len()) + 64);
    enc.batch(member_lines);
    match replica {
        Some(text) => raw_replica(&mut enc, text),
        None => enc.batch(&[data_line(acc)]),
    }
    let (framed, _chain, root) = enc.finish_with_root();
    (framed, root)
}

/// The raw replica batch of a single-member group: a `data … enc=raw`
/// header line followed by the member's own lines, escaped just enough to
/// survive the line-oriented frame (a leading `~` shields lines that
/// start with `#` — the member's own frame header and sigils — or with
/// `~` itself; everything else passes verbatim). `term=1` records a
/// trailing newline so the decode is exact for any byte content.
fn raw_replica(enc: &mut frame::Encoder, text: &str) {
    let term = text.ends_with('\n');
    let content = if term { &text[..text.len() - 1] } else { text };
    let lines = 2 + content.bytes().filter(|&b| b == b'\n').count();
    enc.framed(lines, |out| {
        let _ = writeln!(out, "data len={} enc=raw term={}", text.len(), u8::from(term));
        for line in content.split('\n') {
            if line.starts_with(['~', '#']) {
                out.push(b'~');
            }
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
    });
}

/// Render the XOR data block line of a parity payload. The block can be
/// snapshot-sized (megabytes), so the line is assembled without an extra
/// format-machinery copy of the encoded text.
pub(crate) fn data_line(acc: &[u8]) -> String {
    let mut out = Vec::with_capacity(24 + acc.len().div_ceil(3) * 4);
    out.extend_from_slice(b"data len=");
    out.extend_from_slice(acc.len().to_string().as_bytes());
    out.extend_from_slice(b" b64=");
    encode_b64_into(acc, &mut out);
    String::from_utf8(out).expect("data line is ASCII")
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Every 12-bit value → its two base64 characters, so the encoder emits a
/// 3-byte group with two table reads instead of four.
static B64_PAIRS: [[u8; 2]; 4096] = {
    let mut t = [[0u8; 2]; 4096];
    let mut i = 0;
    while i < 4096 {
        t[i] = [B64[i >> 6], B64[i & 63]];
        i += 1;
    }
    t
};

/// Standard base64 with padding; hand-rolled because the workspace vendors
/// no encoder and the parity block must survive the line-oriented frame
/// format (raw bytes could forge `#~B`/`#~F` sigils or break UTF-8).
/// Parity blocks are snapshot-sized and this runs on the commit path, so
/// the output is pre-sized and filled through paired lock-step chunk
/// iterators (no per-group capacity or bounds checks).
pub(crate) fn encode_b64_into(data: &[u8], out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + data.len().div_ceil(3) * 4, 0);
    let (head, tail) = out[at..].split_at_mut(data.len() / 3 * 4);
    let mut whole = data.chunks_exact(3);
    for (chunk, slot) in (&mut whole).zip(head.chunks_exact_mut(4)) {
        let n = (u32::from(chunk[0]) << 16) | (u32::from(chunk[1]) << 8) | u32::from(chunk[2]);
        slot[..2].copy_from_slice(&B64_PAIRS[(n >> 12) as usize]);
        slot[2..].copy_from_slice(&B64_PAIRS[n as usize & 0xfff]);
    }
    let rem = whole.remainder();
    if !rem.is_empty() {
        let n = (u32::from(rem[0]) << 16) | (u32::from(rem.get(1).copied().unwrap_or(0)) << 8);
        tail[0] = B64[(n >> 18) as usize & 63];
        tail[1] = B64[(n >> 12) as usize & 63];
        tail[2] = if rem.len() > 1 { B64[(n >> 6) as usize & 63] } else { b'=' };
        tail[3] = b'=';
    }
}

pub(crate) fn decode_b64(text: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = text.trim_end_matches('=').as_bytes();
    let mut out = Vec::with_capacity(bytes.len() * 3 / 4);
    for chunk in bytes.chunks(4) {
        if chunk.len() == 1 {
            return None;
        }
        let mut n = 0u32;
        for &c in chunk {
            n = (n << 6) | val(c)?;
        }
        n <<= 6 * (4 - chunk.len() as u32);
        out.push((n >> 16) as u8);
        if chunk.len() > 2 {
            out.push((n >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(n as u8);
        }
    }
    Some(out)
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

pub(crate) fn parse_data_line(line: &str) -> Option<Vec<u8>> {
    let [len, b64] = frame::fields(line, "data ", ["len=", "b64="])?;
    let data = decode_b64(b64?)?;
    (data.len() == len?.parse::<usize>().ok()?).then_some(data)
}

/// Parse a `data len=<n> enc=raw term=<0|1>` replica header.
pub(crate) fn parse_raw_header(line: &str) -> Option<(usize, bool)> {
    let [len, enc, term] = frame::fields(line, "data ", ["len=", "enc=", "term="])?;
    if enc? != "raw" {
        return None;
    }
    let term = match term? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    Some((len?.parse().ok()?, term))
}

/// A parity payload read back: the member records — parsed, and verbatim
/// so a regenerated parity file re-batches the original lines — and the
/// data block, when its batch decoded.
pub(crate) struct ParityPayload {
    pub(crate) members: Vec<ParityMember>,
    pub(crate) member_lines: Vec<String>,
    pub(crate) data: Option<Vec<u8>>,
}

/// Parse the payload of a decoded `kind=parity` frame. Lines that do not
/// parse are skipped: the two batches fail independently, and the caller
/// decides what a payload without members or without data is worth. A raw
/// replica header takes every line after it: unescaped, they are the
/// member's bytes when they come to the recorded length.
pub(crate) fn parse_parity_payload(payload: &str) -> ParityPayload {
    let mut out = ParityPayload {
        members: Vec::new(),
        member_lines: Vec::new(),
        data: None,
    };
    let mut lines = payload.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("member ") {
            if let Some(m) = parse_member_line(line) {
                out.members.push(m);
                out.member_lines.push(line.to_string());
            }
        } else if line.starts_with("data ") && out.data.is_none() {
            let Some((len, term)) = parse_raw_header(line) else {
                out.data = parse_data_line(line);
                continue;
            };
            let mut buf = String::with_capacity(len + 1);
            for line in lines.by_ref() {
                buf.extend([line.strip_prefix('~').unwrap_or(line), "\n"]);
            }
            buf.truncate(buf.len() - usize::from(!term));
            out.data = (buf.len() == len).then(|| buf.into_bytes());
        }
    }
    out
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
