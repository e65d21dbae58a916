//! Versioned, checksummed on-disk framing for store files.
//!
//! A framed snapshot or delta segment is still a *textual* RDF file — every
//! frame line begins with `#`, which both the N-Triples and Turtle parsers
//! treat as a comment — but carries enough integrity metadata to detect any
//! single corrupted region and to localize the damage to one record batch:
//!
//! ```text
//! # PROVIO1 kind=delta guid=00a1b2c3d4e5f607 ordinal=3 prev=89abcdef
//! #~B lines=2 crc=0011aabb
//! <urn:s> <urn:p> <urn:o> .
//! <urn:s> <urn:p> <urn:o2> .
//! #~B lines=1 crc=22cc33dd
//! <urn:s2> <urn:p> <urn:o> .
//! #~F batches=2 chain=deadbeef root=9f86d081884c7d65…
//! ```
//!
//! * **Header** — magic + format version (`PROVIO1`), the frame kind, the
//!   store's GUID (so a segment substituted from another store is caught),
//!   the segment ordinal within this store (so reordering is caught), and
//!   `prev`, the previous committed file's chain value (so a *missing* or
//!   replayed file breaks the chain).
//! * **Batches** — the payload in fixed-size line batches, each with its
//!   line count and the CRC-32 of its exact bytes. CRC-32 detects every
//!   single-bit error and every burst up to 32 bits, so a seeded bit flip
//!   inside a batch can never verify; the batch is skipped and its intact
//!   siblings salvaged.
//! * **Footer** — the batch count; `chain`, the CRC-32 of the header line
//!   (since the header embeds `guid`/`ordinal`/`prev`, the chain value
//!   commits to the file's identity and position, and the *next* file's
//!   header must carry it as `prev`); and `root`, the SHA-256 Merkle root
//!   folding the batch CRCs ([`merkle_root`]). The root is what a signed
//!   run manifest anchors: CRC-32 frames catch *accidental* damage, but an
//!   adversary can rewrite a batch and patch its CRC — only a digest they
//!   cannot forge, compared against a copy they cannot re-sign, catches
//!   that. [`decode`] reports but never *enforces* the root (bit-rot
//!   salvage semantics are unchanged); enforcement lives in `verify`.
//!
//! Batch payload lines must not begin with the reserved `#~` sigil — RDF
//! serializations never do. Decoding never trusts a marker's `lines=` field
//! for framing: batches are delimited by scanning for the next marker, so a
//! flipped digit only fails that one batch's verification.
//!
//! Version negotiation with the legacy format is by the first line: a file
//! that does not open with the magic and contains no frame markers is
//! legacy and parsed as before; one that *looks* framed but fails header or
//! footer verification is quarantined, never parsed.

pub use crate::names::fnv1a64;
use crate::names::{self, Role};
use crc32fast::hash as crc32;
use std::io::Write as _;

/// First-line magic; the trailing digit is the format version.
pub const MAGIC: &str = "# PROVIO1";

/// Reserved sigil opening every batch marker line.
pub const BATCH_SIGIL: &str = "#~B";

/// Reserved sigil opening the footer line.
pub const FOOTER_SIGIL: &str = "#~F";

/// `prev` value for the first file of a store's chain (ordinal 0).
pub const CHAIN_START: u32 = 0;

/// What a framed file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Snapshot,
    Delta,
    /// One group commit of the write-ahead journal. WAL chunks are framed
    /// like segments but live outside the snapshot/segment commit chain:
    /// their `ordinal` is the *record* ordinal of the chunk's first journal
    /// record, and `prev` chains chunks within one journal generation file.
    Wal,
    /// One sealed parity group (`<snapshot>.pNNNNNN.par`): XOR redundancy
    /// over committed artifacts. Parity files live outside the commit chain
    /// like WAL generations — their `ordinal` is a store-wide parity
    /// sequence and `prev` is always [`CHAIN_START`]. The payload is member
    /// record lines plus the XOR block, base64 or — for a single-member
    /// group — an escaped verbatim replica (see `artifact`).
    Parity,
}

impl FrameKind {
    fn as_str(&self) -> &'static str {
        match self {
            FrameKind::Snapshot => "snapshot",
            FrameKind::Delta => "delta",
            FrameKind::Wal => "wal",
            FrameKind::Parity => "parity",
        }
    }

    fn parse(s: &str) -> Option<FrameKind> {
        match s {
            "snapshot" => Some(FrameKind::Snapshot),
            "delta" => Some(FrameKind::Delta),
            "wal" => Some(FrameKind::Wal),
            "parity" => Some(FrameKind::Parity),
            _ => None,
        }
    }
}

/// A successfully decoded (possibly partially corrupt) framed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedFile {
    pub kind: FrameKind,
    /// Store GUID claimed by the header.
    pub guid: u64,
    /// Position of this file in the store's commit sequence.
    pub ordinal: u64,
    /// Chain value of the previous committed file ([`CHAIN_START`] for the
    /// first).
    pub prev: u32,
    /// This file's own chain value (CRC-32 of its header line), which the
    /// next file's `prev` must equal.
    pub chain: u32,
    /// Concatenated payload of every batch that verified.
    pub payload: String,
    /// Batches the file was declared/observed to hold.
    pub batches_total: usize,
    /// Batches that failed verification and were dropped from `payload`.
    pub batches_corrupt: usize,
    /// Merkle root the footer claims (None on pre-root footers).
    pub declared_root: Option<[u8; 32]>,
    /// Merkle root recomputed from the batch bodies as found on disk.
    /// [`decode`] reports the mismatch but does not act on it: a root-only
    /// mismatch (every CRC verifies, identity verifies) is *tamper*, not
    /// rot, and is judged against the signed manifest by `verify`, not
    /// against the (equally rewritable) footer.
    pub computed_root: [u8; 32],
}

impl FramedFile {
    /// Did every batch verify?
    pub fn intact(&self) -> bool {
        self.batches_corrupt == 0
    }

    /// Does the header claim the store that the file at `path` belongs to?
    /// A frame that verifies but sits under another store's name was
    /// substituted or misplaced.
    pub fn belongs_to(&self, path: &str) -> bool {
        self.guid == store_guid(path)
    }
}

/// Why a file could not be decoded as a framed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// No magic, no frame markers: a legacy-format file, parse it as such.
    NotFramed,
    /// The file is framed but its header/footer/chain cannot be trusted;
    /// it must be quarantined, never parsed into the merged graph.
    Quarantine(&'static str),
}

/// The GUID of the store a file at `path` belongs to: the FNV-1a hash of
/// the snapshot path, so a snapshot, all of its segments, its journal and
/// its parity files — tmp or quarantined — claim the same GUID. This and
/// the three views below read the one file-name grammar in [`crate::names`].
pub fn store_guid(path: &str) -> u64 {
    names::parse(path).guid()
}

/// Strip commit-protocol suffixes down to the snapshot path.
pub fn base_store_path(path: &str) -> &str {
    names::parse(path).base
}

/// Is `path` a WAL generation file (`<snapshot>.wNNNNNN.nt`, possibly
/// wrapped in commit-protocol suffixes)?
pub fn is_wal_path(path: &str) -> bool {
    matches!(names::parse(path).role, Role::Journal(_))
}

/// Is `path` a sealed parity file (`<snapshot>.pNNNNNN.par`, possibly
/// wrapped in commit-protocol suffixes)?
pub fn is_parity_path(path: &str) -> bool {
    matches!(names::parse(path).role, Role::Parity(_))
}

fn header_line(kind: FrameKind, guid: u64, ordinal: u64, prev: u32) -> String {
    let kind = kind.as_str();
    format!("{MAGIC} kind={kind} guid={guid:016x} ordinal={ordinal} prev={prev:08x}")
}

/// Frame `payload` (a complete RDF serialization) into the checksummed
/// format. Returns the framed text and its chain value, which the caller
/// passes as `prev` when encoding the store's next file. `batch_lines`
/// bounds how many payload lines share one CRC frame — smaller batches mean
/// finer-grained salvage at higher overhead.
pub fn encode(
    kind: FrameKind,
    guid: u64,
    ordinal: u64,
    prev: u32,
    payload: &str,
    batch_lines: usize,
) -> (String, u32) {
    let (out, chain, _) = encode_with_root(kind, guid, ordinal, prev, payload, batch_lines);
    (out, chain)
}

/// [`encode`], additionally returning the frame's Merkle root — what
/// [`file_root`] would recompute from the committed bytes. Writers cache
/// it per committed path so sealing a run does not have to re-read and
/// re-CRC files the store itself just wrote.
pub fn encode_with_root(
    kind: FrameKind,
    guid: u64,
    ordinal: u64,
    prev: u32,
    payload: &str,
    batch_lines: usize,
) -> (String, u32, [u8; 32]) {
    let batch_lines = batch_lines.max(1);
    let mut enc = Encoder::new(kind, guid, ordinal, prev);
    enc.reserve(payload.len());
    let mut rest = payload;
    while !rest.is_empty() {
        let (mut end, mut lines) = (0, 0);
        while end < rest.len() && lines < batch_lines {
            end = rest[end..].find('\n').map_or(rest.len(), |nl| end + nl + 1);
            lines += 1;
        }
        let (block, tail) = rest.split_at(end);
        // A payload whose last line lacks its '\n' frames (and checksums)
        // as if it were there.
        if block.ends_with('\n') {
            enc.batch_block(block, lines);
        } else {
            enc.batch_block(&format!("{block}\n"), lines);
        }
        rest = tail;
    }
    let (bytes, chain, root) = enc.finish_with_root();
    let text = String::from_utf8(bytes).expect("a frame is its UTF-8 payload between ASCII marker lines");
    (text, chain, root)
}

/// Fold per-batch CRC-32 values into a SHA-256 Merkle root: each leaf is
/// the SHA-256 of the CRC's 4 big-endian bytes, interior nodes hash the
/// concatenation of their children, and an odd node is promoted unchanged.
/// Zero leaves root at `SHA-256("")`. CRC leaves keep the hot flush path at
/// CRC speed — the (few) interior hashes are the only SHA-256 work — while
/// the root still commits to every batch's content and order strongly
/// enough to anchor in a signed manifest.
pub fn merkle_root(leaves: &[u32]) -> [u8; 32] {
    let mut level: Vec<[u8; 32]> = leaves
        .iter()
        .map(|&crc| sha2::sha256(&crc.to_be_bytes()))
        .collect();
    if level.is_empty() {
        return sha2::sha256(b"");
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if let [l, r] = pair {
                let mut h = sha2::Sha256::new();
                h.update(l);
                h.update(r);
                next.push(h.finalize());
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// Recompute a framed file's Merkle root straight from its on-disk text in
/// one pass — batch bodies are CRC'd as contiguous slices, no payload
/// reassembly. Works on single frames and on WAL generation files (a
/// concatenation of frames: leaves accumulate across every chunk in
/// order). Returns `None` for files that do not open with the magic —
/// legacy stores have no root to recompute.
///
/// This is the manifest writer's and verifier's view of a file: the root
/// of *what is actually on disk*, regardless of what any (rewritable)
/// footer claims.
pub fn file_root(text: &str) -> Option<[u8; 32]> {
    let mut cuts = cuts(text);
    if !cuts.next()?.marker.starts_with(MAGIC) {
        return None;
    }
    // Every batch body is a leaf — a torn last one included: no closing
    // marker, fold what is there. What follows a footer (the next chunk's
    // header line) is no batch.
    let leaves: Vec<u32> = cuts
        .filter(|cut| cut.marker.starts_with(BATCH_SIGIL))
        .map(|cut| crc32(cut.body.as_bytes()))
        .collect();
    Some(merkle_root(&leaves))
}

/// One piece of framed text: a marker line and the bytes between it and
/// the next marker line, exactly as they sit on disk.
struct Cut<'a> {
    /// The first line of the text, or a line opening with a `#~` sigil;
    /// line ending stripped the way `str::lines` strips it.
    marker: &'a str,
    body: &'a str,
    /// Everything after the marker line, `body` first.
    rest: &'a str,
}

fn is_marker(line: &str) -> bool {
    line.starts_with(BATCH_SIGIL) || line.starts_with(FOOTER_SIGIL)
}

/// The one walk of the PROVIO1 grammar, shared by [`decode`],
/// [`decode_wal`] and [`file_root`]: cut `text` at its marker lines. A
/// marker's own fields are never trusted for framing — a batch ends where
/// the next marker line begins — and bodies are contiguous slices, so a CRC
/// runs over the bytes as written and nothing is reassembled line by line.
fn cuts(text: &str) -> impl Iterator<Item = Cut<'_>> {
    let line_end = |from: usize| text[from..].find('\n').map_or(text.len(), |nl| from + nl + 1);
    let mut pos = 0;
    std::iter::from_fn(move || {
        if pos == text.len() {
            return None;
        }
        let body_at = line_end(pos);
        let line = &text[pos..body_at];
        let marker = line.strip_suffix('\n').map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
        pos = body_at;
        while pos < text.len() && !is_marker(&text[pos..]) {
            pos = line_end(pos);
        }
        Some(Cut {
            marker,
            body: &text[body_at..pos],
            rest: &text[body_at..],
        })
    })
}

/// The one writer of the PROVIO1 format. The store's hot write path feeds
/// it payload *lines* batch by batch while the serializer just produced
/// them, so the CRC and the copy run over cache-hot strings and the framed
/// bytes are assembled exactly once; [`encode`] is the same encoder driven
/// from an already rendered payload.
pub struct Encoder {
    out: Vec<u8>,
    chain: u32,
    batches: usize,
    leaves: Vec<u32>,
}

impl Encoder {
    pub fn new(kind: FrameKind, guid: u64, ordinal: u64, prev: u32) -> Encoder {
        let header = header_line(kind, guid, ordinal, prev);
        let chain = crc32(header.as_bytes());
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(header.as_bytes());
        out.push(b'\n');
        Encoder {
            out,
            chain,
            batches: 0,
            leaves: Vec::new(),
        }
    }

    /// Pre-size the output for the payload to come (sum of line lengths).
    pub fn reserve(&mut self, payload_bytes: usize) {
        self.out.reserve(payload_bytes + payload_bytes / 16 + 64);
    }

    /// Append one batch of payload lines (no trailing newlines; lines must
    /// not begin with the reserved `#~` sigil). An empty batch is a no-op.
    pub fn batch<S: AsRef<str>>(&mut self, lines: &[S]) {
        self.framed(lines.len(), |out| {
            for l in lines {
                debug_assert!(
                    !l.as_ref().starts_with("#~"),
                    "payload line collides with the reserved frame sigil"
                );
                out.extend_from_slice(l.as_ref().as_bytes());
                out.push(b'\n');
            }
        });
    }

    /// Append one batch whose payload is already a newline-terminated
    /// block of `lines` lines: byte-identical to [`Encoder::batch`] over
    /// the split lines, but copied in a single pass with no per-line walk
    /// — the write-ahead journal's track-path shape.
    pub fn batch_block(&mut self, block: &str, lines: usize) {
        debug_assert_eq!(block.lines().count(), lines);
        debug_assert!(lines == 0 || block.ends_with('\n'), "block lines are newline-terminated");
        debug_assert!(
            !block.lines().any(|l| l.starts_with("#~")),
            "payload line collides with the reserved frame sigil"
        );
        self.framed(lines, |out| out.extend_from_slice(block.as_bytes()));
    }

    /// One batch of `lines` lines: the marker is written with a placeholder
    /// CRC, `body` copies the payload behind it, and the CRC is then
    /// computed over the contiguous just-written bytes and patched into
    /// place: one checksum pass over cache-hot memory per batch — a body of
    /// 128 bytes or more takes the CRC shim's carry-less-multiply kernel
    /// where the CPU has one — instead of two small `Hasher` calls per line.
    fn framed(&mut self, lines: usize, body: impl FnOnce(&mut Vec<u8>)) {
        if lines == 0 {
            return;
        }
        let _ = write!(self.out, "{BATCH_SIGIL} lines={lines} crc=");
        let crc_at = self.out.len();
        self.out.extend_from_slice(b"00000000\n");
        let body_at = self.out.len();
        body(&mut self.out);
        let crc = crc32(&self.out[body_at..]);
        let mut hex = [0u8; 8];
        for (i, b) in hex.iter_mut().enumerate() {
            *b = b"0123456789abcdef"[((crc >> (28 - 4 * i)) & 0xF) as usize];
        }
        self.out[crc_at..crc_at + 8].copy_from_slice(&hex);
        self.leaves.push(crc);
        self.batches += 1;
    }

    /// Seal the file with its footer; returns the framed bytes and the
    /// chain value the store's next file must carry as `prev`.
    pub fn finish(self) -> (Vec<u8>, u32) {
        let (out, chain, _) = self.finish_with_root();
        (out, chain)
    }

    /// [`Self::finish`], additionally returning the frame's Merkle root
    /// (see [`encode_with_root`]) for the writer's commit-time root cache.
    pub fn finish_with_root(mut self) -> (Vec<u8>, u32, [u8; 32]) {
        let root = merkle_root(&self.leaves);
        let _ = writeln!(
            self.out,
            "{FOOTER_SIGIL} batches={} chain={:08x} root={}",
            self.batches,
            self.chain,
            sha2::hex(&root)
        );
        (self.out, self.chain, root)
    }
}

/// The one key whose value is free text: it runs to the end of the line,
/// spaces included, so a record that names a file lists the name last.
const PATH_KEY: &str = "path=";

/// The values of a record line's `key=value` tokens, one slot per key in
/// `keys` (the last occurrence wins). Tokens are separated by any run of
/// ASCII whitespace; [`PATH_KEY`] alone takes the rest of the line. A line
/// that does not open with `sigil`, or carries a token under no known key,
/// is condemned whole. Every line-oriented record the store writes — frame
/// markers, parity payload lines, manifest and ledger lines — is read
/// through here, so they share one token grammar.
pub(crate) fn fields<'a, const N: usize>(
    line: &'a str,
    sigil: &str,
    keys: [&str; N],
) -> Option<[Option<&'a str>; N]> {
    let mut values = [None; N];
    let mut rest = line.strip_prefix(sigil)?;
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_ascii_whitespace());
        if rest.is_empty() {
            return Some(values);
        }
        let slot = keys.iter().position(|key| rest.starts_with(key))?;
        let value = &rest[keys[slot].len()..];
        let end = if keys[slot] == PATH_KEY {
            value.len()
        } else {
            value.find(|c: char| c.is_ascii_whitespace()).unwrap_or(value.len())
        };
        values[slot] = Some(&value[..end]);
        rest = &value[end..];
    }
}

fn parse_header(line: &str) -> Option<(FrameKind, u64, u64, u32)> {
    let [kind, guid, ordinal, prev] = fields(line, MAGIC, ["kind=", "guid=", "ordinal=", "prev="])?;
    Some((
        FrameKind::parse(kind?)?,
        u64::from_str_radix(guid?, 16).ok()?,
        ordinal?.parse().ok()?,
        u32::from_str_radix(prev?, 16).ok()?,
    ))
}

fn parse_batch_marker(line: &str) -> Option<(usize, u32)> {
    let [lines, crc] = fields(line, BATCH_SIGIL, ["lines=", "crc="])?;
    Some((lines?.parse().ok()?, u32::from_str_radix(crc?, 16).ok()?))
}

pub(crate) fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, pair) in s.as_bytes().chunks(2).enumerate() {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

/// `root=` is optional — PR 4–5 footers predate it and must keep decoding
/// (such stores verify as `Unsigned`, never error) — but when present it
/// must parse, and unknown tokens still condemn the line.
fn parse_footer(line: &str) -> Option<(usize, u32, Option<[u8; 32]>)> {
    let [batches, chain, root] = fields(line, FOOTER_SIGIL, ["batches=", "chain=", "root="])?;
    let root = match root {
        Some(hex) => Some(parse_hex32(hex)?),
        None => None,
    };
    Some((batches?.parse().ok()?, u32::from_str_radix(chain?, 16).ok()?, root))
}

/// Decode a framed file, verifying header, batches, footer, and chain
/// value. Batch-level corruption is tolerated (the damaged batch is dropped
/// from `payload` and counted); anything that undermines the file's
/// *identity* — bad magic on a file bearing frame markers, a malformed or
/// missing footer, a chain value that does not match the header — is a
/// [`FrameError::Quarantine`].
pub fn decode(text: &str) -> Result<FramedFile, FrameError> {
    decode_frame(text, true).map(|(file, _)| file)
}

/// [`decode`] for bytes off disk: `None` when they are not UTF-8 text or
/// do not decode — whatever the reason, there is no frame to act on.
pub fn decode_bytes(bytes: &[u8]) -> Option<FramedFile> {
    decode(std::str::from_utf8(bytes).ok()?).ok()
}

/// Decode the frame `text` opens with, through its footer line, and return
/// what follows it. `alone`: anything but blank lines after the footer
/// condemns the frame (a journal's next chunk follows its predecessor).
fn decode_frame(text: &str, alone: bool) -> Result<(FramedFile, &str), FrameError> {
    let mut cuts = cuts(text);
    let Some(header) = cuts.next() else {
        return Err(FrameError::NotFramed); // empty file: legacy torn case
    };
    let Some((kind, guid, ordinal, prev)) = parse_header(header.marker) else {
        // No header: legacy text — unless anything else carries a sign of
        // the framed format, which keeps a file whose magic line was itself
        // corrupted from being misread as legacy.
        let framed = header.marker.starts_with("# PROVIO")
            || is_marker(header.marker)
            || cuts.next().is_some();
        return Err(if framed {
            FrameError::Quarantine("unverifiable header")
        } else {
            FrameError::NotFramed
        });
    };
    let chain = crc32(header.marker.as_bytes());

    // A lone frame's payload is its text minus the markers; a journal chunk
    // is a small part of the text that follows it.
    let mut payload = String::with_capacity(if alone { text.len() } else { 0 });
    let (mut seen, mut intact) = (0usize, 0usize);
    let mut leaves: Vec<u32> = Vec::new();
    // `lines=` is only used for verification, never for framing.
    let mut batch = |spec: Option<(usize, u32)>, body: &str| {
        let body_crc = crc32(body.as_bytes());
        leaves.push(body_crc);
        seen += 1;
        if spec.is_some_and(|(n, crc)| body_crc == crc && body.lines().count() == n) {
            payload.push_str(body);
            intact += 1;
        }
    };
    if !header.body.is_empty() {
        // Payload before any marker: a destroyed first marker.
        batch(None, header.body);
    }
    for cut in cuts {
        if cut.marker.starts_with(BATCH_SIGIL) {
            batch(parse_batch_marker(cut.marker), cut.body);
            continue;
        }
        let Some((declared, footer_chain, declared_root)) = parse_footer(cut.marker) else {
            return Err(FrameError::Quarantine("malformed footer"));
        };
        if alone && !cut.rest.trim().is_empty() {
            return Err(FrameError::Quarantine("data after footer"));
        }
        if footer_chain != chain {
            return Err(FrameError::Quarantine("chain mismatch"));
        }
        // A destroyed marker folds its batch into a neighbor, so fewer
        // batches are *seen* than declared; the honest corrupt count is
        // everything that did not verify out of the larger of the two.
        let batches_total = declared.max(seen);
        let file = FramedFile {
            kind,
            guid,
            ordinal,
            prev,
            chain,
            payload,
            batches_total,
            batches_corrupt: batches_total - intact,
            declared_root,
            computed_root: merkle_root(&leaves),
        };
        return Ok((file, cut.rest));
    }
    Err(FrameError::Quarantine("missing footer"))
}

/// A decoded WAL generation file: the verified prefix of its group-commit
/// chunks, and whether a damaged or torn tail was cut off.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalFile {
    /// Journal records from every chunk that verified, in append order:
    /// `(record ordinal, N-Triples line)`.
    pub records: Vec<(u64, String)>,
    /// Chunks that decoded and chained cleanly.
    pub chunks: usize,
    /// True when a torn, bit-rotted, mis-chained, or foreign-guid tail was
    /// truncated (everything from the first bad chunk on is dropped).
    pub truncated: bool,
}

/// Decode a WAL generation file: a concatenation of [`FrameKind::Wal`]
/// frames, each one group commit appended in place. Unlike [`decode`],
/// damage never quarantines the whole file — the journal's value is its
/// verified *prefix*. Chunks are accepted until the first one that fails to
/// decode, fails batch verification, claims a foreign `guid`, is not
/// [`FrameKind::Wal`], breaks the intra-file chain (`prev` must equal the
/// previous chunk's `chain`, [`CHAIN_START`] for the first), or regresses
/// the record ordinal; that chunk and everything after it are truncated and
/// reported, never parsed.
pub fn decode_wal(text: &str, guid: u64) -> WalFile {
    let mut out = WalFile::default();
    let mut chain = CHAIN_START;
    let mut next_record = 0u64;
    let mut rest = text;
    while !rest.trim().is_empty() {
        // One chunk runs through its footer line; a remainder with no
        // footer is a torn tail.
        let Ok((chunk, tail)) = decode_frame(rest, false) else {
            out.truncated = true;
            break;
        };
        let continuous = chunk.intact()
            && chunk.kind == FrameKind::Wal
            && chunk.guid == guid
            && chunk.prev == chain
            && chunk.ordinal >= next_record;
        if !continuous {
            out.truncated = true;
            break;
        }
        for (i, line) in chunk.payload.lines().enumerate() {
            out.records.push((chunk.ordinal + i as u64, line.to_string()));
        }
        next_record = chunk
            .ordinal
            .saturating_add(chunk.payload.lines().count() as u64);
        chain = chunk.chain;
        out.chunks += 1;
        rest = tail;
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    const PAYLOAD: &str = "<urn:a> <urn:p> <urn:b> .\n<urn:a> <urn:p> <urn:c> .\n<urn:b> <urn:p> <urn:c> .\n";

    #[test]
    fn round_trip_preserves_payload_and_identity() {
        let guid = store_guid("/provio/prov_p1.nt");
        let (text, chain) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, PAYLOAD, 2);
        let f = decode(&text).unwrap();
        assert_eq!(f.kind, FrameKind::Snapshot);
        assert_eq!(f.guid, guid);
        assert_eq!(f.ordinal, 0);
        assert_eq!(f.prev, CHAIN_START);
        assert_eq!(f.chain, chain);
        assert_eq!(f.payload, PAYLOAD);
        assert_eq!(f.batches_total, 2); // 3 lines in batches of 2
        assert!(f.intact());
    }

    #[test]
    fn empty_payload_frames_to_zero_batches() {
        let (text, _) = encode(FrameKind::Delta, 1, 4, 0xAB, "", 64);
        let f = decode(&text).unwrap();
        assert_eq!(f.batches_total, 0);
        assert_eq!(f.payload, "");
        assert!(f.intact());
    }

    #[test]
    fn legacy_text_is_not_framed() {
        assert_eq!(decode(PAYLOAD), Err(FrameError::NotFramed));
        assert_eq!(decode(""), Err(FrameError::NotFramed));
        // A legacy Turtle file opening with an ordinary comment.
        assert_eq!(
            decode("# plain comment\n<urn:a> <urn:p> <urn:b> .\n"),
            Err(FrameError::NotFramed)
        );
    }

    #[test]
    fn corrupt_batch_is_dropped_and_counted() {
        let (text, _) = encode(FrameKind::Snapshot, 7, 0, 0, PAYLOAD, 1);
        // Damage the middle payload line.
        let bad = text.replace("<urn:a> <urn:p> <urn:c> .", "<urn:X> <urn:p> <urn:c> .");
        let f = decode(&bad).unwrap();
        assert_eq!(f.batches_total, 3);
        assert_eq!(f.batches_corrupt, 1);
        assert!(f.payload.contains("<urn:b> <urn:p> <urn:c>"));
        assert!(!f.payload.contains("<urn:X>"));
    }

    #[test]
    fn destroyed_marker_folds_into_neighbor_without_silent_admission() {
        let (text, _) = encode(FrameKind::Snapshot, 7, 0, 0, PAYLOAD, 1);
        // Wreck the second batch marker so its line no longer parses as one.
        let marker = text
            .lines()
            .filter(|l| l.starts_with(BATCH_SIGIL))
            .nth(1)
            .unwrap()
            .to_string();
        let bad = text.replace(&marker, "~corrupted~");
        let f = decode(&bad).unwrap();
        // Batch 1 swallowed the wreckage + batch 2's line: it fails. Batch 3
        // still verifies. Declared=3, seen=2 → 2 corrupt.
        assert_eq!(f.batches_total, 3);
        assert_eq!(f.batches_corrupt, 2);
        assert_eq!(f.payload, "<urn:b> <urn:p> <urn:c> .\n");
    }

    #[test]
    fn header_or_footer_damage_quarantines() {
        let (text, _) = encode(FrameKind::Delta, 9, 2, 0x55, PAYLOAD, 64);
        // Flip one character inside the header's guid field.
        let bad_header = text.replacen("guid=", "guid=f", 1);
        assert!(matches!(
            decode(&bad_header),
            Err(FrameError::Quarantine(_))
        ));
        // Drop the footer line entirely (mid-file truncation).
        let no_footer: String = text
            .lines()
            .filter(|l| !l.starts_with(FOOTER_SIGIL))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(
            decode(&no_footer),
            Err(FrameError::Quarantine("missing footer"))
        );
        // Trailing garbage after the footer (block duplication).
        let trailing = format!("{text}<urn:dup> <urn:p> <urn:o> .\n");
        assert_eq!(
            decode(&trailing),
            Err(FrameError::Quarantine("data after footer"))
        );
    }

    #[test]
    fn flipped_magic_never_reads_as_legacy() {
        let (text, _) = encode(FrameKind::Snapshot, 3, 0, 0, PAYLOAD, 64);
        let bad = text.replacen("# PROVIO1", "# PROVIO!", 1);
        assert!(matches!(decode(&bad), Err(FrameError::Quarantine(_))));
    }

    #[test]
    fn chain_links_files_and_breaks_on_substitution() {
        let guid = store_guid("/provio/prov_p1.nt");
        let (_, c0) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, PAYLOAD, 64);
        let (seg1, c1) = encode(FrameKind::Delta, guid, 1, c0, "x\n", 64);
        let f1 = decode(&seg1).unwrap();
        assert_eq!(f1.prev, c0);
        assert_eq!(f1.chain, c1);
        // The same ordinal written by a different store chains differently.
        let (other, _) = encode(FrameKind::Delta, store_guid("/provio/prov_p2.nt"), 1, c0, "x\n", 64);
        let g = decode(&other).unwrap();
        assert_ne!(g.chain, c1, "chain commits to guid");
        assert_ne!(g.guid, guid);
    }

    #[test]
    fn guid_is_stable_across_commit_suffixes() {
        let base = store_guid("/provio/prov_p1.nt");
        for p in [
            "/provio/prov_p1.nt.tmp",
            "/provio/prov_p1.nt.d000003.nt",
            "/provio/prov_p1.nt.d000003.nt.tmp",
            "/provio/prov_p1.nt.quarantine",
            "/provio/prov_p1.nt.d000011.nt.quarantine",
            "/provio/prov_p1.nt.w000000.nt",
            "/provio/prov_p1.nt.w000002.nt.tmp",
            "/provio/prov_p1.nt.w000002.nt.quarantine",
            "/provio/prov_p1.nt.p000000.par",
            "/provio/prov_p1.nt.p000004.par.tmp",
            "/provio/prov_p1.nt.p000004.par.quarantine",
        ] {
            assert_eq!(store_guid(p), base, "{p}");
        }
        assert_ne!(store_guid("/provio/prov_p2.nt"), base);
        // A name that merely resembles a segment suffix is left alone.
        assert_ne!(store_guid("/provio/d000001.nt"), base);
        // Turtle stores journal too: `prov_p1.ttl.w000000.nt` → `prov_p1.ttl`.
        assert_eq!(
            store_guid("/provio/prov_p1.ttl.w000001.nt"),
            store_guid("/provio/prov_p1.ttl")
        );
    }

    #[test]
    fn wal_paths_are_recognized() {
        assert!(is_wal_path("/provio/prov_p1.nt.w000000.nt"));
        assert!(is_wal_path("/provio/prov_p1.ttl.w000123.nt"));
        assert!(is_wal_path("/provio/prov_p1.nt.w000000.nt.tmp"));
        assert!(!is_wal_path("/provio/prov_p1.nt"));
        assert!(!is_wal_path("/provio/prov_p1.nt.d000001.nt"));
        assert!(!is_wal_path("/provio/w000001.nt"));
    }

    #[test]
    fn parity_paths_are_recognized() {
        assert!(is_parity_path("/provio/prov_p1.nt.p000000.par"));
        assert!(is_parity_path("/provio/prov_p1.ttl.p000123.par"));
        assert!(is_parity_path("/provio/prov_p1.nt.p000000.par.tmp"));
        assert!(!is_parity_path("/provio/prov_p1.nt"));
        assert!(!is_parity_path("/provio/prov_p1.nt.d000001.nt"));
        assert!(!is_parity_path("/provio/prov_p1.nt.w000001.nt"));
        assert!(!is_parity_path("/provio/p000001.par"));
        let (text, _) = encode(
            FrameKind::Parity,
            store_guid("/provio/prov_p1.nt"),
            0,
            CHAIN_START,
            "member crc=00000000 offset=0 len=0 ord=- path=/x\n",
            64,
        );
        let f = decode(&text).unwrap();
        assert_eq!(f.kind, FrameKind::Parity);
        assert!(f.intact());
    }

    fn wal_chunk(guid: u64, ordinal: u64, prev: u32, lines: &[&str]) -> (Vec<u8>, u32) {
        let mut enc = Encoder::new(FrameKind::Wal, guid, ordinal, prev);
        enc.batch(lines);
        enc.finish()
    }

    #[test]
    fn wal_round_trip_across_chunks() {
        let guid = store_guid("/provio/prov_p1.nt");
        let (c0, ch0) = wal_chunk(guid, 0, CHAIN_START, &["<urn:s0> <urn:p> <urn:o> .", "<urn:s1> <urn:p> <urn:o> ."]);
        let (c1, _) = wal_chunk(guid, 2, ch0, &["<urn:s2> <urn:p> <urn:o> ."]);
        let mut text = c0.clone();
        text.extend_from_slice(&c1);
        let wal = decode_wal(std::str::from_utf8(&text).unwrap(), guid);
        assert!(!wal.truncated);
        assert_eq!(wal.chunks, 2);
        assert_eq!(
            wal.records,
            vec![
                (0, "<urn:s0> <urn:p> <urn:o> .".to_string()),
                (1, "<urn:s1> <urn:p> <urn:o> .".to_string()),
                (2, "<urn:s2> <urn:p> <urn:o> .".to_string()),
            ]
        );
        // An empty journal decodes to nothing, cleanly.
        let empty = decode_wal("", guid);
        assert_eq!(empty.chunks, 0);
        assert!(!empty.truncated);
    }

    #[test]
    fn wal_torn_and_bit_rotted_tails_are_truncated_never_parsed() {
        let guid = store_guid("/provio/prov_p1.nt");
        let (c0, ch0) = wal_chunk(guid, 0, CHAIN_START, &["<urn:s0> <urn:p> <urn:o> ."]);
        let (c1, _) = wal_chunk(guid, 1, ch0, &["<urn:s1> <urn:p> <urn:o> ."]);

        // Torn tail: the second append only partially persisted.
        let mut torn = c0.clone();
        torn.extend_from_slice(&c1[..c1.len() / 2]);
        let wal = decode_wal(&String::from_utf8_lossy(&torn), guid);
        assert!(wal.truncated);
        assert_eq!(wal.chunks, 1);
        assert_eq!(wal.records.len(), 1);

        // Bit-rotted tail: every single-bit flip in the last chunk either
        // leaves the verified prefix intact or truncates — no flip ever
        // admits an altered record.
        let mut full = c0.clone();
        full.extend_from_slice(&c1);
        for i in c0.len()..full.len() {
            for bit in 0..8 {
                let mut copy = full.clone();
                copy[i] ^= 1 << bit;
                let wal = decode_wal(&String::from_utf8_lossy(&copy), guid);
                for (_, line) in &wal.records {
                    assert!(
                        line == "<urn:s0> <urn:p> <urn:o> ." || line == "<urn:s1> <urn:p> <urn:o> .",
                        "flip {i}:{bit} admitted forged record {line:?}"
                    );
                }
                assert!(
                    wal.truncated || wal.records.len() == 2,
                    "flip {i}:{bit} silently dropped a record"
                );
            }
        }

        // A chunk from another store's journal truncates the replay there.
        let foreign = store_guid("/provio/prov_p2.nt");
        let (evil, _) = wal_chunk(foreign, 1, ch0, &["<urn:evil> <urn:p> <urn:o> ."]);
        let mut sub = c0.clone();
        sub.extend_from_slice(&evil);
        let wal = decode_wal(&String::from_utf8_lossy(&sub), guid);
        assert!(wal.truncated);
        assert_eq!(wal.records.len(), 1);

        // A chain break (replayed/reordered chunk) truncates too.
        let (stale, _) = wal_chunk(guid, 1, 0xdead_beef, &["<urn:s1> <urn:p> <urn:o> ."]);
        let mut reordered = c0.clone();
        reordered.extend_from_slice(&stale);
        let wal = decode_wal(&String::from_utf8_lossy(&reordered), guid);
        assert!(wal.truncated);
        assert_eq!(wal.chunks, 1);
    }

    #[test]
    fn streaming_encoder_is_byte_identical_to_encode() {
        let guid = store_guid("/provio/prov_p3.nt");
        for batch_lines in [1, 2, 64] {
            let (blob, blob_chain) =
                encode(FrameKind::Delta, guid, 5, 0x1234_5678, PAYLOAD, batch_lines);
            let lines: Vec<&str> = PAYLOAD.lines().collect();
            let mut enc = Encoder::new(FrameKind::Delta, guid, 5, 0x1234_5678);
            enc.reserve(PAYLOAD.len());
            for chunk in lines.chunks(batch_lines) {
                enc.batch(chunk);
            }
            let (streamed, chain) = enc.finish();
            assert_eq!(streamed, blob.as_bytes(), "batch_lines={batch_lines}");
            assert_eq!(chain, blob_chain);
            // A last line without its '\n' frames as if it had one.
            let torn = PAYLOAD.trim_end_matches('\n');
            assert_eq!(encode(FrameKind::Delta, guid, 5, 0x1234_5678, torn, batch_lines).0, blob);
        }
        // Zero batches (empty payload) also matches.
        let (empty, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, "", 64);
        let (streamed, _) = Encoder::new(FrameKind::Snapshot, guid, 0, CHAIN_START).finish();
        assert_eq!(streamed, empty.into_bytes());
    }

    #[test]
    fn batch_block_is_byte_identical_to_batch() {
        let guid = store_guid("/provio/prov_p3.nt");
        let lines: Vec<&str> = PAYLOAD.lines().collect();
        let mut by_lines = Encoder::new(FrameKind::Wal, guid, 7, CHAIN_START);
        by_lines.batch(&lines);
        let (split, split_chain) = by_lines.finish();
        let mut by_block = Encoder::new(FrameKind::Wal, guid, 7, CHAIN_START);
        let block = format!("{}\n", PAYLOAD.trim_end_matches('\n'));
        by_block.batch_block(&block, lines.len());
        let (blocked, block_chain) = by_block.finish();
        assert_eq!(blocked, split);
        assert_eq!(block_chain, split_chain);
    }

    #[test]
    fn footer_root_round_trips_and_matches_every_recomputation() {
        let guid = store_guid("/provio/prov_p1.nt");
        for batch_lines in [1, 2, 64] {
            let (text, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, PAYLOAD, batch_lines);
            let f = decode(&text).unwrap();
            let declared = f.declared_root.expect("encode writes a root");
            assert_eq!(declared, f.computed_root, "intact file roots agree");
            assert_eq!(file_root(&text), Some(declared), "one-pass scan agrees");
            // The root is exactly the Merkle fold of the marker CRCs.
            let crcs: Vec<u32> = text
                .lines()
                .filter_map(parse_batch_marker)
                .map(|(_, crc)| crc)
                .collect();
            assert_eq!(crcs.len(), f.batches_total);
            assert_eq!(merkle_root(&crcs), declared);
        }
        // Roots commit to content, order, and batching.
        let (a, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, PAYLOAD, 1);
        let (b, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, PAYLOAD, 2);
        assert_ne!(file_root(&a), file_root(&b));
        let swapped = "<urn:a> <urn:p> <urn:c> .\n<urn:a> <urn:p> <urn:b> .\n<urn:b> <urn:p> <urn:c> .\n";
        let (c, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, swapped, 1);
        assert_ne!(file_root(&a), file_root(&c));
    }

    #[test]
    fn legacy_rootless_footers_still_decode() {
        // A PR 4–5 era file: same format minus the footer root.
        let guid = store_guid("/provio/prov_p1.nt");
        let (text, chain) = encode(FrameKind::Delta, guid, 3, 0xAB, PAYLOAD, 2);
        let rootless: String = text
            .lines()
            .map(|l| {
                if let Some(at) = l.find(" root=") {
                    &l[..at]
                } else {
                    l
                }
            })
            .flat_map(|l| [l, "\n"])
            .collect();
        let f = decode(&rootless).unwrap();
        assert!(f.intact());
        assert_eq!(f.chain, chain);
        assert_eq!(f.declared_root, None, "no root claimed");
        assert_eq!(f.payload, PAYLOAD);
    }

    #[test]
    fn root_mismatch_is_reported_not_enforced() {
        // An adversary rewrites a batch and patches its CRC: every batch
        // verifies, identity verifies — decode must accept (this tier only
        // proves internal consistency) while exposing the root mismatch
        // for the manifest tier to judge.
        let guid = store_guid("/provio/prov_p1.nt");
        let (text, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, PAYLOAD, 1);
        let victim = "<urn:a> <urn:p> <urn:c> .";
        let forged = "<urn:a> <urn:p> <urn:F> .";
        let mut crc = crc32fast::Hasher::new();
        crc.update(forged.as_bytes());
        crc.update(b"\n");
        let mut old = crc32fast::Hasher::new();
        old.update(victim.as_bytes());
        old.update(b"\n");
        let tampered = text
            .replace(victim, forged)
            .replace(
                &format!("crc={:08x}", old.finalize()),
                &format!("crc={:08x}", crc.finalize()),
            );
        let f = decode(&tampered).unwrap();
        assert!(f.intact(), "patched CRC verifies — that is the attack");
        assert!(f.payload.contains("<urn:F>"));
        assert_ne!(
            Some(f.computed_root),
            f.declared_root,
            "the footer root still convicts (until the adversary patches it too — then only the manifest can)"
        );
        // Footer-root damage that stays hex is likewise reported, not
        // enforced; non-hex damage condemns the footer line itself.
        let root_at = text.find(" root=").unwrap() + " root=".len();
        let mut hexflip = text.clone().into_bytes();
        hexflip[root_at] = if hexflip[root_at] == b'0' { b'1' } else { b'0' };
        let g = decode(std::str::from_utf8(&hexflip).unwrap()).unwrap();
        assert!(g.intact());
        assert_ne!(Some(g.computed_root), g.declared_root);
        let mut nonhex = text.into_bytes();
        nonhex[root_at] = b'z';
        assert_eq!(
            decode(std::str::from_utf8(&nonhex).unwrap()),
            Err(FrameError::Quarantine("malformed footer"))
        );
    }

    #[test]
    fn wal_generation_files_carry_a_recomputable_root() {
        let guid = store_guid("/provio/prov_p1.nt");
        let (c0, ch0) = wal_chunk(guid, 0, CHAIN_START, &["<urn:s0> <urn:p> <urn:o> ."]);
        let (c1, _) = wal_chunk(guid, 1, ch0, &["<urn:s1> <urn:p> <urn:o> ."]);
        let mut text = c0.clone();
        text.extend_from_slice(&c1);
        let whole = String::from_utf8(text).unwrap();
        let root = file_root(&whole).expect("wal generations are framed");
        // The root covers both chunks: reordering or dropping one changes it.
        let first_only = String::from_utf8(c0).unwrap();
        assert_ne!(file_root(&first_only), Some(root));
        // Legacy text has no root.
        assert_eq!(file_root(PAYLOAD), None);
        assert_eq!(file_root(""), None);
    }

    #[test]
    fn single_bit_flips_anywhere_are_never_silent() {
        let guid = store_guid("/provio/prov_p9.nt");
        // Two-line batches, whose bodies the checksum's table loop takes,
        // and one batch wide enough for its carry-less-multiply kernel
        // (inputs of 128 bytes and more): the property holds on both paths.
        let wide: String = (0..12).flat_map(|i| [record(i), "\n".into()]).collect();
        assert!(wide.len() >= 256);
        for (payload, max_lines) in [(PAYLOAD, 2), (wide.as_str(), usize::MAX)] {
            let (text, _) = encode(FrameKind::Snapshot, guid, 0, CHAIN_START, payload, max_lines);
            let clean = decode(&text).unwrap();
            let bytes = text.as_bytes();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut copy = bytes.to_vec();
                    copy[i] ^= 1 << bit;
                    // Flips may produce invalid UTF-8; lossy conversion models
                    // what a text parser would see.
                    let s = String::from_utf8_lossy(&copy).into_owned();
                    match decode(&s) {
                        Err(FrameError::Quarantine(_)) => {}
                        Err(FrameError::NotFramed) => {
                            panic!("flip {i}:{bit} demoted a framed file to legacy")
                        }
                        Ok(f) => {
                            assert!(
                                f.batches_corrupt > 0
                                    || (f.payload == clean.payload
                                        && f.guid == guid
                                        && f.ordinal == 0
                                        && f.chain == clean.chain),
                                "flip {i}:{bit} verified with altered content"
                            );
                            // Any payload that does verify is a subset of the
                            // clean batches, never altered data.
                            for line in f.payload.lines() {
                                assert!(
                                    clean.payload.lines().any(|c| c == line),
                                    "flip {i}:{bit} admitted forged line {line:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // The same wide batch as a journal chunk: a flip either leaves every
        // record as written or costs the chunk, and says so.
        let (chunk, _) = journal(guid, &[12]);
        let clean = decode_wal(std::str::from_utf8(&chunk).unwrap(), guid);
        assert_eq!((clean.records.len(), clean.truncated), (12, false));
        for i in 0..chunk.len() {
            for bit in 0..8 {
                let mut copy = chunk.clone();
                copy[i] ^= 1 << bit;
                let w = decode_wal(&String::from_utf8_lossy(&copy), guid);
                assert!(
                    w.records == clean.records || (w.records.is_empty() && w.truncated),
                    "flip {i}:{bit} replayed {:?}",
                    w.records
                );
            }
        }
    }

    /// One seeded mutation of an artifact's bytes, of the kinds at-rest
    /// damage takes: a flipped bit, a region spliced in from elsewhere, a
    /// truncation, a duplicated line. Shared by the never-panic proptests
    /// of every tier that decodes.
    pub(crate) fn mutate(data: &mut Vec<u8>, kind: u8, a: usize, b: usize) {
        if data.is_empty() {
            return;
        }
        let at = a % data.len();
        match kind % 4 {
            0 => data[at] ^= 1 << (b % 8),
            1 => {
                let from = b % data.len();
                let region = data[from..(from + 1 + (a ^ b) % 24).min(data.len())].to_vec();
                data.splice(at..at, region);
            }
            2 => data.truncate(at),
            _ => {
                let start = data[..at].iter().rposition(|&c| c == b'\n').map_or(0, |nl| nl + 1);
                let end = data[at..].iter().position(|&c| c == b'\n').map_or(data.len(), |nl| at + nl + 1);
                let line = data[start..end].to_vec();
                data.splice(end..end, line);
            }
        }
    }

    /// The mutations a proptest case applies, in order.
    pub(crate) fn mutations() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        prop::collection::vec((0u8..4, any::<usize>(), any::<usize>()), 0..4)
    }

    fn record(i: usize) -> String {
        format!("<urn:s{i}> <urn:p> <urn:o{}> .", i % 3)
    }

    /// A journal generation of `sizes.len()` chunks, and the chunks apart.
    fn journal(guid: u64, sizes: &[usize]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let (mut next, mut chain) = (0usize, CHAIN_START);
        let mut chunks = Vec::new();
        for &n in sizes {
            let lines: Vec<String> = (next..next + n).map(record).collect();
            let (chunk, c) = wal_chunk(guid, next as u64, chain, &lines.iter().map(String::as_str).collect::<Vec<_>>());
            (next, chain) = (next + n, c);
            chunks.push(chunk);
        }
        (chunks.concat(), chunks)
    }

    proptest! {
        /// ROADMAP 4(e): no decoder panics on arbitrary bytes or on a valid
        /// frame or journal that was flipped, spliced, truncated or had a
        /// line duplicated — and what the one walk finds, every reader of it
        /// agrees on: an intact `decode` has the root `file_root` computes,
        /// and a journal record is always a whole line of the text.
        #[test]
        fn decoders_never_panic_and_agree(
            bytes in prop::collection::vec(any::<u8>(), 0..160),
            lines in 0usize..12,
            batch in 1usize..5,
            sizes in prop::collection::vec(1usize..4, 1..4),
            ops in mutations(),
        ) {
            let guid = store_guid("/provio/prov_p1.nt");
            let payload: String = (0..lines).flat_map(|i| [record(i), "\n".into()]).collect();
            let (framed, _) = encode(FrameKind::Snapshot, guid, 3, 0xAB, &payload, batch);
            for mut data in [bytes, framed.into_bytes(), journal(guid, &sizes).0] {
                for &(kind, a, b) in &ops {
                    mutate(&mut data, kind, a, b);
                }
                let text = String::from_utf8_lossy(&data);
                let _ = decode_bytes(&data);
                if let Ok(f) = decode(&text) {
                    prop_assert!(!f.intact() || file_root(&text) == Some(f.computed_root), "{text:?}");
                }
                for (_, line) in decode_wal(&text, guid).records {
                    prop_assert!(text.lines().any(|l| l == line), "{line:?} forged from {text:?}");
                }
            }
        }

        /// ROADMAP 4(e) for the record lines: each of the eleven parsers
        /// over [`fields`] reads its own record however widely the tokens
        /// are spaced, and none panics on arbitrary bytes or on a record
        /// whose tokens were dropped, doubled, swapped or cut short and
        /// whose bytes were then flipped, spliced or truncated.
        #[test]
        fn record_line_parsers_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..120),
            gaps in prop::collection::vec(1usize..4, 6..7),
            token_ops in prop::collection::vec((0u8..4, any::<usize>()), 0..4),
            ops in mutations(),
        ) {
            use crate::artifact;
            let hex = "5a".repeat(32);
            let [root, hmac, manifest] = ["root", "hmac", "manifest"].map(|key| format!("{key}={hex}"));
            let path = "path=/p/a b.nt";
            // (sigil, tokens — a free-text path last, did it parse)
            type Record<'a> = (&'a str, Vec<&'a str>, fn(&str) -> bool);
            let records: [Record; 11] = [
                (MAGIC, vec!["kind=delta", "guid=00000000000000a1", "ordinal=3", "prev=000000ab"], |l| parse_header(l).is_some()),
                (BATCH_SIGIL, vec!["lines=2", "crc=0badf00d"], |l| parse_batch_marker(l).is_some()),
                (FOOTER_SIGIL, vec!["batches=2", "chain=0000beef", &root], |l| parse_footer(l).is_some()),
                ("member", vec![&root, "offset=0", "len=9", "ord=4", path], |l| artifact::parse_member_line(l).is_some()),
                ("data", vec!["len=4", "enc=raw", "term=1"], |l| artifact::parse_raw_header(l).is_some()),
                ("data", vec!["len=4", "b64=cHJvdg=="], |l| artifact::parse_data_line(l).is_some()),
                (artifact::MANIFEST_MAGIC, vec!["run=00000000000000a1", "files=1", "ranks=1"], |l| artifact::parse_manifest_header(l).is_some()),
                ("file", vec![&root, "mode=merkle", "bytes=9", path], |l| artifact::parse_file_line(l).is_some()),
                ("rank", vec!["pid=7", "outcome=degraded", "triples=12"], |l| artifact::parse_rank_line(l).is_some()),
                ("sig", vec!["alg=hmac-sha256", "keyid=0a1b2c3d", &hmac], |l| artifact::parse_sig_line(l).is_some()),
                ("", vec!["run=00000000000000a1", &manifest, "prev=-"], |l| artifact::parse_ledger_line(l).is_some()),
            ];
            let render = |sigil: &str, tokens: &[&str]| {
                let mut line = sigil.to_string();
                for (tok, gap) in tokens.iter().zip(&gaps) {
                    line.push_str(&" ".repeat(*gap));
                    line.push_str(tok);
                }
                line
            };
            let every = |text: &str| records.iter().for_each(|(.., parse)| { parse(text); });
            every(&String::from_utf8_lossy(&bytes));
            for (sigil, tokens, parse) in &records {
                prop_assert!(parse(&render(sigil, tokens)), "{:?}", render(sigil, tokens));
                let mut tokens = tokens.clone();
                for &(kind, at) in &token_ops {
                    let at = at % tokens.len().max(1);
                    match kind {
                        _ if tokens.is_empty() => {}
                        0 => { tokens.remove(at); }
                        1 => tokens.insert(at, tokens[at]),
                        2 => tokens.swap(at, 0),
                        _ => tokens[at] = &tokens[at][..tokens[at].len() / 2],
                    }
                }
                let mut data = render(sigil, &tokens).into_bytes();
                every(&String::from_utf8_lossy(&data));
                for &(kind, a, b) in &ops {
                    mutate(&mut data, kind, a, b);
                }
                every(&String::from_utf8_lossy(&data));
            }
        }

        /// ROADMAP 6(b), the text decoders above the store: the ini
        /// reader, both RDF parsers and the SPARQL parser take arbitrary
        /// bytes, and a valid document flipped, spliced, truncated or with a
        /// line doubled, without panicking.
        #[test]
        fn text_decoders_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..160),
            ops in mutations(),
        ) {
            use provio_rdf::{ntriples, turtle, Graph};
            const INI: &str = "[provio]\nstore_dir = /provio\nformat = ntriples\npolicy = every:100\nasync = false\n\
                preset = h5bench_2\ntrack = file, dataset\nuntrack = duration\nretry_max_attempts = 4\n\
                retry_backoff_ns = 1000\nretry_jitter = true\noverload_policy = shed\nqueue_capacity = 8\n\
                checksum_format = true\nwal = true\nwal_group = 8\nnet = true\nnet_timeout_ns = 5000\n\
                parity = true\nparity_group = 3\nmanifest = true\nmanifest_key = k\nworkflow_type = dl\n";
            const NT: &str = "<urn:a> <urn:p> \"q\\\"\\n\\u00e9\"^^<http://www.w3.org/2001/XMLSchema#string> .\n\
                _:b0 <urn:p> \"hi\"@en-GB .\n# note\n<urn:a> <urn:q> _:b0 .\n";
            const TTL: &str = "@prefix ex: <urn:ex#> .\n# note\nex:a a ex:T ;\n    ex:p \"x\\t\\u00e9\"@en , 4 , -2.5e3 , true ;\n\
                ex:q <urn:rel> , _:n .\n_:n ex:p \"7\"^^ex:int .\n";
            const RQ: &str = "PREFIX ex: <urn:ex#>\nSELECT DISTINCT ?a (COUNT(DISTINCT ?b) AS ?n) WHERE {\n\
                ?a a ex:T ; (ex:p)+ ?b , \"x\" .\n  ?a ^ex:r/<urn:s>* ?c .\n\
                FILTER(?c >= 3 && (!(?c = 7.5) || REGEX(?b, \"^u\")) && STRSTARTS(?b, \"u\") && BOUND(?a))\n\
                } GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT 5 OFFSET 1\n";
            let every = |text: &str| {
                let _ = crate::config::ProvIoConfig::from_ini(text);
                let _ = ntriples::parse(text);
                ntriples::parse_lenient_prefix(text, &mut Graph::new());
                let _ = turtle::parse(text);
                let _ = provio_sparql::Query::parse(text);
            };
            prop_assert!(crate::config::ProvIoConfig::from_ini(INI).is_ok());
            prop_assert!(ntriples::parse(NT).is_ok(), "{:?}", ntriples::parse(NT).err());
            prop_assert!(turtle::parse(TTL).is_ok(), "{:?}", turtle::parse(TTL).err());
            prop_assert!(provio_sparql::Query::parse(RQ).is_ok(), "{:?}", provio_sparql::Query::parse(RQ).err());
            every(&String::from_utf8_lossy(&bytes));
            for doc in [INI, NT, TTL, RQ] {
                let mut data = doc.as_bytes().to_vec();
                for &(kind, a, b) in &ops {
                    mutate(&mut data, kind, a, b);
                    every(&String::from_utf8_lossy(&data));
                }
            }
        }

        /// `decode_wal` over a concatenation of valid chunks is `decode`
        /// chunk by chunk.
        #[test]
        fn decode_wal_is_chunk_by_chunk_decode(sizes in prop::collection::vec(1usize..5, 0..6)) {
            let guid = store_guid("/provio/prov_p1.nt");
            let (whole, chunks) = journal(guid, &sizes);
            let wal = decode_wal(std::str::from_utf8(&whole).unwrap(), guid);
            prop_assert!(!wal.truncated);
            prop_assert_eq!(wal.chunks, chunks.len());
            let mut records = Vec::new();
            for chunk in &chunks {
                let f = decode_bytes(chunk).expect("a valid chunk");
                prop_assert!(f.intact() && f.kind == FrameKind::Wal);
                records.extend(f.payload.lines().enumerate().map(|(i, l)| (f.ordinal + i as u64, l.to_string())));
            }
            prop_assert_eq!(wal.records, records);
        }
    }
}
