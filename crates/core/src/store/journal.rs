//! The write-ahead journal plane. Flushes bound what a *flush* can lose;
//! the journal bounds what a *crash between flushes* loses. Each pushed
//! chunk of records — the graph's newly inserted triples, whose insertion
//! indices are their record ordinals — is spelled once as N-Triples lines
//! and group-committed, `wal_group` records at a time, to a generation file
//! `<path>.wNNNNNN.nt`, one `FrameKind::Wal` frame per chunk, its `ordinal`
//! the chunk's first record and its `prev` chaining it to the previous
//! chunk. Flush boundaries force the partial group out, so the journal
//! covers everything a flush commits, and the flush takes its lines from
//! here rather than spelling the triples again; a committed chunk keeps
//! them as a window on its frame. A successful flush recycles the
//! generation. A stale generation a crash left behind is deduplicated by
//! ordinal at merge; a torn tail is cut at the first bad CRC and the
//! verified prefix replayed. A crashed rank loses at most one group.

use super::parity::ParityGroup;
use crate::artifact::{MemberCheck, ParityMember};
use crate::frame::{self, FrameKind};
use crate::names::{self, Role, State};
use bytes::Bytes;
use provio_hpcfs::{FileSystem, FsError, Ino};
use provio_rdf::ntriples::Lines;
use provio_simrt::SimTime;

/// One push's worth of journal records: `n` contiguous record ordinals
/// starting at `start`, rendered as one newline-terminated N-Triples block
/// with its line ends. A chunk is committed whole (it becomes one frame)
/// or not at all; once committed, its block is a window on the frame.
#[derive(Clone)]
pub(super) struct WalChunk {
    pub(super) start: u64,
    pub(super) n: u64,
    pub(super) lines: Lines<Bytes>,
}

/// Journal state of one store (see `ProvenanceStore::with_wal`).
#[derive(Default)]
pub(super) struct Journal {
    /// Group-commit threshold (≥ 1): the buffer is appended once it holds
    /// this many records, so exposure after a push stays under one group.
    group: u64,
    /// Records accepted since the lines were last taken, one chunk per
    /// push, oldest first; the first `appended` are in the generation file.
    chunks: Vec<WalChunk>,
    appended: usize,
    /// Sequence of the current generation file.
    gen: u64,
    /// Open generation file, once the first append created it.
    ino: Option<Ino>,
    /// Append offset into the open generation file.
    len: u64,
    /// Chain value of the last chunk appended to the open generation.
    chain: u32,
    /// Records durably journaled (across all generations).
    pub(super) records: u64,
    /// Successful group commits.
    pub(super) commits: u64,
    /// Generations recycled after a successful flush.
    pub(super) recycles: u64,
    /// Append attempts that failed (records stay buffered and retry at the
    /// next group boundary, over the same offset).
    pub(super) failed_appends: u64,
}

impl Journal {
    pub(super) fn new(group: u32) -> Self {
        Journal {
            group: u64::from(group.max(1)),
            chain: frame::CHAIN_START,
            ..Journal::default()
        }
    }

    /// Accept the records `start..start + n`, rendered as `lines`.
    pub(super) fn buffer(&mut self, start: u64, n: u64, lines: Lines) {
        let lines = lines.map_block(|block| Bytes::from(block.into_bytes()));
        self.chunks.push(WalChunk { start, n, lines });
    }

    /// Records accepted but not yet group-committed.
    pub(super) fn buffered(&self) -> u64 {
        self.chunks[self.appended..].iter().map(|c| c.n).sum()
    }

    /// The lines of every record accepted since the generation recycled or
    /// the lines were last taken, oldest first: the committed chunks leave
    /// the journal, the buffered ones are shared with the append to come.
    pub(super) fn take_lines(&mut self) -> Vec<WalChunk> {
        let mut taken: Vec<WalChunk> = self.chunks.drain(..self.appended).collect();
        taken.extend(self.chunks.iter().cloned());
        self.appended = 0;
        taken
    }

    /// Open the current generation file (tmp+rename, the same discipline
    /// as segments, so the generation enters the namespace atomically and
    /// an interrupted open never masquerades as a journal).
    fn open_gen(&mut self, fs: &FileSystem, path: &str) -> Result<Ino, FsError> {
        if let Some(ino) = self.ino {
            return Ok(ino);
        }
        let now = SimTime::ZERO;
        let gen = names::print(path, Role::Journal(self.gen), State::Live);
        let tmp = names::tmp_of(&gen);
        let ino = fs.create_file(&tmp, false, "provio", now)?;
        fs.truncate_ino(ino, 0, now)?;
        fs.rename(&tmp, &gen, now)?;
        self.ino = Some(ino);
        self.len = 0;
        self.chain = frame::CHAIN_START;
        Ok(ino)
    }

    /// Group-commit buffered records: once the buffer holds at least
    /// `group` records — or at any size when `force`, a flush boundary —
    /// every buffered chunk is framed (one frame per chunk, its ordinal
    /// the chunk's first record) and all of them land in one contiguous
    /// positional write, so a 1000-record push costs a single append with
    /// no per-record work. The exposure window after any push is therefore
    /// under `group` records. Each committed chunk becomes a member of
    /// `cover`, the journal-plane parity group, at its final offset in the
    /// generation file. A failed append advances nothing: the chunks stay
    /// buffered and the whole append retries at the same offset, so a torn
    /// partial append is simply overwritten.
    pub(super) fn append(
        &mut self,
        fs: &FileSystem,
        path: &str,
        guid: u64,
        force: bool,
        mut cover: Option<&mut ParityGroup>,
    ) -> Result<(), FsError> {
        let buffered = self.buffered();
        if buffered == 0 || (!force && buffered < self.group) {
            return Ok(());
        }
        let ino = self.open_gen(fs, path)?;
        let pending = &mut self.chunks[self.appended..];
        let mut bytes = Vec::with_capacity(pending.iter().map(|c| c.lines.block().len() + 128).sum());
        let mut chain = self.chain;
        // Each chunk's frame, and where its block sits in it.
        let mut spans = Vec::with_capacity(pending.len());
        for chunk in pending.iter() {
            let mut enc = frame::Encoder::new(FrameKind::Wal, guid, chunk.start, chain);
            let body = bytes.len() + enc.batch_block(chunk.lines.block(), chunk.n as usize);
            let (frame_bytes, frame_chain) = enc.finish();
            spans.push((bytes.len()..bytes.len() + frame_bytes.len(), body));
            bytes.extend_from_slice(&frame_bytes);
            chain = frame_chain;
        }
        let bytes = Bytes::from(bytes); // the generation file adopts it
        fs.write_at(ino, self.len, bytes.clone(), SimTime::ZERO)?;
        let gen = names::print(path, Role::Journal(self.gen), State::Live);
        for (chunk, (span, body)) in pending.iter_mut().zip(spans) {
            // The committed frame holds the block: the lines move there.
            let window = bytes.slice(body..body + chunk.lines.block().len());
            chunk.lines = std::mem::take(&mut chunk.lines).map_block(|_| window);
            if let Some(group) = cover.as_mut() {
                let member = ParityMember {
                    path: gen.clone(),
                    offset: self.len + span.start as u64,
                    len: span.len() as u64,
                    check: MemberCheck::Crc(crc32fast::hash(&bytes[span.clone()])),
                    ord: None,
                };
                group.fold(member, bytes.slice(span));
            }
        }
        self.len += bytes.len() as u64;
        self.chain = chain;
        self.appended = self.chunks.len();
        self.records += buffered;
        self.commits += 1;
        Ok(())
    }

    /// Recycle after a successful flush: everything journaled or buffered
    /// is covered by the commit (flush boundaries force the buffer out
    /// first, and the flush captured at least that far), so the generation
    /// is retired and the next append opens a fresh one. The unlink is
    /// best-effort — a stale generation surviving a crash here is exactly
    /// what merge-time ordinal dedupe absorbs.
    pub(super) fn recycle(&mut self, fs: &FileSystem, path: &str) {
        self.chunks.clear();
        self.appended = 0;
        if self.ino.take().is_some() {
            let _ = fs.unlink(&names::print(path, Role::Journal(self.gen), State::Live));
            self.recycles += 1;
        }
        self.gen += 1;
        self.len = 0;
        self.chain = frame::CHAIN_START;
    }
}
