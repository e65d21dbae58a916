//! The write-ahead journal plane (see the store's module docs).

use super::parity::ParityGroup;
use crate::artifact::{MemberCheck, ParityMember};
use crate::frame::{self, FrameKind};
use crate::names::{self, Role, State};
use provio_hpcfs::{FileSystem, FsError, Ino};
use provio_simrt::SimTime;
use std::borrow::Cow;

/// One push's worth of journal records awaiting commit: `n` contiguous
/// record ordinals starting at `start`, rendered as one newline-terminated
/// N-Triples block. A chunk is committed whole (it becomes one frame) or
/// not at all.
struct WalChunk {
    start: u64,
    n: u64,
    block: String,
}

/// Journal state of one store (see `ProvenanceStore::with_wal`).
#[derive(Default)]
pub(super) struct Journal {
    /// Group-commit threshold (≥ 1): the buffer is appended once it holds
    /// this many records, so exposure after a push stays under one group.
    group: u64,
    /// Records accepted but not yet committed, one chunk per push.
    buf: Vec<WalChunk>,
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

    /// Accept the records `start..start + n`, rendered as `block`.
    pub(super) fn buffer(&mut self, start: u64, n: u64, block: String) {
        self.buf.push(WalChunk { start, n, block });
    }

    /// Records accepted but not yet group-committed.
    pub(super) fn buffered(&self) -> u64 {
        self.buf.iter().map(|c| c.n).sum()
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
        cover: Option<&mut ParityGroup>,
    ) -> Result<(), FsError> {
        let buffered = self.buffered();
        if buffered == 0 || (!force && buffered < self.group) {
            return Ok(());
        }
        let ino = self.open_gen(fs, path)?;
        let mut bytes = Vec::with_capacity(self.buf.iter().map(|c| c.block.len() + 128).sum());
        let mut chain = self.chain;
        let mut spans = Vec::with_capacity(self.buf.len());
        for chunk in &self.buf {
            let mut enc = frame::Encoder::new(FrameKind::Wal, guid, chunk.start, chain);
            enc.batch_block(&chunk.block, chunk.n as usize);
            let (frame_bytes, frame_chain) = enc.finish();
            spans.push(bytes.len()..bytes.len() + frame_bytes.len());
            bytes.extend_from_slice(&frame_bytes);
            chain = frame_chain;
        }
        fs.write_at(ino, self.len, &bytes, SimTime::ZERO)?;
        if let Some(group) = cover {
            let gen = names::print(path, Role::Journal(self.gen), State::Live);
            for span in spans {
                let member = ParityMember {
                    path: gen.clone(),
                    offset: self.len + span.start as u64,
                    len: span.len() as u64,
                    check: MemberCheck::Crc(crc32fast::hash(&bytes[span.clone()])),
                    ord: None,
                };
                group.fold(member, Cow::Borrowed(&bytes[span]));
            }
        }
        self.len += bytes.len() as u64;
        self.chain = chain;
        self.buf.clear();
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
        self.buf.clear();
        if self.ino.take().is_some() {
            let _ = fs.unlink(&names::print(path, Role::Journal(self.gen), State::Live));
            self.recycles += 1;
        }
        self.gen += 1;
        self.len = 0;
        self.chain = frame::CHAIN_START;
    }
}
