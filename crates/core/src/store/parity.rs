//! The parity plane: XOR groups over committed artifacts, sealed as
//! `<store>.pNNNNNN.par` files from which [`crate::scrub`] reconstructs any
//! single lost or rotted member byte-identical.

use crate::artifact::{self, ParityMember, RootCache};
use crate::fsio::commit_atomic;
use crate::names::{self, Role, State};
use provio_hpcfs::{FileSystem, FsError};
use std::borrow::Cow;

/// The store's two parity planes, one [`ParityGroup`] each.
#[derive(Clone, Copy)]
pub(super) enum Plane {
    /// Whole-file commits: the snapshot and its delta segments. Compaction
    /// supersedes every member at once, so the plane retires wholesale.
    Commits,
    /// Chunk spans of the current journal generation. A chunk is immutable
    /// once appended, so (path, offset, len, crc) members stay valid until
    /// the generation recycles — and a crashed rank never recycles, which
    /// is exactly when they matter.
    Journal,
}

/// One plane's open group — the running XOR and the member records it
/// covers — and the plane's sealed files that are still live.
#[derive(Default)]
pub(super) struct ParityGroup {
    /// Members per group (≥ 1). 1 = a parity twin per commit
    /// (replication); larger groups trade coverage density for write
    /// volume (~1/N of committed bytes).
    width: usize,
    acc: Vec<u8>,
    members: Vec<ParityMember>,
    files: Vec<String>,
}

impl ParityGroup {
    /// Fold one member into the open group. Owned bytes are adopted by move
    /// when they open it — the first member *is* the accumulator (XOR
    /// against an empty accumulator is identity), so a snapshot-sized
    /// commit is not copied.
    pub(super) fn fold(&mut self, member: ParityMember, bytes: Cow<'_, [u8]>) {
        if self.acc.is_empty() {
            self.acc = bytes.into_owned();
        } else {
            artifact::xor_into(&mut self.acc, &bytes);
        }
        self.members.push(member);
    }

    /// The open group holds `width` members and wants sealing.
    pub(super) fn is_full(&self) -> bool {
        self.members.len() >= self.width
    }

    /// Everything the plane covered is superseded: drop the sealed files
    /// and the open group. Callers run this *before* unlinking the
    /// superseded artifacts, so a crash in between never leaves parity
    /// describing members that are already gone — scrub would read the
    /// orphaned group as unrecoverable loss or, for a single-member group,
    /// "repair" a retired artifact back into existence (found by
    /// crashcheck, tests/crashcheck.rs).
    pub(super) fn retire(&mut self, fs: &FileSystem, roots: &mut RootCache) {
        for p in self.files.drain(..) {
            let _ = fs.unlink(&p);
            roots.remove(&p);
        }
        self.acc.clear();
        self.members.clear();
    }
}

/// Parity state of one store (see `ProvenanceStore::with_parity`).
pub(super) struct Parity {
    /// Sequence of the next `.pNNNNNN.par` file — store-wide, shared by
    /// both planes so names never collide.
    seq: u64,
    /// Parity files sealed (lifetime, both planes).
    pub(super) seals: u64,
    /// Seal attempts that failed. Parity is redundancy, not data: a failed
    /// seal costs future repairability, never the run.
    pub(super) failed: u64,
    planes: [ParityGroup; 2],
}

impl Parity {
    pub(super) fn new(width: u32) -> Self {
        let group = || ParityGroup {
            width: width.max(1) as usize,
            ..ParityGroup::default()
        };
        Parity {
            seq: 0,
            seals: 0,
            failed: 0,
            planes: [group(), group()],
        }
    }

    pub(super) fn plane(&mut self, plane: Plane) -> &mut ParityGroup {
        &mut self.planes[plane as usize]
    }

    /// Sealed parity files currently live, commit plane first.
    pub(super) fn files(&self) -> Vec<String> {
        self.planes
            .iter()
            .flat_map(|g| g.files.iter().cloned())
            .collect()
    }

    /// Seal `plane`'s open group, if it has members, as
    /// `<path>.pNNNNNN.par`: a PROVIO1 `kind=parity` frame whose first
    /// batch is the member records and whose second batch is the XOR block
    /// (base64, or a raw replica for a single-member group — see
    /// [`artifact::encode_parity_frame`]), committed tmp+rename like every
    /// artifact and root-cached so the manifest lists it. A failed seal
    /// drops the group — its members are already durable, so only future
    /// repairability is lost, and the next commit starts a fresh group.
    pub(super) fn seal(
        &mut self,
        plane: Plane,
        fs: &FileSystem,
        path: &str,
        guid: u64,
        roots: &mut RootCache,
    ) -> Result<(), FsError> {
        let group = &mut self.planes[plane as usize];
        let (members, acc) = (
            std::mem::take(&mut group.members),
            std::mem::take(&mut group.acc),
        );
        if members.is_empty() {
            return Ok(());
        }
        let dst = names::print(path, Role::Parity(self.seq), State::Live);
        let member_lines: Vec<String> = members.iter().map(artifact::member_line).collect();
        let (framed, root) = artifact::encode_parity_frame(guid, self.seq, &member_lines, &acc);
        if let Err(e) = commit_atomic(fs, &dst, &framed) {
            self.failed += 1;
            let _ = fs.unlink(&names::tmp_of(&dst));
            return Err(e);
        }
        roots.insert(dst.clone(), (framed.len() as u64, root));
        group.files.push(dst);
        self.seq += 1;
        self.seals += 1;
        Ok(())
    }
}
