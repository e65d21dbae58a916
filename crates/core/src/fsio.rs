//! The file-system idioms every durable artifact shares: the
//! crash-consistent tmp+rename commit, the whole-file read, the read that
//! falls back to a quarantined copy, and the staleness rule for what one
//! pass learned about a file.
//! Bytes move, they are not copied: the committed file adopts the buffers a
//! commit hands over — one per part, each its own segment of the file, so a
//! parity file's block stays a window on the snapshot it replicates — and a
//! read inside one part is a window on it: a snapshot no later commit,
//! repair or rot of the file reaches.

use crate::names;
use bytes::Bytes;
use provio_hpcfs::{FileSystem, FsError};
use provio_simrt::SimTime;

/// One crash-consistent commit attempt: write the file's `parts` end to end
/// to `<dst>.tmp`, then atomically rename it over `dst`. A crash mid-write
/// leaves a tmp the merge, scrub and verify all know to ignore or adopt.
/// Always the same calls — create, truncate, one write per part, rename —
/// so fault plans and crash-state enumeration count the same operations
/// for every artifact of a kind: three parts for a parity file (head,
/// block, footer), one for every other file.
pub(crate) fn commit_atomic<B: Into<Bytes>>(
    fs: &FileSystem,
    dst: &str,
    parts: impl IntoIterator<Item = B>,
) -> Result<(), FsError> {
    let now = SimTime::ZERO; // store-internal write; mtime is irrelevant
    let tmp = names::tmp_of(dst);
    let ino = fs.create_file(&tmp, false, "provio", now)?;
    fs.truncate_ino(ino, 0, now)?;
    parts.into_iter().map(Into::into).try_fold(0, |at, part: Bytes| {
        let end = at + part.len() as u64;
        fs.write_at(ino, at, part, now).map(|()| end)
    })?;
    fs.rename(&tmp, dst, now)
}

/// The whole of `path`, or `None` when it is missing or unreadable.
pub(crate) fn read_file(fs: &FileSystem, path: &str) -> Option<Bytes> {
    let ino = fs.lookup(path).ok()?;
    let size = fs.file_size(ino).ok()?;
    fs.read_at(ino, 0, size).ok()
}

/// The copies of the artifact at `live` that can be read, the live file
/// first and then the one a merge or a verify moved aside under its
/// quarantined name (`true`), each read by `read` only when asked for. The
/// one place that knows a condemned file's bytes are still evidence — scrub
/// restores from them, verify judges them.
pub(crate) fn copies<'a, T>(
    fs: &'a FileSystem,
    live: &str,
    read: impl Fn(&FileSystem, &str) -> Option<T> + 'a,
) -> impl Iterator<Item = (T, bool)> + 'a {
    [(live.to_string(), false), (names::quarantine_of(live), true)]
        .into_iter()
        .filter_map(move |(path, quarantined)| Some((read(fs, &path)?, quarantined)))
}

/// Does the file at `path` still hold exactly `len` bytes? What one pass
/// learned of a file is reused unread by a later one only while it does.
pub(crate) fn holds(fs: &FileSystem, path: &str, len: u64) -> bool {
    fs.stat(path).is_ok_and(|m| m.size == len)
}
