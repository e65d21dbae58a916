//! The file-system idioms every durable artifact shares: the
//! crash-consistent tmp+rename commit, the whole-file read, the read that
//! falls back to a quarantined copy, and the staleness rule for what one
//! pass learned about a file.
//! Bytes move, they are not copied: the committed file adopts the buffer a
//! commit hands over, and a read is a window on it — a snapshot no later
//! commit, repair or rot of the file reaches.

use crate::names;
use bytes::Bytes;
use provio_hpcfs::{FileSystem, FsError};
use provio_simrt::SimTime;

/// One crash-consistent commit attempt: write everything to `<dst>.tmp`,
/// then atomically rename it over `dst`. A crash mid-write leaves a tmp
/// the merge, scrub and verify all know to ignore or adopt. Always the same
/// four calls — create, truncate, write, rename — so fault plans and
/// crash-state enumeration count the same operations for every artifact.
pub(crate) fn commit_atomic(fs: &FileSystem, dst: &str, bytes: impl Into<Bytes>) -> Result<(), FsError> {
    let now = SimTime::ZERO; // store-internal write; mtime is irrelevant
    let tmp = names::tmp_of(dst);
    let ino = fs.create_file(&tmp, false, "provio", now)?;
    fs.truncate_ino(ino, 0, now)?;
    fs.write_at(ino, 0, bytes, now)?;
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
/// quarantined name (`true`), each read only when asked for. The one place
/// that knows a condemned file's bytes are still evidence — scrub restores
/// from them, verify judges them.
pub(crate) fn copies<'a>(
    fs: &'a FileSystem,
    live: &str,
) -> impl Iterator<Item = (Bytes, bool)> + 'a {
    [(live.to_string(), false), (names::quarantine_of(live), true)]
        .into_iter()
        .filter_map(move |(path, quarantined)| Some((read_file(fs, &path)?, quarantined)))
}

/// Does the file at `path` still hold exactly `len` bytes? What one pass
/// learned of a file is reused unread by a later one only while it does.
pub(crate) fn holds(fs: &FileSystem, path: &str, len: u64) -> bool {
    fs.stat(path).is_ok_and(|m| m.size == len)
}
