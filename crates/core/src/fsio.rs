//! The file-system idioms every durable artifact shares: the
//! crash-consistent tmp+rename commit, the whole-file read, and the read
//! that falls back to a quarantined copy.

use crate::names;
use provio_hpcfs::{FileSystem, FsError};
use provio_simrt::SimTime;

/// One crash-consistent commit attempt: write everything to `<dst>.tmp`,
/// then atomically rename it over `dst`. A crash mid-write leaves a tmp
/// the merge, scrub and verify all know to ignore or adopt. Always the same
/// four calls — create, truncate, write, rename — so fault plans and
/// crash-state enumeration count the same operations for every artifact.
pub(crate) fn commit_atomic(fs: &FileSystem, dst: &str, bytes: &[u8]) -> Result<(), FsError> {
    let now = SimTime::ZERO; // store-internal write; mtime is irrelevant
    let tmp = names::tmp_of(dst);
    let ino = fs.create_file(&tmp, false, "provio", now)?;
    fs.truncate_ino(ino, 0, now)?;
    fs.write_at(ino, 0, bytes, now)?;
    fs.rename(&tmp, dst, now)
}

/// The whole of `path`, or `None` when it is missing or unreadable.
pub(crate) fn read_file(fs: &FileSystem, path: &str) -> Option<Vec<u8>> {
    let ino = fs.lookup(path).ok()?;
    let size = fs.file_size(ino).ok()?;
    Some(fs.read_at(ino, 0, size).ok()?.to_vec())
}

/// The copies of the artifact at `live` that can be read, the live file
/// first and then the one a merge or a verify moved aside under its
/// quarantined name (`true`), each read only when asked for. The one place
/// that knows a condemned file's bytes are still evidence — scrub restores
/// from them, verify judges them.
pub(crate) fn copies<'a>(
    fs: &'a FileSystem,
    live: &str,
) -> impl Iterator<Item = (Vec<u8>, bool)> + 'a {
    [(live.to_string(), false), (names::quarantine_of(live), true)]
        .into_iter()
        .filter_map(move |(path, quarantined)| Some((read_file(fs, &path)?, quarantined)))
}
