//! Run-level trust: the signed run manifest, the campaign ledger, and the
//! `verify` walk that judges a finished directory against them.
//!
//! The frame layer ([`crate::frame`]) proves *internal* consistency: every
//! batch carries a CRC, every file a chained header and a Merkle root. That
//! defeats bit rot, but not an adversary with file-system access — they can
//! rewrite a batch and patch its CRC *and* the footer root, leaving a file
//! the merge accepts without complaint. Trust therefore needs an anchor the
//! adversary cannot rewrite: a **run manifest** listing every committed
//! file's content root, signed with a keyed HMAC (key from the
//! `manifest_key` config knob, which the adversary does not hold), and a
//! **campaign ledger** chaining manifest digests digest-to-digest across
//! runs, so deleting or swapping a whole signed run is also visible.
//!
//! The split of duties with the merge is deliberate. The merge stays
//! availability-first: it salvages, quarantines rot, and replays journals
//! without a key. `verify` is integrity-first: it re-walks the directory
//! against the manifest and classifies every file as
//! [`FileVerdict::Verified`], `Tampered` (internally consistent but not
//! what was signed), `Damaged` (CRC-visible rot — honest damage, already
//! handled by the merge tier), `Missing`, or `Unsigned` (pre-manifest
//! legacy runs, which must keep working, never error). The two tiers
//! compose: [`quarantine_tampered`] renames what verify condemns so the
//! next merge excludes it, and a re-verify reads the quarantined bytes and
//! returns the same verdicts — verification is idempotent.
//!
//! The manifest's `sig` line carries an `alg=` token so an asymmetric
//! scheme can slot in behind the same format later; `hmac-sha256` is the
//! only algorithm this version signs or accepts.

use crate::artifact::{key_id, ledger_line, parse_ledger_line, parse_manifest, render_manifest};
use crate::frame::{self, FrameKind};
use crate::fsio::{commit_atomic, copies, read_file};
use crate::names::{self, State, LEDGER_NAME, MANIFEST_NAME};
use provio_hpcfs::FileSystem;
use provio_simrt::SimTime;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

pub use crate::artifact::{
    LedgerRecord, Manifest, ManifestEntry, RankEntry, RootCache, MANIFEST_MAGIC,
};

/// What sealing a run produced: the run GUID and the manifest digest now
/// chained into the campaign ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestInfo {
    pub run: u64,
    pub digest: [u8; 32],
    pub files: usize,
}

/// Content root of a file's bytes: the frame Merkle root when the file is
/// framed (snapshot, delta segment, or WAL generation — `file_root` handles
/// the concatenated-chunk case), the SHA-256 of the raw bytes otherwise.
fn content_root(bytes: &[u8]) -> ([u8; 32], bool) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        if let Some(root) = frame::file_root(text) {
            return (root, true);
        }
    }
    (sha2::sha256(bytes), false)
}

fn manifest_path(dir: &str) -> String {
    format!("{}/{MANIFEST_NAME}", dir.trim_end_matches('/'))
}

fn ledger_path(dir: &str) -> String {
    format!("{}/{LEDGER_NAME}", dir.trim_end_matches('/'))
}

/// Walk the finished run directory, compute every committed file's content
/// root, and commit the signed manifest (tmp-then-rename). Deterministic:
/// the same directory bytes and key produce byte-identical manifests.
/// `roots` is a commit-time root cache: a walked file whose on-disk byte
/// count matches its cache entry takes the cached root instead of being
/// re-read and re-CRC'd — the encoder already folded
/// that root when it framed the commit, so this is the same value
/// [`frame::file_root`] would recompute, just without the second full
/// pass over every store byte. The *file list* still comes from the
/// directory walk, never from the cache: files the store did not write
/// (journal generations, a crashed sibling's segments, foreign files) and
/// files whose size disagrees with the cache fall back to the slow path.
/// The manifest is byte-identical either way.
pub fn write_manifest_with_roots(
    fs: &Arc<FileSystem>,
    dir: &str,
    key: &str,
    ranks: &[RankEntry],
    roots: &RootCache,
) -> Result<ManifestInfo, String> {
    let dir = dir.trim_end_matches('/');
    let mut files = fs.walk_files(dir).map_err(|e| format!("{e:?}"))?;
    files.sort();
    files.retain(|p| names::parse(p).is_store_file());
    let mut entries = Vec::with_capacity(files.len());
    let mut acc = String::new();
    for path in files {
        let cached = roots.get(&path).and_then(|&(n, root)| {
            let md = fs.stat(&path).ok()?;
            (md.size == n).then_some((root, true, n))
        });
        let (root, merkle, len) = match cached {
            Some(hit) => hit,
            None => {
                let bytes = read_file(fs, &path)
                    .ok_or_else(|| format!("unreadable store file {path}"))?;
                let (root, merkle) = content_root(&bytes);
                (root, merkle, bytes.len() as u64)
            }
        };
        acc.push_str(&path);
        acc.push(' ');
        acc.push_str(&sha2::hex(&root));
        acc.push('\n');
        entries.push(ManifestEntry {
            path,
            root,
            merkle,
            bytes: len,
        });
    }
    let manifest = Manifest {
        run: frame::fnv1a64(acc.as_bytes()),
        files: entries,
        ranks: ranks.to_vec(),
    };
    let text = render_manifest(&manifest, key);
    commit_atomic(fs, &manifest_path(dir), text.as_bytes()).map_err(|e| format!("{e:?}"))?;
    Ok(ManifestInfo {
        run: manifest.run,
        digest: sha2::sha256(text.as_bytes()),
        files: manifest.files.len(),
    })
}

/// The campaign ledger as read off disk: the verified-prefix records, and
/// whether a torn tail was cut or the digest chain is broken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    pub records: Vec<LedgerRecord>,
    pub truncated: bool,
    pub chained: bool,
}

/// Read the campaign ledger, tolerating a torn tail: the ledger is a
/// concatenation of WAL-framed chunks (one per sealed run), so everything
/// up to the first damaged chunk is recovered and the rest reported, never
/// parsed — the same discipline as journal generations.
pub fn read_ledger(fs: &Arc<FileSystem>, dir: &str) -> Option<Ledger> {
    let path = ledger_path(dir);
    let bytes = read_file(fs, &path)?;
    let mut out = Ledger {
        chained: true,
        ..Ledger::default()
    };
    let Ok(text) = String::from_utf8(bytes) else {
        out.truncated = true;
        return Some(out);
    };
    let wal = frame::decode_wal(&text, frame::store_guid(&path));
    out.truncated = wal.truncated;
    for (_, line) in &wal.records {
        match parse_ledger_line(line) {
            Some(rec) => out.records.push(rec),
            None => {
                out.truncated = true;
                break;
            }
        }
    }
    for (i, rec) in out.records.iter().enumerate() {
        let want = if i == 0 {
            None
        } else {
            Some(out.records[i - 1].manifest)
        };
        if rec.prev != want {
            out.chained = false;
        }
    }
    Some(out)
}

/// Chain a sealed run's manifest digest into the campaign ledger.
/// Idempotent: re-sealing the same manifest appends nothing. A torn tail
/// from a crashed earlier append is recovered by rewriting the verified
/// prefix — records, ordinals, and frame chain re-encode byte-identically,
/// so an undamaged ledger round-trips unchanged. The whole file commits
/// tmp-then-rename.
pub fn append_ledger(
    fs: &Arc<FileSystem>,
    dir: &str,
    run: u64,
    digest: [u8; 32],
) -> Result<(), String> {
    let path = ledger_path(dir);
    let existing = read_ledger(fs, dir).unwrap_or_default();
    if existing
        .records
        .last()
        .is_some_and(|r| r.manifest == digest)
    {
        return Ok(());
    }
    let guid = frame::store_guid(&path);
    let mut records = existing.records;
    records.push(LedgerRecord {
        run,
        manifest: digest,
        prev: None, // recomputed below, like every other record's
    });
    let mut out = String::new();
    let mut chain = frame::CHAIN_START;
    let mut prev: Option<[u8; 32]> = None;
    for (i, rec) in records.iter().enumerate() {
        let line = ledger_line(&LedgerRecord { prev, ..*rec });
        let (chunk, c) = frame::encode(FrameKind::Wal, guid, i as u64, chain, &line, usize::MAX);
        out.push_str(&chunk);
        chain = c;
        prev = Some(rec.manifest);
    }
    commit_atomic(fs, &path, out.as_bytes()).map_err(|e| format!("{e:?}"))
}

/// Sign the finished run directory and chain it into the campaign ledger —
/// what [`crate::tracker::TrackerRegistry::finish_all`] calls when the
/// `manifest` knob is armed.
pub fn seal_run(
    fs: &Arc<FileSystem>,
    dir: &str,
    key: &str,
    ranks: &[RankEntry],
) -> Result<ManifestInfo, String> {
    seal_run_with_roots(fs, dir, key, ranks, &RootCache::new())
}

/// [`seal_run`] with the writers' commit-time root cache (see
/// [`write_manifest_with_roots`]) — what `finish_all` actually calls, so
/// sealing costs one directory walk and two small commits instead of a
/// full re-read of every store byte.
pub fn seal_run_with_roots(
    fs: &Arc<FileSystem>,
    dir: &str,
    key: &str,
    ranks: &[RankEntry],
    roots: &RootCache,
) -> Result<ManifestInfo, String> {
    let info = write_manifest_with_roots(fs, dir, key, ranks, roots)?;
    append_ledger(fs, dir, info.run, info.digest)?;
    Ok(info)
}

/// What `verify` concluded about one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileVerdict {
    /// Content root matches the signed manifest.
    Verified,
    /// No signed manifest covers this file (pre-manifest legacy run).
    Unsigned,
    /// CRC-visible damage — honest rot, the merge tier's business, already
    /// salvaged or quarantined there. Damage costs completeness, not trust.
    Damaged,
    /// Listed in the manifest but absent on disk (no quarantined copy).
    Missing,
    /// Internally consistent but not what was signed: rewritten content,
    /// an edited manifest, or a broken ledger.
    Tampered,
}

impl FileVerdict {
    pub fn as_str(self) -> &'static str {
        match self {
            FileVerdict::Verified => "verified",
            FileVerdict::Unsigned => "unsigned",
            FileVerdict::Damaged => "damaged",
            FileVerdict::Missing => "missing",
            FileVerdict::Tampered => "tampered",
        }
    }
}

impl fmt::Display for FileVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One file's verdict with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCheck {
    pub path: String,
    pub verdict: FileVerdict,
    pub detail: String,
}

/// The full result of verifying one run directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    pub dir: String,
    /// Run GUID claimed by the manifest, when one parsed.
    pub run: Option<u64>,
    pub manifest_present: bool,
    /// The manifest parsed and its HMAC verified under the given key.
    pub manifest_ok: bool,
    /// The ledger's digest chain is intact and seals this manifest (or
    /// there is legitimately nothing to seal — an unsigned legacy run).
    pub ledger_ok: bool,
    pub checks: Vec<FileCheck>,
}

impl VerifyReport {
    fn check(&mut self, path: &str, verdict: FileVerdict, detail: impl Into<String>) {
        self.checks.push(FileCheck {
            path: path.to_string(),
            verdict,
            detail: detail.into(),
        });
    }

    pub fn count(&self, verdict: FileVerdict) -> usize {
        self.checks.iter().filter(|c| c.verdict == verdict).count()
    }

    /// Everything signed, everything sealed, nothing tampered or missing.
    /// Damage (CRC-visible rot) costs completeness, not trust — the
    /// counterpart of `RunReport::is_complete`, which ignores tamper.
    pub fn is_trusted(&self) -> bool {
        self.manifest_present
            && self.manifest_ok
            && self.ledger_ok
            && self.count(FileVerdict::Tampered) == 0
            && self.count(FileVerdict::Missing) == 0
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let manifest = if !self.manifest_present {
            "no manifest"
        } else if self.manifest_ok {
            "manifest signed"
        } else {
            "manifest untrusted"
        };
        let ledger = if !self.ledger_ok {
            "ledger broken"
        } else if self.manifest_present && self.manifest_ok {
            "ledger sealed"
        } else {
            "no ledger"
        };
        write!(
            f,
            "verify {}: {} — {} verified, {} tampered, {} damaged, {} missing, \
             {} unsigned; {manifest}; {ledger}",
            self.dir,
            if self.is_trusted() {
                "TRUSTED"
            } else {
                "NOT TRUSTED"
            },
            self.count(FileVerdict::Verified),
            self.count(FileVerdict::Tampered),
            self.count(FileVerdict::Damaged),
            self.count(FileVerdict::Missing),
            self.count(FileVerdict::Unsigned),
        )?;
        for c in &self.checks {
            if c.verdict != FileVerdict::Verified {
                write!(f, "\n  {:9} {} — {}", c.verdict.as_str(), c.path, c.detail)?;
            }
        }
        Ok(())
    }
}

/// Judge one file's bytes against its manifest entry. Framed files are
/// judged by recomputed Merkle root — CRC-visible damage is `Damaged` (the
/// rot tier already handles it), an internally consistent root mismatch is
/// `Tampered` (a CRC-patched rewrite passes every frame check; only the
/// signed root catches it). Raw-mode files have no CRCs to tell the two
/// apart, so any byte change is `Tampered`.
fn judge(bytes: &[u8], entry: &ManifestEntry) -> (FileVerdict, String) {
    if !entry.merkle {
        return if sha2::sha256(bytes) == entry.root {
            (FileVerdict::Verified, "content hash matches".to_string())
        } else {
            (
                FileVerdict::Tampered,
                "content hash differs from the signed root".to_string(),
            )
        };
    }
    let Ok(text) = std::str::from_utf8(bytes) else {
        return (
            FileVerdict::Damaged,
            "framed file is no longer valid UTF-8".to_string(),
        );
    };
    if frame::is_wal_path(&entry.path) {
        let wal = frame::decode_wal(text, frame::store_guid(&entry.path));
        if wal.truncated {
            return (
                FileVerdict::Damaged,
                "journal tail torn or bit-rotted".to_string(),
            );
        }
        return if frame::file_root(text) == Some(entry.root) {
            (FileVerdict::Verified, "journal root matches".to_string())
        } else {
            (
                FileVerdict::Tampered,
                "journal root differs from the signed root".to_string(),
            )
        };
    }
    match frame::decode(text) {
        Ok(f) => {
            if f.batches_corrupt > 0 {
                (
                    FileVerdict::Damaged,
                    format!("{} of {} batches failed CRC", f.batches_corrupt, f.batches_total),
                )
            } else if f.computed_root == entry.root {
                (FileVerdict::Verified, "Merkle root matches".to_string())
            } else {
                (
                    FileVerdict::Tampered,
                    "internally consistent but the Merkle root differs from the signed root"
                        .to_string(),
                )
            }
        }
        Err(frame::FrameError::Quarantine(why)) => {
            (FileVerdict::Damaged, format!("frame damage: {why}"))
        }
        Err(frame::FrameError::NotFramed) => (
            FileVerdict::Tampered,
            "framed file replaced by unframed content".to_string(),
        ),
    }
}

/// Check one manifest entry against the directory. A live file is judged
/// in place; a file the merge (or an earlier verify) already renamed to
/// its quarantined name is judged from the quarantined bytes, so re-running
/// verify after quarantine returns the same verdict — sticky, idempotent.
fn check_entry(fs: &Arc<FileSystem>, entry: &ManifestEntry, report: &mut VerifyReport) {
    let Some((bytes, quarantined)) = copies(fs, &entry.path).next() else {
        let detail = "listed in the manifest but absent on disk";
        return report.check(&entry.path, FileVerdict::Missing, detail);
    };
    let (verdict, mut detail) = judge(&bytes, entry);
    if quarantined {
        detail.push_str(" (quarantined copy)");
    }
    report.check(&entry.path, verdict, detail);
}

/// Walk ledger → manifest → file roots over a finished run directory and
/// classify every file. Never errors: a pre-manifest legacy directory
/// verifies as all-`Unsigned` (and merges exactly as before), a tampered
/// one comes back with file-level blast radius.
pub fn verify_directory(fs: &Arc<FileSystem>, dir: &str, key: &str) -> VerifyReport {
    let dir = dir.trim_end_matches('/');
    let mut report = VerifyReport {
        dir: dir.to_string(),
        ..VerifyReport::default()
    };
    let mpath = manifest_path(dir);
    let disk = fs.walk_files(dir).unwrap_or_default();
    // What a manifest could list: no tmp, no quarantined copy, no trust
    // artifact.
    let store_files = || disk.iter().filter(|p| names::parse(p).is_store_file());
    let ledger = read_ledger(fs, dir);

    let Some(bytes) = read_file(fs, &mpath) else {
        // Legacy (pre-manifest) run: everything is simply unsigned. A
        // ledger with no manifest means the manifest was deleted — the
        // ledger's whole point is making that visible.
        for p in store_files() {
            report.check(p, FileVerdict::Unsigned, "no run manifest");
        }
        report.ledger_ok = ledger.is_none();
        if !report.ledger_ok {
            let detail = "campaign ledger present but the run manifest is gone";
            report.check(&mpath, FileVerdict::Missing, detail);
        }
        return report;
    };
    report.manifest_present = true;

    // A manifest that cannot be trusted condemns itself and leaves every
    // file it would have vouched for unjudged.
    let untrusted = |mut report: VerifyReport, detail: String, paths: Vec<&String>| {
        report.check(&mpath, FileVerdict::Tampered, detail);
        for p in paths {
            report.check(p, FileVerdict::Unsigned, "manifest untrusted, file cannot be judged");
        }
        report
    };
    let Some(pm) = std::str::from_utf8(&bytes).ok().and_then(parse_manifest) else {
        return untrusted(report, "manifest is malformed".to_string(), store_files().collect());
    };
    report.run = Some(pm.manifest.run);

    let mac = sha2::hex(&sha2::hmac_sha256(key.as_bytes(), &bytes[..pm.signed_len]));
    if pm.alg != "hmac-sha256" || mac != pm.hmac {
        let detail = if pm.keyid != key_id(key) {
            format!(
                "manifest signed under keyid {} but verified with keyid {}",
                pm.keyid,
                key_id(key)
            )
        } else {
            "signature mismatch: manifest edited after signing".to_string()
        };
        return untrusted(report, detail, pm.manifest.files.iter().map(|e| &e.path).collect());
    }
    report.manifest_ok = true;

    for entry in &pm.manifest.files {
        check_entry(fs, entry, &mut report);
    }
    // Files on disk the signed manifest never listed: planted after
    // signing. (A quarantined copy of a listed file is that file's sticky
    // verdict, not a plant.)
    let listed: HashSet<&str> = pm.manifest.files.iter().map(|e| e.path.as_str()).collect();
    for p in &disk {
        let name = names::parse(p);
        if name.state == State::Tmp || name.is_trust_artifact() || listed.contains(name.live) {
            continue;
        }
        let detail = "present on disk but not in the signed manifest";
        report.check(p, FileVerdict::Tampered, detail);
    }

    let digest = sha2::sha256(&bytes);
    match ledger {
        None => {
            let detail = "campaign ledger absent for a signed run";
            report.check(&ledger_path(dir), FileVerdict::Missing, detail);
        }
        Some(l) => {
            report.ledger_ok = l.chained && l.records.last().is_some_and(|r| r.manifest == digest);
            if !report.ledger_ok {
                let detail = if !l.chained {
                    "ledger digest chain broken"
                } else if l.truncated {
                    "ledger tail torn or truncated; this run's manifest is not sealed"
                } else {
                    "this run's manifest is not sealed in the ledger"
                };
                report.check(&ledger_path(dir), FileVerdict::Tampered, detail);
            }
        }
    }
    report
}

/// Rename every tampered store file to `<path>.quarantine` so the next
/// merge excludes it — the same sidelining the merge applies to rot.
/// Trust artifacts stay in place: renaming a tampered manifest would erase
/// the evidence the report points at. Returns the paths renamed.
pub fn quarantine_tampered(fs: &Arc<FileSystem>, report: &VerifyReport) -> Vec<String> {
    let mut repairable = None;
    let mut renamed = Vec::new();
    for c in &report.checks {
        let name = names::parse(&c.path);
        if c.verdict != FileVerdict::Tampered
            || name.is_trust_artifact()
            || name.state == State::Quarantined
            || !fs.exists(&c.path)
        {
            continue;
        }
        // Repair precedence: a condemned file whose parity group can still
        // make it whole belongs to the scrub pass, not to quarantine.
        // Quarantine is the over-tolerance fallback — renaming a repairable
        // member would cost the group a survivor it may need. Scrub is asked
        // once, before the first rename, and only when there is a file to
        // condemn: its answer costs a read of every parity file and member.
        if repairable
            .get_or_insert_with(|| crate::scrub::repairable_paths(fs, &report.dir))
            .contains(&c.path)
        {
            continue;
        }
        if fs
            .rename(&c.path, &names::quarantine_of(&c.path), SimTime::ZERO)
            .is_ok()
        {
            renamed.push(c.path.clone());
        }
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::LustreConfig;

    fn fs() -> Arc<FileSystem> {
        FileSystem::new(LustreConfig::default())
    }

    fn put(fs: &Arc<FileSystem>, path: &str, bytes: &[u8]) {
        if let Some((dir, _)) = path.rsplit_once('/') {
            let _ = fs.mkdir_all(dir, "provio", SimTime::ZERO);
        }
        let ino = match fs.lookup(path) {
            Ok(ino) => ino,
            Err(_) => fs.create_file(path, false, "provio", SimTime::ZERO).unwrap(),
        };
        fs.truncate_ino(ino, 0, SimTime::ZERO).unwrap();
        fs.write_at(ino, 0, bytes, SimTime::ZERO).unwrap();
    }

    fn get(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
        read_file(fs, path).unwrap()
    }

    const KEY: &str = "test-campaign-key";

    /// A signed two-file run: one framed snapshot, one legacy raw file.
    fn sealed_run(fs: &Arc<FileSystem>) -> ManifestInfo {
        let snap = "/provio/prov_p0.nt";
        let (text, _) = frame::encode(
            FrameKind::Snapshot,
            frame::store_guid(snap),
            0,
            frame::CHAIN_START,
            "<urn:a> <urn:p> <urn:b> .\n<urn:a> <urn:p> <urn:c> .\n",
            1,
        );
        put(fs, snap, text.as_bytes());
        put(fs, "/provio/prov_p1.nt", b"<urn:x> <urn:p> <urn:y> .\n");
        seal_run(
            fs,
            "/provio",
            KEY,
            &[
                RankEntry { pid: 0, degraded: false, triples: 2 },
                RankEntry { pid: 1, degraded: false, triples: 1 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn clean_run_seals_verifies_and_reseals_idempotently() {
        let fs = fs();
        let info = sealed_run(&fs);
        assert_eq!(info.files, 2);
        let report = verify_directory(&fs, "/provio", KEY);
        assert!(report.is_trusted(), "{report}");
        assert_eq!(report.count(FileVerdict::Verified), 2);
        assert_eq!(report.run, Some(info.run));
        // Re-verify is idempotent, byte for byte.
        assert_eq!(report, verify_directory(&fs, "/provio", KEY));
        // Re-sealing the identical directory appends nothing to the ledger.
        let again = sealed_run(&fs);
        assert_eq!(again.digest, info.digest);
        let ledger = read_ledger(&fs, "/provio").unwrap();
        assert_eq!(ledger.records.len(), 1);
        assert!(ledger.chained && !ledger.truncated);
    }

    #[test]
    fn cached_roots_seal_byte_identically_and_stale_entries_fall_back() {
        let fs = fs();
        let snap = "/provio/prov_p0.nt";
        let (text, _, root) = frame::encode_with_root(
            FrameKind::Snapshot,
            frame::store_guid(snap),
            0,
            frame::CHAIN_START,
            "<urn:a> <urn:p> <urn:b> .\n<urn:a> <urn:p> <urn:c> .\n",
            1,
        );
        put(&fs, snap, text.as_bytes());
        put(&fs, "/provio/prov_p1.nt", b"<urn:x> <urn:p> <urn:y> .\n");
        // Slow path first; capture the manifest bytes.
        seal_run(&fs, "/provio", KEY, &[]).unwrap();
        let slow = get(&fs, "/provio/MANIFEST.provio");
        // Cached path: the framed file's root comes from the cache (a
        // bogus-but-size-matching entry would be trusted — prove the hit
        // happens by poisoning the cache and watching the manifest change).
        let mut cache = RootCache::new();
        cache.insert(snap.to_string(), (text.len() as u64, root));
        seal_run_with_roots(&fs, "/provio", KEY, &[], &cache).unwrap();
        assert_eq!(
            get(&fs, "/provio/MANIFEST.provio"),
            slow,
            "cache hit signs the same bytes as the full re-read"
        );
        assert!(verify_directory(&fs, "/provio", KEY).is_trusted());
        let mut poisoned = RootCache::new();
        poisoned.insert(snap.to_string(), (text.len() as u64, [0xAB; 32]));
        seal_run_with_roots(&fs, "/provio", KEY, &[], &poisoned).unwrap();
        assert_ne!(
            get(&fs, "/provio/MANIFEST.provio"),
            slow,
            "a size-matching cache entry is used verbatim — the hit is real"
        );
        // Stale entry (size mismatch) is ignored: the same poisoned root
        // under the wrong byte count falls back to the re-read and the
        // manifest comes out right again.
        let mut stale = RootCache::new();
        stale.insert(snap.to_string(), (text.len() as u64 + 1, [0xAB; 32]));
        seal_run_with_roots(&fs, "/provio", KEY, &[], &stale).unwrap();
        assert_eq!(get(&fs, "/provio/MANIFEST.provio"), slow);
        assert!(verify_directory(&fs, "/provio", KEY).is_trusted());
    }

    #[test]
    fn repairable_tamper_is_scrubbed_not_quarantined() {
        let fs = fs();
        // A parity-protected store, compacted and sealed: the snapshot's
        // parity group survives `finish` (forced seal).
        let st = crate::store::ProvenanceStore::new(
            Arc::clone(&fs),
            "/provio/prov_p0.nt",
            crate::config::RdfFormat::NTriples,
            false,
        )
        .with_compact_every(0)
        .with_checksums(true)
        .with_parity(true, 2);
        for i in 0..4 {
            st.push(
                vec![provio_rdf::Triple::new(
                    provio_rdf::Subject::iri(format!("urn:s{i}")),
                    provio_rdf::Iri::new("urn:p"),
                    provio_rdf::Term::iri("urn:o"),
                )],
                None,
            );
            st.flush(None);
        }
        st.finish(None);
        seal_run(&fs, "/provio", KEY, &[RankEntry { pid: 0, degraded: false, triples: 4 }])
            .unwrap();
        assert!(verify_directory(&fs, "/provio", KEY).is_trusted());

        // Adversary rewrites the snapshot with a CRC-patched forgery —
        // only the manifest catches it, and parity can still repair it.
        let snap = "/provio/prov_p0.nt";
        let original = read_file(&fs, snap).unwrap();
        let (forged, _) = frame::encode(
            FrameKind::Snapshot,
            frame::store_guid(snap),
            0,
            frame::CHAIN_START,
            "<urn:evil> <urn:p> <urn:evil> .\n",
            1,
        );
        put(&fs, snap, forged.as_bytes());
        let report = verify_directory(&fs, "/provio", KEY);
        assert_eq!(report.count(FileVerdict::Tampered), 1, "{report}");
        // Precedence: quarantine must never fire on a repairable file.
        assert!(quarantine_tampered(&fs, &report).is_empty());
        assert!(fs.exists(snap), "repairable file left in place for the scrub");

        // Scrub restores the sealed bytes; the file re-verifies Verified —
        // no sticky verdict survives a successful repair.
        let scrubbed = crate::scrub::scrub_directory(&fs, "/provio");
        assert_eq!(scrubbed.repaired_files, vec![snap.to_string()], "{scrubbed}");
        assert_eq!(read_file(&fs, snap).unwrap(), original, "repair is byte-identical");
        let again = verify_directory(&fs, "/provio", KEY);
        assert!(again.is_trusted(), "{again}");
        assert!(again
            .checks
            .iter()
            .any(|c| c.path == snap && c.verdict == FileVerdict::Verified));
    }

    #[test]
    fn store_commit_roots_match_the_sealers_re_read() {
        // The cache the store hands to `finish_all` holds exactly what
        // `file_root` recomputes from the committed bytes — snapshot and
        // delta segments alike, compacted-away segments dropped.
        let fs = fs();
        let st = crate::store::ProvenanceStore::new(
            Arc::clone(&fs),
            "/provio/prov_p9.nt",
            crate::config::RdfFormat::NTriples,
            false,
        )
        .with_compact_every(0)
        .with_checksums(true);
        for i in 0..3 {
            st.push(
                vec![provio_rdf::Triple::new(
                    provio_rdf::Subject::iri(format!("urn:s{i}")),
                    provio_rdf::Iri::new("urn:p"),
                    provio_rdf::Term::iri("urn:o"),
                )],
                None,
            );
            st.flush(None);
        }
        st.finish(None);
        let roots = st.committed_roots();
        assert!(!roots.is_empty());
        for (path, n, root) in &roots {
            let bytes = read_file(&fs, path).expect("cached path exists");
            assert_eq!(bytes.len() as u64, *n, "{path}");
            let text = std::str::from_utf8(&bytes).unwrap();
            assert_eq!(frame::file_root(text), Some(*root), "{path}");
        }
        // finish() compacts into a snapshot: no cached segment may point
        // at an unlinked file.
        for (path, _, _) in &roots {
            assert!(fs.exists(path), "stale cache entry for {path}");
        }
    }

    #[test]
    fn crc_patched_rewrite_is_caught_only_by_the_manifest() {
        let fs = fs();
        sealed_run(&fs);
        // Adversary rewrites the snapshot wholesale with a *valid* frame —
        // same guid, same ordinal, every CRC and the footer root patched to
        // match the forged content. The frame tier cannot object.
        let snap = "/provio/prov_p0.nt";
        let (forged, _) = frame::encode(
            FrameKind::Snapshot,
            frame::store_guid(snap),
            0,
            frame::CHAIN_START,
            "<urn:evil> <urn:p> <urn:evil> .\n",
            1,
        );
        put(&fs, snap, forged.as_bytes());
        let framed = frame::decode(&forged).unwrap();
        assert!(framed.intact(), "the forgery is internally consistent");
        assert_eq!(framed.declared_root, Some(framed.computed_root));

        let report = verify_directory(&fs, "/provio", KEY);
        assert!(!report.is_trusted());
        assert_eq!(report.count(FileVerdict::Tampered), 1, "{report}");
        assert_eq!(report.count(FileVerdict::Verified), 1, "blast radius is one file");
        // Quarantine, then re-verify: the verdict sticks.
        assert_eq!(quarantine_tampered(&fs, &report), vec![snap.to_string()]);
        assert!(fs.exists(&format!("{snap}.quarantine")));
        let again = verify_directory(&fs, "/provio", KEY);
        assert_eq!(again.count(FileVerdict::Tampered), 1);
        assert!(again.checks.iter().any(|c| c.path == snap
            && c.verdict == FileVerdict::Tampered
            && c.detail.ends_with("(quarantined copy)")));
        assert!(quarantine_tampered(&fs, &again).is_empty());
    }

    #[test]
    fn edited_manifest_fails_its_signature() {
        let fs = fs();
        sealed_run(&fs);
        let path = manifest_path("/provio");
        let text = String::from_utf8(get(&fs, &path)).unwrap();
        // Flip one hex digit of a signed root.
        let at = text.find("root=").unwrap() + 5;
        let mut edited = text.into_bytes();
        edited[at] = if edited[at] == b'0' { b'1' } else { b'0' };
        put(&fs, &path, &edited);
        let report = verify_directory(&fs, "/provio", KEY);
        assert!(!report.is_trusted());
        assert!(report.manifest_present && !report.manifest_ok);
        assert!(report.checks.iter().any(|c| c.path == path
            && c.verdict == FileVerdict::Tampered
            && c.detail.contains("edited after signing")));
        // Files cannot be judged under an untrusted manifest.
        assert_eq!(report.count(FileVerdict::Unsigned), 2);
    }

    #[test]
    fn wrong_key_names_both_keyids() {
        let fs = fs();
        sealed_run(&fs);
        let report = verify_directory(&fs, "/provio", "not-the-key");
        assert!(!report.is_trusted());
        let check = report
            .checks
            .iter()
            .find(|c| c.path.ends_with(MANIFEST_NAME))
            .unwrap();
        assert_eq!(check.verdict, FileVerdict::Tampered);
        assert!(check.detail.contains(&key_id(KEY)));
        assert!(check.detail.contains(&key_id("not-the-key")));
    }

    #[test]
    fn ledger_truncation_deletion_and_unlisted_files_are_flagged() {
        let fs = fs();
        sealed_run(&fs);
        let lpath = ledger_path("/provio");
        let ledger_bytes = get(&fs, &lpath);

        // Cut the ledger mid-chunk: the run is no longer sealed.
        put(&fs, &lpath, &ledger_bytes[..ledger_bytes.len() / 2]);
        let report = verify_directory(&fs, "/provio", KEY);
        assert!(!report.ledger_ok && !report.is_trusted());
        assert!(report
            .checks
            .iter()
            .any(|c| c.path == lpath && c.verdict == FileVerdict::Tampered));

        // Delete it outright: missing, and still untrusted.
        put(&fs, &lpath, &ledger_bytes); // restore first
        fs.unlink(&lpath).unwrap();
        let report = verify_directory(&fs, "/provio", KEY);
        assert!(!report.ledger_ok && !report.is_trusted());
        assert!(report
            .checks
            .iter()
            .any(|c| c.path == lpath && c.verdict == FileVerdict::Missing));

        // A file planted after signing is tamper, not background noise.
        put(&fs, "/provio/planted.nt", b"<urn:e> <urn:p> <urn:e> .\n");
        let report = verify_directory(&fs, "/provio", KEY);
        assert!(report.checks.iter().any(
            |c| c.path == "/provio/planted.nt" && c.verdict == FileVerdict::Tampered
        ));
    }

    #[test]
    fn legacy_directory_verifies_unsigned_with_no_false_positives() {
        let fs = fs();
        put(&fs, "/provio/prov_p7.nt", b"<urn:a> <urn:p> <urn:b> .\n");
        let report = verify_directory(&fs, "/provio", KEY);
        assert!(!report.is_trusted());
        assert!(!report.manifest_present);
        assert!(report.ledger_ok, "nothing to seal is not a broken seal");
        assert_eq!(report.count(FileVerdict::Unsigned), 1);
        assert_eq!(report.count(FileVerdict::Tampered), 0);
        assert_eq!(report.count(FileVerdict::Damaged), 0);
    }

    #[test]
    fn torn_ledger_tail_is_recovered_on_the_next_seal() {
        let fs = fs();
        let info = sealed_run(&fs);
        let lpath = ledger_path("/provio");
        let mut bytes = get(&fs, &lpath);
        let full = bytes.clone();
        // A crash mid-append leaves a torn half-chunk after the sealed one.
        bytes.extend_from_slice(&full[..full.len() / 3]);
        put(&fs, &lpath, &bytes);
        let torn = read_ledger(&fs, "/provio").unwrap();
        assert!(torn.truncated);
        assert_eq!(torn.records.len(), 1);
        // Appending a new digest rewrites the verified prefix and seals.
        append_ledger(&fs, "/provio", 42, [9u8; 32]).unwrap();
        let healed = read_ledger(&fs, "/provio").unwrap();
        assert!(!healed.truncated && healed.chained);
        assert_eq!(healed.records.len(), 2);
        assert_eq!(healed.records[0].manifest, info.digest);
        assert_eq!(healed.records[1].prev, Some(info.digest));
    }

    #[test]
    fn rot_stays_damaged_never_tampered() {
        let fs = fs();
        sealed_run(&fs);
        // Flip one payload byte without patching anything: the batch CRC
        // catches it — that is rot's signature, not an adversary's.
        let snap = "/provio/prov_p0.nt";
        let mut bytes = get(&fs, snap);
        let at = bytes
            .windows(7)
            .position(|w| w == b"<urn:a>")
            .unwrap();
        bytes[at + 5] = b'z';
        put(&fs, snap, &bytes);
        let report = verify_directory(&fs, "/provio", KEY);
        assert_eq!(report.count(FileVerdict::Damaged), 1, "{report}");
        assert_eq!(report.count(FileVerdict::Tampered), 0);
        // Damage costs completeness (the merge quarantines and counts it),
        // not trust: nobody forged anything.
        assert!(report.is_trusted());
    }

    #[test]
    fn trust_artifact_paths_are_recognized() {
        for p in [
            "/provio/MANIFEST.provio",
            "/provio/MANIFEST.provio.tmp",
            "/provio/CAMPAIGN.provio",
            "/d/CAMPAIGN.provio.quarantine",
            "MANIFEST.provio",
        ] {
            assert!(names::parse(p).is_trust_artifact(), "{p}");
        }
        for p in ["/provio/prov_p0.nt", "/provio/manifest.txt", "/MANIFEST.provio.nt"] {
            assert!(!names::parse(p).is_trust_artifact(), "{p}");
        }
    }
}
