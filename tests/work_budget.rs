//! Exact work per store configuration: what each durability plane costs
//! in bytes and file-system operations, counted on the op trace, not
//! timed. One row per configuration runs the first two ranks of
//! `tests/common`'s seeded capture (synchronous flushes every 1 000
//! records) through a traced file system and prints one line of exact
//! quantities:
//!
//! - `bytes/event`: bytes handed to `write_at`, per tracked event;
//! - `write_amp`: those bytes over the bytes of the final snapshots;
//! - `writes`, `renames`, `unlinks` per flush, a flush being one commit
//!   of a snapshot or a delta segment.
//!
//! The rows' lines, and each plane's ratio to the framed row, are held to
//! one pinned SHA-256, as `tests/campaign.rs` holds its families. A moved
//! digest means some plane now writes a different number of bytes or
//! issues a different number of operations: the failing assertion prints
//! every line, so find the row that moved before re-pinning.
//!
//! The parity plane also states its budget against the framed row, and is
//! held to it apart from the digest (DESIGN.md §16): per seal one rename
//! and three writes — the frame's head, its block and its footer — and no
//! more bytes than the escaped-text parity it replaced wrote.

mod common;

use common::{tracked_rank, DIR, EVENTS_PER_RANK, KEY};
use prov_io::core::{ProvIoConfig, RdfFormat, SerializationPolicy, TrackerRegistry};
use prov_io::hpcfs::{FileSystem, LustreConfig, OpTrace, TraceOp};
use std::sync::Arc;

/// Ranks per row: two keep the whole table near a second, unoptimized.
const RANKS: u32 = 2;

/// SHA-256 of the lines below, recorded when the parity block became a
/// raw batch written in three parts.
const PINNED: &str = "1d6f0a28d22ba865f75eabd1bf01abd08bc7e8e4d970fed9235f6ebd532ecd7b";

/// Bytes the `+ parity g16` row wrote while the parity block was base64
/// or an escaped replica of the final snapshot.
const PARITY_TEXT_BYTES: u64 = 18_223_578;

/// Framed N-Triples with synchronous flushes every 1 000 records: the row
/// every plane is measured against.
fn framed() -> ProvIoConfig {
    ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .synchronous()
        .with_policy(SerializationPolicy::EveryRecords(1_000))
        .with_checksums(true)
        .with_record_latency_ns(0)
}

fn wal(cfg: ProvIoConfig) -> ProvIoConfig {
    cfg.with_wal(true, 64)
}

fn parity(cfg: ProvIoConfig) -> ProvIoConfig {
    cfg.with_parity(true, 16)
}

fn manifest(cfg: ProvIoConfig) -> ProvIoConfig {
    cfg.with_manifest(true).with_manifest_key(KEY)
}

/// The configurations, framed first.
fn configs() -> [(&'static str, ProvIoConfig); 5] {
    [
        ("framed", framed()),
        ("+ wal g64", wal(framed())),
        ("+ parity g16", parity(framed())),
        ("+ manifest", manifest(framed())),
        ("every plane", manifest(parity(wal(framed())))),
    ]
}

/// What one configuration's run cost, counted on its op trace.
#[derive(Debug, Clone, Copy)]
struct Row {
    events: u64,
    /// Commits of a snapshot or a delta segment.
    flushes: u64,
    written: u64,
    /// Bytes of the final snapshots.
    kept: u64,
    writes: u64,
    renames: u64,
    unlinks: u64,
    /// Renames that land a parity file.
    seals: u64,
}

impl Row {
    fn measure(cfg: ProvIoConfig) -> Row {
        let cfg = cfg.shared();
        let fs = FileSystem::new(LustreConfig::default());
        let trace = OpTrace::new();
        fs.attach_tracer(Arc::clone(&trace));
        let registry = TrackerRegistry::new();
        for pid in 0..RANKS {
            registry.register(pid, tracked_rank(&cfg, &fs, pid));
        }
        let summaries = registry.finish_all();
        assert!(summaries.iter().all(|(_, s)| !s.degraded && s.store_path.starts_with(DIR)));
        let stores: Vec<&str> = summaries.iter().map(|(_, s)| s.store_path.as_str()).collect();
        let lands = |new: &str| {
            stores
                .iter()
                .any(|s| new == *s || new.strip_prefix(s).is_some_and(|r| r.starts_with(".d")))
        };
        let mut row = Row {
            events: u64::from(RANKS * EVENTS_PER_RANK),
            flushes: 0,
            written: 0,
            kept: summaries.iter().map(|(_, s)| s.store_bytes).sum(),
            writes: 0,
            renames: 0,
            unlinks: 0,
            seals: 0,
        };
        for op in trace.snapshot() {
            match op {
                TraceOp::WriteAt { data, .. } => {
                    row.writes += 1;
                    row.written += data.len() as u64;
                }
                TraceOp::Rename { new, .. } => {
                    row.renames += 1;
                    row.flushes += u64::from(lands(&new));
                    row.seals += u64::from(new.ends_with(".par"));
                }
                TraceOp::Unlink { .. } => row.unlinks += 1,
                TraceOp::Create { .. } | TraceOp::Truncate { .. } => {}
            }
        }
        row
    }

    fn bytes_per_event(&self) -> f64 {
        self.written as f64 / self.events as f64
    }

    fn per_flush(&self, n: u64) -> f64 {
        n as f64 / self.flushes as f64
    }

    fn line(&self, name: &str) -> String {
        format!(
            "{name:<13} flushes={} bytes/event={:.3} write_amp={:.4} writes/flush={:.3} \
             renames/flush={:.3} unlinks/flush={:.3}",
            self.flushes,
            self.bytes_per_event(),
            self.written as f64 / self.kept as f64,
            self.per_flush(self.writes),
            self.per_flush(self.renames),
            self.per_flush(self.unlinks),
        )
    }

    /// This row against `base`: bytes as a factor, operations per flush as
    /// a difference.
    fn against(&self, base: &Row, name: &str) -> String {
        format!(
            "{name:<13} vs framed: bytes/event x{:.4} writes/flush {:+.3} renames/flush {:+.3} \
             unlinks/flush {:+.3}",
            self.bytes_per_event() / base.bytes_per_event(),
            self.per_flush(self.writes) - base.per_flush(base.writes),
            self.per_flush(self.renames) - base.per_flush(base.renames),
            self.per_flush(self.unlinks) - base.per_flush(base.unlinks),
        )
    }
}

#[test]
fn every_plane_costs_its_pinned_work() {
    let rows: Vec<(&str, Row)> = std::thread::scope(|s| {
        let runs: Vec<_> = configs()
            .into_iter()
            .map(|(name, cfg)| (name, s.spawn(|| Row::measure(cfg))))
            .collect();
        runs.into_iter()
            .map(|(name, run)| (name, run.join().expect("row ran")))
            .collect()
    });
    let mut text = String::new();
    for (name, row) in &rows {
        text += &row.line(name);
        text.push('\n');
    }
    let base = rows[0].1;
    for (name, row) in &rows[1..] {
        text += &row.against(&base, name);
        text.push('\n');
    }
    print!("{text}");
    let (framed, parity) = (&rows[0].1, &rows[2].1);
    assert!(parity.seals > 0 && parity.flushes == framed.flushes);
    assert_eq!(parity.renames - framed.renames, parity.seals, "one rename per seal");
    assert_eq!(parity.writes - framed.writes, 3 * parity.seals, "three writes per seal");
    assert!(parity.written <= PARITY_TEXT_BYTES, "{} bytes", parity.written);
    let digest = sha2::hex(&sha2::sha256(text.as_bytes()));
    assert!(
        digest == PINNED,
        "work budget changed: digest {digest}, pinned {PINNED}\n{text}"
    );
}
