//! Framework configuration.
//!
//! The paper stresses that "users can control the rich provenance features
//! through a configuration file without manually modifying their source
//! code" (§6.4, Table 4). `ProvIoConfig` is that knob set; a tiny
//! INI-style parser loads it from a file on the simulated file system.

use provio_model::{ClassSelector, TrackItem};
use std::sync::Arc;

/// On-disk RDF format of per-process sub-graph files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdfFormat {
    /// Subject-grouped Turtle, the paper's default.
    Turtle,
    /// Line-oriented N-Triples (append-friendly; used for periodic mode).
    NTriples,
}

impl RdfFormat {
    pub fn extension(self) -> &'static str {
        match self {
            RdfFormat::Turtle => "ttl",
            RdfFormat::NTriples => "nt",
        }
    }
}

/// Retry/backoff policy for durable store writes (see
/// `crate::store::ProvenanceStore`). A flush is attempted up to
/// `max_attempts` times; between attempts the writer backs off
/// exponentially starting from `backoff_ns`, charged to the issuing
/// rank's virtual clock when the write is synchronous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per flush (1 = fail fast, no retry).
    pub max_attempts: u32,
    /// Base backoff before the first retry; doubles per retry.
    pub backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ns: 1_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before the retry that follows failure number `failures`
    /// (1-based): `backoff_ns * 2^(failures-1)`, saturating.
    pub(crate) fn backoff_for(self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(20);
        self.backoff_ns.saturating_mul(1u64 << shift)
    }
}

/// What an asynchronous store does when its bounded intake queue is full
/// (see `crate::store::ProvenanceStore`). The unbounded queue this replaces
/// let a fast producer balloon memory without limit; both policies here
/// keep memory bounded and differ only in who pays:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// The pushing rank waits until the writers catch up — backpressure on
    /// the workflow's critical path, no provenance lost.
    #[default]
    Block,
    /// The batch is dropped and counted (`TrackSummary::shed_batches` /
    /// `shed_triples`) — the workflow never stalls, provenance is lossy
    /// under overload but *honestly* lossy.
    Shed,
}

/// When per-process sub-graphs are pushed to the store (paper §4.2: "the
/// serialization operation may be triggered either periodically or by the
/// end of the workflow").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerializationPolicy {
    /// Serialize once, when the tracker is finished.
    AtEnd,
    /// Push deltas to the (asynchronous) store writer every `n` records.
    EveryRecords(usize),
}

/// Full framework configuration.
#[derive(Debug, Clone)]
pub struct ProvIoConfig {
    /// Which sub-classes to track (the user-engine selector).
    pub(crate) selector: ClassSelector,
    /// Directory on the parallel file system for per-process sub-graphs.
    pub store_dir: String,
    pub(crate) policy: SerializationPolicy,
    /// The spelling of an unframed snapshot (`[store] format`); a framed
    /// one is N-Triples whatever this says. Delta segments are always
    /// N-Triples.
    pub(crate) format: RdfFormat,
    /// Serialize asynchronously on a background thread (paper default).
    /// `false` is the synchronous ablation.
    pub async_store: bool,
    /// Workflow name, recorded as the `Type` extensible node's label.
    pub workflow_type: Option<String>,
    /// Modeled per-record store latency, charged to the workflow clock on
    /// every tracked call: the call's whole cost in virtual time. The paper
    /// attributes most tracking overhead "to the latency of Redland"
    /// (§6.2); our in-memory insert is far faster than Redland librdf's, so
    /// this constant restores the paper's cost ratio. At 0 tracking is
    /// free in virtual time — a tracked and an untracked run complete at
    /// the same instant — and this implementation's native overhead is
    /// what the pipeline benchmark in `benchmark/`, which runs every
    /// workload that way, reads off the host clock.
    pub(crate) record_latency_ns: u64,
    /// Retry/backoff behavior of the durable store writer.
    pub(crate) retry: RetryPolicy,
    /// Periodic flushes append delta segments next to the committed
    /// snapshot; fold them into a fresh snapshot every this many appends
    /// (`[store] compact_every`; 0 = compact only on finish).
    pub(crate) compact_every: u32,
    /// Capacity of the async store's intake queue, in pushed batches
    /// (`[store] queue_capacity`; 0 = unbounded, the legacy behavior).
    pub queue_capacity: u64,
    /// What happens when the intake queue is full
    /// (`[store] overload_policy = block | shed`).
    pub overload: OverloadPolicy,
    /// Trip the store's circuit breaker after this many *consecutive*
    /// failed flushes (`[store] breaker_threshold`; 0 disables the
    /// breaker). While open, periodic flushes are skipped instead of
    /// hammering a failing backend; triples stay queued in memory above the
    /// watermark, so nothing is lost when the breaker closes again.
    pub breaker_threshold: u32,
    /// How long (virtual ns) an open breaker waits before letting one
    /// half-open probe flush through (`[store] breaker_backoff_ns`).
    pub(crate) breaker_backoff_ns: u64,
    /// Write sub-graph files in the checksummed framing
    /// ([`crate::frame`]): per-file identity header, per-batch CRC32
    /// frames, and a footer hash chained across the store's commits
    /// (`[store] checksum_format`). A frame's payload is N-Triples, so
    /// `format` then has nothing to pick; the file keeps its configured
    /// name. Framed files stay readable by legacy parsers (every frame
    /// line is an RDF comment, and N-Triples is valid Turtle); the merge
    /// verifies them batch by batch. `false` (the default) writes the
    /// legacy unframed format.
    pub checksum_format: bool,
    /// Keep a per-process write-ahead journal next to the store file
    /// (`[store] wal`). Tracked triples are appended to the journal in
    /// group commits of `wal_group` records *before* they are visible only
    /// in memory awaiting the next flush; after a crash the merge replays
    /// the journal above the last committed snapshot/segment watermark, so
    /// loss per crashed rank is bounded by `wal_group` records instead of
    /// "everything since the last flush". `false` (the default) preserves
    /// the flush-boundary-only durability of earlier revisions.
    pub wal: bool,
    /// Records per WAL group commit (`[store] wal_group`; must be ≥ 1).
    /// 1 = commit every record (strongest bound, highest overhead).
    pub(crate) wal_group: u32,
    /// Stream flushed batches to a live aggregator over the simulated
    /// interconnect (`[net] net`). Delivery is at-least-once (ack/timeout
    /// with the store's retry backoff) and the aggregator
    /// dedups by (rank, seq) watermark, so a lossy fabric costs retries,
    /// never correctness. Requires `wal`: an ack is only issued for
    /// records already journal-durable on the rank, which is what lets
    /// an aggregator crash re-sync from the rank-local WAL/segments with
    /// zero acked-record loss. `false` (the default) keeps the post-hoc
    /// merge-only collection of earlier revisions.
    pub net: bool,
    /// Virtual nanoseconds a rank-side client waits for an ack before
    /// retransmitting (`[net] net_timeout_ns`; must be ≥ 1 — a zero
    /// timeout would spin the retry loop without ever advancing the
    /// virtual clock past a partition window).
    pub(crate) net_timeout_ns: u64,
    /// Bound on the rank-side send buffer, in batches (`[net]
    /// net_buffer`; 0 = unbounded). When the buffer is full the
    /// `overload_policy` decides: `block` applies backpressure (the rank
    /// pumps the fabric until space frees), `shed` drops the new batch
    /// from the *stream only* — it stays in the durable store, so the
    /// post-crash resync still converges.
    pub(crate) net_buffer: u64,
    /// Maintain XOR parity over committed artifacts (`[store] parity`):
    /// every `parity_group` commits the store seals a
    /// `<snapshot>.pNNNNNN.par` file from which `scrub` can reconstruct
    /// any single lost or rotted group member byte-identical. Requires
    /// `checksum_format` (parity groups are defined over framed commits).
    /// `false` (the default) keeps the detect-and-drop behavior.
    pub parity: bool,
    /// Committed artifacts per parity group (`[store] parity_group`; must
    /// be ≥ 1). 1 = every commit gets a parity twin (replication — full
    /// coverage, full write duplication); larger groups amortize the
    /// parity volume to ~1/N of committed bytes at a tolerance of one
    /// lost member per group.
    pub(crate) parity_group: u32,
    /// Emit a signed run manifest (`<store_dir>/MANIFEST.provio`) at
    /// `finish_all` and chain its digest into the campaign ledger
    /// (`<store_dir>/CAMPAIGN.provio`) — the tamper-evidence layer on top
    /// of the (accident-evidence) checksummed format (`[store] manifest`).
    /// `false` (the default) leaves run directories unsigned; `verify`
    /// reports them `Unsigned` rather than erroring.
    pub manifest: bool,
    /// Key for the manifest's HMAC-SHA256 signature (`[store]
    /// manifest_key`). The default is deliberately insecure — a published
    /// constant — so that demos and tests work out of the box while any
    /// real deployment is forced to set its own; treat a run signed by the
    /// default key as integrity-checked, not authenticated.
    pub(crate) manifest_key: String,
}

/// Default Redland-calibrated per-record latency (see
/// [`ProvIoConfig::record_latency_ns`]).
pub(crate) const DEFAULT_RECORD_LATENCY_NS: u64 = 2_000_000;

/// Default compaction threshold, in delta segments (see
/// [`ProvIoConfig::compact_every`]).
pub(crate) const DEFAULT_COMPACT_EVERY: u32 = 64;

/// Default async intake-queue capacity, in batches (see
/// [`ProvIoConfig::queue_capacity`]). A batch is at most ~4096 records, so
/// this bounds per-store buffered memory while staying far above any rate
/// the shared writer pool cannot absorb in steady state.
pub(crate) const DEFAULT_QUEUE_CAPACITY: u64 = 1024;

/// Default open-breaker backoff (virtual ns) before a half-open probe (see
/// [`ProvIoConfig::breaker_backoff_ns`]): 100 ms of modeled time.
pub(crate) const DEFAULT_BREAKER_BACKOFF_NS: u64 = 100_000_000;

/// Default WAL group-commit size, in records (see
/// [`ProvIoConfig::wal_group`]). 64 matches the store's N-Triples batch
/// granularity: small enough that a crashed rank loses at most one short
/// burst of records, large enough to amortize the journal append.
pub(crate) const DEFAULT_WAL_GROUP: u32 = 64;

/// Default ack timeout for the streaming net client, in virtual ns (see
/// [`ProvIoConfig::net_timeout_ns`]): 10 ms of modeled time — several
/// round trips on the modeled fabric, short against partition episodes.
pub(crate) const DEFAULT_NET_TIMEOUT_NS: u64 = 10_000_000;

/// Default rank-side send-buffer bound, in batches (see
/// [`ProvIoConfig::net_buffer`]). 64 in-flight batches absorb a healthy
/// fabric's jitter while keeping a partitioned rank's buffered memory
/// bounded.
pub(crate) const DEFAULT_NET_BUFFER: u64 = 64;

/// Default manifest HMAC key (see [`ProvIoConfig::manifest_key`]): a
/// published constant, so signatures made with it prove integrity but not
/// authenticity.
pub(crate) const DEFAULT_MANIFEST_KEY: &str = "provio-insecure-default-key";

/// Default parity group width, in committed artifacts (see
/// [`ProvIoConfig::parity_group`]). 16 keeps the extra write volume near
/// 1/16 ≈ 6% of committed bytes while still tolerating one lost artifact
/// per sixteen commits; sweeps and tests narrow it for denser coverage.
pub(crate) const DEFAULT_PARITY_GROUP: u32 = 16;

impl Default for ProvIoConfig {
    fn default() -> Self {
        ProvIoConfig {
            selector: ClassSelector::all(),
            store_dir: "/provio".to_string(),
            policy: SerializationPolicy::AtEnd,
            format: RdfFormat::Turtle,
            async_store: true,
            workflow_type: None,
            record_latency_ns: DEFAULT_RECORD_LATENCY_NS,
            retry: RetryPolicy::default(),
            compact_every: DEFAULT_COMPACT_EVERY,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            overload: OverloadPolicy::Block,
            breaker_threshold: 0,
            breaker_backoff_ns: DEFAULT_BREAKER_BACKOFF_NS,
            checksum_format: false,
            wal: false,
            wal_group: DEFAULT_WAL_GROUP,
            net: false,
            net_timeout_ns: DEFAULT_NET_TIMEOUT_NS,
            net_buffer: DEFAULT_NET_BUFFER,
            parity: false,
            parity_group: DEFAULT_PARITY_GROUP,
            manifest: false,
            manifest_key: DEFAULT_MANIFEST_KEY.to_string(),
        }
    }
}

impl ProvIoConfig {
    pub fn with_selector(mut self, selector: ClassSelector) -> Self {
        self.selector = selector;
        self
    }

    pub fn with_store_dir(mut self, dir: impl Into<String>) -> Self {
        self.store_dir = dir.into();
        self
    }

    pub fn with_policy(mut self, policy: SerializationPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_format(mut self, format: RdfFormat) -> Self {
        self.format = format;
        self
    }

    pub fn synchronous(mut self) -> Self {
        self.async_store = false;
        self
    }

    pub fn with_workflow_type(mut self, t: impl Into<String>) -> Self {
        self.workflow_type = Some(t.into());
        self
    }

    /// Override the modeled per-record store latency (0 disables it).
    pub fn with_record_latency_ns(mut self, ns: u64) -> Self {
        self.record_latency_ns = ns;
        self
    }

    /// Override the store writer's retry/backoff policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Fold delta segments into a snapshot every `n` appends (0 = only on
    /// finish).
    pub fn with_compact_every(mut self, n: u32) -> Self {
        self.compact_every = n;
        self
    }

    /// Bound the async store's intake queue (`capacity` batches; 0 =
    /// unbounded) and pick the full-queue policy.
    pub fn with_queue(mut self, capacity: u64, policy: OverloadPolicy) -> Self {
        self.queue_capacity = capacity;
        self.overload = policy;
        self
    }

    /// Arm the store's circuit breaker: trip after `threshold` consecutive
    /// flush failures (0 disables), half-open probe after `backoff_ns`
    /// virtual nanoseconds.
    pub fn with_breaker(mut self, threshold: u32, backoff_ns: u64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_backoff_ns = backoff_ns;
        self
    }

    /// Write sub-graph files in the checksummed framing (off = legacy
    /// unframed format).
    pub fn with_checksums(mut self, enabled: bool) -> Self {
        self.checksum_format = enabled;
        self
    }

    /// Enable the write-ahead journal with the given group-commit size
    /// (`group` is clamped up to 1; see [`ProvIoConfig::wal_group`]).
    pub fn with_wal(mut self, enabled: bool, group: u32) -> Self {
        self.wal = enabled;
        self.wal_group = group.max(1);
        self
    }

    /// Enable live streaming to an aggregator with the given ack timeout
    /// (`timeout_ns` is clamped up to 1; see [`ProvIoConfig::net`]).
    /// Streaming rides on the journal, so callers should also arm `wal`
    /// — `from_ini` rejects the combination outright.
    pub fn with_net(mut self, enabled: bool, timeout_ns: u64) -> Self {
        self.net = enabled;
        self.net_timeout_ns = timeout_ns.max(1);
        self
    }

    /// Enable parity protection with the given group width (`group` is
    /// clamped up to 1; see [`ProvIoConfig::parity_group`]). Parity is
    /// only meaningful over framed commits, so callers should also arm
    /// `checksum_format` — `from_ini` rejects the combination outright.
    pub fn with_parity(mut self, enabled: bool, group: u32) -> Self {
        self.parity = enabled;
        self.parity_group = group.max(1);
        self
    }

    /// Emit a signed run manifest + campaign ledger entry at `finish_all`.
    /// Implies nothing about `checksum_format` — but unframed files can
    /// only be anchored by a whole-file digest, so framed stores verify at
    /// batch granularity and legacy stores as opaque blobs.
    pub fn with_manifest(mut self, enabled: bool) -> Self {
        self.manifest = enabled;
        self
    }

    /// Set the manifest signing key (see [`ProvIoConfig::manifest_key`]).
    pub fn with_manifest_key(mut self, key: impl Into<String>) -> Self {
        self.manifest_key = key.into();
        self
    }

    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Parse a configuration file (the "no source changes" interface).
    ///
    /// Recognized keys: `store_dir`, `policy` (`at_end` | `every:<n>`),
    /// `format` (`turtle` | `ntriples`), `async` (`true`/`false`),
    /// `compact_every` (`<n>` segment appends per compaction, 0 = only on
    /// finish), `queue_capacity` (`<n>` batches, 0 = unbounded),
    /// `overload_policy` (`block` | `shed`), `breaker_threshold` (`<n>`
    /// consecutive failures, 0 = disabled), `breaker_backoff_ns`,
    /// `checksum_format` (`true`/`false`, framed checksummed store files),
    /// `wal` (`true`/`false`, per-process write-ahead journal),
    /// `wal_group` (`<n>` records per WAL group commit, must be ≥ 1),
    /// `net` (`true`/`false`, stream flushed batches to a live
    /// aggregator; requires `wal`), `net_timeout_ns` (`<n>` virtual ns
    /// before retransmit, must be ≥ 1), `net_buffer` (`<n>` batches of
    /// rank-side send buffer, 0 = unbounded),
    /// `parity` (`true`/`false`, XOR parity over committed artifacts;
    /// requires `checksum_format`), `parity_group` (`<n>` commits per
    /// parity group, must be ≥ 1),
    /// `manifest` (`true`/`false`, signed run manifest + campaign ledger),
    /// `manifest_key` (HMAC key for manifest signatures),
    /// `workflow_type`, `preset` (one of the Table 3 presets),
    /// and `track`/`untrack` with a comma-separated item list
    /// (`file,dataset,attribute,duration,…`).
    pub fn from_ini(text: &str) -> Result<Self, String> {
        let mut cfg = ProvIoConfig::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key=value", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "store_dir" => cfg.store_dir = value.to_string(),
                "record_latency_ns" => cfg.record_latency_ns = parse_value(value, lineno, INT)?,
                "retry_max_attempts" => cfg.retry.max_attempts = parse_value(value, lineno, INT)?,
                "retry_backoff_ns" => cfg.retry.backoff_ns = parse_value(value, lineno, INT)?,
                "compact_every" => cfg.compact_every = parse_value(value, lineno, INT)?,
                "queue_capacity" => cfg.queue_capacity = parse_value(value, lineno, INT)?,
                "overload_policy" => cfg.overload = match value {
                    "block" => OverloadPolicy::Block,
                    "shed" => OverloadPolicy::Shed,
                    _ => return Err(format!("line {}: unknown overload policy", lineno + 1)),
                },
                "breaker_threshold" => cfg.breaker_threshold = parse_value(value, lineno, INT)?,
                "breaker_backoff_ns" => cfg.breaker_backoff_ns = parse_value(value, lineno, INT)?,
                "checksum_format" => cfg.checksum_format = parse_value(value, lineno, BOOL)?,
                "wal" => cfg.wal = parse_value(value, lineno, BOOL)?,
                "wal_group" => cfg.wal_group = parse_positive(value, lineno, key)?,
                "net" => cfg.net = parse_value(value, lineno, BOOL)?,
                "net_timeout_ns" => cfg.net_timeout_ns = parse_positive(value, lineno, key)?,
                "net_buffer" => cfg.net_buffer = parse_value(value, lineno, INT)?,
                "parity" => cfg.parity = parse_value(value, lineno, BOOL)?,
                "parity_group" => cfg.parity_group = parse_positive(value, lineno, key)?,
                "manifest" => cfg.manifest = parse_value(value, lineno, BOOL)?,
                "manifest_key" if value.is_empty() => {
                    return Err(format!("line {}: manifest_key must not be empty", lineno + 1));
                }
                "manifest_key" => cfg.manifest_key = value.to_string(),
                "workflow_type" => cfg.workflow_type = Some(value.to_string()),
                "async" => cfg.async_store = parse_value(value, lineno, BOOL)?,
                "format" => cfg.format = match value {
                    "turtle" => RdfFormat::Turtle,
                    "ntriples" => RdfFormat::NTriples,
                    _ => return Err(format!("line {}: unknown format", lineno + 1)),
                },
                "policy" => cfg.policy = match value.strip_prefix("every:") {
                    Some(n) => SerializationPolicy::EveryRecords(parse_value(n, lineno, INT)?),
                    None if value == "at_end" => SerializationPolicy::AtEnd,
                    None => return Err(format!("line {}: unknown policy", lineno + 1)),
                },
                "preset" => cfg.selector = match value {
                    "all" => ClassSelector::all(),
                    "none" => ClassSelector::none(),
                    "dassa_file" => ClassSelector::dassa_file_lineage(),
                    "dassa_dataset" => ClassSelector::dassa_dataset_lineage(),
                    "dassa_attribute" => ClassSelector::dassa_attribute_lineage(),
                    "h5bench_1" => ClassSelector::h5bench_scenario1(),
                    "h5bench_2" => ClassSelector::h5bench_scenario2(),
                    "h5bench_3" => ClassSelector::h5bench_scenario3(),
                    "topreco" => ClassSelector::topreco(),
                    _ => return Err(format!("line {}: unknown preset", lineno + 1)),
                },
                "track" | "untrack" => {
                    for item in value.split(',') {
                        let it = parse_item(item.trim())
                            .ok_or_else(|| format!("line {}: unknown item {item}", lineno + 1))?;
                        if key == "track" {
                            cfg.selector.enable(it);
                        } else {
                            cfg.selector.disable(it);
                        }
                    }
                }
                other => return Err(format!("line {}: unknown key {other}", lineno + 1)),
            }
        }
        // Cross-key validation (after the loop: ini files are order-free).
        // Parity groups are defined over framed commits — without the
        // checksummed format there are no member CRCs to record and no
        // Merkle roots for scrub to restore, so the combination is a
        // configuration error, not a silent no-op.
        if cfg.parity && !cfg.checksum_format {
            return Err("parity requires checksum_format = true".to_string());
        }
        // Streaming acks promise "journal-durable on the rank"; without
        // the WAL there is nothing for an aggregator-crash resync to
        // replay above the last flush, so acked records could silently
        // vanish — a configuration error, not a weaker mode.
        if cfg.net && !cfg.wal {
            return Err("net requires wal = true (resync replays the journal)".to_string());
        }
        Ok(cfg)
    }
}

const INT: &str = "integer";
const BOOL: &str = "bool";

/// Parse one scalar ini value; `what` names the expected kind in the
/// error (`line N: bad integer`).
fn parse_value<T: std::str::FromStr>(value: &str, lineno: usize, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("line {}: bad {what}", lineno + 1))
}

/// An integer knob whose zero would disable the mechanism it sizes.
fn parse_positive<T>(value: &str, lineno: usize, key: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let n: T = parse_value(value, lineno, INT)?;
    if n == T::default() {
        return Err(format!("line {}: {key} must be >= 1", lineno + 1));
    }
    Ok(n)
}

fn parse_item(s: &str) -> Option<TrackItem> {
    use provio_model::{ActivityClass as Ac, AgentClass as Ag, EntityClass as E, ExtensibleClass as X};
    Some(match s {
        "directory" => E::Directory.into(),
        "file" => E::File.into(),
        "group" => E::Group.into(),
        "dataset" => E::Dataset.into(),
        "attribute" => E::Attribute.into(),
        "datatype" => E::Datatype.into(),
        "link" => E::Link.into(),
        "create" => Ac::Create.into(),
        "open" => Ac::Open.into(),
        "read" => Ac::Read.into(),
        "write" => Ac::Write.into(),
        "fsync" => Ac::Fsync.into(),
        "rename" => Ac::Rename.into(),
        "user" => Ag::User.into(),
        "thread" => Ag::Thread.into(),
        "program" => Ag::Program.into(),
        "type" => X::Type.into(),
        "configuration" => X::Configuration.into(),
        "metrics" => X::Metrics.into(),
        "duration" => TrackItem::Duration,
        "bytes" => TrackItem::ByteCounts,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_model::{ActivityClass, EntityClass};

    #[test]
    fn defaults_are_sane() {
        let c = ProvIoConfig::default();
        assert_eq!(c.policy, SerializationPolicy::AtEnd);
        assert_eq!(c.format, RdfFormat::Turtle);
        assert!(c.async_store);
        assert_eq!(c.selector.enabled_count(), 21);
    }

    #[test]
    fn builder_chain() {
        let c = ProvIoConfig::default()
            .with_store_dir("/x")
            .with_policy(SerializationPolicy::EveryRecords(64))
            .with_format(RdfFormat::NTriples)
            .synchronous()
            .with_workflow_type("Synthetic");
        assert_eq!(c.store_dir, "/x");
        assert!(!c.async_store);
        assert_eq!(c.workflow_type.as_deref(), Some("Synthetic"));
    }

    #[test]
    fn ini_full_round() {
        let c = ProvIoConfig::from_ini(
            "# PROV-IO config\n\
             [provio]\n\
             store_dir = /prov\n\
             policy = every:128\n\
             format = ntriples\n\
             async = false\n\
             preset = dassa_file\n\
             track = dataset, duration\n\
             untrack = rename\n\
             workflow_type = Acoustic Sensing\n",
        )
        .unwrap();
        assert_eq!(c.store_dir, "/prov");
        assert_eq!(c.policy, SerializationPolicy::EveryRecords(128));
        assert_eq!(c.format, RdfFormat::NTriples);
        assert!(!c.async_store);
        assert!(c.selector.is_enabled(EntityClass::Dataset));
        assert!(c.selector.is_enabled(provio_model::TrackItem::Duration));
        assert!(!c.selector.is_enabled(ActivityClass::Rename));
        assert_eq!(c.workflow_type.as_deref(), Some("Acoustic Sensing"));
    }

    #[test]
    fn ini_rejects_garbage() {
        assert!(ProvIoConfig::from_ini("nonsense").is_err());
        assert!(ProvIoConfig::from_ini("policy = sometimes").is_err());
        assert!(ProvIoConfig::from_ini("track = telepathy").is_err());
        assert!(ProvIoConfig::from_ini("zzz = 1").is_err());
    }

    #[test]
    fn retry_knobs_from_ini_and_backoff_curve() {
        let c = ProvIoConfig::from_ini(
            "retry_max_attempts = 5\nretry_backoff_ns = 1000\n",
        )
        .unwrap();
        assert_eq!(c.retry.max_attempts, 5);
        assert_eq!(c.retry.backoff_ns, 1000);
        assert_eq!(c.retry.backoff_for(1), 1000);
        assert_eq!(c.retry.backoff_for(2), 2000);
        assert_eq!(c.retry.backoff_for(3), 4000);
        // Saturates instead of overflowing for absurd failure counts.
        let absurd = RetryPolicy {
            max_attempts: 2,
            backoff_ns: u64::MAX,
        };
        assert!(absurd.backoff_for(40) > 0);
    }

    #[test]
    fn delta_knobs_default_and_ini() {
        let c = ProvIoConfig::default();
        assert_eq!(c.compact_every, DEFAULT_COMPACT_EVERY);
        let c = ProvIoConfig::from_ini("[store]\ncompact_every = 7\n").unwrap();
        assert_eq!(c.compact_every, 7);
        assert!(ProvIoConfig::from_ini("compact_every = lots").is_err());
        assert_eq!(ProvIoConfig::default().with_compact_every(3).compact_every, 3);
    }

    #[test]
    fn removed_knobs_are_unknown_keys_and_scalar_errors_are_uniform() {
        for key in [
            "delta_segments = true",
            "merge_threads = 4",
            "query_budget = 500",
            "retry_jitter = true",
        ] {
            let err = ProvIoConfig::from_ini(&format!("[store]\n{key}\n")).unwrap_err();
            assert!(err.starts_with("line 2: unknown key"), "{key}: {err}");
        }
        for key in ["record_latency_ns", "compact_every", "wal_group", "net_timeout_ns"] {
            let err = ProvIoConfig::from_ini(&format!("{key} = lots")).unwrap_err();
            assert_eq!(err, "line 1: bad integer", "{key}");
        }
        let err = ProvIoConfig::from_ini("\npolicy = every:soon").unwrap_err();
        assert_eq!(err, "line 2: bad integer");
        for key in ["async", "checksum_format", "wal", "net", "parity", "manifest"] {
            let err = ProvIoConfig::from_ini(&format!("{key} = perhaps")).unwrap_err();
            assert_eq!(err, "line 1: bad bool", "{key}");
        }
    }

    #[test]
    fn resilience_knobs_default_builder_and_ini() {
        let c = ProvIoConfig::default();
        assert_eq!(c.queue_capacity, DEFAULT_QUEUE_CAPACITY);
        assert_eq!(c.overload, OverloadPolicy::Block);
        assert_eq!(c.breaker_threshold, 0, "breaker off unless armed");
        assert_eq!(c.breaker_backoff_ns, DEFAULT_BREAKER_BACKOFF_NS);

        let c = ProvIoConfig::default()
            .with_queue(16, OverloadPolicy::Shed)
            .with_breaker(3, 5_000);
        assert_eq!(c.queue_capacity, 16);
        assert_eq!(c.overload, OverloadPolicy::Shed);
        assert_eq!(c.breaker_threshold, 3);
        assert_eq!(c.breaker_backoff_ns, 5_000);

        let c = ProvIoConfig::from_ini(
            "[store]\n\
             queue_capacity = 8\n\
             overload_policy = shed\n\
             breaker_threshold = 4\n\
             breaker_backoff_ns = 2000\n",
        )
        .unwrap();
        assert_eq!(c.queue_capacity, 8);
        assert_eq!(c.overload, OverloadPolicy::Shed);
        assert_eq!(c.breaker_threshold, 4);
        assert_eq!(c.breaker_backoff_ns, 2000);
        assert!(ProvIoConfig::from_ini("overload_policy = panic").is_err());
        assert!(ProvIoConfig::from_ini("breaker_threshold = many").is_err());
    }

    #[test]
    fn checksum_knob_default_builder_and_ini() {
        assert!(
            !ProvIoConfig::default().checksum_format,
            "legacy format unless asked"
        );
        assert!(ProvIoConfig::default().with_checksums(true).checksum_format);
        let c = ProvIoConfig::from_ini("[store]\nchecksum_format = true\n").unwrap();
        assert!(c.checksum_format);
        assert!(ProvIoConfig::from_ini("checksum_format = sure").is_err());
    }

    #[test]
    fn wal_knobs_default_builder_and_ini() {
        let c = ProvIoConfig::default();
        assert!(!c.wal, "journal off unless asked");
        assert_eq!(c.wal_group, DEFAULT_WAL_GROUP);

        let c = ProvIoConfig::default().with_wal(true, 16);
        assert!(c.wal);
        assert_eq!(c.wal_group, 16);
        // The builder clamps a nonsensical group size instead of storing 0.
        assert_eq!(ProvIoConfig::default().with_wal(true, 0).wal_group, 1);

        let c = ProvIoConfig::from_ini("[store]\nwal = true\nwal_group = 8\n").unwrap();
        assert!(c.wal);
        assert_eq!(c.wal_group, 8);

        // Round-trip of just `wal` keeps the default group size.
        let c = ProvIoConfig::from_ini("wal = true\n").unwrap();
        assert!(c.wal);
        assert_eq!(c.wal_group, DEFAULT_WAL_GROUP);

        assert!(ProvIoConfig::from_ini("wal = maybe").is_err());
        assert!(ProvIoConfig::from_ini("wal_group = many").is_err());
        let err = ProvIoConfig::from_ini("wal = true\nwal_group = 0\n").unwrap_err();
        assert!(err.contains("wal_group must be >= 1"), "err: {err}");
    }

    #[test]
    fn parity_knobs_default_builder_and_ini() {
        let c = ProvIoConfig::default();
        assert!(!c.parity, "parity off unless asked");
        assert_eq!(c.parity_group, DEFAULT_PARITY_GROUP);

        let c = ProvIoConfig::default().with_parity(true, 4);
        assert!(c.parity);
        assert_eq!(c.parity_group, 4);
        // The builder clamps a nonsensical group size instead of storing 0.
        assert_eq!(ProvIoConfig::default().with_parity(true, 0).parity_group, 1);

        let c = ProvIoConfig::from_ini(
            "[store]\nchecksum_format = true\nparity = true\nparity_group = 3\n",
        )
        .unwrap();
        assert!(c.parity && c.checksum_format);
        assert_eq!(c.parity_group, 3);

        // Round-trip of just `parity` keeps the default group width.
        let c = ProvIoConfig::from_ini("checksum_format = true\nparity = true\n").unwrap();
        assert_eq!(c.parity_group, DEFAULT_PARITY_GROUP);

        assert!(ProvIoConfig::from_ini("parity = maybe").is_err());
        assert!(ProvIoConfig::from_ini("parity_group = many").is_err());
        let err = ProvIoConfig::from_ini(
            "checksum_format = true\nparity = true\nparity_group = 0\n",
        )
        .unwrap_err();
        assert!(err.contains("parity_group must be >= 1"), "err: {err}");

        // Parity without the framed format is rejected, in either key order.
        let err = ProvIoConfig::from_ini("parity = true\n").unwrap_err();
        assert!(err.contains("requires checksum_format"), "err: {err}");
        let err =
            ProvIoConfig::from_ini("parity = true\nchecksum_format = false\n").unwrap_err();
        assert!(err.contains("requires checksum_format"), "err: {err}");
        // A bare parity_group (tuning a disabled feature) stays legal.
        assert!(ProvIoConfig::from_ini("parity_group = 5\n").is_ok());
    }

    #[test]
    fn net_knobs_default_builder_and_ini() {
        let c = ProvIoConfig::default();
        assert!(!c.net, "post-hoc merge only unless asked");
        assert_eq!(c.net_timeout_ns, DEFAULT_NET_TIMEOUT_NS);
        assert_eq!(c.net_buffer, DEFAULT_NET_BUFFER);

        let c = ProvIoConfig::default().with_net(true, 5_000_000);
        assert!(c.net);
        assert_eq!(c.net_timeout_ns, 5_000_000);
        // The builder clamps a nonsensical timeout instead of storing 0.
        assert_eq!(ProvIoConfig::default().with_net(true, 0).net_timeout_ns, 1);

        let c = ProvIoConfig::from_ini(
            "[net]\nwal = true\nnet = true\nnet_timeout_ns = 2000000\nnet_buffer = 4\n",
        )
        .unwrap();
        assert!(c.net && c.wal);
        assert_eq!(c.net_timeout_ns, 2_000_000);
        assert_eq!(c.net_buffer, 4);

        // Round-trip of just `net` keeps the default timeout and buffer.
        let c = ProvIoConfig::from_ini("wal = true\nnet = true\n").unwrap();
        assert_eq!(c.net_timeout_ns, DEFAULT_NET_TIMEOUT_NS);
        assert_eq!(c.net_buffer, DEFAULT_NET_BUFFER);

        assert!(ProvIoConfig::from_ini("net = maybe").is_err());
        assert!(ProvIoConfig::from_ini("net_timeout_ns = soon").is_err());
        assert!(ProvIoConfig::from_ini("net_buffer = lots").is_err());
    }

    #[test]
    fn net_timeout_zero_is_rejected() {
        let err =
            ProvIoConfig::from_ini("wal = true\nnet = true\nnet_timeout_ns = 0\n").unwrap_err();
        assert!(err.contains("net_timeout_ns must be >= 1"), "err: {err}");
    }

    #[test]
    fn net_without_wal_is_rejected() {
        // In either key order: cross-key validation runs after the loop.
        let err = ProvIoConfig::from_ini("net = true\n").unwrap_err();
        assert!(err.contains("net requires wal"), "err: {err}");
        let err = ProvIoConfig::from_ini("net = true\nwal = false\n").unwrap_err();
        assert!(err.contains("net requires wal"), "err: {err}");
        // Tuning knobs of a disabled feature stay legal without `wal`.
        assert!(ProvIoConfig::from_ini("net_timeout_ns = 5\nnet_buffer = 2\n").is_ok());
    }

    #[test]
    fn manifest_knobs_default_builder_and_ini() {
        let c = ProvIoConfig::default();
        assert!(!c.manifest, "unsigned unless asked");
        assert_eq!(c.manifest_key, DEFAULT_MANIFEST_KEY);

        let c = ProvIoConfig::default()
            .with_manifest(true)
            .with_manifest_key("campaign-7-signing-key");
        assert!(c.manifest);
        assert_eq!(c.manifest_key, "campaign-7-signing-key");

        let c = ProvIoConfig::from_ini(
            "[store]\nmanifest = true\nmanifest_key = s3cret\n",
        )
        .unwrap();
        assert!(c.manifest);
        assert_eq!(c.manifest_key, "s3cret");

        // `manifest` alone keeps the (insecure, published) default key.
        let c = ProvIoConfig::from_ini("manifest = true\n").unwrap();
        assert_eq!(c.manifest_key, DEFAULT_MANIFEST_KEY);

        assert!(ProvIoConfig::from_ini("manifest = sure").is_err());
        let err = ProvIoConfig::from_ini("manifest_key =\n").unwrap_err();
        assert!(err.contains("must not be empty"), "err: {err}");
    }

    #[test]
    fn format_extensions() {
        assert_eq!(RdfFormat::Turtle.extension(), "ttl");
        assert_eq!(RdfFormat::NTriples.extension(), "nt");
    }
}
