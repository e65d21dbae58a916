//! Streaming provenance collection over an unreliable interconnect.
//!
//! PROV-IO's ranks persist sub-graphs locally and merge post-hoc; this
//! module lets records *flow* off the ranks while the run is in flight
//! (ROADMAP item 2, "always-on provenance service") without giving up a
//! single durability promise. The design splits cleanly in two:
//!
//! * **[`NetClient`]** — one per tracked rank. Flushed batches enter a
//!   bounded send buffer (backpressure via the store's
//!   [`OverloadPolicy`](crate::config::OverloadPolicy)) and are pushed
//!   over a seeded faulty fabric
//!   ([`NetPlan`](provio_simrt::NetPlan)) with **at-least-once**
//!   delivery: per-rank sequence numbers, ack/timeout, and the store's
//!   decorrelated-jitter backoff between retransmissions. Every attempt
//!   — including every retry — charges the rank's virtual clock with
//!   the [`CommModel`](provio_mpi::CommModel) point-to-point cost.
//! * **[`Collector`]** — the aggregator. Dedups by (rank, seq)
//!   watermark so redelivery is idempotent, feeds a live merged
//!   [`Graph`], and on a crash re-syncs from the rank-durable
//!   WAL/segments via [`merge_directory`](crate::merge_directory), so
//!   the streamed view converges to exactly what the post-hoc merge
//!   produces.
//!
//! The durability contract that makes the crash story honest: a rank
//! only offers a batch to the fabric *after*
//! [`ProvenanceStore::wal_sync`](crate::ProvenanceStore::wal_sync), so
//! **acked ⇒ journal-durable on the rank**. An aggregator crash can then
//! lose nothing that was acked — resync replays it from the journal —
//! and anything unacked is still owned (and re-sent or re-merged) by
//! its rank. This is why the `net` config knob requires `wal`.

use crate::config::{OverloadPolicy, ProvIoConfig, RetryPolicy};
use crate::merge::{merge_directory, MergeReport};
use parking_lot::Mutex;
use provio_hpcfs::FileSystem;
use provio_mpi::CommModel;
use provio_rdf::{Graph, Triple};
use provio_simrt::{DetRng, NetLink, NetPlan, SendFate, SimDuration, VirtualClock};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// `DetRng` stream id for client-side retransmission jitter, disjoint
/// from the store's flush-retry jitter stream (`0x4E77`).
const NET_JITTER_STREAM: u64 = 0x4E78;

/// Rough wire size of one streamed triple, for the cost model. Matches
/// the order of a rendered N-Triples line; exactness is irrelevant —
/// only that bigger batches cost proportionally more virtual time.
const BYTES_PER_TRIPLE: u64 = 96;

/// Per-rank receive window: the dedup watermark plus the set of
/// out-of-order sequences already seen above it.
#[derive(Debug, Default)]
struct RankWindow {
    /// All sequences below this are delivered.
    next: u64,
    /// Sequences ≥ `next` seen out of order, awaiting the gap to close.
    pending: BTreeSet<u64>,
}

/// What `RankWindow::admit` decided about a sequence number.
enum Admit {
    /// First sight; `out_of_order` when it arrived above the watermark.
    Fresh { out_of_order: bool },
    /// Already delivered (watermark or pending set): drop, but re-ack.
    Duplicate,
}

impl RankWindow {
    fn admit(&mut self, seq: u64) -> Admit {
        if seq < self.next || self.pending.contains(&seq) {
            return Admit::Duplicate;
        }
        let out_of_order = seq > self.next;
        self.pending.insert(seq);
        while self.pending.remove(&self.next) {
            self.next += 1;
        }
        Admit::Fresh { out_of_order }
    }
}

#[derive(Default)]
struct CollectorInner {
    graph: Graph,
    /// Admitted batches not yet folded into `graph` — the receive path
    /// stages and acks; indexing happens lazily on the first read.
    staged: Vec<Arc<Vec<Triple>>>,
    windows: HashMap<u32, RankWindow>,
    /// A crashed aggregator acks nothing and remembers nothing until
    /// [`Collector::resync`] rebuilds it from the rank-durable stores.
    crashed: bool,
    /// Delivery accounting; `live_triples` is read off `graph` instead.
    counts: DeliveryReport,
}

/// The aggregator end of the streaming pipeline. Shared by every rank's
/// [`NetClient`]; all state sits behind one mutex, mirroring a single
/// collection endpoint.
pub struct Collector {
    fs: Arc<FileSystem>,
    dir: String,
    plan: NetPlan,
    comm: CommModel,
    inner: Mutex<CollectorInner>,
}

impl Collector {
    /// A collector for the stores under `dir` on `fs`, reached through
    /// the fabric described by `plan`.
    pub fn new(fs: Arc<FileSystem>, dir: impl Into<String>, plan: NetPlan) -> Arc<Self> {
        Arc::new(Collector {
            fs,
            dir: dir.into(),
            plan,
            comm: CommModel::default(),
            inner: Mutex::new(CollectorInner::default()),
        })
    }

    /// Build `rank`'s client, taking delivery knobs from `cfg` (`retry`,
    /// `net_timeout_ns`, `net_buffer`, `overload_policy`).
    pub fn client(self: &Arc<Self>, rank: u32, clock: VirtualClock, cfg: &ProvIoConfig) -> Arc<NetClient> {
        self.client_with(
            rank,
            clock,
            cfg.retry,
            cfg.net_timeout_ns,
            cfg.net_buffer,
            cfg.overload,
        )
    }

    /// Build `rank`'s client with explicit delivery knobs.
    pub fn client_with(
        self: &Arc<Self>,
        rank: u32,
        clock: VirtualClock,
        retry: RetryPolicy,
        timeout_ns: u64,
        buffer: u64,
        overload: OverloadPolicy,
    ) -> Arc<NetClient> {
        Arc::new(NetClient {
            collector: Arc::clone(self),
            rank,
            clock,
            retry,
            timeout: SimDuration::from_nanos(timeout_ns.max(1)),
            capacity: buffer,
            overload,
            state: Mutex::new(ClientState {
                link: self.plan.link(rank),
                jitter_rng: DetRng::with_stream(self.plan.seed, NET_JITTER_STREAM)
                    .child(rank as u64),
                buf: VecDeque::new(),
                next_seq: 0,
                stats: NetStats::default(),
            }),
        })
    }

    /// One batch arriving off the fabric. Returns `true` when the
    /// collector acks it — including for duplicates, whose triples are
    /// dropped by the (rank, seq) watermark before touching the graph.
    /// A crashed collector refuses everything: no ack, sender times out.
    ///
    /// The receive path is O(1) in the batch size: admit the sequence,
    /// stage the (already `Arc`-shared) payload, ack. Folding staged
    /// batches into the live graph happens lazily on the first read
    /// ([`Self::graph`] / [`Self::triples`] / [`Self::report`]) — the
    /// aggregator's indexing work stays off the sender's ack latency,
    /// as on a real collection endpoint.
    fn deliver(&self, rank: u32, seq: u64, batch: &Arc<Vec<Triple>>) -> bool {
        let mut inner = self.inner.lock();
        if inner.crashed {
            inner.counts.refused_batches += 1;
            return false;
        }
        inner.counts.received_batches += 1;
        match inner.windows.entry(rank).or_default().admit(seq) {
            Admit::Duplicate => {
                inner.counts.duplicate_batches += 1;
            }
            Admit::Fresh { out_of_order } => {
                if out_of_order {
                    inner.counts.out_of_order_batches += 1;
                }
                inner.staged.push(Arc::clone(batch));
            }
        }
        true
    }

    /// Fold every staged batch into the live graph. Set semantics make
    /// the fold idempotent with whatever resync already imported.
    fn fold(inner: &mut CollectorInner) {
        for batch in std::mem::take(&mut inner.staged) {
            for t in batch.iter() {
                if inner.graph.insert(t) {
                    inner.counts.streamed_triples += 1;
                }
            }
        }
    }

    /// Kill the aggregator: the live graph, staged arrivals, the dedup
    /// windows — gone. Ranks keep streaming into timeouts until
    /// [`Self::resync`].
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.crashed = true;
        inner.counts.crashes += 1;
        inner.graph = Graph::new();
        inner.staged.clear();
        inner.windows.clear();
    }

    /// Rebuild the live view from the rank-durable stores (snapshot +
    /// delta segments + WAL replay, via [`merge_directory`]) and resume
    /// acking. Call at a barrier — the merge reads rank files, so no
    /// rank may be mid-flush. Dedup windows restart from zero; the
    /// redelivery that follows is absorbed by graph set-semantics, the
    /// same idempotence that absorbs fabric duplicates. Returns the
    /// number of triples the journal replay recovered that streaming
    /// had not yet delivered (plus the merge's own report).
    pub fn resync(&self) -> (usize, MergeReport) {
        let (merged, report) = merge_directory(&self.fs, &self.dir);
        let mut inner = self.inner.lock();
        Self::fold(&mut inner);
        let mut recovered = 0usize;
        for t in merged.iter() {
            if inner.graph.insert(&t) {
                recovered += 1;
            }
        }
        inner.windows.clear();
        inner.crashed = false;
        inner.counts.resyncs += 1;
        inner.counts.resync_triples += recovered as u64;
        (recovered, report)
    }

    /// Snapshot of the live merged graph (staged arrivals folded in).
    pub fn graph(&self) -> Graph {
        let mut inner = self.inner.lock();
        Self::fold(&mut inner);
        inner.graph.clone()
    }

    /// Triples currently in the live view (staged arrivals folded in).
    pub fn triples(&self) -> usize {
        let mut inner = self.inner.lock();
        Self::fold(&mut inner);
        inner.graph.len()
    }

    /// The fabric this collector was built over.
    pub fn plan(&self) -> &NetPlan {
        &self.plan
    }

    /// Delivery accounting so far (staged arrivals folded in).
    pub fn report(&self) -> DeliveryReport {
        let mut inner = self.inner.lock();
        Self::fold(&mut inner);
        DeliveryReport {
            live_triples: inner.graph.len() as u64,
            ..inner.counts
        }
    }
}

/// Aggregator-side delivery accounting, the collector sibling of the
/// per-rank [`NetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Batches that arrived off the fabric (every copy counted).
    pub received_batches: u64,
    /// Arrivals dropped by the (rank, seq) watermark — retransmissions
    /// and fabric duplicates, acked but never re-inserted.
    pub duplicate_batches: u64,
    /// Fresh arrivals above the watermark (a predecessor was in flight).
    pub out_of_order_batches: u64,
    /// Arrivals refused (no ack) while the aggregator was crashed.
    pub refused_batches: u64,
    /// Distinct triples the stream itself put in the live graph.
    pub streamed_triples: u64,
    /// Triples in the live view now.
    pub live_triples: u64,
    /// Aggregator crashes injected.
    pub crashes: u64,
    /// Resyncs from the rank-durable stores.
    pub resyncs: u64,
    /// Triples resync recovered that streaming had not yet delivered.
    pub resync_triples: u64,
}

impl fmt::Display for DeliveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivery: {} batches received ({} duplicates dropped, {} out of order, {} refused), \
             {} triples streamed, {} live",
            self.received_batches,
            self.duplicate_batches,
            self.out_of_order_batches,
            self.refused_batches,
            self.streamed_triples,
            self.live_triples,
        )?;
        if self.crashes > 0 {
            write!(
                f,
                "; {} collector crash(es), {} resync(s) recovering {} triples",
                self.crashes, self.resyncs, self.resync_triples
            )?;
        }
        Ok(())
    }
}

/// Per-rank sender-side delivery counters; folded into
/// [`TrackSummary`](crate::tracker::TrackSummary) at `finish`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Batches accepted into the send buffer (each gets a sequence).
    pub sent_batches: u64,
    /// Batches acked by the collector.
    pub acked_batches: u64,
    /// Retransmissions after a timeout (loss, lost ack, partition, or a
    /// crashed collector).
    pub retries: u64,
    /// Batches dropped by the `Shed` overload policy at a full buffer.
    /// Shed from the *stream only*: the records stay in the durable
    /// store and reach the merged view via resync/post-hoc merge.
    pub shed_batches: u64,
    /// Triples inside those shed batches.
    pub shed_triples: u64,
    /// Batches still unacked in the buffer (e.g. the run ended inside a
    /// partition). Accounted, not lost: the durable store has them.
    pub unacked_batches: u64,
}

struct ClientState {
    link: NetLink,
    jitter_rng: DetRng,
    /// The bounded send buffer: (seq, batch), oldest first. Batches sit
    /// behind an `Arc` so retransmissions never re-clone the payload.
    buf: VecDeque<(u64, Arc<Vec<Triple>>)>,
    next_seq: u64,
    stats: NetStats,
}

/// The rank-side end of the streaming pipeline: a bounded send buffer
/// over a faulty link, with at-least-once retransmission.
pub struct NetClient {
    collector: Arc<Collector>,
    rank: u32,
    /// The owning rank's clock; every attempt, timeout, and backoff is
    /// charged here, so an unreliable fabric costs virtual time exactly
    /// where the paper's overhead question lives.
    clock: VirtualClock,
    retry: RetryPolicy,
    timeout: SimDuration,
    /// Buffer bound in batches (0 = unbounded).
    capacity: u64,
    overload: OverloadPolicy,
    state: Mutex<ClientState>,
}

impl NetClient {
    /// Offer a batch to the stream. The caller must have made it
    /// journal-durable first (see [`crate::ProvenanceStore::wal_sync`]).
    /// With a full buffer, `Block` pumps the fabric until space frees
    /// (virtual time passes, partitions heal); `Shed` drops the batch
    /// from the stream only.
    pub fn send(&self, triples: Vec<Triple>) {
        if triples.is_empty() {
            return;
        }
        {
            let mut st = self.state.lock();
            if self.capacity > 0
                && st.buf.len() as u64 >= self.capacity
                && self.overload == OverloadPolicy::Shed
            {
                st.stats.shed_batches += 1;
                st.stats.shed_triples += triples.len() as u64;
                return;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.stats.sent_batches += 1;
            st.buf.push_back((seq, Arc::new(triples)));
        }
        self.pump();
        if self.capacity > 0 && self.overload == OverloadPolicy::Block {
            // Backpressure: the rank stalls (in virtual time) until the
            // fabric accepts enough of the backlog. Each pump charges at
            // least one timeout, so any bounded partition heals.
            while self.state.lock().buf.len() as u64 > self.capacity {
                self.pump();
            }
        }
    }

    /// Push buffered batches at the collector until the buffer empties
    /// or the head batch exhausts its retry budget (it stays buffered
    /// for the next pump — at-least-once never discards).
    pub fn pump(&self) {
        let mut st = self.state.lock();
        'batches: while let Some((seq, triples)) = st.buf.front().cloned() {
            let bytes = triples.len() as u64 * BYTES_PER_TRIPLE;
            let mut prev_delay = self.retry.backoff_ns;
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                self.clock.advance(self.collector.comm.send(bytes));
                match st.link.fate(self.clock.now()) {
                    SendFate::Delivered {
                        copies,
                        delay,
                        ack_lost,
                        reorder,
                    } => {
                        if reorder && st.buf.len() >= 2 {
                            // The fabric holds this message back; its
                            // successor overtakes it and arrives first.
                            st.buf.swap(0, 1);
                            continue 'batches;
                        }
                        self.clock.advance(delay);
                        let mut acked = false;
                        for _ in 0..copies {
                            acked = self.collector.deliver(self.rank, seq, &triples);
                            if !acked {
                                break;
                            }
                        }
                        if acked && !ack_lost {
                            self.clock.advance(self.collector.comm.recv());
                            st.stats.acked_batches += 1;
                            st.buf.pop_front();
                            continue 'batches;
                        }
                        // Ack dropped, or the collector is down: either
                        // way the sender only sees a timeout. Retrying a
                        // delivered batch is what exercises the dedup
                        // watermark.
                    }
                    SendFate::Partitioned | SendFate::LostRequest => {}
                }
                self.clock.advance(self.timeout);
                if attempt >= self.retry.max_attempts.max(1) {
                    // Budget exhausted this pump; keep the batch for the
                    // next one rather than dropping an in-flight record.
                    break 'batches;
                }
                st.stats.retries += 1;
                let delay = self.retry.next_delay(attempt, &mut prev_delay, &mut st.jitter_rng);
                self.clock.advance(SimDuration::from_nanos(delay));
            }
        }
        st.stats.unacked_batches = st.buf.len() as u64;
    }

    /// Final drain: pump until the buffer empties, giving up after
    /// `max_rounds` pumps (a fabric in a terminal partition). Returns
    /// the final counters, `unacked_batches` included.
    pub fn drain(&self, max_rounds: u32) -> NetStats {
        for _ in 0..max_rounds {
            if self.state.lock().buf.is_empty() {
                break;
            }
            self.pump();
        }
        self.stats()
    }

    /// Batches waiting in the send buffer.
    pub fn buffered(&self) -> u64 {
        self.state.lock().buf.len() as u64
    }

    /// Counters so far (`unacked_batches` reflects the buffer now).
    pub fn stats(&self) -> NetStats {
        let st = self.state.lock();
        let mut stats = st.stats;
        stats.unacked_batches = st.buf.len() as u64;
        stats
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::LustreConfig;
    use provio_rdf::ntriples;
    use provio_simrt::PartitionEpisode;

    fn fs() -> Arc<FileSystem> {
        FileSystem::new(LustreConfig::default())
    }

    fn triple(n: usize) -> Triple {
        ntriples::parse(&format!(
            "<urn:s{n}> <urn:p> <urn:o{n}> .\n"
        ))
        .unwrap()
        .iter()
        .next()
        .unwrap()
    }

    fn batch(lo: usize, hi: usize) -> Vec<Triple> {
        (lo..hi).map(triple).collect()
    }

    fn quick_client(collector: &Arc<Collector>, rank: u32) -> Arc<NetClient> {
        collector.client_with(
            rank,
            VirtualClock::new(),
            RetryPolicy {
                max_attempts: 8,
                backoff_ns: 10,
                jitter: true,
            },
            1_000,
            0,
            OverloadPolicy::Block,
        )
    }

    #[test]
    fn ideal_fabric_streams_every_triple_once() {
        let collector = Collector::new(fs(), "/provio", NetPlan::ideal(1));
        let client = quick_client(&collector, 0);
        client.send(batch(0, 10));
        client.send(batch(10, 20));
        let stats = client.drain(4);
        assert_eq!(stats.acked_batches, 2);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.unacked_batches, 0);
        assert_eq!(collector.triples(), 20);
        let rep = collector.report();
        assert_eq!(rep.duplicate_batches, 0);
        assert_eq!(rep.streamed_triples, 20);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let plan = NetPlan::ideal(7).with_duplicate(1.0);
        let collector = Collector::new(fs(), "/provio", plan);
        let client = quick_client(&collector, 0);
        client.send(batch(0, 5));
        client.drain(4);
        assert_eq!(collector.triples(), 5);
        let rep = collector.report();
        assert_eq!(rep.duplicate_batches, rep.received_batches - 1);
    }

    #[test]
    fn lost_acks_retransmit_and_dedup() {
        // Half the acks vanish: the sender retransmits batches the
        // collector already holds; the watermark absorbs every copy.
        let plan = NetPlan::ideal(11).with_ack_loss(0.5);
        let collector = Collector::new(fs(), "/provio", plan);
        let client = quick_client(&collector, 0);
        for i in 0..20 {
            client.send(batch(i * 3, (i + 1) * 3));
        }
        let stats = client.drain(16);
        assert_eq!(stats.unacked_batches, 0);
        assert_eq!(collector.triples(), 60);
        assert!(stats.retries > 0);
        assert!(collector.report().duplicate_batches > 0);
    }

    #[test]
    fn partition_buffers_then_heals() {
        let plan = NetPlan::ideal(3).with_partition(PartitionEpisode::all(0, 50_000));
        let collector = Collector::new(fs(), "/provio", plan);
        let client = quick_client(&collector, 0);
        client.send(batch(0, 4));
        // The partition spans the clock's early life; the first pumps
        // time out, the buffered batch survives, and a later pump (clock
        // past the window) delivers it.
        let stats = client.drain(64);
        assert_eq!(stats.unacked_batches, 0);
        assert!(stats.retries > 0);
        assert_eq!(collector.triples(), 4);
    }

    #[test]
    fn shed_policy_drops_from_stream_only() {
        let collector = Collector::new(
            fs(),
            "/provio",
            // A terminal partition: nothing ever delivers.
            NetPlan::ideal(5).with_partition(PartitionEpisode::all(0, u64::MAX)),
        );
        let client = collector.client_with(
            0,
            VirtualClock::new(),
            RetryPolicy {
                max_attempts: 2,
                backoff_ns: 10,
                jitter: false,
            },
            100,
            1,
            OverloadPolicy::Shed,
        );
        client.send(batch(0, 2));
        client.send(batch(2, 4)); // buffer full → shed
        let stats = client.stats();
        assert_eq!(stats.shed_batches, 1);
        assert_eq!(stats.shed_triples, 2);
        assert_eq!(stats.unacked_batches, 1);
        assert_eq!(collector.triples(), 0);
    }

    #[test]
    fn crashed_collector_refuses_then_resyncs_empty() {
        let collector = Collector::new(fs(), "/provio", NetPlan::ideal(9));
        let client = collector.client_with(
            0,
            VirtualClock::new(),
            RetryPolicy {
                max_attempts: 2,
                backoff_ns: 10,
                jitter: false,
            },
            100,
            0,
            OverloadPolicy::Block,
        );
        client.send(batch(0, 3));
        assert_eq!(collector.triples(), 3);
        collector.crash();
        client.send(batch(3, 6));
        assert_eq!(collector.triples(), 0, "crash wiped the live view");
        assert!(client.stats().unacked_batches > 0);
        assert!(collector.report().refused_batches > 0);
        // Resync against an *empty* dir recovers nothing: the first
        // batch was acked, popped, and wiped — gone, because nothing
        // durable backed the ack. This is precisely the hole the
        // config's net-requires-wal rule closes; the integration tests
        // run the full store+WAL path and lose zero acked records.
        collector.resync();
        let stats = client.drain(8);
        assert_eq!(stats.unacked_batches, 0);
        assert_eq!(collector.triples(), 3, "only the unacked batch survived");
    }

    #[test]
    fn per_rank_watermarks_are_independent() {
        let collector = Collector::new(fs(), "/provio", NetPlan::ideal(2));
        let a = quick_client(&collector, 0);
        let b = quick_client(&collector, 1);
        a.send(batch(0, 3));
        b.send(batch(100, 103));
        a.drain(2);
        b.drain(2);
        assert_eq!(collector.triples(), 6);
        assert_eq!(collector.report().duplicate_batches, 0);
    }

    #[test]
    fn reorder_swaps_arrival_order_but_not_content() {
        let plan = NetPlan::ideal(13).with_reorder(0.6);
        let collector = Collector::new(fs(), "/provio", plan);
        let client = collector.client_with(
            0,
            VirtualClock::new(),
            RetryPolicy {
                max_attempts: 8,
                backoff_ns: 10,
                jitter: false,
            },
            100,
            0,
            OverloadPolicy::Block,
        );
        // Enqueue a window of batches without pumping, so reorder fates
        // have successors to overtake; then drain.
        {
            let mut st = client.state.lock();
            for i in 0..10u64 {
                let seq = st.next_seq;
                st.next_seq += 1;
                st.stats.sent_batches += 1;
                st.buf
                    .push_back((seq, Arc::new(batch(i as usize * 2, i as usize * 2 + 2))));
            }
        }
        let stats = client.drain(8);
        assert_eq!(stats.unacked_batches, 0);
        assert_eq!(collector.triples(), 20);
        assert!(
            collector.report().out_of_order_batches > 0,
            "p=0.6 reorder over 10 queued batches must overtake at least once"
        );
    }

    #[test]
    fn retries_cost_virtual_time() {
        let clock = VirtualClock::new();
        let lossy = Collector::new(fs(), "/provio", NetPlan::ideal(17).with_loss(0.7));
        let client = lossy.client_with(
            0,
            clock.clone(),
            RetryPolicy {
                max_attempts: 16,
                backoff_ns: 100,
                jitter: true,
            },
            1_000,
            0,
            OverloadPolicy::Block,
        );
        client.send(batch(0, 8));
        client.drain(8);
        let lossy_elapsed = clock.now().as_nanos();

        let clock2 = VirtualClock::new();
        let clean = Collector::new(fs(), "/provio", NetPlan::ideal(17));
        let client2 = clean.client_with(
            0,
            clock2.clone(),
            RetryPolicy {
                max_attempts: 16,
                backoff_ns: 100,
                jitter: true,
            },
            1_000,
            0,
            OverloadPolicy::Block,
        );
        client2.send(batch(0, 8));
        client2.drain(8);
        assert!(
            lossy_elapsed > clock2.now().as_nanos(),
            "a lossy fabric must cost more virtual time than a clean one"
        );
    }
}
