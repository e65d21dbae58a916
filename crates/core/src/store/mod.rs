//! The Provenance Store: durable, per-process RDF sub-graphs.
//!
//! Each tracked process owns one store writing a unique file under the
//! configured directory on the parallel file system — "PROV-IO maintains an
//! in-memory sub-graph for each process and lets the process serialize its
//! own sub-graph to a unique RDF file on disk" (paper §5). Serialization is
//! asynchronous by default: batches are applied by a small shared writer
//! pool (thousands of per-rank stores may be live at H5bench scale, so a
//! thread per store would exhaust the host), and the workflow's critical
//! path only pays for enqueueing. The pool runs one store's jobs in the
//! order they were submitted, so both modes commit the same bytes. The
//! synchronous mode exists as the ablation the paper's design argues
//! against.
//!
//! # Incremental flushing: snapshot + delta segments
//!
//! Re-serializing the whole sub-graph on every periodic flush is O(n) per
//! flush — O(n²) over a run — and the paper's tracking-overhead numbers
//! (§6.2) hinge on the flush path staying off the workflow's critical
//! path. The store therefore persists incrementally:
//!
//! * The first flush writes a full **snapshot** to the committed path in
//!   the configured format (Turtle or N-Triples).
//! * Every later flush serializes only the triples inserted since the last
//!   persisted point — tracked by a *watermark* into the graph's
//!   insertion-ordered id-triples — and appends them as a new **delta
//!   segment** `<path>.dNNNNNN.nt` (always N-Triples: line-oriented, so a
//!   torn segment salvages by prefix).
//! * `finish` (and every `compact_every` delta appends) **compacts**:
//!   writes a fresh full snapshot and unlinks the segments it folded in.
//!
//! Every file (snapshot or segment) is committed crash-consistently:
//! serialized to `<file>.tmp`, then atomically renamed. A reader — the
//! post-run merge — reads the snapshot plus all live segments; duplicate
//! triples collapse on merge, so compaction racing a crash can only
//! duplicate data, never lose it.
//!
//! # Off-lock serialization
//!
//! The graph lives under a *state* lock that `push` takes briefly; all file
//! I/O serializes under a separate *io* lock. A flush holds the state lock
//! only for a [`provio_rdf::Capture`]: the id-triples it is about to write
//! (everything for a snapshot, the range above the watermark for a delta),
//! renumbered densely, and one `Arc` clone per distinct term they name —
//! one pass over the ids, no index read, no interner or graph copied.
//! Rendering works on that capture alone and, like the disk writes, happens
//! outside the state lock, so concurrent `push` calls never stall behind
//! serialization. The writers allocate buffers, not strings: Turtle spells
//! each captured term once into one arena and groups subjects by sorting
//! the ids; N-Triples spells every line into one block and hands the frame
//! encoder sorted slices of it.
//!
//! A snapshot is two halves: [`Inner::render`] captures and renders (and
//! frames) the graph and issues no file-system operation; [`Inner::commit`]
//! only writes. Periodic flushes run them back to back. The final flush
//! exposes them separately ([`ProvenanceStore::render_final`],
//! [`ProvenanceStore::commit_final`]) so a registry can render every rank's
//! snapshot in parallel and still issue all file-system operations from one
//! thread in pid order.
//!
//! # One landing routine, optional planes
//!
//! Snapshots and delta segments reach the disk through one routine,
//! [`IoState::land`]: commit with retry, then — only for a durable file —
//! advance the frame identity, cache the Merkle root, fold the commit into
//! parity, update the segment ledger, recycle the journal. The optional
//! planes are values it calls at one point each, not modes of the flush
//! path: the journal is an `Option<`[`journal::Journal`]`>`, parity an
//! `Option<`[`parity::Parity`]`>` whose commit plane and journal plane are
//! two [`parity::ParityGroup`]s, the circuit breaker a [`breaker::Breaker`]
//! and the async intake queue lives in [`intake`]. Every plane has exactly
//! one implementation, so there is no plane trait.
//!
//! # Crash consistency
//!
//! Transient errors (`EIO`, `ENOSPC`) are retried under a [`RetryPolicy`]
//! with exponential backoff charged to the issuing rank's virtual clock;
//! permanent or exhausted failures flip the store into a *degraded* state:
//! the in-memory graph is kept, the watermark is rewound so the failed
//! delta is retried by the next flush (same segment name — the atomic
//! rename makes the retry idempotent), the dropped flush is counted, and
//! the last error is surfaced through the tracker summary instead of being
//! silently reported as zero stored bytes. A fired crash point kills the
//! writer for good; whatever the crash tore is salvaged at merge time.
//!
//! # Backpressure and the circuit breaker
//!
//! The async intake queue is **bounded** ([`ProvenanceStore::with_queue`]):
//! when a producer outruns the writer pool, the store either blocks the
//! pushing rank until the writers catch up ([`OverloadPolicy::Block`], the
//! default — provenance-complete, workflow pays) or sheds the batch and
//! counts it ([`OverloadPolicy::Shed`] — workflow never stalls, loss is
//! reported in `TrackSummary`). Memory stays bounded either way.
//!
//! A **circuit breaker** ([`ProvenanceStore::with_breaker`]) stops a store
//! from hammering a persistently failing backend: after `threshold`
//! consecutive flush failures it opens and periodic flushes are *skipped*
//! (counted, and harmless — unflushed triples stay above the watermark).
//! After a backoff interval on the virtual clock the breaker half-opens and
//! lets one probe flush through; success closes it, failure re-opens it.
//! `finish` always attempts the final snapshot regardless of breaker state.
//!
//! # Checksummed framing
//!
//! With [`ProvenanceStore::with_checksums`] every committed file is wrapped
//! in the [`crate::frame`] format: a header carrying the store GUID and the
//! file's ordinal in this store's commit sequence, per-batch CRC-32 frames
//! over the payload, and a footer whose chain value links each file to its
//! predecessor. The ordinal and chain advance only on a *successful*
//! commit, so a failed flush retries under the same identity and the
//! on-disk chain never skips. All frame lines are `#` comments, so a
//! framed file is still parseable by any legacy reader; merge-side
//! verification is where the checksums pay off (see [`crate::merge`]).
//!
//! # The write-ahead journal
//!
//! Everything above bounds what a *flush* can lose; nothing bounds what a
//! *crash between flushes* loses — every triple above the watermark dies
//! with the process. `ProvenanceStore::with_wal` closes that gap: each
//! pushed record is rendered as one N-Triples line and appended to a
//! journal generation file `<path>.wNNNNNN.nt` in **group commits** of
//! `wal_group` records. A group commit is one self-contained
//! `FrameKind::Wal` frame whose `ordinal` is the record ordinal of its
//! first line (record ordinals are the graph's insertion indices, so the
//! journal and the committed files speak the same coordinate system) and
//! whose `prev` chains it to the previous chunk in the generation. Flush
//! boundaries force the partial group out, so the journal always covers at
//! least everything a flush is about to commit.
//!
//! After a *successful* flush the journal is recycled: buffered records are
//! discarded (the commit covers them), the generation file is unlinked, and
//! the next append opens a fresh generation via the same tmp+rename
//! discipline as segments. A crash between "segment commit" and "journal
//! unlink" merely leaves a stale generation whose records the merge
//! deduplicates by ordinal against the committed files — never a double
//! count. A crash mid-append leaves a torn chunk the frame CRCs catch; the
//! merge truncates the journal's tail there and replays the verified
//! prefix. Net contract: with the WAL on, a crashed rank loses at most
//! `wal_group` records (the unforced tail of the last group), and the loss
//! is reported, not silent.

mod breaker;
mod intake;
mod journal;
mod parity;

pub use crate::config::DEFAULT_COMPACT_EVERY;
pub use breaker::BreakerState;

use crate::artifact::{MemberCheck, ParityMember, RootCache};
use crate::config::{OverloadPolicy, RdfFormat, RetryPolicy};
use crate::frame::{self, FrameKind};
use crate::fsio::commit_atomic;
use crate::names::{self, Role, State};
use breaker::Breaker;
use intake::InFlight;
use journal::Journal;
use parity::{Parity, Plane};
use parking_lot::Mutex;
use provio_hpcfs::{FileSystem, FsError};
use provio_rdf::{ntriples, turtle, Capture, Graph, Namespaces, TermId, Triple};
use provio_simrt::{DetRng, SimDuration, SimTime, VirtualClock};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// RNG stream for decorrelated retry jitter, carved out of the store GUID
/// so backoff draws never perturb any workload or fault stream.
const RETRY_JITTER_STREAM: u64 = 0x4E77;

/// Lines per CRC frame for line-oriented (N-Triples) payloads: small
/// enough that one corrupt region loses little, large enough that marker
/// overhead stays negligible.
const NT_BATCH_LINES: usize = 64;

/// The in-memory sub-graph plus the serialization high-water mark: how many
/// entries of the graph's insertion order are already durable (in the
/// snapshot or a committed segment). `push` takes only this lock.
struct GraphState {
    graph: Graph,
    watermark: usize,
}

/// What a commit file's bytes depend on besides the triples: the format
/// and the frame identity (store GUID, commit ordinal, chain predecessor)
/// they are rendered under. Ordinal and chain advance only on a successful
/// framed commit, so a failed flush retries under the same identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameSeat {
    /// Commit every file in the checksummed frame format (see
    /// [`crate::frame`]); plain serialization when off.
    checksums: bool,
    format: RdfFormat,
    guid: u64,
    ordinal: u64,
    chain: u32,
}

/// One commit file, rendered: its bytes and, when framed, the chain value
/// and Merkle root its footer carries.
struct Rendered {
    bytes: Vec<u8>,
    footer: Option<(u32, [u8; 32])>,
}

impl Rendered {
    fn plain(bytes: Vec<u8>) -> Self {
        Rendered {
            bytes,
            footer: None,
        }
    }
}

/// The N-Triples commit file holding `capture`'s triples under `seat`:
/// sorted lines, framed — when the seat says so — while still cache-hot, as
/// slices of the one block they were rendered into, in fine-grained
/// batches: N-Triples is line-oriented, so intact batches salvage safely
/// around a corrupt one.
fn render_lines(capture: &Capture, seat: FrameSeat, kind: FrameKind) -> Rendered {
    let term_of = |id: u32| &capture.terms[id as usize];
    if !seat.checksums {
        return Rendered::plain(ntriples::sorted_block(&capture.ids, term_of).into_bytes());
    }
    let rendered = ntriples::lines(&capture.ids, term_of);
    let lines = rendered.sorted();
    let mut enc = frame::Encoder::new(kind, seat.guid, seat.ordinal, seat.chain);
    enc.reserve(lines.iter().map(|l| l.len() + 1).sum());
    for chunk in lines.chunks(NT_BATCH_LINES) {
        enc.batch(chunk);
    }
    let (bytes, chain, root) = enc.finish_with_root();
    Rendered {
        bytes,
        footer: Some((chain, root)),
    }
}

/// Render a full snapshot of the captured graph under `seat`.
fn render_snapshot(capture: &Capture, seat: FrameSeat) -> Rendered {
    if seat.format == RdfFormat::NTriples {
        return render_lines(capture, seat, FrameKind::Snapshot);
    }
    let text = turtle::serialize_capture(capture, &Namespaces::standard());
    if !seat.checksums {
        return Rendered::plain(text.into_bytes());
    }
    // Turtle statements span lines, and splicing verified fragments across
    // a dropped batch could forge triples — a Turtle snapshot is one
    // all-or-nothing batch.
    let (framed, chain, root) = frame::encode_with_root(
        FrameKind::Snapshot,
        seat.guid,
        seat.ordinal,
        seat.chain,
        &text,
        usize::MAX,
    );
    Rendered {
        bytes: framed.into_bytes(),
        footer: Some((chain, root)),
    }
}

/// A snapshot rendered but not yet committed — what travels from
/// [`ProvenanceStore::render_final`] to [`ProvenanceStore::commit_final`].
pub(crate) struct RenderedSnapshot {
    rendered: Rendered,
    /// Graph length the bytes cover: the watermark once they are durable.
    captured: usize,
    seat: FrameSeat,
}

/// The delta-segment ledger of one store.
#[derive(Default)]
struct Segments {
    /// Committed, not-yet-compacted segment paths, oldest first.
    live: Vec<String>,
    /// Sequence number of the next segment. Only advanced on a successful
    /// commit, so a failed append retries under the same name.
    next: u64,
    since_snapshot: u32,
    /// Fold segments into a fresh snapshot every this many appends (0 =
    /// only on `finish`).
    compact_every: u32,
    /// A full snapshot exists at the committed path: later flushes append
    /// segments.
    snapshot_done: bool,
}

/// Everything the flush path owns: identity, retry/degradation
/// bookkeeping, the segment ledger and the optional planes. Holding this
/// lock serializes flushes without blocking `push`.
struct IoState {
    fs: Arc<FileSystem>,
    path: String,
    seat: FrameSeat,
    retry: RetryPolicy,
    /// Per-store stream for decorrelated retry jitter (seeded from the
    /// store GUID, so N ranks' delays diverge deterministically).
    retry_rng: DetRng,
    /// Last flush failed permanently; the in-memory graph is still intact.
    degraded: bool,
    /// A crash point fired mid-flush: this writer's process is dead. No
    /// further writes are attempted (recovery belongs to the merge layer).
    crashed: bool,
    dropped_flushes: u64,
    /// Commit attempts that failed transiently and were retried (whether
    /// or not the flush eventually succeeded). Without this a retried
    /// flush that recovers is invisible in the summary — `degraded`
    /// only flips when the whole policy is exhausted.
    flush_retries: u64,
    last_error: Option<FsError>,
    segments: Segments,
    /// Graph length the last successful final flush made durable.
    finished: Option<usize>,
    breaker: Breaker,
    /// Time source for breaker backoff when a flush carries no charge
    /// clock (async flushes): the owning rank's clock, if wired via
    /// [`ProvenanceStore::with_clock`].
    clock: Option<VirtualClock>,
    /// Commit-time Merkle roots of the framed files this store has on
    /// disk, so the sealing pass does not re-read and re-CRC files whose
    /// roots the encoder already folded for the footer. Entries for
    /// compacted-away segments and retired parity files drop with them.
    roots: RootCache,
    /// The write-ahead journal, when on (see [`ProvenanceStore::with_wal`]).
    journal: Option<Journal>,
    /// XOR parity over committed artifacts, when on (see
    /// [`ProvenanceStore::with_parity`]).
    parity: Option<Parity>,
}

impl IoState {
    /// The breaker's notion of "now": the charge clock if the flush carries
    /// one, else the owning rank's wired clock, else the epoch (which makes
    /// an un-clocked open breaker effectively permanent until `finish`).
    fn now(&self, charge: Option<&VirtualClock>) -> SimTime {
        charge
            .or(self.clock.as_ref())
            .map(VirtualClock::now)
            .unwrap_or(SimTime::ZERO)
    }

    /// A plane's write failed: leave the trace, and if a crash point fired
    /// the writer is dead as everywhere else. Short of that the run goes on
    /// — the journal retries at the next group boundary, a lost parity seal
    /// costs only redundancy.
    fn note_plane_error(&mut self, e: FsError) {
        self.last_error = Some(e);
        if e == FsError::Crashed {
            self.crashed = true;
            self.degraded = true;
        }
    }

    /// Commit `bytes` to `dst` with the retry/backoff policy, updating the
    /// degradation bookkeeping. Returns `true` when `dst` is durable.
    fn commit_with_retry(&mut self, dst: &str, bytes: &[u8], charge: Option<&VirtualClock>) -> bool {
        let mut failures = 0u32;
        let mut prev_delay = self.retry.backoff_ns;
        loop {
            match commit_atomic(&self.fs, dst, bytes) {
                Ok(()) => {
                    self.degraded = false;
                    self.breaker.note_success();
                    return true;
                }
                Err(FsError::Crashed) => {
                    // The process died mid-flush: no retry, no cleanup.
                    // A leftover tmp prefix is salvaged at merge time.
                    self.note_plane_error(FsError::Crashed);
                    self.dropped_flushes += 1;
                    return false;
                }
                Err(e) => {
                    failures += 1;
                    self.last_error = Some(e);
                    if e.is_transient() && failures < self.retry.max_attempts {
                        self.flush_retries += 1;
                        // Jitter draws from the store's own seeded stream,
                        // so ranks tripped by one shared episode spread out
                        // instead of retrying in lockstep.
                        let delay = self
                            .retry
                            .next_delay(failures, &mut prev_delay, &mut self.retry_rng);
                        if let Some(clock) = charge {
                            clock.advance(SimDuration::from_nanos(delay));
                        }
                        continue;
                    }
                    self.degraded = true;
                    self.dropped_flushes += 1;
                    let now = self.now(charge);
                    self.breaker.note_failure(now);
                    return false;
                }
            }
        }
    }

    /// Group-commit the journal's buffered records (see
    /// [`Journal::append`]), the chunks that land joining the journal-plane
    /// parity group.
    fn journal_commit(&mut self, force: bool) {
        if self.crashed {
            return;
        }
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        // Parity is only live over framed commits: repair promises to
        // restore Merkle roots, so it stays dormant on an unframed store.
        let live = self.parity.as_mut().filter(|_| self.seat.checksums);
        let cover = live.map(|parity| parity.plane(Plane::Journal));
        if let Err(e) = journal.append(&self.fs, &self.path, self.seat.guid, force, cover) {
            if e != FsError::Crashed {
                journal.failed_appends += 1;
            }
            return self.note_plane_error(e);
        }
        self.seal_parity(Plane::Journal, false);
    }

    /// Retire the journal generation a successful flush has covered. The
    /// journal-plane parity that referenced its chunks retires *first*,
    /// mirroring the commit plane's retire-before-unlink order.
    fn journal_recycle(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if let Some(parity) = self.parity.as_mut() {
            parity.plane(Plane::Journal).retire(&self.fs, &mut self.roots);
        }
        journal.recycle(&self.fs, &self.path);
    }

    /// Seal `plane`'s open parity group once it is full — or, when
    /// `force`d, whatever it holds (see [`Parity::seal`]).
    fn seal_parity(&mut self, plane: Plane, force: bool) {
        let Some(parity) = self.parity.as_mut() else {
            return;
        };
        if !(force || parity.plane(plane).is_full()) {
            return;
        }
        if let Err(e) = parity.seal(plane, &self.fs, &self.path, self.seat.guid, &mut self.roots) {
            self.note_plane_error(e);
        }
    }

    /// The one landing routine of snapshots (`FrameKind::Snapshot`) and
    /// delta segments: commit with retry and then, only once the file is
    /// durable, advance the frame identity, cache the root, fold the commit
    /// into parity, update the segment ledger and recycle the journal.
    /// Returns committed bytes, or `None` for a dropped flush — which
    /// advanced nothing, so the retry runs under the same name and identity.
    fn land(
        &mut self,
        kind: FrameKind,
        rendered: Rendered,
        charge: Option<&VirtualClock>,
    ) -> Option<u64> {
        let compacting = kind == FrameKind::Snapshot;
        let dst = if compacting {
            self.path.clone()
        } else {
            names::print(&self.path, Role::Segment(self.segments.next), State::Live)
        };
        if !self.commit_with_retry(&dst, &rendered.bytes, charge) {
            return None;
        }
        let committed = rendered.bytes.len() as u64;
        if let Some((chain, root)) = rendered.footer {
            let ord = self.seat.ordinal;
            self.seat.chain = chain;
            self.seat.ordinal += 1;
            self.roots.insert(dst.clone(), (committed, root));
            if let Some(parity) = self.parity.as_mut() {
                let group = parity.plane(Plane::Commits);
                if compacting {
                    // The compacted snapshot supersedes everything the live
                    // parity covered; it then opens a fresh group as member
                    // zero.
                    group.retire(&self.fs, &mut self.roots);
                }
                // The committing encoder already computed the root for the
                // manifest cache: pinning the member costs no extra pass.
                let member = ParityMember {
                    path: dst.clone(),
                    offset: 0,
                    len: committed,
                    check: MemberCheck::Root(root),
                    ord: Some(ord),
                };
                group.fold(member, Cow::Owned(rendered.bytes));
                self.seal_parity(Plane::Commits, false);
            }
        }
        if compacting {
            // The snapshot holds everything the segments held: fold them
            // away. Unlink failures are harmless — a surviving segment only
            // feeds the merge duplicate triples, which collapse.
            for seg in std::mem::take(&mut self.segments.live) {
                let _ = self.fs.unlink(&seg);
                self.roots.remove(&seg);
            }
            // A failed earlier append may have left the next segment's tmp.
            let next = Role::Segment(self.segments.next);
            let _ = self.fs.unlink(&names::print(&self.path, next, State::Tmp));
            self.segments.since_snapshot = 0;
            self.segments.snapshot_done = true;
        } else {
            self.segments.live.push(dst);
            self.segments.next += 1;
            self.segments.since_snapshot += 1;
        }
        self.journal_recycle();
        Some(committed)
    }
}

/// Shared core of a store: the graph under the state lock, the write path
/// under the io lock. Lock order is always io → state; `push` takes only
/// state, so it never waits on disk.
struct Inner {
    state: Mutex<GraphState>,
    io: Mutex<IoState>,
}

impl Inner {
    /// The CPU half of a snapshot: capture the graph and render it under
    /// `seat`. Issues no file-system operation and takes only the state
    /// lock, briefly.
    fn render(&self, seat: FrameSeat) -> RenderedSnapshot {
        let capture = self.state.lock().graph.capture_from(0);
        let captured = capture.ids.len();
        RenderedSnapshot {
            rendered: render_snapshot(&capture, seat),
            captured,
            seat,
        }
    }

    /// Render and commit a snapshot. Returns committed bytes, or 0 on a
    /// dropped flush.
    fn snapshot(&self, io: &mut IoState, charge: Option<&VirtualClock>) -> u64 {
        let rendered = self.render(io.seat);
        self.commit(io, rendered, charge)
    }

    /// The file-system half of a snapshot: land `rendered` over the
    /// snapshot path, superseding the delta segments.
    fn commit(&self, io: &mut IoState, rendered: RenderedSnapshot, charge: Option<&VirtualClock>) -> u64 {
        debug_assert_eq!(rendered.seat, io.seat, "rendered under a stale frame identity");
        let committed = io.land(FrameKind::Snapshot, rendered.rendered, charge);
        if committed.is_some() {
            self.state.lock().watermark = rendered.captured;
        }
        committed.unwrap_or(0)
    }

    /// Append one delta segment holding the triples above the watermark.
    fn delta_flush(&self, io: &mut IoState, charge: Option<&VirtualClock>) -> u64 {
        // Capture the delta under the state lock. Advance the watermark
        // optimistically so the io work below runs against a frozen range.
        let capture = {
            let mut st = self.state.lock();
            let capture = st.graph.capture_from(st.watermark);
            st.watermark += capture.ids.len();
            capture
        };
        let delta = capture.ids.len();
        if delta == 0 {
            return 0;
        }
        // Render off the state lock; the io lock (held by our caller)
        // already serializes flushes. A delta segment is always N-Triples:
        // line-oriented, so a torn one salvages by prefix.
        let rendered = render_lines(&capture, io.seat, FrameKind::Delta);
        let Some(committed) = io.land(FrameKind::Delta, rendered, charge) else {
            // The delta never landed: rewind the watermark so the next
            // flush retries exactly these triples under the same segment
            // name (the atomic rename makes that idempotent).
            self.state.lock().watermark -= delta;
            return 0;
        };
        if io.segments.compact_every > 0 && io.segments.since_snapshot >= io.segments.compact_every
        {
            self.snapshot(io, charge);
        }
        committed
    }

    /// Periodic flush: snapshot first, deltas after. Returns committed
    /// bytes or 0 for a dropped/empty/breaker-skipped flush.
    fn flush_now(&self, io: &mut IoState, charge: Option<&VirtualClock>) -> u64 {
        if io.crashed {
            io.dropped_flushes += 1;
            return 0;
        }
        // A flush boundary forces the journal's partial group out — before
        // the breaker gate, so journaling continues even while flushes are
        // being skipped (that is exactly when the journal earns its keep).
        io.journal_commit(true);
        if io.crashed {
            io.dropped_flushes += 1;
            return 0;
        }
        let now = io.now(charge);
        if !io.breaker.allows(now) {
            // Skipped, not dropped: the unflushed triples stay above the
            // watermark and land with the next admitted flush.
            return 0;
        }
        if io.segments.snapshot_done {
            self.delta_flush(io, charge)
        } else {
            self.snapshot(io, charge)
        }
    }

    /// Final flush: always compacts to a single snapshot. Bypasses an open
    /// breaker — this is the run's last chance to persist. `rendered` is
    /// the snapshot [`ProvenanceStore::render_final`] prepared, if any; it
    /// is committed only while it still describes the store — a graph that
    /// grew since (a late push from another thread) or a frame identity a
    /// commit in between moved means render again, never commit stale bytes.
    fn finish_now(
        &self,
        io: &mut IoState,
        rendered: Option<RenderedSnapshot>,
        charge: Option<&VirtualClock>,
    ) -> u64 {
        if io.crashed {
            io.dropped_flushes += 1;
            return 0;
        }
        // Journal first: if the final snapshot fails, the journal is what
        // the merge will replay.
        io.journal_commit(true);
        if io.crashed {
            io.dropped_flushes += 1;
            return 0;
        }
        let seat = io.seat;
        let rendered = rendered
            .filter(|r| r.seat == seat && r.captured == self.state.lock().graph.len())
            .unwrap_or_else(|| self.render(seat));
        let captured = rendered.captured;
        let n = self.commit(io, rendered, charge);
        if n > 0 {
            io.finished = Some(captured);
            // The run's terminal state must be repairable even when the
            // final group is short: force-seal whatever is open (a
            // single-member group degenerates to replication of the final
            // snapshot — honest, and still one-loss-tolerant).
            io.seal_parity(Plane::Commits, true);
        }
        n
    }

    /// Insert a batch into the graph. A journaled store renders the newly
    /// inserted triples (dedup survivors — the journal speaks the graph's
    /// insertion-index coordinate system) as one chunk of journal records,
    /// committed once the group threshold is reached — unless
    /// `group_commit` is off: the finishing hand-over leaves its chunk
    /// buffered for the forced append `finish_now` starts with, so handing
    /// over issues no file-system operation. The io lock is taken only when
    /// journaling, so the journal-off push path never touches it.
    fn apply_batch(&self, triples: &[Triple], journaled: bool, group_commit: bool) {
        if !journaled {
            let mut st = self.state.lock();
            for t in triples {
                st.graph.insert(t);
            }
            return;
        }
        let mut io = self.io.lock();
        {
            let mut st = self.state.lock();
            let before = st.graph.len();
            for t in triples {
                st.graph.insert(t);
            }
            let ids = st.graph.ids_from(before);
            if let Some(journal) = io.journal.as_mut().filter(|_| !ids.is_empty()) {
                let block = ntriples::id_block(ids, |id| st.graph.term(TermId(id)));
                journal.buffer(before as u64, ids.len() as u64, block);
            }
        }
        if group_commit {
            io.journal_commit(false);
        }
    }
}

/// A store's counters at one instant ([`ProvenanceStore::stats`]). The
/// journal and parity counters are 0 with their plane off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// The last flush failed: the graph is kept in memory, its bytes are
    /// not durable.
    pub degraded: bool,
    /// The most recent flush error, if any (survives a later success, as a
    /// record of retried trouble).
    pub last_error: Option<FsError>,
    /// Flushes dropped after retry exhaustion, permanent error, or crash.
    pub dropped_flushes: u64,
    /// Commit attempts retried after a transient failure — visible even
    /// when every flush eventually succeeded and `degraded` never flipped.
    pub flush_retries: u64,
    /// Live (committed, not yet compacted) delta segments.
    pub segments: usize,
    /// Triples pushed so far (pre-dedup, including shed batches).
    pub triples_pushed: u64,
    /// Push batches waiting in the async intake queue; never above its
    /// capacity.
    pub queue_depth: u64,
    /// Batches dropped by the `Shed` overload policy.
    pub shed_batches: u64,
    /// Triples inside those shed batches.
    pub shed_triples: u64,
    /// Current circuit-breaker state.
    pub breaker_state: BreakerState,
    /// Times the breaker tripped open (including failed half-open probes).
    pub breaker_trips: u64,
    /// Periodic flushes skipped because the breaker was open. Skipped is
    /// not lost: the triples stay above the watermark.
    pub breaker_skipped: u64,
    /// Records durably group-committed to the write-ahead journal.
    pub wal_records: u64,
    /// Successful journal appends (each covers every chunk then buffered).
    pub wal_commits: u64,
    /// Journal generations retired after successful flushes.
    pub wal_recycles: u64,
    /// Journal appends that failed and left their records buffered for a
    /// retry at the next group boundary.
    pub wal_failed_appends: u64,
    /// Journal records accepted but not yet group-committed — the exposure
    /// window, never more than one group unless appends are failing.
    pub wal_buffered: u64,
    /// Parity files sealed over the store's lifetime (both planes;
    /// compaction and recycling may have retired some since).
    pub parity_seals: u64,
    /// Parity seal attempts that failed (coverage lost, run unaffected).
    pub parity_failed: u64,
}

/// A per-process provenance sink.
pub struct ProvenanceStore {
    inner: Arc<Inner>,
    /// Background jobs submitted but not yet completed.
    in_flight: Arc<InFlight>,
    async_store: bool,
    /// Intake-queue bound in push batches (0 = unbounded) and the policy
    /// applied when it fills. Only meaningful in async mode.
    queue_capacity: u64,
    overload: OverloadPolicy,
    /// Whether `IoState::journal` is on, readable without the io lock so
    /// the journal-off push path stays io-lock-free.
    journaled: bool,
    fs: Arc<FileSystem>,
    path: String,
    triples_pushed: AtomicU64,
}

impl ProvenanceStore {
    /// Create a store writing `path` on `fs`. `async_store` selects the
    /// background-pool mode.
    pub fn new(
        fs: Arc<FileSystem>,
        path: impl Into<String>,
        format: RdfFormat,
        async_store: bool,
    ) -> Self {
        let path = path.into();
        // Ensure the parent directory exists.
        if let Some((dir, _)) = path.rsplit_once('/') {
            if !dir.is_empty() {
                let _ = fs.mkdir_all(dir, "provio", SimTime::ZERO);
            }
        }
        let guid = frame::store_guid(&path);
        let io = IoState {
            fs: Arc::clone(&fs),
            path: path.clone(),
            seat: FrameSeat {
                checksums: false,
                format,
                guid,
                ordinal: 0,
                chain: frame::CHAIN_START,
            },
            retry: RetryPolicy::default(),
            retry_rng: DetRng::with_stream(guid, RETRY_JITTER_STREAM),
            degraded: false,
            crashed: false,
            dropped_flushes: 0,
            flush_retries: 0,
            last_error: None,
            segments: Segments {
                compact_every: DEFAULT_COMPACT_EVERY,
                ..Segments::default()
            },
            finished: None,
            breaker: Breaker::default(),
            clock: None,
            roots: RootCache::new(),
            journal: None,
            parity: None,
        };
        ProvenanceStore {
            inner: Arc::new(Inner {
                state: Mutex::new(GraphState {
                    graph: Graph::new(),
                    watermark: 0,
                }),
                io: Mutex::new(io),
            }),
            in_flight: Arc::new(InFlight::new()),
            async_store,
            queue_capacity: 0,
            overload: OverloadPolicy::Block,
            journaled: false,
            fs,
            path,
            triples_pushed: AtomicU64::new(0),
        }
    }

    /// Override the flush retry/backoff policy.
    pub fn with_retry(self, retry: RetryPolicy) -> Self {
        self.inner.io.lock().retry = retry;
        self
    }

    /// Fold delta segments into a fresh snapshot every `n` appends (0 =
    /// only on `finish`).
    pub fn with_compact_every(self, n: u32) -> Self {
        self.inner.io.lock().segments.compact_every = n;
        self
    }

    /// Bound the async intake queue at `capacity` push batches (0 =
    /// unbounded) and pick what a full queue does to the producer.
    pub fn with_queue(mut self, capacity: u64, policy: OverloadPolicy) -> Self {
        self.queue_capacity = capacity;
        self.overload = policy;
        self
    }

    /// Arm the circuit breaker: trip after `threshold` consecutive flush
    /// failures (0 disables, the default), half-open probe after
    /// `backoff_ns` virtual nanoseconds.
    pub fn with_breaker(self, threshold: u32, backoff_ns: u64) -> Self {
        {
            let mut io = self.inner.io.lock();
            io.breaker.threshold = threshold;
            io.breaker.backoff_ns = backoff_ns;
        }
        self
    }

    /// Wire the owning rank's virtual clock as the breaker's time source
    /// for flushes that carry no charge clock (all async flushes).
    pub fn with_clock(self, clock: VirtualClock) -> Self {
        self.inner.io.lock().clock = Some(clock);
        self
    }

    /// Commit files in the checksummed frame format (see [`crate::frame`]):
    /// header with store GUID and commit ordinal, per-batch CRC-32 frames,
    /// chained footer. Off by default (plain serialization).
    pub fn with_checksums(self, enabled: bool) -> Self {
        self.inner.io.lock().seat.checksums = enabled;
        self
    }

    /// Keep a write-ahead journal of pushed records in group commits of
    /// `group` records (clamped up to 1), bounding what a crash between
    /// flushes can lose to at most one group. Off by default — the
    /// journal-off store is byte-for-byte the flush-boundary store.
    pub fn with_wal(mut self, enabled: bool, group: u32) -> Self {
        self.inner.io.lock().journal = enabled.then(|| Journal::new(group));
        self.journaled = enabled;
        self
    }

    /// Does this store keep a write-ahead journal ([`Self::with_wal`])?
    pub(crate) fn journaled(&self) -> bool {
        self.journaled
    }

    /// Maintain XOR parity over committed artifacts in groups of `group`
    /// (clamped up to 1): every full group seals a `<path>.pNNNNNN.par`
    /// file from which [`crate::scrub`] can reconstruct any single lost
    /// or rotted member byte-identical. Requires [`Self::with_checksums`]
    /// — parity stays dormant on an unframed store. Off by default.
    pub fn with_parity(self, enabled: bool, group: u32) -> Self {
        self.inner.io.lock().parity = enabled.then(|| Parity::new(group));
        self
    }

    /// The store file's path on the parallel file system.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file system the store writes to — what run-level tooling (the
    /// manifest writer, `verify`) walks after the ranks finish.
    pub fn fs(&self) -> &Arc<FileSystem> {
        &self.fs
    }

    /// Hand a batch of triples to the store.
    ///
    /// Async mode: enqueue to the shared pool, subject to the bounded
    /// intake queue — a full queue blocks the caller or sheds the batch
    /// depending on [`Self::with_queue`]. Sync mode: insert on the caller's
    /// thread — the ablation's point; its price is real time, read in
    /// `benchmark/`. An insert costs no virtual time, so the clock that
    /// [`Self::flush`] and [`Self::finish`] bill retry backoff to is not
    /// read here. Either way only the state lock is taken, so a concurrent
    /// flush doing file I/O never stalls a push. `triples_pushed` counts
    /// every batch *offered*, shed or not; `shed_triples` says how many of
    /// those never landed (see [`Self::stats`]).
    pub fn push(&self, triples: Vec<Triple>, _charge: Option<&VirtualClock>) {
        self.intake(triples, true);
    }

    /// The finishing hand-over: [`Self::push`], except that the journal
    /// records stay buffered for the forced append [`Self::commit_final`]
    /// starts with, so no file-system operation is issued here.
    pub(crate) fn push_final(&self, triples: Vec<Triple>) {
        self.intake(triples, false);
    }

    fn intake(&self, triples: Vec<Triple>, group_commit: bool) {
        self.triples_pushed
            .fetch_add(triples.len() as u64, Ordering::Relaxed);
        let journaled = self.journaled;
        if self.async_store {
            if !self
                .in_flight
                .admit_push(self.queue_capacity, self.overload, triples.len() as u64)
            {
                return; // shed under overload, counted in the queue stats
            }
            let inner = Arc::clone(&self.inner);
            let apply = move || inner.apply_batch(&triples, journaled, group_commit);
            self.in_flight.submit(true, Box::new(apply));
        } else {
            self.inner.apply_batch(&triples, journaled, group_commit);
        }
    }

    /// Wait until all enqueued batches for this store have been applied.
    fn drain(&self) {
        self.in_flight.wait_zero();
    }

    /// Request an intermediate serialization (periodic policy): the first
    /// flush writes a full snapshot, every later one appends a segment
    /// holding only the not-yet-durable triples, and every
    /// `compact_every`-th append folds the segments into a fresh snapshot.
    /// `charge` is billed a synchronous flush's retry backoff; an
    /// asynchronous one waits on the pool's time, not the workflow's.
    pub fn flush(&self, charge: Option<&VirtualClock>) {
        if self.async_store {
            let inner = Arc::clone(&self.inner);
            let flush = move || {
                inner.flush_now(&mut inner.io.lock(), None);
            };
            self.in_flight.submit(false, Box::new(flush));
        } else {
            let mut io = self.inner.io.lock();
            self.inner.flush_now(&mut io, charge);
        }
    }

    /// Final flush; blocks until the sub-graph is durable as one compacted
    /// snapshot (all delta segments folded in and removed) and returns its
    /// size in bytes (0 if the store is degraded — see [`Self::stats`]).
    pub fn finish(&self, charge: Option<&VirtualClock>) -> u64 {
        let rendered = self.render_final();
        self.commit_final(rendered, charge)
    }

    /// The CPU half of [`Self::finish`]: wait for the intake queue, then
    /// capture and render the final snapshot (`None` for a crashed
    /// writer). Issues no file-system operation of its own, so many stores
    /// may render concurrently.
    pub(crate) fn render_final(&self) -> Option<RenderedSnapshot> {
        if self.async_store {
            self.drain();
        }
        let seat = {
            let io = self.inner.io.lock();
            (!io.crashed).then_some(io.seat)
        };
        seat.map(|seat| self.inner.render(seat))
    }

    /// The file-system half of [`Self::finish`]: force the journal out,
    /// commit the snapshot, seal parity, fold segments away, recycle the
    /// journal.
    pub(crate) fn commit_final(
        &self,
        rendered: Option<RenderedSnapshot>,
        charge: Option<&VirtualClock>,
    ) -> u64 {
        let charge = charge.filter(|_| !self.async_store); // as `flush`
        let mut io = self.inner.io.lock();
        self.inner.finish_now(&mut io, rendered, charge)
    }

    /// Every counter of the store, read in one pass: the intake queue's,
    /// then the flush path's under one io lock.
    pub fn stats(&self) -> StoreStats {
        let (queue_depth, shed_batches, shed_triples) = self.in_flight.counts();
        let io = self.inner.io.lock();
        let journal = |stat: fn(&Journal) -> u64| io.journal.as_ref().map_or(0, stat);
        let parity = |stat: fn(&Parity) -> u64| io.parity.as_ref().map_or(0, stat);
        StoreStats {
            degraded: io.degraded,
            last_error: io.last_error,
            dropped_flushes: io.dropped_flushes,
            flush_retries: io.flush_retries,
            segments: io.segments.live.len(),
            triples_pushed: self.triples_pushed.load(Ordering::Relaxed),
            queue_depth,
            shed_batches,
            shed_triples,
            breaker_state: io.breaker.state(),
            breaker_trips: io.breaker.trips,
            breaker_skipped: io.breaker.skipped,
            wal_records: journal(|j| j.records),
            wal_commits: journal(|j| j.commits),
            wal_recycles: journal(|j| j.recycles),
            wal_failed_appends: journal(|j| j.failed_appends),
            wal_buffered: journal(Journal::buffered),
            parity_seals: parity(|p| p.seals),
            parity_failed: parity(|p| p.failed),
        }
    }

    /// Did the last flush fail (graph kept in memory, bytes not durable)?
    pub fn degraded(&self) -> bool {
        self.stats().degraded
    }

    /// Records durably group-committed to the write-ahead journal.
    pub fn wal_records(&self) -> u64 {
        self.stats().wal_records
    }

    /// Force the journal tail out regardless of the group boundary, so
    /// every record pushed so far is journal-durable. The streaming layer
    /// calls this before offering a batch to the collector: an ack must
    /// never reference data only this process held, or an aggregator
    /// crash could lose acked records that resync cannot replay. No-op
    /// with the journal off; async stores drain their intake queue first.
    pub fn wal_sync(&self) {
        if !self.journaled {
            return;
        }
        if self.async_store {
            self.drain();
        }
        self.inner.io.lock().journal_commit(true);
    }

    /// Current size of the committed snapshot on the parallel file system
    /// (delta segments not included).
    pub fn size_bytes(&self) -> u64 {
        self.fs.stat(&self.path).map(|m| m.size).unwrap_or(0)
    }

    /// Commit-time Merkle roots of the framed files this store currently
    /// has on disk, as `(path, committed bytes, root)`. The sealing pass
    /// ([`crate::verify::seal_run_with_roots`]) uses these to sign a run
    /// without re-reading the store's own commits; files that changed
    /// since (byte count mismatch) fall back to a full re-read there.
    pub fn committed_roots(&self) -> Vec<(String, u64, [u8; 32])> {
        let io = self.inner.io.lock();
        io.roots
            .iter()
            .map(|(p, &(n, r))| (p.clone(), n, r))
            .collect()
    }

    /// Sealed parity files currently live on disk, commit plane first.
    pub fn parity_files(&self) -> Vec<String> {
        self.inner.io.lock().parity.as_ref().map_or_else(Vec::new, Parity::files)
    }
}

impl Drop for ProvenanceStore {
    fn drop(&mut self) {
        // Make sure buffered batches land even if `finish` was never called
        // (e.g. a process crashed before MPI_Finalize). A finished store
        // that took nothing since is left alone: one more commit would move
        // its frame ordinal and its parity seal under a signed manifest.
        if self.async_store {
            self.drain();
            let mut io = self.inner.io.lock();
            if io.finished != Some(self.inner.state.lock().graph.len()) {
                self.inner.finish_now(&mut io, None, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::intake::pool;
    use super::*;
    use parking_lot::Condvar;
    use provio_hpcfs::{FaultOp, FaultPlan, FaultRule, LustreConfig};
    use provio_rdf::{Iri, Subject, Term};

    fn triples(n: usize) -> Vec<Triple> {
        (0..n)
            .map(|i| {
                Triple::new(
                    Subject::iri(format!("urn:s{i}")),
                    Iri::new("urn:p"),
                    Term::iri("urn:o"),
                )
            })
            .collect()
    }

    fn triples_from(start: usize, n: usize) -> Vec<Triple> {
        (start..start + n)
            .map(|i| {
                Triple::new(
                    Subject::iri(format!("urn:s{i}")),
                    Iri::new("urn:p"),
                    Term::iri("urn:o"),
                )
            })
            .collect()
    }

    #[test]
    fn sync_store_round_trip() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/p1.ttl", RdfFormat::Turtle, false);
        st.push(triples(5), None);
        let bytes = st.finish(None);
        assert!(bytes > 0);
        assert_eq!(st.size_bytes(), bytes);
        let text = String::from_utf8(fs_read(&fs, "/prov/p1.ttl")).unwrap();
        let (g, _) = turtle::parse(&text).unwrap();
        assert_eq!(g.len(), 5);
        assert!(!st.degraded());
        assert_eq!(st.stats().last_error, None);
    }

    #[test]
    fn async_store_round_trip() {
        let fs = FileSystem::new(LustreConfig::default());
        let st =
            ProvenanceStore::new(Arc::clone(&fs), "/prov/p2.nt", RdfFormat::NTriples, true);
        st.push(triples(100), None);
        st.push(triples(100), None); // duplicates collapse in the graph
        let bytes = st.finish(None);
        assert!(bytes > 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/p2.nt")).unwrap();
        let g = ntriples::parse(&text).unwrap();
        assert_eq!(g.len(), 100);
        assert_eq!(st.stats().triples_pushed, 200);
    }

    #[test]
    fn intermediate_flush_writes_file() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/p3.nt", RdfFormat::NTriples, false);
        st.push(triples(3), None);
        st.flush(None);
        assert!(st.size_bytes() > 0);
        st.push(triples(10), None);
        st.finish(None);
        let text = String::from_utf8(fs_read(&fs, "/prov/p3.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 10);
    }

    #[test]
    fn final_commit_never_writes_a_stale_render() {
        // Between the render and the commit of a finish another thread may
        // still push, and a flush may still take the frame's ordinal: the
        // commit must notice either and render again.
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/late.nt", RdfFormat::NTriples, false)
            .with_checksums(true)
            .with_wal(true, 4);
        st.push(triples(5), None);
        let rendered = st.render_final();
        st.push(triples_from(5, 3), None); // the graph grew
        assert!(st.commit_final(rendered, None) > 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/late.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 8);

        let rendered = st.render_final();
        st.push(triples_from(8, 2), None);
        st.flush(None); // a delta segment took the rendered ordinal
        assert!(st.commit_final(rendered, None) > 0);
        let (merged, report) = crate::merge::merge_directory(&fs, "/prov");
        assert_eq!(merged.len(), 10);
        assert_eq!(
            st.stats().segments,
            0,
            "the final snapshot folded the segment in"
        );
        assert!(report.corrupt.is_empty() && report.chain_breaks == 0, "{report:?}");
    }

    #[test]
    fn double_finish_is_safe() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/p4.ttl", RdfFormat::Turtle, true);
        st.push(triples(2), None);
        let a = st.finish(None);
        let b = st.finish(None);
        assert_eq!(a, b);
    }

    #[test]
    fn thousands_of_stores_share_the_pool() {
        // The H5bench regression: many live stores must not exhaust host
        // threads. 2000 stores, a few triples each.
        let fs = FileSystem::new(LustreConfig::default());
        let stores: Vec<ProvenanceStore> = (0..2000)
            .map(|i| {
                let st = ProvenanceStore::new(
                    Arc::clone(&fs),
                    format!("/prov/many/p{i}.nt"),
                    RdfFormat::NTriples,
                    true,
                );
                st.push(triples(3), None);
                st
            })
            .collect();
        for st in &stores {
            assert!(st.finish(None) > 0);
        }
        assert_eq!(fs.walk_files("/prov/many").unwrap().len(), 2000);
    }

    #[test]
    fn commit_never_leaves_tmp_behind_on_success() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/pt.nt", RdfFormat::NTriples, false);
        st.push(triples(4), None);
        st.finish(None);
        assert!(fs.exists("/prov/pt.nt"));
        assert!(!fs.exists("/prov/pt.nt.tmp"), "tmp renamed away");
    }

    #[test]
    fn transient_write_failure_is_retried_to_success() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(11);
        plan.add_rule(
            FaultRule::fail(FaultOp::WriteAt, FsError::Io)
                .on_path("/prov/pr.nt.tmp")
                .times(2),
        );
        fs.install_faults(Arc::clone(&plan));
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/pr.nt", RdfFormat::NTriples, false)
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff_ns: 1_000,
                ..RetryPolicy::default()
            });
        st.push(triples(7), None);
        let clock = VirtualClock::new();
        let bytes = st.finish(Some(&clock));
        assert!(bytes > 0, "two transient failures, third attempt lands");
        assert!(!st.degraded());
        assert_eq!(
            st.stats().last_error,
            Some(FsError::Io),
            "retries leave a trace"
        );
        assert_eq!(plan.injected(), 2);
        // Exponential backoff charged to the rank: 1000 + 2000 ns.
        assert!(clock.now().as_nanos() >= 3_000);
        let text = String::from_utf8(fs_read(&fs, "/prov/pr.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 7);
    }

    #[test]
    fn permanent_failure_degrades_never_silently_zero() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(12);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::NoSpace).on_path("pd.nt.tmp"));
        fs.install_faults(plan);
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/pd.nt", RdfFormat::NTriples, false)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                backoff_ns: 0,
                ..RetryPolicy::default()
            });
        st.push(triples(5), None);
        assert_eq!(st.finish(None), 0);
        assert!(st.degraded(), "flush dropped, state surfaced");
        assert_eq!(st.stats().last_error, Some(FsError::NoSpace));
        assert_eq!(st.stats().dropped_flushes, 1);
        // The committed path never appeared; the graph is still in memory.
        assert!(!fs.exists("/prov/pd.nt"));
        // Clearing the fault lets a later flush recover everything.
        fs.clear_faults();
        assert!(st.finish(None) > 0);
        assert!(!st.degraded());
        let text = String::from_utf8(fs_read(&fs, "/prov/pd.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 5);
    }

    #[test]
    fn crash_mid_flush_leaves_only_torn_tmp() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(13);
        plan.add_rule(
            FaultRule::crash(FaultOp::WriteAt).on_path("pc.nt.tmp").torn(10),
        );
        fs.install_faults(plan);
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/pc.nt", RdfFormat::NTriples, false);
        st.push(triples(6), None);
        assert_eq!(st.finish(None), 0);
        assert!(st.degraded());
        assert_eq!(st.stats().last_error, Some(FsError::Crashed));
        // The committed path is untouched; the torn prefix sits in tmp.
        assert!(!fs.exists("/prov/pc.nt"));
        assert_eq!(fs.stat("/prov/pc.nt.tmp").unwrap().size, 10);
        // A crashed process never writes again, even after faults clear.
        fs.clear_faults();
        assert_eq!(st.finish(None), 0);
        assert_eq!(st.stats().dropped_flushes, 2);
        assert!(!fs.exists("/prov/pc.nt"));
    }

    #[test]
    fn crash_between_write_and_rename_keeps_previous_commit() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/pv.nt", RdfFormat::NTriples, false);
        st.push(triples(3), None);
        let committed = st.finish(None);
        assert!(committed > 0);
        // Now arm a crash on the rename: the NEW flush dies after fully
        // writing tmp, and the committed file must still be the OLD graph.
        let plan = FaultPlan::new(14);
        plan.add_rule(FaultRule::crash(FaultOp::Rename).on_path("pv.nt.tmp"));
        fs.install_faults(plan);
        st.push(triples(30), None);
        assert_eq!(st.finish(None), 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/pv.nt")).unwrap();
        assert_eq!(
            ntriples::parse(&text).unwrap().len(),
            3,
            "reader sees the previous complete sub-graph, never a mix"
        );
    }

    #[test]
    fn periodic_flushes_append_delta_segments() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/ds.nt", RdfFormat::NTriples, false);
        st.push(triples_from(0, 3), None);
        st.flush(None); // first flush: full snapshot
        assert!(fs.exists("/prov/ds.nt"));
        assert_eq!(st.stats().segments, 0);

        st.push(triples_from(3, 2), None);
        st.flush(None); // second flush: delta segment 0
        assert!(fs.exists("/prov/ds.nt.d000000.nt"));
        assert_eq!(st.stats().segments, 1);
        // The snapshot was NOT rewritten: it still holds only 3 triples.
        let snap = String::from_utf8(fs_read(&fs, "/prov/ds.nt")).unwrap();
        assert_eq!(ntriples::parse(&snap).unwrap().len(), 3);
        // The segment holds exactly the delta.
        let seg = String::from_utf8(fs_read(&fs, "/prov/ds.nt.d000000.nt")).unwrap();
        assert_eq!(ntriples::parse(&seg).unwrap().len(), 2);

        st.push(triples_from(5, 4), None);
        st.flush(None); // delta segment 1
        assert_eq!(st.stats().segments, 2);
        assert!(fs.exists("/prov/ds.nt.d000001.nt"));

        // finish compacts: one snapshot with everything, segments gone.
        let bytes = st.finish(None);
        assert!(bytes > 0);
        assert_eq!(st.stats().segments, 0);
        assert!(!fs.exists("/prov/ds.nt.d000000.nt"));
        assert!(!fs.exists("/prov/ds.nt.d000001.nt"));
        let full = String::from_utf8(fs_read(&fs, "/prov/ds.nt")).unwrap();
        assert_eq!(ntriples::parse(&full).unwrap().len(), 9);
    }

    #[test]
    fn empty_delta_flush_writes_no_segment() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/de.nt", RdfFormat::NTriples, false);
        st.push(triples(3), None);
        st.flush(None);
        st.flush(None); // nothing new since the snapshot
        assert_eq!(st.stats().segments, 0);
        assert!(!fs.exists("/prov/de.nt.d000000.nt"));
    }

    #[test]
    fn compaction_folds_segments_every_k_appends() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/dc.nt", RdfFormat::NTriples, false)
            .with_compact_every(2);
        st.push(triples_from(0, 1), None);
        st.flush(None); // snapshot
        st.push(triples_from(1, 1), None);
        st.flush(None); // segment 0
        assert_eq!(st.stats().segments, 1);
        st.push(triples_from(2, 1), None);
        st.flush(None); // segment 1 → compaction fires
        assert_eq!(st.stats().segments, 0, "compact_every=2 folded both");
        assert!(!fs.exists("/prov/dc.nt.d000000.nt"));
        assert!(!fs.exists("/prov/dc.nt.d000001.nt"));
        let snap = String::from_utf8(fs_read(&fs, "/prov/dc.nt")).unwrap();
        assert_eq!(ntriples::parse(&snap).unwrap().len(), 3);
        // Sequence numbers keep rising after compaction: no name reuse.
        st.push(triples_from(3, 1), None);
        st.flush(None);
        assert!(fs.exists("/prov/dc.nt.d000002.nt"));
    }

    #[test]
    fn failed_delta_append_rewinds_watermark_and_retries_same_segment() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/dr.nt", RdfFormat::NTriples, false)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
                ..RetryPolicy::default()
            });
        st.push(triples_from(0, 2), None);
        st.flush(None); // snapshot
        // Fail the first delta append outright (one attempt, no retry).
        let plan = FaultPlan::new(21);
        plan.add_rule(
            FaultRule::fail(FaultOp::WriteAt, FsError::Io)
                .on_path("dr.nt.d000000.nt.tmp")
                .times(1),
        );
        fs.install_faults(plan);
        st.push(triples_from(2, 3), None);
        st.flush(None);
        assert!(st.degraded());
        assert_eq!(st.stats().segments, 0);
        assert_eq!(st.stats().dropped_flushes, 1);
        // Next flush retries the SAME delta under the SAME segment name.
        fs.clear_faults();
        st.flush(None);
        assert!(!st.degraded());
        assert_eq!(st.stats().segments, 1);
        let seg = String::from_utf8(fs_read(&fs, "/prov/dr.nt.d000000.nt")).unwrap();
        assert_eq!(
            ntriples::parse(&seg).unwrap().len(),
            3,
            "rewound watermark re-serializes the dropped delta"
        );
    }

    #[test]
    fn crash_on_delta_append_keeps_snapshot_and_earlier_segments() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/dx.nt", RdfFormat::NTriples, false);
        st.push(triples_from(0, 2), None);
        st.flush(None); // snapshot
        st.push(triples_from(2, 2), None);
        st.flush(None); // segment 0
        let plan = FaultPlan::new(22);
        plan.add_rule(
            FaultRule::crash(FaultOp::Rename).on_path("dx.nt.d000001.nt.tmp"),
        );
        fs.install_faults(plan);
        st.push(triples_from(4, 2), None);
        st.flush(None); // segment 1 crashes at the rename
        assert_eq!(st.stats().last_error, Some(FsError::Crashed));
        // Durable state: snapshot (2 triples) + segment 0 (2 triples), and
        // the fully-written-but-unrenamed tmp for segment 1 — exactly what
        // the merge's orphan-tmp adoption recovers.
        let snap = String::from_utf8(fs_read(&fs, "/prov/dx.nt")).unwrap();
        assert_eq!(ntriples::parse(&snap).unwrap().len(), 2);
        let seg0 = String::from_utf8(fs_read(&fs, "/prov/dx.nt.d000000.nt")).unwrap();
        assert_eq!(ntriples::parse(&seg0).unwrap().len(), 2);
        assert!(!fs.exists("/prov/dx.nt.d000001.nt"));
        assert!(fs.exists("/prov/dx.nt.d000001.nt.tmp"));
        // Crashed: finish never compacts away the durable segments.
        assert_eq!(st.finish(None), 0);
        assert!(fs.exists("/prov/dx.nt.d000000.nt"));
    }

    fn fs_read(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
        let ino = fs.lookup(path).unwrap();
        let size = fs.stat(path).unwrap().size;
        fs.read_at(ino, 0, size).unwrap().to_vec()
    }

    // ---- checksummed framing -------------------------------------------

    #[test]
    fn checksummed_snapshot_frames_and_stays_legacy_parseable() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/ck.nt", RdfFormat::NTriples, false)
            .with_checksums(true);
        st.push(triples(10), None);
        assert!(st.finish(None) > 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/ck.nt")).unwrap();
        let f = frame::decode(&text).expect("framed");
        assert_eq!(f.kind, FrameKind::Snapshot);
        assert_eq!(f.guid, frame::store_guid("/prov/ck.nt"));
        assert!(f.intact());
        assert_eq!(ntriples::parse(&f.payload).unwrap().len(), 10);
        // Frame lines are comments: a legacy reader parses the file whole.
        assert_eq!(ntriples::parse(&text).unwrap().len(), 10);
    }

    #[test]
    fn framed_segments_chain_across_flushes_and_compaction() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/cc.nt", RdfFormat::NTriples, false)
            .with_checksums(true);
        st.push(triples_from(0, 2), None);
        st.flush(None); // ordinal 0: snapshot
        st.push(triples_from(2, 2), None);
        st.flush(None); // ordinal 1: delta segment
        st.push(triples_from(4, 2), None);
        assert!(st.finish(None) > 0); // ordinal 2: compacted snapshot

        let snap = frame::decode(
            &String::from_utf8(fs_read(&fs, "/prov/cc.nt")).unwrap(),
        )
        .unwrap();
        assert_eq!(snap.kind, FrameKind::Snapshot);
        assert_eq!(snap.ordinal, 2, "ordinals rise across compaction");
        // The compacted snapshot chains off the delta segment's value.
        let (_, seg_chain) = frame::encode(
            FrameKind::Delta,
            snap.guid,
            1,
            {
                let (_, c0) = frame::encode(
                    FrameKind::Snapshot,
                    snap.guid,
                    0,
                    frame::CHAIN_START,
                    "",
                    1,
                );
                c0
            },
            "",
            1,
        );
        assert_eq!(snap.prev, seg_chain);
    }

    #[test]
    fn failed_framed_flush_retries_under_the_same_ordinal() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/cf2.nt", RdfFormat::NTriples, false)
            .with_checksums(true)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
                ..RetryPolicy::default()
            });
        st.push(triples_from(0, 2), None);
        st.flush(None); // ordinal 0 committed
        let plan = FaultPlan::new(41);
        plan.add_rule(
            FaultRule::fail(FaultOp::WriteAt, FsError::Io)
                .on_path("cf2.nt.d000000.nt.tmp")
                .times(1),
        );
        fs.install_faults(plan);
        st.push(triples_from(2, 2), None);
        st.flush(None); // delta drops; ordinal must NOT advance
        assert!(st.degraded());
        fs.clear_faults();
        st.flush(None); // retry lands
        let seg = frame::decode(
            &String::from_utf8(fs_read(&fs, "/prov/cf2.nt.d000000.nt")).unwrap(),
        )
        .unwrap();
        assert_eq!(seg.ordinal, 1, "failed commit did not consume an ordinal");
        let snap = frame::decode(
            &String::from_utf8(fs_read(&fs, "/prov/cf2.nt")).unwrap(),
        )
        .unwrap();
        assert_eq!(seg.prev, snap.chain, "chain is gapless despite the retry");
    }

    #[test]
    fn checksummed_turtle_snapshot_is_one_batch() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/ct.ttl", RdfFormat::Turtle, false)
            .with_checksums(true);
        st.push(triples(200), None);
        assert!(st.finish(None) > 0);
        let f = frame::decode(
            &String::from_utf8(fs_read(&fs, "/prov/ct.ttl")).unwrap(),
        )
        .unwrap();
        assert_eq!(f.batches_total, 1, "Turtle payload is all-or-nothing");
        let (g, _) = turtle::parse(&f.payload).unwrap();
        assert_eq!(g.len(), 200);
    }

    #[test]
    fn dropping_a_finished_async_store_leaves_its_files_alone() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/fin.nt", RdfFormat::NTriples, true)
            .with_checksums(true)
            .with_parity(true, 2);
        st.push(triples(10), None);
        assert!(st.finish(None) > 0);
        let files = |fs: &Arc<FileSystem>| -> Vec<(String, Vec<u8>)> {
            let mut paths = fs.walk_files("/prov").unwrap();
            paths.sort();
            paths.into_iter().map(|p| (p.clone(), fs_read(fs, &p))).collect()
        };
        let sealed = files(&fs);
        drop(st);
        assert!(files(&fs) == sealed, "the drop committed again");

        // An unfinished one still lands what it holds.
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/unfin.nt", RdfFormat::NTriples, true);
        st.push(triples(10), None);
        drop(st);
        assert!(fs.stat("/prov/unfin.nt").unwrap().size > 0);
    }

    // ---- ordered intake ------------------------------------------------

    #[test]
    fn pool_applied_store_issues_the_ops_the_caller_applied_store_issues() {
        // One store's jobs run in submission order, so a flush covers
        // exactly the pushes issued before it whatever the pool's workers
        // do: same commits, same ordinals, same bytes as the sync store.
        let ops = |async_store: bool| {
            let fs = FileSystem::new(LustreConfig::default());
            let trace = provio_hpcfs::OpTrace::new();
            fs.attach_tracer(Arc::clone(&trace));
            let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/lane.nt", RdfFormat::NTriples, async_store)
                .with_checksums(true)
                .with_wal(true, 4)
                .with_compact_every(3);
            for round in 0..40 {
                st.push(triples_from(round * 3, 3), None);
                st.flush(None);
            }
            assert!(st.finish(None) > 0);
            trace.snapshot()
        };
        assert!(ops(true) == ops(false));
    }

    // ---- bounded queue -------------------------------------------------

    /// Parks every shared-pool worker until released, so push batches pile
    /// up in the intake queue deterministically. Tests that gate the pool
    /// must serialize on [`pool_gate_lock`], or two gates fight over the
    /// same workers and deadlock each other.
    struct Gate {
        /// (workers currently parked, released)
        state: Mutex<(usize, bool)>,
        cv: Condvar,
    }

    impl Gate {
        fn block_all_workers() -> Arc<Gate> {
            let gate = Arc::new(Gate {
                state: Mutex::new((0, false)),
                cv: Condvar::new(),
            });
            let n = pool::workers();
            for _ in 0..n {
                let g = Arc::clone(&gate);
                pool::submit(Box::new(move || {
                    let mut st = g.state.lock();
                    st.0 += 1;
                    g.cv.notify_all();
                    while !st.1 {
                        g.cv.wait(&mut st);
                    }
                }));
            }
            // Wait until every worker is provably parked.
            let mut st = gate.state.lock();
            while st.0 < n {
                gate.cv.wait(&mut st);
            }
            drop(st);
            gate
        }

        fn release(&self) {
            let mut st = self.state.lock();
            st.1 = true;
            self.cv.notify_all();
        }
    }

    /// Releases the gate even if the test panics, so a failing assertion
    /// can't wedge the shared pool for the rest of the suite.
    struct GateGuard(Arc<Gate>);
    impl Drop for GateGuard {
        fn drop(&mut self) {
            self.0.release();
        }
    }

    fn pool_gate_lock() -> &'static Mutex<()> {
        static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn shed_policy_bounds_queue_and_counts_losses() {
        let _serial = pool_gate_lock().lock();
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/qs.nt", RdfFormat::NTriples, true)
            .with_queue(4, OverloadPolicy::Shed);
        let gate = GateGuard(Gate::block_all_workers());
        // Four batches fill the queue; three more are shed, two triples each.
        for i in 0..4u64 {
            st.push(triples_from(i as usize * 10, 2), None);
        }
        assert_eq!(st.stats().queue_depth, 4, "queue at capacity");
        for i in 4..7u64 {
            st.push(triples_from(i as usize * 10, 2), None);
        }
        assert_eq!(st.stats().queue_depth, 4, "queue never exceeds capacity");
        assert_eq!(st.stats().shed_batches, 3);
        assert_eq!(st.stats().shed_triples, 6);
        assert_eq!(st.stats().triples_pushed, 14, "offered count includes shed");
        gate.0.release();
        let bytes = st.finish(None);
        assert!(bytes > 0);
        assert_eq!(st.stats().queue_depth, 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/qs.nt")).unwrap();
        let g = ntriples::parse(&text).unwrap();
        assert_eq!(g.len(), 8, "admitted batches land, shed batches do not");
    }

    #[test]
    fn block_policy_stalls_producer_until_writers_catch_up() {
        let _serial = pool_gate_lock().lock();
        let fs = FileSystem::new(LustreConfig::default());
        let st = Arc::new(
            ProvenanceStore::new(Arc::clone(&fs), "/prov/qb.nt", RdfFormat::NTriples, true)
                .with_queue(1, OverloadPolicy::Block),
        );
        let gate = GateGuard(Gate::block_all_workers());
        st.push(triples_from(0, 1), None); // fills the queue
        assert_eq!(st.stats().queue_depth, 1);
        let st2 = Arc::clone(&st);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let producer = std::thread::spawn(move || {
            st2.push(triples_from(10, 1), None); // must block: queue is full
            done2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !done.load(Ordering::SeqCst),
            "producer blocked by backpressure while the queue is full"
        );
        assert_eq!(
            st.stats().queue_depth,
            1,
            "capacity respected while blocked"
        );
        gate.0.release();
        producer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert!(st.finish(None) > 0);
        assert_eq!(st.stats().shed_batches, 0, "block policy sheds nothing");
        let text = String::from_utf8(fs_read(&fs, "/prov/qb.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 2, "both batches land");
    }

    // ---- circuit breaker -----------------------------------------------

    #[test]
    fn breaker_trips_skips_and_recovers_via_half_open_probe() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(31);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("cb.nt.tmp"));
        fs.install_faults(Arc::clone(&plan));
        let clock = VirtualClock::new();
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/cb.nt", RdfFormat::NTriples, false)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(2, 1_000)
            .with_clock(clock.clone());
        st.push(triples(5), None);
        st.flush(None); // failure 1 of 2: still closed
        assert_eq!(st.stats().breaker_state, BreakerState::Closed);
        st.flush(None); // failure 2 of 2: trips
        assert_eq!(st.stats().breaker_state, BreakerState::Open);
        assert_eq!(st.stats().breaker_trips, 1);
        assert_eq!(plan.injected(), 2);
        // Open breaker: flushes are skipped, the backend is left alone.
        st.flush(None);
        st.flush(None);
        assert_eq!(st.stats().breaker_skipped, 2);
        assert_eq!(plan.injected(), 2, "no write attempted while open");
        // Backoff elapses on the virtual clock; the backend heals; the
        // half-open probe succeeds and closes the breaker.
        clock.advance(SimDuration::from_nanos(2_000));
        fs.clear_faults();
        st.flush(None);
        assert_eq!(st.stats().breaker_state, BreakerState::Closed);
        assert!(!st.degraded());
        // Nothing was lost across trip/skip/recovery.
        let text = String::from_utf8(fs_read(&fs, "/prov/cb.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 5);
    }

    #[test]
    fn failed_half_open_probe_reopens_breaker() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(32);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("cr.nt.tmp"));
        fs.install_faults(Arc::clone(&plan));
        let clock = VirtualClock::new();
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/cr.nt", RdfFormat::NTriples, false)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(1, 1_000)
            .with_clock(clock.clone());
        st.push(triples(3), None);
        st.flush(None); // trips immediately (threshold 1)
        assert_eq!(st.stats().breaker_state, BreakerState::Open);
        assert_eq!(st.stats().breaker_trips, 1);
        clock.advance(SimDuration::from_nanos(1_500));
        st.flush(None); // half-open probe, still failing → reopens
        assert_eq!(st.stats().breaker_state, BreakerState::Open);
        assert_eq!(st.stats().breaker_trips, 2, "failed probe counts as a trip");
        // And the new backoff window is honored.
        st.flush(None);
        assert_eq!(st.stats().breaker_skipped, 1);
    }

    #[test]
    fn finish_bypasses_open_breaker() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(33);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("cf.nt.tmp"));
        fs.install_faults(plan);
        let clock = VirtualClock::new();
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/cf.nt", RdfFormat::NTriples, false)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(1, u64::MAX / 2)
            .with_clock(clock.clone());
        st.push(triples(4), None);
        st.flush(None); // trips; backoff effectively forever
        assert_eq!(st.stats().breaker_state, BreakerState::Open);
        fs.clear_faults();
        // finish is the run's last chance: it ignores the open breaker.
        assert!(st.finish(None) > 0);
        assert_eq!(st.stats().breaker_state, BreakerState::Closed);
        let text = String::from_utf8(fs_read(&fs, "/prov/cf.nt")).unwrap();
        assert_eq!(ntriples::parse(&text).unwrap().len(), 4);
    }

    // ---- write-ahead journal -------------------------------------------

    #[test]
    fn wal_group_commits_and_recycles_on_flush() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/w1.nt", RdfFormat::NTriples, false)
            .with_wal(true, 3);
        // Below the group threshold nothing is appended — the records ride
        // in the buffer (the bounded exposure window).
        st.push(triples(2), None);
        assert_eq!(st.wal_records(), 0);
        assert_eq!(st.stats().wal_commits, 0);
        assert_eq!(st.stats().wal_buffered, 2);
        assert!(fs.lookup("/prov/w1.nt.w000000.nt").is_err());
        // Reaching the threshold commits everything buffered in a single
        // append: one frame per pushed chunk, contiguous ordinals.
        st.push(triples_from(2, 3), None);
        assert_eq!(st.wal_records(), 5);
        assert_eq!(st.stats().wal_commits, 1);
        assert_eq!(st.stats().wal_buffered, 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/w1.nt.w000000.nt")).unwrap();
        let wal = frame::decode_wal(&text, frame::store_guid("/prov/w1.nt"));
        assert!(!wal.truncated);
        assert_eq!(wal.chunks, 2, "one frame per pushed chunk");
        assert_eq!(wal.records.len(), 5);
        assert_eq!(wal.records[0].0, 0, "record ordinal is the insertion index");
        assert!(wal.records[0].1.contains("urn:s0"));
        assert_eq!(wal.records[4].0, 4);
        // A flush boundary forces any partial tail out; the successful
        // commit then recycles the generation.
        st.push(triples_from(5, 1), None);
        assert_eq!(st.stats().wal_buffered, 1);
        st.flush(None);
        assert_eq!(st.wal_records(), 6);
        assert_eq!(st.stats().wal_buffered, 0);
        assert_eq!(st.stats().wal_recycles, 1);
        assert!(
            fs.lookup("/prov/w1.nt.w000000.nt").is_err(),
            "flushed generation is recycled"
        );
        // The next commit opens a fresh generation; duplicates of already
        // stored triples are never re-journaled.
        st.push(triples_from(6, 3), None);
        st.push(triples(5), None);
        assert!(fs.lookup("/prov/w1.nt.w000001.nt").is_ok());
        assert_eq!(st.wal_records(), 9);
        assert_eq!(st.stats().wal_buffered, 0);
        st.finish(None);
        assert!(
            fs.lookup("/prov/w1.nt.w000001.nt").is_err(),
            "finish recycles the journal too"
        );
        assert_eq!(st.stats().wal_recycles, 2);
        assert_eq!(st.stats().wal_failed_appends, 0);
        assert!(!st.degraded());
    }

    #[test]
    fn crashed_flush_loses_nothing_committed_to_the_journal() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(9);
        plan.add_rule(FaultRule::crash(FaultOp::WriteAt).on_path("wc.nt.tmp"));
        fs.install_faults(plan);
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/wc.nt", RdfFormat::NTriples, false)
            .with_wal(true, 2);
        st.push(triples(6), None);
        st.flush(None); // the journal force-commits, then the snapshot crashes
        assert!(st.degraded());
        assert_eq!(st.wal_records(), 6, "every record reached the journal first");
        // Nothing committed, but the merge replays the journal whole.
        let (g, r) = crate::merge::merge_directory(&fs, "/prov");
        assert_eq!(g.len(), 6);
        assert_eq!(r.replayed_triples, 6);
        assert_eq!(r.wal_tails_truncated, 0);
    }

    #[test]
    fn failed_journal_append_retries_at_the_same_offset() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(17);
        plan.add_rule(
            FaultRule::fail(FaultOp::WriteAt, FsError::Io)
                .on_path(".w000000.nt")
                .times(1),
        );
        fs.install_faults(plan);
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/wr.nt", RdfFormat::NTriples, false)
            .with_wal(true, 2);
        st.push(triples(2), None); // first group commit fails; records stay buffered
        assert_eq!(st.stats().wal_failed_appends, 1);
        assert_eq!(st.wal_records(), 0);
        assert_eq!(st.stats().wal_buffered, 2);
        assert!(!st.degraded(), "a failed journal append is not fatal");
        st.push(triples_from(2, 2), None); // retry lands at the same offset
        assert_eq!(st.wal_records(), 4);
        assert_eq!(st.stats().wal_buffered, 0);
        let text = String::from_utf8(fs_read(&fs, "/prov/wr.nt.w000000.nt")).unwrap();
        let wal = frame::decode_wal(&text, frame::store_guid("/prov/wr.nt"));
        assert!(!wal.truncated, "the retried chunk overwrote any torn prefix");
        assert_eq!(wal.records.len(), 4);
    }

    #[test]
    fn wal_disabled_writes_no_journal_files() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/w0.nt", RdfFormat::NTriples, false);
        st.push(triples(10), None);
        st.flush(None);
        st.push(triples_from(10, 5), None);
        st.finish(None);
        let journals: Vec<String> = fs
            .walk_files("/prov")
            .unwrap()
            .into_iter()
            .filter(|p| frame::is_wal_path(p))
            .collect();
        assert!(journals.is_empty(), "unexpected journals: {journals:?}");
        assert_eq!(st.wal_records(), 0);
        assert_eq!(st.stats().wal_commits, 0);
        assert_eq!(st.stats().wal_recycles, 0);
    }

    fn parity_files_on_disk(fs: &Arc<FileSystem>, dir: &str) -> Vec<String> {
        fs.walk_files(dir)
            .unwrap_or_default()
            .into_iter()
            .filter(|p| frame::is_parity_path(p) && names::parse(p).state != State::Tmp)
            .collect()
    }

    #[test]
    fn parity_disabled_writes_no_parity_files() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/q0.nt", RdfFormat::NTriples, false)
            .with_checksums(true)
            .with_compact_every(0);
        st.push(triples(10), None);
        st.flush(None);
        st.push(triples_from(10, 5), None);
        st.finish(None);
        let pars = parity_files_on_disk(&fs, "/prov");
        assert!(pars.is_empty(), "unexpected parity files: {pars:?}");
        assert_eq!(st.stats().parity_seals, 0);
        assert_eq!(st.stats().parity_failed, 0);
    }

    #[test]
    fn parity_groups_seal_and_compaction_invalidates() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/q1.nt", RdfFormat::NTriples, false)
            .with_checksums(true)
            .with_compact_every(0)
            .with_parity(true, 2);
        // Four commits (snapshot + three segments) at group width 2: two
        // sealed parity files.
        for i in 0..4 {
            st.push(triples_from(i * 5, 5), None);
            st.flush(None);
        }
        assert_eq!(st.stats().parity_seals, 2, "two full groups sealed");
        let pars = parity_files_on_disk(&fs, "/prov");
        assert_eq!(pars.len(), 2, "{pars:?}");
        // Every sealed parity file decodes as an intact Parity frame and is
        // in the root cache the sealer will hand to the manifest.
        let rooted = st.committed_roots();
        for p in &pars {
            let ino = fs.lookup(p).unwrap();
            let n = fs.file_size(ino).unwrap();
            let text =
                String::from_utf8(fs.read_at(ino, 0, n).unwrap().to_vec()).unwrap();
            let framed = frame::decode(&text).expect("parity frame decodes");
            assert_eq!(framed.kind, FrameKind::Parity);
            assert!(framed.intact());
            assert!(rooted.iter().any(|(path, _, _)| path == p), "{p} not rooted");
        }
        // Compaction rewrites history: stale commit-plane parity would
        // "repair" the snapshot backwards, so it must vanish — replaced by
        // a forced seal over the surviving snapshot.
        st.finish(None);
        let pars = parity_files_on_disk(&fs, "/prov");
        assert_eq!(pars.len(), 1, "only the post-compaction seal remains: {pars:?}");
        assert_eq!(st.parity_files(), pars);
        // And the remaining group makes the final snapshot repairable.
        fs.unlink("/prov/q1.nt").unwrap();
        let rep = crate::scrub::scrub_directory(&fs, "/prov");
        assert_eq!(rep.repaired_files, vec!["/prov/q1.nt".to_string()], "{rep}");
    }

    #[test]
    fn parity_seal_failure_loses_redundancy_not_data() {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(41);
        // Every parity seal dies in flight; store commits are untouched.
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_suffix(".par.tmp"));
        fs.install_faults(plan);
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/q2.nt", RdfFormat::NTriples, false)
            .with_checksums(true)
            .with_compact_every(0)
            .with_parity(true, 1);
        for i in 0..3 {
            st.push(triples_from(i * 4, 4), None);
            st.flush(None);
        }
        st.finish(None);
        assert_eq!(st.stats().parity_seals, 0);
        assert!(st.stats().parity_failed >= 3, "failed seals are counted");
        assert!(parity_files_on_disk(&fs, "/prov").is_empty());
        // The data plane never noticed: the merge recovers everything.
        let (g, report) = crate::merge::merge_directory(&fs, "/prov");
        assert_eq!(g.len(), 12);
        assert!(report.corrupt.is_empty(), "{report}");
        assert_eq!(report.chain_breaks, 0);
    }

    // ---- what the tracker summary reads off the store -------------------

    /// Every field of every rank's `TrackSummary`, over three runs that
    /// light up different counters, pinned by the SHA-256 of their `{:?}`
    /// lines: two counters swapped between the store and the summary change
    /// the digest. It lives here, not in `tracker`, because the shed run
    /// needs the pool gate: (1) async stores with the breaker armed and a
    /// two-batch shed queue, rank 1 on failing snapshot commits, filled
    /// while every pool worker is parked; (2) journaled stores whose first
    /// appends fail; (3) three ranks streaming over a lossy, partitioned
    /// fabric into a one-batch shed send buffer.
    #[test]
    fn track_summaries_are_pinned() {
        use crate::collect::Collector;
        use crate::config::{ProvIoConfig, SerializationPolicy};
        use crate::tracker::{IoEvent, ObjectDesc, ProvTracker};
        use provio_model::{ActivityClass, EntityClass};
        use provio_simrt::{NetPlan, PartitionEpisode};

        fn ranks(cfg: &Arc<ProvIoConfig>, fs: &Arc<FileSystem>, n: u32) -> Vec<Arc<ProvTracker>> {
            let clock = VirtualClock::new;
            let new =
                |pid| ProvTracker::new(Arc::clone(cfg), Arc::clone(fs), pid, "B", "p", clock());
            (1..=n).map(new).collect()
        }
        fn track(ranks: &[Arc<ProvTracker>], n: usize) {
            for t in ranks {
                for i in 0..n {
                    t.track_io(&IoEvent {
                        activity: ActivityClass::Write,
                        api_name: "write".into(),
                        object: Some(ObjectDesc::posix(EntityClass::File, format!("/f{i}"))),
                        bytes: 4096,
                        duration_ns: 1000,
                        timestamp_ns: 5000,
                        ok: true,
                    });
                }
            }
        }
        let mut lines: Vec<String> = Vec::new();
        let mut finish = |run: &str, ranks: &[Arc<ProvTracker>]| {
            for (t, pid) in ranks.iter().zip(1..) {
                lines.push(format!("{run} {pid} {:?}", t.finish()));
            }
        };
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_ns: 0,
            ..RetryPolicy::default()
        };

        // (1) Breaker and shed.
        {
            let _serial = pool_gate_lock().lock();
            let fs = FileSystem::new(LustreConfig::default());
            let fail = FaultRule::fail(FaultOp::WriteAt, FsError::Io);
            fs.install_faults(FaultPlan::new(5).with_rule(fail.on_path("prov_p1.ttl.tmp")));
            let cfg = ProvIoConfig::default()
                .with_policy(SerializationPolicy::EveryRecords(1))
                .with_retry(retry)
                .with_breaker(2, 1_000_000_000)
                .with_queue(2, OverloadPolicy::Shed)
                .shared();
            let gate = GateGuard(Gate::block_all_workers());
            let shed = ranks(&cfg, &fs, 2);
            track(&shed, 8);
            gate.0.release();
            finish("shed", &shed);
        }

        // (2) Journal appends that fail.
        {
            let fs = FileSystem::new(LustreConfig::default());
            let fail = FaultRule::fail(FaultOp::WriteAt, FsError::NoSpace);
            fs.install_faults(FaultPlan::new(6).with_rule(fail.on_path(".ttl.w").times(3)));
            let cfg = ProvIoConfig::default()
                .synchronous()
                .with_policy(SerializationPolicy::EveryRecords(3))
                .with_retry(retry)
                .with_wal(true, 2)
                .shared();
            let wal = ranks(&cfg, &fs, 2);
            track(&wal, 7);
            finish("wal", &wal);
        }

        // (3) Streamed over a lossy fabric.
        {
            let fs = FileSystem::new(LustreConfig::default());
            let cut = PartitionEpisode::of_ranks(0, 1 << 50, vec![3]);
            let plan = NetPlan::hostile(9, 0.3).with_partition(cut);
            let collector = Collector::new(Arc::clone(&fs), "/provio", plan);
            let mut cfg = ProvIoConfig::default()
                .synchronous()
                .with_policy(SerializationPolicy::EveryRecords(2))
                .with_wal(true, 4)
                .with_queue(0, OverloadPolicy::Shed)
                .with_net(true, 200_000);
            cfg.net_buffer = 1;
            let cfg = cfg.shared();
            let net = ranks(&cfg, &fs, 3);
            for (t, pid) in net.iter().zip(1..) {
                t.attach_net(collector.client(pid, t.clock().clone(), &cfg));
            }
            track(&net, 6);
            finish("net", &net);
        }

        let text = lines.join("\n");
        let digest = sha2::hex(&sha2::sha256(text.as_bytes()));
        assert!(
            digest == "5fa99d3a29c5c168364e9dbc4be0b17c43961a95141a54e684291799d95453b0",
            "summaries changed: digest {digest}\n{text}"
        );
    }
}
