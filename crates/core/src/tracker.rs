//! The core PROV-IO Library: per-process provenance capture.
//!
//! A [`ProvTracker`] is created per tracked process. Agent information is
//! recorded once at initialization; Entity and Activity records are created
//! per I/O event by the two tracking layers (VOL connector, syscall
//! wrapper) or by the explicit APIs. In virtual time a tracked call costs
//! exactly `record_latency_ns` — the calibrated store latency, advanced on
//! the process's clock — and nothing else: that is the "tracking overhead"
//! the experiments report. What the tracker's own code costs on the host
//! is measured by the `benchmark/` package, never added to a virtual clock.
//!
//! # The capture hot path
//!
//! Capture is paid by every run whether or not anyone queries the result,
//! so a steady-state [`ProvTracker::track_io`] allocates only what is new
//! in the event: the activity's IRI and its integer literals. Everything
//! fixed or repeated is an `Arc` clone of a term built once — predicates
//! and classes from the shared [`Vocabulary`], the agents from the
//! tracker, the per-API GUID prefix and label and the per-object subject
//! from two caches in the tracker's state. Triples go straight into the
//! pending buffer under one state-lock acquisition per call; the same few
//! helpers serve the explicit APIs, so there is one emission path.
//! [`provio_model::ontology::record_triples_into`] stays the reference
//! mapping, and `tests/tracking_props.rs` holds this module to it.

use crate::collect::NetClient;
use crate::config::{ProvIoConfig, SerializationPolicy};
use crate::store::{ProvenanceStore, RenderedSnapshot};
use parking_lot::Mutex;
use provio_model::{
    ActivityClass, AgentClass, ClassSelector, EntityClass, ExtensibleClass, Guid, GuidGen,
    NodeClass, PropKey, Relation, TrackItem, Vocabulary,
};
use provio_rdf::{Iri, Literal, Subject, Term, Triple};
use provio_simrt::{SimDuration, VirtualClock};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Description of the data object an I/O event touched.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectDesc {
    pub class: EntityClass,
    /// Containing file path for library-interior objects; empty for
    /// POSIX-level objects.
    pub scope: String,
    /// Path/name of the object.
    pub path: String,
}

impl ObjectDesc {
    pub fn posix(class: EntityClass, path: impl Into<String>) -> Self {
        ObjectDesc {
            class,
            scope: String::new(),
            path: path.into(),
        }
    }

    pub fn hdf5(class: EntityClass, file: impl Into<String>, path: impl Into<String>) -> Self {
        ObjectDesc {
            class,
            scope: file.into(),
            path: path.into(),
        }
    }

    /// The object's content-addressed GUID (stable across processes).
    pub fn guid(&self) -> Guid {
        GuidGen::data_object(self.class.local_name(), &self.scope, &self.path)
    }

    /// Human-readable label (`file:inner/path` for library objects).
    pub fn label(&self) -> String {
        if self.scope.is_empty() {
            self.path.clone()
        } else {
            format!("{}:{}", self.scope, self.path)
        }
    }
}

/// One observed I/O operation.
#[derive(Debug, Clone)]
pub struct IoEvent {
    pub activity: ActivityClass,
    /// Concrete API name ("H5Dwrite", "pwrite", …).
    pub api_name: String,
    pub object: Option<ObjectDesc>,
    pub bytes: u64,
    pub duration_ns: u64,
    pub timestamp_ns: u64,
    pub ok: bool,
}

/// Summary returned by [`ProvTracker::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSummary {
    pub events: u64,
    pub triples: u64,
    pub store_bytes: u64,
    pub store_path: String,
    /// The final flush failed; `store_bytes` is 0 but the sub-graph was
    /// kept in memory, not silently lost.
    pub degraded: bool,
    /// errno name of the most recent store error, if any.
    pub last_error: Option<String>,
    /// Store flushes dropped over the tracker's lifetime.
    pub dropped_flushes: u64,
    /// Push batches dropped by the `Shed` overload policy.
    pub shed_batches: u64,
    /// Triples inside those shed batches (honest loss accounting:
    /// `triples` counts everything offered, this says what never landed).
    pub shed_triples: u64,
    /// Times the store's circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Periodic flushes skipped while the breaker was open (skipped, not
    /// lost — the triples stayed buffered above the watermark).
    pub breaker_skipped: u64,
    /// Final breaker state: `"closed"`, `"open"`, or `"half-open"`.
    pub breaker_state: String,
    /// Records group-committed to the write-ahead journal (0 with the
    /// journal disabled).
    pub wal_records: u64,
    /// Journal group commits performed.
    pub wal_commits: u64,
    /// Journal generations recycled after a successful flush.
    pub wal_recycles: u64,
    /// Store commit attempts retried after a transient failure. Before
    /// this counter a retried flush that recovered was invisible — only
    /// policy exhaustion flipped `degraded`.
    pub flush_retries: u64,
    /// Batches offered to the streaming pipeline (0 when not streaming).
    pub net_sent: u64,
    /// Batches the collector acked.
    pub net_acked: u64,
    /// Retransmissions after timeouts (loss, lost acks, partitions,
    /// collector crashes).
    pub net_retries: u64,
    /// Batches the `Shed` policy dropped from the stream at a full send
    /// buffer (still durable in the store, so not lost from the merge).
    pub net_shed_batches: u64,
    /// Triples inside those shed batches.
    pub net_shed_triples: u64,
    /// Batches still unacked when the rank finished (e.g. the run ended
    /// inside a partition) — the stream's gap, owned by the store.
    pub net_unacked: u64,
}

/// Per-process provenance capture state.
pub struct ProvTracker {
    config: Arc<ProvIoConfig>,
    guids: GuidGen,
    clock: VirtualClock,
    store: ProvenanceStore,
    program_guid: Guid,
    thread_guid: Guid,
    state: Mutex<TrackState>,
    events: std::sync::atomic::AtomicU64,
    /// Cached result of the first `finish()` call, making later calls
    /// idempotent (no re-flush, no double counting).
    finished: Mutex<Option<TrackSummary>>,
    /// Streaming client, when the run collects live (`net` knob + an
    /// armed collector). Batches are offered to it only after
    /// [`ProvenanceStore::wal_sync`], so an ack always references
    /// journal-durable records.
    net: Mutex<Option<Arc<NetClient>>>,
}

/// Pump rounds the final drain gives a struggling fabric before handing
/// the leftovers to the durable store (each round charges at least one
/// full timeout per buffered batch, so bounded partitions heal well
/// within it).
const NET_DRAIN_ROUNDS: u32 = 64;

/// What one API name contributes to each of its activities, built on the
/// name's first event.
struct ApiTerms {
    /// [`GuidGen::activity_prefix`]: the activity GUID minus its counter.
    prefix: String,
    /// The `rdfs:label` literal.
    label: Term,
}

#[derive(Default)]
struct TrackState {
    /// Bounded by the distinct API names this rank called.
    apis: HashMap<String, ApiTerms>,
    /// Subjects of the data objects whose type/label triples are out: an
    /// object's first sight is its absence here. Bounded by the distinct
    /// objects this rank touched. Nodes that are unique per invocation by
    /// construction (activities, metrics, configuration versions: their
    /// GUIDs bake in a counter) and the agents, emitted once at
    /// initialization, need no first-sight record and get none.
    objects: HashMap<ObjectDesc, Subject>,
    /// Where an activity GUID is spelled before its one allocation.
    scratch: String,
    pending: Vec<Triple>,
    pending_records: usize,
    triples_total: u64,
    /// Configuration version counters by name.
    config_versions: HashMap<String, u64>,
    /// GUIDs of the most recent version of each configuration.
    current_configs: Vec<Guid>,
    /// name → GUID of its latest version (for supersession links).
    config_last_guid: HashMap<String, Guid>,
    /// Last metric (name, value) seen — written onto the current
    /// configuration versions once, at finish.
    last_metric: Option<(String, f64)>,
}

impl TrackState {
    /// Everything pending, counted as emitted.
    fn take_pending(&mut self) -> Vec<Triple> {
        self.pending_records = 0;
        self.triples_total += self.pending.len() as u64;
        std::mem::take(&mut self.pending)
    }

    /// [`Self::take_pending`] if `policy` says a hand-over is due.
    fn take_due(&mut self, policy: SerializationPolicy) -> Option<Vec<Triple>> {
        let due = self.pending.len() >= 4096
            || matches!(policy, SerializationPolicy::EveryRecords(n) if self.pending_records >= n);
        due.then(|| {
            let batch = self.take_pending();
            self.pending.reserve(batch.len());
            batch
        })
    }

    /// Start one record: a writer for the triples about `subject`.
    fn record(&mut self, voc: &'static Vocabulary, subject: Subject) -> NodeWriter<'_> {
        self.pending_records += 1;
        NodeWriter {
            out: &mut self.pending,
            voc,
            subject,
        }
    }

    /// Start the record of a data object; its first sight emits the type
    /// and label triples.
    fn entity_record(&mut self, voc: &'static Vocabulary, obj: &ObjectDesc) -> NodeWriter<'_> {
        let (subject, first_sight) = match self.objects.get(obj) {
            Some(subject) => (subject.clone(), false),
            None => {
                let subject = obj.guid().to_subject();
                self.objects.insert(obj.clone(), subject.clone());
                (subject, true)
            }
        };
        let mut node = self.record(voc, subject);
        if first_sight {
            node.describe(obj.class, Term::plain(obj.label()));
        }
        node
    }
}

/// Appends one node's triples to the pending buffer, in the order of the
/// reference mapping: type, label, properties, relations.
struct NodeWriter<'a> {
    out: &'a mut Vec<Triple>,
    voc: &'static Vocabulary,
    subject: Subject,
}

impl NodeWriter<'_> {
    fn put(&mut self, predicate: &Iri, object: Term) {
        self.out.push(Triple {
            subject: self.subject.clone(),
            predicate: predicate.clone(),
            object,
        });
    }

    fn describe(&mut self, class: impl Into<NodeClass>, label: Term) {
        let voc = self.voc;
        self.put(&voc.rdf_type, voc.class(class).clone());
        self.put(&voc.rdfs_label, label);
    }

    fn prop(&mut self, key: PropKey, value: Literal) {
        self.put(self.voc.prop(key), value.into());
    }

    /// Integer properties arrive as `u64` and are stored as `xsd:integer`
    /// over `i64`, as [`provio_model::PropValue`] converts them.
    fn int_prop(&mut self, key: PropKey, value: u64) {
        self.prop(key, Literal::integer(value as i64));
    }

    fn relate(&mut self, rel: Relation, target: &Guid) {
        self.put(self.voc.relation(rel), Term::Iri(target.to_iri()));
    }
}

impl ProvTracker {
    /// Initialize tracking for one process. Records the Agent chain
    /// (Program → Thread → User, per Figure 4(b) and Table 5 q7–q9) and
    /// the workflow Type node, subject to the selector.
    pub fn new(
        config: Arc<ProvIoConfig>,
        fs: Arc<provio_hpcfs::FileSystem>,
        pid: u32,
        user: &str,
        program: &str,
        clock: VirtualClock,
    ) -> Arc<Self> {
        let store_path = format!(
            "{}/prov_p{}.{}",
            config.store_dir.trim_end_matches('/'),
            pid,
            config.format.extension()
        );
        let store = ProvenanceStore::new(fs, store_path, config.format, config.async_store)
            .with_retry(config.retry)
            .with_compact_every(config.compact_every)
            .with_queue(config.queue_capacity, config.overload)
            .with_breaker(config.breaker_threshold, config.breaker_backoff_ns)
            .with_checksums(config.checksum_format)
            .with_wal(config.wal, config.wal_group)
            .with_parity(config.parity, config.parity_group)
            .with_clock(clock.clone());
        let program_guid = GuidGen::agent("Program", program);
        let thread_guid = GuidGen::agent("Thread", &format!("{program}-rank{pid}"));
        let tracker = Arc::new(ProvTracker {
            config,
            guids: GuidGen::new(pid),
            clock,
            store,
            program_guid,
            thread_guid,
            state: Mutex::new(TrackState::default()),
            events: std::sync::atomic::AtomicU64::new(0),
            finished: Mutex::new(None),
            net: Mutex::new(None),
        });
        tracker.record_agents(user, program, pid);
        tracker
    }

    fn selector(&self) -> &ClassSelector {
        &self.config.selector
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn store(&self) -> &ProvenanceStore {
        &self.store
    }

    /// Arm live streaming: every flushed batch is journal-synced and
    /// then offered to `client`. First attachment wins — a tracker
    /// streams to one collector for its whole life, so sequence numbers
    /// stay meaningful. A tracker whose store keeps no journal stays
    /// inert: with nothing to sync, the collector's acks would vouch for
    /// records only this process holds (`net` requires `wal`, whichever
    /// way the config was built).
    pub fn attach_net(&self, client: Arc<NetClient>) {
        let mut net = self.net.lock();
        if net.is_none() && self.store.journaled() {
            *net = Some(client);
        }
    }

    /// The streaming client, when one is attached.
    pub fn net(&self) -> Option<Arc<NetClient>> {
        self.net.lock().clone()
    }

    pub fn program_guid(&self) -> &Guid {
        &self.program_guid
    }

    /// Hand a drained batch to the store and, when streaming, to the
    /// collector. Called with the state lock released. The `last` batch
    /// (the finishing hand-over) requests no flush of its own and leaves
    /// its journal records to the final commit.
    fn hand_over(&self, batch: Vec<Triple>, last: bool) {
        let net = self.net();
        let streamed = net.as_ref().map(|_| batch.clone());
        if last {
            self.store.push_final(batch);
        } else {
            self.store.push(batch, Some(&self.clock));
            if matches!(self.config.policy, SerializationPolicy::EveryRecords(_)) {
                self.store.flush(Some(&self.clock));
            }
        }
        if let (Some(client), Some(batch)) = (net, streamed) {
            // Journal first, stream second: the collector's ack must
            // never reference records only this process held.
            self.store.wal_sync();
            client.send(batch);
        }
    }

    fn record_agents(&self, user: &str, program: &str, pid: u32) {
        let sel = self.selector();
        let voc = Vocabulary::shared();
        let (user_on, thread_on, program_on) = (
            sel.is_enabled(AgentClass::User),
            sel.is_enabled(AgentClass::Thread),
            sel.is_enabled(AgentClass::Program),
        );
        let user_guid = GuidGen::agent("User", user);
        let mut guard = self.state.lock();
        let st = &mut *guard;

        if user_on {
            st.record(voc, user_guid.to_subject())
                .describe(AgentClass::User, Term::plain(user));
        }
        if thread_on {
            let mut node = st.record(voc, self.thread_guid.to_subject());
            node.describe(AgentClass::Thread, Term::plain(format!("{program}-rank{pid}")));
            node.int_prop(PropKey::Rank, u64::from(pid));
            if user_on {
                node.relate(Relation::ActedOnBehalfOf, &user_guid);
            }
        }
        if program_on {
            let mut node = st.record(voc, self.program_guid.to_subject());
            node.describe(AgentClass::Program, Term::plain(program));
            if thread_on {
                node.relate(Relation::ActedOnBehalfOf, &self.thread_guid);
            } else if user_on {
                node.relate(Relation::ActedOnBehalfOf, &user_guid);
            }
        }
        if let Some(wf_type) = &self.config.workflow_type {
            if sel.is_enabled(ExtensibleClass::Type) {
                let mut node = st.record(voc, GuidGen::extensible("Type", wf_type).to_subject());
                node.describe(ExtensibleClass::Type, Term::plain(wf_type.as_str()));
                if program_on {
                    node.relate(Relation::WasAttributedTo, &self.program_guid);
                }
            }
        }
        self.finish_call(guard);
    }

    /// The end of every tracking call: decide the hand-over under the state
    /// lock the call already holds, perform it with the lock released.
    fn finish_call(&self, mut guard: parking_lot::MutexGuard<'_, TrackState>) {
        let due = guard.take_due(self.config.policy);
        drop(guard);
        if let Some(batch) = due {
            self.hand_over(batch, false);
        }
    }

    /// Track one I/O event (called by the connector and the wrapper).
    pub fn track_io(&self, event: &IoEvent) {
        if !event.ok {
            return; // failed native calls leave no provenance
        }
        let sel = self.selector();
        // Granularity rule (paper §6.2): with entity tracking enabled,
        // events on objects below the enabled granularity are invisible —
        // that is why attribute lineage tracks more operations than file
        // lineage. With no entity class enabled (H5bench scenarios), every
        // I/O API is tracked, object-less.
        let entity = match &event.object {
            Some(obj) if sel.is_enabled(obj.class) => Some(obj),
            Some(_) if sel.any_entity_enabled() => return,
            _ => None,
        };
        let activity_on = sel.is_enabled(event.activity);
        if !activity_on && entity.is_none() {
            return;
        }
        self.clock
            .advance(SimDuration::from_nanos(self.config.record_latency_ns));
        self.events
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

        let voc = Vocabulary::shared();
        let program_on = sel.is_enabled(AgentClass::Program);
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut activity = None;
        if activity_on {
            let api = match st.apis.get(&event.api_name) {
                Some(api) => api,
                None => st.apis.entry(event.api_name.clone()).or_insert(ApiTerms {
                    prefix: self.guids.activity_prefix(&event.api_name),
                    label: Term::plain(event.api_name.as_str()),
                }),
            };
            let label = api.label.clone();
            let guid = self.guids.activity_under(&api.prefix, &mut st.scratch);
            let mut node = st.record(voc, guid.to_subject());
            node.describe(event.activity, label);
            if sel.is_enabled(TrackItem::Duration) {
                node.int_prop(PropKey::ElapsedNs, event.duration_ns);
                node.int_prop(PropKey::TimestampNs, event.timestamp_ns);
            }
            if sel.is_enabled(TrackItem::ByteCounts) && event.bytes > 0 {
                node.int_prop(PropKey::Bytes, event.bytes);
            }
            if program_on {
                node.relate(Relation::WasAssociatedWith, &self.program_guid);
            } else if sel.is_enabled(AgentClass::Thread) {
                node.relate(Relation::WasAssociatedWith, &self.thread_guid);
            }
            // Membership triple enabling Table 5 q4:
            //   ?IO_API prov:wasMemberOf prov:Activity
            node.put(
                voc.relation(Relation::WasMemberOf),
                Term::Iri(voc.prov_activity.clone()),
            );
            activity = Some(guid);
        }

        if let Some(obj) = entity {
            let mut node = st.entity_record(voc, obj);
            if let Some(act) = &activity {
                node.relate(Relation::for_activity(event.activity), act);
            }
            // Write-like operations attribute the object to the program
            // (what DASSA's backward-lineage queries walk, Table 5 q1).
            if program_on
                && matches!(
                    event.activity,
                    ActivityClass::Create
                        | ActivityClass::Write
                        | ActivityClass::Fsync
                        | ActivityClass::Rename
                )
            {
                node.relate(Relation::WasAttributedTo, &self.program_guid);
            }
        }
        self.finish_call(guard);
    }

    /// Explicit API: record a configuration value (Top Reco). Each call
    /// creates a new version node — the "automatic version control" the
    /// paper's ML use case needs.
    pub fn track_configuration(&self, name: &str, value: &str) -> Option<Guid> {
        if !self.selector().is_enabled(ExtensibleClass::Configuration) {
            return None;
        }
        self.clock
            .advance(SimDuration::from_nanos(self.config.record_latency_ns));
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let version = {
            let v = st.config_versions.entry(name.to_string()).or_insert(0);
            *v += 1;
            *v
        };
        // Value-addressed GUID: the same (name, version, value) triple in
        // any run is the same node (multi-run integration merges them);
        // different values never collide.
        let guid = GuidGen::extensible(
            "Configuration",
            &format!(
                "{name}-v{version}-{:08x}",
                provio_model::content_hash(value) as u32
            ),
        );
        let prev = st.config_last_guid.insert(name.to_string(), guid.clone());
        let mut node = st.record(Vocabulary::shared(), guid.to_subject());
        node.describe(ExtensibleClass::Configuration, Term::plain(name));
        node.int_prop(PropKey::Version, version);
        node.prop(PropKey::Value, Literal::plain(value));
        if self.selector().is_enabled(AgentClass::Program) {
            node.relate(Relation::WasAttributedTo, &self.program_guid);
        }
        // New version supersedes the previous one.
        if let Some(prev) = prev {
            node.relate(Relation::WasDerivedFrom, &prev);
            st.current_configs.retain(|g| *g != prev);
        }
        st.current_configs.push(guid.clone());
        self.finish_call(guard);
        Some(guid)
    }

    /// Explicit API: record a metric (e.g. per-epoch training accuracy) and
    /// attach it to the current configuration versions (paper §6.2: "add
    /// the training accuracy to the provenance graph as a property of
    /// configurations").
    pub fn track_metric(&self, name: &str, value: f64) -> Option<Guid> {
        if !self.selector().is_enabled(ExtensibleClass::Metrics) {
            return None;
        }
        self.clock
            .advance(SimDuration::from_nanos(self.config.record_latency_ns));
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let n = self.guids.activity(name); // unique per call
        let guid = GuidGen::extensible("Metrics", n.local());
        let mut node = st.record(Vocabulary::shared(), guid.to_subject());
        node.describe(ExtensibleClass::Metrics, Term::plain(name));
        node.prop(PropKey::Accuracy, Literal::double(value));
        if self.selector().is_enabled(AgentClass::Program) {
            node.relate(Relation::WasAttributedTo, &self.program_guid);
        }
        // The mapping the use case needs — accuracy as a property of the
        // configurations (Table 5 q10/q11) — is written once, at finish,
        // for the final metric value; per-epoch history lives in the
        // Metrics nodes. This keeps storage linear in configs + epochs
        // separately (Figure 8(d-f)).
        st.last_metric = Some((name.to_string(), value));
        self.finish_call(guard);
        Some(guid)
    }

    /// Explicit API: record a direct derivation between two data objects.
    pub fn track_derivation(&self, output: &ObjectDesc, input: &ObjectDesc) {
        if !self.selector().is_enabled(output.class) || !self.selector().is_enabled(input.class) {
            return;
        }
        let voc = Vocabulary::shared();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Make sure the input node exists too: a record of its own.
        let input = st.entity_record(voc, input).subject;
        st.entity_record(voc, output)
            .put(voc.relation(Relation::WasDerivedFrom), input.into());
        self.finish_call(guard);
    }

    /// Number of I/O events tracked.
    pub fn event_count(&self) -> u64 {
        self.events.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Finalize: drain pending triples, flush the store, return a summary.
    ///
    /// Idempotent: the first call does the work, later calls (a registry
    /// sweep after an explicit per-rank finish, a double `finish_all`)
    /// return the cached summary without re-flushing or double-counting.
    ///
    /// The work is the three phases [`TrackerRegistry::finish_all`] runs
    /// across ranks, here inline for one: hand over, render, commit.
    pub fn finish(&self) -> TrackSummary {
        let mut finished = self.finished.lock();
        if let Some(summary) = finished.as_ref() {
            return summary.clone();
        }
        self.finish_hand_over();
        let rendered = self.finish_render();
        let summary = self.finish_commit(rendered);
        *finished = Some(summary.clone());
        summary
    }

    /// Finish phase 0: the last pending triples go to the store (and the
    /// stream). Issues no file-system operation unless streaming, which
    /// journals before it sends.
    fn finish_hand_over(&self) {
        let drained = {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            if let Some((_, value)) = st.last_metric.take() {
                let predicate = Vocabulary::shared().prop(PropKey::Accuracy);
                let accuracy = Term::from(Literal::double(value));
                for cfg in &st.current_configs {
                    st.pending.push(Triple {
                        subject: cfg.to_subject(),
                        predicate: predicate.clone(),
                        object: accuracy.clone(),
                    });
                }
            }
            st.take_pending()
        };
        if !drained.is_empty() {
            self.hand_over(drained, true);
        }
    }

    /// Finish phase 1: wait for the store's intake queue and render the
    /// final snapshot. CPU only — safe to run for many ranks at once.
    fn finish_render(&self) -> Option<RenderedSnapshot> {
        self.store.render_final()
    }

    /// Finish phase 2: every file-system operation of the finish — journal
    /// force, snapshot commit, parity, segment unlinks, journal recycle —
    /// then the stream's final drain and the summary.
    fn finish_commit(&self, rendered: Option<RenderedSnapshot>) -> TrackSummary {
        let store_bytes = self.store.commit_final(rendered, Some(&self.clock));
        // Final drain: give buffered batches a bounded budget to reach
        // the collector. Whatever stays unacked is accounted below and
        // still durable on disk — resync or the post-hoc merge owns it.
        let net_stats = self.net().map(|client| client.drain(NET_DRAIN_ROUNDS));
        let store = self.store.stats();
        TrackSummary {
            events: self.event_count(),
            triples: self.state.lock().triples_total,
            store_bytes,
            store_path: self.store.path().to_string(),
            degraded: store.degraded,
            last_error: store.last_error.map(|e| e.errno_name().to_string()),
            dropped_flushes: store.dropped_flushes,
            shed_batches: store.shed_batches,
            shed_triples: store.shed_triples,
            breaker_trips: store.breaker_trips,
            breaker_skipped: store.breaker_skipped,
            breaker_state: store.breaker_state.as_str().to_string(),
            wal_records: store.wal_records,
            wal_commits: store.wal_commits,
            wal_recycles: store.wal_recycles,
            flush_retries: store.flush_retries,
            net_sent: net_stats.map_or(0, |s| s.sent_batches),
            net_acked: net_stats.map_or(0, |s| s.acked_batches),
            net_retries: net_stats.map_or(0, |s| s.retries),
            net_shed_batches: net_stats.map_or(0, |s| s.shed_batches),
            net_shed_triples: net_stats.map_or(0, |s| s.shed_triples),
            net_unacked: net_stats.map_or(0, |s| s.unacked_batches),
        }
    }
}

impl Drop for ProvTracker {
    fn drop(&mut self) {
        // A process that never reached `finish` (crash, replaced tracker)
        // must not lose its buffered records: drain them into the store,
        // whose own Drop performs the final write.
        let drained = {
            let mut st = self.state.lock();
            std::mem::take(&mut st.pending)
        };
        if !drained.is_empty() {
            self.store.push(drained, None);
        }
        self.store.flush(None);
    }
}

/// pid → tracker map shared by the VOL connector and the syscall wrapper,
/// so each process's events land in its own sub-graph.
#[derive(Default)]
pub struct TrackerRegistry {
    trackers: Mutex<HashMap<u32, Arc<ProvTracker>>>,
}

impl TrackerRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(TrackerRegistry::default())
    }

    pub fn register(&self, pid: u32, tracker: Arc<ProvTracker>) {
        self.trackers.lock().insert(pid, tracker);
    }

    pub fn get(&self, pid: u32) -> Option<Arc<ProvTracker>> {
        self.trackers.lock().get(&pid).cloned()
    }

    pub fn unregister(&self, pid: u32) -> Option<Arc<ProvTracker>> {
        self.trackers.lock().remove(&pid)
    }

    /// Finish every registered tracker, returning per-pid summaries.
    /// Idempotent, because [`ProvTracker::finish`] is: a second sweep
    /// returns the same cached summaries.
    ///
    /// Each rank is its own process in the paper, so the ranks' final
    /// snapshots are rendered in parallel — but fault plans count
    /// file-system calls and op traces record their order, so every
    /// file-system operation is issued from this thread in pid order:
    /// hand-overs first (sequential), then all renders (parallel, CPU
    /// only), then commit after commit (sequential). The operations are
    /// exactly those of calling [`ProvTracker::finish`] rank by rank in
    /// pid order, in that order.
    ///
    /// With the `manifest` knob armed, the run is then *sealed*: a signed
    /// manifest of every committed file's content root is committed to the
    /// store directory and its digest chained into the campaign ledger
    /// (see [`crate::verify`]). Sealing is idempotent too — a second
    /// sweep re-signs byte-identical bytes and the ledger skips the
    /// duplicate digest. Ranks that crashed before this sweep still have
    /// their surviving files signed: the manifest walks the directory, not
    /// the registry.
    pub fn finish_all(&self) -> Vec<(u32, TrackSummary)> {
        let mut trackers: Vec<(u32, Arc<ProvTracker>)> = {
            let map = self.trackers.lock();
            map.iter().map(|(p, t)| (*p, Arc::clone(t))).collect()
        };
        trackers.sort_by_key(|(pid, _)| *pid);
        // Each tracker's `finished` slot stays locked across the phases,
        // as `finish` holds it: a concurrent `finish` waits and then reads
        // the cached summary.
        let mut slots: Vec<_> = trackers.iter().map(|(_, t)| t.finished.lock()).collect();
        let open: Vec<usize> = (0..trackers.len()).filter(|&i| slots[i].is_none()).collect();
        for &i in &open {
            trackers[i].1.finish_hand_over();
        }
        let rendered: Vec<Option<RenderedSnapshot>> = open
            .par_iter()
            .map(|&i| trackers[i].1.finish_render())
            .collect();
        for (&i, rendered) in open.iter().zip(rendered) {
            *slots[i] = Some(trackers[i].1.finish_commit(rendered));
        }
        let out: Vec<(u32, TrackSummary)> = trackers
            .iter()
            .zip(&slots)
            .map(|((pid, _), slot)| (*pid, slot.as_ref().cloned().expect("every slot filled above")))
            .collect();
        drop(slots);

        if let Some((_, t)) = trackers.iter().find(|(_, t)| t.config.manifest) {
            // Every surviving store's commit-time roots, so the seal can
            // skip re-reading files the run itself just wrote. Crashed
            // ranks' files simply miss the cache and are read back.
            let mut roots = crate::verify::RootCache::new();
            for (_, t) in &trackers {
                for (path, n, root) in t.store.committed_roots() {
                    roots.insert(path, (n, root));
                }
            }
            let ranks: Vec<crate::verify::RankEntry> = out
                .iter()
                .map(|(pid, s)| crate::verify::RankEntry {
                    pid: *pid,
                    degraded: s.degraded,
                    triples: s.triples,
                })
                .collect();
            // A failed seal degrades trust, not the run: the summaries and
            // the data files stand either way, and `verify` will report
            // the directory unsigned or unsealed.
            let _ = crate::verify::seal_run_with_roots(
                t.store.fs(),
                t.config.store_dir.trim_end_matches('/'),
                &t.config.manifest_key,
                &ranks,
                &roots,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::{FileSystem, LustreConfig};
    use provio_model::ontology::nodes_of_class;
    use provio_rdf::{turtle, Graph};

    fn fs() -> Arc<FileSystem> {
        FileSystem::new(LustreConfig::default())
    }

    fn read_graph(fs: &Arc<FileSystem>, path: &str) -> Graph {
        let ino = fs.lookup(path).unwrap();
        let size = fs.stat(path).unwrap().size;
        let text = String::from_utf8(fs.read_at(ino, 0, size).unwrap().to_vec()).unwrap();
        turtle::parse(&text).unwrap().0
    }

    fn event(activity: ActivityClass, api: &str, obj: Option<ObjectDesc>) -> IoEvent {
        IoEvent {
            activity,
            api_name: api.to_string(),
            object: obj,
            bytes: 4096,
            duration_ns: 1000,
            timestamp_ns: 5000,
            ok: true,
        }
    }

    #[test]
    fn agents_recorded_with_delegation_chain() {
        let fs = fs();
        let cfg = ProvIoConfig::default().shared();
        let t = ProvTracker::new(
            cfg,
            Arc::clone(&fs),
            0,
            "Bob",
            "vpicio_uni_h5",
            VirtualClock::new(),
        );
        let summary = t.finish();
        let g = read_graph(&fs, &summary.store_path);
        assert_eq!(nodes_of_class(&g, AgentClass::User.into()).len(), 1);
        assert_eq!(nodes_of_class(&g, AgentClass::Thread.into()).len(), 1);
        assert_eq!(nodes_of_class(&g, AgentClass::Program.into()).len(), 1);
        // program actedOnBehalfOf thread actedOnBehalfOf user (Table 5 q8/q9)
        let rels = provio_model::ontology::relations_from_graph(&g, t.program_guid());
        assert!(rels
            .iter()
            .any(|(r, _)| *r == Relation::ActedOnBehalfOf));
    }

    #[test]
    fn io_event_creates_activity_and_entity() {
        let fs = fs();
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            1,
            "Bob",
            "decimate",
            VirtualClock::new(),
        );
        t.track_io(&event(
            ActivityClass::Write,
            "H5Dwrite",
            Some(ObjectDesc::hdf5(EntityClass::Dataset, "/f.h5", "/Timestep_0/x")),
        ));
        let summary = t.finish();
        assert_eq!(summary.events, 1);
        let g = read_graph(&fs, &summary.store_path);
        let acts = nodes_of_class(&g, ActivityClass::Write.into());
        assert_eq!(acts.len(), 1);
        let ents = nodes_of_class(&g, EntityClass::Dataset.into());
        assert_eq!(ents.len(), 1);
        let rels = provio_model::ontology::relations_from_graph(&g, &ents[0]);
        assert!(rels.iter().any(|(r, g2)| *r == Relation::WasWrittenBy && g2 == &acts[0]));
        assert!(rels.iter().any(|(r, _)| *r == Relation::WasAttributedTo));
    }

    #[test]
    fn selector_gates_tracking() {
        let fs = fs();
        let cfg = ProvIoConfig::default()
            .with_selector(ClassSelector::dassa_file_lineage())
            .shared();
        let t = ProvTracker::new(cfg, Arc::clone(&fs), 2, "Bob", "tdms2h5", VirtualClock::new());
        // Dataset tracking disabled under file-lineage preset.
        t.track_io(&event(
            ActivityClass::Write,
            "H5Dwrite",
            Some(ObjectDesc::hdf5(EntityClass::Dataset, "/f.h5", "/d")),
        ));
        // File tracking enabled.
        t.track_io(&event(
            ActivityClass::Create,
            "H5Fcreate",
            Some(ObjectDesc::posix(EntityClass::File, "/f.h5")),
        ));
        let summary = t.finish();
        let g = read_graph(&fs, &summary.store_path);
        assert!(nodes_of_class(&g, EntityClass::Dataset.into()).is_empty());
        assert_eq!(nodes_of_class(&g, EntityClass::File.into()).len(), 1);
        // User agent disabled in this preset.
        assert!(nodes_of_class(&g, AgentClass::User.into()).is_empty());
    }

    #[test]
    fn duration_property_gated() {
        let fs = fs();
        let cfg = ProvIoConfig::default()
            .with_selector(ClassSelector::h5bench_scenario1())
            .shared();
        let t = ProvTracker::new(cfg, Arc::clone(&fs), 3, "Bob", "h5bench", VirtualClock::new());
        t.track_io(&event(ActivityClass::Read, "H5Dread", None));
        let summary = t.finish();
        let g = read_graph(&fs, &summary.store_path);
        let acts = nodes_of_class(&g, ActivityClass::Read.into());
        assert_eq!(acts.len(), 1);
        let node = provio_model::ontology::node_from_graph(&g, &acts[0]).unwrap();
        assert!(node.prop(PropKey::ElapsedNs).is_none(), "scenario 1 has no durations");

        // Scenario 2 records them.
        let cfg2 = ProvIoConfig::default()
            .with_selector(ClassSelector::h5bench_scenario2())
            .with_store_dir("/provio2")
            .shared();
        let t2 = ProvTracker::new(cfg2, Arc::clone(&fs), 4, "Bob", "h5bench", VirtualClock::new());
        t2.track_io(&event(ActivityClass::Read, "H5Dread", None));
        let s2 = t2.finish();
        let g2 = read_graph(&fs, &s2.store_path);
        let acts2 = nodes_of_class(&g2, ActivityClass::Read.into());
        let node2 = provio_model::ontology::node_from_graph(&g2, &acts2[0]).unwrap();
        assert!(node2.prop(PropKey::ElapsedNs).is_some());
    }

    #[test]
    fn failed_events_not_tracked() {
        let fs = fs();
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            5,
            "Bob",
            "p",
            VirtualClock::new(),
        );
        let mut ev = event(ActivityClass::Open, "open", None);
        ev.ok = false;
        t.track_io(&ev);
        assert_eq!(t.finish().events, 0);
    }

    #[test]
    fn configuration_versions_and_metrics() {
        let fs = fs();
        let cfg = ProvIoConfig::default()
            .with_selector(ClassSelector::topreco())
            .shared();
        let t = ProvTracker::new(cfg, Arc::clone(&fs), 6, "Alice", "topreco", VirtualClock::new());
        t.track_configuration("learning_rate", "0.01").unwrap();
        t.track_configuration("learning_rate", "0.001").unwrap();
        t.track_configuration("batch_size", "64").unwrap();
        t.track_metric("accuracy", 0.91).unwrap();
        let summary = t.finish();
        let g = read_graph(&fs, &summary.store_path);
        let cfgs = nodes_of_class(&g, ExtensibleClass::Configuration.into());
        assert_eq!(cfgs.len(), 3, "two lr versions + one batch_size");
        let metrics = nodes_of_class(&g, ExtensibleClass::Metrics.into());
        assert_eq!(metrics.len(), 1);
        // v2 of learning_rate derives from v1.
        let v2 = GuidGen::extensible(
            "Configuration",
            &format!("learning_rate-v2-{:08x}", provio_model::content_hash("0.001") as u32),
        );
        let rels = provio_model::ontology::relations_from_graph(&g, &v2);
        assert!(rels.iter().any(|(r, _)| *r == Relation::WasDerivedFrom));
        // Accuracy attached to current configuration nodes.
        let node = provio_model::ontology::node_from_graph(&g, &v2).unwrap();
        assert_eq!(node.prop(PropKey::Accuracy), Some(&provio_model::PropValue::Float(0.91)));
    }

    #[test]
    fn tracking_disabled_apis_return_none() {
        let fs = fs();
        let cfg = ProvIoConfig::default()
            .with_selector(ClassSelector::h5bench_scenario1())
            .shared();
        let t = ProvTracker::new(cfg, Arc::clone(&fs), 7, "A", "p", VirtualClock::new());
        assert!(t.track_configuration("x", "1").is_none());
        assert!(t.track_metric("m", 0.5).is_none());
    }

    #[test]
    fn node_triples_emitted_once_per_process() {
        let fs = fs();
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            8,
            "B",
            "p",
            VirtualClock::new(),
        );
        let obj = ObjectDesc::posix(EntityClass::File, "/hot.file");
        for _ in 0..50 {
            t.track_io(&event(ActivityClass::Read, "read", Some(obj.clone())));
        }
        let summary = t.finish();
        let g = read_graph(&fs, &summary.store_path);
        // One File node despite 50 touches.
        assert_eq!(nodes_of_class(&g, EntityClass::File.into()).len(), 1);
        // But 50 Read activities.
        assert_eq!(nodes_of_class(&g, ActivityClass::Read.into()).len(), 50);
    }

    #[test]
    fn first_sight_state_is_bounded_by_objects_not_events() {
        // Activity GUIDs are unique per invocation by construction, so
        // remembering them (one heap string per event, for the life of the
        // rank) bought nothing: only data objects need a first-sight record.
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            fs(),
            11,
            "B",
            "p",
            VirtualClock::new(),
        );
        for i in 0..10_000u32 {
            let obj = ObjectDesc::posix(EntityClass::File, format!("/hot{}", i % 8));
            let (class, api) = if i.is_multiple_of(2) {
                (ActivityClass::Read, "read")
            } else {
                (ActivityClass::Write, "write")
            };
            t.track_io(&event(class, api, Some(obj)));
        }
        let st = t.state.lock();
        assert_eq!(st.objects.len(), 8, "one entry per distinct object");
        assert_eq!(st.apis.len(), 2, "one entry per distinct API name");
    }

    #[test]
    fn tracking_charges_the_workflow_clock() {
        let fs = fs();
        let clock = VirtualClock::new();
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            9,
            "B",
            "p",
            clock.clone(),
        );
        assert_eq!(clock.now().as_nanos(), 0, "recording the agents is free");
        for i in 0..100 {
            t.track_io(&event(
                ActivityClass::Write,
                "write",
                Some(ObjectDesc::posix(EntityClass::File, format!("/f{i}"))),
            ));
        }
        t.track_configuration("lr", "0.01");
        t.track_metric("accuracy", 0.9);
        t.finish();
        assert_eq!(
            clock.now().as_nanos(),
            102 * crate::config::DEFAULT_RECORD_LATENCY_NS,
            "tracked calls × record_latency_ns, and nothing else"
        );
    }

    #[test]
    fn registry_finish_all() {
        let fs = fs();
        let reg = TrackerRegistry::new();
        for pid in 0..3 {
            let cfg = ProvIoConfig::default().shared();
            let t = ProvTracker::new(cfg, Arc::clone(&fs), pid, "B", "p", VirtualClock::new());
            t.track_io(&event(ActivityClass::Read, "read", None));
            reg.register(pid, t);
        }
        let summaries = reg.finish_all();
        assert_eq!(summaries.len(), 3);
        assert!(summaries.iter().all(|(_, s)| s.events == 1));
        // Each process wrote its own sub-graph file.
        assert_eq!(fs.walk_files("/provio").unwrap().len(), 3);
    }

    #[test]
    fn finish_is_idempotent() {
        let fs = fs();
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            20,
            "B",
            "p",
            VirtualClock::new(),
        );
        t.track_io(&event(
            ActivityClass::Write,
            "write",
            Some(ObjectDesc::posix(EntityClass::File, "/a")),
        ));
        let first = t.finish();
        assert_eq!(first.events, 1);
        // A straggler event after finish must not leak into the summary:
        // the second call returns the cached result, bit for bit.
        t.track_io(&event(
            ActivityClass::Read,
            "read",
            Some(ObjectDesc::posix(EntityClass::File, "/a")),
        ));
        let second = t.finish();
        assert_eq!(first, second, "second finish returns the cached summary");
        assert_eq!(second.events, 1, "straggler not double-counted");
    }

    #[test]
    fn finish_all_is_idempotent() {
        let fs = fs();
        let reg = TrackerRegistry::new();
        for pid in 0..2 {
            let cfg = ProvIoConfig::default().shared();
            let t = ProvTracker::new(cfg, Arc::clone(&fs), pid, "B", "p", VirtualClock::new());
            t.track_io(&event(ActivityClass::Read, "read", None));
            reg.register(pid, t);
        }
        let first = reg.finish_all();
        let second = reg.finish_all();
        assert_eq!(first, second, "a second sweep re-reports, never re-flushes");
    }

    #[test]
    fn summary_reports_breaker_and_shed_stats() {
        use crate::config::RetryPolicy;
        use provio_hpcfs::{FaultOp, FaultPlan, FaultRule, FsError};

        // Healthy run: quiet stats.
        let fs0 = fs();
        let t0 = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs0),
            21,
            "B",
            "p",
            VirtualClock::new(),
        );
        let s0 = t0.finish();
        assert_eq!(s0.breaker_state, "closed");
        assert_eq!(s0.breaker_trips, 0);
        assert_eq!(s0.shed_batches, 0);
        assert_eq!(s0.shed_triples, 0);

        // Persistently failing store with the breaker armed: the summary
        // says so instead of reporting a silent zero.
        let fs1 = fs();
        let plan = FaultPlan::new(41);
        plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("/provbrk/"));
        fs1.install_faults(plan);
        let cfg = ProvIoConfig::default()
            .with_store_dir("/provbrk")
            .synchronous()
            .with_policy(SerializationPolicy::EveryRecords(1))
            .with_retry(RetryPolicy {
                max_attempts: 1,
                backoff_ns: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(1, 1_000_000)
            .shared();
        let t1 = ProvTracker::new(cfg, Arc::clone(&fs1), 22, "B", "p", VirtualClock::new());
        t1.track_io(&event(ActivityClass::Read, "read", None));
        let s1 = t1.finish();
        assert!(s1.degraded);
        assert!(s1.breaker_trips >= 1, "breaker tripped on the failing store");
        assert_eq!(s1.breaker_state, "open");
    }

    #[test]
    fn summary_reports_journal_stats() {
        // Journal off (the default): stats stay quiet.
        let fs0 = fs();
        let t0 = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs0),
            31,
            "B",
            "p",
            VirtualClock::new(),
        );
        t0.track_io(&event(ActivityClass::Read, "read", None));
        let s0 = t0.finish();
        assert_eq!(s0.wal_records, 0, "journal off by default");
        assert_eq!(s0.wal_commits, 0);
        assert_eq!(s0.wal_recycles, 0);

        // Journal on: records group-commit on push and the finishing
        // snapshot recycles the generation.
        let fs1 = fs();
        let cfg = ProvIoConfig::default().with_wal(true, 4).synchronous().shared();
        let t1 = ProvTracker::new(cfg, Arc::clone(&fs1), 32, "B", "p", VirtualClock::new());
        for _ in 0..3 {
            t1.track_io(&event(ActivityClass::Write, "write", None));
        }
        let s1 = t1.finish();
        assert!(s1.wal_records > 0, "pushed records were journaled: {s1:?}");
        assert!(s1.wal_commits >= 1);
        assert!(s1.wal_recycles >= 1, "the finishing snapshot recycles the journal");
        assert!(!s1.degraded);
    }

    #[test]
    fn derivation_api_links_objects() {
        let fs = fs();
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            10,
            "B",
            "tdms2h5",
            VirtualClock::new(),
        );
        let out = ObjectDesc::posix(EntityClass::File, "/WestSac.h5");
        let inp = ObjectDesc::posix(EntityClass::File, "/WestSac.tdms");
        t.track_derivation(&out, &inp);
        let summary = t.finish();
        let g = read_graph(&fs, &summary.store_path);
        let rels = provio_model::ontology::relations_from_graph(&g, &out.guid());
        assert!(rels.iter().any(|(r, g2)| *r == Relation::WasDerivedFrom && *g2 == inp.guid()));
    }
}
