//! Property tests over the tracking pipeline: selector monotonicity
//! (enabling more sub-classes never loses provenance), store round-trip
//! fidelity, merge invariance under event partitioning, and the
//! differential oracle that holds the tracker's direct term-by-term
//! emission to the reference mapping (`ProvRecord` +
//! `ontology::record_triples_into`).

use proptest::prelude::*;
use provio::{merge_directory, IoEvent, ObjectDesc, ProvIoConfig, ProvTracker};
use provio_hpcfs::{FileSystem, LustreConfig};
use provio_model::{
    ontology, ActivityClass, AgentClass, ClassSelector, EntityClass, ExtensibleClass, Guid,
    GuidGen, PropKey, ProvNode, ProvRecord, Relation, TrackItem,
};
use provio_rdf::{ntriples, Graph, Iri, Literal, Term, Triple};
use provio_simrt::VirtualClock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Ev {
    activity: u8,
    entity: u8,
    name: u8,
    bytes: u16,
}

fn arb_events() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        (0u8..6, 0u8..7, 0u8..8, any::<u16>()).prop_map(|(activity, entity, name, bytes)| Ev {
            activity,
            entity,
            name,
            bytes,
        }),
        1..40,
    )
}

fn to_event(e: &Ev, i: u64) -> IoEvent {
    let activity = ActivityClass::ALL[e.activity as usize];
    let entity = EntityClass::ALL[e.entity as usize];
    IoEvent {
        activity,
        api_name: format!("api_{}", activity.local_name()),
        object: Some(ObjectDesc::hdf5(
            entity,
            "/f.h5",
            format!("/obj{}", e.name),
        )),
        bytes: e.bytes as u64,
        duration_ns: 10,
        timestamp_ns: i,
        ok: true,
    }
}

fn run_events(events: &[Ev], selector: ClassSelector) -> (Graph, u64) {
    let fs = FileSystem::new(LustreConfig::default());
    let tracker = ProvTracker::new(
        ProvIoConfig::default()
            .with_selector(selector)
            .with_record_latency_ns(0)
            .shared(),
        Arc::clone(&fs),
        0,
        "u",
        "p",
        VirtualClock::new(),
    );
    for (i, e) in events.iter().enumerate() {
        tracker.track_io(&to_event(e, i as u64));
    }
    let summary = tracker.finish();
    let (graph, _) = merge_directory(&fs, "/provio");
    (graph, summary.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DASSA's nested presets: finer granularity ⇒ superset of events and
    /// at least as many triples.
    #[test]
    fn selector_granularity_is_monotone(events in arb_events()) {
        let (g_file, e_file) = run_events(&events, ClassSelector::dassa_file_lineage());
        let (g_ds, e_ds) = run_events(&events, ClassSelector::dassa_dataset_lineage());
        let (g_attr, e_attr) = run_events(&events, ClassSelector::dassa_attribute_lineage());
        prop_assert!(e_file <= e_ds);
        prop_assert!(e_ds <= e_attr);
        prop_assert!(g_file.len() <= g_ds.len());
        prop_assert!(g_ds.len() <= g_attr.len());
    }

    /// `all()` captures every event; `none()` captures none.
    #[test]
    fn all_and_none_bracket(events in arb_events()) {
        let (g_all, e_all) = run_events(&events, ClassSelector::all());
        let (g_none, e_none) = run_events(&events, ClassSelector::none());
        prop_assert_eq!(e_all, events.len() as u64);
        prop_assert_eq!(e_none, 0);
        prop_assert!(!g_all.is_empty());
        prop_assert_eq!(g_none.len(), 0);
    }

    /// Partitioning events across processes and merging yields the same
    /// entity/agent nodes as one process tracking everything (activities
    /// differ only in their per-process GUIDs).
    #[test]
    fn merge_invariant_under_partitioning(events in arb_events(), split in any::<prop::sample::Index>()) {
        use provio_model::ontology::nodes_of_class;

        let k = split.index(events.len());
        let fs = FileSystem::new(LustreConfig::default());
        for (pid, chunk) in [&events[..k], &events[k..]].iter().enumerate() {
            let t = ProvTracker::new(
                ProvIoConfig::default().with_record_latency_ns(0).shared(),
                Arc::clone(&fs),
                pid as u32,
                "u",
                "p",
                VirtualClock::new(),
            );
            for (i, e) in chunk.iter().enumerate() {
                t.track_io(&to_event(e, i as u64));
            }
            t.finish();
        }
        let (split_graph, _) = merge_directory(&fs, "/provio");

        let (single_graph, _) = run_events(&events, ClassSelector::all());

        for class in EntityClass::ALL {
            let a = nodes_of_class(&split_graph, class.into()).len();
            let b = nodes_of_class(&single_graph, class.into()).len();
            prop_assert_eq!(a, b, "entity class {:?}", class);
        }
        for class in ActivityClass::ALL {
            let a = nodes_of_class(&split_graph, class.into()).len();
            let b = nodes_of_class(&single_graph, class.into()).len();
            prop_assert_eq!(a, b, "activity class {:?}", class);
        }
    }

    /// The store round-trips exactly: what the tracker emitted is what the
    /// merged graph contains (Turtle serialize/parse is lossless for the
    /// tracker's output).
    #[test]
    fn store_round_trip_lossless(events in arb_events()) {
        let (graph, _) = run_events(&events, ClassSelector::all());
        let ttl = provio_rdf::turtle::serialize(&graph, &provio_rdf::Namespaces::standard());
        let (reparsed, _) = provio_rdf::turtle::parse(&ttl).unwrap();
        prop_assert_eq!(graph.len(), reparsed.len());
        for t in graph.iter() {
            prop_assert!(reparsed.contains(&t));
        }
    }
}

// ---------------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------------

/// One call on a tracker.
#[derive(Debug, Clone)]
enum Op {
    Io {
        activity: u8,
        /// `None`: an object-less event.
        object: Option<(u8, u8)>,
        api: u8,
        bytes: u16,
        ok: bool,
    },
    Configuration { name: u8, value: u8 },
    Metric { name: u8, value: u8 },
    Derivation { output: (u8, u8), input: (u8, u8) },
}

/// Names that exercise GUID sanitization and literal escaping.
const NAMES: [&str; 4] = ["lr", "batch size", "\u{b5}-step", "a\"quoted\\name"];

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let object = || (0u8..7, 0u8..6);
    proptest::collection::vec(
        prop_oneof![
            8 => (0u8..6, any::<bool>(), object(), 0u8..4, any::<u16>(), 0u8..8).prop_map(
                |(activity, has_object, object, api, bytes, ok)| Op::Io {
                    activity,
                    object: has_object.then_some(object),
                    api,
                    // A third of the events move no bytes; one in eight failed.
                    bytes: if bytes.is_multiple_of(3) { 0 } else { bytes },
                    ok: ok != 0,
                }
            ),
            1 => (0u8..4, 0u8..3).prop_map(|(name, value)| Op::Configuration { name, value }),
            1 => (0u8..4, 0u8..5).prop_map(|(name, value)| Op::Metric { name, value }),
            1 => (object(), object()).prop_map(|(output, input)| Op::Derivation { output, input }),
        ],
        1..60,
    )
}

fn selector_from_mask(mask: u32) -> ClassSelector {
    let mut s = ClassSelector::none();
    for (i, item) in TrackItem::all().enumerate() {
        if mask >> i & 1 == 1 {
            s.enable(item);
        }
    }
    s
}

fn presets() -> Vec<ClassSelector> {
    vec![
        ClassSelector::all(),
        ClassSelector::none(),
        ClassSelector::dassa_file_lineage(),
        ClassSelector::dassa_dataset_lineage(),
        ClassSelector::dassa_attribute_lineage(),
        ClassSelector::h5bench_scenario1(),
        ClassSelector::h5bench_scenario2(),
        ClassSelector::h5bench_scenario3(),
        ClassSelector::topreco(),
    ]
}

fn object_desc((class, name): (u8, u8)) -> ObjectDesc {
    let class = EntityClass::ALL[class as usize];
    if name.is_multiple_of(2) {
        ObjectDesc::posix(class, format!("/data/o {name}"))
    } else {
        ObjectDesc::hdf5(class, "/f.h5", format!("/g/o{name}"))
    }
}

fn io_event(op: &Op, i: u64) -> IoEvent {
    let Op::Io {
        activity,
        object,
        api,
        bytes,
        ok,
    } = op
    else {
        unreachable!("only called on Io ops")
    };
    IoEvent {
        activity: ActivityClass::ALL[*activity as usize],
        api_name: format!("api {api}"),
        object: object.map(object_desc),
        bytes: u64::from(*bytes),
        duration_ns: 10 + i,
        timestamp_ns: 1_000 + i,
        ok: *ok,
    }
}

const PID: u32 = 7;
const USER: &str = "u ser";
const PROGRAM: &str = "prog";
const WORKFLOW_TYPE: &str = "Machine Learning";

/// The record path the tracker used before it wrote terms directly, kept
/// as the oracle: one `ProvRecord` per node, mapped by
/// `ontology::record_triples_into`, the type/label pair dropped unless the
/// GUID is seen for the first time.
struct Reference {
    sel: ClassSelector,
    guids: GuidGen,
    program: Guid,
    thread: Guid,
    seen: HashSet<Guid>,
    out: Vec<Triple>,
    config_versions: HashMap<String, u64>,
    config_last: HashMap<String, Guid>,
    current_configs: Vec<Guid>,
    last_metric: Option<f64>,
}

impl Reference {
    fn new(sel: ClassSelector) -> Self {
        let thread_name = format!("{PROGRAM}-rank{PID}");
        let mut r = Reference {
            guids: GuidGen::new(PID),
            program: GuidGen::agent("Program", PROGRAM),
            thread: GuidGen::agent("Thread", &thread_name),
            seen: HashSet::new(),
            out: Vec::new(),
            config_versions: HashMap::new(),
            config_last: HashMap::new(),
            current_configs: Vec::new(),
            last_metric: None,
            sel,
        };
        let on = |r: &Reference, c: AgentClass| r.sel.is_enabled(c);
        let user = GuidGen::agent("User", USER);
        if on(&r, AgentClass::User) {
            r.emit(ProvRecord::new(ProvNode::new(user.clone(), AgentClass::User, USER)));
        }
        if on(&r, AgentClass::Thread) {
            let mut rec = ProvRecord::new(
                ProvNode::new(r.thread.clone(), AgentClass::Thread, thread_name)
                    .with_prop(PropKey::Rank, u64::from(PID)),
            );
            if on(&r, AgentClass::User) {
                rec = rec.with_relation(Relation::ActedOnBehalfOf, user.clone());
            }
            r.emit(rec);
        }
        if on(&r, AgentClass::Program) {
            let mut rec =
                ProvRecord::new(ProvNode::new(r.program.clone(), AgentClass::Program, PROGRAM));
            if on(&r, AgentClass::Thread) {
                rec = rec.with_relation(Relation::ActedOnBehalfOf, r.thread.clone());
            } else if on(&r, AgentClass::User) {
                rec = rec.with_relation(Relation::ActedOnBehalfOf, user);
            }
            r.emit(rec);
        }
        if r.sel.is_enabled(ExtensibleClass::Type) {
            let mut rec = ProvRecord::new(ProvNode::new(
                GuidGen::extensible("Type", WORKFLOW_TYPE),
                ExtensibleClass::Type,
                WORKFLOW_TYPE,
            ));
            if on(&r, AgentClass::Program) {
                rec = rec.with_relation(Relation::WasAttributedTo, r.program.clone());
            }
            r.emit(rec);
        }
        r
    }

    fn emit(&mut self, rec: ProvRecord) {
        let first_sight = self.seen.insert(rec.node.id.clone());
        let start = self.out.len();
        ontology::record_triples_into(&rec, &mut self.out);
        if !first_sight {
            self.out.drain(start..start + 2);
        }
    }

    fn entity(&self, obj: &ObjectDesc) -> ProvRecord {
        ProvRecord::new(ProvNode::new(obj.guid(), obj.class, obj.label()))
    }

    fn track_io(&mut self, e: &IoEvent) {
        if !e.ok {
            return;
        }
        if let Some(obj) = &e.object {
            if self.sel.any_entity_enabled() && !self.sel.is_enabled(obj.class) {
                return;
            }
        }
        let activity_on = self.sel.is_enabled(e.activity);
        let entity = e.object.as_ref().filter(|o| self.sel.is_enabled(o.class));
        if !activity_on && entity.is_none() {
            return;
        }
        let mut activity = None;
        if activity_on {
            let guid = self.guids.activity(&e.api_name);
            let mut node = ProvNode::new(guid.clone(), e.activity, e.api_name.clone());
            if self.sel.is_enabled(TrackItem::Duration) {
                node = node
                    .with_prop(PropKey::ElapsedNs, e.duration_ns)
                    .with_prop(PropKey::TimestampNs, e.timestamp_ns);
            }
            if self.sel.is_enabled(TrackItem::ByteCounts) && e.bytes > 0 {
                node = node.with_prop(PropKey::Bytes, e.bytes);
            }
            let mut rec = ProvRecord::new(node);
            if self.sel.is_enabled(AgentClass::Program) {
                rec = rec.with_relation(Relation::WasAssociatedWith, self.program.clone());
            } else if self.sel.is_enabled(AgentClass::Thread) {
                rec = rec.with_relation(Relation::WasAssociatedWith, self.thread.clone());
            }
            self.emit(rec);
            self.out.push(Triple::new(
                guid.to_subject(),
                Iri::new(Relation::WasMemberOf.iri()),
                Term::iri("http://www.w3.org/ns/prov#Activity"),
            ));
            activity = Some(guid);
        }
        if let Some(obj) = entity {
            let mut rec = self.entity(obj);
            if let Some(act) = activity {
                rec = rec.with_relation(Relation::for_activity(e.activity), act);
            }
            let write_like = !matches!(e.activity, ActivityClass::Open | ActivityClass::Read);
            if write_like && self.sel.is_enabled(AgentClass::Program) {
                rec = rec.with_relation(Relation::WasAttributedTo, self.program.clone());
            }
            self.emit(rec);
        }
    }

    fn track_configuration(&mut self, name: &str, value: &str) {
        if !self.sel.is_enabled(ExtensibleClass::Configuration) {
            return;
        }
        let version = self.config_versions.entry(name.to_string()).or_insert(0);
        *version += 1;
        let guid = GuidGen::extensible(
            "Configuration",
            &format!(
                "{name}-v{version}-{:08x}",
                provio_model::content_hash(value) as u32
            ),
        );
        let mut rec = ProvRecord::new(
            ProvNode::new(guid.clone(), ExtensibleClass::Configuration, name)
                .with_prop(PropKey::Version, *version)
                .with_prop(PropKey::Value, value),
        );
        if self.sel.is_enabled(AgentClass::Program) {
            rec = rec.with_relation(Relation::WasAttributedTo, self.program.clone());
        }
        if let Some(prev) = self.config_last.insert(name.to_string(), guid.clone()) {
            self.current_configs.retain(|g| *g != prev);
            rec = rec.with_relation(Relation::WasDerivedFrom, prev);
        }
        self.emit(rec);
        self.current_configs.push(guid);
    }

    fn track_metric(&mut self, name: &str, value: f64) {
        if !self.sel.is_enabled(ExtensibleClass::Metrics) {
            return;
        }
        let guid = GuidGen::extensible("Metrics", self.guids.activity(name).local());
        let mut rec = ProvRecord::new(
            ProvNode::new(guid, ExtensibleClass::Metrics, name).with_prop(PropKey::Accuracy, value),
        );
        if self.sel.is_enabled(AgentClass::Program) {
            rec = rec.with_relation(Relation::WasAttributedTo, self.program.clone());
        }
        self.emit(rec);
        self.last_metric = Some(value);
    }

    fn track_derivation(&mut self, output: &ObjectDesc, input: &ObjectDesc) {
        if !self.sel.is_enabled(output.class) || !self.sel.is_enabled(input.class) {
            return;
        }
        let in_rec = self.entity(input);
        let out_rec = self
            .entity(output)
            .with_relation(Relation::WasDerivedFrom, input.guid());
        self.emit(in_rec);
        self.emit(out_rec);
    }

    /// Everything emitted, the finish-time accuracy properties included.
    fn finish(mut self) -> Vec<Triple> {
        if let Some(value) = self.last_metric {
            for cfg in &self.current_configs {
                self.out.push(Triple::new(
                    cfg.to_subject(),
                    Iri::new(PropKey::Accuracy.iri()),
                    Literal::double(value),
                ));
            }
        }
        self.out
    }
}

/// Run `ops` through a tracker and through the reference; the stored graph
/// and the emitted-triple count must agree.
fn check_against_reference(ops: &[Op], sel: ClassSelector) -> Result<(), String> {
    let fs = FileSystem::new(LustreConfig::default());
    let tracker = ProvTracker::new(
        ProvIoConfig::default()
            .with_selector(sel.clone())
            .with_workflow_type(WORKFLOW_TYPE)
            .with_record_latency_ns(0)
            .shared(),
        Arc::clone(&fs),
        PID,
        USER,
        PROGRAM,
        VirtualClock::new(),
    );
    let mut reference = Reference::new(sel.clone());
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Io { .. } => {
                let e = io_event(op, i as u64);
                tracker.track_io(&e);
                reference.track_io(&e);
            }
            Op::Configuration { name, value } => {
                let (name, value) = (NAMES[*name as usize], format!("0.{value}"));
                tracker.track_configuration(name, &value);
                reference.track_configuration(name, &value);
            }
            Op::Metric { name, value } => {
                let (name, value) = (NAMES[*name as usize], f64::from(*value) / 4.0);
                tracker.track_metric(name, value);
                reference.track_metric(name, value);
            }
            Op::Derivation { output, input } => {
                let (output, input) = (object_desc(*output), object_desc(*input));
                tracker.track_derivation(&output, &input);
                reference.track_derivation(&output, &input);
            }
        }
    }
    let summary = tracker.finish();
    let expected = reference.finish();
    if summary.triples != expected.len() as u64 {
        return Err(format!(
            "{sel:?}: tracker emitted {} triples, reference {}",
            summary.triples,
            expected.len()
        ));
    }
    let (stored, _) = merge_directory(&fs, "/provio");
    let mut want = Graph::new();
    for t in &expected {
        want.insert(t);
    }
    let (got, want) = (
        ntriples::sorted_graph_lines(&stored),
        ntriples::sorted_graph_lines(&want),
    );
    if got != want {
        let missing: Vec<_> = want.iter().filter(|l| !got.contains(l)).take(5).collect();
        let extra: Vec<_> = got.iter().filter(|l| !want.contains(l)).take(5).collect();
        return Err(format!("{sel:?}: missing {missing:#?}, extra {extra:#?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random call streams × random selectors.
    #[test]
    fn tracker_emits_what_the_reference_mapping_emits(ops in arb_ops(), mask in 0u32..(1 << 21)) {
        let verdict = check_against_reference(&ops, selector_from_mask(mask));
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The same streams under every Table 3 preset.
    #[test]
    fn tracker_matches_the_reference_under_every_preset(ops in arb_ops()) {
        for sel in presets() {
            let verdict = check_against_reference(&ops, sel);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}
