//! The tracker's record construction, rebuilt from `provio-model`'s public
//! API only, so the layers under the tracker (`model`, `rdf.graph`,
//! `rdf.ntriples`, `core.frame`, `core.store`, …) can be driven with the
//! seed's real triples one layer at a time, and so the posthoc workload can
//! feed a store directly. A self-test holds it equal to what `ProvTracker`
//! emits under `ClassSelector::all()`.

use crate::gen;
use provio::IoEvent;
use provio_model::{
    ontology, ActivityClass, AgentClass, Guid, GuidGen, PropKey, ProvNode, ProvRecord, Relation,
};
use provio_rdf::{ns, Iri, Term, Triple};
use std::collections::HashSet;

/// One rank's record builder: GUID counter, agent GUIDs and the first-sight
/// set that decides whether a node's type/label triples are emitted.
pub struct RankModel {
    guids: GuidGen,
    program: Guid,
    seen: HashSet<Guid>,
    member_of: Term,
}

impl RankModel {
    /// The builder plus the agent triples a tracker emits at initialization.
    pub fn new(rank: u32) -> (Self, Vec<Triple>) {
        let pid = gen::pid(rank);
        let program_name = gen::program(rank);
        let thread_name = format!("{program_name}-rank{pid}");
        let user = GuidGen::agent("User", gen::USER);
        let thread = GuidGen::agent("Thread", &thread_name);
        let program = GuidGen::agent("Program", &program_name);
        let mut model = RankModel {
            guids: GuidGen::new(pid),
            program: program.clone(),
            seen: HashSet::new(),
            member_of: Term::iri(format!("{}Activity", ns::PROV)),
        };
        let mut out = Vec::new();
        model.emit(
            ProvRecord::new(ProvNode::new(user.clone(), AgentClass::User, gen::USER)),
            &mut out,
        );
        model.emit(
            ProvRecord::new(
                ProvNode::new(thread.clone(), AgentClass::Thread, thread_name)
                    .with_prop(PropKey::Rank, pid as u64),
            )
            .with_relation(Relation::ActedOnBehalfOf, user),
            &mut out,
        );
        model.emit(
            ProvRecord::new(ProvNode::new(program, AgentClass::Program, program_name))
                .with_relation(Relation::ActedOnBehalfOf, thread),
            &mut out,
        );
        (model, out)
    }

    fn emit(&mut self, rec: ProvRecord, out: &mut Vec<Triple>) {
        let first_sight = self.seen.insert(rec.node.id.clone());
        let start = out.len();
        ontology::record_triples_into(&rec, out);
        if !first_sight {
            out.drain(start..start + 2); // type + label already emitted
        }
    }

    /// The two GUIDs of one event (`model.guid_ns_per_event`).
    pub fn guids(&self, e: &IoEvent) -> (Guid, Option<Guid>) {
        (
            self.guids.activity(&e.api_name),
            e.object.as_ref().map(|o| o.guid()),
        )
    }

    /// Append the triples of one tracked event: the activity record, its
    /// membership triple and the entity record.
    pub fn event_triples(&mut self, e: &IoEvent, out: &mut Vec<Triple>) {
        let (activity, entity) = self.guids(e);
        let mut node = ProvNode::new(activity.clone(), e.activity, e.api_name.clone())
            .with_prop(PropKey::ElapsedNs, e.duration_ns)
            .with_prop(PropKey::TimestampNs, e.timestamp_ns);
        if e.bytes > 0 {
            node = node.with_prop(PropKey::Bytes, e.bytes);
        }
        self.emit(
            ProvRecord::new(node).with_relation(Relation::WasAssociatedWith, self.program.clone()),
            out,
        );
        out.push(Triple::new(
            activity.to_subject(),
            Iri::new(Relation::WasMemberOf.iri()),
            self.member_of.clone(),
        ));
        if let (Some(obj), Some(guid)) = (&e.object, entity) {
            let mut rec = ProvRecord::new(ProvNode::new(guid, obj.class, obj.label()))
                .with_relation(Relation::for_activity(e.activity), activity);
            if matches!(e.activity, ActivityClass::Create | ActivityClass::Write) {
                rec = rec.with_relation(Relation::WasAttributedTo, self.program.clone());
            }
            self.emit(rec, out);
        }
    }
}

/// All triples of one rank's stream, agents first, in emission order.
pub fn stream_triples(stream: &gen::Stream) -> Vec<Triple> {
    let (mut model, mut out) = RankModel::new(stream.rank);
    for e in &stream.events {
        model.event_triples(e, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio::{merge_directory, ProvIoConfig, ProvTracker};
    use provio_hpcfs::{FileSystem, LustreConfig};
    use provio_rdf::{ntriples, Graph};
    use provio_simrt::VirtualClock;

    #[test]
    fn model_emits_what_the_tracker_emits() {
        let streams = gen::generate(11, 2, 300);
        let fs = FileSystem::new(LustreConfig::default());
        let cfg = ProvIoConfig::default().with_record_latency_ns(0).shared();
        let mut emitted = 0;
        let mut ours = Graph::new();
        for s in &streams {
            let t = ProvTracker::new(
                cfg.clone(),
                fs.clone(),
                gen::pid(s.rank),
                gen::USER,
                &gen::program(s.rank),
                VirtualClock::new(),
            );
            for e in &s.events {
                t.track_io(e);
            }
            emitted += t.finish().triples;
            for triple in stream_triples(s) {
                ours.insert(&triple);
            }
        }
        let x = gen::expected(&streams);
        let (theirs, _) = merge_directory(&fs, "/provio");
        assert_eq!(
            ntriples::sorted_graph_lines(&ours),
            ntriples::sorted_graph_lines(&theirs)
        );
        assert_eq!(emitted, x.emitted_triples);
        assert_eq!(theirs.len() as u64, x.merged_triples);
        let total: usize = streams.iter().map(|s| stream_triples(s).len()).sum();
        assert_eq!(total as u64, x.emitted_triples);
    }
}
