//! The PROV-O-style RDF mapping: records → triples, and the id-level
//! lookups every reader of a merged graph shares.
//!
//! W3C PROV-O maps Entity/Activity/Agent to RDF subjects and objects and
//! Relations to predicates (paper §2.1); PROV-IO keeps that mapping and
//! adds its sub-class and property vocabulary. [`record_triples_into`] is
//! the reference mapping of one [`ProvRecord`]; the tracker's hot path
//! writes the same triples term by term (and is held to this function by a
//! differential test). Both take every fixed IRI from the one shared
//! [`Vocabulary`], so a predicate or class in a triple is a refcount bump.
//! Readers go the other way on term ids: each vocabulary IRI is looked up
//! once ([`iri_id`]), then edges are matched by id, and a string is read
//! only for an answer ([`guid_of`], [`first_literal`]).

use crate::class::NodeClass;
use crate::guid::Guid;
use crate::node::{PropKey, PropValue, ProvRecord};
use crate::relation::Relation;
use provio_rdf::{ns, Graph, Iri, Literal, Term, TermId, Triple};
use std::sync::OnceLock;

/// Every fixed IRI of the mapping, built once per process.
#[derive(Debug)]
pub struct Vocabulary {
    pub rdf_type: Iri,
    pub rdfs_label: Iri,
    pub prov_activity: Iri,
    /// By `PropKey as usize`.
    props: Vec<Iri>,
    /// By `Relation as usize`.
    relations: Vec<Iri>,
    /// By [`NodeClass::index`]; `Term`s because classes sit in the object
    /// position of `rdf:type` triples.
    classes: Vec<Term>,
}

impl Vocabulary {
    /// The process-wide instance.
    pub fn shared() -> &'static Vocabulary {
        static SHARED: OnceLock<Vocabulary> = OnceLock::new();
        SHARED.get_or_init(|| Vocabulary {
            rdf_type: Iri::new(ns::RDF_TYPE),
            rdfs_label: Iri::new(ns::RDFS_LABEL),
            prov_activity: Iri::new(format!("{}Activity", ns::PROV)),
            props: PropKey::ALL.iter().map(|k| Iri::new(k.iri())).collect(),
            relations: Relation::ALL.iter().map(|r| Iri::new(r.iri())).collect(),
            classes: NodeClass::all().map(|c| Term::iri(c.iri())).collect(),
        })
    }

    /// The predicate IRI of a property.
    pub fn prop(&self, key: PropKey) -> &Iri {
        &self.props[key as usize]
    }

    /// The predicate IRI of a relation.
    pub fn relation(&self, rel: Relation) -> &Iri {
        &self.relations[rel as usize]
    }

    /// The class IRI, as the object of an `rdf:type` triple.
    pub fn class(&self, class: impl Into<NodeClass>) -> &Term {
        &self.classes[class.into().index()]
    }
}

fn prop_literal(v: &PropValue) -> Literal {
    match v {
        PropValue::Str(s) => Literal::plain(s.as_str()),
        PropValue::Int(i) => Literal::integer(*i),
        PropValue::Float(f) => Literal::double(*f),
        PropValue::Bool(b) => Literal::boolean(*b),
    }
}

/// Emit the triples for one record into `out`: type, label, properties,
/// relations, in that order.
pub fn record_triples_into(rec: &ProvRecord, out: &mut Vec<Triple>) {
    let voc = Vocabulary::shared();
    let subject = rec.node.id.to_subject();
    out.push(Triple {
        subject: subject.clone(),
        predicate: voc.rdf_type.clone(),
        object: voc.class(rec.node.class).clone(),
    });
    out.push(Triple {
        subject: subject.clone(),
        predicate: voc.rdfs_label.clone(),
        object: Term::plain(rec.node.label.as_str()),
    });
    for (key, value) in &rec.node.properties {
        out.push(Triple {
            subject: subject.clone(),
            predicate: voc.prop(*key).clone(),
            object: prop_literal(value).into(),
        });
    }
    for (rel, target) in &rec.relations {
        out.push(Triple {
            subject: subject.clone(),
            predicate: voc.relation(*rel).clone(),
            object: Term::Iri(target.to_iri()),
        });
    }
}

/// Convenience wrapper returning a fresh Vec.
pub fn record_to_triples(rec: &ProvRecord) -> Vec<Triple> {
    let mut out = Vec::with_capacity(rec.triple_count());
    record_triples_into(rec, &mut out);
    out
}

/// The id of `iri` in `graph`, if it is interned.
pub fn iri_id(graph: &Graph, iri: &Iri) -> Option<TermId> {
    graph.term_id(&Term::Iri(iri.clone()))
}

/// The node behind `id`, if it is a GUID.
pub fn guid_of(graph: &Graph, id: TermId) -> Option<Guid> {
    graph.term(id).as_iri().and_then(Guid::from_iri)
}

/// The first literal object of (`subject`, `predicate`), in insertion
/// order. A `None` predicate (not interned) matches nothing.
pub fn first_literal(
    graph: &Graph,
    subject: TermId,
    predicate: Option<TermId>,
) -> Option<&Literal> {
    let hits = graph.match_ids(Some(Some(subject)), Some(predicate), None);
    hits.into_iter()
        .find_map(|(_, _, o)| graph.term(o).as_literal())
}

/// All node GUIDs of a given class present in a graph, in insertion order
/// of their `rdf:type` triples.
pub fn nodes_of_class(graph: &Graph, class: NodeClass) -> Vec<Guid> {
    let voc = Vocabulary::shared();
    let typed = Some(iri_id(graph, &voc.rdf_type));
    let class = Some(graph.term_id(voc.class(class)));
    let hits = graph.match_ids(None, typed, class);
    hits.into_iter()
        .filter_map(|(s, _, _)| guid_of(graph, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ActivityClass, AgentClass, EntityClass};
    use crate::guid::GuidGen;
    use crate::node::ProvNode;
    use provio_rdf::Subject;

    fn sample_record() -> ProvRecord {
        let gen = GuidGen::new(3);
        let ds = GuidGen::data_object("Dataset", "/f.h5", "/Timestep_0/x");
        let act = gen.activity("H5Dcreate2");
        ProvRecord::new(
            ProvNode::new(ds, EntityClass::Dataset, "/Timestep_0/x")
                .with_prop(PropKey::Dims, "[1024]")
                .with_prop(PropKey::Bytes, 8192u64),
        )
        .with_relation(Relation::WasCreatedBy, act)
    }

    #[test]
    fn vocabulary_spells_every_fixed_iri_like_the_enums() {
        let voc = Vocabulary::shared();
        for k in PropKey::ALL {
            assert_eq!(voc.prop(k).as_str(), k.iri());
        }
        for r in Relation::ALL {
            assert_eq!(voc.relation(r).as_str(), r.iri());
        }
        for c in NodeClass::all() {
            assert_eq!(voc.class(c), &Term::iri(c.iri()));
        }
        assert_eq!(voc.prov_activity.as_str(), "http://www.w3.org/ns/prov#Activity");
        assert!(std::ptr::eq(voc, Vocabulary::shared()), "one instance");
    }

    #[test]
    fn triples_match_count() {
        let rec = sample_record();
        let triples = record_to_triples(&rec);
        assert_eq!(triples.len(), rec.triple_count());
    }

    /// `record`'s triples, inserted into a fresh graph.
    fn graph_of(record: &ProvRecord) -> Graph {
        let mut g = Graph::new();
        for t in record_to_triples(record) {
            g.insert(&t);
        }
        g
    }

    /// The first literal of (`id`, `key`) in `g`, as the readers see it.
    fn literal<'g>(g: &'g Graph, id: &Guid, key: PropKey) -> Option<&'g Literal> {
        let voc = Vocabulary::shared();
        let node = iri_id(g, &id.to_iri())?;
        first_literal(g, node, iri_id(g, voc.prop(key)))
    }

    #[test]
    fn node_round_trip_through_graph() {
        let rec = sample_record();
        let g = graph_of(&rec);
        let voc = Vocabulary::shared();
        let node = iri_id(&g, &rec.node.id.to_iri()).unwrap();
        assert_eq!(guid_of(&g, node), Some(rec.node.id.clone()));
        let class = g.term_id(voc.class(rec.node.class));
        let types = g.match_ids(Some(Some(node)), Some(iri_id(&g, &voc.rdf_type)), None);
        assert_eq!(types.iter().map(|t| Some(t.2)).collect::<Vec<_>>(), [class]);
        let label = first_literal(&g, node, iri_id(&g, &voc.rdfs_label)).unwrap();
        assert_eq!(label, &Literal::plain("/Timestep_0/x"));
        assert_eq!(
            literal(&g, &rec.node.id, PropKey::Bytes),
            Some(&Literal::integer(8192))
        );
        assert_eq!(
            literal(&g, &rec.node.id, PropKey::Dims),
            Some(&Literal::plain("[1024]"))
        );
        assert_eq!(literal(&g, &rec.node.id, PropKey::Rank), None);

        let created = iri_id(&g, voc.relation(Relation::WasCreatedBy));
        let edges = g.match_ids(Some(Some(node)), Some(created), None);
        assert_eq!(edges.len(), 1);
        assert_eq!(guid_of(&g, edges[0].2), Some(rec.relations[0].1.clone()));
    }

    #[test]
    fn nodes_of_class_filters() {
        let mut g = Graph::new();
        let rec = sample_record();
        for t in record_to_triples(&rec) {
            g.insert(&t);
        }
        let user = GuidGen::agent("User", "Bob");
        let urec = ProvRecord::new(ProvNode::new(user.clone(), AgentClass::User, "Bob"));
        for t in record_to_triples(&urec) {
            g.insert(&t);
        }
        // A typed subject that is not a GUID is not a node.
        let voc = Vocabulary::shared();
        let dataset = voc.class(EntityClass::Dataset).clone();
        g.insert(&Triple::new(
            Subject::iri("urn:x"),
            voc.rdf_type.clone(),
            dataset,
        ));
        assert_eq!(nodes_of_class(&g, EntityClass::Dataset.into()).len(), 1);
        assert_eq!(nodes_of_class(&g, AgentClass::User.into()), vec![user]);
        assert!(nodes_of_class(&g, ActivityClass::Read.into()).is_empty());
    }

    #[test]
    fn float_and_bool_props_round_trip() {
        let id = GuidGen::extensible("Metrics", "accuracy-epoch-3");
        let rec = ProvRecord::new(
            ProvNode::new(id.clone(), crate::class::ExtensibleClass::Metrics, "acc")
                .with_prop(PropKey::Accuracy, 0.875)
                .with_prop(PropKey::Value, true),
        );
        let g = graph_of(&rec);
        let accuracy = literal(&g, &id, PropKey::Accuracy).unwrap();
        assert_eq!(accuracy, &Literal::double(0.875));
        assert_eq!(accuracy.as_f64(), Some(0.875));
        assert_eq!(
            literal(&g, &id, PropKey::Value),
            Some(&Literal::boolean(true))
        );
    }
}
