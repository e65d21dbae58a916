//! The PROV-O-style RDF mapping: records → triples and triples → nodes.
//!
//! W3C PROV-O maps Entity/Activity/Agent to RDF subjects and objects and
//! Relations to predicates (paper §2.1); PROV-IO keeps that mapping and
//! adds its sub-class and property vocabulary. [`record_triples_into`] is
//! the reference mapping of one [`ProvRecord`]; the tracker's hot path
//! writes the same triples term by term (and is held to this function by a
//! differential test). Both take every fixed IRI from the one shared
//! [`Vocabulary`], so a predicate or class in a triple is a refcount bump.

use crate::class::NodeClass;
use crate::guid::Guid;
use crate::node::{PropKey, PropValue, ProvNode, ProvRecord};
use crate::relation::Relation;
use provio_rdf::{ns, Graph, Iri, Literal, Subject, Term, Triple};
use std::sync::OnceLock;

/// Every fixed IRI of the mapping, built once per process.
#[derive(Debug)]
pub struct Vocabulary {
    pub rdf_type: Iri,
    pub rdfs_label: Iri,
    pub prov_entity: Iri,
    pub prov_activity: Iri,
    pub prov_agent: Iri,
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
            prov_entity: Iri::new(format!("{}Entity", ns::PROV)),
            prov_activity: Iri::new(format!("{}Activity", ns::PROV)),
            prov_agent: Iri::new(format!("{}Agent", ns::PROV)),
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

/// Read one node back from a graph: its class, label, and properties.
pub fn node_from_graph(graph: &Graph, id: &Guid) -> Option<ProvNode> {
    let voc = Vocabulary::shared();
    let subject = id.to_subject();
    let type_iri = graph
        .objects(&subject, &voc.rdf_type)
        .into_iter()
        .find_map(|t| t.as_iri().cloned())?;
    let class = NodeClass::from_iri(type_iri.as_str())?;
    let label = graph
        .objects(&subject, &voc.rdfs_label)
        .into_iter()
        .find_map(|t| t.as_literal().map(|l| l.lexical().to_string()))
        .unwrap_or_default();
    let mut node = ProvNode::new(id.clone(), class, label);
    for key in PropKey::ALL {
        for obj in graph.objects(&subject, voc.prop(key)) {
            if let Some(lit) = obj.as_literal() {
                let value = if let Some(i) = lit
                    .datatype()
                    .filter(|d| d.as_str() == ns::XSD_INTEGER)
                    .and_then(|_| lit.as_i64())
                {
                    PropValue::Int(i)
                } else if let Some(f) = lit
                    .datatype()
                    .filter(|d| d.as_str() == ns::XSD_DOUBLE)
                    .and_then(|_| lit.as_f64())
                {
                    PropValue::Float(f)
                } else if lit.datatype().map(|d| d.as_str()) == Some(ns::XSD_BOOLEAN) {
                    PropValue::Bool(lit.lexical() == "true")
                } else {
                    PropValue::Str(lit.lexical().to_string())
                };
                node.properties.push((key, value));
            }
        }
    }
    Some(node)
}

/// All (relation, target) pairs leaving a node.
pub fn relations_from_graph(graph: &Graph, id: &Guid) -> Vec<(Relation, Guid)> {
    let voc = Vocabulary::shared();
    let subject = id.to_subject();
    let mut out = Vec::new();
    for rel in Relation::ALL {
        for obj in graph.objects(&subject, voc.relation(rel)) {
            if let Some(iri) = obj.as_iri() {
                if let Some(g) = Guid::from_iri(iri) {
                    out.push((rel, g));
                }
            }
        }
    }
    out
}

/// All node GUIDs of a given class present in a graph.
pub fn nodes_of_class(graph: &Graph, class: NodeClass) -> Vec<Guid> {
    let voc = Vocabulary::shared();
    graph
        .subjects_with(&voc.rdf_type, voc.class(class))
        .into_iter()
        .filter_map(|s| match s {
            Subject::Iri(i) => Guid::from_iri(&i),
            Subject::Blank(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ActivityClass, AgentClass, EntityClass};
    use crate::guid::GuidGen;

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

    #[test]
    fn node_round_trip_through_graph() {
        let rec = sample_record();
        let mut g = Graph::new();
        for t in record_to_triples(&rec) {
            g.insert(&t);
        }
        let back = node_from_graph(&g, &rec.node.id).unwrap();
        assert_eq!(back.class, rec.node.class);
        assert_eq!(back.label, rec.node.label);
        assert_eq!(back.prop(PropKey::Bytes), Some(&PropValue::Int(8192)));
        assert_eq!(
            back.prop(PropKey::Dims),
            Some(&PropValue::Str("[1024]".into()))
        );

        let rels = relations_from_graph(&g, &rec.node.id);
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].0, Relation::WasCreatedBy);
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
        let mut g = Graph::new();
        for t in record_to_triples(&rec) {
            g.insert(&t);
        }
        let back = node_from_graph(&g, &id).unwrap();
        assert_eq!(back.prop(PropKey::Accuracy), Some(&PropValue::Float(0.875)));
        assert_eq!(back.prop(PropKey::Value), Some(&PropValue::Bool(true)));
    }
}
