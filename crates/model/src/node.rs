//! Provenance nodes and records.

use crate::class::NodeClass;
use crate::guid::Guid;
use crate::relation::Relation;

/// A property key on a node (the paper's snippet shows `provio:elapsed`,
/// `ns1:Version`, `provio:hasAccuracy`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropKey {
    /// Duration of an I/O API invocation, in nanoseconds (`provio:elapsed`).
    ElapsedNs,
    /// Virtual timestamp of the event, nanoseconds (`provio:timestamp`).
    TimestampNs,
    /// Bytes moved by a data operation (`provio:bytes`).
    Bytes,
    /// Version counter on configurations (`provio:version`).
    Version,
    /// Training accuracy / metric value (`provio:hasAccuracy`).
    Accuracy,
    /// Generic value of an extensible node (`provio:value`).
    Value,
    /// MPI rank of a Thread agent (`provio:rank`).
    Rank,
    /// Dataset dimensionality rendered as text (`provio:dims`).
    Dims,
    /// Element datatype rendered as text (`provio:datatype`).
    ElementType,
}

impl PropKey {
    pub(crate) const ALL: [PropKey; 9] = [
        PropKey::ElapsedNs,
        PropKey::TimestampNs,
        PropKey::Bytes,
        PropKey::Version,
        PropKey::Accuracy,
        PropKey::Value,
        PropKey::Rank,
        PropKey::Dims,
        PropKey::ElementType,
    ];

    pub(crate) fn local_name(self) -> &'static str {
        match self {
            PropKey::ElapsedNs => "elapsed",
            PropKey::TimestampNs => "timestamp",
            PropKey::Bytes => "bytes",
            PropKey::Version => "version",
            PropKey::Accuracy => "hasAccuracy",
            PropKey::Value => "value",
            PropKey::Rank => "rank",
            PropKey::Dims => "dims",
            PropKey::ElementType => "datatype",
        }
    }

    pub fn iri(self) -> String {
        format!("{}{}", provio_rdf::ns::PROVIO, self.local_name())
    }
}

/// A property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl From<&str> for PropValue {
    fn from(s: &str) -> Self {
        PropValue::Str(s.to_string())
    }
}

impl From<String> for PropValue {
    fn from(s: String) -> Self {
        PropValue::Str(s)
    }
}

impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Int(v)
    }
}

impl From<u64> for PropValue {
    fn from(v: u64) -> Self {
        PropValue::Int(v as i64)
    }
}

impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::Float(v)
    }
}

impl From<bool> for PropValue {
    fn from(v: bool) -> Self {
        PropValue::Bool(v)
    }
}

/// A provenance node: identity, class, label, properties.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvNode {
    pub id: Guid,
    pub(crate) class: NodeClass,
    /// Human-readable label (file path, API name, user name, …).
    pub label: String,
    pub(crate) properties: Vec<(PropKey, PropValue)>,
}

impl ProvNode {
    pub fn new(id: Guid, class: impl Into<NodeClass>, label: impl Into<String>) -> Self {
        ProvNode {
            id,
            class: class.into(),
            label: label.into(),
            properties: Vec::new(),
        }
    }

    pub fn with_prop(mut self, key: PropKey, value: impl Into<PropValue>) -> Self {
        self.properties.push((key, value.into()));
        self
    }
}

/// A record: one subject node plus its outgoing relations — the unit shown
/// in the paper's Figure 4(b) snippet.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvRecord {
    pub node: ProvNode,
    pub(crate) relations: Vec<(Relation, Guid)>,
}

impl ProvRecord {
    pub fn new(node: ProvNode) -> Self {
        ProvRecord {
            node,
            relations: Vec::new(),
        }
    }

    pub fn with_relation(mut self, rel: Relation, target: Guid) -> Self {
        self.relations.push((rel, target));
        self
    }

    /// Approximate serialized size of this record, in triples.
    pub(crate) fn triple_count(&self) -> usize {
        // type + label + properties + relations
        2 + self.node.properties.len() + self.relations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ActivityClass, EntityClass};
    use crate::guid::GuidGen;

    #[test]
    fn node_builder_and_accessors() {
        let gen = GuidGen::new(1);
        let n = ProvNode::new(gen.activity("H5Dwrite"), ActivityClass::Write, "H5Dwrite")
            .with_prop(PropKey::ElapsedNs, 1234u64)
            .with_prop(PropKey::Bytes, 8192u64);
        assert_eq!(
            n.properties,
            [
                (PropKey::ElapsedNs, PropValue::Int(1234)),
                (PropKey::Bytes, PropValue::Int(8192)),
            ]
        );
    }

    #[test]
    fn record_triple_count() {
        let gen = GuidGen::new(1);
        let ds = GuidGen::data_object("Dataset", "/f.h5", "/x");
        let act = gen.activity("H5Dwrite");
        let rec = ProvRecord::new(
            ProvNode::new(ds, EntityClass::Dataset, "/x")
                .with_prop(PropKey::Dims, "[1024]"),
        )
        .with_relation(Relation::WasWrittenBy, act);
        assert_eq!(rec.triple_count(), 4);
    }

    #[test]
    fn prop_value_conversions() {
        assert_eq!(PropValue::from(1.5), PropValue::Float(1.5));
        assert_eq!(PropValue::from(3i64), PropValue::Int(3));
        assert_eq!(PropValue::from("x"), PropValue::Str("x".into()));
        assert_eq!(PropValue::from(true), PropValue::Bool(true));
    }
}
