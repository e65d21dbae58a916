//! I/O statistics (the H5bench use case, paper §3.3): per-API counts,
//! accumulated durations, byte totals, and the distribution of operations
//! over time — "fine-grained information such as the total number of each
//! type of HDF5 I/O operations … the accumulated time cost for each type
//! … the HDF5 APIs invoked at a specific time point".

use provio_model::ontology::{first_literal, guid_of, iri_id};
use provio_model::{ActivityClass, PropKey, Vocabulary};
use provio_rdf::{ns, Graph, TermId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The value of `node`'s property `key` (an interned predicate id, or
/// `None`): its first literal, if that is an `xsd:integer`.
pub(crate) fn int_prop(graph: &Graph, node: TermId, key: Option<TermId>) -> Option<i64> {
    first_literal(graph, node, key)
        .filter(|l| l.datatype().is_some_and(|d| d.as_str() == ns::XSD_INTEGER))
        .and_then(|l| l.as_i64())
}

/// Aggregated statistics for one activity class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    pub count: u64,
    pub total_duration_ns: u64,
    pub(crate) total_bytes: u64,
}

impl ClassStats {
    pub(crate) fn mean_duration_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_duration_ns as f64 / self.count as f64
        }
    }
}

/// Statistics extracted from a provenance graph.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    pub by_class: BTreeMap<&'static str, ClassStats>,
    /// API-name level counts ("H5Dwrite" → n).
    pub(crate) by_api: BTreeMap<String, u64>,
    /// Histogram of activity timestamps (bucketed by `bucket_ns`).
    pub timeline: BTreeMap<u64, u64>,
    pub(crate) bucket_ns: u64,
}

impl IoStats {
    /// Compute statistics over all activity nodes in `graph`: a GUID
    /// counts in a class once per `rdf:type` triple naming that class.
    pub fn from_graph(graph: &Graph, bucket_ns: u64) -> IoStats {
        let mut stats = IoStats {
            bucket_ns: bucket_ns.max(1),
            ..Default::default()
        };
        let voc = Vocabulary::shared();
        let typed = Some(iri_id(graph, &voc.rdf_type));
        let label = iri_id(graph, &voc.rdfs_label);
        let [elapsed, bytes, timestamp] =
            [PropKey::ElapsedNs, PropKey::Bytes, PropKey::TimestampNs]
                .map(|k| iri_id(graph, voc.prop(k)));
        for class in ActivityClass::ALL {
            let mut cs = ClassStats::default();
            let class_id = Some(graph.term_id(voc.class(class)));
            for (node, ..) in graph.match_ids(None, typed, class_id) {
                if guid_of(graph, node).is_none() {
                    continue;
                }
                cs.count += 1;
                cs.total_duration_ns += int_prop(graph, node, elapsed).unwrap_or(0) as u64;
                cs.total_bytes += int_prop(graph, node, bytes).unwrap_or(0) as u64;
                if let Some(ts) = int_prop(graph, node, timestamp) {
                    let bucket = ts as u64 / stats.bucket_ns;
                    *stats.timeline.entry(bucket).or_insert(0) += 1;
                }
                let api = first_literal(graph, node, label).map_or("", |l| l.lexical());
                *stats.by_api.entry(api.to_string()).or_insert(0) += 1;
            }
            if cs.count > 0 {
                stats.by_class.insert(class.local_name(), cs);
            }
        }
        stats
    }

    pub fn total_ops(&self) -> u64 {
        self.by_class.values().map(|c| c.count).sum()
    }

    /// The class with the highest accumulated duration — the bottleneck
    /// the H5bench scientists look for.
    pub fn bottleneck(&self) -> Option<(&'static str, &ClassStats)> {
        self.by_class
            .iter()
            .max_by_key(|(_, c)| c.total_duration_ns)
            .map(|(k, v)| (*k, v))
    }

    /// Render a small aligned report.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>16} {:>14} {:>14}",
            "class", "count", "total time", "mean time", "bytes"
        );
        for (name, c) in &self.by_class {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>14.3}ms {:>12.3}us {:>14}",
                name,
                c.count,
                c.total_duration_ns as f64 / 1e6,
                c.mean_duration_ns() / 1e3,
                c.total_bytes,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_model::{GuidGen, ProvNode, ProvRecord};
    use provio_rdf::{Graph, Literal, Subject, Triple};

    fn graph_with_ops() -> Graph {
        let mut g = Graph::new();
        let gen = GuidGen::new(1);
        for i in 0..5u64 {
            let rec = ProvRecord::new(
                ProvNode::new(gen.activity("H5Dwrite"), ActivityClass::Write, "H5Dwrite")
                    .with_prop(PropKey::ElapsedNs, 1000 + i)
                    .with_prop(PropKey::TimestampNs, i * 1_000_000)
                    .with_prop(PropKey::Bytes, 4096u64),
            );
            for t in provio_model::record_to_triples(&rec) {
                g.insert(&t);
            }
        }
        for _ in 0..2 {
            let rec = ProvRecord::new(
                ProvNode::new(gen.activity("H5Dread"), ActivityClass::Read, "H5Dread")
                    .with_prop(PropKey::ElapsedNs, 50_000u64)
                    .with_prop(PropKey::TimestampNs, 500_000u64),
            );
            for t in provio_model::record_to_triples(&rec) {
                g.insert(&t);
            }
        }
        g
    }

    #[test]
    fn counts_and_durations() {
        let stats = IoStats::from_graph(&graph_with_ops(), 1_000_000);
        assert_eq!(stats.by_class["Write"].count, 5);
        assert_eq!(stats.by_class["Read"].count, 2);
        assert_eq!(stats.by_class["Write"].total_bytes, 5 * 4096);
        assert_eq!(stats.total_ops(), 7);
        assert_eq!(stats.by_api["H5Dwrite"], 5);
    }

    #[test]
    fn bottleneck_is_longest_class() {
        let stats = IoStats::from_graph(&graph_with_ops(), 1_000_000);
        // Reads: 2 × 50us = 100us; writes: 5 × ~1us = 5us.
        assert_eq!(stats.bottleneck().unwrap().0, "Read");
    }

    #[test]
    fn timeline_buckets() {
        let stats = IoStats::from_graph(&graph_with_ops(), 1_000_000);
        // Writes at t=0..5ms (one per ms bucket), reads both at 0.5ms.
        assert_eq!(stats.timeline[&0], 1 + 2);
        assert_eq!(stats.timeline[&1], 1);
        assert_eq!(stats.timeline.values().sum::<u64>(), 7);
    }

    #[test]
    fn empty_graph_is_empty_stats() {
        let stats = IoStats::from_graph(&Graph::new(), 1000);
        assert_eq!(stats.total_ops(), 0);
        assert!(stats.bottleneck().is_none());
    }

    #[test]
    fn counts_follow_type_triples_and_integer_literals() {
        let voc = Vocabulary::shared();
        let mut g = Graph::new();
        let act = GuidGen::new(2).activity("H5Dwrite");
        let mut typed = |s: Subject, class: ActivityClass| {
            let class = voc.class(class).clone();
            g.insert(&Triple::new(s, voc.rdf_type.clone(), class));
        };
        // A GUID typed twice counts in both classes; a typed subject that
        // is not a GUID counts nowhere.
        typed(act.to_subject(), ActivityClass::Write);
        typed(act.to_subject(), ActivityClass::Read);
        typed(Subject::iri("urn:not-a-guid"), ActivityClass::Write);
        // A property is its first literal, and only an `xsd:integer` adds.
        for (key, value) in [
            (PropKey::ElapsedNs, Literal::integer(300)),
            (PropKey::ElapsedNs, Literal::integer(7)),
            (PropKey::Bytes, Literal::plain("4096")),
        ] {
            g.insert(&Triple::new(act.to_subject(), voc.prop(key).clone(), value));
        }
        let stats = IoStats::from_graph(&g, 1);
        assert_eq!(stats.total_ops(), 2);
        for class in ["Write", "Read"] {
            assert_eq!(stats.by_class[class].total_duration_ns, 300);
            assert_eq!(stats.by_class[class].total_bytes, 0);
        }
        assert!(stats.timeline.is_empty(), "no timestamps");
        assert_eq!(stats.by_api[""], 2, "no label");
    }

    #[test]
    fn table_renders() {
        let t = IoStats::from_graph(&graph_with_ops(), 1_000_000).to_table();
        assert!(t.contains("Write"));
        assert!(t.contains("Read"));
    }

    #[test]
    fn mean_duration() {
        let c = ClassStats {
            count: 4,
            total_duration_ns: 1000,
            total_bytes: 0,
        };
        assert_eq!(c.mean_duration_ns(), 250.0);
        assert_eq!(ClassStats::default().mean_duration_ns(), 0.0);
    }
}
