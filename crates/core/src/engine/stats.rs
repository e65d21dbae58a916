//! I/O statistics (the H5bench use case, paper §3.3): per-API counts,
//! accumulated durations, byte totals, and the distribution of operations
//! over time — "fine-grained information such as the total number of each
//! type of HDF5 I/O operations … the accumulated time cost for each type
//! … the HDF5 APIs invoked at a specific time point".

use provio_model::{ontology, ActivityClass, PropKey, PropValue};
use provio_rdf::Graph;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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
    /// Compute statistics over all activity nodes in `graph`.
    pub fn from_graph(graph: &Graph, bucket_ns: u64) -> IoStats {
        let mut stats = IoStats {
            bucket_ns: bucket_ns.max(1),
            ..Default::default()
        };
        for class in ActivityClass::ALL {
            let mut cs = ClassStats::default();
            for guid in ontology::nodes_of_class(graph, class.into()) {
                let Some(node) = ontology::node_from_graph(graph, &guid) else {
                    continue;
                };
                cs.count += 1;
                if let Some(PropValue::Int(ns)) = node.prop(PropKey::ElapsedNs) {
                    cs.total_duration_ns += *ns as u64;
                }
                if let Some(PropValue::Int(b)) = node.prop(PropKey::Bytes) {
                    cs.total_bytes += *b as u64;
                }
                if let Some(PropValue::Int(ts)) = node.prop(PropKey::TimestampNs) {
                    let bucket = (*ts as u64) / stats.bucket_ns;
                    *stats.timeline.entry(bucket).or_insert(0) += 1;
                }
                *stats.by_api.entry(node.label.clone()).or_insert(0) += 1;
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
    use provio_rdf::Graph;

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
