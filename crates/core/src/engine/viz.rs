//! Graphviz visualization (the paper's Figures 4(b) and 9).
//!
//! Nodes are styled by super-class — Entity: yellow boxes, Activity: purple
//! ellipses, Agent: orange houses, Extensible: green notes — and a
//! highlight set (e.g. a queried lineage) renders in blue, matching the
//! paper's lineage figures.

use provio_model::ontology::{first_literal, guid_of, iri_id};
use provio_model::{Guid, NodeClass, Relation, Vocabulary};
use provio_rdf::{Graph, IdMap, TermId};
use std::collections::HashSet;
use std::fmt::Write as _;

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn style_for(class: NodeClass, highlighted: bool) -> String {
    let (shape, fill) = match class {
        NodeClass::Entity(_) => ("box", "#fff2ae"),
        NodeClass::Activity(_) => ("ellipse", "#cbb9e8"),
        NodeClass::Agent(_) => ("house", "#fdcdac"),
        NodeClass::Extensible(_) => ("note", "#b3e2cd"),
    };
    let color = if highlighted { "#1f5fd0" } else { "#555555" };
    let penwidth = if highlighted { "2.5" } else { "1.0" };
    format!(
        "shape={shape}, style=filled, fillcolor=\"{fill}\", color=\"{color}\", penwidth={penwidth}"
    )
}

/// Render `graph` as Graphviz DOT. Nodes/edges touching `highlight` are
/// emphasized in blue.
pub fn to_dot(graph: &Graph, highlight: &HashSet<Guid>) -> String {
    let mut out = String::from("digraph provio {\n  rankdir=RL;\n  node [fontsize=10];\n  edge [fontsize=9];\n");

    // Typed GUID nodes; a node typed twice takes its last class.
    let voc = Vocabulary::shared();
    let class_of: IdMap<TermId, NodeClass> = NodeClass::all()
        .filter_map(|c| Some((graph.term_id(voc.class(c))?, c)))
        .collect();
    let mut nodes: IdMap<TermId, (Guid, NodeClass)> = IdMap::default();
    for (s, _, o) in graph.match_ids(None, Some(iri_id(graph, &voc.rdf_type)), None) {
        if let (Some(guid), Some(&class)) = (guid_of(graph, s), class_of.get(&o)) {
            nodes.insert(s, (guid, class));
        }
    }

    let label = iri_id(graph, &voc.rdfs_label);
    let mut ids: Vec<_> = nodes.iter().collect();
    ids.sort_unstable_by_key(|&(_, (guid, _))| guid);
    for (&id, (guid, class)) in ids {
        let label = first_literal(graph, id, label)
            .map(|l| l.lexical())
            .filter(|l| !l.is_empty())
            .unwrap_or_else(|| guid.local());
        let _ = writeln!(
            out,
            "  \"{}\" [label=\"{}\\n({})\", {}];",
            dot_escape(guid.as_str()),
            dot_escape(label),
            class.local_name(),
            style_for(*class, highlight.contains(guid)),
        );
    }

    // Relation edges between known nodes.
    let mut edges: Vec<String> = Vec::new();
    for rel in Relation::ALL {
        let predicate = Some(iri_id(graph, voc.relation(rel)));
        for (s, _, o) in graph.match_ids(None, predicate, None) {
            let (Some((src, _)), Some((dst, _))) = (nodes.get(&s), nodes.get(&o)) else {
                continue;
            };
            let hl = highlight.contains(src) && highlight.contains(dst);
            let style = if hl {
                ", color=\"#1f5fd0\", penwidth=2.2, fontcolor=\"#1f5fd0\""
            } else {
                ""
            };
            edges.push(format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"{}];",
                dot_escape(src.as_str()),
                dot_escape(dst.as_str()),
                rel.local_name(),
                style
            ));
        }
    }
    edges.sort();
    for e in edges {
        let _ = writeln!(out, "{e}");
    }
    out.push_str("}\n");
    out
}

/// Render only the neighborhood of `focus` (the queried sub-graph).
pub fn to_dot_lineage(graph: &Graph, focus: &Guid, lineage: &[Guid]) -> String {
    let mut highlight: HashSet<Guid> = lineage.iter().cloned().collect();
    highlight.insert(focus.clone());
    to_dot(graph, &highlight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_model::{ActivityClass, EntityClass, GuidGen, ProvNode, ProvRecord};
    use provio_rdf::{Literal, Triple};

    fn sample() -> (Graph, Guid, Guid) {
        let mut g = Graph::new();
        let gen = GuidGen::new(1);
        let file = GuidGen::data_object("File", "", "/decimate.h5");
        let act = gen.activity("H5Dwrite");
        let recs = vec![
            ProvRecord::new(ProvNode::new(file.clone(), EntityClass::File, "/decimate.h5"))
                .with_relation(Relation::WasWrittenBy, act.clone()),
            ProvRecord::new(ProvNode::new(act.clone(), ActivityClass::Write, "H5Dwrite")),
        ];
        for r in recs {
            for t in provio_model::record_to_triples(&r) {
                g.insert(&t);
            }
        }
        (g, file, act)
    }

    #[test]
    fn dot_contains_styled_nodes_and_edges() {
        let (g, file, act) = sample();
        let dot = to_dot(&g, &HashSet::new());
        assert!(dot.starts_with("digraph provio {"));
        assert!(dot.contains("shape=box"), "entity boxes");
        assert!(dot.contains("shape=ellipse"), "activity ellipses");
        assert!(dot.contains("wasWrittenBy"));
        assert!(dot.contains(file.as_str()));
        assert!(dot.contains(act.as_str()));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn highlight_marks_lineage_blue() {
        let (g, file, act) = sample();
        let hl: HashSet<Guid> = [file.clone(), act].into_iter().collect();
        let dot = to_dot(&g, &hl);
        assert!(dot.contains("#1f5fd0"));
        let dot_lineage = to_dot_lineage(&g, &file, &[]);
        assert!(dot_lineage.contains("penwidth=2.5") || dot_lineage.contains("#1f5fd0"));
    }

    #[test]
    fn labels_are_escaped() {
        let mut g = Graph::new();
        let id = GuidGen::data_object("File", "", "/weird\"name");
        let rec = ProvRecord::new(ProvNode::new(id, EntityClass::File, "/weird\"name"));
        for t in provio_model::record_to_triples(&rec) {
            g.insert(&t);
        }
        let dot = to_dot(&g, &HashSet::new());
        assert!(dot.contains("\\\""));
    }

    #[test]
    fn a_node_without_a_label_shows_its_guid() {
        let voc = Vocabulary::shared();
        let file = GuidGen::data_object("File", "", "/unlabelled.h5");
        let mut g = Graph::new();
        let class = voc.class(EntityClass::File).clone();
        g.insert(&Triple::new(file.to_subject(), voc.rdf_type.clone(), class));
        let dot = to_dot(&g, &HashSet::new());
        let shown = format!("[label=\"{}\\n(File)\"", file.local());
        assert!(dot.contains(&shown), "{dot}");
        // An empty label falls back the same way.
        let empty = Literal::plain("");
        g.insert(&Triple::new(
            file.to_subject(),
            voc.rdfs_label.clone(),
            empty,
        ));
        assert_eq!(to_dot(&g, &HashSet::new()), dot);
    }

    #[test]
    fn deterministic_output() {
        let (g, _, _) = sample();
        assert_eq!(to_dot(&g, &HashSet::new()), to_dot(&g, &HashSet::new()));
    }
}
