//! The bytes a store commits, cell by cell — Turtle / N-Triples × framed /
//! plain, first snapshot, delta segment and compacting snapshot — against
//! the writers the temporary-free ones replaced (`crates/rdf/tests/
//! reference`), framed here through the public `frame` encoder under the
//! identity the store must have used. A framed file's payload is N-Triples
//! in every cell; only an unframed Turtle snapshot is spelled as Turtle.

#[path = "../../rdf/tests/reference/mod.rs"]
mod reference;

use provio::frame::{self, Encoder, FrameKind};
use provio::{ProvenanceStore, RdfFormat};
use provio_hpcfs::{FileSystem, LustreConfig};
use provio_rdf::{ntriples, turtle, BlankNode, Graph, Iri, Literal, Namespaces, Subject, Term, Triple};
use std::sync::Arc;

/// The store's `NT_BATCH_LINES`: lines per CRC frame of an N-Triples file.
const BATCH_LINES: usize = 64;

/// Triples `range` of a stream that repeats subjects across batches, uses
/// blank subjects, every literal kind and characters the writers escape.
fn triples(range: std::ops::Range<usize>) -> Vec<Triple> {
    range
        .map(|i| {
            let subject = if i % 7 == 0 {
                Subject::Blank(BlankNode::new(format!("b{}", i % 20)))
            } else {
                Subject::iri(format!("urn:provio:act/{}", i % 89))
            };
            let object = match i % 5 {
                0 => Term::iri(format!("{}Write", provio_rdf::ns::PROVIO)),
                1 => Term::Literal(Literal::integer(i as i64)),
                2 => Term::Literal(Literal::plain(format!("line {i}\n\t\"quoted\" \\ \u{e9}"))),
                3 => Term::Literal(Literal::lang_tagged(format!("x{i}"), "en")),
                _ => Term::iri(format!("urn:provio:obj/d{}", i % 11)),
            };
            let predicate = match i % 3 {
                0 => Iri::new(provio_rdf::ns::RDF_TYPE),
                1 => Iri::new(format!("{}wasWrittenBy", provio_rdf::ns::PROVIO)),
                _ => Iri::new("urn:p/not-compactable"),
            };
            Triple::new(subject, predicate, object)
        })
        .collect()
}

fn read(fs: &Arc<FileSystem>, path: &str) -> Vec<u8> {
    let ino = fs.lookup(path).unwrap_or_else(|e| panic!("{path}: {e:?}"));
    let size = fs.stat(path).unwrap().size;
    fs.read_at(ino, 0, size).unwrap().to_vec()
}

/// What the file of `kind` holding `ids` of `graph` must be, and the chain
/// value the store's next file carries.
fn expected(
    (format, checksums): (RdfFormat, bool),
    kind: FrameKind,
    graph: &Graph,
    ids: &[(u32, u32, u32)],
    (guid, ordinal, prev): (u64, u64, u32),
) -> (Vec<u8>, u32) {
    if kind == FrameKind::Snapshot && format == RdfFormat::Turtle && !checksums {
        let text = reference::turtle(graph, &Namespaces::standard());
        return (text.into_bytes(), prev);
    }
    let lines = reference::nt_sorted_lines(ids, |id| &graph.terms()[id as usize]);
    if !checksums {
        let block: String = lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
        return (block.into_bytes(), prev);
    }
    let mut enc = Encoder::new(kind, guid, ordinal, prev);
    for chunk in lines.chunks(BATCH_LINES) {
        enc.batch(chunk);
    }
    enc.finish()
}

#[test]
fn committed_bytes_match_the_reference_writers_in_every_cell() {
    for format in [RdfFormat::Turtle, RdfFormat::NTriples] {
        for checksums in [false, true] {
            let cell = (format, checksums);
            let fs = FileSystem::new(LustreConfig::default());
            let path = if format == RdfFormat::Turtle {
                "/prov/cell.ttl"
            } else {
                "/prov/cell.nt"
            };
            let guid = frame::store_guid(path);
            let store = ProvenanceStore::new(Arc::clone(&fs), path, format, false)
                .with_checksums(checksums);
            let mut graph = Graph::new();

            // First flush: a full snapshot in the store's format.
            let first = triples(0..150);
            graph.extend(first.iter().cloned());
            store.push(first, None);
            store.flush(None);
            let (want, chain) = expected(
                cell,
                FrameKind::Snapshot,
                &graph,
                graph.ids_from(0),
                (guid, 0, frame::CHAIN_START),
            );
            assert!(read(&fs, path) == want, "{cell:?}: first snapshot");

            // Second flush: the triples above the watermark — duplicates
            // of the first batch collapse — as an N-Triples delta segment.
            let mark = graph.len();
            let second = triples(100..260);
            graph.extend(second.iter().cloned());
            store.push(second, None);
            store.flush(None);
            assert!(graph.len() > mark + BATCH_LINES, "the delta spans frames");
            let (want, chain) = expected(
                cell,
                FrameKind::Delta,
                &graph,
                graph.ids_from(mark),
                (guid, 1, chain),
            );
            assert!(
                read(&fs, &format!("{path}.d000000.nt")) == want,
                "{cell:?}: delta segment"
            );

            // Finish: one compacting snapshot of everything.
            assert!(store.finish(None) > 0);
            let (want, _) = expected(
                cell,
                FrameKind::Snapshot,
                &graph,
                graph.ids_from(0),
                (guid, 2, chain),
            );
            assert!(read(&fs, path) == want, "{cell:?}: compacting snapshot");
            // Frame lines are comments and N-Triples is Turtle: a framed
            // `.ttl` snapshot reads as Turtle to the triples it frames.
            if cell == (RdfFormat::Turtle, true) {
                let text = String::from_utf8(want).unwrap();
                let (turtle, _) = turtle::parse(&text).unwrap();
                let framed = frame::decode(&text).unwrap().payload;
                assert_eq!(
                    ntriples::sorted_graph_lines(&turtle),
                    ntriples::sorted_graph_lines(&ntriples::parse(&framed).unwrap()),
                );
                assert_eq!(turtle.len(), graph.len());
            }
            assert!(
                !fs.exists(&format!("{path}.d000000.nt")),
                "{cell:?}: segment folded away"
            );
        }
    }
}
