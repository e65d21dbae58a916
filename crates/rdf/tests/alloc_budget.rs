//! The writers' allocation budget: rendering a rank's sub-graph allocates
//! a handful of buffers — the output, one arena of spellings, the grouping
//! tables — and nothing per subject, per predicate group, per line or per
//! term. (The writers these replaced built a `String` per distinct term,
//! per subject, per predicate group and per line: on the graph below,
//! 173 325 allocations for the Turtle document, 95 819 for the journal
//! block and 131 460 for the sorted N-Triples document.)
//!
//! The parsers' budget is per triple: one allocation for each term the
//! graph has not seen before, none per token or per occurrence, and the
//! graph's own bookkeeping. The graph's indexes cost nothing until the
//! first read, which builds each in two allocations.
//!
//! A counting `#[global_allocator]` needs a binary of its own; counts are
//! per thread, so the tests do not leak into each other.

use provio_rdf::{ns, ntriples, turtle, Graph, Iri, Literal, Namespaces, Subject, Term, Triple};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

/// A rank's sub-graph after `events` tracked I/O calls, shaped as the
/// tracker emits it: one activity per event with its class, API name,
/// agent, three integer properties and an edge to one of `events / 16`
/// data objects, each of which is typed and labelled once.
fn rank_graph(events: usize) -> Graph {
    let provio = |local: &str| Iri::new(format!("{}{local}", ns::PROVIO));
    let rdf_type = Iri::new(ns::RDF_TYPE);
    let agent = Term::iri("urn:provio:agent/program/bench-r0");
    let mut g = Graph::new();
    for o in 0..events / 16 {
        let object = Subject::iri(format!(
            "urn:provio:obj/data/r0.h5/Timestep_{}/d{o}",
            o % 64
        ));
        g.insert(&Triple::new(
            object.clone(),
            rdf_type.clone(),
            Term::Iri(provio("Dataset")),
        ));
        g.insert(&Triple::new(
            object,
            Iri::new(ns::RDFS_LABEL),
            Literal::plain(format!("/Timestep_{}/d{o}", o % 64)),
        ));
    }
    for e in 0..events {
        let (class, api, relation) = if e % 2 == 0 {
            ("Write", "H5Dwrite", "wasWrittenBy")
        } else {
            ("Read", "H5Dread", "wasReadBy")
        };
        let activity = Subject::iri(format!("urn:provio:act/r0/{e}"));
        let o = (e * 7) % (events / 16);
        let object = Subject::iri(format!(
            "urn:provio:obj/data/r0.h5/Timestep_{}/d{o}",
            o % 64
        ));
        g.insert(&Triple::new(
            activity.clone(),
            rdf_type.clone(),
            Term::Iri(provio(class)),
        ));
        g.insert(&Triple::new(
            activity.clone(),
            Iri::new(ns::RDFS_LABEL),
            Literal::plain(api),
        ));
        g.insert(&Triple::new(
            activity.clone(),
            Iri::new(format!("{}wasAssociatedWith", ns::PROV)),
            agent.clone(),
        ));
        for (property, value) in [
            ("bytes", 4096 + e),
            ("elapsed", 1_000 + e),
            ("timestamp", 50_000 + e),
        ] {
            g.insert(&Triple::new(
                activity.clone(),
                provio(property),
                Literal::integer(value as i64),
            ));
        }
        g.insert(&Triple::new(object, provio(relation), Term::from(activity)));
    }
    g
}

#[test]
fn the_writers_allocate_buffers_not_strings() {
    let g = rank_graph(5_000);
    let nss = Namespaces::standard();
    let triples = g.len() as u64;
    assert!(
        triples > 30_000 && g.term_count() > 15_000,
        "{triples} triples, {} terms",
        g.term_count()
    );

    let (ttl, turtle_allocations) = allocations_during(|| turtle::serialize(&g, &nss));
    let ids = g.ids_from(0);
    let term_of = |id: u32| &g.terms()[id as usize];
    let (block, block_allocations) = allocations_during(|| ntriples::id_block(ids, term_of));
    let (sorted, sorted_allocations) = allocations_during(|| ntriples::sorted_block(ids, term_of));
    println!(
        "{triples} triples, {} terms: turtle::serialize {turtle_allocations}, \
         ntriples::id_block {block_allocations}, ntriples::sorted_block {sorted_allocations} allocations",
        g.term_count()
    );
    assert!(ttl.len() > 1_000_000 && block.len() == sorted.len());

    // The arena and its offsets, the grouping tables, the subject list (a
    // vector that doubles), the output: none of them grows with the graph
    // faster than a doubling vector does.
    assert!(
        turtle_allocations <= 40,
        "turtle::serialize: {turtle_allocations}"
    );
    // One block, sized up front; the sorted variant adds the line ends,
    // the line slices and the second block.
    assert!(
        block_allocations <= 2,
        "ntriples::id_block: {block_allocations}"
    );
    assert!(
        sorted_allocations <= 6,
        "ntriples::sorted_block: {sorted_allocations}"
    );
}

#[test]
fn the_parsers_allocate_terms_not_tokens() {
    let g = rank_graph(5_000);
    let triples = g.len() as f64;
    let ttl = turtle::serialize(&g, &Namespaces::standard());
    let nt = ntriples::serialize(&g);

    let (from_ttl, turtle_allocations) = allocations_during(|| turtle::parse(&ttl).unwrap().0);
    let (from_nt, ntriples_allocations) = allocations_during(|| ntriples::parse(&nt).unwrap());
    // What the graph itself costs: the same triples, inserted ready-made.
    let ready: Vec<Triple> = g.iter().collect();
    let (inserted, insert_allocations) = allocations_during(|| {
        let mut inserted = Graph::new();
        for t in &ready {
            inserted.insert(t);
        }
        inserted
    });
    let per_triple = |n: u64| n as f64 / triples;
    println!(
        "{triples} triples, allocations per triple: turtle::parse {:.2}, \
         ntriples::parse {:.2}, inserting them ready-made {:.2}",
        per_triple(turtle_allocations),
        per_triple(ntriples_allocations),
        per_triple(insert_allocations)
    );
    assert!(from_ttl.len() == g.len() && from_nt.len() == g.len() && inserted.len() == g.len());

    // Tokens and terms are views of the text (or of a buffer the parser
    // reuses, for a prefixed name), interned without building a term: one
    // allocation per distinct term, on first sight, and none per token or
    // per occurrence — 18 734 terms over 35 624 triples is 0.53. The
    // scanners these replaced made 9.3 and 4.8; with an `Arc` built per term
    // occurrence these read 3.73 and 3.00.
    assert!(
        per_triple(turtle_allocations) <= 0.6,
        "turtle::parse: {turtle_allocations}"
    );
    assert!(
        per_triple(ntriples_allocations) <= 0.6,
        "ntriples::parse: {ntriples_allocations}"
    );
    // The graph's share is its two growing tables, the set and the log: no
    // allocation per triple (0.84 a triple when an insert also pushed into
    // three index vectors).
    assert!(
        per_triple(insert_allocations) <= 0.05,
        "inserting ready-made triples: {insert_allocations}"
    );
}

#[test]
fn the_first_read_builds_each_index_in_two_allocations() {
    let g = rank_graph(5_000);
    assert_eq!(g.len(), 35_624);
    // Keys that match nothing, so no result is allocated and what is
    // counted is the build: a predicate as a subject and as an object, an
    // activity as a predicate.
    let rdf_type = g.term_id(&Term::iri(ns::RDF_TYPE));
    let activity = g.term_id(&Term::iri("urn:provio:act/r0/0"));
    let mut total = 0;
    for (index, s, p, o) in [
        ("spo", Some(rdf_type), None, None),
        ("pos", None, Some(activity), None),
        ("osp", None, None, Some(rdf_type)),
    ] {
        let (hits, allocations) = allocations_during(|| g.match_ids(s, p, o));
        println!("first read through {index}: {allocations} allocations");
        assert!(hits.is_empty() && rdf_type.is_some() && activity.is_some());
        // The start offsets and the pairs: one counting sort, whatever the
        // graph's size.
        assert!(allocations <= 2, "{index}: {allocations}");
        total += allocations;
    }
    assert!(total <= 6, "{total}");
    // Built once: later reads allocate only their results.
    let (_, again) = allocations_during(|| {
        g.cardinality_estimate(Some(rdf_type), None, None)
            + g.cardinality_estimate(None, Some(activity), None)
            + g.cardinality_estimate(None, None, Some(rdf_type))
    });
    assert_eq!(again, 0);
}
