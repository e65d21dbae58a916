//! Exact work of the two per-activity queries (the paper's H5bench
//! scenarios 1 and 2): allocations per result row stay under a small
//! constant, and the count does not depend on the order the triples went
//! into the graph — ordering the result renders each row's key once,
//! however unsorted the rows arrive.
//!
//! A counting `#[global_allocator]` needs a binary of its own. Counts are
//! per thread, so the other test does not leak into a measurement.

use provio_rdf::{Graph, Iri, Literal, Subject, Term, Triple};
use provio_sparql::Query;

#[path = "../../rdf/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

const ACTIVITIES: usize = 4_000;

/// `ACTIVITIES` I/O API nodes with a duration each, inserted in GUID
/// order or in a seeded shuffle of it.
fn graph(shuffled: bool) -> Graph {
    let member = Iri::new("http://www.w3.org/ns/prov#wasMemberOf");
    let activity = Term::iri("http://www.w3.org/ns/prov#Activity");
    let elapsed = Iri::new("https://github.com/hpc-io/prov-io#elapsed");
    let mut triples = Vec::new();
    for i in 0..ACTIVITIES {
        let api = Subject::iri(format!("urn:provio:act/p3/H5Dwrite-{i:06}"));
        triples.push(Triple::new(api.clone(), member.clone(), activity.clone()));
        triples.push(Triple::new(
            api,
            elapsed.clone(),
            Literal::integer(1_000 + i as i64),
        ));
    }
    if shuffled {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..triples.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            triples.swap(i, (x % (i as u64 + 1)) as usize);
        }
    }
    triples.into_iter().collect()
}

#[test]
fn per_activity_queries_allocate_a_constant_per_row_whatever_the_insertion_order() {
    let (sorted, shuffled) = (graph(false), graph(true));
    for (text, per_row) in [
        // One Binding node and one variable name per row.
        ("SELECT ?a WHERE { ?a prov:wasMemberOf prov:Activity . }", 2),
        // One more name, and the index lookup's result per joined row.
        (
            "SELECT ?a ?d WHERE { ?a prov:wasMemberOf prov:Activity ; provio:elapsed ?d . }",
            4,
        ),
    ] {
        let q = Query::parse(text).unwrap();
        let (rows, in_order) = allocations_during(|| q.execute(&sorted));
        let (rows_shuffled, out_of_order) = allocations_during(|| q.execute(&shuffled));
        assert_eq!(rows.len(), ACTIVITIES);
        assert_eq!(rows.rows, rows_shuffled.rows, "same rows, same order");
        assert_eq!(in_order, out_of_order, "{text}");
        // Per row, plus the few buffers that grow by doubling.
        let budget = (per_row * ACTIVITIES + 100) as u64;
        assert!(
            in_order <= budget,
            "{in_order} allocations for {ACTIVITIES} rows of {text}"
        );
        assert!(
            in_order >= ACTIVITIES as u64,
            "the counter counts: {in_order}"
        );
    }
}
