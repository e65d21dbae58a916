//! Property-based tests for the RDF substrate: serializer/parser round
//! trips, graph index coherence, merge algebra, byte identity of the
//! writers with the writers they replaced, indexes built on first read and
//! products against indexes kept on every write and edges inserted one by
//! one, parsers that intern borrowed views against the owned-term parse
//! they replaced, and parsers that never panic.
//!
//! Case count of the three differentials: `PROVIO_WRITER_CASES` (default
//! 256); CI's `writer-differential` step runs 4096 in release.

mod reference;
#[path = "support/strategies.rs"]
mod strategies;

use proptest::prelude::*;
use proptest::sample::Index;
use provio_rdf::lex::{Lexer, Token};
use provio_rdf::{
    ntriples, turtle, BlankNode, Capture, Graph, Iri, Literal, Namespaces, Term, TermId, Triple,
    TriplePattern,
};
use strategies::{arb_graph, arb_triple, tricky_namespaces, tricky_triple};

fn graphs_equal(a: &Graph, b: &Graph) -> bool {
    a.len() == b.len() && a.iter().all(|t| b.contains(&t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn turtle_round_trip(g in arb_graph()) {
        let ttl = turtle::serialize(&g, &Namespaces::standard());
        let (g2, _) = turtle::parse(&ttl).unwrap();
        prop_assert!(graphs_equal(&g, &g2), "turtle round-trip changed graph:\n{ttl}");
    }

    #[test]
    fn ntriples_round_trip(g in arb_graph()) {
        let nt = ntriples::serialize(&g);
        let g2 = ntriples::parse(&nt).unwrap();
        prop_assert!(graphs_equal(&g, &g2), "ntriples round-trip changed graph:\n{nt}");
    }

    #[test]
    fn formats_agree(g in arb_graph()) {
        // Turtle and N-Triples describe the same graph.
        let via_ttl = turtle::parse(&turtle::serialize(&g, &Namespaces::standard())).unwrap().0;
        let via_nt = ntriples::parse(&ntriples::serialize(&g)).unwrap();
        prop_assert!(graphs_equal(&via_ttl, &via_nt));
    }

    #[test]
    fn index_coherence(ts in proptest::collection::vec(arb_triple(), 0..40)) {
        // Every triple matched through any single-position index is in the
        // graph, and every inserted triple is reachable through all three.
        let g: Graph = ts.iter().cloned().collect();
        for t in &ts {
            let by_s = g.match_pattern(&TriplePattern::any().with_subject(t.subject.clone()));
            prop_assert!(by_s.contains(t));
            let by_p = g.match_pattern(&TriplePattern::any().with_predicate(t.predicate.clone()));
            prop_assert!(by_p.contains(t));
            let by_o = g.match_pattern(&TriplePattern::any().with_object(t.object.clone()));
            prop_assert!(by_o.contains(t));
        }
        let all = g.match_pattern(&TriplePattern::any());
        prop_assert_eq!(all.len(), g.len());
    }

    #[test]
    fn remove_then_absent(ts in proptest::collection::vec(arb_triple(), 1..30), idx in any::<prop::sample::Index>()) {
        let mut g: Graph = ts.iter().cloned().collect();
        let victim = ts[idx.index(ts.len())].clone();
        let before = g.len();
        prop_assert!(g.remove(&victim));
        prop_assert!(!g.contains(&victim));
        prop_assert_eq!(g.len(), before - 1);
        // Indexes agree with the set after removal.
        let all = g.match_pattern(&TriplePattern::any());
        prop_assert_eq!(all.len(), g.len());
        prop_assert!(!all.contains(&victim));
    }

    #[test]
    fn merge_idempotent_and_commutative(a in arb_graph(), b in arb_graph()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab2 = ab.clone();
        ab2.merge(&b);
        prop_assert!(graphs_equal(&ab, &ab2), "merge not idempotent");

        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert!(graphs_equal(&ab, &ba), "merge not commutative");
    }

    #[test]
    fn merge_models_subgraph_union(parts in proptest::collection::vec(arb_graph(), 1..5)) {
        // Paper §5: per-process sub-graphs merge into a complete graph with
        // no duplication. Union semantics: a triple is in the merge iff it
        // is in some part.
        let mut merged = Graph::new();
        for p in &parts {
            merged.merge(p);
        }
        for p in &parts {
            for t in p.iter() {
                prop_assert!(merged.contains(&t));
            }
        }
        for t in merged.iter() {
            prop_assert!(parts.iter().any(|p| p.contains(&t)));
        }
    }
}

// ---------------------------------------------------------------------------
// The writers against the writers they replaced.

fn writer_cases() -> u32 {
    std::env::var("PROVIO_WRITER_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(writer_cases()))]

    /// Every writer, on the whole graph and on a delta slice of it, is
    /// byte-identical to the reference — after duplicate inserts and a
    /// removal have disturbed the insertion order.
    #[test]
    fn writers_match_the_reference_writers(
        ts in prop::collection::vec(tricky_triple(), 0..80),
        nss in tricky_namespaces(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut g = Graph::new();
        for t in &ts {
            g.insert(t);
        }
        for t in ts.iter().step_by(3) {
            prop_assert!(!g.insert(t), "a duplicate insert adds nothing");
        }
        if let Some(t) = ts.get(cut.index(ts.len().max(1))) {
            g.remove(t);
        }

        let want = reference::turtle(&g, &nss);
        prop_assert_eq!(&turtle::serialize(&g, &nss), &want);
        prop_assert_eq!(&turtle::serialize_capture(&g.capture_from(0), &nss), &want);

        let term_of = |id: u32| &g.terms()[id as usize];
        for t in g.terms() {
            prop_assert_eq!(ntriples::render_term(t), reference::nt_term(t));
        }
        for start in [0, cut.index(g.len() + 1)] {
            let ids = g.ids_from(start);
            prop_assert_eq!(ntriples::id_block(ids, term_of), reference::nt_block(ids, term_of));
            let sorted = reference::nt_sorted_lines(ids, term_of);
            prop_assert_eq!(&ntriples::sorted_id_lines(ids, term_of), &sorted);
            prop_assert_eq!(ntriples::lines(ids, term_of).sorted(), sorted.iter().map(String::as_str).collect::<Vec<_>>());
            let block: String = sorted.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
            prop_assert_eq!(&ntriples::sorted_block(ids, term_of), &block);
            if start == 0 {
                prop_assert_eq!(&ntriples::sorted_graph_lines(&g), &sorted);
                prop_assert_eq!(&ntriples::serialize(&g), &block);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The indexes built on first read against the indexes kept on every write.

/// A triple over a handful of terms, so that histories repeat, remove and
/// re-insert the same ones; now and then one from the writers' generator.
fn pool_triple() -> impl Strategy<Value = Triple> {
    let pooled = (0u8..5, 0u8..3, 0u8..8).prop_map(|(s, p, o)| {
        let subject = pool_subject(s).as_subject().unwrap();
        Triple::new(subject, pool_predicate(p), pool_object(o))
    });
    prop_oneof![6 => pooled, 1 => tricky_triple()]
}

/// The pool's subjects: `urn:n0`–`urn:n3` and a blank node, all of which
/// are objects too.
fn pool_subject(s: u8) -> Term {
    match s {
        4 => pool_object(7),
        s => pool_object(s),
    }
}

fn pool_predicate(p: u8) -> Iri {
    Iri::new(format!("urn:p{p}"))
}

fn pool_object(o: u8) -> Term {
    match o {
        5 => Literal::integer(7).into(),
        6 => Literal::plain("x").into(),
        7 => Term::Blank(BlankNode::new("b0")),
        o => Term::iri(format!("urn:n{o}")),
    }
}

/// One group of a product: pool subjects on the left, pool objects on the
/// right — small pools, so groups overlap, an id stands on both sides, and
/// edges the histories insert one by one come back as products.
fn pool_group() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        prop::collection::vec(0u8..5, 0..4),
        prop::collection::vec(0u8..8, 0..5),
    )
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Triple),
    /// Subject, predicate and object picked among the interned terms that
    /// may stand there.
    InsertIds(Index, Index, Index),
    Intern(u8),
    Merge(Vec<Triple>),
    Remove(Triple),
    RemovePresent(Index),
    /// Keep the triples whose subject id is not this one modulo 3.
    Retain(u8),
    /// A product over a pool predicate: (left, right) pool indices per
    /// group.
    Product(u8, Vec<(Vec<u8>, Vec<u8>)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => pool_triple().prop_map(Op::Insert),
        2 => (any::<Index>(), any::<Index>(), any::<Index>()).prop_map(|(s, p, o)| Op::InsertIds(s, p, o)),
        1 => (0u8..8).prop_map(Op::Intern),
        1 => prop::collection::vec(pool_triple(), 0..8).prop_map(Op::Merge),
        1 => pool_triple().prop_map(Op::Remove),
        1 => any::<Index>().prop_map(Op::RemovePresent),
        1 => (0u8..3).prop_map(Op::Retain),
        1 => (0u8..3, prop::collection::vec(pool_group(), 0..4)).prop_map(|(p, gs)| Op::Product(p, gs)),
    ]
}

/// A probe's three positions, each an id among the interned terms and two
/// past them, or (one time in eight) a bound term the graph does not hold.
fn arb_probe() -> impl Strategy<Value = [(Index, u8); 3]> {
    let position = || (any::<Index>(), any::<u8>());
    (position(), position(), position()).prop_map(|(s, p, o)| [s, p, o])
}

fn ids_of(g: &Graph, t: &Triple) -> Option<(TermId, TermId, TermId)> {
    Some((
        g.term_id(&Term::from(t.subject.clone()))?,
        g.term_id(&Term::Iri(t.predicate.clone()))?,
        g.term_id(&t.object)?,
    ))
}

/// Apply `op` to the graph and the same write, by id, to the reference;
/// both must report the same effect. Returns whether a triple was removed.
fn apply(g: &mut Graph, eager: &mut reference::EagerIndex, op: &Op) -> bool {
    match op {
        Op::Insert(t) => {
            let added = g.insert(t);
            let (s, p, o) = ids_of(g, t).expect("interned by the insert");
            prop_assert_eq!(added, eager.insert_ids(s, p, o));
        }
        Op::InsertIds(s, p, o) => {
            let pick = |i: &Index, ok: fn(&Term) -> bool| {
                let ids: Vec<TermId> = (0..g.term_count() as u32)
                    .map(TermId)
                    .filter(|&id| ok(g.term(id)))
                    .collect();
                (!ids.is_empty()).then(|| ids[i.index(ids.len())])
            };
            let picked = (
                pick(s, |t| t.as_subject().is_some()),
                pick(p, |t| t.as_iri().is_some()),
                pick(o, |_| true),
            );
            if let (Some(s), Some(p), Some(o)) = picked {
                prop_assert_eq!(g.insert_ids(s, p, o), eager.insert_ids(s, p, o));
            }
        }
        Op::Intern(k) => {
            g.intern(&Term::iri(format!("urn:fresh{k}")));
        }
        Op::Merge(ts) => {
            let other: Graph = ts.iter().cloned().collect();
            let added = g.merge(&other);
            let mut mirrored = 0;
            for (s, p, o) in other.iter_ids() {
                let id = |t: TermId| g.term_id(other.term(t)).expect("interned by the merge");
                mirrored += usize::from(eager.insert_ids(id(s), id(p), id(o)));
            }
            prop_assert_eq!(added, mirrored);
        }
        Op::Remove(t) => {
            let removed = g.remove(t);
            let mirrored = ids_of(g, t).is_some_and(|(s, p, o)| eager.remove_ids(s, p, o));
            prop_assert_eq!(removed, mirrored);
            return removed;
        }
        Op::RemovePresent(i) => {
            if g.is_empty() {
                return false;
            }
            let t = g.iter().nth(i.index(g.len())).unwrap();
            let (s, p, o) = ids_of(g, &t).unwrap();
            prop_assert!(g.remove(&t));
            prop_assert!(eager.remove_ids(s, p, o));
            return true;
        }
        Op::Retain(k) => {
            let dropped: Vec<_> = g
                .iter_ids()
                .filter(|(s, _, _)| s.0 % 3 == u32::from(*k))
                .collect();
            prop_assert_eq!(g.retain(|s, _, _| s.0 % 3 != u32::from(*k)), dropped.len());
            for &(s, p, o) in &dropped {
                prop_assert!(eager.remove_ids(s, p, o));
            }
            return !dropped.is_empty();
        }
        Op::Product(p, groups) => {
            let p = g.intern(&Term::Iri(pool_predicate(*p)));
            let groups: Vec<(Vec<TermId>, Vec<TermId>)> = groups
                .iter()
                .map(|(left, right)| {
                    let left = left.iter().map(|&s| g.intern(&pool_subject(s))).collect();
                    let right = right.iter().map(|&o| g.intern(&pool_object(o))).collect();
                    (left, right)
                })
                .collect();
            let added = g.add_product(p, groups.clone());
            // The product's meaning: one insert per pair, after the log.
            let mut mirrored = 0;
            for (mut left, mut right) in groups {
                for side in [&mut left, &mut right] {
                    side.sort_unstable();
                    side.dedup();
                }
                for &x in &left {
                    for &y in right.iter().filter(|&&y| y != x) {
                        mirrored += usize::from(eager.insert_ids(x, p, y));
                    }
                }
            }
            prop_assert_eq!(added, mirrored);
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(writer_cases()))]

    /// Any interleaving of writes, products and reads answers every
    /// pattern shape as the eagerly indexed graph did — given a product's
    /// edges one insert at a time: the same sequence while nothing has been
    /// removed, the same multiset after (the old indexes `swap_remove`d,
    /// which reorders a key's pairs). The log, and so `iter_ids`, `len`,
    /// `contains` and both writers, agree always.
    #[test]
    fn lazy_indexes_answer_as_eager_ones(steps in prop::collection::vec((arb_op(), arb_probe()), 0..40)) {
        let mut g = Graph::new();
        let mut eager = reference::EagerIndex::default();
        let mut removed_any = false;
        for (op, probe) in &steps {
            removed_any |= apply(&mut g, &mut eager, op);
            let known = g.term_count() + 2;
            for shape in 0..8u8 {
                let [s, p, o] = std::array::from_fn(|i| {
                    let (at, unknown) = probe[i];
                    (shape >> i & 1 == 1).then(|| (unknown % 8 != 0).then(|| TermId(at.index(known) as u32)))
                });
                prop_assert_eq!(g.cardinality_estimate(s, p, o), eager.cardinality_estimate(s, p, o));
                let (mut got, mut want) = (g.match_ids(s, p, o), eager.match_ids(s, p, o));
                if removed_any && shape != 0 {
                    got.sort_unstable();
                    want.sort_unstable();
                }
                prop_assert_eq!(got, want, "shape {:03b} after {:?}", shape, op);
            }
            prop_assert!(g.iter_ids().eq(eager.log.iter().copied()), "log after {:?}", op);
            prop_assert_eq!(g.len(), eager.log.len());
            if g.term_count() > 0 {
                let [s, p, o] = probe.map(|(at, _)| TermId(at.index(g.term_count()) as u32));
                if let (Some(subject), Term::Iri(predicate)) = (g.term(s).as_subject(), g.term(p)) {
                    let probe = Triple::new(subject, predicate.clone(), g.term(o).clone());
                    let stored = eager.match_ids(Some(Some(s)), Some(Some(p)), Some(Some(o)));
                    prop_assert_eq!(g.contains(&probe), stored.len() == 1);
                }
            }
            for t in g.iter() {
                prop_assert!(g.contains(&t));
            }
            let ids: Vec<(u32, u32, u32)> = eager.log.iter().map(|&(s, p, o)| (s.0, p.0, o.0)).collect();
            let term_of = |id: u32| &g.terms()[id as usize];
            prop_assert_eq!(ntriples::serialize(&g), ntriples::sorted_block(&ids, term_of));
            let capture = Capture { ids, terms: g.terms().to_vec() };
            let nss = Namespaces::standard();
            prop_assert_eq!(turtle::serialize(&g, &nss), turtle::serialize_capture(&capture, &nss));
        }
    }
}

// ---------------------------------------------------------------------------
// Parsers take text from outside the program: `Ok` or `Err`, never a panic.

/// Bytes the lexer gives a meaning to in a Turtle or N-Triples document.
const MARKS: &[u8] = b"<>\"\\^@_:.;,#a \n";

fn parse_all(text: &str) {
    let _ = turtle::parse(text);
    let mut strict = Graph::new();
    let parsed = ntriples::parse_into(text, &mut strict);
    let mut lenient = Graph::new();
    let recovered = ntriples::parse_lenient_prefix(text, &mut lenient);
    assert!(recovered >= lenient.len());
    if parsed.is_ok() {
        // Nothing was malformed, so the salvage reads the whole document.
        assert!(graphs_equal(&strict, &lenient));
    }
    // The lexer under all of them, on its own: every token is a step
    // forward, and the term production ends at what it cannot read.
    let mut lex = Lexer::new(text);
    let mut tokens = 0;
    while !matches!(lex.token(), Ok(Token::Eof) | Err(_)) {
        tokens += 1;
        assert!(tokens <= text.len(), "the lexer stopped advancing");
    }
    let (mut lex, nss, mut buf) = (Lexer::new(text), Namespaces::standard(), String::new());
    while lex.term(&nss, "term", &mut buf).is_ok() {}
}

proptest! {
    #[test]
    fn parsers_never_panic_on_arbitrary_input(
        text in "[ -~\\n\\t\u{e9}\u{4e9c}]{0,120}",
        marks in "[<>\"\\\\^@_:.;,#%+\\-a-fpPrRixX0-9 \\n\\r\u{e9}]{0,80}",
        bytes in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        parse_all(&text);
        parse_all(&marks);
        parse_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parsers_never_panic_on_mutated_serializer_output(
        ts in prop::collection::vec(tricky_triple(), 1..12),
        nss in tricky_namespaces(),
        edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..5), 1..6),
    ) {
        let g: Graph = ts.into_iter().collect();
        for doc in [turtle::serialize(&g, &nss), ntriples::serialize(&g)] {
            let mut data = doc.into_bytes();
            for &(at, byte, kind) in &edits {
                if !mutate(&mut data, at, byte, kind) {
                    break;
                }
                parse_all(&String::from_utf8_lossy(&data));
            }
        }
    }
}

/// One edit of a document's bytes; `false` once there is nothing left to
/// edit.
fn mutate(data: &mut Vec<u8>, at: Index, byte: u8, kind: u8) -> bool {
    if data.is_empty() {
        return false;
    }
    let at = at.index(data.len());
    match kind {
        // Truncate, overwrite a byte, flip a bit, …
        0 => data.truncate(at),
        1 => data[at] = byte,
        2 => data[at] ^= 1 << (byte % 8),
        // … overwrite the next byte the grammar cares about, or plant one.
        3 => {
            let mark = (at..data.len()).find(|&i| MARKS.contains(&data[i])).unwrap_or(at);
            data[mark] = byte;
        }
        _ => data.insert(at, MARKS[byte as usize % MARKS.len()]),
    }
    true
}

// ---------------------------------------------------------------------------
// The parsers against the parse they replaced: an owned term per occurrence
// and one `Graph::insert` per triple.

/// Forms the writers never produce: escaped bodies, prefixed datatypes,
/// `a`, bare numbers and booleans, `,` and `;` lists with a trailing `;`,
/// language tags, a subject repeated on lines apart and a blank node.
const HAND_WRITTEN: &[&str] = &[
    "@prefix ex: <http://e/> .\nex:s a ex:T ; ex:n 42 , -1.5e3 , 2.5 , +7 ; ex:b true , false ; .\n\
     ex:s ex:n 42 .\n_:b0 a ex:T .\n",
    "PREFIX ex: <http://e/>\n@prefix x: <http://www.w3.org/2001/XMLSchema#> .\n\
     ex:s ex:p \"esc \\\"q\\\" \\u00e9\\n\"^^ex:dt , \"t\"@en-GB , \"5\"^^x:integer , \"5\" ;\n\
     ex:q \"a\\tb\"^^<http://e/dt> , \"a\\tb\"@en .\n",
    "<urn:s> <urn:p> \"x\\\\y\" .\n<urn:s> <urn:q> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
     _:b1 <urn:p> <urn:s> .\n<urn:t> <urn:p> _:b1 .\n<urn:s> <urn:p> \"x\\\\y\"@en .\n\
     <urn:s> <urn:q> \"e\\u00e9\"^^<urn:dt> .\n",
];

/// The parsers and their references on `text`: the same verdict, the same
/// error, and the same terms in the same order and the same log — on a
/// failed parse too, where each keeps what it read before the error.
fn same_parse(text: &str) {
    let same = |a: &Graph, b: &Graph| a.terms() == b.terms() && a.ids_from(0) == b.ids_from(0);

    let (mut got, mut want) = (Graph::new(), Graph::new());
    let bindings = |nss: Namespaces| nss.iter().map(|(p, i)| format!("{p} {i}")).collect::<Vec<_>>();
    let turtle = turtle::parse_into(text, &mut got).map(bindings);
    assert_eq!(turtle, reference::turtle_parse_into(text, &mut want).map(bindings), "{:?}", text);
    assert!(same(&got, &want), "turtle graphs differ on {:?}", text);

    let (mut got, mut want) = (Graph::new(), Graph::new());
    let ntriples = ntriples::parse_into(text, &mut got);
    assert_eq!(ntriples, reference::ntriples_parse_into(text, &mut want), "{:?}", text);
    assert!(same(&got, &want), "n-triples graphs differ on {:?}", text);

    let (mut got, mut want) = (Graph::new(), Graph::new());
    let recovered = ntriples::parse_lenient_prefix(text, &mut got);
    assert_eq!(recovered, reference::ntriples_parse_lenient_prefix(text, &mut want));
    assert!(same(&got, &want), "salvaged graphs differ on {:?}", text);
}

#[test]
fn the_hand_written_forms_parse() {
    for text in HAND_WRITTEN {
        same_parse(text);
        let n_triples = text.starts_with('<');
        assert_eq!(ntriples::parse(text).is_ok(), n_triples, "{text}");
        assert!(turtle::parse(text).is_ok(), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(writer_cases()))]

    /// Writer output in both syntaxes, the same torn or mutated, and the
    /// hand-written forms: the view parse is the owned parse, byte for byte
    /// on the graph.
    #[test]
    fn the_view_parse_is_the_owned_parse(
        ts in prop::collection::vec(tricky_triple(), 0..40),
        nss in tricky_namespaces(),
        hand in any::<Index>(),
        edits in prop::collection::vec((any::<Index>(), any::<u8>(), 0u8..5), 0..5),
    ) {
        let g: Graph = ts.into_iter().collect();
        let hand = HAND_WRITTEN[hand.index(HAND_WRITTEN.len())].to_string();
        for doc in [turtle::serialize(&g, &nss), ntriples::serialize(&g), hand] {
            let mut data = doc.into_bytes();
            same_parse(&String::from_utf8_lossy(&data));
            for &(at, byte, kind) in &edits {
                if !mutate(&mut data, at, byte, kind) {
                    break;
                }
                same_parse(&String::from_utf8_lossy(&data));
            }
        }
    }
}
