//! One text front end: a term spelled once reads back as the same `Term`
//! wherever a syntax admits it — Turtle object position, N-Triples object
//! position, a SPARQL pattern object and a SPARQL `FILTER` constant — and
//! what one syntax rejects as malformed, all reject. This crate's tests see
//! both `provio-rdf` and `provio-sparql`, so the property lives here; the
//! generators are the writers' own (`crates/rdf/tests/support`).
//!
//! Case count: `PROVIO_ORACLE_CASES` (default 256); CI runs 4096.

#[path = "../../rdf/tests/support/strategies.rs"]
mod strategies;

use proptest::prelude::*;
use provio_rdf::{ns, ntriples, turtle, BlankNode, Graph, Iri, Literal, Subject, Term, Triple};
use provio_sparql::{Expr, Pattern, Query, QueryError, TermOrVar};

fn cases() -> u32 {
    std::env::var("PROVIO_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The prefixes a query starts with, declared for a Turtle document.
const TURTLE_PROLOGUE: &str = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
                               @prefix prov: <http://www.w3.org/ns/prov#> .\n";

/// The one object of the one triple in `graph`.
fn only_object(graph: Graph) -> Term {
    assert_eq!(graph.len(), 1);
    graph.iter().next().expect("one triple").object
}

fn from_turtle(spelling: &str) -> Result<Term, String> {
    match turtle::parse(&format!("{TURTLE_PROLOGUE}<urn:s> <urn:p> {spelling} .")) {
        Ok((graph, _)) => Ok(only_object(graph)),
        Err(e) => Err(e.to_string()),
    }
}

fn from_ntriples(spelling: &str) -> Result<Term, String> {
    match ntriples::parse(&format!("<urn:s> <urn:p> {spelling} .\n")) {
        Ok(graph) => Ok(only_object(graph)),
        Err(e) => Err(e.to_string()),
    }
}

fn from_pattern(spelling: &str) -> Result<Term, String> {
    let query = Query::parse(&format!("SELECT * WHERE {{ ?s <urn:p> {spelling} . }}"))
        .map_err(|e| e.to_string())?;
    match &query.patterns[..] {
        [Pattern::Triple { object: TermOrVar::Term(t), .. }] => Ok(t.clone()),
        other => panic!("{spelling:?} parsed as {other:?}"),
    }
}

fn from_filter(spelling: &str) -> Result<Term, String> {
    let query = Query::parse(&format!("SELECT * WHERE {{ ?s <urn:p> ?o . FILTER(?o = {spelling}) }}"))
        .map_err(|e| e.to_string())?;
    match &query.patterns[..] {
        [_, Pattern::Filter(Expr::Compare(_, _, right))] => match &**right {
            Expr::Const(t) => Ok(t.clone()),
            other => panic!("{spelling:?} parsed as {other:?}"),
        },
        other => panic!("{spelling:?} parsed as {other:?}"),
    }
}

type Reader = fn(&str) -> Result<Term, String>;

const READERS: [(&str, Reader); 4] = [
    ("Turtle object", from_turtle),
    ("N-Triples object", from_ntriples),
    ("SPARQL pattern object", from_pattern),
    ("SPARQL FILTER constant", from_filter),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every term of a tricky triple, spelled by the N-Triples writer (the
    /// spelling the journal, the segments and the collector's wire carry).
    #[test]
    fn a_written_term_reads_back_identically_in_every_syntax(t in strategies::tricky_triple()) {
        for term in [Term::from(t.subject), Term::Iri(t.predicate), t.object] {
            let spelling = ntriples::render_term(&term);
            for (place, read) in READERS {
                let got = read(&spelling);
                if place.starts_with("SPARQL") && matches!(term, Term::Blank(_)) {
                    // A label in a query would be a variable, not this node.
                    let refusal = got.expect_err("a blank node in a query");
                    prop_assert!(refusal.contains("blank node"), "{place}: {refusal}");
                } else {
                    prop_assert_eq!(got.as_ref(), Ok(&term), "{} as {}", &spelling, place);
                }
            }
        }
    }
}

fn integer(lexical: &str) -> Term {
    Literal::typed(lexical, Iri::new(ns::XSD_INTEGER)).into()
}

fn double(lexical: &str) -> Term {
    Literal::typed(lexical, Iri::new(ns::XSD_DOUBLE)).into()
}

/// A spelling, the term it denotes (`None`: malformed everywhere), and the
/// syntaxes that admit it, by initial: Turtle, N-Triples, Sparql (pattern
/// and FILTER alike). A well-formed spelling a syntax does not admit — a
/// bare number in N-Triples, a blank node in a query — is an error there.
fn table() -> Vec<(&'static str, Option<Term>, &'static str)> {
    vec![
        // Bare numerics are INTEGER, DECIMAL or DOUBLE, or nothing.
        ("42", Some(integer("42")), "TS"),
        ("+5", Some(integer("+5")), "TS"),
        ("-7", Some(integer("-7")), "TS"),
        ("1.5", Some(double("1.5")), "TS"),
        ("1e-3", Some(double("1e-3")), "TS"),
        ("-1.5E+2", Some(double("-1.5E+2")), "TS"),
        ("true", Some(Literal::boolean(true).into()), "TS"),
        ("-", None, ""),
        ("+", None, ""),
        ("5e", None, ""),
        ("1-2", None, ""),
        ("1+e-+", None, ""),
        ("1.2.3", None, ""),
        // An IRI holds no whitespace, control character or <>"{}|^`\.
        ("<urn:a>", Some(Term::iri("urn:a")), "TNS"),
        ("<>", Some(Term::iri("")), "TNS"),
        ("<urn:\u{e9}#frag?q=1&r=%20>", Some(Term::iri("urn:\u{e9}#frag?q=1&r=%20")), "TNS"),
        ("<urn:a b>", None, ""),
        ("<urn:a\nb>", None, ""),
        ("<urn:a\tb>", None, ""),
        ("<urn:a\u{1}b>", None, ""),
        ("<urn:a<b>", None, ""),
        ("<urn:a\"b>", None, ""),
        ("<urn:a{b>", None, ""),
        ("<urn:a}b>", None, ""),
        ("<urn:a|b>", None, ""),
        ("<urn:a^b>", None, ""),
        ("<urn:a`b>", None, ""),
        ("<urn:a\\b>", None, ""),
        ("<urn:unterminated", None, ""),
        // One spelling of literals, and of their suffixes.
        ("\"x\"", Some(Term::plain("x")), "TNS"),
        ("\"x\"@en", Some(Literal::lang_tagged("x", "en").into()), "TNS"),
        ("\"x\"@en-GB", Some(Literal::lang_tagged("x", "en-GB").into()), "TNS"),
        ("\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>", Some(integer("5")), "TNS"),
        ("\"5\"^^xsd:integer", Some(integer("5")), "TS"),
        ("\"a\\\"b\\\\c\\n\\u00e9\"", Some(Term::plain("a\"b\\c\n\u{e9}")), "TNS"),
        ("\"x\"@", None, ""),
        ("\"x\"^^", None, ""),
        ("\"x\"^^\"y\"", None, ""),
        ("\"x\"^<urn:t>", None, ""),
        ("\"bad \\q escape\"", None, ""),
        ("\"unterminated", None, ""),
        // Prefixed names need their prefix; blank node labels may hold dots.
        ("prov:used.by", Some(Term::iri(format!("{}used.by", ns::PROV))), "TS"),
        ("zzz:x", None, ""),
        ("_:b1", Some(BlankNode::new("b1").into()), "TN"),
        ("_:a.b", Some(BlankNode::new("a.b").into()), "TN"),
        ("_:", None, ""),
    ]
}

#[test]
fn the_accept_reject_table_holds_in_every_syntax() {
    for (spelling, term, admitted_by) in table() {
        for (place, read) in READERS {
            let got = read(spelling);
            if admitted_by.contains(&place[..1]) {
                assert_eq!(got.as_ref(), Ok(term.as_ref().unwrap()), "{spelling:?} as {place}");
            } else {
                assert!(got.is_err(), "{spelling:?} as {place}: read as {got:?}");
            }
        }
    }
}

#[test]
fn a_blank_node_in_a_query_is_refused_as_one() {
    for query in [
        "SELECT ?s WHERE { ?s <urn:p> _:b1 . }",
        "SELECT ?o WHERE { _:b1 <urn:p> ?o . }",
        "SELECT ?o WHERE { ?s <urn:p> ?o . FILTER(?o = _:b1) }",
    ] {
        let Err(QueryError::Parse(message)) = Query::parse(query) else {
            panic!("{query} parsed");
        };
        assert!(message.contains("blank node '_:b1'"), "{message}");
        assert!(!message.contains("unknown prefix"), "{message}");
    }
}

#[test]
fn comparisons_written_tight_are_not_iris() {
    for filter in ["?v<0", "?v <0 && ?v> -9", "?v<=0", "?v>=0 && ?v<9", "?v < 10 || ?v > <urn:a>"] {
        let query = format!("SELECT ?v WHERE {{ ?x <urn:p> ?v . FILTER({filter}) }}");
        let parsed = Query::parse(&query).unwrap_or_else(|e| panic!("{query}: {e}"));
        assert!(matches!(parsed.patterns[1], Pattern::Filter(_)));
    }
    // A number with its sign and exponent is one token, next to an operator
    // or not.
    let query = "SELECT ?v WHERE { ?x <urn:p> ?v . FILTER(?v>-1.5E+2 && ?v<1e-3) } LIMIT 5";
    let Pattern::Filter(Expr::And(low, high)) = &Query::parse(query).unwrap().patterns[1] else {
        panic!("not a conjunction");
    };
    for (side, number) in [(low, "-1.5E+2"), (high, "1e-3")] {
        let Expr::Compare(_, _, right) = &**side else {
            panic!("not a comparison");
        };
        assert_eq!(**right, Expr::Const(double(number)));
    }
}

#[test]
fn every_graph_a_writer_emits_is_read_by_both_readers() {
    // `_:a.b` and a lang-tagged literal: Turtle round-tripped this graph
    // before, N-Triples read "expected predicate IRI".
    let mut g = Graph::new();
    g.insert(&Triple::new(
        Subject::Blank(BlankNode::new("a.b")),
        Iri::new("urn:p"),
        Literal::lang_tagged("x", "en"),
    ));
    g.insert(&Triple::new(Subject::iri("urn:s"), Iri::new("urn:p"), BlankNode::new("a.b")));
    let via_nt = ntriples::parse(&ntriples::serialize(&g)).unwrap();
    let via_ttl = turtle::parse(&turtle::serialize(&g, &provio_rdf::Namespaces::standard())).unwrap().0;
    let lines = ntriples::sorted_graph_lines(&g);
    assert_eq!(ntriples::sorted_graph_lines(&via_nt), lines);
    assert_eq!(ntriples::sorted_graph_lines(&via_ttl), lines);
    // An IRI that would break a line never reaches a writer through a reader.
    assert!(turtle::parse("<urn:a\nb> <urn:p> <urn:o> .").is_err());
    assert!(ntriples::parse("<urn:a\nb> <urn:p> <urn:o> .").is_err());
}
