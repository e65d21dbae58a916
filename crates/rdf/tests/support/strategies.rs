//! Term, triple and graph generators, shared by this crate's property
//! tests and — by `#[path]` — by `provio-sparql`'s cross-syntax agreement
//! test, so that what the writers are checked on is what every reader is
//! checked on.
#![allow(dead_code)] // each includer uses its own subset

use proptest::prelude::*;
use provio_rdf::{ns, BlankNode, Graph, Iri, Literal, Namespaces, Subject, Term, Triple};

pub fn arb_iri() -> impl Strategy<Value = Iri> {
    // IRIs with characters that stress the serializers but stay legal.
    "[a-z][a-z0-9_./-]{0,20}".prop_map(|s| Iri::new(format!("urn:t:{s}")))
}

pub fn arb_blank() -> impl Strategy<Value = BlankNode> {
    "[A-Za-z][A-Za-z0-9_-]{0,8}".prop_map(BlankNode::new)
}

pub fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Plain strings including escapes and unicode.
        "[ -~\\n\\t\u{e9}\u{4e9c}]{0,24}".prop_map(Literal::plain),
        any::<i64>().prop_map(Literal::integer),
        any::<bool>().prop_map(Literal::boolean),
        (-1e9f64..1e9f64).prop_map(Literal::double),
        ("[a-z ]{0,10}", "[a-z]{2,3}")
            .prop_map(|(s, l)| Literal::lang_tagged(s, l)),
    ]
}

pub fn arb_subject() -> impl Strategy<Value = Subject> {
    prop_oneof![
        4 => arb_iri().prop_map(Subject::Iri),
        1 => arb_blank().prop_map(Subject::Blank),
    ]
}

pub fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => arb_iri().prop_map(Term::Iri),
        1 => arb_blank().prop_map(Term::Blank),
        3 => arb_literal().prop_map(Term::Literal),
    ]
}

pub fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_subject(), arb_iri(), arb_term()).prop_map(|(s, p, o)| Triple {
        subject: s,
        predicate: p,
        object: o,
    })
}

pub fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec(arb_triple(), 0..60).prop_map(|ts| ts.into_iter().collect())
}

/// IRIs where a writer could go wrong: strict prefixes of one another,
/// `rdf:type` (spelled `a` only as a predicate), names a bound namespace
/// covers and can compact, names it covers and cannot (empty local part, a
/// slash, a dot at either end, a non-ASCII letter), nested and doubly bound
/// bases of [`tricky_namespaces`], and one no prefix table knows.
pub fn tricky_iri() -> impl Strategy<Value = Iri> {
    let fixed = [
        ns::RDF_TYPE.to_string(),
        ns::XSD_INTEGER.to_string(),
        ns::PROV.to_string(),
        format!("{}used", ns::PROV),
        format!("{}used.by", ns::PROV),
        format!("{}a/b", ns::PROV),
        format!("{}.x", ns::PROV),
        format!("{}x.", ns::PROV),
        format!("{}\u{e9}", ns::PROV),
        format!("{}Dataset", ns::PROVIO),
        "http://x/leaf".to_string(),
        "http://x/deep/leaf".to_string(),
        "http://x/deep/".to_string(),
        "urn:provio:obj/file/a.h5".to_string(),
    ];
    prop_oneof![
        3 => (0..fixed.len()).prop_map(move |i| Iri::new(fixed[i].as_str())),
        2 => "a{1,4}".prop_map(|s| Iri::new(format!("urn:t:{s}"))),
        1 => arb_iri(),
    ]
}

pub fn tricky_blank() -> impl Strategy<Value = BlankNode> {
    prop_oneof![
        2 => "b1{0,1}0{0,2}".prop_map(BlankNode::new),
        1 => arb_blank(),
    ]
}

pub fn tricky_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        2 => "x{0,3}".prop_map(Literal::plain),
        // Every escaped character, the quote and the backslash included.
        2 => "[ -~\\n\\t\\r\u{e9}]{0,12}".prop_map(Literal::plain),
        2 => ("[0-9\"\\\\]{0,4}", tricky_iri()).prop_map(|(s, dt)| Literal::typed(s, dt)),
        1 => ("x{0,2}", "[a-z]{2,3}").prop_map(|(s, l)| Literal::lang_tagged(s, l)),
        1 => arb_literal(),
    ]
}

pub fn tricky_triple() -> impl Strategy<Value = Triple> {
    let subject = prop_oneof![
        3 => tricky_iri().prop_map(Subject::Iri),
        1 => tricky_blank().prop_map(Subject::Blank),
    ];
    let object = prop_oneof![
        3 => tricky_iri().prop_map(Term::Iri),
        1 => tricky_blank().prop_map(Term::Blank),
        3 => tricky_literal().prop_map(Term::Literal),
    ];
    (subject, tricky_iri(), object).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// The standard table, an empty one, or one with a base nested inside
/// another and two labels for one base.
pub fn tricky_namespaces() -> impl Strategy<Value = Namespaces> {
    (0u8..3).prop_map(|pick| match pick {
        0 => Namespaces::standard(),
        1 => Namespaces::empty(),
        _ => {
            let mut nss = Namespaces::standard();
            nss.bind("a", "http://x/");
            nss.bind("b", "http://x/deep/");
            nss.bind("z", "http://x/");
            nss
        }
    })
}

