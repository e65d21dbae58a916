//! `Query::parse` takes text from outside the program: whatever the bytes,
//! it answers `Ok` or `Err` and never panics.

use proptest::prelude::*;
use provio_rdf::lex::{Lexer, Token};
use provio_sparql::Query;

/// Valid queries that between them use every token kind.
const CORPUS: [&str; 5] = [
    "PREFIX ex: <urn:ex#>\nSELECT DISTINCT ?a (COUNT(DISTINCT ?b) AS ?n) WHERE {\n\
     ?a a ex:T ; (ex:p)+ ?b , \"x\" .\n  ?a ^ex:r/<urn:s>* ?c .\n\
     FILTER(?c >= 3 && (!(?c = 7.5) || REGEX(?b, \"^u\")) && STRSTARTS(?b, \"u\") && BOUND(?a))\n\
     } GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT 5 OFFSET 1\n",
    "SELECT ?o WHERE { <urn:provio:obj/file/a.h5> (provio:wasReadBy|provio:wasOpenedBy) ?o . }",
    "SELECT * WHERE { ?x <urn:l> \"q\\\"\\n\\u00e9\"^^xsd:string ; <urn:m> -2.5e3 , true . } # tail",
    "SELECT ?a ?d WHERE { ?a a provio:Write ; provio:elapsed ?d . FILTER(?d < 1000 || ?d != 7) }",
    "SELECT ?x WHERE { ?x (<urn:a>/^<urn:b>)*|<urn:c>+ ?y . FILTER(CONTAINS(?y, \"é\")) }",
];

/// Bytes the grammar gives a meaning to: the ends of IRIs and literals,
/// escapes, path and comparison operators, brackets.
const MARKS: &[u8] = b"<>\"\\^/|+*()!&=?{}.;,#:-";

fn parse_lossy(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Query::parse(&text);
    // The lexer under it, past the point where the grammar gave up.
    let mut lex = Lexer::new(&text);
    let mut tokens = 0;
    while !matches!(lex.token(), Ok(Token::Eof) | Err(_)) {
        tokens += 1;
        assert!(tokens <= text.len(), "the lexer stopped advancing");
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(
        text in "[ -~\\n\\t]{0,120}",
        bytes in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        parse_lossy(text.as_bytes());
        parse_lossy(&bytes);
    }

    #[test]
    fn mutated_queries_never_panic(
        pick in any::<prop::sample::Index>(),
        edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..4), 1..6),
    ) {
        let query = CORPUS[pick.index(CORPUS.len())];
        prop_assert!(Query::parse(query).is_ok(), "{:?}", Query::parse(query).err());
        let mut data = query.as_bytes().to_vec();
        for (at, byte, kind) in edits {
            if data.is_empty() {
                break;
            }
            let at = at.index(data.len());
            match kind {
                // Truncate, flip one byte anywhere, …
                0 => data.truncate(at),
                1 => data[at] = byte,
                // … or flip the next byte the grammar cares about (inside an
                // IRI, a literal, a path), or plant one.
                2 => {
                    let mark = (at..data.len()).find(|&i| MARKS.contains(&data[i])).unwrap_or(at);
                    data[mark] = byte;
                }
                _ => data[at] = MARKS[byte as usize % MARKS.len()],
            }
            parse_lossy(&data);
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for (open, close) in [("(", ")"), ("!", ""), ("!(", ")")] {
        let filter = format!(
            "SELECT ?x WHERE {{ ?x <urn:p> ?y . FILTER({}?y{}) }}",
            open.repeat(200_000),
            close.repeat(200_000)
        );
        assert!(Query::parse(&filter).is_err());
    }
    let path = format!(
        "SELECT ?x WHERE {{ ?x {}<urn:p>{} ?y . }}",
        "(".repeat(200_000),
        ")".repeat(200_000)
    );
    assert!(Query::parse(&path).is_err());
    // Operator chains nest too: the tree leans left, one level an operand.
    for (operand, link) in [("?y", " || "), ("?y", " && ")] {
        let chain = vec![operand; 200_000].join(link);
        let query = format!("SELECT ?x WHERE {{ ?x <urn:p> ?y . FILTER({chain}) }}");
        assert!(Query::parse(&query).is_err());
    }
    for link in ["/", "|"] {
        let chain = vec!["<urn:p>"; 200_000].join(link);
        assert!(Query::parse(&format!("SELECT ?x WHERE {{ ?x {chain} ?y . }}")).is_err());
    }
    // What people write is fine.
    let chain = vec!["?y = 1"; 40].join(" || ");
    let query = format!(
        "SELECT ?x WHERE {{ ?x ((<urn:p>))/<urn:q>|<urn:r> ?y . FILTER(!((?y = 1)) && ({chain})) }}"
    );
    assert!(Query::parse(&query).is_ok());
}
