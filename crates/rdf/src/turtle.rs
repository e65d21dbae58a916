//! Turtle (Terse RDF Triple Language) serialization and parsing.
//!
//! The paper's prototype persists provenance "in the Turtle format directly
//! for simplicity" (§5). Our serializer produces deterministic, subject-
//! grouped documents (`s p1 o1 ; p2 o2a , o2b .`) with prefix compaction and
//! `a` for `rdf:type`; the parser accepts everything the serializer emits
//! plus the common Turtle forms used in hand-written fixtures (`@prefix`,
//! comments, bare numeric/boolean literals). Blank property lists `[...]`
//! and collections `(...)` are not supported — PROV-IO never produces them.

use crate::namespace::{ns, Namespaces};
use crate::term::{self, unescape_literal, BlankNode, Iri, Literal, Subject, Term};
use crate::triple::Triple;
use crate::{Capture, Graph, ParseError};

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

/// Serialize `graph` as Turtle using `nss` for prefix compaction.
///
/// Output is deterministic: prefixes, subjects, predicates and objects are
/// each emitted in sorted order, so identical graphs always serialize to
/// identical bytes (important for provenance-size measurements).
pub fn serialize(graph: &Graph, nss: &Namespaces) -> String {
    write(graph.ids_from(0), graph.terms(), nss)
}

/// [`serialize`] over a [`Capture`] — what a store renders after it has
/// released the graph.
pub fn serialize_capture(capture: &Capture, nss: &Namespaces) -> String {
    write(&capture.ids, &capture.terms, nss)
}

/// The document of the triples `ids`, each id an index into `terms`.
///
/// Works on ids and a handful of buffers: every term is spelled once into
/// an arena indexed by term id, subjects are grouped by a counting sort of
/// the ids, only the subjects and each subject's handful of (predicate,
/// object) pairs are ordered by comparing terms, and the statements are
/// pushed straight into the output.
fn write(ids: &[(u32, u32, u32)], terms: &[Term], nss: &Namespaces) -> String {
    let spelled = Spellings::new(terms, nss);
    let rdf_type = terms
        .iter()
        .position(|t| matches!(t, Term::Iri(i) if i.as_str() == ns::RDF_TYPE));

    // Group the (predicate, object) pairs by subject: `runs[s]..runs[s + 1]`
    // of `pairs` belong to subject `s`.
    let mut runs = vec![0usize; terms.len() + 1];
    for &(s, _, _) in ids {
        runs[s as usize + 1] += 1;
    }
    for s in 0..terms.len() {
        runs[s + 1] += runs[s];
    }
    let mut pairs = vec![(0u32, 0u32); ids.len()];
    let mut next = runs.clone();
    for &(s, p, o) in ids {
        pairs[next[s as usize]] = (p, o);
        next[s as usize] += 1;
    }
    // Subjects in term order (IRIs before blanks, each lexicographic).
    let mut subjects: Vec<usize> = (0..terms.len()).filter(|&s| runs[s] < runs[s + 1]).collect();
    subjects.sort_unstable_by(|&a, &b| terms[a].cmp(&terms[b]));

    let mut out = String::with_capacity(ids.len() * 48 + 256);
    for (prefix, iri) in nss.iter() {
        out.extend(["@prefix ", prefix, ": <", iri, "> .\n"]);
    }
    if !nss.is_empty() {
        out.push('\n');
    }
    for s in subjects {
        let pairs = &mut pairs[runs[s]..runs[s + 1]];
        // Distinct ids are distinct terms, so equal predicates are equal ids.
        pairs.sort_unstable_by(|a, b| {
            let (a, b) = if a.0 == b.0 { (a.1, b.1) } else { (a.0, b.0) };
            terms[a as usize].cmp(&terms[b as usize])
        });
        out.push_str(spelled.of(s as u32));
        let mut rest = &*pairs;
        let mut indent = " ";
        while let Some(&(p, _)) = rest.first() {
            let (objects, tail) = rest.split_at(rest.partition_point(|t| t.0 == p));
            out.push_str(indent);
            out.push_str(if Some(p as usize) == rdf_type { "a" } else { spelled.of(p) });
            for (n, &(_, o)) in objects.iter().enumerate() {
                out.push_str(if n == 0 { " " } else { " , " });
                out.push_str(spelled.of(o));
            }
            out.push_str(if tail.is_empty() { " .\n" } else { " ;\n" });
            indent = "    ";
            rest = tail;
        }
    }
    out
}

/// The Turtle spelling of every term of a table as a subject or object (a
/// predicate differs only in `rdf:type`, written `a`), back to back in one
/// buffer: `of(id)` is the slice between two recorded offsets.
struct Spellings {
    arena: String,
    /// `starts[id]..starts[id + 1]` spans term `id`.
    starts: Vec<usize>,
}

impl Spellings {
    fn new(terms: &[Term], nss: &Namespaces) -> Spellings {
        let mut arena = String::with_capacity(terms.len() * 32);
        let mut starts = Vec::with_capacity(terms.len() + 1);
        for t in terms {
            starts.push(arena.len());
            term::push_term(&mut arena, t, |out, iri| match nss.split(iri.as_str()) {
                Some((prefix, local)) => out.extend([prefix, ":", local]),
                None => out.extend(["<", iri.as_str(), ">"]),
            });
        }
        starts.push(arena.len());
        Spellings { arena, starts }
    }

    fn of(&self, id: u32) -> &str {
        &self.arena[self.starts[id as usize]..self.starts[id as usize + 1]]
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Iri(String),
    PName(String),   // prefix:local (including bare "p:")
    Blank(String),   // _:label
    Str(String),     // unescaped literal body
    LangTag(String), // @lang
    Number(String),
    Bool(bool),
    A,
    PrefixDecl, // @prefix or PREFIX
    DoubleCaret,
    Semi,
    Comma,
    Dot,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, msg)
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek_byte() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while let Some(b) = self.peek_byte() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn next_tok(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        let Some(b) = self.peek_byte() else {
            return Ok(Tok::Eof);
        };
        match b {
            b'<' => {
                self.bump();
                let start = self.pos;
                while let Some(b) = self.peek_byte() {
                    if b == b'>' {
                        let iri = std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in IRI"))?
                            .to_string();
                        self.bump();
                        return Ok(Tok::Iri(iri));
                    }
                    self.bump();
                }
                Err(self.err("unterminated IRI"))
            }
            b'"' => {
                self.bump();
                let mut raw = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated string literal")),
                        Some(b'"') => break,
                        Some(b'\\') => {
                            raw.push('\\');
                            match self.bump() {
                                None => return Err(self.err("unterminated escape")),
                                Some(c) => raw.push(c as char),
                            }
                        }
                        Some(c) => {
                            // Collect raw bytes; re-validate as UTF-8 below.
                            raw.push(c as char);
                        }
                    }
                }
                // `raw` was built byte-by-byte; rebuild multi-byte UTF-8.
                let bytes: Vec<u8> = raw.chars().map(|c| c as u32 as u8).collect();
                let s = String::from_utf8(bytes)
                    .map_err(|_| self.err("invalid UTF-8 in literal"))?;
                let unescaped =
                    unescape_literal(&s).ok_or_else(|| self.err("bad escape sequence"))?;
                Ok(Tok::Str(unescaped))
            }
            b'_' => {
                self.bump();
                if self.bump() != Some(b':') {
                    return Err(self.err("expected ':' after '_'"));
                }
                let start = self.pos;
                while let Some(b) = self.peek_byte() {
                    if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let label = std::str::from_utf8(&self.src[start..self.pos])
                    .unwrap()
                    .trim_end_matches('.')
                    .to_string();
                // If we consumed a trailing '.', give it back as the
                // statement terminator.
                while self.src[..self.pos].ends_with(b".") && self.pos > start {
                    self.pos -= 1;
                }
                if label.is_empty() {
                    return Err(self.err("empty blank node label"));
                }
                Ok(Tok::Blank(label))
            }
            b'@' => {
                self.bump();
                let start = self.pos;
                while let Some(b) = self.peek_byte() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let word = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                if word == "prefix" {
                    Ok(Tok::PrefixDecl)
                } else if word.is_empty() {
                    Err(self.err("empty language tag"))
                } else {
                    Ok(Tok::LangTag(word.to_string()))
                }
            }
            b'^' => {
                self.bump();
                if self.bump() != Some(b'^') {
                    return Err(self.err("expected '^^'"));
                }
                Ok(Tok::DoubleCaret)
            }
            b';' => {
                self.bump();
                Ok(Tok::Semi)
            }
            b',' => {
                self.bump();
                Ok(Tok::Comma)
            }
            b'.' => {
                self.bump();
                Ok(Tok::Dot)
            }
            b'+' | b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.bump();
                while let Some(b) = self.peek_byte() {
                    if b.is_ascii_digit()
                        || b == b'e'
                        || b == b'E'
                        || b == b'+'
                        || b == b'-'
                        || (b == b'.'
                            && self
                                .src
                                .get(self.pos + 1)
                                .is_some_and(|c| c.is_ascii_digit()))
                    {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                Ok(Tok::Number(text.to_string()))
            }
            _ => {
                // PNAME, `a`, `true`/`false`, or SPARQL-style PREFIX.
                let start = self.pos;
                while let Some(b) = self.peek_byte() {
                    if b.is_ascii_alphanumeric()
                        || b == b'_'
                        || b == b'-'
                        || b == b':'
                        || b == b'%'
                        || (b == b'.'
                            && self.src.get(self.pos + 1).is_some_and(|&c| {
                                c.is_ascii_alphanumeric() || c == b'_' || c == b'-'
                            }))
                    {
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err(format!("unexpected character '{}'", b as char)));
                }
                let word = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?;
                match word {
                    "a" => Ok(Tok::A),
                    "true" => Ok(Tok::Bool(true)),
                    "false" => Ok(Tok::Bool(false)),
                    w if w.eq_ignore_ascii_case("prefix") => Ok(Tok::PrefixDecl),
                    w if w.contains(':') => Ok(Tok::PName(w.to_string())),
                    w => Err(self.err(format!("unexpected token '{w}'"))),
                }
            }
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Tok>,
    nss: Namespaces,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(src),
            peeked: None,
            nss: Namespaces::empty(),
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        match self.peeked.take() {
            Some(t) => Ok(t),
            None => self.lexer.next_tok(),
        }
    }

    fn peek(&mut self) -> Result<&Tok, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_tok()?);
        }
        Ok(self.peeked.as_ref().unwrap())
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.lexer.line, msg)
    }

    fn resolve_pname(&self, pname: &str) -> Result<Iri, ParseError> {
        self.nss
            .expand(pname)
            .ok_or_else(|| self.err(format!("unknown prefix in '{pname}'")))
    }

    fn parse_document(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        loop {
            match self.peek()? {
                Tok::Eof => return Ok(()),
                Tok::PrefixDecl => {
                    self.next()?;
                    let Tok::PName(pname) = self.next()? else {
                        return Err(self.err("expected prefix name after @prefix"));
                    };
                    let prefix = pname
                        .strip_suffix(':')
                        .ok_or_else(|| self.err("prefix must end with ':'"))?
                        .to_string();
                    let Tok::Iri(iri) = self.next()? else {
                        return Err(self.err("expected IRI in @prefix"));
                    };
                    // SPARQL-style PREFIX has no trailing dot.
                    if matches!(self.peek()?, Tok::Dot) {
                        self.next()?;
                    }
                    self.nss.bind(prefix, iri);
                }
                _ => self.parse_statement(graph)?,
            }
        }
    }

    fn parse_subject(&mut self) -> Result<Subject, ParseError> {
        match self.next()? {
            Tok::Iri(i) => Ok(Subject::Iri(Iri::new(i))),
            Tok::PName(p) => Ok(Subject::Iri(self.resolve_pname(&p)?)),
            Tok::Blank(b) => Ok(Subject::Blank(BlankNode::new(b))),
            other => Err(self.err(format!("expected subject, got {other:?}"))),
        }
    }

    fn parse_predicate(&mut self) -> Result<Iri, ParseError> {
        match self.next()? {
            Tok::A => Ok(Iri::new(ns::RDF_TYPE)),
            Tok::Iri(i) => Ok(Iri::new(i)),
            Tok::PName(p) => self.resolve_pname(&p),
            other => Err(self.err(format!("expected predicate, got {other:?}"))),
        }
    }

    fn parse_object(&mut self) -> Result<Term, ParseError> {
        match self.next()? {
            Tok::Iri(i) => Ok(Term::iri(i)),
            Tok::PName(p) => Ok(Term::Iri(self.resolve_pname(&p)?)),
            Tok::Blank(b) => Ok(Term::Blank(BlankNode::new(b))),
            Tok::Bool(b) => Ok(Term::Literal(Literal::boolean(b))),
            Tok::Number(n) => {
                let dt = if n.contains('.') || n.contains('e') || n.contains('E') {
                    ns::XSD_DOUBLE
                } else {
                    ns::XSD_INTEGER
                };
                Ok(Term::Literal(Literal::typed(n, Iri::new(dt))))
            }
            Tok::Str(body) => match self.peek()? {
                Tok::DoubleCaret => {
                    self.next()?;
                    let dt = match self.next()? {
                        Tok::Iri(i) => Iri::new(i),
                        Tok::PName(p) => self.resolve_pname(&p)?,
                        other => {
                            return Err(self.err(format!("expected datatype, got {other:?}")))
                        }
                    };
                    Ok(Term::Literal(Literal::typed(body, dt)))
                }
                Tok::LangTag(_) => {
                    let Tok::LangTag(lang) = self.next()? else {
                        unreachable!()
                    };
                    Ok(Term::Literal(Literal::lang_tagged(body, lang)))
                }
                _ => Ok(Term::Literal(Literal::plain(body))),
            },
            other => Err(self.err(format!("expected object, got {other:?}"))),
        }
    }

    fn parse_statement(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        let subject = self.parse_subject()?;
        loop {
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_object()?;
                graph.insert(&Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                match self.peek()? {
                    Tok::Comma => {
                        self.next()?;
                    }
                    _ => break,
                }
            }
            match self.next()? {
                Tok::Semi => {
                    // Permit trailing `;` before `.` (common in the wild).
                    if matches!(self.peek()?, Tok::Dot) {
                        self.next()?;
                        return Ok(());
                    }
                }
                Tok::Dot => return Ok(()),
                other => {
                    return Err(self.err(format!("expected ';' or '.', got {other:?}")));
                }
            }
        }
    }
}

/// Parse a Turtle document into a new graph. Returns the graph and the
/// prefix table declared by the document.
pub fn parse(src: &str) -> Result<(Graph, Namespaces), ParseError> {
    let mut graph = Graph::new();
    let mut p = Parser::new(src);
    p.parse_document(&mut graph)?;
    Ok((graph, p.nss))
}

/// Parse a Turtle document, merging its triples into `graph`.
pub fn parse_into(src: &str, graph: &mut Graph) -> Result<Namespaces, ParseError> {
    let mut p = Parser::new(src);
    p.parse_document(graph)?;
    Ok(p.nss)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let s = Subject::iri(format!("{}ds1", ns::RESOURCE));
        g.insert(&Triple::new(
            s.clone(),
            Iri::new(ns::RDF_TYPE),
            Term::iri(format!("{}Dataset", ns::PROVIO)),
        ));
        g.insert(&Triple::new(
            s.clone(),
            Iri::new(format!("{}wasReadBy", ns::PROVIO)),
            Term::iri(format!("{}read-42", ns::RESOURCE)),
        ));
        g.insert(&Triple::new(
            s,
            Iri::new(ns::RDFS_LABEL),
            Literal::plain("/Timestep_0/x"),
        ));
        g
    }

    #[test]
    fn serialize_groups_by_subject() {
        let ttl = serialize(&sample_graph(), &Namespaces::standard());
        assert!(ttl.contains("@prefix provio:"));
        assert!(ttl.contains(" a provio:Dataset"));
        // One subject → exactly one terminating line block.
        assert_eq!(ttl.matches("urn:provio:ds1").count(), 1);
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample_graph();
        let ttl = serialize(&g, &Namespaces::standard());
        let (g2, _) = parse(&ttl).unwrap();
        assert_eq!(g.len(), g2.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn parse_hand_written_forms() {
        let src = r#"
            @prefix ex: <http://example.org/> .
            # a comment
            ex:a ex:p ex:b , ex:c ;
                 ex:q "lit" ;
                 ex:n 42 ;
                 ex:d 1.5 ;
                 ex:t true ;
                 a ex:Thing .
            _:b0 ex:p "tagged"@en .
            <http://example.org/x> <http://example.org/y> "typed"^^ex:dt .
        "#;
        let (g, nss) = parse(src).unwrap();
        assert_eq!(nss.expand_prefix("ex"), Some("http://example.org/"));
        assert_eq!(g.len(), 9);
        let objs = g.objects(
            &Subject::iri("http://example.org/a"),
            &Iri::new("http://example.org/n"),
        );
        assert_eq!(objs[0].as_literal().unwrap().as_i64(), Some(42));
    }

    #[test]
    fn parse_rejects_unknown_prefix() {
        let err = parse("zzz:a zzz:b zzz:c .").unwrap_err();
        assert!(err.message.contains("unknown prefix"));
    }

    #[test]
    fn parse_rejects_unterminated_iri() {
        assert!(parse("<http://unterminated").is_err());
    }

    #[test]
    fn parse_rejects_literal_subject() {
        assert!(parse("\"lit\" <urn:p> <urn:o> .").is_err());
    }

    #[test]
    fn escapes_round_trip_through_document() {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Subject::iri("urn:s"),
            Iri::new("urn:p"),
            Literal::plain("line1\nline2\t\"quoted\" back\\slash"),
        ));
        let ttl = serialize(&g, &Namespaces::standard());
        let (g2, _) = parse(&ttl).unwrap();
        let objs = g2.objects(&Subject::iri("urn:s"), &Iri::new("urn:p"));
        assert_eq!(
            objs[0].as_literal().unwrap().lexical(),
            "line1\nline2\t\"quoted\" back\\slash"
        );
    }

    #[test]
    fn serialization_is_deterministic() {
        let g = sample_graph();
        let a = serialize(&g, &Namespaces::standard());
        let b = serialize(&g, &Namespaces::standard());
        assert_eq!(a, b);
        // Insertion order must not matter.
        let mut g2 = Graph::new();
        let mut ts: Vec<Triple> = g.iter().collect();
        ts.reverse();
        for t in &ts {
            g2.insert(t);
        }
        assert_eq!(a, serialize(&g2, &Namespaces::standard()));
    }

    #[test]
    fn trailing_semicolon_tolerated() {
        let src = "@prefix ex: <http://e/> . ex:a ex:p ex:b ; .";
        let (g, _) = parse(src).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn blank_label_before_dot_not_swallowed() {
        let src = "@prefix ex: <http://e/> . ex:a ex:p _:b1 . ex:c ex:p _:b1 .";
        let (g, _) = parse(src).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn unicode_literals_survive() {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Subject::iri("urn:s"),
            Iri::new("urn:p"),
            Literal::plain("WestSac—亚洲 données ✓"),
        ));
        let ttl = serialize(&g, &Namespaces::standard());
        let (g2, _) = parse(&ttl).unwrap();
        let objs = g2.objects(&Subject::iri("urn:s"), &Iri::new("urn:p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "WestSac—亚洲 données ✓");
    }
}
