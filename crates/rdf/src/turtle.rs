//! Turtle (Terse RDF Triple Language) serialization and parsing.
//!
//! The paper's prototype persists provenance "in the Turtle format directly
//! for simplicity" (§5). Our serializer produces deterministic, subject-
//! grouped documents (`s p1 o1 ; p2 o2a , o2b .`) with prefix compaction and
//! `a` for `rdf:type`; the parser accepts everything the serializer emits
//! plus the common Turtle forms used in hand-written fixtures (`@prefix`,
//! comments, bare numeric/boolean literals). Blank property lists `[...]`
//! and collections `(...)` are not supported — PROV-IO never produces them.
//! Terminals and terms are read by [`crate::lex`]; this module keeps the
//! statement structure.

use crate::lex::{Lexer, Token, TripleBufs};
use crate::namespace::{ns, Namespaces};
use crate::term::{self, Term};
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
    write(&graph.log(), graph.terms(), nss)
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

/// The grammar over [`Lexer`]'s tokens: prefix declarations and
/// `s p o (, o)* (; p o…)* .` statements.
struct Parser<'a> {
    lex: Lexer<'a>,
    nss: Namespaces,
    bufs: TripleBufs,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            lex: Lexer::new(src),
            nss: Namespaces::empty(),
            bufs: TripleBufs::default(),
        }
    }

    fn parse_document(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        loop {
            let prefix = match self.lex.peek()? {
                Token::Eof => return Ok(()),
                Token::LangTag("prefix") => true,
                Token::Word(w) => w.eq_ignore_ascii_case("prefix"),
                _ => false,
            };
            if prefix {
                self.lex.token()?;
                self.lex.prefix_binding(&mut self.nss)?;
                // SPARQL-style PREFIX has no trailing dot.
                self.lex.eat(".")?;
            } else {
                self.parse_statement(graph)?;
            }
        }
    }

    /// Terms are interned at the first object they belong to, subject
    /// before predicate before object — the order one `Graph::insert` per
    /// triple would intern them in — and the subject's id is kept for the
    /// statement, the predicate's for its objects.
    fn parse_statement(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        let subject = self.lex.subject(&self.nss, &mut self.bufs.subject)?;
        let mut s = None;
        loop {
            let predicate = self.lex.predicate(&self.nss, &mut self.bufs.predicate)?;
            let mut p = None;
            loop {
                let object = self.lex.term(&self.nss, "object", &mut self.bufs.object)?;
                let s = *s.get_or_insert_with(|| graph.intern_view(subject));
                let p = *p.get_or_insert_with(|| graph.intern_view(predicate));
                let o = graph.intern_view(object);
                graph.insert_ids(s, p, o);
                if !self.lex.eat(",")? {
                    break;
                }
            }
            if self.lex.eat(";")? {
                // Permit trailing `;` before `.` (common in the wild).
                if self.lex.eat(".")? {
                    return Ok(());
                }
            } else if self.lex.eat(".")? {
                return Ok(());
            } else {
                let other = self.lex.token()?;
                return Err(self.lex.error(format!("expected ';' or '.', got {other:?}")));
            }
        }
    }
}

/// Parse a Turtle document into a new graph. Returns the graph and the
/// prefix table declared by the document.
pub fn parse(src: &str) -> Result<(Graph, Namespaces), ParseError> {
    let mut graph = Graph::new();
    let nss = parse_into(src, &mut graph)?;
    Ok((graph, nss))
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
    use crate::term::{Iri, Literal, Subject};
    use crate::triple::Triple;

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
