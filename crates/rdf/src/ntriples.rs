//! N-Triples serialization and parsing (one triple per line, no prefixes).
//!
//! Redland supports several on-disk formats; PROV-IO's prototype uses Turtle
//! but the store is format-pluggable (§5), so we provide N-Triples as the
//! second format and use it for line-oriented streaming in tests. Terms
//! are read by [`crate::lex`], one lexer per line.

use crate::lex::{Lexer, Token, TripleBufs};
use crate::namespace::Namespaces;
use crate::term::{self, Term};
use crate::{Graph, ParseError, TermId};

/// Serialize `graph` as N-Triples. Lines are sorted for determinism.
pub fn serialize(graph: &Graph) -> String {
    sorted_block(&graph.log(), |id| &graph.terms()[id as usize])
}

/// The id slice as sorted N-Triples, one newline-terminated block — an
/// unframed snapshot or delta segment, byte for byte.
pub fn sorted_block<'a>(
    ids: &[(u32, u32, u32)],
    term_of: impl Fn(u32) -> &'a Term,
) -> String {
    let rendered = lines(ids, term_of);
    let mut block = String::with_capacity(rendered.block.len());
    for line in rendered.sorted() {
        block.extend([line, "\n"]);
    }
    block
}

/// The sorted N-Triples lines of the whole graph, without trailing
/// newlines: joining them with `'\n'` (plus a final one) reproduces
/// [`serialize`] byte for byte.
pub fn sorted_graph_lines(graph: &Graph) -> Vec<String> {
    sorted_id_lines(&graph.log(), |id| &graph.terms()[id as usize])
}

/// The delta-segment variant of [`sorted_graph_lines`]: sorted lines for an
/// id slice resolved through `term_of`.
pub fn sorted_id_lines<'a>(
    ids: &[(u32, u32, u32)],
    term_of: impl Fn(u32) -> &'a Term,
) -> Vec<String> {
    lines(ids, term_of).sorted().into_iter().map(String::from).collect()
}

/// Insertion-ordered N-Triples records for an id slice, rendered into one
/// newline-terminated block. This is the write-ahead journal's record
/// format: a record's position *is* its ordinal, so the lines must not be
/// reordered — and the journal sits on the track path, so every term is
/// spelled straight into the block: no table of spellings, no `String` per
/// record.
pub fn id_block<'a>(
    ids: &[(u32, u32, u32)],
    term_of: impl Fn(u32) -> &'a Term,
) -> String {
    write_block(ids, term_of, |_| ())
}

/// An id slice rendered as [`id_block`] renders it, with the line
/// boundaries kept: the lines can be handed out in sorted order as slices
/// of the one block, which is how the store frames a snapshot or a delta
/// segment without a `String` per line.
pub struct Lines {
    block: String,
    /// Offset just past each line's `'\n'`.
    ends: Vec<usize>,
}

/// Render `ids` into [`Lines`], resolving ids through `term_of`.
pub fn lines<'a>(ids: &[(u32, u32, u32)], term_of: impl Fn(u32) -> &'a Term) -> Lines {
    let mut ends = Vec::with_capacity(ids.len());
    let block = write_block(ids, term_of, |end| ends.push(end));
    Lines { block, ends }
}

impl Lines {
    /// The lines in byte order, without their newlines.
    pub fn sorted(&self) -> Vec<&str> {
        let mut start = 0;
        let mut lines: Vec<&str> = self
            .ends
            .iter()
            .map(|&end| {
                let line = &self.block[start..end - 1];
                start = end;
                line
            })
            .collect();
        lines.sort_unstable();
        lines
    }
}

/// Bytes reserved per line before the first one is rendered; a provenance
/// triple spelled with full IRIs runs to about 126.
const LINE_BYTES_GUESS: usize = 128;

fn write_block<'a>(
    ids: &[(u32, u32, u32)],
    term_of: impl Fn(u32) -> &'a Term,
    mut line_end: impl FnMut(usize),
) -> String {
    let mut block = String::with_capacity(ids.len() * LINE_BYTES_GUESS);
    for &(s, p, o) in ids {
        push_term(&mut block, term_of(s));
        block.push(' ');
        push_term(&mut block, term_of(p));
        block.push(' ');
        push_term(&mut block, term_of(o));
        block.push_str(" .\n");
        line_end(block.len());
    }
    block
}

/// Append a term's N-Triples spelling (any position: N-Triples spells a
/// term identically as subject, predicate, or object).
fn push_term(out: &mut String, t: &Term) {
    term::push_term(out, t, |out, iri| out.extend(["<", iri.as_str(), ">"]));
}

/// A term's N-Triples spelling (any position).
pub fn render_term(t: &Term) -> String {
    let mut out = String::new();
    push_term(&mut out, t);
    out
}

/// Parse an N-Triples document into a new graph.
pub fn parse(src: &str) -> Result<Graph, ParseError> {
    let mut g = Graph::new();
    parse_into(src, &mut g)?;
    Ok(g)
}

/// Parse the longest valid prefix of a (possibly torn) N-Triples document
/// into `graph`, returning how many triples were recovered. Parsing stops
/// at the first malformed line, so a torn tail can only drop data, never
/// contribute garbage — the salvage primitive used by the post-run merge.
pub fn parse_lenient_prefix(src: &str, graph: &mut Graph) -> usize {
    let mut reader = Reader::new();
    let mut recovered = 0;
    for line in src.lines() {
        match reader.line(line, graph) {
            Ok(triples) => recovered += triples,
            Err(_) => break,
        }
    }
    recovered
}

/// Parse an N-Triples document, merging into `graph`.
pub fn parse_into(src: &str, graph: &mut Graph) -> Result<(), ParseError> {
    let mut reader = Reader::new();
    for (lineno, line) in src.lines().enumerate() {
        // The lexer saw one line; the error names its place in the document.
        reader
            .line(line, graph)
            .map_err(|e| ParseError::new(lineno + 1, e.message))?;
    }
    Ok(())
}

/// What the lines of one document share.
struct Reader {
    /// No prefix is ever bound, so a prefixed name never resolves.
    none: Namespaces,
    bufs: TripleBufs,
    /// The id of the last line's subject.
    subject: Option<TermId>,
}

impl Reader {
    fn new() -> Reader {
        Reader {
            none: Namespaces::empty(),
            bufs: TripleBufs::default(),
            subject: None,
        }
    }

    /// Insert the triple on `line` and count it: 1, or 0 for a line of
    /// blanks or a comment. One line, one triple: a term cannot continue on
    /// the next, and an object is spelled in full — no bare number, no
    /// `true`. Nothing is interned before the terminating `.` has been
    /// read; then subject, predicate and object, in that order.
    fn line(&mut self, line: &str, graph: &mut Graph) -> Result<usize, ParseError> {
        let mut lex = Lexer::new(line);
        if *lex.peek()? == Token::Eof {
            return Ok(0);
        }
        let subject = lex.subject(&self.none, &mut self.bufs.subject)?;
        let predicate = lex.iri(&self.none, "predicate IRI", &mut self.bufs.predicate)?;
        if matches!(lex.peek()?, Token::Number(_) | Token::Word(_)) {
            return Err(lex.error("expected object term"));
        }
        let object = lex.term(&self.none, "object term", &mut self.bufs.object)?;
        if !lex.eat(".")? || *lex.peek()? != Token::Eof {
            return Err(lex.error("expected terminating '.'"));
        }
        // Sorted lines repeat a subject: a view that matches the last one's
        // term has its id, found without hashing.
        let s = match self.subject {
            Some(s) if subject.matches(graph.term(s)) => s,
            _ => graph.intern_view(subject),
        };
        self.subject = Some(s);
        let p = graph.intern_view(predicate);
        let o = graph.intern_view(object);
        graph.insert_ids(s, p, o);
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::ns;
    use crate::term::{BlankNode, Iri, Literal, Subject};
    use crate::triple::Triple;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Subject::iri("urn:s"),
            Iri::new(ns::RDF_TYPE),
            Term::iri(format!("{}File", ns::PROVIO)),
        ));
        g.insert(&Triple::new(
            Subject::iri("urn:s"),
            Iri::new(ns::RDFS_LABEL),
            Literal::plain("WestSac.h5"),
        ));
        g.insert(&Triple::new(
            BlankNode::new("b7"),
            Iri::new("urn:elapsed"),
            Literal::double(1.25),
        ));
        g.insert(&Triple::new(
            Subject::iri("urn:s"),
            Iri::new("urn:note"),
            Literal::lang_tagged("fichier", "fr"),
        ));
        g
    }

    #[test]
    fn round_trip() {
        let g = sample();
        let nt = serialize(&g);
        let g2 = parse(&nt).unwrap();
        assert_eq!(g.len(), g2.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn serialization_sorted_and_line_per_triple() {
        let nt = serialize(&sample());
        let lines: Vec<&str> = nt.lines().collect();
        assert_eq!(lines.len(), 4);
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        assert!(lines.iter().all(|l| l.ends_with(" .")));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let src = "\n# comment\n<urn:a> <urn:p> <urn:b> .\n\n";
        assert_eq!(parse(src).unwrap().len(), 1);
    }

    #[test]
    fn escaped_quote_inside_literal() {
        let src = r#"<urn:a> <urn:p> "say \"hi\"" ."#;
        let g = parse(src).unwrap();
        let objs = g.objects(&Subject::iri("urn:a"), &Iri::new("urn:p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "say \"hi\"");
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse("<urn:a> <urn:p> <urn:b>").is_err());
    }

    #[test]
    fn lenient_prefix_stops_at_torn_line() {
        let src = "<urn:a> <urn:p> <urn:b> .\n<urn:c> <urn:p> <urn:d> .\n<urn:e> <urn:p> \"tor";
        let mut g = Graph::new();
        assert_eq!(parse_lenient_prefix(src, &mut g), 2);
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::new(
            Subject::iri("urn:c"),
            Iri::new("urn:p"),
            Term::iri("urn:d"),
        )));
    }

    #[test]
    fn lenient_prefix_of_valid_doc_recovers_everything() {
        let nt = serialize(&sample());
        let mut g = Graph::new();
        assert_eq!(parse_lenient_prefix(&nt, &mut g), 4);
        assert_eq!(g.len(), sample().len());
    }

    #[test]
    fn rejects_garbage_after_dot_content() {
        assert!(parse("<urn:a> <urn:p> <urn:b> . extra").is_err());
    }

    #[test]
    fn parses_typed_and_lang_literals() {
        let src = concat!(
            "<urn:a> <urn:n> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<urn:a> <urn:l> \"hi\"@en-GB .\n",
        );
        let g = parse(src).unwrap();
        assert_eq!(g.len(), 2);
        let n = g.objects(&Subject::iri("urn:a"), &Iri::new("urn:n"));
        assert_eq!(n[0].as_literal().unwrap().as_i64(), Some(5));
        let l = g.objects(&Subject::iri("urn:a"), &Iri::new("urn:l"));
        assert_eq!(l[0].as_literal().unwrap().lang(), Some("en-GB"));
    }
}
