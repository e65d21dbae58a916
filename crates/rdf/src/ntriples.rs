//! N-Triples serialization and parsing (one triple per line, no prefixes).
//!
//! Redland supports several on-disk formats; PROV-IO's prototype uses Turtle
//! but the store is format-pluggable (§5), so we provide N-Triples as the
//! second format and use it for line-oriented streaming in tests.
//!
//! Each line is read alone. A line spelled exactly as [`push_term`] spells
//! a triple is read by byte search, its predicate resolved through a small
//! per-document table; any other line goes whole to [`crate::lex`], which
//! alone decides what is accepted and what each error says.

use crate::lex::{self, Lexer, Token, TripleBufs};
use crate::namespace::Namespaces;
use crate::term::{self, Term, TermView};
use crate::{Graph, ParseError, TermId};

/// Serialize `graph` as N-Triples. Lines are sorted for determinism.
pub fn serialize(graph: &Graph) -> String {
    sorted_block(&graph.log(), |id| &graph.terms()[id as usize])
}

/// The id slice as sorted N-Triples, one newline-terminated block — an
/// unframed snapshot or delta segment, byte for byte.
pub fn sorted_block<'a>(ids: &[(u32, u32, u32)], term_of: impl Fn(u32) -> &'a Term) -> String {
    let rendered = lines(ids, term_of);
    let mut block = String::with_capacity(rendered.block.len());
    block.extend(rendered.sorted().into_iter().flat_map(|line| [line, "\n"]));
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
pub fn sorted_id_lines<'a>(ids: &[(u32, u32, u32)], term_of: impl Fn(u32) -> &'a Term) -> Vec<String> {
    lines(ids, term_of).sorted().into_iter().map(String::from).collect()
}

/// Insertion-ordered N-Triples lines for an id slice, one newline-terminated
/// block: the block of [`lines`], without the line ends.
pub fn id_block<'a>(ids: &[(u32, u32, u32)], term_of: impl Fn(u32) -> &'a Term) -> String {
    write_block(ids, term_of, |_| ())
}

/// An id slice rendered into one newline-terminated block, every term
/// spelled straight into it, with the line boundaries kept: the lines are
/// handed out as slices of the block, in order or sorted, never as a
/// `String` each. This is the write-ahead journal's record format, in
/// insertion order (a record's position *is* its ordinal); the store sorts
/// the same lines for a segment. The block may move to another owner of
/// the same bytes ([`Lines::map_block`]): the journal keeps a committed
/// chunk's lines as a window on its frame.
#[derive(Clone, Default)]
pub struct Lines<B = String> {
    block: B,
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
        let mut lines: Vec<&str> = self.spans().map(|span| &self.block[span]).collect();
        lines.sort_unstable();
        lines
    }
}

impl<B: AsRef<[u8]>> Lines<B> {
    /// The newline-terminated block the lines sit in.
    pub fn block(&self) -> &B {
        &self.block
    }

    /// The lines in the order they were rendered, without their newlines.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.spans().map(|span| &self.block.as_ref()[span])
    }

    fn spans(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| start..end - 1)
    }

    /// The same lines over the block `f` makes of this one, which must
    /// hold the same bytes.
    pub fn map_block<C: AsRef<[u8]>>(self, f: impl FnOnce(B) -> C) -> Lines<C> {
        Lines { block: f(self.block), ends: self.ends }
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
pub fn push_term(out: &mut String, t: &Term) {
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
/// into `graph`, returning how many triples were recovered and whether the
/// whole document read (`false`: it stopped at a malformed line). Parsing
/// stops at the first malformed line, so a torn tail can only drop data,
/// never contribute garbage — the one pass the post-run merge reads an
/// N-Triples file with, whole or torn.
pub fn parse_lenient_prefix(src: &str, graph: &mut Graph) -> (usize, bool) {
    parse_lenient_lines([src], graph)
}

/// [`parse_lenient_prefix`] over a document held in pieces of whole lines:
/// the journal replay reads its records so, without joining them first.
pub fn parse_lenient_lines<'a>(
    pieces: impl IntoIterator<Item = &'a str>,
    graph: &mut Graph,
) -> (usize, bool) {
    let mut reader = Reader::default();
    let mut recovered = 0;
    for mut rest in pieces {
        while !rest.is_empty() {
            let Ok((triples, next)) = reader.line(rest, graph) else {
                return (recovered, false);
            };
            recovered += triples;
            rest = next;
        }
    }
    (recovered, true)
}

/// Parse an N-Triples document, merging into `graph`.
pub fn parse_into(src: &str, graph: &mut Graph) -> Result<(), ParseError> {
    let mut reader = Reader::default();
    let (mut rest, mut lineno) = (src, 0);
    while !rest.is_empty() {
        lineno += 1;
        // The lexer saw one line; the error names its place in the document.
        (_, rest) = reader
            .line(rest, graph)
            .map_err(|e| ParseError::new(lineno, e.message))?;
    }
    Ok(())
}

/// Slots in a reader's predicate table.
const PREDICATE_SLOTS: usize = 32;

/// What the lines of one document share.
#[derive(Default)]
struct Reader {
    bufs: TripleBufs,
    recent: Recent,
    /// The last subject [`written`] read, spelled with the space after it.
    spelled: String,
}

/// Ids that earlier lines of the document interned. A slot's id is taken
/// only once its term compares equal to the view at hand, so a hit hashes
/// no string, and a stale or colliding slot costs one comparison.
#[derive(Default)]
struct Recent {
    /// The last line's subject: sorted lines repeat one.
    subject: Option<TermId>,
    /// Predicates, direct-mapped on an IRI's length and last byte: a
    /// document names few, but sorted lines change predicate on every line.
    predicates: [Option<TermId>; PREDICATE_SLOTS],
}

impl Recent {
    /// Intern a line's subject, predicate and object, in that order, and
    /// insert its triple.
    fn insert(
        &mut self,
        graph: &mut Graph,
        subject: TermView<'_>,
        predicate: &str,
        object: TermView<'_>,
    ) {
        let s = reuse(&mut self.subject, subject, graph);
        let last = usize::from(predicate.bytes().last().unwrap_or(0));
        let slot = &mut self.predicates[(predicate.len() * 7 + last) % PREDICATE_SLOTS];
        let p = reuse(slot, TermView::Iri(predicate), graph);
        let o = graph.intern_view(object);
        graph.insert_ids(s, p, o);
    }
}

/// The id in `slot` if its term is `v`, else `v` interned; `slot` keeps it.
fn reuse(slot: &mut Option<TermId>, v: TermView<'_>, graph: &mut Graph) -> TermId {
    let id = match *slot {
        Some(id) if v.matches(graph.term(id)) => id,
        _ => graph.intern_view(v),
    };
    *slot = Some(id);
    id
}

impl Reader {
    /// Insert the triple on the first line of `text` and count it: 1, or 0
    /// for a line of blanks or a comment; and the text after the line. A
    /// line spelled as [`push_term`] spells one is read by [`written`]; any
    /// other is cut where `str::lines` would cut it and goes whole to the
    /// lexer, which alone decides what is accepted and what each error
    /// says.
    fn line<'t>(
        &mut self,
        text: &'t str,
        graph: &mut Graph,
    ) -> Result<(usize, &'t str), ParseError> {
        if let Some((subject, predicate, object, rest)) =
            written(text, &mut self.spelled, &mut self.bufs.object)
        {
            self.recent.insert(graph, subject, predicate, object);
            return Ok((1, rest));
        }
        let (line, rest) = match text.split_once('\n') {
            Some((line, rest)) => (line.strip_suffix('\r').unwrap_or(line), rest),
            None => (text, ""),
        };
        Ok((self.lexed(line, graph)?, rest))
    }

    /// The lexer's reading of one line. One line, one triple: a term cannot
    /// continue on the next, and an object is spelled in full — no bare
    /// number, no `true`. Nothing is interned before the terminating `.`
    /// has been read; then subject, predicate and object, in that order.
    fn lexed(&mut self, line: &str, graph: &mut Graph) -> Result<usize, ParseError> {
        let mut lex = Lexer::new(line);
        if *lex.peek()? == Token::Eof {
            return Ok(0);
        }
        // No prefix is ever bound, so a prefixed name never resolves.
        let none = Namespaces::empty();
        let subject = lex.subject(&none, &mut self.bufs.subject)?;
        let predicate = lex.iri(&none, "predicate IRI", &mut self.bufs.predicate)?;
        if matches!(lex.peek()?, Token::Number(_) | Token::Word(_)) {
            return Err(lex.error("expected object term"));
        }
        let object = lex.term(&none, "object term", &mut self.bufs.object)?;
        if !lex.eat(".")? || *lex.peek()? != Token::Eof {
            return Err(lex.error("expected terminating '.'"));
        }
        self.recent.insert(graph, subject, predicate, object);
        Ok(1)
    }
}

/// The terms of the triple on the first line of `text`, and the text after
/// that line, if the line is spelled exactly as [`write_block`] spells one:
/// `<iri>` or `_:label`, then `<iri>`, then any term, one space apart, and
/// ` .` before a `\n` or the end. Spans are found by byte search, and none
/// holds a line break; an escaped literal body is resolved into `buf`.
/// `None` for any other line, whether the lexer accepts it or not.
fn written<'t: 'b, 'b>(
    text: &'t str,
    spelled: &mut String,
    buf: &'b mut String,
) -> Option<(TermView<'b>, &'b str, TermView<'b>, &'t str)> {
    let (subject, rest) = subject(text, spelled)?;
    let (predicate, rest) = iri(rest)?;
    let rest = rest.strip_prefix(' ')?;
    let (object, rest) = match node(rest) {
        Some(object) => object,
        None => literal(rest, buf)?,
    };
    let rest = rest
        .strip_prefix(" .\n")
        .or_else(|| (rest == " .").then_some(""))?;
    Some((subject, predicate, object, rest))
}

/// The subject at the head of `text`, and what follows the space after it.
/// `spelled` holds the last subject read, spelled with that space: a line
/// that opens with it has that subject, and its span is not scanned again
/// (sorted lines repeat a subject).
fn subject<'t>(text: &'t str, spelled: &mut String) -> Option<(TermView<'t>, &'t str)> {
    if let Some(rest) = text
        .strip_prefix(spelled.as_str())
        .filter(|_| !spelled.is_empty())
    {
        let term = &text[..spelled.len() - 1];
        let subject = match term.strip_prefix("_:") {
            Some(label) => TermView::Blank(label),
            None => TermView::Iri(&term[1..term.len() - 1]),
        };
        return Some((subject, rest));
    }
    let (subject, rest) = node(text)?;
    let rest = rest.strip_prefix(' ')?;
    spelled.clear();
    spelled.push_str(&text[..text.len() - rest.len()]);
    Some((subject, rest))
}

/// `<iri>` at the head of `text`: the IRI, and what follows it.
fn iri(text: &str) -> Option<(&str, &str)> {
    let len = lex::iri_len(text.as_bytes().strip_prefix(b"<")?)?;
    Some((&text[1..1 + len], &text[len + 2..]))
}

/// `<iri>`, or `_:label` with a label of ASCII letters, digits, `_` and
/// `-`, at the head of `text`: the term, and what follows it.
fn node(text: &str) -> Option<(TermView<'_>, &str)> {
    let Some(label) = text.strip_prefix("_:") else {
        return iri(text).map(|(iri, rest)| (TermView::Iri(iri), rest));
    };
    let len = lex::run(label.as_bytes(), lex::is_word_byte);
    (len > 0).then(|| (TermView::Blank(&label[..len]), &label[len..]))
}

/// `"lex"`, `"lex"^^<dt>` or `"lex"@lang` at the head of `text`, its body
/// on one line: the literal, and what follows it.
fn literal<'t: 'b, 'b>(text: &'t str, buf: &'b mut String) -> Option<(TermView<'b>, &'t str)> {
    let (end, escaped) = lex::string_end(text.as_bytes()).filter(|_| text.starts_with('"'))?;
    let (body, rest) = (&text[1..end], &text[end + 1..]);
    if body.contains('\n') {
        return None;
    }
    let (datatype, lang, rest) = match rest.as_bytes().first() {
        Some(b'^') => {
            let (datatype, rest) = iri(rest.strip_prefix("^^")?)?;
            (Some(datatype), None, rest)
        }
        Some(b'@') => {
            let len = lex::run(&rest.as_bytes()[1..], lex::is_tag_byte);
            if len == 0 {
                return None;
            }
            (None, Some(&rest[1..1 + len]), &rest[1 + len..])
        }
        _ => (None, None, rest),
    };
    let lexical = if escaped {
        *buf = term::unescape_literal(body)?;
        let buf: &'b String = buf;
        buf
    } else {
        body
    };
    Some((
        TermView::Literal {
            lexical,
            datatype,
            lang,
        },
        rest,
    ))
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
        let want = Triple::new(
            Subject::iri("urn:a"),
            Iri::new("urn:p"),
            Literal::plain("say \"hi\""),
        );
        assert!(g.contains(&want));
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse("<urn:a> <urn:p> <urn:b>").is_err());
    }

    #[test]
    fn lenient_prefix_stops_at_torn_line() {
        let src = "<urn:a> <urn:p> <urn:b> .\n<urn:c> <urn:p> <urn:d> .\n<urn:e> <urn:p> \"tor";
        let mut g = Graph::new();
        assert_eq!(parse_lenient_prefix(src, &mut g), (2, false));
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
        assert_eq!(parse_lenient_prefix(&nt, &mut g), (4, true));
        assert_eq!(g.len(), sample().len());
    }

    #[test]
    fn rejects_garbage_after_dot_content() {
        assert!(parse("<urn:a> <urn:p> <urn:b> . extra").is_err());
    }

    #[test]
    fn every_line_the_writer_spells_is_read_without_the_lexer() {
        let mut g = sample();
        let s = || Subject::iri("urn:s");
        for object in [
            Literal::plain("tab\there \"quoted\" back\\slash\r\n"),
            Literal::plain(""),
            Literal::lang_tagged("esc\"aped", "en-GB"),
            Literal::typed("x\\", Iri::new("urn:dt")),
            Literal::typed("é", Iri::new(format!("{}string", ns::XSD))),
        ] {
            g.insert(&Triple::new(s(), Iri::new("urn:p"), object));
        }
        g.insert(&Triple::new(
            BlankNode::new("b-1_x"),
            Iri::new(""),
            BlankNode::new("B2"),
        ));
        g.insert(&Triple::new(s(), Iri::new("urn:é#p"), Term::iri("urn:o")));
        let (ids, term_of) = (g.ids_from(0), |id: u32| &g.terms()[id as usize]);
        let (block, mut spelled, mut buf) = (id_block(ids, term_of), String::new(), String::new());
        let mut rest = block.as_str();
        for &(s, p, o) in ids {
            let read = written(rest, &mut spelled, &mut buf);
            let (subject, predicate, object, after) = read.unwrap_or_else(|| panic!("{rest}"));
            let read = (subject.to_term(), Term::iri(predicate), object.to_term());
            assert_eq!(
                read,
                (term_of(s).clone(), term_of(p).clone(), term_of(o).clone())
            );
            rest = after;
        }
        assert_eq!(rest, "");
    }

    #[test]
    fn parses_typed_and_lang_literals() {
        let src = concat!(
            "<urn:a> <urn:n> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<urn:a> <urn:l> \"hi\"@en-GB .\n",
        );
        let g = parse(src).unwrap();
        assert_eq!(g.len(), 2);
        let a = || Subject::iri("urn:a");
        assert!(g.contains(&Triple::new(a(), Iri::new("urn:n"), Literal::integer(5))));
        let tagged = Literal::lang_tagged("hi", "en-GB");
        assert!(g.contains(&Triple::new(a(), Iri::new("urn:l"), tagged)));
    }
}
