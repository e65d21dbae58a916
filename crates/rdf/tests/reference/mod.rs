//! The Turtle and N-Triples writers as they were before the temporary-free
//! rewrite, kept as the differential reference: a `String` per distinct
//! term in a hash map keyed by id, a `String` per line, subjects grouped
//! through a subject → (predicate, object) map. Beside them, the graph's
//! indexes as they were before they became views built on first read
//! ([`EagerIndex`]), and the two parsers as they were before they interned
//! borrowed views: an owned term per occurrence and one `Graph::insert` per
//! triple ([`turtle_parse_into`], [`ntriples_parse_into`]). Written against
//! the public `provio_rdf` API only, so the store-level differential test
//! in `provio-core` includes this file too (`#[path]`). Not every includer
//! calls every function.
#![allow(dead_code)]

use provio_rdf::lex::{Lexer, Token};
use provio_rdf::{
    ns, BlankNode, Graph, IdMap, IdSet, Iri, Literal, Namespaces, ParseError, Subject, Term,
    TermId, Triple,
};
use std::collections::hash_map::Entry;
use std::fmt::Write as _;

type Pair = (u32, u32);
type Ids = (TermId, TermId, TermId);

/// `Graph`'s three indexes as they were kept before: hash maps from a key
/// to its pairs, one push into each on every insert, a `swap_remove` from
/// each on every remove, and `match_ids` / `cardinality_estimate` read
/// straight off them. Holds ids only: the driver feeds it the ids a `Graph`
/// assigned, write for write. Beside them, its own insertion log, which
/// the all-wildcard match walks.
#[derive(Debug, Default)]
pub struct EagerIndex {
    triples: IdSet<(u32, u32, u32)>,
    pub log: Vec<Ids>,
    spo: IdMap<u32, Vec<Pair>>,
    pos: IdMap<u32, Vec<Pair>>,
    osp: IdMap<u32, Vec<Pair>>,
}

impl EagerIndex {
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if !self.triples.insert((s.0, p.0, o.0)) {
            return false;
        }
        self.spo.entry(s.0).or_default().push((p.0, o.0));
        self.pos.entry(p.0).or_default().push((o.0, s.0));
        self.osp.entry(o.0).or_default().push((s.0, p.0));
        self.log.push((s, p, o));
        true
    }

    pub fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if !self.triples.remove(&(s.0, p.0, o.0)) {
            return false;
        }
        fn drop_pair(index: &mut IdMap<u32, Vec<Pair>>, key: u32, pair: Pair) {
            if let Entry::Occupied(mut e) = index.entry(key) {
                let v = e.get_mut();
                if let Some(pos) = v.iter().position(|&x| x == pair) {
                    v.swap_remove(pos);
                }
                if v.is_empty() {
                    e.remove();
                }
            }
        }
        drop_pair(&mut self.spo, s.0, (p.0, o.0));
        drop_pair(&mut self.pos, p.0, (o.0, s.0));
        drop_pair(&mut self.osp, o.0, (s.0, p.0));
        self.log.retain(|&t| t != (s, p, o));
        true
    }

    pub fn match_ids(
        &self,
        s: Option<Option<TermId>>,
        p: Option<Option<TermId>>,
        o: Option<Option<TermId>>,
    ) -> Vec<Ids> {
        if [s, p, o].contains(&Some(None)) {
            return Vec::new();
        }
        let (s, p, o) = (
            s.flatten().map(|t| t.0),
            p.flatten().map(|t| t.0),
            o.flatten().map(|t| t.0),
        );
        let ids = |s, p, o| (TermId(s), TermId(p), TermId(o));
        let mut out = Vec::new();
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.triples.contains(&(s, p, o)) {
                    out.push(ids(s, p, o));
                }
            }
            (Some(s), p, o) => {
                for &(tp, to) in self.spo.get(&s).into_iter().flatten() {
                    if p.is_none_or(|p| p == tp) && o.is_none_or(|o| o == to) {
                        out.push(ids(s, tp, to));
                    }
                }
            }
            (None, Some(p), o) => {
                for &(to, ts) in self.pos.get(&p).into_iter().flatten() {
                    if o.is_none_or(|o| o == to) {
                        out.push(ids(ts, p, to));
                    }
                }
            }
            (None, None, Some(o)) => {
                for &(ts, tp) in self.osp.get(&o).into_iter().flatten() {
                    out.push(ids(ts, tp, o));
                }
            }
            (None, None, None) => out.clone_from(&self.log),
        }
        out
    }

    pub fn cardinality_estimate(
        &self,
        s: Option<Option<TermId>>,
        p: Option<Option<TermId>>,
        o: Option<Option<TermId>>,
    ) -> usize {
        if [s, p, o].contains(&Some(None)) {
            return 0;
        }
        let len =
            |index: &IdMap<u32, Vec<Pair>>, key: TermId| index.get(&key.0).map_or(0, Vec::len);
        match (s.flatten(), p.flatten(), o.flatten()) {
            (Some(_), Some(_), Some(_)) => 1,
            (Some(s), _, _) => len(&self.spo, s),
            (None, Some(p), _) => len(&self.pos, p),
            (None, None, Some(o)) => len(&self.osp, o),
            (None, None, None) => self.triples.len(),
        }
    }
}

/// The old `turtle::parse_into`.
pub fn turtle_parse_into(src: &str, graph: &mut Graph) -> Result<Namespaces, ParseError> {
    let mut lex = Lexer::new(src);
    let mut nss = Namespaces::empty();
    loop {
        let prefix = match lex.peek()? {
            Token::Eof => return Ok(nss),
            Token::LangTag("prefix") => true,
            Token::Word(w) => w.eq_ignore_ascii_case("prefix"),
            _ => false,
        };
        if prefix {
            lex.token()?;
            lex.prefix_binding(&mut nss)?;
            lex.eat(".")?;
        } else {
            turtle_statement(&mut lex, &nss, graph)?;
        }
    }
}

fn turtle_statement(
    lex: &mut Lexer<'_>,
    nss: &Namespaces,
    graph: &mut Graph,
) -> Result<(), ParseError> {
    let subject = subject(lex, nss)?;
    loop {
        let predicate = predicate(lex, nss)?;
        loop {
            let object = term(lex, nss, "object")?;
            graph.insert(&Triple {
                subject: subject.clone(),
                predicate: predicate.clone(),
                object,
            });
            if !lex.eat(",")? {
                break;
            }
        }
        if lex.eat(";")? {
            if lex.eat(".")? {
                return Ok(());
            }
        } else if lex.eat(".")? {
            return Ok(());
        } else {
            let other = lex.token()?;
            return Err(lex.error(format!("expected ';' or '.', got {other:?}")));
        }
    }
}

/// The old `ntriples::parse_into`.
pub fn ntriples_parse_into(src: &str, graph: &mut Graph) -> Result<(), ParseError> {
    let none = Namespaces::empty();
    for (lineno, line) in src.lines().enumerate() {
        ntriples_line(line, &none, graph).map_err(|e| ParseError::new(lineno + 1, e.message))?;
    }
    Ok(())
}

/// The old `ntriples::parse_lenient_prefix`.
pub fn ntriples_parse_lenient_prefix(src: &str, graph: &mut Graph) -> usize {
    let none = Namespaces::empty();
    let mut recovered = 0;
    for line in src.lines() {
        match ntriples_line(line, &none, graph) {
            Ok(triples) => recovered += triples,
            Err(_) => break,
        }
    }
    recovered
}

fn ntriples_line(line: &str, none: &Namespaces, graph: &mut Graph) -> Result<usize, ParseError> {
    let mut lex = Lexer::new(line);
    if *lex.peek()? == Token::Eof {
        return Ok(0);
    }
    let subject = subject(&mut lex, none)?;
    let token = lex.token()?;
    let predicate = iri_from(&lex, token, none, "predicate IRI")?;
    if matches!(lex.peek()?, Token::Number(_) | Token::Word(_)) {
        return Err(lex.error("expected object term"));
    }
    let object = term(&mut lex, none, "object term")?;
    if !lex.eat(".")? || *lex.peek()? != Token::Eof {
        return Err(lex.error("expected terminating '.'"));
    }
    graph.insert(&Triple {
        subject,
        predicate,
        object,
    });
    Ok(1)
}

/// The old `Lexer::iri_from`, over the old `Namespaces::expand`.
fn iri_from(
    lex: &Lexer<'_>,
    token: Token<'_>,
    nss: &Namespaces,
    what: &str,
) -> Result<Iri, ParseError> {
    match token {
        Token::Iri(iri) => Ok(Iri::new(iri)),
        Token::PName(pname) => pname
            .split_once(':')
            .and_then(|(prefix, local)| {
                Some(Iri::new([nss.expand_prefix(prefix)?, local].concat()))
            })
            .ok_or_else(|| lex.error(format!("unknown prefix in '{pname}'"))),
        other => Err(lex.error(format!("expected {what}, got {other:?}"))),
    }
}

/// The old `Lexer::subject`.
fn subject(lex: &mut Lexer<'_>, nss: &Namespaces) -> Result<Subject, ParseError> {
    match lex.token()? {
        Token::Blank(label) => Ok(Subject::Blank(BlankNode::new(label))),
        other => iri_from(lex, other, nss, "subject").map(Subject::Iri),
    }
}

/// The old `Lexer::predicate`.
fn predicate(lex: &mut Lexer<'_>, nss: &Namespaces) -> Result<Iri, ParseError> {
    match lex.token()? {
        Token::Word("a") => Ok(Iri::new(ns::RDF_TYPE)),
        other => iri_from(lex, other, nss, "predicate"),
    }
}

/// The old `Lexer::term`: an owned term per occurrence.
fn term(lex: &mut Lexer<'_>, nss: &Namespaces, what: &str) -> Result<Term, ParseError> {
    let literal = match lex.token()? {
        Token::Blank(label) => return Ok(Term::Blank(BlankNode::new(label))),
        Token::Number(n) if n.contains(['.', 'e', 'E']) => {
            Literal::typed(n, Iri::new(ns::XSD_DOUBLE))
        }
        Token::Number(n) => Literal::typed(n, Iri::new(ns::XSD_INTEGER)),
        Token::Word(w @ ("true" | "false")) => Literal::boolean(w == "true"),
        Token::Str(body) => {
            if lex.eat("^^")? {
                let token = lex.token()?;
                Literal::typed(body, iri_from(lex, token, nss, "datatype")?)
            } else if let &Token::LangTag(lang) = lex.peek()? {
                lex.token()?;
                Literal::lang_tagged(body, lang)
            } else {
                Literal::plain(body)
            }
        }
        other => return iri_from(lex, other, nss, what).map(Term::Iri),
    };
    Ok(Term::Literal(literal))
}

/// The old `escape_literal`: one character at a time.
fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

pub fn turtle(graph: &Graph, nss: &Namespaces) -> String {
    let mut out = String::new();
    for (prefix, iri) in nss.iter() {
        let _ = writeln!(out, "@prefix {prefix}: <{iri}> .");
    }
    if !nss.is_empty() {
        out.push('\n');
    }

    let term = |id: u32| graph.term(TermId(id));
    let mut spo: IdMap<u32, Vec<(u32, u32)>> = IdMap::default();
    for (s, p, o) in graph.iter_ids() {
        spo.entry(s.0).or_default().push((p.0, o.0));
    }
    let mut subject_ids: Vec<u32> = spo.keys().copied().collect();
    subject_ids.sort_unstable_by(|&a, &b| term(a).cmp(term(b)));

    let mut terms: IdMap<u32, String> = IdMap::default();
    let mut preds: IdMap<u32, String> = IdMap::default();

    for &s in &subject_ids {
        let mut pairs: Vec<(u32, u32)> = spo[&s].clone();
        pairs.sort_unstable_by(|&(p1, o1), &(p2, o2)| {
            term(p1).cmp(term(p2)).then_with(|| term(o1).cmp(term(o2)))
        });

        let subject = terms
            .entry(s)
            .or_insert_with(|| subject_term_str(term(s), nss))
            .clone();
        let _ = write!(out, "{subject}");

        let mut i = 0;
        let mut first_pred = true;
        while i < pairs.len() {
            let p = pairs[i].0;
            let mut j = i;
            while j < pairs.len() && pairs[j].0 == p {
                j += 1;
            }
            preds.entry(p).or_insert_with(|| match term(p) {
                Term::Iri(iri) => pred_str(iri, nss),
                other => subject_term_str(other, nss),
            });
            for &(_, o) in &pairs[i..j] {
                terms.entry(o).or_insert_with(|| term_str(term(o), nss));
            }
            let rendered: Vec<&str> = pairs[i..j]
                .iter()
                .map(|&(_, o)| terms[&o].as_str())
                .collect();
            let sep = if j == pairs.len() { " ." } else { " ;" };
            if first_pred {
                let _ = writeln!(out, " {} {}{sep}", preds[&p], rendered.join(" , "));
            } else {
                let _ = writeln!(out, "    {} {}{sep}", preds[&p], rendered.join(" , "));
            }
            first_pred = false;
            i = j;
        }
    }
    out
}

fn subject_term_str(t: &Term, nss: &Namespaces) -> String {
    match t {
        Term::Iri(i) => iri_str(i, nss),
        Term::Blank(b) => format!("_:{}", b.label()),
        Term::Literal(_) => unreachable!("literal in subject position"),
    }
}

fn pred_str(p: &Iri, nss: &Namespaces) -> String {
    if p.as_str() == ns::RDF_TYPE {
        "a".to_string()
    } else {
        iri_str(p, nss)
    }
}

fn iri_str(i: &Iri, nss: &Namespaces) -> String {
    compact(nss, i.as_str()).unwrap_or_else(|| format!("<{}>", i.as_str()))
}

/// `Namespaces::compact` as it was: longest base wins, of two labels for
/// one base the first.
fn compact(nss: &Namespaces, iri: &str) -> Option<String> {
    let mut best: Option<(&str, &str)> = None;
    for (prefix, base) in nss.iter() {
        if iri.strip_prefix(base).is_some() && best.is_none_or(|(_, b)| base.len() > b.len()) {
            best = Some((prefix, base));
        }
    }
    let (prefix, base) = best?;
    let local = &iri[base.len()..];
    let bytes = local.as_bytes();
    let pn_local = bytes.first() != Some(&b'.')
        && bytes.last() != Some(&b'.')
        && local
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    if local.is_empty() || !pn_local {
        return None;
    }
    Some(format!("{prefix}:{local}"))
}

fn term_str(t: &Term, nss: &Namespaces) -> String {
    match t {
        Term::Iri(i) => iri_str(i, nss),
        Term::Blank(b) => format!("_:{}", b.label()),
        Term::Literal(l) => {
            let mut s = format!("\"{}\"", escape_literal(l.lexical()));
            if let Some(dt) = l.datatype() {
                s.push_str("^^");
                s.push_str(&iri_str(dt, nss));
            } else if let Some(lang) = l.lang() {
                s.push('@');
                s.push_str(lang);
            }
            s
        }
    }
}

/// The old `ntriples::render_term`.
pub fn nt_term(t: &Term) -> String {
    match t {
        Term::Iri(i) => i.to_string(),
        Term::Blank(b) => b.to_string(),
        Term::Literal(l) => {
            let mut s = format!("\"{}\"", escape_literal(l.lexical()));
            if let Some(dt) = l.datatype() {
                let _ = write!(s, "^^{dt}");
            } else if let Some(lang) = l.lang() {
                let _ = write!(s, "@{lang}");
            }
            s
        }
    }
}

/// The old `ntriples::id_block`: insertion-ordered, newline-terminated.
pub fn nt_block<'a>(ids: &[(u32, u32, u32)], term_of: impl Fn(u32) -> &'a Term) -> String {
    nt_lines(ids, term_of)
        .into_iter()
        .flat_map(|l| [l, "\n".to_string()])
        .collect()
}

/// The old `ntriples::sorted_id_lines`.
pub fn nt_sorted_lines<'a>(
    ids: &[(u32, u32, u32)],
    term_of: impl Fn(u32) -> &'a Term,
) -> Vec<String> {
    let mut lines = nt_lines(ids, term_of);
    lines.sort_unstable();
    lines
}

fn nt_lines<'a>(ids: &[(u32, u32, u32)], term_of: impl Fn(u32) -> &'a Term) -> Vec<String> {
    let mut cache: IdMap<u32, String> = IdMap::default();
    for &(s, p, o) in ids {
        for id in [s, p, o] {
            cache.entry(id).or_insert_with(|| nt_term(term_of(id)));
        }
    }
    ids.iter()
        .map(|&(s, p, o)| {
            let (s, p, o) = (&cache[&s], &cache[&p], &cache[&o]);
            let mut l = String::with_capacity(s.len() + p.len() + o.len() + 4);
            l.push_str(s);
            l.push(' ');
            l.push_str(p);
            l.push(' ');
            l.push_str(o);
            l.push_str(" .");
            l
        })
        .collect()
}
