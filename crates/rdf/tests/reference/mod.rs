//! The Turtle and N-Triples writers as they were before the temporary-free
//! rewrite, kept as the differential reference: a `String` per distinct
//! term in a hash map keyed by id, a `String` per line, subjects grouped
//! through a subject → (predicate, object) map. Written against the public
//! `Graph` API only, so the store-level differential test in `provio-core`
//! includes this file too (`#[path]`). Not every includer calls every
//! function.
#![allow(dead_code)]

use provio_rdf::{ns, Graph, IdMap, Iri, Namespaces, Term, TermId};
use std::fmt::Write as _;

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
