//! Property-path evaluation, on term ids.
//!
//! Backward lineage in PROV-IO is a transitive walk over relations such as
//! `prov:wasDerivedFrom` / `prov:wasAttributedTo` (paper §6.5: "the same
//! procedure can be repeated as needed"). Property paths make that walk a
//! single query.
//!
//! A path is first resolved against the graph into an [`IdPath`] — each
//! predicate looked up once, every inverse pushed down onto the predicates
//! beneath it (`^(a/b)` = `^b/^a`, `^(a|b)` = `^a|^b`, `^(a+)` = `(^a)+`,
//! `^(a*)` = `(^a)*`, `^^a` = `a`), so an inverse only ever wraps a
//! predicate — and then evaluated over [`TermId`]s alone: [`pairs`]
//! computes the whole `(subject, object)` relation bottom-up, [`reach`]
//! walks from one start node without materializing the relation (what a
//! pattern with a bound end uses; a bound object walks the resolved
//! inverse). Closures are breadth-first with an id set per walk; results
//! come out in first-seen order, so the same graph and path give the same
//! sequence every time. No term's text is read except to tell whether a
//! start node is a literal, which has no outgoing edge.
//!
//! Every index lookup costs one budget step plus one per match, every
//! composed or walked edge one more.

use crate::ast::PathExpr;
use crate::eval::{Budget, Terms};
use crate::QueryError;
use provio_rdf::{Graph, IdMap, IdSet, Term, TermId};
use std::collections::VecDeque;

/// A [`PathExpr`] with its predicates resolved to ids of one graph and its
/// inverses pushed down onto them. A predicate is `None` when the graph
/// has no such term, so no edge either.
#[derive(Debug)]
pub(crate) enum IdPath {
    Pred(Option<TermId>),
    /// `^p`: the predicate's edges walked from object to subject.
    Inverse(Option<TermId>),
    Sequence(Box<IdPath>, Box<IdPath>),
    Alternative(Box<IdPath>, Box<IdPath>),
    OneOrMore(Box<IdPath>),
    ZeroOrMore(Box<IdPath>),
}

impl IdPath {
    /// `path` resolved against `graph`; with `inverse`, `^path`.
    pub(crate) fn resolve(path: &PathExpr, graph: &Graph, inverse: bool) -> IdPath {
        let sub = |p: &PathExpr| Box::new(IdPath::resolve(p, graph, inverse));
        match path {
            PathExpr::Iri(p) => {
                let id = graph.term_id(&Term::Iri(p.clone()));
                if inverse {
                    IdPath::Inverse(id)
                } else {
                    IdPath::Pred(id)
                }
            }
            PathExpr::Inverse(a) => IdPath::resolve(a, graph, !inverse),
            PathExpr::Sequence(a, b) if inverse => IdPath::Sequence(sub(b), sub(a)),
            PathExpr::Sequence(a, b) => IdPath::Sequence(sub(a), sub(b)),
            PathExpr::Alternative(a, b) => IdPath::Alternative(sub(a), sub(b)),
            PathExpr::OneOrMore(a) => IdPath::OneOrMore(sub(a)),
            PathExpr::ZeroOrMore(a) => IdPath::ZeroOrMore(sub(a)),
        }
    }
}

/// All `(s, o)` pairs connected by `path` in `graph`, with no step limit.
///
/// `ZeroOrMore` contributes the identity pair for every node that occurs in
/// the graph (SPARQL's semantics restrict to terms in the graph).
pub fn eval_path(graph: &Graph, path: &PathExpr) -> Vec<(Term, Term)> {
    pairs(graph, &IdPath::resolve(path, graph, false), &mut Budget::unlimited())
        .expect("an unlimited budget cannot be exhausted")
        .into_iter()
        .map(|(s, o)| (graph.term(s).clone(), graph.term(o).clone()))
        .collect()
}

/// Terms reachable from a fixed start term through `path`, with no step
/// limit.
pub fn eval_path_from(graph: &Graph, path: &PathExpr, start: &Term) -> Vec<Term> {
    let mut terms = Terms::new(graph);
    let start = terms.id(start);
    reach(
        &terms,
        &IdPath::resolve(path, graph, false),
        start,
        &mut Budget::unlimited(),
    )
    .expect("an unlimited budget cannot be exhausted")
    .into_iter()
    .map(|id| terms.term(id).clone())
    .collect()
}

/// Pushes each value once, in the order first seen.
struct Seen<T> {
    set: IdSet<T>,
    order: Vec<T>,
}

impl<T: Copy + Eq + std::hash::Hash> Seen<T> {
    fn new() -> Self {
        Seen {
            set: IdSet::default(),
            order: Vec::new(),
        }
    }

    fn push(&mut self, value: T) -> bool {
        let new = self.set.insert(value);
        if new {
            self.order.push(value);
        }
        new
    }
}

/// The whole relation of `path`: every produced pair and every BFS edge
/// expansion costs a step.
pub(crate) fn pairs(
    graph: &Graph,
    path: &IdPath,
    budget: &mut Budget,
) -> Result<Vec<(TermId, TermId)>, QueryError> {
    match path {
        IdPath::Pred(p) | IdPath::Inverse(p) => {
            let inverse = matches!(path, IdPath::Inverse(_));
            let pairs: Vec<(TermId, TermId)> = graph
                .match_ids(None, Some(*p), None)
                .into_iter()
                .map(|(s, _, o)| if inverse { (o, s) } else { (s, o) })
                .collect();
            budget.charge(pairs.len() as u64 + 1)?;
            Ok(pairs)
        }
        IdPath::Sequence(a, b) => {
            let left = pairs(graph, a, budget)?;
            let right = pairs(graph, b, budget)?;
            // Hash-join on the middle node.
            let mut by_mid: IdMap<TermId, Vec<TermId>> = IdMap::default();
            for (m, o) in right {
                by_mid.entry(m).or_default().push(o);
            }
            let mut out = Seen::new();
            for (s, m) in left {
                if let Some(objects) = by_mid.get(&m) {
                    budget.charge(objects.len() as u64)?;
                    for &o in objects {
                        out.push((s, o));
                    }
                }
            }
            Ok(out.order)
        }
        IdPath::Alternative(a, b) => {
            let mut out = Seen::new();
            for pair in pairs(graph, a, budget)? {
                out.push(pair);
            }
            for pair in pairs(graph, b, budget)? {
                out.push(pair);
            }
            Ok(out.order)
        }
        IdPath::OneOrMore(inner) => closure(graph, inner, false, budget),
        IdPath::ZeroOrMore(inner) => closure(graph, inner, true, budget),
    }
}

/// Nodes `path` reaches from `start` (forward evaluation used when one end
/// of a pattern is already bound — avoids materializing the whole relation
/// for closures).
pub(crate) fn reach(
    terms: &Terms<'_>,
    path: &IdPath,
    start: TermId,
    budget: &mut Budget,
) -> Result<Vec<TermId>, QueryError> {
    match path {
        IdPath::OneOrMore(inner) | IdPath::ZeroOrMore(inner) => {
            let mut out = Seen::new();
            if matches!(path, IdPath::ZeroOrMore(_)) {
                out.push(start);
            }
            // For OneOrMore the start itself is reachable only via a cycle.
            let mut queue = VecDeque::from([start]);
            while let Some(cur) = queue.pop_front() {
                for next in reach(terms, inner, cur, budget)? {
                    budget.charge(1)?;
                    if out.push(next) {
                        queue.push_back(next);
                    }
                }
            }
            Ok(out.order)
        }
        IdPath::Sequence(a, b) => {
            let mut out = Seen::new();
            for mid in reach(terms, a, start, budget)? {
                for end in reach(terms, b, mid, budget)? {
                    out.push(end);
                }
            }
            Ok(out.order)
        }
        IdPath::Alternative(a, b) => {
            let mut out = Seen::new();
            for end in reach(terms, a, start, budget)? {
                out.push(end);
            }
            for end in reach(terms, b, start, budget)? {
                out.push(end);
            }
            Ok(out.order)
        }
        IdPath::Pred(p) | IdPath::Inverse(p) => {
            let inverse = matches!(path, IdPath::Inverse(_));
            if !inverse && matches!(terms.term(start), Term::Literal(_)) {
                return Ok(Vec::new()); // literals have no outgoing edges
            }
            let at = Some(terms.in_graph(start));
            let (s, o) = if inverse { (None, at) } else { (at, None) };
            let ends: Vec<TermId> = terms
                .graph
                .match_ids(s, Some(*p), o)
                .into_iter()
                .map(|(s, _, o)| if inverse { s } else { o })
                .collect();
            budget.charge(ends.len() as u64 + 1)?;
            Ok(ends)
        }
    }
}

fn closure(
    graph: &Graph,
    inner: &IdPath,
    reflexive: bool,
    budget: &mut Budget,
) -> Result<Vec<(TermId, TermId)>, QueryError> {
    // Adjacency over the base relation, sources in first-seen order.
    let mut adj: IdMap<TermId, Vec<TermId>> = IdMap::default();
    let mut sources = Vec::new();
    for (s, o) in pairs(graph, inner, budget)? {
        adj.entry(s)
            .or_insert_with(|| {
                sources.push(s);
                Vec::new()
            })
            .push(o);
    }

    let mut out = Seen::new();
    if reflexive {
        // Identity on all graph nodes (subjects and objects of any triple).
        let mut nodes = Seen::new();
        for (s, _, o) in graph.iter_ids() {
            nodes.push(s);
            nodes.push(o);
        }
        budget.charge(nodes.order.len() as u64)?;
        for n in nodes.order {
            out.push((n, n));
        }
    }

    // BFS from every source in the base relation. A source is not seen
    // until an edge leads back to it, so one on a cycle is expanded twice.
    for src in sources {
        let mut seen: IdSet<TermId> = IdSet::default();
        let mut queue = VecDeque::from([src]);
        while let Some(cur) = queue.pop_front() {
            if let Some(nexts) = adj.get(&cur) {
                budget.charge(nexts.len() as u64)?;
                for &n in nexts {
                    if seen.insert(n) {
                        out.push((src, n));
                        queue.push_back(n);
                    }
                }
            }
        }
    }
    Ok(out.order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_rdf::{Iri, Subject, Triple};

    fn chain_graph() -> Graph {
        // a -d-> b -d-> c -d-> d ; x -d-> b (diamond-ish)
        let mut g = Graph::new();
        for (s, o) in [("a", "b"), ("b", "c"), ("c", "d"), ("x", "b")] {
            g.insert(&Triple::new(
                Subject::iri(format!("urn:{s}")),
                Iri::new("urn:d"),
                Term::iri(format!("urn:{o}")),
            ));
        }
        g
    }

    fn pairs_sorted(mut v: Vec<(Term, Term)>) -> Vec<(String, String)> {
        v.sort();
        v.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn plain_iri_path() {
        let g = chain_graph();
        let p = PathExpr::Iri(Iri::new("urn:d"));
        assert_eq!(eval_path(&g, &p).len(), 4);
    }

    #[test]
    fn inverse_swaps() {
        let g = chain_graph();
        let p = PathExpr::Inverse(Box::new(PathExpr::Iri(Iri::new("urn:d"))));
        let pairs = pairs_sorted(eval_path(&g, &p));
        assert!(pairs.contains(&("<urn:b>".into(), "<urn:a>".into())));
    }

    #[test]
    fn sequence_composes() {
        let g = chain_graph();
        let p = PathExpr::Sequence(
            Box::new(PathExpr::Iri(Iri::new("urn:d"))),
            Box::new(PathExpr::Iri(Iri::new("urn:d"))),
        );
        let pairs = pairs_sorted(eval_path(&g, &p));
        assert!(pairs.contains(&("<urn:a>".into(), "<urn:c>".into())));
        assert!(pairs.contains(&("<urn:b>".into(), "<urn:d>".into())));
        assert!(pairs.contains(&("<urn:x>".into(), "<urn:c>".into())));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn one_or_more_is_transitive_closure() {
        let g = chain_graph();
        let p = PathExpr::OneOrMore(Box::new(PathExpr::Iri(Iri::new("urn:d"))));
        let pairs = pairs_sorted(eval_path(&g, &p));
        // a reaches b,c,d ; b reaches c,d ; c reaches d ; x reaches b,c,d
        assert_eq!(pairs.len(), 3 + 2 + 1 + 3);
        assert!(pairs.contains(&("<urn:a>".into(), "<urn:d>".into())));
    }

    #[test]
    fn zero_or_more_includes_identity() {
        let g = chain_graph();
        let p = PathExpr::ZeroOrMore(Box::new(PathExpr::Iri(Iri::new("urn:d"))));
        let pairs = pairs_sorted(eval_path(&g, &p));
        assert!(pairs.contains(&("<urn:a>".into(), "<urn:a>".into())));
        assert!(pairs.contains(&("<urn:d>".into(), "<urn:d>".into())));
        assert!(pairs.contains(&("<urn:a>".into(), "<urn:d>".into())));
    }

    #[test]
    fn alternative_unions() {
        let mut g = chain_graph();
        g.insert(&Triple::new(
            Subject::iri("urn:a"),
            Iri::new("urn:e"),
            Term::iri("urn:z"),
        ));
        let p = PathExpr::Alternative(
            Box::new(PathExpr::Iri(Iri::new("urn:d"))),
            Box::new(PathExpr::Iri(Iri::new("urn:e"))),
        );
        assert_eq!(eval_path(&g, &p).len(), 5);
    }

    #[test]
    fn cycles_terminate() {
        let mut g = Graph::new();
        for (s, o) in [("a", "b"), ("b", "a")] {
            g.insert(&Triple::new(
                Subject::iri(format!("urn:{s}")),
                Iri::new("urn:d"),
                Term::iri(format!("urn:{o}")),
            ));
        }
        let p = PathExpr::OneOrMore(Box::new(PathExpr::Iri(Iri::new("urn:d"))));
        let pairs = pairs_sorted(eval_path(&g, &p));
        // a→b, a→a (via cycle), b→a, b→b
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn eval_from_matches_full_relation() {
        let g = chain_graph();
        let p = PathExpr::OneOrMore(Box::new(PathExpr::Iri(Iri::new("urn:d"))));
        let full = eval_path(&g, &p);
        let start = Term::iri("urn:a");
        let mut from: Vec<Term> = eval_path_from(&g, &p, &start);
        from.sort();
        let mut expect: Vec<Term> = full
            .into_iter()
            .filter(|(s, _)| *s == start)
            .map(|(_, o)| o)
            .collect();
        expect.sort();
        assert_eq!(from, expect);
    }

    #[test]
    fn eval_from_literal_start_is_empty_for_iri_path() {
        let g = chain_graph();
        let p = PathExpr::Iri(Iri::new("urn:d"));
        let lit = Term::Literal(provio_rdf::Literal::plain("x"));
        assert!(eval_path_from(&g, &p, &lit).is_empty());
    }
}
