//! Differential oracle for query evaluation.
//!
//! A reference evaluator with no indexes, no ids and no join ordering — it
//! walks `Graph::iter()` once per triple pattern, in the order the patterns
//! are written — is compared with [`Query::execute`] on random small graphs
//! and random queries built straight from the AST: one to four triple
//! patterns over a small variable pool (so variables are shared), every
//! path operator, `FILTER`, `COUNT` / `COUNT DISTINCT` with `GROUP BY`,
//! `DISTINCT`, `ORDER BY`, `LIMIT`, `OFFSET`. The engine answers on a graph
//! it has already queried once, part-built, before the rest was inserted.
//!
//! About half the graphs also hold a product (`Graph::add_product`) over
//! one of the three predicates: a few groups of nodes, each relating its
//! left side to its right side. The reference walks an eager copy with
//! every one of those edges in its triple list; the engine queries the
//! product, so paths over that predicate (`+`, `*`, `^`, `/`, `|`) read its
//! bound-end lookups and its expansion.
//!
//! What must agree: `vars`, and `rows` in order. Row order is defined
//! whenever the query's ordering is total — no `ORDER BY` (rows come out by
//! their rendered `var=term|…` key), or an `ORDER BY` under which no two
//! different rows compare equal. SPARQL leaves the order of `ORDER BY` ties
//! open and so does the engine (ties keep evaluation order), so for those
//! the oracle checks the multiset of rows and that the engine's sequence is
//! sorted; `LIMIT` / `OFFSET` are then checked for size and membership.
//!
//! The second property: under a finite step budget the engine answers
//! exactly as it does without one, or `BudgetExhausted` — never a
//! truncated set.
//!
//! One restriction on the generator: a constant at either end of a
//! *property path* is always a node of the graph. SPARQL lets a zero-length
//! path match a term the graph has never seen, and the engine does so from
//! either end; the reference's zero-length relation is the graph's nodes
//! only, so it cannot judge that case (`front_end.rs` pins it).
//!
//! Case count: `PROVIO_ORACLE_CASES` (default 256); CI runs 4096.

use proptest::prelude::*;
use provio_rdf::{BlankNode, Graph, Iri, Literal, Subject, Term, Triple};
use provio_sparql::ast::CompareOp;
use provio_sparql::{
    Aggregate, Expr, PathExpr, Pattern, Query, QueryError, Row, Solutions, TermOrVar,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

fn cases() -> u32 {
    std::env::var("PROVIO_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Steps the engine may take on one generated case; a case that needs more
/// (a cross product of closures) is skipped, not failed.
const CASE_BUDGET: u64 = 100_000;

// ---------------------------------------------------------------------------
// Generator: a choice stream over small pools.

struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())].clone()
    }
}

const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn node(i: usize) -> Term {
    Term::iri(format!("urn:n{i}"))
}

/// One of three predicates, the first twice as likely as the others.
fn gen_pred(g: &mut Gen) -> Iri {
    Iri::new(format!("urn:p{}", [0, 0, 1, 2][g.below(4)]))
}

/// Literals whose pairwise order is a total preorder under the engine's
/// value comparison: numbers by value (2 and 2.0 tie), then strings by
/// lexical form (the three spellings of `s0` tie).
fn literals() -> Vec<Term> {
    vec![
        Literal::integer(2).into(),
        Literal::integer(7).into(),
        Literal::integer(10).into(),
        Literal::integer(12).into(),
        Literal::double(2.0).into(),
        Literal::boolean(true).into(),
        Literal::plain("s0").into(),
        Literal::plain("s1").into(),
        Literal::plain("s10").into(),
        Literal::lang_tagged("s0", "en").into(),
        Literal::typed("s0", Iri::new("urn:dt")).into(),
    ]
}

fn gen_triples(g: &mut Gen) -> Vec<Triple> {
    let lits = literals();
    (0..6 + g.below(16))
        .map(|_| {
            let subject: Subject = if g.chance(85) {
                Subject::iri(format!("urn:n{}", g.below(4)))
            } else {
                BlankNode::new("b0").into()
            };
            let object = match g.below(100) {
                0..=59 => node(g.below(4)),
                60..=89 => g.pick(&lits),
                _ => BlankNode::new("b0").into(),
            };
            Triple::new(subject, gen_pred(g), object)
        })
        .collect()
}

/// A relation added as groups rather than triples.
struct Product {
    predicate: Iri,
    groups: Vec<(Vec<Subject>, Vec<Term>)>,
}

impl Product {
    /// One to three groups over the generator's nodes: subjects on the
    /// left, nodes and now and then a literal on the right, so groups
    /// overlap, a node stands on both sides and stored edges repeat.
    fn generate(g: &mut Gen) -> Option<Product> {
        if g.chance(50) {
            return None;
        }
        let lits = literals();
        let groups = (0..1 + g.below(3))
            .map(|_| {
                let left = (0..1 + g.below(3))
                    .map(|_| match g.below(6) {
                        5 => BlankNode::new("b0").into(),
                        n => Subject::iri(format!("urn:n{}", n % 4)),
                    })
                    .collect();
                let right = (0..1 + g.below(4))
                    .map(|_| {
                        if g.chance(85) {
                            node(g.below(4))
                        } else {
                            g.pick(&lits)
                        }
                    })
                    .collect();
                (left, right)
            })
            .collect();
        Some(Product {
            predicate: gen_pred(g),
            groups,
        })
    }

    /// Every edge it stands for, loops left out.
    fn edges(&self) -> impl Iterator<Item = Triple> + '_ {
        self.groups.iter().flat_map(move |(left, right)| {
            left.iter().flat_map(move |s| {
                right
                    .iter()
                    .filter(move |o| Term::from(s.clone()) != **o)
                    .map(move |o| Triple::new(s.clone(), self.predicate.clone(), o.clone()))
            })
        })
    }

    fn add_to(&self, graph: &mut Graph) {
        let p = graph.intern(&Term::Iri(self.predicate.clone()));
        let groups: Vec<_> = self
            .groups
            .iter()
            .map(|(left, right)| {
                let left = left
                    .iter()
                    .map(|s| graph.intern(&s.clone().into()))
                    .collect();
                (left, right.iter().map(|o| graph.intern(o)).collect())
            })
            .collect();
        graph.add_product(p, groups);
    }
}

/// A case's graph: stored triples and maybe a product, and the eager copy
/// of both the reference reads.
fn gen_graph(g: &mut Gen) -> (Vec<Triple>, Option<Product>, Vec<Triple>) {
    let triples = gen_triples(g);
    let product = Product::generate(g);
    let eager = triples
        .iter()
        .cloned()
        .chain(product.iter().flat_map(Product::edges))
        .collect();
    (triples, product, eager)
}

fn gen_path(g: &mut Gen, depth: usize) -> PathExpr {
    if depth == 0 || g.chance(30) {
        return PathExpr::Iri(gen_pred(g));
    }
    let sub = |g: &mut Gen| Box::new(gen_path(g, depth - 1));
    match g.below(5) {
        0 => PathExpr::Inverse(sub(g)),
        1 => PathExpr::Sequence(sub(g), sub(g)),
        2 => PathExpr::Alternative(sub(g), sub(g)),
        3 => PathExpr::OneOrMore(sub(g)),
        _ => PathExpr::ZeroOrMore(sub(g)),
    }
}

fn gen_var(g: &mut Gen) -> String {
    g.pick(&VARS).to_string()
}

/// A filter over `vars` and `terms` (mostly: now and then an operand is
/// any variable, any term).
fn gen_expr(g: &mut Gen, vars: &[String], terms: &[Term], depth: usize) -> Expr {
    if depth > 0 && g.chance(40) {
        let sub = |g: &mut Gen| Box::new(gen_expr(g, vars, terms, depth - 1));
        return match g.below(3) {
            0 => Expr::Not(sub(g)),
            1 => Expr::And(sub(g), sub(g)),
            _ => Expr::Or(sub(g), sub(g)),
        };
    }
    let var = |g: &mut Gen| {
        Box::new(Expr::Var(if g.chance(90) {
            g.pick(vars)
        } else {
            gen_var(g)
        }))
    };
    let constant = |g: &mut Gen| {
        Box::new(Expr::Const(match g.below(10) {
            0 => node(g.below(5)),
            1 | 2 => g.pick(&literals()),
            _ => g.pick(terms),
        }))
    };
    let operand = |g: &mut Gen| if g.chance(75) { constant(g) } else { var(g) };
    match g.below(10) {
        0..=4 => {
            let op = g.pick(&[
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ]);
            Expr::Compare(op, var(g), operand(g))
        }
        5 => {
            let pattern = g.pick(&["^urn:n", "1$", "s", "^s0$", "^", "0"]);
            Expr::Regex(var(g), pattern.to_string())
        }
        6 => Expr::StrStarts(var(g), operand(g)),
        7 => Expr::StrEnds(var(g), operand(g)),
        8 => Expr::Contains(var(g), operand(g)),
        _ => {
            if g.chance(50) {
                // `z` is bound by no pattern.
                Expr::Bound(g.pick(&["a", "b", "z"]).to_string())
            } else {
                *var(g)
            }
        }
    }
}

fn gen_query(g: &mut Gen, triples: &[Triple]) -> Query {
    // Never empty: `gen_triples` makes at least six triples.
    let graph_nodes: Vec<Term> = nodes_of(triples).into_iter().collect();
    let subjects: Vec<Term> = triples.iter().map(|t| t.subject.clone().into()).collect();
    let objects: Vec<Term> = triples.iter().map(|t| t.object.clone()).collect();
    let lits = literals();
    let mut patterns = Vec::new();
    let mut closures = 0;
    for _ in 0..1 + g.below(4) {
        let plain = closures == 2 || g.chance(65);
        let path = if plain {
            PathExpr::Iri(gen_pred(g))
        } else {
            closures += 1;
            gen_path(g, 2)
        };
        // See the module docs: path ends are nodes of the graph.
        let in_graph = path.as_plain().is_none();
        let end = |g: &mut Gen, var: usize, seen_here: &[Term]| {
            if g.chance(var) {
                TermOrVar::Var(gen_var(g))
            } else if g.chance(80) {
                TermOrVar::Term(g.pick(seen_here))
            } else if in_graph {
                TermOrVar::Term(g.pick(&graph_nodes))
            } else if g.chance(50) {
                TermOrVar::Term(g.pick(&lits))
            } else {
                TermOrVar::Term(node(g.below(5))) // n4 is in no graph
            }
        };
        patterns.push(Pattern::Triple {
            subject: end(g, 88, &subjects),
            path,
            object: end(g, 75, &objects),
        });
    }
    let statement_count = patterns.len();
    let bound: Vec<String> = patterns
        .iter()
        .flat_map(|p| match p {
            Pattern::Triple {
                subject, object, ..
            } => [subject.var(), object.var()],
            Pattern::Filter(_) => [None, None],
        })
        .flatten()
        .map(str::to_string)
        .chain(["a".to_string()])
        .collect();
    for _ in 0..[0, 0, 0, 1, 1, 2][g.below(6)] {
        let at = g.below(patterns.len() + 1);
        patterns.insert(at, Pattern::Filter(gen_expr(g, &bound, &graph_nodes, 2)));
    }

    let mut q = Query {
        projection: Vec::new(),
        aggregate: None,
        group_by: Vec::new(),
        distinct: g.chance(25),
        patterns,
        order_by: Vec::new(),
        limit: None,
        offset: 0,
        statement_count,
    };
    // The columns a result row can carry.
    let columns: Vec<String> = if g.chance(35) {
        q.aggregate = Some(Aggregate {
            var: g.chance(70).then(|| gen_var(g)),
            distinct: g.chance(40),
            alias: "n".into(),
        });
        q.group_by = (0..g.below(3)).map(|_| gen_var(g)).collect();
        if g.chance(50) {
            q.projection = q.group_by.clone();
        }
        q.group_by
            .iter()
            .cloned()
            .chain(["n".to_string()])
            .collect()
    } else if g.chance(30) {
        VARS.iter().map(|v| v.to_string()).collect() // SELECT *
    } else {
        q.projection = (0..1 + g.below(3)).map(|_| gen_var(g)).collect();
        q.projection.clone()
    };
    match g.below(100) {
        0..=44 => {}
        // Every column, in some order: total unless values tie.
        45..=74 => {
            let distinct: BTreeSet<String> = columns.iter().cloned().collect();
            let mut keys: Vec<String> = distinct.into_iter().collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, g.below(i + 1));
            }
            q.order_by = keys.into_iter().map(|k| (k, g.chance(40))).collect();
        }
        _ => {
            q.order_by = (0..1 + g.below(2))
                .map(|_| (g.pick(&columns), g.chance(40)))
                .collect();
        }
    }
    if g.chance(40) {
        q.limit = Some(g.below(6));
    }
    if g.chance(30) {
        q.offset = g.below(4);
    }
    q
}

// ---------------------------------------------------------------------------
// Reference evaluator.

/// One reference row: variable name → bound term.
type Binding = BTreeMap<String, Term>;

/// Subjects and objects of every triple: the nodes a zero-length path
/// relates to themselves.
fn nodes_of(triples: &[Triple]) -> BTreeSet<Term> {
    triples
        .iter()
        .flat_map(|t| [Term::from(t.subject.clone()), t.object.clone()])
        .collect()
}

/// The `(subject, object)` pairs a path relates, by its definition.
fn relation(triples: &[Triple], path: &PathExpr) -> BTreeSet<(Term, Term)> {
    match path {
        PathExpr::Iri(p) => triples
            .iter()
            .filter(|t| t.predicate == *p)
            .map(|t| (Term::from(t.subject.clone()), t.object.clone()))
            .collect(),
        PathExpr::Inverse(inner) => relation(triples, inner)
            .into_iter()
            .map(|(s, o)| (o, s))
            .collect(),
        PathExpr::Sequence(a, b) => {
            let (left, right) = (relation(triples, a), relation(triples, b));
            let mut out = BTreeSet::new();
            for (s, m) in &left {
                for (m2, o) in &right {
                    if m == m2 {
                        out.insert((s.clone(), o.clone()));
                    }
                }
            }
            out
        }
        PathExpr::Alternative(a, b) => {
            let mut out = relation(triples, a);
            out.extend(relation(triples, b));
            out
        }
        PathExpr::OneOrMore(inner) => {
            let base = relation(triples, inner);
            let mut closure = base.clone();
            loop {
                let mut grown = closure.clone();
                for (s, m) in &closure {
                    for (m2, o) in &base {
                        if m == m2 {
                            grown.insert((s.clone(), o.clone()));
                        }
                    }
                }
                if grown.len() == closure.len() {
                    return closure;
                }
                closure = grown;
            }
        }
        PathExpr::ZeroOrMore(inner) => {
            let mut out = relation(triples, &PathExpr::OneOrMore(inner.clone()));
            out.extend(nodes_of(triples).into_iter().map(|n| (n.clone(), n)));
            out
        }
    }
}

fn unify(row: &Binding, at: &TermOrVar, value: &Term) -> Option<Binding> {
    match at {
        TermOrVar::Term(t) => (t == value).then(|| row.clone()),
        TermOrVar::Var(v) => match row.get(v) {
            Some(bound) => (bound == value).then(|| row.clone()),
            None => {
                let mut next = row.clone();
                next.insert(v.clone(), value.clone());
                Some(next)
            }
        },
    }
}

/// SPARQL-ish value order: two numeric literals by value, two literals
/// otherwise by lexical form, two IRIs by their text; anything else is
/// comparable only with itself.
fn value_order(a: &Term, b: &Term) -> Option<Ordering> {
    match (a, b) {
        (Term::Literal(x), Term::Literal(y)) => match (x.as_f64(), y.as_f64()) {
            (Some(nx), Some(ny)) => nx.partial_cmp(&ny),
            _ => Some(x.lexical().cmp(y.lexical())),
        },
        (Term::Iri(x), Term::Iri(y)) => Some(x.as_str().cmp(y.as_str())),
        _ => (a == b).then_some(Ordering::Equal),
    }
}

fn text_of(t: &Term) -> Option<&str> {
    match t {
        Term::Literal(l) => Some(l.lexical()),
        Term::Iri(i) => Some(i.as_str()),
        Term::Blank(_) => None,
    }
}

fn operand<'a>(e: &'a Expr, row: &'a Binding) -> Option<&'a Term> {
    match e {
        Expr::Var(v) => row.get(v),
        Expr::Const(t) => Some(t),
        _ => None,
    }
}

/// `None` is a type error (an unbound variable, an incomparable pair); a
/// filter keeps a row only on `Some(true)`. `&&` and `||` evaluate left to
/// right and stop at the first operand that decides.
fn holds(e: &Expr, row: &Binding) -> Option<bool> {
    Some(match e {
        Expr::Bound(v) => row.contains_key(v),
        Expr::Not(a) => !holds(a, row)?,
        Expr::And(a, b) => holds(a, row)? && holds(b, row)?,
        Expr::Or(a, b) => holds(a, row)? || holds(b, row)?,
        Expr::Compare(op, a, b) => {
            let ord = value_order(operand(a, row)?, operand(b, row)?)?;
            match op {
                CompareOp::Eq => ord.is_eq(),
                CompareOp::Ne => ord.is_ne(),
                CompareOp::Lt => ord.is_lt(),
                CompareOp::Le => ord.is_le(),
                CompareOp::Gt => ord.is_gt(),
                CompareOp::Ge => ord.is_ge(),
            }
        }
        Expr::Regex(target, pattern) => {
            let s = text_of(operand(target, row)?)?;
            let (from_start, rest) = match pattern.strip_prefix('^') {
                Some(rest) => (true, rest),
                None => (false, pattern.as_str()),
            };
            let to_end = pattern.len() > 1 && pattern.ends_with('$');
            let body = if to_end {
                &rest[..rest.len() - 1]
            } else {
                rest
            };
            match (from_start, to_end) {
                (true, true) => s == body,
                (true, false) => s.starts_with(body),
                (false, true) => s.ends_with(body),
                (false, false) => s.contains(body),
            }
        }
        Expr::StrStarts(a, b) => text_of(operand(a, row)?)?.starts_with(text_of(operand(b, row)?)?),
        Expr::StrEnds(a, b) => text_of(operand(a, row)?)?.ends_with(text_of(operand(b, row)?)?),
        Expr::Contains(a, b) => text_of(operand(a, row)?)?.contains(text_of(operand(b, row)?)?),
        Expr::Var(_) | Expr::Const(_) => match operand(e, row)? {
            Term::Literal(l) => l.lexical() == "true" || l.as_f64().is_some_and(|v| v != 0.0),
            _ => return None,
        },
    })
}

/// Rows without an `ORDER BY` come out by this key.
fn row_key(row: &Binding) -> String {
    row.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("|")
}

fn order_cmp(order_by: &[(String, bool)], a: &Binding, b: &Binding) -> Ordering {
    for (var, desc) in order_by {
        let ord = match (a.get(var), b.get(var)) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => {
                value_order(x, y).unwrap_or_else(|| x.to_string().cmp(&y.to_string()))
            }
        };
        let ord = if *desc { ord.reverse() } else { ord };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

struct Reference {
    vars: Vec<String>,
    /// Every row, ordered, before `OFFSET` / `LIMIT`.
    rows: Vec<Binding>,
    /// Two different rows compare equal under the query's `ORDER BY`.
    ties: bool,
}

/// `None`: the nested loops outgrew what a test case should cost.
fn reference(q: &Query, triples: &[Triple]) -> Option<Reference> {
    let mut rows = vec![Binding::new()];
    let mut pattern_vars = BTreeSet::new();
    for p in &q.patterns {
        let Pattern::Triple {
            subject,
            path,
            object,
        } = p
        else {
            continue;
        };
        pattern_vars.extend(
            [subject, object]
                .iter()
                .filter_map(|e| Some(e.var()?.to_string())),
        );
        let pairs = relation(triples, path);
        let mut next = Vec::new();
        for row in &rows {
            for (s, o) in &pairs {
                if let Some(bound) = unify(row, subject, s).and_then(|r| unify(&r, object, o)) {
                    next.push(bound);
                }
            }
        }
        if next.len() > 200_000 {
            return None;
        }
        rows = next;
    }
    for p in &q.patterns {
        if let Pattern::Filter(e) = p {
            rows.retain(|row| holds(e, row) == Some(true));
        }
    }

    let (vars, mut rows): (Vec<String>, Vec<Binding>) = match &q.aggregate {
        Some(agg) => {
            let mut groups: BTreeMap<Vec<String>, Vec<Binding>> = BTreeMap::new();
            for row in rows {
                let key = q
                    .group_by
                    .iter()
                    .map(|v| row.get(v).map(Term::to_string).unwrap_or_default())
                    .collect();
                groups.entry(key).or_default().push(row);
            }
            let rows = groups
                .into_values()
                .map(|members| {
                    let count = match &agg.var {
                        None => members.len(),
                        Some(v) if agg.distinct => members
                            .iter()
                            .filter_map(|r| r.get(v))
                            .collect::<BTreeSet<_>>()
                            .len(),
                        Some(v) => members.iter().filter(|r| r.contains_key(v)).count(),
                    };
                    let mut out: Binding = q
                        .group_by
                        .iter()
                        .filter_map(|v| Some((v.clone(), members[0].get(v)?.clone())))
                        .collect();
                    out.insert(agg.alias.clone(), Literal::integer(count as i64).into());
                    out
                })
                .collect();
            let mut vars = if q.projection.is_empty() {
                q.group_by.clone()
            } else {
                q.projection.clone()
            };
            vars.push(agg.alias.clone());
            (vars, rows)
        }
        None => {
            let vars: Vec<String> = if q.projection.is_empty() {
                pattern_vars.into_iter().collect()
            } else {
                q.projection.clone()
            };
            let rows = rows
                .into_iter()
                .map(|row| {
                    vars.iter()
                        .filter_map(|v| Some((v.clone(), row.get(v)?.clone())))
                        .collect()
                })
                .collect();
            (vars, rows)
        }
    };

    if q.distinct {
        let mut seen = BTreeSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    let mut ties = false;
    if q.order_by.is_empty() {
        rows.sort_by_key(row_key);
    } else {
        rows.sort_by(|a, b| order_cmp(&q.order_by, a, b));
        ties = rows
            .windows(2)
            .any(|w| w[0] != w[1] && order_cmp(&q.order_by, &w[0], &w[1]).is_eq());
    }
    Some(Reference { vars, rows, ties })
}

/// The engine's rows, each the map of the pairs its row view yields.
fn bindings(s: &Solutions) -> Vec<Binding> {
    let binding = |row: Row<'_>| row.iter().map(|(n, t)| (n.to_string(), t.clone())).collect();
    s.rows().map(binding).collect()
}

fn window(q: &Query, rows: &[Binding]) -> Vec<Binding> {
    rows.iter()
        .skip(q.offset)
        .take(q.limit.unwrap_or(usize::MAX))
        .cloned()
        .collect()
}

fn as_multiset(rows: &[Binding]) -> Vec<Binding> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

fn build(triples: &[Triple]) -> Graph {
    triples.iter().cloned().collect()
}

/// The first property, on the case `seed` generates. The graph is queried
/// once part-built, so the indexes the answer reads were built, dropped by
/// the inserts that follow, and built again.
fn check_against_reference(seed: u64) {
    let mut g = Gen(seed);
    let (triples, product, eager) = gen_graph(&mut g);
    let q = gen_query(&mut g, &eager);
    let (head, tail) = triples.split_at(g.below(triples.len() + 1));
    let mut graph = build(head);
    let _ = q.execute_with_budget(&graph, CASE_BUDGET);
    graph.extend(tail.iter().cloned());
    if let Some(product) = &product {
        if g.chance(50) {
            // Built indexes, which the product counts stored edges from.
            let _ = q.execute_with_budget(&graph, CASE_BUDGET);
        }
        product.add_to(&mut graph);
    }
    let Ok(got) = q.execute_with_budget(&graph, CASE_BUDGET) else {
        return;
    };
    let Some(want) = reference(&q, &eager) else {
        return;
    };
    let case = format!("seed {seed}\n{q:#?}\n{eager:#?}");
    assert_eq!(got.vars, want.vars, "{case}");
    let got = bindings(&got);
    if !want.ties {
        assert_eq!(got, window(&q, &want.rows), "{case}");
        return;
    }
    // Ties: any order of the tied rows is a right answer.
    let mut whole = q.clone();
    (whole.limit, whole.offset) = (None, 0);
    let all = bindings(&whole.execute(&graph));
    assert_eq!(as_multiset(&all), as_multiset(&want.rows), "{case}");
    for rows in [&all, &got] {
        assert!(
            rows.windows(2)
                .all(|w| order_cmp(&q.order_by, &w[0], &w[1]).is_le()),
            "not sorted: {rows:#?}\n{case}"
        );
    }
    assert_eq!(got.len(), window(&q, &want.rows).len(), "{case}");
    assert!(got.iter().all(|r| want.rows.contains(r)), "{case}");
}

/// The second property, on the case `seed` generates.
fn check_budget(seed: u64, budget: u64) {
    let mut g = Gen(seed);
    let (triples, product, eager) = gen_graph(&mut g);
    let q = gen_query(&mut g, &eager);
    let mut graph = build(&triples);
    if let Some(product) = &product {
        product.add_to(&mut graph);
    }
    let Ok(full) = q.execute_with_budget(&graph, CASE_BUDGET) else {
        return;
    };
    let case = format!("seed {seed} budget {budget}\n{q:#?}\n{eager:#?}");
    match q.execute_with_budget(&graph, budget) {
        Err(e) => assert_eq!(e, QueryError::BudgetExhausted { budget }, "{case}"),
        Ok(got) => {
            assert_eq!(got.vars, full.vars, "{case}");
            let (got, full) = (bindings(&got), bindings(&full));
            if q.order_by.is_empty() {
                assert_eq!(got, full, "{case}");
            } else {
                // Tied rows may come out in either order, so a window
                // over them may hold either.
                assert_eq!(got.len(), full.len(), "{case}");
                if q.limit.is_none() && q.offset == 0 {
                    assert_eq!(as_multiset(&got), as_multiset(&full), "{case}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn engine_matches_the_reference(seed in any::<u64>()) {
        check_against_reference(seed);
    }

    #[test]
    fn a_finite_budget_never_truncates(seed in any::<u64>(), budget in 0u64..300) {
        check_budget(seed, budget);
    }
}
