//! Query evaluation: greedy join ordering over the graph indexes, path
//! delegation, filter application, and solution modifiers.

use crate::ast::{CompareOp, Expr, PathExpr, Pattern, Query, TermOrVar};
use crate::path::{eval_path_budgeted, eval_path_from_budgeted};
use crate::QueryError;
use provio_rdf::{Graph, Term, TriplePattern};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

/// A step budget for one evaluation. Every candidate binding produced by a
/// join and every edge expanded by a path walk costs one step; exhausting
/// the budget aborts the query with [`QueryError::BudgetExhausted`] instead
/// of letting a pathological join or closure spin unbounded.
pub(crate) struct Budget {
    limit: u64,
    remaining: u64,
}

impl Budget {
    pub(crate) fn new(limit: u64) -> Self {
        Budget {
            limit,
            remaining: limit,
        }
    }

    pub(crate) fn unlimited() -> Self {
        Budget::new(u64::MAX)
    }

    /// Spend `steps`; errors once the budget runs dry.
    pub(crate) fn charge(&mut self, steps: u64) -> Result<(), QueryError> {
        if steps > self.remaining {
            self.remaining = 0;
            return Err(QueryError::BudgetExhausted { budget: self.limit });
        }
        self.remaining -= steps;
        Ok(())
    }
}

/// One solution row: variable name → bound term.
pub type Binding = BTreeMap<String, Term>;

/// The result of executing a query.
#[derive(Debug, Clone)]
pub struct Solutions {
    /// Projected variable names, in projection order.
    pub vars: Vec<String>,
    /// One binding per solution.
    pub rows: Vec<Binding>,
}

impl Solutions {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table (used by the experiment harness).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.vars.iter().map(|v| v.len() + 1).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                self.vars
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = r.get(v).map(|t| t.to_string()).unwrap_or_default();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", format!("?{v}"), w = widths[i]));
        }
        out.push('\n');
        for row in cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl Query {
    /// Execute against `graph` with no step limit.
    pub fn execute(&self, graph: &Graph) -> Solutions {
        self.execute_with_budget(graph, u64::MAX)
            .expect("an unlimited budget cannot be exhausted")
    }

    /// Execute against `graph`, aborting with
    /// [`QueryError::BudgetExhausted`] once evaluation has taken more than
    /// `budget` steps (joined candidate rows + path-walk edge expansions).
    pub fn execute_with_budget(
        &self,
        graph: &Graph,
        budget: u64,
    ) -> Result<Solutions, QueryError> {
        let mut budget = Budget::new(budget);
        let mut triples: Vec<(TermOrVar, PathExpr, TermOrVar)> = Vec::new();
        let mut filters: Vec<Expr> = Vec::new();
        for p in &self.patterns {
            match p {
                Pattern::Triple {
                    subject,
                    path,
                    object,
                } => triples.push((subject.clone(), path.clone(), object.clone())),
                Pattern::Filter(e) => filters.push(e.clone()),
            }
        }

        let mut pending_filters: Vec<(HashSet<String>, Expr)> = filters
            .into_iter()
            .map(|e| (expr_vars(&e), e))
            .collect();

        let mut rows: Vec<Binding> = vec![Binding::new()];
        let mut remaining = triples;
        let mut bound_vars: HashSet<String> = HashSet::new();

        while !remaining.is_empty() {
            // Greedy: next pattern = most bound positions (terms or already
            // bound vars), tie-broken by index cardinality when fully
            // concrete.
            let idx = (0..remaining.len())
                .max_by_key(|&i| {
                    let (s, _, o) = &remaining[i];
                    let score = |t: &TermOrVar| match t {
                        TermOrVar::Term(_) => 2usize,
                        TermOrVar::Var(v) if bound_vars.contains(v) => 2,
                        TermOrVar::Var(_) => 0,
                    };
                    score(s) + score(o)
                })
                .expect("non-empty");
            let (subject, path, object) = remaining.swap_remove(idx);

            let mut next_rows: Vec<Binding> = Vec::new();
            for row in &rows {
                extend_row(
                    graph,
                    row,
                    &subject,
                    &path,
                    &object,
                    &mut next_rows,
                    &mut budget,
                )?;
            }
            rows = next_rows;

            if let Some(v) = subject.var() {
                bound_vars.insert(v.to_string());
            }
            if let Some(v) = object.var() {
                bound_vars.insert(v.to_string());
            }

            // Apply every filter whose variables are now all bound.
            pending_filters.retain(|(vars, expr)| {
                if vars.is_subset(&bound_vars) {
                    rows.retain(|row| eval_expr(expr, row).unwrap_or(false));
                    false
                } else {
                    true
                }
            });

            if rows.is_empty() {
                break;
            }
        }

        // Any filter never applied (unbound vars): SPARQL says unbound ⇒
        // type error ⇒ row dropped.
        if !pending_filters.is_empty() {
            rows.retain(|row| {
                pending_filters
                    .iter()
                    .all(|(_, e)| eval_expr(e, row).unwrap_or(false))
            });
        }

        // Aggregation (COUNT with optional GROUP BY) or plain projection.
        let (vars, mut rows): (Vec<String>, Vec<Binding>) = if let Some(agg) = &self.aggregate {
            let mut groups: BTreeMap<Vec<String>, Vec<&Binding>> = BTreeMap::new();
            for row in &rows {
                let key: Vec<String> = self
                    .group_by
                    .iter()
                    .map(|v| row.get(v).map(|t| t.to_string()).unwrap_or_default())
                    .collect();
                groups.entry(key).or_default().push(row);
            }
            let mut out = Vec::with_capacity(groups.len());
            for members in groups.into_values() {
                let count = match &agg.var {
                    None => members.len(),
                    Some(v) if agg.distinct => members
                        .iter()
                        .filter_map(|r| r.get(v))
                        .map(|t| t.to_string())
                        .collect::<HashSet<String>>()
                        .len(),
                    Some(v) => members.iter().filter(|r| r.contains_key(v)).count(),
                };
                let mut b = Binding::new();
                for gv in &self.group_by {
                    if let Some(t) = members[0].get(gv) {
                        b.insert(gv.clone(), t.clone());
                    }
                }
                b.insert(
                    agg.alias.clone(),
                    Term::Literal(provio_rdf::Literal::integer(count as i64)),
                );
                out.push(b);
            }
            let mut vars: Vec<String> = if self.projection.is_empty() {
                self.group_by.clone()
            } else {
                self.projection.clone()
            };
            vars.push(agg.alias.clone());
            (vars, out)
        } else {
            let vars: Vec<String> = if self.projection.is_empty() {
                let mut vs: Vec<String> = bound_vars.into_iter().collect();
                vs.sort();
                vs
            } else {
                self.projection.clone()
            };
            let rows = rows
                .into_iter()
                .map(|row| {
                    vars.iter()
                        .filter_map(|v| row.get(v).map(|t| (v.clone(), t.clone())))
                        .collect()
                })
                .collect();
            (vars, rows)
        };

        if self.distinct {
            let mut seen = HashSet::new();
            rows.retain(|r| {
                let key: Vec<(String, String)> = r
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_string()))
                    .collect();
                seen.insert(key)
            });
        }

        if !self.order_by.is_empty() {
            rows.sort_by(|a, b| {
                for (var, desc) in &self.order_by {
                    let ord = compare_terms(a.get(var), b.get(var));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        } else {
            // Deterministic output even without ORDER BY.
            rows.sort_by_key(|r| {
                r.iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join("|")
            });
        }

        let rows: Vec<Binding> = rows
            .into_iter()
            .skip(self.offset)
            .take(self.limit.unwrap_or(usize::MAX))
            .collect();

        Ok(Solutions { vars, rows })
    }
}

/// Extend one partial binding through one (possibly path-) triple pattern.
#[allow(clippy::too_many_arguments)]
fn extend_row(
    graph: &Graph,
    row: &Binding,
    subject: &TermOrVar,
    path: &PathExpr,
    object: &TermOrVar,
    out: &mut Vec<Binding>,
    budget: &mut Budget,
) -> Result<(), QueryError> {
    let s_term = resolve(row, subject);
    let o_term = resolve(row, object);

    if let Some(pred) = path.as_plain() {
        // Plain predicate: one index lookup.
        let s_sub = match &s_term {
            Some(t) => match t.as_subject() {
                Some(s) => Some(s),
                None => return Ok(()), // literal subject can never match
            },
            None => None,
        };
        let mut pat = TriplePattern::any().with_predicate(pred.clone());
        if let Some(s) = s_sub {
            pat = pat.with_subject(s);
        }
        if let Some(o) = &o_term {
            pat = pat.with_object(o.clone());
        }
        let matches = graph.match_pattern(&pat);
        budget.charge(matches.len() as u64 + 1)?;
        for m in matches {
            push_binding(
                row,
                subject,
                &Term::from(m.subject),
                object,
                &m.object,
                out,
            );
        }
        return Ok(());
    }

    // Property path.
    match (&s_term, &o_term) {
        (Some(s), _) => {
            for reached in eval_path_from_budgeted(graph, path, s, budget)? {
                if let Some(o) = &o_term {
                    if *o != reached {
                        continue;
                    }
                }
                budget.charge(1)?;
                push_binding(row, subject, s, object, &reached, out);
            }
        }
        (None, Some(o)) => {
            // Evaluate the inverse path from the object.
            let inv = PathExpr::Inverse(Box::new(path.clone()));
            for reached in eval_path_from_budgeted(graph, &inv, o, budget)? {
                budget.charge(1)?;
                push_binding(row, subject, &reached, object, o, out);
            }
        }
        (None, None) => {
            for (s, o) in eval_path_budgeted(graph, path, budget)? {
                budget.charge(1)?;
                push_binding(row, subject, &s, object, &o, out);
            }
        }
    }
    Ok(())
}

fn resolve(row: &Binding, tv: &TermOrVar) -> Option<Term> {
    match tv {
        TermOrVar::Term(t) => Some(t.clone()),
        TermOrVar::Var(v) => row.get(v).cloned(),
    }
}

fn push_binding(
    row: &Binding,
    subject: &TermOrVar,
    s_val: &Term,
    object: &TermOrVar,
    o_val: &Term,
    out: &mut Vec<Binding>,
) {
    let mut new = row.clone();
    if let TermOrVar::Var(v) = subject {
        if let Some(existing) = new.get(v) {
            if existing != s_val {
                return;
            }
        }
        new.insert(v.clone(), s_val.clone());
    }
    if let TermOrVar::Var(v) = object {
        if let Some(existing) = new.get(v) {
            if existing != o_val {
                return;
            }
        }
        new.insert(v.clone(), o_val.clone());
    }
    out.push(new);
}

fn expr_vars(e: &Expr) -> HashSet<String> {
    let mut vars = HashSet::new();
    collect_vars(e, &mut vars);
    vars
}

fn collect_vars(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::Var(v) | Expr::Bound(v) => {
            out.insert(v.clone());
        }
        Expr::Const(_) => {}
        Expr::Compare(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::StrStarts(a, b)
        | Expr::StrEnds(a, b)
        | Expr::Contains(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        Expr::Not(a) | Expr::Regex(a, _) => collect_vars(a, out),
    }
}

/// Evaluate a filter expression to a boolean. `None` = SPARQL type error
/// (e.g. unbound variable), which drops the row.
fn eval_expr(e: &Expr, row: &Binding) -> Option<bool> {
    match e {
        Expr::Bound(v) => Some(row.contains_key(v)),
        Expr::And(a, b) => Some(eval_expr(a, row)? && eval_expr(b, row)?),
        Expr::Or(a, b) => Some(eval_expr(a, row)? || eval_expr(b, row)?),
        Expr::Not(a) => Some(!eval_expr(a, row)?),
        Expr::Compare(op, a, b) => {
            let ta = eval_value(a, row)?;
            let tb = eval_value(b, row)?;
            let ord = value_compare(&ta, &tb)?;
            Some(match op {
                CompareOp::Eq => ord == Ordering::Equal,
                CompareOp::Ne => ord != Ordering::Equal,
                CompareOp::Lt => ord == Ordering::Less,
                CompareOp::Le => ord != Ordering::Greater,
                CompareOp::Gt => ord == Ordering::Greater,
                CompareOp::Ge => ord != Ordering::Less,
            })
        }
        Expr::Regex(target, pattern) => {
            let s = string_value(&eval_value(target, row)?)?;
            Some(regex_lite(&s, pattern))
        }
        Expr::StrStarts(a, b) => {
            let sa = string_value(&eval_value(a, row)?)?;
            let sb = string_value(&eval_value(b, row)?)?;
            Some(sa.starts_with(&sb))
        }
        Expr::StrEnds(a, b) => {
            let sa = string_value(&eval_value(a, row)?)?;
            let sb = string_value(&eval_value(b, row)?)?;
            Some(sa.ends_with(&sb))
        }
        Expr::Contains(a, b) => {
            let sa = string_value(&eval_value(a, row)?)?;
            let sb = string_value(&eval_value(b, row)?)?;
            Some(sa.contains(&sb))
        }
        Expr::Var(_) | Expr::Const(_) => {
            // Effective boolean value of a bare term.
            let t = eval_value(e, row)?;
            match &t {
                Term::Literal(l) => Some(l.lexical() == "true" || l.as_f64().is_some_and(|v| v != 0.0)),
                _ => None,
            }
        }
    }
}

fn eval_value(e: &Expr, row: &Binding) -> Option<Term> {
    match e {
        Expr::Var(v) => row.get(v).cloned(),
        Expr::Const(t) => Some(t.clone()),
        _ => None,
    }
}

fn string_value(t: &Term) -> Option<String> {
    match t {
        Term::Literal(l) => Some(l.lexical().to_string()),
        Term::Iri(i) => Some(i.as_str().to_string()),
        Term::Blank(_) => None,
    }
}

/// SPARQL-ish value comparison: numeric when both sides parse as numbers,
/// otherwise lexical string comparison within the same term kind.
fn value_compare(a: &Term, b: &Term) -> Option<Ordering> {
    if let (Term::Literal(la), Term::Literal(lb)) = (a, b) {
        if let (Some(na), Some(nb)) = (la.as_f64(), lb.as_f64()) {
            return na.partial_cmp(&nb);
        }
        return Some(la.lexical().cmp(lb.lexical()));
    }
    match (a, b) {
        (Term::Iri(x), Term::Iri(y)) => Some(x.as_str().cmp(y.as_str())),
        _ => {
            if a == b {
                Some(Ordering::Equal)
            } else {
                None
            }
        }
    }
}

fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => value_compare(x, y).unwrap_or_else(|| {
            x.to_string().cmp(&y.to_string())
        }),
    }
}

/// Tiny regex: supports `^`/`$` anchors around a literal pattern; anything
/// else is substring search. Enough for the paper's query shapes.
fn regex_lite(s: &str, pattern: &str) -> bool {
    let starts = pattern.starts_with('^');
    let ends = pattern.ends_with('$') && pattern.len() > 1;
    let body = &pattern[starts as usize..pattern.len() - (ends as usize)];
    match (starts, ends) {
        (true, true) => s == body,
        (true, false) => s.starts_with(body),
        (false, true) => s.ends_with(body),
        (false, false) => s.contains(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_rdf::{turtle, Literal};

    fn graph() -> Graph {
        let (g, _) = turtle::parse(
            r#"
            @prefix ex: <http://e/> .
            @prefix prov: <http://www.w3.org/ns/prov#> .
            ex:decimate.h5 prov:wasAttributedTo ex:decimate .
            ex:WestSac.h5 prov:wasAttributedTo ex:tdms2h5 .
            ex:decimate.h5 prov:wasDerivedFrom ex:WestSac.h5 .
            ex:WestSac.h5 prov:wasDerivedFrom ex:WestSac.tdms .
            ex:decimate ex:ran_on ex:node1 .
            ex:api1 ex:elapsed 5 .
            ex:api2 ex:elapsed 12 .
            ex:api3 ex:elapsed 7 .
            ex:api1 a ex:Read .
            ex:api2 a ex:Read .
            ex:api3 a ex:Write .
        "#,
        )
        .unwrap();
        g
    }

    fn run(q: &str) -> Solutions {
        Query::parse(q).unwrap().execute(&graph())
    }

    #[test]
    fn single_pattern_bound_subject() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?p WHERE { ex:decimate.h5 prov:wasAttributedTo ?p . }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0]["p"].to_string(), "<http://e/decimate>");
    }

    #[test]
    fn join_two_patterns() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?file ?node WHERE { ?file prov:wasAttributedTo ?prog . ?prog ex:ran_on ?node . }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0]["file"].to_string(), "<http://e/decimate.h5>");
        assert_eq!(s.rows[0]["node"].to_string(), "<http://e/node1>");
    }

    #[test]
    fn transitive_lineage_via_path() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?origin WHERE { ex:decimate.h5 prov:wasDerivedFrom+ ?origin . }",
        );
        let mut names: Vec<String> = s.rows.iter().map(|r| r["origin"].to_string()).collect();
        names.sort();
        assert_eq!(
            names,
            vec!["<http://e/WestSac.h5>", "<http://e/WestSac.tdms>"]
        );
    }

    #[test]
    fn inverse_path_from_object() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?product WHERE { ?product prov:wasDerivedFrom+ ex:WestSac.tdms . }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn filter_numeric_comparison() {
        let s = run(
            "PREFIX ex: <http://e/> \
             SELECT ?api WHERE { ?api ex:elapsed ?d . FILTER(?d > 6) } ORDER BY ?api",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows[0]["api"].to_string(), "<http://e/api2>");
        assert_eq!(s.rows[1]["api"].to_string(), "<http://e/api3>");
    }

    #[test]
    fn filter_boolean_combinators() {
        let s = run(
            "PREFIX ex: <http://e/> \
             SELECT ?api WHERE { ?api ex:elapsed ?d . FILTER(?d > 6 && !(?d >= 12)) }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0]["api"].to_string(), "<http://e/api3>");
    }

    #[test]
    fn type_pattern_with_a() {
        let s = run(
            "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x a ex:Read . } ORDER BY ?x",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn distinct_and_limit() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT DISTINCT ?p WHERE { ?s prov:wasAttributedTo ?p . } LIMIT 1",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn order_by_desc_numeric() {
        let s = run(
            "PREFIX ex: <http://e/> \
             SELECT ?api ?d WHERE { ?api ex:elapsed ?d . } ORDER BY DESC(?d)",
        );
        let ds: Vec<i64> = s
            .rows
            .iter()
            .map(|r| r["d"].as_literal().unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ds, vec![12, 7, 5]);
    }

    #[test]
    fn select_star_binds_all() {
        let s = run("PREFIX ex: <http://e/> SELECT * WHERE { ?api ex:elapsed ?d . }");
        assert_eq!(s.vars, vec!["api", "d"]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn shared_variable_join_consistency() {
        // ?x must bind consistently across both patterns.
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?x WHERE { ?x prov:wasDerivedFrom ?y . ?x prov:wasAttributedTo ex:decimate . }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0]["x"].to_string(), "<http://e/decimate.h5>");
    }

    #[test]
    fn no_match_is_empty() {
        let s = run("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:nothere ?y . }");
        assert!(s.is_empty());
    }

    #[test]
    fn strstarts_on_literal() {
        let mut g = graph();
        g.insert(&provio_rdf::Triple::new(
            provio_rdf::Subject::iri("http://e/f1"),
            provio_rdf::Iri::new("http://e/name"),
            Literal::plain("decimate.h5"),
        ));
        let q = Query::parse(
            "PREFIX ex: <http://e/> \
             SELECT ?f WHERE { ?f ex:name ?n . FILTER(STRSTARTS(?n, \"dec\")) }",
        )
        .unwrap();
        assert_eq!(q.execute(&g).len(), 1);
    }

    #[test]
    fn regex_anchors() {
        assert!(regex_lite("decimate.h5", "^dec"));
        assert!(regex_lite("decimate.h5", "h5$"));
        assert!(regex_lite("decimate.h5", "^decimate.h5$"));
        assert!(regex_lite("decimate.h5", "mate"));
        assert!(!regex_lite("decimate.h5", "^h5"));
    }

    #[test]
    fn to_table_renders() {
        let s = run("PREFIX ex: <http://e/> SELECT ?api ?d WHERE { ?api ex:elapsed ?d . }");
        let t = s.to_table();
        assert!(t.contains("?api"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn count_star() {
        let s = run("SELECT (COUNT(*) AS ?n) WHERE { ?x a ?t . }");
        assert_eq!(s.vars, vec!["n"]);
        assert_eq!(s.rows[0]["n"].as_literal().unwrap().as_i64(), Some(3));
    }

    #[test]
    fn count_group_by_type() {
        // The H5bench scenario-1 question: how many of each API class?
        let s = run(
            "PREFIX ex: <http://e/>              SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t . } GROUP BY ?t ORDER BY ?t",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows[0]["t"].to_string(), "<http://e/Read>");
        assert_eq!(s.rows[0]["n"].as_literal().unwrap().as_i64(), Some(2));
        assert_eq!(s.rows[1]["t"].to_string(), "<http://e/Write>");
        assert_eq!(s.rows[1]["n"].as_literal().unwrap().as_i64(), Some(1));
    }

    #[test]
    fn count_distinct() {
        // Three elapsed triples but two distinct subjects > 5.
        let s = run(
            "PREFIX ex: <http://e/>              SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ex:elapsed ?d . FILTER(?d > 5) }",
        );
        assert_eq!(s.rows[0]["n"].as_literal().unwrap().as_i64(), Some(2));
    }

    #[test]
    fn count_with_order_and_limit() {
        let s = run(
            "PREFIX ex: <http://e/>              SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t . } GROUP BY ?t              ORDER BY DESC(?n) LIMIT 1",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0]["n"].as_literal().unwrap().as_i64(), Some(2));
    }

    #[test]
    fn group_by_without_count_rejected() {
        assert!(Query::parse("SELECT ?t WHERE { ?x a ?t . } GROUP BY ?t").is_err());
    }

    #[test]
    fn budget_cuts_off_a_wide_join() {
        // Two fully unbound patterns: |elapsed| × |type| candidate rows.
        let q = Query::parse(
            "PREFIX ex: <http://e/> \
             SELECT ?x ?y WHERE { ?x ex:elapsed ?d . ?y a ?t . }",
        )
        .unwrap();
        let g = graph();
        let err = q.execute_with_budget(&g, 3).unwrap_err();
        assert_eq!(err, QueryError::BudgetExhausted { budget: 3 });
        assert!(err.to_string().contains("budget of 3 steps"));

        // A generous budget returns exactly what the unlimited path does.
        let ok = q.execute_with_budget(&g, 10_000).unwrap();
        assert_eq!(ok.len(), q.execute(&g).len());
    }

    #[test]
    fn budget_cuts_off_a_closure_walk() {
        // Dense cyclic graph: every node derives from every other, so the
        // transitive closure is quadratic.
        let mut g = Graph::new();
        for i in 0..20 {
            for j in 0..20 {
                if i != j {
                    g.insert(&provio_rdf::Triple::new(
                        provio_rdf::Subject::iri(format!("urn:n{i}")),
                        provio_rdf::Iri::new("urn:d"),
                        Term::iri(format!("urn:n{j}")),
                    ));
                }
            }
        }
        let q = Query::parse("SELECT ?a ?b WHERE { ?a <urn:d>+ ?b . }").unwrap();
        assert!(matches!(
            q.execute_with_budget(&g, 50),
            Err(QueryError::BudgetExhausted { budget: 50 })
        ));
        let full = q.execute_with_budget(&g, u64::MAX).unwrap();
        assert_eq!(full.len(), 20 * 20); // cycles make every node reach all
    }

    #[test]
    fn results_are_deterministic_without_order_by() {
        let a = run("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:elapsed ?d . }");
        let b = run("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:elapsed ?d . }");
        let ra: Vec<String> = a.rows.iter().map(|r| r["x"].to_string()).collect();
        let rb: Vec<String> = b.rows.iter().map(|r| r["x"].to_string()).collect();
        assert_eq!(ra, rb);
    }
}
