//! Query evaluation on term ids.
//!
//! A query runs in four stages, and only the last one handles terms as
//! values:
//!
//! 1. **Resolve.** The WHERE clause's variables get columns in a per-query
//!    table; every constant term and path predicate is looked up in the
//!    graph once ([`Terms`]). A term the graph has never seen gets an id
//!    past the graph's own, which matches no triple.
//! 2. **Join.** A partial solution is a fixed-width row of
//!    `Option<TermId>`, all rows of a step in one allocation. Patterns are
//!    taken greedily — most bound positions first, ties to the smaller
//!    index estimate — and each row is extended through
//!    [`Graph::match_ids_into`] (one buffer for every lookup), or through
//!    [`crate::path`] for a property path.
//!    A filter runs as soon as its variables are bound, reading terms by
//!    reference: comparisons and string functions need the lexical form,
//!    nothing else does.
//! 3. **Shape.** `COUNT` / `GROUP BY` hash on id tuples, `DISTINCT` on the
//!    id row. Ordering computes one key per row: under `ORDER BY` the cell
//!    with its number parsed once, otherwise the rendered
//!    `var=term|var=term` line (all rows' keys in one buffer). Ties under
//!    `ORDER BY` keep evaluation order.
//! 4. **Project.** Only the rows inside `OFFSET` / `LIMIT` leave, their
//!    terms cloned into one cell column of [`Solutions`]: no map and no
//!    name per row. A caller reads row `i` through the [`Row`] view.
//!
//! Budget: each index lookup costs one step plus one per candidate row it
//! yields; path evaluation charges per edge (see [`crate::path`]) and one
//! step per row it binds.

use crate::ast::{Aggregate, CompareOp, Expr, Pattern, Query, TermOrVar};
use crate::path::{self, IdPath};
use crate::QueryError;
use provio_rdf::{ntriples, Graph, IdMap, IdSet, Literal, Term, TermId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;

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

/// The result of executing a query: its rows, `len × width` cells in one
/// column, a row's cells in the name order of the variables it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    /// Projected variable names, in projection order.
    pub vars: Vec<String>,
    /// The variables a row carries, in name order: one cell each.
    names: Vec<String>,
    len: usize,
    cells: Vec<Option<Term>>,
}

impl Solutions {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, a slice of the cell column.
    pub fn row(&self, i: usize) -> Row<'_> {
        assert!(i < self.len, "row {i} of {}", self.len);
        let width = self.names.len();
        Row { names: &self.names, cells: &self.cells[i * width..(i + 1) * width] }
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Render as an aligned text table (used by the experiment harness).
    pub fn to_table(&self) -> String {
        let head = self.vars.iter().map(|v| format!("?{v}")).collect();
        let body = self.rows().map(|row| {
            let cell = |v: &String| row.get(v).map(Term::to_string).unwrap_or_default();
            self.vars.iter().map(cell).collect()
        });
        let lines: Vec<Vec<String>> = std::iter::once(head).chain(body).collect();
        let width = |i: usize| lines.iter().map(|line| line[i].len()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..self.vars.len()).map(width).collect();
        let mut out = String::new();
        for line in &lines {
            for (c, w) in line.iter().zip(&widths) {
                write!(out, "{c:<w$}  ").expect("writing to a String");
            }
            out.push('\n');
        }
        out
    }
}

/// One solution row: its variables' cells, read by name.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    names: &'a [String],
    cells: &'a [Option<Term>],
}

impl<'a> Row<'a> {
    /// The term bound to `var`, if the row carries it bound.
    pub fn get(&self, var: &str) -> Option<&'a Term> {
        self.cells[self.names.iter().position(|n| n == var)?].as_ref()
    }

    /// The bound `(name, term)` pairs in name order, unbound cells skipped.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a Term)> {
        let cells = self.names.iter().zip(self.cells);
        cells.filter_map(|(name, cell)| Some((name.as_str(), cell.as_ref()?)))
    }
}

/// The terms of one evaluation, by id: the graph's interned terms under
/// the ids the graph gave them, then the terms only the query knows —
/// constants the graph has never seen, `COUNT` results — numbered on from
/// [`Graph::term_count`]. One term, one id.
pub(crate) struct Terms<'g> {
    pub(crate) graph: &'g Graph,
    own: Vec<Term>,
    own_ids: HashMap<Term, TermId>,
}

impl<'g> Terms<'g> {
    pub(crate) fn new(graph: &'g Graph) -> Self {
        Terms {
            graph,
            own: Vec::new(),
            own_ids: HashMap::new(),
        }
    }

    pub(crate) fn id(&mut self, t: &Term) -> TermId {
        if let Some(id) = self.graph.term_id(t) {
            return id;
        }
        if let Some(&id) = self.own_ids.get(t) {
            return id;
        }
        let id = TermId((self.graph.term_count() + self.own.len()) as u32);
        self.own.push(t.clone());
        self.own_ids.insert(t.clone(), id);
        id
    }

    pub(crate) fn term(&self, id: TermId) -> &Term {
        match (id.0 as usize).checked_sub(self.graph.term_count()) {
            None => self.graph.term(id),
            Some(own) => &self.own[own],
        }
    }

    /// `id` as a key into the graph's indexes: `None` for a term of the
    /// query's own, which no triple holds.
    pub(crate) fn in_graph(&self, id: TermId) -> Option<TermId> {
        ((id.0 as usize) < self.graph.term_count()).then_some(id)
    }
}

type Cell = Option<TermId>;

/// Solution rows of one width, in one allocation.
struct Rows {
    width: usize,
    cells: Vec<Cell>,
}

impl Rows {
    /// No rows of `width` cells (of one, never read, when `width` is 0, so
    /// that a row always has an extent).
    fn new(width: usize) -> Self {
        Rows {
            width: width.max(1),
            cells: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    /// One more row: `cells`, then unbound up to the width.
    fn push(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let at = self.cells.len();
        self.cells.extend(cells);
        self.cells.resize(at + self.width, None);
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Cell> {
        self.cells.chunks_exact(self.width)
    }

    fn row(&self, i: usize) -> &[Cell] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    fn retain(&mut self, mut keep: impl FnMut(&[Cell]) -> bool) {
        let (width, mut kept) = (self.width, 0);
        for at in (0..self.cells.len()).step_by(width) {
            if keep(&self.cells[at..at + width]) {
                self.cells.copy_within(at..at + width, kept);
                kept += width;
            }
        }
        self.cells.truncate(kept);
    }
}

/// One end of a triple pattern.
#[derive(Clone, Copy)]
enum End {
    Term(TermId),
    /// Column of the variable table.
    Var(usize),
}

/// A triple pattern, resolved: its path, and the inverse a bound object
/// walks.
struct Step {
    subject: End,
    path: IdPath,
    inverse: IdPath,
    object: End,
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
        let mut terms = Terms::new(graph);

        // The variable table, in order of first appearance.
        let mut vars: Vec<&str> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut filters: Vec<&Expr> = Vec::new();
        for p in &self.patterns {
            match p {
                Pattern::Triple {
                    subject,
                    path,
                    object,
                } => {
                    steps.push(Step {
                        subject: pattern_end(subject, &mut vars, &mut terms),
                        object: pattern_end(object, &mut vars, &mut terms),
                        path: IdPath::resolve(path, graph, false),
                        inverse: IdPath::resolve(path, graph, true),
                    });
                }
                Pattern::Filter(e) => filters.push(e),
            }
        }
        let column = |name: &str| vars.iter().position(|v| *v == name);

        // A filter waits for the columns it reads; one that names a
        // variable no pattern binds waits to the end.
        let mut pending: Vec<(Option<Vec<usize>>, &Expr)> = filters
            .into_iter()
            .map(|e| {
                let mut names = Vec::new();
                collect_vars(e, &mut names);
                (names.into_iter().map(column).collect(), e)
            })
            .collect();

        // A SPARQL type error (e.g. an unbound variable) drops the row.
        let passes = |expr: &Expr, row: &[Cell]| {
            let view = View {
                vars: &vars,
                row,
                terms: &terms,
            };
            eval_expr(expr, &view).unwrap_or(false)
        };

        let mut rows = Rows::new(vars.len());
        rows.push([]); // the one empty solution
        let mut bound = vec![false; vars.len()];
        while !steps.is_empty() {
            // Greedy: next pattern = most bound positions (terms or already
            // bound vars); among those, the fewest triples the index holds
            // for the pattern's constants.
            let is_bound = |e: End| match e {
                End::Term(_) => true,
                End::Var(c) => bound[c],
            };
            let idx = (0..steps.len())
                .max_by_key(|&i| {
                    let step = &steps[i];
                    let constant = |e: End| match e {
                        End::Term(id) => Some(terms.in_graph(id)),
                        End::Var(_) => None,
                    };
                    let estimate = match step.path {
                        IdPath::Pred(p) => graph.cardinality_estimate(
                            constant(step.subject),
                            Some(p),
                            constant(step.object),
                        ),
                        _ => usize::MAX,
                    };
                    let score = is_bound(step.subject) as u8 + is_bound(step.object) as u8;
                    (score, std::cmp::Reverse(estimate))
                })
                .expect("non-empty");
            let step = steps.swap_remove(idx);

            rows = extend(&terms, &rows, &step, &mut budget)?;
            for end in [step.subject, step.object] {
                if let End::Var(c) = end {
                    bound[c] = true;
                }
            }

            // Apply every filter whose variables are now all bound.
            pending.retain(|(needs, expr)| {
                let ready = needs.as_ref().is_some_and(|n| n.iter().all(|&c| bound[c]));
                if ready {
                    rows.retain(|row| passes(expr, row));
                }
                !ready
            });
        }
        // Any filter never applied (unbound vars): SPARQL says unbound ⇒
        // type error ⇒ row dropped.
        for (_, expr) in pending {
            rows.retain(|row| passes(expr, row));
        }

        // Aggregation (COUNT with optional GROUP BY) or plain projection:
        // `header` is what the caller asked to see, `names` the variables
        // a result row carries, in name order — for a COUNT, the GROUP BY
        // variables and the alias, whatever the projection lists.
        let mut header = self.projection.clone();
        let mut names: Vec<&str> = Vec::new();
        let listed = match &self.aggregate {
            Some(agg) => {
                if header.is_empty() {
                    header.clone_from(&self.group_by);
                }
                header.push(agg.alias.clone());
                self.group_by.iter().chain([&agg.alias]).collect()
            }
            None if header.is_empty() => {
                // `SELECT *`: every variable of the WHERE clause, by name.
                names.clone_from(&vars);
                names.sort_unstable();
                header = names.iter().map(|v| v.to_string()).collect();
                Vec::new()
            }
            None => self.projection.iter().collect::<Vec<_>>(),
        };
        for name in listed {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        names.sort_unstable();
        let from: Vec<Option<usize>> = names.iter().map(|n| column(n)).collect();
        let mut out = Rows::new(names.len());
        match &self.aggregate {
            Some(agg) => {
                let alias = names.iter().position(|n| *n == agg.alias).expect("listed");
                for (first, count) in self.count_groups(&rows, agg, &column, &terms) {
                    let at = out.cells.len();
                    out.push(project(&from, rows.row(first)));
                    let count = Term::Literal(Literal::integer(count as i64));
                    out.cells[at + alias] = Some(terms.id(&count));
                }
            }
            None => {
                out.cells.reserve(rows.len() * out.width);
                for row in rows.iter() {
                    out.push(project(&from, row));
                }
            }
        }
        let mut rows = out;

        if self.distinct {
            let mut seen: IdSet<&[Cell]> = IdSet::default();
            let keep: Vec<bool> = rows.iter().map(|row| seen.insert(row)).collect();
            let mut keep = keep.into_iter();
            rows.retain(|_| keep.next().expect("one flag per row"));
        }

        let mut order: Vec<usize> = (0..rows.len()).collect();
        if !self.order_by.is_empty() {
            // One key per row and ORDER BY variable: the cell's term, its
            // number parsed once.
            let cols: Vec<Option<usize>> = self
                .order_by
                .iter()
                .map(|(var, _)| names.iter().position(|n| n == var))
                .collect();
            let keys: Vec<Option<(&Term, Option<f64>)>> = rows
                .iter()
                .flat_map(|row| cols.iter().map(|col| col.and_then(|c| row[c])))
                .map(|cell| cell.map(|id| terms.term(id)).map(|t| (t, number(t))))
                .collect();
            let n = cols.len();
            order.sort_by(|&a, &b| {
                for (k, (_, desc)) in self.order_by.iter().enumerate() {
                    let ord = compare_keys(keys[a * n + k], keys[b * n + k]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        } else {
            // Deterministic output even without ORDER BY: rows by their
            // `var=term|var=term` line, variables in name order. Every
            // row's line is spelled once, into one buffer.
            let mut lines = String::new();
            let mut bounds = Vec::with_capacity(rows.len() + 1);
            bounds.push(0);
            for row in rows.iter() {
                let start = lines.len();
                for (name, cell) in names.iter().zip(row) {
                    if let Some(id) = cell {
                        if lines.len() > start {
                            lines.push('|');
                        }
                        lines.extend([*name, "="]);
                        ntriples::push_term(&mut lines, terms.term(*id));
                    }
                }
                bounds.push(lines.len());
            }
            order.sort_by_key(|&i| &lines[bounds[i]..bounds[i + 1]]);
        }

        // Terms are cloned only for the rows that leave, into one column.
        let window = &order[self.offset.min(order.len())..];
        let window = &window[..window.len().min(self.limit.unwrap_or(usize::MAX))];
        let mut cells = Vec::with_capacity(window.len() * names.len());
        for &i in window {
            let row = &rows.row(i)[..names.len()];
            cells.extend(row.iter().map(|cell| cell.map(|id| terms.term(id).clone())));
        }
        let names = names.into_iter().map(String::from).collect();
        Ok(Solutions { vars: header, names, len: window.len(), cells })
    }

    /// `COUNT` per group: (index of the group's first row, count).
    fn count_groups(
        &self,
        rows: &Rows,
        agg: &Aggregate,
        column: &impl Fn(&str) -> Option<usize>,
        terms: &Terms<'_>,
    ) -> Vec<(usize, usize)> {
        struct Group {
            first: usize,
            count: usize,
            distinct: IdSet<TermId>,
        }
        let group_cols: Vec<Option<usize>> = self.group_by.iter().map(|v| column(v)).collect();
        // `None`: `COUNT(*)`. A variable no pattern binds counts nothing.
        let counted = agg.var.as_deref().map(column);
        let mut index: IdMap<Vec<Cell>, usize> = IdMap::default();
        let mut groups: Vec<Group> = Vec::new();
        let mut key = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            key.clear();
            key.extend(group_cols.iter().map(|col| col.and_then(|c| row[c])));
            let at = match index.get(&key) {
                Some(&at) => at,
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push(Group {
                        first: i,
                        count: 0,
                        distinct: IdSet::default(),
                    });
                    groups.len() - 1
                }
            };
            let group = &mut groups[at];
            match counted {
                None => group.count += 1,
                Some(col) => {
                    if let Some(id) = col.and_then(|c| row[c]) {
                        if !agg.distinct || group.distinct.insert(id) {
                            group.count += 1;
                        }
                    }
                }
            }
        }
        // ORDER BY is a stable sort over this order: groups by their
        // rendered GROUP BY terms.
        let rendered = |g: &Group| -> Vec<String> {
            group_cols
                .iter()
                .map(|col| col.and_then(|c| rows.row(g.first)[c]))
                .map(|cell| cell.map(|id| terms.term(id).to_string()).unwrap_or_default())
                .collect()
        };
        if !self.order_by.is_empty() {
            groups.sort_by_cached_key(rendered);
        }
        groups.into_iter().map(|g| (g.first, g.count)).collect()
    }
}

/// The cells of `row` at the columns `from`; `None` reads as unbound.
fn project<'a>(from: &'a [Option<usize>], row: &'a [Cell]) -> impl Iterator<Item = Cell> + 'a {
    from.iter().map(|col| col.and_then(|c| row[c]))
}

/// A pattern end as an id or a column, a new variable getting the next one.
fn pattern_end<'q>(e: &'q TermOrVar, vars: &mut Vec<&'q str>, terms: &mut Terms<'_>) -> End {
    match e {
        TermOrVar::Term(t) => End::Term(terms.id(t)),
        TermOrVar::Var(v) => End::Var(vars.iter().position(|held| held == v).unwrap_or_else(|| {
            vars.push(v);
            vars.len() - 1
        })),
    }
}

/// Extend every row through one (possibly path-) triple pattern.
fn extend(
    terms: &Terms<'_>,
    rows: &Rows,
    step: &Step,
    budget: &mut Budget,
) -> Result<Rows, QueryError> {
    let graph = terms.graph;
    let mut out = Rows::new(rows.width);
    let value = |row: &[Cell], e: End| match e {
        End::Term(id) => Some(id),
        End::Var(c) => row[c],
    };
    // A row that agrees with `s` and `o` at the pattern's variables.
    let mut bind = |row: &[Cell], s: TermId, o: TermId| {
        let at = out.cells.len();
        out.cells.extend_from_slice(row);
        for (end, value) in [(step.subject, s), (step.object, o)] {
            if let End::Var(c) = end {
                let cell = &mut out.cells[at + c];
                if cell.is_some_and(|held| held != value) {
                    out.cells.truncate(at);
                    return;
                }
                *cell = Some(value);
            }
        }
    };

    if let IdPath::Pred(p) = step.path {
        // Plain predicate: one index lookup per row, into one buffer.
        let mut matches = Vec::new();
        for row in rows.iter() {
            let (s, o) = (value(row, step.subject), value(row, step.object));
            if s.is_some_and(|s| matches!(terms.term(s), Term::Literal(_))) {
                continue; // literal subject can never match
            }
            matches.clear();
            let (s, o) = (s.map(|s| terms.in_graph(s)), o.map(|o| terms.in_graph(o)));
            graph.match_ids_into(s, Some(p), o, &mut matches);
            budget.charge(matches.len() as u64 + 1)?;
            for &(ms, _, mo) in &matches {
                bind(row, ms, mo);
            }
        }
        return Ok(out);
    }

    // Property path.
    for row in rows.iter() {
        match (value(row, step.subject), value(row, step.object)) {
            (Some(s), o) => {
                for reached in path::reach(terms, &step.path, s, budget)? {
                    if o.is_some_and(|o| o != reached) {
                        continue;
                    }
                    budget.charge(1)?;
                    bind(row, s, reached);
                }
            }
            (None, Some(o)) => {
                // Evaluate the inverse path from the object.
                for reached in path::reach(terms, &step.inverse, o, budget)? {
                    budget.charge(1)?;
                    bind(row, reached, o);
                }
            }
            (None, None) => {
                for (s, o) in path::pairs(graph, &step.path, budget)? {
                    budget.charge(1)?;
                    bind(row, s, o);
                }
            }
        }
    }
    Ok(out)
}

fn collect_vars<'q>(e: &'q Expr, out: &mut Vec<&'q str>) {
    match e {
        Expr::Var(v) | Expr::Bound(v) => out.push(v),
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

/// One row of the variable table, read by variable name.
struct View<'a> {
    vars: &'a [&'a str],
    row: &'a [Cell],
    terms: &'a Terms<'a>,
}

impl<'a> View<'a> {
    fn get(&self, var: &str) -> Option<&'a Term> {
        let column = self.vars.iter().position(|v| *v == var)?;
        Some(self.terms.term(self.row[column]?))
    }
}

/// Evaluate a filter expression to a boolean. `None` = SPARQL type error.
fn eval_expr(e: &Expr, row: &View<'_>) -> Option<bool> {
    match e {
        Expr::Bound(v) => Some(row.get(v).is_some()),
        Expr::And(a, b) => Some(eval_expr(a, row)? && eval_expr(b, row)?),
        Expr::Or(a, b) => Some(eval_expr(a, row)? || eval_expr(b, row)?),
        Expr::Not(a) => Some(!eval_expr(a, row)?),
        Expr::Compare(op, a, b) => {
            let (ta, tb) = (eval_value(a, row)?, eval_value(b, row)?);
            let ord = value_compare((ta, number(ta)), (tb, number(tb)))?;
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
            Some(regex_lite(string_value(eval_value(target, row)?)?, pattern))
        }
        Expr::StrStarts(a, b) => {
            let sa = string_value(eval_value(a, row)?)?;
            Some(sa.starts_with(string_value(eval_value(b, row)?)?))
        }
        Expr::StrEnds(a, b) => {
            let sa = string_value(eval_value(a, row)?)?;
            Some(sa.ends_with(string_value(eval_value(b, row)?)?))
        }
        Expr::Contains(a, b) => {
            let sa = string_value(eval_value(a, row)?)?;
            Some(sa.contains(string_value(eval_value(b, row)?)?))
        }
        Expr::Var(_) | Expr::Const(_) => {
            // Effective boolean value of a bare term.
            match eval_value(e, row)? {
                Term::Literal(l) => {
                    Some(l.lexical() == "true" || l.as_f64().is_some_and(|v| v != 0.0))
                }
                _ => None,
            }
        }
    }
}

fn eval_value<'a>(e: &'a Expr, row: &View<'a>) -> Option<&'a Term> {
    match e {
        Expr::Var(v) => row.get(v),
        Expr::Const(t) => Some(t),
        _ => None,
    }
}

fn string_value(t: &Term) -> Option<&str> {
    match t {
        Term::Literal(l) => Some(l.lexical()),
        Term::Iri(i) => Some(i.as_str()),
        Term::Blank(_) => None,
    }
}

/// The number a literal spells, if it spells one.
fn number(t: &Term) -> Option<f64> {
    t.as_literal()?.as_f64()
}

/// SPARQL-ish value comparison of two terms, each with its [`number`]:
/// numeric when both are numeric literals, otherwise lexical string
/// comparison within the same term kind.
fn value_compare(a: (&Term, Option<f64>), b: (&Term, Option<f64>)) -> Option<Ordering> {
    match (a.0, b.0) {
        (Term::Literal(la), Term::Literal(lb)) => match (a.1, b.1) {
            (Some(na), Some(nb)) => na.partial_cmp(&nb),
            _ => Some(la.lexical().cmp(lb.lexical())),
        },
        (Term::Iri(x), Term::Iri(y)) => Some(x.as_str().cmp(y.as_str())),
        (x, y) => (x == y).then_some(Ordering::Equal),
    }
}

/// ORDER BY on one variable: unbound first, then by value, and by rendered
/// form where values do not compare.
fn compare_keys(a: Option<(&Term, Option<f64>)>, b: Option<(&Term, Option<f64>)>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            value_compare(x, y).unwrap_or_else(|| x.0.to_string().cmp(&y.0.to_string()))
        }
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
    use std::collections::BTreeMap;

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
        assert_eq!(s.row(0).get("p").unwrap().to_string(), "<http://e/decimate>");
    }

    #[test]
    fn join_two_patterns() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?file ?node WHERE { ?file prov:wasAttributedTo ?prog . ?prog ex:ran_on ?node . }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0).get("file").unwrap().to_string(), "<http://e/decimate.h5>");
        assert_eq!(s.row(0).get("node").unwrap().to_string(), "<http://e/node1>");
    }

    #[test]
    fn transitive_lineage_via_path() {
        let s = run(
            "PREFIX ex: <http://e/> PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?origin WHERE { ex:decimate.h5 prov:wasDerivedFrom+ ?origin . }",
        );
        let mut names: Vec<String> =
            s.rows().map(|r| r.get("origin").unwrap().to_string()).collect();
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
        assert_eq!(s.row(0).get("api").unwrap().to_string(), "<http://e/api2>");
        assert_eq!(s.row(1).get("api").unwrap().to_string(), "<http://e/api3>");
    }

    #[test]
    fn filter_boolean_combinators() {
        let s = run(
            "PREFIX ex: <http://e/> \
             SELECT ?api WHERE { ?api ex:elapsed ?d . FILTER(?d > 6 && !(?d >= 12)) }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0).get("api").unwrap().to_string(), "<http://e/api3>");
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
            .rows()
            .map(|r| r.get("d").unwrap().as_literal().unwrap().as_i64().unwrap())
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
        assert_eq!(s.row(0).get("x").unwrap().to_string(), "<http://e/decimate.h5>");
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
        assert_eq!(s.row(0).get("n").unwrap().as_literal().unwrap().as_i64(), Some(3));
    }

    #[test]
    fn count_group_by_type() {
        // The H5bench scenario-1 question: how many of each API class?
        let s = run(
            "PREFIX ex: <http://e/>              SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t . } GROUP BY ?t ORDER BY ?t",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0).get("t").unwrap().to_string(), "<http://e/Read>");
        assert_eq!(s.row(0).get("n").unwrap().as_literal().unwrap().as_i64(), Some(2));
        assert_eq!(s.row(1).get("t").unwrap().to_string(), "<http://e/Write>");
        assert_eq!(s.row(1).get("n").unwrap().as_literal().unwrap().as_i64(), Some(1));
    }

    #[test]
    fn count_distinct() {
        // Three elapsed triples but two distinct subjects > 5.
        let s = run(
            "PREFIX ex: <http://e/>              SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ex:elapsed ?d . FILTER(?d > 5) }",
        );
        assert_eq!(s.row(0).get("n").unwrap().as_literal().unwrap().as_i64(), Some(2));
    }

    #[test]
    fn count_with_order_and_limit() {
        let s = run(
            "PREFIX ex: <http://e/>              SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t . } GROUP BY ?t              ORDER BY DESC(?n) LIMIT 1",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0).get("n").unwrap().as_literal().unwrap().as_i64(), Some(2));
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
    fn join_order_starts_from_the_small_pattern_wherever_it_is_written() {
        // 40 `big` edges into two hubs, each hub with one `small` edge.
        let mut g = Graph::new();
        for i in 0..40 {
            g.insert(&provio_rdf::Triple::new(
                provio_rdf::Subject::iri(format!("urn:n{i}")),
                provio_rdf::Iri::new("urn:big"),
                Term::iri(format!("urn:hub{}", i % 2)),
            ));
        }
        for hub in 0..2 {
            g.insert(&provio_rdf::Triple::new(
                provio_rdf::Subject::iri(format!("urn:hub{hub}")),
                provio_rdf::Iri::new("urn:small"),
                Term::iri("urn:end"),
            ));
        }
        // The least budget that answers = the steps charged.
        let steps = |text: &str| {
            let q = Query::parse(text).unwrap();
            let needed = (0..).find(|&b| q.execute_with_budget(&g, b).is_ok()).unwrap();
            (needed, q.execute(&g).len())
        };
        let small_first =
            steps("SELECT ?x ?z WHERE { ?h <urn:small> ?z . ?x <urn:big> ?h . }");
        let small_last =
            steps("SELECT ?x ?z WHERE { ?x <urn:big> ?h . ?h <urn:small> ?z . }");
        assert_eq!(small_first, small_last);
        // One lookup of `small` (1 + 2 rows), then per hub one lookup of
        // `big` by object (1 + 20 rows) — not 1 + 40, then 40 lookups.
        assert_eq!(small_first, (3 + 2 * 21, 40));
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
    fn an_object_bound_path_walks_only_what_reaches_the_object() {
        // A long chain c0 → … → c200 beside a short one r → m → leaf: a
        // walk back from `leaf` never meets the long chain.
        let mut g = Graph::new();
        let edges = (0..200)
            .map(|i| (format!("c{i}"), format!("c{}", i + 1)))
            .chain([("r", "m"), ("m", "leaf")].map(|(s, o)| (s.into(), o.into())));
        for (s, o) in edges {
            g.insert(&provio_rdf::Triple::new(
                provio_rdf::Subject::iri(format!("urn:{s}")),
                provio_rdf::Iri::new("urn:d"),
                Term::iri(format!("urn:{o}")),
            ));
        }
        for (text, budget, rows) in [
            ("SELECT ?x WHERE { ?x <urn:d>+ <urn:leaf> . }", 16, 2),
            ("SELECT ?x WHERE { ?x <urn:d>/<urn:d> <urn:leaf> . }", 8, 1),
        ] {
            let q = Query::parse(text).unwrap();
            let got = q.execute_with_budget(&g, budget);
            assert_eq!(got.map(|s| s.len()), Ok(rows), "{text}");
        }
    }

    /// Every row as the `name=term` pairs its view yields (IRIs without
    /// `http://e/`, literals by lexical form), after checking that the
    /// pairs are what a `BTreeMap` of them iterates — name order, one per
    /// name — and what `get` reads.
    fn pairs(s: &Solutions) -> Vec<String> {
        let short = |t: &Term| match t {
            Term::Literal(l) => l.lexical().to_string(),
            t => t.to_string().replace("http://e/", ""),
        };
        s.rows()
            .map(|row| {
                let pairs: Vec<(&str, &Term)> = row.iter().collect();
                let map: BTreeMap<&str, &Term> = pairs.iter().copied().collect();
                assert_eq!(pairs, map.into_iter().collect::<Vec<_>>());
                assert!(pairs.iter().all(|&(name, t)| row.get(name) == Some(t)));
                let spelled: Vec<String> =
                    pairs.iter().map(|(name, t)| format!("{name}={}", short(t))).collect();
                spelled.join(" ")
            })
            .collect()
    }

    #[test]
    fn a_row_view_yields_the_bound_pairs_in_name_order() {
        let select = "PREFIX ex: <http://e/> SELECT";
        for (query, vars, want) in [
            (
                format!("{select} * WHERE {{ ?api ex:elapsed ?d . }}"),
                &["api", "d"][..],
                &["api=<api1> d=5", "api=<api2> d=12", "api=<api3> d=7"][..],
            ),
            // `?zz` no pattern binds: in the header, never in a row.
            (
                format!("{select} ?zz ?d ?api WHERE {{ ?api ex:elapsed ?d . FILTER(?d < 7) }}"),
                &["zz", "d", "api"],
                &["api=<api1> d=5"],
            ),
            // The alias sorts before the GROUP BY variable.
            (
                format!(
                    "{select} ?t (COUNT(?x) AS ?n) WHERE {{ ?x a ?t . }} \
                     GROUP BY ?t ORDER BY ?t"
                ),
                &["t", "n"],
                &["n=2 t=<Read>", "n=1 t=<Write>"],
            ),
            (
                format!("{select} DISTINCT ?t WHERE {{ ?x a ?t . }}"),
                &["t"],
                &["t=<Read>", "t=<Write>"],
            ),
            (
                format!(
                    "{select} ?d ?api WHERE {{ ?api ex:elapsed ?d . }} \
                     ORDER BY DESC(?d) OFFSET 1 LIMIT 2"
                ),
                &["d", "api"],
                &["api=<api3> d=7", "api=<api1> d=5"],
            ),
        ] {
            let s = run(&query);
            assert_eq!(s.vars, vars, "{query}");
            assert_eq!(pairs(&s), want, "{query}");
            assert!(s.rows().all(|row| row.get("zz").is_none()), "{query}");
        }
        let none = run("PREFIX ex: <http://e/> SELECT ?t WHERE { ?x a ?t . ?x ex:nothere ?y . }");
        assert_eq!((none.len(), none.rows().count()), (0, 0));
    }

    #[test]
    fn results_are_deterministic_without_order_by() {
        let a = run("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:elapsed ?d . }");
        let b = run("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:elapsed ?d . }");
        let ra: Vec<String> = a.rows().map(|r| r.get("x").unwrap().to_string()).collect();
        let rb: Vec<String> = b.rows().map(|r| r.get("x").unwrap().to_string()).collect();
        assert_eq!(ra, rb);
    }
}
