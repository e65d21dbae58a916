//! `provio-sparql` — a SPARQL SELECT engine over [`provio_rdf::Graph`].
//!
//! PROV-IO's user engine answers all provenance needs in the paper with a
//! handful of SELECT statements (paper §6.5, Table 5). This crate implements
//! the subset those queries — and transitive lineage — require:
//!
//! * `PREFIX` declarations, `SELECT [DISTINCT] (?v… | *) WHERE { … }`
//! * Basic graph patterns with `;`/`,` continuations and `a`
//! * Property paths in the predicate position: `iri`, `^p` (inverse),
//!   `p1/p2` (sequence), `p1|p2` (alternative), `p+`, `p*`, `(p)`
//! * `FILTER` with comparisons, `&&`, `||`, `!`, `REGEX` (substring with
//!   optional `^`/`$` anchors), `STRSTARTS`, `STRENDS`, `CONTAINS`, `BOUND`
//! * `(COUNT(?v|*) AS ?alias)` with optional `GROUP BY` (the "total number
//!   of each type of HDF5 I/O operation" question of §3.3)
//! * `ORDER BY`, `LIMIT`, `OFFSET`
//! * Constants, in patterns and in `FILTER` alike, as Turtle spells them
//!   ([`provio_rdf::lex`] reads both): IRIs, prefixed names, `"…"` with an
//!   optional `^^datatype` or `@lang`, bare numbers, `true` / `false`
//!
//! Unsupported (not needed by the paper's workloads and rejected at parse
//! time): `OPTIONAL`, `UNION`, subqueries, update forms, and blank node
//! labels (`_:b`, which SPARQL reads as variables).
//!
//! ```
//! use provio_rdf::{turtle, Namespaces};
//! use provio_sparql::Query;
//!
//! let (graph, _) = turtle::parse(r#"
//!     @prefix prov: <http://www.w3.org/ns/prov#> .
//!     <urn:decimate.h5> prov:wasAttributedTo <urn:decimate> .
//! "#).unwrap();
//! let q = Query::parse(r#"
//!     PREFIX prov: <http://www.w3.org/ns/prov#>
//!     SELECT ?program WHERE { <urn:decimate.h5> prov:wasAttributedTo ?program . }
//! "#).unwrap();
//! let sols = q.execute(&graph);
//! assert_eq!(sols.len(), 1);
//! ```

pub mod ast;
pub mod eval;
pub mod parse;
pub mod path;

pub use ast::{Aggregate, Expr, PathExpr, Pattern, Query, TermOrVar};
pub use eval::{Binding, Solutions};

/// Errors from parsing or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Syntax error or unsupported construct, rejected at parse time.
    Parse(String),
    /// Evaluation exceeded its step budget ([`Query::execute_with_budget`]).
    /// A runaway join or a closure walk over a dense graph is cut off
    /// instead of monopolizing the engine.
    BudgetExhausted {
        /// The budget the evaluation started with.
        budget: u64,
    },
}

impl QueryError {
    /// A parse-stage error (the historical constructor).
    pub fn new(message: impl Into<String>) -> Self {
        QueryError::Parse(message.into())
    }
}

/// A lexical error in the query text; queries are short, so its line is
/// dropped.
impl From<provio_rdf::ParseError> for QueryError {
    fn from(e: provio_rdf::ParseError) -> Self {
        QueryError::new(e.message)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(message) => write!(f, "query error: {message}"),
            QueryError::BudgetExhausted { budget } => {
                write!(f, "query error: evaluation budget of {budget} steps exhausted")
            }
        }
    }
}

impl std::error::Error for QueryError {}
