//! `provio-rdf` — an in-memory, indexed RDF triplestore with Turtle and
//! N-Triples serialization and parsing.
//!
//! This crate is the workspace's substitute for Redland librdf (paper §5,
//! "Provenance Store"): PROV-IO keeps one in-memory RDF graph per process,
//! serializes it to Turtle on the parallel file system, and merges per-process
//! sub-graph files after the run. Everything that contract needs is here:
//!
//! * [`Term`], [`Iri`], [`Literal`], [`BlankNode`] — RDF terms.
//! * [`Graph`] — an interned, insertion-ordered triple log with pattern
//!   matching through SPO/POS/OSP indexes that are built on first read and
//!   dropped on write, so the tracker's append-heavy write path pays for
//!   no index and the query engine's lookup-heavy read path builds each
//!   one once.
//! * [`turtle`] / [`ntriples`] — serializers and parsers that round-trip.
//! * [`lex`] — the lexer and term production those parsers and the SPARQL
//!   parser share.
//! * [`IdMap`] / [`IdSet`] — hash tables for keys the process mints itself
//!   (term ids), on a keyless multiplicative hasher.
//! * [`Namespaces`] — prefix management with the W3C PROV and PROV-IO
//!   vocabularies built in.
#![warn(unreachable_pub)]

pub(crate) mod graph;
pub(crate) mod idhash;
pub mod lex;
pub(crate) mod namespace;
pub mod ntriples;
pub(crate) mod term;
pub(crate) mod triple;
pub mod turtle;

pub use graph::{Capture, Graph, TermId};
pub use idhash::{IdMap, IdSet};
pub use namespace::{ns, Namespaces};
pub use term::{BlankNode, Iri, Literal, Subject, Term, TermView};
pub use triple::{Triple, TriplePattern};

/// Errors produced by the parsers in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl ParseError {
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}
