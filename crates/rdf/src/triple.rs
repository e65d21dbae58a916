//! Triples and triple patterns.

use crate::term::{Iri, Subject, Term};
use std::fmt;

/// An RDF triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Subject,
    pub predicate: Iri,
    pub object: Term,
}

impl Triple {
    pub fn new(
        subject: impl Into<Subject>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
    ) -> Self {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A triple pattern: `None` positions are wildcards.
#[derive(Debug, Clone, Default)]
pub struct TriplePattern {
    pub(crate) subject: Option<Subject>,
    pub(crate) predicate: Option<Iri>,
    pub(crate) object: Option<Term>,
}

impl TriplePattern {
    /// The all-wildcard pattern.
    pub fn any() -> Self {
        TriplePattern::default()
    }

    pub fn with_subject(mut self, s: impl Into<Subject>) -> Self {
        self.subject = Some(s.into());
        self
    }

    pub fn with_predicate(mut self, p: impl Into<Iri>) -> Self {
        self.predicate = Some(p.into());
        self
    }

    pub fn with_object(mut self, o: impl Into<Term>) -> Self {
        self.object = Some(o.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::term::Literal;

    fn t() -> Triple {
        Triple::new(
            Subject::iri("urn:s"),
            Iri::new("urn:p"),
            Term::Literal(Literal::plain("o")),
        )
    }

    #[test]
    fn display_is_ntriples_shaped() {
        assert_eq!(t().to_string(), "<urn:s> <urn:p> \"o\" .");
    }

    /// Does `p` match `t()`, asked of a graph holding only `t()`?
    fn matches(p: &TriplePattern) -> bool {
        let mut g = Graph::new();
        g.insert(&t());
        g.match_pattern(p) == vec![t()]
    }

    #[test]
    fn any_matches_everything() {
        assert!(matches(&TriplePattern::any()));
    }

    #[test]
    fn bound_positions_filter() {
        let p = TriplePattern::any().with_subject(Subject::iri("urn:s"));
        assert!(matches(&p));
        let p = TriplePattern::any().with_subject(Subject::iri("urn:other"));
        assert!(!matches(&p));
        let p = TriplePattern::any()
            .with_predicate(Iri::new("urn:p"))
            .with_object(Term::plain("o"));
        assert!(matches(&p));
    }
}
