//! Namespace / prefix management.
//!
//! PROV-IO persists provenance using the W3C PROV-O vocabulary plus its own
//! `provio:` extension vocabulary (paper §4.1, Table 2). The IRIs for both
//! live here, along with a prefix table used by the Turtle serializer and the
//! SPARQL engine.

use std::collections::BTreeMap;

/// Well-known vocabulary IRIs.
pub mod ns {
    /// RDF core.
    pub const RDF: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// RDF Schema.
    pub const RDFS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
    pub const RDFS_SUBCLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// XML Schema datatypes.
    pub const XSD: &str = "http://www.w3.org/2001/XMLSchema#";
    pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    pub const XSD_DATETIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";
    pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    /// W3C PROV-O.
    pub const PROV: &str = "http://www.w3.org/ns/prov#";
    /// The PROV-IO extension vocabulary.
    pub const PROVIO: &str = "https://github.com/hpc-io/prov-io#";
    /// Run-scoped resource namespace (subjects minted by the tracker).
    pub const RESOURCE: &str = "urn:provio:";
}

/// A prefix table mapping prefix labels to namespace IRIs.
#[derive(Debug, Clone)]
pub struct Namespaces {
    // BTreeMap so serialization order is stable.
    by_prefix: BTreeMap<String, String>,
}

impl Default for Namespaces {
    fn default() -> Self {
        let mut n = Namespaces {
            by_prefix: BTreeMap::new(),
        };
        n.bind("rdf", ns::RDF);
        n.bind("rdfs", ns::RDFS);
        n.bind("xsd", ns::XSD);
        n.bind("prov", ns::PROV);
        n.bind("provio", ns::PROVIO);
        n
    }
}

impl Namespaces {
    /// The default table with the W3C + PROV-IO vocabularies bound.
    pub fn standard() -> Self {
        Self::default()
    }

    /// An empty table.
    pub fn empty() -> Self {
        Namespaces {
            by_prefix: BTreeMap::new(),
        }
    }

    /// Bind `prefix` to `iri`, replacing any previous binding.
    pub fn bind(&mut self, prefix: impl Into<String>, iri: impl Into<String>) {
        self.by_prefix.insert(prefix.into(), iri.into());
    }

    /// Resolve a prefix label to its namespace IRI.
    pub fn expand_prefix(&self, prefix: &str) -> Option<&str> {
        self.by_prefix.get(prefix).map(|s| s.as_str())
    }

    /// Expand a `prefix:local` qualified name into a full IRI, appended to
    /// `out`. `false`, with `out` untouched, if the name has no `:` or its
    /// prefix is unbound.
    pub(crate) fn expand_into(&self, qname: &str, out: &mut String) -> bool {
        let Some((prefix, local)) = qname.split_once(':') else {
            return false;
        };
        let Some(base) = self.expand_prefix(prefix) else {
            return false;
        };
        out.extend([base, local]);
        true
    }

    /// [`Namespaces::compact`] without the `String`: the `(prefix, local)`
    /// halves, borrowed — the Turtle writer pushes them straight into its
    /// output.
    pub(crate) fn split<'a>(&'a self, iri: &'a str) -> Option<(&'a str, &'a str)> {
        // Longest-prefix match so e.g. rdf: wins over a hypothetical shorter
        // binding of the same base; of two labels for one base, the first.
        let mut best: Option<(&str, &str)> = None;
        for (prefix, base) in &self.by_prefix {
            if iri.starts_with(base.as_str()) && best.is_none_or(|(_, b)| base.len() > b.len()) {
                best = Some((prefix, base));
            }
        }
        let (prefix, base) = best?;
        let local = &iri[base.len()..];
        (!local.is_empty() && is_pn_local(local)).then_some((prefix, local))
    }

    /// Compact a full IRI into `prefix:local` if a binding covers it and the
    /// local part is a valid Turtle PN_LOCAL (conservatively: alphanumerics,
    /// `_`, `-`, `.` not at the ends).
    pub fn compact(&self, iri: &str) -> Option<String> {
        self.split(iri)
            .map(|(prefix, local)| format!("{prefix}:{local}"))
    }

    /// Iterate `(prefix, iri)` bindings in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.by_prefix.iter().map(|(p, i)| (p.as_str(), i.as_str()))
    }

    pub fn len(&self) -> usize {
        self.by_prefix.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_prefix.is_empty()
    }
}

/// Conservative check that `s` can appear as the local part of a prefixed
/// name without escaping.
fn is_pn_local(s: &str) -> bool {
    let bytes = s.as_bytes();
    if bytes.first() == Some(&b'.') || bytes.last() == Some(&b'.') {
        return false;
    }
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_has_prov_vocabularies() {
        let n = Namespaces::standard();
        assert_eq!(n.expand_prefix("prov"), Some(ns::PROV));
        assert_eq!(n.expand_prefix("provio"), Some(ns::PROVIO));
        assert!(n.expand_prefix("nope").is_none());
    }

    /// The expansion of `qname` appended to a buffer already holding text.
    fn expand(n: &Namespaces, qname: &str) -> Option<String> {
        let mut out = String::from("kept|");
        let expanded = n.expand_into(qname, &mut out);
        let appended = out.strip_prefix("kept|").expect("the head is kept");
        assert!(expanded || appended.is_empty(), "a failed expansion wrote");
        expanded.then(|| appended.to_string())
    }

    #[test]
    fn expand_qname() {
        let n = Namespaces::standard();
        assert_eq!(
            expand(&n, "prov:wasDerivedFrom").as_deref(),
            Some("http://www.w3.org/ns/prov#wasDerivedFrom")
        );
        assert_eq!(expand(&n, "rdf:").as_deref(), Some(ns::RDF));
        assert!(expand(&n, "noColon").is_none());
        assert!(expand(&n, "zzz:x").is_none());
    }

    #[test]
    fn compact_round_trip() {
        let n = Namespaces::standard();
        let iri = format!("{}wasReadBy", ns::PROVIO);
        assert_eq!(n.compact(&iri).unwrap(), "provio:wasReadBy");
        assert_eq!(expand(&n, "provio:wasReadBy"), Some(iri));
    }

    #[test]
    fn compact_rejects_bad_local_parts() {
        let n = Namespaces::standard();
        // Slash in the local part → cannot compact safely.
        assert!(n.compact(&format!("{}a/b", ns::PROV)).is_none());
        // Empty local part.
        assert!(n.compact(ns::PROV).is_none());
        // Leading dot.
        assert!(n.compact(&format!("{}.x", ns::PROV)).is_none());
    }

    #[test]
    fn rebind_replaces() {
        let mut n = Namespaces::empty();
        n.bind("ex", "http://a/");
        n.bind("ex", "http://b/");
        assert_eq!(n.expand_prefix("ex"), Some("http://b/"));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut n = Namespaces::empty();
        n.bind("a", "http://x/");
        n.bind("b", "http://x/deep/");
        assert_eq!(n.compact("http://x/deep/leaf").unwrap(), "b:leaf");
    }
}
