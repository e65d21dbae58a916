//! The posthoc query mix: fixed text, and the row count each query must
//! return as a function of the generated events.

use crate::gen::{Expected, FAST_NS};

/// One SPARQL query of the mix.
pub struct MixQuery {
    pub name: &'static str,
    pub text: String,
    /// Rows a correct engine returns on the synthetic streams; `None` on
    /// workloads whose graph does not come from the generator (there the
    /// count must only repeat exactly between repetitions).
    pub rows: Option<u64>,
}

/// Name of the eighth element of the mix, `derive_lineage` (once per
/// repetition) + `backward_lineage` of the probe entity.
pub const BACKWARD_LINEAGE: &str = "q-backward-lineage";

/// The seven SPARQL queries. `probe_iri` is the fixed object the lineage
/// path query steps back from.
pub fn mix(probe_iri: &str, x: Option<&Expected>) -> Vec<MixQuery> {
    let q = |name, text: String, rows: Option<u64>| MixQuery { name, text, rows };
    vec![
        q(
            "q-api-count",
            "SELECT ?a WHERE { ?a prov:wasMemberOf prov:Activity . }".into(),
            x.map(|x| x.events),
        ),
        q(
            "q-api-duration",
            "SELECT ?a ?d WHERE { ?a prov:wasMemberOf prov:Activity ; provio:elapsed ?d . }".into(),
            x.map(|x| x.events),
        ),
        q(
            "q-type-scan",
            "SELECT ?a WHERE { ?a a provio:Write . }".into(),
            x.map(|x| x.writes),
        ),
        q(
            "q-join-filter",
            format!(
                "SELECT ?a ?d WHERE {{ ?a a provio:Write ; provio:elapsed ?d . \
                 FILTER(?d < {FAST_NS}) }}"
            ),
            x.map(|x| x.fast_writes),
        ),
        q(
            "q-attr-writers",
            "SELECT ?o ?a WHERE { ?o provio:wasWrittenBy ?a . ?o a provio:Attribute . }".into(),
            x.map(|x| x.attr_writes),
        ),
        q(
            // Table 5, H5bench scenario 3: who touched the object.
            "q-agents",
            "SELECT ?o ?program ?thread ?user WHERE { \
             ?o prov:wasAttributedTo ?program . \
             ?program prov:actedOnBehalfOf ?thread . \
             ?thread prov:actedOnBehalfOf ?user . }"
                .into(),
            x.map(|x| x.attributed_objects),
        ),
        q(
            // Table 5, DASSA: one backward step from a data product.
            "q-lineage-path",
            format!(
                "SELECT ?a WHERE {{ <{probe_iri}> (provio:wasReadBy|provio:wasOpenedBy) ?a . }}"
            ),
            x.map(|x| x.probe_read_steps),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_query_parses() {
        for q in mix("urn:provio:obj/dataset/x", None) {
            provio_sparql::Query::parse(&q.text).unwrap_or_else(|e| panic!("{}: {e:?}", q.name));
        }
    }
}
