//! The *Relation* super-class (paper Table 2, §4.1.5).

use provio_rdf::ns;

/// Relations between PROV-IO nodes.
///
/// The first four are inherited from W3C PROV; the `provio:` relations are
/// PROV-IO's additions that connect `<<I/O API>>` activities with
/// `<<Data Object>>` entities precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relation {
    // -- inherited W3C PROV relations --
    /// entity ← entity.
    WasDerivedFrom,
    /// entity ← agent.
    WasAttributedTo,
    /// activity ← agent.
    WasAssociatedWith,
    /// agent ← agent (thread → program → user delegation).
    ActedOnBehalfOf,
    /// member-of (used to tie I/O API instances to the Activity class).
    WasMemberOf,

    // -- PROV-IO relations between Data Objects and I/O APIs --
    /// data object ← Create API.
    WasCreatedBy,
    /// data object ← Open API.
    WasOpenedBy,
    /// data object ← Read API.
    WasReadBy,
    /// data object ← Write API.
    WasWrittenBy,
    /// data object ← Fsync API.
    WasFlushedBy,
    /// data object ← Rename API.
    WasModifiedBy,
}

impl Relation {
    pub const ALL: [Relation; 11] = [
        Relation::WasDerivedFrom,
        Relation::WasAttributedTo,
        Relation::WasAssociatedWith,
        Relation::ActedOnBehalfOf,
        Relation::WasMemberOf,
        Relation::WasCreatedBy,
        Relation::WasOpenedBy,
        Relation::WasReadBy,
        Relation::WasWrittenBy,
        Relation::WasFlushedBy,
        Relation::WasModifiedBy,
    ];

    /// Is this relation inherited from the W3C PROV vocabulary (vs. a
    /// PROV-IO addition)?
    pub(crate) fn is_w3c(self) -> bool {
        matches!(
            self,
            Relation::WasDerivedFrom
                | Relation::WasAttributedTo
                | Relation::WasAssociatedWith
                | Relation::ActedOnBehalfOf
                | Relation::WasMemberOf
        )
    }

    pub fn local_name(self) -> &'static str {
        match self {
            Relation::WasDerivedFrom => "wasDerivedFrom",
            Relation::WasAttributedTo => "wasAttributedTo",
            Relation::WasAssociatedWith => "wasAssociatedWith",
            Relation::ActedOnBehalfOf => "actedOnBehalfOf",
            Relation::WasMemberOf => "wasMemberOf",
            Relation::WasCreatedBy => "wasCreatedBy",
            Relation::WasOpenedBy => "wasOpenedBy",
            Relation::WasReadBy => "wasReadBy",
            Relation::WasWrittenBy => "wasWrittenBy",
            Relation::WasFlushedBy => "wasFlushedBy",
            Relation::WasModifiedBy => "wasModifiedBy",
        }
    }

    /// The predicate IRI (W3C relations in `prov:`, additions in `provio:`).
    pub fn iri(self) -> String {
        if self.is_w3c() {
            format!("{}{}", ns::PROV, self.local_name())
        } else {
            format!("{}{}", ns::PROVIO, self.local_name())
        }
    }

    /// The relation recording that a data object was touched by an I/O API
    /// of the given activity class (paper Table 2, bottom section).
    pub fn for_activity(class: crate::class::ActivityClass) -> Relation {
        use crate::class::ActivityClass as A;
        match class {
            A::Create => Relation::WasCreatedBy,
            A::Open => Relation::WasOpenedBy,
            A::Read => Relation::WasReadBy,
            A::Write => Relation::WasWrittenBy,
            A::Fsync => Relation::WasFlushedBy,
            A::Rename => Relation::WasModifiedBy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ActivityClass;

    #[test]
    fn w3c_vs_provio_namespacing() {
        assert_eq!(
            Relation::WasAttributedTo.iri(),
            "http://www.w3.org/ns/prov#wasAttributedTo"
        );
        assert_eq!(
            Relation::WasReadBy.iri(),
            "https://github.com/hpc-io/prov-io#wasReadBy"
        );
    }

    #[test]
    fn activity_to_relation_mapping_matches_table2() {
        assert_eq!(
            Relation::for_activity(ActivityClass::Create),
            Relation::WasCreatedBy
        );
        assert_eq!(
            Relation::for_activity(ActivityClass::Rename),
            Relation::WasModifiedBy
        );
        assert_eq!(
            Relation::for_activity(ActivityClass::Fsync),
            Relation::WasFlushedBy
        );
    }

    #[test]
    fn exactly_six_provio_relations() {
        let added: Vec<Relation> = Relation::ALL
            .into_iter()
            .filter(|r| !r.is_w3c())
            .collect();
        assert_eq!(added.len(), 6);
    }
}
