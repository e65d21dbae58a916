//! The class selector: "the PROV-IO User Engine component allows users to
//! enable/disable individual sub-classes defined in the PROV-IO model,
//! which also enables flexible tradeoffs between completeness and
//! overhead" (paper §4.2). Presets correspond to the rows of Table 3.

use crate::class::{ActivityClass, AgentClass, EntityClass, ExtensibleClass, NodeClass};

/// Everything the selector can switch: node sub-classes plus the two
/// property toggles the paper's scenarios use (API duration, byte counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrackItem {
    Entity(EntityClass),
    Activity(ActivityClass),
    Agent(AgentClass),
    Extensible(ExtensibleClass),
    /// Track per-API duration (`provio:elapsed`), H5bench scenario 2.
    Duration,
    /// Track per-API byte counts.
    ByteCounts,
}

impl TrackItem {
    /// Every item: the sub-classes in Table 2 order, then the two toggles.
    pub fn all() -> impl Iterator<Item = TrackItem> {
        NodeClass::all()
            .map(|class| match class {
                NodeClass::Entity(c) => TrackItem::Entity(c),
                NodeClass::Activity(c) => TrackItem::Activity(c),
                NodeClass::Agent(c) => TrackItem::Agent(c),
                NodeClass::Extensible(c) => TrackItem::Extensible(c),
            })
            .chain([TrackItem::Duration, TrackItem::ByteCounts])
    }

    /// This item's bit in a [`ClassSelector`]: the classes in Table 2
    /// order, then the two property toggles.
    const fn bit(self) -> u32 {
        1 << match self {
            TrackItem::Entity(c) => NodeClass::Entity(c).index(),
            TrackItem::Activity(c) => NodeClass::Activity(c).index(),
            TrackItem::Agent(c) => NodeClass::Agent(c).index(),
            TrackItem::Extensible(c) => NodeClass::Extensible(c).index(),
            TrackItem::Duration => NodeClass::COUNT,
            TrackItem::ByteCounts => NodeClass::COUNT + 1,
        }
    }
}

/// The `<<Data Object>>` bits: entities come first in the index order.
const ENTITY_MASK: u32 = (1 << EntityClass::ALL.len()) - 1;

impl From<EntityClass> for TrackItem {
    fn from(c: EntityClass) -> Self {
        TrackItem::Entity(c)
    }
}

impl From<ActivityClass> for TrackItem {
    fn from(c: ActivityClass) -> Self {
        TrackItem::Activity(c)
    }
}

impl From<AgentClass> for TrackItem {
    fn from(c: AgentClass) -> Self {
        TrackItem::Agent(c)
    }
}

impl From<ExtensibleClass> for TrackItem {
    fn from(c: ExtensibleClass) -> Self {
        TrackItem::Extensible(c)
    }
}

/// Which sub-classes the tracker records: one bit per [`TrackItem`], so the
/// dozen questions `track_io` asks per event are mask tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassSelector {
    enabled: u32,
}

impl ClassSelector {
    /// Nothing enabled (tracking effectively off).
    pub fn none() -> Self {
        ClassSelector::default()
    }

    /// Everything enabled.
    pub fn all() -> Self {
        let mut s = ClassSelector::default();
        for item in TrackItem::all() {
            s.enable(item);
        }
        s
    }

    pub fn enable(&mut self, item: impl Into<TrackItem>) -> &mut Self {
        self.enabled |= item.into().bit();
        self
    }

    pub fn disable(&mut self, item: impl Into<TrackItem>) -> &mut Self {
        self.enabled &= !item.into().bit();
        self
    }

    pub fn is_enabled(&self, item: impl Into<TrackItem>) -> bool {
        self.enabled & item.into().bit() != 0
    }

    pub fn enabled_count(&self) -> usize {
        self.enabled.count_ones() as usize
    }

    /// Is any `<<Data Object>>` entity sub-class enabled? When none is,
    /// the tracker records I/O API activities for all events regardless of
    /// the touched object (the H5bench scenario-1/2 behavior); when at
    /// least one is, events on objects below the enabled granularity are
    /// skipped entirely (the DASSA file/dataset/attribute lineage
    /// behavior — "which incurs more I/O operations to track", §6.2).
    pub fn any_entity_enabled(&self) -> bool {
        self.enabled & ENTITY_MASK != 0
    }

    /// Is a node class enabled?
    pub fn class_enabled(&self, class: NodeClass) -> bool {
        match class {
            NodeClass::Entity(c) => self.is_enabled(c),
            NodeClass::Activity(c) => self.is_enabled(c),
            NodeClass::Agent(c) => self.is_enabled(c),
            NodeClass::Extensible(c) => self.is_enabled(c),
        }
    }

    /// All I/O API tracking enabled (helper for the presets).
    fn with_all_apis(mut self) -> Self {
        for c in ActivityClass::ALL {
            self.enable(c);
        }
        self
    }

    fn with_agents(mut self) -> Self {
        for c in AgentClass::ALL {
            self.enable(c);
        }
        self
    }

    // --- Table 3 presets ---------------------------------------------------

    /// DASSA "file lineage": program, I/O API, file.
    pub fn dassa_file_lineage() -> Self {
        let mut s = ClassSelector::none().with_all_apis();
        s.enable(AgentClass::Program);
        s.enable(EntityClass::File);
        s.enable(EntityClass::Directory);
        s
    }

    /// DASSA "dataset lineage": program, I/O API, dataset (+file context).
    pub fn dassa_dataset_lineage() -> Self {
        let mut s = Self::dassa_file_lineage();
        s.enable(EntityClass::Group);
        s.enable(EntityClass::Dataset);
        s
    }

    /// DASSA "attribute lineage": program, I/O API, attr (+enclosing objects).
    pub fn dassa_attribute_lineage() -> Self {
        let mut s = Self::dassa_dataset_lineage();
        s.enable(EntityClass::Attribute);
        s
    }

    /// H5bench scenario 1: I/O API counts only.
    pub fn h5bench_scenario1() -> Self {
        ClassSelector::none().with_all_apis()
    }

    /// H5bench scenario 2: I/O API + duration.
    pub fn h5bench_scenario2() -> Self {
        let mut s = Self::h5bench_scenario1();
        s.enable(TrackItem::Duration);
        s
    }

    /// H5bench scenario 3: user, thread, program, file.
    pub fn h5bench_scenario3() -> Self {
        let mut s = ClassSelector::none().with_all_apis().with_agents();
        s.enable(EntityClass::File);
        s
    }

    /// Top Reco: extensible-class tracking (configuration, metrics, type).
    pub fn topreco() -> Self {
        let mut s = ClassSelector::none();
        for c in ExtensibleClass::ALL {
            s.enable(c);
        }
        s.enable(AgentClass::User);
        s.enable(AgentClass::Program);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_and_all() {
        assert_eq!(ClassSelector::none().enabled_count(), 0);
        // 7 + 6 + 3 + 3 classes + 2 property toggles
        assert_eq!(ClassSelector::all().enabled_count(), 21);
    }

    #[test]
    fn every_item_has_its_own_bit() {
        let items: Vec<TrackItem> = TrackItem::all().collect();
        let mut s = ClassSelector::none();
        for (i, item) in items.iter().enumerate() {
            assert!(!s.is_enabled(*item), "{item:?} shares a bit");
            s.enable(*item);
            assert_eq!(s.enabled_count(), i + 1);
        }
        assert_eq!(s, ClassSelector::all());
        for item in &items {
            s.disable(*item);
            assert!(!s.is_enabled(*item));
        }
        assert_eq!(s, ClassSelector::none());
    }

    #[test]
    fn any_entity_enabled_sees_only_data_objects() {
        assert!(!ClassSelector::h5bench_scenario2().any_entity_enabled());
        assert!(!ClassSelector::topreco().any_entity_enabled());
        assert!(ClassSelector::h5bench_scenario3().any_entity_enabled());
        for c in EntityClass::ALL {
            let mut s = ClassSelector::h5bench_scenario1();
            s.enable(c);
            assert!(s.any_entity_enabled(), "{c:?}");
        }
    }

    #[test]
    fn enable_disable_round_trip() {
        let mut s = ClassSelector::none();
        s.enable(EntityClass::Attribute);
        assert!(s.is_enabled(EntityClass::Attribute));
        s.disable(EntityClass::Attribute);
        assert!(!s.is_enabled(EntityClass::Attribute));
    }

    #[test]
    fn dassa_presets_are_nested() {
        let file = ClassSelector::dassa_file_lineage();
        let dataset = ClassSelector::dassa_dataset_lineage();
        let attr = ClassSelector::dassa_attribute_lineage();
        assert!(file.is_enabled(EntityClass::File));
        assert!(!file.is_enabled(EntityClass::Dataset));
        assert!(dataset.is_enabled(EntityClass::Dataset));
        assert!(!dataset.is_enabled(EntityClass::Attribute));
        assert!(attr.is_enabled(EntityClass::Attribute));
        // Strictly increasing granularity → strictly more enabled items.
        assert!(file.enabled_count() < dataset.enabled_count());
        assert!(dataset.enabled_count() < attr.enabled_count());
    }

    #[test]
    fn h5bench_scenarios_match_table3() {
        let s1 = ClassSelector::h5bench_scenario1();
        assert!(s1.is_enabled(ActivityClass::Write));
        assert!(!s1.is_enabled(TrackItem::Duration));
        assert!(!s1.is_enabled(AgentClass::User));

        let s2 = ClassSelector::h5bench_scenario2();
        assert!(s2.is_enabled(TrackItem::Duration));

        let s3 = ClassSelector::h5bench_scenario3();
        assert!(s3.is_enabled(AgentClass::User));
        assert!(s3.is_enabled(AgentClass::Thread));
        assert!(s3.is_enabled(EntityClass::File));
        assert!(!s3.is_enabled(TrackItem::Duration));
    }

    #[test]
    fn topreco_preset_is_extensible_centric() {
        let s = ClassSelector::topreco();
        assert!(s.is_enabled(ExtensibleClass::Configuration));
        assert!(s.is_enabled(ExtensibleClass::Metrics));
        assert!(!s.is_enabled(ActivityClass::Read));
    }

    #[test]
    fn class_enabled_dispatches() {
        let s = ClassSelector::dassa_file_lineage();
        assert!(s.class_enabled(NodeClass::Entity(EntityClass::File)));
        assert!(!s.class_enabled(NodeClass::Agent(AgentClass::User)));
        assert!(s.class_enabled(NodeClass::Activity(ActivityClass::Read)));
    }
}
