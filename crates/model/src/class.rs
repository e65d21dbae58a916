//! The PROV-IO class hierarchy (paper Table 2).

use provio_rdf::ns;

/// *Entity* sub-classes: the `<<Data Object>>` kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityClass {
    /// POSIX file system directory.
    Directory,
    /// POSIX file system file.
    File,
    /// I/O library interior group structure (e.g. HDF5 group).
    Group,
    /// I/O library interior dataset structure (e.g. HDF5 dataset).
    Dataset,
    /// POSIX inode extended attribute or I/O library attribute.
    Attribute,
    /// I/O library interior datatype structure.
    Datatype,
    /// POSIX hard/soft link.
    Link,
}

impl EntityClass {
    pub const ALL: [EntityClass; 7] = [
        EntityClass::Directory,
        EntityClass::File,
        EntityClass::Group,
        EntityClass::Dataset,
        EntityClass::Attribute,
        EntityClass::Datatype,
        EntityClass::Link,
    ];

    pub fn local_name(self) -> &'static str {
        match self {
            EntityClass::Directory => "Directory",
            EntityClass::File => "File",
            EntityClass::Group => "Group",
            EntityClass::Dataset => "Dataset",
            EntityClass::Attribute => "Attribute",
            EntityClass::Datatype => "Datatype",
            EntityClass::Link => "Link",
        }
    }
}

/// *Activity* sub-classes: the `<<I/O API>>` kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActivityClass {
    /// POSIX "open(O_CREAT)" and library Create APIs (e.g. H5Acreate).
    Create,
    /// Library Open APIs (e.g. H5Aopen) and POSIX open.
    Open,
    /// POSIX read-family and library Read APIs.
    Read,
    /// POSIX write-family and library Write APIs.
    Write,
    /// POSIX fsync-family and library Flush APIs.
    Fsync,
    /// POSIX rename-family and library Rename APIs.
    Rename,
}

impl ActivityClass {
    pub const ALL: [ActivityClass; 6] = [
        ActivityClass::Create,
        ActivityClass::Open,
        ActivityClass::Read,
        ActivityClass::Write,
        ActivityClass::Fsync,
        ActivityClass::Rename,
    ];

    pub fn local_name(self) -> &'static str {
        match self {
            ActivityClass::Create => "Create",
            ActivityClass::Open => "Open",
            ActivityClass::Read => "Read",
            ActivityClass::Write => "Write",
            ActivityClass::Fsync => "Fsync",
            ActivityClass::Rename => "Rename",
        }
    }
}

/// *Agent* sub-classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AgentClass {
    /// Workflow user.
    User,
    /// Individual thread / MPI rank.
    Thread,
    /// Program instance.
    Program,
}

impl AgentClass {
    pub const ALL: [AgentClass; 3] = [AgentClass::User, AgentClass::Thread, AgentClass::Program];

    pub fn local_name(self) -> &'static str {
        match self {
            AgentClass::User => "User",
            AgentClass::Thread => "Thread",
            AgentClass::Program => "Program",
        }
    }
}

/// *Extensible Class* sub-classes: workflow-specific information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExtensibleClass {
    /// Type of a program/workflow (e.g. Machine Learning, Acoustic Sensing).
    Type,
    /// Workflow configuration (e.g. an ML hyperparameter).
    Configuration,
    /// Evaluation metrics (e.g. training accuracy).
    Metrics,
}

impl ExtensibleClass {
    pub const ALL: [ExtensibleClass; 3] = [
        ExtensibleClass::Type,
        ExtensibleClass::Configuration,
        ExtensibleClass::Metrics,
    ];

    pub fn local_name(self) -> &'static str {
        match self {
            ExtensibleClass::Type => "Type",
            ExtensibleClass::Configuration => "Configuration",
            ExtensibleClass::Metrics => "Metrics",
        }
    }
}

/// Any node class (the four super-classes' union).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeClass {
    Entity(EntityClass),
    Activity(ActivityClass),
    Agent(AgentClass),
    Extensible(ExtensibleClass),
}

impl NodeClass {
    /// Number of sub-classes in Table 2.
    pub const COUNT: usize = 19;

    /// Dense index in Table 2 order (entities, activities, agents,
    /// extensibles) — what per-class tables and bit sets are laid out by.
    pub const fn index(self) -> usize {
        match self {
            NodeClass::Entity(c) => c as usize,
            NodeClass::Activity(c) => 7 + c as usize,
            NodeClass::Agent(c) => 13 + c as usize,
            NodeClass::Extensible(c) => 16 + c as usize,
        }
    }

    /// Every sub-class, in [`Self::index`] order.
    pub fn all() -> impl Iterator<Item = NodeClass> {
        EntityClass::ALL
            .into_iter()
            .map(NodeClass::Entity)
            .chain(ActivityClass::ALL.into_iter().map(NodeClass::Activity))
            .chain(AgentClass::ALL.into_iter().map(NodeClass::Agent))
            .chain(ExtensibleClass::ALL.into_iter().map(NodeClass::Extensible))
    }

    /// The class IRI in the PROV-IO vocabulary.
    pub fn iri(self) -> String {
        format!("{}{}", ns::PROVIO, self.local_name())
    }

    pub fn local_name(self) -> &'static str {
        match self {
            NodeClass::Entity(c) => c.local_name(),
            NodeClass::Activity(c) => c.local_name(),
            NodeClass::Agent(c) => c.local_name(),
            NodeClass::Extensible(c) => c.local_name(),
        }
    }

    /// The W3C super-class IRI this sub-class specializes.
    pub fn super_class_iri(self) -> String {
        match self {
            NodeClass::Entity(_) | NodeClass::Extensible(_) => format!("{}Entity", ns::PROV),
            NodeClass::Activity(_) => format!("{}Activity", ns::PROV),
            NodeClass::Agent(_) => format!("{}Agent", ns::PROV),
        }
    }

    /// Parse a PROV-IO class IRI back into a class.
    pub fn from_iri(iri: &str) -> Option<NodeClass> {
        let local = iri.strip_prefix(ns::PROVIO)?;
        for c in EntityClass::ALL {
            if c.local_name() == local {
                return Some(NodeClass::Entity(c));
            }
        }
        for c in ActivityClass::ALL {
            if c.local_name() == local {
                return Some(NodeClass::Activity(c));
            }
        }
        for c in AgentClass::ALL {
            if c.local_name() == local {
                return Some(NodeClass::Agent(c));
            }
        }
        for c in ExtensibleClass::ALL {
            if c.local_name() == local {
                return Some(NodeClass::Extensible(c));
            }
        }
        None
    }
}

impl From<EntityClass> for NodeClass {
    fn from(c: EntityClass) -> Self {
        NodeClass::Entity(c)
    }
}

impl From<ActivityClass> for NodeClass {
    fn from(c: ActivityClass) -> Self {
        NodeClass::Activity(c)
    }
}

impl From<AgentClass> for NodeClass {
    fn from(c: AgentClass) -> Self {
        NodeClass::Agent(c)
    }
}

impl From<ExtensibleClass> for NodeClass {
    fn from(c: ExtensibleClass) -> Self {
        NodeClass::Extensible(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_match_table2() {
        assert_eq!(EntityClass::ALL.len(), 7);
        assert_eq!(ActivityClass::ALL.len(), 6);
        assert_eq!(AgentClass::ALL.len(), 3);
        assert_eq!(ExtensibleClass::ALL.len(), 3);
    }

    #[test]
    fn iris_are_in_provio_namespace() {
        let c: NodeClass = EntityClass::Dataset.into();
        assert_eq!(c.iri(), "https://github.com/hpc-io/prov-io#Dataset");
        assert_eq!(c.super_class_iri(), "http://www.w3.org/ns/prov#Entity");
    }

    #[test]
    fn iri_round_trip_all_classes() {
        let all: Vec<NodeClass> = NodeClass::all().collect();
        assert_eq!(all.len(), NodeClass::COUNT);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
        for c in all {
            assert_eq!(NodeClass::from_iri(&c.iri()), Some(c), "{c:?}");
        }
        assert_eq!(NodeClass::from_iri("https://example.org/Nope"), None);
    }

    #[test]
    fn activity_super_class_is_prov_activity() {
        let c: NodeClass = ActivityClass::Fsync.into();
        assert_eq!(c.super_class_iri(), "http://www.w3.org/ns/prov#Activity");
        let a: NodeClass = AgentClass::Thread.into();
        assert_eq!(a.super_class_iri(), "http://www.w3.org/ns/prov#Agent");
    }
}
