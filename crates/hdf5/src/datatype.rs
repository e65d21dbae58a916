//! HDF5 datatypes.

use std::fmt;

/// The datatype of a dataset or attribute element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datatype {
    Int32,
    Int64,
    UInt32,
    UInt64,
    Float32,
    Float64,
    /// Fixed-length string of `n` bytes.
    FixedString(u32),
    /// Variable-length string (modeled as a 16-byte heap reference, the
    /// size HDF5 charges in the file for a vlen descriptor).
    VarString,
    /// Compound type: named, ordered members.
    Compound(Vec<(String, Datatype)>),
}

impl Datatype {
    /// On-disk size of one element, in bytes.
    pub(crate) fn size(&self) -> u64 {
        match self {
            Datatype::Int32 | Datatype::UInt32 | Datatype::Float32 => 4,
            Datatype::Int64 | Datatype::UInt64 | Datatype::Float64 => 8,
            Datatype::FixedString(n) => *n as u64,
            Datatype::VarString => 16,
            Datatype::Compound(members) => members.iter().map(|(_, t)| t.size()).sum(),
        }
    }
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datatype::Int32 => write!(f, "int32"),
            Datatype::Int64 => write!(f, "int64"),
            Datatype::UInt32 => write!(f, "uint32"),
            Datatype::UInt64 => write!(f, "uint64"),
            Datatype::Float32 => write!(f, "float32"),
            Datatype::Float64 => write!(f, "float64"),
            Datatype::FixedString(n) => write!(f, "str{n}"),
            Datatype::VarString => write!(f, "vstr"),
            Datatype::Compound(ms) => {
                write!(f, "compound{{")?;
                for (i, (n, t)) in ms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}:{t}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Datatype::Int32.size(), 4);
        assert_eq!(Datatype::Float64.size(), 8);
        assert_eq!(Datatype::FixedString(37).size(), 37);
        assert_eq!(Datatype::VarString.size(), 16);
    }

    #[test]
    fn compound_size_is_sum() {
        let c = Datatype::Compound(vec![
            ("x".into(), Datatype::Float32),
            ("y".into(), Datatype::Float32),
            ("id".into(), Datatype::Int64),
        ]);
        assert_eq!(c.size(), 16);
        assert_eq!(c.to_string(), "compound{x:float32,y:float32,id:int64}");
    }
}
