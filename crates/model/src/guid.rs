//! Globally unique node identities.
//!
//! "Every node in the graph has a globally unique ID (GUID), \[so\] merging
//! the sub-graphs does not cause unnecessary duplication" (paper §5). Two
//! different processes that touch the same file must therefore mint the
//! *same* GUID for it — data objects and agents are content-addressed by
//! their class and stable name. Activities (individual I/O API invocations)
//! are the opposite: every invocation is its own node, so their GUIDs
//! include the minting process and a local counter.

use provio_rdf::{Iri, Subject};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// A node identity, realized as an IRI in the run-scoped `urn:provio:`
/// namespace. It *is* that IRI (one shared `Arc<str>`), so placing a GUID
/// in a triple is a refcount bump, not a string copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guid(Iri);

impl Guid {
    /// The full IRI string.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    pub fn to_iri(&self) -> Iri {
        self.0.clone()
    }

    pub fn to_subject(&self) -> Subject {
        Subject::Iri(self.to_iri())
    }

    /// Reconstruct from an IRI (when reading provenance back).
    pub fn from_iri(iri: &Iri) -> Option<Guid> {
        if iri.as_str().starts_with(provio_rdf::ns::RESOURCE) {
            Some(Guid(iri.clone()))
        } else {
            None
        }
    }

    /// The human-readable tail of the GUID (after the namespace).
    pub fn local(&self) -> &str {
        &self.as_str()[provio_rdf::ns::RESOURCE.len()..]
    }
}

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable content hash for GUID components (e.g. a configuration value).
pub fn content_hash(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, for stable content-addressed suffixes.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_more(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash over more bytes.
fn fnv1a_more(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Append `s`, percent-encoding characters that may not appear raw in an
/// IRI (upper-case hex, one escape per UTF-8 byte).
fn push_sanitized(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for c in s.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '/' | '.' | '_' | '-' | '#' => out.push(c),
            other => {
                let mut buf = [0u8; 4];
                for b in other.encode_utf8(&mut buf).as_bytes() {
                    out.push('%');
                    out.push(HEX[usize::from(b >> 4)] as char);
                    out.push(HEX[usize::from(b & 0xf)] as char);
                }
            }
        }
    }
}

/// `urn:provio:<kind>/<class, lower-cased>/`, with room for `extra` more
/// bytes: GUIDs are spelled into one buffer, not glued from pieces.
fn stem(kind: &str, class: &str, extra: usize) -> String {
    let resource = provio_rdf::ns::RESOURCE;
    let mut out = String::with_capacity(resource.len() + kind.len() + class.len() + 2 + extra);
    out.push_str(resource);
    out.push_str(kind);
    out.push('/');
    out.extend(class.chars().map(|c| c.to_ascii_lowercase()));
    out.push('/');
    out
}

/// GUID factory for one tracked process.
#[derive(Debug)]
pub struct GuidGen {
    /// Process identity baked into per-invocation GUIDs.
    pid: u32,
    counter: AtomicU64,
}

impl GuidGen {
    pub fn new(pid: u32) -> Self {
        GuidGen {
            pid,
            counter: AtomicU64::new(0),
        }
    }

    /// Content-addressed GUID for a data object: stable across processes.
    ///
    /// `scope` is the containing file's path (empty for POSIX-level
    /// objects); `name` the object's path/name.
    pub fn data_object(class: &str, scope: &str, name: &str) -> Guid {
        let mut iri = stem("obj", class, scope.len() + name.len() + 10);
        if scope.is_empty() {
            push_sanitized(&mut iri, name);
        } else {
            push_sanitized(&mut iri, scope);
            iri.push('#');
            push_sanitized(&mut iri, name.trim_start_matches('/'));
        }
        // Hash (of `class \0 scope \0 name`) keeps GUIDs unique even if
        // sanitization collides.
        let mut h = fnv1a(class.as_bytes());
        for part in [scope, name] {
            h = fnv1a_more(fnv1a_more(h, &[0]), part.as_bytes());
        }
        let _ = write!(iri, "-{:08x}", h as u32);
        Guid(Iri::new(iri))
    }

    /// Content-addressed GUID for an agent (user/program/thread).
    pub fn agent(class: &str, name: &str) -> Guid {
        let mut iri = stem("agent", class, name.len());
        push_sanitized(&mut iri, name);
        Guid(Iri::new(iri))
    }

    /// Content-addressed GUID for an extensible-class node.
    pub fn extensible(class: &str, name: &str) -> Guid {
        let mut iri = stem("ext", class, name.len());
        push_sanitized(&mut iri, name);
        Guid(Iri::new(iri))
    }

    /// Unique GUID for one I/O API invocation (like "H5Dcreate2-b1" in the
    /// paper's Figure 4(b)).
    pub fn activity(&self, api_name: &str) -> Guid {
        let mut iri = self.activity_prefix(api_name);
        self.numbered(&mut iri)
    }

    /// Everything of this process's activity GUIDs for `api_name` but the
    /// counter. A caller minting many GUIDs for one API sanitizes its name
    /// once and passes the prefix to [`Self::activity_under`].
    pub fn activity_prefix(&self, api_name: &str) -> String {
        let resource = provio_rdf::ns::RESOURCE;
        let mut out = String::with_capacity(resource.len() + api_name.len() + 24);
        out.push_str(resource);
        out.push_str("act/");
        push_sanitized(&mut out, api_name);
        let _ = write!(out, "-p{}-", self.pid);
        out
    }

    /// [`Self::activity`] for a prefix from [`Self::activity_prefix`]. The
    /// GUID is spelled in `scratch` (cleared first, kept by the caller), so
    /// the GUID's own `Arc<str>` is the only allocation.
    pub fn activity_under(&self, prefix: &str, scratch: &mut String) -> Guid {
        scratch.clear();
        scratch.push_str(prefix);
        self.numbered(scratch)
    }

    /// Append the next counter value to a prefix and mint the GUID.
    fn numbered(&self, iri: &mut String) -> Guid {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let _ = write!(iri, "{n}");
        Guid(Iri::new(iri.as_str()))
    }

    /// Number of activity GUIDs minted so far.
    pub fn minted(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_objects_are_content_addressed() {
        let a = GuidGen::data_object("File", "", "/data/WestSac.h5");
        let b = GuidGen::data_object("File", "", "/data/WestSac.h5");
        assert_eq!(a, b, "same object in two processes → same GUID");
        let c = GuidGen::data_object("File", "", "/data/Other.h5");
        assert_ne!(a, c);
        // Same name, different class → different GUID.
        let d = GuidGen::data_object("Dataset", "", "/data/WestSac.h5");
        assert_ne!(a, d);
    }

    #[test]
    fn scoped_objects_include_file() {
        let a = GuidGen::data_object("Dataset", "/f1.h5", "/Timestep_0/x");
        let b = GuidGen::data_object("Dataset", "/f2.h5", "/Timestep_0/x");
        assert_ne!(a, b);
        assert!(a.as_str().contains("f1.h5"));
    }

    #[test]
    fn activities_are_unique_per_invocation() {
        let gen = GuidGen::new(7);
        let a = gen.activity("H5Dcreate2");
        let b = gen.activity("H5Dcreate2");
        assert_ne!(a, b);
        assert_eq!(gen.minted(), 2);
        // Different processes can't collide either.
        let other = GuidGen::new(8);
        assert_ne!(a, other.activity("H5Dcreate2"));
    }

    #[test]
    fn guids_are_valid_iris_and_round_trip() {
        let g = GuidGen::data_object("Attribute", "/a b.h5", "/ds#units µ");
        let iri = g.to_iri();
        assert!(!iri.as_str().contains(' '), "sanitized: {iri}");
        assert_eq!(Guid::from_iri(&iri), Some(g));
        assert_eq!(Guid::from_iri(&Iri::new("http://elsewhere/x")), None);
    }

    fn sanitize(s: &str) -> String {
        let mut out = String::new();
        push_sanitized(&mut out, s);
        out
    }

    #[test]
    fn guid_spellings_are_pinned() {
        // Byte for byte what the glue-from-pieces implementation produced
        // (stored provenance from earlier runs must keep merging).
        assert_eq!(
            GuidGen::data_object("Dataset", "/data/r0.h5", "/Timestep_3/d 7").as_str(),
            "urn:provio:obj/dataset//data/r0.h5#Timestep_3/d%207-a984c25c"
        );
        assert_eq!(
            GuidGen::data_object("File", "", "/data/WestSac.h5").as_str(),
            "urn:provio:obj/file//data/WestSac.h5-535dde3c"
        );
        assert_eq!(
            GuidGen::agent("Thread", "vpic-rank3").as_str(),
            "urn:provio:agent/thread/vpic-rank3"
        );
        assert_eq!(
            GuidGen::extensible("Configuration", "lr-v2-0a1b2c3d").as_str(),
            "urn:provio:ext/configuration/lr-v2-0a1b2c3d"
        );
    }

    #[test]
    fn escapes_are_uppercase_hex_per_utf8_byte() {
        assert_eq!(sanitize("a b"), "a%20b");
        assert_eq!(sanitize("\u{b5}s"), "%C2%B5s");
        assert_eq!(sanitize("100%"), "100%25");
        assert_eq!(sanitize("/ok/path_1-x.h5#y"), "/ok/path_1-x.h5#y");
    }

    #[test]
    fn prefixed_activities_spell_like_plain_ones() {
        let (a, b) = (GuidGen::new(7), GuidGen::new(7));
        let prefix = b.activity_prefix("H5D write");
        let mut scratch = String::new();
        for _ in 0..3 {
            assert_eq!(a.activity("H5D write"), b.activity_under(&prefix, &mut scratch));
        }
        assert_eq!(
            a.activity("H5D write").as_str(),
            "urn:provio:act/H5D%20write-p7-3"
        );
    }

    #[test]
    fn local_strips_namespace() {
        let g = GuidGen::agent("User", "Bob");
        assert_eq!(g.local(), "agent/user/Bob");
    }
}
