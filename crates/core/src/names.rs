//! The commit protocol's file names: one grammar, parsed and printed here
//! and nowhere else.
//!
//! ```text
//! <base>                       snapshot of the store at <base> (.nt / .ttl)
//! <base>.dNNNNNN.nt            delta segment N of that store
//! <base>.wNNNNNN.nt            write-ahead journal generation N
//! <base>.pNNNNNN.par           sealed parity group N
//! <dir>/MANIFEST.provio        signed run manifest
//! <dir>/CAMPAIGN.provio        campaign ledger
//! <any of these>.tmp           a commit in flight (tmp + rename)
//! <any of these>.quarantine    a copy merge or verify condemned
//! ```
//!
//! Every tier asks the same three questions of a path — whose store is it,
//! what does it hold, is it live — and [`parse`] answers all of them for
//! any string; [`print`] is its inverse for every name the store emits.

use crate::config::RdfFormat;

/// File name of the signed run manifest, written into the store directory.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST.provio";

/// File name of the append-only campaign ledger, next to the manifest.
pub(crate) const LEDGER_NAME: &str = "CAMPAIGN.provio";

const TMP: &str = ".tmp";
const QUARANTINE: &str = ".quarantine";

/// FNV-1a 64-bit, used for store GUIDs (deterministic, dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What a file holds. The numbered roles carry their six-digit sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The store's snapshot — also any file the grammar does not know,
    /// which merges as a legacy sub-graph of its own.
    Snapshot,
    Segment(u64),
    Journal(u64),
    Parity(u64),
    Manifest,
    Ledger,
}

/// Where a file stands in the commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Live,
    Tmp,
    Quarantined,
}

/// A parsed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Name<'a> {
    /// The snapshot path of the store the file belongs to — what the
    /// store's GUID hashes. The manifest and the ledger are their own base:
    /// the ledger's frames carry the GUID of its own path.
    pub(crate) base: &'a str,
    pub(crate) role: Role,
    /// The outermost wrapper.
    pub(crate) state: State,
    /// The path without that wrapper: where a tmp commits to, what a
    /// quarantined copy was taken from, the path itself when live.
    pub(crate) live: &'a str,
}

impl Name<'_> {
    /// GUID of the owning store: a snapshot, its segments, journal and
    /// parity files, tmp or quarantined, all claim the same one.
    pub(crate) fn guid(&self) -> u64 {
        fnv1a64(self.base.as_bytes())
    }

    /// The manifest or the ledger: `verify` owns them, no other tier
    /// parses them or adopts their tmp.
    pub(crate) fn is_trust_artifact(&self) -> bool {
        matches!(self.role, Role::Manifest | Role::Ledger)
    }

    /// A committed file of some store — what a run manifest lists.
    pub(crate) fn is_store_file(&self) -> bool {
        self.state == State::Live && !self.is_trust_artifact()
    }

    /// Serialization of the payload, by the extension of the live name
    /// (segments and journals are always N-Triples); `None` when it says
    /// neither and a reader has to try both.
    pub(crate) fn syntax(&self) -> Option<RdfFormat> {
        let extension = self.live.rsplit_once('.')?.1;
        [RdfFormat::NTriples, RdfFormat::Turtle]
            .into_iter()
            .find(|format| format.extension() == extension)
    }
}

/// `path` without its outermost wrapper, and which one that was.
fn unwrapped(path: &str) -> Option<(&str, State)> {
    let tmp = path.strip_suffix(TMP).map(|rest| (rest, State::Tmp));
    tmp.or_else(|| Some((path.strip_suffix(QUARANTINE)?, State::Quarantined)))
}

/// Parse any path. Total: a name the grammar does not know is a live
/// snapshot of itself.
pub(crate) fn parse(path: &str) -> Name<'_> {
    // A hand-made name can be wrapped more than once; the outermost
    // wrapper is its state and all of them come off the base.
    let (live, state) = unwrapped(path).unwrap_or((path, State::Live));
    let mut bare = live;
    while let Some((rest, _)) = unwrapped(bare) {
        bare = rest;
    }
    // `<base>.<tag>NNNNNN<ext>`, exactly six digits.
    let numbered = |tag: char, ext: &str| {
        let stem = bare.strip_suffix(ext)?;
        let (base, seq) = stem.split_at_checked(stem.len().checked_sub(8)?)?;
        let digits = seq.strip_prefix('.')?.strip_prefix(tag)?;
        let all_digits = digits.bytes().all(|b| b.is_ascii_digit());
        all_digits.then(|| (base, digits.parse().expect("six ASCII digits")))
    };
    let (base, role) = if let Some((base, n)) = numbered('d', ".nt") {
        (base, Role::Segment(n))
    } else if let Some((base, n)) = numbered('w', ".nt") {
        (base, Role::Journal(n))
    } else if let Some((base, n)) = numbered('p', ".par") {
        (base, Role::Parity(n))
    } else {
        let role = match bare.rsplit('/').next() {
            Some(MANIFEST_NAME) => Role::Manifest,
            Some(LEDGER_NAME) => Role::Ledger,
            _ => Role::Snapshot,
        };
        (bare, role)
    };
    Name {
        base,
        role,
        state,
        live,
    }
}

/// The path of the `role` file of the store at `base`, in `state`.
pub(crate) fn print(base: &str, role: Role, state: State) -> String {
    let live = match role {
        Role::Snapshot | Role::Manifest | Role::Ledger => base.to_string(),
        Role::Segment(n) => format!("{base}.d{n:06}.nt"),
        Role::Journal(n) => format!("{base}.w{n:06}.nt"),
        Role::Parity(n) => format!("{base}.p{n:06}.par"),
    };
    match state {
        State::Live => live,
        State::Tmp => tmp_of(&live),
        State::Quarantined => quarantine_of(&live),
    }
}

/// Where a commit of `live` is staged before its rename.
pub(crate) fn tmp_of(live: &str) -> String {
    format!("{live}{TMP}")
}

/// Where a condemned `live` is moved aside to.
pub(crate) fn quarantine_of(live: &str) -> String {
    format!("{live}{QUARANTINE}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_role_and_state_parses() {
        let n = parse("/provio/prov_p1.nt.d000003.nt.tmp");
        assert_eq!(
            (n.base, n.role, n.state, n.live),
            (
                "/provio/prov_p1.nt",
                Role::Segment(3),
                State::Tmp,
                "/provio/prov_p1.nt.d000003.nt"
            )
        );
        assert_eq!(
            parse("/provio/prov_p1.ttl.w000123.nt").role,
            Role::Journal(123)
        );
        assert_eq!(
            parse("/provio/prov_p1.nt.p000004.par.quarantine").role,
            Role::Parity(4)
        );
        assert_eq!(
            parse("/provio/prov_p1.nt.quarantine").state,
            State::Quarantined
        );
        assert_eq!(parse("/provio/MANIFEST.provio.tmp").role, Role::Manifest);
        assert_eq!(
            parse("/provio/CAMPAIGN.provio").base,
            "/provio/CAMPAIGN.provio"
        );
        // Names that merely resemble the grammar are snapshots of themselves.
        for p in [
            "/provio/d000001.nt",
            "/provio/x.d00001.nt",
            "/provio/x.d0000001.nt",
            "x.q000001.nt",
            "",
        ] {
            assert_eq!((parse(p).role, parse(p).base), (Role::Snapshot, p), "{p}");
        }
        // Stacked wrappers: the outermost is the state, the base sheds all.
        let n = parse("/provio/a.nt.quarantine.tmp");
        assert_eq!(
            (n.base, n.state, n.live),
            ("/provio/a.nt", State::Tmp, "/provio/a.nt.quarantine")
        );
    }

    #[test]
    fn syntax_follows_the_live_extension() {
        assert_eq!(parse("/p/a.nt.tmp").syntax(), Some(RdfFormat::NTriples));
        assert_eq!(parse("/p/a.ttl").syntax(), Some(RdfFormat::Turtle));
        assert_eq!(
            parse("/p/a.ttl.d000001.nt").syntax(),
            Some(RdfFormat::NTriples)
        );
        assert_eq!(parse("/p/a.rdf").syntax(), None);
        assert_eq!(parse("/p/ant").syntax(), None);
    }

    fn role() -> impl Strategy<Value = Role> {
        let n = 0u64..1_000_000;
        prop_oneof![
            Just(Role::Snapshot),
            n.clone().prop_map(Role::Segment),
            n.clone().prop_map(Role::Journal),
            n.prop_map(Role::Parity),
        ]
    }

    fn state() -> impl Strategy<Value = State> {
        prop_oneof![
            Just(State::Live),
            Just(State::Tmp),
            Just(State::Quarantined)
        ]
    }

    proptest! {
        /// Total on any string — multi-byte characters at the slicing
        /// offsets and stacked wrappers included — and what it returns are
        /// prefixes of the path.
        #[test]
        fn parse_is_total(
            stem in "[ -~é-ë]{0,16}",
            seq in "[.é]{0,1}[dwpé]{0,1}[0-9é]{5,7}",
            ext in prop_oneof![Just(""), Just(".nt"), Just(".par")],
            wrappers in prop::collection::vec(prop_oneof![Just(".tmp"), Just(".quarantine")], 0..3),
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let shaped = format!("{stem}{seq}{ext}{}", wrappers.concat());
            for path in [shaped.as_str(), &String::from_utf8_lossy(&bytes)] {
                let n = parse(path);
                prop_assert!(n.live.starts_with(n.base) && path.starts_with(n.live), "{path:?}");
            }
        }

        /// `print` inverts `parse` for every name the store can emit.
        #[test]
        fn print_inverts_parse(
            stem in "/[a-z]{1,8}/prov_p[0-9]{1,4}",
            ext in prop_oneof![Just(".nt"), Just(".ttl")],
            role in role(),
            state in state(),
        ) {
            let base = format!("{stem}{ext}");
            let path = print(&base, role, state);
            let n = parse(&path);
            prop_assert_eq!((n.base, n.role, n.state), (base.as_str(), role, state));
            prop_assert_eq!(print(n.base, n.role, n.state), path);
        }

        #[test]
        fn trust_artifacts_round_trip(dir in "/[a-z]{1,8}", ledger in any::<bool>(), state in state()) {
            let (file, role) = if ledger { (LEDGER_NAME, Role::Ledger) } else { (MANIFEST_NAME, Role::Manifest) };
            let path = print(&format!("{dir}/{file}"), role, state);
            let n = parse(&path);
            prop_assert_eq!((n.role, n.state), (role, state));
            prop_assert!(n.is_trust_artifact() && !n.is_store_file());
            prop_assert_eq!(print(n.base, n.role, n.state), path);
        }
    }
}
