//! The in-memory graph: term interning, an insertion-ordered triple log,
//! SPO/POS/OSP indexes derived from the log on first read, and at most one
//! pending *product* — a derived relation held as groups, not triples.
//!
//! The tracker's write path is append-heavy (hundreds of thousands of inserts
//! per process in the H5bench experiments) and never looks anything up; the
//! query path is lookup-heavy and runs on the merged graph after the last
//! write. So terms are interned once into [`TermId`]s, a write appends an
//! id-triple to the log and drops the indexes, and the first read after it
//! builds each index it needs in one counting sort over the log. All
//! matching is done on ids; owned [`Triple`]s are only materialized at the
//! API boundary (cheap — term payloads are `Arc<str>`).
//!
//! A product ([`Graph::add_product`]) relates every id of a group's left
//! side to every id of its right side. Every read answers as if those edges
//! had been inserted after the log; a read with a bound subject or object
//! answers from the groups, and only a read of the whole relation expands
//! them, once. The next write appends the expansion to the log first.

use crate::idhash::{IdMap, IdSet};
use crate::term::{Term, TermView};
use crate::triple::{Triple, TriplePattern};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Dense id of an interned term within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

fn view_hash(v: TermView<'_>) -> u64 {
    // `DefaultHasher::new()` is SipHash under fixed, public zero keys, so it
    // is no defence against a file crafted to collide. What the interner
    // relies on is that every graph in the process computes the same hash
    // for a term: a clone keeps a working table, and `Graph::merge` files
    // each incoming term under the hash its own graph recorded.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Front cache of the interner on `Arc` identity.
///
/// The capture path hands the graph clones of a few shared `Arc<str>`s over
/// and over — every predicate and class (one process-wide vocabulary), the
/// program agent, one subject per record — and an IRI the interner holds
/// *is* its allocation: a view at the same address and length is that term,
/// with no string hashed or compared. Slots name only allocations `terms`
/// keeps alive (terms are never dropped), so an address cannot be reused
/// for another string while a slot names it. Direct-mapped: a colliding
/// slot is overwritten and a miss falls back to the hashed lookup; parsed
/// terms (fresh `Arc`s) always miss, for one L1 probe.
#[derive(Debug, Clone)]
struct ArcCache(Vec<ArcSlot>);

/// One byte of the address hash picks the slot.
const ARC_SLOTS: usize = 256;

#[derive(Debug, Clone, Copy, Default)]
struct ArcSlot {
    /// Address of the held `Arc<str>`'s bytes; 0 = empty.
    addr: usize,
    len: usize,
    id: u32,
}

impl Default for ArcCache {
    fn default() -> Self {
        ArcCache(vec![ArcSlot::default(); ARC_SLOTS])
    }
}

impl ArcCache {
    fn slot_of(s: &str) -> usize {
        // `Arc` payloads are 8-aligned: drop the zero bits, mix, and take
        // the product's top byte.
        ((s.as_ptr() as u64 >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % ARC_SLOTS
    }

    fn get(&self, slot: usize, s: &str) -> Option<TermId> {
        let e = self.0[slot];
        (e.addr == s.as_ptr() as usize && e.len == s.len()).then_some(TermId(e.id))
    }

    fn set(&mut self, slot: usize, held: &str, id: TermId) {
        self.0[slot] = ArcSlot {
            addr: held.as_ptr() as usize,
            len: held.len(),
            id: id.0,
        };
    }
}

/// Term interner keyed by [`TermView`] hashes so lookups never allocate or
/// clone an `Arc` chain. Collisions are resolved by comparing the view
/// against the stored term.
#[derive(Debug, Default, Clone)]
struct Interner {
    terms: Vec<Term>,
    /// `hashes[i]` is the view hash of `terms[i]`.
    hashes: Vec<u64>,
    /// view-hash → the first id interned under it.
    ids: IdMap<u64, u32>,
    /// Ids whose view hash was already taken by a different term: scanned
    /// linearly, and empty unless 64-bit SipHash outputs collide.
    collided: Vec<u32>,
    by_arc: ArcCache,
}

impl Interner {
    /// Intern by borrowed view; `make` produces the owned term only on
    /// first sight (typically an `Arc` clone from the caller's triple).
    fn intern_view(&mut self, v: TermView<'_>, make: impl FnOnce() -> Term) -> TermId {
        let TermView::Iri(iri) = v else {
            return self.intern_hashed(view_hash(v), v, make);
        };
        let slot = ArcCache::slot_of(iri);
        if let Some(id) = self.by_arc.get(slot, iri) {
            return id;
        }
        let id = self.intern_hashed(view_hash(v), v, make);
        // Only the allocation the interner itself holds may be cached: the
        // caller's `Arc`, if it is another one, can die and its address be
        // reused.
        if let Term::Iri(held) = &self.terms[id.0 as usize] {
            if std::ptr::eq(held.as_str(), iri) {
                self.by_arc.set(slot, iri, id);
            }
        }
        id
    }

    /// Intern `v` under its view hash `hash`. The hash only picks the
    /// bucket: whether a held term is `v` is decided by comparing content.
    fn intern_hashed(&mut self, hash: u64, v: TermView<'_>, make: impl FnOnce() -> Term) -> TermId {
        let next = self.terms.len() as u32;
        match self.ids.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(next);
            }
            Entry::Occupied(slot) => {
                if let Some(id) = find(&self.terms, &self.collided, *slot.get(), v) {
                    return id;
                }
                self.collided.push(next);
            }
        }
        self.terms.push(make());
        self.hashes.push(hash);
        TermId(next)
    }

    fn get_view(&self, v: TermView<'_>) -> Option<TermId> {
        find(&self.terms, &self.collided, *self.ids.get(&view_hash(v))?, v)
    }

    fn get(&self, t: &Term) -> Option<TermId> {
        self.get_view(TermView::of(t))
    }

    fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }
}

/// The id of `v` given the `first` id interned under its hash: that one, or
/// one of the `collided`.
fn find(terms: &[Term], collided: &[u32], first: u32, v: TermView<'_>) -> Option<TermId> {
    std::iter::once(first)
        .chain(collided.iter().copied())
        .find(|&id| v.matches(&terms[id as usize]))
        .map(TermId)
}

type Pair = (u32, u32);
type Ids = (u32, u32, u32);
/// A product's group: (left ids, right ids).
type Group = (Vec<u32>, Vec<u32>);
/// One side of a group.
type Side = fn(&Group) -> &[u32];

/// Compressed rows: key `k`'s values are `values[start[k]..start[k + 1]]`,
/// in the order of the input they were built from. An index holds one
/// pair per triple, in insertion order.
#[derive(Debug, Clone)]
struct Csr<T = Pair> {
    /// One entry per term interned when the rows were built, plus one.
    start: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// One stable counting sort of `items` by the key `split` takes off
    /// each: count, prefix-sum, scatter. Two allocations.
    fn build<I: Copy>(items: &[I], terms: usize, split: impl Fn(I) -> (u32, T)) -> Csr<T> {
        let mut start = vec![0u32; terms + 1];
        for &t in items {
            start[split(t).0 as usize + 1] += 1;
        }
        for k in 1..=terms {
            start[k] += start[k - 1];
        }
        let mut values = vec![T::default(); items.len()];
        for &t in items {
            let (key, value) = split(t);
            let at = &mut start[key as usize];
            values[*at as usize] = value;
            *at += 1;
        }
        // Each key's cursor now sits where the next key's values begin.
        start.copy_within(0..terms, 1);
        start[0] = 0;
        Csr { start, values }
    }

    /// The values of `key`; none for a key past the terms at build time.
    fn get(&self, key: u32) -> &[T] {
        let k = key as usize;
        match (self.start.get(k), self.start.get(k + 1)) {
            (Some(&a), Some(&b)) => &self.values[a as usize..b as usize],
            _ => &[],
        }
    }
}

/// A pending product (see [`Graph::add_product`]): `pred` relates each id of
/// a group's left side to each id of its right side. Self-contained — it
/// never reads the graph's log, which cannot change while it is pending.
#[derive(Debug, Clone)]
struct Product {
    pred: u32,
    /// Each side sorted and deduplicated.
    groups: Vec<Group>,
    /// x → the groups whose left side holds x, ascending; y → the groups
    /// whose right side holds y.
    by_left: Csr<u32>,
    by_right: Csr<u32>,
    /// Exact counts of the edges the product adds: out of x, into y, all.
    from: Vec<u32>,
    into: Vec<u32>,
    total: usize,
    /// The stored `pred` edges the product repeats, as (x, y).
    stored: IdSet<Pair>,
    /// Every added edge in insertion order, built by the first read of the
    /// whole relation.
    expanded: OnceLock<Vec<Ids>>,
}

impl Product {
    /// `stored_edges` lists the log's `pred` edges as (x, y).
    fn new(
        pred: u32,
        groups: Vec<Group>,
        terms: usize,
        stored_edges: impl Iterator<Item = Pair>,
    ) -> Product {
        let members = |side: Side| {
            let of: Vec<Pair> = (0..groups.len() as u32)
                .flat_map(|g| side(&groups[g as usize]).iter().map(move |&id| (id, g)))
                .collect();
            Csr::build(&of, terms, |pair| pair)
        };
        let by_left = members(|g| &g.0);
        let by_right = members(|g| &g.1);
        // How many ids other than `id` the groups `of` hold on `side`. An
        // id in one group — every object of one program — costs a binary
        // search; only an id in several groups pays for their union.
        let reach = |id: u32, of: &[u32], side: Side| match of {
            [] => 0,
            &[g] => {
                let ids = side(&groups[g as usize]);
                ids.len() - usize::from(ids.binary_search(&id).is_ok())
            }
            _ => {
                let mut ids: Vec<u32> = of
                    .iter()
                    .flat_map(|&g| side(&groups[g as usize]).iter().copied())
                    .filter(|&other| other != id)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            }
        };
        let from: Vec<u32> = (0..terms as u32)
            .map(|x| reach(x, by_left.get(x), |g| &g.1) as u32)
            .collect();
        let into: Vec<u32> = (0..terms as u32)
            .map(|y| reach(y, by_right.get(y), |g| &g.0) as u32)
            .collect();
        let mut product = Product {
            pred,
            groups,
            by_left,
            by_right,
            total: from.iter().map(|&n| n as usize).sum(),
            from,
            into,
            stored: IdSet::default(),
            expanded: OnceLock::new(),
        };
        for (x, y) in stored_edges {
            if product.holds(x, y) {
                product.stored.insert((x, y));
                product.from[x as usize] -= 1;
                product.into[y as usize] -= 1;
                product.total -= 1;
            }
        }
        product
    }

    /// Whether some group relates `x` to `y` (stored or not).
    fn holds(&self, x: u32, y: u32) -> bool {
        x != y
            && self
                .by_left
                .get(x)
                .iter()
                .any(|&g| self.groups[g as usize].1.binary_search(&y).is_ok())
    }

    /// Whether group `g` adds (x, y): not a loop, not stored, not added by
    /// an earlier group.
    fn adds(&self, x: u32, y: u32, g: u32) -> bool {
        x != y
            && !self.stored.contains(&(x, y))
            && !self
                .by_left
                .get(x)
                .iter()
                .take_while(|&&h| h < g)
                .any(|&h| self.groups[h as usize].1.binary_search(&y).is_ok())
    }

    /// The objects of the edges added out of `x`, in insertion order.
    fn objects_of(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        self.by_left.get(x).iter().flat_map(move |&g| {
            let right = &self.groups[g as usize].1;
            right.iter().copied().filter(move |&y| self.adds(x, y, g))
        })
    }

    /// The subjects of the edges added into `y`, in insertion order.
    fn subjects_of(&self, y: u32) -> impl Iterator<Item = u32> + '_ {
        self.by_right.get(y).iter().flat_map(move |&g| {
            let left = &self.groups[g as usize].0;
            left.iter().copied().filter(move |&x| self.adds(x, y, g))
        })
    }

    /// Every added edge, in insertion order: group by group, each left id
    /// ascending, each right id ascending.
    fn expansion(&self) -> &[Ids] {
        self.expanded.get_or_init(|| {
            let mut out = Vec::with_capacity(self.total);
            for (g, (left, right)) in self.groups.iter().enumerate() {
                for &x in left {
                    out.extend(
                        right
                            .iter()
                            .filter(|&&y| self.adds(x, y, g as u32))
                            .map(|&y| (x, self.pred, y)),
                    );
                }
            }
            out
        })
    }
}

/// What a serializer needs of a slice of a graph, detached from the graph:
/// the slice's id-triples in insertion order, renumbered densely, and the
/// terms behind them (`Arc` clones — payloads are shared). Taking one reads
/// no index and copies no interner, so a store captures under its state
/// lock and renders after releasing it.
#[derive(Debug)]
pub struct Capture {
    /// Id-triples in insertion order, each id an index into `terms`.
    pub ids: Vec<(u32, u32, u32)>,
    /// The distinct terms `ids` names, in order of first appearance.
    pub terms: Vec<Term>,
}

/// An indexed RDF graph.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    interner: Interner,
    /// Canonical triple set (s, p, o) by id.
    triples: IdSet<(u32, u32, u32)>,
    /// Id-triples in insertion order. This is what incremental (delta)
    /// serialization walks: a writer remembers how many triples it has
    /// already persisted and serializes only `order[watermark..]` on the
    /// next flush. `remove` keeps the vec consistent but shifts later
    /// indices, so delta watermarks are only meaningful for append-only
    /// graphs (the provenance store never removes).
    order: Vec<(u32, u32, u32)>,
    /// s → [(p, o)], p → [(o, s)], o → [(s, p)]: views of `order`, each
    /// built by the first read that needs it and dropped by every write.
    spo: OnceLock<Csr>,
    pos: OnceLock<Csr>,
    osp: OnceLock<Csr>,
    /// Edges every read sees after `order`, held as groups until the next
    /// write appends them to it. Boxed: every insert tests it.
    product: Option<Box<Product>>,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    pub fn len(&self) -> usize {
        self.triples.len() + self.product.as_deref().map_or(0, |p| p.total)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct interned terms.
    pub fn term_count(&self) -> usize {
        self.interner.terms.len()
    }

    /// Insert a triple. Returns `false` if it was already present.
    ///
    /// Interner lookups go through borrowed [`TermView`] keys: a triple
    /// whose terms are already interned costs zero allocations and zero
    /// `Arc` refcount traffic to insert.
    pub fn insert(&mut self, t: &Triple) -> bool {
        let s = self
            .interner
            .intern_view(TermView::of_subject(&t.subject), || {
                Term::from(t.subject.clone())
            });
        let p = self
            .interner
            .intern_view(TermView::of_iri(&t.predicate), || {
                Term::Iri(t.predicate.clone())
            });
        let o = self
            .interner
            .intern_view(TermView::of(&t.object), || t.object.clone());
        self.insert_ids(s, p, o)
    }

    /// Insert by pre-interned ids (hot path for bulk loads and parsing).
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        self.expand_product();
        if !self.triples.insert((s.0, p.0, o.0)) {
            return false;
        }
        self.order.push((s.0, p.0, o.0));
        self.invalidate();
        true
    }

    /// A write drops the index views; the next read rebuilds what it needs.
    fn invalidate(&mut self) {
        self.spo.take();
        self.pos.take();
        self.osp.take();
    }

    /// Before any write: append a pending product's edges to the log, in
    /// the order its reads showed them.
    fn expand_product(&mut self) {
        let Some(product) = self.product.take() else {
            return;
        };
        product.expansion();
        let edges = product.expanded.into_inner().expect("expanded above");
        self.triples.extend(edges.iter().copied());
        self.order.extend(edges);
        self.invalidate();
    }

    /// Add, as a product, the edges `(x, p, y)` for each group's left ids
    /// `x` and right ids `y` with `x != y`. The graph then reads exactly as
    /// if they had been inserted one [`Graph::insert_ids`] at a time after
    /// the stored triples — group by group, each side ascending — and
    /// returns how many of those inserts would have returned `true`.
    ///
    /// Nothing is written: the log and its indexes stay as they are. A read
    /// with a bound subject or object answers from the groups, in time
    /// proportional to the groups it touches; a read of the whole relation
    /// (`p` bound alone, nothing bound, [`Graph::iter`], the serializers)
    /// expands them once. The next write, a second product included,
    /// appends the edges to the log first. Panics on a foreign id.
    pub fn add_product(
        &mut self,
        p: TermId,
        groups: impl IntoIterator<Item = (Vec<TermId>, Vec<TermId>)>,
    ) -> usize {
        self.expand_product();
        let sorted = |ids: Vec<TermId>| {
            let mut ids: Vec<u32> = ids.into_iter().map(|id| id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let groups = groups
            .into_iter()
            .map(|(left, right)| (sorted(left), sorted(right)))
            .collect();
        // The stored `p` edges: from `pos` if a read has built it, else
        // from one scan of the log.
        let (indexed, scanned): (&[Pair], &[Ids]) = match self.pos.get() {
            Some(pos) => (pos.get(p.0), &[]),
            None => (&[], &self.order),
        };
        let stored = indexed.iter().map(|&(o, s)| (s, o)).chain(
            scanned
                .iter()
                .filter(|t| t.1 == p.0)
                .map(|&(s, _, o)| (s, o)),
        );
        let product = Product::new(p.0, groups, self.term_count(), stored);
        let added = product.total;
        self.product = (added > 0).then(|| Box::new(product));
        added
    }

    fn spo(&self) -> &Csr {
        self.spo
            .get_or_init(|| Csr::build(&self.order, self.term_count(), |(s, p, o)| (s, (p, o))))
    }

    fn pos(&self) -> &Csr {
        self.pos
            .get_or_init(|| Csr::build(&self.order, self.term_count(), |(s, p, o)| (p, (o, s))))
    }

    fn osp(&self) -> &Csr {
        self.osp
            .get_or_init(|| Csr::build(&self.order, self.term_count(), |(s, p, o)| (o, (s, p))))
    }

    /// Intern a term without inserting any triple.
    pub fn intern(&mut self, t: &Term) -> TermId {
        self.interner.intern_view(TermView::of(t), || t.clone())
    }

    /// Intern a borrowed view — what the parsers read off a document. The
    /// owned term is built, and allocated, only on first sight. (A parsed
    /// view never names an allocation the interner holds, so it skips the
    /// `Arc`-identity front cache.)
    pub(crate) fn intern_view(&mut self, v: TermView<'_>) -> TermId {
        self.interner.intern_hashed(view_hash(v), v, || v.to_term())
    }

    /// Look up a term's id if it is interned.
    pub fn term_id(&self, t: &Term) -> Option<TermId> {
        self.interner.get(t)
    }

    /// The term behind an id. Panics on a foreign id.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.term(id)
    }

    pub fn contains(&self, t: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.interner.get_view(TermView::of_subject(&t.subject)),
            self.interner.get_view(TermView::of_iri(&t.predicate)),
            self.interner.get_view(TermView::of(&t.object)),
        ) else {
            return false;
        };
        self.triples.contains(&(s.0, p.0, o.0))
            || self
                .product
                .as_ref()
                .is_some_and(|x| x.pred == p.0 && x.holds(s.0, o.0))
    }

    /// Remove a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        self.expand_product();
        let (Some(s), Some(p), Some(o)) = (
            self.interner.get_view(TermView::of_subject(&t.subject)),
            self.interner.get_view(TermView::of_iri(&t.predicate)),
            self.interner.get_view(TermView::of(&t.object)),
        ) else {
            return false;
        };
        if !self.triples.remove(&(s.0, p.0, o.0)) {
            return false;
        }
        if let Some(pos) = self
            .order
            .iter()
            .rposition(|&ids| ids == (s.0, p.0, o.0))
        {
            self.order.remove(pos);
        }
        self.invalidate();
        true
    }

    /// Keep only the triples `keep` accepts, in one pass over the log —
    /// the bulk form of [`Graph::remove`]. Returns how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(TermId, TermId, TermId) -> bool) -> usize {
        self.expand_product();
        let triples = &mut self.triples;
        let before = self.order.len();
        self.order.retain(|&(s, p, o)| {
            let kept = keep(TermId(s), TermId(p), TermId(o));
            if !kept {
                triples.remove(&(s, p, o));
            }
            kept
        });
        self.invalidate();
        before - self.order.len()
    }

    /// The stored log, then a pending product's edges (expanded on first
    /// call).
    fn all_ids(&self) -> impl Iterator<Item = Ids> + '_ {
        let product = self.product.as_deref().map_or(&[][..], Product::expansion);
        self.order.iter().chain(product).copied()
    }

    /// Iterate all triples (materialized; insertion order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.all_ids().map(move |(s, p, o)| self.rebuild(s, p, o))
    }

    /// Iterate all triples as id tuples, in insertion order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.all_ids()
            .map(|(s, p, o)| (TermId(s), TermId(p), TermId(o)))
    }

    /// Every id-triple in insertion order, each id an index into
    /// [`Graph::terms`] — what the serializers read. Borrowed unless a
    /// product is pending.
    pub(crate) fn log(&self) -> Cow<'_, [Ids]> {
        match &self.product {
            None => Cow::Borrowed(&self.order),
            Some(_) => Cow::Owned(self.all_ids().collect()),
        }
    }

    /// Id-triples inserted at or after insertion index `start`, in
    /// insertion order — the delta a serialization watermark has not yet
    /// persisted. `start` values come from a previous [`Graph::len`] taken
    /// on this graph (valid only while the graph is append-only). This is
    /// the append-only store's delta API: it reads the stored log only, and
    /// a store never holds a product.
    pub fn ids_from(&self, start: usize) -> &[(u32, u32, u32)] {
        debug_assert!(self.product.is_none(), "ids_from on a graph with a product");
        &self.order[start.min(self.order.len())..]
    }

    /// All interned terms in id order (`terms()[i]` is the term behind
    /// `TermId(i)`).
    pub fn terms(&self) -> &[Term] {
        &self.interner.terms
    }

    /// Capture the triples [`Graph::ids_from`]`(start)` names (see
    /// [`Capture`]): one pass over the slice and one `Arc` clone per
    /// distinct term in it.
    pub fn capture_from(&self, start: usize) -> Capture {
        // The local id of each term, plus one; 0 = not met yet. Four zeroed
        // bytes per interned term is the one cost that follows the graph
        // rather than the slice.
        let mut local = vec![0u32; self.interner.terms.len()];
        let mut terms = Vec::new();
        let mut localize = |id: u32| {
            let slot = &mut local[id as usize];
            if *slot == 0 {
                terms.push(self.interner.terms[id as usize].clone());
                *slot = terms.len() as u32;
            }
            *slot - 1
        };
        let ids = self
            .ids_from(start)
            .iter()
            .map(|&(s, p, o)| (localize(s), localize(p), localize(o)))
            .collect();
        Capture { ids, terms }
    }

    fn rebuild(&self, s: u32, p: u32, o: u32) -> Triple {
        let subject = self
            .interner
            .term(TermId(s))
            .as_subject()
            .expect("subject position holds IRI or blank");
        let Term::Iri(predicate) = self.interner.term(TermId(p)).clone() else {
            panic!("predicate position holds IRI");
        };
        Triple {
            subject,
            predicate,
            object: self.interner.term(TermId(o)).clone(),
        }
    }

    /// Match a pattern, choosing the most selective index available.
    pub fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        let s = pat.subject.as_ref().map(|s| self.interner.get_view(TermView::of_subject(s)));
        let p = pat.predicate.as_ref().map(|p| self.interner.get_view(TermView::of_iri(p)));
        let o = pat.object.as_ref().map(|o| self.interner.get(o));
        let hits = self.match_ids(s, p, o).into_iter();
        hits.map(|(s, p, o)| self.rebuild(s.0, p.0, o.0)).collect()
    }

    /// Id-level matching. Each position is `None` (wildcard) or
    /// `Some(Option<TermId>)` — `Some(None)` means the pattern binds a term
    /// that is not interned here, so nothing can match, and neither can an
    /// id this graph never minted. Matches come in insertion order: the
    /// stored triples', then a pending product's.
    ///
    /// The first call after a write builds the index the pattern's shape
    /// reads, in time linear in the graph.
    pub fn match_ids(
        &self,
        s: Option<Option<TermId>>,
        p: Option<Option<TermId>>,
        o: Option<Option<TermId>>,
    ) -> Vec<(TermId, TermId, TermId)> {
        let mut out = Vec::new();
        self.match_ids_into(s, p, o, &mut out);
        out
    }

    /// [`Graph::match_ids`], appended to `out`: a caller that matches once
    /// per row reuses one buffer.
    pub fn match_ids_into(
        &self,
        s: Option<Option<TermId>>,
        p: Option<Option<TermId>>,
        o: Option<Option<TermId>>,
        out: &mut Vec<(TermId, TermId, TermId)>,
    ) {
        // A bound-but-unknown term can never match.
        if [s, p, o].contains(&Some(None)) {
            return;
        }
        let [s, p, o] = [s, p, o].map(|at| at.flatten().map(|id| id.0));

        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.triples.contains(&(s, p, o)) {
                    out.push((TermId(s), TermId(p), TermId(o)));
                }
            }
            (Some(s), p, o) => {
                for &(tp, to) in self.spo().get(s) {
                    if p.is_none_or(|p| p == tp) && o.is_none_or(|o| o == to) {
                        out.push((TermId(s), TermId(tp), TermId(to)));
                    }
                }
            }
            (None, Some(p), o) => {
                for &(to, ts) in self.pos().get(p) {
                    if o.is_none_or(|o| o == to) {
                        out.push((TermId(ts), TermId(p), TermId(to)));
                    }
                }
            }
            (None, None, Some(o)) => {
                for &(ts, tp) in self.osp().get(o) {
                    out.push((TermId(ts), TermId(tp), TermId(o)));
                }
            }
            (None, None, None) => {
                out.extend(
                    self.order
                        .iter()
                        .map(|&(s, p, o)| (TermId(s), TermId(p), TermId(o))),
                );
            }
        }
        let Some(x) = &self.product else {
            return;
        };
        if p.is_some_and(|p| p != x.pred) {
            return;
        }
        let edge = |s, o| (TermId(s), TermId(x.pred), TermId(o));
        match (s, o) {
            (Some(s), Some(o)) => {
                // At most one edge, stored (pushed above) or added.
                if x.holds(s, o) && !x.stored.contains(&(s, o)) {
                    out.push(edge(s, o));
                }
            }
            (Some(s), None) => out.extend(x.objects_of(s).map(|o| edge(s, o))),
            (None, Some(o)) => out.extend(x.subjects_of(o).map(|s| edge(s, o))),
            (None, None) => out.extend(x.expansion().iter().map(|&(s, _, o)| edge(s, o))),
        }
    }

    /// Estimated number of matches for a pattern shape, used for join
    /// ordering without materializing results.
    pub fn cardinality_estimate(
        &self,
        s: Option<Option<TermId>>,
        p: Option<Option<TermId>>,
        o: Option<Option<TermId>>,
    ) -> usize {
        if [s, p, o].contains(&Some(None)) {
            return 0;
        }
        let [s, p, o] = [s, p, o].map(Option::flatten);
        // A product's edges count where they would sit in the indexes.
        let x = self.product.as_deref();
        let added = |counts: fn(&Product) -> &[u32], id: TermId| {
            x.and_then(|x| counts(x).get(id.0 as usize))
                .map_or(0, |&n| n as usize)
        };
        match (s, p, o) {
            (Some(_), Some(_), Some(_)) => 1,
            (Some(s), _, _) => self.spo().get(s.0).len() + added(|x| &x.from, s),
            (None, Some(p), _) => {
                self.pos().get(p.0).len() + x.filter(|x| x.pred == p.0).map_or(0, |x| x.total)
            }
            (None, None, Some(o)) => self.osp().get(o.0).len() + added(|x| &x.into, o),
            (None, None, None) => self.len(),
        }
    }

    /// Merge all triples of `other` into `self`. Duplicate triples collapse,
    /// which is what makes the per-process sub-graph strategy of the paper's
    /// provenance store safe: GUID-keyed nodes appearing in several
    /// sub-graphs merge without duplication.
    ///
    /// Bulk path: the tables are reserved for `other` once, every term of
    /// `other` is interned into `self` up front under the hash `other`
    /// recorded for it (one table probe per *distinct* term, no term hashed
    /// again), then the triples are inserted by pre-mapped ids, in `other`'s
    /// order. This is what makes parallel sub-graph merging pay off:
    /// scratch graphs parsed on worker threads fold into the final graph at
    /// id speed. Folding into an empty graph assigns `other`'s own ids.
    pub fn merge(&mut self, other: &Graph) -> usize {
        self.expand_product();
        let (from, into) = (&other.interner, &mut self.interner);
        into.terms.reserve(from.terms.len());
        into.hashes.reserve(from.terms.len());
        into.ids.reserve(from.terms.len());
        let map: Vec<u32> = (from.terms.iter().zip(&from.hashes))
            .map(|(t, &hash)| into.intern_hashed(hash, TermView::of(t), || t.clone()).0)
            .collect();
        let log = other.log();
        self.triples.reserve(log.len());
        self.order.reserve(log.len());
        let before = self.order.len();
        for &(s, p, o) in log.iter() {
            let ids = (map[s as usize], map[p as usize], map[o as usize]);
            if self.triples.insert(ids) {
                self.order.push(ids);
            }
        }
        let added = self.order.len() - before;
        if added > 0 {
            self.invalidate();
        }
        added
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(&t);
        }
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Iri, Literal, Subject};

    fn tr(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Subject::iri(s), Iri::new(p), Term::iri(o))
    }

    #[test]
    fn insert_dedups() {
        let mut g = Graph::new();
        assert!(g.insert(&tr("urn:a", "urn:p", "urn:b")));
        assert!(!g.insert(&tr("urn:a", "urn:p", "urn:b")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn contains_and_remove() {
        let mut g = Graph::new();
        let t = tr("urn:a", "urn:p", "urn:b");
        g.insert(&t);
        assert!(g.contains(&t));
        assert!(g.remove(&t));
        assert!(!g.contains(&t));
        assert!(!g.remove(&t));
        assert_eq!(g.len(), 0);
        // Indexes are cleaned: a fresh match finds nothing.
        assert!(g.match_pattern(&TriplePattern::any()).is_empty());
    }

    #[test]
    fn match_by_each_position() {
        let mut g = Graph::new();
        g.insert(&tr("urn:a", "urn:p", "urn:b"));
        g.insert(&tr("urn:a", "urn:q", "urn:c"));
        g.insert(&tr("urn:x", "urn:p", "urn:b"));

        let by_s = g.match_pattern(&TriplePattern::any().with_subject(Subject::iri("urn:a")));
        assert_eq!(by_s.len(), 2);

        let by_p = g.match_pattern(&TriplePattern::any().with_predicate(Iri::new("urn:p")));
        assert_eq!(by_p.len(), 2);

        let by_o = g.match_pattern(&TriplePattern::any().with_object(Term::iri("urn:b")));
        assert_eq!(by_o.len(), 2);

        let exact = g.match_pattern(
            &TriplePattern::any()
                .with_subject(Subject::iri("urn:x"))
                .with_predicate(Iri::new("urn:p"))
                .with_object(Term::iri("urn:b")),
        );
        assert_eq!(exact.len(), 1);
    }

    #[test]
    fn match_unknown_term_is_empty() {
        let mut g = Graph::new();
        g.insert(&tr("urn:a", "urn:p", "urn:b"));
        let got =
            g.match_pattern(&TriplePattern::any().with_subject(Subject::iri("urn:missing")));
        assert!(got.is_empty());
    }

    #[test]
    fn literals_as_objects() {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Subject::iri("urn:a"),
            Iri::new("urn:val"),
            Literal::integer(5),
        ));
        let pat = TriplePattern::any()
            .with_subject(Subject::iri("urn:a"))
            .with_predicate(Iri::new("urn:val"));
        let hits = g.match_pattern(&pat);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].object.as_literal().unwrap().as_i64(), Some(5));
    }

    #[test]
    fn merge_collapses_duplicates() {
        let mut a = Graph::new();
        a.insert(&tr("urn:a", "urn:p", "urn:b"));
        a.insert(&tr("urn:a", "urn:p", "urn:c"));
        let mut b = Graph::new();
        b.insert(&tr("urn:a", "urn:p", "urn:b"));
        b.insert(&tr("urn:z", "urn:p", "urn:b"));
        let added = a.merge(&b);
        assert_eq!(added, 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn subjects_and_predicates_enumerations() {
        let mut g = Graph::new();
        g.insert(&tr("urn:a", "urn:p", "urn:b"));
        g.insert(&tr("urn:b", "urn:q", "urn:c"));
        let id = |iri: &str| g.term_id(&Term::iri(iri));
        // Each term in its own position only: `urn:b` is a subject and an
        // object, `urn:p` and `urn:q` predicates and nothing else.
        for (term, subject, predicate, object) in [
            ("urn:a", 1, 0, 0),
            ("urn:b", 1, 0, 1),
            ("urn:c", 0, 0, 1),
            ("urn:p", 0, 1, 0),
            ("urn:q", 0, 1, 0),
        ] {
            let found = (
                g.match_ids(Some(id(term)), None, None).len(),
                g.cardinality_estimate(None, Some(id(term)), None),
                g.match_ids(None, None, Some(id(term))).len(),
            );
            assert_eq!(found, (subject, predicate, object), "{term}");
        }
    }

    #[test]
    fn cardinality_estimates_order_correctly() {
        let mut g = Graph::new();
        for i in 0..10 {
            g.insert(&tr("urn:hub", "urn:p", &format!("urn:o{i}")));
        }
        g.insert(&tr("urn:solo", "urn:q", "urn:x"));
        let hub = g.term_id(&Term::iri("urn:hub"));
        let solo = g.term_id(&Term::iri("urn:solo"));
        let est_hub = g.cardinality_estimate(Some(hub), None, None);
        let est_solo = g.cardinality_estimate(Some(solo), None, None);
        assert!(est_hub > est_solo);
        assert_eq!(g.cardinality_estimate(None, None, None), g.len());
        // Unknown bound term → 0.
        assert_eq!(g.cardinality_estimate(Some(None), None, None), 0);
    }

    #[test]
    fn retain_drops_in_one_pass() {
        let mut g = Graph::new();
        for i in 0..6 {
            g.insert(&tr(&format!("urn:s{i}"), "urn:p", "urn:o"));
        }
        let p = g.term_id(&Term::iri("urn:p"));
        assert_eq!(g.cardinality_estimate(None, Some(p), None), 6);
        let odd: Vec<Option<TermId>> = [1, 3, 5]
            .map(|i| g.term_id(&Term::iri(format!("urn:s{i}"))))
            .into();
        assert_eq!(g.retain(|s, _, _| !odd.contains(&Some(s))), 3);
        assert_eq!(g.len(), 3);
        assert_eq!(g.cardinality_estimate(None, Some(p), None), 3);
        let left: Vec<String> = g.iter().map(|t| t.subject.to_string()).collect();
        assert_eq!(left, ["<urn:s0>", "<urn:s2>", "<urn:s4>"]);
        assert!(!g.contains(&tr("urn:s1", "urn:p", "urn:o")));
        // Dropped from the set too.
        assert!(g.insert(&tr("urn:s1", "urn:p", "urn:o")));
    }

    #[test]
    fn iter_roundtrips_all_triples() {
        let mut g = Graph::new();
        let ts = vec![
            tr("urn:a", "urn:p", "urn:b"),
            tr("urn:b", "urn:p", "urn:c"),
            tr("urn:c", "urn:q", "urn:a"),
        ];
        for t in &ts {
            g.insert(t);
        }
        let mut got: Vec<String> = g.iter().map(|t| t.to_string()).collect();
        let mut want: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn insertion_order_and_delta_slices() {
        let mut g = Graph::new();
        g.insert(&tr("urn:a", "urn:p", "urn:b"));
        g.insert(&tr("urn:c", "urn:p", "urn:d"));
        let mark = g.len();
        g.insert(&tr("urn:e", "urn:p", "urn:f"));
        g.insert(&tr("urn:a", "urn:p", "urn:b")); // dup: not re-ordered
        let delta = g.ids_from(mark);
        assert_eq!(delta.len(), 1);
        let (s, _, _) = delta[0];
        assert_eq!(g.term(TermId(s)), &Term::iri("urn:e"));
        // Full iteration follows insertion order.
        let subjects: Vec<String> = g.iter().map(|t| t.subject.to_string()).collect();
        assert_eq!(subjects, vec!["<urn:a>", "<urn:c>", "<urn:e>"]);
        // Past-the-end start is an empty delta, not a panic.
        assert!(g.ids_from(999).is_empty());
    }

    #[test]
    fn remove_keeps_order_consistent() {
        let mut g = Graph::new();
        g.insert(&tr("urn:a", "urn:p", "urn:b"));
        g.insert(&tr("urn:c", "urn:p", "urn:d"));
        g.insert(&tr("urn:e", "urn:p", "urn:f"));
        g.remove(&tr("urn:c", "urn:p", "urn:d"));
        assert_eq!(g.len(), 2);
        assert_eq!(g.iter().count(), 2);
        assert_eq!(g.ids_from(0).len(), 2);
    }

    #[test]
    fn bulk_merge_matches_naive_merge() {
        let mut a = Graph::new();
        let mut b = Graph::new();
        for i in 0..50 {
            a.insert(&tr(&format!("urn:s{i}"), "urn:p", "urn:o"));
            b.insert(&tr(&format!("urn:s{}", i + 25), "urn:q", "urn:o"));
        }
        let mut naive = a.clone();
        let mut naive_added = 0;
        for t in b.iter() {
            if naive.insert(&t) {
                naive_added += 1;
            }
        }
        let added = a.merge(&b);
        assert_eq!(added, naive_added);
        assert_eq!(a.len(), naive.len());
        for t in naive.iter() {
            assert!(a.contains(&t));
        }
    }

    #[test]
    fn a_recorded_hash_is_a_bucket_not_an_identity() {
        let mut into = Graph::new();
        into.insert(&tr("urn:a", "urn:p", "urn:b"));
        let mut from = Graph::new();
        from.insert(&tr("urn:x", "urn:p", "urn:b"));
        // Forge `urn:x`'s recorded hash to `urn:a`'s: the fold must find
        // `urn:a` in that bucket, see that it is another term, and intern
        // `urn:x` as a collision. (The forged hash makes `urn:x` unreachable
        // by lookup afterwards; only the fold is under test.)
        let x = from.term_id(&Term::iri("urn:x")).unwrap();
        from.interner.hashes[x.0 as usize] = view_hash(TermView::of(&Term::iri("urn:a")));
        assert_eq!(into.merge(&from), 1);
        let terms: Vec<Term> = ["urn:a", "urn:p", "urn:b", "urn:x"].map(Term::iri).into();
        assert_eq!(into.terms(), terms);
        assert_eq!(into.interner.collided, [3]);
        let triples: Vec<Triple> = into.iter().collect();
        assert_eq!(triples, [tr("urn:a", "urn:p", "urn:b"), tr("urn:x", "urn:p", "urn:b")]);
    }

    /// Every term carries its own view hash.
    fn assert_hashes_kept(g: &Graph) {
        let hashes: Vec<u64> = g.terms().iter().map(|t| view_hash(TermView::of(t))).collect();
        assert_eq!(g.interner.hashes, hashes);
    }

    #[test]
    fn insert_parse_clone_and_merge_keep_a_hash_per_term() {
        let mut inserted = Graph::new();
        inserted.insert(&tr("urn:a", "urn:p", "urn:b"));
        let five = Literal::integer(5);
        inserted.insert(&Triple::new(Subject::iri("urn:a"), Iri::new("urn:v"), five));
        assert_hashes_kept(&inserted);
        let nt = "<urn:b> <urn:p> \"x\"@en .\n_:n <urn:p> <urn:a> .\n";
        let parsed = crate::ntriples::parse(nt).unwrap();
        assert_hashes_kept(&parsed);
        let ttl = "@prefix e: <urn:> . e:c e:p e:a , \"y\" .";
        let (turtle, _) = crate::turtle::parse(ttl).unwrap();
        assert_hashes_kept(&turtle);
        let mut merged = inserted.clone();
        assert_hashes_kept(&merged);
        merged.merge(&parsed);
        merged.merge(&turtle);
        assert_hashes_kept(&merged);
        assert_eq!(merged.len(), 6);
    }

    #[test]
    fn a_term_hashes_alike_in_every_graph() {
        // The fold files a term under the hash its sub-graph recorded, so
        // a term must hash the same in every graph of the process, however
        // it got there.
        let mut inserted = Graph::new();
        inserted.insert(&tr("urn:s", "urn:p", "urn:shared"));
        let parsed = crate::ntriples::parse("<urn:shared> <urn:q> <urn:o> .\n").unwrap();
        let shared = Term::iri("urn:shared");
        let hash_in = |g: &Graph| g.interner.hashes[g.term_id(&shared).unwrap().0 as usize];
        assert_eq!(hash_in(&inserted), hash_in(&parsed));
        let mut merged = parsed.clone();
        merged.merge(&inserted);
        assert_eq!(merged.term_count(), 5);
        assert!(merged.contains(&tr("urn:s", "urn:p", "urn:shared")));
    }

    #[test]
    fn cloned_graph_interner_still_resolves() {
        let mut g = Graph::new();
        g.insert(&tr("urn:a", "urn:p", "urn:b"));
        let mut g2 = g.clone();
        assert!(g2.contains(&tr("urn:a", "urn:p", "urn:b")));
        assert!(!g2.insert(&tr("urn:a", "urn:p", "urn:b")), "dedup survives clone");
        g2.insert(&tr("urn:x", "urn:p", "urn:b"));
        assert_eq!(g2.len(), 2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn arc_identity_and_content_agree_on_ids() {
        // The same IRI through a shared `Arc` (front-cache hits) and
        // through a fresh `Arc` per triple (always the hashed path): one id
        // per distinct string, whichever way it arrives.
        let shared = Iri::new("urn:shared");
        let mut g = Graph::new();
        for i in 0..600 {
            // 600 subjects overrun the 256 slots, evicting and refilling.
            let s = Subject::iri(format!("urn:s{i}"));
            g.insert(&Triple::new(s.clone(), shared.clone(), Term::Iri(shared.clone())));
            g.insert(&Triple::new(s, Iri::new("urn:shared"), Term::iri("urn:shared")));
        }
        assert_eq!(g.len(), 600, "fresh-Arc duplicates collapse");
        assert_eq!(g.term_count(), 601);
        let shared_id = g.term_id(&Term::Iri(shared.clone()));
        assert_eq!(g.cardinality_estimate(None, Some(shared_id), None), 600);
        assert_eq!(g.match_ids(None, None, Some(shared_id)).len(), 600);
        // A clone keeps resolving through its copy of the cache.
        let mut g2 = g.clone();
        assert!(!g2.insert(&Triple::new(
            Subject::iri("urn:s0"),
            shared.clone(),
            Term::Iri(shared)
        )));
    }

    #[test]
    fn colliding_view_hashes_keep_distinct_ids() {
        // Force the collision path: two different terms filed under one
        // hash must stay two terms, both findable.
        let mut i = Interner::default();
        let (a, b) = (Term::iri("urn:a"), Term::iri("urn:b"));
        let ia = i.intern_view(TermView::of(&a), || a.clone());
        let h = view_hash(TermView::of(&a));
        // File `b` as a collision of `a`'s hash by hand.
        let ib = TermId(i.terms.len() as u32);
        i.terms.push(b.clone());
        i.hashes.push(h);
        i.collided.push(ib.0);
        assert_eq!(find(&i.terms, &i.collided, i.ids[&h], TermView::of(&b)), Some(ib));
        assert_eq!(find(&i.terms, &i.collided, i.ids[&h], TermView::of(&a)), Some(ia));
        assert_eq!(
            find(&i.terms, &i.collided, i.ids[&h], TermView::of(&Term::iri("urn:c"))),
            None
        );
    }

    #[test]
    fn a_view_interns_as_its_term_does() {
        let mut g = Graph::new();
        let five = Term::from(Literal::integer(5));
        let id = g.intern(&five);
        assert_eq!(g.intern_view(TermView::of(&five)), id);
        let typed = TermView::Literal {
            lexical: "x",
            datatype: Some("urn:dt"),
            lang: None,
        };
        let fresh = g.intern_view(typed);
        assert_eq!(g.term(fresh), &Term::from(Literal::typed("x", Iri::new("urn:dt"))));
        assert_eq!((g.intern_view(typed), g.term_count()), (fresh, 2));
        // An xsd datatype comes back as the typed constructors' shared `Iri`.
        let six = g.intern_view(TermView::Literal {
            lexical: "6",
            datatype: Some(crate::ns::XSD_INTEGER),
            lang: None,
        });
        let shared = |id| g.term(id).as_literal().unwrap().datatype().unwrap().as_str().as_ptr();
        assert_eq!(shared(six), shared(id));
    }

    #[test]
    fn blank_subjects_supported() {
        let mut g = Graph::new();
        let t = Triple::new(
            crate::term::BlankNode::new("b0"),
            Iri::new("urn:p"),
            Term::iri("urn:x"),
        );
        g.insert(&t);
        assert!(g.contains(&t));
        let blank = g.term_id(&Term::from(t.subject.clone()));
        assert!(blank.is_some());
        assert_eq!(g.match_ids(Some(blank), None, None).len(), 1);
    }
}
