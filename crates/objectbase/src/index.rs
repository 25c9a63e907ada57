//! Incrementally maintained adjacency indices over instance edges.
//!
//! [`EdgeIndex`] replaces the flat `BTreeSet<Edge>` storage of
//! [`PartialInstance`](crate::partial::PartialInstance) with three
//! synchronized views of the same edge set:
//!
//! * **forward**: `(src, prop) → {dst}` — drives `successors` and, because
//!   [`Edge`]'s derived ordering is `(src, prop, dst)`-lexicographic,
//!   in-order traversal of the forward map reproduces the canonical edge
//!   order of the old flat set exactly;
//! * **per-property**: `prop → {(src, dst)}` — drives `edges_labeled` and
//!   relational views ([`Database::from_instance`] reads one property at a
//!   time);
//! * **reverse**: `(dst, prop) → {src}` — drives predecessor lookups and
//!   the incident-edge sweep of cascading node removal.
//!
//! Per-operation complexity (`d` = result degree, `E` = total edges; for
//! `replace_successors`, `k` = edges added or removed, `n` = new values
//! over all rows, `E_p` = edges labeled `p`):
//!
//! | operation                    | flat set    | indexed          |
//! |------------------------------|-------------|------------------|
//! | `insert` / `remove`          | `O(log E)`  | `O(log E)` (×3)  |
//! | `replace_successors(p, rows)`| `O((d+n)·log E)` | `O(n + k·log E)` small `k`, `O(n + E_p)` large `k` |
//! | `contains`                   | `O(log E)`  | `O(log E)`       |
//! | `successors(o, p)`           | `O(E)` scan | `O(log E + d)`   |
//! | `labeled(p)`                 | `O(E)` scan | `O(log E + d)`   |
//! | `incident(o)`                | `O(E)` scan | `O(log E + d·log d)` |
//! | full iteration               | `O(E)`      | `O(E)`           |
//!
//! `replace_successors` is the set-at-a-time write: it merge-diffs each
//! row's old successors against its new values ([`sorted_diff`]), so an
//! unchanged value costs nothing, and applies the difference to each view
//! in one pass.
//! A view set that receives at least 8 edits, and edits on at least 1/8
//! of its size, is rebuilt by one sorted merge; smaller edit sets are
//! point edits.
//!
//! All iterators yield edges in the canonical `(src, prop, dst)` order, so
//! equality/ordering/hashing built on them is indistinguishable from the
//! flat-set representation.
//!
//! [`Database::from_instance`]: ../../receivers_relalg/database/struct.Database.html

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::delta::DeltaOp;
use crate::item::Edge;
use crate::oid::Oid;
use crate::schema::PropId;

/// Merge-diff two strictly ascending sequences in one pass: calls
/// `edit(x, false)` for each `x` only in `old` and `edit(x, true)` for each
/// `x` only in `new`, in ascending order of `x`; values in both are kept
/// and cost nothing. This is the netting step of every successor rewrite
/// — the set-at-a-time [`EdgeIndex`] write and the sharded executor's
/// per-statement replica diff — so both emit one row's edits in the same
/// canonical destination order.
pub fn sorted_diff<T: Ord>(
    old: impl IntoIterator<Item = T>,
    new: impl IntoIterator<Item = T>,
    mut edit: impl FnMut(T, bool),
) {
    let mut old = old.into_iter().peekable();
    let mut new = new.into_iter().peekable();
    loop {
        // The smaller head is an edit: an old one is removed, a new one
        // added; equal heads are kept untouched.
        let add = match (old.peek(), new.peek()) {
            (None, None) => return,
            (Some(o), Some(n)) if o == n => {
                old.next();
                new.next();
                continue;
            }
            (Some(o), Some(n)) => n < o,
            (o, _) => o.is_none(),
        };
        let x = if add { new.next() } else { old.next() }.expect("peeked");
        edit(x, add);
    }
}

/// The three-way adjacency index over a set of edges.
///
/// Structural equality, ordering and hashing all agree with the underlying
/// *set of edges* (canonical `(src, prop, dst)` order), matching the
/// semantics of the `BTreeSet<Edge>` it replaces.
#[derive(Clone, Default)]
pub struct EdgeIndex {
    /// `(src, prop) → dst` set; canonical-order master copy.
    fwd: BTreeMap<(Oid, PropId), BTreeSet<Oid>>,
    /// `prop → (src, dst)` set.
    by_prop: BTreeMap<PropId, BTreeSet<(Oid, Oid)>>,
    /// `(dst, prop) → src` set.
    rev: BTreeMap<(Oid, PropId), BTreeSet<Oid>>,
    /// Total number of edges (each counted once).
    len: usize,
}

impl EdgeIndex {
    /// The empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an index from any edge iterator (duplicates collapse).
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut ix = Self::new();
        for e in edges {
            ix.insert(e);
        }
        ix
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no edges are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test. `O(log E)`.
    pub fn contains(&self, e: &Edge) -> bool {
        self.fwd
            .get(&(e.src, e.prop))
            .is_some_and(|dsts| dsts.contains(&e.dst))
    }

    /// Insert an edge into all three views. Returns `true` when new.
    pub fn insert(&mut self, e: Edge) -> bool {
        let new = self.fwd.entry((e.src, e.prop)).or_default().insert(e.dst);
        if new {
            self.by_prop
                .entry(e.prop)
                .or_default()
                .insert((e.src, e.dst));
            self.rev.entry((e.dst, e.prop)).or_default().insert(e.src);
            self.len += 1;
        }
        new
    }

    /// Remove an edge from all three views. Returns `true` when present.
    pub fn remove(&mut self, e: &Edge) -> bool {
        let Some(dsts) = self.fwd.get_mut(&(e.src, e.prop)) else {
            return false;
        };
        if !dsts.remove(&e.dst) {
            return false;
        }
        if dsts.is_empty() {
            self.fwd.remove(&(e.src, e.prop));
        }
        Self::prune(&mut self.by_prop, &e.prop, &(e.src, e.dst));
        Self::prune(&mut self.rev, &(e.dst, e.prop), &e.src);
        self.len -= 1;
        true
    }

    /// Replace the `p`-successors of every row by its value list, logging
    /// one `RemovedEdge` per old value not kept and one `AddedEdge` per new
    /// value not already present — in canonical edge order — to `ops`.
    ///
    /// The caller guarantees the preconditions: rows strictly ascending
    /// by source, each value list strictly ascending, every resulting edge
    /// well typed.
    pub(crate) fn replace_successors(
        &mut self,
        p: PropId,
        rows: &[(Oid, &[Oid])],
        ops: &mut Vec<DeltaOp>,
    ) {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        // (src, dst, added) in canonical (src, dst) order.
        let mut edits: Vec<(Oid, Oid, bool)> = Vec::new();
        let mut added = 0usize;
        for &(src, new) in rows {
            debug_assert!(new.windows(2).all(|w| w[0] < w[1]));
            let start = edits.len();
            let old = self.fwd.get(&(src, p)).into_iter().flatten().copied();
            sorted_diff(old, new.iter().copied(), |dst, add| {
                let e = Edge::new(src, p, dst);
                ops.push(if add {
                    DeltaOp::AddedEdge(e)
                } else {
                    DeltaOp::RemovedEdge(e)
                });
                edits.push((src, dst, add));
                added += usize::from(add);
            });
            let changes = edits.len() - start;
            if changes == 0 {
                continue;
            }
            if new.is_empty() {
                self.fwd.remove(&(src, p));
                continue;
            }
            match self.fwd.get_mut(&(src, p)) {
                Some(dsts) if point_edits_win(changes, dsts.len()) => {
                    edit_sorted(dsts, edits[start..].iter().map(|&(_, d, a)| (d, a)));
                }
                _ => {
                    self.fwd.insert((src, p), new.iter().copied().collect());
                }
            }
        }
        if edits.is_empty() {
            return;
        }
        self.len = self.len + 2 * added - edits.len();
        let pairs = self.by_prop.entry(p).or_default();
        edit_sorted(pairs, edits.iter().map(|&(s, d, a)| ((s, d), a)));
        if pairs.is_empty() {
            self.by_prop.remove(&p);
        }
        let mut by_dst: Vec<(Oid, Oid, bool)> = edits.iter().map(|&(s, d, a)| (d, s, a)).collect();
        by_dst.sort_unstable();
        for group in by_dst.chunk_by(|a, b| a.0 == b.0) {
            let key = (group[0].0, p);
            let srcs = self.rev.entry(key).or_default();
            edit_sorted(srcs, group.iter().map(|&(_, s, a)| (s, a)));
            if srcs.is_empty() {
                self.rev.remove(&key);
            }
        }
    }

    fn prune<K: Ord + Copy, V: Ord>(map: &mut BTreeMap<K, BTreeSet<V>>, key: &K, v: &V) {
        let entry = map.get_mut(key).expect("index views out of sync");
        let removed = entry.remove(v);
        debug_assert!(removed, "index views out of sync");
        if entry.is_empty() {
            map.remove(key);
        }
    }

    /// All edges in canonical `(src, prop, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.fwd
            .iter()
            .flat_map(|(&(src, prop), dsts)| dsts.iter().map(move |&dst| Edge::new(src, prop, dst)))
    }

    /// Edges labeled `p`, ordered by `(src, dst)` — the same order a
    /// label-filtered scan of the canonical sequence produces.
    pub fn labeled(&self, p: PropId) -> impl Iterator<Item = Edge> + '_ {
        self.by_prop
            .get(&p)
            .into_iter()
            .flat_map(move |pairs| pairs.iter().map(move |&(src, dst)| Edge::new(src, p, dst)))
    }

    /// The `(src, dst)` pairs of edges labeled `p`, ordered by `(src, dst)`
    /// — the borrow-only form of [`EdgeIndex::labeled`] used by relational
    /// views, which store exactly these pairs as binary tuples.
    pub fn labeled_pairs(&self, p: PropId) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.by_prop
            .get(&p)
            .into_iter()
            .flat_map(|pairs| pairs.iter().copied())
    }

    /// The properties with at least one edge, ascending.
    pub fn properties(&self) -> impl Iterator<Item = PropId> + '_ {
        self.by_prop.keys().copied()
    }

    /// Objects reachable from `o` via `p`, ascending.
    pub fn successors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.fwd
            .get(&(o, p))
            .into_iter()
            .flat_map(|dsts| dsts.iter().copied())
    }

    /// Objects with a `p`-edge into `o`, ascending.
    pub fn predecessors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.rev
            .get(&(o, p))
            .into_iter()
            .flat_map(|srcs| srcs.iter().copied())
    }

    /// Out-degree of `(o, p)` without materializing the successor set.
    pub fn out_degree(&self, o: Oid, p: PropId) -> usize {
        self.fwd.get(&(o, p)).map_or(0, BTreeSet::len)
    }

    /// Edges whose source is `o`, in canonical order.
    pub fn out_edges(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        self.fwd
            .range((o, PropId(0))..=(o, PropId(u32::MAX)))
            .flat_map(|(&(src, prop), dsts)| dsts.iter().map(move |&dst| Edge::new(src, prop, dst)))
    }

    /// Edges whose destination is `o`, ordered by `(prop, src)`.
    pub fn in_edges(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        self.rev
            .range((o, PropId(0))..=(o, PropId(u32::MAX)))
            .flat_map(|(&(dst, prop), srcs)| srcs.iter().map(move |&src| Edge::new(src, prop, dst)))
    }

    /// Edges incident to `o` (either endpoint, self-loops once), in
    /// canonical order — matching an endpoint-filtered scan of the flat set.
    pub fn incident(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        let set: BTreeSet<Edge> = self.out_edges(o).chain(self.in_edges(o)).collect();
        set.into_iter()
    }

    pub(crate) fn check_consistent(&self) {
        let from_fwd: BTreeSet<Edge> = self.iter().collect();
        let from_prop: BTreeSet<Edge> = self
            .by_prop
            .iter()
            .flat_map(|(&p, pairs)| pairs.iter().map(move |&(s, d)| Edge::new(s, p, d)))
            .collect();
        let from_rev: BTreeSet<Edge> = self
            .rev
            .iter()
            .flat_map(|(&(d, p), srcs)| srcs.iter().map(move |&s| Edge::new(s, p, d)))
            .collect();
        assert!(
            self.fwd.values().all(|s| !s.is_empty())
                && self.by_prop.values().all(|s| !s.is_empty())
                && self.rev.values().all(|s| !s.is_empty()),
            "empty set left in an index view"
        );
        assert_eq!(from_fwd.len(), self.len, "len out of sync with fwd view");
        assert_eq!(from_fwd, from_prop, "by_prop view out of sync");
        assert_eq!(from_fwd, from_rev, "rev view out of sync");
    }
}

/// The small/large split of a batch against one view set. Fewer than
/// `SMALL_BATCH` edits, or fewer than `1/SMALL_BATCH` of the set's size,
/// are point edits (`O(edits · log len)`, no allocation); a larger batch
/// rebuilds the set by one sorted merge (`O(len + edits)`, bulk-built
/// from sorted input). The absolute part is the flat kernel's rule in
/// `Relation::apply_row_edits`; the relative part reflects that a B-tree
/// point edit costs `O(log len)` rather than a memmove.
const SMALL_BATCH: usize = 8;

fn point_edits_win(edits: usize, len: usize) -> bool {
    edits < SMALL_BATCH || edits * SMALL_BATCH < len
}

/// Apply `edits` — `(value, inserted)` pairs, strictly ascending by value,
/// each inserting an absent value or removing a present one — to `set`.
fn edit_sorted<T: Ord + Copy>(
    set: &mut BTreeSet<T>,
    edits: impl ExactSizeIterator<Item = (T, bool)>,
) {
    if point_edits_win(edits.len(), set.len()) {
        for (x, add) in edits {
            let changed = if add { set.insert(x) } else { set.remove(&x) };
            debug_assert!(changed, "ineffective index edit");
        }
        return;
    }
    let mut merged = Vec::with_capacity(set.len() + edits.len());
    let mut edits = edits.peekable();
    for x in std::mem::take(set) {
        while let Some(&(y, _)) = edits.peek().filter(|&&(y, _)| y < x) {
            debug_assert!(
                edits.peek().is_some_and(|e| e.1),
                "removal of an absent value"
            );
            merged.push(y);
            edits.next();
        }
        if edits.peek().is_some_and(|&(y, _)| y == x) {
            debug_assert!(
                edits.peek().is_some_and(|e| !e.1),
                "insert of a present value"
            );
            edits.next();
        } else {
            merged.push(x);
        }
    }
    merged.extend(edits.map(|(y, add)| {
        debug_assert!(add, "removal of an absent value");
        y
    }));
    // Sorted input: the collect is a linear bulk build.
    *set = merged.into_iter().collect();
}

impl PartialEq for EdgeIndex {
    fn eq(&self, other: &Self) -> bool {
        // The forward view determines the edge set, and `len` is derived.
        self.len == other.len && self.fwd == other.fwd
    }
}

impl Eq for EdgeIndex {}

impl PartialOrd for EdgeIndex {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdgeIndex {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic over the canonical edge sequence: identical to the
        // `BTreeSet<Edge>` ordering this type replaces.
        self.iter().cmp(other.iter())
    }
}

impl std::hash::Hash for EdgeIndex {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Mirror `BTreeSet<Edge>`: length prefix, then elements in order.
        self.len.hash(state);
        for e in self.iter() {
            e.hash(state);
        }
    }
}

impl fmt::Debug for EdgeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Edge> for EdgeIndex {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        Self::from_edges(iter)
    }
}

impl<'a> IntoIterator for &'a EdgeIndex {
    type Item = Edge;
    type IntoIter = Box<dyn Iterator<Item = Edge> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassId;

    fn e(s: u32, p: u32, d: u32) -> Edge {
        Edge::new(
            Oid::new(ClassId(s % 3), s),
            PropId(p),
            Oid::new(ClassId(d % 3), d),
        )
    }

    /// The merge-diff reports exactly the symmetric difference, each value
    /// once, interleaved in ascending order.
    #[test]
    fn sorted_diff_emits_the_symmetric_difference_in_order() {
        let mut edits = Vec::new();
        sorted_diff([1, 3, 4, 7], [2, 3, 7, 8, 9], |x, add| edits.push((x, add)));
        assert_eq!(
            edits,
            [(1, false), (2, true), (4, false), (8, true), (9, true)]
        );
        let mut none = 0;
        sorted_diff([5, 6], [5, 6], |_, _| none += 1);
        sorted_diff(Vec::<u32>::new(), [], |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn canonical_iteration_matches_flat_set() {
        let edges = [e(2, 1, 0), e(0, 0, 1), e(0, 1, 2), e(2, 0, 2), e(1, 2, 1)];
        let ix = EdgeIndex::from_edges(edges);
        let flat: BTreeSet<Edge> = edges.into_iter().collect();
        assert_eq!(
            ix.iter().collect::<Vec<_>>(),
            flat.into_iter().collect::<Vec<_>>()
        );
        ix.check_consistent();
    }

    #[test]
    fn insert_remove_keep_views_in_sync() {
        let mut ix = EdgeIndex::new();
        assert!(ix.insert(e(0, 0, 1)));
        assert!(!ix.insert(e(0, 0, 1)), "set semantics");
        assert!(ix.insert(e(0, 0, 2)));
        assert!(ix.insert(e(1, 1, 1)));
        assert_eq!(ix.len(), 3);
        assert!(ix.remove(&e(0, 0, 1)));
        assert!(!ix.remove(&e(0, 0, 1)));
        assert!(!ix.remove(&e(5, 5, 5)));
        assert_eq!(ix.len(), 2);
        ix.check_consistent();
        assert!(ix.contains(&e(0, 0, 2)));
        assert!(!ix.contains(&e(0, 0, 1)));
    }

    #[test]
    fn targeted_lookups() {
        let ix = EdgeIndex::from_edges([e(0, 0, 1), e(0, 0, 2), e(0, 1, 1), e(2, 0, 1)]);
        let succ: Vec<u32> = ix
            .successors(Oid::new(ClassId(0), 0), PropId(0))
            .map(|o| o.index)
            .collect();
        assert_eq!(succ, vec![1, 2]);
        let preds: Vec<u32> = ix
            .predecessors(Oid::new(ClassId(1), 1), PropId(0))
            .map(|o| o.index)
            .collect();
        assert_eq!(preds, vec![0, 2]);
        assert_eq!(ix.labeled(PropId(0)).count(), 3);
        assert_eq!(ix.out_degree(Oid::new(ClassId(0), 0), PropId(0)), 2);
        assert_eq!(
            ix.properties().collect::<Vec<_>>(),
            vec![PropId(0), PropId(1)]
        );
    }

    #[test]
    fn incident_handles_self_loops_once() {
        let o = Oid::new(ClassId(0), 0);
        let mut ix = EdgeIndex::new();
        ix.insert(Edge::new(o, PropId(0), o));
        ix.insert(e(0, 1, 1));
        ix.insert(e(1, 1, 0));
        let inc: Vec<Edge> = ix.incident(o).collect();
        assert_eq!(inc.len(), 3);
        let flat: BTreeSet<Edge> = ix.iter().collect();
        let scanned: Vec<Edge> = flat
            .into_iter()
            .filter(|ed| ed.src == o || ed.dst == o)
            .collect();
        assert_eq!(inc, scanned);
    }

    #[test]
    fn eq_ord_hash_agree_with_edge_sets() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = EdgeIndex::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        let b = EdgeIndex::from_edges([e(1, 1, 2), e(0, 0, 1)]);
        assert_eq!(a, b);
        let hash = |ix: &EdgeIndex| {
            let mut h = DefaultHasher::new();
            ix.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let c = EdgeIndex::from_edges([e(0, 0, 1), e(1, 1, 2), e(2, 2, 2)]);
        let sa: BTreeSet<Edge> = a.iter().collect();
        let sc: BTreeSet<Edge> = c.iter().collect();
        assert_eq!(a.cmp(&c), sa.cmp(&sc));
        assert_eq!(c.cmp(&a), sc.cmp(&sa));
    }
}
