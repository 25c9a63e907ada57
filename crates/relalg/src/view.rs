//! An incrementally maintained relational view of an object-base instance.
//!
//! [`Database::from_instance`] costs `O(N + E)`; re-running it before every
//! receiver of a sequential application is what kept the in-place
//! application path from reaching the paper's `O(changed edges)` bound.
//! [`DatabaseView`] is that same database, built **once** and thereafter
//! kept in lockstep with the instance by implementing
//! [`DeltaObserver`]: every op an observed
//! [`InstanceTxn`](receivers_objectbase::InstanceTxn) logs maps to one
//! touched-tuple update —
//!
//! | delta op         | view update                                  |
//! |------------------|----------------------------------------------|
//! | `AddedNode(o)`   | insert `{o}` into class relation `C(o)`      |
//! | `RemovedNode(o)` | remove `{o}` from class relation `C(o)`      |
//! | `AddedEdge(e)`   | insert `(src, dst)` into property rel. `Ca`  |
//! | `RemovedEdge(e)` | remove `(src, dst)` from property rel. `Ca`  |
//!
//! — and every *undone* op maps to the inverse update, so the view equals a
//! fresh rebuild after every transaction **and** after every rollback. The
//! differential test suites (`tests/view_differential.rs` and
//! `tests/relation_ops.rs` at the workspace root) pin this equality across
//! hundreds of random method sequences.
//!
//! On the flat [`TupleSet`](crate::tuples::TupleSet) storage a point edit
//! costs a memmove of the smaller side of the buffer, so the view does
//! **not** apply ops one at a time. It buffers the burst and consolidates
//! at [`DeltaObserver::batch_end`] (a transaction's commit or rollback):
//! ops that cancel within the burst — the entire log of a rolled-back
//! transaction, an added-then-removed fresh object — vanish without
//! touching a relation, and what remains is applied per relation, as
//! point edits for small nets or one linear merge for large ones. The
//! borrow rules make the staleness unobservable: whoever holds the
//! transaction holds the view mutably, so the view can only be read
//! between bursts, where it is always consolidated.

use receivers_objectbase::{DeltaObserver, DeltaOp, Instance, Oid, PropId};
use receivers_obs as obs;

use crate::database::Database;
use crate::RelName;

obs::counter!(C_BUILDS, "view.builds");
obs::counter!(C_BATCHES, "view.batches");
obs::counter!(C_RAW_OPS, "view.raw_ops");
obs::counter!(C_NETTED_OPS, "view.netted_ops");
obs::histogram!(H_BATCH_RAW_OPS, "view.batch_raw_ops");

/// A [`Database`] maintained edge-by-edge from an instance's delta log.
///
/// Construct with [`DatabaseView::new`], pass as the observer to
/// [`InstanceTxn::begin_observed`](receivers_objectbase::InstanceTxn::begin_observed)
/// for every transaction on the underlying instance, and read through
/// [`DatabaseView::database`]. As long as every edit to the instance flows
/// through an observed transaction (or [`receivers_objectbase::undo_ops`]),
/// the view is bit-identical to `Database::from_instance` of the current
/// instance at all times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseView {
    db: Database,
    /// Effective edits buffered since the last [`DeltaObserver::batch_end`]
    /// — always empty whenever the view is externally readable.
    pending: Vec<DeltaOp>,
}

impl DatabaseView {
    /// Build the view from scratch: one `O(N + E)` conversion.
    pub fn new(instance: &Instance) -> Self {
        C_BUILDS.incr();
        Self {
            db: Database::from_instance(instance),
            pending: Vec::new(),
        }
    }

    /// Wrap an already-built database — no conversion, no build counted.
    ///
    /// This is how a sharded application equips each worker with a
    /// maintained replica: clone (and prune) the caller's database once,
    /// then keep the copy in lockstep with the worker's own delta stream.
    pub fn from_database(db: Database) -> Self {
        Self {
            db,
            pending: Vec::new(),
        }
    }

    /// The maintained database, for evaluation.
    pub fn database(&self) -> &Database {
        debug_assert!(self.pending.is_empty(), "view read inside a burst");
        &self.db
    }

    /// Consume the view, keeping the maintained database.
    pub fn into_database(self) -> Database {
        debug_assert!(self.pending.is_empty(), "view consumed inside a burst");
        self.db
    }

    /// `true` when the maintained view equals a fresh rebuild from
    /// `instance` — the invariant the differential suite pins.
    pub fn matches_rebuild(&self, instance: &Instance) -> bool {
        debug_assert!(self.pending.is_empty(), "view read inside a burst");
        self.db == Database::from_instance(instance)
    }

    /// Consolidate the buffered burst into the maintained database.
    ///
    /// A stable sort by tuple key (nodes by oid, then edges by
    /// `(prop, src, dst)`) lines each tuple's ops up as one run in
    /// application order; a burst that arrives in canonical order — a
    /// bulk successor replace — sorts in near-linear time. The first op
    /// of a run fixes the tuple's pre-burst presence, the last its
    /// post-burst presence; runs whose endpoints agree (a rolled-back
    /// edit, a fresh object removed again) net to nothing. What remains
    /// is applied per relation through
    /// [`Database::apply_node_edits`]/[`Database::apply_edge_edits`].
    /// Panics when an op does not type-check against the view's schema —
    /// impossible when the ops come from an observed transaction on the
    /// instance this view was built from. Returns the number of net
    /// edits.
    fn flush(&mut self) -> u64 {
        if self.pending.is_empty() {
            return 0;
        }
        C_BATCHES.incr();
        C_RAW_OPS.add(self.pending.len() as u64);
        H_BATCH_RAW_OPS.record(self.pending.len() as u64);
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|op| tuple_key(op).0);
        let mut netted: u64 = 0;
        let mut adds: Vec<Oid> = Vec::new();
        let mut dels: Vec<Oid> = Vec::new();
        let mut runs = pending.chunk_by(|a, b| tuple_key(a).0 == tuple_key(b).0);
        let mut next = runs.next();
        while let Some(run) = next {
            let (key, first) = tuple_key(&run[0]);
            let (_, last) = tuple_key(&run[run.len() - 1]);
            // A run nets to an edit exactly when its endpoints have the
            // same kind: absent→…→present is an insert, present→…→absent
            // a delete.
            if first == last {
                netted += 1;
                let rows = if first { &mut adds } else { &mut dels };
                match key {
                    TupleKey::Node(o) => rows.push(o),
                    TupleKey::Edge(_, src, dst) => rows.extend([src, dst]),
                }
            }
            next = runs.next();
            if next.is_some_and(|n| key.relation() == tuple_key(&n[0]).0.relation()) {
                continue;
            }
            if !adds.is_empty() || !dels.is_empty() {
                match key {
                    TupleKey::Node(o) => self.db.apply_node_edits(o.class, &adds, &dels),
                    TupleKey::Edge(p, _, _) => self.db.apply_edge_edits(p, &adds, &dels),
                }
                .expect("delta ops typed by the observed instance");
                adds.clear();
                dels.clear();
            }
        }
        C_NETTED_OPS.add(netted);
        netted
    }
}

/// The tuple an op touches, ordered relation-major: class relations (by
/// oid, whose order is class-major) before property relations (by
/// `(prop, src, dst)`) — each relation's rows contiguous and in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TupleKey {
    Node(Oid),
    Edge(PropId, Oid, Oid),
}

impl TupleKey {
    fn relation(self) -> RelName {
        match self {
            TupleKey::Node(o) => RelName::Class(o.class),
            TupleKey::Edge(p, _, _) => RelName::Prop(p),
        }
    }
}

/// The touched tuple and whether the op inserts it.
fn tuple_key(op: &DeltaOp) -> (TupleKey, bool) {
    match *op {
        DeltaOp::AddedNode(o) => (TupleKey::Node(o), true),
        DeltaOp::RemovedNode(o) => (TupleKey::Node(o), false),
        DeltaOp::AddedEdge(e) => (TupleKey::Edge(e.prop, e.src, e.dst), true),
        DeltaOp::RemovedEdge(e) => (TupleKey::Edge(e.prop, e.src, e.dst), false),
    }
}

impl DeltaObserver for DatabaseView {
    fn applied(&mut self, op: &DeltaOp) {
        self.pending.push(*op);
    }

    fn undone(&mut self, op: &DeltaOp) {
        // The effective edit is the inverse of the op being reversed.
        self.pending.push(match *op {
            DeltaOp::AddedNode(o) => DeltaOp::RemovedNode(o),
            DeltaOp::RemovedNode(o) => DeltaOp::AddedNode(o),
            DeltaOp::AddedEdge(e) => DeltaOp::RemovedEdge(e),
            DeltaOp::RemovedEdge(e) => DeltaOp::AddedEdge(e),
        });
    }

    fn batch_end(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::{Edge, InstanceTxn};

    #[test]
    fn maintained_view_tracks_edits_and_rollback() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let snapshot = view.clone();

        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        txn.commit();
        assert!(view.matches_rebuild(&i));
        assert_ne!(view, snapshot);

        let before_rollback = i.clone();
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_object_cascade(o.bar2);
        txn.rollback();
        assert_eq!(i, before_rollback);
        assert!(view.matches_rebuild(&i));
    }

    /// The naive netting model: one entry per touched tuple, its first
    /// and last op, kept in a map — counts the runs whose endpoints agree.
    fn naive_net_count(ops: &[DeltaOp]) -> u64 {
        let mut runs: std::collections::BTreeMap<TupleKey, (bool, bool)> = Default::default();
        for op in ops {
            let (key, add) = tuple_key(op);
            runs.entry(key)
                .and_modify(|r| r.1 = add)
                .or_insert((add, add));
        }
        runs.values().filter(|(first, last)| first == last).count() as u64
    }

    /// Run `edit` as one observed transaction whose burst is flushed by
    /// hand, returning the flush's net-edit count and the naive model's.
    fn netted_burst(
        i: &mut Instance,
        view: &mut DatabaseView,
        commit: bool,
        edit: impl FnOnce(&mut InstanceTxn<'_>),
    ) -> (u64, u64) {
        let mut recorder = Burst {
            view,
            ops: Vec::new(),
            netted: None,
        };
        let mut txn = InstanceTxn::begin_observed(i, &mut recorder);
        edit(&mut txn);
        if commit {
            txn.commit();
        } else {
            txn.rollback();
        }
        let expected = naive_net_count(&recorder.ops);
        (recorder.netted.unwrap_or(0), expected)
    }

    /// Forwards every notification to the view and records the burst the
    /// view buffered, keeping the flush's return value.
    struct Burst<'a> {
        view: &'a mut DatabaseView,
        ops: Vec<DeltaOp>,
        netted: Option<u64>,
    }

    impl DeltaObserver for Burst<'_> {
        fn applied(&mut self, op: &DeltaOp) {
            self.view.applied(op);
        }
        fn undone(&mut self, op: &DeltaOp) {
            self.view.undone(op);
        }
        fn batch_end(&mut self) {
            self.ops = self.view.pending.clone();
            self.netted = Some(self.view.flush());
        }
    }

    #[test]
    fn flush_nets_add_remove_add_runs() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let absent = Edge::new(o.d1, s.frequents, o.bar3);
        let present = Edge::new(o.d1, s.frequents, o.bar1);
        let (netted, expected) = netted_burst(&mut i, &mut view, true, |txn| {
            // absent: add → remove → add nets to one insert.
            txn.add_edge(absent).unwrap();
            txn.remove_edge(&absent);
            txn.add_edge(absent).unwrap();
            // present: remove → add nets to nothing.
            txn.remove_edge(&present);
            txn.add_edge(present).unwrap();
        });
        assert_eq!((netted, expected), (1, 1));
        assert!(view.matches_rebuild(&i));
        assert!(i.contains_edge(&absent) && i.contains_edge(&present));
    }

    #[test]
    fn flush_nets_mixed_node_and_edge_ops_across_relations() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let (netted, expected) = netted_burst(&mut i, &mut view, true, |txn| {
            let bar = txn.fresh_object(s.bar);
            let beer = txn.fresh_object(s.beer);
            txn.link(o.d1, s.frequents, bar).unwrap();
            txn.link(bar, s.serves, beer).unwrap();
            txn.link(o.d1, s.likes, beer).unwrap();
            // A fresh drinker added and removed again nets to nothing.
            let ghost = txn.fresh_object(s.drinker);
            txn.link(ghost, s.frequents, bar).unwrap();
            txn.remove_object_cascade(ghost);
            txn.remove_object_cascade(o.bar2);
            txn.replace_successors(s.frequents, &[(o.d1, &[o.bar1, bar])])
                .unwrap();
        });
        assert_eq!(netted, expected);
        assert!(netted > 0);
        assert!(view.matches_rebuild(&i));
    }

    #[test]
    fn flush_nets_a_rolled_back_bulk_replace_to_nothing() {
        let s = beer_schema();
        let (mut i, _) = figure2(&s);
        let drinkers: Vec<Oid> = (10..110).map(|k| Oid::new(s.drinker, k)).collect();
        let bars: Vec<Oid> = (10..110).map(|k| Oid::new(s.bar, k)).collect();
        for &o in drinkers.iter().chain(&bars) {
            i.add_object(o);
        }
        let mut view = DatabaseView::new(&i);
        let snapshot = (i.clone(), view.clone());
        let rows: Vec<(Oid, &[Oid])> = drinkers.iter().map(|&d| (d, bars.as_slice())).collect();
        let (netted, expected) = netted_burst(&mut i, &mut view, false, |txn| {
            assert_eq!(txn.replace_successors(s.frequents, &rows).unwrap(), 10_000);
        });
        assert_eq!((netted, expected), (0, 0));
        assert!(view.matches_rebuild(&i));
        assert_eq!((i, view), snapshot);
    }

    #[test]
    fn observed_cascade_stays_in_lockstep_mid_transaction() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_object_cascade(o.bar1);
        txn.commit();
        assert!(view.matches_rebuild(&i));
    }
}
