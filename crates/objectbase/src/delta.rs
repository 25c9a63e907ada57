//! Undoable in-place edits: the clone-free application substrate.
//!
//! [`InstanceTxn`] wraps a mutable [`Instance`] and records the inverse of
//! every successful edit. [`InstanceTxn::commit`] keeps the edits and
//! discards the log; [`InstanceTxn::rollback`] replays the log backwards,
//! restoring the instance to its exact pre-transaction state. Dropping a
//! transaction without calling either **rolls back**, so an early `return`
//! or panic path cannot leave a half-applied method behind.
//!
//! This is what lets a sequential application `M_seq(I, t₁ … tₙ)` run on a
//! single working copy — cost `O(changed items)` per receiver instead of a
//! full `O(E)` instance clone — while still satisfying the contract that a
//! non-`Done` outcome leaves the instance untouched.
//!
//! Transactions can additionally stream their log to a
//! [`DeltaObserver`](crate::view::DeltaObserver)
//! ([`InstanceTxn::begin_observed`]), which is how incremental views (the
//! maintained relational encoding) stay in lockstep with the instance; and
//! a committed log can be appended to a caller-held sequence-level log
//! ([`InstanceTxn::commit_into`]) so that a *multi-receiver* application
//! can be rolled back wholesale with [`undo_ops`].

use crate::error::Result;
use crate::instance::Instance;
use crate::item::Edge;
use crate::oid::Oid;
use crate::partial::PartialInstance;
use crate::schema::{ClassId, PropId};
use crate::view::DeltaObserver;

/// One applied edit, in application order. The variants name what
/// *happened*; the inverse (for rollback) is implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// A node was newly inserted.
    AddedNode(Oid),
    /// A previously present node was removed.
    RemovedNode(Oid),
    /// An edge was newly inserted.
    AddedEdge(Edge),
    /// A previously present edge was removed.
    RemovedEdge(Edge),
}

/// An open transaction over an instance. See the module docs.
pub struct InstanceTxn<'a> {
    instance: &'a mut Instance,
    /// Streamed a copy of every logged op (and every undone op).
    observer: Option<&'a mut dyn DeltaObserver>,
    log: Vec<DeltaOp>,
    /// `true` once commit/rollback consumed the log (suppresses the
    /// rollback-on-drop guard).
    finished: bool,
}

impl std::fmt::Debug for InstanceTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceTxn")
            .field("instance", &self.instance)
            .field("observed", &self.observer.is_some())
            .field("log", &self.log)
            .field("finished", &self.finished)
            .finish()
    }
}

impl<'a> InstanceTxn<'a> {
    /// Open a transaction on `instance`.
    pub fn begin(instance: &'a mut Instance) -> Self {
        Self {
            instance,
            observer: None,
            log: Vec::new(),
            finished: false,
        }
    }

    /// Open a transaction whose every effective edit is also streamed to
    /// `observer` — including the reversals should the transaction roll
    /// back (explicitly or on drop). This keeps an incremental view equal
    /// to a fresh rebuild at every point of the transaction's life.
    pub fn begin_observed(instance: &'a mut Instance, observer: &'a mut dyn DeltaObserver) -> Self {
        Self {
            instance,
            observer: Some(observer),
            log: Vec::new(),
            finished: false,
        }
    }

    /// Read access to the instance *including* uncommitted edits.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// Number of logged (i.e. effective) edits so far.
    pub fn op_count(&self) -> usize {
        self.log.len()
    }

    /// Log `op` and notify the observer, if any.
    fn record(&mut self, op: DeltaOp) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.applied(&op);
        }
        self.log.push(op);
    }

    /// Add an object. Returns `true` when newly inserted.
    pub fn add_object(&mut self, o: Oid) -> bool {
        let added = self.instance.add_object(o);
        if added {
            self.record(DeltaOp::AddedNode(o));
        }
        added
    }

    /// Allocate and add a fresh object of `class` (cf.
    /// [`Instance::fresh_object`]).
    pub fn fresh_object(&mut self, class: ClassId) -> Oid {
        let o = self.instance.fresh_object(class);
        self.record(DeltaOp::AddedNode(o));
        o
    }

    /// Add an edge, checking typing and endpoint presence.
    pub fn add_edge(&mut self, e: Edge) -> Result<bool> {
        let added = self.instance.add_edge(e)?;
        if added {
            self.record(DeltaOp::AddedEdge(e));
        }
        Ok(added)
    }

    /// Convenience: add an edge by components.
    pub fn link(&mut self, src: Oid, prop: PropId, dst: Oid) -> Result<bool> {
        self.add_edge(Edge::new(src, prop, dst))
    }

    /// Remove an edge. Returns `true` when it was present.
    pub fn remove_edge(&mut self, e: &Edge) -> bool {
        let removed = self.instance.remove_edge(e);
        if removed {
            self.record(DeltaOp::RemovedEdge(*e));
        }
        removed
    }

    /// Replace the `prop`-successors of each row's object by its value
    /// list (cf. [`Instance::replace_successors`]): logs and streams only
    /// the effective edits. On `Err` nothing was changed or logged.
    /// Returns the number of edits.
    pub fn replace_successors(&mut self, prop: PropId, rows: &[(Oid, &[Oid])]) -> Result<usize> {
        let start = self.log.len();
        self.instance
            .replace_successors(prop, rows, &mut self.log)?;
        if let Some(obs) = self.observer.as_deref_mut() {
            for op in &self.log[start..] {
                obs.applied(op);
            }
        }
        Ok(self.log.len() - start)
    }

    /// Remove an object and its incident edges (cf.
    /// [`Instance::remove_object_cascade`]).
    pub fn remove_object_cascade(&mut self, o: Oid) -> bool {
        if !self.instance.contains_node(o) {
            return false;
        }
        let incident: Vec<Edge> = self.instance.edges_incident(o).collect();
        for e in &incident {
            self.instance.remove_edge(e);
            self.record(DeltaOp::RemovedEdge(*e));
        }
        self.instance.partial_mut().remove_node(o);
        self.record(DeltaOp::RemovedNode(o));
        true
    }

    /// Keep all edits; the log is discarded. Returns the edit count.
    pub fn commit(mut self) -> usize {
        self.finished = true;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.batch_committed(&self.log);
            obs.batch_end();
        }
        std::mem::take(&mut self.log).len()
    }

    /// Keep all edits and *append* the log to `out`, so a caller can later
    /// undo a whole sequence of committed transactions with [`undo_ops`].
    /// Returns this transaction's edit count.
    pub fn commit_into(mut self, out: &mut Vec<DeltaOp>) -> usize {
        self.finished = true;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.batch_committed(&self.log);
            obs.batch_end();
        }
        let n = self.log.len();
        out.append(&mut self.log);
        n
    }

    /// Undo all edits in reverse order, restoring the exact pre-transaction
    /// instance.
    pub fn rollback(mut self) {
        self.undo();
    }

    fn undo(&mut self) {
        self.finished = true;
        let partial = self.instance.partial_mut();
        for op in std::mem::take(&mut self.log).into_iter().rev() {
            undo_op(partial, &op);
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.undone(&op);
            }
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.batch_end();
        }
        debug_assert!(partial.is_instance(), "rollback restored a non-instance");
    }
}

impl Drop for InstanceTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.undo();
        }
    }
}

/// Apply the inverse of one op.
fn undo_op(partial: &mut PartialInstance, op: &DeltaOp) {
    match *op {
        // Reverse replay guarantees any edge incident to an added
        // node was logged later and is already gone, so the bare
        // node removal cannot dangle.
        DeltaOp::AddedNode(o) => {
            partial.remove_node(o);
        }
        DeltaOp::RemovedNode(o) => {
            partial.insert_node(o);
        }
        DeltaOp::AddedEdge(e) => {
            partial.remove_edge(&e);
        }
        DeltaOp::RemovedEdge(e) => {
            partial
                .insert_edge(e)
                .expect("edge was typed when originally present");
        }
    }
}

/// Undo an externally held delta log (as accumulated by
/// [`InstanceTxn::commit_into`]) in reverse order, notifying `observer` of
/// each reversal. Restores the instance — and any view maintained by the
/// observer — to the exact state before the first logged edit.
pub fn undo_ops(instance: &mut Instance, observer: &mut dyn DeltaObserver, ops: &[DeltaOp]) {
    let partial = instance.partial_mut();
    for op in ops.iter().rev() {
        undo_op(partial, op);
        observer.undone(op);
    }
    observer.batch_end();
    debug_assert!(partial.is_instance(), "undo_ops restored a non-instance");
}

/// Replay an externally produced delta log *forwards*, notifying
/// `observer` of each op — the commit half of a sharded application: each
/// worker records the ops its receivers would have logged under an
/// observed transaction, and the merge replays every shard's log into the
/// real instance in `commit_into` order.
///
/// Unlike a transaction commit this does **not** fire
/// [`DeltaObserver::batch_end`]: the caller batches — typically once per
/// shard — so a maintained view consolidates each shard's log as one
/// netted burst. Every op must be *effective* (add an absent item, remove
/// a present one), which holds whenever the log was derived against a
/// faithful replica of the region of the instance it touches; replaying an
/// ineffective op would desynchronize instance and observer, so it panics.
pub fn redo_ops(instance: &mut Instance, observer: &mut dyn DeltaObserver, ops: &[DeltaOp]) {
    let partial = instance.partial_mut();
    for op in ops {
        let effective = match *op {
            DeltaOp::AddedNode(o) => partial.insert_node(o),
            DeltaOp::RemovedNode(o) => partial.remove_node(o),
            DeltaOp::AddedEdge(e) => partial
                .insert_edge(e)
                .expect("edge was typed when originally logged"),
            DeltaOp::RemovedEdge(e) => partial.remove_edge(&e),
        };
        assert!(effective, "redo of ineffective op {op:?}");
        observer.applied(op);
    }
    debug_assert!(partial.is_instance(), "redo_ops produced a non-instance");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{beer_schema, figure2, Fig2Objects};

    #[test]
    fn commit_keeps_edits() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let before_edges = i.edge_count();
        let mut txn = InstanceTxn::begin(&mut i);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        assert_eq!(txn.op_count(), 3);
        txn.commit();
        assert_eq!(i.edge_count(), before_edges);
        assert!(i.contains_node(fresh));
        assert!(!i.contains_edge(&Edge::new(o.d1, s.frequents, o.bar1)));
    }

    #[test]
    fn rollback_restores_exact_instance() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let snapshot = i.clone();
        let mut txn = InstanceTxn::begin(&mut i);
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        txn.remove_object_cascade(o.bar1);
        assert_ne!(txn.instance(), &snapshot);
        txn.rollback();
        assert_eq!(i, snapshot);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let snapshot = i.clone();
        {
            let mut txn = InstanceTxn::begin(&mut i);
            txn.remove_object_cascade(o.d1);
        }
        assert_eq!(i, snapshot);
    }

    #[test]
    fn noop_edits_are_not_logged() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut txn = InstanceTxn::begin(&mut i);
        assert!(!txn.add_object(o.d1), "already present");
        assert!(!txn.remove_edge(&Edge::new(o.d1, s.likes, o.bar1)));
        assert_eq!(txn.op_count(), 0);
        txn.commit();
    }

    /// `redo_ops` of a committed log reproduces the exact post-commit
    /// instance, and `undo_ops` of the same log restores the original —
    /// the round-trip the sharded merge relies on.
    #[test]
    fn redo_ops_replays_a_committed_log_forwards() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let snapshot = i.clone();
        let mut log = Vec::new();
        let mut txn = InstanceTxn::begin(&mut i);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        txn.commit_into(&mut log);
        let applied = i.clone();

        undo_ops(&mut i, &mut crate::view::NullObserver, &log);
        assert_eq!(i, snapshot);
        redo_ops(&mut i, &mut crate::view::NullObserver, &log);
        assert_eq!(i, applied);
        i.check_index_consistent();
    }

    /// Replaying an op that is not effective (here: re-adding a present
    /// edge) must panic rather than silently desynchronize instance and
    /// observer.
    #[test]
    #[should_panic(expected = "redo of ineffective op")]
    fn redo_ops_rejects_ineffective_ops() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let present = DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, o.bar1));
        redo_ops(&mut i, &mut crate::view::NullObserver, &[present]);
    }

    /// Figure 2 plus a second drinker frequenting `Bar₃`, so a replace
    /// batch has rows that keep, drop, and gain values.
    fn two_drinkers() -> (crate::examples::BeerSchema, Instance, Fig2Objects, Oid) {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let d2 = Oid::new(s.drinker, 2);
        i.add_object(d2);
        i.link(d2, s.frequents, o.bar3).unwrap();
        (s, i, o, d2)
    }

    #[test]
    fn replace_successors_logs_only_effective_edits_each_edge_once() {
        let (s, mut i, o, d2) = two_drinkers();
        let mut txn = InstanceTxn::begin(&mut i);
        let rows: [(Oid, &[Oid]); 2] = [(o.d1, &[o.bar2, o.bar3]), (d2, &[])];
        assert_eq!(txn.replace_successors(s.frequents, &rows).unwrap(), 3);
        // Bar₂ is kept: no cancelling remove/add pair for it.
        assert_eq!(
            txn.log,
            vec![
                DeltaOp::RemovedEdge(Edge::new(o.d1, s.frequents, o.bar1)),
                DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, o.bar3)),
                DeltaOp::RemovedEdge(Edge::new(d2, s.frequents, o.bar3)),
            ]
        );
        let mut edges: Vec<Edge> = txn
            .log
            .iter()
            .map(|op| match *op {
                DeltaOp::AddedEdge(e) | DeltaOp::RemovedEdge(e) => e,
                _ => unreachable!("edge replace logs edge ops"),
            })
            .collect();
        edges.sort();
        edges.dedup();
        assert_eq!(edges.len(), txn.op_count(), "an edge named twice");
        // Replacing with the current values is a no-op.
        let same: [(Oid, &[Oid]); 1] = [(o.d1, &[o.bar2, o.bar3])];
        assert_eq!(txn.replace_successors(s.frequents, &same).unwrap(), 0);
        txn.commit();
        i.check_index_consistent();
    }

    #[test]
    fn replace_successors_rolls_back_and_drops_exactly() {
        let (s, mut i, o, d2) = two_drinkers();
        let snapshot = i.clone();
        let bars = [o.bar1, o.bar2, o.bar3];
        let rows: [(Oid, &[Oid]); 2] = [(o.d1, &[o.bar3]), (d2, &bars)];
        let mut txn = InstanceTxn::begin(&mut i);
        txn.replace_successors(s.frequents, &rows).unwrap();
        assert_ne!(txn.instance(), &snapshot);
        txn.rollback();
        assert_eq!(i, snapshot);
        i.check_index_consistent();
        {
            let mut txn = InstanceTxn::begin(&mut i);
            txn.replace_successors(s.frequents, &rows).unwrap();
        }
        assert_eq!(i, snapshot);
        i.check_index_consistent();
    }

    #[test]
    fn replace_successors_refuses_dangling_or_ill_typed_rows_untouched() {
        let (s, mut i, o, d2) = two_drinkers();
        // A present object of the wrong class, and an absent bar.
        let beer = Oid::new(s.beer, 0);
        i.add_object(beer);
        let ghost = Oid::new(s.bar, 99);
        let snapshot = i.clone();
        let mut txn = InstanceTxn::begin(&mut i);
        for bad in [[o.bar1, ghost], [o.bar1, beer]] {
            let rows: [(Oid, &[Oid]); 2] = [(d2, &[o.bar1]), (o.d1, &bad)];
            assert!(txn.replace_successors(s.frequents, &rows).is_err());
            assert_eq!(txn.op_count(), 0);
            assert_eq!(txn.instance(), &snapshot);
        }
        txn.commit();
    }

    #[test]
    fn commit_into_accumulates_and_undo_ops_restores() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let snapshot = i.clone();
        let mut seq_log = Vec::new();
        let mut txn = InstanceTxn::begin(&mut i);
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        assert_eq!(txn.commit_into(&mut seq_log), 2);
        let mut txn = InstanceTxn::begin(&mut i);
        txn.remove_object_cascade(o.bar2);
        txn.commit_into(&mut seq_log);
        assert_ne!(i, snapshot);
        undo_ops(&mut i, &mut crate::view::NullObserver, &seq_log);
        assert_eq!(i, snapshot);
        i.check_index_consistent();
    }
}
