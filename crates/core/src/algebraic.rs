//! Algebraic update methods (Definition 5.4).
//!
//! An algebraic method of type σ is a set of statements `a := E`, at most
//! one per property `a` of the receiving class, where `E` is a unary
//! relational algebra expression over the object base's relations and the
//! special singleton relations `self`, `arg₁`, …, `argₖ`. Applying the
//! method to `(I, t)` replaces, for each statement, all `a`-edges leaving
//! the receiving object by edges to the elements of `E(I, t)`.
//!
//! **Well-definedness.** The requirement `E(I,t) ⊆ B(I)` (where `B` is
//! `a`'s type) holds *by construction* here: the algebra is many-sorted
//! (typed), so every value in `E`'s result is drawn from `I`'s relations
//! or the receiver — precisely the solution the paper attributes to
//! Van den Bussche & Cabibbo [1998].

use std::collections::BTreeSet;

use receivers_objectbase::{
    undo_ops, DeltaObserver, DeltaOp, InPlaceOutcome, Instance, InstanceTxn, MethodOutcome, Oid,
    PropId, Receiver, Signature, UpdateMethod,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval, Bindings};
use receivers_relalg::typecheck::{update_params, ParamSchemas};
use receivers_relalg::view::DatabaseView;
use receivers_relalg::{infer_schema, is_positive, Expr};
use receivers_wal::{DurableSink, DurableStore, WalResult, WalStorage};

use crate::error::{CoreError, Result};

obs::counter!(C_RECEIVERS_APPLIED, "core.seq.receivers_applied");
obs::counter!(C_ROLLBACKS, "core.seq.rollbacks");
obs::counter!(C_BATCH_ROWS, "core.batch.rows_applied");

/// One algebraic update statement `a := E`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// The updated property `a` (of the receiving class).
    pub property: PropId,
    /// The update expression `E`.
    pub expr: Expr,
}

/// An algebraic update method (Definition 5.4(4)).
#[derive(Debug, Clone)]
pub struct AlgebraicMethod {
    name: String,
    schema: std::sync::Arc<receivers_objectbase::Schema>,
    signature: Signature,
    statements: Vec<Statement>,
    params: ParamSchemas,
}

impl AlgebraicMethod {
    /// Build a method, validating every statement:
    ///
    /// * each updated property leaves the receiving class;
    /// * at most one statement per property;
    /// * each expression is unary with the property's target type.
    pub fn new(
        name: impl Into<String>,
        schema: std::sync::Arc<receivers_objectbase::Schema>,
        signature: Signature,
        statements: Vec<Statement>,
    ) -> Result<Self> {
        let params = update_params(&signature);
        for (i, st) in statements.iter().enumerate() {
            let prop = schema.property(st.property);
            if prop.src != signature.receiving_class() {
                return Err(CoreError::NotReceiverProperty {
                    property: prop.name.clone(),
                    receiving: schema.class_name(signature.receiving_class()).to_owned(),
                });
            }
            if statements[..i].iter().any(|s| s.property == st.property) {
                return Err(CoreError::DuplicateStatement(prop.name.clone()));
            }
            let scheme = infer_schema(&st.expr, &schema, &params)?;
            if scheme.arity() != 1 {
                return Err(CoreError::IllTypedStatement {
                    property: prop.name.clone(),
                    detail: format!("expression has arity {}, expected 1", scheme.arity()),
                });
            }
            let dom = scheme.columns()[0].1;
            if dom != prop.dst {
                return Err(CoreError::IllTypedStatement {
                    property: prop.name.clone(),
                    detail: format!(
                        "expression has domain `{}`, property expects `{}`",
                        schema.class_name(dom),
                        schema.class_name(prop.dst)
                    ),
                });
            }
        }
        Ok(Self {
            name: name.into(),
            schema,
            signature,
            statements,
            params,
        })
    }

    /// The object-base schema.
    pub fn schema(&self) -> &std::sync::Arc<receivers_objectbase::Schema> {
        &self.schema
    }

    /// The statements.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The declared parameter schemes (`self`, `arg1`, …).
    pub fn params(&self) -> &ParamSchemas {
        &self.params
    }

    /// Whether every update expression is positive (Definition 5.10).
    pub fn is_positive(&self) -> bool {
        self.statements.iter().all(|s| is_positive(&s.expr))
    }

    /// Properties updated by this method (the set `A`).
    pub fn updated_properties(&self) -> Vec<PropId> {
        self.statements.iter().map(|s| s.property).collect()
    }

    /// Evaluate all statement expressions on `(I, t)` without applying
    /// them — the per-statement `E(I, t)` values.
    ///
    /// Builds a fresh relational encoding of `instance` (`O(N + E)`). When
    /// applying to many receivers, build the encoding once and use
    /// [`AlgebraicMethod::evaluate_on`] against a maintained
    /// [`DatabaseView`] instead.
    pub fn evaluate(
        &self,
        instance: &Instance,
        receiver: &Receiver,
    ) -> Result<Vec<(PropId, Vec<receivers_objectbase::Oid>)>> {
        self.evaluate_on(&Database::from_instance(instance), receiver)
    }

    /// Evaluate all statement expressions against an already-built
    /// relational encoding — the view-backed entry point: no per-receiver
    /// rebuild, and with the borrowing evaluator the cost is the probe,
    /// not the database size.
    pub fn evaluate_on(
        &self,
        db: &Database,
        receiver: &Receiver,
    ) -> Result<Vec<(PropId, Vec<receivers_objectbase::Oid>)>> {
        let bindings = Bindings::for_receiver(receiver);
        self.statements
            .iter()
            .map(|st| {
                let rel = eval(&st.expr, db, &bindings)?;
                let col = rel.schema().attrs().next().cloned().ok_or_else(|| {
                    CoreError::IllTypedStatement {
                        property: self.schema.prop_name(st.property).to_owned(),
                        detail: "nullary expression".to_owned(),
                    }
                })?;
                Ok((st.property, rel.column(&col).map_err(CoreError::from)?))
            })
            .collect()
    }

    /// Apply the method to each receiver of `order` in turn, evaluating
    /// every statement against the caller's maintained `view` and editing
    /// the instance through observed transactions, so view and instance
    /// stay bit-identical to a fresh rebuild after every statement.
    ///
    /// On any failure the *entire* sequence is rolled back — the
    /// accumulated delta log is replayed in reverse over both instance and
    /// view — so a non-[`Applied`](InPlaceOutcome::Applied) outcome leaves
    /// both exactly as passed in (the sequence-level rollback contract).
    ///
    /// Per receiver the cost is `O(probe + changed edges)`; the `O(N + E)`
    /// view construction is paid once by the caller, not once per receiver.
    pub fn apply_sequence_viewed(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        order: &[Receiver],
    ) -> InPlaceOutcome {
        let _seq_span = obs::span("core.sequence");
        let mut seq_log: Vec<DeltaOp> = Vec::new();
        for t in order {
            let _apply_span = obs::span("core.apply");
            if let Err(e) = t.validate(&self.signature, instance) {
                C_ROLLBACKS.incr();
                undo_ops(instance, view, &seq_log);
                return InPlaceOutcome::Undefined(e.to_string());
            }
            let results = match self.evaluate_on(view.database(), t) {
                Ok(r) => r,
                Err(e) => {
                    C_ROLLBACKS.incr();
                    undo_ops(instance, view, &seq_log);
                    return InPlaceOutcome::Undefined(e.to_string());
                }
            };
            let mut txn = InstanceTxn::begin_observed(instance, view);
            if let Err(e) = replace_values(&mut txn, t.receiving_object(), &results) {
                drop(txn);
                C_ROLLBACKS.incr();
                undo_ops(instance, view, &seq_log);
                return InPlaceOutcome::Undefined(e.to_string());
            }
            txn.commit_into(&mut seq_log);
            C_RECEIVERS_APPLIED.incr();
        }
        InPlaceOutcome::Applied
    }

    /// [`Self::apply_sequence_viewed`] with durability: every receiver's
    /// committed transaction is appended to `store`'s write-ahead log as
    /// one record (through a [`DurableSink`] wired around the view), a
    /// sequence-level rollback is appended as one compensation record,
    /// and the store checkpoints from the maintained view whenever its
    /// [`snapshot_every`](receivers_wal::WalConfig::snapshot_every)
    /// threshold is crossed — no `O(N + E)` rebuild on the hot path.
    ///
    /// The method outcome is unchanged from the in-memory driver; `Err`
    /// is reserved for storage failures. On `Err` the in-memory instance
    /// and view are *ahead* of the durable state (some edits never
    /// reached the log): the caller must stop the run and recover via
    /// [`DurableStore::open`], which restores the last durable prefix.
    pub fn apply_sequence_durable<S: WalStorage>(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        order: &[Receiver],
        store: &mut DurableStore<S>,
    ) -> WalResult<InPlaceOutcome> {
        let _seq_span = obs::span("core.sequence");
        let mut seq_log: Vec<DeltaOp> = Vec::new();
        let rollback_durable = |why: String,
                                instance: &mut Instance,
                                view: &mut DatabaseView,
                                store: &mut DurableStore<S>,
                                seq_log: &[DeltaOp]| {
            C_ROLLBACKS.incr();
            let mut sink = DurableSink::new(store, view);
            undo_ops(instance, &mut sink, seq_log);
            if let Some(err) = sink.take_error() {
                return Err(err);
            }
            // A rollback ends the sequence: make its compensation
            // record durable regardless of the group-commit phase.
            store.sync()?;
            Ok(InPlaceOutcome::Undefined(why))
        };
        for t in order {
            let _apply_span = obs::span("core.apply");
            if let Err(e) = t.validate(&self.signature, instance) {
                return rollback_durable(e.to_string(), instance, view, store, &seq_log);
            }
            let results = match self.evaluate_on(view.database(), t) {
                Ok(r) => r,
                Err(e) => {
                    return rollback_durable(e.to_string(), instance, view, store, &seq_log);
                }
            };
            let replaced = {
                let mut sink = DurableSink::new(store, view);
                let mut txn = InstanceTxn::begin_observed(instance, &mut sink);
                let replaced = replace_values(&mut txn, t.receiving_object(), &results);
                if replaced.is_ok() {
                    txn.commit_into(&mut seq_log);
                } else {
                    // Rolls the receiver's partial edits back before
                    // they reach the log.
                    drop(txn);
                }
                if let Some(err) = sink.take_error() {
                    return Err(err);
                }
                replaced
            };
            if let Err(e) = replaced {
                return rollback_durable(e.to_string(), instance, view, store, &seq_log);
            }
            C_RECEIVERS_APPLIED.incr();
            if store.should_checkpoint() {
                store.checkpoint_db(view.database())?;
            }
        }
        Ok(InPlaceOutcome::Applied)
    }
}

/// Replace each updated property of `recv` by its evaluated values —
/// one bulk successor replace per statement.
pub(crate) fn replace_values(
    txn: &mut InstanceTxn<'_>,
    recv: Oid,
    results: &[(PropId, Vec<Oid>)],
) -> receivers_objectbase::Result<()> {
    for (prop, values) in results {
        txn.replace_successors(*prop, &[(recv, values)])?;
    }
    Ok(())
}

/// Group `(receiver, value)` pairs into one value list per object of
/// `receiving` — empty for objects without pairs — and hand the rows to
/// `f`. Every pair's receiver must be in `receiving`.
pub(crate) fn with_receiver_rows<R>(
    receiving: &BTreeSet<Oid>,
    pairs: &[(Oid, Oid)],
    f: impl FnOnce(&[(Oid, &[Oid])]) -> R,
) -> R {
    let mut sorted = Vec::new();
    let pairs = if pairs.is_sorted() {
        pairs
    } else {
        sorted.extend_from_slice(pairs);
        sorted.sort_unstable();
        &sorted
    };
    let values: Vec<Oid> = pairs.iter().map(|&(_, v)| v).collect();
    let mut rows = Vec::with_capacity(receiving.len());
    let mut k = 0;
    for &o0 in receiving {
        debug_assert!(
            pairs.get(k).is_none_or(|&(o, _)| o >= o0),
            "pair for an object outside the receiving set"
        );
        let start = k;
        while pairs.get(k).is_some_and(|&(o, _)| o == o0) {
            k += 1;
        }
        rows.push((o0, &values[start..k]));
    }
    debug_assert_eq!(
        k,
        pairs.len(),
        "pair for an object outside the receiving set"
    );
    f(&rows)
}

// ---------------------------------------------------------------------
// Vectorized batch appliers.
// ---------------------------------------------------------------------
//
// The phase-2 bodies of precomputed set-oriented updates, applied in one
// observed transaction per batch. Program executors (the `sql::plan`
// drivers) evaluate a whole stage's rows/values first, then commit the
// batch through one of these — the observer sees one `batch_committed`
// per stage, which is also the WAL-record granularity of the durable
// driver.

/// Remove `victims` (with edge cascade, in the given order) in one
/// observed transaction — the phase-2 body of a set-oriented delete.
pub fn apply_delete_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    victims: &[Oid],
) {
    let _span = obs::span("core.batch.delete");
    C_BATCH_ROWS.add(victims.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    for &v in victims {
        txn.remove_object_cascade(v);
    }
    txn.commit();
}

/// Replace each assigned row's `prop` edges by its precomputed values,
/// in one observed transaction — the phase-2 body of a set-oriented
/// update. Rows absent from `assignments` keep their old edges. An
/// ill-typed or dangling value is an `Err` that leaves the instance and
/// the observer untouched.
pub fn apply_assignment_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    assignments: &[(Oid, Vec<Oid>)],
) -> receivers_objectbase::Result<()> {
    let _span = obs::span("core.batch.assign");
    C_BATCH_ROWS.add(assignments.len() as u64);
    let rows: Vec<(Oid, &[Oid])> = assignments
        .iter()
        .map(|(tuple, values)| (*tuple, values.as_slice()))
        .collect();
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    txn.replace_successors(prop, &rows)?;
    txn.commit();
    Ok(())
}

/// The replacement discipline of [`crate::apply_par`] (Definition 6.2) as
/// one observed transaction: replace `prop` on *every* receiving object
/// by its `(receiver, value)` pairs of the single parallel evaluation
/// (receivers without pairs lose the property). An ill-typed or dangling
/// value is an `Err` that leaves the instance and the observer untouched.
pub fn apply_replacement_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    receiving: &BTreeSet<Oid>,
    pairs: &[(Oid, Oid)],
) -> receivers_objectbase::Result<()> {
    let _span = obs::span("core.batch.replace");
    C_BATCH_ROWS.add(receiving.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    with_receiver_rows(receiving, pairs, |rows| txn.replace_successors(prop, rows))?;
    txn.commit();
    Ok(())
}

impl UpdateMethod for AlgebraicMethod {
    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn apply(&self, instance: &Instance, receiver: &Receiver) -> MethodOutcome {
        let mut out = instance.clone();
        match self.apply_in_place(&mut out, receiver) {
            InPlaceOutcome::Applied => MethodOutcome::Done(out),
            InPlaceOutcome::Diverges => MethodOutcome::Diverges,
            InPlaceOutcome::Undefined(why) => MethodOutcome::Undefined(why),
        }
    }

    /// Native in-place application: all statement expressions are evaluated
    /// *before* any mutation, so the subsequent edit — replacing the
    /// receiving object's updated property edges under an [`InstanceTxn`] —
    /// costs `O(changed edges)` and needs no instance clone. Implemented as
    /// the single-receiver case of the viewed sequence application.
    fn apply_in_place(&self, instance: &mut Instance, receiver: &Receiver) -> InPlaceOutcome {
        self.apply_in_place_sequence(instance, std::slice::from_ref(receiver))
    }

    /// Build-once, maintain-incrementally sequence application: one
    /// relational view construction per *sequence*, maintained edge-by-edge
    /// from the delta log across receivers — `O(E + changed edges)` for the
    /// whole sequence instead of `O(n·E)` per-receiver rebuilds.
    fn apply_in_place_sequence(
        &self,
        instance: &mut Instance,
        order: &[Receiver],
    ) -> InPlaceOutcome {
        if order.is_empty() {
            return InPlaceOutcome::Applied;
        }
        let mut view = DatabaseView::new(instance);
        self.apply_sequence_viewed(instance, &mut view, order)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure2, figure3, figure4};
    use std::sync::Arc;

    fn add_bar_method() -> (receivers_objectbase::examples::BeerSchema, AlgebraicMethod) {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let expr = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .project(["frequents"])
            .union(Expr::arg(1));
        let m = AlgebraicMethod::new(
            "add_bar",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr,
            }],
        )
        .unwrap();
        (s, m)
    }

    /// Figure 3: add_bar(I, [Drinker₁, Bar₃]).
    #[test]
    fn add_bar_reproduces_figure_3() {
        let (s, m) = add_bar_method();
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let out = m.apply(&i, &t).expect_done("add_bar");
        assert_eq!(out, figure3(&s));
    }

    /// Figure 4: favorite_bar(I, [Drinker₁, Bar₁]).
    #[test]
    fn favorite_bar_reproduces_figure_4() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let m = AlgebraicMethod::new(
            "favorite_bar",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr: Expr::arg(1),
            }],
        )
        .unwrap();
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let out = m.apply(&i, &t).expect_done("favorite_bar");
        assert_eq!(out, figure4(&s));
    }

    /// delete_bar (Example 5.11) is positive yet deletes information.
    #[test]
    fn delete_bar_is_positive_and_deletes() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let expr = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .join_ne(Expr::arg(1), "frequents", "arg1")
            .project(["frequents"]);
        let m = AlgebraicMethod::new(
            "delete_bar",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr,
            }],
        )
        .unwrap();
        assert!(m.is_positive());
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let out = m.apply(&i, &t).expect_done("delete_bar");
        let remaining: Vec<_> = out.successors(o.d1, s.frequents).collect();
        assert_eq!(remaining, vec![o.bar2]);
    }

    /// Figure 2 plus a beer, its maintained view, and a dangling bar.
    fn fig2_viewed() -> (
        receivers_objectbase::examples::BeerSchema,
        Instance,
        receivers_objectbase::examples::Fig2Objects,
        DatabaseView,
    ) {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        i.add_object(Oid::new(s.beer, 0));
        let view = DatabaseView::new(&i);
        (s, i, o, view)
    }

    /// An ill-typed or dangling value row is an `Err` from both batch
    /// appliers, and neither the instance nor the maintained view moves —
    /// not even for the well-typed rows of the same batch.
    #[test]
    fn batch_appliers_refuse_bad_rows_untouched() {
        let (s, mut i, o, mut view) = fig2_viewed();
        let before = (i.clone(), view.clone());
        let ghost = Oid::new(s.bar, 42);
        let beer = Oid::new(s.beer, 0);
        for bad in [ghost, beer] {
            let assigns = vec![(o.d1, vec![o.bar3]), (o.d1, vec![o.bar1, bad])];
            assert!(apply_assignment_batch(&mut i, &mut view, s.frequents, &assigns).is_err());
            assert_eq!((&i, &view), (&before.0, &before.1));
            let receiving: BTreeSet<Oid> = [o.d1].into();
            let pairs = [(o.d1, o.bar3), (o.d1, bad)];
            assert!(
                apply_replacement_batch(&mut i, &mut view, s.frequents, &receiving, &pairs)
                    .is_err()
            );
            assert_eq!((&i, &view), (&before.0, &before.1));
            assert!(view.matches_rebuild(&i));
        }
    }

    /// A set update whose values equal the current ones logs no edit, so
    /// through a `DurableSink` it appends no WAL record; a changing one
    /// appends exactly one.
    #[test]
    fn unchanged_set_update_appends_no_wal_record() {
        use receivers_wal::{FaultStorage, WalConfig};
        let (s, mut i, o, mut view) = fig2_viewed();
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let current = vec![(o.d1, vec![o.bar1, o.bar2])];
        let mut sink = DurableSink::new(&mut store, &mut view);
        apply_assignment_batch(&mut i, &mut sink, s.frequents, &current).unwrap();
        assert_eq!(sink.take_error(), None);
        assert_eq!(store.stats().records, 0);
        assert_eq!(store.last_seq(), 0);

        let changed = vec![(o.d1, vec![o.bar2, o.bar3])];
        let mut sink = DurableSink::new(&mut store, &mut view);
        apply_assignment_batch(&mut i, &mut sink, s.frequents, &changed).unwrap();
        assert_eq!(sink.take_error(), None);
        assert_eq!(store.stats().records, 1);
        assert!(view.matches_rebuild(&i));
    }

    #[test]
    fn statements_must_update_receiving_class_properties() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.beer]).unwrap();
        // serves is a Bar property, not a Drinker property.
        let err = AlgebraicMethod::new(
            "bad",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.serves,
                expr: Expr::arg(1),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NotReceiverProperty { .. }));
    }

    #[test]
    fn duplicate_statements_rejected() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let st = Statement {
            property: s.frequents,
            expr: Expr::arg(1),
        };
        let err = AlgebraicMethod::new("dup", Arc::clone(&s.schema), sig, vec![st.clone(), st])
            .unwrap_err();
        assert!(matches!(err, CoreError::DuplicateStatement(_)));
    }

    #[test]
    fn ill_typed_statement_rejected() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.beer]).unwrap();
        // frequents expects Bar values but arg1 is a Beer.
        let err = AlgebraicMethod::new(
            "bad",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr: Expr::arg(1),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::IllTypedStatement { .. }));
    }

    /// Methods cannot create or delete objects — only edges of the
    /// receiving object change (Section 5.2).
    #[test]
    fn only_receiver_edges_change() {
        let (s, m) = add_bar_method();
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let out = m.apply(&i, &t).expect_done("add_bar");
        assert_eq!(
            i.nodes().collect::<Vec<_>>(),
            out.nodes().collect::<Vec<_>>()
        );
        for e in out.edges() {
            if !i.contains_edge(&e) {
                assert_eq!(e.src, o.d1);
            }
        }
    }
}
