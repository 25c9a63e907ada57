//! Parallel application of algebraic update methods (Section 6).
//!
//! Instead of iterating over receivers, the whole receiver set is stored
//! in the relation `rec` over scheme `self arg₁ … argₖ` and each update
//! expression is rewritten by `par(·)` (Definition 6.1, implemented in
//! [`receivers_relalg::par`]); a *single* evaluation per statement then
//! computes the new property values for all receiving objects at once
//! (Definition 6.2). Order independence is automatic, and evaluation cost
//! is one algebra query instead of `|T|` — the efficiency claim this
//! repository benchmarks (bench `seq_vs_par`).

use receivers_objectbase::{Instance, Oid, ReceiverSet, UpdateMethod};
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval, Bindings};
use receivers_relalg::par::par;

use crate::algebraic::{with_receiver_rows, AlgebraicMethod};
use crate::error::Result;

/// `M_par(I, T)` (Definition 6.2): apply `method` to the whole receiver
/// set at once.
pub fn apply_par(
    method: &AlgebraicMethod,
    instance: &Instance,
    receivers: &ReceiverSet,
) -> Result<Instance> {
    let sig = method.signature();
    for t in receivers.iter() {
        t.validate(sig, instance)?;
    }
    let db = Database::from_instance(instance);
    let bindings = Bindings::for_receiver_set(sig, receivers)?;

    // One evaluation per statement, covering every receiver.
    let mut per_statement: Vec<(receivers_objectbase::PropId, Vec<(Oid, Oid)>)> =
        Vec::with_capacity(method.statements().len());
    for st in method.statements() {
        let rewritten = par(&st.expr)?;
        let rel = eval(&rewritten, &db, &bindings)?;
        // Scheme is (self, value) — except for the degenerate statement
        // `a := self` (a self-loop property), whose value column *is* the
        // bookkeeping column (Definition 6.1 extends schemes as attribute
        // sets), leaving a unary result.
        let pairs = match rel.schema().arity() {
            1 => rel
                .tuples()
                .map(|t| (t[0], t[0]))
                .collect::<Vec<(Oid, Oid)>>(),
            _ => rel.tuples().map(|t| (t[0], t[1])).collect(),
        };
        per_statement.push((st.property, pairs));
    }

    let receiving: std::collections::BTreeSet<Oid> =
        receivers.iter().map(|t| t.receiving_object()).collect();
    let mut out = instance.clone();
    let mut ops = Vec::new();
    for (prop, pairs) in per_statement {
        with_receiver_rows(&receiving, &pairs, |rows| {
            out.replace_successors(prop, rows, &mut ops)
        })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{
        add_bar, delete_bar, favorite_bar, loop_schema, transitive_closure_method,
    };
    use crate::sequential::apply_seq_unchecked;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::gen::{
        all_receivers, random_instance, random_receivers, InstanceParams,
    };
    use receivers_objectbase::{Edge, Receiver, Signature};

    /// Proposition 6.3: on a single receiver, parallel and ordinary
    /// application coincide.
    #[test]
    fn proposition_6_3_singleton_coincidence() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        for m in [add_bar(&s), favorite_bar(&s), delete_bar(&s)] {
            let t = Receiver::new(vec![o.d1, o.bar1]);
            let single = ReceiverSet::from_iter([t.clone()]);
            let par_result = apply_par(&m, &i, &single).unwrap();
            let seq_result = m.apply(&i, &t).expect_done("single");
            assert_eq!(par_result, seq_result, "method {}", m.name());
        }
    }

    /// Theorem 6.5 on a concrete case: favorite_bar (key-order
    /// independent) on a key set — sequential and parallel agree.
    #[test]
    fn theorem_6_5_favorite_bar() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let d2 = receivers_objectbase::Oid::new(s.drinker, 2);
        i.add_object(d2);
        let t = ReceiverSet::from_iter([
            Receiver::new(vec![o.d1, o.bar1]),
            Receiver::new(vec![d2, o.bar3]),
        ]);
        assert!(t.is_key_set());
        let m = favorite_bar(&s);
        let seq = apply_seq_unchecked(&m, &i, &t).expect_done("seq");
        let par_result = apply_par(&m, &i, &t).unwrap();
        assert_eq!(seq, par_result);
    }

    /// Theorem 6.5 over randomized key sets for all three beer methods.
    #[test]
    fn theorem_6_5_randomized() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        for seed in 0..10u64 {
            let i = random_instance(
                &s.schema,
                InstanceParams {
                    objects_per_class: 5,
                    edge_density: 0.4,
                },
                seed,
            );
            let t = random_receivers(&i, &sig, 4, true, seed.wrapping_add(1000));
            assert!(t.is_key_set());
            for m in [add_bar(&s), favorite_bar(&s), delete_bar(&s)] {
                let seq = apply_seq_unchecked(&m, &i, &t).expect_done("seq");
                let par_result = apply_par(&m, &i, &t).unwrap();
                assert_eq!(seq, par_result, "method {} seed {seed}", m.name());
            }
        }
    }

    /// Example 6.4: sequential application computes transitive closure,
    /// parallel application merely duplicates each `e`-edge as a
    /// `tc`-edge.
    #[test]
    fn example_6_4_separation() {
        let ls = loop_schema("e", "tc");
        let mut i = Instance::empty(std::sync::Arc::clone(&ls.schema));
        let o: Vec<_> = (0..4)
            .map(|k| receivers_objectbase::Oid::new(ls.c, k))
            .collect();
        for &x in &o {
            i.add_object(x);
        }
        // Chain 0 → 1 → 2 → 3 in e-edges.
        for w in o.windows(2) {
            i.link(w[0], ls.e, w[1]).unwrap();
        }
        let m = transitive_closure_method(&ls);
        let sig = Signature::new(vec![ls.c, ls.c]).unwrap();
        let t = all_receivers(&i, &sig);
        assert_eq!(t.len(), 16);

        // Parallel: tc = copy of e (3 edges).
        let par_result = apply_par(&m, &i, &t).unwrap();
        let tc_par: Vec<_> = par_result.edges_labeled(ls.tc).collect();
        assert_eq!(tc_par.len(), 3);
        for e in &tc_par {
            assert!(i.contains_edge(&Edge::new(e.src, ls.e, e.dst)));
        }

        // Sequential: full transitive closure (3+2+1 = 6 edges).
        let seq = apply_seq_unchecked(&m, &i, &t).expect_done("seq");
        let tc_seq: std::collections::BTreeSet<_> =
            seq.edges_labeled(ls.tc).map(|e| (e.src, e.dst)).collect();
        let mut expected = std::collections::BTreeSet::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                expected.insert((o[a], o[b]));
            }
        }
        assert_eq!(tc_seq, expected);
    }

    /// The degenerate statement `tc := self` (a self-loop property whose
    /// value IS the receiver): Definition 6.1's attribute-set scheme makes
    /// `par(self)` unary; parallel and sequential application still agree
    /// on key sets.
    #[test]
    fn degenerate_self_statement() {
        use crate::algebraic::{AlgebraicMethod, Statement};
        use receivers_relalg::Expr;
        let ls = loop_schema("e", "tc");
        let m = AlgebraicMethod::new(
            "self_loop",
            std::sync::Arc::clone(&ls.schema),
            Signature::new(vec![ls.c]).unwrap(),
            vec![Statement {
                property: ls.tc,
                expr: Expr::self_rel(),
            }],
        )
        .unwrap();
        let mut i = Instance::empty(std::sync::Arc::clone(&ls.schema));
        let objs: Vec<_> = (0..3)
            .map(|k| receivers_objectbase::Oid::new(ls.c, k))
            .collect();
        for &o in &objs {
            i.add_object(o);
        }
        let t: ReceiverSet = objs.iter().map(|&o| Receiver::new(vec![o])).collect();
        let par_result = apply_par(&m, &i, &t).unwrap();
        let seq_result = apply_seq_unchecked(&m, &i, &t).expect_done("seq");
        assert_eq!(par_result, seq_result);
        for &o in &objs {
            assert_eq!(par_result.successors(o, ls.tc).collect::<Vec<_>>(), vec![o]);
        }
    }

    /// Receivers not over the instance are rejected.
    #[test]
    fn invalid_receivers_rejected() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let ghost = receivers_objectbase::Oid::new(s.bar, 42);
        let t = ReceiverSet::from_iter([Receiver::new(vec![o.d1, ghost])]);
        assert!(apply_par(&favorite_bar(&s), &i, &t).is_err());
    }
}
