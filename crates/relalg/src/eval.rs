//! Expression evaluation against a [`Database`] and parameter bindings.

use std::borrow::Cow;
use std::collections::BTreeMap;

use receivers_objectbase::{ClassId, Oid, Receiver, ReceiverSet, Signature};

use crate::database::Database;
use crate::error::{RelAlgError, Result};
use crate::expr::Expr;
use crate::relation::{nullary_set, probe_join, Relation};
use crate::schema::RelSchema;
use crate::tuples::TupleSet;

/// Bindings for parameter relations.
///
/// For an update expression of type σ applied to receiver `t = [o₀,…,oₖ]`,
/// `self` is bound to the singleton `{o₀}` and `arg_i` to `{o_i}`
/// (Definition 5.4(2)); for the parallel semantics, `rec` is bound to the
/// whole receiver set (Definition 6.2(1)).
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    params: BTreeMap<String, Relation>,
}

impl Bindings {
    /// No bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a named parameter relation.
    pub fn bind(&mut self, name: impl Into<String>, rel: Relation) -> &mut Self {
        self.params.insert(name.into(), rel);
        self
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.params.get(name)
    }

    /// The standard single-receiver bindings: `self ↦ {o₀}`,
    /// `arg_i ↦ {o_i}`.
    pub fn for_receiver(t: &Receiver) -> Self {
        let mut b = Self::new();
        b.bind("self", Relation::singleton("self", t.receiving_object()));
        for (i, &o) in t.arguments().iter().enumerate() {
            let name = format!("arg{}", i + 1);
            b.bind(name.clone(), Relation::singleton(name, o));
        }
        b
    }

    /// Like [`Bindings::for_receiver`] but with every parameter name primed
    /// (`self'`, `arg1'`, …) — used by the Theorem 5.6 reduction to hold a
    /// second receiver.
    pub fn for_receiver_primed(t: &Receiver) -> Self {
        let mut b = Self::new();
        b.bind("self'", Relation::singleton("self'", t.receiving_object()));
        for (i, &o) in t.arguments().iter().enumerate() {
            let name = format!("arg{}'", i + 1);
            b.bind(name.clone(), Relation::singleton(name, o));
        }
        b
    }

    /// The parallel-semantics binding: `rec` holds the entire receiver set
    /// as a relation over scheme `self arg1 … argk`.
    pub fn for_receiver_set(sig: &Signature, t: &ReceiverSet) -> Result<Self> {
        let mut cols = vec![("self".to_owned(), sig.receiving_class())];
        for (i, &c) in sig.argument_classes().iter().enumerate() {
            cols.push((format!("arg{}", i + 1), c));
        }
        let schema = RelSchema::new(cols)?;
        let rec = Relation::from_tuples(schema, t.iter().map(|r| r.objects().to_vec()))?;
        let mut b = Self::new();
        b.bind("rec", rec);
        Ok(b)
    }

    /// Merge two sets of bindings (right wins on clashes).
    pub fn merged(mut self, other: Bindings) -> Self {
        self.params.extend(other.params);
        self
    }
}

/// Evaluate `expr` on `db` under `bindings`.
///
/// Chains of products, natural joins, equality selections, equality
/// theta joins and renamings are handed to the **multiway join
/// planner** (DESIGN.md §15): flattened into leaves plus equalities
/// and joined smallest-first with every equality used as a probe key,
/// so no Cartesian product is materialised before its filter — the
/// difference between milliseconds and seconds on the
/// `par(·)`-generated plans. All other operators evaluate structurally.
pub fn eval(expr: &Expr, db: &Database, bindings: &Bindings) -> Result<Relation> {
    eval_cow(expr, db, bindings).map(Cow::into_owned)
}

/// The borrowing evaluator behind [`eval`]: base relations and parameter
/// bindings come back as `Cow::Borrowed`, so operators probe them in place
/// and a full copy is made only when a leaf itself is the final result.
/// This is what makes evaluation against a maintained
/// [`DatabaseView`](crate::view::DatabaseView) `O(probe)` instead of
/// `O(relation)`: a singleton `self ⋈ Ca` no longer clones all of `Ca`
/// first.
fn eval_cow<'a>(
    expr: &Expr,
    db: &'a Database,
    bindings: &'a Bindings,
) -> Result<Cow<'a, Relation>> {
    match expr {
        Expr::Base(rel) => db.relation(*rel).map(Cow::Borrowed),
        Expr::Param(p) => bindings
            .get(p)
            .map(Cow::Borrowed)
            .ok_or_else(|| RelAlgError::UnknownParam(p.clone())),
        Expr::Union(l, r) => {
            let lrel = eval_cow(l, db, bindings)?;
            let rrel = eval_cow(r, db, bindings)?;
            Ok(Cow::Owned(lrel.union(&rrel)?))
        }
        Expr::Diff(l, r) => {
            let lrel = eval_cow(l, db, bindings)?;
            let rrel = eval_cow(r, db, bindings)?;
            Ok(Cow::Owned(lrel.difference(&rrel)?))
        }
        Expr::Product(..)
        | Expr::NatJoin(..)
        | Expr::SelectEq(..)
        | Expr::Rename(..)
        | Expr::ThetaJoin { eq: true, .. } => eval_join(expr, db, bindings).map(Cow::Owned),
        Expr::ThetaJoin {
            left,
            right,
            on_left,
            on_right,
            eq: false,
        } => {
            let lrel = eval_cow(left, db, bindings)?;
            let rrel = eval_cow(right, db, bindings)?;
            Ok(Cow::Owned(
                lrel.theta_join(&rrel, on_left, on_right, false)?,
            ))
        }
        Expr::SelectNe(e, a, b) => Ok(Cow::Owned(eval_cow(e, db, bindings)?.select_ne(a, b)?)),
        Expr::Project(e, attrs) => Ok(Cow::Owned(eval_cow(e, db, bindings)?.project(attrs)?)),
    }
}

// ---------------------------------------------------------------------
// The multiway equi-join planner.
// ---------------------------------------------------------------------

/// An attribute name of a flattened chain, borrowed rather than cloned:
/// a leaf's own column, or the target of a renaming.
#[derive(Clone, Copy)]
enum Name<'e> {
    Leaf { rel: usize, col: usize },
    Renamed(&'e str),
}

/// A flattened chain's output columns in left-deep order: attribute
/// name, domain, and the column variable carrying the attribute.
type ChainScheme<'e> = Vec<(Name<'e>, ClassId, usize)>;

/// One leaf occurrence of a flattened chain: the evaluated relation it
/// reads and its first column variable (its columns are the variables
/// `var..var + arity`).
struct Leaf {
    rel: usize,
    var: usize,
}

/// Flattens a chain of products, natural joins, equality selections,
/// equality theta joins and renamings into leaves plus equalities
/// between their columns (a union-find over column variables).
struct JoinPlanner<'e, 'a> {
    db: &'a Database,
    bindings: &'a Bindings,
    /// Distinct evaluated leaves, keyed by expression: a leaf that
    /// occurs twice (the repeated `π_self(rec)` of `par`) is evaluated
    /// once. Base relations and parameters stay borrowed.
    rels: Vec<(&'e Expr, Cow<'a, Relation>)>,
    leaves: Vec<Leaf>,
    /// Union-find parent per column variable.
    parent: Vec<usize>,
}

/// Evaluate a join chain with the multiway planner:
///
/// 1. **Flatten** the chain (through `Rename` too) into leaves plus
///    equalities. Scheme checks run bottom-up in the order a left-deep
///    evaluation performs them, so errors (`ProductAttrClash`,
///    `DomainMismatch`, …) are exactly the structural evaluator's.
/// 2. **Deduplicate** identical leaves whose columns are pairwise
///    equated (`R ⋈ R` on every column is `R`).
/// 3. **Join** each connected component smallest-first: the seed is the
///    smallest leaf, and each step joins the smallest leaf sharing an
///    equality class with what is already bound, using every such
///    equality as a probe key ([`probe_join`]: a key on a leading-column
///    prefix probes the leaf's sorted rows by binary search, with no
///    build; other keys sort a permutation index once).
/// 4. Take **products between components** last, then project back to
///    the left-deep scheme order.
fn eval_join(expr: &Expr, db: &Database, bindings: &Bindings) -> Result<Relation> {
    let mut planner = JoinPlanner {
        db,
        bindings,
        rels: Vec::new(),
        leaves: Vec::new(),
        parent: Vec::new(),
    };
    let mut scheme = Vec::new();
    planner.flatten(expr, &mut scheme)?;
    planner.execute(&scheme)
}

impl<'e, 'a> JoinPlanner<'e, 'a> {
    fn name(&self, name: Name<'e>) -> &str {
        match name {
            Name::Leaf { rel, col } => &self.rels[rel].1.schema().columns()[col].0,
            Name::Renamed(to) => to,
        }
    }

    fn position(&self, columns: &[(Name<'e>, ClassId, usize)], attr: &str) -> Option<usize> {
        columns.iter().position(|&(n, ..)| self.name(n) == attr)
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    /// Merge two equality classes; the smaller variable stays the root.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = ra.min(rb);
    }

    /// Append the columns of `expr`'s chain to `out`.
    fn flatten(&mut self, expr: &'e Expr, out: &mut ChainScheme<'e>) -> Result<()> {
        let start = out.len();
        match expr {
            Expr::Product(l, r) => self.product(l, r, out),
            Expr::NatJoin(l, r) => {
                self.flatten(l, out)?;
                let mid = out.len();
                self.flatten(r, out)?;
                let mut merged = vec![false; out.len() - mid];
                for i in start..mid {
                    let (n, d, v) = out[i];
                    let attr = self.name(n);
                    if let Some(j) = self.position(&out[mid..], attr) {
                        if out[mid + j].1 != d {
                            return Err(RelAlgError::DomainMismatch {
                                left: attr.to_owned(),
                                right: attr.to_owned(),
                            });
                        }
                        merged[j] = true;
                        self.union(v, out[mid + j].2);
                    }
                }
                let mut j = 0;
                out.retain(|_| {
                    j += 1;
                    j <= mid || !merged[j - 1 - mid]
                });
                Ok(())
            }
            Expr::SelectEq(e, a, b) => {
                self.flatten(e, out)?;
                self.equate(&out[start..], a, b)
            }
            Expr::ThetaJoin {
                left,
                right,
                on_left,
                on_right,
                eq: true,
            } => {
                self.product(left, right, out)?;
                self.equate(&out[start..], on_left, on_right)
            }
            Expr::Rename(e, from, to) => {
                self.flatten(e, out)?;
                let i = self
                    .position(&out[start..], from)
                    .ok_or_else(|| RelAlgError::UnknownAttr(from.clone()))?;
                if from != to && self.position(&out[start..], to).is_some() {
                    return Err(RelAlgError::DuplicateAttr(to.clone()));
                }
                out[start + i].0 = Name::Renamed(to);
                Ok(())
            }
            leaf => self.leaf(leaf, out),
        }
    }

    fn product(&mut self, l: &'e Expr, r: &'e Expr, out: &mut ChainScheme<'e>) -> Result<()> {
        let start = out.len();
        self.flatten(l, out)?;
        let mid = out.len();
        self.flatten(r, out)?;
        for &(n, ..) in &out[mid..] {
            let attr = self.name(n);
            if self.position(&out[start..mid], attr).is_some() {
                return Err(RelAlgError::ProductAttrClash(attr.to_owned()));
            }
        }
        Ok(())
    }

    /// Record `σ_{a=b}` over `columns`, with `select_eq`'s checks.
    fn equate(&mut self, columns: &[(Name<'e>, ClassId, usize)], a: &str, b: &str) -> Result<()> {
        let unknown = |x: &str| RelAlgError::UnknownAttr(x.to_owned());
        let i = self.position(columns, a).ok_or_else(|| unknown(a))?;
        let j = self.position(columns, b).ok_or_else(|| unknown(b))?;
        if columns[i].1 != columns[j].1 {
            return Err(RelAlgError::DomainMismatch {
                left: a.to_owned(),
                right: b.to_owned(),
            });
        }
        self.union(columns[i].2, columns[j].2);
        Ok(())
    }

    fn leaf(&mut self, expr: &'e Expr, out: &mut ChainScheme<'e>) -> Result<()> {
        let rel = match self.rels.iter().position(|(e, _)| *e == expr) {
            Some(i) => i,
            None => {
                let evaluated = eval_cow(expr, self.db, self.bindings)?;
                self.rels.push((expr, evaluated));
                self.rels.len() - 1
            }
        };
        let var = self.parent.len();
        let columns = self.rels[rel].1.schema().columns();
        self.parent.extend(var..var + columns.len());
        self.leaves.push(Leaf { rel, var });
        out.extend(
            columns
                .iter()
                .enumerate()
                .map(|(col, &(_, d))| (Name::Leaf { rel, col }, d, var + col)),
        );
        Ok(())
    }

    fn execute(mut self, scheme: &ChainScheme<'e>) -> Result<Relation> {
        let schema = RelSchema::new(
            scheme
                .iter()
                .map(|&(n, d, _)| (self.name(n).to_owned(), d))
                .collect(),
        )?;
        // Dense equality-class ids, written over the union-find once
        // every variable points straight at its root: roots are the
        // smallest variable of their class, so a class's id is assigned
        // at its root before any other member reads it.
        for v in 0..self.parent.len() {
            self.parent[v] = self.find(v);
        }
        let mut nclasses = 0;
        for v in 0..self.parent.len() {
            let root = self.parent[v];
            if root == v {
                self.parent[v] = nclasses;
                nclasses += 1;
            } else {
                self.parent[v] = self.parent[root];
            }
        }
        let class_of = &self.parent;
        // Per leaf: its relation and column classes; identical leaves
        // equated column-for-column collapse onto the first.
        let mut live: Vec<(usize, &TupleSet, &[usize])> = Vec::with_capacity(self.leaves.len());
        for leaf in &self.leaves {
            let ts = self.rels[leaf.rel].1.tuple_set();
            let cols = &class_of[leaf.var..leaf.var + ts.arity()];
            if !live.iter().any(|&(r, _, c)| r == leaf.rel && c == cols) {
                live.push((leaf.rel, ts, cols));
            }
        }
        if live.iter().any(|(_, ts, _)| ts.is_empty()) {
            return Ok(Relation::empty(schema));
        }

        // Greedy smallest-first joins. A part is one joined component:
        // `open` is the one being grown, `parts` the finished ones, and
        // `bound` maps each class to its (part, column).
        let mut bound: Vec<Option<(usize, usize)>> = vec![None; nclasses];
        let mut parts: Vec<Part> = Vec::new();
        let mut open: Option<Part> = None;
        while !live.is_empty() {
            let pick = live
                .iter()
                .enumerate()
                .filter(|(_, (_, _, cols))| {
                    open.is_none() || cols.iter().any(|&c| bound[c].is_some())
                })
                .min_by_key(|(i, (_, ts, _))| (ts.len(), *i))
                .map(|(i, _)| i);
            let Some(i) = pick else {
                parts.extend(open.take());
                continue;
            };
            let (_, ts, cols) = live.remove(i);
            let part = extend(open.take(), ts, cols, &bound);
            if part.len == 0 {
                return Ok(Relation::empty(schema));
            }
            let p = parts.len();
            for (k, &c) in part.classes.iter().enumerate() {
                bound[c] = Some((p, k));
            }
            open = Some(part);
        }
        parts.extend(open);

        // Products between components, projected to the scheme order.
        let out: Vec<(usize, usize)> = scheme
            .iter()
            .map(|&(_, _, v)| bound[class_of[v]].expect("every class is bound"))
            .collect();
        let arity = out.len();
        if arity == 0 {
            return Ok(Relation::from_parts(schema, nullary_set(true)));
        }
        let total: usize = parts.iter().map(|p| p.len).product();
        let mut rows = Vec::with_capacity(total * arity);
        let mut idx = vec![0usize; parts.len()];
        for _ in 0..total {
            rows.extend(out.iter().map(|&(p, k)| parts[p].get(idx[p])[k]));
            for (p, i) in idx.iter_mut().enumerate().rev() {
                *i += 1;
                if *i < parts[p].len {
                    break;
                }
                *i = 0;
            }
        }
        Ok(Relation::from_parts(
            schema,
            TupleSet::from_rows(arity, rows),
        ))
    }
}

/// One joined component: a row per match, one column per equality
/// class it binds.
struct Part {
    classes: Vec<usize>,
    /// Row-major, `classes.len()` wide.
    rows: Vec<Oid>,
    len: usize,
}

impl Part {
    fn get(&self, i: usize) -> &[Oid] {
        let w = self.classes.len();
        &self.rows[i * w..(i + 1) * w]
    }
}

/// Join a leaf with column classes `cols` into `part` (or seed a part
/// from it): the part's columns followed by one column per class the
/// leaf binds first. Leaf columns whose class the part already binds are
/// the probe key; a class repeated within the leaf is checked per tuple.
fn extend(
    part: Option<Part>,
    ts: &TupleSet,
    cols: &[usize],
    bound: &[Option<(usize, usize)>],
) -> Part {
    let (mut key_pos, mut key_at, mut checks, mut fresh) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (k, &c) in cols.iter().enumerate() {
        if let Some((_, at)) = bound[c] {
            key_pos.push(k);
            key_at.push(at);
        } else if let Some(first) = cols[..k].iter().position(|&d| d == c) {
            checks.push((k, first));
        } else {
            fresh.push(k);
        }
    }
    let mut rows = Vec::new();
    let mut len = 0;
    let mut push = |row: &[Oid], t: &[Oid]| {
        if checks.iter().all(|&(k, first)| t[k] == t[first]) {
            rows.extend_from_slice(row);
            rows.extend(fresh.iter().map(|&k| t[k]));
            len += 1;
        }
    };
    let mut classes = match &part {
        None => {
            ts.iter().for_each(|t| push(&[], t));
            Vec::new()
        }
        Some(p) => {
            probe_join(
                ts,
                &key_pos,
                p.len,
                |i, key| key.extend(key_at.iter().map(|&at| p.get(i)[at])),
                |i, t| push(p.get(i), t),
            );
            p.classes.clone()
        }
    };
    classes.extend(fresh.iter().map(|&k| cols[k]));
    Part { classes, rows, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::Receiver;

    #[test]
    fn evaluates_add_bar_expression() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let bindings = Bindings::for_receiver(&t);
        // π_frequents(self ⋈[self=Drinker] Dfrequents) ∪ arg1
        let e = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .project(["frequents"])
            .union(Expr::arg(1));
        let out = eval(&e, &db, &bindings).unwrap();
        let bars: Vec<_> = out.column("frequents").unwrap();
        assert_eq!(bars, vec![o.bar1, o.bar2, o.bar3]);
    }

    #[test]
    fn evaluates_favorite_bar_expression() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let bindings = Bindings::for_receiver(&t);
        let e = Expr::arg(1);
        let out = eval(&e, &db, &bindings).unwrap();
        assert_eq!(out.column("arg1").unwrap(), vec![o.bar1]);
    }

    #[test]
    fn evaluates_delete_bar_expression() {
        // delete_bar (Example 5.11):
        //   f := π_f(self ⋈[self=D] Df ⋈[f≠arg1] arg1)
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let bindings = Bindings::for_receiver(&t);
        let e = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .join_ne(Expr::arg(1), "frequents", "arg1")
            .project(["frequents"]);
        let out = eval(&e, &db, &bindings).unwrap();
        assert_eq!(out.column("frequents").unwrap(), vec![o.bar2]);
    }

    #[test]
    fn rec_binding_holds_whole_receiver_set() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let t = ReceiverSet::from_iter([
            Receiver::new(vec![o.d1, o.bar1]),
            Receiver::new(vec![o.d1, o.bar3]),
        ]);
        let bindings = Bindings::for_receiver_set(&sig, &t).unwrap();
        let db = Database::from_instance(&i);
        let out = eval(&Expr::rec(), &db, &bindings).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().arity(), 2);
    }

    /// The join planner: equality selections over products/joins are
    /// executed as hash joins; the result must equal the naive
    /// product-then-filter evaluation in every placement case.
    #[test]
    fn join_planner_matches_naive_semantics() {
        let s = beer_schema();
        let (i, _o) = figure2(&s);
        let db = Database::from_instance(&i);
        let b = Bindings::new();

        // Cross-side equality: σ[Drinker=D2](frequents × ρ(frequents)).
        let copy = Expr::prop(s.frequents)
            .rename("Drinker", "D2")
            .rename("frequents", "f2");
        let planned = Expr::prop(s.frequents)
            .product(copy.clone())
            .select_eq("Drinker", "D2");
        let planned_result = eval(&planned, &db, &b).unwrap();
        // Naive: evaluate the product and filter manually.
        let naive = eval(&Expr::prop(s.frequents).product(copy), &db, &b)
            .unwrap()
            .select_eq("Drinker", "D2")
            .unwrap();
        assert_eq!(planned_result, naive);
        assert_eq!(planned_result.len(), 4); // 2 edges × 2 (same drinker)

        // Intra-side equality pushed to one operand: σ[f=f3](… × Bar).
        let bar_side = Expr::class(s.bar).rename("Bar", "B3");
        let expr = Expr::prop(s.frequents)
            .rename("frequents", "f")
            .product(
                Expr::prop(s.frequents)
                    .rename("Drinker", "D2")
                    .rename("frequents", "f3"),
            )
            .product(bar_side)
            .select_eq("f", "f3");
        let planned_result = eval(&expr, &db, &b).unwrap();
        assert_eq!(planned_result.len(), 2 * 3); // matched pairs × 3 bars

        // Stacked selections over a natural join with a shared attribute.
        let left = Expr::prop(s.frequents).rename("frequents", "f");
        let right = Expr::prop(s.frequents).rename("frequents", "g");
        let expr = left.nat_join(right).select_eq("f", "g");
        let joined = eval(&expr, &db, &b).unwrap();
        assert_eq!(joined.len(), 2); // diagonal of the 2-edge join
    }

    #[test]
    fn missing_binding_errors() {
        let s = beer_schema();
        let (i, _) = figure2(&s);
        let db = Database::from_instance(&i);
        assert!(matches!(
            eval(&Expr::self_rel(), &db, &Bindings::new()),
            Err(RelAlgError::UnknownParam(_))
        ));
    }
}
