//! Seeded property suite for the multiway join planner behind
//! [`receivers_relalg::eval`].
//!
//! Each trial draws a database — the Figure 2 instance or a random
//! instance of the beer schema — plus receiver bindings, then random
//! chains of products, natural joins, renamings, equality selections and
//! equality theta joins over its relations and parameters (sometimes
//! nested under a projection, union or non-equality selection, sometimes
//! repeating a leaf, sometimes ill-typed). The planner's result must be
//! **bit-identical** to the naive evaluator below, which materialises
//! every product before filtering it: same tuples, same scheme order,
//! and the same error (`ProductAttrClash`, `DomainMismatch`,
//! `UnknownAttr`, …) when the chain is ill-typed.
//!
//! Replay one trial with `RECEIVERS_DIFF_SEED=<seed> cargo test -p
//! receivers-relalg --test join_planner`; `RECEIVERS_DIFF_TRIALS=<n>`
//! resizes the sweep.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers_objectbase::examples::{beer_schema, figure2, BeerSchema};
use receivers_objectbase::gen::{random_instance, random_receivers, InstanceParams};
use receivers_objectbase::{Instance, Receiver, ReceiverSet, Signature};
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval, Bindings};
use receivers_relalg::{Attr, Expr, RelAlgError, Relation, Result};

/// Default number of trials per run; override with
/// `RECEIVERS_DIFF_TRIALS`.
const DEFAULT_TRIALS: u64 = 400;

/// Chains drawn per trial.
const CHAINS_PER_TRIAL: usize = 24;

/// Base offset of this suite's sweep seeds.
const SWEEP_BASE: u64 = 0x701A_0000;

/// The reference semantics: every operator structurally, products
/// materialised before any selection, natural joins as rename → product
/// → select → project.
fn naive(e: &Expr, db: &Database, b: &Bindings) -> Result<Relation> {
    Ok(match e {
        Expr::Base(r) => db.relation(*r)?.clone(),
        Expr::Param(p) => b
            .get(p)
            .cloned()
            .ok_or_else(|| RelAlgError::UnknownParam(p.clone()))?,
        Expr::Union(l, r) => naive(l, db, b)?.union(&naive(r, db, b)?)?,
        Expr::Diff(l, r) => naive(l, db, b)?.difference(&naive(r, db, b)?)?,
        Expr::Product(l, r) => naive(l, db, b)?.product(&naive(r, db, b)?)?,
        Expr::SelectEq(e, x, y) => naive(e, db, b)?.select_eq(x, y)?,
        Expr::SelectNe(e, x, y) => naive(e, db, b)?.select_ne(x, y)?,
        Expr::Project(e, attrs) => naive(e, db, b)?.project(attrs)?,
        Expr::Rename(e, from, to) => naive(e, db, b)?.rename(from, to)?,
        Expr::NatJoin(l, r) => {
            let (l, mut r) = (naive(l, db, b)?, naive(r, db, b)?);
            let common = l.schema().common_attrs(r.schema())?;
            let hidden = |a: &str| format!("{a}#");
            for a in &common {
                r = r.rename(a, &hidden(a))?;
            }
            let mut joined = l.product(&r)?;
            for a in &common {
                joined = joined.select_eq(a, &hidden(a))?;
            }
            let keep: Vec<Attr> = joined
                .schema()
                .attrs()
                .filter(|a| !a.ends_with('#'))
                .cloned()
                .collect();
            joined.project(&keep)?
        }
        Expr::ThetaJoin {
            left,
            right,
            on_left,
            on_right,
            eq,
        } => {
            let product = naive(left, db, b)?.product(&naive(right, db, b)?)?;
            if *eq {
                product.select_eq(on_left, on_right)?
            } else {
                product.select_ne(on_left, on_right)?
            }
        }
    })
}

/// Random chain generator. Attribute choices are read off the naive
/// result's scheme when the sub-chain is well-typed, so most chains
/// type-check; a fraction deliberately clash or compare across domains.
struct Gen<'a> {
    rng: StdRng,
    s: &'a BeerSchema,
    db: &'a Database,
    b: &'a Bindings,
    fresh: u32,
    leaves: usize,
}

impl Gen<'_> {
    fn scheme(&self, e: &Expr) -> Vec<Attr> {
        naive(e, self.db, self.b)
            .map(|r| r.schema().attrs().cloned().collect())
            .unwrap_or_default()
    }

    fn fresh(&mut self) -> String {
        self.fresh += 1;
        format!("x{}", self.fresh)
    }

    fn pick_attr(&mut self, attrs: &[Attr]) -> Attr {
        if attrs.is_empty() || self.rng.random_bool(0.04) {
            return ["self", "Drinker", "Bar", "nope"][self.rng.random_range(0..4usize)].to_owned();
        }
        attrs[self.rng.random_range(0..attrs.len())].clone()
    }

    fn shuffle(&mut self, attrs: &mut [Attr]) {
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, self.rng.random_range(0..=i));
        }
    }

    fn leaf(&mut self) -> Expr {
        self.leaves += 1;
        let s = self.s;
        match self.rng.random_range(0..10u32) {
            0 => Expr::class(s.drinker),
            1 => Expr::class(s.bar),
            2 => Expr::prop(s.frequents),
            3 => Expr::prop(s.serves),
            4 => Expr::prop(s.likes),
            5 => Expr::self_rel(),
            6 => Expr::arg(1),
            7 => Expr::rec().project(["self"]),
            8 => Expr::rec(),
            _ => Expr::class(s.beer),
        }
    }

    /// Rename most attributes of `e` apart (a product operand).
    fn apart(&mut self, mut e: Expr) -> Expr {
        for a in self.scheme(&e) {
            if self.rng.random_bool(0.9) {
                let to = self.fresh();
                e = e.rename(a, to);
            }
        }
        e
    }

    fn chain(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.leaves >= 4 || self.rng.random_bool(0.2) {
            return self.leaf();
        }
        match self.rng.random_range(0..10u32) {
            0 => {
                let l = self.chain(depth - 1);
                let r = self.chain(depth - 1);
                let r = self.apart(r);
                l.product(r)
            }
            1 | 2 => {
                let l = self.chain(depth - 1);
                let r = self.chain(depth - 1);
                l.nat_join(r)
            }
            3 => {
                let e = self.chain(depth - 1);
                let attrs = self.scheme(&e);
                let from = self.pick_attr(&attrs);
                let to = if self.rng.random_bool(0.1) {
                    self.pick_attr(&attrs)
                } else {
                    self.fresh()
                };
                e.rename(from, to)
            }
            4 | 5 => {
                let e = self.chain(depth - 1);
                let attrs = self.scheme(&e);
                let (a, b) = (self.pick_attr(&attrs), self.pick_attr(&attrs));
                e.select_eq(a, b)
            }
            6 => {
                let l = self.chain(depth - 1);
                let r = self.chain(depth - 1);
                let r = self.apart(r);
                let (la, ra) = (self.scheme(&l), self.scheme(&r));
                let (a, b) = (self.pick_attr(&la), self.pick_attr(&ra));
                l.join_eq(r, a, b)
            }
            7 => {
                // A repeated operand: the planner must collapse or join
                // it exactly as the product-then-filter semantics says.
                let e = self.chain(depth - 1);
                e.clone().nat_join(e)
            }
            8 => {
                // Two column orders of one wide chain, joined on every
                // column but one renamed column of the second copy: a
                // multi-column key at non-leading or gapped positions.
                let e = self.chain(depth - 1);
                let mut a = self.scheme(&e);
                if a.len() < 3 {
                    return e;
                }
                let mut b = a.clone();
                self.shuffle(&mut a);
                self.shuffle(&mut b);
                let apart = b[self.rng.random_range(0..b.len())].clone();
                let to = self.fresh();
                e.clone()
                    .project(a)
                    .nat_join(e.project(b).rename(apart, to))
            }
            _ => {
                // A non-chain operator nesting a chain inside a leaf.
                let e = self.chain(depth - 1);
                let attrs = self.scheme(&e);
                match self.rng.random_range(0..3u32) {
                    0 if !attrs.is_empty() => {
                        let keep = self.rng.random_range(1..=attrs.len());
                        e.project(attrs[..keep].to_vec())
                    }
                    1 => e.clone().union(e),
                    _ => {
                        let (a, b) = (self.pick_attr(&attrs), self.pick_attr(&attrs));
                        e.select_ne(a, b)
                    }
                }
            }
        }
    }
}

/// The instance of trial `seed`: Figure 2 on every fourth seed, a small
/// random beer-schema instance otherwise.
fn trial_instance(s: &BeerSchema, seed: u64) -> Instance {
    if seed.is_multiple_of(4) {
        figure2(s).0
    } else {
        random_instance(
            &s.schema,
            InstanceParams {
                objects_per_class: 3,
                edge_density: 0.45,
            },
            seed,
        )
    }
}

#[derive(Default)]
struct Tally {
    ok_nonempty: u64,
    clash: u64,
    domain: u64,
    other_err: u64,
}

fn run_trial(seed: u64, tally: &mut Tally) {
    let s = beer_schema();
    let instance = trial_instance(&s, seed);
    let db = Database::from_instance(&instance);
    let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
    let mut receivers = random_receivers(&instance, &sig, 3, false, seed ^ 0x5EED);
    if receivers.is_empty() {
        let d = instance.class_members(s.drinker).next().unwrap();
        let bar = instance.class_members(s.bar).next().unwrap();
        receivers = ReceiverSet::from_iter([Receiver::new(vec![d, bar])]);
    }
    let first = receivers.iter().next().unwrap().clone();
    let bindings = Bindings::for_receiver(&first)
        .merged(Bindings::for_receiver_set(&sig, &receivers).unwrap());
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        s: &s,
        db: &db,
        b: &bindings,
        fresh: 0,
        leaves: 0,
    };
    for k in 0..CHAINS_PER_TRIAL {
        gen.leaves = 0;
        let e = gen.chain(4);
        let planned = eval(&e, &db, &bindings);
        let reference = naive(&e, &db, &bindings);
        assert_eq!(
            planned, reference,
            "seed {seed}, chain {k}: planner disagrees with the naive evaluator on {e}"
        );
        if let Ok(rel) = &planned {
            let got: Vec<&[_]> = rel.tuples().collect();
            let want: Vec<&[_]> = reference.as_ref().unwrap().tuples().collect();
            assert_eq!(got, want, "seed {seed}, chain {k}: tuple order of {e}");
        }
        match planned {
            Ok(r) if !r.is_empty() => tally.ok_nonempty += 1,
            Ok(_) => {}
            Err(RelAlgError::ProductAttrClash(_)) => tally.clash += 1,
            Err(RelAlgError::DomainMismatch { .. }) => tally.domain += 1,
            Err(_) => tally.other_err += 1,
        }
    }
}

#[test]
fn planner_matches_naive_product_then_filter() {
    let mut tally = Tally::default();
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_trial(seed, &mut tally);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_TRIALS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_TRIALS);
    for k in 0..n {
        run_trial(SWEEP_BASE + k, &mut tally);
    }
    if n >= DEFAULT_TRIALS {
        // The sweep must exercise both outcomes, not just one.
        assert!(tally.ok_nonempty > 1000, "too few non-empty results");
        assert!(tally.clash > 10, "too few ProductAttrClash errors");
        assert!(tally.domain > 10, "too few DomainMismatch errors");
        assert!(tally.other_err > 10, "too few other errors");
    }
}
