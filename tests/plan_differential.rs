//! Seeded differential suite for the program-level expression-DAG
//! planner (`sql::plan`).
//!
//! Each trial draws one random update program (1–5 statements over the
//! Section 7 employee catalog: guarded/unguarded set deletes, set
//! updates, cursor updates in the improvable (B) and order-dependent (C)
//! shapes, cursor deletes) plus a random bounded instance, then checks
//! that the compiled-program pipeline is **bit-identical** to the legacy
//! per-statement path (each statement compiled and applied one at a time
//! through `sql::compile`):
//!
//! * [`ProgramPlan::execute_viewed`];
//! * [`ProgramPlan::execute_durable`] over a [`FaultStorage`]-backed
//!   [`DurableStore`], and the recovery ([`DurableStore::open`]) of the
//!   logged run;
//! * a [`ShardSession`] at the default and 1/2/3 shards, and one
//!   session across two waves against the legacy path applied twice.
//!
//! One table-driven arm runs every driver plain and profiled (EXPLAIN
//! ANALYZE is a pure observer) and makes every assertion on each: same
//! instance, same hash, a consistent adjacency index, the maintained
//! [`DatabaseView`] matching a from-scratch rebuild, and per profiled run
//! one tree child per stage with rows and WAL records accounted for.
//!
//! The planner passes are exercised *as optimizations must be*: netted
//! stages are skipped, shared selectors are hash-consed and reused,
//! improvable cursor updates run as one vectorized `par(E)` stage, and
//! set updates evaluate their value subquery as one `par(E)` query (or on
//! the per-row interpreter when it has `<>`/`not in`) — all without an
//! observable difference from the one-at-a-time semantics. A dedicated
//! test drives each set-update subquery shape (uncorrelated, correlated,
//! the two-table correlated (C), and the interpreter fallbacks), unguarded
//! and guarded, through every driver on a sweep of instances.
//! The sweep closes with counter-backed non-vacuity asserts (every pass
//! must actually have fired), and two deterministic property tests pin
//! the CSE and netting contracts directly.
//!
//! Every assertion message carries the failing seed; to replay one, add
//! it to `tests/seeds/plan_differential.seeds` (replayed before the
//! random sweep) or run
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test plan_differential`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::sequential::apply_seq_unchecked;
use receivers::core::shard::ShardConfig;
use receivers::objectbase::examples::EmployeeSchema;
use receivers::objectbase::{Instance, Oid};
use receivers::obs;
use receivers::relalg::view::DatabaseView;
use receivers::sql::catalog::employee_catalog;
use receivers::sql::scenarios::{section7_instance, UPDATE_A};
use receivers::sql::{
    compile, compile_program, parse, Catalog, CompiledStatement, ProgramPlan, SqlStatement,
    StageKind,
};
use receivers::wal::{DurableStore, FaultStorage, WalConfig};

/// Default number of random programs per run; override with
/// `RECEIVERS_DIFF_PROGRAMS`. The `#[ignore]`d long-run variant uses 5000.
const DEFAULT_PROGRAMS: u64 = 500;

/// Base offset separating this sweep's seed space from the other
/// differential suites (`view_differential` 0x51EE_D000,
/// `shard_differential` 0x5AA2_D000, `sat_properties` 0x54A7_0000,
/// `wal_recovery` 0xC4A5_4D00).
const SWEEP_BASE: u64 = 0x91A7_0000;

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Panic-time diagnostics: dropped while unwinding out of a failed trial,
/// prints the one-line replay recipe and the metrics accumulated up to
/// the failure.
struct ReplayBanner {
    seed: u64,
    /// The trial's statement texts, filled in once the program is drawn,
    /// so a divergence banner shows the exact failing program.
    program: Vec<String>,
}

impl Drop for ReplayBanner {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "\n=== plan_differential trial failed: replay with ===\n\
                 ===   RECEIVERS_DIFF_SEED={} cargo test --test plan_differential ===",
                self.seed
            );
            for (k, text) in self.program.iter().enumerate() {
                eprintln!("===   statement {k}: {text}");
            }
            eprint!(
                "{}",
                obs::export::render_summary(&obs::metrics_snapshot(), &[])
            );
        }
    }
}

/// Guard pool. Deliberately small so identical guards recur within one
/// program and the selector CSE / netting passes fire during the sweep;
/// every atom evaluates cleanly on any instance over the employee schema.
const GUARDS: &[&str] = &[
    "Salary in table Fire",
    "Salary not in table Fire",
    "Manager = EmpId",
    "exists (select * from NewSal where Old = Salary)",
];

/// Set-update value subqueries, one per shape: uncorrelated,
/// correlated and the two-table correlated (C), all compiled to one
/// `par(E)` query; then two with a negative atom (`not in`, `<>`) and one
/// comparing across domains, which stay on the per-row interpreter.
/// `(column, subquery, compiles to par(E))`.
const SET_SUBQUERIES: &[(&str, &str, bool)] = &[
    (
        "Manager",
        "select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId",
        true,
    ),
    ("Salary", "select New from NewSal where Old = Salary", true),
    (
        "Salary",
        "select New from Employee E1, NewSal where E1.EmpId = Manager and Old = E1.Salary",
        true,
    ),
    (
        "Salary",
        "select New from NewSal where Old = Salary and Old not in table Fire",
        false,
    ),
    (
        "Manager",
        "select E1.EmpId from Employee E1 where E1.Manager <> E1.EmpId",
        false,
    ),
    ("Salary", "select New from NewSal where Old = EmpId", false),
];

/// One random statement. The pool spans every [`StageKind`]: set deletes,
/// guarded and unguarded set updates on both properties, the improvable
/// cursor update (B), the order-dependent cursor update (C) — whose
/// cursor-order semantics is still deterministic, hence differentially
/// testable — and guarded cursor deletes.
fn random_statement(rng: &mut StdRng) -> String {
    let guard = GUARDS[rng.random_range(0..GUARDS.len())];
    let guarded = rng.random_bool(0.5);
    let suffix = if guarded {
        format!(" where {guard}")
    } else {
        String::new()
    };
    match rng.random_range(0..7u32) {
        0 => format!("delete from Employee where {guard}"),
        1 => format!(
            "update Employee set Salary = (select New from NewSal where Old = Salary){suffix}"
        ),
        2 => format!("update Employee set Salary = (select Amount from Fire){suffix}"),
        3 => format!(
            "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId){suffix}"
        ),
        4 if guarded => format!(
            "for each t in Employee do if {guard} update t set Salary = \
             (select New from NewSal where Old = Salary)"
        ),
        4 => "for each t in Employee do update t set Salary = \
              (select New from NewSal where Old = Salary)"
            .to_owned(),
        5 => "for each t in Employee do update t set Salary = \
              (select New from Employee E1, NewSal where E1.EmpId = Manager and Old = E1.Salary)"
            .to_owned(),
        _ => format!("for each t in Employee do if {guard} delete t from Employee"),
    }
}

fn random_program(rng: &mut StdRng) -> (Vec<String>, Vec<SqlStatement>) {
    let n = rng.random_range(1..=5u32);
    let texts: Vec<String> = (0..n).map(|_| random_statement(rng)).collect();
    let stmts = texts
        .iter()
        .map(|text| {
            parse(text).unwrap_or_else(|e| panic!("pool statement must parse: {text}: {e}"))
        })
        .collect();
    (texts, stmts)
}

/// A random bounded instance over the employee schema: every edge of
/// every property drawn independently, so guards hit populated and empty
/// shapes alike.
fn random_instance(es: &EmployeeSchema, rng: &mut StdRng) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let employees: Vec<Oid> = (0..rng.random_range(2..=4u32))
        .map(|k| Oid::new(es.employee, k))
        .collect();
    let amounts: Vec<Oid> = (0..rng.random_range(2..=3u32))
        .map(|k| Oid::new(es.amount, k))
        .collect();
    let fires: Vec<Oid> = (0..rng.random_range(1..=2u32))
        .map(|k| Oid::new(es.fire, k))
        .collect();
    let newsals: Vec<Oid> = (0..rng.random_range(1..=2u32))
        .map(|k| Oid::new(es.newsal, k))
        .collect();
    for &o in employees
        .iter()
        .chain(&amounts)
        .chain(&fires)
        .chain(&newsals)
    {
        i.add_object(o);
    }
    for &e in &employees {
        for &a in &amounts {
            if rng.random_bool(0.4) {
                i.link(e, es.salary, a).expect("typed edge");
            }
        }
        for &m in &employees {
            if rng.random_bool(0.3) {
                i.link(e, es.manager, m).expect("typed edge");
            }
        }
    }
    for &f in &fires {
        for &a in &amounts {
            if rng.random_bool(0.5) {
                i.link(f, es.fire_amount, a).expect("typed edge");
            }
        }
    }
    for &n in &newsals {
        for &a in &amounts {
            if rng.random_bool(0.5) {
                i.link(n, es.old, a).expect("typed edge");
            }
            if rng.random_bool(0.5) {
                i.link(n, es.new, a).expect("typed edge");
            }
        }
    }
    i
}

/// The legacy per-statement oracle: each statement compiled on its own
/// through `sql::compile` and applied functionally — set-oriented forms
/// via their two-phase `apply`, cursor forms via the interpreted method
/// run receiver-by-receiver in canonical order. This is the execution
/// path the planner replaced, and the semantics it must preserve.
fn legacy_apply(stmts: &[SqlStatement], catalog: &Catalog, i0: &Instance, seed: u64) -> Instance {
    let mut i = i0.clone();
    for stmt in stmts {
        let compiled = compile(stmt, catalog)
            .unwrap_or_else(|e| panic!("pool statement must compile (seed {seed}): {e}"));
        i = match &compiled {
            CompiledStatement::SetDelete(sd) => sd
                .apply(&i)
                .unwrap_or_else(|e| panic!("set delete oracle errored (seed {seed}): {e}")),
            CompiledStatement::SetUpdate(su) => su
                .apply(&i)
                .unwrap_or_else(|e| panic!("set update oracle errored (seed {seed}): {e}")),
            CompiledStatement::CursorDelete(cd) => {
                let m = cd.method();
                let t = cd.receivers(&i);
                apply_seq_unchecked(&m, &i, &t).expect_done("cursor delete oracle")
            }
            CompiledStatement::CursorUpdate(cu) => {
                let m = cu.interpreted_method();
                let t = cu.receivers(&i);
                apply_seq_unchecked(&m, &i, &t).expect_done("cursor update oracle")
            }
        };
    }
    i
}

/// Assert `got` reproduced `want` bit for bit (instance + hash + index).
fn assert_identical(got: &Instance, want: &Instance, seed: u64, label: &str) {
    assert_eq!(got, want, "instance diverged (seed {seed}, {label})");
    assert_eq!(
        hash_of(got),
        hash_of(want),
        "instance hash diverged (seed {seed}, {label})"
    );
    got.check_index_consistent();
}

/// One full differential trial for `seed`.
fn run_program(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57_91A7_0DA6_5EED);
    let (es, _) = employee_catalog();
    let (texts, stmts) = random_program(&mut rng);
    let i0 = random_instance(&es, &mut rng);
    check_program(seed, texts, &stmts, &i0);
}

/// One row of the driver table: a way to run a compiled program.
#[derive(Clone, Copy, Debug)]
enum Driver {
    /// `execute_viewed` over a fresh maintained view.
    Viewed,
    /// `execute_durable` over a [`FaultStorage`]-backed store, then
    /// recovery of the logged run.
    Durable,
    /// One `shard_session` (`shards: None` follows the worker pool),
    /// executed `waves` times.
    Session { shards: Option<usize>, waves: usize },
}

/// Every driver row; each runs plain and profiled.
const DRIVERS: &[Driver] = &[
    Driver::Viewed,
    Driver::Durable,
    Driver::Session {
        shards: None,
        waves: 1,
    },
    Driver::Session {
        shards: Some(1),
        waves: 1,
    },
    Driver::Session {
        shards: Some(2),
        waves: 1,
    },
    Driver::Session {
        shards: Some(3),
        waves: 1,
    },
    Driver::Session {
        shards: None,
        waves: 2,
    },
];

/// Run `stmts` on `i0` through every compiled-plan driver, plain and
/// profiled, and compare each result bit for bit with the per-statement
/// oracle (applied once per wave).
fn check_program(seed: u64, texts: Vec<String>, stmts: &[SqlStatement], i0: &Instance) {
    let _banner = ReplayBanner {
        seed,
        program: texts,
    };
    let (es, catalog) = employee_catalog();

    let plan = compile_program(stmts, &catalog)
        .unwrap_or_else(|e| panic!("pool program must compile (seed {seed}): {e}"));
    let oracle = legacy_apply(stmts, &catalog, i0, seed);
    let oracle2 = legacy_apply(stmts, &catalog, &oracle, seed);
    for &driver in DRIVERS {
        for profiled in [false, true] {
            let want = match driver {
                Driver::Session { waves: 2, .. } => &oracle2,
                _ => &oracle,
            };
            check_driver(seed, &plan, &es, i0, driver, profiled, want);
        }
    }
}

/// One row of the table: run the driver, then make every assertion —
/// each wave applies; profiled trees hold one child per stage and their
/// rows reconcile with the vectorized-rows counter (`>=`: counters are
/// process-global), and durable trees' WAL children account for every
/// record; the result is bit-identical to `want`; the maintained view
/// matches a rebuild; a durable run recovers to `want` as well.
fn check_driver(
    seed: u64,
    plan: &ProgramPlan,
    es: &EmployeeSchema,
    i0: &Instance,
    driver: Driver,
    profiled: bool,
    want: &Instance,
) {
    let label = format!("{driver:?}{}", if profiled { ", profiled" } else { "" });
    let mut got = i0.clone();
    let mut store = DurableStore::create(
        FaultStorage::new(),
        Arc::clone(&es.schema),
        WalConfig::default(),
        i0,
    )
    .unwrap_or_else(|e| panic!("store creation failed (seed {seed}): {e}"));
    let mut view = DatabaseView::new(&got);
    let mut session = match driver {
        Driver::Session { shards, .. } => Some(plan.shard_session(ShardConfig { shards })),
        _ => None,
    };
    let waves = match driver {
        Driver::Session { waves, .. } => waves,
        _ => 1,
    };
    for wave in 0..waves {
        let before = obs::metrics_snapshot();
        let run = match (driver, &mut session, profiled) {
            (Driver::Viewed, _, false) => {
                plan.execute_viewed(&mut got, &mut view).map(|o| (o, None))
            }
            (Driver::Viewed, _, true) => plan
                .execute_viewed_profiled(&mut got, &mut view)
                .map(|(o, t)| (o, Some(t))),
            (Driver::Durable, _, false) => plan
                .execute_durable(&mut got, &mut view, &mut store)
                .map(|o| (o, None)),
            (Driver::Durable, _, true) => plan
                .execute_durable_profiled(&mut got, &mut view, &mut store)
                .map(|(o, t)| (o, Some(t))),
            (Driver::Session { .. }, Some(s), false) => s.execute(&mut got).map(|o| (o, None)),
            (Driver::Session { .. }, Some(s), true) => {
                s.execute_profiled(&mut got).map(|(o, t)| (o, Some(t)))
            }
            (Driver::Session { .. }, None, _) => unreachable!("session rows hold a session"),
        };
        let (out, tree) =
            run.unwrap_or_else(|e| panic!("{label} wave {wave} errored (seed {seed}): {e}"));
        assert!(
            out.is_applied(),
            "{label} wave {wave} must apply (seed {seed})"
        );
        let Some(tree) = tree else { continue };
        assert_eq!(
            tree.children.len(),
            plan.stages().len(),
            "one profile child per stage (seed {seed}, {label})"
        );
        let vectorized: u64 = plan
            .stages()
            .iter()
            .zip(&tree.children)
            .filter(|(s, _)| {
                !s.netted() && matches!(s.kind(), StageKind::SetDelete | StageKind::SetUpdate)
            })
            .map(|(_, c)| c.rows_in)
            .sum();
        let after = obs::metrics_snapshot();
        let delta = after.counter("sql.plan.vectorized_rows").unwrap_or(0)
            - before.counter("sql.plan.vectorized_rows").unwrap_or(0);
        assert!(
            delta >= vectorized,
            "profile rows must reconcile with the vectorized-rows counter \
             (seed {seed}, {label}: counter delta {delta} < profiled {vectorized})"
        );
        if let Driver::Durable = driver {
            let wal_records: u64 = tree
                .children
                .iter()
                .filter_map(|c| c.find("wal").and_then(|w| w.metric("records")))
                .sum();
            assert_eq!(
                wal_records,
                store.stats().records,
                "per-stage WAL children must account for every record (seed {seed})"
            );
        }
    }
    assert_identical(&got, want, seed, &label);
    let view = session.as_ref().map_or(Some(&view), |s| s.view());
    assert!(
        view.is_some_and(|v| v.matches_rebuild(&got)),
        "maintained view diverged from rebuild (seed {seed}, {label})"
    );
    if let Driver::Durable = driver {
        let (_store, recovered, rview, _report) = DurableStore::open(
            store.into_storage().reopen(),
            Arc::clone(&es.schema),
            WalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("recovery failed (seed {seed}, {label}): {e}"));
        assert_identical(&recovered, want, seed, &format!("{label}, recovery"));
        assert!(
            rview.matches_rebuild(&recovered),
            "recovered view diverged from rebuild (seed {seed}, {label})"
        );
    }
}

/// Seeds from the committed replay corpus: `tests/seeds/*.seeds`, one
/// decimal or `0x`-hex seed per line, `#` comments ignored.
fn corpus_seeds() -> Vec<u64> {
    let raw = include_str!("seeds/plan_differential.seeds");
    raw.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| l.parse())
                .unwrap_or_else(|e| panic!("bad seed line {l:?} in replay corpus: {e}"))
        })
        .collect()
}

fn sweep(programs: u64) {
    // Metrics on for the whole sweep: a failing trial's banner carries a
    // meaningful summary, and the closing invariants below are
    // counter-backed.
    obs::set_enabled(obs::trace_enabled(), true);
    for seed in corpus_seeds() {
        run_program(seed);
    }
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_program(seed);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_PROGRAMS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(programs);
    for k in 0..n {
        run_program(SWEEP_BASE + k);
    }

    // The sweep is vacuous unless every planner pass actually fired:
    // selectors hash-consed and reused across stages, stores netted and
    // skipped, cursor updates improved into vectorized stages.
    let snap = obs::metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(counter("sql.plan.programs_compiled") > 0);
    assert!(counter("sql.plan.stages_compiled") > 0);
    assert!(counter("sql.plan.executions") > 0);
    assert!(
        counter("sql.plan.cse_shared") > 0,
        "the sweep must hash-cons shared selectors"
    );
    assert!(
        counter("sql.plan.selector_reuses") > 0,
        "the sweep must reuse a cached shared selector"
    );
    assert!(
        counter("sql.plan.netted") > 0,
        "the sweep must net dead stores"
    );
    assert!(
        counter("sql.plan.stages_skipped") > 0,
        "the sweep must skip netted stages"
    );
    assert!(
        counter("sql.plan.improved") > 0,
        "the sweep must improve cursor updates into par(E) stages"
    );
    assert!(
        counter("sql.plan.vectorized_rows") > 0,
        "the sweep must run vectorized batches"
    );
}

/// The tier-1 differential sweep: the replay corpus plus 500 random
/// programs, each executed through every compiled-plan driver and
/// compared bit-for-bit with the legacy per-statement path.
#[test]
fn compiled_programs_match_per_statement_execution() {
    sweep(DEFAULT_PROGRAMS);
}

/// Scheduled long run: 5000 programs. `cargo test --test plan_differential
/// -- --ignored` (CI runs this on a schedule, not per push).
#[test]
#[ignore = "long run; exercised by the scheduled CI job"]
fn compiled_programs_match_per_statement_execution_long_run() {
    sweep(5000);
}

/// CSE property: two stages guarded by the identical condition share one
/// selector node, the executor evaluates it once and reuses the cached
/// rows for the second stage (the first stage writes a property the
/// guard never reads, so the cache survives), and the shared pipeline is
/// observationally equal to the one-at-a-time path.
#[test]
fn shared_selector_is_reused_not_reevaluated() {
    const FIRST: &str = "update Employee set Manager = \
         (select E1.Manager from Employee E1 where E1.EmpId = EmpId) \
         where Salary in table Fire";
    const SECOND: &str = "update Employee set Salary = \
         (select New from NewSal where Old = Salary) \
         where Salary in table Fire";
    obs::set_enabled(obs::trace_enabled(), true);
    let (es, catalog) = employee_catalog();
    let stmts = [parse(FIRST).unwrap(), parse(SECOND).unwrap()];
    let plan = compile_program(&stmts, &catalog).unwrap();
    assert!(plan.stages()[1].shared_selector());
    assert_eq!(plan.stages()[0].rows_node(), plan.stages()[1].rows_node());

    let (i0, _) = section7_instance(&es);
    let before = obs::metrics_snapshot();
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
    let after = obs::metrics_snapshot();
    // `>=`, not `==`: the other tests in this binary run concurrently and
    // share the global counters, so only monotone claims are race-free.
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(
        delta("sql.plan.selector_reuses") >= 1,
        "the second stage must reuse the cached shared selector"
    );

    assert_eq!(i, legacy_apply(&stmts, &catalog, &i0, 0));
    assert!(view.matches_rebuild(&i));
}

/// Netting property: a later unguarded store to the same column makes the
/// earlier store dead; the planner marks it netted, the executor skips
/// it, and the result is observationally equal to executing both.
#[test]
fn netted_store_is_skipped_without_observable_difference() {
    const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
    obs::set_enabled(obs::trace_enabled(), true);
    let (es, catalog) = employee_catalog();
    let stmts = [parse(UPDATE_A).unwrap(), parse(OVERWRITE).unwrap()];
    let plan = compile_program(&stmts, &catalog).unwrap();
    assert!(plan.stages()[0].netted(), "the first store is dead");
    assert_eq!(plan.stages()[0].netted_by(), Some(1));
    assert_eq!(plan.stages()[1].kind(), StageKind::SetUpdate);

    let (i0, _) = section7_instance(&es);
    let before = obs::metrics_snapshot();
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
    let after = obs::metrics_snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(
        delta("sql.plan.stages_skipped") >= 1,
        "the netted stage must be skipped at execution"
    );

    assert_eq!(
        i,
        legacy_apply(&stmts, &catalog, &i0, 0),
        "skipping the netted stage is unobservable"
    );
    assert!(view.matches_rebuild(&i));
}

/// Set-update subqueries: every shape of [`SET_SUBQUERIES`], unguarded
/// and under every guard, through the viewed, profiled, sharded, session
/// and durable drivers plus WAL recovery on a sweep of random instances —
/// all bit-identical to the per-statement interpreter. EXPLAIN must
/// report the evaluator each one takes: one `par(E)` evaluation, or the
/// per-row interpreter fallback.
#[test]
fn set_update_subqueries_match_per_statement_execution() {
    let (es, catalog) = employee_catalog();
    let mut seed = SWEEP_BASE ^ 0x5E7_0000;
    for &(column, select, compiles) in SET_SUBQUERIES {
        for guard in std::iter::once(None).chain(GUARDS.iter().map(Some)) {
            let text = match guard {
                Some(g) => format!("update Employee set {column} = ({select}) where {g}"),
                None => format!("update Employee set {column} = ({select})"),
            };
            let stmts = vec![parse(&text).unwrap()];
            let plan = compile_program(&stmts, &catalog).unwrap();
            let explain = plan.explain();
            let notes = &explain.children[0].notes;
            let expected = if compiles {
                "values: one par(E) evaluation"
            } else {
                "values: per-row interpreter"
            };
            assert!(
                notes.iter().any(|n| n.starts_with(expected)),
                "{text}: EXPLAIN must say `{expected}`: {notes:?}"
            );
            for _ in 0..24 {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let i0 = random_instance(&es, &mut rng);
                check_program(seed, vec![text.clone()], &stmts, &i0);
            }
        }
    }
}
