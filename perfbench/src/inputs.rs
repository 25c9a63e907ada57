//! Seeded inputs: instances, update programs, and the independent
//! per-statement reference path every output is checked against.

use std::sync::Arc;

use receivers_core::sequential::apply_seq_unchecked;
use receivers_objectbase::examples::{beer_schema, BeerSchema, EmployeeSchema};
use receivers_objectbase::{Instance, Oid, Receiver};
use receivers_sql::scenarios::{
    CURSOR_DELETE_MANAGER, CURSOR_UPDATE_B, CURSOR_UPDATE_C, DELETE_SIMPLE, UPDATE_A, UPDATE_C_SET,
};
use receivers_sql::{compile, parse, Catalog, CompiledStatement, SqlStatement};

use crate::util::Rng;

/// The six-statement program of the `plan_pipeline` criterion bench:
/// a shared `Salary in table Fire` selector (cse), a cursor update the
/// improve pass turns into one `par(E)` store, a blind overwrite that
/// nets it, and a guarded cursor update on the interpreted loop.
pub const MIXED_PROGRAM: &[&str] = &[
    "update Employee set Manager = \
     (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId) \
     where Salary in table Fire",
    "update Employee set Salary = (select New from NewSal where Old = Salary) \
     where Salary in table Fire",
    "for each t in Employee do update t set Salary = \
     (select New from NewSal where Old = Salary)",
    "update Employee set Salary = (select Amount from Fire)",
    "update Employee set Salary = (select New from NewSal where Old = Salary) \
     where Salary not in table Fire",
    "for each t in Employee do if Manager = EmpId update t set Salary = \
     (select New from NewSal where Old = Salary)",
];

/// Section 7 as one program: (A), (B) and (C) in cursor and set form,
/// then the order-dependent cursor delete and the set delete.
pub const SECTION7_PROGRAM: &[&str] = &[
    UPDATE_A,
    CURSOR_UPDATE_B,
    CURSOR_UPDATE_C,
    UPDATE_C_SET,
    CURSOR_DELETE_MANAGER,
    DELETE_SIMPLE,
];

/// The write-heavy program of `durable_restart`: a guarded cursor update
/// (one WAL record per fired receiver), one set update, and a guarded
/// cursor delete.
pub const DURABLE_PROGRAM: &[&str] = &[
    "for each t in Employee do if Salary not in table Fire update t set Salary = \
     (select New from NewSal where Old = Salary)",
    "update Employee set Manager = \
     (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId) \
     where Salary in table Fire",
    "for each t in Employee do if Salary in table Fire delete t from Employee",
];

pub fn parse_all<S: AsRef<str>>(texts: &[S]) -> Vec<SqlStatement> {
    texts
        .iter()
        .map(|t| parse(t.as_ref()).expect("benchmark statements parse"))
        .collect()
}

/// The `plan_pipeline` instance shape: `n` employees with Zipf-skewed
/// (weight `1/k` on the `k`-th amount) salaries over `n / 2` amounts, a
/// manager chain, `NewSal` raising amount `k` to `k + n / 2`, and `Fire`
/// listing the low quarter of the amounts.
pub fn zipf_employees(es: &EmployeeSchema, n: u32, rng: &mut Rng) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let amounts = (n / 2).max(2);
    let amount_objs: Vec<Oid> = (0..amounts * 2).map(|k| Oid::new(es.amount, k)).collect();
    for &a in &amount_objs {
        i.add_object(a);
    }
    let mut cdf = Vec::with_capacity(amounts as usize);
    let mut acc = 0.0f64;
    for k in 0..amounts {
        acc += 1.0 / f64::from(k + 1);
        cdf.push(acc);
    }
    let employees: Vec<Oid> = (0..n).map(|k| Oid::new(es.employee, k)).collect();
    for &e in &employees {
        i.add_object(e);
    }
    for (k, &e) in employees.iter().enumerate() {
        let u = rng.unit() * acc;
        let idx = cdf.partition_point(|&c| c < u).min(amounts as usize - 1);
        i.link(e, es.salary, amount_objs[idx]).expect("typed");
        i.link(e, es.manager, employees[k.saturating_sub(1)])
            .expect("typed");
    }
    for k in 0..amounts {
        let ns = Oid::new(es.newsal, k);
        i.add_object(ns);
        i.link(ns, es.old, amount_objs[k as usize]).expect("typed");
        i.link(ns, es.new, amount_objs[(k + amounts) as usize])
            .expect("typed");
    }
    for k in 0..(amounts / 4).max(1) {
        let f = Oid::new(es.fire, k);
        i.add_object(f);
        i.link(f, es.fire_amount, amount_objs[k as usize])
            .expect("typed");
    }
    i
}

/// A Section 7-shaped instance: `n` employees with uniform salaries over
/// `amounts` amounts, each managed by a random earlier employee (employee
/// 0 manages itself), `NewSal` rotating amount `k` to `k + 1 mod
/// amounts` so every update really writes, and `Fire` listing `fired`
/// evenly spaced amounts.
pub fn section7_employees(
    es: &EmployeeSchema,
    n: u32,
    amounts: u32,
    fired: u32,
    rng: &mut Rng,
) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let amount_objs: Vec<Oid> = (0..amounts).map(|k| Oid::new(es.amount, k)).collect();
    for &a in &amount_objs {
        i.add_object(a);
    }
    let employees: Vec<Oid> = (0..n).map(|k| Oid::new(es.employee, k)).collect();
    for &e in &employees {
        i.add_object(e);
    }
    for (k, &e) in employees.iter().enumerate() {
        let a = amount_objs[rng.below(amounts) as usize];
        i.link(e, es.salary, a).expect("typed");
        let m = if k == 0 {
            0
        } else {
            rng.below(k as u32) as usize
        };
        i.link(e, es.manager, employees[m]).expect("typed");
    }
    for k in 0..amounts {
        let ns = Oid::new(es.newsal, k);
        i.add_object(ns);
        i.link(ns, es.old, amount_objs[k as usize]).expect("typed");
        i.link(ns, es.new, amount_objs[((k + 1) % amounts) as usize])
            .expect("typed");
    }
    for k in 0..fired {
        let f = Oid::new(es.fire, k);
        i.add_object(f);
        let a = amount_objs[(k * amounts / fired) as usize];
        i.link(f, es.fire_amount, a).expect("typed");
    }
    i
}

/// Guard atoms of the ad-hoc statements that read `Salary`...
const SALARY_ATOMS: &[&str] = &[
    "Salary in table Fire",
    "Salary not in table Fire",
    "exists (select * from NewSal where Old = Salary)",
];

/// ...and those that do not, which a later blind `Salary` store may
/// share with an earlier one (the netting pass then asks the solver,
/// through its proof cache, whether the store is dead).
const MANAGER_ATOMS: &[&str] = &[
    "Manager = EmpId",
    "Manager <> EmpId",
    "exists (select * from Employee E1 where E1.Manager = EmpId)",
    "exists (select * from Employee E1 where E1.EmpId = Manager and E1.Manager = E1.EmpId)",
];

/// One atom or the conjunction of two, drawn from `atoms`.
fn random_guard(rng: &mut Rng, atoms: &[&str]) -> String {
    let pick = |rng: &mut Rng| atoms[rng.below(atoms.len() as u32) as usize];
    let a = pick(rng);
    if rng.chance(0.5) {
        a.to_owned()
    } else {
        format!("{a} and {}", pick(rng))
    }
}

/// One ad-hoc statement: the `plan_differential` statement shapes
/// without the correlated (C) join, guarded by `guard` half the time.
fn random_statement(rng: &mut Rng, guard: &str) -> String {
    let suffix = if rng.chance(0.5) {
        format!(" where {guard}")
    } else {
        String::new()
    };
    match rng.below(6) {
        0 => format!("delete from Employee where {guard}"),
        1 => format!(
            "update Employee set Salary = (select New from NewSal where Old = Salary){suffix}"
        ),
        2 => format!("update Employee set Salary = (select Amount from Fire){suffix}"),
        3 => format!(
            "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId){suffix}"
        ),
        4 if suffix.is_empty() => "for each t in Employee do update t set Salary = \
             (select New from NewSal where Old = Salary)"
            .to_owned(),
        4 => format!(
            "for each t in Employee do if {guard} update t set Salary = \
             (select New from NewSal where Old = Salary)"
        ),
        _ => format!("for each t in Employee do if {guard} delete t from Employee"),
    }
}

/// Ad-hoc program `k` of `seed`: 1–5 statements over a two-guard
/// palette. Half the programs end with a guarded `Salary` store followed
/// by a blind overwrite under the same `Salary`-free guard — the pattern
/// the netting pass proves dead through its proof cache.
pub fn adhoc_program(seed: u64, k: u64) -> Vec<String> {
    let mut rng = Rng::stream(seed, 0xAD0C_0000 + k);
    let all: Vec<&str> = SALARY_ATOMS.iter().chain(MANAGER_ATOMS).copied().collect();
    let palette = [
        random_guard(&mut rng, &all),
        random_guard(&mut rng, MANAGER_ATOMS),
    ];
    let n = 1 + rng.below(5);
    let tail = n >= 2 && rng.chance(0.5);
    let head = if tail { n - 2 } else { n };
    let mut program: Vec<String> = (0..head)
        .map(|_| {
            let g = &palette[rng.below(2) as usize];
            random_statement(&mut rng, g)
        })
        .collect();
    if tail {
        let g = &palette[1];
        program.push(format!(
            "update Employee set Salary = (select New from NewSal where Old = Salary) where {g}"
        ));
        program.push(format!(
            "update Employee set Salary = (select Amount from Fire) where {g}"
        ));
    }
    program
}

/// The per-statement reference path: each statement compiled on its own
/// and applied functionally — set forms through their two-phase
/// `apply`, cursor forms through the interpreted method receiver by
/// receiver in canonical order. Shares no code with the planner's
/// executors.
pub fn reference_apply(stmts: &[SqlStatement], catalog: &Catalog, i0: &Instance) -> Instance {
    let mut i = i0.clone();
    for stmt in stmts {
        let compiled = compile(stmt, catalog).expect("benchmark statements compile");
        i = match &compiled {
            CompiledStatement::SetDelete(sd) => sd.apply(&i).expect("set delete applies"),
            CompiledStatement::SetUpdate(su) => su.apply(&i).expect("set update applies"),
            CompiledStatement::CursorDelete(cd) => {
                let m = cd.method();
                let t = cd.receivers(&i);
                apply_seq_unchecked(&m, &i, &t).expect_done("cursor delete")
            }
            CompiledStatement::CursorUpdate(cu) => {
                let m = cu.interpreted_method();
                let t = cu.receivers(&i);
                apply_seq_unchecked(&m, &i, &t).expect_done("cursor update")
            }
        };
    }
    i
}

/// The beer instance of `receiver_waves`: `n` drinkers, bars and beers;
/// every drinker likes 2 beers, every bar serves 4; the first-wave
/// drinkers (`receiving`) frequent exactly one bar — their steady state
/// under `favorite_bar` — and the rest frequent 8.
pub fn beer_instance(n: u32, receiving: &[u32], rng: &mut Rng) -> (BeerSchema, Instance) {
    let s = beer_schema();
    let mut i = Instance::empty(Arc::clone(&s.schema));
    for k in 0..n {
        i.add_object(Oid::new(s.drinker, k));
        i.add_object(Oid::new(s.bar, k));
        i.add_object(Oid::new(s.beer, k));
    }
    let mut single = vec![false; n as usize];
    for &d in receiving {
        single[d as usize] = true;
    }
    for k in 0..n {
        let d = Oid::new(s.drinker, k);
        let bars = if single[k as usize] { 1 } else { 8 };
        for _ in 0..bars {
            i.link(d, s.frequents, Oid::new(s.bar, rng.below(n)))
                .expect("typed");
        }
        for _ in 0..2 {
            i.link(d, s.likes, Oid::new(s.beer, rng.below(n)))
                .expect("typed");
        }
        let b = Oid::new(s.bar, k);
        for _ in 0..4 {
            i.link(b, s.serves, Oid::new(s.beer, rng.below(n)))
                .expect("typed");
        }
    }
    (s, i)
}

/// Wave `k`: every receiving drinker gets a fresh random bar, in a
/// random order.
pub fn wave(s: &BeerSchema, bars: u32, receiving: &[u32], seed: u64, k: u64) -> Vec<Receiver> {
    let mut rng = Rng::stream(seed, 0x3A7E_0000 + k);
    let mut order: Vec<Receiver> = receiving
        .iter()
        .map(|&d| {
            Receiver::new(vec![
                Oid::new(s.drinker, d),
                Oid::new(s.bar, rng.below(bars)),
            ])
        })
        .collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_sql::catalog::employee_catalog;

    #[test]
    fn every_statement_parses_and_compiles() {
        let (_es, catalog) = employee_catalog();
        for p in [MIXED_PROGRAM, SECTION7_PROGRAM, DURABLE_PROGRAM] {
            for s in parse_all(p) {
                compile(&s, &catalog).expect("compiles");
            }
        }
        for k in 0..200 {
            for s in parse_all(&adhoc_program(1, k)) {
                compile(&s, &catalog).expect("compiles");
            }
        }
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let (es, _) = employee_catalog();
        let a = zipf_employees(&es, 64, &mut Rng::new(5));
        let b = zipf_employees(&es, 64, &mut Rng::new(5));
        let c = zipf_employees(&es, 64, &mut Rng::new(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(adhoc_program(9, 3), adhoc_program(9, 3));
    }
}
