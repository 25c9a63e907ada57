//! Scratch profiler for the seq-vs-shard cost model (not part of the
//! shipped benches; run with `cargo run --release -p receivers-bench
//! --bin profile_shard`).

use std::sync::Arc;
use std::time::Instant;

use receivers_core::methods::add_bar;
use receivers_core::shard::{shard_of, ShardConfig, ShardPlan};
use receivers_objectbase::examples::{beer_schema, BeerSchema};
use receivers_objectbase::{Instance, Oid, Receiver, UpdateMethod};
use receivers_relalg::view::DatabaseView;

fn dense_instance(scale: u32) -> (BeerSchema, Instance) {
    let s = beer_schema();
    let mut i = Instance::empty(Arc::clone(&s.schema));
    for k in 0..scale {
        i.add_object(Oid::new(s.drinker, k));
        i.add_object(Oid::new(s.bar, k));
        i.add_object(Oid::new(s.beer, k));
    }
    for k in 0..scale {
        let d = Oid::new(s.drinker, k);
        for j in 0..8 {
            i.link(d, s.frequents, Oid::new(s.bar, (k * 7 + j * 13) % scale))
                .unwrap();
        }
        for j in 0..2 {
            i.link(d, s.likes, Oid::new(s.beer, (k + j * 5) % scale))
                .unwrap();
        }
        let b = Oid::new(s.bar, k);
        for j in 0..4 {
            i.link(b, s.serves, Oid::new(s.beer, (k * 3 + j) % scale))
                .unwrap();
        }
    }
    (s, i)
}

fn time<R>(label: &str, reps: u32, mut f: impl FnMut() -> R) {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let total = t0.elapsed();
    println!(
        "{label:40} {:>10.3} ms/rep",
        total.as_secs_f64() * 1e3 / f64::from(reps)
    );
}

fn main() {
    let scale = 1024u32;
    let (s, i) = dense_instance(scale);
    let m = add_bar(&s);
    let shards = 8usize;
    let by_shard: Vec<Vec<Oid>> = {
        let mut by = vec![Vec::new(); shards];
        for k in 0..scale {
            let b = Oid::new(s.bar, k);
            by[shard_of(b, shards)].push(b);
        }
        by
    };
    let order: Vec<Receiver> = (0..scale)
        .map(|k| {
            let d = Oid::new(s.drinker, k);
            let home = shard_of(d, shards);
            let bar = by_shard[home][(k as usize) % by_shard[home].len()];
            Receiver::new(vec![d, bar])
        })
        .collect();
    let plan = ShardPlan::new(&m, &order, shards);
    println!(
        "local={} coordinated={}",
        plan.local_count(),
        plan.coordinated_count()
    );

    time("instance clone", 20, || i.clone());
    time("view build (DatabaseView::new)", 20, || {
        DatabaseView::new(&i)
    });
    let view = DatabaseView::new(&i);
    time("db clone (replica base)", 20, || view.database().clone());

    time("validate+evaluate only (1024 recv)", 5, || {
        let db = view.database();
        for t in &order {
            t.validate(m.signature(), &i).unwrap();
            std::hint::black_box(m.evaluate_on(db, t).unwrap());
        }
    });

    time("sequential full", 5, || {
        let mut w = i.clone();
        m.apply_in_place_sequence(&mut w, &order)
    });

    receivers_rt::set_num_threads(Some(shards));
    let cfg = ShardConfig {
        shards: Some(shards),
    };
    // One-shot: a fresh executor per wave, so the replica build is timed.
    time("sharded one-shot (t8)", 5, || {
        let mut w = i.clone();
        receivers_core::ShardedExecutor::new(&m, &cfg).apply(&mut w, &order)
    });

    // Steady state: persistent view vs persistent executor, no clones in
    // the timed region — the wave is reapplied to the live instance.
    let mut seq_inst = i.clone();
    let mut seq_view = DatabaseView::new(&seq_inst);
    m.apply_sequence_viewed(&mut seq_inst, &mut seq_view, &order);
    time("sequential steady wave (persistent view)", 10, || {
        m.apply_sequence_viewed(&mut seq_inst, &mut seq_view, &order)
    });

    let mut ex_inst = i.clone();
    let mut exec = receivers_core::ShardedExecutor::new(&m, &cfg);
    exec.apply(&mut ex_inst, &order);
    assert_eq!(ex_inst, seq_inst);
    time("executor steady wave (t8)", 10, || {
        exec.apply(&mut ex_inst, &order)
    });
    assert_eq!(ex_inst, seq_inst);

    // One worker: every segment runs inline on this thread.
    receivers_rt::set_num_threads(Some(1));
    let mut ex2_inst = i.clone();
    let mut exec2 = receivers_core::ShardedExecutor::new(&m, &cfg);
    exec2.apply(&mut ex2_inst, &order);
    time("executor steady wave (8 shards, inline)", 10, || {
        exec2.apply(&mut ex2_inst, &order)
    });
    assert_eq!(ex2_inst, seq_inst);
    receivers_rt::set_num_threads(None);
}
