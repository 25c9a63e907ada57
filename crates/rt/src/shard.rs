//! Per-shard fan-out: scoped workers claim whole shards from one cursor.
//!
//! [`par_map`](crate::par_map) hands each worker one contiguous chunk of
//! items; that shape cannot express the sharded application of an update
//! method, where the items arrive already partitioned into *shards* that
//! must each be consumed in order (a shard's receivers see the effects of
//! the previous ones) while distinct shards proceed independently.
//! [`shard_map`] provides that shape with the claim idiom of
//! [`par_find_map_first`](crate::par_find_map_first):
//!
//! * up to `workers.min(shards.len())` scoped threads claim whole shards
//!   from one shared atomic cursor, so a worker that finishes early claims
//!   the next unclaimed shard and `shards > workers` balances skew;
//! * each shard is processed by exactly one worker, in item order;
//! * results come back in shard order, so the output is bit-identical to
//!   the inline loop regardless of thread timing;
//! * a worker panic propagates through the scope join.
//!
//! With `workers <= 1` (or without the `parallel` feature) the shards run
//! as an inline loop on the caller's thread, same results.

use receivers_obs as obs;

#[cfg(feature = "parallel")]
use std::sync::atomic::{AtomicUsize, Ordering};

obs::counter!(C_SHARD_CALLS, "rt.shard.calls");
obs::counter!(C_SHARD_RUNS, "rt.shard.runs");
obs::counter!(C_SHARD_STEALS, "rt.shard.steals");

/// Run `f(shard_index, items)` once per shard on up to `workers` scoped
/// threads and return the results in shard order. See the module docs for
/// the claim contract.
pub fn shard_map<T, R, F>(shards: &[Vec<T>], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    C_SHARD_CALLS.incr();
    #[cfg(feature = "parallel")]
    {
        let workers = workers.min(shards.len());
        if workers > 1 {
            let cursor = AtomicUsize::new(0);
            let parent = obs::current_span();
            let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (f, cursor) = (&f, &cursor);
                        s.spawn(move || {
                            let _span = obs::span_under("rt.shard.worker", parent);
                            let mut out = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= shards.len() {
                                    return out;
                                }
                                C_SHARD_RUNS.incr();
                                // As in `FindFirstStats::steals`: every claim
                                // past a worker's first is taken from the pool.
                                if !out.is_empty() {
                                    C_SHARD_STEALS.incr();
                                }
                                out.push((i, f(i, &shards[i])));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            done.sort_unstable_by_key(|&(i, _)| i);
            return done.into_iter().map(|(_, r)| r).collect();
        }
    }
    #[cfg(not(feature = "parallel"))]
    let _ = workers;
    shards
        .iter()
        .enumerate()
        .map(|(i, items)| {
            C_SHARD_RUNS.incr();
            f(i, items)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concat(i: usize, items: &[u64]) -> (usize, Vec<u64>) {
        (i, items.to_vec())
    }

    /// Every shard is processed exactly once, in item order, and comes
    /// back at its own index — for every worker count, including more
    /// workers than shards and more shards than workers.
    #[test]
    fn per_shard_order_and_completeness() {
        for nshards in [0u64, 1, 3, 7] {
            let shards: Vec<Vec<u64>> = (0..nshards)
                .map(|s| (s * 100..s * 100 + 23 + s).collect())
                .collect();
            for workers in [1, 2, 4, 8] {
                let out = shard_map(&shards, workers, concat);
                assert_eq!(out.len(), shards.len(), "{workers} workers");
                for (i, (shard, got)) in out.into_iter().enumerate() {
                    assert_eq!(shard, i);
                    assert_eq!(got, shards[i], "shard {i} with {workers} workers");
                }
            }
        }
    }

    /// The parallel result is bit-identical to the inline one, empty
    /// shards included.
    #[test]
    fn parallel_matches_inline() {
        let shards: Vec<Vec<u64>> = (0..9)
            .map(|s| {
                if s % 4 == 1 {
                    Vec::new()
                } else {
                    (0..50 + s).collect()
                }
            })
            .collect();
        let sum = |i: usize, items: &[u64]| i as u64 * 1000 + items.iter().sum::<u64>();
        let inline = shard_map(&shards, 1, sum);
        for workers in [2, 4, 8] {
            assert_eq!(
                shard_map(&shards, workers, sum),
                inline,
                "{workers} workers"
            );
        }
    }

    /// A slow shard is overtaken: the worker on shard 0 blocks until
    /// every other shard has finished, which only the other worker's
    /// claims can bring about. (Skipped under Miri, where the order tests
    /// above cover the same claim loop.)
    #[test]
    #[cfg(feature = "parallel")]
    #[cfg_attr(miri, ignore)]
    fn slow_shard_is_overtaken() {
        let shards: Vec<Vec<u64>> = (0..8).map(|s| vec![s]).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let rest_done = AtomicUsize::new(0);
        let out = shard_map(&shards, 2, |i, items| {
            if i == 0 {
                let rx = rx.lock().expect("only shard 0 locks the receiver");
                let overtaken = rx.recv_timeout(std::time::Duration::from_secs(30));
                return (overtaken.is_ok(), items.to_vec());
            }
            if rest_done.fetch_add(1, Ordering::SeqCst) + 1 == shards.len() - 1 {
                tx.send(()).expect("shard 0 is waiting");
            }
            (true, items.to_vec())
        });
        assert!(
            out[0].0,
            "the other worker claimed every shard behind the blocked one"
        );
        for (i, (_, got)) in out.iter().enumerate() {
            assert_eq!(got, &vec![i as u64]);
        }
    }

    /// A panicking worker propagates its panic out of `shard_map`.
    #[test]
    fn worker_panic_propagates() {
        let shards: Vec<Vec<u64>> = (0..6).map(|_| (0..32).collect()).collect();
        for workers in [1, 2] {
            let res = std::panic::catch_unwind(|| {
                shard_map(&shards, workers, |i, items| {
                    if i == 3 {
                        panic!("boom at shard {i}");
                    }
                    items.len()
                })
            });
            let payload = res.expect_err("the panic must propagate");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("boom at shard 3"), "{workers} workers");
        }
    }
}
