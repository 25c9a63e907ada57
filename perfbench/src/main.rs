//! A closed-loop, single-client benchmark of the update engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run prepares the workload's inputs and references from the seed
//! (untimed), times the program's set-up several times, then runs ops
//! for `--seconds`, checking every output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced ops and reports the per-layer metrics
//! of the traced ones. The last line of standard output is the result;
//! the line before it is the full record (host, settings, counts).

mod inputs;
mod metrics;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;
use util::{json_str, Obj};

/// The second seed, never used while the benchmark was tuned; a run on
/// it must be as clean as on any other.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// Set-up is timed in bursts spread over the run, so `setup_s` (the
/// median of every set-up) meets the same host conditions as the ops:
/// one burst before the first op, then one every `SETUP_EVERY`. A burst
/// repeats the set-up at least `min` times (`FIRST_BURST` or
/// `BURST_MIN`) and until `BURST_BUDGET` of set-up time is measured, at
/// most `BURST_MAX` times, so a set-up of microseconds still gets a
/// steady median. A burst rebuilds the program's state, so it never
/// falls inside the counted ops.
const SETUP_EVERY: Duration = Duration::from_millis(500);
const FIRST_BURST: usize = 11;
const BURST_MIN: usize = 3;
const BURST_MAX: usize = 200;
const BURST_BUDGET: Duration = Duration::from_millis(10);

fn setup_burst(
    wl: &mut dyn workloads::Workload,
    tracer: Option<&mut Tracer>,
    min: usize,
    out: &mut Vec<f64>,
) {
    let mut tracer = tracer;
    let budget = BURST_BUDGET.as_nanos() as f64;
    let mut spent = 0.0;
    let mut n = 0;
    while n < min || (spent < budget && n < BURST_MAX) {
        let ns = wl.setup(tracer.as_deref_mut()) as f64;
        spent += ns;
        out.push(ns);
        n += 1;
    }
}

/// Ops whose counts form the run's deterministic fingerprint.
const COUNTED_OPS: u64 = 16;

/// Threads the program may use: at most two, so the shard layout (and
/// every count) is the same on any host with two or more cores.
const MAX_THREADS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    employees: Option<u32>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--employees <n>, section7_cursor only]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut employees) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--employees" => {
                let n: u32 = value.parse().map_err(|_| bad("not a u32"))?;
                if !(8..=1024).contains(&n) {
                    return Err(bad("must be in 8..=1024"));
                }
                employees = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if employees.is_some() && workload != "section7_cursor" {
        return Err("--employees applies to section7_cursor only".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        employees,
    })
}

/// Switch the program's own instrumentation for the next op.
fn instrument(on: bool) {
    receivers_obs::set_enabled(false, on);
    receivers_obs::set_profile_enabled(on);
}

/// Everything a run measured.
pub struct Run {
    pub setup_ns: Vec<f64>,
    /// Latency of every untraced op.
    pub op_ns: Vec<f64>,
    /// Latency of every traced op.
    pub traced_ns: Vec<f64>,
    /// Timed nanoseconds in total, op samples plus extra timed work.
    pub timed_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub counts: BTreeMap<&'static str, u64>,
    pub tracer: Tracer,
    pub extras: Vec<(&'static str, f64, &'static str)>,
    pub settings: Vec<(&'static str, String)>,
}

/// Run one workload: prepare, set up, measure.
pub fn run(
    wl: &mut dyn workloads::Workload,
    trace: bool,
    budget: Duration,
    ops: Option<u64>,
) -> Run {
    let mut tracer = Tracer::default();
    instrument(trace);
    let mut setup_ns: Vec<f64> = Vec::new();
    setup_burst(wl, trace.then_some(&mut tracer), FIRST_BURST, &mut setup_ns);
    let mut r = Run {
        setup_ns,
        op_ns: Vec::new(),
        traced_ns: Vec::new(),
        timed_ns: 0.0,
        attempted: 0,
        failed: 0,
        counts: BTreeMap::new(),
        tracer,
        extras: Vec::new(),
        settings: wl.settings(),
    };
    let start = Instant::now();
    let mut last_burst = start;
    let mut i = 0u64;
    loop {
        let done = match ops {
            Some(n) => i >= n,
            None => i > 0 && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        if ops.is_none() && i >= COUNTED_OPS && last_burst.elapsed() >= SETUP_EVERY {
            instrument(trace);
            setup_burst(
                wl,
                trace.then_some(&mut r.tracer),
                BURST_MIN,
                &mut r.setup_ns,
            );
            last_burst = Instant::now();
        }
        // Traced runs alternate: even ops untraced, odd ops traced.
        let traced = trace && i % 2 == 1;
        instrument(traced);
        let op = wl.op(i, traced.then_some(&mut r.tracer));
        if traced {
            r.tracer.end_op();
            r.traced_ns.push(op.ns as f64);
        } else {
            r.op_ns.push(op.ns as f64);
        }
        r.timed_ns += (op.ns + op.extra_ns) as f64;
        r.attempted += 1;
        if !op.ok {
            r.failed += 1;
        }
        if i < COUNTED_OPS {
            for (k, v) in op.counts {
                *r.counts.entry(k).or_insert(0) += v;
            }
        }
        i += 1;
    }
    instrument(false);
    r.extras = wl.extras();
    wl.cleanup();
    r
}

fn host_record(args: &Args, threads: usize) -> String {
    Obj::new()
        .int("nproc", util::nproc() as u64)
        .int("threads", threads as u64)
        .str("commit", &util::commit())
        .str("rustc", &util::command_line("rustc", &["--version"]))
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .int("seed", args.seed)
        .int("held_out_seed", HELD_OUT_SEED)
        .finish()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = util::nproc().min(MAX_THREADS);
    receivers_rt::set_num_threads(Some(threads));
    receivers_obs::set_flight_enabled(false);

    let t_prep = Instant::now();
    let mut wl = workloads::build(&args.workload, args.seed, threads, args.employees)
        .expect("name was checked");
    let prepare_s = t_prep.elapsed().as_secs_f64();
    let budget = Duration::from_secs_f64(args.seconds);
    let r = run(wl.as_mut(), args.trace, budget, None);

    let all_end_to_end = metrics::end_to_end(&r);
    let metrics: Vec<metrics::Metric> = if args.trace {
        metrics::per_layer(&r)
    } else {
        all_end_to_end
            .iter()
            .filter(|(n, _, _)| metrics::END_TO_END.iter().any(|(e, _)| e == n))
            .copied()
            .collect()
    };
    let correct = r.failed == 0 && r.tracer.violations.is_empty();
    for v in &r.tracer.violations {
        eprintln!("perfbench: attribution check failed: {v}");
    }

    let settings = r
        .settings
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.str(k, v))
        .finish();
    let counts = r
        .counts
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.int(k, *v))
        .finish();
    let extras = r
        .extras
        .iter()
        .fold(Obj::new(), |o, (k, v, u)| {
            o.raw(k, &metrics::value_json(*v, u))
        })
        .finish();
    let record = Obj::new()
        .str("schema", "receivers-perfbench/record/v1")
        .str("workload", &args.workload)
        .bool("trace", args.trace)
        .raw("host", &host_record(&args, threads))
        .raw("settings", &settings)
        .str("loop", "closed, one client")
        .num("seconds", args.seconds)
        .num("prepare_s", prepare_s)
        .int("setup_repeats", r.setup_ns.len() as u64)
        .int("op_samples", r.op_ns.len() as u64)
        .int("traced_samples", r.traced_ns.len() as u64)
        .raw("end_to_end", &metrics::metrics_json(&all_end_to_end))
        .raw("extras", &extras)
        .int("counted_ops", COUNTED_OPS.min(r.attempted))
        .raw("counts", &counts)
        .raw(
            "violations",
            &format!(
                "[{}]",
                r.tracer
                    .violations
                    .iter()
                    .map(|v| json_str(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .finish();
    println!("{record}");
    let result = Obj::new()
        .bool("correct", correct)
        .int("attempted", r.attempted)
        .int("failed", r.failed)
        .raw("metrics", &metrics::metrics_json(&metrics))
        .finish();
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload mixed_zipf --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args("--workload nope --seed 3").is_err());
        assert!(args("--workload mixed_zipf").is_err());
        assert!(args("--workload mixed_zipf --seed x").is_err());
        assert!(args("--workload mixed_zipf --seed 1 --trace 2").is_err());
        assert!(args("--workload mixed_zipf --seed 1 --seconds").is_err());
        assert!(args("--workload mixed_zipf --seed 1 --employees 32").is_err());
        assert_eq!(
            args("--workload section7_cursor --seed 1 --employees 32")
                .unwrap()
                .employees,
            Some(32)
        );
    }

    /// Exactly `ops` ops of a freshly prepared workload.
    fn run_ops(name: &str, seed: u64, trace: bool, ops: u64, corrupt: bool) -> Run {
        let mut wl = workloads::build(name, seed, MAX_THREADS, None).expect("known workload");
        if corrupt {
            wl.corrupt_outputs();
        }
        run(wl.as_mut(), trace, Duration::ZERO, Some(ops))
    }

    // The workloads share process-wide state (the proof cache, the obs
    // switches and counters), so each test walks them in sequence.

    #[test]
    fn same_seed_same_counts_and_every_op_checks_clean() {
        for &name in workloads::NAMES {
            let a = run_ops(name, 11, false, 8, false);
            let b = run_ops(name, 11, false, 8, false);
            assert_eq!((a.attempted, a.failed), (8, 0), "{name}");
            assert!(!a.counts.is_empty(), "{name} reports counts");
            assert_eq!(a.counts, b.counts, "{name}: same seed, same counts");
            let a = run_ops(name, 11, true, 6, false);
            let b = run_ops(name, 11, true, 6, false);
            assert_eq!(a.counts, b.counts, "{name}: same seed, same traced counts");
            let held_out = run_ops(name, HELD_OUT_SEED, false, 4, false);
            assert_eq!(held_out.failed, 0, "{name} on the held-out seed");
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        for &name in workloads::NAMES {
            let a = run_ops(name, 11, true, 6, false);
            let b = run_ops(name, 12, true, 6, false);
            assert_ne!(a.counts, b.counts, "{name}: the seed must reach the inputs");
        }
    }

    #[test]
    fn corrupted_outputs_are_counted_as_failed() {
        for &name in workloads::NAMES {
            let r = run_ops(name, 11, false, 3, true);
            assert_eq!((r.attempted, r.failed), (3, 3), "{name}");
        }
    }

    #[test]
    fn traced_runs_attribute_completely_and_report_every_layer() {
        for &name in workloads::NAMES {
            let r = run_ops(name, 11, true, 12, false);
            assert_eq!(r.failed, 0, "{name}");
            assert!(
                r.tracer.violations.is_empty(),
                "{name}: {:?}",
                r.tracer.violations
            );
            let ms = metrics::per_layer(&r);
            assert_eq!(ms.len(), metrics::per_layer_names().count());
            assert!(ms.iter().all(|(_, v, _)| v.is_finite()), "{name}");
            assert!(r.tracer.ops > 0, "{name} traced some ops");
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = metrics::END_TO_END
            .iter()
            .copied()
            .chain(metrics::per_layer_names());
        let mut listed = 0;
        for (name, unit) in names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            listed += 1;
        }
        let workloads = workloads::NAMES.len();
        assert_eq!(text.matches("\"name\": ").count(), listed + workloads);
        for w in workloads::NAMES {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
    }
}
