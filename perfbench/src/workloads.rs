//! The five workloads. Each one prepares its inputs and references
//! (untimed), builds the program's set-up state (timed), and runs ops:
//! an untimed reset, the timed op, and an untimed check of the output
//! against the reference.

use std::path::PathBuf;
use std::time::Instant;

use receivers_core::shard::{certify, ShardConfig};
use receivers_core::{AlgebraicMethod, ShardedExecutor};
use receivers_objectbase::examples::{BeerSchema, EmployeeSchema};
use receivers_objectbase::{
    redo_ops, DeltaObserver, InPlaceOutcome, Instance, NullObserver, Oid, Receiver,
};
use receivers_relalg::view::DatabaseView;
use receivers_sql::catalog::employee_catalog;
use receivers_sql::plan::reset_proof_cache;
use receivers_sql::{compile_program, parse, Catalog, ProgramPlan, SqlStatement};
use receivers_wal::{
    decode_log, decode_snapshot, encode_snapshot, DirStorage, DurableStore, Manifest, WalConfig,
    WalStats, WalStorage,
};

use crate::inputs;
use crate::trace::{ns_since, Span, Tracer};
use crate::util::Rng;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &[
    "mixed_zipf",
    "adhoc_small",
    "section7_cursor",
    "durable_restart",
    "receiver_waves",
];

/// What one op reports to the harness.
pub struct Op {
    /// The op's latency, the sample behind the percentiles.
    pub ns: u64,
    /// Timed work that belongs to no op sample but to the run's
    /// throughput (store creation and restarts in `durable_restart`).
    pub extra_ns: u64,
    /// The output matched its reference.
    pub ok: bool,
    /// Work counts that do not depend on the host.
    pub counts: Vec<(&'static str, u64)>,
}

pub trait Workload {
    /// Instance sizes and policies, for the result record.
    fn settings(&self) -> Vec<(&'static str, String)>;
    /// Build the program's set-up state afresh; returns the timed
    /// nanoseconds. Called several times, the last state is kept.
    fn setup(&mut self, tr: Option<&mut Tracer>) -> u64;
    /// Run op `i`.
    fn op(&mut self, i: u64, tr: Option<&mut Tracer>) -> Op;
    /// Workload-specific figures for the record: `(name, value, unit)`.
    fn extras(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
    /// Corrupt every output before it is checked (tests of the check).
    fn corrupt_outputs(&mut self);
    /// Remove whatever the workload left on disk.
    fn cleanup(&mut self) {}
}

/// The workload `name` on `seed`; `employees` overrides the instance
/// size of `section7_cursor` (a scaling probe; default 64).
pub fn build(
    name: &str,
    seed: u64,
    threads: usize,
    employees: Option<u32>,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mixed_zipf" => Box::new(FixedProgram::mixed_zipf(seed)),
        "adhoc_small" => Box::new(Adhoc::new(seed)),
        "section7_cursor" => Box::new(FixedProgram::section7(seed, employees.unwrap_or(64))),
        "durable_restart" => Box::new(Durable::new(seed)),
        "receiver_waves" => Box::new(Waves::new(seed, threads)),
        _ => return None,
    })
}

/// Add an object the program never created: the check must catch it.
fn corrupt(i: &mut Instance) {
    let class = i.schema().classes().next().expect("schemas have a class");
    i.add_object(Oid::new(class, u32::MAX));
}

fn applied(out: &receivers_sql::Result<InPlaceOutcome>) -> bool {
    matches!(out, Ok(InPlaceOutcome::Applied))
}

fn size_counts(i: &Instance) -> [(&'static str, u64); 2] {
    [
        ("out.nodes", i.node_count() as u64),
        ("out.edges", i.edge_count() as u64),
    ]
}

// ---------------------------------------------------------------------
// Shared SQL-layer accounting.
// ---------------------------------------------------------------------

/// Counter values of the process-wide `obs` metrics at one point.
struct ObsMark(receivers_obs::MetricsSnapshot);

impl ObsMark {
    fn now() -> Self {
        ObsMark(receivers_obs::metrics_snapshot())
    }

    fn delta(&self, name: &str) -> u64 {
        let now = receivers_obs::metrics_snapshot().counter(name).unwrap_or(0);
        now - self.0.counter(name).unwrap_or(0)
    }
}

/// `compile_program`, timed.
fn compile_timed(
    stmts: &[SqlStatement],
    catalog: &Catalog,
) -> (receivers_sql::Result<ProgramPlan>, u64) {
    let t0 = Instant::now();
    let plan = compile_program(stmts, catalog);
    (plan, ns_since(t0))
}

/// Record a compiled plan's shape, and the proof-cache traffic since
/// `mark`, as per-compile samples.
fn record_plan(tr: &mut Tracer, plan: &ProgramPlan, mark: &ObsMark) {
    let st = plan.stages();
    for (name, v) in [
        ("sql.plan.compile.dag_nodes", plan.graph().len()),
        ("sql.plan.compile.stages", st.len()),
        (
            "sql.plan.compile.stages_netted",
            st.iter().filter(|s| s.netted()).count(),
        ),
        (
            "sql.plan.compile.selectors_shared",
            st.iter().filter(|s| s.shared_selector()).count(),
        ),
        (
            "sql.plan.compile.stages_improved",
            st.iter().filter(|s| s.improved().is_some()).count(),
        ),
    ] {
        tr.sample(name, v as f64);
    }
    tr.sample(
        "sql.plan.proof_cache.hits",
        mark.delta("sql.plan.proof_cache.hit") as f64,
    );
    tr.sample(
        "sql.plan.proof_cache.misses",
        mark.delta("sql.plan.proof_cache.miss") as f64,
    );
}

/// Layer key of a profile stage kind label.
fn stage_key(kind: &str) -> &'static str {
    match kind {
        "set-update" => "set_update",
        "set-delete" => "set_delete",
        "improved-update" => "improved_update",
        "cursor-update" => "cursor_update",
        "cursor-delete" => "cursor_delete",
        _ => "unknown",
    }
}

/// The span of one `execute_*_profiled` call: the benchmark's own
/// `execute` span around it, one child per executed stage of the
/// returned profile tree (with the stage's fsync time as a grandchild
/// on `execute_durable_profiled`). Stage rows and selector-cache traffic go to
/// the tracer as counts.
fn execute_span(tr: &mut Tracer, exec_ns: u64, prof: &receivers_obs::ProfileNode) -> Span {
    if prof.wall_ns > exec_ns {
        tr.violations.push(format!(
            "profile root {} ns exceeds the execute span {exec_ns} ns",
            prof.wall_ns
        ));
    }
    let mut span = Span::new("sql.plan.execute", exec_ns);
    for stage in &prof.children {
        if stage.wall_ns == 0 {
            continue; // netted: never executed
        }
        let key = stage_key(&stage.kind);
        let name = format!("sql.plan.stage.{key}");
        tr.add(&format!("{name}.rows_in"), stage.rows_in as f64);
        tr.add(&format!("{name}.rows_out"), stage.rows_out as f64);
        for (m, layer) in [
            ("selector_cache_hits", "sql.plan.selector_cache.hits"),
            ("selector_cache_misses", "sql.plan.selector_cache.misses"),
        ] {
            tr.add(layer, stage.metric(m).unwrap_or(0) as f64);
        }
        let mut s = Span::new(name, stage.wall_ns);
        if let Some(wal) = stage.find("wal") {
            s = s.child(Span::new("wal.sync", wal.wall_ns));
        }
        span = span.child(s);
    }
    span
}

/// Rows into and out of every executed stage of a program profile.
fn profile_rows(prof: &receivers_obs::ProfileNode) -> [(&'static str, u64); 2] {
    let sum = |f: fn(&receivers_obs::ProfileNode) -> u64| prof.children.iter().map(f).sum();
    [
        ("rows_in", sum(|c| c.rows_in)),
        ("rows_out", sum(|c| c.rows_out)),
    ]
}

/// Counters read around a traced op.
fn obs_op_counts(tr: &mut Tracer, mark: &ObsMark) {
    for (counter, layer) in [
        ("sql.plan.vectorized_rows", "sql.plan.vectorized_rows"),
        ("view.raw_ops", "relalg.view.raw_ops"),
        ("view.netted_ops", "relalg.view.netted_ops"),
        ("rt.shard.calls", "rt.shard.calls"),
    ] {
        tr.add(layer, mark.delta(counter) as f64);
    }
}

// ---------------------------------------------------------------------
// mixed_zipf and section7_cursor: one program, compiled once.
// ---------------------------------------------------------------------

/// A fixed program compiled once in set-up and run by `execute_viewed`
/// from the same base state every op.
pub struct FixedProgram {
    catalog: Catalog,
    stmts: Vec<SqlStatement>,
    base: Instance,
    want: Instance,
    want_view: DatabaseView,
    state: Option<(ProgramPlan, DatabaseView)>,
    corrupt: bool,
    settings: Vec<(&'static str, String)>,
}

impl FixedProgram {
    fn new(
        stmts: Vec<SqlStatement>,
        catalog: Catalog,
        base: Instance,
        settings: Vec<(&'static str, String)>,
    ) -> Self {
        let want = inputs::reference_apply(&stmts, &catalog, &base);
        let want_view = DatabaseView::new(&want);
        FixedProgram {
            catalog,
            stmts,
            base,
            want,
            want_view,
            state: None,
            corrupt: false,
            settings,
        }
    }

    pub fn mixed_zipf(seed: u64) -> Self {
        const N: u32 = 512;
        let (es, catalog) = employee_catalog();
        let base = inputs::zipf_employees(&es, N, &mut Rng::stream(seed, 1));
        Self::new(
            inputs::parse_all(inputs::MIXED_PROGRAM),
            catalog,
            base,
            vec![
                ("employees", N.to_string()),
                ("salaries", "zipf(1/k) over n/2 amounts".to_owned()),
                ("statements", inputs::MIXED_PROGRAM.len().to_string()),
            ],
        )
    }

    pub fn section7(seed: u64, n: u32) -> Self {
        let amounts = (n / 2).max(4);
        // Every fourth amount: the cursor (C) concentrates salaries
        // along the manager tree, and the deletes must still fire.
        let fired = amounts / 4;
        let (es, catalog) = employee_catalog();
        let base = section7_base(&es, n, amounts, fired, seed);
        Self::new(
            inputs::parse_all(inputs::SECTION7_PROGRAM),
            catalog,
            base,
            vec![
                ("employees", n.to_string()),
                ("amounts", amounts.to_string()),
                ("fired_amounts", fired.to_string()),
                ("statements", inputs::SECTION7_PROGRAM.len().to_string()),
            ],
        )
    }
}

fn section7_base(es: &EmployeeSchema, n: u32, amounts: u32, fired: u32, seed: u64) -> Instance {
    inputs::section7_employees(es, n, amounts, fired, &mut Rng::stream(seed, 2))
}

impl Workload for FixedProgram {
    fn settings(&self) -> Vec<(&'static str, String)> {
        self.settings.clone()
    }

    fn setup(&mut self, tr: Option<&mut Tracer>) -> u64 {
        self.state = None;
        // Every set-up compiles as a fresh process would: cold proofs.
        reset_proof_cache();
        let mark = tr.is_some().then(ObsMark::now);
        let t0 = Instant::now();
        let (plan, compile_ns) = compile_timed(&self.stmts, &self.catalog);
        let plan = plan.expect("the workload program compiles");
        let t1 = Instant::now();
        let view = DatabaseView::new(&self.base);
        let view_ns = ns_since(t1);
        let ns = ns_since(t0);
        if let (Some(tr), Some(mark)) = (tr, mark) {
            record_plan(tr, &plan, &mark);
            tr.sample("sql.plan.compile", compile_ns as f64);
            tr.sample("relalg.view.build", view_ns as f64);
        }
        self.state = Some((plan, view));
        ns
    }

    fn op(&mut self, _i: u64, tr: Option<&mut Tracer>) -> Op {
        let (plan, base_view) = self.state.as_ref().expect("set up");
        let mut inst = self.base.clone();
        let mut view = base_view.clone();
        let mut counts = Vec::new();
        let (out, ns) = match tr {
            None => {
                let t0 = Instant::now();
                let out = plan.execute_viewed(&mut inst, &mut view);
                (out, ns_since(t0))
            }
            Some(tr) => {
                let mark = ObsMark::now();
                let t0 = Instant::now();
                let res = plan.execute_viewed_profiled(&mut inst, &mut view);
                let ns = ns_since(t0);
                let out = res.map(|(out, prof)| {
                    let span = execute_span(tr, ns, &prof);
                    tr.tree(span);
                    counts.extend(profile_rows(&prof));
                    out
                });
                obs_op_counts(tr, &mark);
                (out, ns)
            }
        };
        if self.corrupt {
            corrupt(&mut inst);
        }
        let ok = applied(&out) && inst == self.want && view == self.want_view;
        counts.extend(size_counts(&inst));
        Op {
            ns,
            extra_ns: 0,
            ok,
            counts,
        }
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }
}

// ---------------------------------------------------------------------
// adhoc_small: parse, compile and run a fresh program every op.
// ---------------------------------------------------------------------

/// Distinct programs per seed. Op `i` runs program `i mod PROGRAMS`, and
/// the process-wide proof cache is cleared at the start of each pass,
/// so every pass sees the same cache traffic however long the run is.
const ADHOC_PROGRAMS: usize = 1024;

pub struct Adhoc {
    base: Instance,
    programs: Vec<Vec<String>>,
    wants: Vec<(Instance, DatabaseView)>,
    state: Option<(Catalog, DatabaseView)>,
    corrupt: bool,
}

const ADHOC_EMPLOYEES: u32 = 32;

impl Adhoc {
    pub fn new(seed: u64) -> Self {
        let (es, catalog) = employee_catalog();
        let base = section7_base(&es, ADHOC_EMPLOYEES, 16, 2, seed);
        let programs: Vec<Vec<String>> = (0..ADHOC_PROGRAMS as u64)
            .map(|k| inputs::adhoc_program(seed, k))
            .collect();
        let wants = programs
            .iter()
            .map(|p| {
                let want = inputs::reference_apply(&inputs::parse_all(p), &catalog, &base);
                let view = DatabaseView::new(&want);
                (want, view)
            })
            .collect();
        Adhoc {
            base,
            programs,
            wants,
            state: None,
            corrupt: false,
        }
    }
}

impl Workload for Adhoc {
    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("employees", ADHOC_EMPLOYEES.to_string()),
            ("amounts", "16".to_owned()),
            ("programs_per_pass", ADHOC_PROGRAMS.to_string()),
            ("statements_per_program", "1-5".to_owned()),
        ]
    }

    fn setup(&mut self, tr: Option<&mut Tracer>) -> u64 {
        self.state = None;
        let t0 = Instant::now();
        let (_es, catalog) = employee_catalog();
        let t1 = Instant::now();
        let view = DatabaseView::new(&self.base);
        let view_ns = ns_since(t1);
        let ns = ns_since(t0);
        if let Some(tr) = tr {
            tr.sample("relalg.view.build", view_ns as f64);
        }
        self.state = Some((catalog, view));
        ns
    }

    fn op(&mut self, i: u64, tr: Option<&mut Tracer>) -> Op {
        let k = (i % ADHOC_PROGRAMS as u64) as usize;
        if k == 0 {
            reset_proof_cache();
        }
        let (catalog, base_view) = self.state.as_ref().expect("set up");
        let mut inst = self.base.clone();
        let mut view = base_view.clone();
        let mark = tr.is_some().then(ObsMark::now);
        let t0 = Instant::now();
        let stmts: Result<Vec<SqlStatement>, _> =
            self.programs[k].iter().map(|t| parse(t)).collect();
        let parse_ns = ns_since(t0);
        let mut compile_ns = 0;
        let mut exec_ns = 0;
        let mut prof = None;
        let mut compiled = None;
        let mut out = Err(receivers_sql::SqlError::Unsupported(
            "program did not parse".to_owned(),
        ));
        if let Ok(stmts) = stmts {
            let (plan, c_ns) = compile_timed(&stmts, catalog);
            compile_ns = c_ns;
            if let Ok(plan) = plan {
                let t2 = Instant::now();
                out = if tr.is_some() {
                    plan.execute_viewed_profiled(&mut inst, &mut view)
                        .map(|(o, p)| {
                            prof = Some(p);
                            o
                        })
                } else {
                    plan.execute_viewed(&mut inst, &mut view)
                };
                exec_ns = ns_since(t2);
                compiled = Some(plan);
            }
        }
        let ns = ns_since(t0);
        if let (Some(tr), Some(mark)) = (tr, mark) {
            if let Some(plan) = &compiled {
                record_plan(tr, plan, &mark);
            }
            let mut root = Span::new("op", ns)
                .child(Span::new("sql.parse", parse_ns))
                .child(Span::new("sql.plan.compile", compile_ns));
            if let Some(p) = &prof {
                root = root.child(execute_span(tr, exec_ns, p));
            }
            tr.tree(root);
            obs_op_counts(tr, &mark);
        }
        if self.corrupt {
            corrupt(&mut inst);
        }
        let (want, want_view) = &self.wants[k];
        let ok = applied(&out) && inst == *want && view == *want_view;
        let mut counts = size_counts(&inst).to_vec();
        counts.push(("statements", self.programs[k].len() as u64));
        if let Some(p) = &prof {
            counts.extend(profile_rows(p));
        }
        Op {
            ns,
            extra_ns: 0,
            ok,
            counts,
        }
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }
}

// ---------------------------------------------------------------------
// durable_restart: programs through the WAL, then a restart.
// ---------------------------------------------------------------------

/// Where stores live, relative to the working directory.
const WORK_DIR: &str = ".perfbench-work";

/// The flush policy: an fsync every 32 records, a checkpoint every 256,
/// so recovery decodes a snapshot and replays a log tail.
pub const FLUSH: WalConfig = WalConfig {
    group_commit: 32,
    snapshot_every: 256,
};
const DURABLE_EMPLOYEES: u32 = 128;
const DURABLE_AMOUNTS: u32 = 64;
/// Programs per cycle between store creation and restart.
const PROGRAMS_PER_CYCLE: usize = 6;

struct Cycle {
    inst: Instance,
    view: DatabaseView,
    store: DurableStore<DirStorage>,
    /// Programs run so far.
    done: usize,
}

pub struct Durable {
    es: EmployeeSchema,
    catalog: Catalog,
    stmts: Vec<SqlStatement>,
    base: Instance,
    /// Expected state after each program of a cycle.
    wants: Vec<(Instance, DatabaseView)>,
    dir: PathBuf,
    plan: Option<ProgramPlan>,
    base_view: Option<DatabaseView>,
    cycle: Option<Cycle>,
    recovery_ns: Vec<f64>,
    wal_bytes: u64,
    programs: u64,
    corrupt: bool,
}

impl Durable {
    pub fn new(seed: u64) -> Self {
        let (es, catalog) = employee_catalog();
        let base = section7_base(&es, DURABLE_EMPLOYEES, DURABLE_AMOUNTS, 1, seed);
        let stmts = inputs::parse_all(inputs::DURABLE_PROGRAM);
        let mut wants = Vec::with_capacity(PROGRAMS_PER_CYCLE);
        let mut cur = base.clone();
        for _ in 0..PROGRAMS_PER_CYCLE {
            cur = inputs::reference_apply(&stmts, &catalog, &cur);
            let view = DatabaseView::new(&cur);
            wants.push((cur.clone(), view));
        }
        // One directory per store in the process (tests run several).
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(WORK_DIR).join(format!("wal-{}-{k}", std::process::id()));
        Durable {
            es,
            catalog,
            stmts,
            base,
            wants,
            dir,
            plan: None,
            base_view: None,
            cycle: None,
            recovery_ns: Vec::new(),
            wal_bytes: 0,
            programs: 0,
            corrupt: false,
        }
    }

    fn fresh_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn create(&self, tr: Option<&mut Tracer>) -> (DurableStore<DirStorage>, u64) {
        self.fresh_dir();
        let t0 = Instant::now();
        let storage = DirStorage::open(&self.dir).expect("work directory is writable");
        let store = DurableStore::create(storage, self.es.schema.clone(), FLUSH, &self.base)
            .expect("store creation");
        let ns = ns_since(t0);
        if let Some(tr) = tr {
            tr.sample("wal.store.create", ns as f64);
        }
        (store, ns)
    }

    /// Replay recovery step by step through the public decoders, timing
    /// each; returns the recovered instance and view.
    fn traced_recovery(&self, tr: &mut Tracer) -> (Instance, DatabaseView) {
        let storage = DirStorage::open(&self.dir).expect("work directory");
        let t0 = Instant::now();
        let manifest = Manifest::decode(
            &storage
                .read("MANIFEST")
                .expect("readable")
                .expect("manifest exists"),
        )
        .expect("manifest decodes");
        let snap = storage
            .read(&manifest.snapshot_file())
            .expect("readable")
            .expect("snapshot exists");
        let t1 = Instant::now();
        let (mut inst, _header) =
            decode_snapshot(&snap, &self.es.schema).expect("snapshot decodes");
        let snap_ns = ns_since(t1);
        let log = storage
            .read(&manifest.wal_file())
            .expect("readable")
            .unwrap_or_default();
        let t2 = Instant::now();
        let decoded = decode_log(&log, manifest.last_seq + 1);
        let log_ns = ns_since(t2);
        let t3 = Instant::now();
        for r in &decoded.records {
            redo_ops(&mut inst, &mut NullObserver, &r.ops);
        }
        let redo_ns = ns_since(t3);
        let t4 = Instant::now();
        let view = DatabaseView::new(&inst);
        let view_ns = ns_since(t4);
        let total = ns_since(t0);
        tr.tree(
            Span::new("wal.recovery", total)
                .child(Span::new("wal.recovery.snapshot_decode", snap_ns))
                .child(Span::new("wal.recovery.log_decode", log_ns))
                .child(Span::new("wal.recovery.redo", redo_ns))
                .child(Span::new("wal.recovery.view_rebuild", view_ns)),
        );
        tr.sample("relalg.view.build", view_ns as f64);
        let t5 = Instant::now();
        let encoded = encode_snapshot(view.database(), manifest.epoch, manifest.last_seq);
        tr.sample("wal.snapshot.encode", ns_since(t5) as f64);
        tr.sample("wal.snapshot.bytes", encoded.len() as f64);
        (inst, view)
    }

    /// Sync, drop and reopen the store; check the recovered state.
    /// Returns the timed nanoseconds and whether the check passed.
    fn restart(&mut self, cycle: Cycle, tr: Option<&mut Tracer>) -> (u64, bool) {
        let Cycle {
            inst,
            view,
            mut store,
            ..
        } = cycle;
        let t0 = Instant::now();
        let synced = store.sync().is_ok();
        let sync_ns = ns_since(t0);
        drop(store);
        let shadow = tr.map(|tr| {
            tr.sample("wal.store.sync", sync_ns as f64);
            let (i, v) = self.traced_recovery(tr);
            (i, v, tr)
        });
        let t1 = Instant::now();
        let storage = DirStorage::open(&self.dir).expect("work directory");
        let opened = DurableStore::open(storage, self.es.schema.clone(), FLUSH);
        let open_ns = ns_since(t1);
        self.recovery_ns.push(open_ns as f64);
        let mut ok = synced;
        match opened {
            Ok((_store, rinst, rview, report)) => {
                ok &= rinst == inst && rview == view && rview.matches_rebuild(&rinst);
                if let Some((si, sv, tr)) = shadow {
                    ok &= si == rinst && sv == rview;
                    tr.sample("wal.recovery.open", open_ns as f64);
                    tr.sample(
                        "wal.recovery.records_replayed",
                        report.records_replayed as f64,
                    );
                    tr.sample("wal.recovery.ops_replayed", report.ops_replayed as f64);
                }
            }
            Err(_) => ok = false,
        }
        (sync_ns + open_ns, ok)
    }
}

impl Workload for Durable {
    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("employees", DURABLE_EMPLOYEES.to_string()),
            ("amounts", DURABLE_AMOUNTS.to_string()),
            ("statements", self.stmts.len().to_string()),
            ("programs_per_cycle", PROGRAMS_PER_CYCLE.to_string()),
            ("group_commit", FLUSH.group_commit.to_string()),
            ("snapshot_every", FLUSH.snapshot_every.to_string()),
            (
                "storage",
                "DirStorage on the checkout's file system".to_owned(),
            ),
        ]
    }

    fn setup(&mut self, mut tr: Option<&mut Tracer>) -> u64 {
        self.cycle = None;
        self.plan = None;
        reset_proof_cache();
        let mark = tr.is_some().then(ObsMark::now);
        let t0 = Instant::now();
        let (plan, compile_ns) = compile_timed(&self.stmts, &self.catalog);
        let plan = plan.expect("the workload program compiles");
        let t1 = Instant::now();
        let view = DatabaseView::new(&self.base);
        let view_ns = ns_since(t1);
        let pre_ns = ns_since(t0);
        let (store, create_ns) = self.create(tr.as_deref_mut());
        if let (Some(tr), Some(mark)) = (tr, mark) {
            record_plan(tr, &plan, &mark);
            tr.sample("sql.plan.compile", compile_ns as f64);
            tr.sample("relalg.view.build", view_ns as f64);
        }
        self.cycle = Some(Cycle {
            inst: self.base.clone(),
            view: view.clone(),
            store,
            done: 0,
        });
        self.plan = Some(plan);
        self.base_view = Some(view);
        pre_ns + create_ns
    }

    fn op(&mut self, _i: u64, mut tr: Option<&mut Tracer>) -> Op {
        let mut extra_ns = 0;
        let mut cycle = match self.cycle.take() {
            Some(c) => c,
            None => {
                let (store, ns) = self.create(tr.as_deref_mut());
                extra_ns += ns;
                Cycle {
                    inst: self.base.clone(),
                    view: self.base_view.clone().expect("set up"),
                    store,
                    done: 0,
                }
            }
        };
        let plan = self.plan.as_ref().expect("set up");
        let w0 = cycle.store.stats();
        let mut rows = None;
        let t0 = Instant::now();
        let (out, ns) = match tr.as_deref_mut() {
            None => {
                let out = plan.execute_durable(&mut cycle.inst, &mut cycle.view, &mut cycle.store);
                (out, ns_since(t0))
            }
            Some(tr) => {
                let res = plan.execute_durable_profiled(
                    &mut cycle.inst,
                    &mut cycle.view,
                    &mut cycle.store,
                );
                let ns = ns_since(t0);
                let out = res.map(|(out, prof)| {
                    let span = execute_span(tr, ns, &prof);
                    tr.tree(span);
                    rows = Some(profile_rows(&prof));
                    out
                });
                (out, ns)
            }
        };
        let w = cycle.store.stats();
        let d = WalStats {
            records: w.records - w0.records,
            bytes: w.bytes - w0.bytes,
            syncs: w.syncs - w0.syncs,
            sync_ns: w.sync_ns - w0.sync_ns,
            checkpoints: w.checkpoints - w0.checkpoints,
        };
        if let Some(tr) = tr.as_deref_mut() {
            tr.add("wal.append.records", d.records as f64);
            tr.add("wal.append.bytes", d.bytes as f64);
            tr.add("wal.sync.count", d.syncs as f64);
            tr.add("wal.checkpoint.count", d.checkpoints as f64);
        }
        self.wal_bytes += d.bytes;
        self.programs += 1;
        if self.corrupt {
            corrupt(&mut cycle.inst);
        }
        let (want, want_view) = &self.wants[cycle.done];
        let mut ok = applied(&out) && cycle.inst == *want && cycle.view == *want_view;
        cycle.done += 1;
        let mut counts = size_counts(&cycle.inst).to_vec();
        counts.extend([
            ("wal.records", d.records),
            ("wal.bytes", d.bytes),
            ("wal.syncs", d.syncs),
            ("wal.checkpoints", d.checkpoints),
        ]);
        counts.extend(rows.into_iter().flatten());
        if !ok {
            // The next op starts a fresh cycle from the base.
            drop(cycle);
            self.fresh_dir();
        } else if cycle.done == PROGRAMS_PER_CYCLE {
            let (restart_ns, restart_ok) = self.restart(cycle, tr);
            extra_ns += restart_ns;
            ok &= restart_ok;
        } else {
            self.cycle = Some(cycle);
        }
        Op {
            ns,
            extra_ns,
            ok,
            counts,
        }
    }

    fn extras(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "recovery_p50_ms",
                crate::util::median(&self.recovery_ns) / 1e6,
                "ms",
            ),
            (
                "wal_bytes_per_op",
                self.wal_bytes as f64 / self.programs.max(1) as f64,
                "bytes",
            ),
            ("restarts", self.recovery_ns.len() as f64, "count"),
        ]
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }

    fn cleanup(&mut self) {
        self.cycle = None;
        self.fresh_dir();
        // The shared parent goes too once no other run uses it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

// ---------------------------------------------------------------------
// receiver_waves: the paper's operation through the sharded executor.
// ---------------------------------------------------------------------

const WAVE_DRINKERS: u32 = 1024;
const WAVE_RECEIVERS: usize = 512;

struct WaveState {
    inst: Instance,
    view: DatabaseView,
    exec: ShardedExecutor<'static>,
    shadow: Instance,
    shadow_view: DatabaseView,
}

pub struct Waves {
    s: BeerSchema,
    method: &'static AlgebraicMethod,
    base: Instance,
    receiving: Vec<u32>,
    seed: u64,
    threads: usize,
    state: Option<WaveState>,
    corrupt: bool,
}

impl Waves {
    pub fn new(seed: u64, threads: usize) -> Self {
        let mut rng = Rng::stream(seed, 3);
        let mut drinkers: Vec<u32> = (0..WAVE_DRINKERS).collect();
        rng.shuffle(&mut drinkers);
        drinkers.truncate(WAVE_RECEIVERS);
        let (s, base) = inputs::beer_instance(WAVE_DRINKERS, &drinkers, &mut rng);
        // One method for the whole run; the executor borrows it.
        let method: &'static AlgebraicMethod =
            Box::leak(Box::new(receivers_core::methods::favorite_bar(&s)));
        Waves {
            s,
            method,
            base,
            receiving: drinkers,
            seed,
            threads,
            state: None,
            corrupt: false,
        }
    }
}

impl Workload for Waves {
    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("drinkers", WAVE_DRINKERS.to_string()),
            ("receivers_per_wave", WAVE_RECEIVERS.to_string()),
            ("method", "favorite_bar".to_owned()),
            ("shards", self.threads.to_string()),
        ]
    }

    fn setup(&mut self, tr: Option<&mut Tracer>) -> u64 {
        self.state = None;
        let mut inst = self.base.clone();
        let mark = tr.is_some().then(ObsMark::now);
        let t0 = Instant::now();
        let view = DatabaseView::new(&inst);
        let view_ns = ns_since(t0);
        let cert = certify(self.method);
        assert!(cert.shard_safe(), "favorite_bar must certify shard-safe");
        let cfg = ShardConfig {
            shards: Some(self.threads),
            ..ShardConfig::default()
        };
        let mut exec = ShardedExecutor::with_certificate(self.method, cert, &cfg);
        // An empty wave builds the per-shard replicas.
        let (out, log) = exec.apply_logged(&mut inst, &[]);
        let ns = ns_since(t0);
        assert!(out.is_applied() && log.is_empty(), "warm-up writes nothing");
        if let (Some(tr), Some(mark)) = (tr, mark) {
            tr.sample("relalg.view.build", view_ns as f64);
            tr.sample(
                "core.shard.replica_builds",
                mark.delta("core.shard.replica_builds") as f64,
            );
        }
        let shadow = self.base.clone();
        let shadow_view = DatabaseView::new(&shadow);
        self.state = Some(WaveState {
            inst,
            view,
            exec,
            shadow,
            shadow_view,
        });
        ns
    }

    fn op(&mut self, i: u64, tr: Option<&mut Tracer>) -> Op {
        let order: Vec<Receiver> =
            inputs::wave(&self.s, WAVE_DRINKERS, &self.receiving, self.seed, i);
        let st = self.state.as_mut().expect("set up");
        let mark = tr.is_some().then(ObsMark::now);
        let t0 = Instant::now();
        let (out, log, stats) = if tr.is_some() {
            let (o, l, s) = st.exec.apply_logged_stats(&mut st.inst, &order);
            (o, l, Some(s))
        } else {
            let (o, l) = st.exec.apply_logged(&mut st.inst, &order);
            (o, l, None)
        };
        let wave_ns = ns_since(t0);
        let t1 = Instant::now();
        for op in &log {
            st.view.applied(op);
        }
        st.view.batch_end();
        let apply_ns = ns_since(t1);
        let ns = ns_since(t0);
        let mut lanes = Vec::new();
        if let (Some(tr), Some(stats), Some(mark)) = (tr, stats, mark) {
            lanes = vec![
                ("local_receivers", stats.local_receivers),
                ("coordinated_receivers", stats.coordinated_receivers),
                ("segments", stats.segments),
            ];
            tr.tree(
                Span::new("op", ns)
                    .child(Span::new("core.shard.wave", wave_ns))
                    .child(Span::new("relalg.view.apply", apply_ns)),
            );
            let busy: Vec<u64> = stats.lanes.iter().map(|l| l.busy_ns).collect();
            let busy_sum: u64 = busy.iter().sum();
            let busy_max = busy.iter().copied().max().unwrap_or(0);
            tr.add("core.shard.local_receivers", stats.local_receivers as f64);
            tr.add(
                "core.shard.coordinated_receivers",
                stats.coordinated_receivers as f64,
            );
            tr.add("core.shard.segments", stats.segments as f64);
            tr.add("core.shard.lane_busy_ns", busy_sum as f64);
            tr.add(
                "core.shard.lane_wait_ns",
                stats.lanes.iter().map(|l| l.wait_ns).sum::<u64>() as f64,
            );
            if busy_sum > 0 {
                let mean = busy_sum as f64 / busy.len() as f64;
                tr.add("core.shard.lane_imbalance", busy_max as f64 / mean);
            }
            tr.add("core.shard.net_ops", log.len() as f64);
            obs_op_counts(tr, &mark);
        }
        let want = self
            .method
            .apply_sequence_viewed(&mut st.shadow, &mut st.shadow_view, &order);
        if self.corrupt {
            corrupt(&mut st.inst);
        }
        let ok = out.is_applied()
            && want.is_applied()
            && st.inst == st.shadow
            && st.view == st.shadow_view;
        if !ok {
            // Continue from the reference state.
            st.inst = st.shadow.clone();
            st.view = st.shadow_view.clone();
            st.exec.invalidate();
        }
        let mut counts = vec![
            ("receivers", order.len() as u64),
            ("net_ops", log.len() as u64),
            ("out.edges", st.inst.edge_count() as u64),
        ];
        counts.extend(lanes);
        Op {
            ns,
            extra_ns: 0,
            ok,
            counts,
        }
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }
}
