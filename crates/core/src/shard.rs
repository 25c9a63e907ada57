//! Coloring-certified sharded execution: per-shard lanes over a
//! hash-partitioned object base.
//!
//! Sequential application `M(I, t₁…tₙ)` funnels every receiver through one
//! maintained view and one transaction stream; Section 6's observation is
//! that receivers whose effects cannot interact may as well run apart.
//! This module makes that operational *without* giving up the sequential
//! semantics:
//!
//! 1. **Partition.** [`shard_of`] hash-partitions the object base: every
//!    object belongs to exactly one of `n` shards (Fibonacci hash over
//!    `(class, index)`, deterministic across runs and platforms).
//!
//! 2. **Certify.** [`certify`] computes the method's syntactic footprint
//!    ([`method_footprint`]) and checks the *shard-containment rule*: the
//!    properties written (always the receiving object's own edges, by
//!    Section 5.2) must be disjoint from the properties read by non-keep
//!    arms. Keep-pattern reads are pinned to `self` and class relations
//!    are constant under algebraic application, so under this rule every
//!    read either stays inside the receiver's shard or touches state no
//!    receiver writes — two receivers in different shards commute, and a
//!    shard evaluates against a pruned replica without seeing the others'
//!    writes. The rule is finer than coloring simplicity (a plain
//!    overwrite like `favorite_bar` is shard-safe yet order-dependent) and
//!    incomparable to order independence (the Example 6.4 transitive-
//!    closure method is order-independent on key sets but reads what it
//!    writes, so it is correctly refused).
//!
//! 3. **Plan.** [`ShardPlan`] assigns each receiver [`Assignment::Local`]
//!    when the method is certified and *all* its component objects land in
//!    one shard, else [`Assignment::Coordinated`]. Coordinated receivers
//!    run one at a time on the caller's thread, in order, and act as
//!    barriers between parallel segments, so results stay bit-identical to
//!    [`AlgebraicMethod::apply_sequence_viewed`] whatever the mix.
//!
//! 4. **Execute.** A [`ShardedExecutor`] keeps one **pruned replica** of
//!    the database per shard — written properties filtered to the shard's
//!    rows, everything else a copy-on-write clone — so a point edit costs
//!    `O(E/n)` instead of `O(E)`. Each segment of consecutive Local
//!    receivers makes one [`receivers_rt::shard_map`] call: scoped workers,
//!    spawned for that segment, claim whole shards from one cursor and run
//!    each shard's receivers in order (segments under 64 receivers run
//!    inline on the caller's thread). A coordinated receiver evaluates
//!    against its receiving object's home replica. Receivers record the
//!    **netted** delta against their replica (what changed, not the gross
//!    rewrite) and never touch shared state. Replicas outlive a wave, so a
//!    stream of waves pays the `O(E)` build once; one-shot use is an
//!    executor used once.
//!
//! 5. **Merge.** After the join, per-shard logs are replayed into the real
//!    instance with [`redo_ops`] in shard order and appended to the wave's
//!    log, preserving the whole-sequence rollback contract: any failure
//!    (reported at the *lowest* global receiver index, matching the
//!    sequential first-failure semantics) rolls everything back via
//!    [`undo_ops`]. Callers that maintain a relational view replay the
//!    returned log into it ([`ShardedExecutor::apply_planned`] does).
//!
//! **Determinism argument.** Within a shard, one worker processes
//! receivers in sequence order. Across shards, writes are keyed by the
//! receiving object (write locality, falsifiable via
//! `receivers_coloring::infer::check_write_locality`), so distinct shards
//! edit disjoint `(src, prop)` row groups; the instance's `EdgeIndex` and
//! the view's `TupleSet`s are insertion-order-insensitive containers, so
//! replaying shard 0's log before shard 1's yields the same final state as
//! the sequential interleaving. The differential suite
//! (`tests/shard_differential.rs`) pins bit-identical instance hash,
//! `EdgeIndex`, and maintained view against the sequential path across
//! hundreds of seeded cases, forced fallbacks and mid-sequence rollbacks
//! included.

use std::borrow::Cow;
use std::time::Instant;

use receivers_objectbase::{
    redo_ops, sorted_diff, undo_ops, DeltaObserver, DeltaOp, Edge, InPlaceOutcome, Instance, Oid,
    PropId, Receiver, UpdateMethod,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::view::DatabaseView;
use receivers_relalg::RelName;
use receivers_rt as rt;
use receivers_wal::{DurableStore, WalResult, WalStorage};

use crate::algebraic::AlgebraicMethod;
use crate::coloring_bridge::{method_footprint, MethodFootprint};

obs::counter!(C_PLANS, "core.shard.plans");
obs::counter!(C_LOCAL, "core.shard.local_receivers");
obs::counter!(C_COORDINATED, "core.shard.coordinated_receivers");
obs::counter!(C_SEGMENTS, "core.shard.segments");
obs::counter!(C_MERGED_OPS, "core.shard.merged_ops");
obs::counter!(C_ROLLBACKS, "core.shard.rollbacks");
obs::counter!(C_REPLICA_BUILDS, "core.shard.replica_builds");
obs::counter!(C_DISCHARGED, "core.shard.sat.discharged_conflicts");
obs::counter!(C_UPGRADED, "core.shard.sat.upgraded_receivers");

/// The shard of object `o` under an `n`-way partition: a Fibonacci hash of
/// `(class, index)`, so consecutive indices of one class spread across
/// shards. Deterministic — plans, benches and differential runs all agree
/// on the partition.
pub fn shard_of(o: Oid, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let key = (u64::from(o.class.0) << 32) | u64::from(o.index);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// The shard-containment certificate of a method: its footprint plus the
/// conflict set `reads ∩ writes`. Empty conflicts ⇒ any two receivers in
/// different shards commute and shard-local evaluation is exact (see the
/// module docs for the argument).
///
/// A conflict is a *syntactic* over-approximation: the footprint records
/// that a written property is also read, not *where* it is read. A finer
/// analysis that proves every read of a conflicting property is pinned to
/// the receiving row itself — the SQL layer's satisfiability solver does
/// this for compiled cursor updates (`receivers_sql::sat`) — may
/// [`discharge`](Self::discharge) the conflict: the home replica holds
/// the receiving row's current value (the worker keeps it current in
/// sequence order), so a self-pinned read is exact even while other
/// shards rewrite *their* rows of the same property in parallel.
#[derive(Debug, Clone)]
pub struct ShardCertificate {
    /// The syntactic read/write footprint the verdict is computed from.
    pub footprint: MethodFootprint,
    /// Properties both written and read by a non-keep arm — each one a
    /// channel through which one receiver's effect could reach another's
    /// evaluation.
    pub conflicts: std::collections::BTreeSet<PropId>,
    /// Conflicts an external proof has discharged: every read of the
    /// property is pinned to the receiving row, so the channel cannot
    /// carry another receiver's effect. Always a subset of `conflicts`.
    pub discharged: std::collections::BTreeSet<PropId>,
}

impl ShardCertificate {
    /// `true` when every receiver whose components share a shard may run
    /// on that shard's lane: no conflict remains undischarged.
    pub fn shard_safe(&self) -> bool {
        self.conflicts.is_subset(&self.discharged)
    }

    /// Discharge a conflict on the strength of an external self-pinned-
    /// reads proof. Returns `false` (and records nothing) for a property
    /// that is not in conflict — discharging it would be meaningless.
    pub fn discharge(&mut self, prop: PropId) -> bool {
        if !self.conflicts.contains(&prop) {
            return false;
        }
        if self.discharged.insert(prop) {
            C_DISCHARGED.incr();
        }
        true
    }

    /// The conflicts still blocking sharded execution.
    pub fn undischarged(&self) -> impl Iterator<Item = PropId> + '_ {
        self.conflicts
            .iter()
            .filter(|p| !self.discharged.contains(p))
            .copied()
    }
}

/// Certify `method` for sharded execution. Purely syntactic — `O(|method|)`.
pub fn certify(method: &AlgebraicMethod) -> ShardCertificate {
    let footprint = method_footprint(method);
    let conflicts = footprint
        .reads
        .intersection(&footprint.writes)
        .copied()
        .collect();
    ShardCertificate {
        footprint,
        conflicts,
        discharged: std::collections::BTreeSet::new(),
    }
}

/// Where one receiver of the order executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// On the lane of this shard (all components co-sharded, method
    /// certified).
    Local(u32),
    /// On the ordered coordinator path — the sequential body, acting as a
    /// barrier between parallel segments.
    Coordinated,
}

/// The planner's verdict for one receiver order: shard count plus one
/// [`Assignment`] per receiver, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    assignments: Vec<Assignment>,
}

impl ShardPlan {
    /// Plan `order` for `method` over `shards` shards: receivers go Local
    /// exactly when the certificate allows it and all their component
    /// objects (receiver and arguments) fall in the receiving object's
    /// shard.
    pub fn new(method: &AlgebraicMethod, order: &[Receiver], shards: usize) -> Self {
        Self::with_certificate(&certify(method), order, shards)
    }

    /// [`ShardPlan::new`] with a precomputed certificate — the planner is
    /// on the per-wave path of the [`ShardedExecutor`], which certifies
    /// its method once at construction.
    pub fn with_certificate(
        certificate: &ShardCertificate,
        order: &[Receiver],
        shards: usize,
    ) -> Self {
        Self::assign(certificate, order, shards, false)
    }

    /// [`ShardPlan::with_certificate`] with the **home-replica upgrade**:
    /// every receiver of a shard-safe method goes `Local` on its
    /// receiving object's shard, co-sharded arguments or not.
    ///
    /// The co-shard rule of [`ShardPlan::with_certificate`] is purely
    /// conservative for a shard-safe method: argument objects are only
    /// ever *values* and selection keys against class relations and
    /// unwritten properties — both whole on every replica — while reads
    /// of written properties are pinned to the receiving row (keep arms
    /// by construction, discharged conflicts by proof), which the home
    /// replica holds and keeps current. So evaluating on the receiving
    /// object's home shard is exact wherever the arguments live, and the
    /// cross-shard merge stays disjoint because writes are keyed by the
    /// receiving object. An upgraded plan runs through
    /// [`ShardedExecutor::apply_planned`]; the executor's own
    /// [`plan`](ShardedExecutor::plan) keeps the co-shard rule.
    pub fn with_certificate_upgraded(
        certificate: &ShardCertificate,
        order: &[Receiver],
        shards: usize,
    ) -> Self {
        Self::assign(certificate, order, shards, true)
    }

    fn assign(
        certificate: &ShardCertificate,
        order: &[Receiver],
        shards: usize,
        upgrade: bool,
    ) -> Self {
        C_PLANS.incr();
        let shards = shards.max(1);
        let safe = certificate.shard_safe();
        let assignments = order
            .iter()
            .map(|t| {
                if !safe {
                    return Assignment::Coordinated;
                }
                let home = shard_of(t.receiving_object(), shards);
                if t.objects().iter().all(|&o| shard_of(o, shards) == home) {
                    Assignment::Local(home as u32)
                } else if upgrade {
                    C_UPGRADED.incr();
                    Assignment::Local(home as u32)
                } else {
                    Assignment::Coordinated
                }
            })
            .collect();
        Self {
            shards,
            assignments,
        }
    }

    /// Number of shards this plan partitions over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-receiver assignments, in order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Force receiver `idx` onto the coordinator path — how tests and
    /// benches inject cross-shard fallbacks at will.
    pub fn coordinate(&mut self, idx: usize) {
        self.assignments[idx] = Assignment::Coordinated;
    }

    /// How many receivers run shard-locally.
    pub fn local_count(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| matches!(a, Assignment::Local(_)))
            .count()
    }

    /// How many receivers fall back to the coordinator.
    pub fn coordinated_count(&self) -> usize {
        self.assignments.len() - self.local_count()
    }
}

/// Execution knobs for a [`ShardedExecutor`] (and, through it, the SQL
/// layer's sharded program sessions).
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Shard count; `None` follows [`rt::num_threads`] so the partition
    /// matches the worker count.
    pub shards: Option<usize>,
}

/// One shard's contribution to a segment: the concatenated delta log of
/// its receivers (in order), or the first failure.
#[derive(Default)]
struct ShardRun {
    log: Vec<DeltaOp>,
    err: Option<(usize, String)>,
    /// Receivers this lane applied.
    receivers: u64,
    /// Nanoseconds from the segment's fan-out to this lane's start (0
    /// when untimed).
    wait_ns: u64,
    /// Wall nanoseconds inside the worker closure (0 when untimed).
    busy_ns: u64,
}

/// One shard lane's accumulated measurements across a wave's segments,
/// reported by [`ShardedExecutor::apply_logged_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardLaneStats {
    /// Shard index the lane served.
    pub shard: usize,
    /// Receivers applied on this lane.
    pub receivers: u64,
    /// Nanoseconds from each segment's fan-out until the lane started:
    /// thread start-up and claim order on the worker path, the earlier
    /// shards' run time on the inline path.
    pub wait_ns: u64,
    /// Wall nanoseconds the lane's worker closure ran for.
    pub busy_ns: u64,
}

/// Wave-level measurements from [`ShardedExecutor::apply_logged_stats`]:
/// how the order split between the worker lanes and the ordered
/// coordinator path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Receivers that ran on per-shard worker lanes.
    pub local_receivers: u64,
    /// Receivers that fell back to the ordered coordinator path.
    pub coordinated_receivers: u64,
    /// Maximal Local segments, each one [`rt::shard_map`] call.
    pub segments: u64,
    /// Per-shard lane measurements, indexed by shard.
    pub lanes: Vec<ShardLaneStats>,
}

/// An instance-only delta sink: the [`ShardedExecutor`] maintains no full
/// relational view, so its merge and rollback edit the instance alone.
struct NoView;

impl DeltaObserver for NoView {
    fn applied(&mut self, _op: &DeltaOp) {}
    fn undone(&mut self, _op: &DeltaOp) {}
    fn batch_end(&mut self) {}
}

/// Apply one certified receiver against a shard replica: validate,
/// evaluate, then per statement append the **netted** delta (the
/// [`sorted_diff`] of the current successors against the new value, in
/// ascending destination order) to `log` and keep the replica current.
///
/// Statements are applied to the replica one at a time, so a later
/// statement's current-value probe sees an earlier statement's edits —
/// exactly the live-transaction semantics of the sequential body. The
/// netted log reaches the same final state as the sequential
/// remove-all/add-all op stream (removing then re-adding an edge is the
/// identity on the instance), which is what makes the merged result
/// bit-identical while the real instance consumes `O(changed)` ops
/// instead of `O(rewritten)`.
fn apply_on_replica(
    method: &AlgebraicMethod,
    instance: &Instance,
    replica: &mut DatabaseView,
    t: &Receiver,
    log: &mut Vec<DeltaOp>,
) -> Result<(), String> {
    t.validate(method.signature(), instance)
        .map_err(|e| e.to_string())?;
    let results = method
        .evaluate_on(replica.database(), t)
        .map_err(|e| e.to_string())?;
    let recv = t.receiving_object();
    for (prop, mut new) in results {
        // A unary result column is already canonical (ascending,
        // distinct); guard the invariant rather than assume it.
        if !new.windows(2).all(|w| w[0] < w[1]) {
            new.sort_unstable();
            new.dedup();
        }
        let start = log.len();
        let old = replica.database().prop_successors(prop, recv);
        sorted_diff(old, new, |dst, add| {
            let e = Edge::new(recv, prop, dst);
            log.push(if add {
                DeltaOp::AddedEdge(e)
            } else {
                DeltaOp::RemovedEdge(e)
            });
        });
        if log.len() == start {
            continue;
        }
        for op in &log[start..] {
            replica.applied(op);
        }
        replica.batch_end();
    }
    Ok(())
}

/// The worker's replica of the shared database: written properties pruned
/// to the shard's row group, everything else a plain copy. `O(E)` to
/// build, amortized over the shard's receivers; thereafter every point
/// edit moves `O(E/n)` instead of `O(E)`.
fn pruned_database(base: &Database, written: &[PropId], shard: usize, shards: usize) -> Database {
    let mut db = base.clone();
    for &p in written {
        let Ok(rel) = db.relation(RelName::Prop(p)) else {
            continue;
        };
        let mut dels: Vec<Oid> = Vec::new();
        for t in rel.tuples() {
            if shard_of(t[0], shards) != shard {
                dels.extend_from_slice(&t[..2]);
            }
        }
        if !dels.is_empty() {
            db.apply_edge_edits(p, &[], &dels)
                .expect("pruned rows come from the relation itself");
        }
    }
    db
}

/// Sharded execution of one method: the only sharded engine. The
/// per-shard pruned replicas outlive a single
/// [`apply`](ShardedExecutor::apply), so a stream of receiver sequences —
/// reconciliation waves, incremental loads — pays the `O(E)` replica
/// construction once and thereafter only `O(changed)` per wave; one-shot
/// sharding is an executor used once.
///
/// The executor maintains **no full relational view**. Certified
/// receivers (local *and* coordinated) evaluate against the receiving
/// object's home replica, which is exact because a certified method reads
/// written properties only through keep arms pinned to `self` (rows the
/// home replica holds), and everything else it reads — class relations,
/// read-only properties — is never pruned and never changes under the
/// method. Cross-shard receivers run on the ordered coordinator path
/// (caller thread, between segments), preserving the barrier semantics.
/// A caller that keeps a view replays the wave's delta log into it
/// ([`apply_logged`](Self::apply_logged),
/// [`apply_planned`](Self::apply_planned)).
///
/// **Stewardship contract:** between applies the executor assumes the
/// instance is not mutated behind its back — replicas are maintained
/// incrementally from the deltas the executor itself produces. After any
/// out-of-band mutation call [`invalidate`](ShardedExecutor::invalidate)
/// to force a rebuild on the next apply. A failed apply rolls the
/// instance back and invalidates automatically.
///
/// Methods that do not certify ([`ShardCertificate::shard_safe`] false)
/// degrade to the plain sequential path inside `apply`, `apply_durable`
/// and `apply_planned` — correct, just not sharded.
pub struct ShardedExecutor<'m> {
    method: &'m AlgebraicMethod,
    certificate: ShardCertificate,
    written: Vec<PropId>,
    shards: usize,
    replicas: Vec<std::sync::Mutex<Option<DatabaseView>>>,
    /// True while an apply is in flight; still true on the next apply
    /// only if the previous one panicked out mid-run, in which case the
    /// replicas are untrusted and rebuilt.
    dirty: bool,
}

impl<'m> ShardedExecutor<'m> {
    /// Build an executor for `method` under `cfg` (shard count defaults
    /// to [`rt::num_threads`]). Replicas are built lazily on first use.
    pub fn new(method: &'m AlgebraicMethod, cfg: &ShardConfig) -> Self {
        Self::with_certificate(method, certify(method), cfg)
    }

    /// [`ShardedExecutor::new`] with an externally refined certificate —
    /// typically [`certify`]'s output with conflicts discharged by the
    /// SQL layer's self-pinned-reads proofs. The caller vouches for every
    /// discharge: a wrongly discharged conflict silently diverges from
    /// the sequential semantics.
    pub fn with_certificate(
        method: &'m AlgebraicMethod,
        certificate: ShardCertificate,
        cfg: &ShardConfig,
    ) -> Self {
        let shards = cfg.shards.unwrap_or_else(rt::num_threads).max(1);
        Self {
            method,
            certificate,
            written: method.updated_properties(),
            shards,
            replicas: (0..shards).map(|_| std::sync::Mutex::new(None)).collect(),
            dirty: false,
        }
    }

    /// The certificate the executor plans with.
    pub fn certificate(&self) -> &ShardCertificate {
        &self.certificate
    }

    /// Number of shards the executor partitions over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Drop all replicas; the next apply rebuilds them from the instance.
    /// Required after any mutation of the instance outside this executor.
    pub fn invalidate(&mut self) {
        for cell in &self.replicas {
            *lock_replica(cell) = None;
        }
    }

    /// How many replicas are currently built — persistence is observable:
    /// a second apply over the same shards builds nothing.
    pub fn replicas_built(&self) -> usize {
        self.replicas
            .iter()
            .filter(|c| lock_replica(c).is_some())
            .count()
    }

    /// Build every missing replica: one `O(E)` shared relational encoding
    /// — `base` when the caller already maintains it, else built from the
    /// instance — then a near-free copy-on-write clone plus a
    /// written-property prune per shard.
    fn ensure_replicas(&mut self, instance: &Instance, base: Option<&Database>) {
        if self.dirty {
            self.invalidate();
        }
        self.dirty = true;
        if self.replicas_built() == self.shards {
            return;
        }
        let base = base.map_or_else(
            || Cow::Owned(Database::from_instance(instance)),
            Cow::Borrowed,
        );
        for (shard, cell) in self.replicas.iter().enumerate() {
            let mut slot = lock_replica(cell);
            if slot.is_none() {
                C_REPLICA_BUILDS.incr();
                *slot = Some(DatabaseView::from_database(pruned_database(
                    &base,
                    &self.written,
                    shard,
                    self.shards,
                )));
            }
        }
    }

    /// The plan the executor runs `order` under: the co-shard rule of
    /// [`ShardPlan::with_certificate`]. An upgraded plan
    /// ([`ShardPlan::with_certificate_upgraded`]) runs through
    /// [`apply_planned`](Self::apply_planned).
    pub fn plan(&self, order: &[Receiver]) -> ShardPlan {
        ShardPlan::with_certificate(&self.certificate, order, self.shards)
    }

    /// Apply `method` to each receiver of `order` in turn — semantically
    /// identical to the sequential path on the instance (same final
    /// instance, same outcome), with certified receivers on per-shard
    /// lanes and replicas carried over from previous applies.
    pub fn apply(&mut self, instance: &mut Instance, order: &[Receiver]) -> InPlaceOutcome {
        if order.is_empty() {
            return InPlaceOutcome::Applied;
        }
        if !self.certificate.shard_safe() {
            // Uncertified methods read what they write: no replica is
            // sound, so run the plain sequential reference path.
            return self.method.apply_in_place_sequence(instance, order);
        }
        self.apply_logged(instance, order).0
    }

    /// [`ShardedExecutor::apply`] under an explicit `plan` (covering
    /// `order`, over this executor's shard count), with `view` maintained
    /// from the wave's delta log — bit-identical to
    /// [`AlgebraicMethod::apply_sequence_viewed`]. Tests and benches use
    /// it to force coordinator fallbacks ([`ShardPlan::coordinate`]) or an
    /// upgraded plan. The plan never overrides the certificate: a method
    /// that is not shard-safe still takes the sequential path. Missing
    /// replicas are pruned from `view`'s encoding, which must match the
    /// instance, instead of a fresh one.
    pub fn apply_planned(
        &mut self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        order: &[Receiver],
        plan: &ShardPlan,
    ) -> InPlaceOutcome {
        assert_eq!(
            plan.assignments.len(),
            order.len(),
            "plan must cover the order"
        );
        assert_eq!(
            plan.shards, self.shards,
            "plan must use the executor's shards"
        );
        if !self.certificate.shard_safe() {
            return self.method.apply_sequence_viewed(instance, view, order);
        }
        let (outcome, log) =
            self.run_wave(instance, order, Some(plan), Some(view.database()), None);
        for op in &log {
            view.applied(op);
        }
        view.batch_end();
        outcome
    }

    /// [`ShardedExecutor::apply`] with durability: the wave's delta log
    /// is appended to `store` as one WAL record once fully applied (a
    /// failed wave rolls back in memory before anything is persisted, so
    /// the WAL only ever sees applied waves), and the store checkpoints
    /// when its threshold is crossed. Uncertified methods degrade to the
    /// per-receiver durable sequence driver over a freshly built view.
    /// On `Err` the in-memory state is ahead of the durable state; the
    /// caller must recover via [`DurableStore::open`].
    pub fn apply_durable<S: WalStorage>(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
        store: &mut DurableStore<S>,
    ) -> WalResult<InPlaceOutcome> {
        if order.is_empty() {
            return Ok(InPlaceOutcome::Applied);
        }
        if !self.certificate.shard_safe() {
            let mut view = DatabaseView::new(instance);
            return self
                .method
                .apply_sequence_durable(instance, &mut view, order, store);
        }
        let (outcome, seq_log) = self.apply_logged(instance, order);
        if matches!(outcome, InPlaceOutcome::Applied) {
            store.commit(&seq_log)?;
            if store.should_checkpoint() {
                // The executor maintains no full view, so the checkpoint
                // pays one O(N + E) conversion — amortized over
                // `snapshot_every` waves.
                store.checkpoint(instance)?;
            }
        }
        Ok(outcome)
    }

    /// The certified wave body shared by the apply methods; returns the
    /// wave's delta log alongside the outcome (empty unless `Applied`).
    /// Public so program executors (the `sql::plan` sharded session) can
    /// replay the log into their own maintained views; the caller must
    /// hold a shard-safe certificate — this body runs certified receivers
    /// on shard lanes without the `apply` fallback check.
    pub fn apply_logged(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
    ) -> (InPlaceOutcome, Vec<DeltaOp>) {
        self.run_wave(instance, order, None, None, None)
    }

    /// [`apply_logged`](Self::apply_logged), additionally measuring the
    /// wave: per-lane receiver counts, start waits, and busy time, plus
    /// the local/coordinated split. Identical results; the only extra cost
    /// is a few clock reads per lane per segment.
    pub fn apply_logged_stats(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
    ) -> (InPlaceOutcome, Vec<DeltaOp>, WaveStats) {
        let mut stats = WaveStats::default();
        let (outcome, log) = self.run_wave(instance, order, None, None, Some(&mut stats));
        (outcome, log, stats)
    }

    /// One wave under `plan` (the executor's own plan when `None`);
    /// `base` is the caller's encoding of the instance, if it keeps one.
    fn run_wave(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
        plan: Option<&ShardPlan>,
        base: Option<&Database>,
        mut stats: Option<&mut WaveStats>,
    ) -> (InPlaceOutcome, Vec<DeltaOp>) {
        let _span = obs::span("core.shard.apply");
        let plan = plan.map_or_else(|| Cow::Owned(self.plan(order)), Cow::Borrowed);
        self.ensure_replicas(instance, base);
        let mut seq_log: Vec<DeltaOp> = Vec::new();
        let mut i = 0;
        let mut failed: Option<String> = None;
        while i < order.len() {
            match plan.assignments[i] {
                Assignment::Coordinated => {
                    C_COORDINATED.incr();
                    if let Some(st) = stats.as_deref_mut() {
                        st.coordinated_receivers += 1;
                    }
                    let t = &order[i];
                    let home = shard_of(t.receiving_object(), self.shards);
                    let mut slot = lock_replica(&self.replicas[home]);
                    let replica = slot.as_mut().expect("ensure_replicas built every shard");
                    let mut log = Vec::new();
                    match apply_on_replica(self.method, instance, replica, t, &mut log) {
                        Ok(()) => {
                            redo_ops(instance, &mut NoView, &log);
                            seq_log.extend(log);
                            i += 1;
                        }
                        Err(msg) => {
                            failed = Some(msg);
                            break;
                        }
                    }
                }
                Assignment::Local(_) => {
                    let j = (i..order.len())
                        .find(|&k| !matches!(plan.assignments[k], Assignment::Local(_)))
                        .unwrap_or(order.len());
                    match self.run_segment(
                        instance,
                        order,
                        i..j,
                        &plan,
                        &mut seq_log,
                        stats.as_deref_mut(),
                    ) {
                        Ok(()) => i = j,
                        Err(msg) => {
                            failed = Some(msg);
                            break;
                        }
                    }
                }
            }
        }
        self.dirty = false;
        match failed {
            None => (InPlaceOutcome::Applied, seq_log),
            Some(msg) => {
                // Whole-sequence rollback; replicas may hold edits from
                // receivers past the failure point, so they are rebuilt
                // on the next apply.
                C_ROLLBACKS.incr();
                undo_ops(instance, &mut NoView, &seq_log);
                self.invalidate();
                (InPlaceOutcome::Undefined(msg), Vec::new())
            }
        }
    }

    /// One maximal run of Local receivers against the persistent
    /// replicas, netted logs merged into the instance in shard order.
    fn run_segment(
        &self,
        instance: &mut Instance,
        order: &[Receiver],
        range: std::ops::Range<usize>,
        plan: &ShardPlan,
        seq_log: &mut Vec<DeltaOp>,
        stats: Option<&mut WaveStats>,
    ) -> Result<(), String> {
        C_SEGMENTS.incr();
        let mut shard_items: Vec<Vec<(usize, &Receiver)>> = vec![Vec::new(); self.shards];
        for gi in range {
            let Assignment::Local(s) = plan.assignments[gi] else {
                unreachable!("segment contains only Local receivers");
            };
            shard_items[s as usize].push((gi, &order[gi]));
        }
        // Spawning workers for a handful of receivers costs more than the
        // receivers themselves (coordinated barriers can chop an order into
        // many short segments); short segments run inline on the caller.
        let total: usize = shard_items.iter().map(Vec::len).sum();
        let workers = if total < 64 { 1 } else { rt::num_threads() };
        let method = self.method;
        let replicas = &self.replicas;
        let inst: &Instance = instance;
        let fan_out = stats.is_some().then(Instant::now);

        let runs = rt::shard_map(&shard_items, workers, |shard, items| {
            if items.is_empty() {
                return ShardRun::default();
            }
            let lane_start = fan_out.map(|t0| (t0, Instant::now()));
            // Shards are claimed exclusively, so the lock is uncontended;
            // it exists to hand each worker mutable access to its shard's
            // long-lived replica.
            let mut slot = lock_replica(&replicas[shard]);
            let replica = slot.as_mut().expect("ensure_replicas built every shard");
            let mut log: Vec<DeltaOp> = Vec::new();
            for &(gi, t) in items {
                if let Err(msg) = apply_on_replica(method, inst, replica, t, &mut log) {
                    return ShardRun {
                        err: Some((gi, msg)),
                        ..ShardRun::default()
                    };
                }
                C_LOCAL.incr();
            }
            let (wait_ns, busy_ns) = lane_start.map_or((0, 0), |(t0, t1)| {
                ((t1 - t0).as_nanos() as u64, t1.elapsed().as_nanos() as u64)
            });
            ShardRun {
                log,
                err: None,
                receivers: items.len() as u64,
                wait_ns,
                busy_ns,
            }
        });

        // Sequential first-failure semantics: certified receivers succeed or
        // fail identically on the shard and coordinator paths, so the lowest
        // failing global index is exactly the receiver the sequential
        // application would have stopped at.
        if let Some((_, msg)) = runs
            .iter()
            .filter_map(|r| r.err.as_ref())
            .min_by_key(|(gi, _)| *gi)
        {
            return Err(msg.clone());
        }

        if let Some(st) = stats {
            st.segments += 1;
            if st.lanes.len() != self.shards {
                st.lanes = (0..self.shards)
                    .map(|shard| ShardLaneStats {
                        shard,
                        ..ShardLaneStats::default()
                    })
                    .collect();
            }
            for (lane, run) in st.lanes.iter_mut().zip(&runs) {
                lane.receivers += run.receivers;
                lane.wait_ns += run.wait_ns;
                lane.busy_ns += run.busy_ns;
                st.local_receivers += run.receivers;
            }
        }

        // Deterministic merge in shard order: cross-shard logs edit disjoint
        // (src, prop) row groups, so this equals the sequential interleaving
        // on the order-insensitive containers (see the module docs).
        let _merge = obs::span("core.shard.merge");
        for run in runs {
            if run.log.is_empty() {
                continue;
            }
            C_MERGED_OPS.add(run.log.len() as u64);
            redo_ops(instance, &mut NoView, &run.log);
            seq_log.extend_from_slice(&run.log);
        }
        Ok(())
    }
}

/// Poison-surviving replica lock: a worker panic propagates out of the
/// wave with `dirty` still set, so the replica state behind a poisoned
/// mutex is discarded via `invalidate`, never trusted.
fn lock_replica<T>(cell: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{
        add_bar, delete_bar, favorite_bar, loop_schema, transitive_closure_method,
    };
    use receivers_objectbase::examples::beer_schema;
    use receivers_objectbase::Signature;

    /// A beer instance with `n` drinkers and `n` bars, every drinker
    /// frequenting two bars.
    fn crowd(s: &receivers_objectbase::examples::BeerSchema, n: u32) -> Instance {
        let mut i = Instance::empty(std::sync::Arc::clone(&s.schema));
        for k in 1..=n {
            i.add_object(Oid::new(s.drinker, k));
            i.add_object(Oid::new(s.bar, k));
        }
        for k in 1..=n {
            let d = Oid::new(s.drinker, k);
            i.link(d, s.frequents, Oid::new(s.bar, k)).unwrap();
            i.link(d, s.frequents, Oid::new(s.bar, (k % n) + 1))
                .unwrap();
        }
        i
    }

    fn receivers(s: &receivers_objectbase::examples::BeerSchema, n: u32) -> Vec<Receiver> {
        (1..=n)
            .map(|k| {
                Receiver::new(vec![
                    Oid::new(s.drinker, k),
                    Oid::new(s.bar, (n + 1 - k).max(1)),
                ])
            })
            .collect()
    }

    fn cfg(shards: usize) -> ShardConfig {
        ShardConfig {
            shards: Some(shards),
        }
    }

    /// The certificate: keep-pattern and blind-overwrite methods are
    /// shard-safe; methods that read what they write are refused —
    /// including the order-independent transitive closure of Example 6.4,
    /// whose sharded execution would genuinely diverge.
    #[test]
    fn certificate_separates_footprint_not_order_independence() {
        let s = beer_schema();
        assert!(certify(&add_bar(&s)).shard_safe());
        assert!(certify(&favorite_bar(&s)).shard_safe());
        assert!(!certify(&delete_bar(&s)).shard_safe());
        let ls = loop_schema("A", "B");
        assert!(!certify(&transitive_closure_method(&ls)).shard_safe());
    }

    /// The discharge API: only real conflicts can be discharged, and
    /// discharging them flips the safety verdict.
    #[test]
    fn discharge_refuses_non_conflicts_and_lifts_real_ones() {
        let s = beer_schema();
        let mut cert = certify(&delete_bar(&s));
        assert!(!cert.shard_safe());
        assert_eq!(cert.undischarged().collect::<Vec<_>>(), vec![s.frequents]);
        assert!(!cert.discharge(s.serves), "serves is not in conflict");
        assert!(cert.discharge(s.frequents));
        assert!(cert.shard_safe());
        assert_eq!(cert.undischarged().count(), 0);
    }

    /// The home-replica upgrade: cross-shard receivers of a shard-safe
    /// method go Local on the receiving object's shard, and the result
    /// stays bit-identical to the sequential path.
    #[test]
    fn upgraded_plans_localize_cross_shard_receivers() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 32);
        let base = ShardPlan::new(&m, &order, 4);
        assert!(base.coordinated_count() > 0, "workload must cross shards");
        let up = ShardPlan::with_certificate_upgraded(&certify(&m), &order, 4);
        assert_eq!(up.coordinated_count(), 0, "everything upgrades to Local");
        for (t, a) in order.iter().zip(up.assignments()) {
            let home = shard_of(t.receiving_object(), 4) as u32;
            assert_eq!(*a, Assignment::Local(home));
        }

        let mut reference = crowd(&s, 32);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 32);
        let mut view = DatabaseView::new(&i);
        let mut exec = ShardedExecutor::new(&m, &cfg(4));
        let out = exec.apply_planned(&mut i, &mut view, &order, &up);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));

        // An unsafe certificate refuses the upgrade wholesale.
        let down = ShardPlan::with_certificate_upgraded(&certify(&delete_bar(&s)), &order, 4);
        assert_eq!(down.local_count(), 0);
    }

    /// `delete_bar` reads the property it writes, but only at the
    /// receiving drinker (see `methods.rs`: `π_f(self ⋈ Df ⋈≠ arg)`), so
    /// the conflict is honestly dischargeable — and the discharged
    /// certificate runs it sharded, bit-identical to sequential, under
    /// both an explicit upgraded plan and the executor's own plan.
    #[test]
    fn discharged_delete_bar_runs_sharded_and_matches_sequential() {
        let s = beer_schema();
        let m = delete_bar(&s);
        let order: Vec<Receiver> = (1..=24)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, k), Oid::new(s.bar, k)]))
            .collect();
        let mut cert = certify(&m);
        assert!(cert.discharge(s.frequents));

        let mut reference = crowd(&s, 24);
        assert_eq!(
            m.apply_in_place_sequence(&mut reference, &order),
            InPlaceOutcome::Applied
        );

        let plan = ShardPlan::with_certificate_upgraded(&cert, &order, 4);
        assert_eq!(plan.coordinated_count(), 0);
        let mut i = crowd(&s, 24);
        let mut view = DatabaseView::new(&i);
        let mut planned = ShardedExecutor::with_certificate(&m, cert.clone(), &cfg(4));
        let out = planned.apply_planned(&mut i, &mut view, &order, &plan);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));
        i.check_index_consistent();

        let mut j = crowd(&s, 24);
        let mut exec = ShardedExecutor::with_certificate(&m, cert, &cfg(4));
        assert_eq!(exec.apply(&mut j, &order), InPlaceOutcome::Applied);
        assert_eq!(j, reference);
        assert!(
            exec.replicas_built() > 0,
            "the discharged method really ran on replicas, not the sequential fallback"
        );
    }

    #[test]
    fn shard_of_is_a_deterministic_partition() {
        let s = beer_schema();
        for shards in [1usize, 2, 3, 8] {
            for k in 0..200u32 {
                let o = Oid::new(s.drinker, k);
                let sh = shard_of(o, shards);
                assert!(sh < shards);
                assert_eq!(sh, shard_of(o, shards));
            }
        }
        // The hash actually spreads one class across shards.
        let hit: std::collections::BTreeSet<usize> = (0..64)
            .map(|k| shard_of(Oid::new(s.drinker, k), 8))
            .collect();
        assert!(hit.len() >= 4, "poor spread: {hit:?}");
    }

    /// Receivers whose bar argument lands in another shard than the
    /// drinker fall back to the coordinator; same-shard ones stay local.
    #[test]
    fn plans_follow_component_locality() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 32);
        let plan = ShardPlan::new(&m, &order, 4);
        assert_eq!(plan.local_count() + plan.coordinated_count(), 32);
        for (t, a) in order.iter().zip(plan.assignments()) {
            let home = shard_of(t.receiving_object(), 4);
            let co_sharded = t.objects().iter().all(|&o| shard_of(o, 4) == home);
            match a {
                Assignment::Local(sh) => {
                    assert!(co_sharded);
                    assert_eq!(*sh as usize, home);
                }
                Assignment::Coordinated => assert!(!co_sharded),
            }
        }
        // An uncertified method plans everything onto the coordinator.
        let plan = ShardPlan::new(&delete_bar(&s), &order, 4);
        assert_eq!(plan.local_count(), 0);
    }

    /// Bit-identical to the sequential path across shard/worker counts,
    /// for a certified method with mixed local/coordinated receivers: a
    /// fresh executor used once, its wave replayed into a caller's view.
    #[test]
    fn sharded_apply_matches_sequential() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 24);
        let mut reference = crowd(&s, 24);
        assert_eq!(
            m.apply_in_place_sequence(&mut reference, &order),
            InPlaceOutcome::Applied
        );
        for shards in [1, 2, 4, 7] {
            let mut i = crowd(&s, 24);
            let mut view = DatabaseView::new(&i);
            let mut exec = ShardedExecutor::new(&m, &cfg(shards));
            let plan = exec.plan(&order);
            let out = exec.apply_planned(&mut i, &mut view, &order, &plan);
            assert_eq!(out, InPlaceOutcome::Applied);
            assert_eq!(i, reference, "{shards} shards");
            assert!(view.matches_rebuild(&i));
            i.check_index_consistent();
        }
    }

    /// A segment of 64 Local receivers reaches the worker path (with
    /// `rt::num_threads()` workers, pinned per run by the CI thread
    /// matrix): same result as the sequential path, twice over so the
    /// second wave runs against warm replicas, with every receiver
    /// accounted to a lane.
    #[test]
    fn long_segments_run_on_worker_lanes() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 64);
        let plan = ShardPlan::with_certificate_upgraded(&certify(&m), &order, 4);
        assert_eq!(plan.local_count(), 64, "one segment past the inline bound");
        let mut reference = crowd(&s, 64);
        let mut i = crowd(&s, 64);
        let mut view = DatabaseView::new(&i);
        let mut exec = ShardedExecutor::new(&m, &cfg(4));
        for wave in 0..2 {
            assert_eq!(
                m.apply_in_place_sequence(&mut reference, &order),
                InPlaceOutcome::Applied
            );
            let out = exec.apply_planned(&mut i, &mut view, &order, &plan);
            assert_eq!(out, InPlaceOutcome::Applied);
            assert_eq!(i, reference, "wave {wave}");
            assert!(view.matches_rebuild(&i), "wave {wave}");
        }
        i.check_index_consistent();

        let wave = receivers(&s, 64);
        let (out, _, stats) = exec.apply_logged_stats(&mut i, &wave);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(
            stats.lanes.iter().map(|l| l.receivers).sum::<u64>(),
            stats.local_receivers
        );
        assert_eq!(
            stats.local_receivers + stats.coordinated_receivers,
            wave.len() as u64
        );
    }

    /// Forcing receivers onto the coordinator (the cross-shard fallback
    /// path) must not change the result.
    #[test]
    fn forced_fallbacks_preserve_the_result() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 16);
        let mut reference = crowd(&s, 16);
        m.apply_in_place_sequence(&mut reference, &order);

        let mut plan = ShardPlan::new(&m, &order, 4);
        for idx in (0..order.len()).step_by(3) {
            plan.coordinate(idx);
        }
        let mut i = crowd(&s, 16);
        let mut view = DatabaseView::new(&i);
        let mut exec = ShardedExecutor::new(&m, &cfg(4));
        let out = exec.apply_planned(&mut i, &mut view, &order, &plan);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));
    }

    /// A mid-sequence failure (ghost receiver) rolls the whole sharded
    /// sequence back — instance and view bit-identical to the start.
    #[test]
    fn mid_sequence_failure_rolls_back_everything() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut order = receivers(&s, 12);
        let ghost = Receiver::new(vec![Oid::new(s.drinker, 999), Oid::new(s.bar, 1)]);
        order.insert(8, ghost);

        let mut i = crowd(&s, 12);
        let snapshot = i.clone();
        let mut view = DatabaseView::new(&i);
        let view_snapshot = view.clone();
        let mut exec = ShardedExecutor::new(&m, &cfg(3));
        let plan = exec.plan(&order);
        let out = exec.apply_planned(&mut i, &mut view, &order, &plan);
        assert!(matches!(out, InPlaceOutcome::Undefined(_)));
        assert_eq!(i, snapshot);
        assert_eq!(view, view_snapshot);
        i.check_index_consistent();

        // And the failure message matches the sequential one.
        let mut j = crowd(&s, 12);
        let seq = m.apply_in_place_sequence(&mut j, &order);
        assert_eq!(out, seq);
    }

    /// The persistent executor matches the sequential path wave after
    /// wave, and its replicas survive across applies (no rebuilds after
    /// the first).
    #[test]
    fn executor_matches_sequential_across_waves() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut reference = crowd(&s, 24);
        let mut i = crowd(&s, 24);
        let mut exec = ShardedExecutor::new(&m, &cfg(4));
        // Three waves: fresh updates, a repeat (reconciliation no-ops),
        // and a skewed wave hammering one drinker.
        let hot: Vec<Receiver> = (1..=8)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, 3), Oid::new(s.bar, k)]))
            .collect();
        for wave in [receivers(&s, 24), receivers(&s, 24), hot] {
            assert_eq!(
                m.apply_in_place_sequence(&mut reference, &wave),
                InPlaceOutcome::Applied
            );
            assert_eq!(exec.apply(&mut i, &wave), InPlaceOutcome::Applied);
            assert_eq!(i, reference);
            i.check_index_consistent();
        }
        assert_eq!(exec.replicas_built(), 4, "replicas persist across waves");
    }

    /// A failing wave rolls the instance back and invalidates the
    /// replicas; the executor keeps working afterwards.
    #[test]
    fn executor_rolls_back_and_recovers() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut i = crowd(&s, 12);
        let mut exec = ShardedExecutor::new(&m, &cfg(3));
        assert_eq!(
            exec.apply(&mut i, &receivers(&s, 12)),
            InPlaceOutcome::Applied
        );
        let snapshot = i.clone();

        let mut bad = receivers(&s, 12);
        bad.insert(
            7,
            Receiver::new(vec![Oid::new(s.drinker, 999), Oid::new(s.bar, 1)]),
        );
        let out = exec.apply(&mut i, &bad);
        assert!(matches!(out, InPlaceOutcome::Undefined(_)));
        assert_eq!(i, snapshot);
        i.check_index_consistent();
        assert_eq!(exec.replicas_built(), 0, "failed wave drops the replicas");

        // The sequential outcome message coincides.
        let mut j = snapshot.clone();
        assert_eq!(out, m.apply_in_place_sequence(&mut j, &bad));

        // And the next wave works from rebuilt replicas.
        let wave = receivers(&s, 12);
        let mut reference = snapshot.clone();
        m.apply_in_place_sequence(&mut reference, &wave);
        assert_eq!(exec.apply(&mut i, &wave), InPlaceOutcome::Applied);
        assert_eq!(i, reference);
    }

    /// Cross-shard receivers run through the executor's coordinator path
    /// and out-of-band mutations are picked up after `invalidate`.
    #[test]
    fn executor_coordinates_cross_shard_and_invalidates() {
        let s = beer_schema();
        let m = add_bar(&s);
        // Receivers pairing each drinker with every bar: at 3 shards many
        // pairs necessarily cross shards.
        let order: Vec<Receiver> = (1..=6)
            .flat_map(|d| (1..=6).map(move |b| (d, b)))
            .map(|(d, b)| Receiver::new(vec![Oid::new(s.drinker, d), Oid::new(s.bar, b)]))
            .collect();
        let plan = ShardPlan::new(&m, &order, 3);
        assert!(plan.coordinated_count() > 0, "workload must cross shards");

        let mut reference = crowd(&s, 6);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 6);
        let mut exec = ShardedExecutor::new(&m, &cfg(3));
        assert_eq!(exec.apply(&mut i, &order), InPlaceOutcome::Applied);
        assert_eq!(i, reference);

        // Mutate the instance behind the executor's back, then tell it.
        i.link(Oid::new(s.drinker, 1), s.frequents, Oid::new(s.bar, 5))
            .unwrap();
        reference
            .link(Oid::new(s.drinker, 1), s.frequents, Oid::new(s.bar, 5))
            .unwrap();
        exec.invalidate();
        let wave = receivers(&s, 6);
        m.apply_in_place_sequence(&mut reference, &wave);
        assert_eq!(exec.apply(&mut i, &wave), InPlaceOutcome::Applied);
        assert_eq!(i, reference);
    }

    /// An uncertified method through the executor falls back to the
    /// sequential path — same result, replicas untouched.
    #[test]
    fn executor_uncertified_falls_back_to_sequential() {
        let s = beer_schema();
        let m = delete_bar(&s);
        let order: Vec<Receiver> = (1..=10)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, k), Oid::new(s.bar, k)]))
            .collect();
        let mut reference = crowd(&s, 10);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 10);
        let mut exec = ShardedExecutor::new(&m, &cfg(4));
        assert_eq!(exec.apply(&mut i, &order), InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert_eq!(exec.replicas_built(), 0);
    }

    /// An uncertified method under an explicit plan still takes the
    /// sequential path, view maintained — even a hand-built plan with
    /// Local receivers cannot move it onto replicas.
    #[test]
    fn uncertified_methods_run_coordinated_and_match() {
        let s = beer_schema();
        let m = delete_bar(&s);
        let order: Vec<Receiver> = (1..=10)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, k), Oid::new(s.bar, k)]))
            .collect();
        let mut reference = crowd(&s, 10);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 10);
        let mut view = DatabaseView::new(&i);
        let mut exec = ShardedExecutor::new(&m, &cfg(4));
        // A plan forged from the conflict-discharged certificate.
        let mut forged = certify(&m);
        assert!(forged.discharge(s.frequents));
        let forced = ShardPlan::with_certificate_upgraded(&forged, &order, 4);
        assert!(
            forced.local_count() > 0,
            "the forged plan puts receivers on lanes"
        );
        let out = exec.apply_planned(&mut i, &mut view, &order, &forced);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));
        assert_eq!(exec.replicas_built(), 0, "no replica for an unsafe method");
    }

    /// Fallback-path counters are exported through the metrics registry:
    /// a forced-coordinated run must surface in
    /// `core.shard.coordinated_receivers` (and locals in
    /// `core.shard.local_receivers`).
    #[test]
    fn fallback_counters_are_exported() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 8);

        obs::set_enabled(obs::trace_enabled(), true);
        let before = obs::metrics_snapshot();
        let mut plan = ShardPlan::new(&m, &order, 2);
        plan.coordinate(0);
        let mut i = crowd(&s, 8);
        let mut view = DatabaseView::new(&i);
        let mut exec = ShardedExecutor::new(&m, &cfg(2));
        let out = exec.apply_planned(&mut i, &mut view, &order, &plan);
        let after = obs::metrics_snapshot();
        assert_eq!(out, InPlaceOutcome::Applied);

        // Counters are global and other tests run concurrently, so only
        // lower bounds are safe to assert.
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("core.shard.plans") >= 1);
        assert!(delta("core.shard.coordinated_receivers") >= 1);
        assert!(
            delta("core.shard.coordinated_receivers") + delta("core.shard.local_receivers") >= 8
        );
    }

    /// Signature sanity: receivers with arguments of the wrong class are
    /// rejected identically on both paths.
    #[test]
    fn invalid_receivers_fail_like_sequential() {
        let s = beer_schema();
        let m = add_bar(&s);
        let bad = vec![Receiver::new(vec![Oid::new(s.bar, 1), Oid::new(s.bar, 2)])];
        let mut i = crowd(&s, 4);
        let mut j = i.clone();
        let seq = m.apply_in_place_sequence(&mut i, &bad);
        let mut view = DatabaseView::new(&j);
        let mut exec = ShardedExecutor::new(&m, &cfg(2));
        let plan = exec.plan(&bad);
        let shard = exec.apply_planned(&mut j, &mut view, &bad, &plan);
        assert_eq!(seq, shard);
        assert!(matches!(shard, InPlaceOutcome::Undefined(_)));
    }

    // Keep the unused Signature import meaningful for rustc.
    #[allow(dead_code)]
    fn _sig_used(s: Signature) -> Signature {
        s
    }
}
