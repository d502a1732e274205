//! [`PatternRegistry`]: many patterns maintained over **one** dynamic graph.
//!
//! A serving system rarely answers a single query shape: N registered
//! patterns watch the same evolving graph. Running N independent
//! [`DynamicMatcher`](crate::DynamicMatcher)s works, but wastes the work
//! they would share — each one mirrors the whole graph, applies every
//! delta to its private copy, and replays every mutation through its own
//! simulation even when the mutation provably cannot touch its pattern.
//!
//! The registry amortizes all three:
//!
//! * **one graph**: a single [`DynGraph`] is mutated per batch; per-pattern
//!   state follows it by reference (the
//!   [`PatternState`](crate::state::PatternState) layer is graph-agnostic);
//! * **one shared candidate index**: the graph's label index plus each
//!   pattern's interest sets let the fan-out skip replaying mutations
//!   that provably cannot touch it — structural ops whose labels the
//!   pattern never names, and attribute ops on keys none of its
//!   predicates mention — the *shared-index hit rate* in
//!   [`RegistryStats`] reports how much that saves;
//! * **parallel ranking maintenance**: after the (inherently sequential)
//!   lockstep replay, per-pattern refreshes are independent, so whole
//!   patterns are dispatched across a small thread pool and merged back
//!   in registration order — answers are deterministic regardless of
//!   interleaving because no worker touches another pattern's state.
//!   One pattern's refresh is one
//!   [`PatternState::refresh`](crate::state::PatternState) call on one
//!   worker; it is never split further.
//!
//! Answers are **bit-identical** to N independent matchers and to the
//! static pipeline on a snapshot (property-tested by
//! `tests/registry_differential.rs`).

use gpm_core::result::{AnswerDiff, DivResult, TopKResult};
use gpm_graph::dynamic::DynGraph;
use gpm_graph::{DiGraph, GraphDelta, Label};
use gpm_pattern::Pattern;
use gpm_telemetry::{names, Counter, Gauge, Span, Telemetry};
use parking_lot::Mutex;

use crate::matcher::{ApplyStats, IncrementalConfig, IncrementalError};
use crate::pool::WorkerPool;
use crate::state::{Batch, PatternState};

/// Stable handle of a registered pattern. Ids are never reused, so a
/// handle kept across a deregistration simply stops resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(u64);

impl std::fmt::Display for PatternId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pattern#{}", self.0)
    }
}

/// Registry-level maintenance counters: the multi-pattern extension of the
/// per-pattern [`ApplyStats`]. Since the telemetry PR this is a
/// **snapshot** assembled from the registry's [`Telemetry`] counters —
/// the same cells `render()`/`snapshot()` expose — so the struct and the
/// exposition can never disagree.
#[derive(Debug, Clone, Default)]
pub struct RegistryStats {
    /// Batches applied to the shared graph.
    pub batches: u64,
    /// Patterns ever registered.
    pub registrations: u64,
    /// Patterns deregistered.
    pub deregistrations: u64,
    /// Effective mutations replayed into some pattern's simulation.
    pub ops_replayed: u64,
    /// Effective mutations skipped for some pattern because the shared
    /// label index proved them irrelevant to it.
    pub ops_skipped: u64,
    /// Patterns whose state the last batch actually touched (replayed at
    /// least one mutation into).
    pub last_patterns_touched: usize,
    /// Always 0: one pattern's refresh is no longer split across the pool
    /// and no metric stands behind this field. It stays only because the
    /// frozen `benchmark/` package reads it for its
    /// `incremental.intra_pattern_splits` metric; the next `benchmark` PR
    /// removes both.
    pub intra_pattern_splits: u64,
}

impl RegistryStats {
    /// Fraction of (mutation × pattern) fan-out edges the shared index
    /// pruned; 0.0 before any batch. High values mean the registry is
    /// doing the per-pattern work N independent matchers would all repeat.
    pub fn shared_index_hit_rate(&self) -> f64 {
        let total = self.ops_replayed + self.ops_skipped;
        if total == 0 {
            0.0
        } else {
            self.ops_skipped as f64 / total as f64
        }
    }
}

struct Slot {
    id: PatternId,
    /// Interior mutability so phase-2 workers can refresh disjoint slots
    /// through a shared borrow of the slot list.
    state: Mutex<PatternState>,
}

/// The registry's metric handles, resolved once per attached
/// [`Telemetry`]. Counters/gauges record unconditionally (they are the
/// cells behind [`RegistryStats`]); only histograms and spans honor the
/// telemetry enabled flag.
struct RegistryCounters {
    batches: Counter,
    registrations: Counter,
    deregistrations: Counter,
    ops_replayed: Counter,
    ops_skipped: Counter,
    last_touched: Gauge,
    pool_busy_nanos: Gauge,
    pool_tasks: Gauge,
    bounds_pruned: Counter,
}

impl RegistryCounters {
    fn resolve(t: &Telemetry) -> Self {
        let m = t.metrics();
        RegistryCounters {
            batches: m.counter(names::REGISTRY_BATCHES),
            registrations: m.counter(names::REGISTRY_REGISTRATIONS),
            deregistrations: m.counter(names::REGISTRY_DEREGISTRATIONS),
            ops_replayed: m.counter(names::REGISTRY_OPS_REPLAYED),
            ops_skipped: m.counter(names::REGISTRY_OPS_SKIPPED),
            last_touched: m.gauge(names::REGISTRY_LAST_TOUCHED),
            pool_busy_nanos: m.gauge(names::POOL_BUSY_NANOS),
            pool_tasks: m.gauge(names::POOL_TASKS),
            bounds_pruned: m.counter(names::BOUNDS_PRUNED),
        }
    }

    /// Carries accumulated counts into a freshly attached telemetry's
    /// cells, so re-attaching never loses or double-counts history.
    fn migrate_to(&self, next: &RegistryCounters) {
        next.batches.add(self.batches.get());
        next.registrations.add(self.registrations.get());
        next.deregistrations.add(self.deregistrations.get());
        next.ops_replayed.add(self.ops_replayed.get());
        next.ops_skipped.add(self.ops_skipped.get());
        next.last_touched.set(self.last_touched.get());
        next.pool_busy_nanos.set(self.pool_busy_nanos.get());
        next.pool_tasks.set(self.pool_tasks.get());
        next.bounds_pruned.add(self.bounds_pruned.get());
    }
}

/// One pattern's outcome of a batch the shared index could not prove
/// irrelevant to it: the fresh answer plus the **change set** against the
/// answer the registry served before the batch. `diff.is_empty()` means
/// the pattern was touched but its top-k survived unchanged — push
/// consumers suppress those; the serving layer forwards only material
/// changes to subscribers.
#[derive(Debug, Clone)]
pub struct AnswerChange {
    /// The pattern whose state the batch touched.
    pub id: PatternId,
    /// Its fresh top-k answer.
    pub top: TopKResult,
    /// What moved relative to the previously served answer.
    pub diff: AnswerDiff,
}

impl AnswerChange {
    /// `true` when the answer materially changed (some node entered, left
    /// or moved).
    pub fn changed(&self) -> bool {
        !self.diff.is_empty()
    }
}

/// Introspection snapshot of one registered pattern — what the admin
/// plane's `/patterns` endpoint serves. Everything here is a copy; the
/// slot lock is held only while assembling it.
#[derive(Debug, Clone)]
pub struct PatternInfo {
    /// The pattern's registry handle.
    pub id: PatternId,
    /// Number of pattern nodes.
    pub nodes: usize,
    /// Number of pattern edges.
    pub edges: usize,
    /// Configured answer size `k`.
    pub k: usize,
    /// Configured diversification trade-off `λ`.
    pub lambda: f64,
    /// How relevant-set preparation currently runs: `"maintained"`,
    /// `"readopt-pending"` or `"engine"`.
    pub reach_mode: &'static str,
    /// The active bound mode: `"per-component"` or `"off"`.
    pub bound_mode: &'static str,
    /// Heap bytes the pattern's maintained condensation retains in
    /// `Full(c)` bitsets — the figure
    /// [`ReachConfig::budget_bytes`](gpm_ranking::ReachConfig) is
    /// enforced against; 0 while `reach_mode` is not `"maintained"`.
    pub maintained_bytes: usize,
    /// Heap bytes of the pattern's stored `δd` table (the pairwise
    /// distances diversified answers reuse across calls); 0 until a
    /// diversified answer is asked for, and while the table plus
    /// `maintained_bytes` would exceed the reach budget.
    pub distance_bytes: usize,
    /// Per-pattern maintenance counters (includes
    /// [`ApplyStats::last_refresh_ns`], the last refresh latency, and the
    /// bound-pruning tallies).
    pub stats: ApplyStats,
}

/// Many patterns served over one dynamic graph. See the module docs.
pub struct PatternRegistry {
    graph: DynGraph,
    slots: Vec<Slot>,
    next_id: u64,
    /// Persistent phase-2 pool (`None` ⇒ fully sequential fan-out). Sized
    /// once at construction; batches reuse the parked workers instead of
    /// respawning scoped threads.
    pool: Option<WorkerPool>,
    /// Shared observability bundle — [`Telemetry::off`] unless an owner
    /// (the serving layer, a bench) attaches its own: counters always
    /// record, spans/histograms only when the bundle is enabled.
    telemetry: Telemetry,
    counters: RegistryCounters,
}

impl PatternRegistry {
    /// An empty registry over (a dynamic mirror of) `g`, with the thread
    /// pool sized by [`Self::default_threads`].
    pub fn new(g: &DiGraph) -> Self {
        Self::with_threads(g, Self::default_threads())
    }

    /// The maintenance-pool size [`Self::new`] picks: the machine's
    /// parallelism capped at 4 — ranking refreshes are short; more workers
    /// than that just contend on spawn overhead. Benchmarks and CLIs
    /// should default to this so recorded thread counts match the library.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
    }

    /// An empty registry with an explicit maintenance-pool size
    /// (`threads = 1` forces fully sequential fan-out). The pool threads
    /// are spawned **once** here and parked between batches.
    pub fn with_threads(g: &DiGraph, threads: usize) -> Self {
        let telemetry = Telemetry::off();
        let counters = RegistryCounters::resolve(&telemetry);
        PatternRegistry {
            graph: DynGraph::from_digraph(g),
            slots: Vec::new(),
            next_id: 0,
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
            telemetry,
            counters,
        }
    }

    /// Attaches a shared [`Telemetry`] bundle: subsequent batches trace
    /// into it and all counters continue there (accumulated counts are
    /// migrated, so [`Self::stats`] never goes backwards).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        let next = RegistryCounters::resolve(&telemetry);
        self.counters.migrate_to(&next);
        self.counters = next;
        self.telemetry = telemetry;
    }

    /// The attached observability bundle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The maintenance-pool size this registry runs with.
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::workers)
    }

    /// The shared graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// Immutable snapshot of the shared graph (baselines, equivalence
    /// tests, late registrations elsewhere).
    pub fn snapshot(&self) -> DiGraph {
        self.graph.snapshot()
    }

    /// Registry-level counters, snapshotted from the telemetry cells (the
    /// single source of truth `render()`/`snapshot()` also read).
    pub fn stats(&self) -> RegistryStats {
        let c = &self.counters;
        RegistryStats {
            batches: c.batches.get(),
            registrations: c.registrations.get(),
            deregistrations: c.deregistrations.get(),
            ops_replayed: c.ops_replayed.get(),
            ops_skipped: c.ops_skipped.get(),
            last_patterns_touched: c.last_touched.get().max(0) as usize,
            intra_pattern_splits: 0,
        }
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no pattern is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Registered ids in registration order.
    pub fn pattern_ids(&self) -> Vec<PatternId> {
        self.slots.iter().map(|s| s.id).collect()
    }

    /// Registers `q`, materializing its state from the **current** graph —
    /// a pattern registered mid-stream answers exactly as if it had been
    /// built from [`Self::snapshot`]. Duplicate registrations are allowed
    /// and independent (two subscribers may serve the same shape with
    /// different configs).
    pub fn register(
        &mut self,
        q: Pattern,
        cfg: IncrementalConfig,
    ) -> Result<PatternId, IncrementalError> {
        let state = PatternState::new(&self.graph, q, cfg)?;
        let id = PatternId(self.next_id);
        self.next_id += 1;
        self.slots.push(Slot { id, state: Mutex::new(state) });
        self.counters.registrations.inc();
        Ok(id)
    }

    /// Drops a pattern and all its maintained state (pending dirtiness
    /// included — per-pattern state is self-contained, so this is safe at
    /// any point between batches). Returns `false` for unknown ids.
    pub fn deregister(&mut self, id: PatternId) -> bool {
        match self.slots.iter().position(|s| s.id == id) {
            Some(i) => {
                self.slots.remove(i);
                self.counters.deregistrations.inc();
                true
            }
            None => false,
        }
    }

    /// Applies one update batch to the shared graph and fans it out to
    /// every registered pattern, returning an [`AnswerChange`] — fresh
    /// answer **plus the change set** against the previously served one —
    /// for each pattern the batch **touched** (replayed into), in
    /// registration order. An untouched pattern's answer provably did
    /// not change — the shared index only skips mutations that are no-ops
    /// for it — so omitting it both tells subscribers whose answers moved
    /// and avoids re-ranking N cached match sets per batch; a touched
    /// pattern whose top-k survived intact reports with an empty diff.
    /// [`Self::answers`] (or [`Self::top_k`]) reads any answer on demand.
    ///
    /// On error (invalid delta) the graph and every pattern's state are
    /// unchanged. An empty registry still advances the graph.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<Vec<AnswerChange>, IncrementalError> {
        let root = self.telemetry.root_span("apply");
        let out = self.apply_traced(delta, &root);
        let seq = self.counters.batches.get();
        self.telemetry.finish_batch(root, seq);
        out
    }

    /// As [`Self::apply`] under a caller-owned trace: every phase of the
    /// batch (`replay`, per-pattern `refresh` with `condense_incremental`/
    /// `plan`/`prepare`/`extract` children) lands as children of
    /// `parent`. The serving layer passes its ingest root so
    /// one batch yields one tree; standalone callers can pass
    /// [`Span::disabled`] (or just call [`Self::apply`]).
    pub fn apply_traced(
        &mut self,
        delta: &GraphDelta,
        parent: &Span,
    ) -> Result<Vec<AnswerChange>, IncrementalError> {
        let n = self.slots.len();

        // Phase 1 (sequential): mutate the shared graph ONCE, replaying
        // each effective mutation through the interested patterns in
        // lockstep — the hook observes exactly the intermediate graph
        // states a private DynamicMatcher replay would.
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut touched = vec![false; n];
        let applied = {
            let replay_span = parent.child("replay");
            let mut guards: Vec<_> = self.slots.iter().map(|s| s.state.lock()).collect();
            let applied = self.graph.apply_with(delta, |g, eff| {
                for (i, st) in guards.iter_mut().enumerate() {
                    if st.wants(g, eff) {
                        st.replay(g, eff);
                        touched[i] = true;
                        replayed += 1;
                    } else {
                        skipped += 1;
                    }
                }
            })?;
            if replay_span.is_enabled() {
                replay_span.detail(format!("replayed={replayed} skipped={skipped}"));
            }
            applied
        };

        // Phase 2 (parallel across patterns): per-pattern ranking
        // maintenance is independent given the final graph. The
        // persistent pool's workers claim whole slots by index; since no
        // slot is shared, the per-pattern result is identical under any
        // interleaving, and answers are merged in registration order
        // below. Each pattern is one `PatternState::refresh` call under
        // its slot lock; patterns the index proved the whole batch
        // irrelevant to skip the seed scan and report nothing.
        let graph = &self.graph;
        let slots = &self.slots;
        let bounds_pruned = &self.counters.bounds_pruned;
        let fresh: Vec<Mutex<Option<(TopKResult, AnswerDiff)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let refresh = |i: usize| {
            let refresh_span = parent.child("refresh");
            if refresh_span.is_enabled() {
                refresh_span.detail(format!("pattern={}", slots[i].id));
            }
            let batch = if touched[i] { Batch::Replayed(&applied) } else { Batch::Untouched };
            let mut st = slots[i].state.lock();
            if let Some(answer) = st.refresh(graph, batch, &refresh_span) {
                // Counters are atomic — safe from any pool worker.
                bounds_pruned.add(st.stats().last_pruned_outputs as u64);
                *fresh[i].lock() = Some(answer);
            }
        };
        match &self.pool {
            Some(pool) if n >= 2 => pool.run(n, &refresh),
            _ => (0..n).for_each(refresh),
        }

        self.counters.batches.inc();
        self.counters.ops_replayed.add(replayed);
        self.counters.ops_skipped.add(skipped);
        self.counters.last_touched.set(touched.iter().filter(|&&t| t).count() as i64);
        if let Some(pool) = &self.pool {
            self.counters.pool_busy_nanos.set(pool.busy_nanos().min(i64::MAX as u64) as i64);
            self.counters.pool_tasks.set(pool.tasks_run().min(i64::MAX as u64) as i64);
        }

        Ok(fresh
            .into_iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.into_inner().map(|(top, diff)| AnswerChange {
                    id: self.slots[i].id,
                    top,
                    diff,
                })
            })
            .collect())
    }

    /// Current top-k of every registered pattern, in registration order.
    pub fn answers(&self) -> Vec<(PatternId, TopKResult)> {
        self.slots.iter().map(|s| (s.id, s.state.lock().top_k())).collect()
    }

    /// Current top-k of one pattern (`None` for unknown ids).
    pub fn top_k(&self, id: PatternId) -> Option<TopKResult> {
        self.with_slot(id, |st| st.top_k())
    }

    /// Current diversified top-k of one pattern with its configured `λ`.
    /// Materializes any bound-deferred backlog first (the diversity term
    /// needs every match's relevant set), hence the mutable slot access.
    pub fn top_k_diversified(&self, id: PatternId) -> Option<DivResult> {
        self.with_slot_mut(id, |st| {
            let lambda = st.cfg().lambda;
            st.diversified(&self.graph, lambda)
        })
    }

    /// As [`Self::top_k_diversified`] with an explicit `λ`.
    pub fn diversified(&self, id: PatternId, lambda: f64) -> Option<DivResult> {
        self.with_slot_mut(id, |st| st.diversified(&self.graph, lambda))
    }

    /// The registered pattern behind `id`.
    pub fn pattern(&self, id: PatternId) -> Option<Pattern> {
        self.with_slot(id, |st| st.pattern().clone())
    }

    /// Per-pattern maintenance counters.
    pub fn stats_of(&self, id: PatternId) -> Option<ApplyStats> {
        self.with_slot(id, |st| st.stats().clone())
    }

    /// The diversification normalizer `Cuo` one pattern currently serves
    /// with (drift checks against the static pipeline).
    pub fn normalizer(&self, id: PatternId) -> Option<u64> {
        self.with_slot(id, |st| st.normalizer())
    }

    /// Estimated candidate count of a label under the shared index —
    /// what one pattern node with that label would enumerate today.
    pub fn candidates_for_label(&self, label: Label) -> usize {
        self.graph.label_count(label)
    }

    /// Live-label histogram of the shared graph (observability; sizes the
    /// shared candidate index).
    pub fn label_histogram(&self) -> Vec<(Label, usize)> {
        self.graph.live_labels().collect()
    }

    fn with_slot<T>(&self, id: PatternId, f: impl FnOnce(&PatternState) -> T) -> Option<T> {
        self.slots.iter().find(|s| s.id == id).map(|s| f(&s.state.lock()))
    }

    fn with_slot_mut<T>(&self, id: PatternId, f: impl FnOnce(&mut PatternState) -> T) -> Option<T> {
        self.slots.iter().find(|s| s.id == id).map(|s| f(&mut s.state.lock()))
    }

    /// Introspection snapshot of one pattern (`None` for unknown ids).
    pub fn pattern_info(&self, id: PatternId) -> Option<PatternInfo> {
        self.with_slot(id, |st| PatternInfo {
            id,
            nodes: st.pattern().node_count(),
            edges: st.pattern().edge_count(),
            k: st.cfg().k,
            lambda: st.cfg().lambda,
            reach_mode: st.reach_mode(),
            bound_mode: st.bound_mode(),
            maintained_bytes: st.maintained_bytes(),
            distance_bytes: st.distance_bytes(),
            stats: st.stats().clone(),
        })
    }

    /// Introspection snapshots of every pattern, in registration order.
    pub fn pattern_infos(&self) -> Vec<PatternInfo> {
        self.slots.iter().map(|s| self.pattern_info(s.id).expect("slot exists")).collect()
    }

    /// Items of the current maintenance-pool job not yet completed —
    /// 0 between batches or without a pool. The snapshot-time queue-depth
    /// gauge the serving layer samples.
    pub fn pool_queue_depth(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::queued_items)
    }

    /// Full correctness audit of one pattern against the shared graph:
    /// simulation invariants plus the maintained-reach oracle, non-fatal.
    /// `None` for unknown ids. This is what the sampled production
    /// auditor runs; it holds the slot lock for the audit's duration, so
    /// callers should sample rather than run it per batch.
    pub fn audit_pattern(&self, id: PatternId) -> Option<Result<(), String>> {
        self.with_slot(id, |st| st.audit(&self.graph))
    }

    /// Deliberately desynchronizes one pattern's maintained reach view
    /// from its simulation so [`Self::audit_pattern`] must fail — test
    /// harnesses inject production corruption with this. Returns `false`
    /// when there was nothing to corrupt (unknown id, budget-disabled
    /// maintained mode, or an edgeless view).
    #[doc(hidden)]
    pub fn corrupt_maintained_for_test(&self, id: PatternId) -> bool {
        let Some(slot) = self.slots.iter().find(|s| s.id == id) else { return false };
        slot.state.lock().corrupt_maintained_for_test(&self.graph)
    }

    /// Differential-oracle hook for test harnesses: panics when any
    /// pattern's maintained condensation state diverges from a
    /// from-scratch build.
    #[doc(hidden)]
    pub fn check_maintained_all(&self) {
        for s in &self.slots {
            s.state.lock().check_maintained(&self.graph);
        }
    }
}
