//! [`PatternRegistry`]: patterns maintained over **one** dynamic graph —
//! the one owner of per-pattern maintenance state.
//!
//! A serving system rarely answers a single query shape: N registered
//! patterns watch the same evolving graph. Maintaining each one over a
//! private copy would waste the work they share — every copy mirrors the
//! whole graph, applies every delta, and replays every mutation through
//! its simulation even when the mutation provably cannot touch its
//! pattern.
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
//! * **one refresh per pattern**: after the lockstep replay, each pattern
//!   gets one [`PatternState::refresh`](crate::state::PatternState) call,
//!   in registration order, on the calling thread — the paper's
//!   algorithms are sequential and so is the registry.
//!
//! Answers are **bit-identical** to the static pipeline on a snapshot and
//! to a registry whose shared index can skip nothing (property-tested by
//! `tests/registry_differential.rs` and `tests/equivalence.rs`).

use std::convert::Infallible;

use gpm_core::result::{AnswerDiff, DivResult, TopKResult};
use gpm_graph::dynamic::DynGraph;
use gpm_graph::{DiGraph, GraphDelta, GraphError, Label};
use gpm_pattern::Pattern;
use gpm_ranking::ReachConfig;
use gpm_telemetry::{names, Counter, Gauge, Span, Telemetry};

use crate::state::{Batch, PatternState};

/// Configuration of one pattern registered in a [`PatternRegistry`].
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Number of matches to return.
    pub k: usize,
    /// Trade-off `λ` used by [`PatternRegistry::top_k_diversified`].
    pub lambda: f64,
    /// When the backward dirtiness sweep touches more than this fraction
    /// of the candidate pairs, the relevant-set cache is rebuilt wholesale
    /// instead of entry by entry.
    pub max_dirty_fraction: f64,
    /// When one batch's pair churn (alive flips + effective edge changes)
    /// exceeds this fraction of the alive pairs, the maintained
    /// condensation is dropped for the per-batch reach-engine pipeline
    /// (and re-adopted on the first batch back under the same gate):
    /// in-place SCC maintenance only pays off while the touched region is
    /// small. An absolute floor keeps small graphs maintaining regardless.
    pub max_cond_churn_fraction: f64,
    /// Memory policy of the shared reach engine when deriving relevant
    /// sets — the same [`ReachConfig`] the static pipeline honors; past
    /// the byte budget, dirty-set materialization degrades to per-source
    /// BFS instead of the condensation DP. The diversified answer's stored
    /// `δd` table counts against the same budget, after the maintained
    /// condensation. Only `reach.budget_bytes` is read.
    pub reach: ReachConfig,
    /// Whether refresh planning may skip materializing outputs whose
    /// upper bound (the popcount stored beside each maintained `Full(c)`)
    /// cannot displace the k-th answer. Off = every dirty output is
    /// materialized — the reference side of the *bounded ≡ unbounded*
    /// suites.
    pub bounds: bool,
}

impl IncrementalConfig {
    /// Defaults for a given `k` (`λ = 0.5`, re-derive every relevant set
    /// past a 30% dirty sweep, drop the maintained condensation past 12.5%
    /// pair churn, default reach-engine budget, bound pruning on).
    pub fn new(k: usize) -> Self {
        IncrementalConfig {
            k,
            lambda: 0.5,
            max_dirty_fraction: 0.3,
            max_cond_churn_fraction: 0.125,
            reach: ReachConfig::default(),
            bounds: true,
        }
    }

    /// Same configuration with a different `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }
}

/// Counters describing how one pattern's state has been maintained —
/// the observability the delta-scaling bench and ops dashboards read.
#[derive(Debug, Clone, Default)]
pub struct ApplyStats {
    /// Batches applied.
    pub applies: u64,
    /// Batches handled fully incrementally.
    pub incremental_applies: u64,
    /// Always 0: a batch is always replayed, and nothing re-creates the
    /// simulation after registration. It stays only because the frozen
    /// `benchmark/` package reads it (`benchmark/src/workloads/stream.rs`)
    /// for its `incremental.full_rebuilds` metric; the next `benchmark`
    /// PR removes both.
    pub full_rebuilds: u64,
    /// Batches that kept the simulation incremental but rebuilt every
    /// relevant set.
    pub full_rank_refreshes: u64,
    /// Relevant sets recomputed across all batches.
    pub sets_recomputed: u64,
    /// Batches whose condensation was maintained incrementally (bounded
    /// region re-Tarjan / DAG probe, not a from-scratch condensation).
    pub cond_incremental: u64,
    /// Full re-condensations of the maintained reach state — policy
    /// fallbacks (probe/region overflow), churn drops and re-adoptions.
    /// Zero when the budget keeps maintained mode off.
    pub cond_rebuilds: u64,
    /// Output materializations skipped across all batches because the
    /// maintained upper bound proved they cannot displace the k-th
    /// answer.
    pub pruned_outputs: u64,
    /// From-scratch rebuilds of the maintained bounds: re-condensations
    /// of a live maintained state (probe/region fallbacks) while pruning
    /// was on — always `≤ cond_rebuilds`. Attr-only and tombstone-only
    /// batches must never increment this.
    pub bound_rebuilds: u64,
    /// Candidate pairs visited by the last backward dirtiness sweep.
    pub last_swept_pairs: usize,
    /// Output matches invalidated by the last batch.
    pub last_dirty_outputs: usize,
    /// Outputs the last batch's refresh plan pruned via bounds.
    pub last_pruned_outputs: usize,
    /// Wall nanoseconds of the last served refresh, batch ingress to
    /// answer — what `/patterns` reports as the last refresh latency.
    pub last_refresh_ns: u64,
}

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
    /// Always 0: one pattern's refresh is never split and no metric
    /// stands behind this field. It stays only because the
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
    state: PatternState,
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
/// plane's `/patterns` endpoint serves. Everything here is a copy.
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
    /// Shared observability bundle — [`Telemetry::off`] unless an owner
    /// (the serving layer, a bench) attaches its own: counters always
    /// record, spans/histograms only when the bundle is enabled.
    telemetry: Telemetry,
    counters: RegistryCounters,
}

impl PatternRegistry {
    /// An empty registry over (a dynamic mirror of) `g`.
    pub fn new(g: &DiGraph) -> Self {
        let telemetry = Telemetry::off();
        let counters = RegistryCounters::resolve(&telemetry);
        PatternRegistry {
            graph: DynGraph::from_digraph(g),
            slots: Vec::new(),
            next_id: 0,
            telemetry,
            counters,
        }
    }

    /// [`Self::new`]; `threads` is ignored — a batch runs on the calling
    /// thread. It stays only because the frozen `benchmark/` package calls
    /// it (`benchmark/src/workloads/stream.rs`); the next `benchmark` PR
    /// removes it.
    pub fn with_threads(g: &DiGraph, _threads: usize) -> Self {
        Self::new(g)
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
    /// different configs). Never fails: the [`Infallible`] `Result` is
    /// kept only because the frozen `benchmark/` calls `.expect` on it
    /// (`benchmark/src/workloads/stream.rs`); the next revision of
    /// `benchmark/` drops it.
    pub fn register(
        &mut self,
        q: Pattern,
        cfg: IncrementalConfig,
    ) -> Result<PatternId, Infallible> {
        let state = PatternState::new(&self.graph, q, cfg);
        let id = PatternId(self.next_id);
        self.next_id += 1;
        self.slots.push(Slot { id, state });
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
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<Vec<AnswerChange>, GraphError> {
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
    ) -> Result<Vec<AnswerChange>, GraphError> {
        // Phase 1: mutate the shared graph ONCE, replaying each effective
        // mutation through the interested patterns in lockstep — the hook
        // observes exactly the intermediate graph states a replay over a
        // private copy of the graph would.
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut touched = vec![false; self.slots.len()];
        let applied = {
            let replay_span = parent.child("replay");
            let slots = &mut self.slots;
            let applied = self.graph.apply_with(delta, |g, eff| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    if slot.state.wants(g, eff) {
                        slot.state.replay(g, eff);
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

        // Phase 2: one `PatternState::refresh` per pattern, in
        // registration order; patterns the index proved the whole batch
        // irrelevant to skip the seed scan and report nothing.
        let mut changes = Vec::new();
        for (slot, &was_touched) in self.slots.iter_mut().zip(&touched) {
            let refresh_span = parent.child("refresh");
            if refresh_span.is_enabled() {
                refresh_span.detail(format!("pattern={}", slot.id));
            }
            let batch = if was_touched { Batch::Replayed(&applied) } else { Batch::Untouched };
            if let Some((top, diff)) = slot.state.refresh(&self.graph, batch, &refresh_span) {
                self.counters.bounds_pruned.add(slot.state.stats().last_pruned_outputs as u64);
                changes.push(AnswerChange { id: slot.id, top, diff });
            }
        }

        self.counters.batches.inc();
        self.counters.ops_replayed.add(replayed);
        self.counters.ops_skipped.add(skipped);
        self.counters.last_touched.set(touched.iter().filter(|&&t| t).count() as i64);
        Ok(changes)
    }

    /// Current top-k of every registered pattern, in registration order.
    pub fn answers(&self) -> Vec<(PatternId, TopKResult)> {
        self.slots.iter().map(|s| (s.id, s.state.top_k())).collect()
    }

    /// Current top-k of one pattern (`None` for unknown ids).
    pub fn top_k(&self, id: PatternId) -> Option<TopKResult> {
        self.with_slot(id, |st| st.top_k())
    }

    /// Current diversified top-k of one pattern with its configured `λ`.
    /// Materializes any bound-deferred backlog first (the diversity term
    /// needs every match's relevant set), hence `&mut self`.
    pub fn top_k_diversified(&mut self, id: PatternId) -> Option<DivResult> {
        let lambda = self.with_slot(id, |st| st.cfg().lambda)?;
        self.diversified(id, lambda)
    }

    /// As [`Self::top_k_diversified`] with an explicit `λ`.
    pub fn diversified(&mut self, id: PatternId, lambda: f64) -> Option<DivResult> {
        let slot = self.slots.iter_mut().find(|s| s.id == id)?;
        Some(slot.state.diversified(&self.graph, lambda))
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
        self.slots.iter().find(|s| s.id == id).map(|s| f(&s.state))
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

    /// Full correctness audit of one pattern against the shared graph:
    /// simulation invariants plus the maintained-reach oracle, non-fatal.
    /// `None` for unknown ids. This is what the sampled production
    /// auditor runs; it re-derives the pattern's state, so callers should
    /// sample rather than run it per batch.
    pub fn audit_pattern(&self, id: PatternId) -> Option<Result<(), String>> {
        self.with_slot(id, |st| st.audit(&self.graph))
    }

    /// Deliberately desynchronizes one pattern's maintained reach view
    /// from its simulation so [`Self::audit_pattern`] must fail — test
    /// harnesses inject production corruption with this. Returns `false`
    /// when there was nothing to corrupt (unknown id, budget-disabled
    /// maintained mode, or an edgeless view).
    #[doc(hidden)]
    pub fn corrupt_maintained_for_test(&mut self, id: PatternId) -> bool {
        let Some(slot) = self.slots.iter_mut().find(|s| s.id == id) else { return false };
        slot.state.corrupt_maintained_for_test(&self.graph)
    }
}
