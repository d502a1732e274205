//! [`PatternState`]: the maintenance state of one pattern registered in a
//! [`PatternRegistry`](crate::PatternRegistry).
//!
//! Everything here is **graph-agnostic**: methods take the [`DynGraph`]
//! they maintain against as a parameter, so N states can follow one shared
//! graph. A state bundles the incremental simulation ([`IncSimState`]),
//! the relevant-set cache ([`RelevanceCache`]) and the per-pattern
//! [`ApplyStats`], plus the **interest sets** the registry's shared
//! candidate index consults to skip replaying mutations that provably
//! cannot touch this pattern: a pattern only reacts to nodes whose label
//! it names, to edges whose endpoint-label pair matches one of its own
//! edges, and to attribute mutations on keys its predicates mention.
//!
//! [`PatternState::refresh`] is the **one place a batch becomes an
//! answer**: the registry applies the batch to the graph once, replaying
//! each effective mutation as it lands, and then makes exactly one
//! `refresh` call per pattern per batch, on the calling thread.
//!
//! A refresh pays for what touched its pattern, not for the batch:
//! * [`PatternState::replay`] records the data edges it is handed, so the
//!   pair-view update and the dirtiness seeds read this pattern's edges
//!   only. That is exact: a pair slot `(u, v)` exists only when `v` carries
//!   `u`'s primary label, and an edge the shared index filtered out joins
//!   no two labels a pattern edge joins. Labels are intact at replay time,
//!   even for a node the batch tombstones later.
//! * While the maintained condensation is live, a planned output's `δr` is
//!   read off it as a count; relevant sets are built only when a
//!   diversified answer asks for them.
//! * `serve` ranks only the served answer and the outputs just planned
//!   while that is exact. Suppose the served answer was the top-k of the
//!   whole cache and every served match is still cached with a `δr` no
//!   lower than it was served with. Every other cached match is unchanged
//!   since then and ranked below all of them, so it still ranks below k
//!   matches and cannot enter. Otherwise the whole cache is ranked.

use std::collections::BTreeSet;
use std::time::Instant;

use gpm_core::result::{rank_top_k, AnswerDiff, DivResult, RankedMatch, RunStats, TopKResult};
use gpm_core::topk_div::greedy_diversified;
use gpm_core::BoundedSelector;
use gpm_graph::dynamic::DynGraph;
use gpm_graph::{AppliedDelta, BitSet, EffectiveOp, Label, NodeId, NodeSet};
use gpm_pattern::Pattern;
use gpm_ranking::objective::{c_uo_with, Objective};
use gpm_ranking::{CondPolicy, CondensationState, MaintainError, ReachEngine, RelevanceCache};
use gpm_simulation::{DynMatchGraph, IncSimState};
use gpm_telemetry::Span;

use crate::registry::{ApplyStats, IncrementalConfig};

/// Below this absolute churn the maintained-condensation churn gate
/// ([`PatternState::cond_churn_high`]) never fires.
const COND_MAINT_CHURN_FLOOR: usize = 512;

/// What a batch did to one pattern before its [`PatternState::refresh`].
pub(crate) enum Batch<'a> {
    /// The batch's effective mutations were replayed through the
    /// simulation; the graph is in the post-batch state they describe.
    /// The whole batch is passed for its churn: the data edges this
    /// pattern saw are the ones [`PatternState::replay`] recorded.
    Replayed(&'a AppliedDelta),
    /// The shared index proved the whole batch irrelevant to the pattern:
    /// nothing was replayed and its answer cannot have moved.
    Untouched,
}

/// The stateful half of the reach engine: the alive-pair view kept
/// across batches plus the incrementally maintained condensation
/// over it (whose `Full(c)` sizes are also the upper bounds `h` that
/// [`PatternState::plan_refresh`] prunes against). Present only while
/// the reach budget admits the retained `Full(c)` sets — dropped (never
/// half-trusted) when their measured bytes stop fitting, at which point
/// [`PatternState::materialize`] falls back to the per-batch
/// [`ReachEngine`] prepare. Growth of the node-id space is not an event
/// here: a `Full(c)` is a sorted set of node ids, with no width to grow.
#[derive(Debug, Clone)]
struct MaintainedReach {
    view: DynMatchGraph,
    cond: CondensationState,
}

/// The data edges one batch inserted and removed that the pattern
/// replayed, each list in application order.
#[derive(Debug, Clone, Default)]
struct ReplayedEdges {
    added: Vec<(NodeId, NodeId)>,
    removed: Vec<(NodeId, NodeId)>,
}

/// Materialized simulation + ranking state of one pattern, maintained
/// against a [`DynGraph`] owned by the caller.
#[derive(Debug, Clone)]
pub(crate) struct PatternState {
    pattern: Pattern,
    cfg: IncrementalConfig,
    sim: IncSimState,
    cache: RelevanceCache,
    stats: ApplyStats,
    /// Maintained condensation state, when the budget admits one.
    maintained: Option<MaintainedReach>,
    /// Set when `maintained` was dropped by the churn gate (not the
    /// budget): the next calm batch re-adopts it with one from-scratch
    /// build. Budget drops leave this `false` so a too-big state is not
    /// rebuilt just to be re-measured and re-dropped every batch.
    maint_readopt: bool,
    /// Primary labels of the pattern's nodes — candidates of a node always
    /// carry its primary label (candidate enumeration scans the label
    /// class), so structural ops on other labels are no-ops. `None` when
    /// some pattern node's predicate implies no label (e.g. a bare `Or`):
    /// then *any* node could be its candidate and label filtering is
    /// unsound — fall back to dispatching every structural op.
    node_labels: Option<BTreeSet<Label>>,
    /// `(label(u), label(u'))` for every pattern edge `(u, u')`; `None`
    /// when some pattern edge has an endpoint without a primary label.
    edge_label_pairs: Option<BTreeSet<(Label, Label)>>,
    /// Primary label of each pattern node, by node id: a node carrying
    /// another label holds no valid pair of it.
    primary_labels: Vec<Option<Label>>,
    /// Data edges of the batch being replayed, drained by the refresh.
    edges: ReplayedEdges,
    /// Attribute keys mentioned by any of the pattern's predicates — the
    /// registry's *attribute-key interest*: a `SetAttr`/`UnsetAttr` on any
    /// other key cannot change any candidacy, hence is a provable no-op
    /// for this pattern.
    attr_keys: BTreeSet<String>,
    /// The ranked answer last surfaced through [`Self::serve`] — the
    /// baseline the next answer is diffed against, so consumers (the
    /// registry's change sets, the serving layer's subscriptions) learn
    /// *what moved*, not just the fresh list.
    served: Vec<RankedMatch>,
    /// `true` while `served` is the top-k of the whole cache: set by every
    /// ranking, cleared when the graph stops matching (nothing is served)
    /// and when outputs enter the cache unranked. What lets `serve` rank
    /// only `served` and the planned outputs.
    served_is_top: bool,
    /// Whether the last `serve` took that shortcut.
    #[cfg(test)]
    last_rank_seeded: bool,
    /// Alive output matches whose relevant-set materialization was
    /// skipped because their maintained upper bound cannot displace the
    /// k-th answer. Invariant: `cache ∪ deferred` = the alive structural
    /// output matches, and no deferred output belongs to the true top-k.
    /// Every batch re-checks the whole set (the k-th answer can drop);
    /// they materialize eagerly when bounds become unavailable or a
    /// diversified answer needs the full cache.
    deferred: BTreeSet<NodeId>,
}

impl PatternState {
    /// Materializes the state for `q` over the current contents of `g`.
    pub(crate) fn new(g: &DynGraph, pattern: Pattern, cfg: IncrementalConfig) -> Self {
        let sim = IncSimState::new(g, &pattern);
        let primary_labels: Vec<Option<Label>> =
            pattern.nodes().map(|u| pattern.predicate(u).primary_label()).collect();
        let node_labels: Option<BTreeSet<Label>> = primary_labels.iter().copied().collect();
        let edge_label_pairs: Option<BTreeSet<(Label, Label)>> = pattern
            .edges()
            .map(|(u, uc)| {
                Some((
                    pattern.predicate(u).primary_label()?,
                    pattern.predicate(uc).primary_label()?,
                ))
            })
            .collect();
        let mut attr_keys = BTreeSet::new();
        for u in pattern.nodes() {
            pattern.predicate(u).collect_attr_keys(&mut attr_keys);
        }
        let mut state = PatternState {
            cache: RelevanceCache::default(),
            pattern,
            cfg,
            sim,
            stats: ApplyStats::default(),
            node_labels,
            edge_label_pairs,
            primary_labels,
            edges: ReplayedEdges::default(),
            attr_keys,
            served: Vec::new(),
            served_is_top: false,
            #[cfg(test)]
            last_rank_seeded: false,
            maintained: None,
            maint_readopt: false,
            deferred: BTreeSet::new(),
        };
        state.rebuild_maintained(g, &Span::disabled());
        let outputs = state.full_plan();
        state.stats.sets_recomputed += outputs.len() as u64;
        state.materialize(g, &outputs, false, &Span::disabled());
        state.sim.take_dirty();
        state.served = state.top_k().matches;
        state.served_is_top = state.sim.graph_matches(&state.pattern);
        state
    }

    /// The pattern being served.
    pub(crate) fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The maintenance configuration.
    pub(crate) fn cfg(&self) -> &IncrementalConfig {
        &self.cfg
    }

    /// Maintenance counters.
    pub(crate) fn stats(&self) -> &ApplyStats {
        &self.stats
    }

    /// `true` when `eff` can possibly affect this pattern's simulation —
    /// the shared-index test the registry uses to skip replays. Skipping a
    /// mutation this returns `false` for is a provable no-op: candidates
    /// are label-matched, so a node whose label the pattern never names
    /// has no pairs; an edge whose endpoint-label pair matches no pattern
    /// edge touches no support counter and seeds no revival; and an
    /// attribute mutation on a key no predicate mentions cannot change any
    /// candidacy (candidacy is a pure function of `(label, attrs)`).
    /// Patterns with label-free predicates degrade gracefully: their label
    /// filters report interested for every structural op.
    pub(crate) fn wants(&self, g: &DynGraph, eff: &EffectiveOp) -> bool {
        match *eff {
            EffectiveOp::NodeAdded(_, label) | EffectiveOp::NodeRemoved(_, label) => {
                self.node_labels.as_ref().is_none_or(|set| set.contains(&label))
            }
            EffectiveOp::EdgeAdded(s, t) | EffectiveOp::EdgeRemoved(s, t) => {
                // Labels are still intact here: RemoveNode strips incident
                // edges (emitting these ops) before tombstoning the slot.
                self.edge_label_pairs
                    .as_ref()
                    .is_none_or(|set| set.contains(&(g.label(s), g.label(t))))
            }
            EffectiveOp::AttrSet { ref key, .. } | EffectiveOp::AttrUnset { ref key, .. } => {
                self.attr_keys.contains(&**key)
            }
        }
    }

    /// Replays one effective mutation through the simulation state, with
    /// `g` in exactly the intermediate state the mutation produced, and
    /// records a data edge for the batch's refresh.
    pub(crate) fn replay(&mut self, g: &DynGraph, eff: &EffectiveOp) {
        let q = &self.pattern;
        match *eff {
            EffectiveOp::NodeAdded(v, _) => self.sim.on_node_added(g, q, v),
            EffectiveOp::EdgeAdded(s, t) => {
                self.edges.added.push((s, t));
                self.sim.on_edge_inserted(g, q, s, t)
            }
            EffectiveOp::EdgeRemoved(s, t) => {
                self.edges.removed.push((s, t));
                self.sim.on_edge_removed(g, q, s, t)
            }
            EffectiveOp::NodeRemoved(v, _) => self.sim.on_node_removed(q, v),
            EffectiveOp::AttrSet { node, ref key, .. }
            | EffectiveOp::AttrUnset { node, ref key } => self.sim.on_attr_changed(g, q, node, key),
        }
    }

    /// Turns one applied batch into this pattern's fresh answer plus its
    /// diff against the previously served one — the sequence the registry
    /// runs once per pattern per batch, after replaying it: count the
    /// apply, then fold the batch into the maintained reach state and
    /// plan | note the batch passed by; materialize the planned outputs'
    /// relevances; rank and diff. `g` must be in the post-batch state. Returns
    /// `None` for [`Batch::Untouched`]: the answer provably did not move,
    /// so it is neither re-ranked nor reported.
    ///
    /// `condense_incremental`, `plan`, `prepare` and `extract` children
    /// land on `span` (pass [`Span::disabled`] for an untraced refresh);
    /// the batch's bound-pruned count is
    /// [`ApplyStats::last_pruned_outputs`].
    pub(crate) fn refresh(
        &mut self,
        g: &DynGraph,
        batch: Batch<'_>,
        span: &Span,
    ) -> Option<(TopKResult, AnswerDiff)> {
        let t0 = Instant::now();
        self.stats.applies += 1;
        let Batch::Replayed(applied) = batch else {
            self.refresh_untouched();
            return None;
        };
        let mut edges = std::mem::take(&mut self.edges);
        let flips = self.maintain_reach(g, applied, &edges, span);
        let plan_span = span.child("plan");
        let outputs = self.plan_refresh(g, &edges, flips);
        if plan_span.is_enabled() {
            plan_span.detail(format!(
                "outputs={} pruned={}",
                outputs.len(),
                self.stats.last_pruned_outputs
            ));
        }
        drop(plan_span);
        edges.added.clear();
        edges.removed.clear();
        self.edges = edges;
        self.stats.sets_recomputed += outputs.len() as u64;
        let planned = self.materialize(g, &outputs, false, span);
        Some(self.serve(t0, &planned))
    }

    /// Post-batch bookkeeping for a pattern the shared index proved the
    /// whole batch irrelevant to: no mutation was replayed, so no pair
    /// flipped and — because a seedable changed edge needs a pattern edge
    /// with its exact endpoint-label pair, and a candidacy-changing attr
    /// flip needs a mentioned key (the same tests [`Self::wants`] applies)
    /// — the edge scan of [`Self::plan_refresh`] could not yield a seed
    /// either. Only the per-batch counters remain: nodes the batch
    /// appended cost this pattern nothing.
    fn refresh_untouched(&mut self) {
        let seeds = self.sim.take_dirty();
        debug_assert!(seeds.is_empty(), "untouched pattern has no flips");
        debug_assert!(self.edges.added.is_empty() && self.edges.removed.is_empty());
        self.stats.incremental_applies += 1;
        self.stats.last_swept_pairs = 0;
        self.stats.last_dirty_outputs = 0;
        self.stats.last_pruned_outputs = 0;
    }

    /// Folds the batch into the maintained reach state (pair view +
    /// condensation), **draining the simulation's flips** — which it
    /// returns for [`Self::plan_refresh`] to seed from, so the two
    /// consumers of `take_dirty` stay one. Must run once per applied
    /// batch, before planning. Emits a `condense_incremental` child span
    /// and counts incremental applies vs. full re-condensation fallbacks.
    ///
    /// Batch churn past [`Self::cond_churn_high`] drops the maintained
    /// state for the per-batch engine instead — incremental maintenance
    /// only pays off while the touched region is small — and the first
    /// batch back under the same gate re-adopts it. The churn counts every
    /// edge of the batch; the pair view reads only the pattern's `edges`.
    fn maintain_reach(
        &mut self,
        g: &DynGraph,
        applied: &AppliedDelta,
        edges: &ReplayedEdges,
        span: &Span,
    ) -> Vec<u32> {
        let flips = self.sim.take_dirty();
        let churn = flips.len() + applied.edge_churn();
        let Some(mut mr) = self.maintained.take() else {
            // Re-adoption after a churn drop: once the stream is calm
            // again one from-scratch build restores the maintained state,
            // paid back over the cheap batches that follow. A build the
            // budget rejects clears the flag so it is not retried.
            if self.maint_readopt && !self.cond_churn_high(churn) {
                let ci = span.child("condense_incremental");
                ci.event("cond-churn-readopt");
                self.stats.cond_rebuilds += 1;
                self.rebuild_maintained(g, &ci);
            }
            return flips;
        };
        let ci = span.child("condense_incremental");
        // Past the churn gate the incremental dance — per-edge CSR
        // surgery in the view plus the bounded-region re-condensation —
        // costs more than the per-batch engine pipeline: drop the
        // maintained state and let `materialize` run the from-scratch
        // engine prepare, which only materializes the planned sources.
        if self.cond_churn_high(churn) {
            ci.event("cond-churn-drop");
            self.stats.cond_rebuilds += 1;
            self.maintained = None;
            self.maint_readopt = true;
            return flips;
        }
        let delta = mr.view.apply_pair_delta(
            g,
            &self.pattern,
            &self.sim,
            &flips,
            &edges.added,
            &edges.removed,
        );
        if delta.is_empty() {
            self.stats.cond_incremental += 1;
            self.maintained = Some(mr);
            return flips;
        }
        match mr.cond.apply(&mr.view, &delta, &CondPolicy::default()) {
            Ok(ms) => {
                self.stats.cond_incremental += 1;
                if ci.is_enabled() {
                    ci.detail(format!(
                        "changes={} region={} fulls={}",
                        delta.change_count(),
                        ms.region_pairs,
                        ms.recomputed_fulls
                    ));
                }
                self.install_maintained(mr, &ci);
            }
            Err(e) => {
                // Past the policy thresholds a from-scratch condensation
                // is cheaper than the bounded-region dance. The view is
                // already post-batch; only the condensation restarts —
                // and, while pruning is on, the bounds stored in it.
                ci.event(match e {
                    MaintainError::ProbeOverflow => "cond-probe-fallback",
                    MaintainError::RegionOverflow => "cond-region-fallback",
                });
                self.stats.cond_rebuilds += 1;
                self.stats.bound_rebuilds += u64::from(self.cfg.bounds);
                mr.cond = CondensationState::build(&mr.view, |p| mr.view.is_alive(p));
                self.install_maintained(mr, &ci);
            }
        }
        flips
    }

    /// `true` when a batch's pair churn (alive flips + effective edge
    /// changes) is past the maintained-condensation gate: above the
    /// absolute floor — small graphs (and the adversarial unit streams)
    /// always maintain, which is cheap there and keeps the path exercised
    /// — and above [`IncrementalConfig::max_cond_churn_fraction`] of the
    /// post-batch simulation's alive pairs (default 12.5 %: the
    /// dirty-region classes have in-place maintenance winning clearly at
    /// 2 % dirty and losing by 25 %). The drop and the re-adopt decision
    /// both ask this, so one churn level cannot drop the state and
    /// re-adopt it on alternate batches.
    fn cond_churn_high(&self, churn: usize) -> bool {
        churn > COND_MAINT_CHURN_FLOOR
            && churn as f64 > self.sim.alive_pairs() as f64 * self.cfg.max_cond_churn_fraction
    }

    /// Derives the dirty seeds from the simulation flips and the changed
    /// data edges, sweeps backward to the affected output matches, and
    /// returns the alive output matches whose relevant sets to re-derive,
    /// ascending (past the dirtiness threshold, all of them). Output
    /// matches that died are dropped from the cache here; ones the
    /// maintained upper bounds prove unable to displace the k-th answer
    /// are parked in the deferred set and counted in
    /// [`ApplyStats::last_pruned_outputs`] instead.
    fn plan_refresh(
        &mut self,
        g: &DynGraph,
        edges: &ReplayedEdges,
        flips: Vec<u32>,
    ) -> Vec<NodeId> {
        self.stats.last_pruned_outputs = 0;
        // Seeds of the dirtiness sweep: every alive-flip (drained by
        // [`Self::maintain_reach`], which must run first), plus the source
        // pairs of every data edge the pattern replayed (an edge between
        // two alive pairs changes match-graph reachability without
        // flipping anybody).
        // Target candidacy is tested by slot existence, not the valid
        // flag: for edges dropped by a node tombstone the target's valid
        // flag is already cleared by the time this runs, but the surviving
        // source pairs still lost a relevant descendant. Sources
        // tombstoned in the same batch need no seed of their own — their
        // incoming edges were removed too, seeding every live ancestor.
        let mut seeds: Vec<u32> = flips;
        for &(v, w) in edges.added.iter().chain(&edges.removed) {
            for u in self.pattern.nodes() {
                let Some(s) = self.sim.valid_slot(u, v) else { continue };
                let touches =
                    self.pattern.successors(u).iter().any(|&uc| self.sim.slot_of(uc, w).is_some());
                if touches {
                    seeds.push(s);
                }
            }
        }
        if seeds.is_empty() {
            self.stats.incremental_applies += 1;
            self.stats.last_swept_pairs = 0;
            self.stats.last_dirty_outputs = 0;
            return Vec::new();
        }

        // Backward sweep: every valid candidate pair that can reach a seed
        // in the candidate-pair graph (alive-agnostic — old paths may run
        // through freshly dead pairs) might have gained or lost relevant
        // descendants.
        let uo = self.pattern.output();
        let total_pairs: usize = self.pattern.nodes().map(|u| self.sim.candidate_count(u)).sum();
        let sweep_cap = (self.cfg.max_dirty_fraction * total_pairs.max(1) as f64).ceil() as usize;
        // Queued in seed order: where an overflowing sweep stops — hence
        // `last_swept_pairs` — must not vary run to run. Every visited
        // slot is queued exactly once, so the queue is the visited set.
        let mut visited = BitSet::new(self.sim.slot_count());
        let mut queue: Vec<u32> = seeds;
        queue.retain(|&s| visited.insert(s as usize));
        let mut overflow = false;
        let mut cursor = 0;
        while cursor < queue.len() {
            if queue.len() > sweep_cap {
                overflow = true;
                break;
            }
            let (u, x) = self.sim.pair(queue[cursor]);
            cursor += 1;
            for &t in self.pattern.predecessors(u) {
                let label = self.primary_labels[t as usize];
                for y in g.predecessors(x) {
                    if label.is_some_and(|l| l != g.label(y)) {
                        continue;
                    }
                    if let Some(s) = self.sim.valid_slot(t, y) {
                        if visited.insert(s as usize) {
                            queue.push(s);
                        }
                    }
                }
            }
        }
        self.stats.last_swept_pairs = queue.len();

        if overflow {
            // The affected region is most of the graph: rebuild the whole
            // cache (simulation stays incremental — it already converged).
            self.stats.full_rank_refreshes += 1;
            return self.full_plan();
        }

        // Partial refresh: only the affected output matches need work.
        let mut dirty_outputs: Vec<(NodeId, u32)> = queue
            .iter()
            .filter_map(|&s| {
                let (u, v) = self.sim.pair(s);
                (u == uo).then_some((v, s))
            })
            .collect();
        dirty_outputs.sort_unstable();
        self.stats.last_dirty_outputs = dirty_outputs.len();

        // Candidates needing fresh sets: the dirty alive outputs plus the
        // whole deferred backlog. The k-th answer can *drop*, readmitting
        // a deferred output — and a non-dirty deferred output's bound is
        // provably unchanged (any reach change seeds the sweep, which
        // would have made it dirty), so re-checking it against the
        // current k-th stays exact. Dead outputs leave both sides.
        let mut candidates: Vec<NodeId> =
            Vec::with_capacity(dirty_outputs.len() + self.deferred.len());
        for (v, s) in dirty_outputs {
            if self.sim.is_alive(s) {
                candidates.push(v);
            } else {
                self.cache.remove(v);
                self.deferred.remove(&v);
            }
        }
        let dirty_alive = candidates.len();
        for &v in &self.deferred {
            if candidates[..dirty_alive].binary_search(&v).is_err() {
                candidates.push(v);
            }
        }
        candidates.sort_unstable();
        self.stats.incremental_applies += 1;
        if candidates.is_empty() {
            return candidates;
        }

        // Bound-driven pruning, when the maintained condensation is live.
        let Some(mr) = self.maintained.as_ref().filter(|_| self.cfg.bounds) else {
            // No usable bounds: flush — materialize everything, including
            // any backlog deferred while bounds were available.
            self.deferred.clear();
            return candidates;
        };

        // Seed the selector with surviving clean answers: their cached
        // relevances are exact, and materializing planned outputs can only
        // improve the k-th entry under `(relevance desc, node asc)` — so a
        // candidate dominated now stays dominated by the final answer
        // (single-round pruning is exact, no second pass needed). Any
        // lower bound on the final k-th entry keeps that argument, so the
        // last served top-k (clean members re-read from the cache, whose
        // relevances cannot have moved without making them candidates) is
        // enough — O(k) instead of a cache-wide scan. When fewer than k
        // served entries survive cleanly (top-k churn, nothing served
        // yet), fall back to the exhaustive scan: an under-filled
        // selector dominates nothing and would disable pruning outright.
        let mut sel = BoundedSelector::new(self.cfg.k);
        let mut seeded = 0usize;
        for mch in &self.served {
            if candidates.binary_search(&mch.node).is_ok() {
                continue;
            }
            if let Some(r) = self.cache.relevance_of(mch.node) {
                sel.offer(mch.node as usize, mch.node, r);
                seeded += 1;
            }
        }
        if seeded < self.cfg.k {
            sel = BoundedSelector::new(self.cfg.k);
            for (v, r) in self.cache.relevances() {
                if candidates.binary_search(&v).is_err() {
                    sel.offer(v as usize, v, r);
                }
            }
        }
        let mut outputs = Vec::with_capacity(candidates.len());
        let mut pruned = 0usize;
        for v in candidates {
            let h = self.sim.slot_of(uo, v).and_then(|p| mr.cond.upper_bound(p));
            match h {
                Some(h) if sel.dominates(h, v) => {
                    pruned += 1;
                    self.cache.remove(v);
                    self.deferred.insert(v);
                }
                _ => {
                    self.deferred.remove(&v);
                    outputs.push(v);
                }
            }
        }
        self.stats.last_pruned_outputs = pruned;
        self.stats.pruned_outputs += pruned as u64;
        outputs
    }

    /// The current top-k by relevance.
    pub(crate) fn top_k(&self) -> TopKResult {
        let ranked = self.sim.graph_matches(&self.pattern).then(|| self.rank_whole_cache());
        self.answer(Instant::now(), ranked)
    }

    /// Serves the current answer together with its diff against the
    /// previously served one, advancing the served baseline. The diff is
    /// empty exactly when the answer did not materially change (same
    /// `(node, δr)` sequence) — the signal push consumers key on.
    /// `planned` are the outputs this refresh materialized with their
    /// `δr`, ascending by node.
    fn serve(&mut self, t0: Instant, planned: &[(NodeId, u64)]) -> (TopKResult, AnswerDiff) {
        let ranked = self.sim.graph_matches(&self.pattern).then(|| self.rank_refreshed(planned));
        self.served_is_top = ranked.is_some();
        let top = self.answer(t0, ranked);
        self.stats.last_refresh_ns = top.stats.elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let diff = AnswerDiff::between(&self.served, &top.matches);
        if !diff.is_empty() {
            self.served = top.matches.clone();
        }
        (top, diff)
    }

    /// The top-k of the whole cache.
    fn rank_whole_cache(&self) -> Vec<RankedMatch> {
        rank_top_k(self.cache.relevances(), self.cfg.k)
    }

    /// The top-k of the whole cache after a refresh that upserted
    /// `planned` (ascending by node): ranked over `served ∪ planned` alone while
    /// `served` was the whole cache's top-k and every served match is
    /// still cached with a `δr` no lower than it was served with (see the
    /// module docs for why nothing else can enter); over the whole cache
    /// otherwise.
    fn rank_refreshed(&mut self, planned: &[(NodeId, u64)]) -> Vec<RankedMatch> {
        let cache = &self.cache;
        let seeded = self.served_is_top
            && self
                .served
                .iter()
                .all(|m| cache.relevance_of(m.node).is_some_and(|r| r >= m.relevance));
        #[cfg(test)]
        {
            self.last_rank_seeded = seeded;
        }
        if !seeded {
            return self.rank_whole_cache();
        }
        let unplanned_served = self
            .served
            .iter()
            .filter(|m| planned.binary_search_by_key(&m.node, |&(v, _)| v).is_err())
            .map(|m| (m.node, cache.relevance_of(m.node).expect("served outputs are cached")));
        let ranked = rank_top_k(planned.iter().copied().chain(unplanned_served), self.cfg.k);
        debug_assert_eq!(ranked, self.rank_whole_cache(), "served ∪ planned misses the top-k");
        ranked
    }

    /// The answer: `ranked` (`None` when the graph does not match) with
    /// its stats, timed from `t0` (so a refresh's latency includes the
    /// maintenance work).
    fn answer(&self, t0: Instant, ranked: Option<Vec<RankedMatch>>) -> TopKResult {
        let q = &self.pattern;
        // Under the paper's emptiness rule Mu(Q,G,uo) = ∅ even though the
        // cache stays structurally maintained — report stats the way the
        // static pipeline would (total known to be 0). Deferred outputs
        // are alive matches whose relevances were never inspected — they
        // count toward the total but not the inspected tally, and their
        // existence is exactly what "early terminated" means here.
        let (matches, inspected, total) = match ranked {
            Some(matches) => (matches, self.cache.len(), self.cache.len() + self.deferred.len()),
            None => (Vec::new(), 0, 0),
        };
        TopKResult {
            matches,
            stats: RunStats {
                output_candidates: self.sim.candidate_count(q.output()),
                inspected_matches: inspected,
                total_matches: Some(total),
                waves: 1,
                early_terminated: total > inspected,
                elapsed: t0.elapsed(),
                ..Default::default()
            },
        }
    }

    /// The normalizer `Cuo` the diversified objective divides `δr` by —
    /// computed from the maintained candidate counts through the same
    /// [`c_uo_with`] definition the static pipeline uses.
    pub(crate) fn normalizer(&self) -> u64 {
        c_uo_with(&self.pattern, |u| self.sim.candidate_count(u))
    }

    /// Builds the relevant set of every deferred output and of every
    /// cached match that holds only its `δr`, emptying the deferred set —
    /// the eager escape hatch for consumers that need the **full** cache
    /// of sets (the diversified objective scores pairwise distances over
    /// all matches, so bounds on relevance alone cannot prune for it
    /// honestly). The sets go through the cache's `upsert`, so each one
    /// starts with no stored `δd`. A deferred output is planned here, and
    /// counted in [`ApplyStats::sets_recomputed`]; a count turning into
    /// its set was counted when it was planned.
    fn ensure_complete(&mut self, g: &DynGraph) {
        let deferred = std::mem::take(&mut self.deferred);
        if !deferred.is_empty() {
            // They enter the cache unranked.
            self.served_is_top = false;
            self.stats.sets_recomputed += deferred.len() as u64;
        }
        let mut outputs: Vec<NodeId> = self.cache.count_only().chain(deferred).collect();
        outputs.sort_unstable();
        self.materialize(g, &outputs, true, &Span::disabled());
    }

    /// The current diversified top-k with an explicit `λ`. Takes the
    /// graph because a deferred backlog must materialize first: `F(S)`
    /// mixes relevance with pairwise set distances, and a relevance
    /// upper bound says nothing about diversity — pruning here would be
    /// dishonest, so the answer is computed on the complete cache.
    ///
    /// The greedy reads its `δd` from the cache's distance table, so a
    /// call computes Jaccards only for pairs with a set upserted since the
    /// last call. The table is kept while its bytes plus
    /// [`Self::maintained_bytes`] fit the reach budget; past it each call
    /// computes its distances afresh, with the same answer.
    /// `stats.elapsed` covers the backlog materialization too.
    pub(crate) fn diversified(&mut self, g: &DynGraph, lambda: f64) -> DivResult {
        let t0 = Instant::now();
        self.ensure_complete(g);
        let q = &self.pattern;
        if !self.sim.graph_matches(q) {
            // Mirror the static pipeline's stats: Mu(Q,G,uo) = ∅, known.
            return DivResult {
                matches: Vec::new(),
                f_value: 0.0,
                stats: RunStats {
                    output_candidates: self.sim.candidate_count(q.output()),
                    total_matches: Some(0),
                    elapsed: t0.elapsed(),
                    ..Default::default()
                },
            };
        }
        let objective = Objective::new(lambda, self.cfg.k, self.normalizer());
        let budget = self.cfg.reach.budget_bytes.saturating_sub(self.maintained_bytes());
        let pairs = self.cache.pairwise(budget);
        let rel: Vec<f64> = pairs.relevances.iter().map(|&r| r as f64).collect();
        let (selected, f_value) =
            greedy_diversified(&objective, &rel, &|i, j| pairs.distance(i, j));
        let picked: Vec<RankedMatch> = selected
            .iter()
            .map(|&i| RankedMatch { node: pairs.nodes[i], relevance: pairs.relevances[i] })
            .collect();
        DivResult {
            matches: picked,
            f_value,
            stats: RunStats {
                output_candidates: self.sim.candidate_count(q.output()),
                inspected_matches: rel.len(),
                total_matches: Some(rel.len()),
                elapsed: t0.elapsed(),
                ..Default::default()
            },
        }
    }

    // ---------------------------------------------------------- internals

    /// Resets the cache and plans a re-derivation of **every** structural
    /// output match (fresh registration, sweep overflow).
    fn full_plan(&mut self) -> Vec<NodeId> {
        self.cache = RelevanceCache::default();
        self.deferred.clear();
        self.sim.structural_matches_of(self.pattern.output())
    }

    /// Rebuilds the maintained reach state from scratch over the current
    /// graph; [`Self::install_maintained`] keeps it only if its measured
    /// bytes fit the reach budget.
    fn rebuild_maintained(&mut self, g: &DynGraph, span: &Span) {
        self.maintained = None;
        self.maint_readopt = false;
        let view = DynMatchGraph::over_alive(g, &self.pattern, &self.sim);
        let cond = CondensationState::build(&view, |p| view.is_alive(p));
        self.install_maintained(MaintainedReach { view, cond }, span);
    }

    /// The one place a (re)built or freshly maintained condensation
    /// becomes the state's: a condensation whose retained bytes exceed
    /// the reach budget is discarded rather than kept on credit, leaving
    /// the per-batch engine (which makes its own budget decision every
    /// prepare). Clears the re-adopt flag either way: a too-big state
    /// must not be rebuilt just to be re-measured and re-dropped.
    fn install_maintained(&mut self, mr: MaintainedReach, span: &Span) {
        self.maint_readopt = false;
        if mr.cond.retained_bytes() > self.cfg.reach.budget_bytes {
            span.event("cond-budget-drop");
            self.maintained = None;
        } else {
            self.maintained = Some(mr);
        }
    }

    /// Derives and caches the relevance of every output in `outputs`
    /// (alive output matches, ascending) — the one materialization path,
    /// on the calling thread. `prepare` is phase 1 of the reach
    /// computation: with a live maintained condensation it happened
    /// already, spread over every batch since the state was built, and is
    /// just resolving the planned outputs' pair slots — O(plan), not
    /// O(view); otherwise the per-batch [`ReachEngine`]
    /// builds the alive-pair view and condenses it (its `tarjan` /
    /// `bitsets` sub-phases and budget-fallback events land under the
    /// `prepare` span). `extract` stores each output's `δr` — read off
    /// the maintained condensation as a count, unless `sets` asks for the
    /// strict-reach set itself — or, from the engine, its set (past the
    /// reach budget, BFSed); the span stays open across the cache inserts.
    /// The engine's sets are bitsets as wide as the graph; each distinct
    /// one becomes a [`NodeSet`] once, and the sources sharing it clone
    /// the small result. Returns each output with the `δr` stored.
    fn materialize(
        &mut self,
        g: &DynGraph,
        outputs: &[NodeId],
        sets: bool,
        span: &Span,
    ) -> Vec<(NodeId, u64)> {
        if outputs.is_empty() {
            return Vec::new();
        }
        let q = &self.pattern;
        let uo = q.output();
        let prep = span.child("prepare");
        let extract_span = || {
            let ex = span.child("extract");
            if ex.is_enabled() {
                ex.detail(format!("outputs={}", outputs.len()));
            }
            ex
        };
        let sources: Vec<u32> = outputs
            .iter()
            .map(|&v| self.sim.alive_slot(uo, v).expect("planned outputs are alive"))
            .collect();
        let _extract;
        let mut stored = Vec::with_capacity(outputs.len());
        match &self.maintained {
            Some(mr) => {
                if prep.is_enabled() {
                    prep.detail(format!("sources={} dp=true maintained=true", outputs.len()));
                }
                drop(prep);
                _extract = extract_span();
                for (&v, &p) in outputs.iter().zip(&sources) {
                    let r = if sets {
                        let set = mr.cond.strict_reach(p);
                        let r = set.len() as u64;
                        self.cache.upsert(v, set);
                        r
                    } else {
                        let r = mr.cond.strict_len(&mr.view, p);
                        self.cache.upsert_count(v, r);
                        r
                    };
                    stored.push((v, r));
                }
            }
            None => {
                let view = DynMatchGraph::over_alive(g, q, &self.sim);
                let engine = ReachEngine::prepare_traced(view, sources, &self.cfg.reach, &prep);
                if prep.is_enabled() {
                    prep.detail(format!("sources={} dp={}", outputs.len(), engine.used_dp()));
                }
                drop(prep);
                _extract = extract_span();
                for (&v, set) in outputs.iter().zip(engine.extract_with(NodeSet::from_bits)) {
                    stored.push((v, set.len() as u64));
                    self.cache.upsert(v, set);
                }
            }
        }
        stored
    }

    /// Relevant set of output match `v` by forward BFS over the alive
    /// match graph (adjacency derived on the fly from the dynamic graph
    /// and the simulation state) — the pre-DP derivation, kept **only**
    /// as a differential oracle for the shared reach engine. Strict
    /// reachability: seeded from the pair's successors, so `v` itself
    /// only enters through a cycle.
    #[cfg(test)]
    pub(crate) fn relevant_set_bfs(&self, g: &DynGraph, v: NodeId) -> Vec<usize> {
        use gpm_simulation::incremental::DynPair;
        use std::collections::HashSet;
        let q = &self.pattern;
        let uo = q.output();
        let mut visited: HashSet<DynPair> = HashSet::new();
        let mut queue: Vec<DynPair> = Vec::new();
        let push_children =
            |from: DynPair, visited: &mut HashSet<DynPair>, queue: &mut Vec<DynPair>| {
                let (u, x) = from;
                for &uc in q.successors(u) {
                    for w in g.successors(x) {
                        if self.sim.pair_alive(uc, w) && visited.insert((uc, w)) {
                            queue.push((uc, w));
                        }
                    }
                }
            };
        push_children((uo, v), &mut visited, &mut queue);
        let mut cursor = 0;
        while cursor < queue.len() {
            let p = queue[cursor];
            cursor += 1;
            push_children(p, &mut visited, &mut queue);
        }
        let nodes: HashSet<usize> = visited.iter().map(|&(_, x)| x as usize).collect();
        let mut out: Vec<usize> = nodes.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Test access to the cache (the DP ≡ BFS oracle reads it).
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &RelevanceCache {
        &self.cache
    }

    /// Test access to the simulation state.
    #[cfg(test)]
    pub(crate) fn sim(&self) -> &IncSimState {
        &self.sim
    }

    /// Test access to the deferred (bound-pruned, unmaterialized) outputs.
    #[cfg(test)]
    pub(crate) fn deferred_outputs(&self) -> &BTreeSet<NodeId> {
        &self.deferred
    }

    /// Differential oracle for the maintained reach state (trivially `Ok`
    /// when the budget keeps it off): the maintained pair view must equal
    /// a scratch packing over the current simulation, and the maintained
    /// condensation must validate against a from-scratch build — the
    /// partition, triviality and every retained `Full(c)`. Returns the
    /// first divergence as a message; the production auditor surfaces it
    /// through health instead of crashing the service.
    fn verify_maintained(&self, g: &DynGraph) -> Result<(), String> {
        let Some(mr) = &self.maintained else { return Ok(()) };
        let fresh = DynMatchGraph::over_alive(g, &self.pattern, &self.sim);
        if mr.view.len() != fresh.len() {
            return Err(format!(
                "maintained view: {} slots != fresh {}",
                mr.view.len(),
                fresh.len()
            ));
        }
        for c in 0..fresh.len() as u32 {
            let (alive, out, inn) =
                (mr.view.is_alive(c), mr.view.successors(c), mr.view.predecessors(c));
            if (alive, out, inn) != (fresh.is_alive(c), fresh.successors(c), fresh.predecessors(c))
            {
                let (u, v) = self.sim.pair(c);
                return Err(format!(
                    "maintained view: slot {c} = ({u},{v}) diverged: alive {alive}, out {out:?}, \
                     in {inn:?} != fresh {}, {:?}, {:?}",
                    fresh.is_alive(c),
                    fresh.successors(c),
                    fresh.predecessors(c)
                ));
            }
        }
        if mr.view.edge_count() != fresh.edge_count() {
            return Err(format!(
                "maintained view: pair edge count {} != fresh {}",
                mr.view.edge_count(),
                fresh.edge_count()
            ));
        }
        mr.cond
            .validate(&mr.view, |p| mr.view.is_alive(p))
            .map_err(|msg| format!("maintained condensation diverged: {msg}"))
    }

    /// Full correctness audit of this pattern against `g`: the
    /// simulation-invariant oracle (match-condition closure plus the
    /// fixpoint check) and the maintained-reach oracle, both non-fatal.
    /// This is what the sampled production auditor runs in the background.
    pub(crate) fn audit(&self, g: &DynGraph) -> Result<(), String> {
        self.sim
            .check_invariants(g, &self.pattern)
            .map_err(|msg| format!("simulation invariants violated: {msg}"))?;
        self.verify_maintained(g)
    }

    /// Heap bytes the maintained condensation retains in `Full(c)` sets —
    /// the figure the reach budget is enforced against; 0 while the
    /// per-batch engine serves the pattern. O(1): the condensation keeps a
    /// running count.
    pub(crate) fn maintained_bytes(&self) -> usize {
        self.maintained.as_ref().map_or(0, |mr| mr.cond.retained_bytes())
    }

    /// Heap bytes of the `δd` table [`Self::diversified`] keeps in the
    /// cache; 0 for a pattern never asked for a diversified answer, and
    /// whenever the table did not fit the budget at the last call.
    pub(crate) fn distance_bytes(&self) -> usize {
        self.cache.distance_bytes()
    }

    /// Bytes the relevance cache holds (entries and the sets built), in
    /// O(1).
    pub(crate) fn cache_bytes(&self) -> usize {
        self.cache.cache_bytes()
    }

    /// How relevant-set preparation currently runs: `"maintained"` while
    /// the incremental condensation is alive, `"readopt-pending"` when the
    /// churn gate dropped it and the next calm batch will rebuild it, and
    /// `"engine"` for the per-batch prepare (budget drop or never adopted).
    pub(crate) fn reach_mode(&self) -> &'static str {
        if self.maintained.is_some() {
            "maintained"
        } else if self.maint_readopt {
            "readopt-pending"
        } else {
            "engine"
        }
    }

    /// The active bound mode: `"per-component"` while refresh planning
    /// prunes against the maintained condensation's stored counts,
    /// `"off"` otherwise (disabled by config, or the maintained reach
    /// state itself is down).
    pub(crate) fn bound_mode(&self) -> &'static str {
        if self.cfg.bounds && self.maintained.is_some() {
            "per-component"
        } else {
            "off"
        }
    }

    /// Deliberately desynchronizes the maintained pair view from the
    /// simulation by unlinking the pair edges one real data edge induces
    /// (the graph and simulation are untouched, so [`Self::audit`] must
    /// report the divergence). Returns `false` when there is nothing to
    /// corrupt — no maintained state, or a view with no pair edges.
    #[doc(hidden)]
    pub(crate) fn corrupt_maintained_for_test(&mut self, g: &DynGraph) -> bool {
        let Some(mr) = self.maintained.as_mut() else { return false };
        let mut edge = None;
        for c in 0..mr.view.len() as u32 {
            if !mr.view.is_alive(c) {
                continue;
            }
            if let Some(&s) = mr.view.successors(c).first() {
                edge = Some((mr.view.data_node(c), mr.view.data_node(s)));
                break;
            }
        }
        let Some((v, w)) = edge else { return false };
        let delta = mr.view.apply_pair_delta(g, &self.pattern, &self.sim, &[], &[], &[(v, w)]);
        !delta.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::builder::graph_from_parts;
    use gpm_graph::{DiGraph, GraphDelta};
    use gpm_pattern::builder::label_pattern;
    use proptest::prelude::*;

    /// The oracle: every cached `δr` must equal the length of the pre-DP
    /// per-source BFS derivation, and every relevant set the cache holds
    /// must equal that derivation; cache ∪ deferred must hold exactly the
    /// structural output matches, the maintained condensation and bound
    /// index (when the budget keeps them on) must equal from-scratch
    /// builds, and the served top-k must equal the rank over exact BFS
    /// relevances of **every** match — deferral must be answer-invisible.
    fn assert_cache_matches_bfs(st: &PatternState, g: &DynGraph) {
        assert_eq!(st.audit(g), Ok(()));
        let uo = st.pattern().output();
        let expect = st.sim().structural_matches_of(uo);
        let mut have = st.cache().matches();
        have.extend(st.deferred_outputs().iter().copied());
        have.sort_unstable();
        assert_eq!(have, expect, "cache ∪ deferred != structural matches");
        for v in st.cache().matches() {
            let bfs = st.relevant_set_bfs(g, v);
            assert_eq!(st.cache().relevance_of(v), Some(bfs.len() as u64), "δr of match {v}");
            if let Some(set) = st.cache().set_of(v) {
                let dp: Vec<usize> = set.iter().map(|x| x as usize).collect();
                assert_eq!(dp, bfs, "relevant set of output match {v}");
            }
        }
        if st.sim().graph_matches(st.pattern()) {
            let truth = expect.iter().map(|&v| (v, st.relevant_set_bfs(g, v).len() as u64));
            let want = rank_top_k(truth, st.cfg().k);
            assert_eq!(st.top_k().matches, want, "bound pruning changed the answer");
        }
    }

    /// Raw op codes decoded into a `GraphDelta` against the current graph
    /// (the root property harness's scheme: 0..6 edges, 6..8 nodes).
    fn decode(g: &DynGraph, ops: &[(u8, u32, u32)]) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let n = g.node_count() as u32;
        for &(code, a, b) in ops {
            let (a, b) = (a % n, b % n);
            if code % 2 == 0 {
                if code >= 6 {
                    delta = delta.add_node(a % 3);
                } else if a != b {
                    delta = delta.add_edge(a, b);
                }
            } else if code >= 6 {
                delta = delta.remove_node(a);
            } else {
                let t = g.successors(a).nth(b as usize % g.out_degree(a).max(1));
                delta = delta.remove_edge(a, t.unwrap_or(b));
            }
        }
        delta
    }

    /// One pattern over its own graph, every effective mutation replayed
    /// (no shared-index filter) and one refresh per batch.
    fn run_stream(
        g: &DiGraph,
        q: gpm_pattern::Pattern,
        cfg: IncrementalConfig,
        batches: &[Vec<(u8, u32, u32)>],
    ) -> PatternState {
        let mut g = DynGraph::from_digraph(g);
        let mut st = PatternState::new(&g, q, cfg);
        assert_cache_matches_bfs(&st, &g);
        for raw in batches {
            let delta = decode(&g, raw);
            let applied =
                g.apply_with(&delta, |g, eff| st.replay(g, eff)).expect("decoded deltas are valid");
            st.refresh(&g, Batch::Replayed(&applied), &Span::disabled());
            assert_cache_matches_bfs(&st, &g);
        }
        st
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // DP-derived relevant sets ≡ the old BFS derivation, after every
        // batch of a generated update stream — the shared reach engine
        // must be a drop-in for the per-output BFS it replaced.
        #[test]
        fn dp_relevant_sets_equal_bfs_oracle(
            (labels, edges) in (4usize..16).prop_flat_map(|n| (
                proptest::collection::vec(0u32..3, n),
                proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 2),
            )),
            (plabels, pextra) in (1usize..4).prop_flat_map(|k| (
                proptest::collection::vec(0u32..3, k),
                proptest::collection::vec((0u32..k as u32, 0u32..k as u32), 0..k),
            )),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 1..5), 1..7),
        ) {
            let g = graph_from_parts(&labels, &edges).unwrap();
            let mut pedges: Vec<(u32, u32)> = (1..plabels.len() as u32).map(|i| (i - 1, i)).collect();
            pedges.extend(pextra.into_iter().filter(|(a, b)| a != b));
            pedges.sort_unstable();
            pedges.dedup();
            let q = label_pattern(&plabels, &pedges, 0).unwrap();
            run_stream(&g, q, IncrementalConfig::new(4), &batches);
        }

        // The same property with the reach budget forced to zero: every
        // materialization takes the BFS-fallback path through the dynamic
        // view, and the answers must not move.
        #[test]
        fn budget_fallback_matches_dp(
            (labels, edges) in (4usize..14).prop_flat_map(|n| (
                proptest::collection::vec(0u32..3, n),
                proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 2),
            )),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 1..5), 1..5),
        ) {
            let g = graph_from_parts(&labels, &edges).unwrap();
            let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)], 0).unwrap();
            let mut starved = IncrementalConfig::new(4);
            starved.reach.budget_bytes = 0;
            let a = run_stream(&g, q.clone(), starved, &batches);
            let b = run_stream(&g, q, IncrementalConfig::new(4), &batches);
            prop_assert_eq!(a.top_k().nodes(), b.top_k().nodes());
        }
    }

    /// The budget fallback really flips the engine mode when driven
    /// through the dynamic view (not just through the static adapter):
    /// a starved state builds a maintained condensation, measures its
    /// bytes over the budget and drops it, its traced refresh bails to
    /// per-source BFS before any Tarjan pass, and it caches exactly the
    /// sets the maintained DP derives. The maintained `Full(c)`s cost 4
    /// bytes a member: the budget that admits them is that many bytes,
    /// not a bit per graph node.
    #[test]
    fn zero_budget_forces_bfs_extraction_through_dynamic_view() {
        use gpm_telemetry::Telemetry;
        let g = graph_from_parts(&[0, 1, 2, 0, 0], &[(0, 1), (1, 2), (3, 1), (4, 1)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();

        let mut starved = IncrementalConfig::new(3);
        starved.reach.budget_bytes = 0;
        let mut dyn_g = DynGraph::from_digraph(&g);
        let mut dp = PatternState::new(&dyn_g, q.clone(), IncrementalConfig::new(3));
        let mut bfs = PatternState::new(&dyn_g, q.clone(), starved);
        assert_eq!(dp.reach_mode(), "maintained");
        assert_eq!(bfs.reach_mode(), "engine");
        assert_eq!(bfs.maintained_bytes(), 0);
        // Fulls: {2}; {1,2}; {0,1,2}, {1,2,3}, {1,2,4} — 12 members.
        assert_eq!(dp.maintained_bytes(), 4 * 12);
        let mut snug = IncrementalConfig::new(3);
        snug.reach.budget_bytes = 4 * 12;
        assert_eq!(PatternState::new(&dyn_g, q.clone(), snug.clone()).reach_mode(), "maintained");
        snug.reach.budget_bytes -= 1;
        assert_eq!(PatternState::new(&dyn_g, q, snug).reach_mode(), "engine");

        // A second C under node 1 dirties all three roots: both states
        // re-derive every relevant set, each under its own trace.
        let delta = GraphDelta::new().add_node(2).add_edge(1, 5);
        let applied = dyn_g
            .apply_with(&delta, |g, eff| {
                dp.replay(g, eff);
                bfs.replay(g, eff);
            })
            .unwrap();
        let t = Telemetry::on();
        let mut traces = Vec::new();
        for (seq, st) in [&mut dp, &mut bfs].into_iter().enumerate() {
            let root = t.root_span("apply");
            st.refresh(&dyn_g, Batch::Replayed(&applied), &root).expect("touched patterns answer");
            traces.push(t.finish_batch(root, seq as u64).expect("enabled"));
        }
        let prepare = |i: usize| traces[i].spans_named("prepare").next().expect("prepare span");
        assert!(prepare(0).detail.contains("maintained=true"), "{}", prepare(0).detail);
        assert!(prepare(1).detail.contains("dp=false"), "{}", prepare(1).detail);
        assert!(prepare(1).events.iter().any(|(_, e)| e == "budget-bail-early"));
        assert_eq!(traces[1].spans_named("tarjan").count(), 0, "early bail skips Tarjan");

        // And the two states converged on identical relevances: counts on
        // the maintained side, sets on the engine's.
        assert_eq!(dp.stats().sets_recomputed, bfs.stats().sets_recomputed);
        assert_eq!(dp.cache().matches(), bfs.cache().matches());
        for v in dp.cache().matches() {
            assert_eq!(dp.cache().set_of(v), None, "the maintained refresh stores counts");
            assert_eq!(dp.cache().relevance_of(v), Some(3));
            assert_eq!(bfs.cache().relevance_of(v), Some(3));
        }
        assert_eq!(dp.top_k().matches, bfs.top_k().matches);
        // A diversified answer builds the maintained side's sets, without
        // counting them again, and they equal the engine's.
        let (a, b) = (dp.diversified(&dyn_g, 0.5), bfs.diversified(&dyn_g, 0.5));
        assert_eq!((a.matches, a.f_value), (b.matches, b.f_value));
        assert_eq!(dp.stats().sets_recomputed, bfs.stats().sets_recomputed);
        for v in dp.cache().matches() {
            let set = dp.cache().set_of(v).expect("diversified() built every set");
            assert_eq!(Some(set), bfs.cache().set_of(v));
        }
    }

    /// Replays `delta` into `st` over `g`, refreshes, checks the state
    /// against the BFS oracle and the served answer against the whole
    /// cache's rank, and returns the answer with whether `serve` ranked
    /// only `served ∪ planned`.
    fn refresh_seeded(
        st: &mut PatternState,
        g: &mut DynGraph,
        delta: GraphDelta,
    ) -> (Vec<(NodeId, u64)>, bool) {
        let applied = g.apply_with(&delta, |g, eff| st.replay(g, eff)).expect("valid delta");
        let (top, _) =
            st.refresh(g, Batch::Replayed(&applied), &Span::disabled()).expect("touched");
        assert_cache_matches_bfs(st, g);
        assert_eq!(top.matches, st.top_k().matches, "served answer != whole-cache rank");
        (top.matches.iter().map(|m| (m.node, m.relevance)).collect(), st.last_rank_seeded)
    }

    /// `serve` ranks `served ∪ planned` only while the served answer is
    /// the whole cache's top-k and holds up, and falls back to the whole
    /// cache on each way that can fail: a served match dies, a served `δr`
    /// drops, a diversified answer inserts deferred outputs, and the
    /// graph stops matching, then matches again.
    #[test]
    fn serve_ranks_served_and_planned_only_while_that_is_exact() {
        // Labels A = 0, B = 1, D = 2; pattern A → B ← D, output A, k = 2.
        // δr: A 0 → 3, A 1 → 2, A 2 → 1, A 3 → 1.
        let g = graph_from_parts(
            &[0, 0, 0, 0, 1, 1, 1, 2],
            &[(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 4), (3, 5), (7, 4)],
        )
        .unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (2, 1)], 0).unwrap();
        let mut cfg = IncrementalConfig::new(2);
        cfg.max_dirty_fraction = 1.0;
        let mut g = DynGraph::from_digraph(&g);
        let mut st = PatternState::new(&g, q, cfg);
        assert_eq!(st.reach_mode(), "maintained");
        let mut step = |delta| refresh_seeded(&mut st, &mut g, delta);

        // A planned output rises; the served answer holds.
        assert_eq!(step(GraphDelta::new().add_edge(2, 5)), (vec![(0, 3), (1, 2)], true));
        // A served δr drops.
        assert_eq!(step(GraphDelta::new().remove_edge(0, 6)), (vec![(0, 2), (1, 2)], false));
        // A served match dies.
        let dies = GraphDelta::new().remove_edge(1, 4).remove_edge(1, 5);
        assert_eq!(step(dies), (vec![(0, 2), (2, 2)], false));
        assert_eq!(step(GraphDelta::new().add_edge(3, 6)), (vec![(0, 2), (2, 2)], true));
        // A new A 8 with δr 1 is bound-pruned (h = 2, and 8 > 2): deferred.
        let pruned = GraphDelta::new().add_node(0).add_edge(8, 4);
        assert_eq!(step(pruned), (vec![(0, 2), (2, 2)], true));
        assert!(st.deferred_outputs().contains(&8));
        // A diversified answer inserts it into the cache unranked.
        st.diversified(&g, 0.5);
        assert!(st.deferred_outputs().is_empty());
        let mut step = |delta| refresh_seeded(&mut st, &mut g, delta);
        assert_eq!(step(GraphDelta::new().add_edge(3, 4)), (vec![(3, 3), (0, 2)], false));
        assert_eq!(step(GraphDelta::new().add_edge(8, 5)), (vec![(3, 3), (0, 2)], true));
        // D 7 loses its only B: the graph stops matching, nothing is served.
        assert_eq!(step(GraphDelta::new().remove_edge(7, 4)).0, vec![]);
        assert!(!st.served_is_top);
        let mut step = |delta| refresh_seeded(&mut st, &mut g, delta);
        // It matches again: the first answer ranks the whole cache.
        let back = step(GraphDelta::new().add_edge(7, 6));
        assert_eq!(back, (vec![(3, 3), (0, 2)], false));
        assert_eq!(step(GraphDelta::new().add_edge(2, 6)), (vec![(2, 3), (3, 3)], true));
    }
}
