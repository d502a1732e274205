//! [`DynamicMatcher`]: materialized top-k matching under graph deltas.

use gpm_core::result::{AnswerDiff, DivResult, TopKResult};
use gpm_graph::dynamic::DynGraph;
use gpm_graph::{DiGraph, GraphDelta, GraphError};
use gpm_pattern::Pattern;
use gpm_ranking::ReachConfig;
use gpm_telemetry::{names, Span, Telemetry};

use crate::state::{Batch, PatternState};

/// Configuration of a [`DynamicMatcher`] (and of each pattern registered
/// in a [`PatternRegistry`](crate::PatternRegistry)).
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Number of matches to return.
    pub k: usize,
    /// Trade-off `λ` used by [`DynamicMatcher::top_k_diversified`].
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
    /// condensation. A refresh runs on the thread
    /// that makes it (one registry pool worker per pattern), so
    /// `reach.threads` only matters to the static pipeline.
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

/// Errors from matcher construction and delta application.
#[derive(Debug)]
pub enum IncrementalError {
    /// The pattern exceeds the candidate-bitmask width (64 pattern nodes).
    /// Attribute predicates are fully supported — `SetAttr`/`UnsetAttr`
    /// deltas flip candidacy incrementally.
    UnsupportedPattern,
    /// The delta referenced nodes that do not exist (graph unchanged).
    Graph(GraphError),
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::UnsupportedPattern => {
                write!(f, "patterns with more than 64 nodes cannot be maintained incrementally")
            }
            IncrementalError::Graph(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for IncrementalError {}

impl From<GraphError> for IncrementalError {
    fn from(e: GraphError) -> Self {
        IncrementalError::Graph(e)
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

/// A matcher that owns a graph + pattern and keeps the top-k answer fresh
/// across [`GraphDelta`] batches. See the crate docs for the architecture.
///
/// Internally this is one [`PatternState`] married to its own [`DynGraph`];
/// to serve many patterns over a single shared graph, use a
/// [`PatternRegistry`](crate::PatternRegistry) instead.
pub struct DynamicMatcher {
    graph: DynGraph,
    state: PatternState,
    /// [`Telemetry::off`] unless attached — a standalone matcher costs
    /// nothing until someone wants its traces.
    telemetry: Telemetry,
}

impl DynamicMatcher {
    /// Materializes the state for `q` over `g`.
    pub fn new(g: &DiGraph, q: Pattern, cfg: IncrementalConfig) -> Result<Self, IncrementalError> {
        let graph = DynGraph::from_digraph(g);
        let state = PatternState::new(&graph, q, cfg)?;
        Ok(DynamicMatcher { graph, state, telemetry: Telemetry::off() })
    }

    /// Attaches a shared [`Telemetry`] bundle; each subsequent apply
    /// records one batch trace (`apply` root with a `replay` child and a
    /// `refresh` child holding `condense_incremental`/`plan`/`prepare`/
    /// `extract` — the tree a one-pattern registry records) and the
    /// corresponding phase histograms.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached observability bundle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The maintained graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The pattern being served.
    pub fn pattern(&self) -> &Pattern {
        self.state.pattern()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> &ApplyStats {
        self.state.stats()
    }

    /// Immutable snapshot of the maintained graph (fallbacks, baselines,
    /// equivalence tests).
    pub fn snapshot(&self) -> DiGraph {
        self.graph.snapshot()
    }

    /// Applies one update batch and returns the fresh top-k answer.
    ///
    /// On error the graph and all maintained state are unchanged.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<TopKResult, IncrementalError> {
        self.apply_diffed(delta).map(|(top, _)| top)
    }

    /// As [`Self::apply`], also returning the [`AnswerDiff`] against the
    /// answer served before the batch (empty ⇔ the top-k did not
    /// materially change) — what a push consumer forwards to subscribers.
    pub fn apply_diffed(
        &mut self,
        delta: &GraphDelta,
    ) -> Result<(TopKResult, AnswerDiff), IncrementalError> {
        let root = self.telemetry.root_span("apply");
        let out = self.apply_traced(delta, &root);
        let pruned = self.state.stats().last_pruned_outputs;
        if out.is_ok() && pruned > 0 {
            self.telemetry.metrics().counter(names::BOUNDS_PRUNED).add(pruned as u64);
        }
        self.telemetry.finish_batch(root, self.state.stats().applies);
        out
    }

    /// The matcher's whole batch sequence: apply the batch to the graph
    /// (replaying **every** effective mutation through the simulation —
    /// no shared-index filter, which is what keeps a matcher an
    /// independent reference for the registry), then the one
    /// [`PatternState::refresh`] call. A batch without a single
    /// effective mutation leaves the pattern untouched, as it would in a
    /// registry. A rejected batch is not an apply: the graph and the state
    /// are unchanged.
    fn apply_traced(
        &mut self,
        delta: &GraphDelta,
        root: &Span,
    ) -> Result<(TopKResult, AnswerDiff), IncrementalError> {
        let state = &mut self.state;
        let applied = {
            let _replay = root.child("replay");
            self.graph.apply_with(delta, |g, eff| state.replay(g, eff))?
        };
        let batch =
            if applied.effects.is_empty() { Batch::Untouched } else { Batch::Replayed(&applied) };
        let refresh_span = root.child("refresh");
        Ok(state
            .refresh(&self.graph, batch, &refresh_span)
            .unwrap_or_else(|| (state.top_k(), AnswerDiff::default())))
    }

    /// The current top-k by relevance — identical to running
    /// `top_k_by_match`/`top_k_cyclic` on [`Self::snapshot`].
    pub fn top_k(&self) -> TopKResult {
        self.state.top_k()
    }

    /// The current diversified top-k (`λ` from the config) — identical to
    /// running `top_k_diversified` on [`Self::snapshot`]. Takes `&mut
    /// self`: a bound-pruned backlog must materialize first, since the
    /// diversity term needs every match's relevant set.
    pub fn top_k_diversified(&mut self) -> DivResult {
        let lambda = self.state.cfg().lambda;
        self.state.diversified(&self.graph, lambda)
    }

    /// As [`Self::top_k_diversified`] with an explicit `λ`.
    pub fn diversified(&mut self, lambda: f64) -> DivResult {
        self.state.diversified(&self.graph, lambda)
    }

    /// The active bound mode: `"per-component"`, or `"off"` (disabled,
    /// or the maintained reach state is down).
    pub fn bound_mode(&self) -> &'static str {
        self.state.bound_mode()
    }

    /// The normalizer `Cuo` currently feeding the diversified objective —
    /// maintained incrementally, but by the same
    /// [`gpm_ranking::objective::c_uo_with`] definition the static
    /// pipeline evaluates, so the two can be drift-checked.
    pub fn normalizer(&self) -> u64 {
        self.state.normalizer()
    }

    /// Test access to the maintained state (the DP ≡ BFS oracle).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &PatternState {
        &self.state
    }

    /// Differential-oracle hook for test harnesses: panics when the
    /// maintained pair view or condensation diverges from a from-scratch
    /// build (no-op while the budget keeps maintained mode off).
    #[doc(hidden)]
    pub fn check_maintained(&self) {
        self.state.check_maintained(&self.graph);
    }
}
