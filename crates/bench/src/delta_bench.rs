//! Delta-scaling benchmark: incremental maintenance vs from-scratch
//! recomputation as a function of delta size.
//!
//! A base graph is materialized in a [`DynamicMatcher`]; for each delta
//! size `|Δ| ∈ {1, 10, 100, 1000}` a stream of update batches is replayed
//! twice — once through `DynamicMatcher::apply`, once through the static
//! pipeline (`apply_delta` + `top_k_by_match` per batch, i.e. what a
//! server without the incremental subsystem would run) — and mean
//! per-batch latencies are recorded. Results are printed as a table and
//! written to `BENCH_incremental.json` so the perf trajectory accumulates
//! across PRs.

use std::time::Instant;

use gpm_core::config::TopKConfig;
use gpm_core::top_k_by_match;
use gpm_datagen::update_stream::{update_stream, UpdateStreamConfig};
use gpm_graph::{apply_delta, DiGraph, GraphDelta};
use gpm_incremental::{DynamicMatcher, IncrementalConfig, Telemetry};
use gpm_pattern::Pattern;
use serde::{Serialize, Value};

use crate::table::Table;
use crate::telemetry_summary::{phase_latencies, PhaseLatency};
use crate::workloads::{self, Settings};

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct DeltaPoint {
    /// Operations per batch.
    pub delta_size: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Mean `DynamicMatcher::apply` latency (ms/batch).
    pub incremental_ms: f64,
    /// Mean static-pipeline latency (ms/batch).
    pub scratch_ms: f64,
    /// How many of the incremental batches fell back to a full rebuild.
    pub full_rebuilds: u64,
}

impl DeltaPoint {
    /// `scratch / incremental` — above 1.0 the subsystem pays off.
    pub fn speedup(&self) -> f64 {
        if self.incremental_ms <= 0.0 {
            return f64::INFINITY;
        }
        self.scratch_ms / self.incremental_ms
    }
}

impl Serialize for DeltaPoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("delta_size".into(), self.delta_size.to_value()),
            ("batches".into(), self.batches.to_value()),
            ("incremental_ms_per_batch".into(), self.incremental_ms.to_value()),
            ("scratch_ms_per_batch".into(), self.scratch_ms.to_value()),
            ("speedup".into(), self.speedup().to_value()),
            ("full_rebuilds".into(), self.full_rebuilds.to_value()),
        ])
    }
}

/// The whole experiment record written to `BENCH_incremental.json`.
#[derive(Debug, Clone)]
pub struct DeltaBenchResult {
    /// `|V|`, `|E|` of the base graph.
    pub nodes: usize,
    pub edges: usize,
    /// Pattern shape `(|Vp|, |Ep|)`.
    pub pattern: (usize, usize),
    /// The sweep.
    pub points: Vec<DeltaPoint>,
}

impl Serialize for DeltaBenchResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), "incremental_delta_scaling".to_value()),
            ("nodes".into(), self.nodes.to_value()),
            ("edges".into(), self.edges.to_value()),
            (
                "pattern".into(),
                Value::Array(vec![self.pattern.0.to_value(), self.pattern.1.to_value()]),
            ),
            ("points".into(), self.points.to_value()),
        ])
    }
}

/// Builds the benchmark workload: a paper-style cyclic synthetic graph and
/// a verified label-only pattern.
pub fn delta_workload(nodes: usize, seed: u64) -> (DiGraph, Pattern) {
    // Paper-style generator at 4·|V| edges: reciprocity/closure high
    // enough that (4,8) near-cliques exist robustly across seeds.
    let g = gpm_datagen::synthetic::synthetic_graph(
        &gpm_datagen::synthetic::SyntheticConfig::paper(nodes, 4 * nodes, seed),
    );
    let mut s = Settings::new(gpm_datagen::datasets::Scale::Small);
    s.attr_selectivity = None; // the delta-scaling sweep stays label-only
    s.min_matches = 10;
    let q = workloads::patterns_for(&g, (4, 8), false, &s)
        .into_iter()
        .next()
        .expect("workload pattern");
    (g, q)
}

/// Value range of the attr-churn workload's single attribute — matched by
/// the stream config so generated `SetAttr`s actually cross predicate
/// thresholds.
const ATTR_RANGE: i64 = 100;

/// Builds the attribute-churn workload: the same paper-style topology with
/// an [`attr_key(0)`](gpm_datagen::update_stream::attr_key) integer
/// attribute on every node, and a verified pattern that carries attribute
/// conditions over it (so `SetAttr`/`UnsetAttr` churn actually flips
/// candidacy).
pub fn attr_workload(nodes: usize, seed: u64) -> (DiGraph, Pattern) {
    use gpm_graph::{Attributes, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let base = gpm_datagen::synthetic::synthetic_graph(
        &gpm_datagen::synthetic::SyntheticConfig::paper(nodes, 4 * nodes, seed),
    );
    let key = gpm_datagen::update_stream::attr_key(0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77);
    let mut b = GraphBuilder::with_capacity(base.node_count(), base.edge_count());
    for v in base.nodes() {
        b.add_node_with_attrs(
            base.label(v),
            Attributes::from_pairs([(key.clone(), rng.random_range(0..ATTR_RANGE))]),
        );
    }
    for e in base.edges() {
        b.add_edge(e.source, e.target).expect("base edges are in range");
    }
    let g = b.build();

    let mut s = Settings::new(gpm_datagen::datasets::Scale::Small);
    s.min_matches = 10;
    // Pattern extraction adds attr conditions probabilistically; insist on
    // a pattern that actually mentions the churned key.
    for round in 0..16u64 {
        s.seed = seed.wrapping_add(round * 7919);
        if let Some(q) = workloads::patterns_for(&g, (4, 8), false, &s)
            .into_iter()
            .find(|q| q.nodes().any(|u| q.predicate(u).mentions_key(&key)))
        {
            return (g, q);
        }
    }
    panic!("no attribute-conditioned workload pattern found");
}

/// Runs the sweep. `k` is the served top-k size.
pub fn run(g: &DiGraph, q: &Pattern, k: usize, delta_sizes: &[usize]) -> DeltaBenchResult {
    let mut points = Vec::new();
    for &size in delta_sizes {
        // Keep total replayed ops roughly constant across sizes.
        let batches = (2_000 / size.max(1)).clamp(3, 40);
        let stream =
            update_stream(g, &UpdateStreamConfig::new(batches, size, 0xD017A ^ size as u64));

        // Incremental path.
        let mut matcher = DynamicMatcher::new(g, q.clone(), IncrementalConfig::new(k))
            .expect("label-only pattern");
        let t0 = Instant::now();
        for delta in &stream {
            matcher.apply(delta).expect("stream is valid");
        }
        let incremental_ms = t0.elapsed().as_secs_f64() * 1e3 / batches as f64;
        let full_rebuilds = matcher.stats().full_rebuilds;

        // Static path: rebuild + re-rank per batch.
        let mut current = g.clone();
        let t0 = Instant::now();
        let mut sink = 0u64;
        for delta in &stream {
            current = apply_delta(&current, delta).expect("stream is valid");
            sink ^= top_k_by_match(&current, q, &TopKConfig::new(k)).total_relevance();
        }
        let scratch_ms = t0.elapsed().as_secs_f64() * 1e3 / batches as f64;
        std::hint::black_box(sink);

        // Cross-check: both pipelines agree on the final answer.
        let inc = matcher.top_k();
        let base = top_k_by_match(&current, q, &TopKConfig::new(k));
        assert_eq!(inc.nodes(), base.nodes(), "pipelines diverged at |Δ| = {size}");

        points.push(DeltaPoint {
            delta_size: size,
            batches,
            incremental_ms,
            scratch_ms,
            full_rebuilds,
        });
    }
    DeltaBenchResult {
        nodes: g.node_count(),
        edges: g.edge_count(),
        pattern: (q.node_count(), q.edge_count()),
        points,
    }
}

/// One measured point of the structural:attr mix sweep.
#[derive(Debug, Clone)]
pub struct AttrMixPoint {
    /// Fraction of stream ops that are attribute mutations.
    pub attr_churn: f64,
    /// Batches replayed.
    pub batches: usize,
    /// Mean `DynamicMatcher::apply` latency (ms/batch).
    pub incremental_ms: f64,
    /// Mean static-pipeline latency (ms/batch).
    pub scratch_ms: f64,
    /// Full rebuilds the incremental path fell back to (attr flips are
    /// zero edge churn, so a pure-attr stream must report 0).
    pub full_rebuilds: u64,
}

impl AttrMixPoint {
    /// `scratch / incremental`.
    pub fn speedup(&self) -> f64 {
        if self.incremental_ms <= 0.0 {
            return f64::INFINITY;
        }
        self.scratch_ms / self.incremental_ms
    }
}

impl Serialize for AttrMixPoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("attr_churn".into(), self.attr_churn.to_value()),
            ("batches".into(), self.batches.to_value()),
            ("incremental_ms_per_batch".into(), self.incremental_ms.to_value()),
            ("scratch_ms_per_batch".into(), self.scratch_ms.to_value()),
            ("speedup".into(), self.speedup().to_value()),
            ("full_rebuilds".into(), self.full_rebuilds.to_value()),
        ])
    }
}

/// The attr-churn experiment record: attribute-flip maintenance cost vs
/// from-scratch recomputation across structural:attr op mixes.
#[derive(Debug, Clone)]
pub struct AttrMixResult {
    /// `|V|`, `|E|` of the base graph.
    pub nodes: usize,
    pub edges: usize,
    /// Pattern shape `(|Vp|, |Ep|)`.
    pub pattern: (usize, usize),
    /// Ops per batch (fixed across the sweep — only the mix varies).
    pub batch_size: usize,
    /// The sweep.
    pub points: Vec<AttrMixPoint>,
}

impl Serialize for AttrMixResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), "incremental_attr_churn_mix".to_value()),
            ("nodes".into(), self.nodes.to_value()),
            ("edges".into(), self.edges.to_value()),
            (
                "pattern".into(),
                Value::Array(vec![self.pattern.0.to_value(), self.pattern.1.to_value()]),
            ),
            ("batch_size".into(), self.batch_size.to_value()),
            ("points".into(), self.points.to_value()),
        ])
    }
}

/// Runs the structural:attr mix sweep at a fixed batch size. `mixes` are
/// attr-churn fractions (0.0 = pure structural, 1.0 = pure attribute).
pub fn run_attr_mix(
    g: &DiGraph,
    q: &Pattern,
    k: usize,
    batch_size: usize,
    mixes: &[f64],
) -> AttrMixResult {
    let mut points = Vec::new();
    for &mix in mixes {
        let batches = (1_500 / batch_size.max(1)).clamp(3, 30);
        let cfg = UpdateStreamConfig {
            attr_keys: 1,
            attr_values: ATTR_RANGE,
            ..UpdateStreamConfig::new(batches, batch_size, 0xA77B ^ (mix * 64.0) as u64)
        }
        .with_attr_churn(mix);
        let stream = update_stream(g, &cfg);

        // Incremental path.
        let mut matcher = DynamicMatcher::new(g, q.clone(), IncrementalConfig::new(k))
            .expect("attr patterns are maintainable");
        let t0 = Instant::now();
        for delta in &stream {
            matcher.apply(delta).expect("stream is valid");
        }
        let incremental_ms = t0.elapsed().as_secs_f64() * 1e3 / batches as f64;
        let full_rebuilds = matcher.stats().full_rebuilds;

        // Static path: rebuild + re-rank per batch.
        let mut current = g.clone();
        let t0 = Instant::now();
        let mut sink = 0u64;
        for delta in &stream {
            current = apply_delta(&current, delta).expect("stream is valid");
            sink ^= top_k_by_match(&current, q, &TopKConfig::new(k)).total_relevance();
        }
        let scratch_ms = t0.elapsed().as_secs_f64() * 1e3 / batches as f64;
        std::hint::black_box(sink);

        // Cross-check: both pipelines agree on the final answer.
        let inc = matcher.top_k();
        let base = top_k_by_match(&current, q, &TopKConfig::new(k));
        assert_eq!(inc.nodes(), base.nodes(), "pipelines diverged at mix = {mix}");

        points.push(AttrMixPoint {
            attr_churn: mix,
            batches,
            incremental_ms,
            scratch_ms,
            full_rebuilds,
        });
    }
    AttrMixResult {
        nodes: g.node_count(),
        edges: g.edge_count(),
        pattern: (q.node_count(), q.edge_count()),
        batch_size,
        points,
    }
}

/// One measured point of the dirty-region sweep.
#[derive(Debug, Clone)]
pub struct DirtyRegionPoint {
    /// Fraction of the graph's cycles each batch touches (≈ the fraction
    /// of output matches whose relevant set the batch dirties).
    pub dirty_fraction: f64,
    /// Batches replayed per configuration.
    pub batches: usize,
    /// Mean dirty outputs per materializing batch (observed).
    pub mean_dirty_outputs: f64,
    /// Mean registry `apply` latency with the shared DP and the
    /// intra-pattern pool split engaged (ms/batch). Only faster than the
    /// sequential DP when the machine has real cores to split across.
    pub dp_parallel_ms: f64,
    /// Mean registry `apply` latency with the shared DP, single-threaded
    /// (ms/batch) — isolates the engine win from the parallelism win.
    pub dp_sequential_ms: f64,
    /// Mean latency of the pre-refactor derivation shape: per-output BFS
    /// extraction (reach budget 0), single-threaded (ms/batch).
    pub bfs_sequential_ms: f64,
    /// Mean static-pipeline latency (ms/batch).
    pub scratch_ms: f64,
    /// `RegistryStats::intra_pattern_splits` accumulated by the DP run —
    /// deterministic count of phase-2b refreshes the registry *decided*
    /// to split across the pool (scheduling-dependent multi-worker
    /// observations are `observed_multi_worker_refreshes`).
    pub intra_splits: u64,
}

impl DirtyRegionPoint {
    /// The DP configuration a deployment would pick on this machine:
    /// the faster of the parallel and the sequential run.
    pub fn dp_best_ms(&self) -> f64 {
        self.dp_parallel_ms.min(self.dp_sequential_ms)
    }

    /// `bfs_sequential / dp_best` — above 1.0 the shared DP beats the
    /// old per-output derivation.
    pub fn speedup_vs_bfs(&self) -> f64 {
        if self.dp_best_ms() <= 0.0 {
            return f64::INFINITY;
        }
        self.bfs_sequential_ms / self.dp_best_ms()
    }

    /// `scratch / dp_best`.
    pub fn speedup_vs_scratch(&self) -> f64 {
        if self.dp_best_ms() <= 0.0 {
            return f64::INFINITY;
        }
        self.scratch_ms / self.dp_best_ms()
    }
}

impl Serialize for DirtyRegionPoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dirty_fraction".into(), self.dirty_fraction.to_value()),
            ("batches".into(), self.batches.to_value()),
            ("mean_dirty_outputs".into(), self.mean_dirty_outputs.to_value()),
            ("dp_parallel_ms_per_batch".into(), self.dp_parallel_ms.to_value()),
            ("dp_sequential_ms_per_batch".into(), self.dp_sequential_ms.to_value()),
            ("bfs_sequential_ms_per_batch".into(), self.bfs_sequential_ms.to_value()),
            ("scratch_ms_per_batch".into(), self.scratch_ms.to_value()),
            ("speedup_vs_bfs".into(), self.speedup_vs_bfs().to_value()),
            ("speedup_vs_scratch".into(), self.speedup_vs_scratch().to_value()),
            ("intra_pattern_splits".into(), self.intra_splits.to_value()),
        ])
    }
}

/// The dirty-region experiment record: shared-DP refresh cost against the
/// old per-output BFS derivation and against from-scratch recomputation,
/// as the dirtied fraction of the output set grows.
#[derive(Debug, Clone)]
pub struct DirtyRegionResult {
    /// `|V|`, `|E|` of the base graph.
    pub nodes: usize,
    pub edges: usize,
    /// Cycle decomposition of the workload graph.
    pub cycles: usize,
    pub cycle_len: usize,
    /// Output matches of the served pattern.
    pub outputs: usize,
    /// Pool size of the DP-parallel configuration.
    pub threads: usize,
    /// The sweep.
    pub points: Vec<DirtyRegionPoint>,
    /// Per-phase latency digests accumulated by the DP-parallel runs
    /// across the whole sweep (apply → refresh → prepare/extract).
    pub phase_latency: Vec<PhaseLatency>,
}

impl Serialize for DirtyRegionResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), "incremental_dirty_region".to_value()),
            ("nodes".into(), self.nodes.to_value()),
            ("edges".into(), self.edges.to_value()),
            ("cycles".into(), self.cycles.to_value()),
            ("cycle_len".into(), self.cycle_len.to_value()),
            ("outputs".into(), self.outputs.to_value()),
            ("threads".into(), self.threads.to_value()),
            ("points".into(), self.points.to_value()),
            ("phase_latency_ms".into(), self.phase_latency.to_value()),
        ])
    }
}

/// Cycle length of the dirty-region workload (even: labels alternate).
const DIRTY_CYCLE_LEN: usize = 50;

/// Builds the dirty-region workload: `nodes / DIRTY_CYCLE_LEN` disjoint
/// cycles of alternating labels, served by the cyclic pattern `A ⇄ B`.
/// Every pair is alive and each output's relevant set is exactly its own
/// cycle, so toggling one edge per cycle dirties that cycle's outputs and
/// nothing else — the dirty fraction is controlled precisely by how many
/// cycles a batch touches.
pub fn dirty_region_workload(nodes: usize) -> (DiGraph, Pattern) {
    let len = DIRTY_CYCLE_LEN;
    let cycles = (nodes / len).max(1);
    let mut labels = Vec::with_capacity(cycles * len);
    let mut edges = Vec::with_capacity(cycles * len);
    for c in 0..cycles {
        let base = (c * len) as u32;
        for i in 0..len {
            labels.push((i % 2) as u32);
            edges.push((base + i as u32, base + ((i + 1) % len) as u32));
        }
    }
    let g = gpm_graph::builder::graph_from_parts(&labels, &edges).expect("well-formed cycles");
    let q = gpm_pattern::builder::label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0)
        .expect("cyclic 2-pattern");
    (g, q)
}

/// Replays the toggle stream for one registry configuration, returning
/// `(ms/batch, mean dirty outputs per batch, intra splits)`.
fn run_dirty_config(
    g: &DiGraph,
    q: &Pattern,
    k: usize,
    threads: usize,
    reach: gpm_ranking::ReachConfig,
    stream: &[GraphDelta],
    telemetry: Option<&Telemetry>,
) -> (f64, f64, u64) {
    use gpm_incremental::PatternRegistry;
    let mut cfg = IncrementalConfig::new(k);
    cfg.reach = reach;
    let mut reg = PatternRegistry::with_threads(g, threads);
    if let Some(t) = telemetry {
        reg.set_telemetry(t.clone());
    }
    let id = reg.register(q.clone(), cfg).expect("cyclic 2-pattern registers");
    // Registration already materialized every set once: count per-batch
    // re-derivations from here (covers both the partial-plan path and the
    // sweep-overflow full refresh).
    let mut prev_sets = reg.stats_of(id).expect("registered").sets_recomputed;
    let mut dirty_sum = 0u64;
    let mut dirty_batches = 0usize;
    let t0 = Instant::now();
    for delta in stream {
        reg.apply(delta).expect("stream is valid");
        let sets = reg.stats_of(id).expect("registered").sets_recomputed;
        if sets > prev_sets {
            dirty_sum += sets - prev_sets;
            dirty_batches += 1;
        }
        prev_sets = sets;
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / stream.len() as f64;

    // Cross-check: the maintained answer equals a static recompute.
    let base = top_k_by_match(&reg.snapshot(), q, &TopKConfig::new(k));
    assert_eq!(reg.top_k(id).expect("registered").nodes(), base.nodes(), "pipelines diverged");

    let mean_dirty = if dirty_batches == 0 { 0.0 } else { dirty_sum as f64 / dirty_batches as f64 };
    (ms, mean_dirty, reg.stats().intra_pattern_splits)
}

/// Runs the dirty-region sweep: for each fraction, batches toggle one
/// edge in that fraction of the cycles (kill the cycles, then revive
/// them), so each revival batch re-derives exactly that share of the
/// relevant sets. Three configurations per point: shared DP + pool split
/// (`threads` workers — pass ≥ 2 so the intra-pattern split can engage
/// even on single-core CI runners), the old derivation shape (per-output
/// BFS, single thread), and the static pipeline.
pub fn run_dirty_region(
    g: &DiGraph,
    q: &Pattern,
    k: usize,
    threads: usize,
    fracs: &[f64],
) -> DirtyRegionResult {
    let len = DIRTY_CYCLE_LEN;
    let cycles = g.node_count() / len;
    let rounds = 3;
    let mut points = Vec::new();
    // One bundle across the whole sweep: the DP-parallel runs trace into
    // it, so the digests cover every dirty fraction. Recording is a few
    // atomic adds per span — well under the run-to-run noise of the
    // timed loop (the serving bench measures the exact overhead).
    let telemetry = Telemetry::on();
    for &frac in fracs {
        let touched = ((frac * cycles as f64).round() as usize).clamp(1, cycles);
        // Toggle stream: remove one edge of each touched cycle, then put
        // it back — `rounds` kill/revive rounds.
        let mut stream: Vec<GraphDelta> = Vec::with_capacity(rounds * 2);
        for _ in 0..rounds {
            let mut kill = GraphDelta::new();
            let mut revive = GraphDelta::new();
            for c in 0..touched {
                let base = (c * len) as u32;
                kill = kill.remove_edge(base, base + 1);
                revive = revive.add_edge(base, base + 1);
            }
            stream.push(kill);
            stream.push(revive);
        }

        let (dp_ms, mean_dirty, splits) = run_dirty_config(
            g,
            q,
            k,
            threads,
            gpm_ranking::ReachConfig::default(),
            &stream,
            Some(&telemetry),
        );
        let (dp_seq_ms, _, _) =
            run_dirty_config(g, q, k, 1, gpm_ranking::ReachConfig::default(), &stream, None);
        let (bfs_ms, _, _) = run_dirty_config(
            g,
            q,
            k,
            1,
            gpm_ranking::ReachConfig { budget_bytes: 0, threads: 1 },
            &stream,
            None,
        );

        // Static path: rebuild + re-rank per batch.
        let mut current = g.clone();
        let t0 = Instant::now();
        let mut sink = 0u64;
        for delta in &stream {
            current = apply_delta(&current, delta).expect("stream is valid");
            sink ^= top_k_by_match(&current, q, &TopKConfig::new(k)).total_relevance();
        }
        let scratch_ms = t0.elapsed().as_secs_f64() * 1e3 / stream.len() as f64;
        std::hint::black_box(sink);

        points.push(DirtyRegionPoint {
            dirty_fraction: frac,
            batches: stream.len(),
            mean_dirty_outputs: mean_dirty,
            dp_parallel_ms: dp_ms,
            dp_sequential_ms: dp_seq_ms,
            bfs_sequential_ms: bfs_ms,
            scratch_ms,
            intra_splits: splits,
        });
    }
    DirtyRegionResult {
        nodes: g.node_count(),
        edges: g.edge_count(),
        cycles,
        cycle_len: len,
        outputs: g.node_count() / 2,
        threads,
        points,
        phase_latency: phase_latencies(&telemetry),
    }
}

/// One measured point of the bounded-refresh sweep.
#[derive(Debug, Clone)]
pub struct BoundedRefreshPoint {
    /// Served answer size.
    pub k: usize,
    /// Fraction of the short cycles each batch touches.
    pub dirty_fraction: f64,
    /// Batches replayed per configuration.
    pub batches: usize,
    /// Mean `apply` latency with maintained bounds pruning (ms/batch).
    pub bounded_ms: f64,
    /// Mean `apply` latency with bounds disabled — every dirty output's
    /// relevant set is materialized, the rest of the partial planning
    /// stays (ms/batch).
    pub unbounded_ms: f64,
    /// Mean `apply` latency on the full-materialization path — every
    /// batch re-derives and re-ranks every relevant set, the refresh
    /// shape a server without dirty planning or bounds runs (ms/batch).
    pub full_ms: f64,
    /// Dirty outputs the bound index proved dominated (deferred, never
    /// materialized), accumulated over the bounded run.
    pub pruned_outputs: u64,
    /// Relevant sets the bounded run did re-derive.
    pub materialized_outputs: u64,
    /// Batches on which the bounded and unbounded answers differed in the
    /// joint verification replay — must be 0 (bounds are exact).
    pub answer_diffs: u64,
    /// From-scratch bound rebuilds during the bounded run.
    pub bound_rebuilds: u64,
}

impl BoundedRefreshPoint {
    /// Fraction of refresh candidates the bound index pruned.
    pub fn pruned_rate(&self) -> f64 {
        let total = self.pruned_outputs + self.materialized_outputs;
        if total == 0 {
            return 0.0;
        }
        self.pruned_outputs as f64 / total as f64
    }

    /// `full / bounded` — the bound-driven partial refresh against full
    /// materialization, the sweep's headline (and the CI gate's bar).
    pub fn speedup(&self) -> f64 {
        if self.bounded_ms <= 0.0 {
            return f64::INFINITY;
        }
        self.full_ms / self.bounded_ms
    }

    /// `unbounded / bounded` — the bound index's *marginal* effect over
    /// the same partial planning. Reported for honesty: at small graph
    /// sizes the avoided materialization is cheap (the shared reach
    /// engine already made it memcpy-bound) and this hovers near 1.0;
    /// the pruned counters show the work provably skipped.
    pub fn marginal(&self) -> f64 {
        if self.bounded_ms <= 0.0 {
            return f64::INFINITY;
        }
        self.unbounded_ms / self.bounded_ms
    }
}

impl Serialize for BoundedRefreshPoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("k".into(), self.k.to_value()),
            ("dirty_fraction".into(), self.dirty_fraction.to_value()),
            ("batches".into(), self.batches.to_value()),
            ("bounded_ms_per_batch".into(), self.bounded_ms.to_value()),
            ("unbounded_ms_per_batch".into(), self.unbounded_ms.to_value()),
            ("full_ms_per_batch".into(), self.full_ms.to_value()),
            ("speedup".into(), self.speedup().to_value()),
            ("marginal".into(), self.marginal().to_value()),
            ("pruned_outputs".into(), self.pruned_outputs.to_value()),
            ("materialized_outputs".into(), self.materialized_outputs.to_value()),
            ("pruned_rate".into(), self.pruned_rate().to_value()),
            ("answer_diffs".into(), self.answer_diffs.to_value()),
            ("bound_rebuilds".into(), self.bound_rebuilds.to_value()),
        ])
    }
}

/// The bounded-refresh experiment record: maintained-bound pruning vs
/// full materialization of every dirty relevant set, across `k` and
/// dirty-fraction settings.
#[derive(Debug, Clone)]
pub struct BoundedRefreshResult {
    /// `|V|`, `|E|` of the workload graph.
    pub nodes: usize,
    pub edges: usize,
    /// Length of the head cycle whose outputs hold the top-k.
    pub head_len: usize,
    /// Short (churned) cycles and their length.
    pub short_cycles: usize,
    pub short_len: usize,
    /// The sweep.
    pub points: Vec<BoundedRefreshPoint>,
}

impl Serialize for BoundedRefreshResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), "incremental_bounded_refresh".to_value()),
            ("nodes".into(), self.nodes.to_value()),
            ("edges".into(), self.edges.to_value()),
            ("head_len".into(), self.head_len.to_value()),
            ("short_cycles".into(), self.short_cycles.to_value()),
            ("short_len".into(), self.short_len.to_value()),
            ("points".into(), self.points.to_value()),
        ])
    }
}

/// Head-cycle length of the bounded-refresh workload: its 64 outputs all
/// carry relevance ≈ 128, far above any short-cycle bound, and hold every
/// k ≤ 64 the sweep serves.
const BOUND_HEAD_LEN: usize = 128;
/// Short-cycle length: each churned output's maintained upper bound is
/// ≈ 50 — always dominated by the head's k-th answer. Long enough that a
/// revival's avoided work (25 outputs × 50-pair sets per cycle) dwarfs
/// the sim/condensation maintenance both configurations share.
const BOUND_SHORT_LEN: usize = 50;

/// Builds the bounded-refresh workload: one long "head" cycle whose
/// outputs own the top-k, plus many short cycles that absorb all the
/// churn. Each short cycle carries a chord (an extra in-cycle `A → B`
/// edge): toggling it never changes the match simulation or any answer,
/// but a chord *removal* forces the condensation maintenance to
/// re-Tarjan the component and reinstall it — dirtying every one of its
/// outputs. The dirty outputs' maintained upper bounds can never
/// displace the k-th head answer, so the refresh asymmetry is pure:
/// the unbounded side re-materializes their relevant sets, the bounded
/// side proves them dominated from the maintained `h`. Labels alternate
/// so the cyclic pattern `A ⇄ B` matches every cycle.
pub fn bounded_workload(nodes: usize) -> (DiGraph, Pattern) {
    let shorts = nodes.saturating_sub(BOUND_HEAD_LEN) / BOUND_SHORT_LEN;
    assert!(shorts > 4, "workload needs short cycles to churn");
    let total = BOUND_HEAD_LEN + shorts * BOUND_SHORT_LEN;
    let mut labels = Vec::with_capacity(total);
    let mut edges = Vec::with_capacity(total + shorts);
    let cycle = |base: usize, len: usize, labels: &mut Vec<u32>, edges: &mut Vec<(u32, u32)>| {
        for i in 0..len {
            labels.push((i % 2) as u32);
            edges.push((base as u32 + i as u32, base as u32 + ((i + 1) % len) as u32));
        }
    };
    cycle(0, BOUND_HEAD_LEN, &mut labels, &mut edges);
    for c in 0..shorts {
        let base = BOUND_HEAD_LEN + c * BOUND_SHORT_LEN;
        cycle(base, BOUND_SHORT_LEN, &mut labels, &mut edges);
        edges.push(chord(base as u32));
    }
    let g = gpm_graph::builder::graph_from_parts(&labels, &edges).expect("well-formed cycles");
    let q = gpm_pattern::builder::label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0)
        .expect("cyclic 2-pattern");
    (g, q)
}

/// The toggled chord of the short cycle at `base`: label 0 → label 1,
/// skipping ahead in the cycle (both nodes keep their in-cycle matches,
/// so the simulation never notices the toggle).
fn chord(base: u32) -> (u32, u32) {
    (base, base + 3)
}

/// Chord toggle stream over the first `touched` short cycles: each round
/// removes the chords (re-Tarjan + reinstall dirties the components at
/// near-zero shared cost), then puts them back (an intra-SCC insertion —
/// a maintenance no-op on both configurations).
fn bounded_stream(touched: usize, rounds: usize) -> Vec<GraphDelta> {
    let mut stream = Vec::with_capacity(rounds * 2);
    for _ in 0..rounds {
        let mut drop_chords = GraphDelta::new();
        let mut restore = GraphDelta::new();
        for c in 0..touched {
            let (x, y) = chord((BOUND_HEAD_LEN + c * BOUND_SHORT_LEN) as u32);
            drop_chords = drop_chords.remove_edge(x, y);
            restore = restore.add_edge(x, y);
        }
        stream.push(drop_chords);
        stream.push(restore);
    }
    stream
}

/// Timed replay of one bound configuration; returns the matcher for
/// stats and cross-checks.
fn replay_bounded(
    g: &DiGraph,
    q: &Pattern,
    k: usize,
    enabled: bool,
    full: bool,
    stream: &[GraphDelta],
) -> (f64, u64, DynamicMatcher) {
    let mut cfg = IncrementalConfig::new(k);
    cfg.bounds = enabled;
    if full {
        // Any dirty output overflows the plan: every batch re-derives
        // and re-ranks the whole cache — the full-materialization shape.
        cfg.max_dirty_fraction = 0.0;
    }
    let mut m = DynamicMatcher::new(g, q.clone(), cfg).expect("cyclic 2-pattern");
    // Construction materialized every set once: count only per-batch
    // re-derivations from here.
    let base_sets = m.stats().sets_recomputed;
    let t0 = Instant::now();
    for delta in stream {
        m.apply(delta).expect("stream is valid");
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / stream.len() as f64;
    let materialized = m.stats().sets_recomputed - base_sets;
    (ms, materialized, m)
}

/// Runs the bounded-refresh sweep over `ks × fracs`. Each point replays
/// the same toggle stream through three configurations — bounds on,
/// bounds off (same partial planning), and the full-materialization
/// refresh path — timed separately, then once more jointly (untimed) to
/// count per-batch answer differences, which must be zero.
pub fn run_bounded_refresh(
    g: &DiGraph,
    q: &Pattern,
    ks: &[usize],
    fracs: &[f64],
) -> BoundedRefreshResult {
    let shorts = (g.node_count() - BOUND_HEAD_LEN) / BOUND_SHORT_LEN;
    let rounds = 4;
    let mut points = Vec::new();
    for &k in ks {
        for &frac in fracs {
            let touched = ((frac * shorts as f64).round() as usize).clamp(1, shorts);
            let stream = bounded_stream(touched, rounds);

            let (bounded_ms, materialized, bm) = replay_bounded(g, q, k, true, false, &stream);
            let (unbounded_ms, _, _) = replay_bounded(g, q, k, false, false, &stream);
            let (full_ms, _, _) = replay_bounded(g, q, k, false, true, &stream);
            let stats = bm.stats().clone();

            // Joint verification replay: all three configurations must
            // serve bit-identical answers after every batch.
            let make = |enabled: bool, full: bool| {
                let mut cfg = IncrementalConfig::new(k);
                cfg.bounds = enabled;
                if full {
                    cfg.max_dirty_fraction = 0.0;
                }
                DynamicMatcher::new(g, q.clone(), cfg).expect("cyclic 2-pattern")
            };
            let mut vb = make(true, false);
            let mut vu = make(false, false);
            let mut vf = make(false, true);
            let mut answer_diffs = 0u64;
            for delta in &stream {
                let a = vb.apply(delta).expect("stream is valid");
                let b = vu.apply(delta).expect("stream is valid");
                let c = vf.apply(delta).expect("stream is valid");
                if a.matches != b.matches || a.matches != c.matches {
                    answer_diffs += 1;
                }
            }
            // And all agree with the static pipeline on the final graph.
            let base = top_k_by_match(&vb.snapshot(), q, &TopKConfig::new(k));
            assert_eq!(vb.top_k().nodes(), base.nodes(), "bounded diverged from static");
            assert_eq!(vu.top_k().nodes(), base.nodes(), "unbounded diverged from static");
            assert_eq!(vf.top_k().nodes(), base.nodes(), "full diverged from static");

            points.push(BoundedRefreshPoint {
                k,
                dirty_fraction: frac,
                batches: stream.len(),
                bounded_ms,
                unbounded_ms,
                full_ms,
                pruned_outputs: stats.pruned_outputs,
                materialized_outputs: materialized,
                answer_diffs,
                bound_rebuilds: stats.bound_rebuilds,
            });
        }
    }
    BoundedRefreshResult {
        nodes: g.node_count(),
        edges: g.edge_count(),
        head_len: BOUND_HEAD_LEN,
        short_cycles: shorts,
        short_len: BOUND_SHORT_LEN,
        points,
    }
}

/// Renders the bounded-refresh sweep as a printable table.
pub fn bounded_refresh_table(r: &BoundedRefreshResult) -> Table {
    let mut t = Table::new(
        "bounded_refresh",
        format!(
            "maintained-bound pruning vs full materialization, head {} + {} × {} short cycles",
            r.head_len, r.short_cycles, r.short_len
        ),
        "k / dirty",
        &["bounded ms", "unbound ms", "full ms", "speedup", "marginal", "pruned rate", "diffs"],
    );
    for p in &r.points {
        t.push(
            format!("{} / {:.2}", p.k, p.dirty_fraction),
            vec![
                p.bounded_ms,
                p.unbounded_ms,
                p.full_ms,
                p.speedup(),
                p.marginal(),
                p.pruned_rate(),
                p.answer_diffs as f64,
            ],
        );
    }
    t
}

/// Renders the dirty-region sweep as a printable table.
pub fn dirty_region_table(r: &DirtyRegionResult) -> Table {
    let mut t = Table::new(
        "dirty_region",
        format!(
            "shared DP vs per-output BFS vs scratch, {} cycles × {} nodes, {} outputs, {} threads",
            r.cycles, r.cycle_len, r.outputs, r.threads
        ),
        "dirty frac",
        &["dp par ms", "dp seq ms", "bfs ms", "scratch ms", "vs bfs", "splits"],
    );
    for p in &r.points {
        t.push(
            format!("{:.2}", p.dirty_fraction),
            vec![
                p.dp_parallel_ms,
                p.dp_sequential_ms,
                p.bfs_sequential_ms,
                p.scratch_ms,
                p.speedup_vs_bfs(),
                p.intra_splits as f64,
            ],
        );
    }
    t
}

/// Renders the mix sweep as a printable table.
pub fn attr_mix_table(r: &AttrMixResult) -> Table {
    let mut t = Table::new(
        "attr_churn_mix",
        format!(
            "structural:attr op mix at |Δ|={}, |V|={} |E|={} Q=({},{})",
            r.batch_size, r.nodes, r.edges, r.pattern.0, r.pattern.1
        ),
        "attr frac",
        &["incr ms", "scratch ms", "speedup", "rebuilds"],
    );
    for p in &r.points {
        t.push(
            format!("{:.2}", p.attr_churn),
            vec![p.incremental_ms, p.scratch_ms, p.speedup(), p.full_rebuilds as f64],
        );
    }
    t
}

/// Renders the sweep as a printable table.
pub fn as_table(r: &DeltaBenchResult) -> Table {
    let mut t = Table::new(
        "delta_scaling",
        format!(
            "incremental vs from-scratch, |V|={} |E|={} Q=({},{})",
            r.nodes, r.edges, r.pattern.0, r.pattern.1
        ),
        "|Δ|",
        &["incr ms", "scratch ms", "speedup", "rebuilds"],
    );
    for p in &r.points {
        t.push(
            p.delta_size.to_string(),
            vec![p.incremental_ms, p.scratch_ms, p.speedup(), p.full_rebuilds as f64],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_runs_and_serializes() {
        let (g, q) = delta_workload(1_500, 3);
        let r = run(&g, &q, 5, &[1, 8]);
        assert_eq!(r.points.len(), 2);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("incremental_delta_scaling"));
        assert!(json.contains("\"delta_size\": 1"));
        let rendered = as_table(&r).render();
        assert!(rendered.contains("delta_scaling"));
    }

    #[test]
    fn tiny_dirty_region_runs_and_serializes() {
        let (g, q) = dirty_region_workload(600);
        assert_eq!(g.node_count(), 600);
        let r = run_dirty_region(&g, &q, 5, 2, &[0.1, 1.0]);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.cycles, 12);
        // The largest fraction dirties every output on each revival batch.
        assert!(r.points[1].mean_dirty_outputs >= r.outputs as f64 - 0.5);
        assert!(r.points[0].mean_dirty_outputs < r.points[1].mean_dirty_outputs);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("incremental_dirty_region"));
        assert!(json.contains("intra_pattern_splits"));
        let rendered = dirty_region_table(&r).render();
        assert!(rendered.contains("dirty_region"));
    }

    #[test]
    fn tiny_bounded_refresh_runs_and_serializes() {
        let (g, q) = bounded_workload(600);
        let r = run_bounded_refresh(&g, &q, &[5], &[0.05, 0.25]);
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert_eq!(p.answer_diffs, 0, "bound pruning must not change answers");
            assert_eq!(p.bound_rebuilds, 0, "toggle stream must never re-condense");
        }
        // Every churned short output is dominated by the head's k-th
        // answer: revival batches prune instead of materializing.
        assert!(r.points[0].pruned_outputs > 0);
        assert!(r.points[1].pruned_outputs >= r.points[0].pruned_outputs);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("incremental_bounded_refresh"));
        assert!(json.contains("pruned_rate"));
        let rendered = bounded_refresh_table(&r).render();
        assert!(rendered.contains("bounded_refresh"));
    }

    #[test]
    fn tiny_attr_mix_runs_and_serializes() {
        let (g, q) = attr_workload(1_200, 3);
        assert!(g.has_attributes());
        let key = gpm_datagen::update_stream::attr_key(0);
        assert!(q.nodes().any(|u| q.predicate(u).mentions_key(&key)));
        let r = run_attr_mix(&g, &q, 5, 8, &[0.0, 1.0]);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.points[1].full_rebuilds, 0, "a pure-attr stream must never trigger a rebuild");
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("incremental_attr_churn_mix"));
        assert!(json.contains("\"attr_churn\": 1"));
        let rendered = attr_mix_table(&r).render();
        assert!(rendered.contains("attr_churn_mix"));
    }
}
