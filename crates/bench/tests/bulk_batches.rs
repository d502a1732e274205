//! Graph-sized batches go through replay, under the default config.
//!
//! A batch is always replayed — nothing looks at a delta before the graph
//! applies it — so a batch that rewrites the whole graph must leave every
//! maintained layer exactly where a from-scratch build would. On the
//! benchmark's own generators, after each bulk batch: registry ≡ each
//! pattern's `undispatchable` twin in a registry of its own ≡ the static
//! pipeline on the snapshot (top-k and diversified), the maintained
//! condensations validate, the simulation invariants hold, and no state
//! was re-created.

#[path = "../../incremental/tests/common/mod.rs"]
mod common;

use common::undispatchable;
use gpm_bench::delta_bench::dirty_region_workload;
use gpm_bench::registry_bench::{registry_graph, registry_patterns};
use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::{top_k_by_match, top_k_diversified};
use gpm_graph::{DiGraph, GraphDelta};
use gpm_incremental::{IncrementalConfig, PatternRegistry};
use gpm_pattern::Pattern;

const K: usize = 5;
const LAMBDA: f64 = 0.5;

/// Wipe, refill, wipe + refill in one batch, then a quarter of the nodes
/// tombstoned with as many added (each wired to the next surviving node,
/// so the newcomers can match).
fn bulk_batches(g: &DiGraph) -> [(&'static str, GraphDelta); 4] {
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.source, e.target)).collect();
    let wipe = edges.iter().fold(GraphDelta::new(), |d, &(s, t)| d.remove_edge(s, t));
    let refill = edges.iter().fold(GraphDelta::new(), |d, &(s, t)| d.add_edge(s, t));
    let mut both = wipe.clone();
    both.ops.extend(refill.ops.iter().cloned());
    let n = g.node_count() as u32;
    let mut quarter = GraphDelta::new();
    for (i, v) in (0..n).step_by(4).enumerate() {
        quarter = quarter.remove_node(v).add_node(g.label(v)).add_edge(n + i as u32, (v + 1) % n);
    }
    [("wipe", wipe), ("refill", refill), ("wipe+refill", both), ("quarter", quarter)]
}

fn replay_agrees_with_scratch(what: &str, g: &DiGraph, patterns: &[Pattern]) {
    let cfg = IncrementalConfig::new(K).lambda(LAMBDA);
    let mut reg = PatternRegistry::new(g);
    let mut served: Vec<_> = patterns
        .iter()
        .map(|q| {
            let id = reg.register(q.clone(), cfg.clone()).unwrap();
            let mut twin = PatternRegistry::new(g);
            let twin_id = twin.register(undispatchable(q), cfg.clone()).unwrap();
            (id, q, twin, twin_id)
        })
        .collect();

    for (name, delta) in bulk_batches(g) {
        reg.apply(&delta).unwrap();
        let snap = reg.snapshot();
        for (i, (id, q, twin, twin_id)) in served.iter_mut().enumerate() {
            let ctx = format!("{what}, {name}, pattern {i}");
            twin.apply(&delta).unwrap();
            assert_eq!(reg.audit_pattern(*id), Some(Ok(())), "audit: {ctx}");
            assert_eq!(twin.audit_pattern(*twin_id), Some(Ok(())), "twin audit: {ctx}");

            let top = reg.top_k(*id).unwrap().matches;
            assert_eq!(top, twin.top_k(*twin_id).unwrap().matches, "registry vs twin: {ctx}");
            let base = top_k_by_match(&snap, q, &TopKConfig::new(K));
            assert_eq!(top, base.matches, "registry vs static: {ctx}");

            let div = reg.top_k_diversified(*id).unwrap();
            let base = top_k_diversified(&snap, q, &DivConfig::new(K, LAMBDA));
            let twin_div = twin.top_k_diversified(*twin_id).unwrap();
            assert_eq!(div.nodes(), twin_div.nodes(), "div vs twin: {ctx}");
            assert_eq!(div.nodes(), base.nodes(), "div vs static: {ctx}");
            assert!((div.f_value - base.f_value).abs() < 1e-9, "F diverged: {ctx}");

            let full_rebuilds = |r: &PatternRegistry, id| r.stats_of(id).unwrap().full_rebuilds;
            let rebuilt = (full_rebuilds(&reg, *id), full_rebuilds(twin, *twin_id));
            assert_eq!(rebuilt, (0, 0), "replayed: {ctx}");
        }
    }
}

#[test]
fn bulk_batches_replay_to_the_from_scratch_answer() {
    let (g, q) = dirty_region_workload(2_000);
    replay_agrees_with_scratch("dirty_region_workload", &g, &[q]);
    let g = registry_graph(2_000, 7);
    replay_agrees_with_scratch("registry_graph", &g, &registry_patterns(8, 15, 7));
}
