//! Inputs of the three stream workloads: a frozen dataset (base graph,
//! subscribed patterns and the content of the update stream, all from
//! `dataset_seed`) and the presentation of that traffic `--seed` draws —
//! the order of the ops inside every batch, or for `stream_dirty` which
//! cycles and edges each round toggles.

use std::time::Instant;

use gpm_bench::delta_bench::dirty_region_workload;
use gpm_bench::registry_bench::{registry_graph, registry_patterns};
use gpm_datagen::synthetic::{synthetic_graph, SyntheticConfig};
use gpm_datagen::update_stream::{attr_key, update_stream, UpdateStreamConfig};
use gpm_graph::{Attributes, DeltaOp, DiGraph, GraphBuilder, GraphDelta};
use gpm_pattern::{CmpOp, Pattern, PatternBuilder, Predicate};
use gpm_serving::NotifyMode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::Workload;
use crate::digest::Digest;

pub const RELEVANCE_SIZES: &str = "graph=SyntheticConfig::paper(50000, 200000); 16 \
    registry_patterns, one Relevance subscription each; 1000 batches x 50 ops of \
    UpdateStreamConfig::new churn";
pub const DIVERSIFIED_SIZES: &str = "graph=SyntheticConfig::paper(5000, 20000) + int attrs \
    attr0..attr2 in 0..8; 16 registry_patterns, odd ones with attr>=3 predicates, one \
    Diversified subscription each; 600 batches x 20 ops of UpdateStreamConfig::new churn with \
    30% attr_churn";
pub const DIRTY_SIZES: &str = "graph=dirty_region_workload(20000) = 400 cycles x 50, pattern \
    A<->B, one Relevance subscription; pass=30 wheels of 16 rounds at 2% of cycles, 4 at 25%, \
    1 at 100%; round=kill batch + revive batch (1260 ops)";

const RELEVANCE_NODES: usize = 50_000;
const RELEVANCE_BATCHES: usize = 1000;
const RELEVANCE_BATCH: usize = 50;
const DIVERSIFIED_NODES: usize = 5_000;
const DIVERSIFIED_BATCHES: usize = 600;
const DIVERSIFIED_BATCH: usize = 20;
const DIVERSIFIED_ATTR_CHURN: f64 = 0.3;
const PATTERNS: usize = 16;
const LABELS: u32 = 15;
const DIRTY_NODES: usize = 20_000;
const DIRTY_CYCLE_LEN: usize = 50;
const DIRTY_WHEELS: usize = 30;
/// `(share of cycles touched, kill/revive rounds per wheel)`.
const DIRTY_CLASSES: [(f64, usize); 3] = [(0.02, 16), (0.25, 4), (1.0, 1)];

/// Which dirty class an op of `stream_dirty` belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyClass {
    /// Index into the 2 % / 25 % / 100 % classes.
    pub class: u8,
    /// First round of a 2 % block: the batches that re-adopt the
    /// maintained condensation after the 100 % class dropped it.
    pub settle: bool,
}

/// Everything a stream run feeds the service.
pub struct StreamInputs {
    pub base: DiGraph,
    pub patterns: Vec<Pattern>,
    pub mode: NotifyMode,
    pub stream: Vec<GraphDelta>,
    /// One entry per op for `stream_dirty`, empty otherwise.
    pub classes: Vec<DirtyClass>,
    pub digest: String,
    pub graph_gen_s: f64,
    pub pattern_gen_s: f64,
    pub stream_gen_s: f64,
}

/// `stream_dirty`'s graph and pattern are constructed, not drawn, so they
/// are the same in every dataset; its seeded rounds are its content.
pub fn generate(workload: Workload, dataset_seed: u64, seed: u64) -> StreamInputs {
    let t = Instant::now();
    let (base, dirty_pattern) = match workload {
        Workload::StreamRelevance => (registry_graph(RELEVANCE_NODES, dataset_seed), None),
        Workload::StreamDiversified => (diversified_graph(dataset_seed), None),
        Workload::StreamDirty => {
            let (g, q) = dirty_region_workload(DIRTY_NODES);
            (g, Some(q))
        }
        Workload::StaticPaper => unreachable!("static_paper has its own inputs"),
    };
    let graph_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let patterns = match workload {
        Workload::StreamRelevance => registry_patterns(PATTERNS, LABELS, dataset_seed),
        Workload::StreamDiversified => diversified_patterns(dataset_seed),
        _ => vec![dirty_pattern.expect("dirty workload carries its pattern")],
    };
    let pattern_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (stream, classes) = match workload {
        Workload::StreamRelevance => {
            let cfg = UpdateStreamConfig::new(RELEVANCE_BATCHES, RELEVANCE_BATCH, dataset_seed);
            (reordered_within_batches(update_stream(&base, &cfg), seed), Vec::new())
        }
        Workload::StreamDiversified => {
            let cfg = UpdateStreamConfig::new(DIVERSIFIED_BATCHES, DIVERSIFIED_BATCH, dataset_seed)
                .with_attr_churn(DIVERSIFIED_ATTR_CHURN);
            (reordered_within_batches(update_stream(&base, &cfg), seed), Vec::new())
        }
        _ => dirty_stream(seed),
    };
    let stream_gen_s = t.elapsed().as_secs_f64();

    let mut d = Digest::new();
    d.bytes(&gpm_graph::io::to_bytes(&base));
    if base.has_attributes() {
        for v in base.nodes() {
            d.debug(&base.attributes(v));
        }
    }
    for q in &patterns {
        d.u64(q.output() as u64).debug(&q.edges().collect::<Vec<_>>());
        for u in q.nodes() {
            d.debug(q.predicate(u));
        }
    }
    for delta in &stream {
        d.debug(&delta.ops);
    }
    let mode = match workload {
        Workload::StreamDiversified => NotifyMode::Diversified,
        _ => NotifyMode::Relevance,
    };
    StreamInputs {
        base,
        patterns,
        mode,
        stream,
        classes,
        digest: d.hex(),
        graph_gen_s,
        pattern_gen_s,
        stream_gen_s,
    }
}

/// The paper-style topology with integer attributes on the keys update
/// streams churn, so `SetAttr`/`UnsetAttr` ops cross predicate thresholds.
fn diversified_graph(dataset_seed: u64) -> DiGraph {
    let topo = synthetic_graph(&SyntheticConfig::paper(
        DIVERSIFIED_NODES,
        4 * DIVERSIFIED_NODES,
        dataset_seed,
    ));
    let mut rng = StdRng::seed_from_u64(dataset_seed ^ 0xA77);
    let mut b = GraphBuilder::with_capacity(topo.node_count(), topo.edge_count());
    for v in topo.nodes() {
        let attrs =
            Attributes::from_pairs((0..3).map(|i| (attr_key(i), rng.random_range(0..8i64))));
        b.add_node_with_attrs(topo.label(v), attrs);
    }
    for e in topo.edges() {
        b.add_edge(e.source, e.target).expect("edges of a built graph are in range");
    }
    b.build()
}

/// The registry pattern pool; every odd pattern additionally requires
/// `attr{j mod 3} >= 3` (5/8 selectivity) on its non-output nodes.
fn diversified_patterns(dataset_seed: u64) -> Vec<Pattern> {
    registry_patterns(PATTERNS, LABELS, dataset_seed)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 2 == 0 {
                return q;
            }
            let mut b = PatternBuilder::new();
            for u in q.nodes() {
                let label = q.predicate(u).primary_label().expect("label-only pool");
                let pred = if u == q.output() {
                    Predicate::Label(label)
                } else {
                    Predicate::labeled(label, [Predicate::attr(attr_key(u % 3), CmpOp::Ge, 3i64)])
                };
                b.node(String::new(), pred);
            }
            for (s, t) in q.edges() {
                b.edge(s, t).expect("edges of a built pattern are valid");
            }
            b.output(q.output()).expect("output of a built pattern is valid");
            b.build().expect("a rebuilt pattern is well-formed")
        })
        .collect()
}

/// Shuffles the ops of every batch with the run's seed. `AddNode`s stay
/// in front, in their generated order, so every id a later op of the batch
/// names exists by the time it runs; everything else may move, which at
/// worst turns an op into a no-op (never an error: ops on tombstoned nodes
/// and absent edges are ineffective, not rejected).
fn reordered_within_batches(mut stream: Vec<GraphDelta>, seed: u64) -> Vec<GraphDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    for delta in &mut stream {
        let (mut ops, rest): (Vec<DeltaOp>, Vec<DeltaOp>) =
            delta.ops.drain(..).partition(|op| matches!(op, DeltaOp::AddNode(_)));
        let first_movable = ops.len();
        ops.extend(rest);
        for i in (first_movable + 1..ops.len()).rev() {
            ops.swap(i, rng.random_range(first_movable..i + 1));
        }
        delta.ops = ops;
    }
    stream
}

/// The dirty-region traffic: each round kills one edge in a seeded sample
/// of the cycles, then revives it. The three classes cross maintained →
/// churn-drop → rebuild → re-adopt on purpose.
fn dirty_stream(seed: u64) -> (Vec<GraphDelta>, Vec<DirtyClass>) {
    let cycles = DIRTY_NODES / DIRTY_CYCLE_LEN;
    let len = DIRTY_CYCLE_LEN as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..cycles as u32).collect();
    let mut stream = Vec::new();
    let mut classes = Vec::new();
    for _ in 0..DIRTY_WHEELS {
        for (class, &(share, rounds)) in DIRTY_CLASSES.iter().enumerate() {
            let touched = ((share * cycles as f64).round() as usize).clamp(1, cycles);
            for round in 0..rounds {
                let mut kill = GraphDelta::new();
                let mut revive = GraphDelta::new();
                // Partial Fisher–Yates: the first `touched` entries become
                // a uniform sample of the cycles.
                for i in 0..touched {
                    order.swap(i, rng.random_range(i..cycles));
                    let base = order[i] * len;
                    let e = rng.random_range(0..len);
                    let (s, t) = (base + e, base + (e + 1) % len);
                    kill = kill.remove_edge(s, t);
                    revive = revive.add_edge(s, t);
                }
                let tag = DirtyClass { class: class as u8, settle: class == 0 && round == 0 };
                stream.extend([kill, revive]);
                classes.extend([tag, tag]);
            }
        }
    }
    (stream, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::dynamic::DynGraph;

    #[test]
    fn same_seed_same_inputs_other_seed_other_traffic_same_dataset() {
        let a = generate(Workload::StreamDirty, 20130826, 3);
        let b = generate(Workload::StreamDirty, 20130826, 3);
        let c = generate(Workload::StreamDirty, 20130826, 4);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.base.edge_count(), c.base.edge_count());
        assert_eq!(a.stream.len(), c.stream.len());
    }

    #[test]
    fn dirty_stream_has_the_frozen_shape() {
        let (stream, classes) = dirty_stream(1);
        assert_eq!(stream.len(), DIRTY_WHEELS * 2 * (16 + 4 + 1));
        assert_eq!(stream.len(), classes.len());
        let per_class = |c: u8| classes.iter().filter(|t| t.class == c).count();
        assert_eq!(per_class(0), DIRTY_WHEELS * 32);
        assert_eq!(per_class(1), DIRTY_WHEELS * 8);
        assert_eq!(per_class(2), DIRTY_WHEELS * 2);
        assert_eq!(classes.iter().filter(|t| t.settle).count(), DIRTY_WHEELS * 2);
        // 2 % of 400 cycles, one edge each; a revive mirrors its kill.
        assert_eq!(stream[0].len(), 8);
        assert_eq!(stream[0].len(), stream[1].len());
        // The 100 % class touches every cycle exactly once.
        let full = &stream[2 * (16 + 4)];
        let mut touched: Vec<u32> = full
            .ops
            .iter()
            .map(|op| match *op {
                DeltaOp::RemoveEdge(s, _) => s / DIRTY_CYCLE_LEN as u32,
                _ => panic!("kill batches only remove edges"),
            })
            .collect();
        touched.sort_unstable();
        assert_eq!(touched, (0..400).collect::<Vec<u32>>());
    }

    #[test]
    fn reordering_keeps_every_op_and_added_nodes_in_front() {
        let batch = GraphDelta::new()
            .add_edge(0, 1)
            .add_node(3)
            .remove_edge(2, 3)
            .add_node(4)
            .add_edge(1, 5)
            .remove_node(2);
        let a = reordered_within_batches(vec![batch.clone()], 7);
        let b = reordered_within_batches(vec![batch.clone()], 7);
        let c = reordered_within_batches(vec![batch.clone()], 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "another seed, another order");
        assert_eq!(a[0].ops[..2], [DeltaOp::AddNode(3), DeltaOp::AddNode(4)]);
        let sorted = |d: &GraphDelta| {
            let mut v: Vec<String> = d.ops.iter().map(|op| format!("{op:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&a[0]), sorted(&batch));
        // Node 5 is added by this batch: the edge naming it still applies.
        let g = gpm_graph::builder::graph_from_parts(&[0, 0, 0, 0], &[(2, 3)]).unwrap();
        let mut m = DynGraph::from_digraph(&g);
        m.apply(&a[0]).unwrap();
        assert!(m.has_edge(1, 5));
    }
}
