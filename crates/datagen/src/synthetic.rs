//! Synthetic graphs via the linkage-generation model.
//!
//! Section 6: "We generated synthetic graphs following the linkage
//! generation models \[12\]: an edge was attached to the high degree nodes
//! with higher probability", controlled by `(|V|, |E|)` with labels from a
//! set of 15. We implement degree-proportional endpoint sampling with the
//! classic endpoint-pool trick (each inserted edge pushes both endpoints
//! into a pool; sampling the pool is sampling ∝ degree), smoothed with a
//! uniform component so low-degree nodes stay reachable.

use gpm_graph::{DiGraph, GraphBuilder, Label, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// `|V|`.
    pub nodes: usize,
    /// `|E|` (approximate; parallel duplicates are dropped).
    pub edges: usize,
    /// Alphabet size (paper: 15).
    pub labels: u32,
    /// RNG seed.
    pub seed: u64,
    /// Probability that an edge endpoint is sampled uniformly instead of
    /// degree-proportionally (smoothing).
    pub uniform_mix: f64,
    /// Fraction of edges drawn between two *existing* nodes in either
    /// direction — these create cycles. `0.0` yields a DAG (all remaining
    /// edges point from newer to older nodes, citation-style).
    pub back_edge_fraction: f64,
    /// Probability that a growth edge closes a triangle (attaches to a
    /// successor of the previous target). Real co-purchase/recommendation
    /// graphs are heavily clustered; pure PA is not.
    pub closure: f64,
    /// Probability that a pass-2 edge reciprocates an existing edge
    /// (creates 2-cycles; ignored when `back_edge_fraction = 0`).
    pub reciprocity: f64,
}

impl SyntheticConfig {
    /// Paper-style cyclic graph: `(|V|, |E|)` with 15 labels.
    pub fn paper(nodes: usize, edges: usize, seed: u64) -> Self {
        SyntheticConfig {
            nodes,
            edges,
            labels: 15,
            seed,
            uniform_mix: 0.2,
            back_edge_fraction: 0.3,
            closure: 0.5,
            reciprocity: 0.35,
        }
    }

    /// Scalability-sweep variant: cyclic but not SCC-dominated (moderate
    /// back edges/reciprocity keep reachability heterogeneous, which the
    /// top-k experiments need; the paper's linkage graphs at |E| = 2|V| are
    /// similarly sparse).
    pub fn sweep(nodes: usize, edges: usize, seed: u64) -> Self {
        SyntheticConfig {
            back_edge_fraction: 0.2,
            reciprocity: 0.3,
            closure: 0.55,
            ..Self::paper(nodes, edges, seed)
        }
    }

    /// DAG variant (new→old edges only).
    pub fn dag(nodes: usize, edges: usize, seed: u64) -> Self {
        SyntheticConfig {
            back_edge_fraction: 0.0,
            reciprocity: 0.0,
            ..Self::paper(nodes, edges, seed)
        }
    }
}

/// Generates a synthetic graph.
pub fn synthetic_graph(cfg: &SyntheticConfig) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.nodes.max(1);
    let mut b = GraphBuilder::with_capacity(n, cfg.edges);
    for _ in 0..n {
        let l: Label = rng.random_range(0..cfg.labels.max(1));
        b.add_node(l);
    }

    // Endpoint pool for degree-proportional sampling, the running edge list
    // for reciprocity sampling, and per-node out-lists for triadic closure.
    let mut pool: Vec<NodeId> = Vec::with_capacity(cfg.edges * 2);
    let mut edge_list: Vec<(NodeId, NodeId)> = Vec::with_capacity(cfg.edges);
    let mut out_of: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let pick_old = |rng: &mut StdRng, pool: &[NodeId], upper: usize| -> NodeId {
        if pool.is_empty() || rng.random::<f64>() < cfg.uniform_mix {
            rng.random_range(0..upper as u32)
        } else {
            pool[rng.random_range(0..pool.len())]
        }
    };

    let mut added = 0usize;
    // Pass 1: growth — each node beyond the first attaches edges to
    // already-present nodes (new → old: acyclic backbone). A
    // `back_edge_fraction` share of the budget is reserved for pass 2.
    let pass1_budget = ((cfg.edges as f64) * (1.0 - cfg.back_edge_fraction)) as usize;
    let per_node = pass1_budget / n.max(1);
    for v in 1..n as NodeId {
        // Heavy-tailed out-degree (real citation / co-purchase out-degrees
        // are): most nodes get the base degree, a few get bursts — bursts
        // are what create dense clusters once closure chains through them.
        // The fractional part of the target mean is dithered so |E|/|V|
        // between 1 and 2 still yields two-edge (triangle-capable) nodes.
        let mean = pass1_budget as f64 / n as f64;
        let frac = (mean - mean.floor()).clamp(0.0, 1.0);
        let mut degree = per_node.max(1);
        if rng.random::<f64>() < frac {
            degree += 1;
        }
        while rng.random::<f64>() < 0.18 && degree < per_node.max(1) + 10 {
            degree += 2;
        }
        let mut prev_target: Option<NodeId> = None;
        for _ in 0..degree {
            if added >= pass1_budget {
                break;
            }
            // Triadic closure: attach to a successor of the previous target
            // (all older than v, so the backbone stays acyclic).
            let mut t = match prev_target {
                Some(pt)
                    if rng.random::<f64>() < cfg.closure && !out_of[pt as usize].is_empty() =>
                {
                    let outs = &out_of[pt as usize];
                    outs[rng.random_range(0..outs.len())]
                }
                _ => pick_old(&mut rng, &pool, v as usize),
            };
            if t >= v {
                t = rng.random_range(0..v);
            }
            b.add_edge(v, t).expect("nodes exist");
            edge_list.push((v, t));
            out_of[v as usize].push(t);
            pool.push(v);
            pool.push(t);
            prev_target = Some(t);
            added += 1;
        }
    }
    // Pass 2: remaining edges. Back edges (old → new or arbitrary) create
    // cycles; otherwise keep the new→old orientation.
    let cyclic = cfg.back_edge_fraction > 0.0;
    while added < cfg.edges {
        // Reciprocity: mirror an existing edge (only in cyclic mode).
        if cyclic && !edge_list.is_empty() && rng.random::<f64>() < cfg.reciprocity {
            let (s, t) = edge_list[rng.random_range(0..edge_list.len())];
            b.add_edge(t, s).expect("nodes exist");
            pool.push(s);
            pool.push(t);
            added += 1;
            continue;
        }
        let a = pick_old(&mut rng, &pool, n);
        let c = pick_old(&mut rng, &pool, n);
        if a == c {
            added += 1; // count the attempt so degenerate configs terminate
            continue;
        }
        let (s, t) = if rng.random::<f64>() < cfg.back_edge_fraction {
            (a.min(c), a.max(c)) // old → new: closes cycles against pass 1
        } else {
            (a.max(c), a.min(c))
        };
        b.add_edge(s, t).expect("nodes exist");
        edge_list.push((s, t));
        pool.push(s);
        pool.push(t);
        added += 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::stats::GraphStats;

    #[test]
    fn respects_sizes_and_is_reproducible() {
        let cfg = SyntheticConfig::paper(2_000, 4_000, 42);
        let g1 = synthetic_graph(&cfg);
        let g2 = synthetic_graph(&cfg);
        assert_eq!(g1.node_count(), 2_000);
        // Duplicates get dropped; expect close to the target.
        assert!(g1.edge_count() > 3_000, "got {}", g1.edge_count());
        assert_eq!(g1.edge_count(), g2.edge_count(), "same seed, same graph");
        assert_eq!(g1.labels(), g2.labels());
        assert!(g1.distinct_label_count() <= 15);
    }

    #[test]
    fn dag_config_produces_dag() {
        let cfg = SyntheticConfig::dag(1_000, 2_000, 7);
        let g = synthetic_graph(&cfg);
        let s = GraphStats::compute(&g);
        assert!(s.is_dag, "new→old edges cannot close a cycle");
    }

    #[test]
    fn cyclic_config_produces_cycles() {
        let cfg = SyntheticConfig::paper(2_000, 6_000, 9);
        let g = synthetic_graph(&cfg);
        let s = GraphStats::compute(&g);
        assert!(!s.is_dag);
        assert!(s.largest_scc > 10, "back edges should grow an SCC core");
    }

    #[test]
    fn skewed_degrees() {
        let cfg = SyntheticConfig::paper(5_000, 15_000, 3);
        let g = synthetic_graph(&cfg);
        let s = GraphStats::compute(&g);
        // Preferential attachment: hubs far above the average degree.
        assert!(s.max_in_degree as f64 > 10.0 * s.avg_out_degree);
    }

    #[test]
    fn tiny_configs_terminate() {
        let g = synthetic_graph(&SyntheticConfig::paper(1, 5, 1));
        assert_eq!(g.node_count(), 1);
        let g2 = synthetic_graph(&SyntheticConfig::paper(2, 0, 1));
        assert_eq!(g2.edge_count(), 0);
    }
}
