//! Property-based tests (proptest) over the core invariants:
//!
//! * the refinement simulation equals the naive fixpoint and satisfies the
//!   definitional simulation + maximality checks;
//! * early-terminating top-k always returns a set with the same total
//!   relevance as the find-all baseline, under both selection strategies;
//! * every bound strategy produces sound upper bounds;
//! * `δd` (Jaccard over relevant sets) is a metric;
//! * `TopKDiv` respects its 2-approximation bound against brute force;
//! * the static relevant sets decode to the data nodes a plain BFS over
//!   `(u, v)` pairs finds, and their distances are Jaccard over those nodes.

use std::collections::BTreeSet;

use diversified_topk::prelude::*;
use gpm_core::config::{DivConfig, SelectionStrategy};
use gpm_core::{top_k, top_k_by_match, top_k_diversified};
use gpm_graph::builder::graph_from_parts;
use gpm_pattern::builder::label_pattern;
use gpm_ranking::bounds::{output_upper_bounds, BoundConfig, BoundStrategy};
use gpm_ranking::relevant_set::{relevant_set_of_pair, RelevantSets};
use gpm_simulation::SimRelation;
use proptest::prelude::*;

/// A random small labeled digraph.
fn arb_graph() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (3usize..28).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..4, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 3);
        (labels, edges)
    })
}

/// A small pattern over the same alphabet; index 0 is the output and must
/// reach every node (guaranteed by a chain skeleton + extra edges).
fn arb_pattern() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (1usize..5).prop_flat_map(|k| {
        let labels = proptest::collection::vec(0u32..4, k);
        let extra = proptest::collection::vec((0u32..k as u32, 0u32..k as u32), 0..k * 2);
        (labels, extra).prop_map(move |(labels, extra)| {
            let mut edges: Vec<(u32, u32)> = (1..k as u32).map(|i| (i - 1, i)).collect();
            edges.extend(extra.into_iter().filter(|(a, b)| a != b));
            edges.sort_unstable();
            edges.dedup();
            (labels, edges)
        })
    })
}

/// `R(u, v)` by plain BFS over `(u, v)` pairs: the data nodes of the match
/// pairs strictly reachable from `(u, v)` — `(u, v)` itself only through a
/// cycle.
fn bfs_relevant_set(g: &DiGraph, q: &Pattern, sim: &SimRelation, u: u32, v: u32) -> BTreeSet<u32> {
    let (mut seen, mut nodes) = (BTreeSet::new(), BTreeSet::new());
    let mut stack = vec![(u, v)];
    while let Some((u, v)) = stack.pop() {
        for &uc in q.successors(u) {
            for &w in g.successors(v) {
                if sim.contains(uc, w) && seen.insert((uc, w)) {
                    nodes.insert(w);
                    stack.push((uc, w));
                }
            }
        }
    }
    nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_matches_naive_and_is_maximal(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        prop_assert!(gpm_simulation::naive::agrees_with_naive(&g, &q, &sim));
        prop_assert!(sim.verify_is_simulation(&g, &q));
        prop_assert!(sim.verify_is_maximum(&g, &q));
    }

    #[test]
    fn early_termination_matches_baseline(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let base = top_k_by_match(&g, &q, &TopKConfig::new(k));
        for strategy in [SelectionStrategy::Optimized, SelectionStrategy::Random { seed }] {
            let mut cfg = TopKConfig::new(k);
            cfg.strategy = strategy;
            let fast = top_k(&g, &q, &cfg);
            prop_assert_eq!(fast.matches.len(), base.matches.len());
            prop_assert_eq!(fast.total_relevance(), base.total_relevance());
            // The returned relevances are the true δr multiset prefix.
            let base_rel: Vec<u64> = base.matches.iter().map(|m| m.relevance).collect();
            let fast_rel: Vec<u64> = fast.matches.iter().map(|m| m.relevance).collect();
            prop_assert_eq!(base_rel, fast_rel);
        }
    }

    #[test]
    fn bounds_are_sound(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        for strat in [BoundStrategy::Global, BoundStrategy::DescLabelCount, BoundStrategy::ProductReach] {
            let b = output_upper_bounds(&g, &q, sim.space(), strat, &BoundConfig::default());
            for (i, &v) in sim.space().candidates(q.output()).iter().enumerate() {
                if let Some(d) = rs.relevance_of(v) {
                    prop_assert!(b.h_at(i) >= d, "{strat:?}: h={} < δr={d}", b.h_at(i));
                }
            }
        }
    }

    #[test]
    fn jaccard_distance_is_metric(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        let n = rs.len().min(6);
        let eps = 1e-9;
        for i in 0..n {
            prop_assert!(rs.distance(i, i).abs() < eps);
            for j in 0..n {
                prop_assert!((rs.distance(i, j) - rs.distance(j, i)).abs() < eps);
                prop_assert!(rs.distance(i, j) >= -eps && rs.distance(i, j) <= 1.0 + eps);
                for l in 0..n {
                    prop_assert!(
                        rs.distance(i, j) <= rs.distance(i, l) + rs.distance(l, j) + eps
                    );
                }
            }
        }
    }

    #[test]
    fn topkdiv_two_approximation(
        (labels, edges) in arb_graph(),
        lambda in 0.0f64..1.0,
        k in 2usize..4,
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let cfg = DivConfig::new(k, lambda);
        let approx = top_k_diversified(&g, &q, &cfg);
        let opt = gpm_core::topk_div::optimal_diversified(&g, &q, &cfg);
        prop_assert!(approx.f_value * 2.0 >= opt.f_value - 1e-9);
        prop_assert!(opt.f_value >= approx.f_value - 1e-9);
    }

    // `arb_pattern`'s extra edges make both DAG and cyclic patterns.
    #[test]
    fn static_relevant_sets_decode_to_the_bfs_sets(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        prop_assert_eq!(rs.matches(), &sim.output_matches(&q)[..]);
        let bfs: Vec<BTreeSet<u32>> =
            rs.matches().iter().map(|&v| bfs_relevant_set(&g, &q, &sim, q.output(), v)).collect();
        for (i, want) in bfs.iter().enumerate() {
            prop_assert_eq!(rs.set_node_ids(i), want.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(rs.relevance(i), want.len() as u64);
        }
        for u in q.nodes() {
            for v in sim.matches_of(u) {
                let want: Vec<u32> = bfs_relevant_set(&g, &q, &sim, u, v).into_iter().collect();
                prop_assert_eq!(relevant_set_of_pair(&g, &q, &sim, u, v), Some(want));
            }
        }
        for (i, a) in bfs.iter().enumerate() {
            for (j, b) in bfs.iter().enumerate() {
                let union = a.union(b).count();
                let want = if union == 0 {
                    0.0
                } else {
                    1.0 - a.intersection(b).count() as f64 / union as f64
                };
                prop_assert_eq!(rs.distance(i, j).to_bits(), want.to_bits(), "δd({}, {})", i, j);
            }
        }
    }
}
