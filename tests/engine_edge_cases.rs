//! Edge-case integration tests for the early-termination engine: shapes
//! and inputs that stress unusual paths (self-loops, multiple SCCs,
//! saturated k, disconnected patterns with non-root outputs, duplicate
//! labels, the empty graph).

use diversified_topk::prelude::*;
use gpm_core::config::SelectionStrategy;
use gpm_core::{top_k, top_k_by_match, top_k_diversified, top_k_diversified_heuristic};
use gpm_graph::builder::graph_from_parts;
use gpm_pattern::builder::label_pattern;

fn assert_agrees(g: &DiGraph, q: &Pattern, k: usize) {
    let base = top_k_by_match(g, q, &TopKConfig::new(k));
    for strat in [SelectionStrategy::Optimized, SelectionStrategy::Random { seed: 5 }] {
        let mut cfg = TopKConfig::new(k);
        cfg.strategy = strat;
        let fast = top_k(g, q, &cfg);
        assert_eq!(fast.total_relevance(), base.total_relevance(), "{strat:?}");
        assert_eq!(fast.matches.len(), base.matches.len(), "{strat:?}");
    }
}

#[test]
fn pattern_self_loop() {
    // Pattern node with a self loop: only data nodes on a same-label cycle
    // qualify.
    let g = graph_from_parts(&[0, 0, 0, 1], &[(0, 1), (1, 0), (1, 2), (0, 3)]).unwrap();
    let q = label_pattern(&[0], &[(0, 0)], 0).unwrap();
    assert_agrees(&g, &q, 3);
    let r = top_k(&g, &q, &TopKConfig::new(3));
    let nodes = r.nodes();
    assert!(nodes.contains(&0) && nodes.contains(&1));
    assert!(!nodes.contains(&2), "node 2 has no 0-labeled successor");
}

#[test]
fn two_disjoint_pattern_cycles() {
    // Q: A* → (B ⇄ C), A → (D ⇄ E): two separate nontrivial SCCs below uo.
    let q = label_pattern(&[0, 1, 2, 3, 4], &[(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 3)], 0)
        .unwrap();
    // Data: one node satisfying both cycles, one satisfying only the first.
    let g = graph_from_parts(
        &[0, 1, 2, 3, 4, 0],
        &[
            (0, 1),
            (1, 2),
            (2, 1),
            (0, 3),
            (3, 4),
            (4, 3),
            (5, 1), // node 5 reaches only the B⇄C cycle
        ],
    )
    .unwrap();
    assert_agrees(&g, &q, 2);
    let r = top_k(&g, &q, &TopKConfig::new(2));
    assert_eq!(r.nodes(), vec![0], "node 5 lacks the D⇄E branch");
    assert_eq!(r.matches[0].relevance, 4);
}

#[test]
fn k_zero_and_k_saturated() {
    let g = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (2, 3)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let r0 = top_k(&g, &q, &TopKConfig::new(0));
    assert!(r0.matches.is_empty());
    let r_all = top_k(&g, &q, &TopKConfig::new(100));
    assert_eq!(r_all.matches.len(), 2);
}

#[test]
fn duplicate_labels_in_pattern() {
    // Pattern A → B, A → B' (same label): one b-child can serve both roles.
    let g = graph_from_parts(&[0, 1, 0], &[(0, 1)]).unwrap();
    let q = label_pattern(&[0, 1, 1], &[(0, 1), (0, 2)], 0).unwrap();
    assert_agrees(&g, &q, 2);
    let r = top_k(&g, &q, &TopKConfig::new(2));
    assert_eq!(r.nodes(), vec![0]);
    assert_eq!(r.matches[0].relevance, 1, "node 1 counted once in R");
}

#[test]
fn non_root_output_inside_cycle() {
    // Output on the cycle itself: matches share the cycle's relevant set.
    let g = graph_from_parts(&[1, 2, 1, 2], &[(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
    let q = label_pattern(&[1, 2], &[(0, 1), (1, 0)], 0).unwrap();
    assert_agrees(&g, &q, 4);
    let r = top_k(&g, &q, &TopKConfig::new(4));
    assert_eq!(r.matches.len(), 2);
    for m in &r.matches {
        assert_eq!(m.relevance, 2, "each 2-cycle reaches both of its nodes");
    }
}

#[test]
fn deep_chain_pattern() {
    // A 6-deep chain pattern over a 7-layer graph exercises rank-by-rank
    // propagation.
    let labels: Vec<u32> = (0..7u32).collect();
    let edges: Vec<(u32, u32)> = (0..6u32).map(|i| (i, i + 1)).collect();
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&labels, &edges, 0).unwrap();
    assert_agrees(&g, &q, 1);
    let r = top_k(&g, &q, &TopKConfig::new(1));
    assert_eq!(r.matches[0].relevance, 6);
}

#[test]
fn nopt_equals_match_across_seeds() {
    let g =
        graph_from_parts(&[0, 0, 0, 1, 1, 1], &[(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)])
            .unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let base = top_k_by_match(&g, &q, &TopKConfig::new(2));
    for seed in [1, 2, 8, 1000] {
        let fast = top_k(&g, &q, &TopKConfig::new(2).nopt(seed));
        assert_eq!(fast.matches, base.matches, "seed {seed}");
    }
}

#[test]
fn empty_graph_answers_are_empty() {
    let g = GraphBuilder::new().build();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let (cfg, div) = (TopKConfig::new(10), DivConfig::new(10, 0.5));
    let ranked = [("top_k", top_k(&g, &q, &cfg)), ("top_k_by_match", top_k_by_match(&g, &q, &cfg))];
    let diversified = [
        ("top_k_diversified", top_k_diversified(&g, &q, &div)),
        ("top_k_diversified_heuristic", top_k_diversified_heuristic(&g, &q, &div)),
    ];
    let answers = ranked
        .iter()
        .map(|(name, r)| (name, &r.matches, &r.stats))
        .chain(diversified.iter().map(|(name, r)| (name, &r.matches, &r.stats)));
    for (name, matches, stats) in answers {
        assert!(matches.is_empty(), "{name}: {matches:?}");
        assert_eq!(stats.total_matches, Some(0), "{name}");
    }
}
