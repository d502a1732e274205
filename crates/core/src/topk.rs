//! `TopKDAG` and `TopK` — topKP with early termination (Sections 4.1/4.2).
//!
//! The drivers own the outer loop around the [`crate::engine::Engine`]:
//!
//! ```text
//! loop {
//!     S := top-k confirmed matches by lower bound l          (min-heap S)
//!     if |S| = k and min_{v∈S} l(v) ≥ max_{v'∉S} h(v')       (Prop. 3)
//!         → early termination: complete winners, return S
//!     if exhausted → return top-k of the (now exact) match set
//!     activate next batch Sc and propagate                    (one wave)
//! }
//! ```
//!
//! Correctness of the early exit: `l(v) ≤ δr(v) ≤ h(v)` always, so the
//! condition implies `δr(s) ≥ δr(r)` for every selected `s` and rejected
//! `r` — `S` is a valid top-k set (Proposition 3). On exhaustion, statuses
//! and relevant sets are exact, so the result equals the `Match` baseline's.

use std::time::Instant;

use gpm_graph::DiGraph;
use gpm_pattern::Pattern;

use crate::config::TopKConfig;
use crate::engine::Engine;
use crate::result::{RankedMatch, RunStats, TopKResult};
use crate::selector::BoundedSelector;

/// Generic entry point: picks the (identical) engine for DAG or cyclic
/// patterns. `top_k_dag` / `top_k_cyclic` are the paper-named wrappers.
pub fn top_k(g: &DiGraph, q: &Pattern, cfg: &TopKConfig) -> TopKResult {
    let t0 = Instant::now();
    if cfg.k == 0 {
        return empty_result(t0);
    }
    let Some(mut eng) = Engine::new(g, q, cfg) else {
        return empty_result(t0);
    };

    let mut sel = BoundedSelector::new(cfg.k);
    loop {
        // The wave's confirmed matches folded into the selector: full ⇒ a
        // termination candidate, and on exhaustion its ids are the final
        // best-first top-(≤ k).
        sel.clear();
        for (i, v, l) in eng.matched_outputs() {
            sel.offer(i, v, l);
        }
        if sel.is_full() {
            let selection = sel.ids();
            if sel.terminated(eng.best_rest_bound(&selection)) {
                eng.stats_mut().early_terminated = true;
                eng.stats_mut().inspected_matches = eng.matched_count();
                eng.complete_cones(&selection);
                return finish(eng, selection, t0);
            }
        }
        if eng.exhausted() {
            let total = eng.matched_count();
            eng.stats_mut().inspected_matches = total;
            eng.stats_mut().total_matches = Some(total);
            return finish(eng, sel.ids(), t0);
        }
        eng.wave();
    }
}

/// `TopKDAG` (Section 4.1). Panics in debug builds if the pattern is cyclic.
pub fn top_k_dag(g: &DiGraph, q: &Pattern, cfg: &TopKConfig) -> TopKResult {
    debug_assert!(q.is_dag(), "top_k_dag expects a DAG pattern");
    top_k(g, q, cfg)
}

/// `TopK` (Section 4.2) — handles cyclic patterns via the `Q_SCC` fixpoint
/// (and trivially also DAGs).
pub fn top_k_cyclic(g: &DiGraph, q: &Pattern, cfg: &TopKConfig) -> TopKResult {
    top_k(g, q, cfg)
}

fn finish(mut eng: Engine<'_>, selection: Vec<usize>, t0: Instant) -> TopKResult {
    let mut matches: Vec<RankedMatch> = selection
        .iter()
        .map(|&i| RankedMatch { node: eng.output_node(i), relevance: eng.output_l(i) })
        .collect();
    matches.sort();
    eng.stats_mut().elapsed = t0.elapsed();
    TopKResult { matches, stats: eng.stats().clone() }
}

fn empty_result(t0: Instant) -> TopKResult {
    TopKResult {
        matches: Vec::new(),
        stats: RunStats { elapsed: t0.elapsed(), total_matches: Some(0), ..Default::default() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectionStrategy;
    use crate::match_all::top_k_by_match;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn agrees_with_match_on_chain() {
        let g = graph_from_parts(
            &[0, 0, 0, 1, 1, 1],
            &[(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)],
        )
        .unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let cfg = TopKConfig::new(2);
        let fast = top_k(&g, &q, &cfg);
        let base = top_k_by_match(&g, &q, &cfg);
        assert_eq!(fast.total_relevance(), base.total_relevance());
        assert_eq!(fast.nodes(), base.nodes());
    }

    #[test]
    fn cyclic_pattern_small() {
        // Pattern A→B, B→A. Data has a 2-cycle and a dangling a-node.
        let g = graph_from_parts(&[0, 1, 0], &[(0, 1), (1, 0), (2, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let cfg = TopKConfig::new(1);
        let r = top_k_cyclic(&g, &q, &cfg);
        assert_eq!(r.nodes(), vec![0]);
        // R(A,0) = {0, 1}: the cycle reaches both nodes.
        assert_eq!(r.matches[0].relevance, 2);
    }

    #[test]
    fn no_match_returns_empty() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0, 5], &[(0, 1)], 0).unwrap();
        let r = top_k(&g, &q, &TopKConfig::new(3));
        assert!(r.matches.is_empty());
        assert_eq!(r.stats.total_matches, Some(0));
    }

    #[test]
    fn k_exceeds_matches_returns_all() {
        let g = graph_from_parts(&[0, 1, 0], &[(0, 1), (2, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let r = top_k(&g, &q, &TopKConfig::new(99));
        assert_eq!(r.matches.len(), 2);
        assert_eq!(r.stats.total_matches, Some(2));
    }

    #[test]
    fn non_root_output_checks_global_existence() {
        // Pattern: A→B with output B; data has B but no A.
        let g = graph_from_parts(&[1, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 1).unwrap();
        let r = top_k(&g, &q, &TopKConfig::new(2));
        assert!(r.matches.is_empty(), "no A-match anywhere ⇒ Mu = ∅");
        // With an A present, B-matches return.
        let g2 = graph_from_parts(&[0, 1, 1], &[(0, 1)]).unwrap();
        let r2 = top_k(&g2, &q, &TopKConfig::new(5));
        assert_eq!(r2.matches.len(), 2, "both b-nodes match the leaf B");
    }

    #[test]
    fn randomized_agreement_with_match_baseline() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let n = rng.random_range(4..40usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..4u32)).collect();
            let m = rng.random_range(0..n * 3);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|(a, b)| a != b)
                .collect();
            let g = graph_from_parts(&labels, &edges).unwrap();
            // Random patterns: chains, diamonds, cycles.
            let patterns = [
                label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(),
                label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap(),
                label_pattern(&[0, 1, 2], &[(0, 1), (0, 2), (1, 2)], 0).unwrap(),
                label_pattern(&[0, 1, 2], &[(0, 1), (1, 2), (2, 1)], 0).unwrap(),
                label_pattern(&[0, 1, 0], &[(0, 1), (1, 2), (2, 1)], 0).unwrap(),
            ];
            for (pi, q) in patterns.iter().enumerate() {
                for k in [1, 2, 5] {
                    let cfg = TopKConfig::new(k);
                    let base = top_k_by_match(&g, q, &cfg);
                    for strat in [
                        SelectionStrategy::Optimized,
                        SelectionStrategy::Random { seed: trial as u64 },
                    ] {
                        let mut c = cfg.clone();
                        c.strategy = strat;
                        let fast = top_k(&g, q, &c);
                        assert_eq!(
                            fast.total_relevance(),
                            base.total_relevance(),
                            "trial {trial} pattern {pi} k {k} strat {strat:?}: \
                             labels={labels:?} edges={edges:?}"
                        );
                        assert_eq!(fast.matches.len(), base.matches.len());
                    }
                }
            }
        }
    }
}
