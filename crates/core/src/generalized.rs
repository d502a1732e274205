//! Generalized (diversified) top-k matching — Section 3.4 and Propositions
//! 4 & 6.
//!
//! A generalized relevance function `δ*r` is a monotone PTIME function of
//! the relevant set; every function in the paper's table (preference
//! attachment, common neighbours, Jaccard coefficient) is in fact monotone
//! in `|R*(u,v)|` once `M(Q,G,R(u))` is fixed. Monotonicity is exactly what
//! Proposition 4 needs: a top-k set under `|R|` (which the count-based
//! early-termination engine produces) is a top-k set under `δ*r` as well,
//! since `|R(s)| ≥ |R(r)|` implies `δ*r(s) ≥ δ*r(r)`. The early-terminating
//! [`generalized_top_k`] therefore reuses [`crate::topk::top_k`] and
//! rescores the winners; the exhaustive [`generalized_top_k_full`] ranks
//! all matches directly (useful for non-count-determined custom functions).

use std::time::Instant;

use gpm_graph::{BitSet, DiGraph, NodeId};
use gpm_pattern::Pattern;
use gpm_ranking::distance::DistanceFn;
use gpm_ranking::reach_sets::ReachEngine;
use gpm_ranking::relevance::{RelevanceCtx, RelevanceFn};
use gpm_simulation::{compute_simulation, MatchGraph, SimRelation};

use crate::config::{DivConfig, TopKConfig};
use crate::match_all::compute_match_outcome;
use crate::result::RunStats;

/// A match scored by a generalized relevance function.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredMatch {
    /// The matched data node.
    pub node: NodeId,
    /// `δ*r(uo, node)`.
    pub score: f64,
}

/// Result of a generalized topKP run.
#[derive(Debug, Clone)]
pub struct GenTopKResult {
    /// Matches sorted by descending generalized score.
    pub matches: Vec<ScoredMatch>,
    /// Statistics of the underlying engine run.
    pub stats: RunStats,
}

/// Builds `M(Q,G,R(uo))` over data-node ids — matches of all query nodes
/// strictly reachable from `uo` — and counts those query nodes. Node ids,
/// not a match graph's universe: a match need not be reached by any
/// match-graph edge.
fn descendant_matches(g: &DiGraph, q: &Pattern, sim: &SimRelation) -> (BitSet, usize) {
    let reach = q.reachable_from_output();
    let nodes = reach.iter().flat_map(|u| sim.matches_of(u as u32)).map(|v| v as usize);
    (BitSet::from_iter(g.node_count(), nodes), reach.count())
}

/// `δ*r` of a match whose relevant set holds the data nodes `r`, against
/// [`descendant_matches`]' output.
fn score(
    g: &DiGraph,
    f: &dyn RelevanceFn,
    r: impl IntoIterator<Item = NodeId>,
    (desc_matches, desc_query_nodes): &(BitSet, usize),
) -> f64 {
    let r_set = &BitSet::from_iter(g.node_count(), r.into_iter().map(|v| v as usize));
    f.score(&RelevanceCtx { r_set, desc_query_nodes: *desc_query_nodes, desc_matches })
}

/// Early-terminating generalized topKP (Proposition 4): the engine finds a
/// top-k set by `|R|`; the winners are rescored with `f` using their exact
/// relevant sets and a full-simulation pass for `M(Q,G,R(uo))`.
pub fn generalized_top_k(
    g: &DiGraph,
    q: &Pattern,
    cfg: &TopKConfig,
    f: &dyn RelevanceFn,
) -> GenTopKResult {
    let t0 = Instant::now();
    let base = crate::topk::top_k(g, q, cfg);
    if base.matches.is_empty() {
        return GenTopKResult {
            matches: Vec::new(),
            stats: RunStats { elapsed: t0.elapsed(), ..base.stats },
        };
    }
    // Exact context for the winners only: one simulation pass, one match
    // graph and one reach pass from the winners' pairs.
    let sim = compute_simulation(g, q);
    let desc = descendant_matches(g, q, &sim);
    let mg = MatchGraph::over_matches(g, q, &sim);
    let sources: Vec<u32> = base
        .matches
        .iter()
        .map(|m| {
            let p = sim.space().pair_id(q.output(), m.node).expect("a winner is a candidate");
            mg.compact_of(p).expect("a winner is a match")
        })
        .collect();
    let sets = ReachEngine::prepare(&mg, sources, &cfg.reach).extract_all();
    let mut matches: Vec<ScoredMatch> = base
        .matches
        .iter()
        .zip(&sets)
        .map(|(m, set)| ScoredMatch {
            node: m.node,
            score: score(g, f, set.iter().map(|i| mg.universe()[i]), &desc),
        })
        .collect();
    matches.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.node.cmp(&b.node)));
    let mut stats = base.stats;
    stats.elapsed = t0.elapsed();
    GenTopKResult { matches, stats }
}

/// Exhaustive generalized topKP: scores **all** output matches with `f`.
pub fn generalized_top_k_full(
    g: &DiGraph,
    q: &Pattern,
    cfg: &TopKConfig,
    f: &dyn RelevanceFn,
) -> GenTopKResult {
    let t0 = Instant::now();
    let outcome = compute_match_outcome(g, q, &cfg.reach);
    let rs = &outcome.relevant;
    let desc = descendant_matches(g, q, &outcome.sim);
    let mut matches: Vec<ScoredMatch> = (0..rs.len())
        .map(|i| ScoredMatch {
            node: rs.matches()[i],
            score: score(g, f, rs.set_node_ids(i), &desc),
        })
        .collect();
    matches.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.node.cmp(&b.node)));
    matches.truncate(cfg.k);
    let total = rs.len();
    GenTopKResult {
        matches,
        stats: RunStats {
            inspected_matches: total,
            total_matches: Some(total),
            elapsed: t0.elapsed(),
            ..Default::default()
        },
    }
}

/// Generalized diversified top-k (Proposition 6): `TopKDiv` with pluggable
/// relevance and distance. Relevance enters through the objective's
/// normalized term, so only count-monotone functions keep the approximation
/// guarantee; arbitrary `δ*d` metrics are supported directly.
pub fn generalized_top_k_diversified(
    g: &DiGraph,
    q: &Pattern,
    cfg: &DivConfig,
    dist: &dyn DistanceFn,
) -> crate::result::DivResult {
    crate::topk_div::top_k_diversified_with(g, q, cfg, dist)
}

/// Re-export for symmetry with the basic API.
pub use crate::topk_div::top_k_diversified_with;

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use gpm_ranking::relevance::{
        CommonNeighbors, JaccardCoefficient, PreferenceAttachment, RelevantSetSize,
    };

    fn fixture() -> (DiGraph, Pattern) {
        let g = graph_from_parts(
            &[0, 0, 0, 1, 1, 1],
            &[(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)],
        )
        .unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        (g, q)
    }

    #[test]
    fn early_and_full_agree_for_monotone_fns() {
        let (g, q) = fixture();
        let cfg = TopKConfig::new(2);
        for f in [
            &RelevantSetSize as &dyn RelevanceFn,
            &PreferenceAttachment,
            &CommonNeighbors,
            &JaccardCoefficient,
        ] {
            let fast = generalized_top_k(&g, &q, &cfg, f);
            let full = generalized_top_k_full(&g, &q, &cfg, f);
            let fast_scores: Vec<f64> = fast.matches.iter().map(|m| m.score).collect();
            let full_scores: Vec<f64> = full.matches.iter().map(|m| m.score).collect();
            assert_eq!(fast_scores.len(), full_scores.len(), "{}", f.name());
            for (a, b) in fast_scores.iter().zip(&full_scores) {
                assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", f.name());
            }
        }
    }

    #[test]
    fn preference_attachment_scales_delta_r() {
        let (g, q) = fixture();
        let cfg = TopKConfig::new(1);
        let pa = generalized_top_k(&g, &q, &cfg, &PreferenceAttachment);
        let rss = generalized_top_k(&g, &q, &cfg, &RelevantSetSize);
        // One reachable query node: PA = 1 · |R|.
        assert_eq!(pa.matches[0].node, rss.matches[0].node);
        assert!((pa.matches[0].score - rss.matches[0].score).abs() < 1e-9);
    }

    #[test]
    fn jaccard_coefficient_normalizes() {
        let (g, q) = fixture();
        let cfg = TopKConfig::new(3);
        let jc = generalized_top_k_full(&g, &q, &cfg, &JaccardCoefficient);
        for m in &jc.matches {
            assert!(m.score >= 0.0 && m.score <= 1.0);
        }
        // |M(Q,G,R(uo))| = 3 b-matches; top score = 3/3 = 1.
        assert!((jc.matches[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let r = generalized_top_k(&g, &q, &TopKConfig::new(2), &RelevantSetSize);
        assert!(r.matches.is_empty());
    }
}
