//! Upper bounds `h(uo, v) ≥ δr(uo, v)` for early termination.
//!
//! Proposition 3 terminates top-k search when the smallest confirmed lower
//! bound in `S` dominates the largest upper bound outside `S`; everything
//! hinges on tight `h` values. The paper sketches an index of same-label
//! descendant counts, but its worked examples (7 and 8) use the tighter
//! count of label-path-constrained descendants, and so does this module:
//! `h(uo, v)` is the number of distinct data nodes strictly reachable from
//! the pair `(uo, v)` in the candidate product graph — the `v.h` values of
//! Examples 7–8. Strict reach from an output pair never leaves the output
//! cone (the pairs reachable from an output pair), so one count-only pass
//! of the [`ReachEngine`] over the cone computes every bound.

use gpm_graph::DiGraph;
use gpm_pattern::Pattern;
use gpm_simulation::{CandidateSpace, MatchGraph};

use crate::reach_sets::{ReachConfig, ReachEngine};

/// The one bound there is. Kept only because the frozen `benchmark/`
/// passes `TopKConfig::bounds` to [`output_upper_bounds`]
/// (`benchmark/src/workloads/layer_twins.rs`); the next revision of
/// `benchmark/` deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundStrategy {
    /// Exact strict-reachability counts over the output cone.
    #[default]
    ProductReach,
}

/// Carries nothing. Kept only because the frozen `benchmark/` passes
/// `TopKConfig::bound_config` to [`output_upper_bounds`]
/// (`benchmark/src/workloads/layer_twins.rs`); the next revision of
/// `benchmark/` deletes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundConfig;

/// Upper bounds for every output-node candidate, aligned with
/// `space.candidates(q.output())`, under the default [`ReachConfig`].
/// The last two arguments are ignored: the five-argument signature is kept
/// for the frozen `benchmark/` (`benchmark/src/workloads/layer_twins.rs`)
/// until the next revision of `benchmark/`.
pub fn output_upper_bounds(
    g: &DiGraph,
    q: &Pattern,
    space: &CandidateSpace,
    _strategy: BoundStrategy,
    _cfg: &BoundConfig,
) -> Vec<u64> {
    let cone = MatchGraph::over_output_cone(g, q, space);
    output_upper_bounds_on_cone(q, space, &cone, &ReachConfig::default())
}

/// [`output_upper_bounds`] for a caller that already holds the output cone
/// ([`MatchGraph::over_output_cone`]) — the propagation engine, which runs
/// its waves on the same graph.
pub fn output_upper_bounds_on_cone(
    q: &Pattern,
    space: &CandidateSpace,
    cone: &MatchGraph,
    reach: &ReachConfig,
) -> Vec<u64> {
    let uo = q.output();
    let sources = (0..space.candidate_count(uo))
        .map(|i| cone.compact_of(space.pair_at(uo, i)).expect("output pairs root the cone"))
        .collect();
    ReachEngine::prepare(cone, sources, reach).counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relevant_set::RelevantSets;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use gpm_simulation::compute_simulation;

    fn bounds(g: &DiGraph, q: &Pattern) -> Vec<u64> {
        let sim = compute_simulation(g, q);
        output_upper_bounds(g, q, sim.space(), BoundStrategy::default(), &BoundConfig)
    }

    #[test]
    fn bounds_are_valid_upper_bounds() {
        // Mixed cyclic graph with shared descendants.
        let g = graph_from_parts(
            &[0, 1, 2, 1, 2, 0],
            &[(0, 1), (1, 2), (0, 3), (3, 2), (3, 4), (5, 3), (4, 3)],
        )
        .unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        let h = bounds(&g, &q);
        for (i, &v) in sim.space().candidates(q.output()).iter().enumerate() {
            if let Some(d) = rs.relevance_of(v) {
                assert!(h[i] >= d, "h({i}) = {} < δr = {d}", h[i]);
            }
        }
    }

    #[test]
    fn bounds_count_distinct_reachable_nodes() {
        // A DAG with diamonds: node 0 reaches {1, 2, 3, 4}, each once.
        let g =
            graph_from_parts(&[0, 1, 1, 2, 2], &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
                .unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        assert_eq!(bounds(&g, &q), vec![4]);
    }

    #[test]
    fn single_node_pattern_bounds_are_zero() {
        let g = graph_from_parts(&[0, 0], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0], &[], 0).unwrap();
        assert_eq!(bounds(&g, &q), vec![0, 0], "no reachable query nodes");
    }
}
