//! Upper bounds `h(uo, v) ≥ δr(uo, v)` for early termination.
//!
//! Proposition 3 terminates top-k search when the smallest confirmed lower
//! bound in `S` dominates the largest upper bound outside `S`; everything
//! hinges on cheap-but-tight `h` values. The paper sketches "an index
//! [that] records the numbers of descendants with a same label"; its worked
//! examples (7 and 8) use the tighter count of label-path-constrained
//! descendants. We implement three strategies (all *valid* upper bounds —
//! they differ only in tightness and cost) plus an adaptive default:
//!
//! * [`BoundStrategy::Global`] — one number for all candidates: the count of
//!   distinct candidate nodes of query nodes reachable from `uo`. Free, very
//!   loose.
//! * [`BoundStrategy::DescLabelCount`] — the paper's index: a saturating
//!   per-candidate-class dynamic program over `G_SCC` counting descendants
//!   per reachable query node, capped per class and by the global bound.
//! * [`BoundStrategy::ProductReach`] — exact strict-reachability counts in
//!   the candidate product graph; reproduces the `v.h` values of Examples
//!   7–8 (3/2/1/0 and 6/7/4). Tightest, costs one count-only
//!   set-reachability pass over the output cone (the pairs reachable from
//!   an output pair — strict reach from an output pair never leaves it).
//! * [`BoundStrategy::Auto`] — `ProductReach` when the product graph is
//!   small enough, else `DescLabelCount`.

use gpm_graph::{Condensation, DiGraph, NodeId};
use gpm_pattern::Pattern;
use gpm_simulation::{CandidateSpace, MatchGraph};

use crate::reach_sets::{ReachConfig, ReachEngine};

/// Bound-index selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundStrategy {
    /// Σ-of-candidates constant bound.
    Global,
    /// Saturating descendant-count DP over `G_SCC` (the paper's index).
    DescLabelCount,
    /// Exact candidate-product-graph reachability counts.
    ProductReach,
    /// `ProductReach` if affordable, else `DescLabelCount`.
    #[default]
    Auto,
}

/// Tuning for bound computation.
#[derive(Debug, Clone)]
pub struct BoundConfig {
    /// Policy for the `ProductReach` set-reachability pass.
    pub reach: ReachConfig,
    /// `Auto` uses `ProductReach` only when the candidate pair count is at
    /// most this.
    pub auto_pair_limit: usize,
}

impl Default for BoundConfig {
    fn default() -> Self {
        BoundConfig { reach: ReachConfig::default(), auto_pair_limit: 2_000_000 }
    }
}

/// Upper bounds for the candidates of the output node, aligned with
/// `space.candidates(q.output())`.
#[derive(Debug, Clone)]
pub struct OutputBounds {
    h: Vec<u64>,
    used: BoundStrategy,
}

impl OutputBounds {
    /// Bound of the `i`-th output candidate.
    #[inline]
    pub fn h_at(&self, i: usize) -> u64 {
        self.h[i]
    }

    /// All bounds.
    pub fn as_slice(&self) -> &[u64] {
        &self.h
    }

    /// Which strategy actually ran (relevant for `Auto`).
    pub fn strategy_used(&self) -> BoundStrategy {
        self.used
    }

    /// Bound for a candidate node id.
    pub fn h_of(&self, space: &CandidateSpace, q: &Pattern, v: NodeId) -> Option<u64> {
        let base = space.pair_at(q.output(), 0);
        space.pair_id(q.output(), v).map(|p| self.h[(p - base) as usize])
    }
}

/// Computes upper bounds for every output-node candidate.
pub fn output_upper_bounds(
    g: &DiGraph,
    q: &Pattern,
    space: &CandidateSpace,
    strategy: BoundStrategy,
    cfg: &BoundConfig,
) -> OutputBounds {
    bounds_impl(g, q, space, None, strategy, cfg)
}

/// [`output_upper_bounds`] for a caller that already holds the output cone
/// ([`MatchGraph::over_output_cone`]) — the propagation engine, which runs
/// its waves on the same graph. `ProductReach` reads it instead of
/// building its own; the values are identical either way.
pub fn output_upper_bounds_on_cone(
    g: &DiGraph,
    q: &Pattern,
    space: &CandidateSpace,
    cone: &MatchGraph,
    strategy: BoundStrategy,
    cfg: &BoundConfig,
) -> OutputBounds {
    bounds_impl(g, q, space, Some(cone), strategy, cfg)
}

fn bounds_impl(
    g: &DiGraph,
    q: &Pattern,
    space: &CandidateSpace,
    cone: Option<&MatchGraph>,
    strategy: BoundStrategy,
    cfg: &BoundConfig,
) -> OutputBounds {
    let used = match strategy {
        BoundStrategy::Auto if space.pair_count() <= cfg.auto_pair_limit => {
            BoundStrategy::ProductReach
        }
        BoundStrategy::Auto => BoundStrategy::DescLabelCount,
        fixed => fixed,
    };
    let h = match used {
        BoundStrategy::Global => {
            vec![global_bound(g, q, space); space.candidate_count(q.output())]
        }
        BoundStrategy::DescLabelCount => desc_count_bounds(g, q, space),
        BoundStrategy::ProductReach | BoundStrategy::Auto => match cone {
            Some(pg) => product_reach_bounds(q, space, pg, &cfg.reach),
            None => product_reach_bounds(
                q,
                space,
                &MatchGraph::over_output_cone(g, q, space),
                &cfg.reach,
            ),
        },
    };
    OutputBounds { h, used }
}

/// Bitmask of query nodes strictly reachable from `uo` in `Q`.
fn reachable_mask(q: &Pattern) -> u64 {
    let reach = q.reachable_from_output();
    let mut mask = 0u64;
    for u in reach.iter() {
        mask |= 1u64 << u;
    }
    mask
}

/// Count of distinct candidate data nodes of reachable query nodes — the
/// universal upper bound every strategy caps at.
fn global_bound(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> u64 {
    let mask = reachable_mask(q);
    if mask == 0 {
        return 0;
    }
    g.nodes().filter(|&v| space.mask_of(v) & mask != 0).count() as u64
}

/// The paper's descendant-count index: for every candidate `v` of `uo`, sum
/// over reachable query nodes `u'` a saturating DP estimate of
/// `|strict-descendants(v) ∩ can(u')|`, capped per class and globally.
fn desc_count_bounds(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> Vec<u64> {
    let mask = reachable_mask(q);
    let classes: Vec<u32> =
        (0..q.node_count() as u32).filter(|&u| mask & (1u64 << u) != 0).collect();
    let out_cands = space.candidates(q.output());
    let gb = global_bound(g, q, space);
    if classes.is_empty() {
        return vec![0; out_cands.len()];
    }
    let caps: Vec<u32> = classes.iter().map(|&u| space.candidate_count(u) as u32).collect();

    let cond = Condensation::compute(g);
    let nc = cond.component_count();
    let k = classes.len();
    // full[c*k + j] = saturating count of candidates of class j in or below
    // component c.
    let mut full = vec![0u32; nc * k];
    for c in cond.reverse_topological() {
        let base = c as usize * k;
        for &sc in cond.comp_successors(c) {
            let sbase = sc as usize * k;
            for j in 0..k {
                full[base + j] = full[base + j].saturating_add(full[sbase + j]).min(caps[j]);
            }
        }
        for &v in cond.members(c) {
            let m = space.mask_of(v);
            if m == 0 {
                continue;
            }
            for (j, &u) in classes.iter().enumerate() {
                if m & (1u64 << u) != 0 {
                    full[base + j] = full[base + j].saturating_add(1).min(caps[j]);
                }
            }
        }
    }

    out_cands
        .iter()
        .map(|&v| {
            let c = cond.component_of(v);
            let base = c as usize * k;
            let total: u64 = if cond.is_nontrivial(c) {
                (0..k).map(|j| full[base + j] as u64).sum()
            } else {
                // Trivial component: strict descendants exclude v itself.
                let mut acc = vec![0u32; k];
                for &sc in cond.comp_successors(c) {
                    let sbase = sc as usize * k;
                    for j in 0..k {
                        acc[j] = acc[j].saturating_add(full[sbase + j]).min(caps[j]);
                    }
                }
                acc.iter().map(|&x| x as u64).sum()
            };
            total.min(gb)
        })
        .collect()
}

/// Exact strict-reachability counts of the output pairs. Strict reach from
/// an output pair never leaves the output cone, so counting over `cone`
/// (and its narrower universe) gives the candidate-product-graph values.
fn product_reach_bounds(
    q: &Pattern,
    space: &CandidateSpace,
    cone: &MatchGraph,
    reach: &ReachConfig,
) -> Vec<u64> {
    let uo = q.output();
    let sources: Vec<u32> = (0..space.candidate_count(uo))
        .map(|i| cone.compact_of(space.pair_at(uo, i)).expect("output pairs root the cone"))
        .collect();
    ReachEngine::prepare(cone, sources, reach).counts(reach.threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relevant_set::RelevantSets;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use gpm_simulation::compute_simulation;

    fn check_valid_bounds(
        g: &DiGraph,
        q: &Pattern,
        strategy: BoundStrategy,
    ) -> (Vec<u64>, Vec<Option<u64>>) {
        let sim = compute_simulation(g, q);
        let space = sim.space();
        let bounds = output_upper_bounds(g, q, space, strategy, &BoundConfig::default());
        let rs = RelevantSets::compute(g, q, &sim);
        let deltas: Vec<Option<u64>> =
            space.candidates(q.output()).iter().map(|&v| rs.relevance_of(v)).collect();
        for (i, d) in deltas.iter().enumerate() {
            if let Some(d) = d {
                assert!(
                    bounds.h_at(i) >= *d,
                    "{strategy:?}: h({i}) = {} < δr = {d}",
                    bounds.h_at(i)
                );
            }
        }
        (bounds.as_slice().to_vec(), deltas)
    }

    #[test]
    fn all_strategies_are_valid_upper_bounds() {
        // Mixed cyclic graph with shared descendants.
        let g = graph_from_parts(
            &[0, 1, 2, 1, 2, 0],
            &[(0, 1), (1, 2), (0, 3), (3, 2), (3, 4), (5, 3), (4, 3)],
        )
        .unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        for s in [
            BoundStrategy::Global,
            BoundStrategy::DescLabelCount,
            BoundStrategy::ProductReach,
            BoundStrategy::Auto,
        ] {
            check_valid_bounds(&g, &q, s);
        }
    }

    #[test]
    fn tightness_ordering() {
        // ProductReach ≤ DescLabelCount ≤ Global, candidate-wise, on a DAG
        // with diamonds (where the DP overcounts).
        let g =
            graph_from_parts(&[0, 1, 1, 2, 2], &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
                .unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let space = sim.space();
        let cfg = BoundConfig::default();
        let pr = output_upper_bounds(&g, &q, space, BoundStrategy::ProductReach, &cfg);
        let dc = output_upper_bounds(&g, &q, space, BoundStrategy::DescLabelCount, &cfg);
        let gl = output_upper_bounds(&g, &q, space, BoundStrategy::Global, &cfg);
        for i in 0..space.candidate_count(q.output()) {
            assert!(pr.h_at(i) <= dc.h_at(i));
            assert!(dc.h_at(i) <= gl.h_at(i));
        }
        // ProductReach is exact here: node 0 reaches {1,2,3,4}.
        assert_eq!(pr.h_at(0), 4);
    }

    #[test]
    fn auto_picks_product_reach_on_small_input() {
        let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let b =
            output_upper_bounds(&g, &q, sim.space(), BoundStrategy::Auto, &BoundConfig::default());
        assert_eq!(b.strategy_used(), BoundStrategy::ProductReach);
        let small = BoundConfig { auto_pair_limit: 0, ..BoundConfig::default() };
        let b2 = output_upper_bounds(&g, &q, sim.space(), BoundStrategy::Auto, &small);
        assert_eq!(b2.strategy_used(), BoundStrategy::DescLabelCount);
    }

    #[test]
    fn single_node_pattern_bounds_are_zero() {
        let g = graph_from_parts(&[0, 0], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0], &[], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        for s in [BoundStrategy::Global, BoundStrategy::DescLabelCount, BoundStrategy::ProductReach]
        {
            let b = output_upper_bounds(&g, &q, sim.space(), s, &BoundConfig::default());
            assert_eq!(b.as_slice(), &[0, 0], "{s:?}: no reachable query nodes");
        }
    }

    #[test]
    fn h_of_lookup() {
        let g = graph_from_parts(&[0, 1, 0], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let b = output_upper_bounds(
            &g,
            &q,
            sim.space(),
            BoundStrategy::ProductReach,
            &BoundConfig::default(),
        );
        assert_eq!(b.h_of(sim.space(), &q, 0), Some(1));
        assert_eq!(b.h_of(sim.space(), &q, 2), Some(0), "candidate without children");
        assert_eq!(b.h_of(sim.space(), &q, 1), None, "not an output candidate");
    }
}
