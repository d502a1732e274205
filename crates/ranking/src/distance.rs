//! Distance (diversity) functions `δd` and the generalized `δ*d`.
//!
//! The paper's default (Section 3.2) is the Jaccard distance of relevant
//! sets — a metric (symmetry + triangle inequality), which the MAXDISP-based
//! 2-approximation of `TopKDiv` relies on. Section 3.4 adds:
//!
//! * neighbourhood diversity: `1 - |R*(u,v1) ∩ R*(u,v2)| / |V|`;
//! * distance-based diversity: `1 - 1/d(v1,v2)` with `d` the hop distance
//!   (`1` when disconnected).

use gpm_graph::{BitSet, DiGraph, NodeId};

/// What a distance function may look at for one match.
#[derive(Debug, Clone, Copy)]
pub struct MatchInfo<'a> {
    /// The match's data node.
    pub node: NodeId,
    /// Its relevant set, over the same universe as every other match's set
    /// (a match graph's universe, or data-node ids).
    pub r_set: &'a BitSet,
}

/// A generalized distance function `δ*d` over two matches of `uo`.
pub trait DistanceFn: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// The distance in `[0, 1]`.
    fn distance(&self, a: &MatchInfo<'_>, b: &MatchInfo<'_>) -> f64;
}

/// The paper's `δd`: `1 - |R1 ∩ R2| / |R1 ∪ R2|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JaccardDistance;

impl DistanceFn for JaccardDistance {
    fn name(&self) -> &'static str {
        "jaccard"
    }
    fn distance(&self, a: &MatchInfo<'_>, b: &MatchInfo<'_>) -> f64 {
        a.r_set.jaccard_distance(b.r_set)
    }
}

/// Neighbourhood diversity `1 - |R1 ∩ R2| / |V|` (Li & Yu, ICDM'11).
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodDiversity {
    /// `|V|` of the data graph.
    pub node_count: usize,
}

impl DistanceFn for NeighborhoodDiversity {
    fn name(&self) -> &'static str {
        "neighborhood-diversity"
    }
    fn distance(&self, a: &MatchInfo<'_>, b: &MatchInfo<'_>) -> f64 {
        if self.node_count == 0 {
            return 1.0;
        }
        1.0 - a.r_set.intersection_count(b.r_set) as f64 / self.node_count as f64
    }
}

/// Distance-based diversity `1 - 1/d(v1,v2)` (Vieira et al., CIKM'07);
/// `1` when `d = ∞`, `0` when `v1 = v2`. Hop distances are symmetrized as
/// `min(d(a,b), d(b,a))` so the result is a symmetric dissimilarity.
pub struct DistanceBasedDiversity<'g> {
    g: &'g DiGraph,
}

impl<'g> DistanceBasedDiversity<'g> {
    /// Builds over a data graph (BFS per evaluation; intended for small
    /// match sets or the generalized-function demos).
    pub fn new(g: &'g DiGraph) -> Self {
        DistanceBasedDiversity { g }
    }
}

impl DistanceFn for DistanceBasedDiversity<'_> {
    fn name(&self) -> &'static str {
        "distance-based"
    }
    fn distance(&self, a: &MatchInfo<'_>, b: &MatchInfo<'_>) -> f64 {
        if a.node == b.node {
            return 0.0;
        }
        let d1 = gpm_graph::reach::hop_distance(self.g, a.node, b.node);
        let d2 = gpm_graph::reach::hop_distance(self.g, b.node, a.node);
        match (d1, d2) {
            (None, None) => 1.0,
            (Some(d), None) | (None, Some(d)) => 1.0 - 1.0 / d as f64,
            (Some(x), Some(y)) => 1.0 - 1.0 / x.min(y) as f64,
        }
    }
}

/// Checks the metric axioms of a distance function over a set of matches —
/// used by property tests (the 2-approximation requires a metric).
pub fn satisfies_metric_axioms(f: &dyn DistanceFn, infos: &[MatchInfo<'_>]) -> bool {
    let n = infos.len();
    let eps = 1e-9;
    for i in 0..n {
        if f.distance(&infos[i], &infos[i]).abs() > eps {
            return false;
        }
        for j in 0..n {
            let dij = f.distance(&infos[i], &infos[j]);
            let dji = f.distance(&infos[j], &infos[i]);
            if (dij - dji).abs() > eps {
                return false;
            }
            for l in 0..n {
                let dil = f.distance(&infos[i], &infos[l]);
                let dlj = f.distance(&infos[l], &infos[j]);
                if dij > dil + dlj + eps {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_is_metric_on_samples() {
        let sets = [
            BitSet::from_iter(12, [0, 1, 2, 3]),
            BitSet::from_iter(12, [3, 4, 5, 6, 7, 8, 9, 10]),
            BitSet::from_iter(12, [4, 5, 6, 7, 8, 11]),
            BitSet::new(12),
            BitSet::from_iter(12, [0, 1, 2, 3]),
        ];
        let infos: Vec<MatchInfo<'_>> =
            sets.iter().enumerate().map(|(i, s)| MatchInfo { node: i as u32, r_set: s }).collect();
        assert!(satisfies_metric_axioms(&JaccardDistance, &infos));
    }

    #[test]
    fn neighborhood_diversity_range() {
        let a = BitSet::from_iter(8, [0, 1, 2]);
        let b = BitSet::from_iter(8, [1, 2, 3]);
        let f = NeighborhoodDiversity { node_count: 8 };
        let d = f.distance(&MatchInfo { node: 0, r_set: &a }, &MatchInfo { node: 1, r_set: &b });
        assert!((d - (1.0 - 2.0 / 8.0)).abs() < 1e-12);
        let z = NeighborhoodDiversity { node_count: 0 };
        assert_eq!(
            z.distance(&MatchInfo { node: 0, r_set: &a }, &MatchInfo { node: 1, r_set: &b }),
            1.0
        );
    }

    #[test]
    fn distance_based_diversity() {
        use gpm_graph::builder::graph_from_parts;
        // 0→1→2, 3 isolated.
        let g = graph_from_parts(&[0; 4], &[(0, 1), (1, 2)]).unwrap();
        let empty = BitSet::new(1);
        let mi = |n: u32| MatchInfo { node: n, r_set: &empty };
        let f = DistanceBasedDiversity::new(&g);
        assert_eq!(f.distance(&mi(0), &mi(0)), 0.0);
        assert_eq!(f.distance(&mi(0), &mi(1)), 0.0, "adjacent: 1 - 1/1");
        assert!((f.distance(&mi(0), &mi(2)) - 0.5).abs() < 1e-12, "two hops");
        assert_eq!(f.distance(&mi(0), &mi(3)), 1.0, "disconnected");
        assert_eq!(f.distance(&mi(2), &mi(0)), 0.5, "symmetrized");
    }
}
