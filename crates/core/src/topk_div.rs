//! `TopKDiv` — the 2-approximation for diversified top-k matching
//! (Section 5.1, Theorem 5(2)).
//!
//! topKDP is NP-complete (Theorem 5(1); with `λ = 1` it contains the
//! K-diverse-set problem), and `F` is not submodular, so the `(1-1/e)`
//! schemes do not apply. `TopKDiv` instead reduces to Maximum Dispersion
//! (MAXDISP): build the complete graph over `Mu(Q,G,uo)` with node weights
//! `δ'r` and edge weights `δd`, then greedily pick `⌊k/2⌋` disjoint pairs
//! maximizing
//!
//! ```text
//! F'(v1,v2) = (1-λ)/(k-1) · (δ'r(v1) + δ'r(v2)) + 2λ/(k-1) · δd(v1,v2)
//! ```
//!
//! (one more greedy single pick if `k` is odd). Because `δd` is a metric,
//! the Hassin–Rubinstein–Tamir argument gives `F(S) ≥ F(S*)/2`.
//!
//! The greedy scores every pair once — `n(n−1)/2` calls of `δd` — and
//! keeps each match's best later partner; after a pick it rescans only the
//! rows whose best partner was just taken, so later rounds cost a few rows
//! instead of another `n(n−1)/2` scan. The selection, ties included, is
//! the full scan's: the first maximum in pair scan order.
//!
//! The module also ships an exponential exact solver used by tests to
//! verify the approximation guarantee on small instances.

use std::time::Instant;

use gpm_graph::DiGraph;
use gpm_pattern::Pattern;
use gpm_ranking::distance::{DistanceFn, JaccardDistance, MatchInfo};
use gpm_ranking::objective::Objective;

use crate::config::DivConfig;
use crate::match_all::compute_match_outcome;
use crate::result::{DivResult, RankedMatch, RunStats};

/// `TopKDiv` with the paper's default distance (`δd` = Jaccard of relevant
/// sets).
pub fn top_k_diversified(g: &DiGraph, q: &Pattern, cfg: &DivConfig) -> DivResult {
    top_k_diversified_with(g, q, cfg, &JaccardDistance)
}

/// `TopKDiv` with a pluggable generalized distance `δ*d` (Proposition 6).
pub fn top_k_diversified_with(
    g: &DiGraph,
    q: &Pattern,
    cfg: &DivConfig,
    dist: &dyn DistanceFn,
) -> DivResult {
    let t0 = Instant::now();
    let outcome = compute_match_outcome(g, q, &cfg.topk.reach);
    let rs = &outcome.relevant;
    let n = rs.len();
    let k = cfg.topk.k;
    let objective = Objective::for_pattern(cfg.lambda, k, q, outcome.sim.space());

    let info = |i: usize| MatchInfo { node: rs.matches()[i], r_set: rs.set(i) };
    let d = |i: usize, j: usize| dist.distance(&info(i), &info(j));
    let rel: Vec<f64> = (0..n).map(|i| rs.relevance(i) as f64).collect();

    let (selected, f_value) = greedy_diversified(&objective, &rel, &d);
    let matches: Vec<RankedMatch> = selected
        .iter()
        .map(|&i| RankedMatch { node: rs.matches()[i], relevance: rs.relevance(i) })
        .collect();
    DivResult {
        matches,
        f_value,
        stats: RunStats {
            output_candidates: outcome.sim.space().candidate_count(q.output()),
            inspected_matches: n,
            total_matches: Some(n),
            waves: 1,
            early_terminated: false,
            elapsed: t0.elapsed(),
            ..Default::default()
        },
    }
}

/// The `TopKDiv` greedy itself, decoupled from where the relevance values
/// and distances come from: `rel[i]` is the raw `δr` of the `i`-th match
/// and `d(i, j)` its pairwise `δd`. Returns the selected indices (pairs in
/// pick order) and `F(S)`. The static pipeline and the incremental
/// `PatternRegistry` (gpm-incremental) both call this, so a maintained
/// state and a from-scratch run produce identical selections — ties
/// included.
///
/// Each round picks the first maximum of `F'` in `(a, b)` scan order over
/// the remaining matches. Instead of rescanning every pair per round, each
/// remaining row `a` keeps its best later partner `b` (first maximum in
/// its row); a round takes the first row holding the overall maximum —
/// the same pair — and rescans only the rows whose partner it just took.
/// Extra memory is `O(n)`. `d` must not return NaN: a NaN compares
/// unequal to everything, and the row bests would then disagree with a
/// full scan.
pub fn greedy_diversified(
    objective: &Objective,
    rel: &[f64],
    d: &impl Fn(usize, usize) -> f64,
) -> (Vec<usize>, f64) {
    let n = rel.len();
    let k = objective.k;
    let mut taken = vec![false; n];
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    // `row_best[a]`: the first maximum `(F', b)` over untaken `b > a`.
    let row_scan = |a: usize, taken: &[bool]| -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for b in (a + 1..n).filter(|&b| !taken[b]) {
            let dist = d(a, b);
            debug_assert!(!dist.is_nan(), "δd({a}, {b}) is NaN");
            let score = objective.f_pair(rel[a], rel[b], dist);
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, b));
            }
        }
        best
    };
    let mut row_best: Vec<Option<(f64, usize)>> =
        if k >= 2 { (0..n).map(|a| row_scan(a, &taken)).collect() } else { Vec::new() };
    // Greedy pair selection.
    while selected.len() + 2 <= k && n - selected.len() >= 2 {
        let mut best: Option<(f64, usize, usize)> = None;
        for (a, row) in row_best.iter().enumerate() {
            if let Some((score, b)) = *row {
                if !taken[a] && best.is_none_or(|(s, _, _)| score > s) {
                    best = Some((score, a, b));
                }
            }
        }
        let Some((_, i, j)) = best else { break };
        taken[i] = true;
        taken[j] = true;
        selected.push(i);
        selected.push(j);
        for a in 0..n {
            if !taken[a] && row_best[a].is_some_and(|(_, b)| b == i || b == j) {
                row_best[a] = row_scan(a, &taken);
            }
        }
    }
    let mut remaining: Vec<usize> = (0..n).filter(|&i| !taken[i]).collect();
    // Odd k (or leftovers): greedily add the single best marginal match.
    while selected.len() < k && !remaining.is_empty() {
        let mut best: Option<(f64, usize)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let mut with: Vec<usize> = selected.clone();
            with.push(i);
            let f = f_of(objective, &with, rel, d);
            if best.is_none_or(|(s, _)| f > s) {
                best = Some((f, pos));
            }
        }
        let Some((_, pos)) = best else { break };
        selected.push(remaining.remove(pos));
    }
    let f_value = f_of(objective, &selected, rel, d);
    (selected, f_value)
}

/// Exact topKDP by exhaustive enumeration — exponential, test/verification
/// use only.
pub fn optimal_diversified(g: &DiGraph, q: &Pattern, cfg: &DivConfig) -> DivResult {
    let t0 = Instant::now();
    let outcome = compute_match_outcome(g, q, &cfg.topk.reach);
    let rs = &outcome.relevant;
    let n = rs.len();
    let k = cfg.topk.k.min(n);
    let objective = Objective::for_pattern(cfg.lambda, cfg.topk.k, q, outcome.sim.space());
    let rel: Vec<f64> = (0..n).map(|i| rs.relevance(i) as f64).collect();
    let dist = JaccardDistance;
    let info = |i: usize| MatchInfo { node: rs.matches()[i], r_set: rs.set(i) };
    let d = |i: usize, j: usize| dist.distance(&info(i), &info(j));

    let mut best: Option<(f64, Vec<usize>)> = None;
    if k > 0 && n >= k {
        let mut comb: Vec<usize> = (0..k).collect();
        loop {
            let f = f_of(&objective, &comb, &rel, &d);
            if best.as_ref().is_none_or(|(s, _)| f > *s) {
                best = Some((f, comb.clone()));
            }
            if !next_combination(&mut comb, n) {
                break;
            }
        }
    }

    let (f_value, selected) = best.unwrap_or((0.0, Vec::new()));
    let matches = selected
        .iter()
        .map(|&i| RankedMatch { node: rs.matches()[i], relevance: rs.relevance(i) })
        .collect();
    DivResult {
        matches,
        f_value,
        stats: RunStats {
            inspected_matches: n,
            total_matches: Some(n),
            elapsed: t0.elapsed(),
            ..Default::default()
        },
    }
}

/// Advances `comb` to the next k-combination of `0..n`; `false` when done.
fn next_combination(comb: &mut [usize], n: usize) -> bool {
    let k = comb.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if comb[i] < n - k + i {
            comb[i] += 1;
            for j in (i + 1)..k {
                comb[j] = comb[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

fn f_of(obj: &Objective, set: &[usize], rel: &[f64], d: &impl Fn(usize, usize) -> f64) -> f64 {
    let rels: Vec<f64> = set.iter().map(|&i| rel[i]).collect();
    obj.f_score(&rels, |a, b| d(set[a], set[b]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DivConfig;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Star-ish fixture with overlapping reaches so diversity matters.
    fn fixture() -> (gpm_graph::DiGraph, gpm_pattern::Pattern) {
        // a-roots: 0 → {b3, b4}; 1 → {b4, b5}; 2 → {b6}.
        let g = graph_from_parts(&[0, 0, 0, 1, 1, 1, 1], &[(0, 3), (0, 4), (1, 4), (1, 5), (2, 6)])
            .unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        (g, q)
    }

    #[test]
    fn lambda_zero_equals_pure_relevance() {
        let (g, q) = fixture();
        let r = top_k_diversified(&g, &q, &DivConfig::new(2, 0.0));
        // Pure relevance: both two-reach roots (0 and 1).
        let mut nodes = r.nodes();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1]);
    }

    #[test]
    fn lambda_one_prefers_disjoint_sets() {
        let (g, q) = fixture();
        let r = top_k_diversified(&g, &q, &DivConfig::new(2, 1.0));
        // Node 2's reach {6} is disjoint from both others; a diverse pair
        // must include it.
        assert!(r.nodes().contains(&2), "got {:?}", r.nodes());
        assert!(r.f_value > 0.0);
    }

    #[test]
    fn approximation_guarantee_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..25 {
            let n = rng.random_range(4..14usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
            let m = rng.random_range(n..n * 3);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|(a, b)| a != b)
                .collect();
            let g = graph_from_parts(&labels, &edges).unwrap();
            let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
            for lambda in [0.0, 0.3, 0.7, 1.0] {
                let cfg = DivConfig::new(3, lambda);
                let approx = top_k_diversified(&g, &q, &cfg);
                let opt = optimal_diversified(&g, &q, &cfg);
                assert!(
                    approx.f_value * 2.0 >= opt.f_value - 1e-9,
                    "trial {trial} λ={lambda}: approx {} < opt {} / 2",
                    approx.f_value,
                    opt.f_value
                );
                assert!(opt.f_value >= approx.f_value - 1e-9, "optimal dominates");
            }
        }
    }

    #[test]
    fn odd_k_and_small_sets() {
        let (g, q) = fixture();
        let r = top_k_diversified(&g, &q, &DivConfig::new(3, 0.5));
        assert_eq!(r.matches.len(), 3);
        let r1 = top_k_diversified(&g, &q, &DivConfig::new(1, 0.5));
        assert_eq!(r1.matches.len(), 1);
        // k > |Mu| returns everything.
        let rbig = top_k_diversified(&g, &q, &DivConfig::new(10, 0.5));
        assert_eq!(rbig.matches.len(), 3);
    }

    #[test]
    fn k_zero_selects_nothing() {
        // The greedy reads its target size from `Objective`, which used to
        // clamp k to 1: `top_k_diversified` answered k = 0 with one match.
        let (g, q) = fixture();
        let cfg = DivConfig::new(0, 0.5);
        for r in [top_k_diversified(&g, &q, &cfg), optimal_diversified(&g, &q, &cfg)] {
            assert!(r.matches.is_empty(), "k = 0 answered {:?}", r.nodes());
            assert_eq!(r.f_value, 0.0);
        }
    }

    /// The greedy before row bests: every round rescans every remaining
    /// pair and keeps the first maximum — the reference the row-best
    /// greedy must reproduce exactly.
    fn greedy_full_scan(
        objective: &Objective,
        rel: &[f64],
        d: &impl Fn(usize, usize) -> f64,
    ) -> (Vec<usize>, f64) {
        let k = objective.k;
        let mut remaining: Vec<usize> = (0..rel.len()).collect();
        let mut selected: Vec<usize> = Vec::with_capacity(k);
        while selected.len() + 2 <= k && remaining.len() >= 2 {
            let mut best: Option<(f64, usize, usize)> = None;
            for a in 0..remaining.len() {
                for b in (a + 1)..remaining.len() {
                    let (i, j) = (remaining[a], remaining[b]);
                    let score = objective.f_pair(rel[i], rel[j], d(i, j));
                    if best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, a, b));
                    }
                }
            }
            let Some((_, a, b)) = best else { break };
            let j = remaining.remove(b);
            let i = remaining.remove(a);
            selected.push(i);
            selected.push(j);
        }
        while selected.len() < k && !remaining.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for (pos, &i) in remaining.iter().enumerate() {
                let mut with: Vec<usize> = selected.clone();
                with.push(i);
                let f = f_of(objective, &with, rel, d);
                if best.is_none_or(|(s, _)| f > s) {
                    best = Some((f, pos));
                }
            }
            let Some((_, pos)) = best else { break };
            selected.push(remaining.remove(pos));
        }
        let f_value = f_of(objective, &selected, rel, d);
        (selected, f_value)
    }

    /// Row-best greedy ≡ full-scan greedy, ties included: relevances and
    /// distances are drawn from a handful of values so equal scores are
    /// the norm, and most instances run several pair rounds.
    #[test]
    fn row_best_greedy_equals_full_scan() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut multi_round = 0usize;
        for trial in 0..20_000 {
            let n = rng.random_range(0..40usize);
            let k = rng.random_range(0..14usize);
            let lambda = [0.0, 0.25, 0.5, 1.0][rng.random_range(0..4usize)];
            let rel: Vec<f64> = (0..n).map(|_| rng.random_range(0..5u32) as f64).collect();
            let mut dist = vec![0.0; n * n];
            for i in 0..n {
                for j in i + 1..n {
                    let v = rng.random_range(0..5u32) as f64 / 4.0;
                    dist[i * n + j] = v;
                    dist[j * n + i] = v;
                }
            }
            let d = |i: usize, j: usize| dist[i * n + j];
            let objective = Objective::new(lambda, k, rng.random_range(1..20u64));
            let (want, want_f) = greedy_full_scan(&objective, &rel, &d);
            let (got, got_f) = greedy_diversified(&objective, &rel, &d);
            assert_eq!(got, want, "trial {trial}: n={n} k={k} λ={lambda}");
            assert_eq!(got_f.to_bits(), want_f.to_bits(), "trial {trial}");
            multi_round += usize::from(k.min(n) >= 4);
        }
        assert!(multi_round > 1_000, "only {multi_round} instances ran ≥ 2 rounds");
    }

    /// Seeded instances for [`top_k_diversified_is_pinned`]: 60 nodes,
    /// 240 random edges, a two-node pattern on odd seeds and a three-node
    /// chain on even ones.
    fn pin_instance(seed: u64) -> (gpm_graph::DiGraph, gpm_pattern::Pattern) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60usize;
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
        let edges: Vec<(u32, u32)> = (0..n * 4)
            .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = if seed % 2 == 1 {
            label_pattern(&[0, 1], &[(0, 1)], 0).unwrap()
        } else {
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap()
        };
        (g, q)
    }

    /// Selections and `F` bits taken from the full-scan greedy (commit
    /// 172f125): a changed tie-break or summation order fails here rather
    /// than only in the benchmark's `dh_f_ratio`.
    #[test]
    fn top_k_diversified_is_pinned() {
        #[rustfmt::skip]
        let pins: [(u64, usize, f64, &[u32], u64); 24] = [
            (1, 2, 0.0, &[20, 28], 0x3fd2492492492492),
            (1, 2, 0.5, &[8, 20], 0x3ff1e79e79e79e7a),
            (1, 2, 1.0, &[8, 20], 0x4000000000000000),
            (1, 3, 0.0, &[20, 28, 8], 0x3fd8618618618618),
            (1, 3, 0.5, &[8, 20, 23], 0x3ffaaaaaaaaaaaab),
            (1, 3, 1.0, &[8, 20, 23], 0x4008000000000000),
            (1, 5, 0.0, &[20, 28, 8, 21, 23], 0x3fe2492492492492),
            (1, 5, 0.5, &[8, 20, 21, 28, 34], 0x4005381381381381),
            (1, 5, 1.0, &[8, 20, 21, 23, 25], 0x4013555555555556),
            (1, 10, 0.0, &[20, 28, 8, 21, 23, 34, 50, 51, 25, 47], 0x3fee79e79e79e79e),
            (1, 10, 0.5, &[8, 20, 21, 28, 23, 34, 50, 51, 25, 47], 0x4014d0dd0dd0dd0d),
            (1, 10, 1.0, &[8, 20, 21, 23, 25, 28, 34, 47, 50, 51], 0x4022e93e93e93e93),
            (2, 2, 0.0, &[15, 32], 0x3fd2bb512bb512bc),
            (2, 2, 0.5, &[32, 41], 0x3ff1c18f9c18f9c2),
            (2, 2, 1.0, &[4, 23], 0x4000000000000000),
            (2, 3, 0.0, &[15, 32, 29], 0x3fda895da895da8a),
            (2, 3, 0.5, &[32, 41, 15], 0x3ffa0122a0122a01),
            (2, 3, 1.0, &[4, 23, 41], 0x4008000000000000),
            (2, 5, 0.0, &[15, 32, 29, 52, 4], 0x3fe44aed44aed44b),
            (2, 5, 0.5, &[32, 41, 15, 23, 4], 0x400531da7c72fd1c),
            (2, 5, 1.0, &[4, 23, 15, 41, 32], 0x4013255d9bab2f10),
            (2, 10, 0.0, &[15, 32, 29, 52, 4, 23, 41, 59, 48], 0x3fec18f9c18f9c19),
            (2, 10, 0.5, &[32, 41, 15, 23, 4, 59, 48, 52, 29], 0x400e161f31e3fb3e),
            (2, 10, 1.0, &[4, 23, 15, 41, 48, 59, 32, 52, 29], 0x401a92fff9b207bb),
        ];
        for (seed, k, lambda, nodes, f_bits) in pins {
            let (g, q) = pin_instance(seed);
            let r = top_k_diversified(&g, &q, &DivConfig::new(k, lambda));
            assert_eq!(r.nodes(), nodes, "seed {seed} k={k} λ={lambda}");
            assert_eq!(r.f_value.to_bits(), f_bits, "seed {seed} k={k} λ={lambda}");
        }
    }

    #[test]
    fn empty_when_no_match() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let r = top_k_diversified(&g, &q, &DivConfig::new(2, 0.5));
        assert!(r.matches.is_empty());
        assert_eq!(r.f_value, 0.0);
    }
}
