//! `TopKDH` / `TopKDAGDH` — the early-termination heuristic for topKDP
//! (Section 5.2, Theorem 5(3)).
//!
//! `TopKDiv` must compute all of `Mu(Q,G,uo)` first; `TopKDH` instead rides
//! the same propagation engine as `TopK`, maintaining a running set `S` of
//! at most `k` matches. Whenever a wave confirms new output matches, each
//! newcomer `v'` either fills `S` (if `|S| < k`) or greedily replaces the
//! member `v` maximizing `F''(S \ {v} ∪ {v'}) - F''(S)`, where `F''` is the
//! objective evaluated on *partial* information: `v.l / Cuo` in place of
//! `δ'r` and Jaccard over the partial relevant sets in place of `δd` —
//! exactly the paper's Example 10 computation (`0.9·13/11 + 0.2·1/7 ≈
//! 1.1`). It stops as soon as Proposition 3 holds for `S`, then completes
//! the winners' cones and reports `F(S)` on exact sets.
//!
//! The engine is frozen between waves, so within one wave's batch of
//! newcomers the distances between members of `S` change only when a swap
//! replaces one: they are remembered (`SwapMemo`) and `F''` is fed from
//! the memo — `k` Jaccards per newcomer, the same `Objective::f_score`,
//! bit-identical decisions.
//!
//! No approximation ratio is claimed (the paper shows empirically that
//! `F(TopKDH) ≳ 0.77 · F(TopKDiv)`; Figure 5(i)).

use std::time::Instant;

use gpm_graph::{BitSet, DiGraph};
use gpm_pattern::Pattern;
use gpm_ranking::objective::Objective;

use crate::config::DivConfig;
use crate::engine::{Engine, Status};
use crate::result::{DivResult, RankedMatch, RunStats};

/// `TopKDH` (cyclic patterns) and `TopKDAGDH` (DAG patterns) — one
/// implementation, like `TopK`/`TopKDAG`.
pub fn top_k_diversified_heuristic(g: &DiGraph, q: &Pattern, cfg: &DivConfig) -> DivResult {
    run(g, q, cfg, offer_batch)
}

/// Offers one wave's newcomers (ascending candidate index) to `S`.
type OfferBatch = fn(&mut Vec<usize>, &[usize], &Objective, &Engine<'_>, &mut SwapMemo);

fn run(g: &DiGraph, q: &Pattern, cfg: &DivConfig, offer_batch: OfferBatch) -> DivResult {
    let t0 = Instant::now();
    let k = cfg.topk.k;
    let engine = if k == 0 { None } else { Engine::new(g, q, &cfg.topk) };
    let Some(mut eng) = engine else {
        return DivResult {
            matches: Vec::new(),
            f_value: 0.0,
            stats: RunStats { elapsed: t0.elapsed(), total_matches: Some(0), ..Default::default() },
        };
    };
    let objective = Objective::for_pattern(cfg.lambda, k, q, eng.space());
    let mut memo = SwapMemo::new(k, eng.universe_size());

    // Running diversified selection (candidate indices), and how many of
    // the engine's confirmed matches were already offered to it.
    let mut s: Vec<usize> = Vec::new();
    let mut offered = 0usize;
    let mut newcomers: Vec<usize> = Vec::new();

    loop {
        // Offer newly confirmed matches to S.
        newcomers.clear();
        newcomers.extend(eng.matched_outputs().skip(offered).map(|(i, _, _)| i));
        offered += newcomers.len();
        newcomers.sort_unstable();
        offer_batch(&mut s, &newcomers, &objective, &eng, &mut memo);

        // Proposition 3 over the diversified S (heuristic, per Section 5.2).
        if s.len() == k {
            let min_l = s.iter().map(|&i| eng.output_l(i)).min().expect("k > 0");
            if crate::selector::prop3_holds(min_l, eng.best_rest_bound(&s)) {
                eng.stats_mut().early_terminated = true;
                eng.stats_mut().inspected_matches = eng.matched_count();
                break;
            }
        }
        if eng.exhausted() {
            let total = eng.matched_count();
            eng.stats_mut().inspected_matches = total;
            eng.stats_mut().total_matches = Some(total);
            break;
        }
        eng.wave();
    }

    eng.complete_cones(&s);

    // Exact F(S) on completed sets.
    let rels: Vec<f64> = s.iter().map(|&i| eng.output_l(i) as f64).collect();
    let f_value = objective.f_score(&rels, |a, b| distance(&eng, &memo.empty, s[a], s[b]));
    let mut matches: Vec<RankedMatch> = s
        .iter()
        .map(|&i| RankedMatch { node: eng.output_node(i), relevance: eng.output_l(i) })
        .collect();
    matches.sort();
    eng.stats_mut().elapsed = t0.elapsed();
    DivResult { matches, f_value, stats: eng.stats().clone() }
}

/// `δd` between the members of a full `S` on their partial relevant sets,
/// remembered for the span of one offer batch — the engine is frozen
/// between waves, so within a batch only a swap changes any of them. Each
/// newcomer then costs `k` Jaccards (its own row) instead of the
/// `(k+1)·k(k-1)/2` of recomputing `F''` for `S` and every alternative.
struct SwapMemo {
    k: usize,
    /// `d[a·k + b]` = `δd(S[a], S[b])`, symmetric; meaningful iff `valid`.
    d: Vec<f64>,
    valid: bool,
    /// `δd(S[j], newcomer)` for the newcomer under evaluation.
    to_new: Vec<f64>,
    rels: Vec<f64>,
    empty: BitSet,
}

impl SwapMemo {
    fn new(k: usize, universe: usize) -> Self {
        SwapMemo {
            k,
            d: vec![0.0; k * k],
            valid: false,
            to_new: vec![0.0; k],
            rels: vec![0.0; k],
            empty: BitSet::new(universe),
        }
    }
}

/// `δd` of two output candidates on their current relevant sets (`empty`
/// stands in for a set the engine has not allocated yet).
fn distance(eng: &Engine<'_>, empty: &BitSet, i: usize, j: usize) -> f64 {
    let ri = eng.output_r(i).unwrap_or(empty);
    let rj = eng.output_r(j).unwrap_or(empty);
    ri.jaccard_distance(rj)
}

/// Greedy insert-or-swap of each newcomer against `F''` (partial
/// information), with member distances served from `memo`.
fn offer_batch(
    s: &mut Vec<usize>,
    newcomers: &[usize],
    obj: &Objective,
    eng: &Engine<'_>,
    memo: &mut SwapMemo,
) {
    let k = memo.k;
    // `f_score` never asks for a distance when the diversity term is off.
    let diversify = obj.diversity_scale() > 0.0;
    memo.valid = false;
    for &cand in newcomers {
        debug_assert_eq!(eng.output_status(cand), Status::Matched);
        debug_assert!(!s.contains(&cand), "every match is offered once");
        if s.len() < k {
            s.push(cand);
            continue;
        }
        if diversify {
            if !memo.valid {
                for a in 0..k {
                    for b in (a + 1)..k {
                        let d = distance(eng, &memo.empty, s[a], s[b]);
                        memo.d[a * k + b] = d;
                        memo.d[b * k + a] = d;
                    }
                }
                memo.valid = true;
            }
            for (d, &member) in memo.to_new.iter_mut().zip(s.iter()) {
                *d = distance(eng, &memo.empty, member, cand);
            }
        }
        for (rel, &i) in memo.rels.iter_mut().zip(s.iter()) {
            *rel = eng.output_l(i) as f64;
        }
        let f_cur = obj.f_score(&memo.rels, |a, b| memo.d[a * k + b]);
        let mut best: Option<(f64, usize)> = None;
        for pos in 0..k {
            let member_rel = std::mem::replace(&mut memo.rels[pos], eng.output_l(cand) as f64);
            let f_alt = obj.f_score(&memo.rels, |a, b| {
                if a == pos {
                    memo.to_new[b]
                } else if b == pos {
                    memo.to_new[a]
                } else {
                    memo.d[a * k + b]
                }
            });
            memo.rels[pos] = member_rel;
            let gain = f_alt - f_cur;
            if gain > 1e-12 && best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, pos));
            }
        }
        if let Some((_, pos)) = best {
            s[pos] = cand;
            for j in 0..k {
                memo.d[pos * k + j] = memo.to_new[j];
                memo.d[j * k + pos] = memo.to_new[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk_div::top_k_diversified;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The un-memoised swap rule `offer_batch` replaced: `F''` recomputed
    /// from the relevant sets for `S` and for every alternative.
    fn offer_batch_reference(
        s: &mut Vec<usize>,
        newcomers: &[usize],
        obj: &Objective,
        eng: &Engine<'_>,
        memo: &mut SwapMemo,
    ) {
        let f_partial = |set: &[usize]| {
            let rels: Vec<f64> = set.iter().map(|&i| eng.output_l(i) as f64).collect();
            obj.f_score(&rels, |a, b| distance(eng, &memo.empty, set[a], set[b]))
        };
        for &cand in newcomers {
            if s.len() < memo.k {
                s.push(cand);
                continue;
            }
            let f_cur = f_partial(s);
            let mut best: Option<(f64, usize)> = None;
            for pos in 0..s.len() {
                let mut alt = s.clone();
                alt[pos] = cand;
                let gain = f_partial(&alt) - f_cur;
                if gain > 1e-12 && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, pos));
                }
            }
            if let Some((_, pos)) = best {
                s[pos] = cand;
            }
        }
    }

    #[test]
    fn memoised_offers_equal_the_recomputed_swap_rule() {
        let patterns = [
            label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (0, 2), (1, 2)], 0).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2), (2, 1)], 0).unwrap(),
            label_pattern(&[0, 1, 0], &[(0, 1), (1, 2), (2, 0)], 0).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(97);
        let mut swapped = 0usize;
        for trial in 0..40 {
            let n = rng.random_range(20..120usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
            let edges: Vec<(u32, u32)> = (0..rng.random_range(2 * n..5 * n))
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|(a, b)| a != b)
                .collect();
            let g = graph_from_parts(&labels, &edges).unwrap();
            for (pi, q) in patterns.iter().enumerate() {
                for (k, lambda) in [(1, 0.5), (2, 1.0), (3, 0.3), (5, 0.5), (4, 0.0)] {
                    let cfg = DivConfig::new(k, lambda);
                    let fast = run(&g, q, &cfg, offer_batch);
                    let slow = run(&g, q, &cfg, offer_batch_reference);
                    let ctx = format!("trial {trial} pattern {pi} k {k} λ {lambda}");
                    assert_eq!(fast.matches, slow.matches, "{ctx}");
                    assert_eq!(fast.f_value.to_bits(), slow.f_value.to_bits(), "{ctx}");
                    assert_eq!(fast.stats.waves, slow.stats.waves, "{ctx}");
                    assert_eq!(fast.stats.inspected_matches, slow.stats.inspected_matches, "{ctx}");
                    let greedy_fill = run(&g, q, &cfg, |s, new, _, _, memo| {
                        s.extend(new.iter().take(memo.k - s.len()))
                    });
                    swapped += usize::from(greedy_fill.matches != fast.matches);
                }
            }
        }
        assert!(swapped > 50, "the instances must exercise swaps (only {swapped} did)");
    }

    #[test]
    fn returns_k_valid_matches() {
        let g = graph_from_parts(&[0, 0, 0, 1, 1, 1, 1], &[(0, 3), (0, 4), (1, 4), (1, 5), (2, 6)])
            .unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let r = top_k_diversified_heuristic(&g, &q, &DivConfig::new(2, 0.5));
        assert_eq!(r.matches.len(), 2);
        for m in &r.matches {
            assert!(m.node <= 2, "only a-roots can match");
        }
        assert!(r.f_value > 0.0);
    }

    #[test]
    fn heuristic_quality_vs_approximation() {
        // On random instances the heuristic should stay within a reasonable
        // factor of TopKDiv (the paper observes ≥ 0.77 · F(TopKDiv) on
        // average; we assert a loose 0.5 floor plus validity).
        let mut rng = StdRng::seed_from_u64(23);
        let mut ratios = Vec::new();
        for _ in 0..20 {
            let n = rng.random_range(6..30usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
            let m = rng.random_range(n..n * 3);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|(a, b)| a != b)
                .collect();
            let g = graph_from_parts(&labels, &edges).unwrap();
            let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
            let cfg = DivConfig::new(3, 0.5);
            let div = top_k_diversified(&g, &q, &cfg);
            let dh = top_k_diversified_heuristic(&g, &q, &cfg);
            assert_eq!(dh.matches.len(), div.matches.len());
            if div.f_value > 0.0 {
                ratios.push(dh.f_value / div.f_value);
            }
        }
        if !ratios.is_empty() {
            let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
            assert!(avg > 0.5, "average quality ratio too low: {avg}");
        }
    }

    #[test]
    fn k_zero_returns_before_building_the_engine() {
        let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 3)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let r = top_k_diversified_heuristic(&g, &q, &DivConfig::new(0, 0.5));
        assert!(r.matches.is_empty());
        assert_eq!(r.f_value, 0.0);
        assert_eq!(r.stats.waves, 0, "nothing to select: no wave may run");
        assert_eq!(r.stats.output_candidates, 0, "the engine was never built");
    }

    #[test]
    fn empty_and_degenerate() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let r = top_k_diversified_heuristic(&g, &q, &DivConfig::new(2, 0.5));
        assert!(r.matches.is_empty());
        // k = 1 works (diversity term vanishes).
        let g2 = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let r2 = top_k_diversified_heuristic(&g2, &q, &DivConfig::new(1, 0.9));
        assert_eq!(r2.matches.len(), 1);
    }
}
