//! The diversification objective `F(S)` and its derived forms.
//!
//! Section 3.3, for a k-element match set `S`:
//!
//! ```text
//! F(S) = (1-λ) · Σ_{v ∈ S} δ'r(uo, v)  +  (2λ/(k-1)) · Σ_{i<j} δd(vi, vj)
//! ```
//!
//! with `δ'r = δr / Cuo`, where `Cuo` is the total number of candidates of
//! query nodes reachable from `uo` (Example 6: 3 DBs + 4 PRGs + 4 STs = 11).
//! The diversity term is scaled by `2λ/(k-1)` because there are `k(k-1)/2`
//! pair distances against `k` relevance terms. `F` is **not** submodular
//! (Section 3.4 remark), which is why topKDP is 2- but not
//! `(1-1/e)`-approximable here.
//!
//! Derived forms:
//! * `F'(v1,v2) = (1-λ)/(k-1)·(δ'r(v1)+δ'r(v2)) + 2λ/(k-1)·δd(v1,v2)` — the
//!   pairwise score the `TopKDiv` greedy maximizes (its sum over a perfect
//!   matching telescopes to `F(S)`, the MAXDISP reduction of Section 5.1);
//! * `F''` — `F` evaluated with partial information (`v.l/Cuo` for
//!   relevance, partial relevant sets for distance), used by `TopKDH`.

use gpm_pattern::{PNodeId, Pattern};
use gpm_simulation::CandidateSpace;

/// `Cuo` over an arbitrary candidate-count source: Σ over query nodes `u'`
/// strictly reachable from `uo` of `|can(u')|` (with multiplicity — two
/// query nodes sharing candidates count twice, matching Example 6's
/// `3 + 4 + 4 = 11`).
///
/// This is the **single** definition of the normalizer; the static pipeline
/// passes a [`CandidateSpace`] lookup (via [`c_uo`]) and the dynamic path
/// passes `IncSimState::candidate_count`, so the two can never drift.
pub fn c_uo_with(q: &Pattern, mut candidate_count: impl FnMut(PNodeId) -> usize) -> u64 {
    q.reachable_from_output().iter().map(|u| candidate_count(u as PNodeId) as u64).sum()
}

/// `Cuo` from a static [`CandidateSpace`] (see [`c_uo_with`]).
pub fn c_uo(q: &Pattern, space: &CandidateSpace) -> u64 {
    c_uo_with(q, |u| space.candidate_count(u))
}

/// The bi-criteria objective with fixed `λ`, `k` and normalizer.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Trade-off `λ ∈ [0,1]`; 0 = pure relevance, 1 = pure diversity.
    pub lambda: f64,
    /// Target result size `k`.
    pub k: usize,
    /// The normalizer `Cuo` (≥ 1 to keep `δ'r` defined; an empty reachable
    /// set yields 1 so that `δ'r = δr = 0` stays harmless).
    pub c_uo: u64,
}

impl Objective {
    /// Builds an objective, clamping `λ` into `[0,1]` and guarding `Cuo`.
    pub fn new(lambda: f64, k: usize, c_uo_val: u64) -> Self {
        // `k` is kept as given: `k = 0` must select nothing (every greedy
        // reads its target size from here), and no formula divides by it.
        Objective { lambda: lambda.clamp(0.0, 1.0), k, c_uo: c_uo_val.max(1) }
    }

    /// Convenience constructor computing `Cuo` from the pattern.
    pub fn for_pattern(lambda: f64, k: usize, q: &Pattern, space: &CandidateSpace) -> Self {
        Self::new(lambda, k, c_uo(q, space))
    }

    /// `δ'r = δr / Cuo`.
    #[inline]
    pub fn normalized_relevance(&self, delta_r: f64) -> f64 {
        delta_r / self.c_uo as f64
    }

    /// Diversity scale `2λ/(k-1)`; 0 when `k = 1` (no pairs to diversify).
    #[inline]
    pub fn diversity_scale(&self) -> f64 {
        if self.k <= 1 {
            0.0
        } else {
            2.0 * self.lambda / (self.k - 1) as f64
        }
    }

    /// `F(S)` from raw relevance values `δr` and a pairwise distance oracle
    /// over indices `0..rel.len()`.
    pub fn f_score(&self, rel: &[f64], mut dist: impl FnMut(usize, usize) -> f64) -> f64 {
        let rel_term: f64 =
            rel.iter().map(|&r| self.normalized_relevance(r)).sum::<f64>() * (1.0 - self.lambda);
        let scale = self.diversity_scale();
        let mut div_term = 0.0;
        if scale > 0.0 {
            for i in 0..rel.len() {
                for j in (i + 1)..rel.len() {
                    div_term += dist(i, j);
                }
            }
            div_term *= scale;
        }
        rel_term + div_term
    }

    /// `F'(v1, v2)` — the pairwise greedy score of `TopKDiv` (Section 5.1).
    /// `δr` values are raw (un-normalized); `d` is `δd(v1,v2)`.
    pub fn f_pair(&self, delta_r1: f64, delta_r2: f64, d: f64) -> f64 {
        let k1 = (self.k.max(2) - 1) as f64;
        (1.0 - self.lambda) / k1
            * (self.normalized_relevance(delta_r1) + self.normalized_relevance(delta_r2))
            + 2.0 * self.lambda / k1 * d
    }

    /// Incremental helper for greedy swaps: `F` restricted to a set given as
    /// parallel arrays of normalized relevances and a distance oracle; used
    /// by `TopKDH`'s `F''` (same formula, partial inputs).
    pub fn f_from_normalized(
        &self,
        norm_rel: &[f64],
        mut dist: impl FnMut(usize, usize) -> f64,
    ) -> f64 {
        let rel_term: f64 = norm_rel.iter().sum::<f64>() * (1.0 - self.lambda);
        let scale = self.diversity_scale();
        let mut div_term = 0.0;
        if scale > 0.0 {
            for i in 0..norm_rel.len() {
                for j in (i + 1)..norm_rel.len() {
                    div_term += dist(i, j);
                }
            }
            div_term *= scale;
        }
        rel_term + div_term
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 6 / Fig. 1 numbers: Cuo = 11, k = 2, δr: PM1=4, PM2=8,
    /// PM3=PM4=6; δd(1,2)=10/11, δd(2,3)=1/4, δd(1,3)=1.
    fn obj(lambda: f64) -> Objective {
        Objective::new(lambda, 2, 11)
    }

    #[test]
    fn example6_lambda_zero_prefers_relevance() {
        // λ=0 → {PM2,PM3} (δr total 14) beats {PM1,PM2} (12) and {PM1,PM3} (10).
        let o = obj(0.0);
        let f23 = o.f_score(&[8.0, 6.0], |_, _| 0.25);
        let f12 = o.f_score(&[4.0, 8.0], |_, _| 10.0 / 11.0);
        let f13 = o.f_score(&[4.0, 6.0], |_, _| 1.0);
        assert!(f23 > f12 && f12 > f13);
        assert!((f23 - 14.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn example6_lambda_one_prefers_diversity() {
        let o = obj(1.0);
        let f23 = o.f_score(&[8.0, 6.0], |_, _| 0.25);
        let f12 = o.f_score(&[4.0, 8.0], |_, _| 10.0 / 11.0);
        let f13 = o.f_score(&[4.0, 6.0], |_, _| 1.0);
        assert!(f13 > f12 && f12 > f23);
        assert_eq!(f13, 2.0);
    }

    #[test]
    fn example6_crossover_thresholds() {
        // {PM1,PM2} beats {PM2,PM3} exactly when λ > 4/33.
        let check = |lambda: f64| {
            let o = obj(lambda);
            let f12 = o.f_score(&[4.0, 8.0], |_, _| 10.0 / 11.0);
            let f23 = o.f_score(&[8.0, 6.0], |_, _| 0.25);
            let f13 = o.f_score(&[4.0, 6.0], |_, _| 1.0);
            (f12, f23, f13)
        };
        let t = 4.0 / 33.0;
        let (f12, f23, _) = check(t - 1e-6);
        assert!(f23 > f12, "below 4/33, {{PM2,PM3}} wins");
        let (f12, f23, f13) = check(t + 1e-6);
        assert!(f12 > f23 && f12 > f13, "just above 4/33, {{PM1,PM2}} wins");
        // At λ ≥ 0.5, {PM1,PM3} is best (Example 6(e)).
        let (f12, f23, f13) = check(0.5 + 1e-6);
        assert!(f13 > f12 && f13 > f23);
    }

    #[test]
    fn example9_pairwise_score() {
        // F'(PM1,PM3) at λ=0.5, k=2: 0.5·(4/11 + 6/11) + 1·1 = 16/11 ≈ 1.45.
        let o = obj(0.5);
        let fp = o.f_pair(4.0, 6.0, 1.0);
        assert!((fp - 16.0 / 11.0).abs() < 1e-12);
        // And it maximizes over the candidate pairs of Example 9. (At λ=0.5
        // exactly, {PM1,PM2} *ties* with {PM1,PM3} at 16/11 — the paper
        // reports {PM1,PM3} as "the" maximum; both are optima.)
        let f12 = o.f_pair(4.0, 8.0, 10.0 / 11.0);
        let f23 = o.f_pair(8.0, 6.0, 0.25);
        let f34 = o.f_pair(6.0, 6.0, 0.0);
        assert!((fp - f12).abs() < 1e-12, "documented tie at λ = 0.5");
        assert!(fp > f23 && fp > f34);
    }

    #[test]
    fn example10_partial_f() {
        // TopKDH at λ=0.1 with partial values: 0.9·(13/11) + 0.2·(1/7) ≈ 1.1.
        let o = Objective::new(0.1, 2, 11);
        let f = o.f_from_normalized(&[7.0 / 11.0, 6.0 / 11.0], |_, _| 1.0 / 7.0);
        assert!((f - (0.9 * 13.0 / 11.0 + 0.2 / 7.0)).abs() < 1e-12);
        assert!((f - 1.1).abs() < 0.01);
    }

    #[test]
    fn degenerate_k() {
        let o = Objective::new(0.7, 1, 10);
        assert_eq!(o.diversity_scale(), 0.0);
        let f = o.f_score(&[5.0], |_, _| panic!("no pairs with k=1"));
        assert!((f - 0.3 * 0.5).abs() < 1e-12);
        // Cuo guard.
        let o = Objective::new(0.5, 2, 0);
        assert_eq!(o.c_uo, 1);
        // λ clamp.
        assert_eq!(Objective::new(7.0, 2, 1).lambda, 1.0);
        assert_eq!(Objective::new(-7.0, 2, 1).lambda, 0.0);
    }
}
