//! Relevance functions `δr` and the generalized `δ*r` of Section 3.4.
//!
//! A generalized relevance function is any *monotonically increasing*,
//! PTIME-computable function of the relevant set `R*(u,v)` and the
//! descendant structure `R(u)` of the query node. The paper lists (Table,
//! Section 3.4):
//!
//! | function | formulation |
//! |---|---|
//! | Relevant-set size (default δr) | `\|R*(u,v)\|` |
//! | Preference attachment | `\|R(u)\| · \|R*(u,v)\|` |
//! | Common neighbours | `\|M(Q,G,R(u)) ∩ R*(u,v)\|` |
//! | Jaccard coefficient | `\|M(Q,G,R(u)) ∩ R*(u,v)\| / \|M(Q,G,R(u)) ∪ R*(u,v)\|` |
//!
//! where `R(u)` is the set of query nodes reachable from `u` and
//! `M(Q,G,R(u))` the matches of those nodes. Monotonicity in `|R*|` is what
//! lets the early-termination machinery map `l`/`h` bounds through the
//! function (Proposition 4).

use gpm_graph::BitSet;

/// Evaluation context for one output match.
#[derive(Debug, Clone, Copy)]
pub struct RelevanceCtx<'a> {
    /// The match's relevant set over data-node ids.
    pub r_set: &'a BitSet,
    /// `|R(u)|`: number of query nodes strictly reachable from `uo`.
    pub desc_query_nodes: usize,
    /// `M(Q,G,R(uo))`: all matches of reachable query nodes, over the same
    /// universe.
    pub desc_matches: &'a BitSet,
}

/// A generalized relevance function `δ*r`.
pub trait RelevanceFn: Send + Sync {
    /// Human-readable name (for experiment output).
    fn name(&self) -> &'static str;

    /// Exact score of a match.
    fn score(&self, ctx: &RelevanceCtx<'_>) -> f64;

    /// Maps a lower bound on `|R*|` to a lower bound on the score
    /// (monotonicity makes this sound).
    fn lower_from_count(&self, count: u64, ctx_free: &StructuralCtx) -> f64;

    /// Maps an upper bound on `|R*|` to an upper bound on the score.
    fn upper_from_count(&self, count: u64, ctx_free: &StructuralCtx) -> f64;
}

/// The parts of the context that do not depend on a particular match.
#[derive(Debug, Clone, Copy)]
pub struct StructuralCtx {
    /// `|R(uo)|`.
    pub desc_query_nodes: usize,
    /// `|M(Q,G,R(uo))|` (or an upper bound thereof before it is known).
    pub desc_match_count: u64,
}

/// `δr(u,v) = |R(u,v)|` — the paper's default.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelevantSetSize;

impl RelevanceFn for RelevantSetSize {
    fn name(&self) -> &'static str {
        "relevant-set-size"
    }
    fn score(&self, ctx: &RelevanceCtx<'_>) -> f64 {
        ctx.r_set.count() as f64
    }
    fn lower_from_count(&self, count: u64, _: &StructuralCtx) -> f64 {
        count as f64
    }
    fn upper_from_count(&self, count: u64, _: &StructuralCtx) -> f64 {
        count as f64
    }
}

/// Preference attachment: `|R(u)| · |R*(u,v)|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreferenceAttachment;

impl RelevanceFn for PreferenceAttachment {
    fn name(&self) -> &'static str {
        "preference-attachment"
    }
    fn score(&self, ctx: &RelevanceCtx<'_>) -> f64 {
        (ctx.desc_query_nodes as u64 * ctx.r_set.count() as u64) as f64
    }
    fn lower_from_count(&self, count: u64, s: &StructuralCtx) -> f64 {
        (s.desc_query_nodes as u64 * count) as f64
    }
    fn upper_from_count(&self, count: u64, s: &StructuralCtx) -> f64 {
        (s.desc_query_nodes as u64 * count) as f64
    }
}

/// Common neighbours: `|M(Q,G,R(u)) ∩ R*(u,v)|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommonNeighbors;

impl RelevanceFn for CommonNeighbors {
    fn name(&self) -> &'static str {
        "common-neighbors"
    }
    fn score(&self, ctx: &RelevanceCtx<'_>) -> f64 {
        ctx.r_set.intersection_count(ctx.desc_matches) as f64
    }
    fn lower_from_count(&self, count: u64, s: &StructuralCtx) -> f64 {
        // R*(u,v) ⊆ M(Q,G,R(u)) for match-based relevant sets, so a lower
        // bound on |R*| lower-bounds the intersection; capping by |M| keeps
        // the bound sound for arbitrary count inputs too.
        count.min(s.desc_match_count) as f64
    }
    fn upper_from_count(&self, count: u64, s: &StructuralCtx) -> f64 {
        count.min(s.desc_match_count) as f64
    }
}

/// Jaccard coefficient: `|M ∩ R*| / |M ∪ R*|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JaccardCoefficient;

impl RelevanceFn for JaccardCoefficient {
    fn name(&self) -> &'static str {
        "jaccard-coefficient"
    }
    fn score(&self, ctx: &RelevanceCtx<'_>) -> f64 {
        let union = ctx.r_set.union_count(ctx.desc_matches);
        if union == 0 {
            return 0.0;
        }
        ctx.r_set.intersection_count(ctx.desc_matches) as f64 / union as f64
    }
    fn lower_from_count(&self, count: u64, s: &StructuralCtx) -> f64 {
        // R* ⊆ M for match-based relevant sets: score = |R*| / |M|; capping
        // by |M| keeps the bound sound for arbitrary count inputs.
        if s.desc_match_count == 0 {
            0.0
        } else {
            count.min(s.desc_match_count) as f64 / s.desc_match_count as f64
        }
    }
    fn upper_from_count(&self, count: u64, s: &StructuralCtx) -> f64 {
        if s.desc_match_count == 0 {
            0.0
        } else {
            (count.min(s.desc_match_count) as f64) / s.desc_match_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(r: &'a BitSet, m: &'a BitSet) -> RelevanceCtx<'a> {
        RelevanceCtx { r_set: r, desc_query_nodes: 3, desc_matches: m }
    }

    #[test]
    fn scores() {
        let r = BitSet::from_iter(10, [0, 1, 2, 3]);
        let m = BitSet::from_iter(10, [0, 1, 2, 3, 4, 5, 6, 7]);
        let c = ctx(&r, &m);
        assert_eq!(RelevantSetSize.score(&c), 4.0);
        assert_eq!(PreferenceAttachment.score(&c), 12.0);
        assert_eq!(CommonNeighbors.score(&c), 4.0);
        assert!((JaccardCoefficient.score(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_count() {
        let s = StructuralCtx { desc_query_nodes: 3, desc_match_count: 8 };
        for f in [
            &RelevantSetSize as &dyn RelevanceFn,
            &PreferenceAttachment,
            &CommonNeighbors,
            &JaccardCoefficient,
        ] {
            let mut prev_l = f64::MIN;
            let mut prev_u = f64::MIN;
            for count in 0..=10u64 {
                let l = f.lower_from_count(count, &s);
                let u = f.upper_from_count(count, &s);
                assert!(l >= prev_l, "{}: lower not monotone", f.name());
                assert!(u >= prev_u, "{}: upper not monotone", f.name());
                assert!(u >= l, "{}: upper < lower", f.name());
                prev_l = l;
                prev_u = u;
            }
        }
    }

    #[test]
    fn bounds_bracket_scores() {
        let r = BitSet::from_iter(10, [0, 1, 2]);
        let m = BitSet::from_iter(10, [0, 1, 2, 3, 4]);
        let c = ctx(&r, &m);
        let s = StructuralCtx { desc_query_nodes: 3, desc_match_count: 5 };
        let count = r.count() as u64;
        for f in [
            &RelevantSetSize as &dyn RelevanceFn,
            &PreferenceAttachment,
            &CommonNeighbors,
            &JaccardCoefficient,
        ] {
            let exact = f.score(&c);
            assert!(f.lower_from_count(count, &s) <= exact + 1e-12, "{}", f.name());
            assert!(f.upper_from_count(count, &s) >= exact - 1e-12, "{}", f.name());
        }
    }

    #[test]
    fn jaccard_degenerate() {
        let e = BitSet::new(4);
        let c = ctx(&e, &e);
        assert_eq!(JaccardCoefficient.score(&c), 0.0);
        let s = StructuralCtx { desc_query_nodes: 0, desc_match_count: 0 };
        assert_eq!(JaccardCoefficient.upper_from_count(3, &s), 0.0);
        assert_eq!(JaccardCoefficient.lower_from_count(3, &s), 0.0);
    }
}
