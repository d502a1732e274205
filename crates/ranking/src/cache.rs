//! Relevant-set cache with partial invalidation.
//!
//! The static pipeline rebuilds [`crate::relevant_set::RelevantSets`] from
//! scratch per query. Under graph deltas most output matches keep their
//! relevant set, so the dynamic path caches one bitset per output match —
//! over **data-node ids** rather than a per-query compact universe, because
//! node ids are stable across updates while universes are not — and the
//! maintenance layer invalidates and recomputes only the dirty entries.
//! Each set keeps the capacity it was built with: sets cached before and
//! after the graph grew differ in width, and every comparison zero-extends
//! the narrower one (see [`gpm_graph::BitSet`]).
//!
//! Relevance and Jaccard distance values are identical to the
//! universe-encoded ones (both encodings are bijective on the same sets),
//! so every ranking quantity derived from this cache matches the static
//! pipeline bit for bit.

use std::collections::BTreeMap;

use gpm_graph::{BitSet, NodeId};

/// One cached relevant set with its popcount `δr` stored beside the bits:
/// relevance queries — `relevances()` in particular, which every `apply`
/// re-ranks from — must not re-popcount `O(|V|/64)` words per match.
#[derive(Debug, Clone)]
struct CachedSet {
    bits: BitSet,
    /// `bits.count()`, computed once at [`RelevanceCache::upsert`].
    delta_r: u64,
}

/// Cached relevant sets `R(uo, v)` keyed by output match, bitsets over
/// data-node ids.
#[derive(Debug, Clone, Default)]
pub struct RelevanceCache {
    sets: BTreeMap<NodeId, CachedSet>,
}

impl RelevanceCache {
    /// Inserts or replaces the relevant set of `v`, recording its popcount.
    /// The reach DP emits node-id bitsets, so they are stored as built.
    pub fn upsert(&mut self, v: NodeId, bits: BitSet) {
        let delta_r = bits.count() as u64;
        self.sets.insert(v, CachedSet { bits, delta_r });
    }

    /// Drops the entry of `v` (the match disappeared).
    pub fn remove(&mut self, v: NodeId) -> bool {
        self.sets.remove(&v).is_some()
    }

    /// `true` iff `v` has a cached set.
    pub fn contains(&self, v: NodeId) -> bool {
        self.sets.contains_key(&v)
    }

    /// Number of cached matches.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Cached matches, ascending by node id (the order
    /// [`crate::relevant_set::RelevantSets::matches`] uses).
    pub fn matches(&self) -> Vec<NodeId> {
        self.sets.keys().copied().collect()
    }

    /// `δr(uo, v)` from the cache — the stored popcount, no bit scan.
    pub fn relevance_of(&self, v: NodeId) -> Option<u64> {
        self.sets.get(&v).map(|s| s.delta_r)
    }

    /// The cached set of `v`.
    pub fn set_of(&self, v: NodeId) -> Option<&BitSet> {
        self.sets.get(&v).map(|s| &s.bits)
    }

    /// Jaccard distance `δd` between two cached matches.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        Some(self.sets.get(&a)?.bits.jaccard_distance(&self.sets.get(&b)?.bits))
    }

    /// `(node, δr)` for every cached match, ascending by node id. Reads the
    /// popcounts stored at `upsert`, so a query is `O(matches)` instead of
    /// `O(matches · |V|/64)`.
    pub fn relevances(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.sets.iter().map(|(&v, s)| (v, s.delta_r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: &[usize]) -> BitSet {
        BitSet::from_iter(10, bits.iter().copied())
    }

    #[test]
    fn upsert_query_remove() {
        let mut c = RelevanceCache::default();
        c.upsert(3, set(&[1, 2, 5]));
        c.upsert(7, set(&[2, 5, 6, 9]));
        assert_eq!(c.relevance_of(3), Some(3));
        assert_eq!(c.relevance_of(7), Some(4));
        assert_eq!(c.matches(), vec![3, 7]);
        // |∩| = 2, |∪| = 5 → δd = 1 - 2/5.
        assert!((c.distance(3, 7).unwrap() - 0.6).abs() < 1e-12);
        assert!(c.remove(3));
        assert!(!c.remove(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.relevance_of(3), None);
    }

    #[test]
    fn stored_popcount_tracks_set_lifecycle() {
        // The stored δr must agree with a fresh popcount of the stored bits
        // after every mutation: upsert, overwrite, remove.
        let mut c = RelevanceCache::default();
        let check = |c: &RelevanceCache| {
            for (v, r) in c.relevances() {
                assert_eq!(Some(r), c.set_of(v).map(|s| s.count() as u64), "match {v}");
                assert_eq!(c.relevance_of(v), Some(r));
            }
        };
        c.upsert(0, set(&[1, 2, 3]));
        c.upsert(5, set(&[0, 7]));
        check(&c);
        c.upsert(0, set(&[4])); // overwrite shrinks δr 3 → 1
        assert_eq!(c.relevance_of(0), Some(1));
        check(&c);
        assert!(c.remove(5));
        assert_eq!(c.relevance_of(5), None);
        check(&c);
    }

    /// Sets cached before and after the graph grew keep their own widths;
    /// distance zero-extends the narrower one.
    #[test]
    fn distance_across_widths() {
        let mut c = RelevanceCache::default();
        c.upsert(0, set(&[1, 3]));
        c.upsert(1, BitSet::from_iter(300, [3, 299]));
        assert_eq!(c.distance(0, 1), Some(1.0 - 1.0 / 3.0));
        assert_eq!(c.distance(1, 0), c.distance(0, 1));
    }
}
