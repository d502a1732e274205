//! Relevant-set cache with partial invalidation, and the `δd` kept beside
//! it.
//!
//! The static pipeline rebuilds [`crate::relevant_set::RelevantSets`] from
//! scratch per query. Under graph deltas most output matches keep their
//! relevant set, so the dynamic path caches one set per output match —
//! a sorted [`NodeSet`] of **data-node ids** rather than a bitset over a
//! per-query compact universe, because node ids are stable across updates
//! while universes are not. A set costs 4 bytes a member whatever the
//! graph's size, its `δr` is its length, and the maintenance layer
//! invalidates and recomputes only the dirty entries.
//!
//! Relevance and Jaccard distance values are identical to the
//! universe-encoded ones (both encodings are bijective on the same sets,
//! and [`NodeSet::jaccard_distance`] evaluates the bitset's expression),
//! so every ranking quantity derived from this cache matches the static
//! pipeline bit for bit.
//!
//! The same reasoning holds for pairs: a `δd` depends on two sets only, so
//! it stays valid until either of them is upserted or removed. The cache
//! gives each set a **slot** (reused after a removal) and, once a
//! diversified answer asks for it ([`RelevanceCache::pairwise`]), keeps a
//! dense lower-triangular table of `δd` by slot pair. Sets and distances
//! live in this one store, so every path that replaces a set also drops
//! its distances; no second invalidation rule exists. A relevance-only
//! consumer never asks, and never allocates the table.

use std::collections::BTreeMap;

use gpm_graph::{NodeId, NodeSet};

/// One cached relevant set and its row in the distance table.
#[derive(Debug, Clone)]
struct CachedSet {
    set: NodeSet,
    /// Row of this set in the distance table.
    slot: usize,
}

impl CachedSet {
    /// `δr(uo, v)`: the set's size.
    fn delta_r(&self) -> u64 {
        self.set.len() as u64
    }
}

/// Cached relevant sets `R(uo, v)` keyed by output match, sorted node-id
/// sets, plus the `δd` of each pair of them once asked for.
#[derive(Debug, Clone, Default)]
pub struct RelevanceCache {
    sets: BTreeMap<NodeId, CachedSet>,
    /// Heap bytes of the cached sets, kept as a running count by `upsert`
    /// and `remove`.
    cache_bytes: usize,
    /// Slots of removed sets, reused before a new one is opened.
    free_slots: Vec<usize>,
    /// Slots ever opened; every live slot is below this.
    slots: usize,
    /// `δd` by slot pair `(i, j)`, `i < j`, at `tri(j) + i`; `NaN` marks a
    /// pair not computed since either slot was last (re)filled. Covers the
    /// first `table_slots` slots; empty until [`Self::pairwise`] keeps it.
    table: Vec<f64>,
    table_slots: usize,
}

/// Entries of a lower-triangular table over `j` slots.
fn tri(j: usize) -> usize {
    j * j.saturating_sub(1) / 2
}

fn pair_index(a: usize, b: usize) -> usize {
    debug_assert_ne!(a, b, "δd of a set with itself is never asked");
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    tri(hi) + lo
}

impl RelevanceCache {
    /// Inserts or replaces the relevant set of `v`, dropping every stored
    /// `δd` that involves `v`.
    pub fn upsert(&mut self, v: NodeId, set: NodeSet) {
        let slot = match self.sets.get(&v) {
            Some(old) => old.slot,
            None => self.free_slots.pop().unwrap_or_else(|| {
                self.slots += 1;
                self.slots - 1
            }),
        };
        self.forget_distances(slot);
        self.cache_bytes += set.heap_bytes();
        if let Some(old) = self.sets.insert(v, CachedSet { set, slot }) {
            self.cache_bytes -= old.set.heap_bytes();
        }
    }

    /// Drops the entry of `v` (the match disappeared). Its slot's stored
    /// distances are never read again; the next set to take the slot
    /// clears them.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let Some(old) = self.sets.remove(&v) else { return false };
        self.cache_bytes -= old.set.heap_bytes();
        self.free_slots.push(old.slot);
        true
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

    /// `δr(uo, v)` from the cache.
    pub fn relevance_of(&self, v: NodeId) -> Option<u64> {
        self.sets.get(&v).map(CachedSet::delta_r)
    }

    /// The cached set of `v`.
    pub fn set_of(&self, v: NodeId) -> Option<&NodeSet> {
        self.sets.get(&v).map(|s| &s.set)
    }

    /// `(node, δr)` for every cached match, ascending by node id, in
    /// `O(matches)`.
    pub fn relevances(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.sets.iter().map(|(&v, s)| (v, s.delta_r()))
    }

    /// Heap bytes of the cached sets' members — 4 a member. Reads a
    /// running count, in O(1).
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Heap bytes of the stored distance table; 0 until [`Self::pairwise`]
    /// has kept one.
    pub fn distance_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<f64>()
    }

    /// Every cached match with its `δr` and a `δd` oracle over them, for
    /// the diversified greedy. When a table over every slot fits
    /// `budget_bytes`, it is kept (grown if slots were opened), every pair
    /// of cached sets missing a distance gets one — the only Jaccards
    /// computed — and the oracle reads it. Past the budget the table is
    /// freed and the oracle computes each `δd` on call; the values are
    /// the same either way.
    pub fn pairwise(&mut self, budget_bytes: usize) -> Pairwise<'_> {
        let entries: Vec<&CachedSet> = self.sets.values().collect();
        let table = if tri(self.slots) * std::mem::size_of::<f64>() > budget_bytes {
            self.table = Vec::new();
            self.table_slots = 0;
            None
        } else {
            self.table.reserve_exact(tri(self.slots) - self.table.len());
            self.table.resize(tri(self.slots), f64::NAN);
            self.table_slots = self.slots;
            for (a, x) in entries.iter().enumerate() {
                for y in &entries[a + 1..] {
                    let d = &mut self.table[pair_index(x.slot, y.slot)];
                    if d.is_nan() {
                        *d = x.set.jaccard_distance(&y.set);
                    }
                }
            }
            Some(self.table.as_slice())
        };
        Pairwise {
            nodes: self.sets.keys().copied().collect(),
            relevances: entries.iter().map(|s| s.delta_r()).collect(),
            entries,
            table,
        }
    }

    /// Marks every stored `δd` involving `slot` as not computed.
    fn forget_distances(&mut self, slot: usize) {
        if slot >= self.table_slots {
            return;
        }
        self.table[tri(slot)..tri(slot) + slot].fill(f64::NAN);
        for j in slot + 1..self.table_slots {
            self.table[tri(j) + slot] = f64::NAN;
        }
    }
}

/// The cached matches as the diversified greedy indexes them: position `i`
/// is the `i`-th match ascending by node id.
#[derive(Debug)]
pub struct Pairwise<'a> {
    /// Matches, ascending by node id.
    pub nodes: Vec<NodeId>,
    /// `δr` of each match.
    pub relevances: Vec<u64>,
    entries: Vec<&'a CachedSet>,
    table: Option<&'a [f64]>,
}

impl Pairwise<'_> {
    /// `δd` between the `i`-th and `j`-th match (`i ≠ j`): read from the
    /// stored table, or computed when the budget left none.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (self.entries[i], self.entries[j]);
        match self.table {
            Some(t) => t[pair_index(a.slot, b.slot)],
            None => a.set.jaccard_distance(&b.set),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[NodeId]) -> NodeSet {
        NodeSet::from_scratch(&mut ids.to_vec())
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
        assert!((c.pairwise(usize::MAX).distance(0, 1) - 0.6).abs() < 1e-12);
        assert!(c.remove(3));
        assert!(!c.remove(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.relevance_of(3), None);
    }

    #[test]
    fn stored_popcount_tracks_set_lifecycle() {
        // δr and the running byte count follow the stored sets after every
        // mutation: upsert, overwrite (smaller and larger), remove, reuse.
        let mut c = RelevanceCache::default();
        let check = |c: &RelevanceCache| {
            let mut members = 0;
            for (v, r) in c.relevances() {
                assert_eq!(Some(r), c.set_of(v).map(|s| s.len() as u64), "match {v}");
                assert_eq!(c.relevance_of(v), Some(r));
                members += r as usize;
            }
            assert_eq!(c.cache_bytes(), 4 * members);
        };
        c.upsert(0, set(&[1, 2, 3]));
        c.upsert(5, set(&[0, 7]));
        check(&c);
        c.upsert(0, set(&[4])); // overwrite shrinks δr 3 → 1
        assert_eq!(c.relevance_of(0), Some(1));
        check(&c);
        c.upsert(5, set(&[0, 6, 7, 8])); // overwrite grows δr 2 → 4
        check(&c);
        assert!(c.remove(5));
        assert!(!c.remove(5));
        assert_eq!(c.relevance_of(5), None);
        check(&c);
        c.upsert(9, set(&[2])); // reuses 5's slot
        check(&c);
        assert_eq!(c.cache_bytes(), 4 * 2);
    }

    /// Every stored δd equals a fresh Jaccard of the current sets after
    /// each upsert, overwrite, removal and slot reuse — and a zero budget
    /// keeps no table but answers the same.
    #[test]
    fn stored_distances_follow_every_set_change() {
        let mut c = RelevanceCache::default();
        let check = |c: &mut RelevanceCache| {
            let fresh: Vec<NodeSet> = c.sets.values().map(|s| s.set.clone()).collect();
            for budget in [usize::MAX, 0] {
                let p = c.pairwise(budget);
                for i in 0..fresh.len() {
                    for j in (0..fresh.len()).filter(|&j| j != i) {
                        let want = fresh[i].jaccard_distance(&fresh[j]);
                        assert_eq!(p.distance(i, j).to_bits(), want.to_bits(), "({i}, {j})");
                    }
                }
            }
            assert_eq!(c.distance_bytes(), 0, "a zero budget frees the table");
            c.pairwise(usize::MAX);
        };
        assert_eq!(c.distance_bytes(), 0, "nothing allocated before it is asked for");
        c.upsert(4, set(&[1, 2]));
        c.upsert(8, set(&[2, 3]));
        c.upsert(9, set(&[5]));
        check(&mut c);
        assert!(c.distance_bytes() > 0);
        c.upsert(8, set(&[1, 2, 3])); // overwrite keeps the slot, drops its δd
        check(&mut c);
        c.remove(4);
        c.upsert(2, set(&[9])); // reuses 4's slot
        assert_eq!(c.slots, 3);
        check(&mut c);
        c.upsert(6, set(&[]));
        c.upsert(7, set(&[])); // empty ∪ empty: δd 0, never NaN
        check(&mut c);
        assert_eq!(c.pairwise(usize::MAX).distance(1, 2), 0.0);
    }
}
