//! Relevance cache with partial invalidation: `δr` for every output
//! match, the relevant set where one was built, and the `δd` kept beside
//! the sets.
//!
//! The static pipeline rebuilds [`crate::relevant_set::RelevantSets`] from
//! scratch per query. Under graph deltas most output matches keep their
//! relevance, so the dynamic path caches one entry per output match, and
//! the maintenance layer invalidates and recomputes only the dirty ones.
//! Every entry stores `δr`. A top-k by relevance needs nothing else, and
//! the maintained condensation reads `δr` off its component sets without
//! building the relevant set ([`RelevanceCache::upsert_count`]). The set
//! itself is built lazily, for a diversified answer, whose `δd` needs it
//! ([`RelevanceCache::upsert`]); its `δr` is its length. A set is a sorted
//! [`NodeSet`] of **data-node ids** rather than a bitset over a per-query
//! compact universe, because node ids are stable across updates while
//! universes are not, and it costs 4 bytes a member whatever the graph's
//! size.
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
//! dense lower-triangular table of `δd` by slot pair. Entries and
//! distances live in this one store, so every path that replaces an entry
//! also drops its distances; no second invalidation rule exists. A
//! relevance-only consumer never asks, and never allocates the table.

use std::collections::BTreeMap;

use gpm_graph::{NodeId, NodeSet};

/// One cached match: its `δr`, its relevant set once built, and its row in
/// the distance table.
#[derive(Debug, Clone)]
struct Cached {
    /// `δr(uo, v)`; the set's length whenever the set is present.
    delta_r: u64,
    /// `R(uo, v)`, when it has been built since `δr` was last written.
    set: Option<NodeSet>,
    /// Row of this entry in the distance table.
    slot: usize,
}

/// Fixed bytes of one cached entry, key included, whether or not it holds
/// a set.
const ENTRY_BYTES: usize = std::mem::size_of::<NodeId>() + std::mem::size_of::<Cached>();

impl Cached {
    /// Bytes this entry holds: its fixed part plus its set's members.
    fn bytes(&self) -> usize {
        ENTRY_BYTES + self.set.as_ref().map_or(0, NodeSet::heap_bytes)
    }
}

/// Cached `δr(uo, v)` keyed by output match, with the relevant set
/// `R(uo, v)` (a sorted node-id set) where one was built, plus the `δd` of
/// each pair of sets once asked for.
#[derive(Debug, Clone, Default)]
pub struct RelevanceCache {
    entries: BTreeMap<NodeId, Cached>,
    /// Bytes of the cached entries and their sets, kept as a running count
    /// by every insert and `remove`.
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
    /// Inserts or replaces the relevant set of `v` (and with it `δr`, its
    /// length), dropping every stored `δd` that involves `v`.
    pub fn upsert(&mut self, v: NodeId, set: NodeSet) {
        self.insert(v, set.len() as u64, Some(set));
    }

    /// Inserts or replaces `δr` of `v` alone: a set cached for `v` is
    /// dropped with its stored `δd`s, since it may no longer be `v`'s.
    pub fn upsert_count(&mut self, v: NodeId, delta_r: u64) {
        self.insert(v, delta_r, None);
    }

    fn insert(&mut self, v: NodeId, delta_r: u64, set: Option<NodeSet>) {
        let slot = match self.entries.get(&v) {
            Some(old) => old.slot,
            None => self.free_slots.pop().unwrap_or_else(|| {
                self.slots += 1;
                self.slots - 1
            }),
        };
        self.forget_distances(slot);
        let entry = Cached { delta_r, set, slot };
        self.cache_bytes += entry.bytes();
        if let Some(old) = self.entries.insert(v, entry) {
            self.cache_bytes -= old.bytes();
        }
    }

    /// Drops the entry of `v` (the match disappeared). Its slot's stored
    /// distances are never read again; the next entry to take the slot
    /// clears them.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let Some(old) = self.entries.remove(&v) else { return false };
        self.cache_bytes -= old.bytes();
        self.free_slots.push(old.slot);
        true
    }

    /// `true` iff `v` has a cached set.
    pub fn contains(&self, v: NodeId) -> bool {
        self.entries.contains_key(&v)
    }

    /// Number of cached matches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cached matches, ascending by node id (the order
    /// [`crate::relevant_set::RelevantSets::matches`] uses).
    pub fn matches(&self) -> Vec<NodeId> {
        self.entries.keys().copied().collect()
    }

    /// `δr(uo, v)` from the cache.
    pub fn relevance_of(&self, v: NodeId) -> Option<u64> {
        self.entries.get(&v).map(|s| s.delta_r)
    }

    /// The cached set of `v`; `None` when `v` is not cached or holds only
    /// its `δr`.
    pub fn set_of(&self, v: NodeId) -> Option<&NodeSet> {
        self.entries.get(&v).and_then(|s| s.set.as_ref())
    }

    /// Cached matches that hold `δr` but no set, ascending by node id.
    pub fn count_only(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().filter(|(_, s)| s.set.is_none()).map(|(&v, _)| v)
    }

    /// `(node, δr)` for every cached match, ascending by node id, in
    /// `O(matches)`.
    pub fn relevances(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.entries.iter().map(|(&v, s)| (v, s.delta_r))
    }

    /// Bytes the cache holds: each entry's fixed bytes plus its set's
    /// members, 4 a member. Reads a running count, in O(1).
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Heap bytes of the stored distance table; 0 until [`Self::pairwise`]
    /// has kept one.
    pub fn distance_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<f64>()
    }

    /// Every cached match with its `δr` and a `δd` oracle over them, for
    /// the diversified greedy; every entry must hold its set. When a table
    /// over every slot fits
    /// `budget_bytes`, it is kept (grown if slots were opened), every pair
    /// of cached sets missing a distance gets one — the only Jaccards
    /// computed — and the oracle reads it. Past the budget the table is
    /// freed and the oracle computes each `δd` on call; the values are
    /// the same either way.
    pub fn pairwise(&mut self, budget_bytes: usize) -> Pairwise<'_> {
        let sets: Vec<(&NodeSet, usize)> = self
            .entries
            .values()
            .map(|s| (s.set.as_ref().expect("every cached match holds its set"), s.slot))
            .collect();
        let table = if tri(self.slots) * std::mem::size_of::<f64>() > budget_bytes {
            self.table = Vec::new();
            self.table_slots = 0;
            None
        } else {
            self.table.reserve_exact(tri(self.slots) - self.table.len());
            self.table.resize(tri(self.slots), f64::NAN);
            self.table_slots = self.slots;
            for (a, &(x, xs)) in sets.iter().enumerate() {
                for &(y, ys) in &sets[a + 1..] {
                    let d = &mut self.table[pair_index(xs, ys)];
                    if d.is_nan() {
                        *d = x.jaccard_distance(y);
                    }
                }
            }
            Some(self.table.as_slice())
        };
        Pairwise {
            nodes: self.entries.keys().copied().collect(),
            relevances: self.entries.values().map(|s| s.delta_r).collect(),
            sets,
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
    /// Each match's set and distance-table slot.
    sets: Vec<(&'a NodeSet, usize)>,
    table: Option<&'a [f64]>,
}

impl Pairwise<'_> {
    /// `δd` between the `i`-th and `j`-th match (`i ≠ j`): read from the
    /// stored table, or computed when the budget left none.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let ((a, sa), (b, sb)) = (self.sets[i], self.sets[j]);
        match self.table {
            Some(t) => t[pair_index(sa, sb)],
            None => a.jaccard_distance(b),
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
        // δr and the running byte count follow the entries after every
        // mutation: upsert, overwrite (smaller and larger), remove, reuse,
        // a count-only entry, and a count turning into a set and back.
        let mut c = RelevanceCache::default();
        let check = |c: &RelevanceCache| {
            let mut bytes = 0;
            for (v, r) in c.relevances() {
                if let Some(s) = c.set_of(v) {
                    assert_eq!(s.len() as u64, r, "match {v}");
                    bytes += 4 * s.len();
                }
                assert_eq!(c.relevance_of(v), Some(r));
                bytes += ENTRY_BYTES;
            }
            assert_eq!(c.cache_bytes(), bytes);
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
        assert_eq!(c.cache_bytes(), 2 * ENTRY_BYTES + 4 * 2);

        c.upsert_count(3, 6); // a count-only entry holds δr and no set
        assert_eq!((c.relevance_of(3), c.set_of(3)), (Some(6), None));
        assert_eq!(c.count_only().collect::<Vec<_>>(), vec![3]);
        check(&c);
        c.upsert(3, set(&[1, 2, 4, 5, 6, 9])); // the count turns into its set
        assert_eq!(c.relevance_of(3), Some(6));
        assert_eq!(c.count_only().count(), 0);
        check(&c);
        c.upsert_count(9, 2); // a new count drops the set it may contradict
        assert_eq!((c.relevance_of(9), c.set_of(9)), (Some(2), None));
        check(&c);
        assert_eq!(c.cache_bytes(), 3 * ENTRY_BYTES + 4 * (1 + 6));
        assert!(c.remove(9));
        check(&c);
    }

    /// Every stored δd equals a fresh Jaccard of the current sets after
    /// each upsert, overwrite, removal and slot reuse — and a zero budget
    /// keeps no table but answers the same.
    #[test]
    fn stored_distances_follow_every_set_change() {
        let mut c = RelevanceCache::default();
        let check = |c: &mut RelevanceCache| {
            let fresh: Vec<NodeSet> = c.entries.values().filter_map(|s| s.set.clone()).collect();
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
