//! Sorted set of data-node ids.
//!
//! The dynamic path keeps relevant sets `R(u,v)` and the condensation's
//! `Full(c)` across batches, keyed by stable node ids. Most of them hold a
//! handful of nodes of a graph with tens of thousands, so a [`BitSet`]
//! as wide as the graph would pay for every node it does not hold, in
//! bytes and in every count, union and Jaccard. A [`NodeSet`] holds only
//! its members: distinct ids, ascending, in a boxed slice — 4 bytes a
//! member, the count is the length, and `|A ∩ B|` is one merge.
//!
//! [`NodeSet::jaccard_distance`] evaluates the same expression over the
//! same two integers as [`BitSet::jaccard_distance`], so a `δd` is equal
//! bit for bit whichever representation the sets were held in.

use crate::bitset::BitSet;
use crate::digraph::NodeId;

/// Distinct node ids in ascending order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    ids: Box<[NodeId]>,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Sorts and deduplicates `buf` and copies it into a new set, leaving
    /// `buf` empty with its capacity kept — the scratch buffer a caller
    /// reuses across many builds.
    pub fn from_scratch(buf: &mut Vec<NodeId>) -> Self {
        buf.sort_unstable();
        buf.dedup();
        let set = NodeSet { ids: buf.as_slice().into() };
        buf.clear();
        set
    }

    /// The members of `bits`.
    pub fn from_bits(bits: &BitSet) -> Self {
        NodeSet { ids: bits.iter().map(|i| i as NodeId).collect() }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// `true` if `v` is a member.
    pub fn contains(&self, v: NodeId) -> bool {
        self.ids.binary_search(&v).is_ok()
    }

    /// The members, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, NodeId>> {
        self.ids.iter().copied()
    }

    /// `|self ∩ other|`, by one merge of the two sorted slices.
    pub fn intersection_count(&self, other: &NodeSet) -> usize {
        let (a, b) = (&*self.ids, &*other.ids);
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Jaccard distance `1 - |A∩B| / |A∪B|`; two empty sets have distance
    /// 0. The same expression as [`BitSet::jaccard_distance`], so equal
    /// members give equal bits.
    pub fn jaccard_distance(&self, other: &NodeSet) -> f64 {
        let inter = self.intersection_count(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            return 0.0;
        }
        1.0 - inter as f64 / union as f64
    }

    /// Memory footprint of the members in bytes (for budget accounting).
    pub fn heap_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<NodeId>()
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_build_sorts_dedups_and_keeps_the_buffer() {
        let mut buf = vec![9, 3, 3, 0, 9, 7];
        let cap = buf.capacity();
        let s = NodeSet::from_scratch(&mut buf);
        assert_eq!(s.as_slice(), &[0, 3, 7, 9]);
        assert!(buf.is_empty() && buf.capacity() == cap, "scratch reused, not freed");
        assert_eq!(s.len(), 4);
        assert_eq!(s.heap_bytes(), 16, "4 bytes a member");
        assert!(s.contains(7) && !s.contains(8));
    }

    #[test]
    fn counts_and_jaccard_match_the_paper_fractions() {
        // δd(PM1, PM2) = 10/11 in Example 5: |∩|=1, |∪|=11.
        let r1 = NodeSet::from_scratch(&mut vec![0, 1, 2, 3]);
        let r2 = NodeSet::from_scratch(&mut vec![3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(r1.intersection_count(&r2), 1);
        assert!((r1.jaccard_distance(&r2) - 10.0 / 11.0).abs() < 1e-12);
        assert_eq!(r1.jaccard_distance(&r1), 0.0);
        assert_eq!(r1.jaccard_distance(&NodeSet::from_scratch(&mut vec![11, 12])), 1.0);
        assert_eq!(NodeSet::new().jaccard_distance(&NodeSet::new()), 0.0);
    }

    #[test]
    fn from_bits_keeps_the_members() {
        let bits = BitSet::from_iter(300, [299, 0, 64, 65]);
        let s = NodeSet::from_bits(&bits);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 65, 299]);
        assert_eq!(s.heap_bytes(), 16, "members, not the width");
    }
}
