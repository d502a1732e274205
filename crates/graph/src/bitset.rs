//! Word-packed bitset over a universe `0..len`.
//!
//! Relevant sets `R(u,v)` (Section 3.1 of the paper) are sets of data-graph
//! nodes; the top-k algorithms take unions of them during propagation and the
//! diversification functions need `|R₁ ∩ R₂|` / `|R₁ ∪ R₂|` for the Jaccard
//! distance `δd`. A word-packed bitset over a per-query compact universe makes
//! every one of those operations a linear scan over `len/64` machine words.
//! Both operands of a pairwise operation (and of `==`) share one universe,
//! so they have the same capacity. Sets that outlive a universe — the
//! dynamic path's, over node ids of a growing graph — are
//! [`NodeSet`](crate::NodeSet)s instead.

/// A fixed-capacity bitset; the capacity is chosen at construction time.
#[derive(Clone)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl BitSet {
    /// Creates an empty bitset able to hold bits `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; word_count(len)], len }
    }

    /// Creates a bitset with every bit in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim_tail();
        s
    }

    /// Builds a bitset from an iterator of bit indices.
    pub fn from_iter(len: usize, bits: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(len);
        for b in bits {
            s.insert(b);
        }
        s
    }

    /// Number of bits this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Sets bit `i`. Returns `true` if the bit was newly set.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words.get(w).is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits, keeping the capacity.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place union. Returns `true` if any new bit was added (used by the
    /// propagation engine to detect that a relevant set actually grew).
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.same_universe(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        self.same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.same_universe(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// `|self ∪ other|` without allocating.
    pub fn union_count(&self, other: &BitSet) -> usize {
        self.same_universe(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a | b).count_ones() as usize).sum()
    }

    /// Jaccard distance `1 - |A∩B| / |A∪B|`; two empty sets have distance 0.
    ///
    /// This is exactly the paper's `δd(v1,v2)` (Section 3.2) when applied to
    /// relevant sets, and it is a metric: symmetric and triangle-inequal.
    pub fn jaccard_distance(&self, other: &BitSet) -> f64 {
        let union = self.union_count(other);
        if union == 0 {
            return 0.0;
        }
        let inter = self.intersection_count(other);
        1.0 - inter as f64 / union as f64
    }

    /// `true` if the sets share no bit.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.same_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` if every bit of `self` is set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.same_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Memory footprint of the payload in bytes (for budget accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Pairwise operations take operands over one universe.
    #[inline]
    fn same_universe(&self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len, "operands over different universes");
    }

    fn trim_tail(&mut self) {
        let extra = self.words.len() * WORD_BITS - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

/// Same members of the same universe.
impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.same_universe(other);
        self.words == other.words
    }
}

impl Eq for BitSet {}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over set bits.
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + tz)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = BitIter<'a>;
    fn into_iter(self) -> BitIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_intersection_difference() {
        let a = BitSet::from_iter(100, [1, 5, 70]);
        let b = BitSet::from_iter(100, [5, 70, 99]);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert!(!u.union_with(&b), "second union is a no-op");
        assert_eq!(u.count(), 4);
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.union_count(&b), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 70]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn jaccard_matches_paper_fractions() {
        // δd(PM1, PM2) = 10/11 in Example 5: |∩|=1, |∪|=11.
        let r1 = BitSet::from_iter(16, [0, 1, 2, 3]);
        let r2 = BitSet::from_iter(16, [3, 4, 5, 6, 7, 8, 9, 10]);
        let d = r1.jaccard_distance(&r2);
        assert!((d - 10.0 / 11.0).abs() < 1e-12);
        // identical sets → 0; disjoint sets → 1; empty/empty → 0.
        assert_eq!(r1.jaccard_distance(&r1), 0.0);
        let r3 = BitSet::from_iter(16, [11, 12]);
        assert_eq!(r1.jaccard_distance(&r3), 1.0);
        let e = BitSet::new(16);
        assert_eq!(e.jaccard_distance(&BitSet::new(16)), 0.0);
    }

    #[test]
    fn full_and_trim() {
        let f = BitSet::full(67);
        assert_eq!(f.count(), 67);
        assert!(f.contains(66));
        let f64b = BitSet::full(64);
        assert_eq!(f64b.count(), 64);
    }

    #[test]
    fn subset_disjoint() {
        let a = BitSet::from_iter(40, [3, 9]);
        let b = BitSet::from_iter(40, [3, 9, 20]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let c = BitSet::from_iter(40, [1]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iter_ascending() {
        let s = BitSet::from_iter(300, [299, 0, 64, 65, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 65, 128, 299]);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = BitSet::from_iter(10, [1, 2]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
