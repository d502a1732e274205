//! Property suite for the set substrate — relevant-set algebra must be
//! beyond doubt since every ranking quantity is derived from it. The
//! static path holds relevant sets as `BitSet`s and the dynamic path as
//! `NodeSet`s; the two paths' answers are compared bit for bit, so the
//! two representations must give bit-identical `δd`.

use diversified_topk::graph::{BitSet, NodeSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn model_of(bits: &[usize]) -> BTreeSet<usize> {
    bits.iter().copied().collect()
}

fn node_set(bits: &[usize]) -> NodeSet {
    NodeSet::from_scratch(&mut bits.iter().map(|&b| b as u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_btreeset_model(
        a in proptest::collection::vec(0usize..200, 0..60),
        b in proptest::collection::vec(0usize..200, 0..60),
    ) {
        let (ma, mb) = (model_of(&a), model_of(&b));
        let sa = BitSet::from_iter(200, a.iter().copied());
        let sb = BitSet::from_iter(200, b.iter().copied());

        prop_assert_eq!(sa.count(), ma.len());
        prop_assert_eq!(sa.iter().collect::<Vec<_>>(), ma.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.intersection_count(&sb), ma.intersection(&mb).count());
        prop_assert_eq!(sa.union_count(&sb), ma.union(&mb).count());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));

        let mut u = sa.clone();
        let changed = u.union_with(&sb);
        prop_assert_eq!(changed, !mb.is_subset(&ma));
        prop_assert_eq!(u.count(), ma.union(&mb).count());

        let mut i = sa.clone();
        i.intersect_with(&sb);
        prop_assert_eq!(i.count(), ma.intersection(&mb).count());

        let mut d = sa.clone();
        d.difference_with(&sb);
        prop_assert_eq!(d.count(), ma.difference(&mb).count());
    }

    #[test]
    fn jaccard_axioms(
        a in proptest::collection::vec(0usize..128, 0..40),
        b in proptest::collection::vec(0usize..128, 0..40),
        c in proptest::collection::vec(0usize..128, 0..40),
    ) {
        let sa = BitSet::from_iter(128, a);
        let sb = BitSet::from_iter(128, b);
        let sc = BitSet::from_iter(128, c);
        let d = |x: &BitSet, y: &BitSet| x.jaccard_distance(y);
        prop_assert!(d(&sa, &sa).abs() < 1e-12);
        prop_assert!((d(&sa, &sb) - d(&sb, &sa)).abs() < 1e-12);
        prop_assert!(d(&sa, &sb) >= 0.0 && d(&sa, &sb) <= 1.0);
        prop_assert!(d(&sa, &sb) <= d(&sa, &sc) + d(&sc, &sb) + 1e-12);
    }

    #[test]
    fn node_set_matches_btreeset_model(
        a in proptest::collection::vec(0usize..200, 0..60),
        b in proptest::collection::vec(0usize..200, 0..60),
    ) {
        let (ma, mb) = (model_of(&a), model_of(&b));
        let (sa, sb) = (node_set(&a), node_set(&b));

        prop_assert_eq!(sa.len(), ma.len());
        prop_assert_eq!(sa.is_empty(), ma.is_empty());
        prop_assert_eq!(sa.heap_bytes(), 4 * ma.len());
        prop_assert_eq!(
            sa.iter().map(|x| x as usize).collect::<Vec<_>>(),
            ma.iter().copied().collect::<Vec<_>>()
        );
        for x in 0..200u32 {
            prop_assert_eq!(sa.contains(x), ma.contains(&(x as usize)));
        }
        prop_assert_eq!(sa.intersection_count(&sb), ma.intersection(&mb).count());
        prop_assert_eq!(sa == sb, ma == mb);
        let bits = BitSet::from_iter(200, a.iter().copied());
        prop_assert_eq!(NodeSet::from_bits(&bits), sa);
    }

    #[test]
    fn node_set_jaccard_equals_bitset_jaccard_bit_for_bit(
        a in proptest::collection::vec(0usize..128, 0..40),
        b in proptest::collection::vec(0usize..128, 0..40),
    ) {
        let want = BitSet::from_iter(128, a.iter().copied())
            .jaccard_distance(&BitSet::from_iter(128, b.iter().copied()));
        let (sa, sb) = (node_set(&a), node_set(&b));
        prop_assert_eq!(sa.jaccard_distance(&sb).to_bits(), want.to_bits());
        prop_assert_eq!(sb.jaccard_distance(&sa).to_bits(), want.to_bits());
    }

    #[test]
    fn insert_remove_roundtrip(bits in proptest::collection::vec(0usize..300, 0..80)) {
        let mut s = BitSet::new(300);
        for &b in &bits {
            s.insert(b);
        }
        for &b in &bits {
            prop_assert!(s.contains(b));
        }
        for &b in &bits {
            s.remove(b);
        }
        prop_assert!(s.is_empty());
    }
}
