//! Property-based tests (proptest) over the core invariants:
//!
//! * the refinement simulation equals the naive fixpoint and satisfies the
//!   definitional simulation + maximality checks;
//! * early-terminating top-k always returns a set with the same total
//!   relevance as the find-all baseline, under both selection strategies;
//! * every bound strategy produces sound upper bounds;
//! * `δd` (Jaccard over relevant sets) is a metric;
//! * `TopKDiv` respects its 2-approximation bound against brute force;
//! * the static relevant sets decode to the data nodes a plain BFS over
//!   `(u, v)` pairs finds, and their distances are Jaccard over those nodes;
//! * `graph/json.rs` round-trips attributed graphs and deltas through
//!   JSON text, and no truncated or mangled text makes it panic.

use std::collections::BTreeSet;

use diversified_topk::prelude::*;
use gpm_core::config::{DivConfig, SelectionStrategy};
use gpm_core::{top_k, top_k_by_match, top_k_diversified};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::json::{delta_from_value, graph_from_value, graph_to_value};
use gpm_graph::{AttrValue, Attributes, DeltaOp, GraphBuilder, GraphDelta};
use gpm_pattern::builder::label_pattern;
use gpm_ranking::bounds::{output_upper_bounds, BoundConfig, BoundStrategy};
use gpm_ranking::relevant_set::{relevant_set_of_pair, RelevantSets};
use gpm_simulation::SimRelation;
use proptest::prelude::*;

/// A random small labeled digraph.
fn arb_graph() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (3usize..28).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..4, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 3);
        (labels, edges)
    })
}

/// A small pattern over the same alphabet; index 0 is the output and must
/// reach every node (guaranteed by a chain skeleton + extra edges).
fn arb_pattern() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (1usize..5).prop_flat_map(|k| {
        let labels = proptest::collection::vec(0u32..4, k);
        let extra = proptest::collection::vec((0u32..k as u32, 0u32..k as u32), 0..k * 2);
        (labels, extra).prop_map(move |(labels, extra)| {
            let mut edges: Vec<(u32, u32)> = (1..k as u32).map(|i| (i - 1, i)).collect();
            edges.extend(extra.into_iter().filter(|(a, b)| a != b));
            edges.sort_unstable();
            edges.dedup();
            (labels, edges)
        })
    })
}

/// `R(u, v)` by plain BFS over `(u, v)` pairs: the data nodes of the match
/// pairs strictly reachable from `(u, v)` — `(u, v)` itself only through a
/// cycle.
fn bfs_relevant_set(g: &DiGraph, q: &Pattern, sim: &SimRelation, u: u32, v: u32) -> BTreeSet<u32> {
    let (mut seen, mut nodes) = (BTreeSet::new(), BTreeSet::new());
    let mut stack = vec![(u, v)];
    while let Some((u, v)) = stack.pop() {
        for &uc in q.successors(u) {
            for &w in g.successors(v) {
                if sim.contains(uc, w) && seen.insert((uc, w)) {
                    nodes.insert(w);
                    stack.push((uc, w));
                }
            }
        }
    }
    nodes
}

/// Characters the JSON generators draw from: JSON escapes, control
/// characters, and 2-, 3- and 4-byte UTF-8.
const CHARS: &[char] =
    &['a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', 'ß', '漢', '🦀'];

fn text_of(codes: &[usize]) -> String {
    codes.iter().map(|&c| CHARS[c % CHARS.len()]).collect()
}

/// Attribute values: integers within the 2^53 a JSON number carries
/// exactly, floats from raw bits (exponents within 2^±64, so the text
/// stays short: `serde_json`'s own tests cover the extreme exponents),
/// the non-finite and other edge floats, and strings.
fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    const EDGE: [f64; 8] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::EPSILON, -1.0, 9.0e15];
    (0u32..4, 0u64..u64::MAX, proptest::collection::vec(0usize..64, 0..4)).prop_map(
        |(kind, bits, codes)| match kind {
            0 => AttrValue::Int((bits % (1 << 54)) as i64 - (1 << 53)),
            1 => {
                // Random sign and mantissa, biased exponent 2^-64 … 2^63.
                let exponent = 1023 - 64 + (bits >> 52) % 128;
                AttrValue::Float(f64::from_bits((bits & !(0x7ff << 52)) | exponent << 52))
            }
            2 => AttrValue::Float(EDGE[(bits % 8) as usize]),
            _ => AttrValue::Str(text_of(&codes)),
        },
    )
}

/// A small attributed graph: any `u32` labels, duplicate edges and
/// self-loops, and attributes under keys that may be empty or non-ASCII.
fn arb_attr_graph() -> impl Strategy<Value = DiGraph> {
    (1usize..4).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..u32::MAX, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n + 2);
        let key = proptest::collection::vec(0usize..64, 0..3);
        let attrs = proptest::collection::vec((0u32..n as u32, key, arb_attr_value()), 0..n + 1);
        (labels, edges, attrs).prop_map(|(labels, edges, attrs)| {
            let mut per_node = vec![Attributes::new(); labels.len()];
            for (v, key, value) in attrs {
                per_node[v as usize].set(text_of(&key), value);
            }
            let mut b = GraphBuilder::new();
            for (label, a) in labels.into_iter().zip(per_node) {
                b.add_node_with_attrs(label, a);
            }
            for (s, t) in edges {
                b.add_edge(s, t).unwrap();
            }
            b.build()
        })
    })
}

/// One delta op of any of the six kinds, over any `u32` node ids.
fn arb_delta_op() -> impl Strategy<Value = DeltaOp> {
    let key = proptest::collection::vec(0usize..64, 0..3);
    (0u32..6, (0u32..u32::MAX, 0u32..u32::MAX), key, arb_attr_value()).prop_map(
        |(kind, (a, b), key, value)| match kind {
            0 => DeltaOp::AddNode(a),
            1 => DeltaOp::AddEdge(a, b),
            2 => DeltaOp::RemoveEdge(a, b),
            3 => DeltaOp::RemoveNode(a),
            4 => DeltaOp::SetAttr { node: a, key: text_of(&key), value },
            _ => DeltaOp::UnsetAttr { node: a, key: text_of(&key) },
        },
    )
}

/// Attribute values equal as stored: floats bit for bit, any NaN as NaN.
fn same_value(a: &AttrValue, b: &AttrValue) -> bool {
    match (a, b) {
        (AttrValue::Float(x), AttrValue::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

fn same_attrs(a: Option<&Attributes>, b: Option<&Attributes>) -> bool {
    let (a, b) = (a.cloned().unwrap_or_default(), b.cloned().unwrap_or_default());
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ka, va), (kb, vb))| ka == kb && same_value(va, vb))
}

fn same_op(a: &DeltaOp, b: &DeltaOp) -> bool {
    match (a, b) {
        (
            DeltaOp::SetAttr { node: na, key: ka, value: va },
            DeltaOp::SetAttr { node: nb, key: kb, value: vb },
        ) => na == nb && ka == kb && same_value(va, vb),
        _ => a == b,
    }
}

/// Feeds `decode` every char-boundary truncation of `text` and every
/// substitution of one character by an ASCII byte.
fn mangle(text: &str, decode: impl Fn(&str)) {
    let mut mangled = String::with_capacity(text.len());
    for (i, c) in text.char_indices() {
        decode(&text[..i]);
        for sub in 0..0x80u8 {
            mangled.clear();
            mangled.push_str(&text[..i]);
            mangled.push(sub as char);
            mangled.push_str(&text[i + c.len_utf8()..]);
            decode(&mangled);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_matches_naive_and_is_maximal(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        prop_assert!(gpm_simulation::naive::agrees_with_naive(&g, &q, &sim));
        prop_assert!(sim.verify_is_simulation(&g, &q));
        prop_assert!(sim.verify_is_maximum(&g, &q));
    }

    #[test]
    fn early_termination_matches_baseline(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let base = top_k_by_match(&g, &q, &TopKConfig::new(k));
        for strategy in [SelectionStrategy::Optimized, SelectionStrategy::Random { seed }] {
            let mut cfg = TopKConfig::new(k);
            cfg.strategy = strategy;
            let fast = top_k(&g, &q, &cfg);
            prop_assert_eq!(fast.matches.len(), base.matches.len());
            prop_assert_eq!(fast.total_relevance(), base.total_relevance());
            // The returned relevances are the true δr multiset prefix.
            let base_rel: Vec<u64> = base.matches.iter().map(|m| m.relevance).collect();
            let fast_rel: Vec<u64> = fast.matches.iter().map(|m| m.relevance).collect();
            prop_assert_eq!(base_rel, fast_rel);
        }
    }

    #[test]
    fn bounds_are_sound(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        let h = output_upper_bounds(&g, &q, sim.space(), BoundStrategy::default(), &BoundConfig);
        for (i, &v) in sim.space().candidates(q.output()).iter().enumerate() {
            if let Some(d) = rs.relevance_of(v) {
                prop_assert!(h[i] >= d, "h={} < δr={d}", h[i]);
            }
        }
    }

    #[test]
    fn jaccard_distance_is_metric(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        let n = rs.len().min(6);
        let eps = 1e-9;
        for i in 0..n {
            prop_assert!(rs.distance(i, i).abs() < eps);
            for j in 0..n {
                prop_assert!((rs.distance(i, j) - rs.distance(j, i)).abs() < eps);
                prop_assert!(rs.distance(i, j) >= -eps && rs.distance(i, j) <= 1.0 + eps);
                for l in 0..n {
                    prop_assert!(
                        rs.distance(i, j) <= rs.distance(i, l) + rs.distance(l, j) + eps
                    );
                }
            }
        }
    }

    #[test]
    fn topkdiv_two_approximation(
        (labels, edges) in arb_graph(),
        lambda in 0.0f64..1.0,
        k in 2usize..4,
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let cfg = DivConfig::new(k, lambda);
        let approx = top_k_diversified(&g, &q, &cfg);
        let opt = gpm_core::topk_div::optimal_diversified(&g, &q, &cfg);
        prop_assert!(approx.f_value * 2.0 >= opt.f_value - 1e-9);
        prop_assert!(opt.f_value >= approx.f_value - 1e-9);
    }

    // `arb_pattern`'s extra edges make both DAG and cyclic patterns.
    #[test]
    fn static_relevant_sets_decode_to_the_bfs_sets(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
    ) {
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        prop_assert_eq!(rs.matches(), &sim.output_matches(&q)[..]);
        let bfs: Vec<BTreeSet<u32>> =
            rs.matches().iter().map(|&v| bfs_relevant_set(&g, &q, &sim, q.output(), v)).collect();
        for (i, want) in bfs.iter().enumerate() {
            prop_assert_eq!(rs.set_node_ids(i), want.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(rs.relevance(i), want.len() as u64);
        }
        for u in q.nodes() {
            for v in sim.matches_of(u) {
                let want: Vec<u32> = bfs_relevant_set(&g, &q, &sim, u, v).into_iter().collect();
                prop_assert_eq!(relevant_set_of_pair(&g, &q, &sim, u, v), Some(want));
            }
        }
        for (i, a) in bfs.iter().enumerate() {
            for (j, b) in bfs.iter().enumerate() {
                let union = a.union(b).count();
                let want = if union == 0 {
                    0.0
                } else {
                    1.0 - a.intersection(b).count() as f64 / union as f64
                };
                prop_assert_eq!(rs.distance(i, j).to_bits(), want.to_bits(), "δd({}, {})", i, j);
            }
        }
    }

    // The delta-log encoding round-trips generated attributed graphs and
    // deltas through `serde_json` text — decoded values equal the
    // originals, and re-encoding gives the same bytes — and no truncated
    // or mangled text makes either decoder panic.
    #[test]
    fn graph_json_roundtrips_and_never_panics(
        g in arb_attr_graph(),
        ops in proptest::collection::vec(arb_delta_op(), 0..4),
    ) {
        let text = serde_json::to_string(&graph_to_value(&g)).unwrap();
        let back = graph_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(back.label(v), g.label(v));
            prop_assert_eq!(back.successors(v), g.successors(v));
            prop_assert!(same_attrs(back.attributes(v), g.attributes(v)), "node {} via {}", v, text);
        }
        prop_assert_eq!(serde_json::to_string(&graph_to_value(&back)).unwrap(), text.clone());

        let delta = GraphDelta { ops };
        let dtext = serde_json::to_string(&delta).unwrap();
        let dback = delta_from_value(&serde_json::from_str(&dtext).unwrap()).unwrap();
        prop_assert_eq!(dback.ops.len(), delta.ops.len());
        prop_assert!(delta.ops.iter().zip(&dback.ops).all(|(a, b)| same_op(a, b)), "{}", dtext);
        prop_assert_eq!(serde_json::to_string(&dback).unwrap(), dtext.clone());

        mangle(&text, |t| {
            if let Ok(v) = serde_json::from_str(t) {
                let _ = graph_from_value(&v);
            }
        });
        mangle(&dtext, |t| {
            if let Ok(v) = serde_json::from_str(t) {
                let _ = delta_from_value(&v);
            }
        });
    }
}
