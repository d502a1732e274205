//! Differential property harness for [`PatternRegistry`].
//!
//! The registry's one promise: sharing graph application, candidate
//! indexing and the maintenance pool across N patterns changes **nothing**
//! about any answer. For generated update streams (insert-only /
//! delete-only / mixed, via `gpm_datagen::update_stream`, with or without
//! attribute mutations mixed in), after **every** batch and for **every**
//! registered pattern — label-only or carrying full attribute-predicate
//! trees — the registry must agree bit-for-bit with
//!
//! 1. an independent [`DynamicMatcher`] serving the same pattern over its
//!    own private graph, and
//! 2. the static pipeline (`top_k_by_match` / `top_k_cyclic` /
//!    `top_k_diversified`) recomputing from scratch on `snapshot()`,
//!
//! including patterns registered mid-stream (which must answer as if built
//! from the snapshot at registration time) and after deregistrations.

use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::{top_k_by_match, top_k_cyclic, top_k_diversified};
use gpm_datagen::update_stream::{attr_key, update_stream, UpdateStreamConfig};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{AttrValue, Attributes, DiGraph, GraphBuilder};
use gpm_incremental::{DynamicMatcher, IncrementalConfig, PatternId, PatternRegistry};
use gpm_pattern::builder::label_pattern;
use gpm_pattern::{CmpOp, Pattern, PatternBuilder, Predicate};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const LABELS: u32 = 4;
/// Attribute alphabet shared by graphs, streams and pattern predicates —
/// streams mutate [`attr_key`]`(0..ATTR_KEYS)` with ints below
/// `ATTR_VALUES`, so generated thresholds actually flip candidacy.
const ATTR_KEYS: u32 = 3;
const ATTR_VALUES: i64 = 8;

fn random_graph(rng: &mut StdRng, n: usize, density: usize) -> DiGraph {
    let node_labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..LABELS)).collect();
    let m = rng.random_range(0..n * density + 1);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
        .filter(|(a, b)| a != b)
        .collect();
    graph_from_parts(&node_labels, &edges).unwrap()
}

/// As [`random_graph`], with ~half the nodes carrying initial attributes
/// over the shared alphabet (so attribute predicates have matches before
/// the stream's first `SetAttr` lands).
fn random_attr_graph(rng: &mut StdRng, n: usize, density: usize) -> DiGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let label = rng.random_range(0..LABELS);
        if rng.random_range(0..2u32) == 0 {
            let mut pairs: Vec<(String, AttrValue)> = Vec::new();
            for k in 0..ATTR_KEYS {
                if rng.random_range(0..2u32) == 0 {
                    pairs.push((attr_key(k), AttrValue::Int(rng.random_range(0..ATTR_VALUES))));
                }
            }
            b.add_node_with_attrs(label, Attributes::from_pairs(pairs));
        } else {
            b.add_node(label);
        }
    }
    let m = rng.random_range(0..n * density + 1);
    for _ in 0..m {
        let s = rng.random_range(0..n as u32);
        let t = rng.random_range(0..n as u32);
        if s != t {
            b.add_edge(s, t).unwrap();
        }
    }
    b.build()
}

fn random_pattern(rng: &mut StdRng) -> Pattern {
    let pn = rng.random_range(1..5usize);
    let plabels: Vec<u32> = (0..pn).map(|_| rng.random_range(0..LABELS)).collect();
    let mut pedges: Vec<(u32, u32)> = (1..pn as u32).map(|i| (i - 1, i)).collect();
    for _ in 0..rng.random_range(0..pn * 2) {
        let a = rng.random_range(0..pn as u32);
        let b = rng.random_range(0..pn as u32);
        if a != b && !pedges.contains(&(a, b)) {
            pedges.push((a, b));
        }
    }
    label_pattern(&plabels, &pedges, 0).unwrap()
}

/// A random condition over the shared attribute alphabet.
fn random_attr_condition(rng: &mut StdRng) -> Predicate {
    let key = attr_key(rng.random_range(0..ATTR_KEYS));
    let op = match rng.random_range(0..4u32) {
        0 => CmpOp::Ge,
        1 => CmpOp::Lt,
        2 => CmpOp::Eq,
        _ => CmpOp::Ne,
    };
    Predicate::attr(key, op, rng.random_range(0..ATTR_VALUES))
}

/// As [`random_pattern`], but ~60% of the nodes carry attribute conditions
/// on top of their label — single comparisons, conjunctions, and the
/// occasional disjunction, over the keys the streams actually mutate.
fn random_attr_pattern(rng: &mut StdRng) -> Pattern {
    let pn = rng.random_range(1..5usize);
    let mut b = PatternBuilder::new();
    for i in 0..pn {
        let label = rng.random_range(0..LABELS);
        let pred = match rng.random_range(0..5u32) {
            0 | 1 => Predicate::Label(label),
            2 => Predicate::labeled(label, [random_attr_condition(rng)]),
            3 => {
                Predicate::labeled(label, [random_attr_condition(rng), random_attr_condition(rng)])
            }
            _ => Predicate::labeled(
                label,
                [Predicate::Or(vec![random_attr_condition(rng), random_attr_condition(rng)])],
            ),
        };
        b.node(format!("u{i}"), pred);
    }
    for i in 1..pn as u32 {
        b.edge(i - 1, i).unwrap();
    }
    for _ in 0..rng.random_range(0..pn * 2) {
        let s = rng.random_range(0..pn as u32);
        let t = rng.random_range(0..pn as u32);
        if s != t {
            let _ = b.edge(s, t);
        }
    }
    b.output(0).unwrap();
    b.build().unwrap()
}

/// The differential oracle: one pattern's registry answer vs its
/// independent matcher vs static recompute on the registry snapshot.
fn assert_pattern_agrees(
    reg: &PatternRegistry,
    id: PatternId,
    matcher: &mut DynamicMatcher,
    snap: &DiGraph,
    k: usize,
    lambda: f64,
    ctx: &str,
) {
    let q = &matcher.pattern().clone();

    // Registry vs independent matcher: identical nodes AND δr values.
    let reg_top = reg.top_k(id).expect("registered");
    let ind_top = matcher.top_k();
    assert_eq!(reg_top.nodes(), ind_top.nodes(), "registry vs matcher nodes: {ctx}");
    let reg_rel: Vec<u64> = reg_top.matches.iter().map(|r| r.relevance).collect();
    let ind_rel: Vec<u64> = ind_top.matches.iter().map(|r| r.relevance).collect();
    assert_eq!(reg_rel, ind_rel, "registry vs matcher δr: {ctx}");

    // Registry vs static recompute on the shared snapshot.
    let base = top_k_by_match(snap, q, &TopKConfig::new(k));
    assert_eq!(reg_top.nodes(), base.nodes(), "registry vs static nodes: {ctx}");
    let base_rel: Vec<u64> = base.matches.iter().map(|r| r.relevance).collect();
    assert_eq!(reg_rel, base_rel, "registry vs static δr: {ctx}");

    // The early-terminating static algorithm agrees on the total.
    let fast = top_k_cyclic(snap, q, &TopKConfig::new(k));
    assert_eq!(fast.total_relevance(), reg_top.total_relevance(), "vs top_k_cyclic: {ctx}");

    // Diversified: identical selection and F-value (same greedy, same
    // ties, same normalizer) across all three paths.
    let reg_div = reg.diversified(id, lambda).expect("registered");
    let ind_div = matcher.diversified(lambda);
    let base_div = top_k_diversified(snap, q, &DivConfig::new(k, lambda));
    assert_eq!(reg_div.nodes(), ind_div.nodes(), "diversified registry vs matcher: {ctx}");
    assert_eq!(reg_div.nodes(), base_div.nodes(), "diversified registry vs static: {ctx}");
    assert!(
        (reg_div.f_value - base_div.f_value).abs() < 1e-9,
        "F diverged: {} vs {} ({ctx})",
        reg_div.f_value,
        base_div.f_value
    );
    assert!(
        (reg_div.f_value - ind_div.f_value).abs() < 1e-9,
        "F registry vs matcher: {} vs {} ({ctx})",
        reg_div.f_value,
        ind_div.f_value
    );
}

struct StreamSpec {
    insert_fraction: f64,
    node_churn: f64,
    /// Fraction of stream ops that are attribute mutations; > 0.0 also
    /// switches the trial to attribute-carrying graphs and patterns.
    attr_churn: f64,
}

const INSERT_ONLY: StreamSpec =
    StreamSpec { insert_fraction: 1.0, node_churn: 0.15, attr_churn: 0.0 };
const DELETE_ONLY: StreamSpec =
    StreamSpec { insert_fraction: 0.0, node_churn: 0.15, attr_churn: 0.0 };
const MIXED: StreamSpec = StreamSpec { insert_fraction: 0.55, node_churn: 0.15, attr_churn: 0.0 };
/// Structural + attribute churn mixed in one stream.
const ATTR_MIXED: StreamSpec =
    StreamSpec { insert_fraction: 0.55, node_churn: 0.15, attr_churn: 0.45 };
/// Every op is an attribute mutation (batches contain no structural op).
const ATTR_ONLY: StreamSpec =
    StreamSpec { insert_fraction: 0.55, node_churn: 0.0, attr_churn: 1.0 };

/// One end-to-end differential trial: N patterns, one generated stream,
/// full oracle after every batch. `forced` maxes the thresholds so the
/// incremental path has no rebuild safety net to hide behind.
fn run_differential(spec: &StreamSpec, seed: u64, trials: usize, forced: bool) {
    let attrs = spec.attr_churn > 0.0;
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let n = rng.random_range(8..30usize);
        let g =
            if attrs { random_attr_graph(&mut rng, n, 3) } else { random_graph(&mut rng, n, 3) };
        let n_patterns = rng.random_range(2..6usize);

        let mut reg = PatternRegistry::with_threads(&g, 3);
        let mut matchers: Vec<DynamicMatcher> = Vec::new();
        let mut handles: Vec<(PatternId, usize, f64)> = Vec::new();
        for _ in 0..n_patterns {
            let q = if attrs { random_attr_pattern(&mut rng) } else { random_pattern(&mut rng) };
            let k = rng.random_range(1..5usize);
            let lambda = rng.random_range(0.0..1.0f64);
            let mut cfg = IncrementalConfig::new(k).lambda(lambda);
            if forced {
                cfg.max_dirty_fraction = f64::INFINITY;
            }
            let id = reg.register(q.clone(), cfg.clone()).unwrap();
            matchers.push(DynamicMatcher::new(&g, q, cfg).unwrap());
            handles.push((id, k, lambda));
        }

        let stream_cfg = UpdateStreamConfig {
            batches: rng.random_range(4..8usize),
            batch_size: rng.random_range(1..6usize),
            insert_fraction: spec.insert_fraction,
            node_churn: spec.node_churn,
            attr_churn: spec.attr_churn,
            attr_keys: ATTR_KEYS,
            attr_values: ATTR_VALUES,
            labels: LABELS,
            seed: seed ^ (trial as u64) << 7,
        };
        for (step, delta) in update_stream(&g, &stream_cfg).iter().enumerate() {
            reg.apply(delta).unwrap();
            let snap = reg.snapshot();
            for (i, m) in matchers.iter_mut().enumerate() {
                m.apply(delta).unwrap();
                // The shared graph and the private mirrors stay in lockstep.
                assert_eq!(reg.graph().edge_count(), m.graph().edge_count());
                assert_eq!(reg.graph().node_count(), m.graph().node_count());
                let (id, k, lambda) = handles[i];
                let ctx =
                    format!("trial {trial} step {step} pattern {i} (forced={forced}): {delta:?}");
                assert_pattern_agrees(&reg, id, m, &snap, k, lambda, &ctx);
            }
        }
        if forced {
            // No rank-refresh fallback may have fired on any pattern.
            for &(id, _, _) in &handles {
                assert_eq!(reg.stats_of(id).unwrap().full_rank_refreshes, 0);
            }
        }
    }
}

#[test]
fn insert_only_streams_registry_agrees_with_matchers_and_static() {
    run_differential(&INSERT_ONLY, 0x5EED_0001, 10, false);
}

#[test]
fn delete_only_streams_registry_agrees_with_matchers_and_static() {
    run_differential(&DELETE_ONLY, 0x5EED_0002, 10, false);
}

#[test]
fn mixed_streams_registry_agrees_with_matchers_and_static() {
    run_differential(&MIXED, 0x5EED_0003, 14, false);
}

#[test]
fn forced_incremental_registry_agrees() {
    run_differential(&MIXED, 0x5EED_0004, 10, true);
    run_differential(&DELETE_ONLY, 0x5EED_0005, 6, true);
}

#[test]
fn attr_mixed_streams_registry_agrees_with_matchers_and_static() {
    run_differential(&ATTR_MIXED, 0x5EED_0A01, 14, false);
}

#[test]
fn attr_only_streams_registry_agrees_with_matchers_and_static() {
    run_differential(&ATTR_ONLY, 0x5EED_0A02, 10, false);
}

#[test]
fn forced_incremental_attr_streams_agree() {
    run_differential(&ATTR_MIXED, 0x5EED_0A03, 10, true);
    run_differential(&ATTR_ONLY, 0x5EED_0A04, 6, true);
}

/// Stress variants for the nightly CI job: same oracles, an order of
/// magnitude more trials. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "stress variant — run explicitly or via the nightly CI job"]
fn stress_attr_differential() {
    run_differential(&ATTR_MIXED, 0x5EED_5001, 80, false);
    run_differential(&ATTR_ONLY, 0x5EED_5002, 50, false);
    run_differential(&ATTR_MIXED, 0x5EED_5003, 50, true);
}

#[test]
#[ignore = "stress variant — run explicitly or via the nightly CI job"]
fn stress_structural_differential() {
    run_differential(&MIXED, 0x5EED_5004, 80, false);
    run_differential(&MIXED, 0x5EED_5005, 50, true);
    run_differential(&INSERT_ONLY, 0x5EED_5006, 40, false);
    run_differential(&DELETE_ONLY, 0x5EED_5007, 40, false);
}

/// The stored `δd` table is answer-invisible. On attr-mixed streams with
/// node growth and tombstones, after every batch, a registry that keeps
/// distances across calls and a `budget_bytes: 0` twin that never keeps
/// any serve the same diversified answers, `F` bits included, and both
/// equal `top_k_diversified` on the snapshot. The twin, and a
/// Relevance-only pattern nobody asks a diversified answer of, hold no
/// table; the roomy registry does. Patterns registered mid-stream build
/// their state from the graph's shared snapshot.
#[test]
fn stored_distances_equal_a_zero_budget_twin_and_static() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0D01);
    let mut tables_kept = 0usize;
    for trial in 0..24 {
        let n = rng.random_range(20..40usize);
        let g = random_attr_graph(&mut rng, n, 4);
        let mut kept = PatternRegistry::with_threads(&g, 2);
        let mut starved = PatternRegistry::with_threads(&g, 1);
        let relevance_only =
            kept.register(random_attr_pattern(&mut rng), IncrementalConfig::new(3)).unwrap();
        let mut patterns = Vec::new();
        let stream = update_stream(
            &g,
            &UpdateStreamConfig {
                batches: 8,
                batch_size: rng.random_range(1..6usize),
                insert_fraction: ATTR_MIXED.insert_fraction,
                node_churn: ATTR_MIXED.node_churn,
                attr_churn: ATTR_MIXED.attr_churn,
                attr_keys: ATTR_KEYS,
                attr_values: ATTR_VALUES,
                labels: LABELS,
                seed: 0x0D01 ^ (trial as u64) << 7,
            },
        );
        for (step, delta) in stream.iter().enumerate() {
            if step % 3 == 0 {
                let q = if step % 2 == 0 {
                    random_pattern(&mut rng)
                } else {
                    random_attr_pattern(&mut rng)
                };
                let k = rng.random_range(1..7usize);
                let lambda = [0.0, 0.25, 0.5, 1.0][rng.random_range(0..4usize)];
                let cfg = IncrementalConfig::new(k).lambda(lambda);
                let mut zero = cfg.clone();
                zero.reach.budget_bytes = 0;
                let a = kept.register(q.clone(), cfg).unwrap();
                let b = starved.register(q.clone(), zero).unwrap();
                patterns.push((q, k, lambda, a, b));
            }
            kept.apply(delta).unwrap();
            starved.apply(delta).unwrap();
            let snap = kept.snapshot();
            for (i, (q, k, lambda, a, b)) in patterns.iter().enumerate() {
                let ctx = format!("trial {trial} step {step} pattern {i}");
                let x = kept.top_k_diversified(*a).unwrap();
                let y = starved.top_k_diversified(*b).unwrap();
                let z = top_k_diversified(&snap, q, &DivConfig::new(*k, *lambda));
                assert_eq!(x.nodes(), y.nodes(), "kept vs zero budget: {ctx}");
                assert_eq!(x.f_value.to_bits(), y.f_value.to_bits(), "kept vs zero budget: {ctx}");
                assert_eq!(x.nodes(), z.nodes(), "kept vs static: {ctx}");
                assert_eq!(x.f_value.to_bits(), z.f_value.to_bits(), "kept vs static: {ctx}");
                assert_eq!(starved.pattern_info(*b).unwrap().distance_bytes, 0, "{ctx}");
                tables_kept += usize::from(kept.pattern_info(*a).unwrap().distance_bytes > 0);
            }
            assert_eq!(kept.pattern_info(relevance_only).unwrap().distance_bytes, 0);
        }
    }
    assert!(tables_kept > 100, "only {tables_kept} answers read a stored table");
}

/// An attr-only batch must be absorbed without any full rebuild: attribute
/// flips contribute zero edge churn, so the rebuild threshold can never
/// fire, and `ApplyStats`/`RegistryStats` must show the batches were
/// handled incrementally while the answers still match the oracle.
#[test]
fn attr_only_batches_stay_incremental() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0A05);
    for trial in 0..8 {
        let n = rng.random_range(10..28usize);
        let g = random_attr_graph(&mut rng, n, 3);
        let mut reg = PatternRegistry::with_threads(&g, 2);
        let mut pairs: Vec<(PatternId, DynamicMatcher)> = Vec::new();
        for _ in 0..3 {
            let q = random_attr_pattern(&mut rng);
            let cfg = IncrementalConfig::new(3);
            let id = reg.register(q.clone(), cfg.clone()).unwrap();
            pairs.push((id, DynamicMatcher::new(&g, q, cfg).unwrap()));
        }
        let stream = update_stream(
            &g,
            &UpdateStreamConfig {
                attr_keys: ATTR_KEYS,
                attr_values: ATTR_VALUES,
                labels: LABELS,
                ..UpdateStreamConfig::new(6, 4, 0xA77 + trial).with_attr_churn(1.0)
            },
        );
        let mut attr_effects = 0usize;
        for (step, delta) in stream.iter().enumerate() {
            assert!(
                delta.ops.iter().all(|op| matches!(
                    op,
                    gpm_graph::DeltaOp::SetAttr { .. } | gpm_graph::DeltaOp::UnsetAttr { .. }
                )),
                "attr-only stream emitted a structural op"
            );
            attr_effects += delta.len();
            reg.apply(delta).unwrap();
            let snap = reg.snapshot();
            for (i, (id, m)) in pairs.iter_mut().enumerate() {
                m.apply(delta).unwrap();
                let ctx = format!("attr-only trial {trial} step {step} pattern {i}");
                assert_pattern_agrees(&reg, *id, m, &snap, 3, 0.5, &ctx);
            }
        }
        assert!(attr_effects > 0, "stream mutated something");
        for (id, m) in &pairs {
            let st = reg.stats_of(*id).unwrap();
            assert_eq!(st.applies, stream.len() as u64);
            // Attr flips never force a re-condensation on these streams,
            // so the bounds stored in it are never rebuilt from scratch.
            assert_eq!(st.bound_rebuilds, 0, "attr-only batch rebuilt the bounds");
            assert_eq!(m.stats().bound_rebuilds, 0);
        }
    }
}

/// Satellite: a pure-attribute batch on keys **no registered pattern
/// mentions** is pruned wholesale by the attribute-key interest index —
/// every fan-out edge is a skip, no pattern is touched, and `apply`
/// returns no fresh answers.
#[test]
fn uninterested_attr_keys_are_skipped_by_the_interest_index() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0A06);
    let g = random_attr_graph(&mut rng, 20, 3);
    let mut reg = PatternRegistry::with_threads(&g, 2);
    // Two label-only patterns (mention no keys at all) and one attribute
    // pattern over the shared alphabet (attr0..attr2).
    let ids = [
        reg.register(random_pattern(&mut rng), IncrementalConfig::new(3)).unwrap(),
        reg.register(random_pattern(&mut rng), IncrementalConfig::new(3)).unwrap(),
        reg.register(random_attr_pattern(&mut rng), IncrementalConfig::new(3)).unwrap(),
    ];
    let before: Vec<_> = ids.iter().map(|&id| reg.top_k(id).unwrap().nodes()).collect();

    // Keys outside every pattern's interest: never replayed into anybody.
    let delta = gpm_graph::GraphDelta::new()
        .set_attr(0, "unwatched_a", 1i64)
        .set_attr(3, "unwatched_b", 2i64)
        .set_attr(5, "unwatched_a", 7i64);
    let touched = reg.apply(&delta).unwrap();
    assert!(touched.is_empty(), "no pattern cares about these keys");
    let s = reg.stats();
    assert_eq!(s.ops_replayed, 0);
    assert_eq!(s.ops_skipped, 3 * ids.len() as u64, "3 effects × N patterns, all pruned");
    assert_eq!(s.last_patterns_touched, 0);
    assert_eq!(s.shared_index_hit_rate(), 1.0);
    for (id, nodes) in ids.iter().zip(&before) {
        assert_eq!(&reg.top_k(*id).unwrap().nodes(), nodes, "answers unchanged");
        let st = reg.stats_of(*id).unwrap();
        assert_eq!(st.applies, 1, "the batch still counts as an apply");
        assert_eq!(st.last_swept_pairs, 0, "untouched patterns skip the seed scan");
    }

    // Contrast: the same keys with a watched key mixed in touch exactly
    // the pattern(s) that mention it.
    let watched = reg.pattern(ids[2]).unwrap();
    let mut keys = std::collections::BTreeSet::new();
    for u in watched.nodes() {
        watched.predicate(u).collect_attr_keys(&mut keys);
    }
    if let Some(key) = keys.iter().next() {
        // 999 is outside the generator's value range, so the set is
        // guaranteed effective (an ineffective op would not fan out).
        let delta = gpm_graph::GraphDelta::new().set_attr(1, "unwatched_a", 9i64).set_attr(
            2,
            key.clone(),
            999i64,
        );
        reg.apply(&delta).unwrap();
        let s = reg.stats();
        assert_eq!(s.ops_replayed, 1, "only the attr pattern saw the watched key");
        assert_eq!(s.ops_skipped, 3 * ids.len() as u64 + 2 * ids.len() as u64 - 1);
    }
}

#[test]
fn midstream_register_and_deregister_agree() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    for trial in 0..8 {
        let n = rng.random_range(10..25usize);
        // Attr graphs + a mix of label-only and attribute patterns: late
        // registrations must pick the attribute tables up from the
        // snapshot too.
        let g = random_attr_graph(&mut rng, n, 3);
        let mut reg = PatternRegistry::with_threads(&g, 2);

        // Start with two patterns.
        let mut live: Vec<(PatternId, DynamicMatcher, usize, f64)> = Vec::new();
        for i in 0..2 {
            let q = if i == 0 { random_pattern(&mut rng) } else { random_attr_pattern(&mut rng) };
            let (k, lambda) = (rng.random_range(1..4usize), 0.5);
            let cfg = IncrementalConfig::new(k).lambda(lambda);
            let id = reg.register(q.clone(), cfg.clone()).unwrap();
            live.push((id, DynamicMatcher::new(&g, q, cfg).unwrap(), k, lambda));
        }

        let stream = update_stream(
            &g,
            &UpdateStreamConfig {
                batches: 8,
                batch_size: 3,
                insert_fraction: 0.5,
                node_churn: 0.2,
                attr_churn: 0.3,
                attr_keys: ATTR_KEYS,
                attr_values: ATTR_VALUES,
                labels: LABELS,
                seed: 77 + trial,
            },
        );
        for (step, delta) in stream.iter().enumerate() {
            reg.apply(delta).unwrap();
            for (_, m, _, _) in live.iter_mut() {
                m.apply(delta).unwrap();
            }

            if step == 2 {
                // Mid-stream registration: the new pattern must answer as
                // if built from the *current* snapshot — its independent
                // twin is constructed from exactly that.
                let q = random_attr_pattern(&mut rng);
                let (k, lambda) = (rng.random_range(1..4usize), rng.random_range(0.0..1.0f64));
                let cfg = IncrementalConfig::new(k).lambda(lambda);
                let id = reg.register(q.clone(), cfg.clone()).unwrap();
                let twin = DynamicMatcher::new(&reg.snapshot(), q, cfg).unwrap();
                live.push((id, twin, k, lambda));
            }
            if step == 5 {
                // Mid-stream deregistration: survivors must be unaffected.
                let (id, _, _, _) = live.remove(0);
                assert!(reg.deregister(id));
                assert!(!reg.deregister(id), "ids are never reused");
                assert!(reg.top_k(id).is_none());
            }

            let snap = reg.snapshot();
            for (i, (id, m, k, lambda)) in live.iter_mut().enumerate() {
                let ctx = format!("midstream trial {trial} step {step} pattern {i}");
                assert_pattern_agrees(&reg, *id, m, &snap, *k, *lambda, &ctx);
            }
        }
        assert_eq!(reg.len(), live.len());
        assert_eq!(reg.stats().deregistrations, 1);
    }
}

#[test]
fn registry_normalizers_never_drift_from_static() {
    // The drift-regression for the shared `Cuo` definition: the registry's
    // incrementally-maintained normalizer must equal the one the static
    // pipeline derives from a fresh CandidateSpace on every snapshot.
    use gpm_ranking::objective::c_uo;
    use gpm_simulation::CandidateSpace;

    let mut rng = StdRng::seed_from_u64(0x5EED_0007);
    for trial in 0..8 {
        let n = rng.random_range(8..24usize);
        // Attribute candidacy feeds |can(u)| too: Cuo must track attr flips.
        let g = random_attr_graph(&mut rng, n, 3);
        let mut reg = PatternRegistry::new(&g);
        let mut ids = Vec::new();
        for i in 0..3 {
            let q = if i == 0 { random_pattern(&mut rng) } else { random_attr_pattern(&mut rng) };
            ids.push(reg.register(q, IncrementalConfig::new(3)).unwrap());
        }
        let stream = update_stream(
            &g,
            &UpdateStreamConfig {
                batches: 6,
                batch_size: 4,
                insert_fraction: 0.5,
                node_churn: 0.2,
                attr_churn: 0.35,
                attr_keys: ATTR_KEYS,
                attr_values: ATTR_VALUES,
                labels: LABELS,
                seed: 1234 + trial,
            },
        );
        for (step, delta) in stream.iter().enumerate() {
            reg.apply(delta).unwrap();
            let snap = reg.snapshot();
            for &id in &ids {
                let q = reg.pattern(id).unwrap();
                let space = CandidateSpace::compute(&snap, &q);
                assert_eq!(
                    reg.normalizer(id),
                    Some(c_uo(&q, &space)),
                    "Cuo drifted: trial {trial} step {step}"
                );
            }
        }
    }
}

/// Telemetry is observational only. Two registries consume the same
/// mixed structural+attribute stream — one tracing every batch into an
/// enabled [`Telemetry`] bundle, one left at the default (disabled)
/// bundle — and must agree bit-for-bit with each other and with the
/// static oracle after every batch. The traced side must actually have
/// traced (batch trees filed with the flight recorder, phase histograms
/// populated); the untraced side must have recorded nothing.
#[test]
fn telemetry_on_and_off_registries_agree() {
    use gpm_incremental::Telemetry;

    let mut rng = StdRng::seed_from_u64(0x7e1e);
    for trial in 0..8u64 {
        let n = rng.random_range(8..26usize);
        let g = random_attr_graph(&mut rng, n, 3);
        let mut traced = PatternRegistry::with_threads(&g, 3);
        let telemetry = Telemetry::on();
        traced.set_telemetry(telemetry.clone());
        let mut plain = PatternRegistry::with_threads(&g, 3);

        let mut ids: Vec<(PatternId, PatternId, usize)> = Vec::new();
        for _ in 0..rng.random_range(2..5usize) {
            let q = random_attr_pattern(&mut rng);
            let k = rng.random_range(1..5usize);
            let cfg = IncrementalConfig::new(k).lambda(rng.random_range(0.0..1.0f64));
            let a = traced.register(q.clone(), cfg.clone()).unwrap();
            let b = plain.register(q, cfg).unwrap();
            ids.push((a, b, k));
        }

        let stream = update_stream(
            &g,
            &UpdateStreamConfig {
                batches: 5,
                batch_size: 4,
                insert_fraction: 0.5,
                node_churn: 0.15,
                attr_churn: 0.35,
                attr_keys: ATTR_KEYS,
                attr_values: ATTR_VALUES,
                labels: LABELS,
                seed: 0x0b5e ^ trial,
            },
        );
        for (step, delta) in stream.iter().enumerate() {
            traced.apply(delta).unwrap();
            plain.apply(delta).unwrap();
            let snap = traced.snapshot();
            for &(a, b, k) in &ids {
                let ta = traced.top_k(a).unwrap();
                let tb = plain.top_k(b).unwrap();
                assert_eq!(
                    ta.matches, tb.matches,
                    "telemetry changed an answer: trial {trial} step {step}"
                );
                assert_eq!(
                    traced.top_k_diversified(a).unwrap().matches,
                    plain.top_k_diversified(b).unwrap().matches,
                );
                let oracle =
                    top_k_by_match(&snap, &traced.pattern(a).unwrap(), &TopKConfig::new(k));
                assert_eq!(ta.matches, oracle.matches, "trial {trial} step {step}");
            }
        }

        // The enabled side really observed the stream…
        assert!(!telemetry.recorder().recent().is_empty(), "no batch traces filed");
        let snap = telemetry.metrics().snapshot();
        let apply = snap.histogram(&gpm_telemetry_phase("apply"));
        assert!(apply.is_some_and(|h| h.count > 0), "no apply-phase samples");
        // …and the disabled side stayed silent (counters still count).
        assert!(plain.telemetry().recorder().recent().is_empty());
        assert_eq!(plain.stats().batches, traced.stats().batches);
    }
}

/// `gpm_telemetry::names::phase` without taking a direct gpm-telemetry
/// dev-dependency: the label format is part of the metric contract.
fn gpm_telemetry_phase(name: &str) -> String {
    format!("gpm_phase_seconds{{phase=\"{name}\"}}")
}

/// Maintained output bounds are a pure pruning accelerator: a matcher
/// with bounds disabled must produce bit-identical answers (top-k nodes
/// **and** δr values) on every batch of mixed / attr-mixed / delete-only
/// streams, and both must agree with the early-terminating static
/// pipeline on the same snapshot. The bounded side's maintained `h` is
/// re-derived from scratch per component after every batch by
/// `check_maintained` (`CondensationState::validate` compares every
/// stored count with the fresh `Full`'s popcount).
#[test]
fn bounded_and_unbounded_matchers_agree() {
    for (spec, seed) in
        [(&MIXED, 0x0B0D_0001u64), (&ATTR_MIXED, 0x0B0D_0002), (&DELETE_ONLY, 0x0B0D_0003)]
    {
        let attrs = spec.attr_churn > 0.0;
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..8 {
            let n = rng.random_range(10..30usize);
            let g = if attrs {
                random_attr_graph(&mut rng, n, 3)
            } else {
                random_graph(&mut rng, n, 3)
            };
            let q = if attrs { random_attr_pattern(&mut rng) } else { random_pattern(&mut rng) };
            let k = rng.random_range(1..4usize);
            let mut bounded_cfg = IncrementalConfig::new(k);
            bounded_cfg.max_dirty_fraction = f64::INFINITY;
            assert!(bounded_cfg.bounds, "bounds are on by default");
            let mut plain_cfg = bounded_cfg.clone();
            plain_cfg.bounds = false;
            let mut bounded = DynamicMatcher::new(&g, q.clone(), bounded_cfg).unwrap();
            let mut plain = DynamicMatcher::new(&g, q, plain_cfg).unwrap();
            assert_eq!(bounded.bound_mode(), "per-component");
            assert_eq!(plain.bound_mode(), "off", "disabled bounds report off");

            let stream = update_stream(
                &g,
                &UpdateStreamConfig {
                    batches: 6,
                    batch_size: 4,
                    insert_fraction: spec.insert_fraction,
                    node_churn: spec.node_churn,
                    attr_churn: spec.attr_churn,
                    attr_keys: ATTR_KEYS,
                    attr_values: ATTR_VALUES,
                    labels: LABELS,
                    seed: seed ^ trial,
                },
            );
            for (step, delta) in stream.iter().enumerate() {
                let a = bounded.apply(delta).unwrap();
                let b = plain.apply(delta).unwrap();
                let ctx = format!("bounded-vs-plain trial {trial} step {step}: {delta:?}");
                assert_eq!(a.matches, b.matches, "bound pruning changed the answer: {ctx}");

                let snap = bounded.snapshot();
                let fast = top_k_cyclic(&snap, bounded.pattern(), &TopKConfig::new(k));
                assert_eq!(a.nodes(), fast.nodes(), "bounded vs static top_k_cyclic: {ctx}");
                assert_eq!(
                    a.total_relevance(),
                    fast.total_relevance(),
                    "bounded vs static δr total: {ctx}"
                );

                // Maintained h ≡ from-scratch per-component bounds.
                bounded.check_maintained();
            }
            assert_eq!(plain.stats().pruned_outputs, 0, "disabled bounds never prune");
            assert_eq!(plain.stats().bound_rebuilds, 0, "disabled bounds have nothing to rebuild");
        }
    }
    // (Pruning itself needs a stable high-relevance head the stream never
    // touches — random tiny streams churn everything — so the pruning
    // path has its own deterministic scenario below.)
}

/// The pruning path end to end, on a graph shaped like the workload that
/// motivates it: two high-relevance "head" outputs the stream never
/// touches hold the top-2, and a low-reach "tail" output absorbs the
/// churn. A delta touching only the tail must be pruned — its maintained
/// upper bound (component popcount, ≤ 3) cannot displace the k-th answer
/// (relevance 10) — leaving the answer untouched without materializing
/// the tail's relevant set. A later delta that pushes the tail's bound
/// past the k-th must pull it back out of the deferred backlog and into
/// the answer.
#[test]
fn dominated_outputs_are_pruned_and_revived() {
    // ids 0..9: B-nodes shared by both heads; 10/11: heads (A, rel 10);
    // 12/13: tails (A, rel 1); 14/15: the tails' private B-children.
    let mut labels = vec![1u32; 10];
    labels.extend([0, 0, 0, 0, 1, 1]);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for b in 0..10u32 {
        edges.push((10, b));
        edges.push((11, b));
    }
    edges.push((12, 14));
    edges.push((13, 15));
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut cfg = IncrementalConfig::new(2);
    cfg.max_dirty_fraction = f64::INFINITY;
    let mut m = DynamicMatcher::new(&g, q, cfg).unwrap();
    assert_eq!(m.bound_mode(), "per-component");
    assert_eq!(m.top_k().nodes(), vec![10, 11]);

    // Tail 12 gains a second child: dirty = {12}, bound h ≤ 3 < 10 — the
    // batch must not re-derive 12's relevant set at all.
    m.apply(&gpm_graph::GraphDelta::new().add_edge(12, 15)).unwrap();
    let st = m.stats().clone();
    assert_eq!(st.last_pruned_outputs, 1, "the tail output must be bound-pruned");
    assert_eq!(st.pruned_outputs, 1);
    assert_eq!(st.bound_rebuilds, 0);
    let top = m.top_k();
    assert_eq!(top.nodes(), vec![10, 11], "pruning must not change the answer");
    assert!(top.stats.early_terminated, "a deferred output means the scan was cut short");
    m.check_maintained();

    // The same tail gains enough reach to displace the k-th answer: the
    // deferred backlog must be re-checked and 12 materialized.
    let mut delta = gpm_graph::GraphDelta::new();
    for b in 0..10u32 {
        delta = delta.add_edge(12, b);
    }
    m.apply(&delta).unwrap();
    let top = m.top_k();
    assert_eq!(top.nodes(), vec![12, 10], "revived tail must rank first");
    assert_eq!(
        top.matches.iter().map(|r| r.relevance).collect::<Vec<_>>(),
        vec![12, 10],
        "materialized relevance must be exact, not the bound"
    );
    assert_eq!(m.stats().last_pruned_outputs, 0, "nothing dominated this batch");
    m.check_maintained();

    // Diversified access materializes any remaining backlog first.
    let div = m.diversified(0.5);
    assert_eq!(div.matches.len(), 2);
    m.check_maintained();
}

/// The maintained bounds absorb attribute-only and tombstone-only
/// batches without ever rebuilding from scratch: the counts live beside
/// the `Full(c)` sets and these streams never force a re-condensation.
/// Counter-asserted via `ApplyStats::bound_rebuilds` on the forced
/// incremental path (no full-rebuild fallback to hide behind).
#[test]
fn bound_index_never_rebuilds_on_attr_or_tombstone_batches() {
    let mut maintained_total = 0u64;
    for (spec, seed) in [(&ATTR_ONLY, 0x0B0D_0A01u64), (&DELETE_ONLY, 0x0B0D_0A02)] {
        let attrs = spec.attr_churn > 0.0;
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..8 {
            let n = rng.random_range(12..30usize);
            let g = if attrs {
                random_attr_graph(&mut rng, n, 3)
            } else {
                random_graph(&mut rng, n, 3)
            };
            let q = if attrs { random_attr_pattern(&mut rng) } else { random_pattern(&mut rng) };
            let mut cfg = IncrementalConfig::new(3);
            cfg.max_dirty_fraction = f64::INFINITY;
            let mut m = DynamicMatcher::new(&g, q, cfg).unwrap();
            let stream = update_stream(
                &g,
                &UpdateStreamConfig {
                    batches: 6,
                    batch_size: 4,
                    insert_fraction: spec.insert_fraction,
                    node_churn: spec.node_churn,
                    attr_churn: spec.attr_churn,
                    attr_keys: ATTR_KEYS,
                    attr_values: ATTR_VALUES,
                    labels: LABELS,
                    seed: seed ^ trial,
                },
            );
            for delta in stream.iter() {
                m.apply(delta).unwrap();
                m.check_maintained();
            }
            assert_eq!(
                m.stats().bound_rebuilds,
                0,
                "attr/tombstone-only stream rebuilt the bounds from scratch"
            );
            maintained_total += m.stats().cond_incremental;
        }
    }
    assert!(maintained_total > 0, "streams never exercised incremental maintenance");
}
