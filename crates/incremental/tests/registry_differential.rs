//! Differential property harness for [`PatternRegistry`].
//!
//! The registry's one promise: sharing graph application and candidate
//! indexing across N patterns changes **nothing** about any answer. For
//! generated update streams (insert-only / delete-only / mixed, via
//! `gpm_datagen::update_stream`, with or without attribute mutations
//! mixed in), after **every** batch and for **every**
//! registered pattern — label-only or carrying full attribute-predicate
//! trees — the registry must agree bit-for-bit with
//!
//! 1. the pattern's `undispatchable` twin, alone in a registry over its
//!    own private graph, where the shared index can skip nothing, and
//! 2. the static pipeline (`top_k_by_match` / `top_k_cyclic` /
//!    `top_k_diversified`) recomputing from scratch on `snapshot()`,
//!
//! including patterns registered mid-stream (which must answer as if built
//! from the snapshot at registration time) and after deregistrations.

mod common;

use common::undispatchable;
use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::result::AnswerDiff;
use gpm_core::{top_k_by_match, top_k_cyclic, top_k_diversified};
use gpm_datagen::update_stream::{attr_key, update_stream, UpdateStreamConfig};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{AttrValue, Attributes, DiGraph, GraphBuilder, GraphDelta};
use gpm_incremental::{IncrementalConfig, PatternId, PatternRegistry};
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

/// A pattern's oracle twin: [`undispatchable`]`(q)` alone in a registry
/// over its own copy of `g`, so every structural op is replayed into it.
struct Twin {
    reg: PatternRegistry,
    id: PatternId,
}

impl Twin {
    fn new(g: &DiGraph, q: &Pattern, cfg: IncrementalConfig) -> Self {
        let mut reg = PatternRegistry::new(g);
        let id = reg.register(undispatchable(q), cfg).unwrap();
        Twin { reg, id }
    }

    /// Applies `delta` and returns the twin's diff — empty when its answer
    /// did not move, including when the batch had no effect at all.
    fn apply(&mut self, delta: &GraphDelta) -> AnswerDiff {
        let changes = self.reg.apply(delta).unwrap();
        changes.into_iter().next().map(|c| c.diff).unwrap_or_default()
    }
}

/// The differential oracle: one pattern's registry answer vs its
/// undispatchable twin vs static recompute on the registry snapshot.
fn assert_pattern_agrees(
    reg: &mut PatternRegistry,
    id: PatternId,
    twin: &mut Twin,
    snap: &DiGraph,
    k: usize,
    lambda: f64,
    ctx: &str,
) {
    let q = &reg.pattern(id).expect("registered");

    // Registry vs twin: identical nodes AND δr values.
    let reg_top = reg.top_k(id).expect("registered");
    let ind_top = twin.reg.top_k(twin.id).expect("registered");
    assert_eq!(reg_top.nodes(), ind_top.nodes(), "registry vs twin nodes: {ctx}");
    let reg_rel: Vec<u64> = reg_top.matches.iter().map(|r| r.relevance).collect();
    let ind_rel: Vec<u64> = ind_top.matches.iter().map(|r| r.relevance).collect();
    assert_eq!(reg_rel, ind_rel, "registry vs twin δr: {ctx}");

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
    let ind_div = twin.reg.diversified(twin.id, lambda).expect("registered");
    let base_div = top_k_diversified(snap, q, &DivConfig::new(k, lambda));
    assert_eq!(reg_div.nodes(), ind_div.nodes(), "diversified registry vs twin: {ctx}");
    assert_eq!(reg_div.nodes(), base_div.nodes(), "diversified registry vs static: {ctx}");
    assert!(
        (reg_div.f_value - base_div.f_value).abs() < 1e-9,
        "F diverged: {} vs {} ({ctx})",
        reg_div.f_value,
        base_div.f_value
    );
    assert!(
        (reg_div.f_value - ind_div.f_value).abs() < 1e-9,
        "F registry vs twin: {} vs {} ({ctx})",
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
/// incremental path has no rebuild safety net to hide behind. A pattern
/// `apply` leaves out of its change list must be unmoved: its answer is
/// the one served before the batch, and its twin reports an empty diff.
fn run_differential(spec: &StreamSpec, seed: u64, trials: usize, forced: bool) {
    let attrs = spec.attr_churn > 0.0;
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let n = rng.random_range(8..30usize);
        let g =
            if attrs { random_attr_graph(&mut rng, n, 3) } else { random_graph(&mut rng, n, 3) };
        let n_patterns = rng.random_range(2..6usize);

        let mut reg = PatternRegistry::new(&g);
        let mut twins: Vec<Twin> = Vec::new();
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
            twins.push(Twin::new(&g, &q, cfg));
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
            let before = reg.answers();
            let changes = reg.apply(delta).unwrap();
            let snap = reg.snapshot();
            for (i, twin) in twins.iter_mut().enumerate() {
                let twin_diff = twin.apply(delta);
                // The shared graph and the private mirrors stay in lockstep.
                assert_eq!(reg.graph().edge_count(), twin.reg.graph().edge_count());
                assert_eq!(reg.graph().node_count(), twin.reg.graph().node_count());
                let (id, k, lambda) = handles[i];
                let ctx =
                    format!("trial {trial} step {step} pattern {i} (forced={forced}): {delta:?}");
                if changes.iter().all(|c| c.id != id) {
                    assert_eq!(reg.top_k(id).unwrap().matches, before[i].1.matches, "{ctx}");
                    assert!(twin_diff.is_empty(), "omitted, but the twin moved: {ctx}");
                }
                assert_pattern_agrees(&mut reg, id, twin, &snap, k, lambda, &ctx);
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
fn insert_only_streams_registry_agrees_with_twins_and_static() {
    run_differential(&INSERT_ONLY, 0x5EED_0001, 10, false);
}

#[test]
fn delete_only_streams_registry_agrees_with_twins_and_static() {
    run_differential(&DELETE_ONLY, 0x5EED_0002, 10, false);
}

#[test]
fn mixed_streams_registry_agrees_with_twins_and_static() {
    run_differential(&MIXED, 0x5EED_0003, 14, false);
}

#[test]
fn forced_incremental_registry_agrees() {
    run_differential(&MIXED, 0x5EED_0004, 10, true);
    run_differential(&DELETE_ONLY, 0x5EED_0005, 6, true);
}

#[test]
fn attr_mixed_streams_registry_agrees_with_twins_and_static() {
    run_differential(&ATTR_MIXED, 0x5EED_0A01, 14, false);
}

#[test]
fn attr_only_streams_registry_agrees_with_twins_and_static() {
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
///
/// A third registry checks the budget against measured bytes: each of its
/// patterns gets a budget drawn between half and one and a half times
/// what the roomy twin holds (`maintained_bytes + distance_bytes`) after
/// its first diversified answer. After every call its held bytes stay
/// inside that budget, its answers equal the other two, and calls land on
/// both sides of the keep/drop boundary of the table.
#[test]
fn stored_distances_equal_a_zero_budget_twin_and_static() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0D01);
    let mut tables_kept = 0usize;
    let (mut measured_kept, mut measured_dropped) = (0usize, 0usize);
    for trial in 0..24 {
        let n = rng.random_range(20..40usize);
        let g = random_attr_graph(&mut rng, n, 4);
        let mut kept = PatternRegistry::new(&g);
        let mut starved = PatternRegistry::new(&g);
        let mut measured = PatternRegistry::new(&g);
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
                let a = kept.register(q.clone(), cfg.clone()).unwrap();
                let b = starved.register(q.clone(), zero).unwrap();
                kept.top_k_diversified(a).unwrap();
                let held = kept.pattern_info(a).unwrap();
                let budget = (held.maintained_bytes + held.distance_bytes)
                    * rng.random_range(50..150usize)
                    / 100;
                let mut drawn = cfg;
                drawn.reach.budget_bytes = budget;
                let c = measured.register(q.clone(), drawn).unwrap();
                patterns.push((q, k, lambda, a, b, c, budget));
            }
            kept.apply(delta).unwrap();
            starved.apply(delta).unwrap();
            measured.apply(delta).unwrap();
            let snap = kept.snapshot();
            for (i, (q, k, lambda, a, b, c, budget)) in patterns.iter().enumerate() {
                let ctx = format!("trial {trial} step {step} pattern {i}");
                let x = kept.top_k_diversified(*a).unwrap();
                let y = starved.top_k_diversified(*b).unwrap();
                let w = measured.top_k_diversified(*c).unwrap();
                let z = top_k_diversified(&snap, q, &DivConfig::new(*k, *lambda));
                assert_eq!(x.nodes(), y.nodes(), "kept vs zero budget: {ctx}");
                assert_eq!(x.f_value.to_bits(), y.f_value.to_bits(), "kept vs zero budget: {ctx}");
                assert_eq!(x.nodes(), w.nodes(), "kept vs drawn budget: {ctx}");
                assert_eq!(x.f_value.to_bits(), w.f_value.to_bits(), "kept vs drawn budget: {ctx}");
                assert_eq!(x.nodes(), z.nodes(), "kept vs static: {ctx}");
                assert_eq!(x.f_value.to_bits(), z.f_value.to_bits(), "kept vs static: {ctx}");
                assert_eq!(starved.pattern_info(*b).unwrap().distance_bytes, 0, "{ctx}");
                let roomy = kept.pattern_info(*a).unwrap().distance_bytes;
                tables_kept += usize::from(roomy > 0);
                let held = measured.pattern_info(*c).unwrap();
                assert!(
                    held.maintained_bytes + held.distance_bytes <= *budget,
                    "{} + {} bytes held over a {budget}-byte budget: {ctx}",
                    held.maintained_bytes,
                    held.distance_bytes
                );
                measured_kept += usize::from(held.distance_bytes > 0);
                measured_dropped += usize::from(held.distance_bytes == 0 && roomy > 0);
            }
            assert_eq!(kept.pattern_info(relevance_only).unwrap().distance_bytes, 0);
        }
    }
    assert!(tables_kept > 100, "only {tables_kept} answers read a stored table");
    assert!(
        measured_kept > 20 && measured_dropped > 20,
        "drawn budgets kept the table {measured_kept} times and dropped it {measured_dropped}"
    );
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
        let mut reg = PatternRegistry::new(&g);
        let mut pairs: Vec<(PatternId, Twin)> = Vec::new();
        for _ in 0..3 {
            let q = random_attr_pattern(&mut rng);
            let cfg = IncrementalConfig::new(3);
            let id = reg.register(q.clone(), cfg.clone()).unwrap();
            pairs.push((id, Twin::new(&g, &q, cfg)));
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
            for (i, (id, twin)) in pairs.iter_mut().enumerate() {
                twin.apply(delta);
                let ctx = format!("attr-only trial {trial} step {step} pattern {i}");
                assert_pattern_agrees(&mut reg, *id, twin, &snap, 3, 0.5, &ctx);
            }
        }
        assert!(attr_effects > 0, "stream mutated something");
        for (id, twin) in &pairs {
            let st = reg.stats_of(*id).unwrap();
            assert_eq!(st.applies, stream.len() as u64);
            // Attr flips never force a re-condensation on these streams,
            // so the bounds stored in it are never rebuilt from scratch.
            assert_eq!(st.bound_rebuilds, 0, "attr-only batch rebuilt the bounds");
            assert_eq!(twin.reg.stats_of(twin.id).unwrap().bound_rebuilds, 0);
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
    let mut reg = PatternRegistry::new(&g);
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
        let mut reg = PatternRegistry::new(&g);

        // Start with two patterns.
        let mut live: Vec<(PatternId, Twin, usize, f64)> = Vec::new();
        for i in 0..2 {
            let q = if i == 0 { random_pattern(&mut rng) } else { random_attr_pattern(&mut rng) };
            let (k, lambda) = (rng.random_range(1..4usize), 0.5);
            let cfg = IncrementalConfig::new(k).lambda(lambda);
            let id = reg.register(q.clone(), cfg.clone()).unwrap();
            live.push((id, Twin::new(&g, &q, cfg), k, lambda));
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
            for (_, twin, _, _) in live.iter_mut() {
                twin.apply(delta);
            }

            if step == 2 {
                // Mid-stream registration: the new pattern must answer as
                // if built from the *current* snapshot — its independent
                // twin is constructed from exactly that.
                let q = random_attr_pattern(&mut rng);
                let (k, lambda) = (rng.random_range(1..4usize), rng.random_range(0.0..1.0f64));
                let cfg = IncrementalConfig::new(k).lambda(lambda);
                let id = reg.register(q.clone(), cfg.clone()).unwrap();
                live.push((id, Twin::new(&reg.snapshot(), &q, cfg), k, lambda));
            }
            if step == 5 {
                // Mid-stream deregistration: survivors must be unaffected.
                let (id, _, _, _) = live.remove(0);
                assert!(reg.deregister(id));
                assert!(!reg.deregister(id), "ids are never reused");
                assert!(reg.top_k(id).is_none());
            }

            let snap = reg.snapshot();
            for (i, (id, twin, k, lambda)) in live.iter_mut().enumerate() {
                let ctx = format!("midstream trial {trial} step {step} pattern {i}");
                assert_pattern_agrees(&mut reg, *id, twin, &snap, *k, *lambda, &ctx);
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
        let mut traced = PatternRegistry::new(&g);
        let telemetry = Telemetry::on();
        traced.set_telemetry(telemetry.clone());
        let mut plain = PatternRegistry::new(&g);

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

/// Maintained output bounds are a pure pruning accelerator: the pattern's
/// twin with bounds disabled must produce bit-identical answers (top-k
/// nodes **and** δr values) on every batch of mixed / attr-mixed /
/// delete-only streams, and both must agree with the early-terminating
/// static pipeline on the same snapshot. The bounded side's maintained
/// `h` is re-derived from scratch per component after every batch by
/// `audit_pattern` (`CondensationState::validate` compares every stored
/// `Full`, whose size is `h`, with a fresh build's).
#[test]
fn bounded_and_unbounded_registries_agree() {
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
            let mut bounded = PatternRegistry::new(&g);
            let id = bounded.register(q.clone(), bounded_cfg).unwrap();
            let mut plain = Twin::new(&g, &q, plain_cfg);
            assert_eq!(bounded.pattern_info(id).unwrap().bound_mode, "per-component");
            let plain_mode = plain.reg.pattern_info(plain.id).unwrap().bound_mode;
            assert_eq!(plain_mode, "off", "disabled bounds report off");

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
                bounded.apply(delta).unwrap();
                plain.apply(delta);
                let a = bounded.top_k(id).unwrap();
                let b = plain.reg.top_k(plain.id).unwrap();
                let ctx = format!("bounded-vs-plain trial {trial} step {step}: {delta:?}");
                assert_eq!(a.matches, b.matches, "bound pruning changed the answer: {ctx}");

                let snap = bounded.snapshot();
                let fast = top_k_cyclic(&snap, &q, &TopKConfig::new(k));
                assert_eq!(a.nodes(), fast.nodes(), "bounded vs static top_k_cyclic: {ctx}");
                assert_eq!(
                    a.total_relevance(),
                    fast.total_relevance(),
                    "bounded vs static δr total: {ctx}"
                );

                // Maintained h ≡ from-scratch per-component bounds.
                assert_eq!(bounded.audit_pattern(id), Some(Ok(())), "{ctx}");
            }
            let plain_stats = plain.reg.stats_of(plain.id).unwrap();
            assert_eq!(plain_stats.pruned_outputs, 0, "disabled bounds never prune");
            assert_eq!(plain_stats.bound_rebuilds, 0, "disabled bounds have nothing to rebuild");
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
/// upper bound (component `Full` size, ≤ 3) cannot displace the k-th answer
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
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q, cfg).unwrap();
    assert_eq!(reg.pattern_info(id).unwrap().bound_mode, "per-component");
    assert_eq!(reg.top_k(id).unwrap().nodes(), vec![10, 11]);

    // Tail 12 gains a second child: dirty = {12}, bound h ≤ 3 < 10 — the
    // batch must not re-derive 12's relevant set at all.
    reg.apply(&GraphDelta::new().add_edge(12, 15)).unwrap();
    let st = reg.stats_of(id).unwrap();
    assert_eq!(st.last_pruned_outputs, 1, "the tail output must be bound-pruned");
    assert_eq!(st.pruned_outputs, 1);
    assert_eq!(st.bound_rebuilds, 0);
    let top = reg.top_k(id).unwrap();
    assert_eq!(top.nodes(), vec![10, 11], "pruning must not change the answer");
    assert!(top.stats.early_terminated, "a deferred output means the scan was cut short");
    assert_eq!(reg.audit_pattern(id), Some(Ok(())));

    // The same tail gains enough reach to displace the k-th answer: the
    // deferred backlog must be re-checked and 12 materialized.
    let mut delta = GraphDelta::new();
    for b in 0..10u32 {
        delta = delta.add_edge(12, b);
    }
    reg.apply(&delta).unwrap();
    let top = reg.top_k(id).unwrap();
    assert_eq!(top.nodes(), vec![12, 10], "revived tail must rank first");
    assert_eq!(
        top.matches.iter().map(|r| r.relevance).collect::<Vec<_>>(),
        vec![12, 10],
        "materialized relevance must be exact, not the bound"
    );
    let st = reg.stats_of(id).unwrap();
    assert_eq!(st.last_pruned_outputs, 0, "nothing dominated this batch");
    assert_eq!(reg.audit_pattern(id), Some(Ok(())));

    // Diversified access materializes any remaining backlog first.
    let div = reg.diversified(id, 0.5).unwrap();
    assert_eq!(div.matches.len(), 2);
    assert_eq!(reg.audit_pattern(id), Some(Ok(())));
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
            let mut reg = PatternRegistry::new(&g);
            let id = reg.register(q, cfg).unwrap();
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
                reg.apply(delta).unwrap();
                assert_eq!(reg.audit_pattern(id), Some(Ok(())));
            }
            let st = reg.stats_of(id).unwrap();
            assert_eq!(
                st.bound_rebuilds, 0,
                "attr/tombstone-only stream rebuilt the bounds from scratch"
            );
            maintained_total += st.cond_incremental;
        }
    }
    assert!(maintained_total > 0, "streams never exercised incremental maintenance");
}
