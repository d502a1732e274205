//! Equivalence: one pattern maintained by a `PatternRegistry` across
//! random delta streams must answer exactly like the static pipeline on
//! the final graph — matches, relevances, and diversified `F`-values
//! alike — and, batch by batch, exactly like its `undispatchable` twin:
//! the same pattern in a registry whose shared index can skip nothing.

mod common;

use common::undispatchable;
use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::{top_k_by_match, top_k_cyclic, top_k_diversified};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{DiGraph, GraphDelta};
use gpm_incremental::{ApplyStats, IncrementalConfig, PatternId, PatternRegistry, Telemetry};
use gpm_pattern::builder::label_pattern;
use gpm_pattern::Pattern;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A registry serving the one pattern `q` over `g`.
fn registry_of_one(
    g: &DiGraph,
    q: Pattern,
    cfg: IncrementalConfig,
) -> (PatternRegistry, PatternId) {
    let mut reg = PatternRegistry::new(g);
    let id = reg.register(q, cfg).unwrap();
    (reg, id)
}

fn assert_agrees(reg: &mut PatternRegistry, id: PatternId, k: usize, lambda: f64, ctx: &str) {
    let snap = reg.snapshot();
    let q = &reg.pattern(id).expect("registered");

    let base = top_k_by_match(&snap, q, &TopKConfig::new(k));
    let inc = reg.top_k(id).expect("registered");
    assert_eq!(inc.nodes(), base.nodes(), "top-k nodes diverged: {ctx}");
    let base_rel: Vec<u64> = base.matches.iter().map(|r| r.relevance).collect();
    let inc_rel: Vec<u64> = inc.matches.iter().map(|r| r.relevance).collect();
    assert_eq!(inc_rel, base_rel, "δr diverged: {ctx}");

    // The early-terminating algorithm agrees on the relevance multiset.
    let fast = top_k_cyclic(&snap, q, &TopKConfig::new(k));
    assert_eq!(fast.total_relevance(), inc.total_relevance(), "vs top_k_cyclic: {ctx}");

    // Diversified: identical selection and F-value (same greedy, same ties).
    let div_base = top_k_diversified(&snap, q, &DivConfig::new(k, lambda));
    let div_inc = reg.diversified(id, lambda).expect("registered");
    assert_eq!(div_inc.nodes(), div_base.nodes(), "diversified set diverged: {ctx}");
    assert!(
        (div_inc.f_value - div_base.f_value).abs() < 1e-9,
        "F diverged: {} vs {} ({ctx})",
        div_inc.f_value,
        div_base.f_value
    );
}

fn random_graph(rng: &mut StdRng, n: usize, labels: u32, density: usize) -> DiGraph {
    let node_labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..labels)).collect();
    let m = rng.random_range(0..n * density + 1);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
        .filter(|(a, b)| a != b)
        .collect();
    graph_from_parts(&node_labels, &edges).unwrap()
}

fn random_pattern(rng: &mut StdRng, labels: u32) -> Pattern {
    let pn = rng.random_range(1..5usize);
    let plabels: Vec<u32> = (0..pn).map(|_| rng.random_range(0..labels)).collect();
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

/// Kind-restricted random delta batches.
#[derive(Clone, Copy)]
enum StreamKind {
    InsertOnly,
    DeleteOnly,
    Mixed,
}

fn random_delta(rng: &mut StdRng, g: &gpm_graph::DynGraph, kind: StreamKind) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n = g.node_count() as u32;
    for _ in 0..rng.random_range(1..5usize) {
        let insert = match kind {
            StreamKind::InsertOnly => true,
            StreamKind::DeleteOnly => false,
            StreamKind::Mixed => rng.random::<f64>() < 0.5,
        };
        if insert {
            match rng.random_range(0..4u32) {
                0 => delta = delta.add_node(rng.random_range(0..3u32)),
                _ => {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    if a != b {
                        delta = delta.add_edge(a, b);
                    }
                }
            }
        } else {
            match rng.random_range(0..5u32) {
                0 => delta = delta.remove_node(rng.random_range(0..n)),
                _ => {
                    // Bias towards existing edges so deletions actually land.
                    let a = rng.random_range(0..n);
                    let b = g.successors(a).next().unwrap_or_else(|| rng.random_range(0..n));
                    delta = delta.remove_edge(a, b);
                }
            }
        }
    }
    delta
}

fn run_stream(kind: StreamKind, seed: u64, trials: usize, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let n = rng.random_range(4..18usize);
        let g = random_graph(&mut rng, n, 3, 2);
        let q = random_pattern(&mut rng, 3);
        let k = rng.random_range(1..5usize);
        let lambda = rng.random_range(0.0..1.0f64);
        let (mut reg, id) = registry_of_one(&g, q, IncrementalConfig::new(k).lambda(lambda));
        assert_agrees(&mut reg, id, k, lambda, &format!("trial {trial} init"));
        for step in 0..steps {
            let delta = random_delta(&mut rng, reg.graph(), kind);
            reg.apply(&delta).unwrap();
            assert_agrees(
                &mut reg,
                id,
                k,
                lambda,
                &format!("trial {trial} step {step}: {delta:?}"),
            );
        }
    }
}

#[test]
fn insert_only_streams_agree_with_from_scratch() {
    run_stream(StreamKind::InsertOnly, 0xA11CE, 30, 8);
}

#[test]
fn delete_only_streams_agree_with_from_scratch() {
    run_stream(StreamKind::DeleteOnly, 0xB0B, 30, 8);
}

#[test]
fn mixed_streams_agree_with_from_scratch() {
    run_stream(StreamKind::Mixed, 0xC0FFEE, 40, 10);
}

/// `ApplyStats` with the one wall-clock field zeroed, as a comparable
/// string.
fn counters(stats: &ApplyStats) -> String {
    let mut stats = stats.clone();
    stats.last_refresh_ns = 0;
    format!("{stats:?}")
}

/// Span names below the root of the newest recorded trace, sorted.
fn child_spans(t: &Telemetry) -> Vec<&'static str> {
    let trace = t.recorder().recent().last().cloned().expect("every batch is traced");
    assert_eq!(trace.spans[0].name, "apply");
    let mut names: Vec<_> = trace.spans[1..].iter().map(|s| s.name).collect();
    names.sort_unstable();
    names
}

/// Indexed registry ≡ its `undispatchable` twin ≡ static, after every
/// batch of the streams above.
///
/// The twin replays every structural op, so the two differ only in what
/// the shared index skipped. On a batch both replayed they run the same
/// refresh: equal answers, equal diffs, and a traced apply of each
/// records the same multiset of spans under its root. On a batch the
/// index skipped, the twin must report an empty diff and the indexed
/// side's trace holds only an empty `refresh`. `ApplyStats` agree
/// throughout, except that the twin counts one more `cond_incremental`
/// for each skipped batch it folded into its maintained condensation.
fn indexed_registry_equals_its_undispatchable_twin(
    kind: StreamKind,
    seed: u64,
    trials: usize,
    steps: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let n = rng.random_range(4..18usize);
        let g = random_graph(&mut rng, n, 3, 2);
        let q = loop {
            let q = random_pattern(&mut rng, 3);
            if q.node_count() >= 2 {
                break q;
            }
        };
        let k = rng.random_range(1..5usize);
        let cfg = IncrementalConfig::new(k);

        let (mut twin, twin_id) = registry_of_one(&g, undispatchable(&q), cfg.clone());
        twin.set_telemetry(Telemetry::on());
        let (mut indexed, id) = registry_of_one(&g, q.clone(), cfg);
        indexed.set_telemetry(Telemetry::on());

        let mut skipped_maintained = 0u64;
        for step in 0..steps {
            let ctx = format!("trial {trial} step {step}");
            let delta = random_delta(&mut rng, twin.graph(), kind);
            let reference = twin.apply(&delta).unwrap();
            let changes = indexed.apply(&delta).unwrap();

            if let ([skipped], []) = (reference.as_slice(), changes.as_slice()) {
                assert!(skipped.diff.is_empty(), "the index skipped a batch that moved: {ctx}");
                assert_eq!(child_spans(indexed.telemetry()), ["refresh", "replay"], "{ctx}");
                let mode = twin.pattern_info(twin_id).unwrap().reach_mode;
                skipped_maintained += u64::from(mode == "maintained");
            } else {
                assert_eq!(changes.len(), reference.len(), "touched by one side only: {ctx}");
                for (change, want) in changes.iter().zip(&reference) {
                    assert_eq!(change.top.matches, want.top.matches, "answer: {ctx}");
                    assert_eq!(change.diff, want.diff, "diff: {ctx}");
                }
                assert_eq!(
                    child_spans(indexed.telemetry()),
                    child_spans(twin.telemetry()),
                    "spans: {ctx}"
                );
            }

            let top = indexed.top_k(id).unwrap().matches;
            assert_eq!(top, twin.top_k(twin_id).unwrap().matches, "top-k: {ctx}");
            let base = top_k_by_match(&indexed.snapshot(), &q, &TopKConfig::new(k));
            assert_eq!(top, base.matches, "static: {ctx}");
            let mut stats = indexed.stats_of(id).unwrap();
            stats.cond_incremental += skipped_maintained;
            assert_eq!(counters(&stats), counters(&twin.stats_of(twin_id).unwrap()), "{ctx}");
            assert_eq!(indexed.audit_pattern(id), Some(Ok(())), "{ctx}");
            assert_eq!(twin.audit_pattern(twin_id), Some(Ok(())), "{ctx}");
        }
    }
}

#[test]
fn indexed_registry_equals_its_undispatchable_twin_on_every_stream_kind() {
    indexed_registry_equals_its_undispatchable_twin(StreamKind::InsertOnly, 0xA11CE, 30, 8);
    indexed_registry_equals_its_undispatchable_twin(StreamKind::DeleteOnly, 0xB0B, 30, 8);
    indexed_registry_equals_its_undispatchable_twin(StreamKind::Mixed, 0xC0FFEE, 40, 10);
}

#[test]
fn forced_incremental_path_agrees() {
    // Threshold maxed out so the incremental path is always taken (no
    // full-rank-refresh safety net hiding bugs).
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..25 {
        let g = random_graph(&mut rng, 12, 3, 2);
        let q = random_pattern(&mut rng, 3);
        let mut cfg = IncrementalConfig::new(3);
        cfg.max_dirty_fraction = f64::INFINITY;
        let (mut reg, id) = registry_of_one(&g, q, cfg);
        for step in 0..10 {
            let delta = random_delta(&mut rng, reg.graph(), StreamKind::Mixed);
            reg.apply(&delta).unwrap();
            assert_agrees(&mut reg, id, 3, 0.5, &format!("forced trial {trial} step {step}"));
        }
        let stats = reg.stats_of(id).unwrap();
        assert_eq!(stats.full_rank_refreshes, 0);
        assert_eq!(stats.incremental_applies, 10);
    }
}

#[test]
fn tombstone_keeps_surviving_ancestors_fresh() {
    // Regression: node 0 has children 1 and 2 (both B-candidates);
    // tombstoning node 1 on the forced-incremental path must shrink 0's
    // relevant set from {1, 2} to {2}. The seed computation runs after the
    // batch, when (B, 1)'s valid flag is already cleared — seeding must use
    // the ever-candidate map or (A, 0) is never swept and its cached
    // relevance stays 2.
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut cfg = IncrementalConfig::new(2);
    cfg.max_dirty_fraction = f64::INFINITY;
    let (mut reg, id) = registry_of_one(&g, q, cfg);
    assert_eq!(reg.top_k(id).unwrap().matches[0].relevance, 2);

    reg.apply(&GraphDelta::new().remove_node(1)).unwrap();
    let stats = reg.stats_of(id).unwrap();
    assert_eq!(stats.full_rank_refreshes, 0, "must exercise the incremental path");
    let top = reg.top_k(id).unwrap();
    assert_eq!(top.nodes(), vec![0]);
    assert_eq!(top.matches[0].relevance, 1, "relevant set still counts the tombstoned node");
    assert_agrees(&mut reg, id, 2, 0.5, "after tombstoning a leaf with a surviving sibling");
}

#[test]
fn attribute_patterns_are_maintained() {
    use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let mut b = PatternBuilder::new();
    b.node("V", Predicate::labeled(0, [Predicate::attr("views", CmpOp::Gt, 10i64)]));
    b.output(0).unwrap();
    let q = b.build().unwrap();
    let (mut reg, id) = registry_of_one(&g, q, IncrementalConfig::new(2));
    assert!(reg.top_k(id).unwrap().nodes().is_empty(), "no node carries `views` yet");
    assert_agrees(&mut reg, id, 2, 0.5, "attr pattern before any attribute lands");

    // The attribute arriving creates the match; dropping it removes it.
    for (delta, want, ctx) in [
        (
            GraphDelta::new().set_attr(0, "views", 50i64),
            vec![0],
            "after SetAttr creates the candidate",
        ),
        (
            GraphDelta::new().set_attr(0, "views", 5i64),
            vec![],
            "below the threshold candidacy is gone",
        ),
        (GraphDelta::new().set_attr(0, "views", 11i64), vec![0], "after SetAttr re-enters"),
        (GraphDelta::new().unset_attr(0, "views"), vec![], "after UnsetAttr"),
    ] {
        reg.apply(&delta).unwrap();
        assert_eq!(reg.top_k(id).unwrap().nodes(), want, "{ctx}");
        assert_agrees(&mut reg, id, 2, 0.5, ctx);
    }
}

#[test]
fn invalid_delta_leaves_state_intact() {
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let (mut reg, id) = registry_of_one(&g, q, IncrementalConfig::new(2));
    let before = reg.top_k(id).unwrap();
    assert!(reg.apply(&GraphDelta::new().add_edge(0, 99)).is_err());
    assert_eq!(reg.top_k(id).unwrap().nodes(), before.nodes());
    assert_eq!(reg.graph().version(), 0);
    assert_agrees(&mut reg, id, 2, 0.5, "after rejected delta");
}
