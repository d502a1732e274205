//! Equivalence: a `DynamicMatcher` maintained across random delta streams
//! must answer exactly like the static pipeline on the final graph —
//! matches, relevances, and diversified `F`-values alike — and exactly
//! like a `PatternRegistry` of one pattern, batch by batch: the two own
//! no refresh logic of their own, only the decision what to replay.

use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::{top_k_by_match, top_k_cyclic, top_k_diversified};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{DiGraph, GraphDelta};
use gpm_incremental::{ApplyStats, DynamicMatcher, IncrementalConfig, PatternRegistry, Telemetry};
use gpm_pattern::builder::label_pattern;
use gpm_pattern::Pattern;
use gpm_pattern::{PatternBuilder, Predicate};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn assert_agrees(m: &mut DynamicMatcher, k: usize, lambda: f64, ctx: &str) {
    let snap = m.snapshot();
    let q = &m.pattern().clone();

    let base = top_k_by_match(&snap, q, &TopKConfig::new(k));
    let inc = m.top_k();
    assert_eq!(inc.nodes(), base.nodes(), "top-k nodes diverged: {ctx}");
    let base_rel: Vec<u64> = base.matches.iter().map(|r| r.relevance).collect();
    let inc_rel: Vec<u64> = inc.matches.iter().map(|r| r.relevance).collect();
    assert_eq!(inc_rel, base_rel, "δr diverged: {ctx}");

    // The early-terminating algorithm agrees on the relevance multiset.
    let fast = top_k_cyclic(&snap, q, &TopKConfig::new(k));
    assert_eq!(fast.total_relevance(), inc.total_relevance(), "vs top_k_cyclic: {ctx}");

    // Diversified: identical selection and F-value (same greedy, same ties).
    let div_base = top_k_diversified(&snap, q, &DivConfig::new(k, lambda));
    let div_inc = m.diversified(lambda);
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
        let mut m = DynamicMatcher::new(&g, q.clone(), IncrementalConfig::new(k).lambda(lambda));
        assert_agrees(&mut m, k, lambda, &format!("trial {trial} init"));
        for step in 0..steps {
            let delta = random_delta(&mut rng, m.graph(), kind);
            m.apply(&delta).unwrap();
            assert_agrees(&mut m, k, lambda, &format!("trial {trial} step {step}: {delta:?}"));
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

/// `q` with every node predicate `Label(l)` rewritten as the one-disjunct
/// `Or([Label(l)])`: the same candidates, matches and answers, but no
/// node implies a label any more, so the registry's shared index cannot
/// prove any structural op irrelevant and dispatches them all — as a
/// matcher always does.
fn undispatchable(q: &Pattern) -> Pattern {
    let mut b = PatternBuilder::new();
    for u in q.nodes() {
        b.node(format!("u{u}"), Predicate::Or(vec![q.predicate(u).clone()]));
    }
    for (u, v) in q.edges() {
        b.edge(u, v).unwrap();
    }
    b.output(q.output()).unwrap();
    b.build().unwrap()
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

/// Matcher ≡ registry of one, after every batch of the streams above.
///
/// With the shared index out of the picture (`undispatchable`) the two
/// are the same computation: equal answers, equal diffs, equal
/// `ApplyStats`, and a traced apply of each records the same multiset of
/// spans under its root — the refresh sequence exists once. With the
/// index active (the plain label pattern) the registry may skip a batch
/// the matcher replayed; then the matcher must report an empty diff, and
/// the answers must still agree.
fn matcher_equals_registry_of_one(kind: StreamKind, seed: u64, trials: usize, steps: usize) {
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

        let mut m = DynamicMatcher::new(&g, undispatchable(&q), cfg.clone());
        m.set_telemetry(Telemetry::on());
        let mut reg = PatternRegistry::new(&g);
        reg.set_telemetry(Telemetry::on());
        let id = reg.register(undispatchable(&q), cfg.clone()).unwrap();
        let mut indexed = PatternRegistry::new(&g);
        let indexed_id = indexed.register(q, cfg).unwrap();

        for step in 0..steps {
            let ctx = format!("trial {trial} step {step}");
            let delta = random_delta(&mut rng, m.graph(), kind);
            let (top, diff) = m.apply_diffed(&delta).unwrap();

            // A registry reports a pattern it replayed nothing into by
            // omission; the matcher serves the standing answer, unmoved.
            let agrees = |r: &mut PatternRegistry, rid, what: &str| {
                match r.apply(&delta).unwrap().as_slice() {
                    [] => assert!(diff.is_empty(), "{what} skipped a batch that moved: {ctx}"),
                    [change] => {
                        assert_eq!(change.top.matches, top.matches, "{what} answer: {ctx}");
                        assert_eq!(change.diff, diff, "{what} diff: {ctx}");
                    }
                    more => panic!("one pattern, {} changes", more.len()),
                }
                assert_eq!(r.top_k(rid).unwrap().matches, top.matches, "{what} top-k: {ctx}");
            };
            agrees(&mut indexed, indexed_id, "indexed registry");
            agrees(&mut reg, id, "registry");
            assert_eq!(counters(&reg.stats_of(id).unwrap()), counters(m.stats()), "stats: {ctx}");
            assert_eq!(child_spans(reg.telemetry()), child_spans(m.telemetry()), "spans: {ctx}");
            m.check_maintained();
            reg.check_maintained_all();
        }
    }
}

#[test]
fn matcher_equals_registry_of_one_on_every_stream_kind() {
    matcher_equals_registry_of_one(StreamKind::InsertOnly, 0xA11CE, 30, 8);
    matcher_equals_registry_of_one(StreamKind::DeleteOnly, 0xB0B, 30, 8);
    matcher_equals_registry_of_one(StreamKind::Mixed, 0xC0FFEE, 40, 10);
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
        let mut m = DynamicMatcher::new(&g, q, cfg);
        for step in 0..10 {
            let delta = random_delta(&mut rng, m.graph(), StreamKind::Mixed);
            m.apply(&delta).unwrap();
            assert_agrees(&mut m, 3, 0.5, &format!("forced trial {trial} step {step}"));
        }
        assert_eq!(m.stats().full_rank_refreshes, 0);
        assert_eq!(m.stats().incremental_applies, 10);
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
    let mut m = DynamicMatcher::new(&g, q, cfg);
    assert_eq!(m.top_k().matches[0].relevance, 2);

    m.apply(&GraphDelta::new().remove_node(1)).unwrap();
    assert_eq!(m.stats().full_rank_refreshes, 0, "must exercise the incremental path");
    let top = m.top_k();
    assert_eq!(top.nodes(), vec![0]);
    assert_eq!(top.matches[0].relevance, 1, "relevant set still counts the tombstoned node");
    assert_agrees(&mut m, 2, 0.5, "after tombstoning a leaf with a surviving sibling");
}

#[test]
fn attribute_patterns_are_maintained() {
    use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let mut b = PatternBuilder::new();
    b.node("V", Predicate::labeled(0, [Predicate::attr("views", CmpOp::Gt, 10i64)]));
    b.output(0).unwrap();
    let q = b.build().unwrap();
    let mut m = DynamicMatcher::new(&g, q, IncrementalConfig::new(2));
    assert!(m.top_k().nodes().is_empty(), "no node carries `views` yet");
    assert_agrees(&mut m, 2, 0.5, "attr pattern before any attribute lands");

    // The attribute arriving creates the match; dropping it removes it.
    let top = m.apply(&GraphDelta::new().set_attr(0, "views", 50i64)).unwrap();
    assert_eq!(top.nodes(), vec![0]);
    assert_agrees(&mut m, 2, 0.5, "after SetAttr creates the candidate");
    let top = m.apply(&GraphDelta::new().set_attr(0, "views", 5i64)).unwrap();
    assert!(top.nodes().is_empty(), "below the threshold candidacy is gone");
    assert_agrees(&mut m, 2, 0.5, "after SetAttr leaves the candidate");
    let top = m.apply(&GraphDelta::new().set_attr(0, "views", 11i64)).unwrap();
    assert_eq!(top.nodes(), vec![0]);
    let top = m.apply(&GraphDelta::new().unset_attr(0, "views")).unwrap();
    assert!(top.nodes().is_empty());
    assert_agrees(&mut m, 2, 0.5, "after UnsetAttr");
}

#[test]
fn invalid_delta_leaves_state_intact() {
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut m = DynamicMatcher::new(&g, q, IncrementalConfig::new(2));
    let before = m.top_k();
    assert!(m.apply(&GraphDelta::new().add_edge(0, 99)).is_err());
    assert_eq!(m.top_k().nodes(), before.nodes());
    assert_eq!(m.graph().version(), 0);
    assert_agrees(&mut m, 2, 0.5, "after rejected delta");
}
