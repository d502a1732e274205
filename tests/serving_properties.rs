//! Property tests for the streaming answer service (`gpm-serving`).
//!
//! Two satellites of the serving PR, proven over generated graphs,
//! patterns and delta streams:
//!
//! 1. **Exact notifications**: a subscription receives an update for
//!    **exactly** the batches after which the static recompute's top-k
//!    differs from its previous value — no missed updates, no spurious
//!    wakeups — and the pushed answer equals the static recompute.
//! 2. **Coalescing**: under a capacity-1 queue that is never drained, the
//!    subscriber still ends up with the latest consistent answer, with
//!    the `version` gap accounting for every skipped change and the diff
//!    rebased onto what the consumer actually saw (nothing).
//!
//! One fixed stream also grows a service from the empty graph and shrinks
//! it back, with `k` above the match count throughout.

use diversified_topk::prelude::*;
use gpm_core::config::DivConfig;
use gpm_core::result::AnswerDiff;
use gpm_core::{top_k_by_match, top_k_diversified};
use gpm_graph::{DynGraph, GraphBuilder};
use gpm_pattern::builder::label_pattern;
use gpm_serving::{AnswerService, NotifyMode, ServiceConfig};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (4usize..18).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..3, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 2);
        (labels, edges)
    })
}

fn arb_pattern() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (1usize..4).prop_flat_map(|k| {
        proptest::collection::vec(0u32..3, k).prop_map(|labels| {
            let chain: Vec<(u32, u32)> = (1..labels.len() as u32).map(|i| (i - 1, i)).collect();
            (labels, chain)
        })
    })
}

type RawOps = Vec<(u8, u32, u32)>;

fn arb_ops(batches: usize) -> impl Strategy<Value = Vec<RawOps>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..12, 0u32..64, 0u32..64), 1..5),
        batches,
    )
}

/// Decodes one raw batch against the current graph (mirrors the decode in
/// `incremental_properties.rs`: structural churn plus `k0`/`k1` attribute
/// mutations in the `8..12` code band).
fn decode(g: &DynGraph, ops: &RawOps) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n = g.node_count() as u32;
    for &(code, a, b) in ops {
        if code >= 8 {
            let key = if b % 2 == 0 { "k0" } else { "k1" };
            delta = if code >= 11 {
                delta.unset_attr(a % n, key)
            } else {
                delta.set_attr(a % n, key, (b % 5) as i64)
            };
            continue;
        }
        let (a, b) = (a % n, b % n);
        if code % 2 == 0 {
            if code >= 6 {
                delta = delta.add_node(a % 3);
            } else if a != b {
                delta = delta.add_edge(a, b);
            }
        } else if code >= 6 {
            delta = delta.remove_node(a);
        } else {
            let t = g.successors(a).nth(b as usize % g.out_degree(a).max(1));
            delta = delta.remove_edge(a, t.unwrap_or(b));
        }
    }
    delta
}

fn build_graph(labels: &[u32], edges: &[(u32, u32)]) -> Result<DiGraph, String> {
    let mut b = GraphBuilder::new();
    for (i, &l) in labels.iter().enumerate() {
        // Sprinkle initial attributes so attr ops can unset something.
        if i % 3 == 0 {
            let mut attrs = gpm_graph::Attributes::new();
            attrs.set("k0", (i % 5) as i64);
            b.add_node_with_attrs(l, attrs);
        } else {
            b.add_node(l);
        }
    }
    for &(s, t) in edges {
        b.add_edge(s, t).map_err(|e| e.to_string())?;
    }
    Ok(b.build())
}

/// Satellite 1: push notifications ≡ static-recompute change points.
fn check_exact_notifications(
    labels: &[u32],
    edges: &[(u32, u32)],
    plabels: &[u32],
    pedges: &[(u32, u32)],
    batches: &[RawOps],
    k: usize,
    lambda: f64,
) -> Result<(), String> {
    let g = build_graph(labels, edges)?;
    let q = label_pattern(plabels, pedges, 0).map_err(|e| e.to_string())?;
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let rel = svc
        .subscribe(q.clone(), IncrementalConfig::new(k).lambda(lambda), NotifyMode::Relevance)
        .map_err(|e| e.to_string())?;
    let div = svc.attach(rel.pattern(), NotifyMode::Diversified).map_err(|e| e.to_string())?;

    let mut prev_rel = rel.try_recv().ok_or("missing initial relevance answer")?.topk;
    let mut prev_div = div.try_recv().ok_or("missing initial diversified answer")?.topk;
    if prev_rel != top_k_by_match(&g, &q, &TopKConfig::new(k)).matches {
        return Err("initial answer != static".into());
    }

    for (step, raw) in batches.iter().enumerate() {
        let delta = decode(svc.registry().graph(), raw);
        let report = svc.ingest(&delta).map_err(|e| e.to_string())?;
        let snap = svc.registry().snapshot();

        let fresh_rel = top_k_by_match(&snap, &q, &TopKConfig::new(k)).matches;
        let fresh_div = top_k_diversified(&snap, &q, &DivConfig::new(k, lambda)).matches;
        for (name, sub, prev, fresh) in [
            ("relevance", &rel, &mut prev_rel, fresh_rel),
            ("diversified", &div, &mut prev_div, fresh_div),
        ] {
            match sub.try_recv() {
                None if *prev == fresh => {}
                None => return Err(format!("step {step}: missed {name} update")),
                Some(u) if *prev == fresh => {
                    return Err(format!("step {step}: spurious {name} wakeup: {u:?}"))
                }
                Some(u) => {
                    if u.topk != fresh {
                        return Err(format!("step {step}: {name} answer != static recompute"));
                    }
                    if u.seq != report.seq {
                        return Err(format!("step {step}: {name} update mislabeled"));
                    }
                    if u.diff != AnswerDiff::between(prev, &fresh) {
                        return Err(format!("step {step}: {name} diff wrong"));
                    }
                    if sub.try_recv().is_some() {
                        return Err(format!("step {step}: duplicate {name} update"));
                    }
                    *prev = fresh;
                }
            }
        }
    }
    Ok(())
}

/// Satellite 2: overflow coalescing still lands on the latest answer.
fn check_coalescing(
    labels: &[u32],
    edges: &[(u32, u32)],
    plabels: &[u32],
    pedges: &[(u32, u32)],
    batches: &[RawOps],
    k: usize,
) -> Result<(), String> {
    let g = build_graph(labels, edges)?;
    let q = label_pattern(plabels, pedges, 0).map_err(|e| e.to_string())?;
    let mut svc =
        AnswerService::new(&g, ServiceConfig { queue_capacity: 1, ..ServiceConfig::default() });
    let sub = svc
        .subscribe(q.clone(), IncrementalConfig::new(k), NotifyMode::Relevance)
        .map_err(|e| e.to_string())?;

    // Never drain; count the oracle's change points.
    let mut prev = top_k_by_match(&g, &q, &TopKConfig::new(k)).matches;
    let mut changes = 0u64;
    for raw in batches {
        let delta = decode(svc.registry().graph(), raw);
        svc.ingest(&delta).map_err(|e| e.to_string())?;
        let fresh = top_k_by_match(&svc.registry().snapshot(), &q, &TopKConfig::new(k)).matches;
        if fresh != prev {
            changes += 1;
            prev = fresh;
        }
    }

    if sub.pending() != 1 {
        return Err(format!("queue holds {} updates, want 1", sub.pending()));
    }
    if sub.coalesced() != changes {
        return Err(format!("coalesced {} of {changes} changes", sub.coalesced()));
    }
    let u = sub.try_recv().ok_or("queue empty")?;
    if u.topk != prev {
        return Err("surviving update is not the latest consistent answer".into());
    }
    if u.version != 1 + changes {
        return Err(format!("version {} does not account for {changes} skips", u.version));
    }
    // The consumer never saw anything: the rebased diff must reconcile
    // the empty view with the final answer in one step.
    if u.diff != AnswerDiff::between(&[], &u.topk) {
        return Err("diff not rebased onto the consumer's (empty) view".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn notifications_are_exactly_the_static_change_points(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        batches in arb_ops(5),
        k in 1usize..5,
        lambda in 0.0f64..1.0,
    ) {
        let r = check_exact_notifications(&labels, &edges, &plabels, &pedges, &batches, k, lambda);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn coalescing_under_overflow_delivers_the_latest_answer(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        batches in arb_ops(6),
        k in 1usize..4,
    ) {
        let r = check_coalescing(&labels, &edges, &plabels, &pedges, &batches, k);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// A service over the empty graph: one Relevance and one Diversified
/// subscription with `k = 10`, fed batches that grow to three output
/// matches and delete them again. After every batch each subscription's
/// latest answer is the static recompute on the snapshot.
#[test]
fn service_grows_from_and_shrinks_to_the_empty_graph() {
    let (k, lambda) = (10, 0.5);
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut svc = AnswerService::new(&GraphBuilder::new().build(), ServiceConfig::default());
    let rel = svc
        .subscribe(q.clone(), IncrementalConfig::new(k).lambda(lambda), NotifyMode::Relevance)
        .unwrap();
    let div = svc.attach(rel.pattern(), NotifyMode::Diversified).unwrap();
    let batches = [
        GraphDelta::new().add_node(0).add_node(1),
        GraphDelta::new().add_edge(0, 1),
        GraphDelta::new().add_node(0).add_node(1).add_edge(2, 3).add_edge(2, 1),
        GraphDelta::new().add_node(0).add_edge(4, 3),
        GraphDelta::new().remove_edge(0, 1).remove_node(0),
        GraphDelta::new().remove_node(2),
        GraphDelta::new().remove_edge(4, 3).remove_node(1).remove_node(3).remove_node(4),
    ];
    let (mut latest_rel, mut latest_div) = (Vec::new(), Vec::new());
    let mut most_matches = 0;
    for (step, delta) in std::iter::once(None).chain(batches.iter().map(Some)).enumerate() {
        if let Some(delta) = delta {
            svc.ingest(delta).unwrap();
        }
        let snap = svc.registry().snapshot();
        for (sub, latest) in [(&rel, &mut latest_rel), (&div, &mut latest_div)] {
            if let Some(u) = sub.drain().pop() {
                *latest = u.topk;
            }
        }
        let fresh_rel = top_k_by_match(&snap, &q, &TopKConfig::new(k)).matches;
        let fresh_div = top_k_diversified(&snap, &q, &DivConfig::new(k, lambda)).matches;
        assert_eq!(latest_rel, fresh_rel, "step {step}: relevance");
        assert_eq!(latest_div, fresh_div, "step {step}: diversified");
        most_matches = most_matches.max(fresh_rel.len());
    }
    assert_eq!(most_matches, 3, "the stream peaks at three output matches");
    assert!(latest_rel.is_empty() && latest_div.is_empty(), "the stream ends with no match");
}
