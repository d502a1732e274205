//! Edge cases of the [`PatternRegistry`] lifecycle: empty registries,
//! duplicate registrations, deregistration under pending dirtiness, and a
//! tombstone-heavy stream replaying PR 1's
//! `tombstone_keeps_surviving_ancestors_fresh` regression through the
//! registry path.

use gpm_core::config::TopKConfig;
use gpm_core::top_k_by_match;
use gpm_datagen::update_stream::{update_stream, UpdateStreamConfig};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::GraphDelta;
use gpm_incremental::{DynamicMatcher, IncrementalConfig, PatternRegistry};
use gpm_pattern::builder::label_pattern;

/// Forced-incremental config: thresholds maxed so no rebuild safety net
/// can mask maintenance bugs.
fn forced(k: usize) -> IncrementalConfig {
    let mut cfg = IncrementalConfig::new(k);
    cfg.max_delta_fraction = f64::INFINITY;
    cfg.max_dirty_fraction = f64::INFINITY;
    cfg.max_cond_churn_fraction = f64::INFINITY;
    cfg
}

#[test]
fn empty_registry_still_advances_the_graph() {
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1)]).unwrap();
    let mut reg = PatternRegistry::new(&g);
    assert!(reg.is_empty());

    let answers = reg.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
    assert!(answers.is_empty());
    assert_eq!(reg.graph().version(), 1);
    assert_eq!(reg.graph().edge_count(), 2);
    assert_eq!(reg.stats().batches, 1);
    assert_eq!(reg.stats().ops_replayed + reg.stats().ops_skipped, 0, "nobody to fan out to");

    // A pattern registered after the fact sees the advanced graph.
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let id = reg.register(q, IncrementalConfig::new(2)).unwrap();
    let top = reg.top_k(id).unwrap();
    assert_eq!(top.nodes(), vec![0]);
    assert_eq!(top.matches[0].relevance, 2, "both edges present at registration");
}

#[test]
fn k_zero_diversified_answers_are_empty() {
    // `greedy_diversified` reads its target size from `Objective`, which
    // used to clamp k to 1: a k = 0 state answered with one match.
    let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 3)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();

    let mut m = DynamicMatcher::new(&g, q.clone(), IncrementalConfig::new(0)).unwrap();
    assert!(m.top_k_diversified().matches.is_empty());
    m.apply(&GraphDelta::new().add_edge(0, 3)).unwrap();
    let div = m.diversified(1.0);
    assert!(div.matches.is_empty(), "k = 0 answered {:?}", div.nodes());
    assert_eq!(div.f_value, 0.0);
    assert_eq!(div.stats.total_matches, Some(2), "the match set is still known");

    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q, IncrementalConfig::new(0)).unwrap();
    reg.apply(&GraphDelta::new().add_edge(0, 3)).unwrap();
    assert!(reg.top_k_diversified(id).unwrap().matches.is_empty());
    assert!(reg.top_k(id).unwrap().matches.is_empty());
}

#[test]
fn duplicate_registrations_are_independent() {
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut reg = PatternRegistry::new(&g);

    // Same shape twice, different k — distinct ids, both served.
    let a = reg.register(q.clone(), forced(1)).unwrap();
    let b = reg.register(q.clone(), forced(2)).unwrap();
    assert_ne!(a, b);
    assert_eq!(reg.len(), 2);

    reg.apply(&GraphDelta::new().add_node(1).add_edge(0, 3)).unwrap();
    assert_eq!(reg.top_k(a).unwrap().matches[0].relevance, 3);
    assert_eq!(reg.top_k(b).unwrap().matches[0].relevance, 3);

    // Dropping one copy leaves the twin fully live.
    assert!(reg.deregister(a));
    assert!(reg.top_k(a).is_none());
    reg.apply(&GraphDelta::new().remove_node(3)).unwrap();
    let top = reg.top_k(b).unwrap();
    assert_eq!(top.matches[0].relevance, 2);
    let snap = reg.snapshot();
    let base = top_k_by_match(&snap, &q, &TopKConfig::new(2));
    assert_eq!(top.nodes(), base.nodes());
}

#[test]
fn deregister_under_pending_dirtiness_leaves_survivors_consistent() {
    // Two patterns over one graph; a batch that dirties both is applied,
    // then one pattern is dropped *between* batches while the stream keeps
    // flowing. The survivor must keep answering exactly.
    let g =
        graph_from_parts(&[0, 1, 1, 2, 2, 0], &[(0, 1), (0, 2), (1, 3), (2, 4), (5, 2), (5, 4)])
            .unwrap();
    let q_ab = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let q_abc = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
    let mut reg = PatternRegistry::with_threads(&g, 2);
    let id_ab = reg.register(q_ab.clone(), forced(3)).unwrap();
    let id_abc = reg.register(q_abc, forced(3)).unwrap();

    // This batch flips pairs in both patterns (edge into a B node with a C
    // successor) — both states carry fresh dirtiness through the sweep.
    reg.apply(&GraphDelta::new().remove_edge(1, 3).add_edge(5, 1)).unwrap();
    assert!(reg.stats().last_patterns_touched > 0);

    // Drop the wider pattern right on top of that churn.
    assert!(reg.deregister(id_abc));

    // Keep streaming; the survivor stays bit-identical to static recompute.
    for (step, delta) in [
        GraphDelta::new().add_edge(1, 3),
        GraphDelta::new().remove_node(2),
        GraphDelta::new().add_node(1).add_edge(0, 6).add_edge(5, 6),
    ]
    .iter()
    .enumerate()
    {
        reg.apply(delta).unwrap();
        let snap = reg.snapshot();
        let base = top_k_by_match(&snap, &q_ab, &TopKConfig::new(3));
        let top = reg.top_k(id_ab).unwrap();
        assert_eq!(top.nodes(), base.nodes(), "step {step}");
        let st = reg.stats_of(id_ab).unwrap();
        assert_eq!(st.full_rebuilds, 0, "forced-incremental path");
    }
}

#[test]
fn tombstone_keeps_surviving_ancestors_fresh_through_registry() {
    // PR 1's stale-relevance regression, replayed through the registry's
    // fan-out: node 0 has children 1 and 2 (both B-candidates); tombstoning
    // node 1 on the forced-incremental path must shrink 0's relevant set
    // from {1, 2} to {2} even though (B, 1)'s valid flag is already cleared
    // when the ranking seeds are computed. A second registered pattern
    // rides along to prove the fan-out isolates the scenario per pattern.
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let q_b = label_pattern(&[1], &[], 0).unwrap();
    let mut reg = PatternRegistry::with_threads(&g, 2);
    let id = reg.register(q.clone(), forced(2)).unwrap();
    let id_b = reg.register(q_b, forced(3)).unwrap();
    assert_eq!(reg.top_k(id).unwrap().matches[0].relevance, 2);
    assert_eq!(reg.top_k(id_b).unwrap().nodes(), vec![1, 2]);

    reg.apply(&GraphDelta::new().remove_node(1)).unwrap();

    let st = reg.stats_of(id).unwrap();
    assert_eq!(st.full_rebuilds, 0, "must exercise the incremental path");
    assert_eq!(st.full_rank_refreshes, 0);
    let top = reg.top_k(id).unwrap();
    assert_eq!(top.nodes(), vec![0]);
    assert_eq!(top.matches[0].relevance, 1, "relevant set still counts the tombstoned node");
    assert_eq!(reg.top_k(id_b).unwrap().nodes(), vec![2]);

    let snap = reg.snapshot();
    let base = top_k_by_match(&snap, &q, &TopKConfig::new(2));
    assert_eq!(top.nodes(), base.nodes());
}

#[test]
fn tombstone_heavy_stream_agrees_everywhere() {
    // A delete-heavy, node-churn-heavy generated stream: the hardest diet
    // for tombstone bookkeeping. Registry vs independent matcher vs static,
    // forced-incremental, after every batch.
    let base = graph_from_parts(
        &[0, 1, 1, 2, 0, 2, 1, 0],
        &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 6), (6, 5), (4, 2), (7, 1), (7, 6)],
    )
    .unwrap();
    let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
    let mut reg = PatternRegistry::with_threads(&base, 2);
    let id = reg.register(q.clone(), forced(3)).unwrap();
    let mut m = DynamicMatcher::new(&base, q.clone(), forced(3)).unwrap();

    let stream = update_stream(
        &base,
        &UpdateStreamConfig {
            insert_fraction: 0.25,
            node_churn: 0.6,
            labels: 3,
            ..UpdateStreamConfig::new(10, 2, 0x70B5)
        },
    );
    let mut removed = 0usize;
    for (step, delta) in stream.iter().enumerate() {
        removed +=
            delta.ops.iter().filter(|op| matches!(op, gpm_graph::DeltaOp::RemoveNode(_))).count();
        reg.apply(delta).unwrap();
        m.apply(delta).unwrap();
        let snap = reg.snapshot();
        let base_top = top_k_by_match(&snap, &q, &TopKConfig::new(3));
        let reg_top = reg.top_k(id).unwrap();
        assert_eq!(reg_top.nodes(), m.top_k().nodes(), "step {step}");
        assert_eq!(reg_top.nodes(), base_top.nodes(), "step {step}");
    }
    assert!(removed > 0, "the stream actually tombstones nodes");
    assert_eq!(reg.stats_of(id).unwrap().full_rebuilds, 0);
}

#[test]
fn oversized_patterns_are_rejected_and_leave_registry_clean() {
    use gpm_pattern::{PatternBuilder, Predicate};
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let mut b = PatternBuilder::new();
    for i in 0..65u32 {
        b.node(format!("u{i}"), Predicate::Label(0));
    }
    for i in 1..65u32 {
        b.edge(i - 1, i).unwrap();
    }
    b.output(0).unwrap();
    let q = b.build().unwrap();
    let mut reg = PatternRegistry::new(&g);
    assert!(reg.register(q, IncrementalConfig::new(2)).is_err());
    assert!(reg.is_empty());
    assert_eq!(reg.stats().registrations, 0, "failed registrations are not counted");
}

#[test]
fn attribute_patterns_register_and_answer() {
    use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let mut b = PatternBuilder::new();
    b.node("V", Predicate::labeled(0, [Predicate::attr("views", CmpOp::Gt, 10i64)]));
    b.output(0).unwrap();
    let q = b.build().unwrap();
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q, IncrementalConfig::new(2)).unwrap();
    assert!(reg.top_k(id).unwrap().nodes().is_empty());

    // The attr landing touches the pattern (its answer changes)…
    let touched = reg.apply(&GraphDelta::new().set_attr(0, "views", 99i64)).unwrap();
    assert_eq!(touched.len(), 1);
    assert_eq!(touched[0].top.nodes(), vec![0]);
    assert!(touched[0].changed(), "node 0 entered the answer");
    assert_eq!(touched[0].diff.entered, vec![0]);
    // …while a mutation on a key the pattern never mentions is skipped by
    // the attribute-key interest index.
    let touched = reg.apply(&GraphDelta::new().set_attr(0, "age", 3i64)).unwrap();
    assert!(touched.is_empty(), "uninterested key cannot touch the pattern");
    assert_eq!(reg.top_k(id).unwrap().nodes(), vec![0]);
    assert_eq!(reg.stats_of(id).unwrap().full_rebuilds, 0);
}

#[test]
fn invalid_delta_leaves_every_pattern_intact() {
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(), forced(2)).unwrap();
    let before = reg.top_k(id).unwrap();

    assert!(reg.apply(&GraphDelta::new().add_edge(0, 99)).is_err());
    assert_eq!(reg.graph().version(), 0);
    assert_eq!(reg.stats().batches, 0, "rejected batches are not batches");
    let after = reg.top_k(id).unwrap();
    assert_eq!(after.nodes(), before.nodes());
    assert_eq!(reg.stats_of(id).unwrap().applies, 0);
}

/// A single giant pattern's refresh is split across pool workers: one
/// changed edge dirties every output at once, the registry *decides* to
/// chunk the extraction into per-worker output ranges
/// (`intra_pattern_splits` — deterministic, counted at the decision),
/// ≥ 2 distinct workers are then *observed* claiming chunks
/// (`observed_multi_worker_refreshes` — scheduling-dependent), and the
/// answer stays bit-identical to a static recompute — the merge is by
/// output index, never by thread arrival order.
///
/// The workload makes per-chunk extraction genuinely heavy (a cyclic
/// pattern over one big data cycle, reach budget forced to the BFS
/// fallback) so the pool's dynamic chunk claiming reliably overlaps;
/// the apply is retried a few times to keep the *observation* robust on
/// a loaded machine (the *decision* needs no retries).
#[test]
fn giant_pattern_refresh_splits_across_workers() {
    // One 1500-node cycle alternating labels a/b: with the cyclic pattern
    // A ⇄ B every pair is alive and every relevant set is the whole
    // cycle, so each of the 750 outputs costs a real BFS to re-derive.
    let n = 1500u32;
    let labels: Vec<u32> = (0..n).map(|i| i % 2).collect();
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();

    let mut cfg = forced(8);
    cfg.reach = gpm_ranking::ReachConfig { budget_bytes: 0, threads: 1 };
    let mut reg = PatternRegistry::with_threads(&g, 4);
    assert_eq!(reg.threads(), 4);
    let id = reg.register(q.clone(), cfg).unwrap();

    // Toggling one cycle edge kills everything, then revives everything:
    // the revival batch leaves all 750 outputs dirty and alive.
    let mut revivals = 0u64;
    for _round in 0..6 {
        reg.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
        reg.apply(&GraphDelta::new().add_edge(0, 1)).unwrap();
        revivals += 1;
        assert_eq!(reg.stats().last_rebuilds, 0, "forced incremental never rebuilds");
        assert_eq!(reg.stats().last_intra_splits, 1, "revival chunked across the pool");
        // The split *decision* is deterministic: exactly one per revival.
        assert_eq!(reg.stats().intra_pattern_splits, revivals);
        if reg.stats().observed_multi_worker_refreshes >= 1 {
            break;
        }
    }
    assert!(
        reg.stats().observed_multi_worker_refreshes >= 1,
        "≥ 2 distinct workers must have claimed chunks: {:?}",
        reg.stats()
    );

    let top = reg.top_k(id).unwrap();
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(8));
    assert_eq!(top.matches, base.matches, "relevances survive the parallel merge");

    // Single-threaded registries never split (and never claim to).
    let mut seq = PatternRegistry::with_threads(&g, 1);
    seq.register(q, forced(8)).unwrap();
    seq.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
    seq.apply(&GraphDelta::new().add_edge(0, 1)).unwrap();
    assert_eq!(seq.stats().intra_pattern_splits, 0);
    assert_eq!(seq.stats().last_intra_splits, 0);
    assert_eq!(seq.stats().observed_multi_worker_refreshes, 0);
}

#[test]
fn deregister_frees_maintained_component_bitsets() {
    // The leak audit for the maintained condensation's refcounted
    // `Full(c)` bitsets. A cycle large enough that the revival batch
    // parks a `PreparedSets::Maintained` for registry phase 2b (the
    // parked handles clone the component Arcs), then the pattern is
    // deregistered mid-stream. Nothing — not the parked extraction, not
    // the answer cache, not the serving merge — may keep a component
    // bitset alive past the path that owned it.
    let n = 9000u32;
    let labels: Vec<u32> = (0..n).map(|i| i % 2).collect();
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();

    // Default reach budget: the condensation DP (and with it maintained
    // mode) stays on — `budget_bytes: 0` would force the BFS fallback
    // and leave nothing to audit.
    let mut reg = PatternRegistry::with_threads(&g, 4);
    let id = reg.register(q.clone(), forced(8)).unwrap();
    let before_kill =
        reg.maintained_weak_fulls(id).expect("maintained mode is on after registration");
    assert!(
        before_kill.iter().all(|w| w.upgrade().is_some()),
        "live components hold their bitsets"
    );

    // Breaking the cycle kills every alive pair: the components are
    // tombstoned and must drop their bitsets *eagerly*, not at the next
    // rebuild — the pre-kill weak handles go dead while the pattern is
    // still registered.
    reg.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
    assert!(
        before_kill.iter().all(|w| w.upgrade().is_none()),
        "tombstoned components freed their bitsets eagerly"
    );

    // Revival dirties every output at once: big enough that the prepared
    // maintained extraction is parked for phase 2b.
    reg.apply(&GraphDelta::new().add_edge(0, 1)).unwrap();
    assert_eq!(reg.stats().last_rebuilds, 0, "forced incremental never rebuilds");
    assert_eq!(reg.stats().last_intra_splits, 1, "revival parked a phase-2b extraction");
    let top = reg.top_k(id).unwrap();
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(8));
    assert_eq!(top.matches, base.matches, "answers exact through the parked extraction");

    let weak = reg.maintained_weak_fulls(id).expect("maintained mode survived the toggle");
    assert!(!weak.is_empty(), "the revived cycle retains at least one component bitset");
    assert!(weak.iter().all(|w| w.upgrade().is_some()), "still alive while registered");

    // Mid-stream deregister: the slot drop must be the last strong
    // reference — every component bitset frees immediately.
    assert!(reg.deregister(id));
    assert!(
        weak.iter().all(|w| w.upgrade().is_none()),
        "deregister leaked a maintained component bitset"
    );

    // The registry itself keeps serving: the graph advances and a fresh
    // registration over the same shape answers exactly.
    reg.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
    reg.apply(&GraphDelta::new().add_edge(0, 1)).unwrap();
    let id2 = reg.register(q.clone(), forced(8)).unwrap();
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(8));
    assert_eq!(reg.top_k(id2).unwrap().matches, base.matches);
}

#[test]
fn overflow_rebuild_respects_the_reach_budget() {
    // A ring of 200 two-cycles (a_i ⇄ b_i, b_i → a_{i+1}) is one SCC —
    // one retained `Full`. Removing the closing edge splits it into 200
    // components at once: the region covers every pair, so maintenance
    // falls back to a from-scratch condensation, which now holds 200
    // `Full`s. A budget that admits a handful of bitsets must drop the
    // maintained state there exactly as it does after an in-place batch,
    // not keep it on credit.
    let cycles = 200u32;
    let labels: Vec<u32> = (0..2 * cycles).map(|i| i % 2).collect();
    let mut edges = Vec::new();
    for i in 0..cycles {
        let (a, b) = (2 * i, 2 * i + 1);
        edges.extend([(a, b), (b, a), (b, (a + 2) % (2 * cycles))]);
    }
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();

    let mut reg = PatternRegistry::with_threads(&g, 1);
    let roomy = reg.register(q.clone(), forced(4)).unwrap();
    let fulls = reg.maintained_weak_fulls(roomy).expect("default budget maintains");
    assert_eq!(fulls.len(), 1, "the ring is one component");
    let full_bytes = fulls[0].upgrade().expect("live").heap_bytes();

    let mut tight_cfg = forced(4);
    tight_cfg.reach.budget_bytes = 8 * full_bytes + 4096;
    let tight = reg.register(q.clone(), tight_cfg).unwrap();
    assert_eq!(reg.pattern_info(tight).unwrap().reach_mode, "maintained");

    reg.apply(&GraphDelta::new().remove_edge(2 * cycles - 1, 0)).unwrap();
    reg.check_maintained_all();
    for id in [roomy, tight] {
        let st = reg.stats_of(id).unwrap();
        assert_eq!(st.full_rebuilds, 0, "forced incremental never rebuilds");
        assert_eq!(st.cond_rebuilds, 1, "region overflow re-condensed");
    }
    assert_eq!(reg.pattern_info(roomy).unwrap().reach_mode, "maintained");
    assert_eq!(
        reg.pattern_info(tight).unwrap().reach_mode,
        "engine",
        "200 retained bitsets do not fit a budget of 8"
    );
    assert!(reg.maintained_weak_fulls(tight).is_none());

    // The per-batch engine takes over with exact answers, now and on the
    // next batch.
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(4));
    assert_eq!(reg.top_k(tight).unwrap().matches, base.matches);
    reg.apply(&GraphDelta::new().remove_edge(1, 2)).unwrap();
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(4));
    assert_eq!(reg.top_k(tight).unwrap().matches, base.matches);
    assert_eq!(reg.top_k(roomy).unwrap().matches, base.matches);
    assert_eq!(
        reg.pattern_info(tight).unwrap().reach_mode,
        "engine",
        "budget drops do not re-adopt"
    );
}
