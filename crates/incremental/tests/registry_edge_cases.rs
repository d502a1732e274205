//! Edge cases of the [`PatternRegistry`] lifecycle: empty registries,
//! duplicate registrations, deregistration under pending dirtiness, and a
//! tombstone-heavy stream replaying PR 1's
//! `tombstone_keeps_surviving_ancestors_fresh` regression through the
//! registry path.

mod common;

use common::undispatchable;
use gpm_core::config::TopKConfig;
use gpm_core::top_k_by_match;
use gpm_datagen::update_stream::{update_stream, UpdateStreamConfig};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::GraphDelta;
use gpm_incremental::{IncrementalConfig, PatternRegistry};
use gpm_pattern::builder::label_pattern;

/// Forced-incremental config: thresholds maxed so no fallback safety net
/// can mask maintenance bugs.
fn forced(k: usize) -> IncrementalConfig {
    let mut cfg = IncrementalConfig::new(k);
    cfg.max_dirty_fraction = f64::INFINITY;
    cfg.max_cond_churn_fraction = f64::INFINITY;
    cfg
}

/// Every registered pattern passes the audit production's auditor runs:
/// simulation invariants plus maintained ≡ from-scratch condensation.
fn assert_audits_clean(reg: &PatternRegistry) {
    for id in reg.pattern_ids() {
        assert_eq!(reg.audit_pattern(id), Some(Ok(())), "{id}");
    }
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

    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q, IncrementalConfig::new(0)).unwrap();
    assert!(reg.top_k_diversified(id).unwrap().matches.is_empty());
    reg.apply(&GraphDelta::new().add_edge(0, 3)).unwrap();
    let div = reg.diversified(id, 1.0).unwrap();
    assert!(div.matches.is_empty(), "k = 0 answered {:?}", div.nodes());
    assert_eq!(div.f_value, 0.0);
    assert_eq!(div.stats.total_matches, Some(2), "the match set is still known");
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
    let mut reg = PatternRegistry::new(&g);
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
        assert_eq!(reg.stats_of(id_ab).unwrap().full_rank_refreshes, 0, "forced-incremental path");
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
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), forced(2)).unwrap();
    let id_b = reg.register(q_b, forced(3)).unwrap();
    assert_eq!(reg.top_k(id).unwrap().matches[0].relevance, 2);
    assert_eq!(reg.top_k(id_b).unwrap().nodes(), vec![1, 2]);

    reg.apply(&GraphDelta::new().remove_node(1)).unwrap();

    let st = reg.stats_of(id).unwrap();
    assert_eq!(st.full_rank_refreshes, 0, "must exercise the incremental path");
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
    // for tombstone bookkeeping. Registry vs its undispatchable twin vs
    // static, forced-incremental, after every batch.
    let base = graph_from_parts(
        &[0, 1, 1, 2, 0, 2, 1, 0],
        &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 6), (6, 5), (4, 2), (7, 1), (7, 6)],
    )
    .unwrap();
    let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
    let mut reg = PatternRegistry::new(&base);
    let id = reg.register(q.clone(), forced(3)).unwrap();
    let mut twin = PatternRegistry::new(&base);
    let twin_id = twin.register(undispatchable(&q), forced(3)).unwrap();

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
        twin.apply(delta).unwrap();
        let snap = reg.snapshot();
        let base_top = top_k_by_match(&snap, &q, &TopKConfig::new(3));
        let reg_top = reg.top_k(id).unwrap();
        assert_eq!(reg_top.nodes(), twin.top_k(twin_id).unwrap().nodes(), "step {step}");
        assert_eq!(reg_top.nodes(), base_top.nodes(), "step {step}");
    }
    assert!(removed > 0, "the stream actually tombstones nodes");
}

/// A stored `δd` must die with the set it was computed from. At λ = 1
/// the greedy picks the most distant pair: outputs 0 → {3}, 1 → {4},
/// 2 → {3, 4} give δd(0, 1) = 1 and the pair (0, 1). Moving 0's edge
/// from 3 to 4 re-derives only 0's set; now δd(0, 1) = 0 and (0, 2) wins.
/// The untouched pairs' distances may be reused, a stale δd(0, 1) = 1
/// would keep serving (0, 1).
#[test]
fn rederived_set_drops_its_stored_distances() {
    use gpm_core::config::DivConfig;
    use gpm_core::top_k_diversified;
    let g = graph_from_parts(&[0, 0, 0, 1, 1], &[(0, 3), (1, 4), (2, 3), (2, 4)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), IncrementalConfig::new(2).lambda(1.0)).unwrap();
    assert_eq!(reg.top_k_diversified(id).unwrap().nodes(), vec![0, 1]);
    assert!(reg.pattern_info(id).unwrap().distance_bytes > 0, "the table is kept");

    reg.apply(&GraphDelta::new().remove_edge(0, 3).add_edge(0, 4)).unwrap();
    let div = reg.top_k_diversified(id).unwrap();
    let base = top_k_diversified(&reg.snapshot(), &q, &DivConfig::new(2, 1.0));
    assert_eq!(div.nodes(), vec![0, 2]);
    assert_eq!(div.nodes(), base.nodes());
    assert_eq!(div.f_value.to_bits(), base.f_value.to_bits());
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

/// One giant refresh — a changed edge dirties all 750 outputs of a
/// 1500-node cycle at once, each a real BFS because the reach budget is
/// zero — is one `PatternState::refresh` call, and with a second
/// registration beside it the registry serves the static recompute.
#[test]
fn giant_pattern_refresh_equals_a_static_recompute() {
    let n = 1500u32;
    let labels: Vec<u32> = (0..n).map(|i| i % 2).collect();
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();

    let mut cfg = forced(8);
    cfg.reach.budget_bytes = 0;
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), cfg).unwrap();
    reg.register(q.clone(), forced(3)).unwrap();

    // Toggling one cycle edge kills everything, then revives everything:
    // the revival batch leaves all 750 outputs dirty and alive.
    for _round in 0..3 {
        for delta in [GraphDelta::new().remove_edge(0, 1), GraphDelta::new().add_edge(0, 1)] {
            assert_eq!(reg.apply(&delta).unwrap().len(), 2);
        }
        assert_eq!(reg.stats().intra_pattern_splits, 0, "nothing is split");
    }
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(8));
    assert_eq!(reg.top_k(id).unwrap().matches, base.matches);
    assert_eq!(reg.pattern_info(id).unwrap().reach_mode, "engine", "zero budget");
    let stats = reg.stats_of(id).unwrap();
    assert_eq!(stats.sets_recomputed, 750 * 4, "registration + one full revival per round");
}

/// Kill / revive / deregister mid-stream with the maintained condensation
/// on: the oracle holds after every batch, a tombstoned component gives
/// its `Full(c)` back at once (not at the next rebuild), and the registry
/// keeps serving exactly after the slot is gone.
#[test]
fn deregister_mid_stream_keeps_the_registry_exact() {
    let n = 9000u32;
    let labels: Vec<u32> = (0..n).map(|i| i % 2).collect();
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
    let exact = |reg: &PatternRegistry, id| {
        assert_audits_clean(reg);
        let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(8));
        assert_eq!(reg.top_k(id).unwrap().matches, base.matches);
    };

    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), forced(8)).unwrap();
    let one_full = reg.pattern_info(id).unwrap().maintained_bytes;
    assert_eq!(one_full, 4 * n as usize, "the cycle is one component whose Full holds every node");
    exact(&reg, id);

    // Breaking the cycle kills every alive pair.
    reg.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
    exact(&reg, id);
    let info = reg.pattern_info(id).unwrap();
    assert_eq!(info.reach_mode, "maintained");
    assert_eq!(info.maintained_bytes, 0, "tombstoned components freed their sets eagerly");

    // Revival dirties every output at once.
    reg.apply(&GraphDelta::new().add_edge(0, 1)).unwrap();
    exact(&reg, id);
    assert_eq!(reg.pattern_info(id).unwrap().maintained_bytes, one_full);

    assert!(reg.deregister(id));
    assert!(reg.pattern_info(id).is_none());

    // The registry itself keeps serving: the graph advances and a fresh
    // registration over the same shape answers exactly.
    reg.apply(&GraphDelta::new().remove_edge(0, 1)).unwrap();
    reg.apply(&GraphDelta::new().add_edge(0, 1)).unwrap();
    let id2 = reg.register(q.clone(), forced(8)).unwrap();
    exact(&reg, id2);
}

#[test]
fn overflow_rebuild_respects_the_reach_budget() {
    // A ring of 200 two-cycles (a_i ⇄ b_i, b_i → a_{i+1}) is one SCC —
    // one retained `Full` of 400 nodes. Removing the closing edge splits
    // it into a chain of 200 components at once: the region covers every
    // pair, so maintenance falls back to a from-scratch condensation,
    // where the i-th component's `Full` holds the 2·(200 − i) nodes from
    // its cycle on. A budget that admits a handful of ring-sized sets must
    // drop the maintained state there exactly as it does after an
    // in-place batch, not keep it on credit.
    let cycles = 200u32;
    let labels: Vec<u32> = (0..2 * cycles).map(|i| i % 2).collect();
    let mut edges = Vec::new();
    for i in 0..cycles {
        let (a, b) = (2 * i, 2 * i + 1);
        edges.extend([(a, b), (b, a), (b, (a + 2) % (2 * cycles))]);
    }
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();

    let mut reg = PatternRegistry::new(&g);
    let roomy = reg.register(q.clone(), forced(4)).unwrap();
    // The ring is one component: the retained bytes are one `Full`.
    let full_bytes = reg.pattern_info(roomy).unwrap().maintained_bytes;
    assert_eq!(full_bytes, 4 * 2 * cycles as usize, "4 bytes a member of the one Full");

    let mut tight_cfg = forced(4);
    tight_cfg.reach.budget_bytes = 8 * full_bytes + 4096;
    let tight = reg.register(q.clone(), tight_cfg).unwrap();
    assert_eq!(reg.pattern_info(tight).unwrap().reach_mode, "maintained");

    reg.apply(&GraphDelta::new().remove_edge(2 * cycles - 1, 0)).unwrap();
    assert_audits_clean(&reg);
    for id in [roomy, tight] {
        assert_eq!(reg.stats_of(id).unwrap().cond_rebuilds, 1, "region overflow re-condensed");
    }
    assert_eq!(reg.pattern_info(roomy).unwrap().reach_mode, "maintained");
    assert_eq!(
        reg.pattern_info(tight).unwrap().reach_mode,
        "engine",
        "100.5 ring-sized sets do not fit a budget of 8"
    );
    assert_eq!(reg.pattern_info(tight).unwrap().maintained_bytes, 0);
    // Σ 2·(200 − i) over i = 0..200 = 200 · 201 members.
    let chain = cycles as usize * (cycles as usize + 1);
    assert_eq!(reg.pattern_info(roomy).unwrap().maintained_bytes, 4 * chain);

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

/// The churn gate drops the maintained condensation and re-adopts it
/// against the **same** denominator. It used to drop past 12.5 % of the
/// alive pairs but re-adopt under 12.5 % of the *candidate* pairs, so on
/// a pattern with few matches among many candidates one churn level
/// dropped the state on every kill batch and rebuilt it from scratch on
/// every revive batch (8 `cond_rebuilds` in 8 batches, `reach_mode`
/// flipping each time).
///
/// A → B → C over 4 000 A / 4 000 B / 400 C nodes with 400 matching
/// chains: 1 200 alive pairs among 8 400 candidates. Each batch toggles
/// 200 B → C edges — pair churn 600, above the 512 floor, above 12.5 % of
/// 1 200 and below 12.5 % of 8 400.
#[test]
fn sustained_churn_stays_dropped_until_a_calm_batch_readopts() {
    let (na, nb, nc) = (4000u32, 4000u32, 400u32);
    let mut labels = vec![0u32; na as usize];
    labels.extend(vec![1u32; nb as usize]);
    labels.extend(vec![2u32; nc as usize]);
    let (a, b, c) = (|i: u32| i, |i: u32| na + i, |i: u32| na + nb + i);
    let mut edges = Vec::new();
    for i in 0..nc {
        edges.extend([(a(i), b(i)), (b(i), c(i))]);
    }
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();

    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), IncrementalConfig::new(5)).unwrap();
    assert_eq!(reg.pattern_info(id).unwrap().reach_mode, "maintained");
    let exact = |reg: &PatternRegistry| {
        assert_audits_clean(reg);
        let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(5));
        assert_eq!(reg.top_k(id).unwrap().matches, base.matches);
    };

    for batch in 0..8 {
        let mut delta = GraphDelta::new();
        for i in 0..200 {
            delta = if batch % 2 == 0 {
                delta.remove_edge(b(i), c(i))
            } else {
                delta.add_edge(b(i), c(i))
            };
        }
        reg.apply(&delta).unwrap();
        exact(&reg);
        let info = reg.pattern_info(id).unwrap();
        assert_eq!(info.reach_mode, "readopt-pending", "batch {batch}: same churn, same verdict");
        assert_eq!(info.stats.cond_rebuilds, 1, "batch {batch}: the one drop, no re-adopt");
        assert_eq!(info.stats.full_rank_refreshes, 0);
    }

    // The first genuinely calm batch re-adopts, once; later calm batches
    // maintain in place.
    reg.apply(&GraphDelta::new().remove_edge(b(300), c(300))).unwrap();
    exact(&reg);
    let info = reg.pattern_info(id).unwrap();
    assert_eq!(info.reach_mode, "maintained");
    assert_eq!(info.stats.cond_rebuilds, 2);
    reg.apply(&GraphDelta::new().add_edge(b(300), c(300))).unwrap();
    exact(&reg);
    let info = reg.pattern_info(id).unwrap();
    assert_eq!((info.stats.cond_rebuilds, info.stats.cond_incremental), (2, 1));
}

/// A → B and C → D over one graph whose id space grows by 800 nodes:
/// per batch 45 of a label neither pattern names and 5 fresh B nodes
/// wired under existing A matches, each growth batch followed by a small
/// edge batch. Growth is not an event for a pattern: neither one — the
/// one whose matches the new nodes join, nor the one every growth batch
/// passes by untouched — ever re-condenses, and both serve exactly
/// throughout.
#[test]
fn node_growth_never_recondenses_any_pattern() {
    let quads = 10u32;
    let labels: Vec<u32> = (0..4 * quads).map(|i| i % 4).collect();
    let (a, b, c, d) = (|i: u32| 4 * i, |i: u32| 4 * i + 1, |i: u32| 4 * i + 2, |i: u32| 4 * i + 3);
    let mut edges = Vec::new();
    for i in 0..quads {
        edges.extend([(a(i), b(i)), (c(i), d(i)), (c(i), d((i + 1) % quads))]);
    }
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q_ab = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let q_cd = label_pattern(&[2, 3], &[(0, 1)], 0).unwrap();

    let mut reg = PatternRegistry::new(&g);
    let ids = [
        reg.register(q_ab.clone(), forced(3)).unwrap(),
        reg.register(q_cd.clone(), forced(3)).unwrap(),
    ];
    let exact = |reg: &PatternRegistry, ctx: &str| {
        assert_audits_clean(reg);
        let snap = reg.snapshot();
        for (id, q) in ids.iter().zip([&q_ab, &q_cd]) {
            let base = top_k_by_match(&snap, q, &TopKConfig::new(3));
            assert_eq!(reg.top_k(*id).unwrap().matches, base.matches, "{ctx}");
            assert_eq!(reg.pattern_info(*id).unwrap().reach_mode, "maintained", "{ctx}");
        }
    };
    exact(&reg, "registration");

    for round in 0..16u32 {
        let mut grow = GraphDelta::new();
        let first = reg.graph().node_count() as u32;
        for j in 0..50u32 {
            if j % 10 == 0 {
                // A fresh B under one old A: that A's relevance moves.
                grow = grow.add_node(1).add_edge(a((round + j / 10) % 4), first + j);
            } else {
                grow = grow.add_node(9);
            }
        }
        reg.apply(&grow).unwrap();
        exact(&reg, &format!("growth batch {round}"));

        let i = round % quads;
        let small = if round % 2 == 0 {
            GraphDelta::new().remove_edge(a(i), b(i)).remove_edge(c(i), d(i))
        } else {
            GraphDelta::new().add_edge(a(i - 1), b(i - 1)).add_edge(c(i - 1), d(i - 1))
        };
        reg.apply(&small).unwrap();
        exact(&reg, &format!("edge batch {round}"));
    }
    assert!(reg.graph().node_count() >= 40 + 3 * 256);
    for id in ids {
        let st = reg.stats_of(id).unwrap();
        assert_eq!((st.cond_rebuilds, st.bound_rebuilds), (0, 0), "growth re-condensed {id:?}");
        assert_eq!(st.full_rank_refreshes, 0);
    }
}

/// A sweep overflow on a graph that grew since registration rebuilds the
/// whole cache — from the maintained condensation, which stays in step:
/// the overflowing batch's `prepare` resolves slots in the maintained
/// view, and the batch after it maintains in place.
#[test]
fn sweep_overflow_after_growth_keeps_the_maintained_condensation() {
    use gpm_telemetry::Telemetry;
    let g = graph_from_parts(&[0, 1, 0, 1, 0, 1], &[(0, 1), (2, 3), (4, 5), (0, 3)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut cfg = forced(2);
    cfg.max_dirty_fraction = 0.0;
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), cfg).unwrap();

    let mut grow = GraphDelta::new();
    for _ in 0..300 {
        grow = grow.add_node(9);
    }
    reg.apply(&grow).unwrap();

    let t = Telemetry::on();
    let root = t.root_span("apply");
    reg.apply_traced(&GraphDelta::new().add_edge(2, 5), &root).unwrap();
    let trace = t.finish_batch(root, 1).expect("enabled");
    let st = reg.stats_of(id).unwrap();
    assert_eq!(st.full_rank_refreshes, 1, "a zero dirty fraction overflows every sweep");
    let prepare = trace.spans_named("prepare").next().expect("the full plan materializes");
    assert!(prepare.detail.contains("maintained=true"), "{}", prepare.detail);

    reg.apply(&GraphDelta::new().remove_edge(0, 3)).unwrap();
    assert_audits_clean(&reg);
    let info = reg.pattern_info(id).unwrap();
    assert_eq!(info.reach_mode, "maintained");
    assert_eq!((info.stats.cond_rebuilds, info.stats.bound_rebuilds), (0, 0));
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(2));
    assert_eq!(reg.top_k(id).unwrap().matches, base.matches);
}

/// A `NodeRemoved` effect carries the label it removed, so the shared
/// index judges a removal like an addition: a node of a label the pattern
/// never names is added and removed inside one batch without the pattern
/// replaying either op, while removing a node it does name replays the
/// stripped edge and the tombstone.
#[test]
fn node_removal_dispatches_on_the_removed_label() {
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut reg = PatternRegistry::new(&g);
    let id = reg.register(q.clone(), forced(2)).unwrap();

    let touched = reg.apply(&GraphDelta::new().add_node(7).remove_node(3)).unwrap();
    assert!(touched.is_empty(), "label 7 is none of the pattern's business");
    assert_eq!((reg.stats().ops_replayed, reg.stats().ops_skipped), (0, 2));
    assert!(reg.graph().is_removed(3));

    let touched = reg.apply(&GraphDelta::new().remove_node(2)).unwrap();
    assert_eq!(touched.len(), 1);
    assert_eq!((reg.stats().ops_replayed, reg.stats().ops_skipped), (2, 2));
    assert_eq!(reg.top_k(id).unwrap().matches[0].relevance, 1);
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(2));
    assert_eq!(reg.top_k(id).unwrap().matches, base.matches);
}
