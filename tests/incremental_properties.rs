//! Property tests for the incremental subsystem: a pattern maintained by
//! a `PatternRegistry` across random delta streams must agree with a from-scratch
//! `top_k_cyclic` / `top_k_diversified` run on the final graph — for
//! insert-only, delete-only, and mixed streams, and for streams mixing
//! attribute mutations (`SetAttr`/`UnsetAttr`) into the structural churn
//! against attribute-predicate patterns.
//!
//! The `adversarial condensation maintenance` section at the bottom
//! targets the incremental Tarjan maintenance specifically: SCC
//! split-then-remerge inside one batch, whole components tombstoned at
//! once, and attribute-driven candidacy departures inside a shared SCC
//! — each checked against a from-scratch condensation
//! (`audit_pattern`) *and* the static top-k baseline, per batch.

use diversified_topk::prelude::*;
use gpm_core::config::DivConfig;
use gpm_core::{top_k_by_match, top_k_cyclic, top_k_diversified};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{Attributes, DynGraph, GraphBuilder};
use gpm_pattern::builder::label_pattern;
use gpm_pattern::{CmpOp, Pattern, PatternBuilder, Predicate};
use proptest::prelude::*;

/// A random small labeled digraph (same shape as `properties.rs`).
fn arb_graph() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (4usize..20).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..3, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 2);
        (labels, edges)
    })
}

/// Per-node initial attributes: bit 0 of the flag grants `k0`, bit 1
/// grants `k1`, with the given small integer values.
type AttrSpec = Vec<(u8, u8, u8)>;

/// A random small digraph whose nodes may start with `k0`/`k1` attributes.
fn arb_attr_graph() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>, AttrSpec)> {
    (4usize..20).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..3, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 2);
        let attrs = proptest::collection::vec((0u8..4, 0u8..5, 0u8..5), n);
        (labels, edges, attrs)
    })
}

fn build_attr_graph(
    labels: &[u32],
    edges: &[(u32, u32)],
    attrs: &AttrSpec,
) -> Result<DiGraph, String> {
    let mut b = GraphBuilder::new();
    for (&l, &(flags, v0, v1)) in labels.iter().zip(attrs) {
        let mut a = Attributes::new();
        if flags & 1 != 0 {
            a.set("k0", v0 as i64);
        }
        if flags & 2 != 0 {
            a.set("k1", v1 as i64);
        }
        b.add_node_with_attrs(l, a);
    }
    for &(s, t) in edges {
        b.add_edge(s, t).map_err(|e| e.to_string())?;
    }
    Ok(b.build())
}

/// A small pattern over the same alphabet; node 0 is the output.
fn arb_pattern() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (1usize..5).prop_flat_map(|k| {
        let labels = proptest::collection::vec(0u32..3, k);
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

/// Per-pattern-node attribute condition: `sel` 0 = label-only, 1 = on
/// `k0`, 2 = on `k1`; `op` selects the comparison, `t` the threshold.
type CondSpec = Vec<(u8, u8, u8)>;

/// A pattern whose nodes may carry attribute conditions over `k0`/`k1`.
fn arb_attr_pattern() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>, CondSpec)> {
    (1usize..5).prop_flat_map(|k| {
        let labels = proptest::collection::vec(0u32..3, k);
        let extra = proptest::collection::vec((0u32..k as u32, 0u32..k as u32), 0..k * 2);
        let conds = proptest::collection::vec((0u8..3, 0u8..4, 0u8..5), k);
        (labels, extra, conds).prop_map(move |(labels, extra, conds)| {
            let mut edges: Vec<(u32, u32)> = (1..k as u32).map(|i| (i - 1, i)).collect();
            edges.extend(extra.into_iter().filter(|(a, b)| a != b));
            edges.sort_unstable();
            edges.dedup();
            (labels, edges, conds)
        })
    })
}

fn build_attr_pattern(
    plabels: &[u32],
    pedges: &[(u32, u32)],
    conds: &CondSpec,
) -> Result<Pattern, String> {
    let mut b = PatternBuilder::new();
    for (i, (&l, &(sel, op, t))) in plabels.iter().zip(conds).enumerate() {
        let pred = if sel == 0 {
            Predicate::Label(l)
        } else {
            let key = if sel == 1 { "k0" } else { "k1" };
            let op = match op {
                0 => CmpOp::Ge,
                1 => CmpOp::Lt,
                2 => CmpOp::Eq,
                _ => CmpOp::Ne,
            };
            Predicate::labeled(l, [Predicate::attr(key, op, t as i64)])
        };
        b.node(format!("u{i}"), pred);
    }
    for &(s, t) in pedges {
        b.edge(s, t).map_err(|e| e.to_string())?;
    }
    b.output(0).map_err(|e| e.to_string())?;
    b.build().map_err(|e| e.to_string())
}

/// Raw op codes decoded into a `GraphDelta` against the current graph
/// state (so deletions target real ids even after node churn).
type RawOps = Vec<(u8, u32, u32)>;

fn arb_ops(batches: usize) -> impl Strategy<Value = Vec<RawOps>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 1..5),
        batches,
    )
}

/// Raw ops whose code range includes the attribute band (`8..12`).
fn arb_attr_ops(batches: usize) -> impl Strategy<Value = Vec<RawOps>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..12, 0u32..64, 0u32..64), 1..5),
        batches,
    )
}

#[derive(Clone, Copy)]
enum Stream {
    Insert,
    Delete,
    Mixed,
    /// Structural churn with attribute mutations interleaved: raw codes in
    /// `8..12` become `SetAttr`/`UnsetAttr` on `k0`/`k1`.
    AttrMixed,
}

/// Decodes one raw batch into a valid delta for the current graph.
fn decode(g: &DynGraph, ops: &RawOps, kind: Stream) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n = g.node_count() as u32;
    for &(code, a, b) in ops {
        if matches!(kind, Stream::AttrMixed) && code >= 8 {
            // Attribute op; targeting a tombstoned node is a legal
            // recorded no-op, so no liveness filtering is needed.
            let key = if b % 2 == 0 { "k0" } else { "k1" };
            delta = if code >= 11 {
                delta.unset_attr(a % n, key)
            } else {
                delta.set_attr(a % n, key, (b % 5) as i64)
            };
            continue;
        }
        let insert = match kind {
            Stream::Insert => true,
            Stream::Delete => false,
            Stream::Mixed | Stream::AttrMixed => code % 2 == 0,
        };
        let (a, b) = (a % n, b % n);
        if insert {
            if code >= 6 {
                delta = delta.add_node(a % 3);
            } else if a != b {
                delta = delta.add_edge(a, b);
            }
        } else if code >= 6 {
            delta = delta.remove_node(a);
        } else {
            // Target a real edge when one exists at this source.
            let t = g.successors(a).nth(b as usize % g.out_degree(a).max(1));
            delta = delta.remove_edge(a, t.unwrap_or(b));
        }
    }
    delta
}

#[allow(clippy::too_many_arguments)]
fn check_stream(
    labels: &[u32],
    edges: &[(u32, u32)],
    plabels: &[u32],
    pedges: &[(u32, u32)],
    batches: &[RawOps],
    kind: Stream,
    k: usize,
    lambda: f64,
) -> Result<(), String> {
    let g = graph_from_parts(labels, edges).map_err(|e| e.to_string())?;
    let q = label_pattern(plabels, pedges, 0).map_err(|e| e.to_string())?;
    run_and_compare(&g, &q, batches, kind, k, lambda)
}

/// A registry maintaining the one pattern `q` over `g`.
fn registry_of_one(
    g: &DiGraph,
    q: Pattern,
    cfg: IncrementalConfig,
) -> (PatternRegistry, PatternId) {
    let mut reg = PatternRegistry::new(g);
    let id = reg.register(q, cfg).unwrap();
    (reg, id)
}

/// Replays the batches through a one-pattern registry and compares every
/// answer surface against the static pipeline on the final snapshot.
fn run_and_compare(
    g: &DiGraph,
    q: &Pattern,
    batches: &[RawOps],
    kind: Stream,
    k: usize,
    lambda: f64,
) -> Result<(), String> {
    let (mut reg, id) = registry_of_one(g, q.clone(), IncrementalConfig::new(k).lambda(lambda));
    for raw in batches {
        let delta = decode(reg.graph(), raw, kind);
        reg.apply(&delta).map_err(|e| e.to_string())?;
    }
    let snap = reg.snapshot();

    // Relevance ranking: exact agreement with the find-all baseline, and
    // total-relevance agreement with the early-terminating algorithm.
    let base = top_k_by_match(&snap, q, &TopKConfig::new(k));
    let inc = reg.top_k(id).expect("registered");
    if inc.nodes() != base.nodes() {
        return Err(format!("nodes {:?} != {:?}", inc.nodes(), base.nodes()));
    }
    let base_rel: Vec<u64> = base.matches.iter().map(|r| r.relevance).collect();
    let inc_rel: Vec<u64> = inc.matches.iter().map(|r| r.relevance).collect();
    if inc_rel != base_rel {
        return Err(format!("relevances {inc_rel:?} != {base_rel:?}"));
    }
    let fast = top_k_cyclic(&snap, q, &TopKConfig::new(k));
    if fast.total_relevance() != inc.total_relevance() {
        return Err("top_k_cyclic disagrees".into());
    }

    // Diversified: identical set and F-value (shared greedy).
    let div_base = top_k_diversified(&snap, q, &DivConfig::new(k, lambda));
    let div_inc = reg.diversified(id, lambda).expect("registered");
    if div_inc.nodes() != div_base.nodes() {
        return Err(format!("div {:?} != {:?}", div_inc.nodes(), div_base.nodes()));
    }
    if (div_inc.f_value - div_base.f_value).abs() > 1e-9 {
        return Err(format!("F {} != {}", div_inc.f_value, div_base.f_value));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn insert_only_streams(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        batches in arb_ops(5),
        k in 1usize..5,
        lambda in 0.0f64..1.0,
    ) {
        let r = check_stream(&labels, &edges, &plabels, &pedges, &batches, Stream::Insert, k, lambda);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn delete_only_streams(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        batches in arb_ops(5),
        k in 1usize..5,
        lambda in 0.0f64..1.0,
    ) {
        let r = check_stream(&labels, &edges, &plabels, &pedges, &batches, Stream::Delete, k, lambda);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn mixed_streams(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        batches in arb_ops(6),
        k in 1usize..5,
        lambda in 0.0f64..1.0,
    ) {
        let r = check_stream(&labels, &edges, &plabels, &pedges, &batches, Stream::Mixed, k, lambda);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn attr_mixed_streams(
        (labels, edges, attrs) in arb_attr_graph(),
        (plabels, pedges, conds) in arb_attr_pattern(),
        batches in arb_attr_ops(6),
        k in 1usize..5,
        lambda in 0.0f64..1.0,
    ) {
        // Attribute-predicate patterns over graphs with initial attribute
        // tables, driven by streams that interleave SetAttr/UnsetAttr with
        // structural churn — the maintained answer must stay bit-identical
        // to the static pipeline on the final snapshot.
        let g = build_attr_graph(&labels, &edges, &attrs);
        prop_assert!(g.is_ok(), "{}", g.unwrap_err());
        let q = build_attr_pattern(&plabels, &pedges, &conds);
        prop_assert!(q.is_ok(), "{}", q.unwrap_err());
        let r = run_and_compare(&g.unwrap(), &q.unwrap(), &batches, Stream::AttrMixed, k, lambda);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn attr_only_streams_never_rebuild(
        (labels, edges, attrs) in arb_attr_graph(),
        (plabels, pedges, conds) in arb_attr_pattern(),
        batches in proptest::collection::vec(
            proptest::collection::vec((8u8..12, 0u32..64, 0u32..64), 1..5), 5),
        k in 1usize..5,
    ) {
        // A pure-attribute stream must be absorbed without rebuilding
        // the bounds (attr flips change no adjacency) while still
        // agreeing with the static recompute.
        let g = build_attr_graph(&labels, &edges, &attrs).unwrap();
        let q = build_attr_pattern(&plabels, &pedges, &conds).unwrap();
        let (mut reg, id) = registry_of_one(&g, q.clone(), IncrementalConfig::new(k));
        for raw in &batches {
            let delta = decode(reg.graph(), raw, Stream::AttrMixed);
            reg.apply(&delta).unwrap();
        }
        // The bounds never rebuild on their own authority: the only
        // permitted rebuilds are forced ones — a mass candidacy revival
        // overflowing the condensation maintenance region restarts the
        // condensation (and therefore the counts stored in it) from
        // scratch.
        let st = reg.stats_of(id).unwrap();
        prop_assert!(
            st.bound_rebuilds <= st.cond_rebuilds,
            "bounds rebuilt without a condensation rebuild underneath them: {} > {}",
            st.bound_rebuilds, st.cond_rebuilds
        );
        let snap = reg.snapshot();
        let base = top_k_by_match(&snap, &q, &TopKConfig::new(k));
        prop_assert_eq!(reg.top_k(id).unwrap().nodes(), base.nodes());
    }

    #[test]
    fn bounded_pruning_never_changes_answers(
        (labels, edges) in arb_graph(),
        (plabels, pedges) in arb_pattern(),
        batches in arb_ops(6),
        k in 1usize..5,
    ) {
        // Maintained output bounds are a pure pruning accelerator: a
        // bounds-disabled registration of the same pattern, consuming the
        // same mixed stream, must produce bit-identical top-k answers
        // after every batch, while the bounded side's maintained
        // per-component `h` stays equal to a from-scratch count
        // (`audit_pattern` runs `CondensationState::validate`, which
        // compares every stored count with the fresh `Full`'s popcount).
        // Forced incremental, so no rebuild safety net hides a stale bound.
        let g = graph_from_parts(&labels, &edges).unwrap();
        let q = label_pattern(&plabels, &pedges, 0).unwrap();
        let bounded_cfg = forced(k);
        prop_assert!(bounded_cfg.bounds, "bounds are on by default");
        let mut plain_cfg = bounded_cfg.clone();
        plain_cfg.bounds = false;
        let (mut reg, bounded) = registry_of_one(&g, q.clone(), bounded_cfg);
        let plain = reg.register(q, plain_cfg).unwrap();
        for raw in &batches {
            let delta = decode(reg.graph(), raw, Stream::Mixed);
            reg.apply(&delta).unwrap();
            prop_assert_eq!(reg.top_k(bounded).unwrap().matches, reg.top_k(plain).unwrap().matches,
                "bound pruning changed the answer");
            prop_assert_eq!(reg.audit_pattern(bounded), Some(Ok(())));
        }
        prop_assert_eq!(reg.stats_of(plain).unwrap().pruned_outputs, 0,
            "disabled bounds never prune");
    }
}

// ---------------------------------------------------------------------
// Adversarial condensation maintenance
//
// The streams below are engineered around the incremental Tarjan
// maintenance: each scenario is the shape most likely to drift from a
// from-scratch build, and every batch runs the full differential —
// maintained condensation ≡ from-scratch (`audit_pattern`) and
// incremental top-k ≡ the static baseline on a snapshot.
// ---------------------------------------------------------------------

/// Forced-incremental config: fallback thresholds maxed so no safety net
/// can mask a maintenance bug.
fn forced(k: usize) -> IncrementalConfig {
    let mut cfg = IncrementalConfig::new(k);
    cfg.max_dirty_fraction = f64::INFINITY;
    cfg.max_cond_churn_fraction = f64::INFINITY;
    cfg
}

/// The cyclic two-node pattern A ⇄ B over alternating labels — every
/// match must sit on an alternating data cycle, which makes SCC shape
/// the whole game.
fn flip_flop() -> Pattern {
    label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap()
}

/// The full differential after one batch: maintained state against a
/// from-scratch build, incremental answer against the static baseline.
fn assert_exact(reg: &PatternRegistry, id: PatternId, k: usize, ctx: &str) {
    assert_eq!(reg.audit_pattern(id), Some(Ok(())), "audit: {ctx}");
    let q = reg.pattern(id).expect("registered");
    let base = top_k_by_match(&reg.snapshot(), &q, &TopKConfig::new(k));
    let inc = reg.top_k(id).expect("registered");
    assert_eq!(inc.nodes(), base.nodes(), "top-k nodes diverged: {ctx}");
    let base_rel: Vec<u64> = base.matches.iter().map(|r| r.relevance).collect();
    let inc_rel: Vec<u64> = inc.matches.iter().map(|r| r.relevance).collect();
    assert_eq!(inc_rel, base_rel, "relevances diverged: {ctx}");
}

/// Which condensation path the pattern's batches took so far:
/// `(cond_incremental, cond_rebuilds)`.
fn cond_counts(reg: &PatternRegistry, id: PatternId) -> (u64, u64) {
    let st = reg.stats_of(id).unwrap();
    (st.cond_incremental, st.cond_rebuilds)
}

/// Two 4-cycles bridged per `bridges` (nodes 0..8), plus an untouched
/// 16-node ballast cycle (nodes 8..24) that keeps the adversarial SCC
/// under `CondPolicy::max_region_fraction` so the *incremental* split
/// and merge paths run instead of the churn fallback.
fn bridged_cycles(bridges: &[(u32, u32)]) -> DiGraph {
    let labels: Vec<u32> = (0..24).map(|i| i % 2).collect();
    let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)];
    edges.extend_from_slice(bridges);
    edges.extend((8..24).map(|i| (i, if i == 23 { 8 } else { i + 1 })));
    graph_from_parts(&labels, &edges).unwrap()
}

#[test]
fn scc_split_then_remerge_in_one_batch() {
    // One SCC: C1 (0..4) and C2 (4..8) joined by bridges 3→4 and 7→0.
    let g = bridged_cycles(&[(3, 4), (7, 0)]);
    let (mut reg, id) = registry_of_one(&g, flip_flop(), forced(8));
    assert_exact(&reg, id, 8, "before the toggle");
    let (ci0, cr0) = cond_counts(&reg, id);

    // One batch removes both bridges (the SCC splits into the two
    // 4-cycles) and adds two *different* bridges going the other way
    // (it remerges). Net component membership is identical, but every
    // internal edge of the condensation region changed — a maintainer
    // that short-circuits on "membership unchanged" serves stale
    // reachability here.
    let toggle =
        GraphDelta::new().remove_edge(3, 4).remove_edge(7, 0).add_edge(4, 3).add_edge(0, 7);
    reg.apply(&toggle).unwrap();
    assert_exact(&reg, id, 8, "after split-then-remerge in one batch");
    assert_eq!(
        cond_counts(&reg, id),
        (ci0 + 1, cr0),
        "the incremental path ran, without a fallback"
    );

    // And back again, for good measure.
    let untoggle =
        GraphDelta::new().remove_edge(4, 3).remove_edge(0, 7).add_edge(3, 4).add_edge(7, 0);
    reg.apply(&untoggle).unwrap();
    assert_exact(&reg, id, 8, "after toggling back");
    assert_eq!(cond_counts(&reg, id).1, cr0);
}

#[test]
fn tombstoned_component_updates_ancestor_sets() {
    // C1 → C2 through the single bridge 3→4: two separate components,
    // C1's relevant sets reach through the bridge into all of C2.
    let g = bridged_cycles(&[(3, 4)]);
    // k = 16 keeps the C1 outputs in view next to the higher-relevance
    // ballast nodes, so their relevance drop is observable.
    let (mut reg, id) = registry_of_one(&g, flip_flop(), forced(16));
    assert_exact(&reg, id, 16, "before the tombstones");
    let c1_relevance = |reg: &PatternRegistry| {
        let top = reg.top_k(id).unwrap();
        top.matches.iter().filter(|r| r.node < 4).map(|r| r.relevance).max().unwrap()
    };
    let reach_through = c1_relevance(&reg);
    let (ci0, cr0) = cond_counts(&reg, id);

    // One batch tombstones every node of C2: its component must die
    // whole (not linger as an empty live component holding a bitset),
    // and C1's sets must shrink to C1 alone — exactly the ancestors the
    // dirty propagation has to reach.
    let delta = GraphDelta::new().remove_node(4).remove_node(5).remove_node(6).remove_node(7);
    reg.apply(&delta).unwrap();
    assert_exact(&reg, id, 16, "after tombstoning the downstream component");
    assert_eq!(cond_counts(&reg, id), (ci0 + 1, cr0), "bounded region, no fallback");
    let shrunk = c1_relevance(&reg);
    assert!(
        shrunk < reach_through,
        "C1's relevance must drop once C2 is gone ({shrunk} vs {reach_through})"
    );
}

#[test]
fn attr_candidacy_departure_inside_shared_scc() {
    // A 6-cycle 0..6 with chord 1→4: one SCC where the chord keeps the
    // 4-cycle 0→1→4→5→0 alive even if pairs on the 2–3 arc depart.
    // Pattern node A requires `views > 10`, so candidacy is attribute-
    // driven. Ballast cycle 6..22 keeps the region bounded.
    let labels: Vec<u32> = (0..22).map(|i| i % 2).collect();
    let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)];
    edges.extend((6..22).map(|i| (i, if i == 21 { 6 } else { i + 1 })));
    let g = graph_from_parts(&labels, &edges).unwrap();

    let mut b = PatternBuilder::new();
    b.node("A", Predicate::labeled(0, [Predicate::attr("views", CmpOp::Gt, 10i64)]));
    b.node("B", Predicate::Label(1));
    b.edge(0, 1).unwrap();
    b.edge(1, 0).unwrap();
    b.output(0).unwrap();
    let q = b.build().unwrap();

    // k = 16 covers every possible A-output (11 even nodes), so the
    // departed pair's absence and re-entry are visible in the answer.
    let (mut reg, id) = registry_of_one(&g, q, forced(16));
    let nodes = |reg: &PatternRegistry| reg.top_k(id).unwrap().nodes();
    assert!(nodes(&reg).is_empty(), "no node carries `views` yet");

    // Mass revival: every even node becomes an A-candidate. The region
    // is everything, so this batch is allowed to re-condense.
    let mut init = GraphDelta::new();
    for v in (0..22).step_by(2) {
        init = init.set_attr(v, "views", 50i64);
    }
    reg.apply(&init).unwrap();
    assert_exact(&reg, id, 16, "after attributes land");
    assert!(!nodes(&reg).is_empty(), "cycles are alive");
    let (ci0, cr0) = cond_counts(&reg, id);

    // Node 2 drops below the threshold: pair (A,2) leaves an SCC that
    // stays alive for everyone routed over the chord. The component
    // must shrink in place — membership, Full bitset and ancestor sets
    // all updated — while (B,3), stranded on the dead arc, cascades out
    // with it.
    reg.apply(&GraphDelta::new().set_attr(2, "views", 5i64)).unwrap();
    assert_exact(&reg, id, 16, "after the candidacy departure");
    assert!(!nodes(&reg).is_empty(), "the chord keeps the SCC alive");
    assert!(!nodes(&reg).contains(&2), "the departed output is gone");
    assert_eq!(cond_counts(&reg, id), (ci0 + 1, cr0), "departure handled in place");

    // Re-entry: the pair rejoins the component it left.
    reg.apply(&GraphDelta::new().set_attr(2, "views", 99i64)).unwrap();
    assert_exact(&reg, id, 16, "after the candidacy re-entry");
    assert!(nodes(&reg).contains(&2), "re-entered output serves again");
    assert_eq!(cond_counts(&reg, id).1, cr0);
}

/// The generated counterpart: streams biased toward cycle-edge toggles
/// (splits and remerges), attribute flips (candidacy departures and
/// re-entries) and node tombstones, over an even cycle with random
/// alternating chords plus untouched ballast. Region overflows are
/// allowed — the fallback is part of the surface under test — but every
/// batch must keep maintained ≡ from-scratch ≡ static baseline.
fn decode_adversarial(n: u32, total: u32, ops: &[(u8, u32, u32)]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for &(code, x, y) in ops {
        let i = x % n;
        let j = {
            // A chord endpoint of opposite parity, so the edge always
            // has a pattern edge to carry it.
            let mut j = y % n;
            if (i + j).is_multiple_of(2) {
                j = (j + 1) % n;
            }
            j
        };
        match code % 8 {
            0 => delta = delta.remove_edge(i, (i + 1) % n),
            1 => delta = delta.add_edge(i, (i + 1) % n),
            2 if i != j => delta = delta.add_edge(i, j),
            3 if i != j => delta = delta.add_edge(j, i),
            4 => delta = delta.set_attr(i, "views", 50i64),
            5 => delta = delta.set_attr(i, "views", 5i64),
            6 => delta = delta.unset_attr(i, "views"),
            _ => delta = delta.remove_node(x % total),
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adversarial_streams_keep_maintained_condensation_exact(
        half in 3u32..6,
        chords in proptest::collection::vec((0u32..12, 0u32..12), 0..4),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 1..5), 1..6),
    ) {
        let n = half * 2;
        let total = n + 16;
        let labels: Vec<u32> = (0..total).map(|i| i % 2).collect();
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for &(a, b) in &chords {
            let a = a % n;
            let mut b = b % n;
            if (a + b) % 2 == 0 {
                b = (b + 1) % n;
            }
            if a != b {
                edges.push((a, b));
            }
        }
        edges.extend((n..total).map(|i| (i, if i == total - 1 { n } else { i + 1 })));
        edges.sort_unstable();
        edges.dedup();
        let g = graph_from_parts(&labels, &edges).unwrap();

        let mut b = PatternBuilder::new();
        b.node("A", Predicate::labeled(0, [Predicate::attr("views", CmpOp::Gt, 10i64)]));
        b.node("B", Predicate::Label(1));
        b.edge(0, 1).unwrap();
        b.edge(1, 0).unwrap();
        b.output(0).unwrap();
        let q = b.build().unwrap();

        let (mut reg, id) = registry_of_one(&g, q, forced(6));
        // Attributes land on every even node: cycles come alive.
        let mut init = GraphDelta::new();
        for v in (0..total).step_by(2) {
            init = init.set_attr(v, "views", 50i64);
        }
        reg.apply(&init).unwrap();
        assert_exact(&reg, id, 6, "after init attributes");

        for (bi, raw) in batches.iter().enumerate() {
            let delta = decode_adversarial(n, total, raw);
            reg.apply(&delta).expect("decoded deltas are valid");
            assert_exact(&reg, id, 6, &format!("after adversarial batch {bi}"));
        }
    }
}
