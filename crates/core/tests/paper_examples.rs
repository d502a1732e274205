//! Golden tests: every number in the paper's worked Examples 1–10 (Fig. 1),
//! end-to-end through the public API.

use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::{
    top_k_by_match, top_k_cyclic, top_k_dag, top_k_diversified, top_k_diversified_heuristic,
};
use gpm_datagen::{fig1_graph, fig1_pattern, fig1_pattern_q1};
use gpm_graph::NodeId;
use gpm_ranking::bounds::{output_upper_bounds, BoundConfig, BoundStrategy};
use gpm_ranking::objective::c_uo;
use gpm_ranking::relevant_set::{relevant_set_of_pair, RelevantSets};
use gpm_simulation::compute_simulation;

fn node(g: &gpm_graph::DiGraph, name: &str) -> NodeId {
    g.node_by_name(name).unwrap_or_else(|| panic!("node {name}"))
}

fn names(g: &gpm_graph::DiGraph, ids: &[NodeId]) -> Vec<String> {
    let mut v: Vec<String> = ids.iter().map(|&i| g.display(i)).collect();
    v.sort();
    v
}

/// Examples 1–3: the maximum simulation has exactly 15 pairs; the output
/// matches are PM1..PM4 (4 nodes instead of 15 pairs).
#[test]
fn example_1_2_3_simulation_and_output_matches() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let sim = compute_simulation(&g, &q);
    assert!(sim.graph_matches());
    assert_eq!(sim.len(), 15, "Example 3: |M(Q,G)| = 15 pairs");
    let mu = sim.output_matches(&q);
    assert_eq!(names(&g, &mu), vec!["PM1", "PM2", "PM3", "PM4"]);
    // Every DBj (j∈[1,3]) and PRGi (i∈[1,4]) and STi (i∈[1,4]) matches.
    let db = q.node_by_name("DB").unwrap();
    let prg = q.node_by_name("PRG").unwrap();
    let st = q.node_by_name("ST").unwrap();
    assert_eq!(sim.matches_of(db).len(), 3);
    assert_eq!(sim.matches_of(prg).len(), 4);
    assert_eq!(sim.matches_of(st).len(), 4);
    // Oracle agreement.
    assert!(gpm_simulation::naive::agrees_with_naive(&g, &q, &sim));
}

/// Example 4: the exact relevant sets of the four PM matches.
#[test]
fn example_4_relevant_sets() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let sim = compute_simulation(&g, &q);
    let pm = q.output();

    let set = |name: &str| -> Vec<String> {
        let ids = relevant_set_of_pair(&g, &q, &sim, pm, node(&g, name)).unwrap();
        names(&g, &ids)
    };
    assert_eq!(set("PM1"), vec!["DB1", "PRG1", "ST1", "ST2"]);
    assert_eq!(set("PM2"), vec!["DB2", "DB3", "PRG2", "PRG3", "PRG4", "ST2", "ST3", "ST4"]);
    let expected34 = vec!["DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"];
    assert_eq!(set("PM3"), expected34);
    assert_eq!(set("PM4"), expected34);

    // δr values and the top-2 relevance set {PM2, PM3} (or PM4) with total 14.
    let rs = RelevantSets::compute(&g, &q, &sim);
    assert_eq!(rs.relevance_of(node(&g, "PM1")), Some(4));
    assert_eq!(rs.relevance_of(node(&g, "PM2")), Some(8));
    assert_eq!(rs.relevance_of(node(&g, "PM3")), Some(6));
    assert_eq!(rs.relevance_of(node(&g, "PM4")), Some(6));

    // Example 8 detail: with the cyclic pattern, DB3 is in its own
    // relevant set: R(DB, DB3) = {ST3, ST4, DB2, DB3, PRG2, PRG3}.
    let db = q.node_by_name("DB").unwrap();
    let r_db3 = relevant_set_of_pair(&g, &q, &sim, db, node(&g, "DB3")).unwrap();
    assert_eq!(names(&g, &r_db3), vec!["DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"]);
}

/// Example 5: pairwise distances δd.
#[test]
fn example_5_distances() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let sim = compute_simulation(&g, &q);
    let rs = RelevantSets::compute(&g, &q, &sim);
    let idx = |name: &str| rs.index_of(node(&g, name)).unwrap();

    assert_eq!(rs.distance(idx("PM3"), idx("PM4")), 0.0);
    assert!((rs.distance(idx("PM1"), idx("PM2")) - 10.0 / 11.0).abs() < 1e-12);
    assert!((rs.distance(idx("PM2"), idx("PM3")) - 0.25).abs() < 1e-12);
    assert_eq!(rs.distance(idx("PM1"), idx("PM3")), 1.0);
}

/// Example 6: Cuo = 11 and the λ-regimes of the optimal diversified pair.
#[test]
fn example_6_lambda_regimes() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let sim = compute_simulation(&g, &q);
    assert_eq!(c_uo(&q, sim.space()), 11, "3 DBs + 4 PRGs + 4 STs");

    let optimal = |lambda: f64| {
        let r = gpm_core::topk_div::optimal_diversified(&g, &q, &DivConfig::new(2, lambda));
        (names(&g, &r.nodes()), r.f_value)
    };
    // (a) λ below 4/33: {PM2, PM3} (or PM4 — tied δr and distances).
    let (set, f) = optimal(0.05);
    assert!(set == ["PM2", "PM3"] || set == ["PM2", "PM4"], "got {set:?}");
    let expected = 0.95 * 14.0 / 11.0 + 2.0 * 0.05 * 0.25;
    assert!((f - expected).abs() < 1e-9);
    // (c) 4/33 < λ < 0.5: {PM1, PM2}.
    let (set, f) = optimal(0.3);
    assert_eq!(set, ["PM1", "PM2"]);
    let expected = 0.7 * 12.0 / 11.0 + 2.0 * 0.3 * (10.0 / 11.0);
    assert!((f - expected).abs() < 1e-9);
    // (e) λ above 0.5: {PM1, PM3} (or PM4).
    let (set, _) = optimal(0.7);
    assert!(set == ["PM1", "PM3"] || set == ["PM1", "PM4"], "got {set:?}");
}

/// Example 7: TopKDAG on the DAG pattern Q1 — the tight bounds (3/2/2/2)
/// and top-1 = PM2 with δr = 3, found with early termination.
#[test]
fn example_7_topkdag_q1() {
    let g = fig1_graph();
    let q1 = fig1_pattern_q1();
    let sim = compute_simulation(&g, &q1);
    let space = sim.space();

    let bounds = output_upper_bounds(&g, &q1, space, BoundStrategy::default(), &BoundConfig);
    let out = space.candidates(q1.output());
    let h = |name: &str| bounds[out.binary_search(&node(&g, name)).unwrap()];
    assert_eq!(h("PM2"), 3, "Cu(PM2) = |{{DB2, PRG3, PRG4}}|");
    assert_eq!(h("PM3"), 2, "Cu(PM3) = |{{DB2, PRG3}}|");
    assert_eq!(h("PM4"), 2);
    assert_eq!(h("PM1"), 2, "Cu(PM1) = |{{DB1, PRG1}}|");

    let r = top_k_dag(&g, &q1, &TopKConfig::new(1));
    assert_eq!(names(&g, &r.nodes()), vec!["PM2"]);
    assert_eq!(r.matches[0].relevance, 3);
    assert!(r.stats.early_terminated, "Prop. 3 fires before exhaustion");
    // Activating DB2 necessarily also confirms PM3/PM4 (they are ancestors
    // of the same leaf); the paper's claim is that PM1 is never inspected.
    assert!(
        r.stats.inspected_matches <= 3,
        "PM1 never inspected (got {})",
        r.stats.inspected_matches
    );
}

/// Example 8: TopK on the cyclic pattern — initial bounds 4/8/6/6,
/// top-2 = {PM2, PM3}, early termination.
#[test]
fn example_8_topk_cyclic() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let sim = compute_simulation(&g, &q);
    let space = sim.space();

    let bounds = output_upper_bounds(&g, &q, space, BoundStrategy::default(), &BoundConfig);
    let out = space.candidates(q.output());
    let h = |name: &str| bounds[out.binary_search(&node(&g, name)).unwrap()];
    assert_eq!(h("PM1"), 4);
    assert_eq!(h("PM2"), 8);
    assert_eq!(h("PM3"), 6);
    assert_eq!(h("PM4"), 6);

    let r = top_k_cyclic(&g, &q, &TopKConfig::new(2));
    let got = names(&g, &r.nodes());
    assert!(got == ["PM2", "PM3"] || got == ["PM2", "PM4"], "got {got:?}");
    assert_eq!(r.matches[0].relevance, 8);
    assert_eq!(r.matches[1].relevance, 6);
    assert_eq!(r.total_relevance(), 14, "Example 4's top-2 total");
    assert!(r.stats.early_terminated);
    assert!(
        r.stats.inspected_matches < 4,
        "PM1 is never inspected (got {})",
        r.stats.inspected_matches
    );

    // Agreement with the Match baseline.
    let base = top_k_by_match(&g, &q, &TopKConfig::new(2));
    assert_eq!(base.total_relevance(), 14);
    assert_eq!(base.stats.total_matches, Some(4));
}

/// Example 9: TopKDiv at λ = 0.5 returns a pair with F = 16/11 ≈ 1.45
/// (the paper reports {PM1, PM3}; {PM1, PM2} and {PM1, PM4} tie exactly).
#[test]
fn example_9_topkdiv() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let r = top_k_diversified(&g, &q, &DivConfig::new(2, 0.5));
    assert!((r.f_value - 16.0 / 11.0).abs() < 1e-9, "F = {}", r.f_value);
    let set = names(&g, &r.nodes());
    assert!(set == ["PM1", "PM2"] || set == ["PM1", "PM3"] || set == ["PM1", "PM4"], "got {set:?}");
    // 2-approximation sanity against the brute-force optimum.
    let opt = gpm_core::topk_div::optimal_diversified(&g, &q, &DivConfig::new(2, 0.5));
    assert!(r.f_value * 2.0 >= opt.f_value - 1e-9);
    assert!((opt.f_value - 16.0 / 11.0).abs() < 1e-9, "optimum is also 16/11");
}

/// Example 10: TopKDH at λ = 0.1 returns {PM2, PM3} with early termination;
/// the exact F of that set is 0.9·14/11 + 0.2·(1/4) ≈ 1.195.
#[test]
fn example_10_topkdh() {
    let g = fig1_graph();
    let q = fig1_pattern();
    let r = top_k_diversified_heuristic(&g, &q, &DivConfig::new(2, 0.1));
    let set = names(&g, &r.nodes());
    assert!(set == ["PM2", "PM3"] || set == ["PM2", "PM4"], "got {set:?}");
    let expected = 0.9 * 14.0 / 11.0 + 0.2 * 0.25;
    assert!((r.f_value - expected).abs() < 1e-9, "F = {}", r.f_value);
}

/// Exp-1 style sanity: MR of the early-terminating algorithm is below 1 on
/// the running example while Match inspects everything.
#[test]
fn match_ratio_reduction() {
    let g = fig1_graph();
    let q1 = fig1_pattern_q1();
    let base = top_k_by_match(&g, &q1, &TopKConfig::new(1));
    let total = base.stats.total_matches.unwrap();
    assert_eq!(total, 4);
    let fast = top_k_dag(&g, &q1, &TopKConfig::new(1));
    assert!(fast.stats.match_ratio(total) < 1.0);
    assert_eq!(base.stats.match_ratio(total), 1.0);
}
