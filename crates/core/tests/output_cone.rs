//! The engine lives on the output cone: its bounds are the candidate
//! product graph's, and its wave schedule is the one the whole-product
//! engine ran (pinned on a fixed seeded instance).

use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::engine::{Engine, Status};
use gpm_core::{top_k, top_k_by_match, top_k_diversified_heuristic, RunStats};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::DiGraph;
use gpm_pattern::builder::label_pattern;
use gpm_pattern::Pattern;
use gpm_ranking::bounds::{output_upper_bounds, BoundConfig, BoundStrategy};
use gpm_ranking::reach_sets::{ReachConfig, ReachEngine};
use gpm_simulation::{CandidateSpace, MatchGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_graph(seed: u64, n: usize, m: usize, labels: u32) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let node_labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..labels)).collect();
    let mut edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
        .filter(|(a, b)| a != b)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    graph_from_parts(&node_labels, &edges).unwrap()
}

/// DAG, cyclic (output above / on the cycle) and non-root-output shapes.
fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("dag", label_pattern(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)], 0).unwrap()),
        ("cyclic", label_pattern(&[0, 1, 2], &[(0, 1), (1, 2), (2, 1)], 0).unwrap()),
        ("on-cycle", label_pattern(&[0, 1, 2], &[(0, 1), (1, 0), (1, 2)], 0).unwrap()),
        ("non-root", label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 1).unwrap()),
        (
            "non-root-cyclic",
            label_pattern(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (3, 2)], 1).unwrap(),
        ),
    ]
}

/// The bound index as it was defined before the cone: strict reach counts
/// over the whole candidate product graph.
fn product_graph_bounds(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> Vec<u64> {
    let pg = MatchGraph::over_candidates(g, q, space);
    let uo = q.output();
    let sources: Vec<u32> = (0..space.candidate_count(uo))
        .map(|i| pg.compact_of(space.pair_at(uo, i)).unwrap())
        .collect();
    ReachEngine::prepare(&pg, sources, &ReachConfig::default()).counts()
}

#[test]
fn engine_bounds_equal_product_reach_bounds() {
    for trial in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(1000 + trial);
        let n = rng.random_range(6..60usize);
        let g = random_graph(trial, n, rng.random_range(n..n * 4), 4);
        for (name, q) in patterns() {
            let space = CandidateSpace::compute(&g, &q);
            let public =
                output_upper_bounds(&g, &q, &space, BoundStrategy::default(), &BoundConfig);
            assert_eq!(
                public,
                product_graph_bounds(&g, &q, &space),
                "trial {trial} {name}: cone bounds ≠ product-graph bounds"
            );
            let cfg = TopKConfig::new(3);
            let Some(eng) = Engine::new(&g, &q, &cfg) else { continue };
            assert_eq!(eng.output_candidates(), public.len());
            for (i, &h) in public.iter().enumerate() {
                // Before any wave the only tightening is the structural
                // refutation pass (h := 0).
                let expected = match eng.output_status(i) {
                    Status::Refuted => 0,
                    _ => h,
                };
                assert_eq!(eng.output_h(i), expected, "trial {trial} {name} candidate {i}");
            }
        }
    }
}

type Pinned = (usize, usize, usize, bool);

fn pinned(stats: &RunStats) -> Pinned {
    (stats.waves, stats.activated_leaves, stats.inspected_matches, stats.early_terminated)
}

/// `RunStats` of TopK (both strategies) and TopKDH and the TopK answer on
/// one seeded instance — the values the whole-product-graph engine
/// produced (the non-root rows also pin that taking the candidate space
/// from the simulation pre-check changed nothing). A change to bound
/// values, wave order, batch selection or swap decisions moves them.
#[test]
fn run_stats_are_pinned_on_a_fixed_instance() {
    let g = random_graph(42, 600, 2600, 4);
    // Per pattern: TopK optimized, TopK random(seed 7), TopKDH(λ = 0.5);
    // then TopK's `(node, δr)` answer.
    type Row = (&'static str, [Pinned; 3], &'static [(u32, u64)]);
    let expected: [Row; 5] = [
        (
            "dag",
            [(6, 37, 8, true), (2, 115, 28, true), (26, 115, 28, false)],
            &[(339, 17), (15, 14), (206, 14), (420, 12), (317, 11)],
        ),
        (
            "cyclic",
            [(7, 173, 27, true), (4, 220, 27, true), (8, 220, 27, false)],
            &[(101, 14), (346, 14), (368, 14), (396, 12), (21, 10)],
        ),
        (
            "on-cycle",
            [(5, 74, 9, false), (2, 74, 9, true), (5, 74, 9, false)],
            &[(251, 20), (280, 16), (339, 16), (171, 13), (295, 13)],
        ),
        (
            "non-root",
            [(5, 21, 29, true), (2, 97, 98, true), (58, 97, 98, false)],
            &[(223, 5), (230, 5), (8, 4), (158, 4), (336, 4)],
        ),
        (
            "non-root-cyclic",
            [(7, 164, 22, true), (3, 182, 22, true), (7, 182, 22, false)],
            &[(595, 13), (323, 11), (546, 11), (570, 11), (122, 9)],
        ),
    ];
    for ((name, q), (ename, want, want_answer)) in patterns().into_iter().zip(expected) {
        assert_eq!(name, ename);
        let cfg = TopKConfig::new(5);
        let opt = top_k(&g, &q, &cfg);
        let rnd = top_k(&g, &q, &cfg.clone().nopt(7));
        let dh = top_k_diversified_heuristic(&g, &q, &DivConfig::new(5, 0.5));
        let got = [pinned(&opt.stats), pinned(&rnd.stats), pinned(&dh.stats)];
        let answer: Vec<(u32, u64)> = opt.matches.iter().map(|m| (m.node, m.relevance)).collect();
        assert_eq!(got, want, "{name}");
        assert_eq!(answer, want_answer, "{name}");
        // Whatever the schedule, the answer is a top-k set of the baseline's.
        let base = top_k_by_match(&g, &q, &cfg);
        assert_eq!(opt.total_relevance(), base.total_relevance(), "{name}");
        assert_eq!(rnd.total_relevance(), base.total_relevance(), "{name}");
        assert_eq!(dh.matches.len(), base.matches.len(), "{name}");
    }
}
