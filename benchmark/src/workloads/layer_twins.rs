//! The layer twins both traced runs share: one pattern decomposed through
//! the `simulation` and `ranking` entry points that matching (and a
//! registration) is made of, each call under its own span.

use gpm_core::config::TopKConfig;
use gpm_graph::DiGraph;
use gpm_pattern::Pattern;
use gpm_ranking::bounds::output_upper_bounds;
use gpm_ranking::relevant_set::RelevantSets;
use gpm_simulation::{compute_simulation, MatchGraph, SimRelation};

use crate::report::Metrics;
use crate::spans::{SpanId, SpanLog};

/// Time and counts accumulated over the patterns measured so far.
#[derive(Debug, Default)]
pub struct LayerTwins {
    compute_ns: u64,
    match_graph_ns: u64,
    relevant_sets_ns: u64,
    bounds_ns: u64,
    distance_ns: u64,
    candidate_pairs: usize,
    match_pairs: usize,
    patterns: usize,
}

impl LayerTwins {
    /// Runs the twins of `q` on `g` under `parent`. The pairwise distance
    /// matrix is quadratic in `|Mu|`, so only workloads that diversify
    /// ask for it. Returns the simulation and relevant sets for callers
    /// that decompose further.
    pub fn measure(
        &mut self,
        log: &mut SpanLog,
        parent: SpanId,
        op: u32,
        (g, q, cfg): (&DiGraph, &Pattern, &TopKConfig),
        distances: bool,
    ) -> (SimRelation, RelevantSets) {
        let (sim, ns) =
            log.time("simulation.compute_simulation", "simulation", Some(parent), op, || {
                compute_simulation(g, q)
            });
        self.compute_ns += ns;
        self.candidate_pairs += sim.space().pair_count();
        self.match_pairs += sim.len();
        let (mg, ns) = log.time("simulation.match_graph", "simulation", Some(parent), op, || {
            MatchGraph::over_matches(g, q, &sim)
        });
        self.match_graph_ns += ns;
        std::hint::black_box(mg.len());
        let (rs, ns) = log.time("ranking.relevant_sets", "ranking", Some(parent), op, || {
            RelevantSets::compute_with(g, q, &sim, &cfg.reach)
        });
        self.relevant_sets_ns += ns;
        let (bounds, ns) =
            log.time("ranking.output_upper_bounds", "ranking", Some(parent), op, || {
                output_upper_bounds(g, q, sim.space(), cfg.bounds, &cfg.bound_config)
            });
        self.bounds_ns += ns;
        std::hint::black_box(bounds.as_slice().len());
        if distances {
            let (sum, ns) =
                log.time("ranking.distance_matrix", "ranking", Some(parent), op, || {
                    let mut sum = 0.0;
                    for i in 0..rs.len() {
                        for j in (i + 1)..rs.len() {
                            sum += rs.distance(i, j);
                        }
                    }
                    sum
                });
            self.distance_ns += ns;
            std::hint::black_box(sum);
        }
        self.patterns += 1;
        (sim, rs)
    }

    /// `simulation.compute_simulation` + `ranking.relevant_sets` so far —
    /// the part of a `Match` call these twins account for.
    pub fn match_core_ns(&self) -> u64 {
        self.compute_ns + self.relevant_sets_ns
    }

    /// Writes the `simulation.*` and `ranking.*` metrics.
    pub fn record(&self, metrics: &mut Metrics) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let n = self.patterns;
        metrics.set("simulation.compute_ms_sum", ms(self.compute_ns), n);
        metrics.set("simulation.match_graph_ms_sum", ms(self.match_graph_ns), n);
        metrics.set("simulation.candidate_pairs", self.candidate_pairs as f64, n);
        metrics.set("simulation.match_pairs", self.match_pairs as f64, n);
        metrics.set("ranking.relevant_sets_ms_sum", ms(self.relevant_sets_ns), n);
        metrics.set("ranking.bounds_ms_sum", ms(self.bounds_ns), n);
        metrics.set("ranking.distance_ms_sum", ms(self.distance_ns), n);
    }
}
