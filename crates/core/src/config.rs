//! Algorithm configuration.

use gpm_ranking::bounds::{BoundConfig, BoundStrategy};
use gpm_ranking::reach_sets::ReachConfig;

/// How leaf batches `Sc` are chosen (Section 4, and the `nopt` ablation of
/// Exp-1/Exp-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Greedy: activate the leaf cone of the most promising (highest `h`)
    /// undecided output candidate — the paper's "minimal set covering the
    /// children of rank-1 candidates", generalized to whole cones.
    #[default]
    Optimized,
    /// Random leaf batches — the paper's `TopKnopt` / `TopKDAGnopt`.
    Random {
        /// RNG seed (experiments fix it for reproducibility).
        seed: u64,
    },
}

/// Configuration for topKP algorithms.
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// Number of matches to return.
    pub k: usize,
    /// Leaf-batch selection strategy.
    pub strategy: SelectionStrategy,
    /// Upper-bound index strategy (Proposition 3's `h`).
    pub bounds: BoundStrategy,
    /// Bound-index tuning.
    pub bound_config: BoundConfig,
    /// Set-reachability policy for the `Match` baseline / score finalization.
    pub reach: ReachConfig,
}

impl TopKConfig {
    /// Default configuration for a given `k`.
    pub fn new(k: usize) -> Self {
        TopKConfig {
            k,
            strategy: SelectionStrategy::Optimized,
            // Adaptive: the tight `ProductReach` index while the candidate
            // product graph fits the budget (it is what makes Prop. 3 fire
            // early), the paper's cheap descendant-count index beyond it.
            bounds: BoundStrategy::Auto,
            bound_config: BoundConfig::default(),
            reach: ReachConfig::default(),
        }
    }

    /// Same configuration with the `nopt` (random) selection strategy.
    pub fn nopt(mut self, seed: u64) -> Self {
        self.strategy = SelectionStrategy::Random { seed };
        self
    }
}

/// Configuration for topKDP algorithms: a topKP configuration plus the
/// trade-off `λ`.
#[derive(Debug, Clone)]
pub struct DivConfig {
    /// Base top-k settings (`k`, strategy, bounds …).
    pub topk: TopKConfig,
    /// Relevance/diversity trade-off `λ ∈ [0,1]` (Section 3.3).
    pub lambda: f64,
}

impl DivConfig {
    /// Default diversified configuration.
    pub fn new(k: usize, lambda: f64) -> Self {
        DivConfig { topk: TopKConfig::new(k), lambda }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = TopKConfig::new(10);
        assert_eq!(c.k, 10);
        assert_eq!(c.strategy, SelectionStrategy::Optimized);
        let n = c.clone().nopt(7);
        assert_eq!(n.strategy, SelectionStrategy::Random { seed: 7 });
        let d = DivConfig::new(5, 0.5);
        assert_eq!(d.topk.k, 5);
        assert_eq!(d.lambda, 0.5);
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::Optimized);
    }
}
