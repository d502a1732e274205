//! The four workloads and what is frozen about them.
//!
//! **The dataset is frozen, its presentation is seeded: `--seed` does not
//! vary the data.** Every workload's base graph, pattern set and
//! update-stream content are generated from [`dataset_seed`] — like the
//! paper's fixed datasets and hand-built query sets — and `--seed` draws
//! only how that traffic is presented: the order of the ops inside each
//! batch, which cycles and edges a dirty round toggles, the query order and
//! TopKnopt's RNG. Costs here are heavy-tailed (a handful of ~100 ms
//! re-condensations carry 40 % of a 50 k-node pass), so re-drawing more
//! than that moves the numbers more than any bound: a re-drawn graph moves
//! `op_ms_p50` by ±12 % and `ops_per_s` by ±25 %, a re-drawn stream over a
//! fixed graph still ±7 % (`NOISE.md`). Other data is what `--dataset 2`
//! is for: a second frozen dataset a perf claim is cross-checked on.

mod layer_twins;
pub mod static_paper;
pub mod stream;
pub mod stream_inputs;

use crate::args::RunArgs;
use crate::host::{self, Stamp};
use crate::report::Outcome;

/// Frozen datasets `--dataset` can name.
pub const DATASETS: u64 = 2;

/// Seed of a frozen dataset. Dataset 1 (the repository's canonical
/// experiment seed, the paper's VLDB 2013 date) is the one every bound and
/// trajectory is taken on; dataset 2 re-draws graph, patterns and stream
/// content for cross-checks and is never compared with dataset 1.
pub fn dataset_seed(dataset: u64) -> u64 {
    20130826 + (dataset - 1)
}
/// Answer size of every workload.
pub const K: usize = 10;
/// Relevance/diversity trade-off of every diversified answer.
pub const LAMBDA: f64 = 0.5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StaticPaper,
    StreamRelevance,
    StreamDiversified,
    StreamDirty,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StaticPaper,
        Workload::StreamRelevance,
        Workload::StreamDiversified,
        Workload::StreamDirty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticPaper => "static_paper",
            Workload::StreamRelevance => "stream_relevance",
            Workload::StreamDiversified => "stream_diversified",
            Workload::StreamDirty => "stream_dirty",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed passes of a nominal (`NOMINAL_SECONDS`) run; one discarded
    /// warm-up pass always precedes them.
    pub fn nominal_passes(self) -> usize {
        match self {
            Workload::StaticPaper => 5,
            Workload::StreamRelevance => 7,
            Workload::StreamDiversified => 6,
            Workload::StreamDirty => 7,
        }
    }

    /// Builds timed and dropped before the timed passes, so `setup_s` is a
    /// minimum over ~1 s of set-ups whatever one costs (20 ms to 350 ms).
    pub fn extra_builds(self) -> usize {
        match self {
            Workload::StaticPaper => 25,
            Workload::StreamRelevance => 3,
            Workload::StreamDiversified => 20,
            Workload::StreamDirty => 40,
        }
    }

    /// The frozen tail percentile of `op_ms_tail`: the highest ladder
    /// percentile with ≥ 10 ops beyond it at this workload's op count
    /// (asserted against the real count in every run).
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::StaticPaper => 90.0,
            Workload::StreamRelevance => 99.0,
            Workload::StreamDiversified => 95.0,
            Workload::StreamDirty => 99.0,
        }
    }

    /// The frozen sizes, for the header of every output.
    pub fn sizes(self) -> &'static str {
        match self {
            Workload::StaticPaper => static_paper::SIZES,
            Workload::StreamRelevance => stream_inputs::RELEVANCE_SIZES,
            Workload::StreamDiversified => stream_inputs::DIVERSIFIED_SIZES,
            Workload::StreamDirty => stream_inputs::DIRTY_SIZES,
        }
    }
}

/// Runs one workload and prints the human-readable report; the caller
/// prints the contract line.
pub fn run(args: &RunArgs) -> Outcome {
    let stamp = Stamp::read();
    println!(
        "# gpm-benchmark workload={} dataset={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.dataset,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# {}", stamp.line());
    // The traced run is left unpinned: two of its per-layer metrics time a
    // second thread, which would inherit the pin.
    let pinned = if args.trace { None } else { host::pin_measuring_thread() };
    println!(
        "# process: pinned_cpu={} keep_freed_memory={}",
        pinned.map_or("none".into(), |c| c.to_string()),
        host::keep_freed_memory()
    );
    println!(
        "# sizes: k={K} lambda={LAMBDA} dataset_seed={} {}",
        dataset_seed(args.dataset),
        args.workload.sizes()
    );
    match args.workload {
        Workload::StaticPaper => static_paper::run(args),
        _ => stream::run(args),
    }
}
