//! The multi-pattern input generators — the pieces of the retired
//! registry bench the `benchmark/` package still imports (its
//! `stream_relevance` / `stream_diversified` workloads; `input_digest`
//! pins the bytes).

use gpm_graph::DiGraph;
use gpm_pattern::builder::label_pattern;
use gpm_pattern::Pattern;

/// The paper-style cyclic synthetic base graph the stream mutates.
pub fn registry_graph(nodes: usize, seed: u64) -> DiGraph {
    gpm_datagen::synthetic::synthetic_graph(&gpm_datagen::synthetic::SyntheticConfig::paper(
        nodes,
        4 * nodes,
        seed,
    ))
}

/// A deterministic pool of `n` small label-only patterns over a
/// `labels`-letter alphabet: chains of 2–4 nodes, every other one closed
/// into a cycle. Deliberately diverse in label coverage so the shared
/// index has real pruning to do (each pattern names a handful of the
/// alphabet's label pairs, while the stream churns them all).
pub fn registry_patterns(n: usize, labels: u32, seed: u64) -> Vec<Pattern> {
    let labels = labels.max(2);
    (0..n)
        .map(|i| {
            let len = 2 + (i + seed as usize) % 3; // 2..=4 nodes
            let plabels: Vec<u32> =
                (0..len).map(|j| ((i * 5 + j * 7 + seed as usize * 3) as u32) % labels).collect();
            let mut pedges: Vec<(u32, u32)> = (1..len as u32).map(|j| (j - 1, j)).collect();
            if i % 2 == 0 && len > 2 {
                pedges.push((len as u32 - 1, 0)); // cyclic pattern
            }
            label_pattern(&plabels, &pedges, 0).expect("valid chain pattern")
        })
        .collect()
}
