//! The dirty-region input generator — the one piece of the retired
//! delta-scaling bench the `benchmark/` package still imports (its
//! `stream_dirty` workload; `input_digest` pins the bytes).

use gpm_graph::DiGraph;
use gpm_pattern::Pattern;

/// Cycle length of the dirty-region workload (even: labels alternate).
const DIRTY_CYCLE_LEN: usize = 50;

/// Builds the dirty-region workload: `nodes / DIRTY_CYCLE_LEN` disjoint
/// cycles of alternating labels, served by the cyclic pattern `A ⇄ B`.
/// Every pair is alive and each output's relevant set is exactly its own
/// cycle, so toggling one edge per cycle dirties that cycle's outputs and
/// nothing else — the dirty fraction is controlled precisely by how many
/// cycles a batch touches.
pub fn dirty_region_workload(nodes: usize) -> (DiGraph, Pattern) {
    let len = DIRTY_CYCLE_LEN;
    let cycles = (nodes / len).max(1);
    let mut labels = Vec::with_capacity(cycles * len);
    let mut edges = Vec::with_capacity(cycles * len);
    for c in 0..cycles {
        let base = (c * len) as u32;
        for i in 0..len {
            labels.push((i % 2) as u32);
            edges.push((base + i as u32, base + ((i + 1) % len) as u32));
        }
    }
    let g = gpm_graph::builder::graph_from_parts(&labels, &edges).expect("well-formed cycles");
    let q = gpm_pattern::builder::label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0)
        .expect("cyclic 2-pattern");
    (g, q)
}
