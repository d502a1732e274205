//! Leaf-batch selection `Sc` — the optimized/naive split of Exp-1/Exp-2.
//!
//! * **Optimized** (paper `TopK` / `TopKDAG`): walk output candidates in
//!   descending initial-bound order and activate the unvisited leaf cone of
//!   the first undecided one. High-relevance candidates are decided first,
//!   so the min-heap `S` fills with strong lower bounds early and
//!   Proposition 3 fires after inspecting a fraction of `Mu` — the measured
//!   `MR` of Section 6.
//! * **Random** (paper `TopKnopt` / `TopKDAGnopt`): activate a fixed-size
//!   random slice of the remaining leaves, which spreads work across all
//!   cones and delays termination — exactly the ablation the paper reports
//!   as 16–18% slower.

use super::{Engine, Status};
use crate::config::SelectionStrategy;

impl Engine<'_> {
    /// Fills `batch` (empty on entry) with the leaves the next wave
    /// activates.
    pub(super) fn select_batch(&mut self, batch: &mut Vec<u32>) {
        match self.cfg.strategy {
            SelectionStrategy::Optimized => self.select_optimized(batch),
            SelectionStrategy::Random { .. } => self.select_random(batch),
        }
    }

    fn select_optimized(&mut self, batch: &mut Vec<u32>) {
        // First output candidate by descending initial bound whose cone
        // still has unvisited leaves. Activating a whole cone makes that
        // candidate's relevant set exact after propagation, so the wave
        // driver can tighten `h` to `l` for it (see `pending_complete`).
        // One traversal per call: cones skipped as already activated stay
        // visited for the ones tried after them.
        self.begin_traversal();
        while self.selection_cursor < self.h_order.len() {
            let i = self.h_order[self.selection_cursor] as usize;
            if self.output_status(i) == Status::Refuted || self.cone_complete[i] {
                self.selection_cursor += 1;
                continue;
            }
            self.cone_unactivated_leaves(self.out_base + i as u32, batch);
            // Whether freshly activated (this wave completes it) or already
            // fully activated by earlier overlapping cones: after the next
            // propagation this candidate's values are exact.
            self.pending_complete.push(i);
            self.selection_cursor += 1;
            if !batch.is_empty() {
                return;
            }
        }
        // Every candidate cone-complete: sweep the remainder so exhaustion
        // is reachable.
        self.remaining_leaf_chunk(batch);
    }

    fn cone_unactivated_leaves(&mut self, root: u32, batch: &mut Vec<u32>) {
        if !self.visit(root) {
            return;
        }
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(root);
        while let Some(p) = stack.pop() {
            if self.status[p as usize] == Status::Refuted {
                continue;
            }
            if self.node_rank[self.pg.pattern_node(p) as usize] == 0 && !self.activated[p as usize]
            {
                batch.push(p);
            }
            if self.finals[p as usize] {
                continue; // final ⇒ every leaf below is activated
            }
            for k in 0..self.pg.successors(p).len() {
                let c = self.pg.successors(p)[k];
                if self.visit(c) {
                    stack.push(c);
                }
            }
        }
        self.stack = stack;
    }

    /// Random strategy: a 32nd of the leaves per wave, at least 64.
    fn leaf_chunk_target(&self) -> usize {
        (self.rank0.len() / 32).max(64)
    }

    fn select_random(&mut self, batch: &mut Vec<u32>) {
        let target = self.leaf_chunk_target();
        while batch.len() < target && self.selection_cursor < self.shuffled_leaves.len() {
            let p = self.shuffled_leaves[self.selection_cursor];
            self.selection_cursor += 1;
            if !self.activated[p as usize] {
                batch.push(p);
            }
        }
    }

    fn remaining_leaf_chunk(&mut self, batch: &mut Vec<u32>) {
        let target = self.leaf_chunk_target();
        batch.extend(
            self.rank0.iter().copied().filter(|&p| !self.activated[p as usize]).take(target),
        );
    }
}
