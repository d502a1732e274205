//! Reachability over small graphs: the pattern nodes an output node
//! reaches (the query nodes the normalizer `Cuo` counts, Section 3.3), and
//! hop distances for the distance-based diversity function
//! `1 - 1/d(v1,v2)` of Section 3.4. Relevant sets over match graphs have
//! their own engine in `gpm-ranking`.

use crate::bitset::BitSet;
use crate::digraph::{DiGraph, NodeId};
use crate::scc::Successors;

/// A reusable BFS scratchpad: repeated traversals on the same graph reuse the
/// visited bitmap and queue instead of reallocating (perf-book: workhorse
/// collections).
#[derive(Debug)]
pub struct Bfs {
    visited: BitSet,
    queue: std::collections::VecDeque<NodeId>,
}

impl Bfs {
    /// Scratchpad for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Bfs { visited: BitSet::new(n), queue: std::collections::VecDeque::new() }
    }

    /// Visits every node reachable from any node of `starts`.
    pub fn run_multi(
        &mut self,
        g: &impl Successors,
        starts: &[NodeId],
        mut on_visit: impl FnMut(NodeId),
    ) {
        self.visited.clear();
        self.queue.clear();
        for &s in starts {
            if self.visited.insert(s as usize) {
                self.queue.push_back(s);
            }
        }
        while let Some(v) = self.queue.pop_front() {
            on_visit(v);
            for &w in g.successors_of(v) {
                if self.visited.insert(w as usize) {
                    self.queue.push_back(w);
                }
            }
        }
    }
}

/// Set of nodes reachable from `start` via **at least one edge** (so `start`
/// itself is included only when it lies on a cycle). This is the reachability
/// notion underlying relevant sets `R(u,v)`.
pub fn strict_descendants(g: &impl Successors, start: NodeId) -> BitSet {
    let n = g.node_count();
    let mut out = BitSet::new(n);
    let mut bfs = Bfs::new(n);
    // Seed with successors rather than the node itself.
    let succ: Vec<NodeId> = g.successors_of(start).to_vec();
    bfs.run_multi(g, &succ, |v| {
        out.insert(v as usize);
    });
    out
}

/// Directed hop distance from `start` to `target`; `None` when unreachable.
/// `d(v, v) = 0`.
pub fn hop_distance(g: &DiGraph, start: NodeId, target: NodeId) -> Option<u32> {
    if start == target {
        return Some(0);
    }
    let mut visited = BitSet::new(g.node_count());
    let mut frontier = vec![start];
    visited.insert(start as usize);
    let mut dist = 0u32;
    while !frontier.is_empty() {
        dist += 1;
        let mut next = Vec::new();
        for v in frontier {
            for &w in g.successors(v) {
                if w == target {
                    return Some(dist);
                }
                if visited.insert(w as usize) {
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_parts;

    fn diamond() -> DiGraph {
        // 0 → {1,2} → 3, plus a cycle 3 → 0.
        graph_from_parts(&[0; 4], &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn strict_descendants_include_start_only_on_a_cycle() {
        let g = diamond();
        // On the cycle, a node reaches itself via ≥1 edge.
        let s = strict_descendants(&g, 0);
        assert_eq!(s.count(), 4);
        assert!(s.contains(0));

        let dag = graph_from_parts(&[0; 3], &[(0, 1), (1, 2)]).unwrap();
        let s0 = strict_descendants(&dag, 0);
        assert!(!s0.contains(0));
        assert!(s0.contains(1) && s0.contains(2));
        let s2 = strict_descendants(&dag, 2);
        assert!(s2.is_empty());
    }

    #[test]
    fn hop_distances() {
        let g = diamond();
        assert_eq!(hop_distance(&g, 1, 2), Some(3)); // 1→3→0→2
        assert_eq!(hop_distance(&g, 0, 3), Some(2));
        assert_eq!(hop_distance(&g, 0, 0), Some(0));
        let dag = graph_from_parts(&[0; 3], &[(0, 1)]).unwrap();
        assert_eq!(hop_distance(&dag, 0, 2), None);
        assert_eq!(hop_distance(&dag, 2, 2), Some(0));
    }

    #[test]
    fn bfs_multi_source() {
        let g = graph_from_parts(&[0; 5], &[(0, 2), (1, 3), (2, 4)]).unwrap();
        let mut bfs = Bfs::new(5);
        let mut seen = Vec::new();
        bfs.run_multi(&g, &[0, 1], |v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Reuse the scratchpad.
        let mut seen2 = Vec::new();
        bfs.run_multi(&g, &[1], |v| seen2.push(v));
        seen2.sort_unstable();
        assert_eq!(seen2, vec![1, 3]);
    }
}
