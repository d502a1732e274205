//! Pattern-SCC wave processing — the engine's `SccProcess` (Section 4.2).
//!
//! Nontrivial pattern SCCs admit *cyclically supported* matches: simulation
//! is a greatest fixpoint, so a set of pairs that mutually satisfy each
//! other's edges (grounded externally through confirmed matches where
//! external edges exist) are all matches. Each wave therefore runs:
//!
//! 1. **ground/refute** — the same per-pair evaluation as the acyclic
//!    propagation, minus cycle detection;
//! 2. **promotion fixpoint** — candidates are the unknown (activated, for
//!    leaf SCCs) pairs whose external edges are satisfied by confirmed
//!    matches; internal support is counted over `Matched ∪ candidates` and
//!    unsupported pairs are removed to a worklist until stable. Survivors
//!    are matches (they form a simulation together with everything already
//!    matched);
//! 3. **shared relevant sets** — the matched pairs of the SCC are condensed
//!    (match-graph SCCs never span pattern SCCs), and each component shares
//!    one `Rc` bitset: members of a cycle all reach the same data nodes,
//!    exactly like `DB2/PRG2/DB3/PRG3` sharing their relevant set in
//!    Example 8;
//! 4. **finality** — once every external child is final (and, for leaf
//!    SCCs, every member is activated), the promotion was exact: remaining
//!    unknowns are refuted and the whole SCC finalizes.

use std::rc::Rc;

use gpm_graph::csr::Csr;
use gpm_graph::{BitSet, Condensation};
use gpm_simulation::ReachView;

use super::{Engine, Status};

impl Engine<'_> {
    pub(super) fn process_scc(&mut self, scc: u32) {
        if self.scc_pairs[scc as usize].is_empty() {
            return;
        }
        // Borrowed for the call: nothing below touches `scc_pairs`.
        let pairs = std::mem::take(&mut self.scc_pairs[scc as usize]);
        self.stats.propagation_updates += pairs.len() as u64;
        let leaf_scc = {
            let u = self.pg.pattern_node(pairs[0]);
            self.node_rank[u as usize] == 0
        };

        let mut changed: Vec<u32> = Vec::new();

        // ---- step 1: ground / refute from current child statuses.
        for &p in &pairs {
            if self.finals[p as usize] || self.status[p as usize] != Status::Unknown {
                continue;
            }
            let u = self.pg.pattern_node(p);
            let all_edges = u64::MAX >> (64 - self.q.successors(u).len());
            let (mut matched, mut alive) = (0u64, 0u64);
            let mut all_final = true;
            for &c in self.pg.successors(p) {
                let edge = 1u64 << self.edge_index(u, self.pg.pattern_node(c));
                match self.status[c as usize] {
                    Status::Matched => matched |= edge,
                    Status::Refuted => {}
                    Status::Unknown => alive |= edge,
                }
                if !self.finals[c as usize] {
                    all_final = false;
                }
            }
            let any_dead = (matched | alive) != all_edges;
            if any_dead || (all_final && matched != all_edges) {
                self.status[p as usize] = Status::Refuted;
                self.finals[p as usize] = true;
                changed.push(p);
            } else if matched == all_edges {
                self.confirm(p);
                changed.push(p);
            }
        }

        // ---- step 2: promotion fixpoint over cyclic support.
        let promoted = self.promote_scc(&pairs, scc, leaf_scc);
        changed.extend_from_slice(&promoted);

        // ---- step 3: shared relevant-set propagation over matched pairs.
        let r_changed = self.propagate_scc_r(&pairs, scc);
        changed.extend_from_slice(&r_changed);

        // ---- step 4: finality.
        if self.scc_ready_for_finality(&pairs, scc, leaf_scc) {
            for &p in &pairs {
                if self.status[p as usize] == Status::Unknown {
                    self.status[p as usize] = Status::Refuted;
                    changed.push(p);
                }
                if !self.finals[p as usize] {
                    self.finals[p as usize] = true;
                    changed.push(p);
                }
            }
        }

        // ---- notify: output caches + external parents.
        changed.sort_unstable();
        changed.dedup();
        for p in changed {
            self.after_pair_change(p);
            // Only parents outside this SCC: internal effects are settled.
            for k in 0..self.pg.predecessors(p).len() {
                let par = self.pg.predecessors(p)[k];
                let pu = self.pg.pattern_node(par);
                if self.scc_of[pu as usize] != scc && !self.finals[par as usize] {
                    self.mark_dirty(par);
                }
            }
        }
        self.scc_pairs[scc as usize] = pairs;
    }

    /// Bitmask over the pattern edges of `u` (bit `j` = `j`-th successor)
    /// whose target satisfies `pred`.
    fn edge_mask(&self, u: u32, pred: impl Fn(u32) -> bool) -> u64 {
        self.q
            .successors(u)
            .iter()
            .enumerate()
            .filter(|&(_, &uc)| pred(uc))
            .fold(0u64, |mask, (j, _)| mask | 1u64 << j)
    }

    /// Greatest-fixpoint promotion. Returns newly matched pairs.
    fn promote_scc(&mut self, pairs: &[u32], scc: u32, leaf_scc: bool) -> Vec<u32> {
        // Candidate eligibility: Unknown, activated if leaf SCC, and every
        // external edge satisfied by a confirmed match.
        let mut cand_mark = vec![false; pairs.len()];
        let mut max_deg = 0usize;
        let mut cand: Vec<u32> = Vec::new();
        for &p in pairs {
            if self.status[p as usize] != Status::Unknown {
                continue;
            }
            if leaf_scc && !self.activated[p as usize] {
                continue;
            }
            let u = self.pg.pattern_node(p);
            max_deg = max_deg.max(self.q.successors(u).len());
            // Every external edge needs a confirmed matching child.
            let mut unmatched_ext = self.edge_mask(u, |uc| self.scc_of[uc as usize] != scc);
            for &c in self.pg.successors(p) {
                let uc = self.pg.pattern_node(c);
                if self.scc_of[uc as usize] != scc && self.status[c as usize] == Status::Matched {
                    unmatched_ext &= !(1u64 << self.edge_index(u, uc));
                }
            }
            if unmatched_ext == 0 {
                cand_mark[self.scc_local[p as usize] as usize] = true;
                cand.push(p);
            }
        }
        if cand.is_empty() {
            return Vec::new();
        }

        // Internal support counts over Matched ∪ candidates.
        let stride = max_deg.max(1);
        let mut support = vec![0u32; pairs.len() * stride];
        for &p in &cand {
            let u = self.pg.pattern_node(p);
            let lp = self.scc_local[p as usize] as usize;
            for &c in self.pg.successors(p) {
                let uc = self.pg.pattern_node(c);
                if self.scc_of[uc as usize] != scc {
                    continue;
                }
                let ok = match self.status[c as usize] {
                    Status::Matched => true,
                    Status::Unknown => cand_mark[self.scc_local[c as usize] as usize],
                    Status::Refuted => false,
                };
                if ok {
                    support[lp * stride + self.edge_index(u, uc)] += 1;
                }
            }
        }

        // Remove unsupported candidates until stable.
        let mut worklist: Vec<u32> = Vec::new();
        for &p in &cand {
            let u = self.pg.pattern_node(p);
            let lp = self.scc_local[p as usize] as usize;
            let mut internal = self.edge_mask(u, |uc| self.scc_of[uc as usize] == scc);
            let mut unsupported = false;
            while internal != 0 {
                let j = internal.trailing_zeros() as usize;
                internal &= internal - 1;
                unsupported |= support[lp * stride + j] == 0;
            }
            if unsupported {
                cand_mark[lp] = false;
                worklist.push(p);
            }
        }
        while let Some(p) = worklist.pop() {
            let pu = self.pg.pattern_node(p);
            for &par in self.pg.predecessors(p) {
                let paru = self.pg.pattern_node(par);
                if self.scc_of[paru as usize] != scc {
                    continue;
                }
                let lpar = self.scc_local[par as usize] as usize;
                if !cand_mark[lpar] {
                    continue;
                }
                let j = self.edge_index(paru, pu);
                let slot = lpar * stride + j;
                support[slot] -= 1;
                if support[slot] == 0 {
                    cand_mark[lpar] = false;
                    worklist.push(par);
                }
            }
        }

        // Survivors are matches.
        let mut promoted = Vec::new();
        for &p in &cand {
            if cand_mark[self.scc_local[p as usize] as usize] {
                self.confirm(p);
                promoted.push(p);
            }
        }
        promoted
    }

    /// Recomputes shared relevant sets over the SCC's matched pairs.
    /// Returns pairs whose `R` grew.
    fn propagate_scc_r(&mut self, pairs: &[u32], scc: u32) -> Vec<u32> {
        let matched: Vec<u32> =
            pairs.iter().copied().filter(|&p| self.status[p as usize] == Status::Matched).collect();
        if matched.is_empty() {
            return Vec::new();
        }
        // Position in `matched` by position in `pairs`.
        let mut local_of = vec![u32::MAX; pairs.len()];
        for (i, &p) in matched.iter().enumerate() {
            local_of[self.scc_local[p as usize] as usize] = i as u32;
        }
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (i, &p) in matched.iter().enumerate() {
            for &c in self.pg.successors(p) {
                if self.scc_of[self.pg.pattern_node(c) as usize] == scc {
                    let lc = local_of[self.scc_local[c as usize] as usize];
                    if lc != u32::MAX {
                        edges.push((i as u32, lc));
                    }
                }
            }
        }
        let csr = Csr::from_edges(matched.len(), &edges);
        let cond = Condensation::compute(&csr);

        let m = self.pg.universe_size();
        let nc = cond.component_count();
        // The shared `R` of each finished component.
        let mut shared: Vec<Option<Rc<BitSet>>> = vec![None; nc];
        let mut comp_final = vec![true; nc];
        let mut grew: Vec<u32> = Vec::new();

        for comp in cond.reverse_topological() {
            let mut set = BitSet::new(m);
            // Internal children in lower components contribute
            // `R ∪ {their node}`; a cycle's `R` already holds its nodes.
            for &sc in cond.comp_successors(comp) {
                set.union_with(shared[sc as usize].as_ref().expect("succ first"));
                if !cond.is_nontrivial(sc) {
                    set.insert(self.pg.universe_pos(matched[cond.members(sc)[0] as usize]));
                }
                comp_final[comp as usize] &= comp_final[sc as usize];
            }
            for &lm in cond.members(comp) {
                let p = matched[lm as usize];
                // External matched children contribute R(c) ∪ {g(c)}.
                for &c in self.pg.successors(p) {
                    match self.status[c as usize] {
                        Status::Matched => {}
                        Status::Refuted => continue,
                        Status::Unknown => {
                            // An internal Unknown child may still become a
                            // match and extend this component's sets.
                            comp_final[comp as usize] = false;
                            continue;
                        }
                    }
                    let uc = self.pg.pattern_node(c);
                    if self.scc_of[uc as usize] == scc {
                        continue; // covered by comp DP
                    }
                    if !self.finals[c as usize] {
                        comp_final[comp as usize] = false;
                    }
                    set.insert(self.pg.universe_pos(c));
                    if let Some(rc) = &self.r[c as usize] {
                        set.union_with(rc);
                    }
                }
            }
            if cond.is_nontrivial(comp) {
                // Cycle members reach each other and themselves.
                for &lm in cond.members(comp) {
                    set.insert(self.pg.universe_pos(matched[lm as usize]));
                }
            }
            let result = Rc::new(set);
            let count = result.count() as u32;
            for &lm in cond.members(comp) {
                let p = matched[lm as usize];
                if count != self.r_count[p as usize] {
                    self.r_count[p as usize] = count;
                    grew.push(p);
                }
                self.r[p as usize] = Some(Rc::clone(&result));
            }
            // Per-component finality: every reachable pair is decided and
            // stable, so R is exact and the status can never change — mark
            // members final (this is what lets `h` tighten to `δr` under
            // the random selection strategy too).
            if comp_final[comp as usize] {
                for &lm in cond.members(comp) {
                    let p = matched[lm as usize];
                    if !self.finals[p as usize] {
                        self.finals[p as usize] = true;
                        grew.push(p); // report as changed for notifications
                    }
                }
            }
            shared[comp as usize] = Some(result);
        }
        grew
    }

    fn scc_ready_for_finality(&self, pairs: &[u32], scc: u32, leaf_scc: bool) -> bool {
        if leaf_scc {
            return pairs.iter().all(|&p| self.activated[p as usize]);
        }
        pairs.iter().all(|&p| {
            self.pg.successors(p).iter().all(|&c| {
                self.scc_of[self.pg.pattern_node(c) as usize] == scc || self.finals[c as usize]
            })
        })
    }
}
