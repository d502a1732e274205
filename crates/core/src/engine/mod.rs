//! The early-termination propagation engine (Sections 4.1–4.2).
//!
//! One engine serves `TopKDAG`, `TopK`, and the diversified heuristic
//! `TopKDH`: a DAG pattern is simply a pattern whose SCCs are all trivial.
//!
//! ## State
//!
//! The engine's only working set is the **output cone**: the candidate
//! pairs `(u,v)`, `v ∈ can(u)`, reachable from an output pair `(uo, v)`
//! along pattern edges ([`MatchGraph::over_output_cone`]). Nothing outside
//! it can influence `Mu(Q,G,uo)` or any `δr(uo, ·)`, so it is built once
//! and the bound index, the structural pass, SCC processing and every wave
//! run on that one graph — work proportional to what can reach an answer,
//! not to the candidate space. Relevant sets are bitsets over the cone's
//! own universe (the data nodes of the cone pairs that have a predecessor —
//! nothing else can enter a relevant set; see [`MatchGraph`]).
//! Every cone pair carries the paper's vector `v.T = ⟨v.bf, v.R, v.l, v.h⟩`:
//!
//! * the boolean formula `v.bf` is represented by a three-valued
//!   [`Status`] derived from per-edge child summaries — `Matched` exactly
//!   when every pattern edge has a confirmed matching child (possibly
//!   through a cycle inside a pattern SCC), `Refuted` when some edge can no
//!   longer be satisfied;
//! * `v.R` is the partial relevant set, a shared (`Rc`) bitset over the
//!   cone universe that grows monotonically as matches propagate;
//! * `v.l = |v.R|` is a sound lower bound of `δr` once the pair is matched;
//! * `v.h` of an output pair starts from the bound index
//!   ([`output_upper_bounds_on_cone`]: the count of distinct data nodes
//!   strictly reachable from the pair in this same graph, the `v.h` of
//!   Examples 7–8) and tightens to `|v.R|` when the pair becomes
//!   *final* (its whole cone is decided).
//!
//! ## Waves
//!
//! Each wave activates a batch `Sc` of unvisited rank-0 candidates (leaf
//! pattern nodes, or members of leaf pattern SCCs), then propagates changes
//! bottom-up in topological-rank order: trivial pattern nodes are
//! recomputed from their children (the paper's `AcyclicProp`); nontrivial
//! pattern SCCs run a local greatest-fixpoint promotion plus shared
//! relevant-set propagation (the paper's `SccProcess`). Statuses move
//! monotonically (`Unknown → Matched/Refuted`), so waves converge.
//!
//! Drivers ([`crate::topk`], [`crate::topk_dh`]) own the outer loop and the
//! Proposition 3 termination check, then ask the engine to *complete the
//! cones* of the winners so reported scores are exact.

mod scc;
mod selection;

use std::rc::Rc;

use gpm_graph::{BitSet, Condensation, DiGraph, NodeId};
use gpm_pattern::{PNodeId, Pattern};
use gpm_ranking::bounds::output_upper_bounds_on_cone;
use gpm_simulation::{compute_simulation, CandidateSpace, MatchGraph, ReachView};

use crate::config::{SelectionStrategy, TopKConfig};
use crate::result::RunStats;

/// Three-valued match status of a candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not yet decided.
    Unknown,
    /// Confirmed member of `M(Q,G)` (sound: grounded or cyclically supported
    /// by confirmed matches only).
    Matched,
    /// Confirmed non-member.
    Refuted,
}

/// Outcome of one wave.
#[derive(Debug, Clone, Copy)]
pub struct WaveOutcome {
    /// Leaves activated in this wave.
    pub activated: usize,
    /// `true` when every cone leaf has been activated (the relation is now
    /// exact and fully known).
    pub exhausted: bool,
}

pub struct Engine<'a> {
    pub(crate) q: &'a Pattern,
    cfg: &'a TopKConfig,
    pub(crate) space: CandidateSpace,
    /// The output cone; output pairs are `out_base..out_base + out_count`.
    /// Relevant sets are bitsets over its universe.
    pub(crate) pg: MatchGraph,

    // Pattern structure.
    pub(crate) scc_of: Vec<u32>,
    scc_nontrivial: Vec<bool>,
    node_rank: Vec<u32>,
    max_rank: u32,
    /// Pairs per nontrivial pattern SCC.
    scc_pairs: Vec<Vec<u32>>,
    /// Local index of a pair within its pattern SCC's pair list
    /// (`u32::MAX` for pairs of trivial SCCs).
    scc_local: Vec<u32>,

    // Pair state.
    pub(crate) status: Vec<Status>,
    pub(crate) finals: Vec<bool>,
    activated: Vec<bool>,
    pub(crate) r: Vec<Option<Rc<BitSet>>>,
    r_count: Vec<u32>,

    // Output-candidate caches (indexed by candidate position in can(uo)).
    out_base: u32,
    out_count: usize,
    h_init: Vec<u64>,
    h_cur: Vec<u64>,
    /// Candidate positions sorted by descending initial bound.
    h_order: Vec<u32>,
    /// Confirmed output candidates, in confirmation order.
    matched_out: Vec<u32>,

    // Dirty machinery.
    dirty: Vec<bool>,
    buckets: Vec<Vec<u32>>,

    // Leaves / exhaustion.
    rank0: Vec<u32>,
    unactivated: usize,
    /// Output candidates whose whole cone is activated (values exact).
    pub(crate) cone_complete: Vec<bool>,
    /// Candidates whose cones were activated by the current wave.
    pub(crate) pending_complete: Vec<usize>,
    selection_cursor: usize,
    rng_state: u64,
    shuffled_leaves: Vec<u32>,

    // Scratch reused across waves: a pair is visited in the current
    // traversal iff `visit_stamp[p] == visit_epoch`.
    visit_stamp: Vec<u32>,
    visit_epoch: u32,
    stack: Vec<u32>,
    batch: Vec<u32>,

    pub(crate) stats: RunStats,
}

impl<'a> Engine<'a> {
    /// Builds the engine: candidate space, output cone, bound index and
    /// the initial structural-refutation wave. Returns `None` when some
    /// pattern node has no candidate (then `M(Q,G) = ∅`) or — for non-root
    /// output nodes — when a global simulation pre-check finds an unmatched
    /// pattern node (the extension discussed at the end of Section 4.1).
    pub fn new(g: &'a DiGraph, q: &'a Pattern, cfg: &'a TopKConfig) -> Option<Self> {
        let space = if q.output_is_root() {
            CandidateSpace::compute(g, q)
        } else {
            // Non-root output: matches of uo depend only on uo's cone, but
            // the paper's semantics empties Mu when *any* pattern node is
            // unmatched; verify existence globally first and keep the
            // candidates that simulation enumerated.
            let sim = compute_simulation(g, q);
            if !sim.graph_matches() {
                return None;
            }
            sim.into_space()
        };
        if space.any_empty() {
            return None;
        }

        let pg = MatchGraph::over_output_cone(g, q, &space);
        let h = output_upper_bounds_on_cone(q, &space, &pg, &cfg.reach);

        let qcond = Condensation::compute(q.topology());
        let scc_of: Vec<u32> = (0..q.node_count() as u32).map(|u| qcond.component_of(u)).collect();
        let scc_nontrivial: Vec<bool> =
            (0..qcond.component_count() as u32).map(|c| qcond.is_nontrivial(c)).collect();
        let node_rank: Vec<u32> = (0..q.node_count() as u32).map(|u| qcond.node_rank(u)).collect();
        let max_rank = node_rank.iter().copied().max().unwrap_or(0);

        let n = pg.len();
        let uo = q.output();
        let out_base = pg.compact_of(space.pair_at(uo, 0)).expect("output pairs root the cone");
        let out_count = space.candidate_count(uo);

        let mut eng = Engine {
            q,
            cfg,
            space,
            pg,
            scc_of,
            scc_nontrivial,
            node_rank,
            max_rank,
            scc_pairs: vec![Vec::new(); qcond.component_count()],
            scc_local: vec![u32::MAX; n],
            status: vec![Status::Unknown; n],
            finals: vec![false; n],
            activated: vec![false; n],
            r: vec![None; n],
            r_count: vec![0; n],
            out_base,
            out_count,
            h_cur: h.clone(),
            h_init: h,
            h_order: Vec::new(),
            matched_out: Vec::new(),
            dirty: vec![false; n],
            buckets: vec![Vec::new(); max_rank as usize + 1],
            rank0: Vec::new(),
            unactivated: 0,
            cone_complete: vec![false; out_count],
            pending_complete: Vec::new(),
            selection_cursor: 0,
            rng_state: 0,
            shuffled_leaves: Vec::new(),
            visit_stamp: vec![0; n],
            visit_epoch: 0,
            stack: Vec::new(),
            batch: Vec::new(),
            stats: RunStats::default(),
        };
        eng.stats.output_candidates = out_count;

        eng.index_pairs();
        eng.init_h_order();
        eng.initial_wave();
        eng.init_selection();
        Some(eng)
    }

    /// Collects the rank-0 pairs (the leaves waves activate) and the pair
    /// list of every nontrivial pattern SCC, both in ascending pair order.
    fn index_pairs(&mut self) {
        for p in 0..self.pg.len() as u32 {
            let u = self.pg.pattern_node(p) as usize;
            if self.node_rank[u] == 0 {
                self.rank0.push(p);
            }
            let scc = self.scc_of[u] as usize;
            if self.scc_nontrivial[scc] {
                self.scc_local[p as usize] = self.scc_pairs[scc].len() as u32;
                self.scc_pairs[scc].push(p);
            }
        }
        self.unactivated = self.rank0.len();
    }

    fn init_h_order(&mut self) {
        let mut order: Vec<u32> = (0..self.out_count as u32).collect();
        order.sort_by(|&a, &b| {
            self.h_init[b as usize].cmp(&self.h_init[a as usize]).then(a.cmp(&b))
        });
        self.h_order = order;
    }

    /// Initial structural pass: recompute every pair once bottom-up so
    /// pairs with edges that have no candidate children are refuted before
    /// any activation (the paper's `can(u)` initialization).
    fn initial_wave(&mut self) {
        // Pairs by rank, ascending within a rank: SCC pairs cannot be
        // structurally refuted here and leaves decide on activation.
        let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); self.max_rank as usize + 1];
        for p in 0..self.pg.len() as u32 {
            let u = self.pg.pattern_node(p);
            if !self.scc_nontrivial[self.scc_of[u as usize] as usize]
                && !self.q.successors(u).is_empty()
            {
                by_rank[self.node_rank[u as usize] as usize].push(p);
            }
        }
        for p in by_rank.into_iter().flatten() {
            self.recompute_trivial(p);
        }
        self.drain_buckets(); // cascade refutations
    }

    fn init_selection(&mut self) {
        if let SelectionStrategy::Random { seed } = self.cfg.strategy {
            self.rng_state = seed | 1;
            self.shuffled_leaves = self.rank0.clone();
            // Fisher-Yates with a small xorshift; reproducible across runs.
            let n = self.shuffled_leaves.len();
            for i in (1..n).rev() {
                let j = (self.next_rand() as usize) % (i + 1);
                self.shuffled_leaves.swap(i, j);
            }
        }
    }

    pub(crate) fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    // ------------------------------------------------------------ accessors

    /// Number of output candidates.
    pub fn output_candidates(&self) -> usize {
        self.out_count
    }

    /// Data node of the `i`-th output candidate.
    pub fn output_node(&self, i: usize) -> NodeId {
        self.pg.data_node(self.out_base + i as u32)
    }

    /// Status of the `i`-th output candidate.
    pub fn output_status(&self, i: usize) -> Status {
        self.status[(self.out_base + i as u32) as usize]
    }

    /// Lower bound `l` (current partial `|R|`) of the `i`-th output candidate.
    pub fn output_l(&self, i: usize) -> u64 {
        self.r_count[(self.out_base + i as u32) as usize] as u64
    }

    /// Current upper bound `h` of the `i`-th output candidate.
    pub fn output_h(&self, i: usize) -> u64 {
        self.h_cur[i]
    }

    /// Partial relevant set of the `i`-th output candidate (`None` = empty).
    pub fn output_r(&self, i: usize) -> Option<&BitSet> {
        self.r[(self.out_base + i as u32) as usize].as_deref()
    }

    /// Universe size of relevant-set bitsets (the cone's data nodes).
    pub fn universe_size(&self) -> usize {
        self.pg.universe_size()
    }

    /// The candidate space (for `Cuo`, candidate counts, etc.).
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// `true` once every cone leaf is activated.
    pub fn exhausted(&self) -> bool {
        self.unactivated == 0
    }

    /// Confirmed output matches so far, in confirmation order:
    /// `(candidate index, node, l)`.
    pub fn matched_outputs(&self) -> impl Iterator<Item = (usize, NodeId, u64)> + '_ {
        self.matched_out
            .iter()
            .map(|&i| (i as usize, self.output_node(i as usize), self.output_l(i as usize)))
    }

    /// Number of confirmed output matches.
    pub fn matched_count(&self) -> usize {
        self.matched_out.len()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable statistics (drivers stamp timing / termination flags).
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Largest current upper bound among non-refuted output candidates not
    /// in `selected` — the right-hand side of Proposition 3. Exploits the
    /// static descending order of initial bounds to stop scanning early.
    pub fn best_rest_bound(&self, selected: &[usize]) -> u64 {
        let mut best = 0u64;
        for &i in &self.h_order {
            let i = i as usize;
            if self.h_init[i] <= best {
                break; // everything later has h_cur ≤ h_init ≤ best
            }
            if selected.contains(&i) {
                continue;
            }
            if self.output_status(i) == Status::Refuted {
                continue;
            }
            best = best.max(self.h_cur[i]);
        }
        best
    }

    // ------------------------------------------------------------ the wave

    /// Selects a batch, activates it and propagates. Returns what happened.
    pub fn wave(&mut self) -> WaveOutcome {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        self.select_batch(&mut batch);
        let activated = batch.len();
        for &p in &batch {
            self.activate(p);
        }
        self.batch = batch;
        self.drain_buckets();
        // Cones fully activated by now have exact relevant sets: tighten
        // `h` to the exact `δr` (the paper's `v.h := |v.R|` refinement).
        for k in 0..self.pending_complete.len() {
            let i = self.pending_complete[k];
            self.cone_complete[i] = true;
            let p = self.out_base + i as u32;
            match self.status[p as usize] {
                Status::Matched => self.h_cur[i] = self.r_count[p as usize] as u64,
                Status::Refuted => self.h_cur[i] = 0,
                Status::Unknown => {}
            }
        }
        self.pending_complete.clear();
        self.stats.waves += 1;
        WaveOutcome { activated, exhausted: self.exhausted() }
    }

    /// Activates every remaining leaf and propagates — used by the `Match`
    /// comparison path and as the drivers' fallback.
    pub fn exhaust(&mut self) {
        for k in 0..self.rank0.len() {
            self.activate(self.rank0[k]);
        }
        self.drain_buckets();
        self.stats.waves += 1;
    }

    /// Starts a traversal: afterwards no pair is [`Self::visit`]ed. (A run
    /// makes at most one traversal per wave, far fewer than `u32::MAX`.)
    pub(super) fn begin_traversal(&mut self) {
        self.visit_epoch += 1;
    }

    /// Marks `p` visited in the current traversal; `false` if it already was.
    pub(super) fn visit(&mut self, p: u32) -> bool {
        let stamp = &mut self.visit_stamp[p as usize];
        let fresh = *stamp != self.visit_epoch;
        *stamp = self.visit_epoch;
        fresh
    }

    /// Activates all unactivated leaves in the cones of the given output
    /// candidates and propagates, making their `l` values exact δr.
    pub fn complete_cones(&mut self, candidate_indices: &[usize]) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut stack = std::mem::take(&mut self.stack);
        batch.clear();
        self.begin_traversal();
        for &i in candidate_indices {
            let root = self.out_base + i as u32;
            self.visit(root);
            stack.push(root);
            while let Some(p) = stack.pop() {
                if self.node_rank[self.pg.pattern_node(p) as usize] == 0
                    && !self.activated[p as usize]
                {
                    batch.push(p);
                }
                for k in 0..self.pg.successors(p).len() {
                    let c = self.pg.successors(p)[k];
                    if self.status[c as usize] != Status::Refuted && self.visit(c) {
                        stack.push(c);
                    }
                }
            }
        }
        if !batch.is_empty() {
            for &p in &batch {
                self.activate(p);
            }
            self.drain_buckets();
            self.stats.waves += 1;
        }
        self.batch = batch;
        self.stack = stack;
    }

    // ----------------------------------------------------------- internals

    pub(crate) fn edge_index(&self, u: PNodeId, uc: PNodeId) -> usize {
        self.q.successors(u).binary_search(&uc).expect("pattern edge exists")
    }

    fn activate(&mut self, p: u32) {
        if self.activated[p as usize] {
            return;
        }
        self.activated[p as usize] = true;
        self.unactivated -= 1;
        self.stats.activated_leaves += 1;
        let u = self.pg.pattern_node(p);
        if self.q.successors(u).is_empty() {
            // Leaf pattern node: the pair is a match by definition.
            if self.status[p as usize] == Status::Unknown {
                self.set_matched_leaf(p);
            }
        } else {
            // Member of a leaf pattern SCC: eligible for promotion now.
            self.mark_dirty(p);
        }
    }

    /// Confirms `p` as a match (the one place a status becomes `Matched`).
    pub(crate) fn confirm(&mut self, p: u32) {
        self.status[p as usize] = Status::Matched;
        if let Some(i) = self.output_index_of(p) {
            self.matched_out.push(i as u32);
        }
    }

    fn set_matched_leaf(&mut self, p: u32) {
        self.confirm(p);
        self.finals[p as usize] = true;
        if let Some(i) = self.output_index_of(p) {
            self.h_cur[i] = 0; // leaf output: δr = 0 exactly
        }
        self.mark_parents_dirty(p);
    }

    pub(crate) fn output_index_of(&self, p: u32) -> Option<usize> {
        let i = p.wrapping_sub(self.out_base) as usize;
        (self.pg.pattern_node(p) == self.q.output()).then_some(i)
    }

    pub(crate) fn mark_dirty(&mut self, p: u32) {
        if !self.dirty[p as usize] {
            self.dirty[p as usize] = true;
            let rank = self.node_rank[self.pg.pattern_node(p) as usize];
            self.buckets[rank as usize].push(p);
        }
    }

    pub(crate) fn mark_parents_dirty(&mut self, p: u32) {
        for k in 0..self.pg.predecessors(p).len() {
            let par = self.pg.predecessors(p)[k];
            if !self.finals[par as usize] {
                self.mark_dirty(par);
            }
        }
    }

    fn drain_buckets(&mut self) {
        for rank in 0..=self.max_rank as usize {
            let mut bucket = std::mem::take(&mut self.buckets[rank]);
            if bucket.is_empty() {
                continue;
            }
            let mut sccs_to_run: Vec<u32> = Vec::new();
            for &p in &bucket {
                self.dirty[p as usize] = false;
                let scc = self.scc_of[self.pg.pattern_node(p) as usize];
                if self.scc_nontrivial[scc as usize] {
                    if !sccs_to_run.contains(&scc) {
                        sccs_to_run.push(scc);
                    }
                } else {
                    self.recompute_trivial(p);
                }
            }
            for scc in sccs_to_run {
                self.process_scc(scc);
            }
            // Propagation only dirties strictly higher ranks, so the
            // emptied bucket can take its allocation back.
            debug_assert!(self.buckets[rank].is_empty());
            bucket.clear();
            self.buckets[rank] = bucket;
        }
    }

    /// Recomputes a trivial-SCC pair from its children (the paper's
    /// `AcyclicProp` step for one pair).
    fn recompute_trivial(&mut self, p: u32) {
        if self.finals[p as usize] {
            return;
        }
        self.stats.propagation_updates += 1;
        let u = self.pg.pattern_node(p);
        let d = self.q.successors(u).len();
        debug_assert!(d > 0, "leaves are decided by activation only");

        // Per-edge child summary, one bit per pattern edge of `u` (a
        // pattern has at most 64 nodes, hence at most 64 edges per node).
        let all_edges = u64::MAX >> (64 - d);
        let (mut matched, mut alive, mut unsettled) = (0u64, 0u64, 0u64);
        for &c in self.pg.successors(p) {
            let edge = 1u64 << self.edge_index(u, self.pg.pattern_node(c));
            match self.status[c as usize] {
                Status::Matched => matched |= edge,
                Status::Refuted => {}
                Status::Unknown => alive |= edge,
            }
            if !self.finals[c as usize] {
                unsettled |= edge;
            }
        }

        let any_dead = (matched | alive) != all_edges;
        let all_matched = matched == all_edges;
        let children_final = unsettled == 0;

        let old_status = self.status[p as usize];
        let new_status = if any_dead {
            Status::Refuted
        } else if all_matched {
            Status::Matched
        } else if children_final {
            // Every child decided and stable, yet some edge unmatched.
            Status::Refuted
        } else {
            Status::Unknown
        };

        let mut changed = new_status != old_status;
        if new_status == Status::Matched {
            if changed {
                self.confirm(p);
            }
            changed |= self.union_matched_children_into_r(p);
        } else {
            self.status[p as usize] = new_status;
        }

        let new_final = match new_status {
            Status::Refuted => true,
            Status::Matched => children_final,
            Status::Unknown => false,
        };
        if new_final && !self.finals[p as usize] {
            self.finals[p as usize] = true;
            changed = true;
        }
        if changed {
            self.after_pair_change(p);
            self.mark_parents_dirty(p);
        }
    }

    /// Unions `R(c) ∪ {g(c)}` of every matched child into `R(p)`. Returns
    /// whether `R(p)` grew.
    pub(crate) fn union_matched_children_into_r(&mut self, p: u32) -> bool {
        let mut grew = false;
        // Take ownership of the set (copy-on-write on sharing).
        let mut rp = match self.r[p as usize].take() {
            Some(rc) => rc,
            None => Rc::new(BitSet::new(self.pg.universe_size())),
        };
        let set = Rc::make_mut(&mut rp);
        for &c in self.pg.successors(p) {
            if self.status[c as usize] != Status::Matched {
                continue;
            }
            grew |= set.insert(self.pg.universe_pos(c));
            if let Some(rc) = &self.r[c as usize] {
                grew |= set.union_with(rc);
            }
        }
        if grew {
            self.r_count[p as usize] = set.count() as u32;
        }
        self.r[p as usize] = Some(rp);
        grew
    }

    /// Post-change bookkeeping for output candidates (h tightening).
    pub(crate) fn after_pair_change(&mut self, p: u32) {
        if let Some(i) = self.output_index_of(p) {
            match self.status[p as usize] {
                Status::Refuted => self.h_cur[i] = 0,
                Status::Matched if self.finals[p as usize] => {
                    self.h_cur[i] = self.r_count[p as usize] as u64;
                }
                _ => {}
            }
        }
    }

    // Selection lives in `selection.rs`, SCC processing in `scc.rs`.
}
