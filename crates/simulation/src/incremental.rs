//! Incremental maintenance of the maximum simulation under graph updates.
//!
//! [`IncSimState`] owns the per-pair survival flags and support counters of
//! a refinement run (seeded from [`crate::refine::refine_state`]) and keeps
//! them at the greatest fixpoint while the underlying [`DynGraph`] changes:
//!
//! * **Edge deletion** can only *shrink* `M(Q,G)`: decrement the affected
//!   counters and re-run the death cascade from pairs whose counter hit
//!   zero — exactly the static cascade, started mid-stream.
//! * **Edge insertion** can only *grow* `M(Q,G)`. Counter increments alone
//!   miss mutually-dependent revivals on cyclic patterns (two dead pairs
//!   that would support each other), so insertion collects the **revival
//!   region** — dead pairs backward-reachable from the inserted edge's
//!   source pairs through dead candidate pairs — optimistically marks it
//!   alive, recounts its counters and re-runs the death cascade inside the
//!   region. Pairs alive before the insertion can never die here
//!   (monotonicity), so the work is proportional to the affected region,
//!   not the graph.
//! * **Node addition** appends candidate pairs (alive iff the pattern node
//!   is a leaf — a fresh node has no edges yet; the batch's edge
//!   insertions then do the rest).
//! * **Node removal** arrives after its incident edges were removed, so
//!   pairs of the node are merely invalidated (dead + barred from
//!   revival).
//! * **Attribute mutation** can flip *candidacy* itself: a node that now
//!   satisfies a pattern node's predicate enters `can(u)` (a fresh or
//!   revalidated slot, revived through the same region machinery as edge
//!   insertion — the node already has edges, so mutual-support cycles can
//!   come alive at once), and a node that stops satisfying it leaves
//!   `can(u)` (killed through the standard death cascade). Only pattern
//!   nodes whose predicate **mentions the mutated key** are re-evaluated —
//!   candidacy is a function of `(label, attrs)`, so any other predicate
//!   is untouched by construction.
//!
//! Every alive-flip is recorded in a per-batch **dirty set** the ranking
//! layer consumes to invalidate relevant sets.

use std::collections::HashMap;

use gpm_graph::dynamic::DynGraph;
use gpm_graph::NodeId;
use gpm_pattern::{PNodeId, Pattern};

use crate::candidates::CandidateSpace;
use crate::refine::refine_state;

/// A `(pattern node, data node)` pair in the dynamic state.
pub type DynPair = (PNodeId, NodeId);

/// Maximum simulation state that follows a [`DynGraph`].
#[derive(Debug, Clone)]
pub struct IncSimState {
    /// `cand[u]`: candidate data nodes of pattern node `u`, append-only
    /// (tombstoned candidates keep their slot, flagged invalid).
    cand: Vec<Vec<NodeId>>,
    /// `idx[u]`: data node → local index in `cand[u]`.
    idx: Vec<HashMap<NodeId, u32>>,
    /// `valid[u][i]`: candidate not tombstoned.
    valid: Vec<Vec<bool>>,
    /// `alive[u][i]`: pair in the maximum simulation (structurally).
    alive: Vec<Vec<bool>>,
    /// `cnt[u][i*d + j]`: alive children of `(u, cand[u][i])` under the
    /// `j`-th pattern edge of `u` (successor order), `d = outdeg(u)`.
    cnt: Vec<Vec<u32>>,
    /// `zeros[u][i]`: number of zero slots among the pair's counters.
    /// Invariant: `alive ⇔ valid ∧ zeros == 0`.
    zeros: Vec<Vec<u32>>,
    /// Alive pairs per pattern node (graph-matches bookkeeping).
    alive_count: Vec<usize>,
    /// Valid candidates per pattern node (`|can(u)|` of the current graph).
    valid_count: Vec<usize>,
    /// Pairs whose alive status flipped since the last `take_dirty`.
    dirty: Vec<DynPair>,
}

impl IncSimState {
    /// Builds the state for `q` over the current contents of `g`, resuming
    /// from a static refinement run. Full [`Predicate`](gpm_pattern::Predicate)
    /// trees are supported — the snapshot carries the graph's attribute
    /// tables, so candidate enumeration evaluates attribute conditions
    /// exactly like the static pipeline. Returns `None` only for patterns
    /// beyond the candidate bitmask width
    /// ([`CandidateSpace::MAX_PATTERN_NODES`]). The snapshot is the
    /// graph's [`DynGraph::shared_snapshot`], so states built between two
    /// batches share one copy.
    pub fn new(g: &DynGraph, q: &Pattern) -> Option<Self> {
        if q.node_count() > CandidateSpace::MAX_PATTERN_NODES {
            return None;
        }
        let snapshot = g.shared_snapshot();
        let space = CandidateSpace::compute(&snapshot, q);
        let rs = refine_state(&snapshot, q, &space);

        let np = q.node_count();
        let mut state = IncSimState {
            cand: vec![Vec::new(); np],
            idx: vec![HashMap::new(); np],
            valid: vec![Vec::new(); np],
            alive: vec![Vec::new(); np],
            cnt: vec![Vec::new(); np],
            zeros: vec![Vec::new(); np],
            alive_count: vec![0; np],
            valid_count: vec![0; np],
            dirty: Vec::new(),
        };
        for u in q.nodes() {
            let d = q.successors(u).len();
            let list = space.candidates(u);
            let ui = u as usize;
            state.cand[ui] = list.to_vec();
            state.valid[ui] = vec![true; list.len()];
            state.valid_count[ui] = list.len();
            state.cnt[ui] = Vec::with_capacity(list.len() * d);
            for (i, &v) in list.iter().enumerate() {
                state.idx[ui].insert(v, i as u32);
                let p = space.pair_at(u, i) as usize;
                let a = rs.alive[p];
                state.alive[ui].push(a);
                if a {
                    state.alive_count[ui] += 1;
                }
                let base = rs.ebase[ui] + i * d;
                state.cnt[ui].extend_from_slice(&rs.counters[base..base + d]);
                let z = (0..d).filter(|&j| rs.counters[base + j] == 0).count() as u32;
                state.zeros[ui].push(z);
                debug_assert_eq!(a, z == 0, "refine fixpoint invariant");
            }
        }
        Some(state)
    }

    // ------------------------------------------------------------ queries

    /// `true` iff every pattern node currently has an alive pair.
    pub fn graph_matches(&self, q: &Pattern) -> bool {
        q.nodes().all(|u| self.alive_count[u as usize] > 0)
    }

    /// `(u, v)` alive? (structural — emptiness rule not applied).
    #[inline]
    pub fn pair_alive(&self, u: PNodeId, v: NodeId) -> bool {
        match self.idx[u as usize].get(&v) {
            Some(&i) => self.alive[u as usize][i as usize],
            None => false,
        }
    }

    /// `true` iff `v` is a (valid) candidate of `u`.
    #[inline]
    pub fn is_candidate(&self, u: PNodeId, v: NodeId) -> bool {
        match self.idx[u as usize].get(&v) {
            Some(&i) => self.valid[u as usize][i as usize],
            None => false,
        }
    }

    /// `true` iff `v` has **ever** been a candidate of `u` — candidate
    /// slots are never deleted, so this includes tombstoned candidates.
    /// The ranking layer seeds its dirtiness sweep with this test: when a
    /// batch tombstones a node, the node's valid flags are already cleared
    /// by the time post-batch seeds are computed, yet the source pairs of
    /// its dropped edges still need sweeping.
    #[inline]
    pub fn ever_candidate(&self, u: PNodeId, v: NodeId) -> bool {
        self.idx[u as usize].contains_key(&v)
    }

    /// `|can(u)|` of the current graph.
    #[inline]
    pub fn candidate_count(&self, u: PNodeId) -> usize {
        self.valid_count[u as usize]
    }

    /// Alive matches of `u`, ascending (empty when `G` does not match `Q`).
    pub fn matches_of(&self, q: &Pattern, u: PNodeId) -> Vec<NodeId> {
        if !self.graph_matches(q) {
            return Vec::new();
        }
        self.structural_matches_of(u)
    }

    /// Alive matches of the output node, ascending.
    pub fn output_matches(&self, q: &Pattern) -> Vec<NodeId> {
        self.matches_of(q, q.output())
    }

    /// Alive pairs of `u` **ignoring the emptiness rule**, ascending. The
    /// ranking cache is maintained structurally so that when a revival
    /// makes `G ⊨ Q` again, the cached sets are already correct.
    pub fn structural_matches_of(&self, u: PNodeId) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self.cand[u as usize]
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.alive[u as usize][i])
            .map(|(_, &v)| v)
            .collect();
        m.sort_unstable();
        m
    }

    /// Structurally alive pairs over all pattern nodes — what an
    /// alive-pair view packs, whether or not the emptiness rule fires.
    pub fn alive_pairs(&self) -> usize {
        self.alive_count.iter().sum()
    }

    /// Total alive pairs (0 when the emptiness rule fires).
    pub fn len(&self, q: &Pattern) -> usize {
        if !self.graph_matches(q) {
            return 0;
        }
        self.alive_pairs()
    }

    /// `true` when no pair is alive.
    pub fn is_empty(&self, q: &Pattern) -> bool {
        self.len(q) == 0
    }

    /// Drains the pairs whose alive status flipped since the last call.
    pub fn take_dirty(&mut self) -> Vec<DynPair> {
        std::mem::take(&mut self.dirty)
    }

    // ------------------------------------------------------------ updates

    /// Reacts to a node addition (`g` already contains the node; it has no
    /// edges yet — the batch's edge insertions arrive separately, and
    /// attribute conditions see the node's current — initially empty —
    /// attribute map; later `SetAttr` ops of the batch arrive via
    /// [`Self::on_attr_changed`]).
    pub fn on_node_added(&mut self, g: &DynGraph, q: &Pattern, v: NodeId) {
        let label = g.label(v);
        let attrs = g.attributes(v);
        for u in q.nodes() {
            if !q.predicate(u).eval(label, Some(attrs)) {
                continue;
            }
            debug_assert!(!self.idx[u as usize].contains_key(&v), "node ids are never reused");
            let d = q.successors(u).len();
            self.push_candidate_slot(u, v, d);
            if d == 0 {
                // Leaves are unconditionally alive; a fresh node has no
                // edges, so no counter references the pair yet and the
                // flip cannot cascade.
                let ui = u as usize;
                let i = self.cand[ui].len() - 1;
                self.alive[ui][i] = true;
                self.alive_count[ui] += 1;
                self.dirty.push((u, v));
            }
        }
    }

    /// Appends a fresh, **dead** candidate slot `(u, v)` across the
    /// parallel per-pair arrays (`cand`/`idx`/`valid`/`cnt`/`zeros`/
    /// `alive`) — the single allocation both node addition and attribute
    /// candidacy entry go through, so the arrays can never desynchronize.
    /// `d` is `outdeg(u)`; counters start at zero (node addition: the node
    /// has no edges; attr entry: the revival recount re-derives them).
    fn push_candidate_slot(&mut self, u: PNodeId, v: NodeId, d: usize) {
        let ui = u as usize;
        let i = self.cand[ui].len();
        self.cand[ui].push(v);
        self.idx[ui].insert(v, i as u32);
        self.valid[ui].push(true);
        self.valid_count[ui] += 1;
        self.cnt[ui].extend(std::iter::repeat_n(0, d));
        self.zeros[ui].push(d as u32);
        self.alive[ui].push(false);
    }

    /// Reacts to a change of attribute `key` on live node `v` (`g` already
    /// updated). Only pattern nodes whose predicate mentions `key` can
    /// change their mind about `v`:
    ///
    /// * `v` **enters** `can(u)` — a fresh (or revalidated) candidate slot
    ///   is added dead, then revived through the same optimistic
    ///   region machinery as edge insertion: unlike a freshly added node,
    ///   `v` already has edges, so it can complete mutual-support cycles
    ///   the moment it becomes a candidate.
    /// * `v` **leaves** `can(u)` — the pair is invalidated and, if alive,
    ///   killed through the standard death cascade (its incident edges
    ///   still exist, so parent counters must be decremented — unlike a
    ///   tombstone, whose edge removals arrive first).
    ///
    /// A slot invalidated by an attribute flip can be revalidated by a
    /// later flip; tombstoned slots never re-enter (attribute ops on
    /// tombstones are filtered at the graph layer).
    pub fn on_attr_changed(&mut self, g: &DynGraph, q: &Pattern, v: NodeId, key: &str) {
        debug_assert!(!g.is_removed(v), "graph layer drops attr ops on tombstones");
        let label = g.label(v);
        let attrs = g.attributes(v);
        // Decide first: which pattern nodes does `v` enter/leave? The two
        // directions must not interleave — deaths have to cascade to their
        // fixpoint before any fresh slot becomes valid, or the cascade
        // could decrement a brand-new zero counter.
        let mut leave: Vec<PNodeId> = Vec::new();
        let mut enter: Vec<PNodeId> = Vec::new();
        for u in q.nodes() {
            let pred = q.predicate(u);
            if !pred.mentions_key(key) {
                continue; // candidacy is a function of (label, attrs[keys..])
            }
            let holds = pred.eval(label, Some(attrs));
            let was =
                self.idx[u as usize].get(&v).is_some_and(|&i| self.valid[u as usize][i as usize]);
            if holds && !was {
                enter.push(u);
            } else if !holds && was {
                leave.push(u);
            }
        }

        // Departures: invalidate, then run the standard death cascade —
        // `v` keeps its edges, so parent counters must be decremented
        // (unlike a tombstone, whose edge removals arrive first).
        let mut kill: Vec<DynPair> = Vec::new();
        for &u in &leave {
            let ui = u as usize;
            let i = self.idx[ui][&v] as usize;
            self.valid[ui][i] = false;
            self.valid_count[ui] -= 1;
            if self.alive[ui][i] {
                self.alive[ui][i] = false;
                self.alive_count[ui] -= 1;
                self.dirty.push((u, v));
                kill.push((u, v));
            }
        }
        self.cascade_deaths(g, q, kill);

        // Entries: create (or revalidate) the slot *dead*; the revival
        // region recounts its counters against current adjacency — a
        // revalidated slot's counters are stale (frozen while invalid),
        // and a fresh slot starts at zero either way.
        let mut seeds: Vec<DynPair> = Vec::new();
        for &u in &enter {
            let ui = u as usize;
            match self.idx[ui].get(&v).copied() {
                Some(i) => {
                    debug_assert!(!self.alive[ui][i as usize], "invalid pairs are dead");
                    self.valid[ui][i as usize] = true;
                    self.valid_count[ui] += 1;
                }
                None => self.push_candidate_slot(u, v, q.successors(u).len()),
            }
            seeds.push((u, v));
        }
        self.revive_region(g, q, seeds);
    }

    /// Reacts to a node tombstone (`g` already dropped its incident edges,
    /// and those removals were already replayed through
    /// [`Self::on_edge_removed`]).
    pub fn on_node_removed(&mut self, q: &Pattern, v: NodeId) {
        for u in q.nodes() {
            let ui = u as usize;
            let Some(&i) = self.idx[ui].get(&v) else { continue };
            let i = i as usize;
            if !self.valid[ui][i] {
                continue;
            }
            self.valid[ui][i] = false;
            self.valid_count[ui] -= 1;
            if self.alive[ui][i] {
                // No incident edges remain, so no counters reference this
                // pair anymore — the flip cannot cascade.
                self.alive[ui][i] = false;
                self.alive_count[ui] -= 1;
                self.dirty.push((u, v));
            }
        }
    }

    /// Reacts to the removal of data edge `(v, w)` (`g` already updated).
    pub fn on_edge_removed(&mut self, g: &DynGraph, q: &Pattern, v: NodeId, w: NodeId) {
        let mut kill: Vec<DynPair> = Vec::new();
        for u in q.nodes() {
            let Some(i) = self.valid_index(u, v) else { continue };
            for (j, &uc) in q.successors(u).iter().enumerate() {
                // Alive when the edge went: on a self-loop a pair killed by
                // an earlier iteration is this one's child, and skipping
                // its decrement would leave the counter one too high for
                // good — the cascade walks `g`, where the edge is gone.
                if self.pair_alive(uc, w) || (v == w && kill.contains(&(uc, w))) {
                    self.dec_counter(u, i, j, &mut kill);
                }
            }
        }
        self.cascade_deaths(g, q, kill);
    }

    /// Reacts to the insertion of data edge `(v, w)` (`g` already updated).
    pub fn on_edge_inserted(&mut self, g: &DynGraph, q: &Pattern, v: NodeId, w: NodeId) {
        // 1. Counter maintenance: the new edge contributes one alive child
        //    per pattern edge whose child pair is alive.
        for u in q.nodes() {
            let Some(i) = self.valid_index(u, v) else { continue };
            for (j, &uc) in q.successors(u).iter().enumerate() {
                if self.valid_index(uc, w).is_some_and(|iw| self.alive[uc as usize][iw]) {
                    self.inc_counter(u, i, j);
                }
            }
        }

        // 2. Revival seeds: dead pairs of `v` whose support may now exist.
        let mut seeds: Vec<DynPair> = Vec::new();
        for u in q.nodes() {
            let Some(i) = self.valid_index(u, v) else { continue };
            if self.alive[u as usize][i] {
                continue;
            }
            let touches = q.successors(u).iter().any(|&uc| self.valid_index(uc, w).is_some());
            if touches {
                seeds.push((u, v));
            }
        }
        self.revive_region(g, q, seeds);
    }

    /// Optimistic revival from `seeds` (distinct **dead, valid** pairs that
    /// may have gained support): expands the region backward through dead
    /// candidate pairs, marks it alive (updating parent counters), recounts
    /// the region's own counters from current adjacency, then cascades
    /// deaths restricted to what cannot actually be supported. Pairs alive
    /// before the triggering mutation can never die here (their counters
    /// only ever gained), so this converges to the new greatest fixpoint.
    /// Survivors are recorded as dirty flips.
    ///
    /// Shared by edge insertion and attribute-entry candidacy: both create
    /// new potential support at specific pairs, and both need the region
    /// treatment because mutually-dependent dead pairs (cyclic patterns)
    /// must come alive together.
    fn revive_region(&mut self, g: &DynGraph, q: &Pattern, seeds: Vec<DynPair>) {
        let mut region = seeds;
        let mut seen: std::collections::HashSet<DynPair> = region.iter().copied().collect();
        let mut cursor = 0;
        while cursor < region.len() {
            let (u, x) = region[cursor];
            cursor += 1;
            for &t in q.predecessors(u) {
                for y in g.predecessors(x) {
                    let Some(iy) = self.valid_index(t, y) else { continue };
                    if self.alive[t as usize][iy] {
                        continue;
                    }
                    if seen.insert((t, y)) {
                        region.push((t, y));
                    }
                }
            }
        }
        if region.is_empty() {
            return;
        }

        // Optimistically revive the region: mark alive (updating parent
        // counters), recount the region's own counters, then cascade
        // deaths restricted to what cannot actually be supported.
        for &(u, x) in &region {
            let i = self.idx[u as usize][&x] as usize;
            self.alive[u as usize][i] = true;
            self.alive_count[u as usize] += 1;
            self.bump_parents(g, q, u, x, 1, &mut Vec::new());
        }
        let mut kill: Vec<DynPair> = Vec::new();
        for &(u, x) in &region {
            let ui = u as usize;
            let i = self.idx[ui][&x] as usize;
            let d = q.successors(u).len();
            let mut z = 0u32;
            for (j, &uc) in q.successors(u).iter().enumerate() {
                let c = g
                    .successors(x)
                    .filter(|&y| {
                        self.valid_index(uc, y).is_some_and(|iy| self.alive[uc as usize][iy])
                    })
                    .count() as u32;
                self.cnt[ui][i * d + j] = c;
                if c == 0 {
                    z += 1;
                }
            }
            self.zeros[ui][i] = z;
            if z > 0 {
                kill.push((u, x));
            }
        }
        for &(u, x) in &kill {
            // These never actually revived: undo the optimistic mark before
            // cascading, mirroring a normal death (parents were bumped).
            let i = self.idx[u as usize][&x] as usize;
            self.alive[u as usize][i] = false;
            self.alive_count[u as usize] -= 1;
        }
        let mut follow: Vec<DynPair> = Vec::new();
        for &(u, x) in &kill {
            self.bump_parents(g, q, u, x, -1, &mut follow);
        }
        self.cascade_deaths(g, q, follow);

        // Record survivors as dirty flips.
        for &(u, x) in &region {
            let i = self.idx[u as usize][&x] as usize;
            if self.alive[u as usize][i] {
                self.dirty.push((u, x));
            }
        }
    }

    // ------------------------------------------------------------ internals

    /// Local index of `v` in `can(u)` when the candidate is valid.
    #[inline]
    fn valid_index(&self, u: PNodeId, v: NodeId) -> Option<usize> {
        let &i = self.idx[u as usize].get(&v)?;
        self.valid[u as usize][i as usize].then_some(i as usize)
    }

    /// Decrements counter `(u, i, j)`; on a 0-transition of an alive pair,
    /// records the death in `kill`.
    fn dec_counter(&mut self, u: PNodeId, i: usize, j: usize, kill: &mut Vec<DynPair>) {
        let ui = u as usize;
        let d = self.cnt[ui].len() / self.cand[ui].len().max(1);
        let slot = i * d + j;
        self.cnt[ui][slot] -= 1;
        if self.cnt[ui][slot] == 0 {
            self.zeros[ui][i] += 1;
            if self.alive[ui][i] {
                self.alive[ui][i] = false;
                self.alive_count[ui] -= 1;
                self.dirty.push((u, self.cand[ui][i]));
                kill.push((u, self.cand[ui][i]));
            }
        }
    }

    /// Increments counter `(u, i, j)`, tracking the zero count.
    fn inc_counter(&mut self, u: PNodeId, i: usize, j: usize) {
        let ui = u as usize;
        let d = self.cnt[ui].len() / self.cand[ui].len().max(1);
        let slot = i * d + j;
        if self.cnt[ui][slot] == 0 {
            self.zeros[ui][i] -= 1;
        }
        self.cnt[ui][slot] += 1;
    }

    /// Adjusts the counters of all valid parent pairs of `(u, x)` by
    /// `delta` (±1), collecting deaths into `kill` when decrementing.
    fn bump_parents(
        &mut self,
        g: &DynGraph,
        q: &Pattern,
        u: PNodeId,
        x: NodeId,
        delta: i32,
        kill: &mut Vec<DynPair>,
    ) {
        for &t in q.predecessors(u) {
            let j = q.successors(t).binary_search(&u).expect("pattern edge must exist");
            for y in g.predecessors(x) {
                let Some(iy) = self.valid_index(t, y) else { continue };
                if delta > 0 {
                    self.inc_counter(t, iy, j);
                } else {
                    self.dec_counter(t, iy, j, kill);
                }
            }
        }
    }

    /// Standard death cascade from an initial kill list.
    fn cascade_deaths(&mut self, g: &DynGraph, q: &Pattern, mut kill: Vec<DynPair>) {
        while let Some((u, x)) = kill.pop() {
            self.bump_parents(g, q, u, x, -1, &mut kill);
        }
    }

    /// Debug validation: every **valid** pair's counters equal its true
    /// alive-child count and `alive ⇔ zeros == 0`; invalid pairs
    /// (tombstoned nodes or attr-flipped ex-candidates) are dead and their
    /// counters frozen — the update hooks never read or write them while
    /// invalid, and an attr re-entry recounts them before use. Candidacy
    /// is also checked both ways: valid slots hold exactly the live nodes
    /// satisfying the predicate (`O(|Vp| · |V|)` + `O(|pairs| · deg)`).
    pub fn check_invariants(&self, g: &DynGraph, q: &Pattern) -> bool {
        for u in q.nodes() {
            let ui = u as usize;
            let pred = q.predicate(u);
            for (i, &v) in self.cand[ui].iter().enumerate() {
                let holds = !g.is_removed(v) && pred.eval(g.label(v), Some(g.attributes(v)));
                if self.valid[ui][i] != holds {
                    eprintln!(
                        "candidate soundness: valid[{u}][{v}] = {} but predicate holds = {holds}",
                        self.valid[ui][i]
                    );
                    return false;
                }
            }
            let vc = self.valid[ui].iter().filter(|&&x| x).count();
            if vc != self.valid_count[ui] {
                eprintln!("valid_count[{u}] = {} but {vc} valid flags", self.valid_count[ui]);
                return false;
            }
            for v in 0..g.node_count() as NodeId {
                if !g.is_removed(v)
                    && pred.eval(g.label(v), Some(g.attributes(v)))
                    && !self.is_candidate(u, v)
                {
                    eprintln!("candidate completeness: live node {v} satisfies {u} but is absent");
                    return false;
                }
            }
        }
        for u in q.nodes() {
            let ui = u as usize;
            let d = q.successors(u).len();
            for (i, &v) in self.cand[ui].iter().enumerate() {
                if !self.valid[ui][i] {
                    if self.alive[ui][i] {
                        eprintln!("invalid pair ({u},{v}) must be dead");
                        return false;
                    }
                    continue;
                }
                let mut z = 0;
                for (j, &uc) in q.successors(u).iter().enumerate() {
                    let expect = g
                        .successors(v)
                        .filter(|&w| {
                            self.valid_index(uc, w).is_some_and(|iw| self.alive[uc as usize][iw])
                        })
                        .count() as u32;
                    if self.cnt[ui][i * d + j] != expect {
                        eprintln!(
                            "cnt[{u}][{v} slot {j}] = {} but true alive-child count {expect}",
                            self.cnt[ui][i * d + j]
                        );
                        return false;
                    }
                    if expect == 0 {
                        z += 1;
                    }
                }
                if self.zeros[ui][i] != z {
                    eprintln!("zeros[{u}][{v}] = {} but {z} zero slots", self.zeros[ui][i]);
                    return false;
                }
                if self.alive[ui][i] != (self.valid[ui][i] && z == 0) {
                    eprintln!(
                        "alive[{u}][{v}] = {} but valid={} zeros={z}",
                        self.alive[ui][i], self.valid[ui][i]
                    );
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_simulation;
    use gpm_graph::builder::graph_from_parts;
    use gpm_graph::GraphDelta;
    use gpm_pattern::builder::label_pattern;

    /// Replays a delta through graph + state and checks against a
    /// from-scratch run on the snapshot.
    fn check_equiv(g: &mut DynGraph, state: &mut IncSimState, q: &Pattern, delta: &GraphDelta) {
        use gpm_graph::EffectiveOp;
        g.apply_with(delta, |g, eff| match eff {
            EffectiveOp::NodeAdded(v, _) => state.on_node_added(g, q, *v),
            EffectiveOp::EdgeAdded(s, t) => state.on_edge_inserted(g, q, *s, *t),
            EffectiveOp::EdgeRemoved(s, t) => state.on_edge_removed(g, q, *s, *t),
            EffectiveOp::NodeRemoved(v, _) => state.on_node_removed(q, *v),
            EffectiveOp::AttrSet { node, key, .. } | EffectiveOp::AttrUnset { node, key } => {
                state.on_attr_changed(g, q, *node, key)
            }
        })
        .unwrap();
        if !state.check_invariants(g, q) {
            let snap = g.snapshot();
            let edges: Vec<_> = snap.edges().map(|e| (e.source, e.target)).collect();
            panic!(
                "counter invariants after {delta:?}\n labels {:?}\n edges {edges:?}\n pattern {:?} / {:?}",
                snap.labels(),
                q.nodes().map(|u| q.predicate(u).primary_label()).collect::<Vec<_>>(),
                q.edges().collect::<Vec<_>>()
            );
        }
        let snap = g.snapshot();
        let fresh = compute_simulation(&snap, q);
        assert_eq!(state.graph_matches(q), fresh.graph_matches());
        for u in q.nodes() {
            assert_eq!(
                state.matches_of(q, u),
                fresh.matches_of(u),
                "pattern node {u} after {delta:?}"
            );
        }
    }

    #[test]
    fn deletion_cascades() {
        // Chain a→b→c; deleting (1,2) kills the whole chain match.
        let g0 = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        assert_eq!(s.output_matches(&q), vec![0]);
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().remove_edge(1, 2));
        assert!(s.output_matches(&q).is_empty());
    }

    #[test]
    fn removing_a_self_loop_kills_both_pairs_it_supported() {
        // Pattern A ⇄ A' (both label 0) over one node with a self-loop:
        // the loop is each pair's only support for the other. Removing it
        // kills (A, 0) first, which is the child pair (A', 0) was about to
        // be decremented for — the decrement must not be skipped.
        let g0 = graph_from_parts(&[0], &[(0, 0)]).unwrap();
        let q = label_pattern(&[0, 0], &[(0, 1), (1, 0)], 0).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        assert_eq!(s.output_matches(&q), vec![0]);
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().remove_edge(0, 0));
        assert!(s.output_matches(&q).is_empty());
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().add_edge(0, 0));
        assert_eq!(s.output_matches(&q), vec![0]);
    }

    #[test]
    fn insertion_revives_cyclic_mutual_support() {
        // Pattern A ⇄ B. Data 0(a)→1(b); inserting 1→0 must revive both
        // pairs at once — the case plain counter increments cannot see.
        let g0 = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        assert!(s.output_matches(&q).is_empty());
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().add_edge(1, 0));
        assert_eq!(s.output_matches(&q), vec![0]);
    }

    #[test]
    fn node_churn() {
        let g0 = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        // Add a fresh `a` node wired to a fresh `b` node.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().add_node(0).add_node(1).add_edge(2, 3));
        assert_eq!(s.output_matches(&q), vec![0, 2]);
        // Tombstone the original `b`: node 0 loses its only support.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().remove_node(1));
        assert_eq!(s.output_matches(&q), vec![2]);
    }

    #[test]
    fn randomized_streams_match_from_scratch() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20130826);
        for trial in 0..150 {
            let n = rng.random_range(4..16usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
            let m = rng.random_range(0..n * 2);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|(a, b)| a != b)
                .collect();
            let g0 = graph_from_parts(&labels, &edges).unwrap();
            let pn = rng.random_range(1..4usize);
            let plabels: Vec<u32> = (0..pn).map(|_| rng.random_range(0..3u32)).collect();
            let mut pedges: Vec<(u32, u32)> = (1..pn as u32).map(|i| (i - 1, i)).collect();
            for _ in 0..rng.random_range(0..pn) {
                let a = rng.random_range(0..pn as u32);
                let b = rng.random_range(0..pn as u32);
                if a != b && !pedges.contains(&(a, b)) {
                    pedges.push((a, b));
                }
            }
            let q = label_pattern(&plabels, &pedges, 0).unwrap();
            let mut g = DynGraph::from_digraph(&g0);
            let Some(mut s) = IncSimState::new(&g, &q) else { panic!("pure label") };
            for step in 0..10 {
                let mut delta = GraphDelta::new();
                for _ in 0..rng.random_range(1..4usize) {
                    let cur = g.node_count() as u32;
                    match rng.random_range(0..10u32) {
                        0 => delta = delta.add_node(rng.random_range(0..3u32)),
                        1 => delta = delta.remove_node(rng.random_range(0..cur)),
                        2..=5 => {
                            delta = delta
                                .remove_edge(rng.random_range(0..cur), rng.random_range(0..cur))
                        }
                        _ => {
                            let a = rng.random_range(0..cur);
                            let b = rng.random_range(0..cur);
                            if a != b {
                                delta = delta.add_edge(a, b);
                            }
                        }
                    }
                }
                // check_equiv validates invariants + from-scratch agreement.
                let _ = (trial, step);
                check_equiv(&mut g, &mut s, &q, &delta);
            }
        }
    }

    fn attr_chain_pattern() -> Pattern {
        // A → B[k0 >= 5] → C, output A.
        use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
        let mut b = PatternBuilder::new();
        b.node("A", Predicate::Label(0));
        b.node("B", Predicate::labeled(1, [Predicate::attr("k0", CmpOp::Ge, 5i64)]));
        b.node("C", Predicate::Label(2));
        b.edge_by_name("A", "B").unwrap();
        b.edge_by_name("B", "C").unwrap();
        b.output(0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn attr_flip_enters_and_leaves_candidacy() {
        let g0 = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let q = attr_chain_pattern();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        assert!(s.output_matches(&q).is_empty(), "node 1 has no k0 yet");
        assert_eq!(s.candidate_count(1), 0);

        // Entering candidacy revives the whole chain.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().set_attr(1, "k0", 7i64));
        assert_eq!(s.output_matches(&q), vec![0]);
        assert_eq!(s.candidate_count(1), 1);

        // Overwriting below the threshold leaves candidacy and kills the
        // ancestor — v keeps its edges, so the cascade runs through them.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().set_attr(1, "k0", 2i64));
        assert!(s.output_matches(&q).is_empty());
        assert_eq!(s.candidate_count(1), 0);

        // Re-entry revalidates the same slot (ids are never reused).
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().set_attr(1, "k0", 9i64));
        assert_eq!(s.output_matches(&q), vec![0]);

        // Unset leaves candidacy again.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().unset_attr(1, "k0"));
        assert!(s.output_matches(&q).is_empty());
    }

    #[test]
    fn attr_entry_revives_mutual_support_cycle() {
        // Pattern A ⇄ B[k0 >= 1]. Data 0(a) ⇄ 1(b): the cycle exists
        // structurally, but (B,1) is no candidate until the attr lands —
        // then both pairs must come alive at once (the revival-region
        // case counter increments alone cannot see).
        use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
        let mut b = PatternBuilder::new();
        b.node("A", Predicate::Label(0));
        b.node("B", Predicate::labeled(1, [Predicate::attr("k0", CmpOp::Ge, 1i64)]));
        b.edge_by_name("A", "B").unwrap();
        b.edge_by_name("B", "A").unwrap();
        b.output(0).unwrap();
        let q = b.build().unwrap();

        let g0 = graph_from_parts(&[0, 1], &[(0, 1), (1, 0)]).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        assert!(s.output_matches(&q).is_empty());
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().set_attr(1, "k0", 1i64));
        assert_eq!(s.output_matches(&q), vec![0]);
        // And the attr leaving kills both again.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().unset_attr(1, "k0"));
        assert!(s.output_matches(&q).is_empty());
    }

    #[test]
    fn attr_set_on_fresh_node_in_same_batch() {
        // AddNode emits NodeAdded with empty attrs (no candidate), then the
        // batch's SetAttr flips it in — lockstep replay must handle both.
        let g0 = graph_from_parts(&[0, 2], &[]).unwrap();
        let q = attr_chain_pattern();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        check_equiv(
            &mut g,
            &mut s,
            &q,
            &GraphDelta::new().add_node(1).add_edge(0, 2).add_edge(2, 1).set_attr(2, "k0", 6i64),
        );
        assert_eq!(s.output_matches(&q), vec![0]);
        // Tombstoning the attributed node: attrs are wiped with it, and a
        // later set_attr on the dead slot is filtered by the graph layer.
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().remove_node(2).set_attr(2, "k0", 9i64));
        assert!(s.output_matches(&q).is_empty());
    }

    #[test]
    fn randomized_attr_streams_match_from_scratch() {
        use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20220413);
        for _trial in 0..120 {
            let n = rng.random_range(4..14usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
            let m = rng.random_range(0..n * 2);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|(a, b)| a != b)
                .collect();
            let mut gb = gpm_graph::GraphBuilder::new();
            for &l in &labels {
                // Some nodes start with attributes already set.
                if rng.random_range(0..3u32) == 0 {
                    gb.add_node_with_attrs(
                        l,
                        gpm_graph::Attributes::from_pairs([("k0", rng.random_range(0..4i64))]),
                    );
                } else {
                    gb.add_node(l);
                }
            }
            for &(a, b) in &edges {
                gb.add_edge(a, b).unwrap();
            }
            let g0 = gb.build();

            // Random pattern: chain + extra edges; ~half the nodes carry a
            // k0/k1 threshold condition on top of their label.
            let pn = rng.random_range(1..4usize);
            let mut pb = PatternBuilder::new();
            for i in 0..pn {
                let l = rng.random_range(0..3u32);
                let pred = if rng.random_range(0..2u32) == 0 {
                    let key = if rng.random_range(0..2u32) == 0 { "k0" } else { "k1" };
                    let op = match rng.random_range(0..3u32) {
                        0 => CmpOp::Ge,
                        1 => CmpOp::Lt,
                        _ => CmpOp::Eq,
                    };
                    Predicate::labeled(l, [Predicate::attr(key, op, rng.random_range(0..4i64))])
                } else {
                    Predicate::Label(l)
                };
                pb.node(format!("u{i}"), pred);
            }
            for i in 1..pn as u32 {
                pb.edge(i - 1, i).unwrap();
            }
            for _ in 0..rng.random_range(0..pn) {
                let a = rng.random_range(0..pn as u32);
                let b = rng.random_range(0..pn as u32);
                if a != b {
                    let _ = pb.edge(a, b);
                }
            }
            pb.output(0).unwrap();
            let q = pb.build().unwrap();

            let mut g = DynGraph::from_digraph(&g0);
            let mut s = IncSimState::new(&g, &q).unwrap();
            for _step in 0..8 {
                let mut delta = GraphDelta::new();
                for _ in 0..rng.random_range(1..4usize) {
                    let cur = g.node_count() as u32;
                    match rng.random_range(0..12u32) {
                        0 => delta = delta.add_node(rng.random_range(0..3u32)),
                        1 => delta = delta.remove_node(rng.random_range(0..cur)),
                        2..=4 => {
                            delta = delta
                                .remove_edge(rng.random_range(0..cur), rng.random_range(0..cur))
                        }
                        5..=7 => {
                            let a = rng.random_range(0..cur);
                            let b = rng.random_range(0..cur);
                            if a != b {
                                delta = delta.add_edge(a, b);
                            }
                        }
                        8..=10 => {
                            let key = if rng.random_range(0..2u32) == 0 { "k0" } else { "k1" };
                            delta = delta.set_attr(
                                rng.random_range(0..cur),
                                key,
                                rng.random_range(0..4i64),
                            );
                        }
                        _ => {
                            let key = if rng.random_range(0..2u32) == 0 { "k0" } else { "k1" };
                            delta = delta.unset_attr(rng.random_range(0..cur), key);
                        }
                    }
                }
                check_equiv(&mut g, &mut s, &q, &delta);
            }
        }
    }

    #[test]
    fn dirty_set_records_flips() {
        let g0 = graph_from_parts(&[0, 1, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q).unwrap();
        s.take_dirty();
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().add_edge(0, 2));
        // (B,2) was already alive as a leaf? No: B has no pattern
        // successors, so (B,2) was alive from the start; only counters of
        // (A,0) changed — no alive flips.
        assert!(s.take_dirty().is_empty());
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().remove_edge(0, 1).remove_edge(0, 2));
        let dirty = s.take_dirty();
        assert!(dirty.contains(&(0, 0)), "output pair died: {dirty:?}");
    }
}
