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
//! Every candidate pair `(u, v)` owns one **slot**: a dense `u32`, assigned
//! once and never reused (node ids are never reused either). The initial
//! graph's slots are the refinement run's pair ids; node additions and
//! attribute entries append more. A tombstone or an attribute exit keeps
//! the slot, flagged invalid, and a re-entry revalidates the same one.
//! Every per-pair array is indexed by slot, and the slot is the pair id of
//! the whole dynamic path — the alive-pair view
//! ([`DynMatchGraph`](crate::DynMatchGraph)), the condensation maintained
//! over it and the refresh planner all name a pair by it, so the one
//! `(u, v) → slot` map lives here.
//!
//! That map is one hash map per pattern node, keyed by data node and
//! hashed with [`IdHasher`] — a multiply and a fold — not std's
//! SipHash. The refresh planner's seed loop and backward sweep and the
//! alive-pair view's delta are chains of these lookups. SipHash resists
//! keys chosen to flood one bucket, which buys nothing here: every key is
//! an id [`DynGraph`] assigned (`DeltaOp::AddNode` carries only a label),
//! so no client chooses one. Nor can the map's iteration order leak into
//! an answer: [`IncSimState::structural_matches_of`] sorts what it
//! collects, and [`IncSimState::check_invariants`] only counts.
//!
//! Every alive-flip is recorded in a per-batch **dirty set** of slots the
//! ranking layer consumes to invalidate relevant sets.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use gpm_graph::dynamic::DynGraph;
use gpm_graph::{IdHasher, NodeId};
use gpm_pattern::{PNodeId, Pattern};

use crate::candidates::CandidateSpace;
use crate::refine::refine_state;

/// A `(pattern node, data node)` pair in the dynamic state.
pub type DynPair = (PNodeId, NodeId);

/// Maximum simulation state that follows a [`DynGraph`].
#[derive(Debug, Clone)]
pub struct IncSimState {
    /// `slots[u]`: data node → slot of the pair `(u, v)`, for every `v`
    /// that has ever been a candidate of `u`.
    slots: Vec<HashMap<NodeId, u32, BuildHasherDefault<IdHasher>>>,
    /// `pair[s]`: the pair slot `s` stands for.
    pair: Vec<DynPair>,
    /// `valid[s]`: the data node is live and satisfies the predicate.
    valid: Vec<bool>,
    /// `alive[s]`: pair in the maximum simulation (structurally).
    alive: Vec<bool>,
    /// `cnt[cbase[s] + j]`: alive children of slot `s` under the `j`-th
    /// pattern edge of its pattern node (successor order).
    /// Invariant: `alive ⇔ valid ∧ every counter > 0`.
    cnt: Vec<u32>,
    cbase: Vec<u32>,
    /// Alive pairs per pattern node (graph-matches bookkeeping).
    alive_count: Vec<usize>,
    /// Valid candidates per pattern node (`|can(u)|` of the current graph).
    valid_count: Vec<usize>,
    /// Slots whose alive status flipped since the last `take_dirty`.
    dirty: Vec<u32>,
}

impl IncSimState {
    /// Builds the state for `q` over the current contents of `g`, resuming
    /// from a static refinement run. Full [`Predicate`](gpm_pattern::Predicate)
    /// trees are supported — the snapshot carries the graph's attribute
    /// tables, so candidate enumeration evaluates attribute conditions
    /// exactly like the static pipeline. The snapshot is the graph's
    /// [`DynGraph::shared_snapshot`], so states built between two batches
    /// share one copy.
    pub fn new(g: &DynGraph, q: &Pattern) -> Self {
        let snapshot = g.shared_snapshot();
        let space = CandidateSpace::compute(&snapshot, q);
        let rs = refine_state(&snapshot, q, &space);

        // Slots are the refinement's pair ids, so its flags and its
        // counter layout are taken over as they are.
        let np = q.node_count();
        let n = space.pair_count();
        let mut state = IncSimState {
            slots: vec![HashMap::default(); np],
            pair: Vec::with_capacity(n),
            valid: vec![true; n],
            cbase: Vec::with_capacity(n),
            alive_count: vec![0; np],
            valid_count: vec![0; np],
            dirty: Vec::new(),
            alive: rs.alive,
            cnt: rs.counters,
        };
        for u in q.nodes() {
            let ui = u as usize;
            let d = q.successors(u).len();
            let list = space.candidates(u);
            state.slots[ui].reserve(list.len());
            state.valid_count[ui] = list.len();
            for (i, &v) in list.iter().enumerate() {
                let s = space.pair_at(u, i);
                debug_assert_eq!(s as usize, state.pair.len(), "pair ids are dense per node");
                state.slots[ui].insert(v, s);
                state.pair.push((u, v));
                let base = rs.ebase[ui] + i * d;
                state.cbase.push(u32::try_from(base).expect("counter offsets fit in u32"));
                let supported = state.cnt[base..base + d].iter().all(|&c| c > 0);
                debug_assert_eq!(state.alive[s as usize], supported, "refine fixpoint invariant");
                state.alive_count[ui] += usize::from(state.alive[s as usize]);
            }
        }
        state
    }

    // ------------------------------------------------------------ queries

    /// `true` iff every pattern node currently has an alive pair.
    pub fn graph_matches(&self, q: &Pattern) -> bool {
        q.nodes().all(|u| self.alive_count[u as usize] > 0)
    }

    /// Number of slots, alive or not — the pair id space `0..slot_count()`.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.pair.len()
    }

    /// The pair slot `s` stands for.
    #[inline]
    pub fn pair(&self, s: u32) -> DynPair {
        self.pair[s as usize]
    }

    /// `true` iff slot `s` holds an alive pair (structural — emptiness rule
    /// not applied).
    #[inline]
    pub fn is_alive(&self, s: u32) -> bool {
        self.alive[s as usize]
    }

    /// Slot of `(u, v)` whenever `v` has **ever** been a candidate of `u`:
    /// slots are never deleted, so this includes tombstoned candidates.
    #[inline]
    pub fn slot_of(&self, u: PNodeId, v: NodeId) -> Option<u32> {
        self.slots[u as usize].get(&v).copied()
    }

    /// Slot of `(u, v)` when `v` is a (valid) candidate of `u`.
    #[inline]
    pub fn valid_slot(&self, u: PNodeId, v: NodeId) -> Option<u32> {
        self.slot_of(u, v).filter(|&s| self.valid[s as usize])
    }

    /// Slot of `(u, v)` when the pair is alive.
    #[inline]
    pub fn alive_slot(&self, u: PNodeId, v: NodeId) -> Option<u32> {
        self.slot_of(u, v).filter(|&s| self.alive[s as usize])
    }

    /// `(u, v)` alive? (structural — emptiness rule not applied).
    #[inline]
    pub fn pair_alive(&self, u: PNodeId, v: NodeId) -> bool {
        self.alive_slot(u, v).is_some()
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
        let mut m: Vec<NodeId> = self.slots[u as usize]
            .iter()
            .filter(|&(_, &s)| self.alive[s as usize])
            .map(|(&v, _)| v)
            .collect();
        m.sort_unstable();
        m
    }

    /// Structurally alive pairs over all pattern nodes — what an
    /// alive-pair view holds, whether or not the emptiness rule fires.
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

    /// Drains the slots whose alive status flipped since the last call, in
    /// flip order (a slot that flipped twice appears twice).
    pub fn take_dirty(&mut self) -> Vec<u32> {
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
            debug_assert!(self.slot_of(u, v).is_none(), "node ids are never reused");
            let s = self.push_slot(q, u, v);
            if q.successors(u).is_empty() {
                // Leaves are unconditionally alive; a fresh node has no
                // edges, so no counter references the pair yet and the
                // flip cannot cascade.
                self.alive[s as usize] = true;
                self.alive_count[u as usize] += 1;
                self.dirty.push(s);
            }
        }
    }

    /// Appends a fresh, valid, **dead** slot for `(u, v)` across the
    /// per-slot arrays — the single allocation both node addition and
    /// attribute candidacy entry go through, so the arrays can never
    /// desynchronize. Counters start at zero (node addition: the node has
    /// no edges; attr entry: the revival recount re-derives them).
    fn push_slot(&mut self, q: &Pattern, u: PNodeId, v: NodeId) -> u32 {
        let s = u32::try_from(self.pair.len()).expect("slot ids fit in u32");
        let d = q.successors(u).len();
        self.slots[u as usize].insert(v, s);
        self.pair.push((u, v));
        self.valid.push(true);
        self.valid_count[u as usize] += 1;
        self.alive.push(false);
        self.cbase.push(u32::try_from(self.cnt.len()).expect("counter offsets fit in u32"));
        self.cnt.extend(std::iter::repeat_n(0, d));
        s
    }

    /// Reacts to a change of attribute `key` on live node `v` (`g` already
    /// updated). Only pattern nodes whose predicate mentions `key` can
    /// change their mind about `v`:
    ///
    /// * `v` **enters** `can(u)` — a fresh (or revalidated) slot is added
    ///   dead, then revived through the same optimistic region machinery
    ///   as edge insertion: unlike a freshly added node, `v` already has
    ///   edges, so it can complete mutual-support cycles the moment it
    ///   becomes a candidate.
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
        let mut leave: Vec<u32> = Vec::new();
        let mut enter: Vec<(PNodeId, Option<u32>)> = Vec::new();
        for u in q.nodes() {
            let pred = q.predicate(u);
            if !pred.mentions_key(key) {
                continue; // candidacy is a function of (label, attrs[keys..])
            }
            let holds = pred.eval(label, Some(attrs));
            let slot = self.slot_of(u, v);
            match (holds, slot.filter(|&s| self.valid[s as usize])) {
                (true, None) => enter.push((u, slot)),
                (false, Some(s)) => leave.push(s),
                _ => {}
            }
        }

        // Departures: invalidate, then run the standard death cascade —
        // `v` keeps its edges, so parent counters must be decremented
        // (unlike a tombstone, whose edge removals arrive first).
        let mut kill: Vec<u32> = Vec::new();
        for &s in &leave {
            let ui = self.pair[s as usize].0 as usize;
            self.valid[s as usize] = false;
            self.valid_count[ui] -= 1;
            if self.alive[s as usize] {
                self.alive[s as usize] = false;
                self.alive_count[ui] -= 1;
                self.dirty.push(s);
                kill.push(s);
            }
        }
        self.cascade_deaths(g, q, kill);

        // Entries: create (or revalidate) the slot *dead*; the revival
        // region recounts its counters against current adjacency — a
        // revalidated slot's counters are stale (frozen while invalid),
        // and a fresh slot starts at zero either way.
        let mut seeds: Vec<u32> = Vec::new();
        for (u, slot) in enter {
            let s = match slot {
                Some(s) => {
                    debug_assert!(!self.alive[s as usize], "invalid pairs are dead");
                    self.valid[s as usize] = true;
                    self.valid_count[u as usize] += 1;
                    s
                }
                None => self.push_slot(q, u, v),
            };
            seeds.push(s);
        }
        self.revive_region(g, q, seeds);
    }

    /// Reacts to a node tombstone (`g` already dropped its incident edges,
    /// and those removals were already replayed through
    /// [`Self::on_edge_removed`]).
    pub fn on_node_removed(&mut self, q: &Pattern, v: NodeId) {
        for u in q.nodes() {
            let Some(s) = self.valid_slot(u, v) else { continue };
            let (si, ui) = (s as usize, u as usize);
            self.valid[si] = false;
            self.valid_count[ui] -= 1;
            if self.alive[si] {
                // No incident edges remain, so no counters reference this
                // pair anymore — the flip cannot cascade.
                self.alive[si] = false;
                self.alive_count[ui] -= 1;
                self.dirty.push(s);
            }
        }
    }

    /// Reacts to the removal of data edge `(v, w)` (`g` already updated).
    pub fn on_edge_removed(&mut self, g: &DynGraph, q: &Pattern, v: NodeId, w: NodeId) {
        let mut kill: Vec<u32> = Vec::new();
        for u in q.nodes() {
            let Some(s) = self.valid_slot(u, v) else { continue };
            for (j, &uc) in q.successors(u).iter().enumerate() {
                // Alive when the edge went: on a self-loop a pair killed by
                // an earlier iteration is this one's child, and skipping
                // its decrement would leave the counter one too high for
                // good — the cascade walks `g`, where the edge is gone.
                let child = self.slot_of(uc, w);
                if child.is_some_and(|c| self.alive[c as usize] || (v == w && kill.contains(&c))) {
                    self.dec_counter(s, j, &mut kill);
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
            let Some(s) = self.valid_slot(u, v) else { continue };
            for (j, &uc) in q.successors(u).iter().enumerate() {
                if self.alive_slot(uc, w).is_some() {
                    self.inc_counter(s, j);
                }
            }
        }

        // 2. Revival seeds: dead pairs of `v` whose support may now exist.
        let mut seeds: Vec<u32> = Vec::new();
        for u in q.nodes() {
            let Some(s) = self.valid_slot(u, v) else { continue };
            if self.alive[s as usize] {
                continue;
            }
            if q.successors(u).iter().any(|&uc| self.valid_slot(uc, w).is_some()) {
                seeds.push(s);
            }
        }
        self.revive_region(g, q, seeds);
    }

    /// Optimistic revival from `seeds` (distinct **dead, valid** slots that
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
    fn revive_region(&mut self, g: &DynGraph, q: &Pattern, seeds: Vec<u32>) {
        // A pair is marked alive as it joins the region, which is also what
        // keeps it from joining twice.
        let mut region = seeds;
        for &s in &region {
            self.alive[s as usize] = true;
        }
        let mut cursor = 0;
        while cursor < region.len() {
            let (u, x) = self.pair[region[cursor] as usize];
            cursor += 1;
            for &t in q.predecessors(u) {
                for y in g.predecessors(x) {
                    let Some(sy) = self.valid_slot(t, y) else { continue };
                    if !self.alive[sy as usize] {
                        self.alive[sy as usize] = true;
                        region.push(sy);
                    }
                }
            }
        }

        // Count the optimistic revival in (parents gain support), recount
        // the region's own counters, then cascade deaths restricted to
        // what cannot actually be supported.
        for &s in &region {
            self.alive_count[self.pair[s as usize].0 as usize] += 1;
            self.bump_parents(g, q, s, 1, &mut Vec::new());
        }
        let mut kill: Vec<u32> = Vec::new();
        for &s in &region {
            let (u, x) = self.pair[s as usize];
            let base = self.cbase[s as usize] as usize;
            let mut supported = true;
            for (j, &uc) in q.successors(u).iter().enumerate() {
                let c =
                    g.successors(x).filter(|&y| self.alive_slot(uc, y).is_some()).count() as u32;
                self.cnt[base + j] = c;
                supported &= c > 0;
            }
            if !supported {
                kill.push(s);
            }
        }
        for &s in &kill {
            // These never actually revived: undo the optimistic mark before
            // cascading, mirroring a normal death (parents were bumped).
            self.alive[s as usize] = false;
            self.alive_count[self.pair[s as usize].0 as usize] -= 1;
        }
        let mut follow: Vec<u32> = Vec::new();
        for &s in &kill {
            self.bump_parents(g, q, s, -1, &mut follow);
        }
        self.cascade_deaths(g, q, follow);

        // Record survivors as dirty flips.
        for &s in &region {
            if self.alive[s as usize] {
                self.dirty.push(s);
            }
        }
    }

    // ------------------------------------------------------------ internals

    /// Decrements counter `j` of slot `s`; on a 0-transition of an alive
    /// pair, records the death in `kill`.
    fn dec_counter(&mut self, s: u32, j: usize, kill: &mut Vec<u32>) {
        let si = s as usize;
        let k = self.cbase[si] as usize + j;
        self.cnt[k] -= 1;
        if self.cnt[k] == 0 && self.alive[si] {
            self.alive[si] = false;
            self.alive_count[self.pair[si].0 as usize] -= 1;
            self.dirty.push(s);
            kill.push(s);
        }
    }

    /// Increments counter `j` of slot `s`.
    fn inc_counter(&mut self, s: u32, j: usize) {
        self.cnt[self.cbase[s as usize] as usize + j] += 1;
    }

    /// Adjusts the counters of all valid parent pairs of slot `s` by
    /// `delta` (±1), collecting deaths into `kill` when decrementing.
    fn bump_parents(&mut self, g: &DynGraph, q: &Pattern, s: u32, delta: i32, kill: &mut Vec<u32>) {
        let (u, x) = self.pair[s as usize];
        for &t in q.predecessors(u) {
            let j = q.successors(t).binary_search(&u).expect("pattern edge must exist");
            for y in g.predecessors(x) {
                let Some(sy) = self.valid_slot(t, y) else { continue };
                if delta > 0 {
                    self.inc_counter(sy, j);
                } else {
                    self.dec_counter(sy, j, kill);
                }
            }
        }
    }

    /// Standard death cascade from an initial kill list.
    fn cascade_deaths(&mut self, g: &DynGraph, q: &Pattern, mut kill: Vec<u32>) {
        while let Some(s) = kill.pop() {
            self.bump_parents(g, q, s, -1, &mut kill);
        }
    }

    /// Full validation, returning the first violation found (naming the
    /// pair and the counter or flag): the slot map and the slots agree;
    /// valid slots hold exactly the live nodes satisfying the predicate
    /// (checked both ways) and the per-node tallies match the flags; every
    /// **valid** pair's counters equal its true alive-child count and
    /// `alive ⇔ every counter > 0`. Invalid pairs (tombstoned nodes or
    /// attr-flipped ex-candidates) must be dead; their counters are frozen
    /// — the update hooks never read or write them while invalid, and an
    /// attr re-entry recounts them before use. `O(|Vp| · |V|)` +
    /// `O(|slots| · deg)`.
    pub fn check_invariants(&self, g: &DynGraph, q: &Pattern) -> Result<(), String> {
        for (s, &(u, v)) in self.pair.iter().enumerate() {
            if self.slot_of(u, v) != Some(s as u32) {
                return Err(format!("pair ({u},{v}): slot {s} is not its mapped slot"));
            }
            let holds = !g.is_removed(v) && q.predicate(u).eval(g.label(v), Some(g.attributes(v)));
            if self.valid[s] != holds {
                return Err(format!(
                    "pair ({u},{v}): valid = {} but the predicate holds = {holds}",
                    self.valid[s]
                ));
            }
        }
        for u in q.nodes() {
            let ui = u as usize;
            let flags = |f: &[bool]| self.slots[ui].values().filter(|&&s| f[s as usize]).count();
            let (vc, ac) = (flags(&self.valid), flags(&self.alive));
            if (vc, ac) != (self.valid_count[ui], self.alive_count[ui]) {
                return Err(format!(
                    "pattern node {u}: valid_count / alive_count = {} / {} but {vc} / {ac} flags",
                    self.valid_count[ui], self.alive_count[ui]
                ));
            }
            let pred = q.predicate(u);
            for v in 0..g.node_count() as NodeId {
                if !g.is_removed(v)
                    && pred.eval(g.label(v), Some(g.attributes(v)))
                    && self.valid_slot(u, v).is_none()
                {
                    return Err(format!("pair ({u},{v}): satisfies the predicate but has no slot"));
                }
            }
        }
        for (s, &(u, v)) in self.pair.iter().enumerate() {
            if !self.valid[s] {
                if self.alive[s] {
                    return Err(format!("pair ({u},{v}): invalid but alive"));
                }
                continue;
            }
            let base = self.cbase[s] as usize;
            let mut supported = true;
            for (j, &uc) in q.successors(u).iter().enumerate() {
                let expect =
                    g.successors(v).filter(|&w| self.alive_slot(uc, w).is_some()).count() as u32;
                if self.cnt[base + j] != expect {
                    return Err(format!(
                        "pair ({u},{v}): counter of pattern edge ({u},{uc}) = {} but {expect} \
                         alive children",
                        self.cnt[base + j]
                    ));
                }
                supported &= expect > 0;
            }
            if self.alive[s] != supported {
                return Err(format!(
                    "pair ({u},{v}): alive = {} but every counter > 0 = {supported}",
                    self.alive[s]
                ));
            }
        }
        Ok(())
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
        if let Err(msg) = state.check_invariants(g, q) {
            let snap = g.snapshot();
            let edges: Vec<_> = snap.edges().map(|e| (e.source, e.target)).collect();
            panic!(
                "{msg} after {delta:?}\n labels {:?}\n edges {edges:?}\n pattern {:?} / {:?}",
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
        let mut s = IncSimState::new(&g, &q);
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
        let mut s = IncSimState::new(&g, &q);
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
        let mut s = IncSimState::new(&g, &q);
        assert!(s.output_matches(&q).is_empty());
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().add_edge(1, 0));
        assert_eq!(s.output_matches(&q), vec![0]);
    }

    #[test]
    fn node_churn() {
        let g0 = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let mut g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q);
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
            let mut s = IncSimState::new(&g, &q);
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
        let mut s = IncSimState::new(&g, &q);
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
        let mut s = IncSimState::new(&g, &q);
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
        let mut s = IncSimState::new(&g, &q);
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
            let mut s = IncSimState::new(&g, &q);
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
        let mut s = IncSimState::new(&g, &q);
        s.take_dirty();
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().add_edge(0, 2));
        // (B,2) was already alive as a leaf? No: B has no pattern
        // successors, so (B,2) was alive from the start; only counters of
        // (A,0) changed — no alive flips.
        assert!(s.take_dirty().is_empty());
        check_equiv(&mut g, &mut s, &q, &GraphDelta::new().remove_edge(0, 1).remove_edge(0, 2));
        let dirty: Vec<DynPair> = s.take_dirty().into_iter().map(|d| s.pair(d)).collect();
        assert!(dirty.contains(&(0, 0)), "output pair died: {dirty:?}");
    }

    /// The auditor names what broke: one corrupted counter is reported
    /// with its pair and pattern edge, not just as "violated".
    #[test]
    fn check_invariants_names_the_corrupted_pair() {
        let g0 = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let g = DynGraph::from_digraph(&g0);
        let mut s = IncSimState::new(&g, &q);
        assert_eq!(s.check_invariants(&g, &q), Ok(()));
        let b = s.slot_of(1, 1).expect("(1,1) is a candidate pair");
        s.cnt[s.cbase[b as usize] as usize] += 1;
        let msg = s.check_invariants(&g, &q).expect_err("corrupted counter");
        assert!(msg.starts_with("pair (1,1): counter of pattern edge (1,2) = 2"), "{msg}");
    }
}
