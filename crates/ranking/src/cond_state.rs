//! [`CondensationState`]: incrementally maintained Tarjan condensation +
//! component reach sets over a mutable pair graph.
//!
//! PR 5's `dirty_region` sweep showed that at small dirty fractions the
//! reach DP's cost is dominated by *prepare* — a from-scratch Tarjan
//! condensation and bottom-up bitset build over the whole alive-pair
//! view, once per batch. The paper's incremental thesis (Fan et al.,
//! VLDB 2013) says that work should scale with |Δ|, not |G|: SCC
//! structure only changes around the touched region. This module keeps
//! the condensation **alive across batches**:
//!
//! * **Deletions only split.** A removed intra-component edge or a died
//!   member can only break its own SCC apart (every post-deletion SCC is
//!   a subset of the old one), so Tarjan re-runs inside the affected
//!   components' member union — a bounded region — and everything else
//!   keeps its component id.
//! * **Insertions only merge on a DAG cycle.** A new edge `x → y` with
//!   `comp(x) ≠ comp(y)` merges components exactly when `comp(y)` reaches
//!   `comp(x)` in the condensation DAG. A bounded reachability probe
//!   (over the cached successor lists, which are conservative supersets
//!   while dirty, plus the batch's earlier insertions) detects the cycle;
//!   the components on the connecting paths join the re-Tarjan region.
//!   Probes run sequentially over the batch so interacting multi-edge
//!   cycles are caught by the latest edge's probe.
//! * **Dirty `Full(c)` sets propagate only to ancestors.** Each live
//!   component owns `Full(c)` (member data nodes ∪ successors' `Full`) as
//!   a sorted [`NodeSet`] of data-node ids: it costs 4 bytes a member, not
//!   a bit per graph node, and a rebuild costs the members and the
//!   successors' sets it reads — they are appended to one scratch buffer
//!   the state keeps, then sorted and deduplicated. Extraction
//!   ([`CondensationState::strict_reach`]) copies out an owned set, so
//!   nothing outside the state ever aliases one. After restructuring,
//!   only the changed components and their condensation-DAG ancestors
//!   (walked over exact predecessor sets) are recomputed,
//!   successors-first. A set has no width, so a graph that grows between
//!   batches leaves every clean `Full` alone.
//!
//! **Density selects the set type.** A dynamic `Full` holds about 1
//! member of a universe of about 50 k graph nodes (`stream_relevance`),
//! so a sorted id list beats a bitset as wide as the graph. The static
//! path's sets hold 18–25 % of a universe of about 780 data nodes, and
//! there the bitset DP of [`crate::reach_sets`] is 6.6–10.5× faster than
//! this one; see that module.
//!
//! When a batch's affected region outgrows [`CondPolicy`]'s thresholds
//! the state reports [`MaintainError`] and the caller falls back to a
//! full re-condensation ([`CondensationState::build`]) — mirroring the
//! PR 1 rebuild-threshold pattern. Correctness is pinned differentially:
//! [`CondensationState::validate`] compares partition, triviality and
//! every `Full(c)` against a from-scratch build.
//!
//! The size of each `Full(c)` is the paper's upper bound `v.h`, kept in
//! the same per-node vector as the relevant set it bounds. A candidate
//! pair's relevance is at most the size of its component's `Full` (exact
//! for nontrivial components; a trivial component's `Full` additionally
//! contains the member's own data node, so the slack is ≤ 1). A set's
//! size is its length, so it can never be staler than the set, and
//! [`CondensationState::upper_bound`] reads it in O(1).
//!
//! The exact relevance `δr` is just as cheap. A nontrivial component's
//! `Full(c)` is the strict reach of every member, and a trivial component
//! `{p}` over data node `v` reaches `v` again only through a successor:
//!
//! `δr(p) = |Full(c)| − [c is trivial ∧ v ∉ Full(s) for every successor s]`
//!
//! [`CondensationState::strict_len`] evaluates it with one binary search
//! per successor, stopping at the first hit, so a relevance consumer
//! reads a count without building the set it counts.

use std::collections::{BTreeSet, HashMap};

use gpm_graph::scc::TarjanScratch;
use gpm_graph::{NodeId, NodeSet};
use gpm_simulation::{PairDelta, ReachView};

/// Sentinel component id for dead / never-alive pair slots.
const DEAD: u32 = u32::MAX;

/// Fallback thresholds for incremental maintenance.
#[derive(Debug, Clone, Copy)]
pub struct CondPolicy {
    /// Maximum components one insertion probe may visit before the batch
    /// falls back to full re-condensation.
    pub probe_limit: usize,
    /// Maximum fraction of live pairs the re-Tarjan region may cover
    /// before the batch falls back to full re-condensation.
    pub max_region_fraction: f64,
}

impl Default for CondPolicy {
    fn default() -> Self {
        CondPolicy { probe_limit: 4096, max_region_fraction: 0.5 }
    }
}

/// Why a batch could not be maintained incrementally. The state is
/// **poisoned** after an error — the caller must rebuild it from scratch
/// (and count the fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainError {
    /// An insertion probe exceeded [`CondPolicy::probe_limit`].
    ProbeOverflow,
    /// The re-Tarjan region exceeded [`CondPolicy::max_region_fraction`].
    RegionOverflow,
}

/// What one maintained batch cost, for telemetry and bench counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Pairs inside the re-Tarjan region (0 when no component restructured).
    pub region_pairs: usize,
    /// Components whose `Full` set was recomputed.
    pub recomputed_fulls: usize,
    /// Components retired + created by restructuring.
    pub restructured_comps: usize,
}

#[derive(Debug, Clone)]
struct CompSlot {
    live: bool,
    /// Alive member pairs, sorted.
    members: Vec<u32>,
    /// Distinct live successor components, sorted, self excluded. Exact
    /// at rest; a conservative superset only transiently inside `apply`.
    succs: Vec<u32>,
    /// Exact predecessor components (kept in sync with every `succs`
    /// recompute and retirement) — the ancestor walk of dirty
    /// propagation runs over these.
    preds: BTreeSet<u32>,
    /// Size > 1, or a single member with a self-loop.
    nontrivial: bool,
    /// `Full(c)` = member data nodes ∪ successors' `Full`.
    full: NodeSet,
}

/// Incrementally maintained condensation (components, DAG adjacency,
/// per-component reach sets) over a [`ReachView`] whose pair slots are
/// stable across batches. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct CondensationState {
    /// Pair slot → live component id, or [`DEAD`].
    comp_of: Vec<u32>,
    comps: Vec<CompSlot>,
    free: Vec<u32>,
    live_pairs: usize,
    /// Heap bytes of the live components' `Full` sets, kept as a running
    /// count: `recompute_fulls` adds what each stored set grew by and
    /// `retire` subtracts the set it frees.
    retained: usize,
    /// Tarjan scratch, kept so a region re-run costs O(region).
    tarjan: TarjanScratch,
    /// Where a `Full(c)` is gathered before it is sorted and deduplicated.
    scratch: Vec<NodeId>,
}

impl CondensationState {
    /// Full (re)condensation: Tarjan over every alive pair, successor /
    /// predecessor wiring, and every `Full(c)` from scratch.
    pub fn build<V: ReachView>(view: &V, alive: impl Fn(u32) -> bool) -> Self {
        let n = view.node_count();
        let mut st = CondensationState {
            comp_of: vec![DEAD; n],
            comps: Vec::new(),
            free: Vec::new(),
            live_pairs: 0,
            retained: 0,
            tarjan: TarjanScratch::default(),
            scratch: Vec::new(),
        };
        let region: Vec<u32> = (0..n as u32).filter(|&p| alive(p)).collect();
        st.live_pairs = region.len();
        for scc in region_sccs(&mut st.tarjan, view, &region, &alive) {
            st.install_component(view, scc);
        }
        let all: BTreeSet<u32> = (0..st.comps.len() as u32).collect();
        for &c in &all {
            st.recompute_succs(view, c);
        }
        st.recompute_fulls(view, &all);
        st
    }

    /// Alive pairs currently partitioned.
    pub fn live_pairs(&self) -> usize {
        self.live_pairs
    }

    /// Live components.
    #[cfg(test)]
    fn component_count(&self) -> usize {
        self.comps.iter().filter(|c| c.live).count()
    }

    /// Heap bytes held by the live components' `Full` sets — 4 a member;
    /// what the reach budget is enforced against and
    /// `PatternInfo::maintained_bytes` reports. Reads a running count, in
    /// O(1): a maintained batch pays for the sets it changed, not for
    /// every component.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }

    /// What [`Self::retained_bytes`] must equal: the sum over every live
    /// component, in O(components).
    fn summed_bytes(&self) -> usize {
        self.comps.iter().filter(|c| c.live).map(|c| c.full.heap_bytes()).sum()
    }

    /// The strict-reach set of alive pair `p` (data nodes of pairs
    /// reachable via ≥ 1 edge), as an owned set: a nontrivial component's
    /// own `Full(c)` (the cycle makes every member reachable from every
    /// member), a trivial one's union of successor `Full`s.
    pub fn strict_reach(&self, p: u32) -> NodeSet {
        let c = self.comp_of[p as usize];
        debug_assert_ne!(c, DEAD, "extraction from a dead pair");
        let slot = &self.comps[c as usize];
        match slot.succs.as_slice() {
            _ if slot.nontrivial => slot.full.clone(),
            [] => NodeSet::new(),
            &[s] => self.comps[s as usize].full.clone(),
            succs => {
                let mut ids: Vec<NodeId> = Vec::new();
                for &s in succs {
                    ids.extend_from_slice(self.comps[s as usize].full.as_slice());
                }
                NodeSet::from_scratch(&mut ids)
            }
        }
    }

    /// `|strict_reach(p)|` of alive pair `p`, without building the set:
    /// a nontrivial component's `|Full(c)|`; a trivial one's, less its own
    /// data node unless some successor's `Full` holds it too.
    pub fn strict_len<V: ReachView>(&self, view: &V, p: u32) -> u64 {
        let c = self.comp_of[p as usize];
        debug_assert_ne!(c, DEAD, "count of a dead pair");
        let slot = &self.comps[c as usize];
        let full = slot.full.len() as u64;
        if slot.nontrivial {
            return full;
        }
        let v = view.universe_pos(p) as NodeId;
        let reached = slot.succs.iter().any(|&s| self.comps[s as usize].full.contains(v));
        full - u64::from(!reached)
    }

    /// Folds one batch's pair-level delta into the maintained
    /// condensation. `view` must already be post-batch. On error the
    /// state is poisoned and must be rebuilt with [`Self::build`].
    pub fn apply<V: ReachView>(
        &mut self,
        view: &V,
        delta: &PairDelta,
        policy: &CondPolicy,
    ) -> Result<MaintainStats, MaintainError> {
        if view.node_count() > self.comp_of.len() {
            self.comp_of.resize(view.node_count(), DEAD);
        }
        let mut stats = MaintainStats::default();
        // Components whose internals must be re-Tarjaned (the region).
        let mut restructure: BTreeSet<u32> = BTreeSet::new();
        // Components whose successor lists must be recomputed.
        let mut succ_fix: BTreeSet<u32> = BTreeSet::new();
        // Components whose Full must be recomputed (ancestors added later).
        let mut full_dirty: BTreeSet<u32> = BTreeSet::new();

        // 1. Deaths: drop the member; a now-empty component retires, a
        //    surviving one can only split.
        for &p in &delta.died {
            let c = self.comp_of[p as usize];
            if c == DEAD {
                continue;
            }
            self.comp_of[p as usize] = DEAD;
            self.live_pairs -= 1;
            let slot = &mut self.comps[c as usize];
            let i = slot.members.binary_search(&p).expect("died pair is a member");
            slot.members.remove(i);
            if slot.members.is_empty() {
                restructure.remove(&c);
                self.retire(c, &mut succ_fix, &mut full_dirty);
            } else {
                restructure.insert(c);
            }
        }

        // 2. Removed pair edges: intra-component removals can split;
        //    cross-component ones only stale the source's succ list.
        for &(x, y) in &delta.removed {
            let (cx, cy) = (self.comp_of[x as usize], self.comp_of[y as usize]);
            if cx == DEAD || cy == DEAD {
                continue; // stripped alongside a death
            }
            if cx == cy {
                restructure.insert(cx);
            } else {
                succ_fix.insert(cx);
                full_dirty.insert(cx);
            }
        }

        // 3. Births: fresh singleton components (their edges arrive as
        //    added pair edges below).
        for &p in &delta.born {
            debug_assert_eq!(self.comp_of[p as usize], DEAD, "born pair was alive");
            let c = self.alloc();
            self.comps[c as usize].members.push(p);
            self.comp_of[p as usize] = c;
            self.live_pairs += 1;
            succ_fix.insert(c);
            full_dirty.insert(c);
        }

        // 4. Insertions, sequentially: probe the condensation DAG (cached
        //    successor lists are supersets while dirty — conservative,
        //    never under-reaching — plus this batch's earlier insertions)
        //    for a cycle. Components on the connecting paths join the
        //    region; the region re-Tarjan then merges them against the
        //    real post-batch view.
        let mut extra: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(x, y) in &delta.added {
            let (cx, cy) = (self.comp_of[x as usize], self.comp_of[y as usize]);
            debug_assert!(cx != DEAD && cy != DEAD, "added edges join alive pairs");
            if cx == cy {
                if x == y {
                    self.comps[cx as usize].nontrivial = true;
                }
                // An extra edge inside one SCC changes neither the
                // partition nor any reach set.
            } else {
                match self.probe(cy, cx, &extra, policy.probe_limit) {
                    Probe::Overflow => return Err(MaintainError::ProbeOverflow),
                    Probe::NoCycle => {
                        succ_fix.insert(cx);
                        full_dirty.insert(cx);
                    }
                    Probe::Cycle(merge) => {
                        restructure.extend(merge);
                    }
                }
                extra.entry(cx).or_default().push(cy);
            }
        }

        // Churn threshold: past it, a from-scratch condensation is the
        // cheaper (and simpler) path.
        stats.region_pairs =
            restructure.iter().map(|&c| self.comps[c as usize].members.len()).sum();
        if stats.region_pairs as f64 > policy.max_region_fraction * (self.live_pairs.max(1) as f64)
        {
            return Err(MaintainError::RegionOverflow);
        }

        // 5. Region re-Tarjan against the real view: splits and merges in
        //    one pass. Old ids retire; every resulting SCC is a fresh
        //    component.
        if !restructure.is_empty() {
            let mut region: Vec<u32> = restructure
                .iter()
                .flat_map(|&c| self.comps[c as usize].members.iter().copied())
                .collect();
            region.sort_unstable();
            let comp_of = &self.comp_of;
            let sccs = region_sccs(&mut self.tarjan, view, &region, |p| {
                let c = comp_of[p as usize];
                c != DEAD && restructure.contains(&c)
            });
            for &c in &restructure {
                self.retire(c, &mut succ_fix, &mut full_dirty);
            }
            stats.restructured_comps = restructure.len() + sccs.len();
            for scc in sccs {
                let c = self.install_component(view, scc);
                succ_fix.insert(c);
                full_dirty.insert(c);
            }
        }

        // 6. Successor lists (and, through them, exact predecessor sets).
        for &c in &succ_fix {
            if self.is_live(c) {
                self.recompute_succs(view, c);
            }
        }

        // 7. Dirty propagation along condensation-DAG ancestors only,
        //    then recompute the dirty `Full`s successors-first.
        let mut dirty: BTreeSet<u32> =
            full_dirty.iter().copied().filter(|&c| self.is_live(c)).collect();
        let mut work: Vec<u32> = dirty.iter().copied().collect();
        while let Some(c) = work.pop() {
            let preds: Vec<u32> =
                self.comps[c as usize].preds.iter().copied().filter(|&p| self.is_live(p)).collect();
            for pr in preds {
                if dirty.insert(pr) {
                    work.push(pr);
                }
            }
        }
        stats.recomputed_fulls = dirty.len();
        self.recompute_fulls(view, &dirty);
        Ok(stats)
    }

    /// Upper bound `h` on the relevance of alive pair `p` — the size of
    /// its component's `Full` — or `None` when `p` is dead.
    #[inline]
    pub fn upper_bound(&self, p: u32) -> Option<u64> {
        self.comp_of(p).map(|c| self.comps[c as usize].full.len() as u64)
    }

    /// Differential check against a from-scratch build: same partition of
    /// the same alive pairs, same triviality and same `Full` per component,
    /// and a running byte count equal to the sum over the live components.
    pub fn validate<V: ReachView>(
        &self,
        view: &V,
        alive: impl Fn(u32) -> bool,
    ) -> Result<(), String> {
        let summed = self.summed_bytes();
        if self.retained != summed {
            return Err(format!("retained bytes {} != {summed} summed", self.retained));
        }
        let fresh = Self::build(view, &alive);
        if self.live_pairs != fresh.live_pairs {
            return Err(format!("live_pairs {} != fresh {}", self.live_pairs, fresh.live_pairs));
        }
        for p in 0..view.node_count() as u32 {
            let (mc, fc) = (self.comp_of(p), fresh.comp_of(p));
            if mc.is_some() != alive(p) {
                return Err(format!("pair {p}: alive={} but comp_of={mc:?}", alive(p)));
            }
            let (Some(mc), Some(fc)) = (mc, fc) else { continue };
            let ms = &self.comps[mc as usize];
            let fs = &fresh.comps[fc as usize];
            if ms.members != fs.members {
                return Err(format!(
                    "pair {p}: members {:?} != fresh {:?}",
                    ms.members, fs.members
                ));
            }
            if ms.nontrivial != fs.nontrivial {
                return Err(format!("pair {p}: nontrivial {} != {}", ms.nontrivial, fs.nontrivial));
            }
            if ms.full != fs.full {
                return Err(format!("pair {p}: Full {:?} != fresh {:?}", ms.full, fs.full));
            }
            let msucc = self.succ_rep_set(mc);
            let fsucc = fresh.succ_rep_set(fc);
            if msucc != fsucc {
                return Err(format!("pair {p}: succs {msucc:?} != fresh {fsucc:?}"));
            }
        }
        Ok(())
    }

    /// Component id of pair `p`, if alive. A slot past the state's width
    /// was appended to the view after the last batch folded in here, and
    /// has never been alive.
    pub fn comp_of(&self, p: u32) -> Option<u32> {
        self.comp_of.get(p as usize).copied().filter(|&c| c != DEAD)
    }

    // ------------------------------------------------------- internals

    fn is_live(&self, c: u32) -> bool {
        self.comps[c as usize].live
    }

    /// Successor components as canonical member-representative sets (for
    /// id-agnostic comparison).
    fn succ_rep_set(&self, c: u32) -> BTreeSet<u32> {
        self.comps[c as usize].succs.iter().map(|&s| self.comps[s as usize].members[0]).collect()
    }

    fn alloc(&mut self) -> u32 {
        let slot = CompSlot {
            live: true,
            members: Vec::new(),
            succs: Vec::new(),
            preds: BTreeSet::new(),
            nontrivial: false,
            full: NodeSet::new(),
        };
        match self.free.pop() {
            Some(c) => {
                self.comps[c as usize] = slot;
                c
            }
            None => {
                self.comps.push(slot);
                (self.comps.len() - 1) as u32
            }
        }
    }

    /// Installs a freshly found SCC (sorted members) as a new component;
    /// successors / `Full` are left for the caller's recompute sets.
    fn install_component<V: ReachView>(&mut self, view: &V, members: Vec<u32>) -> u32 {
        let nontrivial = members.len() > 1 || {
            let p = members[0];
            view.successors_of(p).contains(&p)
        };
        let c = self.alloc();
        for &p in &members {
            self.comp_of[p as usize] = c;
        }
        let slot = &mut self.comps[c as usize];
        slot.members = members;
        slot.nontrivial = nontrivial;
        c
    }

    /// Retires component `c`: unregisters it from its successors'
    /// predecessor sets and marks every predecessor for successor-list
    /// and `Full` recomputation (they lost a descendant id). `Full(c)` is
    /// freed here, not at the next rebuild.
    fn retire(&mut self, c: u32, succ_fix: &mut BTreeSet<u32>, full_dirty: &mut BTreeSet<u32>) {
        let slot = &mut self.comps[c as usize];
        slot.live = false;
        slot.members = Vec::new();
        self.retained -= std::mem::take(&mut slot.full).heap_bytes();
        let succs = std::mem::take(&mut slot.succs);
        let preds = std::mem::take(&mut slot.preds);
        for s in succs {
            if self.comps[s as usize].live {
                self.comps[s as usize].preds.remove(&c);
            }
        }
        for pr in preds {
            succ_fix.insert(pr);
            full_dirty.insert(pr);
        }
        self.free.push(c);
    }

    /// Recomputes `succs(c)` from the members' view adjacency and patches
    /// the affected predecessor sets (the diff keeps them exact).
    fn recompute_succs<V: ReachView>(&mut self, view: &V, c: u32) {
        let mut fresh: BTreeSet<u32> = BTreeSet::new();
        for &p in &self.comps[c as usize].members {
            for &w in view.successors_of(p) {
                let cw = self.comp_of[w as usize];
                debug_assert_ne!(cw, DEAD, "view edge into a dead pair");
                if cw != c {
                    fresh.insert(cw);
                }
            }
        }
        let old = std::mem::take(&mut self.comps[c as usize].succs);
        for &s in &old {
            if !fresh.contains(&s) && self.comps[s as usize].live {
                self.comps[s as usize].preds.remove(&c);
            }
        }
        for &s in &fresh {
            self.comps[s as usize].preds.insert(c);
        }
        self.comps[c as usize].succs = fresh.into_iter().collect();
    }

    /// Recomputes `Full(c)` for every component in `dirty`,
    /// successors-first (DFS postorder over the dirty sub-DAG); clean
    /// successors contribute their stored `Full` untouched.
    fn recompute_fulls<V: ReachView>(&mut self, view: &V, dirty: &BTreeSet<u32>) {
        let mut order: Vec<u32> = Vec::with_capacity(dirty.len());
        let mut state: HashMap<u32, u8> = HashMap::new(); // 1 = open, 2 = done
        for &root in dirty {
            if state.contains_key(&root) {
                continue;
            }
            let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
            state.insert(root, 1);
            while let Some(&(c, i)) = stack.last() {
                let succs = &self.comps[c as usize].succs;
                if i < succs.len() {
                    stack.last_mut().expect("nonempty").1 += 1;
                    let s = succs[i];
                    if dirty.contains(&s) && !state.contains_key(&s) {
                        state.insert(s, 1);
                        stack.push((s, 0));
                    }
                } else {
                    stack.pop();
                    state.insert(c, 2);
                    order.push(c);
                }
            }
        }
        let mut ids = std::mem::take(&mut self.scratch);
        for &c in &order {
            let slot = &self.comps[c as usize];
            for &s in &slot.succs {
                ids.extend_from_slice(self.comps[s as usize].full.as_slice());
            }
            ids.extend(slot.members.iter().map(|&p| view.universe_pos(p) as NodeId));
            let full = NodeSet::from_scratch(&mut ids);
            self.retained += full.heap_bytes();
            self.retained -= std::mem::replace(&mut self.comps[c as usize].full, full).heap_bytes();
        }
        self.scratch = ids;
    }

    /// Bounded condensation-DAG reachability from `from` towards `to`
    /// over cached successors + this batch's `extra` insertions. On a
    /// hit, returns every component on a connecting path (the exact
    /// merge set for this edge given the overlay).
    fn probe(&self, from: u32, to: u32, extra: &HashMap<u32, Vec<u32>>, limit: usize) -> Probe {
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut work: Vec<u32> = vec![from];
        seen.insert(from);
        while let Some(c) = work.pop() {
            if seen.len() > limit {
                return Probe::Overflow;
            }
            let slot = &self.comps[c as usize];
            let extras = extra.get(&c).map(|v| v.as_slice()).unwrap_or(&[]);
            for &s in slot.succs.iter().chain(extras) {
                if self.comps[s as usize].live && seen.insert(s) {
                    work.push(s);
                }
            }
        }
        if !seen.contains(&to) {
            return Probe::NoCycle;
        }
        // Comps on from ⇝ to paths: reverse reachability from `to`
        // restricted to the forward closure.
        let mut radj: HashMap<u32, Vec<u32>> = HashMap::new();
        for &c in &seen {
            let slot = &self.comps[c as usize];
            let extras = extra.get(&c).map(|v| v.as_slice()).unwrap_or(&[]);
            for &s in slot.succs.iter().chain(extras) {
                if seen.contains(&s) {
                    radj.entry(s).or_default().push(c);
                }
            }
        }
        let mut merge: BTreeSet<u32> = BTreeSet::new();
        let mut work: Vec<u32> = vec![to];
        merge.insert(to);
        while let Some(c) = work.pop() {
            for &p in radj.get(&c).map(|v| v.as_slice()).unwrap_or(&[]) {
                if merge.insert(p) {
                    work.push(p);
                }
            }
        }
        debug_assert!(merge.contains(&from), "from reaches to, so from is on a path");
        Probe::Cycle(merge)
    }
}

enum Probe {
    Overflow,
    NoCycle,
    Cycle(BTreeSet<u32>),
}

/// SCCs (members sorted) of the subgraph of `view` induced by `in_region`,
/// from `roots` in order, in emission order — reverse topological within
/// the region.
fn region_sccs<V: ReachView>(
    tarjan: &mut TarjanScratch,
    view: &V,
    roots: &[u32],
    in_region: impl Fn(u32) -> bool,
) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::new();
    tarjan.run(view, roots.iter().copied(), in_region, |scc| {
        let mut scc = scc.to_vec();
        scc.sort_unstable();
        out.push(scc);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::scc::Successors;

    /// Toy mutable pair graph implementing [`ReachView`]; pair `p` stands
    /// for data node `node_of[p]` (the identity unless a test makes two
    /// pairs share a data node, as two pattern nodes matching one node do).
    #[derive(Clone)]
    struct VecView {
        adj: Vec<Vec<u32>>,
        node_of: Vec<usize>,
        width: usize,
    }

    impl Successors for VecView {
        fn node_count(&self) -> usize {
            self.adj.len()
        }
        fn successors_of(&self, v: u32) -> &[u32] {
            &self.adj[v as usize]
        }
    }

    impl ReachView for VecView {
        fn universe_size(&self) -> usize {
            self.width
        }
        fn universe_pos(&self, c: u32) -> usize {
            self.node_of[c as usize]
        }
    }

    /// Strict-reach oracle: BFS from the successors of `s` over alive
    /// nodes.
    fn strict_reach_bfs(view: &VecView, alive: &[bool], s: u32) -> NodeSet {
        let mut set: Vec<NodeId> = Vec::new();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut work: Vec<u32> = view.adj[s as usize].clone();
        for &w in &work {
            seen.insert(w);
        }
        while let Some(p) = work.pop() {
            set.push(view.universe_pos(p) as NodeId);
            for &w in &view.adj[p as usize] {
                if alive[w as usize] && seen.insert(w) {
                    work.push(w);
                }
            }
        }
        NodeSet::from_scratch(&mut set)
    }

    fn assert_consistent(st: &CondensationState, view: &VecView, alive: &[bool]) {
        st.validate(view, |p| alive[p as usize]).expect("maintained ≡ from-scratch");
        for p in 0..view.adj.len() as u32 {
            if alive[p as usize] {
                let got = st.strict_reach(p);
                let want = strict_reach_bfs(view, alive, p);
                assert_eq!(got, want, "strict reach of pair {p}");
                assert_eq!(st.strict_len(view, p), got.len() as u64, "strict length of pair {p}");
            }
        }
    }

    struct Harness {
        view: VecView,
        alive: Vec<bool>,
        st: CondensationState,
    }

    impl Harness {
        fn new(n: usize, edges: &[(u32, u32)]) -> Self {
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &(a, b) in edges {
                if !adj[a as usize].contains(&b) {
                    adj[a as usize].push(b);
                }
            }
            for l in &mut adj {
                l.sort_unstable();
            }
            let view = VecView { adj, node_of: (0..n).collect(), width: n };
            let alive = vec![true; n];
            let st = CondensationState::build(&view, |_| true);
            Harness { view, alive, st }
        }

        /// Applies a batch described as ops, mirroring the
        /// `DynMatchGraph::apply_pair_delta` contract, then checks
        /// differentially. Returns the maintain result.
        fn batch(&mut self, ops: &[Op]) -> Result<MaintainStats, MaintainError> {
            let mut delta = PairDelta::default();
            for op in ops {
                match *op {
                    Op::Kill(p) => {
                        if !self.alive[p as usize] {
                            continue;
                        }
                        self.alive[p as usize] = false;
                        self.view.adj[p as usize].clear();
                        for l in &mut self.view.adj {
                            l.retain(|&w| w != p);
                        }
                        delta.died.push(p);
                        delta.added.retain(|&(a, b)| a != p && b != p);
                        delta.removed.retain(|&(a, b)| a != p && b != p);
                    }
                    Op::Revive(p) => {
                        if self.alive[p as usize] {
                            continue;
                        }
                        self.alive[p as usize] = true;
                        delta.born.push(p);
                    }
                    Op::AddEdge(a, b) => {
                        if !self.alive[a as usize] || !self.alive[b as usize] {
                            continue;
                        }
                        let l = &mut self.view.adj[a as usize];
                        if let Err(i) = l.binary_search(&b) {
                            l.insert(i, b);
                            delta.added.push((a, b));
                        }
                    }
                    Op::RemoveEdge(a, b) => {
                        if !self.alive[a as usize] || !self.alive[b as usize] {
                            continue;
                        }
                        let l = &mut self.view.adj[a as usize];
                        if let Ok(i) = l.binary_search(&b) {
                            l.remove(i);
                            delta.removed.push((a, b));
                        }
                    }
                }
            }
            // Like `apply_pair_delta`, report each slot once: a pair killed
            // and revived twice in one batch is born once.
            delta.died.sort_unstable();
            delta.died.dedup();
            delta.born.sort_unstable();
            delta.born.dedup();
            delta.born.retain(|&p| self.alive[p as usize]);
            // Tiny test graphs: a legitimate merge can cover most pairs,
            // so the harness never region-falls-back (the policy test
            // drives the thresholds explicitly).
            let lax = CondPolicy { probe_limit: 4096, max_region_fraction: 1.0 };
            let r = self.st.apply(&self.view, &delta, &lax);
            if r.is_err() {
                self.st = CondensationState::build(&self.view, |p| self.alive[p as usize]);
            }
            r
        }

        fn check(&self) {
            assert_eq!(self.st.retained_bytes(), self.st.summed_bytes(), "running byte count");
            assert_consistent(&self.st, &self.view, &self.alive);
        }
    }

    #[derive(Clone, Copy)]
    enum Op {
        Kill(u32),
        Revive(u32),
        AddEdge(u32, u32),
        RemoveEdge(u32, u32),
    }

    /// A 4-cycle with a tail: breaking the cycle splits one SCC into
    /// singletons; re-closing it merges them back — both within a
    /// bounded region while the tail keeps its component untouched.
    #[test]
    fn cycle_break_and_reclose() {
        let mut h = Harness::new(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]);
        h.check();
        let s = h.batch(&[Op::RemoveEdge(2, 3)]).expect("bounded split");
        assert_eq!(s.region_pairs, 4, "only the cycle is re-Tarjaned");
        h.check();
        let s = h.batch(&[Op::AddEdge(2, 3)]).expect("bounded merge");
        assert!(s.region_pairs >= 4, "merge set covers the reclosed cycle");
        h.check();
    }

    /// Split and remerge in a single batch: the removed edge dirties the
    /// component, the added edge re-closes the cycle, and the one region
    /// re-Tarjan sees the final shape.
    #[test]
    fn split_then_remerge_single_batch() {
        let mut h = Harness::new(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        h.batch(&[Op::RemoveEdge(1, 2), Op::AddEdge(1, 2)]).expect("maintained");
        h.check();
        // And a genuine reshape: break 1→2, route 1→0 stays, add 2→1.
        h.batch(&[Op::RemoveEdge(1, 2), Op::AddEdge(2, 1)]).expect("maintained");
        h.check();
    }

    /// Killing a component's last member tombstones it; ancestors'
    /// sets shed the dead data node.
    #[test]
    fn tombstoned_source_component() {
        let mut h = Harness::new(4, &[(0, 1), (1, 2), (2, 3)]);
        h.batch(&[Op::Kill(3)]).expect("maintained");
        h.check();
        assert!(!h.st.strict_reach(0).contains(3), "ancestors shed the dead node");
        h.batch(&[Op::Revive(3), Op::AddEdge(2, 3), Op::AddEdge(3, 1)]).expect("maintained");
        h.check();
    }

    /// A death inside a shared SCC splits it without touching siblings.
    #[test]
    fn member_death_splits_scc() {
        // Two 3-cycles sharing nothing; kill one member of the first.
        let mut h = Harness::new(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        h.batch(&[Op::Kill(1)]).expect("maintained");
        h.check();
    }

    /// Merging across a chain of components via one closing edge.
    #[test]
    fn chain_merge_via_back_edge() {
        let mut h = Harness::new(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        h.batch(&[Op::AddEdge(4, 0)]).expect("maintained");
        h.check();
        let st = &h.st;
        assert_eq!(st.component_count(), 1, "the whole chain merged");
    }

    /// `upper_bound` follows incremental maintenance: cutting off a
    /// reachable cycle lowers every ancestor's bound, and a stale `Full`
    /// is a `validate` failure.
    #[test]
    fn upper_bound_tracks_incremental_apply() {
        // 0 → {1, 2} → 3, plus a 2-cycle {4, 5} hanging off 3.
        let mut h = Harness::new(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 4)]);
        h.check();
        assert_eq!(h.st.upper_bound(0), Some(6), "Full(0) = self + 1,2,3,4,5 (trivial slack ≤ 1)");
        assert_eq!(h.st.upper_bound(4), Some(2), "cycle member: Full is exactly the SCC");

        let s = h.batch(&[Op::RemoveEdge(3, 4)]).expect("maintained");
        assert!(s.recomputed_fulls >= 4, "source + ancestors recomputed, got {s:?}");
        h.check();
        assert_eq!(
            h.st.upper_bound(0),
            Some(4),
            "cycle no longer reachable: Full(0) = {{0,1,2,3}}"
        );

        h.batch(&[Op::Kill(2)]).expect("maintained");
        h.check();
        assert_eq!(h.st.upper_bound(2), None, "dead pairs have no bound");

        let c = h.st.comp_of(0).expect("alive");
        assert_eq!(h.st.upper_bound(0), Some(3), "Full(0) = {{0,1,3}}");
        h.st.comps[c as usize].full = NodeSet::from_scratch(&mut vec![0, 1, 4]);
        assert_eq!(h.st.upper_bound(0), Some(3), "same size, different members");
        let err = h.st.validate(&h.view, |p| h.alive[p as usize]).expect_err("stale Full");
        assert!(err.contains("Full"), "{err}");
    }

    /// A `Full(c)` costs its members: on a graph a million nodes wide the
    /// retained bytes are 4 per member of each live component's set, not a
    /// bit per graph node.
    #[test]
    fn retained_bytes_are_four_per_full_member() {
        let mut h = Harness::new(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 4)]);
        h.view.width = 1 << 20;
        h.st = CondensationState::build(&h.view, |_| true);
        h.check();
        // Fulls: {4,5}; {3,4,5}; {1,3,4,5}; {2,3,4,5}; {0,…,5}.
        assert_eq!(h.st.component_count(), 5);
        assert_eq!(h.st.retained_bytes(), 4 * (2 + 3 + 4 + 4 + 6));
        h.batch(&[Op::RemoveEdge(3, 4)]).expect("maintained");
        h.check();
        // {4,5}; {3}; {1,3}; {2,3}; {0,1,2,3}.
        assert_eq!(h.st.retained_bytes(), 4 * (2 + 1 + 2 + 2 + 4));
        h.batch(&[Op::Kill(4), Op::Kill(5)]).expect("maintained");
        h.check();
        // {3}; {1,3}; {2,3}; {0,1,2,3}: the retired {4,5} freed its bytes.
        assert_eq!(h.st.retained_bytes(), 4 * (1 + 2 + 2 + 4));
        // A count that drifts from the sets it counts fails `validate`, so
        // the production auditor catches it.
        h.st.retained += 4;
        let err = h.st.validate(&h.view, |p| h.alive[p as usize]).expect_err("drifted count");
        assert!(err.contains("retained bytes"), "{err}");
    }

    /// A trivial pair whose data node another pair shares: its `Full`
    /// holds the node once, as its own and as reached, so `strict_len`
    /// keeps it; a trivial pair that reaches its node only as its own
    /// drops it.
    #[test]
    fn strict_len_sees_a_shared_data_node() {
        // Pairs 0 → 1 → 2; pairs 0 and 1 both stand for data node 7.
        let mut h = Harness::new(3, &[(0, 1), (1, 2)]);
        h.view.node_of = vec![7, 7, 2];
        h.view.width = 8;
        h.st = CondensationState::build(&h.view, |_| true);
        h.check();
        assert_eq!(h.st.upper_bound(0), Some(2), "Full(0) = {{2, 7}}");
        assert_eq!(h.st.strict_len(&h.view, 0), 2, "0 reaches 7 through pair 1");
        assert_eq!(h.st.strict_len(&h.view, 1), 1, "1 reaches only 2");
        assert_eq!(h.st.strict_len(&h.view, 2), 0);
    }

    /// Probe and region limits trip the documented fallbacks.
    #[test]
    fn policy_overflows_report_fallback() {
        let mut h = Harness::new(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let tight = CondPolicy { probe_limit: 2, max_region_fraction: 1.0 };
        let mut delta = PairDelta::default();
        h.view.adj[5].push(0);
        delta.added.push((5, 0));
        assert_eq!(h.st.apply(&h.view, &delta, &tight), Err(MaintainError::ProbeOverflow));
        h.st = CondensationState::build(&h.view, |_| true);
        h.check();

        let cramped = CondPolicy { probe_limit: 4096, max_region_fraction: 0.1 };
        let mut delta = PairDelta::default();
        h.view.adj[2].retain(|&w| w != 3);
        delta.removed.push((2, 3));
        assert_eq!(h.st.apply(&h.view, &delta, &cramped), Err(MaintainError::RegionOverflow));
    }

    /// Randomized differential soak: arbitrary interleavings of kills,
    /// revivals and edge toggles stay equivalent to a from-scratch
    /// condensation and the BFS strict-reach oracle. Runs one stream per
    /// `PROPTEST_CASES` case (default 1); case 0 is seed `0x5EED`.
    #[test]
    fn randomized_differential_soak() {
        let cases = proptest::test_runner::ProptestConfig::with_cases(1).effective_cases();
        for case in 0..u64::from(cases) {
            soak(0x5EED + case);
        }
    }

    fn soak(mut seed: u64) {
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let n = 18u32;
        let mut edges = Vec::new();
        for _ in 0..30 {
            let (a, b) = (rng() % n, rng() % n);
            edges.push((a, b));
        }
        let mut h = Harness::new(n as usize, &edges);
        // 18 pairs over 12 data nodes: a trivial pair can reach its own
        // data node through another pair, which `strict_len` must see.
        h.view.node_of = (0..n as usize).map(|p| p % 12).collect();
        h.st = CondensationState::build(&h.view, |_| true);
        h.check();
        for _ in 0..60 {
            let mut ops = Vec::new();
            for _ in 0..(1 + rng() % 5) {
                let (a, b) = (rng() % n, rng() % n);
                ops.push(match rng() % 8 {
                    0 => Op::Kill(a),
                    1 => Op::Revive(a),
                    2..=4 => Op::AddEdge(a, b),
                    _ => Op::RemoveEdge(a, b),
                });
            }
            // Revivals must wire their edges explicitly (born pairs have
            // none until added).
            let _ = h.batch(&ops);
            h.check();
        }
    }
}
