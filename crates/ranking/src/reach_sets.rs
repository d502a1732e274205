//! Strict-reachability data-node sets over a pair graph — the repo's
//! **single reach engine**, shared by the static and the dynamic path.
//!
//! Relevant sets (`R(u,v)`, over the match graph), the tight bound index
//! (`v.h`, over the candidate product graph) and the dynamic path's dirty
//! relevant-set refreshes are all instances of one problem: *for each
//! source pair, collect the distinct data nodes of all pairs reachable
//! via at least one edge*. This module solves it once, over any
//! [`ReachView`] (a static `MatchGraph` over its own universe, or the
//! dynamic `DynMatchGraph` over simulation slots), in two phases:
//!
//! 1. **prepare** ([`ReachEngine::prepare`]) — condense the pair graph
//!    (Tarjan, component ids in reverse topological order), walk the
//!    condensation bottom-up materializing for each needed component the
//!    bitset `Full(c)` = data nodes of `c`'s members ∪ `Full` of
//!    successors; bitsets are reference-counted by remaining needed
//!    predecessors and freed eagerly, except those extraction needs.
//!    A source pair in a *nontrivial* component (on a cycle) reads
//!    `R = Full(c)`; in a trivial one, the union of successor `Full`s —
//!    the strictness of "via ≥ 1 edge".
//! 2. **extract** ([`ReachEngine::extract_all`]) — clone out the retained
//!    set of each source. Extraction is read-only; the condensation and
//!    the component bitsets are shared, never repeated. A caller that
//!    only needs sizes (the bound index) reads [`ReachEngine::counts`]
//!    instead and copies nothing.
//!
//! If the estimated peak memory exceeds the budget, the engine degrades
//! to per-source BFS over the pair graph — the same `O(|V|(|V|+|E|))`
//! worst case the paper quotes with a bounded memory footprint —
//! behind the **same** extraction interface. Both phases run on the
//! calling thread.

use std::collections::VecDeque;

use gpm_graph::{BitSet, Condensation};
use gpm_simulation::ReachView;
use gpm_telemetry::Span;

/// Memory policy for set-reachability computations.
#[derive(Debug, Clone, Copy)]
pub struct ReachConfig {
    /// Peak bytes allowed for materialized component bitsets before the
    /// computation falls back to per-source BFS.
    pub budget_bytes: usize,
    /// Ignored: the engine runs on the calling thread. Kept only because
    /// the frozen `benchmark/` sets it (`benchmark/src/workloads/stream.rs`
    /// and `static_paper.rs`); the next revision of `benchmark/` deletes it.
    pub threads: usize,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig { budget_bytes: 1 << 30, threads: 0 }
    }
}

enum Mode {
    /// Condensation DP ran: per-source-component output sets, retained.
    Dp {
        /// Deduplicated output sets, one per distinct source component.
        sets: Vec<BitSet>,
        /// Per source: index into `sets`.
        of_source: Vec<u32>,
    },
    /// Budget exceeded: extraction BFSes from each source on demand.
    Bfs,
}

/// A prepared strict-reachability computation over a fixed source list.
/// See the module docs for the two-phase contract.
pub struct ReachEngine<V> {
    view: V,
    sources: Vec<u32>,
    mode: Mode,
}

impl<V: ReachView> ReachEngine<V> {
    /// Runs phase 1 over `view`: condensation + component bitsets (or the
    /// BFS decision when the budget would be exceeded). `view` is kept for
    /// extraction; pass a reference to borrow.
    pub fn prepare(view: V, sources: Vec<u32>, cfg: &ReachConfig) -> Self {
        Self::prepare_traced(view, sources, cfg, &Span::disabled())
    }

    /// [`Self::prepare`] with phase tracing: opens `tarjan` and `bitsets`
    /// child spans under `span` and records budget-fallback decisions as
    /// events (`budget-bail-early` when even one universe-wide bitset
    /// would bust the budget, `budget-bail-estimate` when the
    /// post-condensation estimate does). A disabled span makes this
    /// identical to `prepare`.
    pub fn prepare_traced(view: V, sources: Vec<u32>, cfg: &ReachConfig, span: &Span) -> Self {
        let m = view.universe_size();
        if sources.is_empty() {
            let mode = Mode::Dp { sets: Vec::new(), of_source: Vec::new() };
            return ReachEngine { view, sources, mode };
        }
        // Cheap bail-out: the DP retains at least one universe-wide
        // bitset, so a budget below that can skip the condensation the
        // full estimate would need — the fallback must not pay an
        // O(V+E) Tarjan pass just to learn it is the fallback.
        let words = m.div_ceil(64);
        if words * 8 > cfg.budget_bytes {
            span.event("budget-bail-early");
            return ReachEngine { view, sources, mode: Mode::Bfs };
        }
        let cond = {
            let _tarjan = span.child("tarjan");
            Condensation::compute(&view)
        };
        let nc = cond.component_count();

        // Which components feed the sources? Forward reachability over the
        // condensation from the sources' components.
        let mut needed = vec![false; nc];
        let mut stack: Vec<u32> = Vec::new();
        for &s in &sources {
            let c = cond.component_of(s);
            if !needed[c as usize] {
                needed[c as usize] = true;
                stack.push(c);
            }
        }
        while let Some(c) = stack.pop() {
            for &sc in cond.comp_successors(c) {
                if !needed[sc as usize] {
                    needed[sc as usize] = true;
                    stack.push(sc);
                }
            }
        }
        let needed_count = needed.iter().filter(|&&n| n).count();

        // Sources grouped by component; trivial source components retain
        // one extra bitset (their strict set excludes their own member).
        let mut has_sources = vec![false; nc];
        let mut trivial_src = 0usize;
        for &s in &sources {
            let c = cond.component_of(s) as usize;
            if !has_sources[c] {
                has_sources[c] = true;
                if !cond.is_nontrivial(c as u32) {
                    trivial_src += 1;
                }
            }
        }

        // Budget check: worst case keeps every needed component's bitset
        // alive, plus the trivial source components' strict sets.
        let estimated = (needed_count + trivial_src).saturating_mul(words * 8);
        if estimated > cfg.budget_bytes {
            span.event("budget-bail-estimate");
            return ReachEngine { view, sources, mode: Mode::Bfs };
        }
        let bitsets_span = span.child("bitsets");

        // Reference counts: how many needed predecessors still want Full(c).
        let mut pending_preds = vec![0u32; nc];
        for c in 0..nc as u32 {
            if !needed[c as usize] {
                continue;
            }
            for &sc in cond.comp_successors(c) {
                pending_preds[sc as usize] += 1;
            }
        }

        let mut full: Vec<Option<BitSet>> = (0..nc).map(|_| None).collect();
        // Retained output sets and, per source component, which one it
        // reads. Childless trivial source components (strict set = ∅)
        // share one empty set and never enter the DP.
        let mut sets: Vec<BitSet> = Vec::new();
        let mut set_of_comp = vec![u32::MAX; nc];
        let mut empty_set: Option<u32> = None;

        // Component ids ascend in reverse topological order: successors
        // first. Retention rule: a component's Full stays alive while a
        // needed predecessor still wants it, or when extraction will read
        // it (nontrivial + contains sources).
        for c in cond.reverse_topological() {
            if !needed[c as usize] {
                continue;
            }
            let nontrivial = cond.is_nontrivial(c);
            let trivial_source = has_sources[c as usize] && !nontrivial;
            let read_by_pred = pending_preds[c as usize] > 0;
            let childless = cond.comp_successors(c).is_empty();
            if trivial_source && childless {
                set_of_comp[c as usize] = *empty_set.get_or_insert_with(|| {
                    sets.push(BitSet::new(m));
                    (sets.len() - 1) as u32
                });
                if !read_by_pred {
                    continue;
                }
            }
            // Union of successors' Full.
            let mut succ_union = BitSet::new(m);
            for &sc in cond.comp_successors(c) {
                let f = full[sc as usize].as_ref().expect("successor processed before predecessor");
                succ_union.union_with(f);
                pending_preds[sc as usize] -= 1;
                if pending_preds[sc as usize] == 0
                    && !(has_sources[sc as usize] && cond.is_nontrivial(sc))
                {
                    full[sc as usize] = None;
                }
            }
            if trivial_source && !childless {
                // Trivial component: strict reachability excludes the pair
                // itself — retain the successor union before members join
                // (handed over, not copied, when nothing reads Full(c)).
                set_of_comp[c as usize] = sets.len() as u32;
                if !read_by_pred {
                    sets.push(succ_union);
                    continue;
                }
                sets.push(succ_union.clone());
            }
            // Full(c) = member data nodes ∪ successor union.
            let mut f = succ_union;
            for &pair in cond.members(c) {
                f.insert(view.universe_pos(pair));
            }
            if read_by_pred || (has_sources[c as usize] && nontrivial) {
                full[c as usize] = Some(f);
            }
        }

        // Per-source extraction table: one retained set per distinct
        // source component, shared by all its sources.
        let mut of_source: Vec<u32> = Vec::with_capacity(sources.len());
        for &s in &sources {
            let c = cond.component_of(s) as usize;
            if set_of_comp[c] == u32::MAX {
                sets.push(full[c].take().expect("retained for extraction"));
                set_of_comp[c] = (sets.len() - 1) as u32;
            }
            of_source.push(set_of_comp[c]);
        }
        if bitsets_span.is_enabled() {
            bitsets_span.detail(format!(
                "components={nc} needed={needed_count} retained_sets={}",
                sets.len()
            ));
        }
        ReachEngine { view, sources, mode: Mode::Dp { sets, of_source } }
    }

    /// `true` when the condensation DP ran; `false` when the memory budget
    /// forced BFS extraction.
    pub fn used_dp(&self) -> bool {
        matches!(self.mode, Mode::Dp { .. })
    }

    /// Count-only phase 2: `|strict-reach set|` of every source. In DP
    /// mode no set is cloned out and sources sharing a component share one
    /// popcount.
    pub fn counts(&self) -> Vec<u64> {
        match &self.mode {
            Mode::Dp { sets, of_source } => {
                let per_set: Vec<u64> = sets.iter().map(|s| s.count() as u64).collect();
                of_source.iter().map(|&i| per_set[i as usize]).collect()
            }
            Mode::Bfs => self.extract_all().iter().map(|s| s.count() as u64).collect(),
        }
    }

    /// Phase 2: the strict-reach set of every source, as fresh bitsets over
    /// the view's universe.
    pub fn extract_all(&self) -> Vec<BitSet> {
        match &self.mode {
            Mode::Dp { sets, of_source } => {
                of_source.iter().map(|&i| sets[i as usize].clone()).collect()
            }
            Mode::Bfs => {
                // The fallback runs exactly when memory is tight, so every
                // source reuses one visited bitset and one queue.
                let mut visited = BitSet::new(self.view.node_count());
                let mut queue = VecDeque::new();
                self.sources.iter().map(|&s| self.bfs_from(s, &mut visited, &mut queue)).collect()
            }
        }
    }

    /// Strict reachability from `s` by plain BFS over the pair graph:
    /// seeded with the successors, so `s` itself only enters via a cycle.
    fn bfs_from(&self, s: u32, visited: &mut BitSet, queue: &mut VecDeque<u32>) -> BitSet {
        let view = &self.view;
        let mut set = BitSet::new(view.universe_size());
        visited.clear();
        for &w in view.successors_of(s) {
            if visited.insert(w as usize) {
                queue.push_back(w);
            }
        }
        while let Some(p) = queue.pop_front() {
            set.insert(view.universe_pos(p));
            for &w in view.successors_of(p) {
                if visited.insert(w as usize) {
                    queue.push_back(w);
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use gpm_simulation::{compute_simulation, MatchGraph};

    /// Every source's strict-reach set under `cfg`.
    fn sets(mg: &MatchGraph, sources: &[u32], cfg: &ReachConfig) -> Vec<BitSet> {
        ReachEngine::prepare(mg, sources.to_vec(), cfg).extract_all()
    }

    /// A budget that forces the BFS fallback.
    fn starved() -> ReachConfig {
        ReachConfig { budget_bytes: 0, ..ReachConfig::default() }
    }

    /// Chain a→b→c with an extra b: R((A,0)) should be {1,2}, etc.
    #[test]
    fn dp_and_bfs_agree() {
        let g =
            graph_from_parts(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (0, 3), (3, 2), (4, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        let sources: Vec<u32> = (0..mg.len() as u32).collect();
        let dp = sets(&mg, &sources, &ReachConfig::default());
        let bfs = sets(&mg, &sources, &starved());
        assert_eq!(dp.len(), bfs.len());
        for (a, b) in dp.iter().zip(&bfs) {
            assert_eq!(a, b);
        }
    }

    /// The two-phase engine reports its mode; both modes extract the same
    /// set per source.
    #[test]
    fn engine_modes_agree_on_every_source() {
        let g =
            graph_from_parts(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (0, 3), (3, 2), (4, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        let sources: Vec<u32> = (0..mg.len() as u32).collect();
        let dp = ReachEngine::prepare(&mg, sources.clone(), &ReachConfig::default());
        assert!(dp.used_dp());
        let bfs = ReachEngine::prepare(&mg, sources.clone(), &starved());
        assert!(!bfs.used_dp());
        assert_eq!(dp.extract_all().len(), sources.len());
        assert_eq!(dp.extract_all(), bfs.extract_all());
        assert_eq!(dp.counts(), bfs.counts());
        // Repeated extraction is legal (read-only phase 2).
        assert_eq!(bfs.extract_all(), bfs.extract_all());
    }

    /// On a cycle, a pair reaches itself (strictness via nonempty path).
    #[test]
    fn cycle_includes_self() {
        let g = graph_from_parts(&[0, 1], &[(0, 1), (1, 0)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        let sources: Vec<u32> = (0..mg.len() as u32).collect();
        for cfg in [ReachConfig::default(), starved()] {
            let sets = sets(&mg, &sources, &cfg);
            for s in &sets {
                assert_eq!(s.count(), 2, "both data nodes reachable, incl. self");
            }
        }
    }

    /// DAG: a leaf pair has an empty strict-reachability set.
    #[test]
    fn dag_leaf_empty() {
        let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        let leaf = mg.compact_of(sim.space().pair_id(1, 1).unwrap()).unwrap();
        let root = mg.compact_of(sim.space().pair_id(0, 0).unwrap()).unwrap();
        let engine = ReachEngine::prepare(&mg, vec![leaf, root], &ReachConfig::default());
        let sets = engine.extract_all();
        assert!(sets[0].is_empty());
        assert_eq!(sets[1].count(), 1);
        assert_eq!(engine.counts(), vec![0, 1]);
    }

    #[test]
    fn empty_sources() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0], &[], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        assert!(sets(&mg, &[], &ReachConfig::default()).is_empty());
    }

    /// Tracing surfaces the DP sub-phases and the budget-fallback
    /// decision without changing results.
    #[test]
    fn prepare_traced_reports_phases_and_fallbacks() {
        use gpm_telemetry::Telemetry;
        let g =
            graph_from_parts(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (0, 3), (3, 2), (4, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        let sources: Vec<u32> = (0..mg.len() as u32).collect();
        let t = Telemetry::on();

        let root = t.root_span("prepare");
        let dp = ReachEngine::prepare_traced(&mg, sources.clone(), &ReachConfig::default(), &root);
        assert!(dp.used_dp());
        let trace = t.finish_batch(root, 0).expect("enabled");
        assert_eq!(trace.spans_named("tarjan").count(), 1);
        let bitsets = trace.spans_named("bitsets").next().expect("bitsets span");
        assert!(bitsets.detail.contains("components="));

        let root = t.root_span("prepare");
        let bfs = ReachEngine::prepare_traced(&mg, sources.clone(), &starved(), &root);
        assert!(!bfs.used_dp());
        let trace = t.finish_batch(root, 1).expect("enabled");
        assert!(trace.spans[0].events.iter().any(|(_, e)| e == "budget-bail-early"));
        assert_eq!(trace.spans_named("tarjan").count(), 0, "early bail skips Tarjan");
        assert_eq!(dp.extract_all(), bfs.extract_all(), "tracing never changes answers");
    }

    /// Shared-node diamond: distinct pairs with the same data node must not
    /// double-count.
    #[test]
    fn diamond_counts_distinct_nodes() {
        // Pattern A→B, A→C, B→D, C→D; data diamond 0→1, 0→2, 1→3, 2→3.
        let g = graph_from_parts(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        let root = mg.compact_of(sim.space().pair_id(0, 0).unwrap()).unwrap();
        let sets = sets(&mg, &[root], &ReachConfig::default());
        // Reaches data nodes 1, 2, 3 — node 3 via two pairs but counted once.
        assert_eq!(sets[0].count(), 3);
    }
}
