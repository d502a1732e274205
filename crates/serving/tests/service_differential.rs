//! Differential proof of the streaming service: **push ≡ pull**.
//!
//! For generated update streams and generated (label- and
//! attribute-predicate) patterns, the sequence of subscription updates
//! must equal the sequence of *static-recompute* answer changes, per
//! pattern, per mode:
//!
//! * an [`AnswerUpdate`] arrives **exactly** for the batches after which
//!   `top_k_by_match` (resp. `top_k_diversified`) on the service's
//!   snapshot differs from its previous value — no missed updates, no
//!   spurious wakeups;
//! * the update's answer equals the static recompute bit-for-bit, its
//!   `seq` names the batch, its `diff` reconciles the previous static
//!   answer with the new one, and versions increase by exactly 1 per
//!   material change;
//! * a **late joiner** built from a mid-stream snapshot and caught up
//!   from the delta log sees the same update stream from its join point
//!   on, and [`query_at`] agrees with the push history at every offset.
//!
//! [`query_at`]: gpm_serving::AnswerService::query_at

use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::result::{AnswerDiff, RankedMatch};
use gpm_core::{top_k_by_match, top_k_diversified};
use gpm_datagen::update_stream::{attr_key, update_stream, UpdateStreamConfig};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{AttrValue, Attributes, DiGraph, GraphBuilder, GraphDelta};
use gpm_incremental::IncrementalConfig;
use gpm_pattern::builder::label_pattern;
use gpm_pattern::{CmpOp, Pattern, PatternBuilder, Predicate};
use gpm_serving::{AnswerService, NotifyMode, ServiceConfig, Subscription};
use gpm_telemetry::names;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const LABELS: u32 = 4;
const ATTR_KEYS: u32 = 3;
const ATTR_VALUES: i64 = 8;

fn random_attr_graph(rng: &mut StdRng, n: usize, density: usize) -> DiGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let label = rng.random_range(0..LABELS);
        if rng.random_range(0..2u32) == 0 {
            let mut pairs: Vec<(String, AttrValue)> = Vec::new();
            for k in 0..ATTR_KEYS {
                if rng.random_range(0..2u32) == 0 {
                    pairs.push((attr_key(k), AttrValue::Int(rng.random_range(0..ATTR_VALUES))));
                }
            }
            b.add_node_with_attrs(label, Attributes::from_pairs(pairs));
        } else {
            b.add_node(label);
        }
    }
    let m = rng.random_range(0..n * density + 1);
    for _ in 0..m {
        let s = rng.random_range(0..n as u32);
        let t = rng.random_range(0..n as u32);
        if s != t {
            b.add_edge(s, t).unwrap();
        }
    }
    b.build()
}

fn random_attr_condition(rng: &mut StdRng) -> Predicate {
    let key = attr_key(rng.random_range(0..ATTR_KEYS));
    let op = match rng.random_range(0..4u32) {
        0 => CmpOp::Ge,
        1 => CmpOp::Lt,
        2 => CmpOp::Eq,
        _ => CmpOp::Ne,
    };
    Predicate::attr(key, op, rng.random_range(0..ATTR_VALUES))
}

/// A random pattern; ~half the nodes carry attribute conditions.
fn random_pattern(rng: &mut StdRng) -> Pattern {
    let pn = rng.random_range(1..4usize);
    if rng.random_range(0..2u32) == 0 {
        let plabels: Vec<u32> = (0..pn).map(|_| rng.random_range(0..LABELS)).collect();
        let pedges: Vec<(u32, u32)> = (1..pn as u32).map(|i| (i - 1, i)).collect();
        return label_pattern(&plabels, &pedges, 0).unwrap();
    }
    let mut b = PatternBuilder::new();
    for i in 0..pn {
        let label = rng.random_range(0..LABELS);
        let pred = match rng.random_range(0..3u32) {
            0 => Predicate::Label(label),
            1 => Predicate::labeled(label, [random_attr_condition(rng)]),
            _ => Predicate::labeled(
                label,
                [Predicate::Or(vec![random_attr_condition(rng), random_attr_condition(rng)])],
            ),
        };
        b.node(format!("u{i}"), pred);
    }
    for i in 1..pn as u32 {
        b.edge(i - 1, i).unwrap();
    }
    b.output(0).unwrap();
    b.build().unwrap()
}

/// One subscribed pattern plus the pull-side oracle state.
struct Tracked {
    q: Pattern,
    k: usize,
    lambda: f64,
    sub: Subscription,
    /// Last static answer for this subscription's mode.
    prev: Vec<RankedMatch>,
    /// Last seen update version.
    version: u64,
}

impl Tracked {
    /// The static recompute of this subscription's view on `snap`.
    fn static_answer(&self, snap: &DiGraph) -> Vec<RankedMatch> {
        match self.sub.mode() {
            NotifyMode::Relevance => {
                top_k_by_match(snap, &self.q, &TopKConfig::new(self.k)).matches
            }
            NotifyMode::Diversified => {
                top_k_diversified(snap, &self.q, &DivConfig::new(self.k, self.lambda)).matches
            }
        }
    }

    /// After one ingested batch: demand exactly-one update iff the static
    /// answer changed, and that its payload matches the static recompute.
    fn check_step(&mut self, snap: &DiGraph, seq: u64, ctx: &str) {
        let fresh = self.static_answer(snap);
        if fresh == self.prev {
            assert!(
                self.sub.try_recv().is_none(),
                "spurious wakeup: static answer unchanged ({ctx})"
            );
            return;
        }
        let update = self
            .sub
            .try_recv()
            .unwrap_or_else(|| panic!("missed update: static answer changed ({ctx})"));
        assert_eq!(update.topk, fresh, "pushed answer != static recompute ({ctx})");
        assert_eq!(update.seq, seq, "update mislabeled ({ctx})");
        assert_eq!(update.diff, AnswerDiff::between(&self.prev, &fresh), "diff wrong ({ctx})");
        assert_eq!(update.version, self.version + 1, "version not ++ ({ctx})");
        assert!(self.sub.try_recv().is_none(), "more than one update per batch ({ctx})");
        self.version = update.version;
        self.prev = fresh;
    }
}

fn subscribe_all(
    svc: &mut AnswerService,
    patterns: &[(Pattern, usize, f64)],
    snap: &DiGraph,
    cfg: fn(usize) -> IncrementalConfig,
) -> Vec<Tracked> {
    let mut tracked = Vec::new();
    for (i, (q, k, lambda)) in patterns.iter().enumerate() {
        let mode = if i % 2 == 0 { NotifyMode::Relevance } else { NotifyMode::Diversified };
        let sub = svc.subscribe(q.clone(), cfg(*k).lambda(*lambda), mode).unwrap();
        let mut t =
            Tracked { q: q.clone(), k: *k, lambda: *lambda, sub, prev: Vec::new(), version: 0 };
        // The bootstrap update carries the consistent initial answer.
        let initial = t.sub.try_recv().expect("initial snapshot queued");
        assert_eq!(initial.topk, t.static_answer(snap), "initial answer != static (pattern {i})");
        assert!(initial.diff.left.is_empty() && initial.diff.reordered.is_empty());
        t.prev = initial.topk.clone();
        t.version = initial.version;
        tracked.push(t);
    }
    tracked
}

fn stream_cfg(
    rng: &mut StdRng,
    insert_fraction: f64,
    node_churn: f64,
    attr_churn: f64,
    seed: u64,
) -> UpdateStreamConfig {
    UpdateStreamConfig {
        batches: rng.random_range(4..8usize),
        batch_size: rng.random_range(1..6usize),
        insert_fraction,
        node_churn,
        attr_churn,
        attr_keys: ATTR_KEYS,
        attr_values: ATTR_VALUES,
        labels: LABELS,
        seed,
    }
}

/// Every threshold maxed: no wholesale rebuild re-derives the cached
/// sets together, so the ones a batch leaves clean keep the width they
/// were built at.
fn forced(k: usize) -> IncrementalConfig {
    let mut cfg = IncrementalConfig::new(k);
    cfg.max_dirty_fraction = f64::INFINITY;
    cfg.max_cond_churn_fraction = f64::INFINITY;
    cfg
}

/// `delta` plus `grow` appended nodes of random labels, every eighth one
/// wired under a random node of the base graph (ids `0..n0`) so it joins
/// relevant sets. `next` is the id the graph hands out next.
fn with_growth(
    rng: &mut StdRng,
    delta: &GraphDelta,
    grow: usize,
    n0: u32,
    next: &mut u32,
) -> GraphDelta {
    let mut delta = delta.clone();
    for j in 0..grow {
        delta = delta.add_node(rng.random_range(0..LABELS));
        if j % 8 == 0 {
            delta = delta.add_edge(rng.random_range(0..n0), *next);
        }
        *next += 1;
    }
    delta
}

/// The core trial: generated graph + patterns + stream, push checked
/// against pull after every batch. `grow > 0` appends that many nodes to
/// every batch (the stream itself must then add none: its ids assume it
/// is the only writer) under [`forced`] maintenance, so a diversified
/// answer compares sets cached before a growth step with sets cached
/// after it.
fn run_trials(spec: (f64, f64, f64), grow: usize, seed: u64, trials: usize) {
    let (insert_fraction, node_churn, attr_churn) = spec;
    assert!(grow == 0 || node_churn == 0.0, "growth owns the new node ids");
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let n = rng.random_range(8..26usize);
        let g = random_attr_graph(&mut rng, n, 3);
        let mut svc = AnswerService::new(&g, ServiceConfig::default());
        let patterns: Vec<(Pattern, usize, f64)> = (0..rng.random_range(2..5usize))
            .map(|_| {
                (random_pattern(&mut rng), rng.random_range(1..5usize), rng.random_range(0.0..1.0))
            })
            .collect();
        let cfg_of = if grow > 0 { forced } else { IncrementalConfig::new };
        let mut tracked = subscribe_all(&mut svc, &patterns, &g, cfg_of);

        let cfg = stream_cfg(
            &mut rng,
            insert_fraction,
            node_churn,
            attr_churn,
            seed ^ (trial as u64) << 9,
        );
        let mut next = n as u32;
        for delta in update_stream(&g, &cfg).iter() {
            let delta = with_growth(&mut rng, delta, grow, n as u32, &mut next);
            let report = svc.ingest(&delta).unwrap();
            let snap = svc.registry().snapshot();
            for (i, t) in tracked.iter_mut().enumerate() {
                let ctx = format!("trial {trial} seq {} pattern {i}", report.seq);
                t.check_step(&snap, report.seq, &ctx);
            }
        }
        if grow > 0 {
            // Nothing re-derived the cache wholesale, and every
            // re-condensation is one a policy fallback explains — growth
            // of the id space is not a reason.
            let stats: Vec<_> =
                tracked.iter().map(|t| svc.registry().stats_of(t.sub.pattern()).unwrap()).collect();
            assert!(stats.iter().all(|s| s.full_rank_refreshes == 0));
            let events = |name| {
                svc.telemetry()
                    .metrics()
                    .counter_with(names::EVENTS_TOTAL, &[("event", name)])
                    .get()
            };
            assert_eq!(
                stats.iter().map(|s| s.cond_rebuilds).sum::<u64>(),
                events("cond-probe-fallback") + events("cond-region-fallback"),
                "trial {trial}: a re-condensation no fallback accounts for"
            );
        }
        // Only a diversified answer asks for pairwise distances: a pattern
        // with Relevance subscribers alone keeps no δd table.
        for t in tracked.iter().filter(|t| t.sub.mode() == NotifyMode::Relevance) {
            let info = svc.registry().pattern_info(t.sub.pattern()).unwrap();
            assert_eq!(info.distance_bytes, 0, "trial {trial}: relevance-only table");
        }
        // Suppression really happened somewhere across the run (the
        // service is not just forwarding every touch).
        let s = svc.stats();
        assert_eq!(s.batches, cfg.batches as u64);
        assert_eq!(s.updates_coalesced, 0, "default queues never overflow here");
    }
}

#[test]
fn mixed_streams_push_equals_pull() {
    run_trials((0.55, 0.15, 0.0), 0, 0x5E4_0001, 10);
}

#[test]
fn attr_mixed_streams_push_equals_pull() {
    run_trials((0.55, 0.15, 0.45), 0, 0x5E4_0002, 10);
}

#[test]
fn attr_only_streams_push_equals_pull() {
    run_trials((0.55, 0.0, 1.0), 0, 0x5E4_0003, 8);
}

#[test]
fn delete_only_streams_push_equals_pull() {
    run_trials((0.0, 0.15, 0.0), 0, 0x5E4_0004, 8);
}

/// Attribute churn and edge churn while every batch appends 130 nodes:
/// the id space passes 512 within four batches, and diversified answers
/// keep equalling the static recompute, ties included.
#[test]
fn growing_attr_streams_push_equals_pull() {
    run_trials((0.55, 0.0, 0.45), 130, 0x5E4_0005, 8);
}

/// Stress variant for the nightly CI job.
#[test]
#[ignore = "stress variant — run explicitly or via the nightly CI job"]
fn stress_push_equals_pull() {
    run_trials((0.55, 0.15, 0.0), 0, 0x5E4_5001, 50);
    run_trials((0.55, 0.15, 0.45), 0, 0x5E4_5002, 50);
    run_trials((0.0, 0.2, 0.3), 0, 0x5E4_5003, 30);
    run_trials((0.55, 0.0, 0.45), 130, 0x5E4_5004, 30);
}

/// As [`subscribe_all`], but anchoring each subscription to the live
/// service's current [`gpm_serving::VersionedAnswer`] — the baseline
/// handoff a late joiner rides so its `query_at` bookkeeping (change-point
/// seqs and versions) matches the from-zero service exactly, not just its
/// answers.
fn subscribe_all_with_baselines(
    joiner: &mut AnswerService,
    live: &AnswerService,
    patterns: &[(Pattern, usize, f64)],
    snap: &DiGraph,
) -> Vec<Tracked> {
    let mut tracked = Vec::new();
    for (i, (q, k, lambda)) in patterns.iter().enumerate() {
        let mode = if i % 2 == 0 { NotifyMode::Relevance } else { NotifyMode::Diversified };
        // Registration order aligns the two services' pattern ids.
        let live_id = live.registry().pattern_ids()[i];
        let baseline = live.current(live_id).unwrap();
        let sub = joiner
            .subscribe_with_baseline(
                q.clone(),
                IncrementalConfig::new(*k).lambda(*lambda),
                mode,
                baseline,
            )
            .unwrap();
        let mut t =
            Tracked { q: q.clone(), k: *k, lambda: *lambda, sub, prev: Vec::new(), version: 0 };
        let initial = t.sub.try_recv().expect("initial snapshot queued");
        assert_eq!(initial.topk, t.static_answer(snap), "initial answer != static (pattern {i})");
        t.prev = initial.topk.clone();
        t.version = initial.version;
        tracked.push(t);
    }
    tracked
}

/// Late joiner: a service built from a mid-stream snapshot at offset `S`
/// and caught up from the live service's delta log must (a) bootstrap
/// with the answers the live service holds at its join point and (b)
/// receive the *same* update stream from there on — same seqs, answers
/// and diffs, with versions advancing in lockstep.
#[test]
fn late_join_replays_from_midstream_offset() {
    let mut rng = StdRng::seed_from_u64(0x5E4_0010);
    for trial in 0..6 {
        let n = rng.random_range(10..24usize);
        let g = random_attr_graph(&mut rng, n, 3);
        let mut svc = AnswerService::new(&g, ServiceConfig::default());
        let patterns: Vec<(Pattern, usize, f64)> = (0..3)
            .map(|_| {
                (random_pattern(&mut rng), rng.random_range(1..4usize), rng.random_range(0.0..1.0))
            })
            .collect();
        let mut tracked = subscribe_all(&mut svc, &patterns, &g, IncrementalConfig::new);

        let cfg = stream_cfg(&mut rng, 0.55, 0.15, 0.3, 0xA11 + trial);
        let stream = update_stream(&g, &cfg);
        let join_at = stream.len() / 2;

        // Live service consumes the prefix.
        for delta in &stream[..join_at] {
            let report = svc.ingest(delta).unwrap();
            let snap = svc.registry().snapshot();
            for t in tracked.iter_mut() {
                t.check_step(&snap, report.seq, "prefix");
            }
        }

        // The joiner anchors at the live snapshot + offset and re-subscribes
        // with the live service's versioned answers as baselines, so its
        // change-point bookkeeping starts at the true log offsets.
        let join_seq = svc.seq();
        let snap = svc.registry().snapshot();
        let mut joiner = AnswerService::at_offset(&snap, join_seq, ServiceConfig::default());
        let mut joined = subscribe_all_with_baselines(&mut joiner, &svc, &patterns, &snap);
        for (t, j) in tracked.iter().zip(&joined) {
            assert_eq!(t.prev, j.prev, "joiner bootstrapped a different answer");
        }

        // Suffix: the live service ingests; the joiner catches up from its
        // log after every batch and must see the identical update stream.
        for delta in &stream[join_at..] {
            let report = svc.ingest(delta).unwrap();
            let replayed = joiner.catch_up(svc.log()).unwrap();
            assert_eq!(replayed, 1, "one new entry per batch");
            assert_eq!(joiner.seq(), svc.seq());
            let snap = svc.registry().snapshot();
            let jsnap = joiner.registry().snapshot();
            assert_eq!(snap.node_count(), jsnap.node_count());
            assert_eq!(snap.edge_count(), jsnap.edge_count());
            for (i, (t, j)) in tracked.iter_mut().zip(joined.iter_mut()).enumerate() {
                let ctx = format!("late-join trial {trial} seq {} pattern {i}", report.seq);
                let before_t = t.version;
                let before_j = j.version;
                t.check_step(&snap, report.seq, &ctx);
                j.check_step(&jsnap, report.seq, &ctx);
                assert_eq!(t.prev, j.prev, "answers diverged ({ctx})");
                assert_eq!(
                    t.version - before_t,
                    j.version - before_j,
                    "versions advanced differently ({ctx})"
                );
            }
        }

        // Pull-side agreement at every servable offset of the suffix —
        // **exact** agreement: the baseline handoff anchors the joiner's
        // change points to the log's true sequence numbers, so `seq` and
        // `version` match the from-zero bookkeeping too (the PR-4 wart:
        // a fresh mid-stream subscribe would re-anchor at `join_seq`).
        for (t, j) in tracked.iter().zip(&joined) {
            for seq in join_seq..=svc.seq() {
                let a = svc.query_at(t.sub.pattern(), seq).expect("live serves the suffix");
                let b = joiner.query_at(j.sub.pattern(), seq).expect("joiner serves the suffix");
                assert_eq!(a, b, "query_at({seq}) bookkeeping diverged");
            }
        }
    }
}

/// The baseline handoff is validated: a baseline that does not describe
/// the joiner's graph (stale snapshot) is rejected and the registration
/// rolled back, leaving the service untouched.
#[test]
fn stale_baseline_is_rejected() {
    let g = graph_from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut live = AnswerService::new(&g, ServiceConfig::default());
    let sub = live.subscribe(q.clone(), IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();
    let baseline = live.current(sub.pattern()).unwrap();
    live.ingest(&gpm_graph::GraphDelta::new().remove_edge(0, 2)).unwrap();

    // Joiner at the *new* head with the *old* baseline: mismatch.
    let mut joiner =
        AnswerService::at_offset(&live.registry().snapshot(), live.seq(), ServiceConfig::default());
    let err = joiner
        .subscribe_with_baseline(
            q.clone(),
            IncrementalConfig::new(3),
            NotifyMode::Relevance,
            baseline,
        )
        .err()
        .expect("stale baseline must be rejected");
    assert!(matches!(err, gpm_serving::ServingError::BaselineMismatch(_)), "{err}");
    assert_eq!(joiner.subscriptions(), 0);
    assert!(joiner.registry().is_empty(), "rolled back");

    // A future-dated baseline is rejected up front.
    let fresh = live.current(sub.pattern()).unwrap();
    let mut future = fresh.clone();
    future.seq = live.seq() + 7;
    let err = joiner
        .subscribe_with_baseline(
            q.clone(),
            IncrementalConfig::new(3),
            NotifyMode::Relevance,
            future,
        )
        .err()
        .expect("future baseline must be rejected");
    assert!(matches!(err, gpm_serving::ServingError::OffsetInFuture { .. }), "{err}");

    // The current baseline goes through, and query_at agrees exactly.
    let jsub = joiner
        .subscribe_with_baseline(q, IncrementalConfig::new(3), NotifyMode::Relevance, fresh)
        .unwrap();
    for seq in live.seq().min(joiner.seq())..=live.seq() {
        assert_eq!(
            live.query_at(sub.pattern(), seq).unwrap(),
            joiner.query_at(jsub.pattern(), seq).unwrap(),
        );
    }
}

/// Sanity for the stream-independent pieces the trials lean on: an empty
/// graph and an empty pattern set are serveable, and rejected deltas
/// change nothing.
#[test]
fn rejected_deltas_leave_the_service_unchanged() {
    let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc
        .subscribe(
            label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(),
            IncrementalConfig::new(2),
            NotifyMode::Relevance,
        )
        .unwrap();
    let initial = sub.try_recv().unwrap();
    assert_eq!(initial.topk_nodes(), vec![0]);

    let bad = gpm_graph::GraphDelta::new().add_edge(0, 99);
    assert!(svc.ingest(&bad).is_err());
    assert_eq!(svc.seq(), 0, "rejected batches get no sequence number");
    assert!(svc.log().is_empty(), "rejected batches are not logged");
    assert!(sub.try_recv().is_none());
    assert_eq!(svc.stats().batches, 0);
}
