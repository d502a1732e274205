//! `static_paper` — the reproduction itself: Match, TopK, TopKnopt,
//! TopKDiv and TopKDH over a verified pattern suite on the YouTube*
//! emulator. An op is one call of one algorithm on one pattern.
//!
//! `core::engine` is ~80 % of the time, `simulation` + `ranking` the rest;
//! `incremental`, `serving` and `telemetry` do nothing here, so a change
//! to those layers is predicted to move no number of this workload.

use std::time::Instant;

use gpm_bench::workloads::{div_patterns_for, Settings};
use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::match_all::compute_match_outcome;
use gpm_core::{
    greedy_diversified, rank_top_k, top_k, top_k_by_match, top_k_diversified,
    top_k_diversified_heuristic, DivResult, TopKResult,
};
use gpm_datagen::datasets::{youtube_like, Scale};
use gpm_datagen::patterns::{CYCLIC_SIZES, DAG_SIZES};
use gpm_graph::{Attributes, DiGraph, GraphBuilder};
use gpm_pattern::{Pattern, PatternBuilder};
use gpm_ranking::objective::Objective;
use gpm_ranking::relevant_set::RelevantSets;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::layer_twins::LayerTwins;
use super::{dataset_seed, K, LAMBDA};
use crate::args::{RunArgs, NOMINAL_SECONDS};
use crate::digest::Digest;
use crate::estimator::{summarize, timed_passes};
use crate::host;
use crate::measure::{measure, Ticker};
use crate::report::{Metrics, Outcome};
use crate::spans::SpanLog;

/// Patterns extracted per `(|Vp|, |Ep|)` size.
const REPS: usize = 3;

pub const SIZES: &str = "graph=youtube_like(Scale::Medium) 80498 nodes; suite=3 verified patterns \
    per size of CYCLIC_SIZES+DAG_SIZES (27), attr selectivity 0.6, min |Mu| 60, |Mu|<=4000; \
    op=one of Match/TopK/TopKnopt/TopKDiv/TopKDH on one pattern (135 ops)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Match,
    TopK,
    TopKnopt,
    TopKDiv,
    TopKDH,
}

const ALGOS: [Algo; 5] = [Algo::Match, Algo::TopK, Algo::TopKnopt, Algo::TopKDiv, Algo::TopKDH];

impl Algo {
    fn span(self) -> &'static str {
        match self {
            Algo::Match => "core.top_k_by_match",
            Algo::TopK => "core.top_k",
            Algo::TopKnopt => "core.top_k_nopt",
            Algo::TopKDiv => "core.top_k_diversified",
            Algo::TopKDH => "core.top_k_diversified_heuristic",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    pattern: usize,
    algo: Algo,
}

/// Everything a run feeds the system: the dataset image, its attribute
/// table, the suite and the seeded query order.
struct Inputs {
    image: Vec<u8>,
    attrs: Vec<Attributes>,
    suite: Vec<Pattern>,
    ops: Vec<Op>,
    nopt_seed: u64,
    digest: String,
    graph_gen_s: f64,
    pattern_gen_s: f64,
}

fn generate(dataset_seed: u64, seed: u64) -> Inputs {
    let t = Instant::now();
    let g = youtube_like(Scale::Medium, dataset_seed);
    let image = gpm_graph::io::to_bytes(&g).to_vec();
    let attrs: Vec<Attributes> =
        g.nodes().map(|v| g.attributes(v).cloned().unwrap_or_default()).collect();
    let graph_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut settings = Settings::new(Scale::Medium);
    settings.seed = dataset_seed;
    settings.reps = REPS;
    settings.k = K;
    let mut suite = Vec::new();
    for (size, dag) in
        CYCLIC_SIZES.iter().map(|&s| (s, false)).chain(DAG_SIZES.iter().map(|&s| (s, true)))
    {
        suite.extend(div_patterns_for(&g, size, dag, &settings));
    }
    let pattern_gen_s = t.elapsed().as_secs_f64();

    // The traffic: every (pattern, algorithm) pair once, in a seeded order.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<Op> = (0..suite.len())
        .flat_map(|pattern| ALGOS.into_iter().map(move |algo| Op { pattern, algo }))
        .collect();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.random_range(0..i + 1));
    }
    let nopt_seed = rng.random_range(0..u64::MAX);

    let mut d = Digest::new();
    d.bytes(&image).debug(&attrs);
    for q in &suite {
        d.u64(q.output() as u64).debug(&q.edges().collect::<Vec<_>>());
        for u in q.nodes() {
            d.debug(q.predicate(u));
        }
    }
    for op in &ops {
        d.u64(op.pattern as u64).u64(op.algo as u64);
    }
    d.u64(nopt_seed);
    Inputs { image, attrs, suite, ops, nopt_seed, digest: d.hex(), graph_gen_s, pattern_gen_s }
}

/// The system under test of one pass: the loaded graph and built suite.
struct System {
    g: DiGraph,
    suite: Vec<Pattern>,
}

/// Set-up as a user pays it: decode the dataset image, re-attach the
/// attribute table (the binary snapshot carries topology and labels only)
/// and build every suite pattern through `PatternBuilder`.
fn set_up(inputs: &Inputs) -> Result<System, String> {
    let topo = gpm_graph::io::from_bytes(&inputs.image).map_err(|e| e.to_string())?;
    let mut b = GraphBuilder::with_capacity(topo.node_count(), topo.edge_count());
    for v in topo.nodes() {
        b.add_node_with_attrs(topo.label(v), inputs.attrs[v as usize].clone());
    }
    for e in topo.edges() {
        b.add_edge(e.source, e.target).map_err(|e| e.to_string())?;
    }
    let suite = inputs.suite.iter().map(rebuild).collect::<Result<_, _>>()?;
    Ok(System { g: b.build(), suite })
}

fn rebuild(spec: &Pattern) -> Result<Pattern, String> {
    let mut b = PatternBuilder::new();
    for u in spec.nodes() {
        b.node(spec.name(u).to_string(), spec.predicate(u).clone());
    }
    for (s, t) in spec.edges() {
        b.edge(s, t).map_err(|e| e.to_string())?;
    }
    b.output(spec.output()).map_err(|e| e.to_string())?;
    b.build().map_err(|e| e.to_string())
}

fn topk_config() -> TopKConfig {
    let mut cfg = TopKConfig::new(K);
    cfg.reach.threads = 1;
    cfg
}

fn div_config() -> DivConfig {
    DivConfig { topk: topk_config(), lambda: LAMBDA }
}

/// What an op answered, kept from the last timed pass for the oracle.
#[derive(Debug, Clone)]
enum Answer {
    TopK(TopKResult),
    Div(DivResult),
}

fn call(sys: &System, op: Op, nopt_seed: u64) -> Answer {
    let q = &sys.suite[op.pattern];
    match op.algo {
        Algo::Match => Answer::TopK(top_k_by_match(&sys.g, q, &topk_config())),
        Algo::TopK => Answer::TopK(top_k(&sys.g, q, &topk_config())),
        Algo::TopKnopt => Answer::TopK(top_k(&sys.g, q, &topk_config().nopt(nopt_seed))),
        Algo::TopKDiv => Answer::Div(top_k_diversified(&sys.g, q, &div_config())),
        Algo::TopKDH => Answer::Div(top_k_diversified_heuristic(&sys.g, q, &div_config())),
    }
}

/// One pass over the fixed op sequence: per-op nanoseconds and answers.
fn pass(sys: &System, inputs: &Inputs, ticker: &mut Ticker) -> (Vec<u64>, Vec<Answer>) {
    let mut ns = Vec::with_capacity(inputs.ops.len());
    let mut answers = Vec::with_capacity(inputs.ops.len());
    for (i, &op) in inputs.ops.iter().enumerate() {
        let t0 = Instant::now();
        let answer = std::hint::black_box(call(sys, op, inputs.nopt_seed));
        ns.push(t0.elapsed().as_nanos() as u64);
        answers.push(answer);
        ticker.after_op(i);
    }
    (ns, answers)
}

/// The oracle's verdict over one pass's answers.
struct Verdict {
    checks: u64,
    failed: u64,
    /// Σ F(TopKDH) ÷ Σ F(TopKDiv) over the suite.
    dh_f_ratio: f64,
    match_ratio: f64,
    match_ratio_nopt: f64,
    early_terminated_share: f64,
}

/// TopK / TopKnopt total relevance must equal Match's, and every TopKDiv /
/// TopKDH answer is re-scored by `Objective` over independently computed
/// relevant sets.
fn verify(sys: &System, inputs: &Inputs, answers: &[Answer]) -> Verdict {
    let mut v = Verdict {
        checks: 0,
        failed: 0,
        dh_f_ratio: 0.0,
        match_ratio: 0.0,
        match_ratio_nopt: 0.0,
        early_terminated_share: 0.0,
    };
    let (mut f_div, mut f_dh) = (0.0f64, 0.0f64);
    let mut early = 0usize;
    for (p, q) in sys.suite.iter().enumerate() {
        let outcome = compute_match_outcome(&sys.g, q, &topk_config().reach);
        let rs = &outcome.relevant;
        let oracle = rank_top_k((0..rs.len()).map(|i| (rs.matches()[i], rs.relevance(i))), K);
        let oracle_total: u64 = oracle.iter().map(|m| m.relevance).sum();
        let objective = Objective::for_pattern(LAMBDA, K, q, outcome.sim.space());
        let total = rs.len().max(1);
        for (op, answer) in inputs.ops.iter().zip(answers).filter(|(op, _)| op.pattern == p) {
            v.checks += 1;
            let ok = match (op.algo, answer) {
                (Algo::Match, Answer::TopK(r)) => r.matches == oracle,
                (Algo::TopK, Answer::TopK(r)) => {
                    v.match_ratio += r.stats.match_ratio(total);
                    early += usize::from(r.stats.early_terminated);
                    r.total_relevance() == oracle_total
                }
                (Algo::TopKnopt, Answer::TopK(r)) => {
                    v.match_ratio_nopt += r.stats.match_ratio(total);
                    r.total_relevance() == oracle_total
                }
                (Algo::TopKDiv | Algo::TopKDH, Answer::Div(r)) => {
                    let rescored = rescore(&objective, rs, r);
                    if op.algo == Algo::TopKDiv {
                        f_div += r.f_value;
                    } else {
                        f_dh += r.f_value;
                    }
                    rescored.is_some_and(|f| (f - r.f_value).abs() <= 1e-9 * f.abs().max(1.0))
                }
                _ => false,
            };
            if !ok {
                v.failed += 1;
                eprintln!("oracle: {:?} on pattern {p} disagrees", op.algo);
            }
        }
    }
    let n = sys.suite.len().max(1) as f64;
    v.dh_f_ratio = if f_div > 0.0 { f_dh / f_div } else { 0.0 };
    v.match_ratio /= n;
    v.match_ratio_nopt /= n;
    v.early_terminated_share = early as f64 / n;
    v
}

/// `F(S)` of a diversified answer from the oracle's relevant sets; `None`
/// when the answer names a node that is not an output match.
fn rescore(objective: &Objective, rs: &RelevantSets, r: &DivResult) -> Option<f64> {
    let idx: Vec<usize> = r.matches.iter().map(|m| rs.index_of(m.node)).collect::<Option<_>>()?;
    let rel: Vec<f64> = idx.iter().map(|&i| rs.relevance(i) as f64).collect();
    Some(objective.f_score(&rel, |a, b| rs.distance(idx[a], idx[b])))
}

pub fn run(args: &RunArgs) -> Outcome {
    let wall = Instant::now();
    let calib_start = host::calib_ms();
    let inputs = generate(dataset_seed(args.dataset), args.seed);
    let n_ops = inputs.ops.len();
    println!(
        "# input_digest={} patterns={} ops={n_ops} nopt_seed={}",
        inputs.digest,
        inputs.suite.len(),
        inputs.nopt_seed
    );
    let tail_pct = args.workload.tail_pct();
    let rss_reset = host::reset_peak_rss();

    // The traced run takes its plain baseline from two passes, like the
    // stream workloads' traced runs; only the untraced run is compared.
    let plan = if args.trace {
        (2, 0)
    } else {
        let nominal = args.workload.nominal_passes();
        (timed_passes(nominal, args.seconds, NOMINAL_SECONDS), args.workload.extra_builds())
    };
    let m = measure(
        args.workload,
        plan,
        n_ops,
        || set_up(&inputs).expect("dataset image decodes"),
        |sys, ticker| pass(sys, &inputs, ticker),
    );
    let (sys, times) = (&m.system, &m.times);
    let verdict = verify(sys, &inputs, &m.out);
    let mut attempted = m.ops_attempted() + verdict.checks;
    let mut failed = verdict.failed;
    if !args.trace {
        let metrics = m.end_to_end(tail_pct, (verdict.dh_f_ratio, sys.suite.len()), rss_reset);
        return Outcome { attempted, failed, metrics };
    }

    // The traced run reports per-layer metrics only.
    let mut metrics = Metrics::new();
    println!("# baseline passes=1+{} {}", times.passes(), m.host.line());
    m.host.record(&mut metrics);
    let (traced_ns, trace_written) = traced_pass(sys, &inputs, &mut metrics);
    attempted += 1;
    failed += u64::from(!trace_written);
    metrics.set("core.match_ratio", verdict.match_ratio, sys.suite.len());
    metrics.set("core.match_ratio_nopt", verdict.match_ratio_nopt, sys.suite.len());
    metrics.set("core.early_terminated_share", verdict.early_terminated_share, sys.suite.len());
    metrics.set("datagen.graph_gen_s", inputs.graph_gen_s, 1);
    metrics.set("datagen.pattern_gen_s", inputs.pattern_gen_s, 1);
    let calib_end = host::calib_ms();
    println!("# host.calib_ms start={calib_start} end={calib_end}");
    metrics.set("host.calib_ms", (calib_start + calib_end) / 2.0, 2);
    metrics.set("host.pass_spread", times.pass_spread(), n_ops);
    metrics.set("host.setup_cold_s", m.setup_cold_s, 1);
    let plain: u64 = times.minima().iter().sum();
    metrics.set(
        "host.trace_overhead_pct",
        100.0 * (traced_ns.iter().sum::<u64>() as f64 - plain as f64) / plain as f64,
        n_ops,
    );
    let t = summarize(&traced_ns, tail_pct);
    println!(
        "# traced end-to-end (never compared): op_ms_p50={:.4} op_ms_tail={:.4} ops_per_s={:.2}",
        t.p50_ms, t.tail_ms, t.ops_per_s
    );
    metrics.set("host.wall_s", wall.elapsed().as_secs_f64(), 1);
    Outcome { attempted, failed, metrics }
}

/// The traced pass: the same op sequence with a span around every public
/// call, then the layer twins — each suite pattern decomposed through the
/// simulation / ranking / core entry points the algorithms are built from.
/// Returns the traced per-op times and whether the span file was written.
fn traced_pass(sys: &System, inputs: &Inputs, metrics: &mut Metrics) -> (Vec<u64>, bool) {
    let n_ops = inputs.ops.len();
    let n_pat = sys.suite.len();
    let mut log = SpanLog::new();
    let mut by_algo = [0u64; 5];
    let mut traced_ns = Vec::with_capacity(n_ops);
    for (i, &op) in inputs.ops.iter().enumerate() {
        let root = log.open("op", "bench", None, i as u32);
        let (answer, ns) = log
            .time(op.algo.span(), "core", Some(root), i as u32, || call(sys, op, inputs.nopt_seed));
        std::hint::black_box(answer);
        traced_ns.push(log.close(root));
        by_algo[op.algo as usize] += ns;
    }
    let mut layers = LayerTwins::default();
    let (mut rank_ns, mut greedy_ns) = (0u64, 0u64);
    for (p, q) in sys.suite.iter().enumerate() {
        let op = (n_ops + p) as u32;
        let root = log.open("twin", "bench", None, op);
        let (sim, rs) = layers.measure(&mut log, root, op, (&sys.g, q, &topk_config()), true);
        let n = rs.len();
        let (ranked, ns) = log.time("core.rank_top_k", "core", Some(root), op, || {
            rank_top_k((0..n).map(|i| (rs.matches()[i], rs.relevance(i))), K)
        });
        rank_ns += ns;
        std::hint::black_box(ranked.len());
        let objective = Objective::for_pattern(LAMBDA, K, q, sim.space());
        let rel: Vec<f64> = (0..n).map(|i| rs.relevance(i) as f64).collect();
        let (picked, ns) = log.time("core.greedy_diversified", "core", Some(root), op, || {
            greedy_diversified(&objective, &rel, &|i, j| rs.distance(i, j))
        });
        greedy_ns += ns;
        std::hint::black_box(picked.1);
        log.close(root);
    }
    let out = crate::out_dir().join("static_paper.trace.jsonl");
    let written = log.write_jsonl(&out);
    if let Err(e) = &written {
        eprintln!("trace file {}: {e}", out.display());
    }
    log.print_self_times();
    println!("# trace: {} spans -> {}", log.spans().len(), out.display());

    let ms = |ns: u64| ns as f64 / 1e6;
    let of = |algo: Algo| by_algo[algo as usize];
    layers.record(metrics);
    metrics.set("core.match_ms_sum", ms(of(Algo::Match)), n_pat);
    metrics.set("core.topk_ms_sum", ms(of(Algo::TopK)), n_pat);
    metrics.set("core.topknopt_ms_sum", ms(of(Algo::TopKnopt)), n_pat);
    metrics.set("core.topkdiv_ms_sum", ms(of(Algo::TopKDiv)), n_pat);
    metrics.set("core.topkdh_ms_sum", ms(of(Algo::TopKDH)), n_pat);
    metrics.set("core.topk_over_match", of(Algo::TopK) as f64 / of(Algo::Match) as f64, n_pat);
    metrics.set(
        "core.topkdh_over_topkdiv",
        of(Algo::TopKDH) as f64 / of(Algo::TopKDiv) as f64,
        n_pat,
    );
    metrics.set("core.rank_top_k_ms_sum", ms(rank_ns), n_pat);
    metrics.set("core.greedy_div_ms_sum", ms(greedy_ns), n_pat);
    // Match = simulation + relevant sets + ranking; what the twins do not
    // account for (negative when the twins ran colder than the op) is
    // reported, not hidden.
    metrics.set(
        "core.match_unattributed_ms",
        ms(of(Algo::Match)) - ms(layers.match_core_ns() + rank_ns),
        n_pat,
    );
    (traced_ns, written.is_ok())
}
