//! The traced run: per-layer metrics.
//!
//! The workload's generated inputs are replayed with `kpa-trace`
//! switched on, in four phases:
//!
//! 1. the workload over the wire, untraced, for a short window — the
//!    base of `trace.overhead_ratio`;
//! 2. the set-up calls (`catalog::build_system`,
//!    `catalog::build_assignment`, `ModelArtifact::new`), each timed;
//! 3. the workload over the wire again, traced: the program's own
//!    counters over this window give the count and ratio metrics
//!    (counts per operation), and its round trips give `serve.wire_us`;
//! 4. every query item through the public layer functions in process —
//!    `parse_in`, `EvalCtx::compile`, the kind's `EvalCtx` call and
//!    `words_to_value` on one artifact; `json::parse` + `proto::decode`,
//!    `Session::handle` and `to_json` on a fresh session — each call
//!    timed from this file and recorded as a span.
//!
//! A layer a workload never enters reports 0. Every answer of phases 3
//! and 4 is checked against the oracle, as in the untraced run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kpa_logic::{parse_in, ModelArtifact};
use kpa_serve::catalog::{build_assignment, build_system};
use kpa_serve::session::{Session, SharedState};
use kpa_serve::{json, proto, QueryKind};
use kpa_trace::TraceReport;

use crate::check::{self, point, set_answer, Answer};
use crate::gen;
use crate::spans::Recorder;
use crate::stats::{self, mean, median, ratio};
use crate::workloads::{self, Figure, Inputs, Result, Sample};

/// The per-layer metrics, in report order: name and unit. Counts are
/// per operation of the workload (query item, session, or suite pass).
pub const PER_LAYER: [(&str, &str); 60] = [
    ("serve.connect_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.reply_bytes", "bytes"),
    ("serve.wire_us", "us"),
    ("serve.unattributed_ratio", "ratio"),
    ("catalog.build_system_ms", "ms"),
    ("catalog.build_assignment_ms", "ms"),
    ("logic.artifact_build_ms", "ms"),
    ("logic.parse_us", "us"),
    ("logic.compile_us", "us"),
    ("logic.sat_us", "us"),
    ("logic.knows_us", "us"),
    ("logic.pr_ge_us", "us"),
    ("logic.pr_family_us", "us"),
    ("logic.subterm_memo_hit_ratio", "ratio"),
    ("logic.sat_cache_hit_ratio", "ratio"),
    ("logic.cache_contention", "count/op"),
    ("logic.resident_bytes", "bytes"),
    ("logic.sat_cache_len", "count"),
    ("logic.terms_interned", "count"),
    ("assign.space_cache_hit_ratio", "ratio"),
    ("assign.plan_hit_ratio", "ratio"),
    ("measure.interval_us", "us"),
    ("measure.kernel_words", "count/op"),
    ("measure.rat_slow_add", "count/op"),
    ("system.footprint_skipped_words", "count/op"),
    ("span.system.build_ns", "ns"),
    ("pool.tasks", "count/op"),
    ("pool.steals", "count/op"),
    ("pool.busy_ratio", "ratio"),
    ("pool.chunk_ns_p50", "ns"),
    ("paper.e01_ms", "ms"),
    ("paper.e02_ms", "ms"),
    ("paper.e03_ms", "ms"),
    ("paper.e04_ms", "ms"),
    ("paper.e05_ms", "ms"),
    ("paper.e06_ms", "ms"),
    ("paper.e07_ms", "ms"),
    ("paper.e08_ms", "ms"),
    ("paper.e09_ms", "ms"),
    ("paper.e10_ms", "ms"),
    ("paper.e11_ms", "ms"),
    ("paper.e12_ms", "ms"),
    ("paper.e13_ms", "ms"),
    ("paper.e14_ms", "ms"),
    ("paper.e15_ms", "ms"),
    ("paper.e16_ms", "ms"),
    ("paper.e17_ms", "ms"),
    ("paper.e18_ms", "ms"),
    ("paper.e19_ms", "ms"),
    ("paper.e20_ms", "ms"),
    ("paper.e21_ms", "ms"),
    ("paper.e22_ms", "ms"),
    ("span.betting.class_sweep_ns", "ns"),
    ("span.betting.prop6_ns", "ns"),
    ("span.async.prop10_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

type Experiment = fn() -> Vec<kpa_bench::Row>;

/// E1–E22 in suite order, with their metric names.
const EXPERIMENTS: [(&str, Experiment); 22] = [
    ("paper.e01_ms", kpa_bench::e01_vardi),
    ("paper.e02_ms", kpa_bench::e02_footnote5),
    ("paper.e03_ms", kpa_bench::e03_primality),
    ("paper.e04_ms", kpa_bench::e04_attack_pointwise),
    ("paper.e05_ms", kpa_bench::e05_coin_post_fut),
    ("paper.e06_ms", kpa_bench::e06_die_subdivision),
    ("paper.e07_ms", kpa_bench::e07_lattice),
    ("paper.e08_ms", kpa_bench::e08_theorem7),
    ("paper.e09_ms", kpa_bench::e09_theorem8),
    ("paper.e10_ms", kpa_bench::e10_theorem9),
    ("paper.e11_ms", kpa_bench::e11_async_coins),
    ("paper.e12_ms", kpa_bench::e12_prop10),
    ("paper.e13_ms", kpa_bench::e13_pts_vs_state),
    ("paper.e14_ms", kpa_bench::e14_prop11),
    ("paper.e15_ms", kpa_bench::e15_two_aces),
    ("paper.e16_ms", kpa_bench::e16_embedding),
    ("paper.e17_ms", kpa_bench::e17_extensions),
    ("paper.e18_ms", kpa_bench::e18_scheduler),
    ("paper.e19_ms", kpa_bench::e19_rational_opponents),
    ("paper.e20_ms", kpa_bench::e20_leaky_prover),
    ("paper.e21_ms", kpa_bench::e21_election),
    ("paper.e22_ms", kpa_bench::e22_monty_hall),
];

/// Timed passes over a warm family in the in-process replay.
const WARM_REPLAY_PASSES: usize = 40;

pub struct Traced {
    pub attempted: u64,
    pub figures: Vec<Figure>,
}

/// Per-layer values being collected: name → (value, samples).
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, (value, samples));
    }

    /// Mean of per-call microsecond samples.
    fn set_mean_us(&mut self, name: &'static str, ns: &[u64]) {
        if !ns.is_empty() {
            let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
            self.set(name, mean(&us), us.len());
        }
    }

    fn into_traced(self, attempted: u64) -> Traced {
        let figures = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Figure {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect();
        Traced { attempted, figures }
    }
}

/// Counters and histograms the program recorded over one traced phase.
struct Counters(TraceReport);

impl Counters {
    fn take() -> Counters {
        Counters(kpa_trace::registry().snapshot())
    }

    fn get(&self, name: &str) -> f64 {
        self.0.counter(name) as f64
    }

    /// Sum of every counter named `{prefix}…{suffix}`.
    fn sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.0
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, &v)| v as f64)
            .sum()
    }

    fn hist_mean(&self, name: &str) -> Option<(f64, usize)> {
        let h = self.0.histograms.get(name)?;
        (h.count > 0).then(|| (h.sum as f64 / h.count as f64, h.count as usize))
    }

    /// The count, ratio and span metrics shared by every workload.
    fn report(&self, layers: &mut Layers, ops: usize) {
        let per_op = |v: f64| v / ops.max(1) as f64;
        let (hit, miss) = (
            self.sum("logic.sat_cache.shard", ".hit"),
            self.sum("logic.sat_cache.shard", ".miss"),
        );
        layers.set(
            "logic.sat_cache_hit_ratio",
            ratio(hit, hit + miss),
            (hit + miss) as usize,
        );
        let (hit, miss) = (
            self.get("logic.subterm_memo.hit"),
            self.get("logic.subterm_memo.miss"),
        );
        layers.set(
            "logic.subterm_memo_hit_ratio",
            ratio(hit, hit + miss),
            (hit + miss) as usize,
        );
        layers.set(
            "logic.cache_contention",
            per_op(self.sum("", ".contention")),
            ops,
        );
        let (hit, miss) = (
            self.get("assign.space_cache_hit"),
            self.get("assign.space_cache_miss"),
        );
        layers.set(
            "assign.space_cache_hit_ratio",
            ratio(hit, hit + miss),
            (hit + miss) as usize,
        );
        let (hit, miss) = (
            self.get("assign.planned_space_hit"),
            self.get("assign.planned_space_fallback"),
        );
        layers.set(
            "assign.plan_hit_ratio",
            ratio(hit, hit + miss),
            (hit + miss) as usize,
        );
        for (metric, counter) in [
            ("measure.kernel_words", "measure.kernel_words"),
            ("measure.rat_slow_add", "measure.rat_slow_add"),
            (
                "system.footprint_skipped_words",
                "system.footprint_skipped_words",
            ),
            ("pool.tasks", "pool.tasks"),
            ("pool.steals", "pool.steals"),
        ] {
            layers.set(metric, per_op(self.get(counter)), ops);
        }
        let busy = self.0.histograms.get("pool.busy_ns").map_or(0, |h| h.sum) as f64;
        let idle = self.0.histograms.get("pool.idle_ns").map_or(0, |h| h.sum) as f64;
        layers.set("pool.busy_ratio", ratio(busy, busy + idle), ops);
        if let Some(h) = self.0.histograms.get("pool.chunk_ns") {
            layers.set(
                "pool.chunk_ns_p50",
                h.p50().unwrap_or(0) as f64,
                h.count as usize,
            );
        }
        for (metric, hist) in [
            ("span.betting.class_sweep_ns", "betting.class_sweep_ns"),
            ("span.betting.prop6_ns", "betting.prop6_ns"),
            ("span.async.prop10_ns", "async.prop10_ns"),
        ] {
            if let Some((v, n)) = self.hist_mean(hist) {
                layers.set(metric, v, n);
            }
        }
    }
}

fn reset_registry() {
    kpa_trace::registry().reset();
}

pub fn run(workload: &str, seed: u64, seconds: u64) -> Result<Traced> {
    let mut rec = Recorder::new();
    let out = match workload {
        "warm-repeat" => serve(Which::Warm, &Inputs::warm(seed), seconds, &mut rec),
        "cold-distinct" => serve(Which::Cold, &Inputs::cold(seed, seconds), seconds, &mut rec),
        "session-churn" => serve(Which::Churn, &Inputs::churn(seed), seconds, &mut rec),
        _ => paper(seconds, &mut rec),
    }?;
    write_spans(workload, seed, &rec)?;
    Ok(out)
}

/// Writes the benchmark's spans to `.kpabench/spans-<workload>-<seed>.jsonl`
/// under the working directory.
fn write_spans(workload: &str, seed: u64, rec: &Recorder) -> Result<()> {
    let dir = std::path::Path::new(".kpabench");
    std::fs::create_dir_all(dir).map_err(|e| format!("span dump: {e}"))?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("span dump: {e}"))?;
    println!("  spans: {} written to {}", rec.len(), path.display());
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    Warm,
    Cold,
    Churn,
}

/// What one wire phase measured.
struct Wire {
    ops: usize,
    rate: f64,
    rtt_ns: Vec<u64>,
    connect_ns: Vec<u64>,
    load_ns: Vec<u64>,
    samples: Vec<Sample>,
    counters: Option<Counters>,
}

/// One wire phase on a fresh server; with `traced`, the registry is
/// reset after set-up and snapshotted after the window.
fn wire(
    which: Which,
    inputs: &Inputs,
    items: usize,
    window: Duration,
    traced: bool,
) -> Result<Wire> {
    let (mut server, _) = inputs.set_up(which != Which::Cold)?;
    let addr = server.local_addr();
    if traced {
        reset_registry();
    }
    let out = if which == Which::Churn {
        let (sessions, wall) = workloads::churn_loop(inputs, addr, window)?;
        Wire {
            ops: sessions.len(),
            rate: sessions.len() as f64 / (wall as f64 / 1e9),
            rtt_ns: sessions
                .iter()
                .flat_map(|s| s.queries.iter().map(|q| q.ns))
                .collect(),
            connect_ns: sessions.iter().map(|s| s.connect_ns).collect(),
            load_ns: sessions.iter().map(|s| s.load_ns).collect(),
            samples: sessions.iter().flat_map(|s| s.queries.clone()).collect(),
            counters: None,
        }
    } else {
        let (mut conn, connect_ns, load_ns) = workloads::timed_open(inputs, addr)?;
        conn.expect_ok(&inputs.ctl.bye).map_err(|e| e.to_string())?;
        let (samples, wall) = if which == Which::Warm {
            workloads::closed_loop(inputs, addr, &workloads::warm_schedule(items), Some(window))?
        } else {
            workloads::closed_loop(inputs, addr, &workloads::cold_schedule(items), None)?
        };
        Wire {
            ops: samples.len(),
            rate: samples.len() as f64 / (wall as f64 / 1e9),
            rtt_ns: samples.iter().map(|s| s.ns).collect(),
            connect_ns: vec![connect_ns],
            load_ns: vec![load_ns],
            samples,
            counters: None,
        }
    };
    let counters = traced.then(Counters::take);
    server.shutdown();
    Ok(Wire { counters, ..out })
}

fn serve(which: Which, inputs: &Inputs, seconds: u64, rec: &mut Recorder) -> Result<Traced> {
    let mut layers = Layers::default();
    // Cold items are asked once each; the traced run replays half of
    // them in every phase so it stays within its time limit.
    let items = match which {
        Which::Cold => inputs.items.len() / 2,
        _ => inputs.items.len(),
    };
    let window = Duration::from_secs_f64(seconds as f64 / 4.0);

    kpa_trace::set_enabled(false);
    let untraced = wire(which, inputs, items, window, false)?;

    kpa_trace::set_enabled(true);
    reset_registry();
    let (sys, ns) = rec.time("catalog.build_system", None, 0, || {
        build_system(inputs.system)
    });
    let sys = sys?;
    layers.set("catalog.build_system_ms", ns as f64 / 1e6, 1);
    let (assign, ns) = rec.time("catalog.build_assignment", None, 0, || {
        build_assignment(workloads::ASSIGNMENT, &sys)
    });
    let assign = assign?;
    layers.set("catalog.build_assignment_ms", ns as f64 / 1e6, 1);
    let (artifact, ns) = rec.time("logic.artifact_build", None, 0, || {
        ModelArtifact::new(Arc::new(sys), assign)
    });
    layers.set("logic.artifact_build_ms", ns as f64 / 1e6, 1);
    if let Some((v, n)) = Counters::take().hist_mean("system.build_ns") {
        layers.set("span.system.build_ns", v, n);
    }

    let traced = wire(which, inputs, items, window, true)?;
    traced
        .counters
        .as_ref()
        .expect("traced phase snapshots counters")
        .report(&mut layers, traced.ops);
    layers.set(
        "trace.overhead_ratio",
        untraced.rate / traced.rate,
        traced.ops,
    );
    let ms = |ns: &[u64]| median(&stats::ms(ns));
    layers.set(
        "serve.connect_ms",
        ms(&traced.connect_ns),
        traced.connect_ns.len(),
    );
    layers.set("serve.load_ms", ms(&traced.load_ns), traced.load_ns.len());

    let (warm_passes, timed_passes) = match which {
        Which::Cold => (0, 1),
        _ => (1, WARM_REPLAY_PASSES),
    };
    let replay = Replay {
        inputs,
        items,
        warm_passes,
        timed_passes,
    };
    let logic = replay.logic(&artifact, rec, &mut layers)?;
    layers.set(
        "logic.resident_bytes",
        artifact.approx_resident_bytes() as f64,
        1,
    );
    layers.set("logic.sat_cache_len", artifact.sat_cache_len() as f64, 1);
    layers.set("logic.terms_interned", artifact.terms_interned() as f64, 1);
    drop(artifact);
    let served = replay.session(rec)?;
    let requests = served.handle_ns.len();
    let total = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    layers.set_mean_us("serve.decode_us", &served.decode_ns);
    layers.set_mean_us("serve.handle_us", &served.handle_ns);
    let encode_us = (total(&served.to_json_ns) + total(&logic.words_ns)) / requests as f64 / 1e3;
    layers.set("serve.encode_us", encode_us, requests);
    layers.set("serve.reply_bytes", mean(&served.reply_bytes), requests);

    // Attribution: how much of the in-process request time the timed
    // layer calls explain, and what the wire adds on top of it.
    let handled = total(&served.decode_ns) + total(&served.handle_ns) + total(&served.to_json_ns);
    let attributed = total(&served.decode_ns) + logic.layer_ns as f64 + total(&served.to_json_ns);
    layers.set(
        "serve.unattributed_ratio",
        ratio((handled - attributed).max(0.0), handled),
        requests,
    );
    layers.set(
        "serve.wire_us",
        mean(&stats::ms(&traced.rtt_ns)) * 1e3 - handled / requests as f64 / 1e3,
        traced.rtt_ns.len(),
    );

    // Every answer of the traced phases against the oracle.
    let expected = inputs.expected(items)?;
    for (source, got) in [
        ("layer replay", &logic.answers),
        ("session replay", &served.answers),
    ] {
        if let Some(i) = (0..items).find(|&i| got[i] != expected[i]) {
            return Err(format!(
                "{source}: mismatch on item {i} ({:?})",
                inputs.items[i].kind
            ));
        }
    }
    for phase in [&untraced, &traced] {
        workloads::check_samples(&phase.samples, &served.digests)?;
    }
    Ok(layers.into_traced((untraced.ops + traced.ops) as u64))
}

struct Replay<'a> {
    inputs: &'a Inputs,
    items: usize,
    warm_passes: usize,
    timed_passes: usize,
}

struct LogicReplay {
    answers: Vec<Answer>,
    /// Total time of the timed parse, compile, evaluate and encode calls.
    layer_ns: u64,
    /// Per-request `words_to_value` time (the encode work that runs
    /// inside `Session::handle`).
    words_ns: Vec<u64>,
}

struct SessionReplay {
    answers: Vec<Answer>,
    digests: Vec<u64>,
    decode_ns: Vec<u64>,
    handle_ns: Vec<u64>,
    to_json_ns: Vec<u64>,
    reply_bytes: Vec<f64>,
}

/// The metric and span a query kind's evaluation call is timed under.
fn layer_of(kind: &QueryKind) -> (&'static str, &'static str) {
    match kind {
        QueryKind::Sat { .. } | QueryKind::Holds { .. } | QueryKind::Everywhere { .. } => {
            ("logic.sat_us", "logic.sat")
        }
        QueryKind::Knows { .. } => ("logic.knows_us", "logic.knows"),
        QueryKind::PrGe { .. } => ("logic.pr_ge_us", "logic.pr_ge"),
        QueryKind::PrGeFamily { .. } => ("logic.pr_family_us", "logic.pr_family"),
        QueryKind::Interval { .. } => ("measure.interval_us", "measure.interval"),
    }
}

/// A query kind's `EvalCtx` call on the parsed formula `f` — the calls
/// `Session::handle` makes for it.
fn evaluate(
    ctx: &kpa_logic::EvalCtx<'_>,
    f: &kpa_logic::Formula,
    kind: &QueryKind,
) -> std::result::Result<Answer, String> {
    let sys = ctx.artifact().system();
    let agent = |name: &str| sys.agent_id(name).ok_or(format!("unknown agent {name}"));
    let e = |e: kpa_logic::LogicError| e.to_string();
    Ok(match kind {
        QueryKind::Sat { .. } => set_answer(&*ctx.sat(f).map_err(e)?),
        QueryKind::Holds { point: p, .. } => Answer::Holds(ctx.holds_at(f, point(*p)).map_err(e)?),
        QueryKind::Everywhere { .. } => Answer::Holds(ctx.holds_everywhere(f).map_err(e)?),
        QueryKind::Knows { agent: a, .. } => {
            set_answer(&ctx.knows_set(agent(a)?, &*ctx.sat(f).map_err(e)?))
        }
        QueryKind::PrGe {
            agent: a, alpha, ..
        } => {
            let sat = ctx.sat(f).map_err(e)?;
            set_answer(&ctx.pr_ge_set(agent(a)?, *alpha, &sat).map_err(e)?)
        }
        QueryKind::PrGeFamily {
            agent: a, alphas, ..
        } => {
            let sets = ctx.pr_ge_family(agent(a)?, alphas, f).map_err(e)?;
            Answer::Family {
                counts: sets.iter().map(|s| s.len() as i64).collect(),
                sets: sets.iter().map(|s| s.as_words().to_vec()).collect(),
            }
        }
        QueryKind::Interval {
            agent: a, point: p, ..
        } => {
            let (lo, hi) = ctx.prob_interval(agent(a)?, point(*p), f).map_err(e)?;
            Answer::Interval {
                lo: lo.to_string(),
                hi: hi.to_string(),
            }
        }
    })
}

impl Replay<'_> {
    fn passes(&self) -> impl Iterator<Item = (usize, bool)> {
        let warm = self.warm_passes;
        (0..warm + self.timed_passes).map(move |p| (p, p >= warm))
    }

    /// Each item through `parse_in`, `EvalCtx::compile`, the kind's
    /// evaluation call and `words_to_value`, on `artifact`.
    fn logic(
        &self,
        artifact: &ModelArtifact,
        rec: &mut Recorder,
        layers: &mut Layers,
    ) -> Result<LogicReplay> {
        let sys = artifact.system();
        let ctx = artifact.ctx();
        let mut times: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut answers = Vec::new();
        let mut layer_ns = 0;
        for (pass, timed) in self.passes() {
            for (i, item) in self.inputs.items[..self.items].iter().enumerate() {
                let request = (pass * self.items + i + 1) as u64;
                let req = rec.open("logic.request", None, request);
                let src = gen::formula_of(&item.kind);
                let (f, parse_ns) =
                    rec.time("logic.parse", Some(req), request, || parse_in(src, sys));
                let f = f.map_err(|e| format!("{src}: {e}"))?;
                let (_, compile_ns) =
                    rec.time("logic.compile", Some(req), request, || ctx.compile(&f));
                let (metric, span) = layer_of(&item.kind);
                let (answer, eval_ns) = rec.time(span, Some(req), request, || {
                    evaluate(&ctx, &f, &item.kind).map_err(|e| format!("{src}: {e}"))
                });
                let answer = answer?;
                let words: Vec<&[u64]> = match &answer {
                    Answer::Set { words, .. } => vec![words],
                    Answer::Family { sets, .. } => sets.iter().map(Vec::as_slice).collect(),
                    _ => Vec::new(),
                };
                let (encoded, encode_ns) =
                    rec.time("serve.words_to_value", Some(req), request, || {
                        words
                            .iter()
                            .map(|w| proto::words_to_value(w))
                            .collect::<Vec<_>>()
                    });
                std::hint::black_box(encoded);
                rec.close(req);
                if timed {
                    for (name, ns) in [
                        ("logic.parse_us", parse_ns),
                        ("logic.compile_us", compile_ns),
                        (metric, eval_ns),
                        ("serve.words_to_value_us", encode_ns),
                    ] {
                        times.entry(name).or_default().push(ns);
                    }
                    layer_ns += parse_ns + compile_ns + eval_ns + encode_ns;
                }
                if pass + 1 == self.warm_passes + self.timed_passes {
                    answers.push(answer);
                }
            }
        }
        let words_ns = times.remove("serve.words_to_value_us").unwrap_or_default();
        for (name, ns) in &times {
            layers.set_mean_us(name, ns);
        }
        Ok(LogicReplay {
            answers,
            layer_ns,
            words_ns,
        })
    }

    /// Each request line through `json::parse` + `proto::decode`,
    /// `Session::handle` and `to_json`, on a fresh session.
    fn session(&self, rec: &mut Recorder) -> Result<SessionReplay> {
        let mut session = Session::open(Arc::new(SharedState::new()));
        let decode = |line: &[u8]| -> Result<proto::Envelope> {
            let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
            let value = json::parse(text.trim_end()).map_err(|e| e.to_string())?;
            proto::decode(&value, 1024).map_err(|e| e.to_string())
        };
        let (frame, _) = session.handle(&decode(&self.inputs.ctl.load)?);
        if frame.get("ok").and_then(json::Value::as_bool) != Some(true) {
            return Err(format!("session replay: load failed: {}", frame.to_json()));
        }
        let mut out = SessionReplay {
            answers: Vec::new(),
            digests: Vec::new(),
            decode_ns: Vec::new(),
            handle_ns: Vec::new(),
            to_json_ns: Vec::new(),
            reply_bytes: Vec::new(),
        };
        for (pass, timed) in self.passes() {
            for (i, item) in self.inputs.items[..self.items].iter().enumerate() {
                let request = (pass * self.items + i + 1) as u64;
                let req = rec.open("serve.request", None, request);
                let line = &self.inputs.lines[i];
                let (env, decode_ns) =
                    rec.time("serve.decode", Some(req), request, || decode(line));
                let env = env?;
                let ((frame, _), handle_ns) =
                    rec.time("serve.handle", Some(req), request, || session.handle(&env));
                let (text, to_json_ns) =
                    rec.time("serve.to_json", Some(req), request, || frame.to_json());
                rec.close(req);
                if timed {
                    out.decode_ns.push(decode_ns);
                    out.handle_ns.push(handle_ns);
                    out.to_json_ns.push(to_json_ns);
                    out.reply_bytes.push(text.len() as f64);
                }
                if pass + 1 == self.warm_passes + self.timed_passes {
                    out.answers
                        .push(check::decode_reply(text.as_bytes(), item)?);
                    out.digests
                        .push(check::digest(text.as_bytes()).ok_or("reply has no results")?);
                }
            }
        }
        Ok(out)
    }
}

/// The traced run of `paper-suite`: untraced and traced passes of
/// `all_experiments` for the overhead ratio and the program's counters,
/// then each experiment timed on its own.
fn paper(seconds: u64, rec: &mut Recorder) -> Result<Traced> {
    let mut layers = Layers::default();
    let window = Duration::from_secs_f64(seconds as f64 / 4.0);
    let passes = |window: Duration| -> Result<(usize, f64)> {
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed() < window {
            workloads::suite_pass()?;
            n += 1;
        }
        Ok((n, n as f64 / start.elapsed().as_secs_f64()))
    };
    kpa_trace::set_enabled(false);
    workloads::suite_pass()?;
    let (untraced_n, untraced_rate) = passes(window)?;
    kpa_trace::set_enabled(true);
    reset_registry();
    let (traced_n, traced_rate) = passes(window)?;
    Counters::take().report(&mut layers, traced_n);
    layers.set(
        "trace.overhead_ratio",
        untraced_rate / traced_rate,
        traced_n,
    );

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 3 || start.elapsed() < window {
        pass += 1;
        let req = rec.open("paper.suite", None, pass);
        for (k, (name, experiment)) in EXPERIMENTS.iter().enumerate() {
            let (rows, ns) = rec.time(name, Some(req), pass, experiment);
            if let Some(bad) = rows.iter().find(|r| !r.matches) {
                return Err(format!("paper suite: {bad}"));
            }
            times[k].push(ns as f64 / 1e6);
        }
        rec.close(req);
    }
    for ((name, _), t) in EXPERIMENTS.iter().zip(&times) {
        layers.set(name, median(t), t.len());
    }
    Ok(layers.into_traced((untraced_n + traced_n) as u64 + pass))
}
