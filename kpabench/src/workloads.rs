//! The four workloads, untraced: every end-to-end metric comes from
//! here. All are closed loops — each client sends its next frame only
//! after the previous reply arrived.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kpa_serve::catalog::{build_assignment, build_system};
use kpa_serve::{QueryItem, ServeConfig, Server};
use kpa_system::System;

use crate::check::{self, Answer};
use crate::gen::{self, Kind};
use crate::stats::{self, quantile};
use crate::wire::{Conn, Control};

/// Concurrent client connections (the host has two cores).
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
pub const ASSIGNMENT: &str = "post";
/// `warm-repeat` and `session-churn`: 53,248 points.
pub const SMALL_SYSTEM: &str = "async-coins:12";
/// `cold-distinct`: 245,760 points.
pub const LARGE_SYSTEM: &str = "async-coins:14";
/// `warm-repeat` family size (one pass over `gen::WARM_KINDS`).
pub const WARM_FAMILY: usize = 12;
/// `session-churn` queries per session.
pub const CHURN_QUERIES: usize = 4;
/// `cold-distinct` items per second of `--seconds`: a fixed count, so
/// memo growth is the same in every run; sized so a run measures about
/// `--seconds` on a two-core host.
pub const COLD_ITEMS_PER_SECOND: usize = 60;

/// One reported figure: name, value, unit, and the samples behind it.
#[derive(Debug, Clone)]
pub struct Figure {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What an untraced run measured.
#[derive(Debug)]
pub struct Run {
    /// Operations attempted (query items, sessions, or suite passes).
    pub attempted: u64,
    pub setup_s: Vec<f64>,
    /// Latency of every operation, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// Length of the measured window, in nanoseconds.
    pub wall_ns: u64,
    pub peak_rss_mb: f64,
    /// Workload-specific figures for the report.
    pub figures: Vec<Figure>,
}

impl Run {
    /// Operations per second over the whole window. Pooled over the
    /// window rather than taken per slice: the host's scheduler switches
    /// between a faster and a slower mode every few seconds, and a
    /// per-slice median would report whichever mode a run happened to
    /// spend most slices in.
    pub fn rate(&self) -> f64 {
        self.op_ns.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// The `q`-quantile of operation latency, in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile(&stats::ms(&self.op_ns), q)
    }

    fn latency_figures(&mut self, p50: &'static str, p90: &'static str, ns: &[u64]) {
        let v = stats::ms(ns);
        for (name, q) in [(p50, 0.5), (p90, 0.9)] {
            self.figures.push(Figure {
                name,
                value: quantile(&v, q),
                unit: "ms",
                samples: v.len(),
            });
        }
    }

    /// Adds the workload's own names for the rate and latency figures.
    fn named(mut self, rate: &'static str, p50: &'static str, p90: &'static str) -> Run {
        let n = self.op_ns.len();
        for (name, value, unit) in [
            (rate, self.rate(), "1/s"),
            (p50, self.latency_ms(0.5), "ms"),
            (p90, self.latency_ms(0.9), "ms"),
        ] {
            self.figures.push(Figure {
                name,
                value,
                unit,
                samples: n,
            });
        }
        self
    }
}

pub type Result<T> = std::result::Result<T, String>;

fn io<T>(r: std::io::Result<T>) -> Result<T> {
    r.map_err(|e| format!("io: {e}"))
}

/// The generated inputs of one serve workload.
pub struct Inputs {
    pub system: &'static str,
    pub sys: System,
    pub items: Vec<QueryItem>,
    pub lines: Vec<Vec<u8>>,
    pub ctl: Control,
}

impl Inputs {
    pub fn new(
        system: &'static str,
        seed: u64,
        kinds: &[Kind],
        depths: &[usize],
        n: usize,
    ) -> Inputs {
        let sys = build_system(system).expect("catalog system builds");
        let items = gen::distinct_items(seed, &sys, kinds, depths, n);
        let lines = items
            .iter()
            .map(|i| gen::query_line(i).into_bytes())
            .collect();
        Inputs {
            system,
            sys,
            items,
            lines,
            ctl: Control::new(system, ASSIGNMENT),
        }
    }

    pub fn warm(seed: u64) -> Inputs {
        Inputs::new(SMALL_SYSTEM, seed, &gen::WARM_KINDS, &[1, 2], WARM_FAMILY)
    }

    pub fn cold(seed: u64, seconds: u64) -> Inputs {
        let n = COLD_ITEMS_PER_SECOND * seconds as usize;
        Inputs::new(LARGE_SYSTEM, seed, &gen::COLD_KINDS, &[1, 2, 3], n)
    }

    pub fn churn(seed: u64) -> Inputs {
        Inputs::new(
            SMALL_SYSTEM,
            seed,
            &[Kind::PrGeFamily],
            &[1, 2],
            CHURN_QUERIES,
        )
    }

    /// The oracle's answers to the first `n` items.
    pub fn expected(&self, n: usize) -> Result<Vec<Answer>> {
        let assign = build_assignment(ASSIGNMENT, &self.sys)?;
        check::oracle(&self.sys, &assign, &self.items[..n])
    }

    /// A fresh server brought to the workload's starting state: the
    /// system loaded over the wire (a cold artifact build) and, when
    /// `warm`, every item answered once. Returns the server and the
    /// seconds the set-up took.
    pub fn set_up(&self, warm: bool) -> Result<(Server, f64)> {
        let t = Instant::now();
        // A fresh server, so a fresh artifact cache, configured as the
        // `kpa-serve` binary runs it.
        let server = io(Server::bind(ServeConfig::default()))?;
        let mut c = io(self.ctl.open(server.local_addr()))?;
        if warm {
            for line in &self.lines {
                io(c.round_trip(line))?;
            }
        }
        io(c.expect_ok(&self.ctl.bye))?;
        Ok((server, t.elapsed().as_secs_f64()))
    }

    /// The remaining set-ups of a run, each on a fresh server shut down
    /// at once; returns every set-up time, `first` included. They run
    /// after the measured window, so `peak_rss_mb` covers one server.
    pub fn more_set_ups(&self, warm: bool, first: f64) -> Result<Vec<f64>> {
        let mut times = vec![first];
        for _ in 1..SETUP_REPS {
            let (mut server, s) = self.set_up(warm)?;
            server.shutdown();
            times.push(s);
        }
        Ok(times)
    }

    /// Asks every item once on a fresh session; returns each decoded
    /// answer and the digest of its reply.
    pub fn answers(&self, addr: SocketAddr) -> Result<(Vec<Answer>, Vec<u64>)> {
        let mut c = io(self.ctl.open(addr))?;
        let mut answers = Vec::with_capacity(self.items.len());
        let mut digests = Vec::with_capacity(self.items.len());
        for (item, line) in self.items.iter().zip(&self.lines) {
            let reply = io(c.round_trip(line))?;
            answers.push(check::decode_reply(reply, item)?);
            digests.push(check::digest(reply).ok_or("reply has no results")?);
        }
        io(c.expect_ok(&self.ctl.bye))?;
        Ok((answers, digests))
    }

    /// Compares decoded answers with the oracle's, bit for bit. Run
    /// after the server is shut down, so the oracle's model and the
    /// server's artifact are never resident together.
    pub fn check_answers(&self, got: &[Answer]) -> Result<()> {
        let want = self.expected(self.items.len())?;
        for ((item, got), want) in self.items.iter().zip(got).zip(&want) {
            if got != want {
                return Err(format!(
                    "mismatch on item {} ({:?}): server {}, oracle {}",
                    item.id,
                    item.kind,
                    abbreviate(got),
                    abbreviate(want)
                ));
            }
        }
        Ok(())
    }
}

fn abbreviate(a: &Answer) -> String {
    let s = format!("{a:?}");
    s[..s.len().min(160)].to_string()
}

/// One timed query frame.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub item: usize,
    pub digest: Option<u64>,
    /// Round trip, in nanoseconds.
    pub ns: u64,
}

/// Runs `CLIENTS` closed-loop clients, each on its own session. Client
/// `c`'s `k`-th frame asks `schedule(c, k)`; a client stops when the
/// schedule ends or the deadline passes. Returns every sample and the
/// length of the window in nanoseconds.
pub fn closed_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    schedule: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    window: Option<Duration>,
) -> Result<(Vec<Sample>, u64)> {
    let barrier = Barrier::new(CLIENTS + 1);
    let (results, wall_ns) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || -> Result<Vec<Sample>> {
                    let conn = inputs.ctl.open(addr);
                    barrier.wait();
                    let mut conn = io(conn)?;
                    let start = Instant::now();
                    let mut out = Vec::new();
                    for k in 0.. {
                        if window.is_some_and(|w| start.elapsed() >= w) {
                            break;
                        }
                        let Some(item) = schedule(c, k) else { break };
                        let t = Instant::now();
                        let reply = io(conn.round_trip(&inputs.lines[item]))?;
                        let ns = t.elapsed().as_nanos() as u64;
                        out.push(Sample {
                            item,
                            digest: check::digest(reply),
                            ns,
                        });
                    }
                    io(conn.expect_ok(&inputs.ctl.bye))?;
                    Ok(out)
                })
            })
            .collect();
        barrier.wait();
        let opened = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        (results, opened.elapsed().as_nanos() as u64)
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, wall_ns))
}

/// Every sample must carry its item's verified digest.
pub fn check_samples(samples: &[Sample], digests: &[u64]) -> Result<()> {
    match samples.iter().find(|s| s.digest != Some(digests[s.item])) {
        Some(s) => Err(format!(
            "reply to item {} differs from its verified answer",
            s.item
        )),
        None => Ok(()),
    }
}

/// Warm-repeat schedule: client `c` cycles the family from offset
/// `c · n / CLIENTS`.
pub fn warm_schedule(n: usize) -> impl Fn(usize, usize) -> Option<usize> + Sync {
    move |c, k| Some((c * n / CLIENTS + k) % n)
}

/// Cold-distinct schedule: client `c` takes items `c, c + CLIENTS, …`
/// once each.
pub fn cold_schedule(n: usize) -> impl Fn(usize, usize) -> Option<usize> + Sync {
    move |c, k| {
        let i = c + k * CLIENTS;
        (i < n).then_some(i)
    }
}

fn query_run(inputs: &Inputs, warm: bool, window: Option<Duration>) -> Result<Run> {
    let (mut server, first_setup) = inputs.set_up(warm)?;
    let addr = server.local_addr();
    let n = inputs.items.len();
    let (samples, wall_ns) = if warm {
        closed_loop(inputs, addr, &warm_schedule(n), window)?
    } else {
        closed_loop(inputs, addr, &cold_schedule(n), None)?
    };
    let peak_rss_mb = stats::peak_rss_mb()?;
    let (answers, digests) = inputs.answers(addr)?;
    server.shutdown();
    drop(server);
    check_samples(&samples, &digests)?;
    inputs.check_answers(&answers)?;
    let setup_s = inputs.more_set_ups(warm, first_setup)?;
    Ok(Run {
        attempted: samples.len() as u64,
        setup_s,
        op_ns: samples.iter().map(|s| s.ns).collect(),
        wall_ns,
        peak_rss_mb,
        figures: Vec::new(),
    }
    .named("qps", "latency_p50_ms", "latency_p90_ms"))
}

pub fn warm_repeat(seed: u64, seconds: u64) -> Result<Run> {
    query_run(
        &Inputs::warm(seed),
        true,
        Some(Duration::from_secs(seconds)),
    )
}

pub fn cold_distinct(seed: u64, seconds: u64) -> Result<Run> {
    query_run(&Inputs::cold(seed, seconds), false, None)
}

/// One short-lived session's timings.
#[derive(Debug)]
pub struct Session {
    pub connect_ns: u64,
    pub load_ns: u64,
    pub total_ns: u64,
    pub queries: Vec<Sample>,
}

/// Connect + `hello`, then `load`, each timed: the returned connection
/// is a session ready for queries.
pub fn timed_open(inputs: &Inputs, addr: SocketAddr) -> Result<(Conn, u64, u64)> {
    let t = Instant::now();
    let mut conn = io(Conn::connect(addr))?;
    io(conn.expect_ok(&inputs.ctl.hello))?;
    let connect_ns = t.elapsed().as_nanos() as u64;
    io(conn.expect_ok(&inputs.ctl.load))?;
    let load_ns = t.elapsed().as_nanos() as u64 - connect_ns;
    Ok((conn, connect_ns, load_ns))
}

/// Connect → `hello` → `load` → the family → `bye`, timed.
pub fn churn_session(inputs: &Inputs, addr: SocketAddr) -> Result<Session> {
    let t = Instant::now();
    let (mut conn, connect_ns, load_ns) = timed_open(inputs, addr)?;
    let mut queries = Vec::with_capacity(inputs.lines.len());
    for (item, line) in inputs.lines.iter().enumerate() {
        let q = Instant::now();
        let reply = io(conn.round_trip(line))?;
        queries.push(Sample {
            item,
            digest: check::digest(reply),
            ns: q.elapsed().as_nanos() as u64,
        });
    }
    io(conn.expect_ok(&inputs.ctl.bye))?;
    Ok(Session {
        connect_ns,
        load_ns,
        total_ns: t.elapsed().as_nanos() as u64,
        queries,
    })
}

/// Runs churning clients until `window` passes.
pub fn churn_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    window: Duration,
) -> Result<(Vec<Session>, u64)> {
    let start = Instant::now();
    let results: Vec<Result<Vec<Session>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while start.elapsed() < window {
                        out.push(churn_session(inputs, addr)?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = start.elapsed().as_nanos() as u64;
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, wall))
}

pub fn session_churn(seed: u64, seconds: u64) -> Result<Run> {
    let inputs = Inputs::churn(seed);
    let (mut server, first_setup) = inputs.set_up(true)?;
    let addr = server.local_addr();
    let (sessions, wall_ns) = churn_loop(&inputs, addr, Duration::from_secs(seconds))?;
    let peak_rss_mb = stats::peak_rss_mb()?;
    let (answers, digests) = inputs.answers(addr)?;
    server.shutdown();
    drop(server);
    let queries: Vec<Sample> = sessions.iter().flat_map(|s| s.queries.clone()).collect();
    check_samples(&queries, &digests)?;
    inputs.check_answers(&answers)?;
    let setup_s = inputs.more_set_ups(true, first_setup)?;
    let mut run = Run {
        attempted: sessions.len() as u64,
        setup_s,
        op_ns: sessions.iter().map(|s| s.total_ns).collect(),
        wall_ns,
        peak_rss_mb,
        figures: Vec::new(),
    }
    .named("sessions_per_s", "session_p50_ms", "session_p90_ms");
    let q: Vec<u64> = queries.iter().map(|s| s.ns).collect();
    run.latency_figures("latency_p50_ms", "latency_p90_ms", &q);
    let connect: Vec<u64> = sessions.iter().map(|s| s.connect_ns).collect();
    let load: Vec<u64> = sessions.iter().map(|s| s.load_ns).collect();
    run.latency_figures("connect_p50_ms", "connect_p90_ms", &connect);
    run.latency_figures("load_p50_ms", "load_p90_ms", &load);
    Ok(run)
}

/// The rows `all_experiments` must reproduce, every one matching.
pub const PAPER_ROWS: usize = 76;

/// One checked pass of the E1–E22 suite; its wall time in seconds.
pub fn suite_pass() -> Result<f64> {
    let t = Instant::now();
    let rows = kpa_bench::all_experiments();
    let s = t.elapsed().as_secs_f64();
    let matched = rows.iter().filter(|r| r.matches).count();
    if matched != rows.len() || rows.len() < PAPER_ROWS {
        let bad: Vec<String> = rows
            .iter()
            .filter(|r| !r.matches)
            .map(|r| r.to_string())
            .collect();
        return Err(format!(
            "paper suite: {matched}/{} rows match (want {PAPER_ROWS}/{PAPER_ROWS}): {}",
            rows.len(),
            bad.join("; ")
        ));
    }
    Ok(s)
}

/// The cold first pass, measured in a fresh process: this executable
/// re-run with `--cold-pass`, which prints the pass's seconds.
pub fn cold_suite_pass() -> Result<f64> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg("--cold-pass")
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "cold pass failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("cold pass output: {e}"))
}

/// Cold first passes per run (each in its own process); `setup_s` is
/// their median.
pub const COLD_PASSES: usize = 5;

pub fn paper_suite(seconds: u64) -> Result<Run> {
    let setup_s = (0..COLD_PASSES)
        .map(|_| cold_suite_pass())
        .collect::<Result<Vec<_>>>()?;
    suite_pass()?;
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut op_ns = Vec::new();
    while start.elapsed() < window {
        op_ns.push((suite_pass()? * 1e9) as u64);
    }
    Ok(Run {
        attempted: op_ns.len() as u64,
        setup_s,
        op_ns,
        wall_ns: start.elapsed().as_nanos() as u64,
        peak_rss_mb: stats::peak_rss_mb()?,
        figures: Vec::new(),
    }
    .named("suites_per_s", "suite_p50_ms", "suite_p90_ms"))
}
