//! `kpabench` — the repository benchmark.
//!
//! ```text
//! kpabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `warm-repeat`, `cold-distinct`, `session-churn`,
//! `paper-suite` (see `README.md` beside this crate). With `--trace 0`
//! the run is untraced and reports the end-to-end metrics; with
//! `--trace 1` it replays the same generated inputs layer by layer with
//! `kpa-trace` switched on and reports the per-layer metrics. Human
//! readable figures with their sample counts, then a `meta` line, then
//! the result object are printed to standard output; the result object
//! is always the last line. Any wrong answer exits non-zero with no
//! result line.

mod check;
mod gen;
mod spans;
mod stats;
mod traced;
mod wire;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{Figure, Run};

pub const WORKLOADS: [&str; 4] = [
    "warm-repeat",
    "cold-distinct",
    "session-churn",
    "paper-suite",
];

/// The end-to-end metrics, in report order: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    kpa_serve::json::Value::Str(s.to_string()).to_json()
}

/// Host and build facts recorded with every result.
fn meta_line(args: &Args, figures: &[Figure]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut samples = String::new();
    for f in figures {
        let sep = if samples.is_empty() { "" } else { "," };
        let _ = write!(samples, "{sep}{}:{}", json_str(f.name), f.samples);
    }
    format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"pool_width\":{},\"rustc\":{},\"commit\":{},\"samples\":{{{samples}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kpa_pool::default_threads(),
        json_str(&command_output("rustc", &["--version"])),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
    )
}

/// The result object: `metrics` holds exactly `figures`.
fn result_line(attempted: u64, figures: &[Figure]) -> String {
    let mut m = String::new();
    for f in figures {
        let sep = if m.is_empty() { "" } else { "," };
        let _ = write!(
            m,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            f.name, f.value, f.unit
        );
    }
    format!("{{\"correct\":true,\"attempted\":{attempted},\"failed\":0,\"metrics\":{{{m}}}}}")
}

fn untraced(args: &Args) -> workloads::Result<Run> {
    match args.workload.as_str() {
        "warm-repeat" => workloads::warm_repeat(args.seed, args.seconds),
        "cold-distinct" => workloads::cold_distinct(args.seed, args.seconds),
        "session-churn" => workloads::session_churn(args.seed, args.seconds),
        _ => workloads::paper_suite(args.seconds),
    }
}

fn print_figures(figures: &[Figure]) {
    for f in figures {
        println!(
            "  {:<34} {:>14.6} {:<6} n={}",
            f.name, f.value, f.unit, f.samples
        );
    }
}

fn run(args: &Args) -> workloads::Result<()> {
    println!(
        "kpabench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        let out = traced::run(&args.workload, args.seed, args.seconds)?;
        print_figures(&out.figures);
        println!("{}", meta_line(args, &out.figures));
        println!("{}", result_line(out.attempted, &out.figures));
        return Ok(());
    }
    let run = untraced(args)?;
    let n = run.op_ns.len();
    let values = [
        (stats::median(&run.setup_s), run.setup_s.len()),
        (run.rate(), n),
        (run.latency_ms(0.5), n),
        (run.latency_ms(0.9), n),
        (run.peak_rss_mb, 1),
    ];
    let mut figures: Vec<Figure> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Figure {
            name,
            value,
            unit,
            samples,
        })
        .collect();
    let end_to_end = figures.clone();
    figures.extend(run.figures.iter().cloned());
    figures.push(Figure {
        name: "fail_ratio",
        value: 0.0,
        unit: "ratio",
        samples: run.attempted as usize,
    });
    print_figures(&figures);
    println!("{}", meta_line(args, &figures));
    println!("{}", result_line(run.attempted, &end_to_end));
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--cold-pass") {
        return match workloads::suite_pass() {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kpabench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kpabench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_serve::json::Value;

    /// `BENCHMARK.json` at the repository root lists workloads this
    /// crate runs and exactly the metrics it reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = kpa_serve::json::parse(&text).expect("BENCHMARK.json is JSON");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let list = |key: &str, with_unit: bool| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        if with_unit {
                            field(m, "unit")
                        } else {
                            String::new()
                        },
                    )
                })
                .collect()
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end", true), owned(&END_TO_END));
        assert_eq!(list("per_layer", true), owned(&traced::PER_LAYER));
        for (name, _) in list("workloads", false) {
            assert!(WORKLOADS.contains(&name.as_str()), "{name}");
        }
    }
}
