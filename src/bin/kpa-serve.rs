//! `kpa-serve` — the model-checking service, as a process.
//!
//! ```console
//! $ kpa-serve --addr 127.0.0.1:4061
//! kpa-serve listening on 127.0.0.1:4061 (proto v1)
//! $ printf '%s\n' '{"v":1,"op":"load","system":"secret-coin","assignment":"post"}' \
//!       '{"v":1,"op":"query","queries":[{"kind":"holds","formula":"K{p3} c=h","point":[0,0,1]}]}' \
//!       '{"v":1,"op":"bye"}' | nc 127.0.0.1 4061
//! ```
//!
//! The process runs until stdin reaches EOF (so `kpa-serve < /dev/null`
//! exits immediately after binding, and an interactive run stops on
//! ctrl-d), a `quit` line is typed, or `--for-secs N` elapses —
//! whichever comes first. Shutdown is clean: the accept loop stops,
//! every live connection receives a fatal `shutting_down` frame, and
//! all threads are joined before the final stats print.
//!
//! Protocol, limits, and error codes are documented in
//! `kpa::serve::proto` and DESIGN.md §3.2g.

use kpa::serve::{ServeConfig, Server};
use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    config: ServeConfig,
    for_secs: Option<u64>,
    stats: bool,
    preload: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        config: ServeConfig::default(),
        for_secs: None,
        stats: false,
        preload: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |flag: &str, v: String| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a number; got {v:?}"))
        };
        match arg.as_str() {
            "--addr" => args.config.addr = take("--addr")?,
            "--max-conns" => {
                args.config.max_conns = num("--max-conns", take("--max-conns")?)? as usize;
            }
            "--max-frame" => {
                args.config.max_frame = num("--max-frame", take("--max-frame")?)? as usize;
            }
            "--max-batch" => {
                args.config.max_batch = num("--max-batch", take("--max-batch")?)? as usize;
            }
            "--idle-secs" => {
                args.config.idle_timeout =
                    Duration::from_secs(num("--idle-secs", take("--idle-secs")?)?);
            }
            "--for-secs" => args.for_secs = Some(num("--for-secs", take("--for-secs")?)?),
            "--stats" => args.stats = true,
            "--preload" => args.preload.push(take("--preload")?),
            "--help" | "-h" => {
                return Err("usage: kpa-serve [--addr HOST:PORT] [--max-conns N] \
                            [--max-frame BYTES] [--max-batch N] [--idle-secs N] \
                            [--for-secs N] [--stats] [--preload SYSTEM[/ASSIGNMENT]]...\n\
                            Runs until stdin EOF, a `quit` line, or --for-secs. \
                            --stats prints process metrics at exit. --preload warms \
                            the artifact cache at boot (e.g. --preload secret-coin/post; \
                            repeatable; assignment defaults to post)."
                    .to_owned())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let mut server =
        Server::bind(args.config.clone()).map_err(|e| format!("bind {}: {e}", args.config.addr))?;
    for spec in &args.preload {
        let (system, assignment) = match spec.split_once('/') {
            Some((s, a)) => (s, a),
            None => (spec.as_str(), "post"),
        };
        let key = server
            .shared()
            .preload(system, assignment)
            .map_err(|e| format!("--preload {spec}: {e}"))?;
        println!("kpa-serve preloaded {key}");
    }
    println!(
        "kpa-serve listening on {} (proto v{})",
        server.local_addr(),
        kpa::serve::PROTO_VERSION
    );
    match args.for_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => {
            // Block on stdin: EOF or an explicit `quit` stops the server.
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "quit" => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
    }
    let shared = std::sync::Arc::clone(server.shared());
    server.shutdown();
    if args.stats {
        let report = shared.proc().snapshot();
        print!("{}", report.render_table());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn argument_parsing() {
        let a = parse_args(&argv(&[
            "--addr",
            "127.0.0.1:0",
            "--max-conns",
            "8",
            "--max-frame",
            "4096",
            "--max-batch",
            "32",
            "--idle-secs",
            "2",
            "--for-secs",
            "0",
            "--stats",
            "--preload",
            "die/post",
            "--preload",
            "secret-coin",
        ]))
        .unwrap();
        assert_eq!(a.config.max_conns, 8);
        assert_eq!(a.config.max_frame, 4096);
        assert_eq!(a.config.max_batch, 32);
        assert_eq!(a.config.idle_timeout, Duration::from_secs(2));
        assert_eq!(a.for_secs, Some(0));
        assert!(a.stats);
        assert_eq!(a.preload, vec!["die/post", "secret-coin"]);
        assert!(parse_args(&argv(&["--frob"])).is_err());
        assert!(parse_args(&argv(&["--help"])).is_err());
        assert!(parse_args(&argv(&["--max-conns"])).is_err());
        assert!(parse_args(&argv(&["--max-conns", "x"])).is_err());
    }

    #[test]
    fn bind_serve_and_exit() {
        // --for-secs 0: bind, preload, serve nothing, shut down cleanly.
        run(&argv(&[
            "--addr",
            "127.0.0.1:0",
            "--for-secs",
            "0",
            "--stats",
            "--preload",
            "die",
        ]))
        .unwrap();
        // A bad address is a clean error, not a panic.
        assert!(run(&argv(&["--addr", "256.0.0.1:99999"])).is_err());
        // A bad preload spec is a clean error too.
        assert!(run(&argv(&[
            "--addr",
            "127.0.0.1:0",
            "--for-secs",
            "0",
            "--preload",
            "nope"
        ]))
        .is_err());
        // So is a zero idle timeout (the socket read timeout).
        assert!(run(&argv(&["--addr", "127.0.0.1:0", "--idle-secs", "0"])).is_err());
    }
}
