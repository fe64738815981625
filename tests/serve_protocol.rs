//! Protocol-robustness suite for `kpa-serve`: malformed, truncated,
//! and oversized frames; session lifecycle; timeouts; limits; and
//! clean shutdown.
//!
//! The server's framing promise is that *no input sequence* makes it
//! panic, hang, or reply with anything other than a structured frame:
//! recoverable errors leave the connection usable, fatal ones are the
//! last frame before the server closes it. The fuzz half drives that
//! with the in-repo seeded `Rng64` — random bytes, random JSON-ish
//! mutants of valid requests — so every failure is replayable from
//! the property name and case index (same scheme as `tests/common`).
//!
//! Everything here runs against real TCP loopback sockets with short
//! timeouts; nothing sleeps longer than a few hundred milliseconds.

mod common;

use common::case_seed;
use kpa::measure::{rat, Rat, Rng64};
use kpa::serve::json::Value;
use kpa::serve::{
    Client, ClientError, QueryItem, QueryKind, ServeConfig, Server, SpecRound, SystemSpec,
};
use std::time::Duration;

/// A config with short limits, so limit paths run in test time.
fn tight_config() -> ServeConfig {
    ServeConfig {
        max_frame: 1 << 12,
        max_batch: 8,
        idle_timeout: Duration::from_millis(400),
        poll: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn connect(server: &Server) -> Client {
    Client::connect_with_deadline(server.local_addr(), Duration::from_secs(10)).expect("connect")
}

/// The error frame's `(code, fatal)` pair, or a panic if the frame is
/// not an error frame.
fn error_of(frame: &Value) -> (String, bool) {
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
    (
        frame
            .get("error")
            .and_then(Value::as_str)
            .expect("error code")
            .to_string(),
        frame
            .get("fatal")
            .and_then(Value::as_bool)
            .expect("fatal flag"),
    )
}

/// After a fatal frame the server closes; the next read must see EOF,
/// not a hang.
fn assert_closed(client: &mut Client) {
    match client.recv_frame() {
        Err(ClientError::Io(e)) => assert_ne!(
            e.kind(),
            std::io::ErrorKind::TimedOut,
            "connection should close, not hang"
        ),
        Ok(frame) => panic!("expected close, got frame {}", frame.to_json()),
        Err(other) => panic!("expected close, got {other}"),
    }
}

#[test]
fn malformed_frames_get_structured_errors() {
    let mut server = Server::bind(tight_config()).expect("bind");
    // (line, expected code, expected fatal)
    let cases: &[(&str, &str, bool)] = &[
        ("not json at all", "bad_json", true),
        ("{", "bad_json", true),
        ("{}garbage", "bad_json", true),
        ("[1,2,3]", "bad_request", true),
        ("{}", "bad_request", true),
        (r#"{"v":2,"op":"hello"}"#, "bad_request", true),
        (r#"{"v":1}"#, "bad_request", false),
        (r#"{"v":1,"op":"frobnicate"}"#, "unknown_op", false),
        (
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"x"}]}"#,
            "no_system",
            false,
        ),
        (
            r#"{"v":1,"op":"load","system":"nope","assignment":"post"}"#,
            "unknown_system",
            false,
        ),
        (
            r#"{"v":1,"op":"load","system":"die","assignment":"wat"}"#,
            "bad_request",
            false,
        ),
        (
            r#"{"v":1,"op":"load","assignment":"post"}"#,
            "bad_request",
            false,
        ),
        (
            r#"{"v":1,"op":"query","queries":[1,2,3,4,5,6,7,8,9]}"#,
            "bad_request",
            false, // batch limit (8) trips before item decoding
        ),
    ];
    for (line, code, fatal) in cases {
        let mut c = connect(&server);
        c.send_raw(line.as_bytes()).expect("send");
        let frame = c.recv_frame().expect("a structured reply");
        let (got_code, got_fatal) = error_of(&frame);
        assert_eq!(&got_code, code, "{line}");
        assert_eq!(got_fatal, *fatal, "{line}");
        if *fatal {
            assert_closed(&mut c);
        } else {
            // Recoverable: the same connection still answers hello.
            c.hello().expect("connection survived a recoverable error");
        }
    }
    // Non-UTF-8 bytes are a fatal bad_json.
    let mut c = connect(&server);
    c.send_raw(&[0xff, 0xfe, 0x80, 0x01]).expect("send");
    let (code, fatal) = error_of(&c.recv_frame().expect("reply"));
    assert_eq!(code, "bad_json");
    assert!(fatal);
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn oversized_and_truncated_frames() {
    let config = tight_config();
    let max = config.max_frame;
    let mut server = Server::bind(config).expect("bind");

    // A newline-less line growing past max_frame: fatal frame_too_long.
    let mut c = connect(&server);
    c.send_unterminated(&vec![b'a'; max + 64]).expect("send");
    let (code, fatal) = error_of(&c.recv_frame().expect("reply"));
    assert_eq!(code, "frame_too_long");
    assert!(fatal);
    assert_closed(&mut c);

    // A truncated frame followed by a dropped connection: the server
    // cleans up and keeps serving.
    let mut c = connect(&server);
    c.send_unterminated(br#"{"v":1,"op":"que"#).expect("send");
    drop(c);

    // Disconnect mid-batch: a valid query line, socket dropped before
    // reading the reply. The server must not wedge.
    let mut c = connect(&server);
    c.load_named("die", "post").expect("load");
    c.send_raw(
        br#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"die=1"},{"kind":"sat","formula":"die=2"}]}"#,
    )
    .expect("send");
    drop(c);

    // A depth bomb is a parse error (bounded recursion), not a crash.
    let mut c = connect(&server);
    let bomb = format!("{}{}", "[".repeat(512), "]".repeat(512));
    c.send_raw(bomb.as_bytes()).expect("send");
    let (code, fatal) = error_of(&c.recv_frame().expect("reply"));
    assert_eq!(code, "bad_json");
    assert!(fatal);

    // After all of that, fresh sessions work.
    let mut c = connect(&server);
    c.hello().expect("server still healthy");
    c.load_named("die", "post").expect("load");
    c.bye().expect("bye");
    server.shutdown();
}

/// Seeded fuzz: random byte soup and random mutations of valid
/// frames. The server must always answer with a structured frame or
/// close the connection — never hang (deadline), never panic (later
/// sessions still work), never reply unframed garbage (recv parses).
#[test]
fn fuzzed_frames_never_wedge_the_server() {
    const ROUNDS: usize = if cfg!(feature = "fuzz") { 96 } else { 32 };
    let mut server = Server::bind(tight_config()).expect("bind");
    let valid: &[&str] = &[
        r#"{"v":1,"op":"hello"}"#,
        r#"{"v":1,"op":"load","system":"die","assignment":"post"}"#,
        r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"die=1"}]}"#,
        r#"{"v":1,"op":"stats"}"#,
        r#"{"v":1,"op":"unload"}"#,
    ];
    for round in 0..ROUNDS {
        let mut rng = Rng64::new(case_seed("serve_protocol_fuzz", round));
        let mut c = Client::connect_with_deadline(server.local_addr(), Duration::from_secs(10))
            .expect("connect");
        // Each connection sends a few frames, then (usually) a probe.
        for _ in 0..1 + rng.index(4) {
            let line: Vec<u8> = match rng.index(3) {
                // Arbitrary bytes (newlines stripped so it stays one frame).
                0 => (0..rng.index(200))
                    .map(|_| {
                        let b = rng.next_u64() as u8;
                        if b == b'\n' {
                            b' '
                        } else {
                            b
                        }
                    })
                    .collect(),
                // A valid frame with random single-byte mutations.
                1 => {
                    let mut bytes = valid[rng.index(valid.len())].as_bytes().to_vec();
                    for _ in 0..1 + rng.index(4) {
                        let at = rng.index(bytes.len());
                        bytes[at] = {
                            let b = rng.next_u64() as u8;
                            if b == b'\n' {
                                b'x'
                            } else {
                                b
                            }
                        };
                    }
                    bytes
                }
                // A valid frame, verbatim.
                _ => valid[rng.index(valid.len())].as_bytes().to_vec(),
            };
            if c.send_raw(&line).is_err() {
                break; // server already closed on an earlier fatal error
            }
            match c.recv_frame() {
                Ok(frame) => {
                    // Every reply is a framed object with an `ok` flag.
                    let ok = frame.get("ok").and_then(Value::as_bool);
                    assert!(ok.is_some(), "unframed reply: {}", frame.to_json());
                    if ok == Some(false)
                        && frame.get("fatal").and_then(Value::as_bool) == Some(true)
                    {
                        break; // connection is closing; stop writing
                    }
                }
                Err(ClientError::Io(e)) => {
                    assert_ne!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut,
                        "server hung on fuzz round {round}"
                    );
                    break;
                }
                Err(other) => panic!("non-frame reply on round {round}: {other}"),
            }
        }
    }
    // The server survived the whole campaign.
    let mut c = connect(&server);
    c.hello().expect("healthy after fuzzing");
    server.shutdown();
}

/// A threshold the parser accepts (α ∈ [0, 1]) but whose cross products
/// with the system's measures overflow `i128` must still be answered
/// with a frame: comparison widens instead of panicking the
/// connection's thread. The first formula is the reproducer that used
/// to end in EOF.
#[test]
fn adversarial_rationals_get_reply_frames() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    c.load_named("die", "post").expect("load");
    let formulas = [
        "Pr{p3}(die=1) >= 85070591730234615865843651857942052863/170141183460469231731687303715884105727",
        "Pr{p3}(die=1) >= 170141183460469231731687303715884105726/170141183460469231731687303715884105727",
        "Pr{p3}(die=1) >= 1/170141183460469231731687303715884105727",
        "K{p3}(Pr{p1}(die=1) >= 28356863910078205288614550619314017621/170141183460469231731687303715884105727)",
    ];
    for (id, formula) in formulas.iter().enumerate() {
        let rows = c
            .query(&[QueryItem {
                id: id as i64,
                kind: QueryKind::Sat {
                    formula: (*formula).into(),
                },
            }])
            .unwrap_or_else(|e| panic!("no reply frame for {formula}: {e}"));
        assert_eq!(rows.len(), 1, "one result row for {formula}");
    }
    // The connection and the server are both still healthy.
    c.hello().expect("healthy after extreme thresholds");
    server.shutdown();
}

/// A frame just under the default `max_frame` carrying one long string
/// is parsed in linear time: the reply arrives well inside the client
/// deadline instead of after a quadratic re-scan of the string.
#[test]
fn long_string_frames_parse_in_linear_time() {
    let mut server = Server::bind(ServeConfig::default()).expect("bind");
    let mut c = Client::connect_with_deadline(server.local_addr(), Duration::from_secs(5))
        .expect("connect");
    let long = "x".repeat(900 << 10);
    c.request("hello", vec![("client", Value::Str(long))])
        .expect("hello reply within the deadline");
    c.hello().expect("connection still usable");
    server.shutdown();
}

/// A wire spec whose run probabilities overflow exact `i128`
/// rationals is a recoverable error frame, not a panicked connection.
#[test]
fn overflowing_spec_probabilities_get_an_error_frame() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    let spec = SystemSpec {
        agents: 2,
        two_adversaries: false,
        clockless_mask: 0,
        rounds: vec![
            SpecRound {
                bias: Rat::new(1, i128::MAX),
                observers: 1,
            },
            SpecRound {
                bias: rat!(1 / 3),
                observers: 2,
            },
        ],
    };
    match c.load_spec(&spec, "post") {
        Err(ClientError::Server { fatal, message, .. }) => {
            assert!(!fatal, "a bad spec must not end the connection");
            assert!(message.contains("overflow"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    c.hello().expect("connection still usable");
    server.shutdown();
}

/// Every reply — success and error alike — carries a server-minted
/// `trace_id` (16 lowercase hex digits), distinct per frame, so a
/// client can correlate any reply with the server's span trees.
#[test]
fn every_reply_echoes_a_distinct_trace_id() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    let trace_id_of = |frame: &Value| -> String {
        let id = frame
            .get("trace_id")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("reply lacks trace_id: {}", frame.to_json()))
            .to_string();
        assert_eq!(id.len(), 16, "trace id is 16 hex digits: {id:?}");
        assert!(
            id.chars().all(|ch| ch.is_ascii_hexdigit()),
            "trace id is hex: {id:?}"
        );
        id
    };
    let mut seen = std::collections::HashSet::new();
    // Success frames.
    for frame in [
        c.hello().expect("hello"),
        c.load_named("die", "post").expect("load"),
        c.stats().expect("stats"),
        c.metrics().expect("metrics"),
    ] {
        assert!(seen.insert(trace_id_of(&frame)), "trace ids must be fresh");
    }
    // Recoverable error frames carry one too.
    c.send_raw(br#"{"v":1,"op":"frobnicate"}"#).expect("send");
    let frame = c.recv_frame().expect("error frame");
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
    assert!(seen.insert(trace_id_of(&frame)));
    // And so do fatal ones — the last frame before the close.
    c.send_raw(b"not json").expect("send");
    let frame = c.recv_frame().expect("fatal frame");
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
    assert!(seen.insert(trace_id_of(&frame)));
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn session_lifecycle_pin_unpin_and_bye() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    c.load_named("die", "post").expect("load");
    let rows = c
        .query(&[QueryItem {
            id: 1,
            kind: QueryKind::Sat {
                formula: "die=1".into(),
            },
        }])
        .expect("query");
    assert_eq!(rows.len(), 1);
    c.unload().expect("unload");
    // Unpinned: queries fail recoverably, the session lives on.
    match c.query(&[QueryItem {
        id: 2,
        kind: QueryKind::Sat {
            formula: "die=1".into(),
        },
    }]) {
        Err(ClientError::Server { code, fatal, .. }) => {
            assert_eq!(code, "no_system");
            assert!(!fatal);
        }
        other => panic!("expected no_system, got {other:?}"),
    }
    // Re-pin a different pair on the same connection.
    c.load_named("secret-coin", "fut").expect("reload");
    c.query(&[QueryItem {
        id: 3,
        kind: QueryKind::Sat {
            formula: "c=h".into(),
        },
    }])
    .expect("query after reload");
    // bye: one ok frame, then close.
    c.bye().expect("bye acknowledged");
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn idle_sessions_are_reaped() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    // Go silent past the idle timeout; the server must *tell* us.
    let frame = c.recv_frame().expect("an idle_timeout frame, not silence");
    let (code, fatal) = error_of(&frame);
    assert_eq!(code, "idle_timeout");
    assert!(fatal);
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn connection_limit_is_a_structured_refusal() {
    let config = ServeConfig {
        max_conns: 2,
        ..tight_config()
    };
    let mut server = Server::bind(config).expect("bind");
    let mut a = connect(&server);
    let mut b = connect(&server);
    a.hello().expect("hello");
    b.hello().expect("hello");
    // Third connection: server_busy, then close.
    let mut c = connect(&server);
    let frame = c.recv_frame().expect("refusal frame");
    let (code, fatal) = error_of(&frame);
    assert_eq!(code, "server_busy");
    assert!(fatal);
    assert_closed(&mut c);
    // The two admitted connections are unaffected.
    a.load_named("die", "post").expect("still served");
    drop(a);
    drop(b);
    // Freed slots readmit new connections (allow a poll tick for the
    // accept loop to observe the closes).
    std::thread::sleep(Duration::from_millis(100));
    let mut d = connect(&server);
    d.hello().expect("slot freed");
    server.shutdown();
}

#[test]
fn shutdown_notifies_live_connections() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    let mut idle = connect(&server);
    idle.hello().expect("hello");
    server.shutdown();
    // Both connections got a fatal shutting_down frame (or, if the
    // close raced ahead of the read, a clean EOF).
    for client in [&mut c, &mut idle] {
        match client.recv_frame() {
            Ok(frame) => {
                let (code, fatal) = error_of(&frame);
                assert_eq!(code, "shutting_down");
                assert!(fatal);
            }
            Err(ClientError::Io(e)) => {
                assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "hang at shutdown");
            }
            Err(other) => panic!("unexpected reply at shutdown: {other}"),
        }
    }
    // New connections are refused outright (listener is gone).
    assert!(
        Client::connect_with_deadline(server.local_addr(), Duration::from_millis(200)).is_err()
    );
}
