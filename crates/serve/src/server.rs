//! The TCP server: listener, per-connection framing, limits, and
//! clean shutdown.
//!
//! # Threading model
//!
//! One thread blocked in `accept` plus one thread per live connection,
//! all on blocking std I/O. Connections are bounded by
//! [`ServeConfig::max_conns`]; a connection over the limit receives a
//! fatal `server_busy` frame and is closed, rather than queueing
//! invisibly.
//!
//! # Framing
//!
//! Requests are read with `read_until` through a `BufReader` capped at
//! [`ServeConfig::max_frame`]` + 1` bytes per line, so an endless line
//! is cut off with a fatal `frame_too_long` frame before it is buffered
//! past that bound. Pipelined lines are processed in order. Each frame
//! gets a server-minted trace id, echoed as `trace_id` on its reply and
//! installed as the thread's ambient span id while `KPA_TRACE=1` — the
//! hook that stitches kernel spans into per-request trees.
//!
//! # Timeouts and shutdown
//!
//! The socket read timeout is [`ServeConfig::idle_timeout`]: a read
//! that times out reaps the connection with a fatal `idle_timeout`
//! frame. [`Server::shutdown`] (also run on drop) sets the stop flag,
//! wakes the blocked `accept` with one loopback connect, and joins the
//! acceptor. It then shuts down the read half of every registered
//! socket, so each blocked read returns, the thread sends a fatal
//! `shutting_down` frame on the open write half, and is joined. When
//! `shutdown` returns no server thread is running, and every client has
//! seen either its reply or a structured goodbye.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json;
use crate::proto::{codes, decode, ProtoError};
use crate::session::{After, Session, SharedState};

/// Tunables for one server instance. `Default` is suitable for tests
/// and local exploration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Maximum simultaneous connections; the next one is refused with
    /// `server_busy`.
    pub max_conns: usize,
    /// Maximum request-line length in bytes, excluding the `\n`: a
    /// longer line gets a fatal `frame_too_long`, however its bytes
    /// arrive.
    pub max_frame: usize,
    /// Maximum items in one `query` batch.
    pub max_batch: usize,
    /// Idle time after which a silent connection is reaped with
    /// `idle_timeout` (the socket read timeout; must be nonzero).
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            max_frame: 1 << 20,
            max_batch: 1024,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// Live connection threads, each with a clone of its socket so
/// shutdown can wake a blocked read.
type Registry = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running server: owns the accept loop and every connection
/// thread. Dropping it is [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<SharedState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Registry,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `idle_timeout` is zero; otherwise propagates
    /// bind I/O errors.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        if config.idle_timeout.is_zero() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "idle_timeout must be nonzero",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(SharedState::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Registry::default();

        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("kpa-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &config, &shared, &stop, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            local_addr,
            shared,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the real port when `:0` was asked).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The process-wide state (artifact cache + metrics) — the soak
    /// bench and the binary report from here.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// Stops accepting, notifies every live connection, and joins all
    /// server threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // Wake the blocked accept; the loop sees the flag and returns.
            let _ = TcpStream::connect(self.local_addr);
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns"));
        for (h, stream) in conns {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &ServeConfig,
    shared: &Arc<SharedState>,
    stop: &Arc<AtomicBool>,
    conns: &Registry,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let mut live = conns.lock().expect("conns");
        // Reap finished threads so the registry counts live
        // connections, not history.
        live.retain(|(h, _)| !h.is_finished());
        if live.len() >= config.max_conns {
            shared.proc().counter("proc.conns_refused").add(1);
            refuse(stream);
            continue;
        }
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        shared.proc().counter("proc.conns_opened").add(1);
        let shared = Arc::clone(shared);
        let stop = Arc::clone(stop);
        let config = config.clone();
        let handle = std::thread::Builder::new()
            .name("kpa-serve-conn".to_string())
            .spawn(move || {
                serve_connection(&stream, &config, &shared, &stop);
                // The registry's clone keeps the socket open, so close
                // it explicitly: the peer must see EOF after `bye` or a
                // fatal frame.
                let _ = stream.shutdown(Shutdown::Both);
            })
            .expect("spawn connection thread");
        live.push((handle, registered));
    }
}

/// Refuse an over-limit connection with a structured goodbye.
fn refuse(mut stream: TcpStream) {
    let e = ProtoError::fatal(codes::SERVER_BUSY, "connection limit reached");
    let mut line = e.frame(None).to_json();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// Sends one frame; `false` means the peer is gone.
fn send(mut stream: &TcpStream, frame: &json::Value) -> bool {
    let mut line = frame.to_json();
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}

fn serve_connection(
    stream: &TcpStream,
    config: &ServeConfig,
    shared: &Arc<SharedState>,
    stop: &Arc<AtomicBool>,
) {
    if stream.set_read_timeout(Some(config.idle_timeout)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut session = Session::open(Arc::clone(shared));
    let frame_ns = session.scope().histogram("session.frame_ns");
    let frame_win = session.scope().rolling("session.frame_ns");
    let proc_frame_ns = shared.proc().histogram("proc.frame_ns");
    let proc_frame_win = shared.proc().rolling("proc.frame_ns");

    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        let read = (&mut reader)
            .take(config.max_frame as u64 + 1)
            .read_until(b'\n', &mut line);
        if stop.load(Ordering::SeqCst) {
            let e = ProtoError::fatal(codes::SHUTTING_DOWN, "server is shutting down");
            let _ = send(stream, &e.frame(None));
            return;
        }
        match read {
            Ok(_) if line.last() == Some(&b'\n') => {
                // The frame's trace id is echoed on the reply and is the
                // ambient span id for everything evaluated under it.
                let trace_id = kpa_trace::next_trace_id();
                let _req = kpa_trace::ambient_guard(trace_id);
                let started = Instant::now();
                let done = handle_line(&line, stream, &mut session, config, trace_id);
                let ns = started.elapsed().as_nanos() as u64;
                frame_ns.record(ns);
                frame_win.record(ns);
                proc_frame_ns.record(ns);
                proc_frame_win.record(ns);
                if done {
                    return;
                }
            }
            Ok(_) if line.len() > config.max_frame => {
                let e = ProtoError::fatal(
                    codes::FRAME_TOO_LONG,
                    format!(
                        "request line exceeds {} bytes without a newline",
                        config.max_frame
                    ),
                );
                let _ = send(stream, &e.frame(None));
                return;
            }
            // Peer closed, between frames or mid-line (nothing to answer).
            Ok(_) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                shared.proc().counter("proc.idle_reaped").add(1);
                let e = ProtoError::fatal(codes::IDLE_TIMEOUT, "connection idle too long");
                let _ = send(stream, &e.frame(None));
                return;
            }
            Err(_) => return,
        }
    }
}

/// Stamps the frame's correlating `trace_id` (16 hex digits) before it
/// goes on the wire. Every reply to a received frame carries one —
/// success and error alike; only connection-level notices sent with no
/// request in flight (busy/idle/shutdown) go untagged.
fn tag(mut frame: json::Value, trace_id: kpa_trace::TraceId) -> json::Value {
    if let json::Value::Obj(m) = &mut frame {
        m.insert("trace_id".to_string(), json::Value::Str(trace_id.to_hex()));
    }
    frame
}

/// Processes one request line (with its `\n`); `true` means the
/// connection is done.
fn handle_line(
    raw: &[u8],
    stream: &TcpStream,
    session: &mut Session,
    config: &ServeConfig,
    trace_id: kpa_trace::TraceId,
) -> bool {
    // Strip the newline, tolerate CRLF clients, and skip blank
    // keepalive lines.
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
    if raw.is_empty() {
        return false;
    }
    let text = match std::str::from_utf8(raw) {
        Ok(t) => t,
        Err(_) => {
            let e = ProtoError::fatal(codes::BAD_JSON, "request line is not UTF-8");
            let _ = send(stream, &tag(e.frame(None), trace_id));
            return true;
        }
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(err) => {
            let e = ProtoError::fatal(codes::BAD_JSON, err.to_string());
            let _ = send(stream, &tag(e.frame(None), trace_id));
            return true;
        }
    };
    let env = match decode(&value, config.max_batch) {
        Ok(env) => env,
        Err(e) => {
            let id = value.get("id").and_then(json::Value::as_int);
            let _ = send(stream, &tag(e.frame(id), trace_id));
            return e.fatal;
        }
    };
    let (frame, after) = session.handle(&env);
    if !send(stream, &tag(frame, trace_id)) {
        return true;
    }
    after == After::Close
}
