//! The benchmark's client side of the wire: a raw line client that
//! sends pre-rendered request lines and returns reply lines unparsed,
//! so client-side JSON work stays out of every timed round trip.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking connection speaking one request line, one reply line.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends `line` (newline-terminated) and returns the reply line
    /// without its newline.
    pub fn round_trip(&mut self, line: &[u8]) -> io::Result<&[u8]> {
        self.stream.write_all(line)?;
        self.buf.clear();
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                return Ok(&self.buf[..scanned + pos]);
            }
            scanned = self.buf.len();
            let len = self.buf.len();
            self.buf.resize(len + (1 << 16), 0);
            let n = self.stream.read(&mut self.buf[len..])?;
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }

    /// A round trip whose reply must be a success frame.
    pub fn expect_ok(&mut self, line: &[u8]) -> io::Result<()> {
        let reply = self.round_trip(line)?;
        let ok = std::str::from_utf8(reply)
            .ok()
            .and_then(|t| kpa_serve::json::parse(t).ok())
            .and_then(|v| v.get("ok").and_then(kpa_serve::json::Value::as_bool));
        if ok == Some(true) {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "error reply: {}",
                String::from_utf8_lossy(&reply[..reply.len().min(200)])
            )))
        }
    }
}

/// Pre-rendered control lines for one `(system, assignment)` pair.
pub struct Control {
    pub hello: Vec<u8>,
    pub load: Vec<u8>,
    pub bye: Vec<u8>,
}

impl Control {
    pub fn new(system: &str, assignment: &str) -> Control {
        let line = |s: String| format!("{s}\n").into_bytes();
        Control {
            hello: line(r#"{"id":1,"op":"hello","v":1}"#.to_string()),
            load: line(format!(
                r#"{{"assignment":"{assignment}","id":2,"op":"load","system":"{system}","v":1}}"#
            )),
            bye: line(r#"{"id":3,"op":"bye","v":1}"#.to_string()),
        }
    }

    /// Connect, `hello`, `load`: a session ready for queries.
    pub fn open(&self, addr: SocketAddr) -> io::Result<Conn> {
        let mut c = Conn::connect(addr)?;
        c.expect_ok(&self.hello)?;
        c.expect_ok(&self.load)?;
        Ok(c)
    }
}
