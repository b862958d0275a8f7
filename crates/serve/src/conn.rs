//! Socket transport — the only module in the workspace that touches
//! `TcpStream`/`TcpListener` (outside binaries); dlint rule D16 pins that
//! boundary. Everything above this layer deals in request/response bytes,
//! so the HTTP parsing, routing and handler logic are all testable (and
//! fuzzable) without a socket, and every read/write timeout policy lives in
//! exactly one place.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Per-connection read/write timeout: a stalled peer costs a worker at most
/// this long before the connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Hard cap on a request (start line + headers + body). Anything larger is
/// rejected while reading, before it can balloon worker memory.
pub const MAX_REQUEST_BYTES: usize = 1 << 16;

/// A bound listening socket.
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Listener> {
        Ok(Listener {
            inner: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Blocks until the next inbound connection.
    pub fn accept(&self) -> io::Result<Conn> {
        let (stream, _peer) = self.inner.accept()?;
        Conn::adopt(stream)
    }

    /// Takes every connection already waiting in the listen backlog without
    /// blocking. The accepted sockets themselves stay blocking.
    pub fn accept_pending(&self) -> Vec<Conn> {
        let mut pending = Vec::new();
        if self.inner.set_nonblocking(true).is_ok() {
            while let Ok((stream, _peer)) = self.inner.accept() {
                pending.extend(Conn::adopt(stream));
            }
            // Left non-blocking, the acceptor would spin on `accept`.
            self.inner
                .set_nonblocking(false)
                .expect("listener returns to blocking mode");
        }
        pending
    }
}

/// One accepted (or dialed) connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn adopt(stream: TcpStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// Reads one HTTP request's bytes: everything through the blank line,
    /// plus a `Content-Length` body when the headers announce one.
    pub fn read_request(&mut self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 2048];
        let header_end = loop {
            if let Some(end) = find_header_end(&buf) {
                break end;
            }
            if buf.len() >= MAX_REQUEST_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request headers exceed size cap",
                ));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let body_len = content_length(&buf[..header_end]).unwrap_or(0);
        let total = header_end.saturating_add(body_len);
        if total > MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request body exceeds size cap",
            ));
        }
        while buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        buf.truncate(total);
        Ok(buf)
    }

    /// Writes a full response and flushes it.
    pub fn write_response(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }
}

/// Byte offset just past the `\r\n\r\n` header terminator, if present.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses a `Content-Length` header out of raw header bytes.
fn content_length(headers: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(headers).ok()?;
    for line in text.split("\r\n") {
        let Some((name, value)) = line.split_once(':') else {
            continue; // the request line and the blank terminator
        };
        if name.eq_ignore_ascii_case("content-length") {
            return value.trim().parse().ok();
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Client side — used by the smoke gate and the integration tests, so neither
// ever needs to name a socket type (or reimplement timeout policy).
// ---------------------------------------------------------------------------

/// A request that has been written to the server but whose response has not
/// been read yet. The smoke gate floods the bounded queue with these.
#[derive(Debug)]
pub struct PendingRequest {
    conn: Conn,
}

impl PendingRequest {
    /// Dials `addr` and writes one full request without reading back.
    pub fn open(addr: SocketAddr, raw: &[u8]) -> io::Result<PendingRequest> {
        let mut conn = Conn::adopt(TcpStream::connect(addr)?)?;
        conn.stream.write_all(raw)?;
        conn.stream.flush()?;
        Ok(PendingRequest { conn })
    }

    /// Reads the response to completion (the server closes per request).
    pub fn finish(mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.conn.stream.read_to_end(&mut out)?;
        Ok(out)
    }
}

/// Sends one raw request and returns the raw response bytes.
pub fn roundtrip(addr: SocketAddr, raw: &[u8]) -> io::Result<Vec<u8>> {
    PendingRequest::open(addr, raw)?.finish()
}

/// Builds request bytes for a body-less `GET`.
#[must_use]
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: dcfail\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Builds request bytes for a `POST` with a JSON body.
#[must_use]
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: dcfail\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Dials and immediately hangs up — used to wake a blocked acceptor.
/// Errors are ignored: if the listener is already gone, the acceptor is
/// not blocked.
pub fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_is_found_past_terminator() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn content_length_parses_case_insensitively() {
        assert_eq!(
            content_length(b"POST / HTTP/1.1\r\ncontent-LENGTH: 12"),
            Some(12)
        );
        assert_eq!(content_length(b"GET / HTTP/1.1\r\nHost: x"), None);
    }

    #[test]
    fn request_builders_are_well_formed() {
        let get = get_request("/registry");
        assert!(get.starts_with(b"GET /registry HTTP/1.1\r\n"));
        assert!(get.ends_with(b"\r\n\r\n"));
        let post = post_request("/whatif", "{}");
        let text = String::from_utf8(post).unwrap();
        assert!(text.contains("Content-Length: 2"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
