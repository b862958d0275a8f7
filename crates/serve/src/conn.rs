//! Socket transport — the only module in the workspace that touches
//! `TcpStream`/`TcpListener` (outside binaries); dlint rule D16 pins that
//! boundary. Everything above this layer deals in request/response bytes,
//! so the HTTP parsing, routing and handler logic are all testable (and
//! fuzzable) without a socket, and every read/write timeout policy lives in
//! exactly one place.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long a whole request may take to arrive, however its bytes trickle
/// in, and how long [`Conn::refuse`]'s drain may run; also each write's
/// timeout. A stalled or trickling peer costs a worker, or the acceptor
/// for a shed connection, at most this long per phase before the
/// connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Hard cap on a request (start line + headers + body). Anything larger is
/// rejected while reading, before it can balloon worker memory.
pub const MAX_REQUEST_BYTES: usize = 1 << 16;

/// Most bytes [`Conn::refuse`] reads and drops after its answer, so a peer
/// that keeps sending cannot hold a worker for long.
const LINGER_BYTES: usize = 16 * MAX_REQUEST_BYTES;

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
    /// The read timeout last set on the socket.
    read_timeout: Duration,
}

/// One time budget for a run of reads: a request, or a refusal's drain.
/// It starts at the run's first read.
struct Deadline {
    limit: Duration,
    started: Option<Instant>,
}

impl Deadline {
    fn new(limit: Duration) -> Self {
        Deadline {
            limit,
            started: None,
        }
    }

    /// The time left for the next read: all of it for the first.
    fn left(&mut self) -> Duration {
        if let Some(started) = self.started {
            return self.limit.saturating_sub(started.elapsed());
        }
        self.started = Some(Instant::now());
        self.limit
    }
}

impl Conn {
    fn adopt(stream: TcpStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            read_timeout: IO_TIMEOUT,
        })
    }

    /// One read of a run bounded by `deadline`. The socket's read timeout
    /// is re-armed with the time left only when it differs, so the first
    /// read of an [`IO_TIMEOUT`] run, which a request that arrives whole
    /// needs alone, makes no extra syscall.
    fn read_by(&mut self, deadline: &mut Deadline, chunk: &mut [u8]) -> io::Result<usize> {
        let left = deadline.left();
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline passed"));
        }
        if left != self.read_timeout {
            self.stream.set_read_timeout(Some(left))?;
            self.read_timeout = left;
        }
        self.stream.read(chunk)
    }

    /// Reads one HTTP request's bytes: everything through the blank line,
    /// plus a `Content-Length` body when the headers announce one. The
    /// whole request gets 10 s (`IO_TIMEOUT`), not each read.
    pub fn read_request(&mut self) -> Result<Vec<u8>, ReadError> {
        self.read_request_within(IO_TIMEOUT)
    }

    /// [`Conn::read_request`] with `limit` for the whole request. A head
    /// never grows past [`MAX_REQUEST_BYTES`].
    fn read_request_within(&mut self, limit: Duration) -> Result<Vec<u8>, ReadError> {
        let mut deadline = Deadline::new(limit);
        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 2048];
        // Bytes of `buf` already scanned without finding the terminator.
        let mut scanned = 0;
        let header_end = loop {
            if let Some(end) = header_end_after(&buf, scanned) {
                break end;
            }
            let room = MAX_REQUEST_BYTES - buf.len();
            if room == 0 {
                return Err(ReadError::HeadersTooLarge);
            }
            scanned = buf.len();
            let n = self.read_by(&mut deadline, &mut chunk[..room.min(2048)])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                )
                .into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let body_len = content_length(&buf[..header_end]).map_err(ReadError::BadContentLength)?;
        let total = header_end.saturating_add(body_len);
        if total > MAX_REQUEST_BYTES {
            return Err(ReadError::ContentTooLarge);
        }
        while buf.len() < total {
            let n = self.read_by(&mut deadline, &mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                )
                .into());
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

    /// Writes the answer to a request that was refused while reading, then
    /// closes gracefully. The peer may still be sending what the refusal
    /// left unread, and closing a socket with unread bytes sends a TCP RST
    /// that can destroy the answer before the client reads it. So the
    /// write side shuts first and up to 1 MiB more are read and dropped,
    /// until the peer closes or 10 s (`IO_TIMEOUT`) have passed.
    pub fn refuse(self, bytes: &[u8]) -> io::Result<()> {
        self.refuse_within(bytes, IO_TIMEOUT)
    }

    /// [`Conn::refuse`] with `limit` for the drain.
    fn refuse_within(mut self, bytes: &[u8], limit: Duration) -> io::Result<()> {
        self.write_response(bytes)?;
        self.stream.shutdown(Shutdown::Write)?;
        let mut deadline = Deadline::new(limit);
        let mut chunk = [0u8; 2048];
        let mut drained = 0;
        while drained < LINGER_BYTES {
            match self.read_by(&mut deadline, &mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
        Ok(())
    }
}

/// Byte offset just past the `\r\n\r\n` header terminator, if present.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// [`find_header_end`] of `buf` when its first `scanned` bytes hold no
/// terminator: one that ends past them starts at most 3 bytes before their
/// end, so the scan resumes there. Each read then costs its own bytes, not
/// the whole head again, however finely a client trickles the head.
fn header_end_after(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    find_header_end(&buf[from..]).map(|end| from + end)
}

/// Why [`Conn::read_request`] yielded no request.
#[derive(Debug)]
pub enum ReadError {
    /// The socket failed or timed out, or the peer closed early. Nothing
    /// can be answered.
    Io(io::Error),
    /// The head's `Content-Length` cannot frame a body: the server answers
    /// a typed 400 and closes the connection (RFC 9112 §6.3).
    BadContentLength(String),
    /// The head announces a body that takes the request past
    /// [`MAX_REQUEST_BYTES`]: a typed 413, and the connection closes.
    ContentTooLarge,
    /// The head outgrew [`MAX_REQUEST_BYTES`] before its blank line: a
    /// typed 431, and the connection closes.
    HeadersTooLarge,
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// The body length a request head announces, 0 without a `Content-Length`
/// header. A value that is not a plain decimal or overflows `usize`, or
/// duplicate headers that disagree, cannot frame the body; identical
/// duplicates can.
fn content_length(head: &[u8]) -> Result<usize, String> {
    let mut length = None;
    for line in head.split(|&b| b == b'\n') {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue; // the request line and the blank terminator
        };
        if !line[..colon].eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        let value = line[colon + 1..].trim_ascii();
        let parsed = std::str::from_utf8(value)
            .ok()
            .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| {
                format!(
                    "Content-Length {:?} is not a decimal length",
                    String::from_utf8_lossy(value)
                )
            })?;
        match length {
            Some(first) if first != parsed => {
                return Err(format!(
                    "duplicate Content-Length headers disagree: {first} and {parsed}"
                ));
            }
            _ => length = Some(parsed),
        }
    }
    Ok(length.unwrap_or(0))
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
    use crate::http::parse_request;
    use proptest::prelude::*;

    /// Request fragments, `|`-separated, that the fragment fuzz strings
    /// together, so random input reaches the framing logic instead of
    /// failing at the first byte.
    const FRAGMENTS: &str = "GET|POST| |/whatif|?seed=7| HTTP/1.1|\r\n|\n|Content-Length|\
        content-LENGTH|:| 7|-3|0x1f|99999999999999999999999|{}";

    /// A well-formed `POST` whose head states each of `lengths` in its own
    /// `Content-Length` header, with a 7-byte body.
    fn post_with_lengths(lengths: &[String]) -> Vec<u8> {
        let mut raw = b"POST /whatif HTTP/1.1\r\nHost: dcfail\r\n".to_vec();
        for length in lengths {
            raw.extend_from_slice(format!("Content-Length: {length}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n{\"a\":1}");
        raw
    }

    /// A `Content-Length` value: decimal, negative, non-decimal or past
    /// `usize`.
    fn length_text(pick: u8, n: u64) -> String {
        match pick {
            0 | 1 => n.to_string(),
            2 => format!("-{n}"),
            3 => format!("{n:x}h"),
            _ => format!("{}{n}", usize::MAX),
        }
    }

    /// Fails unless `framed`, `content_length`'s answer for `head`, is a
    /// length the head states: with no header only 0, else the value of
    /// every `Content-Length` header, each a plain decimal.
    fn assert_stated(head: &[u8], framed: Option<usize>) {
        let Some(n) = framed else { return };
        let stated: Vec<&[u8]> = head
            .split(|&b| b == b'\n')
            .filter_map(|line| {
                let colon = line.iter().position(|&b| b == b':')?;
                let named = line[..colon].eq_ignore_ascii_case(b"content-length");
                named.then(|| line[colon + 1..].trim_ascii())
            })
            .collect();
        assert!(n == 0 || !stated.is_empty(), "{n} framed from no header");
        for value in stated {
            let decimal = !value.is_empty() && value.iter().all(u8::is_ascii_digit);
            let parsed = std::str::from_utf8(value).ok().and_then(|v| v.parse().ok());
            assert!(decimal && parsed == Some(n), "{n} framed from {value:?}");
        }
    }

    /// The read path over `bytes` as one read delivered them: the head's
    /// end, its framed length, and the request parsed from the framed bytes.
    fn read_path(bytes: &[u8]) {
        let end = find_header_end(bytes);
        if let Some(end) = end {
            assert_eq!(&bytes[end - 4..end], b"\r\n\r\n");
            assert_eq!(find_header_end(&bytes[..end - 1]), None, "an earlier end");
        }
        let head = &bytes[..end.unwrap_or(bytes.len())];
        let framed = content_length(head).ok();
        assert_stated(head, framed);
        let total = head.len().saturating_add(framed.unwrap_or(0));
        let framed = &bytes[..total.min(bytes.len())];
        if let Ok(request) = parse_request(framed) {
            assert!(!request.method.is_empty() && framed.ends_with(&request.body));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Bytes rich in `\r` and `\n`, read in arbitrary chunks: after
        /// every read the resumed scan finds exactly the end the scan of the
        /// whole buffer finds.
        fn resumed_scan_matches_the_whole_buffer_scan(
            picks in prop::collection::vec(0usize..4, 0..300),
            reads in prop::collection::vec(1usize..9, 1..64),
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| b"\r\nA\r"[i]).collect();
            let (mut buf, mut scanned) = (Vec::new(), 0);
            for &n in reads.iter().cycle() {
                let next = (buf.len() + n).min(bytes.len());
                buf.extend_from_slice(&bytes[buf.len()..next]);
                let found = header_end_after(&buf, scanned);
                prop_assert_eq!(found, find_header_end(&buf));
                if found.is_some() || buf.len() == bytes.len() {
                    break;
                }
                scanned = buf.len();
            }
        }

        /// Arbitrary bytes: framed and parsed, or refused with a typed
        /// error, never a panic.
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
            read_path(&bytes);
        }

        /// Strings of request fragments reach past the first byte.
        fn request_fragments_never_panic(picks in prop::collection::vec(0usize..16, 0..48)) {
            let fragments: Vec<&str> = FRAGMENTS.split('|').collect();
            let request: String = picks.iter().map(|&i| fragments[i]).collect();
            read_path(request.as_bytes());
        }

        /// A valid request with its `Content-Length` repeated, negative,
        /// non-decimal or past `usize`, read in two parts, or with one
        /// byte flipped.
        fn mangled_requests_frame_only_a_stated_length(
            picks in prop::collection::vec(0u8..5, 0..4),
            n in 0u64..100_000,
            split in 0usize..512,
            flip in 0usize..512,
            mask in 1u8..=255,
        ) {
            let lengths: Vec<String> = picks.iter().map(|&p| length_text(p, n)).collect();
            let mut raw = post_with_lengths(&lengths);
            let end = find_header_end(&raw).expect("a built request has a whole head");
            let split = split % (raw.len() + 1);
            prop_assert_eq!(find_header_end(&raw[..split]), (split >= end).then_some(end));
            read_path(&raw[..split]);
            read_path(&raw);
            let at = flip % raw.len();
            raw[at] ^= mask;
            read_path(&raw);
        }
    }

    #[test]
    fn header_end_is_found_past_terminator() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn content_length_parses_case_insensitively() {
        assert_eq!(
            content_length(b"POST / HTTP/1.1\r\ncontent-LENGTH: 12"),
            Ok(12)
        );
        assert_eq!(content_length(b"GET / HTTP/1.1\r\nHost: x"), Ok(0));
    }

    #[test]
    fn content_length_frames_only_a_well_formed_length() {
        for (head, framed) in [
            ("POST / HTTP/1.1\r\nContent-Length:  7 \r\n\r\n", Some(7)),
            (
                "POST / HTTP/1.1\r\nContent-Length: 11\r\nContent-Length: 11",
                Some(11),
            ),
            ("POST / HTTP/1.1\r\nContent-Length: -5", None),
            ("POST / HTTP/1.1\r\nContent-Length: +5", None),
            ("POST / HTTP/1.1\r\nContent-Length: eleven", None),
            ("POST / HTTP/1.1\r\nContent-Length:", None),
            ("POST / HTTP/1.1\r\nContent-Length: 5, 5", None),
            (
                "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999",
                None,
            ),
            (
                "POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 11",
                None,
            ),
        ] {
            assert_eq!(content_length(head.as_bytes()).ok(), framed, "{head:?}");
        }
    }

    /// Accepts one connection on an ephemeral port and runs `server` on it
    /// while `client` writes to the other end.
    fn on_loopback<T>(client: impl FnOnce(TcpStream) + Send, server: impl FnOnce(Conn) -> T) -> T {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || client(TcpStream::connect(addr).unwrap()));
            server(listener.accept().unwrap())
        })
    }

    /// Reads one request while `client` writes to the other end.
    fn read_one(client: impl FnOnce(TcpStream) + Send) -> Result<Vec<u8>, ReadError> {
        on_loopback(client, |mut conn| conn.read_request())
    }

    /// Writes `head`, then more, one byte every 20 ms for 5 s or until the
    /// server hangs up: each read gets a byte long before any per-read
    /// timeout.
    fn trickle(mut stream: TcpStream, head: &[u8]) {
        for &byte in head.iter().chain(std::iter::repeat(&b'a')).take(250) {
            if stream.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// How long `run` takes, with what it returns.
    fn timed<T>(run: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let got = run();
        (got, started.elapsed())
    }

    #[test]
    fn a_request_in_one_read_keeps_the_armed_timeout() {
        let raw = get_request("/registry");
        let sent = raw.clone();
        let (got, read_timeout) = on_loopback(
            move |mut stream| stream.write_all(&sent).unwrap(),
            |mut conn| (conn.read_request().unwrap(), conn.read_timeout),
        );
        assert_eq!(got, raw);
        assert_eq!(read_timeout, IO_TIMEOUT, "the socket was re-armed");
    }

    /// Reads one request within `limit` while `client` writes, and fails
    /// unless the read timed out at the deadline.
    fn assert_cut_off(client: impl FnOnce(TcpStream) + Send) {
        let limit = Duration::from_millis(300);
        let (got, took) = on_loopback(client, |mut conn| timed(|| conn.read_request_within(limit)));
        match got {
            Err(ReadError::Io(e)) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{e}"
            ),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(took >= limit && took < limit * 10, "cut off after {took:?}");
    }

    #[test]
    fn a_trickling_peer_is_cut_off_at_the_deadline() {
        assert_cut_off(|stream| trickle(stream, b"GET / HTTP/1.1\r\nX-Slow: "));
    }

    #[test]
    fn a_stalled_peer_is_cut_off_at_the_deadline() {
        // Half a head, then silence until the server hangs up (at most
        // 5 s): the read that waits must end at the deadline.
        assert_cut_off(|mut stream| {
            stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let _ = stream.read(&mut [0u8]);
        });
    }

    #[test]
    fn a_trickling_peer_is_cut_off_while_a_refusal_drains() {
        let limit = Duration::from_millis(300);
        let (done, took) = on_loopback(
            |stream| trickle(stream, b""),
            |conn| timed(|| conn.refuse_within(b"HTTP/1.1 431 \r\n\r\n", limit)),
        );
        done.unwrap();
        assert!(took >= limit && took < limit * 10, "drained for {took:?}");
    }

    #[test]
    fn an_endless_head_is_refused_at_the_cap() {
        // Bytes counting up mod 251 never hold a blank line, and the first
        // byte the reader left tells how many it took. Paced blocks of 1 kB
        // arrive in reads that do not end on the cap.
        let block: Vec<u8> = (0..251 * 4).map(|i| (i % 251) as u8).collect();
        let (got, next) = on_loopback(
            move |mut stream| {
                while stream.write_all(&block).is_ok() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
            |mut conn| {
                let got = conn.read_request();
                let mut next = [0u8];
                conn.stream.read_exact(&mut next).unwrap();
                (got, next[0])
            },
        );
        assert!(matches!(got, Err(ReadError::HeadersTooLarge)), "{got:?}");
        assert_eq!(usize::from(next), MAX_REQUEST_BYTES % 251);
    }

    #[test]
    fn a_trickled_request_is_read_whole_and_no_further() {
        let raw = post_request("/whatif", "{}");
        let sent = raw.clone();
        let got = read_one(move |mut stream| {
            for byte in sent {
                stream.write_all(&[byte]).unwrap();
            }
            // The server may hang up once the request is whole, so these
            // writes may fail.
            for &byte in b"GET / HTTP/1.1\r\n\r\n" {
                if stream.write_all(&[byte]).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        assert_eq!(got, raw);
    }

    #[test]
    fn a_peer_closing_mid_body_is_an_io_error() {
        let got = read_one(|mut stream| {
            stream
                .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap();
        });
        match got {
            Err(ReadError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                assert_eq!(e.to_string(), "connection closed mid-body");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_requests_are_refused_before_their_bytes_are_read() {
        let big = format!("POST / HTTP/1.1\r\nContent-Length: {MAX_REQUEST_BYTES}\r\n\r\n");
        let got = read_one(move |mut stream| {
            let _ = stream.write_all(big.as_bytes());
        });
        assert!(matches!(got, Err(ReadError::ContentTooLarge)), "{got:?}");
        let got = read_one(|mut stream| {
            let _ = stream.write_all(&vec![b'a'; MAX_REQUEST_BYTES]);
        });
        assert!(matches!(got, Err(ReadError::HeadersTooLarge)), "{got:?}");
        let got = read_one(|mut stream| {
            let _ = stream.write_all(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n");
        });
        assert!(
            matches!(got, Err(ReadError::BadContentLength(_))),
            "{got:?}"
        );
    }

    #[test]
    fn the_resumed_scan_finds_a_terminator_split_across_reads() {
        let head = b"GET / HTTP/1.1\r\n\r\n";
        for scanned in 0..=17 {
            assert_eq!(
                header_end_after(head, scanned),
                Some(18),
                "scanned {scanned}"
            );
        }
        assert_eq!(header_end_after(b"GET / HTTP/1.1\r\n", 16), None);
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
