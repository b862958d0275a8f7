//! Minimal HTTP/1.1 message types: parse a request from raw bytes, render a
//! response to raw bytes. Pure functions over byte slices — no sockets —
//! so the whole protocol layer unit-tests without a listener.

use std::fmt;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component only; any `?query` suffix is split off.
    pub path: String,
    /// Raw query string after `?`, without the `?` (empty when absent).
    pub query: String,
    /// Request body bytes (empty unless `Content-Length` announced one).
    pub body: Vec<u8>,
}

/// Why a byte buffer failed to parse as a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line was missing or not `METHOD PATH VERSION`.
    BadStartLine,
    /// The bytes before the body were not valid UTF-8.
    BadEncoding,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadStartLine => f.write_str("malformed request line"),
            ParseError::BadEncoding => f.write_str("request head is not UTF-8"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one request from the exact bytes `conn::Conn::read_request`
/// produced (headers always complete, body already length-delimited).
pub fn parse_request(raw: &[u8]) -> Result<Request, ParseError> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    let head = std::str::from_utf8(&raw[..header_end]).map_err(|_| ParseError::BadEncoding)?;
    let start = head.split("\r\n").next().ok_or(ParseError::BadStartLine)?;
    let mut parts = start.split_ascii_whitespace();
    let method = parts.next().ok_or(ParseError::BadStartLine)?;
    let target = parts.next().ok_or(ParseError::BadStartLine)?;
    if parts.next().is_none() {
        return Err(ParseError::BadStartLine);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: query.to_string(),
        body: raw[header_end..].to_vec(),
    })
}

/// An HTTP response ready to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, 429, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A JSON error response: `{"error": CODE, "detail": ...}`.
    ///
    /// `code` is the *typed* part of the contract — stable, machine-matchable
    /// strings like `"queue_full"` (429) or `"shutting_down"` (503) — while
    /// `detail` is free-form prose for humans.
    #[must_use]
    pub fn error(status: u16, code: &str, detail: &str) -> Response {
        let body = serde::Value::Object(vec![
            ("error".to_string(), serde::Value::Str(code.to_string())),
            ("detail".to_string(), serde::Value::Str(detail.to_string())),
        ]);
        Response::json(status, serde_json::to_string(&body).unwrap_or_default())
    }

    /// Renders the response to wire bytes. Header set is fixed and minimal
    /// (`Content-Type`, `Content-Length`, `Connection: close`), so a given
    /// `Response` value always renders byte-identically.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Canonical reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Splits a raw response into `(status, body_bytes)` — test/smoke helper,
/// tolerant of any header set.
#[must_use]
pub fn split_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    let header_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&raw[..header_end]).ok()?;
    let status = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some((status, raw[header_end..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_with_query_and_body() {
        let raw = b"POST /whatif?seed=7 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/whatif");
        assert_eq!(req.query, "seed=7");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn bad_start_line_is_typed() {
        assert_eq!(parse_request(b"\r\n\r\n"), Err(ParseError::BadStartLine));
        assert_eq!(
            parse_request(b"GET\r\n\r\n").unwrap_err(),
            ParseError::BadStartLine
        );
    }

    #[test]
    fn response_bytes_are_deterministic_and_parse_back() {
        let resp = Response::json(200, "{\"ok\":true}".to_string());
        let bytes = resp.to_bytes();
        assert_eq!(bytes, resp.to_bytes());
        let (status, body) = split_response(&bytes).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }

    #[test]
    fn typed_errors_carry_a_stable_code() {
        let resp = Response::error(429, "queue_full", "bounded request queue is full");
        let (status, body) = split_response(&resp.to_bytes()).unwrap();
        assert_eq!(status, 429);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"error\":\"queue_full\""));
    }

    #[test]
    fn only_the_head_must_be_utf8() {
        let err = parse_request(b"GET /\xff HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::BadEncoding);
        assert_eq!(err.to_string(), "request head is not UTF-8");
        let req = parse_request(b"POST /audit HTTP/1.1\r\n\r\n\xff\x00").unwrap();
        assert_eq!(req.body, b"\xff\x00");
    }

    #[test]
    fn method_is_upper_cased_and_an_unterminated_head_has_no_body() {
        let req = parse_request(b"get /registry HTTP/1.1").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/registry");
        assert_eq!(req.query, "");
        assert!(req.body.is_empty());
        assert_eq!(
            ParseError::BadStartLine.to_string(),
            "malformed request line"
        );
    }

    #[test]
    fn rendered_head_carries_reason_and_content_length() {
        let bytes = Response::json(503, "{}").to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("\r\nContent-Length: 2\r\n"));
        assert!(text.ends_with("Connection: close\r\n\r\n{}"));
        let unlisted = Response::json(418, "").to_bytes();
        assert!(unlisted.starts_with(b"HTTP/1.1 418 Unknown\r\n"));
    }

    #[test]
    fn split_response_needs_a_complete_head_and_numeric_status() {
        assert_eq!(split_response(b"HTTP/1.1 200 OK\r\n"), None);
        assert_eq!(split_response(b"HTTP/1.1 OK\r\n\r\nbody"), None);
        assert_eq!(
            split_response(b"HTTP/1.1 404 Not Found\r\nX: y\r\n\r\n"),
            Some((404, Vec::new()))
        );
    }
}
