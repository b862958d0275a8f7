//! End-to-end tests over a live server on an ephemeral port: golden digests
//! for every endpoint, concurrent byte-identity across worker counts,
//! typed errors for requests that cannot be framed, and atomic data-version
//! invalidation. Hit == miss bytes, 429 backpressure, the bounded whatif
//! cache and clean shutdown are legs of the smoke (`tests/smoke.rs`).
//!
//! All servers here run with metrics off (the smoke's daemon owns the
//! process-global obs window, in a test binary of its own) and build their
//! snapshots at a small scale so the suite stays fast.

#![allow(clippy::unwrap_used)]

use dcfail_report::{ExperimentId, RunConfig, Toolkit};
use dcfail_serve::conn::{get_request, post_request, roundtrip};
use dcfail_serve::http::split_response;
use dcfail_serve::{serve_toolkit, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const SCALE: f64 = 0.02;

fn start(workers: usize, queue: usize, ingest: bool) -> ServerHandle {
    let toolkit = Toolkit::build_scaled(RunConfig::with_seed(42), SCALE);
    let config = ServeConfig {
        workers,
        queue,
        seed: 42,
        scale: SCALE,
        metrics: false,
        ingest,
        ..ServeConfig::default()
    };
    serve_toolkit(config, toolkit, None).expect("bind ephemeral port")
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let raw = roundtrip(addr, &get_request(path)).expect("roundtrip");
    split_response(&raw).expect("parse response")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<u8>) {
    let raw = roundtrip(addr, &post_request(path, body)).expect("roundtrip");
    split_response(&raw).expect("parse response")
}

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Pinned digest over every deterministic endpoint's body at seed 42,
/// scale 0.02, data version 0: `/registry`, all 24 `/reports/:id`,
/// `/whatif` (default and re-seeded), `/audit`, `/stream/alerts`.
const GOLDEN: u64 = 0x09aa07e7ae861c4a;

#[test]
fn golden_digest_over_every_endpoint() {
    let server = start(2, 64, true);
    let addr = server.addr();
    assert!(server.wait_for_alerts(0), "ingest did not complete");

    let mut hash: u64 = 0xcbf29ce484222325;
    for (path, body) in [
        ("registry", get(addr, "/registry")),
        ("whatif", post(addr, "/whatif", "")),
        ("whatif:7", post(addr, "/whatif", "{\"seed\": 7}")),
        ("audit", post(addr, "/audit", "")),
        ("alerts", get(addr, "/stream/alerts")),
    ] {
        assert_eq!(
            body.0,
            200,
            "{path} failed: {:?}",
            String::from_utf8(body.1)
        );
        hash = fnv(hash, path.as_bytes());
        hash = fnv(hash, &body.1);
    }
    for id in ExperimentId::ALL {
        let (status, body) = get(addr, &format!("/reports/{id}"));
        assert_eq!(status, 200, "/reports/{id} failed");
        hash = fnv(hash, &body);
    }
    assert_eq!(
        hash, GOLDEN,
        "served endpoint bytes changed: digest {hash:#018x} != pinned \
         {GOLDEN:#018x}. If the change is intentional, update GOLDEN in \
         crates/serve/tests/server.rs."
    );
    server.shutdown();
}

#[test]
fn malformed_content_length_is_a_typed_400() {
    let server = start(1, 8, false);
    let addr = server.addr();
    let whatif = |length_headers: &str| {
        let raw = format!(
            "POST /whatif HTTP/1.1\r\nHost: dcfail\r\n{length_headers}\
             Connection: close\r\n\r\n{{\"seed\": 7}}"
        );
        split_response(&roundtrip(addr, raw.as_bytes()).expect("roundtrip")).expect("parse")
    };
    for (case, length_headers) in [
        ("negative", "Content-Length: -5\r\n"),
        ("not a number", "Content-Length: eleven\r\n"),
        ("overflowing", "Content-Length: 99999999999999999999999\r\n"),
        (
            "conflicting duplicates",
            "Content-Length: 0\r\nContent-Length: 11\r\n",
        ),
    ] {
        let (status, body) = whatif(length_headers);
        assert_eq!(status, 400, "{case}: {}", String::from_utf8_lossy(&body));
        assert!(
            String::from_utf8(body)
                .unwrap()
                .contains("\"error\":\"bad_content_length\""),
            "{case}: the 400 must carry the typed code"
        );
    }
    // Identical duplicates frame the body, so the seed is read.
    let (status, body) = whatif("Content-Length: 11\r\nContent-Length: 11\r\n");
    assert_eq!(status, 200);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("\"config_digest\":\"0x4bd7a317074c5b62\""));
    server.shutdown();
}

#[test]
fn oversized_requests_are_a_typed_413_or_431() {
    let server = start(1, 8, false);
    let addr = server.addr();
    let refused = |raw: &[u8]| {
        let response = roundtrip(addr, raw).expect("roundtrip");
        let (status, body) = split_response(&response).expect("an answer before the close");
        (status, String::from_utf8(body).unwrap())
    };
    // A body announced past the cap: 11 bytes of it sent, then every byte,
    // which the server must drain so its answer is not lost to a reset.
    for sent in [11, 70_000] {
        let mut raw = b"POST /whatif HTTP/1.1\r\nHost: dcfail\r\nContent-Length: 70000\r\n\
                        Connection: close\r\n\r\n"
            .to_vec();
        raw.resize(raw.len() + sent, b' ');
        let (status, body) = refused(&raw);
        assert_eq!(status, 413, "{sent} bytes sent: {body}");
        assert!(body.contains("\"error\":\"content_too_large\""), "{body}");
    }
    let raw = format!(
        "GET /registry HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(70_000)
    );
    let (status, body) = refused(raw.as_bytes());
    assert_eq!(status, 431, "{body}");
    assert!(body.contains("\"error\":\"headers_too_large\""), "{body}");
    // The worker survived: the next request is served normally.
    assert_eq!(get(addr, "/registry").0, 200);
    server.shutdown();
}

/// Writes `raw` to a fresh connection `piece` bytes per write, each sent
/// on its own, then reads the response to the close.
fn trickle(addr: SocketAddr, raw: &[u8], piece: usize) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for part in raw.chunks(piece) {
        stream.write_all(part).expect("write a piece");
    }
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("read the response");
    let (status, body) = split_response(&response).expect("an answer before the close");
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn a_trickled_head_is_framed_as_a_whole_one_is() {
    let server = start(1, 8, false);
    let addr = server.addr();
    // A head past the cap, written a few bytes at a time: refused by size.
    let raw = format!(
        "GET /registry HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(70_000)
    );
    let (status, body) = trickle(addr, raw.as_bytes(), 61);
    assert_eq!(status, 431, "{body}");
    assert!(body.contains("\"error\":\"headers_too_large\""), "{body}");
    // The worker survived: the next request is served normally.
    assert_eq!(get(addr, "/registry").0, 200);
    // A valid request written one byte at a time gets its answer.
    let (status, body) = trickle(addr, &get_request("/registry"), 1);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.as_bytes(), get(addr, "/registry").1);
    server.shutdown();
}

#[test]
fn data_version_bump_invalidates_atomically() {
    let server = start(4, 64, false);
    let addr = server.addr();
    let (status, old) = get(addr, "/reports/table2");
    assert_eq!(status, 200);
    assert!(String::from_utf8(old.clone())
        .unwrap()
        .contains("\"data_version\":0"));

    // Readers hammer the endpoint while the snapshot is republished; every
    // body must be exactly the old bytes or exactly the new bytes.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let observed = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                        seen.push(get(addr, "/reports/table2").1);
                    }
                    seen
                })
            })
            .collect();
        let bumped = server.publish_rebuilt(1905, SCALE);
        assert_eq!(bumped, 1);
        // One more read after the publish so the new version is observed.
        let after = get(addr, "/reports/table2").1;
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let mut observed: Vec<Vec<u8>> = readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader"))
            .collect();
        observed.push(after);
        observed
    });

    let new = get(addr, "/reports/table2").1;
    assert_ne!(old, new, "published snapshot must change the bytes");
    assert!(String::from_utf8(new.clone())
        .unwrap()
        .contains("\"data_version\":1"));
    for body in &observed {
        assert!(
            body == &old || body == &new,
            "torn read: body matches neither snapshot"
        );
    }
    assert!(
        observed.iter().any(|b| b == &new),
        "post-publish read must see the new snapshot"
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_not_a_hung_worker() {
    let server = start(1, 8, false);
    let addr = server.addr();
    let raw = roundtrip(addr, b"NONSENSE\r\n\r\n").expect("roundtrip");
    let (status, body) = split_response(&raw).expect("parse");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("malformed_request"));
    // The worker survived: the next request is served normally.
    assert_eq!(get(addr, "/registry").0, 200);
    server.shutdown();
}

#[test]
fn deeply_nested_json_body_is_a_typed_400_not_a_stack_overflow() {
    let server = start(1, 8, false);
    let addr = server.addr();
    // Far past the parser's nesting bound, yet under the request cap.
    let (status, body) = post(addr, "/whatif", &"[".repeat(60_000));
    assert_eq!(status, 400);
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("bad_request_body"), "{body}");
    assert!(body.contains("recursion limit"), "{body}");
    // The worker survived: the next request is served normally.
    assert_eq!(get(addr, "/registry").0, 200);
    server.shutdown();
}
