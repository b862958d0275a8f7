//! End-to-end tests over a live server on an ephemeral port: golden digests
//! for every endpoint, concurrent byte-identity across worker counts,
//! cache-hit == cache-miss bytes, deterministic 429 backpressure, atomic
//! data-version invalidation, and clean shutdown.
//!
//! All servers here run with metrics off (the process-global obs window is
//! exercised separately in `tests/metrics.rs`) and build their snapshots at
//! a small scale so the suite stays fast.

#![allow(clippy::unwrap_used)]

use dcfail_report::toolkit::VARIANT_CAP;
use dcfail_report::{ExperimentId, RunConfig, Toolkit};
use dcfail_serve::conn::{get_request, post_request, roundtrip, PendingRequest};
use dcfail_serve::http::split_response;
use dcfail_serve::{serve_toolkit, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;

const SCALE: f64 = 0.02;

fn test_config(workers: usize, queue: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue,
        seed: 42,
        scale: SCALE,
        metrics: false,
        ingest: false,
        ..ServeConfig::default()
    }
}

fn start(workers: usize, queue: usize, ingest: bool) -> ServerHandle {
    let toolkit = Toolkit::build_scaled(RunConfig::with_seed(42), SCALE);
    let config = ServeConfig {
        ingest,
        ..test_config(workers, queue)
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
fn concurrent_clients_get_byte_identical_bodies_at_every_worker_count() {
    // The reference bytes come from the same library call the CLI's
    // `repro --json` uses, so this also pins CLI == server equality.
    let reference = Toolkit::build_scaled(RunConfig::with_seed(42), SCALE)
        .envelope_json(ExperimentId::Fig2)
        .as_bytes()
        .to_vec();
    for workers in [1, 2, 8] {
        let server = start(workers, 64, false);
        let addr = server.addr();
        let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || get(addr, "/reports/fig2")))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (status, body) = h.join().expect("client thread");
                    assert_eq!(status, 200);
                    body
                })
                .collect()
        });
        for body in &bodies {
            assert_eq!(
                body, &reference,
                "{workers}-worker server served bytes != library envelope"
            );
        }
        server.shutdown();
    }
}

#[test]
fn cache_hit_serves_the_same_bytes_as_the_miss() {
    let server = start(1, 16, false);
    let addr = server.addr();
    let miss = get(addr, "/reports/table5");
    let hit = get(addr, "/reports/table5");
    assert_eq!(miss.0, 200);
    assert_eq!(miss, hit, "cached render must be byte-identical");
    server.shutdown();
}

#[test]
fn whatif_seed_flood_keeps_the_cache_bounded() {
    let server = start(2, 64, false);
    let addr = server.addr();
    for id in ExperimentId::ALL {
        assert_eq!(get(addr, &format!("/reports/{id}")).0, 200);
    }
    let toolkit = server.state().current();
    let warm: Vec<_> = ExperimentId::ALL
        .iter()
        .map(|&id| toolkit.render(id))
        .collect();
    for seed in 1000..1000 + VARIANT_CAP + 10 {
        let (status, _) = post(addr, "/whatif", &format!("{{\"seed\": {seed}}}"));
        assert_eq!(status, 200, "whatif seed {seed}");
    }
    let bound = ExperimentId::ALL.len() + VARIANT_CAP;
    assert!(
        toolkit.cache_len() <= bound,
        "{} cached entries after a whatif flood, bound {bound}",
        toolkit.cache_len()
    );
    for (&id, before) in ExperimentId::ALL.iter().zip(&warm) {
        assert!(
            Arc::ptr_eq(&toolkit.render(id), before),
            "default artifact {id} was evicted"
        );
    }
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
fn full_queue_returns_typed_429_backpressure() {
    let server = start(1, 2, false);
    let addr = server.addr();
    server.hold_workers();

    // Capacity while held: 1 in-flight at the gate + 2 queued = 3. Six
    // pending requests guarantee at least three immediate typed 429s.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut readers = Vec::new();
    for _ in 0..6 {
        let pending = PendingRequest::open(addr, &get_request("/registry")).expect("open");
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || {
            let raw = pending.finish().expect("read response");
            let (status, body) = split_response(&raw).expect("parse");
            tx.send((status, body)).expect("report status");
        }));
    }
    drop(tx);

    // While the pool is held, the only responses that can complete are the
    // shed ones — and they must be the typed 429.
    let (first_status, first_body) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("a shed response while workers are held");
    assert_eq!(first_status, 429);
    assert!(
        String::from_utf8(first_body)
            .unwrap()
            .contains("\"error\":\"queue_full\""),
        "429 must carry the typed queue_full code"
    );

    server.release_workers();
    let mut statuses = vec![first_status];
    statuses.extend(rx.iter().map(|(status, _)| status));
    for reader in readers {
        reader.join().expect("reader thread");
    }
    assert_eq!(statuses.len(), 6);
    let served = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    assert_eq!(served + shed, 6, "only 200/429 expected: {statuses:?}");
    assert!(shed >= 3, "bounded queue absorbed too much: {statuses:?}");
    assert!(served >= 2, "held requests must be served after release");
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
fn shutdown_drains_and_releases_the_port() {
    let server = start(2, 8, false);
    let addr = server.addr();
    assert_eq!(get(addr, "/registry").0, 200);
    server.shutdown();
    // The listener is gone: a fresh dial must fail outright (refused) or
    // be closed without a response.
    match roundtrip(addr, &get_request("/registry")) {
        Err(_) => {}
        Ok(raw) => assert!(
            raw.is_empty() || split_response(&raw).map(|(s, _)| s) == Some(503),
            "post-shutdown connection must not be served a 200"
        ),
    }
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
