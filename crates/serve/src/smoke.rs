//! The daemon's end-to-end self-check behind `repro serve --smoke`.
//!
//! [`smoke`] starts a daemon on an ephemeral port, drives every endpoint
//! over real sockets and checks the contract the rest of this crate
//! promises: report bytes equal to the library's own envelope, hit or miss;
//! typed errors; a live `/metrics`; typed 429s from a held pool; one render
//! for concurrent cold reads; a bounded whatif cache that never evicts a
//! default artifact; and a shutdown that frees the port. It prints nothing;
//! the caller reads the [`Smoke`] summary or the first deviation.
//!
//! The daemon must own the process-global obs window, so nothing else may
//! hold one while the smoke runs: `/metrics` would answer 503.

use crate::conn::{get_request, post_request, roundtrip, PendingRequest};
use crate::http::split_response;
use crate::{serve, ServeConfig, ServerHandle};
use dcfail_report::toolkit::VARIANT_CAP;
use dcfail_report::{ExperimentId, RunConfig, Toolkit};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// What a passing smoke counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Smoke {
    /// Reports served byte-identical to the library envelope, miss and hit.
    pub reports: usize,
    /// Flood requests shed with a typed 429.
    pub shed: usize,
    /// Concurrent cold reads of one artifact that cost a single render.
    pub cold_reads: usize,
    /// Distinct whatif seeds sent: ten more than the variant cap.
    pub whatif_seeds: usize,
    /// Cache entries those seeds added (at most the variant cap).
    pub cached: usize,
    /// Cache entries those seeds evicted.
    pub evicted: u64,
}

/// `Err(msg())` unless `ok`.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// One request, `"GET /path"` or `"POST /path body"`, that must answer
/// `status` with `needle` in its body, which it gives back.
fn expect(addr: SocketAddr, request: &str, status: u16, needle: &str) -> Result<String, String> {
    let raw = match request.split_once(' ') {
        Some(("POST", rest)) => {
            let (path, body) = rest.split_once(' ').unwrap_or((rest, ""));
            post_request(path, body)
        }
        _ => get_request(request.trim_start_matches("GET ")),
    };
    let response =
        roundtrip(addr, &raw).map_err(|e| format!("{request}: roundtrip failed: {e}"))?;
    let (got, body) = split_response(&response).ok_or("unparseable HTTP response")?;
    let body = String::from_utf8(body).map_err(|_| format!("{request}: non-UTF-8 body"))?;
    ensure(got == status && body.contains(needle), || {
        format!("{request} answered {got}, want {status} with {needle:?}: {body}")
    })?;
    Ok(body)
}

/// Runs the smoke against a daemon over the paper scenario at `seed` and
/// `scale`, with `workers` workers and a request queue `queue` deep.
///
/// # Errors
///
/// The outer error: the daemon could not start, so nothing was checked.
/// The inner one: it started and broke its contract; the first deviation.
pub fn smoke(
    seed: u64,
    scale: f64,
    workers: usize,
    queue: usize,
) -> io::Result<Result<Smoke, String>> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue,
        seed,
        scale,
        metrics: true,
        ingest: true,
    };
    Ok(check(serve(config.clone())?, &config))
}

/// The smoke's checklist over a started daemon; the first deviation.
#[allow(clippy::too_many_lines)] // one linear checklist; splitting obscures the gate
fn check(handle: ServerHandle, config: &ServeConfig) -> Result<Smoke, String> {
    let (addr, seed, scale, queue) = (handle.addr(), config.seed, config.scale, config.queue);
    // The daemon's own window: its counters, 0 when never counted.
    let counter = |name: &str| {
        let window = handle
            .state()
            .with_obs(|obs| obs.snapshot().counter(name).unwrap_or(0));
        window.ok_or("the daemon does not own the obs window")
    };

    // Every report twice, a miss then a hit, diffed byte-for-byte against
    // the library's own envelope: the CLI == server identity.
    let reference = Toolkit::build_scaled(RunConfig::with_seed(seed), scale);
    for id in ExperimentId::ALL {
        for _ in 0..2 {
            let body = expect(addr, &format!("GET /reports/{id}"), 200, "")?;
            ensure(body == *reference.envelope_json(id), || {
                format!("/reports/{id} bytes diverge from the library envelope")
            })?;
        }
    }

    // The remaining endpoints: status plus a structural needle each.
    expect(addr, "GET /registry", 200, "\"experiments\"")?;
    expect(addr, "POST /whatif", 200, "\"experiment_id\":\"whatif\"")?;
    let bad_seed = "POST /whatif {\"seed\": \"nope\"}";
    expect(addr, bad_seed, 400, "bad_request_body")?;
    expect(addr, "POST /audit", 200, "\"clean\":true")?;
    expect(addr, "GET /reports/nope", 404, "unknown_experiment")?;
    expect(addr, "GET /nope", 404, "not_found")?;
    expect(addr, "POST /registry", 405, "method_not_allowed")?;
    expect(addr, "GET /whatif", 405, "method_not_allowed")?;
    ensure(handle.wait_for_alerts(0), || {
        "background stream ingest did not complete".to_string()
    })?;
    expect(addr, "GET /stream/alerts", 200, "\"complete\":true")?;
    for needle in "serve.requests serve.status.200 serve.latency_ms toolkit.cache_hit".split(' ') {
        expect(addr, "GET /metrics", 200, needle)?;
    }

    // Backpressure: hold the pool, overfill the bounded queue, and require
    // typed 429s while nothing can drain. Absorbed capacity while held is
    // at most `workers` (each parked at the gate holding one connection)
    // plus `queue`, and at least the queue. Dropping the handle on an
    // early return resumes the pool.
    handle.hold_workers();
    let flood = config.workers + queue + 3;
    let (status_tx, status_rx) = std::sync::mpsc::channel();
    for _ in 0..flood {
        let pending = PendingRequest::open(addr, &get_request("/registry"))
            .map_err(|e| format!("flood connection failed: {e}"))?;
        let tx = status_tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(pending.finish().ok().and_then(|raw| split_response(&raw)));
        });
    }
    drop(status_tx);
    // While the pool is held, the only responses that can complete are the
    // acceptor's sheds: collect three, which must all be the typed 429.
    let (mut statuses, wait) = (Vec::new(), Duration::from_secs(30));
    for _ in 0..3 {
        let shed = status_rx.recv_timeout(wait).ok().flatten();
        let typed = |(status, body): &(u16, Vec<u8>)| {
            *status == 429 && String::from_utf8_lossy(body).contains("queue_full")
        };
        let answered = shed.as_ref().map(|(status, _)| *status);
        ensure(shed.as_ref().is_some_and(typed), || {
            format!("a held pool answered {answered:?}, not a typed 429")
        })?;
        statuses.push(429);
    }
    handle.release_workers();
    for outcome in &status_rx {
        let (status, _) = outcome.ok_or("flooded connection got no parseable response")?;
        statuses.push(status);
    }
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    ensure(
        shed >= 3 && served >= queue && served + shed == flood,
        || format!("bounded queue misbehaved: {served} served, {shed} shed of {flood}"),
    )?;

    // Single flight: a publish leaves every artifact cold, and readers the
    // held pool releases together onto one cold key cost one render. At
    // most `queue` of them, so the queue alone absorbs them and none sheds.
    let cold_reads = queue.max(1);
    let misses_before = counter("toolkit.cache_miss")?;
    handle.publish_rebuilt(seed.wrapping_add(1), scale);
    handle.hold_workers();
    let pending = (0..cold_reads)
        .map(|_| PendingRequest::open(addr, &get_request("/reports/fig8")))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("cold read connection failed: {e}"))?;
    handle.release_workers();
    for request in pending {
        let status = request.finish().ok().and_then(|raw| split_response(&raw));
        ensure(status.as_ref().is_some_and(|(s, _)| *s == 200), || {
            "a cold /reports/fig8 was not served".to_string()
        })?;
    }
    let renders = counter("toolkit.cache_miss")?.saturating_sub(misses_before);
    ensure(renders == 1, || {
        format!("{cold_reads} concurrent cold reads of fig8 cost {renders} renders, want 1")
    })?;

    // Bounded cache: distinct whatif seeds past the variant cap add at most
    // the cap to the cache, each seed past the cap evicts one, and every
    // default artifact survives as the very render cached before.
    let toolkit = handle.state().current();
    let defaults = ExperimentId::ALL.map(|id| toolkit.render(id));
    let cached_before = toolkit.cache_len();
    let evicted_before = counter("toolkit.cache_evicted")?;
    let whatif_seeds = VARIANT_CAP + 10;
    for k in 0..whatif_seeds as u64 {
        let request = format!("POST /whatif {{\"seed\": {}}}", seed.wrapping_add(1000 + k));
        expect(addr, &request, 200, "\"experiment_id\":\"whatif\"")?;
    }
    let cached = toolkit.cache_len().saturating_sub(cached_before);
    ensure(cached <= VARIANT_CAP, || {
        format!("{whatif_seeds} whatif seeds added {cached} cached artifacts, cap {VARIANT_CAP}")
    })?;
    let evicted = counter("toolkit.cache_evicted")?.saturating_sub(evicted_before);
    let want = (whatif_seeds - VARIANT_CAP) as u64;
    ensure(evicted == want, || {
        format!("{whatif_seeds} whatif seeds counted {evicted} evictions, want {want}")
    })?;
    for (&id, before) in ExperimentId::ALL.iter().zip(&defaults) {
        ensure(Arc::ptr_eq(&toolkit.render(id), before), || {
            format!("default artifact {id} was evicted by the whatif flood")
        })?;
    }

    // Clean shutdown: threads join, the obs window closes with every
    // request counted, the port frees.
    let report = handle
        .shutdown()
        .ok_or("shutdown did not return the final metrics report")?;
    let reports = ExperimentId::ALL.len();
    ensure(
        report.counter("serve.requests") >= Some(2 * reports as u64)
            && report.histogram("serve.latency_ms").is_some(),
        || "the final metrics report lost requests or their latencies".to_string(),
    )?;
    // The listener is gone: a fresh dial fails, or closes unanswered or
    // with the draining 503.
    let after = roundtrip(addr, &get_request("/registry")).unwrap_or_default();
    ensure(
        after.is_empty() || split_response(&after).is_some_and(|(s, _)| s == 503),
        || "listener still serving after shutdown".to_string(),
    )?;

    Ok(Smoke {
        reports,
        shed,
        cold_reads,
        whatif_seeds,
        cached,
        evicted,
    })
}
