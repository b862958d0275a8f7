//! `serve_reads`: `nproc` closed-loop HTTP clients against a dcfail-serve
//! daemon over a prebuilt scale-1.0 Toolkit whose cache is warm.
//!
//! Every connection cycles `GET /registry` plus `GET /reports/:id` over all
//! 24 ids, one request per TCP connection (the daemon closes after each
//! response).

use crate::measure::{
    between_probes, counter, derive_seed, fnv, median, ms_since, quantile_sorted, raw_and_probe,
    scaled_median, Report, FNV_OFFSET, PROBE_REF_MS,
};
use crate::Settings;
use dcfail_obs::{MetricsReport, ObsHandle};
use dcfail_report::{ExperimentId, RunConfig, Toolkit};
use dcfail_serve::conn::{get_request, roundtrip};
use dcfail_serve::http::split_response;
use dcfail_serve::{serve_toolkit, ServeConfig, ServerHandle};
use dcfail_synth::Scenario;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Scenario scale of the served snapshot.
pub const SCALE: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Bounded request-queue capacity of the daemon.
const QUEUE: usize = 64;
/// Every `CHECK_STRIDE`-th 200 body of a connection is checked byte for
/// byte (by digest) against `Toolkit::envelope_json`; coprime with the 25
/// paths, so every path is checked.
const CHECK_STRIDE: u64 = 7;
/// Seconds between host-speed probes. The traced run alternates untraced
/// and traced slices of the same length.
const CADENCE_S: f64 = 1.0;
/// Upper bound on one connection's request rate, to size its latency log
/// once: pages of the log that are never written stay out of peak RSS, and
/// no doubling reallocation lands in it.
const MAX_RATE_PER_CONNECTION: f64 = 50_000.0;

/// Layers `serve_reads` never enters in its window.
const COLD_LAYERS: [&str; 8] = [
    "synth.build_ms",
    "synth.telemetry_ms",
    "synth.incidents_ms",
    "synth.tickets_ms",
    "report.prediction_ms",
    "report.fig8_ms",
    "report.whatif_ms",
    "report.rest_ms",
];

/// The read mix: `/registry` then `/reports/:id` for every id.
fn read_paths() -> Vec<String> {
    std::iter::once("/registry".to_string())
        .chain(ExperimentId::ALL.iter().map(|id| format!("/reports/{id}")))
        .collect()
}

/// Expected body digests, by read-path index: the registry as served at
/// set-up, and every report as `toolkit` renders it.
fn reference(toolkit: &Toolkit, registry: &str) -> Vec<u64> {
    toolkit.render_all();
    std::iter::once(fnv(FNV_OFFSET, registry.as_bytes()))
        .chain(
            ExperimentId::ALL
                .iter()
                .map(|&id| fnv(FNV_OFFSET, toolkit.envelope_json(id).as_bytes())),
        )
        .collect()
}

/// One request as seen by a client.
enum Outcome {
    Ok(Vec<u8>),
    Shed,
    Failed(String),
}

fn request(addr: SocketAddr, raw: &[u8]) -> Outcome {
    match roundtrip(addr, raw).map(|r| split_response(&r)) {
        Ok(Some((200, body))) => Outcome::Ok(body),
        Ok(Some((429 | 503, _))) => Outcome::Shed,
        Ok(Some((status, body))) => Outcome::Failed(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&body)
        )),
        Ok(None) => Outcome::Failed("unparsable response".into()),
        Err(e) => Outcome::Failed(format!("io: {e}")),
    }
}

/// What one read connection did in the window.
#[derive(Default)]
struct ReaderLog {
    /// (start offset in the window in s, latency in ms) of every request.
    latencies: Vec<(f64, f64)>,
    /// (end offset in s, wall time in ms) of each complete sweep over the
    /// 25 paths.
    sweeps: Vec<(f64, f64)>,
    /// (path index, body digest) of the spot-checked bodies.
    samples: Vec<(usize, u64)>,
    ok: u64,
    shed: u64,
    failures: Vec<String>,
    bytes: u64,
}

fn reader(
    addr: SocketAddr,
    offset: usize,
    window: Instant,
    seconds: f64,
    pause: &RwLock<()>,
) -> ReaderLog {
    let requests: Vec<Vec<u8>> = read_paths().iter().map(|p| get_request(p)).collect();
    let n = requests.len();
    let mut log = ReaderLog {
        latencies: Vec::with_capacity((seconds * MAX_RATE_PER_CONNECTION) as usize),
        ..ReaderLog::default()
    };
    let mut sweep_start = Instant::now();
    for k in 0u64.. {
        // Held for the request only: a probe (see `drive`) waits for the
        // requests in flight and holds the next ones back.
        let _running = pause
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let started = Instant::now();
        let at = started.duration_since(window).as_secs_f64();
        if at >= seconds {
            break;
        }
        let step = k as usize % n;
        if step == 0 {
            sweep_start = started;
        }
        let path = (offset + step) % n;
        let outcome = request(addr, &requests[path]);
        log.latencies.push((at, ms_since(started)));
        match outcome {
            Outcome::Ok(body) => {
                log.ok += 1;
                log.bytes += body.len() as u64;
                if k % CHECK_STRIDE == 0 {
                    log.samples.push((path, fnv(FNV_OFFSET, &body)));
                }
            }
            Outcome::Shed => log.shed += 1,
            Outcome::Failed(e) => log.failures.push(e),
        }
        if step == n - 1 {
            log.sweeps
                .push((window.elapsed().as_secs_f64(), ms_since(sweep_start)));
        }
    }
    log
}

/// A running daemon over a warm scale-1.0 snapshot.
struct Served {
    server: ServerHandle,
    registry: String,
}

/// Set-up: build the snapshot, start the daemon, warm its artifact cache
/// through the served path.
fn start(settings: &Settings, seed: u64) -> Result<Served, String> {
    let dataset = Scenario::paper()
        .seed(seed)
        .scale(SCALE)
        .build()
        .into_dataset();
    let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(seed));
    let config = ServeConfig {
        workers: settings.nproc,
        queue: QUEUE,
        seed,
        scale: SCALE,
        metrics: false,
        ingest: false,
        ..ServeConfig::default()
    };
    let server = serve_toolkit(config, toolkit, None).map_err(|e| format!("bind: {e}"))?;
    let mut registry = String::new();
    for (i, path) in read_paths().iter().enumerate() {
        match request(server.addr(), &get_request(path)) {
            Outcome::Ok(body) if i == 0 => registry = String::from_utf8_lossy(&body).into(),
            Outcome::Ok(_) => {}
            _ => return Err(format!("warm-up GET {path} failed")),
        }
    }
    Ok(Served { server, registry })
}

/// Round trips each client makes in one [`Loopback::probe_ms`] try.
const LOOPBACK_ROUNDTRIPS: usize = 40;
/// [`Loopback::probe_ms`] on the reference host at its usual speed, in ms.
const LOOPBACK_REF_MS: f64 = 1.7;

/// A std-only stand-in for the daemon on loopback, with as many accepting
/// threads as the daemon has workers: each answers a connection with a
/// fixed 200 and closes it. Most of a served request's time is the kernel's
/// TCP work and thread wake-ups on every CPU at once, which the
/// single-threaded compute probe of [`crate::measure::probe_ms`] does not
/// see; concurrent round trips to this stand-in do, and share no code with
/// dcfail.
struct Loopback {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Loopback {
    fn start(threads: usize) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let listener = listener.try_clone().map_err(|e| format!("bind: {e}"))?;
            let stopping = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let mut request = [0u8; 64];
                    let _ = stream.read(&mut request);
                    let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
                }
            }));
        }
        Ok(Self {
            addr,
            stop,
            threads: handles,
        })
    }

    /// The best of three tries of one client per accepting thread, each
    /// making `LOOPBACK_ROUNDTRIPS` sequential round trips, in ms.
    fn probe_ms(&self) -> Result<f64, String> {
        let client = || -> Result<(), String> {
            for _ in 0..LOOPBACK_ROUNDTRIPS {
                let mut stream =
                    TcpStream::connect(self.addr).map_err(|e| format!("probe: {e}"))?;
                stream
                    .write_all(b"GET / HTTP/1.1\r\n\r\n")
                    .map_err(|e| format!("probe: {e}"))?;
                let mut response = Vec::new();
                stream
                    .read_to_end(&mut response)
                    .map_err(|e| format!("probe: {e}"))?;
            }
            Ok(())
        };
        let mut best = f64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..self.threads.len())
                    .map(|_| scope.spawn(client))
                    .collect();
                clients.into_iter().try_for_each(|c| {
                    c.join()
                        .map_err(|_| "a probe client panicked".to_string())?
                })
            })?;
            best = best.min(ms_since(t));
        }
        Ok(best)
    }

    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        // One connection per accepting thread wakes it to see the flag.
        for _ in &self.threads {
            let _ = TcpStream::connect(self.addr);
        }
        for thread in self.threads {
            thread
                .join()
                .map_err(|_| "the loopback stand-in panicked".to_string())?;
        }
        Ok(())
    }
}

/// Obs reports of the traced slices, with their time ranges in the window.
type Slices = Vec<(f64, f64, MetricsReport)>;

/// Loopback probes of a window: (start offset in s, end offset, probe ms).
type Probes = Vec<(f64, f64, f64)>;

/// Runs the timed window: `nproc` read connections on scoped threads.
/// Every `CADENCE_S` the calling thread pauses them and times the loopback
/// probe while the daemon is idle; in the traced run it also alternates
/// untraced and traced slices of `CADENCE_S`.
fn drive(
    settings: &Settings,
    served: &Served,
    loopback: &Loopback,
) -> Result<(Vec<ReaderLog>, Slices, Probes, f64), String> {
    let addr = served.server.addr();
    let seconds = settings.seconds;
    let pause = RwLock::new(());
    let window = Instant::now();
    let mut slices = Vec::new();
    let mut probes = Vec::new();
    let logs = std::thread::scope(|scope| -> Result<_, String> {
        let pause = &pause;
        let handles: Vec<_> = (0..settings.nproc)
            .map(|c| scope.spawn(move || reader(addr, c * 12, window, seconds, pause)))
            .collect();
        let sleep_until = |offset: f64| {
            let now = window.elapsed().as_secs_f64();
            if offset > now {
                std::thread::sleep(Duration::from_secs_f64(offset - now));
            }
        };
        let mut traced: Option<(f64, ObsHandle)> = None;
        let mut k = 0u32;
        loop {
            let begin = f64::from(k) * CADENCE_S;
            if begin >= seconds {
                break;
            }
            sleep_until(begin);
            if let Some((from, obs)) = traced.take() {
                slices.push((from, begin, obs.finish()));
            }
            {
                let _paused = pause
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let start = window.elapsed().as_secs_f64();
                let probe = loopback.probe_ms()?;
                probes.push((start, window.elapsed().as_secs_f64(), probe));
            }
            if settings.trace && k % 2 == 1 {
                let obs = ObsHandle::install().ok_or("the obs window is already taken")?;
                traced = Some((begin, obs));
            }
            k += 1;
        }
        sleep_until(seconds);
        if let Some((from, obs)) = traced.take() {
            slices.push((from, seconds, obs.finish()));
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a read client panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((logs, slices, probes, window.elapsed().as_secs_f64()))
}

/// The probe taken last at or before `at`.
fn probe_at(probes: &Probes, at: f64) -> f64 {
    probes
        .iter()
        .take_while(|p| p.0 <= at)
        .last()
        .or(probes.first())
        .map_or(LOOPBACK_REF_MS, |p| p.2)
}

/// Requests completed per second between consecutive probes, each scaled
/// to the reference probe by the probe that opens its interval.
fn scaled_rates(logs: &[ReaderLog], probes: &Probes, seconds: f64) -> Vec<f64> {
    let mut done: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.latencies)
        .map(|(at, ms)| at + ms / 1e3)
        .collect();
    done.sort_by(f64::total_cmp);
    probes
        .iter()
        .enumerate()
        .map(|(i, &(_, from, probe))| {
            let to = probes.get(i + 1).map_or(seconds, |p| p.0);
            let n = done.partition_point(|&t| t < to) - done.partition_point(|&t| t < from);
            n as f64 / (to - from) * probe / LOOPBACK_REF_MS
        })
        .collect()
}

fn in_slices(at: f64, slices: &Slices) -> bool {
    slices.iter().any(|(b, e, _)| at >= *b && at < *e)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn run(settings: &Settings, report: &mut Report) -> Result<(), String> {
    let seed = derive_seed(settings.seed, 0);
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let (started, timed) = between_probes(settings.nproc, || start(settings, seed));
        served = Some(started?);
        setup_s.push(timed);
    }
    let served = served.ok_or("no set-up ran")?;

    // The reference: a fresh Toolkit over the served snapshot with its own
    // cache, so every reference body is rendered independently.
    let current = served.server.state().current();
    let base = Toolkit::from_snapshot(current.snapshot().clone(), current.config().clone());
    drop(current);
    let expected = reference(&base, &served.registry);
    let sweep_bytes: usize = served.registry.len()
        + ExperimentId::ALL
            .iter()
            .map(|&id| base.envelope_json(id).len())
            .sum::<usize>();
    drop(base);

    let loopback = Loopback::start(settings.nproc)?;
    let outcome = drive(settings, &served, &loopback);
    loopback.stop()?;
    let (logs, slices, probes, window_s) = outcome?;
    report.window_peak_rss()?;
    let cache_len = served.server.state().current().cache_len();
    served.server.shutdown();

    let mut mismatches = Vec::new();
    let mut checked = 0usize;
    for log in &logs {
        for &(path, got) in &log.samples {
            checked += 1;
            if expected[path] != got {
                mismatches.push(read_paths()[path].clone());
            }
        }
    }

    let completed: u64 = logs.iter().map(|l| l.ok).sum();
    let shed: u64 = logs.iter().map(|l| l.shed).sum();
    let failures: Vec<&String> = logs.iter().flat_map(|l| &l.failures).collect();
    let issued: u64 = logs.iter().map(|l| l.latencies.len() as u64).sum();
    report.attempted = issued;
    report.failed = shed + failures.len() as u64 + mismatches.len() as u64;
    if let Some(first) = failures.first() {
        report.check(
            "requests",
            false,
            format!("{} failed, first: {first}", failures.len()),
        );
    }
    report.check(
        "served_equals_library",
        mismatches.is_empty() && checked > 0,
        match mismatches.first() {
            Some(first) => format!("{} bodies differ, first: {first}", mismatches.len()),
            None => format!("{checked} spot-checked reads byte-equal to Toolkit::envelope_json"),
        },
    );

    report.work("seed", seed);
    report.work("scale", SCALE);
    report.work("paths_per_sweep", read_paths().len());
    let sweep_digest = expected
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()));
    report.work("sweep_bytes", sweep_bytes);
    report.work("sweep_digest", format!("{sweep_digest:#018x}"));
    report.done("requests_issued", issued);
    report.done("requests_ok", completed);
    report.done("bytes_served", logs.iter().map(|l| l.bytes).sum::<u64>());
    report.done("window_s", window_s);

    // A few set-ups are too few to average out the noise of scaling each
    // by its own probes: the set-up phase is scaled as one, by the median
    // of all its probes.
    let (setup_raw, setup_probe) = raw_and_probe(&setup_s);
    let setup = setup_raw * PROBE_REF_MS / setup_probe;
    report.named(
        "setup_s",
        setup,
        "s",
        format!(
            "median of {SETUP_REPEATS} set-ups, scaled by {PROBE_REF_MS} ms over the probe \
             median; raw median {setup_raw}, probe median {setup_probe}"
        ),
    );
    if settings.trace {
        trace_layers(report, &logs, &slices, cache_len);
        return Ok(());
    }
    let reads = sorted(logs.iter().flat_map(|l| l.latencies.iter().map(|x| x.1)));
    let (p50, _) = quantile_sorted(&reads, 0.5);
    let (p999, beyond) = quantile_sorted(&reads, 0.999);
    // Scaled to the reference host's loopback probe time (see `Loopback`).
    let sweeps: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| &l.sweeps)
        .map(|&(end, ms)| (ms, probe_at(&probes, end)))
        .collect();
    let sweep_ms = scaled_median(&sweeps, LOOPBACK_REF_MS);
    let (sweep_raw, sweep_probe) = raw_and_probe(&sweeps);
    let rates = scaled_rates(&logs, &probes, settings.seconds);
    let rate = median(&rates);
    let rate_raw = completed as f64 / window_s;
    let probe_median = median(&probes.iter().map(|p| p.2).collect::<Vec<_>>());
    report.e2e_scaled("setup_s", setup, setup_raw, setup_probe);
    report.e2e_scaled("result_ms", sweep_ms, sweep_raw, sweep_probe);
    report.e2e_scaled("throughput_per_s", rate, rate_raw, probe_median);
    report.named(
        "req_per_s",
        rate,
        "1/s",
        format!(
            "median of {} intervals between probes, scaled to the {LOOPBACK_REF_MS} ms \
             loopback probe; \
             {completed} completed requests, {rate_raw} per s raw, probe median {probe_median}",
            rates.len(),
        ),
    );
    report.named("req_p50_ms", p50, "ms", format!("of {} reads", reads.len()));
    report.named(
        "req_p999_ms",
        p999,
        "ms",
        format!("of {} reads, {beyond} beyond", reads.len()),
    );
    report.named(
        "sweep_ms",
        sweep_ms,
        "ms",
        format!(
            "median of {} sweeps over the 25 read paths, scaled; raw median {sweep_raw}, probe \
             median {sweep_probe}",
            sweeps.len(),
        ),
    );
    Ok(())
}

/// Per-layer metrics of a traced run: client-side latencies of the traced
/// slices, obs readings of the same slices, and the overhead against the
/// untraced slices in between.
fn trace_layers(report: &mut Report, logs: &[ReaderLog], slices: &Slices, cache_len: usize) {
    let traced = sorted(
        logs.iter()
            .flat_map(|l| &l.latencies)
            .filter(|(at, _)| in_slices(*at, slices))
            .map(|x| x.1),
    );
    let untraced = sorted(
        logs.iter()
            .flat_map(|l| &l.latencies)
            .filter(|(at, _)| !in_slices(*at, slices))
            .map(|x| x.1),
    );
    let (p50, _) = quantile_sorted(&traced, 0.5);
    report.layer("serve.read_p50_ms", p50);
    report.layer("serve.read_p99_ms", quantile_sorted(&traced, 0.99).0);
    report.layer("serve.read_p999_ms", quantile_sorted(&traced, 0.999).0);
    let service: Vec<f64> = slices
        .iter()
        .filter_map(|(_, _, obs)| obs.histogram("serve.latency_ms").map(|h| h.p50))
        .collect();
    let service_p50 = median(&service);
    report.layer("serve.service_ms", service_p50);
    report.layer("serve.wait_ms", p50 - service_p50);
    report.layer(
        "serve.shed",
        logs.iter().map(|l| l.shed).sum::<u64>() as f64,
    );
    if traced.is_empty() || untraced.is_empty() {
        report.absent(
            "trace.overhead_pct",
            "the window held no traced/untraced slice pair",
        );
    } else {
        report.layer(
            "trace.overhead_pct",
            (p50 / quantile_sorted(&untraced, 0.5).0 - 1.0) * 100.0,
        );
    }
    let (hits, misses) = slices.iter().fold((0, 0), |(h, m), (_, _, obs)| {
        (
            h + counter(obs, "toolkit.cache_hit"),
            m + counter(obs, "toolkit.cache_miss"),
        )
    });
    if hits + misses > 0 {
        report.layer(
            "report.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    } else {
        report.absent(
            "report.cache_hit_ratio",
            "no artifact-cache lookups in the traced slices",
        );
    }
    report.layer("report.cache_len", cache_len as f64);
    for name in COLD_LAYERS {
        report.absent(
            name,
            "serve_reads builds and renders only at set-up; report.cache_hit_ratio shows any \
             render in the window",
        );
    }
}
