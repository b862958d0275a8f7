//! # dcfail-serve
//!
//! A long-running HTTP/1.1 + JSON daemon over the experiment registry —
//! the paper's artifacts as a query service instead of a one-shot dump.
//! Hand-rolled on `std::net` with a bounded worker pool; no framework, no
//! async runtime, consistent with the workspace's no-new-deps policy.
//!
//! ## Endpoints
//!
//! | route | answer |
//! |---|---|
//! | `GET /registry` | every experiment id + the live data version |
//! | `GET /reports/:id` | the versioned JSON envelope for one artifact |
//! | `POST /whatif` | the counterfactual report, optionally re-seeded |
//! | `POST /audit` | the dataset invariant-lint pass over the snapshot |
//! | `GET /metrics` | the server's dcfail-obs window as JSON |
//! | `GET /stream/alerts` | burst alerts from the background stream ingest |
//!
//! ## Architecture
//!
//! * **Snapshot isolation** — requests render against an `Arc`-pinned
//!   [`Toolkit`] (dataset + artifact cache) swapped whole on publish; see
//!   [`state::AppState`]. A data-version bump atomically retires both the
//!   old snapshot and its cache.
//! * **Bounded queues, typed backpressure** — the acceptor hands
//!   connections to workers through a bounded channel; a full queue answers
//!   `429 {"error":"queue_full"}` immediately and a draining server answers
//!   `503 {"error":"shutting_down"}`, so load sheds instead of buffering
//!   without bound.
//! * **One socket module** — all `TcpStream` I/O lives in [`conn`]; dlint
//!   rule D16 keeps it that way.
//!
//! ```no_run
//! use dcfail_serve::{serve, ServeConfig};
//!
//! let handle = serve(ServeConfig {
//!     scale: 0.05,
//!     ..ServeConfig::default()
//! }).expect("bind");
//! println!("listening on http://{}", handle.addr());
//! # handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod conn;
pub mod http;
pub mod ingest;
pub mod router;
pub mod smoke;
pub mod state;

pub use http::{Request, Response};
use state::WorkerGate;
pub use state::{AlertsState, AppState};

use dcfail_obs::{MetricsReport, ObsHandle};
use dcfail_report::{RunConfig, Toolkit, DEFAULT_SEED};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded request-queue capacity between acceptor and workers.
    pub queue: usize,
    /// Seed for the served scenario and the default render config.
    pub seed: u64,
    /// Scenario scale (1.0 = the paper's full fleet).
    pub scale: f64,
    /// Install a dcfail-obs window for `/metrics` and per-request metrics.
    pub metrics: bool,
    /// Run the background stream ingest feeding `/stream/alerts`.
    pub ingest: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 64,
            seed: DEFAULT_SEED,
            scale: 1.0,
            metrics: true,
            ingest: true,
        }
    }
}

/// A running server: its address plus everything needed to stop it.
///
/// Dropping the handle shuts the server down; call
/// [`shutdown`](ServerHandle::shutdown) to also receive the final metrics
/// report.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
    snapshots: Option<SyncSender<Arc<Toolkit>>>,
}

impl ServerHandle {
    /// The bound address (ephemeral port resolved).
    #[must_use]
    pub const fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state — tests and the smoke gate use it to pause workers
    /// and publish snapshots.
    #[must_use]
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Parks the worker pool so the bounded queue can be filled
    /// deterministically (backpressure tests).
    pub fn hold_workers(&self) {
        self.state.gate.pause();
    }

    /// Releases a held worker pool once the acceptor has decided every
    /// connection made before this call: requests sent while the pool was
    /// held meet the held queue, however the threads happen to be
    /// scheduled.
    pub fn release_workers(&self) {
        let gate = &self.state.gate;
        gate.release_requested.store(true, Ordering::SeqCst);
        // Wakes the acceptor if it is parked in accept(); the poke queues
        // behind every earlier connection.
        conn::poke(self.addr);
        gate.wait_if_paused();
    }

    /// Builds and publishes the next snapshot (data version + 1) and hands
    /// it to the ingest thread. Returns the new data version.
    pub fn publish_rebuilt(&self, seed: u64, scale: f64) -> u64 {
        let version = self.state.publish_rebuilt(seed, scale);
        if let Some(tx) = &self.snapshots {
            let _ = tx.try_send(self.state.current());
        }
        version
    }

    /// Blocks until the ingest pass for `data_version` (or newer) has
    /// completed, up to ~30s. Returns whether it did.
    #[must_use]
    pub fn wait_for_alerts(&self, data_version: u64) -> bool {
        for _ in 0..3000 {
            let alerts = self.state.alerts();
            if alerts.complete && alerts.data_version >= data_version {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// Stops accepting, drains queued requests, joins every thread and
    /// closes the obs window, returning its final report (when one was
    /// installed).
    pub fn shutdown(mut self) -> Option<MetricsReport> {
        self.stop_and_join();
        self.state.finish_obs()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // A held gate would deadlock the drain.
        self.state.gate.resume();
        // Ends the ingest thread after its current replay.
        self.snapshots.take();
        // Wakes the acceptor if it is parked in accept().
        conn::poke(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
            self.state.finish_obs();
        }
    }
}

/// Builds the dataset, binds the listener, starts the worker pool and the
/// background ingest, and returns the running server's handle.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let obs = config.metrics.then(ObsHandle::install).flatten();
    let toolkit = Toolkit::build_scaled(RunConfig::with_seed(config.seed), config.scale);
    serve_toolkit(config, toolkit, obs)
}

/// Like [`serve`], but over an already-built Toolkit (tests build small
/// snapshots once and start many servers over them).
pub fn serve_toolkit(
    config: ServeConfig,
    toolkit: Toolkit,
    obs: Option<ObsHandle>,
) -> io::Result<ServerHandle> {
    let ServeConfig {
        addr,
        workers,
        queue,
        ingest,
        ..
    } = config;
    let listener = conn::Listener::bind(&addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(AppState::new(toolkit, obs));
    let stop = Arc::new(AtomicBool::new(false));

    let workers_n = workers.max(1);
    let queue_cap = queue.max(1);
    let (conn_tx, conn_rx) = mpsc::sync_channel::<conn::Conn>(queue_cap);
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let mut workers = Vec::with_capacity(workers_n);
    for _ in 0..workers_n {
        let rx = Arc::clone(&conn_rx);
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || worker_loop(&rx, &state)));
    }

    let (snapshots, ingest) = if ingest {
        // Capacity 2: the initial snapshot plus one pending publish; the
        // ingest loop fast-forwards, so older queued snapshots are skipped
        // and publish_rebuilt's try_send can never block the caller long.
        let (tx, rx) = mpsc::sync_channel::<Arc<Toolkit>>(2);
        let _ = tx.try_send(state.current());
        let ingest_state = Arc::clone(&state);
        let handle = std::thread::spawn(move || ingest::run(&ingest_state, &rx));
        (Some(tx), Some(handle))
    } else {
        (None, None)
    };

    let accept_stop = Arc::clone(&stop);
    let accept_state = Arc::clone(&state);
    let acceptor = std::thread::spawn(move || {
        accept_loop(&listener, &conn_tx, &accept_stop, &accept_state.gate);
    });

    Ok(ServerHandle {
        addr,
        state,
        stop,
        acceptor: Some(acceptor),
        workers,
        ingest,
        snapshots,
    })
}

/// Acceptor: take connections, enqueue them, shed load when full.
fn accept_loop(
    listener: &conn::Listener,
    queue: &SyncSender<conn::Conn>,
    stop: &AtomicBool,
    gate: &WorkerGate,
) {
    loop {
        let Ok(accepted) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            // Usually the shutdown poke itself; any real straggler gets a
            // typed 503 before the listener closes.
            respond_inline(
                accepted,
                &Response::error(503, "shutting_down", "server is draining"),
            );
            break;
        }
        // A pending release first takes every connection made before it,
        // so each meets the held queue; then the workers may drain it.
        let releasing = gate.release_requested.swap(false, Ordering::SeqCst);
        let pending = if releasing {
            listener.accept_pending()
        } else {
            Vec::new()
        };
        let mut open = true;
        for conn in std::iter::once(accepted).chain(pending) {
            match queue.try_send(conn) {
                Ok(()) => dcfail_obs::add("serve.accepted", 1),
                Err(TrySendError::Full(shed)) => {
                    dcfail_obs::add("serve.backpressure_429", 1);
                    respond_inline(
                        shed,
                        &Response::error(
                            429,
                            "queue_full",
                            "bounded request queue is full; retry later",
                        ),
                    );
                }
                Err(TrySendError::Disconnected(_)) => open = false,
            }
        }
        if releasing {
            gate.resume();
        }
        if !open {
            break;
        }
    }
    // Dropping `queue` here lets workers drain what was accepted, then exit.
}

/// Answers a connection directly from the acceptor (shed or draining).
///
/// The request is read and discarded first: closing a socket that still has
/// unread inbound bytes sends a TCP RST, which would destroy the response
/// in flight before the client could read it. A peer that never sent a
/// request (the shutdown poke) fails the read and gets no response; one
/// whose `Content-Length` cannot frame a body still gets the shed answer.
fn respond_inline(mut conn: conn::Conn, response: &Response) {
    if !matches!(conn.read_request(), Err(conn::ReadError::Io(_))) {
        let _ = conn.write_response(&response.to_bytes());
    }
}

/// Worker: pull a connection, serve exactly one request on it, close.
fn worker_loop(queue: &Mutex<Receiver<conn::Conn>>, state: &AppState) {
    loop {
        let conn = {
            let rx = queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match rx.recv() {
                Ok(c) => c,
                Err(_) => break, // acceptor gone and queue drained
            }
        };
        state.gate.wait_if_paused();
        serve_one(conn, state);
    }
}

/// One request→response cycle, with per-request obs and panic isolation.
fn serve_one(mut conn: conn::Conn, state: &AppState) {
    let started = Instant::now();
    let refusal = |status, code, detail: &str| (Response::error(status, code, detail), true);
    let (response, refused) = match conn.read_request() {
        Ok(raw) => (respond(&raw, state), false),
        Err(conn::ReadError::Io(_)) => {
            dcfail_obs::add("serve.read_errors", 1);
            return;
        }
        Err(conn::ReadError::BadContentLength(detail)) => {
            refusal(400, "bad_content_length", &detail)
        }
        Err(conn::ReadError::ContentTooLarge) => {
            refusal(413, "content_too_large", "request body past the 64 KiB cap")
        }
        Err(conn::ReadError::HeadersTooLarge) => {
            refusal(431, "headers_too_large", "request head past the 64 KiB cap")
        }
    };
    dcfail_obs::add("serve.requests", 1);
    dcfail_obs::add_labeled("serve.status", status_label(response.status), 1);
    let bytes = response.to_bytes();
    let _ = if refused {
        conn.refuse(&bytes)
    } else {
        conn.write_response(&bytes)
    };
    dcfail_obs::observe("serve.latency_ms", started.elapsed().as_secs_f64() * 1e3);
}

/// Parses and routes one request's bytes.
fn respond(raw: &[u8], state: &AppState) -> Response {
    match http::parse_request(raw) {
        Ok(request) => {
            let label = router::route_label(&request.path);
            let _span = dcfail_obs::span_labeled("serve", label);
            // A panicking handler must cost one request, not a worker: the
            // pool would otherwise shrink until the queue jams solid.
            catch_unwind(AssertUnwindSafe(|| router::route(&request, state))).unwrap_or_else(|_| {
                Response::error(500, "handler_panicked", "request handler panicked")
            })
        }
        Err(e) => Response::error(400, "malformed_request", &e.to_string()),
    }
}

/// Static label for the status-class counters.
const fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        413 => "413",
        429 => "429",
        431 => "431",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}
