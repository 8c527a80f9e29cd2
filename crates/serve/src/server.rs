//! The threaded HTTP front end: bounded queues, per-request deadlines,
//! load shedding, graceful drain, and checkpointed live-scheduler
//! state.
//!
//! Life of a connection:
//!
//! 1. the accept thread, blocked in `accept()` on a blocking listener,
//!    takes it the moment it arrives and `try_send`s it into a
//!    **bounded** work queue — a full queue sheds the connection
//!    immediately with `503 {"error":"overloaded"}` instead of queueing
//!    unboundedly;
//! 2. a worker thread picks it up, arms the per-request deadline
//!    (socket read timeout), optionally wraps the stream in the seeded
//!    [`FaultTransport`](crate::transport::FaultTransport) drill, and
//!    serves keep-alive requests until close, error, or drain. Each read
//!    offers the transport at least
//!    [`MIN_READ`](crate::http::MIN_READ) bytes, and each request is
//!    handled as a borrowed view of the connection's buffer. Responses
//!    collect in the connection's output buffer, which is sent before
//!    the worker blocks on the next read, once it passes
//!    [`MAX_BUFFERED_OUTPUT`](crate::http::MAX_BUFFERED_OUTPUT), and
//!    when the connection closes or answers an error: a pipelined batch
//!    of up to 16 KB is read in one read and answered in one write, and
//!    a client that waits for each answer gets each one in its own
//!    write;
//! 3. on drain (SIGTERM, ctrl-c, `POST /admin/drain`, or
//!    [`ServerHandle::shutdown`]) the accept thread stops accepting and
//!    closes the queue; workers finish **every** connection already
//!    accepted — zero dropped in-flight requests — and the final
//!    live-scheduler state is snapshotted through the existing
//!    [`CheckpointStore`] so a restarted server resumes tenants
//!    byte-identically.
//!
//! The accept thread sleeps in `accept()` until a connection arrives, so
//! a drain trigger has to wake it: the thread that starts the drain sets
//! the drain flag, then opens one connection to the listener, which the
//! accept loop drops unserved and uncounted. `shutdown` and
//! `POST /admin/drain` wake it themselves. A signal handler may only
//! store the signal flag, so [`ServerHandle::join`] sees that flag and
//! wakes the accept on the signal's behalf (`standby serve` calls
//! `join` as soon as its 25 ms wait loop sees the flag).
//!
//! Each total has one record. The metrics registry counts requests,
//! sheds, timeouts and 4xx/5xx answers, and the [`DrainReport`] reads
//! its requests and sheds from there. The register, cancel and delivery
//! totals are sums of the tenants' own counters, which `GET /metrics`
//! reads under the scheduler lock: after a restart from `--state-dir`
//! they include the restored tenants' history, as `/v1/query` does.
//! The drill's injected faults are the [`FaultCounters`] atomics, which
//! `GET /metrics` and the [`DrainReport`] read when they are rendered,
//! so a fault shows while its connection is still open.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use simty::obs::{json_string, MetricsRegistry};
use simty::prelude::{Checkpoint, CheckpointError, CheckpointStore, SimDuration};
use simty_bench::JsonValue;

use crate::http::{HttpConn, Limits, Request, RequestError, Response};
use crate::live::{LiveScheduler, RegisterOutcome, RegisterRequest, SNAPSHOT_MAGIC};
use crate::signal;
use crate::transport::{FaultCounters, FaultPlan};

/// The checkpoint policy tag live-scheduler snapshots are filed under.
pub const CHECKPOINT_POLICY: &str = "serve-live";

/// The largest time a request may carry, in milliseconds: 2^53, the
/// largest integer a JSON number carries exactly.
const MAX_TIME_MS: u64 = 1 << 53;

/// The shortest repeating interval `POST /v1/register` accepts: Table 3's
/// shortest ReIn and Android's floor for repeating alarms.
const MIN_REPEAT_MS: u64 = 60_000;

/// How often [`ServerHandle::join`] on an un-drained server looks for
/// the signal flag, which nothing can wake it for.
const TRIGGER_POLL: Duration = Duration::from_millis(25);

/// How long a drain trigger's wake connection may take to connect.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The pause after a hard accept error (EMFILE, ENFILE, ENOBUFS), which
/// would otherwise repeat at once and spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Everything `standby serve` can configure: the listener and its
/// queue, deadline and parser limits, the live scheduler's policy and
/// state dir, the fault drill, and the `POST /run` cap.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Bounded work-queue depth; a full queue sheds with 503.
    pub queue_depth: usize,
    /// Per-request deadline (read timeout → typed 408).
    pub deadline: Duration,
    /// Parser limits (head / body caps).
    pub limits: Limits,
    /// Live-scheduler alignment policy token. A restart from
    /// `state_dir` must ask for the policy its snapshot was taken under
    /// ([`SpawnError::PolicyMismatch`] otherwise).
    pub policy: String,
    /// Checkpoint directory for drain snapshots and restart resume.
    pub state_dir: Option<PathBuf>,
    /// Server-side transport fault drill (off by default).
    pub fault: FaultPlan,
    /// Seed for the fault drill's per-connection schedules.
    pub seed: u64,
    /// Cap on `POST /run` simulated duration, in minutes, and on how far
    /// past the live scheduler's clock a request's `now_ms` may reach.
    pub max_run_minutes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_millis(2_000),
            limits: Limits::default(),
            policy: "simty".to_owned(),
            state_dir: None,
            fault: FaultPlan::none(),
            seed: 1,
            max_run_minutes: 24 * 60,
        }
    }
}

/// What the drain left behind. `shed` and `requests` are the
/// registry's `serve_shed_total` and `serve_requests_total`;
/// [`to_json`](Self::to_json) is the one JSON form, printed by
/// `standby serve` and embedded in the `simty-serve/v1` document.
#[derive(Debug)]
pub struct DrainReport {
    /// Connections accepted into the work queue.
    pub accepted: u64,
    /// Connections fully served (== `accepted`: zero dropped in-flight).
    pub completed: u64,
    /// Connections shed with 503 by the full queue.
    pub shed: u64,
    /// Requests parsed and answered.
    pub requests: u64,
    /// Wall time from the drain trigger to the last worker exiting.
    pub drain_ms: u64,
    /// Internal-consistency violations found at drain (must be 0).
    pub invariant_violations: u64,
    /// Path of the final state checkpoint, when a state dir is set and
    /// the save succeeded.
    pub checkpoint: Option<PathBuf>,
    /// Why the final state checkpoint could not be saved, when it could
    /// not.
    pub checkpoint_error: Option<CheckpointError>,
    /// Network faults injected by the server-side drill.
    pub net_faults: u64,
}

impl DrainReport {
    /// The report as one JSON object, in the `simty-serve/v1` document's
    /// `server` key order. `checkpoint` follows only when the drain
    /// wrote one, and `checkpoint_error` only when its save failed.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"accepted\": {}, \"completed\": {}, \"requests\": {}, \"shed\": {}, \"drain_ms\": {}, \"invariant_violations\": {}, \"net_faults\": {}",
            self.accepted,
            self.completed,
            self.requests,
            self.shed,
            self.drain_ms,
            self.invariant_violations,
            self.net_faults,
        );
        if let Some(path) = &self.checkpoint {
            out.push_str(", \"checkpoint\": ");
            out.push_str(&json_string(&path.to_string_lossy()));
        }
        if let Some(e) = &self.checkpoint_error {
            out.push_str(", \"checkpoint_error\": ");
            out.push_str(&json_string(&e.to_string()));
        }
        out.push('}');
        out
    }
}

/// Why [`spawn`] could not start a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// The state dir's snapshot was taken under another policy than the
    /// one asked for: resuming it would serve `snapshot` under the name
    /// of `requested`.
    PolicyMismatch {
        /// The policy the config asked for.
        requested: String,
        /// The policy the snapshot was taken under.
        snapshot: String,
    },
    /// The state dir's snapshot is in a layout this build does not read:
    /// `found` is its first line, where this build reads only
    /// [`SNAPSHOT_MAGIC`].
    SnapshotLayout {
        /// The snapshot's layout line.
        found: String,
    },
    /// A bind failure, an unusable state dir or checkpoint, or a bad
    /// policy token.
    Setup(String),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::PolicyMismatch {
                requested,
                snapshot,
            } => write!(
                f,
                "state dir holds a snapshot taken under policy `{snapshot}`, \
                 but policy `{requested}` was asked for"
            ),
            SpawnError::SnapshotLayout { found } => write!(
                f,
                "state dir holds a `{found}` snapshot, but this build reads only \
                 `{SNAPSHOT_MAGIC}`; move the state dir aside to start fresh"
            ),
            SpawnError::Setup(message) => f.write_str(message),
        }
    }
}

impl From<SpawnError> for String {
    fn from(e: SpawnError) -> String {
        e.to_string()
    }
}

struct Shared {
    live: Mutex<LiveScheduler>,
    metrics: Mutex<MetricsRegistry>,
    limits: Limits,
    fault: FaultPlan,
    seed: u64,
    fault_counters: Arc<FaultCounters>,
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    /// Where a drain trigger connects to wake the blocked accept: the
    /// bound address, an unspecified IP mapped to loopback.
    wake_addr: SocketAddr,
    accepted: AtomicU64,
    completed: AtomicU64,
    conn_seq: AtomicU64,
    max_run_minutes: u64,
}

impl Shared {
    /// Sets the drain flag and stamps the drain clock. Returns whether
    /// this call set it: only the first trigger starts the drain.
    fn start_drain(&self) -> bool {
        if self.draining.swap(true, Ordering::SeqCst) {
            return false;
        }
        *self.drain_started.lock() = Some(Instant::now());
        true
    }

    /// Starts the drain from any thread but the accept thread and, if
    /// this call started it, wakes the accept thread out of `accept()`
    /// with one connection that the accept loop drops. A trigger that
    /// finds the drain already started leaves the waking to the one
    /// that started it (or to the accept thread, which saw the drain
    /// itself and is already leaving).
    fn drain_and_wake(&self) {
        if self.start_drain() {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::shutdown_requested()
    }
}

/// A running server: its address plus the handles to drain and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
    store: Option<CheckpointStore>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was asked for).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain (same path as SIGTERM). Returns once the
    /// drain flag is set and the accept thread has been woken: the
    /// listener takes no new connection after that.
    pub fn shutdown(&self) {
        self.shared.drain_and_wake();
    }

    /// Whether a drain has been requested (by any trigger).
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Waits for the drain to finish: joins every thread, snapshots the
    /// live scheduler through the checkpoint store, and reports. A failed
    /// save is the report's [`checkpoint_error`](DrainReport::checkpoint_error).
    ///
    /// Call [`shutdown`](Self::shutdown) first (or send the process a
    /// SIGTERM) — joining an un-drained server blocks until one of the
    /// triggers fires. `shutdown` and `POST /admin/drain` wake the
    /// accept thread themselves; a signal only sets the signal flag, so
    /// `join` looks for that flag every 25 ms and, once any trigger has
    /// fired, starts the drain and wakes the accept thread itself.
    pub fn join(mut self) -> DrainReport {
        while !self.shared.is_draining() {
            thread::sleep(TRIGGER_POLL);
        }
        self.shared.drain_and_wake();
        self.accept.join().expect("accept thread");
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
        let drain_ms = self
            .shared
            .drain_started
            .lock()
            .map(|t| t.elapsed().as_millis() as u64)
            .unwrap_or(0);

        let shared = &self.shared;
        let live = shared.live.lock();
        let invariant_violations = live.verify().len() as u64;
        let saved = self.store.as_mut().map(|store| {
            let ckpt = Checkpoint::marker(live.now(), CHECKPOINT_POLICY, &live.snapshot_payload());
            store.save(&ckpt)
        });
        drop(live);
        let (checkpoint, checkpoint_error) = match saved {
            Some(Ok(path)) => (Some(path), None),
            Some(Err(e)) => (None, Some(e)),
            None => (None, None),
        };

        let metrics = shared.metrics.lock();
        DrainReport {
            accepted: shared.accepted.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::SeqCst),
            shed: metrics.counter("serve_shed_total"),
            requests: metrics.counter("serve_requests_total"),
            drain_ms,
            invariant_violations,
            checkpoint,
            checkpoint_error,
            net_faults: shared.fault_counters.total(),
        }
    }
}

/// Builds the scheduler a fresh server starts from: the latest good
/// checkpoint in `state_dir` when one exists, a fresh scheduler
/// otherwise.
///
/// # Errors
///
/// Propagates store errors, a checkpoint that is not a `serve-live`
/// marker, a snapshot in another layout than [`SNAPSHOT_MAGIC`] (an
/// earlier build's `serve-live/v1`), malformed payloads, and a snapshot
/// taken under another policy than `config.policy` — a corrupt *latest*
/// file alone is not fatal (`load_latest_good` falls back past it).
fn initial_scheduler(
    config: &ServeConfig,
    store: Option<&CheckpointStore>,
) -> Result<LiveScheduler, SpawnError> {
    let fresh = || LiveScheduler::new(&config.policy).map_err(SpawnError::Setup);
    let Some(store) = store else {
        return fresh();
    };
    let ckpt = match store.load_latest_good() {
        Ok((ckpt, _skipped)) => ckpt,
        Err(CheckpointError::NoUsableCheckpoint { .. }) => return fresh(),
        Err(e) => return Err(SpawnError::Setup(format!("checkpoint store: {e}"))),
    };
    if ckpt.policy_name() != CHECKPOINT_POLICY {
        return Err(SpawnError::Setup(format!(
            "state dir holds a `{}` checkpoint, not `{CHECKPOINT_POLICY}`",
            ckpt.policy_name()
        )));
    }
    let payload = ckpt
        .marker_payload()
        .ok_or_else(|| SpawnError::Setup("serve-live checkpoint has no payload".to_owned()))?;
    let layout = payload.lines().next().unwrap_or_default();
    if layout != SNAPSHOT_MAGIC && layout.starts_with("serve-live/") {
        return Err(SpawnError::SnapshotLayout {
            found: layout.to_owned(),
        });
    }
    let live = LiveScheduler::restore_payload(&payload).map_err(SpawnError::Setup)?;
    if live.policy_token() != config.policy {
        return Err(SpawnError::PolicyMismatch {
            requested: config.policy.clone(),
            snapshot: live.policy_token().to_owned(),
        });
    }
    Ok(live)
}

/// Spawns the server and returns once it is listening.
///
/// # Errors
///
/// Bind failures, unusable state directories, bad policy tokens, and a
/// state dir whose snapshot was taken under another policy.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, SpawnError> {
    let store = match &config.state_dir {
        Some(dir) => Some(
            CheckpointStore::open(dir).map_err(|e| SpawnError::Setup(format!("state dir: {e}")))?,
        ),
        None => None,
    };
    let live = initial_scheduler(&config, store.as_ref())?;

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| SpawnError::Setup(format!("bind {}: {e}", config.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SpawnError::Setup(format!("local addr: {e}")))?;
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let mut metrics = MetricsRegistry::new();
    for (name, help) in [
        ("serve_requests_total", "requests parsed and answered"),
        ("serve_shed_total", "connections shed 503 by the full queue"),
        ("serve_http_4xx_total", "4xx responses"),
        ("serve_http_5xx_total", "5xx responses"),
        ("serve_timeout_total", "per-request deadlines expired (408)"),
        ("serve_register_admitted_total", "registrations admitted"),
        (
            "serve_register_deferred_total",
            "registrations deferred by admission",
        ),
        (
            "serve_register_rejected_total",
            "registrations rejected 429 by admission",
        ),
        ("serve_cancel_total", "alarms cancelled"),
        ("serve_delivered_total", "alarm deliveries completed"),
        (
            "serve_net_faults_total",
            "network faults injected by the drill",
        ),
        (
            "serve_invariant_violations",
            "live-scheduler consistency violations",
        ),
    ] {
        metrics.describe(name, help);
        metrics.set_counter(name, 0);
    }
    metrics.describe("serve_alarms_live", "alarms currently registered");
    metrics.set_gauge("serve_alarms_live", live.alarm_count() as f64);
    metrics.describe("serve_tenants", "tenants ever seen");
    metrics.set_gauge("serve_tenants", live.tenant_count() as f64);

    let shared = Arc::new(Shared {
        live: Mutex::new(live),
        metrics: Mutex::new(metrics),
        limits: config.limits,
        fault: config.fault,
        seed: config.seed,
        fault_counters: FaultCounters::new(),
        draining: AtomicBool::new(false),
        drain_started: Mutex::new(None),
        wake_addr,
        accepted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        conn_seq: AtomicU64::new(0),
        max_run_minutes: config.max_run_minutes,
    });

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
    let rx = Arc::new(std::sync::Mutex::new(rx));
    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        let deadline = config.deadline;
        workers.push(
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || loop {
                    let next = rx.lock().expect("worker queue").recv();
                    match next {
                        Ok(stream) => {
                            handle_connection(stream, &shared, deadline);
                            shared.completed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => break, // queue closed and empty: drained
                    }
                })
                .expect("spawn worker"),
        );
    }

    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || {
                accept_loop(&listener, tx, &shared);
            })
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept,
        workers,
        store,
    })
}

fn accept_loop(listener: &TcpListener, tx: mpsc::SyncSender<TcpStream>, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.is_draining() {
            // A trigger's wake connection, or a client that raced the
            // drain: dropped unserved and uncounted. A signal seen here
            // first starts the drain clock.
            shared.start_drain();
            break;
        }
        match accepted {
            Ok((stream, _peer)) => match tx.try_send(stream) {
                Ok(()) => {
                    shared.accepted.fetch_add(1, Ordering::SeqCst);
                }
                Err(mpsc::TrySendError::Full(stream)) => {
                    shed(stream, shared);
                }
                Err(mpsc::TrySendError::Disconnected(_)) => break,
            },
            // The peer gave up before it was taken: nothing to back off.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    // Dropping the sender closes the queue; workers finish what was
    // already accepted and then exit.
}

fn shed(stream: TcpStream, shared: &Shared) {
    shared.metrics.lock().inc("serve_shed_total");
    let response = Response::error_json(
        503,
        "Service Unavailable",
        "overloaded",
        "work queue is full",
    )
    .with_close();
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(&response.to_bytes());
}

fn handle_connection(stream: TcpStream, shared: &Shared, deadline: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(deadline));
    let _ = stream.set_write_timeout(Some(deadline));
    if shared.fault.is_active() {
        let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
        let seed = shared
            .seed
            .wrapping_add(conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let transport = shared
            .fault
            .transport(stream, seed, Arc::clone(&shared.fault_counters));
        serve_requests(HttpConn::new(transport, shared.limits), shared);
    } else {
        serve_requests(HttpConn::new(stream, shared.limits), shared);
    }
}

fn serve_requests<S: Read + Write>(mut conn: HttpConn<S>, shared: &Shared) {
    loop {
        match conn.read_request() {
            Ok(req) => {
                let close = req.wants_close();
                let mut response = dispatch(&req, shared);
                if close || shared.is_draining() {
                    response = response.with_close();
                }
                {
                    let mut metrics = shared.metrics.lock();
                    metrics.inc("serve_requests_total");
                    match response.status {
                        400..=499 => metrics.inc("serve_http_4xx_total"),
                        500..=599 => metrics.inc("serve_http_5xx_total"),
                        _ => {}
                    }
                }
                if conn.write_response(&response).is_err() {
                    return;
                }
                if response.close {
                    let _ = conn.flush();
                    return;
                }
            }
            Err(err) => {
                if matches!(err, RequestError::Timeout) {
                    shared.metrics.lock().inc("serve_timeout_total");
                }
                if let Some((status, reason)) = err.status() {
                    shared.metrics.lock().inc(if status >= 500 {
                        "serve_http_5xx_total"
                    } else {
                        "serve_http_4xx_total"
                    });
                    let response =
                        Response::error_json(status, reason, err.code(), &err.to_string())
                            .with_close();
                    let _ = conn.write_response(&response);
                }
                let _ = conn.flush();
                return;
            }
        }
    }
}

fn dispatch(req: &Request<'_>, shared: &Shared) -> Response {
    match (req.method, req.path) {
        ("GET", "/healthz") => Response::ok_json(format!(
            "{{\"ok\":true,\"draining\":{}}}",
            shared.is_draining()
        )),
        ("GET", "/metrics") => {
            let live = shared.live.lock();
            let violations = live.verify().len() as u64;
            let alarms = live.alarm_count();
            let tenants = live.tenant_count();
            let totals = live.totals();
            drop(live);
            let mut metrics = shared.metrics.lock();
            metrics.set_counter("serve_invariant_violations", violations);
            metrics.set_gauge("serve_alarms_live", alarms as f64);
            metrics.set_gauge("serve_tenants", tenants as f64);
            metrics.set_counter("serve_register_admitted_total", totals.registered);
            metrics.set_counter("serve_register_deferred_total", totals.deferred);
            metrics.set_counter("serve_register_rejected_total", totals.rejected);
            metrics.set_counter("serve_cancel_total", totals.cancelled);
            metrics.set_counter("serve_delivered_total", totals.delivered);
            metrics.set_counter("serve_net_faults_total", shared.fault_counters.total());
            Response::ok_text(metrics.expose())
        }
        ("GET", "/v1/state") => Response::ok_text(shared.live.lock().digest()),
        ("GET", "/v1/next") => {
            let next = shared.live.lock().next_wakeup_ms();
            Response::ok_json(match next {
                Some(ms) => format!("{{\"next_wakeup_ms\":{ms}}}"),
                None => "{\"next_wakeup_ms\":null}".to_owned(),
            })
        }
        ("GET", "/v1/query") => {
            let Some(tenant) = req.query_param("tenant") else {
                return bad_request("missing-tenant", "query needs ?tenant=<name>");
            };
            match shared.live.lock().query(tenant) {
                None => Response::error_json(
                    404,
                    "Not Found",
                    "unknown-tenant",
                    &format!("tenant `{tenant}` has never registered"),
                ),
                Some((stats, views)) => {
                    let alarms: Vec<String> = views
                        .iter()
                        .map(|v| {
                            format!(
                                "{{\"ordinal\":{},\"nominal_ms\":{},\"repeat_ms\":{},\"kind\":{},\"quarantined\":{}}}",
                                v.ordinal,
                                v.nominal_ms,
                                v.repeat_ms.map_or("null".to_owned(), |m| m.to_string()),
                                json_string(v.kind),
                                v.quarantined,
                            )
                        })
                        .collect();
                    Response::ok_json(format!(
                        "{{\"tenant\":{},\"registered\":{},\"deferred\":{},\"rejected\":{},\"cancelled\":{},\"delivered\":{},\"live\":{},\"demoted\":{},\"alarms\":[{}]}}",
                        json_string(tenant),
                        stats.registered,
                        stats.deferred,
                        stats.rejected,
                        stats.cancelled,
                        stats.delivered,
                        stats.live,
                        stats.demoted,
                        alarms.join(",")
                    ))
                }
            }
        }
        ("POST", "/v1/register") => handle_register(req, shared).unwrap_or_else(|e| e),
        ("POST", "/v1/cancel") => handle_cancel(req, shared).unwrap_or_else(|e| e),
        ("POST", "/v1/advance") => handle_advance(req, shared).unwrap_or_else(|e| e),
        ("POST", "/run") => handle_run(req, shared).unwrap_or_else(|e| e),
        ("POST", "/admin/drain") => {
            shared.drain_and_wake();
            Response::ok_json("{\"draining\":true}".to_owned()).with_close()
        }
        _ => Response::error_json(
            404,
            "Not Found",
            "no-such-endpoint",
            &format!("{} {}", req.method, req.path),
        ),
    }
}

fn parse_body(req: &Request<'_>) -> Result<JsonValue, Response> {
    let text = req
        .body_utf8()
        .ok_or_else(|| bad_request("bad-body", "body is not UTF-8"))?;
    JsonValue::parse(text).map_err(|e| bad_request("bad-json", &e))
}

fn num_field(body: &JsonValue, key: &str) -> Option<f64> {
    body.get(key).and_then(JsonValue::as_num)
}

fn u64_field(body: &JsonValue, key: &str) -> Option<u64> {
    num_field(body, key).map(|v| v.max(0.0) as u64)
}

/// The `POST` handlers answer a request they refuse with `Err`.
type Handled = Result<Response, Response>;

fn handle_register(req: &Request<'_>, shared: &Shared) -> Handled {
    let request = register_request(&parse_body(req)?)?;
    let outcome = {
        let mut live = shared.live.lock();
        check_horizon(&live, request.now_ms, shared.max_run_minutes)?;
        live.register(&request)
    };
    Ok(match outcome {
        RegisterOutcome::Admitted {
            ordinal,
            id,
            deferred_to_ms,
        } => Response::ok_json(format!(
            "{{\"ordinal\":{ordinal},\"id\":{id},\"deferred_to_ms\":{}}}",
            deferred_to_ms.map_or("null".to_owned(), |m| m.to_string())
        )),
        RegisterOutcome::Rejected { retry_after_ms } => Response::error_json(
            429,
            "Too Many Requests",
            "rejected",
            &format!("admission rejected the registration; retry in {retry_after_ms} ms"),
        )
        .with_retry_after_secs(retry_after_ms.div_ceil(1_000)),
        RegisterOutcome::Invalid { code, detail } => bad_request(code, &detail),
    })
}

/// A `POST /v1/register` body's fields, each time field at most 2^53 ms
/// and a repeating interval at least [`MIN_REPEAT_MS`].
fn register_request(body: &JsonValue) -> Result<RegisterRequest, Response> {
    let tenant = body.get("tenant").and_then(JsonValue::as_str);
    let tenant = tenant.ok_or_else(|| bad_request("missing-tenant", "body needs `tenant`"))?;
    let nominal_ms = time_field(body, "nominal_ms")?
        .ok_or_else(|| bad_request("missing-nominal", "body needs numeric `nominal_ms`"))?;
    let repeat_ms = time_field(body, "repeat_ms")?;
    if repeat_ms.is_some_and(|ms| ms < MIN_REPEAT_MS) {
        return Err(bad_request(
            "repeat-too-short",
            &format!("`repeat_ms` must be at least {MIN_REPEAT_MS}"),
        ));
    }
    let token = |key| body.get(key).and_then(JsonValue::as_str);
    Ok(RegisterRequest {
        tenant: tenant.to_owned(),
        nominal_ms,
        repeat_ms,
        repeat_dynamic: token("repeat") == Some("dynamic"),
        window_ms: time_field(body, "window_ms")?,
        alpha: num_field(body, "alpha"),
        grace_ms: time_field(body, "grace_ms")?,
        beta: num_field(body, "beta"),
        non_wakeup: token("kind") == Some("non-wakeup"),
        hardware_bits: u64_field(body, "hardware")
            .unwrap_or(0)
            .min(u64::from(u16::MAX)) as u16,
        task_ms: time_field(body, "task_ms")?.unwrap_or(0),
        now_ms: time_field(body, "now_ms")?,
    })
}

/// A time field in milliseconds, `None` when absent: a typed 400 above
/// [`MAX_TIME_MS`], where a JSON number stops carrying every integer.
fn time_field(body: &JsonValue, key: &str) -> Result<Option<u64>, Response> {
    match u64_field(body, key) {
        Some(ms) if ms > MAX_TIME_MS => Err(bad_request(
            "time-out-of-range",
            &format!("`{key}` must be at most {MAX_TIME_MS} ms"),
        )),
        ms => Ok(ms),
    }
}

/// Refuses a `now_ms` more than `--max-run-minutes` past the scheduler
/// clock: an advance delivers every instance it passes, so its work
/// grows with the span it covers.
fn check_horizon(live: &LiveScheduler, now_ms: Option<u64>, minutes: u64) -> Result<(), Response> {
    let clock = live.now().as_millis();
    let limit = clock.saturating_add(minutes.saturating_mul(60_000));
    match now_ms {
        Some(ms) if ms > limit => Err(bad_request(
            "advance-too-far",
            &format!("`now_ms` may be at most {minutes} minutes past the clock: {limit}"),
        )),
        _ => Ok(()),
    }
}

fn bad_request(code: &str, detail: &str) -> Response {
    Response::error_json(400, "Bad Request", code, detail)
}

fn handle_cancel(req: &Request<'_>, shared: &Shared) -> Handled {
    let body = parse_body(req)?;
    let (Some(tenant), Some(ordinal)) = (
        body.get("tenant").and_then(JsonValue::as_str),
        u64_field(&body, "ordinal"),
    ) else {
        return Err(bad_request(
            "missing-fields",
            "body needs `tenant` and numeric `ordinal`",
        ));
    };
    if shared.live.lock().cancel(tenant, ordinal) {
        Ok(Response::ok_json("{\"cancelled\":true}".to_owned()))
    } else {
        Err(Response::error_json(
            404,
            "Not Found",
            "no-such-alarm",
            &format!("tenant `{tenant}` has no live alarm with ordinal {ordinal}"),
        ))
    }
}

fn handle_advance(req: &Request<'_>, shared: &Shared) -> Handled {
    let now_ms = time_field(&parse_body(req)?, "now_ms")?
        .ok_or_else(|| bad_request("missing-now", "body needs numeric `now_ms`"))?;
    let delivered = {
        let mut live = shared.live.lock();
        check_horizon(&live, Some(now_ms), shared.max_run_minutes)?;
        live.advance(now_ms)
    };
    Ok(Response::ok_json(format!(
        "{{\"delivered\":{delivered},\"now_ms\":{now_ms}}}"
    )))
}

fn handle_run(req: &Request<'_>, shared: &Shared) -> Handled {
    use simty::experiments::{RunSpec, Scenario};

    let body = parse_body(req)?;
    let policy_token = body
        .get("policy")
        .and_then(JsonValue::as_str)
        .unwrap_or("simty");
    let Some(policy) = crate::live::parse_policy_token(policy_token) else {
        return Err(bad_request(
            "bad-policy",
            &format!("unknown policy `{policy_token}`"),
        ));
    };
    let scenario = match body.get("scenario").and_then(JsonValue::as_str) {
        None | Some("light") => Scenario::Light,
        Some("heavy") => Scenario::Heavy,
        Some(other) => {
            return Err(bad_request(
                "bad-scenario",
                &format!("unknown scenario `{other}` (light|heavy)"),
            ))
        }
    };
    let seed = u64_field(&body, "seed").unwrap_or(1);
    let minutes = u64_field(&body, "minutes").unwrap_or(60);
    if minutes == 0 || minutes > shared.max_run_minutes {
        return Err(bad_request(
            "bad-duration",
            &format!("minutes must be in 1..={}", shared.max_run_minutes),
        ));
    }
    let mut spec =
        RunSpec::paper(policy, scenario, seed).with_duration(SimDuration::from_mins(minutes));
    if let Some(beta) = num_field(&body, "beta") {
        if !(0.0..1.0).contains(&beta) {
            return Err(bad_request("bad-beta", "beta must be in [0, 1)"));
        }
        spec = spec.with_beta(beta);
    }
    spec.no_obs = true;
    let report = spec.run();
    Ok(Response::ok_json(simty::sim::json::report_to_json(&report)))
}
