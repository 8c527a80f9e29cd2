//! The threaded HTTP front end: bounded queues, per-request deadlines,
//! load shedding, graceful drain, and checkpointed live-scheduler
//! state.
//!
//! Life of a connection:
//!
//! 1. the accept thread pulls it off the listener and `try_send`s it
//!    into a **bounded** work queue — a full queue sheds the connection
//!    immediately with `503 {"error":"overloaded"}` instead of queueing
//!    unboundedly;
//! 2. a worker thread picks it up, arms the per-request deadline
//!    (socket read timeout), optionally wraps the stream in the seeded
//!    [`FaultTransport`](crate::transport::FaultTransport) drill, and
//!    serves keep-alive requests until close, error, or drain. Responses
//!    collect in the connection's output buffer, which is sent before
//!    the worker blocks on the next read, once it passes
//!    [`MAX_BUFFERED_OUTPUT`](crate::http::MAX_BUFFERED_OUTPUT), and
//!    when the connection closes or answers an error: a pipelined batch
//!    that arrived in one read is answered in one write, and a client
//!    that waits for each answer gets each one in its own write;
//! 3. on drain (SIGTERM, ctrl-c, `POST /admin/drain`, or
//!    [`ServerHandle::shutdown`]) the accept thread stops accepting and
//!    closes the queue; workers finish **every** connection already
//!    accepted — zero dropped in-flight requests — and the final
//!    live-scheduler state is snapshotted through the existing
//!    [`CheckpointStore`] so a restarted server resumes tenants
//!    byte-identically.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use simty::obs::telemetry::DEFAULT_BUS_CAPACITY;
use simty::obs::{json_string, EventKind, MetricsRegistry, TelemetryBus, TelemetrySink};
use simty::prelude::{Checkpoint, CheckpointError, CheckpointStore, SimDuration};
use simty_bench::JsonValue;

use crate::http::{HttpConn, Limits, Request, RequestError, Response};
use crate::live::{LiveScheduler, RegisterOutcome, RegisterRequest};
use crate::signal;
use crate::transport::{FaultCounters, FaultPlan};

/// The checkpoint policy tag live-scheduler snapshots are filed under.
pub const CHECKPOINT_POLICY: &str = "serve-live";

/// Everything `standby serve` can configure.
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
    /// Live-scheduler alignment policy token.
    pub policy: String,
    /// Checkpoint directory for drain snapshots and restart resume.
    pub state_dir: Option<PathBuf>,
    /// Server-side transport fault drill (off by default).
    pub fault: FaultPlan,
    /// Seed for the fault drill's per-connection schedules.
    pub seed: u64,
    /// Telemetry bus capacity (small values make drops observable).
    pub telemetry_capacity: usize,
    /// Cap on `POST /run` simulated duration, in minutes.
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
            telemetry_capacity: DEFAULT_BUS_CAPACITY,
            max_run_minutes: 24 * 60,
        }
    }
}

/// What the drain left behind.
#[derive(Debug, Clone)]
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
    /// Telemetry events dropped by the bounded bus.
    pub telemetry_dropped: u64,
    /// Internal-consistency violations found at drain (must be 0).
    pub invariant_violations: u64,
    /// Path of the final state checkpoint, when a state dir is set.
    pub checkpoint: Option<PathBuf>,
    /// Network faults injected by the server-side drill.
    pub net_faults: u64,
}

struct Shared {
    live: Mutex<LiveScheduler>,
    metrics: Mutex<MetricsRegistry>,
    /// `None` once the drain has closed the bus — the drainer thread
    /// only exits when every sink is gone, so the sink must be
    /// droppable while `Shared` itself stays alive.
    sink: Mutex<Option<TelemetrySink>>,
    limits: Limits,
    fault: FaultPlan,
    seed: u64,
    fault_counters: Arc<FaultCounters>,
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    requests: AtomicU64,
    conn_seq: AtomicU64,
    max_run_minutes: u64,
}

impl Shared {
    fn start_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            *self.drain_started.lock() = Some(Instant::now());
            self.warn_event("drain requested: refusing new connections".to_owned());
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    fn warn_event(&self, message: String) {
        if let Some(sink) = self.sink.lock().as_ref() {
            sink.publish(EventKind::Warn { message });
        }
    }

    fn telemetry_dropped(&self) -> u64 {
        self.sink.lock().as_ref().map(TelemetrySink::dropped).unwrap_or(0)
    }

    /// Drops the last sink, closing the bus so the drainer can exit.
    /// Returns the final drop tally.
    fn close_telemetry(&self) -> u64 {
        let sink = self.sink.lock().take();
        sink.map(|s| s.dropped()).unwrap_or(0)
    }

    /// Folds the bus's drop tally into the `sim_telemetry_dropped`
    /// counter so silent event loss shows up in `GET /metrics`.
    fn reconcile_telemetry_drops(&self) {
        let dropped = self.telemetry_dropped();
        if dropped > 0 {
            self.metrics.lock().set_counter("sim_telemetry_dropped", dropped);
        }
    }
}

/// A running server: its address plus the handles to drain and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
    drainer: thread::JoinHandle<u64>,
    store: Option<CheckpointStore>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish()
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was asked for).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain (same path as SIGTERM).
    pub fn shutdown(&self) {
        self.shared.start_drain();
    }

    /// Whether a drain has been requested (by any trigger).
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Waits for the drain to finish: joins every thread, snapshots the
    /// live scheduler through the checkpoint store, and reports.
    ///
    /// Call [`shutdown`](Self::shutdown) first (or send the process a
    /// SIGTERM) — joining an un-drained server blocks until one of the
    /// triggers fires.
    pub fn join(mut self) -> DrainReport {
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
        let checkpoint = self.store.as_mut().map(|store| {
            let ckpt = Checkpoint::marker(
                live.now(),
                CHECKPOINT_POLICY,
                &live.snapshot_payload(),
            );
            store.save(&ckpt).expect("save drain checkpoint")
        });
        drop(live);

        if shared.telemetry_dropped() > 0 {
            shared.warn_event(format!(
                "telemetry bus dropped {} event(s) under load",
                shared.telemetry_dropped()
            ));
        }
        // Dropping the last sink closes the bus; the drainer thread then
        // sees the end of the stream and exits.
        let telemetry_dropped = shared.close_telemetry();
        if telemetry_dropped > 0 {
            shared
                .metrics
                .lock()
                .set_counter("sim_telemetry_dropped", telemetry_dropped);
        }
        self.drainer.join().expect("telemetry drainer");

        DrainReport {
            accepted: shared.accepted.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::SeqCst),
            shed: shared.shed.load(Ordering::SeqCst),
            requests: shared.requests.load(Ordering::SeqCst),
            drain_ms,
            telemetry_dropped,
            invariant_violations,
            checkpoint,
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
/// marker, and malformed payloads — a corrupt *latest* file alone is
/// not fatal (`load_latest_good` falls back past it).
fn initial_scheduler(
    config: &ServeConfig,
    store: Option<&CheckpointStore>,
) -> Result<LiveScheduler, String> {
    let Some(store) = store else {
        return LiveScheduler::new(&config.policy);
    };
    match store.load_latest_good() {
        Ok((ckpt, _skipped)) => {
            if ckpt.policy_name() != CHECKPOINT_POLICY {
                return Err(format!(
                    "state dir holds a `{}` checkpoint, not `{CHECKPOINT_POLICY}`",
                    ckpt.policy_name()
                ));
            }
            let payload = ckpt
                .marker_payload()
                .ok_or("serve-live checkpoint has no payload")?;
            LiveScheduler::restore_payload(&payload)
        }
        Err(CheckpointError::NoUsableCheckpoint { .. }) => LiveScheduler::new(&config.policy),
        Err(e) => Err(format!("checkpoint store: {e}")),
    }
}

/// Spawns the server and returns once it is listening.
///
/// # Errors
///
/// Bind failures, unusable state directories, and bad policy tokens.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, String> {
    let store = match &config.state_dir {
        Some(dir) => Some(CheckpointStore::open(dir).map_err(|e| format!("state dir: {e}"))?),
        None => None,
    };
    let live = initial_scheduler(&config, store.as_ref())?;

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;

    let (bus, sink) = TelemetryBus::new(config.telemetry_capacity.max(1));
    let mut metrics = MetricsRegistry::new();
    for (name, help) in [
        ("serve_requests_total", "requests parsed and answered"),
        ("serve_shed_total", "connections shed 503 by the full queue"),
        ("serve_http_4xx_total", "4xx responses"),
        ("serve_http_5xx_total", "5xx responses"),
        ("serve_timeout_total", "per-request deadlines expired (408)"),
        ("serve_register_admitted_total", "registrations admitted"),
        ("serve_register_deferred_total", "registrations deferred by admission"),
        ("serve_register_rejected_total", "registrations rejected 429 by admission"),
        ("serve_cancel_total", "alarms cancelled"),
        ("serve_delivered_total", "alarm deliveries completed"),
        ("serve_net_faults_total", "network faults injected by the drill"),
        ("sim_telemetry_dropped", "telemetry events dropped by the bounded bus"),
        ("serve_invariant_violations", "live-scheduler consistency violations"),
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
        sink: Mutex::new(Some(sink)),
        limits: config.limits,
        fault: config.fault,
        seed: config.seed,
        fault_counters: FaultCounters::new(),
        draining: AtomicBool::new(false),
        drain_started: Mutex::new(None),
        accepted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        conn_seq: AtomicU64::new(0),
        max_run_minutes: config.max_run_minutes,
    });

    // The telemetry drainer keeps the bounded bus flowing; it counts
    // events so tests can assert the pipeline moved at all.
    let drainer = {
        let bus = bus;
        thread::Builder::new()
            .name("serve-telemetry".to_owned())
            .spawn(move || {
                let mut n = 0u64;
                for _event in bus.drain() {
                    n += 1;
                }
                n
            })
            .expect("spawn telemetry drainer")
    };

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
        drainer,
        store,
    })
}

fn accept_loop(listener: &TcpListener, tx: mpsc::SyncSender<TcpStream>, shared: &Shared) {
    loop {
        if shared.is_draining() {
            shared.start_drain(); // stamp the drain clock if a signal beat us to it
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => match tx.try_send(stream) {
                Ok(()) => {
                    shared.accepted.fetch_add(1, Ordering::SeqCst);
                }
                Err(mpsc::TrySendError::Full(stream)) => {
                    shed(stream, shared);
                }
                Err(mpsc::TrySendError::Disconnected(_)) => break,
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping the sender closes the queue; workers finish what was
    // already accepted and then exit.
}

fn shed(stream: TcpStream, shared: &Shared) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    shared.metrics.lock().inc("serve_shed_total");
    let response =
        Response::error_json(503, "Service Unavailable", "overloaded", "work queue is full")
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
        let transport =
            shared
                .fault
                .transport(stream, seed, Arc::clone(&shared.fault_counters));
        serve_requests(HttpConn::new(transport, shared.limits), shared);
        let faults = shared.fault_counters.total();
        shared.metrics.lock().set_counter("serve_net_faults_total", faults);
    } else {
        serve_requests(HttpConn::new(stream, shared.limits), shared);
    }
}

fn serve_requests<S: Read + Write>(mut conn: HttpConn<S>, shared: &Shared) {
    loop {
        match conn.read_request() {
            Ok(req) => {
                shared.requests.fetch_add(1, Ordering::SeqCst);
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
                shared.reconcile_telemetry_drops();
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

fn dispatch(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::ok_json(format!(
            "{{\"ok\":true,\"draining\":{}}}",
            shared.is_draining()
        )),
        ("GET", "/metrics") => {
            let live = shared.live.lock();
            let violations = live.verify().len() as u64;
            let alarms = live.alarm_count();
            let tenants = live.tenant_count();
            drop(live);
            let mut metrics = shared.metrics.lock();
            metrics.set_counter("serve_invariant_violations", violations);
            metrics.set_gauge("serve_alarms_live", alarms as f64);
            metrics.set_gauge("serve_tenants", tenants as f64);
            metrics.set_counter("serve_shed_total", shared.shed.load(Ordering::SeqCst));
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
                return Response::error_json(
                    400,
                    "Bad Request",
                    "missing-tenant",
                    "query needs ?tenant=<name>",
                );
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
        ("POST", "/v1/register") => handle_register(req, shared),
        ("POST", "/v1/cancel") => handle_cancel(req, shared),
        ("POST", "/v1/advance") => handle_advance(req, shared),
        ("POST", "/run") => handle_run(req, shared),
        ("POST", "/admin/drain") => {
            shared.start_drain();
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

fn parse_body(req: &Request) -> Result<JsonValue, Response> {
    let text = req.body_utf8().ok_or_else(|| {
        Response::error_json(400, "Bad Request", "bad-body", "body is not UTF-8")
    })?;
    JsonValue::parse(text).map_err(|e| {
        Response::error_json(400, "Bad Request", "bad-json", &e)
    })
}

fn num_field(body: &JsonValue, key: &str) -> Option<f64> {
    body.get(key).and_then(JsonValue::as_num)
}

fn u64_field(body: &JsonValue, key: &str) -> Option<u64> {
    num_field(body, key).map(|v| v.max(0.0) as u64)
}

fn handle_register(req: &Request, shared: &Shared) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(tenant) = body.get("tenant").and_then(JsonValue::as_str) else {
        return Response::error_json(400, "Bad Request", "missing-tenant", "body needs `tenant`");
    };
    let Some(nominal_ms) = u64_field(&body, "nominal_ms") else {
        return Response::error_json(
            400,
            "Bad Request",
            "missing-nominal",
            "body needs numeric `nominal_ms`",
        );
    };
    let request = RegisterRequest {
        tenant: tenant.to_owned(),
        nominal_ms,
        repeat_ms: u64_field(&body, "repeat_ms"),
        repeat_dynamic: body
            .get("repeat")
            .and_then(JsonValue::as_str)
            .map(|s| s == "dynamic")
            .unwrap_or(false),
        window_ms: u64_field(&body, "window_ms"),
        alpha: num_field(&body, "alpha"),
        grace_ms: u64_field(&body, "grace_ms"),
        beta: num_field(&body, "beta"),
        non_wakeup: body
            .get("kind")
            .and_then(JsonValue::as_str)
            .map(|s| s == "non-wakeup")
            .unwrap_or(false),
        hardware_bits: u64_field(&body, "hardware").unwrap_or(0).min(u64::from(u16::MAX))
            as u16,
        task_ms: u64_field(&body, "task_ms").unwrap_or(0),
        now_ms: u64_field(&body, "now_ms"),
    };
    let outcome = shared.live.lock().register(&request);
    let mut metrics = shared.metrics.lock();
    match outcome {
        RegisterOutcome::Admitted {
            ordinal,
            id,
            deferred_to_ms,
        } => {
            metrics.inc("serve_register_admitted_total");
            if deferred_to_ms.is_some() {
                metrics.inc("serve_register_deferred_total");
            }
            Response::ok_json(format!(
                "{{\"ordinal\":{ordinal},\"id\":{id},\"deferred_to_ms\":{}}}",
                deferred_to_ms.map_or("null".to_owned(), |m| m.to_string())
            ))
        }
        RegisterOutcome::Rejected { retry_after_ms } => {
            metrics.inc("serve_register_rejected_total");
            Response::error_json(
                429,
                "Too Many Requests",
                "rejected",
                &format!("admission rejected the registration; retry in {retry_after_ms} ms"),
            )
            .with_retry_after_secs(retry_after_ms.div_ceil(1_000))
        }
        RegisterOutcome::Invalid { code, detail } => {
            Response::error_json(400, "Bad Request", code, &detail)
        }
    }
}

fn handle_cancel(req: &Request, shared: &Shared) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let (Some(tenant), Some(ordinal)) = (
        body.get("tenant").and_then(JsonValue::as_str),
        u64_field(&body, "ordinal"),
    ) else {
        return Response::error_json(
            400,
            "Bad Request",
            "missing-fields",
            "body needs `tenant` and numeric `ordinal`",
        );
    };
    if shared.live.lock().cancel(tenant, ordinal) {
        shared.metrics.lock().inc("serve_cancel_total");
        Response::ok_json("{\"cancelled\":true}".to_owned())
    } else {
        Response::error_json(
            404,
            "Not Found",
            "no-such-alarm",
            &format!("tenant `{tenant}` has no live alarm with ordinal {ordinal}"),
        )
    }
}

fn handle_advance(req: &Request, shared: &Shared) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(now_ms) = u64_field(&body, "now_ms") else {
        return Response::error_json(
            400,
            "Bad Request",
            "missing-now",
            "body needs numeric `now_ms`",
        );
    };
    let delivered = shared.live.lock().advance(now_ms);
    shared
        .metrics
        .lock()
        .add("serve_delivered_total", delivered);
    Response::ok_json(format!("{{\"delivered\":{delivered},\"now_ms\":{now_ms}}}"))
}

fn handle_run(req: &Request, shared: &Shared) -> Response {
    use simty::experiments::{RunSpec, Scenario};

    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let policy_token = body
        .get("policy")
        .and_then(JsonValue::as_str)
        .unwrap_or("simty");
    let Some(policy) = crate::live::parse_policy_token(policy_token) else {
        return Response::error_json(
            400,
            "Bad Request",
            "bad-policy",
            &format!("unknown policy `{policy_token}`"),
        );
    };
    let scenario = match body.get("scenario").and_then(JsonValue::as_str) {
        None | Some("light") => Scenario::Light,
        Some("heavy") => Scenario::Heavy,
        Some(other) => {
            return Response::error_json(
                400,
                "Bad Request",
                "bad-scenario",
                &format!("unknown scenario `{other}` (light|heavy)"),
            )
        }
    };
    let seed = u64_field(&body, "seed").unwrap_or(1);
    let minutes = u64_field(&body, "minutes").unwrap_or(60);
    if minutes == 0 || minutes > shared.max_run_minutes {
        return Response::error_json(
            400,
            "Bad Request",
            "bad-duration",
            &format!("minutes must be in 1..={}", shared.max_run_minutes),
        );
    }
    let mut spec = RunSpec::paper(policy, scenario, seed)
        .with_duration(SimDuration::from_mins(minutes));
    if let Some(beta) = num_field(&body, "beta") {
        if !(0.0..1.0).contains(&beta) {
            return Response::error_json(
                400,
                "Bad Request",
                "bad-beta",
                "beta must be in [0, 1)",
            );
        }
        spec = spec.with_beta(beta);
    }
    spec.no_obs = true;
    let label = spec.label();
    shared.warn_event(format!("campaign run {label}"));
    let report = spec.run();
    Response::ok_json(simty::sim::json::report_to_json(&report))
}
