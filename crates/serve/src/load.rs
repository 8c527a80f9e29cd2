//! The seeded open-loop load generator behind `standby serve-load`.
//!
//! A fleet of client threads fires registration/query/cancel/advance
//! traffic at a running server over plain `TcpStream`s, optionally
//! through the client-side [`FaultTransport`](crate::transport::FaultTransport)
//! drill (torn requests,
//! stalls, mid-request disconnects — the peer behaviours a production
//! service survives daily). Each connection's request schedule derives
//! from `seed` and the connection index alone, so two runs against
//! equally-configured servers fire identical byte streams.
//!
//! [`drive`] is the one-shot harness the CI smoke and the committed
//! `BENCH_serve.json` use: spawn a server in-process, apply the load,
//! drain gracefully, and emit the `simty-serve/v1` document combining
//! the client's view (latency quantiles, outcome counters) with the
//! server's ([`DrainReport`]).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simty::obs::QuantileSummary;

use crate::server::{spawn, DrainReport, ServeConfig};
use crate::transport::{FaultCounters, FaultPlan};

/// What `standby serve-load` can configure.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Target address (`host:port`).
    pub addr: String,
    /// Total connections to fire.
    pub connections: u64,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Distinct tenants the traffic spreads over.
    pub tenants: usize,
    /// Seed for every per-connection schedule.
    pub seed: u64,
    /// Client-side transport fault drill.
    pub fault: FaultPlan,
    /// Per-request client deadline.
    pub deadline: Duration,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            addr: "127.0.0.1:0".to_owned(),
            connections: 200,
            concurrency: 8,
            tenants: 4,
            seed: 1,
            fault: FaultPlan::none(),
            deadline: Duration::from_millis(2_000),
        }
    }
}

/// The client-side tally of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Connections attempted.
    pub connections: u64,
    /// Requests fully written to the wire.
    pub sent: u64,
    /// `200` responses.
    pub ok: u64,
    /// `200` registrations the admission controller postponed.
    pub deferred: u64,
    /// `429` responses (admission reject; `Retry-After` present).
    pub rejected: u64,
    /// `503` responses (connection shed by the full work queue).
    pub shed: u64,
    /// Requests that hit a deadline — the server's `408` or the
    /// client's own read timeout.
    pub timed_out: u64,
    /// Connections that died on a transport error (including injected
    /// client-side faults).
    pub net_errors: u64,
    /// Any other status (4xx validation, 5xx).
    pub other_errors: u64,
    /// Per-request wall latencies, milliseconds, successful responses
    /// only.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Faults injected by the client-side drill.
    pub client_faults: u64,
}

impl LoadReport {
    /// Requests per second over the run's wall time.
    pub fn rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sent as f64 / secs
        } else {
            0.0
        }
    }

    /// Renders the `simty-serve/v1` benchmark document, merging the
    /// server's [`DrainReport`] when the harness owned the server.
    pub fn to_json(&self, spec: &LoadSpec, profile: &str, server: Option<&DrainReport>) -> String {
        let latency = QuantileSummary::exact(&self.latencies_ms)
            .map(|q| q.to_json())
            .unwrap_or_else(|| "null".to_owned());
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"simty-serve/v1\",\n");
        out.push_str(&format!(
            "  \"harness\": {{\"connections\": {}, \"concurrency\": {}, \"tenants\": {}, \"seed\": {}, \"profile\": \"{profile}\", \"wall_ms\": {}, \"rps\": {:.2}}},\n",
            spec.connections,
            spec.concurrency,
            spec.tenants,
            spec.seed,
            self.wall.as_millis(),
            self.rps(),
        ));
        out.push_str(&format!("  \"latency_ms\": {latency},\n"));
        out.push_str(&format!(
            "  \"load\": {{\"sent\": {}, \"ok\": {}, \"deferred\": {}, \"rejected\": {}, \"shed\": {}, \"timed_out\": {}, \"net_errors\": {}, \"other_errors\": {}, \"client_faults\": {}}}",
            self.sent,
            self.ok,
            self.deferred,
            self.rejected,
            self.shed,
            self.timed_out,
            self.net_errors,
            self.other_errors,
            self.client_faults,
        ));
        if let Some(drain) = server {
            out.push_str(&format!(",\n  \"server\": {}", drain.to_json()));
        }
        out.push_str("\n}\n");
        out
    }
}

/// What one request produced, as seen by the client.
enum Outcome {
    Status(u16, Vec<u8>, bool),
    TimedOut,
    NetError,
}

/// Runs the load described by `spec` against `spec.addr` (which must
/// already be listening).
pub fn run(spec: &LoadSpec) -> LoadReport {
    let started = Instant::now();
    let counters = FaultCounters::new();
    // The logical scheduler clock the clients share: `advance` requests
    // push it forward, registrations aim well past it.
    let clock_ms = Arc::new(AtomicU64::new(1_000));

    let threads = spec.concurrency.max(1);
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let spec = spec.clone();
        let counters = Arc::clone(&counters);
        let clock_ms = Arc::clone(&clock_ms);
        handles.push(thread::spawn(move || {
            let mut local = LoadReport::default();
            let mut conn = t as u64;
            while conn < spec.connections {
                drive_connection(&spec, conn, &counters, &clock_ms, &mut local);
                conn += threads as u64;
            }
            local
        }));
    }

    let mut report = LoadReport {
        connections: spec.connections,
        ..LoadReport::default()
    };
    for handle in handles {
        let local = handle.join().expect("load client thread");
        report.sent += local.sent;
        report.ok += local.ok;
        report.deferred += local.deferred;
        report.rejected += local.rejected;
        report.shed += local.shed;
        report.timed_out += local.timed_out;
        report.net_errors += local.net_errors;
        report.other_errors += local.other_errors;
        report.latencies_ms.extend(local.latencies_ms);
    }
    report.wall = started.elapsed();
    report.client_faults = counters.total();
    report
}

fn drive_connection(
    spec: &LoadSpec,
    conn: u64,
    counters: &Arc<FaultCounters>,
    clock_ms: &AtomicU64,
    out: &mut LoadReport,
) {
    let seed = spec
        .seed
        .wrapping_add(conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = StdRng::seed_from_u64(seed);
    let tenant = format!("load-{}", conn % spec.tenants.max(1) as u64);

    let stream = match TcpStream::connect(&spec.addr) {
        Ok(s) => s,
        Err(_) => {
            out.net_errors += 1;
            return;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(spec.deadline));
    let _ = stream.set_write_timeout(Some(spec.deadline));

    let requests = rng.gen_range(1..=4u32);
    if spec.fault.is_active() {
        let transport = spec
            .fault
            .transport(stream, seed ^ 0x00C0_FFEE, Arc::clone(counters));
        drive_requests(transport, spec, &tenant, requests, &mut rng, clock_ms, out);
    } else {
        drive_requests(stream, spec, &tenant, requests, &mut rng, clock_ms, out);
    }
}

fn drive_requests<S: Read + Write>(
    mut stream: S,
    _spec: &LoadSpec,
    tenant: &str,
    requests: u32,
    rng: &mut StdRng,
    clock_ms: &AtomicU64,
    out: &mut LoadReport,
) {
    let mut carry = Vec::new();
    for i in 0..requests {
        let last = i + 1 == requests;
        let wire = next_request(tenant, rng, clock_ms, last);
        let started = Instant::now();
        if stream.write_all(wire.as_bytes()).is_err() {
            out.net_errors += 1;
            return;
        }
        out.sent += 1;
        match read_response(&mut stream, &mut carry) {
            Outcome::Status(status, body, close) => {
                out.latencies_ms
                    .push(started.elapsed().as_secs_f64() * 1_000.0);
                match status {
                    200 => {
                        out.ok += 1;
                        if body_has_deferral(&body) {
                            out.deferred += 1;
                        }
                    }
                    429 => out.rejected += 1,
                    503 => out.shed += 1,
                    408 => out.timed_out += 1,
                    _ => out.other_errors += 1,
                }
                if close {
                    return;
                }
            }
            Outcome::TimedOut => {
                out.timed_out += 1;
                return;
            }
            Outcome::NetError => {
                out.net_errors += 1;
                return;
            }
        }
    }
}

/// Builds the next request on a connection: mostly registrations, with
/// queries, cancels, and clock advances mixed in.
fn next_request(tenant: &str, rng: &mut StdRng, clock_ms: &AtomicU64, last: bool) -> String {
    let connection = if last { "close" } else { "keep-alive" };
    let draw: f64 = rng.gen_range(0.0..1.0);
    if draw < 0.70 {
        let now = clock_ms.load(Ordering::Relaxed);
        let nominal = now + rng.gen_range(60_000..600_000u64);
        let body = if rng.gen_range(0.0..1.0f64) < 0.5 {
            let repeat = rng.gen_range(120_000..1_200_000u64);
            format!(
                "{{\"tenant\":\"{tenant}\",\"nominal_ms\":{nominal},\"repeat_ms\":{repeat},\"beta\":0.5}}"
            )
        } else {
            format!("{{\"tenant\":\"{tenant}\",\"nominal_ms\":{nominal}}}")
        };
        post("/v1/register", &body, connection)
    } else if draw < 0.85 {
        format!("GET /v1/query?tenant={tenant} HTTP/1.1\r\nconnection: {connection}\r\n\r\n")
    } else if draw < 0.95 {
        let ordinal = rng.gen_range(0..32u64);
        post(
            "/v1/cancel",
            &format!("{{\"tenant\":\"{tenant}\",\"ordinal\":{ordinal}}}"),
            connection,
        )
    } else {
        let now = clock_ms.fetch_add(1_000, Ordering::Relaxed) + 1_000;
        post("/v1/advance", &format!("{{\"now_ms\":{now}}}"), connection)
    }
}

fn post(path: &str, body: &str, connection: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

fn body_has_deferral(body: &[u8]) -> bool {
    // `deferred_to_ms` is either `null` or a number; a digit right
    // after the colon means the registration was postponed.
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    text.split("\"deferred_to_ms\":")
        .nth(1)
        .map(|rest| rest.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .unwrap_or(false)
}

/// Reads one HTTP response: status code, body, and whether the server
/// announced `connection: close`.
fn read_response<S: Read>(stream: &mut S, carry: &mut Vec<u8>) -> Outcome {
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match fill(stream, carry) {
            Ok(0) => return Outcome::NetError,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Outcome::TimedOut;
            }
            Err(_) => return Outcome::NetError,
        }
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = match lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
    {
        Some(s) => s,
        None => return Outcome::NetError,
    };
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value.parse().unwrap_or(0);
        } else if name == "connection" {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let body_start = head_end + 4;
    while carry.len() < body_start + content_length {
        match fill(stream, carry) {
            Ok(0) => return Outcome::NetError,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Outcome::TimedOut;
            }
            Err(_) => return Outcome::NetError,
        }
    }
    let body = carry[body_start..body_start + content_length].to_vec();
    carry.drain(..body_start + content_length);
    Outcome::Status(status, body, close)
}

fn fill<S: Read>(stream: &mut S, carry: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 2048];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(0),
            Ok(n) => {
                carry.extend_from_slice(&chunk[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// The one-shot harness: spawn a server, apply the load, drain, and
/// return the combined report.
///
/// # Errors
///
/// Propagates server spawn failures.
pub fn drive(
    server: ServeConfig,
    mut load: LoadSpec,
    profile: &str,
) -> Result<(LoadReport, DrainReport, String), String> {
    let handle = spawn(server)?;
    load.addr = handle.addr().to_string();
    let report = run(&load);
    handle.shutdown();
    let drain = handle.join();
    let json = report.to_json(&load, profile, Some(&drain));
    Ok((report, drain, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parser_handles_split_delivery_and_keepalive() {
        struct Two(Vec<Vec<u8>>);
        impl Read for Two {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                let chunk = self.0.remove(0);
                buf[..chunk.len()].copy_from_slice(&chunk);
                Ok(chunk.len())
            }
        }
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\nokHTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nretry-after: 3\r\nconnection: close\r\n\r\n";
        let mid = wire.len() / 2;
        let mut stream = Two(vec![wire[..mid].to_vec(), wire[mid..].to_vec()]);
        let mut carry = Vec::new();
        let Outcome::Status(status, body, close) = read_response(&mut stream, &mut carry) else {
            panic!("first response");
        };
        assert_eq!((status, close), (200, false));
        assert_eq!(body, b"ok");
        let Outcome::Status(status, _, close) = read_response(&mut stream, &mut carry) else {
            panic!("second response");
        };
        assert_eq!((status, close), (429, true));
    }

    #[test]
    fn deferral_detection_reads_the_typed_field() {
        assert!(body_has_deferral(
            b"{\"ordinal\":0,\"deferred_to_ms\":120000}"
        ));
        assert!(!body_has_deferral(
            b"{\"ordinal\":0,\"deferred_to_ms\":null}"
        ));
        assert!(!body_has_deferral(b"{}"));
    }

    #[test]
    fn request_schedules_are_seed_deterministic() {
        let clock = AtomicU64::new(1_000);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for i in 0..32 {
            let clock_a = AtomicU64::new(clock.load(Ordering::Relaxed));
            let clock_b = AtomicU64::new(clock_a.load(Ordering::Relaxed));
            assert_eq!(
                next_request("t", &mut a, &clock_a, i % 4 == 0),
                next_request("t", &mut b, &clock_b, i % 4 == 0),
            );
        }
    }

    #[test]
    fn report_json_carries_the_schema_and_counters() {
        let mut report = LoadReport {
            connections: 10,
            sent: 30,
            ok: 20,
            rejected: 5,
            shed: 3,
            ..LoadReport::default()
        };
        report.latencies_ms = vec![1.0, 2.0, 3.0];
        report.wall = Duration::from_millis(500);
        let json = report.to_json(&LoadSpec::default(), "mixed", None);
        assert!(json.contains("\"schema\": \"simty-serve/v1\""));
        assert!(json.contains("\"rejected\": 5"));
        assert!(json.contains("\"q99\""));
        assert!(!json.contains("\"server\""));
    }
}
