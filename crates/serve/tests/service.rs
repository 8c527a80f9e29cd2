//! End-to-end lifecycle tests for the standby scheduler service: real
//! sockets, overload shedding, slowloris deadlines, graceful drain with
//! zero dropped in-flight requests, byte-identical restart, and the
//! seeded network-fault drill.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use simty::prelude::{Checkpoint, CheckpointError, CheckpointStore, SimTime};
use simty_serve::load::{self, LoadSpec};
use simty_serve::server::{spawn, ServeConfig, SpawnError, CHECKPOINT_POLICY};
use simty_serve::transport::FaultPlan;

/// Sends one raw HTTP exchange over a fresh connection and returns the
/// full response text (the request must ask for `connection: close`).
fn exchange(addr: &str, wire: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(wire.as_bytes()).expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn get(addr: &str, path: &str) -> String {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: &str, path: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code")
}

fn register_body(tenant: &str, nominal_ms: u64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"nominal_ms\":{nominal_ms},\"repeat_ms\":600000,\"beta\":0.5}}"
    )
}

#[test]
fn end_to_end_register_query_cancel_and_metrics() {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr().to_string();

    assert_eq!(status_of(&get(&addr, "/healthz")), 200);

    let reg = post(&addr, "/v1/register", &register_body("mail", 60_000));
    assert_eq!(status_of(&reg), 200, "register: {reg}");
    assert!(reg.contains("\"ordinal\":0"));

    let query = get(&addr, "/v1/query?tenant=mail");
    assert_eq!(status_of(&query), 200);
    assert!(query.contains("\"registered\":1"));
    assert!(query.contains("\"live\":1"));

    let next = get(&addr, "/v1/next");
    assert!(next.contains("\"next_wakeup_ms\":60000"), "next: {next}");

    let metrics = get(&addr, "/metrics");
    assert!(metrics.contains("serve_requests_total"));
    assert!(metrics.contains("serve_alarms_live 1"));
    assert!(metrics.contains("serve_invariant_violations 0"));

    let cancel = post(&addr, "/v1/cancel", "{\"tenant\":\"mail\",\"ordinal\":0}");
    assert_eq!(status_of(&cancel), 200);
    assert_eq!(
        status_of(&post(
            &addr,
            "/v1/cancel",
            "{\"tenant\":\"mail\",\"ordinal\":0}"
        )),
        404,
        "second cancel must be a typed 404"
    );

    assert_eq!(status_of(&get(&addr, "/nope")), 404);
    assert_eq!(status_of(&post(&addr, "/v1/register", "not json")), 400);
    assert_eq!(
        status_of(&post(
            &addr,
            "/v1/register",
            "{\"tenant\":\"bad name\",\"nominal_ms\":1}"
        )),
        400
    );

    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.invariant_violations, 0);
    assert_eq!(drain.accepted, drain.completed);
}

#[test]
fn admission_storm_yields_429_with_retry_after() {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr().to_string();
    let mut saw_reject = false;
    for i in 0..64 {
        let resp = post(
            &addr,
            "/v1/register",
            &register_body("storm", 3_600_000 + i),
        );
        if status_of(&resp) == 429 {
            assert!(
                resp.contains("retry-after: "),
                "429 must carry Retry-After: {resp}"
            );
            saw_reject = true;
            break;
        }
    }
    assert!(saw_reject, "the storm must eventually be rejected");
    handle.shutdown();
    assert_eq!(handle.join().invariant_violations, 0);
}

#[test]
fn full_work_queue_sheds_with_503() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        deadline: Duration::from_millis(1_500),
        ..ServeConfig::default()
    };
    let handle = spawn(config).expect("spawn");
    let addr = handle.addr().to_string();

    // Park the single worker on an idle connection (it blocks in read
    // until the deadline) and fill the one queue slot with another.
    let parked: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    thread::sleep(Duration::from_millis(200));

    // Open the probes concurrently — a serial probe would only ever
    // have one connection outstanding and could never fill the queue.
    let probes: Vec<TcpStream> = (0..6)
        .map(|_| {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            stream
        })
        .collect();
    let mut shed = 0;
    for mut stream in probes {
        let mut out = String::new();
        if stream.read_to_string(&mut out).is_ok() && out.contains("503") {
            assert!(out.contains("overloaded"), "shed body: {out}");
            shed += 1;
        }
    }
    assert!(shed > 0, "an overloaded queue must shed connections");
    drop(parked);

    handle.shutdown();
    let drain = handle.join();
    assert!(drain.shed >= shed as u64);
    assert_eq!(
        drain.accepted, drain.completed,
        "no accepted connection may be dropped"
    );
}

#[test]
fn slowloris_gets_a_typed_408() {
    let config = ServeConfig {
        deadline: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let handle = spawn(config).expect("spawn");
    let addr = handle.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // A request head that never finishes.
    stream.write_all(b"GET /healthz HTT").expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    assert!(out.starts_with("HTTP/1.1 408"), "slowloris response: {out}");
    assert!(out.contains("deadline"));

    let metrics = get(&addr, "/metrics");
    assert!(
        metrics.contains("serve_timeout_total 1"),
        "timeout counter: {metrics}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_and_malformed_requests_get_typed_errors() {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr().to_string();

    let garbage = exchange(&addr, "GARBAGE\r\n\r\n");
    assert_eq!(status_of(&garbage), 400);

    let huge_body = exchange(
        &addr,
        "POST /v1/register HTTP/1.1\r\ncontent-length: 9999999\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&huge_body), 413);

    let delete = exchange(&addr, "DELETE /v1/register HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&delete), 405);

    let huge_head = format!(
        "GET / HTTP/1.1\r\nx-pad: {}\r\nconnection: close\r\n\r\n",
        "a".repeat(9_000)
    );
    assert_eq!(status_of(&exchange(&addr, &huge_head)), 431);

    // A body nested far deeper than any stack holds (10 000 levels, well
    // under the body limit) is a typed 400, and the server keeps serving.
    let deep = post(&addr, "/v1/register", &"[".repeat(10_000));
    assert_eq!(status_of(&deep), 400, "{deep}");
    assert!(deep.contains("nesting deeper than"), "{deep}");
    assert_eq!(status_of(&get(&addr, "/healthz")), 200);

    // A connection torn mid-request must not disturb the next one.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"POST /v1/register HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"ten")
            .expect("write");
        drop(stream);
    }
    assert_eq!(status_of(&get(&addr, "/healthz")), 200);

    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.invariant_violations, 0);
}

/// Time fields past what a JSON number carries exactly, a clock jump past
/// `--max-run-minutes`, and a repeat below a minute each get a typed 400
/// before the scheduler sees them: a saturated `now_ms` would spin the
/// delivery loop under the scheduler lock, and a saturated window, grace
/// or nominal would overflow the alarm's time arithmetic.
#[test]
fn hostile_time_fields_get_typed_400s() {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr().to_string();
    let live = post(
        &addr,
        "/v1/register",
        "{\"tenant\":\"mail\",\"nominal_ms\":60000,\"repeat_ms\":60000}",
    );
    assert_eq!(status_of(&live), 200, "{live}");

    let reg = |extra: &str| format!("{{\"tenant\":\"mail\",\"nominal_ms\":120000{extra}}}");
    let day_ms = 24 * 60 * 60_000;
    let cases = [
        (
            "/v1/advance",
            "{\"now_ms\":1e30}".to_owned(),
            "time-out-of-range",
        ),
        (
            "/v1/advance",
            "{\"now_ms\":1e16}".to_owned(),
            "time-out-of-range",
        ),
        (
            "/v1/advance",
            format!("{{\"now_ms\":{}}}", day_ms + 1),
            "advance-too-far",
        ),
        ("/v1/register", reg(",\"now_ms\":1e30"), "time-out-of-range"),
        (
            "/v1/register",
            reg(&format!(",\"now_ms\":{}", day_ms + 1)),
            "advance-too-far",
        ),
        (
            "/v1/register",
            reg(",\"repeat_ms\":600000,\"window_ms\":18446744073709551615"),
            "time-out-of-range",
        ),
        (
            "/v1/register",
            reg(",\"repeat_ms\":600000,\"grace_ms\":18446744073709551615"),
            "time-out-of-range",
        ),
        (
            "/v1/register",
            "{\"tenant\":\"mail\",\"nominal_ms\":18446744073709551000,\"repeat_ms\":600000}"
                .to_owned(),
            "time-out-of-range",
        ),
        (
            "/v1/register",
            reg(",\"repeat_ms\":1e30"),
            "time-out-of-range",
        ),
        (
            "/v1/register",
            reg(",\"task_ms\":1e30"),
            "time-out-of-range",
        ),
        (
            "/v1/register",
            reg(",\"repeat_ms\":59999"),
            "repeat-too-short",
        ),
        ("/v1/register", reg(",\"repeat_ms\":0"), "repeat-too-short"),
    ];
    for (path, body, code) in cases {
        let response = post(&addr, path, &body);
        assert_eq!(status_of(&response), 400, "{path} {body}: {response}");
        assert!(response.contains(code), "{path} {body}: {response}");
        assert_eq!(status_of(&get(&addr, "/healthz")), 200, "after {body}");
    }
    // At the limit the clock moves a day and delivers every instance.
    let day = post(&addr, "/v1/advance", &format!("{{\"now_ms\":{day_ms}}}"));
    assert!(day.contains("\"delivered\":1440"), "{day}");

    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.invariant_violations, 0);
}

#[test]
fn drain_finishes_in_flight_and_restart_resumes_byte_identically() {
    drain_and_restart("serve-drain", |_| {});
}

/// This build's drain checkpoint, re-sealed in the `simty-checkpoint/v1`
/// envelope an earlier build wrote, resumes just the same. Only the
/// envelope is an earlier build's: an earlier build's `serve-live/v1`
/// payload is refused (see
/// `a_restart_refuses_an_earlier_builds_serve_live_v1_payload`).
#[test]
fn a_restart_resumes_a_drain_checkpoint_sealed_as_v1() {
    drain_and_restart("serve-drain-v1", |path| {
        let text = String::from_utf8(std::fs::read(path).expect("read checkpoint")).unwrap();
        let (magic, rest) = text.split_once('\n').expect("an envelope");
        assert_eq!(magic, "simty-checkpoint/v2");
        let body = rest.splitn(3, '\n').nth(2).expect("a three-line envelope");
        let v1 = format!(
            "simty-checkpoint/v1\nlen={}\nsum={:016x}\n{body}",
            body.len(),
            simty::sim::codec::fnv1a64(body.as_bytes())
        );
        std::fs::write(path, v1).expect("re-seal checkpoint");
    });
}

/// Drains a server with state, applies `edit` to its drain checkpoint,
/// and restarts it from that state dir.
fn drain_and_restart(tag: &str, edit: impl Fn(&std::path::Path)) {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let handle = spawn(config.clone()).expect("spawn");
    let addr = handle.addr().to_string();

    for i in 0..5 {
        let resp = post(
            &addr,
            "/v1/register",
            &register_body("app", 60_000 + i * 1_000),
        );
        assert_eq!(status_of(&resp), 200, "register {i}: {resp}");
    }
    post(&addr, "/v1/cancel", "{\"tenant\":\"app\",\"ordinal\":1}");
    // A non-wakeup alarm, and a storm tenant that drains its bucket, is
    // rejected and is demoted: the snapshot then carries both queues and
    // admission state beyond fresh buckets.
    let clock =
        "{\"tenant\":\"clock\",\"nominal_ms\":70000,\"repeat_ms\":600000,\"kind\":\"non-wakeup\"}";
    assert_eq!(status_of(&post(&addr, "/v1/register", clock)), 200);
    let statuses: Vec<u16> = (0..40)
        .map(|k| {
            status_of(&post(
                &addr,
                "/v1/register",
                &register_body("storm", 62_000 + k),
            ))
        })
        .collect();
    assert!(
        statuses.contains(&429),
        "the storm is rejected: {statuses:?}"
    );
    let storm = get(&addr, "/v1/query?tenant=storm");
    assert!(storm.contains("\"demoted\":true"), "{storm}");
    post(&addr, "/v1/advance", "{\"now_ms\":61000}");
    let digest = get(&addr, "/v1/state");
    assert!(digest.contains(",demoted=1,"), "{digest}");

    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.accepted, drain.completed, "zero dropped in-flight");
    assert_eq!(drain.invariant_violations, 0);
    let ckpt = drain.checkpoint.expect("drain must checkpoint");
    assert!(ckpt.exists(), "checkpoint file must exist");
    edit(&ckpt);

    // Kill-and-restart: the resumed server reports the same
    // tenant-visible state, byte for byte, and keeps working.
    let restarted = spawn(config).expect("respawn");
    let addr2 = restarted.addr().to_string();
    let digest2 = get(&addr2, "/v1/state");
    let tail = |d: &str| {
        d.split_once("\r\n\r\n")
            .map(|x| x.1)
            .unwrap_or_default()
            .to_owned()
    };
    assert_eq!(
        tail(&digest2),
        tail(&digest),
        "restart must resume byte-identically"
    );

    let resp = post(&addr2, "/v1/register", &register_body("app", 120_000));
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("\"ordinal\":5"), "ordinals continue: {resp}");

    restarted.shutdown();
    assert_eq!(restarted.join().invariant_violations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state dir holding an earlier build's `serve-live/v1` payload (the
/// layout below, with its own clock, queue and admission keys) is
/// refused at start with a typed error that names both layouts.
#[test]
fn a_restart_refuses_an_earlier_builds_serve_live_v1_payload() {
    let dir = std::env::temp_dir().join(format!("serve-v1-payload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let v1 = "serve-live/v1\npolicy=simty\nclock=1000\nconfig=30000,16,60000,8,4,8\n\
              tenants=1\ntenant=app,1,1,0,0,0,0,1\nmap=0,1\nadmissions=1\n\
              admission=app,15,0,8,0,0,0,0\nwakeup=1\nentry=perc,1\n\
              alarm=1,app,60000,0,300000,s:600000,w,0,0,0,0,1000\nnonwakeup=0\nend\n";
    let mut store = CheckpointStore::open(&dir).expect("store");
    let marker = Checkpoint::marker(SimTime::from_millis(1_000), CHECKPOINT_POLICY, v1);
    store.save(&marker).expect("save");
    let config = ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let Err(err) = spawn(config) else {
        panic!("a v1 payload is refused");
    };
    assert_eq!(
        err,
        SpawnError::SnapshotLayout {
            found: "serve-live/v1".to_owned()
        }
    );
    let message = err.to_string();
    assert!(
        message.contains("`serve-live/v1`") && message.contains("`serve-live/v2`"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drain whose checkpoint cannot be saved reports the error instead of
/// panicking: here the state dir became a regular file while serving.
#[test]
fn a_failed_drain_save_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("serve-save-fails-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = spawn(ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = handle.addr().to_string();
    let resp = post(&addr, "/v1/register", &register_body("app", 60_000));
    assert_eq!(status_of(&resp), 200, "{resp}");
    std::fs::remove_dir_all(&dir).expect("remove the state dir");
    std::fs::write(&dir, "not a directory").expect("a file in its place");

    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.accepted, drain.completed, "zero dropped in-flight");
    assert!(drain.checkpoint.is_none());
    let err = drain.checkpoint_error.as_ref().expect("the save failed");
    assert!(matches!(err, CheckpointError::Io(_)), "{err:?}");
    assert!(
        drain.to_json().contains("\"checkpoint_error\": "),
        "{}",
        drain.to_json()
    );
    let _ = std::fs::remove_file(&dir);
}

/// The 20 requests of one pipelined batch: registrations for three
/// tenants, queries, clock advances that deliver, a cancel, the state
/// digest and an unknown path, the last asking to close.
fn batch_requests() -> Vec<String> {
    let post_wire = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let get_wire = |path: &str| format!("GET {path} HTTP/1.1\r\n\r\n");
    let mut wire = Vec::new();
    for k in 0..9u64 {
        let tenant = ["mail", "chat", "news"][k as usize % 3];
        wire.push(post_wire(
            "/v1/register",
            &register_body(tenant, 60_000 + k * 7_000),
        ));
    }
    wire.push(get_wire("/v1/next"));
    wire.push(post_wire("/v1/advance", "{\"now_ms\":90000}"));
    wire.push(get_wire("/v1/query?tenant=mail"));
    wire.push(post_wire(
        "/v1/cancel",
        "{\"tenant\":\"chat\",\"ordinal\":1}",
    ));
    wire.push(post_wire("/v1/advance", "{\"now_ms\":700000}"));
    wire.push(get_wire("/v1/query?tenant=chat"));
    wire.push(get_wire("/healthz"));
    wire.push(get_wire("/nope"));
    wire.push(post_wire("/v1/register", "not json"));
    wire.push(get_wire("/v1/next"));
    wire.push("GET /v1/state HTTP/1.1\r\nconnection: close\r\n\r\n".to_owned());
    wire
}

/// Reads one response (head and `content-length` body) off `stream`.
fn read_one_response(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    while !out.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        out.push(byte[0]);
    }
    let head = String::from_utf8(out.clone()).expect("utf8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    out.extend_from_slice(&body);
    out
}

#[test]
fn a_pipelined_batch_gets_the_bytes_sequential_requests_get() {
    let requests = batch_requests();
    assert_eq!(requests.len(), 20);
    let connect = |addr: &str| {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
    };

    let pipelined = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = connect(&pipelined.addr().to_string());
    stream
        .write_all(requests.concat().as_bytes())
        .expect("write batch");
    let mut at_once = Vec::new();
    stream.read_to_end(&mut at_once).expect("read batch");
    pipelined.shutdown();
    assert_eq!(pipelined.join().invariant_violations, 0);

    let sequential = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = connect(&sequential.addr().to_string());
    let mut one_by_one = Vec::new();
    for request in &requests {
        stream.write_all(request.as_bytes()).expect("write");
        one_by_one.extend_from_slice(&read_one_response(&mut stream));
    }
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("closed after the last answer");
    assert!(rest.is_empty());
    sequential.shutdown();
    assert_eq!(sequential.join().invariant_violations, 0);

    // A registration answers with its raw alarm id, which comes from a
    // process-wide counter, so the id and the length of its body differ
    // between the two servers; both runs must agree on every other byte.
    let masked = |bytes: Vec<u8>| {
        let mut text = String::from_utf8(bytes).expect("utf8");
        for key in ["\"id\":", "content-length: "] {
            let mut parts = text.split(key);
            let mut out = parts.next().unwrap_or_default().to_owned();
            for part in parts {
                out.push_str(key);
                out.push('#');
                out.push_str(part.trim_start_matches(|c: char| c.is_ascii_digit()));
            }
            text = out;
        }
        text
    };
    let (at_once, one_by_one) = (masked(at_once), masked(one_by_one));
    assert_eq!(at_once.matches("HTTP/1.1 ").count(), 20, "{at_once}");
    assert_eq!(at_once.matches("\"id\":#,").count(), 9, "{at_once}");
    assert!(at_once.contains("\"delivered\":"), "{at_once}");
    assert_eq!(at_once, one_by_one);
}

/// Runs `tenants` concurrent client threads, each with a deterministic
/// per-tenant request sequence, and returns the final digest body.
fn concurrent_tenant_run(tenants: usize) -> String {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr().to_string();
    let mut threads = Vec::new();
    for t in 0..tenants {
        let addr = addr.clone();
        threads.push(thread::spawn(move || {
            let tenant = format!("tenant{t}");
            for k in 0..6u64 {
                let resp = post(
                    &addr,
                    "/v1/register",
                    &register_body(&tenant, 60_000 + (t as u64) * 10_000 + k * 1_000),
                );
                assert_eq!(status_of(&resp), 200);
            }
            post(
                &addr,
                "/v1/cancel",
                &format!("{{\"tenant\":\"{tenant}\",\"ordinal\":2}}"),
            );
            get(&addr, &format!("/v1/query?tenant={tenant}"));
        }));
    }
    for t in threads {
        t.join().expect("tenant thread");
    }
    let digest = get(&addr, "/v1/state");
    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.invariant_violations, 0);
    digest
        .split_once("\r\n\r\n")
        .map(|x| x.1)
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn concurrent_tenants_produce_a_deterministic_digest() {
    let a = concurrent_tenant_run(4);
    let b = concurrent_tenant_run(4);
    assert_eq!(a, b, "digest must not depend on tenant interleaving");
}

#[test]
fn every_fault_profile_leaves_the_engine_consistent() {
    for profile in FaultPlan::PROFILES {
        if profile == "none" {
            continue;
        }
        let handle = spawn(ServeConfig::default()).expect("spawn");
        let spec = LoadSpec {
            addr: handle.addr().to_string(),
            connections: 24,
            concurrency: 4,
            tenants: 3,
            seed: 7,
            fault: FaultPlan::named(profile).expect("profile"),
            deadline: Duration::from_millis(2_000),
        };
        let report = load::run(&spec);
        assert!(
            report.sent > 0,
            "profile {profile}: no requests reached the wire"
        );

        // The engine must still be fully consistent and serving.
        let addr = handle.addr().to_string();
        let resp = post(&addr, "/v1/register", &register_body("survivor", 3_600_000));
        assert_eq!(status_of(&resp), 200, "profile {profile}: {resp}");
        let metrics = get(&addr, "/metrics");
        assert!(
            metrics.contains("serve_invariant_violations 0"),
            "profile {profile}: {metrics}"
        );
        handle.shutdown();
        let drain = handle.join();
        assert_eq!(
            drain.invariant_violations, 0,
            "profile {profile} corrupted the engine"
        );
        assert_eq!(drain.accepted, drain.completed, "profile {profile}");
    }
}

#[test]
fn server_side_fault_drill_stays_consistent() {
    let config = ServeConfig {
        fault: FaultPlan::named("mixed").expect("profile"),
        seed: 11,
        ..ServeConfig::default()
    };
    let handle = spawn(config).expect("spawn");
    let spec = LoadSpec {
        addr: handle.addr().to_string(),
        connections: 24,
        concurrency: 4,
        tenants: 3,
        seed: 7,
        fault: FaultPlan::none(),
        deadline: Duration::from_millis(2_000),
    };
    let report = load::run(&spec);
    assert!(report.sent > 0);
    handle.shutdown();
    let drain = handle.join();
    assert!(
        drain.net_faults > 0,
        "the server-side drill must have fired"
    );
    assert_eq!(drain.invariant_violations, 0);
    assert_eq!(drain.accepted, drain.completed);
}

#[test]
fn load_harness_emits_the_serve_document() {
    let server = ServeConfig {
        workers: 2,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let load_spec = LoadSpec {
        connections: 60,
        concurrency: 8,
        tenants: 2,
        seed: 3,
        ..LoadSpec::default()
    };
    let (report, drain, json) = load::drive(server, load_spec, "none").expect("drive");
    assert!(report.sent > 0);
    assert_eq!(drain.invariant_violations, 0);
    assert_eq!(drain.accepted, drain.completed);
    assert!(json.contains("\"schema\": \"simty-serve/v1\""));
    assert!(json.contains("\"server\""));
    let parsed = simty_bench::JsonValue::parse(&json).expect("document parses");
    assert!(parsed.get("load").is_some());
}

/// The value of the counter `name` in a `GET /metrics` response.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no counter `{name}` in {metrics}"))
}

/// `/metrics` counts a drill's faults while the faulted connection is
/// still open: every read of this one stalls first, the `GET /metrics`
/// it carries included.
#[test]
fn a_fault_shows_on_metrics_while_its_connection_is_open() {
    let config = ServeConfig {
        fault: FaultPlan {
            stall_p: 1.0,
            stall: Duration::from_millis(1),
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let handle = spawn(config).expect("spawn");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut faults = Vec::new();
    for _ in 0..2 {
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("write");
        let answer = String::from_utf8(read_one_response(&mut stream)).expect("utf8");
        assert!(answer.contains("connection: keep-alive"), "{answer}");
        faults.push(counter(&answer, "serve_net_faults_total"));
    }
    assert!(faults[0] >= 1, "{faults:?}");
    assert!(faults[1] > faults[0], "{faults:?}");
    drop(stream);
    handle.shutdown();
    let drain = handle.join();
    assert_eq!(
        drain.net_faults,
        faults[1] + 1,
        "one more read saw the close"
    );
}

/// The register, cancel and delivery totals of `/metrics`, and the same
/// five counters summed over `tenants`' `/v1/query` answers.
fn totals_and_tenant_sums(addr: &str, tenants: &[&str]) -> ([u64; 5], [u64; 5]) {
    const COUNTERS: [(&str, &str); 5] = [
        ("serve_register_admitted_total", "registered"),
        ("serve_register_deferred_total", "deferred"),
        ("serve_register_rejected_total", "rejected"),
        ("serve_cancel_total", "cancelled"),
        ("serve_delivered_total", "delivered"),
    ];
    let mut sums = [0; 5];
    for tenant in tenants {
        let answer = get(addr, &format!("/v1/query?tenant={tenant}"));
        let body = answer.split_once("\r\n\r\n").expect("a body").1;
        let stats = simty_bench::JsonValue::parse(body).expect("query parses");
        for (sum, (_, key)) in sums.iter_mut().zip(COUNTERS) {
            *sum += stats.get(key).and_then(|v| v.as_num()).expect(key) as u64;
        }
    }
    let metrics = get(addr, "/metrics");
    (COUNTERS.map(|(name, _)| counter(&metrics, name)), sums)
}

/// Every total `/metrics` reports has one record: the register, cancel
/// and delivery totals are the tenants' own counters summed, so they
/// agree with `/v1/query` even after a restart; the request and shed
/// totals are the ones the drain report gives.
#[test]
fn metrics_totals_have_one_source() {
    let dir = std::env::temp_dir().join(format!("serve-totals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        deadline: Duration::from_millis(300),
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let handle = spawn(config.clone()).expect("spawn");
    let addr = handle.addr().to_string();

    // A storm from one tenant: its 16-token burst is admitted, the rest
    // rejected. No registration is deferred: admission defers only
    // deferrable alarms, and a fresh alarm, whose hardware the manager
    // has not yet seen, counts as perceptible.
    for i in 0..20 {
        post(
            &addr,
            "/v1/register",
            &register_body("storm", 3_600_000 + i),
        );
    }
    for i in 0..3 {
        let one_shot = format!(
            "{{\"tenant\":\"mail\",\"nominal_ms\":{}}}",
            60_000 + i * 1_000
        );
        assert_eq!(status_of(&post(&addr, "/v1/register", &one_shot)), 200);
    }
    post(&addr, "/v1/cancel", "{\"tenant\":\"mail\",\"ordinal\":1}");
    post(&addr, "/v1/cancel", "{\"tenant\":\"storm\",\"ordinal\":0}");
    post(&addr, "/v1/advance", "{\"now_ms\":700000}");

    // Three silent connections, 50 ms apart: the first parks the one
    // worker until its deadline, the second fills the one queue slot,
    // so one of them finds the queue full and is shed. Each ends in a
    // 408 or a 503, after which the worker is free again.
    let mut silent = Vec::new();
    for _ in 0..3 {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        silent.push(stream);
        thread::sleep(Duration::from_millis(50));
    }
    let mut shed = 0;
    for mut stream in silent {
        let mut out = String::new();
        stream
            .read_to_string(&mut out)
            .expect("an answer, then close");
        shed += u64::from(out.starts_with("HTTP/1.1 503"));
    }
    assert!(shed > 0, "the full queue must shed");

    let tenants = ["mail", "storm"];
    let (totals, sums) = totals_and_tenant_sums(&addr, &tenants);
    assert_eq!(
        totals, sums,
        "admitted, deferred, rejected, cancelled, delivered"
    );
    assert!(
        [0, 2, 3, 4].iter().all(|&i| sums[i] > 0),
        "admitted, rejected, cancelled and delivered are driven: {sums:?}"
    );
    let metrics = get(&addr, "/metrics");
    handle.shutdown();
    let drain = handle.join();
    // The last `/metrics` answer is counted once it is rendered.
    assert_eq!(
        drain.requests,
        counter(&metrics, "serve_requests_total") + 1
    );
    assert_eq!(drain.shed, counter(&metrics, "serve_shed_total"));
    assert!(drain.shed >= shed);

    let restarted = spawn(config).expect("respawn");
    let (totals_after, sums_after) =
        totals_and_tenant_sums(&restarted.addr().to_string(), &tenants);
    assert_eq!(sums_after, sums, "the tenants' counters resume");
    assert_eq!(
        totals_after, sums_after,
        "the totals include the restored history"
    );
    restarted.shutdown();
    assert_eq!(restarted.join().invariant_violations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state dir resumes only under the policy its snapshot was taken
/// under; asking for another is a typed error naming both.
#[test]
fn a_restart_under_another_policy_is_refused() {
    let dir = std::env::temp_dir().join(format!("serve-policy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let handle = spawn(config.clone()).expect("spawn");
    let reg = post(
        &handle.addr().to_string(),
        "/v1/register",
        &register_body("app", 60_000),
    );
    assert_eq!(status_of(&reg), 200, "{reg}");
    handle.shutdown();
    assert!(handle.join().checkpoint.is_some());

    let native = ServeConfig {
        policy: "native".to_owned(),
        ..config.clone()
    };
    let err = spawn(native).expect_err("a SIMTY snapshot must not resume as NATIVE");
    assert_eq!(
        err,
        SpawnError::PolicyMismatch {
            requested: "native".to_owned(),
            snapshot: "simty".to_owned(),
        }
    );
    let message = err.to_string();
    assert!(
        message.contains("`native`") && message.contains("`simty`"),
        "{message}"
    );

    let resumed = spawn(config).expect("the snapshot's own policy resumes");
    let query = get(&resumed.addr().to_string(), "/v1/query?tenant=app");
    assert!(query.contains("\"registered\":1"), "{query}");
    resumed.shutdown();
    resumed.join();
    let _ = std::fs::remove_dir_all(&dir);
}
