//! The accept thread blocks in `accept()`, so every drain trigger must
//! wake it: these tests drain through `shutdown()` and `POST
//! /admin/drain` and check that the listener closes and `join` returns
//! within [`BOUND`], that the wake connection is never dispatched or
//! counted, and that a fresh connection is taken as soon as it arrives
//! instead of after a sleep-poll. The signal-flag trigger has its own
//! test binary (`drain_signal.rs`): the flag is process-global and would
//! drain every server spawned here.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use simty_serve::server::{spawn, DrainReport, ServeConfig, ServerHandle};

/// How long a woken accept thread and an idle server's drain may take:
/// generous for a loaded host, yet far short of a hang.
const BOUND: Duration = Duration::from_secs(2);

/// Sends one `connection: close` request on a fresh connection and
/// returns the full response text.
fn exchange(addr: SocketAddr, wire: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(BOUND)).expect("timeout");
    stream.write_all(wire.as_bytes()).expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn healthz(addr: SocketAddr) -> String {
    exchange(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
}

/// Waits, for at most [`BOUND`], until the listener refuses
/// connections: the accept thread has returned and dropped it.
fn await_listener_closed(addr: SocketAddr) {
    let started = Instant::now();
    loop {
        match TcpStream::connect_timeout(&addr, BOUND) {
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => return,
            // Accepted while draining: dropped unserved, so try again.
            _ => assert!(
                started.elapsed() < BOUND,
                "the accept thread was never woken"
            ),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Joins the server, asserting that it returns within [`BOUND`].
fn join_within_bound(handle: ServerHandle) -> DrainReport {
    let started = Instant::now();
    let drain = handle.join();
    assert!(
        started.elapsed() < BOUND,
        "join took {:?}",
        started.elapsed()
    );
    assert_eq!(drain.invariant_violations, 0);
    drain
}

#[test]
fn shutdown_wakes_the_blocked_accept() {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr();
    assert!(healthz(addr).contains("\"draining\":false"));

    handle.shutdown();
    assert!(handle.is_draining());
    await_listener_closed(addr);
    let drain = join_within_bound(handle);
    assert_eq!((drain.accepted, drain.completed, drain.requests), (1, 1, 1));
}

#[test]
fn admin_drain_wakes_the_blocked_accept() {
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr();
    assert!(healthz(addr).contains("\"draining\":false"));

    let answer = exchange(
        addr,
        "POST /admin/drain HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
    );
    assert!(answer.contains("{\"draining\":true}"), "{answer}");
    // The worker that answered woke the accept thread: the listener
    // closes before anyone calls `join`.
    await_listener_closed(addr);
    let drain = join_within_bound(handle);
    assert_eq!((drain.accepted, drain.completed, drain.requests), (2, 2, 2));
}

#[test]
fn the_wake_connection_is_never_dispatched_or_counted() {
    let handle = spawn(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = handle.addr();
    for _ in 0..3 {
        assert!(healthz(addr).starts_with("HTTP/1.1 200"));
    }
    // A second trigger finds the drain started and wakes nothing.
    handle.shutdown();
    handle.shutdown();
    let drain = join_within_bound(handle);
    assert_eq!(drain.accepted, drain.completed);
    assert_eq!((drain.accepted, drain.requests, drain.shed), (3, 3, 0));
}

/// A sleep-poll accept makes each fresh connection wait for the poll's
/// next tick: 0–5 ms at a 5 ms poll, ~50 ms over 20 connections on
/// average, and nearer 100 ms when each connection follows the previous
/// answer at once (the poll has just gone back to sleep). A blocking
/// accept takes each one as it arrives.
#[test]
fn fresh_connections_are_taken_without_waiting_for_a_poll() {
    const CONNECTIONS: usize = 20;
    const LIMIT: Duration = Duration::from_millis(20);
    let handle = spawn(ServeConfig::default()).expect("spawn");
    let addr = handle.addr();
    // Best of 3 absorbs a host stall in any one round.
    let best = (0..3)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..CONNECTIONS {
                assert!(healthz(addr).starts_with("HTTP/1.1 200"));
            }
            started.elapsed()
        })
        .min()
        .expect("three rounds");
    handle.shutdown();
    let drain = join_within_bound(handle);
    assert_eq!(drain.accepted, 3 * CONNECTIONS as u64);
    assert!(
        best < LIMIT,
        "{CONNECTIONS} fresh connections took {best:?} to answer, limit {LIMIT:?}"
    );
}
