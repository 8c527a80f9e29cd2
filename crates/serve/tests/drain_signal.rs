//! The signal trigger: a SIGTERM/SIGINT handler only sets the
//! process-global signal flag, which wakes nothing, so
//! [`ServerHandle::join`] must see the flag and wake the blocked accept
//! thread itself. This is its own test binary because the flag drains
//! every server in the process.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use simty_serve::server::{spawn, DrainReport, ServeConfig, ServerHandle};
use simty_serve::signal;

/// How long `join` may take after the flag is set: a few 25 ms polls
/// and an idle server's drain, far short of a hang.
const BOUND: Duration = Duration::from_secs(2);

/// Sends `GET /healthz` with `connection: close` on a fresh connection
/// and returns whatever came back before the server closed it.
fn healthz(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(BOUND)).expect("timeout");
    // A connection dropped unserved may refuse the write or end in a
    // reset instead of EOF.
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

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
fn the_signal_flag_drains_through_join() {
    // Nothing but `join` sees the flag: it wakes the accept thread.
    let handle = spawn(ServeConfig::default()).expect("spawn");
    assert!(healthz(handle.addr()).starts_with("HTTP/1.1 200"));
    signal::request_shutdown();
    assert!(handle.is_draining());
    let drain = join_within_bound(handle);
    assert_eq!((drain.accepted, drain.completed, drain.requests), (1, 1, 1));
    signal::reset_for_tests();

    // A client that connects after the signal wakes the accept thread
    // first; it is dropped unserved and uncounted, and `join` finds the
    // drain already started.
    let handle = spawn(ServeConfig::default()).expect("spawn");
    assert!(healthz(handle.addr()).starts_with("HTTP/1.1 200"));
    signal::request_shutdown();
    assert_eq!(
        healthz(handle.addr()),
        "",
        "a client accepted while draining is not served"
    );
    let drain = join_within_bound(handle);
    assert_eq!((drain.accepted, drain.completed, drain.requests), (1, 1, 1));
    signal::reset_for_tests();
}
