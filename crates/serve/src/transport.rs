//! Network-transport abstraction with seeded fault injection.
//!
//! [`crate::http`] promises that a request either parses completely or
//! fails with a typed error, and [`crate::live`] promises that tenant
//! state only changes when a request parsed completely — so a
//! connection that dies mid-call must never leave the engine corrupted.
//! This module lets the test suite (and the `serve-load` drill) kill
//! connections **mid-flight** the way a real network does: every byte
//! the server or load generator moves can go through a
//! [`FaultTransport`], the [`Vfs`](simty::sim::vfs::Vfs) /
//! [`FaultVfs`](simty::sim::FaultVfs) pattern lifted from the
//! filesystem to the socket:
//!
//! * torn reads — a read delivers only a prefix of what was available;
//! * short writes — a write dies after a prefix reached the wire
//!   (`WriteZero`), as a reset mid-send would;
//! * stalls — a read blocks for a configured pause first (slowloris
//!   from the peer's point of view, a slow server from the client's);
//! * disconnects — the connection resets outright, before a read or
//!   after a written prefix.
//!
//! Faults draw from a deterministic seeded RNG stream: same seed, same
//! probabilities, same operation sequence → same faults, which is what
//! makes the "engine state is unchanged under every profile" drill
//! assertable.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kinds of fault [`FaultTransport`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetFaultKind {
    /// A read delivers a one-byte prefix of the available data.
    TornRead,
    /// A write dies after a prefix reached the wire (`WriteZero`).
    ShortWrite,
    /// A read pauses for the configured stall before proceeding.
    Stall,
    /// The connection resets (`ConnectionReset` on read, `BrokenPipe`
    /// on write) and stays dead.
    Disconnect,
}

impl NetFaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [NetFaultKind; 4] = [
        NetFaultKind::TornRead,
        NetFaultKind::ShortWrite,
        NetFaultKind::Stall,
        NetFaultKind::Disconnect,
    ];

    fn index(self) -> usize {
        match self {
            NetFaultKind::TornRead => 0,
            NetFaultKind::ShortWrite => 1,
            NetFaultKind::Stall => 2,
            NetFaultKind::Disconnect => 3,
        }
    }

    /// The kind's display name.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::TornRead => "torn-read",
            NetFaultKind::ShortWrite => "short-write",
            NetFaultKind::Stall => "stall",
            NetFaultKind::Disconnect => "disconnect",
        }
    }
}

/// The probabilities one connection's fault schedule is drawn from.
///
/// A plan is cheap to copy; each connection pairs it with its own
/// seeded RNG via [`FaultPlan::transport`], so connection `k` of a
/// seeded run always sees the same schedule regardless of thread
/// interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a read tears.
    pub torn_read_p: f64,
    /// Probability that a write dies short.
    pub short_write_p: f64,
    /// Probability that a read stalls first.
    pub stall_p: f64,
    /// Probability that the connection resets on an operation.
    pub disconnect_p: f64,
    /// How long a stall pauses.
    pub stall: Duration,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        FaultPlan {
            torn_read_p: 0.0,
            short_write_p: 0.0,
            stall_p: 0.0,
            disconnect_p: 0.0,
            stall: Duration::from_millis(50),
        }
    }

    /// The named drill profiles (`torn-read`, `short-write`, `stall`,
    /// `disconnect`, `mixed`, `none`), or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        let mut plan = FaultPlan::none();
        match name {
            "none" => {}
            "torn-read" => plan.torn_read_p = 0.35,
            "short-write" => plan.short_write_p = 0.2,
            "stall" => plan.stall_p = 0.25,
            "disconnect" => plan.disconnect_p = 0.12,
            "mixed" => {
                plan.torn_read_p = 0.2;
                plan.short_write_p = 0.1;
                plan.stall_p = 0.1;
                plan.disconnect_p = 0.06;
            }
            _ => return None,
        }
        Some(plan)
    }

    /// Every profile name [`FaultPlan::named`] accepts.
    pub const PROFILES: [&'static str; 6] = [
        "none",
        "torn-read",
        "short-write",
        "stall",
        "disconnect",
        "mixed",
    ];

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.torn_read_p > 0.0
            || self.short_write_p > 0.0
            || self.stall_p > 0.0
            || self.disconnect_p > 0.0
    }

    /// Wraps `inner` with this plan over `seed`, sharing `counters`
    /// across connections of one run.
    pub fn transport<S>(
        self,
        inner: S,
        seed: u64,
        counters: Arc<FaultCounters>,
    ) -> FaultTransport<S> {
        FaultTransport {
            inner,
            plan: self,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            counters,
            dead: false,
        }
    }
}

/// Shared per-run tallies of injected network faults.
#[derive(Debug, Default)]
pub struct FaultCounters {
    injected: [AtomicU64; NetFaultKind::ALL.len()],
}

impl FaultCounters {
    /// A fresh zeroed tally.
    pub fn new() -> Arc<Self> {
        Arc::new(FaultCounters::default())
    }

    /// How many faults of `kind` have been injected so far.
    pub fn injected(&self, kind: NetFaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Total injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    fn record(&self, kind: NetFaultKind) {
        self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// A seeded fault-injecting wrapper over any byte stream.
#[derive(Debug)]
pub struct FaultTransport<S> {
    inner: S,
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    counters: Arc<FaultCounters>,
    dead: bool,
}

impl<S> FaultTransport<S> {
    /// The wrapped stream.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Draws the fault decision for one operation: one RNG draw happens
    /// whether or not the fault fires, so the schedule depends only on
    /// the operation sequence (the `FaultVfs` discipline).
    fn roll(&self, p: f64, kind: NetFaultKind) -> bool {
        let draw: f64 = self
            .rng
            .lock()
            .expect("fault transport rng")
            .gen_range(0.0..1.0);
        if draw >= p {
            return false;
        }
        self.counters.record(kind);
        true
    }

    fn reset_err(&mut self, on_read: bool) -> io::Error {
        self.dead = true;
        if on_read {
            io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect")
        } else {
            io::Error::new(io::ErrorKind::BrokenPipe, "injected disconnect")
        }
    }
}

impl<S: Read> Read for FaultTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "connection already dead",
            ));
        }
        if self.roll(self.plan.disconnect_p, NetFaultKind::Disconnect) {
            return Err(self.reset_err(true));
        }
        if self.roll(self.plan.stall_p, NetFaultKind::Stall) {
            std::thread::sleep(self.plan.stall);
        }
        if self.roll(self.plan.torn_read_p, NetFaultKind::TornRead) && !buf.is_empty() {
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultTransport<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection already dead",
            ));
        }
        if self.roll(self.plan.disconnect_p, NetFaultKind::Disconnect) {
            return Err(self.reset_err(false));
        }
        if self.roll(self.plan.short_write_p, NetFaultKind::ShortWrite) {
            let kept = buf.len() / 2;
            if kept > 0 {
                self.inner.write_all(&buf[..kept])?;
            }
            self.dead = true;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected short write: {kept} of {} bytes", buf.len()),
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drive(seed: u64, plan: FaultPlan) -> (Vec<u8>, Vec<&'static str>) {
        let wire = b"the quick brown fox jumps over the lazy dog".to_vec();
        let counters = FaultCounters::new();
        let mut t = plan.transport(Cursor::new(wire), seed, Arc::clone(&counters));
        let mut got = Vec::new();
        let mut log = Vec::new();
        let mut buf = [0u8; 8];
        for _ in 0..64 {
            match t.read(&mut buf) {
                Ok(0) => {
                    log.push("eof");
                    break;
                }
                Ok(n) => {
                    got.extend_from_slice(&buf[..n]);
                    log.push("ok");
                }
                Err(_) => {
                    log.push("err");
                    break;
                }
            }
        }
        (got, log)
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::named("mixed").expect("profile");
        let a = drive(7, plan);
        let b = drive(7, plan);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge_eventually() {
        let plan = FaultPlan::named("disconnect").expect("profile");
        let runs: Vec<_> = (0..16).map(|seed| drive(seed, plan)).collect();
        assert!(
            runs.iter().any(|r| r != &runs[0]),
            "16 seeds produced identical schedules"
        );
    }

    #[test]
    fn torn_reads_deliver_single_bytes() {
        let mut plan = FaultPlan::none();
        plan.torn_read_p = 1.0;
        let counters = FaultCounters::new();
        let mut t = plan.transport(Cursor::new(b"abc".to_vec()), 1, Arc::clone(&counters));
        let mut buf = [0u8; 8];
        assert_eq!(t.read(&mut buf).expect("read"), 1);
        assert_eq!(counters.injected(NetFaultKind::TornRead), 1);
    }

    #[test]
    fn short_write_keeps_prefix_and_kills_connection() {
        let mut plan = FaultPlan::none();
        plan.short_write_p = 1.0;
        let counters = FaultCounters::new();
        let mut t = plan.transport(Cursor::new(Vec::new()), 1, Arc::clone(&counters));
        let err = t.write(b"0123456789").expect_err("short write");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(t.inner_mut().get_ref().as_slice(), b"01234");
        assert!(t.write(b"more").is_err(), "dead connection must stay dead");
        assert_eq!(counters.injected(NetFaultKind::ShortWrite), 1);
    }

    #[test]
    fn every_named_profile_parses_and_none_is_inert() {
        for name in FaultPlan::PROFILES {
            let plan = FaultPlan::named(name).expect("named profile");
            assert_eq!(plan.is_active(), name != "none", "profile {name}");
        }
        assert!(FaultPlan::named("bogus").is_none());
    }
}
