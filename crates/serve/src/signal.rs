//! Minimal SIGTERM/SIGINT trapping for graceful shutdown.
//!
//! The workspace forbids third-party dependencies and `std` offers no
//! portable signal API, so this module carries the repository's only
//! `unsafe`: two `signal(2)` registrations whose handler does nothing
//! but store into a static `AtomicBool` — the one operation that is
//! async-signal-safe by construction. Everything else (draining
//! requests, refusing new connections, snapshotting state) happens on
//! ordinary threads: [`ServerHandle::join`](crate::server::ServerHandle::join)
//! polls [`shutdown_requested`] and, once it reads true, starts the drain
//! and wakes the accept thread out of its blocking `accept()`.
//!
//! On non-Unix targets the module compiles to a no-op: the drain path
//! is still reachable through `POST /admin/drain` and
//! [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a trapped signal (or [`request_shutdown`]) asked the process
/// to drain and exit.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Sets the flag as a trapped signal would (tests).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Re-arms the flag (tests only; the production process exits instead).
pub fn reset_for_tests() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // An atomic store is async-signal-safe; nothing else is allowed
        // in here.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    #[allow(unsafe_code)]
    pub fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            // SAFETY: `signal(2)` with a handler that only performs an
            // atomic store; both registrations are process-global and
            // idempotent under `Once`.
            unsafe {
                signal(SIGTERM, on_signal);
                signal(SIGINT, on_signal);
            }
        });
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGTERM/SIGINT handlers (idempotent).
pub fn install_handlers() {
    imp::install();
}
