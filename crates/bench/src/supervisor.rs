//! Cell supervision: panic capture, deadlines, bounded retry.
//!
//! A campaign cell is one deterministic simulation run. Before this
//! module, one panicking or hung cell aborted the entire campaign
//! (`handle.join().expect(...)` in the campaign executor). The supervisor
//! instead wraps every cell in `catch_unwind`, optionally races it
//! against a wall-clock deadline, retries panics that self-identify as
//! transient, and — when all else fails — **quarantines** the cell with
//! its failure reason recorded so the rest of the campaign continues.
//!
//! Classification is deterministic: a panic whose payload contains the
//! marker `"transient"` is retryable (up to
//! [`SupervisorConfig::max_retries`]); any other panic poisons the cell
//! immediately, and a deadline overrun always poisons (a deterministic
//! cell that hung once would hang again, so retrying is pointless).

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use simty::obs::MetricsRegistry;

/// The marker a panic payload must contain to be classified retryable.
pub const TRANSIENT_MARKER: &str = "transient";

/// Supervision policy for campaign cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Retry budget for panics classified transient. Zero disables
    /// retry entirely.
    pub max_retries: u32,
    /// Per-cell wall-clock deadline. `None` (the default — benches and
    /// long soaks must not race the clock) disables the watchdog; when
    /// set, each attempt runs on a watchdog thread and is abandoned if
    /// it outlives the deadline.
    pub deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 1,
            deadline: None,
        }
    }
}

/// What happened to one campaign cell, as recorded in the result
/// documents and the campaign journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// First attempt succeeded.
    Ok,
    /// Succeeded after `retries` transient-panic retries.
    Retried {
        /// How many retryable panics preceded the successful attempt.
        retries: u32,
    },
    /// Quarantined: every attempt failed (or the failure was not
    /// retryable). The campaign continued without this cell.
    Poisoned {
        /// Human-readable failure reason (panic payload or deadline).
        reason: String,
        /// Retryable panics that preceded the poisoning attempt.
        retries: u32,
        /// Whether the final attempt was killed by the deadline
        /// watchdog rather than a panic.
        timed_out: bool,
    },
}

impl CellStatus {
    /// Whether the cell was quarantined.
    pub fn is_poisoned(&self) -> bool {
        matches!(self, CellStatus::Poisoned { .. })
    }

    /// The status as the documents' compact token: `ok`, `retried:<n>`,
    /// or `poisoned: <reason>`.
    #[must_use]
    pub fn token(&self) -> String {
        match self {
            CellStatus::Ok => "ok".to_owned(),
            CellStatus::Retried { retries } => format!("retried:{retries}"),
            CellStatus::Poisoned { reason, .. } => format!("poisoned: {reason}"),
        }
    }

    /// Parses the journalable tokens (`ok`, `retried:<n>`). Poisoned
    /// cells are never journaled — they are re-run on resume — so
    /// `poisoned:` tokens (and anything else) return `None`.
    #[must_use]
    pub fn from_token(token: &str) -> Option<CellStatus> {
        if token == "ok" {
            return Some(CellStatus::Ok);
        }
        let retries = token.strip_prefix("retried:")?.parse().ok()?;
        Some(CellStatus::Retried { retries })
    }
}

/// Aggregated supervisor accounting over one campaign.
///
/// Everything except `journal_skips` is derived purely from the
/// per-cell statuses, so the counts are identical whether a cell was
/// executed or restored from the campaign journal — which keeps the
/// `"harness"` block of a resumed document byte-identical to an
/// uninterrupted run. `journal_skips` (cells restored rather than run)
/// is inherently per-invocation and therefore lives *outside* the
/// deterministic document body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Total cells in the campaign.
    pub cells: u64,
    /// Cells that succeeded on the first attempt.
    pub ok: u64,
    /// Cells that succeeded after at least one retry.
    pub retried_cells: u64,
    /// Total transient-panic retries across all cells.
    pub retries: u64,
    /// Total panics observed (retried + poisoning).
    pub panics: u64,
    /// Cells killed by the deadline watchdog.
    pub timeouts: u64,
    /// Cells quarantined.
    pub poisoned: u64,
    /// Cells restored from the campaign journal instead of executed
    /// (this invocation only; not part of the deterministic document).
    pub journal_skips: u64,
}

impl HarnessStats {
    /// Derives the deterministic counters from per-cell statuses
    /// (`journal_skips` stays zero; the campaign kernel fills it in).
    pub fn from_statuses<'a, I: IntoIterator<Item = &'a CellStatus>>(statuses: I) -> Self {
        let mut stats = HarnessStats::default();
        for status in statuses {
            stats.cells += 1;
            match status {
                CellStatus::Ok => stats.ok += 1,
                CellStatus::Retried { retries } => {
                    stats.retried_cells += 1;
                    stats.retries += u64::from(*retries);
                    stats.panics += u64::from(*retries);
                }
                CellStatus::Poisoned {
                    retries, timed_out, ..
                } => {
                    stats.poisoned += 1;
                    stats.retries += u64::from(*retries);
                    stats.panics += u64::from(*retries);
                    if *timed_out {
                        stats.timeouts += 1;
                    } else {
                        stats.panics += 1;
                    }
                }
            }
        }
        stats
    }

    /// The deterministic `"harness"` JSON block shared by all four
    /// campaign documents. Excludes `journal_skips` (see the type docs).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cells\":{},\"ok\":{},\"retried\":{},\"retries\":{},\"panics\":{},\"timeouts\":{},\"poisoned\":{}}}",
            self.cells, self.ok, self.retried_cells, self.retries, self.panics, self.timeouts,
            self.poisoned
        )
    }

    /// Publishes every counter (including `journal_skips`) into a
    /// metrics registry under `harness.*` names.
    pub fn publish(&self, registry: &mut MetricsRegistry) {
        registry.add("harness.cells", self.cells);
        registry.add("harness.ok", self.ok);
        registry.add("harness.retried_cells", self.retried_cells);
        registry.add("harness.retries", self.retries);
        registry.add("harness.panics", self.panics);
        registry.add("harness.timeouts", self.timeouts);
        registry.add("harness.poisoned", self.poisoned);
        registry.add("harness.journal_skips", self.journal_skips);
    }
}

enum Attempt<T> {
    Done(T),
    Panicked(String),
    TimedOut(Duration),
}

fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// One attempt at `task`, its panic caught.
fn attempt<T>(task: &impl Fn() -> T) -> Attempt<T> {
    match panic::catch_unwind(AssertUnwindSafe(task)) {
        Ok(result) => Attempt::Done(result),
        Err(payload) => Attempt::Panicked(describe_panic(payload)),
    }
}

fn run_attempt<T, F>(deadline: Option<Duration>, task: &Arc<F>) -> Attempt<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let Some(limit) = deadline else {
        return attempt(task.as_ref());
    };
    let (tx, rx) = mpsc::channel();
    let task = Arc::clone(task);
    // Detached, not scoped: if the cell hangs, the watchdog abandons it —
    // a scoped spawn would block scope exit on the hung thread forever.
    std::thread::spawn(move || {
        let _ = tx.send(attempt(task.as_ref()));
    });
    rx.recv_timeout(limit).unwrap_or(Attempt::TimedOut(limit))
}

/// Runs one cell under supervision: catch panics, enforce the optional
/// deadline, retry transient panics, and classify the outcome. Returns
/// the result (if any attempt succeeded) and the cell's final status.
/// `task` may run more than once, and with a deadline on a detached
/// watchdog thread, hence its bounds.
pub fn supervise<T, F>(config: &SupervisorConfig, task: F) -> (Option<T>, CellStatus)
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let task = Arc::new(task);
    let mut retries = 0u32;
    loop {
        match run_attempt(config.deadline, &task) {
            Attempt::Done(result) => {
                let status = if retries == 0 {
                    CellStatus::Ok
                } else {
                    CellStatus::Retried { retries }
                };
                return (Some(result), status);
            }
            Attempt::Panicked(reason) => {
                if reason.contains(TRANSIENT_MARKER) && retries < config.max_retries {
                    retries += 1;
                    continue;
                }
                return (
                    None,
                    CellStatus::Poisoned {
                        reason: format!("panic: {reason}"),
                        retries,
                        timed_out: false,
                    },
                );
            }
            Attempt::TimedOut(limit) => {
                return (
                    None,
                    CellStatus::Poisoned {
                        reason: format!("cell exceeded the {}ms deadline", limit.as_millis()),
                        retries,
                        timed_out: true,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    use simty::core::SimDuration;
    use simty::experiments::{PolicyKind, RunSpec, Scenario};
    use simty::sim::SimReport;

    fn quick_result() -> SimReport {
        RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
            .with_duration(SimDuration::from_mins(1))
            .run()
    }

    #[test]
    fn clean_cell_is_ok() {
        let (result, status) = supervise(&SupervisorConfig::default(), quick_result);
        assert!(result.is_some());
        assert_eq!(status, CellStatus::Ok);
    }

    #[test]
    fn non_transient_panic_poisons_without_retry() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let (result, status) = supervise(&SupervisorConfig::default(), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            panic!("hard failure");
        });
        assert!(result.is_none());
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        match status {
            CellStatus::Poisoned {
                reason,
                retries,
                timed_out,
            } => {
                assert_eq!(reason, "panic: hard failure");
                assert_eq!(retries, 0);
                assert!(!timed_out);
            }
            other => panic!("expected poisoned, got {other:?}"),
        }
    }

    #[test]
    fn transient_panic_is_retried_then_succeeds() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let (result, status) = supervise(
            &SupervisorConfig {
                max_retries: 3,
                deadline: None,
            },
            move || {
                if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient flake");
                }
                quick_result()
            },
        );
        assert!(result.is_some());
        assert_eq!(status, CellStatus::Retried { retries: 2 });
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn transient_panic_beyond_budget_poisons() {
        let (result, status) = supervise(
            &SupervisorConfig {
                max_retries: 2,
                deadline: None,
            },
            || panic!("transient forever"),
        );
        assert!(result.is_none());
        assert_eq!(
            status,
            CellStatus::Poisoned {
                reason: "panic: transient forever".to_owned(),
                retries: 2,
                timed_out: false,
            }
        );
    }

    #[test]
    fn deadline_overrun_poisons_immediately() {
        let (result, status) = supervise(
            &SupervisorConfig {
                max_retries: 3,
                deadline: Some(Duration::from_millis(30)),
            },
            || {
                std::thread::sleep(Duration::from_secs(30));
                quick_result()
            },
        );
        assert!(result.is_none());
        match status {
            CellStatus::Poisoned {
                reason,
                retries,
                timed_out,
            } => {
                assert!(reason.contains("deadline"), "{reason}");
                assert_eq!(retries, 0, "timeouts must not be retried");
                assert!(timed_out);
            }
            other => panic!("expected poisoned, got {other:?}"),
        }
    }

    #[test]
    fn deadline_passes_fast_cells_through() {
        let (result, status) = supervise(
            &SupervisorConfig {
                max_retries: 1,
                deadline: Some(Duration::from_secs(120)),
            },
            quick_result,
        );
        assert!(result.is_some());
        assert_eq!(status, CellStatus::Ok);
    }

    #[test]
    fn status_tokens_round_trip_the_journalable_states() {
        assert_eq!(CellStatus::Ok.token(), "ok");
        assert_eq!(CellStatus::Retried { retries: 2 }.token(), "retried:2");
        assert_eq!(CellStatus::from_token("ok"), Some(CellStatus::Ok));
        assert_eq!(
            CellStatus::from_token("retried:2"),
            Some(CellStatus::Retried { retries: 2 })
        );
        assert_eq!(CellStatus::from_token("poisoned: x"), None);
        assert_eq!(CellStatus::from_token("retried:x"), None);
        assert_eq!(CellStatus::from_token(""), None);
        let poisoned = CellStatus::Poisoned {
            reason: "panic: boom".to_owned(),
            retries: 1,
            timed_out: false,
        };
        assert_eq!(poisoned.token(), "poisoned: panic: boom");
        assert!(poisoned.is_poisoned());
    }

    #[test]
    fn harness_stats_derive_from_statuses() {
        let statuses = [
            CellStatus::Ok,
            CellStatus::Ok,
            CellStatus::Retried { retries: 2 },
            CellStatus::Poisoned {
                reason: "panic: x".to_owned(),
                retries: 1,
                timed_out: false,
            },
            CellStatus::Poisoned {
                reason: "deadline".to_owned(),
                retries: 0,
                timed_out: true,
            },
        ];
        let stats = HarnessStats::from_statuses(&statuses);
        assert_eq!(
            stats,
            HarnessStats {
                cells: 5,
                ok: 2,
                retried_cells: 1,
                retries: 3,
                panics: 4, // 2 retried + 1 pre-poison retry + 1 poisoning panic
                timeouts: 1,
                poisoned: 2,
                journal_skips: 0,
            }
        );
        let json = stats.to_json();
        assert_eq!(
            json,
            "{\"cells\":5,\"ok\":2,\"retried\":1,\"retries\":3,\"panics\":4,\"timeouts\":1,\"poisoned\":2}"
        );
        assert!(
            !json.contains("journal_skips"),
            "nondeterministic counter leaked"
        );
        let mut registry = MetricsRegistry::new();
        stats.publish(&mut registry);
        assert_eq!(registry.counter("harness.cells"), 5);
        assert_eq!(registry.counter("harness.poisoned"), 2);
        assert_eq!(registry.counter("harness.journal_skips"), 0);
    }
}
