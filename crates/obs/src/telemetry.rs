//! A bounded-channel telemetry bus for live campaign progress.
//!
//! Campaign workers (sweep cells, fleet shards) publish structured
//! [`TelemetryEvent`]s through a cheap, cloneable [`TelemetrySink`];
//! the campaign driver drains the matching [`TelemetryBus`] into a
//! TTY progress line and/or an append-only `events.jsonl`. Three
//! design rules keep this safe to bolt onto a deterministic simulator:
//!
//! * **Never block a worker.** The channel is bounded and publishes
//!   with `try_send`; a slow (or absent) drainer drops events and
//!   counts them in [`TelemetrySink::dropped`] instead of stalling the
//!   campaign.
//! * **Never wait for a worker.** Whoever drains the bus ends the
//!   stream with [`TelemetrySink::end`], whose marker stops the drain
//!   even while a worker abandoned past its deadline still holds a sink;
//!   a sink [`closed`](TelemetrySink::close) by its scope's owner, and
//!   every sink once the stream has ended, drops what it publishes.
//! * **Wall clock stays out of the deterministic payload.** Events
//!   carry a `wall_ms` stamp exactly like the campaign documents'
//!   `stages` block: useful to a human, excluded from everything that
//!   must be byte-identical across thread counts and resume.
//! * **No bench-crate types.** Cell statuses travel as their journal
//!   tokens (`ok`, `retried:2`, `poisoned: …`), so the obs crate stays
//!   dependency-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

use crate::{json_f64, json_string};

/// Default bound for [`TelemetryBus::new`] callers that don't care:
/// deep enough that a briefly-stalled drainer loses nothing, small
/// enough that an abandoned bus costs a few kilobytes.
pub const DEFAULT_BUS_CAPACITY: usize = 1024;

/// What happened, minus the wall-clock stamp (see [`TelemetryEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A supervised campaign cell began executing.
    CellStarted {
        /// Enqueue-order index of the cell.
        index: usize,
        /// Human-readable cell label.
        label: String,
    },
    /// A supervised campaign cell finished (any status).
    CellFinished {
        /// Enqueue-order index of the cell.
        index: usize,
        /// Human-readable cell label.
        label: String,
        /// Journal status token: `ok`, `retried:<n>`, or `poisoned: <reason>`.
        status: String,
        /// Cell wall time in milliseconds.
        cell_wall_ms: f64,
    },
    /// A fleet shard reports mid-range progress.
    ShardHeartbeat {
        /// Shard label.
        shard: String,
        /// Devices simulated so far in this shard.
        devices_done: u64,
        /// Total devices assigned to this shard.
        devices_total: u64,
        /// Smoothed simulation throughput.
        devices_per_sec: f64,
        /// Global device cursor (checkpoint position).
        cursor: u64,
    },
    /// A campaign journal append completed (or failed).
    JournalWrite {
        /// Cell index the record belongs to.
        index: usize,
        /// Whether the append succeeded.
        ok: bool,
    },
    /// A free-form warning that would otherwise interleave on stderr.
    Warn {
        /// The warning text.
        message: String,
    },
}

impl EventKind {
    /// `info` or `warn` — poisoned cells, failed journal writes, and
    /// explicit warnings are `warn`; everything else is `info`.
    pub fn level(&self) -> &'static str {
        match self {
            EventKind::CellFinished { status, .. } if status.starts_with("poisoned") => "warn",
            EventKind::JournalWrite { ok: false, .. } => "warn",
            EventKind::Warn { .. } => "warn",
            _ => "info",
        }
    }

    fn payload_json(&self) -> String {
        match self {
            EventKind::CellStarted { index, label } => format!(
                "{{\"kind\":\"cell_started\",\"index\":{index},\"label\":{}}}",
                json_string(label)
            ),
            EventKind::CellFinished {
                index,
                label,
                status,
                cell_wall_ms,
            } => format!(
                "{{\"kind\":\"cell_finished\",\"index\":{index},\"label\":{},\
                 \"status\":{},\"cell_wall_ms\":{}}}",
                json_string(label),
                json_string(status),
                json_f64(*cell_wall_ms)
            ),
            EventKind::ShardHeartbeat {
                shard,
                devices_done,
                devices_total,
                devices_per_sec,
                cursor,
            } => format!(
                "{{\"kind\":\"shard_heartbeat\",\"shard\":{},\"devices_done\":{devices_done},\
                 \"devices_total\":{devices_total},\"devices_per_sec\":{},\"cursor\":{cursor}}}",
                json_string(shard),
                json_f64(*devices_per_sec)
            ),
            EventKind::JournalWrite { index, ok } => {
                format!("{{\"kind\":\"journal_write\",\"index\":{index},\"ok\":{ok}}}")
            }
            EventKind::Warn { message } => {
                format!("{{\"kind\":\"warn\",\"message\":{}}}", json_string(message))
            }
        }
    }
}

/// One published event: a wall-clock stamp (milliseconds since the bus
/// was created — observability only, never part of a deterministic
/// export) around an [`EventKind`] payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Milliseconds since [`TelemetryBus::new`].
    pub wall_ms: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl TelemetryEvent {
    /// One `events.jsonl` line:
    /// `{"wall_ms":…,"level":"info|warn","event":{…}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_ms\":{},\"level\":\"{}\",\"event\":{}}}",
            self.wall_ms,
            self.kind.level(),
            self.kind.payload_json()
        )
    }
}

/// The publishing half: clone one per worker. All clones share the
/// bounded channel, the epoch, the dropped-event counter and the switch
/// [`close`](Self::close) throws; [`scoped`](Self::scoped) makes a sink
/// with a switch of its own.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    /// Events, then `None`: the marker that ends the stream.
    tx: SyncSender<Option<TelemetryEvent>>,
    epoch: Instant,
    dropped: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
}

impl TelemetrySink {
    /// Publishes an event, stamping it with the bus-relative wall
    /// clock. Never blocks: if the sink is closed, the bus full or the
    /// drainer gone, the event is dropped and counted.
    pub fn publish(&self, kind: EventKind) {
        if self.closed.load(Ordering::Acquire) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let event = TelemetryEvent {
            wall_ms: self.epoch.elapsed().as_millis() as u64,
            kind,
        };
        if let Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) =
            self.tx.try_send(Some(event))
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A sink on the same bus with a [`close`](Self::close) switch of its
    /// own: a campaign hands one to each cell and closes it when the
    /// cell's supervision ends, so an attempt abandoned past its
    /// deadline publishes nothing after its cell's finish.
    #[must_use]
    pub fn scoped(&self) -> TelemetrySink {
        TelemetrySink {
            closed: Arc::new(AtomicBool::new(false)),
            ..self.clone()
        }
    }

    /// Closes this sink and its clones: what they publish from now on is
    /// dropped and counted.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Ends the stream: closes this sink, then sends the marker that
    /// ends [`TelemetryBus::drain`] after every event published before
    /// it. The send blocks until the bus has room, so a full bus cannot
    /// shed the marker; the drain ends there even while other sinks
    /// live, and what they publish afterwards is dropped and counted.
    pub fn end(self) {
        self.close();
        let _ = self.tx.send(None);
    }

    /// Convenience for [`EventKind::Warn`].
    pub fn warn(&self, message: impl Into<String>) {
        self.publish(EventKind::Warn {
            message: message.into(),
        });
    }

    /// Events lost to a full or disconnected bus so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The draining half of the bus. Create with [`TelemetryBus::new`],
/// hand [`TelemetrySink`] clones to workers, then iterate the receiver
/// (typically from a dedicated drain thread) until the stream ends.
#[derive(Debug)]
pub struct TelemetryBus {
    rx: Receiver<Option<TelemetryEvent>>,
    dropped: Arc<AtomicU64>,
}

impl TelemetryBus {
    /// A bounded bus and its first sink.
    pub fn new(capacity: usize) -> (TelemetryBus, TelemetrySink) {
        let (tx, rx) = sync_channel(capacity.max(1));
        let dropped = Arc::new(AtomicU64::new(0));
        let sink = TelemetrySink {
            tx,
            epoch: Instant::now(),
            dropped: Arc::clone(&dropped),
            closed: Arc::new(AtomicBool::new(false)),
        };
        (TelemetryBus { rx, dropped }, sink)
    }

    /// Blocking iterator over published events; ends at the marker
    /// [`TelemetrySink::end`] sends, or once every sink clone has been
    /// dropped. Events a live sink queued behind the marker are counted
    /// as dropped when the drain ends, and the bus is gone with it.
    pub fn drain(self) -> impl Iterator<Item = TelemetryEvent> {
        let TelemetryBus { rx, dropped } = self;
        let mut rx = Some(rx);
        std::iter::from_fn(move || {
            let event = rx.as_ref()?.recv().ok().flatten();
            if event.is_none() {
                let late = rx.take().map_or(0, |rx| rx.try_iter().count());
                dropped.fetch_add(late as u64, Ordering::Relaxed);
            }
            event
        })
    }
}

/// Folds the event stream into a one-line live progress summary for
/// the `--progress` flag. Rendering is separated from printing so the
/// driver decides TTY behavior (and tests can assert on the string).
#[derive(Debug, Default, Clone)]
pub struct ProgressState {
    cells_done: u64,
    cells_total: u64,
    retried: u64,
    poisoned: u64,
    warns: u64,
    last_heartbeat: Option<(String, u64, u64, f64)>,
}

impl ProgressState {
    /// A progress tracker expecting `cells_total` cell completions
    /// (zero when unknown).
    pub fn new(cells_total: u64) -> Self {
        ProgressState {
            cells_total,
            ..ProgressState::default()
        }
    }

    /// Folds one event into the summary.
    pub fn update(&mut self, event: &TelemetryEvent) {
        match &event.kind {
            EventKind::CellFinished { status, .. } => {
                self.cells_done += 1;
                if status.starts_with("retried") {
                    self.retried += 1;
                } else if status.starts_with("poisoned") {
                    self.poisoned += 1;
                }
            }
            EventKind::ShardHeartbeat {
                shard,
                devices_done,
                devices_total,
                devices_per_sec,
                ..
            } => {
                self.last_heartbeat = Some((
                    shard.clone(),
                    *devices_done,
                    *devices_total,
                    *devices_per_sec,
                ));
            }
            EventKind::JournalWrite { ok: false, .. } | EventKind::Warn { .. } => {
                self.warns += 1;
            }
            _ => {}
        }
    }

    /// The current one-line summary (no trailing newline).
    pub fn render(&self) -> String {
        let mut line = if self.cells_total > 0 {
            format!("cells {}/{}", self.cells_done, self.cells_total)
        } else {
            format!("cells {}", self.cells_done)
        };
        if self.retried > 0 {
            line.push_str(&format!(" retried {}", self.retried));
        }
        if self.poisoned > 0 {
            line.push_str(&format!(" poisoned {}", self.poisoned));
        }
        if self.warns > 0 {
            line.push_str(&format!(" warns {}", self.warns));
        }
        if let Some((shard, done, total, rate)) = &self.last_heartbeat {
            line.push_str(&format!(" | {shard} {done}/{total} @ {rate:.0} dev/s"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_bus_in_order() {
        let (bus, sink) = TelemetryBus::new(8);
        sink.publish(EventKind::CellStarted {
            index: 0,
            label: "light/native".into(),
        });
        sink.publish(EventKind::CellFinished {
            index: 0,
            label: "light/native".into(),
            status: "ok".into(),
            cell_wall_ms: 12.5,
        });
        drop(sink);
        let events: Vec<TelemetryEvent> = bus.drain().collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, EventKind::CellStarted { .. }));
        let json = events[1].to_json();
        assert!(json.contains("\"level\":\"info\""));
        assert!(json.contains("\"kind\":\"cell_finished\""));
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"cell_wall_ms\":12.5"));
    }

    #[test]
    fn full_bus_drops_instead_of_blocking() {
        let (bus, sink) = TelemetryBus::new(1);
        sink.warn("first");
        sink.warn("second"); // bus full → dropped, not blocked
        assert_eq!(sink.dropped(), 1);
        drop(sink);
        assert_eq!(bus.drain().count(), 1);
    }

    /// The end marker stops the drain while a sink still lives; what
    /// that sink publishes later, and what a closed scope publishes, is
    /// dropped and counted.
    #[test]
    fn the_end_marker_stops_the_drain_while_a_sink_lives() {
        let (bus, sink) = TelemetryBus::new(4);
        let (straggler, cell) = (sink.clone(), sink.scoped());
        cell.warn("from the cell");
        cell.close();
        cell.warn("after its scope closed");
        straggler.warn("before the end");
        sink.end();
        let drain = std::thread::spawn(move || bus.drain().count());
        assert_eq!(drain.join().expect("the drain ends"), 2);
        straggler.warn("after the end");
        assert_eq!(straggler.dropped(), 2);
    }

    #[test]
    fn disconnected_bus_is_harmless() {
        let (bus, sink) = TelemetryBus::new(4);
        drop(bus);
        sink.warn("nobody listening");
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn warn_levels_and_poisoned_cells_render_as_warn() {
        let poisoned = EventKind::CellFinished {
            index: 3,
            label: "x".into(),
            status: "poisoned: panic".into(),
            cell_wall_ms: 1.0,
        };
        assert_eq!(poisoned.level(), "warn");
        assert_eq!(
            EventKind::JournalWrite {
                index: 1,
                ok: false
            }
            .level(),
            "warn"
        );
        assert_eq!(
            EventKind::JournalWrite { index: 1, ok: true }.level(),
            "info"
        );
        assert_eq!(
            EventKind::Warn {
                message: "m".into()
            }
            .level(),
            "warn"
        );
    }

    #[test]
    fn progress_line_summarizes_the_stream() {
        let mut p = ProgressState::new(4);
        let stamp = |kind: EventKind| TelemetryEvent { wall_ms: 0, kind };
        p.update(&stamp(EventKind::CellFinished {
            index: 0,
            label: "a".into(),
            status: "ok".into(),
            cell_wall_ms: 1.0,
        }));
        p.update(&stamp(EventKind::CellFinished {
            index: 1,
            label: "b".into(),
            status: "retried:1".into(),
            cell_wall_ms: 1.0,
        }));
        p.update(&stamp(EventKind::Warn {
            message: "journal".into(),
        }));
        p.update(&stamp(EventKind::ShardHeartbeat {
            shard: "shard03".into(),
            devices_done: 500,
            devices_total: 1000,
            devices_per_sec: 3100.0,
            cursor: 3500,
        }));
        assert_eq!(
            p.render(),
            "cells 2/4 retried 1 warns 1 | shard03 500/1000 @ 3100 dev/s"
        );
    }
}
