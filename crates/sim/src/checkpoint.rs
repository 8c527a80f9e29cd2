//! Crash-consistent checkpointing of a running simulation.
//!
//! A [`Checkpoint`] captures the *complete* resumable state of a
//! [`Simulation`] — both alarm queues with their batching intact, the
//! device's energy accumulators and wakelocks, the event heap with its
//! deterministic tie-break sequence numbers, the delivery trace, the
//! attribution ledger, the fault-injection RNG stream, watchdog
//! quarantine/probation state, and any in-flight reboot outage — such
//! that a run resumed from the checkpoint is **byte-identical** in trace
//! and report to the straight-through run (the engine's tests assert
//! this).
//!
//! # Persistence format (`simty-checkpoint/v1`)
//!
//! A persisted checkpoint is a UTF-8 text file with a three-line
//! envelope followed by the body:
//!
//! ```text
//! simty-checkpoint/v1
//! len=<body length in bytes>
//! sum=<FNV-1a-64 checksum of the body, 16 hex digits>
//! <body: one `key=value` line per field>
//! ```
//!
//! Floating-point values are serialized as the 16-hex-digit IEEE-754 bit
//! pattern, so round-trips are exact. Writes go through a temp file and
//! an atomic rename ([`Checkpoint::write_atomic`]), so a crash mid-write
//! can never leave a torn checkpoint under the final name; reads detect
//! version skew, truncation, and corruption (checksum mismatch) and the
//! [`CheckpointStore`] falls back to the newest older snapshot that
//! still validates.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use simty_core::admission::AdmissionController;
use simty_core::alarm::{AlarmId, AlarmKind};
use simty_core::audit::{CandidateAudit, CandidateVerdict, PlacementAudit};
use simty_core::hardware::HardwareComponent;
use simty_core::manager::AlarmManager;
use simty_core::policy::{AlignmentPolicy, Placement};
use simty_core::similarity::{Preferability, TimeSimilarity};
use simty_core::time::{SimDuration, SimTime};
use simty_device::device::{Device, DevicePowerState, DeviceSnapshot};
use simty_device::energy::EnergyMeter;
use simty_device::monsoon::PowerTrace;
use simty_device::power::{ComponentPower, PowerModel};
use simty_device::wakelock::WakeLockTable;
use simty_obs::{Histogram, Span, SpanCollector, SpanKind, StageProfile};

use crate::attribution::{ActiveTask, AttributionLedger};
use crate::config::{InvariantMode, SimConfig};
use crate::degrade::{DegradationGovernor, DegradationTier, GovernorConfig};
use crate::engine::{RetrySlot, Simulation, TaskHold};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{CrashSpec, FaultPlan, FaultState, StormSpec};
use crate::invariant::{InvariantMonitor, InvariantViolation};
use crate::metrics::OverloadStats;
use crate::obs::{ObsLayer, ObsLevel, SPAN_CAPACITY};
use crate::vfs::{RealVfs, Vfs};
use crate::overload::StormBurst;
use crate::trace::{DeliveryRecord, InterventionKind, InterventionRecord, Trace};
use crate::watchdog::{OnlineWatchdogConfig, WatchdogPolicy};

/// The format magic and version, first line of every persisted
/// checkpoint.
pub const MAGIC: &str = "simty-checkpoint/v1";

const N_COMPONENTS: usize = HardwareComponent::ALL.len();

/// Why a checkpoint could not be captured, persisted, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the `simty-checkpoint/` magic at
    /// all — it is not a checkpoint.
    BadMagic {
        /// The first line actually found.
        found: String,
    },
    /// The file is a checkpoint, but of a different format version.
    VersionSkew {
        /// The version line actually found.
        found: String,
    },
    /// The body is shorter (or longer) than the length the envelope
    /// declares — the write was cut short.
    Truncated {
        /// Bytes the envelope promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The body's FNV-1a-64 checksum does not match the envelope —
    /// bit rot or tampering.
    ChecksumMismatch {
        /// Checksum the envelope declares.
        expected: u64,
        /// Checksum of the body as read.
        actual: u64,
    },
    /// The body failed structural validation.
    Malformed {
        /// 1-based body line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The caller-supplied policy does not match the policy recorded in
    /// the checkpoint (policies are stateless, so restore takes the
    /// policy by value and validates it by name).
    PolicyMismatch {
        /// Policy name recorded at capture time.
        recorded: String,
        /// Name of the policy handed to restore.
        provided: String,
    },
    /// No snapshot in the store validated.
    NoUsableCheckpoint {
        /// The store directory.
        dir: PathBuf,
        /// How many corrupt snapshots were skipped.
        skipped: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint (first line `{found}`)")
            }
            CheckpointError::VersionSkew { found } => {
                write!(f, "unsupported checkpoint version `{found}` (expected `{MAGIC}`)")
            }
            CheckpointError::Truncated { expected, actual } => {
                write!(f, "truncated: body is {actual} bytes, envelope declares {expected}")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: body sums to {actual:016x}, envelope declares {expected:016x}"
            ),
            CheckpointError::Malformed { line, message } => {
                write!(f, "malformed body at line {line}: {message}")
            }
            CheckpointError::PolicyMismatch { recorded, provided } => write!(
                f,
                "policy mismatch: checkpoint was captured under `{recorded}`, restore got `{provided}`"
            ),
            CheckpointError::NoUsableCheckpoint { dir, skipped } => write!(
                f,
                "no usable checkpoint in {} ({skipped} corrupt snapshot(s) skipped)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

use crate::codec::{
    esc, f64_hex, fmt_admission_config, fmt_alarm, fmt_app_admission, fnv1a64, unesc, write_queue,
    Parser,
};

/// One captured snapshot: the serialized body plus the two fields needed
/// to identify it without a full parse.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) captured_at: SimTime,
    pub(crate) policy: String,
    pub(crate) body: String,
}

impl Checkpoint {
    /// The simulated instant at which this snapshot was captured.
    pub fn captured_at(&self) -> SimTime {
        self.captured_at
    }

    /// The name of the alignment policy governing the captured run;
    /// [`Simulation::restore`] validates its argument against this.
    pub fn policy_name(&self) -> &str {
        &self.policy
    }

    /// Builds a *marker* checkpoint: a snapshot that carries an opaque
    /// caller payload instead of full simulation state. Fleet shards
    /// persist their progress (device cursor + folded partial report)
    /// through the same [`CheckpointStore`] envelope — magic, length,
    /// checksum, atomic rename — so torn or corrupt markers are skipped
    /// by [`CheckpointStore::load_latest_good`] exactly like torn
    /// snapshots. A marker cannot be passed to `Simulation::restore`.
    pub fn marker(at: SimTime, policy: &str, payload: &str) -> Checkpoint {
        let mut body = String::new();
        let _ = writeln!(body, "at={}", at.as_millis());
        let _ = writeln!(body, "policy={}", esc(policy));
        let _ = writeln!(body, "payload={}", esc(payload));
        Checkpoint {
            captured_at: at,
            policy: policy.to_owned(),
            body,
        }
    }

    /// The opaque payload of a [`marker`](Checkpoint::marker)
    /// checkpoint, or `None` for a full simulation snapshot.
    pub fn marker_payload(&self) -> Option<String> {
        let mut lines = self.body.lines();
        let _at = lines.next()?;
        let _policy = lines.next()?;
        let payload = lines.next()?.strip_prefix("payload=")?;
        Some(unesc(payload))
    }

    /// Serializes the checkpoint in the persisted `simty-checkpoint/v1`
    /// format (envelope + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = self.body.as_bytes();
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "len={}", body.len());
        let _ = writeln!(out, "sum={:016x}", fnv1a64(body));
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    /// Parses and validates a persisted checkpoint: magic, version,
    /// declared length (truncation), and checksum (corruption).
    ///
    /// # Errors
    ///
    /// See [`CheckpointError`]; every corruption mode maps to a distinct
    /// variant so callers can report what went wrong before falling back
    /// to an older snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::Malformed {
            line: 0,
            message: format!("not utf-8: {e}"),
        })?;
        let (magic_line, rest) = text.split_once('\n').ok_or(CheckpointError::BadMagic {
            found: text.chars().take(64).collect(),
        })?;
        if magic_line != MAGIC {
            if magic_line.starts_with("simty-checkpoint/") {
                return Err(CheckpointError::VersionSkew {
                    found: magic_line.to_owned(),
                });
            }
            return Err(CheckpointError::BadMagic {
                found: magic_line.to_owned(),
            });
        }
        let (len_line, rest) = rest.split_once('\n').ok_or(CheckpointError::Truncated {
            expected: 0,
            actual: 0,
        })?;
        let expected_len: usize = len_line
            .strip_prefix("len=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CheckpointError::Malformed {
                line: 0,
                message: format!("bad length line `{len_line}`"),
            })?;
        let (sum_line, body) = rest.split_once('\n').ok_or(CheckpointError::Truncated {
            expected: expected_len,
            actual: 0,
        })?;
        let expected_sum = sum_line
            .strip_prefix("sum=")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| CheckpointError::Malformed {
                line: 0,
                message: format!("bad checksum line `{sum_line}`"),
            })?;
        if body.len() != expected_len {
            return Err(CheckpointError::Truncated {
                expected: expected_len,
                actual: body.len(),
            });
        }
        let actual_sum = fnv1a64(body.as_bytes());
        if actual_sum != expected_sum {
            return Err(CheckpointError::ChecksumMismatch {
                expected: expected_sum,
                actual: actual_sum,
            });
        }
        // The body leads with `at=` and `policy=`; parse just those two
        // here so the snapshot is identifiable without a full restore.
        let mut p = Parser::new(body);
        let at = p.kv_time("at")?;
        let policy = unesc(p.kv("policy")?);
        Ok(Checkpoint {
            captured_at: at,
            policy,
            body: body.to_owned(),
        })
    }

    /// Persists the checkpoint via write-ahead temp file + atomic
    /// rename: the final path either holds the complete old content or
    /// the complete new content, never a torn write.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        self.write_atomic_vfs(&RealVfs, path)
    }

    /// [`write_atomic`](Self::write_atomic) over an explicit [`Vfs`],
    /// so tests can inject host-I/O faults at every step. The sequence
    /// is write temp → fsync temp → rename → **fsync parent directory**;
    /// without the final directory sync a crash right after the rename
    /// can lose the new directory entry (and with it the snapshot).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. On failure the temp file is
    /// removed (best-effort) so a dead write never shadows a later one.
    pub fn write_atomic_vfs(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), CheckpointError> {
        let (dir, tmp) = match (path.parent(), path.file_name()) {
            (Some(dir), Some(name)) => {
                let mut tmp_name = name.to_owned();
                tmp_name.push(".tmp");
                (dir, dir.join(tmp_name))
            }
            _ => {
                return Err(CheckpointError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("checkpoint path `{}` has no parent/file name", path.display()),
                )))
            }
        };
        let attempt = (|| {
            vfs.write_file(&tmp, &self.to_bytes())?;
            vfs.sync_file(&tmp)?;
            vfs.rename(&tmp, path)?;
            vfs.sync_dir(dir)
        })();
        if let Err(e) = attempt {
            let _ = vfs.remove_file(&tmp);
            return Err(CheckpointError::Io(e));
        }
        Ok(())
    }

    /// Reads and validates a persisted checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and every validation failure of
    /// [`from_bytes`](Self::from_bytes).
    pub fn read_from(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&fs::read(path)?)
    }

    /// [`read_from`](Self::read_from) over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and every validation failure of
    /// [`from_bytes`](Self::from_bytes).
    pub fn read_from_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&vfs.read(path)?)
    }
}

/// A directory of numbered snapshots (`ckpt-<seq>`), newest last.
///
/// [`load_latest_good`](Self::load_latest_good) walks the snapshots
/// newest-first and returns the first one that validates, so a corrupt
/// (bit-flipped, truncated, or version-skewed) latest snapshot degrades
/// to the last good one instead of failing the recovery.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_seq: u64,
    vfs: Arc<dyn Vfs>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store at `dir` on the real
    /// filesystem.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, CheckpointError> {
        Self::open_with(dir, Arc::new(RealVfs))
    }

    /// Opens (creating if needed) a store at `dir` over an explicit
    /// [`Vfs`] — the fault-injection entry point.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let next_seq = Self::scan(vfs.as_ref(), &dir)?
            .last()
            .map_or(0, |(seq, _)| seq + 1);
        Ok(CheckpointStore { dir, next_seq, vfs })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves a snapshot under the next sequence number, atomically.
    ///
    /// The sequence number is consumed even when the write fails, so a
    /// slot whose write died (possibly leaving a torn prefix behind) is
    /// never reused by a later save.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&mut self, checkpoint: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.dir.join(format!("ckpt-{:06}", self.next_seq));
        self.next_seq += 1;
        checkpoint.write_atomic_vfs(self.vfs.as_ref(), &path)?;
        Ok(path)
    }

    /// Loads the newest snapshot that validates, returning it along with
    /// the number of corrupt newer snapshots that were skipped.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoUsableCheckpoint`] if every snapshot is
    /// corrupt or the store is empty; filesystem errors are propagated.
    pub fn load_latest_good(&self) -> Result<(Checkpoint, usize), CheckpointError> {
        let mut skipped = 0;
        for (_, path) in Self::scan(self.vfs.as_ref(), &self.dir)?.into_iter().rev() {
            match Checkpoint::read_from_vfs(self.vfs.as_ref(), &path) {
                Ok(ckpt) => return Ok((ckpt, skipped)),
                Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                    // A file that vanished between scan and read (e.g. a
                    // torn rename that lost the entry) is just a missing
                    // snapshot, not a fatal store error.
                    skipped += 1;
                }
                Err(CheckpointError::Io(e)) => return Err(CheckpointError::Io(e)),
                Err(_) => skipped += 1,
            }
        }
        Err(CheckpointError::NoUsableCheckpoint {
            dir: self.dir.clone(),
            skipped,
        })
    }

    /// The `(seq, path)` pairs of every `ckpt-<seq>` file, sorted by
    /// sequence number.
    fn scan(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        for path in vfs.read_dir(dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(seq) = name.strip_prefix("ckpt-").and_then(|s| s.parse().ok()) else {
                continue;
            };
            out.push((seq, path));
        }
        out.sort();
        Ok(out)
    }
}

macro_rules! w {
    ($dst:expr, $($arg:tt)*) => {{ let _ = writeln!($dst, $($arg)*); }};
}

fn fmt_opt_time(t: Option<SimTime>) -> String {
    t.map_or_else(|| "none".to_owned(), |t| t.as_millis().to_string())
}

fn fmt_event_kind(kind: &EventKind) -> String {
    match kind {
        EventKind::RtcAlarm => "rtc".to_owned(),
        EventKind::WakeComplete => "wake".to_owned(),
        EventKind::TaskEnd => "taskend".to_owned(),
        EventKind::TrySleep => "trysleep".to_owned(),
        EventKind::NonWakeupCheck => "nonwakeup".to_owned(),
        EventKind::ExternalWake => "extwake".to_owned(),
        EventKind::Reregister { id } => format!("rereg:{}", id.as_u64()),
        EventKind::WatchdogCheck => "watchdog".to_owned(),
        EventKind::ActivationRetry { slot } => format!("actretry:{slot}"),
        EventKind::AppCrash { app, restart_after } => {
            format!("crash:{}:{}", restart_after.as_millis(), esc(app))
        }
        EventKind::AppRestart { app } => format!("apprestart:{}", esc(app)),
        EventKind::Reboot { outage } => format!("reboot:{}", outage.as_millis()),
        EventKind::BootComplete => "boot".to_owned(),
        EventKind::Checkpoint => "checkpoint".to_owned(),
        EventKind::GovernorTick => "govtick".to_owned(),
        EventKind::StormRegister { burst, k } => format!("storm:{burst}:{k}"),
    }
}

fn fmt_intervention_kind(kind: &InterventionKind) -> String {
    match kind {
        InterventionKind::ForcedRelease { held } => format!("forced:{}", held.as_millis()),
        InterventionKind::ActivationRetry { attempt } => format!("actretry:{attempt}"),
        InterventionKind::DroppedFireRetry { delay } => {
            format!("dropped:{}", delay.as_millis())
        }
        InterventionKind::Quarantine => "quarantine".to_owned(),
        InterventionKind::Recovery { quarantined_for } => {
            format!("recovery:{}", quarantined_for.as_millis())
        }
        InterventionKind::AppCrash { cancelled } => format!("crash:{cancelled}"),
        InterventionKind::AppRestart { reregistered } => format!("restart:{reregistered}"),
        InterventionKind::Reboot { outage } => format!("reboot:{}", outage.as_millis()),
        InterventionKind::BootCatchUp {
            caught_up,
            worst_delay,
        } => format!("catchup:{caught_up}:{}", worst_delay.as_millis()),
    }
}

fn fmt_violation(v: &InvariantViolation) -> String {
    match v {
        InvariantViolation::PerceptibleWindowMiss {
            label,
            delivered_at,
            window_end,
            allowed_slack,
        } => format!(
            "miss:{}:{}:{}:{}",
            delivered_at.as_millis(),
            window_end.as_millis(),
            allowed_slack.as_millis(),
            esc(label)
        ),
        InvariantViolation::QueueOrderBroken { earlier, later } => {
            format!("order:{}:{}", earlier.as_millis(), later.as_millis())
        }
        InvariantViolation::EnergyNotConserved {
            ledger_mj,
            meter_mj,
        } => format!("energy:{}:{}", f64_hex(*ledger_mj), f64_hex(*meter_mj)),
        InvariantViolation::WaveformMismatch { trace_mj, meter_mj } => {
            format!("waveform:{}:{}", f64_hex(*trace_mj), f64_hex(*meter_mj))
        }
    }
}

/// Serializes the complete resumable state of `sim` (see the
/// [module docs](self) for the format). Called by the engine both for
/// scheduled [`EventKind::Checkpoint`] captures and for explicit
/// [`Simulation::checkpoint`] calls.
pub(crate) fn capture(sim: &Simulation) -> Checkpoint {
    debug_assert!(
        sim.due_buffer.is_empty(),
        "capture must happen at an event boundary"
    );
    let mut body = String::with_capacity(16 * 1024);

    // Identity.
    w!(body, "at={}", sim.now.as_millis());
    w!(body, "policy={}", esc(sim.manager.policy_name()));

    // The id-counter watermark: the largest alarm id anywhere in the
    // captured state, so restore can reserve past it.
    let mut max_id = 0u64;
    let mut see = |id: AlarmId| max_id = max_id.max(id.as_u64());
    for queue in [sim.manager.wakeup_queue(), sim.manager.non_wakeup_queue()] {
        for entry in queue.entries() {
            for alarm in entry.alarms() {
                see(alarm.id());
            }
        }
    }
    for alarms in sim.crash_stash.values() {
        for alarm in alarms {
            see(alarm.id());
        }
    }
    for d in &sim.trace.deliveries {
        see(d.alarm_id);
    }
    let (events, next_seq) = sim.events.snapshot();
    for ev in &events {
        if let EventKind::Reregister { id } = ev.kind {
            see(id);
        }
    }
    w!(body, "max_alarm_id={max_id}");

    // Config.
    w!(body, "duration={}", sim.config.duration.as_millis());
    w!(body, "record_waveform={}", u8::from(sim.config.record_waveform));
    w!(
        body,
        "invariants={}",
        match sim.config.invariants {
            InvariantMode::Off => "off",
            InvariantMode::Report => "report",
            InvariantMode::Strict => "strict",
        }
    );
    w!(
        body,
        "checkpoint_every={}",
        sim.config
            .checkpoint_every
            .map_or_else(|| "none".to_owned(), |d| d.as_millis().to_string())
    );
    w!(body, "audit_capacity={}", sim.config.audit_capacity);
    // Written only when overridden: default-capacity captures keep the
    // original byte layout, and restore treats absence as the default.
    if sim.config.span_capacity != SPAN_CAPACITY {
        w!(body, "span_capacity={}", sim.config.span_capacity);
    }
    // Written only below the full level: full captures keep the
    // original byte layout, and restore treats absence as "full".
    match sim.config.obs {
        ObsLevel::Full => {}
        ObsLevel::Counts => w!(body, "obs=counts"),
        ObsLevel::Off => w!(body, "obs=0"),
    }
    w!(body, "external_wakes={}", sim.config.external_wakes.len());
    for t in &sim.config.external_wakes {
        w!(body, "xw={}", t.as_millis());
    }
    match &sim.config.online_watchdog {
        None => w!(body, "watchdog=none"),
        Some(wd) => w!(
            body,
            "watchdog={},{},{},{}",
            wd.policy.max_task_hold.as_millis(),
            f64_hex(wd.policy.max_duty_cycle),
            wd.quarantine_after,
            wd.probation
        ),
    }
    match &sim.config.admission {
        None => w!(body, "admission=none"),
        Some(a) => w!(body, "admission={}", fmt_admission_config(a)),
    }
    match &sim.config.degradation {
        None => w!(body, "degradation=none"),
        Some(g) => w!(
            body,
            "degradation={},{},{},{},{},{},{},{},{}",
            f64_hex(g.capacity_mj),
            g.check_every.as_millis(),
            g.saver_enter_milli,
            g.saver_exit_milli,
            g.critical_enter_milli,
            g.critical_exit_milli,
            g.saver_stretch_milli,
            g.critical_stretch_milli,
            u8::from(g.shed_in_critical)
        ),
    }

    // Power model.
    let power = &sim.config.power;
    w!(body, "sleep_mw={}", f64_hex(power.sleep_power_mw));
    w!(body, "awake_mw={}", f64_hex(power.awake_base_power_mw));
    w!(body, "transition_mj={}", f64_hex(power.wake_transition_energy_mj));
    w!(body, "wake_latency_ms={}", power.wake_latency.as_millis());
    w!(body, "sleep_linger_ms={}", power.sleep_linger.as_millis());
    for c in HardwareComponent::ALL {
        let p = power.component(c);
        w!(
            body,
            "component={},{}",
            f64_hex(p.activation_energy_mj),
            f64_hex(p.active_power_mw)
        );
    }

    // Alarm manager.
    w!(body, "mgr_clock={}", sim.manager.now().as_millis());
    w!(body, "mgr_stretch={}", sim.manager.grace_stretch());
    write_queue(&mut body, "wakeup_entries", sim.manager.wakeup_queue());
    write_queue(&mut body, "non_wakeup_entries", sim.manager.non_wakeup_queue());

    // Device.
    let dev = sim.device.snapshot();
    w!(
        body,
        "dev_state={}",
        match dev.state {
            DevicePowerState::Asleep => "asleep".to_owned(),
            DevicePowerState::Waking { until } => format!("waking:{}", until.as_millis()),
            DevicePowerState::Awake => "awake".to_owned(),
        }
    );
    let (sleep_mj, transition_mj, awake_mj, component_mj) = dev.meter.parts();
    w!(
        body,
        "dev_meter={},{},{}",
        f64_hex(sleep_mj),
        f64_hex(transition_mj),
        f64_hex(awake_mj)
    );
    w!(
        body,
        "dev_meter_components={}",
        component_mj.iter().map(|v| f64_hex(*v)).collect::<Vec<_>>().join(",")
    );
    let (expiry, activations) = dev.locks.parts();
    w!(
        body,
        "dev_locks_expiry={}",
        expiry.iter().map(|e| fmt_opt_time(*e)).collect::<Vec<_>>().join(",")
    );
    w!(
        body,
        "dev_locks_activations={}",
        activations.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
    );
    w!(body, "dev_clock={}", dev.clock.as_millis());
    w!(body, "dev_cpu_busy={}", dev.cpu_busy_until.as_millis());
    w!(body, "dev_idle_since={}", fmt_opt_time(dev.idle_since));
    w!(body, "dev_wake_count={}", dev.wake_count);
    w!(body, "dev_awake_time={}", dev.awake_time.as_millis());
    match &dev.monitor {
        None => w!(body, "dev_monitor=none"),
        Some(trace) => {
            w!(body, "dev_monitor=present");
            w!(body, "levels={}", trace.levels().len());
            for (t, mw) in trace.levels() {
                w!(body, "lv={},{}", t.as_millis(), f64_hex(*mw));
            }
            w!(body, "impulses={}", trace.impulses().len());
            for (t, mj) in trace.impulses() {
                w!(body, "im={},{}", t.as_millis(), f64_hex(*mj));
            }
        }
    }

    // Event queue (snapshot preserves exact sequence numbers).
    w!(body, "next_seq={next_seq}");
    w!(body, "events={}", events.len());
    for ev in &events {
        w!(
            body,
            "ev={},{},{}",
            ev.time.as_millis(),
            ev.seq,
            fmt_event_kind(&ev.kind)
        );
    }
    let mut armed: Vec<(u8, u64)> = sim.armed.iter().copied().collect();
    armed.sort_unstable();
    w!(body, "armed={}", armed.len());
    for (tag, ms) in armed {
        w!(body, "arm={tag},{ms}");
    }

    // Trace.
    w!(body, "deliveries={}", sim.trace.deliveries.len());
    for d in &sim.trace.deliveries {
        w!(
            body,
            "d={},{},{},{},{},{},{},{},{},{},{},{}",
            d.alarm_id.as_u64(),
            esc(&d.label),
            d.nominal.as_millis(),
            d.window_end.as_millis(),
            d.grace_end.as_millis(),
            d.delivered_at.as_millis(),
            d.repeat_interval.map_or(0, SimDuration::as_millis),
            d.hardware.bits(),
            u8::from(d.perceptible),
            match d.kind {
                AlarmKind::Wakeup => "w",
                AlarmKind::NonWakeup => "n",
            },
            d.entry_size,
            d.task_duration.as_millis()
        );
    }
    w!(body, "wakeups={}", sim.trace.wakeups.len());
    for t in &sim.trace.wakeups {
        w!(body, "wk={}", t.as_millis());
    }
    w!(body, "entry_deliveries={}", sim.trace.entry_deliveries);
    w!(body, "interventions={}", sim.trace.interventions.len());
    for i in &sim.trace.interventions {
        w!(
            body,
            "iv={},{},{},{}",
            i.at.as_millis(),
            esc(&i.app),
            f64_hex(i.overhead_mj),
            fmt_intervention_kind(&i.kind)
        );
    }

    // Attribution ledger (its power model is config.power; not repeated).
    w!(body, "ledger_active={}", sim.ledger.active.len());
    for t in &sim.ledger.active {
        w!(
            body,
            "la={},{},{}",
            esc(&t.app),
            t.hardware.bits(),
            t.until.as_millis()
        );
    }
    w!(body, "ledger_apps={}", sim.ledger.per_app.len());
    for (app, mj) in &sim.ledger.per_app {
        w!(body, "lp={},{}", esc(app), f64_hex(*mj));
    }
    w!(body, "ledger_interventions={}", sim.ledger.interventions.len());
    for (app, n) in &sim.ledger.interventions {
        w!(body, "li={},{n}", esc(app));
    }
    w!(body, "ledger_overhead={}", f64_hex(sim.ledger.overhead_mj));
    w!(body, "ledger_pending={}", f64_hex(sim.ledger.pending_transition_mj));
    w!(body, "ledger_last={}", sim.ledger.last.as_millis());
    w!(body, "ledger_awake={}", u8::from(sim.ledger.awake));

    // Fault-injection runtime.
    match &sim.faults {
        None => w!(body, "faults=none"),
        Some(fs) => {
            w!(body, "faults=present");
            let plan = &fs.plan;
            w!(body, "f_seed={}", plan.seed);
            w!(body, "f_jitter={}", plan.rtc_jitter.as_millis());
            w!(body, "f_drop_p={}", f64_hex(plan.drop_fire_p));
            w!(body, "f_drop_retry={}", plan.drop_retry.as_millis());
            w!(body, "f_drop_cap={}", plan.drop_cap);
            w!(body, "f_overrun_p={}", f64_hex(plan.overrun_p));
            w!(body, "f_overrun={}", plan.overrun.as_millis());
            w!(body, "f_leak_p={}", f64_hex(plan.leak_p));
            w!(body, "f_leak={}", plan.leak.as_millis());
            w!(body, "f_act_p={}", f64_hex(plan.activation_failure_p));
            w!(body, "f_backoff_base={}", plan.backoff_base.as_millis());
            w!(body, "f_backoff_cap={}", plan.backoff_cap.as_millis());
            w!(body, "f_max_attempts={}", plan.max_attempts);
            w!(body, "f_crashes={}", plan.crashes.len());
            for c in &plan.crashes {
                w!(
                    body,
                    "fc={},{},{}",
                    c.at.as_millis(),
                    c.restart_after.as_millis(),
                    esc(&c.app)
                );
            }
            w!(body, "f_storms={}", plan.storms.len());
            for s in &plan.storms {
                w!(
                    body,
                    "fs={},{},{}",
                    s.start.as_millis(),
                    s.duration.as_millis(),
                    s.mean_interval.as_millis()
                );
            }
            w!(body, "f_rng={:016x}", fs.rng.state());
            match fs.dropping {
                None => w!(body, "f_dropping=none"),
                Some((t, n)) => w!(body, "f_dropping={},{n}", t.as_millis()),
            }
        }
    }

    // Invariant monitor (slack may have been widened after construction).
    match &sim.monitor {
        None => w!(body, "monitor=none"),
        Some(m) => {
            w!(body, "monitor=present");
            w!(body, "m_slack={}", m.slack.as_millis());
            w!(body, "m_panic={}", u8::from(m.panic_on_violation));
            w!(body, "m_misses={}", m.window_misses);
            w!(body, "m_violations={}", m.violations.len());
            for v in &m.violations {
                w!(body, "mv={}", fmt_violation(v));
            }
        }
    }

    // Watchdog runtime state.
    w!(body, "holds={}", sim.holds.len());
    for h in &sim.holds {
        w!(
            body,
            "h={},{},{},{}",
            h.started.as_millis(),
            h.until.as_millis(),
            h.hardware.bits(),
            esc(&h.app)
        );
    }
    w!(body, "offenses={}", sim.offenses.len());
    for (app, n) in &sim.offenses {
        w!(body, "of={n},{}", esc(app));
    }
    w!(body, "quarantined={}", sim.quarantined.len());
    for (app, (since, clean)) in &sim.quarantined {
        w!(body, "qa={},{clean},{}", since.as_millis(), esc(app));
    }
    w!(body, "retries={}", sim.activation_retries.len());
    for r in &sim.activation_retries {
        w!(
            body,
            "rt={},{},{},{},{},{}",
            r.until.as_millis(),
            r.attempt,
            u8::from(r.done),
            f64_hex(r.overhead_mj),
            r.hardware.bits(),
            esc(&r.app)
        );
    }
    w!(body, "stash_apps={}", sim.crash_stash.len());
    for (app, alarms) in &sim.crash_stash {
        w!(body, "stash={},{}", alarms.len(), esc(app));
        for alarm in alarms {
            w!(body, "alarm={}", fmt_alarm(alarm));
        }
    }
    w!(body, "energy_checked={}", u8::from(sim.energy_checked));
    w!(body, "down_until={}", fmt_opt_time(sim.down_until));

    // Admission controller: per-app bucket state in BTreeMap order, so
    // the rendering is deterministic. The escaped app label goes last.
    match &sim.admission {
        None => w!(body, "adm=none"),
        Some(ctl) => {
            w!(body, "adm={}", ctl.app_count());
            for (app, st) in ctl.apps() {
                w!(body, "aa={},{}", fmt_app_admission(st), esc(app));
            }
        }
    }

    // Degradation governor runtime state (config is captured above).
    match &sim.governor {
        None => w!(body, "gov=none"),
        Some(g) => w!(
            body,
            "gov={},{},{},{}",
            g.tier.name(),
            g.tier_since.as_millis(),
            g.in_saver.as_millis(),
            g.in_critical.as_millis()
        ),
    }

    // Registration-storm bursts (needed so pending StormRegister events
    // can rebuild their alarms after restore).
    w!(body, "storm_bursts={}", sim.storm.len());
    for b in &sim.storm {
        w!(
            body,
            "sb={},{},{},{},{},{},{},{},{}",
            b.start.as_millis(),
            b.count,
            b.every.as_millis(),
            b.period.as_millis(),
            u8::from(b.perceptible),
            b.task.as_millis(),
            b.window_milli,
            b.grace_milli,
            esc(&b.app)
        );
    }

    // Overload counters. Time-in-tier and the final tier are derived
    // from the governor at report time, so only counters persist.
    let ov = &sim.overload;
    w!(
        body,
        "ov={},{},{},{},{},{},{}",
        ov.storm_registrations,
        ov.admitted,
        ov.deferred,
        ov.rejected,
        ov.shed,
        ov.demotions,
        ov.tier_changes
    );

    // Observability layer. Help text and the span-ring capacity are not
    // captured: `ObsLayer::new` re-creates both identically on restore,
    // so only the mutable state needs to round-trip.
    let obs = &sim.obs;
    w!(body, "obs_next_seq={}", obs.spans.next_seq());
    w!(body, "obs_span_dropped={}", obs.spans.dropped());
    w!(body, "obs_spans={}", obs.spans.len());
    for s in obs.spans.iter() {
        let mut line = format!(
            "os={},{},{},{},{}",
            s.seq,
            s.kind.as_str(),
            s.start_ms,
            s.end_ms,
            s.attrs().count()
        );
        for (k, v) in s.attrs() {
            line.push(',');
            line.push_str(&esc(k));
            line.push(',');
            line.push_str(&esc(&v.render()));
        }
        w!(body, "{line}");
    }
    let counters: Vec<_> = obs.metrics.counters().collect();
    w!(body, "obs_counters={}", counters.len());
    for (name, value) in counters {
        w!(body, "oc={value},{}", esc(name));
    }
    let gauges: Vec<_> = obs.metrics.gauges().collect();
    w!(body, "obs_gauges={}", gauges.len());
    for (name, value) in gauges {
        w!(body, "og={},{}", f64_hex(value), esc(name));
    }
    let hists: Vec<_> = obs.metrics.histograms().collect();
    w!(body, "obs_hists={}", hists.len());
    for (name, h) in hists {
        let mut line = format!("oh={},{}", esc(name), h.bounds().len());
        for b in h.bounds() {
            line.push(',');
            line.push_str(&f64_hex(*b));
        }
        for c in h.counts() {
            line.push(',');
            line.push_str(&c.to_string());
        }
        line.push(',');
        line.push_str(&f64_hex(h.sum()));
        line.push(',');
        line.push_str(&h.count().to_string());
        line.push(',');
        line.push_str(&h.nonfinite().to_string());
        w!(body, "{line}");
    }
    w!(body, "obs_audit_dropped={}", obs.audit_dropped);
    // A counts-level layer retains no audit; its ring is this count.
    if obs.level == ObsLevel::Counts {
        w!(body, "obs_audits_counted={}", obs.audits_counted);
    }
    w!(body, "obs_audits={}", obs.audits.len());
    for a in &obs.audits {
        let cands = if a.candidates.is_empty() {
            "-".to_owned()
        } else {
            a.candidates
                .iter()
                .map(|c| {
                    format!(
                        "{}.{}.{}.{}.{}",
                        c.index,
                        c.delivery_time.as_millis(),
                        match c.time {
                            TimeSimilarity::High => "h",
                            TimeSimilarity::Medium => "m",
                            TimeSimilarity::Low => "l",
                        },
                        c.hw_rank.map_or_else(|| "-".to_owned(), |r| r.to_string()),
                        match c.verdict {
                            CandidateVerdict::Won => "w",
                            CandidateVerdict::Outranked => "o",
                            CandidateVerdict::NotApplicable => "n",
                            CandidateVerdict::PastCutoff => "c",
                        }
                    )
                })
                .collect::<Vec<_>>()
                .join(";")
        };
        w!(
            body,
            "oa={},{},{},{},{},{},{cands}",
            a.at.as_millis(),
            a.alarm_id.as_u64(),
            a.nominal.as_millis(),
            u8::from(a.perceptible),
            match a.placement {
                Placement::Existing(i) => format!("e{i}"),
                Placement::NewEntry => "n".to_owned(),
            },
            esc(&a.app)
        );
    }
    w!(body, "obs_aliases={}", obs.aliases.len());
    for (raw, ordinal) in &obs.aliases {
        w!(body, "ol={raw},{ordinal}");
    }
    w!(body, "obs_wake={}", fmt_opt_time(obs.wake_open));

    Checkpoint {
        captured_at: sim.now,
        policy: sim.manager.policy_name().to_owned(),
        body,
    }
}

/// The readers only the checkpoint body needs; the shared ones live
/// with the [`Parser`] in [`crate::codec`].
impl Parser<'_> {
    fn event_kind_of(&self, s: &str) -> Result<EventKind, CheckpointError> {
        let mut it = s.split(':');
        let kind = match it.next() {
            Some("rtc") => EventKind::RtcAlarm,
            Some("wake") => EventKind::WakeComplete,
            Some("taskend") => EventKind::TaskEnd,
            Some("trysleep") => EventKind::TrySleep,
            Some("nonwakeup") => EventKind::NonWakeupCheck,
            Some("extwake") => EventKind::ExternalWake,
            Some("watchdog") => EventKind::WatchdogCheck,
            Some("boot") => EventKind::BootComplete,
            Some("checkpoint") => EventKind::Checkpoint,
            Some("rereg") => {
                let id = it.next().ok_or_else(|| self.err("rereg without id"))?;
                EventKind::Reregister {
                    id: AlarmId::from_raw(self.u64_of(id)?),
                }
            }
            Some("actretry") => {
                let slot = it.next().ok_or_else(|| self.err("actretry without slot"))?;
                EventKind::ActivationRetry {
                    slot: self.usize_of(slot)?,
                }
            }
            Some("crash") => {
                let ms = it.next().ok_or_else(|| self.err("crash without delay"))?;
                let app = it.next().ok_or_else(|| self.err("crash without app"))?;
                EventKind::AppCrash {
                    app: unesc(app),
                    restart_after: self.dur(ms)?,
                }
            }
            Some("apprestart") => {
                let app = it.next().ok_or_else(|| self.err("apprestart without app"))?;
                EventKind::AppRestart { app: unesc(app) }
            }
            Some("reboot") => {
                let ms = it.next().ok_or_else(|| self.err("reboot without outage"))?;
                EventKind::Reboot {
                    outage: self.dur(ms)?,
                }
            }
            Some("govtick") => EventKind::GovernorTick,
            Some("storm") => {
                let burst = it.next().ok_or_else(|| self.err("storm without burst"))?;
                let k = it.next().ok_or_else(|| self.err("storm without index"))?;
                EventKind::StormRegister {
                    burst: self.usize_of(burst)?,
                    k: self.u32_of(k)?,
                }
            }
            _ => return Err(self.err(format!("invalid event kind `{s}`"))),
        };
        Ok(kind)
    }

    fn intervention_kind_of(&self, s: &str) -> Result<InterventionKind, CheckpointError> {
        let mut it = s.split(':');
        let kind = match it.next() {
            Some("quarantine") => InterventionKind::Quarantine,
            Some("forced") => {
                let ms = it.next().ok_or_else(|| self.err("forced without hold"))?;
                InterventionKind::ForcedRelease {
                    held: self.dur(ms)?,
                }
            }
            Some("actretry") => {
                let n = it.next().ok_or_else(|| self.err("actretry without attempt"))?;
                InterventionKind::ActivationRetry {
                    attempt: self.u32_of(n)?,
                }
            }
            Some("dropped") => {
                let ms = it.next().ok_or_else(|| self.err("dropped without delay"))?;
                InterventionKind::DroppedFireRetry {
                    delay: self.dur(ms)?,
                }
            }
            Some("recovery") => {
                let ms = it.next().ok_or_else(|| self.err("recovery without span"))?;
                InterventionKind::Recovery {
                    quarantined_for: self.dur(ms)?,
                }
            }
            Some("crash") => {
                let n = it.next().ok_or_else(|| self.err("crash without count"))?;
                InterventionKind::AppCrash {
                    cancelled: self.usize_of(n)?,
                }
            }
            Some("restart") => {
                let n = it.next().ok_or_else(|| self.err("restart without count"))?;
                InterventionKind::AppRestart {
                    reregistered: self.usize_of(n)?,
                }
            }
            Some("reboot") => {
                let ms = it.next().ok_or_else(|| self.err("reboot without outage"))?;
                InterventionKind::Reboot {
                    outage: self.dur(ms)?,
                }
            }
            Some("catchup") => {
                let n = it.next().ok_or_else(|| self.err("catchup without count"))?;
                let ms = it.next().ok_or_else(|| self.err("catchup without delay"))?;
                InterventionKind::BootCatchUp {
                    caught_up: self.usize_of(n)?,
                    worst_delay: self.dur(ms)?,
                }
            }
            _ => return Err(self.err(format!("invalid intervention kind `{s}`"))),
        };
        Ok(kind)
    }

    fn violation_of(&self, s: &str) -> Result<InvariantViolation, CheckpointError> {
        let mut it = s.split(':');
        let v = match it.next() {
            Some("miss") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("miss needs 4 parameters"));
                let delivered_at = self.time(next()?)?;
                let window_end = self.time(next()?)?;
                let allowed_slack = self.dur(next()?)?;
                let label = unesc(next()?);
                InvariantViolation::PerceptibleWindowMiss {
                    label,
                    delivered_at,
                    window_end,
                    allowed_slack,
                }
            }
            Some("order") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("order needs 2 parameters"));
                InvariantViolation::QueueOrderBroken {
                    earlier: self.time(next()?)?,
                    later: self.time(next()?)?,
                }
            }
            Some("energy") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("energy needs 2 parameters"));
                InvariantViolation::EnergyNotConserved {
                    ledger_mj: self.f64_of(next()?)?,
                    meter_mj: self.f64_of(next()?)?,
                }
            }
            Some("waveform") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("waveform needs 2 parameters"));
                InvariantViolation::WaveformMismatch {
                    trace_mj: self.f64_of(next()?)?,
                    meter_mj: self.f64_of(next()?)?,
                }
            }
            _ => return Err(self.err(format!("invalid violation `{s}`"))),
        };
        Ok(v)
    }
}

/// Rebuilds a [`Simulation`] from `checkpoint` under `policy`.
///
/// Policies are stateless, so the caller supplies one; it is validated
/// by name against the policy recorded at capture time. See
/// [`Simulation::restore`] for the public entry point.
pub(crate) fn restore(
    policy: Box<dyn AlignmentPolicy>,
    checkpoint: &Checkpoint,
) -> Result<Simulation, CheckpointError> {
    if policy.name() != checkpoint.policy {
        return Err(CheckpointError::PolicyMismatch {
            recorded: checkpoint.policy.clone(),
            provided: policy.name().to_owned(),
        });
    }
    let mut p = Parser::new(&checkpoint.body);

    let now = p.kv_time("at")?;
    let _policy_name = p.kv("policy")?;
    let max_id = p.kv_u64("max_alarm_id")?;
    AlarmId::reserve_through(max_id);

    // Config.
    let duration = p.kv_dur("duration")?;
    let record_waveform = p.kv_bool("record_waveform")?;
    let invariants = match p.kv("invariants")? {
        "off" => InvariantMode::Off,
        "report" => InvariantMode::Report,
        "strict" => InvariantMode::Strict,
        other => return Err(p.err(format!("invalid invariant mode `{other}`"))),
    };
    let checkpoint_every = {
        let v = p.kv("checkpoint_every")?;
        if v == "none" {
            None
        } else {
            Some(p.dur(v)?)
        }
    };
    // Both rings need room for one record.
    let capacity = |p: &Parser<'_>, key: &str, v: &str| match p.usize_of(v)? {
        0 => Err(p.err(format!("{key} must be positive"))),
        n => Ok(n),
    };
    let audit_capacity = {
        let v = p.kv("audit_capacity")?;
        capacity(&p, "audit_capacity", v)?
    };
    // Optional: only non-default captures carry it.
    let span_capacity = match p.opt_kv("span_capacity") {
        Some(v) => capacity(&p, "span_capacity", v)?,
        None => SPAN_CAPACITY,
    };
    // Optional: only captures below the full level carry it.
    let obs_level = match p.opt_kv("obs") {
        None => ObsLevel::Full,
        Some("counts") => ObsLevel::Counts,
        Some("0") => ObsLevel::Off,
        Some(other) => return Err(p.err(format!("invalid obs level `{other}`"))),
    };
    let n = p.count("external_wakes")?;
    let mut external_wakes = Vec::with_capacity(n);
    for _ in 0..n {
        external_wakes.push(p.kv_time("xw")?);
    }
    let online_watchdog = {
        let v = p.kv("watchdog")?;
        if v == "none" {
            None
        } else {
            let f = p.fields::<4>(v)?;
            Some(OnlineWatchdogConfig {
                policy: WatchdogPolicy {
                    max_task_hold: p.dur(f[0])?,
                    max_duty_cycle: p.f64_of(f[1])?,
                },
                quarantine_after: p.u32_of(f[2])?,
                probation: p.u32_of(f[3])?,
            })
        }
    };
    let admission_cfg = {
        let v = p.kv("admission")?;
        if v == "none" {
            None
        } else {
            Some(p.admission_config_of(p.fields(v)?)?)
        }
    };
    let degradation_cfg = {
        let v = p.kv("degradation")?;
        if v == "none" {
            None
        } else {
            let f = p.fields::<9>(v)?;
            Some(GovernorConfig {
                capacity_mj: p.f64_of(f[0])?,
                check_every: p.dur(f[1])?,
                saver_enter_milli: p.u32_of(f[2])?,
                saver_exit_milli: p.u32_of(f[3])?,
                critical_enter_milli: p.u32_of(f[4])?,
                critical_exit_milli: p.u32_of(f[5])?,
                saver_stretch_milli: p.u32_of(f[6])?,
                critical_stretch_milli: p.u32_of(f[7])?,
                shed_in_critical: p.bool_of(f[8])?,
            })
        }
    };

    // Power model: start from the calibrated default, then overwrite
    // every field from the recorded values.
    let mut power = PowerModel::nexus5();
    power.sleep_power_mw = p.kv_f64("sleep_mw")?;
    power.awake_base_power_mw = p.kv_f64("awake_mw")?;
    power.wake_transition_energy_mj = p.kv_f64("transition_mj")?;
    power.wake_latency = p.kv_dur("wake_latency_ms")?;
    power.sleep_linger = p.kv_dur("sleep_linger_ms")?;
    for c in HardwareComponent::ALL {
        let f = p.kv_fields::<2>("component")?;
        power.set_component(
            c,
            ComponentPower {
                activation_energy_mj: p.f64_of(f[0])?,
                active_power_mw: p.f64_of(f[1])?,
            },
        );
    }

    let config = SimConfig {
        duration,
        power: power.clone(),
        external_wakes,
        record_waveform,
        online_watchdog,
        invariants,
        checkpoint_every,
        audit_capacity,
        span_capacity,
        admission: admission_cfg,
        degradation: degradation_cfg,
        obs: obs_level,
    };

    // Alarm manager.
    let mgr_clock = p.kv_time("mgr_clock")?;
    let mgr_stretch = p.kv_u32("mgr_stretch")?;
    let wakeup = p.queue("wakeup_entries")?;
    let non_wakeup = p.queue("non_wakeup_entries")?;
    let mut manager = AlarmManager::restore(policy, wakeup, non_wakeup, mgr_clock);
    manager.restore_grace_stretch(mgr_stretch);
    manager.set_audit_level(obs_level.audit_level());

    // Device.
    let state = {
        let v = p.kv("dev_state")?;
        match v.split_once(':') {
            None if v == "asleep" => DevicePowerState::Asleep,
            None if v == "awake" => DevicePowerState::Awake,
            Some(("waking", ms)) => DevicePowerState::Waking {
                until: p.time(ms)?,
            },
            _ => return Err(p.err(format!("invalid device state `{v}`"))),
        }
    };
    let meter = {
        let f = p.kv_fields::<3>("dev_meter")?;
        let (sleep_mj, transition_mj, awake_mj) =
            (p.f64_of(f[0])?, p.f64_of(f[1])?, p.f64_of(f[2])?);
        let f = p.kv_fields::<N_COMPONENTS>("dev_meter_components")?;
        let mut component_mj = [0.0; N_COMPONENTS];
        for (slot, raw) in component_mj.iter_mut().zip(&f) {
            *slot = p.f64_of(raw)?;
        }
        EnergyMeter::from_parts(sleep_mj, transition_mj, awake_mj, component_mj)
    };
    let locks = {
        let f = p.kv_fields::<N_COMPONENTS>("dev_locks_expiry")?;
        let mut expiry = [None; N_COMPONENTS];
        for (slot, raw) in expiry.iter_mut().zip(&f) {
            *slot = p.opt_time(raw)?;
        }
        let f = p.kv_fields::<N_COMPONENTS>("dev_locks_activations")?;
        let mut activations = [0u64; N_COMPONENTS];
        for (slot, raw) in activations.iter_mut().zip(&f) {
            *slot = p.u64_of(raw)?;
        }
        WakeLockTable::from_parts(expiry, activations)
    };
    let dev_clock = p.kv_time("dev_clock")?;
    let cpu_busy_until = p.kv_time("dev_cpu_busy")?;
    let idle_since = p.kv_opt_time("dev_idle_since")?;
    let wake_count = p.kv_u64("dev_wake_count")?;
    let awake_time = p.kv_dur("dev_awake_time")?;
    let monitor_trace = {
        let v = p.kv("dev_monitor")?;
        match v {
            "none" => None,
            "present" => {
                let n = p.count("levels")?;
                let mut levels = Vec::with_capacity(n);
                for _ in 0..n {
                    let f = p.kv_fields::<2>("lv")?;
                    levels.push((p.time(f[0])?, p.f64_of(f[1])?));
                }
                let n = p.count("impulses")?;
                let mut impulses = Vec::with_capacity(n);
                for _ in 0..n {
                    let f = p.kv_fields::<2>("im")?;
                    impulses.push((p.time(f[0])?, p.f64_of(f[1])?));
                }
                Some(PowerTrace::from_parts(levels, impulses))
            }
            _ => return Err(p.err(format!("invalid monitor flag `{v}`"))),
        }
    };
    let device = Device::restore(
        power,
        DeviceSnapshot {
            state,
            meter,
            locks,
            clock: dev_clock,
            cpu_busy_until,
            idle_since,
            wake_count,
            awake_time,
            monitor: monitor_trace,
        },
    );

    // Event queue.
    let next_seq = p.kv_u64("next_seq")?;
    let n = p.count("events")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let f = p.kv_fields::<3>("ev")?;
        events.push(Event {
            time: p.time(f[0])?,
            seq: p.u64_of(f[1])?,
            kind: p.event_kind_of(f[2])?,
        });
    }
    let events = EventQueue::restore(events, next_seq);
    let n = p.count("armed")?;
    let mut armed = crate::engine::ArmedSet::default();
    armed.reserve(n);
    for _ in 0..n {
        let f = p.kv_fields::<2>("arm")?;
        let tag: u8 = f[0]
            .parse()
            .map_err(|_| p.err(format!("invalid armed tag `{}`", f[0])))?;
        armed.insert((tag, p.u64_of(f[1])?));
    }

    // Trace.
    let mut trace = Trace::new();
    let n = p.count("deliveries")?;
    for _ in 0..n {
        let f = p.kv_fields::<12>("d")?;
        let repeat_ms = p.u64_of(f[6])?;
        trace.record_delivery(DeliveryRecord {
            alarm_id: AlarmId::from_raw(p.u64_of(f[0])?),
            label: unesc(f[1]).into(),
            nominal: p.time(f[2])?,
            window_end: p.time(f[3])?,
            grace_end: p.time(f[4])?,
            delivered_at: p.time(f[5])?,
            repeat_interval: if repeat_ms == 0 {
                None
            } else {
                Some(SimDuration::from_millis(repeat_ms))
            },
            hardware: p.hardware_of(f[7])?,
            perceptible: p.bool_of(f[8])?,
            kind: p.kind_of(f[9])?,
            entry_size: p.usize_of(f[10])?,
            task_duration: p.dur(f[11])?,
        });
    }
    let n = p.count("wakeups")?;
    for _ in 0..n {
        let t = p.kv_time("wk")?;
        trace.record_wakeup(t);
    }
    trace.entry_deliveries = p.kv_u64("entry_deliveries")?;
    let n = p.count("interventions")?;
    for _ in 0..n {
        let f = p.kv_fields::<4>("iv")?;
        trace.record_intervention(InterventionRecord {
            at: p.time(f[0])?,
            app: unesc(f[1]),
            overhead_mj: p.f64_of(f[2])?,
            kind: p.intervention_kind_of(f[3])?,
        });
    }

    // Attribution ledger.
    let n = p.count("ledger_active")?;
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        let f = p.kv_fields::<3>("la")?;
        active.push(ActiveTask {
            app: unesc(f[0]).into(),
            hardware: p.hardware_of(f[1])?,
            until: p.time(f[2])?,
        });
    }
    let n = p.count("ledger_apps")?;
    let mut per_app = BTreeMap::new();
    for _ in 0..n {
        let f = p.kv_fields::<2>("lp")?;
        per_app.insert(unesc(f[0]), p.f64_of(f[1])?);
    }
    let n = p.count("ledger_interventions")?;
    let mut ledger_interventions = BTreeMap::new();
    for _ in 0..n {
        let f = p.kv_fields::<2>("li")?;
        ledger_interventions.insert(unesc(f[0]), p.u64_of(f[1])?);
    }
    let ledger = AttributionLedger {
        model: config.power.clone(),
        active,
        per_app,
        interventions: ledger_interventions,
        overhead_mj: p.kv_f64("ledger_overhead")?,
        pending_transition_mj: p.kv_f64("ledger_pending")?,
        last: p.kv_time("ledger_last")?,
        awake: p.kv_bool("ledger_awake")?,
    };

    // Fault runtime.
    let faults = match p.kv("faults")? {
        "none" => None,
        "present" => {
            let mut plan = FaultPlan::new(p.kv_u64("f_seed")?);
            plan.rtc_jitter = p.kv_dur("f_jitter")?;
            plan.drop_fire_p = p.kv_f64("f_drop_p")?;
            plan.drop_retry = p.kv_dur("f_drop_retry")?;
            plan.drop_cap = p.kv_u32("f_drop_cap")?;
            plan.overrun_p = p.kv_f64("f_overrun_p")?;
            plan.overrun = p.kv_dur("f_overrun")?;
            plan.leak_p = p.kv_f64("f_leak_p")?;
            plan.leak = p.kv_dur("f_leak")?;
            plan.activation_failure_p = p.kv_f64("f_act_p")?;
            plan.backoff_base = p.kv_dur("f_backoff_base")?;
            plan.backoff_cap = p.kv_dur("f_backoff_cap")?;
            plan.max_attempts = p.kv_u32("f_max_attempts")?;
            let n = p.count("f_crashes")?;
            for _ in 0..n {
                let f = p.kv_fields::<3>("fc")?;
                plan.crashes.push(CrashSpec {
                    at: p.time(f[0])?,
                    restart_after: p.dur(f[1])?,
                    app: unesc(f[2]),
                });
            }
            let n = p.count("f_storms")?;
            for _ in 0..n {
                let f = p.kv_fields::<3>("fs")?;
                plan.storms.push(StormSpec {
                    start: p.time(f[0])?,
                    duration: p.dur(f[1])?,
                    mean_interval: p.dur(f[2])?,
                });
            }
            let rng_state = {
                let v = p.kv("f_rng")?;
                u64::from_str_radix(v, 16)
                    .map_err(|_| p.err(format!("invalid rng state `{v}`")))?
            };
            let dropping = {
                let v = p.kv("f_dropping")?;
                if v == "none" {
                    None
                } else {
                    let f = p.fields::<2>(v)?;
                    Some((p.time(f[0])?, p.u32_of(f[1])?))
                }
            };
            Some(FaultState::restore(plan, rng_state, dropping))
        }
        other => return Err(p.err(format!("invalid faults flag `{other}`"))),
    };

    // Invariant monitor.
    let monitor = match p.kv("monitor")? {
        "none" => None,
        "present" => {
            let slack = p.kv_dur("m_slack")?;
            let panic_on_violation = p.kv_bool("m_panic")?;
            let window_misses = p.kv_u64("m_misses")?;
            let n = p.count("m_violations")?;
            let mut violations = Vec::with_capacity(n);
            for _ in 0..n {
                let v = p.kv("mv")?;
                violations.push(p.violation_of(v)?);
            }
            Some(InvariantMonitor {
                slack,
                panic_on_violation,
                violations,
                window_misses,
            })
        }
        other => return Err(p.err(format!("invalid monitor flag `{other}`"))),
    };

    // Watchdog runtime state.
    let n = p.count("holds")?;
    let mut holds = Vec::with_capacity(n);
    for _ in 0..n {
        let f = p.kv_fields::<4>("h")?;
        holds.push(TaskHold {
            started: p.time(f[0])?,
            until: p.time(f[1])?,
            hardware: p.hardware_of(f[2])?,
            app: unesc(f[3]).into(),
        });
    }
    let n = p.count("offenses")?;
    let mut offenses = BTreeMap::new();
    for _ in 0..n {
        let f = p.kv_fields::<2>("of")?;
        offenses.insert(unesc(f[1]), p.u32_of(f[0])?);
    }
    let n = p.count("quarantined")?;
    let mut quarantined = BTreeMap::new();
    for _ in 0..n {
        let f = p.kv_fields::<3>("qa")?;
        quarantined.insert(unesc(f[2]), (p.time(f[0])?, p.u32_of(f[1])?));
    }
    let n = p.count("retries")?;
    let mut activation_retries = Vec::with_capacity(n);
    for _ in 0..n {
        let f = p.kv_fields::<6>("rt")?;
        activation_retries.push(RetrySlot {
            until: p.time(f[0])?,
            attempt: p.u32_of(f[1])?,
            done: p.bool_of(f[2])?,
            overhead_mj: p.f64_of(f[3])?,
            hardware: p.hardware_of(f[4])?,
            app: unesc(f[5]).into(),
        });
    }
    let n = p.count("stash_apps")?;
    let mut crash_stash = BTreeMap::new();
    for _ in 0..n {
        let f = p.kv_fields::<2>("stash")?;
        let count = p.count_of(f[0])?;
        let app = unesc(f[1]);
        let mut alarms = Vec::with_capacity(count);
        for _ in 0..count {
            alarms.push(p.alarm()?);
        }
        crash_stash.insert(app, alarms);
    }
    let energy_checked = p.kv_bool("energy_checked")?;
    let down_until = p.kv_opt_time("down_until")?;
    let watchdog = config.online_watchdog;

    // Admission controller runtime state.
    let admission = {
        let v = p.kv("adm")?;
        if v == "none" {
            None
        } else {
            let cfg = config
                .admission
                .ok_or_else(|| p.err("admission state without admission config"))?;
            let n = p.count_of(v)?;
            let mut apps = Vec::with_capacity(n);
            for _ in 0..n {
                let [state @ .., app] = p.kv_fields::<8>("aa")?;
                apps.push((unesc(app), p.app_admission_of(state)?));
            }
            Some(AdmissionController::restore(cfg, apps))
        }
    };

    // Degradation governor runtime state.
    let governor = {
        let v = p.kv("gov")?;
        if v == "none" {
            None
        } else {
            let cfg = config
                .degradation
                .ok_or_else(|| p.err("governor state without degradation config"))?;
            let f = p.fields::<4>(v)?;
            let tier = match f[0] {
                "normal" => DegradationTier::Normal,
                "saver" => DegradationTier::Saver,
                "critical" => DegradationTier::Critical,
                other => return Err(p.err(format!("invalid tier `{other}`"))),
            };
            Some(DegradationGovernor::restore(
                cfg,
                tier,
                p.time(f[1])?,
                p.dur(f[2])?,
                p.dur(f[3])?,
            ))
        }
    };

    // Storm bursts.
    let n = p.count("storm_bursts")?;
    let mut storm = Vec::with_capacity(n);
    for _ in 0..n {
        let f = p.kv_fields::<9>("sb")?;
        storm.push(StormBurst {
            start: p.time(f[0])?,
            count: p.u32_of(f[1])?,
            every: p.dur(f[2])?,
            period: p.dur(f[3])?,
            perceptible: p.bool_of(f[4])?,
            task: p.dur(f[5])?,
            window_milli: p.u32_of(f[6])?,
            grace_milli: p.u32_of(f[7])?,
            app: unesc(f[8]),
        });
    }

    // Overload counters.
    let overload = {
        let f = p.kv_fields::<7>("ov")?;
        OverloadStats {
            storm_registrations: p.u64_of(f[0])?,
            admitted: p.u64_of(f[1])?,
            deferred: p.u64_of(f[2])?,
            rejected: p.u64_of(f[3])?,
            shed: p.u64_of(f[4])?,
            demotions: p.u64_of(f[5])?,
            tier_changes: p.u64_of(f[6])?,
            ..OverloadStats::default()
        }
    };

    // Observability layer: re-register the families (help text, zeroed
    // counters, histogram bounds), then overwrite with the captured
    // state — the union is byte-identical to the straight-through run.
    // A no-obs capture recorded an empty layer; rebuild it empty too.
    let mut obs = ObsLayer::new(
        config.obs,
        &checkpoint.policy,
        config.audit_capacity,
        config.span_capacity,
    );
    let obs_next_seq = p.kv_u64("obs_next_seq")?;
    let obs_span_dropped = p.kv_u64("obs_span_dropped")?;
    let n = p.count("obs_spans")?;
    if n > config.span_capacity {
        return Err(p.err(format!(
            "{n} spans exceed the ring's capacity {}",
            config.span_capacity
        )));
    }
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("os")?;
        let parts: Vec<&str> = v.split(',').collect();
        if parts.len() < 5 {
            return Err(p.err(format!("span needs at least 5 fields, got {}", parts.len())));
        }
        let kind = SpanKind::parse(parts[1])
            .ok_or_else(|| p.err(format!("invalid span kind `{}`", parts[1])))?;
        // A span's attributes are its kind's schema keys, in order, at
        // most as many as the inline storage holds.
        let keys = kind.attr_keys();
        let nattrs = p.usize_of(parts[4])?;
        if nattrs > keys.len() {
            return Err(p.err(format!(
                "{} span carries at most {} attrs, got {nattrs}",
                kind.as_str(),
                keys.len()
            )));
        }
        if parts.len() != 5 + 2 * nattrs {
            return Err(p.err(format!(
                "span with {nattrs} attrs expects {} fields, got {}",
                5 + 2 * nattrs,
                parts.len()
            )));
        }
        let keys = &keys[..nattrs];
        for (i, &key) in keys.iter().enumerate() {
            // Keys are plain identifiers, which `esc` leaves as they are.
            let found = parts[5 + 2 * i];
            if found != key {
                return Err(p.err(format!(
                    "{} span attr {i} must be `{key}`, got `{found}`",
                    kind.as_str()
                )));
            }
        }
        let values = (0..nattrs).map(|i| unesc(parts[6 + 2 * i]).into());
        spans.push(Span::new(
            p.u64_of(parts[0])?,
            kind,
            p.u64_of(parts[2])?,
            p.u64_of(parts[3])?,
            keys.iter().copied().zip(values),
        ));
    }
    obs.spans = if config.obs == ObsLevel::Counts {
        let counted = SpanCollector::counting(config.span_capacity, obs_next_seq);
        if !spans.is_empty() || counted.dropped() != obs_span_dropped {
            return Err(p.err(format!(
                "a counts-level span ring of {obs_next_seq} records retains nothing and \
                 drops {}",
                counted.dropped()
            )));
        }
        counted
    } else {
        SpanCollector::from_parts(config.span_capacity, obs_next_seq, obs_span_dropped, spans)
    };
    let n = p.count("obs_counters")?;
    for _ in 0..n {
        let f = p.kv_fields::<2>("oc")?;
        obs.metrics.set_counter(&unesc(f[1]), p.u64_of(f[0])?);
    }
    let n = p.count("obs_gauges")?;
    for _ in 0..n {
        let f = p.kv_fields::<2>("og")?;
        obs.metrics.set_gauge(&unesc(f[1]), p.f64_of(f[0])?);
    }
    let n = p.count("obs_hists")?;
    for _ in 0..n {
        let v = p.kv("oh")?;
        let parts: Vec<&str> = v.split(',').collect();
        if parts.len() < 2 {
            return Err(p.err("histogram needs at least a name and a bound count"));
        }
        let name = unesc(parts[0]);
        let nb = p.count_of(parts[1])?;
        // name, bound count, bounds, counts (one overflow bucket), sum,
        // count, plus an optional trailing non-finite quarantine count
        // (absent in pre-quantile checkpoints).
        let want = 2 + nb + (nb + 1) + 2;
        if parts.len() != want && parts.len() != want + 1 {
            return Err(p.err(format!(
                "histogram with {nb} bounds expects {want} or {} fields, got {}",
                want + 1,
                parts.len()
            )));
        }
        let mut bounds = Vec::with_capacity(nb);
        for raw in &parts[2..2 + nb] {
            bounds.push(p.f64_of(raw)?);
        }
        let mut counts = Vec::with_capacity(nb + 1);
        for raw in &parts[2 + nb..2 + nb + nb + 1] {
            counts.push(p.u64_of(raw)?);
        }
        let sum = p.f64_of(parts[want - 2])?;
        let count = p.u64_of(parts[want - 1])?;
        let nonfinite = if parts.len() == want + 1 {
            p.u64_of(parts[want])?
        } else {
            0
        };
        obs.metrics.insert_histogram(
            &name,
            Histogram::from_parts(bounds, counts, sum, count).with_nonfinite(nonfinite),
        );
    }
    obs.audit_dropped = p.kv_u64("obs_audit_dropped")?;
    if config.obs == ObsLevel::Counts {
        obs.audits_counted = p.kv_u64("obs_audits_counted")?;
        let dropped = obs.audits_counted.saturating_sub(config.audit_capacity as u64);
        if obs.audit_dropped != dropped {
            return Err(p.err(format!(
                "a counts-level audit ring of {} records drops {dropped}",
                obs.audits_counted
            )));
        }
    }
    let n = p.count("obs_audits")?;
    if config.obs == ObsLevel::Counts && n > 0 {
        return Err(p.err("a counts-level audit ring retains nothing"));
    }
    for _ in 0..n {
        let f = p.kv_fields::<7>("oa")?;
        let candidates = if f[6] == "-" {
            Vec::new()
        } else {
            let mut out = Vec::new();
            for c in f[6].split(';') {
                let cf: Vec<&str> = c.split('.').collect();
                if cf.len() != 5 {
                    return Err(p.err(format!("candidate needs 5 fields, got `{c}`")));
                }
                let time = match cf[2] {
                    "h" => TimeSimilarity::High,
                    "m" => TimeSimilarity::Medium,
                    "l" => TimeSimilarity::Low,
                    other => return Err(p.err(format!("invalid time similarity `{other}`"))),
                };
                let hw_rank = if cf[3] == "-" {
                    None
                } else {
                    Some(cf[3].parse::<u8>().map_err(|_| {
                        p.err(format!("invalid hardware rank `{}`", cf[3]))
                    })?)
                };
                let verdict = match cf[4] {
                    "w" => CandidateVerdict::Won,
                    "o" => CandidateVerdict::Outranked,
                    "n" => CandidateVerdict::NotApplicable,
                    "c" => CandidateVerdict::PastCutoff,
                    other => return Err(p.err(format!("invalid verdict `{other}`"))),
                };
                out.push(CandidateAudit {
                    index: p.usize_of(cf[0])?,
                    delivery_time: p.time(cf[1])?,
                    time,
                    hw_rank,
                    preferability: hw_rank.map(|r| Preferability::from_ranks(r, time)),
                    verdict,
                });
            }
            out
        };
        let placement = if f[4] == "n" {
            Placement::NewEntry
        } else if let Some(idx) = f[4].strip_prefix('e') {
            Placement::Existing(p.usize_of(idx)?)
        } else {
            return Err(p.err(format!("invalid placement `{}`", f[4])));
        };
        obs.audits.push_back(PlacementAudit {
            at: p.time(f[0])?,
            alarm_id: AlarmId::from_raw(p.u64_of(f[1])?),
            app: unesc(f[5]).into(),
            nominal: p.time(f[2])?,
            perceptible: p.bool_of(f[3])?,
            placement,
            candidates,
        });
    }
    let n = p.count("obs_aliases")?;
    for _ in 0..n {
        let f = p.kv_fields::<2>("ol")?;
        obs.aliases.insert(p.u64_of(f[0])?, p.u64_of(f[1])?);
    }
    obs.wake_open = p.kv_opt_time("obs_wake")?;

    Ok(Simulation {
        manager,
        device,
        events,
        trace,
        ledger,
        config,
        now,
        armed,
        due_buffer: Vec::new(),
        faults,
        monitor,
        watchdog,
        holds,
        offenses,
        quarantined,
        activation_retries,
        crash_stash,
        energy_checked,
        down_until,
        admission,
        governor,
        storm,
        overload,
        checkpoints: Vec::new(),
        obs,
        stages: StageProfile::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::alarm::Alarm;

    fn sample() -> Checkpoint {
        Checkpoint {
            captured_at: SimTime::from_secs(90),
            policy: "SIMTY".to_owned(),
            body: "at=90000\npolicy=SIMTY\nrest=payload\n".to_owned(),
        }
    }

    #[test]
    fn envelope_round_trips() {
        let c = sample();
        let restored = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(restored, c);
        assert_eq!(restored.captured_at(), SimTime::from_secs(90));
        assert_eq!(restored.policy_name(), "SIMTY");
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        match Checkpoint::from_bytes(&bytes[..bytes.len() - 5]) {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_detected() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let skewed = text.replace("simty-checkpoint/v1", "simty-checkpoint/v9");
        match Checkpoint::from_bytes(skewed.as_bytes()) {
            Err(CheckpointError::VersionSkew { found }) => {
                assert!(found.ends_with("v9"));
            }
            other => panic!("expected version skew, got {other:?}"),
        }
        match Checkpoint::from_bytes(b"not a checkpoint\n") {
            Err(CheckpointError::BadMagic { .. }) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["plain", "with,comma", "col:on", "pct%25", "nl\nline", "%,:%"] {
            assert_eq!(unesc(&esc(s)), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn f64_hex_is_exact() {
        for v in [0.0, -0.0, 1.5, 1.0 / 3.0, f64::MAX, 1e-300] {
            let p = Parser::new("");
            assert_eq!(p.f64_of(&f64_hex(v)).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn store_saves_and_falls_back_past_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "simty-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let good = sample();
        let p0 = store.save(&good).unwrap();
        let p1 = store.save(&good).unwrap();
        assert_ne!(p0, p1);

        // Newest-first: an uncorrupted store loads the latest snapshot.
        let (loaded, skipped) = store.load_latest_good().unwrap();
        assert_eq!(loaded, good);
        assert_eq!(skipped, 0);

        // Corrupt the newest snapshot: the store falls back to the older
        // good one and reports the skip.
        let mut bytes = fs::read(&p1).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&p1, bytes).unwrap();
        let (loaded, skipped) = store.load_latest_good().unwrap();
        assert_eq!(loaded, good);
        assert_eq!(skipped, 1);

        // Corrupt everything: recovery fails loudly.
        fs::write(&p0, b"garbage").unwrap();
        match store.load_latest_good() {
            Err(CheckpointError::NoUsableCheckpoint { skipped, .. }) => {
                assert_eq!(skipped, 2);
            }
            other => panic!("expected no usable checkpoint, got {other:?}"),
        }

        // Reopening resumes the sequence past existing files.
        let mut reopened = CheckpointStore::open(&dir).unwrap();
        let p2 = reopened.save(&good).unwrap();
        assert!(p2.file_name().unwrap().to_str().unwrap().contains("000002"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!(
            "simty-ckpt-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000");
        let c = sample();
        c.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read_from(&path).unwrap(), c);
        // The temp file never survives a successful write.
        assert!(!dir.join("ckpt-000000.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A SIMTY snapshot whose span ring holds `policy_place` spans, with
    /// `edit` applied to the first such span line of its body.
    fn edited_span_snapshot(edit: impl Fn(&str) -> String) -> Checkpoint {
        use simty_core::policy::SimtyPolicy;
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new().with_duration(SimDuration::from_mins(10)),
        );
        for (label, nominal_s) in [("a", 60), ("b", 90)] {
            let alarm = Alarm::builder(label)
                .nominal(SimTime::from_secs(nominal_s))
                .repeating_static(SimDuration::from_secs(120))
                .window_fraction(0.5)
                .grace_fraction(0.9)
                .build()
                .unwrap();
            sim.register(alarm).unwrap();
        }
        sim.run_until(SimTime::from_secs(300));
        let mut snapshot = sim.checkpoint();
        let line = snapshot
            .body
            .lines()
            .find(|l| l.starts_with("os=") && l.contains(",policy_place,"))
            .expect("a placement span was captured")
            .to_owned();
        snapshot.body = snapshot.body.replacen(&line, &edit(&line), 1);
        snapshot
    }

    fn restore_error(snapshot: &Checkpoint) -> String {
        use simty_core::policy::SimtyPolicy;
        match restore(Box::new(SimtyPolicy::new()), snapshot) {
            Err(CheckpointError::Malformed { message, .. }) => message,
            other => panic!("expected a malformed-body error, got {other:?}"),
        }
    }

    #[test]
    fn span_lines_must_fit_their_kinds_schema() {
        // The unedited snapshot restores.
        let intact = edited_span_snapshot(str::to_owned);
        assert!(restore(Box::new(simty_core::policy::SimtyPolicy::new()), &intact).is_ok());

        // One attribute more than the inline storage holds.
        let extra = edited_span_snapshot(|line| {
            let (head, attrs) = line.split_at(line.find(",4,").unwrap());
            format!("{head},5{},extra,x", &attrs[2..])
        });
        let message = restore_error(&extra);
        assert!(message.contains("at most 4 attrs, got 5"), "{message}");

        // A count past any capacity is refused before any arithmetic on it.
        let huge =
            edited_span_snapshot(|line| line.replacen(",4,", &format!(",{},", usize::MAX), 1));
        assert!(restore_error(&huge).contains("at most 4 attrs"));

        // A key off the schema.
        let renamed = edited_span_snapshot(|line| line.replacen(",app,", ",ap,", 1));
        let message = restore_error(&renamed);
        assert!(
            message.contains("attr 0 must be `app`, got `ap`"),
            "{message}"
        );

        // More spans than the restored ring holds.
        let mut crowded = intact.clone();
        crowded.body = crowded.body.replacen(
            "\naudit_capacity=4096\n",
            "\naudit_capacity=4096\nspan_capacity=1\n",
            1,
        );
        let message = restore_error(&crowded);
        assert!(message.contains("exceed the ring's capacity 1"), "{message}");
    }
}
