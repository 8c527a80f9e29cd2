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
//! # Persistence format (`simty-checkpoint/v2`)
//!
//! A persisted checkpoint is a UTF-8 text file with a three-line
//! envelope followed by the body:
//!
//! ```text
//! simty-checkpoint/v2
//! len=<body length in bytes>
//! sum=<wordsum64 checksum of the body, 16 hex digits>
//! <body: one `key=value` line per field>
//! ```
//!
//! The checksum is [`wordsum64`], which reads the body a 64-bit word at
//! a time in four independent lanes. Earlier builds wrote
//! `simty-checkpoint/v1`, whose `sum=` line is the byte-serial
//! [`fnv1a64`] of the same body; everything else, the body included, is
//! identical. [`Checkpoint::from_bytes`] reads both, and the magic line
//! alone picks the checksum; only v2 is ever written. Downgrade is not
//! supported: a build that knows only v1 reports a v2 file as
//! [`CheckpointError::VersionSkew`], and its store skips it as it skips
//! any snapshot that does not validate.
//!
//! Floating-point values are serialized as the 16-hex-digit IEEE-754 bit
//! pattern, so round-trips are exact. Writes go through a temp file and
//! an atomic rename ([`Checkpoint::write_atomic`]), so a crash mid-write
//! can never leave a torn checkpoint under the final name; reads detect
//! version skew, truncation, and corruption (checksum mismatch) and the
//! [`CheckpointStore`] falls back to the newest older snapshot that
//! still validates.
//!
//! # The body, section by section
//!
//! Each subsystem persists one section of the body, in the order the
//! `SECTIONS` table lists them: identity, config, power model, alarm
//! manager, device, event queue, trace, attribution ledger, faults,
//! invariant monitor, engine runtime state, admission, degradation
//! governor, storm bursts, overload counters and observability. A
//! section is one `impl Section`, whose `put` writes its lines and whose
//! `take` reads them back right below, through the typed layers of
//! [`crate::codec`]: every value is a [`Field`] with both halves in one
//! impl, and a struct written field by field is declared once with the
//! codec's `record!` macro.
//!
//! To persist a new field, add it where its section's `put` writes that
//! line and at the same place in `take`; when it sits inside a record
//! declared with `record!` (a `d=`-style line), add its name to the
//! declaration and both halves follow. A new type needs one `Field` impl.
//! Bodies an older build wrote must keep restoring, so a new line is
//! written only when it differs from a default, read with
//! [`Parser::take_opt`], and treated as the default when absent, as
//! `span_capacity=` and `obs=` are.
//!
//! Three sections are functions of their component rather than of the
//! [`Simulation`], because the live scheduler's `serve-live/v2` drain
//! snapshot (in `simty-serve`) writes and reads the same state with
//! them: [`put_manager`] / [`take_manager`] (the alarm manager),
//! [`put_admission`] / [`take_admission`] (the admission controller's
//! per-app buckets) and [`put_max_alarm_id`] / [`take_max_alarm_id`]
//! (the alarm-id watermark). A change to one of them changes both
//! formats, and the live scheduler's goldens pin the second.
//!
//! # Restore
//!
//! [`Simulation::restore`] builds a bare simulation and lets each
//! section overwrite its part, so its work grows with the body's lines
//! rather than with heap allocations:
//!
//! * the body is read in one pass: each line is taken by its `key=`
//!   prefix and its fields are read in place, by type, in order,
//!   through a [`Cursor`], a number in the scan that finds its end; a
//!   line with a missing or extra field is an error naming both counts;
//! * every label (alarm and delivery labels, audit apps, and the
//!   ledger, hold and retry apps) goes through the parser's interner
//!   ([`Parser::label`]): one shared `Arc<str>` per distinct label, as
//!   in the live run, unescaped only when the field holds a `%`;
//! * a span attribute that is a canonical decimal (digits only, no
//!   sign, no leading zero unless it is `0`, within `u64`) comes back
//!   as [`AttrValue::U64`], any other value as an interned
//!   [`AttrValue::Shared`]. Both render as the captured text, so
//!   exports and recaptures are byte-identical by construction; `007`,
//!   `+5` and 20-digit values stay strings;
//! * the counts the body leads each section with presize the trace's
//!   deliveries and wakeups, the span ring and the audit ring, and
//!   each audit's candidates are moved into a list of their exact size.
//!
//! Restoring a SIMTY heavy snapshot 2.5 h into its run (2 048 span and
//! 988 delivery lines) allocates 1 215 times, where it allocated about
//! 25 000 times when every line built owned strings
//! (`tests/alloc_profile.rs` pins the count), and takes less time than
//! re-running the simulation from t = 0 (EXPERIMENTS.md, "Restore
//! cost"). Which bodies restore, and to what, is pinned over a thousand
//! hostile mutants of that snapshot (`tests/reader_golden.rs`). Restore
//! also validates what the ring and metric types assume: no more spans
//! or audits than their rings hold, histogram bounds that are finite and
//! strictly increasing, and an alarm-id watermark below `u64::MAX`, so a
//! fresh id is left to mint.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use simty_core::admission::{AdmissionConfig, AdmissionController, AppAdmission};
use simty_core::alarm::{Alarm, AlarmId};
use simty_core::audit::{CandidateAudit, CandidateVerdict, PlacementAudit};
use simty_core::hardware::{HardwareComponent, HardwareSet};
use simty_core::manager::AlarmManager;
use simty_core::policy::{AlignmentPolicy, Placement};
use simty_core::similarity::{Preferability, TimeSimilarity};
use simty_core::time::{SimDuration, SimTime};
use simty_device::device::{Device, DevicePowerState, DeviceSnapshot};
use simty_device::energy::EnergyMeter;
use simty_device::monsoon::PowerTrace;
use simty_device::power::{ComponentPower, PowerModel};
use simty_device::wakelock::WakeLockTable;
use simty_obs::span::SPAN_ATTR_CAPACITY;
use simty_obs::{AttrValue, Histogram, Span, SpanCollector, SpanKind};

use crate::attribution::{ActiveTask, AttributionLedger};
use crate::codec::{
    fnv1a64, line, names, put, put_list, record, same, tagged, unesc, wordsum64, write_queue,
    Cursor, Field, Parser, Put,
};
use crate::config::{InvariantMode, SimConfig};
use crate::degrade::{DegradationGovernor, DegradationTier, GovernorConfig};
use crate::engine::{RetrySlot, Simulation, TaskHold};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{CrashSpec, FaultPlan, FaultState, StormSpec};
use crate::invariant::{InvariantMonitor, InvariantViolation};
use crate::metrics::OverloadStats;
use crate::obs::{ObsLayer, ObsLevel, SPAN_CAPACITY};
use crate::overload::StormBurst;
use crate::trace::{DeliveryRecord, InterventionKind, InterventionRecord, Trace};
use crate::vfs::{RealVfs, Vfs};
use crate::watchdog::{OnlineWatchdogConfig, WatchdogPolicy};

/// The format magic and version, first line of every checkpoint this
/// build writes.
pub const MAGIC: &str = "simty-checkpoint/v2";

/// The magic of the earlier format, whose body is sealed with
/// [`fnv1a64`]; read, never written.
const MAGIC_V1: &str = "simty-checkpoint/v1";

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
    /// The body's checksum does not match the envelope — bit rot or
    /// tampering.
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
                write!(
                    f,
                    "unsupported checkpoint version `{found}` (expected `{MAGIC}` or `{MAGIC_V1}`)"
                )
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
        put(&mut body, "at", &at);
        line(&mut body, "policy", |w| w.esc(policy));
        line(&mut body, "payload", |w| w.esc(payload));
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

    /// Serializes the checkpoint in the persisted `simty-checkpoint/v2`
    /// format (envelope + body), into one buffer of its final size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = self.body.as_bytes();
        let header = format!(
            "{MAGIC}\nlen={}\nsum={:016x}\n",
            body.len(),
            wordsum64(body)
        );
        let mut bytes = Vec::with_capacity(header.len() + body.len());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    /// Parses and validates a persisted checkpoint: magic, version,
    /// declared length (truncation), and checksum (corruption). Both
    /// `simty-checkpoint/v2` and the earlier `simty-checkpoint/v1` are
    /// read; the magic line picks the checksum.
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
        let checksum: fn(&[u8]) -> u64 = match magic_line {
            MAGIC => wordsum64,
            MAGIC_V1 => fnv1a64,
            _ if magic_line.starts_with("simty-checkpoint/") => {
                return Err(CheckpointError::VersionSkew {
                    found: magic_line.to_owned(),
                })
            }
            _ => {
                return Err(CheckpointError::BadMagic {
                    found: magic_line.to_owned(),
                })
            }
        };
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
        let actual_sum = checksum(body.as_bytes());
        if actual_sum != expected_sum {
            return Err(CheckpointError::ChecksumMismatch {
                expected: expected_sum,
                actual: actual_sum,
            });
        }
        // The body leads with `at=` and `policy=`; parse just those two
        // here so the snapshot is identifiable without a full restore.
        let mut p = Parser::new(body);
        let at = p.take("at")?;
        let policy = p.take("policy")?;
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
                    format!(
                        "checkpoint path `{}` has no parent/file name",
                        path.display()
                    ),
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

/// One section of the body: the lines one subsystem persists, its
/// writer and its reader side by side. [`SECTIONS`] fixes the order.
trait Section {
    /// Appends the section's lines for `sim`.
    fn put(sim: &Simulation, out: &mut String);

    /// Reads the section's lines into `sim`, which already holds every
    /// earlier section.
    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError>;
}

type Writer = fn(&Simulation, &mut String);
type Reader = fn(&mut Simulation, &mut Parser<'_>) -> Result<(), CheckpointError>;

const fn section<S: Section>() -> (Writer, Reader) {
    (S::put, S::take)
}

/// Every section, in body order.
const SECTIONS: [(Writer, Reader); 16] = [
    section::<Checkpoint>(),
    section::<SimConfig>(),
    section::<PowerModel>(),
    section::<AlarmManager>(),
    section::<Device>(),
    section::<EventQueue>(),
    section::<Trace>(),
    section::<AttributionLedger>(),
    section::<FaultState>(),
    section::<InvariantMonitor>(),
    section::<EngineState>(),
    section::<AdmissionController>(),
    section::<DegradationGovernor>(),
    section::<StormBurst>(),
    section::<OverloadStats>(),
    section::<ObsLayer>(),
];

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
    for (put, _) in SECTIONS {
        put(sim, &mut body);
    }
    Checkpoint {
        captured_at: sim.now,
        policy: sim.manager.policy_name().to_owned(),
        body,
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
    // Every section overwrites what it persists, so the skeleton's own
    // state never survives; an off observability layer keeps it cheap.
    let mut sim = Simulation::bare(policy, SimConfig::new().with_obs(ObsLevel::Off));
    let mut p = Parser::new(&checkpoint.body);
    for (_, take) in SECTIONS {
        take(&mut sim, &mut p)?;
    }
    Ok(sim)
}

/// Writes `key=present` and `v`'s lines, or `key=none`.
fn put_present<T>(out: &mut String, key: &str, v: Option<&T>, lines: impl FnOnce(&mut String, &T)) {
    line(out, key, |w| {
        w.raw(if v.is_some() { "present" } else { "none" })
    });
    if let Some(v) = v {
        lines(out, v);
    }
}

/// Reads what [`put_present`] wrote.
fn take_present<'a, T>(
    p: &mut Parser<'a>,
    key: &str,
    lines: impl FnOnce(&mut Parser<'a>) -> Result<T, CheckpointError>,
) -> Result<Option<T>, CheckpointError> {
    match p.kv(key)? {
        "none" => Ok(None),
        "present" => lines(p).map(Some),
        v => Err(p.err(format!("invalid {key} flag `{v}`"))),
    }
}

/// Writes the alarm-id watermark, `max_alarm_id=`: the largest of
/// `ids`, or 0.
pub fn put_max_alarm_id(out: &mut String, ids: impl Iterator<Item = AlarmId>) {
    let max_id = ids.map(AlarmId::as_u64).max().unwrap_or(0);
    put(out, "max_alarm_id", &max_id);
}

/// Reads the watermark [`put_max_alarm_id`] wrote and reserves every id
/// through it, so a fresh id cannot collide with a restored one. A
/// watermark of `u64::MAX` leaves no id to mint and is refused.
pub fn take_max_alarm_id(p: &mut Parser<'_>) -> Result<(), CheckpointError> {
    let max_id = p.take("max_alarm_id")?;
    reserve_ids(p, "max_alarm_id", max_id)
}

/// Reserves every alarm id through `max_id`, so a fresh id cannot collide
/// with a restored one; `u64::MAX` leaves no id to mint and is refused.
fn reserve_ids(p: &Parser<'_>, what: &str, max_id: u64) -> Result<(), CheckpointError> {
    if max_id == u64::MAX {
        return Err(p.err(format!("{what} {max_id} leaves no alarm id to mint")));
    }
    AlarmId::reserve_through(max_id);
    Ok(())
}

/// Writes the alarm manager's clock, grace stretch and both queues.
pub fn put_manager(out: &mut String, manager: &AlarmManager) {
    put(out, "mgr_clock", &manager.now());
    put(out, "mgr_stretch", &manager.grace_stretch());
    write_queue(out, "wakeup_entries", manager.wakeup_queue());
    write_queue(out, "non_wakeup_entries", manager.non_wakeup_queue());
}

/// Reads what [`put_manager`] wrote into `manager`, which keeps its
/// policy and audit level, and reserves every queued alarm id, which a
/// hostile watermark may not cover.
pub fn take_manager(p: &mut Parser<'_>, manager: &mut AlarmManager) -> Result<(), CheckpointError> {
    let clock = p.take("mgr_clock")?;
    let stretch = p.take("mgr_stretch")?;
    let wakeup = p.queue("wakeup_entries")?;
    let non_wakeup = p.queue("non_wakeup_entries")?;
    manager.restore_state(wakeup, non_wakeup, clock, stretch);
    let max_queued = manager.alarms().map(|a| a.id().as_u64()).max();
    reserve_ids(p, "queued alarm id", max_queued.unwrap_or(0))
}

/// Writes the admission controller's per-app bucket state, `adm=` and
/// one `aa=` line per app in app order with the escaped app label last,
/// or `adm=none` without a controller.
pub fn put_admission(out: &mut String, admission: Option<&AdmissionController>) {
    let Some(ctl) = admission else {
        return line(out, "adm", |w| w.raw("none"));
    };
    put(out, "adm", &ctl.app_count());
    for (app, st) in ctl.apps() {
        line(out, "aa", |w| w.f(st).esc(app));
    }
}

/// Reads what [`put_admission`] wrote, restoring the controller under
/// `config`; per-app state without a config is refused.
pub fn take_admission(
    p: &mut Parser<'_>,
    config: Option<AdmissionConfig>,
) -> Result<Option<AdmissionController>, CheckpointError> {
    let v = p.kv("adm")?;
    if v == "none" {
        return Ok(None);
    }
    let config = config.ok_or_else(|| p.err("admission state without admission config"))?;
    let n = p.count_of(v)?;
    let mut apps = Vec::with_capacity(n);
    for _ in 0..n {
        let (st, app) = p.take::<(AppAdmission, String)>("aa")?;
        apps.push((app, st));
    }
    Ok(Some(AdmissionController::restore(config, apps)))
}

/// Identity: the capture instant, the policy, and the alarm-id
/// watermark restore reserves past.
impl Section for Checkpoint {
    fn put(sim: &Simulation, out: &mut String) {
        put(out, "at", &sim.now);
        line(out, "policy", |w| w.esc(sim.manager.policy_name()));
        // The largest alarm id anywhere in the captured state.
        let alarms = sim
            .manager
            .alarms()
            .chain(sim.crash_stash.values().flatten());
        let delivered = sim.trace.deliveries.iter().map(|d| d.alarm_id);
        let (events, _) = sim.events.snapshot();
        let reregistered = events.iter().filter_map(|ev| match ev.kind {
            EventKind::Reregister { id } => Some(id),
            _ => None,
        });
        let ids = alarms.map(Alarm::id).chain(delivered).chain(reregistered);
        put_max_alarm_id(out, ids);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.now = p.take("at")?;
        p.kv("policy")?;
        take_max_alarm_id(p)
    }
}

names!(InvariantMode, "invariant mode" { Off = "off", Report = "report", Strict = "strict" });
// Full is never written: a full-level capture has no `obs=` line.
names!(ObsLevel, "obs level" { Off = "0", Counts = "counts", Timed = "timed", Full = "full" });
record!(WatchdogPolicy: max_task_hold, max_duty_cycle);
record!(OnlineWatchdogConfig: policy: WatchdogPolicy, quarantine_after, probation);
record!(GovernorConfig: capacity_mj, check_every, saver_enter_milli, saver_exit_milli,
    critical_enter_milli, critical_exit_milli, saver_stretch_milli, critical_stretch_milli,
    shed_in_critical);

/// The run's configuration, but for its power model.
impl Section for SimConfig {
    fn put(sim: &Simulation, out: &mut String) {
        let c = &sim.config;
        put(out, "duration", &c.duration);
        put(out, "record_waveform", &c.record_waveform);
        put(out, "invariants", &c.invariants);
        put(out, "checkpoint_every", &c.checkpoint_every);
        put(out, "audit_capacity", &c.audit_capacity);
        // Written only when overridden: default-capacity captures keep
        // the original byte layout, and restore treats absence as the
        // default.
        if c.span_capacity != SPAN_CAPACITY {
            put(out, "span_capacity", &c.span_capacity);
        }
        // Written only below the full level, likewise.
        if c.obs != ObsLevel::Full {
            put(out, "obs", &c.obs);
        }
        put_list(out, "external_wakes", "xw", c.external_wakes.iter());
        put(out, "watchdog", &c.online_watchdog);
        put(out, "admission", &c.admission);
        put(out, "degradation", &c.degradation);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        // Both rings need room for one record.
        let capacity = |p: &Parser<'_>, key: &str, n: usize| match n {
            0 => Err(p.err(format!("{key} must be positive"))),
            n => Ok(n),
        };
        let c = &mut sim.config;
        c.duration = p.take("duration")?;
        c.record_waveform = p.take("record_waveform")?;
        c.invariants = p.take("invariants")?;
        c.checkpoint_every = p.take("checkpoint_every")?;
        let n = p.take("audit_capacity")?;
        c.audit_capacity = capacity(p, "audit_capacity", n)?;
        c.span_capacity = match p.take_opt("span_capacity")? {
            Some(n) => capacity(p, "span_capacity", n)?,
            None => SPAN_CAPACITY,
        };
        c.obs = p.take_opt("obs")?.unwrap_or(ObsLevel::Full);
        c.external_wakes = p.list("external_wakes", "xw")?;
        c.online_watchdog = p.take("watchdog")?;
        c.admission = p.take("admission")?;
        c.degradation = p.take("degradation")?;
        sim.watchdog = sim.config.online_watchdog;
        Ok(())
    }
}

record!(ComponentPower: activation_energy_mj, active_power_mw);

/// The power model, field by field.
impl Section for PowerModel {
    fn put(sim: &Simulation, out: &mut String) {
        let m = &sim.config.power;
        put(out, "sleep_mw", &m.sleep_power_mw);
        put(out, "awake_mw", &m.awake_base_power_mw);
        put(out, "transition_mj", &m.wake_transition_energy_mj);
        put(out, "wake_latency_ms", &m.wake_latency);
        put(out, "sleep_linger_ms", &m.sleep_linger);
        for c in HardwareComponent::ALL {
            put(out, "component", &m.component(c));
        }
    }

    /// Overwrites every persisted field of the calibrated default.
    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        let m = &mut sim.config.power;
        m.sleep_power_mw = p.take("sleep_mw")?;
        m.awake_base_power_mw = p.take("awake_mw")?;
        m.wake_transition_energy_mj = p.take("transition_mj")?;
        m.wake_latency = p.take("wake_latency_ms")?;
        m.sleep_linger = p.take("sleep_linger_ms")?;
        for c in HardwareComponent::ALL {
            m.set_component(c, p.take("component")?);
        }
        Ok(())
    }
}

/// The alarm manager: its clock, grace stretch and both queues.
impl Section for AlarmManager {
    fn put(sim: &Simulation, out: &mut String) {
        put_manager(out, &sim.manager);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        take_manager(p, &mut sim.manager)?;
        sim.manager.set_audit_level(sim.config.obs.audit_level());
        Ok(())
    }
}

tagged!(DevicePowerState, "device state" {
    Asleep = "asleep",
    Waking { until } = "waking",
    Awake = "awake",
});

/// The device: power state, energy meter, wakelocks, clocks and the
/// optional waveform monitor.
impl Section for Device {
    fn put(sim: &Simulation, out: &mut String) {
        let dev = sim.device.snapshot();
        put(out, "dev_state", &dev.state);
        let (sleep_mj, transition_mj, awake_mj, component_mj) = dev.meter.parts();
        put(out, "dev_meter", &(sleep_mj, transition_mj, awake_mj));
        put(out, "dev_meter_components", &component_mj);
        let (expiry, activations) = dev.locks.parts();
        put(out, "dev_locks_expiry", &expiry);
        put(out, "dev_locks_activations", &activations);
        put(out, "dev_clock", &dev.clock);
        put(out, "dev_cpu_busy", &dev.cpu_busy_until);
        put(out, "dev_idle_since", &dev.idle_since);
        put(out, "dev_wake_count", &dev.wake_count);
        put(out, "dev_awake_time", &dev.awake_time);
        put_present(out, "dev_monitor", dev.monitor.as_ref(), |out, trace| {
            put_list(out, "levels", "lv", trace.levels().iter());
            put_list(out, "impulses", "im", trace.impulses().iter());
        });
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        let state = p.take("dev_state")?;
        let (sleep_mj, transition_mj, awake_mj) = p.take("dev_meter")?;
        let component_mj = p.take("dev_meter_components")?;
        let meter = EnergyMeter::from_parts(sleep_mj, transition_mj, awake_mj, component_mj);
        let locks = WakeLockTable::from_parts(
            p.take("dev_locks_expiry")?,
            p.take("dev_locks_activations")?,
        );
        let snapshot = DeviceSnapshot {
            state,
            meter,
            locks,
            clock: p.take("dev_clock")?,
            cpu_busy_until: p.take("dev_cpu_busy")?,
            idle_since: p.take("dev_idle_since")?,
            wake_count: p.take("dev_wake_count")?,
            awake_time: p.take("dev_awake_time")?,
            monitor: take_present(p, "dev_monitor", |p| {
                Ok(PowerTrace::from_parts(
                    p.list("levels", "lv")?,
                    p.list("impulses", "im")?,
                ))
            })?,
        };
        sim.device = Device::restore(sim.config.power.clone(), snapshot);
        Ok(())
    }
}

// An app name goes last: it is escaped, so it holds no `:`.
tagged!(EventKind, "event kind" {
    RtcAlarm = "rtc",
    WakeComplete = "wake",
    TaskEnd = "taskend",
    TrySleep = "trysleep",
    NonWakeupCheck = "nonwakeup",
    ExternalWake = "extwake",
    Reregister { id } = "rereg",
    WatchdogCheck = "watchdog",
    ActivationRetry { slot } = "actretry",
    AppCrash { restart_after, app } = "crash",
    AppRestart { app } = "apprestart",
    Reboot { outage } = "reboot",
    BootComplete = "boot",
    Checkpoint = "checkpoint",
    GovernorTick = "govtick",
    StormRegister { burst, k } = "storm",
});
record!(Event: time, seq, kind);

/// The event queue, with its exact sequence numbers, and the armed
/// fire set.
impl Section for EventQueue {
    fn put(sim: &Simulation, out: &mut String) {
        let (events, next_seq) = sim.events.snapshot();
        put(out, "next_seq", &next_seq);
        put_list(out, "events", "ev", events.iter());
        let mut armed = sim.armed.clone();
        armed.sort_unstable();
        put_list(out, "armed", "arm", armed.iter());
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        let next_seq = p.take("next_seq")?;
        sim.events = EventQueue::restore(p.list("events", "ev")?, next_seq);
        // A set: a body listing a key twice restores it once.
        let mut armed: Vec<(u8, u64)> = p.list("armed", "arm")?;
        armed.sort_unstable();
        armed.dedup();
        sim.armed = armed;
        Ok(())
    }
}

/// A `d=` line: the alarm and its windows, then the delivery; a
/// one-shot's repeat interval is `0`.
impl Field for DeliveryRecord {
    const ARITY: usize = 12;

    fn put(&self, w: &mut Put<'_>) {
        w.f(&self.alarm_id)
            .f(&self.label)
            .f(&self.nominal)
            .f(&self.window_end)
            .f(&self.grace_end)
            .f(&self.delivered_at)
            .f(&self.repeat_interval.map_or(0, SimDuration::as_millis))
            .f(&self.hardware)
            .f(&self.perceptible)
            .f(&self.kind)
            .f(&self.entry_size)
            .f(&self.task_duration);
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        Ok(DeliveryRecord {
            alarm_id: r.take()?,
            label: r.take()?,
            nominal: r.take()?,
            window_end: r.take()?,
            grace_end: r.take()?,
            delivered_at: r.take()?,
            repeat_interval: Some(r.take()?).filter(|d: &SimDuration| d.as_millis() != 0),
            hardware: r.take()?,
            perceptible: r.take()?,
            kind: r.take()?,
            entry_size: r.take()?,
            task_duration: r.take()?,
        })
    }
}

tagged!(InterventionKind, "intervention kind" {
    ForcedRelease { held } = "forced",
    ActivationRetry { attempt } = "actretry",
    DroppedFireRetry { delay } = "dropped",
    Quarantine = "quarantine",
    Recovery { quarantined_for } = "recovery",
    AppCrash { cancelled } = "crash",
    AppRestart { reregistered } = "restart",
    Reboot { outage } = "reboot",
    BootCatchUp { caught_up, worst_delay } = "catchup",
});
record!(InterventionRecord: at, app, overhead_mj, kind);

/// The delivery trace.
impl Section for Trace {
    fn put(sim: &Simulation, out: &mut String) {
        let t = &sim.trace;
        put_list(out, "deliveries", "d", t.deliveries.iter());
        put_list(out, "wakeups", "wk", t.wakeups.iter());
        put(out, "entry_deliveries", &t.entry_deliveries);
        put_list(out, "interventions", "iv", t.interventions.iter());
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.trace = Trace {
            deliveries: p.list("deliveries", "d")?,
            wakeups: p.list("wakeups", "wk")?,
            entry_deliveries: p.take("entry_deliveries")?,
            interventions: p.list("interventions", "iv")?,
        };
        Ok(())
    }
}

/// The attribution ledger; its power model is the config's. Each
/// active task's line names its app (`la=app,hardware,until`), and the
/// per-app totals are written in name order, so the body does not
/// depend on the order in which the ledger first saw its apps.
impl Section for AttributionLedger {
    fn put(sim: &Simulation, out: &mut String) {
        let l = &sim.ledger;
        put(out, "ledger_active", &l.active.len());
        for t in &l.active {
            line(out, "la", |w| {
                w.f(&l.names[t.slot as usize]).f(&t.hardware).f(&t.until)
            });
        }
        let per_app = l.per_app_mj();
        put(out, "ledger_apps", &per_app.len());
        for (app, mj) in &per_app {
            line(out, "lp", |w| w.f(app).f(mj));
        }
        put(out, "ledger_interventions", &l.interventions.len());
        for (app, n) in &l.interventions {
            line(out, "li", |w| w.f(app).f(n));
        }
        put(out, "ledger_overhead", &l.overhead_mj);
        put(out, "ledger_pending", &l.pending_transition_mj);
        put(out, "ledger_last", &l.last);
        put(out, "ledger_awake", &l.awake);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        let active: Vec<(Arc<str>, HardwareSet, SimTime)> = p.list("ledger_active", "la")?;
        // A later line of the same app wins, as it would in a map.
        let per_app: BTreeMap<Arc<str>, f64> = p.list("ledger_apps", "lp")?.into_iter().collect();
        let (names, totals): (Vec<Arc<str>>, Vec<f64>) = per_app.into_iter().unzip();
        let active = active
            .into_iter()
            .map(|(app, hardware, until)| {
                // A task starts by charging its app, so every active
                // task's app has a total line.
                let slot = names
                    .iter()
                    .position(|n| *n == app)
                    .and_then(|slot| u32::try_from(slot).ok())
                    .ok_or_else(|| {
                        p.err(format!(
                            "active ledger task of `{app}` has no ledger_apps line"
                        ))
                    })?;
                Ok(ActiveTask {
                    slot,
                    hardware,
                    until,
                })
            })
            .collect::<Result<_, CheckpointError>>()?;
        sim.ledger = AttributionLedger {
            model: sim.config.power.clone(),
            active,
            names,
            totals,
            interventions: p.list("ledger_interventions", "li")?.into_iter().collect(),
            overhead_mj: p.take("ledger_overhead")?,
            pending_transition_mj: p.take("ledger_pending")?,
            last: p.take("ledger_last")?,
            awake: p.take("ledger_awake")?,
        };
        Ok(())
    }
}

record!(CrashSpec: at, restart_after, app);
record!(StormSpec: start, duration, mean_interval);

/// The fault-injection runtime: the plan, the RNG's state word and the
/// in-flight drop bookkeeping.
impl Section for FaultState {
    fn put(sim: &Simulation, out: &mut String) {
        put_present(out, "faults", sim.faults.as_ref(), |out, fs| {
            let plan = &fs.plan;
            put(out, "f_seed", &plan.seed);
            put(out, "f_jitter", &plan.rtc_jitter);
            put(out, "f_drop_p", &plan.drop_fire_p);
            put(out, "f_drop_retry", &plan.drop_retry);
            put(out, "f_drop_cap", &plan.drop_cap);
            put(out, "f_overrun_p", &plan.overrun_p);
            put(out, "f_overrun", &plan.overrun);
            put(out, "f_leak_p", &plan.leak_p);
            put(out, "f_leak", &plan.leak);
            put(out, "f_act_p", &plan.activation_failure_p);
            put(out, "f_backoff_base", &plan.backoff_base);
            put(out, "f_backoff_cap", &plan.backoff_cap);
            put(out, "f_max_attempts", &plan.max_attempts);
            put_list(out, "f_crashes", "fc", plan.crashes.iter());
            put_list(out, "f_storms", "fs", plan.storms.iter());
            line(out, "f_rng", |w| w.raw(&format!("{:016x}", fs.rng.state())));
            put(out, "f_dropping", &fs.dropping);
        });
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.faults = take_present(p, "faults", |p| {
            let mut plan = FaultPlan::new(p.take("f_seed")?);
            plan.rtc_jitter = p.take("f_jitter")?;
            plan.drop_fire_p = p.take("f_drop_p")?;
            plan.drop_retry = p.take("f_drop_retry")?;
            plan.drop_cap = p.take("f_drop_cap")?;
            plan.overrun_p = p.take("f_overrun_p")?;
            plan.overrun = p.take("f_overrun")?;
            plan.leak_p = p.take("f_leak_p")?;
            plan.leak = p.take("f_leak")?;
            plan.activation_failure_p = p.take("f_act_p")?;
            plan.backoff_base = p.take("f_backoff_base")?;
            plan.backoff_cap = p.take("f_backoff_cap")?;
            plan.max_attempts = p.take("f_max_attempts")?;
            plan.crashes = p.list("f_crashes", "fc")?;
            plan.storms = p.list("f_storms", "fs")?;
            let rng = p.kv("f_rng")?;
            let rng = u64::from_str_radix(rng, 16)
                .map_err(|_| p.err(format!("invalid rng state `{rng}`")))?;
            Ok(FaultState::restore(plan, rng, p.take("f_dropping")?))
        })?;
        Ok(())
    }
}

// A label goes last: it is escaped, so it holds no `:`.
tagged!(InvariantViolation, "violation" {
    PerceptibleWindowMiss { delivered_at, window_end, allowed_slack, label } = "miss",
    QueueOrderBroken { earlier, later } = "order",
    EnergyNotConserved { ledger_mj, meter_mj } = "energy",
    WaveformMismatch { trace_mj, meter_mj } = "waveform",
});

/// The invariant monitor (its slack may have been widened after
/// construction).
impl Section for InvariantMonitor {
    fn put(sim: &Simulation, out: &mut String) {
        put_present(out, "monitor", sim.monitor.as_ref(), |out, m| {
            put(out, "m_slack", &m.slack);
            put(out, "m_panic", &m.panic_on_violation);
            put(out, "m_misses", &m.window_misses);
            put_list(out, "m_violations", "mv", m.violations.iter());
        });
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.monitor = take_present(p, "monitor", |p| {
            Ok(InvariantMonitor {
                slack: p.take("m_slack")?,
                panic_on_violation: p.take("m_panic")?,
                window_misses: p.take("m_misses")?,
                violations: p.list("m_violations", "mv")?,
            })
        })?;
        Ok(())
    }
}

record!(TaskHold: started, until, hardware, app);
record!(RetrySlot: until, attempt, done, overhead_mj, hardware, app);

/// The engine's runtime state: the watchdog's holds, offenses,
/// quarantines and activation retries, the crash stash, and the reboot
/// outage.
struct EngineState;

impl Section for EngineState {
    fn put(sim: &Simulation, out: &mut String) {
        put_list(out, "holds", "h", sim.holds.iter());
        put(out, "offenses", &sim.offenses.len());
        for (app, n) in &sim.offenses {
            line(out, "of", |w| w.f(n).f(app));
        }
        put(out, "quarantined", &sim.quarantined.len());
        for (app, (since, clean)) in &sim.quarantined {
            line(out, "qa", |w| w.f(since).f(clean).f(app));
        }
        put_list(out, "retries", "rt", sim.activation_retries.iter());
        put(out, "stash_apps", &sim.crash_stash.len());
        for (app, alarms) in &sim.crash_stash {
            line(out, "stash", |w| w.f(&alarms.len()).f(app));
            for alarm in alarms {
                put(out, "alarm", alarm);
            }
        }
        put(out, "energy_checked", &sim.energy_checked);
        put(out, "down_until", &sim.down_until);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.holds = p.list("holds", "h")?;
        let offenses = p.list::<(u32, String)>("offenses", "of")?;
        sim.offenses = offenses.into_iter().map(|(n, app)| (app, n)).collect();
        let quarantined = p.list::<(SimTime, u32, String)>("quarantined", "qa")?;
        sim.quarantined = quarantined
            .into_iter()
            .map(|(since, clean, app)| (app, (since, clean)))
            .collect();
        sim.activation_retries = p.list("retries", "rt")?;
        for _ in 0..p.count("stash_apps")? {
            let mut r = p.rec("stash", 2)?;
            let (n, app) = (r.count()?, r.take()?);
            let mut alarms = Vec::with_capacity(n);
            for _ in 0..n {
                alarms.push(p.take("alarm")?);
            }
            sim.crash_stash.insert(app, alarms);
        }
        sim.energy_checked = p.take("energy_checked")?;
        sim.down_until = p.take("down_until")?;
        Ok(())
    }
}

/// The admission controller's per-app bucket state (its config is the
/// config's).
impl Section for AdmissionController {
    fn put(sim: &Simulation, out: &mut String) {
        put_admission(out, sim.admission.as_ref());
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.admission = take_admission(p, sim.config.admission)?;
        Ok(())
    }
}

names!(DegradationTier, "tier" { Normal = "normal", Saver = "saver", Critical = "critical" });

/// The degradation governor's runtime state (its config is the
/// config's).
impl Section for DegradationGovernor {
    fn put(sim: &Simulation, out: &mut String) {
        let state = sim
            .governor
            .as_ref()
            .map(|g| (g.tier, g.tier_since, g.in_saver, g.in_critical));
        put(out, "gov", &state);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.governor = match p.take("gov")? {
            None => None,
            Some((tier, since, in_saver, in_critical)) => {
                let config = sim
                    .config
                    .degradation
                    .ok_or_else(|| p.err("governor state without degradation config"))?;
                let g = DegradationGovernor::restore(config, tier, since, in_saver, in_critical);
                Some(g)
            }
        };
        Ok(())
    }
}

record!(StormBurst: start, count, every, period, perceptible, task, window_milli, grace_milli, app);

/// The registration-storm bursts, which pending `StormRegister` events
/// rebuild their alarms from.
impl Section for StormBurst {
    fn put(sim: &Simulation, out: &mut String) {
        put_list(out, "storm_bursts", "sb", sim.storm.iter());
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        sim.storm = p.list("storm_bursts", "sb")?;
        Ok(())
    }
}

/// The overload counters. Time-in-tier and the final tier are derived
/// from the governor at report time, so only counters persist.
impl Section for OverloadStats {
    fn put(sim: &Simulation, out: &mut String) {
        let o = &sim.overload;
        let counters = [
            o.storm_registrations,
            o.admitted,
            o.deferred,
            o.rejected,
            o.shed,
            o.demotions,
            o.tier_changes,
        ];
        put(out, "ov", &counters);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        let [storm_registrations, admitted, deferred, rejected, shed, demotions, tier_changes] =
            p.take("ov")?;
        sim.overload = OverloadStats {
            storm_registrations,
            admitted,
            deferred,
            rejected,
            shed,
            demotions,
            tier_changes,
            ..OverloadStats::default()
        };
        Ok(())
    }
}

names!(TimeSimilarity, "time similarity" { High = "h", Medium = "m", Low = "l" });
names!(CandidateVerdict, "verdict" { Won = "w", Outranked = "o", NotApplicable = "n", PastCutoff = "c" });

/// `n` for a new entry, `e<index>` for an existing one.
impl Field for Placement {
    fn put(&self, w: &mut Put<'_>) {
        match self {
            Placement::NewEntry => _ = w.raw("n"),
            Placement::Existing(i) => _ = write!(w.field(), "e{i}"),
        }
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let raw = r.raw()?;
        match raw.strip_prefix('e').map(str::parse) {
            _ if raw == "n" => Ok(Placement::NewEntry),
            Some(Ok(i)) => Ok(Placement::Existing(i)),
            _ => Err(r.err(format!("invalid placement `{raw}`"))),
        }
    }
}

/// `-` for none, else `;`-separated `index.delivery.time.rank.verdict`
/// candidates, with rank `-` when unranked. The preferability is
/// derived from the ranks, not stored.
impl Field for Vec<CandidateAudit> {
    fn put(&self, w: &mut Put<'_>) {
        if self.is_empty() {
            w.raw("-");
            return;
        }
        let mut list = w.nested(';');
        for c in self {
            let mut f = list.nested('.');
            f.f(&c.index).f(&c.delivery_time).f(&c.time);
            match c.hw_rank {
                Some(rank) => f.f(&rank),
                None => f.raw("-"),
            };
            f.f(&c.verdict);
        }
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        if r.next_is("-") {
            r.raw()?;
            return Ok(Vec::new());
        }
        r.within(';', 0, |list| {
            // Most audits weigh a few candidates. Up to eight wait on the
            // stack, so their list is allocated once, at its exact size,
            // without counting the field first.
            let mut first = [None; 8];
            for n in 1..=first.len() {
                first[n - 1] = Some(list.within('.', 5, take_candidate)?);
                if list.done() {
                    let mut out = Vec::with_capacity(n);
                    out.extend(first.into_iter().flatten());
                    return Ok(out);
                }
            }
            let mut out = Vec::with_capacity(list.count_fields());
            out.extend(first.into_iter().flatten());
            loop {
                out.push(list.within('.', 5, take_candidate)?);
                if list.done() {
                    return Ok(out);
                }
            }
        })
    }
}

/// One candidate's `index.delivery.time.rank.verdict`.
fn take_candidate(f: &mut Cursor<'_, '_>) -> Result<CandidateAudit, CheckpointError> {
    let (index, delivery_time, time) = (f.take()?, f.take()?, f.take()?);
    let hw_rank = match f.next_is("-") {
        true => f.raw().map(|_| None)?,
        false => Some(f.take()?),
    };
    Ok(CandidateAudit {
        index,
        delivery_time,
        time,
        hw_rank,
        preferability: hw_rank.map(|r| Preferability::from_ranks(r, time)),
        verdict: f.take()?,
    })
}

record!(PlacementAudit: at, alarm_id, nominal, perceptible, placement, app, candidates);

/// The observability layer's mutable state. Help text and the span-ring
/// capacity are not captured: `ObsLayer::new` re-creates both
/// identically on restore, and the captured state overwrites the rest.
impl Section for ObsLayer {
    fn put(sim: &Simulation, out: &mut String) {
        let obs = &sim.obs;
        put(out, "obs_next_seq", &obs.spans.next_seq());
        put(out, "obs_span_dropped", &obs.spans.dropped());
        put(out, "obs_spans", &obs.spans.len());
        for s in obs.spans.iter() {
            line(out, "os", |w| {
                w.f(&s.seq).raw(s.kind.as_str()).f(&s.start_ms).f(&s.end_ms);
                w.f(&s.attrs().count());
                for (k, v) in s.attrs() {
                    w.esc(k).esc(&v.render());
                }
                w
            });
        }
        let counters: Vec<_> = obs.metrics.counters().collect();
        put(out, "obs_counters", &counters.len());
        for (name, value) in counters {
            line(out, "oc", |w| w.f(&value).esc(name));
        }
        let gauges: Vec<_> = obs.metrics.gauges().collect();
        put(out, "obs_gauges", &gauges.len());
        for (name, value) in gauges {
            line(out, "og", |w| w.f(&value).esc(name));
        }
        let hists: Vec<_> = obs.metrics.histograms().collect();
        put(out, "obs_hists", &hists.len());
        for (name, h) in hists {
            line(out, "oh", |w| {
                w.esc(name).f(&h.bounds().len());
                h.bounds().iter().for_each(|b| _ = w.f(b));
                h.counts().iter().for_each(|c| _ = w.f(c));
                w.f(&h.sum()).f(&h.count()).f(&h.nonfinite())
            });
        }
        put(out, "obs_audit_dropped", &obs.audit_dropped);
        // A layer that counts records retains no audit; its ring is this
        // count.
        if obs.level.counts_records() {
            put(out, "obs_audits_counted", &obs.audits_counted);
        }
        put_list(out, "obs_audits", "oa", obs.audits.iter());
        put(out, "obs_aliases", &obs.aliases.len());
        for (raw, ordinal) in &obs.aliases {
            line(out, "ol", |w| w.f(raw).f(ordinal));
        }
        put(out, "obs_wake", &obs.wake_open);
    }

    fn take(sim: &mut Simulation, p: &mut Parser<'_>) -> Result<(), CheckpointError> {
        let c = &sim.config;
        let policy = sim.manager.policy_name();
        let mut obs = ObsLayer::new(c.obs, policy, c.audit_capacity, c.span_capacity);
        let next_seq = p.take("obs_next_seq")?;
        let dropped = p.take("obs_span_dropped")?;
        let n = p.count("obs_spans")?;
        if n > c.span_capacity {
            return Err(p.err(format!(
                "{n} spans exceed the ring's capacity {}",
                c.span_capacity
            )));
        }
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            take_span(p, &mut spans)?;
        }
        obs.spans = if c.obs.counts_records() {
            let counted = SpanCollector::counting(c.span_capacity, next_seq);
            if !spans.is_empty() || counted.dropped() != dropped {
                return Err(p.err(format!(
                    "a counts-level span ring of {next_seq} records retains nothing and \
                     drops {}",
                    counted.dropped()
                )));
            }
            counted
        } else {
            SpanCollector::from_parts(c.span_capacity, next_seq, dropped, spans)
        };
        for _ in 0..p.count("obs_counters")? {
            let (value, name) = p.take::<(u64, String)>("oc")?;
            obs.metrics.set_counter(&name, value);
        }
        for _ in 0..p.count("obs_gauges")? {
            let (value, name) = p.take::<(f64, String)>("og")?;
            obs.metrics.set_gauge(&name, value);
        }
        for _ in 0..p.count("obs_hists")? {
            let (name, histogram) = take_histogram(p)?;
            obs.metrics.insert_histogram(&name, histogram);
        }
        obs.audit_dropped = p.take("obs_audit_dropped")?;
        if c.obs.counts_records() {
            obs.audits_counted = p.take("obs_audits_counted")?;
            let dropped = obs.audits_counted.saturating_sub(c.audit_capacity as u64);
            if obs.audit_dropped != dropped {
                return Err(p.err(format!(
                    "a counts-level audit ring of {} records drops {dropped}",
                    obs.audits_counted
                )));
            }
        }
        let n = p.count("obs_audits")?;
        if c.obs.counts_records() && n > 0 {
            return Err(p.err("a counts-level audit ring retains nothing"));
        }
        // An overfull ring would never evict again (it evicts at exactly
        // its capacity), and its drop count would be wrong from then on.
        if n > c.audit_capacity {
            return Err(p.err(format!(
                "{n} audits exceed the ring's capacity {}",
                c.audit_capacity
            )));
        }
        obs.audits.reserve(n);
        for _ in 0..n {
            obs.audits.push_back(p.take("oa")?);
        }
        for _ in 0..p.count("obs_aliases")? {
            let (raw, ordinal) = p.take("ol")?;
            obs.aliases.insert(raw, ordinal);
        }
        obs.wake_open = p.take("obs_wake")?;
        sim.obs = obs;
        Ok(())
    }
}

/// Reads an `os=` line onto `spans`: seq, kind, start, end, the
/// attribute count, then that many key/value pairs, whose keys must be
/// the kind's schema keys in order. The span is built in the push, not
/// moved out through the reader's result.
fn take_span(p: &mut Parser<'_>, spans: &mut Vec<Span>) -> Result<(), CheckpointError> {
    p.read_line("os", |r| {
        let (seq, kind, start_ms, end_ms, nattrs) =
            span_head(r).map_err(|e| match r.count_fields() {
                n if n < 5 => r.err(format!("span needs at least 5 fields, got {n}")),
                _ => e,
            })?;
        // A span's attributes are its kind's schema keys, in order, at
        // most as many as the inline storage holds.
        let keys = kind.attr_keys();
        if nattrs > keys.len() {
            return Err(r.err(format!(
                "{} span carries at most {} attrs, got {nattrs}",
                kind.as_str(),
                keys.len()
            )));
        }
        let keys = &keys[..nattrs];
        let short = |r: &Cursor<'_, '_>| {
            let (want, got) = (5 + 2 * nattrs, r.count_fields());
            r.err(format!(
                "span with {nattrs} attrs expects {want} fields, got {got}"
            ))
        };
        let mut values: [Option<AttrValue>; SPAN_ATTR_CAPACITY] = Default::default();
        for (i, (&key, value)) in keys.iter().zip(&mut values).enumerate() {
            // Keys are plain identifiers, which `esc` leaves as they are.
            let found = r.raw().map_err(|_| short(r))?;
            if !same(found.as_bytes(), key.as_bytes()) {
                return Err(r.err(format!(
                    "{} span attr {i} must be `{key}`, got `{found}`",
                    kind.as_str()
                )));
            }
            *value = Some(attr_value(r).map_err(|_| short(r))?);
        }
        if !r.done() {
            return Err(short(r));
        }
        spans.push(Span::from_values(seq, kind, start_ms, end_ms, values));
        Ok(())
    })
}

/// The five fields an `os=` line leads with.
fn span_head(r: &mut Cursor<'_, '_>) -> Result<(u64, SpanKind, u64, u64, usize), CheckpointError> {
    let seq = r.take()?;
    let kind = r.raw()?;
    let kind = SpanKind::parse(kind).ok_or_else(|| r.err(format!("invalid span kind `{kind}`")))?;
    Ok((seq, kind, r.take()?, r.take()?, r.take()?))
}

/// Reads an `oh=` line: name, bound count, the bounds, one count per
/// bucket plus the overflow bucket, sum, count, and an optional
/// trailing non-finite quarantine count (absent in pre-quantile
/// checkpoints).
fn take_histogram(p: &mut Parser<'_>) -> Result<(String, Histogram), CheckpointError> {
    p.read_line("oh", |r| {
        let name: String = r.take()?;
        let nb = r.count()?;
        let mut bounds = Vec::with_capacity(nb);
        for _ in 0..nb {
            bounds.push(r.take()?);
        }
        Histogram::check_bounds(&bounds).map_err(|why| r.err(format!("`{name}`: {why}")))?;
        let mut counts = Vec::with_capacity(nb + 1);
        for _ in 0..=nb {
            counts.push(r.take()?);
        }
        let (sum, count) = (r.take()?, r.take()?);
        let nonfinite = if r.done() { 0 } else { r.take()? };
        if !r.done() {
            let want = 2 + nb + (nb + 1) + 2;
            return Err(r.err(format!(
                "histogram with {nb} bounds expects {want} or {} fields, got {}",
                want + 1,
                r.count_fields()
            )));
        }
        let histogram = Histogram::from_parts(bounds, counts, sum, count).with_nonfinite(nonfinite);
        Ok((name, histogram))
    })
}

/// A restored span value in the form a live run holds it: a canonical
/// decimal (digits only, no sign, no leading zero unless it is `0`,
/// within `u64`) as [`AttrValue::U64`], anything else as a shared label.
/// Either renders as the field's exact unescaped text, so exports and
/// recaptures are byte-identical to the run that was captured.
fn attr_value(r: &mut Cursor<'_, '_>) -> Result<AttrValue, CheckpointError> {
    Ok(match r.decimal_or_raw()? {
        Ok(v) => AttrValue::U64(v),
        Err(raw) => AttrValue::Shared(r.parser().label(raw)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::esc;
    use proptest::prelude::*;
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

    /// `c` sealed as an earlier build wrote it: `simty-checkpoint/v1`,
    /// the body's [`fnv1a64`].
    fn sealed_v1(c: &Checkpoint) -> Vec<u8> {
        let body = c.body.as_bytes();
        let mut bytes = format!(
            "{MAGIC_V1}\nlen={}\nsum={:016x}\n",
            body.len(),
            fnv1a64(body)
        )
        .into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn a_v1_envelope_still_loads() {
        let c = sample();
        assert!(c.to_bytes().starts_with(b"simty-checkpoint/v2\n"));
        assert_eq!(Checkpoint::from_bytes(&sealed_v1(&c)).unwrap(), c);
        // The magic line picks the checksum: a v1 body sealed with the v2
        // sum, or the reverse, does not validate.
        let text = String::from_utf8(c.to_bytes()).unwrap();
        let crossed = text.replace(MAGIC, MAGIC_V1);
        assert!(matches!(
            Checkpoint::from_bytes(crossed.as_bytes()),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let text = String::from_utf8(sealed_v1(&c)).unwrap();
        let crossed = text.replace(MAGIC_V1, MAGIC);
        assert!(matches!(
            Checkpoint::from_bytes(crossed.as_bytes()),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under both envelopes, every single-bit flip of a body fails
        /// its checksum (or, where it breaks UTF-8, which is checked
        /// first, is malformed), and every truncation or extension of it
        /// fails its length. Bodies cross the checksum's 32-byte block
        /// boundary and its tail.
        #[test]
        fn every_flip_truncation_and_extension_of_a_body_fails(
            raw in prop::collection::vec(any::<u8>(), 0..200),
            extra in prop::collection::vec(any::<u8>(), 1..40),
        ) {
            let ascii = |bytes: &[u8]| -> String {
                bytes.iter().map(|&b| char::from(b & 0x7f)).collect()
            };
            let c = Checkpoint {
                captured_at: SimTime::ZERO,
                policy: String::new(),
                body: ascii(&raw),
            };
            for bytes in [c.to_bytes(), sealed_v1(&c)] {
                let header = bytes.len() - raw.len();
                for bit in 0..raw.len() * 8 {
                    let mut flipped = bytes.clone();
                    flipped[header + bit / 8] ^= 1 << (bit % 8);
                    let broke_utf8 = std::str::from_utf8(&flipped).is_err();
                    match Checkpoint::from_bytes(&flipped) {
                        Err(CheckpointError::ChecksumMismatch { .. }) if !broke_utf8 => {}
                        Err(CheckpointError::Malformed { line: 0, .. }) if broke_utf8 => {}
                        other => prop_assert!(false, "flip of bit {bit}: {other:?}"),
                    }
                }
                for len in 0..raw.len() {
                    let result = Checkpoint::from_bytes(&bytes[..header + len]);
                    prop_assert!(
                        matches!(result, Err(CheckpointError::Truncated { .. })),
                        "cut to {len} bytes: {result:?}"
                    );
                }
                for n in 1..=extra.len() {
                    let mut longer = bytes.clone();
                    longer.extend_from_slice(ascii(&extra[..n]).as_bytes());
                    let result = Checkpoint::from_bytes(&longer);
                    prop_assert!(
                        matches!(result, Err(CheckpointError::Truncated { .. })),
                        "extended by {n} bytes: {result:?}"
                    );
                }
            }
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
        let skewed = text.replace(MAGIC, "simty-checkpoint/v9");
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
        for s in [
            "plain",
            "with,comma",
            "col:on",
            "pct%25",
            "nl\nline",
            "%,:%",
        ] {
            assert_eq!(unesc(&esc(s)), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn f64_hex_is_exact() {
        for v in [0.0, -0.0, 1.5, 1.0 / 3.0, f64::MAX, 1e-300] {
            let mut body = String::new();
            put(&mut body, "v", &v);
            assert_eq!(body, format!("v={:016x}\n", v.to_bits()));
            let mut p = Parser::new(&body);
            assert_eq!(p.take::<f64>("v").unwrap().to_bits(), v.to_bits());
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

    /// A store written across the format change: an earlier build's v1
    /// snapshot, then this build's v2 one.
    #[test]
    fn store_falls_back_from_v2_to_an_earlier_builds_v1() {
        let dir = std::env::temp_dir().join(format!(
            "simty-ckpt-v1-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let older = sample();
        let p0 = store.save(&older).unwrap();
        fs::write(&p0, sealed_v1(&older)).unwrap();
        let newer = Checkpoint {
            captured_at: SimTime::from_secs(120),
            body: "at=120000\npolicy=SIMTY\nrest=payload\n".to_owned(),
            ..sample()
        };
        let p1 = store.save(&newer).unwrap();
        assert!(fs::read(&p1).unwrap().starts_with(MAGIC.as_bytes()));

        let (loaded, skipped) = store.load_latest_good().unwrap();
        assert_eq!((loaded, skipped), (newer, 0));

        let mut bytes = fs::read(&p1).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&p1, bytes).unwrap();
        let (loaded, skipped) = store.load_latest_good().unwrap();
        assert_eq!((loaded, skipped), (older, 1));
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
        assert!(
            message.contains("exceed the ring's capacity 1"),
            "{message}"
        );

        // More audits than the restored ring holds.
        let mut crowded = intact.clone();
        crowded.body = crowded
            .body
            .replacen("\naudit_capacity=4096\n", "\naudit_capacity=1\n", 1);
        let message = restore_error(&crowded);
        assert!(
            message.contains("audits exceed the ring's capacity 1"),
            "{message}"
        );
    }

    #[test]
    fn span_values_restore_typed_only_when_they_render_the_same() {
        let mut p = Parser::new("");
        let mut attr_value = |raw| attr_value(&mut p.cut(raw, ',', 1).unwrap()).unwrap();
        for (raw, want) in [("0", 0), ("42", 42), ("18446744073709551615", u64::MAX)] {
            assert!(
                matches!(attr_value(raw), AttrValue::U64(v) if v == want),
                "{raw}"
            );
        }
        for (raw, rendered) in [
            ("007", "007"),
            ("00", "00"),
            ("+5", "+5"),
            ("-1", "-1"),
            ("18446744073709551616", "18446744073709551616"),
            ("", ""),
            ("existing%3A3", "existing:3"),
            ("new_entry", "new_entry"),
        ] {
            let value = attr_value(raw);
            assert!(matches!(value, AttrValue::Shared(_)), "{raw}");
            assert_eq!(value.render(), rendered);
        }
    }

    /// Every tagged encoding of the body, pinned to the text the format
    /// has always written: each value is planted in a simulation, then
    /// captured (encode → the string) and restored (decode → the value).
    #[test]
    fn every_tagged_encoding_is_pinned() {
        use crate::degrade::GovernorConfig;
        use simty_core::audit::{CandidateAudit, CandidateVerdict as V, PlacementAudit};
        use simty_core::policy::{Placement, SimtyPolicy};
        use simty_core::similarity::{Preferability, TimeSimilarity as T};
        use simty_device::device::DevicePowerState as S;
        use InterventionKind as I;
        use InvariantViolation as M;
        let (t, d) = (SimTime::from_millis, SimDuration::from_millis);
        let events = [
            (EventKind::RtcAlarm, "rtc"),
            (EventKind::WakeComplete, "wake"),
            (EventKind::TaskEnd, "taskend"),
            (EventKind::TrySleep, "trysleep"),
            (EventKind::NonWakeupCheck, "nonwakeup"),
            (EventKind::ExternalWake, "extwake"),
            (
                EventKind::Reregister {
                    id: AlarmId::from_raw(7),
                },
                "rereg:7",
            ),
            (EventKind::WatchdogCheck, "watchdog"),
            (EventKind::ActivationRetry { slot: 3 }, "actretry:3"),
            (
                EventKind::AppCrash {
                    app: "a:b,c".into(),
                    restart_after: d(1500),
                },
                "crash:1500:a%3Ab%2Cc",
            ),
            (
                EventKind::AppRestart { app: "x%".into() },
                "apprestart:x%25",
            ),
            (EventKind::Reboot { outage: d(60_000) }, "reboot:60000"),
            (EventKind::BootComplete, "boot"),
            (EventKind::Checkpoint, "checkpoint"),
            (EventKind::GovernorTick, "govtick"),
            (EventKind::StormRegister { burst: 2, k: 9 }, "storm:2:9"),
        ];
        let interventions = [
            (I::ForcedRelease { held: d(1200) }, "forced:1200"),
            (I::ActivationRetry { attempt: 2 }, "actretry:2"),
            (I::DroppedFireRetry { delay: d(30) }, "dropped:30"),
            (I::Quarantine, "quarantine"),
            (
                I::Recovery {
                    quarantined_for: d(9000),
                },
                "recovery:9000",
            ),
            (I::AppCrash { cancelled: 4 }, "crash:4"),
            (I::AppRestart { reregistered: 5 }, "restart:5"),
            (I::Reboot { outage: d(2000) }, "reboot:2000"),
            (
                I::BootCatchUp {
                    caught_up: 3,
                    worst_delay: d(700),
                },
                "catchup:3:700",
            ),
        ];
        let violations = [
            (
                M::PerceptibleWindowMiss {
                    label: "m,a:p".into(),
                    delivered_at: t(5),
                    window_end: t(4),
                    allowed_slack: d(1),
                },
                "miss:5:4:1:m%2Ca%3Ap",
            ),
            (
                M::QueueOrderBroken {
                    earlier: t(9),
                    later: t(8),
                },
                "order:9:8",
            ),
            (
                M::EnergyNotConserved {
                    ledger_mj: 1.5,
                    meter_mj: -0.0,
                },
                "energy:3ff8000000000000:8000000000000000",
            ),
            (
                M::WaveformMismatch {
                    trace_mj: 2.0,
                    meter_mj: 0.25,
                },
                "waveform:4000000000000000:3fd0000000000000",
            ),
        ];
        let states = [
            (S::Asleep, "asleep"),
            (S::Waking { until: t(1234) }, "waking:1234"),
            (S::Awake, "awake"),
        ];
        let tiers = [
            (DegradationTier::Normal, "normal"),
            (DegradationTier::Saver, "saver"),
            (DegradationTier::Critical, "critical"),
        ];
        let placements = [(Placement::Existing(3), "e3"), (Placement::NewEntry, "n")];
        // One candidate per verdict, cycling through the time
        // similarities, ranked and unranked.
        let candidates = [
            (T::High, Some(1), V::Won),
            (T::Medium, None, V::Outranked),
            (T::Low, Some(0), V::NotApplicable),
            (T::High, None, V::PastCutoff),
        ];
        let candidate_text = "0.10.h.1.w;1.20.m.-.o;2.30.l.0.n;3.40.h.-.c";
        let candidates: Vec<CandidateAudit> = candidates
            .iter()
            .enumerate()
            .map(|(i, &(time, hw_rank, verdict))| CandidateAudit {
                index: i,
                delivery_time: t(10 * (i as u64 + 1)),
                time,
                hw_rank,
                preferability: hw_rank.map(|r| Preferability::from_ranks(r, time)),
                verdict,
            })
            .collect();

        // The value field `at` of every `key=` line, split at commas.
        fn values<'b>(body: &'b str, key: &str, n: usize, at: usize) -> Vec<&'b str> {
            let prefix = format!("{key}=");
            body.lines()
                .filter_map(|l| l.strip_prefix(prefix.as_str()))
                .map(|v| v.splitn(n, ',').nth(at).unwrap())
                .collect()
        }
        for (i, ((state, state_text), (tier, tier_text))) in states.iter().zip(&tiers).enumerate() {
            let mut sim = Simulation::new(
                Box::new(SimtyPolicy::new()),
                SimConfig::new().with_degradation(GovernorConfig::default()),
            );
            let planted: Vec<Event> = events
                .iter()
                .enumerate()
                .map(|(seq, (kind, _))| Event {
                    time: t(1000),
                    seq: seq as u64,
                    kind: kind.clone(),
                })
                .collect();
            sim.events = EventQueue::restore(planted, 100);
            for (kind, _) in &interventions {
                sim.trace.record_intervention(InterventionRecord {
                    at: t(1),
                    app: "app".into(),
                    overhead_mj: 0.0,
                    kind: kind.clone(),
                });
            }
            let mut monitor = InvariantMonitor::new(d(0), false);
            monitor.violations = violations.iter().map(|(v, _)| v.clone()).collect();
            sim.monitor = Some(monitor);
            let mut dev = sim.device.snapshot();
            dev.state = *state;
            sim.device = Device::restore(sim.config.power.clone(), dev);
            sim.governor = Some(DegradationGovernor::restore(
                GovernorConfig::default(),
                *tier,
                t(0),
                d(0),
                d(0),
            ));
            for (k, (placement, _)) in placements.iter().enumerate() {
                sim.obs.audits.push_back(PlacementAudit {
                    at: t(1),
                    alarm_id: AlarmId::from_raw(1),
                    app: "app".into(),
                    nominal: t(2),
                    perceptible: true,
                    placement: *placement,
                    candidates: if k == 0 {
                        candidates.clone()
                    } else {
                        Vec::new()
                    },
                });
            }

            let ckpt = sim.checkpoint();
            let body = &ckpt.body;
            let want: Vec<&str> = events.iter().map(|(_, s)| *s).collect();
            assert_eq!(values(body, "ev", 3, 2), want);
            let want: Vec<&str> = interventions.iter().map(|(_, s)| *s).collect();
            assert_eq!(values(body, "iv", 4, 3), want);
            let want: Vec<&str> = violations.iter().map(|(_, s)| *s).collect();
            assert_eq!(values(body, "mv", 1, 0), want);
            assert_eq!(values(body, "dev_state", 1, 0), [*state_text]);
            assert_eq!(values(body, "gov", 4, 0), [*tier_text]);
            let want: Vec<&str> = placements.iter().map(|(_, s)| *s).collect();
            assert_eq!(values(body, "oa", 7, 4), want);
            assert_eq!(values(body, "oa", 7, 6), [candidate_text, "-"]);

            let back = restore(Box::new(SimtyPolicy::new()), &ckpt).unwrap();
            let kinds: Vec<EventKind> = back
                .events
                .snapshot()
                .0
                .into_iter()
                .map(|e| e.kind)
                .collect();
            assert_eq!(
                kinds,
                events.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
            );
            let kinds: Vec<&InterventionKind> =
                back.trace.interventions.iter().map(|r| &r.kind).collect();
            assert_eq!(
                kinds,
                interventions.iter().map(|(k, _)| k).collect::<Vec<_>>()
            );
            let monitor = back.monitor.as_ref().unwrap();
            assert_eq!(
                monitor.violations,
                violations
                    .iter()
                    .map(|(v, _)| v.clone())
                    .collect::<Vec<_>>()
            );
            assert_eq!(back.device.snapshot().state, *state, "state {i}");
            assert_eq!(back.governor.as_ref().unwrap().tier, *tier, "tier {i}");
            let audits: Vec<&PlacementAudit> = back.obs.audits.iter().collect();
            assert_eq!(audits, sim.obs.audits.iter().collect::<Vec<_>>());
        }
    }
}
