//! # simty-core — similarity-based wakeup management
//!
//! A from-scratch implementation of the alarm-management layer described
//! in *"Similarity-Based Wakeup Management for Mobile Systems in
//! Connected Standby"* (Kao, Cheng, Hsiu — DAC 2016).
//!
//! Resident mobile apps register **alarms** that periodically awaken a
//! device in connected standby. The [`AlarmManager`]
//! batches alarms into [`QueueEntry`] groups that are
//! delivered together, governed by a pluggable
//! [`AlignmentPolicy`]:
//!
//! * [`NativePolicy`] — Android ≥ 4.4's
//!   window-overlap batching;
//! * [`SimtyPolicy`] — the paper's contribution:
//!   align by [hardware similarity](similarity::HardwareSimilarity)
//!   (degree of energy savings) and [time similarity](similarity::TimeSimilarity)
//!   (impact on user experience), postponing *imperceptible* alarms into
//!   their grace intervals;
//! * [`ExactPolicy`] — no alignment (baseline);
//! * [`DurationSimilarityPolicy`] — the
//!   §5 duration-similarity extension.
//!
//! # Quick start
//!
//! ```
//! use simty_core::alarm::Alarm;
//! use simty_core::hardware::HardwareComponent;
//! use simty_core::manager::AlarmManager;
//! use simty_core::policy::SimtyPolicy;
//! use simty_core::time::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut manager = AlarmManager::new(Box::new(SimtyPolicy::new()));
//!
//! // Line syncs over Wi-Fi every 200 s with Android's default α = 0.75;
//! // the grace interval β = 0.96 is the paper's experimental setting.
//! manager.register(
//!     Alarm::builder("Line")
//!         .nominal(SimTime::from_secs(200))
//!         .repeating_dynamic(SimDuration::from_secs(200))
//!         .window_fraction(0.75)
//!         .grace_fraction(0.96)
//!         .hardware(HardwareComponent::Wifi.into())
//!         .task_duration(SimDuration::from_secs(3))
//!         .build()?,
//! )?;
//!
//! // The real-time clock would fire here:
//! let t = manager.next_wakeup_time().expect("an alarm is queued");
//! let mut due = Vec::new();
//! manager.pop_due_into(t, &mut due);
//! for entry in due {
//!     for alarm in entry.into_alarms() {
//!         manager.complete_delivery(alarm, t); // reinserts repeating alarms
//!     }
//! }
//! assert_eq!(manager.alarm_count(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! The companion crates build the rest of the paper's evaluation stack:
//! `simty-device` (power model), `simty-sim` (discrete-event simulator),
//! `simty-apps` (the 18-app workload of Table 3), and `simty-bench`
//! (the experiment harness regenerating every figure and table).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod alarm;
pub mod audit;
pub mod bounds;
pub mod entry;
pub mod error;
pub mod hardware;
pub mod manager;
pub mod policy;
pub mod queue;
pub mod similarity;
pub mod time;

pub use admission::{
    Admission, AdmissionConfig, AdmissionController, AdmissionDecision, AppAdmission, AppClass,
    ClassQuota, TokenBucket,
};
pub use alarm::{Alarm, AlarmBuilder, AlarmId, AlarmKind, Repeat, GRACE_STRETCH_UNIT};
pub use audit::{AuditLevel, CandidateAudit, CandidateVerdict, PlacementAudit, PlacementTally};
pub use entry::{DeliveryDiscipline, QueueEntry};
pub use hardware::{HardwareComponent, HardwareSet};
pub use manager::AlarmManager;
pub use policy::{
    AlignmentPolicy, DozePolicy, DurationSimilarityPolicy, ExactPolicy, FixedIntervalPolicy,
    NativePolicy, Placement, SimtyPolicy,
};
pub use similarity::{HardwareGranularity, HardwareSimilarity, Preferability, TimeSimilarity};
pub use time::{Interval, SimDuration, SimTime};
