//! # simty-sim — deterministic connected-standby simulation
//!
//! The discrete-event engine that stands in for the paper's physical
//! testbed (a 3-hour connected-standby session on an LG Nexus 5 measured
//! with a Monsoon power monitor). A [`Simulation`]
//! drives an `AlarmManager` and a `Device` through wakeups, deliveries,
//! wakelocked tasks, and sleep transitions, producing a
//! [`Trace`] and a [`SimReport`] with
//! every metric the paper's evaluation section reports.
//!
//! # Examples
//!
//! ```
//! use simty_core::alarm::Alarm;
//! use simty_core::policy::{NativePolicy, SimtyPolicy};
//! use simty_core::time::{SimDuration, SimTime};
//! use simty_sim::config::SimConfig;
//! use simty_sim::engine::Simulation;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SimConfig::new().with_duration(SimDuration::from_mins(30));
//! let mut sim = Simulation::new(Box::new(NativePolicy::new()), config);
//! sim.register(
//!     Alarm::builder("Facebook")
//!         .nominal(SimTime::from_secs(60))
//!         .repeating_dynamic(SimDuration::from_secs(60))
//!         .task_duration(SimDuration::from_secs(2))
//!         .build()?,
//! )?;
//! let report = sim.run();
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod attribution;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod degrade;
pub mod diff;
pub mod error;
pub mod estimate;
pub mod engine;
pub mod event;
pub mod fault;
pub mod invariant;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod overload;
pub mod report;
pub mod trace;
pub mod vfs;
pub mod watchdog;

pub use attribution::AttributionLedger;
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointStore};
pub use config::{InvariantMode, SimConfig};
pub use degrade::{DegradationGovernor, DegradationTier, GovernorConfig};
pub use engine::Simulation;
pub use error::SimError;
pub use fault::{FaultPlan, RebootPlan};
pub use invariant::{InvariantMonitor, InvariantViolation};
pub use metrics::{DelayStats, OverloadStats, ResilienceStats, SimReport, WakeupRow};
pub use overload::{RegistrationStormPlan, StormBurst};
pub use obs::{ObsLayer, ObsLevel};
pub use trace::{DeliveryRecord, InterventionKind, InterventionRecord, Trace};
pub use vfs::{FaultKind, FaultVfs, RealVfs, RecordingVfs, Vfs};
pub use watchdog::OnlineWatchdogConfig;
