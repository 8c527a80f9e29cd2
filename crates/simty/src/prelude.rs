//! Convenience re-exports for applications.
//!
//! ```
//! use simty::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = WorkloadBuilder::light().build();
//! let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), SimConfig::new());
//! for alarm in workload.alarms {
//!     sim.register(alarm)?;
//! }
//! # Ok(())
//! # }
//! ```

pub use simty_apps::{
    AppSpec, ExternalEvents, PushPlan, RepeatKind, SystemAlarms, UserSessions, Workload,
    WorkloadBuilder,
};
pub use simty_core::{
    Alarm, AlarmId, AlarmKind, AlarmManager, AlignmentPolicy, DeliveryDiscipline, DozePolicy,
    DurationSimilarityPolicy, ExactPolicy, FixedIntervalPolicy, HardwareComponent,
    HardwareGranularity, HardwareSet, HardwareSimilarity, Interval, NativePolicy, Placement,
    Preferability, QueueEntry, Repeat, SimDuration, SimTime, SimtyPolicy, TimeSimilarity,
};
pub use simty_device::{Battery, Device, DevicePowerState, EnergyBreakdown, PowerModel};
pub use simty_sim::{
    AttributionLedger, Checkpoint, CheckpointError, CheckpointStore, DelayStats, DeliveryRecord,
    FaultPlan, InterventionKind, InterventionRecord, InvariantMode, InvariantMonitor,
    InvariantViolation, OnlineWatchdogConfig, RebootPlan, ResilienceStats, SimConfig, SimError,
    SimReport, Simulation, Trace, WakeupRow,
};
