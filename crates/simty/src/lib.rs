//! # simty — similarity-based wakeup management (DAC 2016), reproduced
//!
//! A full Rust reproduction of *"Similarity-Based Wakeup Management for
//! Mobile Systems in Connected Standby"* (Kao, Cheng, Hsiu — DAC 2016):
//! the SIMTY alarm-alignment policy, Android's native policy, a
//! power-calibrated device simulator standing in for the paper's
//! LG Nexus 5 testbed, the 18-app workload of Table 3, and an experiment
//! harness regenerating every figure and table of the evaluation.
//!
//! This crate is the facade: it re-exports the component crates
//! ([`simty_core`], [`simty_device`], [`simty_sim`], [`simty_apps`]) and
//! hosts the shared [`experiments`] harness and the [`paper`]'s results as
//! data: every headline number with the band it must stay in, checked by
//! `standby repro`.
//!
//! # Quick start
//!
//! ```
//! use simty::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the paper's light workload and run it for ten minutes under
//! // both policies.
//! for policy in [
//!     Box::new(NativePolicy::new()) as Box<dyn AlignmentPolicy>,
//!     Box::new(SimtyPolicy::new()),
//! ] {
//!     let workload = WorkloadBuilder::light().with_seed(1).build();
//!     let config = SimConfig::new().with_duration(SimDuration::from_mins(10));
//!     let mut sim = Simulation::new(policy, config);
//!     for alarm in workload.alarms {
//!         sim.register(alarm)?;
//!     }
//!     let report = sim.run();
//!     assert!(report.cpu_wakeups > 0);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod paper;
pub mod prelude;

pub use simty_apps as apps;
pub use simty_core as core;
pub use simty_device as device;
pub use simty_obs as obs;
pub use simty_sim as sim;
