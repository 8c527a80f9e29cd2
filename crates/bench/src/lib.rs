//! # simty-bench — experiment harness
//!
//! The campaign kernel and the five supervised, resumable campaigns it
//! runs (sweep, chaos, soak, storm, fleet) behind `standby`, and criterion
//! micro-benchmarks of the alignment policies and the engine
//! (`cargo bench -p simty-bench`). The paper's figures and tables, and
//! its ablation and calibration-sensitivity studies, are `standby repro`
//! (see [`simty::paper`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod chaos;
pub mod diff;
pub mod fleet;
pub mod journal;
mod json;
pub mod schema;
pub mod soak;
pub mod storm;
pub mod supervisor;
pub mod sweep;

pub use campaign::{
    matrix, run_campaign, Campaign, CampaignOptions, CampaignResults, CampaignSpec, Cell, Drill,
    Outcome, Profile,
};
pub use chaos::{Chaos, ChaosResults, ChaosSpec, FaultProfile, PolicyResilience};
pub use diff::{diff_documents, DiffReport, JsonValue, Regression};
pub use fleet::{
    Fleet, FleetConfig, PolicyAggregate, PowerHistogram, ShardDrill, ShardSpec, FLEET_SCHEMA,
};
pub use journal::{CampaignJournal, JournalEntry, JournalError};
pub use schema::deterministic_view;
pub use simty::experiments::{
    motivating_example_report, paper_specs, Averages, PolicyKind, RunSpec, Scenario,
};
pub use soak::{PolicyEndurance, Soak, SoakProfile, SoakRecovery, SoakResults, SoakSpec};
pub use storm::{PolicyOverload, Storm, StormProfile, StormRecovery, StormResults, StormSpec};
pub use supervisor::{CellStatus, HarnessStats, SupervisorConfig};
pub use sweep::Grid;
