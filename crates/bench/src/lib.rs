//! # simty-bench — experiment harness
//!
//! Binaries regenerating every table and figure of the paper's
//! evaluation, plus criterion micro-benchmarks of the alignment policies
//! and the simulation engine:
//!
//! * `cargo run --release -p simty-bench --bin fig2` — the motivating
//!   example energies (Fig. 2);
//! * `... --bin fig3` — energy under NATIVE vs SIMTY (Fig. 3);
//! * `... --bin fig4` — normalized delivery delay (Fig. 4);
//! * `... --bin table4` — the wakeup breakdown (Table 4);
//! * `... --bin ablation` — β sweep, hardware-similarity granularity,
//!   the DURSIM extension, and NATIVE realignment on/off;
//! * `cargo bench -p simty-bench` — policy/engine micro-benchmarks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod chaos;
pub mod diff;
pub mod fleet;
pub mod journal;
pub mod soak;
pub mod storm;
pub mod supervisor;
pub mod sweep;

pub use campaign::{
    matrix, run_campaign, Campaign, CampaignResults, CampaignSpec, Drill, Profile,
};
pub use chaos::{Chaos, ChaosResults, ChaosSpec, FaultProfile, PolicyResilience};
pub use fleet::{
    run_fleet, run_fleet_with, FleetConfig, FleetResults, PolicyAggregate, ShardSpec, FLEET_SCHEMA,
};
pub use diff::{diff_documents, DiffReport, DiffThresholds, JsonValue, Regression};
pub use journal::{CampaignJournal, JournalEntry, JournalError};
pub use supervisor::{CellStatus, HarnessStats, SupervisorConfig};
pub use soak::{PolicyEndurance, Soak, SoakProfile, SoakRecovery, SoakResults, SoakSpec};
pub use storm::{PolicyOverload, Storm, StormProfile, StormRecovery, StormResults, StormSpec};
pub use simty::experiments::{
    motivating_example, motivating_example_report, paper_runs, paper_specs, Averages, PolicyKind,
    RunSpec, Scenario,
};
pub use sweep::{CampaignOptions, JobResult, Outcome, RunHandle, Sweep, SweepResults};

/// Renders one "paper vs measured" line for the experiment binaries.
pub fn paper_vs_measured(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    format!("{label:<42} paper {paper:>10.1} {unit:<4} measured {measured:>10.1} {unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_comparison_lines() {
        let s = paper_vs_measured("CPU wakeups (light)", 733.0, 700.0, "");
        assert!(s.contains("733"));
        assert!(s.contains("700"));
    }
}
