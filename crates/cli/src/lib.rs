//! # simty-cli — the `standby` command-line explorer
//!
//! A CLI over the `simty` reproduction. `standby --help` is the full
//! reference; it is derived from the same command table the parser uses.
//! The commands fall into five groups:
//!
//! - single runs: `run` one scenario under one policy, `compare` every
//!   policy side by side, `diff` two policies app by app, `sweep-beta`
//!   over the grace fraction, `estimate` the closed-form energy envelope,
//!   `explain` each placement decision, print a run's `metrics`, export
//!   a Chrome `trace`, `analyze` a delivery-trace CSV, and print the
//!   Table 3 `catalog`;
//! - supervised, resumable campaigns: the `sweep` grid, the `chaos`,
//!   `soak` and `storm` guarantee campaigns, and the sharded `fleet`;
//! - the scheduler as a service: `serve`, and `serve-load` to drill it;
//! - the paper: `repro` checks every figure and table against its band;
//! - the perf gate: `bench diff` between two campaign documents.
//!
//! Every command's flags, defaults and help line are declared once, in
//! one table in `args.rs`. The library exposes [`run_cli`] so the
//! commands can be tested without spawning a process.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod args;
mod campaign_cmd;
pub mod commands;
mod serve_cmd;

pub use args::ParseArgsError;
pub use commands::{run_cli, CliError};
