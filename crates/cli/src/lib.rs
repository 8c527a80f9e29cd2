//! # simty-cli — the `standby` command-line explorer
//!
//! A small CLI over the `simty` reproduction: run a scenario under any
//! policy, compare all policies side by side, sweep the grace fraction β,
//! and inspect the Table 3 catalogue. See `standby --help`.
//!
//! The library side exposes the command implementations so they can be
//! unit-tested without spawning a process.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod args;
mod campaign_cmd;
pub mod commands;
pub mod serve_cmd;

pub use args::{ParseArgsError, ParsedArgs};
pub use commands::{run_cli, CliError};
