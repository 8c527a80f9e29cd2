//! The `standby serve` and `standby serve-load` subcommands: the
//! standby scheduler as a long-running service, and the seeded
//! open-loop load generator that drills it.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use simty_serve::load::{self, LoadSpec};
use simty_serve::server::{spawn, ServeConfig};
use simty_serve::signal;
use simty_serve::transport::FaultPlan;

use crate::args::ParsedArgs;
use crate::commands::CliError;

/// The fault drill named by the flag `flag`.
fn parse_fault(args: &ParsedArgs, flag: &str) -> Result<FaultPlan, CliError> {
    let name = args.value(flag);
    FaultPlan::named(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown fault profile `{name}` (expected one of {})",
            FaultPlan::PROFILES.join("|")
        ))
    })
}

/// The server flags shared by `serve` and `serve-load`'s in-process
/// server, with the fault drill named by `fault` and seeded by `seed`.
fn server_config(args: &ParsedArgs, fault: &str, seed: &str) -> Result<ServeConfig, CliError> {
    Ok(ServeConfig {
        workers: args.u64("workers")? as usize,
        queue_depth: args.u64("queue-depth")? as usize,
        policy: args.value("policy").to_owned(),
        state_dir: args.get("state-dir").map(PathBuf::from),
        fault: parse_fault(args, fault)?,
        seed: args.u64(seed)?,
        ..ServeConfig::default()
    })
}

/// `standby serve`: run the scheduler service until SIGTERM/ctrl-c (or
/// `--drain-after-ms` for scripted runs), then drain gracefully and
/// print the drain report; a drain checkpoint that cannot be saved exits 8
/// after the report.
pub(crate) fn cmd_serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let deadline = Duration::from_millis(args.u64("deadline-ms")?);
    let server = server_config(args, "fault", "seed")?;
    let config = ServeConfig {
        addr: args.value("addr").to_owned(),
        deadline,
        max_run_minutes: args.u64("max-run-minutes")?,
        ..server
    };
    let drain_after = args.u64("drain-after-ms")?;

    signal::install_handlers();
    let handle = spawn(config).map_err(|e| CliError::Serve(e.to_string()))?;
    writeln!(out, "listening on {}", handle.addr())?;
    out.flush()?;

    let started = std::time::Instant::now();
    while !handle.is_draining() {
        if drain_after > 0 && started.elapsed() >= Duration::from_millis(drain_after) {
            handle.shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let drain = handle.join();
    writeln!(out, "{}", drain.to_json())?;
    if drain.invariant_violations > 0 {
        return Err(CliError::Invariants(drain.invariant_violations));
    }
    if let Some(e) = drain.checkpoint_error {
        return Err(CliError::Serve(format!("drain checkpoint: {e}")));
    }
    Ok(())
}

/// `standby serve-load`: fire seeded open-loop load. With `--addr` the
/// target is an already-running server; without it the harness spawns a
/// server in-process, drains it afterwards, and folds the server's
/// drain report into the emitted `simty-serve/v1` document.
pub(crate) fn cmd_serve_load(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let profile = args.value("fault");
    let spec = LoadSpec {
        addr: args.value("addr").to_owned(),
        fault: parse_fault(args, "fault")?,
        connections: args.u64("connections")?,
        concurrency: args.u64("concurrency")? as usize,
        tenants: args.u64("tenants")? as usize,
        seed: args.u64("seed")?,
        deadline: Duration::from_millis(args.u64("deadline-ms")?),
    };

    let (document, violations) = if spec.addr.is_empty() {
        // Self-hosted: spawn, load, drain, merge the server's view.
        let server = server_config(args, "server-fault", "server-seed")?;
        let (_report, drain, json) = load::drive(server, spec, profile).map_err(CliError::Serve)?;
        (json, drain.invariant_violations)
    } else {
        let report = load::run(&spec);
        (report.to_json(&spec, profile, None), 0)
    };

    match args.get("json") {
        Some(path) => {
            std::fs::write(path, &document)?;
            writeln!(out, "wrote {path}")?;
        }
        None => write!(out, "{document}")?,
    }
    if violations > 0 {
        return Err(CliError::Invariants(violations));
    }
    Ok(())
}
