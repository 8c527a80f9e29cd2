//! The five campaign subcommands — `sweep`, `chaos`, `soak`, `storm` and
//! `fleet` — on the campaign kernel: one grid-flag parser, one runner
//! (with `--inject-panic` and `--progress`/`--events` where the command
//! declares them) and one report, with each campaign supplying only its
//! table columns and its summary line.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Duration;

use simty::experiments::{PolicyKind, Scenario};
use simty::prelude::*;
use simty::sim::report::TextTable;
use simty_bench::{
    run_campaign, Campaign, CampaignOptions, CampaignResults, CampaignSpec, Chaos, Fleet, Grid,
    HarnessStats, Outcome, PolicyAggregate, PolicyEndurance, PolicyOverload, PolicyResilience,
    Profile, RunSpec, ShardDrill, Soak, SoakRecovery, Storm, StormRecovery,
};

use crate::args::{ParseArgsError, ParsedArgs};
use crate::commands::{duration, parse_paper_scenarios, parse_policies, threads, CliError};

/// A per-cell table column: its header and how a completed cell fills it.
type CellColumn<D> = (&'static str, fn(&SimReport, &D) -> String);

/// A per-policy table column: its header and how an aggregate fills it.
type PolicyColumn<A> = (&'static str, fn(&A) -> String);

/// A cell table: `first`, `status`, `columns`, and with `walls` each
/// cell's wall clock (shown for a quarantined cell too), one row per
/// cell outcome. A quarantined cell reads `POISONED` and a dash per
/// column; a completed cell missing its drill reads the default drill.
fn cell_table<D: Clone + Default>(
    first: &str,
    columns: &[CellColumn<D>],
    walls: bool,
    outcomes: &[Outcome<D>],
) -> String {
    let headers = columns.iter().map(|(header, _)| *header);
    let wall_header = walls.then_some("wall (ms)");
    let mut table = TextTable::new(
        [first, "status"]
            .into_iter()
            .chain(headers)
            .chain(wall_header),
    );
    for o in outcomes {
        let report = o.report.as_ref();
        let status = report.map_or_else(|| "POISONED".to_owned(), |_| o.status.token());
        let drill = o.drill.clone().unwrap_or_default();
        let cells = columns
            .iter()
            .map(|(_, cell)| report.map_or_else(|| "-".to_owned(), |r| cell(r, &drill)));
        let wall = walls.then(|| format!("{:.1}", o.wall.as_secs_f64() * 1_000.0));
        table.row(
            [o.label.clone(), status]
                .into_iter()
                .chain(cells)
                .chain(wall),
        );
    }
    table.render()
}

/// What the CLI shows of a campaign beyond the shared cell, harness and
/// exit-code handling. Its flags are declared in
/// [`COMMANDS`](crate::args::COMMANDS).
pub(crate) trait CampaignCommand: Campaign {
    /// The cell table's first header.
    const CELL_NOUN: &'static str = "cell";
    /// Whether the cell table ends with each cell's wall clock.
    const CELL_WALLS: bool = false;
    /// The per-cell table's columns after the label and `status`.
    const CELL_COLUMNS: &'static [CellColumn<Self::Drill>];
    /// The per-policy table's columns.
    const POLICY_COLUMNS: &'static [PolicyColumn<Self::Aggregate>];

    /// The closing summary line.
    fn summary(results: &CampaignResults<Self>) -> String;
}

/// The grid flags every grid campaign shares: policies, paper
/// scenarios, seeds `1..=N`, hours per cell and worker threads.
struct GridFlags {
    policies: Vec<PolicyKind>,
    scenarios: Vec<Scenario>,
    seeds: u64,
    duration: SimDuration,
    threads: usize,
}

impl GridFlags {
    /// Parses the grid flags; `grid` names the grid in the error for a
    /// synthetic scenario.
    fn parse(args: &ParsedArgs, grid: &str) -> Result<Self, CliError> {
        let policies = distinct("policies", parse_policies(args)?)?;
        let scenarios = distinct("scenarios", parse_paper_scenarios(args, grid)?)?;
        let seeds = args.u64("seeds")?;
        let hours = args.u64("hours")?;
        let threads = threads(args)?;
        if seeds == 0 || hours == 0 || threads == 0 {
            return Err(CliError::Usage(
                "--seeds, --hours, and --threads must be positive".into(),
            ));
        }
        Ok(GridFlags {
            policies,
            scenarios,
            seeds,
            duration: duration(hours, SimDuration::from_hours(1), "hours")?,
            threads: threads as usize,
        })
    }
}

/// `values`, read from the list flag `--flag`; a repeated value is a
/// usage error, since it would run the same cells twice.
fn distinct<T: PartialEq + std::fmt::Debug>(
    flag: &str,
    values: Vec<T>,
) -> Result<Vec<T>, CliError> {
    match values
        .iter()
        .enumerate()
        .find(|(i, v)| values[..*i].contains(v))
    {
        Some((_, repeated)) => Err(CliError::Usage(format!(
            "--{flag} lists {repeated:?} more than once"
        ))),
        None => Ok(values),
    }
}

/// A flag error reported as a usage error: the class in which the
/// cell-index flags and `--deadline` report a bad value (both classes
/// exit 2).
fn usage_error(e: ParseArgsError) -> CliError {
    CliError::Usage(e.to_string())
}

/// The shared `--resume`-aware options of the campaign commands.
fn campaign_options(args: &ParsedArgs, threads: usize) -> CampaignOptions {
    let mut options = CampaignOptions::with_threads(threads);
    options.journal_dir = args.get("resume").map(std::path::PathBuf::from);
    options
}

/// Runs a campaign subcommand over a policy × scenario × profile × seed
/// grid: grid flags, then [`report_campaign`].
pub(crate) fn cmd_campaign<C, P>(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError>
where
    C: CampaignCommand<Cell = CampaignSpec<P>>,
    P: Profile,
{
    let grid = GridFlags::parse(args, &format!("{} campaigns", C::KIND))?;
    let profiles: Vec<P> = match args.get("profiles") {
        None => P::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|name| {
                P::parse(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown {} profile `{name}` (see `standby --help`)",
                        P::NOUN
                    ))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let profiles = distinct("profiles", profiles)?;
    let (policies, scenarios) = (&grid.policies, &grid.scenarios);
    let specs = simty_bench::matrix(policies, scenarios, &profiles, grid.seeds, grid.duration);
    let results = run_campaign::<C>(&specs, &campaign_options(args, grid.threads))
        .map_err(|e| CliError::Harness(e.to_string()))?;
    report_campaign(&results, args, out)
}

/// `standby sweep`: the paper's scenario × policy × seed × β grid. With
/// `--no-obs` the cells run uninstrumented, then the grid reruns
/// instrumented (no journal, no injection) to print the observability
/// layer's overhead.
pub(crate) fn cmd_sweep(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let grid = GridFlags::parse(args, "sweep grids")?;
    let betas = args
        .value("betas")
        .split(',')
        .map(|v| match v.parse::<f64>() {
            Ok(beta) if (0.0..1.0).contains(&beta) => Ok(beta),
            Ok(_) => Err(CliError::Usage("--betas values must lie in [0, 1)".into())),
            Err(_) => Err(CliError::Usage(format!(
                "invalid grace fraction `{v}` in --betas"
            ))),
        });
    let betas = distinct("betas", betas.collect::<Result<_, _>>()?)?;
    let cells = |no_obs: bool| {
        let mut cells = Vec::new();
        for &scenario in &grid.scenarios {
            for &policy in &grid.policies {
                for seed in 1..=grid.seeds {
                    for &beta in &betas {
                        cells.push(RunSpec {
                            no_obs,
                            ..RunSpec::paper(policy, scenario, seed)
                                .with_beta(beta)
                                .with_duration(grid.duration)
                        });
                    }
                }
            }
        }
        cells
    };
    let no_obs = args.switch("no-obs");
    let options = campaign_options(args, grid.threads);
    let results = run_observed::<Grid>(&cells(no_obs), options, args)?;
    let verdict = report_campaign(&results, args, out);
    if no_obs {
        let options = CampaignOptions::with_threads(grid.threads);
        let instrumented = run_campaign::<Grid>(&cells(false), &options)
            .map_err(|e| CliError::Harness(e.to_string()))?;
        writeln!(out, "{}", overhead_line(&instrumented, &results))?;
    }
    verdict
}

/// The `--no-obs` overhead line: the instrumented rerun's sequential sum
/// against the uninstrumented one, over the cells the uninstrumented
/// run executed (a journal-restored cell has no wall time to compare).
fn overhead_line(instrumented: &CampaignResults<Grid>, plain: &CampaignResults<Grid>) -> String {
    let ms = |wall: Duration| wall.as_secs_f64() * 1_000.0;
    let (mut on, mut off, mut ran) = (0.0, 0.0, 0usize);
    for (with, without) in instrumented.outcomes().iter().zip(plain.outcomes()) {
        if without.wall > Duration::ZERO {
            on += ms(with.wall);
            off += ms(without.wall);
            ran += 1;
        }
    }
    if ran == 0 {
        return format!(
            "observability overhead: unmeasured ({} cells restored from the journal)",
            plain.journal_skips()
        );
    }
    let scope = if plain.journal_skips() > 0 {
        format!(" over the {ran} executed cells")
    } else {
        String::new()
    };
    let pct = (on - off) / off * 100.0;
    format!(
        "observability overhead: {on:.1} ms instrumented vs {off:.1} ms uninstrumented \
         (sequential sums{scope}; {pct:+.1}%)"
    )
}

pub(crate) fn cmd_fleet(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let policies = distinct("policies", parse_policies(args)?)?;
    let devices = args.u64("devices")?;
    let shards = args.u64("shards")?;
    let seed = args.u64("seed")?;
    let minutes = args.u64("minutes")?;
    let beta = args.f64("beta")?;
    let threads = threads(args)?;
    let span_cap = args.u64("span-cap")?;
    let audit_cap = args.u64("audit-cap")?;
    let stride = args.u64("ckpt-stride")?;
    if [devices, shards, minutes, threads, span_cap, audit_cap].contains(&0) {
        return Err(CliError::Usage(
            "--devices, --shards, --minutes, --threads, --span-cap and --audit-cap \
             must be positive"
                .into(),
        ));
    }
    if shards > devices {
        return Err(CliError::Usage(
            "--shards must not exceed --devices (empty shards aggregate nothing)".into(),
        ));
    }
    if !(0.0..1.0).contains(&beta) {
        return Err(CliError::Usage("--beta must lie in [0, 1)".into()));
    }

    let mut config = simty_bench::FleetConfig::new(devices);
    config.shards = shards as usize;
    config.policies = policies;
    config.seed = seed;
    config.duration = duration(minutes, SimDuration::from_mins(1), "minutes")?;
    config.beta = beta;
    config.span_capacity = span_cap as usize;
    config.audit_capacity = audit_cap as usize;
    config.checkpoint_stride = stride;

    let mut options = campaign_options(args, threads as usize);
    if let Some(secs) = args.opt_u64("deadline").map_err(usage_error)? {
        if secs == 0 {
            return Err(CliError::Usage("--deadline must be positive".into()));
        }
        options.supervisor.deadline = Some(std::time::Duration::from_secs(secs));
    }
    let results = run_observed::<Fleet>(&config.specs(), options, args)?;
    report_campaign(&results, args, out)
}

/// Runs `cells` under `options` and the command's `--inject-panic`
/// target, streaming `--progress`/`--events` telemetry as it goes (the
/// commands that declare those flags: sweep and fleet). A target past
/// the last cell is a usage error: it would inject nothing.
fn run_observed<C: Campaign>(
    cells: &[C::Cell],
    mut options: CampaignOptions,
    args: &ParsedArgs,
) -> Result<CampaignResults<C>, CliError> {
    if let Some(cell) = args.opt_u64("inject-panic").map_err(usage_error)? {
        if cell >= cells.len() as u64 {
            return Err(CliError::Usage(format!(
                "--inject-panic {cell} is past the last cell: the campaign's {} cell(s) \
                 are numbered from 0",
                cells.len()
            )));
        }
        options.inject_panic = Some(cell as usize);
    }
    let pipe = TelemetryPipe::from_args(args, cells.len() as u64)?;
    options.telemetry = pipe.sink.clone();
    let run = run_campaign::<C>(cells, &options);
    drop(options);
    pipe.finish()?;
    run.map_err(|e| CliError::Harness(e.to_string()))
}

/// Prints a finished campaign — the per-cell table, the harness footer,
/// the per-policy table (if the campaign has one), the summary line —
/// writes the optional
/// document, and maps the outcome to an exit code (4 on invariant
/// violations, 5 on a failed resume drill, 6 on quarantined cells).
pub(crate) fn report_campaign<C: CampaignCommand>(
    results: &CampaignResults<C>,
    args: &ParsedArgs,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let outcomes = results.outcomes();
    let table = cell_table(C::CELL_NOUN, C::CELL_COLUMNS, C::CELL_WALLS, outcomes);
    writeln!(out, "{table}")?;
    write_harness_summary(out, &results.harness())?;

    if !C::POLICY_COLUMNS.is_empty() {
        let mut summary = TextTable::new(C::POLICY_COLUMNS.iter().map(|(header, _)| *header));
        for aggregate in results.aggregates() {
            summary.row(C::POLICY_COLUMNS.iter().map(|(_, cell)| cell(&aggregate)));
        }
        writeln!(out, "\n{}", summary.render())?;
    }
    writeln!(out, "{}", C::summary(results))?;
    if let Some(path) = args.get("json") {
        std::fs::write(path, results.to_json())?;
        writeln!(out, "{} document written to {path}", C::KIND)?;
    }
    if results.total_violations() > 0 {
        return Err(CliError::Invariants(results.total_violations()));
    }
    let unrecovered = results.unrecovered();
    if !unrecovered.is_empty() {
        return Err(CliError::Recovery(unrecovered.join(", ")));
    }
    poisoned_to_error(results.poisoned())
}

/// The one-line harness health footer every campaign command prints.
fn write_harness_summary(out: &mut dyn Write, harness: &HarnessStats) -> Result<(), CliError> {
    writeln!(
        out,
        "harness: {} cells ({} ok, {} retried, {} poisoned), {} panics, \
         {} timeouts, {} retries, {} journal-restored",
        harness.cells,
        harness.ok,
        harness.retried_cells,
        harness.poisoned,
        harness.panics,
        harness.timeouts,
        harness.retries,
        harness.journal_skips,
    )?;
    Ok(())
}

/// Turns quarantined cells into the exit-code-6 harness error.
fn poisoned_to_error(poisoned: Vec<(String, String)>) -> Result<(), CliError> {
    if poisoned.is_empty() {
        return Ok(());
    }
    let cells: Vec<String> = poisoned
        .into_iter()
        .map(|(label, reason)| format!("{label} ({reason})"))
        .collect();
    Err(CliError::Harness(format!(
        "{} cell(s) quarantined: {}",
        cells.len(),
        cells.join(", ")
    )))
}

/// Where `--progress`/`--events` telemetry goes: a drain thread that
/// consumes the campaign's bus, rendering a live progress line on
/// stderr and appending JSON lines to the events file, until every sink
/// clone is dropped. `sink` is `None` when neither flag asked for
/// telemetry; the campaign publishes into clones of it.
#[derive(Default)]
struct TelemetryPipe {
    sink: Option<simty::obs::TelemetrySink>,
    drain: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl TelemetryPipe {
    /// Builds the pipe from `--progress`/`--events`. Progress is
    /// auto-disabled when stderr is not a terminal, so redirected runs
    /// never capture carriage-return control characters.
    fn from_args(args: &ParsedArgs, cells_total: u64) -> Result<Self, CliError> {
        use std::io::IsTerminal;

        let progress = args.switch("progress") && io::stderr().is_terminal();
        let events = match args.get("events") {
            None => None,
            Some(path) => Some(BufWriter::new(
                File::options().create(true).append(true).open(path)?,
            )),
        };
        if !progress && events.is_none() {
            return Ok(TelemetryPipe::default());
        }
        let (bus, sink) =
            simty::obs::TelemetryBus::new(simty::obs::telemetry::DEFAULT_BUS_CAPACITY);
        let drain = std::thread::spawn(move || -> io::Result<()> {
            let mut events = events;
            let mut state = simty::obs::ProgressState::new(cells_total);
            for event in bus.drain() {
                if let Some(w) = events.as_mut() {
                    writeln!(w, "{}", event.to_json())?;
                }
                if progress {
                    state.update(&event);
                    eprint!("\r{}", state.render());
                }
            }
            if progress {
                eprintln!();
            }
            if let Some(mut w) = events {
                w.flush()?;
            }
            Ok(())
        });
        Ok(TelemetryPipe {
            sink: Some(sink),
            drain: Some(drain),
        })
    }

    /// Drops the CLI's sink and joins the drain thread; the thread ends
    /// once the campaign's own sink clones are gone too, so callers
    /// must drop those (the run consuming them suffices) before this.
    ///
    /// A full bus sheds events rather than stalling the campaign;
    /// shedding is lossy observability, so it is surfaced twice: as a
    /// final warn event on the bus itself (best-effort — the tail of a
    /// saturated bus may shed the warning too) and as a note on stderr
    /// once the drain is done.
    fn finish(self) -> Result<(), CliError> {
        let (Some(sink), Some(drain)) = (self.sink, self.drain) else {
            return Ok(());
        };
        let dropped = sink.dropped();
        if dropped > 0 {
            sink.warn(format!(
                "telemetry bus dropped {dropped} event(s); raise the bus capacity or slow the campaign"
            ));
        }
        drop(sink);
        drain
            .join()
            .map_err(|_| CliError::Harness("telemetry drain thread panicked".into()))??;
        if dropped > 0 {
            eprintln!("warning: telemetry bus dropped {dropped} event(s)");
        }
        Ok(())
    }
}

/// A resume drill's verdict for one cell.
fn resume_cell(restore_ok: bool, resumed_identical: bool) -> String {
    match (restore_ok, resumed_identical) {
        (true, true) => "identical",
        (true, false) => "DIVERGED",
        (false, _) => "FAILED",
    }
    .to_owned()
}

/// A resume drill's verdict over one policy's cells.
fn resume_policy(all_restores_ok: bool, all_resumed_identical: bool) -> String {
    if all_restores_ok && all_resumed_identical {
        "identical"
    } else {
        "BROKEN"
    }
    .to_owned()
}

impl CampaignCommand for Grid {
    const CELL_NOUN: &'static str = "run";
    const CELL_WALLS: bool = true;
    const CELL_COLUMNS: &'static [CellColumn<()>] = &[
        ("total (J)", |r, ()| {
            format!("{:.1}", r.energy.total_mj() / 1_000.0)
        }),
        ("awake (J)", |r, ()| {
            format!("{:.1}", r.energy.awake_related_mj() / 1_000.0)
        }),
        ("batch deliveries", |r, ()| r.entry_deliveries.to_string()),
        ("impercept. delay", |r, ()| {
            format!("{:.1}%", r.delays.imperceptible_avg * 100.0)
        }),
    ];
    const POLICY_COLUMNS: &'static [PolicyColumn<()>] = &[];

    fn summary(results: &CampaignResults<Grid>) -> String {
        let cells = results.runs().len();
        let rate = if results.journal_skips() >= cells as u64 {
            format!("{} journal-restored", results.journal_skips())
        } else {
            format!("{:.1} runs/sec", results.runs_per_sec())
        };
        format!(
            "{cells} runs on {} threads in {:.1} ms ({rate}; sequential sum {:.1} ms)",
            results.threads(),
            results.total_wall().as_secs_f64() * 1_000.0,
            results.sequential_wall().as_secs_f64() * 1_000.0,
        )
    }
}

impl CampaignCommand for Chaos {
    const CELL_COLUMNS: &'static [CellColumn<()>] = &[
        ("total (J)", |r, ()| {
            format!("{:.1}", r.energy.total_mj() / 1_000.0)
        }),
        ("violations", |r, ()| {
            r.resilience.invariant_violations.to_string()
        }),
        ("window misses", |r, ()| {
            r.resilience.perceptible_window_misses.to_string()
        }),
        ("interventions", |r, ()| {
            r.resilience.interventions.to_string()
        }),
        ("quarantines", |r, ()| r.resilience.quarantines.to_string()),
    ];
    const POLICY_COLUMNS: &'static [PolicyColumn<PolicyResilience>] = &[
        ("policy", |a| a.policy.clone()),
        ("cells", |a| a.runs.to_string()),
        ("violations", |a| a.invariant_violations.to_string()),
        ("interventions", |a| a.interventions.to_string()),
        ("quarantines", |a| a.quarantines.to_string()),
        ("recoveries", |a| a.recoveries.to_string()),
        ("MTTR (s)", |a| {
            format!("{:.1}", a.mean_time_to_recovery_ms / 1_000.0)
        }),
        ("overhead (J)", |a| {
            format!("{:.3}", a.intervention_overhead_mj / 1_000.0)
        }),
    ];

    fn summary(results: &CampaignResults<Chaos>) -> String {
        format!(
            "{} chaos cells, {} invariant violations",
            results.runs().len(),
            results.total_violations()
        )
    }
}

impl CampaignCommand for Soak {
    const CELL_COLUMNS: &'static [CellColumn<SoakRecovery>] = &[
        ("reboots", |r, _| r.resilience.reboots.to_string()),
        ("catch-up", |r, _| r.resilience.catch_up_entries.to_string()),
        ("window misses", |r, _| {
            r.resilience.perceptible_window_misses.to_string()
        }),
        ("snapshots", |_, rec| rec.checkpoints.to_string()),
        ("skipped", |_, rec| rec.corrupt_skipped.to_string()),
        ("resume", |_, rec| {
            resume_cell(rec.restore_ok, rec.resumed_identical)
        }),
    ];
    const POLICY_COLUMNS: &'static [PolicyColumn<PolicyEndurance>] = &[
        ("policy", |a| a.policy.clone()),
        ("cells", |a| a.runs.to_string()),
        ("reboots", |a| a.reboots.to_string()),
        ("recovery (s)", |a| {
            format!("{:.1}", a.mean_recovery_ms / 1_000.0)
        }),
        ("catch-up", |a| a.catch_up_entries.to_string()),
        ("worst delay (s)", |a| {
            format!("{:.1}", a.worst_catch_up_delay_ms / 1_000.0)
        }),
        ("window misses", |a| a.perceptible_window_misses.to_string()),
        ("resume", |a| {
            resume_policy(a.all_restores_ok, a.all_resumed_identical)
        }),
    ];

    fn summary(results: &CampaignResults<Soak>) -> String {
        format!(
            "{} soak cells, {} perceptible-window misses, recovery {}, resume wall {:.1}s",
            results.runs().len(),
            results.total_misses(),
            if results.all_recovered() {
                "clean"
            } else {
                "BROKEN"
            },
            results.resume_wall().as_secs_f64(),
        )
    }
}

impl CampaignCommand for Storm {
    const CELL_COLUMNS: &'static [CellColumn<StormRecovery>] = &[
        ("storm regs", |r, _| {
            r.overload.storm_registrations.to_string()
        }),
        ("rejected", |r, _| r.overload.rejected.to_string()),
        ("shed", |r, _| r.overload.shed.to_string()),
        ("demotions", |r, _| r.overload.demotions.to_string()),
        ("final tier", |r, _| r.overload.final_tier.clone()),
        ("window misses", |r, _| {
            r.resilience.perceptible_window_misses.to_string()
        }),
        ("resume", |_, rec| {
            resume_cell(rec.restore_ok, rec.resumed_identical)
        }),
    ];
    const POLICY_COLUMNS: &'static [PolicyColumn<PolicyOverload>] = &[
        ("policy", |a| a.policy.clone()),
        ("cells", |a| a.runs.to_string()),
        ("storm regs", |a| a.storm_registrations.to_string()),
        ("admitted", |a| a.admitted.to_string()),
        ("deferred", |a| a.deferred.to_string()),
        ("rejected", |a| a.rejected.to_string()),
        ("shed", |a| a.shed.to_string()),
        ("demotions", |a| a.demotions.to_string()),
        ("tier changes", |a| a.tier_changes.to_string()),
        ("window misses", |a| a.perceptible_window_misses.to_string()),
        ("resume", |a| {
            resume_policy(a.all_restores_ok, a.all_resumed_identical)
        }),
    ];

    fn summary(results: &CampaignResults<Storm>) -> String {
        format!(
            "{} storm cells, {} perceptible-window misses, resume {}",
            results.runs().len(),
            results.total_misses(),
            if results.all_recovered() {
                "clean"
            } else {
                "BROKEN"
            },
        )
    }
}

/// A policy aggregate's per-device figure, or a dash when no device
/// completed.
fn per_device(a: &PolicyAggregate, cell: fn(&SimReport, f64) -> String) -> String {
    match &a.report {
        Some(r) if a.devices > 0 => cell(r, a.devices as f64),
        _ => "-".to_owned(),
    }
}

impl CampaignCommand for Fleet {
    const CELL_NOUN: &'static str = "shard";
    const CELL_WALLS: bool = true;
    const CELL_COLUMNS: &'static [CellColumn<ShardDrill>] = &[
        ("devices", |_, drill| drill.devices.to_string()),
        ("total (J)", |r, _| {
            format!("{:.1}", r.energy.total_mj() / 1_000.0)
        }),
        ("wakeups", |r, _| r.cpu_wakeups.to_string()),
        ("evictions", |_, drill| {
            (drill.span_evictions + drill.audit_evictions).to_string()
        }),
    ];
    const POLICY_COLUMNS: &'static [PolicyColumn<PolicyAggregate>] = &[
        ("policy", |a| a.policy.clone()),
        ("shards ok", |a| {
            format!("{}/{}", a.shards_ok, a.shards_ok + a.shards_poisoned)
        }),
        ("devices", |a| a.devices.to_string()),
        ("J/device", |a| {
            per_device(a, |r, n| {
                format!("{:.2}", r.energy.total_mj() / n / 1_000.0)
            })
        }),
        ("wakeups/device", |a| {
            per_device(a, |r, n| format!("{:.1}", r.cpu_wakeups as f64 / n))
        }),
        ("impercept. delay", |a| {
            per_device(a, |r, _| {
                format!("{:.1}%", r.delays.imperceptible_avg * 100.0)
            })
        }),
        ("window misses", |a| {
            per_device(a, |r, _| r.resilience.perceptible_window_misses.to_string())
        }),
    ];

    fn summary(results: &CampaignResults<Fleet>) -> String {
        format!(
            "{} devices across {} shards on {} threads in {:.1} ms ({:.1} devices/sec)",
            results.devices_completed(),
            results.runs().len(),
            results.threads(),
            results.total_wall().as_secs_f64() * 1_000.0,
            results.devices_per_sec(),
        )
    }
}
