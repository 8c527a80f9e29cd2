//! The `chaos`, `soak`, `storm` and `fleet` subcommands: one generic
//! report over the campaign kernel, with each campaign supplying only its
//! table columns and its summary line.

use std::io::Write;

use simty::prelude::*;
use simty::sim::report::TextTable;
use simty_bench::{
    run_campaign, Campaign, CampaignResults, CampaignSpec, Chaos, Fleet, Outcome, PolicyAggregate,
    PolicyEndurance, PolicyOverload, PolicyResilience, Profile, ShardDrill, Soak, SoakRecovery,
    Storm, StormRecovery,
};

use crate::args::ParsedArgs;
use crate::commands::{
    campaign_options, duration, parse_paper_scenarios, parse_policies, poisoned_to_error, threads,
    write_harness_summary, CliError,
};

/// A per-cell table column: its header and how a completed cell fills it.
pub(crate) type CellColumn<D> = (&'static str, fn(&SimReport, &D) -> String);

/// A per-policy table column: its header and how an aggregate fills it.
type PolicyColumn<A> = (&'static str, fn(&A) -> String);

/// A cell table: `first`, `status`, `columns`, and with `walls` each
/// cell's wall clock (shown for a quarantined cell too), one row per
/// executor outcome and its drill. A quarantined cell reads `POISONED`
/// and a dash per column.
pub(crate) fn cell_table<'a, D: 'a>(
    first: &str,
    columns: &[CellColumn<D>],
    walls: bool,
    rows: impl Iterator<Item = (&'a Outcome, D)>,
) -> String {
    let headers = columns.iter().map(|(header, _)| *header);
    let wall_header = walls.then_some("wall (ms)");
    let mut table = TextTable::new(
        [first, "status"]
            .into_iter()
            .chain(headers)
            .chain(wall_header),
    );
    for (o, drill) in rows {
        let report = o.report.as_ref();
        let status = report.map_or_else(|| "POISONED".to_owned(), |_| o.status.token());
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

/// Runs a campaign subcommand over a policy × scenario × profile × seed
/// grid: grid flags, then [`report_campaign`].
pub(crate) fn cmd_campaign<C, P>(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError>
where
    C: CampaignCommand<Cell = CampaignSpec<P>>,
    P: Profile,
{
    let policies = parse_policies(args)?;
    let scenarios = parse_paper_scenarios(args, &format!("{} campaigns", C::KIND))?;
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
    let seeds = args.u64("seeds")?;
    let hours = args.u64("hours")?;
    let threads = threads(args)?;
    if seeds == 0 || hours == 0 || threads == 0 {
        return Err(CliError::Usage(
            "--seeds, --hours, and --threads must be positive".into(),
        ));
    }

    let duration = duration(hours, SimDuration::from_hours(1), "hours")?;
    let specs = simty_bench::matrix(&policies, &scenarios, &profiles, seeds, duration);
    let results = run_campaign::<C>(&specs, &campaign_options(args, threads as usize))
        .map_err(|e| CliError::Harness(e.to_string()))?;
    report_campaign(&results, args, out)
}

/// Prints a finished campaign — the per-cell table, the harness footer,
/// the per-policy table, the summary line — writes the optional
/// document, and maps the outcome to an exit code (4 on invariant
/// violations, 5 on a failed resume drill, 6 on quarantined cells).
pub(crate) fn report_campaign<C: CampaignCommand>(
    results: &CampaignResults<C>,
    args: &ParsedArgs,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let drills = results.runs().map(|(.., drill)| drill.unwrap_or_default());
    let rows = results.outcomes().iter().zip(drills);
    let table = cell_table(C::CELL_NOUN, C::CELL_COLUMNS, C::CELL_WALLS, rows);
    writeln!(out, "{table}")?;
    write_harness_summary(out, &results.harness())?;

    let mut summary = TextTable::new(C::POLICY_COLUMNS.iter().map(|(header, _)| *header));
    for aggregate in results.aggregates() {
        summary.row(C::POLICY_COLUMNS.iter().map(|(_, cell)| cell(&aggregate)));
    }
    writeln!(out, "\n{}", summary.render())?;
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
