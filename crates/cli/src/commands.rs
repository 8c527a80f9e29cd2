//! The `standby` subcommands. Each one's flags are declared once, in
//! the command table in `args.rs`; the bodies read them through the
//! typed getters, which fall back to the declared defaults.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};

use simty::experiments::{PolicyKind, Scenario};
use simty::paper::{self, PaperGrid};
use simty::prelude::*;
use simty::sim::analysis::{per_app_stats, wakeup_gap_stats, wakeup_timeline, BatchHistogram};
use simty::sim::report::TextTable;
use simty::sim::watchdog::{self, WatchdogPolicy};

use crate::args::{self, ParseArgsError, ParsedArgs};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Args(ParseArgsError),
    /// A free-form usage error (unknown command, bad policy name, ...).
    Usage(String),
    /// An I/O error (e.g. writing a trace file).
    Io(io::Error),
    /// A campaign detected runtime invariant violations (the guarantee
    /// the paper makes did not hold); the binary exits non-zero.
    Invariants(u64),
    /// A checkpoint recovery drill failed — restore errored out or the
    /// resumed run diverged from the straight-through run.
    Recovery(String),
    /// The harness itself degraded: campaign cells were quarantined
    /// (panic or deadline overrun), or a `--resume` journal could not be
    /// opened or replayed.
    Harness(String),
    /// A gated result regressed or drifted: `bench diff` found a perf
    /// regression or schema drift between two campaign documents (the CI
    /// perf gate trips on this), or `repro` a paper target outside its
    /// band.
    Regression(String),
    /// The scheduler service failed: bind error, unusable state
    /// directory, or corrupted live-scheduler state on restore.
    Serve(String),
}

impl CliError {
    /// The process exit code for this error, so scripts can tell a
    /// usage mistake from a broken guarantee from a degraded harness
    /// (documented in `standby --help`).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) | CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Invariants(_) => 4,
            CliError::Recovery(_) => 5,
            CliError::Harness(_) => 6,
            CliError::Regression(_) => 7,
            CliError::Serve(_) => 8,
        }
    }

    /// What `standby` prints to stderr for this error: the message, and
    /// for a usage error (exit 2), where the usage is.
    pub fn message(&self) -> String {
        let hint = if self.exit_code() == 2 {
            "\nrun `standby --help` for usage"
        } else {
            ""
        };
        format!("standby: {self}{hint}")
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Invariants(n) => {
                write!(f, "{n} runtime invariant violation(s) detected")
            }
            CliError::Recovery(msg) => write!(f, "unrecoverable checkpoint: {msg}"),
            CliError::Harness(msg) => write!(f, "harness degraded: {msg}"),
            CliError::Regression(msg) => write!(f, "gate: {msg}"),
            CliError::Serve(msg) => write!(f, "serve: {msg}"),
        }
    }
}

impl Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

/// `n` units of `unit` as a duration. Zero is a usage error, and so is
/// a count whose milliseconds do not fit the simulated clock (rather
/// than a clock that silently wraps).
pub(crate) fn duration(n: u64, unit: SimDuration, flag: &str) -> Result<SimDuration, CliError> {
    match n.checked_mul(unit.as_millis()) {
        Some(0) => Err(CliError::Usage(format!("--{flag} must be positive"))),
        Some(ms) => Ok(SimDuration::from_millis(ms)),
        None => Err(CliError::Usage(format!(
            "--{flag} {n} overflows the simulated clock"
        ))),
    }
}

/// Parses a policy name.
fn parse_policy(name: &str) -> Result<PolicyKind, CliError> {
    if let Some(secs) = name.strip_prefix("fixed:") {
        let secs: u64 = secs
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid fixed-interval seconds in `{name}`")))?;
        if secs == 0 {
            return Err(CliError::Usage("fixed interval must be positive".into()));
        }
        return Ok(PolicyKind::FixedInterval(secs));
    }
    match name {
        "exact" => Ok(PolicyKind::Exact),
        "native" => Ok(PolicyKind::Native),
        "native-norealign" => Ok(PolicyKind::NativeNoRealign),
        "simty" => Ok(PolicyKind::Simty),
        "simty2" => Ok(PolicyKind::SimtyGranularity(HardwareGranularity::Two)),
        "simty4" => Ok(PolicyKind::SimtyGranularity(HardwareGranularity::Four)),
        "dursim" => Ok(PolicyKind::Dursim),
        "doze" => Ok(PolicyKind::Doze),
        _ => Err(CliError::Usage(format!(
            "unknown policy `{name}` (see `standby --help`)"
        ))),
    }
}

enum ScenarioChoice {
    Paper(Scenario),
    Synthetic(usize),
}

fn parse_scenario(name: &str) -> Result<ScenarioChoice, CliError> {
    if let Some(n) = name.strip_prefix("synthetic:") {
        let n: usize = n
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid synthetic app count in `{name}`")))?;
        if n == 0 {
            return Err(CliError::Usage(
                "synthetic app count must be positive".into(),
            ));
        }
        return Ok(ScenarioChoice::Synthetic(n));
    }
    match name {
        "light" => Ok(ScenarioChoice::Paper(Scenario::Light)),
        "heavy" => Ok(ScenarioChoice::Paper(Scenario::Heavy)),
        _ => Err(CliError::Usage(format!(
            "unknown scenario `{name}` (light|heavy|synthetic:<n>)"
        ))),
    }
}

/// Parses `--policies LIST`.
pub(crate) fn parse_policies(args: &ParsedArgs) -> Result<Vec<PolicyKind>, CliError> {
    args.value("policies")
        .split(',')
        .map(parse_policy)
        .collect()
}

/// Parses `--scenarios LIST`. Grids cover only the paper scenarios;
/// `grid` names the grid in the error for a synthetic one.
pub(crate) fn parse_paper_scenarios(
    args: &ParsedArgs,
    grid: &str,
) -> Result<Vec<Scenario>, CliError> {
    args.value("scenarios")
        .split(',')
        .map(|name| match parse_scenario(name)? {
            ScenarioChoice::Paper(s) => Ok(s),
            ScenarioChoice::Synthetic(_) => Err(CliError::Usage(format!(
                "{grid} cover the paper scenarios (light|heavy)"
            ))),
        })
        .collect()
}

/// `--threads N`, every core when absent.
pub(crate) fn threads(args: &ParsedArgs) -> Result<u64, CliError> {
    let all = simty_bench::campaign::available_threads() as u64;
    Ok(args.opt_u64("threads")?.unwrap_or(all))
}

struct CommonOpts {
    scenario: ScenarioChoice,
    custom_apps: Option<Vec<AppSpec>>,
    seed: u64,
    hours: u64,
    duration: SimDuration,
    beta: f64,
}

impl CommonOpts {
    fn from_args(args: &ParsedArgs) -> Result<Self, CliError> {
        let scenario = parse_scenario(args.value("scenario"))?;
        let custom_apps = match args.get("workload") {
            None => None,
            Some(path) => {
                let text = std::fs::read_to_string(path)?;
                let apps = simty::apps::spec::parse_workload_spec(&text)
                    .map_err(|e| CliError::Usage(e.to_string()))?;
                if apps.is_empty() {
                    return Err(CliError::Usage(format!(
                        "workload file `{path}` contains no apps"
                    )));
                }
                Some(apps)
            }
        };
        let seed = args.u64("seed")?;
        let hours = args.u64("hours")?;
        // sweep-beta sets beta per step and takes no --beta.
        let beta = if args.takes("beta") {
            args.f64("beta")?
        } else {
            0.0
        };
        if !(0.0..1.0).contains(&beta) {
            return Err(CliError::Usage("--beta must lie in [0, 1)".into()));
        }
        Ok(CommonOpts {
            scenario,
            custom_apps,
            seed,
            hours,
            duration: duration(hours, SimDuration::from_hours(1), "hours")?,
            beta,
        })
    }

    /// `<workload> workload, <hours> h, seed <seed>`, the first words of
    /// every single-run report.
    fn header(&self) -> String {
        format!(
            "{} workload, {} h, seed {}",
            self.workload_name(),
            self.hours,
            self.seed
        )
    }

    fn workload_name(&self) -> String {
        if self.custom_apps.is_some() {
            "custom".to_owned()
        } else {
            match self.scenario {
                ScenarioChoice::Paper(s) => s.name().to_owned(),
                ScenarioChoice::Synthetic(n) => format!("synthetic ({n} apps)"),
            }
        }
    }

    fn builder(&self) -> WorkloadBuilder {
        let base = match (&self.custom_apps, &self.scenario) {
            (Some(apps), _) => WorkloadBuilder::custom("custom", apps.clone()),
            (None, ScenarioChoice::Paper(s)) => s.builder(),
            (None, ScenarioChoice::Synthetic(n)) => WorkloadBuilder::synthetic(*n, self.seed),
        };
        base.with_seed(self.seed)
            .with_beta(self.beta)
            .with_duration(self.duration)
    }

    /// Runs `policy` over this workload to the end, under `config`.
    fn simulate(&self, policy: PolicyKind, config: SimConfig) -> Simulation {
        let config = config.with_duration(self.duration);
        let mut sim = simty_bench::campaign::simulation(policy, self.builder().build(), config);
        sim.run_until(SimTime::ZERO + self.duration);
        sim
    }
}

/// Executes the CLI and writes its output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, invalid flags, or I/O
/// failures; the binary maps these to a nonzero exit code.
pub fn run_cli<W: Write>(raw_args: &[String], out: &mut W) -> Result<(), CliError> {
    match args::parse(raw_args)? {
        Some(args) => (args.command().run)(&args, out),
        None => Ok(writeln!(out, "{}", args::usage())?),
    }
}

pub(crate) fn cmd_run(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = CommonOpts::from_args(args)?;
    let policy = parse_policy(args.value("policy"))?;
    let mut config = SimConfig::new();
    if args.get("waveform").is_some() {
        config = config.with_waveform();
    }
    let sim = opts.simulate(policy, config);
    let report = sim.report();
    if args.switch("json") {
        writeln!(out, "{}", simty::sim::json::report_to_json(&report))?;
        return Ok(());
    }
    writeln!(out, "{report}\n")?;

    let histogram = BatchHistogram::from_trace(sim.trace());
    writeln!(out, "{histogram}")?;
    if let Some(gaps) = wakeup_gap_stats(sim.trace()) {
        writeln!(
            out,
            "wakeup gaps: min {}, mean {}, max {} over {} gaps",
            gaps.min, gaps.mean, gaps.max, gaps.count
        )?;
    }

    if args.switch("attribution") {
        writeln!(out, "\n{}", sim.attribution())?;
    }
    if args.switch("watchdog") {
        let report = watchdog::scan(sim.trace(), opts.duration, WatchdogPolicy::default());
        writeln!(out, "\n{report}")?;
    }
    if args.switch("apps") {
        writeln!(out, "\n{}", app_table(sim.trace(), false))?;
    }
    if args.switch("timeline") {
        writeln!(
            out,
            "\nwakeup timeline (5-minute buckets):\n{}",
            wakeup_timeline(sim.trace(), opts.duration, SimDuration::from_mins(5))
        )?;
    }
    if let Some(path) = args.get("trace") {
        let file = BufWriter::new(File::create(path)?);
        sim.trace().write_csv(file)?;
        writeln!(out, "trace written to {path}")?;
    }
    if let Some(path) = args.get("waveform") {
        let monitor = sim.device().monitor().ok_or_else(|| {
            CliError::Usage("waveform recording was not enabled for this run".into())
        })?;
        let file = BufWriter::new(File::create(path)?);
        monitor.write_csv(file)?;
        writeln!(
            out,
            "power waveform written to {path} (peak {:.0} mW)",
            monitor.peak_mw()
        )?;
    }
    Ok(())
}

pub(crate) fn cmd_compare(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = CommonOpts::from_args(args)?;
    let mut table = TextTable::new([
        "policy",
        "total (J)",
        "awake (J)",
        "batch deliveries",
        "percept. delay",
        "impercept. delay",
    ]);
    for policy in [
        PolicyKind::Exact,
        PolicyKind::Native,
        PolicyKind::Simty,
        PolicyKind::Dursim,
        PolicyKind::FixedInterval(60),
    ] {
        let r = opts.simulate(policy, SimConfig::new()).report();
        table.row([
            r.policy.clone(),
            format!("{:.1}", r.energy.total_mj() / 1_000.0),
            format!("{:.1}", r.energy.awake_related_mj() / 1_000.0),
            r.entry_deliveries.to_string(),
            format!("{:.2}%", r.delays.perceptible_avg * 100.0),
            format!("{:.1}%", r.delays.imperceptible_avg * 100.0),
        ]);
    }
    writeln!(out, "{}, beta {}\n", opts.header(), opts.beta)?;
    writeln!(out, "{}", table.render())?;
    Ok(())
}

pub(crate) fn cmd_diff(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = CommonOpts::from_args(args)?;
    let policy_a = parse_policy(args.value("policy-a"))?;
    let policy_b = parse_policy(args.value("policy-b"))?;
    let sim_a = opts.simulate(policy_a, SimConfig::new());
    let sim_b = opts.simulate(policy_b, SimConfig::new());
    let report_a = sim_a.report();
    let report_b = sim_b.report();
    writeln!(
        out,
        "{}: {} ({:.1} J) → {} ({:.1} J), {:.1}% saved\n",
        opts.header(),
        report_a.policy,
        report_a.energy.total_mj() / 1_000.0,
        report_b.policy,
        report_b.energy.total_mj() / 1_000.0,
        100.0 * (1.0 - report_b.energy.total_mj() / report_a.energy.total_mj()),
    )?;
    let diff = simty::sim::diff::TraceDiff::between(sim_a.trace(), sim_b.trace());
    writeln!(out, "{diff}")?;
    Ok(())
}

pub(crate) fn cmd_explain(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    use simty::core::policy::Placement;

    let opts = CommonOpts::from_args(args)?;
    let policy = parse_policy(args.value("policy"))?;
    // A widened audit ring keeps every placement decision for export.
    let sim = opts.simulate(policy, SimConfig::new().with_audit_capacity(1 << 20));
    let obs = sim.obs();
    if args.switch("jsonl") {
        write!(out, "{}", obs.audits_jsonl())?;
        return Ok(());
    }
    writeln!(
        out,
        "{}, beta {}: placement decisions under {}\n",
        opts.header(),
        opts.beta,
        policy.name(),
    )?;
    let mut batched = 0u64;
    let mut fresh = 0u64;
    for a in obs.audits() {
        let flavor = if a.perceptible {
            "perceptible"
        } else {
            "imperceptible"
        };
        let ordinal = obs.alarm_ordinal(a.alarm_id).unwrap_or(0);
        let target = match a.placement {
            Placement::Existing(idx) => {
                batched += 1;
                format!("batched into entry #{idx}")
            }
            Placement::NewEntry => {
                fresh += 1;
                "new entry".to_owned()
            }
        };
        writeln!(
            out,
            "[{}] {} (alarm #{ordinal}, nominal {}, {flavor}) -> {target}",
            a.at, a.app, a.nominal,
        )?;
        for c in &a.candidates {
            writeln!(
                out,
                "    entry #{} @{}: time={} hw_rank={} table1_rank={} -> {}",
                c.index,
                c.delivery_time,
                c.time,
                c.hw_rank.map_or_else(|| "-".to_owned(), |r| r.to_string()),
                c.preferability
                    .map_or_else(|| "-".to_owned(), |p| p.to_string()),
                c.verdict.as_str(),
            )?;
        }
    }
    write!(
        out,
        "\n{} decisions: {batched} batched into existing entries, {fresh} opened new entries",
        batched + fresh,
    )?;
    if obs.audit_dropped() > 0 {
        write!(out, " ({} older decisions evicted)", obs.audit_dropped())?;
    }
    writeln!(out)?;
    Ok(())
}

pub(crate) fn cmd_metrics(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = CommonOpts::from_args(args)?;
    let policy = parse_policy(args.value("policy"))?;
    let sim = opts.simulate(policy, SimConfig::new());
    let obs = sim.obs();
    match args.value("format") {
        "expose" => write!(out, "{}", obs.metrics_exposition())?,
        "json" => writeln!(out, "{}", obs.metrics_json())?,
        "spans" => write!(out, "{}", obs.spans_jsonl())?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown metrics format `{other}` (expose|json|spans)"
            )))
        }
    }
    Ok(())
}

pub(crate) fn cmd_trace(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = CommonOpts::from_args(args)?;
    let policies = parse_policies(args)?;
    let span_cap = args.u64("span-cap")?;
    if span_cap == 0 {
        return Err(CliError::Usage("--span-cap must be positive".into()));
    }
    let path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("trace needs --out FILE".into()))?;
    let with_stages = args.switch("stages");

    // One track (tid) per policy, timestamps on the sim clock, so the
    // file is deterministic for a given grid; the optional stage tracks
    // carry wall-clock self-times and are off by default.
    let mut trace = simty::obs::TraceBuilder::new("standby");
    for (i, &policy) in policies.iter().enumerate() {
        let sim = opts.simulate(
            policy,
            SimConfig::new().with_span_capacity(span_cap as usize),
        );
        let tid = i as u64;
        trace.add_track(tid, &policy.name());
        trace.add_spans(tid, sim.obs().spans().iter());
        if with_stages {
            let stage_tid = 1_000 + i as u64;
            trace.add_track(stage_tid, &format!("{} stages (wall)", policy.name()));
            trace.add_stage_profile(stage_tid, sim.stage_profile());
        }
    }
    let events = trace.len();
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(trace.finish().as_bytes())?;
    file.flush()?;
    writeln!(
        out,
        "trace written to {path} ({events} events, {} tracks)",
        policies.len() * if with_stages { 2 } else { 1 },
    )?;
    Ok(())
}

/// `standby bench diff OLD.json NEW.json`: the gate between two campaign
/// documents, each field compared by its declared class.
pub(crate) fn cmd_bench(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let (old_path, new_path) = match &args.operands[..] {
        [diff, old, new] if diff == "diff" => (old, new),
        _ => {
            return Err(CliError::Usage(
                "usage: standby bench diff OLD.json NEW.json".into(),
            ))
        }
    };
    let old = std::fs::read_to_string(old_path)?;
    let new = std::fs::read_to_string(new_path)?;
    let report = simty_bench::diff_documents(&old, &new).map_err(CliError::Regression)?;
    writeln!(
        out,
        "bench diff {}: {} fields compared (deterministic exact, wall ratio <= {}x)",
        report.schema,
        report.checks,
        simty_bench::diff::CRASH_RATIO,
    )?;
    if report.is_regression() {
        for regression in &report.regressions {
            writeln!(out, "  REGRESSION {regression}")?;
        }
        return Err(CliError::Regression(format!(
            "{} regression(s) between {old_path} and {new_path}",
            report.regressions.len()
        )));
    }
    writeln!(out, "no regressions: {new_path} matches {old_path}")?;
    Ok(())
}

/// `standby repro`: the §4.1 grid and the ablation and sensitivity
/// studies, and every paper target with its band.
pub(crate) fn cmd_repro(_args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    report_repro(&paper::evaluate(&PaperGrid::run()), out)
}

/// Prints the evaluation; a target outside its band is a regression.
fn report_repro(outcomes: &[paper::Outcome], out: &mut dyn Write) -> Result<(), CliError> {
    out.write_all(paper::render(outcomes).as_bytes())?;
    let failed = paper::failures(outcomes).join(", ");
    let off_band = CliError::Regression(format!("paper targets outside their band: {failed}"));
    failed.is_empty().then_some(()).ok_or(off_band)
}

pub(crate) fn cmd_sweep_beta(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let mut opts = CommonOpts::from_args(args)?;
    let from = args.f64("from")?;
    let to = args.f64("to")?;
    let steps = args.u64("steps")?;
    if steps < 2 || !(0.0..1.0).contains(&from) || !(0.0..1.0).contains(&to) || from > to {
        return Err(CliError::Usage(
            "sweep needs 0 <= from <= to < 1 and steps >= 2".into(),
        ));
    }
    let mut table = TextTable::new(["beta", "total (J)", "batch deliveries", "impercept. delay"]);
    for i in 0..steps {
        let beta = from + (to - from) * i as f64 / (steps - 1) as f64;
        opts.beta = beta;
        let r = opts.simulate(PolicyKind::Simty, SimConfig::new()).report();
        table.row([
            format!("{beta:.3}"),
            format!("{:.1}", r.energy.total_mj() / 1_000.0),
            r.entry_deliveries.to_string(),
            format!("{:.1}%", r.delays.imperceptible_avg * 100.0),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    Ok(())
}

pub(crate) fn cmd_estimate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = CommonOpts::from_args(args)?;
    let workload = opts.builder().build();
    let e = simty::sim::estimate::estimate(&workload.alarms, opts.duration, &PowerModel::nexus5());
    writeln!(
        out,
        "{} workload over {} h ({} alarms), closed-form envelope:\n",
        opts.workload_name(),
        opts.hours,
        workload.alarms.len()
    )?;
    for (label, mj, note) in [
        ("sleep floor", e.sleep_mj, ""),
        (
            "awake, no alignment",
            e.unaligned_awake_mj,
            "  (upper bound; ~EXACT)",
        ),
        (
            "awake, perfect align",
            e.best_case_awake_mj,
            "  (lower bound)",
        ),
    ] {
        writeln!(out, "  {label:<20} {:>9.1} J{note}", mj / 1_000.0)?;
    }
    writeln!(
        out,
        "  max achievable total saving: {:.1}%",
        e.max_saving() * 100.0
    )?;
    Ok(())
}

pub(crate) fn cmd_analyze(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args
        .get("trace")
        .ok_or_else(|| CliError::Usage("analyze requires --trace FILE".into()))?;
    let text = std::fs::read_to_string(path)?;
    let trace = simty::sim::Trace::read_csv(&text).map_err(|e| CliError::Usage(e.to_string()))?;
    let loaded = trace.deliveries().len();
    writeln!(out, "{loaded} deliveries loaded from {path}\n")?;
    writeln!(out, "{}", BatchHistogram::from_trace(&trace))?;
    writeln!(out, "\n{}", app_table(&trace, true))?;
    Ok(())
}

/// Per-app delivery statistics of a trace, with the mean gap between
/// deliveries when `gaps` is set.
fn app_table(trace: &simty::sim::Trace, gaps: bool) -> String {
    let headers = ["app", "deliveries", "mean delay", "max delay", "mean gap"];
    let mut table = TextTable::new(headers[..4 + usize::from(gaps)].iter().copied());
    for s in per_app_stats(trace) {
        let mut row = vec![
            s.app.clone(),
            s.deliveries.to_string(),
            format!("{:.1}%", s.mean_normalized_delay * 100.0),
            format!("{:.1}%", s.max_normalized_delay * 100.0),
        ];
        if gaps {
            row.push(s.mean_gap.map_or_else(|| "-".to_owned(), |g| g.to_string()));
        }
        table.row(row);
    }
    table.render()
}

pub(crate) fn cmd_catalog(_args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let mut table = TextTable::new(["app", "ReIn (s)", "alpha", "S/D", "hardware", "workloads"]);
    let light = simty::apps::catalog::light_workload_apps();
    let light_names: Vec<&str> = light.iter().map(|a| a.name.as_str()).collect();
    for app in simty::apps::catalog::heavy_workload_apps() {
        let in_light = light_names.contains(&app.name.as_str());
        table.row([
            app.name.clone(),
            app.repeat_secs.to_string(),
            format!("{:.2}", app.alpha),
            match app.repeat_kind {
                RepeatKind::Static => "S".to_owned(),
                RepeatKind::Dynamic => "D".to_owned(),
            },
            app.hardware.to_string(),
            if in_light { "L, H" } else { "H" }.to_owned(),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty::experiments::GridRun;
    use simty_bench::JsonValue;

    /// The deterministic view of the campaign document at `path`.
    fn view(path: &std::path::Path) -> JsonValue {
        let document = std::fs::read_to_string(path).unwrap();
        simty_bench::deterministic_view(&document).unwrap()
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut out = Vec::new();
        run_cli(&raw, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run(&["--help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("sweep-beta"));
        // No command at all also prints usage.
        assert!(run(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn catalog_lists_all_18_apps() {
        let text = run(&["catalog"]).unwrap();
        assert!(text.contains("Facebook"));
        assert!(text.contains("Cell Tracker"));
        assert_eq!(text.matches("Wi-Fi").count(), 11);
    }

    #[test]
    fn run_command_produces_a_report() {
        let text = run(&[
            "run",
            "--policy",
            "simty",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--apps",
        ])
        .unwrap();
        assert!(text.contains("SIMTY"));
        assert!(text.contains("batch-size histogram"));
        assert!(text.contains("Facebook"));
    }

    #[test]
    fn run_with_attribution_and_timeline() {
        let text = run(&[
            "run",
            "--policy",
            "native",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--attribution",
            "--timeline",
        ])
        .unwrap();
        assert!(text.contains("per-app energy attribution"));
        assert!(text.contains("wakeup timeline"));
    }

    #[test]
    fn synthetic_scenario_runs() {
        let text = run(&["run", "--scenario", "synthetic:15", "--hours", "1"]).unwrap();
        assert!(text.contains("SIMTY"));
        assert!(matches!(
            run(&["run", "--scenario", "synthetic:0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["run", "--scenario", "synthetic:lots"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fixed_policy_parses() {
        let text = run(&[
            "run",
            "--policy",
            "fixed:120",
            "--scenario",
            "light",
            "--hours",
            "1",
        ])
        .unwrap();
        assert!(text.contains("FIXED"));
    }

    #[test]
    fn compare_shows_every_policy() {
        let text = run(&["compare", "--scenario", "light", "--hours", "1"]).unwrap();
        for name in ["EXACT", "NATIVE", "SIMTY", "DURSIM", "FIXED"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn sweep_runs_the_grid_in_parallel() {
        let text = run(&[
            "sweep",
            "--policies",
            "native,simty",
            "--scenarios",
            "light",
            "--seeds",
            "2",
            "--hours",
            "1",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(text.contains("NATIVE/light/seed1"));
        assert!(text.contains("SIMTY/light/seed2"));
        assert!(text.contains("4 runs on 2 threads"));
        assert!(text.contains("runs/sec"));
    }

    #[test]
    fn sweep_writes_the_json_document() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_sweep.json");
        let path_str = path.to_str().unwrap().to_owned();
        let text = run(&[
            "sweep",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--json",
            &path_str,
        ])
        .unwrap();
        assert!(text.contains("sweep document written"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\":\"simty-bench-sweep/v1\""));
        assert!(json.contains("\"runs\":1"));
        assert!(json.contains("\"policy\":\"SIMTY\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_rejects_bad_grids() {
        for bad in [
            vec!["sweep", "--policies", "bogus"],
            vec!["sweep", "--scenarios", "synthetic:5"],
            vec!["sweep", "--seeds", "0"],
            vec!["sweep", "--betas", "1.5"],
            vec!["sweep", "--betas", "abc"],
            vec!["sweep", "--betas", "0.5,0.5"],
            vec!["sweep", "--policies", "native,native"],
            vec!["sweep", "--scenarios", "light,heavy,light"],
            vec!["sweep", "--threads", "0"],
            vec!["sweep", "--hours", "5124095576031"],
        ] {
            assert!(
                matches!(run(&bad), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn chaos_runs_a_small_campaign() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_chaos.json");
        let path_str = path.to_str().unwrap().to_owned();
        let text = run(&[
            "chaos",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--profiles",
            "baseline,overruns",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--threads",
            "2",
            "--json",
            &path_str,
        ])
        .unwrap();
        assert!(text.contains("SIMTY/light/baseline/seed1"));
        assert!(text.contains("SIMTY/light/overruns/seed1"));
        assert!(text.contains("2 chaos cells, 0 invariant violations"));
        assert!(text.contains("chaos document written"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\":\"simty-bench-chaos/v1\""));
        assert!(json.contains("\"policy\":\"SIMTY\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn soak_runs_a_small_campaign() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_soak.json");
        let path_str = path.to_str().unwrap().to_owned();
        let text = run(&[
            "soak",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--profiles",
            "single-reboot,bitflip",
            "--seeds",
            "1",
            "--hours",
            "2",
            "--threads",
            "2",
            "--json",
            &path_str,
        ])
        .unwrap();
        assert!(text.contains("SIMTY/light/single-reboot/seed1"));
        assert!(text.contains("SIMTY/light/bitflip/seed1"));
        assert!(text.contains("2 soak cells, 0 perceptible-window misses, recovery clean"));
        assert!(text.contains("soak document written"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\":\"simty-bench-soak/v1\""));
        assert!(json.contains("\"resumed_identical\":true"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn storm_runs_a_small_campaign() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_storm.json");
        let path_str = path.to_str().unwrap().to_owned();
        let text = run(&[
            "storm",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--profiles",
            "quota-storm,drain-critical",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--threads",
            "2",
            "--json",
            &path_str,
        ])
        .unwrap();
        assert!(text.contains("SIMTY/light/quota-storm/seed1"));
        assert!(text.contains("SIMTY/light/drain-critical/seed1"));
        assert!(text.contains("2 storm cells, 0 perceptible-window misses, resume clean"));
        assert!(text.contains("storm document written"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\":\"simty-bench-storm/v1\""));
        assert!(json.contains("\"resumed_identical\":true"));
        assert!(json.contains("\"final_tier\":\"critical\""));
        std::fs::remove_file(&path).ok();
    }

    /// Every campaign rejects the same malformed grid flags; `repeated`
    /// lists one of its profiles twice.
    fn rejects_bad_grids(campaign: &str, repeated: &str) {
        for bad in [
            ["--profiles", "bogus"],
            ["--profiles", repeated],
            ["--policies", "bogus"],
            ["--policies", "native,native"],
            ["--scenarios", "synthetic:5"],
            ["--scenarios", "light,light"],
            ["--seeds", "0"],
            ["--hours", "5124095576031"],
        ] {
            let args = [campaign, bad[0], bad[1]];
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "expected usage error for {args:?}"
            );
        }
    }

    #[test]
    fn chaos_rejects_bad_grids() {
        rejects_bad_grids("chaos", "mixed,jitter,mixed");
    }

    #[test]
    fn soak_rejects_bad_grids() {
        rejects_bad_grids("soak", "bitflip,bitflip");
    }

    #[test]
    fn storm_rejects_bad_grids() {
        rejects_bad_grids("storm", "quota-storm,quota-storm");
    }

    #[test]
    fn sweep_beta_runs_the_requested_steps() {
        let text = run(&[
            "sweep-beta",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--from",
            "0.5",
            "--to",
            "0.9",
            "--steps",
            "3",
        ])
        .unwrap();
        assert!(text.contains("0.500"));
        assert!(text.contains("0.700"));
        assert!(text.contains("0.900"));
    }

    #[test]
    fn explain_names_the_table1_ranks() {
        let text = run(&[
            "explain",
            "--policy",
            "simty",
            "--scenario",
            "heavy",
            "--hours",
            "1",
        ])
        .unwrap();
        assert!(text.contains("placement decisions under SIMTY"));
        assert!(text.contains("batched into entry #"));
        assert!(text.contains("table1_rank="));
        assert!(text.contains("-> won"));
        assert!(text.contains("decisions:"));
    }

    #[test]
    fn explain_audits_native_candidates() {
        let text = run(&[
            "explain",
            "--policy",
            "native",
            "--scenario",
            "light",
            "--hours",
            "1",
        ])
        .unwrap();
        assert!(text.contains("placement decisions under NATIVE"));
        // NATIVE's winner is the first window-overlapping entry: its row
        // shows high time similarity and no Table 1 ranks.
        assert!(text.lines().any(|line| line.starts_with("    entry #")
            && line.ends_with(": time=high hw_rank=- table1_rank=- -> won")));
    }

    #[test]
    fn explain_jsonl_is_machine_readable() {
        let text = run(&[
            "explain",
            "--policy",
            "simty",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--jsonl",
        ])
        .unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line}"
            );
        }
        assert!(text.contains("\"preferability\""));
        assert!(text.contains("\"verdict\":\"won\""));
        // Some candidate carried both Table 1 ranks and won.
        let ranked_win = |candidate: &JsonValue| {
            let ranked = |key| candidate.get(key).is_some_and(|v| *v != JsonValue::Null);
            ranked("hw_rank")
                && ranked("preferability")
                && candidate.get("verdict").and_then(JsonValue::as_str) == Some("won")
        };
        assert!(text.lines().any(|line| {
            match JsonValue::parse(line).unwrap().get("candidates") {
                Some(JsonValue::Arr(candidates)) => candidates.iter().any(ranked_win),
                _ => false,
            }
        }));
    }

    #[test]
    fn metrics_formats_render() {
        let expose = run(&[
            "metrics",
            "--policy",
            "simty",
            "--scenario",
            "light",
            "--hours",
            "1",
        ])
        .unwrap();
        assert!(expose.contains("# HELP sim_wakeups_total"));
        assert!(expose.contains("sim_entry_deliveries_total"));
        assert!(expose.contains("sim_placements_total"));
        assert!(expose.contains("sim_entry_size_bucket"));

        let json = run(&[
            "metrics",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(json.trim().starts_with('{') && json.trim().ends_with('}'));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));

        let spans = run(&[
            "metrics",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--format",
            "spans",
        ])
        .unwrap();
        assert!(spans.contains("\"kind\":\"wake_cycle\""));
        assert!(spans.contains("\"kind\":\"policy_place\""));

        assert!(matches!(
            run(&["metrics", "--format", "bogus", "--hours", "1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn run_then_analyze_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_trace.csv");
        let path_str = path.to_str().unwrap().to_owned();
        run(&[
            "run",
            "--policy",
            "native",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--trace",
            &path_str,
        ])
        .unwrap();
        let text = run(&["analyze", "--trace", &path_str]).unwrap();
        assert!(text.contains("deliveries loaded"));
        assert!(text.contains("Facebook"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_requires_a_trace() {
        assert!(matches!(run(&["analyze"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn json_output_is_machine_readable() {
        let text = run(&[
            "run",
            "--policy",
            "native",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--json",
        ])
        .unwrap();
        let json = text.trim();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"policy\":\"NATIVE\""));
        // JSON mode suppresses the human-readable report.
        assert!(!text.contains("batch-size histogram"));
    }

    #[test]
    fn estimate_prints_the_envelope() {
        let text = run(&["estimate", "--scenario", "light", "--hours", "3"]).unwrap();
        assert!(text.contains("sleep floor"));
        assert!(text.contains("no alignment"));
        assert!(text.contains("max achievable"));
    }

    #[test]
    fn diff_compares_two_policies() {
        let text = run(&[
            "diff",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--policy-a",
            "exact",
            "--policy-b",
            "simty",
        ])
        .unwrap();
        assert!(text.contains("EXACT"));
        assert!(text.contains("SIMTY"));
        assert!(text.contains("Facebook"));
        assert!(text.contains("saved"));
    }

    #[test]
    fn custom_workload_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_workload.txt");
        std::fs::write(
            &path,
            "Chat 120 0.5 D wifi 2000\nTracker 300 0.75 S wps 8000\n",
        )
        .unwrap();
        let path_str = path.to_str().unwrap();
        let text = run(&["compare", "--workload", path_str, "--hours", "1"]).unwrap();
        assert!(text.contains("custom workload"));
        assert!(text.contains("SIMTY"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_workload_file_is_an_io_error() {
        assert!(matches!(
            run(&[
                "run",
                "--workload",
                "/nonexistent/simty.spec",
                "--hours",
                "1"
            ]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Io(io::Error::other("x")).exit_code(), 3);
        assert_eq!(CliError::Invariants(1).exit_code(), 4);
        assert_eq!(CliError::Recovery("x".into()).exit_code(), 5);
        assert_eq!(CliError::Harness("x".into()).exit_code(), 6);
        assert_eq!(CliError::Regression("x".into()).exit_code(), 7);
        assert_eq!(CliError::Serve("x".into()).exit_code(), 8);
    }

    #[test]
    fn only_usage_errors_point_at_the_help() {
        let hint = "\nrun `standby --help` for usage";
        let unknown_flag = run(&["run", "--polcy", "simty"]).unwrap_err();
        for (error, usage) in [
            (unknown_flag, true),
            (CliError::Usage("x".into()), true),
            (CliError::Io(io::Error::other("x")), false),
            (CliError::Invariants(1), false),
            (CliError::Recovery("x".into()), false),
            (CliError::Harness("x".into()), false),
            (CliError::Regression("x".into()), false),
            (CliError::Serve("x".into()), false),
        ] {
            let message = error.message();
            assert!(message.starts_with("standby: "), "{message}");
            assert_eq!(message.ends_with(hint), usage, "{message}");
        }
    }

    #[test]
    fn serve_load_emits_the_serve_document() {
        let text = run(&[
            "serve-load",
            "--connections",
            "30",
            "--concurrency",
            "4",
            "--tenants",
            "2",
            "--seed",
            "3",
            "--workers",
            "2",
            "--queue-depth",
            "2",
        ])
        .unwrap();
        assert!(text.contains("\"schema\": \"simty-serve/v1\""), "{text}");
        assert!(
            text.contains("\"server\""),
            "self-hosted run must fold in the drain report"
        );
        assert!(text.contains("\"invariant_violations\": 0"), "{text}");
    }

    #[test]
    fn serve_drains_on_schedule_and_rejects_bad_flags() {
        let text = run(&["serve", "--addr", "127.0.0.1:0", "--drain-after-ms", "150"]).unwrap();
        assert!(text.contains("listening on 127.0.0.1:"), "{text}");
        assert!(text.contains("\"invariant_violations\": 0"), "{text}");
        assert!(matches!(
            run(&["serve", "--fault", "bogus"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "--addr", "127.0.0.1:0", "--policy", "nope"]),
            Err(CliError::Serve(_))
        ));
        assert!(matches!(
            run(&["serve-load", "--connections", "1", "--fault", "nope"]),
            Err(CliError::Usage(_))
        ));

        // A state dir resumes only under the policy of its snapshot.
        let dir =
            std::env::temp_dir().join(format!("simty_cli_serve_state_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state_dir = dir.to_str().unwrap();
        let serve = |policy: &str| {
            run(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--drain-after-ms",
                "50",
                "--state-dir",
                state_dir,
                "--policy",
                policy,
            ])
        };
        let text = serve("simty").unwrap();
        assert!(text.contains("\"checkpoint\": "), "{text}");
        let err = serve("native").unwrap_err();
        assert_eq!(err.exit_code(), 8);
        let message = err.to_string();
        assert!(
            message.contains("`native`") && message.contains("`simty`"),
            "{message}"
        );
        assert!(serve("simty").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_exports_chrome_trace_events() {
        let dir = std::env::temp_dir().join(format!("simty_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let path_str = path.to_str().unwrap();
        let text = run(&[
            "trace",
            "--policies",
            "native,simty",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--out",
            path_str,
        ])
        .unwrap();
        assert!(text.contains("trace written to"), "{text}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("NATIVE"));
        assert!(trace.contains("SIMTY"));
        assert!(trace.contains("\"ph\":\"X\""));
        let trace = JsonValue::parse(&trace).unwrap();
        fn str_of<'e>(event: &'e JsonValue, key: &str) -> Option<&'e str> {
            event.get(key).and_then(JsonValue::as_str)
        }
        assert_eq!(str_of(&trace, "displayTimeUnit"), Some("ms"));
        let Some(JsonValue::Arr(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let metadata: Vec<_> = events
            .iter()
            .filter(|event| str_of(event, "ph") == Some("M"))
            .filter_map(|event| str_of(event, "name"))
            .collect();
        assert!(metadata.contains(&"process_name") && metadata.contains(&"thread_name"));
        assert!(events
            .iter()
            .all(|event| event.get("pid") == Some(&JsonValue::Num(0.0))));
        // --out is mandatory.
        assert!(matches!(
            run(&["trace", "--hours", "1"]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_diff_gates_on_regressions() {
        let dir = std::env::temp_dir().join(format!("simty_cli_diff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("sweep.json");
        let doc_str = doc.to_str().unwrap().to_owned();
        run(&[
            "sweep",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--json",
            &doc_str,
        ])
        .unwrap();

        // A document diffed against itself is clean.
        let text = run(&["bench", "diff", &doc_str, &doc_str]).unwrap();
        assert!(text.contains("no regressions"), "{text}");

        // Inject a deterministic-payload regression (wakeup drift) and
        // the gate must trip with the regression exit class.
        let original = std::fs::read_to_string(&doc).unwrap();
        let needle = "\"cpu_wakeups\":";
        let at = original.find(needle).expect("report has cpu_wakeups") + needle.len();
        let end = at + original[at..].find([',', '}']).unwrap();
        let wakeups: f64 = original[at..end].trim().parse().unwrap();
        let doctored = original.replacen(
            &format!("{needle}{}", &original[at..end]),
            &format!("{needle}{}", wakeups * 2.0),
            1,
        );
        let bad = dir.join("doctored.json");
        let bad_str = bad.to_str().unwrap().to_owned();
        std::fs::write(&bad, doctored).unwrap();
        assert!(matches!(
            run(&["bench", "diff", &doc_str, &bad_str]),
            Err(CliError::Regression(_))
        ));

        // Printing the regressions into a closed pipe still fails.
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let args: Vec<String> = ["bench", "diff", &doc_str, &bad_str]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run_cli(&args, &mut Closed), Err(CliError::Io(_))));

        // Usage errors: unknown subcommand, wrong arity, and the
        // threshold flags, which are gone.
        assert!(matches!(run(&["bench"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["bench", "prof"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["bench", "diff", &doc_str]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench", "diff", &doc_str, &doc_str, "--max-ratio", "zero"]),
            Err(CliError::Args(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_diff_understands_the_serve_document() {
        let dir = std::env::temp_dir().join(format!("simty_cli_sdiff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        let new = dir.join("new.json");
        let old_str = old.to_str().unwrap().to_owned();
        let new_str = new.to_str().unwrap().to_owned();
        for path in [&old_str, &new_str] {
            run(&[
                "serve-load",
                "--connections",
                "20",
                "--concurrency",
                "4",
                "--tenants",
                "2",
                "--seed",
                "11",
                "--json",
                path,
            ])
            .unwrap();
        }

        // Two runs of the same drill differ only in free-moving traffic
        // tallies and ratio-gated wall clocks; the serve schema must
        // diff clean, not error as an unknown kind.
        let text = run(&["bench", "diff", &old_str, &new_str]).unwrap();
        assert!(text.contains("bench diff simty-serve/v1"), "{text}");
        assert!(text.contains("no regressions"), "{text}");

        // A doctored invariant violation trips the gate.
        let doctored = std::fs::read_to_string(&new).unwrap().replacen(
            "\"invariant_violations\": 0",
            "\"invariant_violations\": 2",
            1,
        );
        std::fs::write(&new, doctored).unwrap();
        assert!(matches!(
            run(&["bench", "diff", &old_str, &new_str]),
            Err(CliError::Regression(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_streams_telemetry_events_to_a_file() {
        let dir = std::env::temp_dir().join(format!("simty_cli_events_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let events_str = events.to_str().unwrap().to_owned();
        let json = dir.join("sweep.json");
        let json_str = json.to_str().unwrap().to_owned();
        run(&[
            "sweep",
            "--policies",
            "native,simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--events",
            &events_str,
            "--json",
            &json_str,
        ])
        .unwrap();
        let lines: Vec<String> = std::fs::read_to_string(&events)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        // Two cells: started + finished for each.
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"cell_started\""))
                .count(),
            2,
            "{lines:?}"
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"cell_finished\""))
                .count(),
            2,
            "{lines:?}"
        );
        assert!(lines.iter().all(|l| l.starts_with("{\"wall_ms\":")));

        // The telemetry stream must not perturb the deterministic
        // document payload: rerun without --events and compare the views.
        let json2 = dir.join("sweep2.json");
        let json2_str = json2.to_str().unwrap().to_owned();
        run(&[
            "sweep",
            "--policies",
            "native,simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--json",
            &json2_str,
        ])
        .unwrap();
        assert_eq!(
            view(&json),
            view(&json2),
            "telemetry must not change the deterministic payload"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_prints_the_harness_summary() {
        let text = run(&[
            "sweep",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
        ])
        .unwrap();
        assert!(text.contains("harness: 1 cells (1 ok, 0 retried, 0 poisoned)"));
        assert!(text.contains("0 journal-restored"));
    }

    #[test]
    fn sweep_quarantines_an_injected_panic() {
        let err = run(&[
            "sweep",
            "--policies",
            "native,simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--inject-panic",
            "0",
        ])
        .unwrap_err();
        let CliError::Harness(msg) = err else {
            panic!("expected a harness error, got {err:?}");
        };
        assert!(msg.contains("1 cell(s) quarantined"), "{msg}");
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn sweep_resume_restores_journaled_cells() {
        let dir =
            std::env::temp_dir().join(format!("simty_cli_test_resume_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_owned();
        let json_a = dir.join("a.json");
        let json_b = dir.join("b.json");
        std::fs::create_dir_all(&dir).unwrap();
        let sweep_args = |json: &std::path::Path| {
            vec![
                "sweep".to_owned(),
                "--policies".to_owned(),
                "native,simty".to_owned(),
                "--scenarios".to_owned(),
                "light".to_owned(),
                "--seeds".to_owned(),
                "1".to_owned(),
                "--hours".to_owned(),
                "1".to_owned(),
                "--resume".to_owned(),
                dir_str.clone(),
                "--json".to_owned(),
                json.to_str().unwrap().to_owned(),
            ]
        };
        let args_a = sweep_args(&json_a);
        let first = run(&args_a.iter().map(String::as_str).collect::<Vec<_>>()).unwrap();
        assert!(first.contains("0 journal-restored"));
        let args_b = sweep_args(&json_b);
        let second = run(&args_b.iter().map(String::as_str).collect::<Vec<_>>()).unwrap();
        assert!(second.contains("2 journal-restored"));
        // The documents carry wall-clock timings (and the restored
        // run's per-cell wall is zero), so compare their views.
        assert_eq!(
            view(&json_a),
            view(&json_b),
            "resumed results must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fully_journaled_sweep_reports_no_rate_and_no_overhead() {
        for (no_obs, tag) in [(false, "obs"), (true, "no_obs")] {
            let dir = std::env::temp_dir().join(format!(
                "simty_cli_test_full_resume_{tag}_{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let dir_str = dir.to_str().unwrap().to_owned();
            let mut args = vec![
                "sweep",
                "--policies",
                "native,simty",
                "--scenarios",
                "light",
                "--seeds",
                "1",
                "--hours",
                "1",
                "--resume",
                &dir_str,
            ];
            if no_obs {
                args.push("--no-obs");
            }
            let first = run(&args).unwrap();
            let second = run(&args).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert!(first.contains("runs/sec;"), "{first}");
            assert!(second.contains("2 journal-restored"), "{second}");
            assert!(second.contains("(2 journal-restored; "), "{second}");
            assert!(!second.contains("runs/sec"), "{second}");
            let overhead = |text: &str| {
                text.lines()
                    .find(|l| l.starts_with("observability overhead:"))
                    .map(str::to_owned)
            };
            if no_obs {
                let measured = overhead(&first).expect("overhead line");
                assert!(measured.contains("(sequential sums; "), "{measured}");
                assert!(!measured.contains("+-"), "{measured}");
                assert_eq!(
                    overhead(&second).as_deref(),
                    Some("observability overhead: unmeasured (2 cells restored from the journal)")
                );
            } else {
                assert_eq!(overhead(&second), None);
            }
        }
    }

    #[test]
    fn chaos_resume_restores_journaled_cells() {
        let dir = std::env::temp_dir().join(format!(
            "simty_cli_test_chaos_resume_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_owned();
        let args = [
            "chaos",
            "--policies",
            "simty",
            "--scenarios",
            "light",
            "--profiles",
            "baseline",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--resume",
            &dir_str,
        ];
        let first = run(&args).unwrap();
        assert!(first.contains("harness: 1 cells (1 ok"));
        assert!(first.contains("0 journal-restored"));
        let second = run(&args).unwrap();
        assert!(second.contains("1 journal-restored"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_runs_a_small_campaign() {
        let dir = std::env::temp_dir();
        let path = dir.join("simty_cli_test_fleet.json");
        let path_str = path.to_str().unwrap().to_owned();
        let text = run(&[
            "fleet",
            "--devices",
            "6",
            "--shards",
            "2",
            "--policies",
            "simty",
            "--minutes",
            "5",
            "--threads",
            "2",
            "--json",
            &path_str,
        ])
        .unwrap();
        assert!(text.contains("SIMTY/shard00"), "{text}");
        assert!(text.contains("SIMTY/shard01"), "{text}");
        assert!(text.contains("harness: 2 cells (2 ok"), "{text}");
        assert!(text.contains("devices/sec"), "{text}");
        assert!(text.contains("fleet document written"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\":\"simty-fleet/v1\""));
        assert!(json.contains("\"policy\":\"SIMTY\""));
        assert!(json.contains("fleet_device_power_mw"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_quarantines_an_injected_panic() {
        let err = run(&[
            "fleet",
            "--devices",
            "4",
            "--shards",
            "2",
            "--policies",
            "simty",
            "--minutes",
            "5",
            "--inject-panic",
            "0",
        ])
        .unwrap_err();
        let CliError::Harness(msg) = err else {
            panic!("expected a harness error, got {err:?}");
        };
        assert!(msg.contains("1 cell(s) quarantined"), "{msg}");
        assert!(msg.contains("injected panic (cell 0)"), "{msg}");
    }

    #[test]
    fn fleet_rejects_bad_shapes() {
        for bad in [
            vec!["fleet", "--devices", "0"],
            vec!["fleet", "--shards", "0"],
            vec!["fleet", "--devices", "2", "--shards", "4"],
            vec!["fleet", "--policies", "bogus"],
            vec!["fleet", "--policies", "simty,native,simty"],
            vec!["fleet", "--beta", "1.5"],
            vec!["fleet", "--minutes", "0"],
            vec!["fleet", "--deadline", "0"],
            vec!["fleet", "--inject-panic", "abc"],
            vec!["fleet", "--minutes", "307445734561826"],
        ] {
            assert!(
                matches!(run(&bad), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn fleet_resume_restores_shards() {
        let dir = std::env::temp_dir().join(format!(
            "simty_cli_test_fleet_resume_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_owned();
        let args = [
            "fleet",
            "--devices",
            "6",
            "--shards",
            "2",
            "--policies",
            "simty",
            "--minutes",
            "5",
            "--ckpt-stride",
            "2",
            "--resume",
            &dir_str,
        ];
        let first = run(&args).unwrap();
        assert!(first.contains("0 journal-restored"), "{first}");
        let second = run(&args).unwrap();
        assert!(second.contains("2 journal-restored"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resumes `first`'s journal with `second`: a journal of another
    /// grid must be a harness error (exit 6), never restored cells.
    fn resume_mismatch(tag: &str, first: &[&str], second: &[&str]) -> CliError {
        let dir = std::env::temp_dir().join(format!(
            "simty_cli_test_resume_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_owned();
        let with_resume = |args: &[&str]| {
            let mut args = args.to_vec();
            args.extend(["--resume", &dir_str]);
            run(&args)
        };
        with_resume(first).unwrap();
        let err = with_resume(second).expect_err("a journal of another grid restored");
        std::fs::remove_dir_all(&dir).ok();
        err
    }

    #[test]
    fn fleet_resume_over_another_population_is_a_harness_error() {
        let fleet = [
            "fleet",
            "--devices",
            "20",
            "--shards",
            "2",
            "--minutes",
            "5",
        ];
        let other = [&fleet[..], &["--devices", "40", "--seed", "9"]].concat();
        let err = resume_mismatch("fleet", &fleet, &other);
        assert_eq!(err.exit_code(), 6, "{err}");
        assert!(err.to_string().contains("different kind or grid"), "{err}");
    }

    #[test]
    fn uninstrumented_sweep_resume_over_an_instrumented_journal_is_a_harness_error() {
        let sweep = ["sweep", "--policies", "native", "--scenarios", "light"];
        let sweep = [&sweep[..], &["--seeds", "1", "--hours", "1"]].concat();
        let no_obs = [&sweep[..], &["--no-obs"]].concat();
        let err = resume_mismatch("no_obs", &sweep, &no_obs);
        assert_eq!(err.exit_code(), 6, "{err}");
    }

    #[test]
    fn campaign_flags_reject_bad_injection_indices() {
        assert!(matches!(
            run(&["sweep", "--inject-panic", "abc"]),
            Err(CliError::Usage(_))
        ));
        // A target past the last cell would inject nothing and pass the
        // drill vacuously: the sweep has 1 cell and the fleet 2 shards.
        let sweep = ["sweep", "--policies", "native", "--scenarios", "light"];
        let sweep = [
            &sweep[..],
            &["--seeds", "1", "--hours", "1", "--betas", "0.5"],
        ]
        .concat();
        let fleet = [
            "fleet",
            "--devices",
            "4",
            "--shards",
            "2",
            "--policies",
            "simty",
        ];
        let fleet = [&fleet[..], &["--minutes", "5"]].concat();
        for (grid, past_the_end) in [(&sweep, "1"), (&sweep, "5"), (&fleet, "2")] {
            let args = [&grid[..], &["--inject-panic", past_the_end]].concat();
            match run(&args) {
                Err(err @ CliError::Usage(_)) => {
                    assert_eq!(err.exit_code(), 2);
                    assert!(err.to_string().contains("past the last cell"), "{err}");
                }
                other => panic!("expected a usage error for {args:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn repro_exits_7_when_simty_runs_at_beta_zero() {
        let grid = PaperGrid::run_with(|run| match run {
            GridRun::Spec(s) if s.policy == PolicyKind::Simty => GridRun::Spec(s.with_beta(0.0)),
            run => run,
        });
        let outcomes = paper::evaluate(&grid);
        let failed = paper::failures(&outcomes);
        for id in ["fig3.light.total_saving", "table4.light.cpu_cut"] {
            assert!(failed.contains(&id), "{id} holds at beta 0: {failed:?}");
        }
        let mut out = Vec::new();
        let err = report_repro(&outcomes, &mut out).expect_err("gates fail");
        assert_eq!(err.exit_code(), 7);
        assert!(String::from_utf8(out).unwrap().contains("**FAIL**"));
    }

    #[test]
    fn repro_exits_7_when_simty_stands_in_for_dursim_on_the_duration_mix() {
        let grid = PaperGrid::run_with(|run| match run {
            GridRun::DurationMix(PolicyKind::Dursim) => GridRun::DurationMix(PolicyKind::Simty),
            run => run,
        });
        let outcomes = paper::evaluate(&grid);
        let failed = paper::failures(&outcomes);
        let mix = [
            "ablation.mix.dursim_over_simty.wifi",
            "ablation.mix.dursim_over_simty.wifi_hold",
        ];
        assert_eq!(failed, mix, "only the duration-mix gates fail");
        let mut out = Vec::new();
        let err = report_repro(&outcomes, &mut out).expect_err("gates fail");
        assert_eq!(err.exit_code(), 7);
        assert!(String::from_utf8(out).unwrap().contains("**FAIL**"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["run", "--policy", "bogus"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["run", "--polcy", "simty"]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            run(&["run", "--hours", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["sweep-beta", "--from", "0.9", "--to", "0.5"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["run", "--policy", "fixed:0"]),
            Err(CliError::Usage(_))
        ));
        // Hours whose milliseconds overflow the clock are refused, not
        // wrapped into a short run.
        assert!(matches!(
            run(&["run", "--hours", "5124095576031"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn flags_are_typed_by_their_declaration() {
        // A value flag needs a value, and a switch takes none: each of
        // these once ran with the flag silently ignored or misread.
        for bad in [
            vec!["run", "--policy", "--json"],
            vec!["run", "--json", "out.json"],
            vec!["run", "--timeline", "yes"],
            vec!["run", "--waveform"],
            vec![
                "sweep",
                "--policies",
                "simty",
                "--scenarios",
                "light",
                "--seeds",
                "1",
                "--hours",
                "1",
                "--json",
            ],
            vec![
                "fleet",
                "--devices",
                "2",
                "--shards",
                "1",
                "--policies",
                "simty",
                "--minutes",
                "1",
                "--resume",
            ],
        ] {
            let err = run(&bad).expect_err("a mistyped flag is rejected");
            assert!(
                matches!(
                    err,
                    CliError::Args(
                        ParseArgsError::MissingValue { .. }
                            | ParseArgsError::UnexpectedPositional { .. }
                    )
                ),
                "{bad:?}: {err:?}"
            );
            assert_eq!(err.exit_code(), 2);
        }
    }
}
