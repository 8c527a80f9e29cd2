//! The campaign kernel: the one executor behind the sweep, chaos, soak,
//! storm and fleet campaigns.
//!
//! The sweep, [`crate::sweep::Grid`], runs the paper's evaluation grid:
//! one [`RunSpec`](simty::experiments::RunSpec) cell per scenario ×
//! policy × seed × β. The next three test the paper's guarantee —
//! perceptible alarms never slip past their windows — against a
//! different adversary: a faulty device ([`crate::chaos`]), long horizons
//! with reboots and rotting snapshots ([`crate::soak`]), and registration
//! overload ([`crate::storm`]); their cells are a policy × scenario ×
//! profile × seed grid ([`matrix`]) of [`CampaignSpec`]s. The fifth,
//! [`crate::fleet`], measures the paper's energy saving over a device
//! population, one cell per shard. All five share everything else:
//! [`run_campaign`] fans their [`Cell`]s out on `std::thread` workers
//! under the [supervisor](crate::supervisor), journals each completed
//! cell, and collects the [`Outcome`]s in cell order into a
//! [`CampaignResults`] that aggregates them per policy and serializes to
//! the campaign's document. Results are byte-identical regardless of
//! thread count, completion order, and how many cells a `--resume`
//! journal restored.
//!
//! A campaign supplies only what differs, through the [`Campaign`]
//! trait: its cell type, how a cell runs, the per-cell [`Drill`] payload
//! the cell reports beside its [`SimReport`] (journaled through the
//! [`Field`] codec), and its per-policy aggregate.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simty::apps::Workload;
use simty::core::SimDuration;
use simty::experiments::{PolicyKind, Scenario};
use simty::obs::telemetry::{EventKind, TelemetrySink};
use simty::obs::{QuantileSummary, StageProfile};
use simty::sim::codec::{self, Field};
use simty::sim::json::report_to_json;
use simty::sim::{Checkpoint, CheckpointError, RealVfs, SimConfig, SimReport, Simulation};

use crate::journal::{CampaignJournal, JournalError};
use crate::json::{json_array, json_object, ToJson};
use crate::supervisor::{supervise, CellStatus, HarnessStats, SupervisorConfig};

/// A campaign's named adversaries: one profile per grid column.
pub trait Profile: Copy + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Every profile, in campaign order.
    const ALL: &'static [Self];

    /// What one profile is called in messages (`fault`, `soak`, ...).
    const NOUN: &'static str;

    /// The profile's CLI / report name.
    fn name(self) -> &'static str;

    /// Parses a profile name (the inverse of [`name`](Self::name)).
    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// Declares a campaign's profiles once, in campaign order:
/// `profiles!(Ty, "noun" { A = "a", B = "b" })` implements [`Profile`]
/// with `ALL` as listed and each variant's name.
macro_rules! profiles {
    ($ty:ident, $noun:literal { $($v:ident = $name:literal),+ $(,)? }) => {
        impl $crate::campaign::Profile for $ty {
            const ALL: &'static [Self] = &[$(Self::$v),+];
            const NOUN: &'static str = $noun;
            fn name(self) -> &'static str {
                match self {
                    $(Self::$v => $name),+
                }
            }
        }
    };
}
pub(crate) use profiles;

/// One cell of a campaign: what the kernel labels, journals and groups
/// by policy.
pub trait Cell: Clone + fmt::Debug + Send + Sync + 'static {
    /// The cell's label, as journaled and reported.
    fn label(&self) -> String;

    /// The alignment policy the cell runs.
    fn policy(&self) -> PolicyKind;

    /// The fields that lead the cell's row in the campaign's document,
    /// as `(key, JSON value)` pairs.
    fn row(&self) -> Vec<(&'static str, String)>;
}

/// What a cell's drill observed beside its straight-through report
/// (`()` for campaigns without one). The payload rides the campaign
/// journal's `extra` field in its [`Field`] form, so a journal-restored
/// cell keeps it.
pub trait Drill: Field + Clone + Default + fmt::Debug + Send + Sync + 'static {
    /// The payload's per-cell document fields as `(key, JSON value)`
    /// pairs; `drill` is `None` for a quarantined cell, whose fields are
    /// `null`. None by default.
    fn cell_fields(_drill: Option<&Self>) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// Whether the drill restored and matched bytes (it did, by
    /// default).
    fn recovered(&self) -> bool {
        true
    }
}

impl Drill for () {}

/// What differs between campaigns; the kernel does the rest.
pub trait Campaign: Sized + 'static {
    /// The campaign's cell.
    type Cell: Cell;
    /// The per-cell drill payload.
    type Drill: Drill;
    /// The per-policy aggregate over completed cells.
    type Aggregate;

    /// The campaign kind: the journal kind and the `<kind>` of the
    /// `simty-bench-<kind>/v1` document schema.
    const KIND: &'static str;

    /// Builds and runs one cell to the end, then its drill, under the
    /// campaign's harness `options`.
    fn run_cell(cell: &Self::Cell, options: &CampaignOptions) -> (SimReport, Self::Drill);

    /// Runs one cell as [`run_cell`](Self::run_cell) does, with the
    /// engine's per-stage profile when the campaign keeps one (none by
    /// default).
    fn run_profiled(
        cell: &Self::Cell,
        options: &CampaignOptions,
    ) -> (SimReport, Self::Drill, Option<StageProfile>) {
        let (report, drill) = Self::run_cell(cell, options);
        (report, drill, None)
    }

    /// Called once `cell`'s journal record has been appended (never
    /// without a journal or when the append fails): drops what only a
    /// resume in the middle of the cell could use. Nothing by default.
    fn journaled(_cell: &Self::Cell, _options: &CampaignOptions) {}

    /// Folds one policy's completed cells into its aggregate.
    fn aggregate(policy: String, cells: &[(&SimReport, Self::Drill)]) -> Self::Aggregate;

    /// Serializes one aggregate as a JSON object.
    fn aggregate_json(aggregate: &Self::Aggregate) -> String;

    /// What, beyond the cell labels, decides the cells' bytes: the
    /// journal's identity (see [`crate::journal::grid_digest`]), so a
    /// journal of another grid is a [`JournalError::Mismatch`]. Nothing
    /// by default.
    fn journal_identity(_cells: &[Self::Cell]) -> String {
        String::new()
    }

    /// The per-policy aggregates: by default one per policy over its
    /// completed cells ([`aggregate`](Self::aggregate)), sorted by
    /// policy name.
    fn aggregates(results: &CampaignResults<Self>) -> Vec<Self::Aggregate> {
        let mut by_policy: BTreeMap<String, Vec<(&SimReport, Self::Drill)>> = BTreeMap::new();
        for (cell, report, drill) in results.completed() {
            by_policy
                .entry(cell.policy().name())
                .or_default()
                .push((report, drill));
        }
        by_policy
            .into_iter()
            .map(|(policy, cells)| Self::aggregate(policy, &cells))
            .collect()
    }

    /// The campaign's document, whose fields [`crate::schema`] declares.
    /// By default the `simty-bench-<kind>/v1` grid document with no
    /// per-invocation fields of its own.
    fn document(results: &CampaignResults<Self>) -> String {
        results.grid_document("")
    }
}

/// One campaign cell: a policy defending a scenario against a profile
/// under a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec<P> {
    /// The alignment policy under test.
    pub policy: PolicyKind,
    /// The workload scenario.
    pub scenario: Scenario,
    /// The adversary.
    pub profile: P,
    /// RNG seed shared by the workload and the adversary.
    pub seed: u64,
    /// Simulated span.
    pub duration: SimDuration,
}

impl<P: Profile> Cell for CampaignSpec<P> {
    /// A compact identity for sweep outputs, e.g.
    /// `SIMTY/heavy/mixed/seed1/3600s`.
    fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}/{}s",
            self.policy.name(),
            self.scenario.name(),
            self.profile.name(),
            self.seed,
            self.duration.as_millis() / 1_000
        )
    }

    fn policy(&self) -> PolicyKind {
        self.policy
    }

    fn row(&self) -> Vec<(&'static str, String)> {
        vec![
            ("label", self.label().to_json()),
            ("profile", self.profile.name().to_json()),
            ("seed", self.seed.to_json()),
        ]
    }
}

impl<P: Profile> CampaignSpec<P> {
    /// The cell's simulation: its scenario's workload registered on a
    /// fresh simulation of its policy under `config`.
    pub fn simulation(&self, config: SimConfig) -> Simulation {
        simulation(
            self.policy,
            workload(self.scenario, self.seed, self.duration),
            config,
        )
    }
}

/// Builds the full campaign grid in deterministic enqueue order
/// (policy-major, then scenario, profile, seed 1..=`seeds`).
pub fn matrix<P: Profile>(
    policies: &[PolicyKind],
    scenarios: &[Scenario],
    profiles: &[P],
    seeds: u64,
    duration: SimDuration,
) -> Vec<CampaignSpec<P>> {
    let mut specs = Vec::new();
    for &policy in policies {
        for &scenario in scenarios {
            for &profile in profiles {
                for seed in 1..=seeds {
                    specs.push(CampaignSpec {
                        policy,
                        scenario,
                        profile,
                        seed,
                        duration,
                    });
                }
            }
        }
    }
    specs
}

/// `scenario`'s workload for `seed` over `duration`, at the paper's
/// β = 0.96.
pub fn workload(scenario: Scenario, seed: u64, duration: SimDuration) -> Workload {
    scenario
        .builder()
        .with_seed(seed)
        .with_beta(0.96)
        .with_duration(duration)
        .build()
}

/// A fresh `policy` simulation under `config` with every alarm of
/// `workload` registered.
///
/// # Panics
///
/// Panics if a workload alarm fails to register, which would be a bug
/// in the workload generator.
pub fn simulation(policy: PolicyKind, workload: Workload, config: SimConfig) -> Simulation {
    let mut sim = Simulation::new(policy.build(), config);
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim
}

/// Sums one counter of a policy's completed cells (report and drill),
/// saturating: journal records are checked one at a time, so restored
/// counters that each fit can still overflow together.
pub(crate) fn sum<D>(cells: &[(&SimReport, D)], counter: fn(&(&SimReport, D)) -> u64) -> u64 {
    cells.iter().map(counter).fold(0, u64::saturating_add)
}

/// A finished run's bytes: its trace CSV and its report JSON.
pub(crate) type Fingerprint = (Vec<u8>, String);

/// The [`Fingerprint`] of a finished simulation.
pub(crate) fn fingerprint(sim: &Simulation) -> Fingerprint {
    let mut csv = Vec::new();
    sim.trace()
        .write_csv(&mut csv)
        .expect("writing a trace to memory cannot fail");
    (csv, report_to_json(&sim.report()))
}

/// The resume drill's core: restores `snapshot` under `policy`, runs it
/// to the end, and reports whether the resumed run matched the
/// straight-through run's `expected` bytes.
pub(crate) fn resumes_identically(
    policy: PolicyKind,
    snapshot: &Checkpoint,
    expected: &Fingerprint,
) -> Result<bool, CheckpointError> {
    let mut resumed = Simulation::restore(policy.build(), snapshot)?;
    resumed.run();
    Ok(fingerprint(&resumed) == *expected)
}

/// Shared harness options for [`run_campaign`]: worker count, cell
/// supervision policy, the optional journal directory that enables
/// `--resume`, the optional telemetry sink, and the optional cell that
/// panics instead of running.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads (defaults to every available core).
    pub threads: usize,
    /// Cell supervision policy (retry budget, deadline).
    pub supervisor: SupervisorConfig,
    /// Campaign journal directory; `Some` enables crash-tolerant
    /// resume (completed cells are restored instead of re-run).
    pub journal_dir: Option<PathBuf>,
    /// Telemetry sink the workers publish each executed cell's start,
    /// journal write and finish to, and journal-append warnings that
    /// would otherwise interleave on stderr. Publishing never blocks (a
    /// slow drainer drops events), so the campaign's payload is
    /// unaffected; `None` keeps the campaign silent.
    pub telemetry: Option<TelemetrySink>,
    /// Harness drill (`--inject-panic N`): the cell at this index panics
    /// instead of running, so the supervisor quarantines it and the
    /// campaign completes degraded.
    pub inject_panic: Option<usize>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: available_threads(),
            supervisor: SupervisorConfig::default(),
            journal_dir: None,
            telemetry: None,
            inject_panic: None,
        }
    }
}

impl CampaignOptions {
    /// Default options with an explicit worker count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        CampaignOptions {
            threads,
            ..CampaignOptions::default()
        }
    }
}

/// The default worker count: all available cores.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One cell of a finished campaign: executed, quarantined, or restored
/// from the journal.
#[derive(Debug, Clone)]
pub struct Outcome<D> {
    /// The cell's label.
    pub label: String,
    /// The run's report; `None` when the cell was quarantined.
    pub report: Option<SimReport>,
    /// Per-stage self-profiling, when the campaign keeps one (a sweep
    /// cell does; journal-restored cells never do).
    pub stages: Option<StageProfile>,
    /// Wall-clock time of this cell alone (zero for journal-restored
    /// cells).
    pub wall: Duration,
    /// What the supervisor observed for this cell.
    pub status: CellStatus,
    /// The cell's drill payload, decoded from the bytes the journal
    /// holds for it, so an executed and a restored cell carry the same
    /// value; `None` for a quarantined cell.
    pub drill: Option<D>,
}

/// Runs a campaign under harness [`CampaignOptions`] and collects the
/// outcomes in cell order.
///
/// Workers claim cells from a shared index, so scheduling is dynamic,
/// but each outcome lands at its cell's index: the results are
/// byte-identical regardless of thread count or completion order. Cells
/// run supervised: a panicking or hung cell is retried or quarantined
/// (status [`CellStatus::Poisoned`]), not fatal, and the cell at
/// [`CampaignOptions::inject_panic`] panics instead of running. When
/// `journal_dir` is set, each completed cell is appended to the journal
/// (then [`Campaign::journaled`] runs), and cells completed by a
/// previous interrupted invocation are restored instead of re-run,
/// drill payload included.
///
/// # Examples
///
/// ```
/// use simty_bench::{run_campaign, CampaignOptions, Grid, PolicyKind, RunSpec, Scenario};
/// use simty::core::SimDuration;
///
/// let spec = RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
///     .with_duration(SimDuration::from_mins(5));
/// let results = run_campaign::<Grid>(&[spec], &CampaignOptions::with_threads(2))
///     .expect("no journal to open");
/// let report = results.outcomes()[0].report.as_ref().expect("the cell completed");
/// assert!(report.total_deliveries > 0);
/// ```
///
/// # Errors
///
/// [`JournalError`] when the journal directory holds a journal for a
/// different campaign kind or grid, or cannot be opened. Journal
/// *append* failures do not fail the campaign: the cell re-runs on
/// resume, and a warning goes to the telemetry sink or, without one,
/// to stderr.
///
/// # Panics
///
/// Panics if `options.threads` is zero or a worker thread fails to
/// join.
pub fn run_campaign<C: Campaign>(
    cells: &[C::Cell],
    options: &CampaignOptions,
) -> Result<CampaignResults<C>, JournalError> {
    assert!(options.threads > 0, "a campaign needs at least one worker");
    let started = Instant::now();
    let labels: Vec<String> = cells.iter().map(Cell::label).collect();
    let mut outcomes: Vec<Option<Outcome<C::Drill>>> = cells.iter().map(|_| None).collect();
    let mut journal_skips = 0;
    let journal = match &options.journal_dir {
        None => None,
        Some(dir) => {
            let identity = C::journal_identity(cells);
            let valid_extra = |extra: &str| codec::decode::<C::Drill>(extra).is_ok();
            let (journal, replay) = CampaignJournal::open_with(
                dir,
                C::KIND,
                &labels,
                &identity,
                valid_extra,
                Arc::new(RealVfs),
            )?;
            for entry in replay.entries {
                let Some(slot) = outcomes.get_mut(entry.index) else {
                    continue;
                };
                if slot.is_some() {
                    continue; // duplicate record; first wins
                }
                *slot = Some(Outcome {
                    label: labels[entry.index].clone(),
                    report: Some(entry.report),
                    stages: None,
                    wall: Duration::ZERO,
                    status: entry.status,
                    drill: codec::decode(&entry.extra).ok(),
                });
                journal_skips += 1;
            }
            Some(journal)
        }
    };

    let pending: Vec<usize> = (0..cells.len())
        .filter(|&index| outcomes[index].is_none())
        .collect();
    let shared = Arc::new(options.clone());
    let next = AtomicUsize::new(0);
    let executed: Vec<(usize, Outcome<C::Drill>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..options.threads.min(pending.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&index) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (cell, label) = (&cells[index], labels[index].as_str());
                        let journal = journal.as_ref();
                        done.push((index, execute::<C>(index, cell, label, &shared, journal)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("campaign worker panicked"))
            .collect()
    });
    for (index, outcome) in executed {
        outcomes[index] = Some(outcome);
    }
    Ok(CampaignResults {
        cells: cells.to_vec(),
        outcomes: outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every cell has an outcome"))
            .collect(),
        wall: started.elapsed(),
        threads: options.threads,
        journal_skips,
    })
}

/// Runs cell `index` under the supervisor, journals it when it
/// completed, and publishes its lifecycle to the telemetry sink.
fn execute<C: Campaign>(
    index: usize,
    cell: &C::Cell,
    label: &str,
    options: &Arc<CampaignOptions>,
    journal: Option<&CampaignJournal>,
) -> Outcome<C::Drill> {
    let telemetry = options.telemetry.as_ref();
    if let Some(sink) = telemetry {
        sink.publish(EventKind::CellStarted {
            index,
            label: label.to_owned(),
        });
    }
    let started = Instant::now();
    let task = {
        let (cell, options) = (cell.clone(), Arc::clone(options));
        move || {
            if options.inject_panic == Some(index) {
                panic!("injected panic (cell {index})");
            }
            C::run_profiled(&cell, &options)
        }
    };
    let (result, status) = supervise(&options.supervisor, task);
    let (report, stages, extra) = match result {
        Some((report, drill, stages)) => (Some(report), stages, Some(codec::encode(&drill))),
        None => (None, None, None),
    };
    if let (Some(journal), Some(report), Some(extra)) = (journal, &report, &extra) {
        match journal.record(index, &status, report, extra) {
            Ok(()) => {
                C::journaled(cell, options);
                if let Some(sink) = telemetry {
                    sink.publish(EventKind::JournalWrite { index, ok: true });
                }
            }
            Err(e) => {
                let warning = format!(
                    "campaign journal append failed for cell {index} (`{label}`): {e}; \
                     the cell will re-run on resume"
                );
                // With a bus attached the warning travels as a structured
                // event; otherwise fall back to the (interleaving) stderr
                // line.
                match telemetry {
                    Some(sink) => {
                        sink.publish(EventKind::JournalWrite { index, ok: false });
                        sink.warn(warning);
                    }
                    None => eprintln!("warning: {warning}"),
                }
            }
        }
    }
    let wall = started.elapsed();
    if let Some(sink) = telemetry {
        sink.publish(EventKind::CellFinished {
            index,
            label: label.to_owned(),
            status: status.token(),
            cell_wall_ms: wall.as_secs_f64() * 1e3,
        });
    }
    Outcome {
        label: label.to_owned(),
        report,
        stages,
        wall,
        status,
        drill: extra.and_then(|extra| codec::decode(&extra).ok()),
    }
}

/// One cell of a finished campaign: the cell, its supervisor status, its
/// report (`None` for a quarantined cell), and its drill payload (`None`
/// for a quarantined cell).
pub type CellRun<'a, C> = (
    &'a <C as Campaign>::Cell,
    &'a CellStatus,
    Option<&'a SimReport>,
    Option<&'a <C as Campaign>::Drill>,
);

/// A finished campaign: every cell beside its [`Outcome`], in cell
/// order, with the campaign's wall clock, worker count and journal
/// restores.
#[derive(Debug, Clone)]
pub struct CampaignResults<C: Campaign> {
    cells: Vec<C::Cell>,
    outcomes: Vec<Outcome<C::Drill>>,
    wall: Duration,
    threads: usize,
    journal_skips: u64,
}

impl<C: Campaign> CampaignResults<C> {
    /// The cells, their statuses, reports, and drill payloads, in cell
    /// order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = CellRun<'_, C>> {
        self.cells
            .iter()
            .zip(&self.outcomes)
            .map(|(cell, o)| (cell, &o.status, o.report.as_ref(), o.drill.as_ref()))
    }

    /// The completed cells (quarantined cells carry no report). A
    /// completed cell missing its drill payload counts as an
    /// unrecovered default, never a silent success.
    pub(crate) fn completed(&self) -> impl Iterator<Item = (&C::Cell, &SimReport, C::Drill)> + '_ {
        self.runs().filter_map(|(cell, _, report, drill)| {
            report.map(|r| (cell, r, drill.cloned().unwrap_or_default()))
        })
    }

    /// The per-cell outcomes, in cell order.
    pub fn outcomes(&self) -> &[Outcome<C::Drill>] {
        &self.outcomes
    }

    /// Cells restored from the campaign journal instead of executed in
    /// this invocation (zero without `--resume`).
    pub fn journal_skips(&self) -> u64 {
        self.journal_skips
    }

    /// Exact p50/p90/p99/max over the executed cells' wall times (ms);
    /// `None` when every cell was journal-restored (a restored cell, wall
    /// zero, cost this invocation nothing). Wall-clock data: surfaced
    /// only in the document header, never in the deterministic body.
    pub fn cell_wall_quantiles(&self) -> Option<QuantileSummary> {
        let walls: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.wall > Duration::ZERO)
            .map(|o| o.wall.as_secs_f64() * 1_000.0)
            .collect();
        QuantileSummary::exact(&walls)
    }

    /// Worker threads used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wall-clock time of the whole campaign.
    pub fn total_wall(&self) -> Duration {
        self.wall
    }

    /// Sum of the executed cells' wall times: what a sequential run would
    /// have cost (modulo scheduling overhead).
    pub fn sequential_wall(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// Cells executed in this invocation per second of the campaign's
    /// wall clock; 0 when every cell was restored from the journal
    /// (restored cells cost no time, so counting them would inflate the
    /// rate).
    pub fn runs_per_sec(&self) -> f64 {
        let executed = (self.cells.len() as u64).saturating_sub(self.journal_skips);
        let secs = self.wall.as_secs_f64();
        if executed == 0 {
            0.0
        } else if secs > 0.0 {
            executed as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// The per-stage self-profiles of the cells that kept one, folded
    /// (wall-clock nanoseconds and call counts; host timing, not
    /// deterministic).
    pub fn stage_profile(&self) -> StageProfile {
        let mut total = StageProfile::new();
        for stages in self.outcomes.iter().filter_map(|o| o.stages.as_ref()) {
            total.merge(stages);
        }
        total
    }

    /// Supervisor accounting over the campaign: derived from the per-cell
    /// statuses (identical for an executed and a journal-restored cell)
    /// plus this invocation's `journal_skips`.
    pub fn harness(&self) -> HarnessStats {
        let mut stats = HarnessStats::from_statuses(self.outcomes.iter().map(|o| &o.status));
        stats.journal_skips = self.journal_skips;
        stats
    }

    /// The quarantined cells' `(label, reason)` pairs, in cell order.
    pub fn poisoned(&self) -> Vec<(String, String)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                CellStatus::Poisoned { reason, .. } => Some((o.label.clone(), reason.clone())),
                _ => None,
            })
            .collect()
    }

    /// Total invariant violations across every completed cell
    /// (saturating: restored counters may overflow together).
    pub fn total_violations(&self) -> u64 {
        self.completed()
            .map(|(_, r, _)| r.resilience.invariant_violations)
            .fold(0, u64::saturating_add)
    }

    /// Total perceptible-window misses across every completed cell
    /// (saturating: restored counters may overflow together).
    pub fn total_misses(&self) -> u64 {
        self.completed()
            .map(|(_, r, _)| r.resilience.perceptible_window_misses)
            .fold(0, u64::saturating_add)
    }

    /// The labels of the completed cells whose drill did not restore and
    /// match bytes (quarantined cells are the harness's concern, not the
    /// drill's).
    pub fn unrecovered(&self) -> Vec<String> {
        self.completed()
            .filter(|(_, _, drill)| !drill.recovered())
            .map(|(cell, _, _)| cell.label())
            .collect()
    }

    /// Whether every completed cell's drill restored and matched bytes.
    pub fn all_recovered(&self) -> bool {
        self.unrecovered().is_empty()
    }

    /// The per-policy aggregates ([`Campaign::aggregates`]).
    pub fn aggregates(&self) -> Vec<C::Aggregate> {
        C::aggregates(self)
    }

    /// The campaign's document ([`Campaign::document`]). Its
    /// [`deterministic_view`](crate::deterministic_view) is the same for
    /// parallel, sequential and journal-resumed campaigns.
    pub fn to_json(&self) -> String {
        C::document(self)
    }

    /// The `simty-bench-<kind>/v1` document. After the schema come the
    /// campaign's own per-invocation fields (`header`, each as
    /// `,"key":value`), `journal_skips` (how many cells this invocation
    /// restored from the journal instead of running) and the executed
    /// cells' wall-time quantiles (`null` when every cell was restored).
    pub(crate) fn grid_document(&self, header: &str) -> String {
        let quantiles = json_object(&[("cell_wall_ms", self.cell_wall_quantiles().to_json())]);
        let results = self.runs().map(|(cell, status, report, drill)| {
            let mut fields = cell.row();
            fields.push(("status", status.token().to_json()));
            let drill = report.map(|_| drill.cloned().unwrap_or_default());
            fields.extend(C::Drill::cell_fields(drill.as_ref()));
            fields.push(("report", report.to_json()));
            json_object(&fields)
        });
        let aggregates = self.aggregates();
        format!(
            "{{\"schema\":\"simty-bench-{}/v1\"{header},\"journal_skips\":{},\
             \"quantiles\":{quantiles},\"runs\":{},\"harness\":{},\"results\":{},\
             \"policies\":{}}}",
            C::KIND,
            self.journal_skips(),
            self.cells.len(),
            self.harness().to_json(),
            json_array(results),
            json_array(aggregates.iter().map(C::aggregate_json))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Chaos, FaultProfile};
    use crate::soak::{Soak, SoakProfile};
    use crate::storm::{Storm, StormProfile};

    /// Runs `profiles` twice on one journal directory: the second run
    /// must restore every cell, drill payload included, into a
    /// byte-identical document body.
    fn resume_restores_every_cell<C: Campaign<Cell = CampaignSpec<P>>, P: Profile>(profiles: &[P]) {
        let dir = std::env::temp_dir().join(format!(
            "simty-campaign-resume-{}-{}",
            C::KIND,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            profiles,
            1,
            SimDuration::from_hours(1),
        );
        let mut options = CampaignOptions::with_threads(2);
        options.journal_dir = Some(dir.clone());
        let first = run_campaign::<C>(&specs, &options).expect("fresh journal opens");
        let second = run_campaign::<C>(&specs, &options).expect("journal reopens");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(first.journal_skips(), 0);
        assert_eq!(second.journal_skips(), specs.len() as u64, "{}", C::KIND);
        assert!(first.runs_per_sec() > 0.0, "{}", C::KIND);
        assert_eq!(second.runs_per_sec(), 0.0, "nothing ran: {}", C::KIND);
        assert!(second.all_recovered(), "{}", C::KIND);
        let view = |results: &CampaignResults<C>| crate::deterministic_view(&results.to_json());
        assert_eq!(view(&first), view(&second), "{}", C::KIND);
    }

    #[test]
    fn resume_restores_every_cell_byte_identically() {
        resume_restores_every_cell::<Chaos, _>(&[FaultProfile::Baseline, FaultProfile::Mixed]);
        resume_restores_every_cell::<Soak, _>(&[SoakProfile::SingleReboot, SoakProfile::TornStale]);
        resume_restores_every_cell::<Storm, _>(&[
            StormProfile::QuotaStorm,
            StormProfile::DrainCritical,
        ]);
    }

    /// A cell of [`Probes`]: a one-minute run, or a panic when `panics`,
    /// logging each [`Campaign::journaled`] call into `journaled`.
    #[derive(Debug, Clone)]
    struct Probe {
        index: usize,
        panics: bool,
        journaled: Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl Cell for Probe {
        fn label(&self) -> String {
            format!("probe/{}", self.index)
        }

        fn policy(&self) -> PolicyKind {
            PolicyKind::Native
        }

        fn row(&self) -> Vec<(&'static str, String)> {
            vec![("label", self.label().to_json())]
        }
    }

    /// A test campaign of [`Probe`] cells.
    #[derive(Debug, Clone, Copy)]
    enum Probes {}

    impl Campaign for Probes {
        type Cell = Probe;
        type Drill = ();
        type Aggregate = ();

        const KIND: &'static str = "probe";

        fn run_cell(probe: &Probe, _options: &CampaignOptions) -> (SimReport, ()) {
            assert!(!probe.panics, "probe cell {} panics", probe.index);
            let spec = simty::experiments::RunSpec::paper(PolicyKind::Native, Scenario::Light, 1);
            (spec.with_duration(SimDuration::from_mins(1)).run(), ())
        }

        fn journaled(probe: &Probe, _options: &CampaignOptions) {
            probe.journaled.lock().expect("log lock").push(probe.index);
        }

        fn aggregate(_policy: String, _cells: &[(&SimReport, ())]) {}

        fn aggregate_json((): &()) -> String {
            String::new()
        }
    }

    /// A fresh journaled run publishes each cell's start, journal write
    /// and finish once and calls `journaled` once per journaled cell; a
    /// resumed run is silent about the cells it restores and calls
    /// `journaled` for none of them. The poisoned cell is never journaled.
    #[test]
    fn restored_cells_publish_nothing_and_skip_the_journaled_hook() {
        use simty::obs::telemetry::{EventKind, TelemetryBus};

        let dir = std::env::temp_dir().join(format!("simty-kernel-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let cells: Vec<Probe> = (0..4)
            .map(|index| Probe {
                index,
                panics: index == 2,
                journaled: Arc::clone(&log),
            })
            .collect();
        let run = || {
            let (bus, sink) = TelemetryBus::new(256);
            let options = CampaignOptions {
                journal_dir: Some(dir.clone()),
                telemetry: Some(sink),
                ..CampaignOptions::with_threads(2)
            };
            let results = run_campaign::<Probes>(&cells, &options).expect("the journal opens");
            drop(options);
            let events: Vec<EventKind> = bus.drain().map(|event| event.kind).collect();
            let journaled = std::mem::take(&mut *log.lock().expect("log lock"));
            (results, events, journaled)
        };
        let count = |events: &[EventKind], index: usize| {
            let (mut started, mut written, mut finished) = (0, 0, 0);
            for event in events {
                match event {
                    EventKind::CellStarted { index: i, .. } if *i == index => started += 1,
                    EventKind::JournalWrite { index: i, ok } if *i == index => {
                        assert!(ok, "cell {index}'s append failed");
                        written += 1;
                    }
                    EventKind::CellFinished { index: i, .. } if *i == index => finished += 1,
                    _ => {}
                }
            }
            (started, written, finished)
        };

        let (fresh, events, mut journaled) = run();
        assert_eq!(fresh.journal_skips(), 0);
        for index in 0..4 {
            let written = usize::from(index != 2);
            assert_eq!(count(&events, index), (1, written, 1), "fresh cell {index}");
        }
        assert_eq!(events.len(), 4 + 3 + 4, "{events:?}");
        journaled.sort_unstable();
        assert_eq!(journaled, [0, 1, 3]);

        let (resumed, events, journaled) = run();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.journal_skips(), 3);
        assert_eq!(resumed.harness().poisoned, 1);
        for index in [0, 1, 3] {
            assert_eq!(count(&events, index), (0, 0, 0), "restored cell {index}");
        }
        assert_eq!(count(&events, 2), (1, 0, 1), "the poisoned cell re-runs");
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(journaled.is_empty(), "{journaled:?}");
    }

    #[test]
    fn an_injected_panic_poisons_exactly_its_cell() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &[FaultProfile::Baseline, FaultProfile::Mixed],
            1,
            SimDuration::from_hours(1),
        );
        let options = CampaignOptions::with_threads(2);
        let clean = run_campaign::<Chaos>(&specs, &options).expect("no journal to open");
        let injected = CampaignOptions {
            inject_panic: Some(1),
            ..options
        };
        let wounded = run_campaign::<Chaos>(&specs, &injected).expect("no journal to open");
        assert_eq!(wounded.harness().poisoned, 1);
        let poisoned = wounded.poisoned();
        assert_eq!(poisoned[0].0, specs[1].label());
        assert!(
            poisoned[0].1.contains("injected panic (cell 1)"),
            "{poisoned:?}"
        );
        let reports = |results: &CampaignResults<Chaos>| -> Vec<Option<String>> {
            results
                .runs()
                .map(|(.., report, _)| report.map(report_to_json))
                .collect()
        };
        let (clean, wounded) = (reports(&clean), reports(&wounded));
        assert!(clean.iter().all(Option::is_some));
        for (index, (clean, wounded)) in clean.iter().zip(&wounded).enumerate() {
            match index {
                1 => assert_eq!(*wounded, None),
                _ => assert_eq!(wounded, clean, "cell {index}"),
            }
        }
    }
}
