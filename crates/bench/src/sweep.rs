//! The sweep campaign and the executor every campaign runs on.
//!
//! `standby sweep` runs the paper's §4.1 evaluation as a grid: one
//! [`RunSpec`] per scenario × policy × seed × β. That grid is the fifth
//! campaign on the [campaign kernel](crate::campaign), [`Grid`], whose
//! cells are the specs themselves, each run instrumented so the
//! `BENCH_sweep.json` document carries the engine's per-stage profile.
//!
//! Every campaign fans its cells out on a [`Sweep`]: it collects labelled
//! jobs up front, runs them on `std::thread` workers under the
//! [supervisor](crate::supervisor), and returns the outcomes keyed by
//! enqueue order — so a parallel run yields **byte-identical reports** to
//! a sequential one, independent of completion order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simty::experiments::{PolicyKind, RunSpec};
use simty::obs::telemetry::{EventKind, TelemetrySink};
use simty::obs::{QuantileSummary, StageProfile};
use simty::sim::{RealVfs, SimReport};

use crate::campaign::{Campaign, CampaignResults, Cell};
use crate::journal::{CampaignJournal, JournalError};
use crate::json::{json_array, json_object, ToJson};
use crate::supervisor::{supervise, CellStatus, HarnessStats, SupervisorConfig};

/// A cell's task: re-runnable (the supervisor may retry it) and
/// shareable across the watchdog thread, producing a [`JobResult`].
pub type TaskFn = Arc<dyn Fn() -> JobResult + Send + Sync + 'static>;

/// What a sweep job yields: the run's report, plus the engine's
/// per-stage wall-clock profile when the job captured one, plus an
/// optional campaign-defined `extra` payload that rides along into the
/// campaign journal (e.g. soak's recovery digest). Closure jobs that
/// only have a [`SimReport`] convert via `From` (no profile, no extra).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The run's report.
    pub report: SimReport,
    /// Per-stage self-profiling, when captured
    /// (e.g. via [`RunSpec::run_instrumented`]).
    pub stages: Option<StageProfile>,
    /// Campaign-defined opaque payload, journaled with the report and
    /// restored on `--resume` (so campaigns that derive per-cell data
    /// beyond the report survive a skip).
    pub extra: Option<String>,
}

impl From<SimReport> for JobResult {
    fn from(report: SimReport) -> Self {
        JobResult {
            report,
            stages: None,
            extra: None,
        }
    }
}

struct Job {
    label: String,
    task: TaskFn,
    /// Runs once the cell's journal record is appended (see
    /// [`Sweep::on_journaled`]).
    on_journaled: Option<Box<dyn Fn() + Send + Sync>>,
}

/// Handle to an enqueued job (see [`Sweep::on_journaled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHandle(usize);

/// A batch of labelled jobs executed across worker threads.
///
/// # Examples
///
/// ```
/// use simty_bench::sweep::Sweep;
/// use simty_bench::{PolicyKind, RunSpec, Scenario};
/// use simty::core::SimDuration;
///
/// let spec = RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
///     .with_duration(SimDuration::from_mins(5));
/// let mut sweep = Sweep::new();
/// sweep.job(spec.label(), move || spec.run());
/// let results = sweep.try_run_with_threads(2).expect("no journal to open");
/// let report = results.outcomes()[0].report.as_ref().expect("the cell completed");
/// assert!(report.total_deliveries > 0);
/// ```
#[derive(Default)]
pub struct Sweep {
    jobs: Vec<Job>,
    supervisor: SupervisorConfig,
    journal: Option<(PathBuf, String)>,
    journal_identity: String,
    journal_extra: Option<fn(&str) -> bool>,
    telemetry: Option<TelemetrySink>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Overrides the cell-supervision policy (retry budget, deadline).
    /// The default supervises with one transient retry and no deadline.
    pub fn with_supervisor(&mut self, config: SupervisorConfig) -> &mut Self {
        self.supervisor = config;
        self
    }

    /// Attaches a `simty-campaign/v1` journal in `dir` under the given
    /// campaign kind (`"sweep"`, `"chaos"`, ...): completed cells are
    /// appended as they finish, and cells already journaled by a
    /// previous (interrupted) invocation are restored instead of re-run.
    pub fn with_journal(&mut self, dir: impl Into<PathBuf>, kind: impl Into<String>) -> &mut Self {
        self.journal = Some((dir.into(), kind.into()));
        self
    }

    /// Pins the attached journal to its grid: `identity` is what, beyond
    /// the cell labels, decides the cells' bytes (see
    /// [`crate::journal::grid_digest`]), so a journal of another
    /// population is a [`JournalError::Mismatch`], and a journaled cell
    /// whose `extra` payload `valid_extra` rejects ends the replay (it
    /// and the cells after it re-run).
    pub fn with_journal_grid(
        &mut self,
        identity: impl Into<String>,
        valid_extra: fn(&str) -> bool,
    ) -> &mut Self {
        self.journal_identity = identity.into();
        self.journal_extra = Some(valid_extra);
        self
    }

    /// Attaches a telemetry sink: workers publish cell lifecycle and
    /// journal-write events to it as they happen, and warnings that
    /// would otherwise interleave on stderr under `--threads N` (e.g.
    /// journal append failures) are routed through the bus instead.
    /// Publishing never blocks — a slow drainer drops events (see
    /// [`TelemetrySink`]), so the deterministic campaign payload is
    /// unaffected.
    pub fn with_telemetry(&mut self, sink: TelemetrySink) -> &mut Self {
        self.telemetry = Some(sink);
        self
    }

    /// Enqueues a labelled job (a campaign cell, or any run that needs
    /// bespoke setup).
    pub fn job<R: Into<JobResult>>(
        &mut self,
        label: impl Into<String>,
        task: impl Fn() -> R + Send + Sync + 'static,
    ) -> RunHandle {
        let handle = RunHandle(self.jobs.len());
        self.jobs.push(Job {
            label: label.into(),
            task: Arc::new(move || task().into()),
            on_journaled: None,
        });
        handle
    }

    /// Runs `cleanup` right after `handle`'s cell is appended to the
    /// attached journal: the place to drop state that only a resume in
    /// the middle of that cell could use. It never runs without a
    /// journal, for a quarantined cell, when the append fails (the cell
    /// re-runs on resume and may still use that state), or for a cell
    /// restored from the journal.
    pub fn on_journaled(
        &mut self,
        handle: RunHandle,
        cleanup: impl Fn() + Send + Sync + 'static,
    ) -> &mut Self {
        self.jobs[handle.0].on_journaled = Some(Box::new(cleanup));
        self
    }

    /// Executes the batch on `threads` workers and collects the results
    /// in enqueue order.
    ///
    /// Work is claimed from a shared index, so scheduling is dynamic, but
    /// each result lands at its job's index: output is byte-identical
    /// regardless of thread count or completion order. Every cell runs
    /// under the [supervisor](crate::supervisor): a panicking or hung
    /// cell is retried or quarantined (status
    /// [`CellStatus::Poisoned`]) and the rest of the batch continues.
    /// With a journal attached, cells completed by a previous
    /// interrupted invocation are restored instead of re-run.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the attached journal cannot be opened or
    /// belongs to a different campaign. Journal *append* failures are
    /// reported to stderr and do not fail the campaign (the affected
    /// cells simply re-run on resume).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread fails to join.
    pub fn try_run_with_threads(self, threads: usize) -> Result<SweepResults, JournalError> {
        assert!(threads > 0, "a sweep needs at least one worker");
        let total = self.jobs.len();
        let started = Instant::now();

        let outcomes: Vec<Mutex<Option<Outcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let mut journal = None;
        let mut journal_skips = 0u64;
        if let Some((dir, kind)) = &self.journal {
            let labels: Vec<String> = self.jobs.iter().map(|j| j.label.clone()).collect();
            let identity = &self.journal_identity;
            let vfs = Arc::new(RealVfs);
            let valid_extra = self.journal_extra.unwrap_or(|_| true);
            let (handle, replay) =
                CampaignJournal::open_with(dir, kind, &labels, identity, valid_extra, vfs)?;
            for entry in replay.entries {
                let Some(slot) = outcomes.get(entry.index) else {
                    continue;
                };
                let mut slot = slot.lock().expect("outcome slot lock");
                if slot.is_some() {
                    continue; // duplicate record; first wins
                }
                *slot = Some(Outcome {
                    label: labels[entry.index].clone(),
                    report: Some(entry.report),
                    stages: None,
                    wall: Duration::ZERO,
                    status: entry.status,
                    extra: (!entry.extra.is_empty()).then_some(entry.extra),
                });
                journal_skips += 1;
            }
            journal = Some(handle);
        }

        let supervisor = self.supervisor;
        let jobs = self.jobs;
        let next = AtomicUsize::new(0);
        let journal = journal.as_ref();
        let telemetry = self.telemetry.as_ref();
        std::thread::scope(|scope| {
            let workers = threads.min(total.max(1));
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        break;
                    }
                    if outcomes[idx].lock().expect("outcome slot lock").is_some() {
                        continue; // restored from the journal
                    }
                    let job = &jobs[idx];
                    if let Some(sink) = telemetry {
                        sink.publish(EventKind::CellStarted {
                            index: idx,
                            label: job.label.clone(),
                        });
                    }
                    let job_started = Instant::now();
                    let (result, status) = supervise(&supervisor, job.task.clone());
                    let (report, stages, extra) = match result {
                        Some(r) => (Some(r.report), r.stages, r.extra),
                        None => (None, None, None),
                    };
                    if let (Some(journal), Some(report)) = (journal, &report) {
                        match journal.record(idx, &status, report, extra.as_deref()) {
                            Ok(()) => {
                                if let Some(cleanup) = &job.on_journaled {
                                    cleanup();
                                }
                                if let Some(sink) = telemetry {
                                    sink.publish(EventKind::JournalWrite {
                                        index: idx,
                                        ok: true,
                                    });
                                }
                            }
                            Err(e) => {
                                let warning = format!(
                                    "campaign journal append failed for cell {idx} \
                                     (`{}`): {e}; the cell will re-run on resume",
                                    job.label
                                );
                                // With a bus attached the warning travels as a
                                // structured event; otherwise fall back to the
                                // (interleaving) stderr line.
                                match telemetry {
                                    Some(sink) => {
                                        sink.publish(EventKind::JournalWrite {
                                            index: idx,
                                            ok: false,
                                        });
                                        sink.warn(warning);
                                    }
                                    None => eprintln!("warning: {warning}"),
                                }
                            }
                        }
                    }
                    let wall = job_started.elapsed();
                    if let Some(sink) = telemetry {
                        sink.publish(EventKind::CellFinished {
                            index: idx,
                            label: job.label.clone(),
                            status: status.token(),
                            cell_wall_ms: wall.as_secs_f64() * 1e3,
                        });
                    }
                    *outcomes[idx].lock().expect("outcome slot lock") = Some(Outcome {
                        label: job.label.clone(),
                        report,
                        stages,
                        wall,
                        status,
                        extra,
                    });
                }));
            }
            for handle in handles {
                handle.join().expect("sweep worker panicked");
            }
        });

        Ok(SweepResults {
            outcomes: outcomes
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("outcome slot lock")
                        .expect("every job produced an outcome")
                })
                .collect(),
            wall: started.elapsed(),
            threads,
            journal_skips,
        })
    }
}

/// Shared harness options for the campaign runners
/// ([`run_campaign`](crate::campaign::run_campaign) and
/// [`run_fleet_with`](crate::fleet::run_fleet_with)): worker count, cell
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
    /// Telemetry sink the campaign's workers publish lifecycle events
    /// to (see [`Sweep::with_telemetry`]); `None` keeps the campaign
    /// silent.
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

/// One finished (or quarantined, or journal-restored) run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The label given at enqueue time.
    pub label: String,
    /// The run's report; `None` when the cell was poisoned.
    pub report: Option<SimReport>,
    /// Per-stage self-profiling, when the job captured one (a sweep
    /// cell does; journal-restored cells never do).
    pub stages: Option<StageProfile>,
    /// Wall-clock time of this run alone (zero for journal-restored
    /// cells).
    pub wall: Duration,
    /// What the supervisor observed for this cell.
    pub status: CellStatus,
    /// The campaign-defined payload the job returned (journaled and
    /// restored alongside the report).
    pub extra: Option<String>,
}

/// The results of a [`Sweep`], in enqueue order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    outcomes: Vec<Outcome>,
    wall: Duration,
    threads: usize,
    journal_skips: u64,
}

impl SweepResults {
    /// All outcomes in enqueue order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Worker threads used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cells restored from the campaign journal instead of executed in
    /// this invocation (zero without a journal).
    pub fn journal_skips(&self) -> u64 {
        self.journal_skips
    }

    /// Supervisor accounting over the batch: derived from the per-cell
    /// statuses (identical for an executed and a journal-restored cell)
    /// plus this invocation's `journal_skips`.
    pub fn harness(&self) -> HarnessStats {
        let mut stats = HarnessStats::from_statuses(self.outcomes.iter().map(|o| &o.status));
        stats.journal_skips = self.journal_skips;
        stats
    }

    /// The poisoned cells' `(label, reason)` pairs, in enqueue order
    /// (empty when every cell completed).
    pub fn poisoned(&self) -> Vec<(String, String)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                CellStatus::Poisoned { reason, .. } => Some((o.label.clone(), reason.clone())),
                _ => None,
            })
            .collect()
    }

    /// End-to-end wall-clock time of the batch.
    pub fn total_wall(&self) -> Duration {
        self.wall
    }

    /// Wall times (ms) of the cells that actually executed in this
    /// invocation. Journal-restored cells (wall zero) are excluded —
    /// they cost this invocation nothing.
    pub fn cell_walls(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.wall > Duration::ZERO)
            .map(|o| o.wall.as_secs_f64() * 1_000.0)
            .collect()
    }

    /// Exact p50/p90/p99/max over [`cell_walls`](Self::cell_walls), or
    /// `None` when no cell actually executed. Wall-clock data:
    /// non-deterministic, header-only.
    pub fn cell_wall_quantiles(&self) -> Option<QuantileSummary> {
        QuantileSummary::exact(&self.cell_walls())
    }
}

impl Cell for RunSpec {
    fn label(&self) -> String {
        RunSpec::label(self)
    }

    fn policy(&self) -> PolicyKind {
        self.policy
    }

    fn row(&self) -> Vec<(&'static str, String)> {
        vec![("label", self.label().to_json())]
    }
}

/// The sweep campaign: one [`RunSpec`] cell per grid point, run
/// instrumented, with no drill and no per-policy aggregate.
#[derive(Debug, Clone, Copy)]
pub enum Grid {}

impl Campaign for Grid {
    type Cell = RunSpec;
    type Drill = ();
    type Aggregate = ();

    const KIND: &'static str = "sweep";

    fn run_cell(spec: &RunSpec, _options: &CampaignOptions) -> (SimReport, ()) {
        (spec.run_instrumented().0, ())
    }

    /// Runs the spec at [`ObsLevel::Timed`](simty::sim::ObsLevel), keeping
    /// its stage profile for the document.
    fn run_profiled(
        spec: &RunSpec,
        _options: &CampaignOptions,
    ) -> (SimReport, (), Option<StageProfile>) {
        let (report, stages) = spec.run_instrumented();
        (report, (), Some(stages))
    }

    fn aggregate(_policy: String, _cells: &[(&SimReport, ())]) {}

    fn aggregate_json((): &()) -> String {
        String::new()
    }

    /// `no-obs` for an uninstrumented grid: its reports carry no
    /// metrics, so it must not restore an instrumented journal's cells.
    fn journal_identity(cells: &[RunSpec]) -> String {
        let no_obs = cells.iter().any(|spec| spec.no_obs);
        if no_obs { "no-obs\n" } else { "" }.to_owned()
    }

    /// The `simty-bench-sweep/v1` document: batch timing, the folded
    /// per-stage self-profile, the supervisor's `harness` block, and, per
    /// run, its label, status, wall clock and full report (`null` for a
    /// quarantined cell). [`crate::schema`] declares which of its fields
    /// vary run to run.
    fn document(results: &CampaignResults<Grid>) -> String {
        let ms = |wall: Duration| (wall.as_secs_f64() * 1_000.0).to_json();
        let runs = results.outcomes().iter().map(|o| {
            json_object(&[
                ("label", o.label.to_json()),
                ("status", o.status.token().to_json()),
                ("wall_ms", ms(o.wall)),
                ("report", o.report.to_json()),
            ])
        });
        let quantiles = json_object(&[("cell_wall_ms", results.cell_wall_quantiles().to_json())]);
        json_object(&[
            ("schema", "simty-bench-sweep/v1".to_json()),
            ("threads", results.threads().to_json()),
            ("runs", results.outcomes().len().to_json()),
            ("total_wall_ms", ms(results.total_wall())),
            ("sequential_wall_ms", ms(results.sequential_wall())),
            ("runs_per_sec", results.runs_per_sec().to_json()),
            ("journal_skips", results.journal_skips().to_json()),
            ("harness", results.harness().to_json()),
            ("stages", results.stage_profile().to_json()),
            ("quantiles", quantiles),
            ("results", json_array(runs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use simty::core::SimDuration;
    use simty::experiments::Scenario;

    fn quick(policy: PolicyKind, seed: u64) -> RunSpec {
        RunSpec::paper(policy, Scenario::Light, seed).with_duration(SimDuration::from_mins(5))
    }

    fn grid(specs: &[RunSpec], threads: usize) -> CampaignResults<Grid> {
        run_campaign::<Grid>(specs, &CampaignOptions::with_threads(threads))
            .expect("a journal-less sweep opens no journal")
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let mut specs = Vec::new();
        for policy in [PolicyKind::Native, PolicyKind::Simty] {
            for seed in 1..=2 {
                specs.push(quick(policy, seed));
            }
        }
        let sequential = grid(&specs, 1);
        let parallel = grid(&specs, 4);
        let view = |results: &CampaignResults<Grid>| crate::deterministic_view(&results.to_json());
        assert_eq!(view(&sequential).unwrap(), view(&parallel).unwrap());
        assert_eq!(sequential.runs().len(), 4);
    }

    #[test]
    fn handles_resolve_in_enqueue_order() {
        let mut sweep = Sweep::new();
        for policy in [PolicyKind::Native, PolicyKind::Simty, PolicyKind::Exact] {
            let spec = quick(policy, 1);
            sweep.job(policy.name(), move || spec.run());
        }
        let results = sweep.try_run_with_threads(3).expect("no journal to open");
        let order: Vec<(&str, Option<&str>)> = results
            .outcomes()
            .iter()
            .map(|o| {
                (
                    o.label.as_str(),
                    o.report.as_ref().map(|r| r.policy.as_str()),
                )
            })
            .collect();
        assert_eq!(
            order,
            [
                ("NATIVE", Some("NATIVE")),
                ("SIMTY", Some("SIMTY")),
                ("EXACT", Some("EXACT"))
            ]
        );
    }

    #[test]
    fn json_document_shape() {
        let results = grid(&[quick(PolicyKind::Native, 1)], 1);
        assert!(results.runs_per_sec() > 0.0);
        let json = results.to_json();
        for key in [
            "{\"schema\":\"simty-bench-sweep/v1\",\"threads\":1,\"runs\":1,\"total_wall_ms\"",
            "\"sequential_wall_ms\"",
            "\"runs_per_sec\"",
            "\"journal_skips\":0,\"harness\":{",
            "\"stages\":{\"queue_search\":{\"ns\":",
            "\"selection\":{",
            "\"event_dispatch\":{",
            "\"checkpoint_io\":{",
            "\"quantiles\":{\"cell_wall_ms\":{",
            "\"results\":[{\"label\":\"NATIVE/light/seed1/b0.96/300s\",\"status\":\"ok\"",
            "\"wall_ms\"",
            "\"report\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
