//! `SweepRunner`: deterministic parallel batch execution of simulation
//! runs.
//!
//! `standby sweep` and the campaigns run grids of full simulations
//! (policy × scenario × seed × β, or × fault profile). Each
//! [`Simulation`](simty::sim::Simulation) is seed-deterministic and
//! independent, so the grid is embarrassingly parallel. A [`Sweep`]
//! collects jobs up front, fans them out over `std::thread` workers, and
//! returns results keyed by enqueue order — so a parallel sweep yields
//! **byte-identical reports** to a sequential one, independent of
//! completion order.
//!
//! Identical [`RunSpec`]s are deduplicated at enqueue time: both handles
//! resolve to the single shared run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simty::experiments::RunSpec;
use simty::obs::telemetry::{EventKind, TelemetrySink};
use simty::obs::{QuantileSummary, StageProfile};
use simty::sim::{RealVfs, SimReport};

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

impl From<(SimReport, StageProfile)> for JobResult {
    fn from((report, stages): (SimReport, StageProfile)) -> Self {
        JobResult {
            report,
            stages: Some(stages),
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

/// Handle to an enqueued run; index into [`SweepResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHandle(usize);

/// A batch of simulation runs executed across worker threads.
///
/// # Examples
///
/// ```
/// use simty_bench::sweep::Sweep;
/// use simty_bench::{PolicyKind, RunSpec, Scenario};
/// use simty::core::SimDuration;
///
/// let mut sweep = Sweep::new();
/// let native = sweep.spec(
///     RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
///         .with_duration(SimDuration::from_mins(5)),
/// );
/// let results = sweep.run_with_threads(2);
/// assert!(results.report(native).total_deliveries > 0);
/// ```
#[derive(Default)]
pub struct Sweep {
    jobs: Vec<Job>,
    specs: Vec<(RunSpec, RunHandle)>,
    no_obs: bool,
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
    /// and the cells after it re-run). An uninstrumented sweep
    /// ([`no_obs`](Self::no_obs)) adds its own identity.
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

    /// Makes every subsequently enqueued spec run uninstrumented (the
    /// engine's no-obs fast path): reports carry a `null` metrics block
    /// and the aggregated stage profile stays empty, but labels and
    /// every deterministic report field are unchanged — so instrumented
    /// and uninstrumented sweeps of one grid stay comparable.
    pub fn no_obs(&mut self) -> &mut Self {
        self.no_obs = true;
        self
    }

    /// Number of enqueued (deduplicated) jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs are enqueued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Enqueues a [`RunSpec`], deduplicating against previously enqueued
    /// specs: an identical spec returns the existing handle and the run
    /// executes once.
    pub fn spec(&mut self, spec: RunSpec) -> RunHandle {
        let spec = if self.no_obs {
            spec.with_no_obs()
        } else {
            spec
        };
        if let Some((_, handle)) = self.specs.iter().find(|(s, _)| *s == spec) {
            return *handle;
        }
        let label = spec.label();
        let run = spec.clone();
        let handle = self.push(label, move || run.run_instrumented());
        self.specs.push((spec, handle));
        handle
    }

    /// Enqueues every spec in order, returning one handle per spec
    /// (duplicates share handles).
    pub fn specs<I: IntoIterator<Item = RunSpec>>(&mut self, specs: I) -> Vec<RunHandle> {
        specs.into_iter().map(|s| self.spec(s)).collect()
    }

    /// Enqueues an arbitrary labelled job (for runs that need bespoke
    /// setup, e.g. a campaign cell's fault drill). No
    /// deduplication is attempted for closure jobs.
    pub fn job<R: Into<JobResult>>(
        &mut self,
        label: impl Into<String>,
        task: impl Fn() -> R + Send + Sync + 'static,
    ) -> RunHandle {
        self.push(label.into(), task)
    }

    fn push<R: Into<JobResult>>(
        &mut self,
        label: String,
        task: impl Fn() -> R + Send + Sync + 'static,
    ) -> RunHandle {
        let handle = RunHandle(self.jobs.len());
        self.jobs.push(Job {
            label,
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

    /// Executes the batch on every available core (see
    /// [`run_with_threads`](Self::run_with_threads)).
    pub fn run(self) -> SweepResults {
        let threads = available_threads();
        self.run_with_threads(threads)
    }

    /// Executes the batch on `threads` workers and collects the results
    /// in enqueue order.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, if a worker thread fails to join, or
    /// if an attached journal cannot be opened (use
    /// [`try_run_with_threads`](Self::try_run_with_threads) to handle
    /// journal errors).
    pub fn run_with_threads(self, threads: usize) -> SweepResults {
        match self.try_run_with_threads(threads) {
            Ok(results) => results,
            Err(e) => panic!("campaign journal failed: {e}"),
        }
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
            let identity = if self.no_obs {
                format!("no-obs\n{}", self.journal_identity)
            } else {
                self.journal_identity.clone()
            };
            let vfs = Arc::new(RealVfs);
            let valid_extra = self.journal_extra.unwrap_or(|_| true);
            let (handle, replay) =
                CampaignJournal::open_with(dir, kind, &labels, &identity, valid_extra, vfs)?;
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
/// `--resume`, and the optional telemetry sink.
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
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: available_threads(),
            supervisor: SupervisorConfig::default(),
            journal_dir: None,
            telemetry: None,
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

/// The number of workers [`Sweep::run`] uses: all available cores.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One finished (or quarantined, or journal-restored) run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The label given at enqueue time (the spec label for spec jobs).
    pub label: String,
    /// The run's report; `None` when the cell was poisoned.
    pub report: Option<SimReport>,
    /// Per-stage self-profiling, when the job captured one (spec jobs
    /// always do; closure jobs may not, and journal-restored cells
    /// never do).
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
    /// The report for a handle returned at enqueue time.
    ///
    /// # Panics
    ///
    /// Panics if the cell was poisoned — callers that must survive
    /// quarantined cells use [`try_report`](Self::try_report).
    pub fn report(&self, handle: RunHandle) -> &SimReport {
        let o = &self.outcomes[handle.0];
        match &o.report {
            Some(report) => report,
            None => panic!(
                "cell `{}` was quarantined ({}) and has no report",
                o.label,
                o.status.token()
            ),
        }
    }

    /// The report for a handle, or `None` if the cell was poisoned.
    pub fn try_report(&self, handle: RunHandle) -> Option<&SimReport> {
        self.outcomes[handle.0].report.as_ref()
    }

    /// All outcomes in enqueue order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Number of runs executed.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the sweep held no runs.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
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

    /// Sum of the individual run times — what a sequential execution
    /// would have cost (modulo scheduling overhead).
    pub fn sequential_wall(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// The per-stage self-profiling folded across every run that
    /// captured one (wall-clock nanoseconds and call counts; host
    /// timing, not deterministic).
    pub fn stage_profile(&self) -> StageProfile {
        let mut total = StageProfile::new();
        for o in &self.outcomes {
            if let Some(stages) = &o.stages {
                total.merge(stages);
            }
        }
        total
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

    /// Completed runs per second of wall-clock time.
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Serializes the sweep as the `BENCH_sweep.json` document: batch
    /// timing, the aggregated per-stage self-profile, the supervisor's
    /// `harness` block, and, per run, its label, status, wall-clock, and
    /// full report (`null` for poisoned cells). [`crate::schema`]
    /// declares which of its fields vary run to run; two sweeps over one
    /// grid, on any thread count and after any resume, have the same
    /// [`deterministic_view`](crate::deterministic_view).
    pub fn to_json(&self) -> String {
        let results = self.outcomes.iter().map(|o| {
            json_object(&[
                ("label", o.label.to_json()),
                ("status", o.status.token().to_json()),
                ("wall_ms", (o.wall.as_secs_f64() * 1_000.0).to_json()),
                ("report", o.report.to_json()),
            ])
        });
        let quantiles = json_object(&[("cell_wall_ms", self.cell_wall_quantiles().to_json())]);
        json_object(&[
            ("schema", "simty-bench-sweep/v1".to_json()),
            ("threads", self.threads.to_json()),
            ("runs", self.outcomes.len().to_json()),
            (
                "total_wall_ms",
                (self.wall.as_secs_f64() * 1_000.0).to_json(),
            ),
            (
                "sequential_wall_ms",
                (self.sequential_wall().as_secs_f64() * 1_000.0).to_json(),
            ),
            ("runs_per_sec", self.runs_per_sec().to_json()),
            ("journal_skips", self.journal_skips.to_json()),
            ("harness", self.harness().to_json()),
            ("stages", self.stage_profile().to_json()),
            ("quantiles", quantiles),
            ("results", json_array(results)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty::core::SimDuration;
    use simty::experiments::{PolicyKind, Scenario};

    fn quick(policy: PolicyKind, seed: u64) -> RunSpec {
        RunSpec::paper(policy, Scenario::Light, seed).with_duration(SimDuration::from_mins(5))
    }

    #[test]
    fn spec_dedup_shares_handles() {
        let mut sweep = Sweep::new();
        let a = sweep.spec(quick(PolicyKind::Native, 1));
        let b = sweep.spec(quick(PolicyKind::Simty, 1));
        let c = sweep.spec(quick(PolicyKind::Native, 1));
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(sweep.len(), 2);
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let grid = || {
            let mut sweep = Sweep::new();
            for policy in [PolicyKind::Native, PolicyKind::Simty] {
                for seed in 1..=2 {
                    sweep.spec(quick(policy, seed));
                }
            }
            sweep
        };
        let sequential = grid().run_with_threads(1);
        let parallel = grid().run_with_threads(4);
        let view = |results: &SweepResults| crate::deterministic_view(&results.to_json());
        assert_eq!(view(&sequential).unwrap(), view(&parallel).unwrap());
        assert_eq!(sequential.len(), 4);
    }

    #[test]
    fn handles_resolve_in_enqueue_order() {
        let mut sweep = Sweep::new();
        let native = sweep.spec(quick(PolicyKind::Native, 1));
        let simty = sweep.spec(quick(PolicyKind::Simty, 1));
        let job = sweep.job("custom", || quick(PolicyKind::Exact, 1).run());
        let results = sweep.run_with_threads(3);
        assert_eq!(results.report(native).policy, "NATIVE");
        assert_eq!(results.report(simty).policy, "SIMTY");
        assert_eq!(results.report(job).policy, "EXACT");
        assert_eq!(results.outcomes()[2].label, "custom");
        assert!(results.runs_per_sec() > 0.0);
    }

    #[test]
    fn json_document_shape() {
        let mut sweep = Sweep::new();
        sweep.spec(quick(PolicyKind::Native, 1));
        let results = sweep.run_with_threads(1);
        let json = results.to_json();
        for key in [
            "\"schema\":\"simty-bench-sweep/v1\"",
            "\"threads\":1",
            "\"runs\":1",
            "\"total_wall_ms\"",
            "\"runs_per_sec\"",
            "\"stages\":{\"queue_search\":{\"ns\":",
            "\"selection\":{",
            "\"event_dispatch\":{",
            "\"checkpoint_io\":{",
            "\"results\":[",
            "\"label\":\"NATIVE/light/seed1/b0.96/300s\"",
            "\"report\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
