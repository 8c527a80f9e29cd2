//! The campaign kernel shared by the chaos, soak and storm campaigns.
//!
//! All three campaigns test the paper's guarantee — perceptible alarms
//! never slip past their windows — against a different adversary: a
//! faulty device ([`crate::chaos`]), long horizons with reboots and
//! rotting snapshots ([`crate::soak`]), and registration overload
//! ([`crate::storm`]). They share everything else: a policy × scenario ×
//! profile × seed grid ([`matrix`]) of [`CampaignSpec`] cells, fanned out
//! on the supervised, journaled [`Sweep`] executor by [`run_campaign`],
//! and collected into a [`CampaignResults`] that serializes to the
//! campaign's `simty-bench-<kind>/v1` document. Results are
//! byte-identical regardless of thread count and of how many cells a
//! `--resume` journal restored.
//!
//! A campaign supplies only what differs, through the [`Campaign`]
//! trait: its [`Profile`] enum, how a profile builds and runs a cell,
//! the per-cell [`Drill`] payload the cell reports beside its
//! [`SimReport`], and its per-policy aggregate.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

use simty::apps::Workload;
use simty::core::SimDuration;
use simty::experiments::{PolicyKind, Scenario};
use simty::obs::QuantileSummary;
use simty::obs::json_string;
use simty::sim::json::report_to_json;
use simty::sim::{Checkpoint, CheckpointError, SimConfig, SimReport, Simulation};

use crate::journal::JournalError;
use crate::supervisor::{CellStatus, HarnessStats};
use crate::sweep::{CampaignOptions, JobResult, Sweep, SweepResults};

/// A campaign's named adversaries: one profile per grid column.
pub trait Profile: Copy + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Every profile, in campaign order.
    const ALL: &'static [Self];

    /// The profile's CLI / report name.
    fn name(self) -> &'static str;

    /// Parses a profile name (the inverse of [`name`](Self::name)).
    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// What a cell's drill observed beside its straight-through report
/// (`()` for campaigns without one). The payload rides the campaign
/// journal's `extra` field, so a journal-restored cell keeps it.
pub trait Drill: Copy + Default + Send + Sync + 'static {
    /// Encodes the payload as the journal's `extra` field (`None` when
    /// there is nothing to keep).
    fn to_extra(self) -> Option<String>;

    /// Reverses [`to_extra`](Self::to_extra); `None` on a malformed
    /// payload.
    fn from_extra(extra: &str) -> Option<Self>;

    /// The payload's per-cell document fields as `(key, JSON value)`
    /// pairs; `drill` is `None` for a quarantined cell, whose fields are
    /// `null`.
    fn cell_fields(drill: Option<Self>) -> Vec<(&'static str, String)>;

    /// Whether the drill restored and matched bytes.
    fn recovered(self) -> bool;
}

impl Drill for () {
    fn to_extra(self) -> Option<String> {
        None
    }

    fn from_extra(_extra: &str) -> Option<()> {
        Some(())
    }

    fn cell_fields(_drill: Option<()>) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    fn recovered(self) -> bool {
        true
    }
}

/// What differs between campaigns; the kernel does the rest.
pub trait Campaign: Sized + 'static {
    /// The campaign's adversaries.
    type Profile: Profile;
    /// The per-cell drill payload.
    type Drill: Drill;
    /// The per-policy aggregate over completed cells.
    type Aggregate;

    /// The campaign kind: the journal kind and the `<kind>` of the
    /// `simty-bench-<kind>/v1` document schema.
    const KIND: &'static str;

    /// Builds and runs one cell to the end, then its drill.
    fn run_cell(spec: &CampaignSpec<Self::Profile>) -> (SimReport, Self::Drill);

    /// Folds one policy's completed cells into its aggregate.
    fn aggregate(policy: String, cells: &[(&SimReport, Self::Drill)]) -> Self::Aggregate;

    /// Serializes one aggregate as a JSON object.
    fn aggregate_json(aggregate: &Self::Aggregate) -> String;

    /// Campaign-specific per-invocation document header fields, each as
    /// `,"key":value` (none by default).
    fn header_json(_results: &CampaignResults<Self>) -> String {
        String::new()
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

impl<P: Profile> CampaignSpec<P> {
    /// A compact identity for sweep outputs, e.g.
    /// `SIMTY/heavy/mixed/seed1/3600s`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}/{}s",
            self.policy.name(),
            self.scenario.name(),
            self.profile.name(),
            self.seed,
            self.duration.as_millis() / 1_000
        )
    }

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
        sim.register(alarm).expect("workload alarm registers cleanly");
    }
    sim
}

/// Sums one report counter over a policy's completed cells.
pub(crate) fn sum<D>(cells: &[(&SimReport, D)], counter: fn(&SimReport) -> u64) -> u64 {
    cells.iter().map(|(report, _)| counter(report)).sum()
}

/// Renders `(key, JSON value)` pairs, in order, as a JSON object.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}:{value}", json_string(key)))
        .collect();
    format!("{{{}}}", fields.join(","))
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

/// Runs a campaign under harness [`CampaignOptions`] and collects the
/// results in matrix order (byte-identical across thread counts). Cells
/// run supervised: a panicking or hung cell is quarantined, not fatal.
/// When `journal_dir` is set, cells completed by a previous interrupted
/// invocation are restored instead of re-run, drill payload included.
///
/// # Errors
///
/// [`JournalError`] when the journal directory holds a journal for a
/// different campaign kind or grid, or cannot be opened.
pub fn run_campaign<C: Campaign>(
    specs: &[CampaignSpec<C::Profile>],
    options: &CampaignOptions,
) -> Result<CampaignResults<C>, JournalError> {
    let mut sweep = Sweep::new();
    sweep.with_supervisor(options.supervisor);
    if let Some(dir) = &options.journal_dir {
        sweep.with_journal(dir, C::KIND);
    }
    if let Some(sink) = &options.telemetry {
        sweep.with_telemetry(sink.clone());
    }
    for &spec in specs {
        sweep.job(spec.label(), move || {
            let (report, drill) = C::run_cell(&spec);
            JobResult {
                report,
                stages: None,
                extra: drill.to_extra(),
            }
        });
    }
    Ok(CampaignResults {
        specs: specs.to_vec(),
        sweep: sweep.try_run_with_threads(options.threads)?,
    })
}

/// One cell of a finished campaign: its spec, its supervisor status, its
/// report (`None` for a quarantined cell), and its drill payload (`None`
/// when the cell carries none or it did not decode).
pub type CellRun<'a, C> = (
    &'a CampaignSpec<<C as Campaign>::Profile>,
    &'a CellStatus,
    Option<&'a SimReport>,
    Option<<C as Campaign>::Drill>,
);

/// A finished campaign: every cell's spec beside the [`SweepResults`]
/// that ran it (status, report — `None` for quarantined cells — and
/// drill payload), in matrix order.
#[derive(Debug, Clone)]
pub struct CampaignResults<C: Campaign> {
    specs: Vec<CampaignSpec<C::Profile>>,
    sweep: SweepResults,
}

impl<C: Campaign> CampaignResults<C> {
    /// The cells, their statuses, reports, and drill payloads, in
    /// matrix order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = CellRun<'_, C>> {
        self.specs.iter().zip(self.sweep.outcomes()).map(|(spec, o)| {
            let drill = C::Drill::from_extra(o.extra.as_deref().unwrap_or_default());
            (spec, &o.status, o.report.as_ref(), drill)
        })
    }

    /// The completed cells (quarantined cells carry no report). A
    /// completed cell missing its drill payload counts as an
    /// unrecovered default, never a silent success.
    pub(crate) fn completed(
        &self,
    ) -> impl Iterator<Item = (&CampaignSpec<C::Profile>, &SimReport, C::Drill)> + '_ {
        self.runs().filter_map(|(spec, _, report, drill)| {
            report.map(|r| (spec, r, drill.unwrap_or_default()))
        })
    }

    /// Cells restored from the campaign journal instead of executed in
    /// this invocation (zero without `--resume`).
    pub fn journal_skips(&self) -> u64 {
        self.sweep.journal_skips()
    }

    /// Exact p50/p90/p99/max over the executed cells' wall times (ms);
    /// `None` when every cell was journal-restored. Wall-clock data:
    /// surfaced only in the document header, never in the deterministic
    /// body.
    pub fn cell_wall_quantiles(&self) -> Option<QuantileSummary> {
        self.sweep.cell_wall_quantiles()
    }

    /// Supervisor accounting over the campaign.
    pub fn harness(&self) -> HarnessStats {
        self.sweep.harness()
    }

    /// The quarantined cells' `(label, reason)` pairs, in matrix order.
    pub fn poisoned(&self) -> Vec<(String, String)> {
        self.sweep.poisoned()
    }

    /// Total invariant violations across every completed cell.
    pub fn total_violations(&self) -> u64 {
        self.completed()
            .map(|(_, r, _)| r.resilience.invariant_violations)
            .sum()
    }

    /// Total perceptible-window misses across every completed cell.
    pub fn total_misses(&self) -> u64 {
        self.completed()
            .map(|(_, r, _)| r.resilience.perceptible_window_misses)
            .sum()
    }

    /// The labels of the completed cells whose drill did not restore and
    /// match bytes (quarantined cells are the harness's concern, not the
    /// drill's).
    pub fn unrecovered(&self) -> Vec<String> {
        self.completed()
            .filter(|(_, _, drill)| !drill.recovered())
            .map(|(spec, _, _)| spec.label())
            .collect()
    }

    /// Whether every completed cell's drill restored and matched bytes.
    pub fn all_recovered(&self) -> bool {
        self.unrecovered().is_empty()
    }

    /// Per-policy aggregates over the completed cells, sorted by policy
    /// name.
    pub fn aggregates(&self) -> Vec<C::Aggregate> {
        let mut by_policy: BTreeMap<String, Vec<(&SimReport, C::Drill)>> = BTreeMap::new();
        for (spec, report, drill) in self.completed() {
            by_policy
                .entry(spec.policy.name())
                .or_default()
                .push((report, drill));
        }
        by_policy
            .into_iter()
            .map(|(policy, cells)| C::aggregate(policy, &cells))
            .collect()
    }

    /// Serializes the campaign as the `simty-bench-<kind>/v1` document
    /// body. Fully deterministic: no wall-clock or per-invocation
    /// fields, so parallel, sequential, and journal-resumed campaigns
    /// produce byte-identical bytes (the per-invocation fields live
    /// only in [`to_json_document`](Self::to_json_document)'s header).
    pub fn to_json(&self) -> String {
        self.render("")
    }

    /// The full on-disk document: [`to_json`](Self::to_json) plus the
    /// per-invocation header — the campaign's own fields (soak's
    /// `resume_wall_ms`), `journal_skips` (how many cells this
    /// invocation restored from the journal instead of running), and
    /// the executed cells' wall-time quantiles (`null` when every cell
    /// was restored).
    pub fn to_json_document(&self) -> String {
        let quantiles = self
            .cell_wall_quantiles()
            .map_or_else(|| "null".to_owned(), |q| q.to_json());
        self.render(&format!(
            "{},\"journal_skips\":{},\"quantiles\":{{\"cell_wall_ms\":{quantiles}}}",
            C::header_json(self),
            self.journal_skips()
        ))
    }

    /// Writes [`to_json_document`](Self::to_json_document) to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json_document())
    }

    /// The document with `header` spliced in after the schema.
    fn render(&self, header: &str) -> String {
        let results: Vec<String> = self
            .runs()
            .map(|(spec, status, report, drill)| {
                let mut fields = vec![
                    ("label", json_string(&spec.label())),
                    ("profile", json_string(spec.profile.name())),
                    ("seed", spec.seed.to_string()),
                    ("status", json_string(&status.token())),
                ];
                fields.extend(C::Drill::cell_fields(report.map(|_| drill.unwrap_or_default())));
                fields.push(("report", report.map_or_else(|| "null".to_owned(), report_to_json)));
                json_object(&fields)
            })
            .collect();
        let policies: Vec<String> = self.aggregates().iter().map(C::aggregate_json).collect();
        format!(
            "{{\"schema\":\"simty-bench-{}/v1\"{header},\"runs\":{},\"harness\":{},\
             \"results\":[{}],\"policies\":[{}]}}",
            C::KIND,
            self.specs.len(),
            self.harness().to_json(),
            results.join(","),
            policies.join(",")
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
    fn resume_restores_every_cell<C: Campaign>(profiles: &[C::Profile]) {
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
        assert!(second.all_recovered(), "{}", C::KIND);
        assert_eq!(first.to_json(), second.to_json(), "{}", C::KIND);
    }

    #[test]
    fn resume_restores_every_cell_byte_identically() {
        resume_restores_every_cell::<Chaos>(&[FaultProfile::Baseline, FaultProfile::Mixed]);
        resume_restores_every_cell::<Soak>(&[SoakProfile::SingleReboot, SoakProfile::TornStale]);
        resume_restores_every_cell::<Storm>(&[
            StormProfile::QuotaStorm,
            StormProfile::DrainCritical,
        ]);
    }
}
