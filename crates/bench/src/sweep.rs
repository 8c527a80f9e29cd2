//! The sweep campaign.
//!
//! `standby sweep` runs the paper's §4.1 evaluation as a grid: one
//! [`RunSpec`] per scenario × policy × seed × β. That grid is the fifth
//! campaign on the [campaign kernel](crate::campaign), [`Grid`], whose
//! cells are the specs themselves, each run instrumented so the
//! `BENCH_sweep.json` document carries the engine's per-stage profile.

use std::time::Duration;

use simty::experiments::{PolicyKind, RunSpec};
use simty::obs::StageProfile;
use simty::sim::SimReport;

use crate::campaign::{Campaign, CampaignOptions, CampaignResults, Cell};
use crate::json::{json_array, json_object, ToJson};

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
    fn outcomes_resolve_in_cell_order() {
        let policies = [PolicyKind::Native, PolicyKind::Simty, PolicyKind::Exact];
        let specs: Vec<RunSpec> = policies.iter().map(|&p| quick(p, 1)).collect();
        let results = grid(&specs, 3);
        let order: Vec<(String, Option<&str>)> = results
            .outcomes()
            .iter()
            .map(|o| {
                (
                    o.label.clone(),
                    o.report.as_ref().map(|r| r.policy.as_str()),
                )
            })
            .collect();
        let expected: Vec<(String, Option<&str>)> = specs
            .iter()
            .zip(["NATIVE", "SIMTY", "EXACT"])
            .map(|(spec, policy)| (spec.label(), Some(policy)))
            .collect();
        assert_eq!(order, expected);
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
