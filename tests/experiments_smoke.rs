//! The paper's headline results (§4.2) and the ablation and sensitivity
//! studies' claims as gates. Each test names the targets of
//! `simty::paper::TARGETS` that its assertions are declared as; a target
//! holds when its band contains both its seed-1 value and its mean over
//! seeds 1–3. The grid runs once per test binary.
//!
//! `standby repro` prints the same targets; `crates/cli/tests` checks
//! that its output is the block committed in EXPERIMENTS.md.

use std::sync::OnceLock;

use simty::paper::{evaluate, Outcome, PaperGrid};

fn outcomes() -> &'static [Outcome] {
    static OUTCOMES: OnceLock<Vec<Outcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| evaluate(&PaperGrid::run()))
}

fn outcome(id: &str) -> &'static Outcome {
    let o = outcomes().iter().find(|o| o.target.id == id);
    o.unwrap_or_else(|| panic!("no target {id}"))
}

/// Asserts that each of `ids` is a gated target that holds.
fn hold(ids: &[&str]) {
    for id in ids {
        let o = outcome(id);
        let band = o.target.band.unwrap_or_else(|| panic!("{id} has no band"));
        assert!(
            o.holds(),
            "{id}: seed 1 {} and mean {} against {}",
            o.seed_one,
            o.mean,
            band.text
        );
    }
}

#[test]
fn fig2_motivating_example_energies() {
    hold(&["fig2.native", "fig2.simty"]);
}

#[test]
fn fig3_energy_savings_light_workload() {
    hold(&["fig3.light.awake_saving", "fig3.light.total_saving"]);
}

#[test]
fn fig3_energy_savings_heavy_workload() {
    hold(&[
        "fig3.heavy.awake_saving",
        "fig3.heavy.total_saving",
        "fig3.heavy.standby_extension",
    ]);
}

#[test]
fn fig4_perceptible_delays_are_zero_under_both_policies() {
    for cell in ["light.native", "light.simty", "heavy.native", "heavy.simty"] {
        hold(&[
            &format!("fig4.{cell}.perceptible"),
            &format!("fig4.{cell}.perceptible_alarms"),
        ]);
    }
}

#[test]
fn fig4_imperceptible_delays_have_the_papers_shape() {
    hold(&[
        "fig4.light.simty.imperceptible",
        "fig4.heavy.simty.imperceptible",
        "fig4.simty.heavy_over_light",
        "fig4.light.native.imperceptible",
        "fig4.heavy.native.imperceptible",
        "fig4.light.simty_over_native",
    ]);
}

#[test]
fn table4_cpu_wakeups_drop_by_a_large_factor() {
    for scenario in ["light", "heavy"] {
        hold(&[
            &format!("table4.{scenario}.cpu_cut"),
            &format!("table4.{scenario}.simty_over_native.wakes"),
        ]);
        for policy in ["native", "simty"] {
            hold(&[
                &format!("table4.{scenario}.{policy}.wakes_per_batch"),
                &format!("table4.{scenario}.{policy}.batches_per_delivery"),
            ]);
        }
    }
}

#[test]
fn table4_per_hardware_wakeups_approach_the_static_lower_bound() {
    for component in ["speaker", "wps", "accelerometer"] {
        hold(&[
            &format!("table4.heavy.simty.{component}_over_bound"),
            &format!("table4.heavy.simty.{component}_per_delivery"),
        ]);
    }
    hold(&["table4.heavy.simty.wifi"]);
}

#[test]
fn exact_baseline_bounds_both_policies() {
    // SIMTY below NATIVE in batches and in awake energy is implied by
    // `table4.light.cpu_cut` and `fig3.light.awake_saving`.
    hold(&[
        "table4.light.exact.batches_per_delivery",
        "table4.light.native_over_exact.batches",
        "table4.light.cpu_cut",
        "fig3.light.native_over_exact_awake",
        "fig3.light.awake_saving",
    ]);
}

#[test]
fn analytic_estimate_brackets_the_simulated_policies() {
    hold(&[
        "estimate.light.exact_over_unaligned",
        "estimate.light.simty_over_unaligned",
        "estimate.light.simty_over_best_case",
    ]);
}

#[test]
fn dynamic_alarms_reduce_expected_wakeups_under_simty() {
    hold(&["table4.light.simty_over_native.expected"]);
}

#[test]
fn ablation_beta_cuts_wakeups_and_awake_energy_at_every_step() {
    hold(&["ablation.beta.wakes_step", "ablation.beta.awake_step"]);
}

#[test]
fn ablation_four_level_similarity_matches_three_level_on_table3() {
    hold(&["ablation.granularity_4_over_3.awake"]);
}

#[test]
fn ablation_dursim_tracks_simty_on_table3() {
    hold(&["ablation.dursim_over_simty.awake"]);
}

#[test]
fn ablation_dursim_pays_off_on_the_duration_mix() {
    hold(&[
        "ablation.mix.dursim_over_simty.wifi",
        "ablation.mix.dursim_over_simty.wifi_hold",
    ]);
}

#[test]
fn ablation_fixed_grids_and_doze_delay_perceptible_alarms() {
    hold(&[
        "ablation.fixed_60s.perceptible",
        "ablation.fixed_300s.perceptible",
        "ablation.doze.perceptible",
        "ablation.doze.imperceptible",
        "ablation.fixed_60s_over_simty.batches",
    ]);
}

#[test]
fn sensitivity_awake_saving_survives_every_perturbation() {
    hold(&["sensitivity.awake_saving_min"]);
}

#[test]
fn sensitivity_total_saving_falls_as_the_sleep_floor_rises() {
    hold(&["sensitivity.sleep_x2_over_x0.5.total_saving"]);
}

/// Study claims the rows do not bear out: realignment does not trim
/// batch deliveries on every seed, β's saving still climbs past 0.75, the
/// awake saving spans several points across perturbations, and the
/// 2-level scheme strays past 1 % on seed 1. Their rows stay reported.
#[test]
fn study_claims_that_do_not_hold_are_reported_only() {
    for id in [
        "ablation.push.realign_minus_no_realign.batches",
        "ablation.beta.saving_past_0.75",
        "sensitivity.awake_saving_max",
        "ablation.granularity_2_over_3.awake",
    ] {
        assert!(outcome(id).target.band.is_none(), "{id} is gated");
    }
}
