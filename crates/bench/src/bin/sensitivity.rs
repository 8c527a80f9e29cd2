//! Sensitivity analysis: does the reproduction's headline (SIMTY's energy
//! saving over NATIVE) depend on the calibrated power model?
//!
//! The simulator's absolute joules are calibrated to the paper's three
//! Monsoon measurements, but the sleep floor, the wake-transition cost,
//! and the radio power were inferred. This binary perturbs each parameter
//! across a wide range and reports the SIMTY-vs-NATIVE saving, showing
//! that *who wins and by roughly how much* is robust to the calibration.
//!
//! Every (policy, power model) pair is a [`RunSpec`] enqueued into one
//! parallel sweep; the sweep's spec cache deduplicates identical pairs,
//! so the calibrated NATIVE/SIMTY baselines run exactly once no matter
//! how many rows reference them (previously each row re-ran its own
//! NATIVE from scratch, sequentially). Accepts `--threads N` and
//! `--json PATH` ([`StudyArgs`]); any other argument, a missing value or a
//! `--threads` that is not a positive integer exits 2.

use simty::prelude::*;
use simty::sim::report::{fmt_percent, TextTable};
use simty_bench::sweep::{RunHandle, StudyArgs};
use simty_bench::{PolicyKind, RunSpec, Scenario, Sweep};

fn perturbations() -> Vec<(String, PowerModel)> {
    let mut rows = vec![("baseline (calibrated)".to_owned(), PowerModel::nexus5())];
    for factor in [0.5, 2.0] {
        let mut m = PowerModel::nexus5();
        m.sleep_power_mw *= factor;
        rows.push((format!("sleep floor x{factor}"), m));
    }
    for factor in [0.5, 2.0] {
        let mut m = PowerModel::nexus5();
        m.wake_transition_energy_mj *= factor;
        rows.push((format!("wake transition x{factor}"), m));
    }
    for factor in [0.5, 2.0] {
        let mut m = PowerModel::nexus5();
        for c in HardwareComponent::ALL {
            let mut p = m.component(c);
            p.active_power_mw *= factor;
            p.activation_energy_mj *= factor;
            m.set_component(c, p);
        }
        rows.push((format!("all component power x{factor}"), m));
    }
    for latency_ms in [50u64, 1_000] {
        let mut m = PowerModel::nexus5();
        m.wake_latency = SimDuration::from_millis(latency_ms);
        rows.push((format!("wake latency {latency_ms} ms"), m));
    }
    rows
}

fn main() {
    let args = StudyArgs::from_env("sensitivity");
    println!("Sensitivity of SIMTY's saving to the power calibration (heavy, 3 h, seed 1)\n");

    let rows = perturbations();
    let mut sweep = Sweep::new();
    let handles: Vec<(RunHandle, RunHandle)> = rows
        .iter()
        .map(|(_, model)| {
            let spec =
                |policy| RunSpec::paper(policy, Scenario::Heavy, 1).with_power(model.clone());
            (
                sweep.spec(spec(PolicyKind::Native)),
                sweep.spec(spec(PolicyKind::Simty)),
            )
        })
        .collect();
    let results = sweep.run_with_threads(args.threads);

    let mut table = TextTable::new(["perturbation", "total saving", "awake saving"]);
    for ((label, _), (native_h, simty_h)) in rows.iter().zip(&handles) {
        let native = results.report(*native_h);
        let simty = results.report(*simty_h);
        let total = 1.0 - simty.energy.total_mj() / native.energy.total_mj();
        let awake = 1.0 - simty.energy.awake_related_mj() / native.energy.awake_related_mj();
        table.row([label.clone(), fmt_percent(total), fmt_percent(awake)]);
    }

    println!("{}", table.render());
    println!(
        "The awake-energy saving stays in the same band across all perturbations;\n\
         only the *total* saving moves with the sleep floor, since sleep energy\n\
         is the part alignment cannot touch (the paper makes the same point\n\
         about low-power hardware design, §4.2)."
    );
    if let Some(path) = &args.json {
        results.write_json(path).expect("writes sweep json");
        println!("wrote {path}");
    }
}
