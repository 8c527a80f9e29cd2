//! Figure 3 — total energy consumed in connected standby under NATIVE
//! and SIMTY, for the light and heavy workloads (3 h, β = 0.96, averaged
//! over three seeded repetitions, as in §4.1).
//!
//! The paper reports that SIMTY saves more than 33 % of the energy NATIVE
//! uses to keep the phone awake, and 20 % / 25 % of total standby energy
//! under the light / heavy workload — enough to prolong standby time by
//! one-fourth to one-third.
//!
//! All twelve runs (2 workloads × 2 policies × 3 seeds) execute in one
//! parallel sweep. Accepts `--threads N` and `--json PATH`.

use simty::experiments::Spread;
use simty::prelude::*;
use simty::sim::report::{bar_chart, fmt_joules, fmt_percent, TextTable};
use simty_bench::sweep::{json_path_from_args, threads_from_args};
use simty_bench::{paper_specs, Averages, PolicyKind, Scenario, Sweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("Figure 3 — energy consumption under NATIVE and SIMTY (3 h, 3 seeds)\n");
    let mut sweep = Sweep::new();
    let mut handles = Vec::new();
    for scenario in [Scenario::Light, Scenario::Heavy] {
        for policy in [PolicyKind::Native, PolicyKind::Simty] {
            handles.push((scenario, policy, sweep.specs(paper_specs(policy, scenario))));
        }
    }
    let results = sweep.run_with_threads(threads_from_args(&args));

    let mut table = TextTable::new([
        "workload",
        "policy",
        "sleep (J)",
        "awake (J)",
        "total (J, mean ± std)",
        "avg power (mW)",
    ]);
    let battery = Battery::nexus5();
    let mut bars = Vec::new();
    for scenario in [Scenario::Light, Scenario::Heavy] {
        let runs_of = |policy: PolicyKind| {
            let (_, _, h) = handles
                .iter()
                .find(|(s, p, _)| *s == scenario && *p == policy)
                .expect("handle enqueued");
            results.reports(h)
        };
        let native_runs = runs_of(PolicyKind::Native);
        let simty_runs = runs_of(PolicyKind::Simty);
        let native = Averages::of(&native_runs);
        let simty = Averages::of(&simty_runs);
        for (name, avg, runs) in [
            ("NATIVE", &native, &native_runs),
            ("SIMTY", &simty, &simty_runs),
        ] {
            let total = Spread::over(runs, |r| r.energy.total_mj() / 1_000.0);
            table.row([
                scenario.name().to_owned(),
                name.to_owned(),
                fmt_joules(avg.sleep_mj),
                fmt_joules(avg.awake_mj),
                total.format(1),
                format!("{:.2}", avg.power_mw),
            ]);
            bars.push((
                format!("{} {}", scenario.name(), name),
                avg.total_mj / 1_000.0,
            ));
        }
        let awake_saving = 1.0 - simty.awake_mj / native.awake_mj;
        let total_saving = 1.0 - simty.total_mj / native.total_mj;
        let extension = battery.standby_extension(native.power_mw, simty.power_mw);
        println!(
            "{:<6} awake-energy saving {} (paper: >33%), total saving {} \
             (paper: {}), standby prolonged {}",
            scenario.name(),
            fmt_percent(awake_saving),
            fmt_percent(total_saving),
            if scenario == Scenario::Light {
                "20%"
            } else {
                "25%"
            },
            fmt_percent(extension),
        );
    }
    println!("\n{}", table.render());
    println!("total energy (J):\n{}", bar_chart(&bars, 48));
    println!(
        "Note: absolute joules depend on the simulator's calibrated power model;\n\
         the paper's claims are about the NATIVE/SIMTY ratios, which are echoed above."
    );
    if let Some(path) = json_path_from_args(&args) {
        results.write_json(&path).expect("writes sweep json");
        println!("wrote {path}");
    }
}
