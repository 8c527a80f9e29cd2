//! Connected standby with the paper's full 18-app heavy workload
//! (Table 3): a three-hour session under SIMTY, with the full energy
//! breakdown, wakeup statistics, and a CSV delivery trace.
//!
//! Run with `cargo run --release --example connected_standby -p simty`.

use std::fs::File;
use std::io::BufWriter;

use simty::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .build();
    println!(
        "registering {} alarms ({} workload)",
        workload.alarms.len(),
        workload.name
    );

    let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), SimConfig::new());
    for alarm in workload.alarms {
        sim.register(alarm)?;
    }
    let report = sim.run();

    println!("\n{report}\n");

    // Per-app delivery counts over the three hours.
    let mut per_app: std::collections::BTreeMap<&str, usize> = Default::default();
    for d in sim.trace().deliveries() {
        *per_app.entry(d.label.as_ref()).or_default() += 1;
    }
    println!("deliveries per app:");
    for (app, count) in &per_app {
        println!("  {app:<16} {count}");
    }

    // Battery projection vs a NATIVE run of the same workload.
    let mut native = Simulation::new(Box::new(NativePolicy::new()), SimConfig::new());
    for alarm in WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .build()
        .alarms
    {
        native.register(alarm)?;
    }
    let native_report = native.run();
    let battery = Battery::nexus5();
    let extension =
        battery.standby_extension(native_report.average_power_mw(), report.average_power_mw());
    println!(
        "\nNATIVE {:.2} mW vs SIMTY {:.2} mW -> standby prolonged by {:.0}%",
        native_report.average_power_mw(),
        report.average_power_mw(),
        extension * 100.0
    );

    // Dump the full trace for offline analysis.
    let path = "connected_standby_trace.csv";
    let file = BufWriter::new(File::create(path)?);
    sim.trace().write_csv(file)?;
    println!("delivery trace written to {path}");
    Ok(())
}
