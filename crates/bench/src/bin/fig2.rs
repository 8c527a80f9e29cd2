//! Figure 2 — the motivating example: one calendar alarm and two WPS
//! location alarms in a queue snapshot.
//!
//! The paper measures 7 520 mJ for the native alignment (the new WPS
//! alarm joins the calendar entry) and 4 050 mJ for similarity-based
//! alignment (the new WPS alarm tolerates postponement and joins the
//! other WPS alarm).
//!
//! Accepts `--threads N` and `--json PATH` (sweep document, see
//! EXPERIMENTS.md).

use simty_bench::sweep::{json_path_from_args, threads_from_args};
use simty_bench::{motivating_example_report, paper_vs_measured, PolicyKind, Sweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("Figure 2 — motivating example (awake-related energy per snapshot)\n");
    let mut sweep = Sweep::new();
    let handles: Vec<_> = [PolicyKind::Native, PolicyKind::Simty, PolicyKind::Exact]
        .into_iter()
        .map(|policy| {
            sweep.job(format!("fig2/{}", policy.name()), move || {
                motivating_example_report(policy)
            })
        })
        .collect();
    let results = sweep.run_with_threads(threads_from_args(&args));
    let energy = |i: usize| results.report(handles[i]).energy.awake_related_mj();
    let (native, simty, exact) = (energy(0), energy(1), energy(2));
    println!(
        "{}",
        paper_vs_measured("NATIVE (Fig. 2b)", 7_520.0, native, "mJ")
    );
    println!(
        "{}",
        paper_vs_measured("SIMTY  (Fig. 2c)", 4_050.0, simty, "mJ")
    );
    println!(
        "{}",
        paper_vs_measured("no alignment (for reference)", 7_700.0, exact, "mJ")
    );
    println!(
        "\nSIMTY saves {:.0}% of the energy NATIVE spends on the snapshot \
         (paper: {:.0}%).",
        100.0 * (1.0 - simty / native),
        100.0 * (1.0 - 4_050.0 / 7_520.0)
    );
    if let Some(path) = json_path_from_args(&args) {
        results.write_json(&path).expect("writes sweep json");
        println!("wrote {path}");
    }
}
