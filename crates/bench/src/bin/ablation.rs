//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. the grace fraction β (the paper fixes β = 0.96);
//! 2. the hardware-similarity granularity (2-, 3-, 4-level, §3.1.1);
//! 3. the §5 duration-similarity extension (DURSIM);
//! 4. NATIVE's realignment on reinsert (§2.1);
//! 5. the fixed-interval remedy \[5\] and DOZE;
//! 6. a duration-heterogeneous workload where DURSIM pays off.
//!
//! All runs: heavy workload, 3 h, seed 1 (single runs keep the sweep
//! readable; the paper-facing binaries average three seeds). Every run —
//! spec-shaped and bespoke alike — is enqueued into one parallel sweep;
//! the shared NATIVE and SIMTY baselines appearing in several sections
//! execute once thanks to spec deduplication. Accepts `--threads N` and
//! `--json PATH` ([`StudyArgs`]); any other argument, a missing value or a
//! `--threads` that is not a positive integer exits 2.

use simty::core::similarity::HardwareGranularity;
use simty::prelude::*;
use simty::sim::report::{fmt_joules, fmt_percent, TextTable};
use simty_bench::sweep::StudyArgs;
use simty_bench::{PolicyKind, RunSpec, Scenario, Sweep};

/// Ablation 4's bespoke run: heavy workload plus push-message traffic, so
/// NATIVE's reinsert-realignment path actually fires.
fn realignment_run(policy: PolicyKind) -> SimReport {
    let workload = Scenario::Heavy.builder().with_seed(1).build();
    let mut sim = Simulation::new(policy.build(), SimConfig::new());
    let mut plan = PushPlan::new(17);
    for alarm in workload.alarms {
        let label = alarm.label().to_owned();
        let id = sim.register(alarm).expect("registers");
        if matches!(label.as_str(), "Facebook" | "Line" | "KakaoTalk" | "WeChat") {
            plan = plan.subscribe(id, SimDuration::from_mins(10));
        }
    }
    plan.apply(&mut sim, SimDuration::from_hours(3));
    sim.run()
}

/// Ablation 6's bespoke run: two short-task and two long-task Wi-Fi
/// alarms whose windows all overlap, but arriving so that two entries
/// coexist (see the section body for the full rationale).
fn duration_mix_run(use_dursim: bool) -> SimReport {
    let mut sim = Simulation::new(
        if use_dursim {
            Box::new(DurationSimilarityPolicy::new()) as Box<dyn AlignmentPolicy>
        } else {
            Box::new(SimtyPolicy::new())
        },
        SimConfig::new(),
    );
    // (label, nominal, window seconds, task seconds): the short A and
    // the long B anchor two disjoint-window entries; the long C and
    // the short D overlap both and must choose.
    for (label, nominal_s, window_s, task_s) in [
        ("short-a", 600u64, 15u64, 1u64),
        ("long-b", 630, 15, 25),
        ("long-c", 612, 33, 25),
        ("short-d", 614, 32, 1),
    ] {
        let mut alarm = Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(600))
            .window(SimDuration::from_secs(window_s))
            .grace(SimDuration::from_secs(window_s))
            .hardware(HardwareComponent::Wifi.into())
            .task_duration(SimDuration::from_secs(task_s))
            .build()
            .expect("valid alarm");
        alarm.mark_hardware_known();
        sim.register(alarm).expect("registers");
    }
    sim.run()
}

fn main() {
    let args = StudyArgs::from_env("ablation");

    // Enqueue the entire study up front; the NATIVE baseline (used by the
    // saving column of ablation 1) and the SIMTY baseline (appearing in
    // ablations 1, 3, and 5) deduplicate to a single run each.
    let mut sweep = Sweep::new();
    let native = sweep.spec(RunSpec::paper(PolicyKind::Native, Scenario::Heavy, 1));
    let betas = [0.05, 0.25, 0.5, 0.75, 0.96];
    let beta_handles: Vec<_> = betas
        .iter()
        .map(|&beta| {
            sweep.spec(RunSpec::paper(PolicyKind::Simty, Scenario::Heavy, 1).with_beta(beta))
        })
        .collect();
    let granularities = [
        HardwareGranularity::Two,
        HardwareGranularity::Three,
        HardwareGranularity::Four,
    ];
    let gran_handles: Vec<_> = granularities
        .iter()
        .map(|&g| {
            sweep.spec(RunSpec::paper(
                PolicyKind::SimtyGranularity(g),
                Scenario::Heavy,
                1,
            ))
        })
        .collect();
    let dur_policies = [PolicyKind::Simty, PolicyKind::Dursim];
    let dur_handles: Vec<_> = dur_policies
        .iter()
        .map(|&p| sweep.spec(RunSpec::paper(p, Scenario::Heavy, 1)))
        .collect();
    let re_policies = [PolicyKind::Native, PolicyKind::NativeNoRealign];
    let re_handles: Vec<_> = re_policies
        .iter()
        .map(|&p| sweep.job(format!("realign/{}", p.name()), move || realignment_run(p)))
        .collect();
    let fixed_policies = [
        PolicyKind::FixedInterval(60),
        PolicyKind::FixedInterval(300),
        PolicyKind::Doze,
        PolicyKind::Simty,
    ];
    let fixed_handles: Vec<_> = fixed_policies
        .iter()
        .map(|&p| sweep.spec(RunSpec::paper(p, Scenario::Heavy, 1)))
        .collect();
    let mix_handles: Vec<_> = [false, true]
        .into_iter()
        .map(|dursim| {
            let name = if dursim { "DURSIM" } else { "SIMTY" };
            sweep.job(format!("duration-mix/{name}"), move || {
                duration_mix_run(dursim)
            })
        })
        .collect();

    let results = sweep.run_with_threads(args.threads);
    let native_awake = results.report(native).energy.awake_related_mj();

    println!("Ablation 1 — grace fraction β (heavy workload, SIMTY)\n");
    let mut beta_table = TextTable::new([
        "beta",
        "CPU wakeups",
        "awake (J)",
        "saving vs NATIVE",
        "impercept. delay",
    ]);
    // β below an app's α is clamped up to α per-alarm, so small values
    // probe how much the α = 0 alarms' grace intervals alone contribute.
    for (beta, handle) in betas.iter().zip(&beta_handles) {
        let r = results.report(*handle);
        beta_table.row([
            format!("{beta:.2}"),
            r.cpu_wakeups.to_string(),
            fmt_joules(r.energy.awake_related_mj()),
            fmt_percent(1.0 - r.energy.awake_related_mj() / native_awake),
            fmt_percent(r.delays.imperceptible_avg),
        ]);
    }
    println!("{}", beta_table.render());
    println!(
        "Larger β widens the grace interval: fewer wakeups, more energy saved,\n\
         more imperceptible delay — the paper picks the extreme β = 0.96.\n"
    );

    println!("Ablation 2 — hardware-similarity granularity (heavy, β = 0.96)\n");
    let mut gran_table = TextTable::new(["granularity", "CPU wakeups", "awake (J)", "total (J)"]);
    for (g, handle) in granularities.iter().zip(&gran_handles) {
        let r = results.report(*handle);
        gran_table.row([
            g.to_string(),
            r.cpu_wakeups.to_string(),
            fmt_joules(r.energy.awake_related_mj()),
            fmt_joules(r.energy.total_mj()),
        ]);
    }
    println!("{}", gran_table.render());

    println!("Ablation 3 — the §5 duration-similarity extension (heavy, β = 0.96)\n");
    let mut dur_table = TextTable::new(["policy", "CPU wakeups", "awake (J)", "hardware (J)"]);
    for (policy, handle) in dur_policies.iter().zip(&dur_handles) {
        let r = results.report(*handle);
        dur_table.row([
            policy.name(),
            r.cpu_wakeups.to_string(),
            fmt_joules(r.energy.awake_related_mj()),
            fmt_joules(r.energy.hardware_mj()),
        ]);
    }
    println!("{}", dur_table.render());

    println!("Ablation 4 — NATIVE realignment on reinsert (heavy + push traffic)\n");
    // The realignment path only fires when an app re-registers a
    // still-queued alarm (§2.1), so the comparison runs under push-message
    // traffic (each push reschedules the receiving messenger's alarm).
    let mut re_table = TextTable::new(["variant", "batch deliveries", "awake (J)"]);
    for (policy, handle) in re_policies.iter().zip(&re_handles) {
        let r = results.report(*handle);
        re_table.row([
            policy.name(),
            r.entry_deliveries.to_string(),
            fmt_joules(r.energy.awake_related_mj()),
        ]);
    }
    println!("{}", re_table.render());

    println!("Ablation 5 — fixed-interval remedy [5] vs SIMTY (heavy)\n");
    let mut fixed_table = TextTable::new([
        "policy",
        "batch deliveries",
        "awake (J)",
        "percept. delay",
        "impercept. delay",
    ]);
    for (policy, handle) in fixed_policies.iter().zip(&fixed_handles) {
        let r = results.report(*handle);
        fixed_table.row([
            policy.name(),
            r.entry_deliveries.to_string(),
            fmt_joules(r.energy.awake_related_mj()),
            fmt_percent(r.delays.perceptible_avg),
            fmt_percent(r.delays.imperceptible_avg),
        ]);
    }
    println!("{}", fixed_table.render());
    println!(
        "The fixed grid batches at least as hard as SIMTY but delays *perceptible*\n\
         alarms (nonzero perceptible delay) — the user-experience cost SIMTY's\n\
         search phase is designed to avoid (§1, §3.2.1). DOZE's escalating\n\
         windows go further still: spectacular savings, but alarms slip whole\n\
         periods (imperceptible delay above 100%) and notifications arrive\n\
         minutes late — the blunt platform instrument SIMTY refines.\n"
    );

    println!("Ablation 6 — a duration-heterogeneous workload where DURSIM pays off\n");
    // SIMTY ties on (hardware, time) similarity and takes the first-found
    // entry — mixing short with long and keeping the radio up for the
    // longest member of both batches. DURSIM's duration rank groups short
    // with short and long with long (§5). Capping each entry at two alarms
    // is forced by the timing: the second candidate's window no longer
    // overlaps the first merged entry's shrunken window.
    let mut mix_table = TextTable::new([
        "policy",
        "Wi-Fi energy (J)",
        "awake (J)",
        "mean Wi-Fi hold (s)",
    ]);
    for handle in &mix_handles {
        let r = results.report(*handle);
        let wifi_mj = r.energy.component_mj(HardwareComponent::Wifi);
        // Subtract activation charges to recover the active-time share.
        let activations = r
            .wakeup_row(HardwareComponent::Wifi)
            .map(|row| row.actual)
            .unwrap_or(0) as f64;
        let hold_s = (wifi_mj - activations * 200.0) / 150.0;
        mix_table.row([
            r.policy.clone(),
            fmt_joules(wifi_mj),
            fmt_joules(r.energy.awake_related_mj()),
            format!("{:.1}", hold_s / activations.max(1.0)),
        ]);
    }
    println!("{}", mix_table.render());

    if let Some(path) = &args.json {
        results.write_json(path).expect("writes sweep json");
        println!("wrote {path}");
    }
}
