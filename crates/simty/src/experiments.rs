//! Shared experiment harness: the runs behind every figure and table of
//! the paper, read by [`paper`](crate::paper)'s targets, the `simty-bench`
//! sweeps and campaigns, and the integration test suite.

use simty_apps::workload::WorkloadBuilder;
use simty_apps::PushPlan;
use simty_core::alarm::Alarm;
use simty_core::hardware::{HardwareComponent, HardwareSet};
use simty_core::policy::{
    AlignmentPolicy, DurationSimilarityPolicy, ExactPolicy, FixedIntervalPolicy, NativePolicy,
    SimtyPolicy,
};
use simty_core::similarity::HardwareGranularity;
use simty_core::time::{SimDuration, SimTime};
use simty_device::PowerModel;
use simty_obs::StageProfile;
use simty_sim::config::SimConfig;
use simty_sim::engine::Simulation;
use simty_sim::metrics::{SimReport, WakeupRow};
use simty_sim::obs::ObsLevel;

/// The alignment policies an experiment can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No alignment (Table 4 denominators).
    Exact,
    /// Android's native policy.
    Native,
    /// Native without realignment on reinsert (ablation).
    NativeNoRealign,
    /// The paper's policy with 3-level hardware similarity.
    Simty,
    /// SIMTY with an alternative hardware-similarity granularity.
    SimtyGranularity(HardwareGranularity),
    /// The §5 duration-similarity extension.
    Dursim,
    /// The fixed-grid remedy of Lin et al. \[5\], with the grid period in
    /// seconds.
    FixedInterval(u64),
    /// Doze-style escalating maintenance windows (Android-like defaults).
    Doze,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn AlignmentPolicy> {
        match self {
            PolicyKind::Exact => Box::new(ExactPolicy::new()),
            PolicyKind::Native => Box::new(NativePolicy::new()),
            PolicyKind::NativeNoRealign => Box::new(NativePolicy::without_realignment()),
            PolicyKind::Simty => Box::new(SimtyPolicy::new()),
            PolicyKind::SimtyGranularity(g) => Box::new(SimtyPolicy::with_granularity(g)),
            PolicyKind::Dursim => Box::new(DurationSimilarityPolicy::new()),
            PolicyKind::FixedInterval(secs) => {
                Box::new(FixedIntervalPolicy::new(SimDuration::from_secs(secs)))
            }
            PolicyKind::Doze => Box::new(simty_core::policy::DozePolicy::android_like()),
        }
    }

    /// Display name for reports.
    pub fn name(self) -> String {
        match self {
            PolicyKind::Exact => "EXACT".into(),
            PolicyKind::Native => "NATIVE".into(),
            PolicyKind::NativeNoRealign => "NATIVE (no realign)".into(),
            PolicyKind::Simty => "SIMTY".into(),
            PolicyKind::SimtyGranularity(g) => format!("SIMTY ({g})"),
            PolicyKind::Dursim => "DURSIM".into(),
            PolicyKind::FixedInterval(secs) => format!("FIXED ({secs}s)"),
            PolicyKind::Doze => "DOZE".into(),
        }
    }
}

/// The paper's workload scenarios (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Alarm Clock + 11 Wi-Fi messaging apps (time similarity only).
    Light,
    /// All 18 apps (hardware similarity exercised as well).
    Heavy,
}

impl Scenario {
    /// The workload builder for this scenario.
    pub fn builder(self) -> WorkloadBuilder {
        match self {
            Scenario::Light => WorkloadBuilder::light(),
            Scenario::Heavy => WorkloadBuilder::heavy(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Light => "light",
            Scenario::Heavy => "heavy",
        }
    }
}

/// Parameters of one experiment run.
///
/// `PartialEq` lets sweep executors deduplicate identical runs, and the
/// paper grid find the run a target reads.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The alignment policy.
    pub policy: PolicyKind,
    /// The workload scenario.
    pub scenario: Scenario,
    /// RNG seed (registration jitter + system alarms).
    pub seed: u64,
    /// Grace fraction β (the paper uses 0.96).
    pub beta: f64,
    /// Simulated span (the paper uses 3 h).
    pub duration: SimDuration,
    /// Power-model override (`None` = the calibrated Nexus 5 model); used
    /// by the calibration-sensitivity rows of the paper grid.
    pub power: Option<PowerModel>,
    /// Run without the observability layer (metrics, the span and audit
    /// counts, stage profile) in both [`run`](Self::run) and
    /// [`run_instrumented`](Self::run_instrumented): the report's metrics
    /// block renders as `null` and the returned [`StageProfile`] is
    /// empty. Everything deterministic is unchanged.
    pub no_obs: bool,
}

impl RunSpec {
    /// The paper's defaults: β = 0.96 over 3 hours.
    pub fn paper(policy: PolicyKind, scenario: Scenario, seed: u64) -> Self {
        RunSpec {
            policy,
            scenario,
            seed,
            beta: 0.96,
            duration: SimDuration::from_hours(3),
            power: None,
            no_obs: false,
        }
    }

    /// Overrides β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Overrides the duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the power model (calibration perturbations).
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// Switches the observability layer off (the engine's no-obs fast
    /// path) for both [`run`](Self::run) and
    /// [`run_instrumented`](Self::run_instrumented).
    pub fn with_no_obs(mut self) -> Self {
        self.no_obs = true;
        self
    }

    /// A compact, human-readable identity for sweep outputs, e.g.
    /// `SIMTY/heavy/seed1/b0.96`.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/seed{}/b{}",
            self.policy.name(),
            self.scenario.name(),
            self.seed,
            self.beta
        );
        if self.duration != SimDuration::from_hours(3) {
            label.push_str(&format!("/{}s", self.duration.as_millis() / 1_000));
        }
        if self.power.is_some() {
            label.push_str("/power~");
        }
        label
    }

    /// Executes the run and returns its report.
    ///
    /// The run records at [`ObsLevel::Counts`]: the report, its `metrics`
    /// block included, is byte-identical to a full-level run's, but no
    /// span, audit or stage clock is built or read.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue alarm fails to register, which would be a
    /// bug in the workload generator.
    pub fn run(&self) -> SimReport {
        self.simulate(ObsLevel::Counts).run()
    }

    /// Executes the run and returns its report together with the
    /// engine's per-stage wall-clock profile. The profile is host timing
    /// — it varies run to run and must never enter deterministic
    /// outputs; sweep executors aggregate it into benchmark documents.
    ///
    /// The run records at [`ObsLevel::Timed`]: the report is
    /// [`run`](Self::run)'s, and the stage clocks are read, but no span
    /// or audit is built.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue alarm fails to register, which would be a
    /// bug in the workload generator.
    pub fn run_instrumented(&self) -> (SimReport, StageProfile) {
        let mut sim = self.simulate(ObsLevel::Timed);
        let report = sim.run();
        (report, *sim.stage_profile())
    }

    /// The run's simulation, its workload registered, recording at
    /// `level` ([`ObsLevel::Off`] under [`no_obs`](Self::no_obs)).
    fn simulate(&self, level: ObsLevel) -> Simulation {
        let workload = self
            .scenario
            .builder()
            .with_seed(self.seed)
            .with_beta(self.beta)
            .with_duration(self.duration)
            .build();
        let mut config = SimConfig::new()
            .with_duration(self.duration)
            .with_obs(if self.no_obs { ObsLevel::Off } else { level });
        if let Some(power) = &self.power {
            config = config.with_power(power.clone());
        }
        let mut sim = Simulation::new(self.policy.build(), config);
        for alarm in workload.alarms {
            sim.register(alarm)
                .expect("workload alarm registers cleanly");
        }
        sim
    }
}

/// One run of the paper grid ([`PaperGrid`](crate::paper::PaperGrid)): a
/// [`RunSpec`], or one of the two setups the ablations build by hand.
#[derive(Debug, Clone, PartialEq)]
pub enum GridRun {
    /// A spec-shaped run.
    Spec(RunSpec),
    /// The heavy workload of a seed plus push messages to its four
    /// messengers over 3 h: each push re-registers a still-queued alarm,
    /// the only path on which NATIVE's realignment on reinsert (§2.1)
    /// fires.
    PushTraffic(PolicyKind, u64),
    /// Two short-task and two long-task Wi-Fi alarms whose windows all
    /// overlap (§5); it has no seed.
    DurationMix(PolicyKind),
}

impl GridRun {
    /// The run's seed; the duration mix has none.
    pub fn seed(&self) -> Option<u64> {
        match self {
            GridRun::Spec(spec) => Some(spec.seed),
            GridRun::PushTraffic(_, seed) => Some(*seed),
            GridRun::DurationMix(_) => None,
        }
    }

    /// Executes the run at [`ObsLevel::Counts`] and returns its report.
    pub fn run(&self) -> SimReport {
        match self {
            GridRun::Spec(spec) => spec.run(),
            GridRun::PushTraffic(policy, seed) => push_traffic_run(*policy, *seed),
            GridRun::DurationMix(policy) => duration_mix_run(*policy),
        }
    }
}

/// The messengers of the heavy workload that receive push messages.
const MESSENGERS: [&str; 4] = ["Facebook", "Line", "KakaoTalk", "WeChat"];

fn push_traffic_run(policy: PolicyKind, seed: u64) -> SimReport {
    let workload = Scenario::Heavy.builder().with_seed(seed).build();
    let config = SimConfig::new().with_obs(ObsLevel::Counts);
    let mut sim = Simulation::new(policy.build(), config);
    // The arrivals are the same for every seed.
    let mut plan = PushPlan::new(17);
    for alarm in workload.alarms {
        let messenger = MESSENGERS.contains(&alarm.label());
        let id = sim.register(alarm).expect("registers");
        if messenger {
            plan = plan.subscribe(id, SimDuration::from_mins(10));
        }
    }
    plan.apply(&mut sim, SimDuration::from_hours(3));
    sim.run()
}

/// SIMTY ties on (hardware, time) similarity and takes the first entry it
/// finds, pairing a short task with a long one and keeping the radio up
/// for the long one twice; DURSIM's duration rank pairs short with short
/// and long with long (§5). Each entry holds two alarms because the
/// second candidate's window no longer overlaps the first merged entry's
/// narrowed window.
fn duration_mix_run(policy: PolicyKind) -> SimReport {
    let config = SimConfig::new().with_obs(ObsLevel::Counts);
    let mut sim = Simulation::new(policy.build(), config);
    // (label, nominal, window seconds, task seconds): the short A and the
    // long B anchor two entries with disjoint windows; the long C and the
    // short D overlap both and must choose.
    for (label, nominal_s, window_s, task_s) in [
        ("short-a", 600, 15, 1),
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

/// Scalar summary averaged over several runs (the paper averages three
/// repetitions per configuration).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Averages {
    /// Mean total energy (mJ).
    pub total_mj: f64,
    /// Mean sleep energy (mJ).
    pub sleep_mj: f64,
    /// Mean awake-related energy (mJ): everything but sleep.
    pub awake_mj: f64,
    /// Mean device sleep→awake transitions.
    pub cpu_wakeups: f64,
    /// Mean queue-entry (batch) deliveries — the paper's Table 4 CPU
    /// numerator.
    pub entry_deliveries: f64,
    /// Mean total deliveries.
    pub deliveries: f64,
    /// Mean count of perceptible-alarm deliveries.
    pub perceptible_alarms: f64,
    /// Mean normalized delay of perceptible alarms.
    pub perceptible_delay: f64,
    /// Mean normalized delay of imperceptible alarms.
    pub imperceptible_delay: f64,
    /// Mean average power (mW).
    pub power_mw: f64,
}

impl Averages {
    /// Averages a non-empty run of reports.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> Averages {
        let reports: Vec<&SimReport> = reports.into_iter().collect();
        assert!(!reports.is_empty(), "cannot average zero reports");
        let mean = |f: fn(&SimReport) -> f64| {
            reports.iter().map(|r| f(r)).sum::<f64>() / reports.len() as f64
        };
        Averages {
            total_mj: mean(|r| r.energy.total_mj()),
            sleep_mj: mean(|r| r.energy.sleep_mj),
            awake_mj: mean(|r| r.energy.awake_related_mj()),
            cpu_wakeups: mean(|r| r.cpu_wakeups as f64),
            entry_deliveries: mean(|r| r.entry_deliveries as f64),
            deliveries: mean(|r| r.total_deliveries as f64),
            perceptible_alarms: mean(|r| r.delays.perceptible_count as f64),
            perceptible_delay: mean(|r| r.delays.perceptible_avg),
            imperceptible_delay: mean(|r| r.delays.imperceptible_avg),
            power_mw: mean(SimReport::average_power_mw),
        }
    }

    /// Mean actual/expected wakeup counts for one component across runs.
    pub fn wakeup_counts<'a>(
        reports: impl IntoIterator<Item = &'a SimReport>,
        c: HardwareComponent,
    ) -> (f64, f64) {
        let rows: Vec<_> = reports.into_iter().map(|r| r.wakeup_row(c)).collect();
        let mean = |f: fn(&WakeupRow) -> u64| {
            rows.iter().flatten().map(|row| f(row) as f64).sum::<f64>() / rows.len() as f64
        };
        (mean(|row| row.actual), mean(|row| row.expected))
    }
}

/// The paper's three seeded repetitions (seeds `1..=3`) of one
/// configuration, as specs — feed these to a sweep executor to run them
/// in parallel with other configurations.
pub fn paper_specs(policy: PolicyKind, scenario: Scenario) -> Vec<RunSpec> {
    (1..=3)
        .map(|seed| RunSpec::paper(policy, scenario, seed))
        .collect()
}

/// The motivating example of the paper's Fig. 2: a calendar alarm and two
/// WPS location alarms in one snapshot, delivered once each under the
/// given policy. Its awake-related energy is the figure's bar: the paper
/// measures 7 520 mJ for the native alignment and 4 050 mJ for
/// similarity-based alignment.
pub fn motivating_example_report(policy: PolicyKind) -> SimReport {
    let calendar = {
        let mut a = Alarm::builder("calendar")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(3_600))
            .window(SimDuration::from_secs(90))
            .grace(SimDuration::from_secs(90))
            .hardware(HardwareComponent::Speaker | HardwareComponent::Vibrator)
            .task_duration(SimDuration::from_secs(1))
            .build()
            .expect("valid calendar alarm");
        a.mark_hardware_known();
        a
    };
    let wps = |label: &str, nominal_s: u64| {
        let mut a = Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(3_600))
            .window(SimDuration::from_secs(50))
            .grace(SimDuration::from_secs(900))
            .hardware(HardwareSet::single(HardwareComponent::Wps))
            .task_duration(SimDuration::from_secs(8))
            .build()
            .expect("valid wps alarm");
        a.mark_hardware_known();
        a
    };
    let config = SimConfig::new().with_duration(SimDuration::from_secs(1_500));
    let mut sim = Simulation::new(policy.build(), config);
    // Queue snapshot of Fig. 2(a): the calendar alarm and one WPS alarm
    // are queued; the other WPS alarm is then inserted.
    sim.register(calendar).expect("registers");
    sim.register(wps("wps-queued", 400)).expect("registers");
    sim.register(wps("wps-new", 150)).expect("registers");
    let report = sim.run();
    assert_eq!(
        report.total_deliveries, 3,
        "all three alarms deliver exactly once in the snapshot window"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kinds_build() {
        for p in [
            PolicyKind::Exact,
            PolicyKind::Native,
            PolicyKind::NativeNoRealign,
            PolicyKind::Simty,
            PolicyKind::SimtyGranularity(HardwareGranularity::Four),
            PolicyKind::Dursim,
            PolicyKind::FixedInterval(60),
            PolicyKind::Doze,
        ] {
            let _ = p.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn short_run_executes() {
        let spec = RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
            .with_duration(SimDuration::from_mins(10));
        let report = spec.run();
        assert!(report.total_deliveries > 0);
        assert!(report.energy.total_mj() > 0.0);
    }

    #[test]
    fn averages_over_two_runs() {
        let spec = |seed| {
            RunSpec::paper(PolicyKind::Exact, Scenario::Light, seed)
                .with_duration(SimDuration::from_mins(5))
                .run()
        };
        let reports = vec![spec(1), spec(2)];
        let a = Averages::of(&reports);
        assert!(a.total_mj > 0.0);
        assert!(a.deliveries > 0.0);
        let (actual, expected) = Averages::wakeup_counts(&reports, HardwareComponent::Wifi);
        assert!(actual <= expected);
    }

    #[test]
    fn motivating_example_energies_match_the_papers_ordering() {
        let energy = |p| motivating_example_report(p).energy.awake_related_mj();
        let native = energy(PolicyKind::Native);
        let simty = energy(PolicyKind::Simty);
        let exact = energy(PolicyKind::Exact);
        // SIMTY aligns the two WPS alarms: ~4 050 mJ in the paper.
        assert!(simty < native, "simty {simty} < native {native}");
        assert!(native <= exact, "native {native} <= exact {exact}");
        assert!((simty - 4_050.0).abs() < 100.0, "simty {simty}");
        assert!((native - 7_520.0).abs() < 250.0, "native {native}");
    }
}
