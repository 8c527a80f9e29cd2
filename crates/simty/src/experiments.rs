//! Shared experiment harness: the runs behind every figure and table of
//! the paper, reused by the `simty-bench` binaries and the integration
//! test suite.

use simty_apps::workload::WorkloadBuilder;
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
use simty_sim::metrics::SimReport;
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
/// `PartialEq` lets sweep executors deduplicate identical runs (the
/// sensitivity study shares one NATIVE baseline across perturbations).
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
    /// by the sensitivity study's perturbation grid.
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

    /// Overrides the power model (sensitivity perturbations).
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
            sim.register(alarm).expect("workload alarm registers cleanly");
        }
        sim
    }
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
    /// Mean normalized delay of perceptible alarms.
    pub perceptible_delay: f64,
    /// Mean normalized delay of imperceptible alarms.
    pub imperceptible_delay: f64,
    /// Mean average power (mW).
    pub power_mw: f64,
}

impl Averages {
    /// Averages a non-empty slice of reports.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn of(reports: &[SimReport]) -> Averages {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as f64;
        let mut a = Averages::default();
        for r in reports {
            a.total_mj += r.energy.total_mj();
            a.sleep_mj += r.energy.sleep_mj;
            a.awake_mj += r.energy.awake_related_mj();
            a.cpu_wakeups += r.cpu_wakeups as f64;
            a.entry_deliveries += r.entry_deliveries as f64;
            a.deliveries += r.total_deliveries as f64;
            a.perceptible_delay += r.delays.perceptible_avg;
            a.imperceptible_delay += r.delays.imperceptible_avg;
            a.power_mw += r.average_power_mw();
        }
        a.total_mj /= n;
        a.sleep_mj /= n;
        a.awake_mj /= n;
        a.cpu_wakeups /= n;
        a.entry_deliveries /= n;
        a.deliveries /= n;
        a.perceptible_delay /= n;
        a.imperceptible_delay /= n;
        a.power_mw /= n;
        a
    }

    /// Mean actual/expected wakeup counts for one component across runs.
    pub fn wakeup_counts(
        reports: &[SimReport],
        c: HardwareComponent,
    ) -> (f64, f64) {
        let n = reports.len() as f64;
        let mut actual = 0.0;
        let mut expected = 0.0;
        for r in reports {
            if let Some(row) = r.wakeup_row(c) {
                actual += row.actual as f64;
                expected += row.expected as f64;
            }
        }
        (actual / n, expected / n)
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

/// Runs one configuration for the paper's three repetitions (seeds
/// `1..=3`) and returns the individual reports.
pub fn paper_runs(policy: PolicyKind, scenario: Scenario) -> Vec<SimReport> {
    paper_specs(policy, scenario)
        .iter()
        .map(RunSpec::run)
        .collect()
}

/// A mean with its sample standard deviation, for reporting run-to-run
/// spread across the seeded repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Spread {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (zero for fewer than two samples).
    pub std: f64,
}

impl Spread {
    /// Computes mean and sample standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "spread of zero samples");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std = if values.len() < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        Spread { mean, std }
    }

    /// Extracts a metric from each report and summarizes it.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn over<F: Fn(&SimReport) -> f64>(reports: &[SimReport], metric: F) -> Spread {
        let values: Vec<f64> = reports.iter().map(metric).collect();
        Spread::of(&values)
    }

    /// Renders as `mean ± std` with the given precision.
    pub fn format(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.std)
    }
}

/// The motivating example of the paper's Fig. 2: a calendar alarm and two
/// WPS location alarms in one snapshot. Returns the awake-related energy
/// (mJ) consumed to deliver all three alarms once under the given policy.
///
/// The paper's measured numbers are 7 520 mJ for the native alignment and
/// 4 050 mJ for similarity-based alignment.
pub fn motivating_example(policy: PolicyKind) -> f64 {
    motivating_example_report(policy).energy.awake_related_mj()
}

/// [`motivating_example`] but returning the full report, so sweep
/// executors can run it like any other job.
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
    fn spread_statistics() {
        let s = Spread::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(s.format(1), "2.0 ± 1.0");
        let single = Spread::of(&[5.0]);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn motivating_example_energies_match_the_papers_ordering() {
        let native = motivating_example(PolicyKind::Native);
        let simty = motivating_example(PolicyKind::Simty);
        let exact = motivating_example(PolicyKind::Exact);
        // SIMTY aligns the two WPS alarms: ~4 050 mJ in the paper.
        assert!(simty < native, "simty {simty} < native {native}");
        assert!(native <= exact, "native {native} <= exact {exact}");
        assert!((simty - 4_050.0).abs() < 100.0, "simty {simty}");
        assert!((native - 7_520.0).abs() < 250.0, "native {native}");
    }
}
