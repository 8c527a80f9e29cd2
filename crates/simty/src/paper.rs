//! The paper's headline results as data: one line of [`TARGETS`] per
//! number of Fig. 2, Fig. 3, Fig. 4 and Table 4, and of the ablation and
//! calibration-sensitivity studies, read off one grid of runs
//! ([`PaperGrid`]) and rendered as the markdown block that
//! `standby repro` prints and EXPERIMENTS.md embeds.
//!
//! A target with a band is a gate: its band must hold for both its value
//! on the seed-1 grid and its mean over seeds 1–3. A target without one
//! is reported only.

use simty_apps::catalog::{heavy_only_apps, light_workload_apps};
use simty_apps::{AppSpec, SystemAlarms, WorkloadBuilder};
use simty_core::alarm::Alarm;
use simty_core::bounds::least_component_wakeups;
use simty_core::hardware::HardwareComponent::{self, Accelerometer, Speaker, Wifi, Wps};
use simty_core::similarity::HardwareGranularity;
use simty_core::time::SimDuration;
use simty_device::{Battery, PowerModel};
use simty_sim::estimate::{estimate, EnergyEstimate};
use simty_sim::metrics::SimReport;

use crate::experiments::GridRun::{self, DurationMix, PushTraffic};
use crate::experiments::PolicyKind::{
    self, Doze, Dursim, Exact, FixedInterval, Native, NativeNoRealign, Simty, SimtyGranularity,
};
use crate::experiments::Scenario::{self, Heavy, Light};
use crate::experiments::{motivating_example_report, paper_specs, Averages, RunSpec};

/// The simulated span of every grid run (§4.1).
const SPAN: SimDuration = SimDuration::from_hours(3);

/// The runs the targets read, each with the report of the run that
/// stood in for it: see [`PaperGrid::runs`].
#[derive(Debug, Clone)]
pub struct PaperGrid {
    runs: Vec<(GridRun, SimReport)>,
}

impl PaperGrid {
    /// The 18 runs of the §4.1 protocol (EXACT, NATIVE and SIMTY × light
    /// and heavy × seeds 1–3), then the ablation and sensitivity studies:
    /// seeds 1–3 of each heavy variant, and the duration mix once.
    pub fn runs() -> Vec<GridRun> {
        let cell = |p| [Light, Heavy].map(|s| paper_specs(p, s)).concat();
        let mut specs = [Exact, Native, Simty].map(cell).concat();
        specs.extend(BETAS.iter().flat_map(|&b| seeds(move |s| simty_at(s, b))));
        specs.extend(STUDIED.iter().flat_map(|&p| paper_specs(p, Heavy)));
        let tuned = |k| [Native, Simty].map(|p| seeds(move |s| tuned_spec(p, k, s)));
        specs.extend(KNOBS.iter().flat_map(|&k| tuned(k).into_iter().flatten()));
        let mut runs: Vec<GridRun> = specs.into_iter().map(GridRun::Spec).collect();
        let pushed = |p| seeds(move |s| PushTraffic(p, s));
        runs.extend([Native, NativeNoRealign].into_iter().flat_map(pushed));
        runs.extend([Simty, Dursim].map(DurationMix));
        runs
    }

    /// Runs every run of [`runs`](Self::runs) one after another.
    pub fn run() -> PaperGrid {
        PaperGrid::run_with(|run| run)
    }

    /// Runs `doctor`'s rewrite of each run of [`runs`](Self::runs); the
    /// targets read each rewritten run's report in place of the listed
    /// run's.
    pub fn run_with(doctor: impl Fn(GridRun) -> GridRun) -> PaperGrid {
        let run = |listed: GridRun| (listed.clone(), doctor(listed).run());
        PaperGrid {
            runs: PaperGrid::runs().into_iter().map(run).collect(),
        }
    }

    /// The same grid restricted to seed 1 (and the unseeded duration mix).
    fn seed_one(&self) -> PaperGrid {
        let mut grid = self.clone();
        grid.runs
            .retain(|(run, _)| run.seed().is_none_or(|s| s == 1));
        grid
    }

    /// The reports of the runs listed as `listed(seed)`.
    fn reports(&self, listed: impl Fn(u64) -> GridRun) -> impl Iterator<Item = &SimReport> {
        let hit = move |(run, _): &&(GridRun, _)| run.seed().is_some_and(|s| *run == listed(s));
        self.runs.iter().filter(hit).map(|(_, r)| r)
    }

    fn cell(&self, p: PolicyKind, s: Scenario) -> impl Iterator<Item = &SimReport> {
        self.reports(move |seed| GridRun::Spec(RunSpec::paper(p, s, seed)))
    }

    fn avg(&self, p: PolicyKind, s: Scenario) -> Averages {
        Averages::of(self.cell(p, s))
    }

    /// Mean actual and expected activations of `c`.
    fn hw(&self, p: PolicyKind, s: Scenario, c: HardwareComponent) -> (f64, f64) {
        Averages::wakeup_counts(self.cell(p, s), c)
    }

    /// Percent of NATIVE's `metric` that SIMTY saves.
    fn saving(&self, s: Scenario, metric: fn(&Averages) -> f64) -> f64 {
        100.0 * (1.0 - metric(&self.avg(Simty, s)) / metric(&self.avg(Native, s)))
    }

    /// Percent longer a Nexus 5 stands by under SIMTY than under NATIVE.
    fn extension(&self, s: Scenario) -> f64 {
        let (native, simty) = (self.avg(Native, s).power_mw, self.avg(Simty, s).power_mw);
        100.0 * Battery::nexus5().standby_extension(native, simty)
    }

    /// SIMTY on the heavy workload at grace fraction `beta`.
    fn beta(&self, beta: f64) -> Averages {
        Averages::of(self.reports(|seed| GridRun::Spec(simty_at(seed, beta))))
    }

    /// Percent of heavy NATIVE's awake energy that SIMTY saves at `beta`.
    fn beta_saving(&self, beta: f64) -> f64 {
        100.0 * (1.0 - self.beta(beta).awake_mj / self.avg(Native, Heavy).awake_mj)
    }

    /// The largest ratio of `metric` between two neighbouring βs.
    fn beta_step(&self, metric: fn(&Averages) -> f64) -> f64 {
        let all: Vec<f64> = BETAS
            .iter()
            .chain([&0.96])
            .map(|&b| metric(&self.beta(b)))
            .collect();
        all.windows(2).map(|w| w[1] / w[0]).fold(f64::MIN, f64::max)
    }

    /// Percent of NATIVE's `metric` that SIMTY saves on the heavy workload
    /// under the power model `knob` perturbs.
    fn tuned_saving(&self, knob: Knob, metric: fn(&Averages) -> f64) -> f64 {
        let avg = |p| Averages::of(self.reports(|seed| GridRun::Spec(tuned_spec(p, knob, seed))));
        100.0 * (1.0 - metric(&avg(Simty)) / metric(&avg(Native)))
    }

    /// The awake savings under the calibrated model and every knob.
    fn awake_savings(&self) -> impl Iterator<Item = f64> + '_ {
        let tuned = KNOBS.iter().map(|&k| self.tuned_saving(k, |a| a.awake_mj));
        tuned.chain([self.saving(Heavy, |a| a.awake_mj)])
    }

    /// `p` on the heavy workload under push traffic.
    fn pushed(&self, p: PolicyKind) -> Averages {
        Averages::of(self.reports(|seed| PushTraffic(p, seed)))
    }

    /// The duration mix under `p`.
    fn mix(&self, p: PolicyKind) -> &SimReport {
        let listed = self.runs.iter().find(|(run, _)| *run == DurationMix(p));
        &listed
            .expect("the duration mix runs under SIMTY and DURSIM")
            .1
    }
}

/// The β values of the ablation below the paper's 0.96.
const BETAS: [f64; 4] = [0.05, 0.25, 0.5, 0.75];

/// SIMTY on the heavy workload of `seed` at grace fraction `beta`.
fn simty_at(seed: u64, beta: f64) -> RunSpec {
    RunSpec::paper(Simty, Heavy, seed).with_beta(beta)
}

/// SIMTY with 2- and 4-level hardware similarity; SIMTY itself is 3-level.
const TWO_LEVEL: PolicyKind = SimtyGranularity(HardwareGranularity::Two);
const FOUR_LEVEL: PolicyKind = SimtyGranularity(HardwareGranularity::Four);

/// The policies the ablations run on the heavy workload besides the
/// §4.1 three.
const STUDIED: [PolicyKind; 6] = [
    TWO_LEVEL,
    FOUR_LEVEL,
    Dursim,
    FixedInterval(60),
    FixedInterval(300),
    Doze,
];

/// A perturbation of one inferred parameter of the calibrated model.
type Knob = fn(&mut PowerModel);
const SLEEP_HALF: Knob = |m| m.sleep_power_mw *= 0.5;
const SLEEP_DOUBLE: Knob = |m| m.sleep_power_mw *= 2.0;
const TRANSITION_HALF: Knob = |m| m.wake_transition_energy_mj *= 0.5;
const TRANSITION_DOUBLE: Knob = |m| m.wake_transition_energy_mj *= 2.0;
const COMPONENTS_HALF: Knob = |m| scale_components(m, 0.5);
const COMPONENTS_DOUBLE: Knob = |m| scale_components(m, 2.0);
const LATENCY_50MS: Knob = |m| m.wake_latency = SimDuration::from_millis(50);
const LATENCY_1000MS: Knob = |m| m.wake_latency = SimDuration::from_millis(1_000);
const KNOBS: [Knob; 8] = [
    SLEEP_HALF,
    SLEEP_DOUBLE,
    TRANSITION_HALF,
    TRANSITION_DOUBLE,
    COMPONENTS_HALF,
    COMPONENTS_DOUBLE,
    LATENCY_50MS,
    LATENCY_1000MS,
];

/// Scales every component's activation energy and active power.
fn scale_components(m: &mut PowerModel, factor: f64) {
    for c in HardwareComponent::ALL {
        let mut p = m.component(c);
        p.active_power_mw *= factor;
        p.activation_energy_mj *= factor;
        m.set_component(c, p);
    }
}

/// `p` on the heavy workload of `seed` under the model `knob` perturbs.
fn tuned_spec(p: PolicyKind, knob: Knob, seed: u64) -> RunSpec {
    let mut model = PowerModel::nexus5();
    knob(&mut model);
    RunSpec::paper(p, Heavy, seed).with_power(model)
}

/// `run` of each of the seeds 1–3.
fn seeds<T>(run: impl Fn(u64) -> T) -> impl Iterator<Item = T> {
    (1..=3).map(run)
}

/// Mean seconds the Wi-Fi radio stays up per activation.
fn wifi_hold(r: &SimReport) -> f64 {
    let wifi = PowerModel::nexus5().component(Wifi);
    let activations = r.wakeup_row(Wifi).map_or(0, |row| row.actual) as f64;
    let active_mj = r.energy.component_mj(Wifi) - activations * wifi.activation_energy_mj;
    active_mj / wifi.active_power_mw / activations
}

/// Fig. 2: the awake-related energy of `p`'s snapshot.
fn snapshot(p: PolicyKind) -> f64 {
    motivating_example_report(p).energy.awake_related_mj()
}

/// Seed 1's alarms of scenario `s`, the workload the closed forms read.
fn alarms(s: Scenario) -> Vec<Alarm> {
    s.builder().with_seed(1).build().alarms
}

/// §4.2's lower bound on `c`'s activations under scenario `s`.
fn bound(s: Scenario, c: HardwareComponent) -> f64 {
    least_component_wakeups(&alarms(s), SPAN)[&c] as f64
}

/// The closed-form energy envelope of scenario `s`.
fn envelope(s: Scenario) -> EnergyEstimate {
    estimate(&alarms(s), SPAN, &PowerModel::nexus5())
}

/// Deliveries `alarms` make over [`SPAN`] at their nominal periods.
fn nominal(alarms: Vec<Alarm>) -> f64 {
    let span = SPAN.as_millis();
    let per = |a: &Alarm| a.repeat().interval().map_or(1, |i| span / i.as_millis());
    alarms.iter().map(per).sum::<u64>() as f64
}

/// [`nominal`] for the alarms of Table 3's `apps`.
fn table3(apps: Vec<AppSpec>) -> f64 {
    let workload = WorkloadBuilder::custom("table3", apps).without_system_alarms();
    nominal(workload.build().alarms)
}

/// How a value is shown: its suffix and its decimals.
pub type Unit = (&'static str, usize);
const MJ: Unit = (" mJ", 0);
const J: Unit = (" J", 0);
const PCT: Unit = (" %", 1);
const COUNT: Unit = ("", 0);
const RATIO: Unit = ("", 2);
const COUNT1: Unit = ("", 1);
const PTS: Unit = (" pts", 1);
const SECS: Unit = (" s", 1);

/// The values a gate admits.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Whether a value lies in the band (a NaN never does).
    pub holds: fn(f64) -> bool,
    /// The band as declared, e.g. `8.0..45.0` or `33.0 < x`.
    pub text: &'static str,
}

/// One number of the paper's evaluation.
#[derive(Debug)]
pub struct Target {
    /// Dotted id: figure, scenario, policy, quantity.
    pub id: &'static str,
    /// The paper's value as printed or as its printed numbers give it
    /// (`—` when they give none).
    pub paper: &'static str,
    /// How [`value`](Self::value) is shown.
    pub unit: Unit,
    /// The measured value.
    pub value: fn(&PaperGrid) -> f64,
    /// The gate, if any.
    pub band: Option<Band>,
    /// Why the band is where it is; empty for a report-only target.
    pub why: &'static str,
}

/// Declares [`TARGETS`], one target a line: `"id" "paper value" UNIT
/// |grid| value`, and for a gate `, (band): "why"`, the band a range
/// (`8.0..45.0`) or a condition on the value (`|x| 33.0 < x`).
macro_rules! targets {
    (@band) => { None };
    (@band |$x:ident| $cond:expr) => { Some(Band { holds: |$x: f64| $cond, text: stringify!($cond) }) };
    (@band $range:expr) => { Some(Band { holds: |x: f64| ($range).contains(&x), text: stringify!($range) }) };
    ($($id:literal $paper:literal $unit:ident |$g:ident| $value:expr $(, ($($band:tt)+): $why:literal)?;)*) => {
        &[$(Target {
            id: $id,
            paper: $paper,
            unit: $unit,
            value: |$g: &PaperGrid| $value,
            band: targets!(@band $($($band)+)?),
            why: concat!("" $(, $why)?),
        }),*]
    };
}

/// Every target, in the order `standby repro` prints them.
pub const TARGETS: &[Target] = targets! {
    "fig2.native" "7 520 mJ" MJ |_g| snapshot(Native), (|x| 7270.0 < x && x < 7770.0): "±250 mJ: co-delivered tasks share awake time that the paper's 400 + 2 × 3 650 − 180 does not";
    "fig2.simty" "4 050 mJ" MJ |_g| snapshot(Simty), (|x| 3950.0 < x && x < 4150.0): "±100 mJ: the two WPS tasks share one activation, as in the paper";
    "fig2.saving" "46 %" PCT |_g| 100.0 * (1.0 - snapshot(Simty) / snapshot(Native));
    "fig3.light.native.sleep" "—" J |g| g.avg(Native, Light).sleep_mj / 1e3;
    "fig3.light.native.awake" "—" J |g| g.avg(Native, Light).awake_mj / 1e3;
    "fig3.light.native.total" "—" J |g| g.avg(Native, Light).total_mj / 1e3;
    "fig3.light.simty.sleep" "—" J |g| g.avg(Simty, Light).sleep_mj / 1e3;
    "fig3.light.simty.awake" "—" J |g| g.avg(Simty, Light).awake_mj / 1e3;
    "fig3.light.simty.total" "—" J |g| g.avg(Simty, Light).total_mj / 1e3;
    "fig3.heavy.native.sleep" "—" J |g| g.avg(Native, Heavy).sleep_mj / 1e3;
    "fig3.heavy.native.awake" "—" J |g| g.avg(Native, Heavy).awake_mj / 1e3;
    "fig3.heavy.native.total" "—" J |g| g.avg(Native, Heavy).total_mj / 1e3;
    "fig3.heavy.simty.sleep" "—" J |g| g.avg(Simty, Heavy).sleep_mj / 1e3;
    "fig3.heavy.simty.awake" "—" J |g| g.avg(Simty, Heavy).awake_mj / 1e3;
    "fig3.heavy.simty.total" "—" J |g| g.avg(Simty, Heavy).total_mj / 1e3;
    "fig3.light.awake_saving" "> 33 %" PCT |g| g.saving(Light, |a| a.awake_mj), (|x| 33.0 < x): "the paper's claim; the sleep floor does not enter it";
    "fig3.heavy.awake_saving" "> 33 %" PCT |g| g.saving(Heavy, |a| a.awake_mj), (|x| 33.0 < x): "the paper's claim; the sleep floor does not enter it";
    "fig3.light.total_saving" "20 %" PCT |g| g.saving(Light, |a| a.total_mj), (8.0..45.0): "the sleep floor is inferred, not published, so the total share is loose";
    "fig3.heavy.total_saving" "25 %" PCT |g| g.saving(Heavy, |a| a.total_mj), (10.0..50.0): "the sleep floor is inferred, not published, so the total share is loose";
    "fig3.light.standby_extension" "25–33 %" PCT |g| g.extension(Light);
    "fig3.heavy.standby_extension" "25–33 %" PCT |g| g.extension(Heavy), (|x| 15.0 < x): "follows the total saving, loose for the same reason";
    "fig3.light.native_over_exact_awake" "—" RATIO |g| g.avg(Native, Light).awake_mj / g.avg(Exact, Light).awake_mj, (|x| x <= 1.02): "EXACT ≥ NATIVE: batching saves awake energy, up to 2 % task-overlap noise";
    "fig4.light.native.perceptible" "0 %" PCT |g| 100.0 * g.avg(Native, Light).perceptible_delay, (|x| x < 0.1): "a 250 ms wake latency on a 1 800 s period is ≤ 0.014 %";
    "fig4.light.simty.perceptible" "0 %" PCT |g| 100.0 * g.avg(Simty, Light).perceptible_delay, (|x| x < 0.1): "a 250 ms wake latency on a 1 800 s period is ≤ 0.014 %";
    "fig4.heavy.native.perceptible" "0 %" PCT |g| 100.0 * g.avg(Native, Heavy).perceptible_delay, (|x| x < 0.1): "a 250 ms wake latency on a 1 800 s period is ≤ 0.014 %";
    "fig4.heavy.simty.perceptible" "0 %" PCT |g| 100.0 * g.avg(Simty, Heavy).perceptible_delay, (|x| x < 0.1): "a 250 ms wake latency on a 1 800 s period is ≤ 0.014 %";
    "fig4.light.native.perceptible_alarms" "—" COUNT |g| g.avg(Native, Light).perceptible_alarms, (|x| 1.0 <= x): "the zero-delay rows are over delivered alarms";
    "fig4.light.simty.perceptible_alarms" "—" COUNT |g| g.avg(Simty, Light).perceptible_alarms, (|x| 1.0 <= x): "the zero-delay rows are over delivered alarms";
    "fig4.heavy.native.perceptible_alarms" "—" COUNT |g| g.avg(Native, Heavy).perceptible_alarms, (|x| 1.0 <= x): "the zero-delay rows are over delivered alarms";
    "fig4.heavy.simty.perceptible_alarms" "—" COUNT |g| g.avg(Simty, Heavy).perceptible_alarms, (|x| 1.0 <= x): "the zero-delay rows are over delivered alarms";
    "fig4.light.simty.imperceptible" "17.9 %" PCT |g| 100.0 * g.avg(Simty, Light).imperceptible_delay, (5.0..30.0): "β = 0.96 lets SIMTY postpone; how far depends on how the seeded periods interleave";
    "fig4.heavy.simty.imperceptible" "13.9 %" PCT |g| 100.0 * g.avg(Simty, Heavy).imperceptible_delay, (4.0..25.0): "β = 0.96 lets SIMTY postpone; how far depends on how the seeded periods interleave";
    "fig4.simty.heavy_over_light" "0.78" RATIO |g| g.avg(Simty, Heavy).imperceptible_delay / g.avg(Simty, Light).imperceptible_delay, (|x| x < 1.0): "more alarms make high-time-similarity entries easier to find (§4.2)";
    "fig4.light.native.imperceptible" "0.4–0.6 %" PCT |g| 100.0 * g.avg(Native, Light).imperceptible_delay, (|x| 0.0 < x && x < 2.0): "nonzero only through the wake latency on α = 0 alarms";
    "fig4.heavy.native.imperceptible" "0.4–0.6 %" PCT |g| 100.0 * g.avg(Native, Heavy).imperceptible_delay, (|x| 0.0 < x && x < 2.0): "nonzero only through the wake latency on α = 0 alarms";
    "fig4.light.simty_over_native" "30–45" RATIO |g| g.avg(Simty, Light).imperceptible_delay / g.avg(Native, Light).imperceptible_delay, (|x| 5.0 < x): "SIMTY's postponement, not the wake latency, sets its delay";
    "table4.light.native.cpu" "733" COUNT |g| g.avg(Native, Light).entry_deliveries;
    "table4.light.native.cpu_expected" "983" COUNT |g| g.avg(Native, Light).deliveries;
    "table4.light.simty.cpu" "193" COUNT |g| g.avg(Simty, Light).entry_deliveries;
    "table4.light.simty.cpu_expected" "830" COUNT |g| g.avg(Simty, Light).deliveries;
    "table4.heavy.native.cpu" "981" COUNT |g| g.avg(Native, Heavy).entry_deliveries;
    "table4.heavy.native.cpu_expected" "1 726" COUNT |g| g.avg(Native, Heavy).deliveries;
    "table4.heavy.simty.cpu" "259" COUNT |g| g.avg(Simty, Heavy).entry_deliveries;
    "table4.heavy.simty.cpu_expected" "1 370" COUNT |g| g.avg(Simty, Heavy).deliveries;
    "table4.light.cpu_cut" "3.8" RATIO |g| g.avg(Native, Light).entry_deliveries / g.avg(Simty, Light).entry_deliveries, (|x| 2.0 < x): "SIMTY batches several times harder; 2× is half the paper's factor";
    "table4.heavy.cpu_cut" "3.8" RATIO |g| g.avg(Native, Heavy).entry_deliveries / g.avg(Simty, Heavy).entry_deliveries, (|x| 2.0 < x): "SIMTY batches several times harder; 2× is half the paper's factor";
    "table4.light.native.wakes" "—" COUNT |g| g.avg(Native, Light).cpu_wakeups;
    "table4.light.simty.wakes" "—" COUNT |g| g.avg(Simty, Light).cpu_wakeups;
    "table4.heavy.native.wakes" "—" COUNT |g| g.avg(Native, Heavy).cpu_wakeups;
    "table4.heavy.simty.wakes" "—" COUNT |g| g.avg(Simty, Heavy).cpu_wakeups;
    "table4.light.simty_over_native.wakes" "—" RATIO |g| g.avg(Simty, Light).cpu_wakeups / g.avg(Native, Light).cpu_wakeups, (|x| x < 1.0): "fewer batches, fewer sleep → awake transitions";
    "table4.heavy.simty_over_native.wakes" "—" RATIO |g| g.avg(Simty, Heavy).cpu_wakeups / g.avg(Native, Heavy).cpu_wakeups, (|x| x < 1.0): "fewer batches, fewer sleep → awake transitions";
    "table4.light.native.wakes_per_batch" "—" RATIO |g| g.avg(Native, Light).cpu_wakeups / g.avg(Native, Light).entry_deliveries, (|x| x <= 1.0): "a wake delivers at least one batch";
    "table4.light.simty.wakes_per_batch" "—" RATIO |g| g.avg(Simty, Light).cpu_wakeups / g.avg(Simty, Light).entry_deliveries, (|x| x <= 1.0): "a wake delivers at least one batch";
    "table4.heavy.native.wakes_per_batch" "—" RATIO |g| g.avg(Native, Heavy).cpu_wakeups / g.avg(Native, Heavy).entry_deliveries, (|x| x <= 1.0): "a wake delivers at least one batch";
    "table4.heavy.simty.wakes_per_batch" "—" RATIO |g| g.avg(Simty, Heavy).cpu_wakeups / g.avg(Simty, Heavy).entry_deliveries, (|x| x <= 1.0): "a wake delivers at least one batch";
    "table4.light.native.batches_per_delivery" "0.75" RATIO |g| g.avg(Native, Light).entry_deliveries / g.avg(Native, Light).deliveries, (|x| x <= 1.0): "a batch holds at least one alarm";
    "table4.light.simty.batches_per_delivery" "0.23" RATIO |g| g.avg(Simty, Light).entry_deliveries / g.avg(Simty, Light).deliveries, (|x| x <= 1.0): "a batch holds at least one alarm";
    "table4.heavy.native.batches_per_delivery" "0.57" RATIO |g| g.avg(Native, Heavy).entry_deliveries / g.avg(Native, Heavy).deliveries, (|x| x <= 1.0): "a batch holds at least one alarm";
    "table4.heavy.simty.batches_per_delivery" "0.19" RATIO |g| g.avg(Simty, Heavy).entry_deliveries / g.avg(Simty, Heavy).deliveries, (|x| x <= 1.0): "a batch holds at least one alarm";
    "table4.light.exact.batches_per_delivery" "—" RATIO |g| g.avg(Exact, Light).entry_deliveries / g.avg(Exact, Light).deliveries, (1.0..=1.0): "EXACT never aligns";
    "table4.light.native_over_exact.batches" "—" RATIO |g| g.avg(Native, Light).entry_deliveries / g.avg(Exact, Light).entry_deliveries, (|x| x < 1.0): "EXACT ≥ NATIVE: NATIVE batches overlapping windows";
    "table4.light.simty_over_native.expected" "0.84" RATIO |g| g.avg(Simty, Light).deliveries / g.avg(Native, Light).deliveries, (|x| x < 1.0): "postponed dynamic alarms repeat less often (§4.2)";
    "table4.light.native.speaker" "6" COUNT |g| g.hw(Native, Light, Speaker).0;
    "table4.light.native.speaker_expected" "6" COUNT |g| g.hw(Native, Light, Speaker).1;
    "table4.light.simty.speaker" "6" COUNT |g| g.hw(Simty, Light, Speaker).0;
    "table4.light.simty.speaker_expected" "6" COUNT |g| g.hw(Simty, Light, Speaker).1;
    "table4.light.native.wifi" "443" COUNT |g| g.hw(Native, Light, Wifi).0;
    "table4.light.native.wifi_expected" "548" COUNT |g| g.hw(Native, Light, Wifi).1;
    "table4.light.simty.wifi" "170" COUNT |g| g.hw(Simty, Light, Wifi).0;
    "table4.light.simty.wifi_expected" "484" COUNT |g| g.hw(Simty, Light, Wifi).1;
    "table4.heavy.native.speaker" "18" COUNT |g| g.hw(Native, Heavy, Speaker).0;
    "table4.heavy.native.speaker_expected" "18" COUNT |g| g.hw(Native, Heavy, Speaker).1;
    "table4.heavy.simty.speaker" "12" COUNT |g| g.hw(Simty, Heavy, Speaker).0;
    "table4.heavy.simty.speaker_expected" "18" COUNT |g| g.hw(Simty, Heavy, Speaker).1;
    "table4.heavy.native.wifi" "465" COUNT |g| g.hw(Native, Heavy, Wifi).0;
    "table4.heavy.native.wifi_expected" "565" COUNT |g| g.hw(Native, Heavy, Wifi).1;
    "table4.heavy.simty.wifi" "158" COUNT |g| g.hw(Simty, Heavy, Wifi).0, (|x| x < 220.0): "Facebook's 60 s alarm is dynamic, so Wi-Fi may fall below 10 800 / 60 (§4.2)";
    "table4.heavy.simty.wifi_expected" "433" COUNT |g| g.hw(Simty, Heavy, Wifi).1;
    "table4.heavy.native.wps" "125" COUNT |g| g.hw(Native, Heavy, Wps).0;
    "table4.heavy.native.wps_expected" "132" COUNT |g| g.hw(Native, Heavy, Wps).1;
    "table4.heavy.simty.wps" "64" COUNT |g| g.hw(Simty, Heavy, Wps).0;
    "table4.heavy.simty.wps_expected" "131" COUNT |g| g.hw(Simty, Heavy, Wps).1;
    "table4.heavy.native.accelerometer" "227" COUNT |g| g.hw(Native, Heavy, Accelerometer).0;
    "table4.heavy.native.accelerometer_expected" "300" COUNT |g| g.hw(Native, Heavy, Accelerometer).1;
    "table4.heavy.simty.accelerometer" "186" COUNT |g| g.hw(Simty, Heavy, Accelerometer).0;
    "table4.heavy.simty.accelerometer_expected" "300" COUNT |g| g.hw(Simty, Heavy, Accelerometer).1;
    "table4.heavy.speaker_bound" "—" COUNT |_g| bound(Heavy, Speaker);
    "table4.heavy.wps_bound" "—" COUNT |_g| bound(Heavy, Wps);
    "table4.heavy.accelerometer_bound" "—" COUNT |_g| bound(Heavy, Accelerometer);
    "table4.heavy.simty.speaker_over_bound" "1.00" RATIO |g| g.hw(Simty, Heavy, Speaker).0 / bound(Heavy, Speaker), (|x| 0.0 < x && x <= 1.4): "1.4× leaves room for how the seeded nominal times interleave";
    "table4.heavy.simty.wps_over_bound" "1.07" RATIO |g| g.hw(Simty, Heavy, Wps).0 / bound(Heavy, Wps), (|x| 0.0 < x && x <= 1.4): "1.4× leaves room for how the seeded nominal times interleave";
    "table4.heavy.simty.accelerometer_over_bound" "1.03" RATIO |g| g.hw(Simty, Heavy, Accelerometer).0 / bound(Heavy, Accelerometer), (|x| 0.0 < x && x <= 1.4): "1.4× leaves room for how the seeded nominal times interleave";
    "table4.heavy.simty.speaker_per_delivery" "0.67" RATIO |g| g.hw(Simty, Heavy, Speaker).0 / g.hw(Simty, Heavy, Speaker).1, (|x| x <= 1.0): "an activation serves at least one delivery";
    "table4.heavy.simty.wps_per_delivery" "0.49" RATIO |g| g.hw(Simty, Heavy, Wps).0 / g.hw(Simty, Heavy, Wps).1, (|x| x <= 1.0): "an activation serves at least one delivery";
    "table4.heavy.simty.accelerometer_per_delivery" "0.62" RATIO |g| g.hw(Simty, Heavy, Accelerometer).0 / g.hw(Simty, Heavy, Accelerometer).1, (|x| x <= 1.0): "an activation serves at least one delivery";
    "table4.gap.table3_light_apps" "—" COUNT |_g| table3(light_workload_apps());
    "table4.gap.table3_heavy_only_apps" "—" COUNT |_g| table3(heavy_only_apps());
    "table4.gap.framework" "—" COUNT |_g| nominal(SystemAlarms::new(1).generate(SPAN));
    "table4.gap.native.heavy_minus_light_expected" "743 (1 726 − 983)" COUNT |g| g.avg(Native, Heavy).deliveries - g.avg(Native, Light).deliveries;
    "estimate.light.exact_over_unaligned" "—" RATIO |g| g.avg(Exact, Light).awake_mj / envelope(Light).unaligned_awake_mj, (0.55..=1.02): "the closed form charges each delivery a solo cost and ignores dynamic drift";
    "estimate.light.simty_over_unaligned" "—" RATIO |g| g.avg(Simty, Light).awake_mj / envelope(Light).unaligned_awake_mj, (|x| x <= 1.0): "no policy costs more than no alignment at all";
    "estimate.light.simty_over_best_case" "—" RATIO |g| g.avg(Simty, Light).awake_mj / envelope(Light).best_case_awake_mj, (|x| 0.5 <= x): "the best case stacks every task perfectly; SIMTY stays within 2×";
    "ablation.beta_0.05.wakes" "—" COUNT |g| g.beta(0.05).cpu_wakeups;
    "ablation.beta_0.05.awake" "—" J |g| g.beta(0.05).awake_mj / 1e3;
    "ablation.beta_0.05.awake_saving" "—" PCT |g| g.beta_saving(0.05);
    "ablation.beta_0.05.imperceptible" "—" PCT |g| 100.0 * g.beta(0.05).imperceptible_delay;
    "ablation.beta_0.25.wakes" "—" COUNT |g| g.beta(0.25).cpu_wakeups;
    "ablation.beta_0.25.awake" "—" J |g| g.beta(0.25).awake_mj / 1e3;
    "ablation.beta_0.25.awake_saving" "—" PCT |g| g.beta_saving(0.25);
    "ablation.beta_0.25.imperceptible" "—" PCT |g| 100.0 * g.beta(0.25).imperceptible_delay;
    "ablation.beta_0.50.wakes" "—" COUNT |g| g.beta(0.5).cpu_wakeups;
    "ablation.beta_0.50.awake" "—" J |g| g.beta(0.5).awake_mj / 1e3;
    "ablation.beta_0.50.awake_saving" "—" PCT |g| g.beta_saving(0.5);
    "ablation.beta_0.50.imperceptible" "—" PCT |g| 100.0 * g.beta(0.5).imperceptible_delay;
    "ablation.beta_0.75.wakes" "—" COUNT |g| g.beta(0.75).cpu_wakeups;
    "ablation.beta_0.75.awake" "—" J |g| g.beta(0.75).awake_mj / 1e3;
    "ablation.beta_0.75.awake_saving" "—" PCT |g| g.beta_saving(0.75);
    "ablation.beta_0.75.imperceptible" "—" PCT |g| 100.0 * g.beta(0.75).imperceptible_delay;
    "ablation.beta.wakes_step" "—" RATIO |g| g.beta_step(|a| a.cpu_wakeups), (|x| x < 1.0): "every step up in β cuts CPU wakeups: a wider grace interval lets more alarms join an entry";
    "ablation.beta.awake_step" "—" RATIO |g| g.beta_step(|a| a.awake_mj), (|x| x < 1.0): "every step up in β saves awake energy, 0.75 → 0.96 included";
    "ablation.beta.saving_past_0.75" "—" PTS |g| g.beta_saving(0.96) - g.beta_saving(0.75);
    "ablation.granularity_2.wakes" "—" COUNT |g| g.avg(TWO_LEVEL, Heavy).cpu_wakeups;
    "ablation.granularity_2.awake" "—" J |g| g.avg(TWO_LEVEL, Heavy).awake_mj / 1e3;
    "ablation.granularity_4.wakes" "—" COUNT |g| g.avg(FOUR_LEVEL, Heavy).cpu_wakeups;
    "ablation.granularity_4.awake" "—" J |g| g.avg(FOUR_LEVEL, Heavy).awake_mj / 1e3;
    "ablation.granularity_2_over_3.awake" "—" RATIO |g| g.avg(TWO_LEVEL, Heavy).awake_mj / g.avg(Simty, Heavy).awake_mj;
    "ablation.granularity_4_over_3.awake" "—" RATIO |g| g.avg(FOUR_LEVEL, Heavy).awake_mj / g.avg(Simty, Heavy).awake_mj, (1.0..=1.0): "splitting medium similarity by energy-hungry components never changes a choice on Table 3's workload";
    "ablation.dursim.wakes" "—" COUNT |g| g.avg(Dursim, Heavy).cpu_wakeups;
    "ablation.dursim.awake" "—" J |g| g.avg(Dursim, Heavy).awake_mj / 1e3;
    "ablation.dursim_over_simty.awake" "—" RATIO |g| g.avg(Dursim, Heavy).awake_mj / g.avg(Simty, Heavy).awake_mj, (0.97..=1.03): "±3 %: Table 3's tasks of one hardware class last about as long, so the duration rank rarely changes a choice";
    "ablation.push.native.batches" "—" COUNT |g| g.pushed(Native).entry_deliveries;
    "ablation.push.native_no_realign.batches" "—" COUNT |g| g.pushed(NativeNoRealign).entry_deliveries;
    "ablation.push.native.awake" "—" J |g| g.pushed(Native).awake_mj / 1e3;
    "ablation.push.native_no_realign.awake" "—" J |g| g.pushed(NativeNoRealign).awake_mj / 1e3;
    "ablation.push.realign_minus_no_realign.batches" "—" COUNT1 |g| g.pushed(Native).entry_deliveries - g.pushed(NativeNoRealign).entry_deliveries;
    "ablation.fixed_60s.batches" "—" COUNT |g| g.avg(FixedInterval(60), Heavy).entry_deliveries;
    "ablation.fixed_60s.awake" "—" J |g| g.avg(FixedInterval(60), Heavy).awake_mj / 1e3;
    "ablation.fixed_60s.perceptible" "—" PCT |g| 100.0 * g.avg(FixedInterval(60), Heavy).perceptible_delay, (|x| 0.0 < x): "a fixed grid delays perceptible alarms too; SIMTY's search phase does not (§1, §3.2.1)";
    "ablation.fixed_60s.imperceptible" "—" PCT |g| 100.0 * g.avg(FixedInterval(60), Heavy).imperceptible_delay;
    "ablation.fixed_300s.batches" "—" COUNT |g| g.avg(FixedInterval(300), Heavy).entry_deliveries;
    "ablation.fixed_300s.awake" "—" J |g| g.avg(FixedInterval(300), Heavy).awake_mj / 1e3;
    "ablation.fixed_300s.perceptible" "—" PCT |g| 100.0 * g.avg(FixedInterval(300), Heavy).perceptible_delay, (|x| 0.0 < x): "a fixed grid delays perceptible alarms too; SIMTY's search phase does not (§1, §3.2.1)";
    "ablation.fixed_300s.imperceptible" "—" PCT |g| 100.0 * g.avg(FixedInterval(300), Heavy).imperceptible_delay;
    "ablation.doze.batches" "—" COUNT |g| g.avg(Doze, Heavy).entry_deliveries;
    "ablation.doze.awake" "—" J |g| g.avg(Doze, Heavy).awake_mj / 1e3;
    "ablation.doze.perceptible" "—" PCT |g| 100.0 * g.avg(Doze, Heavy).perceptible_delay, (|x| 0.0 < x): "Doze's maintenance windows delay perceptible alarms too";
    "ablation.doze.imperceptible" "—" PCT |g| 100.0 * g.avg(Doze, Heavy).imperceptible_delay, (|x| 100.0 < x): "escalating windows slip alarms by whole periods";
    "ablation.fixed_60s_over_simty.batches" "—" RATIO |g| g.avg(FixedInterval(60), Heavy).entry_deliveries / g.avg(Simty, Heavy).entry_deliveries, (|x| x < 1.0): "a 60 s grid merges every alarm due in the same minute, window or not";
    "ablation.fixed_60s_over_simty.awake" "—" RATIO |g| g.avg(FixedInterval(60), Heavy).awake_mj / g.avg(Simty, Heavy).awake_mj;
    "ablation.mix.simty.wifi" "—" J |g| g.mix(Simty).energy.component_mj(Wifi) / 1e3;
    "ablation.mix.dursim.wifi" "—" J |g| g.mix(Dursim).energy.component_mj(Wifi) / 1e3;
    "ablation.mix.simty.awake" "—" J |g| g.mix(Simty).energy.awake_related_mj() / 1e3;
    "ablation.mix.dursim.awake" "—" J |g| g.mix(Dursim).energy.awake_related_mj() / 1e3;
    "ablation.mix.simty.wifi_hold" "—" SECS |g| wifi_hold(g.mix(Simty));
    "ablation.mix.dursim.wifi_hold" "—" SECS |g| wifi_hold(g.mix(Dursim));
    "ablation.mix.dursim_over_simty.wifi" "—" RATIO |g| g.mix(Dursim).energy.component_mj(Wifi) / g.mix(Simty).energy.component_mj(Wifi), (|x| x < 0.7): "over 30 % off: DURSIM pairs short with short and long with long, so the radio stays up for a long task once, not twice (§5)";
    "ablation.mix.dursim_over_simty.wifi_hold" "—" RATIO |g| wifi_hold(g.mix(Dursim)) / wifi_hold(g.mix(Simty)), (|x| x < 0.5): "under half: the short pair's activation holds the radio for one second, not for a long task";
    "sensitivity.sleep_x0.5.total_saving" "—" PCT |g| g.tuned_saving(SLEEP_HALF, |a| a.total_mj);
    "sensitivity.sleep_x0.5.awake_saving" "—" PCT |g| g.tuned_saving(SLEEP_HALF, |a| a.awake_mj);
    "sensitivity.sleep_x2.total_saving" "—" PCT |g| g.tuned_saving(SLEEP_DOUBLE, |a| a.total_mj);
    "sensitivity.sleep_x2.awake_saving" "—" PCT |g| g.tuned_saving(SLEEP_DOUBLE, |a| a.awake_mj);
    "sensitivity.wake_transition_x0.5.total_saving" "—" PCT |g| g.tuned_saving(TRANSITION_HALF, |a| a.total_mj);
    "sensitivity.wake_transition_x0.5.awake_saving" "—" PCT |g| g.tuned_saving(TRANSITION_HALF, |a| a.awake_mj);
    "sensitivity.wake_transition_x2.total_saving" "—" PCT |g| g.tuned_saving(TRANSITION_DOUBLE, |a| a.total_mj);
    "sensitivity.wake_transition_x2.awake_saving" "—" PCT |g| g.tuned_saving(TRANSITION_DOUBLE, |a| a.awake_mj);
    "sensitivity.components_x0.5.total_saving" "—" PCT |g| g.tuned_saving(COMPONENTS_HALF, |a| a.total_mj);
    "sensitivity.components_x0.5.awake_saving" "—" PCT |g| g.tuned_saving(COMPONENTS_HALF, |a| a.awake_mj);
    "sensitivity.components_x2.total_saving" "—" PCT |g| g.tuned_saving(COMPONENTS_DOUBLE, |a| a.total_mj);
    "sensitivity.components_x2.awake_saving" "—" PCT |g| g.tuned_saving(COMPONENTS_DOUBLE, |a| a.awake_mj);
    "sensitivity.wake_latency_50ms.total_saving" "—" PCT |g| g.tuned_saving(LATENCY_50MS, |a| a.total_mj);
    "sensitivity.wake_latency_50ms.awake_saving" "—" PCT |g| g.tuned_saving(LATENCY_50MS, |a| a.awake_mj);
    "sensitivity.wake_latency_1000ms.total_saving" "—" PCT |g| g.tuned_saving(LATENCY_1000MS, |a| a.total_mj);
    "sensitivity.wake_latency_1000ms.awake_saving" "—" PCT |g| g.tuned_saving(LATENCY_1000MS, |a| a.awake_mj);
    "sensitivity.awake_saving_min" "> 33 %" PCT |g| g.awake_savings().fold(f64::MAX, f64::min), (|x| 33.0 < x): "the paper's awake claim survives halving or doubling every inferred parameter";
    "sensitivity.awake_saving_max" "—" PCT |g| g.awake_savings().fold(f64::MIN, f64::max);
    "sensitivity.sleep_x2_over_x0.5.total_saving" "—" RATIO |g| g.tuned_saving(SLEEP_DOUBLE, |a| a.total_mj) / g.tuned_saving(SLEEP_HALF, |a| a.total_mj), (|x| x < 1.0): "a higher sleep floor is a larger share of the total, and alignment cannot touch it (§4.2)";
};

/// One target's values on the two grids.
#[derive(Debug)]
pub struct Outcome {
    /// The target.
    pub target: &'static Target,
    /// Its mean over seeds 1–3.
    pub mean: f64,
    /// Its seed-1 value.
    pub seed_one: f64,
}

impl Outcome {
    /// Whether the target's band, if any, holds on both grids.
    pub fn holds(&self) -> bool {
        let both = |b: &Band| (b.holds)(self.mean) && (b.holds)(self.seed_one);
        self.target.band.as_ref().is_none_or(both)
    }
}

/// Every target on `grid` (seeds 1–3) and on its seed-1 restriction.
pub fn evaluate(grid: &PaperGrid) -> Vec<Outcome> {
    let first = grid.seed_one();
    let outcome = |target: &'static Target| Outcome {
        target,
        mean: (target.value)(grid),
        seed_one: (target.value)(&first),
    };
    TARGETS.iter().map(outcome).collect()
}

/// The ids of the targets outside their band.
pub fn failures(outcomes: &[Outcome]) -> Vec<&'static str> {
    let failed = outcomes.iter().filter(|o| !o.holds());
    failed.map(|o| o.target.id).collect()
}

/// The outcomes as a markdown table and a closing verdict line.
pub fn render(outcomes: &[Outcome]) -> String {
    let mut out = String::from("| target | paper | seeds 1–3 | seed 1 | band | why |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for o in outcomes {
        let (t, (suffix, decimals)) = (o.target, o.target.unit);
        let show = |v: f64| format!("{v:.decimals$}{suffix}");
        let band = t.band.map_or("—".into(), |b| b.text.replace(" && x", ""));
        let band = band.replace("<=", "≤") + if o.holds() { "" } else { " **FAIL**" };
        let (id, paper, why) = (t.id, t.paper, t.why);
        let (mean, first) = (show(o.mean), show(o.seed_one));
        out += &format!("| `{id}` | {paper} | {mean} | {first} | {band} | {why} |\n");
    }
    let gates = outcomes.iter().filter(|o| o.target.band.is_some()).count();
    let verdict = match failures(outcomes) {
        failed if failed.is_empty() => "every gate holds".to_owned(),
        failed => format!("outside their band: {}", failed.join(", ")),
    };
    out + &format!("\n{} targets, {gates} gated: {verdict}.\n", outcomes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_keep_their_declared_ends() {
        let band = |b: Option<Band>| b.expect("a band");
        let b = band(targets!(@band 8.0..45.0));
        assert!((b.holds)(8.0) && (b.holds)(44.9) && !(b.holds)(45.0) && !(b.holds)(7.9));
        assert_eq!(b.text, "8.0..45.0");
        let b = band(targets!(@band |x| 33.0 < x));
        assert!(!(b.holds)(33.0) && (b.holds)(33.1) && !(b.holds)(f64::NAN));
    }

    #[test]
    fn target_ids_are_unique_and_gates_say_why() {
        let mut ids: Vec<&str> = TARGETS.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), TARGETS.len());
        for t in TARGETS {
            assert_eq!(t.band.is_some(), !t.why.is_empty(), "{}", t.id);
        }
    }

    #[test]
    fn each_run_is_listed_once() {
        let runs = PaperGrid::runs();
        for (i, run) in runs.iter().enumerate() {
            assert!(!runs[..i].contains(run), "{run:?} is listed twice");
        }
        assert_eq!(runs.len(), 18 + 4 * 3 + 6 * 3 + 8 * 2 * 3 + 2 * 3 + 2);
    }

    #[test]
    fn table3_periods_give_the_nominal_instance_counts() {
        assert_eq!(table3(light_workload_apps()), 525.0);
        assert_eq!(table3(heavy_only_apps()), 444.0);
    }
}
