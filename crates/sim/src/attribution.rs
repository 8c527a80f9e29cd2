//! Per-app energy attribution: which app is draining the battery?
//!
//! The paper's motivation is that resident apps "gradually and
//! imperceptibly drain device batteries"; a practical wakeup manager
//! therefore needs to say *which* app is responsible for how much of the
//! awake-related energy. This ledger splits every awake-energy category
//! among the tasks that caused it, using the same piecewise-constant
//! segments as the device's [`EnergyMeter`](simty_device::energy::EnergyMeter):
//!
//! * **awake-base power** — split equally among the tasks running in the
//!   segment; accrued to *overhead* when the device is awake with no task
//!   (wake latency, sleep linger);
//! * **component power** — split equally among the tasks holding that
//!   component in the segment;
//! * **activation energy** — charged to the task(s) whose delivery newly
//!   activated the component;
//! * **wake-transition energy** — split among the alarms delivered by the
//!   wakeup that paid it; *overhead* if the wake served no alarm (e.g. an
//!   external event with nothing due).
//!
//! The conservation invariant — attributed + overhead = the meter's
//! awake-related energy — is enforced by the integration tests.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use simty_core::hardware::HardwareSet;
use simty_core::time::{SimDuration, SimTime};
use simty_device::power::PowerModel;

/// A task currently holding the device awake.
#[derive(Debug, Clone)]
pub(crate) struct ActiveTask {
    /// The task's app: an index into the ledger's `names`/`totals`.
    pub(crate) slot: u32,
    pub(crate) hardware: HardwareSet,
    pub(crate) until: SimTime,
}

/// The per-app energy ledger (all values in mJ).
///
/// Driven by the [`Simulation`](crate::engine::Simulation) engine; read
/// it after a run via
/// [`Simulation::attribution`](crate::engine::Simulation::attribution).
///
/// Each app owns one dense slot (`names[i]`, `totals[i]`, in first-seen
/// order), resolved once per delivered task; every charge after that is
/// an indexed add, with no string key and no refcount traffic.
#[derive(Debug, Clone)]
pub struct AttributionLedger {
    pub(crate) model: PowerModel,
    pub(crate) active: Vec<ActiveTask>,
    pub(crate) names: Vec<Arc<str>>,
    pub(crate) totals: Vec<f64>,
    pub(crate) interventions: BTreeMap<String, u64>,
    pub(crate) overhead_mj: f64,
    pub(crate) pending_transition_mj: f64,
    pub(crate) last: SimTime,
    pub(crate) awake: bool,
}

impl AttributionLedger {
    /// Creates an empty ledger for a device governed by `model`.
    pub fn new(model: PowerModel) -> Self {
        AttributionLedger {
            model,
            active: Vec::new(),
            names: Vec::new(),
            totals: Vec::new(),
            interventions: BTreeMap::new(),
            overhead_mj: 0.0,
            pending_transition_mj: 0.0,
            last: SimTime::ZERO,
            awake: false,
        }
    }

    /// Integrates the segment `[last, now]` under the current task set
    /// and records the device's awake state from `now` on. Must be called
    /// at every instant the task set or device state changes (the engine
    /// guarantees this by construction).
    pub fn advance_to(&mut self, now: SimTime, awake_after: bool) {
        let dt = now.saturating_since(self.last);
        if !dt.is_zero() && self.awake {
            self.accrue_awake_segment(dt);
        }
        self.active.retain(|t| t.until > now);
        self.last = self.last.max(now);
        self.awake = awake_after;
    }

    /// Notes that a wake transition was paid at this instant; its energy
    /// is attributed to the alarms subsequently delivered by this wakeup.
    pub fn note_wake_transition(&mut self) {
        // An unclaimed previous transition (a wake that served nothing)
        // becomes overhead.
        self.overhead_mj += self.pending_transition_mj;
        self.pending_transition_mj = self.model.wake_transition_energy_mj;
    }

    /// Records a delivered task: `app`'s task holds `hardware` until
    /// `until`; `newly_activated` are the components whose activation
    /// energy this delivery triggered; `batch_size` is the number of
    /// alarms delivered together (they share any pending transition).
    pub fn start_task(
        &mut self,
        app: &Arc<str>,
        hardware: HardwareSet,
        until: SimTime,
        newly_activated: HardwareSet,
        batch_size: usize,
    ) {
        let mut charge = 0.0;
        for c in newly_activated {
            charge += self.model.component(c).activation_energy_mj;
        }
        // The whole batch shares the one transition; each alarm claims its
        // slice the first time it is seen.
        if self.pending_transition_mj > 0.0 && batch_size > 0 {
            let share = self.model.wake_transition_energy_mj / batch_size as f64;
            let claimed = share.min(self.pending_transition_mj);
            charge += claimed;
            self.pending_transition_mj -= claimed;
            if self.pending_transition_mj < 1e-9 {
                self.pending_transition_mj = 0.0;
            }
        }
        let slot = self.slot_of(app);
        self.totals[slot as usize] += charge;
        self.active.push(ActiveTask {
            slot,
            hardware,
            until,
        });
    }

    /// `app`'s slot, added (at 0 mJ) on first sight. The engine hands in
    /// the alarm's own label, so the pointer comparison almost always
    /// hits before any string is compared.
    fn slot_of(&mut self, app: &Arc<str>) -> u32 {
        let found = self
            .names
            .iter()
            .position(|n| Arc::ptr_eq(n, app))
            .or_else(|| self.names.iter().position(|n| **n == **app));
        let slot = found.unwrap_or_else(|| {
            self.names.push(Arc::clone(app));
            self.totals.push(0.0);
            self.names.len() - 1
        });
        u32::try_from(slot).expect("fewer than 2^32 apps")
    }

    /// Energy attributed to each app so far, in mJ, sorted by app name.
    ///
    /// Built on each call from the ledger's dense slots; read it once
    /// per report, not per event.
    pub fn per_app_mj(&self) -> BTreeMap<String, f64> {
        self.names
            .iter()
            .zip(&self.totals)
            .map(|(name, mj)| (name.to_string(), *mj))
            .collect()
    }

    /// Awake energy not attributable to any app: wake latency and sleep
    /// linger with no task running, and wakes that served no alarm.
    pub fn overhead_mj(&self) -> f64 {
        self.overhead_mj + self.pending_transition_mj
    }

    /// Total attributed energy (excluding overhead), in mJ, summed in app
    /// name order.
    pub fn attributed_mj(&self) -> f64 {
        self.per_app_mj().values().sum()
    }

    /// Drops every active task immediately (mirrors the device's forced
    /// wakelock release, so ledger and meter stay conserved).
    pub fn drop_all_tasks(&mut self, now: SimTime) {
        self.advance_to(now, self.awake);
        self.active.clear();
    }

    /// Drops one app's active tasks, leaving every other task running —
    /// the ledger half of the per-offender forced release: the offender
    /// keeps everything already attributed to it, and stops accruing from
    /// `now` on. Also counts one watchdog intervention against the app.
    pub fn drop_app_tasks(&mut self, app: &str, now: SimTime) {
        self.advance_to(now, self.awake);
        let names = &self.names;
        self.active.retain(|t| *names[t.slot as usize] != *app);
        *self.interventions.entry(app.to_owned()).or_insert(0) += 1;
    }

    /// How many watchdog interventions were attributed to each app.
    pub fn interventions_per_app(&self) -> &BTreeMap<String, u64> {
        &self.interventions
    }

    /// Apps ranked by attributed energy, highest first.
    pub fn ranking(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self.per_app_mj().into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("energies are finite"));
        v
    }

    /// Charges the awake segment `[last, last + dt]` to the running
    /// tasks.
    ///
    /// The engine's run loop closes almost every segment through the
    /// [`advance_to`](Self::advance_to) calls before and after each
    /// same-instant batch, outside the batch's dispatch clock, so this
    /// runs outside every stage clock: its cost shows in a run's total
    /// time, not in any stage's. Only a forced release
    /// ([`drop_app_tasks`](Self::drop_app_tasks),
    /// [`drop_all_tasks`](Self::drop_all_tasks)) closes one inside it.
    fn accrue_awake_segment(&mut self, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        // This runs once per event-loop batch, so it must not allocate:
        // tasks are scanned twice (count, then charge), and each charge
        // is an indexed add into the task's slot, in the same task order
        // as ever, so every app's float sum is reproducible.
        let last = self.last;
        let running = |t: &ActiveTask| t.until > last;
        let n_running = self.active.iter().filter(|t| running(t)).count();
        // Base power: split equally among running tasks, or overhead.
        let base = self.model.awake_base_power_mw * secs;
        if n_running == 0 {
            self.overhead_mj += base;
        } else {
            let share = base / n_running as f64;
            for t in self.active.iter().filter(|t| running(t)) {
                self.totals[t.slot as usize] += share;
            }
        }
        // Component power: split among the tasks holding each component.
        for c in simty_core::hardware::HardwareComponent::ALL {
            let holds = |t: &ActiveTask| running(t) && t.hardware.contains(c);
            let n_holders = self.active.iter().filter(|t| holds(t)).count();
            if n_holders == 0 {
                continue;
            }
            let energy = self.model.component(c).active_power_mw * secs;
            let share = energy / n_holders as f64;
            for t in self.active.iter().filter(|t| holds(t)) {
                self.totals[t.slot as usize] += share;
            }
        }
    }
}

impl fmt::Display for AttributionLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "per-app energy attribution (mJ):")?;
        for (app, mj) in self.ranking() {
            writeln!(f, "  {app:<20} {mj:>12.1}")?;
        }
        write!(f, "  {:<20} {:>12.1}", "(overhead)", self.overhead_mj())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simty_core::hardware::HardwareComponent;

    /// The ledger as it was before dense slots: every charge a string-keyed
    /// map update. The differential oracle below holds the slot ledger to
    /// its exact bits.
    struct ReferenceLedger {
        model: PowerModel,
        active: Vec<(Arc<str>, HardwareSet, SimTime)>,
        per_app: BTreeMap<String, f64>,
        interventions: BTreeMap<String, u64>,
        overhead_mj: f64,
        pending_transition_mj: f64,
        last: SimTime,
        awake: bool,
    }

    impl ReferenceLedger {
        fn new(model: PowerModel) -> Self {
            ReferenceLedger {
                model,
                active: Vec::new(),
                per_app: BTreeMap::new(),
                interventions: BTreeMap::new(),
                overhead_mj: 0.0,
                pending_transition_mj: 0.0,
                last: SimTime::ZERO,
                awake: false,
            }
        }

        fn advance_to(&mut self, now: SimTime, awake_after: bool) {
            let dt = now.saturating_since(self.last);
            if !dt.is_zero() && self.awake {
                self.accrue_awake_segment(dt);
            }
            self.active.retain(|t| t.2 > now);
            self.last = self.last.max(now);
            self.awake = awake_after;
        }

        fn note_wake_transition(&mut self) {
            self.overhead_mj += self.pending_transition_mj;
            self.pending_transition_mj = self.model.wake_transition_energy_mj;
        }

        fn start_task(
            &mut self,
            app: &Arc<str>,
            hardware: HardwareSet,
            until: SimTime,
            newly_activated: HardwareSet,
            batch_size: usize,
        ) {
            let mut charge = 0.0;
            for c in newly_activated {
                charge += self.model.component(c).activation_energy_mj;
            }
            if self.pending_transition_mj > 0.0 && batch_size > 0 {
                let share = self.model.wake_transition_energy_mj / batch_size as f64;
                let claimed = share.min(self.pending_transition_mj);
                charge += claimed;
                self.pending_transition_mj -= claimed;
                if self.pending_transition_mj < 1e-9 {
                    self.pending_transition_mj = 0.0;
                }
            }
            bump(&mut self.per_app, app, charge);
            self.active.push((Arc::clone(app), hardware, until));
        }

        fn drop_all_tasks(&mut self, now: SimTime) {
            self.advance_to(now, self.awake);
            self.active.clear();
        }

        fn drop_app_tasks(&mut self, app: &str, now: SimTime) {
            self.advance_to(now, self.awake);
            self.active.retain(|t| *t.0 != *app);
            *self.interventions.entry(app.to_owned()).or_insert(0) += 1;
        }

        fn accrue_awake_segment(&mut self, dt: SimDuration) {
            let secs = dt.as_secs_f64();
            let last = self.last;
            let running = |t: &(Arc<str>, HardwareSet, SimTime)| t.2 > last;
            let n_running = self.active.iter().filter(|t| running(t)).count();
            let base = self.model.awake_base_power_mw * secs;
            if n_running == 0 {
                self.overhead_mj += base;
            } else {
                let share = base / n_running as f64;
                for i in 0..self.active.len() {
                    if running(&self.active[i]) {
                        let app = Arc::clone(&self.active[i].0);
                        bump(&mut self.per_app, &app, share);
                    }
                }
            }
            for c in HardwareComponent::ALL {
                let holds = |t: &(Arc<str>, HardwareSet, SimTime)| running(t) && t.1.contains(c);
                let n_holders = self.active.iter().filter(|t| holds(t)).count();
                if n_holders == 0 {
                    continue;
                }
                let energy = self.model.component(c).active_power_mw * secs;
                let share = energy / n_holders as f64;
                for i in 0..self.active.len() {
                    if holds(&self.active[i]) {
                        let app = Arc::clone(&self.active[i].0);
                        bump(&mut self.per_app, &app, share);
                    }
                }
            }
        }
    }

    fn bump(per_app: &mut BTreeMap<String, f64>, app: &str, amt: f64) {
        if let Some(v) = per_app.get_mut(app) {
            *v += amt;
        } else {
            per_app.insert(app.to_owned(), amt);
        }
    }

    #[derive(Debug, Clone)]
    enum LedgerOp {
        /// App index, hardware bits, hold (ms), newly-activated bits,
        /// batch size, and whether the label is a fresh allocation.
        Start(usize, u8, u64, u8, usize, bool),
        /// Advance by ms, awake after.
        Advance(u64, bool),
        Wake,
        /// Drop one app's tasks after ms.
        DropApp(usize, u64),
        /// Drop every task after ms.
        DropAll(u64),
    }

    fn arb_ledger_op() -> impl Strategy<Value = LedgerOp> {
        prop_oneof![
            (
                0usize..5,
                any::<u8>(),
                0u64..20_000,
                any::<u8>(),
                0usize..4,
                any::<bool>()
            )
                .prop_map(|(a, hw, hold, newly, batch, fresh)| {
                    LedgerOp::Start(a, hw, hold, newly, batch, fresh)
                }),
            (0u64..8_000, any::<bool>()).prop_map(|(dt, awake)| LedgerOp::Advance(dt, awake)),
            Just(LedgerOp::Wake),
            (0usize..5, 0u64..3_000).prop_map(|(a, dt)| LedgerOp::DropApp(a, dt)),
            (0u64..3_000).prop_map(LedgerOp::DropAll),
        ]
    }

    fn hardware_of(bits: u8) -> HardwareSet {
        let mut set = HardwareSet::empty();
        for (i, c) in HardwareComponent::ALL.into_iter().enumerate() {
            if bits & (1 << (i % 8)) != 0 {
                set |= HardwareSet::from(c);
            }
        }
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dense slots charge every app exactly the bits the string-keyed
        /// ledger did, under any interleaving of tasks over overlapping
        /// apps and hardware, wakes, awake and asleep segments, and
        /// forced releases.
        #[test]
        fn slot_ledger_matches_string_keyed_reference(ops in prop::collection::vec(arb_ledger_op(), 1..120)) {
            const APPS: [&str; 5] = ["mail", "chat", "news", "gps%2C", "mail2"];
            let shared: Vec<Arc<str>> = APPS.iter().map(|a| Arc::from(*a)).collect();
            let mut fast = ledger();
            let mut reference = ReferenceLedger::new(PowerModel::nexus5());
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    LedgerOp::Start(a, hw, hold, newly, batch, fresh) => {
                        let app = if fresh { Arc::from(APPS[a]) } else { Arc::clone(&shared[a]) };
                        let until = now + SimDuration::from_millis(hold);
                        let (hw, newly) = (hardware_of(hw), hardware_of(newly));
                        fast.start_task(&app, hw, until, newly, batch);
                        reference.start_task(&app, hw, until, newly, batch);
                    }
                    LedgerOp::Advance(dt, awake) => {
                        now += SimDuration::from_millis(dt);
                        fast.advance_to(now, awake);
                        reference.advance_to(now, awake);
                    }
                    LedgerOp::Wake => {
                        fast.note_wake_transition();
                        reference.note_wake_transition();
                    }
                    LedgerOp::DropApp(a, dt) => {
                        now += SimDuration::from_millis(dt);
                        fast.drop_app_tasks(APPS[a], now);
                        reference.drop_app_tasks(APPS[a], now);
                    }
                    LedgerOp::DropAll(dt) => {
                        now += SimDuration::from_millis(dt);
                        fast.drop_all_tasks(now);
                        reference.drop_all_tasks(now);
                    }
                }
                let bits = |m: &BTreeMap<String, f64>| -> Vec<(String, u64)> {
                    m.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
                };
                prop_assert_eq!(bits(&fast.per_app_mj()), bits(&reference.per_app));
                prop_assert_eq!(fast.overhead_mj().to_bits(), (reference.overhead_mj + reference.pending_transition_mj).to_bits());
                let reference_attributed: f64 = reference.per_app.values().sum();
                prop_assert_eq!(fast.attributed_mj().to_bits(), reference_attributed.to_bits());
                prop_assert_eq!(fast.interventions_per_app(), &reference.interventions);
            }
        }
    }

    fn ledger() -> AttributionLedger {
        AttributionLedger::new(PowerModel::nexus5())
    }

    #[test]
    fn lone_task_gets_everything_but_latency_and_linger_overhead() {
        let mut l = ledger();
        // Wake at 10 s (the Waking state counts as awake, like the device
        // meter), task from 10.25 s to 13.25 s, linger until 13.5 s.
        l.advance_to(SimTime::from_secs(10), true);
        l.note_wake_transition();
        l.advance_to(SimTime::from_millis(10_250), true);
        l.start_task(
            &"app".into(),
            HardwareComponent::Wifi.into(),
            SimTime::from_millis(13_250),
            HardwareComponent::Wifi.into(),
            1,
        );
        l.advance_to(SimTime::from_millis(13_250), true);
        l.advance_to(SimTime::from_millis(13_500), false);
        let app = l.per_app_mj()["app"];
        // transition 100 + activation 200 + 3 s of (base 160 + wifi 150).
        let expected = 100.0 + 200.0 + 3.0 * 310.0;
        assert!((app - expected).abs() < 1e-6, "got {app}");
        // Latency and linger (0.5 s of base power) with no task: overhead.
        assert!((l.overhead_mj() - 0.5 * 160.0).abs() < 1e-6);
        // Conservation: the device meter would report 100 + 3.5 s × 160 +
        // 200 + 3 s × 150 of awake-related energy.
        let meter_awake = 100.0 + 3.5 * 160.0 + 200.0 + 3.0 * 150.0;
        assert!((l.attributed_mj() + l.overhead_mj() - meter_awake).abs() < 1e-6);
    }

    #[test]
    fn concurrent_tasks_split_base_and_shared_components() {
        let mut l = ledger();
        l.advance_to(SimTime::from_secs(0), true);
        l.start_task(
            &"a".into(),
            HardwareComponent::Wifi.into(),
            SimTime::from_secs(2),
            HardwareComponent::Wifi.into(),
            2,
        );
        l.start_task(
            &"b".into(),
            HardwareComponent::Wifi.into(),
            SimTime::from_secs(2),
            HardwareSet::empty(),
            2,
        );
        l.advance_to(SimTime::from_secs(2), false);
        let a = l.per_app_mj()["a"];
        let b = l.per_app_mj()["b"];
        // Both split base (160) and wifi power (150) over 2 s; `a` paid the
        // activation (200); no transition was pending.
        assert!((b - (160.0 + 150.0)).abs() < 1e-6, "b = {b}");
        assert!((a - (160.0 + 150.0 + 200.0)).abs() < 1e-6, "a = {a}");
    }

    #[test]
    fn batch_members_share_the_transition() {
        let mut l = ledger();
        l.note_wake_transition();
        l.advance_to(SimTime::from_secs(1), true);
        l.start_task(
            &"a".into(),
            HardwareSet::empty(),
            SimTime::from_secs(1),
            HardwareSet::empty(),
            2,
        );
        l.start_task(
            &"b".into(),
            HardwareSet::empty(),
            SimTime::from_secs(1),
            HardwareSet::empty(),
            2,
        );
        assert!((l.per_app_mj()["a"] - 50.0).abs() < 1e-9);
        assert!((l.per_app_mj()["b"] - 50.0).abs() < 1e-9);
        assert_eq!(l.overhead_mj(), 0.0);
    }

    #[test]
    fn unclaimed_transition_becomes_overhead() {
        let mut l = ledger();
        l.note_wake_transition();
        l.advance_to(SimTime::from_secs(5), false);
        // A second wake with the first still unclaimed.
        l.note_wake_transition();
        assert!((l.overhead_mj() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn drop_app_tasks_spares_the_bystander() {
        let mut l = ledger();
        l.advance_to(SimTime::from_secs(0), true);
        l.start_task(
            &"offender".into(),
            HardwareSet::empty(),
            SimTime::from_secs(100),
            HardwareSet::empty(),
            1,
        );
        l.start_task(
            &"bystander".into(),
            HardwareSet::empty(),
            SimTime::from_secs(4),
            HardwareSet::empty(),
            1,
        );
        l.advance_to(SimTime::from_secs(2), true);
        l.drop_app_tasks("offender", SimTime::from_secs(2));
        l.advance_to(SimTime::from_secs(4), false);
        // Both split base power for 2 s; the bystander then accrues the
        // remaining 2 s alone.
        let offender = l.per_app_mj()["offender"];
        let bystander = l.per_app_mj()["bystander"];
        assert!((offender - 160.0).abs() < 1e-9, "offender = {offender}");
        assert!(
            (bystander - (160.0 + 320.0)).abs() < 1e-9,
            "bystander = {bystander}"
        );
        assert_eq!(l.interventions_per_app()["offender"], 1);
        assert!(!l.interventions_per_app().contains_key("bystander"));
    }

    #[test]
    fn ranking_is_descending() {
        let mut l = ledger();
        l.advance_to(SimTime::from_secs(0), true);
        l.start_task(
            &"small".into(),
            HardwareSet::empty(),
            SimTime::from_secs(1),
            HardwareSet::empty(),
            1,
        );
        l.advance_to(SimTime::from_secs(1), true);
        l.start_task(
            &"big".into(),
            HardwareComponent::Wps.into(),
            SimTime::from_secs(9),
            HardwareComponent::Wps.into(),
            1,
        );
        l.advance_to(SimTime::from_secs(9), false);
        let ranking = l.ranking();
        assert_eq!(ranking[0].0, "big");
        assert!(ranking[0].1 > ranking[1].1);
        assert!(l.to_string().contains("overhead"));
    }
}
