//! Crash-consistent checkpointing and simulated reboot recovery.
//!
//! The load-bearing guarantee: a run resumed from *any* checkpoint is
//! byte-identical — in trace CSV and report JSON — to the
//! straight-through run, even when the run is laced with faults and
//! reboots. And after a reboot, boot catch-up delivers every missed
//! alarm inside the (outage-widened) perceptible window.

mod common;

use proptest::prelude::*;
use simty::prelude::*;
use simty::sim::json::report_to_json;

fn wifi(label: &str, nominal_s: u64, repeat_s: u64) -> Alarm {
    Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .repeating_static(SimDuration::from_secs(repeat_s))
        .window_fraction(0.5)
        .grace_fraction(0.9)
        .hardware(HardwareComponent::Wifi.into())
        .task_duration(SimDuration::from_secs(2))
        .build()
        .expect("valid alarm")
}

fn cell(label: &str, nominal_s: u64, repeat_s: u64) -> Alarm {
    Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .repeating_dynamic(SimDuration::from_secs(repeat_s))
        .window_fraction(0.4)
        .grace_fraction(0.8)
        .hardware(HardwareComponent::Cellular.into())
        .task_duration(SimDuration::from_millis(1_500))
        .build()
        .expect("valid alarm")
}

fn standard_workload(sim: &mut Simulation) {
    sim.register(wifi("Facebook", 60, 300)).unwrap();
    sim.register(wifi("Gmail", 120, 600)).unwrap();
    sim.register(cell("WhatsApp", 90, 240)).unwrap();
    sim.register(cell("Weather", 400, 1_800)).unwrap();
    sim.register(
        Alarm::builder("Clock")
            .nominal(SimTime::from_secs(30))
            .repeating_static(SimDuration::from_secs(900))
            .kind(AlarmKind::NonWakeup)
            .build()
            .unwrap(),
    )
    .unwrap();
}

fn trace_csv(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.trace().write_csv(&mut buf).unwrap();
    buf
}

fn fingerprint(sim: &Simulation) -> (Vec<u8>, String) {
    (trace_csv(sim), report_to_json(&sim.report()))
}

/// Straight-through vs resumed-from-every-checkpoint, plain workload.
#[test]
fn resume_from_any_checkpoint_is_byte_identical() {
    let config = || {
        SimConfig::new()
            .with_duration(SimDuration::from_hours(3))
            .with_checkpoints(SimDuration::from_mins(20))
            .with_invariants()
    };
    let mut straight = Simulation::new(Box::new(SimtyPolicy::new()), config());
    standard_workload(&mut straight);
    let expected = {
        straight.run();
        fingerprint(&straight)
    };
    let checkpoints = straight.checkpoints();
    assert!(
        checkpoints.len() >= 8,
        "expected periodic captures, got {}",
        checkpoints.len()
    );
    for (i, ckpt) in checkpoints.iter().enumerate() {
        let mut resumed =
            Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).expect("restore");
        assert_eq!(resumed.now(), ckpt.captured_at());
        resumed.run();
        let got = fingerprint(&resumed);
        assert_eq!(got.0, expected.0, "trace diverged from checkpoint {i}");
        assert_eq!(got.1, expected.1, "report diverged from checkpoint {i}");
    }
}

/// Same guarantee with faults *and* reboots live — the checkpoint must
/// carry RNG streams, pending fault cursors, and the outage schedule.
#[test]
fn resume_is_byte_identical_under_faults_and_reboots() {
    let faults = FaultPlan::new(0xC0FFEE)
        .with_rtc_jitter(SimDuration::from_millis(400))
        .with_dropped_fires(0.05, SimDuration::from_secs(5))
        .with_task_overruns(0.10, SimDuration::from_secs(3))
        .with_wakelock_leaks(0.02, SimDuration::from_secs(20))
        .with_activation_failures(0.05)
        .with_app_crash(
            "WhatsApp",
            SimTime::from_secs(50 * 60),
            SimDuration::from_mins(4),
        );
    let reboots = RebootPlan::new(7)
        .with_reboot(SimTime::from_secs(35 * 60), SimDuration::from_secs(45))
        .with_reboot(SimTime::from_secs(95 * 60), SimDuration::from_secs(90));
    let build = || {
        let mut sim = Simulation::new(
            Box::new(NativePolicy::new()),
            SimConfig::new()
                .with_duration(SimDuration::from_hours(3))
                .with_checkpoints(SimDuration::from_mins(15))
                .with_invariants()
                .with_online_watchdog(OnlineWatchdogConfig::default()),
        );
        standard_workload(&mut sim);
        sim.inject_faults(&faults);
        sim.inject_reboots(&reboots);
        sim
    };
    let mut straight = build();
    straight.run();
    let expected = fingerprint(&straight);
    assert!(
        straight
            .trace()
            .interventions()
            .iter()
            .any(|iv| matches!(iv.kind, InterventionKind::Reboot { .. })),
        "reboots should have landed"
    );
    for (i, ckpt) in straight.checkpoints().iter().enumerate() {
        let mut resumed =
            Simulation::restore(Box::new(NativePolicy::new()), ckpt).expect("restore");
        resumed.run();
        let got = fingerprint(&resumed);
        assert_eq!(got.0, expected.0, "trace diverged from checkpoint {i}");
        assert_eq!(got.1, expected.1, "report diverged from checkpoint {i}");
    }
}

/// A checkpoint survives the disk round trip (store → file → restore).
#[test]
fn resume_through_the_store_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!(
        "simty-recovery-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).unwrap();

    let mut straight = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new()
            .with_duration(SimDuration::from_hours(2))
            .with_checkpoints(SimDuration::from_mins(30)),
    );
    standard_workload(&mut straight);
    straight.run();
    let expected = fingerprint(&straight);
    for ckpt in straight.checkpoints() {
        store.save(ckpt).unwrap();
    }
    let (latest, skipped) = store.load_latest_good().unwrap();
    assert_eq!(skipped, 0);
    let mut resumed =
        Simulation::restore(Box::new(SimtyPolicy::new()), &latest).expect("restore");
    resumed.run();
    assert_eq!(fingerprint(&resumed), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boot catch-up keeps every missed delivery inside the outage-widened
/// perceptible window: strict invariants panic on violation, so this
/// test passing *is* the assertion.
#[test]
fn reboot_recovery_meets_the_widened_perceptible_window() {
    // The outage covers the shortest alarm period, so every reboot is
    // guaranteed to strand at least one overdue entry for boot catch-up.
    let reboots = RebootPlan::new(11)
        .with_periodic(
            SimDuration::from_mins(40),
            SimDuration::from_mins(5),
            SimDuration::from_secs(310),
            SimDuration::from_hours(3),
        );
    for policy in [
        Box::new(NativePolicy::new()) as Box<dyn AlignmentPolicy>,
        Box::new(SimtyPolicy::new()),
    ] {
        let mut sim = Simulation::new(
            policy,
            SimConfig::new()
                .with_duration(SimDuration::from_hours(3))
                .with_strict_invariants(),
        );
        standard_workload(&mut sim);
        sim.inject_reboots(&reboots);
        let report = sim.run();
        assert_eq!(
            sim.invariants().map(|m| m.violations().len()),
            Some(0),
            "recovery broke the perceptible-window guarantee"
        );
        assert!(report.resilience.reboots >= 4, "reboots should have landed");
        assert!(
            report.resilience.catch_up_entries > 0,
            "outages should have forced boot catch-up"
        );
    }
}

/// Restoring with the wrong policy is refused, not silently wrong.
#[test]
fn restore_rejects_a_mismatched_policy() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    standard_workload(&mut sim);
    sim.run_until(SimTime::from_secs(10 * 60));
    let ckpt = sim.checkpoint();
    let err = Simulation::restore(Box::new(NativePolicy::new()), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::PolicyMismatch { .. }));
}

/// Alarms registered after a resume get fresh ids — never a collision
/// with ids minted before the checkpoint.
#[test]
fn ids_minted_after_resume_do_not_collide() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    standard_workload(&mut sim);
    sim.run_until(SimTime::from_secs(5 * 60));
    let ckpt = sim.checkpoint();
    let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt).unwrap();
    let existing: Vec<AlarmId> = resumed
        .manager()
        .wakeup_queue()
        .entries()
        .iter()
        .chain(resumed.manager().non_wakeup_queue().entries())
        .flat_map(|e| e.alarms().iter().map(|a| a.id()))
        .collect();
    let fresh = resumed.register(wifi("latecomer", 600, 600)).unwrap();
    assert!(!existing.contains(&fresh), "fresh id collided after resume");
}

/// Pausing a run with `run_until` and carrying on — directly, or through
/// a checkpoint captured at the pause — ends byte-identical to the run
/// never paused: trace, report, and every observability export. Twelve
/// pause instants, one every 5 simulated minutes over the last hour of a
/// SIMTY heavy 3 h run, on two seeds.
#[test]
fn pausing_never_changes_the_result() {
    let duration = SimDuration::from_hours(3);
    let end = SimTime::ZERO + duration;
    let everything = |sim: &Simulation| {
        let obs = sim.obs();
        (
            fingerprint(sim),
            obs.spans_jsonl(),
            obs.audits_jsonl(),
            obs.metrics_exposition(),
        )
    };
    for seed in 1..=2 {
        let workload = WorkloadBuilder::heavy()
            .with_seed(seed)
            .with_beta(0.96)
            .with_duration(duration)
            .build();
        let fresh = || {
            let config = SimConfig::new().with_duration(duration);
            let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
            for alarm in workload.alarms.iter().cloned() {
                sim.register(alarm).unwrap();
            }
            sim
        };
        let mut straight = fresh();
        straight.run();
        let want = everything(&straight);
        for k in 1..=12 {
            let pause = end - SimDuration::from_mins(5 * k);
            let mut paused = fresh();
            paused.run_until(pause);
            let snapshot = paused.checkpoint();
            paused.run();
            assert!(
                everything(&paused) == want,
                "seed {seed}: paused {} min before the end",
                5 * k
            );
            let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), &snapshot)
                .expect("a snapshot taken at a pause restores");
            resumed.run();
            assert!(
                everything(&resumed) == want,
                "seed {seed}: resumed from a pause {} min before the end",
                5 * k
            );
        }
    }
}

/// A capture an hour into a run with every optional section present:
/// the waveform monitor, invariants, the watchdog, admission state,
/// faults, and a crashed app's stashed alarms.
fn capture_with_every_section() -> Checkpoint {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new()
            .with_duration(SimDuration::from_hours(2))
            .with_waveform()
            .with_invariants()
            .with_online_watchdog(OnlineWatchdogConfig::default())
            .with_admission(simty::core::AdmissionConfig::default())
            .with_external_wakes([SimTime::from_secs(700)]),
    );
    standard_workload(&mut sim);
    sim.inject_faults(
        &FaultPlan::new(0xC0FFEE)
            .with_dropped_fires(0.05, SimDuration::from_secs(5))
            .with_app_crash(
                "WhatsApp",
                SimTime::from_secs(50 * 60),
                SimDuration::from_mins(20),
            ),
    );
    sim.run_until(SimTime::from_secs(60 * 60));
    sim.checkpoint()
}

/// Re-envelopes `ckpt` with `edit` applied to its body and a fresh
/// length and checksum, so only the body's content is hostile.
fn edited(ckpt: &Checkpoint, edit: impl Fn(&str) -> String) -> Checkpoint {
    let bytes = String::from_utf8(ckpt.to_bytes()).expect("utf-8 checkpoint");
    let mut parts = bytes.splitn(4, '\n');
    let magic = parts.next().expect("magic line");
    let body = edit(parts.nth(2).expect("body"));
    let envelope = format!(
        "{magic}\nlen={}\nsum={:016x}\n{body}",
        body.len(),
        simty::sim::codec::fnv1a64(body.as_bytes())
    );
    Checkpoint::from_bytes(envelope.as_bytes()).expect("re-checksummed envelope")
}

/// Replaces field `field` of the first `key=` line of `body`.
fn with_field(body: &str, key: &str, field: usize, value: &str) -> Option<String> {
    let prefix = format!("{key}=");
    let mut found = false;
    let lines: Vec<String> = body
        .lines()
        .map(|line| match line.strip_prefix(&prefix) {
            Some(rest) if !found => {
                found = true;
                let mut fields: Vec<&str> = rest.split(',').collect();
                fields[field] = value;
                format!("{prefix}{}", fields.join(","))
            }
            _ => line.to_owned(),
        })
        .collect();
    found.then(|| lines.join("\n") + "\n")
}

/// A hostile count in a re-checksummed body — one that would make
/// restore allocate or loop for 10^18 items — is a typed `Malformed`
/// error, as is a zero span or audit ring capacity or an alarm-id
/// watermark of `u64::MAX`; none aborts.
#[test]
fn hostile_counts_and_zero_capacities_are_typed_errors() {
    let ckpt = capture_with_every_section();
    let restore = |c: &Checkpoint| Simulation::restore(Box::new(SimtyPolicy::new()), c);
    assert!(restore(&ckpt).is_ok(), "the unedited capture restores");

    // `(key, field)`: every count the body carries, whole-line counts
    // first, then the counts inside `entry=`, `stash=` and `oh=` lines.
    let mut counted: Vec<(&str, usize)> = [
        "external_wakes",
        "wakeup_entries",
        "non_wakeup_entries",
        "levels",
        "impulses",
        "events",
        "armed",
        "deliveries",
        "wakeups",
        "interventions",
        "ledger_active",
        "ledger_apps",
        "ledger_interventions",
        "f_crashes",
        "f_storms",
        "m_violations",
        "holds",
        "offenses",
        "quarantined",
        "retries",
        "stash_apps",
        "adm",
        "storm_bursts",
        "obs_spans",
        "obs_counters",
        "obs_gauges",
        "obs_hists",
        "obs_audits",
        "obs_aliases",
    ]
    .into_iter()
    .map(|key| (key, 0))
    .collect();
    counted.extend([("entry", 1), ("stash", 0), ("oh", 1)]);
    for (key, field) in counted {
        for hostile in ["1000000000000000000", "18446744073709551615"] {
            let body = String::from_utf8(ckpt.to_bytes()).unwrap();
            assert!(
                with_field(&body, key, field, hostile).is_some(),
                "the capture has no `{key}=` line"
            );
            let bad = edited(&ckpt, |b| with_field(b, key, field, hostile).unwrap());
            match restore(&bad) {
                Err(CheckpointError::Malformed { message, .. }) => {
                    assert!(message.contains("exceeds the body"), "`{key}`: {message}")
                }
                other => panic!("`{key}` field {field} = {hostile}: {:?}", other.err()),
            }
        }
    }

    // The capture keeps the default span capacity, so it writes no
    // `span_capacity=` line; the edit adds one after the audit ring's.
    let audit_line = |b: &str| {
        let at = b.find("\naudit_capacity=").expect("audit_capacity line") + 1;
        b[at..].split_inclusive('\n').next().unwrap().to_owned()
    };
    let zero_audit = edited(&ckpt, |b| {
        b.replacen(&audit_line(b), "audit_capacity=0\n", 1)
    });
    let zero_span = edited(&ckpt, |b| {
        let line = audit_line(b);
        b.replacen(&line, &format!("{line}span_capacity=0\n"), 1)
    });
    // An alarm-id watermark past which no fresh id is left to mint.
    let no_id_left = edited(&ckpt, |b| {
        with_field(b, "max_alarm_id", 0, "18446744073709551615").unwrap()
    });
    for (key, bad) in [
        ("audit_capacity", zero_audit),
        ("span_capacity", zero_span),
        ("max_alarm_id", no_id_left),
    ] {
        match restore(&bad) {
            Err(CheckpointError::Malformed { message, .. }) => {
                assert!(message.contains(key), "{message}")
            }
            other => panic!("{key}=0: {:?}", other.err()),
        }
    }

    // Histogram bounds that cannot bucket anything: none at all, out of
    // order, or infinite. Each line keeps the field count its bound
    // count implies, so only the bounds themselves are hostile.
    let body = String::from_utf8(ckpt.to_bytes()).unwrap();
    let hist = body
        .lines()
        .find(|l| l.starts_with("oh="))
        .expect("an `oh=` line")
        .to_owned();
    let fields: Vec<&str> = hist.split(',').collect();
    let no_bounds = format!("{},0,0,{},0", fields[0], fields[fields.len() - 3]);
    let mut unsorted = fields.clone();
    unsorted.swap(2, 3);
    let mut infinite = fields.clone();
    infinite[2] = "7ff0000000000000";
    for (edit, want) in [
        (no_bounds, "a histogram needs at least one bound"),
        (unsorted.join(","), "finite and strictly increasing"),
        (infinite.join(","), "finite and strictly increasing"),
    ] {
        let bad = edited(&ckpt, |b| b.replacen(&hist, &edit, 1));
        match restore(&bad) {
            Err(CheckpointError::Malformed { message, .. }) => {
                assert!(message.contains(want), "`{edit}`: {message}")
            }
            other => panic!("`{edit}`: {:?}", other.err()),
        }
    }
}

/// A counts-level run survives a checkpoint, and so does a timed-level
/// one: capture → restore → capture is byte-identical at every pause,
/// both eviction counts included, and each resumed run ends exactly as
/// the straight one. The level is part of the body, so a foreign level
/// or counts that break the ring's books are typed errors.
#[test]
fn counts_level_captures_round_trip_byte_identically() {
    use simty::sim::ObsLevel;
    for (level, name) in [(ObsLevel::Counts, "counts"), (ObsLevel::Timed, "timed")] {
        let mut straight = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new()
                .with_duration(SimDuration::from_hours(3))
                .with_span_capacity(16)
                .with_audit_capacity(8)
                .with_obs(level),
        );
        standard_workload(&mut straight);
        let mut pauses = Vec::new();
        for secs in [1, 45 * 60, 100 * 60] {
            straight.run_until(SimTime::from_secs(secs));
            pauses.push((
                straight.checkpoint(),
                straight.obs().spans().dropped(),
                straight.obs().audit_dropped(),
            ));
        }
        straight.run();
        let evictions =
            |sim: &Simulation| (sim.obs().spans().dropped(), sim.obs().audit_dropped());
        let (spans, audits) = evictions(&straight);
        assert!(
            spans > 0 && audits > 0,
            "{name}: both rings evicted: {spans} {audits}"
        );
        assert_eq!(
            (pauses[0].1, pauses[0].2),
            (0, 0),
            "the first pause precedes every eviction"
        );
        let expected = fingerprint(&straight);
        let level_line = format!("\nobs={name}\n");
        for (ckpt, span_dropped, audit_dropped) in &pauses {
            let body = String::from_utf8(ckpt.to_bytes()).unwrap();
            assert!(body.contains(&level_line), "the level is captured");
            let mut resumed =
                Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).expect("restore");
            assert_eq!(resumed.obs().level(), level);
            assert_eq!(evictions(&resumed), (*span_dropped, *audit_dropped));
            assert_eq!(resumed.checkpoint().to_bytes(), ckpt.to_bytes());
            resumed.run();
            assert_eq!(fingerprint(&resumed), expected);
            assert_eq!(evictions(&resumed), (spans, audits));
        }

        let (late, _, _) = &pauses[2];
        let restore = |c: &Checkpoint| Simulation::restore(Box::new(SimtyPolicy::new()), c);
        for (from, to) in [
            (level_line.as_str(), "\nobs=1\n"),
            ("\nobs_audits_counted=", "\nobs_audits_counted=1"),
            ("\nobs_next_seq=", "\nobs_next_seq=1"),
        ] {
            let bad = edited(late, |b| b.replacen(from, to, 1));
            match restore(&bad) {
                Err(CheckpointError::Malformed { .. }) => {}
                other => panic!("{name}: `{to}` edit: {:?}", other.err()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The round-trip oracle: at any pause of a run with every optional
    /// subsystem on, capture → restore → capture is byte-identical, and
    /// the resumed run ends with the straight run's report and
    /// observability exports. The run's labels need escaping or look
    /// like numbers, so a restore that re-types a value (`"007"` read
    /// back as the number 7) or unescapes it wrongly fails here.
    #[test]
    fn any_pause_round_trips_and_resumes_like_the_straight_run(
        seed in any::<u64>(),
        pause_ms in 1u64..3_600_000,
    ) {
        let mut straight = common::every_subsystem_sim(seed);
        straight.run_until(SimTime::from_millis(pause_ms));
        let snapshot = straight.checkpoint();
        let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), &snapshot)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(
            resumed.checkpoint().to_bytes() == snapshot.to_bytes(),
            "the recapture differs from the capture"
        );
        straight.run();
        resumed.run();
        prop_assert_eq!(report_to_json(&resumed.report()), report_to_json(&straight.report()));
        let exports = ["span JSONL", "metrics JSON", "audit JSONL", "Chrome trace"];
        let (got, want) = (common::obs_exports(&resumed), common::obs_exports(&straight));
        for (name, (got, want)) in exports.iter().zip(got.iter().zip(&want)) {
            prop_assert!(got == want, "the resumed {} differs from the straight run's", name);
        }
    }
}

/// One hostile edit of a checkpoint body. Positions are raw draws,
/// reduced modulo the body's lines, a line's bytes or its fields.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flips one bit of one byte.
    FlipBit(u64, u8),
    /// Cuts a line short.
    Truncate(u64, u64),
    /// Writes a line twice.
    Duplicate(u64),
    /// Drops a line.
    Delete(u64),
    /// Swaps two fields of a line.
    SwapFields(u64, u64, u64),
    /// Appends a field to a line.
    ExtraField(u64, u64),
    /// Replaces a field of a line with a hostile value.
    Replace(u64, u64, u64),
}

/// Field values that sit on a boundary of some reader.
const HOSTILE: [&str; 10] = [
    "",
    "0",
    "-1",
    "18446744073709551615",
    "7ff0000000000000",
    "fff8000000000000",
    "none",
    "%",
    "x",
    "e18446744073709551615",
];

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), 0u8..8).prop_map(|(at, bit)| Mutation::FlipBit(at, bit)),
        (any::<u64>(), any::<u64>()).prop_map(|(line, cut)| Mutation::Truncate(line, cut)),
        any::<u64>().prop_map(Mutation::Duplicate),
        any::<u64>().prop_map(Mutation::Delete),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(line, a, b)| Mutation::SwapFields(line, a, b)),
        (any::<u64>(), any::<u64>()).prop_map(|(line, v)| Mutation::ExtraField(line, v)),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(line, field, v)| Mutation::Replace(line, field, v)),
    ]
}

/// `n` reduced to an index below `len` (which must be nonzero).
fn pick(n: u64, len: usize) -> usize {
    (n % len as u64) as usize
}

impl Mutation {
    fn apply(&self, body: &mut Vec<u8>) {
        if let Mutation::FlipBit(at, bit) = *self {
            if !body.is_empty() {
                let at = pick(at, body.len());
                body[at] ^= 1 << bit;
            }
            return;
        }
        let text = String::from_utf8_lossy(body).into_owned();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        if lines.is_empty() {
            return;
        }
        let field_edit = |line: &mut String, edit: &dyn Fn(&mut Vec<String>)| {
            let Some((key, value)) = line.split_once('=') else {
                return;
            };
            let mut fields: Vec<String> = value.split(',').map(str::to_owned).collect();
            edit(&mut fields);
            *line = format!("{key}={}", fields.join(","));
        };
        match *self {
            Mutation::FlipBit(..) => unreachable!("handled above"),
            Mutation::Truncate(line, cut) => {
                let at = pick(line, lines.len());
                let line = &mut lines[at];
                let mut at = pick(cut, line.len() + 1);
                while !line.is_char_boundary(at) {
                    at -= 1;
                }
                line.truncate(at);
            }
            Mutation::Duplicate(line) => {
                let at = pick(line, lines.len());
                lines.insert(at, lines[at].clone());
            }
            Mutation::Delete(line) => {
                lines.remove(pick(line, lines.len()));
            }
            Mutation::SwapFields(line, a, b) => {
                let at = pick(line, lines.len());
                field_edit(&mut lines[at], &|f| {
                    let (a, b) = (pick(a, f.len()), pick(b, f.len()));
                    f.swap(a, b);
                });
            }
            Mutation::ExtraField(line, v) => {
                let at = pick(line, lines.len());
                field_edit(&mut lines[at], &|f| {
                    f.push(HOSTILE[pick(v, HOSTILE.len())].to_owned())
                });
            }
            Mutation::Replace(line, field, v) => {
                let at = pick(line, lines.len());
                field_edit(&mut lines[at], &|f| {
                    let field = pick(field, f.len());
                    f[field] = HOSTILE[pick(v, HOSTILE.len())].to_owned();
                });
            }
        }
        *body = (lines.join("\n") + "\n").into_bytes();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile bytes under a valid envelope: mutated bodies of a real
    /// capture, re-checksummed, decode and restore to a value or a typed
    /// error, never a panic.
    #[test]
    fn mutated_bodies_restore_or_fail_typed(
        pause_s in 60u64..3_600,
        mutations in prop::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut sim = common::every_subsystem_sim(7);
        sim.run_until(SimTime::from_secs(pause_s));
        let bytes = sim.checkpoint().to_bytes();
        let header = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(2)
            .map(|(i, _)| i + 1)
            .expect("a three-line envelope");
        let mut body = bytes[header..].to_vec();
        for m in &mutations {
            m.apply(&mut body);
        }
        let mut envelope = format!(
            "{}\nlen={}\nsum={:016x}\n",
            simty::sim::checkpoint::MAGIC,
            body.len(),
            simty::sim::codec::fnv1a64(&body)
        )
        .into_bytes();
        envelope.extend_from_slice(&body);
        if let Ok(ckpt) = Checkpoint::from_bytes(&envelope) {
            let _ = Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt);
        }
    }
}
