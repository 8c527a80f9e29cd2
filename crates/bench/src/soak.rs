//! Soak campaign: long-horizon endurance with reboots and checkpoint
//! corruption.
//!
//! The chaos campaign ([`crate::chaos`]) asks whether the
//! perceptible-window guarantee survives a hostile device; this module
//! asks whether it survives *time* — multi-day connected-standby
//! horizons laced with device reboots — and whether the
//! crash-consistent checkpoint subsystem actually earns its keep: every
//! cell runs straight through with periodic captures, then re-runs from
//! a snapshot (optionally after corrupting the newest snapshots on disk
//! to force the last-good fallback) and asserts the resumed run is
//! byte-identical in trace and report. Results serialize to the
//! `simty-bench-soak/v1` document (`BENCH_soak.json`).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use simty::core::{SimDuration, SimTime};
use simty::obs::json_f64;
use simty::sim::codec::record;
use simty::sim::{CheckpointStore, OnlineWatchdogConfig, RebootPlan, SimConfig, SimReport};

use crate::campaign::{
    self, profiles, sum, Campaign, CampaignOptions, CampaignResults, CampaignSpec, Drill,
};
use crate::json::{json_object, json_pairs};

/// A named endurance adversary: how the device dies and how its
/// snapshots rot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakProfile {
    /// No reboots: the control cell. Resumes from a mid-run snapshot.
    Steady,
    /// One reboot at 45% of the horizon (5-minute outage).
    SingleReboot,
    /// Periodic reboots, roughly one per fifth of the horizon.
    RebootStorm,
    /// A reboot plus a bit-flipped newest snapshot: restore must detect
    /// the checksum mismatch and fall back to the previous good one.
    BitFlip,
    /// Periodic reboots plus a truncated newest snapshot *and* a
    /// stale-version second-newest: restore must skip both.
    TornStale,
}

profiles!(SoakProfile, "soak" {
    Steady = "steady",
    SingleReboot = "single-reboot",
    RebootStorm = "reboot-storm",
    BitFlip = "bitflip",
    TornStale = "torn-stale",
});

impl SoakProfile {
    /// The profile's reboot schedule for a run of `duration`. Outages
    /// are 5 minutes — longer than the shortest catalogue alarm period,
    /// so every reboot strands overdue entries for boot catch-up.
    pub fn reboots(self, seed: u64, duration: SimDuration) -> RebootPlan {
        let outage = SimDuration::from_secs(310);
        let plan = RebootPlan::new(seed);
        match self {
            SoakProfile::Steady => plan,
            SoakProfile::SingleReboot | SoakProfile::BitFlip => plan.with_reboot(
                SimTime::ZERO + SimDuration::from_millis(duration.as_millis() * 45 / 100),
                outage,
            ),
            SoakProfile::RebootStorm | SoakProfile::TornStale => plan.with_periodic(
                SimDuration::from_millis(duration.as_millis() / 5),
                SimDuration::from_mins(7),
                outage,
                duration,
            ),
        }
    }

    /// How many of the newest on-disk snapshots the profile corrupts
    /// before the recovery drill.
    pub fn corrupted(self) -> usize {
        match self {
            SoakProfile::Steady | SoakProfile::SingleReboot | SoakProfile::RebootStorm => 0,
            SoakProfile::BitFlip => 1,
            SoakProfile::TornStale => 2,
        }
    }
}

/// What the recovery drill observed for one cell, alongside its
/// straight-through report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoakRecovery {
    /// Snapshots captured during the straight-through run.
    pub checkpoints: u64,
    /// Corrupt snapshots the store skipped to reach a good one.
    pub corrupt_skipped: u64,
    /// The resumed run matched the straight-through run byte-for-byte
    /// (trace CSV and report JSON).
    pub resumed_identical: bool,
    /// The drill restored successfully (always required; `false` marks
    /// an unrecoverable cell).
    pub restore_ok: bool,
    /// Host wall-clock time the drill's resume took (snapshot load,
    /// [`Simulation::restore`](simty::sim::Simulation::restore)'s queue
    /// rebuild, the re-run to the horizon, and the byte comparison).
    /// Never serialized per cell — only the campaign total surfaces, as
    /// the `resume_wall_ms` header of the soak document.
    pub resume_wall: Duration,
}

record!(SoakRecovery in ':': checkpoints, corrupt_skipped, resumed_identical, restore_ok, resume_wall);

impl Drill for SoakRecovery {
    fn cell_fields(rec: Option<&SoakRecovery>) -> Vec<(&'static str, String)> {
        json_pairs!(rec; checkpoints, corrupt_skipped, restore_ok, resumed_identical)
    }

    fn recovered(&self) -> bool {
        self.restore_ok && self.resumed_identical
    }
}

/// The soak campaign: every cell endures a [`SoakProfile`], then proves
/// it can resume from disk.
#[derive(Debug, Clone, Copy)]
pub enum Soak {}

/// One soak cell (soak horizons are typically multi-day).
pub type SoakSpec = CampaignSpec<SoakProfile>;

/// A finished soak campaign.
pub type SoakResults = CampaignResults<Soak>;

/// Numbers the drill directories of this process, so concurrent
/// campaigns and cells never share one.
static NEXT_DRILL_DIR: AtomicU64 = AtomicU64::new(0);

impl Campaign for Soak {
    type Cell = SoakSpec;
    type Drill = SoakRecovery;
    type Aggregate = PolicyEndurance;

    const KIND: &'static str = "soak";

    /// Executes the cell: the straight-through run, then the recovery
    /// drill — persist every snapshot to a drill directory of the cell's
    /// own under the system temp dir, corrupt the newest ones per the
    /// profile, restore from the last good snapshot, run to the end, and
    /// compare bytes. The drill directory is wiped afterwards.
    fn run_cell(spec: &SoakSpec, _options: &CampaignOptions) -> (SimReport, SoakRecovery) {
        let config = SimConfig::new()
            .with_duration(spec.duration)
            .with_checkpoints(SimDuration::from_millis(
                (spec.duration.as_millis() / 8).max(1),
            ))
            .with_online_watchdog(OnlineWatchdogConfig::default())
            .with_invariants();
        let mut straight = spec.simulation(config);
        straight.inject_reboots(&spec.profile.reboots(spec.seed, spec.duration));
        let report = straight.run();
        let expected = campaign::fingerprint(&straight);
        let mut recovery = SoakRecovery {
            checkpoints: straight.checkpoints().len() as u64,
            ..SoakRecovery::default()
        };
        if straight.checkpoints().is_empty() {
            return (report, recovery);
        }

        let dir = std::env::temp_dir().join(format!(
            "simty-soak-{}-{}",
            std::process::id(),
            NEXT_DRILL_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        // A crashed process with the same pid may have left one behind.
        let _ = std::fs::remove_dir_all(&dir);
        let drill = || -> Result<(u64, bool, Duration), Box<dyn std::error::Error>> {
            let mut store = CheckpointStore::open(&dir)?;
            for ckpt in straight.checkpoints() {
                store.save(ckpt)?;
            }
            corrupt_newest(&dir, spec.profile.corrupted())?;
            let resume_started = Instant::now();
            let (snapshot, skipped) = store.load_latest_good()?;
            let identical = campaign::resumes_identically(spec.policy, &snapshot, &expected)?;
            Ok((skipped as u64, identical, resume_started.elapsed()))
        };
        if let Ok((skipped, identical, wall)) = drill() {
            recovery.corrupt_skipped = skipped;
            recovery.resumed_identical = identical;
            recovery.restore_ok = true;
            recovery.resume_wall = wall;
        }
        let _ = std::fs::remove_dir_all(&dir);
        (report, recovery)
    }

    fn aggregate(policy: String, cells: &[(&SimReport, SoakRecovery)]) -> PolicyEndurance {
        let reboots = sum(cells, |(r, _)| r.resilience.reboots);
        let recovery_weighted: f64 = cells
            .iter()
            .map(|(r, _)| r.resilience.mean_recovery_ms * r.resilience.reboots as f64)
            .sum();
        PolicyEndurance {
            policy,
            runs: cells.len() as u64,
            reboots,
            mean_recovery_ms: if reboots > 0 {
                recovery_weighted / reboots as f64
            } else {
                0.0
            },
            catch_up_entries: sum(cells, |(r, _)| r.resilience.catch_up_entries),
            worst_catch_up_delay_ms: cells
                .iter()
                .map(|(r, _)| r.resilience.worst_catch_up_delay_ms)
                .fold(0.0, f64::max),
            invariant_violations: sum(cells, |(r, _)| r.resilience.invariant_violations),
            perceptible_window_misses: sum(cells, |(r, _)| r.resilience.perceptible_window_misses),
            checkpoints: sum(cells, |(_, rec)| rec.checkpoints),
            corrupt_skipped: sum(cells, |(_, rec)| rec.corrupt_skipped),
            all_resumed_identical: cells.iter().all(|(_, rec)| rec.resumed_identical),
            all_restores_ok: cells.iter().all(|(_, rec)| rec.restore_ok),
        }
    }

    fn aggregate_json(agg: &PolicyEndurance) -> String {
        json_object(&json_pairs!(Some(agg);
            policy, runs, reboots, mean_recovery_ms, catch_up_entries, worst_catch_up_delay_ms,
            invariant_violations, perceptible_window_misses, checkpoints, corrupt_skipped,
            all_resumed_identical, all_restores_ok))
    }

    /// The grid document; its per-invocation fields lead with
    /// `resume_wall_ms`, the campaign's total checkpoint-resume
    /// wall-clock.
    fn document(results: &SoakResults) -> String {
        let resume_wall = results.resume_wall().as_secs_f64() * 1_000.0;
        results.grid_document(&format!(",\"resume_wall_ms\":{}", json_f64(resume_wall)))
    }
}

impl SoakResults {
    /// Total host wall-clock the campaign's checkpoint resumes took
    /// (load + restore + re-run), summed across completed cells.
    pub fn resume_wall(&self) -> Duration {
        self.completed().map(|(_, _, rec)| rec.resume_wall).sum()
    }
}

/// Damages the `n` newest snapshots in `dir`, cycling through the
/// corruption taxonomy: the newest gets a truncation, the next a
/// stale-version header, then a bit flip, so multi-file profiles
/// exercise distinct detection paths.
fn corrupt_newest(dir: &Path, n: usize) -> io::Result<()> {
    if n == 0 {
        return Ok(());
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    files.sort();
    for (i, path) in files.iter().rev().take(n).enumerate() {
        let bytes = std::fs::read(path)?;
        let damaged = match i % 3 {
            0 => bytes[..bytes.len() / 2].to_vec(),
            1 => {
                let body = bytes
                    .splitn(2, |&b| b == b'\n')
                    .nth(1)
                    .unwrap_or(&[])
                    .to_vec();
                let mut out = b"simty-checkpoint/v0\n".to_vec();
                out.extend_from_slice(&body);
                out
            }
            _ => {
                let mut out = bytes.clone();
                let pos = out.len() * 4 / 5;
                out[pos] ^= 0x10;
                out
            }
        };
        std::fs::write(path, damaged)?;
    }
    Ok(())
}

/// Per-policy endurance aggregate over every cell the policy survived.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEndurance {
    /// The policy's display name.
    pub policy: String,
    /// How many cells it ran.
    pub runs: u64,
    /// Total reboots endured.
    pub reboots: u64,
    /// Mean outage from kill to boot completion, in ms, weighted by
    /// reboots (the per-reboot recovery time; 0 when nothing rebooted).
    pub mean_recovery_ms: f64,
    /// Queue entries boot catch-up had to deliver late, summed.
    pub catch_up_entries: u64,
    /// Worst catch-up delay at any boot across all cells, in ms.
    pub worst_catch_up_delay_ms: f64,
    /// Total invariant violations (must be zero).
    pub invariant_violations: u64,
    /// Total perceptible-window misses (the headline: must be zero).
    pub perceptible_window_misses: u64,
    /// Snapshots captured across all cells.
    pub checkpoints: u64,
    /// Corrupt snapshots the recovery drills skipped.
    pub corrupt_skipped: u64,
    /// Every cell's resumed run was byte-identical to its
    /// straight-through run.
    pub all_resumed_identical: bool,
    /// Every cell's recovery drill restored successfully.
    pub all_restores_ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{matrix, run_campaign, Cell, Profile};
    use crate::supervisor::CellStatus;
    use simty::experiments::{PolicyKind, Scenario};
    use simty::sim::codec;

    fn tiny(profile: SoakProfile, policy: PolicyKind) -> SoakSpec {
        SoakSpec {
            policy,
            scenario: Scenario::Light,
            profile,
            seed: 1,
            duration: SimDuration::from_hours(2),
        }
    }

    fn run_soak(specs: &[SoakSpec], threads: usize) -> SoakResults {
        run_campaign::<Soak>(specs, &CampaignOptions::with_threads(threads)).expect("no journal")
    }

    #[test]
    fn profile_names_round_trip() {
        for &p in SoakProfile::ALL {
            assert_eq!(SoakProfile::parse(p.name()), Some(p));
        }
        assert_eq!(SoakProfile::parse("bogus"), None);
    }

    #[test]
    fn steady_cell_resumes_identically_with_no_reboots() {
        let (report, rec) = Soak::run_cell(
            &tiny(SoakProfile::Steady, PolicyKind::Simty),
            &CampaignOptions::default(),
        );
        assert_eq!(report.resilience.reboots, 0);
        assert!(rec.checkpoints >= 7, "{rec:?}");
        assert_eq!(rec.corrupt_skipped, 0);
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
    }

    #[test]
    fn corruption_profiles_fall_back_to_the_last_good_snapshot() {
        let (report, rec) = Soak::run_cell(
            &tiny(SoakProfile::BitFlip, PolicyKind::Native),
            &CampaignOptions::default(),
        );
        assert_eq!(report.resilience.reboots, 1);
        assert_eq!(rec.corrupt_skipped, 1, "{rec:?}");
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
        let (_, rec) = Soak::run_cell(
            &tiny(SoakProfile::TornStale, PolicyKind::Simty),
            &CampaignOptions::default(),
        );
        assert_eq!(rec.corrupt_skipped, 2, "{rec:?}");
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
    }

    #[test]
    fn matrix_covers_the_grid_in_order() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            SoakProfile::ALL,
            2,
            SimDuration::from_hours(24),
        );
        assert_eq!(specs.len(), 2 * 5 * 2);
        assert_eq!(specs[0].label(), "NATIVE/light/steady/seed1/86400s");
        assert!(specs
            .last()
            .unwrap()
            .label()
            .starts_with("SIMTY/light/torn-stale"));
    }

    #[test]
    fn campaign_aggregates_and_serializes() {
        let specs = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &[SoakProfile::SingleReboot, SoakProfile::BitFlip],
            1,
            SimDuration::from_hours(2),
        );
        let results = run_soak(&specs, 2);
        assert_eq!(results.runs().len(), 4);
        assert!(results
            .runs()
            .all(|(_, status, report, recovery)| *status == CellStatus::Ok
                && report.is_some()
                && recovery.is_some()));
        assert!(results.poisoned().is_empty());
        assert_eq!(results.journal_skips(), 0);
        let harness = results.harness();
        assert_eq!((harness.cells, harness.ok, harness.poisoned), (4, 4, 0));
        assert!(results.all_recovered());
        assert_eq!(results.total_misses(), 0);
        let aggs = results.aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].policy, "NATIVE");
        assert!(aggs.iter().all(|a| a.reboots == 2));
        assert!(aggs
            .iter()
            .all(|a| a.all_resumed_identical && a.all_restores_ok));
        assert!(aggs.iter().all(|a| a.corrupt_skipped == 1));
        let doc = results.to_json();
        let json = crate::deterministic_view(&doc).unwrap().to_string();
        assert!(json.starts_with("{\"schema\":\"simty-bench-soak/v1\",\"runs\":4"));
        assert!(json.contains("\"profile\":\"bitflip\""));
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"harness\":{\"cells\":4"));
        assert!(json.contains("\"resumed_identical\":true"));
        assert!(
            !json.contains("wall"),
            "soak documents must be deterministic"
        );
        assert!(!json.contains("journal_skips"));
        // The document adds only per-invocation header fields on top of
        // the deterministic body.
        assert!(results.resume_wall() > Duration::ZERO);
        assert_eq!(
            doc.replacen(
                &format!(
                    ",\"resume_wall_ms\":{},\"journal_skips\":0,\"quantiles\":{{\"cell_wall_ms\":{}}}",
                    json_f64(results.resume_wall().as_secs_f64() * 1_000.0),
                    results.cell_wall_quantiles().unwrap().to_json()
                ),
                "",
                1
            ),
            json
        );
    }

    #[test]
    fn recovery_extra_round_trips() {
        let rec = SoakRecovery {
            checkpoints: 9,
            corrupt_skipped: 2,
            resumed_identical: true,
            restore_ok: true,
            resume_wall: Duration::from_millis(1234),
        };
        assert_eq!(codec::encode(&rec), "9:2:1:1:1234");
        assert_eq!(
            codec::decode::<SoakRecovery>("9:2:1:1:1234").ok(),
            Some(rec)
        );
        for hostile in ["", "1:2:3", "a:0:1:1:0"] {
            assert!(codec::decode::<SoakRecovery>(hostile).is_err(), "{hostile}");
        }
    }

    #[test]
    fn parallel_and_sequential_campaigns_are_byte_identical() {
        let specs = matrix(
            &[PolicyKind::Simty],
            &[Scenario::Light],
            &[SoakProfile::SingleReboot],
            2,
            SimDuration::from_hours(1),
        );
        let view = |threads| crate::deterministic_view(&run_soak(&specs, threads).to_json());
        assert_eq!(view(1).unwrap(), view(4).unwrap());
    }

    #[test]
    fn concurrent_campaigns_keep_their_own_snapshots() {
        // A short and a long campaign start together, round after round:
        // the short one finishes while the long one is still drilling, so
        // any snapshot directory the two share is wiped mid-drill.
        let short = matrix(
            &[PolicyKind::Native],
            &[Scenario::Light],
            &[SoakProfile::Steady],
            1,
            SimDuration::from_hours(1),
        );
        let long = matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &[SoakProfile::BitFlip, SoakProfile::TornStale],
            2,
            SimDuration::from_hours(2),
        );
        for round in 0..20 {
            let start = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|scope| {
                let a = scope.spawn(|| {
                    start.wait();
                    run_soak(&short, 1).all_recovered()
                });
                let b = scope.spawn(|| {
                    start.wait();
                    run_soak(&long, 2).all_recovered()
                });
                (
                    a.join().expect("short campaign"),
                    b.join().expect("long campaign"),
                )
            });
            assert!(
                a && b,
                "round {round}: a concurrent campaign lost its snapshots"
            );
        }
    }
}
