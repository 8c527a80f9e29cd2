//! The fleet-campaign guarantees, end to end: every streamed shard
//! aggregate equals the fold of independently simulated devices over
//! arbitrary populations, and a campaign killed mid-flight by a
//! poisoned shard resumes from its journal to a document byte-identical
//! to an uninterrupted run, on any thread count.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use simty::core::time::SimDuration;
use simty::sim::SimReport;
use simty_bench::fleet::{fold_reports, run_device};
use simty_bench::{
    run_fleet_with, CampaignOptions, CampaignResults, Fleet, FleetConfig, PolicyKind,
};

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simty-fleet-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_fleet(devices: u64, shards: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(devices);
    config.shards = shards;
    config.policies = vec![PolicyKind::Simty];
    config.seed = seed;
    config.duration = SimDuration::from_mins(5);
    config.checkpoint_stride = 2;
    config
}

/// Every shard as the executor holds it: label, status token, report
/// record and journaled drill payload. The document folds these per
/// policy, so a swapped or altered shard can cancel out there; compared
/// beside it, no shard can.
fn shards(
    results: &CampaignResults<Fleet>,
) -> Vec<(String, String, Option<String>, Option<String>)> {
    results
        .outcomes()
        .iter()
        .map(|o| {
            let report = o.report.as_ref().map(SimReport::to_record);
            (o.label.clone(), o.status.token(), report, o.extra.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The streaming property behind O(shards) memory: for any
    /// population size, shard count, and fleet seed, each shard's
    /// folded aggregate is bit-identical to re-simulating its devices
    /// one by one and folding the reports outside the harness.
    #[test]
    fn every_shard_aggregate_equals_the_device_fold(
        devices in 1u64..12,
        shards in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let config = small_fleet(devices, shards.min(devices as usize), seed);
        let results =
            run_fleet_with(&config, &CampaignOptions::with_threads(2)).unwrap();
        prop_assert_eq!(results.devices_completed(), devices);
        for (index, spec) in config.specs().iter().enumerate() {
            let folded: Vec<_> = (spec.start..spec.end)
                .map(|d| run_device(&config, spec.policy, d).report)
                .collect();
            let mut expected = fold_reports(&spec.label, folded.iter());
            let shard = results.outcomes()[index].report.as_ref().unwrap();
            // The shard carries its observability registry; the
            // re-fold has none. Everything else must match exactly.
            expected.metrics_json = shard.metrics_json.clone();
            prop_assert_eq!(shard.to_record(), expected.to_record());
        }
    }
}

/// The acceptance scenario: a fleet whose shard 1 is killed by an
/// injected panic journals its surviving shards; re-running over the
/// same journal restores them, re-simulates only the killed shard, and
/// yields a deterministic document byte-identical to an uninterrupted
/// campaign — on one thread and on three.
#[test]
fn killed_campaign_resumes_byte_identical_across_thread_counts() {
    let config = small_fleet(10, 3, 42);
    let reference = run_fleet_with(&config, &CampaignOptions::with_threads(1)).unwrap();

    for threads in [1usize, 3] {
        let dir = unique_dir(&format!("kill-{threads}"));
        let options = CampaignOptions {
            threads,
            journal_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };

        let mut wounded = config.clone();
        wounded.inject_panic = Some(1);
        let first = run_fleet_with(&wounded, &options).unwrap();
        assert_eq!(first.harness().poisoned, 1, "threads={threads}");
        assert!(first.outcomes()[1].report.is_none());
        assert!(first.outcomes()[0].report.is_some());
        assert!(first.outcomes()[2].report.is_some());
        // The surviving shards are journaled, so their mid-range
        // checkpoint markers are gone.
        assert_eq!(markers_under(&dir), 0, "threads={threads}");

        let resumed = run_fleet_with(&config, &options).unwrap();
        assert_eq!(resumed.journal_skips(), 2, "threads={threads}");
        assert_eq!(resumed.harness().poisoned, 0, "threads={threads}");
        assert_eq!(
            resumed.to_json(),
            reference.to_json(),
            "resume must be byte-identical on {threads} thread(s)"
        );
        assert_eq!(shards(&resumed), shards(&reference), "threads={threads}");
        assert_eq!(markers_under(&dir), 0, "threads={threads}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// How many `ckpt-*` snapshot files lie anywhere under `dir`.
fn markers_under(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                markers_under(&path)
            } else {
                usize::from(e.file_name().to_string_lossy().starts_with("ckpt-"))
            }
        })
        .sum()
}

/// A journaled fleet whose shards each write several mid-shard markers
/// leaves none behind once every cell is journaled, on one thread and
/// on three.
#[test]
fn a_journaled_fleet_leaves_no_markers() {
    let config = small_fleet(12, 3, 5);
    for threads in [1usize, 3] {
        let dir = unique_dir(&format!("markers-{threads}"));
        let options = CampaignOptions {
            threads,
            journal_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        let results = run_fleet_with(&config, &options).unwrap();
        assert_eq!(results.devices_completed(), 12);
        assert!(dir.is_dir(), "the journal stays");
        assert_eq!(markers_under(&dir), 0, "threads={threads}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Poisoning is re-injected deterministically: resuming a journaled
/// campaign *with the fault still present* re-poisons the same shard
/// instead of silently healing, and the two wounded documents agree.
#[test]
fn a_still_faulty_resume_re_poisons_the_same_shard() {
    let mut config = small_fleet(8, 4, 7);
    config.inject_panic = Some(2);
    let dir = unique_dir("still-faulty");
    let options = CampaignOptions {
        threads: 2,
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let first = run_fleet_with(&config, &options).unwrap();
    let second = run_fleet_with(&config, &options).unwrap();
    assert_eq!(second.harness().poisoned, 1);
    assert!(second.outcomes()[2].report.is_none());
    assert_eq!(second.journal_skips(), 3);
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(shards(&first), shards(&second));
    std::fs::remove_dir_all(&dir).ok();
}
