//! Campaign journals written by an earlier build replay under this one.
//!
//! `tests/fixtures/journals/<kind>.journal` holds one completed cell of a
//! `standby <kind> --resume` run for each of sweep, chaos, soak and
//! storm, written before the bench-side payloads moved onto the shared
//! record layer. Reopening each over the same grid must restore the same
//! entry: index, status, report record and drill payload.
//! `sweep-no-obs.journal` is the same sweep cell run with `--no-obs`,
//! written before the sweep joined the campaign kernel; both sweep
//! journals must also resume through that kernel.

use simty::core::SimDuration;
use simty::sim::codec::fnv1a64;
use simty_bench::{
    run_campaign, CampaignJournal, CampaignOptions, CellStatus, Grid, PolicyKind, RunSpec, Scenario,
};

/// `(kind, the grid's one cell label, report record digest, extra)`.
const JOURNALS: [(&str, &str, u64, Option<&str>); 4] = [
    (
        "sweep",
        "NATIVE/light/seed1/b0.96/3600s",
        0x91e2_31da_ae7e_548a,
        None,
    ),
    (
        "chaos",
        "SIMTY/light/mixed/seed1/3600s",
        0x122a_fc02_2b61_ff15,
        None,
    ),
    (
        "soak",
        "SIMTY/light/bitflip/seed1/7200s",
        0x2f65_0312_a528_44ef,
        Some("8:1:1:1:2"),
    ),
    (
        "storm",
        "NATIVE/light/storm-and-drain/seed1/3600s",
        0x504c_1406_1fa2_5eb8,
        Some("8:1:1"),
    ),
];

#[test]
fn journals_from_an_earlier_build_replay_into_the_same_entries() {
    let dir = std::env::temp_dir().join(format!("simty-journal-fixture-{}", std::process::id()));
    for (kind, label, report_digest, extra) in JOURNALS {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/journals/{kind}.journal"));
        let bytes = std::fs::read(&fixture).expect("fixture journal");
        let cell_dir = dir.join(kind);
        std::fs::create_dir_all(&cell_dir).expect("scratch directory");
        std::fs::write(cell_dir.join(simty_bench::journal::JOURNAL_FILE), &bytes)
            .expect("copy fixture");
        let (_, replay) = CampaignJournal::open(&cell_dir, kind, &[label.to_owned()])
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(replay.dropped_bytes, 0, "{kind}");
        let [entry] = &replay.entries[..] else {
            panic!("{kind}: {} entries", replay.entries.len());
        };
        assert_eq!(entry.index, 0, "{kind}");
        assert_eq!(entry.status, CellStatus::Ok, "{kind}");
        let digest = fnv1a64(entry.report.to_record().as_bytes());
        assert_eq!(digest, report_digest, "{kind}: {digest:#018x}");
        assert_eq!(entry.extra, extra.unwrap_or_default(), "{kind}");
        // Replay leaves the journal as it was.
        let after = std::fs::read(cell_dir.join(simty_bench::journal::JOURNAL_FILE)).unwrap();
        assert_eq!(after, bytes, "{kind}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(fixture, whether the grid runs uninstrumented, report record
/// digest)` of the sweep journals.
const SWEEP_JOURNALS: [(&str, bool, u64); 2] = [
    ("sweep", false, 0x91e2_31da_ae7e_548a),
    ("sweep-no-obs", true, 0x3fb9_0f63_01e8_ee23),
];

/// A sweep journal written before the sweep ran on the campaign kernel
/// reopens through it: the grid's identity (`no-obs` or none) matches the
/// journal's meta line, and the one cell is restored, not re-run.
#[test]
fn sweep_journals_resume_through_the_campaign_kernel() {
    let dir = std::env::temp_dir().join(format!("simty-sweep-fixture-{}", std::process::id()));
    for (fixture, no_obs, report_digest) in SWEEP_JOURNALS {
        let journal = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/journals/{fixture}.journal"));
        let cell_dir = dir.join(fixture);
        std::fs::create_dir_all(&cell_dir).expect("scratch directory");
        std::fs::copy(&journal, cell_dir.join(simty_bench::journal::JOURNAL_FILE))
            .expect("copy fixture");
        let spec = RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
            .with_duration(SimDuration::from_hours(1));
        let spec = if no_obs { spec.with_no_obs() } else { spec };
        let options = CampaignOptions {
            journal_dir: Some(cell_dir),
            ..CampaignOptions::with_threads(1)
        };
        let results =
            run_campaign::<Grid>(&[spec], &options).unwrap_or_else(|e| panic!("{fixture}: {e}"));
        assert_eq!(results.journal_skips(), 1, "{fixture}");
        let report = results.outcomes()[0]
            .report
            .as_ref()
            .expect("restored cell");
        let digest = fnv1a64(report.to_record().as_bytes());
        assert_eq!(digest, report_digest, "{fixture}: {digest:#018x}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
