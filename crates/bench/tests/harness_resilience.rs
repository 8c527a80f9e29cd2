//! The supervised-campaign guarantees, end to end: a panicking or hung
//! cell is quarantined without killing the campaign, transient panics
//! retry deterministically, and an interrupted journaled campaign
//! resumes to a byte-identical result stream across thread counts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simty::core::time::SimDuration;
use simty::sim::SimReport;
use simty_bench::journal::JOURNAL_FILE;
use simty_bench::{
    deterministic_view, run_campaign, Campaign, CampaignOptions, CampaignResults, Cell, CellStatus,
    Grid, JournalError, JsonValue, PolicyKind, RunSpec, Scenario, SupervisorConfig,
};

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "simty-harness-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The sweep document's deterministic view: what a resume must restore.
fn view(results: &CampaignResults<Grid>) -> JsonValue {
    deterministic_view(&results.to_json()).expect("a sweep document's view")
}

fn short_spec(policy: PolicyKind, seed: u64) -> RunSpec {
    RunSpec::paper(policy, Scenario::Light, seed).with_duration(SimDuration::from_mins(20))
}

/// A cell of the [`Probes`] campaign: what it does when the kernel runs
/// it.
#[derive(Debug, Clone)]
enum Probe {
    /// Runs the spec, labelled as the sweep labels it.
    Run(Box<RunSpec>),
    /// Panics with this payload on every attempt.
    Panic(&'static str),
    /// Counts its attempts; the first panics transiently, the next runs.
    Flaky(Arc<AtomicUsize>),
    /// Sleeps far past any test deadline.
    Hang,
}

impl Cell for Probe {
    fn label(&self) -> String {
        match self {
            Probe::Run(spec) => spec.label(),
            Probe::Panic(_) => "panicking/cell".to_owned(),
            Probe::Flaky(_) => "flaky/cell".to_owned(),
            Probe::Hang => "hung/cell".to_owned(),
        }
    }

    fn policy(&self) -> PolicyKind {
        match self {
            Probe::Run(spec) => spec.policy,
            _ => PolicyKind::Native,
        }
    }

    fn row(&self) -> Vec<(&'static str, String)> {
        vec![("label", format!("{:?}", self.label()))]
    }
}

/// A probe cell that runs `spec`.
fn healthy(spec: RunSpec) -> Probe {
    Probe::Run(Box::new(spec))
}

/// A campaign of [`Probe`] cells, with no drill and no aggregate.
#[derive(Debug, Clone, Copy)]
enum Probes {}

impl Campaign for Probes {
    type Cell = Probe;
    type Drill = ();
    type Aggregate = ();

    const KIND: &'static str = "probe";

    fn run_cell(probe: &Probe, _options: &CampaignOptions) -> (SimReport, ()) {
        let report = match probe {
            Probe::Run(spec) => spec.run(),
            Probe::Panic(payload) => panic!("{payload}"),
            Probe::Flaky(attempts) => {
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient scratch-volume hiccup");
                }
                short_spec(PolicyKind::Simty, 1).run()
            }
            Probe::Hang => {
                std::thread::sleep(Duration::from_secs(5));
                panic!("unreachable: the watchdog fires first")
            }
        };
        (report, ())
    }

    fn aggregate(_policy: String, _cells: &[(&SimReport, ())]) {}

    fn aggregate_json((): &()) -> String {
        String::new()
    }
}

/// Runs a journal-less probe campaign under `supervisor`.
fn probes(
    cells: &[Probe],
    supervisor: SupervisorConfig,
    threads: usize,
) -> CampaignResults<Probes> {
    let options = CampaignOptions {
        supervisor,
        ..CampaignOptions::with_threads(threads)
    };
    run_campaign::<Probes>(cells, &options).expect("no journal to open")
}

#[test]
fn a_panicking_cell_is_quarantined_and_the_campaign_continues() {
    let cells = [
        healthy(short_spec(PolicyKind::Native, 1)),
        Probe::Panic("synthetic harness failure"),
        healthy(short_spec(PolicyKind::Simty, 1)),
    ];
    let results = probes(&cells, SupervisorConfig::default(), 2);

    let outcomes = results.outcomes();
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes[0].report.is_some(), "healthy cells must complete");
    assert!(
        outcomes[2].report.is_some(),
        "cells after the panic must complete"
    );
    assert!(outcomes[1].report.is_none());
    assert!(outcomes[1].status.is_poisoned());

    let poisoned = results.poisoned();
    assert_eq!(poisoned.len(), 1);
    assert_eq!(poisoned[0].0, "panicking/cell");
    assert!(
        poisoned[0].1.contains("synthetic harness failure"),
        "the panic payload must be captured, got `{}`",
        poisoned[0].1
    );

    let stats = results.harness();
    assert_eq!((stats.cells, stats.ok, stats.poisoned), (3, 2, 1));
    // Non-transient panics are not retried: one attempt, one panic.
    assert_eq!((stats.retries, stats.panics), (0, 1));
}

#[test]
fn transient_panics_retry_and_then_succeed() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let cells = [Probe::Flaky(Arc::clone(&attempts))];
    let results = probes(&cells, SupervisorConfig::default(), 1);

    assert_eq!(attempts.load(Ordering::SeqCst), 2, "exactly one retry");
    let outcomes = results.outcomes();
    assert!(outcomes[0].report.is_some());
    assert!(matches!(
        outcomes[0].status,
        CellStatus::Retried { retries: 1 }
    ));
    let stats = results.harness();
    assert_eq!(
        (stats.retried_cells, stats.retries, stats.panics),
        (1, 1, 1)
    );
    assert_eq!(stats.poisoned, 0);
}

#[test]
fn transient_panics_poison_once_retries_are_exhausted() {
    let supervisor = SupervisorConfig {
        max_retries: 2,
        ..SupervisorConfig::default()
    };
    let results = probes(
        &[Probe::Panic("transient but actually permanent")],
        supervisor,
        1,
    );

    let outcomes = results.outcomes();
    assert!(matches!(
        outcomes[0].status,
        CellStatus::Poisoned {
            retries: 2,
            timed_out: false,
            ..
        }
    ));
    let stats = results.harness();
    assert_eq!((stats.poisoned, stats.retries, stats.panics), (1, 2, 3));
}

#[test]
fn a_hung_cell_is_killed_by_the_deadline_watchdog() {
    let supervisor = SupervisorConfig {
        max_retries: 0,
        deadline: Some(Duration::from_millis(50)),
    };
    let cells = [Probe::Hang, healthy(short_spec(PolicyKind::Native, 1))];
    let results = probes(&cells, supervisor, 2);

    let outcomes = results.outcomes();
    assert!(matches!(
        outcomes[0].status,
        CellStatus::Poisoned {
            timed_out: true,
            ..
        }
    ));
    assert!(outcomes[1].report.is_some(), "the campaign must continue");
    let stats = results.harness();
    assert_eq!((stats.timeouts, stats.poisoned), (1, 1));
}

/// The 2 × 2 sweep grid the resume tests journal.
fn cells() -> Vec<RunSpec> {
    let mut cells = Vec::new();
    for policy in [PolicyKind::Native, PolicyKind::Simty] {
        for seed in 1..=2 {
            cells.push(short_spec(policy, seed));
        }
    }
    cells
}

/// Runs the sweep grid, journaled in `dir` when given.
fn journaled_grid(dir: Option<&std::path::Path>, threads: usize) -> CampaignResults<Grid> {
    let options = CampaignOptions {
        journal_dir: dir.map(std::path::Path::to_path_buf),
        ..CampaignOptions::with_threads(threads)
    };
    run_campaign::<Grid>(&cells(), &options).expect("the journal opens")
}

/// Kill-and-resume: truncate the journal after K cells (exactly what an
/// interrupted invocation leaves behind) and assert the resumed result
/// stream is byte-identical to the straight-through one, on 1 thread
/// and on 3.
#[test]
fn interrupted_campaign_resumes_byte_identical() {
    let expected = view(&journaled_grid(None, 1));

    for threads in [1usize, 3] {
        let dir = unique_dir(&format!("resume-{threads}"));
        let _ = std::fs::remove_dir_all(&dir);

        // First invocation completes everything...
        let full = journaled_grid(Some(&dir), threads);
        assert_eq!(full.journal_skips(), 0);
        assert_eq!(view(&full), expected);

        // ...then "crash" after 2 cells by truncating the journal, plus
        // a torn half-line the replay must drop.
        let journal = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).expect("journal exists");
        let keep: Vec<&str> = text.lines().take(4).collect(); // magic, meta, 2 cells
        assert!(keep.len() == 4, "journal too short: {text}");
        std::fs::write(&journal, format!("{}\ncell=2,ok,torn", keep.join("\n"))).unwrap();

        let resumed = journaled_grid(Some(&dir), threads);
        assert_eq!(
            resumed.journal_skips(),
            2,
            "exactly the journaled cells are restored"
        );
        assert_eq!(
            view(&resumed),
            expected,
            "resume diverged on {threads} thread(s)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_journal_from_a_different_grid_is_rejected() {
    let dir = unique_dir("mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    journaled_grid(Some(&dir), 1);

    // Same kind, different cells: the grid digest disagrees.
    let options = CampaignOptions {
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::with_threads(1)
    };
    match run_campaign::<Grid>(&[short_spec(PolicyKind::Native, 9)], &options) {
        Err(JournalError::Mismatch { reason, .. }) => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected a journal mismatch, got {:?}", other.err()),
    }

    // Different campaign kind over the same cell labels: also rejected.
    let same_labels: Vec<Probe> = cells().into_iter().map(healthy).collect();
    assert!(matches!(
        run_campaign::<Probes>(&same_labels, &options),
        Err(JournalError::Mismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poisoned cells are never journaled: on resume they run again (and
/// may well poison again), while completed neighbours are restored.
#[test]
fn poisoned_cells_rerun_on_resume() {
    let dir = unique_dir("poison-rerun");
    let _ = std::fs::remove_dir_all(&dir);
    let cells = [
        healthy(short_spec(PolicyKind::Native, 1)),
        Probe::Panic("still broken"),
    ];
    let options = CampaignOptions {
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::with_threads(1)
    };
    let campaign = || run_campaign::<Probes>(&cells, &options).expect("the journal opens");
    let first = campaign();
    assert_eq!(first.poisoned().len(), 1);
    assert_eq!(first.journal_skips(), 0);

    let second = campaign();
    assert_eq!(
        second.journal_skips(),
        1,
        "only the healthy cell is restored"
    );
    assert_eq!(
        second.poisoned().len(),
        1,
        "the cursed cell ran (and failed) again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
