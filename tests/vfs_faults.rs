//! Host-I/O fault injection against the checkpoint store.
//!
//! `CheckpointStore::load_latest_good` promises: never return a torn
//! snapshot, and never fail while any validating snapshot exists. The
//! deterministic tests drive each `FaultVfs` error kind through a save
//! individually; the property test throws randomized fault schedules
//! (ENOSPC, EIO-on-fsync, short writes, torn renames, directory-sync
//! failures) at write→load round-trips. A `RecordingVfs` test pins the
//! durability ordering of `write_atomic`: write temp → fsync temp →
//! rename → fsync parent directory.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use simty::prelude::*;
use simty::sim::{Checkpoint, CheckpointError, CheckpointStore, FaultKind, FaultVfs, RecordingVfs};

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "simty-vfs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Checkpoints from one short checkpointed run, captured once: the
/// fault tests only need real snapshots to push through the store.
fn snapshots() -> &'static [Checkpoint] {
    static SNAPSHOTS: OnceLock<Vec<Checkpoint>> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let duration = SimDuration::from_hours(1);
        let config = SimConfig::new()
            .with_duration(duration)
            .with_checkpoints(SimDuration::from_mins(10));
        let mut sim = Simulation::new(Box::new(SimtyPolicy::new()), config);
        sim.register(
            Alarm::builder("Facebook")
                .nominal(SimTime::from_secs(60))
                .repeating_static(SimDuration::from_secs(300))
                .window_fraction(0.5)
                .grace_fraction(0.9)
                .hardware(HardwareComponent::Wifi.into())
                .task_duration(SimDuration::from_secs(2))
                .build()
                .expect("valid alarm"),
        )
        .expect("register");
        sim.register(
            Alarm::builder("WhatsApp")
                .nominal(SimTime::from_secs(90))
                .repeating_dynamic(SimDuration::from_secs(240))
                .window_fraction(0.4)
                .grace_fraction(0.8)
                .hardware(HardwareComponent::Cellular.into())
                .task_duration(SimDuration::from_millis(1_500))
                .build()
                .expect("valid alarm"),
        )
        .expect("register");
        sim.run();
        let snapshots = sim.checkpoints().to_vec();
        assert!(snapshots.len() >= 4, "expected periodic captures");
        snapshots
    })
}

#[test]
fn write_atomic_syncs_the_parent_directory_after_the_rename() {
    let dir = unique_dir("ordering");
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(RecordingVfs::new());
    let mut store = CheckpointStore::open_with(&dir, vfs.clone()).expect("open");
    store.save(&snapshots()[0]).expect("save");

    let ops = vfs.ops();
    let pos = |needle: &str| {
        ops.iter()
            .position(|op| op == needle)
            .unwrap_or_else(|| panic!("missing `{needle}` in {ops:?}"))
    };
    let write = pos("write_file ckpt-000000.tmp");
    let sync_tmp = pos("sync_file ckpt-000000.tmp");
    let rename = pos("rename ckpt-000000");
    let sync_dir = ops
        .iter()
        .position(|op| op.starts_with("sync_dir "))
        .unwrap_or_else(|| panic!("missing directory sync in {ops:?}"));
    assert!(write < sync_tmp, "temp must be written before its fsync");
    assert!(sync_tmp < rename, "temp must be durable before the rename");
    assert!(
        rename < sync_dir,
        "the parent directory must be fsynced AFTER the rename, got {ops:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn single_fault_vfs(kind: FaultKind) -> FaultVfs {
    let vfs = FaultVfs::new(7);
    let vfs = match kind {
        FaultKind::Enospc => vfs.with_enospc(1.0),
        FaultKind::ShortWrite => vfs.with_short_writes(1.0),
        FaultKind::EioOnSync => vfs.with_eio_on_sync(1.0),
        FaultKind::TornRename => vfs.with_torn_renames(1.0),
        FaultKind::DirSync => vfs.with_dir_sync_errors(1.0),
    };
    vfs.with_fault_budget(1)
}

#[test]
fn every_fault_kind_falls_back_to_the_last_good_snapshot() {
    let snaps = snapshots();
    for kind in FaultKind::ALL {
        let dir = unique_dir(&format!("kind-{}", kind.name()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut clean = CheckpointStore::open(&dir).expect("open clean");
            clean.save(&snaps[0]).expect("clean save");
        }
        let faulty = Arc::new(single_fault_vfs(kind));
        let mut store = CheckpointStore::open_with(&dir, faulty.clone()).expect("open faulty");
        let second = store.save(&snaps[1]);
        assert!(
            second.is_err(),
            "{} must surface the injected error",
            kind.name()
        );
        assert_eq!(faulty.injected(kind), 1, "{} must have fired", kind.name());

        let (loaded, _skipped) = store
            .load_latest_good()
            .unwrap_or_else(|e| panic!("{}: no fallback snapshot: {e}", kind.name()));
        if kind == FaultKind::DirSync {
            // The rename itself completed; only its durability is in
            // doubt, so either snapshot is an acceptable recovery.
            assert!(
                loaded == snaps[0] || loaded == snaps[1],
                "dir-sync recovery must be one of the two snapshots"
            );
        } else {
            assert_eq!(
                loaded,
                snaps[0],
                "{}: the torn save must not shadow the good snapshot",
                kind.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_save_never_reuses_its_sequence_slot() {
    let snaps = snapshots();
    let dir = unique_dir("seq");
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(FaultVfs::new(3).with_enospc(1.0).with_fault_budget(1));
    let mut store = CheckpointStore::open_with(&dir, vfs).expect("open");
    assert!(
        store.save(&snaps[0]).is_err(),
        "first save must die of ENOSPC"
    );
    let path = store.save(&snaps[1]).expect("second save is clean");
    // Slot 0 was consumed by the dead write; the good snapshot lands in
    // slot 1 and recovery sees exactly it.
    assert!(path.to_string_lossy().ends_with("ckpt-000001"));
    let (loaded, skipped) = store.load_latest_good().expect("load");
    assert_eq!(loaded, snaps[1]);
    assert_eq!(skipped, 0, "the dead slot leaves no file behind");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any fault schedule: a successful load returns a bit-exact
    /// snapshot no older than the last save that reported success, and
    /// load only fails when no save ever succeeded.
    #[test]
    fn load_latest_good_survives_random_fault_schedules(
        seed in 0u64..10_000,
        enospc in 0.0f64..0.5,
        short in 0.0f64..0.5,
        eio in 0.0f64..0.5,
        torn in 0.0f64..0.5,
        dir_sync in 0.0f64..0.5,
    ) {
        let snaps = snapshots();
        let dir = unique_dir(&format!("prop-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = Arc::new(
            FaultVfs::new(seed)
                .with_enospc(enospc)
                .with_short_writes(short)
                .with_eio_on_sync(eio)
                .with_torn_renames(torn)
                .with_dir_sync_errors(dir_sync),
        );
        let mut store = CheckpointStore::open_with(&dir, vfs).expect("open");
        let mut last_ok: Option<usize> = None;
        for (i, snapshot) in snaps.iter().enumerate() {
            if store.save(snapshot).is_ok() {
                last_ok = Some(i);
            }
        }
        let outcome = store.load_latest_good();
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok((loaded, _skipped)) => {
                let idx = snaps.iter().position(|s| *s == loaded);
                prop_assert!(
                    idx.is_some(),
                    "loaded snapshot is torn: matches no saved checkpoint"
                );
                if let Some(last_ok) = last_ok {
                    prop_assert!(
                        idx.expect("checked above") >= last_ok,
                        "recovered snapshot predates a durably acked save"
                    );
                }
            }
            Err(CheckpointError::NoUsableCheckpoint { .. }) => {
                prop_assert!(
                    last_ok.is_none(),
                    "load failed although a save was acked as durable"
                );
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }
}
