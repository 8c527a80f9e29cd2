//! Host-filesystem abstraction with seeded fault injection.
//!
//! The checkpoint subsystem ([`crate::checkpoint`]) promises that
//! [`CheckpointStore::load_latest_good`](crate::CheckpointStore::load_latest_good)
//! always falls back to a valid older snapshot, no matter where a write
//! dies. Until now that promise was only tested against *post-hoc*
//! corruption (bit flips on finished files); this module lets the test
//! suite kill writes **mid-flight** the way a real disk does. Every
//! host-I/O operation the checkpoint path performs goes through the
//! [`Vfs`] trait:
//!
//! * [`RealVfs`] delegates straight to `std::fs` (the production path);
//! * [`FaultVfs`] wraps the real filesystem with a seeded, deterministic
//!   fault schedule — ENOSPC part-way through a write, an EIO on fsync
//!   that throws away the un-synced tail (the page cache that never hit
//!   the platter), short writes, torn renames, and directory-sync
//!   failures;
//! * [`RecordingVfs`] logs the operation sequence so ordering
//!   regressions (e.g. "the parent directory must be fsynced after the
//!   rename") are assertable.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The host-filesystem operations the checkpoint path performs.
///
/// Implementations must be `Send + Sync`: one `Vfs` is shared by every
/// store of a campaign cell, potentially across worker threads.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Reads an entire file.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying I/O error.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path`, creating or truncating it.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying I/O error. An injected
    /// failure may leave a *prefix* of `bytes` on disk, as a real
    /// ENOSPC or crash would.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path`, creating the file if missing. This is
    /// the campaign-journal write path: earlier records must survive a
    /// failed append untouched.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying I/O error. An injected
    /// failure may leave a *prefix of `bytes`* appended after the
    /// existing content — a torn journal record — but never disturbs
    /// bytes that were already durable.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `path` to `len` bytes (used to drop a torn journal
    /// tail on replay).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Forces `path`'s contents to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying I/O error. An injected
    /// failure may truncate the file to the prefix that "reached the
    /// platter".
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying I/O error. An injected
    /// failure may leave `from` in place or lose the new directory
    /// entry entirely.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Forces the directory's entry table to stable storage — the step
    /// that makes a completed rename survive a crash.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying I/O error.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// The entries of `dir` (files only, unordered).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Removes a file, ignoring whether it exists.
    ///
    /// # Errors
    ///
    /// Propagates unexpected I/O errors (not `NotFound`).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

fn real_read_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        out.push(entry?.path());
    }
    Ok(out)
}

fn real_sync_file(path: &Path) -> io::Result<()> {
    fs::File::open(path)?.sync_all()
}

fn real_append(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(bytes)
}

fn real_truncate(path: &Path, len: u64) -> io::Result<()> {
    fs::OpenOptions::new().write(true).open(path)?.set_len(len)
}

fn real_sync_dir(dir: &Path) -> io::Result<()> {
    // Opening a directory read-only and fsyncing it is the portable
    // unix idiom for persisting its entry table.
    fs::File::open(dir)?.sync_all()
}

fn real_remove_file(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The production filesystem: every operation delegates to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        real_append(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        real_truncate(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        real_sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        real_sync_dir(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        real_read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        real_remove_file(path)
    }
}

/// The kinds of fault [`FaultVfs`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A write fails with ENOSPC after a prefix reached the disk.
    Enospc,
    /// A write dies mid-stream (crash/short write): prefix on disk,
    /// `WriteZero` error.
    ShortWrite,
    /// `fsync` fails with EIO and the un-synced tail of the file is
    /// thrown away, as a lost page cache would.
    EioOnSync,
    /// A rename fails: either the temp file stays put, or the new
    /// directory entry is lost after the fact.
    TornRename,
    /// The directory sync after a rename fails with EIO.
    DirSync,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Enospc,
        FaultKind::ShortWrite,
        FaultKind::EioOnSync,
        FaultKind::TornRename,
        FaultKind::DirSync,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::Enospc => 0,
            FaultKind::ShortWrite => 1,
            FaultKind::EioOnSync => 2,
            FaultKind::TornRename => 3,
            FaultKind::DirSync => 4,
        }
    }

    /// The kind's display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite => "short-write",
            FaultKind::EioOnSync => "eio-on-sync",
            FaultKind::TornRename => "torn-rename",
            FaultKind::DirSync => "dir-sync",
        }
    }
}

#[derive(Debug)]
struct FaultState {
    rng: StdRng,
    injected: [u64; FaultKind::ALL.len()],
    budget: Option<u64>,
}

/// A seeded fault-injecting filesystem over the real one.
///
/// Each operation draws from a deterministic RNG stream: same seed,
/// same probabilities, same operation sequence → same faults. An
/// optional budget caps the total number of injected faults, so
/// `with_eio_on_sync(1.0).with_fault_budget(1)` injects exactly one EIO
/// on the first sync and then behaves like [`RealVfs`].
#[derive(Debug)]
pub struct FaultVfs {
    enospc_p: f64,
    short_write_p: f64,
    eio_on_sync_p: f64,
    torn_rename_p: f64,
    dir_sync_p: f64,
    state: Mutex<FaultState>,
}

impl FaultVfs {
    /// A fault-free instance (all probabilities zero) over `seed`.
    pub fn new(seed: u64) -> Self {
        FaultVfs {
            enospc_p: 0.0,
            short_write_p: 0.0,
            eio_on_sync_p: 0.0,
            torn_rename_p: 0.0,
            dir_sync_p: 0.0,
            state: Mutex::new(FaultState {
                rng: StdRng::seed_from_u64(seed),
                injected: [0; FaultKind::ALL.len()],
                budget: None,
            }),
        }
    }

    /// Probability that a write dies with ENOSPC.
    #[must_use]
    pub fn with_enospc(mut self, p: f64) -> Self {
        self.enospc_p = p;
        self
    }

    /// Probability that a write dies mid-stream.
    #[must_use]
    pub fn with_short_writes(mut self, p: f64) -> Self {
        self.short_write_p = p;
        self
    }

    /// Probability that a file sync fails and drops the un-synced tail.
    #[must_use]
    pub fn with_eio_on_sync(mut self, p: f64) -> Self {
        self.eio_on_sync_p = p;
        self
    }

    /// Probability that a rename tears.
    #[must_use]
    pub fn with_torn_renames(mut self, p: f64) -> Self {
        self.torn_rename_p = p;
        self
    }

    /// Probability that a directory sync fails.
    #[must_use]
    pub fn with_dir_sync_errors(mut self, p: f64) -> Self {
        self.dir_sync_p = p;
        self
    }

    /// Caps the total number of injected faults; once spent, every
    /// operation succeeds.
    #[must_use]
    pub fn with_fault_budget(self, n: u64) -> Self {
        self.state.lock().expect("fault vfs state").budget = Some(n);
        self
    }

    /// How many faults of `kind` have been injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.state.lock().expect("fault vfs state").injected[kind.index()]
    }

    /// Total injected faults across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.state
            .lock()
            .expect("fault vfs state")
            .injected
            .iter()
            .sum()
    }

    /// Draws the fault decision for one operation: `Some(fraction)` to
    /// inject (with a unit fraction for prefix sizing), `None` to pass
    /// through. One RNG draw happens whether or not the fault fires, so
    /// the schedule depends only on the operation sequence.
    fn roll(&self, p: f64, kind: FaultKind) -> Option<f64> {
        let mut state = self.state.lock().expect("fault vfs state");
        let draw: f64 = state.rng.gen_range(0.0..1.0);
        if draw >= p || state.budget == Some(0) {
            return None;
        }
        if let Some(budget) = &mut state.budget {
            *budget -= 1;
        }
        state.injected[kind.index()] += 1;
        Some(state.rng.gen_range(0.0..1.0))
    }
}

fn eio(msg: &str) -> io::Error {
    io::Error::other(format!("injected EIO: {msg}"))
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(frac) = self.roll(self.enospc_p, FaultKind::Enospc) {
            let kept = (bytes.len() as f64 * frac) as usize;
            fs::write(path, &bytes[..kept])?;
            return Err(io::Error::other(format!(
                "injected ENOSPC after {kept} of {} bytes",
                bytes.len()
            )));
        }
        if let Some(frac) = self.roll(self.short_write_p, FaultKind::ShortWrite) {
            let kept = (bytes.len() as f64 * frac) as usize;
            fs::write(path, &bytes[..kept])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected short write: {kept} of {} bytes", bytes.len()),
            ));
        }
        fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(frac) = self.roll(self.enospc_p, FaultKind::Enospc) {
            let kept = (bytes.len() as f64 * frac) as usize;
            real_append(path, &bytes[..kept])?;
            return Err(io::Error::other(format!(
                "injected ENOSPC after {kept} of {} appended bytes",
                bytes.len()
            )));
        }
        if let Some(frac) = self.roll(self.short_write_p, FaultKind::ShortWrite) {
            let kept = (bytes.len() as f64 * frac) as usize;
            real_append(path, &bytes[..kept])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected short append: {kept} of {} bytes", bytes.len()),
            ));
        }
        real_append(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        real_truncate(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if let Some(frac) = self.roll(self.eio_on_sync_p, FaultKind::EioOnSync) {
            // The un-synced tail never reached the platter: truncate to
            // the prefix that did.
            if let Ok(meta) = fs::metadata(path) {
                let kept = (meta.len() as f64 * frac) as u64;
                if let Ok(f) = fs::OpenOptions::new().write(true).open(path) {
                    let _ = f.set_len(kept);
                }
            }
            return Err(eio("fsync lost the page cache"));
        }
        real_sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(frac) = self.roll(self.torn_rename_p, FaultKind::TornRename) {
            if frac < 0.5 {
                // The rename never happened; the temp file stays put.
                return Err(eio("rename failed before the directory update"));
            }
            // The rename happened in memory but the crash lost the new
            // directory entry (this is exactly what an unsynced parent
            // directory permits).
            fs::rename(from, to)?;
            fs::remove_file(to)?;
            return Err(eio("rename lost after crash (directory never synced)"));
        }
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.roll(self.dir_sync_p, FaultKind::DirSync).is_some() {
            return Err(eio("directory fsync failed"));
        }
        real_sync_dir(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        real_read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        real_remove_file(path)
    }
}

/// A pass-through [`Vfs`] that records the operation sequence, for
/// ordering assertions (e.g. "`sync_dir` follows the rename").
#[derive(Debug, Default)]
pub struct RecordingVfs {
    ops: Mutex<Vec<String>>,
}

impl RecordingVfs {
    /// An empty recorder over the real filesystem.
    pub fn new() -> Self {
        RecordingVfs::default()
    }

    /// The operations performed so far, in order, as
    /// `"<op> <file-name>"` strings.
    pub fn ops(&self) -> Vec<String> {
        self.ops.lock().expect("recording vfs ops").clone()
    }

    fn log(&self, op: &str, path: &Path) {
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        self.ops
            .lock()
            .expect("recording vfs ops")
            .push(format!("{op} {name}"));
    }
}

impl Vfs for RecordingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.log("read", path);
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("write_file", path);
        fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("append", path);
        real_append(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.log("truncate", path);
        real_truncate(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.log("sync_file", path);
        real_sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.log("rename", to);
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.log("sync_dir", dir);
        real_sync_dir(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        real_read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.log("remove_file", path);
        real_remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simty-vfs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_vfs_round_trips() {
        let dir = scratch("real");
        let path = dir.join("file");
        let vfs = RealVfs;
        vfs.write_file(&path, b"hello").unwrap();
        vfs.sync_file(&path).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let moved = dir.join("moved");
        vfs.rename(&path, &moved).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read_dir(&dir).unwrap(), vec![moved.clone()]);
        vfs.remove_file(&moved).unwrap();
        vfs.remove_file(&moved).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_leaves_only_a_prefix() {
        let dir = scratch("enospc");
        let path = dir.join("file");
        let vfs = FaultVfs::new(7).with_enospc(1.0);
        let err = vfs.write_file(&path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        let on_disk = fs::read(&path).unwrap();
        assert!(on_disk.len() < 10, "full write survived ENOSPC");
        assert!(b"0123456789".starts_with(&on_disk[..]));
        assert_eq!(vfs.injected(FaultKind::Enospc), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_preserves_existing_content() {
        let dir = scratch("append");
        let path = dir.join("journal");
        let vfs = FaultVfs::new(7).with_enospc(1.0);
        real_append(&path, b"durable\n").unwrap();
        let err = vfs.append(&path, b"torn-record\n").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        let on_disk = fs::read(&path).unwrap();
        assert!(
            on_disk.starts_with(b"durable\n"),
            "durable prefix disturbed"
        );
        assert!(on_disk.len() < b"durable\ntorn-record\n".len());
        // Truncating back to the durable prefix recovers cleanly.
        vfs.truncate(&path, 8).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"durable\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eio_on_sync_truncates_the_unsynced_tail() {
        let dir = scratch("eiosync");
        let path = dir.join("file");
        let vfs = FaultVfs::new(3).with_eio_on_sync(1.0);
        vfs.write_file(&path, b"0123456789").unwrap();
        let err = vfs.sync_file(&path).unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        assert!(
            fs::read(&path).unwrap().len() < 10,
            "tail survived the failed fsync"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rename_never_leaves_a_torn_destination() {
        // Across many seeds, both tear modes appear, and the destination
        // either doesn't exist or holds the complete content.
        let dir = scratch("torn");
        let mut src_stayed = 0;
        let mut entry_lost = 0;
        for seed in 0..32 {
            let src = dir.join(format!("src{seed}"));
            let dst = dir.join(format!("dst{seed}"));
            fs::write(&src, b"complete").unwrap();
            let vfs = FaultVfs::new(seed).with_torn_renames(1.0);
            vfs.rename(&src, &dst).unwrap_err();
            match (src.exists(), dst.exists()) {
                (true, false) => src_stayed += 1,
                (false, false) => entry_lost += 1,
                (s, d) => panic!("unexpected tear state: src={s} dst={d}"),
            }
        }
        assert!(
            src_stayed > 0 && entry_lost > 0,
            "{src_stayed}/{entry_lost}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_budget_limits_injections_deterministically() {
        let dir = scratch("budget");
        let vfs = FaultVfs::new(11).with_eio_on_sync(1.0).with_fault_budget(1);
        let path = dir.join("file");
        vfs.write_file(&path, b"abc").unwrap();
        assert!(vfs.sync_file(&path).is_err());
        vfs.write_file(&path, b"abc").unwrap();
        assert!(vfs.sync_file(&path).is_ok(), "budget was not enforced");
        assert_eq!(vfs.total_injected(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = |seed: u64| {
            let vfs = FaultVfs::new(seed).with_enospc(0.5);
            let dir = scratch(&format!("sched{seed}"));
            let mut outcomes = Vec::new();
            for i in 0..16 {
                outcomes.push(vfs.write_file(&dir.join(format!("f{i}")), b"x").is_ok());
            }
            let _ = fs::remove_dir_all(&dir);
            outcomes
        };
        assert_eq!(plan(42), plan(42));
        assert_ne!(plan(42), plan(43), "schedules should vary by seed");
    }

    #[test]
    fn recording_vfs_captures_order() {
        let dir = scratch("record");
        let vfs = RecordingVfs::new();
        let a = dir.join("a");
        vfs.write_file(&a, b"x").unwrap();
        vfs.sync_file(&a).unwrap();
        vfs.rename(&a, &dir.join("b")).unwrap();
        vfs.sync_dir(&dir).unwrap();
        let ops = vfs.ops();
        assert_eq!(ops[0], "write_file a");
        assert_eq!(ops[1], "sync_file a");
        assert_eq!(ops[2], "rename b");
        assert!(ops[3].starts_with("sync_dir "));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FaultKind::ALL.len());
    }
}
