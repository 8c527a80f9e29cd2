//! The `simty-campaign/v1` journal: crash-tolerant campaign resume.
//!
//! A campaign (sweep, chaos, soak, storm or fleet) appends one
//! checksummed record to `<dir>/campaign.journal` for every cell that
//! **completes** — the cell's status (`ok`/`retried:<n>`), its full
//! [`SimReport`] as a [`to_record`](SimReport::to_record) line, and the
//! campaign-specific extra payload (e.g. soak's recovery digest). On
//! `--resume <dir>` the journal is replayed: completed cells are
//! restored instead of re-run, poisoned cells (never journaled) and the
//! torn tail of an interrupted append are re-run, and the final
//! document comes out byte-identical to an uninterrupted campaign.
//!
//! The envelope reuses the checkpoint's line dialect from
//! [`simty::sim::codec`]: line-oriented text and percent-escaped
//! fields. Each record keeps its FNV-1a-64 checksum ([`fnv1a64`]). The
//! checkpoint's `v2` envelope moved its body to the word-wise
//! [`codec::wordsum64`] because a body is hundreds of kilobytes; a
//! record is one line, where the byte-serial hash costs little. Layout:
//!
//! ```text
//! simty-campaign/v1
//! meta=<kind>,<cells>,<grid-digest>,<sum>
//! cell=<index>,<status>,<report-record>,<extra>,<sum>
//! ...
//! ```
//!
//! `grid-digest` ([`grid_digest`]) covers the cell labels and, for a
//! campaign whose cells depend on more than their labels (a fleet's
//! population, an uninstrumented sweep), that identity too, so a journal
//! can never be replayed against a *different* grid — that is a hard
//! [`JournalError::Mismatch`], not a silent wrong answer. Each line's
//! `<sum>` covers everything before it; a record that fails its checksum
//! (a torn append) or does not decode ends the replay, and the file is
//! truncated back to the last valid record before appending resumes.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use simty::sim::codec::{self, fnv1a64, record, Cursor, Field, Parser, Put};
use simty::sim::{CheckpointError, RealVfs, SimReport, Vfs};

use crate::supervisor::CellStatus;

/// The journal file name inside a campaign directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

const MAGIC: &str = "simty-campaign/v1";

/// Why a journal could not be opened or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The journal belongs to a different campaign: wrong magic, a
    /// corrupt meta line, or a different kind/grid than the one being
    /// resumed.
    Mismatch {
        /// The journal path.
        path: PathBuf,
        /// What disagreed.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "campaign journal I/O error: {e}"),
            JournalError::Mismatch { path, reason } => {
                write!(
                    f,
                    "campaign journal `{}` does not match this campaign: {reason}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One replayed record: a cell that completed in a previous invocation.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The cell's enqueue index.
    pub index: usize,
    /// Its recorded status (`Ok` or `Retried`; poisoned cells are never
    /// journaled).
    pub status: CellStatus,
    /// The cell's report, decoded from the journaled record.
    pub report: SimReport,
    /// The campaign-specific payload journaled alongside the report
    /// (empty when the cell had none).
    pub extra: String,
}

record!(JournalEntry: index, status, report, extra);

/// The digest that pins a journal to one grid: FNV-1a-64 of the cell
/// labels joined by newlines (labels cannot contain newlines), then,
/// when the campaign has one, a blank line and its `identity` —
/// whatever beyond the labels decides a cell's bytes.
#[must_use]
pub fn grid_digest(labels: &[String], identity: &str) -> u64 {
    let mut grid = labels.join("\n");
    if !identity.is_empty() {
        grid = format!("{grid}\n\n{identity}");
    }
    fnv1a64(grid.as_bytes())
}

/// `body` and its checksum, as one line.
fn checked_line(body: String) -> String {
    let sum = fnv1a64(body.as_bytes());
    format!("{body},{sum:016x}")
}

/// The journalable statuses, as their document tokens.
impl Field for CellStatus {
    fn put(&self, w: &mut Put<'_>) {
        w.raw(&self.token());
    }

    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let raw = r.raw()?;
        CellStatus::from_token(raw).ok_or_else(|| r.err(format!("invalid cell status `{raw}`")))
    }
}

/// The body of a checksummed line.
fn checked_body(line: &str) -> Result<&str, CheckpointError> {
    let (body, sum) = line.rsplit_once(',').unwrap_or(("", line));
    let actual = fnv1a64(body.as_bytes());
    match u64::from_str_radix(sum, 16) {
        Ok(expected) if sum.len() == 16 && expected == actual => Ok(body),
        Ok(expected) if sum.len() == 16 => {
            Err(CheckpointError::ChecksumMismatch { expected, actual })
        }
        _ => Err(CheckpointError::Malformed {
            line: 1,
            message: format!("invalid checksum `{sum}`"),
        }),
    }
}

/// Reads one checksummed `cell=` line.
///
/// # Errors
///
/// [`CheckpointError::ChecksumMismatch`] when the line fails its
/// checksum (a torn append), [`CheckpointError::Malformed`] when it has
/// none or its record does not decode.
pub(crate) fn parse_cell(line: &str) -> Result<JournalEntry, CheckpointError> {
    Parser::new(checked_body(line)?).take("cell")
}

/// What [`CampaignJournal::open`] replayed from an existing journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid completed-cell records, in journal order.
    pub entries: Vec<JournalEntry>,
    /// Bytes of torn/corrupt tail that were dropped (those cells simply
    /// re-run).
    pub dropped_bytes: u64,
}

/// An append-only handle on a campaign's journal.
///
/// Every host-I/O operation goes through a [`Vfs`], so the fault
/// injection that exercises the checkpoint path ([`simty::sim::FaultVfs`])
/// can also kill journal appends mid-flight. Records are appended with
/// append → fsync, so every record the journal acknowledges survives a
/// crash; the atomic unit is one line, and a torn final line is dropped
/// (and re-run) on replay.
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    // Serializes appends: `record` is called from worker threads.
    write: Mutex<()>,
}

impl CampaignJournal {
    /// Opens (or creates) the journal for a campaign of `kind` over the
    /// given cell `labels`, replaying any completed cells. I/O goes
    /// through the real filesystem.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when an existing journal belongs to a
    /// different campaign kind or grid; [`JournalError::Io`] on
    /// filesystem failure.
    pub fn open(
        dir: &Path,
        kind: &str,
        labels: &[String],
    ) -> Result<(CampaignJournal, Replay), JournalError> {
        CampaignJournal::open_with(dir, kind, labels, "", |_| true, Arc::new(RealVfs))
    }

    /// [`open`](CampaignJournal::open) for a grid whose cells' bytes
    /// depend on more than their labels, which `identity` names (see
    /// [`grid_digest`]), and whose cells' `extra` payloads `valid_extra`
    /// checks — a record it rejects ends the replay, as a torn one does —
    /// with an explicit [`Vfs`] so tests can inject ENOSPC/short-write
    /// faults into journal I/O.
    ///
    /// # Errors
    ///
    /// As for [`open`](CampaignJournal::open).
    pub fn open_with(
        dir: &Path,
        kind: &str,
        labels: &[String],
        identity: &str,
        valid_extra: fn(&str) -> bool,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(CampaignJournal, Replay), JournalError> {
        vfs.create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let text = match vfs.read(&path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };

        let expected_meta = checked_line(format!(
            "meta={},{},{:016x}",
            codec::esc(kind),
            labels.len(),
            grid_digest(labels, identity)
        ));
        let mut replay = Replay::default();
        if text.is_empty() {
            vfs.append(&path, format!("{MAGIC}\n{expected_meta}\n").as_bytes())?;
            vfs.sync_file(&path)?;
        } else {
            let mut lines = text.split_inclusive('\n');
            let (magic, meta) = (
                lines.next().unwrap_or_default(),
                lines.next().unwrap_or_default(),
            );
            let mut valid_end = magic.len() + meta.len();
            let (magic, meta) = (magic.trim_end_matches('\n'), meta.trim_end_matches('\n'));
            let reason = if magic != MAGIC {
                Some(format!("bad magic `{magic}` (expected `{MAGIC}`)"))
            } else if checked_body(meta).is_err() {
                Some("corrupt or missing meta line".to_owned())
            } else {
                (meta != expected_meta).then(|| {
                    format!(
                        "journaled campaign is `{meta}`, this campaign is `{expected_meta}` \
                         (different kind or grid)"
                    )
                })
            };
            if let Some(reason) = reason {
                return Err(JournalError::Mismatch { path, reason });
            }
            // Replay records until the first invalid line (a torn or
            // undecodable append); truncate the tail so appends restart
            // cleanly.
            for line in lines {
                let Some(Ok(entry)) = line.strip_suffix('\n').map(parse_cell) else {
                    break;
                };
                if !valid_extra(&entry.extra) {
                    break;
                }
                replay.entries.push(entry);
                valid_end += line.len();
            }
            replay.dropped_bytes = (text.len() - valid_end) as u64;
            if replay.dropped_bytes > 0 {
                vfs.truncate(&path, valid_end as u64)?;
                vfs.sync_file(&path)?;
            }
        }
        Ok((
            CampaignJournal {
                path,
                vfs,
                write: Mutex::new(()),
            },
            replay,
        ))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one completed cell with its encoded drill payload
    /// `extra` (empty for none). Poisoned cells must not be journaled
    /// (they are re-run on resume); attempting to is a logic error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if `status` is poisoned.
    pub fn record(
        &self,
        index: usize,
        status: &CellStatus,
        report: &SimReport,
        extra: &str,
    ) -> io::Result<()> {
        assert!(
            !status.is_poisoned(),
            "poisoned cells are re-run on resume, never journaled"
        );
        let mut body = String::new();
        let record = JournalEntry {
            index,
            status: status.clone(),
            report: report.clone(),
            extra: extra.to_owned(),
        };
        codec::put(&mut body, "cell", &record);
        body.pop(); // the checksum ends the line
        let mut line = checked_line(body);
        line.push('\n');
        let _guard = self.write.lock().expect("journal write lock");
        self.vfs.append(&self.path, line.as_bytes())?;
        self.vfs.sync_file(&self.path)
    }
}

/// Rewrites every `cell=` record of the journal in `dir` through `edit`
/// and re-checksums it: a forged journal whose records each pass the
/// per-record checks.
#[cfg(test)]
pub(crate) fn forge_records(dir: &Path, edit: impl Fn(&mut JournalEntry)) {
    let path = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let forged: String = text
        .lines()
        .map(|line| match parse_cell(line) {
            Ok(mut entry) => {
                edit(&mut entry);
                let body = format!("cell={}", codec::encode(&entry));
                format!("{body},{:016x}\n", fnv1a64(body.as_bytes()))
            }
            Err(_) => format!("{line}\n"),
        })
        .collect();
    std::fs::write(&path, forged).unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty::core::SimDuration;
    use simty::experiments::{PolicyKind, RunSpec, Scenario};
    use simty::sim::FaultVfs;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simty-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn labels() -> Vec<String> {
        vec![
            "cell-a".to_owned(),
            "cell-b".to_owned(),
            "cell-c".to_owned(),
        ]
    }

    fn sample_report() -> SimReport {
        RunSpec::paper(PolicyKind::Native, Scenario::Light, 1)
            .with_duration(SimDuration::from_mins(1))
            .run()
    }

    #[test]
    fn fresh_journal_replays_nothing() {
        let dir = scratch("fresh");
        let (journal, replay) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
        assert!(replay.entries.is_empty());
        assert_eq!(replay.dropped_bytes, 0);
        assert!(journal.path().ends_with(JOURNAL_FILE));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_round_trip_through_reopen() {
        let dir = scratch("roundtrip");
        let report = sample_report();
        {
            let (journal, _) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
            journal.record(0, &CellStatus::Ok, &report, "").unwrap();
            journal
                .record(
                    2,
                    &CellStatus::Retried { retries: 1 },
                    &report,
                    "extra,with:reserved\nchars",
                )
                .unwrap();
        }
        let (_, replay) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.entries[0].index, 0);
        assert_eq!(replay.entries[0].status, CellStatus::Ok);
        assert_eq!(replay.entries[0].report, report);
        assert_eq!(replay.entries[0].extra, "");
        assert_eq!(replay.entries[1].index, 2);
        assert_eq!(replay.entries[1].status, CellStatus::Retried { retries: 1 });
        assert_eq!(replay.entries[1].extra, "extra,with:reserved\nchars");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = scratch("torn");
        let report = sample_report();
        let path = {
            let (journal, _) = CampaignJournal::open(&dir, "chaos", &labels()).unwrap();
            journal.record(0, &CellStatus::Ok, &report, "").unwrap();
            journal.record(1, &CellStatus::Ok, &report, "").unwrap();
            journal.path().to_path_buf()
        };
        // Tear the last record mid-line, as a crash mid-append would.
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 17];
        fs::write(&path, torn).unwrap();
        let (_, replay) = CampaignJournal::open(&dir, "chaos", &labels()).unwrap();
        assert_eq!(replay.entries.len(), 1, "torn record must not replay");
        assert!(replay.dropped_bytes > 0);
        // The truncation leaves a cleanly appendable file.
        let (journal, _) = CampaignJournal::open(&dir, "chaos", &labels()).unwrap();
        journal.record(1, &CellStatus::Ok, &report, "").unwrap();
        let (_, replay) = CampaignJournal::open(&dir, "chaos", &labels()).unwrap();
        assert_eq!(replay.entries.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_vfs_append_never_corrupts_resume() {
        // A journal append that dies mid-line (injected ENOSPC) must
        // leave the earlier records durable; the next open drops the
        // torn tail and the cell simply re-runs.
        let dir = scratch("vfs-torn");
        let report = sample_report();
        {
            let (journal, _) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
            journal.record(0, &CellStatus::Ok, &report, "").unwrap();
        }
        {
            let vfs = Arc::new(FaultVfs::new(5).with_enospc(1.0).with_fault_budget(1));
            let (journal, replay) =
                CampaignJournal::open_with(&dir, "sweep", &labels(), "", |_| true, vfs).unwrap();
            assert_eq!(replay.entries.len(), 1);
            let err = journal.record(1, &CellStatus::Ok, &report, "").unwrap_err();
            assert!(err.to_string().contains("ENOSPC"), "{err}");
        }
        let (journal, replay) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
        assert_eq!(replay.entries.len(), 1, "torn record must not replay");
        assert_eq!(replay.entries[0].index, 0);
        assert!(replay.dropped_bytes > 0, "torn tail should be dropped");
        // The truncated journal accepts the re-run's record cleanly.
        journal.record(1, &CellStatus::Ok, &report, "").unwrap();
        let (_, replay) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
        assert_eq!(replay.entries.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_ends_replay() {
        let dir = scratch("corrupt");
        let report = sample_report();
        let path = {
            let (journal, _) = CampaignJournal::open(&dir, "soak", &labels()).unwrap();
            journal.record(0, &CellStatus::Ok, &report, "").unwrap();
            journal.record(1, &CellStatus::Ok, &report, "").unwrap();
            journal.path().to_path_buf()
        };
        // Flip a byte inside the first record's payload.
        let mut bytes = fs::read(&path).unwrap();
        let magic_and_meta = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        bytes[magic_and_meta + 10] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, replay) = CampaignJournal::open(&dir, "soak", &labels()).unwrap();
        assert!(
            replay.entries.is_empty(),
            "a corrupt record and everything after it must re-run"
        );
        assert!(replay.dropped_bytes > 0);
        // A checksummed record whose payload the campaign rejects ends
        // the replay the same way.
        {
            let (journal, _) = CampaignJournal::open(&dir, "soak", &labels()).unwrap();
            journal.record(0, &CellStatus::Ok, &report, "good").unwrap();
            journal.record(1, &CellStatus::Ok, &report, "bad").unwrap();
            journal.record(2, &CellStatus::Ok, &report, "good").unwrap();
        }
        let vfs = Arc::new(RealVfs);
        let only_good: fn(&str) -> bool = |extra| extra == "good";
        let (_, replay) =
            CampaignJournal::open_with(&dir, "soak", &labels(), "", only_good, vfs).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert!(replay.dropped_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_and_grid_mismatches_are_hard_errors() {
        let dir = scratch("mismatch");
        {
            let (journal, _) = CampaignJournal::open(&dir, "sweep", &labels()).unwrap();
            journal
                .record(0, &CellStatus::Ok, &sample_report(), "")
                .unwrap();
        }
        let err = CampaignJournal::open(&dir, "chaos", &labels()).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch { .. }), "{err}");
        let mut other_grid = labels();
        other_grid.push("cell-d".to_owned());
        let err = CampaignJournal::open(&dir, "sweep", &other_grid).unwrap_err();
        assert!(err.to_string().contains("different kind or grid"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_a_mismatch() {
        let dir = scratch("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), "not-a-journal\n").unwrap();
        let err = CampaignJournal::open(&dir, "sweep", &labels()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_digest_tracks_labels() {
        let a = grid_digest(&labels(), "");
        assert_eq!(a, grid_digest(&labels(), ""));
        let mut reordered = labels();
        reordered.reverse();
        assert_ne!(a, grid_digest(&reordered, ""));
        assert_ne!(a, grid_digest(&labels(), "no-obs"));
    }
}
