//! The checkpoint reader's verdicts on a thousand hostile bodies, pinned.
//!
//! A seeded generator makes [`MUTANTS`] one-edit mutants of a heavy SIMTY
//! snapshot's body (truncated, duplicated and swapped lines; digit runs
//! replaced by `+5`, `-1`, `007`, 20 digits or nothing; a `\r` before a
//! line's `\n`; an extra or a missing separator; counts past the body or
//! off by one) and re-seals each under a valid `simty-checkpoint/v2`
//! envelope. Each mutant's verdict is one line of
//! `tests/fixtures/reader_verdicts.txt`: `ok <fnv1a64 of the restored
//! run's recaptured body>`, or `err <variant> <line>`. The file was
//! written by the byte-splitting reader the one-pass cursor replaced, so
//! the cursor must accept exactly the bodies that reader accepted, rebuild
//! the same state from them, and fail the others on the same line; and
//! neither build may panic on any of them.
//!
//! `SIMTY_WRITE_READER_GOLDEN=1 cargo test -p simty --test reader_golden`
//! rewrites the file from the reader under test; do that only for a
//! change that means to move a verdict, and say which ones moved.
//!
//! The snapshot carries raw alarm ids, which come from a process-global
//! counter, so this file holds one test: it mints its ids in a fixed
//! order in a process of its own.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};

use simty::apps::WorkloadBuilder;
use simty::core::{SimDuration, SimTime};
use simty::experiments::PolicyKind;
use simty::sim::checkpoint::MAGIC;
use simty::sim::codec::{fnv1a64, wordsum64};
use simty::sim::{Checkpoint, CheckpointError, SimConfig, Simulation};

const GOLDEN: &str = include_str!("fixtures/reader_verdicts.txt");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/reader_verdicts.txt"
);

const MUTANTS: usize = 1_000;

/// Lines whose readers are the restore's hot paths; most edits land on
/// one of them.
const HOT: [&str; 6] = ["os=", "oa=", "d=", "entry=", "alarm=", "ev="];

/// List headers whose count an edit may inflate.
const COUNTS: [&str; 8] = [
    "deliveries=",
    "wakeups=",
    "events=",
    "wakeup_entries=",
    "non_wakeup_entries=",
    "obs_spans=",
    "obs_hists=",
    "obs_audits=",
];

/// What a digit run may become.
const DIGITS: [&str; 5] = ["+5", "-1", "007", "99999999999999999999", ""];

/// The separators an edit may add or remove.
const SEPARATORS: &[u8] = b",;.:=";

/// SplitMix64: a generator pinned here, so the mutants never depend on
/// another crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.below(items.len())]
    }
}

/// A SIMTY heavy run of 3 h paused at 2.5 h, its span ring full.
fn heavy_body() -> String {
    let duration = SimDuration::from_hours(3);
    let workload = WorkloadBuilder::heavy()
        .with_seed(1)
        .with_beta(0.96)
        .with_duration(duration)
        .build();
    let mut sim = Simulation::new(
        PolicyKind::Simty.build(),
        SimConfig::new().with_duration(duration),
    );
    for alarm in workload.alarms {
        sim.register(alarm)
            .expect("workload alarm registers cleanly");
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_mins(150));
    body_of(&sim.checkpoint())
}

/// The body a checkpoint persists: what follows its three envelope lines.
fn body_of(ckpt: &Checkpoint) -> String {
    let bytes = String::from_utf8(ckpt.to_bytes()).expect("utf-8 checkpoint");
    bytes.splitn(4, '\n').nth(3).expect("body").to_owned()
}

/// One mutant: a description of its edit and the edited body.
fn mutant(rng: &mut Rng, lines: &[&str], body_len: usize) -> (String, String) {
    let mut lines: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    let pick_line = |rng: &mut Rng, prefixes: &[&str]| -> usize {
        let prefix = rng.pick(prefixes);
        let matching: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with(prefix))
            .collect();
        match matching.is_empty() {
            true => rng.below(lines.len()),
            false => *rng.pick(&matching),
        }
    };
    let i = if rng.below(4) == 0 {
        rng.below(lines.len())
    } else {
        pick_line(rng, &HOT)
    };
    let key = lines[i].split('=').next().unwrap_or("").to_owned();
    let what = match rng.below(8) {
        0 => {
            let mut cut = rng.below(lines[i].len() + 1);
            while !lines[i].is_char_boundary(cut) {
                cut -= 1;
            }
            lines[i].truncate(cut);
            format!("truncate {i} {key} at {cut}")
        }
        1 => {
            let copy = lines[i].clone();
            lines.insert(i, copy);
            format!("duplicate {i} {key}")
        }
        2 if i + 1 < lines.len() => {
            lines.swap(i, i + 1);
            format!("swap {i} {key}")
        }
        3 | 2 => {
            let runs = digit_runs(&lines[i]);
            if runs.is_empty() {
                return (format!("keep {i} {key}"), lines.join("\n") + "\n");
            }
            let (from, to) = *rng.pick(&runs);
            let with = *rng.pick(&DIGITS);
            lines[i].replace_range(from..to, with);
            format!("digits {i} {key} {from}..{to} `{with}`")
        }
        4 => {
            lines[i].push('\r');
            format!("cr {i} {key}")
        }
        5 | 6 => {
            let seps: Vec<usize> = lines[i]
                .bytes()
                .enumerate()
                .filter(|(_, b)| SEPARATORS.contains(b))
                .map(|(at, _)| at)
                .collect();
            if seps.is_empty() {
                return (format!("keep {i} {key}"), lines.join("\n") + "\n");
            }
            let at = *rng.pick(&seps);
            let sep = char::from(lines[i].as_bytes()[at]);
            if rng.below(2) == 0 {
                lines[i].insert(at, sep);
                format!("extra {i} {key} `{sep}` at {at}")
            } else {
                lines[i].remove(at);
                format!("missing {i} {key} `{sep}` at {at}")
            }
        }
        _ => {
            let i = pick_line(rng, &COUNTS);
            let key = lines[i].split('=').next().unwrap_or("").to_owned();
            let count: u64 = lines[i][key.len() + 1..].parse().unwrap_or(0);
            let with = match rng.below(4) {
                0 => body_len as u64 + 1,
                1 => body_len as u64,
                2 => u64::MAX,
                _ => count + 1,
            };
            lines[i] = format!("{key}={with}");
            format!("count {i} {key} {with}")
        }
    };
    (what, lines.join("\n") + "\n")
}

/// The byte ranges of `line`'s runs of ASCII digits.
fn digit_runs(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let mut runs = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at].is_ascii_digit() {
            let from = at;
            while at < bytes.len() && bytes[at].is_ascii_digit() {
                at += 1;
            }
            runs.push((from, at));
        } else {
            at += 1;
        }
    }
    runs
}

/// What the reader makes of `body` under a valid envelope.
fn verdict(body: &str) -> String {
    let mut bytes = format!(
        "{MAGIC}\nlen={}\nsum={:016x}\n",
        body.len(),
        wordsum64(body.as_bytes())
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    let read = panic::catch_unwind(AssertUnwindSafe(|| {
        let ckpt = Checkpoint::from_bytes(&bytes)?;
        let sim = Simulation::restore(PolicyKind::Simty.build(), &ckpt)?;
        Ok::<_, CheckpointError>(fnv1a64(body_of(&sim.checkpoint()).as_bytes()))
    }));
    match read {
        Err(_) => "panic".to_owned(),
        Ok(Ok(digest)) => format!("ok {digest:016x}"),
        Ok(Err(CheckpointError::Malformed { line, .. })) => format!("err Malformed {line}"),
        Ok(Err(e)) => {
            let variant = format!("{e:?}");
            let variant = variant.split([' ', '(', '{']).next().unwrap_or("");
            format!("err {variant} 0")
        }
    }
}

#[test]
fn the_reader_keeps_its_verdict_on_every_mutant_of_a_heavy_snapshot() {
    let body = heavy_body();
    let lines: Vec<&str> = body.lines().collect();
    let mut rng = Rng(0x5eed_c0de_2026);
    let mut out = format!(
        "snapshot {:016x} {}\n",
        fnv1a64(body.as_bytes()),
        verdict(&body)
    );
    for n in 0..MUTANTS {
        let (what, mutated) = mutant(&mut rng, &lines, body.len());
        let _ = writeln!(out, "{n} {what}: {}", verdict(&mutated));
    }
    if std::env::var_os("SIMTY_WRITE_READER_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &out).expect("write the golden");
        return;
    }
    for (n, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "verdict line {n}");
    }
    assert_eq!(out.lines().count(), GOLDEN.lines().count(), "verdict count");
    assert!(!out.contains(": panic"), "a mutant panicked the reader");
}
