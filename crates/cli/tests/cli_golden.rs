//! Byte-identity goldens for `standby`'s deterministic stdout, and the
//! exit code of every input the command tests reject, and of `bench
//! diff` over doctored copies of the committed sweep document.
//!
//! Each argument set runs through [`run_cli`] and its stdout is digested
//! with [`fnv1a64`](simty::sim::codec::fnv1a64). The constants were taken
//! before the subcommands moved onto one declaration table, so they pin
//! that every command still prints the same bytes. `--help` is left out
//! on purpose: its layout is derived from the table. `repro`'s output is
//! pinned by EXPERIMENTS.md itself, which embeds it.

use simty::sim::codec::fnv1a64;
use simty_cli::run_cli;

/// `(arguments, stdout digest)`; every set is deterministic.
const OUTPUTS: [(&[&str], u64); 12] = [
    (&["catalog"], 0x5c16_5875_d258_db97),
    (
        &["estimate", "--scenario", "light", "--hours", "1"],
        0x7188_0f97_5125_b0de,
    ),
    (
        &["compare", "--scenario", "light", "--hours", "1"],
        0x56cb_be6e_dc41_6a09,
    ),
    (
        &["diff", "--scenario", "light", "--hours", "1"],
        0xdea3_0b1f_06b2_533e,
    ),
    (
        &[
            "run",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--attribution",
            "--timeline",
            "--apps",
            "--watchdog",
        ],
        0x3cc6_464a_c2dd_dbf6,
    ),
    (
        &["run", "--scenario", "light", "--hours", "1", "--json"],
        0x19eb_d697_ba3c_ac48,
    ),
    (
        &["explain", "--scenario", "light", "--hours", "1"],
        0xd29f_9f19_c50a_dbe6,
    ),
    (
        &["explain", "--scenario", "light", "--hours", "1", "--jsonl"],
        0xc361_cd6c_1002_20a1,
    ),
    (
        &[
            "metrics",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--format",
            "expose",
        ],
        0xb8f6_ffb9_7b1d_5559,
    ),
    (
        &[
            "metrics",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--format",
            "json",
        ],
        0xeeca_1a44_a406_c4a7,
    ),
    (
        &[
            "metrics",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--format",
            "spans",
        ],
        0x89d3_5e26_d8f9_eb25,
    ),
    (
        &[
            "sweep-beta",
            "--scenario",
            "light",
            "--hours",
            "1",
            "--steps",
            "3",
        ],
        0xfcd2_41e6_234e_defa,
    ),
];

/// `(arguments, exit code)` for the inputs the command tests reject.
const REJECTED: &[(&[&str], u8)] = &[
    (&["frobnicate"], 2),
    (&["run", "--policy", "bogus"], 2),
    (&["run", "--polcy", "simty"], 2),
    (&["run", "--hours", "0"], 2),
    (&["run", "--policy", "fixed:0"], 2),
    (&["run", "--scenario", "synthetic:0"], 2),
    (&["run", "--scenario", "synthetic:lots"], 2),
    (
        &[
            "run",
            "--workload",
            "/nonexistent/simty.spec",
            "--hours",
            "1",
        ],
        3,
    ),
    (&["sweep-beta", "--from", "0.9", "--to", "0.5"], 2),
    (&["metrics", "--format", "bogus", "--hours", "1"], 2),
    (&["analyze"], 2),
    (&["trace", "--hours", "1"], 2),
    (&["sweep", "--policies", "bogus"], 2),
    (&["sweep", "--scenarios", "synthetic:5"], 2),
    (&["sweep", "--seeds", "0"], 2),
    (&["sweep", "--betas", "1.5"], 2),
    (&["sweep", "--betas", "abc"], 2),
    (&["sweep", "--threads", "0"], 2),
    (&["sweep", "--inject-panic", "abc"], 2),
    (&["sweep", "--betas", "0.5,0.5"], 2),
    (&["sweep", "--scenarios", "light,light"], 2),
    (
        &[
            "sweep",
            "--policies",
            "native,simty",
            "--scenarios",
            "light",
            "--seeds",
            "1",
            "--hours",
            "1",
            "--inject-panic",
            "0",
        ],
        6,
    ),
    (&["chaos", "--profiles", "bogus"], 2),
    (&["chaos", "--policies", "bogus"], 2),
    (&["chaos", "--scenarios", "synthetic:5"], 2),
    (&["chaos", "--seeds", "0"], 2),
    (&["chaos", "--policies", "native,native"], 2),
    (&["soak", "--profiles", "bogus"], 2),
    (&["soak", "--policies", "bogus"], 2),
    (&["soak", "--scenarios", "synthetic:5"], 2),
    (&["soak", "--seeds", "0"], 2),
    (&["storm", "--profiles", "bogus"], 2),
    (&["storm", "--policies", "bogus"], 2),
    (&["storm", "--scenarios", "synthetic:5"], 2),
    (&["storm", "--seeds", "0"], 2),
    (&["storm", "--profiles", "quota-storm,quota-storm"], 2),
    (&["fleet", "--devices", "0"], 2),
    (&["fleet", "--shards", "0"], 2),
    (&["fleet", "--devices", "2", "--shards", "4"], 2),
    (&["fleet", "--policies", "bogus"], 2),
    (&["fleet", "--policies", "simty,simty"], 2),
    (&["fleet", "--beta", "1.5"], 2),
    (&["fleet", "--minutes", "0"], 2),
    (&["fleet", "--deadline", "0"], 2),
    (&["fleet", "--inject-panic", "abc"], 2),
    (
        &[
            "fleet",
            "--devices",
            "4",
            "--shards",
            "2",
            "--policies",
            "simty",
            "--minutes",
            "5",
            "--inject-panic",
            "0",
        ],
        6,
    ),
    (&["serve", "--fault", "bogus"], 2),
    (&["serve", "--addr", "127.0.0.1:0", "--policy", "nope"], 8),
    (&["serve-load", "--connections", "1", "--fault", "nope"], 2),
    (&["repro", "--json", "x"], 2),
    (&["repro", "--threads", "2"], 2),
    (&["bench"], 2),
    (&["bench", "prof"], 2),
    (&["bench", "diff", "old.json"], 2),
    (
        &[
            "bench",
            "diff",
            "old.json",
            "new.json",
            "--max-ratio",
            "zero",
        ],
        2,
    ),
];

fn run(args: &[&str]) -> (Result<(), u8>, Vec<u8>) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let result = run_cli(&args, &mut out).map_err(|e| e.exit_code());
    (result, out)
}

#[test]
fn deterministic_outputs_match_their_goldens() {
    let mut failures = Vec::new();
    for (args, golden) in OUTPUTS {
        let (result, out) = run(args);
        assert_eq!(result, Ok(()), "{args:?} failed");
        let digest = fnv1a64(&out);
        if digest != golden {
            failures.push(format!("{args:?}: {digest:#018x} != golden {golden:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "outputs drifted:\n{}",
        failures.join("\n")
    );
}

#[test]
fn rejected_inputs_keep_their_exit_codes() {
    for (args, code) in REJECTED {
        assert_eq!(run(args).0, Err(*code), "exit code of {args:?}");
    }
}

/// `standby repro` holds every paper target and prints exactly the block
/// EXPERIMENTS.md embeds between its `repro` markers.
#[test]
fn repro_prints_the_experiments_block() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let (_, rest) = doc
        .split_once("<!-- repro:begin -->\n")
        .expect("begin marker");
    let (block, _) = rest.split_once("<!-- repro:end -->").expect("end marker");
    let (result, out) = run(&["repro"]);
    assert_eq!(result, Ok(()), "a paper target left its band");
    assert!(
        String::from_utf8(out).unwrap() == block,
        "EXPERIMENTS.md's repro block differs from `standby repro`; paste its output there"
    );
}

/// The committed sweep document with the first value of `key` replaced
/// by `edit` of it.
fn doctored(key: &str, edit: impl Fn(&str) -> String) -> String {
    let doc = include_str!("../../../BENCH_sweep.json");
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle).expect("a committed field") + needle.len();
    let end = at + doc[at..].find([',', '}']).expect("a scalar value");
    format!("{}{}{}", &doc[..at], edit(&doc[at..end]), &doc[end..])
}

/// `bench diff` gates the committed sweep document: a deterministic
/// field moved or a field declared nowhere exits 7, and a wall-clock
/// field doubled (inside the crash bound) passes.
#[test]
fn doctored_sweep_documents_keep_their_bench_diff_exit_codes() {
    let plus_one = |v: &str| (v.parse::<u64>().unwrap() + 1).to_string();
    let cases = [
        ("unchanged", doctored("runs", str::to_owned), 0),
        ("harness.poisoned + 1", doctored("poisoned", plus_one), 7),
        ("one report digit", doctored("cpu_wakeups", plus_one), 7),
        (
            "an undeclared key",
            doctored("schema", |v| format!("{v},\"bogus\":1")),
            7,
        ),
        (
            "a wall field x2",
            doctored("total_wall_ms", |v| {
                (v.parse::<f64>().unwrap() * 2.0).to_string()
            }),
            0,
        ),
    ];
    let dir = std::env::temp_dir().join(format!("simty-doctored-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, include_str!("../../../BENCH_sweep.json")).unwrap();
    let (old, new_str) = (old.to_str().unwrap(), new.to_str().unwrap());
    for (what, doc, code) in cases {
        std::fs::write(&new, doc).unwrap();
        let (result, _) = run(&["bench", "diff", old, new_str]);
        assert_eq!(result.err().unwrap_or(0), code, "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI's harness grid resumed a second time restores every cell from its
/// journal and runs none; its document still `bench diff`s clean
/// against a fresh run.
#[test]
fn a_sweep_restored_wholly_from_its_journal_diffs_clean() {
    let dir = std::env::temp_dir().join(format!("simty-restored-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (journal, fresh, resumed) = (path("journal"), path("fresh.json"), path("resumed.json"));
    let grid = [
        "sweep",
        "--policies",
        "native,simty",
        "--scenarios",
        "light",
        "--seeds",
        "2",
        "--hours",
        "1",
        "--threads",
        "1",
    ];
    let sweep = |extra: &[&str]| run(&[&grid[..], extra].concat()).0;
    assert_eq!(sweep(&["--json", &fresh]), Ok(()));
    for _ in 0..2 {
        assert_eq!(sweep(&["--resume", &journal, "--json", &resumed]), Ok(()));
    }
    let doc = std::fs::read_to_string(&resumed).unwrap();
    assert!(doc.contains("\"journal_skips\":4,"), "every cell restored");
    assert_eq!(run(&["bench", "diff", &fresh, &resumed]).0, Ok(()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI's fleet grid resumed a second time restores every shard cell from
/// its journal; its document has no `runs`, yet still `bench diff`s clean
/// against a fresh run.
#[test]
fn a_fleet_restored_wholly_from_its_journal_diffs_clean() {
    let dir = std::env::temp_dir().join(format!("simty-restored-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (journal, fresh, resumed) = (path("journal"), path("fresh.json"), path("resumed.json"));
    let grid = [
        "fleet",
        "--devices",
        "60",
        "--shards",
        "4",
        "--policies",
        "native,simty",
        "--minutes",
        "5",
        "--ckpt-stride",
        "5",
        "--threads",
        "1",
    ];
    let fleet = |extra: &[&str]| run(&[&grid[..], extra].concat()).0;
    assert_eq!(fleet(&["--json", &fresh]), Ok(()));
    for _ in 0..2 {
        assert_eq!(fleet(&["--resume", &journal, "--json", &resumed]), Ok(()));
    }
    let doc = std::fs::read_to_string(&resumed).unwrap();
    assert!(
        doc.contains("\"journal_skips\":8,"),
        "every shard cell restored"
    );
    assert_eq!(run(&["bench", "diff", &fresh, &resumed]).0, Ok(()));
    let _ = std::fs::remove_dir_all(&dir);
}
