//! Byte-identity goldens for `standby`'s deterministic stdout, and the
//! exit code of every input the command tests reject.
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
    (&["sweep", "--inject-ckpt-eio", "-1"], 2),
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
    (&["soak", "--profiles", "bogus"], 2),
    (&["soak", "--policies", "bogus"], 2),
    (&["soak", "--scenarios", "synthetic:5"], 2),
    (&["soak", "--seeds", "0"], 2),
    (&["storm", "--profiles", "bogus"], 2),
    (&["storm", "--policies", "bogus"], 2),
    (&["storm", "--scenarios", "synthetic:5"], 2),
    (&["storm", "--seeds", "0"], 2),
    (&["fleet", "--devices", "0"], 2),
    (&["fleet", "--shards", "0"], 2),
    (&["fleet", "--devices", "2", "--shards", "4"], 2),
    (&["fleet", "--policies", "bogus"], 2),
    (&["fleet", "--beta", "1.5"], 2),
    (&["fleet", "--minutes", "0"], 2),
    (&["fleet", "--span-cap", "0"], 2),
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
