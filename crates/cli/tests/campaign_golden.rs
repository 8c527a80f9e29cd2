//! Byte-identity goldens and smoke checks for the campaign documents,
//! and the field declaration of all six document kinds.
//!
//! Each campaign runs one small grid through `standby <campaign> --json`,
//! and the written document's [`deterministic_view`] is digested with
//! [`fnv1a64`](simty::sim::codec::fnv1a64): for chaos, soak and storm
//! its rendered bytes (the bytes their writer gave those fields), for
//! fleet its member-order-preserving debug form. The constants were
//! taken from the per-campaign harnesses before chaos, soak and storm
//! were folded onto one campaign kernel, so they pin that the kernel
//! writes the same bytes; the fleet constant was taken before fleet
//! joined that kernel. The tests drive the CLI rather than the library
//! so that they read the same against either API.

use simty::sim::codec::fnv1a64;
use simty_bench::{deterministic_view, diff_documents, JsonValue};
use simty_cli::run_cli;

/// `(campaign, profiles, hours, view digest, drill counters)`; every
/// grid is NATIVE and SIMTY on the light scenario with one seed. Each
/// drill counter, summed over the policies, must be nonzero: the drill
/// exercised what it drills.
const GRIDS: [(&str, &str, &str, u64, &[&str]); 3] = [
    (
        "chaos",
        "baseline,overruns,mixed",
        "1",
        0x026d_1257_c93c_5037,
        &[],
    ),
    (
        "soak",
        "single-reboot,bitflip,torn-stale",
        "2",
        0xdcbd_6974_96f7_a892,
        &["corrupt_skipped"],
    ),
    (
        "storm",
        "quota-storm,drain-critical,storm-and-drain",
        "1",
        0xdf75_9c14_7272_1107,
        &["rejected", "shed"],
    ),
];

/// Runs `standby` with `args` plus `--json` into a scratch file named
/// after `tag`, and returns the document written.
fn document(tag: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "simty-campaign-golden-{tag}-{}.json",
        std::process::id()
    ));
    let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    args.extend([
        "--json".to_owned(),
        path.to_str().expect("utf-8 temp path").to_owned(),
    ]);
    let mut out = Vec::new();
    run_cli(&args, &mut out).unwrap_or_else(|e| panic!("{args:?} failed: {e}"));
    let document = std::fs::read_to_string(&path).expect("document written");
    let _ = std::fs::remove_file(&path);
    document
}

/// `key` of every member of `doc`'s array `array`.
fn column<'d>(doc: &'d JsonValue, array: &str, key: &str) -> Vec<&'d JsonValue> {
    let Some(JsonValue::Arr(rows)) = doc.get(array) else {
        panic!("document has no `{array}` array");
    };
    rows.iter().filter_map(|row| row.get(key)).collect()
}

/// What a grid campaign's document must show: no policy broke the
/// paper's guarantee or an invariant, every drill restored and matched
/// bytes, and each of `drills` is nonzero summed over the policies.
fn smoke_failures(campaign: &str, doc: &JsonValue, drills: &[&str]) -> Vec<String> {
    let zero = JsonValue::Num(0.0);
    let yes = JsonValue::Bool(true);
    let mut failures = Vec::new();
    for (array, key, want) in [
        ("policies", "invariant_violations", &zero),
        ("policies", "perceptible_window_misses", &zero),
        ("policies", "all_restores_ok", &yes),
        ("policies", "all_resumed_identical", &yes),
        ("results", "restore_ok", &yes),
        ("results", "resumed_identical", &yes),
    ] {
        if column(doc, array, key).iter().any(|value| *value != want) {
            failures.push(format!("{campaign}: some {array}[].{key} is not {want}"));
        }
    }
    for drill in drills {
        let total: f64 = column(doc, "policies", drill)
            .iter()
            .filter_map(|value| value.as_num())
            .sum();
        if total == 0.0 {
            failures.push(format!("{campaign}: no policy's `{drill}` is nonzero"));
        }
    }
    failures
}

#[test]
fn campaign_documents_match_their_goldens() {
    let mut failures = Vec::new();
    for (campaign, profiles, hours, golden, drills) in GRIDS {
        let document = document(
            campaign,
            &[
                campaign,
                "--policies",
                "native,simty",
                "--scenarios",
                "light",
                "--profiles",
                profiles,
                "--seeds",
                "1",
                "--hours",
                hours,
                "--threads",
                "2",
            ],
        );
        let view = deterministic_view(&document).expect("a campaign document's view");
        let digest = fnv1a64(view.to_string().as_bytes());
        if digest != golden {
            failures.push(format!(
                "{campaign}: {digest:#018x} != golden {golden:#018x}"
            ));
        }
        failures.extend(smoke_failures(campaign, &view, drills));
    }
    assert!(
        failures.is_empty(),
        "campaign documents drifted: {failures:?}"
    );
}

/// The fleet grid's arguments and its document view's digest.
const FLEET: (&[&str], u64) = (
    &[
        "fleet",
        "--devices",
        "24",
        "--shards",
        "3",
        "--policies",
        "native,simty",
        "--minutes",
        "5",
        "--threads",
        "2",
    ],
    0x760f_b04c_7071_82ef,
);

#[test]
fn fleet_document_matches_its_golden() {
    let (args, golden) = FLEET;
    let view = deterministic_view(&document("fleet", args)).expect("a fleet document's view");
    let digest = fnv1a64(format!("{view:?}").as_bytes());
    assert_eq!(digest, golden, "fleet document drifted: {digest:#018x}");
}

/// The sweep grid's arguments (NATIVE and SIMTY on the light scenario,
/// one seed, two grace fractions) and the digest of its document's view,
/// top-level key order and per-stage call counts. The constant was taken
/// before the sweep joined the campaign kernel.
const SWEEP: (&[&str], u64) = (
    &[
        "sweep",
        "--policies",
        "native,simty",
        "--scenarios",
        "light",
        "--seeds",
        "1",
        "--betas",
        "0.5,0.96",
        "--hours",
        "1",
        "--threads",
        "2",
    ],
    0x3383_83fc_d8f2_49c1,
);

#[test]
fn sweep_document_matches_its_golden() {
    let (args, golden) = SWEEP;
    let document = document("sweep", args);
    let view = deterministic_view(&document).expect("a sweep document's view");
    let Ok(JsonValue::Obj(members)) = JsonValue::parse(&document) else {
        panic!("a sweep document is an object");
    };
    let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
    let Some((_, JsonValue::Obj(stages))) = members.iter().find(|(key, _)| key == "stages") else {
        panic!("a sweep document has a stage profile");
    };
    let calls: Vec<(&str, Option<&JsonValue>)> = stages
        .iter()
        .map(|(stage, profile)| (stage.as_str(), profile.get("calls")))
        .collect();
    let digest = fnv1a64(format!("{view}\n{keys:?}\n{calls:?}").as_bytes());
    assert_eq!(digest, golden, "sweep document drifted: {digest:#018x}");
}

/// A fresh document of each of the six kinds declares every field it
/// writes: it diffs clean against itself and has a deterministic view.
#[test]
fn a_fresh_document_of_every_kind_diffs_clean_against_itself() {
    let one_cell = [
        "--policies",
        "simty",
        "--scenarios",
        "light",
        "--seeds",
        "1",
    ];
    let grid = |campaign: &'static str, profile: &'static str| {
        [
            &[campaign][..],
            &one_cell,
            &["--profiles", profile, "--hours", "1"],
        ]
        .concat()
    };
    let kinds: [Vec<&str>; 6] = [
        [&["sweep"][..], &one_cell, &["--hours", "1"]].concat(),
        grid("chaos", "overruns"),
        grid("soak", "single-reboot"),
        grid("storm", "quota-storm"),
        vec!["fleet", "--devices", "4", "--shards", "2", "--minutes", "5"],
        vec!["serve-load", "--connections", "20", "--concurrency", "2"],
    ];
    for args in kinds {
        let document = document(&format!("fresh-{}", args[0]), &args);
        let report = diff_documents(&document, &document).unwrap();
        assert!(
            !report.is_regression(),
            "{}: {:?}",
            args[0],
            report.regressions
        );
        deterministic_view(&document).unwrap_or_else(|e| panic!("{}: {e}", args[0]));
    }
}
