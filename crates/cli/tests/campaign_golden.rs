//! Byte-identity goldens for the four campaign documents.
//!
//! Each campaign runs one small grid through `standby <campaign> --json`,
//! and the written document's deterministic body — the document with its
//! per-invocation header fields (`resume_wall_ms`, `journal_skips`,
//! `quantiles`) cut out — is digested with
//! [`fnv1a64`](simty::sim::codec::fnv1a64). The constants were taken from
//! the per-campaign harnesses before chaos, soak and storm were folded
//! onto one campaign kernel, so they pin that the kernel writes the same
//! bytes; the fleet constant was taken before fleet joined that kernel.
//! The tests drive the CLI rather than the library so that they read the
//! same against either API.

use simty::sim::codec::fnv1a64;
use simty_bench::JsonValue;
use simty_cli::run_cli;

/// `(campaign, profiles, hours, body digest)`; every grid is NATIVE and
/// SIMTY on the light scenario with one seed.
const GRIDS: [(&str, &str, &str, u64); 3] = [
    (
        "chaos",
        "baseline,overruns,mixed",
        "1",
        0x026d_1257_c93c_5037,
    ),
    (
        "soak",
        "single-reboot,bitflip,torn-stale",
        "2",
        0xdcbd_6974_96f7_a892,
    ),
    (
        "storm",
        "quota-storm,drain-critical,storm-and-drain",
        "1",
        0xdf75_9c14_7272_1107,
    ),
];

/// The document with its per-invocation header cut out: everything
/// between the schema field and `,"runs":`.
fn deterministic_body(document: &str) -> String {
    let schema_end = document.find("/v1\"").expect("document has a schema") + 4;
    let runs = document
        .find(",\"runs\":")
        .expect("document has a run count");
    format!("{}{}", &document[..schema_end], &document[runs..])
}

#[test]
fn campaign_documents_match_their_goldens() {
    let dir = std::env::temp_dir().join(format!("simty-campaign-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut failures = Vec::new();
    for (campaign, profiles, hours, golden) in GRIDS {
        let path = dir.join(format!("{campaign}.json"));
        let args: Vec<String> = [
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
            "--json",
            path.to_str().expect("utf-8 temp path"),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        run_cli(&args, &mut out).unwrap_or_else(|e| panic!("{campaign} campaign failed: {e}"));
        let document = std::fs::read_to_string(&path).expect("campaign document written");
        let digest = fnv1a64(deterministic_body(&document).as_bytes());
        if digest != golden {
            failures.push(format!(
                "{campaign}: {digest:#018x} != golden {golden:#018x}"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        failures.is_empty(),
        "campaign documents drifted: {failures:?}"
    );
}

/// The fleet grid's arguments and its document digest.
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

/// The fleet document without its wall-clock and per-invocation fields
/// (`threads`, `total_wall_ms`, `devices_per_sec`, `journal_skips`,
/// `quantiles.cell_wall_ms`, `cells[].wall_ms`), in the parser's
/// member-order-preserving debug form.
fn fleet_payload(document: &str) -> String {
    fn drop_keys(value: &mut JsonValue, keys: &[&str]) {
        if let JsonValue::Obj(members) = value {
            members.retain(|(key, _)| !keys.contains(&key.as_str()));
        }
    }
    fn member<'v>(value: &'v mut JsonValue, key: &str) -> &'v mut JsonValue {
        match value {
            JsonValue::Obj(members) => members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("fleet document has no `{key}`")),
            _ => panic!("`{key}` looked up on a non-object"),
        }
    }
    let mut doc = JsonValue::parse(document).expect("fleet document parses");
    drop_keys(
        &mut doc,
        &[
            "threads",
            "total_wall_ms",
            "devices_per_sec",
            "journal_skips",
        ],
    );
    drop_keys(member(&mut doc, "quantiles"), &["cell_wall_ms"]);
    let JsonValue::Arr(cells) = member(&mut doc, "cells") else {
        panic!("fleet cells are not an array");
    };
    for cell in cells {
        drop_keys(cell, &["wall_ms"]);
    }
    format!("{doc:?}")
}

#[test]
fn fleet_document_matches_its_golden() {
    let (args, golden) = FLEET;
    let path = std::env::temp_dir().join(format!("simty-fleet-golden-{}.json", std::process::id()));
    let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    args.extend([
        "--json".to_owned(),
        path.to_str().expect("utf-8 temp path").to_owned(),
    ]);
    let mut out = Vec::new();
    run_cli(&args, &mut out).unwrap_or_else(|e| panic!("fleet campaign failed: {e}"));
    let document = std::fs::read_to_string(&path).expect("fleet document written");
    let _ = std::fs::remove_file(&path);
    let digest = fnv1a64(fleet_payload(&document).as_bytes());
    assert_eq!(digest, golden, "fleet document drifted: {digest:#018x}");
}
