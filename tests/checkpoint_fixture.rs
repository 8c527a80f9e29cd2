//! A checkpoint written by an earlier build restores under this one.
//!
//! `tests/fixtures/every_section.ckpt` is the `simty-checkpoint/v1`
//! capture of [`common::every_subsystem_sim`] (fault seed `0x5EED`)
//! paused at 40 simulated minutes, written before restore was rebuilt to allocate less (typed
//! span values and shared labels instead of owned strings). Restoring it
//! must recapture the file byte for byte, and the resumed run must end
//! at the digests that build pinned.
//!
//! Checkpoints and the trace CSV carry raw alarm ids, which come from a
//! process-global counter, so this file holds one test: it mints its ids
//! in a fixed order in a process of its own.

mod common;

use simty::prelude::*;
use simty::sim::codec::fnv1a64;
use simty::sim::json::report_to_json;

const FIXTURE: &[u8] = include_bytes!("fixtures/every_section.ckpt");

const PAUSE: SimTime = SimTime::from_secs(40 * 60);

/// The resumed run's report JSON, trace CSV, span JSONL, metrics JSON,
/// audit JSONL and Chrome trace.
const RESUMED: [u64; 6] = [
    0x1eb2c63668b98c34,
    0xb6b0d4edee78c31e,
    0x6c9efce9bb54a771,
    0x6b2eb4d88205d418,
    0x5e443e903480f9c8,
    0x54ea72d4e319ef36,
];

fn digests(sim: &Simulation) -> [u64; 6] {
    let mut csv = Vec::new();
    sim.trace()
        .write_csv(&mut csv)
        .expect("writing a trace to memory cannot fail");
    let [spans, metrics, audits, chrome] = common::obs_exports(sim);
    [
        fnv1a64(report_to_json(&sim.report()).as_bytes()),
        fnv1a64(&csv),
        fnv1a64(spans.as_bytes()),
        fnv1a64(metrics.as_bytes()),
        fnv1a64(audits.as_bytes()),
        fnv1a64(chrome.as_bytes()),
    ]
}

#[test]
fn a_fixture_checkpoint_restores_and_resumes_byte_identically() {
    let mut straight = common::every_subsystem_sim(0x5EED);
    straight.run_until(PAUSE);
    assert!(
        straight.checkpoint().to_bytes() == FIXTURE,
        "the builder no longer captures the fixture"
    );

    let ckpt = Checkpoint::from_bytes(FIXTURE).expect("the fixture validates");
    let mut resumed =
        Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt).expect("the fixture restores");
    assert!(
        resumed.checkpoint().to_bytes() == FIXTURE,
        "a recapture of the restored fixture differs from the file"
    );
    resumed.run();
    straight.run();
    let got = digests(&resumed);
    let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(got, RESUMED, "resumed digests: [{}]", hex.join(", "));
    assert_eq!(digests(&straight), RESUMED, "the straight run's digests");
}
