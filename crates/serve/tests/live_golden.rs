//! Byte-identity goldens for the live scheduler's two serialized views.
//!
//! One fixed session (`common/session.rs`) — several tenants, static,
//! dynamic and one-shot alarms, wakeup and non-wakeup kinds, a hardware
//! mix, a cancel, an admission storm that is rejected and then demoted,
//! and an `advance` that delivers and prunes — runs under three
//! policies. The [`fnv1a64`] digests of `snapshot_payload()` (the
//! `serve-live/v2` drain checkpoint) and `digest()` (`GET /v1/state`)
//! are pinned, so any change to the line codec those views are written
//! with shows up here. The constants were re-pinned when the live
//! scheduler took the simulator's delivery rule (every instance at its
//! own wake, a registration's `now_ms` delivering first) and its
//! admission front door (a demoted tenant's alarms classed quarantined),
//! and again when both views took the checkpoint's manager, admission
//! and watermark lines: rewritten in the earlier layout, the new views
//! give the earlier constants, so no value moved.
//!
//! The payload carries raw alarm ids, which come from a process-wide
//! counter, so this file holds exactly one test and the policies run in
//! a fixed order.

use simty::sim::codec::fnv1a64;
use simty_serve::live::{LiveScheduler, RegisterOutcome, RegisterRequest};

#[path = "common/session.rs"]
mod session;

use session::session;

/// `(policy, snapshot_payload digest, digest() digest)`.
const GOLDENS: [(&str, u64, u64); 3] = [
    ("simty", 0x868b_798d_7921_5aee, 0xdea6_a001_5dd2_e674),
    ("native", 0x05cd_2a4f_a086_848f, 0x470f_b2f9_bd41_9765),
    ("doze", 0x2361_d136_958d_a2d6, 0x657d_e548_4df6_fc0c),
];

#[test]
fn live_snapshot_and_digest_match_their_goldens() {
    let mut failures = Vec::new();
    for (policy, snapshot_golden, digest_golden) in GOLDENS {
        let (live, seen) = session(policy);
        assert!(seen.rejected > 0, "{policy}: the storm was never rejected");
        assert!(seen.delivered > 0, "{policy}: advance delivered nothing");
        let (storm, _) = live.query("storm").expect("storm tenant");
        assert!(
            storm.demoted,
            "{policy}: the storm tenant was never demoted"
        );

        let payload = live.snapshot_payload();
        let digest = live.digest();
        let restored = LiveScheduler::restore_payload(&payload).expect("restore");
        assert_eq!(
            restored.snapshot_payload(),
            payload,
            "{policy}: snapshot round trip"
        );
        assert_eq!(restored.digest(), digest, "{policy}: digest round trip");

        let got = (fnv1a64(payload.as_bytes()), fnv1a64(digest.as_bytes()));
        if got != (snapshot_golden, digest_golden) {
            failures.push(format!(
                "{policy}: snapshot {:#018x} (golden {snapshot_golden:#018x}), \
                 digest {:#018x} (golden {digest_golden:#018x})\n{payload}{digest}",
                got.0, got.1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
