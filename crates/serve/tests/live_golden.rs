//! Byte-identity goldens for the live scheduler's two serialized views.
//!
//! One fixed session — several tenants, static, dynamic and one-shot
//! alarms, wakeup and non-wakeup kinds, a hardware mix, a cancel, an
//! admission storm that is rejected and then demoted, and an
//! `advance` that delivers and prunes — runs under three policies. The
//! [`fnv1a64`] digests of `snapshot_payload()` (the `serve-live/v1`
//! drain checkpoint) and `digest()` (`GET /v1/state`) are pinned, so any
//! change to the line codec those views are written with shows up here.
//! The constants were re-pinned when the live scheduler took the
//! simulator's delivery rule (every instance at its own wake, a
//! registration's `now_ms` delivering first) and its admission front
//! door (a demoted tenant's alarms classed quarantined); the codec they
//! are written with did not change.
//!
//! The payload carries raw alarm ids, which come from a process-wide
//! counter, so this file holds exactly one test and the policies run in
//! a fixed order.

use simty::sim::codec::fnv1a64;
use simty_serve::live::{LiveScheduler, RegisterOutcome, RegisterRequest};

/// `(policy, snapshot_payload digest, digest() digest)`.
const GOLDENS: [(&str, u64, u64); 3] = [
    ("simty", 0x85e0_484d_16c8_e56b, 0x7379_51eb_1b74_8e96),
    ("native", 0xc215_d67d_daed_2350, 0x70e0_2a04_15b3_d06f),
    ("doze", 0xc711_a718_0148_7c47, 0x5e97_2ca0_cf99_7de8),
];

fn repeating(tenant: &str, nominal_ms: u64, repeat_ms: u64, hardware_bits: u16) -> RegisterRequest {
    let mut req = RegisterRequest::simple(tenant, nominal_ms);
    req.repeat_ms = Some(repeat_ms);
    req.hardware_bits = hardware_bits;
    req.beta = Some(0.5);
    req.task_ms = 2_000;
    req
}

/// What the session saw, so the test can check it covers what it claims.
#[derive(Default)]
struct Coverage {
    rejected: u64,
    delivered: u64,
}

fn session(policy: &str) -> (LiveScheduler, Coverage) {
    let mut live = LiveScheduler::new(policy).expect("serve policy");
    let mut seen = Coverage::default();
    let mut register = |live: &mut LiveScheduler, req: &RegisterRequest| match live.register(req) {
        RegisterOutcome::Admitted { .. } => {}
        RegisterOutcome::Rejected { .. } => seen.rejected += 1,
        RegisterOutcome::Invalid { code, detail } => panic!("{code}: {detail}"),
    };

    for (i, tenant) in ["mail", "chat", "news", "maps"].into_iter().enumerate() {
        let i = i as u64;
        let mut req = repeating(tenant, 60_000 + i * 9_000, 300_000 + i * 60_000, 1 << i);
        req.now_ms = Some(1_000 + i * 250);
        register(&mut live, &req);
    }
    let mut dynamic = repeating("chat", 75_000, 240_000, 0b11);
    dynamic.repeat_dynamic = true;
    dynamic.alpha = Some(0.4);
    dynamic.beta = None;
    dynamic.grace_ms = Some(120_000);
    register(&mut live, &dynamic);
    let mut clock = repeating("clock", 30_000, 900_000, 0);
    clock.non_wakeup = true;
    clock.window_ms = Some(20_000);
    register(&mut live, &clock);
    let mut once = RegisterRequest::simple("once", 95_000);
    once.hardware_bits = 0b101;
    once.task_ms = 500;
    register(&mut live, &once);
    register(&mut live, &RegisterRequest::simple("once", 400_000));
    assert!(live.cancel("news", 0), "news alarm 0 is live");

    // A storm from one tenant drains its bucket, is rejected, and is
    // finally demoted (its later alarms arrive quarantined).
    for k in 0..40 {
        let mut req = repeating("storm", 5_000 + k * 1_000, 600_000, 0b10);
        req.now_ms = Some(2_000 + k);
        register(&mut live, &req);
    }

    seen.delivered = live.advance(420_000);
    assert!(live.verify().is_empty(), "{:?}", live.verify());
    (live, seen)
}

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
