//! The fixed live-scheduler session the `live_golden` test pins and the
//! live module's hostile-snapshot sweep mutates: several tenants,
//! static, dynamic and one-shot alarms, wakeup and non-wakeup kinds, a
//! hardware mix, a cancel, an admission storm that is rejected and then
//! demoted, and an `advance` that delivers and prunes.
//!
//! Both includers bring `LiveScheduler`, `RegisterOutcome` and
//! `RegisterRequest` into scope above this module.

use super::{LiveScheduler, RegisterOutcome, RegisterRequest};

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
pub struct Coverage {
    /// Registrations admission rejected.
    pub rejected: u64,
    /// Alarms the closing advance delivered.
    pub delivered: u64,
}

/// Runs the session under `policy`.
pub fn session(policy: &str) -> (LiveScheduler, Coverage) {
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
