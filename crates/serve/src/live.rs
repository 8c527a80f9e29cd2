//! The live multi-tenant scheduler behind `standby serve`'s alarm API.
//!
//! Each tenant (an app, keyed by a URL-safe name) registers, cancels,
//! and queries alarms against one shared [`AlarmManager`]. A registration
//! goes through the simulator's front door,
//! [`AdmissionController::admit`], as *real* request-level rate
//! limiting: a `Reject` becomes `429 Too Many Requests` with a
//! `Retry-After` derived from the typed `retry_after`, and demotion
//! quarantines the tenant's alarms exactly as it does inside the
//! simulator. Serve defers nothing: a client-declared hardware set does
//! not count as known, so every fresh alarm is perceptible, and the
//! perceptible class is never deferred.
//!
//! Delivery follows the simulator's rule too (§2.1).
//! [`LiveScheduler::advance`] wakes at every wakeup-queue head up to the
//! new clock, delivers each instance of a repeating alarm at its own
//! wake, and holds a due non-wakeup alarm until the next wake, so one far
//! advance delivers what many short ones do. A registration's `now_ms`
//! advances the same way first. The device it models has no wake latency
//! and no task time: `task_ms` is carried, never run. The `live_oracle`
//! tests drive one script through this scheduler and through the
//! simulator and compare what each delivered.
//!
//! Two serialized views exist:
//!
//! * [`LiveScheduler::digest`] (`serve-live-digest/v2`) — the canonical
//!   *tenant-visible* state: per-tenant alarms keyed by tenant-local
//!   ordinals (never raw [`AlarmId`]s, which depend on global allocation
//!   order), plus admission-bucket state. Per-tenant traffic is
//!   deterministic, so the digest is byte-identical across runs
//!   regardless of how concurrent tenants interleave — and across a
//!   snapshot/restore.
//! * [`LiveScheduler::snapshot_payload`] (`serve-live/v2`) — full
//!   fidelity (queue entry grouping, raw ids, counters) for
//!   graceful-shutdown checkpoints; [`LiveScheduler::restore_payload`]
//!   rebuilds a scheduler whose next snapshot is byte-identical to the
//!   one it was restored from.
//!
//! The scheduler state both views share with the simulator is written
//! and read by the simulator checkpoint's own functions in
//! [`simty::sim::checkpoint`], so it has one layout:
//!
//! * the alarm-id watermark (`max_alarm_id=`, snapshot only):
//!   [`put_max_alarm_id`] / [`take_max_alarm_id`];
//! * the alarm manager's clock, grace stretch and both queues
//!   (`mgr_clock=`, `mgr_stretch=`, `wakeup_entries=`,
//!   `non_wakeup_entries=`, snapshot only): [`put_manager`] /
//!   [`take_manager`];
//! * the admission controller's per-app buckets (`adm=`, `aa=`, both
//!   views): [`put_admission`] / [`take_admission`].
//!
//! The rest is this module's own: the magic lines, the policy token, the
//! admission-config line, the tenant counters and ordinal maps, the
//! digest's `clock=`, `tenant=` and ordinal-keyed `alarm=` lines, the
//! `end` terminator, and the [`is_valid_tenant`] check on restored
//! tenant names, queued alarm labels and admission app names. An earlier build's
//! `serve-live/v1` snapshot, which wrote the shared state under keys of
//! its own, is not read: `standby serve` refuses it at start
//! ([`SpawnError::SnapshotLayout`](crate::server::SpawnError::SnapshotLayout)).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simty::core::error::RegisterAlarmError;
use simty::core::{AdmissionConfig, AdmissionController, AdmissionDecision};
use simty::experiments::PolicyKind;
use simty::prelude::{
    Alarm, AlarmId, AlarmKind, AlarmManager, HardwareSet, QueueEntry, SimDuration, SimTime,
};
use simty::sim::checkpoint::{
    put_admission, put_manager, put_max_alarm_id, take_admission, take_manager, take_max_alarm_id,
};
use simty::sim::codec::{line, put, put_alarm_attrs, Parser};
use simty::sim::CheckpointError;

/// Magic first line of a full snapshot payload.
pub const SNAPSHOT_MAGIC: &str = "serve-live/v2";
/// Magic first line of a tenant-visible digest.
pub const DIGEST_MAGIC: &str = "serve-live-digest/v2";

/// Maximum length of a tenant name.
pub const MAX_TENANT_LEN: usize = 64;

/// Whether `s` is a valid tenant name: 1–64 chars of `[A-Za-z0-9_.-]`.
///
/// Restricting the charset here is what keeps every serialized view
/// (digest, snapshot, metrics labels) free of escaping concerns.
pub fn is_valid_tenant(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_TENANT_LEN
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Parses a serve policy token (`exact`, `native`, `simty`, `dursim`,
/// `doze`) into its [`PolicyKind`].
pub fn parse_policy_token(token: &str) -> Option<PolicyKind> {
    match token {
        "exact" => Some(PolicyKind::Exact),
        "native" => Some(PolicyKind::Native),
        "simty" => Some(PolicyKind::Simty),
        "dursim" => Some(PolicyKind::Dursim),
        "doze" => Some(PolicyKind::Doze),
        _ => None,
    }
}

/// A parsed `POST /v1/register` body.
#[derive(Debug, Clone)]
pub struct RegisterRequest {
    /// The tenant (alarm label, admission key, quarantine key).
    pub tenant: String,
    /// Nominal delivery time in scheduler milliseconds.
    pub nominal_ms: u64,
    /// Repeating interval; `None` = one-shot.
    pub repeat_ms: Option<u64>,
    /// Dynamic (delivery-relative) repeating instead of static.
    pub repeat_dynamic: bool,
    /// Absolute window length; wins over `alpha`.
    pub window_ms: Option<u64>,
    /// Window fraction α of the repeating interval.
    pub alpha: Option<f64>,
    /// Absolute grace length; wins over `beta`.
    pub grace_ms: Option<u64>,
    /// Grace fraction β of the repeating interval.
    pub beta: Option<f64>,
    /// Register a non-wakeup alarm.
    pub non_wakeup: bool,
    /// Required hardware set (component bits).
    pub hardware_bits: u16,
    /// Post-delivery task duration.
    pub task_ms: u64,
    /// Advance the scheduler to this time first, delivering what falls
    /// due (see [`LiveScheduler::advance`]; a lagging value is ignored).
    pub now_ms: Option<u64>,
}

impl RegisterRequest {
    /// A minimal valid request for `tenant` at `nominal_ms`.
    pub fn simple(tenant: &str, nominal_ms: u64) -> Self {
        RegisterRequest {
            tenant: tenant.to_owned(),
            nominal_ms,
            repeat_ms: None,
            repeat_dynamic: false,
            window_ms: None,
            alpha: None,
            grace_ms: None,
            beta: None,
            non_wakeup: false,
            hardware_bits: 0,
            task_ms: 0,
            now_ms: None,
        }
    }
}

/// What one `register` call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// The alarm is registered (possibly with a postponed nominal time
    /// when the admission controller deferred it).
    Admitted {
        /// Tenant-local ordinal — the handle `cancel` takes; stable
        /// across a snapshot/restore.
        ordinal: u64,
        /// The raw global alarm id (diagnostic only; not stable).
        id: u64,
        /// The deferred-to nominal time, when admission said `Defer`.
        deferred_to_ms: Option<u64>,
    },
    /// Admission rejected the registration → `429` + `Retry-After`.
    Rejected {
        /// The typed backoff from the admission controller.
        retry_after_ms: u64,
    },
    /// The request was shaped wrong (validation failure) → `400`.
    Invalid {
        /// Machine-readable error code (kebab-case).
        code: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

/// One tenant's live view: ordinal-keyed alarms plus counters.
#[derive(Debug, Clone, Default)]
struct Tenant {
    next_ordinal: u64,
    alarms: BTreeMap<u64, AlarmId>,
    registered: u64,
    deferred: u64,
    rejected: u64,
    cancelled: u64,
    delivered: u64,
}

/// One row of a `query` response.
#[derive(Debug, Clone)]
pub struct AlarmView {
    /// Tenant-local ordinal.
    pub ordinal: u64,
    /// Nominal delivery time.
    pub nominal_ms: u64,
    /// Repeating interval, when repeating.
    pub repeat_ms: Option<u64>,
    /// `wakeup` or `non-wakeup`.
    pub kind: &'static str,
    /// Whether the alarm is currently quarantined.
    pub quarantined: bool,
}

/// Per-tenant counters for a `query` response.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantStats {
    /// Successful registrations.
    pub registered: u64,
    /// Registrations admission postponed.
    pub deferred: u64,
    /// Registrations admission rejected.
    pub rejected: u64,
    /// Cancellations that removed an alarm.
    pub cancelled: u64,
    /// Alarm deliveries completed.
    pub delivered: u64,
    /// Alarms currently live.
    pub live: u64,
    /// Whether the admission controller has demoted the tenant.
    pub demoted: bool,
}

/// The multi-tenant live scheduler: one alarm manager, one admission
/// controller, and the tenant registry tying them together.
#[derive(Debug)]
pub struct LiveScheduler {
    policy_token: String,
    manager: AlarmManager,
    admission: AdmissionController,
    tenants: BTreeMap<String, Tenant>,
    /// Raw alarm id → tenant-local ordinal; the tenant is the alarm's
    /// own label.
    index: BTreeMap<u64, u64>,
    /// The entries one delivery round pops, kept across rounds and calls.
    due: Vec<QueueEntry>,
}

impl LiveScheduler {
    /// A fresh scheduler under `policy_token` with the default
    /// admission budget.
    ///
    /// # Errors
    ///
    /// Returns the offending token if it is not a serve policy.
    pub fn new(policy_token: &str) -> Result<Self, String> {
        Self::with_admission(policy_token, AdmissionConfig::default())
    }

    /// Like [`new`](Self::new) with an explicit admission budget.
    ///
    /// # Errors
    ///
    /// Returns the offending token if it is not a serve policy.
    pub fn with_admission(policy_token: &str, config: AdmissionConfig) -> Result<Self, String> {
        let kind = parse_policy_token(policy_token)
            .ok_or_else(|| format!("unknown serve policy `{policy_token}`"))?;
        Ok(LiveScheduler {
            policy_token: policy_token.to_owned(),
            manager: AlarmManager::new(kind.build()),
            admission: AdmissionController::new(config),
            tenants: BTreeMap::new(),
            index: BTreeMap::new(),
            due: Vec::new(),
        })
    }

    /// The scheduler clock.
    pub fn now(&self) -> SimTime {
        self.manager.now()
    }

    /// Total live alarms across all tenants.
    pub fn alarm_count(&self) -> usize {
        self.manager.alarm_count()
    }

    /// Number of tenants ever seen.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The policy token the scheduler was built with.
    pub fn policy_token(&self) -> &str {
        &self.policy_token
    }

    /// The next pending wakeup time, if any alarm is queued.
    pub fn next_wakeup_ms(&self) -> Option<u64> {
        self.manager.next_wakeup_time().map(SimTime::as_millis)
    }

    /// The tenant's state, created on its first appearance (the only
    /// time its name is copied).
    fn tenant_mut(&mut self, name: &str) -> &mut Tenant {
        if !self.tenants.contains_key(name) {
            self.tenants.insert(name.to_owned(), Tenant::default());
        }
        self.tenants.get_mut(name).expect("inserted above")
    }

    /// Registers an alarm for a tenant, running admission first.
    ///
    /// A request refused with [`RegisterOutcome::Invalid`] changes
    /// nothing: the tenant, the alarm's shape and its nominal time against
    /// the clock the request's `now_ms` would set are checked before the
    /// advance. A [`RegisterOutcome::Rejected`] one advances first, as the
    /// simulator's admission does.
    pub fn register(&mut self, req: &RegisterRequest) -> RegisterOutcome {
        if !is_valid_tenant(&req.tenant) {
            let detail = format!("tenant must be 1..={MAX_TENANT_LEN} chars of [A-Za-z0-9_.-]");
            return invalid("bad-tenant", detail);
        }
        let mut builder = Alarm::builder(req.tenant.as_str())
            .nominal(SimTime::from_millis(req.nominal_ms))
            .task_duration(SimDuration::from_millis(req.task_ms))
            .hardware(HardwareSet::from_bits(req.hardware_bits));
        builder = match req.repeat_ms {
            Some(ms) if req.repeat_dynamic => {
                builder.repeating_dynamic(SimDuration::from_millis(ms))
            }
            Some(ms) => builder.repeating_static(SimDuration::from_millis(ms)),
            None => builder.one_shot(),
        };
        builder = match (req.window_ms, req.alpha) {
            (Some(ms), _) => builder.window(SimDuration::from_millis(ms)),
            (None, Some(alpha)) => builder.window_fraction(alpha),
            (None, None) => builder.window(SimDuration::ZERO),
        };
        builder = match (req.grace_ms, req.beta) {
            (Some(ms), _) => builder.grace(SimDuration::from_millis(ms)),
            (None, Some(beta)) => builder.grace_fraction(beta),
            (None, None) => builder,
        };
        if req.non_wakeup {
            builder = builder.kind(AlarmKind::NonWakeup);
        }
        let mut alarm = match builder.build() {
            Ok(alarm) => alarm,
            Err(e) => return invalid("bad-alarm-shape", e),
        };

        // A refusal moves nothing: the clock advances only for an alarm
        // the manager can take at the new clock.
        let asked = SimTime::from_millis(req.now_ms.unwrap_or(0));
        let now = asked.max(self.manager.now());
        if alarm.nominal() < now {
            let id = alarm.id();
            return invalid(
                "rejected-by-manager",
                RegisterAlarmError::NominalInPast { id },
            );
        }
        if let Some(ms) = req.now_ms {
            self.advance(ms);
        }

        // Demotion is a sticky quarantine: a demoted tenant's later alarms
        // arrive quarantined, and admission classes them so.
        if self.admission.is_demoted(&req.tenant) {
            alarm.set_quarantined(true);
        }
        let admission = self.admission.admit(&mut alarm, &mut self.manager, now);
        let deferred_to_ms = match admission.decision {
            AdmissionDecision::Reject { retry_after } => {
                self.tenant_mut(&req.tenant).rejected += 1;
                return RegisterOutcome::Rejected {
                    retry_after_ms: retry_after.as_millis(),
                };
            }
            AdmissionDecision::Defer { .. } => Some(alarm.nominal().as_millis()),
            AdmissionDecision::Admit => None,
        };

        let id = match self.manager.register(alarm) {
            Ok(id) => id,
            Err(e) => return invalid("rejected-by-manager", e),
        };
        let tenant = self.tenant_mut(&req.tenant);
        let ordinal = tenant.next_ordinal;
        tenant.next_ordinal += 1;
        tenant.alarms.insert(ordinal, id);
        tenant.registered += 1;
        if deferred_to_ms.is_some() {
            tenant.deferred += 1;
        }
        self.index.insert(id.as_u64(), ordinal);
        RegisterOutcome::Admitted {
            ordinal,
            id: id.as_u64(),
            deferred_to_ms,
        }
    }

    /// Cancels a tenant's alarm by ordinal; `false` if no such alarm is
    /// live.
    pub fn cancel(&mut self, tenant: &str, ordinal: u64) -> bool {
        let Some(state) = self.tenants.get_mut(tenant) else {
            return false;
        };
        let Some(id) = state.alarms.get(&ordinal).copied() else {
            return false;
        };
        let cancelled = self.manager.cancel(id).is_some();
        if cancelled {
            state.alarms.remove(&ordinal);
            state.cancelled += 1;
            self.index.remove(&id.as_u64());
        }
        cancelled
    }

    /// Advances the clock to `now_ms`, delivering by the simulator's
    /// rule: the scheduler wakes at each wakeup-queue head due at or
    /// before `now_ms`, and each wake delivers every wakeup and
    /// non-wakeup entry due by then. A non-wakeup alarm waits for the
    /// next wake, and each instance of a repeating alarm is delivered at
    /// its own wake, so one far advance delivers what many short ones
    /// would. A lagging `now_ms` delivers nothing and leaves the clock.
    /// Returns the number of alarms delivered.
    pub fn advance(&mut self, now_ms: u64) -> u64 {
        let end = SimTime::from_millis(now_ms);
        let mut delivered = 0;
        while let Some(wake) = self.manager.next_wakeup_time().filter(|&t| t <= end) {
            delivered += self.deliver_due(wake.max(self.manager.now()));
        }
        self.manager.advance_clock(end);
        delivered
    }

    /// One wake at `t`: pops and completes what is due, as the engine's
    /// `deliver_due` does, for up to 64 rounds while completions leave
    /// entries due at `t`.
    fn deliver_due(&mut self, t: SimTime) -> u64 {
        let mut delivered = 0;
        let mut entries = std::mem::take(&mut self.due);
        for _round in 0..64 {
            self.manager.pop_due_into(t, &mut entries);
            if entries.is_empty() {
                break;
            }
            for entry in entries.drain(..) {
                let mut alarms = entry.into_alarms();
                let kind = alarms[0].kind();
                delivered += alarms.len() as u64;
                for alarm in alarms.drain(..) {
                    self.complete(alarm, t);
                }
                self.manager.recycle(kind, alarms);
            }
        }
        self.due = entries;
        delivered
    }

    /// Counts one delivery to the alarm's tenant and re-queues a
    /// repeating alarm; a one-shot one leaves its tenant's map.
    fn complete(&mut self, alarm: Alarm, t: SimTime) {
        let raw = alarm.id().as_u64();
        let mut state = if self.index.contains_key(&raw) {
            self.tenants.get_mut(alarm.label())
        } else {
            None
        };
        if let Some(state) = &mut state {
            state.delivered += 1;
        }
        if self.manager.complete_delivery(alarm, t).is_none() {
            if let (Some(ordinal), Some(state)) = (self.index.remove(&raw), state) {
                state.alarms.remove(&ordinal);
            }
        }
    }

    /// A tenant's counters and live alarms, ordinal-ordered.
    pub fn query(&self, tenant: &str) -> Option<(TenantStats, Vec<AlarmView>)> {
        let state = self.tenants.get(tenant)?;
        let mut views = Vec::with_capacity(state.alarms.len());
        for (&ordinal, &id) in &state.alarms {
            let Some(alarm) = self.manager.find_alarm(id) else {
                continue;
            };
            views.push(AlarmView {
                ordinal,
                nominal_ms: alarm.nominal().as_millis(),
                repeat_ms: alarm.repeat().interval().map(SimDuration::as_millis),
                kind: match alarm.kind() {
                    AlarmKind::Wakeup => "wakeup",
                    AlarmKind::NonWakeup => "non-wakeup",
                },
                quarantined: alarm.is_quarantined(),
            });
        }
        Some((
            TenantStats {
                registered: state.registered,
                deferred: state.deferred,
                rejected: state.rejected,
                cancelled: state.cancelled,
                delivered: state.delivered,
                live: state.alarms.len() as u64,
                demoted: self.admission.is_demoted(tenant),
            },
            views,
        ))
    }

    /// Every tenant's counters summed (`live` counts the alarms the
    /// tenant maps hold; `demoted` is whether any tenant is demoted).
    pub(crate) fn totals(&self) -> TenantStats {
        let mut sum = TenantStats::default();
        for (name, state) in &self.tenants {
            sum.registered += state.registered;
            sum.deferred += state.deferred;
            sum.rejected += state.rejected;
            sum.cancelled += state.cancelled;
            sum.delivered += state.delivered;
            sum.live += state.alarms.len() as u64;
            sum.demoted |= self.admission.is_demoted(name);
        }
        sum
    }

    /// Internal-consistency audit; each returned string is one
    /// violation. An empty result is the invariant the CI smoke and the
    /// fault drills assert on.
    pub fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut mapped = 0usize;
        for (tenant, state) in &self.tenants {
            for (&ordinal, &id) in &state.alarms {
                mapped += 1;
                if ordinal >= state.next_ordinal {
                    problems.push(format!(
                        "tenant {tenant}: ordinal {ordinal} >= next_ordinal {}",
                        state.next_ordinal
                    ));
                }
                match self.manager.find_alarm(id) {
                    None => problems.push(format!(
                        "tenant {tenant}: ordinal {ordinal} maps to missing alarm {}",
                        id.as_u64()
                    )),
                    Some(alarm) if alarm.label() != tenant => problems.push(format!(
                        "tenant {tenant}: ordinal {ordinal} maps to alarm labelled {}",
                        alarm.label()
                    )),
                    Some(_) => {}
                }
            }
        }
        if mapped != self.manager.alarm_count() {
            problems.push(format!(
                "tenant maps cover {mapped} alarms but the manager holds {}",
                self.manager.alarm_count()
            ));
        }
        if mapped != self.index.len() {
            problems.push(format!(
                "tenant maps cover {mapped} alarms but the index holds {}",
                self.index.len()
            ));
        }
        problems
    }

    /// The canonical tenant-visible state (see the module docs).
    pub fn digest(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "{DIGEST_MAGIC}\npolicy={}", self.policy_token);
        put(&mut out, "clock", &self.manager.now());
        let _ = writeln!(out, "tenants={}", self.tenants.len());
        for (name, state) in &self.tenants {
            let _ = writeln!(
                out,
                "tenant={name},reg={},def={},rej={},can={},dlv={},demoted={},live={}",
                state.registered,
                state.deferred,
                state.rejected,
                state.cancelled,
                state.delivered,
                u8::from(self.admission.is_demoted(name)),
                state.alarms.len(),
            );
            for (&ordinal, &id) in &state.alarms {
                if let Some(alarm) = self.manager.find_alarm(id) {
                    line(&mut out, "alarm", |w| {
                        put_alarm_attrs(w.f(&ordinal), alarm);
                        w
                    });
                }
            }
        }
        put_admission(&mut out, Some(&self.admission));
        out.push_str("end\n");
        out
    }

    /// Serializes the complete resumable state for a graceful-shutdown
    /// checkpoint (carried inside a
    /// [`Checkpoint::marker`](simty::sim::Checkpoint::marker) payload).
    pub fn snapshot_payload(&self) -> String {
        let mut out = String::with_capacity(4 * 1024);
        let _ = writeln!(out, "{SNAPSHOT_MAGIC}\npolicy={}", self.policy_token);
        put_max_alarm_id(&mut out, self.manager.alarms().map(Alarm::id));
        put(&mut out, "config", self.admission.config());
        put_manager(&mut out, &self.manager);
        put(&mut out, "tenants", &self.tenants.len());
        for (name, state) in &self.tenants {
            line(&mut out, "tenant", |w| {
                w.raw(name).f(&state.next_ordinal).f(&state.registered);
                w.f(&state.deferred).f(&state.rejected).f(&state.cancelled);
                w.f(&state.delivered).f(&state.alarms.len())
            });
            for (&ordinal, &id) in &state.alarms {
                put(&mut out, "map", &(ordinal, id));
            }
        }
        put_admission(&mut out, Some(&self.admission));
        out.push_str("end\n");
        out
    }

    /// Rebuilds a scheduler from [`snapshot_payload`](Self::snapshot_payload)
    /// output. The next `snapshot_payload` and `digest` of the restored
    /// scheduler are byte-identical to the originals.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn restore_payload(payload: &str) -> Result<Self, String> {
        Self::restore_lines(&mut Parser::new(payload)).map_err(|e| e.to_string())
    }

    fn restore_lines(p: &mut Parser<'_>) -> Result<Self, CheckpointError> {
        if p.line() != Some(SNAPSHOT_MAGIC) {
            return Err(p.err(format!("payload is not `{SNAPSHOT_MAGIC}`")));
        }
        let policy_token = p.kv("policy")?.to_owned();
        let kind = parse_policy_token(&policy_token)
            .ok_or_else(|| p.err(format!("unknown serve policy `{policy_token}`")))?;
        take_max_alarm_id(p)?;
        let config = p.take("config")?;
        let mut manager = AlarmManager::new(kind.build());
        take_manager(p, &mut manager)?;

        let tenant_count = p.count("tenants")?;
        let mut tenants = BTreeMap::new();
        let mut index = BTreeMap::new();
        for _ in 0..tenant_count {
            let mut r = p.rec("tenant", 8)?;
            let name = r.raw()?;
            let mut state = Tenant {
                next_ordinal: r.take()?,
                alarms: BTreeMap::new(),
                registered: r.take()?,
                deferred: r.take()?,
                rejected: r.take()?,
                cancelled: r.take()?,
                delivered: r.take()?,
            };
            for _ in 0..r.count()? {
                let (ordinal, id): (u64, AlarmId) = p.take("map")?;
                state.alarms.insert(ordinal, id);
                index.insert(id.as_u64(), ordinal);
            }
            tenants.insert(name.to_owned(), state);
        }

        let admission = take_admission(p, Some(config))?
            .ok_or_else(|| p.err("serve admission state cannot be `none`"))?;
        if p.line() != Some("end") {
            return Err(p.err("missing `end` terminator"));
        }
        let queued = manager.alarms().map(Alarm::label);
        let apps = admission.apps().map(|(app, _)| app);
        let names = tenants.keys().map(String::as_str).chain(apps);
        if let Some(bad) = names.chain(queued).find(|s| !is_valid_tenant(s)) {
            return Err(p.err(format!("bad tenant name `{bad}`")));
        }

        Ok(LiveScheduler {
            policy_token,
            manager,
            admission,
            tenants,
            index,
            due: Vec::new(),
        })
    }
}

/// A [`RegisterOutcome::Invalid`] with `code` and `detail`'s message.
fn invalid(code: &'static str, detail: impl ToString) -> RegisterOutcome {
    let detail = detail.to_string();
    RegisterOutcome::Invalid { code, detail }
}

#[cfg(test)]
#[path = "../tests/common/session.rs"]
mod session;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn repeating(tenant: &str, nominal_ms: u64, repeat_ms: u64) -> RegisterRequest {
        let mut req = RegisterRequest::simple(tenant, nominal_ms);
        req.repeat_ms = Some(repeat_ms);
        req.beta = Some(0.5);
        req
    }

    #[test]
    fn register_query_cancel_roundtrip() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        let out = live.register(&repeating("mail", 60_000, 600_000));
        let RegisterOutcome::Admitted { ordinal, .. } = out else {
            panic!("expected admitted, got {out:?}");
        };
        assert_eq!(ordinal, 0);
        let (stats, views) = live.query("mail").expect("tenant");
        assert_eq!(stats.registered, 1);
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].repeat_ms, Some(600_000));
        assert!(live.cancel("mail", ordinal));
        assert!(!live.cancel("mail", ordinal), "second cancel is a no-op");
        assert_eq!(live.alarm_count(), 0);
        assert!(live.verify().is_empty());
    }

    /// A refused registration changes nothing: not the clock, the
    /// deliveries, the admission buckets nor the digest.
    #[test]
    fn invalid_shapes_and_tenants_are_typed_errors() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        live.register(&RegisterRequest::simple("a", 2_000));
        let before = live.digest();
        let bad_tenant = live.register(&RegisterRequest::simple("no spaces", 1_000));
        assert!(matches!(
            bad_tenant,
            RegisterOutcome::Invalid {
                code: "bad-tenant",
                ..
            }
        ));
        assert_eq!(live.digest(), before, "bad tenant");
        let mut zero_repeat = RegisterRequest::simple("a", 1_000);
        zero_repeat.repeat_ms = Some(0);
        zero_repeat.now_ms = Some(5_000);
        assert!(matches!(
            live.register(&zero_repeat),
            RegisterOutcome::Invalid {
                code: "bad-alarm-shape",
                ..
            }
        ));
        assert_eq!(live.digest(), before, "bad alarm shape");
        let mut stale = RegisterRequest::simple("a", 1_000);
        stale.now_ms = Some(5_000);
        assert!(matches!(
            live.register(&stale),
            RegisterOutcome::Invalid {
                code: "rejected-by-manager",
                ..
            }
        ));
        assert_eq!(live.digest(), before, "nominal behind the request's clock");
    }

    #[test]
    fn admission_storm_rejects_with_typed_retry_after() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        let mut rejected = None;
        for i in 0..64 {
            let mut req = repeating("storm", 3_600_000 + i, 600_000);
            req.now_ms = Some(1_000);
            if let RegisterOutcome::Rejected { retry_after_ms } = live.register(&req) {
                rejected = Some(retry_after_ms);
                break;
            }
        }
        let retry_after_ms = rejected.expect("the storm must eventually be rejected");
        assert!(retry_after_ms > 0);
        let (stats, _) = live.query("storm").expect("tenant");
        assert!(stats.rejected >= 1);
        assert!(live.verify().is_empty());
    }

    #[test]
    fn advance_delivers_and_prunes_one_shots() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        live.register(&RegisterRequest::simple("one", 10_000));
        live.register(&repeating("rep", 20_000, 600_000));
        assert_eq!(live.next_wakeup_ms(), Some(10_000));
        let delivered = live.advance(700_000);
        assert!(delivered >= 2, "both alarms due, got {delivered}");
        let (one_stats, one_views) = live.query("one").expect("one");
        assert_eq!(one_stats.delivered, 1);
        assert!(one_views.is_empty(), "one-shot must be pruned");
        let (rep_stats, rep_views) = live.query("rep").expect("rep");
        assert!(rep_stats.delivered >= 1);
        assert_eq!(rep_views.len(), 1, "repeating alarm must live on");
        assert!(live.verify().is_empty());
    }

    #[test]
    fn snapshot_restore_is_byte_identical() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        for i in 0..6 {
            let mut req = repeating(&format!("app{i}"), 60_000 + i * 7_000, 600_000);
            req.hardware_bits = (i % 4) as u16;
            req.now_ms = Some(1_000 + i * 100);
            live.register(&req);
        }
        live.register(&RegisterRequest::simple("app0", 90_000));
        live.cancel("app1", 0);
        live.advance(65_000);
        let payload = live.snapshot_payload();
        let digest = live.digest();

        let restored = LiveScheduler::restore_payload(&payload).expect("restore");
        assert_eq!(
            restored.snapshot_payload(),
            payload,
            "snapshot must round-trip"
        );
        assert_eq!(restored.digest(), digest, "digest must round-trip");
        assert!(restored.verify().is_empty());
    }

    #[test]
    fn restored_scheduler_keeps_working() {
        let mut live = LiveScheduler::new("native").expect("scheduler");
        live.register(&repeating("app", 60_000, 600_000));
        let payload = live.snapshot_payload();
        let mut restored = LiveScheduler::restore_payload(&payload).expect("restore");
        let out = restored.register(&repeating("app", 120_000, 600_000));
        let RegisterOutcome::Admitted { ordinal, .. } = out else {
            panic!("restored scheduler must admit, got {out:?}");
        };
        assert_eq!(ordinal, 1, "ordinals continue from the snapshot");
        assert!(restored.verify().is_empty());
    }

    /// A count in the payload that would make restore allocate or loop
    /// for 10^18 items is an error, never an abort.
    #[test]
    fn hostile_counts_are_typed_errors() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        for (i, tenant) in ["a", "b"].into_iter().enumerate() {
            live.register(&repeating(tenant, 60_000 + i as u64 * 1_000, 600_000));
        }
        let payload = live.snapshot_payload();
        assert!(LiveScheduler::restore_payload(&payload).is_ok());
        // `(key, field)`: the whole-line counts, then the `live` count of
        // a `tenant=` line and the alarm count of an `entry=` line.
        let counted = [
            ("tenants", 0),
            ("adm", 0),
            ("wakeup_entries", 0),
            ("non_wakeup_entries", 0),
            ("tenant", 7),
            ("entry", 1),
        ];
        for (key, field) in counted {
            for hostile in ["1000000000000000000", "18446744073709551615"] {
                let prefix = format!("{key}=");
                let line = payload
                    .lines()
                    .find(|l| l.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("the payload has no `{key}=` line"));
                let mut fields: Vec<&str> = line[prefix.len()..].split(',').collect();
                fields[field] = hostile;
                let bad = payload.replacen(line, &format!("{prefix}{}", fields.join(",")), 1);
                let err = LiveScheduler::restore_payload(&bad)
                    .err()
                    .unwrap_or_else(|| panic!("`{key}` = {hostile} restored"));
                assert!(err.contains("exceeds the body"), "`{key}`: {err}");
            }
        }
    }

    #[test]
    fn corrupt_payload_is_a_typed_error() {
        assert!(LiveScheduler::restore_payload("garbage").is_err());
        let live = LiveScheduler::new("simty").expect("scheduler");
        let payload = live.snapshot_payload();
        let truncated = &payload[..payload.len() / 2];
        assert!(LiveScheduler::restore_payload(truncated).is_err());
        // An alarm id past which no fresh id is left to mint, queued or
        // as the watermark.
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        live.register(&repeating("app", 60_000, 600_000));
        let payload = live.snapshot_payload();
        for key in ["alarm=", "max_alarm_id="] {
            let line = payload.lines().find(|l| l.starts_with(key)).expect(key);
            let id = line[key.len()..].split(',').next().expect("an id");
            let hostile = line.replacen(id, &u64::MAX.to_string(), 1);
            let err =
                LiveScheduler::restore_payload(&payload.replacen(line, &hostile, 1)).unwrap_err();
            assert!(err.contains("no alarm id to mint"), "{key}: {err}");
        }
    }

    /// A watermark below a queued alarm id cannot let a fresh id collide
    /// with the queued one: restore reserves every queued id too.
    #[test]
    fn a_queued_id_above_the_watermark_is_never_minted() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        let RegisterOutcome::Admitted { id, .. } =
            live.register(&repeating("app", 60_000, 600_000))
        else {
            panic!("admitted");
        };
        let queued = 1u64 << 40;
        let payload = live.snapshot_payload();
        let edits = [
            (
                format!("max_alarm_id={id}\n"),
                "max_alarm_id=0\n".to_owned(),
            ),
            (format!("alarm={id},"), format!("alarm={queued},")),
            (format!("map=0,{id}\n"), format!("map=0,{queued}\n")),
        ];
        let mut hostile = payload.clone();
        for (from, to) in &edits {
            assert!(hostile.contains(from.as_str()), "{from}");
            hostile = hostile.replacen(from.as_str(), to, 1);
        }
        let mut restored = LiveScheduler::restore_payload(&hostile).expect("restores");
        let RegisterOutcome::Admitted { id: fresh, .. } =
            restored.register(&RegisterRequest::simple("app", 120_000))
        else {
            panic!("admitted");
        };
        assert!(fresh > queued, "fresh id {fresh}, queued id {queued}");
        assert!(restored.verify().is_empty(), "{:?}", restored.verify());
    }

    /// The bytes a mutant's one edit writes: digits, separators, line
    /// ends, an escape and tag letters.
    const EDIT_BYTES: &[u8] = b"0123456789,=:%-\n\rnoswx";

    /// What a mutant writes in place of a digit run.
    const HOSTILE_DIGITS: [&str; 7] = [
        "",
        "-1",
        "+5",
        "007",
        "4294967296",
        "18446744073709551615",
        "99999999999999999999",
    ];

    /// `payload` with one edit: a byte replaced, removed or inserted, a
    /// digit run replaced, or a line duplicated, removed or swapped with
    /// the next.
    fn one_edit(payload: &str, rng: &mut TestRng) -> String {
        let mut bytes = payload.as_bytes().to_vec();
        let len = bytes.len();
        let at = rng.below(len as u64) as usize;
        let edit_byte = EDIT_BYTES[rng.below(EDIT_BYTES.len() as u64) as usize];
        let line_end = |from: usize, bytes: &[u8]| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| from + i + 1)
        };
        let start = bytes[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let end = line_end(at, &bytes);
        match rng.below(7) {
            0 => bytes[at] = edit_byte,
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, edit_byte),
            3 => {
                let from = (at..len)
                    .chain(0..at)
                    .find(|&i| bytes[i].is_ascii_digit())
                    .expect("the payload holds digits");
                let to = (from..len)
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(len);
                let hostile = HOSTILE_DIGITS[rng.below(HOSTILE_DIGITS.len() as u64) as usize];
                bytes.splice(from..to, hostile.bytes());
            }
            4 => {
                let line = bytes[start..end].to_vec();
                bytes.splice(start..start, line);
            }
            5 => {
                bytes.drain(start..end);
            }
            _ => {
                let next_end = line_end(end, &bytes);
                bytes[start..next_end].rotate_left(end - start);
            }
        }
        String::from_utf8(bytes).expect("ASCII edits of an ASCII payload")
    }

    /// Hostile bytes: 768 seeded one-edit mutants of the `live_golden`
    /// session's snapshot, under each of its policies, restore or fail
    /// with a typed error, and none panics. A restored mutant is also
    /// snapshotted, digested and verified.
    #[test]
    fn hostile_snapshots_restore_or_fail_typed() {
        let payloads: Vec<String> = ["simty", "native", "doze"]
            .into_iter()
            .map(|policy| {
                let (live, seen) = session::session(policy);
                assert!(seen.rejected > 0 && seen.delivered > 0);
                live.snapshot_payload()
            })
            .collect();
        let (mut restored, mut refused, mut panicked) = (0, 0, Vec::new());
        for case in 0..768 {
            let mut rng = TestRng::for_case(case);
            let payload = &payloads[case as usize % payloads.len()];
            let mutant = one_edit(payload, &mut rng);
            let outcome = std::panic::catch_unwind(|| {
                LiveScheduler::restore_payload(&mutant).map(|live| {
                    let _ = (live.snapshot_payload(), live.digest(), live.verify());
                })
            });
            match outcome {
                Ok(Ok(())) => restored += 1,
                Ok(Err(_)) => refused += 1,
                Err(_) => panicked.push(mutant),
            }
        }
        assert!(
            panicked.is_empty(),
            "mutants panicked:\n{}",
            panicked.join("\n---\n")
        );
        assert!(
            restored > 0 && refused > 0,
            "{restored} restored, {refused} refused"
        );
    }
}
