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
//! * [`LiveScheduler::digest`] — the canonical *tenant-visible* state:
//!   per-tenant alarms keyed by tenant-local ordinals (never raw
//!   [`AlarmId`]s, which depend on global allocation order), plus
//!   admission-bucket state. Per-tenant traffic is deterministic, so
//!   the digest is byte-identical across runs regardless of how
//!   concurrent tenants interleave — and across a snapshot/restore.
//! * [`LiveScheduler::snapshot_payload`] — full fidelity (queue entry
//!   grouping, raw ids, counters) for graceful-shutdown checkpoints;
//!   [`LiveScheduler::restore_payload`] rebuilds a scheduler whose
//!   next snapshot is byte-identical to the one it was restored from.
//!
//! Both views are written and read with the alarm, queue and admission
//! codec in [`simty::sim::codec`], the one the simulator's checkpoints
//! use. Only the magic lines, the `end` terminator, and the
//! [`is_valid_tenant`] check on tenant names and alarm labels are this
//! module's own.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simty::core::{AdmissionConfig, AdmissionController, AdmissionDecision};
use simty::experiments::PolicyKind;
use simty::prelude::{
    Alarm, AlarmId, AlarmKind, AlarmManager, HardwareSet, QueueEntry, SimDuration, SimTime,
};
use simty::sim::codec::{line, put, put_alarm_attrs, write_queue, Cursor, Parser};
use simty::sim::CheckpointError;

/// Magic first line of a full snapshot payload.
pub const SNAPSHOT_MAGIC: &str = "serve-live/v1";
/// Magic first line of a tenant-visible digest.
pub const DIGEST_MAGIC: &str = "serve-live-digest/v1";

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
    pub fn register(&mut self, req: &RegisterRequest) -> RegisterOutcome {
        if !is_valid_tenant(&req.tenant) {
            return RegisterOutcome::Invalid {
                code: "bad-tenant",
                detail: format!("tenant must be 1..={MAX_TENANT_LEN} chars of [A-Za-z0-9_.-]"),
            };
        }
        if let Some(ms) = req.now_ms {
            self.advance(ms);
        }
        let now = self.manager.now();

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
            Err(e) => {
                return RegisterOutcome::Invalid {
                    code: "bad-alarm-shape",
                    detail: e.to_string(),
                }
            }
        };

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
            Err(e) => {
                return RegisterOutcome::Invalid {
                    code: "rejected-by-manager",
                    detail: e.to_string(),
                }
            }
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
        let mut out = self.head(DIGEST_MAGIC, 1024);
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
        self.write_admissions(&mut out);
        out.push_str("end\n");
        out
    }

    /// Serializes the complete resumable state for a graceful-shutdown
    /// checkpoint (carried inside a
    /// [`Checkpoint::marker`](simty::sim::Checkpoint::marker) payload).
    pub fn snapshot_payload(&self) -> String {
        let mut out = self.head(SNAPSHOT_MAGIC, 4 * 1024);
        put(&mut out, "config", self.admission.config());
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
        put(&mut out, "admissions", &self.admission.app_count());
        self.write_admissions(&mut out);
        write_queue(&mut out, "wakeup", self.manager.wakeup_queue());
        write_queue(&mut out, "nonwakeup", self.manager.non_wakeup_queue());
        out.push_str("end\n");
        out
    }

    /// The magic, policy and clock lines both views open with.
    fn head(&self, magic: &str, capacity: usize) -> String {
        let mut out = String::with_capacity(capacity);
        let now = self.manager.now().as_millis();
        let _ = writeln!(out, "{magic}\npolicy={}\nclock={now}", self.policy_token);
        out
    }

    /// One `admission=` line per tenant with bucket state, in name order.
    fn write_admissions(&self, out: &mut String) {
        for (name, app) in self.admission.apps() {
            line(out, "admission", |w| w.raw(name).f(app));
        }
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
        let clock = p.take("clock")?;
        let config = p.take("config")?;

        let tenant_count = p.count("tenants")?;
        let mut tenants = BTreeMap::new();
        let mut index = BTreeMap::new();
        for _ in 0..tenant_count {
            let mut r = p.rec("tenant", 8)?;
            let name = tenant(&mut r)?;
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

        let app_count = p.count("admissions")?;
        let mut apps = Vec::with_capacity(app_count);
        for _ in 0..app_count {
            let mut r = p.rec("admission", 8)?;
            let name = tenant(&mut r)?;
            apps.push((name.to_owned(), r.take()?));
        }

        let wakeup = p.queue("wakeup")?;
        let non_wakeup = p.queue("nonwakeup")?;
        if p.line() != Some("end") {
            return Err(p.err("missing `end` terminator"));
        }
        let mut max_id = 0;
        for alarm in [&wakeup, &non_wakeup]
            .into_iter()
            .flat_map(|q| q.entries())
            .flat_map(QueueEntry::alarms)
        {
            if !is_valid_tenant(alarm.label()) {
                return Err(p.err(format!("bad tenant name `{}`", alarm.label())));
            }
            max_id = max_id.max(alarm.id().as_u64());
        }
        if max_id == u64::MAX {
            return Err(p.err(format!("alarm id {max_id} leaves no alarm id to mint")));
        }
        AlarmId::reserve_through(max_id);

        Ok(LiveScheduler {
            policy_token,
            manager: AlarmManager::restore(kind.build(), wakeup, non_wakeup, clock),
            admission: AdmissionController::restore(config, apps),
            tenants,
            index,
            due: Vec::new(),
        })
    }
}

/// The cursor's next field, which must be a valid tenant name (see
/// [`is_valid_tenant`]).
fn tenant<'a>(r: &mut Cursor<'_, 'a>) -> Result<&'a str, CheckpointError> {
    let name = r.raw()?;
    if is_valid_tenant(name) {
        Ok(name)
    } else {
        Err(r.err(format!("bad tenant name `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn invalid_shapes_and_tenants_are_typed_errors() {
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        let bad_tenant = live.register(&RegisterRequest::simple("no spaces", 1_000));
        assert!(matches!(
            bad_tenant,
            RegisterOutcome::Invalid {
                code: "bad-tenant",
                ..
            }
        ));
        let mut zero_repeat = RegisterRequest::simple("a", 1_000);
        zero_repeat.repeat_ms = Some(0);
        assert!(matches!(
            live.register(&zero_repeat),
            RegisterOutcome::Invalid {
                code: "bad-alarm-shape",
                ..
            }
        ));
        let mut stale = RegisterRequest::simple("a", 1_000);
        stale.now_ms = Some(5_000);
        assert!(matches!(
            live.register(&stale),
            RegisterOutcome::Invalid {
                code: "rejected-by-manager",
                ..
            }
        ));
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
            ("admissions", 0),
            ("wakeup", 0),
            ("nonwakeup", 0),
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
        // An alarm id past which no fresh id is left to mint.
        let mut live = LiveScheduler::new("simty").expect("scheduler");
        live.register(&repeating("app", 60_000, 600_000));
        let payload = live.snapshot_payload();
        let line = payload
            .lines()
            .find(|l| l.starts_with("alarm="))
            .expect("an alarm");
        let id = line["alarm=".len()..].split(',').next().expect("an id");
        let hostile = line.replacen(id, &u64::MAX.to_string(), 1);
        let err = LiveScheduler::restore_payload(&payload.replacen(line, &hostile, 1)).unwrap_err();
        assert!(err.contains("no alarm id to mint"), "{err}");
    }
}
