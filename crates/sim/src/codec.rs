//! Shared line-format primitives for the persisted envelopes.
//!
//! Four formats speak the same dialect: the `simty-checkpoint/v1`
//! snapshot ([`crate::checkpoint`]), the `simty-campaign/v1` journal (in
//! `simty-bench`), the [`SimReport`](crate::metrics::SimReport) record
//! codec, and the live scheduler's `serve-live/v1` drain snapshot and
//! `serve-live-digest/v1` state digest (in `simty-serve`). The dialect is
//! line-oriented `key=value` text, comma-separated fields, reserved
//! characters percent-escaped, `f64`s persisted as their exact
//! 16-hex-digit bit patterns, and bodies checksummed with FNV-1a 64.
//!
//! This module is the single home of those primitives and of the codec
//! for the state the checkpoint and the live snapshot share: the alarm
//! line ([`fmt_alarm`], [`fmt_alarm_attrs`], [`Parser::alarm`]), queue
//! blocks of `entry=` lines ([`write_queue`], [`Parser::queue`]),
//! delivery disciplines ([`fmt_discipline`], [`Parser::discipline_of`]),
//! the admission config ([`fmt_admission_config`],
//! [`Parser::admission_config_of`]) and per-app bucket state
//! ([`fmt_app_admission`], [`Parser::app_admission_of`]). One writer and
//! one reader per concept keeps every consumer byte-compatible.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use simty_core::admission::{AdmissionConfig, AppAdmission, ClassQuota, TokenBucket};
use simty_core::alarm::{Alarm, AlarmId, AlarmKind, Repeat};
use simty_core::entry::{DeliveryDiscipline, QueueEntry};
use simty_core::hardware::HardwareSet;
use simty_core::queue::AlarmQueue;
use simty_core::time::{SimDuration, SimTime};

use crate::checkpoint::CheckpointError;

/// FNV-1a 64-bit, the body/record checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Percent-escapes the characters the line format reserves.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2C"),
            ':' => out.push_str("%3A"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Reverses [`esc`]. Invalid escapes pass through verbatim. The escape
/// set is pure ASCII, so multi-byte characters pass through untouched.
#[must_use]
pub fn unesc(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < s.len() {
        if bytes[i] == b'%' && i + 2 < s.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                out.push((hi * 16 + lo) as char);
                i += 3;
                continue;
            }
        }
        let ch = s[i..].chars().next().expect("i is on a char boundary");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// An `f64` as its exact 16-hex-digit bit pattern: round-trips every
/// value (NaN payloads included) with no formatting loss.
#[must_use]
pub fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Reverses [`f64_hex`].
#[must_use]
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// The ten fields of an alarm line after its id and label: nominal,
/// window, base grace, repeat, kind, hardware bits, hardware-known flag,
/// task duration, quarantine flag and grace stretch.
#[must_use]
pub fn fmt_alarm_attrs(a: &Alarm) -> String {
    let repeat = match a.repeat() {
        Repeat::OneShot => "o".to_owned(),
        Repeat::Static(i) => format!("s:{}", i.as_millis()),
        Repeat::Dynamic(i) => format!("d:{}", i.as_millis()),
    };
    format!(
        "{},{},{},{repeat},{},{},{},{},{},{}",
        a.nominal().as_millis(),
        a.window().as_millis(),
        // The registered base grace: `grace()` reports the effective
        // (possibly stretched) value, which is re-derived on restore
        // from the persisted stretch factor below.
        a.grace_base().as_millis(),
        match a.kind() {
            AlarmKind::Wakeup => "w",
            AlarmKind::NonWakeup => "n",
        },
        a.hardware().bits(),
        u8::from(a.is_hardware_known()),
        a.task_duration().as_millis(),
        u8::from(a.is_quarantined()),
        a.grace_stretch(),
    )
}

/// The value of an `alarm=` line: id, escaped label, then
/// [`fmt_alarm_attrs`]. [`Parser::alarm`] reads it back.
#[must_use]
pub fn fmt_alarm(a: &Alarm) -> String {
    format!(
        "{},{},{}",
        a.id().as_u64(),
        esc(a.label()),
        fmt_alarm_attrs(a)
    )
}

/// A delivery discipline as one field; [`Parser::discipline_of`] reads
/// it back.
#[must_use]
pub fn fmt_discipline(d: DeliveryDiscipline) -> String {
    match d {
        DeliveryDiscipline::Window => "window".to_owned(),
        DeliveryDiscipline::PerceptibilityAware => "perc".to_owned(),
        DeliveryDiscipline::Quantized { quantum } => format!("quant:{}", quantum.as_millis()),
        DeliveryDiscipline::Escalating {
            base,
            max_quantum,
            windows_per_level,
        } => format!(
            "esc:{}:{}:{windows_per_level}",
            base.as_millis(),
            max_quantum.as_millis()
        ),
    }
}

/// Appends a queue block: `{key}={entries}`, then per entry one
/// `entry={discipline},{alarms}` line followed by its `alarm=` lines, in
/// queue order. [`Parser::queue`] reads it back.
pub fn write_queue(out: &mut String, key: &str, queue: &AlarmQueue) {
    let _ = writeln!(out, "{key}={}", queue.len());
    for entry in queue.entries() {
        let _ = writeln!(
            out,
            "entry={},{}",
            fmt_discipline(entry.discipline()),
            entry.len()
        );
        for alarm in entry.alarms() {
            let _ = writeln!(out, "alarm={}", fmt_alarm(alarm));
        }
    }
}

/// An admission budget as six fields, in declaration order;
/// [`Parser::admission_config_of`] reads it back.
#[must_use]
pub fn fmt_admission_config(c: &AdmissionConfig) -> String {
    format!(
        "{},{},{},{},{},{}",
        c.perceptible.replenish_every.as_millis(),
        c.perceptible.burst,
        c.deferrable.replenish_every.as_millis(),
        c.deferrable.burst,
        c.defer_limit,
        c.demote_after
    )
}

/// One app's admission state as seven fields, in declaration order (the
/// app name is the caller's); [`Parser::app_admission_of`] reads it back.
#[must_use]
pub fn fmt_app_admission(st: &AppAdmission) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        st.perceptible.tokens,
        st.perceptible.last_refill.as_millis(),
        st.deferrable.tokens,
        st.deferrable.last_refill.as_millis(),
        st.defer_horizon.as_millis(),
        st.rejections,
        u8::from(st.demoted)
    )
}

/// A line-oriented `key=value` parser over a body in the shared dialect.
///
/// Every error is [`CheckpointError::Malformed`] with the 1-based line it
/// was found on. Counts go through [`count_of`](Self::count_of), which
/// bounds them by the body's length, so hostile bytes yield an error
/// rather than a huge allocation.
///
/// Fields are cut by one byte scan per value ([`fields`](Self::fields),
/// [`fields_upto`](Self::fields_upto)), and labels go through a
/// per-parser interner ([`label`](Self::label)), so a label that recurs
/// on many lines is one shared allocation, as it is in the live run.
pub struct Parser<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
    body_len: usize,
    /// Raw (escaped) label field → its unescaped shared form.
    labels: HashMap<&'a str, Arc<str>>,
}

impl<'a> Parser<'a> {
    /// A parser positioned before the first line of `body`.
    #[must_use]
    pub fn new(body: &'a str) -> Self {
        Parser {
            lines: body.lines(),
            line_no: 0,
            body_len: body.len(),
            labels: HashMap::new(),
        }
    }

    /// A [`CheckpointError::Malformed`] at the current line.
    pub fn err(&self, message: impl Into<String>) -> CheckpointError {
        CheckpointError::Malformed {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// Consumes the next line as it is, whatever its shape.
    pub fn line(&mut self) -> Option<&'a str> {
        let line = self.lines.next()?;
        self.line_no += 1;
        Some(line)
    }

    /// Consumes the next line only if it is `key=...`, returning its
    /// value; leaves the parser untouched otherwise. For keys newer
    /// captures may write that older bodies lack.
    pub fn opt_kv(&mut self, key: &str) -> Option<&'a str> {
        let mut look = self.lines.clone();
        let (k, v) = look.next()?.split_once('=')?;
        if k != key {
            return None;
        }
        self.lines = look;
        self.line_no += 1;
        Some(v)
    }

    /// Consumes the next line, which must be `key=...`, returning its
    /// value.
    pub fn kv(&mut self, key: &str) -> Result<&'a str, CheckpointError> {
        let line = self.line().ok_or_else(|| CheckpointError::Malformed {
            line: self.line_no + 1,
            message: format!("unexpected end of body (wanted `{key}`)"),
        })?;
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| self.err(format!("expected `{key}=...`, found `{line}`")))?;
        if k != key {
            return Err(self.err(format!("expected key `{key}`, found `{k}`")));
        }
        Ok(v)
    }

    /// Parses a decimal `u64`.
    pub fn u64_of(&self, s: &str) -> Result<u64, CheckpointError> {
        s.parse()
            .map_err(|_| self.err(format!("invalid integer `{s}`")))
    }

    /// Parses a decimal `u32`.
    pub fn u32_of(&self, s: &str) -> Result<u32, CheckpointError> {
        s.parse()
            .map_err(|_| self.err(format!("invalid integer `{s}`")))
    }

    /// Parses a decimal `usize`.
    pub fn usize_of(&self, s: &str) -> Result<usize, CheckpointError> {
        s.parse()
            .map_err(|_| self.err(format!("invalid integer `{s}`")))
    }

    /// Parses the count of the items that follow. Every counted item
    /// takes at least one line or field of the body, so a count larger
    /// than the body's byte length cannot be honest and is refused
    /// before anything loops or allocates on it.
    pub fn count_of(&self, s: &str) -> Result<usize, CheckpointError> {
        let n = self.usize_of(s)?;
        if n > self.body_len {
            return Err(self.err(format!(
                "count {n} exceeds the body's {} bytes",
                self.body_len
            )));
        }
        Ok(n)
    }

    /// Parses a `0`/`1` flag.
    pub fn bool_of(&self, s: &str) -> Result<bool, CheckpointError> {
        match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.err(format!("invalid flag `{s}`"))),
        }
    }

    /// Parses an `f64` written by [`f64_hex`].
    pub fn f64_of(&self, s: &str) -> Result<f64, CheckpointError> {
        f64_from_hex(s).ok_or_else(|| self.err(format!("invalid float bits `{s}`")))
    }

    /// Parses a time in milliseconds.
    pub fn time(&self, s: &str) -> Result<SimTime, CheckpointError> {
        Ok(SimTime::from_millis(self.u64_of(s)?))
    }

    /// Parses a duration in milliseconds.
    pub fn dur(&self, s: &str) -> Result<SimDuration, CheckpointError> {
        Ok(SimDuration::from_millis(self.u64_of(s)?))
    }

    /// Parses a time in milliseconds, or `none`.
    pub fn opt_time(&self, s: &str) -> Result<Option<SimTime>, CheckpointError> {
        if s == "none" {
            Ok(None)
        } else {
            Ok(Some(self.time(s)?))
        }
    }

    /// Reads a `key=<count>` line (see [`count_of`](Self::count_of)).
    pub fn count(&mut self, key: &str) -> Result<usize, CheckpointError> {
        self.kv(key).and_then(|v| self.count_of(v))
    }

    /// Reads a `key=<time>` line.
    pub fn kv_time(&mut self, key: &str) -> Result<SimTime, CheckpointError> {
        self.kv(key).and_then(|v| self.time(v))
    }

    /// Reads a `key=<duration>` line.
    pub fn kv_dur(&mut self, key: &str) -> Result<SimDuration, CheckpointError> {
        self.kv(key).and_then(|v| self.dur(v))
    }

    /// Reads a `key=<u64>` line.
    pub fn kv_u64(&mut self, key: &str) -> Result<u64, CheckpointError> {
        self.kv(key).and_then(|v| self.u64_of(v))
    }

    /// Reads a `key=<u32>` line.
    pub fn kv_u32(&mut self, key: &str) -> Result<u32, CheckpointError> {
        self.kv(key).and_then(|v| self.u32_of(v))
    }

    /// Reads a `key=<flag>` line.
    pub fn kv_bool(&mut self, key: &str) -> Result<bool, CheckpointError> {
        self.kv(key).and_then(|v| self.bool_of(v))
    }

    /// Reads a `key=<f64 bits>` line.
    pub fn kv_f64(&mut self, key: &str) -> Result<f64, CheckpointError> {
        self.kv(key).and_then(|v| self.f64_of(v))
    }

    /// Reads a `key=<time or none>` line.
    pub fn kv_opt_time(&mut self, key: &str) -> Result<Option<SimTime>, CheckpointError> {
        self.kv(key).and_then(|v| self.opt_time(v))
    }

    /// Splits a comma-separated value into exactly `N` raw fields.
    pub fn fields<const N: usize>(&self, value: &'a str) -> Result<[&'a str; N], CheckpointError> {
        match Self::fields_upto::<N>(value, b',') {
            (out, n) if n == N => Ok(out),
            (_, n) => Err(self.err(format!("expected {N} fields, got {n}"))),
        }
    }

    /// Splits `value` at every `sep` byte in one scan: the first `N`
    /// fields (empty past the last one) and the true field count, which
    /// may exceed `N`. For lines whose arity a field of their own
    /// declares. `sep` must be ASCII, so every cut falls on a char
    /// boundary.
    pub fn fields_upto<const N: usize>(value: &'a str, sep: u8) -> ([&'a str; N], usize) {
        debug_assert!(sep.is_ascii(), "separator {sep:#x} is not ASCII");
        let mut out = [""; N];
        let mut n = 0;
        let mut start = 0;
        for (i, &b) in value.as_bytes().iter().enumerate() {
            if b == sep {
                if let Some(slot) = out.get_mut(n) {
                    *slot = &value[start..i];
                }
                n += 1;
                start = i + 1;
            }
        }
        if let Some(slot) = out.get_mut(n) {
            *slot = &value[start..];
        }
        (out, n + 1)
    }

    /// The unescaped label of a raw field, shared with every earlier
    /// field of the same bytes: one allocation per distinct label (two
    /// when it holds an escape), none for a repeat.
    pub fn label(&mut self, raw: &'a str) -> Arc<str> {
        Arc::clone(self.labels.entry(raw).or_insert_with(|| {
            if raw.contains('%') {
                unesc(raw).into()
            } else {
                raw.into()
            }
        }))
    }

    /// Reads a `key=` line whose value has exactly `N` fields.
    pub fn kv_fields<const N: usize>(
        &mut self,
        key: &str,
    ) -> Result<[&'a str; N], CheckpointError> {
        self.kv(key).and_then(|v| self.fields(v))
    }

    /// Reads an `alarm=` line written by [`fmt_alarm`].
    pub fn alarm(&mut self) -> Result<Alarm, CheckpointError> {
        let f = self.kv_fields::<12>("alarm")?;
        let repeat = self.repeat_of(f[5])?;
        let kind = self.kind_of(f[6])?;
        Ok(Alarm::restore(
            AlarmId::from_raw(self.u64_of(f[0])?),
            self.label(f[1]),
            self.time(f[2])?,
            self.dur(f[3])?,
            self.dur(f[4])?,
            repeat,
            kind,
            self.hardware_of(f[7])?,
            self.bool_of(f[8])?,
            self.dur(f[9])?,
            self.bool_of(f[10])?,
            self.u32_of(f[11])?,
        ))
    }

    /// Parses a repeat field: `o`, `s:<ms>` or `d:<ms>`.
    pub fn repeat_of(&self, s: &str) -> Result<Repeat, CheckpointError> {
        if s == "o" {
            return Ok(Repeat::OneShot);
        }
        let (tag, ms) = s
            .split_once(':')
            .ok_or_else(|| self.err(format!("invalid repeat `{s}`")))?;
        let interval = self.dur(ms)?;
        match tag {
            "s" => Ok(Repeat::Static(interval)),
            "d" => Ok(Repeat::Dynamic(interval)),
            _ => Err(self.err(format!("invalid repeat `{s}`"))),
        }
    }

    /// Parses an alarm kind: `w` or `n`.
    pub fn kind_of(&self, s: &str) -> Result<AlarmKind, CheckpointError> {
        match s {
            "w" => Ok(AlarmKind::Wakeup),
            "n" => Ok(AlarmKind::NonWakeup),
            _ => Err(self.err(format!("invalid alarm kind `{s}`"))),
        }
    }

    /// Parses a hardware set's component bits.
    pub fn hardware_of(&self, s: &str) -> Result<HardwareSet, CheckpointError> {
        let bits: u16 = s
            .parse()
            .map_err(|_| self.err(format!("invalid hardware bits `{s}`")))?;
        Ok(HardwareSet::from_bits(bits))
    }

    /// Parses a field written by [`fmt_discipline`].
    pub fn discipline_of(&self, s: &str) -> Result<DeliveryDiscipline, CheckpointError> {
        let mut it = s.split(':');
        match it.next() {
            Some("window") => Ok(DeliveryDiscipline::Window),
            Some("perc") => Ok(DeliveryDiscipline::PerceptibilityAware),
            Some("quant") => {
                let q = it.next().ok_or_else(|| self.err("quant without quantum"))?;
                Ok(DeliveryDiscipline::Quantized {
                    quantum: self.dur(q)?,
                })
            }
            Some("esc") => {
                let mut next = || it.next().ok_or_else(|| self.err("esc needs 3 parameters"));
                let base = self.dur(next()?)?;
                let max_quantum = self.dur(next()?)?;
                let windows_per_level = self.u32_of(next()?)?;
                Ok(DeliveryDiscipline::Escalating {
                    base,
                    max_quantum,
                    windows_per_level,
                })
            }
            _ => Err(self.err(format!("invalid discipline `{s}`"))),
        }
    }

    /// Reads a queue block written by [`write_queue`] under `key`.
    pub fn queue(&mut self, key: &str) -> Result<AlarmQueue, CheckpointError> {
        let entries = self.count(key)?;
        let mut queue = AlarmQueue::new();
        queue.reserve(entries);
        for _ in 0..entries {
            let f = self.kv_fields::<2>("entry")?;
            let discipline = self.discipline_of(f[0])?;
            let alarms = self.count_of(f[1])?;
            if alarms == 0 {
                return Err(self.err("entry with zero alarms"));
            }
            let mut entry = QueueEntry::new(self.alarm()?, discipline);
            for _ in 1..alarms {
                entry.push(self.alarm()?);
            }
            // Entries were recorded in queue order and `insert_entry`
            // appends after equal delivery times, so order is preserved.
            queue.insert_entry(entry);
        }
        Ok(queue)
    }

    /// Parses the six fields written by [`fmt_admission_config`].
    pub fn admission_config_of(&self, f: [&str; 6]) -> Result<AdmissionConfig, CheckpointError> {
        Ok(AdmissionConfig {
            perceptible: ClassQuota {
                replenish_every: self.dur(f[0])?,
                burst: self.u32_of(f[1])?,
            },
            deferrable: ClassQuota {
                replenish_every: self.dur(f[2])?,
                burst: self.u32_of(f[3])?,
            },
            defer_limit: self.u32_of(f[4])?,
            demote_after: self.u32_of(f[5])?,
        })
    }

    /// Parses the seven fields written by [`fmt_app_admission`].
    pub fn app_admission_of(&self, f: [&str; 7]) -> Result<AppAdmission, CheckpointError> {
        Ok(AppAdmission {
            perceptible: TokenBucket {
                tokens: self.u32_of(f[0])?,
                last_refill: self.time(f[1])?,
            },
            deferrable: TokenBucket {
                tokens: self.u32_of(f[2])?,
                last_refill: self.time(f[3])?,
            },
            defer_horizon: self.time(f[4])?,
            rejections: self.u32_of(f[5])?,
            demoted: self.bool_of(f[6])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_reserved_characters() {
        for s in [
            "plain",
            "a,b:c",
            "100%",
            "line\nbreak",
            "cr\rlf",
            "%2C literal",
            "β=0.5 → naïve ✓",
            "%β",
        ] {
            assert_eq!(unesc(&esc(s)), s, "round-trip failed for {s:?}");
        }
    }

    #[test]
    fn f64_hex_round_trips_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let back = f64_from_hex(&f64_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(f64_from_hex(&f64_hex(f64::NAN)).unwrap().is_nan());
        assert_eq!(f64_from_hex("zz"), None);
    }

    #[test]
    fn the_byte_splitter_counts_every_field_and_keeps_the_first_n() {
        for value in ["", "a", "a,b", ",", "a,,b,", "β,ü,✓", "1,2,3,4,5,6"] {
            let want: Vec<&str> = value.split(',').collect();
            let (got, n) = Parser::fields_upto::<3>(value, b',');
            assert_eq!(n, want.len(), "{value:?}");
            for (i, field) in got.iter().enumerate() {
                assert_eq!(*field, want.get(i).copied().unwrap_or(""), "{value:?}");
            }
        }
        assert_eq!(
            Parser::fields_upto::<5>("1.2.h.-.w", b'.'),
            (["1", "2", "h", "-", "w"], 5)
        );
        let p = Parser::new("");
        assert_eq!(p.fields::<2>("a,b").unwrap(), ["a", "b"]);
        for (value, got) in [("a", 1), ("a,b,c", 3)] {
            match p.fields::<2>(value) {
                Err(CheckpointError::Malformed { message, .. }) => {
                    assert_eq!(message, format!("expected 2 fields, got {got}"));
                }
                other => panic!("{value}: {other:?}"),
            }
        }
    }

    #[test]
    fn labels_are_unescaped_and_shared() {
        let mut p = Parser::new("");
        let a = p.label("a%2Cb");
        assert_eq!(&*a, "a,b");
        assert!(Arc::ptr_eq(&a, &p.label("a%2Cb")));
        assert_eq!(&*p.label("naïve"), "naïve");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
