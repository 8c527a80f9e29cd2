//! Shared line-format primitives for the persisted envelopes.
//!
//! Four formats speak the same dialect: the `simty-checkpoint/v2`
//! snapshot ([`crate::checkpoint`]), the `simty-campaign/v1` journal (in
//! `simty-bench`), the [`SimReport`](crate::metrics::SimReport) record
//! codec, and the live scheduler's `serve-live/v1` drain snapshot and
//! `serve-live-digest/v1` state digest (in `simty-serve`). The dialect is
//! line-oriented `key=value` text, comma-separated fields, reserved
//! characters percent-escaped, and `f64`s persisted as their exact
//! 16-hex-digit bit patterns.
//!
//! Two checksums seal what is persisted. [`wordsum64`] is the
//! word-wise sum of a `simty-checkpoint/v2` body, whose hundreds of
//! kilobytes a byte-serial hash would spend most of encode and decode
//! on. [`fnv1a64`] seals the journal's small records and the
//! `simty-checkpoint/v1` bodies older builds wrote, and is the digest
//! the golden tests pin.
//!
//! Every value is written and read through two typed layers, so one impl
//! holds both halves of each wire form:
//!
//! * **Fields.** A [`Field`] appends its text through a [`Put`] and reads
//!   it back from a [`Cursor`]: integers, `0`/`1` flags, hex-bit `f64`s,
//!   millisecond times and durations, `none`-able options, escaped and
//!   interned strings, hardware bits, alarm kinds, and tagged enums
//!   (`tag:param:param`, [`Put::tag`] / [`Cursor::tag`]).
//! * **Records.** A struct written as its fields in order is declared once
//!   with `record!`: flat records spread over a line's commas, nested
//!   ones sit in one field with their own separator. A line is
//!   [`put`] / [`Parser::take`]; a counted list (`key=N`, then N item
//!   lines) is [`put_list`] / [`Parser::list`]. A line whose field
//!   count differs from the record's [`Field::ARITY`] is an error naming
//!   both counts, whichever field the reader stumbled on.
//!
//! The alarm ([`Alarm`]), queue-block ([`write_queue`],
//! [`Parser::queue`]), discipline and admission codecs live here because
//! the checkpoint and the live snapshot share them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use simty_core::admission::{AdmissionConfig, AppAdmission, ClassQuota, TokenBucket};
use simty_core::alarm::{Alarm, AlarmId, AlarmKind, Repeat};
use simty_core::entry::{DeliveryDiscipline, QueueEntry};
use simty_core::hardware::HardwareSet;
use simty_core::queue::AlarmQueue;
use simty_core::time::{SimDuration, SimTime};

use crate::checkpoint::CheckpointError;

/// FNV-1a 64-bit: the journal's record checksum, the `simty-checkpoint/v1`
/// body checksum, and the digest every golden test pins.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The odd multiplier of [`wordsum64`]'s step.
const WORDSUM_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One [`wordsum64`] step: a bijection of `lane` for a fixed `word` and
/// of `word` for a fixed `lane` (xor, a multiply by an odd constant and a
/// rotation each invert).
fn wordsum_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(WORDSUM_K).rotate_left(31)
}

/// The little-endian word of `bytes` (at most 8), zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The word-wise checksum of a `simty-checkpoint/v2` body.
///
/// Four independent lanes each take every fourth little-endian 64-bit
/// word of the 32-byte blocks, so a large body costs a small fraction of
/// the byte-serial [`fnv1a64`], which waits on one multiply per byte.
/// The lanes are then folded into one, and
/// the < 32-byte tail (as zero-padded words), the length and a final
/// xorshift-multiply are folded in after them, each through a bijective
/// step. Every step maps distinct inputs to distinct outputs, so a change
/// confined to one aligned 8-byte word, and with it every single-bit
/// flip, always changes the sum. Little-endian words make the value the
/// same on every host.
#[must_use]
pub fn wordsum64(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = wordsum_step(*lane, le_word(word));
        }
    }
    let mut sum = lanes[0];
    for &lane in &lanes[1..] {
        sum = wordsum_step(sum, lane);
    }
    for word in blocks.remainder().chunks(8) {
        sum = wordsum_step(sum, le_word(word));
    }
    sum = wordsum_step(sum, bytes.len() as u64);
    sum ^= sum >> 32;
    sum = sum.wrapping_mul(WORDSUM_K);
    sum ^ (sum >> 29)
}

/// Percent-escapes the characters the line format reserves.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
    out
}

/// Appends `s` to `out`, percent-escaped as by [`esc`].
fn esc_into(out: &mut String, s: &str) {
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
}

/// How many `sep`-separated fields `value` holds.
fn fields_in(value: &str, sep: u8) -> usize {
    value.bytes().filter(|&b| b == sep).count() + 1
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

/// One value's wire form: [`put`](Self::put) writes it, and
/// [`take`](Self::take) reads back exactly what `put` wrote.
pub trait Field: Sized {
    /// How many separated fields the form spans on its line: one for a
    /// value or a nested record, the sum of its fields for a flat one.
    const ARITY: usize = 1;

    /// Appends the form, one [`Put::field`] per separated field.
    fn put(&self, w: &mut Put<'_>);

    /// Reads the form from the cursor's next [`ARITY`](Self::ARITY)
    /// fields; a field that does not parse is an error.
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError>;
}

/// Declares a struct's wire form as its named fields, in order, so the
/// writer and the reader cannot disagree.
///
/// `record!(Ty: a, b: Sub, c)` is a flat record spread over its line's
/// fields (a field naming its type may itself be a flat record);
/// `record!(Ty in ':': a, b)` nests the fields in one field, separated by
/// `':'`.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_record {
    (@arity) => { 1 };
    (@arity $ty:ty) => { <$ty as $crate::codec::Field>::ARITY };
    ($ty:ident: $($f:ident $(: $fty:ty)?),+) => {
        impl $crate::codec::Field for $ty {
            const ARITY: usize = 0 $(+ $crate::codec::record!(@arity $($fty)?))+;
            fn put(&self, w: &mut $crate::codec::Put<'_>) {
                $(self.$f.put(w);)+
            }
            fn take(
                r: &mut $crate::codec::Cursor<'_, '_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self { $($f: r.take()?,)+ })
            }
        }
    };
    ($ty:ident in $sep:literal: $($f:ident),+) => {
        impl $crate::codec::Field for $ty {
            fn put(&self, w: &mut $crate::codec::Put<'_>) {
                let mut w = w.nested($sep);
                $(self.$f.put(&mut w);)+
            }
            fn take(
                r: &mut $crate::codec::Cursor<'_, '_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                let mut r = r.nested($sep, [$(stringify!($f)),+].len())?;
                Ok(Self { $($f: r.take()?,)+ })
            }
        }
    };
}
#[doc(inline)]
pub use crate::__codec_record as record;

/// Declares a fieldless enum's wire form, one name per variant:
/// `names!(Ty "what" { A = "a", B = "b" })`; an unknown name is an
/// `invalid what` error.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_names {
    ($ty:ident, $what:literal { $($v:ident = $name:literal),+ $(,)? }) => {
        impl $crate::codec::Field for $ty {
            fn put(&self, w: &mut $crate::codec::Put<'_>) {
                w.raw(match self { $(Self::$v => $name),+ });
            }
            fn take(
                r: &mut $crate::codec::Cursor<'_, '_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                match r.raw()? {
                    $($name => Ok(Self::$v),)+
                    raw => Err(r.err(format!(concat!("invalid ", $what, " `{}`"), raw))),
                }
            }
        }
    };
}
#[doc(inline)]
pub use crate::__codec_names as names;

/// Declares an enum's tagged wire form, `tag:param:param`, one variant
/// per entry: `tagged!(Ty, "what" { A = "a", B(x) = "b", C { x, y } =
/// "c" })` writes a variant's fields in the listed order and reads them
/// back in it; an unknown tag is an `invalid what` error.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_tagged {
    ($ty:ident, $what:literal {
        $($v:ident $(($t:ident))? $({ $($f:ident),+ })? = $tag:literal),+ $(,)?
    }) => {
        impl $crate::codec::Field for $ty {
            fn put(&self, w: &mut $crate::codec::Put<'_>) {
                match self {
                    $(Self::$v $(($t))? $({ $($f),+ })? => {
                        w.tag($tag)$(.f($t))?$($(.f($f))+)?;
                    })+
                }
            }
            fn take(
                r: &mut $crate::codec::Cursor<'_, '_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                let (tag, mut a) = r.tag()?;
                Ok(match tag {
                    $($tag => Self::$v $(({ let $t = a.take()?; $t }))? $({ $($f: a.take()?),+ })?,)+
                    _ => return Err(a.err(format!(concat!("invalid ", $what, " `{}`"), tag))),
                })
            }
        }
    };
}
#[doc(inline)]
pub use crate::__codec_tagged as tagged;

/// The writer half: appends separated fields to a body.
pub struct Put<'o> {
    out: &'o mut String,
    sep: char,
    lead: bool,
}

impl<'o> Put<'o> {
    /// A writer whose fields are separated by `sep`.
    pub fn new(out: &'o mut String, sep: char) -> Self {
        Put {
            out,
            sep,
            lead: false,
        }
    }

    /// Starts the next field (after a separator unless it is the first)
    /// and returns the buffer to write it into.
    pub fn field(&mut self) -> &mut String {
        if self.lead {
            self.out.push(self.sep);
        }
        self.lead = true;
        self.out
    }

    /// Writes `v` as the next field(s).
    pub fn f<T: Field>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }

    /// Writes `s`, as it is, as the next field.
    pub fn raw(&mut self, s: &str) -> &mut Self {
        self.field().push_str(s);
        self
    }

    /// Writes `s`, escaped, as the next field.
    pub fn esc(&mut self, s: &str) -> &mut Self {
        esc_into(self.field(), s);
        self
    }

    /// Writes `key=` and `v` as the next field ([`Cursor::named`]).
    pub fn named<T: Field>(&mut self, key: &str, v: &T) -> &mut Self {
        let out = self.field();
        out.push_str(key);
        out.push('=');
        v.put(&mut Put::new(out, ','));
        self
    }

    /// A writer for one field made of `sep`-separated parts.
    pub fn nested(&mut self, sep: char) -> Put<'_> {
        Put::new(self.field(), sep)
    }

    /// A writer for one tagged field: `tag`, then `:`-separated
    /// parameters ([`Cursor::tag`]).
    pub fn tag(&mut self, tag: &str) -> Put<'_> {
        let mut w = self.nested(':');
        w.field().push_str(tag);
        w
    }
}

/// `v` as one value of `,`-separated fields, for a record that travels
/// inside another format's field ([`decode`]).
pub fn encode<T: Field>(v: &T) -> String {
    let mut out = String::new();
    v.put(&mut Put::new(&mut out, ','));
    out
}

/// Reads a value written by [`encode`].
///
/// # Errors
///
/// [`CheckpointError::Malformed`] when `value` is not a `T`.
pub fn decode<T: Field>(value: &str) -> Result<T, CheckpointError> {
    Parser::new(value).value(value)
}

/// Appends a `key=` line holding `v` ([`Parser::take`]).
pub fn put<T: Field>(out: &mut String, key: &str, v: &T) {
    line(out, key, |w| w.f(v));
}

/// Appends a `key=` line whose fields `fields` writes.
pub fn line(
    out: &mut String,
    key: &str,
    fields: impl for<'w, 'o> FnOnce(&'w mut Put<'o>) -> &'w mut Put<'o>,
) {
    out.push_str(key);
    out.push('=');
    fields(&mut Put::new(out, ','));
    out.push('\n');
}

/// Appends a counted list: `key={n}`, then one `item=` line per value
/// ([`Parser::list`]).
pub fn put_list<'i, T: Field + 'i>(
    out: &mut String,
    key: &str,
    item: &str,
    items: impl ExactSizeIterator<Item = &'i T>,
) {
    put(out, key, &items.len());
    for v in items {
        put(out, item, v);
    }
}

/// The reader half: the fields of one value, taken in order.
pub struct Cursor<'p, 'a> {
    p: &'p mut Parser<'a>,
    /// The fields not taken yet, or `None` once the last one is.
    rest: Option<&'a str>,
    /// The ASCII separator between fields.
    sep: u8,
    /// The whole value, for error messages.
    raw: &'a str,
    /// The field count the reader expects, or 0 for a tag's parameters.
    expected: usize,
}

impl<'p, 'a> Cursor<'p, 'a> {
    fn new(p: &'p mut Parser<'a>, raw: &'a str, sep: char, expected: usize) -> Self {
        debug_assert!(sep.is_ascii(), "separator {sep:?} is not ASCII");
        Cursor {
            p,
            rest: Some(raw),
            sep: sep as u8,
            raw,
            expected,
        }
    }

    /// The next raw field, or an error once every field is taken.
    #[inline]
    pub fn raw(&mut self) -> Result<&'a str, CheckpointError> {
        let Some(rest) = self.rest else {
            return Err(self.missing());
        };
        // The separator is ASCII, so both cuts fall on char boundaries.
        Ok(match rest.bytes().position(|b| b == self.sep) {
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                &rest[..i]
            }
            None => {
                self.rest = None;
                rest
            }
        })
    }

    #[cold]
    fn missing(&self) -> CheckpointError {
        if self.expected == 0 {
            self.err(format!("`{}` is missing a parameter", self.raw))
        } else {
            self.p.arity_err(self.raw, self.sep, self.expected)
        }
    }

    /// Reads the next value.
    pub fn take<T: Field>(&mut self) -> Result<T, CheckpointError> {
        T::take(self)
    }

    /// Reads the next field as a count ([`Parser::count_of`]).
    pub fn count(&mut self) -> Result<usize, CheckpointError> {
        let raw = self.raw()?;
        self.p.count_of(raw)
    }

    /// Reads a `key=` field written by [`Put::named`].
    pub fn named<T: Field>(&mut self, key: &str) -> Result<T, CheckpointError> {
        let raw = self.raw()?;
        let value = raw
            .strip_prefix(key)
            .and_then(|v| v.strip_prefix('='))
            .ok_or_else(|| self.err(format!("expected `{key}=`, found `{raw}`")))?;
        self.p.value(value)
    }

    /// A cursor over the next field's `sep`-separated parts, of which
    /// there must be `arity`.
    pub fn nested(&mut self, sep: char, arity: usize) -> Result<Cursor<'_, 'a>, CheckpointError> {
        let raw = self.raw()?;
        self.p.cut(raw, sep, arity)
    }

    /// The next field's tag and a cursor over its `:`-separated
    /// parameters ([`Put::tag`]).
    pub fn tag(&mut self) -> Result<(&'a str, Cursor<'_, 'a>), CheckpointError> {
        let raw = self.raw()?;
        let mut params = Cursor::new(self.p, raw, ':', 0);
        let tag = params.raw()?;
        Ok((tag, params))
    }

    /// The next field without consuming it.
    pub fn peek(&self) -> Option<&'a str> {
        let rest = self.rest?;
        Some(rest.split(self.sep as char).next().unwrap_or(rest))
    }

    /// The parser underneath, for its interner.
    pub fn parser(&mut self) -> &mut Parser<'a> {
        self.p
    }

    /// A [`CheckpointError::Malformed`] at the current line.
    pub fn err(&self, message: impl Into<String>) -> CheckpointError {
        self.p.err(message)
    }
}

macro_rules! int_fields {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn put(&self, w: &mut Put<'_>) {
                let _ = write!(w.field(), "{self}");
            }
            #[inline]
            fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
                let raw = r.raw()?;
                raw.parse().map_err(|_| r.err(format!("invalid integer `{raw}`")))
            }
        }
    )+};
}
int_fields!(u8, u16, u32, u64, usize);

impl Field for bool {
    fn put(&self, w: &mut Put<'_>) {
        w.field().push(if *self { '1' } else { '0' });
    }
    #[inline]
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        match r.raw()? {
            "0" => Ok(false),
            "1" => Ok(true),
            raw => Err(r.err(format!("invalid flag `{raw}`"))),
        }
    }
}

/// The exact 16-hex-digit bit pattern, which round-trips every value
/// (NaN payloads included) with no formatting loss.
impl Field for f64 {
    fn put(&self, w: &mut Put<'_>) {
        let _ = write!(w.field(), "{:016x}", self.to_bits());
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let raw = r.raw()?;
        let bits = u64::from_str_radix(raw, 16);
        bits.map(f64::from_bits)
            .map_err(|_| r.err(format!("invalid float bits `{raw}`")))
    }
}

/// Values written as one of their integers.
macro_rules! int_mapped_fields {
    ($($t:ty: $to:path, $from:path);+) => {$(
        impl Field for $t {
            fn put(&self, w: &mut Put<'_>) {
                $to(*self).put(w);
            }
            #[inline]
            fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
                r.take().map($from)
            }
        }
    )+};
}
int_mapped_fields!(
    SimTime: SimTime::as_millis, SimTime::from_millis;
    SimDuration: SimDuration::as_millis, SimDuration::from_millis;
    AlarmId: AlarmId::as_u64, AlarmId::from_raw;
    HardwareSet: HardwareSet::bits, HardwareSet::from_bits;
    Duration: whole_millis, Duration::from_millis
);

/// A host duration's whole milliseconds, saturating.
fn whole_millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Nothing: one empty field.
impl Field for () {
    fn put(&self, w: &mut Put<'_>) {
        w.field();
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        match r.raw()? {
            "" => Ok(()),
            raw => Err(r.err(format!("expected an empty field, found `{raw}`"))),
        }
    }
}

/// `none`, or the value.
impl<T: Field> Field for Option<T> {
    const ARITY: usize = T::ARITY;
    fn put(&self, w: &mut Put<'_>) {
        match self {
            None => w.field().push_str("none"),
            Some(v) => v.put(w),
        }
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        if r.peek() == Some("none") {
            r.raw()?;
            return Ok(None);
        }
        T::take(r).map(Some)
    }
}

/// Escaped; unescaped on read.
impl Field for String {
    fn put(&self, w: &mut Put<'_>) {
        w.esc(self);
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        r.raw().map(unesc)
    }
}

/// Escaped; read through the parser's interner ([`Parser::label`]).
impl Field for Arc<str> {
    fn put(&self, w: &mut Put<'_>) {
        w.esc(self);
    }
    #[inline]
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let raw = r.raw()?;
        Ok(r.p.label(raw))
    }
}

macro_rules! tuple_fields {
    ($(($($t:ident $i:tt),+)),+) => {$(
        /// The values, one after the other.
        impl<$($t: Field),+> Field for ($($t,)+) {
            const ARITY: usize = 0 $(+ $t::ARITY)+;
            fn put(&self, w: &mut Put<'_>) {
                $(self.$i.put(w);)+
            }
            fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
                Ok(($(r.take::<$t>()?,)+))
            }
        }
    )+};
}
tuple_fields!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3));

/// `N` values, one after the other.
impl<T: Field + Copy + Default, const N: usize> Field for [T; N] {
    const ARITY: usize = N * T::ARITY;
    fn put(&self, w: &mut Put<'_>) {
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = r.take()?;
        }
        Ok(out)
    }
}

names!(AlarmKind, "alarm kind" { Wakeup = "w", NonWakeup = "n" });

tagged!(Repeat, "repeat" {
    OneShot = "o",
    Static(interval) = "s",
    Dynamic(interval) = "d",
});

tagged!(DeliveryDiscipline, "discipline" {
    Window = "window",
    PerceptibilityAware = "perc",
    Quantized { quantum } = "quant",
    Escalating { base, max_quantum, windows_per_level } = "esc",
});

/// Writes the ten fields of an alarm after its id and label: nominal,
/// window, base grace, repeat, kind, hardware bits, hardware-known flag,
/// task duration, quarantine flag and grace stretch.
pub fn put_alarm_attrs(w: &mut Put<'_>, a: &Alarm) {
    w.f(&a.nominal())
        .f(&a.window())
        // The registered base grace: `grace()` reports the effective
        // (possibly stretched) value, which is re-derived on restore
        // from the persisted stretch factor below.
        .f(&a.grace_base())
        .f(&a.repeat())
        .f(&a.kind())
        .f(&a.hardware())
        .f(&a.is_hardware_known())
        .f(&a.task_duration())
        .f(&a.is_quarantined())
        .f(&a.grace_stretch());
}

/// An `alarm=` line's value: id, escaped label, then
/// [`put_alarm_attrs`].
impl Field for Alarm {
    const ARITY: usize = 12;
    fn put(&self, w: &mut Put<'_>) {
        w.f(&self.id()).esc(self.label());
        put_alarm_attrs(w, self);
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        Ok(Alarm::restore(
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
            r.take()?,
        ))
    }
}

record!(ClassQuota: replenish_every, burst);
record!(TokenBucket: tokens, last_refill);
record!(AdmissionConfig: perceptible: ClassQuota, deferrable: ClassQuota, defer_limit, demote_after);
record!(AppAdmission: perceptible: TokenBucket, deferrable: TokenBucket, defer_horizon, rejections, demoted);

/// Appends a queue block: `{key}={entries}`, then per entry one
/// `entry={discipline},{alarms}` line followed by its `alarm=` lines, in
/// queue order. [`Parser::queue`] reads it back.
pub fn write_queue(out: &mut String, key: &str, queue: &AlarmQueue) {
    put(out, key, &queue.len());
    for entry in queue.entries() {
        line(out, "entry", |w| w.f(&entry.discipline()).f(&entry.len()));
        for alarm in entry.alarms() {
            put(out, "alarm", alarm);
        }
    }
}

/// A line-oriented `key=value` parser over a body in the shared dialect.
///
/// Every error is [`CheckpointError::Malformed`] with the 1-based line it
/// was found on. Counts go through [`count_of`](Self::count_of), which
/// bounds them by the body's length, so hostile bytes yield an error
/// rather than a huge allocation.
///
/// Fields are cut by byte scans, never collected into a `Vec`, and
/// labels go through a per-parser interner ([`label`](Self::label)), so
/// a label that recurs on many lines is one shared allocation, as it is
/// in the live run.
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

    /// Consumes the next line, which must be `key=...`, returning its
    /// value.
    #[inline]
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

    /// Parses the count of the items that follow. Every counted item
    /// takes at least one line or field of the body, so a count larger
    /// than the body's byte length cannot be honest and is refused
    /// before anything loops or allocates on it.
    pub fn count_of(&self, s: &str) -> Result<usize, CheckpointError> {
        let n: usize = s
            .parse()
            .map_err(|_| self.err(format!("invalid integer `{s}`")))?;
        if n > self.body_len {
            return Err(self.err(format!(
                "count {n} exceeds the body's {} bytes",
                self.body_len
            )));
        }
        Ok(n)
    }

    /// Reads a `key=<count>` line (see [`count_of`](Self::count_of)).
    pub fn count(&mut self, key: &str) -> Result<usize, CheckpointError> {
        self.kv(key).and_then(|v| self.count_of(v))
    }

    /// A cursor over `value`'s `sep`-separated fields, of which there
    /// must be `arity` — or the one field `none`, the form of an absent
    /// optional record.
    #[inline]
    pub fn cut<'p>(
        &'p mut self,
        value: &'a str,
        sep: char,
        arity: usize,
    ) -> Result<Cursor<'p, 'a>, CheckpointError> {
        if fields_in(value, sep as u8) != arity && value != "none" {
            return Err(self.arity_err(value, sep as u8, arity));
        }
        Ok(Cursor::new(self, value, sep, arity))
    }

    #[cold]
    fn arity_err(&self, value: &str, sep: u8, arity: usize) -> CheckpointError {
        let found = fields_in(value, sep);
        self.err(format!("expected {arity} fields, got {found}"))
    }

    /// A cursor over the fields of a `key=` line, of which there must
    /// be `arity`.
    #[inline]
    pub fn rec(&mut self, key: &str, arity: usize) -> Result<Cursor<'_, 'a>, CheckpointError> {
        let value = self.kv(key)?;
        self.cut(value, ',', arity)
    }

    /// Reads a `key=` line written by [`put`].
    pub fn take<T: Field>(&mut self, key: &str) -> Result<T, CheckpointError> {
        let value = self.kv(key)?;
        self.value(value)
    }

    /// Reads `value`, a line's fields or one field already cut from
    /// them, as a `T`. The fields are counted only when the read fails
    /// or leaves some over, so the hot path reads each byte once; a
    /// count other than `T::ARITY` then wins over whatever error a
    /// shifted field gave.
    pub fn value<T: Field>(&mut self, value: &'a str) -> Result<T, CheckpointError> {
        let mut r = Cursor::new(self, value, ',', T::ARITY);
        let read = T::take(&mut r);
        if read.is_ok() && r.rest.is_none() {
            return read;
        }
        if fields_in(value, b',') != T::ARITY && value != "none" {
            return Err(self.arity_err(value, b',', T::ARITY));
        }
        read
    }

    /// Reads a `key=` line written by [`put`] if the next line has that
    /// key, leaving the parser untouched otherwise: for keys newer
    /// captures may write that older bodies lack.
    pub fn take_opt<T: Field>(&mut self, key: &str) -> Result<Option<T>, CheckpointError> {
        let mut look = self.lines.clone();
        let Some(v) = look
            .next()
            .and_then(|l| l.strip_prefix(key)?.strip_prefix('='))
        else {
            return Ok(None);
        };
        self.lines = look;
        self.line_no += 1;
        self.value(v).map(Some)
    }

    /// Reads a counted list written by [`put_list`].
    pub fn list<T: Field>(&mut self, key: &str, item: &str) -> Result<Vec<T>, CheckpointError> {
        let n = self.count(key)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take(item)?);
        }
        Ok(out)
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

    /// Reads a queue block written by [`write_queue`] under `key`.
    pub fn queue(&mut self, key: &str) -> Result<AlarmQueue, CheckpointError> {
        let entries = self.count(key)?;
        let mut queue = AlarmQueue::new();
        queue.reserve(entries);
        for _ in 0..entries {
            let mut r = self.rec("entry", 2)?;
            let discipline = r.take()?;
            let alarms = r.count()?;
            if alarms == 0 {
                return Err(self.err("entry with zero alarms"));
            }
            let mut entry = QueueEntry::new(self.take("alarm")?, discipline);
            for _ in 1..alarms {
                entry.push(self.take("alarm")?);
            }
            // Entries were recorded in queue order and `insert_entry`
            // appends after equal delivery times, so order is preserved.
            queue.insert_entry(entry);
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A silent change of [`wordsum64`] would make every v2 checkpoint
    /// unreadable, so its value is pinned on both sides of the 32-byte
    /// block and of the tail.
    #[test]
    fn wordsum64_is_pinned() {
        let bytes: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let pinned: [(usize, u64); 6] = [
            (0, 0x6504_fe0c_c315_2207),
            (1, 0xdde9_ee9a_65d6_2985),
            (31, 0xd2a4_fe56_b3a2_b1b8),
            (32, 0xe4c0_eedf_3261_fc51),
            (33, 0x3b64_cdeb_6af3_9617),
            (100, 0x644f_b1e9_2c6a_fffb),
        ];
        for (n, sum) in pinned {
            assert_eq!(wordsum64(&bytes[..n]), sum, "wordsum64 of {n} bytes");
        }
    }

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
        let nan = f64::from_bits(0x7ff8_0000_0000_0abc);
        for v in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, 1.0 / 3.0, nan] {
            let mut body = String::new();
            put(&mut body, "v", &v);
            assert_eq!(body, format!("v={:016x}\n", v.to_bits()));
            let back: f64 = Parser::new(&body).take("v").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(Parser::new("v=zz").take::<f64>("v").is_err());
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
        let mut p = Parser::new("");
        let mut r = p.cut("a,b", ',', 2).unwrap();
        assert_eq!((r.raw().unwrap(), r.raw().unwrap()), ("a", "b"));
        for (value, got) in [("a", 1), ("a,b,c", 3)] {
            match p.cut(value, ',', 2) {
                Err(CheckpointError::Malformed { message, .. }) => {
                    assert_eq!(message, format!("expected 2 fields, got {got}"));
                }
                Ok(_) => panic!("{value} cut into 2 fields"),
                Err(other) => panic!("{value}: {other:?}"),
            }
        }
        // A whole line read by type counts its fields only on failure; a
        // wrong count still wins over the error of a shifted field.
        for (line, got) in ["v=0,5", "v=0,1,2,3"].into_iter().zip([2, 4]) {
            match Parser::new(line).take::<(bool, bool, u64)>("v") {
                Err(CheckpointError::Malformed { message, .. }) => {
                    assert_eq!(message, format!("expected 3 fields, got {got}"));
                }
                other => panic!("{line}: {other:?}"),
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
