//! Shared line-format primitives for the persisted envelopes.
//!
//! Four formats speak the same dialect: the `simty-checkpoint/v2`
//! snapshot ([`crate::checkpoint`]), the `simty-campaign/v1` journal (in
//! `simty-bench`), the [`SimReport`](crate::metrics::SimReport) record
//! codec, and the live scheduler's `serve-live/v2` drain snapshot and
//! `serve-live-digest/v2` state digest (in `simty-serve`). The dialect is
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
//!   (`tag:param:param`, [`Put::tag`] / [`Cursor::with_tag`]).
//! * **Records.** A struct written as its fields in order is declared once
//!   with `record!`: flat records spread over a line's commas, nested
//!   ones sit in one field with their own separator. A line is
//!   [`put`] / [`Parser::take`]; a counted list (`key=N`, then N item
//!   lines) is [`put_list`] / [`Parser::list`]. A line whose field
//!   count differs from the record's [`Field::ARITY`] is an error naming
//!   both counts, whichever field the reader stumbled on.
//!
//! The reader is one pass. A [`Parser`] walks one offset through the
//! body and takes a line by matching `key=` at that offset; a [`Cursor`]
//! reads the line's fields in place from there, each in the scan that
//! finds its end (a number's digits are folded into its value in that
//! loop), and nested records and tag parameters are read in place the
//! same way. Fields are counted only when a read goes wrong, to name
//! both counts. A byte goes through one scan, where cutting the line,
//! then the field, then parsing the digits went through three or four.
//!
//! The alarm ([`Alarm`]), queue-block ([`write_queue`],
//! [`Parser::queue`]), discipline and admission codecs live here because
//! the checkpoint and the live snapshot share them; the whole sections
//! both write (the manager, the admission state and the alarm-id
//! watermark) are functions of [`crate::checkpoint`].

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

/// The little-endian word of `bytes` (at most 8), zero-padded, read
/// without a call to `memcpy`, which short labels would otherwise pay.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(bytes) {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
    }
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
                r.within($sep, [$(stringify!($f)),+].len(), |r| {
                    Ok(Self { $($f: r.take()?,)+ })
                })
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
            #[inline]
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
                r.with_tag(|tag, a| Ok(match tag {
                    $($tag => Self::$v $(({ let $t = a.take()?; $t }))? $({ $($f: a.take()?),+ })?,)+
                    _ => return Err(a.err(format!(concat!("invalid ", $what, " `{}`"), tag))),
                }))
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
    /// parameters ([`Cursor::with_tag`]).
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

/// Why [`Cursor::scan_number`] read no number.
#[derive(Clone, Copy)]
enum Fault {
    /// Every field was already taken.
    Missing,
    /// The field is not a number the reader accepts.
    Invalid,
    /// A strict cursor's last expected field is followed by another.
    Overrun,
}

/// The bit that stands for byte `b` in a set of stops, or 0 for a byte
/// no set holds: stops are ASCII bytes below `@`, which every separator
/// and line end of the dialect is.
const fn bit(b: u8) -> u64 {
    if b < 64 {
        1 << b
    } else {
        0
    }
}

/// The stops of a line read in place from the body: its `\n`, or a `\r`
/// right before it.
const LINE_END: u64 = bit(b'\n') | bit(b'\r');

/// A separator that never matches: the byte `0xff` never occurs in UTF-8.
const NO_SEP: u8 = 0xff;

/// `sep` as the byte a cursor compares.
fn sep_byte(sep: char) -> u8 {
    assert!(
        (sep as u32) < 64,
        "separator {sep:?} is not an ASCII byte below `@`"
    );
    sep as u8
}

/// Whether the byte at `at` (or the end of `src`) ends a field under
/// `stops`. A `\r` ends one only right before a `\n`: `str::lines`, which
/// earlier readers cut the body with, strips a `\r` only there.
#[inline(always)]
fn stops_at(src: &[u8], at: usize, stops: u64) -> bool {
    match src.get(at) {
        None => true,
        Some(&b) => bit(b) & stops != 0 && (b != b'\r' || src.get(at + 1) == Some(&b'\n')),
    }
}

/// The first offset at or after `at` that ends a field under `stops`.
#[inline(always)]
fn field_end(src: &[u8], mut at: usize, stops: u64) -> usize {
    while !stops_at(src, at, stops) {
        at += 1;
    }
    at
}

/// The digits of `radix` (10 or 16) from `at` on, folded into a value
/// that wraps past `u64` ([`fits`] tells), and where they end.
#[inline(always)]
fn digits(src: &[u8], mut at: usize, radix: u64) -> (u64, usize) {
    let mut value: u64 = 0;
    while let Some(&b) = src.get(at) {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' if radix == 16 => b - b'a' + 10,
            b'A'..=b'F' if radix == 16 => b - b'A' + 10,
            _ => break,
        };
        value = value.wrapping_mul(radix).wrapping_add(u64::from(digit));
        at += 1;
    }
    (value, at)
}

/// Whether `digits` of `radix` (10 or 16) hold a value within `u64`:
/// at most 19 decimal or 16 hex digits always do, and only longer runs
/// are read again with checked arithmetic.
#[inline(always)]
fn fits(digits: &[u8], radix: u64) -> bool {
    let safe = if radix == 16 { 16 } else { 19 };
    digits.len() <= safe || fits_checked(digits, radix)
}

#[cold]
fn fits_checked(digits: &[u8], radix: u64) -> bool {
    digits
        .iter()
        .try_fold(0u64, |v, &b| {
            let digit = char::from(b).to_digit(radix as u32)?;
            v.checked_mul(radix)?.checked_add(u64::from(digit))
        })
        .is_some()
}

/// Where the line that ends at `end` (a line end or the end of `body`)
/// is followed by the next one.
fn line_after(body: &[u8], end: usize) -> usize {
    match body.get(end) {
        None => end,
        Some(b'\r') => end + 2,
        Some(_) => end + 1,
    }
}

/// The reader half: the fields of one value, taken in order, each in the
/// scan that finds its end.
///
/// A cursor walks one offset through its source: the body itself for a
/// line read in place, whose end ends its last field, or a value already
/// cut from a line. A nested record's or a tag's cursor reads the same
/// bytes in place, from where its field starts, with its own separator
/// added to the bytes that end a field. A field is a separator-free run
/// of bytes, so a number's digits are folded into its value in the loop
/// that finds its end, and nothing is cut twice. Fields are counted only
/// to report an error: a read that fails, or one that leaves fields
/// over, counts the value's fields, and a count other than the expected
/// one wins over whatever error a shifted field gave.
pub struct Cursor<'p, 'a> {
    p: &'p mut Parser<'a>,
    /// The bytes the cursor reads.
    src: &'a str,
    /// The start of the first field, then the end of the last one taken
    /// (or, after a tag whose parameters were not all read, a byte before
    /// it).
    at: usize,
    /// Where the cursor's first field starts.
    start: usize,
    /// The ASCII separator between fields, or [`NO_SEP`].
    sep: u8,
    /// The bytes that end a field: the separator, every enclosing
    /// cursor's, and for a line read in place the line's end.
    stops: u64,
    /// The field count the reader expects, or 0 when it is open (a tag's
    /// parameters, a list).
    expected: usize,
    /// The fields begun so far.
    taken: usize,
    /// Whether a field past the expected ones is an error as soon as the
    /// last expected one ends (nested records, [`Parser::cut`]); a line
    /// read whole is checked once, at its end.
    strict: bool,
}

impl<'p, 'a> Cursor<'p, 'a> {
    fn new(
        p: &'p mut Parser<'a>,
        src: &'a str,
        at: usize,
        sep: u8,
        region: u64,
        expected: usize,
    ) -> Self {
        Cursor {
            p,
            src,
            at,
            start: at,
            sep,
            stops: region | bit(sep),
            expected,
            taken: 0,
            strict: false,
        }
    }

    /// Moves to the start of the next field, past the separator that
    /// ends the last one, or fails once every field is taken.
    #[inline(always)]
    fn begin(&mut self) -> Result<usize, CheckpointError> {
        if !self.begin_quietly() {
            return Err(self.missing());
        }
        Ok(self.at)
    }

    /// [`begin`](Self::begin), answering only whether a field was left.
    #[inline(always)]
    fn begin_quietly(&mut self) -> bool {
        if self.taken > 0 {
            if self.src.as_bytes().get(self.at) == Some(&self.sep) {
                self.at += 1;
            } else if !self.step_over() {
                return false;
            }
        }
        self.taken += 1;
        true
    }

    /// Moves past the separator that ends the last field when the offset
    /// stopped short of it (a tag's parameters left unread); false when
    /// that field was the last.
    #[inline(never)]
    fn step_over(&mut self) -> bool {
        let src = self.src.as_bytes();
        self.at = field_end(src, self.at, self.stops);
        if src.get(self.at) != Some(&self.sep) {
            return false;
        }
        self.at += 1;
        true
    }

    /// Whether a field that ends at `end` overruns a strict cursor: its
    /// last expected field must end its fields.
    #[inline(always)]
    fn overruns(&self, end: usize) -> bool {
        self.strict
            && self.taken == self.expected
            && self.src.as_bytes().get(end) == Some(&self.sep)
    }

    /// Ends the field taken at `end` ([`overruns`](Self::overruns)).
    #[inline(always)]
    fn end_field(&mut self, end: usize) -> Result<(), CheckpointError> {
        self.at = end;
        if self.overruns(end) {
            return Err(self.arity_mismatch());
        }
        Ok(())
    }

    /// The next raw field, or an error once every field is taken.
    #[inline(always)]
    pub fn raw(&mut self) -> Result<&'a str, CheckpointError> {
        let from = self.begin()?;
        let end = field_end(self.src.as_bytes(), from, self.stops);
        self.end_field(end)?;
        Ok(&self.src[from..end])
    }

    /// Reads the next field as an unsigned number in `radix` (10 or 16)
    /// no larger than `max`, its digits folded in by the scan that finds
    /// its end. Accepts what [`u64::from_str_radix`] does (an optional
    /// `+`, then at least one digit, within `u64`); any other field is an
    /// `invalid {what}` error.
    #[inline]
    fn number(&mut self, radix: u64, max: u64, what: &str) -> Result<u64, CheckpointError> {
        match self.scan_number(radix, max) {
            Ok(value) => Ok(value),
            Err(fault) => Err(self.fault(fault, what)),
        }
    }

    /// The scan behind [`number`](Self::number), shared by every number
    /// field and kept out of line: it returns in registers, and its
    /// caller builds the error only when there is one.
    #[inline(never)]
    fn scan_number(&mut self, radix: u64, max: u64) -> Result<u64, Fault> {
        if !self.begin_quietly() {
            return Err(Fault::Missing);
        }
        let src = self.src.as_bytes();
        let from = self.at;
        let first = from + usize::from(src.get(from) == Some(&b'+'));
        let (value, at) = digits(src, first, radix);
        if at == first
            || !stops_at(src, at, self.stops)
            || value > max
            || !fits(&src[first..at], radix)
        {
            return Err(Fault::Invalid);
        }
        self.at = at;
        if self.overruns(at) {
            return Err(Fault::Overrun);
        }
        Ok(value)
    }

    /// The error a [`Fault`] stands for, built where a read reports it.
    #[cold]
    fn fault(&self, fault: Fault, what: &str) -> CheckpointError {
        match fault {
            Fault::Missing => self.missing(),
            Fault::Invalid => self.invalid(what, self.at),
            Fault::Overrun => self.arity_mismatch(),
        }
    }

    /// Reads the next field as a canonical decimal (digits only, no
    /// leading zero unless it is `0`, within `u64`), or returns it raw.
    pub(crate) fn decimal_or_raw(&mut self) -> Result<Result<u64, &'a str>, CheckpointError> {
        let from = self.begin()?;
        let src = self.src.as_bytes();
        let (value, at) = digits(src, from, 10);
        let canonical = at == from + 1 || (at > from && src[from] != b'0');
        if canonical && stops_at(src, at, self.stops) && fits(&src[from..at], 10) {
            self.end_field(at)?;
            return Ok(Ok(value));
        }
        let end = field_end(src, at, self.stops);
        self.end_field(end)?;
        Ok(Err(&self.src[from..end]))
    }

    /// Whether the next field is exactly `s` (which holds no separator),
    /// without taking it.
    pub fn next_is(&self, s: &str) -> bool {
        let src = self.src.as_bytes();
        let from = if self.taken == 0 {
            self.at
        } else {
            let end = field_end(src, self.at, self.stops);
            if src.get(end) != Some(&self.sep) {
                return false;
            }
            end + 1
        };
        src[from..].starts_with(s.as_bytes()) && stops_at(src, from + s.len(), self.stops)
    }

    /// Whether every field is taken: the last one ends the cursor's
    /// fields.
    pub fn done(&self) -> bool {
        let src = self.src.as_bytes();
        self.taken > 0 && src.get(field_end(src, self.at, self.stops)) != Some(&self.sep)
    }

    /// The cursor's fields as one string, from the first one's start to
    /// the last one's end.
    fn fields(&self) -> &'a str {
        let end = field_end(self.src.as_bytes(), self.start, self.stops & !bit(self.sep));
        &self.src[self.start..end]
    }

    /// How many fields the cursor holds, taken or not.
    pub fn count_fields(&self) -> usize {
        let src = self.src.as_bytes();
        let (mut at, mut n) = (self.start, 1);
        loop {
            at = field_end(src, at, self.stops);
            if src.get(at) != Some(&self.sep) {
                return n;
            }
            (at, n) = (at + 1, n + 1);
        }
    }

    #[cold]
    fn missing(&self) -> CheckpointError {
        if self.expected > 0 {
            return self.arity_mismatch();
        }
        let what = if self.sep == b':' {
            "parameter"
        } else {
            "field"
        };
        self.err(format!("`{}` is missing a {what}", self.fields()))
    }

    #[cold]
    fn arity_mismatch(&self) -> CheckpointError {
        self.p.arity_err(self.fields(), self.sep, self.expected)
    }

    /// `e`, unless the cursor holds other than the fields it expects:
    /// then the count wins, as it does over a shifted field's error.
    #[cold]
    fn recount(&self, e: CheckpointError) -> CheckpointError {
        let fields = self.fields();
        if self.expected == 0 || fields_in(fields, self.sep) == self.expected || fields == "none" {
            e
        } else {
            self.arity_mismatch()
        }
    }

    /// An `invalid {what}` error naming the field that starts at `from`.
    #[cold]
    fn invalid(&self, what: &str, from: usize) -> CheckpointError {
        let end = field_end(self.src.as_bytes(), from, self.stops);
        self.err(format!("invalid {what} `{}`", &self.src[from..end]))
    }

    /// Reads the next value.
    #[inline(always)]
    pub fn take<T: Field>(&mut self) -> Result<T, CheckpointError> {
        match T::take(self) {
            Ok(v) => Ok(v),
            Err(e) => Err(self.recount(e)),
        }
    }

    /// Reads the next field as a count ([`Parser::count_of`]).
    pub fn count(&mut self) -> Result<usize, CheckpointError> {
        let n = self.number(10, usize::MAX as u64, "integer")?;
        self.p.bounded(n as usize)
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

    /// Reads the next field's `sep`-separated parts in place with `read`,
    /// of which there must be `arity` (any number for 0), and goes on
    /// from where `read` stopped.
    #[inline]
    pub fn within<T>(
        &mut self,
        sep: char,
        arity: usize,
        read: impl FnOnce(&mut Cursor<'_, 'a>) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let mut r = self.child(sep_byte(sep), arity)?;
        let out = read(&mut r);
        self.at = r.at;
        out
    }

    #[inline]
    fn child(&mut self, sep: u8, expected: usize) -> Result<Cursor<'_, 'a>, CheckpointError> {
        let from = self.begin()?;
        let region = self.stops;
        // A separator that already ends the field leaves it one part.
        let sep = if region & bit(sep) == 0 { sep } else { NO_SEP };
        let mut r = Cursor::new(&mut *self.p, self.src, from, sep, region, expected);
        r.strict = expected > 0;
        Ok(r)
    }

    /// Reads the next field, written by [`Put::tag`], with `read`: its
    /// tag, and a cursor over its `:`-separated parameters, read in place.
    /// Parameters left unread are skipped.
    #[inline]
    pub fn with_tag<T>(
        &mut self,
        read: impl FnOnce(&'a str, &mut Cursor<'_, 'a>) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let mut params = self.child(b':', 0)?;
        let tag = params.raw()?;
        let out = read(tag, &mut params);
        self.at = params.at;
        out
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
                r.number(10, <$t>::MAX as u64, "integer").map(|v| v as $t)
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
        let from = r.begin()?;
        let src = r.src.as_bytes();
        match src.get(from) {
            Some(&b @ (b'0' | b'1')) if stops_at(src, from + 1, r.stops) => {
                r.end_field(from + 1)?;
                Ok(b == b'1')
            }
            _ => Err(r.invalid("flag", from)),
        }
    }
}

/// The exact 16-hex-digit bit pattern, which round-trips every value
/// (NaN payloads included) with no formatting loss.
impl Field for f64 {
    fn put(&self, w: &mut Put<'_>) {
        let _ = write!(w.field(), "{:016x}", self.to_bits());
    }
    #[inline]
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        r.number(16, u64::MAX, "float bits").map(f64::from_bits)
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
        if r.next_is("none") {
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
/// [`put_alarm_attrs`]. An alarm whose window or grace interval would end
/// past the last representable time is refused: no queue entry could
/// compute it.
impl Field for Alarm {
    const ARITY: usize = 12;
    fn put(&self, w: &mut Put<'_>) {
        w.f(&self.id()).esc(self.label());
        put_alarm_attrs(w, self);
    }
    fn take(r: &mut Cursor<'_, '_>) -> Result<Self, CheckpointError> {
        let alarm = Alarm::restore(
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
        );
        let reach = alarm.window().max(alarm.grace()).as_millis();
        match alarm.nominal().as_millis().checked_add(reach) {
            Some(_) => Ok(alarm),
            None => Err(r.err("alarm reaches past the last representable time")),
        }
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
/// The parser walks one offset through the body. A line is taken by
/// matching `key=` as a prefix at that offset, and its fields are read in
/// place by a [`Cursor`] that stops at the line's end, so each byte is
/// scanned once: no line, field or digit string is cut out and read
/// again, nothing is collected into a `Vec`, and lines are counted as
/// their ends are passed. Labels go through a per-parser interner
/// ([`label`](Self::label)), so a label that recurs on many lines is one
/// shared allocation, as it is in the live run. Nothing the parser holds
/// outlives it.
pub struct Parser<'a> {
    body: &'a str,
    /// Where the next line starts.
    next: usize,
    line_no: usize,
    /// Raw (escaped) label field → its unescaped shared form.
    labels: HashMap<&'a str, Arc<str>>,
    /// The label last interned in each slot of a cheap hash of its
    /// bytes ([`LabelKey`]): a label that recurs is found here without
    /// hashing it for the map. Two labels that share a slot only cost
    /// map lookups.
    recent: [Option<(LabelKey, &'a str, Arc<str>)>; RECENT_LABELS],
}

/// Slots of [`Parser`]'s recent-label cache.
const RECENT_LABELS: usize = 256;

/// Whether `rest` starts with `key=`.
#[inline]
fn is_key(rest: &[u8], key: &str) -> bool {
    rest.get(key.len()) == Some(&b'=') && same(&rest[..key.len()], key.as_bytes())
}

/// Whether `a` and `b` hold the same bytes, compared one by one: keys
/// and labels are short, and a `memcmp` call for each costs more than
/// the compare.
#[inline]
pub(crate) fn same(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// A label as the recent-label cache compares it: its length and its
/// first and last eight bytes, which hold the whole of a label of up to
/// 16 bytes (and tell `existing%3A0` from `existing%3A1`).
#[derive(Clone, Copy, PartialEq)]
struct LabelKey {
    len: usize,
    head: u64,
    tail: u64,
}

impl LabelKey {
    fn of(raw: &str) -> Self {
        let bytes = raw.as_bytes();
        let len = bytes.len();
        LabelKey {
            len,
            head: le_word(&bytes[..len.min(8)]),
            tail: le_word(&bytes[len.saturating_sub(8)..]),
        }
    }

    /// The key's slot in the cache.
    fn slot(self) -> usize {
        let word = self.head ^ self.tail.rotate_left(29) ^ self.len as u64;
        (word.wrapping_mul(WORDSUM_K) >> (64 - RECENT_LABELS.trailing_zeros())) as usize
    }
}

impl<'a> Parser<'a> {
    /// A parser positioned before the first line of `body`.
    #[must_use]
    pub fn new(body: &'a str) -> Self {
        Parser {
            body,
            next: 0,
            line_no: 0,
            labels: HashMap::new(),
            recent: [const { None }; RECENT_LABELS],
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
        let from = self.next;
        if from >= self.body.len() {
            return None;
        }
        self.line_no += 1;
        Some(self.rest_of_line(from))
    }

    /// The line from `from` to its end, moving past it.
    fn rest_of_line(&mut self, from: usize) -> &'a str {
        let body = self.body.as_bytes();
        let end = field_end(body, from, LINE_END);
        self.next = line_after(body, end);
        &self.body[from..end]
    }

    /// Starts the next line, which must be `key=...`, returning where
    /// its value starts.
    #[inline]
    fn open(&mut self, key: &str) -> Result<usize, CheckpointError> {
        let rest = &self.body.as_bytes()[self.next..];
        if rest.is_empty() {
            return Err(CheckpointError::Malformed {
                line: self.line_no + 1,
                message: format!("unexpected end of body (wanted `{key}`)"),
            });
        }
        self.line_no += 1;
        if is_key(rest, key) {
            Ok(self.next + key.len() + 1)
        } else {
            Err(self.wrong_key(key))
        }
    }

    #[cold]
    fn wrong_key(&mut self, key: &str) -> CheckpointError {
        let line = self.rest_of_line(self.next);
        match line.split_once('=') {
            None => self.err(format!("expected `{key}=...`, found `{line}`")),
            Some((k, _)) => self.err(format!("expected key `{key}`, found `{k}`")),
        }
    }

    /// Consumes the next line, which must be `key=...`, returning its
    /// value.
    pub fn kv(&mut self, key: &str) -> Result<&'a str, CheckpointError> {
        let from = self.open(key)?;
        Ok(self.rest_of_line(from))
    }

    /// Parses the count of the items that follow. Every counted item
    /// takes at least one line or field of the body, so a count larger
    /// than the body's byte length cannot be honest and is refused
    /// before anything loops or allocates on it.
    pub fn count_of(&self, s: &str) -> Result<usize, CheckpointError> {
        let n = s
            .parse()
            .map_err(|_| self.err(format!("invalid integer `{s}`")))?;
        self.bounded(n)
    }

    /// `n`, if it is an honest count ([`count_of`](Self::count_of)).
    fn bounded(&self, n: usize) -> Result<usize, CheckpointError> {
        if n > self.body.len() {
            return Err(self.err(format!(
                "count {n} exceeds the body's {} bytes",
                self.body.len()
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
    /// optional record. The fields are counted only when a read fails,
    /// stops short or goes past the last one.
    pub fn cut<'p>(
        &'p mut self,
        value: &'a str,
        sep: char,
        arity: usize,
    ) -> Result<Cursor<'p, 'a>, CheckpointError> {
        let mut r = Cursor::new(self, value, 0, sep_byte(sep), 0, arity);
        r.strict = true;
        Ok(r)
    }

    #[cold]
    fn arity_err(&self, value: &str, sep: u8, arity: usize) -> CheckpointError {
        let found = fields_in(value, sep);
        self.err(format!("expected {arity} fields, got {found}"))
    }

    /// A cursor over the fields of a `key=` line, of which there must
    /// be `arity`.
    pub fn rec(&mut self, key: &str, arity: usize) -> Result<Cursor<'_, 'a>, CheckpointError> {
        let value = self.kv(key)?;
        self.cut(value, ',', arity)
    }

    /// Reads a `key=` line written by [`put`], in place.
    pub fn take<T: Field>(&mut self, key: &str) -> Result<T, CheckpointError> {
        let from = self.open(key)?;
        self.read(self.body, from, LINE_END)
    }

    /// Reads `value`, a line's fields or one field already cut from
    /// them, as a `T`.
    pub fn value<T: Field>(&mut self, value: &'a str) -> Result<T, CheckpointError> {
        self.read(value, 0, 0)
    }

    /// Reads a `T` from the `,`-separated fields of `src` that start at
    /// `from` and end at a stop of `region` (or the end of `src`). A line
    /// read in place from the body is passed, whichever way it ends. The
    /// fields are counted only when the read fails or leaves some over;
    /// a count other than `T::ARITY` then wins over the read's error.
    fn read<T: Field>(
        &mut self,
        src: &'a str,
        from: usize,
        region: u64,
    ) -> Result<T, CheckpointError> {
        let mut r = Cursor::new(self, src, from, b',', region, T::ARITY);
        let read = T::take(&mut r);
        let stops = r.stops;
        let end = field_end(src.as_bytes(), r.at, stops);
        if read.is_ok() && src.as_bytes().get(end) != Some(&b',') {
            if region == LINE_END {
                self.next = line_after(src.as_bytes(), end);
            }
            return read;
        }
        match self.recount(src, from, region, T::ARITY) {
            Some(wrong) => Err(wrong),
            None => read,
        }
    }

    /// The cold end of [`read`](Self::read): the value's fields counted,
    /// and an arity error when there are other than `arity` of them.
    #[cold]
    fn recount(
        &mut self,
        src: &'a str,
        from: usize,
        region: u64,
        arity: usize,
    ) -> Option<CheckpointError> {
        let end = field_end(src.as_bytes(), from, region);
        if region == LINE_END {
            self.next = line_after(src.as_bytes(), end);
        }
        let value = &src[from..end];
        (fields_in(value, b',') != arity && value != "none")
            .then(|| self.arity_err(value, b',', arity))
    }

    /// Reads the fields of a `key=` line in place with `fields`, which
    /// must take them all and say what it found when it cannot: for a
    /// line whose field count one of its fields declares.
    pub fn read_line<T>(
        &mut self,
        key: &str,
        fields: impl FnOnce(&mut Cursor<'_, 'a>) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let from = self.open(key)?;
        let body = self.body;
        let mut r = Cursor::new(self, body, from, b',', LINE_END, 0);
        let read = fields(&mut r)?;
        let end = field_end(body.as_bytes(), r.at, LINE_END);
        self.next = line_after(body.as_bytes(), end);
        Ok(read)
    }

    /// Reads a `key=` line written by [`put`] if the next line has that
    /// key, leaving the parser untouched otherwise: for keys newer
    /// captures may write that older bodies lack.
    pub fn take_opt<T: Field>(&mut self, key: &str) -> Result<Option<T>, CheckpointError> {
        if !is_key(&self.body.as_bytes()[self.next..], key) {
            return Ok(None);
        }
        self.take(key).map(Some)
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

    /// The unescaped label of a raw field, shared with every earlier
    /// field of the same bytes: one allocation per distinct label (two
    /// when it holds an escape), none for a repeat.
    pub fn label(&mut self, raw: &'a str) -> Arc<str> {
        let key = LabelKey::of(raw);
        let recent = &mut self.recent[key.slot()];
        if let Some((seen, seen_raw, label)) = recent {
            if *seen == key && (key.len <= 16 || same(seen_raw.as_bytes(), raw.as_bytes())) {
                return Arc::clone(label);
            }
        }
        let label = Arc::clone(self.labels.entry(raw).or_insert_with(|| {
            if raw.contains('%') {
                unesc(raw).into()
            } else {
                raw.into()
            }
        }));
        *recent = Some((key, raw, Arc::clone(&label)));
        label
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

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: u64,
    }
    record!(Pair in ':': a, b);

    #[test]
    fn fields_are_read_in_place_and_counted_only_when_a_read_goes_wrong() {
        let mut p = Parser::new("");
        let mut r = p.cut("a,b", ',', 2).unwrap();
        assert_eq!((r.raw().unwrap(), r.raw().unwrap()), ("a", "b"));
        for (value, got) in [("a", 1), ("a,b,c", 3)] {
            let mut r = p.cut(value, ',', 2).unwrap();
            match r.raw().and_then(|_| r.raw()) {
                Err(CheckpointError::Malformed { message, .. }) => {
                    assert_eq!(message, format!("expected 2 fields, got {got}"));
                }
                other => panic!("{value}: {other:?}"),
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

        // Nested records and tag parameters are read in place, a tag's
        // unread parameters are skipped, and a line ends at `\n` or at a
        // `\r` right before it.
        let mut p = Parser::new("v=1:2,s:5:x,+7\r\nw=007,fF\nend\r");
        let (pair, repeat, n): (Pair, Repeat, u64) = p.take("v").unwrap();
        assert_eq!(pair, Pair { a: 1, b: 2 });
        assert_eq!(repeat, Repeat::Static(SimDuration::from_millis(5)));
        assert_eq!(n, 7);
        let (n, bits): (u64, f64) = p.take("w").unwrap();
        assert_eq!((n, bits.to_bits()), (7, 0xff));
        assert_eq!((p.line(), p.line()), (Some("end\r"), None));

        // A nested record's count wins too, and errors name their line.
        for (body, line, message) in [
            ("v=1:2:3", 1, "expected 2 fields, got 3"),
            ("v=1", 1, "expected 2 fields, got 1"),
            ("w=0\r\nv=1:z", 2, "invalid integer `z`"),
            ("v=1:-1", 1, "invalid integer `-1`"),
            (
                "v=2:99999999999999999999",
                1,
                "invalid integer `99999999999999999999`",
            ),
            ("w=0\nw=1\nv=1:2\r\r\n", 3, "invalid integer `2\r`"),
            ("w=0\n", 2, "unexpected end of body (wanted `v`)"),
            ("v:1:2", 1, "expected `v=...`, found `v:1:2`"),
        ] {
            let mut p = Parser::new(body);
            while p.take_opt::<u64>("w").unwrap().is_some() {}
            match p.take::<Pair>("v") {
                Err(CheckpointError::Malformed {
                    line: at,
                    message: m,
                }) => {
                    assert_eq!((at, m.as_str()), (line, message), "{body:?}");
                }
                other => panic!("{body:?}: {other:?}"),
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
