//! The one state codec: every snapshot and checkpoint body is written and
//! read through this module.
//!
//! A body is a sequence of **records**, one per line, each led by a tag
//! word. A record's fields are **tokens** separated by single spaces, in
//! the order the type lists them — there are no field names, so a type's
//! [`Codec::encode`] and [`Codec::decode`] are the whole format:
//!
//! | value | token(s) |
//! |---|---|
//! | integer | decimal (`-` sign for negatives) |
//! | `f64` | 16 upper-case hex digits of its IEEE-754 bits (NaN payloads, `-0.0` and subnormals survive) |
//! | `bool` | `0` / `1` |
//! | string | `'` then the bytes, with space, `%` and ASCII controls as `%XX` |
//! | `Option<T>` | `-`, or `T`'s tokens (so `T` must never start with a bare `-`) |
//! | list | element count, then the elements |
//! | map | entry count, then `key value` pairs in ascending key order |
//!
//! A map too large for one line is written with [`Writer::map_records`]:
//! a `<tag> <count>` record, then one `<tag> <key> <value>` record per
//! entry, again in ascending key order. Decoding rejects duplicate or
//! unordered keys, a wrong tag, a missing token, trailing tokens or
//! records, and any line not ended by a newline — so every truncation of
//! an encoded value is an error, never a shorter value.
//!
//! Decoding may need context the body does not carry — the symbol table
//! that gives interned indices meaning, the template set a history was
//! learned under. A type names it as the trait's parameter `C` and
//! receives it as an argument.
//!
//! The encoder writes every token straight into one byte buffer, checked
//! to be UTF-8 once when it is finished; integers and hex words are
//! rendered, leading space and sign included, through digit-pair tables
//! into one stack buffer and appended with one copy. A streaming writer
//! ([`crate::write_sealed`], [`encoded_checksum`]) drains that buffer
//! into a running checksum, and the file being written, once it passes
//! 64 KiB, so a body of any size is encoded in bounded memory.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::File;
use std::hash::Hash;
use std::io::{self, Write as _};

use crate::Checksum;

/// Why a body failed to decode: the 1-based line and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line of the record being read (0 before the first).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CodecError {}

/// A value with a durable text form. `C` is the context decoding needs
/// (`()` when none).
pub trait Codec<C: ?Sized = ()>: Sized {
    /// Append this value's tokens (and records) to `w`.
    fn encode(&self, w: &mut Writer);
    /// Read back what [`Codec::encode`] wrote.
    fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError>;
}

/// Encode `value` as a complete body.
pub fn encode<C: ?Sized, T: Codec<C>>(value: &T) -> String {
    let mut w = Writer::default();
    value.encode(&mut w);
    w.finish()
}

/// [`crate::checksum`] of [`encode`]`(value)`, hashed as it is encoded:
/// the body is never held whole.
pub fn encoded_checksum<C: ?Sized, T: Codec<C>>(value: &T) -> u64 {
    let mut w = Writer::streaming(None);
    value.encode(&mut w);
    let (_, sealed) = w.seal();
    sealed.expect("hashing does not fail").sum
}

/// Decode a complete body produced by [`encode`]; anything left over is
/// an error.
pub fn decode<C: ?Sized, T: Codec<C>>(text: &str, cx: &C) -> Result<T, CodecError> {
    let mut r = Reader::new(text);
    let value = T::decode(&mut r, cx)?;
    r.finish()?;
    Ok(value)
}

/// Implement [`Codec`] for a struct by listing its fields once, in
/// token order: encoding puts each field, decoding reads each back.
///
/// ```
/// use qpredict_durable::{codec_struct, Writer};
/// struct Span { start: u64, weight: f64 }
/// codec_struct!(Span { start, weight });
/// let mut w = Writer::default();
/// w.record("span").put(&Span { start: 7, weight: -0.0 });
/// assert_eq!(w.finish(), "span 7 8000000000000000\n");
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                $(w.put(&self.$field);)+
            }
            fn decode(
                r: &mut $crate::Reader<'_>,
                _: &(),
            ) -> Result<$ty, $crate::CodecError> {
                Ok($ty { $($field: r.get()?),+ })
            }
        }
    };
}

/// Bytes a streaming writer holds before it hands them on: at the first
/// record boundary past this, every whole 16-byte block of the buffer
/// goes to its sink.
const FLUSH_BYTES: usize = 64 * 1024;

/// Room a streaming writer's buffer has past [`FLUSH_BYTES`], so the
/// record that crosses the threshold does not grow it unless the record
/// is longer than this.
const RECORD_ROOM: usize = 4 * 1024;

/// Token sink. Obtain the text with [`Writer::finish`].
///
/// Tokens are appended as bytes, all of them copied from `&str`s or
/// ASCII, so the text is checked to be UTF-8 once, at the end.
///
/// A writer made by [`crate::write_sealed`] or [`encoded_checksum`]
/// instead streams: once its buffer passes 64 KiB, the next record
/// boundary drains it into a running [`Checksum`] (and the file being
/// written), so it never holds much more than 64 KiB plus one record.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
    sink: Option<Sink>,
}

/// Where a streaming writer's drained bytes go.
#[derive(Debug)]
struct Sink {
    sum: Checksum,
    /// Bytes drained so far.
    drained: u64,
    /// The file the body streams into, if any.
    file: Option<File>,
    /// The first failed write; later bytes are only hashed.
    error: Option<io::Error>,
}

impl Sink {
    /// Hand every whole 16-byte block of `out` on, keeping the rest.
    fn drain(&mut self, out: &mut Vec<u8>) {
        let n = out.len() & !15;
        self.sum.update(&out[..n]);
        self.write(&out[..n]);
        self.drained += n as u64;
        out.drain(..n);
    }

    fn write(&mut self, bytes: &[u8]) {
        if let (Some(file), None) = (&mut self.file, &self.error) {
            if let Err(e) = file.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }
}

/// What [`crate::write_sealed`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sealed {
    /// Checksum of the body, as its `sum` line records it.
    pub sum: u64,
    /// Bytes of the file, the `sum` line included.
    pub bytes: u64,
}

impl Writer {
    /// Start a record: end the previous line, if any, and write `tag`.
    pub fn record(&mut self, tag: &str) -> &mut Self {
        // A drain empties the buffer only here, just before the newline,
        // so an empty buffer always means an empty body.
        if !self.out.is_empty() {
            if let Some(sink) = self.sink.as_mut().filter(|_| self.out.len() >= FLUSH_BYTES) {
                sink.drain(&mut self.out);
            }
            self.out.push(b'\n');
        }
        self.out.extend_from_slice(tag.as_bytes());
        self
    }

    /// Append `value`'s tokens to the current record.
    pub fn put<C: ?Sized, T: Codec<C>>(&mut self, value: &T) -> &mut Self {
        value.encode(self);
        self
    }

    /// Append a raw token, which must be non-empty and hold no space,
    /// newline or carriage return (enum names, bit strings).
    pub fn word(&mut self, word: &str) -> &mut Self {
        debug_assert!(
            !word.is_empty() && !word.contains([' ', '\n', '\r']),
            "not a word: {word:?}"
        );
        self.out.push(b' ');
        self.out.extend_from_slice(word.as_bytes());
        self
    }

    /// Append a string token of any content.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.out.extend_from_slice(b" '");
        // Bytes of multi-byte characters are never ASCII, so they pass
        // through whole.
        for &b in s.as_bytes() {
            if b == b' ' || b == b'%' || b.is_ascii_control() {
                self.out.push(b'%');
                self.out.extend_from_slice(&HEX_PAIRS[b as usize]);
            } else {
                self.out.push(b);
            }
        }
        self
    }

    /// Append a map as a run of records, `<tag> <count>` then `<tag> <key>
    /// <value>` per entry, in ascending key order.
    pub fn map_records<'m, CK: ?Sized, CV: ?Sized, K, V>(
        &mut self,
        tag: &str,
        entries: impl IntoIterator<Item = (&'m K, &'m V)>,
    ) -> &mut Self
    where
        K: Codec<CK> + Ord + 'm,
        V: Codec<CV> + 'm,
    {
        let mut entries: Vec<(&K, &V)> = entries.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        self.record(tag).put(&entries.len());
        for (k, v) in entries {
            self.record(tag).put(k).put(v);
        }
        self
    }

    /// The encoded text: every record ended by a newline.
    pub fn finish(mut self) -> String {
        debug_assert!(
            self.sink.is_none(),
            "a streaming writer is sealed, not finished"
        );
        self.end();
        String::from_utf8(self.out).expect("every token is UTF-8")
    }

    /// A writer that streams into `file` (or, with `None`, only into the
    /// running checksum).
    pub(crate) fn streaming(file: Option<File>) -> Writer {
        Writer {
            out: Vec::with_capacity(FLUSH_BYTES + RECORD_ROOM),
            sink: Some(Sink {
                sum: Checksum::new(),
                drained: 0,
                file,
                error: None,
            }),
        }
    }

    /// End a streaming writer's body and return its checksum, with its
    /// byte count and its file, having appended the `sum` line to the
    /// file if there is one. The error is the first failed write.
    pub(crate) fn seal(mut self) -> (Option<File>, io::Result<Sealed>) {
        self.end();
        let mut sink = self.sink.take().expect("a streaming writer");
        let sum = sink.sum.finish(&self.out);
        if sink.file.is_some() {
            self.out.extend_from_slice(b"sum ");
            self.out.extend_from_slice(&hex_digits(sum));
            self.out.push(b'\n');
            sink.write(&self.out);
        }
        let bytes = sink.drained + self.out.len() as u64;
        let result = match sink.error {
            Some(e) => Err(e),
            None => Ok(Sealed { sum, bytes }),
        };
        (sink.file, result)
    }

    /// End the last record with its newline.
    fn end(&mut self) {
        if !self.out.is_empty() {
            self.out.push(b'\n');
        }
    }

    /// One token: a space, the sign when `negative`, the digits of `v`,
    /// rendered into one stack buffer and appended with one copy.
    fn int(&mut self, negative: bool, v: u64) {
        let mut buf = [0u8; 22];
        let mut i = render_decimal(v, &mut buf);
        if negative {
            i -= 1;
            buf[i] = b'-';
        }
        buf[i - 1] = b' ';
        self.out.extend_from_slice(&buf[i - 1..]);
    }

    /// One token: a space and the 16 hex digits of `v`.
    fn hex16(&mut self, v: u64) {
        let mut token = [b' '; 17];
        token[1..].copy_from_slice(&hex_digits(v));
        self.out.extend_from_slice(&token);
    }
}

const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// The two decimal digits of every value below 100.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut t = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        t[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    t
};

/// The two upper-case hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut t = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = [HEX[i >> 4], HEX[i & 0xF]];
        i += 1;
    }
    t
};

/// The decimal digits of `v` (no sign, no leading zeros), written two at
/// a time from the end of `buf`; returns the digits. Equal to the bytes
/// of `format!("{v}")`.
pub fn decimal_digits(v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let start = render_decimal(v, buf);
    &buf[start..]
}

/// Write the decimal digits of `v` at the end of `buf`, two at a time,
/// and return where they start. `buf` must hold at least 20 bytes.
fn render_decimal<const N: usize>(mut v: u64, buf: &mut [u8; N]) -> usize {
    let mut i = N;
    while v >= 100 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[(v % 100) as usize]);
        v /= 100;
    }
    if v >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[v as usize]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// The 16 upper-case hex digits of `v`, most significant first, one
/// table lookup per byte. Equal to the bytes of `format!("{v:016X}")`.
pub fn hex_digits(v: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (pair, byte) in out.chunks_exact_mut(2).zip(v.to_be_bytes()) {
        pair.copy_from_slice(&HEX_PAIRS[byte as usize]);
    }
    out
}

/// Read back [`hex_digits`]: exactly 16 upper-case hex digits, else
/// `None` (a lower-case digit is a flipped bit, not the same value).
pub fn parse_hex16(word: &str) -> Option<u64> {
    if word.len() != 16 {
        return None;
    }
    word.bytes()
        .try_fold(0u64, |acc, b| Some(acc << 4 | hex_digit(b)? as u64))
}

/// Token source over an encoded body.
#[derive(Debug)]
pub struct Reader<'a> {
    /// Lines not yet started.
    rest: &'a str,
    /// Unread fields of the current record, each preceded by a space.
    fields: &'a str,
    line: usize,
}

impl<'a> Reader<'a> {
    /// Read `text` from its first record.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            rest: text,
            fields: "",
            line: 0,
        }
    }

    /// An error at the current line.
    pub fn error(&self, reason: impl Into<String>) -> CodecError {
        CodecError {
            line: self.line,
            reason: reason.into(),
        }
    }

    /// Move to the next record, which must be tagged `tag`. The current
    /// record must have been read to its end.
    pub fn record(&mut self, tag: &str) -> Result<&mut Self, CodecError> {
        self.end_record()?;
        let Some((line, rest)) = self.rest.split_once('\n') else {
            return Err(if self.rest.is_empty() {
                self.error(format!("missing `{tag}` record"))
            } else {
                self.line += 1;
                self.error("unterminated line (truncated?)")
            });
        };
        self.line += 1;
        self.rest = rest;
        match line.strip_prefix(tag) {
            Some(fields) if fields.is_empty() || fields.starts_with(' ') => {
                self.fields = fields;
                Ok(self)
            }
            _ => {
                let found: String = line.chars().take(40).collect();
                Err(self.error(format!("expected `{tag}` record, found {found:?}")))
            }
        }
    }

    /// The next raw token of the current record.
    pub fn word(&mut self) -> Result<&'a str, CodecError> {
        let Some(fields) = self.fields.strip_prefix(' ') else {
            return Err(self.error("missing field"));
        };
        let (word, rest) = fields.split_at(fields.find(' ').unwrap_or(fields.len()));
        if word.is_empty() {
            return Err(self.error("empty field"));
        }
        self.fields = rest;
        Ok(word)
    }

    /// Decode a context-free value from the current record.
    pub fn get<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::decode(self, &())
    }

    /// Decode a value that needs context `cx`.
    pub fn get_in<C: ?Sized, T: Codec<C>>(&mut self, cx: &C) -> Result<T, CodecError> {
        T::decode(self, cx)
    }

    /// Read a string token.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let word = self.word()?;
        let Some(body) = word.strip_prefix('\'') else {
            return Err(self.error(format!("expected a string, found {word:?}")));
        };
        let mut bytes = Vec::with_capacity(body.len());
        let mut it = body.bytes();
        while let Some(b) = it.next() {
            if b == b'%' {
                let hi = it.next().and_then(hex_digit);
                let lo = it.next().and_then(hex_digit);
                match (hi, lo) {
                    (Some(hi), Some(lo)) => bytes.push(hi << 4 | lo),
                    _ => return Err(self.error(format!("bad escape in {word:?}"))),
                }
            } else {
                bytes.push(b);
            }
        }
        String::from_utf8(bytes).map_err(|_| self.error(format!("string {word:?} is not UTF-8")))
    }

    /// Read a map written by [`Writer::map_records`], rejecting duplicate
    /// or unordered keys.
    pub fn map_records<CK: ?Sized, CV: ?Sized, K, V, M>(
        &mut self,
        tag: &str,
        ck: &CK,
        cv: &CV,
    ) -> Result<M, CodecError>
    where
        K: Codec<CK> + Ord,
        V: Codec<CV>,
        M: FromIterator<(K, V)>,
    {
        let n: usize = self.record(tag)?.get()?;
        let mut entries: Vec<(K, V)> = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let k: K = self.record(tag)?.get_in(ck)?;
            if entries.last().is_some_and(|(prev, _)| *prev >= k) {
                return Err(self.error(format!("`{tag}` keys duplicate or out of order")));
            }
            let v: V = self.get_in(cv)?;
            entries.push((k, v));
        }
        Ok(entries.into_iter().collect())
    }

    /// Require the whole body to have been read.
    pub fn finish(mut self) -> Result<(), CodecError> {
        self.end_record()?;
        if !self.rest.is_empty() {
            self.line += 1;
            return Err(self.error("trailing records"));
        }
        Ok(())
    }

    fn end_record(&self) -> Result<(), CodecError> {
        if self.fields.is_empty() {
            Ok(())
        } else {
            let extra: String = self.fields.chars().take(40).collect();
            Err(self.error(format!("trailing fields {extra:?}")))
        }
    }

    /// Parse an integer token: decimal digits, optionally after `-`.
    fn integer<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, CodecError> {
        let word = self.word()?;
        let digits = word.strip_prefix('-').unwrap_or(word);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(self.error(format!("expected {what}, found {word:?}")));
        }
        word.parse()
            .map_err(|_| self.error(format!("{word:?} is out of range for {what}")))
    }
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

macro_rules! unsigned_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut Writer) {
                w.int(false, *self as u64);
            }
            fn decode(r: &mut Reader<'_>, _: &()) -> Result<Self, CodecError> {
                r.integer(stringify!($t))
            }
        }
    )*};
}

unsigned_codec!(u16, u32, u64, usize);

impl Codec for i64 {
    fn encode(&self, w: &mut Writer) {
        w.int(*self < 0, self.unsigned_abs());
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Self, CodecError> {
        r.integer("i64")
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.hex16(self.to_bits());
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Self, CodecError> {
        let word = r.word()?;
        let bits = parse_hex16(word)
            .ok_or_else(|| r.error(format!("expected 16 hex digits, found {word:?}")))?;
        Ok(f64::from_bits(bits))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.word(if *self { "1" } else { "0" });
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Self, CodecError> {
        match r.word()? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(r.error(format!("expected 0 or 1, found {other:?}"))),
        }
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Self, CodecError> {
        r.str()
    }
}

impl<C: ?Sized, T: Codec<C>> Codec<C> for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Some(v) => v.encode(w),
            None => {
                w.word("-");
            }
        }
    }
    fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError> {
        if r.fields.starts_with(" -") && matches!(r.fields.as_bytes().get(2), None | Some(b' ')) {
            r.word()?;
            return Ok(None);
        }
        T::decode(r, cx).map(Some)
    }
}

fn encode_list<'i, T: Codec<C> + 'i, C: ?Sized>(
    w: &mut Writer,
    items: impl ExactSizeIterator<Item = &'i T>,
) {
    w.put(&items.len());
    for v in items {
        v.encode(w);
    }
}

impl<C: ?Sized, T: Codec<C>> Codec<C> for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        encode_list(w, self.iter());
    }
    fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError> {
        let n: usize = r.get()?;
        (0..n).map(|_| T::decode(r, cx)).collect()
    }
}

impl<C: ?Sized, T: Codec<C>> Codec<C> for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        encode_list(w, self.iter());
    }
    fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError> {
        Vec::<T>::decode(r, cx).map(VecDeque::from)
    }
}

impl<C: ?Sized, T: Codec<C>, const N: usize> Codec<C> for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError> {
        let items = (0..N)
            .map(|_| T::decode(r, cx))
            .collect::<Result<Vec<T>, _>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("decoded exactly N items")))
    }
}

macro_rules! tuple_codec {
    ($($t:ident),*) => {
        impl<C: ?Sized, $($t: Codec<C>),*> Codec<C> for ($($t,)*) {
            #[allow(non_snake_case)]
            fn encode(&self, w: &mut Writer) {
                let ($($t,)*) = self;
                $($t.encode(w);)*
            }
            fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError> {
                Ok(($($t::decode(r, cx)?,)*))
            }
        }
    };
}

tuple_codec!(T1, T2);
tuple_codec!(T1, T2, T3);

impl<C: ?Sized, K: Codec<C> + Ord + Hash, V: Codec<C>> Codec<C> for HashMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put(&entries.len());
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>, cx: &C) -> Result<Self, CodecError> {
        let entries: Vec<(K, V)> = Vec::decode(r, cx)?;
        if entries.windows(2).any(|p| p[0].0 >= p[1].0) {
            return Err(r.error("map keys duplicate or out of order"));
        }
        Ok(entries.into_iter().collect())
    }
}
