//! Deterministic binary snapshot codec.
//!
//! The checkpoint/fork machinery (`platform::checkpoint` in the core
//! crate) serializes the *entire* engine state — event queue, arenas,
//! allocator planes, estimator state, metrics accumulators — into one
//! contiguous byte buffer, and restores it byte-exactly. This module is
//! the codec substrate: a hand-rolled writer/reader pair (no serde; the
//! build is offline) plus the [`Snap`] trait every snapshottable type
//! implements.
//!
//! Encoding rules, chosen for determinism rather than compactness:
//!
//! * all integers are **fixed-width little-endian** — no varints, so the
//!   encoded form of a value never depends on its magnitude;
//! * `f64` is encoded via [`f64::to_bits`] — bit-exact round trips, the
//!   same convention the report digest uses;
//! * collections are length-prefixed (`u64`) and encoded in their own
//!   deterministic iteration order;
//! * there is no schema or tagging inside the stream — the layout *is*
//!   the schema, which is why encode/decode implementations must
//!   destructure their structs exhaustively (enforced by the
//!   `exhaustive-snapshot-fields` lint rule: a newly added field that the
//!   codec silently skips would corrupt every checkpoint).
//!
//! Decoding is fallible and total: a truncated or corrupt buffer returns
//! a [`SnapError`] naming the decode site, never a panic.

use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A decode failure: the buffer was truncated, a tag was out of range, or
/// a sanity bound was violated. Carries the decode site for diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// What was being decoded when the failure was detected.
    pub what: &'static str,
}

impl SnapError {
    /// Builds an error naming the decode site.
    pub fn new(what: &'static str) -> Self {
        SnapError { what }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot decode failed at {}", self.what)
    }
}

impl std::error::Error for SnapError {}

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// An empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's-complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` bit-exactly (via [`f64::to_bits`]).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a collection length as a `u64`. `usize` → `u64` is lossless
    /// on every supported target; the saturating fallback is unreachable.
    pub fn len_prefix(&mut self, len: usize) {
        self.u64(u64::try_from(len).unwrap_or(u64::MAX));
    }

    /// Writes raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len_prefix(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a UTF-8 string with a length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Deserializes values from a byte buffer, tracking the read cursor.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — a trailing-garbage
    /// check for top-level decoders.
    pub fn expect_done(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::new("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError { what })?;
        if end > self.buf.len() {
            return Err(SnapError { what });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2, "u16")?;
        let arr: [u8; 2] = b.try_into().map_err(|_| SnapError::new("u16"))?;
        Ok(u16::from_le_bytes(arr))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        let arr: [u8; 4] = b.try_into().map_err(|_| SnapError::new("u32"))?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        let arr: [u8; 8] = b.try_into().map_err(|_| SnapError::new("u64"))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let b = self.take(16, "u128")?;
        let arr: [u8; 16] = b.try_into().map_err(|_| SnapError::new("u128"))?;
        Ok(u128::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8, "i64")?;
        let arr: [u8; 8] = b.try_into().map_err(|_| SnapError::new("i64"))?;
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads an `f64` encoded via [`f64::to_bits`].
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is a decode error.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::new("bool")),
        }
    }

    /// Reads a collection length prefix, bounds-checked against the bytes
    /// actually remaining (each element takes at least one byte), so a
    /// corrupt length cannot trigger an absurd pre-allocation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::new("len"))?;
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len_prefix()?;
        self.take(n, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::new("utf8"))
    }
}

/// A type whose full state can be serialized into a [`SnapWriter`] and
/// reconstructed, byte-exactly, from a [`SnapReader`].
///
/// Implementations must destructure their struct exhaustively (no `..`
/// rest patterns) so a newly added field fails to compile rather than
/// being silently dropped from checkpoints — the `exhaustive-snapshot-
/// fields` lint rule enforces this mechanically.
pub trait Snap: Sized {
    /// Serializes `self` into `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Reconstructs a value from `r`.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u16 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u16(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u16()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for u128 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u128(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u128()
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.i64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.i64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.len_prefix()
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.f64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl Snap for SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.as_micros());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_micros(r.u64()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            _ => Err(SnapError::new("Option tag")),
        }
    }
}

/// How many elements of `T` a decoder of an `n`-element container may
/// reserve up front with `remaining` input bytes left: at most `n`, and
/// never more bytes of elements than the input holds, so a forged length
/// cannot make a short input allocate much. A container whose elements
/// encode smaller than they sit in memory grows past that as it decodes.
fn reservation<T>(n: usize, remaining: usize) -> usize {
    n.min(remaining / std::mem::size_of::<T>().max(1))
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = Vec::with_capacity(reservation::<T>(n, r.remaining()));
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = VecDeque::with_capacity(reservation::<T>(n, r.remaining()));
        for _ in 0..n {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Arc<T> {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::new(T::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("decode");
        r.expect_done().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&u128::MAX);
        round_trip(&(-42i64));
        round_trip(&std::f64::consts::PI);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("resnet-50 \u{1F680}"));
        round_trip(&SimTime::from_micros(123_456_789));
        round_trip(&42usize);
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = f64::unsnap(&mut r).expect("decode");
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Some(7u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<String>::new());
        round_trip(&VecDeque::from([1u64, 2, 3]));
        round_trip(&BTreeMap::from([(1u64, 2u64), (3, 4)]));
        round_trip(&BTreeSet::from([9u64, 1, 5]));
        round_trip(&(1u64, 2u8));
        round_trip(&(1u64, 2u8, String::from("x")));
        round_trip(&vec![(SimTime::from_secs(1), 0.5f64)]);
    }

    #[test]
    fn arc_round_trips_by_value() {
        let v = Arc::new(vec![1u64, 2, 3]);
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = Arc::<Vec<u64>>::unsnap(&mut r).expect("decode");
        assert_eq!(*back, *v);
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].snap(&mut w);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::unsnap(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn length_bombs_are_errors_without_a_large_reservation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        w.u64(7);
        w.u8(1);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<(u64, u64, u64)>::unsnap(&mut r).is_err());
        let mut r = SnapReader::new(&bytes);
        assert!(VecDeque::<(u64, u64, u64)>::unsnap(&mut r).is_err());
        // The reservation never holds more bytes of elements than the
        // input does, whatever the claimed length and element size.
        fn bounded<T>(len: usize) {
            for n in [0, 1, 2, len / 2, len, len + 1, usize::MAX] {
                let reserved = reservation::<T>(n, len);
                assert!(reserved <= n);
                assert!(reserved * std::mem::size_of::<T>() <= len, "{n} of {len} bytes");
            }
        }
        for len in [0, 1, 17, bytes.len(), 4096] {
            bounded::<u8>(len);
            bounded::<()>(len);
            bounded::<(u64, u64, u64)>(len);
            bounded::<String>(len);
            bounded::<[u64; 40]>(len);
        }
    }

    #[test]
    fn bad_tags_are_errors() {
        let mut r = SnapReader::new(&[2]);
        assert!(Option::<u8>::unsnap(&mut r).is_err());
        let mut r = SnapReader::new(&[7]);
        assert!(bool::unsnap(&mut r).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapWriter::new();
        1u8.snap(&mut w);
        2u8.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let _ = u8::unsnap(&mut r).expect("first");
        assert!(r.expect_done().is_err());
        let _ = u8::unsnap(&mut r).expect("second");
        assert!(r.expect_done().is_ok());
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut w = SnapWriter::new();
            BTreeMap::from([(3u64, 1.5f64), (1, 2.5)]).snap(&mut w);
            w.finish()
        };
        assert_eq!(encode(), encode());
    }
}
