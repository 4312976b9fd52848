//! Deterministic binary snapshot codec.
//!
//! The checkpoint/fork machinery (`platform::checkpoint` in the core
//! crate) serializes the *entire* engine state — event queue, arenas,
//! allocator planes, estimator state, metrics accumulators — into one
//! contiguous byte buffer, and restores it byte-exactly. This module is
//! the codec substrate: a hand-rolled writer/reader pair (no serde; the
//! build is offline), the [`Snap`] trait every snapshottable type
//! implements, its impls for primitives and std containers, and two
//! macros that write the impls for state types from one field list:
//!
//! * [`snap_struct!`](crate::snap_struct) — a struct (or tuple struct)
//!   encoded as its fields in list order, with optional `skip`ped cache
//!   fields, a `rebuild` that derives them on decode, and a `check` run
//!   on the decoded value;
//! * [`snap_enum!`](crate::snap_enum) — an enum encoded as a one-byte tag
//!   followed by the variant's fields.
//!
//! Encoding rules, chosen for determinism rather than compactness:
//!
//! * all integers are **fixed-width little-endian** — no varints, so the
//!   encoded form of a value never depends on its magnitude; `usize` is
//!   written as a `u64`;
//! * `f64` is encoded via [`f64::to_bits`] — bit-exact round trips, the
//!   same convention the report digest uses;
//! * collections are length-prefixed (`u64`) and encoded in their own
//!   deterministic iteration order;
//! * there is no schema or tagging inside the stream — the layout *is*
//!   the schema. The macros destructure exhaustively by construction, so
//!   a newly added field is a compile error until it is listed; the few
//!   impls still written by hand (decoders that need context, generic
//!   containers, derived fields) destructure exhaustively too, which the
//!   `exhaustive-snapshot-fields` lint rule enforces.
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

    /// `Ok` if `holds`, else an error naming `what`: the verdict of one
    /// rule of the invariant catalogue, or of one decode bound.
    pub fn ensure(holds: bool, what: &'static str) -> Result<(), Self> {
        holds.then_some(()).ok_or(SnapError { what })
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

    /// Reads a collection length prefix (also the encoding of `usize`
    /// values such as counts and capacities). It is deliberately *not*
    /// checked against the bytes remaining: a `usize` field may hold any
    /// value. The container decoders bound their up-front allocation by
    /// the bytes remaining instead, so a corrupt length cannot trigger an
    /// absurd pre-allocation.
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
/// State types implement it through [`snap_struct!`](crate::snap_struct)
/// or [`snap_enum!`](crate::snap_enum), which list each field once and
/// destructure exhaustively. A hand-written impl is for a layout that is
/// not a plain field list; it must destructure its struct exhaustively
/// too (no `..` rest patterns), so a newly added field fails to compile
/// rather than being silently dropped from checkpoints — the
/// `exhaustive-snapshot-fields` lint rule enforces this mechanically.
pub trait Snap: Sized {
    /// Serializes `self` into `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Reconstructs a value from `r`.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implements [`Snap`] for a struct whose wire layout is its fields in
/// list order, each encoded with its own [`Snap`] impl.
///
/// ```
/// use fastg_des::{snap_struct, SimTime, SnapError};
///
/// #[derive(Debug, Default, PartialEq)]
/// pub struct Window {
///     start: SimTime,
///     count: u64,
///     /// Derived on demand; never on the wire.
///     cache: Vec<u64>,
/// }
///
/// snap_struct!(Window { start, count } skip { cache } check |v| {
///     if v.count > 1 << 20 {
///         return Err(SnapError::new("Window count"));
///     }
///     Ok(())
/// });
///
/// /// A tuple newtype lists a binding per field.
/// pub struct Id(u32);
/// snap_struct!(Id(raw));
/// ```
///
/// The encoder destructures the struct exhaustively: a field missing
/// from both lists is a compile error, never a field the checkpoint
/// silently drops. The decoder reads a struct literal, which Rust
/// evaluates in the order written, so bytes are read in list order.
/// `skip` fields are caches and scratch space: they are not written and
/// decode as `Default::default()`. `rebuild |v| { … }` derives them
/// again from the decoded fields (`v: &mut Self`) and returns
/// `Result<(), SnapError>`, failing when the fields cannot support them.
/// `check |v| { … }` validates the decoded value (`v: &Self`) and
/// returns `Result<(), SnapError>`; it runs after the whole struct has
/// been read and rebuilt.
#[macro_export]
macro_rules! snap_struct {
    (
        $ty:ident { $($field:ident),* $(,)? }
        $(skip { $($skip:ident),* $(,)? })?
        $(rebuild |$rv:ident| $rebuild:block)?
        $(check |$v:ident| $check:block)?
    ) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty { $($field,)* $($($skip: _,)*)? } = self;
                $($crate::snap::Snap::snap($field, w);)*
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                let value = $ty {
                    $($field: $crate::snap::Snap::unsnap(r)?,)*
                    $($($skip: ::core::default::Default::default(),)*)?
                };
                $(let value = {
                    let mut value = value;
                    let $rv: &mut $ty = &mut value;
                    let rebuilt: ::core::result::Result<(), $crate::snap::SnapError> = $rebuild;
                    rebuilt?;
                    value
                };)?
                $({
                    let $v: &$ty = &value;
                    let checked: ::core::result::Result<(), $crate::snap::SnapError> = $check;
                    checked?;
                })?
                Ok(value)
            }
        }
    };
    ($ty:ident ( $($field:ident),+ $(,)? )) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty($($field),+) = self;
                $($crate::snap::Snap::snap($field, w);)+
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                Ok($ty($({
                    let $field = $crate::snap::Snap::unsnap(r)?;
                    $field
                }),+))
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a one-byte tag followed by the
/// variant's fields in list order. Each variant is written as it is
/// matched: bare, with a binding per tuple field, or with its struct
/// field names, then paired with its tag. Decoding an unlisted tag fails
/// with a [`SnapError`] carrying the given name; an optional
/// `check |v| { … }` validates the decoded value as in [`snap_struct!`].
///
/// ```
/// use fastg_des::{snap_enum, SnapError};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// pub enum Light {
///     Off,
///     Blink(u64),
///     Dim { level: f64 },
/// }
///
/// snap_enum!(Light, "Light tag" { Off = 0, Blink(period) = 1, Dim { level } = 2 } check |l| {
///     match l {
///         Light::Dim { level } if !level.is_finite() => Err(SnapError::new("Light level")),
///         _ => Ok(()),
///     }
/// });
/// ```
///
/// The encoder's `match` is exhaustive, so a new variant is a compile
/// error until it has a tag, and a new field is one until it is listed.
#[macro_export]
macro_rules! snap_enum {
    (
        $ty:ident, $what:literal {
            $(
                $variant:ident $(( $($tf:ident),+ $(,)? ))? $({ $($sf:ident),+ $(,)? })? = $tag:literal
            ),+ $(,)?
        }
        $(check |$v:ident| $check:block)?
    ) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $($ty::$variant $(($($tf),+))? $({ $($sf),+ })? => {
                        w.u8($tag);
                        $($($crate::snap::Snap::snap($tf, w);)+)?
                        $($($crate::snap::Snap::snap($sf, w);)+)?
                    })+
                }
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                let value = match r.u8()? {
                    $($tag => $ty::$variant
                        $(($({
                            let $tf = $crate::snap::Snap::unsnap(r)?;
                            $tf
                        }),+))?
                        $({ $($sf: $crate::snap::Snap::unsnap(r)?),+ })?,
                    )+
                    _ => return Err($crate::snap::SnapError::new($what)),
                };
                $({
                    let $v: &$ty = &value;
                    let checked: ::core::result::Result<(), $crate::snap::SnapError> = $check;
                    checked?;
                })?
                Ok(value)
            }
        }
    };
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
pub(crate) fn reservation<T>(n: usize, remaining: usize) -> usize {
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

    /// A struct with a skipped cache field and a decode check.
    #[derive(Debug, Default, PartialEq)]
    struct Window {
        start: SimTime,
        count: u32,
        cache: Vec<u64>,
    }

    snap_struct!(Window { start, count } skip { cache } check |v| {
        if v.count > 100 {
            return Err(SnapError::new("window count"));
        }
        Ok(())
    });

    /// A struct whose skipped field is rebuilt on decode, then checked.
    #[derive(Debug, Default, PartialEq)]
    struct Scaled {
        base: u32,
        doubled: u64,
    }

    snap_struct!(Scaled { base } skip { doubled } rebuild |v| {
        v.doubled = u64::from(v.base) * 2;
        Ok(())
    } check |v| {
        if v.doubled > 100 {
            return Err(SnapError::new("scaled bound"));
        }
        Ok(())
    });

    #[derive(Debug, PartialEq)]
    struct Pair(u64, String);

    snap_struct!(Pair(id, name));

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u64, u64),
        Box { w: u32, h: u32 },
    }

    snap_enum!(Shape, "shape tag" { Dot = 0, Line(from, to) = 1, Box { w, h } = 2 });

    fn encode<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.finish()
    }

    fn decode<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
        let mut r = SnapReader::new(bytes);
        let v = T::unsnap(&mut r)?;
        r.expect_done()?;
        Ok(v)
    }

    #[test]
    fn snap_struct_writes_listed_fields_in_order_and_skips_the_rest() {
        let v = Window {
            start: SimTime::from_micros(9),
            count: 7,
            cache: vec![1, 2, 3],
        };
        let bytes = encode(&v);
        let mut w = SnapWriter::new();
        w.u64(9);
        w.u32(7);
        assert_eq!(bytes, w.finish());
        let back: Window = decode(&bytes).expect("decode");
        assert_eq!(back.start, v.start);
        assert_eq!(back.count, v.count);
        assert!(
            back.cache.is_empty(),
            "a skipped field decodes as its default"
        );
    }

    #[test]
    fn snap_struct_check_surfaces_its_error() {
        let v = Window {
            count: 101,
            ..Window::default()
        };
        assert_eq!(
            decode::<Window>(&encode(&v)),
            Err(SnapError::new("window count"))
        );
    }

    #[test]
    fn snap_struct_rebuild_derives_skipped_fields_before_the_check() {
        let scaled = |base| Scaled { base, doubled: 0 };
        let bytes = encode(&scaled(21));
        assert_eq!(bytes, 21u32.to_le_bytes());
        let back = decode::<Scaled>(&bytes).expect("decode");
        assert_eq!((back.base, back.doubled), (21, 42));
        assert_eq!(
            decode::<Scaled>(&encode(&scaled(51))),
            Err(SnapError::new("scaled bound")),
            "the check sees the rebuilt field"
        );
    }

    #[test]
    fn snap_struct_tuple_newtype_round_trips() {
        round_trip(&Pair(u64::MAX, String::from("gpu-0")));
        let mut w = SnapWriter::new();
        w.u64(3);
        w.str("x");
        assert_eq!(encode(&Pair(3, String::from("x"))), w.finish());
    }

    #[test]
    fn snap_enum_round_trips_every_variant_and_rejects_bad_tags() {
        round_trip(&Shape::Dot);
        round_trip(&Shape::Line(4, 5));
        round_trip(&Shape::Box { w: 6, h: 7 });
        assert_eq!(encode(&Shape::Dot), vec![0]);
        assert_eq!(decode::<Shape>(&[3]), Err(SnapError::new("shape tag")));
        assert_eq!(
            decode::<Shape>(&[u8::MAX]),
            Err(SnapError::new("shape tag"))
        );
        for v in [Shape::Line(4, 5), Shape::Box { w: 6, h: 7 }] {
            let bytes = encode(&v);
            for cut in 0..bytes.len() {
                assert!(
                    decode::<Shape>(&bytes[..cut]).is_err(),
                    "{v:?} cut at {cut}"
                );
            }
        }
        let bytes = encode(&Window::default());
        for cut in 0..bytes.len() {
            assert!(
                decode::<Window>(&bytes[..cut]).is_err(),
                "window cut at {cut}"
            );
        }
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
