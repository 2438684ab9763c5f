//! Length-prefixed little-endian binary wire codec.
//!
//! Harmony's simulated cluster serializes every inter-node message for real,
//! so the byte counts fed into the network cost model are exact — not
//! estimates. A hand-rolled codec (rather than a serde backend) keeps the
//! wire format deterministic, dependency-light, and easy to reason about
//! when auditing the communication-volume claims of the paper (§4.2.2:
//! "the total data sent does not change").
//!
//! Messages are declared through [`wire!`](crate::wire): it takes a
//! message's documented field (or variant) list once and emits the type
//! together with its [`Wire`] impl, so `encode`, `decode`, `size_hint` and
//! an enum's two tag matches cannot drift apart.
//!
//! Format rules:
//! * all integers little-endian; `usize` travels as `u64`;
//! * collections are a `u64` element count followed by the elements;
//!   `u8`/`u32`/`u64`/`f32` elements move as one bulk copy
//!   ([`Wire::encode_slice`] / [`Wire::decode_vec`]);
//! * `Option<T>` is a `u8` tag (0/1) optionally followed by `T`;
//! * counts and strictly ascending integer runs inside the batched
//!   pipeline messages are LEB128 varints ([`put_varint`],
//!   [`put_ascending`]: a survivor index costs ~1 byte instead of 4);
//! * no padding, no framing — framing belongs to the transport.

use bytes::{Buf, BufMut};
use std::fmt;

pub use bytes::{Bytes, BytesMut};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// The bytes were structurally invalid (bad tag, oversized length, ...).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(msg) => write!(f, "invalid encoding: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A type that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes a value, consuming bytes from `buf`.
    ///
    /// # Errors
    /// [`CodecError`] if the buffer is truncated or malformed.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;

    /// Encoded size, exact or slightly low, used by [`Wire::to_bytes`] to
    /// allocate once instead of doubling through a multi-megabyte block.
    /// 0 (the default) means "small, let the buffer grow".
    fn size_hint(&self) -> usize {
        0
    }

    /// Encodes `items` as a collection: `u64` count, then the elements.
    /// Fixed-width primitives override this with one bulk copy.
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        buf.put_u64_le(items.len() as u64);
        for item in items {
            item.encode(buf);
        }
    }

    /// Decodes a collection written by [`Wire::encode_slice`].
    ///
    /// # Errors
    /// [`CodecError`] if the buffer is truncated or malformed.
    fn decode_vec(buf: &mut Bytes) -> Result<Vec<Self>, CodecError> {
        let len = usize::decode(buf)?;
        // Guard against hostile / corrupt lengths: each element needs at
        // least one byte on the wire.
        if len > buf.remaining() {
            return Err(CodecError::Invalid(format!(
                "declared {len} elements but only {} bytes remain",
                buf.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.size_hint());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Convenience: decodes from a complete buffer, requiring full
    /// consumption.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when trailing bytes remain.
    fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut buf = bytes;
        let v = Self::decode(&mut buf)?;
        if buf.has_remaining() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes",
                buf.remaining()
            )));
        }
        Ok(v)
    }
}

macro_rules! check_len {
    ($buf:expr, $n:expr) => {
        if $buf.remaining() < $n {
            return Err(CodecError::UnexpectedEof);
        }
    };
}

/// Checks a declared element count of `size`-byte elements against the
/// bytes that remain and returns the payload length in bytes.
fn bulk_len(buf: &Bytes, len: usize, size: usize) -> Result<usize, CodecError> {
    len.checked_mul(size)
        .filter(|&bytes| bytes <= buf.remaining())
        .ok_or_else(|| {
            CodecError::Invalid(format!(
                "declared {len} {size}-byte elements but only {} bytes remain",
                buf.remaining()
            ))
        })
}

macro_rules! impl_wire_primitive {
    ($ty:ty, $put:ident, $get:ident, $size:expr) => {
        impl_wire_primitive!($ty, $put, $get, $size, {});
    };
    // `bulk`: the payloads that dominate the wire (ids, coordinates, codes,
    // indices) are one length check plus one pass over a pre-sized
    // region, which the compiler turns into a copy on little-endian hosts.
    ($ty:ty, $put:ident, $get:ident, $size:expr, bulk) => {
        impl_wire_primitive!($ty, $put, $get, $size, {
            fn encode_slice(items: &[Self], buf: &mut BytesMut) {
                buf.put_u64_le(items.len() as u64);
                let start = buf.len();
                buf.resize(start + items.len() * $size, 0);
                for (dst, v) in buf[start..].chunks_exact_mut($size).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }

            fn decode_vec(buf: &mut Bytes) -> Result<Vec<Self>, CodecError> {
                let len = usize::decode(buf)?;
                let bytes = bulk_len(buf, len, $size)?;
                let out = buf[..bytes]
                    .chunks_exact($size)
                    .map(|c| {
                        let mut raw = [0u8; $size];
                        raw.copy_from_slice(c);
                        <$ty>::from_le_bytes(raw)
                    })
                    .collect();
                buf.advance(bytes);
                Ok(out)
            }
        });
    };
    ($ty:ty, $put:ident, $get:ident, $size:expr, { $($bulk:tt)* }) => {
        impl Wire for $ty {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
                check_len!(buf, $size);
                Ok(buf.$get())
            }
            #[inline]
            fn size_hint(&self) -> usize {
                $size
            }
            $($bulk)*
        }
    };
}

impl_wire_primitive!(u8, put_u8, get_u8, 1, bulk);
impl_wire_primitive!(u16, put_u16_le, get_u16_le, 2);
impl_wire_primitive!(u32, put_u32_le, get_u32_le, 4, bulk);
impl_wire_primitive!(u64, put_u64_le, get_u64_le, 8, bulk);
impl_wire_primitive!(i64, put_i64_le, get_i64_le, 8);
impl_wire_primitive!(f32, put_f32_le, get_f32_le, 4, bulk);
impl_wire_primitive!(f64, put_f64_le, get_f64_le, 8);

impl Wire for usize {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        check_len!(buf, 8);
        let v = buf.get_u64_le();
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("usize overflow: {v}")))
    }
    #[inline]
    fn size_hint(&self) -> usize {
        8
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        check_len!(buf, 1);
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::Invalid(format!("bad bool tag {t}"))),
        }
    }
    #[inline]
    fn size_hint(&self) -> usize {
        1
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let len = usize::decode(buf)?;
        check_len!(buf, len);
        let bytes = buf.copy_to_bytes(len);
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Invalid(format!("invalid utf8: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        T::encode_slice(self, buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        T::decode_vec(buf)
    }
    fn size_hint(&self) -> usize {
        8 + self.iter().map(Wire::size_hint).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        check_len!(buf, 1);
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(CodecError::Invalid(format!("bad option tag {t}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// Declares a wire message **once**: the documented field (or variant)
/// list is the type definition *and* its [`Wire`] impl. `encode`, `decode`
/// and `size_hint` walk that one list in declaration order, so field
/// symmetry, variant coverage and encode/decode tag agreement hold by
/// construction. Adding a field is one line in the declaration.
///
/// **Struct form.** Fields travel in declaration order through their
/// type's [`Wire`] impl. `field: Type as module` routes one field through
/// `module::{encode, decode, size_hint}` instead (a foreign type the orphan
/// rule keeps from implementing [`Wire`]). An optional `validate = f;`
/// runs `f(&message)?` at the end of `decode`, so a message that is
/// decodable but malformed never reaches a handler.
///
/// ```
/// use harmony_cluster::{wire, CodecError, Wire};
///
/// wire! {
///     /// A list of 2-d points.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct Points {
///         /// Point ids.
///         pub ids: Vec<u64>,
///         /// Row-major coordinates, two per id.
///         pub flat: Vec<f32>,
///     }
///     validate = |p: &Points| match p.flat.len() == 2 * p.ids.len() {
///         true => Ok(()),
///         false => Err(CodecError::Invalid("flat is not two per id".into())),
///     };
/// }
///
/// let p = Points { ids: vec![7], flat: vec![0.5, 1.5] };
/// assert_eq!(Points::from_bytes(p.to_bytes()), Ok(p));
/// let bad = Points { ids: vec![7], flat: vec![0.5] };
/// assert!(Points::from_bytes(bad.to_bytes()).is_err());
/// ```
///
/// **Enum form.** `tag => Variant(Payload)`, `tag => Variant { fields }` or
/// `tag => Variant`: one `u8` tag, then the payload. Both match directions
/// come from the one list, as do `TAGS` (every `(tag, variant name)`, in
/// declaration order) and `tag()`. A tag used twice is a compile error
/// (the generated `decode` denies unreachable patterns); tag *stability*
/// across versions is what the compiler cannot see — pin `TAGS` in a test.
///
/// ```
/// use harmony_cluster::{wire, Wire};
///
/// wire! {
///     /// A request.
///     #[derive(Debug, Clone, PartialEq)]
///     pub enum Request {
///         /// Fetch one key.
///         0 => Get(u64),
///         /// Store a value under a key.
///         1 => Put {
///             /// The key.
///             key: u64,
///             /// The value.
///             value: f32,
///         },
///         /// Drop everything.
///         2 => Clear,
///     }
/// }
///
/// assert_eq!(Request::TAGS, &[(0, "Get"), (1, "Put"), (2, "Clear")]);
/// let put = Request::Put { key: 9, value: 0.5 };
/// assert_eq!((put.tag(), put.to_bytes()[0]), (1, 1));
/// assert_eq!(Request::from_bytes(put.to_bytes()), Ok(put));
/// ```
///
/// ```compile_fail
/// harmony_cluster::wire! {
///     pub enum Dup {
///         0 => First,
///         0 => Second, // error: unreachable pattern
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire {
    // One field (or payload) through its `Wire` impl, or through the
    // override module when one is named.
    (@encode $value:expr, $buf:expr) => { $crate::codec::Wire::encode($value, $buf) };
    (@encode $value:expr, $buf:expr, $codec:ident) => { $codec::encode($value, $buf) };
    (@decode $ty:ty, $buf:expr) => { <$ty as $crate::codec::Wire>::decode($buf) };
    (@decode $ty:ty, $buf:expr, $codec:ident) => { $codec::decode($buf) };
    (@hint $value:expr) => { $crate::codec::Wire::size_hint($value) };
    (@hint $value:expr, $codec:ident) => { $codec::size_hint($value) };
    // Emits `$keep` once per captured `$drop` (a repetition must name one).
    (@first $keep:tt, $($drop:tt)*) => { $keep };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $fty:ty $(as $codec:ident)?
            ),* $(,)?
        }
        $(validate = $validate:expr;)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::codec::Wire for $name {
            fn encode(&self, buf: &mut $crate::codec::BytesMut) {
                $( $crate::wire!(@encode &self.$field, buf $(, $codec)?); )*
            }

            fn decode(
                buf: &mut $crate::codec::Bytes,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                let msg = Self {
                    $( $field: $crate::wire!(@decode $fty, buf $(, $codec)?)?, )*
                };
                $( ($validate)(&msg)?; )?
                Ok(msg)
            }

            fn size_hint(&self) -> usize {
                <[usize]>::iter(&[
                    $( $crate::wire!(@hint &self.$field $(, $codec)?), )*
                ])
                .sum()
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $( ( $payload:ty ) )?
                    $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ( $payload ) )? $( { $( $(#[$fmeta])* $field: $fty, )* } )?,
            )*
        }

        impl $name {
            /// Every variant's `(wire tag, name)`, in declaration order.
            pub const TAGS: &'static [(u8, &'static str)] =
                &[ $( ($tag, stringify!($variant)), )* ];

            /// The wire tag of this value's variant.
            pub fn tag(&self) -> u8 {
                match self {
                    $(
                        $name::$variant
                            $( ( $crate::wire!(@first _, $payload) ) )?
                            $( { $( $field: _, )* } )?
                        => $tag,
                    )*
                }
            }
        }

        impl $crate::codec::Wire for $name {
            fn encode(&self, buf: &mut $crate::codec::BytesMut) {
                match self {
                    $(
                        $name::$variant
                            $( ( $crate::wire!(@first m, $payload) ) )?
                            $( { $( $field, )* } )?
                        => {
                            <u8 as $crate::codec::Wire>::encode(&$tag, buf);
                            $( $crate::codec::Wire::encode($crate::wire!(@first m, $payload), buf); )?
                            $( $( $crate::codec::Wire::encode($field, buf); )* )?
                        }
                    )*
                }
            }

            // A tag listed twice makes its second arm unreachable.
            #[deny(unreachable_patterns)]
            fn decode(
                buf: &mut $crate::codec::Bytes,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                match <u8 as $crate::codec::Wire>::decode(buf)? {
                    $(
                        $tag => Ok($name::$variant
                            $( ( <$payload as $crate::codec::Wire>::decode(buf)? ) )?
                            $( { $( $field: <$fty as $crate::codec::Wire>::decode(buf)?, )* } )?
                        ),
                    )*
                    t => Err($crate::codec::CodecError::Invalid(format!(
                        concat!("bad ", stringify!($name), " tag {}"),
                        t
                    ))),
                }
            }

            fn size_hint(&self) -> usize {
                match self {
                    $(
                        $name::$variant
                            $( ( $crate::wire!(@first m, $payload) ) )?
                            $( { $( $field, )* } )?
                        => <[usize]>::iter(&[
                            1,
                            $( $crate::codec::Wire::size_hint($crate::wire!(@first m, $payload)), )?
                            $( $( $crate::codec::Wire::size_hint($field), )* )?
                        ])
                        .sum(),
                    )*
                }
            }
        }
    };
}

/// Appends `v` as an LEB128 varint (7 value bits per byte, low first).
#[inline]
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Reads one varint at `bytes[*at..]`, advancing `*at` past it.
#[inline]
fn varint_at(bytes: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let &b = bytes.get(*at).ok_or(CodecError::UnexpectedEof)?;
        *at += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    Err(CodecError::Invalid("varint longer than 10 bytes".into()))
}

/// Decodes one varint written by [`put_varint`].
///
/// # Errors
/// [`CodecError`] if the buffer ends inside the varint or it overflows `u64`.
#[inline]
pub fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut at = 0;
    let v = varint_at(buf, &mut at)?;
    buf.advance(at);
    Ok(v)
}

/// Decodes a varint element count, bounded by the bytes that remain (every
/// counted element takes at least `min_bytes` on the wire), so a hostile
/// count cannot force an allocation.
///
/// # Errors
/// [`CodecError`] on truncation or a count the buffer cannot hold.
pub fn get_count(buf: &mut Bytes, min_bytes: usize) -> Result<usize, CodecError> {
    let n = get_varint(buf)?;
    usize::try_from(n)
        .ok()
        .filter(|n| n.saturating_mul(min_bytes) <= buf.remaining())
        .ok_or_else(|| {
            CodecError::Invalid(format!(
                "declared {n} elements but only {} bytes remain",
                buf.remaining()
            ))
        })
}

/// Appends a non-descending run as varint gaps (the first value is its gap
/// from 0). No count is written; the caller's framing supplies it.
pub fn put_ascending<T: Copy + Into<u64>>(values: &[T], buf: &mut BytesMut) {
    buf.reserve(values.len());
    let mut prev = 0u64;
    for &v in values {
        let v = v.into();
        debug_assert!(v >= prev, "run is not ascending");
        put_varint(buf, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Decodes `count` values written by [`put_ascending`], appending to `out`.
///
/// # Errors
/// [`CodecError`] on truncation or a value that overflows `T`.
pub fn get_ascending<T: TryFrom<u64>>(
    buf: &mut Bytes,
    count: usize,
    out: &mut Vec<T>,
) -> Result<(), CodecError> {
    if count > buf.remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    out.reserve(count);
    let mut at = 0;
    let mut prev = 0u64;
    for _ in 0..count {
        let v = prev.checked_add(varint_at(buf, &mut at)?);
        let v = v.ok_or_else(|| CodecError::Invalid("ascending run overflows u64".into()))?;
        out.push(
            T::try_from(v)
                .map_err(|_| CodecError::Invalid(format!("ascending value {v} out of range")))?,
        );
        prev = v;
    }
    buf.advance(at);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(v, back);
    }

    /// A field codec the schema can be pointed at with `as`: one byte that
    /// travels bit-inverted.
    mod inverted {
        use super::*;

        pub fn encode(v: &u8, buf: &mut BytesMut) {
            (!*v).encode(buf);
        }
        pub fn decode(buf: &mut Bytes) -> Result<u8, CodecError> {
            Ok(!u8::decode(buf)?)
        }
        pub fn size_hint(_: &u8) -> usize {
            1
        }
    }

    wire! {
        #[derive(Debug, Clone, PartialEq)]
        struct Sample {
            id: u32,
            mask: u8 as inverted,
            rows: Vec<u16>,
            live: bool,
        }
        validate = |s: &Sample| match s.rows.len() <= 2 {
            true => Ok(()),
            false => Err(CodecError::Invalid("more than two rows".into())),
        };
    }

    wire! {
        #[derive(Debug, Clone, PartialEq)]
        enum Op {
            0 => Run(Sample),
            1 => Stop,
            5 => Move { from: u16, to: u64 },
        }
    }

    fn sample() -> Sample {
        Sample {
            id: 0x0403_0201,
            mask: 0x0F,
            rows: vec![7],
            live: true,
        }
    }

    #[test]
    fn schema_struct_walks_fields_in_declaration_order() {
        let bytes = sample().to_bytes();
        // id, inverted mask, u64 count + one u16, bool.
        assert_eq!(
            bytes.as_ref(),
            &[1, 2, 3, 4, 0xF0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 1]
        );
        assert_eq!(sample().size_hint(), bytes.len());
        roundtrip(sample());
        for cut in 0..bytes.len() {
            assert!(Sample::from_bytes(bytes.slice(..cut)).is_err());
        }
    }

    #[test]
    fn schema_validate_runs_at_the_end_of_decode() {
        let long = Sample {
            rows: vec![1, 2, 3],
            ..sample()
        };
        assert_eq!(
            Sample::from_bytes(long.to_bytes()),
            Err(CodecError::Invalid("more than two rows".into()))
        );
        // Nested decodes validate too.
        assert!(Op::from_bytes(Op::Run(long).to_bytes()).is_err());
    }

    #[test]
    fn schema_enum_tags_and_shapes() {
        assert_eq!(Op::TAGS, &[(0, "Run"), (1, "Stop"), (5, "Move")]);
        let ops = [
            Op::Run(sample()),
            Op::Stop,
            Op::Move {
                from: 0x0102,
                to: 3,
            },
        ];
        for (op, &(tag, _)) in ops.iter().zip(Op::TAGS) {
            let bytes = op.to_bytes();
            assert_eq!((op.tag(), bytes[0]), (tag, tag));
            assert_eq!(op.size_hint(), bytes.len());
            roundtrip(op.clone());
        }
        assert_eq!(
            ops[2].to_bytes().as_ref(),
            &[5, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0]
        );
        // A tag between two declared ones is still unknown.
        assert_eq!(
            Op::from_bytes(Bytes::from_static(&[2])),
            Err(CodecError::Invalid("bad Op tag 2".into()))
        );
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(1234u16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(3.5f32);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX / 2);
    }

    #[test]
    fn strings_and_collections_roundtrip() {
        roundtrip(String::from("harmony"));
        roundtrip(String::new());
        roundtrip(String::from("ünïcødé ⚡"));
        roundtrip(vec![1.0f32, -2.5, 3.75]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u32, 2.0f32));
        roundtrip((1u8, String::from("x"), vec![9u64]));
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let bytes = 0xAABBCCDDu32.to_bytes();
        let mut short = bytes.slice(0..2);
        assert_eq!(u32::decode(&mut short), Err(CodecError::UnexpectedEof));

        let v = vec![1u64, 2, 3].to_bytes();
        let mut short = v.slice(0..12);
        assert!(Vec::<u64>::decode(&mut short).is_err());
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut buf = BytesMut::new();
        1u32.encode(&mut buf);
        buf.put_u8(0xFF);
        assert!(matches!(
            u32::from_bytes(buf.freeze()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        let raw = Bytes::from_static(&[7]);
        assert!(matches!(
            bool::from_bytes(raw.clone()),
            Err(CodecError::Invalid(_))
        ));
        assert!(matches!(
            Option::<u8>::from_bytes(raw),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Claims u64::MAX elements with an empty body.
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX);
        assert!(matches!(
            Vec::<u8>::from_bytes(buf.freeze()),
            Err(CodecError::Invalid(_))
        ));
    }

    /// The bulk overrides must put exactly the bytes the element-wise
    /// default would: count, then each element little-endian.
    #[test]
    fn bulk_slices_match_elementwise_encoding() {
        fn elementwise<T: Wire>(items: &[T]) -> BytesMut {
            let mut buf = BytesMut::new();
            buf.put_u64_le(items.len() as u64);
            for item in items {
                item.encode(&mut buf);
            }
            buf
        }
        fn check<T: Wire + PartialEq + fmt::Debug>(items: Vec<T>) {
            let mut bulk = BytesMut::new();
            T::encode_slice(&items, &mut bulk);
            assert_eq!(bulk, elementwise(&items));
            assert_eq!(items.size_hint(), bulk.len());
            roundtrip(items);
        }
        check(vec![1.5f32, -2.0, 0.0, f32::INFINITY]);
        check(vec![10u64, 20, u64::MAX]);
        check(vec![7u32, 0, u32::MAX]);
        check(vec![0u8, 255, 17]);
        check(Vec::<f32>::new());
        // Truncated bulk payloads fail on the one length check.
        let full = vec![1u32, 2, 3].to_bytes();
        assert!(Vec::<u32>::decode(&mut full.slice(..full.len() - 1)).is_err());
    }

    #[test]
    fn varints_and_ascending_runs_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(
                buf.len(),
                (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
            );
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes), Ok(v));
            assert!(!bytes.has_remaining());
        }
        // Gaps at every varint width, including none at all.
        let run = vec![
            0u32,
            0,
            5,
            5 + (1 << 14),
            5 + (1 << 14) + (1 << 21),
            u32::MAX,
        ];
        let mut buf = BytesMut::new();
        put_ascending(&run, &mut buf);
        let full = buf.freeze();
        let mut back = Vec::<u32>::new();
        get_ascending(&mut full.clone(), run.len(), &mut back).unwrap();
        assert_eq!(back, run);
        for cut in 0..full.len() {
            let mut out = Vec::<u32>::new();
            assert!(get_ascending(&mut full.slice(..cut), run.len(), &mut out).is_err());
        }
        // A run that leaves the target type is rejected, not wrapped.
        let mut buf = BytesMut::new();
        put_ascending(&[u64::from(u32::MAX) + 1], &mut buf);
        assert!(get_ascending(&mut buf.freeze(), 1, &mut Vec::<u32>::new()).is_err());
        // An 11-byte varint and a count the buffer cannot hold are hostile.
        assert!(get_varint(&mut Bytes::from(vec![0x80u8; 11])).is_err());
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1 << 40);
        assert!(get_count(&mut buf.freeze(), 1).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            String::from_bytes(buf.freeze()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn nested_option_tuple_roundtrip() {
        roundtrip(Some((vec![1u32, 2], Some(3.0f64))));
    }
}
