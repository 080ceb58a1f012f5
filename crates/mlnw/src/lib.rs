//! The `mlnw` codec: a compact binary format for every frame the system
//! writes — wire envelopes, journaled change sets, session snapshots, reports
//! and spill segments — through two small traits, [`Encode`] and [`Decode`],
//! and one macro, [`codec!`], that writes both for a struct or an enum.
//!
//! Every frame starts with a 6-byte header — the `MLNW` magic followed by a
//! little-endian [`CODEC_VERSION`] — so a peer can reject frames from a
//! different protocol generation before touching the payload (the benchmark
//! reports embed the same version, tying artifacts to the codec that framed
//! them).  After the header the payload is one tagged value:
//!
//! | tag | value |
//! |-----|-------|
//! | `0` | unit |
//! | `1`/`2` | `false` / `true` |
//! | `3` | unsigned integer, LEB128 varint |
//! | `6` | `f64`, little-endian IEEE bits |
//! | `8` | string, varint byte length + UTF-8 bytes |
//! | `10`/`11` | `None` / `Some` + value |
//! | `12` | sequence, varint element count + elements |
//! | `14` | enum, varint variant index + payload (see below) |
//! | `4`, `5`, `7`, `9`, `13` | reserved: version 1 gave them to signed integers, `f32`, `char`, byte strings and maps, which no frame contains |
//!
//! Field names never cross the wire; composite values frame as sequences:
//!
//! * a struct is a sequence of its fields, in declaration order, less the
//!   fields its [`codec!`] invocation skips;
//! * a one-field tuple struct (every id type: `ValueId(5)` is `12 1 3 5`) is
//!   a one-element sequence too — it is not transparent;
//! * a 2-tuple is a 2-element sequence, a [`Duration`] the 2-element
//!   sequence of its seconds and its nanoseconds, an [`Arc`] its contents;
//! * an enum variant is tag `14` and its index in declaration order, then:
//!   a unit variant `0` (unit); a one-field tuple variant its one value
//!   (`Mutation::Delete(TupleId(3))` is `14 2 12 1 3 3`); every other
//!   variant — including a one-field *struct* variant such as
//!   `Request::PoolTail { from }` — the sequence of its fields.
//!
//! Decoding reads exactly this shape and nothing else: a sequence whose
//! length is not the field count is [`CodecError::Length`], an index past
//! the last variant [`CodecError::UnknownVariant`], a tag the type does not
//! use [`CodecError::Tag`].  The [`Decoder`] knows how many bytes remain and
//! refuses a length prefix that claims more elements or bytes than are
//! left, so no hostile prefix can reserve more memory than the input could
//! fill.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Protocol generation of this codec.  Bump on any change to the tag table
/// or framing; peers refuse frames whose header disagrees.
pub const CODEC_VERSION: u16 = 1;

/// Frame magic: these four bytes open every encoded frame.
pub const MAGIC: [u8; 4] = *b"MLNW";

const HEADER_LEN: usize = 6;

const TAG_UNIT: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_UINT: u8 = 3;
const TAG_F64: u8 = 6;
const TAG_STR: u8 = 8;
const TAG_NONE: u8 = 10;
const TAG_SOME: u8 = 11;
const TAG_SEQ: u8 = 12;
const TAG_ENUM: u8 = 14;

/// Anything that can go wrong decoding a frame.  Encoding cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value, or a length prefix claims more than is left.
    Eof,
    /// A frame decoded cleanly but left unread bytes behind.
    Trailing {
        /// Offset of the first unread byte.
        at: usize,
    },
    /// The frame does not open with the `MLNW` magic.
    BadMagic,
    /// The frame's codec version differs from ours.
    Version {
        /// Version found in the frame header.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// A value's tag does not match what the caller asked for.
    Tag {
        /// Tag byte found in the input.
        found: u8,
        /// What the decoder was asked to produce.
        expected: &'static str,
    },
    /// A string's bytes are not valid UTF-8.
    Utf8,
    /// A varint ran past ten bytes.
    VarintOverflow,
    /// An integer too large for the field it decodes into.
    OutOfRange {
        /// The integer found.
        value: u64,
        /// What the field holds.
        expected: &'static str,
    },
    /// A struct, tuple or variant whose sequence length is not its field
    /// count.
    Length {
        /// The field count of the type being decoded.
        expected: usize,
        /// The sequence length in the frame.
        found: usize,
    },
    /// A variant index past the enum's last variant.
    UnknownVariant {
        /// The enum being decoded.
        of: &'static str,
        /// The index found.
        index: u64,
    },
    /// A schema naming one attribute twice.
    DuplicateAttribute(String),
    /// A value pool listing one value twice.
    DuplicateValue(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Eof => write!(f, "unexpected end of input"),
            Self::Trailing { at } => write!(f, "trailing bytes after frame (offset {at})"),
            Self::BadMagic => write!(f, "frame does not start with the MLNW magic"),
            Self::Version { found, expected } => write!(f, "frame v{found}, codec v{expected}"),
            Self::Tag { found, expected } => write!(f, "tag {found}, expected {expected}"),
            Self::Utf8 => write!(f, "string is not valid UTF-8"),
            Self::VarintOverflow => write!(f, "varint longer than ten bytes"),
            Self::OutOfRange { value, expected } => write!(f, "{value} overflows {expected}"),
            Self::Length { expected, found } => write!(f, "{found} fields, expected {expected}"),
            Self::UnknownVariant { of, index } => write!(f, "{of} has no variant {index}"),
            Self::DuplicateAttribute(name) => write!(f, "attribute {name:?} listed twice"),
            Self::DuplicateValue(value) => write!(f, "pool value {value:?} listed twice"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value with an `mlnw` encoding.
pub trait Encode {
    /// Append this value's tagged bytes.
    fn encode(&self, enc: &mut Encoder);
}

/// A value that can be read back from its `mlnw` encoding.
pub trait Decode: Sized {
    /// Read one value, consuming exactly its bytes.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Encode a value into a fresh framed buffer (header + tagged payload).
/// Never fails; the `Result` keeps call sites uniform with [`from_bytes`].
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut enc = Encoder {
        out: Vec::with_capacity(64),
    };
    enc.out.extend_from_slice(&MAGIC);
    enc.out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
    value.encode(&mut enc);
    Ok(enc.out)
}

/// Decode a framed buffer produced by [`to_bytes`].  Rejects bad magic,
/// version mismatches and trailing garbage.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut dec = Decoder::new(bytes)?;
    let value = T::decode(&mut dec)?;
    if dec.pos != bytes.len() {
        return Err(CodecError::Trailing { at: dec.pos });
    }
    Ok(value)
}

/// The frame [`to_bytes`] is writing: the header first, then values as they
/// encode.
#[derive(Debug)]
pub struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// Open a sequence of `len` elements; the caller encodes them next.
    pub fn seq(&mut self, len: usize) {
        self.out.push(TAG_SEQ);
        self.varint(len as u64);
    }

    /// Open enum variant `index`; the caller encodes its payload next.
    pub fn variant(&mut self, index: u32) {
        self.out.push(TAG_ENUM);
        self.varint(u64::from(index));
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }
}

/// Streaming decoder over a framed byte slice; the header is validated on
/// construction.
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Open a frame, validating magic and version.
    pub fn new(input: &'a [u8]) -> Result<Self, CodecError> {
        let header = input.get(..HEADER_LEN).ok_or(CodecError::Eof)?;
        if header[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        match u16::from_le_bytes([header[4], header[5]]) {
            CODEC_VERSION => Ok(Decoder {
                input,
                pos: HEADER_LEN,
            }),
            found => Err(CodecError::Version {
                found,
                expected: CODEC_VERSION,
            }),
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Read a sequence header and return its element count — at most
    /// [`Decoder::remaining`], since every element takes at least its tag
    /// byte, so a count sized from it never reserves more than the input
    /// could fill.
    pub fn seq(&mut self) -> Result<usize, CodecError> {
        self.tag(TAG_SEQ, "a sequence")?;
        let len = self.len()?;
        if len > self.remaining() {
            return Err(CodecError::Eof);
        }
        Ok(len)
    }

    /// Read the sequence header of a struct, tuple or variant of `fields`
    /// fields.
    pub fn fields(&mut self, fields: usize) -> Result<(), CodecError> {
        self.tag(TAG_SEQ, "a sequence")?;
        match self.len()? {
            found if found == fields => Ok(()),
            found => Err(CodecError::Length {
                expected: fields,
                found,
            }),
        }
    }

    /// Read an enum tag and return the variant index.
    pub fn variant(&mut self) -> Result<u64, CodecError> {
        self.tag(TAG_ENUM, "an enum")?;
        self.varint()
    }

    /// Read a string, borrowing its bytes from the input: a caller that only
    /// looks at the text (or copies it somewhere of its own) allocates
    /// nothing per value.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        self.tag(TAG_STR, "a string")?;
        let len = self.len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Utf8)
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.input.get(self.pos).ok_or(CodecError::Eof)?;
        self.pos += 1;
        Ok(b)
    }

    fn tag(&mut self, tag: u8, expected: &'static str) -> Result<(), CodecError> {
        self.either(tag, tag, expected).map(drop)
    }

    /// Read tag `yes` (`true`) or tag `no` (`false`).
    fn either(&mut self, yes: u8, no: u8, expected: &'static str) -> Result<bool, CodecError> {
        match self.byte()? {
            found if found == yes => Ok(true),
            found if found == no => Ok(false),
            found => Err(CodecError::Tag { found, expected }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Eof)?;
        let slice = self.input.get(self.pos..end).ok_or(CodecError::Eof)?;
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut out = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            if shift == 63 && byte & 0x7e != 0 {
                // Tenth byte: only bit 0 still fits in a u64.  `<< 63` would
                // silently discard bits 1–6, decoding a different number than
                // was encoded — reject instead of truncating.
                return Err(CodecError::VarintOverflow);
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    fn len(&mut self) -> Result<usize, CodecError> {
        let len = self.varint()?;
        usize::try_from(len).map_err(|_| CodecError::Eof)
    }
}

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.out.push(if *self { TAG_TRUE } else { TAG_FALSE });
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.either(TAG_TRUE, TAG_FALSE, "a bool")
    }
}

/// Every unsigned integer travels as a `u64` varint and is range-checked on
/// the way back.
macro_rules! uint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.out.push(TAG_UINT);
                enc.varint(*self as u64);
            }
        }

        impl Decode for $ty {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.tag(TAG_UINT, "an unsigned integer")?;
                let value = dec.varint()?;
                <$ty>::try_from(value).map_err(|_| CodecError::OutOfRange {
                    value,
                    expected: stringify!($ty),
                })
            }
        }
    )*};
}

uint!(u32, u64, usize);

impl Encode for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.out.push(TAG_F64);
        enc.out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for f64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.tag(TAG_F64, "an f64")?;
        let mut bits = [0; 8];
        bits.copy_from_slice(dec.take(8)?);
        Ok(f64::from_le_bytes(bits))
    }
}

impl Encode for str {
    fn encode(&self, enc: &mut Encoder) {
        enc.out.push(TAG_STR);
        enc.varint(self.len() as u64);
        enc.out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        self.as_str().encode(enc);
    }
}

impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.str().map(str::to_owned)
    }
}

impl Encode for () {
    fn encode(&self, enc: &mut Encoder) {
        enc.out.push(TAG_UNIT);
    }
}

impl Decode for () {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.tag(TAG_UNIT, "unit")
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.out.push(TAG_NONE),
            Some(value) => {
                enc.out.push(TAG_SOME);
                value.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.either(TAG_SOME, TAG_NONE, "an option")? {
            true => T::decode(dec).map(Some),
            false => Ok(None),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(self.len());
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.seq()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(2);
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.fields(2)?;
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
}

impl<T: Decode> Decode for Arc<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        T::decode(dec).map(Arc::new)
    }
}

impl Encode for Duration {
    fn encode(&self, enc: &mut Encoder) {
        (self.as_secs(), self.subsec_nanos()).encode(enc);
    }
}

impl Decode for Duration {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (secs, nanos) = <(u64, u32)>::decode(dec)?;
        if nanos >= 1_000_000_000 {
            return Err(CodecError::OutOfRange {
                value: u64::from(nanos),
                expected: "subsecond nanoseconds",
            });
        }
        Ok(Duration::new(secs, nanos))
    }
}

/// Write [`Encode`] and [`Decode`] for a struct or an enum, in the framing
/// the [crate docs](crate) lay out.
///
/// * `struct Name { a, b }` — a struct, fields listed in declaration order
///   (a tuple struct's by position: `struct Id { 0 }`); `struct Name { a,
///   b; skip c }` leaves `c` off the wire and rebuilds it with `Default`.
/// * `enum Name { 0 => Unit, 1 => Newtype(x), 2 => Tuple(x, y), 3 => Struct
///   { x } }` — variants with their declaration-order indices, tuple fields
///   given binding names.
///
/// Decoding builds each value literally, so a field added to the type but
/// not to the list is a compile error.
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($field:tt),* $(; skip $($skip:ident),*)? $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, enc: &mut $crate::Encoder) {
                enc.seq($crate::codec!(@count $($field)*));
                $($crate::Encode::encode(&self.$field, enc);)*
            }
        }

        impl $crate::Decode for $ty {
            fn decode(dec: &mut $crate::Decoder<'_>) -> ::core::result::Result<Self, $crate::CodecError> {
                dec.fields($crate::codec!(@count $($field)*))?;
                ::core::result::Result::Ok($ty {
                    $($field: $crate::Decode::decode(dec)?,)*
                    $($($skip: ::core::default::Default::default(),)*)?
                })
            }
        }
    };
    (enum $ty:ident { $(
        $index:literal => $variant:ident $(($($tuple:ident),+))? $({$($named:ident),+})?
    ),* $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, enc: &mut $crate::Encoder) {
                match self {
                    $($ty::$variant $(($($tuple),+))? $({$($named),+})? => {
                        enc.variant($index);
                        $crate::codec!(@encode enc $(($($tuple),+))? $({$($named),+})?);
                    })*
                }
            }
        }

        impl $crate::Decode for $ty {
            fn decode(dec: &mut $crate::Decoder<'_>) -> ::core::result::Result<Self, $crate::CodecError> {
                match dec.variant()? {
                    $($index => ::core::result::Result::Ok($crate::codec!(
                        @decode dec $ty::$variant $(($($tuple),+))? $({$($named),+})?
                    )),)*
                    index => ::core::result::Result::Err($crate::CodecError::UnknownVariant {
                        of: stringify!($ty),
                        index,
                    }),
                }
            }
        }
    };
    (@count $($field:tt)*) => { <[&str]>::len(&[$(stringify!($field)),*]) };
    (@encode $enc:ident) => { $crate::Encode::encode(&(), $enc) };
    (@encode $enc:ident ($field:ident)) => { $crate::Encode::encode($field, $enc) };
    (@encode $enc:ident ($($field:ident),+)) => { $crate::codec!(@encode $enc {$($field),+}) };
    (@encode $enc:ident {$($field:ident),*}) => {{
        $enc.seq($crate::codec!(@count $($field)*));
        $($crate::Encode::encode($field, $enc);)*
    }};
    (@decode $dec:ident $ty:ident::$variant:ident) => {{
        <() as $crate::Decode>::decode($dec)?;
        $ty::$variant
    }};
    (@decode $dec:ident $ty:ident::$variant:ident ($field:ident)) => {
        $ty::$variant($crate::Decode::decode($dec)?)
    };
    (@decode $dec:ident $ty:ident::$variant:ident ($($field:ident),+)) => {{
        $dec.fields($crate::codec!(@count $($field)*))?;
        $ty::$variant($($crate::codec!(@next $dec $field)),+)
    }};
    (@next $dec:ident $field:ident) => { $crate::Decode::decode($dec)? };
    (@decode $dec:ident $ty:ident::$variant:ident {$($field:ident),*}) => {{
        $dec.fields($crate::codec!(@count $($field)*))?;
        $ty::$variant { $($field: $crate::Decode::decode($dec)?),* }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T>(value: &T) -> T
    where
        T: Encode + Decode + std::fmt::Debug + PartialEq,
    {
        let bytes = to_bytes(value).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, value);
        back
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Nested {
        id: u64,
        label: String,
        weight: f64,
        tags: Vec<String>,
        extra: Option<Arc<Nested>>,
        scratch: usize,
    }

    codec! { struct Nested { id, label, weight, tags, extra; skip scratch } }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u64, String),
        Struct { x: f64, y: Vec<u32> },
        Single { only: usize },
    }

    codec! {
        enum Shape {
            0 => Unit,
            1 => Newtype(n),
            2 => Tuple(a, b),
            3 => Struct { x, y },
            4 => Single { only },
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u32);

    codec! { struct Id { 0 } }

    /// A header, then the payload bytes given.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    fn nested() -> Nested {
        Nested {
            id: u64::MAX,
            label: String::from("fuzz-γ"),
            weight: -0.5,
            tags: vec![String::from("a"), String::new()],
            extra: Some(Arc::new(Nested {
                label: String::from("inner"),
                weight: 2.0,
                ..Nested::default()
            })),
            scratch: 0,
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&0u64);
        round_trip(&u64::MAX);
        round_trip(&u32::MAX);
        round_trip(&usize::MAX);
        round_trip(&3.5f64);
        round_trip(&String::from("wire"));
        round_trip(&String::new());
        round_trip(&());
        round_trip(&Some(7usize));
        round_trip(&Option::<usize>::None);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<String>::new());
        round_trip(&(1u64, String::from("two")));
        round_trip(&Arc::new(vec![(String::from("a"), String::from("b"))]));
        round_trip(&Duration::from_nanos(1_234_567_891));
        round_trip(&Duration::new(u64::MAX, 999_999_999));
    }

    #[test]
    fn structs_and_enums_round_trip() {
        round_trip(&nested());
        round_trip(&Shape::Unit);
        round_trip(&Shape::Newtype(9));
        round_trip(&Shape::Tuple(3, String::from("t")));
        round_trip(&Shape::Struct {
            x: 2.25,
            y: vec![0, 255],
        });
        round_trip(&Shape::Single { only: 5 });
        round_trip(&vec![Shape::Unit, Shape::Newtype(1), Shape::Unit]);
        round_trip(&Id(7));
    }

    /// The framing rules of the crate docs, byte for byte.
    #[test]
    fn composites_frame_as_documented() {
        let bytes = |value: &dyn Encode| to_bytes(value).unwrap();
        assert_eq!(bytes(&Id(5)), framed(&[12, 1, 3, 5]));
        assert_eq!(bytes(&Shape::Unit), framed(&[14, 0, 0]));
        assert_eq!(bytes(&Shape::Newtype(9)), framed(&[14, 1, 3, 9]));
        assert_eq!(
            bytes(&Shape::Tuple(1, String::new())),
            framed(&[14, 2, 12, 2, 3, 1, 8, 0])
        );
        assert_eq!(
            bytes(&Shape::Single { only: 5 }),
            framed(&[14, 4, 12, 1, 3, 5])
        );
        assert_eq!(bytes(&Duration::new(2, 7)), framed(&[12, 2, 3, 2, 3, 7]));
        assert_eq!(bytes(&Some(true)), framed(&[11, 2]));
        assert_eq!(bytes(&1.0f64), framed(&[6, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f]));
        // A skipped field is off the wire and back as its default.
        let mut skipping = nested();
        skipping.scratch = 99;
        assert_eq!(to_bytes(&skipping), to_bytes(&nested()));
        let back: Nested = from_bytes(&to_bytes(&skipping).unwrap()).unwrap();
        assert_eq!(back.scratch, 0);
    }

    #[test]
    fn header_is_validated() {
        let bytes = to_bytes(&1u64).unwrap();
        assert_eq!(&bytes[..4], b"MLNW");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), CODEC_VERSION);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(from_bytes::<u64>(&bad_magic), Err(CodecError::BadMagic));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            from_bytes::<u64>(&bad_version),
            Err(CodecError::Version { .. })
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            from_bytes::<u64>(&trailing),
            Err(CodecError::Trailing { .. })
        ));

        assert_eq!(from_bytes::<u64>(&bytes[..5]), Err(CodecError::Eof));
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let bytes = to_bytes(&vec![String::from("abc"); 3]).unwrap();
        for cut in 6..bytes.len() {
            assert!(from_bytes::<Vec<String>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn a_borrowed_string_points_into_the_frame() {
        let frame = to_bytes("fuzz-γ").unwrap();
        let mut dec = Decoder::new(&frame).unwrap();
        let value = dec.str().unwrap();
        assert_eq!(value, "fuzz-γ");
        assert!(frame.as_ptr_range().contains(&value.as_ptr()));
        assert_eq!(dec.remaining(), 0);
        let (bad, wrong) = (framed(&[8, 1, 0xff]), framed(&[3, 1]));
        assert_eq!(Decoder::new(&bad).unwrap().str(), Err(CodecError::Utf8));
        let tag = Decoder::new(&wrong).unwrap().str();
        assert!(matches!(tag, Err(CodecError::Tag { found: 3, .. })));
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(to_bytes(&nested()).unwrap(), to_bytes(&nested()).unwrap());
    }

    /// A struct, tuple or variant whose sequence is longer or shorter than
    /// its fields is refused, not read as far as the fields go with the rest
    /// taken for whatever follows: here the first pair claims three
    /// elements, and its third is the second pair.
    #[test]
    fn a_sequence_of_the_wrong_length_is_a_length_error() {
        let pairs = framed(&[12, 2, 12, 3, 3, 1, 3, 2, 12, 2, 3, 3, 3, 4]);
        assert_eq!(
            from_bytes::<Vec<(u64, u64)>>(&pairs),
            Err(CodecError::Length {
                expected: 2,
                found: 3
            })
        );
        let mut short = to_bytes(&nested()).unwrap();
        short[7] = 4;
        assert_eq!(
            from_bytes::<Nested>(&short),
            Err(CodecError::Length {
                expected: 5,
                found: 4
            })
        );
        assert_eq!(
            from_bytes::<Shape>(&framed(&[14, 2, 12, 1, 3, 3])),
            Err(CodecError::Length {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            from_bytes::<Id>(&framed(&[12, 0])),
            Err(CodecError::Length {
                expected: 1,
                found: 0
            })
        );
    }

    #[test]
    fn an_unknown_variant_index_is_typed() {
        assert_eq!(
            from_bytes::<Shape>(&framed(&[14, 5, 0])),
            Err(CodecError::UnknownVariant {
                of: "Shape",
                index: 5
            })
        );
    }

    #[test]
    fn out_of_range_integers_are_typed() {
        let big = to_bytes(&(u64::from(u32::MAX) + 1)).unwrap();
        assert_eq!(
            from_bytes::<u32>(&big),
            Err(CodecError::OutOfRange {
                value: 1 << 32,
                expected: "u32"
            })
        );
        let nanos = to_bytes(&(0u64, 1_000_000_000u32)).unwrap();
        assert!(matches!(
            from_bytes::<Duration>(&nanos),
            Err(CodecError::OutOfRange { .. })
        ));
    }

    /// A length prefix is checked against the bytes left before anything is
    /// reserved: a sequence claiming 2^40 elements is `Eof`, and a decoded
    /// vector's capacity never exceeds the bytes behind its prefix.
    #[test]
    fn a_length_prefix_reserves_at_most_the_remaining_bytes() {
        let huge = framed(&[12, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 3, 1, 3]);
        let mut dec = Decoder::new(&huge).unwrap();
        assert_eq!(dec.seq(), Err(CodecError::Eof));
        assert_eq!(from_bytes::<Vec<u64>>(&huge), Err(CodecError::Eof));
        assert_eq!(
            from_bytes::<String>(&framed(&[8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, b'a'])),
            Err(CodecError::Eof)
        );

        for len in [0, 1, 7, 300] {
            let frame = to_bytes(&vec![7u64; len]).unwrap();
            let mut dec = Decoder::new(&frame).unwrap();
            assert_eq!(dec.seq(), Ok(len));
            assert!(len <= dec.remaining());
            let back: Vec<u64> = from_bytes(&frame).unwrap();
            assert!(back.capacity() <= frame.len() - HEADER_LEN);
        }
    }

    /// A raw frame whose payload is `TAG_UINT` followed by `varint_bytes`
    /// verbatim — lets the fixtures drive the decoder with hand-built
    /// (including invalid) varints.
    fn uint_frame(varint_bytes: &[u8]) -> Vec<u8> {
        let mut frame = framed(&[TAG_UINT]);
        frame.extend_from_slice(varint_bytes);
        frame
    }

    #[test]
    fn ten_byte_varint_boundary() {
        // u64::MAX is the largest canonical ten-byte varint: nine 0xFF bytes
        // carry bits 0..=62, the tenth byte carries bit 63 alone.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(from_bytes::<u64>(&uint_frame(&max)), Ok(u64::MAX));
        assert_eq!(to_bytes(&u64::MAX).unwrap(), uint_frame(&max));

        // Payload bits above bit 63 must be rejected: `<< 63` would shift
        // them off the end of the u64 and decode a silently different
        // number than was encoded.
        for tenth in [0x02u8, 0x03, 0x40, 0x7e, 0x7f] {
            let mut bytes = vec![0xFFu8; 9];
            bytes.push(tenth);
            assert_eq!(
                from_bytes::<u64>(&uint_frame(&bytes)),
                Err(CodecError::VarintOverflow),
                "tenth byte {tenth:#04x} must overflow"
            );
        }

        // A continuation bit on the tenth byte can never finish a u64.
        assert_eq!(
            from_bytes::<u64>(&uint_frame(&[0xFF; 10])),
            Err(CodecError::VarintOverflow)
        );
        assert_eq!(
            from_bytes::<u64>(&uint_frame(&[0xFF; 11])),
            Err(CodecError::VarintOverflow)
        );

        // Truncation inside the varint is Eof, never a panic or a zero.
        for cut in 0..9 {
            assert_eq!(
                from_bytes::<u64>(&uint_frame(&vec![0xFFu8; cut])),
                Err(CodecError::Eof),
                "cut after {cut} continuation bytes"
            );
        }
    }

    /// Decode `bytes` as several unrelated target types.  The only
    /// requirement is a typed `Result` back — never a panic, never an abort.
    fn decode_all(bytes: &[u8]) {
        let _ = from_bytes::<u64>(bytes);
        let _ = from_bytes::<u32>(bytes);
        let _ = from_bytes::<String>(bytes);
        let _ = from_bytes::<Vec<u32>>(bytes);
        let _ = from_bytes::<Nested>(bytes);
        let _ = from_bytes::<Shape>(bytes);
        let _ = from_bytes::<Vec<(String, Duration)>>(bytes);
    }

    #[test]
    fn non_canonical_varints_decode_without_panic() {
        // Redundant continuation padding is non-canonical but harmless: the
        // decoder either accepts it (same value) or returns a typed error.
        assert_eq!(from_bytes::<u64>(&uint_frame(&[0x80, 0x00])), Ok(0));
        assert_eq!(from_bytes::<u64>(&uint_frame(&[0x81, 0x00])), Ok(1));
        decode_all(&uint_frame(&[0x80, 0x80, 0x80, 0x00]));
    }

    proptest! {
        #[test]
        fn varint_round_trip_is_canonical(
            values in proptest::collection::vec(0u64..u64::MAX, 1..24),
        ) {
            for &x in &values {
                let bytes = to_bytes(&x).unwrap();
                prop_assert_eq!(from_bytes::<u64>(&bytes), Ok(x));
                // Canonical means minimal: header (6) + tag (1) + the
                // fewest LEB128 bytes that hold x's significant bits.
                let bits = (64 - x.leading_zeros()) as usize;
                prop_assert_eq!(bytes.len(), 7 + bits.div_ceil(7).max(1), "x = {}", x);
            }
        }

        #[test]
        fn decoder_survives_mangled_frames(
            garbage in proptest::collection::vec(0usize..256, 0..64),
            cut in 0usize..1024,
            flip in 0usize..4096,
        ) {
            // Raw garbage: usually bad magic, sometimes a valid header with
            // nonsense tags behind it.
            let raw: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
            decode_all(&raw);
            decode_all(&framed(&raw));

            // A valid frame, truncated at an arbitrary byte and with an
            // arbitrary bit flipped.
            let frame = to_bytes(&nested()).unwrap();
            decode_all(&frame[..cut % (frame.len() + 1)]);
            let mut flipped = frame.clone();
            let pos = flip % (flipped.len() * 8);
            flipped[pos / 8] ^= 1 << (pos % 8);
            decode_all(&flipped);
        }
    }
}
