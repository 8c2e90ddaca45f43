//! The wire codec: a compact, fixed-layout binary encoding.
//!
//! The simulation ships method arguments and object state between
//! processes as byte payloads (method-call shipping, SMR state transfer,
//! marshalling of persistent objects, WAL segments and checkpoints). There
//! is one format and it is not self-describing, so there is one trait:
//! [`Wire`] writes a value's bytes and reads them back, with no
//! serializer/visitor layer in between. The layout is `bincode`'s
//! fixed-width one:
//!
//! - scalars little-endian at their natural width (`usize` as `u64`),
//!   `bool` as one `0`/`1` byte;
//! - `String`, `Vec`, `Bytes` and maps behind a `u64` element count;
//! - `Option` behind a `0`/`1` byte, enum variants behind their `u32`
//!   declaration index;
//! - struct, tuple and variant fields in declaration order with no
//!   framing; `#[wire(skip)]` fields are absent and `Default`-filled on
//!   decode.
//!
//! A sequence's body is written and read through [`Wire`]'s hidden
//! `put_all`/`get_all`, one element at a time by default. The fixed-width
//! scalars (`u8 u32 u64 i64 f64`) override them to move the whole body as
//! one block, so a 1 KB `Vec<u8>` costs one copy each way, as a `Bytes`
//! does, and a `Vec<f64>` one pass over fixed-size chunks. The bytes are
//! the element-by-element ones by construction, and a body shorter than
//! its count claims fails before anything is allocated.
//!
//! WAL segments and checkpoints outlive the build that wrote them and
//! message sizes drive virtual time, so these bytes are pinned by a golden
//! corpus (`crates/dso/tests/wire_golden.rs`).
//!
//! # Examples
//!
//! ```
//! use simcore::codec::{self, Wire};
//!
//! #[derive(Wire, PartialEq, Debug)]
//! struct Point { x: f64, y: f64 }
//!
//! # fn main() -> Result<(), codec::CodecError> {
//! let p = Point { x: 1.0, y: -2.5 };
//! let bytes = codec::to_bytes(&p)?;
//! let q: Point = codec::from_bytes(&bytes)?;
//! assert_eq!(p, q);
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

use bytes::Bytes;

/// Derives [`Wire`] for structs and enums whose fields are all [`Wire`].
pub use wire_derive::Wire;

/// Error produced by decoding malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    msg: String,
}

impl CodecError {
    fn new(msg: impl Into<String>) -> CodecError {
        CodecError { msg: msg.into() }
    }

    /// A tag byte or variant index outside the range `what` defines
    /// (called by `#[derive(Wire)]` for enums).
    pub fn invalid_tag(what: &str, tag: u32) -> CodecError {
        CodecError::new(format!("invalid {what} tag {tag}"))
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

/// A value with a fixed wire layout (see the [module docs](self)).
///
/// Implemented here for the std types the workspace ships and derived
/// with `#[derive(Wire)]` for everything built from them.
///
/// An element of a sequence or a key of a map must encode to at least one
/// byte: decoding bounds a count by the bytes left, so `Vec<T>` of a `T`
/// that encodes to nothing (a unit struct, a struct whose every field is
/// `#[wire(skip)]`) would encode but never decode. Zero-sized `T` fails to
/// compile; the all-skipped case is the implementor's to avoid.
pub trait Wire {
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated or malformed input. Input is
    /// untrusted: an implementation must not panic on it, nor allocate or
    /// loop beyond what the bytes actually present can justify.
    fn get(input: &mut &[u8]) -> Result<Self, CodecError>
    where
        Self: Sized;

    /// Appends each item's encoding to `out`, in order: the body of a
    /// sequence. Fixed-width scalars override it with one block write.
    #[doc(hidden)]
    fn put_all(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.put(out);
        }
    }

    /// Decodes `len` values from the front of `input`, as many as a
    /// sequence's count (already bounded by the bytes left) claims.
    #[doc(hidden)]
    fn get_all(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, CodecError>
    where
        Self: Sized,
    {
        let mut v = Vec::with_capacity(len.min(PREALLOC_ELEMS));
        for _ in 0..len {
            v.push(Self::get(input)?);
        }
        Ok(v)
    }
}

/// Encodes `value` to bytes.
///
/// # Errors
///
/// None: every [`Wire`] value has an encoding. The `Result` mirrors
/// [`from_bytes`] so the two read alike at call sites.
pub fn to_bytes<T: Wire + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.put(&mut out);
    Ok(out)
}

/// Decodes a `T` from bytes previously produced by [`to_bytes`].
///
/// # Errors
///
/// Returns an error on truncated or malformed input, or trailing bytes.
pub fn from_bytes<T: Wire>(mut bytes: &[u8]) -> Result<T, CodecError> {
    let v = T::get(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(CodecError::new(format!("{} trailing bytes after value", bytes.len())));
    }
    Ok(v)
}

fn truncated(needed: usize, had: usize) -> CodecError {
    CodecError::new(format!("unexpected end of input: needed {needed} bytes, had {had}"))
}

/// Splits `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    let (head, rest) = input.split_at_checked(n).ok_or_else(|| truncated(n, input.len()))?;
    *input = rest;
    Ok(head)
}

/// Splits `N` bytes off the front of `input`.
fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = input.split_first_chunk().ok_or_else(|| truncated(N, input.len()))?;
    *input = rest;
    Ok(*head)
}

/// Elements reserved up front when decoding a sequence; longer ones grow
/// as their elements actually arrive.
const PREALLOC_ELEMS: usize = 4096;

/// Reads the `u64` element count of a sequence of `T`s.
///
/// Every element occupies at least one byte (the invariant [`Wire`]
/// documents), so a count beyond the bytes left is rejected here, before
/// anything is reserved or looped over. The assert catches the zero-sized
/// breaches of that invariant, such as `Vec<()>`, where the decoding is
/// instantiated.
fn get_len<T>(input: &mut &[u8]) -> Result<usize, CodecError> {
    const { assert!(size_of::<T>() != 0, "sequences of zero-sized elements are not encodable") };
    let len = u64::get(input)?;
    match usize::try_from(len) {
        Ok(len) if len <= input.len() => Ok(len),
        _ => Err(CodecError::new(format!(
            "length prefix {len} exceeds the {} bytes left",
            input.len()
        ))),
    }
}

fn put_len(len: usize, out: &mut Vec<u8>) {
    (len as u64).put(out);
}

/// A byte sequence is its bytes: one copy each way.
impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        take_array(input).map(u8::from_le_bytes)
    }
    fn put_all(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn get_all(len: usize, input: &mut &[u8]) -> Result<Vec<u8>, CodecError> {
        take(input, len).map(<[u8]>::to_vec)
    }
}

/// A sequence of wider scalars is one block, written and read as
/// fixed-size chunks: the body is taken whole before anything is
/// allocated, so a short one fails without reserving for its count.
macro_rules! wire_le_scalar {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
                take_array(input).map(<$ty>::from_le_bytes)
            }
            fn put_all(items: &[Self], out: &mut Vec<u8>) {
                let at = out.len();
                out.resize(at + size_of_val(items), 0);
                let (chunks, _) = out[at..].as_chunks_mut::<{ size_of::<$ty>() }>();
                for (chunk, item) in chunks.iter_mut().zip(items) {
                    *chunk = item.to_le_bytes();
                }
            }
            fn get_all(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, CodecError> {
                let n = len.checked_mul(size_of::<$ty>()).ok_or_else(|| {
                    CodecError::new(format!("length prefix {len} overflows a byte count"))
                })?;
                let (chunks, _) = take(input, n)?.as_chunks::<{ size_of::<$ty>() }>();
                Ok(chunks.iter().map(|c| <$ty>::from_le_bytes(*c)).collect())
            }
        }
    )*};
}

wire_le_scalar!(u32, u64, i64, f64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(u64::get(input)?).map_err(|_| CodecError::new("integer out of range"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::get(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::invalid_tag("bool", b.into())),
        }
    }
}

impl Wire for () {
    fn put(&self, _out: &mut Vec<u8>) {}
    fn get(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

/// Encode-only, like every unsized type; decodes as a [`String`].
impl Wire for str {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = get_len::<u8>(input)?;
        let s =
            std::str::from_utf8(take(input, len)?).map_err(|e| CodecError::new(e.to_string()))?;
        Ok(s.to_owned())
    }
}

/// Encoded as its `str`; decodes owned.
impl Wire for Cow<'_, str> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        String::get(input).map(Cow::Owned)
    }
}

/// Wire-compatible with `Vec<u8>`: a count, then the raw bytes.
impl Wire for Bytes {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = get_len::<u8>(input)?;
        Ok(Bytes::copy_from_slice(take(input, len)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::get(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(input)?)),
            b => Err(CodecError::invalid_tag("option", b.into())),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        T::put_all(self, out);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = get_len::<T>(input)?;
        T::get_all(len, input)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        let (front, back) = self.as_slices();
        T::put_all(front, out);
        T::put_all(back, out);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        Vec::get(input).map(VecDeque::from)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = get_len::<K>(input)?;
        let mut m = BTreeMap::new();
        for _ in 0..len {
            let k = K::get(input)?;
            m.insert(k, V::get(input)?);
        }
        Ok(m)
    }
}

/// `secs: u64`, then `subsec_nanos: u32`.
impl Wire for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_secs().put(out);
        self.subsec_nanos().put(out);
    }
    fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
        let secs = u64::get(input)?;
        let nanos = u32::get(input)?;
        if nanos >= 1_000_000_000 {
            return Err(CodecError::new("nanos out of range"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

macro_rules! wire_tuple {
    ($($n:tt $t:ident)+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $( self.$n.put(out); )+
            }
            fn get(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($t::get(input)?,)+))
            }
        }
    };
}

// A 1-tuple encodes exactly as its element: a method's argument list is
// decoded as the tuple of its arguments, whatever their number.
wire_tuple!(0 T0);
wire_tuple!(0 T0 1 T1);
wire_tuple!(0 T0 1 T1 2 T2);
wire_tuple!(0 T0 1 T1 2 T2 3 T3);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn scalars() {
        round_trip(true);
        round_trip(false);
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(-0.25f64);
    }

    #[test]
    fn strings_and_containers() {
        round_trip(String::from("hello — κόσμος"));
        round_trip(String::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((1u8, String::from("x"), -3i64));
        round_trip((9u64,));
        assert_eq!(to_bytes(&(9u64,)), to_bytes(&9u64), "a 1-tuple is its element");
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        round_trip(m);
    }

    #[derive(Wire, PartialEq, Debug)]
    enum Proto {
        Ping,
        Set { key: String, value: Vec<u8> },
        Pair(u32, u32),
        Wrap(Vec<Proto>),
    }

    #[test]
    fn enums() {
        round_trip(Proto::Ping);
        round_trip(Proto::Set { key: "k".into(), value: vec![1, 2, 3] });
        round_trip(Proto::Pair(4, 5));
        round_trip(Proto::Wrap(vec![Proto::Ping, Proto::Pair(6, 7)]));
    }

    #[derive(Wire, PartialEq, Debug)]
    struct Nested {
        id: u64,
        tags: Vec<String>,
        inner: Vec<Nested>,
    }

    #[test]
    fn nested_structs() {
        round_trip(Nested {
            id: 1,
            tags: vec!["a".into(), "b".into()],
            inner: vec![Nested { id: 2, tags: vec![], inner: vec![] }],
        });
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&12345u64).expect("encode");
        let r: Result<u64, _> = from_bytes(&bytes[..4]);
        assert!(r.is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_bytes(&1u8).expect("encode");
        bytes.push(0);
        let r: Result<u8, _> = from_bytes(&bytes);
        assert!(r.unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn invalid_bool_errors() {
        let r: Result<bool, _> = from_bytes(&[7]);
        assert!(r.is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let bytes = u64::MAX.to_le_bytes();
        let r: Result<Vec<u8>, _> = from_bytes(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn unit_type() {
        round_trip(());
        #[derive(Wire, PartialEq, Debug)]
        struct Marker;
        round_trip(Marker);
        assert!(to_bytes(&Marker).expect("encode").is_empty());
    }

    #[test]
    fn encoding_is_compact() {
        // 1 KB payload should encode as 8 (len) + 1024 bytes.
        let v = vec![0u8; 1024];
        assert_eq!(to_bytes(&v).expect("encode").len(), 1032);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[derive(Wire, PartialEq, Debug, Clone)]
    enum TreeNode {
        Leaf(i64),
        Branch(Vec<TreeNode>),
        Tagged { name: String, values: Vec<f64> },
    }

    fn arb_tree() -> impl Strategy<Value = TreeNode> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(TreeNode::Leaf),
            ("[a-zA-Z]{0,12}", proptest::collection::vec(any::<f64>(), 0..6))
                .prop_map(|(name, values)| TreeNode::Tagged { name, values }),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            proptest::collection::vec(inner, 0..3).prop_map(TreeNode::Branch)
        })
    }

    /// One message with every framing device of the format in it.
    #[derive(Wire, PartialEq, Debug, Clone)]
    struct Envelope {
        urgent: bool,
        note: Option<String>,
        tree: TreeNode,
        blobs: Vec<Vec<u8>>,
        index: BTreeMap<String, u64>,
    }

    fn arb_envelope() -> impl Strategy<Value = Envelope> {
        (
            any::<bool>(),
            proptest::option::of("[a-z]{0,6}"),
            arb_tree(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..5), 0..4),
            proptest::collection::btree_map("[a-z]{1,4}", any::<u64>(), 0..4),
        )
            .prop_map(|(urgent, note, tree, blobs, index)| Envelope {
                urgent,
                note,
                tree,
                blobs,
                index,
            })
    }

    proptest! {
        /// Every value the format can express round-trips losslessly.
        #[test]
        fn round_trip_arbitrary_trees(t in arb_tree()) {
            let bytes = to_bytes(&t).expect("encode");
            let back: TreeNode = from_bytes(&bytes).expect("decode");
            // NaN-safe comparison through re-encoding.
            prop_assert_eq!(to_bytes(&back).expect("encode"), bytes);
        }

        #[test]
        fn round_trip_maps_and_options(
            m in proptest::collection::btree_map("[a-z]{1,8}", any::<u64>(), 0..16),
            o in proptest::option::of(any::<i64>()),
            v in proptest::collection::vec(any::<u32>(), 0..64),
        ) {
            let value: (BTreeMap<String, u64>, Option<i64>, Vec<u32>) = (m, o, v);
            let bytes = to_bytes(&value).expect("encode");
            let back: (BTreeMap<String, u64>, Option<i64>, Vec<u32>) =
                from_bytes(&bytes).expect("decode");
            prop_assert_eq!(back, value);
        }

        /// Decoding never panics on arbitrary garbage (it may error).
        #[test]
        fn decoder_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = from_bytes::<TreeNode>(&bytes);
            let _ = from_bytes::<Vec<String>>(&bytes);
            let _ = from_bytes::<(u64, bool, Option<f64>)>(&bytes);
            let _ = from_bytes::<Envelope>(&bytes);
        }

        /// The format is prefix-free per type, so a truncated message is
        /// always an error, never a shorter valid value.
        #[test]
        fn every_strict_prefix_is_rejected(e in arb_envelope()) {
            let bytes = to_bytes(&e).expect("encode");
            for cut in 0..bytes.len() {
                prop_assert!(from_bytes::<Envelope>(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
            }
        }

        #[test]
        fn trailing_garbage_is_rejected(
            e in arb_envelope(),
            garbage in proptest::collection::vec(any::<u8>(), 1..16),
        ) {
            let mut bytes = to_bytes(&e).expect("encode");
            bytes.extend_from_slice(&garbage);
            prop_assert!(from_bytes::<Envelope>(&bytes).is_err());
        }

        /// `Envelope` opens with a bool byte, an option tag, the optional
        /// note, then the tree's `u32` variant tag; any value outside each
        /// tag's range is an error.
        #[test]
        fn out_of_range_tags_are_rejected(e in arb_envelope(), bad in any::<u32>()) {
            let bytes = to_bytes(&e).expect("encode");
            let bad_byte = (bad % 254) as u8 + 2;
            for at in [0, 1] {
                let mut b = bytes.clone();
                b[at] = bad_byte;
                prop_assert!(from_bytes::<Envelope>(&b).is_err(), "tag byte {at} = {bad_byte}");
            }
            let variant_at = 2 + e.note.as_ref().map_or(0, |n| 8 + n.len());
            let mut b = bytes;
            b[variant_at..variant_at + 4].copy_from_slice(&bad.max(3).to_le_bytes());
            prop_assert!(from_bytes::<Envelope>(&b).is_err(), "variant tag {}", bad.max(3));
        }

        /// A count claiming more elements than the bytes present is
        /// rejected up front: decoding neither reserves memory for the
        /// claim (2^63 elements would abort) nor loops towards it.
        #[test]
        fn counts_beyond_the_input_are_rejected(
            words in proptest::collection::vec(any::<u64>(), 0..8),
            text in "[a-z]{0,8}",
            extra in any::<u64>(),
        ) {
            fn claim<T: Wire>(value: &T, extra: u64) -> Result<T, CodecError> {
                let mut bytes = to_bytes(value).expect("encode");
                let (count, _) = bytes.split_first_chunk_mut::<8>().expect("count prefix");
                *count = u64::from_le_bytes(*count).saturating_add(extra.max(1)).to_le_bytes();
                from_bytes(&bytes)
            }
            let blobs: Vec<Vec<u8>> = words.iter().map(|w| w.to_le_bytes().to_vec()).collect();
            let map: BTreeMap<u64, String> = words.iter().map(|w| (*w, text.clone())).collect();
            let floats: Vec<f64> = words.iter().map(|w| *w as f64).collect();
            prop_assert!(claim(&words, extra).is_err());
            prop_assert!(claim(&VecDeque::from(words.clone()), extra).is_err());
            prop_assert!(claim(&floats, extra).is_err());
            prop_assert!(claim(&text.as_bytes().to_vec(), extra).is_err());
            prop_assert!(claim(&blobs, extra).is_err());
            prop_assert!(claim(&map, extra).is_err());
            prop_assert!(claim(&Bytes::copy_from_slice(text.as_bytes()), extra).is_err());
            prop_assert!(claim(&text, extra).is_err());
        }

        /// A count of `n` multi-byte scalars passes the bytes-left bound
        /// with as few as `n` body bytes; any body shorter than the `n`
        /// elements' width is still an error, not a panic.
        #[test]
        fn short_scalar_bodies_are_rejected(n in 1usize..64, short in any::<usize>()) {
            fn claim<T: Wire>(n: usize, short: usize) -> Result<Vec<T>, CodecError> {
                let body = n + short % (n * (size_of::<T>() - 1));
                let mut bytes = to_bytes(&(n as u64)).expect("encode");
                bytes.resize(8 + body, 0xa5);
                from_bytes(&bytes)
            }
            prop_assert!(claim::<f64>(n, short).is_err());
            prop_assert!(claim::<u64>(n, short).is_err());
            prop_assert!(claim::<i64>(n, short).is_err());
            prop_assert!(claim::<u32>(n, short).is_err());
        }

        /// Scalar sequences keep the generic layout, whatever path encodes
        /// them: the `u64` count, then each element's own `put`, for a
        /// `Vec` and for a `VecDeque` whose ring buffer wraps.
        #[test]
        fn scalar_sequences_are_their_elements_in_order(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            halves in proptest::collection::vec(any::<u32>(), 0..16),
            words in proptest::collection::vec(any::<u64>(), 0..16),
            signed in proptest::collection::vec(any::<i64>(), 0..16),
            floats in proptest::collection::vec(any::<f64>(), 0..16),
            split in any::<usize>(),
        ) {
            fn pinned<T: Wire + Clone>(items: &[T], split: usize) -> Result<(), TestCaseError> {
                let mut reference = Vec::new();
                (items.len() as u64).put(&mut reference);
                for item in items {
                    item.put(&mut reference);
                }
                // The front half pushed onto the front of an exactly-sized
                // deque lands at the end of its buffer: two slices.
                let (front, back) = items.split_at(split % (items.len() + 1));
                let mut deque = VecDeque::with_capacity(items.len());
                deque.extend(back.iter().cloned());
                front.iter().rev().for_each(|x| deque.push_front(x.clone()));
                prop_assert_eq!(to_bytes(&items.to_vec()).expect("encode"), reference.clone());
                prop_assert_eq!(to_bytes(&deque).expect("encode"), reference.clone());
                // Compared re-encoded, so `-0.0` and `0.0` stay apart.
                let vec: Vec<T> = from_bytes(&reference).expect("decode");
                let deque: VecDeque<T> = from_bytes(&reference).expect("decode");
                prop_assert_eq!(to_bytes(&vec).expect("encode"), reference.clone());
                prop_assert_eq!(to_bytes(&deque).expect("encode"), reference);
                Ok(())
            }
            pinned(&bytes, split)?;
            pinned(&halves, split)?;
            pinned(&words, split)?;
            pinned(&signed, split)?;
            pinned(&floats, split)?;
        }
    }
}
