//! Golden byte corpus for the wire format.
//!
//! One value of every shape the workspace encodes, pinned to the exact
//! bytes `simcore::codec` produces: little-endian scalars, `u64` length
//! prefixes, `u32` variant tags, `u8` bool/option tags, positional fields,
//! skipped fields absent. WAL segments and checkpoints written by one
//! build must decode under every later one, and message sizes (hence
//! virtual time and the golden `kernel_determinism` hashes) follow from
//! these bytes — so a hex string here changes only with a deliberate,
//! documented format break.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Duration;

use bytes::Bytes;
use dso::protocol::{CheckpointBlob, NodeId, ObjectRecord, WalRecord, WalSegment};
use dso::{api, dispatch, CallCtx, ObjectRef, ObjectRegistry, SharedObject, Ticket};
use simcore::codec::{self, Wire};
use simcore::SimTime;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// `value` encodes to exactly `golden`, and `golden` decodes to a value
/// that encodes back to itself (the NaN- and `PartialEq`-free way to say
/// "decodes to the same value").
fn pin<T: Wire>(value: &T, golden: &str) {
    let bytes = codec::to_bytes(value).expect("encode");
    assert_eq!(hex(&bytes), golden, "encoding of {}", std::any::type_name::<T>());
    let back: T = codec::from_bytes(&unhex(golden)).expect("golden bytes decode");
    assert_eq!(hex(&codec::to_bytes(&back).expect("re-encode")), golden);
}

/// [`pin`], plus the decoded value compares equal.
fn pin_eq<T: Wire + PartialEq + Debug>(value: &T, golden: &str) {
    pin(value, golden);
    let back: T = codec::from_bytes(&unhex(golden)).expect("golden bytes decode");
    assert_eq!(&back, value);
}

#[test]
fn scalars_and_unit() {
    pin_eq(&true, "01");
    pin_eq(&false, "00");
    pin_eq(&0xabu8, "ab");
    pin_eq(&0xdead_beefu32, "efbeadde");
    pin_eq(&u64::MAX, "ffffffffffffffff");
    pin_eq(&i64::MIN, "0000000000000080");
    pin_eq(&7usize, "0700000000000000");
    pin_eq(&-0.25f64, "000000000000d0bf");
    pin_eq(&(), "");
}

#[test]
fn atomic_long_arg_tuple() {
    // `AtomicLong::compare_and_set(expect, update)` ships `(i64, i64)`.
    pin_eq(&(-1i64, 42i64), "ffffffffffffffff2a00000000000000");
}

#[test]
fn options() {
    pin_eq(&Some(7u64), "010700000000000000");
    pin_eq(&Option::<u64>::None, "00");
    pin_eq(&Some(Some(false)), "010100");
}

#[test]
fn strings() {
    pin_eq(&String::from("héllo"), "060000000000000068c3a96c6c6f");
    pin_eq(&String::new(), "0000000000000000");
}

#[test]
fn sequences() {
    pin_eq(&vec![1.0f64, -2.5], "0200000000000000000000000000f03f00000000000004c0");
    pin_eq(
        &vec![vec![1u8, 2, 3], vec![], vec![0xff]],
        concat!(
            "0300000000000000",
            "0300000000000000010203",
            "0000000000000000",
            "0100000000000000ff"
        ),
    );
    pin_eq(&Vec::<u32>::new(), "0000000000000000");
}

#[test]
fn maps() {
    let mut m = BTreeMap::new();
    m.insert("a".to_string(), 1u64);
    m.insert("bc".to_string(), 2u64);
    pin_eq(
        &m,
        concat!(
            "0200000000000000",
            "010000000000000061",
            "0100000000000000",
            "02000000000000006263",
            "0200000000000000"
        ),
    );
}

#[test]
fn bytes_are_wire_compatible_with_byte_vectors() {
    let golden = "0400000000000000deadbeef";
    pin_eq(&Bytes::from(vec![0xde, 0xad, 0xbe, 0xef]), golden);
    pin_eq(&vec![0xdeu8, 0xad, 0xbe, 0xef], golden);
    // A window into a larger buffer encodes only the window.
    pin_eq(&Bytes::from(vec![0, 0xde, 0xad, 0xbe, 0xef, 0]).slice(1..5), golden);
}

#[test]
fn times() {
    pin_eq(&SimTime::from_nanos(1_500_000_000), "002f685900000000");
    pin_eq(&Duration::new(3, 250_000_000), "030000000000000080b2e60e");
    // nanos ≥ 1e9 is not a `Duration` the encoder can have produced.
    let bad = unhex("030000000000000000ca9a3b");
    assert!(codec::from_bytes::<Duration>(&bad).is_err());
}

#[derive(Wire, PartialEq, Debug)]
enum Shape {
    Unit,
    Newtype(u32),
    Tuple(u8, String),
    Struct { id: u32, tags: Vec<u8> },
}

#[test]
fn enum_variants() {
    pin_eq(&Shape::Unit, "00000000");
    pin_eq(&Shape::Newtype(0x0102), "0100000002010000");
    pin_eq(&Shape::Tuple(9, "x".into()), "0200000009010000000000000078");
    pin_eq(&Shape::Struct { id: 5, tags: vec![1, 2] }, "030000000500000002000000000000000102");
    // Variant tag out of range.
    assert!(codec::from_bytes::<Shape>(&unhex("04000000")).is_err());
}

#[derive(Wire, PartialEq, Debug)]
struct Marker;

#[derive(Wire, PartialEq, Debug)]
struct Meters(f64);

#[derive(Wire, PartialEq, Debug)]
struct Pair<A, B> {
    left: A,
    right: Option<B>,
}

#[derive(Wire, PartialEq, Debug)]
struct Parked {
    parties: u32,
    #[wire(skip)]
    waiting: Vec<u64>,
    generation: u64,
}

#[test]
fn structs() {
    pin_eq(&Marker, "");
    pin_eq(&Meters(1.0), "000000000000f03f");
    pin_eq(&Pair { left: 7u32, right: Some("r".to_string()) }, "0700000001010000000000000072");
    // A skipped field is absent from the bytes and `Default`-filled on
    // decode, wherever it sits among the encoded fields.
    let golden = "030000000900000000000000";
    pin(&Parked { parties: 3, waiting: vec![11, 12], generation: 9 }, golden);
    let back: Parked = codec::from_bytes(&unhex(golden)).expect("decode");
    assert_eq!(back, Parked { parties: 3, waiting: Vec::new(), generation: 9 });
}

fn record(key: &str, version: u64, state: &[u8]) -> ObjectRecord {
    ObjectRecord { obj: ObjectRef::new("AtomicLong", key), rf: 2, version, state: state.to_vec() }
}

#[test]
fn wal_segment() {
    let seg = WalSegment {
        gen: 1,
        node: NodeId(2),
        seq: 3,
        coalesced: 4,
        records: vec![WalRecord {
            obj: ObjectRef::new("AtomicLong", "c0"),
            rf: 2,
            method: "addAndGet".into(),
            version: 5,
            lamport: 6,
            state: 7i64.to_le_bytes().to_vec(),
        }],
    };
    pin(
        &seg,
        concat!(
            "01000000",                             // gen
            "02000000",                             // node
            "0300000000000000",                     // seq
            "0400000000000000",                     // coalesced
            "0100000000000000",                     // records.len
            "0a0000000000000041746f6d69634c6f6e67", // obj.type_name
            "02000000000000006330",                 // obj.key
            "02",                                   // rf
            "0900000000000000616464416e64476574",   // method
            "0500000000000000",                     // version
            "0600000000000000",                     // lamport
            "08000000000000000700000000000000"      // state
        ),
    );
}

#[test]
fn checkpoint_blob() {
    let blob = CheckpointBlob {
        gen: 2,
        seq: 9,
        floors: vec![(2, NodeId(0), 17), (2, NodeId(1), 4)],
        objects: vec![record("a", 3, &[1, 2]), record("b", 1, &[])],
    };
    pin(
        &blob,
        concat!(
            "02000000",         // gen
            "0900000000000000", // seq
            "0200000000000000", // floors.len
            "02000000",
            "00000000",
            "1100000000000000",
            "02000000",
            "01000000",
            "0400000000000000",
            "0200000000000000", // objects.len
            "0a0000000000000041746f6d69634c6f6e67",
            "010000000000000061",
            "02",
            "0300000000000000",
            "02000000000000000102",
            "0a0000000000000041746f6d69634c6f6e67",
            "010000000000000062",
            "02",
            "0100000000000000",
            "0000000000000000"
        ),
    );
}

/// A built-in object of `type_name` created from `create`.
fn builtin(type_name: &str, create: &impl Wire) -> Box<dyn SharedObject> {
    let args = codec::to_bytes(create).expect("encode");
    ObjectRegistry::with_builtins().create(type_name, &args).expect("create")
}

/// Calls `method(args)` on `obj` as ticket `ticket`; a parked call is fine.
fn call(obj: &mut dyn SharedObject, ticket: u64, method: &str, args: &impl Wire) {
    let call = CallCtx { ticket: Ticket(ticket), replicated: false };
    let args = codec::to_bytes(args).expect("encode");
    dispatch(obj, &call, method, &args, false).expect("call succeeds");
}

/// `obj` saves exactly `golden`, and a default object restored from
/// `golden` saves it back.
fn pin_state(obj: &dyn SharedObject, type_name: &str, golden: &str) {
    assert_eq!(hex(&obj.save()), golden, "saved state of {type_name}");
    let mut fresh = ObjectRegistry::with_builtins().create(type_name, &[]).expect("create");
    fresh.restore(&unhex(golden)).expect("golden state restores");
    assert_eq!(hex(&fresh.save()), golden);
}

/// The saved state of every built-in at a non-default state: what SMR
/// state transfer, checkpoints and the WAL carry. Parked tickets are
/// node-local, so a barrier's and a semaphore's waiters are absent.
#[test]
fn builtin_object_states() {
    let mut long = builtin("AtomicLong", &0i64);
    call(long.as_mut(), 0, "set", &-3i64);
    pin_state(long.as_ref(), "AtomicLong", "fdffffffffffffff");

    let mut flag = builtin("AtomicBoolean", &false);
    call(flag.as_mut(), 0, "set", &true);
    pin_state(flag.as_ref(), "AtomicBoolean", "01");

    let bytes = builtin("AtomicByteArray", &vec![1u8, 2, 3]);
    pin_state(bytes.as_ref(), "AtomicByteArray", "0300000000000000010203");

    let mut list = builtin("List", &Vec::<Vec<u8>>::new());
    call(list.as_mut(), 0, "add", &vec![1u8]);
    call(list.as_mut(), 0, "add", &vec![2u8, 3]);
    let golden = concat!("0200000000000000", "010000000000000001", "02000000000000000203");
    pin_state(list.as_ref(), "List", golden);

    let mut map = builtin("Map", &BTreeMap::<String, Vec<u8>>::new());
    call(map.as_mut(), 0, "put", &("k".to_string(), vec![7u8]));
    let golden = concat!("0100000000000000", "01000000000000006b", "010000000000000007");
    pin_state(map.as_ref(), "Map", golden);

    // Two parties: one generation released, then one party parked.
    let mut barrier = builtin("CyclicBarrier", &2u32);
    call(barrier.as_mut(), 1, "await", &());
    call(barrier.as_mut(), 2, "await", &());
    call(barrier.as_mut(), 3, "await", &());
    pin_state(barrier.as_ref(), "CyclicBarrier", concat!("02000000", "0100000000000000"));

    // One permit left, and an acquire of two parked behind it.
    let mut semaphore = builtin("Semaphore", &2i64);
    call(semaphore.as_mut(), 1, "acquire", &1i64);
    call(semaphore.as_mut(), 2, "acquire", &2i64);
    pin_state(semaphore.as_ref(), "Semaphore", "0100000000000000");

    let mut latch = builtin("CountDownLatch", &2u64);
    call(latch.as_mut(), 1, "await", &());
    call(latch.as_mut(), 2, "countDown", &());
    pin_state(latch.as_ref(), "CountDownLatch", "0100000000000000");

    let mut future = builtin("Future", &Option::<Vec<u8>>::None);
    call(future.as_mut(), 1, "get", &());
    call(future.as_mut(), 2, "set", &codec::to_bytes(&9u32).expect("encode"));
    pin_state(future.as_ref(), "Future", concat!("01", "0400000000000000", "09000000"));

    let mut arith = builtin("Arithmetic", &1.0f64);
    call(arith.as_mut(), 0, "mul", &5.0f64);
    pin_state(arith.as_ref(), "Arithmetic", "0000000000001440");
}

/// Handles ride inside shipped runnables, so their bytes are payload size.
#[test]
fn handles() {
    pin(
        &api::AtomicLong::persistent("model", 7, 2),
        concat!(
            "0a0000000000000041746f6d69634c6f6e67", // type name
            "05000000000000006d6f64656c",           // key
            "02",                                   // rf
            "08000000000000000700000000000000"      // creation args
        ),
    );
    pin(
        &api::SharedList::<f64>::new("xs"),
        concat!(
            "04000000000000004c697374",         // type name
            "02000000000000007873",             // key
            "01",                               // rf
            "08000000000000000000000000000000"  // creation args
        ),
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    assert!(codec::from_bytes::<u8>(&unhex("0100")).unwrap_err().to_string().contains("trailing"));
}
