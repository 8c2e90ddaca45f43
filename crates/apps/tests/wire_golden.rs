//! Golden saved state of the application objects: the ML aggregators and
//! Santa's inbox, at a non-default state. What SMR state transfer,
//! checkpoints and the WAL carry for them is pinned byte for byte here, as
//! `crates/dso/tests/wire_golden.rs` pins it for the built-ins.

use crucial::codec::{self, Wire};
use crucial::{dispatch, CallCtx, ObjectRegistry, SharedObject, Ticket};
use crucial_apps::santa::register_santa_objects;
use crucial_ml::objects::{register_ml_objects, CentroidsInit, WeightsInit};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

fn registry() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    register_ml_objects(&mut reg);
    register_santa_objects(&mut reg);
    reg
}

fn object(type_name: &str, create: &impl Wire) -> Box<dyn SharedObject> {
    let args = codec::to_bytes(create).expect("encode");
    registry().create(type_name, &args).expect("create")
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
    let mut fresh = registry().create(type_name, &[]).expect("create");
    fresh.restore(&unhex(golden)).expect("golden state restores");
    assert_eq!(hex(&fresh.save()), golden);
}

#[test]
fn ml_object_states() {
    // One of two workers has contributed: partials accumulated, not folded.
    let init = CentroidsInit { k: 1, dims: 2, workers: 2, initial: vec![1.0, 2.0] };
    let mut centroids = object("GlobalCentroids", &init);
    call(centroids.as_mut(), 0, "update", &(vec![2.0f64, 4.0], vec![1u64]));
    let golden = concat!(
        "01000000",                                         // k
        "02000000",                                         // dims
        "02000000",                                         // workers
        "0000000000000000",                                 // generation
        "0200000000000000000000000000f03f0000000000000040", // current
        "020000000000000000000000000000400000000000001040", // acc_sums
        "01000000000000000100000000000000",                 // acc_counts
        "01000000"                                          // contributions
    );
    pin_state(centroids.as_ref(), "GlobalCentroids", golden);

    let mut delta = object("GlobalDelta", &());
    call(delta.as_mut(), 0, "add", &(3u64, 1.5f64));
    let golden = concat!(
        "0100000000000000",         // generations
        "0300000000000000",         // generation 3
        "000000000000f83f01000000"  // (sum, contributions)
    );
    pin_state(delta.as_ref(), "GlobalDelta", golden);

    let init = WeightsInit { dims: 1, workers: 2, learning_rate: 0.5 };
    let mut weights = object("GlobalWeights", &init);
    call(weights.as_mut(), 0, "update", &(vec![2.0f64], 0.25f64));
    let golden = concat!(
        "01000000",                         // dims
        "02000000",                         // workers
        "000000000000e03f",                 // learning rate
        "0000000000000000",                 // generation
        "01000000000000000000000000000000", // weights
        "01000000000000000000000000000040", // acc_grad
        "000000000000d03f",                 // acc_loss
        "01000000",                         // contributions
        "0000000000000000"                  // losses
    );
    pin_state(weights.as_ref(), "GlobalWeights", golden);
}

#[test]
fn santa_inbox_state() {
    // Santa parks on an empty inbox; a reindeer group wakes him with its
    // batch, and an elf group waits in the queue.
    let mut inbox = object("SantaInbox", &());
    call(inbox.as_mut(), 1, "take", &());
    call(inbox.as_mut(), 2, "offer", &(0u8, 3u64));
    call(inbox.as_mut(), 3, "offer", &(1u8, 4u64));
    let golden = concat!(
        "0000000000000000",                 // reindeer queue
        "01000000000000000400000000000000"  // elf queue
    );
    pin_state(inbox.as_ref(), "SantaInbox", golden);
}
