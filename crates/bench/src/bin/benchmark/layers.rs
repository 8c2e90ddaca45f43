//! `benchmark layers` — host microbenches of single layers, timed from
//! outside through their public APIs: the timing wheel, the codec, ring
//! placement and one Skeen round. Each is the minimum over seven batches
//! of at least 50 ms, pinned like the workloads. They bound what a layer
//! can cost per kernel event or per op; they claim nothing about the
//! workloads on their own.

use std::hint::black_box;
use std::time::Duration;

use simcore::{codec, SimTime, TimingWheel};

use dso::protocol::NodeId;
use dso::skeen::{Action, Skeen, SkeenMsg};
use dso::{ObjectRef, Ring};

use crate::json::Metric;

const BATCHES: usize = 7;
const BATCH_FLOOR: Duration = Duration::from_millis(50);

/// Names and units of the metrics [`run`] reports, in order.
pub const METRICS: [&str; 7] = [
    "simcore.wheel.pop_push_ns",
    "simcore.codec.encode_small_ns",
    "simcore.codec.decode_small_ns",
    "simcore.codec.encode_20kb_ns",
    "simcore.codec.decode_20kb_ns",
    "dso.ring.placement_ns",
    "dso.skeen.round_host_ns",
];

/// Times `batch(n)`, which must do `n` iterations: grows `n` until one
/// batch takes the floor, then returns the least ns per iteration over
/// the batches.
fn ns_per_iter(floor: Duration, mut batch: impl FnMut(u64)) -> f64 {
    let mut timed = |n: u64| {
        // simlint: allow(wall-clock, reason = "host microbench of a data structure; no simulation is running")
        let t0 = std::time::Instant::now();
        batch(n);
        t0.elapsed()
    };
    let mut n = 256;
    while timed(n) < floor {
        n *= 2;
    }
    (0..BATCHES).map(|_| timed(n).as_secs_f64() * 1e9 / n as f64).fold(f64::INFINITY, f64::min)
}

/// Pop one expiry and push a replacement at 4096 pending, across seven
/// delay magnitudes: the ceiling for host ns per kernel event.
fn wheel_pop_push(floor: Duration) -> f64 {
    const DELAYS_NS: [u64; 7] = [700, 1_024, 9_999, 65_536, 1_000_000, 33_554_432, 2_000_000_000];
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for i in 0..4096u64 {
        wheel.push(SimTime::from_nanos(1 + i * 37), seq, i);
        seq += 1;
    }
    ns_per_iter(floor, |n| {
        for i in 0..n {
            let (t, _, v) = wheel.pop().expect("the wheel stays primed");
            let delay = DELAYS_NS[(i % 7) as usize];
            wheel.push(t + Duration::from_nanos(delay), seq, black_box(v));
            seq += 1;
        }
    })
}

/// One in-memory Skeen round at rf = 2: multicast, two proposals, two
/// finals, two deliveries, with no network in between.
fn skeen_round(floor: Duration) -> f64 {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut nodes = [Skeen::<u64>::new(a), Skeen::<u64>::new(b)];
    let mut queue: Vec<(NodeId, NodeId, SkeenMsg<u64>)> = Vec::new();
    ns_per_iter(floor, |n| {
        for i in 0..n {
            let (_, actions) = nodes[0].multicast(vec![a, b], i);
            let mut delivered = 0;
            let mut route = |from: NodeId, actions: Vec<Action<u64>>, queue: &mut Vec<_>| {
                for action in actions {
                    match action {
                        Action::Send { to, msg } => queue.push((from, to, msg)),
                        Action::Deliver { payload, .. } => delivered += black_box(payload) - i + 1,
                    }
                }
            };
            route(a, actions, &mut queue);
            while let Some((from, to, msg)) = queue.pop() {
                let out = nodes[to.0 as usize].handle(from, msg);
                route(to, out, &mut queue);
            }
            assert_eq!(delivered, 2, "both replicas deliver every round");
        }
    })
}

/// Runs every microbench with the given batch floor.
fn run_with(floor: Duration) -> Vec<Metric> {
    // The argument tuple of an `AtomicLong` call, and a k = 25 centroid
    // matrix (2500 doubles, 20 KB) as k-means ships every iteration.
    let small =
        ("AtomicLong".to_string(), "counter-17".to_string(), "add_and_get".to_string(), 1i64);
    let small_bytes = codec::to_bytes(&small).expect("tuple encodes");
    let big: Vec<f64> = (0..2500).map(|i| i as f64 * 0.5).collect();
    let big_bytes = codec::to_bytes(&big).expect("vector encodes");
    let ring = Ring::new(&[NodeId(0), NodeId(1), NodeId(2)]);
    let objects: Vec<ObjectRef> =
        (0..64).map(|i| ObjectRef::new("AtomicLong", format!("c{i}"))).collect();

    let values = [
        wheel_pop_push(floor),
        ns_per_iter(floor, |n| {
            for _ in 0..n {
                black_box(codec::to_bytes(black_box(&small)).expect("tuple encodes"));
            }
        }),
        ns_per_iter(floor, |n| {
            for _ in 0..n {
                let v: (String, String, String, i64) =
                    codec::from_bytes(black_box(&small_bytes)).expect("tuple decodes");
                black_box(v);
            }
        }),
        ns_per_iter(floor, |n| {
            for _ in 0..n {
                black_box(codec::to_bytes(black_box(&big)).expect("vector encodes"));
            }
        }),
        ns_per_iter(floor, |n| {
            for _ in 0..n {
                let v: Vec<f64> = codec::from_bytes(black_box(&big_bytes)).expect("vector decodes");
                black_box(v);
            }
        }),
        ns_per_iter(floor, |n| {
            for i in 0..n {
                black_box(ring.placement(black_box(&objects[(i % 64) as usize]), 2));
            }
        }),
        skeen_round(floor),
    ];
    METRICS.iter().zip(values).map(|(name, v)| Metric::new(name, v, "ns")).collect()
}

/// Runs every microbench: about 2.5 s.
pub fn run() -> Vec<Metric> {
    run_with(BATCH_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_microbench_reports_a_positive_time() {
        let metrics = run_with(Duration::from_micros(200));
        assert_eq!(metrics.len(), METRICS.len());
        for m in metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{m:?}");
        }
    }
}
