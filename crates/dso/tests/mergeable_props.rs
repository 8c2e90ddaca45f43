//! Property tests for the [`Mergeable`] contract that
//! `ConsistencyMode::CrdtMerge` leans on: anti-entropy applies `merge` in
//! whatever pairwise order the schedule produces, so convergence requires
//! the merge to be commutative, associative, and idempotent. [`GCounter`]
//! is the built-in witness.
//!
//! [`Mergeable`]: dso::Mergeable
//! [`GCounter`]: dso::api::GCounter

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use proptest::prelude::*;
use simcore::explore::{explore_seeds, Check};
use simcore::Sim;

use dso::objects::GCounter;
use dso::{api, ConsistencyMode, DsoCluster, DsoConfig, ObjectRegistry, SharedObject};

/// Builds a counter holding exactly `entries` (via the registry factory's
/// creation-args path — the same bytes a client's `__create` would ship).
fn counter(entries: &BTreeMap<u32, u64>) -> Box<dyn SharedObject> {
    let args = simcore::codec::to_bytes(entries).expect("map encodes");
    GCounter::factory(&args).expect("factory accepts an entry map")
}

/// Merges `other`'s saved state into `obj` and returns `obj`'s new state.
fn merged(obj: &mut dyn SharedObject, other: &dyn SharedObject) -> Vec<u8> {
    let state = other.save();
    obj.as_mergeable().expect("GCounter is mergeable").merge(&state).expect("states merge");
    obj.save()
}

/// Reads the total through the public method surface.
fn total(obj: &dyn SharedObject) -> u64 {
    match obj.read("get", &[]).expect("get is a read").expect("get").reply {
        dso::Reply::Value(v) => simcore::codec::from_bytes(&v).expect("u64 decodes"),
        other => panic!("get must answer immediately, got {other:?}"),
    }
}

fn entries() -> impl Strategy<Value = BTreeMap<u32, u64>> {
    proptest::collection::btree_map(0u32..6, 0u64..1_000, 0..6)
}

proptest! {
    /// a ⊔ b = b ⊔ a.
    #[test]
    fn merge_is_commutative(a in entries(), b in entries()) {
        let mut ab = counter(&a);
        let mut ba = counter(&b);
        let left = merged(ab.as_mut(), counter(&b).as_ref());
        let right = merged(ba.as_mut(), counter(&a).as_ref());
        prop_assert_eq!(left, right);
    }

    /// (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c).
    #[test]
    fn merge_is_associative(a in entries(), b in entries(), c in entries()) {
        let mut left = counter(&a);
        merged(left.as_mut(), counter(&b).as_ref());
        let left = merged(left.as_mut(), counter(&c).as_ref());
        let mut bc = counter(&b);
        merged(bc.as_mut(), counter(&c).as_ref());
        let mut right = counter(&a);
        let right = merged(right.as_mut(), bc.as_ref());
        prop_assert_eq!(left, right);
    }

    /// a ⊔ a = a — re-delivered anti-entropy batches are free.
    #[test]
    fn merge_is_idempotent(a in entries()) {
        let mut obj = counter(&a);
        let before = obj.save();
        let after = merged(obj.as_mut(), counter(&a).as_ref());
        prop_assert_eq!(before, after);
    }

    /// Merging never loses an increment: the merged total dominates both
    /// inputs (the join is an upper bound).
    #[test]
    fn merge_is_inflationary(a in entries(), b in entries()) {
        let mut obj = counter(&a);
        let total_a = total(obj.as_ref());
        let other = counter(&b);
        let total_b = total(other.as_ref());
        merged(obj.as_mut(), other.as_ref());
        let joined = total(obj.as_ref());
        prop_assert!(joined >= total_a.max(total_b));
    }
}

/// The algebra holds end to end: divergent replicas driven through a live
/// `CrdtMerge` cluster converge on the exact sum across 25 perturbed
/// schedules, whatever pairwise anti-entropy order each schedule yields.
#[test]
fn divergent_replicas_converge_across_schedules() {
    const WRITERS: u64 = 4;
    const INCS: u64 = 6;
    let scenario = |sim: &mut Sim| -> Check {
        let cfg = DsoConfig::builder()
            .consistency(ConsistencyMode::CrdtMerge)
            .anti_entropy_interval(Duration::from_millis(5))
            .build()
            .expect("valid crdt config");
        let cluster = DsoCluster::start(sim, 3, cfg, ObjectRegistry::with_builtins());
        let handle = cluster.client_handle();
        let finals: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for w in 0..WRITERS {
            let handle = handle.clone();
            sim.spawn(&format!("writer-{w}"), move |ctx| {
                let mut cli = handle.connect();
                let counter = api::GCounter::persistent("props", 3);
                for _ in 0..INCS {
                    counter.inc(ctx, &mut cli, 1).expect("reachable");
                }
            });
        }
        {
            let handle = handle.clone();
            let finals = finals.clone();
            sim.spawn("auditor", move |ctx| {
                let mut cli = handle.connect();
                let counter = api::GCounter::persistent("props", 3);
                // Far past the last write and many anti-entropy rounds.
                ctx.sleep(Duration::from_secs(2));
                for _ in 0..4 {
                    let v = counter.get(ctx, &mut cli).expect("reachable");
                    finals.lock().push(v);
                    ctx.sleep(Duration::from_millis(20));
                }
            });
        }
        Box::new(move || {
            let _keep = cluster;
            let finals = finals.lock();
            if finals.iter().any(|&v| v != WRITERS * INCS) {
                return Err(format!("not converged on {}: {finals:?}", WRITERS * INCS));
            }
            Ok(())
        })
    };
    explore_seeds(600, 25, scenario).expect_clean();
}
