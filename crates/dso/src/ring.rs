//! Consistent hashing with virtual nodes, as in Cassandra (§4.1): every
//! storage node knows the full membership, so any object's location is a
//! local computation — no broadcast, disjoint-access parallelism, and
//! minimal disruption when nodes come and go.

use std::collections::BTreeMap;
use std::fmt;

use crate::object::ObjectRef;
use crate::protocol::NodeId;

/// Number of virtual nodes per physical node.
pub const VNODES: u32 = 64;

/// FNV-1a 64-bit hash step; start with `0` (or chain calls).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: FNV-1a alone clusters similar short keys (e.g.
/// `key-1`, `key-2`) into a narrow band of the ring, which would pile all
/// objects onto one node; this avalanche step restores uniformity.
pub fn mix(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// A consistent-hash ring over a set of nodes.
///
/// # Examples
///
/// ```
/// use dso::{Ring, ObjectRef};
/// use dso::protocol::NodeId;
///
/// let ring = Ring::new(&[NodeId(0), NodeId(1), NodeId(2)]);
/// let obj = ObjectRef::new("AtomicLong", "counter");
/// let placement = ring.placement(&obj, 2);
/// assert_eq!(placement.len(), 2);
/// assert_ne!(placement[0], placement[1]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Ring {
    points: BTreeMap<u64, NodeId>,
    nodes: Vec<NodeId>,
}

impl Ring {
    /// Builds a ring over `nodes` with [`VNODES`] virtual nodes each.
    pub fn new(nodes: &[NodeId]) -> Ring {
        let mut points = BTreeMap::new();
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort();
        sorted.dedup();
        for &n in &sorted {
            for v in 0..VNODES {
                let mut h = fnv1a(0, &n.0.to_le_bytes());
                h = fnv1a(h, &v.to_le_bytes());
                points.insert(mix(h), n);
            }
        }
        Ring { points, nodes: sorted }
    }

    /// The distinct nodes on the ring, sorted by id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The first `rf` distinct nodes clockwise from the object's hash.
    /// The first entry is the object's *primary*. Returns fewer than `rf`
    /// nodes if the ring is smaller than `rf`.
    pub fn placement(&self, obj: &ObjectRef, rf: u8) -> Vec<NodeId> {
        self.placement_by_hash(obj.placement_hash(), rf)
    }

    /// Placement for a raw hash (see [`Ring::placement`]).
    pub fn placement_by_hash(&self, hash: u64, rf: u8) -> Vec<NodeId> {
        let want = (rf as usize).min(self.nodes.len());
        let mut out: Vec<NodeId> = Vec::with_capacity(want);
        for (_, &n) in self.points.range(hash..).chain(self.points.range(..hash)) {
            if !out.contains(&n) {
                out.push(n);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The primary node for an object, if the ring is non-empty.
    pub fn primary(&self, obj: &ObjectRef) -> Option<NodeId> {
        self.placement(obj, 1).first().copied()
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("nodes", &self.nodes)
            .field("points", &self.points.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn obj(i: usize) -> ObjectRef {
        ObjectRef::new("T", format!("key-{i}"))
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let ring = Ring::new(&nodes(5));
        for i in 0..100 {
            let o = obj(i);
            let p1 = ring.placement(&o, 3);
            let p2 = ring.placement(&o, 3);
            assert_eq!(p1, p2);
            assert_eq!(p1.len(), 3);
            let mut d = p1.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn rf_larger_than_ring_is_capped() {
        let ring = Ring::new(&nodes(2));
        let p = ring.placement(&obj(0), 5);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_ring() {
        let ring = Ring::new(&[]);
        assert!(ring.is_empty());
        assert!(ring.primary(&obj(0)).is_none());
        assert!(ring.placement(&obj(0), 2).is_empty());
    }

    #[test]
    fn duplicate_nodes_deduped() {
        let ring = Ring::new(&[NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(ring.nodes(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = Ring::new(&nodes(4));
        let mut counts = std::collections::HashMap::new();
        const N: usize = 4000;
        for i in 0..N {
            let p = ring.primary(&obj(i)).expect("non-empty");
            *counts.entry(p).or_insert(0usize) += 1;
        }
        for (&node, &c) in &counts {
            let frac = c as f64 / N as f64;
            assert!((frac - 0.25).abs() < 0.12, "node {node:?} got fraction {frac}");
        }
    }

    #[test]
    fn minimal_disruption_on_node_removal() {
        let before = Ring::new(&nodes(5));
        let after = Ring::new(&nodes(4)); // node 4 removed
        const N: usize = 2000;
        let mut moved = 0usize;
        for i in 0..N {
            let o = obj(i);
            let b = before.primary(&o).expect("primary");
            let a = after.primary(&o).expect("primary");
            if b != NodeId(4) && a != b {
                moved += 1;
            }
        }
        // Objects not on the removed node should essentially never move.
        assert_eq!(moved, 0, "{moved} unaffected objects moved");
    }

    #[test]
    fn secondary_differs_from_primary_after_failover() {
        // When the primary dies, the old secondary becomes the new primary:
        // the rf=2 placement under the old ring contains the new primary.
        let before = Ring::new(&nodes(3));
        for i in 0..200 {
            let o = obj(i);
            let p = before.placement(&o, 2);
            let dead = p[0];
            let remaining: Vec<NodeId> = nodes(3).into_iter().filter(|n| *n != dead).collect();
            let after = Ring::new(&remaining);
            let new_primary = after.primary(&o).expect("primary");
            assert_eq!(new_primary, p[1], "new primary should be the old secondary for {o}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Removing one node never changes the placement of objects whose
        /// replica set did not include it (minimal disruption).
        #[test]
        fn removal_only_disrupts_owned_objects(
            n in 2u32..8,
            removed in 0u32..8,
            keys in proptest::collection::vec("[a-z]{1,12}", 1..40),
            rf in 1u8..4,
        ) {
            let removed = removed % n;
            let all: Vec<NodeId> = (0..n).map(NodeId).collect();
            let remaining: Vec<NodeId> =
                all.iter().copied().filter(|x| x.0 != removed).collect();
            let before = Ring::new(&all);
            let after = Ring::new(&remaining);
            for k in &keys {
                let o = ObjectRef::new("T", k.clone());
                let pb = before.placement(&o, rf);
                if !pb.contains(&NodeId(removed)) {
                    let pa = after.placement(&o, rf);
                    prop_assert_eq!(pb, pa);
                }
            }
        }

        /// Placement always returns min(rf, n) distinct nodes.
        #[test]
        fn placement_size_and_distinctness(
            n in 1u32..10,
            key in "[a-z0-9]{1,16}",
            rf in 1u8..6,
        ) {
            let ring = Ring::new(&(0..n).map(NodeId).collect::<Vec<_>>());
            let p = ring.placement(&ObjectRef::new("X", key), rf);
            prop_assert_eq!(p.len(), (rf as usize).min(n as usize));
            let mut d = p.clone();
            d.sort();
            d.dedup();
            prop_assert_eq!(d.len(), p.len());
        }
    }
}
