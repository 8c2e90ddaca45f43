//! Consistent hashing with virtual nodes, as in Cassandra (§4.1): every
//! storage node knows the full membership, so any object's location is a
//! local computation — no broadcast, disjoint-access parallelism, and
//! minimal disruption when nodes come and go.

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

/// The [`VNODES`] points of each of `nodes`, in order.
fn vnode_points(nodes: &[NodeId]) -> impl Iterator<Item = (u64, NodeId)> + '_ {
    nodes.iter().flat_map(|&n| {
        (0..VNODES).map(move |v| {
            let mut h = fnv1a(0, &n.0.to_le_bytes());
            h = fnv1a(h, &v.to_le_bytes());
            (mix(h), n)
        })
    })
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
    /// Virtual-node points, sorted by position, one node per position.
    points: Vec<(u64, NodeId)>,
    nodes: Vec<NodeId>,
}

impl Ring {
    /// Builds a ring over `nodes` with [`VNODES`] virtual nodes each.
    pub fn new(nodes: &[NodeId]) -> Ring {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort();
        sorted.dedup();
        let points: Vec<(u64, NodeId)> = vnode_points(&sorted).collect();
        Ring::from_points(sorted, points)
    }

    /// A ring over explicit points; of two equal points the later wins.
    fn from_points(nodes: Vec<NodeId>, points: impl IntoIterator<Item = (u64, NodeId)>) -> Ring {
        let mut points: Vec<(u64, NodeId)> = points.into_iter().collect();
        // Stable, so equal points stay in the order given and the last of
        // each run overwrites the one kept.
        points.sort_by_key(|&(p, _)| p);
        points.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        Ring { points, nodes }
    }

    /// Index of the first point at or after `hash` (`points.len()` when
    /// the walk must wrap to the start).
    fn successor(&self, hash: u64) -> usize {
        self.points.partition_point(|&(p, _)| p < hash)
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
        let mut out = Vec::with_capacity(self.want(rf));
        out.extend(self.placement_iter(hash, rf));
        out
    }

    /// [`Ring::placement_by_hash`] as a walk that allocates nothing: the
    /// same nodes in the same order, for callers that need one of them or
    /// a yes/no.
    pub fn placement_iter(&self, hash: u64, rf: u8) -> impl Iterator<Item = NodeId> + '_ {
        Walk { points: &self.points, start: self.successor(hash), walked: 0, left: self.want(rf) }
    }

    /// How many nodes a placement at `rf` holds at most; `rf = 0` caps
    /// nothing, as placement has always read it.
    fn want(&self, rf: u8) -> usize {
        match rf {
            0 => self.nodes.len(),
            rf => (rf as usize).min(self.nodes.len()),
        }
    }

    /// The primary node for an object (the first point at or after its
    /// hash), if the ring is non-empty.
    pub fn primary(&self, obj: &ObjectRef) -> Option<NodeId> {
        let at = self.successor(obj.placement_hash());
        self.points.get(at).or(self.points.first()).map(|&(_, n)| n)
    }
}

/// The clockwise walk behind [`Ring::placement_iter`]. A point's node is
/// new if no earlier point of the walk holds it; the walk is a handful of
/// points long, so rescanning it is cheaper than remembering it.
struct Walk<'a> {
    points: &'a [(u64, NodeId)],
    /// Index of the walk's first point (`points.len()` wraps to 0).
    start: usize,
    /// Points walked so far.
    walked: usize,
    /// Nodes still to yield.
    left: usize,
}

impl Walk<'_> {
    /// The node of the walk's `i`-th point, `i < points.len()`.
    fn at(&self, i: usize) -> NodeId {
        let len = self.points.len();
        let j = self.start + i;
        self.points[if j >= len { j - len } else { j }].1
    }
}

impl Iterator for Walk<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.left > 0 && self.walked < self.points.len() {
            let n = self.at(self.walked);
            let fresh = (0..self.walked).all(|i| self.at(i) != n);
            self.walked += 1;
            if fresh {
                self.left -= 1;
                return Some(n);
            }
        }
        None
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
        let mut counts = std::collections::BTreeMap::new();
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
    use std::collections::BTreeMap;

    /// The `BTreeMap` ring that placement was first written as, verbatim:
    /// the reference the ring's lookups must match point for point.
    struct TreeRing {
        points: BTreeMap<u64, NodeId>,
        nodes: Vec<NodeId>,
    }

    impl TreeRing {
        fn placement_by_hash(&self, hash: u64, rf: u8) -> Vec<NodeId> {
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

        fn primary(&self, hash: u64) -> Option<NodeId> {
            self.placement_by_hash(hash, 1).first().copied()
        }
    }

    /// Both rings over the same points, duplicates included.
    fn both(points: &[(u64, NodeId)]) -> (Ring, TreeRing) {
        let mut nodes: Vec<NodeId> = points.iter().map(|&(_, n)| n).collect();
        nodes.sort();
        nodes.dedup();
        let mut tree = BTreeMap::new();
        for &(p, n) in points {
            tree.insert(p, n);
        }
        let ring = Ring::from_points(nodes.clone(), points.iter().copied());
        (ring, TreeRing { points: tree, nodes })
    }

    proptest! {
        /// Over random node sets, points, hashes and replication factors
        /// (rf = 0 included), the ring places exactly as the `BTreeMap`
        /// ring does. Points drawn from a 64-value space collide often,
        /// so the later-point-wins collapse is exercised too.
        #[test]
        fn placement_matches_the_tree_ring(
            raw in proptest::collection::vec((0u64..64, 0u32..6), 0..40),
            hashes in proptest::collection::vec(0u64..70, 1..20),
            rf in 0u8..8,
        ) {
            let points: Vec<(u64, NodeId)> = raw.iter().map(|&(p, n)| (p, NodeId(n))).collect();
            let (ring, tree) = both(&points);
            for &h in &hashes {
                prop_assert_eq!(ring.placement_by_hash(h, rf), tree.placement_by_hash(h, rf));
                let obj = ObjectRef::new("T", format!("k{h}"));
                let oh = obj.placement_hash();
                prop_assert_eq!(ring.placement(&obj, rf), tree.placement_by_hash(oh, rf));
                prop_assert_eq!(ring.primary(&obj), tree.primary(oh));
            }
        }

        /// The same over rings as `Ring::new` builds them, with full-range
        /// hashes.
        #[test]
        fn built_rings_match_the_tree_ring(
            ids in proptest::collection::vec(0u32..12, 0..8),
            keys in proptest::collection::vec("[a-z0-9]{0,10}", 1..20),
            rf in 0u8..6,
        ) {
            let nodes: Vec<NodeId> = ids.iter().copied().map(NodeId).collect();
            let ring = Ring::new(&nodes);
            let points: Vec<(u64, NodeId)> = vnode_points(ring.nodes()).collect();
            let (_, tree) = both(&points);
            for k in &keys {
                let obj = ObjectRef::new("X", k.clone());
                let h = obj.placement_hash();
                prop_assert_eq!(ring.placement(&obj, rf), tree.placement_by_hash(h, rf));
                prop_assert_eq!(ring.primary(&obj), tree.primary(h));
            }
        }
    }

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
