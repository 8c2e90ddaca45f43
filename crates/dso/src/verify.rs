//! History-based verification helpers: checking the DSO layer's headline
//! guarantee — *"objects are wait-free and linearizable"* (§3.1) —
//! against recorded concurrent histories.
//!
//! The general linearizability problem is NP-complete, but the paper's
//! workhorse object (an `AtomicLong` advanced by unit
//! `increment_and_get`s) admits an exact linear-time check:
//!
//! * every returned value must be distinct and form `1..=n`
//!   (each increment takes effect exactly once), and
//! * real-time order must be respected: if operation A *completed* before
//!   operation B *started*, A's linearization point precedes B's, so A's
//!   returned value must be smaller.
//!
//! The same reasoning verifies compare-and-set-based claims (each value
//! claimed exactly once).
//!
//! The weaker modes of the consistency spectrum get their own checkers:
//! [`check_causal`] validates the *session guarantees* (monotonic reads,
//! read-your-writes) that [`crate::ConsistencyMode::Causal`] promises,
//! and [`check_staleness_bound`] validates the virtual-time staleness
//! bound a [`crate::DsoConfig::cache_lease`] puts on primary-routed reads.

use std::time::Duration;

use simcore::SimTime;

/// One completed operation in a concurrent history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// Invocation time.
    pub start: SimTime,
    /// Response time.
    pub end: SimTime,
    /// The value the operation returned.
    pub value: i64,
}

/// Why a history is not linearizable.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// An operation responded before it was invoked (malformed record).
    Malformed,
    /// Returned values are not exactly `1..=n`: a lost or duplicated
    /// increment.
    NotABijection,
    /// Two non-overlapping operations returned values against their
    /// real-time order.
    RealTimeOrder {
        /// The earlier (completed-first) operation.
        earlier: Op,
        /// The later (started-after) operation.
        later: Op,
    },
    /// A read returned a counter value outside `0..=n` — a state the
    /// object can never have been in.
    ReadOutOfRange(Op),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Malformed => write!(f, "operation responded before it was invoked"),
            Violation::NotABijection => {
                write!(f, "returned values are not a permutation of 1..=n")
            }
            Violation::RealTimeOrder { earlier, later } => write!(
                f,
                "real-time order violated: op ending at {} returned {} but op starting at {} returned {}",
                earlier.end, earlier.value, later.start, later.value
            ),
            Violation::ReadOutOfRange(op) => write!(
                f,
                "read returned {} — a value the counter never held",
                op.value
            ),
        }
    }
}

/// Checks a history of unit `increment_and_get` operations on a counter
/// that started at zero.
///
/// # Errors
///
/// Returns the first [`Violation`] found; `Ok(())` means the history is
/// linearizable.
///
/// # Examples
///
/// ```
/// use dso::verify::{check_unit_counter, Op};
/// use simcore::SimTime;
///
/// let t = SimTime::from_millis;
/// // Two sequential increments in order: fine.
/// let h = vec![
///     Op { start: t(0), end: t(1), value: 1 },
///     Op { start: t(2), end: t(3), value: 2 },
/// ];
/// assert!(check_unit_counter(&h).is_ok());
///
/// // Sequential but values inverted: a real-time violation.
/// let h = vec![
///     Op { start: t(0), end: t(1), value: 2 },
///     Op { start: t(2), end: t(3), value: 1 },
/// ];
/// assert!(check_unit_counter(&h).is_err());
/// ```
pub fn check_unit_counter(history: &[Op]) -> Result<(), Violation> {
    let n = history.len();
    for op in history {
        if op.end < op.start {
            return Err(Violation::Malformed);
        }
    }
    // Values must be exactly 1..=n.
    let mut seen = vec![false; n];
    for op in history {
        if op.value < 1 || op.value > n as i64 || seen[(op.value - 1) as usize] {
            return Err(Violation::NotABijection);
        }
        seen[(op.value - 1) as usize] = true;
    }
    // Real-time order: sort by returned value; each op must not *end*
    // after a later-valued op *starts*... precisely: if a.end < b.start
    // then a.value < b.value. Checking all pairs is O(n²); instead sort
    // by value and verify the running maximum of start times never
    // exceeds the next op's end time the wrong way:
    // for ops ordered by value v1 < v2: require NOT (op2.end < op1.start),
    // i.e. op(v2) must not complete before op(v1) begins.
    let mut by_value: Vec<&Op> = history.iter().collect();
    by_value.sort_by_key(|o| o.value);
    // min over suffix of end times must not precede max over prefix of
    // start times.
    let mut max_start_so_far: Option<&Op> = None;
    for op in &by_value {
        if let Some(prev) = max_start_so_far {
            if op.end < prev.start {
                return Err(Violation::RealTimeOrder { earlier: **op, later: *prev });
            }
        }
        match max_start_so_far {
            Some(p) if p.start >= op.start => {}
            _ => max_start_so_far = Some(op),
        }
    }
    Ok(())
}

/// Checks a history mixing unit increments and plain reads (`get`) on a
/// counter that started at zero — the read-fast-path analogue of
/// [`check_unit_counter`].
///
/// The increments alone must satisfy [`check_unit_counter`]. A read
/// returning `v` linearizes in the window where the counter held `v`:
/// after the increment that produced `v` (if `v > 0`) and before the one
/// producing `v + 1` (if any). Mapping an increment returning `v` to key
/// `2v` and a read returning `v` to key `2v + 1` makes the required
/// linearization order exactly the key order (ties — concurrent reads of
/// the same state — are unordered), so one real-time scan over the merged,
/// key-sorted history decides the whole thing.
///
/// # Errors
///
/// Returns the first [`Violation`] found; `Ok(())` means the combined
/// history is linearizable.
///
/// # Examples
///
/// ```
/// use dso::verify::{check_counter_with_reads, Op};
/// use simcore::SimTime;
///
/// let t = SimTime::from_millis;
/// let incs = vec![
///     Op { start: t(0), end: t(1), value: 1 },
///     Op { start: t(10), end: t(11), value: 2 },
/// ];
/// // A read strictly between the increments must see 1.
/// let reads = vec![Op { start: t(4), end: t(5), value: 1 }];
/// assert!(check_counter_with_reads(&incs, &reads).is_ok());
/// // Seeing 2 there is a real-time violation (stale-future read).
/// let reads = vec![Op { start: t(12), end: t(13), value: 1 }];
/// assert!(check_counter_with_reads(&incs, &reads).is_err());
/// ```
pub fn check_counter_with_reads(incs: &[Op], reads: &[Op]) -> Result<(), Violation> {
    check_unit_counter(incs)?;
    let n = incs.len() as i64;
    for r in reads {
        if r.end < r.start {
            return Err(Violation::Malformed);
        }
        if r.value < 0 || r.value > n {
            return Err(Violation::ReadOutOfRange(*r));
        }
    }
    // Merge, keyed by required linearization order.
    let mut keyed: Vec<(i64, &Op)> = incs
        .iter()
        .map(|o| (2 * o.value, o))
        .chain(reads.iter().map(|o| (2 * o.value + 1, o)))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    // Same scan as `check_unit_counter`, except ops sharing a key (reads
    // of the same state) are mutually unordered: each op is compared only
    // against the latest-starting op among *strictly smaller* keys.
    let mut max_start_prev: Option<&Op> = None;
    let mut group_key = i64::MIN;
    let mut group_max: Option<&Op> = None;
    for (k, op) in keyed {
        if k != group_key {
            max_start_prev = match (max_start_prev, group_max) {
                (Some(a), Some(b)) => Some(if a.start >= b.start { a } else { b }),
                (a, None) => a,
                (None, b) => b,
            };
            group_key = k;
            group_max = None;
        }
        if let Some(prev) = max_start_prev {
            if op.end < prev.start {
                return Err(Violation::RealTimeOrder { earlier: *op, later: *prev });
            }
        }
        match group_max {
            Some(g) if g.start >= op.start => {}
            _ => group_max = Some(op),
        }
    }
    Ok(())
}

/// Whether a [`SessionOp`] was a mutation or a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// A mutating operation; `value` is the counter value it produced.
    Write,
    /// A read; `value` is the counter value it observed.
    Read,
}

/// One completed operation in a *session* history: an [`Op`] attributed
/// to the client (session) that issued it, with its read/write kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionOp {
    /// The issuing client (session) id.
    pub client: u32,
    /// Invocation time.
    pub start: SimTime,
    /// Response time.
    pub end: SimTime,
    /// Read or write.
    pub kind: SessionKind,
    /// The counter value produced (write) or observed (read).
    pub value: i64,
}

/// Why a session history violates the causal session guarantees.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionViolation {
    /// An operation responded before it was invoked (malformed record).
    Malformed,
    /// A session read a value, then later read an older one.
    MonotonicReads {
        /// The violating session.
        client: u32,
        /// The earlier read (higher value).
        earlier: SessionOp,
        /// The later read that travelled back in time.
        later: SessionOp,
    },
    /// A session failed to observe its own earlier write.
    ReadYourWrites {
        /// The violating session.
        client: u32,
        /// The session's write.
        write: SessionOp,
        /// The later read that missed it.
        read: SessionOp,
    },
}

impl std::fmt::Display for SessionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionViolation::Malformed => {
                write!(f, "operation responded before it was invoked")
            }
            SessionViolation::MonotonicReads { client, earlier, later } => write!(
                f,
                "monotonic reads violated: client {client} read {} then later read {}",
                earlier.value, later.value
            ),
            SessionViolation::ReadYourWrites { client, write, read } => write!(
                f,
                "read-your-writes violated: client {client} wrote {} then read {}",
                write.value, read.value
            ),
        }
    }
}

/// Checks the two *session guarantees* that
/// [`crate::ConsistencyMode::Causal`] promises, over a counter history
/// where values grow monotonically with real time (unit increments):
///
/// * **monotonic reads** — within one session, read values never
///   decrease, and
/// * **read-your-writes** — a session's read never returns a value below
///   its own latest write.
///
/// Operations within a session are sequential (a client issues one call
/// at a time), so ordering each session by invocation time recovers its
/// program order.
///
/// # Errors
///
/// Returns the first [`SessionViolation`] found, scanning sessions in
/// client-id order.
///
/// # Examples
///
/// ```
/// use dso::verify::{check_causal, SessionKind, SessionOp};
/// use simcore::SimTime;
///
/// let t = SimTime::from_millis;
/// let h = vec![
///     SessionOp { client: 0, start: t(0), end: t(1), kind: SessionKind::Write, value: 1 },
///     SessionOp { client: 0, start: t(2), end: t(3), kind: SessionKind::Read, value: 1 },
/// ];
/// assert!(check_causal(&h).is_ok());
///
/// // The same session reading 0 after writing 1 misses its own write.
/// let h = vec![
///     SessionOp { client: 0, start: t(0), end: t(1), kind: SessionKind::Write, value: 1 },
///     SessionOp { client: 0, start: t(2), end: t(3), kind: SessionKind::Read, value: 0 },
/// ];
/// assert!(check_causal(&h).is_err());
/// ```
pub fn check_causal(history: &[SessionOp]) -> Result<(), SessionViolation> {
    let mut sessions: std::collections::BTreeMap<u32, Vec<&SessionOp>> =
        std::collections::BTreeMap::new();
    for op in history {
        if op.end < op.start {
            return Err(SessionViolation::Malformed);
        }
        sessions.entry(op.client).or_default().push(op);
    }
    for (client, mut ops) in sessions {
        ops.sort_by_key(|o| o.start);
        // Highest-valued read/write seen so far in this session; counter
        // values grow with time, so any dip below either is a violation.
        let mut max_read: Option<&SessionOp> = None;
        let mut max_write: Option<&SessionOp> = None;
        for op in ops {
            match op.kind {
                SessionKind::Read => {
                    if let Some(w) = max_write {
                        if op.value < w.value {
                            return Err(SessionViolation::ReadYourWrites {
                                client,
                                write: *w,
                                read: *op,
                            });
                        }
                    }
                    if let Some(r) = max_read {
                        if op.value < r.value {
                            return Err(SessionViolation::MonotonicReads {
                                client,
                                earlier: *r,
                                later: *op,
                            });
                        }
                    }
                    if max_read.is_none_or(|r| op.value > r.value) {
                        max_read = Some(op);
                    }
                }
                SessionKind::Write => {
                    if max_write.is_none_or(|w| op.value > w.value) {
                        max_write = Some(op);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Why a history violates a staleness bound.
#[derive(Clone, Debug, PartialEq)]
pub enum StalenessViolation {
    /// An operation responded before it was invoked (malformed record).
    Malformed,
    /// A read returned a counter value outside `0..=n`.
    ReadOutOfRange(Op),
    /// A read completed before the increment producing its value started.
    FutureRead {
        /// The increment that produced the read's value.
        inc: Op,
        /// The impossible read.
        read: Op,
    },
    /// A read returned a value the counter had moved past more than
    /// `bound` before the read started.
    StaleBeyondBound {
        /// The increment that superseded the read's value.
        superseded_by: Op,
        /// The too-stale read.
        read: Op,
        /// The configured bound.
        bound: Duration,
    },
}

impl std::fmt::Display for StalenessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessViolation::Malformed => {
                write!(f, "operation responded before it was invoked")
            }
            StalenessViolation::ReadOutOfRange(op) => {
                write!(f, "read returned {} — a value the counter never held", op.value)
            }
            StalenessViolation::FutureRead { read, .. } => {
                write!(f, "read returned {} before the producing increment started", read.value)
            }
            StalenessViolation::StaleBeyondBound { read, bound, .. } => write!(
                f,
                "read of {} started more than {bound:?} after the value was superseded",
                read.value
            ),
        }
    }
}

/// Checks the contract of leased primary-routed reads
/// ([`crate::ConsistencyMode::Linearizable`] with a
/// [`crate::DsoConfig::cache_lease`] of `bound`): every read returns a
/// value the counter held *within the last `bound`* of virtual time.
///
/// The increments must themselves be linearizable
/// ([`check_unit_counter`] — writes still go through the primary). The
/// staleness rule is conservative (it only reports certain violations): a
/// read of value `v` is flagged iff the increment producing `v + 1`
/// *completed* more than `bound` before the read *started* — by then even
/// a lease granted at the last possible validation has expired. Reads are
/// also checked against the future: a read cannot return a value whose
/// producing increment had not started when the read completed.
///
/// # Errors
///
/// Returns the first violation found, reads scanned in input order;
/// failures of the increments-only check are reported through
/// [`StalenessViolation::Malformed`]/[`ReadOutOfRange`](StalenessViolation::ReadOutOfRange)
/// equivalents of the underlying [`Violation`].
pub fn check_staleness_bound(
    incs: &[Op],
    reads: &[Op],
    bound: Duration,
) -> Result<(), StalenessViolation> {
    if check_unit_counter(incs).is_err() {
        return Err(StalenessViolation::Malformed);
    }
    let n = incs.len() as i64;
    // Bijection holds, so value v (1-based) indexes its increment.
    let mut by_value: Vec<&Op> = incs.iter().collect();
    by_value.sort_by_key(|o| o.value);
    for r in reads {
        if r.end < r.start {
            return Err(StalenessViolation::Malformed);
        }
        if r.value < 0 || r.value > n {
            return Err(StalenessViolation::ReadOutOfRange(*r));
        }
        if r.value > 0 {
            let inc = by_value[(r.value - 1) as usize];
            if r.end < inc.start {
                return Err(StalenessViolation::FutureRead { inc: *inc, read: *r });
            }
        }
        if r.value < n {
            let next = by_value[r.value as usize];
            if next.end + bound < r.start {
                return Err(StalenessViolation::StaleBeyondBound {
                    superseded_by: *next,
                    read: *r,
                    bound,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(start_ms: u64, end_ms: u64, value: i64) -> Op {
        Op { start: SimTime::from_millis(start_ms), end: SimTime::from_millis(end_ms), value }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_unit_counter(&[]).is_ok());
    }

    #[test]
    fn overlapping_ops_may_return_any_order() {
        // Both ops overlap in [0, 10]: either may linearize first.
        let h = vec![op(0, 10, 2), op(1, 9, 1)];
        assert!(check_unit_counter(&h).is_ok());
        let h = vec![op(0, 10, 1), op(1, 9, 2)];
        assert!(check_unit_counter(&h).is_ok());
    }

    #[test]
    fn sequential_inversion_is_caught() {
        let h = vec![op(0, 1, 2), op(5, 6, 1)];
        let err = check_unit_counter(&h).unwrap_err();
        assert!(matches!(err, Violation::RealTimeOrder { .. }));
    }

    #[test]
    fn duplicate_value_is_caught() {
        let h = vec![op(0, 1, 1), op(2, 3, 1)];
        assert_eq!(check_unit_counter(&h).unwrap_err(), Violation::NotABijection);
    }

    #[test]
    fn lost_increment_is_caught() {
        let h = vec![op(0, 1, 1), op(2, 3, 3)];
        assert_eq!(check_unit_counter(&h).unwrap_err(), Violation::NotABijection);
    }

    #[test]
    fn malformed_op_is_caught() {
        let h = vec![op(5, 1, 1)];
        assert_eq!(check_unit_counter(&h).unwrap_err(), Violation::Malformed);
    }

    #[test]
    fn chain_of_overlaps_is_fine() {
        // 1 overlaps 2, 2 overlaps 3, but 1 and 3 are disjoint with
        // increasing values: linearizable.
        let h = vec![op(0, 4, 1), op(3, 8, 2), op(7, 12, 3)];
        assert!(check_unit_counter(&h).is_ok());
    }

    #[test]
    fn transitive_real_time_violation_is_caught() {
        // op(3) completes entirely before op(2) starts: impossible.
        let h = vec![op(0, 20, 1), op(10, 11, 3), op(15, 16, 2)];
        let err = check_unit_counter(&h).unwrap_err();
        assert!(matches!(err, Violation::RealTimeOrder { .. }), "{err}");
    }

    #[test]
    fn violation_display() {
        let err = check_unit_counter(&[op(0, 1, 2), op(5, 6, 1)]).unwrap_err();
        assert!(err.to_string().contains("real-time order"));
        assert!(Violation::NotABijection.to_string().contains("permutation"));
        assert!(Violation::ReadOutOfRange(op(0, 1, 9)).to_string().contains("never held"));
    }

    #[test]
    fn reads_between_increments_are_fine() {
        let incs = vec![op(0, 1, 1), op(10, 11, 2)];
        let reads = vec![op(2, 3, 1), op(4, 5, 1), op(12, 13, 2)];
        assert!(check_counter_with_reads(&incs, &reads).is_ok());
    }

    #[test]
    fn read_before_any_increment_sees_zero() {
        let incs = vec![op(10, 11, 1)];
        assert!(check_counter_with_reads(&incs, &[op(0, 1, 0)]).is_ok());
        // Seeing 0 *after* the increment completed is a violation.
        let err = check_counter_with_reads(&incs, &[op(20, 21, 0)]).unwrap_err();
        assert!(matches!(err, Violation::RealTimeOrder { .. }), "{err}");
    }

    #[test]
    fn stale_read_after_later_increment_is_caught() {
        let incs = vec![op(0, 1, 1), op(10, 11, 2)];
        // Read starting after inc(2) completed must not return 1.
        let err = check_counter_with_reads(&incs, &[op(15, 16, 1)]).unwrap_err();
        assert!(matches!(err, Violation::RealTimeOrder { .. }), "{err}");
    }

    #[test]
    fn future_read_before_increment_is_caught() {
        let incs = vec![op(10, 11, 1)];
        // Read completing before inc(1) even started cannot return 1.
        let err = check_counter_with_reads(&incs, &[op(0, 1, 1)]).unwrap_err();
        assert!(matches!(err, Violation::RealTimeOrder { .. }), "{err}");
    }

    #[test]
    fn read_out_of_range_is_caught() {
        let incs = vec![op(0, 1, 1)];
        assert_eq!(
            check_counter_with_reads(&incs, &[op(2, 3, 7)]).unwrap_err(),
            Violation::ReadOutOfRange(op(2, 3, 7))
        );
        assert_eq!(
            check_counter_with_reads(&incs, &[op(2, 3, -1)]).unwrap_err(),
            Violation::ReadOutOfRange(op(2, 3, -1))
        );
    }

    #[test]
    fn concurrent_reads_of_same_state_are_unordered() {
        // Two disjoint reads returning the same value: both observe the
        // state between the increments — fine in either order.
        let incs = vec![op(0, 1, 1), op(100, 101, 2)];
        let reads = vec![op(10, 11, 1), op(20, 21, 1)];
        assert!(check_counter_with_reads(&incs, &reads).is_ok());
    }

    #[test]
    fn overlapping_read_may_see_either_side() {
        let incs = vec![op(10, 20, 1)];
        // Read overlapping the increment can return 0 or 1.
        assert!(check_counter_with_reads(&incs, &[op(5, 15, 0)]).is_ok());
        assert!(check_counter_with_reads(&incs, &[op(5, 15, 1)]).is_ok());
    }

    #[test]
    fn bad_increments_fail_regardless_of_reads() {
        let incs = vec![op(0, 1, 1), op(2, 3, 1)];
        assert_eq!(check_counter_with_reads(&incs, &[]).unwrap_err(), Violation::NotABijection);
    }

    fn sop(client: u32, start_ms: u64, kind: SessionKind, value: i64) -> SessionOp {
        SessionOp {
            client,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(start_ms + 1),
            kind,
            value,
        }
    }

    #[test]
    fn causal_sessions_are_independent() {
        use SessionKind::{Read, Write};
        // Client 0 advances; client 1 reads older values — fine, the
        // guarantees are per-session.
        let h = vec![
            sop(0, 0, Write, 1),
            sop(0, 10, Write, 2),
            sop(0, 20, Read, 2),
            sop(1, 25, Read, 1),
            sop(1, 30, Read, 1),
            sop(1, 40, Read, 2),
        ];
        assert!(check_causal(&h).is_ok());
        assert!(check_causal(&[]).is_ok());
    }

    #[test]
    fn causal_catches_non_monotonic_reads() {
        use SessionKind::Read;
        let h = vec![sop(3, 0, Read, 5), sop(3, 10, Read, 4)];
        let err = check_causal(&h).unwrap_err();
        assert!(matches!(err, SessionViolation::MonotonicReads { client: 3, .. }), "{err}");
        assert!(err.to_string().contains("monotonic reads"));
        // Record order must not matter: sessions are re-sorted by start.
        let h = vec![sop(3, 10, Read, 4), sop(3, 0, Read, 5)];
        assert!(check_causal(&h).is_err());
    }

    #[test]
    fn causal_catches_missed_own_write() {
        use SessionKind::{Read, Write};
        let h = vec![sop(7, 0, Write, 3), sop(7, 10, Read, 2)];
        let err = check_causal(&h).unwrap_err();
        assert!(matches!(err, SessionViolation::ReadYourWrites { client: 7, .. }), "{err}");
        assert!(err.to_string().contains("read-your-writes"));
    }

    #[test]
    fn causal_catches_malformed_records() {
        let bad = SessionOp {
            client: 0,
            start: SimTime::from_millis(5),
            end: SimTime::from_millis(1),
            kind: SessionKind::Read,
            value: 0,
        };
        assert_eq!(check_causal(&[bad]).unwrap_err(), SessionViolation::Malformed);
    }

    #[test]
    fn staleness_bound_accepts_reads_within_the_lease() {
        let bound = Duration::from_millis(10);
        let incs = vec![op(0, 1, 1), op(100, 101, 2)];
        // Reading 1 up to 101ms + 10ms after it was superseded is fine...
        assert!(check_staleness_bound(&incs, &[op(105, 106, 1)], bound).is_ok());
        // ...but starting a read of 1 well past the bound is not.
        let err = check_staleness_bound(&incs, &[op(150, 151, 1)], bound).unwrap_err();
        assert!(matches!(err, StalenessViolation::StaleBeyondBound { .. }), "{err}");
        assert!(err.to_string().contains("superseded"));
        // The newest value is never stale.
        assert!(check_staleness_bound(&incs, &[op(10_000, 10_001, 2)], bound).is_ok());
    }

    #[test]
    fn staleness_bound_still_rejects_impossible_reads() {
        let bound = Duration::from_millis(10);
        let incs = vec![op(100, 101, 1)];
        // Value from the future: inc(1) had not started when the read
        // completed.
        let err = check_staleness_bound(&incs, &[op(0, 1, 1)], bound).unwrap_err();
        assert!(matches!(err, StalenessViolation::FutureRead { .. }), "{err}");
        assert_eq!(
            check_staleness_bound(&incs, &[op(0, 1, 9)], bound).unwrap_err(),
            StalenessViolation::ReadOutOfRange(op(0, 1, 9))
        );
        assert_eq!(
            check_staleness_bound(&incs, &[op(5, 1, 0)], bound).unwrap_err(),
            StalenessViolation::Malformed
        );
        // Broken increments surface as malformed regardless of reads.
        assert_eq!(
            check_staleness_bound(&[op(0, 1, 1), op(2, 3, 1)], &[], bound).unwrap_err(),
            StalenessViolation::Malformed
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Generates a linearizable history by construction: pick linearization
    /// points in order, then wrap each in an interval containing it.
    fn linearizable_history(n: usize, widths: &[u64]) -> Vec<Op> {
        (0..n)
            .map(|i| {
                let point = (i as u64 + 1) * 1000;
                let w = widths.get(i).copied().unwrap_or(0) % 900;
                Op {
                    start: SimTime::from_nanos(point - w),
                    end: SimTime::from_nanos(point + w),
                    value: i as i64 + 1,
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn constructed_linearizable_histories_pass(
            n in 0usize..40,
            widths in proptest::collection::vec(0u64..100_000, 0..40),
            shuffle_seed in 0u64..1000,
        ) {
            let mut h = linearizable_history(n, &widths);
            // Record order must not matter: rotate deterministically.
            if !h.is_empty() {
                let k = (shuffle_seed as usize) % h.len();
                h.rotate_left(k);
            }
            prop_assert!(check_unit_counter(&h).is_ok());
        }

        #[test]
        fn linearizable_histories_with_reads_pass(
            n in 1usize..30,
            read_slots in proptest::collection::vec((0usize..30, 0u64..900), 0..60),
        ) {
            let incs = linearizable_history(n, &[]);
            // A read in slot i (after the i-th increment) returns i; the
            // i-th increment linearizes at (i+1)*1000, so place the read
            // strictly inside (i*1000, (i+1)*1000).
            let reads: Vec<Op> = read_slots
                .iter()
                .map(|&(slot, jitter)| {
                    let v = slot % (n + 1);
                    let base = v as u64 * 1000;
                    Op {
                        start: SimTime::from_nanos(base + 10 + jitter.min(880)),
                        end: SimTime::from_nanos(base + 20 + jitter.min(880)),
                        value: v as i64,
                    }
                })
                .collect();
            prop_assert!(check_counter_with_reads(&incs, &reads).is_ok());
        }

        #[test]
        fn displaced_disjoint_read_fails(
            n in 2usize..30,
            slot in 0usize..30,
            wrong in 0usize..30,
        ) {
            let incs = linearizable_history(n, &[]);
            let v = slot % (n + 1);
            let wrong_v = wrong % (n + 1);
            prop_assume!(wrong_v != v);
            // A zero-jitter read inside slot v that *returns* a different
            // value is disjoint from every op of the other slot: always a
            // violation.
            let read = Op {
                start: SimTime::from_nanos(v as u64 * 1000 + 100),
                end: SimTime::from_nanos(v as u64 * 1000 + 200),
                value: wrong_v as i64,
            };
            prop_assert!(check_counter_with_reads(&incs, &[read]).is_err());
        }

        #[test]
        fn lagged_session_reads_satisfy_causal_when_frontiers_are_respected(
            // Each event: (client, is_write, lag) over a global counter.
            events in proptest::collection::vec((0u32..4, any::<bool>(), 0i64..5), 1..120),
        ) {
            // Model of the causal policy: a session may read any lagged
            // value of the global counter, clamped to its own frontier
            // (max of everything it has read or written) — which is
            // exactly what the Lamport-frontier admission enforces.
            let mut global = 0i64;
            let mut frontier = [0i64; 4];
            let mut t = 0u64;
            let mut h = Vec::new();
            for (client, is_write, lag) in events {
                t += 10;
                let c = client as usize;
                if is_write {
                    global += 1;
                    frontier[c] = frontier[c].max(global);
                    h.push(SessionOp {
                        client,
                        start: SimTime::from_millis(t),
                        end: SimTime::from_millis(t + 1),
                        kind: SessionKind::Write,
                        value: global,
                    });
                } else {
                    let v = (global - lag).max(frontier[c]);
                    frontier[c] = frontier[c].max(v);
                    h.push(SessionOp {
                        client,
                        start: SimTime::from_millis(t),
                        end: SimTime::from_millis(t + 1),
                        kind: SessionKind::Read,
                        value: v,
                    });
                }
            }
            prop_assert!(check_causal(&h).is_ok());
        }

        #[test]
        fn bounded_lag_reads_satisfy_the_matching_staleness_bound(
            n in 1usize..30,
            read_slots in proptest::collection::vec((1usize..30, 0u64..2000), 0..40),
        ) {
            // Increments at 1000ns, 2000ns, ...; a read at time T of the
            // value current at T - lag (lag ≤ bound) must pass the check
            // with that bound.
            let bound_ns = 1500u64;
            let incs = linearizable_history(n, &[]);
            let reads: Vec<Op> = read_slots
                .iter()
                .map(|&(slot, jitter)| {
                    let at = (slot % n + 1) as u64 * 1000 + 500;
                    let lag = jitter.min(bound_ns);
                    let effective = at.saturating_sub(lag);
                    // Value current at `effective`: increments linearize at
                    // multiples of 1000.
                    let v = (effective / 1000).min(n as u64) as i64;
                    Op {
                        start: SimTime::from_nanos(at),
                        end: SimTime::from_nanos(at + 10),
                        value: v,
                    }
                })
                .collect();
            prop_assert!(check_staleness_bound(
                &incs,
                &reads,
                Duration::from_nanos(bound_ns)
            ).is_ok());
        }

        #[test]
        fn swapping_values_of_disjoint_ops_fails(
            n in 2usize..40,
            i in 0usize..40,
            j in 0usize..40,
        ) {
            let mut h = linearizable_history(n, &[]);
            let (i, j) = (i % n, j % n);
            prop_assume!(i != j);
            let vi = h[i].value;
            let vj = h[j].value;
            h[i].value = vj;
            h[j].value = vi;
            // Zero-width intervals at distinct points are all disjoint, so
            // any swap breaks real-time order.
            prop_assert!(check_unit_counter(&h).is_err());
        }
    }
}
