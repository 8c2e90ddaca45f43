//! Server-side synchronization objects (§3.1, Table 1): cyclic barrier,
//! semaphore, count-down latch and future.
//!
//! Unlike polling-based approaches over S3 or SQS (Fig. 6), these block the
//! *call* on the server: a method may park its caller and a later
//! invocation completes it, so waiters are released by a push the moment
//! the condition holds. Per the paper (footnote 2), synchronization
//! objects are ephemeral and never replicated.

use std::collections::VecDeque;

use super::{dec, dec_create};
use crate::error::ObjectError as ObjErr;
use crate::object::{CallCtx, Effects, SharedObject, Ticket};

/// A reusable barrier for a fixed number of parties, mirroring
/// `java.util.concurrent.CyclicBarrier`.
///
/// `await` parks each caller until the last party arrives; everyone is then
/// released with the generation number, and the barrier resets.
#[derive(Debug, Default, Clone)]
pub struct CyclicBarrier {
    parties: u32,
    generation: u64,
    waiting: Vec<Ticket>,
}

impl CyclicBarrier {
    /// Registry type name.
    pub const TYPE: &'static str = "CyclicBarrier";

    /// Factory: creation args are the number of parties.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let parties = dec_create(args, 0u32)?;
        Ok(Box::new(CyclicBarrier { parties, generation: 0, waiting: Vec::new() }))
    }
}

impl SharedObject for CyclicBarrier {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "await" => {
                let () = dec(args)?;
                if self.parties == 0 {
                    return Err(ObjErr::App("barrier has zero parties".to_string()));
                }
                if (self.waiting.len() as u32) + 1 == self.parties {
                    // Last arrival: release the whole generation.
                    let gen = self.generation;
                    self.generation += 1;
                    let waiters = std::mem::take(&mut self.waiting);
                    let mut fx = Effects::value(&gen)?;
                    for t in waiters {
                        fx = fx.wake(t, &gen)?;
                    }
                    Ok(fx)
                } else {
                    self.waiting.push(call.ticket);
                    Ok(Effects::park())
                }
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "getParties" => Effects::value(&self.parties),
            "getNumberWaiting" => Effects::value(&(self.waiting.len() as u32)),
            "getGeneration" => Effects::value(&self.generation),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // Waiting tickets are node-local and meaningless elsewhere.
        // invariant: a (u32, u64) pair always encodes.
        simcore::codec::to_bytes(&(self.parties, self.generation)).expect("barrier encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        let (parties, generation): (u32, u64) =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        self.parties = parties;
        self.generation = generation;
        self.waiting.clear();
        Ok(())
    }
}

/// A counting semaphore, mirroring `java.util.concurrent.Semaphore`.
/// Waiters are granted permits in FIFO order.
#[derive(Debug, Default, Clone)]
pub struct Semaphore {
    permits: i64,
    queue: VecDeque<(Ticket, i64)>,
}

impl Semaphore {
    /// Registry type name.
    pub const TYPE: &'static str = "Semaphore";

    /// Factory: creation args are the initial permit count.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let permits = dec_create(args, 0i64)?;
        Ok(Box::new(Semaphore { permits, queue: VecDeque::new() }))
    }

    fn drain(&mut self, mut fx: Effects) -> Result<Effects, ObjErr> {
        while let Some(&(t, n)) = self.queue.front() {
            if self.permits < n {
                break;
            }
            self.permits -= n;
            self.queue.pop_front();
            fx = fx.wake(t, &())?;
        }
        Ok(fx)
    }
}

impl SharedObject for Semaphore {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "acquire" => {
                let n: i64 = dec(args)?;
                if n <= 0 {
                    return Err(ObjErr::BadArgs("acquire needs n > 0".to_string()));
                }
                if self.queue.is_empty() && self.permits >= n {
                    self.permits -= n;
                    Effects::value(&())
                } else {
                    self.queue.push_back((call.ticket, n));
                    Ok(Effects::park())
                }
            }
            "tryAcquire" => {
                let n: i64 = dec(args)?;
                let ok = self.queue.is_empty() && self.permits >= n;
                if ok {
                    self.permits -= n;
                }
                Effects::value(&ok)
            }
            "release" => {
                let n: i64 = dec(args)?;
                self.permits += n;
                let fx = Effects::value(&())?;
                self.drain(fx)
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "availablePermits" => Effects::value(&self.permits),
            "getQueueLength" => Effects::value(&(self.queue.len() as u64)),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: an i64 always encodes.
        simcore::codec::to_bytes(&self.permits).expect("semaphore encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.permits =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        self.queue.clear();
        Ok(())
    }
}

/// A one-shot count-down latch, mirroring `CountDownLatch`.
#[derive(Debug, Default, Clone)]
pub struct CountDownLatch {
    count: u64,
    waiting: Vec<Ticket>,
}

impl CountDownLatch {
    /// Registry type name.
    pub const TYPE: &'static str = "CountDownLatch";

    /// Factory: creation args are the initial count.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let count = dec_create(args, 0u64)?;
        Ok(Box::new(CountDownLatch { count, waiting: Vec::new() }))
    }
}

impl SharedObject for CountDownLatch {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "await" => {
                let () = dec(args)?;
                if self.count == 0 {
                    Effects::value(&())
                } else {
                    self.waiting.push(call.ticket);
                    Ok(Effects::park())
                }
            }
            "countDown" => {
                let () = dec(args)?;
                self.count = self.count.saturating_sub(1);
                let mut fx = Effects::value(&self.count)?;
                if self.count == 0 {
                    for t in std::mem::take(&mut self.waiting) {
                        fx = fx.wake(t, &())?;
                    }
                }
                Ok(fx)
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "getCount" => Effects::value(&self.count),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: a u64 always encodes.
        simcore::codec::to_bytes(&self.count).expect("latch encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.count =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        self.waiting.clear();
        Ok(())
    }
}

/// A write-once future: `get` blocks until `set` provides the value — the
/// primitive behind the map-phase synchronization of Fig. 6.
#[derive(Debug, Default, Clone)]
pub struct FutureObject {
    value: Option<Vec<u8>>,
    waiting: Vec<Ticket>,
}

impl FutureObject {
    /// Registry type name.
    pub const TYPE: &'static str = "Future";

    /// Factory: creation args must be empty (futures start unset).
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let value = dec_create(args, None)?;
        Ok(Box::new(FutureObject { value, waiting: Vec::new() }))
    }

    fn raw_value_effects(bytes: Vec<u8>) -> Effects {
        Effects {
            reply: crate::object::Reply::Value(bytes),
            cost: crate::object::costs::SIMPLE_OP,
            wakes: Vec::new(),
        }
    }
}

impl SharedObject for FutureObject {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "get" => match &self.value {
                Some(v) => Ok(Self::raw_value_effects(v.clone())),
                None => {
                    self.waiting.push(call.ticket);
                    Ok(Effects::park())
                }
            },
            "set" => {
                let v: Vec<u8> = dec(args)?;
                if self.value.is_some() {
                    return Effects::value(&false);
                }
                self.value = Some(v.clone());
                let mut fx = Effects::value(&true)?;
                for t in std::mem::take(&mut self.waiting) {
                    // Wake with the raw encoded value so getters decode T.
                    fx.wakes.push((t, v.clone()));
                }
                Ok(fx)
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "isDone" => Effects::value(&self.value.is_some()),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: an Option<Vec<u8>> always encodes.
        simcore::codec::to_bytes(&self.value).expect("future encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.value =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        self.waiting.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{call, call_fx_ticket, wake_value};
    use super::*;
    use crate::object::Reply;

    fn t(i: u64) -> Ticket {
        Ticket(i)
    }

    #[test]
    fn barrier_parks_then_releases_all() {
        let args = simcore::codec::to_bytes(&3u32).expect("encode");
        let mut b = CyclicBarrier::factory(&args).expect("factory");
        let fx1 = call_fx_ticket(b.as_mut(), "await", &(), t(1));
        assert!(matches!(fx1.reply, Reply::Park));
        let fx2 = call_fx_ticket(b.as_mut(), "await", &(), t(2));
        assert!(matches!(fx2.reply, Reply::Park));
        assert_eq!(call::<u32>(b.as_mut(), "getNumberWaiting", &()), 2);
        let fx3 = call_fx_ticket(b.as_mut(), "await", &(), t(3));
        match fx3.reply {
            Reply::Value(v) => assert_eq!(wake_value::<u64>(&v), 0),
            Reply::Park => panic!("last arrival must not park"),
        }
        assert_eq!(fx3.wakes.len(), 2);
        for (_, v) in &fx3.wakes {
            assert_eq!(wake_value::<u64>(v), 0);
        }
        // Reusable: next generation.
        let fx4 = call_fx_ticket(b.as_mut(), "await", &(), t(4));
        assert!(matches!(fx4.reply, Reply::Park));
        assert_eq!(call::<u32>(b.as_mut(), "getNumberWaiting", &()), 1);
    }

    #[test]
    fn barrier_zero_parties_rejected() {
        let mut b = CyclicBarrier::default();
        let cc = CallCtx { ticket: t(0), replicated: false };
        let args = simcore::codec::to_bytes(&()).expect("encode");
        assert!(b.invoke(&cc, "await", &args).is_err());
    }

    #[test]
    fn semaphore_fifo_and_permits() {
        let args = simcore::codec::to_bytes(&2i64).expect("encode");
        let mut s = Semaphore::factory(&args).expect("factory");
        let fx = call_fx_ticket(s.as_mut(), "acquire", &1i64, t(1));
        assert!(matches!(fx.reply, Reply::Value(_)));
        assert_eq!(call::<i64>(s.as_mut(), "availablePermits", &()), 1);
        // Wants 2, only 1 left: parks.
        let fx = call_fx_ticket(s.as_mut(), "acquire", &2i64, t(2));
        assert!(matches!(fx.reply, Reply::Park));
        // FIFO: a later small request must not jump the queue.
        let fx = call_fx_ticket(s.as_mut(), "acquire", &1i64, t(3));
        assert!(matches!(fx.reply, Reply::Park));
        assert!(!call::<bool>(s.as_mut(), "tryAcquire", &1i64));
        // Release 1: t2 (needs 2) gets both, t3 still waits.
        let fx = call_fx_ticket(s.as_mut(), "release", &1i64, t(4));
        assert_eq!(fx.wakes.len(), 1);
        assert_eq!(fx.wakes[0].0, t(2));
        assert_eq!(call::<i64>(s.as_mut(), "availablePermits", &()), 0);
        // Release 1 more: t3 proceeds.
        let fx = call_fx_ticket(s.as_mut(), "release", &1i64, t(5));
        assert_eq!(fx.wakes.len(), 1);
        assert_eq!(fx.wakes[0].0, t(3));
    }

    #[test]
    fn latch_counts_down_and_releases() {
        let args = simcore::codec::to_bytes(&2u64).expect("encode");
        let mut l = CountDownLatch::factory(&args).expect("factory");
        let fx = call_fx_ticket(l.as_mut(), "await", &(), t(1));
        assert!(matches!(fx.reply, Reply::Park));
        let fx = call_fx_ticket(l.as_mut(), "countDown", &(), t(2));
        assert!(fx.wakes.is_empty());
        let fx = call_fx_ticket(l.as_mut(), "countDown", &(), t(3));
        assert_eq!(fx.wakes.len(), 1);
        // Await after release returns immediately.
        let fx = call_fx_ticket(l.as_mut(), "await", &(), t(4));
        assert!(matches!(fx.reply, Reply::Value(_)));
    }

    #[test]
    fn future_set_wakes_getters_with_value() {
        let mut f = FutureObject::default();
        assert!(!call::<bool>(&mut f, "isDone", &()));
        let fx = call_fx_ticket(&mut f, "get", &(), t(1));
        assert!(matches!(fx.reply, Reply::Park));
        let payload = simcore::codec::to_bytes(&1234u32).expect("encode");
        let fx = call_fx_ticket(&mut f, "set", &payload, t(2));
        match fx.reply {
            Reply::Value(v) => assert!(wake_value::<bool>(&v)),
            Reply::Park => panic!("set must not park"),
        }
        assert_eq!(fx.wakes.len(), 1);
        assert_eq!(wake_value::<u32>(&fx.wakes[0].1), 1234);
        // Second set is rejected; get returns immediately.
        let fx = call_fx_ticket(&mut f, "set", &payload, t(3));
        match fx.reply {
            Reply::Value(v) => assert!(!wake_value::<bool>(&v)),
            Reply::Park => panic!("set must not park"),
        }
        let fx = call_fx_ticket(&mut f, "get", &(), t(4));
        match fx.reply {
            Reply::Value(v) => assert_eq!(wake_value::<u32>(&v), 1234),
            Reply::Park => panic!("get after set must not park"),
        }
    }

    #[test]
    fn restore_clears_waiters() {
        let args = simcore::codec::to_bytes(&3u32).expect("encode");
        let mut b = CyclicBarrier::factory(&args).expect("factory");
        let _ = call_fx_ticket(b.as_mut(), "await", &(), t(1));
        let state = b.save();
        let mut b2 = CyclicBarrier::default();
        b2.restore(&state).expect("restore");
        assert_eq!(call::<u32>(&mut b2, "getParties", &()), 3);
        assert_eq!(call::<u32>(&mut b2, "getNumberWaiting", &()), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::object::Reply;
    use proptest::prelude::*;

    // Replays a random acquire/release schedule against the semaphore and
    // checks the safety invariants: the permit ledger always balances,
    // waiters are served FIFO, and a parked head never fits in the
    // available permits.
    proptest! {
        #[test]
        fn semaphore_never_overcommits(
            initial in 0i64..5,
            script in proptest::collection::vec((0u8..2, 1i64..4), 1..40),
        ) {
            let args = simcore::codec::to_bytes(&initial).expect("encode");
            let mut sem = Semaphore::factory(&args).expect("factory");
            let mut outstanding = 0i64; // permits currently held
            let mut released = 0i64; // permits released so far
            let mut parked: Vec<(Ticket, i64)> = Vec::new();
            let cc = |t: u64| CallCtx { ticket: Ticket(t), replicated: false };
            for (t, (op, n)) in (1u64..).zip(script) {
                if op == 0 {
                    // acquire(n)
                    let a = simcore::codec::to_bytes(&n).expect("encode");
                    let fx = sem.invoke(&cc(t), "acquire", &a).expect("invoke");
                    match fx.reply {
                        Reply::Value(_) => outstanding += n,
                        Reply::Park => parked.push((Ticket(t), n)),
                    }
                    prop_assert!(fx.wakes.is_empty(), "acquire never wakes others");
                } else {
                    // release(n)
                    let a = simcore::codec::to_bytes(&n).expect("encode");
                    let fx = sem.invoke(&cc(t), "release", &a).expect("invoke");
                    released += n;
                    for (woken, _) in &fx.wakes {
                        let pos = parked.iter().position(|(pt, _)| pt == woken)
                            .expect("woken ticket was parked");
                        // FIFO: only the head can be woken.
                        prop_assert_eq!(pos, 0, "semaphore must wake FIFO");
                        let (_, need) = parked.remove(0);
                        outstanding += need;
                    }
                }
                // Ledger invariant: held permits never exceed initial + released.
                let fx = sem.read("availablePermits", &[]).expect("a read").expect("read ok");
                if let Reply::Value(v) = fx.reply {
                    let avail: i64 = simcore::codec::from_bytes(&v).expect("decode");
                    // Ledger: available = initial + released - outstanding
                    // (treating releases as permit donations, as the
                    // semaphore does).
                    prop_assert_eq!(
                        avail,
                        initial + released - outstanding,
                        "permit ledger out of balance"
                    );
                    // A parked head must never fit in the available permits.
                    if let Some((_, need)) = parked.first() {
                        prop_assert!(avail < *need, "parked head must not fit: avail={avail} need={need}");
                    }
                }
            }
        }

        #[test]
        fn latch_releases_exactly_once_all_waiters(
            count in 1u64..6,
            waiters in 1u64..8,
        ) {
            let args = simcore::codec::to_bytes(&count).expect("encode");
            let mut latch = CountDownLatch::factory(&args).expect("factory");
            let cc = |t: u64| CallCtx { ticket: Ticket(t), replicated: false };
            let unit = simcore::codec::to_bytes(&()).expect("encode");
            for w in 0..waiters {
                let fx = latch.invoke(&cc(100 + w), "await", &unit).expect("invoke");
                prop_assert!(matches!(fx.reply, Reply::Park));
            }
            let mut woken = 0;
            for i in 0..count {
                let fx = latch.invoke(&cc(i), "countDown", &unit).expect("invoke");
                woken += fx.wakes.len();
                if i + 1 < count {
                    prop_assert_eq!(fx.wakes.len(), 0, "early release");
                }
            }
            prop_assert_eq!(woken as u64, waiters, "every waiter released exactly once");
            // Late await returns immediately.
            let fx = latch.invoke(&cc(999), "await", &unit).expect("invoke");
            prop_assert!(matches!(fx.reply, Reply::Value(_)));
        }
    }
}
