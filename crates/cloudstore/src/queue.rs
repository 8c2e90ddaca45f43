//! SQS-like polling queues and an SNS-like notification topic service.
//!
//! These are the "standard AWS toolkit" baselines of §6.3: coordination
//! built on them pays tens of milliseconds per hop *and* needs active
//! polling, which is exactly what Fig. 6 and Fig. 7a hold against them.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use simcore::{Addr, Ctx, LatencyModel, Msg, Request, Sim};

/// Latency profile of the queue/notification services.
#[derive(Clone, Debug, simcore::codec::Wire)]
pub struct QueueConfig {
    /// One-way latency of an SQS API call (send/receive leg).
    pub sqs_half: LatencyModel,
    /// Extra delivery delay from an SNS publish to the subscribed queues.
    pub sns_fanout: LatencyModel,
    /// Time before a sent message becomes receivable: SQS delivery is
    /// eventually consistent across its storage hosts, so fresh messages
    /// routinely miss the next few `Receive` calls (the "significant
    /// latency, sometimes hundreds of milliseconds" of §1).
    pub delivery_delay: LatencyModel,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            // SQS round trip ≈ 2*9ms*(1+0.4 tail) ≈ 15–40 ms.
            sqs_half: LatencyModel::exp_tail(Duration::from_millis(9), 0.4),
            // SNS→SQS propagation: tens of ms with a long tail.
            sns_fanout: LatencyModel::exp_tail(Duration::from_millis(40), 0.8),
            delivery_delay: LatencyModel::exp_tail(Duration::from_millis(300), 1.0),
        }
    }
}

#[derive(Debug)]
enum SqsReq {
    Send { queue: String, body: Vec<u8> },
    Receive { queue: String, max: usize },
    Purge { queue: String },
}

#[derive(Debug)]
enum SqsResp {
    Ok,
    Messages(Vec<Vec<u8>>),
}

/// Internal message used by the SNS service to enqueue into SQS without a
/// reply (fire-and-forget fan-out).
#[derive(Debug)]
struct FanoutDeliver {
    queue: String,
    body: Vec<u8>,
}

/// Spawns the SQS-like service.
pub fn spawn_sqs(sim: &Sim, cfg: QueueConfig) -> SqsHandle {
    let inbox = sim.mailbox("sqs");
    let service_cfg = cfg.clone();
    sim.spawn_daemon("sqs", move |ctx| sqs_loop(ctx, inbox, service_cfg));
    SqsHandle { addr: inbox, cfg }
}

/// Cheap, `Send` handle to the SQS-like service; serializable so it can
/// ship inside a cloud-function payload.
#[derive(Clone, Debug, simcore::codec::Wire)]
pub struct SqsHandle {
    addr: Addr,
    cfg: QueueConfig,
}

impl SqsHandle {
    /// Enqueues a message.
    pub fn send(&self, ctx: &mut Ctx, queue: &str, body: Vec<u8>) {
        let lat = self.cfg.sqs_half.sample(ctx.rng());
        match ctx.call::<SqsReq, SqsResp>(
            self.addr,
            SqsReq::Send { queue: queue.to_string(), body },
            lat,
        ) {
            SqsResp::Ok => {}
            other => panic!("protocol: SEND must return Ok, got {other:?}"),
        }
    }

    /// Polls up to `max` messages; may return an empty batch (short poll).
    pub fn receive(&self, ctx: &mut Ctx, queue: &str, max: usize) -> Vec<Vec<u8>> {
        let lat = self.cfg.sqs_half.sample(ctx.rng());
        match ctx.call::<SqsReq, SqsResp>(
            self.addr,
            SqsReq::Receive { queue: queue.to_string(), max },
            lat,
        ) {
            SqsResp::Messages(m) => m,
            other => panic!("protocol: RECEIVE must return Messages, got {other:?}"),
        }
    }

    /// Drops all messages in a queue.
    pub fn purge(&self, ctx: &mut Ctx, queue: &str) {
        let lat = self.cfg.sqs_half.sample(ctx.rng());
        match ctx.call::<SqsReq, SqsResp>(
            self.addr,
            SqsReq::Purge { queue: queue.to_string() },
            lat,
        ) {
            SqsResp::Ok => {}
            other => panic!("protocol: PURGE must return Ok, got {other:?}"),
        }
    }
}

fn sqs_loop(ctx: &mut Ctx, inbox: Addr, cfg: QueueConfig) {
    // (visible_at, body) per queue; messages are receivable only once
    // their delivery delay has elapsed.
    let mut queues: HashMap<String, VecDeque<(simcore::SimTime, Vec<u8>)>> = HashMap::new();
    loop {
        let msg = ctx.recv(inbox);
        // Fan-out deliveries from SNS arrive as plain messages, already
        // delayed by the fan-out latency.
        let msg = match msg.try_take::<FanoutDeliver>() {
            Ok(f) => {
                let at = ctx.now();
                queues.entry(f.queue).or_default().push_back((at, f.body));
                continue;
            }
            Err(m) => m,
        };
        let (reply_to, req) = msg.take::<Request>().take::<SqsReq>();
        let resp = match req {
            SqsReq::Send { queue, body } => {
                let visible_at = ctx.now() + cfg.delivery_delay.sample(ctx.rng());
                queues.entry(queue).or_default().push_back((visible_at, body));
                SqsResp::Ok
            }
            SqsReq::Receive { queue, max } => {
                let now = ctx.now();
                let q = queues.entry(queue).or_default();
                let mut out = Vec::new();
                let mut i = 0;
                while i < q.len() && out.len() < max {
                    if q[i].0 <= now {
                        let (_, body) = q.remove(i).expect("index in range");
                        out.push(body);
                    } else {
                        i += 1;
                    }
                }
                SqsResp::Messages(out)
            }
            SqsReq::Purge { queue } => {
                queues.remove(&queue);
                SqsResp::Ok
            }
        };
        let lat = cfg.sqs_half.sample(ctx.rng());
        ctx.reply(reply_to, resp, lat);
    }
}

// ---------------------------------------------------------------------------
// SNS
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum SnsReq {
    Subscribe { topic: String, queue: String },
    Publish { topic: String, body: Vec<u8> },
}

#[derive(Debug)]
struct SnsAck;

/// Spawns the SNS-like topic service, delivering into the given SQS.
pub fn spawn_sns(sim: &Sim, cfg: QueueConfig, sqs: &SqsHandle) -> SnsHandle {
    let inbox = sim.mailbox("sns");
    let sqs_addr = sqs.addr;
    let service_cfg = cfg.clone();
    sim.spawn_daemon("sns", move |ctx| sns_loop(ctx, inbox, sqs_addr, service_cfg));
    SnsHandle { addr: inbox, cfg }
}

/// Cheap, `Send` handle to the SNS-like service.
#[derive(Clone, Debug)]
pub struct SnsHandle {
    addr: Addr,
    cfg: QueueConfig,
}

impl SnsHandle {
    /// Subscribes an SQS queue to a topic.
    pub fn subscribe(&self, ctx: &mut Ctx, topic: &str, queue: &str) {
        let lat = self.cfg.sqs_half.sample(ctx.rng());
        let SnsAck = ctx.call(
            self.addr,
            SnsReq::Subscribe { topic: topic.to_string(), queue: queue.to_string() },
            lat,
        );
    }

    /// Publishes to a topic; the message fans out to subscribed queues.
    pub fn publish(&self, ctx: &mut Ctx, topic: &str, body: Vec<u8>) {
        let lat = self.cfg.sqs_half.sample(ctx.rng());
        let SnsAck = ctx.call(self.addr, SnsReq::Publish { topic: topic.to_string(), body }, lat);
    }
}

fn sns_loop(ctx: &mut Ctx, inbox: Addr, sqs: Addr, cfg: QueueConfig) {
    let mut subs: HashMap<String, Vec<String>> = HashMap::new();
    loop {
        let (reply_to, req) = ctx.recv(inbox).take::<Request>().take::<SnsReq>();
        match req {
            SnsReq::Subscribe { topic, queue } => {
                let entry = subs.entry(topic).or_default();
                if !entry.contains(&queue) {
                    entry.push(queue);
                }
            }
            SnsReq::Publish { topic, body } => {
                for q in subs.get(&topic).into_iter().flatten() {
                    let lat = cfg.sns_fanout.sample(ctx.rng());
                    ctx.send(
                        sqs,
                        Msg::new(FanoutDeliver { queue: q.clone(), body: body.clone() }),
                        lat,
                    );
                }
            }
        }
        let lat = cfg.sqs_half.sample(ctx.rng());
        ctx.reply(reply_to, SnsAck, lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simcore::SimTime;
    use std::sync::Arc;

    fn fast_cfg() -> QueueConfig {
        QueueConfig {
            sqs_half: LatencyModel::fixed(Duration::from_millis(5)),
            sns_fanout: LatencyModel::fixed(Duration::from_millis(20)),
            delivery_delay: LatencyModel::fixed(Duration::ZERO),
        }
    }

    #[test]
    fn send_receive_fifo() {
        let mut sim = Sim::new(1);
        let sqs = spawn_sqs(&sim, fast_cfg());
        sim.spawn("app", move |ctx| {
            assert!(sqs.receive(ctx, "q", 10).is_empty());
            sqs.send(ctx, "q", vec![1]);
            sqs.send(ctx, "q", vec![2]);
            sqs.send(ctx, "q", vec![3]);
            assert_eq!(sqs.receive(ctx, "q", 2), vec![vec![1], vec![2]]);
            assert_eq!(sqs.receive(ctx, "q", 2), vec![vec![3]]);
            sqs.send(ctx, "q", vec![4]);
            sqs.purge(ctx, "q");
            assert!(sqs.receive(ctx, "q", 10).is_empty());
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn polling_pays_latency_per_attempt() {
        let mut sim = Sim::new(2);
        let sqs = spawn_sqs(&sim, fast_cfg());
        sim.spawn("poller", move |ctx| {
            for _ in 0..10 {
                assert!(sqs.receive(ctx, "empty", 1).is_empty());
            }
            // Each empty receive costs a full 10 ms round trip.
            assert_eq!(ctx.now(), SimTime::from_millis(100));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn sns_fans_out_to_subscribed_queues() {
        let mut sim = Sim::new(3);
        let sqs = spawn_sqs(&sim, fast_cfg());
        let sns = spawn_sns(&sim, fast_cfg(), &sqs);
        let got = Arc::new(Mutex::new(Vec::<String>::new()));
        {
            let (sqs, sns, got) = (sqs.clone(), sns.clone(), got.clone());
            sim.spawn("app", move |ctx| {
                sns.subscribe(ctx, "t", "qa");
                sns.subscribe(ctx, "t", "qb");
                sns.subscribe(ctx, "t", "qa"); // duplicate ignored
                sns.publish(ctx, "t", b"hello".to_vec());
                ctx.sleep(Duration::from_millis(100));
                for q in ["qa", "qb"] {
                    let msgs = sqs.receive(ctx, q, 10);
                    assert_eq!(msgs.len(), 1, "queue {q}");
                    got.lock().push(q.to_string());
                }
            });
        }
        sim.run_until_idle().expect_quiescent();
        assert_eq!(got.lock().len(), 2);
    }

    #[test]
    fn default_latencies_are_tens_of_ms() {
        let mut sim = Sim::new(4);
        let sqs = spawn_sqs(&sim, QueueConfig::default());
        let avg = Arc::new(Mutex::new(Duration::ZERO));
        let avg2 = avg.clone();
        sim.spawn("probe", move |ctx| {
            const N: u32 = 100;
            let t0 = ctx.now();
            for _ in 0..N {
                sqs.send(ctx, "q", vec![0]);
            }
            *avg2.lock() = (ctx.now() - t0) / N;
        });
        sim.run_until_idle().expect_quiescent();
        let a = *avg.lock();
        assert!(a > Duration::from_millis(18) && a < Duration::from_millis(40), "{a:?}");
    }
}
