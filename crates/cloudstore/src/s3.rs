//! An S3-like disaggregated object store.
//!
//! Calibrated against Table 2 of the paper: ~35 ms PUT and ~23 ms GET for
//! 1 KB payloads, with a long latency tail (Fig. 6's "high variability")
//! and optional read-after-write visibility delay (S3 was eventually
//! consistent for overwrites and LISTs in 2019).
//!
//! The service itself is infinitely parallel — the latency lives in the
//! request path, not in a server queue — which matches how S3 behaves for
//! the request rates of the paper's experiments.

use std::collections::BTreeMap;
use std::time::Duration;

use simcore::{Addr, Ctx, LatencyModel, Request, Sim, SimTime};

/// Latency/consistency profile of the store.
#[derive(Clone, Debug)]
pub struct S3Config {
    /// One-way request latency (half of the service time; applied on both
    /// legs of each call).
    pub half_put: LatencyModel,
    /// One-way latency for GETs.
    pub half_get: LatencyModel,
    /// One-way latency for LISTs.
    pub half_list: LatencyModel,
    /// Delay before a newly PUT object becomes visible to GET/LIST
    /// (eventual consistency window); zero disables it.
    pub visibility_delay: LatencyModel,
}

impl Default for S3Config {
    fn default() -> Self {
        // base*(1+tail) means: PUT ≈ 15.5ms*(1+0.12)*2 ≈ 34.8ms average,
        // GET ≈ 10.3ms*(1+0.12)*2 ≈ 23.0ms average (Table 2).
        S3Config {
            half_put: LatencyModel::exp_tail(Duration::from_micros(15_500), 0.12),
            half_get: LatencyModel::exp_tail(Duration::from_micros(10_300), 0.12),
            half_list: LatencyModel::exp_tail(Duration::from_micros(11_000), 0.25),
            visibility_delay: LatencyModel::exp_tail(Duration::from_millis(20), 1.0),
        }
    }
}

#[derive(Debug)]
enum S3Req {
    Put { key: String, value: Vec<u8> },
    Get { key: String },
    Delete { key: String },
    DeleteMany { keys: Vec<String> },
    List { prefix: String },
}

#[derive(Debug)]
enum S3Resp {
    Ok,
    Value(Option<Vec<u8>>),
    Keys(Vec<String>),
}

/// Spawns the store; returns a client factory handle.
pub fn spawn_s3(sim: &Sim, cfg: S3Config) -> S3Handle {
    let inbox = sim.mailbox("s3");
    let service_cfg = cfg.clone();
    sim.spawn_daemon("s3", move |ctx| {
        s3_loop(ctx, inbox, service_cfg);
    });
    S3Handle { addr: inbox, cfg }
}

/// Cheap, `Send` handle to the store.
#[derive(Clone, Debug)]
pub struct S3Handle {
    addr: Addr,
    cfg: S3Config,
}

impl S3Handle {
    /// Stores an object (ignores any previous value).
    pub fn put(&self, ctx: &mut Ctx, key: &str, value: Vec<u8>) {
        let lat = self.cfg.half_put.sample(ctx.rng());
        let S3Resp::Ok =
            ctx.call::<S3Req, S3Resp>(self.addr, S3Req::Put { key: key.to_string(), value }, lat)
        else {
            panic!("protocol: PUT must return Ok");
        };
    }

    /// Fetches an object; `None` if absent (or not yet visible).
    pub fn get(&self, ctx: &mut Ctx, key: &str) -> Option<Vec<u8>> {
        let lat = self.cfg.half_get.sample(ctx.rng());
        match ctx.call::<S3Req, S3Resp>(self.addr, S3Req::Get { key: key.to_string() }, lat) {
            S3Resp::Value(v) => v,
            other => panic!("protocol: GET must return Value, got {other:?}"),
        }
    }

    /// Deletes an object (idempotent).
    pub fn delete(&self, ctx: &mut Ctx, key: &str) {
        let lat = self.cfg.half_put.sample(ctx.rng());
        let S3Resp::Ok =
            ctx.call::<S3Req, S3Resp>(self.addr, S3Req::Delete { key: key.to_string() }, lat)
        else {
            panic!("protocol: DELETE must return Ok");
        };
    }

    /// Deletes a batch of objects in one request (the `DeleteObjects`
    /// API): one round trip regardless of the batch size, which is what
    /// keeps log garbage collection from scaling per-key. Idempotent;
    /// no-op on an empty batch.
    pub fn delete_many(&self, ctx: &mut Ctx, keys: Vec<String>) {
        if keys.is_empty() {
            return;
        }
        let lat = self.cfg.half_put.sample(ctx.rng());
        let S3Resp::Ok = ctx.call::<S3Req, S3Resp>(self.addr, S3Req::DeleteMany { keys }, lat)
        else {
            panic!("protocol: DELETE must return Ok");
        };
    }

    /// Lists visible keys with the given prefix, sorted.
    pub fn list(&self, ctx: &mut Ctx, prefix: &str) -> Vec<String> {
        let lat = self.cfg.half_list.sample(ctx.rng());
        match ctx.call::<S3Req, S3Resp>(self.addr, S3Req::List { prefix: prefix.to_string() }, lat)
        {
            S3Resp::Keys(k) => k,
            other => panic!("protocol: LIST must return Keys, got {other:?}"),
        }
    }
}

fn s3_loop(ctx: &mut Ctx, inbox: Addr, cfg: S3Config) {
    let mut store: BTreeMap<String, (Vec<u8>, SimTime)> = BTreeMap::new();
    loop {
        let (reply_to, req) = ctx.recv(inbox).take::<Request>().take::<S3Req>();
        let now = ctx.now();
        let (resp, half) = match req {
            S3Req::Put { key, value } => {
                let visible_at = now + cfg.visibility_delay.sample(ctx.rng());
                store.insert(key, (value, visible_at));
                (S3Resp::Ok, &cfg.half_put)
            }
            S3Req::Get { key } => {
                let v = store.get(&key).filter(|(_, vis)| *vis <= now).map(|(v, _)| v.clone());
                (S3Resp::Value(v), &cfg.half_get)
            }
            S3Req::Delete { key } => {
                store.remove(&key);
                (S3Resp::Ok, &cfg.half_put)
            }
            S3Req::DeleteMany { keys } => {
                for key in keys {
                    store.remove(&key);
                }
                (S3Resp::Ok, &cfg.half_put)
            }
            S3Req::List { prefix } => {
                let keys = store
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .filter(|(_, (_, vis))| *vis <= now)
                    .map(|(k, _)| k.clone())
                    .collect();
                (S3Resp::Keys(keys), &cfg.half_list)
            }
        };
        let lat = half.sample(ctx.rng());
        ctx.reply(reply_to, resp, lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn immediate_cfg() -> S3Config {
        S3Config { visibility_delay: LatencyModel::fixed(Duration::ZERO), ..S3Config::default() }
    }

    #[test]
    fn put_get_delete_list() {
        let mut sim = Sim::new(1);
        let s3 = spawn_s3(&sim, immediate_cfg());
        sim.spawn("app", move |ctx| {
            assert_eq!(s3.get(ctx, "a/1"), None);
            s3.put(ctx, "a/1", vec![1]);
            s3.put(ctx, "a/2", vec![2]);
            s3.put(ctx, "b/1", vec![3]);
            assert_eq!(s3.get(ctx, "a/1"), Some(vec![1]));
            assert_eq!(s3.list(ctx, "a/"), vec!["a/1".to_string(), "a/2".to_string()]);
            s3.delete(ctx, "a/1");
            assert_eq!(s3.get(ctx, "a/1"), None);
            assert_eq!(s3.list(ctx, "a/"), vec!["a/2".to_string()]);
            // Batched delete: one round trip clears the rest.
            let t0 = ctx.now();
            s3.delete_many(ctx, vec!["a/2".to_string(), "b/1".to_string()]);
            assert!(ctx.now() - t0 < Duration::from_millis(100), "one request, not per-key");
            assert!(s3.list(ctx, "").is_empty());
            s3.delete_many(ctx, Vec::new()); // empty batch is a free no-op
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn latency_matches_table2_magnitudes() {
        let mut sim = Sim::new(2);
        let s3 = spawn_s3(&sim, S3Config::default());
        let stats = Arc::new(Mutex::new((Duration::ZERO, Duration::ZERO)));
        let stats2 = stats.clone();
        sim.spawn("probe", move |ctx| {
            let payload = vec![0u8; 1024];
            const N: u32 = 300;
            let t0 = ctx.now();
            for i in 0..N {
                s3.put(ctx, &format!("k{i}"), payload.clone());
            }
            let put_avg = (ctx.now() - t0) / N;
            let t0 = ctx.now();
            for i in 0..N {
                let _ = s3.get(ctx, &format!("k{i}"));
            }
            let get_avg = (ctx.now() - t0) / N;
            *stats2.lock() = (put_avg, get_avg);
        });
        sim.run_until_idle().expect_quiescent();
        let (put, get) = *stats.lock();
        // Paper: 34.9 ms / 23.1 ms. Allow generous tolerance.
        assert!(put > Duration::from_millis(28) && put < Duration::from_millis(42), "put {put:?}");
        assert!(get > Duration::from_millis(18) && get < Duration::from_millis(29), "get {get:?}");
    }

    #[test]
    fn eventual_consistency_window_hides_fresh_puts() {
        let mut sim = Sim::new(3);
        let cfg = S3Config {
            visibility_delay: LatencyModel::fixed(Duration::from_secs(1)),
            ..S3Config::default()
        };
        let s3 = spawn_s3(&sim, cfg);
        sim.spawn("app", move |ctx| {
            s3.put(ctx, "fresh", vec![1]);
            // Right after the PUT completes the object is still invisible.
            assert_eq!(s3.get(ctx, "fresh"), None);
            assert!(s3.list(ctx, "").is_empty());
            ctx.sleep(Duration::from_secs(2));
            assert_eq!(s3.get(ctx, "fresh"), Some(vec![1]));
            assert_eq!(s3.list(ctx, ""), vec!["fresh".to_string()]);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn concurrent_clients_do_not_queue() {
        // 50 parallel GETs should take about one GET latency, not 50.
        let mut sim = Sim::new(4);
        let s3 = spawn_s3(&sim, immediate_cfg());
        let end = Arc::new(Mutex::new(SimTime::ZERO));
        for i in 0..50 {
            let s3 = s3.clone();
            let end = end.clone();
            sim.spawn(&format!("c{i}"), move |ctx| {
                let _ = s3.get(ctx, "missing");
                let mut e = end.lock();
                if ctx.now() > *e {
                    *e = ctx.now();
                }
            });
        }
        sim.run_until_idle().expect_quiescent();
        assert!(*end.lock() < SimTime::from_millis(100), "S3 must not serialize requests");
    }
}
