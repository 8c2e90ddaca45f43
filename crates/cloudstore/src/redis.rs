//! A Redis-like in-memory store: sharded, **single-threaded per shard**,
//! with registered server-side scripts (the stand-in for Lua).
//!
//! Two properties matter for the paper's comparisons (Fig. 2a, Fig. 5):
//!
//! * its optimized C core makes *simple* operations cheaper than the
//!   JVM-based DSO servers (Redis wins the simple-op throughput race by
//!   ~50 %), and
//! * each shard executes commands **serially**, so CPU-heavy scripts
//!   queue behind each other — no disjoint-access parallelism — which is
//!   why Crucial wins the complex-op race ~5×.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use simcore::{Addr, Ctx, LatencyModel, Request, Sim, WaitKind};

/// A server-side script: `(current value, args) -> (reply, new value)`.
/// The returned [`Duration`] is the CPU time the script burns on the
/// single-threaded shard.
pub type RedisScript =
    Arc<dyn Fn(Option<Vec<u8>>, &[u8]) -> (Vec<u8>, Option<Vec<u8>>, Duration) + Send + Sync>;

/// Registry of scripts, loaded into every shard (like `SCRIPT LOAD`).
#[derive(Clone, Default)]
pub struct ScriptRegistry {
    scripts: HashMap<String, RedisScript>,
}

impl std::fmt::Debug for ScriptRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.scripts.keys().collect();
        names.sort();
        f.debug_struct("ScriptRegistry").field("scripts", &names).finish()
    }
}

impl ScriptRegistry {
    /// Creates an empty registry.
    pub fn new() -> ScriptRegistry {
        ScriptRegistry::default()
    }

    /// Registers a script under `name`.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(Option<Vec<u8>>, &[u8]) -> (Vec<u8>, Option<Vec<u8>>, Duration)
            + Send
            + Sync
            + 'static,
    {
        self.scripts.insert(name.to_string(), Arc::new(f));
    }
}

/// Cost/latency profile, calibrated against Table 2 and Fig. 2a.
#[derive(Clone, Debug, simcore::codec::Wire)]
pub struct RedisConfig {
    /// One-way client↔shard latency.
    pub net: LatencyModel,
    /// CPU cost of a small GET/SET/EVAL dispatch on the shard.
    pub base_op_cost: Duration,
    /// Marginal CPU cost per payload byte (protocol + copy).
    pub per_byte_cost: Duration,
}

impl Default for RedisConfig {
    fn default() -> Self {
        RedisConfig {
            net: LatencyModel::uniform(Duration::from_micros(65), 0.10),
            base_op_cost: Duration::from_micros(3),
            // 1 KB payload ≈ 95 µs of shard CPU: GET(1KB) ≈ 65+98+65 ≈
            // 230 µs end-to-end, Table 2's Redis row.
            per_byte_cost: Duration::from_nanos(93),
        }
    }
}

#[derive(Debug)]
enum RedisReq {
    Get { key: String },
    Set { key: String, value: Vec<u8> },
    Eval { script: String, key: String, args: Vec<u8> },
}

#[derive(Debug)]
enum RedisResp {
    Value(Option<Vec<u8>>),
    Ok,
    ScriptReply(Vec<u8>),
    NoScript(String),
}

/// A running Redis-like deployment (one process per shard). Serializable
/// so it can ship inside a cloud-function payload.
#[derive(Clone, Debug, simcore::codec::Wire)]
pub struct RedisHandle {
    shards: Vec<Addr>,
    cfg: RedisConfig,
}

/// Spawns `shards` single-threaded shard processes.
pub fn spawn_redis(
    sim: &Sim,
    shards: u32,
    cfg: RedisConfig,
    scripts: ScriptRegistry,
) -> RedisHandle {
    assert!(shards >= 1, "need at least one shard");
    let mut addrs = Vec::new();
    for s in 0..shards {
        let inbox = sim.mailbox(&format!("redis-{s}"));
        addrs.push(inbox);
        let cfg = cfg.clone();
        let scripts = scripts.clone();
        sim.spawn_daemon(&format!("redis-{s}"), move |ctx| {
            shard_loop(ctx, inbox, cfg, scripts);
        });
    }
    RedisHandle { shards: addrs, cfg }
}

impl RedisHandle {
    fn shard_of(&self, key: &str) -> Addr {
        let h = fnv(key);
        self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Tells the deadlock detector this process is about to block on a
    /// shard daemon.
    fn annotate(&self, ctx: &mut Ctx, shard: Addr, op: &str) {
        ctx.annotate_wait(shard.into_raw(), WaitKind::Call, "redis", format!("RedisHandle::{op}"));
    }

    /// Reads a key.
    pub fn get(&self, ctx: &mut Ctx, key: &str) -> Option<Vec<u8>> {
        let lat = self.cfg.net.sample(ctx.rng());
        self.annotate(ctx, self.shard_of(key), "get");
        match ctx.call::<RedisReq, RedisResp>(
            self.shard_of(key),
            RedisReq::Get { key: key.to_string() },
            lat,
        ) {
            RedisResp::Value(v) => v,
            other => panic!("protocol: GET must return Value, got {other:?}"),
        }
    }

    /// Writes a key.
    pub fn set(&self, ctx: &mut Ctx, key: &str, value: Vec<u8>) {
        let lat = self.cfg.net.sample(ctx.rng());
        self.annotate(ctx, self.shard_of(key), "set");
        match ctx.call::<RedisReq, RedisResp>(
            self.shard_of(key),
            RedisReq::Set { key: key.to_string(), value },
            lat,
        ) {
            RedisResp::Ok => {}
            other => panic!("protocol: SET must return Ok, got {other:?}"),
        }
    }

    /// Runs a registered script against a key.
    ///
    /// # Panics
    ///
    /// Panics if the script is not registered (a deployment error).
    pub fn eval(&self, ctx: &mut Ctx, script: &str, key: &str, args: Vec<u8>) -> Vec<u8> {
        let lat = self.cfg.net.sample(ctx.rng());
        self.annotate(ctx, self.shard_of(key), "eval");
        match ctx.call::<RedisReq, RedisResp>(
            self.shard_of(key),
            RedisReq::Eval { script: script.to_string(), key: key.to_string(), args },
            lat,
        ) {
            RedisResp::ScriptReply(v) => v,
            RedisResp::NoScript(s) => panic!("script {s} not loaded"),
            other => panic!("protocol: EVAL must return ScriptReply, got {other:?}"),
        }
    }
}

fn fnv(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Avalanche, for the same short-key reasons as the DSO ring.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

fn shard_loop(ctx: &mut Ctx, inbox: Addr, cfg: RedisConfig, scripts: ScriptRegistry) {
    let mut store: HashMap<String, Vec<u8>> = HashMap::new();
    loop {
        let (reply_to, req) = ctx.recv(inbox).take::<Request>().take::<RedisReq>();
        // Single-threaded: the shard is busy for the op's full CPU cost.
        let (resp, cost) = match req {
            RedisReq::Get { key } => {
                let v = store.get(&key).cloned();
                let bytes = v.as_ref().map_or(0, Vec::len);
                (RedisResp::Value(v), cfg.base_op_cost + cfg.per_byte_cost * bytes as u32)
            }
            RedisReq::Set { key, value } => {
                let cost = cfg.base_op_cost + cfg.per_byte_cost * value.len() as u32;
                store.insert(key, value);
                (RedisResp::Ok, cost)
            }
            RedisReq::Eval { script, key, args } => match scripts.scripts.get(&script) {
                Some(f) => {
                    let cur = store.remove(&key);
                    let (reply, new, script_cost) = f(cur, &args);
                    if let Some(n) = new {
                        store.insert(key, n);
                    }
                    (RedisResp::ScriptReply(reply), cfg.base_op_cost + script_cost)
                }
                None => (RedisResp::NoScript(script), cfg.base_op_cost),
            },
        };
        if !cost.is_zero() {
            ctx.compute(cost);
        }
        let lat = cfg.net.sample(ctx.rng());
        ctx.reply(reply_to, resp, lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simcore::SimTime;

    fn mul_scripts() -> ScriptRegistry {
        let mut reg = ScriptRegistry::new();
        // Simple: one multiplication on an f64 register.
        reg.register("mul", |cur, args| {
            let x: f64 = simcore::codec::from_bytes(args).expect("args");
            let v: f64 = cur.map(|b| simcore::codec::from_bytes(&b).expect("state")).unwrap_or(1.0);
            let out = v * x;
            (
                simcore::codec::to_bytes(&out).expect("encode"),
                Some(simcore::codec::to_bytes(&out).expect("encode")),
                Duration::from_micros(1),
            )
        });
        // Complex: n sequential multiplications at C speed (~35 ns each).
        reg.register("mul_n", |cur, args| {
            let (x, n): (f64, u32) = simcore::codec::from_bytes(args).expect("args");
            let v: f64 = cur.map(|b| simcore::codec::from_bytes(&b).expect("state")).unwrap_or(1.0);
            let mut out = v * x.powi(n.min(64) as i32);
            if !out.is_finite() || out == 0.0 {
                out = 1.0;
            }
            (
                simcore::codec::to_bytes(&out).expect("encode"),
                Some(simcore::codec::to_bytes(&out).expect("encode")),
                Duration::from_nanos(35) * n,
            )
        });
        reg
    }

    #[test]
    fn get_set_round_trip() {
        let mut sim = Sim::new(1);
        let redis = spawn_redis(&sim, 2, RedisConfig::default(), ScriptRegistry::new());
        sim.spawn("app", move |ctx| {
            assert_eq!(redis.get(ctx, "k"), None);
            redis.set(ctx, "k", vec![1, 2, 3]);
            assert_eq!(redis.get(ctx, "k"), Some(vec![1, 2, 3]));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn kv_latency_matches_table2() {
        let mut sim = Sim::new(2);
        let redis = spawn_redis(&sim, 2, RedisConfig::default(), ScriptRegistry::new());
        let out = std::sync::Arc::new(Mutex::new(Duration::ZERO));
        let out2 = out.clone();
        sim.spawn("probe", move |ctx| {
            let payload = vec![0u8; 1024];
            redis.set(ctx, "warm", payload.clone());
            const N: u32 = 200;
            let t0 = ctx.now();
            for _ in 0..N {
                let _ = redis.get(ctx, "warm");
            }
            *out2.lock() = (ctx.now() - t0) / N;
        });
        sim.run_until_idle().expect_quiescent();
        let get = *out.lock();
        // Paper Table 2: ~229 µs for 1 KB GET.
        assert!(
            get > Duration::from_micros(190) && get < Duration::from_micros(280),
            "redis 1KB GET latency {get:?}"
        );
    }

    #[test]
    fn scripts_execute_serially_per_shard() {
        // Two 10ms scripts on the same shard finish at ~10ms and ~20ms:
        // single-threaded execution, unlike the DSO worker pool.
        let mut sim = Sim::new(3);
        let mut reg = ScriptRegistry::new();
        reg.register("slow", |_cur, _args| (Vec::new(), None, Duration::from_millis(10)));
        let redis = spawn_redis(&sim, 1, RedisConfig::default(), reg);
        let ends = std::sync::Arc::new(Mutex::new(Vec::<SimTime>::new()));
        for i in 0..2 {
            let redis = redis.clone();
            let ends = ends.clone();
            sim.spawn(&format!("c{i}"), move |ctx| {
                let _ = redis.eval(ctx, "slow", "k", Vec::new());
                ends.lock().push(ctx.now());
            });
        }
        sim.run_until_idle().expect_quiescent();
        let ends = ends.lock();
        let (a, b) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
        assert!(a >= SimTime::from_millis(10) && a < SimTime::from_millis(12), "{a}");
        assert!(b >= SimTime::from_millis(20) && b < SimTime::from_millis(22), "{b}");
    }

    #[test]
    fn eval_scripts_update_state() {
        let mut sim = Sim::new(4);
        let redis = spawn_redis(&sim, 2, RedisConfig::default(), mul_scripts());
        sim.spawn("app", move |ctx| {
            let args = simcore::codec::to_bytes(&2.0f64).expect("encode");
            let r = redis.eval(ctx, "mul", "x", args.clone());
            assert_eq!(simcore::codec::from_bytes::<f64>(&r).expect("decode"), 2.0);
            let r = redis.eval(ctx, "mul", "x", args);
            assert_eq!(simcore::codec::from_bytes::<f64>(&r).expect("decode"), 4.0);
            let args = simcore::codec::to_bytes(&(1.0f64, 10u32)).expect("encode");
            let r = redis.eval(ctx, "mul_n", "x", args);
            assert_eq!(simcore::codec::from_bytes::<f64>(&r).expect("decode"), 4.0);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    #[should_panic(expected = "not loaded")]
    fn missing_script_panics_at_client() {
        let mut sim = Sim::new(5);
        let redis = spawn_redis(&sim, 1, RedisConfig::default(), ScriptRegistry::new());
        sim.spawn("app", move |ctx| {
            let _ = redis.eval(ctx, "nope", "k", Vec::new());
        });
        sim.run_until_idle();
    }

    #[test]
    fn keys_spread_across_shards() {
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[(fnv(&format!("key-{i}")) % 4) as usize] += 1;
        }
        for c in counts {
            assert!(c > 150, "shard imbalance: {counts:?}");
        }
    }
}
