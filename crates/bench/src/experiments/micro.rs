//! Micro-benchmarks: Table 2 (latency), Fig. 2a (throughput), Fig. 2b
//! (Monte Carlo scalability).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simcore::{MetricsRegistry, Sim};

use cloudstore::{spawn_redis, spawn_s3, RedisConfig, S3Config, ScriptRegistry};
use crucial_apps::pi::run_pi_crucial;
use dso::api::{Arithmetic as ArithmeticHandle, AtomicByteArray, RawHandle};
use dso::{
    costs, CallCtx, DsoCluster, DsoConfig, Effects, ObjectError, ObjectRegistry, SharedObject,
};

use super::Scale;
use crate::report::{fmt_dur, Table};

// ---------------------------------------------------------------------------
// Table 2 — latency
// ---------------------------------------------------------------------------

/// Raw key-value object modeling plain Infinispan (no Creson call-shipping
/// proxy stack): slightly cheaper per op than a Crucial shared object.
#[derive(Debug, Default, Clone, simcore::codec::Wire)]
pub struct RawKv {
    data: Vec<u8>,
}

impl RawKv {
    /// Registry type name.
    pub const TYPE: &'static str = "RawKv";

    /// Factory.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjectError> {
        let data = if args.is_empty() {
            Vec::new()
        } else {
            simcore::codec::from_bytes(args).map_err(|e| ObjectError::BadState(e.to_string()))?
        };
        Ok(Box::new(RawKv { data }))
    }

    fn kv_cost(&self, bytes: usize) -> Duration {
        // Infinispan's plain cache path, without the object-proxy layer.
        Duration::from_micros(22) + costs::PER_BYTE * bytes as u32
    }
}

impl SharedObject for RawKv {
    fn invoke(
        &mut self,
        _call: &CallCtx,
        method: &str,
        args: &[u8],
    ) -> Result<Effects, ObjectError> {
        match method {
            "get" => {
                let cost = self.kv_cost(self.data.len());
                Effects::value_with_cost(&self.data, cost)
            }
            "put" => {
                self.data = simcore::codec::from_bytes(args)
                    .map_err(|e| ObjectError::BadArgs(e.to_string()))?;
                let cost = self.kv_cost(self.data.len());
                Effects::value_with_cost(&(), cost)
            }
            other => Err(ObjectError::MethodNotFound(other.to_string())),
        }
    }

    fn save(&self) -> Vec<u8> {
        simcore::codec::to_bytes(&self.data).expect("bytes encode")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError> {
        self.data =
            simcore::codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(())
    }
}

/// Measured PUT/GET latencies for one system.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// System label.
    pub system: &'static str,
    /// Average PUT latency.
    pub put: Duration,
    /// Average GET latency.
    pub get: Duration,
}

/// Runs the Table 2 latency suite: sequential 1 KB accesses.
pub fn table2(scale: Scale) -> (Table, Vec<LatencyRow>) {
    let ops: u32 = scale.pick(1500, 30_000);
    let payload = vec![0u8; 1024];
    let mut rows = Vec::new();

    // S3. Latencies land in the sim-wide registry (no stats threading:
    // probes record through their Ctx, the harness reads the registry).
    {
        let mut sim = Sim::new(101);
        let reg = MetricsRegistry::new();
        sim.set_metrics(&reg);
        let s3 = spawn_s3(&sim, S3Config::default());
        let payload = payload.clone();
        sim.spawn("probe", move |ctx| {
            for i in 0..ops {
                let t0 = ctx.now();
                s3.put(ctx, &format!("k{i}"), payload.clone());
                ctx.metric_record("bench.put", ctx.now() - t0);
            }
            for i in 0..ops {
                let t0 = ctx.now();
                let _ = s3.get(ctx, &format!("k{i}"));
                ctx.metric_record("bench.get", ctx.now() - t0);
            }
        });
        sim.run_until_idle().expect_quiescent();
        rows.push(LatencyRow {
            system: "S3",
            put: reg.histogram("bench.put").mean(),
            get: reg.histogram("bench.get").mean(),
        });
    }

    // Redis.
    {
        let mut sim = Sim::new(102);
        let reg = MetricsRegistry::new();
        sim.set_metrics(&reg);
        let redis = spawn_redis(&sim, 2, RedisConfig::default(), ScriptRegistry::new());
        let payload = payload.clone();
        sim.spawn("probe", move |ctx| {
            for i in 0..ops {
                let t0 = ctx.now();
                redis.set(ctx, &format!("k{}", i % 64), payload.clone());
                ctx.metric_record("bench.put", ctx.now() - t0);
            }
            for i in 0..ops {
                let t0 = ctx.now();
                let _ = redis.get(ctx, &format!("k{}", i % 64));
                ctx.metric_record("bench.get", ctx.now() - t0);
            }
        });
        sim.run_until_idle().expect_quiescent();
        rows.push(LatencyRow {
            system: "Redis",
            put: reg.histogram("bench.put").mean(),
            get: reg.histogram("bench.get").mean(),
        });
    }

    // Infinispan (raw KV, no Creson stack), Crucial (rf=1), Crucial (rf=2).
    for (label, rf, raw_kv) in
        [("Infinispan", 1u8, true), ("Crucial", 1, false), ("Crucial (rf = 2)", 2, false)]
    {
        let mut sim = Sim::new(103 + rf as u64 + raw_kv as u64);
        let reg = MetricsRegistry::new();
        sim.set_metrics(&reg);
        let mut registry = ObjectRegistry::with_builtins();
        registry.register(RawKv::TYPE, RawKv::factory);
        let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(), registry);
        let handle = cluster.client_handle();
        let payload = payload.clone();
        sim.spawn("probe", move |ctx| {
            let mut cli = handle.connect();
            // One object per key, as the paper's k/v-style accesses.
            for i in 0..ops {
                let key = format!("k{}", i % 64);
                let t0 = ctx.now();
                if raw_kv {
                    let h = RawHandle::new(RawKv::TYPE, &key, rf, &Vec::<u8>::new());
                    let _: () = h.call(ctx, &mut cli, "put", &payload).expect("dso");
                } else {
                    let h = AtomicByteArray::persistent(&key, Vec::new(), rf);
                    h.set(ctx, &mut cli, &payload).expect("dso");
                }
                ctx.metric_record("bench.put", ctx.now() - t0);
            }
            for i in 0..ops {
                let key = format!("k{}", i % 64);
                let t0 = ctx.now();
                if raw_kv {
                    let h = RawHandle::new(RawKv::TYPE, &key, rf, &Vec::<u8>::new());
                    let _: Vec<u8> = h.call(ctx, &mut cli, "get", &()).expect("dso");
                } else {
                    let h = AtomicByteArray::persistent(&key, Vec::new(), rf);
                    let _ = h.get(ctx, &mut cli).expect("dso");
                }
                ctx.metric_record("bench.get", ctx.now() - t0);
            }
        });
        sim.run_until_idle().expect_quiescent();
        rows.push(LatencyRow {
            system: label,
            put: reg.histogram("bench.put").mean(),
            get: reg.histogram("bench.get").mean(),
        });
    }

    let paper = [
        ("S3", "34,868 µs", "23,072 µs"),
        ("Redis", "232 µs", "229 µs"),
        ("Infinispan", "228 µs", "207 µs"),
        ("Crucial", "231 µs", "229 µs"),
        ("Crucial (rf = 2)", "512 µs", "505 µs"),
    ];
    let mut t = Table::new(
        "Table 2 — average latency, 1 KB payload",
        &["System", "PUT (sim)", "GET (sim)", "PUT (paper)", "GET (paper)"],
    );
    for (row, (_, pp, pg)) in rows.iter().zip(paper.iter()) {
        t.row(&[
            row.system.to_string(),
            fmt_dur(row.put),
            fmt_dur(row.get),
            pp.to_string(),
            pg.to_string(),
        ]);
    }
    (t, rows)
}

// ---------------------------------------------------------------------------
// Fig. 2a — throughput, simple vs complex operations
// ---------------------------------------------------------------------------

/// Throughput of one (system, op kind) cell.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// System label.
    pub system: &'static str,
    /// Simple-operation throughput (ops/s).
    pub simple: f64,
    /// Complex-operation throughput (ops/s).
    pub complex: f64,
}

fn crucial_throughput(
    seed: u64,
    rf: u8,
    complex: bool,
    threads: u32,
    objects: u32,
    run: Duration,
) -> f64 {
    let mut sim = Sim::new(seed);
    let cluster = DsoCluster::start(&sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let done = Arc::new(Mutex::new(0u64));
    let deadline = simcore::SimTime::ZERO + Duration::from_secs(2) + run;
    for t in 0..threads {
        let handle = handle.clone();
        let done = done.clone();
        sim.spawn(&format!("c{t}"), move |ctx| {
            use rand::RngExt;
            let mut cli = handle.connect();
            // Objects are shared across threads, accessed uniformly.
            let mut local = 0u64;
            // Warm-up until the measurement window opens.
            let start = simcore::SimTime::ZERO + Duration::from_secs(2);
            loop {
                let i: u32 = ctx.rng().random_range(0..objects);
                let obj = if rf > 1 {
                    ArithmeticHandle::persistent(&format!("o{i}"), 1.0, rf)
                } else {
                    ArithmeticHandle::new(&format!("o{i}"))
                };
                let now = ctx.now();
                if now >= deadline {
                    break;
                }
                let r = if complex {
                    obj.mul_n(ctx, &mut cli, 1.0000001, 10_000)
                } else {
                    obj.mul(ctx, &mut cli, 1.0000001)
                };
                if r.is_ok() && ctx.now() >= start && ctx.now() < deadline {
                    local += 1;
                }
            }
            *done.lock() += local;
        });
    }
    sim.run_until_idle().expect_quiescent();
    let total = *done.lock();
    total as f64 / run.as_secs_f64()
}

fn redis_throughput(seed: u64, complex: bool, threads: u32, objects: u32, run: Duration) -> f64 {
    let mut sim = Sim::new(seed);
    let mut scripts = ScriptRegistry::new();
    // Simple: one multiplication at C speed; complex: 10k of them,
    // executed serially on the single-threaded shard.
    scripts.register("mul", |cur, _args| {
        let v: f64 = cur.map(|b| simcore::codec::from_bytes(&b).expect("state")).unwrap_or(1.0);
        let out = v * 1.0000001;
        (
            simcore::codec::to_bytes(&out).expect("encode"),
            Some(simcore::codec::to_bytes(&out).expect("encode")),
            // A trivial Lua body: dispatch (base_op_cost) dominates.
            Duration::from_nanos(500),
        )
    });
    scripts.register("mul_n", |cur, _args| {
        let v: f64 = cur.map(|b| simcore::codec::from_bytes(&b).expect("state")).unwrap_or(1.0);
        let out = v * 1.0000001f64.powi(64);
        (
            simcore::codec::to_bytes(&out).expect("encode"),
            Some(simcore::codec::to_bytes(&out).expect("encode")),
            // 10k multiplications in optimized C ≈ 35 ns each.
            Duration::from_nanos(35) * 10_000,
        )
    });
    let redis = spawn_redis(&sim, 2, RedisConfig::default(), scripts);
    let done = Arc::new(Mutex::new(0u64));
    let deadline = simcore::SimTime::ZERO + Duration::from_secs(2) + run;
    for t in 0..threads {
        let redis = redis.clone();
        let done = done.clone();
        sim.spawn(&format!("c{t}"), move |ctx| {
            use rand::RngExt;
            let mut local = 0u64;
            let start = simcore::SimTime::ZERO + Duration::from_secs(2);
            loop {
                let i: u32 = ctx.rng().random_range(0..objects);
                if ctx.now() >= deadline {
                    break;
                }
                let script = if complex { "mul_n" } else { "mul" };
                let _ = redis.eval(ctx, script, &format!("o{i}"), Vec::new());
                if ctx.now() >= start && ctx.now() < deadline {
                    local += 1;
                }
            }
            *done.lock() += local;
        });
    }
    sim.run_until_idle().expect_quiescent();
    let total = *done.lock();
    total as f64 / run.as_secs_f64()
}

/// Runs Fig. 2a: 200 closed-loop threads over 800 objects on a two-node
/// tier; simple (1 multiplication) and complex (10 k multiplications) ops.
pub fn fig2a(scale: Scale) -> (Table, Vec<ThroughputRow>) {
    let run = scale.pick(Duration::from_millis(500), Duration::from_secs(30));
    let threads = 200;
    let objects = 800;
    let rows = vec![
        ThroughputRow {
            system: "Crucial",
            simple: crucial_throughput(201, 1, false, threads, objects, run),
            complex: crucial_throughput(202, 1, true, threads, objects, run),
        },
        ThroughputRow {
            system: "Crucial (rf = 2)",
            simple: crucial_throughput(203, 2, false, threads, objects, run),
            complex: crucial_throughput(204, 2, true, threads, objects, run),
        },
        ThroughputRow {
            system: "Redis",
            simple: redis_throughput(205, false, threads, objects, run),
            complex: redis_throughput(206, true, threads, objects, run),
        },
    ];
    let mut t = Table::new(
        "Fig. 2a — throughput (ops/s), 200 threads, 800 objects",
        &["System", "Simple op", "Complex op (10k mults)"],
    );
    for r in &rows {
        t.row(&[r.system.to_string(), format!("{:.0}", r.simple), format!("{:.0}", r.complex)]);
    }
    t.row(&[
        "paper shape".to_string(),
        "Redis ≈ 1.5× Crucial".to_string(),
        "Crucial ≈ 5× Redis; rf=2 ≈ 1.7× Redis".to_string(),
    ]);
    (t, rows)
}

// ---------------------------------------------------------------------------
// Fig. 2b — Monte Carlo scalability
// ---------------------------------------------------------------------------

/// One point of the scalability curve.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Thread count.
    pub threads: u32,
    /// Measured duration of the sampling phase.
    pub duration: Duration,
    /// Aggregate points/s.
    pub points_per_sec: f64,
    /// Speed-up over one thread.
    pub speedup: f64,
}

/// Runs Fig. 2b: π samples per second as threads scale to 800.
pub fn fig2b(scale: Scale) -> (Table, Vec<ScalePoint>) {
    let points: u64 = 100_000_000;
    let thread_counts: Vec<u32> =
        scale.pick(vec![1, 50, 200, 800], vec![1, 50, 100, 200, 400, 800]);
    let mut curve = Vec::new();
    let mut t1 = None;
    for &n in &thread_counts {
        let r = run_pi_crucial(210 + n as u64, n, points);
        let t1v = *t1.get_or_insert(r.duration.as_secs_f64());
        curve.push(ScalePoint {
            threads: n,
            duration: r.duration,
            points_per_sec: r.points_per_sec,
            speedup: n as f64 * t1v / r.duration.as_secs_f64() / 1.0,
        });
    }
    // speedup definition: T1/Tn × n would be ideal-n; use throughput ratio.
    let base = curve[0].points_per_sec;
    for p in &mut curve {
        p.speedup = p.points_per_sec / base;
    }
    let mut t = Table::new(
        "Fig. 2b — Monte Carlo scalability (100 M points/thread)",
        &["Threads", "Duration", "Points/s", "Speed-up"],
    );
    for p in &curve {
        t.row(&[
            p.threads.to_string(),
            fmt_dur(p.duration),
            format!("{:.2e}", p.points_per_sec),
            format!("{:.0}x", p.speedup),
        ]);
    }
    t.row(&[
        "paper".to_string(),
        "-".to_string(),
        "8.4e9 @ 800".to_string(),
        "512x @ 800".to_string(),
    ]);
    (t, curve)
}
