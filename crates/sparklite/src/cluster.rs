//! The mini-Spark cluster: one driver service and `E` executors, each a
//! multi-core VM. Stages run one task per partition (data-local), results
//! are collected ("reduced") at the driver — the BSP pattern whose
//! per-iteration scheduling and shuffle costs Crucial's DSO updates avoid
//! (§6.2.2).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use simcore::{Addr, CpuHost, Ctx, FxHashMap, Msg, Request, Sim};

use crate::cost::SparkCostModel;

/// A task body: `(partition, broadcast, args) -> (result, cpu work)`.
///
/// The closure does the *real* math on the (scaled-down) partition data
/// and reports the *virtual* CPU time this would take at paper scale; the
/// executor charges that time on its cores.
pub type TaskFn = Rc<dyn Fn(&[u8], &[u8], &[u8]) -> (Vec<u8>, Duration)>;

/// Registry of stage functions, shared by all executors.
#[derive(Clone, Default)]
pub struct TaskRegistry {
    tasks: Rc<RefCell<BTreeMap<String, TaskFn>>>,
}

impl TaskRegistry {
    /// Creates an empty registry.
    pub fn new() -> TaskRegistry {
        TaskRegistry::default()
    }

    /// Registers a stage function.
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&[u8], &[u8], &[u8]) -> (Vec<u8>, Duration) + 'static,
    {
        self.tasks.borrow_mut().insert(name.to_string(), Rc::new(f));
    }

    fn get(&self, name: &str) -> Option<TaskFn> {
        self.tasks.borrow().get(name).cloned()
    }
}

impl fmt::Debug for TaskRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.tasks.borrow().keys().cloned().collect();
        f.debug_struct("TaskRegistry").field("tasks", &names).finish()
    }
}

// Driver protocol.
#[derive(Debug)]
enum DriverReq {
    LoadPartitions(Vec<Vec<u8>>),
    Broadcast(Vec<u8>),
    RunStage { task: String, args: Vec<u8> },
}

#[derive(Debug)]
enum DriverResp {
    Loaded,
    Broadcasted,
    StageDone(Vec<Vec<u8>>),
}

// Executor protocol.
#[derive(Debug)]
enum ExecMsg {
    Store { partition_id: usize, data: Vec<u8> },
    SetBroadcast { data: Vec<u8>, ack: Addr },
    Run { task: String, partition_id: usize, args: Vec<u8>, done: Addr },
}

#[derive(Debug)]
struct BroadcastAck;

#[derive(Debug)]
struct TaskDone {
    partition_id: usize,
    result: Vec<u8>,
}

/// Handle used by the application ("driver program") to submit work.
#[derive(Clone, Debug)]
pub struct SparkHandle {
    driver: Addr,
    net: simcore::LatencyModel,
}

impl SparkHandle {
    /// Distributes partitions round-robin across executors.
    pub fn load_partitions(&self, ctx: &mut Ctx, partitions: Vec<Vec<u8>>) {
        let lat = self.net.sample(ctx.rng());
        match ctx.call(self.driver, DriverReq::LoadPartitions(partitions), lat) {
            DriverResp::Loaded => {}
            other => panic!("protocol: expected Loaded, got {other:?}"),
        }
    }

    /// Broadcasts a value to every executor (returns once all acked).
    pub fn broadcast(&self, ctx: &mut Ctx, data: Vec<u8>) {
        let lat = self.net.sample(ctx.rng());
        match ctx.call(self.driver, DriverReq::Broadcast(data), lat) {
            DriverResp::Broadcasted => {}
            other => panic!("protocol: expected Broadcasted, got {other:?}"),
        }
    }

    /// Runs one task per partition; returns results ordered by partition.
    pub fn run_stage(&self, ctx: &mut Ctx, task: &str, args: Vec<u8>) -> Vec<Vec<u8>> {
        let lat = self.net.sample(ctx.rng());
        match ctx.call(self.driver, DriverReq::RunStage { task: task.to_string(), args }, lat) {
            DriverResp::StageDone(r) => r,
            other => panic!("protocol: expected StageDone, got {other:?}"),
        }
    }
}

/// Starts a cluster with `executors` nodes of `cores_per_executor` cores.
pub fn spawn_cluster(
    sim: &Sim,
    executors: u32,
    cores_per_executor: u32,
    cost: SparkCostModel,
    registry: TaskRegistry,
) -> SparkHandle {
    assert!(executors >= 1, "need at least one executor");
    let mut exec_addrs = Vec::new();
    for e in 0..executors {
        let inbox = sim.mailbox(&format!("exec-{e}"));
        exec_addrs.push(inbox);
        let cpu = CpuHost::spawn(sim, &format!("exec-{e}"), cores_per_executor);
        let cost2 = cost.clone();
        let reg2 = registry.clone();
        sim.spawn_daemon(&format!("exec-{e}"), move |ctx| {
            executor_loop(ctx, inbox, cpu, cost2, reg2);
        });
    }
    let driver = sim.mailbox("spark-driver");
    let net = cost.net;
    let cost2 = cost;
    sim.spawn_daemon("spark-driver", move |ctx| {
        driver_loop(ctx, driver, exec_addrs, cost2);
    });
    SparkHandle { driver, net }
}

fn driver_loop(ctx: &mut Ctx, inbox: Addr, executors: Vec<Addr>, cost: SparkCostModel) {
    let mut partition_homes: Vec<Addr> = Vec::new(); // partition id -> executor
    loop {
        let (reply_to, req) = ctx.recv(inbox).take::<Request>().take::<DriverReq>();
        match req {
            DriverReq::LoadPartitions(parts) => {
                partition_homes.clear();
                for (i, data) in parts.into_iter().enumerate() {
                    let home = executors[i % executors.len()];
                    partition_homes.push(home);
                    let lat = cost.net.sample(ctx.rng())
                        + Duration::from_secs_f64(data.len() as f64 / cost.shuffle_bandwidth);
                    ctx.send(home, Msg::new(ExecMsg::Store { partition_id: i, data }), lat);
                }
                let lat = cost.net.sample(ctx.rng());
                ctx.reply(reply_to, DriverResp::Loaded, lat);
            }
            DriverReq::Broadcast(data) => {
                let ack_box = ctx.mailbox("bcast-acks");
                for &e in &executors {
                    let lat = cost.net.sample(ctx.rng())
                        + Duration::from_secs_f64(data.len() as f64 / cost.shuffle_bandwidth);
                    ctx.send(
                        e,
                        Msg::new(ExecMsg::SetBroadcast { data: data.clone(), ack: ack_box }),
                        lat,
                    );
                }
                for _ in 0..executors.len() {
                    let _ = ctx.recv(ack_box).take::<BroadcastAck>();
                }
                ctx.close_mailbox(ack_box);
                let lat = cost.net.sample(ctx.rng());
                ctx.reply(reply_to, DriverResp::Broadcasted, lat);
            }
            DriverReq::RunStage { task, args } => {
                // Stage setup (DAG scheduling, closure serialization).
                ctx.compute(cost.stage_overhead);
                let n = partition_homes.len();
                let done_box = ctx.mailbox("stage-results");
                for (pid, &home) in partition_homes.iter().enumerate() {
                    // Task dispatch is serialized at the driver.
                    ctx.compute(cost.per_task_dispatch);
                    let lat = cost.net.sample(ctx.rng());
                    ctx.send(
                        home,
                        Msg::new(ExecMsg::Run {
                            task: task.clone(),
                            partition_id: pid,
                            args: args.clone(),
                            done: done_box,
                        }),
                        lat,
                    );
                }
                // Collect + merge results (the "reduce" the paper charges
                // Spark for at every iteration).
                let mut results: Vec<Option<Vec<u8>>> = vec![None; n];
                for _ in 0..n {
                    let done = ctx.recv(done_box).take::<TaskDone>();
                    ctx.compute(
                        cost.per_result_merge + cost.merge_per_byte * done.result.len() as u32,
                    );
                    results[done.partition_id] = Some(done.result);
                }
                ctx.close_mailbox(done_box);
                let results = results.into_iter().map(|r| r.expect("all results in")).collect();
                let lat = cost.net.sample(ctx.rng());
                ctx.reply(reply_to, DriverResp::StageDone(results), lat);
            }
        }
    }
}

fn executor_loop(
    ctx: &mut Ctx,
    inbox: Addr,
    cpu: CpuHost,
    cost: SparkCostModel,
    registry: TaskRegistry,
) {
    let partitions: Rc<RefCell<FxHashMap<usize, Vec<u8>>>> =
        Rc::new(RefCell::new(FxHashMap::default()));
    let broadcast: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let mut job_seq = 0u64;
    loop {
        match ctx.recv(inbox).take::<ExecMsg>() {
            ExecMsg::Store { partition_id, data } => {
                partitions.borrow_mut().insert(partition_id, data);
            }
            ExecMsg::SetBroadcast { data, ack } => {
                *broadcast.borrow_mut() = data;
                let lat = cost.net.sample(ctx.rng());
                ctx.send(ack, Msg::new(BroadcastAck), lat);
            }
            ExecMsg::Run { task, partition_id, args, done } => {
                // Each task runs as its own job on the executor's cores:
                // more tasks than cores => waves, like Spark task slots.
                let f = registry.get(&task).expect("task registered");
                let cpu = cpu.clone();
                let partitions = partitions.clone();
                let broadcast = broadcast.clone();
                let cost = cost.clone();
                job_seq += 1;
                ctx.spawn(&format!("task-{task}-{partition_id}-{job_seq}"), move |tc| {
                    let (result, work) = {
                        let parts = partitions.borrow();
                        let part = parts.get(&partition_id).map(Vec::as_slice).unwrap_or(&[]);
                        let bc = broadcast.borrow();
                        f(part, &bc, &args)
                    };
                    cpu.compute(tc, work);
                    let lat = cost.net.sample(tc.rng())
                        + Duration::from_secs_f64(result.len() as f64 / cost.shuffle_bandwidth);
                    tc.send(done, Msg::new(TaskDone { partition_id, result }), lat);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_registry() -> TaskRegistry {
        let reg = TaskRegistry::new();
        // Sums partition bytes, plus the broadcast byte value.
        reg.register("sum", |part, bcast, _args| {
            let s: u64 = part.iter().map(|&b| b as u64).sum::<u64>()
                + bcast.first().copied().unwrap_or(0) as u64;
            (simcore::codec::to_bytes(&s).expect("encode"), Duration::from_millis(10))
        });
        reg
    }

    #[test]
    fn stage_runs_one_task_per_partition_in_order() {
        let mut sim = Sim::new(31);
        let spark = spawn_cluster(&sim, 3, 2, SparkCostModel::default(), sum_registry());
        sim.spawn("driver-app", move |ctx| {
            spark.load_partitions(ctx, vec![vec![1, 1], vec![2], vec![3], vec![4]]);
            spark.broadcast(ctx, vec![10]);
            let results = spark.run_stage(ctx, "sum", Vec::new());
            let sums: Vec<u64> =
                results.iter().map(|r| simcore::codec::from_bytes(r).expect("decode")).collect();
            assert_eq!(sums, vec![12, 12, 13, 14]);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn tasks_share_executor_cores_in_waves() {
        let mut sim = Sim::new(32);
        let reg = TaskRegistry::new();
        reg.register("slow", |_p, _b, _a| (Vec::new(), Duration::from_secs(1)));
        // 1 executor with 2 cores, 4 partitions of 1s work => 2 waves ≈ 2s.
        let spark = spawn_cluster(&sim, 1, 2, SparkCostModel::default(), reg);
        sim.spawn("driver-app", move |ctx| {
            spark.load_partitions(ctx, vec![vec![0]; 4]);
            let t0 = ctx.now();
            let _ = spark.run_stage(ctx, "slow", Vec::new());
            let took = (ctx.now() - t0).as_secs_f64();
            assert!((1.9..2.6).contains(&took), "expected ~2s of waves, took {took}");
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn stage_overhead_is_paid_even_for_trivial_work() {
        let mut sim = Sim::new(33);
        let reg = TaskRegistry::new();
        reg.register("nop", |_p, _b, _a| (Vec::new(), Duration::ZERO));
        let cost = SparkCostModel::default();
        let overhead = cost.stage_overhead;
        let spark = spawn_cluster(&sim, 2, 4, cost, reg);
        sim.spawn("driver-app", move |ctx| {
            spark.load_partitions(ctx, vec![vec![0]; 8]);
            let t0 = ctx.now();
            let _ = spark.run_stage(ctx, "nop", Vec::new());
            let took = ctx.now() - t0;
            assert!(took >= overhead, "stage time {took:?} must include the scheduling overhead");
            assert!(took < Duration::from_millis(200), "but not much more: {took:?}");
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn broadcast_reaches_all_executors() {
        let mut sim = Sim::new(34);
        let spark = spawn_cluster(&sim, 4, 1, SparkCostModel::default(), sum_registry());
        sim.spawn("driver-app", move |ctx| {
            spark.load_partitions(ctx, vec![vec![0]; 4]);
            spark.broadcast(ctx, vec![5]);
            let sums: Vec<u64> = spark
                .run_stage(ctx, "sum", Vec::new())
                .iter()
                .map(|r| simcore::codec::from_bytes(r).expect("decode"))
                .collect();
            assert_eq!(sums, vec![5, 5, 5, 5], "every executor saw the broadcast");
        });
        sim.run_until_idle().expect_quiescent();
    }
}
