//! A shared CPU modeled as a processor-sharing resource.
//!
//! Used for the single-machine ("VM") baselines of the paper: when more
//! threads compute than the machine has cores, every thread slows down
//! proportionally (Fig. 3's m5.2xlarge/m5.4xlarge curves collapsing past
//! their core count).
//!
//! The model is generalized processor sharing: with `n` active jobs on `c`
//! cores, each job progresses at rate `min(1, c/n)`.

use std::time::Duration;

use crate::kernel::{Addr, Ctx, Request, Sim};

/// Request understood by a CPU host process.
#[derive(Debug, Clone, Copy)]
struct CpuReq {
    work: Duration,
}

/// Completion marker.
#[derive(Debug, Clone, Copy)]
struct CpuDone;

/// Handle to a shared CPU with a fixed number of cores.
///
/// # Examples
///
/// ```
/// use simcore::{Sim, CpuHost};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(1);
/// let cpu = CpuHost::spawn(&sim, "vm", 2);
/// for i in 0..4 {
///     let cpu = cpu.clone();
///     sim.spawn(&format!("t{i}"), move |ctx| {
///         // 4 jobs of 1s on 2 cores take 2s of virtual time.
///         cpu.compute(ctx, Duration::from_secs(1));
///         assert_eq!(ctx.now().as_secs_f64(), 2.0);
///     });
/// }
/// sim.run_until_idle().expect_quiescent();
/// ```
#[derive(Clone, Debug)]
pub struct CpuHost {
    addr: Addr,
    cores: u32,
}

struct Job {
    reply_to: Addr,
    remaining: f64, // cpu-nanoseconds
}

impl CpuHost {
    /// Spawns the CPU manager process on `sim`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn spawn(sim: &Sim, name: &str, cores: u32) -> CpuHost {
        assert!(cores > 0, "a CPU needs at least one core");
        let addr = sim.mailbox(&format!("{name}-cpu"));
        sim.spawn_daemon(&format!("{name}-cpu"), move |ctx| {
            cpu_loop(ctx, addr, cores);
        });
        CpuHost { addr, cores }
    }

    /// Number of cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Performs `work` of CPU time on this machine, blocking until done.
    /// Under contention the elapsed virtual time exceeds `work`.
    pub fn compute(&self, ctx: &mut Ctx, work: Duration) {
        if work.is_zero() {
            return;
        }
        let CpuDone = ctx.call(self.addr, CpuReq { work }, Duration::ZERO);
    }
}

fn cpu_loop(ctx: &mut Ctx, inbox: Addr, cores: u32) {
    let mut jobs: Vec<Job> = Vec::new();
    let mut last = ctx.now();
    loop {
        let rate = if jobs.is_empty() { 0.0 } else { (cores as f64 / jobs.len() as f64).min(1.0) };
        // Next completion among active jobs at the current rate.
        let next_done: Option<Duration> = if jobs.is_empty() {
            None
        } else {
            let min_remaining = jobs.iter().map(|j| j.remaining).fold(f64::INFINITY, f64::min);
            Some(Duration::from_nanos((min_remaining / rate).ceil() as u64))
        };
        let msg = match next_done {
            None => Some(ctx.recv(inbox)),
            Some(d) => ctx.recv_timeout(inbox, d),
        };
        // Account the progress made since the last wake-up.
        let now = ctx.now();
        let elapsed = now.saturating_duration_since(last).as_nanos() as f64;
        last = now;
        if rate > 0.0 {
            for j in &mut jobs {
                j.remaining -= elapsed * rate;
            }
        }
        // Release finished jobs (allowing sub-nanosecond residue).
        let mut i = 0;
        while i < jobs.len() {
            if jobs[i].remaining <= 0.5 {
                let j = jobs.swap_remove(i);
                ctx.reply(j.reply_to, CpuDone, Duration::ZERO);
            } else {
                i += 1;
            }
        }
        if let Some(m) = msg {
            let (reply_to, req) = m.take::<Request>().take::<CpuReq>();
            jobs.push(Job { reply_to, remaining: req.work.as_nanos() as f64 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn single_job_takes_exactly_its_work() {
        let mut sim = Sim::new(1);
        let cpu = CpuHost::spawn(&sim, "m", 4);
        sim.spawn("t", move |ctx| {
            cpu.compute(ctx, Duration::from_millis(10));
            assert_eq!(ctx.now(), SimTime::from_millis(10));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn underloaded_jobs_run_at_full_speed() {
        let mut sim = Sim::new(1);
        let cpu = CpuHost::spawn(&sim, "m", 4);
        for i in 0..4 {
            let cpu = cpu.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                cpu.compute(ctx, Duration::from_millis(10));
                assert_eq!(ctx.now(), SimTime::from_millis(10));
            });
        }
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn overloaded_jobs_slow_down_proportionally() {
        let mut sim = Sim::new(1);
        let cpu = CpuHost::spawn(&sim, "m", 2);
        let ends: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let cpu = cpu.clone();
            let ends = ends.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                cpu.compute(ctx, Duration::from_secs(1));
                ends.lock().push(ctx.now().as_secs_f64());
            });
        }
        sim.run_until_idle().expect_quiescent();
        let ends = ends.lock();
        assert_eq!(ends.len(), 8);
        // 8 equal jobs on 2 cores: all finish together at 4s.
        for e in ends.iter() {
            assert!((e - 4.0).abs() < 1e-6, "end={e}");
        }
    }

    #[test]
    fn staggered_arrivals_share_fairly() {
        let mut sim = Sim::new(1);
        let cpu = CpuHost::spawn(&sim, "m", 1);
        let ends: Arc<Mutex<Vec<(String, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        // Job A: 2s of work starting at t=0.
        {
            let cpu = cpu.clone();
            let ends = ends.clone();
            sim.spawn("a", move |ctx| {
                cpu.compute(ctx, Duration::from_secs(2));
                ends.lock().push(("a".into(), ctx.now().as_secs_f64()));
            });
        }
        // Job B: 1s of work starting at t=1.
        {
            let cpu = cpu.clone();
            let ends = ends.clone();
            sim.spawn("b", move |ctx| {
                ctx.sleep(Duration::from_secs(1));
                cpu.compute(ctx, Duration::from_secs(1));
                ends.lock().push(("b".into(), ctx.now().as_secs_f64()));
            });
        }
        sim.run_until_idle().expect_quiescent();
        let ends = ends.lock();
        // A runs alone 0..1 (1s done), then shares 50/50. A has 1s left,
        // B has 1s: both finish at t=3.
        for (name, e) in ends.iter() {
            assert!((e - 3.0).abs() < 1e-6, "{name} ended at {e}");
        }
    }

    #[test]
    fn zero_work_returns_immediately() {
        let mut sim = Sim::new(1);
        let cpu = CpuHost::spawn(&sim, "m", 1);
        sim.spawn("t", move |ctx| {
            cpu.compute(ctx, Duration::ZERO);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let sim = Sim::new(1);
        let _ = CpuHost::spawn(&sim, "m", 0);
    }
}
