//! Schedule exploration: run one scenario under many schedules.
//!
//! A deterministic simulation hides schedule-dependent bugs behind its
//! determinism — the default FIFO tie-breaking is just *one* of the many
//! orders a real platform could produce. The explorer re-runs a scenario
//! under perturbed schedules and reports every one that deadlocks, panics,
//! or fails the scenario's own check:
//!
//! - [`explore_seeds`] sweeps `n` seeds of
//!   [`crate::scheduler::RandomScheduler`] — cheap, broad coverage;
//! - [`explore_exhaustive`] enumerates schedules by branching on recorded
//!   scheduling decisions (a bounded, DPOR-lite depth-first search over
//!   choice prefixes with [`crate::scheduler::ReplayScheduler`]) — small
//!   scenarios can be covered exhaustively.
//!
//! A scenario is a closure that spawns processes on a fresh [`Sim`] and
//! returns a *check*: a closure run after the simulation goes quiescent
//! (e.g. feeding recorded operation histories to a linearizability
//! checker). Each failure carries the seed and, for deadlocks, a full
//! [`DeadlockReport`] with the decision trace — see [`replay_seed`] for
//! reproducing one.
//!
//! # Examples
//!
//! ```
//! use simcore::explore::{explore_seeds, ScheduleFailure};
//! use std::cell::Cell;
//! use std::rc::Rc;
//! use std::time::Duration;
//!
//! // A racy check-then-wait: the waiter decides to wait, *then* blocks for
//! // a moment before actually waiting. If the setter's one-shot notify
//! // lands in that gap, the wakeup is lost.
//! let report = explore_seeds(0, 16, |sim| {
//!     let flag = Rc::new(Cell::new(false));
//!     let m = simcore::sync::Monitor::new("m");
//!     let (m2, flag2) = (m.clone(), flag.clone());
//!     sim.spawn("setter", move |ctx| {
//!         m2.enter(ctx);
//!         flag2.set(true);
//!         m2.notify(ctx);
//!         m2.exit(ctx);
//!     });
//!     sim.spawn("waiter", move |ctx| {
//!         if !flag.get() {
//!             ctx.sleep(Duration::from_micros(1)); // gap between check and wait
//!             m.enter(ctx);
//!             m.wait(ctx);
//!             m.exit(ctx);
//!         }
//!     });
//!     Box::new(|| Ok(()))
//! });
//! // Some schedule loses the wakeup and deadlocks; others are clean.
//! assert!(report.failures.iter().any(|f| matches!(f.failure, ScheduleFailure::Deadlock(_))));
//! assert!(report.failures.len() < report.explored);
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::detect::DeadlockReport;
use crate::kernel::Sim;
use crate::scheduler::{RandomScheduler, ReplayScheduler};

/// A post-quiescence check produced by a scenario: `Ok(())` when the
/// schedule's outcome is acceptable, `Err(msg)` otherwise.
pub type Check = Box<dyn FnOnce() -> Result<(), String>>;

/// A scenario: spawns processes on a fresh [`Sim`] and returns the check to
/// run once that simulation is quiescent. Called once per explored schedule.
pub trait Scenario: Fn(&mut Sim) -> Check {}
impl<F: Fn(&mut Sim) -> Check> Scenario for F {}

/// Why one explored schedule failed.
pub enum ScheduleFailure {
    /// The simulation wedged; the report names cycles and lost wakeups.
    Deadlock(Box<DeadlockReport>),
    /// A process panicked during the run.
    Panic(String),
    /// The scenario's own post-run check rejected the outcome.
    Check(String),
}

impl fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleFailure::Deadlock(r) => write!(f, "{r}"),
            ScheduleFailure::Panic(m) => write!(f, "panic: {m}"),
            ScheduleFailure::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl fmt::Debug for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// One failing schedule: how to re-create it, and what went wrong.
#[derive(Debug)]
pub struct FailedSchedule {
    /// The simulation seed of the failing run.
    pub seed: u64,
    /// The replay prefix the run was started with (empty for seed sweeps;
    /// deadlock reports carry the *full* decision trace either way).
    pub prefix: Vec<u32>,
    /// The failure itself.
    pub failure: ScheduleFailure,
}

/// Outcome of an exploration sweep.
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Number of schedules executed.
    pub explored: usize,
    /// Every schedule that failed.
    pub failures: Vec<FailedSchedule>,
}

impl ExploreReport {
    /// Whether every explored schedule was clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panics with the rendered report if any schedule failed.
    ///
    /// # Panics
    ///
    /// Panics when [`ExploreReport::is_clean`] is false.
    pub fn expect_clean(&self) {
        assert!(self.is_clean(), "schedule exploration failed:\n{self}");
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "explored {} schedule(s), {} failure(s)", self.explored, self.failures.len())?;
        for fs in &self.failures {
            write!(f, "\nseed {}", fs.seed)?;
            if !fs.prefix.is_empty() {
                let p: Vec<String> = fs.prefix.iter().map(u32::to_string).collect();
                write!(f, " prefix [{}]", p.join(","))?;
            }
            write!(f, ": {}", fs.failure)?;
        }
        Ok(())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `scenario` on `sim` to quiescence and classifies the outcome.
/// Returns the decision trace choices alongside, for exhaustive branching.
fn run_schedule(
    mut sim: Sim,
    scenario: &impl Scenario,
) -> (Option<ScheduleFailure>, Vec<crate::scheduler::Decision>) {
    let check = scenario(&mut sim);
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run_until_idle()));
    let decisions = sim.decision_trace();
    let failure = match outcome {
        Err(p) => Some(ScheduleFailure::Panic(panic_message(p))),
        Ok(out) if !out.blocked.is_empty() => {
            let report = sim.deadlock_report().unwrap_or(DeadlockReport {
                seed: sim.seed(),
                time: out.time,
                cycles: Vec::new(),
                lost_wakeups: Vec::new(),
                stuck: Vec::new(),
                decisions: decisions.clone(),
            });
            Some(ScheduleFailure::Deadlock(Box::new(report)))
        }
        Ok(_) => {
            drop(sim); // join process threads before inspecting histories
            match catch_unwind(AssertUnwindSafe(check)) {
                Ok(Ok(())) => None,
                Ok(Err(m)) => Some(ScheduleFailure::Check(m)),
                Err(p) => Some(ScheduleFailure::Check(panic_message(p))),
            }
        }
    };
    (failure, decisions)
}

/// Runs `scenario` under `n` random schedules seeded `base_seed..base_seed+n`.
pub fn explore_seeds(base_seed: u64, n: u64, scenario: impl Scenario) -> ExploreReport {
    let mut report = ExploreReport::default();
    for i in 0..n {
        let seed = base_seed.wrapping_add(i);
        let sim = Sim::with_scheduler(seed, Box::new(RandomScheduler::new(seed)));
        let (failure, _) = run_schedule(sim, &scenario);
        report.explored += 1;
        if let Some(failure) = failure {
            report.failures.push(FailedSchedule { seed, prefix: Vec::new(), failure });
        }
    }
    report
}

/// Re-runs `scenario` under the random schedule for `seed` (as produced by
/// [`explore_seeds`]) and returns its failure, if it still fails.
pub fn replay_seed(seed: u64, scenario: impl Scenario) -> Option<ScheduleFailure> {
    let sim = Sim::with_scheduler(seed, Box::new(RandomScheduler::new(seed)));
    run_schedule(sim, &scenario).0
}

/// Bounded-exhaustive exploration (DPOR-lite): depth-first search over
/// scheduling-decision prefixes.
///
/// The first run uses an empty prefix (pure FIFO). After each run, every
/// decision point within the first `max_depth` decisions spawns sibling
/// prefixes that force the untaken choices; exploration stops after
/// `max_schedules` runs. With generous bounds and a small scenario this
/// covers *every* schedule distinguishable by runnable-queue order.
pub fn explore_exhaustive(
    seed: u64,
    max_schedules: usize,
    max_depth: usize,
    scenario: impl Scenario,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.explored >= max_schedules {
            break;
        }
        let sim = Sim::with_scheduler(seed, Box::new(ReplayScheduler::new(prefix.clone())));
        let (failure, decisions) = run_schedule(sim, &scenario);
        report.explored += 1;
        if let Some(failure) = failure {
            report.failures.push(FailedSchedule { seed, prefix: prefix.clone(), failure });
        }
        // Branch on every decision beyond the pinned prefix, up to the
        // depth bound: force each untaken choice once.
        for (i, d) in decisions
            .iter()
            .enumerate()
            .skip(prefix.len())
            .take(max_depth.saturating_sub(prefix.len()))
        {
            for alt in 0..d.options {
                if alt != d.choice {
                    let mut child: Vec<u32> = decisions[..i].iter().map(|d| d.choice).collect();
                    child.push(alt);
                    stack.push(child);
                }
            }
        }
    }
    report
}
