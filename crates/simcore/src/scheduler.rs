//! Pluggable ready-queue scheduling.
//!
//! The kernel is single-threaded in virtual time: whenever more than one
//! process is runnable *at the same instant*, something must pick which one
//! runs first. That choice is invisible to correct programs
//! and fatal to racy ones — so it is abstracted behind the [`Scheduler`]
//! trait. [`FifoScheduler`] preserves the kernel's historical
//! first-come-first-served order (and is what [`crate::Sim::new`] installs);
//! [`RandomScheduler`] perturbs the order deterministically from a seed so
//! the explorer in [`crate::explore`] can search over schedules; and
//! [`ReplayScheduler`] re-executes a recorded decision prefix exactly,
//! which is how a failing schedule is reproduced from a report.
//!
//! Every pick made among ≥ 2 runnable processes is recorded as a
//! [`Decision`] in the simulation's decision trace
//! ([`crate::Sim::decision_trace`]); the trace plus the seed fully
//! determine a run.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::kernel::Pid;

/// One scheduling decision: the kernel had `options` runnable processes and
/// ran the one at index `choice`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// How many processes were runnable at this point (always ≥ 2; picks
    /// with a single candidate are forced and not recorded).
    pub options: u32,
    /// Index into the runnable queue that was chosen.
    pub choice: u32,
}

/// Picks which runnable process runs next.
///
/// `pick` is only consulted when at least two processes are runnable; the
/// returned index is clamped to the queue length by the kernel, so an
/// out-of-range pick degrades to "last" rather than panicking.
pub trait Scheduler {
    /// Returns the index (into `runnable`) of the process to run next.
    fn pick(&mut self, runnable: &[Pid]) -> usize;
}

/// First-come-first-served: always runs the longest-waiting process.
///
/// This is the kernel's historical order and the default for
/// [`crate::Sim::new`]; every pre-existing test sees byte-identical runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _runnable: &[Pid]) -> usize {
        0
    }
}

/// Picks uniformly at random among the runnable processes, deterministically
/// from a seed: the same seed always yields the same schedule.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler; runs with equal seeds are identical.
    pub fn new(seed: u64) -> RandomScheduler {
        // Decorrelate from the kernel's per-process RNG streams, which are
        // seeded from the same user-facing seed.
        RandomScheduler { rng: StdRng::seed_from_u64(seed ^ 0x5C4E_D10E_5EED_F00Du64) }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, runnable: &[Pid]) -> usize {
        self.rng.random_range(0..runnable.len())
    }
}

/// Replays a recorded choice prefix, then falls back to FIFO.
///
/// Feeding back the `choice` values of a previous run's
/// [`crate::Sim::decision_trace`] reproduces that run exactly; a shorter
/// prefix pins only the first decisions, which is how the bounded-exhaustive
/// explorer branches off a known schedule.
#[derive(Debug)]
pub struct ReplayScheduler {
    prefix: VecDeque<u32>,
}

impl ReplayScheduler {
    /// Creates a scheduler that replays `prefix` choice-by-choice.
    pub fn new(prefix: impl IntoIterator<Item = u32>) -> ReplayScheduler {
        ReplayScheduler { prefix: prefix.into_iter().collect() }
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, runnable: &[Pid]) -> usize {
        match self.prefix.pop_front() {
            Some(c) => (c as usize).min(runnable.len() - 1),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(n: u64) -> Vec<Pid> {
        (0..n).map(Pid).collect()
    }

    #[test]
    fn fifo_always_picks_front() {
        let mut s = FifoScheduler;
        assert_eq!(s.pick(&pids(5)), 0);
        assert_eq!(s.pick(&pids(2)), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..32).map(|_| s.pick(&pids(7))).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        assert!(run(3).iter().all(|&i| i < 7));
    }

    #[test]
    fn replay_consumes_prefix_then_fifo() {
        let mut s = ReplayScheduler::new([2, 1, 9]);
        assert_eq!(s.pick(&pids(4)), 2);
        assert_eq!(s.pick(&pids(4)), 1);
        // Out-of-range choices clamp to the last index.
        assert_eq!(s.pick(&pids(4)), 3);
        // Prefix exhausted: FIFO.
        assert_eq!(s.pick(&pids(4)), 0);
    }
}
