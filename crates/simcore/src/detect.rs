//! Runtime deadlock and lost-wakeup detection.
//!
//! In a discrete-event simulation there is no "maybe it will wake up
//! later": when [`crate::Sim::run_until_idle`] returns with live blocked
//! processes, those processes are stuck *forever* — no pending event can
//! ever make them runnable. That turns deadlock detection from a heuristic
//! into an exact postmortem: [`crate::Sim::deadlock_report`] inspects the
//! blocked processes, builds a wait-for graph from the waits their blocking
//! calls recorded ([`crate::Ctx::park`], an untimed [`crate::Ctx::call`],
//! [`crate::Proc::annotate_wait`]) and the holders of resources
//! ([`crate::Proc::resource_acquired`]), and classifies the outcome:
//!
//! - **cycles** — classic deadlock: each process in the cycle waits on
//!   something only the next one could provide (a lock it holds, a barrier
//!   it has not reached, a reply it will never send);
//! - **lost wakeups** — a process waiting on a condition, semaphore or
//!   message that no live process can ever signal (the wakeup already
//!   happened or was skipped);
//! - **stuck** — every blocked process, with its wait annotation, for
//!   manual triage.
//!
//! Each report carries the simulation seed and the scheduler's
//! [`Decision`] trace, so a failing schedule found by [`crate::explore`]
//! can be replayed exactly (see the module docs there).

use crate::hash::FxHashMap;
use std::fmt;

use crate::kernel::{Pid, Sim};
use crate::scheduler::Decision;
use crate::time::SimTime;

/// What kind of thing a blocked process is waiting for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// Entry into a mutex/monitor another process holds.
    Lock,
    /// A condition-variable style notification.
    Condition,
    /// Other parties arriving at a barrier.
    Barrier,
    /// Permits on a (possibly remote) semaphore.
    Semaphore,
    /// A reply to a blocking remote call.
    Call,
    /// A plain message delivery.
    Message,
}

impl fmt::Display for WaitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WaitKind::Lock => "lock",
            WaitKind::Condition => "condition",
            WaitKind::Barrier => "barrier",
            WaitKind::Semaphore => "semaphore",
            WaitKind::Call => "call",
            WaitKind::Message => "message",
        };
        f.write_str(s)
    }
}

/// What a blocked process waits on, as its blocking call recorded it.
#[derive(Clone, Debug)]
pub struct WaitAnnotation {
    /// Identity of the awaited resource (e.g. a monitor's kernel-issued id,
    /// a mailbox key, or a shared object's placement hash).
    pub resource: u64,
    /// Human-readable name of the resource (monitor name, object ref…).
    pub resource_name: String,
    /// What kind of wait this is.
    pub kind: WaitKind,
    /// Where the process blocked — the "task backtrace" entry for reports.
    pub site: String,
}

/// A live process that can never run again, as it appears in a
/// [`DeadlockReport`].
#[derive(Clone, Debug)]
pub struct StuckProc {
    /// The process id.
    pub pid: Pid,
    /// The process name.
    pub name: String,
    /// How the kernel sees it blocked (`"parked"`, `"receiving"`, …).
    pub block_state: String,
    /// The wait annotation, if the blocking primitive registered one.
    pub wait: Option<WaitAnnotation>,
}

impl StuckProc {
    fn describe(&self) -> String {
        match &self.wait {
            Some(w) => {
                format!("{} [{} \"{}\" @ {}]", self.name, w.kind, w.resource_name, w.site)
            }
            None => format!("{} [{}]", self.name, self.block_state),
        }
    }
}

/// Postmortem of a deadlocked simulation.
///
/// Produced by [`crate::Sim::deadlock_report`] after a run left live
/// processes permanently blocked. `Display` renders the full report,
/// including the reproduction recipe.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// The simulation seed (reproduces the run together with the scheduler).
    pub seed: u64,
    /// Virtual time at which the simulation wedged.
    pub time: SimTime,
    /// Wait-for cycles: each entry is a ring of processes in which every
    /// process waits on the next one.
    pub cycles: Vec<Vec<StuckProc>>,
    /// Processes whose wakeup can never arrive (no holder, no live waker).
    pub lost_wakeups: Vec<StuckProc>,
    /// All permanently blocked processes.
    pub stuck: Vec<StuckProc>,
    /// The scheduler decision trace of the run; replaying these choices
    /// (see [`crate::scheduler::ReplayScheduler`]) reproduces the schedule.
    pub decisions: Vec<Decision>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock at {} (seed {}): {} process(es) blocked forever",
            self.time,
            self.seed,
            self.stuck.len()
        )?;
        for cycle in &self.cycles {
            let ring: Vec<String> = cycle.iter().map(StuckProc::describe).collect();
            writeln!(f, "  wait-for cycle: {} -> (back to start)", ring.join(" -> "))?;
        }
        for p in &self.lost_wakeups {
            writeln!(f, "  lost wakeup: {} — no live process can wake it", p.describe())?;
        }
        for p in &self.stuck {
            writeln!(f, "  stuck: {}", p.describe())?;
        }
        let choices: Vec<String> = self.decisions.iter().map(|d| d.choice.to_string()).collect();
        write!(
            f,
            "  reproduce: RandomScheduler seed {} (or ReplayScheduler prefix [{}])",
            self.seed,
            choices.join(",")
        )
    }
}

impl Sim {
    /// Builds a [`DeadlockReport`] for the current set of permanently
    /// blocked processes, or `None` if no non-daemon process is blocked.
    ///
    /// Meaningful after [`Sim::run_until_idle`] returned a non-empty
    /// [`crate::RunOutcome::blocked`] list: at that point the blocked
    /// processes can never run again.
    pub fn deadlock_report(&self) -> Option<DeadlockReport> {
        let (time, stuck, holders) = self.stuck_snapshot();
        if stuck.is_empty() {
            return None;
        }
        let edges = wait_for_edges(&stuck, &holders);
        let cycles = find_cycles(&stuck, &edges);
        let in_cycle: Vec<bool> =
            (0..stuck.len()).map(|i| cycles.iter().any(|c| c.contains(&i))).collect();
        let lost_wakeups: Vec<StuckProc> = stuck
            .iter()
            .enumerate()
            .filter(|(i, p)| edges[*i].is_empty() && !in_cycle[*i] && p.wait.is_some())
            .map(|(_, p)| p.clone())
            .collect();
        Some(DeadlockReport {
            seed: self.seed(),
            time,
            cycles: cycles
                .into_iter()
                .map(|c| c.into_iter().map(|i| stuck[i].clone()).collect())
                .collect(),
            lost_wakeups,
            stuck,
            decisions: self.decision_trace(),
        })
    }
}

/// Builds the wait-for adjacency list over `stuck` (indices into it).
///
/// A lock/semaphore waiter points at the registered holder of its resource
/// (if that holder is itself stuck). Waits without a trackable holder —
/// conditions, barriers, calls, messages — point at every *other* stuck
/// process that is not blocked on the same resource: any of them could in
/// principle have delivered the wakeup, and none of them ever will.
fn wait_for_edges(stuck: &[StuckProc], holders: &FxHashMap<u64, (Pid, String)>) -> Vec<Vec<usize>> {
    let index_of: FxHashMap<Pid, usize> =
        stuck.iter().enumerate().map(|(i, p)| (p.pid, i)).collect();
    stuck
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let held_edge = p.wait.as_ref().and_then(|w| {
                if matches!(w.kind, WaitKind::Lock | WaitKind::Semaphore) {
                    holders.get(&w.resource).and_then(|(h, _)| index_of.get(h)).copied()
                } else {
                    None
                }
            });
            if let Some(j) = held_edge {
                if j != i {
                    return vec![j];
                }
            }
            // No trackable holder: any other stuck process not waiting on
            // the same resource is a candidate (never-arriving) waker.
            let my_res = p.wait.as_ref().map(|w| w.resource);
            stuck
                .iter()
                .enumerate()
                .filter(|(j, q)| {
                    *j != i
                        && match (my_res, q.wait.as_ref().map(|w| w.resource)) {
                            (Some(a), Some(b)) => a != b,
                            _ => true,
                        }
                })
                .map(|(j, _)| j)
                .collect()
        })
        .collect()
}

/// Finds elementary wait-for cycles by DFS, deduplicated by member set.
fn find_cycles(stuck: &[StuckProc], edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = stuck.len();
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut seen_sets: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        // Iterative DFS from `start`, tracking the path to extract cycles.
        let mut path: Vec<usize> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        while let Some(&node) = path.last() {
            let it = *iters.last().expect("parallel stacks");
            if it >= edges[node].len() {
                path.pop();
                iters.pop();
                continue;
            }
            *iters.last_mut().expect("parallel stacks") += 1;
            let next = edges[node][it];
            if next == start {
                let mut key = path.clone();
                key.sort_unstable();
                key.dedup();
                if !seen_sets.contains(&key) {
                    seen_sets.push(key);
                    cycles.push(path.clone());
                }
            } else if !path.contains(&next) && next > start {
                // Only descend into larger indices so each cycle is found
                // once, rooted at its smallest member.
                path.push(next);
                iters.push(0);
            }
            if cycles.len() >= 8 {
                return cycles; // cap: reports stay readable
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(pid: u64, name: &str, wait: Option<WaitAnnotation>) -> StuckProc {
        StuckProc { pid: Pid(pid), name: name.into(), block_state: "parked".into(), wait }
    }

    fn ann(resource: u64, kind: WaitKind) -> WaitAnnotation {
        WaitAnnotation {
            resource,
            resource_name: format!("r{resource}"),
            kind,
            site: "test".into(),
        }
    }

    #[test]
    fn lock_cycle_via_holders() {
        // p0 waits for lock 2 held by p1; p1 waits for lock 1 held by p0.
        let stuck = vec![
            sp(0, "a", Some(ann(2, WaitKind::Lock))),
            sp(1, "b", Some(ann(1, WaitKind::Lock))),
        ];
        let mut holders = FxHashMap::default();
        holders.insert(1u64, (Pid(0), "r1".to_string()));
        holders.insert(2u64, (Pid(1), "r2".to_string()));
        let edges = wait_for_edges(&stuck, &holders);
        assert_eq!(edges, vec![vec![1], vec![0]]);
        let cycles = find_cycles(&stuck, &edges);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn crossed_barriers_form_cycle() {
        // Two processes waiting on *different* barriers: each is the only
        // process that could have released the other.
        let stuck = vec![
            sp(0, "a", Some(ann(10, WaitKind::Barrier))),
            sp(1, "b", Some(ann(11, WaitKind::Barrier))),
        ];
        let edges = wait_for_edges(&stuck, &FxHashMap::default());
        let cycles = find_cycles(&stuck, &edges);
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn same_resource_waiters_are_not_a_cycle() {
        // Two processes on the same under-subscribed barrier: no cycle,
        // both are lost wakeups (nobody left to arrive).
        let stuck = vec![
            sp(0, "a", Some(ann(10, WaitKind::Barrier))),
            sp(1, "b", Some(ann(10, WaitKind::Barrier))),
        ];
        let edges = wait_for_edges(&stuck, &FxHashMap::default());
        assert!(edges.iter().all(Vec::is_empty));
        assert!(find_cycles(&stuck, &edges).is_empty());
    }

    #[test]
    fn lone_semaphore_waiter_is_lost_wakeup_shape() {
        let stuck = vec![sp(0, "w", Some(ann(5, WaitKind::Semaphore)))];
        let edges = wait_for_edges(&stuck, &FxHashMap::default());
        assert_eq!(edges, vec![Vec::<usize>::new()]);
    }
}
