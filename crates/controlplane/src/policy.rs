//! Pluggable scaling policies: the *decision* half of the reconcile loop.
//!
//! A policy sees one [`Observed`] summary per tick and answers with a
//! [`ScaleDecision`]. Policies are plain deterministic state machines —
//! hysteresis counters, no clocks, no randomness — so identically-seeded
//! runs make identical decisions. Two classics are provided:
//! [`TargetTracking`] (size the fleet to a per-node request rate, the
//! default) and [`StepScaling`] (react to queue-depth thresholds).

/// One reconcile tick's observations, computed by the daemon from the
/// metrics registry (counter deltas over the tick interval, series means
/// over the tick window).
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// DSO invocations per second since the previous tick.
    pub request_rate: f64,
    /// Admission-shed DSO requests per second since the previous tick.
    pub shed_rate: f64,
    /// Mean dispatcher queue depth over the tick window (0 when no node
    /// reported).
    pub queue_depth: f64,
    /// FaaS cold starts per second since the previous tick.
    pub cold_start_rate: f64,
    /// Live DSO storage nodes.
    pub nodes: u32,
}

/// What to do with the DSO tier this tick.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Add a node.
    Out,
    /// Drain (gracefully remove) a node.
    In,
    /// Leave the fleet alone.
    Hold,
}

/// A scaling policy: a deterministic map from observations to decisions.
///
/// Implementations keep their own hysteresis state (e.g. "overloaded for
/// N consecutive ticks") and must not consult anything but the passed
/// [`Observed`] — wall clocks or ambient randomness would break the
/// simulation's determinism guarantee.
pub trait ScalingPolicy {
    /// Decides this tick.
    fn decide(&mut self, obs: &Observed) -> ScaleDecision;

    /// Short name used in trace annotations.
    fn name(&self) -> &'static str;
}

/// Target tracking: keep the per-node request rate near a target, the
/// moral equivalent of AWS's target-tracking scaling on a utilization
/// metric.
///
/// Overload means the observed rate exceeds `high × target × nodes` (or
/// requests are being shed at all — shedding is overload by definition);
/// underload means the rate would comfortably fit on one fewer node
/// (below `low × target × (nodes − 1)`). Either condition must hold for
/// `sustain` consecutive ticks before the policy acts, so transient
/// spikes do not flap the fleet.
#[derive(Clone, Debug)]
pub struct TargetTracking {
    /// Requests per second one node serves comfortably.
    pub target_per_node: f64,
    /// Overload ratio (default 0.9): scale out above
    /// `high × target × nodes`.
    pub high: f64,
    /// Underload ratio (default 0.6): scale in below
    /// `low × target × (nodes − 1)`.
    pub low: f64,
    /// Consecutive ticks a condition must hold before acting (default 3).
    pub sustain: u32,
    hot: u32,
    cold: u32,
}

impl TargetTracking {
    /// A policy targeting `target_per_node` requests/s per node with the
    /// default hysteresis (high 0.9, low 0.6, sustain 3).
    pub fn new(target_per_node: f64) -> TargetTracking {
        TargetTracking { target_per_node, high: 0.9, low: 0.6, sustain: 3, hot: 0, cold: 0 }
    }
}

impl ScalingPolicy for TargetTracking {
    fn decide(&mut self, obs: &Observed) -> ScaleDecision {
        let nodes = obs.nodes.max(1) as f64;
        let overloaded =
            obs.shed_rate > 0.0 || obs.request_rate > self.high * self.target_per_node * nodes;
        let underloaded = obs.nodes > 1
            && obs.shed_rate == 0.0
            && obs.request_rate < self.low * self.target_per_node * (nodes - 1.0);
        self.hot = if overloaded { self.hot + 1 } else { 0 };
        self.cold = if underloaded { self.cold + 1 } else { 0 };
        if self.hot >= self.sustain {
            self.hot = 0;
            self.cold = 0;
            ScaleDecision::Out
        } else if self.cold >= self.sustain {
            self.hot = 0;
            self.cold = 0;
            ScaleDecision::In
        } else {
            ScaleDecision::Hold
        }
    }

    fn name(&self) -> &'static str {
        "target-tracking"
    }
}

/// Step scaling: react to dispatcher queue depth crossing fixed
/// thresholds (CloudWatch-alarm style). Scale out when the mean depth
/// exceeds `out_above` (or anything is shed), in when it stays below
/// `in_below`; both must hold for `sustain` consecutive ticks.
#[derive(Clone, Debug)]
pub struct StepScaling {
    /// Queue depth above which to add a node.
    pub out_above: f64,
    /// Queue depth below which to remove one.
    pub in_below: f64,
    /// Consecutive ticks a condition must hold before acting (default 3).
    pub sustain: u32,
    hot: u32,
    cold: u32,
}

impl StepScaling {
    /// A step policy with the given thresholds and sustain 3.
    pub fn new(out_above: f64, in_below: f64) -> StepScaling {
        StepScaling { out_above, in_below, sustain: 3, hot: 0, cold: 0 }
    }
}

impl ScalingPolicy for StepScaling {
    fn decide(&mut self, obs: &Observed) -> ScaleDecision {
        let overloaded = obs.shed_rate > 0.0 || obs.queue_depth > self.out_above;
        let underloaded = obs.nodes > 1 && obs.shed_rate == 0.0 && obs.queue_depth < self.in_below;
        self.hot = if overloaded { self.hot + 1 } else { 0 };
        self.cold = if underloaded { self.cold + 1 } else { 0 };
        if self.hot >= self.sustain {
            self.hot = 0;
            self.cold = 0;
            ScaleDecision::Out
        } else if self.cold >= self.sustain {
            self.hot = 0;
            self.cold = 0;
            ScaleDecision::In
        } else {
            ScaleDecision::Hold
        }
    }

    fn name(&self) -> &'static str {
        "step-scaling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(rate: f64, nodes: u32) -> Observed {
        Observed {
            request_rate: rate,
            shed_rate: 0.0,
            queue_depth: 0.0,
            cold_start_rate: 0.0,
            nodes,
        }
    }

    #[test]
    fn target_tracking_sustains_before_acting() {
        let mut p = TargetTracking::new(100.0);
        // 2 nodes at 300 req/s: over 0.9 * 100 * 2 = 180. Needs 3 ticks.
        assert_eq!(p.decide(&obs(300.0, 2)), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(300.0, 2)), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(300.0, 2)), ScaleDecision::Out);
        // Counter reset after acting: not immediately again.
        assert_eq!(p.decide(&obs(300.0, 3)), ScaleDecision::Hold);
    }

    #[test]
    fn target_tracking_spike_does_not_flap() {
        let mut p = TargetTracking::new(100.0);
        assert_eq!(p.decide(&obs(300.0, 2)), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(50.0, 2)), ScaleDecision::Hold, "spike over");
        assert_eq!(p.decide(&obs(300.0, 2)), ScaleDecision::Hold, "counter was reset");
    }

    #[test]
    fn target_tracking_scales_in_when_a_node_is_surplus() {
        let mut p = TargetTracking::new(100.0);
        // 3 nodes at 40 req/s: below 0.6 * 100 * 2 = 120 → a node is surplus.
        for _ in 0..2 {
            assert_eq!(p.decide(&obs(40.0, 3)), ScaleDecision::Hold);
        }
        assert_eq!(p.decide(&obs(40.0, 3)), ScaleDecision::In);
        // A single node is never drained.
        let mut p = TargetTracking::new(100.0);
        for _ in 0..10 {
            assert_eq!(p.decide(&obs(0.0, 1)), ScaleDecision::Hold);
        }
    }

    #[test]
    fn shedding_is_overload_regardless_of_rate() {
        let mut p = TargetTracking::new(100.0);
        let shed = Observed { shed_rate: 5.0, ..obs(10.0, 2) };
        assert_eq!(p.decide(&shed), ScaleDecision::Hold);
        assert_eq!(p.decide(&shed), ScaleDecision::Hold);
        assert_eq!(p.decide(&shed), ScaleDecision::Out);
    }

    #[test]
    fn step_scaling_follows_queue_depth() {
        let mut p = StepScaling::new(16.0, 2.0);
        let deep = Observed { queue_depth: 40.0, ..obs(0.0, 2) };
        let shallow = Observed { queue_depth: 1.0, ..obs(0.0, 2) };
        for _ in 0..2 {
            assert_eq!(p.decide(&deep), ScaleDecision::Hold);
        }
        assert_eq!(p.decide(&deep), ScaleDecision::Out);
        for _ in 0..2 {
            assert_eq!(p.decide(&shallow), ScaleDecision::Hold);
        }
        assert_eq!(p.decide(&shallow), ScaleDecision::In);
    }
}
