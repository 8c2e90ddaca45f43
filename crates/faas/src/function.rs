//! Cloud functions: the handler trait, per-function configuration, and the
//! registry that containers resolve handlers from.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use simcore::{Ctx, FxHashMap};

use crate::config::ColdStartPolicy;

/// Memory that gives exactly one full vCPU on AWS Lambda (footnote 7 of
/// the paper).
pub const FULL_VCPU_MB: u32 = 1792;

/// Execution context handed to a function handler.
///
/// Wraps the raw simulation context with the container's CPU share:
/// Lambda scales CPU with configured memory, so a 896 MB function computes
/// at half speed ([`FnCtx::compute`] stretches virtual time accordingly).
pub struct FnCtx<'a> {
    /// Raw simulation context (network calls, sleeping, randomness).
    pub ctx: &'a mut Ctx,
    cpu_share: f64,
    memory_mb: u32,
    host: u64,
}

impl<'a> FnCtx<'a> {
    /// Creates a context for a container with the given memory (on the
    /// default host `0`; see [`FnCtx::with_host`]).
    pub fn new(ctx: &'a mut Ctx, memory_mb: u32) -> FnCtx<'a> {
        FnCtx::with_host(ctx, memory_mb, 0)
    }

    /// Creates a context for a container placed on physical host `host`.
    /// The platform packs [`crate::CONTAINERS_PER_HOST`]
    /// containers per host; deployment layers use the host id to share
    /// per-host resources (e.g. a co-located read cache) between
    /// containers.
    pub fn with_host(ctx: &'a mut Ctx, memory_mb: u32, host: u64) -> FnCtx<'a> {
        FnCtx { ctx, cpu_share: cpu_share_for(memory_mb), memory_mb, host }
    }

    /// The physical host this container runs on.
    pub fn host(&self) -> u64 {
        self.host
    }

    /// Performs `work` of single-vCPU CPU time, stretched by this
    /// container's CPU share.
    pub fn compute(&mut self, work: Duration) {
        if work.is_zero() {
            return;
        }
        self.ctx.sleep(work.div_f64(self.cpu_share));
    }

    /// Fraction of a vCPU available to this container.
    pub fn cpu_share(&self) -> f64 {
        self.cpu_share
    }

    /// Configured memory.
    pub fn memory_mb(&self) -> u32 {
        self.memory_mb
    }
}

impl fmt::Debug for FnCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnCtx")
            .field("cpu_share", &self.cpu_share)
            .field("memory_mb", &self.memory_mb)
            .finish()
    }
}

/// CPU share for a memory setting: proportional, one full vCPU at
/// [`FULL_VCPU_MB`], capped at two (Lambda's 3 GB ceiling gives ~1.7 vCPU).
pub fn cpu_share_for(memory_mb: u32) -> f64 {
    (memory_mb as f64 / FULL_VCPU_MB as f64).min(2.0)
}

/// A deployable function body.
pub trait CloudFunction: 'static {
    /// Runs the function on `payload`, returning the response payload.
    ///
    /// # Errors
    ///
    /// A `String` error is delivered to the caller as a failed invocation
    /// (and may be retried by the client, §4.4).
    fn invoke(&self, env: &mut FnCtx<'_>, payload: Vec<u8>) -> Result<Vec<u8>, String>;
}

impl<F> CloudFunction for F
where
    F: Fn(&mut FnCtx<'_>, Vec<u8>) -> Result<Vec<u8>, String> + 'static,
{
    fn invoke(&self, env: &mut FnCtx<'_>, payload: Vec<u8>) -> Result<Vec<u8>, String> {
        self(env, payload)
    }
}

/// Deployment descriptor of one function.
#[derive(Clone)]
pub struct FunctionSpec {
    /// Handler body.
    pub handler: Rc<dyn CloudFunction>,
    /// Configured memory (drives CPU share and billing).
    pub memory_mb: u32,
    /// Per-function cold-start policy override; `None` uses the
    /// platform-wide [`crate::FaasConfig::cold_start_policy`].
    pub cold_start: Option<ColdStartPolicy>,
}

impl fmt::Debug for FunctionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionSpec")
            .field("memory_mb", &self.memory_mb)
            .field("cold_start", &self.cold_start)
            .finish()
    }
}

/// Shared registry of deployed functions.
///
/// Cloneable and internally synchronized, so functions may be registered
/// after the platform started (a container resolves its handler when the
/// platform spawns it).
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    inner: Rc<RefCell<FxHashMap<String, FunctionSpec>>>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Deploys (or replaces) a function under the platform-wide
    /// cold-start policy.
    pub fn register<F: CloudFunction>(&self, name: &str, memory_mb: u32, handler: F) {
        self.inner.borrow_mut().insert(
            name.to_string(),
            FunctionSpec { handler: Rc::new(handler), memory_mb, cold_start: None },
        );
    }

    /// Deploys (or replaces) a function with an explicit per-function
    /// cold-start policy, overriding the platform-wide default. A
    /// non-classic policy is clamped back to classic if the platform has
    /// no snapshot cost model configured
    /// ([`crate::FaasConfig::effective_policy`]).
    pub fn register_with_policy<F: CloudFunction>(
        &self,
        name: &str,
        memory_mb: u32,
        policy: ColdStartPolicy,
        handler: F,
    ) {
        self.inner.borrow_mut().insert(
            name.to_string(),
            FunctionSpec { handler: Rc::new(handler), memory_mb, cold_start: Some(policy) },
        );
    }

    /// Resolves a function by name.
    pub fn get(&self, name: &str) -> Option<FunctionSpec> {
        self.inner.borrow().get(name).cloned()
    }

    /// Deployed function names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.borrow().keys().cloned().collect();
        v.sort();
        v
    }
}

impl fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionRegistry").field("functions", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimTime};

    #[test]
    fn cpu_share_scales_with_memory() {
        assert!((cpu_share_for(1792) - 1.0).abs() < 1e-9);
        assert!((cpu_share_for(896) - 0.5).abs() < 1e-9);
        assert!((cpu_share_for(3584) - 2.0).abs() < 1e-9);
        assert!((cpu_share_for(10_000) - 2.0).abs() < 1e-9, "capped at 2 vCPU");
    }

    #[test]
    fn compute_stretches_by_share() {
        let mut sim = Sim::new(1);
        sim.spawn("f", |ctx| {
            let mut env = FnCtx::new(ctx, 896); // half a vCPU
            env.compute(Duration::from_secs(1));
            assert_eq!(env.ctx.now(), SimTime::from_secs(2));
            env.compute(Duration::ZERO);
            assert_eq!(env.ctx.now(), SimTime::from_secs(2));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn registry_register_and_resolve() {
        let reg = FunctionRegistry::new();
        assert!(reg.get("f").is_none());
        reg.register("f", 1792, |_env: &mut FnCtx<'_>, p: Vec<u8>| Ok(p));
        let spec = reg.get("f").expect("registered");
        assert_eq!(spec.memory_mb, 1792);
        assert_eq!(reg.names(), vec!["f".to_string()]);
        // A clone shares state.
        let reg2 = reg.clone();
        reg2.register("g", 512, |_env: &mut FnCtx<'_>, _p: Vec<u8>| Ok(Vec::new()));
        assert!(reg.get("g").is_some());
    }

    #[test]
    fn register_with_policy_sets_the_override() {
        let reg = FunctionRegistry::new();
        reg.register("plain", 1792, |_env: &mut FnCtx<'_>, p: Vec<u8>| Ok(p));
        reg.register_with_policy(
            "forky",
            1792,
            ColdStartPolicy::Fork,
            |_env: &mut FnCtx<'_>, p: Vec<u8>| Ok(p),
        );
        assert_eq!(reg.get("plain").unwrap().cold_start, None);
        assert_eq!(reg.get("forky").unwrap().cold_start, Some(ColdStartPolicy::Fork));
    }
}
