//! One-stop deployment of a Crucial application: the DSO tier, the FaaS
//! platform, and the object store, wired together inside a simulation.

use std::sync::Arc;

use cloudstore::{spawn_s3, S3Config, S3Handle};
use dso::{DsoClientHandle, DsoCluster, DsoConfig, NodeCache, ObjectRegistry};
use faas::{spawn_platform, FaasConfig, FaasHandle, FnCtx, FunctionRegistry, FULL_VCPU_MB};
use parking_lot::Mutex;
use simcore::{FxHashMap, Sim};

use crate::runnable::{function_name, FnEnv, Runnable};
use crate::thread::ThreadFactory;

/// Configuration of a full deployment.
#[derive(Clone, Debug)]
pub struct CrucialConfig {
    /// Number of DSO storage nodes (the paper uses 1 for the ML
    /// experiments, 2 for the micro-benchmarks, 3 for Fig. 8).
    pub dso_nodes: u32,
    /// DSO tier parameters.
    pub dso: DsoConfig,
    /// FaaS platform parameters.
    pub faas: FaasConfig,
    /// Shared-object types available on the servers. Extend it with
    /// application types before calling [`Deployment::start`].
    pub registry: ObjectRegistry,
}

impl Default for CrucialConfig {
    fn default() -> Self {
        CrucialConfig {
            dso_nodes: 1,
            dso: DsoConfig::default(),
            faas: FaasConfig::default(),
            registry: ObjectRegistry::with_builtins(),
        }
    }
}

/// A running Crucial deployment.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Deployment {
    /// The DSO tier.
    pub dso: DsoCluster,
    /// The FaaS platform.
    pub faas: FaasHandle,
    /// The object store for immutable inputs.
    pub s3: S3Handle,
    functions: FunctionRegistry,
    /// One [`NodeCache`] per FaaS host ([`FnCtx::host`]), shared by every
    /// container the platform packs onto that host. Lazily populated the
    /// first time a function runs on a host; `None` when
    /// [`DsoConfig::node_cache`] is off.
    node_caches: Option<Arc<HostCaches>>,
}

/// Host id → the [`NodeCache`] shared by that host's containers.
type HostCaches = Mutex<FxHashMap<u64, Arc<NodeCache>>>;

impl Deployment {
    /// Starts every service of the deployment on `sim`; the object store
    /// runs at [`S3Config::default`].
    pub fn start(sim: &Sim, cfg: CrucialConfig) -> Deployment {
        let dso = DsoCluster::start(sim, cfg.dso_nodes, cfg.dso.clone(), cfg.registry.clone());
        let s3 = spawn_s3(sim, S3Config::default());
        let functions = FunctionRegistry::new();
        let faas = spawn_platform(sim, cfg.faas.clone(), functions.clone());
        let node_caches = cfg.dso.node_cache.then(|| Arc::new(Mutex::new(FxHashMap::default())));
        Deployment { dso, faas, s3, functions, node_caches }
    }

    /// Deploys a [`Runnable`] type with the default memory (one full vCPU).
    pub fn register<R: Runnable>(&self) {
        self.register_with_memory::<R>(FULL_VCPU_MB);
    }

    /// Deploys a [`Runnable`] type with an explicit memory setting
    /// (memory drives both CPU share and billing — §6.2.2's 1792/2048 MB).
    pub fn register_with_memory<R: Runnable>(&self, memory_mb: u32) {
        let dso_handle = self.dso.client_handle();
        let s3 = self.s3.clone();
        let node_caches = self.node_caches.clone();
        self.functions.register(
            &function_name::<R>(),
            memory_mb,
            move |fx: &mut FnCtx<'_>, payload: Vec<u8>| {
                let mut runnable: R =
                    simcore::codec::from_bytes(&payload).map_err(|e| e.to_string())?;
                let dso = match &node_caches {
                    Some(caches) => {
                        let cache = caches.lock().entry(fx.host()).or_default().clone();
                        dso_handle.connect_with_node_cache(cache)
                    }
                    None => dso_handle.connect(),
                };
                let mut env = FnEnv::with_client(fx, dso, dso_handle.clone(), s3.clone());
                runnable.run(&mut env)?;
                Ok(Vec::new())
            },
        );
    }

    /// A factory for cloud threads against this deployment.
    pub fn threads(&self) -> ThreadFactory {
        ThreadFactory::new(self.faas.clone())
    }

    /// A handle for creating DSO clients (e.g. for the master process,
    /// which per Fig. 1 accesses the same state as the cloud threads).
    pub fn dso_handle(&self) -> DsoClientHandle {
        self.dso.client_handle()
    }

    /// The raw function registry (for deploying non-`Runnable` functions).
    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts a deployment whose `faas` was edited in place: the
    /// platform's range checks must run inside `Deployment::start`.
    fn start_with_faas(edit: impl FnOnce(&mut FaasConfig)) {
        let sim = Sim::new(1);
        let mut cfg = CrucialConfig::default();
        edit(&mut cfg.faas);
        let _ = Deployment::start(&sim, cfg);
    }

    #[test]
    #[should_panic(expected = "failure_rate must be within [0, 1]")]
    fn start_rejects_an_out_of_range_failure_rate() {
        start_with_faas(|f| f.failure_rate = 1.5);
    }

    #[test]
    #[should_panic(expected = "concurrency_limit must be >= 1")]
    fn start_rejects_a_zero_concurrency_limit() {
        start_with_faas(|f| f.concurrency_limit = 0);
    }
}
