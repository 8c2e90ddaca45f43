//! The custom `@Shared` objects of the ML applications (Listing 2):
//! `GlobalCentroids`, `GlobalDelta` and (for logistic regression)
//! `GlobalWeights`. Their methods run *on the DSO servers* — the
//! method-call-shipping aggregation that replaces Spark's reduce phase
//! (§4.2, §6.2.2).

use std::collections::BTreeMap;
use std::time::Duration;

use crucial::{
    costs, CallCtx, Ctx, DsoClient, DsoError, Effects, ObjectError, ObjectRegistry, RawHandle,
    SharedObject,
};
use simcore::codec::Wire;

fn dec<T: Wire>(args: &[u8]) -> Result<T, ObjectError> {
    crucial::codec::from_bytes(args).map_err(|e| ObjectError::BadArgs(e.to_string()))
}

fn bulk_cost(bytes: usize) -> Duration {
    costs::SIMPLE_OP + costs::PER_BYTE * bytes as u32
}

/// Registers the ML object types; call before starting the DSO cluster
/// (the analogue of uploading the application jar, §5).
pub fn register_ml_objects(reg: &mut ObjectRegistry) {
    reg.register(GlobalCentroids::TYPE, GlobalCentroids::factory);
    reg.register(GlobalDelta::TYPE, GlobalDelta::factory);
    reg.register(GlobalWeights::TYPE, GlobalWeights::factory);
}

// ---------------------------------------------------------------------------
// GlobalCentroids
// ---------------------------------------------------------------------------

/// Server-side centroid aggregator: workers push partial sums/counts; the
/// last contribution of a round folds them into the next generation of
/// centroids.
#[derive(Debug, Default, Clone, Wire)]
pub struct GlobalCentroids {
    k: u32,
    dims: u32,
    workers: u32,
    generation: u64,
    /// Current centroids, flattened row-major (k × dims).
    current: Vec<f64>,
    acc_sums: Vec<f64>,
    acc_counts: Vec<u64>,
    contributions: u32,
}

/// Creation arguments for [`GlobalCentroids`].
#[derive(Debug, Clone, Wire)]
pub struct CentroidsInit {
    /// Number of clusters.
    pub k: u32,
    /// Dimensions.
    pub dims: u32,
    /// Contributions per round (number of cloud threads).
    pub workers: u32,
    /// Initial centroids, flattened (k × dims).
    pub initial: Vec<f64>,
}

impl GlobalCentroids {
    /// Registry type name.
    pub const TYPE: &'static str = "GlobalCentroids";

    /// Builds the state machine from its creation arguments. Shared by the
    /// DSO factory and the Redis-script variant (Fig. 5), so both backends
    /// run the same aggregation logic.
    ///
    /// # Errors
    ///
    /// Fails when the initial centroids do not match `k × dims`.
    pub fn new_init(init: CentroidsInit) -> Result<GlobalCentroids, ObjectError> {
        if init.initial.len() != (init.k * init.dims) as usize {
            return Err(ObjectError::BadState(format!(
                "initial centroids: expected {} values, got {}",
                init.k * init.dims,
                init.initial.len()
            )));
        }
        Ok(GlobalCentroids {
            k: init.k,
            dims: init.dims,
            workers: init.workers.max(1),
            generation: 0,
            acc_sums: vec![0.0; init.initial.len()],
            acc_counts: vec![0; init.k as usize],
            current: init.initial,
            contributions: 0,
        })
    }

    /// Factory from [`CentroidsInit`] creation args.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjectError> {
        if args.is_empty() {
            return Ok(Box::<GlobalCentroids>::default());
        }
        let init: CentroidsInit =
            crucial::codec::from_bytes(args).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(Box::new(GlobalCentroids::new_init(init)?))
    }

    /// `(generation, flattened centroids)` — the payload of `read`.
    pub fn snapshot(&self) -> (u64, Vec<f64>) {
        (self.generation, self.current.clone())
    }

    /// Accumulates one worker's partials; the last contribution of a round
    /// folds them into the next generation. Returns the generation after
    /// the update.
    ///
    /// # Errors
    ///
    /// Fails on shape mismatch.
    pub fn apply_update(&mut self, sums: &[f64], counts: &[u64]) -> Result<u64, ObjectError> {
        if sums.len() != self.acc_sums.len() || counts.len() != self.acc_counts.len() {
            return Err(ObjectError::BadArgs(format!(
                "update shape mismatch: {}x{} expected",
                self.k, self.dims
            )));
        }
        for (a, s) in self.acc_sums.iter_mut().zip(sums) {
            *a += s;
        }
        for (a, c) in self.acc_counts.iter_mut().zip(counts) {
            *a += c;
        }
        self.contributions += 1;
        if self.contributions == self.workers {
            let d = self.dims as usize;
            for c in 0..self.k as usize {
                if self.acc_counts[c] > 0 {
                    let n = self.acc_counts[c] as f64;
                    for j in 0..d {
                        self.current[c * d + j] = self.acc_sums[c * d + j] / n;
                    }
                }
            }
            self.acc_sums.iter_mut().for_each(|x| *x = 0.0);
            self.acc_counts.iter_mut().for_each(|x| *x = 0);
            self.contributions = 0;
            self.generation += 1;
        }
        Ok(self.generation)
    }
}

impl SharedObject for GlobalCentroids {
    fn invoke(
        &mut self,
        _call: &CallCtx,
        method: &str,
        args: &[u8],
    ) -> Result<Effects, ObjectError> {
        match method {
            // (sums, counts): accumulate one worker's partials.
            "update" => {
                let (sums, counts): (Vec<f64>, Vec<u64>) = dec(args)?;
                let payload = sums.len() * 8 + counts.len() * 8;
                let generation = self.apply_update(&sums, &counts)?;
                Effects::value_with_cost(&generation, bulk_cost(payload))
            }
            other => Err(ObjectError::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjectError>> {
        Some(match method {
            // -> (generation, flattened centroids)
            "read" => Effects::value_with_cost(&self.snapshot(), bulk_cost(self.current.len() * 8)),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        crucial::codec::to_bytes(self).expect("centroids encode")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError> {
        *self =
            crucial::codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(())
    }
}

/// Typed client handle for [`GlobalCentroids`].
#[derive(Clone, Debug, Wire)]
pub struct CentroidsHandle {
    raw: RawHandle,
    k: u32,
    dims: u32,
}

impl CentroidsHandle {
    /// Handle to an ephemeral centroid aggregator.
    pub fn new(key: &str, init: CentroidsInit) -> CentroidsHandle {
        Self::with_rf(key, init, 1)
    }

    /// Handle to a replicated (persistent) aggregator — used by the Fig. 8
    /// serving experiment where the trained model must survive failures.
    pub fn persistent(key: &str, init: CentroidsInit, rf: u8) -> CentroidsHandle {
        Self::with_rf(key, init, rf)
    }

    fn with_rf(key: &str, init: CentroidsInit, rf: u8) -> CentroidsHandle {
        let (k, dims) = (init.k, init.dims);
        CentroidsHandle { raw: RawHandle::new(GlobalCentroids::TYPE, key, rf, &init), k, dims }
    }

    /// Reads `(generation, centroids)` (un-flattened).
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn read(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
    ) -> Result<(u64, Vec<Vec<f64>>), DsoError> {
        let (generation, flat): (u64, Vec<f64>) = self.raw.call_read(ctx, cli, "read", &())?;
        let d = self.dims as usize;
        let centroids = flat.chunks(d).map(<[f64]>::to_vec).collect();
        Ok((generation, centroids))
    }

    /// Pushes one worker's partial sums and counts; returns the generation
    /// after this update.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn update(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        sums: &[Vec<f64>],
        counts: &[u64],
    ) -> Result<u64, DsoError> {
        let flat: Vec<f64> = sums.iter().flatten().copied().collect();
        self.raw.call(ctx, cli, "update", &(flat, counts.to_vec()))
    }

    /// Number of clusters.
    pub fn k(&self) -> u32 {
        self.k
    }
}

// ---------------------------------------------------------------------------
// GlobalDelta
// ---------------------------------------------------------------------------

/// Per-generation sum accumulator: the convergence criterion of Listing 2.
#[derive(Debug, Default, Clone, Wire)]
pub struct GlobalDelta {
    sums: BTreeMap<u64, (f64, u32)>,
}

impl GlobalDelta {
    /// Registry type name.
    pub const TYPE: &'static str = "GlobalDelta";

    /// Factory (no creation arguments).
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjectError> {
        if !args.is_empty() {
            let _: () = crucial::codec::from_bytes(args)
                .map_err(|e| ObjectError::BadState(e.to_string()))?;
        }
        Ok(Box::<GlobalDelta>::default())
    }
}

impl SharedObject for GlobalDelta {
    fn invoke(
        &mut self,
        _call: &CallCtx,
        method: &str,
        args: &[u8],
    ) -> Result<Effects, ObjectError> {
        match method {
            "add" => {
                let (generation, v): (u64, f64) = dec(args)?;
                let e = self.sums.entry(generation).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
                Effects::value(&e.0)
            }
            other => Err(ObjectError::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, args: &[u8]) -> Option<Result<Effects, ObjectError>> {
        Some(match method {
            // -> (sum, contributions) for a generation
            "get" => dec(args).and_then(|generation: u64| {
                Effects::value(&self.sums.get(&generation).copied().unwrap_or((0.0, 0)))
            }),
            "history" => {
                let hist: Vec<(u64, f64, u32)> =
                    self.sums.iter().map(|(g, (s, n))| (*g, *s, *n)).collect();
                Effects::value_with_cost(&hist, bulk_cost(hist.len() * 20))
            }
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        crucial::codec::to_bytes(self).expect("delta encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError> {
        *self =
            crucial::codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(())
    }
}

/// Typed client handle for [`GlobalDelta`].
#[derive(Clone, Debug, Wire)]
pub struct DeltaHandle {
    raw: RawHandle,
}

impl DeltaHandle {
    /// Handle to an ephemeral delta accumulator.
    pub fn new(key: &str) -> DeltaHandle {
        DeltaHandle { raw: RawHandle::new(GlobalDelta::TYPE, key, 1, &()) }
    }

    /// Adds a worker's contribution for a generation; returns the running
    /// sum.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn add(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        generation: u64,
        v: f64,
    ) -> Result<f64, DsoError> {
        self.raw.call(ctx, cli, "add", &(generation, v))
    }

    /// Reads `(sum, contributions)` for a generation.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn get(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        generation: u64,
    ) -> Result<(f64, u32), DsoError> {
        self.raw.call_read(ctx, cli, "get", &generation)
    }

    /// Full per-generation history `(generation, sum, contributions)`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn history(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
    ) -> Result<Vec<(u64, f64, u32)>, DsoError> {
        self.raw.call_read(ctx, cli, "history", &())
    }
}

// ---------------------------------------------------------------------------
// GlobalWeights (logistic regression)
// ---------------------------------------------------------------------------

/// Server-side weight vector for logistic regression: workers push
/// gradients and losses; the last contribution applies the averaged
/// gradient step and records the loss (Fig. 4b's series).
#[derive(Debug, Default, Clone, Wire)]
pub struct GlobalWeights {
    dims: u32,
    workers: u32,
    learning_rate: f64,
    generation: u64,
    weights: Vec<f64>,
    acc_grad: Vec<f64>,
    acc_loss: f64,
    contributions: u32,
    losses: Vec<f64>,
}

/// Creation arguments for [`GlobalWeights`].
#[derive(Debug, Clone, Wire)]
pub struct WeightsInit {
    /// Dimensions.
    pub dims: u32,
    /// Contributions per round.
    pub workers: u32,
    /// SGD step size.
    pub learning_rate: f64,
}

impl GlobalWeights {
    /// Registry type name.
    pub const TYPE: &'static str = "GlobalWeights";

    /// Factory from [`WeightsInit`].
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjectError> {
        if args.is_empty() {
            return Ok(Box::<GlobalWeights>::default());
        }
        let init: WeightsInit =
            crucial::codec::from_bytes(args).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(Box::new(GlobalWeights {
            dims: init.dims,
            workers: init.workers.max(1),
            learning_rate: init.learning_rate,
            generation: 0,
            weights: vec![0.0; init.dims as usize],
            acc_grad: vec![0.0; init.dims as usize],
            acc_loss: 0.0,
            contributions: 0,
            losses: Vec::new(),
        }))
    }
}

impl SharedObject for GlobalWeights {
    fn invoke(
        &mut self,
        _call: &CallCtx,
        method: &str,
        args: &[u8],
    ) -> Result<Effects, ObjectError> {
        match method {
            // (gradient, loss): push one worker's contribution.
            "update" => {
                let (grad, loss): (Vec<f64>, f64) = dec(args)?;
                if grad.len() != self.acc_grad.len() {
                    return Err(ObjectError::BadArgs("gradient shape mismatch".to_string()));
                }
                for (a, g) in self.acc_grad.iter_mut().zip(&grad) {
                    *a += g;
                }
                self.acc_loss += loss;
                self.contributions += 1;
                if self.contributions == self.workers {
                    let scale = self.learning_rate / self.workers as f64;
                    for (w, g) in self.weights.iter_mut().zip(&self.acc_grad) {
                        *w -= scale * g;
                    }
                    self.losses.push(self.acc_loss / self.workers as f64);
                    self.acc_grad.iter_mut().for_each(|x| *x = 0.0);
                    self.acc_loss = 0.0;
                    self.contributions = 0;
                    self.generation += 1;
                }
                Effects::value_with_cost(&self.generation, bulk_cost(grad.len() * 8))
            }
            other => Err(ObjectError::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, _args: &[u8]) -> Option<Result<Effects, ObjectError>> {
        Some(match method {
            "read" => {
                let reply = (self.generation, self.weights.clone());
                Effects::value_with_cost(&reply, bulk_cost(self.weights.len() * 8))
            }
            "losses" => Effects::value_with_cost(&self.losses, bulk_cost(self.losses.len() * 8)),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        crucial::codec::to_bytes(self).expect("weights encode")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError> {
        *self =
            crucial::codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(())
    }
}

/// Typed client handle for [`GlobalWeights`].
#[derive(Clone, Debug, Wire)]
pub struct WeightsHandle {
    raw: RawHandle,
}

impl WeightsHandle {
    /// Handle to an ephemeral weight vector.
    pub fn new(key: &str, init: WeightsInit) -> WeightsHandle {
        WeightsHandle { raw: RawHandle::new(GlobalWeights::TYPE, key, 1, &init) }
    }

    /// Reads `(generation, weights)`.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn read(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<(u64, Vec<f64>), DsoError> {
        self.raw.call_read(ctx, cli, "read", &())
    }

    /// Pushes a gradient and loss; returns the generation after the update.
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn update(
        &self,
        ctx: &mut Ctx,
        cli: &mut DsoClient,
        grad: &[f64],
        loss: f64,
    ) -> Result<u64, DsoError> {
        self.raw.call(ctx, cli, "update", &(grad.to_vec(), loss))
    }

    /// The per-iteration loss series (Fig. 4b).
    ///
    /// # Errors
    ///
    /// Propagates [`DsoError`].
    pub fn losses(&self, ctx: &mut Ctx, cli: &mut DsoClient) -> Result<Vec<f64>, DsoError> {
        self.raw.call_read(ctx, cli, "losses", &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crucial::Ticket;

    fn call<R: Wire>(obj: &mut dyn SharedObject, method: &str, args: &impl Wire) -> R {
        let cc = CallCtx { ticket: Ticket(0), replicated: false };
        let bytes = crucial::codec::to_bytes(args).expect("encode");
        match crucial::dispatch(obj, &cc, method, &bytes, false).expect("invoke").0.reply {
            crucial::Reply::Value(v) => crucial::codec::from_bytes(&v).expect("decode"),
            crucial::Reply::Park => panic!("unexpected park"),
        }
    }

    fn centroids(k: u32, dims: u32, workers: u32) -> Box<dyn SharedObject> {
        let init = CentroidsInit { k, dims, workers, initial: vec![0.0; (k * dims) as usize] };
        GlobalCentroids::factory(&crucial::codec::to_bytes(&init).expect("encode"))
            .expect("factory")
    }

    #[test]
    fn centroids_fold_after_all_workers() {
        let mut o = centroids(2, 2, 2);
        // Worker A: cluster 0 gets (2,2) from 1 point.
        let g: u64 = call(o.as_mut(), "update", &(vec![2.0, 2.0, 0.0, 0.0], vec![1u64, 0u64]));
        assert_eq!(g, 0, "not folded yet");
        // Worker B: cluster 0 gets (4,4) from 1 point; cluster 1 (6,0)/2.
        let g: u64 = call(o.as_mut(), "update", &(vec![4.0, 4.0, 6.0, 0.0], vec![1u64, 2u64]));
        assert_eq!(g, 1, "folded after the last contribution");
        let (generation, flat): (u64, Vec<f64>) = call(o.as_mut(), "read", &());
        assert_eq!(generation, 1);
        assert_eq!(flat, vec![3.0, 3.0, 3.0, 0.0]);
    }

    #[test]
    fn centroids_keep_old_position_for_empty_clusters() {
        let init = CentroidsInit { k: 2, dims: 1, workers: 1, initial: vec![5.0, 9.0] };
        let mut o = GlobalCentroids::factory(&crucial::codec::to_bytes(&init).expect("encode"))
            .expect("factory");
        let _: u64 = call(o.as_mut(), "update", &(vec![20.0, 0.0], vec![2u64, 0u64]));
        let (_, flat): (u64, Vec<f64>) = call(o.as_mut(), "read", &());
        assert_eq!(flat, vec![10.0, 9.0], "empty cluster 1 keeps its position");
    }

    #[test]
    fn centroids_shape_mismatch_rejected() {
        let mut o = centroids(2, 2, 1);
        let cc = CallCtx { ticket: Ticket(0), replicated: false };
        let bad = crucial::codec::to_bytes(&(vec![1.0], vec![1u64])).expect("encode");
        assert!(o.invoke(&cc, "update", &bad).is_err());
    }

    #[test]
    fn delta_accumulates_per_generation() {
        let mut o = GlobalDelta::factory(&[]).expect("factory");
        let s: f64 = call(o.as_mut(), "add", &(0u64, 1.5));
        assert_eq!(s, 1.5);
        let s: f64 = call(o.as_mut(), "add", &(0u64, 2.5));
        assert_eq!(s, 4.0);
        let _: f64 = call(o.as_mut(), "add", &(1u64, 10.0));
        let (sum, n): (f64, u32) = call(o.as_mut(), "get", &0u64);
        assert_eq!((sum, n), (4.0, 2));
        let hist: Vec<(u64, f64, u32)> = call(o.as_mut(), "history", &());
        assert_eq!(hist.len(), 2);
    }

    #[test]
    fn weights_apply_averaged_gradient_step() {
        let init = WeightsInit { dims: 2, workers: 2, learning_rate: 0.5 };
        let mut o = GlobalWeights::factory(&crucial::codec::to_bytes(&init).expect("encode"))
            .expect("factory");
        let _: u64 = call(o.as_mut(), "update", &(vec![1.0, 0.0], 0.7));
        let g: u64 = call(o.as_mut(), "update", &(vec![3.0, 2.0], 0.9));
        assert_eq!(g, 1);
        let (generation, w): (u64, Vec<f64>) = call(o.as_mut(), "read", &());
        assert_eq!(generation, 1);
        // w -= lr/workers * acc = 0.25 * (4, 2)
        assert_eq!(w, vec![-1.0, -0.5]);
        let losses: Vec<f64> = call(o.as_mut(), "losses", &());
        assert_eq!(losses, vec![0.8]);
    }

    /// The read-only surface, pinned: `read` answers exactly these
    /// `(type, method)` pairs and declines every write.
    #[test]
    fn read_serves_exactly_the_read_only_methods() {
        // (type, served by `read`, left to `invoke`)
        let table: [(&str, &[&str], &[&str]); 3] = [
            (GlobalCentroids::TYPE, &["read"], &["update"]),
            (GlobalDelta::TYPE, &["get", "history"], &["add"]),
            (GlobalWeights::TYPE, &["read", "losses"], &["update"]),
        ];
        let mut reg = ObjectRegistry::new();
        register_ml_objects(&mut reg);
        assert_eq!(table.len(), reg.type_names().len(), "an ML object is missing from the table");
        // Probing every name on every type catches a method that moved.
        let names: Vec<&str> =
            table.iter().flat_map(|(_, r, w)| r.iter().chain(*w)).copied().collect();
        for (ty, reads, _) in table {
            let obj = reg.create(ty, &[]).expect("default-create");
            for name in &names {
                let served = obj.read(name, &[]).is_some();
                assert_eq!(served, reads.contains(name), "{ty}::{name} served by read: {served}");
            }
        }
    }

    /// Every typed-handle method that takes the read fast path, once
    /// against a live node: the server must serve each from `read`.
    #[test]
    fn every_typed_read_is_served_on_the_read_path() {
        let mut sim = crucial::Sim::new(31);
        let mut reg = ObjectRegistry::new();
        register_ml_objects(&mut reg);
        let cluster = crucial::DsoCluster::start(&sim, 1, crucial::DsoConfig::default(), reg);
        let handle = cluster.client_handle();
        let checked = std::sync::Arc::new(parking_lot::Mutex::new(false));
        let checked2 = checked.clone();
        sim.spawn("client", move |ctx| {
            let cli = &mut handle.connect();
            let init = CentroidsInit { k: 1, dims: 2, workers: 1, initial: vec![1.0, 2.0] };
            let centroids = CentroidsHandle::new("c", init);
            assert_eq!(centroids.read(ctx, cli), Ok((0, vec![vec![1.0, 2.0]])));
            let delta = DeltaHandle::new("d");
            delta.add(ctx, cli, 0, 1.5).expect("write");
            assert_eq!(delta.get(ctx, cli, 0), Ok((1.5, 1)));
            assert_eq!(delta.history(ctx, cli), Ok(vec![(0, 1.5, 1)]));
            let init = WeightsInit { dims: 1, workers: 1, learning_rate: 0.5 };
            let weights = WeightsHandle::new("w", init);
            weights.update(ctx, cli, &[2.0], 0.25).expect("write");
            assert_eq!(weights.read(ctx, cli), Ok((1, vec![-1.0])));
            assert_eq!(weights.losses(ctx, cli), Ok(vec![0.25]));
            *checked2.lock() = true;
        });
        sim.run_until_idle().expect_quiescent();
        assert!(*checked.lock());
    }

    #[test]
    fn save_restore_round_trips() {
        let mut o = centroids(2, 3, 2);
        let _: u64 = call(o.as_mut(), "update", &(vec![1.0; 6], vec![1u64, 1u64]));
        let state = o.save();
        let mut o2 = GlobalCentroids::default();
        o2.restore(&state).expect("restore");
        assert_eq!(o2.contributions, 1);
        assert_eq!(o2.k, 2);
    }
}
