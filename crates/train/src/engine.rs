//! The generic optimization driver: shard-parallel steps, fixed shard-order
//! reduction, schedules, clipping, and observer dispatch.

use std::sync::mpsc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use wsccl_nn::optim::{Adam, Sgd};
use wsccl_nn::{GradStore, Graph, NodeId, Parameters, TensorPool};
use wsccl_obs::{AnomalyGuard, AnomalyKind, Counter, Gauge, Histogram, TapeProfile, TapeProfiler};

use crate::checkpoint::TrainerState;
use crate::observe::{EpochRecord, StepRecord, TrainObserver};
use crate::spec::{OptimizerKind, TrainSpec};
use crate::worker::WorkerPool;

/// A model the engine can train. Implementations own everything the loss
/// needs except the parameter values, which the driver passes in so it can
/// hand them read-only to shard workers and mutably to the optimizer.
///
/// Determinism contract: `epoch_batches` and `build_loss` must derive all
/// randomness from the RNG they are given (epoch RNG and per-shard RNG
/// respectively) — never from ambient state — so a fixed [`TrainSpec::seed`]
/// fixes the whole trajectory regardless of thread count.
pub trait Trainable {
    /// One unit of work for one optimizer step. Shard workers read batches
    /// concurrently, hence `Sync`.
    type Batch: Sync;

    /// The (ordered) batch list for one epoch. `epoch` is the global epoch
    /// counter, which keeps counting across multiple `run` calls on the same
    /// trainer (curriculum stages, resumed runs).
    fn epoch_batches(&mut self, epoch: u64, rng: &mut StdRng) -> Vec<Self::Batch>;

    /// Build one shard's loss node on the tape, drawing any in-step sampling
    /// from `rng` (seeded per shard by the driver). Returning `None` skips
    /// the shard (e.g. a batch with no usable contrastive structure).
    fn build_loss(
        &self,
        g: &mut Graph<'_>,
        batch: &Self::Batch,
        rng: &mut StdRng,
    ) -> Option<NodeId>;

    /// Called after the optimizer applied a step for `batch`, with the
    /// freshly updated parameters (e.g. to update an EMA memory bank).
    fn after_step(&mut self, _params: &Parameters, _batch: &Self::Batch) {}
}

/// The optimizer instantiated from [`OptimizerKind`], checkpointable as part
/// of [`TrainerState`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Optimizer {
    Sgd(Sgd),
    Adam(Adam),
}

impl Optimizer {
    pub fn new(kind: OptimizerKind, lr: f64) -> Self {
        match kind {
            OptimizerKind::Sgd { momentum } => Optimizer::Sgd(Sgd::with_momentum(lr, momentum)),
            OptimizerKind::Adam => Optimizer::Adam(Adam::new(lr)),
        }
    }

    pub fn set_lr(&mut self, lr: f64) {
        match self {
            Optimizer::Sgd(o) => o.set_lr(lr),
            Optimizer::Adam(o) => o.set_lr(lr),
        }
    }

    pub fn step(&mut self, params: &mut Parameters, grads: &GradStore) {
        match self {
            Optimizer::Sgd(o) => o.step(params, grads),
            Optimizer::Adam(o) => o.step(params, grads),
        }
    }
}

/// What one applied optimizer step produced.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Mean loss over the shards that contributed.
    pub loss: f64,
    /// L2 norm of the reduced (averaged) gradient before clipping.
    pub grad_norm: f64,
    /// Learning rate applied at this step.
    pub lr: f64,
    /// Tracked loss terms, averaged over contributing shards in ascending
    /// shard order (empty when the model tracks nothing).
    pub terms: Vec<(&'static str, f64)>,
    /// Wall time per shard in milliseconds, indexed by shard.
    pub shard_ms: Vec<f64>,
}

/// What one shard's tape produced: loss value, parameter gradients, and any
/// scalars the loss builder tracked.
type ShardResult = Option<(f64, GradStore, Vec<(&'static str, f64)>)>;

/// Execute one shard: fresh tape (pooled when a pool is supplied), build the
/// loss, backprop. Identical math with and without a pool or profiler.
/// Returns the result plus the shard's wall time in milliseconds.
fn run_shard<T: Trainable>(
    model: &T,
    params: &Parameters,
    batch: &T::Batch,
    seed: u64,
    mut pool: Option<&mut TensorPool>,
    profiler: Option<&mut TapeProfiler>,
) -> (ShardResult, f64) {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = match pool.as_deref_mut() {
        Some(p) => Graph::new_in(params, p),
        None => Graph::new(params),
    };
    if let Some(pr) = profiler {
        g.set_profiler(pr);
    }
    let Some(loss) = model.build_loss(&mut g, batch, &mut rng) else {
        return (None, start.elapsed().as_secs_f64() * 1000.0);
    };
    let terms = g.take_tracked();
    let (value, grads) = g.finish(loss);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
    if value.is_finite() {
        (Some((value, grads, terms)), elapsed_ms)
    } else {
        // Skipped shard: still hand the gradient buffers home.
        if let Some(p) = pool.as_deref_mut() {
            grads.release_into(p);
        }
        (None, elapsed_ms)
    }
}

/// Name the first parameter whose gradient holds a non-finite element, for
/// anomaly-event context. Only runs after an anomaly was detected.
fn non_finite_grad_context(params: &Parameters, grads: &GradStore) -> String {
    for id in params.ids() {
        if let Some(g) = grads.grad(id) {
            if let Some(v) = g.data().iter().find(|v| !v.is_finite()) {
                return format!("param `{}` gradient element is {v}", params.name(id));
            }
        }
    }
    "no single offending parameter (non-finite arose in reduction)".to_string()
}

/// Cached handles into the global metrics registry ([`wsccl_obs::global`]).
/// Registered once per trainer; recording is a relaxed atomic op, and a
/// no-op while the global registry is disabled (the default).
struct EngineMetrics {
    steps: Counter,
    skipped_steps: Counter,
    step_ms: Histogram,
    loss: Gauge,
    grad_norm: Gauge,
    lr: Gauge,
}

impl EngineMetrics {
    fn new() -> Self {
        let r = wsccl_obs::global();
        Self {
            steps: r.counter("train.steps"),
            skipped_steps: r.counter("train.skipped_steps"),
            step_ms: r.latency_ms("train.step_ms"),
            loss: r.gauge("train.loss"),
            grad_norm: r.gauge("train.grad_norm"),
            lr: r.gauge("train.lr"),
        }
    }
}

/// The stateful training driver. One `Trainer` lives as long as its model:
/// repeated [`Trainer::run`] calls (curriculum stages) keep advancing the
/// same optimizer moments, RNG stream, and step/epoch counters, exactly as
/// the bespoke loops it replaced did.
pub struct Trainer {
    spec: TrainSpec,
    optimizer: Optimizer,
    rng: StdRng,
    step: u64,
    epoch: u64,
    /// One buffer pool per shard (lazily sized). Shard `s` always draws from
    /// `pools[s]`, whichever worker runs it, and the driver returns reduced
    /// gradient buffers to the same pools — so after one warmup epoch the
    /// step loop allocates no tensors. Pure execution state: not part of
    /// [`TrainerState`].
    pools: Vec<TensorPool>,
    /// Persistent shard workers, started on the first `threads > 1` step.
    /// Replaces the old spawn-per-step scoped threads (see DESIGN.md §8).
    workers: Option<WorkerPool>,
    /// Per-shard tape profilers, populated when profiling is enabled. Like
    /// `pools`, pure execution state: shard `s` always writes `profilers[s]`.
    profilers: Vec<TapeProfiler>,
    profiling: bool,
    /// Optional numeric anomaly guard watching losses and gradients.
    guard: Option<AnomalyGuard>,
    /// Handles into the global metrics registry (no-ops while it's disabled).
    metrics: EngineMetrics,
}

impl Trainer {
    /// The engine RNG is salted so a model seeded `s` and trained by an
    /// engine seeded `s` do not share a stream (this matches the historical
    /// `wsc.rs` seeding, keeping pre-engine WSC trajectories reproducible).
    const SEED_SALT: u64 = 0x5C3A;

    pub fn new(spec: TrainSpec) -> Self {
        let optimizer = Optimizer::new(spec.optimizer, spec.lr);
        let rng = StdRng::seed_from_u64(spec.seed ^ Self::SEED_SALT);
        Self {
            spec,
            optimizer,
            rng,
            step: 0,
            epoch: 0,
            pools: Vec::new(),
            workers: None,
            profilers: Vec::new(),
            profiling: false,
            guard: None,
            metrics: EngineMetrics::new(),
        }
    }

    pub fn spec(&self) -> &TrainSpec {
        &self.spec
    }

    /// Override the base learning rate for subsequent steps (the schedule
    /// factor still applies on top). Used by fine-tuning drivers that re-train
    /// a warm-started model at a fraction of the from-scratch rate.
    pub fn set_base_lr(&mut self, lr: f64) {
        self.spec.lr = lr;
    }

    /// Attempted optimizer steps so far (including skipped ones).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Completed epochs so far, across all `run` calls.
    pub fn epoch_count(&self) -> u64 {
        self.epoch
    }

    /// Snapshot everything needed to continue this run elsewhere.
    pub fn state(&self) -> TrainerState {
        TrainerState {
            spec: self.spec.clone(),
            step: self.step,
            epoch: self.epoch,
            rng: self.rng.state(),
            optimizer: self.optimizer.clone(),
        }
    }

    /// Rebuild a trainer mid-run from a [`TrainerState`]. The resumed
    /// trajectory is bit-for-bit the one the snapshotted trainer would have
    /// produced.
    pub fn from_state(state: TrainerState) -> Self {
        Self {
            spec: state.spec,
            optimizer: state.optimizer,
            rng: StdRng::from_state(state.rng),
            step: state.step,
            epoch: state.epoch,
            pools: Vec::new(),
            workers: None,
            profilers: Vec::new(),
            profiling: false,
            guard: None,
            metrics: EngineMetrics::new(),
        }
    }

    /// Combined allocation counters over all shard pools — the hook the
    /// allocation-counting tests and kernel benchmarks use to assert the
    /// zero-allocs-per-step contract.
    pub fn pool_stats(&self) -> wsccl_nn::PoolStats {
        let mut total = wsccl_nn::PoolStats::default();
        for p in &self.pools {
            let s = p.stats();
            total.fresh_allocs += s.fresh_allocs;
            total.reuses += s.reuses;
            total.peak_live += s.peak_live;
        }
        total
    }

    /// Start recording per-op tape timings for every subsequent step. Pure
    /// observability — the training trajectory is unchanged (test-enforced).
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    pub fn profiling_enabled(&self) -> bool {
        self.profiling
    }

    /// Merged per-op forward/backward timings across all shard profilers.
    pub fn profile(&self) -> TapeProfile {
        let mut merged = TapeProfiler::new();
        for p in &self.profilers {
            merged.merge(p);
        }
        merged.snapshot()
    }

    /// Zero the accumulated per-op timings (e.g. after a warmup window).
    pub fn reset_profile(&mut self) {
        for p in &mut self.profilers {
            p.clear();
        }
    }

    /// Attach a numeric anomaly guard. Under `Record`/`Warn` policies the
    /// guard never alters the trajectory; `Abort` panics with context.
    pub fn set_anomaly_guard(&mut self, guard: AnomalyGuard) {
        self.guard = Some(guard);
    }

    pub fn anomaly_guard(&self) -> Option<&AnomalyGuard> {
        self.guard.as_ref()
    }

    pub fn take_anomaly_guard(&mut self) -> Option<AnomalyGuard> {
        self.guard.take()
    }

    /// One optimizer step over `spec.shards` data-parallel shards. Shard
    /// seeds are drawn upfront in shard order from the engine RNG; shard
    /// gradients are reduced in ascending shard index; the averaged gradient
    /// is clipped and applied once. Returns `None` (after still advancing
    /// RNG and step counter) when every shard was skipped.
    pub fn step<T: Trainable + Sync>(
        &mut self,
        model: &mut T,
        params: &mut Parameters,
        batch: &T::Batch,
    ) -> Option<StepOutcome> {
        let step_start = Instant::now();
        let shards = self.spec.shards.max(1);
        let seeds: Vec<u64> = (0..shards).map(|_| self.rng.random()).collect();
        let threads = self.spec.threads.max(1).min(shards);
        let pooling = self.spec.pool_buffers;
        let profiling = self.profiling;
        let step_index = self.step;
        self.step += 1;

        if pooling && self.pools.len() < shards {
            self.pools.resize_with(shards, TensorPool::new);
        }
        if profiling && self.profilers.len() < shards {
            self.profilers.resize_with(shards, TapeProfiler::new);
        }

        let mut shard_ms = vec![0.0f64; shards];
        let results: Vec<ShardResult> = if threads == 1 {
            let shared: &T = model;
            let pools = &mut self.pools;
            let profilers = &mut self.profilers;
            seeds
                .iter()
                .enumerate()
                .map(|(s, &seed)| {
                    let pool = if pooling { pools.get_mut(s) } else { None };
                    let prof = if profiling { profilers.get_mut(s) } else { None };
                    let (r, ms) = run_shard(shared, params, batch, seed, pool, prof);
                    shard_ms[s] = ms;
                    r
                })
                .collect()
        } else {
            let workers = match &mut self.workers {
                Some(w) if w.len() >= threads => w,
                slot => {
                    // First parallel step (or thread count grew): start the
                    // persistent workers. They outlive this step.
                    *slot = Some(WorkerPool::new(threads));
                    slot.as_mut().unwrap()
                }
            };
            let shared: &T = model;
            let params: &Parameters = params;
            // Hand each worker its fixed shard partition t, t+threads, …
            // together with exclusive &mut access to those shards' pools
            // and profilers.
            let mut pool_slots: Vec<Option<&mut TensorPool>> = if pooling {
                self.pools.iter_mut().take(shards).map(Some).collect()
            } else {
                (0..shards).map(|_| None).collect()
            };
            let mut prof_slots: Vec<Option<&mut TapeProfiler>> = if profiling {
                self.profilers.iter_mut().take(shards).map(Some).collect()
            } else {
                (0..shards).map(|_| None).collect()
            };
            let (res_tx, res_rx) = mpsc::channel::<(usize, ShardResult, f64)>();
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
            for t in 0..threads {
                let mut my_shards: Vec<(
                    usize,
                    u64,
                    Option<&mut TensorPool>,
                    Option<&mut TapeProfiler>,
                )> = (t..shards)
                    .step_by(threads)
                    .map(|s| (s, seeds[s], pool_slots[s].take(), prof_slots[s].take()))
                    .collect();
                let tx = res_tx.clone();
                jobs.push(Box::new(move || {
                    for (s, seed, pool, prof) in my_shards.iter_mut() {
                        let (r, ms) = run_shard(
                            shared,
                            params,
                            batch,
                            *seed,
                            pool.as_deref_mut(),
                            prof.as_deref_mut(),
                        );
                        let _ = tx.send((*s, r, ms));
                    }
                }));
            }
            drop(res_tx);
            workers.scoped_run(jobs);
            let mut results: Vec<ShardResult> = (0..shards).map(|_| None).collect();
            for (s, r, ms) in res_rx.try_iter() {
                results[s] = r;
                shard_ms[s] = ms;
            }
            results
        };

        // Reduce in ascending shard order, average, clip, one optimizer step.
        // With pooling, every shard-store buffer either moves into `total` or
        // goes straight back to its shard's pool; `total`'s own buffers are
        // released after the optimizer applies them.
        let mut total = GradStore::new();
        let mut loss_sum = 0.0;
        let mut used = 0usize;
        let mut terms: Vec<(&'static str, f64)> = Vec::new();
        let mut term_counts: Vec<u32> = Vec::new();
        for (s, result) in results.into_iter().enumerate() {
            let Some((value, grads, shard_terms)) = result else { continue };
            if pooling {
                total.accumulate_pooled(grads, &mut self.pools[s]);
            } else {
                total.accumulate(&grads);
            }
            // Sum tracked terms in ascending shard order (deterministic).
            for (name, v) in shard_terms {
                match terms.iter().position(|(n, _)| *n == name) {
                    Some(i) => {
                        terms[i].1 += v;
                        term_counts[i] += 1;
                    }
                    None => {
                        terms.push((name, v));
                        term_counts.push(1);
                    }
                }
            }
            loss_sum += value;
            used += 1;
        }
        self.metrics.steps.inc();
        if used == 0 {
            self.metrics.skipped_steps.inc();
            self.metrics.step_ms.record(step_start.elapsed().as_secs_f64() * 1000.0);
            if let Some(guard) = self.guard.as_mut() {
                // Every shard's loss came out non-finite (or no shard ran).
                guard.observe_loss(step_index, f64::NAN);
            }
            return None;
        }
        for ((_, v), n) in terms.iter_mut().zip(&term_counts) {
            *v /= f64::from(*n);
        }
        total.scale(1.0 / used as f64);
        let grad_norm = total.norm();
        let loss = loss_sum / used as f64;
        if let Some(guard) = self.guard.as_mut() {
            guard.observe_loss(step_index, loss);
            if !grad_norm.is_finite() {
                let context = non_finite_grad_context(params, &total);
                guard.report(step_index, AnomalyKind::NonFiniteGradient, grad_norm, context);
            }
        }
        if let Some(clip) = self.spec.grad_clip {
            if grad_norm > clip && grad_norm > 0.0 {
                total.scale(clip / grad_norm);
            }
        }
        let lr = self.spec.lr * self.spec.schedule.factor(step_index);
        self.optimizer.set_lr(lr);
        self.optimizer.step(params, &total);
        if pooling {
            total.release_into(&mut self.pools[0]);
        }
        model.after_step(params, batch);
        self.metrics.loss.set(loss);
        self.metrics.grad_norm.set(grad_norm);
        self.metrics.lr.set(lr);
        self.metrics.step_ms.record(step_start.elapsed().as_secs_f64() * 1000.0);
        Some(StepOutcome { loss, grad_norm, lr, terms, shard_ms })
    }

    /// Train for `epochs` epochs, returning the mean loss per epoch. Fires
    /// `observer.on_step` exactly once per batch and `on_epoch` once per
    /// epoch.
    pub fn run<T: Trainable + Sync>(
        &mut self,
        model: &mut T,
        params: &mut Parameters,
        epochs: usize,
        observer: &mut dyn TrainObserver,
    ) -> Vec<f64> {
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let epoch = self.epoch;
            let epoch_start = Instant::now();
            let batches = model.epoch_batches(epoch, &mut self.rng);
            let mut loss_sum = 0.0;
            let mut applied = 0usize;
            for batch in &batches {
                let step = self.step;
                let step_start = Instant::now();
                let outcome = self.step(model, params, batch);
                let (loss, grad_norm, lr, terms, shard_ms) = match outcome {
                    Some(o) => {
                        loss_sum += o.loss;
                        applied += 1;
                        (o.loss, o.grad_norm, o.lr, o.terms, o.shard_ms)
                    }
                    None => (f64::NAN, 0.0, 0.0, Vec::new(), Vec::new()),
                };
                observer.on_step(&StepRecord {
                    epoch,
                    step,
                    loss,
                    grad_norm,
                    lr,
                    elapsed: step_start.elapsed(),
                    terms,
                    shard_ms,
                });
            }
            let mean_loss = if applied > 0 { loss_sum / applied as f64 } else { f64::NAN };
            observer.on_epoch(&EpochRecord {
                epoch,
                steps: batches.len(),
                mean_loss,
                elapsed: epoch_start.elapsed(),
            });
            self.epoch += 1;
            history.push(mean_loss);
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{LossCurve, NoopObserver};
    use crate::spec::LrSchedule;
    use wsccl_nn::Tensor;

    /// Minimal trainable: minimize ‖w − target‖² where the per-step target is
    /// drawn from the shard RNG (exercising both RNG channels).
    struct Quadratic {
        w: wsccl_nn::ParamId,
        noisy: bool,
    }

    impl Trainable for Quadratic {
        type Batch = usize;

        fn epoch_batches(&mut self, _epoch: u64, rng: &mut StdRng) -> Vec<usize> {
            let mut order: Vec<usize> = (0..4).collect();
            use rand::seq::SliceRandom;
            order.shuffle(rng);
            order
        }

        fn build_loss(
            &self,
            g: &mut Graph<'_>,
            _batch: &usize,
            rng: &mut StdRng,
        ) -> Option<NodeId> {
            let jitter = if self.noisy { rng.random_range(0.0..0.1) } else { 0.0 };
            let w = g.param(self.w);
            let t = g.input(Tensor::scalar(5.0 + jitter));
            let d = g.sub(w, t);
            Some(g.mul(d, d))
        }
    }

    fn setup() -> (Parameters, Quadratic) {
        let mut params = Parameters::new();
        let w = params.register("w", Tensor::scalar(0.0));
        (params, Quadratic { w, noisy: true })
    }

    #[test]
    fn engine_minimizes_quadratic() {
        let (mut params, mut model) = setup();
        let mut trainer = Trainer::new(TrainSpec::adam(0.1, 40, 1));
        trainer.run(&mut model, &mut params, 40, &mut NoopObserver);
        let w = params.value(model.w).item();
        assert!((w - 5.0).abs() < 0.2, "w = {w}");
    }

    #[test]
    fn observer_fires_once_per_step_and_epoch() {
        let (mut params, mut model) = setup();
        let mut trainer = Trainer::new(TrainSpec::adam(0.05, 3, 2));
        let mut curve = LossCurve::new();
        let history = trainer.run(&mut model, &mut params, 3, &mut curve);
        assert_eq!(curve.step_losses.len(), 3 * 4);
        assert_eq!(curve.epoch_losses.len(), 3);
        assert!(curve.step_losses.iter().all(|l| l.is_finite()));
        assert_eq!(history, curve.epoch_losses);
    }

    #[test]
    fn thread_count_is_invisible_to_training() {
        let run = |threads: usize| {
            let (mut params, mut model) = setup();
            let spec = TrainSpec { shards: 4, threads, ..TrainSpec::adam(0.05, 2, 9) };
            let mut trainer = Trainer::new(spec);
            let hist = trainer.run(&mut model, &mut params, 2, &mut NoopObserver);
            (hist, params.value(model.w).item())
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn pooling_is_invisible_to_training() {
        // Same seed with and without buffer recycling → bit-identical losses
        // and final parameters (the pool's determinism contract).
        let run = |pool_buffers: bool| {
            let (mut params, mut model) = setup();
            let spec = TrainSpec { shards: 2, pool_buffers, ..TrainSpec::adam(0.05, 3, 11) };
            let mut trainer = Trainer::new(spec);
            let hist = trainer.run(&mut model, &mut params, 3, &mut NoopObserver);
            let bits: Vec<u64> = hist.iter().map(|l| l.to_bits()).collect();
            (bits, params.value(model.w).item().to_bits())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn steady_state_steps_allocate_no_tensors() {
        let (mut params, mut model) = setup();
        let mut trainer = Trainer::new(TrainSpec::adam(0.05, 8, 5));
        // Warmup: one epoch visits every batch shape once.
        trainer.run(&mut model, &mut params, 1, &mut NoopObserver);
        let warm = trainer.pool_stats().fresh_allocs;
        assert!(warm > 0, "pooled training must route buffers through the pool");
        trainer.run(&mut model, &mut params, 7, &mut NoopObserver);
        let after = trainer.pool_stats();
        assert_eq!(after.fresh_allocs, warm, "steady-state steps must not heap-allocate tensors");
        assert!(after.reuses > 0);
    }

    #[test]
    fn persistent_workers_survive_across_steps() {
        // Multi-thread training over many steps exercises worker reuse; the
        // trajectory must match the serial one and the pool books must
        // balance (every buffer handed to a worker comes back to the driver).
        let serial = {
            let (mut params, mut model) = setup();
            let spec = TrainSpec { shards: 3, threads: 1, ..TrainSpec::adam(0.05, 4, 13) };
            let mut t = Trainer::new(spec);
            let hist = t.run(&mut model, &mut params, 4, &mut NoopObserver);
            (hist, params.value(model.w).item().to_bits())
        };
        let (mut params, mut model) = setup();
        let spec = TrainSpec { shards: 3, threads: 2, ..TrainSpec::adam(0.05, 4, 13) };
        let mut t = Trainer::new(spec);
        let hist = t.run(&mut model, &mut params, 4, &mut NoopObserver);
        assert_eq!(serial, (hist, params.value(model.w).item().to_bits()));
        assert!(t.pool_stats().reuses > 0);
    }

    #[test]
    fn resume_from_state_is_bit_identical() {
        // Uninterrupted: 6 epochs straight through.
        let (mut params_a, mut model_a) = setup();
        let mut trainer_a = Trainer::new(TrainSpec::adam(0.05, 6, 7));
        let hist_a = trainer_a.run(&mut model_a, &mut params_a, 6, &mut NoopObserver);

        // Interrupted: 2 epochs, snapshot, rebuild, 4 more.
        let (mut params_b, mut model_b) = setup();
        let mut trainer_b = Trainer::new(TrainSpec::adam(0.05, 6, 7));
        let mut hist_b = trainer_b.run(&mut model_b, &mut params_b, 2, &mut NoopObserver);
        let state = trainer_b.state();
        drop(trainer_b);
        let mut resumed = Trainer::from_state(state);
        hist_b.extend(resumed.run(&mut model_b, &mut params_b, 4, &mut NoopObserver));

        assert_eq!(hist_a, hist_b);
        assert_eq!(
            params_a.value(model_a.w).item().to_bits(),
            params_b.value(model_b.w).item().to_bits()
        );
    }

    #[test]
    fn profiling_and_guard_are_invisible_to_training() {
        // Observability fully on (per-op profiler + anomaly guard) vs fully
        // off: bit-identical losses and final parameters.
        let run = |observed: bool| {
            let (mut params, mut model) = setup();
            let spec = TrainSpec { shards: 2, ..TrainSpec::adam(0.05, 3, 21) };
            let mut trainer = Trainer::new(spec);
            if observed {
                trainer.enable_profiling();
                trainer.set_anomaly_guard(AnomalyGuard::new(wsccl_obs::AnomalyPolicy::Record));
            }
            let hist = trainer.run(&mut model, &mut params, 3, &mut NoopObserver);
            if observed {
                let profile = trainer.profile();
                assert!(!profile.ops.is_empty(), "profiler must have seen ops");
                assert!(profile.get("Mul").is_some(), "quadratic loss uses Mul");
                assert!(trainer.anomaly_guard().unwrap().events().is_empty());
            }
            let bits: Vec<u64> = hist.iter().map(|l| l.to_bits()).collect();
            (bits, params.value(model.w).item().to_bits())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn tracked_terms_are_averaged_across_shards() {
        struct Tracked {
            w: wsccl_nn::ParamId,
        }
        impl Trainable for Tracked {
            type Batch = usize;
            fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<usize> {
                vec![0]
            }
            fn build_loss(
                &self,
                g: &mut Graph<'_>,
                _batch: &usize,
                rng: &mut StdRng,
            ) -> Option<NodeId> {
                let jitter = rng.random_range(0.0..1.0);
                let w = g.param(self.w);
                let t = g.input(wsccl_nn::Tensor::scalar(jitter));
                let d = g.sub(w, t);
                let sq = g.mul(d, d);
                g.track_scalar("loss/sq", sq);
                let scaled = g.scale(sq, 0.5);
                g.track_scalar("loss/scaled", scaled);
                Some(scaled)
            }
        }
        let mut params = Parameters::new();
        let w = params.register("w", Tensor::scalar(1.0));
        let mut model = Tracked { w };
        let mut trainer = Trainer::new(TrainSpec { shards: 3, ..TrainSpec::adam(0.01, 1, 4) });
        let outcome = trainer.step(&mut model, &mut params, &0).expect("step applies");
        assert_eq!(outcome.terms.len(), 2);
        assert_eq!(outcome.terms[0].0, "loss/sq");
        assert_eq!(outcome.terms[1].0, "loss/scaled");
        // The mean of the scaled term over shards is half the mean sq term,
        // and the scaled term *is* the loss.
        assert!((outcome.terms[1].1 - outcome.terms[0].1 * 0.5).abs() < 1e-12);
        assert_eq!(outcome.terms[1].1.to_bits(), outcome.loss.to_bits());
        assert_eq!(outcome.shard_ms.len(), 3);
        assert!(outcome.shard_ms.iter().all(|&ms| ms >= 0.0));
    }

    #[test]
    fn guard_names_offending_param_on_non_finite_gradient() {
        // ln(w) at the smallest subnormal: the loss is finite (≈ −744.44) but
        // d/dw ln(w) = 1/w overflows to +inf — a real non-finite gradient
        // from finite arithmetic, caught by the guard with the param's name.
        struct LnLoss {
            w: wsccl_nn::ParamId,
        }
        impl Trainable for LnLoss {
            type Batch = usize;
            fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<usize> {
                vec![0]
            }
            fn build_loss(
                &self,
                g: &mut Graph<'_>,
                _batch: &usize,
                _rng: &mut StdRng,
            ) -> Option<NodeId> {
                let w = g.param(self.w);
                Some(g.ln(w))
            }
        }
        let mut params = Parameters::new();
        let w = params.register("enc.tiny", Tensor::scalar(f64::MIN_POSITIVE * f64::EPSILON));
        assert!(params.value(w).item() > 0.0, "weight must be a positive subnormal");
        let mut model = LnLoss { w };
        let mut trainer = Trainer::new(TrainSpec::adam(0.1, 1, 1));
        trainer.set_anomaly_guard(AnomalyGuard::new(wsccl_obs::AnomalyPolicy::Record));
        let outcome = trainer.step(&mut model, &mut params, &0).expect("loss is finite");
        assert!(outcome.loss.is_finite());
        assert!(!outcome.grad_norm.is_finite());
        let events = trainer.anomaly_guard().unwrap().events();
        let grad_event = events
            .iter()
            .find(|e| e.kind == AnomalyKind::NonFiniteGradient)
            .expect("guard must flag the gradient");
        assert!(
            grad_event.context.contains("enc.tiny"),
            "event must name the offending param, got: {}",
            grad_event.context
        );
    }

    #[test]
    fn injected_nan_gradient_is_attributed_to_its_param() {
        let mut params = Parameters::new();
        let a = params.register("layer.ok", Tensor::scalar(1.0));
        let b = params.register("layer.bad", Tensor::scalar(2.0));
        let mut grads = GradStore::new();
        grads.entry(a, 1, 1).data_mut()[0] = 0.5;
        grads.entry(b, 1, 1).data_mut()[0] = f64::NAN;
        let ctx = non_finite_grad_context(&params, &grads);
        assert!(ctx.contains("layer.bad"), "context was: {ctx}");
        assert!(!ctx.contains("layer.ok"));
    }

    #[test]
    fn trainer_state_roundtrips_through_json() {
        let (mut params, mut model) = setup();
        let spec = TrainSpec {
            optimizer: OptimizerKind::Sgd { momentum: 0.9 },
            schedule: LrSchedule::LinearWarmupDecay {
                warmup_steps: 2,
                decay_steps: 8,
                final_factor: 0.1,
            },
            grad_clip: Some(1.0),
            ..TrainSpec::adam(0.05, 4, 3)
        };
        let mut trainer = Trainer::new(spec);
        trainer.run(&mut model, &mut params, 2, &mut NoopObserver);
        let state = trainer.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: TrainerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back.step, state.step);
        assert_eq!(back.epoch, state.epoch);
        assert_eq!(back.rng, state.rng);

        // And the deserialized state continues identically.
        let mut p2 = params.clone();
        let mut t1 = Trainer::from_state(state);
        let mut t2 = Trainer::from_state(back);
        let h1 = t1.run(&mut model, &mut params, 2, &mut NoopObserver);
        let mut model2 = Quadratic { w: model.w, noisy: true };
        let h2 = t2.run(&mut model2, &mut p2, 2, &mut NoopObserver);
        assert_eq!(h1, h2);
    }
}
