//! The WSC base model (Fig. 5): temporal path encoder + WSC losses, trained
//! through the shared [`wsccl_train`] engine.
//!
//! Training is data-parallel: each step draws `cfg.shards` independent
//! sub-batches, runs forward + backward for every shard on its own tape over
//! the *shared* parameter values, reduces the shard gradients in shard order,
//! and applies a single optimizer step. The shard count is part of the math
//! (it determines which negatives each query sees); the thread count is not —
//! for a fixed seed and shard count, training is bit-for-bit identical at any
//! `cfg.threads`. All of that now lives in [`wsccl_train::Trainer`]; this
//! module only knows how to build one shard's loss.

use std::sync::Arc;

use rand::rngs::StdRng;

use wsccl_datagen::SamplePool;
use wsccl_nn::{Graph, NodeId, Parameters};
use wsccl_roadnet::{Path, RoadNetwork};
use wsccl_traffic::{SimTime, WeakLabeler};
use wsccl_train::{
    LrSchedule, NoopObserver, OptimizerKind, TrainObserver, TrainSpec, Trainable, Trainer,
};

use crate::config::WscclConfig;
use crate::encoder::{EncoderWeights, FrozenEncoder, TemporalPathEncoder};
use crate::loss::{wsc_loss_with_temperature, EncodedBatch};
use crate::persist::EngineCheckpoint;
use crate::represent::PathRepresenter;
use crate::sampler::build_batch;

/// A trainable WSC model instance. The (expensive, frozen) encoder tables are
/// shared via `Arc`; the trainable weights are private to this instance.
pub struct WscModel {
    encoder: Arc<TemporalPathEncoder>,
    params: Parameters,
    weights: EncoderWeights,
    trainer: Trainer,
    cfg: WscclConfig,
    /// Mean training loss per epoch, for diagnostics and tests.
    pub loss_history: Vec<f64>,
}

/// Map the model config onto an engine spec: Adam at a constant rate with
/// clipping, shard/thread knobs passed straight through.
fn train_spec(cfg: &WscclConfig, seed: u64) -> TrainSpec {
    TrainSpec {
        epochs: cfg.epochs,
        optimizer: OptimizerKind::Adam,
        lr: cfg.lr,
        schedule: LrSchedule::Constant,
        grad_clip: Some(cfg.grad_clip),
        seed,
        shards: cfg.shards,
        threads: cfg.threads,
        pool_buffers: cfg.pooling,
    }
}

/// WSC as seen by the engine. Every batch is a unit marker: the actual
/// sub-batch is sampled inside the shard from the shard RNG, so each of the
/// `cfg.shards` shards sees its own independently drawn sub-batch. Everything
/// a shard computes is a pure function of `(params, weights, cfg, shard
/// seed)`, which is what makes the thread schedule irrelevant to the result.
struct WscTrainable<'a, P: SamplePool + ?Sized> {
    encoder: &'a TemporalPathEncoder,
    weights: &'a EncoderWeights,
    cfg: &'a WscclConfig,
    pool: &'a P,
    labeler: &'a (dyn WeakLabeler + Sync),
    /// Per-shard batch size; `build_batch` clamps to at least one anchor
    /// block, so over-sharding degrades gracefully.
    per_shard: usize,
    /// Steps per epoch.
    steps: usize,
}

impl<'a, P: SamplePool + ?Sized> WscTrainable<'a, P> {
    fn new(
        encoder: &'a TemporalPathEncoder,
        weights: &'a EncoderWeights,
        cfg: &'a WscclConfig,
        pool: &'a P,
        labeler: &'a (dyn WeakLabeler + Sync),
        steps: usize,
    ) -> Self {
        let per_shard = (cfg.batch_size / cfg.shards.max(1)).max(1);
        Self { encoder, weights, cfg, pool, labeler, per_shard, steps }
    }
}

impl<P: SamplePool + ?Sized> Trainable for WscTrainable<'_, P> {
    type Batch = ();

    fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<()> {
        vec![(); self.steps]
    }

    fn build_loss(&self, g: &mut Graph<'_>, _batch: &(), rng: &mut StdRng) -> Option<NodeId> {
        let items = build_batch(rng, self.pool, self.labeler, self.per_shard);
        let mut tprs = Vec::with_capacity(items.len());
        let mut sters = Vec::with_capacity(items.len());
        for item in &items {
            let (tpr, st) = self.encoder.forward(g, self.weights, &item.path, item.departure);
            tprs.push(tpr);
            sters.push(st);
        }
        let batch = EncodedBatch { items: &items, tprs, sters };
        wsc_loss_with_temperature(
            g,
            &batch,
            rng,
            self.cfg.lambda,
            self.cfg.local_edges,
            self.cfg.temperature,
        )
    }
}

impl WscModel {
    pub fn new(encoder: Arc<TemporalPathEncoder>, cfg: WscclConfig, seed: u64) -> Self {
        let mut params = Parameters::new();
        let weights = encoder.init_weights(&mut params, seed);
        let trainer = Trainer::new(train_spec(&cfg, seed));
        Self { encoder, params, weights, trainer, cfg, loss_history: Vec::new() }
    }

    pub fn encoder(&self) -> &TemporalPathEncoder {
        &self.encoder
    }

    pub fn config(&self) -> &WscclConfig {
        &self.cfg
    }

    /// Override the base learning rate for subsequent training (fine-tuning
    /// a warm-started model at a fraction of the from-scratch rate). Does not
    /// touch `config().lr`, which stays the from-scratch rate.
    pub fn set_lr(&mut self, lr: f64) {
        self.trainer.set_base_lr(lr);
    }

    /// Tape buffer-pool statistics accumulated by the training engine (all
    /// zeros when `cfg.pooling` is off).
    pub fn pool_stats(&self) -> wsccl_nn::PoolStats {
        self.trainer.pool_stats()
    }

    /// Start per-op tape profiling for every subsequent training step.
    /// Profiling observes timing only and never changes the math.
    pub fn enable_profiling(&mut self) {
        self.trainer.enable_profiling();
    }

    /// Merged per-op forward/backward timings across all shards.
    pub fn profile(&self) -> wsccl_obs::TapeProfile {
        self.trainer.profile()
    }

    /// Discard accumulated profile data (profiling stays enabled).
    pub fn reset_profile(&mut self) {
        self.trainer.reset_profile();
    }

    /// Install a numeric anomaly guard on the underlying trainer. The guard
    /// watches every step's loss and gradient norm.
    pub fn set_anomaly_guard(&mut self, guard: wsccl_obs::AnomalyGuard) {
        self.trainer.set_anomaly_guard(guard);
    }

    /// The installed anomaly guard, if any, with its recorded events.
    pub fn anomaly_guard(&self) -> Option<&wsccl_obs::AnomalyGuard> {
        self.trainer.anomaly_guard()
    }

    /// One optimization step over `cfg.shards` data-parallel sub-batches.
    /// Returns the mean shard loss, or `None` if no shard had usable
    /// contrastive structure. The pool may live in memory or be an
    /// mmap-backed [`wsccl_datagen::DiskDataset`]; the math is identical.
    pub fn train_step<P: SamplePool + ?Sized>(
        &mut self,
        pool: &P,
        labeler: &(dyn WeakLabeler + Sync),
    ) -> Option<f64> {
        let Self { encoder, params, weights, trainer, cfg, .. } = self;
        let mut t = WscTrainable::new(encoder, weights, cfg, pool, labeler, 1);
        trainer.step(&mut t, params, &()).map(|o| o.loss)
    }

    /// Train for `epochs` passes of `pool.len() / batch_size` steps each.
    pub fn train<P: SamplePool + ?Sized>(
        &mut self,
        pool: &P,
        labeler: &(dyn WeakLabeler + Sync),
        epochs: usize,
    ) {
        self.train_observed(pool, labeler, epochs, &mut NoopObserver);
    }

    /// [`Self::train`] with a [`TrainObserver`] receiving per-step and
    /// per-epoch records.
    pub fn train_observed<P: SamplePool + ?Sized>(
        &mut self,
        pool: &P,
        labeler: &(dyn WeakLabeler + Sync),
        epochs: usize,
        observer: &mut dyn TrainObserver,
    ) {
        assert!(!pool.is_empty(), "cannot train on an empty pool");
        let Self { encoder, params, weights, trainer, cfg, loss_history } = self;
        let steps = (pool.len() / cfg.batch_size).max(1);
        let mut t = WscTrainable::new(encoder, weights, cfg, pool, labeler, steps);
        let history = trainer.run(&mut t, params, epochs, observer);
        loss_history.extend(history);
    }

    /// Snapshot the full training run (weights + optimizer moments + engine
    /// RNG + counters). `encoder_seed` is the seed the frozen encoder tables
    /// were built from, so [`Self::resume`] can rebuild them.
    pub fn checkpoint(&self, encoder_seed: u64) -> EngineCheckpoint {
        EngineCheckpoint::new(
            self.encoder.config().clone(),
            encoder_seed,
            self.cfg.clone(),
            self.params.clone(),
            self.weights.clone(),
            self.trainer.state(),
            self.loss_history.clone(),
        )
    }

    /// Continue a checkpointed run, rebuilding the frozen encoder tables
    /// from `(encoder_config, encoder_seed)`. The resumed model's trajectory
    /// is bit-for-bit the one the checkpointed model would have produced.
    pub fn resume(net: &RoadNetwork, cp: EngineCheckpoint) -> Self {
        let encoder =
            Arc::new(TemporalPathEncoder::new(net, cp.encoder_config.clone(), cp.encoder_seed));
        Self::resume_with_encoder(encoder, cp)
    }

    /// [`Self::resume`] with an already-built (shared) encoder.
    pub fn resume_with_encoder(encoder: Arc<TemporalPathEncoder>, cp: EngineCheckpoint) -> Self {
        Self {
            encoder,
            params: cp.params,
            weights: cp.weights,
            trainer: Trainer::from_state(cp.trainer),
            cfg: cp.config,
            loss_history: cp.loss_history,
        }
    }

    /// Embed one temporal path.
    pub fn embed(&self, path: &Path, departure: SimTime) -> Vec<f64> {
        self.encoder.embed(&self.params, &self.weights, path, departure)
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// Freeze into a shareable [`PathRepresenter`].
    pub fn into_representer(self, name: impl Into<String>) -> TrainedRepresenter {
        TrainedRepresenter::from_parts(self.encoder, self.params, self.weights, name)
    }

    /// Borrow the trained weights (for transfer, e.g. pre-training PathRank).
    pub fn weights(&self) -> (&Parameters, &EncoderWeights) {
        (&self.params, &self.weights)
    }

    /// Global optimizer step counter (survives checkpoint/resume).
    pub fn global_step(&self) -> u64 {
        self.trainer.step_count()
    }

    /// Mutable access to the trainable parameters. Intended for test
    /// instrumentation (e.g. fault injection); mutating mid-run forfeits the
    /// bit-reproducibility guarantees.
    pub fn params_mut(&mut self) -> &mut Parameters {
        &mut self.params
    }
}

/// A frozen, thread-safe representer produced by training.
///
/// `represent` is lock-free: inference builds a throwaway tape over shared
/// read-only state, so any number of threads can embed concurrently through a
/// plain `&TrainedRepresenter` without synchronization or weight copies.
///
/// Construction additionally freezes an f32 copy of the trained weights
/// (LSTM arch only) so [`TrainedRepresenter::embed`] can skip the tape
/// entirely; `represent` stays on the f64 path as the precision oracle.
pub struct TrainedRepresenter {
    encoder: Arc<TemporalPathEncoder>,
    params: Parameters,
    weights: EncoderWeights,
    frozen: Option<FrozenEncoder>,
    name: String,
}

impl TrainedRepresenter {
    /// Assemble from previously trained (e.g. checkpointed) state.
    pub fn from_parts(
        encoder: Arc<TemporalPathEncoder>,
        params: Parameters,
        weights: EncoderWeights,
        name: impl Into<String>,
    ) -> Self {
        let frozen = encoder.freeze(&params, &weights);
        Self { encoder, params, weights, frozen, name: name.into() }
    }

    /// Fast single-path embedding: the f32 inference path through the active
    /// SIMD kernel backend (falls back to the f64 tape for the Transformer
    /// arch, which has no frozen form). Differs from
    /// [`PathRepresenter::represent`] only by f32 rounding; records a
    /// per-backend `embed_us.<backend>` latency histogram.
    pub fn embed(&self, path: &Path, departure: SimTime) -> Vec<f64> {
        let start = std::time::Instant::now();
        let v = match &self.frozen {
            Some(f) => self.encoder.embed_frozen(f, path, departure),
            None => self.encoder.embed(&self.params, &self.weights, path, departure),
        };
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        let name = match wsccl_nn::kernels::active_name() {
            "simd" => "embed_us.simd",
            _ => "embed_us.scalar",
        };
        wsccl_obs::global().latency_us(name).record(us);
        v
    }

    /// Whether the f32 frozen fast path is available (LSTM arch).
    pub fn has_frozen_path(&self) -> bool {
        self.frozen.is_some()
    }

    /// The shared frozen encoder tables backing this representer. Hot
    /// checkpoint reload reuses these via
    /// [`EngineCheckpoint`](crate::persist::EngineCheckpoint) +
    /// [`TrainedRepresenter::from_parts`] instead of regenerating them.
    pub fn encoder_arc(&self) -> Arc<TemporalPathEncoder> {
        Arc::clone(&self.encoder)
    }

    /// The trained parameter values this representer was built from.
    pub fn params(&self) -> &Parameters {
        &self.params
    }

    /// The name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Batched [`TrainedRepresenter::embed`]: `N` queries through one fused
    /// f32 forward pass per timestep (see
    /// [`TemporalPathEncoder::embed_frozen_batch`]). Each returned embedding
    /// is bitwise identical to the corresponding single `embed` call; the
    /// Transformer arch (no frozen form) falls back to the embed loop.
    ///
    /// `scratch` carries the reusable batch buffers; the serving loop holds
    /// one across its lifetime so steady-state batches allocate nothing.
    pub fn embed_batch_with(
        &self,
        queries: &[(&Path, SimTime)],
        scratch: &mut crate::encoder::BatchScratch,
    ) -> Vec<Vec<f64>> {
        match &self.frozen {
            Some(f) => {
                let start = std::time::Instant::now();
                let out = self.encoder.embed_frozen_batch(f, queries, scratch);
                let us = start.elapsed().as_nanos() as f64 / 1e3;
                wsccl_obs::global().latency_us("embed_batch_us").record(us);
                out
            }
            None => queries.iter().map(|&(p, t)| self.embed(p, t)).collect(),
        }
    }

    /// [`TrainedRepresenter::embed_batch_with`] with a throwaway scratch.
    pub fn embed_batch(&self, queries: &[(&Path, SimTime)]) -> Vec<Vec<f64>> {
        self.embed_batch_with(queries, &mut crate::encoder::BatchScratch::default())
    }
}

impl PathRepresenter for TrainedRepresenter {
    fn dim(&self) -> usize {
        self.encoder.out_dim()
    }

    fn represent(&self, _net: &RoadNetwork, path: &Path, departure: SimTime) -> Vec<f64> {
        self.encoder.embed(&self.params, &self.weights, path, departure)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_datagen::{CityDataset, DatasetConfig};
    use wsccl_roadnet::CityProfile;
    use wsccl_traffic::PopLabeler;
    use wsccl_train::LossCurve;

    fn quick_setup() -> (CityDataset, Arc<TemporalPathEncoder>) {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 11));
        let enc =
            Arc::new(TemporalPathEncoder::new(&ds.net, crate::encoder::EncoderConfig::tiny(), 11));
        (ds, enc)
    }

    #[test]
    fn training_reduces_contrastive_loss() {
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(enc, WscclConfig::tiny(), 1);
        // Average loss over the first few steps vs. the last few.
        let mut losses = Vec::new();
        for _ in 0..30 {
            if let Some(l) = model.train_step(&ds.unlabeled, &PopLabeler) {
                losses.push(l);
            }
        }
        assert!(losses.len() >= 25, "most steps should produce a loss");
        let head: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = losses[losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "contrastive loss should fall during training: {head:.4} → {tail:.4}");
    }

    #[test]
    fn trained_model_separates_weak_label_classes() {
        // After training, the same path at two same-label times should be
        // more similar than at different-label times.
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(enc, WscclConfig::tiny(), 6);
        model.train(&ds.unlabeled, &PopLabeler, 10);
        let cos = |a: &[f64], b: &[f64]| {
            let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
            dot / (na * nb)
        };
        let mut same_sum = 0.0;
        let mut diff_sum = 0.0;
        let mut n = 0;
        for s in ds.unlabeled.iter().take(10) {
            let peak1 = model.embed(&s.path, SimTime::from_hm(0, 8, 0));
            let peak2 = model.embed(&s.path, SimTime::from_hm(2, 8, 20));
            let off = model.embed(&s.path, SimTime::from_hm(0, 13, 0));
            same_sum += cos(&peak1, &peak2);
            diff_sum += cos(&peak1, &off);
            n += 1;
        }
        let (same, diff) = (same_sum / n as f64, diff_sum / n as f64);
        assert!(same > diff, "same weak label should be closer: same {same:.4} vs diff {diff:.4}");
    }

    #[test]
    fn representer_is_deterministic_and_named() {
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(enc, WscclConfig::tiny(), 3);
        model.train_step(&ds.unlabeled, &PopLabeler);
        let rep = model.into_representer("WSCCL");
        let s = &ds.unlabeled[0];
        let a = rep.represent(&ds.net, &s.path, s.departure);
        let b = rep.represent(&ds.net, &s.path, s.departure);
        assert_eq!(a, b);
        assert_eq!(rep.name(), "WSCCL");
        assert_eq!(a.len(), rep.dim());
    }

    #[test]
    fn representer_is_shareable_across_threads_without_locks() {
        // Regression test for the lock-free `represent`: a plain shared
        // reference is embedded from several threads concurrently and every
        // thread must see the exact single-threaded result.
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(enc, WscclConfig::tiny(), 4);
        model.train_step(&ds.unlabeled, &PopLabeler);
        let rep = model.into_representer("WSCCL");
        let samples: Vec<_> = ds.unlabeled.iter().take(8).collect();
        let expected: Vec<Vec<f64>> =
            samples.iter().map(|s| rep.represent(&ds.net, &s.path, s.departure)).collect();

        let rep = &rep;
        let net = &ds.net;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let samples = &samples;
                    scope.spawn(move || {
                        samples
                            .iter()
                            .map(|s| rep.represent(net, &s.path, s.departure))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("embed thread"), expected);
            }
        });
    }

    #[test]
    fn thread_count_does_not_change_training() {
        // `threads` is an execution knob only: for a fixed seed and shard
        // count, every thread count must produce bit-for-bit identical
        // training trajectories and final embeddings. This now exercises the
        // engine's shard-parallel path end to end.
        let (ds, enc) = quick_setup();
        let train = |threads: usize| {
            let cfg = WscclConfig { shards: 4, threads, ..WscclConfig::tiny() };
            let mut model = WscModel::new(Arc::clone(&enc), cfg, 7);
            model.train(&ds.unlabeled, &PopLabeler, 2);
            let emb: Vec<Vec<f64>> =
                ds.unlabeled.iter().take(5).map(|s| model.embed(&s.path, s.departure)).collect();
            (model.loss_history.clone(), emb)
        };
        let (hist1, emb1) = train(1);
        let (hist4, emb4) = train(4);
        assert_eq!(hist1, hist4, "loss history must not depend on thread count");
        assert_eq!(emb1, emb4, "final embeddings must not depend on thread count");
    }

    #[test]
    fn kernel_backend_does_not_change_training() {
        // The f64 kernel contract: scalar and SIMD backends are bit-identical,
        // so the full training trajectory — loss history and final embeddings —
        // must not depend on which backend is active.
        use wsccl_nn::kernels::{self, KernelBackend};
        let (ds, enc) = quick_setup();
        let train = |backend: KernelBackend| {
            let _forced = kernels::force(backend);
            let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 7);
            model.train(&ds.unlabeled, &PopLabeler, 2);
            let emb: Vec<Vec<f64>> =
                ds.unlabeled.iter().take(5).map(|s| model.embed(&s.path, s.departure)).collect();
            (model.loss_history.clone(), emb)
        };
        let (hist_s, emb_s) = train(KernelBackend::Scalar);
        let (hist_v, emb_v) = train(KernelBackend::Simd);
        assert_eq!(hist_s, hist_v, "loss history must not depend on the kernel backend");
        assert_eq!(emb_s, emb_v, "embeddings must not depend on the kernel backend");
    }

    #[test]
    fn f32_embedding_drift() {
        // The frozen f32 inference path may drift from the f64 tape oracle
        // only by f32 rounding. Stated bound (also in DESIGN.md): relative
        // L2 drift below 1e-4 per path, under both kernel backends.
        use wsccl_nn::kernels::{self, KernelBackend};
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 3);
        model.train(&ds.unlabeled, &PopLabeler, 1);
        let rep = model.into_representer("WSCCL");
        assert!(rep.has_frozen_path(), "LSTM encoder must freeze to an f32 path");
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            let _forced = kernels::force(backend);
            for s in ds.unlabeled.iter().take(10) {
                let oracle = rep.represent(&ds.net, &s.path, s.departure);
                let fast = rep.embed(&s.path, s.departure);
                let norm: f64 = oracle.iter().map(|v| v * v).sum::<f64>().sqrt();
                let drift: f64 =
                    oracle.iter().zip(&fast).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
                assert!(
                    drift <= 1e-4 * norm.max(1e-8),
                    "f32 drift {drift:.3e} vs ‖oracle‖ {norm:.3e} under {}",
                    kernels::active_name()
                );
            }
        }
    }

    #[test]
    fn embed_batch_is_bitwise_equal_to_looped_embed() {
        // The serving contract: batched f32 embeddings are **bitwise** equal
        // to looped single `embed()` calls for every batch size 1..=17 (odd
        // tails included), under both kernel backends. The batch mixes path
        // lengths and departure slots so the active-prefix shrink logic and
        // the per-query temporal rows are both exercised.
        use wsccl_nn::kernels::{self, KernelBackend};
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 8);
        model.train(&ds.unlabeled, &PopLabeler, 1);
        let rep = model.into_representer("WSCCL");
        assert!(rep.has_frozen_path(), "LSTM encoder must freeze to an f32 path");
        let mut scratch = crate::encoder::BatchScratch::default();
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            let _forced = kernels::force(backend);
            for n in 1..=17usize {
                let queries: Vec<(&Path, SimTime)> = ds
                    .unlabeled
                    .iter()
                    .cycle()
                    .take(n)
                    .enumerate()
                    .map(|(i, s)| (&s.path, SimTime::new(s.departure.seconds() + 700 * i as u32)))
                    .collect();
                let single: Vec<Vec<f64>> = queries.iter().map(|&(p, t)| rep.embed(p, t)).collect();
                let batched = rep.embed_batch_with(&queries, &mut scratch);
                assert_eq!(
                    batched,
                    single,
                    "batch size {n} must be bitwise equal under {}",
                    kernels::active_name()
                );
            }
        }
    }

    #[test]
    fn sharded_training_still_reduces_loss() {
        let (ds, enc) = quick_setup();
        let cfg = WscclConfig { shards: 2, batch_size: 16, ..WscclConfig::tiny() };
        let mut model = WscModel::new(enc, cfg, 5);
        let mut losses = Vec::new();
        for _ in 0..30 {
            if let Some(l) = model.train_step(&ds.unlabeled, &PopLabeler) {
                losses.push(l);
            }
        }
        assert!(losses.len() >= 25, "most sharded steps should produce a loss");
        let head: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = losses[losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "sharded loss should fall: {head:.4} → {tail:.4}");
    }

    #[test]
    fn observer_sees_every_step_and_epoch() {
        let (ds, enc) = quick_setup();
        let mut model = WscModel::new(enc, WscclConfig::tiny(), 2);
        let mut curve = LossCurve::new();
        let epochs = 3;
        let steps = (ds.unlabeled.len() / model.config().batch_size).max(1);
        model.train_observed(&ds.unlabeled, &PopLabeler, epochs, &mut curve);
        assert_eq!(curve.step_losses.len(), epochs * steps);
        assert_eq!(curve.epoch_losses.len(), epochs);
        assert_eq!(curve.epoch_losses, model.loss_history);
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        // The acceptance test for engine checkpointing: train A for 4 epochs
        // straight; train B for 2 epochs, checkpoint through bytes (as a
        // killed and restarted process would), resume, train 2 more. Loss
        // histories and final embeddings must agree bit for bit. B logs both
        // halves through a JSONL observer — run logging must neither perturb
        // the math nor break across a kill/resume boundary.
        use wsccl_train::JsonlObserver;
        let (ds, enc) = quick_setup();
        let cfg = WscclConfig { shards: 2, ..WscclConfig::tiny() };

        let mut a = WscModel::new(Arc::clone(&enc), cfg.clone(), 9);
        a.train(&ds.unlabeled, &PopLabeler, 4);

        let mut log = JsonlObserver::new(Vec::new());
        log.set_phase("before-kill");
        let mut b = WscModel::new(Arc::clone(&enc), cfg, 9);
        b.train_observed(&ds.unlabeled, &PopLabeler, 2, &mut log);
        let mut buf = Vec::new();
        b.checkpoint(11).write_to(&mut buf).expect("write checkpoint");
        drop(b);
        let cp = EngineCheckpoint::read_from(&mut buf.as_slice()).expect("read checkpoint");
        // The encoder tables are deterministic per (config, seed); sharing
        // the Arc here mirrors `resume` without re-running node2vec.
        let mut b = WscModel::resume_with_encoder(Arc::clone(&enc), cp);
        log.set_phase("after-resume");
        b.train_observed(&ds.unlabeled, &PopLabeler, 2, &mut log);

        // The log spans the kill: step records in both phases, step counters
        // continuing (not restarting) after resume.
        let text = String::from_utf8(log.into_inner()).expect("utf8 log");
        let steps: Vec<wsccl_train::StepLine> = text
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .filter(|s: &wsccl_train::StepLine| s.record == "step")
            .collect();
        assert!(steps.iter().any(|s| s.phase == "before-kill"));
        assert!(steps.iter().any(|s| s.phase == "after-resume"));
        for w in steps.windows(2) {
            assert!(w[1].step > w[0].step, "step counter must survive the resume");
        }

        assert_eq!(a.loss_history, b.loss_history, "resumed loss history must match");
        for s in ds.unlabeled.iter().take(5) {
            assert_eq!(
                a.embed(&s.path, s.departure),
                b.embed(&s.path, s.departure),
                "resumed embeddings must match"
            );
        }
    }
}
