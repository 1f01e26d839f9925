//! Continual learning under traffic drift (ROADMAP's "closing the production
//! loop"): an incremental re-training driver over the deterministic drift
//! model of [`wsccl_traffic::drift`].
//!
//! Each simulated day the driver (1) realizes that day's drifted congestion,
//! (2) collects fresh weakly-labeled samples under it, (3) re-enters the
//! curriculum stage schedule over a mixed pool of fresh samples and a bounded
//! replay reservoir of past samples — replayed samples keep the weak TCI
//! label from their collection day (the weak-label replay of Wang et al.'s
//! multitask weakly-supervised OD-TTE setup), fresh samples are labeled by
//! the drifted day's [`TciLabeler`] — then (4) absorbs the fresh samples into
//! the reservoir and sweeps the parameters for numeric damage.
//!
//! Everything stochastic is a pure function of `(episode_seed, day)`: the
//! drift realization, the fresh-sample stream, the replay accept/replace
//! decisions, and the curriculum shuffle. The episode is therefore
//! bit-identical across thread counts, and the whole mid-episode state
//! (day counter + reservoir) serializes into an [`EngineCheckpoint`] so a
//! killed episode resumes exactly.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use wsccl_datagen::TemporalPathSample;
use wsccl_obs::AnomalyKind;
pub use wsccl_obs::{AnomalyGuard, AnomalyPolicy};
use wsccl_roadnet::{Path, RoadNetwork};
use wsccl_traffic::gen::mix64;
use wsccl_traffic::{
    CongestionModel, DriftConfig, DriftDay, DriftModel, IndexedTripGen, SimTime, TciLabeler,
    TripConfig, WeakLabel, WeakLabeler,
};
use wsccl_train::{NoopObserver, ReplayBuffer, TrainObserver};

use crate::encoder::TemporalPathEncoder;
use crate::persist::EngineCheckpoint;
use crate::wsc::WscModel;

/// RNG-stream salts (same discipline as the generators in `wsccl-traffic`).
const SALT_REPLAY: u64 = 0x5EED_4E91;
const SALT_FRESH: u64 = 0xDA7A_0001;
const SALT_STAGES: u64 = 0xC42_5106;
/// Eval samples use trip indices far above any fresh index so the two
/// streams never overlap.
const EVAL_INDEX_OFFSET: u64 = 1 << 40;

/// Parameters of a continual-learning episode.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContinualConfig {
    /// Day-over-day drift of the congestion model.
    pub drift: DriftConfig,
    /// Fresh samples collected per simulated day.
    pub fresh_per_day: usize,
    /// Held-out samples per day for the embedding-quality probe.
    pub eval_per_day: usize,
    /// Replay reservoir capacity (past samples mixed into each day's pool).
    pub replay_capacity: usize,
    /// Curriculum stages re-entered on each drift day.
    pub retrain_stages: usize,
    /// Full-pool epochs after the staged warm-up.
    pub retrain_epochs: usize,
    /// Re-training learning rate as a fraction of the model's from-scratch
    /// rate (1.0 = no change). Warm-started fine-tuning is typically run
    /// cooler than from-scratch training.
    pub retrain_lr_scale: f64,
    /// Trip generation parameters for the day's collection.
    pub trip: TripConfig,
    /// Master seed of the episode (drift, sampling, replay, shuffles).
    pub episode_seed: u64,
}

impl ContinualConfig {
    /// Smoke-test scale: a few dozen samples per day.
    pub fn tiny(episode_seed: u64) -> Self {
        Self {
            drift: DriftConfig::default(),
            fresh_per_day: 48,
            eval_per_day: 32,
            replay_capacity: 48,
            retrain_stages: 2,
            retrain_epochs: 1,
            retrain_lr_scale: 1.0,
            trip: TripConfig::default(),
            episode_seed,
        }
    }
}

/// A replayed sample: the temporal path plus the weak TCI label it was given
/// on its collection day. The label is pinned — re-training mixes old and
/// fresh weak labels rather than re-labeling history under today's traffic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplaySample {
    pub path: Path,
    pub departure: SimTime,
    pub label: WeakLabel,
}

/// Serialized mid-episode state, embedded in an [`EngineCheckpoint`] so
/// kill-and-resume holds between days.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContinualState {
    /// Days completed so far (= the next day to run).
    pub day: u64,
    pub cfg: ContinualConfig,
    /// The episode's day-0 base congestion model.
    pub base: CongestionModel,
    /// Total samples offered to the replay reservoir.
    pub replay_seen: u64,
    /// Current reservoir contents.
    pub replay_items: Vec<ReplaySample>,
}

/// What one [`ContinualTrainer::run_day`] did, for logs and the dashboard.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DayReport {
    pub day: u64,
    /// That day's drift summary (incidents, peak shift, roadworks).
    pub drift: DriftDay,
    /// Label margin of the (pre-retrain) model on the day's eval samples.
    pub quality_before: f64,
    /// Label margin after incremental re-training.
    pub quality_after: f64,
    /// Optimizer steps spent re-training.
    pub retrain_steps: u64,
    /// Replayed samples mixed into the pool.
    pub replay_mixed: usize,
    /// Fresh samples collected.
    pub fresh: usize,
    /// Anomaly-guard events raised during the day.
    pub anomalies: usize,
}

/// Labels a day's mixed pool: replayed samples by their pinned
/// collection-day label (keyed by departure second — effectively unique for
/// hash-drawn departures; a collision harmlessly falls back to the current
/// labeler), fresh samples by the current day's TCI labeler.
struct MixedLabeler<'a> {
    current: &'a TciLabeler,
    pinned: HashMap<u32, WeakLabel>,
}

impl WeakLabeler for MixedLabeler<'_> {
    fn label(&self, t: SimTime) -> WeakLabel {
        match self.pinned.get(&t.seconds()) {
            Some(&l) => l,
            None => self.current.label(t),
        }
    }

    fn num_classes(&self) -> usize {
        self.current.num_classes()
    }

    fn name(&self) -> &'static str {
        "TCI-mixed"
    }
}

/// Embedding-quality probe: mean same-label cosine similarity minus mean
/// cross-label cosine similarity over all sample pairs (labels from
/// `labeler`). Positive = the embedding space separates the weak classes;
/// drift erodes it, re-training should restore it. Returns 0 when the
/// sample set has no same-label or no cross-label pair.
///
/// The pairwise-margin math lives with the other evaluation metrics in
/// `wsccl_downstream::metrics::label_margin`; this wrapper owns only the
/// model/labeler plumbing.
pub fn label_margin(
    model: &WscModel,
    samples: &[TemporalPathSample],
    labeler: &dyn WeakLabeler,
) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let embs: Vec<Vec<f64>> = samples.iter().map(|s| model.embed(&s.path, s.departure)).collect();
    let labels: Vec<usize> =
        samples.iter().map(|s| labeler.label(s.departure).class_index()).collect();
    wsccl_downstream::metrics::label_margin(&embs, &labels)
}

/// The incremental re-training driver: owns the model, the drift episode,
/// and the replay reservoir; advances one simulated day at a time.
pub struct ContinualTrainer {
    model: WscModel,
    encoder_seed: u64,
    base: CongestionModel,
    drift: DriftModel,
    replay: ReplayBuffer<ReplaySample>,
    cfg: ContinualConfig,
    day: u64,
}

impl ContinualTrainer {
    /// Start an episode from a (typically pre-trained) model. `base` is the
    /// congestion model the original corpus was collected under (day 0);
    /// `encoder_seed` is the seed of the frozen encoder tables, recorded into
    /// checkpoints exactly as in [`WscModel::checkpoint`].
    pub fn new(
        model: WscModel,
        encoder_seed: u64,
        base: CongestionModel,
        cfg: ContinualConfig,
    ) -> Self {
        let drift = DriftModel::new(cfg.drift.clone(), cfg.episode_seed);
        let replay = ReplayBuffer::new(cfg.replay_capacity, mix64(cfg.episode_seed ^ SALT_REPLAY));
        Self { model, encoder_seed, base, drift, replay, cfg, day: 0 }
    }

    pub fn model(&self) -> &WscModel {
        &self.model
    }

    /// Mutable model access (test instrumentation, e.g. fault injection).
    pub fn model_mut(&mut self) -> &mut WscModel {
        &mut self.model
    }

    /// Days completed so far.
    pub fn day(&self) -> u64 {
        self.day
    }

    pub fn config(&self) -> &ContinualConfig {
        &self.cfg
    }

    pub fn replay_items(&self) -> &[ReplaySample] {
        &self.replay.items()
    }

    /// That day's drifted congestion (pure in `(episode_seed, day)`).
    pub fn day_model(&self, net: &RoadNetwork, day: u64) -> CongestionModel {
        self.drift.day_model(net, &self.base, day)
    }

    /// The day's deterministic fresh-collection and eval streams — exactly
    /// the samples [`Self::run_day`] will use for that day. External
    /// baselines (e.g. the full-retrain ceiling in `bench_drift`) score
    /// themselves on the same eval set to stay comparable.
    pub fn day_samples(
        &self,
        net: &RoadNetwork,
        day: u64,
    ) -> (Vec<TemporalPathSample>, Vec<TemporalPathSample>) {
        let day_model = self.day_model(net, day);
        (
            self.generate(net, &day_model, day, 0, self.cfg.fresh_per_day),
            self.generate(net, &day_model, day, EVAL_INDEX_OFFSET, self.cfg.eval_per_day),
        )
    }

    /// Deterministic per-day sample stream: `IndexedTripGen` over the drifted
    /// model, trip indices `offset..offset+n`.
    fn generate(
        &self,
        net: &RoadNetwork,
        day_model: &CongestionModel,
        day: u64,
        offset: u64,
        n: usize,
    ) -> Vec<TemporalPathSample> {
        let seed = mix64(self.cfg.episode_seed ^ SALT_FRESH) ^ mix64(day);
        let gen = IndexedTripGen::new(net, day_model, self.cfg.trip.clone(), seed);
        (0..n as u64)
            .map(|i| {
                let t = gen.trip(offset + i);
                TemporalPathSample { path: t.path, departure: t.departure }
            })
            .collect()
    }

    /// Run one simulated day: realize drift, collect fresh samples, re-enter
    /// the curriculum schedule over fresh + replay, absorb the fresh samples,
    /// and sweep the parameters for non-finite values (reported to `guard`
    /// with the offending parameter named). Emits `drift/day-N` and
    /// `retrain/stage-K` (+ `retrain/final`) phases to `observer`.
    pub fn run_day(
        &mut self,
        net: &RoadNetwork,
        observer: &mut dyn TrainObserver,
        guard: &mut AnomalyGuard,
    ) -> DayReport {
        let day = self.day;
        let summary = self.drift.day_summary(net, &self.base, day);
        let day_model = self.drift.day_model(net, &self.base, day);
        observer.on_phase(&format!("drift/day-{day}"));

        // Fresh collection + weak TCI labels re-derived under drifted traffic.
        let labeler = TciLabeler::new(net, &day_model);
        let fresh = self.generate(net, &day_model, day, 0, self.cfg.fresh_per_day);
        let eval = self.generate(net, &day_model, day, EVAL_INDEX_OFFSET, self.cfg.eval_per_day);
        let quality_before = label_margin(&self.model, &eval, &labeler);

        // Mixed pool: fresh first, then the replay reservoir (pinned labels).
        let replay_mixed = self.replay.len();
        let mut pool = fresh.clone();
        pool.extend(
            self.replay
                .items()
                .iter()
                .map(|r| TemporalPathSample { path: r.path.clone(), departure: r.departure }),
        );
        let mixed = MixedLabeler {
            current: &labeler,
            pinned: self.replay.items().iter().map(|r| (r.departure.seconds(), r.label)).collect(),
        };

        // Curriculum restart: re-enter the stage schedule with replayed
        // (already-learned) samples scored easiest, fresh samples easy→hard
        // by path length, then the usual full-pool final phase.
        let scores: Vec<f64> = pool
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let len = s.path.len() as f64;
                if i >= fresh.len() {
                    1e6 - len
                } else {
                    -len
                }
            })
            .collect();
        // Fine-tune cooler than from-scratch training. Set unconditionally
        // each day (not only when ≠ 1.0) so a resumed episode — whose trainer
        // reverts to the from-scratch rate — matches an uninterrupted one.
        let lr = self.model.config().lr * self.cfg.retrain_lr_scale;
        self.model.set_lr(lr);
        let step_before = self.model.global_step();
        let mut rng =
            StdRng::seed_from_u64(mix64(self.cfg.episode_seed ^ SALT_STAGES) ^ mix64(day));
        let stages =
            crate::curriculum::curriculum_stages(&scores, self.cfg.retrain_stages.max(1), &mut rng);
        for (k, stage) in stages.iter().enumerate() {
            if stage.is_empty() {
                continue;
            }
            observer.on_phase(&format!("retrain/stage-{}", k + 1));
            let subset: Vec<TemporalPathSample> = stage.iter().map(|&i| pool[i].clone()).collect();
            self.model.train_observed(&subset, &mixed, 1, observer);
        }
        observer.on_phase("retrain/final");
        self.model.train_observed(&pool, &mixed, self.cfg.retrain_epochs.max(1), observer);
        let retrain_steps = self.model.global_step() - step_before;
        let quality_after = label_margin(&self.model, &eval, &labeler);

        // Absorb today's samples with today's labels.
        for s in fresh {
            let label = labeler.label(s.departure);
            self.replay.absorb(ReplaySample { path: s.path, departure: s.departure, label });
        }

        // Parameter health sweep: a NaN that reached the weights produces NaN
        // losses with no gradient to attribute, so the sweep names the
        // offending parameter explicitly.
        let events_before = guard.events().len();
        let step_now = self.model.global_step();
        let (params, _) = self.model.weights();
        let bad: Vec<(String, f64)> = params
            .ids()
            .filter_map(|id| {
                params
                    .value(id)
                    .data()
                    .iter()
                    .copied()
                    .find(|v| !v.is_finite())
                    .map(|v| (params.name(id).to_string(), v))
            })
            .collect();
        for (name, v) in bad {
            guard.report(
                step_now,
                AnomalyKind::NonFiniteParam,
                v,
                format!("param `{name}` after drift/day-{day} re-training"),
            );
        }

        self.day += 1;
        DayReport {
            day,
            drift: summary,
            quality_before,
            quality_after,
            retrain_steps,
            replay_mixed,
            fresh: self.cfg.fresh_per_day,
            anomalies: guard.events().len() - events_before,
        }
    }

    /// [`Self::run_day`] with a no-op observer and a record-only guard.
    pub fn run_day_quiet(&mut self, net: &RoadNetwork) -> DayReport {
        let mut guard = AnomalyGuard::new(AnomalyPolicy::Record);
        self.run_day(net, &mut NoopObserver, &mut guard)
    }

    /// Snapshot the episode: the model's [`EngineCheckpoint`] with the
    /// continual state (day counter + replay reservoir) attached.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        self.model.checkpoint(self.encoder_seed).with_continual(ContinualState {
            day: self.day,
            cfg: self.cfg.clone(),
            base: self.base.clone(),
            replay_seen: self.replay.seen(),
            replay_items: self.replay.items().to_vec(),
        })
    }

    /// Resume a checkpointed episode, rebuilding the frozen encoder from
    /// `(encoder_config, encoder_seed)`. Panics if the checkpoint carries no
    /// continual state.
    pub fn resume(net: &RoadNetwork, cp: EngineCheckpoint) -> Self {
        let encoder =
            Arc::new(TemporalPathEncoder::new(net, cp.encoder_config.clone(), cp.encoder_seed));
        Self::resume_with_encoder(encoder, cp)
    }

    /// [`Self::resume`] with an already-built (shared) encoder.
    pub fn resume_with_encoder(
        encoder: Arc<TemporalPathEncoder>,
        mut cp: EngineCheckpoint,
    ) -> Self {
        let state = cp
            .continual
            .take()
            .expect("checkpoint carries no continual-episode state (plain training run?)");
        let encoder_seed = cp.encoder_seed;
        let model = WscModel::resume_with_encoder(encoder, cp);
        let drift = DriftModel::new(state.cfg.drift.clone(), state.cfg.episode_seed);
        let replay = ReplayBuffer::from_state(
            state.cfg.replay_capacity,
            mix64(state.cfg.episode_seed ^ SALT_REPLAY),
            state.replay_seen,
            state.replay_items,
        );
        Self {
            model,
            encoder_seed,
            base: state.base,
            drift,
            replay,
            cfg: state.cfg,
            day: state.day,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WscclConfig;
    use crate::encoder::EncoderConfig;
    use wsccl_datagen::{CityDataset, DatasetConfig};
    use wsccl_roadnet::CityProfile;

    fn setup() -> (CityDataset, ContinualTrainer) {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 21));
        let enc = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::tiny(), 21));
        let mut model = WscModel::new(enc, WscclConfig::tiny(), 21);
        let labeler = TciLabeler::new(&ds.net, &ds.congestion);
        model.train(&ds.unlabeled, &labeler, 1);
        let ct = ContinualTrainer::new(model, 21, ds.congestion.clone(), ContinualConfig::tiny(21));
        (ds, ct)
    }

    fn fingerprint(ds: &CityDataset, ct: &ContinualTrainer) -> Vec<Vec<f64>> {
        ds.unlabeled.iter().take(5).map(|s| ct.model().embed(&s.path, s.departure)).collect()
    }

    #[test]
    fn checkpoint_roundtrips_continual_state_exactly_and_resumes_identically() {
        let (ds, mut a) = setup();
        a.run_day_quiet(&ds.net);

        // Through bytes, as a killed process would see it.
        let mut buf = Vec::new();
        a.checkpoint().write_to(&mut buf).expect("write");
        let cp = EngineCheckpoint::read_from(&mut buf.as_slice()).expect("read");
        let state = cp.continual.as_ref().expect("continual state present");
        assert_eq!(state.day, 1);
        assert_eq!(state.replay_items, a.replay_items(), "reservoir must roundtrip exactly");
        assert_eq!(state.replay_seen, ContinualConfig::tiny(21).fresh_per_day as u64);

        let mut b = ContinualTrainer::resume(&ds.net, cp);
        assert_eq!(b.day(), 1);
        let ra = a.run_day_quiet(&ds.net);
        let rb = b.run_day_quiet(&ds.net);
        assert_eq!(ra.quality_after.to_bits(), rb.quality_after.to_bits());
        assert_eq!(a.replay_items(), b.replay_items());
        assert_eq!(fingerprint(&ds, &a), fingerprint(&ds, &b), "resumed weights must match");
    }

    #[test]
    fn plain_checkpoints_still_load_and_carry_no_continual_state() {
        let (ds, ct) = setup();
        let cp = ct.model().checkpoint(21);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).expect("write");
        let restored = EngineCheckpoint::read_from(&mut buf.as_slice()).expect("read");
        assert!(restored.continual.is_none());
        // And it still resumes as a plain model.
        let _ = WscModel::resume(&ds.net, restored);
    }

    #[test]
    fn retraining_recovers_label_margin_under_drift() {
        let (ds, mut ct) = setup();
        let mut improved = 0;
        for _ in 0..3 {
            let r = ct.run_day_quiet(&ds.net);
            if r.quality_after > r.quality_before {
                improved += 1;
            }
            assert!(r.retrain_steps > 0, "each day must take optimizer steps");
        }
        assert!(improved >= 2, "re-training should usually improve the margin ({improved}/3)");
        assert_eq!(ct.day(), 3);
        assert!(!ct.replay_items().is_empty(), "reservoir must hold past samples");
    }
}
