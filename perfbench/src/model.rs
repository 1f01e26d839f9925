//! Pieces every workload shares: the model configuration, embedding,
//! the ETA head, the similarity index, a training epoch's loss and the
//! tape profile.

use std::sync::Arc;
use std::time::Instant;

use wsccl_core::encoder::BatchScratch;
use wsccl_core::{TrainedRepresenter, WscModel, WscclConfig};
use wsccl_datagen::{train_test_split, CityDataset};
use wsccl_downstream::index::{recall_at_k, to_f32, AnnConfig, AnnIndex, ExactIndex, VectorIndex};
use wsccl_downstream::{metrics, EtaRegression, GbRegressor, Task};
use wsccl_roadnet::Path;
use wsccl_traffic::{PopLabeler, SimTime};
use wsccl_train::{EpochRecord, StepRecord, TrainObserver};

use crate::inputs::{CANDIDATES, MODEL_SEED};
use crate::report::Report;
use crate::stats;
use crate::trace::{Tracer, NO_OP};

/// Neighbours per similarity query.
pub const K: usize = 10;
/// Train/test split seed of the labelled travel-time set.
const SPLIT_SEED: u64 = 0x5EED;
/// Share of the labelled trips the ETA head is fit on. The rest are held
/// out: a large held-out side keeps the error's seed-to-seed spread small.
const FIT_SHARE: f64 = 0.2;

/// The paper pipeline's default configuration at reproduction scale.
pub fn wsccl_config() -> WscclConfig {
    WscclConfig { seed: MODEL_SEED, ..WscclConfig::default() }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Embed through the served f32 path, `CANDIDATES` queries per fused call,
/// each call a `core` span.
pub fn embed_all(
    rep: &TrainedRepresenter,
    queries: &[(&Path, SimTime)],
    tracer: &mut Tracer,
) -> Vec<Vec<f64>> {
    let mut scratch = BatchScratch::default();
    let mut out = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(CANDIDATES) {
        tracer.begin("core.embed_batch_with", "core", NO_OP);
        out.extend(rep.embed_batch_with(chunk, &mut scratch));
        tracer.end();
    }
    out
}

/// A fitted travel-time head and its held-out error.
pub struct EtaHead {
    pub head: GbRegressor,
    pub fit_s: f64,
    test_x: Vec<Vec<f64>>,
    test_y: Vec<f64>,
}

/// Fit an [`EtaRegression`] head on the embeddings of the labelled
/// travel-time split's fitting side.
pub fn fit_eta(rep: &TrainedRepresenter, ds: &CityDataset, tracer: &mut Tracer) -> EtaHead {
    let queries: Vec<(&Path, SimTime)> = ds.tte.iter().map(|t| (&t.path, t.departure)).collect();
    let x = embed_all(rep, &queries, tracer);
    let (train, test) = train_test_split(ds.tte.len(), FIT_SHARE, SPLIT_SEED);
    let rows = |idx: &[usize]| idx.iter().map(|&i| x[i].clone()).collect::<Vec<_>>();
    let labels = |idx: &[usize]| idx.iter().map(|&i| ds.tte[i].travel_time).collect::<Vec<_>>();
    let t = Instant::now();
    tracer.begin("downstream.eta_fit", "downstream", NO_OP);
    let head = EtaRegression::default().fit(&rows(&train), &labels(&train));
    tracer.end();
    EtaHead { head, fit_s: secs(t), test_x: rows(&test), test_y: labels(&test) }
}

impl EtaHead {
    /// Held-out mean absolute error, seconds (Eq. 14).
    pub fn mae(&self, tracer: &mut Tracer) -> f64 {
        let pred: Vec<f64> = self
            .test_x
            .iter()
            .map(|row| {
                tracer.begin("downstream.eta_predict", "downstream", NO_OP);
                let p = self.head.predict(row);
                tracer.end();
                p
            })
            .collect();
        metrics::mae(&self.test_y, &pred)
    }
}

/// `count` replayed trips: unlabeled path `i mod n` departing `i / n`
/// quarter-hours after its recorded departure.
pub fn replay_corpus(ds: &CityDataset, count: usize) -> Vec<(&Path, SimTime)> {
    let n = ds.unlabeled.len();
    (0..count)
        .map(|i| {
            let s = &ds.unlabeled[i % n];
            (&s.path, s.departure.advance((i / n) as f64 * 900.0))
        })
        .collect()
}

/// The IVF index the trip-query service searches, and the exact index it
/// is judged against.
pub struct Indexes {
    pub ann: Arc<AnnIndex>,
    pub exact: ExactIndex,
    pub build_s: f64,
}

pub fn build_indexes(vectors: &[Vec<f64>], nprobe: usize, tracer: &mut Tracer) -> Indexes {
    let dim = vectors[0].len();
    let ids: Vec<u64> = (0..vectors.len() as u64).collect();
    let vecs: Vec<Vec<f32>> = vectors.iter().map(|v| to_f32(v)).collect();
    let t = Instant::now();
    tracer.begin("downstream.index_build", "downstream", NO_OP);
    let cfg = AnnConfig { nprobe, ..AnnConfig::default() };
    let ann = Arc::new(AnnIndex::build(dim, &ids, &vecs, &cfg));
    tracer.end();
    let build_s = secs(t);
    Indexes { ann, exact: ExactIndex::build(dim, &ids, &vecs), build_s }
}

impl Indexes {
    /// Mean recall@K of the IVF answers against exact search; the IVF
    /// queries are `downstream` spans.
    pub fn recall(&self, queries: &[Vec<f64>], tracer: &mut Tracer) -> f64 {
        let total: f64 = queries
            .iter()
            .map(|q| {
                let q = to_f32(q);
                tracer.begin("downstream.knn", "downstream", NO_OP);
                let approx = self.ann.knn(&q, K);
                tracer.end();
                recall_at_k(&self.exact.knn(&q, K), &approx)
            })
            .sum();
        total / queries.len().max(1) as f64
    }
}

/// Step and epoch records of one training run.
#[derive(Default)]
pub struct EpochLog {
    pub steps: u64,
    pub applied: u64,
    pub nonfinite: u64,
    pub last_epoch_loss: f64,
}

impl TrainObserver for EpochLog {
    fn on_step(&mut self, r: &StepRecord) {
        self.steps += 1;
        self.applied += r.applied() as u64;
        self.nonfinite += !r.loss.is_finite() as u64;
    }

    fn on_epoch(&mut self, r: &EpochRecord) {
        self.last_epoch_loss = r.mean_loss;
    }
}

/// Tape ops reported per training step.
pub const PROFILED_OPS: [&str; 6] =
    ["LstmCell", "SliceCols", "GatherRow", "CosSim", "LogSumExp", "ConcatRows"];

/// Per-step forward and backward time of the profiled tape ops, plus the
/// buffer pool's fresh allocations.
pub fn tape_metrics(report: &mut Report, model: &WscModel, steps: u64) {
    let profile = model.profile();
    for op in PROFILED_OPS {
        let (fwd, bwd) = profile.get(op).map_or((0, 0), |o| (o.forward_ns, o.backward_ns));
        let per_step = |ns: u64| ns as f64 / 1e6 / steps.max(1) as f64;
        report.metric(&format!("nn.op.{op}.fwd_ms_per_step"), per_step(fwd), "ms");
        report.metric(&format!("nn.op.{op}.bwd_ms_per_step"), per_step(bwd), "ms");
    }
    report.metric("nn.pool.fresh_allocs", model.pool_stats().fresh_allocs as f64, "count");
}

/// One epoch of WSC training from the given initial weights: the loss a
/// model with those weights reaches in one pass over the unlabeled set.
pub fn one_epoch(model: &mut WscModel, ds: &CityDataset) -> EpochLog {
    let mut log = EpochLog::default();
    model.train_observed(&ds.unlabeled, &PopLabeler, 1, &mut log);
    log
}

/// Median of the recorded durations of span `name`, µs (0 when the run
/// recorded none).
pub fn span_p50(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations_us(name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(d)
    }
}

/// Process peak resident set, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
