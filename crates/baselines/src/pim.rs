//! PIM (Yang et al., IJCAI 2021): unsupervised path representation learning
//! via global–local mutual information maximization with curriculum negative
//! sampling — the paper's closest prior work.
//!
//! An LSTM encodes the path; the pooled global representation must score high
//! against its own edge states (one positive view per query) and low against
//! the edge states of a *negative path*. Negative paths follow PIM's
//! curriculum: early training uses easy negatives (paths most dissimilar to
//! the query by edge overlap), later training uses hard ones (most similar).
//!
//! `PIM-Temporal` (Table IX) concatenates a frozen temporal-graph embedding to
//! the trained PIM representation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use wsccl_datagen::TemporalPathSample;
use wsccl_graphembed::{Node2VecConfig, TemporalEmbeddings};
use wsccl_nn::layers::Lstm;
use wsccl_nn::{Graph, NodeId, Parameters, Tensor};
use wsccl_roadnet::RoadNetwork;
use wsccl_train::{NoopObserver, TrainObserver, TrainSpec, Trainable, Trainer};

use crate::common::{EdgeFeaturizer, FnRepresenter};

/// PIM configuration.
pub struct PimConfig {
    pub dim: usize,
    pub epochs: usize,
    pub lr: f64,
    /// Edge samples per side per query.
    pub samples: usize,
    pub seed: u64,
}

impl Default for PimConfig {
    fn default() -> Self {
        Self { dim: 24, epochs: 3, lr: 3e-3, samples: 4, seed: 0 }
    }
}

/// Jaccard overlap of two paths' edge sets (for the negative curriculum).
fn edge_overlap(a: &wsccl_roadnet::Path, b: &wsccl_roadnet::Path) -> f64 {
    let sa: std::collections::HashSet<_> = a.edges().iter().collect();
    let sb: std::collections::HashSet<_> = b.edges().iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union.max(1) as f64
}

/// Encode a path into `(global, per-edge locals)`.
fn encode(g: &mut Graph<'_>, lstm: &Lstm, feats: &[Vec<f64>]) -> (NodeId, Vec<NodeId>) {
    let inputs: Vec<NodeId> = feats.iter().map(|f| g.input(Tensor::row(f.clone()))).collect();
    let hs = lstm.forward(g, &inputs);
    let stacked = g.concat_rows(&hs);
    (g.mean_rows(stacked), hs)
}

/// Global–local MI with curriculum negatives, as seen by the engine. The
/// hardness fraction is refreshed from the global epoch counter each time an
/// epoch's batch list is built; negative candidates come from the per-step
/// RNG.
struct PimTrainable<'a> {
    lstm: &'a Lstm,
    ef: &'a EdgeFeaturizer,
    pool: &'a [TemporalPathSample],
    samples: usize,
    total_epochs: usize,
    hardness: f64,
}

impl Trainable for PimTrainable<'_> {
    type Batch = usize;

    fn epoch_batches(&mut self, epoch: u64, _rng: &mut StdRng) -> Vec<usize> {
        // Curriculum hardness: fraction of training completed.
        self.hardness = epoch as f64 / self.total_epochs.max(1) as f64;
        (0..self.pool.len()).collect()
    }

    fn build_loss(&self, g: &mut Graph<'_>, &i: &usize, rng: &mut StdRng) -> Option<NodeId> {
        // Negative path: sample a handful of candidates and pick by the
        // curriculum — most dissimilar early, most similar late.
        let mut best: Option<(f64, usize)> = None;
        for _ in 0..5 {
            let j = rng.random_range(0..self.pool.len());
            if j == i {
                continue;
            }
            let ov = edge_overlap(&self.pool[i].path, &self.pool[j].path);
            let score = if self.hardness < 0.5 { -ov } else { ov };
            if best.map_or(true, |(s, _)| score > s) {
                best = Some((score, j));
            }
        }
        let (_, j) = best?;
        let (global, own_locals) = encode(g, self.lstm, &self.ef.path(&self.pool[i].path));
        let (_, neg_locals) = encode(g, self.lstm, &self.ef.path(&self.pool[j].path));

        let mut terms = Vec::new();
        for _ in 0..self.samples {
            let own = own_locals[rng.random_range(0..own_locals.len())];
            let pos = g.dot(global, own);
            let pos_sig = g.sigmoid(pos);
            terms.push(g.ln(pos_sig));
            let other = neg_locals[rng.random_range(0..neg_locals.len())];
            let neg = g.dot(global, other);
            let neg_arg = g.scale(neg, -1.0);
            let neg_sig = g.sigmoid(neg_arg);
            terms.push(g.ln(neg_sig));
        }
        let mean = g.mean_scalars(&terms);
        Some(g.scale(mean, -1.0))
    }
}

/// Train PIM on the unlabeled pool.
pub fn train(net: &RoadNetwork, pool: &[TemporalPathSample], cfg: &PimConfig) -> FnRepresenter {
    train_observed(net, pool, cfg, &mut NoopObserver)
}

/// [`train`] with a [`TrainObserver`] receiving per-step records.
pub fn train_observed(
    net: &RoadNetwork,
    pool: &[TemporalPathSample],
    cfg: &PimConfig,
    observer: &mut dyn TrainObserver,
) -> FnRepresenter {
    assert!(pool.len() >= 2, "PIM needs at least two paths");
    let ef = EdgeFeaturizer::new(net);
    let mut params = Parameters::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x916);
    let lstm = Lstm::new(&mut params, &mut rng, "pim.lstm", ef.dim(), cfg.dim, 1);

    let mut trainer = Trainer::new(TrainSpec::adam(cfg.lr, cfg.epochs, cfg.seed));
    let mut t = PimTrainable {
        lstm: &lstm,
        ef: &ef,
        pool,
        samples: cfg.samples,
        total_epochs: cfg.epochs,
        hardness: 0.0,
    };
    trainer.run(&mut t, &mut params, cfg.epochs, observer);
    drop(t);

    let dim = cfg.dim;
    FnRepresenter::new("PIM", dim, move |_net, path, _dep| {
        let mut g = Graph::new(&params);
        let inputs: Vec<NodeId> =
            ef.path(path).into_iter().map(|f| g.input(Tensor::row(f))).collect();
        let hs = lstm.forward(&mut g, &inputs);
        let stacked = g.concat_rows(&hs);
        let global = g.mean_rows(stacked);
        // Sum view (see DESIGN.md): magnitude carries path length.
        let mut v = g.value(global).data().to_vec();
        let n = path.len() as f64;
        v.iter_mut().for_each(|x| *x *= n);
        v
    })
}

/// PIM-Temporal (Table IX): PIM representation concatenated with a frozen
/// temporal-graph node2vec embedding of the departure time.
pub fn train_temporal(
    net: &RoadNetwork,
    pool: &[TemporalPathSample],
    cfg: &PimConfig,
    d_tem: usize,
) -> FnRepresenter {
    train_temporal_observed(net, pool, cfg, d_tem, &mut NoopObserver)
}

/// [`train_temporal`] with a [`TrainObserver`] watching the PIM part (the
/// frozen node2vec temporal embedding has no engine loop).
pub fn train_temporal_observed(
    net: &RoadNetwork,
    pool: &[TemporalPathSample],
    cfg: &PimConfig,
    d_tem: usize,
    observer: &mut dyn TrainObserver,
) -> FnRepresenter {
    let pim = train_observed(net, pool, cfg, observer);
    let temporal = TemporalEmbeddings::train(&Node2VecConfig {
        dim: d_tem,
        walks_per_node: 6,
        epochs: 2,
        seed: cfg.seed ^ 0x7E,
        ..Default::default()
    });
    let dim = cfg.dim + d_tem;
    use wsccl_core::PathRepresenter;
    FnRepresenter::new("PIM-Temporal", dim, move |net, path, dep| {
        let mut v = pim.represent(net, path, dep);
        v.extend_from_slice(temporal.embed(dep));
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_core::PathRepresenter;
    use wsccl_datagen::{CityDataset, DatasetConfig};
    use wsccl_roadnet::CityProfile;
    use wsccl_traffic::SimTime;

    #[test]
    fn pim_trains_and_is_time_invariant() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 12));
        let pool: Vec<_> = ds.unlabeled.iter().take(15).cloned().collect();
        let rep = train(&ds.net, &pool, &PimConfig { epochs: 1, ..Default::default() });
        let a = rep.represent(&ds.net, &pool[0].path, SimTime::from_hm(0, 8, 0));
        let b = rep.represent(&ds.net, &pool[0].path, SimTime::from_hm(4, 20, 0));
        assert_eq!(a, b, "plain PIM ignores departure time");
    }

    #[test]
    fn pim_temporal_depends_on_time() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 12));
        let pool: Vec<_> = ds.unlabeled.iter().take(10).cloned().collect();
        let rep = train_temporal(&ds.net, &pool, &PimConfig { epochs: 1, ..Default::default() }, 8);
        let a = rep.represent(&ds.net, &pool[0].path, SimTime::from_hm(0, 8, 0));
        let b = rep.represent(&ds.net, &pool[0].path, SimTime::from_hm(4, 20, 0));
        assert_eq!(a.len(), rep.dim());
        assert_ne!(a, b, "PIM-Temporal must react to departure time");
        // The PIM part (prefix) is identical; only the temporal tail differs.
        assert_eq!(a[..24], b[..24]);
    }

    #[test]
    fn edge_overlap_bounds() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 12));
        let p = &ds.unlabeled[0].path;
        let q = &ds.unlabeled[1].path;
        assert!((edge_overlap(p, p) - 1.0).abs() < 1e-12);
        let o = edge_overlap(p, q);
        assert!((0.0..=1.0).contains(&o));
    }
}
