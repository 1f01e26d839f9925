//! InfoGraph (Sun et al., ICLR 2020), unsupervised variant: a path is treated
//! as a graph whose "nodes" are its edges; an MLP encoder produces per-edge
//! local representations, mean-pooled into a global representation. A
//! dot-product discriminator maximizes local–global mutual information: the
//! global vector should score high against its own edges and low against
//! edges of other paths in the batch (Jensen-Shannon estimator in BCE form).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use wsccl_datagen::TemporalPathSample;
use wsccl_nn::layers::Linear;
use wsccl_nn::{Graph, NodeId, Parameters, Tensor};
use wsccl_roadnet::RoadNetwork;
use wsccl_train::{NoopObserver, TrainObserver, TrainSpec, Trainable, Trainer};

use crate::common::{EdgeFeaturizer, FnRepresenter};

/// InfoGraph configuration.
pub struct InfoGraphConfig {
    pub dim: usize,
    pub epochs: usize,
    pub lr: f64,
    pub batch: usize,
    /// Edge samples per side per query.
    pub samples: usize,
    pub seed: u64,
}

impl Default for InfoGraphConfig {
    fn default() -> Self {
        Self { dim: 24, epochs: 3, lr: 3e-3, batch: 8, samples: 4, seed: 0 }
    }
}

/// Per-edge local representation and pooled global representation.
fn encode(
    g: &mut Graph<'_>,
    l1: &Linear,
    l2: &Linear,
    feats: &[Vec<f64>],
) -> (NodeId, Vec<NodeId>) {
    let locals: Vec<NodeId> = feats
        .iter()
        .map(|f| {
            let x = g.input(Tensor::row(f.clone()));
            let h = l1.forward(g, x);
            let h = g.relu(h);
            l2.forward(g, h)
        })
        .collect();
    let stacked = g.concat_rows(&locals);
    let global = g.mean_rows(stacked);
    (global, locals)
}

/// Local–global MI maximization, as seen by the engine. Each step samples its
/// own batch of paths from the per-step RNG.
struct InfoGraphTrainable<'a> {
    l1: &'a Linear,
    l2: &'a Linear,
    ef: &'a EdgeFeaturizer,
    pool: &'a [TemporalPathSample],
    batch: usize,
    samples: usize,
    steps: usize,
}

impl Trainable for InfoGraphTrainable<'_> {
    type Batch = ();

    fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<()> {
        vec![(); self.steps]
    }

    fn build_loss(&self, g: &mut Graph<'_>, _batch: &(), rng: &mut StdRng) -> Option<NodeId> {
        let batch: Vec<&TemporalPathSample> =
            (0..self.batch).map(|_| &self.pool[rng.random_range(0..self.pool.len())]).collect();
        let encoded: Vec<(NodeId, Vec<NodeId>)> =
            batch.iter().map(|s| encode(g, self.l1, self.l2, &self.ef.path(&s.path))).collect();

        let mut terms = Vec::new();
        for (i, (global, locals)) in encoded.iter().enumerate() {
            for _ in 0..self.samples {
                // Positive: own edge.
                let own = locals[rng.random_range(0..locals.len())];
                let pos = g.dot(*global, own);
                let pos_sig = g.sigmoid(pos);
                let pos_ln = g.ln(pos_sig);
                terms.push(pos_ln);
                // Negative: edge of a different path in the batch.
                if encoded.len() > 1 {
                    let mut j = rng.random_range(0..encoded.len());
                    if j == i {
                        j = (j + 1) % encoded.len();
                    }
                    let other = encoded[j].1[rng.random_range(0..encoded[j].1.len())];
                    let neg = g.dot(*global, other);
                    let neg_arg = g.scale(neg, -1.0);
                    let neg_sig = g.sigmoid(neg_arg);
                    let neg_ln = g.ln(neg_sig);
                    terms.push(neg_ln);
                }
            }
        }
        let mean = g.mean_scalars(&terms);
        Some(g.scale(mean, -1.0))
    }
}

/// Train InfoGraph on the unlabeled pool.
pub fn train(
    net: &RoadNetwork,
    pool: &[TemporalPathSample],
    cfg: &InfoGraphConfig,
) -> FnRepresenter {
    train_observed(net, pool, cfg, &mut NoopObserver)
}

/// [`train`] with a [`TrainObserver`] receiving per-step records.
pub fn train_observed(
    net: &RoadNetwork,
    pool: &[TemporalPathSample],
    cfg: &InfoGraphConfig,
    observer: &mut dyn TrainObserver,
) -> FnRepresenter {
    assert!(!pool.is_empty(), "InfoGraph needs a non-empty pool");
    let ef = EdgeFeaturizer::new(net);
    let mut params = Parameters::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x16F0);
    let l1 = Linear::new(&mut params, &mut rng, "ig.l1", ef.dim(), cfg.dim);
    let l2 = Linear::new(&mut params, &mut rng, "ig.l2", cfg.dim, cfg.dim);

    let mut trainer = Trainer::new(TrainSpec::adam(cfg.lr, cfg.epochs, cfg.seed));
    let mut t = InfoGraphTrainable {
        l1: &l1,
        l2: &l2,
        ef: &ef,
        pool,
        batch: cfg.batch,
        samples: cfg.samples,
        steps: (pool.len() / cfg.batch).max(1),
    };
    trainer.run(&mut t, &mut params, cfg.epochs, observer);
    drop(t);

    let dim = cfg.dim;
    FnRepresenter::new("InfoGraph", dim, move |_net, path, _dep| {
        let mut g = Graph::new(&params);
        let feats = ef.path(path);
        let locals: Vec<NodeId> = feats
            .iter()
            .map(|f| {
                let x = g.input(Tensor::row(f.clone()));
                let h = l1.forward(&mut g, x);
                let h = g.relu(h);
                l2.forward(&mut g, h)
            })
            .collect();
        let stacked = g.concat_rows(&locals);
        let global = g.mean_rows(stacked);
        // Sum view (see DESIGN.md): magnitude carries path length.
        let mut v = g.value(global).data().to_vec();
        let n = path.len() as f64;
        v.iter_mut().for_each(|x| *x *= n);
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
    fn trains_and_represents() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Harbin, 10));
        let pool: Vec<_> = ds.unlabeled.iter().take(20).cloned().collect();
        let rep = train(&ds.net, &pool, &InfoGraphConfig { epochs: 1, ..Default::default() });
        let v = rep.represent(&ds.net, &pool[0].path, SimTime::from_hm(1, 8, 0));
        assert_eq!(v.len(), rep.dim());
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
