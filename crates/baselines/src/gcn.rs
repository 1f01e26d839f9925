//! GCN (Defferrard et al., NIPS 2016) and STGCN (Yu et al., IJCAI 2018)
//! baselines: per-edge travel-time predictors whose path estimate is the sum
//! of edge estimates (§VII-A.3).
//!
//! Both run a two-layer mean-aggregation graph convolution over the road
//! network's intersection graph and predict each edge's time from its
//! endpoint embeddings plus raw edge features; STGCN additionally conditions
//! on departure-time features (its temporal component). Neither produces a
//! generic representation, so — like the paper — they only participate in the
//! travel-time task, via [`crate::common::TravelTimePredictor`].

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

use wsccl_nn::layers::Linear;
use wsccl_nn::{Graph, NodeId, Parameters, Tensor};
use wsccl_roadnet::{Path, RoadNetwork};
use wsccl_traffic::SimTime;
use wsccl_train::{NoopObserver, TrainObserver, TrainSpec, Trainable, Trainer};

use crate::common::{time_features, EdgeFeaturizer, TravelTimePredictor, TIME_DIM};
use crate::dgi::{mean_adjacency, node_features};
use crate::pathrank::RegressionExample;

/// Shared configuration for GCN and STGCN.
pub struct GcnConfig {
    pub dim: usize,
    pub epochs: usize,
    pub lr: f64,
    pub batch: usize,
    /// If true, condition edge predictions on departure time (STGCN).
    pub temporal: bool,
    /// Max L2 norm of each step's gradient.
    pub grad_clip: f64,
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 8, lr: 3e-3, batch: 8, temporal: false, grad_clip: 5.0, seed: 0 }
    }
}

/// Trained (ST)GCN travel-time predictor.
pub struct GcnPredictor {
    params: Parameters,
    w1: Linear,
    w2: Linear,
    edge_mlp: Linear,
    edge_head: Linear,
    ef: EdgeFeaturizer,
    x: Tensor,
    adj: Tensor,
    temporal: bool,
    target_scale: f64,
    name: &'static str,
}

impl GcnPredictor {
    /// Two-layer mean-aggregation GCN node embeddings.
    fn node_embeddings(&self, g: &mut Graph<'_>) -> NodeId {
        let adj = g.input(self.adj.clone());
        let x = g.input(self.x.clone());
        let a1 = g.matmul(adj, x);
        let h1 = self.w1.forward(g, a1);
        let h1 = g.relu(h1);
        let a2 = g.matmul(adj, h1);
        let h2 = self.w2.forward(g, a2);
        g.relu(h2)
    }

    /// Positive per-edge time estimate.
    fn edge_time(
        &self,
        g: &mut Graph<'_>,
        z: NodeId,
        e: wsccl_roadnet::EdgeId,
        net: &RoadNetwork,
        tf: &[f64],
    ) -> NodeId {
        let n = net.num_nodes();
        let edge = net.edge(e);
        let mut sel = Tensor::zeros(1, n);
        sel.set(0, edge.from.index(), 0.5);
        sel.set(0, edge.to.index(), 0.5);
        let sel_n = g.input(sel);
        let z_pair = g.matmul(sel_n, z); // mean of endpoint embeddings
        let mut feat = self.ef.edge(e).to_vec();
        if self.temporal {
            feat.extend_from_slice(tf);
        }
        let f_n = g.input(Tensor::row(feat));
        let joined = g.concat_cols(&[z_pair, f_n]);
        let h = self.edge_mlp.forward(g, joined);
        let h = g.relu(h);
        let raw = self.edge_head.forward(g, h);
        // softplus: −ln σ(−raw), strictly positive.
        let neg = g.scale(raw, -1.0);
        let sig = g.sigmoid(neg);
        let lns = g.ln(sig);
        g.scale(lns, -self.target_scale / 10.0)
    }

    fn path_time(
        &self,
        g: &mut Graph<'_>,
        z: NodeId,
        path: &Path,
        net: &RoadNetwork,
        t: SimTime,
    ) -> NodeId {
        let tf = time_features(t);
        let terms: Vec<NodeId> =
            path.edges().iter().map(|&e| self.edge_time(g, z, e, net, &tf)).collect();
        let stacked = g.concat_rows(&terms);
        g.sum_all(stacked)
    }

    /// Train on labeled travel times.
    pub fn train(net: &RoadNetwork, examples: &[RegressionExample], cfg: &GcnConfig) -> Self {
        Self::train_observed(net, examples, cfg, &mut NoopObserver)
    }

    /// [`Self::train`] with a [`TrainObserver`] receiving per-step records.
    pub fn train_observed(
        net: &RoadNetwork,
        examples: &[RegressionExample],
        cfg: &GcnConfig,
        observer: &mut dyn TrainObserver,
    ) -> Self {
        assert!(!examples.is_empty(), "GCN needs labeled examples");
        let x = node_features(net);
        let adj = mean_adjacency(net);
        let in_dim = x.cols();
        let mut params = Parameters::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6C4);
        let name = if cfg.temporal { "STGCN" } else { "GCN" };
        let w1 = Linear::new(&mut params, &mut rng, "gcn.w1", in_dim, cfg.dim);
        let w2 = Linear::new(&mut params, &mut rng, "gcn.w2", cfg.dim, cfg.dim);
        let edge_in = cfg.dim + EdgeFeaturizer::DIM + if cfg.temporal { TIME_DIM } else { 0 };
        let edge_mlp = Linear::new(&mut params, &mut rng, "gcn.emlp", edge_in, cfg.dim);
        let edge_head = Linear::new(&mut params, &mut rng, "gcn.ehead", cfg.dim, 1);
        let target_scale =
            (examples.iter().map(|e| e.target).sum::<f64>() / examples.len() as f64).max(1e-6);
        let mut model = Self {
            params,
            w1,
            w2,
            edge_mlp,
            edge_head,
            ef: EdgeFeaturizer::new(net),
            x,
            adj,
            temporal: cfg.temporal,
            target_scale,
            name,
        };
        let mut params = std::mem::take(&mut model.params);

        let spec = TrainSpec::adam(cfg.lr, cfg.epochs, cfg.seed).with_grad_clip(cfg.grad_clip);
        let mut trainer = Trainer::new(spec);
        let mut t = GcnTrainable { model: &model, net, examples, batch: cfg.batch };
        trainer.run(&mut t, &mut params, cfg.epochs, observer);
        model.params = params;
        model
    }

    /// Predict a path's travel time.
    pub fn predict_time(&mut self, net: &RoadNetwork, path: &Path, departure: SimTime) -> f64 {
        let params = std::mem::take(&mut self.params);
        let v = {
            let mut g = Graph::new(&params);
            let z = self.node_embeddings(&mut g);
            let pred = self.path_time(&mut g, z, path, net, departure);
            g.value(pred).item()
        };
        self.params = params;
        v
    }
}

/// Mini-batch travel-time regression over shared GCN node embeddings, as
/// seen by the engine. The model's `params` field is empty for the duration
/// of training (the engine owns the live copy); the forward helpers never
/// read it.
struct GcnTrainable<'a> {
    model: &'a GcnPredictor,
    net: &'a RoadNetwork,
    examples: &'a [RegressionExample],
    batch: usize,
}

impl Trainable for GcnTrainable<'_> {
    type Batch = Vec<usize>;

    fn epoch_batches(&mut self, _epoch: u64, rng: &mut StdRng) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.examples.len()).collect();
        order.shuffle(rng);
        order.chunks(self.batch.max(1)).map(|c| c.to_vec()).collect()
    }

    fn build_loss(
        &self,
        g: &mut Graph<'_>,
        batch: &Vec<usize>,
        _rng: &mut StdRng,
    ) -> Option<NodeId> {
        if batch.is_empty() {
            return None;
        }
        // Node embeddings computed once per step, reused by paths.
        let z = self.model.node_embeddings(g);
        let mut losses = Vec::with_capacity(batch.len());
        for &i in batch {
            let ex = &self.examples[i];
            let pred = self.model.path_time(g, z, &ex.path, self.net, ex.departure);
            let scaled = g.scale(pred, 1.0 / self.model.target_scale);
            let target = Tensor::scalar(ex.target / self.model.target_scale);
            losses.push(g.mse_to_const(scaled, &target));
        }
        Some(g.mean_scalars(&losses))
    }
}

/// Thread-safe predictor wrapper.
pub struct GcnTtePredictor(Mutex<GcnPredictor>);

impl GcnTtePredictor {
    pub fn new(inner: GcnPredictor) -> Self {
        Self(Mutex::new(inner))
    }
}

impl TravelTimePredictor for GcnTtePredictor {
    fn predict(&self, net: &RoadNetwork, path: &Path, departure: SimTime) -> f64 {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).predict_time(net, path, departure)
    }

    fn name(&self) -> &str {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_datagen::{CityDataset, DatasetConfig};
    use wsccl_roadnet::CityProfile;

    fn examples(ds: &CityDataset, n: usize) -> Vec<RegressionExample> {
        ds.tte
            .iter()
            .take(n)
            .map(|t| RegressionExample {
                path: t.path.clone(),
                departure: t.departure,
                target: t.travel_time,
            })
            .collect()
    }

    #[test]
    fn gcn_beats_mean_baseline_on_training_data() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 18));
        let ex = examples(&ds, 30);
        let mut model =
            GcnPredictor::train(&ds.net, &ex, &GcnConfig { epochs: 6, ..Default::default() });
        let mae: f64 = ex
            .iter()
            .map(|e| (model.predict_time(&ds.net, &e.path, e.departure) - e.target).abs())
            .sum::<f64>()
            / ex.len() as f64;
        let mean: f64 = ex.iter().map(|e| e.target).sum::<f64>() / ex.len() as f64;
        let mae_mean: f64 =
            ex.iter().map(|e| (e.target - mean).abs()).sum::<f64>() / ex.len() as f64;
        assert!(mae < mae_mean, "GCN {mae:.1} should beat mean {mae_mean:.1}");
    }

    #[test]
    fn stgcn_is_time_sensitive_and_gcn_is_not() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 18));
        let ex = examples(&ds, 15);
        let mut gcn =
            GcnPredictor::train(&ds.net, &ex, &GcnConfig { epochs: 2, ..Default::default() });
        let mut stgcn = GcnPredictor::train(
            &ds.net,
            &ex,
            &GcnConfig { epochs: 2, temporal: true, ..Default::default() },
        );
        let p = &ex[0].path;
        let t1 = SimTime::from_hm(0, 8, 0);
        let t2 = SimTime::from_hm(6, 3, 0);
        assert_eq!(gcn.predict_time(&ds.net, p, t1), gcn.predict_time(&ds.net, p, t2));
        assert_ne!(stgcn.predict_time(&ds.net, p, t1), stgcn.predict_time(&ds.net, p, t2));
    }

    #[test]
    fn predictions_are_positive() {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 18));
        let ex = examples(&ds, 10);
        let mut model =
            GcnPredictor::train(&ds.net, &ex, &GcnConfig { epochs: 1, ..Default::default() });
        for e in &ex {
            assert!(model.predict_time(&ds.net, &e.path, e.departure) > 0.0);
        }
    }
}
