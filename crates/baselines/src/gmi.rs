//! Graphical Mutual Information maximization (Peng et al., WWW 2020).
//!
//! Node embeddings are trained so that a bilinear critic scores a node's
//! embedding high against its *own neighbors'* raw features (feature-level MI)
//! and low against random nodes' features — a first-order simplification of
//! GMI's FMI term, which is the dominant term in the original.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use wsccl_nn::layers::Linear;
use wsccl_nn::{Graph, NodeId, Parameters, Tensor};
use wsccl_roadnet::RoadNetwork;
use wsccl_train::{NoopObserver, TrainObserver, TrainSpec, Trainable, Trainer};

use crate::common::FnRepresenter;
use crate::dgi::{mean_adjacency, node_features};

/// GMI training configuration.
pub struct GmiConfig {
    pub dim: usize,
    pub epochs: usize,
    pub lr: f64,
    /// (positive, negative) node pairs sampled per epoch.
    pub pairs_per_epoch: usize,
    pub seed: u64,
}

impl Default for GmiConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 40, lr: 1e-2, pairs_per_epoch: 256, seed: 0 }
    }
}

/// One FMI step per epoch, as seen by the engine. Pair sampling happens
/// inside `build_loss` from the per-step RNG.
struct GmiTrainable<'a> {
    enc: &'a Linear,
    critic: &'a Linear,
    x: &'a Tensor,
    adj: &'a Tensor,
    neighbors: &'a [Vec<usize>],
    n: usize,
    pairs: usize,
}

impl Trainable for GmiTrainable<'_> {
    type Batch = ();

    fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<()> {
        vec![()]
    }

    fn build_loss(&self, g: &mut Graph<'_>, _batch: &(), rng: &mut StdRng) -> Option<NodeId> {
        let n = self.n;
        let adj_n = g.input(self.adj.clone());
        let x_n = g.input(self.x.clone());
        let agg = g.matmul(adj_n, x_n);
        let h = self.enc.forward(g, agg);
        let z = g.relu(h);
        // Critic projections of all embeddings: (n, in_dim).
        let proj = self.critic.forward(g, z);

        let mut terms = Vec::with_capacity(self.pairs);
        for _ in 0..self.pairs {
            let v = rng.random_range(0..n);
            if self.neighbors[v].is_empty() {
                continue;
            }
            let pos = self.neighbors[v][rng.random_range(0..self.neighbors[v].len())];
            let neg = rng.random_range(0..n);
            let xp = g.input(Tensor::row(self.x.row_slice(pos).to_vec()));
            let xn = g.input(Tensor::row(self.x.row_slice(neg).to_vec()));
            // Extract row v of proj with a one-hot left multiplication.
            let mut sel = Tensor::zeros(1, n);
            sel.set(0, v, 1.0);
            let sel_n = g.input(sel);
            let pv = g.matmul(sel_n, proj); // (1, in_dim)
            let pos_score = g.dot(pv, xp);
            let neg_score = g.dot(pv, xn);
            let pos_sig = g.sigmoid(pos_score);
            let pos_ln = g.ln(pos_sig);
            let neg_arg = g.scale(neg_score, -1.0);
            let neg_sig = g.sigmoid(neg_arg);
            let neg_ln = g.ln(neg_sig);
            let t = g.add(pos_ln, neg_ln);
            terms.push(t);
        }
        if terms.is_empty() {
            return None;
        }
        let mean = g.mean_scalars(&terms);
        Some(g.scale(mean, -1.0))
    }
}

/// Train GMI and return the path representer.
pub fn train(net: &RoadNetwork, cfg: &GmiConfig) -> FnRepresenter {
    train_observed(net, cfg, &mut NoopObserver)
}

/// [`train`] with a [`TrainObserver`] receiving per-step records.
pub fn train_observed(
    net: &RoadNetwork,
    cfg: &GmiConfig,
    observer: &mut dyn TrainObserver,
) -> FnRepresenter {
    let x = node_features(net);
    let adj = mean_adjacency(net);
    let in_dim = x.cols();
    let n = net.num_nodes();

    let mut params = Parameters::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6B1);
    let enc = Linear::new(&mut params, &mut rng, "gmi.enc", in_dim, cfg.dim);
    let critic = Linear::new_no_bias(&mut params, &mut rng, "gmi.critic", cfg.dim, in_dim);

    // Neighbor lists for positive sampling.
    let neighbors: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            let node = wsccl_roadnet::NodeId(v as u32);
            net.out_edges(node)
                .iter()
                .map(|&e| net.edge(e).to.index())
                .chain(net.in_edges(node).iter().map(|&e| net.edge(e).from.index()))
                .collect()
        })
        .collect();

    let mut trainer = Trainer::new(TrainSpec::adam(cfg.lr, cfg.epochs, cfg.seed));
    let mut t = GmiTrainable {
        enc: &enc,
        critic: &critic,
        x: &x,
        adj: &adj,
        neighbors: &neighbors,
        n,
        pairs: cfg.pairs_per_epoch,
    };
    trainer.run(&mut t, &mut params, cfg.epochs, observer);

    // Freeze final embeddings.
    let z = {
        let mut g = Graph::new(&params);
        let adj_n = g.input(adj.clone());
        let x_n = g.input(x.clone());
        let agg = g.matmul(adj_n, x_n);
        let h = enc.forward(&mut g, agg);
        let z = g.relu(h);
        g.value(z).clone()
    };
    let dim = 2 * cfg.dim;
    let z_rows: Vec<Vec<f64>> = (0..n).map(|v| z.row_slice(v).to_vec()).collect();
    FnRepresenter::new("GMI", dim, move |net, path, _dep| {
        let mut acc = vec![0.0; dim];
        for &e in path.edges() {
            let edge = net.edge(e);
            for (a, v) in
                acc.iter_mut().zip(z_rows[edge.from.index()].iter().chain(&z_rows[edge.to.index()]))
            {
                *a += v;
            }
        }
        let inv = 1.0 / path.len() as f64;
        acc.iter_mut().for_each(|v| *v *= inv);
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_core::PathRepresenter;
    use wsccl_roadnet::{CityProfile, Path};
    use wsccl_traffic::SimTime;

    #[test]
    fn trains_and_represents() {
        let net = CityProfile::Aalborg.generate(3);
        let rep = train(&net, &GmiConfig { epochs: 3, pairs_per_epoch: 64, ..Default::default() });
        let path = Path::new_unchecked(vec![net.out_edges(wsccl_roadnet::NodeId(0))[0]]);
        let v = rep.represent(&net, &path, SimTime::from_hm(0, 9, 0));
        assert_eq!(v.len(), 32);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
