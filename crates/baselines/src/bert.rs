//! BERT-style baseline: a path is treated as a sentence of edges and a small
//! self-attention encoder is pre-trained by masked-edge prediction (the
//! paper's adaptation of BERT to paths).
//!
//! One random position per path is replaced by a learned `[MASK]` vector; the
//! output at that position must identify the true edge among sampled decoys
//! (negative-sampled cross-entropy, standing in for the full-vocabulary
//! softmax). The path representation is the mean of the encoder outputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use wsccl_datagen::TemporalPathSample;
use wsccl_nn::layers::{Linear, SelfAttention};
use wsccl_nn::{Graph, NodeId, Parameters, Tensor};
use wsccl_roadnet::RoadNetwork;
use wsccl_train::{NoopObserver, TrainObserver, TrainSpec, Trainable, Trainer};

use crate::common::{EdgeFeaturizer, FnRepresenter};

/// BERT baseline configuration.
pub struct BertConfig {
    pub dim: usize,
    pub blocks: usize,
    pub epochs: usize,
    pub lr: f64,
    /// Decoy edges per masked prediction.
    pub decoys: usize,
    pub max_len: usize,
    pub seed: u64,
}

impl Default for BertConfig {
    fn default() -> Self {
        Self { dim: 24, blocks: 1, epochs: 3, lr: 2e-3, decoys: 8, max_len: 64, seed: 0 }
    }
}

struct BertModel {
    proj: Linear,
    blocks: Vec<SelfAttention>,
    edge_proj: Linear,
    mask_vec: wsccl_nn::ParamId,
    pos_table: wsccl_nn::ParamId,
    dim: usize,
    max_len: usize,
}

impl BertModel {
    /// Encode a feature sequence; `mask` optionally replaces one position.
    fn encode(&self, g: &mut Graph<'_>, feats: &[Vec<f64>], mask: Option<usize>) -> NodeId {
        let rows: Vec<NodeId> = feats
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let token = if mask == Some(i) {
                    let m = g.param(self.mask_vec);
                    m
                } else {
                    let x = g.input(Tensor::row(f.clone()));
                    self.proj.forward(g, x)
                };
                let pos = g.embed_lookup(self.pos_table, &[i.min(self.max_len - 1)]);
                g.add(token, pos)
            })
            .collect();
        let mut h = g.concat_rows(&rows);
        for b in &self.blocks {
            h = b.forward(g, h);
        }
        h
    }
}

/// Masked-edge prediction over the unlabeled pool, as seen by the engine.
/// The mask position and decoy edges are drawn from the per-step RNG.
struct BertTrainable<'a> {
    model: &'a BertModel,
    ef: &'a EdgeFeaturizer,
    pool: &'a [TemporalPathSample],
    decoys: usize,
    num_edges: usize,
}

impl Trainable for BertTrainable<'_> {
    type Batch = usize;

    fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<usize> {
        (0..self.pool.len()).collect()
    }

    fn build_loss(&self, g: &mut Graph<'_>, &i: &usize, rng: &mut StdRng) -> Option<NodeId> {
        let sample = &self.pool[i];
        let feats = self.ef.path(&sample.path);
        if feats.len() < 2 {
            return None;
        }
        let mask_pos = rng.random_range(0..feats.len());
        let true_edge = sample.path.edges()[mask_pos];
        let h = self.model.encode(g, &feats, Some(mask_pos));
        // Output at the masked position.
        let mut sel = Tensor::zeros(1, feats.len());
        sel.set(0, mask_pos, 1.0);
        let sel_n = g.input(sel);
        let hm = g.matmul(sel_n, h); // (1, dim)

        // Candidates: true edge first, then decoys.
        let mut cand_rows: Vec<NodeId> = Vec::with_capacity(self.decoys + 1);
        let t = g.input(Tensor::row(self.ef.edge(true_edge).to_vec()));
        cand_rows.push(self.model.edge_proj.forward(g, t));
        for _ in 0..self.decoys {
            let d = wsccl_roadnet::EdgeId(rng.random_range(0..self.num_edges as u32));
            let x = g.input(Tensor::row(self.ef.edge(d).to_vec()));
            cand_rows.push(self.model.edge_proj.forward(g, x));
        }
        let cands = g.concat_rows(&cand_rows); // (k+1, dim)
        let logits = g.matmul_nt(hm, cands); // (1, k+1)
        Some(g.cross_entropy(logits, 0))
    }
}

/// Train the BERT baseline on the unlabeled pool.
pub fn train(net: &RoadNetwork, pool: &[TemporalPathSample], cfg: &BertConfig) -> FnRepresenter {
    train_observed(net, pool, cfg, &mut NoopObserver)
}

/// [`train`] with a [`TrainObserver`] receiving per-step records.
pub fn train_observed(
    net: &RoadNetwork,
    pool: &[TemporalPathSample],
    cfg: &BertConfig,
    observer: &mut dyn TrainObserver,
) -> FnRepresenter {
    assert!(!pool.is_empty(), "BERT needs a non-empty pool");
    let ef = EdgeFeaturizer::new(net);
    let mut params = Parameters::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE27);
    let model = BertModel {
        proj: Linear::new(&mut params, &mut rng, "bert.proj", ef.dim(), cfg.dim),
        blocks: (0..cfg.blocks)
            .map(|i| SelfAttention::new(&mut params, &mut rng, &format!("bert.attn{i}"), cfg.dim))
            .collect(),
        edge_proj: Linear::new(&mut params, &mut rng, "bert.edge", ef.dim(), cfg.dim),
        mask_vec: params.register("bert.mask", wsccl_nn::init::normal(&mut rng, 1, cfg.dim, 0.1)),
        pos_table: params
            .register("bert.pos", wsccl_nn::init::normal(&mut rng, cfg.max_len, cfg.dim, 0.1)),
        dim: cfg.dim,
        max_len: cfg.max_len,
    };
    let mut trainer = Trainer::new(TrainSpec::adam(cfg.lr, cfg.epochs, cfg.seed));
    let mut t = BertTrainable {
        model: &model,
        ef: &ef,
        pool,
        decoys: cfg.decoys,
        num_edges: net.num_edges(),
    };
    trainer.run(&mut t, &mut params, cfg.epochs, observer);
    drop(t);

    let dim = model.dim;
    FnRepresenter::new("BERT", dim, move |_net, path, _dep| {
        let feats = ef.path(path);
        let mut g = Graph::new(&params);
        let h = model.encode(&mut g, &feats, None);
        let z = g.mean_rows(h);
        // Sum view (see DESIGN.md): magnitude carries path length.
        let mut v = g.value(z).data().to_vec();
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
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 9));
        let pool: Vec<_> = ds.unlabeled.iter().take(15).cloned().collect();
        let rep = train(&ds.net, &pool, &BertConfig { epochs: 1, ..Default::default() });
        let v = rep.represent(&ds.net, &pool[0].path, SimTime::from_hm(0, 8, 0));
        assert_eq!(v.len(), rep.dim());
        assert!(v.iter().all(|x| x.is_finite()));
        // Different paths get different representations.
        let w = rep.represent(&ds.net, &pool[1].path, SimTime::from_hm(0, 8, 0));
        assert_ne!(v, w);
    }
}
