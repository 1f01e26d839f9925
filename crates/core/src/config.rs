//! WSCCL hyperparameters.

use serde::{Deserialize, Serialize};

use crate::encoder::EncoderConfig;

/// Full training configuration.
///
/// Paper defaults (§VII-A.6): d_rt/d_l/d_o/d_ts = 64/32/16/16, node2vec dim
/// 128, 2 LSTM layers of 128, λ = 0.8, lr = 3e-4, batch 32, N = M = 10.
/// Reproduction defaults scale every width down ~4–8× and N = M down to 4 so
/// the full evaluation runs on CPU (DESIGN.md §1); the λ and the structure are
/// unchanged.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WscclConfig {
    pub encoder: EncoderConfig,
    /// Balance between global and local WSC loss (Eq. 12); paper: 0.8.
    pub lambda: f64,
    /// Temperature τ̂ dividing the cosine similarities in the global WSC loss
    /// (the paper's Eq. 9 carries a temperature; Eq. 10 inherits the
    /// convention from SupCon). Values > 1 soften the uniformity pressure,
    /// which matters at reproduction scale where a small encoder can
    /// otherwise orthogonalize the whole training pool.
    pub temperature: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Minibatch size (anchor–positive–negative blocks; see `sampler`).
    pub batch_size: usize,
    /// Training epochs for the plain WSC model (and the final curriculum
    /// stage).
    pub epochs: usize,
    /// Number of meta-sets N = number of curriculum stages M (§VI; paper 10).
    pub num_meta_sets: usize,
    /// Epochs used to train each curriculum expert.
    pub expert_epochs: usize,
    /// Positive/negative edges sampled per query for the local loss.
    pub local_edges: usize,
    /// Gradient clipping threshold (global L2 norm).
    pub grad_clip: f64,
    /// Number of data-parallel shards per contrastive training step. Each
    /// shard is an independently sampled sub-batch (negatives stay within the
    /// shard) whose gradients are reduced in shard order before one optimizer
    /// step. This is a *logical* split: it changes the math, so it lives in
    /// the config; see `threads` for the execution knob.
    pub shards: usize,
    /// Worker threads used to execute the shards of one training step.
    /// Purely an execution detail — any value produces bit-for-bit identical
    /// training for a fixed seed and shard count.
    pub threads: usize,
    /// Recycle tape buffers across training steps (see `wsccl_nn::TensorPool`).
    /// Execution detail only: pooled and unpooled training are bit-for-bit
    /// identical. Defaults to on; configs written before this knob existed
    /// load as on.
    #[serde(default = "default_pooling")]
    pub pooling: bool,
    pub seed: u64,
}

fn default_pooling() -> bool {
    true
}

impl Default for WscclConfig {
    fn default() -> Self {
        Self {
            encoder: EncoderConfig::default(),
            lambda: 0.8,
            temperature: 1.0,
            lr: 3e-3,
            batch_size: 16,
            epochs: 3,
            num_meta_sets: 4,
            expert_epochs: 1,
            local_edges: 3,
            grad_clip: 5.0,
            shards: 1,
            threads: 1,
            pooling: true,
            seed: 0,
        }
    }
}

impl WscclConfig {
    /// Tiny configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            encoder: EncoderConfig::tiny(),
            epochs: 1,
            num_meta_sets: 2,
            expert_epochs: 1,
            batch_size: 8,
            ..Default::default()
        }
    }
}
