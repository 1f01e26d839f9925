//! Multi-layer LSTM over a sequence of row vectors (the paper's Eq. 7 encoder).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::params::{ParamId, Parameters};
use crate::tensor::Tensor;

/// One LSTM layer with fused gate weights (order: input, forget, cell, output).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LstmLayer {
    wx: ParamId, // (in_dim, 4h)
    wh: ParamId, // (h, 4h)
    b: ParamId,  // (1, 4h)
    hidden: usize,
}

impl LstmLayer {
    fn new(
        params: &mut Parameters,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx =
            params.register(format!("{name}.wx"), init::xavier_uniform(rng, in_dim, 4 * hidden));
        let wh =
            params.register(format!("{name}.wh"), init::xavier_uniform(rng, hidden, 4 * hidden));
        // Forget-gate bias initialized to 1 (standard trick for gradient flow).
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0);
        }
        let b = params.register(format!("{name}.b"), bias);
        Self { wx, wh, b, hidden }
    }
}

/// Stacked LSTM. The paper uses 2 layers with hidden size 128; dimensions are
/// configurable here.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Lstm {
    layers: Vec<LstmLayer>,
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    pub fn new(
        params: &mut Parameters,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
    ) -> Self {
        assert!(num_layers >= 1, "Lstm needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let d = if l == 0 { in_dim } else { hidden };
            layers.push(LstmLayer::new(params, rng, &format!("{name}.l{l}"), d, hidden));
        }
        Self { layers, in_dim, hidden }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer `(wx, wh, b)` parameter ids, bottom layer first — lets an
    /// inference path freeze the trained weights without going through the
    /// tape (see `wsccl_nn::infer`).
    pub fn layer_params(&self) -> Vec<(ParamId, ParamId, ParamId)> {
        self.layers.iter().map(|l| (l.wx, l.wh, l.b)).collect()
    }

    /// Run the stack over a sequence of `(1, in_dim)` (or `(n, in_dim)`)
    /// timestep nodes; returns the top layer's hidden state per step.
    ///
    /// Each layer is one fused [`Graph::lstm_seq`] node over the whole
    /// sequence: all four gates against the pre-packed `[i|f|g|o]` weight
    /// blocks, with a closed-form backward through time inside the op.
    pub fn forward(&self, g: &mut Graph<'_>, inputs: &[NodeId]) -> Vec<NodeId> {
        assert!(!inputs.is_empty(), "Lstm over empty sequence");
        let mut seq: Vec<NodeId> = inputs.to_vec();
        for layer in &self.layers {
            seq = g.lstm_seq(&seq, layer.wx, layer.wh, layer.b, self.hidden);
        }
        seq
    }

    /// Run the stack and return only the final hidden state.
    pub fn forward_last(&self, g: &mut Graph<'_>, inputs: &[NodeId]) -> NodeId {
        *self.forward(g, inputs).last().expect("non-empty sequence")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn output_shapes_match_sequence() {
        let mut params = Parameters::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(&mut params, &mut rng, "lstm", 3, 5, 2);
        let mut g = Graph::new(&params);
        let xs: Vec<NodeId> =
            (0..4).map(|t| g.input(Tensor::row(vec![t as f64, 1.0, -1.0]))).collect();
        let hs = lstm.forward(&mut g, &xs);
        assert_eq!(hs.len(), 4);
        for h in &hs {
            assert_eq!(g.value(*h).shape(), (1, 5));
        }
    }

    #[test]
    fn outputs_are_bounded_and_finite() {
        // h = o ⊙ tanh(c) with o ∈ (0,1) ⇒ |h| < 1.
        let mut params = Parameters::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = Lstm::new(&mut params, &mut rng, "lstm", 2, 4, 1);
        let mut g = Graph::new(&params);
        let xs: Vec<NodeId> = (0..50).map(|_| g.input(Tensor::row(vec![100.0, -100.0]))).collect();
        let hs = lstm.forward(&mut g, &xs);
        let last = g.value(*hs.last().unwrap());
        assert!(!last.has_non_finite());
        assert!(last.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn gradient_reaches_all_layers() {
        let mut params = Parameters::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(&mut params, &mut rng, "lstm", 2, 3, 2);
        let mut g = Graph::new(&params);
        let xs: Vec<NodeId> = (0..3).map(|_| g.input(Tensor::row(vec![1.0, 2.0]))).collect();
        let h = lstm.forward_last(&mut g, &xs);
        let loss = g.sum_all(h);
        g.backward(loss);
        let nonzero = params
            .ids()
            .filter(|&id| {
                g.grads().grad(id).is_some_and(|t| t.data().iter().any(|v| v.abs() > 0.0))
            })
            .count();
        assert_eq!(nonzero, params.len(), "every LSTM parameter should receive gradient");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut params = Parameters::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(&mut params, &mut rng, "lstm", 2, 3, 1);
        let mut g = Graph::new(&params);
        lstm.forward(&mut g, &[]);
    }
}
