//! node2vec driver: walks + skip-gram → node embeddings.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::skipgram::{cosine, SkipGram};
use crate::walks::AdjGraph;

/// node2vec hyperparameters. The paper uses 128-dimensional outputs; the
/// reproduction default is 32 (see DESIGN.md on CPU scaling).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node2VecConfig {
    pub dim: usize,
    pub walk_len: usize,
    pub walks_per_node: usize,
    pub window: usize,
    pub negatives: usize,
    /// Return parameter p.
    pub p: f64,
    /// In-out parameter q.
    pub q: f64,
    pub lr: f64,
    pub epochs: usize,
    pub seed: u64,
}

impl Default for Node2VecConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            walk_len: 20,
            walks_per_node: 6,
            window: 4,
            negatives: 4,
            p: 1.0,
            q: 1.0,
            lr: 0.025,
            epochs: 2,
            seed: 0,
        }
    }
}

/// Trained node2vec embeddings.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node2Vec {
    dim: usize,
    num_nodes: usize,
    /// Row-major `num_nodes × dim` table.
    embeddings: Vec<f64>,
}

impl Node2Vec {
    /// Train node2vec on a graph.
    pub fn train(graph: &AdjGraph, cfg: &Node2VecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4E2C_0DE5);
        let mut walks = Vec::with_capacity(graph.num_nodes() * cfg.walks_per_node);
        for _ in 0..cfg.walks_per_node {
            for start in 0..graph.num_nodes() {
                walks.push(graph.node2vec_walk(&mut rng, start, cfg.walk_len, cfg.p, cfg.q));
            }
        }
        let mut model = SkipGram::new(&mut rng, graph.num_nodes(), cfg.dim);
        for _ in 0..cfg.epochs {
            model.epoch(&mut rng, &walks, cfg.window, cfg.negatives, cfg.lr);
        }
        Self { dim: cfg.dim, num_nodes: graph.num_nodes(), embeddings: model.into_input() }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Embedding vector of a node.
    pub fn embedding(&self, node: usize) -> &[f64] {
        assert!(node < self.num_nodes, "node {node} out of range {}", self.num_nodes);
        &self.embeddings[node * self.dim..(node + 1) * self.dim]
    }

    /// Cosine similarity between two nodes.
    pub fn cosine(&self, a: usize, b: usize) -> f64 {
        cosine(self.embedding(a), self.embedding(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cliques joined by one bridge edge: embeddings must separate them.
    #[test]
    fn separates_two_communities() {
        let mut edges = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                edges.push((a, b));
                edges.push((a + 6, b + 6));
            }
        }
        edges.push((0, 6)); // bridge
        let g = AdjGraph::from_edges(12, &edges);
        let n2v = Node2Vec::train(
            &g,
            &Node2VecConfig { dim: 16, walks_per_node: 10, epochs: 4, ..Default::default() },
        );
        // Average within- vs cross-community similarity.
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut nw = 0;
        let mut nc = 0;
        for a in 1..6 {
            for b in (a + 1)..6 {
                within += n2v.cosine(a, b);
                nw += 1;
            }
            for b in 7..12 {
                cross += n2v.cosine(a, b);
                nc += 1;
            }
        }
        let (within, cross) = (within / nw as f64, cross / nc as f64);
        assert!(within > cross + 0.15, "within {within:.3} vs cross {cross:.3}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = AdjGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let cfg = Node2VecConfig { dim: 8, ..Default::default() };
        let a = Node2Vec::train(&g, &cfg);
        let b = Node2Vec::train(&g, &cfg);
        assert_eq!(a.embedding(2), b.embedding(2));
    }

    #[test]
    fn shapes() {
        let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let n2v = Node2Vec::train(&g, &Node2VecConfig { dim: 12, ..Default::default() });
        assert_eq!(n2v.num_nodes(), 4);
        assert_eq!(n2v.dim(), 12);
        assert_eq!(n2v.embedding(0).len(), 12);
    }

    /// Degenerate configs train to well-shaped (if uninformative) tables.
    #[test]
    fn degenerate_inputs_do_not_panic() {
        let empty = Node2Vec::train(&AdjGraph::from_edges(0, &[]), &Node2VecConfig::default());
        assert_eq!(empty.num_nodes(), 0);

        let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let zero_dim = Node2Vec::train(&g, &Node2VecConfig { dim: 0, ..Default::default() });
        assert_eq!(zero_dim.num_nodes(), 4);
        assert!(zero_dim.embedding(3).is_empty());
        assert_eq!(zero_dim.cosine(0, 1), 0.0);

        let cfg = Node2VecConfig { dim: 4, window: 0, ..Default::default() };
        let no_window = Node2Vec::train(&g, &cfg);
        assert_eq!(no_window.num_nodes(), 4);
        assert_eq!(no_window.embedding(2).len(), 4);
    }
}
