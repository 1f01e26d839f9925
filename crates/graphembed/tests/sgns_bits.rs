//! Bit-level guards on the node2vec encoder tables.
//!
//! The digests below pin every bit of the embeddings `Node2Vec::train`
//! produces for the two graphs the encoder freezes (the Aalborg road graph and
//! the 2016-node temporal graph), and the exact loss `SkipGram::train_walks`
//! returns. A change to the skip-gram code must keep the same arithmetic and
//! the same RNG draw order, so these values must never move; a change that
//! moves them changes every trained model downstream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsccl_graphembed::roadgraph::build_road_graph;
use wsccl_graphembed::skipgram::SkipGram;
use wsccl_graphembed::temporal::build_temporal_graph;
use wsccl_graphembed::{AdjGraph, Node2Vec, Node2VecConfig};
use wsccl_roadnet::CityProfile;

/// FNV-1a over the little-endian bits of every value.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn embedding_digest(n2v: &Node2Vec) -> u64 {
    digest((0..n2v.num_nodes()).flat_map(|v| n2v.embedding(v).to_vec()))
}

fn small_cfg(dim: usize, seed: u64) -> Node2VecConfig {
    Node2VecConfig { dim, walks_per_node: 1, epochs: 2, seed, ..Default::default() }
}

fn road_graph() -> AdjGraph {
    build_road_graph(&CityProfile::Aalborg.generate(2022))
}

#[test]
fn road_graph_embedding_bits_are_pinned() {
    let n2v = Node2Vec::train(&road_graph(), &small_cfg(8, 11));
    assert_eq!(n2v.dim(), 8);
    assert_eq!(
        embedding_digest(&n2v),
        0x70d1f87744274f14,
        "road-graph node2vec embedding bits moved"
    );
}

#[test]
fn temporal_graph_embedding_bits_are_pinned() {
    let n2v = Node2Vec::train(&build_temporal_graph(), &small_cfg(16, 12));
    assert_eq!(n2v.num_nodes(), 2016);
    assert_eq!(
        embedding_digest(&n2v),
        0x2c8611ae0a492b36,
        "temporal-graph node2vec embedding bits moved"
    );
}

#[test]
fn train_walks_loss_bits_are_pinned() {
    let g = road_graph();
    let mut rng = StdRng::seed_from_u64(13);
    let walks: Vec<Vec<usize>> =
        (0..g.num_nodes()).map(|v| g.node2vec_walk(&mut rng, v, 12, 1.0, 2.0)).collect();
    let mut model = SkipGram::new(&mut rng, g.num_nodes(), 8);
    let loss = model.train_walks(&mut rng, &walks, 3, 4, 0.025, 2);
    assert_eq!(loss.to_bits(), 0x4008ba4238996aae, "train_walks loss bits moved ({loss})");
}
