//! Undirected adjacency graphs and node2vec's biased second-order walks.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Simple undirected graph given by adjacency lists.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdjGraph {
    adj: Vec<Vec<usize>>,
}

impl AdjGraph {
    /// Build from an edge list over `n` nodes; duplicates are removed.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range {n}");
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Self { adj }
    }

    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// True if `a` and `b` are adjacent (binary search).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&b).is_ok()
    }

    /// One biased node2vec walk of at most `len` nodes starting at `start`
    /// (fewer when it reaches a node without neighbors; empty when `len` is 0).
    ///
    /// Return-parameter `p` discourages (>1) or encourages (<1) revisiting the
    /// previous node; in-out parameter `q` interpolates BFS (q>1) vs DFS (q<1).
    pub fn node2vec_walk(
        &self,
        rng: &mut StdRng,
        start: usize,
        len: usize,
        p: f64,
        q: f64,
    ) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        let mut walk = Vec::with_capacity(len);
        walk.push(start);
        if self.adj[start].is_empty() {
            return walk;
        }
        while walk.len() < len {
            let cur = *walk.last().expect("non-empty");
            let neighbors = &self.adj[cur];
            if neighbors.is_empty() {
                break;
            }
            let next = if walk.len() == 1 {
                neighbors[rng.random_range(0..neighbors.len())]
            } else {
                let prev = walk[walk.len() - 2];
                // Rejection sampling over the unnormalized bias weights.
                let max_w = (1.0 / p).max(1.0).max(1.0 / q);
                loop {
                    let cand = neighbors[rng.random_range(0..neighbors.len())];
                    let w = if cand == prev {
                        1.0 / p
                    } else if self.has_edge(cand, prev) {
                        1.0
                    } else {
                        1.0 / q
                    };
                    if rng.random::<f64>() * max_w <= w {
                        break cand;
                    }
                }
            };
            walk.push(next);
        }
        walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> AdjGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        AdjGraph::from_edges(n, &edges)
    }

    #[test]
    fn construction_dedupes_and_symmetrizes() {
        let g = AdjGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (1, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn walks_stay_on_edges() {
        let g = path_graph(10);
        let mut rng = StdRng::seed_from_u64(1);
        for start in 0..10 {
            let walk = g.node2vec_walk(&mut rng, start, 20, 1.0, 1.0);
            assert_eq!(walk[0], start);
            for w in walk.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "walk used non-edge {w:?}");
            }
        }
    }

    #[test]
    fn isolated_node_walk_is_singleton() {
        let g = AdjGraph::from_edges(3, &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(g.node2vec_walk(&mut rng, 2, 10, 1.0, 1.0), vec![2]);
    }

    #[test]
    fn zero_length_walk_is_empty() {
        let g = path_graph(4);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(g.node2vec_walk(&mut rng, 1, 0, 1.0, 1.0).is_empty());
        assert!(AdjGraph::from_edges(2, &[]).node2vec_walk(&mut rng, 0, 0, 1.0, 1.0).is_empty());
        assert_eq!(g.node2vec_walk(&mut rng, 1, 1, 1.0, 1.0), vec![1]);
    }

    #[test]
    fn high_p_discourages_backtracking() {
        // On a path graph every interior step has exactly two options:
        // backtrack or continue. With large p, continuing dominates.
        let g = path_graph(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut back = 0;
        let mut fwd = 0;
        for _ in 0..200 {
            let walk = g.node2vec_walk(&mut rng, 25, 10, 10.0, 1.0);
            for i in 2..walk.len() {
                if walk[i] == walk[i - 2] {
                    back += 1;
                } else {
                    fwd += 1;
                }
            }
        }
        assert!(fwd > 4 * back, "fwd {fwd} back {back}");
    }
}
