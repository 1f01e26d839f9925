//! CART regression trees with variance-reduction splits.

use serde::{Deserialize, Serialize};

/// Tree growth limits.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Candidate thresholds per feature (quantile grid); keeps fitting
    /// O(features × candidates × samples) instead of sorting per node.
    pub candidates_per_feature: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 3, min_samples_leaf: 5, candidates_per_feature: 16 }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted regression tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Fit a tree to rows `x` (all the same width) and targets `y`.
    ///
    /// # Panics
    /// Panics if `x` is empty or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: &TreeConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on no data");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let num_features = x[0].len();
        let mut tree = Self { nodes: Vec::new(), num_features };
        let indices: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, &indices, 0, cfg);
        tree
    }

    fn mean(y: &[f64], idx: &[usize]) -> f64 {
        idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
    }

    fn sse(y: &[f64], idx: &[usize]) -> f64 {
        let m = Self::mean(y, idx);
        idx.iter().map(|&i| (y[i] - m).powi(2)).sum()
    }

    /// Grow a subtree over `idx`; returns the new node's index.
    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        cfg: &TreeConfig,
    ) -> usize {
        let leaf = |tree: &mut Self| {
            tree.nodes.push(Node::Leaf { value: Self::mean(y, idx) });
            tree.nodes.len() - 1
        };
        if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_samples_leaf {
            return leaf(self);
        }
        let parent_sse = Self::sse(y, idx);
        if parent_sse < 1e-12 {
            return leaf(self);
        }

        // Best split over a quantile grid of thresholds per feature.
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for f in 0..self.num_features {
            let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() as f64 / (cfg.candidates_per_feature + 1) as f64).max(1.0);
            let mut k = step;
            while (k as usize) < vals.len() {
                let threshold = (vals[k as usize - 1] + vals[k as usize]) / 2.0;
                // Partition statistics in one pass.
                let (mut ls, mut lc, mut lsum) = (0.0, 0usize, 0.0);
                let (mut rs, mut rc, mut rsum) = (0.0, 0usize, 0.0);
                for &i in idx {
                    if x[i][f] <= threshold {
                        lc += 1;
                        lsum += y[i];
                        ls += y[i] * y[i];
                    } else {
                        rc += 1;
                        rsum += y[i];
                        rs += y[i] * y[i];
                    }
                }
                if lc >= cfg.min_samples_leaf && rc >= cfg.min_samples_leaf {
                    let child_sse = (ls - lsum * lsum / lc as f64) + (rs - rsum * rsum / rc as f64);
                    let gain = parent_sse - child_sse;
                    if best.map_or(true, |(g, _, _)| gain > g) {
                        best = Some((gain, f, threshold));
                    }
                }
                k += step;
            }
        }

        let Some((gain, feature, threshold)) = best else { return leaf(self) };
        if gain <= 1e-12 {
            return leaf(self);
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);

        // Reserve this node's slot, then grow children.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 });
        let left = self.grow(x, y, &left_idx, depth + 1, cfg);
        let right = self.grow(x, y, &right_idx, depth + 1, cfg);
        self.nodes[me] = Node::Split { feature, threshold, left, right };
        me
    }

    /// Predict one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.num_features);
        // The root is the first node pushed by the outermost grow() call —
        // but grow() pushes children after reserving the parent slot only for
        // splits; for a pure leaf the root is node 0. Either way index 0 is
        // the root.
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    cur = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Width of the rows the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[33.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![2.5; 20];
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert_eq!(tree.num_nodes(), 1);
        assert!((tree.predict(&[7.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let cfg = TreeConfig { min_samples_leaf: 4, max_depth: 5, ..Default::default() };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        // With 8 samples and min leaf 4, at most one split is possible.
        assert!(tree.num_nodes() <= 3);
    }

    #[test]
    fn two_feature_interaction() {
        // y = 10 if x0 > 0.5 and x1 > 0.5 else 0; depth-2 tree can capture it.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let (a, b) = (i as f64 / 10.0, j as f64 / 10.0);
                x.push(vec![a, b]);
                y.push(if a > 0.5 && b > 0.5 { 10.0 } else { 0.0 });
            }
        }
        let cfg = TreeConfig { max_depth: 2, min_samples_leaf: 2, candidates_per_feature: 20 };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        assert!(tree.predict(&[0.9, 0.9]) > 8.0);
        assert!(tree.predict(&[0.1, 0.9]) < 2.0);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        RegressionTree::fit(&[], &[], &TreeConfig::default());
    }
}

impl RegressionTree {
    /// Add one count per internal split testing each feature.
    pub fn accumulate_split_counts(&self, counts: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, .. } = node {
                counts[*feature] += 1.0;
            }
        }
    }
}
