//! Gradient boosting over regression trees.
//!
//! [`GbRegressor`] boosts squared loss (residual fitting); [`GbClassifier`]
//! boosts binary logistic loss. These stand in for sklearn's
//! GradientBoostingRegressor / GradientBoostingClassifier used by the paper
//! for all downstream tasks (§VII-A.4).

use serde::{Deserialize, Serialize};

use crate::tree::{RegressionTree, TreeConfig};

/// Boosting hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GbConfig {
    pub n_trees: usize,
    pub learning_rate: f64,
    pub tree: TreeConfig,
}

impl Default for GbConfig {
    fn default() -> Self {
        Self { n_trees: 80, learning_rate: 0.1, tree: TreeConfig::default() }
    }
}

/// Gradient-boosted regressor (squared loss).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GbRegressor {
    base: f64,
    trees: Vec<RegressionTree>,
    lr: f64,
}

impl GbRegressor {
    /// Fit on rows `x` and targets `y`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: &GbConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit on no data");
        assert_eq!(x.len(), y.len());
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred = vec![base; y.len()];
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            let residuals: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let tree = RegressionTree::fit(x, &residuals, &cfg.tree);
            for (p, row) in pred.iter_mut().zip(x) {
                *p += cfg.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Self { base, trees, lr: cfg.learning_rate }
    }

    pub fn predict(&self, row: &[f64]) -> f64 {
        self.base + self.lr * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    pub fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|row| self.predict(row)).collect()
    }

    /// Width of the rows the head was fitted on, read from its trees; `None`
    /// for a head with no trees, which predicts its base value for any row.
    pub fn num_features(&self) -> Option<usize> {
        self.trees.first().map(RegressionTree::num_features)
    }
}

/// Gradient-boosted binary classifier (logistic loss).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GbClassifier {
    base: f64,
    trees: Vec<RegressionTree>,
    lr: f64,
}

impl GbClassifier {
    /// Fit on rows `x` and binary labels `y ∈ {0, 1}`.
    pub fn fit(x: &[Vec<f64>], y: &[bool], cfg: &GbConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit on no data");
        assert_eq!(x.len(), y.len());
        let pos = y.iter().filter(|&&b| b).count() as f64 / y.len() as f64;
        // Initial log-odds, clamped away from degenerate all-one-class data.
        let p0 = pos.clamp(1e-3, 1.0 - 1e-3);
        let base = (p0 / (1.0 - p0)).ln();
        let mut score = vec![base; y.len()];
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            // Negative gradient of logistic loss: y - σ(score).
            let grad: Vec<f64> = y
                .iter()
                .zip(&score)
                .map(|(&t, &s)| (t as u8 as f64) - 1.0 / (1.0 + (-s).exp()))
                .collect();
            let tree = RegressionTree::fit(x, &grad, &cfg.tree);
            for (s, row) in score.iter_mut().zip(x) {
                *s += cfg.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Self { base, trees, lr: cfg.learning_rate }
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let s = self.base + self.lr * self.trees.iter().map(|t| t.predict(row)).sum::<f64>();
        1.0 / (1.0 + (-s).exp())
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn regressor_beats_the_mean_baseline() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 0.5 * r[0] * r[1]).collect();
        let model = GbRegressor::fit(&x, &y, &GbConfig::default());
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let mse_model: f64 =
            x.iter().zip(&y).map(|(r, t)| (model.predict(r) - t).powi(2)).sum::<f64>()
                / y.len() as f64;
        let mse_mean: f64 = y.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / y.len() as f64;
        assert!(mse_model < 0.15 * mse_mean, "model {mse_model:.4} vs mean {mse_mean:.4}");
    }

    #[test]
    fn regressor_is_near_exact_on_training_step_function() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let model = GbRegressor::fit(&x, &y, &GbConfig::default());
        assert!((model.predict(&[10.0]) - 0.0).abs() < 0.5);
        assert!((model.predict(&[90.0]) - 10.0).abs() < 0.5);
    }

    #[test]
    fn classifier_learns_a_nonlinear_boundary() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
            .collect();
        // XOR-ish quadrant labels — linearly inseparable.
        let y: Vec<bool> = x.iter().map(|r| (r[0] > 0.0) ^ (r[1] > 0.0)).collect();
        let model = GbClassifier::fit(&x, &y, &GbConfig::default());
        let correct = x.iter().zip(&y).filter(|(r, &t)| model.predict(r) == t).count();
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.9, "accuracy {acc:.3}");
    }

    #[test]
    fn classifier_probabilities_are_calibrated_in_direction() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let y: Vec<bool> = (0..200).map(|i| i >= 100).collect();
        let model = GbClassifier::fit(&x, &y, &GbConfig::default());
        assert!(model.predict_proba(&[0.05]) < 0.2);
        assert!(model.predict_proba(&[0.95]) > 0.8);
    }

    #[test]
    fn single_class_data_degrades_gracefully() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y = vec![true; 30];
        let model = GbClassifier::fit(&x, &y, &GbConfig::default());
        assert!(model.predict(&[15.0]));
        assert!(model.predict_proba(&[15.0]) > 0.9);
    }
}

impl GbRegressor {
    /// Split-count feature importance: how many internal splits across the
    /// ensemble test each feature, normalized to sum to 1. Zero-length when
    /// the ensemble consists solely of leaves (constant target).
    pub fn feature_importance(&self, num_features: usize) -> Vec<f64> {
        let mut counts = vec![0.0f64; num_features];
        for tree in &self.trees {
            tree.accumulate_split_counts(&mut counts);
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            counts.iter_mut().for_each(|c| *c /= total);
        }
        counts
    }
}

#[cfg(test)]
mod importance_tests {
    use super::*;

    #[test]
    fn importance_concentrates_on_the_informative_feature() {
        // y depends only on feature 1; feature 0 is noise-free constant-ish.
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 7) as f64, i as f64]).collect();
        let y: Vec<f64> = (0..200).map(|i| if i < 100 { 0.0 } else { 5.0 }).collect();
        let model = GbRegressor::fit(&x, &y, &GbConfig::default());
        let imp = model.feature_importance(2);
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > 0.8, "importance should concentrate on feature 1: {imp:?}");
    }

    #[test]
    fn constant_target_has_zero_importance() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 30];
        let model = GbRegressor::fit(&x, &y, &GbConfig::default());
        let imp = model.feature_importance(1);
        assert_eq!(imp, vec![0.0]);
    }
}
