//! Training specification: optimizer choice, learning-rate schedule,
//! clipping and seed, shared by every model in the workspace.

use serde::{Deserialize, Serialize};

/// Which optimizer the engine instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain SGD, or momentum SGD when `momentum != 0`.
    Sgd { momentum: f64 },
    /// Adam with the library defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    Adam,
}

/// Learning-rate schedule, evaluated per optimizer step as a factor on the
/// base rate in [`TrainSpec::lr`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// `lr` at every step.
    Constant,
    /// Linear warmup from `lr / warmup_steps` up to `lr` over the first
    /// `warmup_steps` steps, then linear decay down to `lr * final_factor`
    /// over the next `decay_steps` steps, constant afterwards.
    LinearWarmupDecay { warmup_steps: u64, decay_steps: u64, final_factor: f64 },
}

impl LrSchedule {
    /// Multiplier applied to the base learning rate at global step `step`
    /// (0-based, counting attempted optimizer steps).
    pub fn factor(&self, step: u64) -> f64 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::LinearWarmupDecay { warmup_steps, decay_steps, final_factor } => {
                if step < warmup_steps {
                    (step + 1) as f64 / warmup_steps as f64
                } else if decay_steps == 0 {
                    final_factor
                } else {
                    let into = (step - warmup_steps).min(decay_steps) as f64;
                    let frac = into / decay_steps as f64;
                    1.0 + (final_factor - 1.0) * frac
                }
            }
        }
    }
}

/// Everything the engine needs to know about how to train, independent of
/// *what* is being trained.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainSpec {
    /// Default number of epochs for a full [`crate::Trainer::run`].
    pub epochs: usize,
    pub optimizer: OptimizerKind,
    /// Base learning rate (scaled per step by `schedule`).
    pub lr: f64,
    pub schedule: LrSchedule,
    /// Clip the gradient to this L2 norm; `None` disables clipping.
    pub grad_clip: Option<f64>,
    /// Seed for the engine RNG (epoch shuffles and per-step seeds).
    pub seed: u64,
}

impl TrainSpec {
    /// An Adam spec with constant LR and no clipping — the shape every
    /// baseline used before the engine existed.
    pub fn adam(lr: f64, epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            optimizer: OptimizerKind::Adam,
            lr,
            schedule: LrSchedule::Constant,
            grad_clip: None,
            seed,
        }
    }

    pub fn with_grad_clip(mut self, clip: f64) -> Self {
        self.grad_clip = Some(clip);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_is_flat() {
        for step in [0, 1, 100, 10_000] {
            assert_eq!(LrSchedule::Constant.factor(step), 1.0);
        }
    }

    #[test]
    fn warmup_decay_ramps_and_decays() {
        let s =
            LrSchedule::LinearWarmupDecay { warmup_steps: 4, decay_steps: 10, final_factor: 0.1 };
        assert!((s.factor(0) - 0.25).abs() < 1e-12);
        assert!((s.factor(3) - 1.0).abs() < 1e-12);
        // Midway through decay: halfway between 1.0 and 0.1.
        assert!((s.factor(9) - (1.0 - 0.9 * 0.5)).abs() < 1e-12);
        // Past the decay window: pinned at the final factor.
        assert!((s.factor(14) - 0.1).abs() < 1e-12);
        assert!((s.factor(1_000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn warmup_only_schedule_holds_final_factor() {
        let s =
            LrSchedule::LinearWarmupDecay { warmup_steps: 2, decay_steps: 0, final_factor: 1.0 };
        assert!((s.factor(0) - 0.5).abs() < 1e-12);
        assert_eq!(s.factor(2), 1.0);
        assert_eq!(s.factor(50), 1.0);
    }
}
