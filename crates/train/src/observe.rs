//! Observer hooks: per-step and per-epoch instrumentation.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Everything the engine knows about one optimizer step.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Global epoch counter (across multiple `run` calls on one trainer).
    pub epoch: u64,
    /// Global step counter (attempted steps, across all epochs).
    pub step: u64,
    /// The step's loss, or NaN when the step was skipped and no optimizer
    /// step was applied.
    pub loss: f64,
    /// L2 norm of the gradient before clipping (0 for skipped steps).
    pub grad_norm: f64,
    /// Learning rate actually applied (base rate × schedule factor).
    pub lr: f64,
    pub elapsed: Duration,
    /// Named loss terms the loss builder exposed via
    /// `Graph::track_scalar`, in recording order (empty when the model tracks
    /// nothing or the step was skipped).
    pub terms: Vec<(&'static str, f64)>,
}

impl StepRecord {
    /// Whether an optimizer step was applied.
    pub fn applied(&self) -> bool {
        self.loss.is_finite()
    }
}

/// Summary of one epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Number of batches attempted this epoch.
    pub steps: usize,
    /// Mean loss over applied steps, or NaN when none applied.
    pub mean_loss: f64,
    pub elapsed: Duration,
}

/// Hook interface invoked by the engine on the driver thread. `on_step` fires
/// exactly once per batch (including skipped steps, with a NaN loss), so a
/// run over `epochs` epochs of `steps` batches fires `epochs × steps` times.
pub trait TrainObserver {
    fn on_step(&mut self, _record: &StepRecord) {}
    fn on_epoch(&mut self, _record: &EpochRecord) {}
    /// A named training phase began (curriculum stage, expert pre-training,
    /// final stage, …). Fired by multi-stage drivers, not by the engine.
    fn on_phase(&mut self, _name: &str) {}
}

/// Observer that ignores everything.
pub struct NoopObserver;

impl TrainObserver for NoopObserver {}

/// Observer that accumulates the loss curve, for bench reports and tests.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LossCurve {
    /// Per-step losses (NaN for skipped steps).
    pub step_losses: Vec<f64>,
    /// Per-step pre-clip gradient norms.
    pub grad_norms: Vec<f64>,
    /// Mean loss per epoch (NaN for epochs where every step was skipped).
    pub epoch_losses: Vec<f64>,
}

impl LossCurve {
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainObserver for LossCurve {
    fn on_step(&mut self, record: &StepRecord) {
        self.step_losses.push(record.loss);
        self.grad_norms.push(record.grad_norm);
    }

    fn on_epoch(&mut self, record: &EpochRecord) {
        self.epoch_losses.push(record.mean_loss);
    }
}

impl<T: TrainObserver + ?Sized> TrainObserver for &mut T {
    fn on_step(&mut self, record: &StepRecord) {
        (**self).on_step(record);
    }

    fn on_epoch(&mut self, record: &EpochRecord) {
        (**self).on_epoch(record);
    }

    fn on_phase(&mut self, name: &str) {
        (**self).on_phase(name);
    }
}
