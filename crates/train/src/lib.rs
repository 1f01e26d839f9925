//! Shared training engine for WSCCL and every baseline.
//!
//! Before this crate existed, `wsc.rs` and all twelve baselines hand-rolled
//! epoch iteration, minibatch shuffling, optimizer construction, gradient
//! clipping, and seeding — thirteen near-identical loops with zero shared
//! instrumentation. The engine factors the loop out:
//!
//! * [`Trainable`] — a model exposes its epoch batch list (deterministic from
//!   the engine RNG) and builds one step's loss node on a fresh tape.
//! * [`TrainSpec`] — epochs, optimizer choice, LR schedule, gradient clipping
//!   and seed.
//! * [`Trainer`] — the stateful trainer: one tape per step on the calling
//!   thread, drawing its buffers from one recycled pool, a step/epoch
//!   counter, and the engine RNG. Its full state round-trips through
//!   [`TrainerState`], so a resumed run provably matches an uninterrupted
//!   one.
//! * [`TrainObserver`] — per-step / per-epoch hooks carrying loss, gradient
//!   norm, learning rate, and elapsed time.
//!
//! Determinism rules: every stochastic choice is drawn either from the engine
//! RNG (epoch shuffles, one seed per step, in a fixed order) or from the
//! step's RNG seeded by that draw (in-step sampling).

pub mod checkpoint;
pub mod engine;
pub mod jsonl;
pub mod observe;
pub mod replay;
pub mod spec;

pub use checkpoint::TrainerState;
pub use engine::{Optimizer, StepOutcome, Trainable, Trainer};
pub use jsonl::{
    run_log_path, EpochLine, HistogramLine, JsonlObserver, MetricsLine, PhaseLine, StepLine,
};
pub use observe::{EpochRecord, LossCurve, NoopObserver, StepRecord, TrainObserver};
pub use replay::ReplayBuffer;
pub use spec::{LrSchedule, OptimizerKind, TrainSpec};
