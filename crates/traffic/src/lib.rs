//! Traffic dynamics, trajectories, and weak labels.
//!
//! The paper's GPS datasets come from real vehicle fleets moving through real
//! traffic. This crate substitutes a generative model with the same structure:
//!
//! * [`time`] — simulation time over a week (the paper's temporal graph is
//!   built from 5-minute slots × 7 days, §IV-A).
//! * [`congestion`] — a time-of-day and space-dependent congestion model with
//!   weekday morning/afternoon peaks; it defines per-edge speeds and thus
//!   travel-time ground truth, and the citywide congestion index used for the
//!   TCI weak labels (§VII-A.5).
//! * [`drift`] — deterministic day-over-day drift of the congestion model
//!   (incidents, seasonal peak shifts, roadworks), the substrate of the
//!   continual-learning loop; every day is a pure function of `(seed, day)`.
//! * [`labels`] — the two weak-label families: peak/off-peak (POP, Definition
//!   6's example) and traffic congestion indices (TCI).
//! * [`trajectory`] — trip generation (OD sampling, peak-weighted departure
//!   times, perturbed-cost route choice), traversal simulation, and noisy GPS
//!   fix emission at per-city sampling rates (§VII-A.1).

pub mod congestion;
pub mod drift;
pub mod gen;
pub mod labels;
pub mod time;
pub mod trajectory;

pub use congestion::{CongestionModel, Incident};
pub use drift::{DriftConfig, DriftDay, DriftModel};
pub use gen::IndexedTripGen;
pub use labels::{PopLabeler, TciLabeler, WeakLabel, WeakLabeler};
pub use time::SimTime;
pub use trajectory::{GpsFix, Trajectory, Trip, TripConfig, TripGenerator};
