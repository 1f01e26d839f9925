//! Downstream task machinery (§VII-A.2/4).
//!
//! The paper evaluates every representation-learning method by freezing the
//! learned representations and fitting sklearn's Gradient Boosting Regressor
//! (travel time, ranking score) or Classifier (path recommendation) on top.
//! This crate provides from-scratch equivalents, unified behind a task layer:
//!
//! * [`tree`] — CART regression trees (variance-reduction splits).
//! * [`gbdt`] — gradient boosting: [`gbdt::GbRegressor`] (squared loss) and
//!   [`gbdt::GbClassifier`] (binary logistic loss).
//! * [`metrics`] — MAE / MARE / MAPE (Eq. 14), Kendall τ-a / τ-b and
//!   Spearman ρ (Eq. 15), accuracy, hit rate and hit-rate@k (Eq. 16).
//! * [`task`] — the [`task::Task`] trait (fit on frozen embeddings →
//!   predict → score, serializable heads) with [`task::EtaRegression`],
//!   [`task::PathRanking`], [`task::PathClassification`]. Every head-fitting
//!   site in the workspace goes through this layer.
//! * [`index`] — trajectory-similarity search: exact brute-force and IVF
//!   approximate top-k over f32 embeddings, with recall@k instrumentation.
//! * [`odtte`] — OD travel-time estimation from per-(origin, destination,
//!   departure-slot) embedding aggregates with weak-TCI-label features.

pub mod gbdt;
pub mod index;
pub mod metrics;
pub mod odtte;
pub mod task;
pub mod tree;

pub use gbdt::{GbClassifier, GbConfig, GbRegressor};
pub use index::{AnnConfig, AnnIndex, ExactIndex, Neighbor, VectorIndex};
pub use odtte::{OdFallback, OdTrip, OdtteConfig, OdtteModel};
pub use task::{
    EtaRegression, PathClassification, PathRanking, RankScores, RecScores, Task, TteScores,
};
