//! Benchmark harness: evaluation protocol, method registry, and reporting
//! shared by the per-table experiment binaries (`src/bin/table*.rs`,
//! `src/bin/fig07_pretraining.rs`).
//!
//! Protocol (following §VII-A.4): every method produces temporal path
//! representations; a Gradient Boosting Regressor is fit on the 80% training
//! split of the labeled data for travel-time and ranking-score estimation,
//! and a Gradient Boosting Classifier for path recommendation. Metrics are
//! computed on the held-out 20%. GCN/STGCN predict travel time directly.
//!
//! Experiment scale is controlled by the `WSCCL_SCALE` environment variable:
//! `tiny` (smoke test), `small` (default), or `full`; any other value exits
//! with status 2. Every `BENCH_*.json` file is written through [`record`].

pub mod eval;
pub mod kfold;
pub mod methods;
pub mod record;
pub mod report;
pub mod runner;
pub mod scale;
pub mod serve_bench;

pub use eval::{evaluate_ranking, evaluate_recommendation, evaluate_tte, evaluate_tte_predictor};
pub use eval::{RankMetrics, RecMetrics, TteMetrics};
pub use methods::{train_method, Method, MethodKind};
pub use report::Table;
pub use scale::{datagen_tiers, metro_dataset, Scale};
pub use serve_bench::{EmbedPathResult, ServeBench, ServeWorkloadResult};
