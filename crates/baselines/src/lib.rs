//! The baseline methods of the paper's evaluation (§VII-A.3).
//!
//! Seven unsupervised methods:
//! * [`node2vec_path`] — node2vec edge representations averaged over the path.
//! * [`dgi`] — Deep Graph InfoMax: a mean-aggregation GCN encoder trained to
//!   discriminate true node embeddings from feature-shuffled corruptions
//!   against a global summary.
//! * [`gmi`] — Graphical Mutual Information: node embeddings trained to agree
//!   with their own neighborhood's raw features and disagree with random
//!   nodes' features.
//! * [`mb`] — Memory Bank instance discrimination with an LSTM path encoder.
//! * [`bert`] — a small self-attention encoder trained by masked-edge
//!   prediction over paths-as-sentences.
//! * [`infograph`] — path-as-graph local–global mutual information
//!   maximization.
//! * [`pim`] — unsupervised path representation learning via global/local MI
//!   with a single positive per query (the paper's closest prior work), plus
//!   the PIM-Temporal variant (Table IX) that concatenates a frozen temporal
//!   embedding.
//!
//! Five supervised methods:
//! * [`pathrank`] — GRU path encoder regressing a task label; also supports
//!   initialization from a pre-trained WSCCL encoder (Fig. 7).
//! * [`deepgtt`] — travel-time-specific generative-style model: per-edge
//!   speed MLP conditioned on departure time.
//! * [`hmtrl`] — GRU + self-attention multi-task route representation.
//! * [`gcn`] (GCN and STGCN) — graph-convolutional per-edge travel-time
//!   predictors (path time = sum of edge times); STGCN adds temporal input.
//!   These two predict travel time directly and do not produce generic
//!   representations (the paper excludes them from ranking/recommendation).

pub mod bert;
pub mod common;
pub mod deepgtt;
pub mod dgi;
pub mod gcn;
pub mod gmi;
pub mod hmtrl;
pub mod infograph;
pub mod mb;
pub mod node2vec_path;
pub mod pathrank;
pub mod pim;

pub use common::{EdgeFeaturizer, FnRepresenter, TravelTimePredictor};
