//! `wsccl-serve` — batched low-latency embedding/ETA serving.
//!
//! A [`Server`] owns one dedicated thread running a plain blocking loop: it
//! waits on a `std::sync` request queue, serves what has arrived as one
//! batch, and between batches ticks an optional checkpoint watcher. Any
//! number of threads hold cheap [`Client`] handles, each call waiting on its
//! own reply slot; their embed/ETA calls are coalesced into batched f32
//! forward passes through the active SIMD kernel backend, answered from a
//! sharded LRU path-embedding cache when warm, and keep flowing across hot
//! checkpoint reloads (`Arc` swap; zero dropped requests).
//!
//! ```no_run
//! # use wsccl_serve::{Server, ServeConfig};
//! # fn demo(rep: wsccl_core::TrainedRepresenter,
//! #         path: wsccl_roadnet::Path, dep: wsccl_traffic::SimTime) {
//! let server = Server::spawn(rep, ServeConfig::default());
//! let client = server.client();
//! let embedding = client.embed(&path, dep).unwrap();
//! let stats = server.shutdown();
//! # let _ = (embedding, stats);
//! # }
//! ```
//!
//! See DESIGN.md §12 for the architecture (serving loop, batcher, cache key
//! semantics, reload protocol, error budget).

pub mod cache;
pub mod server;

pub use cache::{path_hash, CacheKey, CacheStats, EmbeddingCache};
pub use server::{Client, ServeConfig, ServeError, ServeStats, Server};
