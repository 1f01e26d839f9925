//! `wsccl-serve` — batched low-latency embedding/ETA serving.
//!
//! A [`Server`] owns one dedicated thread running a plain blocking loop: it
//! waits on a `std::sync` request queue, serves what has arrived as one
//! batch, and between batches ticks an optional checkpoint watcher. Any
//! number of threads hold cheap [`Client`] handles. A single embed, ETA or
//! k-NN call whose key is in the sharded LRU path-embedding cache is
//! answered on the calling thread, with no queue round trip; every other
//! call waits on its own reply slot while the serve thread coalesces the
//! misses into batched f32 forward passes through the active SIMD kernel
//! backend. Calls keep flowing across hot checkpoint reloads (`Arc` swap
//! and cache clear before the reply; zero dropped requests).
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
//! See DESIGN.md §12 for the architecture (request path, serving loop,
//! batcher, cache key semantics, reload protocol and its ordering).

pub mod cache;
pub mod server;

pub use cache::{path_hash, CacheKey, CacheStats, EmbeddingCache};
pub use server::{Client, ServeConfig, ServeError, ServeStats, Server};
