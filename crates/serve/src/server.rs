//! The serving loop and its clients. One dedicated thread owns the model
//! and runs a plain blocking loop — wait for a request (or the checkpoint
//! watcher's next poll tick), serve a batch, tick the watcher. What callers
//! may read without it lives in one [`Shared`] behind an `Arc`: the request
//! queue and its closed flag, the embedding cache, the ETA head and vector
//! index slots, and the counters.
//!
//! # Request path
//!
//! A single [`Client::embed`], [`Client::eta`] or [`Client::knn`] call first
//! probes the cache on the calling thread. On a hit it is answered there —
//! the ETA head or index scan runs on the caller too — with no queue push and
//! no thread wake. Misses, empty paths, `embed_many` groups and control
//! requests go through the queue. A miss is queued flagged as probed, so the
//! serve thread does not probe again and every lookup counts exactly one hit
//! or one miss. Both paths turn an embedding into the call's answer through
//! the same [`Shared::answer`]. A hit needs no edge check: only embeddings of
//! validated paths are inserted, and the stored edge sequence must equal the
//! probe's.
//!
//! # Queue and replies
//!
//! Clients push requests onto a [`Queue`] (a `VecDeque` under a `Mutex`,
//! with a `Condvar` the serve thread parks on) and wait on a per-request
//! [`Slot`] (one value under a `Mutex` + `Condvar`). A reply slot whose
//! sender is dropped unfilled answers [`ServeError::Closed`]. When the serve
//! thread exits, normally or by unwinding, the queue is closed and every
//! request still in it, or pushed later, is dropped — so a call made after
//! shutdown returns `Closed` instead of waiting forever. The caller-thread
//! hit path reads the same closed flag first, so a cached key answers
//! `Closed` after shutdown too. `std::sync::mpsc` is not used: its receive
//! spins before parking, which costs the other side of the round trip its
//! time slice when client and server share one CPU.
//!
//! # Batching
//!
//! The loop waits for the first queued request, then drains up to
//! `max_batch` items without waiting (natural batching: under load the
//! queue is never empty, so batches fill; at low load requests are served
//! solo with no added latency — there is no artificial batch timer). Cache
//! misses in a batch go through one
//! [`TrainedRepresenter::embed_batch_with`] call over a long-lived
//! [`BatchScratch`], so steady-state batches allocate nothing beyond the
//! result vectors.
//!
//! # Hot reload
//!
//! The model lives in an `Arc<TrainedRepresenter>` that only the serve
//! thread reads. Reload (from a watched [`EngineCheckpoint`] file or an
//! explicit [`Client::reload`]) builds the replacement off the old Arc's
//! shared encoder tables, then swaps the Arc and clears the cache before
//! the reply is sent; [`Client::set_eta_head`] and [`Client::set_index`]
//! store into the shared slots before replying. Only the serve thread
//! inserts into the cache, always from the model it holds, so once a
//! reload returns no call can get the replaced model's, head's or index's
//! answer. In-flight requests are never dropped: they sit in the queue
//! during the swap and are served by the new model. The watcher ticks
//! between batches whenever its poll interval has elapsed, so a queue that
//! never empties cannot starve reloads. A watched checkpoint whose weights
//! are not all finite, or whose parameter shapes differ from the live
//! model's, is rejected and the old model keeps serving.

use std::collections::VecDeque;
use std::path::PathBuf as FsPathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant, SystemTime};

use wsccl_core::encoder::BatchScratch;
use wsccl_core::persist::EngineCheckpoint;
use wsccl_core::TrainedRepresenter;
use wsccl_downstream::index::{Neighbor, VectorIndex};
use wsccl_downstream::GbRegressor;
use wsccl_obs::Histogram;
use wsccl_roadnet::Path;
use wsccl_traffic::SimTime;

use crate::cache::{CacheStats, EmbeddingCache};

/// Serving configuration; `Default` is tuned for one core.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Max requests fused into one forward pass (and one response sweep).
    pub max_batch: usize,
    /// Total LRU entries across shards; 0 disables the cache.
    pub cache_capacity: usize,
    pub cache_shards: usize,
    /// Checkpoint file to poll for hot reload (an [`EngineCheckpoint`]).
    /// Writers should save to a temp file and rename into place.
    pub watch: Option<FsPathBuf>,
    pub reload_poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            cache_capacity: 4096,
            cache_shards: 8,
            watch: None,
            reload_poll: Duration::from_millis(100),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server has shut down; the request was not served.
    Closed,
    /// ETA requested but no ETA head is installed.
    NoEtaHead,
    /// Similarity search requested but no vector index is installed.
    NoIndex,
    /// Empty paths have no embedding.
    EmptyPath,
    /// The path names an edge the served model's road network does not have.
    UnknownEdge,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server closed"),
            ServeError::NoEtaHead => write!(f, "no ETA head installed"),
            ServeError::NoIndex => write!(f, "no vector index installed"),
            ServeError::EmptyPath => write!(f, "empty path"),
            ServeError::UnknownEdge => write!(f, "path has an edge outside the road network"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Snapshot of server counters, returned by [`Client::stats`] and as the
/// final word of [`Server::shutdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Embedding/ETA/k-NN items answered, by either thread (an
    /// `embed_many` of k counts k).
    pub served: u64,
    /// Of `served`, the cache hits answered on the calling thread, with no
    /// queue round trip.
    pub caller_hits: u64,
    /// Forward-pass batches executed (cache-complete batches run none).
    pub batches: u64,
    /// Embeddings computed through the batched forward pass.
    pub batched_embeds: u64,
    /// Top-k similarity searches answered through the installed index.
    pub knn_served: u64,
    pub reloads: u64,
    /// Reloads rejected (load error, encoder-config or parameter-shape
    /// mismatch, non-finite weights).
    pub reload_errors: u64,
    pub max_batch_seen: usize,
    pub cache: CacheStats,
}

/// The live counters behind [`ServeStats`]; client threads bump
/// `caller_hits` and `knn_served` on the hit path.
#[derive(Default)]
struct Counters {
    /// Items answered by the serve thread; [`ServeStats::served`] adds
    /// `caller_hits`.
    served: AtomicU64,
    caller_hits: AtomicU64,
    batches: AtomicU64,
    batched_embeds: AtomicU64,
    knn_served: AtomicU64,
    reloads: AtomicU64,
    reload_errors: AtomicU64,
    max_batch_seen: AtomicUsize,
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

enum SlotState<T> {
    Empty,
    Full(T),
    /// The reply was dropped unfilled.
    Closed,
}

/// One-value reply slot: the serve thread fills it, the calling client
/// thread parks on the condvar until it is filled.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    filled: Condvar,
}

impl<T> Slot<T> {
    fn fill(&self, value: SlotState<T>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = value;
        self.filled.notify_one();
    }

    fn wait(&self) -> Result<T, ServeError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match std::mem::replace(&mut *state, SlotState::Empty) {
                SlotState::Full(v) => return Ok(v),
                SlotState::Closed => return Err(ServeError::Closed),
                SlotState::Empty => {
                    state = self.filled.wait(state).unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// The serve thread's end of a [`Slot`]. Dropping it unsent answers the
/// waiting client with [`ServeError::Closed`].
struct Reply<T> {
    slot: Arc<Slot<T>>,
    sent: bool,
}

/// A fresh reply slot and the serve thread's end of it.
fn reply<T>() -> (Reply<T>, Arc<Slot<T>>) {
    let slot = Arc::new(Slot { state: Mutex::new(SlotState::Empty), filled: Condvar::new() });
    (Reply { slot: Arc::clone(&slot), sent: false }, slot)
}

impl<T> Reply<T> {
    fn send(mut self, value: T) {
        self.slot.fill(SlotState::Full(value));
        self.sent = true;
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if !self.sent {
            self.slot.fill(SlotState::Closed);
        }
    }
}

/// What a single call makes of its path's embedding.
#[derive(Clone, Copy)]
enum Want {
    Embedding,
    Eta,
    /// Top-k similar trips through the installed index.
    Knn(usize),
}

/// A single call's answer, one variant per [`Want`].
#[derive(Debug)]
enum Answer {
    Embedding(Arc<Vec<f64>>),
    Eta(f64),
    Knn(Vec<Neighbor>),
}

enum Request {
    /// One embed, ETA or k-NN call the calling thread could not answer from
    /// the cache. `probed` says the caller already probed (and counted a
    /// miss), so the serve thread must not probe again.
    Single {
        path: Path,
        departure: SimTime,
        want: Want,
        probed: bool,
        enq: Instant,
        resp: Reply<Result<Answer, ServeError>>,
    },
    /// One round trip for several queries (e.g. the k candidate routes of a
    /// ranking request): one queue wake and one reply wake regardless of
    /// `queries.len()`, and the items land in the same fused forward pass.
    EmbedMany {
        queries: Vec<(Path, SimTime)>,
        enq: Instant,
        resp: Reply<Vec<Result<Arc<Vec<f64>>, ServeError>>>,
    },
    SetEtaHead {
        head: GbRegressor,
        resp: Reply<()>,
    },
    SetIndex {
        index: Arc<dyn VectorIndex>,
        resp: Reply<()>,
    },
    Reload {
        rep: Box<TrainedRepresenter>,
        resp: Reply<()>,
    },
    Stats {
        resp: Reply<ServeStats>,
    },
    Shutdown {
        resp: Reply<ServeStats>,
    },
}

/// Embedding items a request contributes toward `max_batch` (control
/// requests pass through regardless).
fn request_items(req: &Request) -> usize {
    match req {
        Request::EmbedMany { queries, .. } => queries.len().max(1),
        _ => 1,
    }
}

/// Move requests from the front of `items` into `batch` until it holds
/// `max_items` embedding items (the first request is always taken).
fn take_batch(items: &mut VecDeque<Request>, max_items: usize, batch: &mut Vec<Request>) {
    let mut size = 0;
    while size < max_items {
        let Some(r) = items.pop_front() else { break };
        size += request_items(&r);
        batch.push(r);
    }
}

/// The request queue between client threads and the serve thread.
#[derive(Default)]
struct Queue {
    items: Mutex<VecDeque<Request>>,
    ready: Condvar,
    /// Set once the serve thread has stopped taking requests. Written only
    /// under the `items` lock, so a push either lands before the close or
    /// sees it; read without the lock by the caller-thread hit path.
    closed: AtomicBool,
}

impl Queue {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Request>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Enqueue `req`; on a closed queue it is dropped, which answers its
    /// reply slot with `Closed`.
    fn push(&self, req: Request) {
        let mut q = self.lock();
        if self.is_closed() {
            drop(q);
            drop(req);
            return;
        }
        q.push_back(req);
        drop(q);
        self.ready.notify_one();
    }

    /// Wait until a request is queued or `deadline` passes, then move up to
    /// `max_items` items into `batch` (nothing on a deadline timeout).
    fn pop_batch(&self, max_items: usize, deadline: Option<Instant>, batch: &mut Vec<Request>) {
        let mut q = self.lock();
        while q.is_empty() {
            q = match deadline {
                None => self.ready.wait(q).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return;
                    }
                    self.ready.wait_timeout(q, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        take_batch(&mut q, max_items, batch);
    }

    /// Stop accepting requests and hand back everything still queued.
    fn close(&self) -> VecDeque<Request> {
        let mut q = self.lock();
        self.closed.store(true, Ordering::Release);
        std::mem::take(&mut *q)
    }
}

/// Closes the queue when the serve thread exits, by return or by unwinding,
/// and drops what is left in it, so no client waits on a dead server.
struct CloseOnExit<'a>(&'a Queue);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        drop(self.0.close());
    }
}

/// Everything client threads and the serve thread both reach.
struct Shared {
    queue: Queue,
    cache: EmbeddingCache,
    eta_head: RwLock<Option<Arc<GbRegressor>>>,
    index: RwLock<Option<Arc<dyn VectorIndex>>>,
    counters: Counters,
}

/// Clone what a shared slot holds; the lock is held only for the clone.
fn load<T: ?Sized>(slot: &RwLock<Option<Arc<T>>>) -> Option<Arc<T>> {
    slot.read().unwrap_or_else(PoisonError::into_inner).clone()
}

fn store<T: ?Sized>(slot: &RwLock<Option<Arc<T>>>, value: Arc<T>) {
    *slot.write().unwrap_or_else(PoisonError::into_inner) = Some(value);
}

impl Shared {
    /// Turn a path's embedding into a single call's answer. The one place
    /// this happens, for cache hits on the calling thread and for the serve
    /// thread's reply sweep alike.
    fn answer(&self, want: Want, emb: Arc<Vec<f64>>) -> Result<Answer, ServeError> {
        Ok(match want {
            Want::Embedding => Answer::Embedding(emb),
            Want::Eta => {
                let head = load(&self.eta_head).ok_or(ServeError::NoEtaHead)?;
                Answer::Eta(head.predict(&emb))
            }
            Want::Knn(k) => {
                let index = load(&self.index).ok_or(ServeError::NoIndex)?;
                let q: Vec<f32> = emb.iter().map(|&x| x as f32).collect();
                bump(&self.counters.knn_served, 1);
                Answer::Knn(index.knn(&q, k))
            }
        })
    }

    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let caller_hits = get(&c.caller_hits);
        ServeStats {
            served: get(&c.served) + caller_hits,
            caller_hits,
            batches: get(&c.batches),
            batched_embeds: get(&c.batched_embeds),
            knn_served: get(&c.knn_served),
            reloads: get(&c.reloads),
            reload_errors: get(&c.reload_errors),
            max_batch_seen: c.max_batch_seen.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }
}

/// The serve thread's own state.
struct State {
    shared: Arc<Shared>,
    model: Arc<TrainedRepresenter>,
    scratch: BatchScratch,
    /// The global registry's `serve.queue_us`, `serve.batch_size` and
    /// `serve.batch_us`, resolved once.
    queue_us: Histogram,
    batch_size: Histogram,
    batch_us: Histogram,
}

impl State {
    fn new(shared: Arc<Shared>, rep: TrainedRepresenter) -> Self {
        let obs = wsccl_obs::global();
        Self {
            shared,
            model: Arc::new(rep),
            scratch: BatchScratch::default(),
            queue_us: obs.latency_us("serve.queue_us"),
            batch_size: obs.histogram("serve.batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            batch_us: obs.latency_us("serve.batch_us"),
        }
    }

    /// Swap the model and clear the cache, both before any reply goes out:
    /// the caller-thread hit path reads only the cache, and every entry
    /// inserted after the clear comes from the new model.
    fn swap_model(&mut self, rep: TrainedRepresenter) {
        self.model = Arc::new(rep);
        bump(&self.shared.counters.reloads, 1);
        wsccl_obs::global().counter("serve.reloads").inc();
        self.shared.cache.clear();
    }
}

/// A handle to a running server thread. Cloneable request access goes
/// through [`Server::client`]; dropping the `Server` shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Cheap cloneable client handle; safe to use from any thread. A call
/// answered from the cache returns at once; any other blocks until the
/// server responds.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Server {
    /// Spawn the serving thread around a trained representer.
    pub fn spawn(rep: TrainedRepresenter, cfg: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            queue: Queue::default(),
            cache: EmbeddingCache::new(cfg.cache_capacity, cfg.cache_shards),
            eta_head: RwLock::new(None),
            index: RwLock::new(None),
            counters: Counters::default(),
        });
        let state = State::new(Arc::clone(&shared), rep);
        let handle = std::thread::Builder::new()
            .name("wsccl-serve".into())
            .spawn(move || run_server(state, cfg))
            .expect("spawn serve thread");
        Server { shared, handle: Some(handle) }
    }

    pub fn client(&self) -> Client {
        Client { shared: Arc::clone(&self.shared) }
    }

    /// Drain every queued request, stop the thread, and return final stats.
    pub fn shutdown(mut self) -> ServeStats {
        let stats = self.shutdown_inner();
        self.handle.take().map(|h| h.join().ok());
        stats
    }

    fn shutdown_inner(&self) -> ServeStats {
        self.client().call(|resp| Request::Shutdown { resp }).unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            self.shutdown_inner();
            h.join().ok();
        }
    }
}

impl Client {
    /// Queue the request built around a fresh reply slot and wait for it.
    fn call<T>(&self, request: impl FnOnce(Reply<T>) -> Request) -> Result<T, ServeError> {
        let (resp, slot) = reply();
        self.shared.queue.push(request(resp));
        slot.wait()
    }

    /// Answer one embed, ETA or k-NN call: from the cache on this thread
    /// when the key is warm, through the queue otherwise.
    fn single(&self, path: &Path, departure: SimTime, want: Want) -> Result<Answer, ServeError> {
        let sh = &*self.shared;
        if sh.queue.is_closed() {
            return Err(ServeError::Closed);
        }
        // Empty paths skip the probe; the serve thread answers `EmptyPath`.
        let probed = !path.is_empty() && sh.cache.enabled();
        if probed {
            if let Some(emb) = sh.cache.get(&EmbeddingCache::key(path, departure), path) {
                bump(&sh.counters.caller_hits, 1);
                return sh.answer(want, emb);
            }
        }
        self.call(|resp| Request::Single {
            path: path.clone(),
            departure,
            want,
            probed,
            enq: Instant::now(),
            resp,
        })?
    }

    /// Embedding for `path` departing at `departure`; served from the LRU
    /// cache when warm, otherwise computed in the next batch.
    pub fn embed(&self, path: &Path, departure: SimTime) -> Result<Arc<Vec<f64>>, ServeError> {
        match self.single(path, departure, Want::Embedding)? {
            Answer::Embedding(emb) => Ok(emb),
            other => unreachable!("embed answered with {other:?}"),
        }
    }

    /// Embeddings for several `(path, departure)` queries in one round trip
    /// — the bulk shape for route ranking, where each user query carries k
    /// candidate paths. The whole group shares one queue wake and one reply
    /// wake, and its cache misses are fused into the same batched forward
    /// pass, so per-embedding overhead is `1/k` of a queued
    /// [`Client::embed`]'s. Results come back in query order; an empty path
    /// or one with an unknown edge fails only its own slot.
    pub fn embed_many(
        &self,
        queries: &[(&Path, SimTime)],
    ) -> Result<Vec<Result<Arc<Vec<f64>>, ServeError>>, ServeError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.call(|resp| Request::EmbedMany {
            queries: queries.iter().map(|&(p, t)| (p.clone(), t)).collect(),
            enq: Instant::now(),
            resp,
        })
    }

    /// Estimated travel time (seconds) via the installed ETA head over the
    /// (possibly cached) embedding.
    pub fn eta(&self, path: &Path, departure: SimTime) -> Result<f64, ServeError> {
        match self.single(path, departure, Want::Eta)? {
            Answer::Eta(eta) => Ok(eta),
            other => unreachable!("eta answered with {other:?}"),
        }
    }

    /// Top-k most similar stored trips to `(path, departure)` via the
    /// installed vector index. The query embedding is resolved exactly like
    /// [`Client::embed`] (cache, then fused batch), so repeated queries are
    /// answered from the LRU cache with only the index scan on top.
    pub fn knn(
        &self,
        path: &Path,
        departure: SimTime,
        k: usize,
    ) -> Result<Vec<Neighbor>, ServeError> {
        match self.single(path, departure, Want::Knn(k))? {
            Answer::Knn(neighbors) => Ok(neighbors),
            other => unreachable!("knn answered with {other:?}"),
        }
    }

    /// Install (or replace) the ETA regression head. Returns once every
    /// later call uses it.
    pub fn set_eta_head(&self, head: GbRegressor) -> Result<(), ServeError> {
        self.call(|resp| Request::SetEtaHead { head, resp })
    }

    /// Install (or replace) the similarity-search index backing
    /// [`Client::knn`]. The index must be built over embeddings of the model
    /// currently served (ids are the caller's business — typically trip
    /// indices into the corpus the index was built from).
    pub fn set_index(&self, index: Arc<dyn VectorIndex>) -> Result<(), ServeError> {
        self.call(|resp| Request::SetIndex { index, resp })
    }

    /// Hot-swap the model in-process (the push-style alternative to the
    /// checkpoint watcher). Returns once the swap is visible: no later call
    /// gets the replaced model's answer, cached or not.
    pub fn reload(&self, rep: TrainedRepresenter) -> Result<(), ServeError> {
        self.call(|resp| Request::Reload { rep: Box::new(rep), resp })
    }

    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        self.call(|resp| Request::Stats { resp })
    }
}

fn run_server(mut state: State, cfg: ServeConfig) {
    let shared = Arc::clone(&state.shared);
    let queue = &shared.queue;
    let _close = CloseOnExit(queue);
    let max_batch = cfg.max_batch.max(1);
    let mut watcher = cfg.watch.map(|path| Watcher::new(path, cfg.reload_poll));
    let mut batch = Vec::with_capacity(max_batch);
    loop {
        queue.pop_batch(max_batch, watcher.as_ref().map(|w| w.next_tick), &mut batch);
        if let Some(resp) = process_batch(&mut state, &mut batch) {
            // Drain-on-shutdown: everything enqueued before the queue closes
            // is still served; nothing is dropped.
            let mut rest = queue.close();
            while !rest.is_empty() {
                take_batch(&mut rest, max_batch, &mut batch);
                process_batch(&mut state, &mut batch);
            }
            resp.send(shared.stats());
            return;
        }
        if let Some(w) = &mut watcher {
            w.tick_if_due(&mut state);
        }
    }
}

/// Handle one batch; returns the shutdown reply if a shutdown was
/// requested. Control requests (stats/reload/set-head) execute before the
/// embedding work of the same batch.
fn process_batch(st: &mut State, batch: &mut Vec<Request>) -> Option<Reply<ServeStats>> {
    let started = Instant::now();
    let sh = Arc::clone(&st.shared);
    let mut shutdown = None;
    let mut work: Vec<Request> = Vec::with_capacity(batch.len());
    for req in batch.drain(..) {
        match req {
            Request::SetEtaHead { head, resp } => {
                store(&sh.eta_head, Arc::new(head));
                resp.send(());
            }
            Request::SetIndex { index, resp } => {
                store(&sh.index, index);
                resp.send(());
            }
            Request::Reload { rep, resp } => {
                st.swap_model(*rep);
                resp.send(());
            }
            Request::Stats { resp } => resp.send(sh.stats()),
            Request::Shutdown { resp } => shutdown = Some(resp),
            other => work.push(other),
        }
    }
    if work.is_empty() {
        return shutdown;
    }

    for req in &work {
        let enq = match req {
            Request::Single { enq, .. } | Request::EmbedMany { enq, .. } => *enq,
            _ => unreachable!("control requests were split off"),
        };
        st.queue_us.record(enq.elapsed().as_nanos() as f64 / 1e3);
    }

    // Resolve each embedding item (a Single carries one, an EmbedMany
    // several) against the cache; batch the misses through one fused pass.
    // Items are flattened in request order so the reply sweep below walks
    // them with a cursor.
    let epoch = sh.cache.epoch();
    let mut embeddings: Vec<Result<Arc<Vec<f64>>, ServeError>> = Vec::new();
    {
        // (path, departure, already probed on the calling thread)
        let mut items: Vec<(&Path, SimTime, bool)> = Vec::with_capacity(work.len());
        for req in &work {
            match req {
                Request::Single { path, departure, probed, .. } => {
                    items.push((path, *departure, *probed))
                }
                Request::EmbedMany { queries, .. } => {
                    items.extend(queries.iter().map(|(p, t)| (p, *t, false)))
                }
                _ => unreachable!(),
            }
        }
        // Paths are checked against the live model before the cache probe:
        // an out-of-range edge would index past the encoder's tables.
        let num_edges = st.model.encoder_arc().num_edges();
        let cache_on = sh.cache.enabled();
        let mut miss_idx: Vec<usize> = Vec::with_capacity(items.len());
        for (i, &(path, departure, probed)) in items.iter().enumerate() {
            embeddings.push(if path.is_empty() {
                Err(ServeError::EmptyPath)
            } else if path.edges().iter().any(|e| e.index() >= num_edges) {
                Err(ServeError::UnknownEdge)
            } else {
                // Disabled cache: don't even hash the path. A caller's miss
                // was counted where it happened.
                let hit = (cache_on && !probed)
                    .then(|| sh.cache.get(&EmbeddingCache::key(path, departure), path))
                    .flatten();
                hit.ok_or_else(|| {
                    miss_idx.push(i);
                    ServeError::Closed // placeholder until the fused pass fills it
                })
            });
        }
        if !miss_idx.is_empty() {
            let queries: Vec<(&Path, SimTime)> =
                miss_idx.iter().map(|&i| (items[i].0, items[i].1)).collect();
            let computed = st.model.embed_batch_with(&queries, &mut st.scratch);
            let c = &sh.counters;
            bump(&c.batches, 1);
            bump(&c.batched_embeds, miss_idx.len() as u64);
            c.max_batch_seen.fetch_max(miss_idx.len(), Ordering::Relaxed);
            st.batch_size.record(miss_idx.len() as f64);
            for (&i, emb) in miss_idx.iter().zip(computed) {
                let emb = Arc::new(emb);
                if cache_on {
                    let (path, departure, _) = items[i];
                    sh.cache.insert(
                        EmbeddingCache::key(path, departure),
                        path,
                        Arc::clone(&emb),
                        epoch,
                    );
                }
                embeddings[i] = Ok(emb);
            }
        }
        bump(&sh.counters.served, items.len() as u64);
    }

    let mut results = embeddings.into_iter();
    for req in work {
        match req {
            Request::EmbedMany { queries, resp, .. } => {
                resp.send(results.by_ref().take(queries.len()).collect())
            }
            Request::Single { want, resp, .. } => resp
                .send(results.next().expect("one per item").and_then(|emb| sh.answer(want, emb))),
            _ => unreachable!(),
        }
    }
    st.batch_us.record(started.elapsed().as_nanos() as f64 / 1e3);
    shutdown
}

fn checkpoint_fingerprint(path: &FsPathBuf) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// Polls the watched checkpoint file between batches; on change, waits one
/// tick for the write to quiesce, then loads + validates + swaps. A load
/// failure (partial write, version/config mismatch, reshaped or non-finite
/// weights) is counted and skipped; the old model keeps serving.
struct Watcher {
    path: FsPathBuf,
    poll: Duration,
    next_tick: Instant,
    last_seen: Option<(SystemTime, u64)>,
    /// A change was seen last tick and is waiting out the debounce.
    pending: bool,
}

impl Watcher {
    fn new(path: FsPathBuf, poll: Duration) -> Self {
        let last_seen = checkpoint_fingerprint(&path);
        Self { path, poll, next_tick: Instant::now() + poll, last_seen, pending: false }
    }

    fn tick_if_due(&mut self, state: &mut State) {
        let now = Instant::now();
        if now < self.next_tick {
            return;
        }
        self.next_tick = now + self.poll;
        let cur = checkpoint_fingerprint(&self.path);
        if cur != self.last_seen {
            self.last_seen = cur;
            self.pending = cur.is_some();
            return; // debounce: re-check next tick before loading
        }
        if !std::mem::take(&mut self.pending) {
            return;
        }
        if let Err(err) = try_reload(state, &self.path) {
            bump(&state.shared.counters.reload_errors, 1);
            wsccl_obs::global().counter("serve.reload.errors").inc();
            eprintln!("wsccl-serve: checkpoint reload from {} failed: {err}", self.path.display());
        }
    }
}

fn try_reload(state: &mut State, path: &FsPathBuf) -> Result<(), String> {
    let cp = EngineCheckpoint::load(path).map_err(|e| e.to_string())?;
    let encoder = state.model.encoder_arc();
    // The swapped-in weights must match the shared frozen encoder tables.
    // Configs are compared structurally (via their canonical JSON); the
    // encoder seed is the operator's contract — see DESIGN.md §12.
    let current = serde_json::to_string(encoder.config()).map_err(|e| e.to_string())?;
    let incoming = serde_json::to_string(&cp.encoder_config).map_err(|e| e.to_string())?;
    if current != incoming {
        return Err("encoder config mismatch; restart to change architecture".into());
    }
    // Same config does not mean same tensors: a hand-edited or corrupt
    // file can still carry a reshaped or non-finite parameter, which would
    // panic the serve thread or serve NaN.
    let live = state.model.params();
    if cp.params.len() != live.len() {
        return Err(format!("{} parameters, the live model has {}", cp.params.len(), live.len()));
    }
    for id in live.ids() {
        let (got, want) = (cp.params.value(id), live.value(id));
        // The length too: a deserialized tensor's data is not checked
        // against its declared shape.
        if got.shape() != want.shape() || got.data().len() != want.data().len() {
            return Err(format!(
                "parameter {} has shape {:?} ({} values), the live model's is {:?}",
                live.name(id),
                got.shape(),
                got.data().len(),
                want.shape()
            ));
        }
        if got.data().iter().any(|v| !v.is_finite()) {
            return Err(format!("parameter {} has a non-finite value", live.name(id)));
        }
    }
    let name = state.model.name().to_string();
    let rep = TrainedRepresenter::from_parts(encoder, cp.params, cp.weights, name);
    state.swap_model(rep);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_request() -> (Request, Arc<Slot<ServeStats>>) {
        let (resp, slot) = reply();
        (Request::Stats { resp }, slot)
    }

    #[test]
    fn queue_delivers_in_order_and_close_answers_the_rest_closed() {
        let queue = Queue::default();
        let (a, _) = stats_request();
        let (b, _) = stats_request();
        queue.push(a);
        queue.push(b);
        let mut batch = Vec::new();
        queue.pop_batch(1, None, &mut batch);
        assert_eq!(batch.len(), 1, "max_items bounds the batch");
        queue.pop_batch(8, None, &mut batch);
        assert_eq!(batch.len(), 2);

        let (queued, queued_slot) = stats_request();
        queue.push(queued);
        assert_eq!(queue.close().len(), 1, "close hands back what is still queued");
        assert_eq!(queued_slot.wait().map(|s| s.served), Err(ServeError::Closed));
        let (late, late_slot) = stats_request();
        queue.push(late);
        assert_eq!(late_slot.wait().map(|s| s.served), Err(ServeError::Closed));
    }

    #[test]
    fn push_wakes_a_parked_pop_and_the_deadline_ends_an_idle_wait() {
        let queue = Queue::default();
        let mut batch = Vec::new();
        let start = Instant::now();
        queue.pop_batch(4, Some(start + Duration::from_millis(20)), &mut batch);
        assert!(batch.is_empty() && start.elapsed() >= Duration::from_millis(20));

        // The push lands either before the pop parks or while it is parked;
        // the pause makes the parked case the likely one, and the pop must
        // return with the request in both.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                queue.push(stats_request().0);
            });
            queue.pop_batch(4, None, &mut batch);
        });
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn reply_roundtrip_and_drop_answers_closed() {
        let (resp, slot) = reply::<u32>();
        std::thread::scope(|s| {
            s.spawn(move || resp.send(42));
            assert_eq!(slot.wait(), Ok(42));
        });
        let (resp, slot) = reply::<u32>();
        drop(resp);
        assert_eq!(slot.wait(), Err(ServeError::Closed));
    }
}
