//! Sharded LRU cache for path embeddings.
//!
//! Keyed by `(path_hash, temporal_node)`: the frozen encoder's temporal input
//! depends on the departure time only through
//! [`SimTime::temporal_node`](wsccl_traffic::SimTime::temporal_node) (2016
//! five-minute week slots), and the static rows depend only on the edge
//! sequence, so a hit returns exactly the embedding a fresh forward pass
//! would — the cache introduces no error beyond the f32 inference path
//! itself. Entries keep the full edge sequence so a 64-bit hash collision
//! between distinct paths is detected and treated as a miss instead of
//! serving the wrong path's embedding.
//!
//! Shards are plain mutex-per-shard, because the cache is probed from many
//! threads at once: every client thread probes it for its own embed, ETA and
//! k-NN calls, while the serve thread probes it for `embed_many` groups and
//! is the only writer (see DESIGN.md §12). Each shard runs an intrusive slab
//! doubly-linked list, so get/insert are O(1). The `serve.cache.*` counters
//! of the global [`wsccl_obs`] registry are resolved once, at construction,
//! so a probe takes no lock beyond its own shard's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use wsccl_obs::Counter;
use wsccl_roadnet::{EdgeId, Path};

/// FNV-1a over the edge-id sequence. Stable across runs (no randomized
/// hasher) so cache behaviour is reproducible in tests and benches.
pub fn path_hash(path: &Path) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in path.edges() {
        for b in (e.0 as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Cache key: path content hash + departure week-slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub path: u64,
    pub slot: u32,
}

const NIL: u32 = u32::MAX;

struct Node {
    key: CacheKey,
    /// Full edge sequence, kept to verify hits against hash collisions.
    edges: Box<[EdgeId]>,
    value: Arc<Vec<f64>>,
    prev: u32,
    next: u32,
}

struct Shard {
    map: HashMap<CacheKey, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Most-recently-used node, or NIL.
    head: u32,
    /// Least-recently-used node, or NIL.
    tail: u32,
}

impl Shard {
    fn new() -> Self {
        Self { map: HashMap::new(), nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }
}

/// Counters exposed by [`EmbeddingCache::stats`]; also mirrored into the
/// global [`wsccl_obs`] registry as `serve.cache.{hit,miss,evict,collision}`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Lookups whose key matched but whose stored edge sequence differed
    /// (64-bit hash collision between distinct paths); counted as misses too.
    pub collisions: u64,
    pub len: usize,
    pub capacity: usize,
}

/// Sharded LRU path-embedding cache. See the module docs for key semantics.
pub struct EmbeddingCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard entry cap; total capacity = `shard_capacity * shards`.
    shard_capacity: usize,
    /// Bumped by [`EmbeddingCache::clear`]; inserts stamped with an older
    /// epoch are dropped, so an in-flight batch computed against a
    /// pre-reload model can never repopulate the cache after the swap.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    /// The global registry's `serve.cache.{hit,miss,evict,collision}`.
    obs_hit: Counter,
    obs_miss: Counter,
    obs_evict: Counter,
    obs_collision: Counter,
}

impl EmbeddingCache {
    /// `capacity` is the total entry budget, split evenly over `shards`
    /// (rounded up, so effective capacity may slightly exceed the request).
    /// A zero capacity yields a cache that never stores anything.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards);
        let shards: Vec<Mutex<Shard>> = (0..shards).map(|_| Mutex::new(Shard::new())).collect();
        let obs = wsccl_obs::global();
        Self {
            shards: shards.into_boxed_slice(),
            shard_capacity,
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            obs_hit: obs.counter("serve.cache.hit"),
            obs_miss: obs.counter("serve.cache.miss"),
            obs_evict: obs.counter("serve.cache.evict"),
            obs_collision: obs.counter("serve.cache.collision"),
        }
    }

    pub fn key(path: &Path, departure: wsccl_traffic::SimTime) -> CacheKey {
        CacheKey { path: path_hash(path), slot: departure.temporal_node() as u32 }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        // Mix the slot in so paths hot at one departure spread over shards.
        let mix = key.path ^ (key.slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mix % self.shards.len() as u64) as usize]
    }

    /// Current epoch; pass it back to [`EmbeddingCache::insert`] so the
    /// insert is dropped if a [`EmbeddingCache::clear`] happened in between.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the cache can store anything at all. A zero-capacity cache
    /// never hits, so callers on the hot path skip key hashing entirely.
    pub fn enabled(&self) -> bool {
        self.shard_capacity > 0
    }

    /// Look up the embedding for `path` departing at the key's slot. A key
    /// match with a different stored edge sequence is a collision: counted,
    /// reported as a miss, and left for `insert` to overwrite.
    pub fn get(&self, key: &CacheKey, path: &Path) -> Option<Arc<Vec<f64>>> {
        if self.shard_capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs_miss.inc();
            return None;
        }
        let mut shard = self.shard_of(key).lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&idx) = shard.map.get(key) {
            if shard.nodes[idx as usize].edges.as_ref() == path.edges() {
                shard.touch(idx);
                let v = Arc::clone(&shard.nodes[idx as usize].value);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs_hit.inc();
                return Some(v);
            }
            drop(shard);
            self.collisions.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs_collision.inc();
            self.obs_miss.inc();
            return None;
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs_miss.inc();
        None
    }

    /// Insert (or refresh) an embedding computed under `epoch`. Returns
    /// `false` if the insert was dropped because the cache was cleared after
    /// the embedding was computed (or capacity is zero).
    pub fn insert(&self, key: CacheKey, path: &Path, value: Arc<Vec<f64>>, epoch: u64) -> bool {
        if self.shard_capacity == 0 || epoch != self.epoch.load(Ordering::Acquire) {
            return false;
        }
        let mut shard = self.shard_of(&key).lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&idx) = shard.map.get(&key) {
            // Refresh, or overwrite the loser of a hash collision.
            let node = &mut shard.nodes[idx as usize];
            node.edges = path.edges().into();
            node.value = value;
            shard.touch(idx);
            return true;
        }
        if shard.map.len() >= self.shard_capacity {
            let victim = shard.tail;
            debug_assert_ne!(victim, NIL);
            shard.unlink(victim);
            let old_key = shard.nodes[victim as usize].key;
            shard.map.remove(&old_key);
            shard.free.push(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.obs_evict.inc();
        }
        let node = Node { key, edges: path.edges().into(), value, prev: NIL, next: NIL };
        let idx = match shard.free.pop() {
            Some(i) => {
                shard.nodes[i as usize] = node;
                i
            }
            None => {
                shard.nodes.push(node);
                (shard.nodes.len() - 1) as u32
            }
        };
        shard.map.insert(key, idx);
        shard.push_front(idx);
        true
    }

    /// Drop every entry and bump the epoch. Called on hot checkpoint reload:
    /// embeddings from the previous model must never survive the swap, and
    /// the epoch bump also fences out late inserts from pre-swap batches.
    pub fn clear(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        for shard in self.shards.iter() {
            let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            s.map.clear();
            s.nodes.clear();
            s.free.clear();
            s.head = NIL;
            s.tail = NIL;
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.shard_capacity * self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_traffic::SimTime;

    fn path(edges: &[u32]) -> Path {
        Path::new_unchecked(edges.iter().map(|&e| EdgeId(e)).collect())
    }

    fn val(x: f64) -> Arc<Vec<f64>> {
        Arc::new(vec![x])
    }

    #[test]
    fn evicts_in_lru_order_and_get_refreshes_recency() {
        // Single shard, capacity 3, so eviction order is fully deterministic.
        let cache = EmbeddingCache::new(3, 1);
        let (pa, pb, pc, pd) = (path(&[1]), path(&[2]), path(&[3]), path(&[4]));
        let t = SimTime::new(0);
        let e = cache.epoch();
        for (p, x) in [(&pa, 1.0), (&pb, 2.0), (&pc, 3.0)] {
            assert!(cache.insert(EmbeddingCache::key(p, t), p, val(x), e));
        }
        // Touch A so B becomes least-recently-used.
        assert!(cache.get(&EmbeddingCache::key(&pa, t), &pa).is_some());
        assert!(cache.insert(EmbeddingCache::key(&pd, t), &pd, val(4.0), e));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&EmbeddingCache::key(&pb, t), &pb).is_none(), "B was LRU");
        for p in [&pa, &pc, &pd] {
            assert!(cache.get(&EmbeddingCache::key(p, t), p).is_some());
        }
        // One more insert evicts A (oldest among A, C, D after the gets? No:
        // the gets above refreshed A, C, D in that order, so A is now LRU).
        let pe = path(&[5]);
        assert!(cache.insert(EmbeddingCache::key(&pe, t), &pe, val(5.0), e));
        assert!(cache.get(&EmbeddingCache::key(&pa, t), &pa).is_none(), "A was LRU");
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn same_path_distinct_slots_are_distinct_entries() {
        let cache = EmbeddingCache::new(8, 2);
        let p = path(&[7, 8, 9]);
        let (t0, t1) = (SimTime::new(0), SimTime::new(600)); // slots 0 and 2
        let e = cache.epoch();
        cache.insert(EmbeddingCache::key(&p, t0), &p, val(1.0), e);
        cache.insert(EmbeddingCache::key(&p, t1), &p, val(2.0), e);
        assert_eq!(cache.get(&EmbeddingCache::key(&p, t0), &p).unwrap()[0], 1.0);
        assert_eq!(cache.get(&EmbeddingCache::key(&p, t1), &p).unwrap()[0], 2.0);
        // Same slot, different second ⇒ same entry (temporal_node granularity).
        let t0b = SimTime::new(299);
        assert_eq!(cache.get(&EmbeddingCache::key(&p, t0b), &p).unwrap()[0], 1.0);
    }

    #[test]
    fn hash_collision_on_distinct_paths_is_a_detected_miss() {
        let cache = EmbeddingCache::new(8, 1);
        let t = SimTime::new(0);
        let pa = path(&[1, 2, 3]);
        let pb = path(&[4, 5, 6]);
        let e = cache.epoch();
        // Force a collision: insert A's value under B's *key* is not
        // constructible through the public API, so simulate the adversarial
        // case directly — look up path B with path A's key. The stored edge
        // sequence differs, so it must miss and count a collision.
        let key = EmbeddingCache::key(&pa, t);
        cache.insert(key, &pa, val(1.0), e);
        assert!(cache.get(&key, &pb).is_none(), "must not serve A's value for B");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        // insert for B under the same key overwrites (last writer wins)…
        cache.insert(key, &pb, val(2.0), e);
        assert_eq!(cache.get(&key, &pb).unwrap()[0], 2.0);
        // …and now A is the detected-collision miss.
        assert!(cache.get(&key, &pa).is_none());
        assert_eq!(cache.stats().collisions, 2);
        assert_eq!(cache.len(), 1, "collision pair shares one slot");
    }

    #[test]
    fn clear_empties_and_fences_stale_epoch_inserts() {
        let cache = EmbeddingCache::new(8, 2);
        let t = SimTime::new(0);
        let p = path(&[1]);
        let old_epoch = cache.epoch();
        cache.insert(EmbeddingCache::key(&p, t), &p, val(1.0), old_epoch);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(&EmbeddingCache::key(&p, t), &p).is_none());
        // A batch that started before the clear must not repopulate it.
        assert!(!cache.insert(EmbeddingCache::key(&p, t), &p, val(1.0), old_epoch));
        assert!(cache.is_empty());
        // Post-clear epoch works.
        assert!(cache.insert(EmbeddingCache::key(&p, t), &p, val(2.0), cache.epoch()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn path_hash_is_content_based_and_order_sensitive() {
        let a = path(&[1, 2, 3]);
        let b = path(&[1, 2, 3]);
        let c = path(&[3, 2, 1]);
        assert_eq!(path_hash(&a), path_hash(&b));
        assert_ne!(path_hash(&a), path_hash(&c));
        assert_ne!(path_hash(&a), path_hash(&path(&[1, 2])));
    }
}
