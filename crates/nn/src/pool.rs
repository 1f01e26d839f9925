//! Size-bucketed recycling of tensor buffers.
//!
//! Training rebuilds a fresh tape every step, and every intermediate value,
//! adjoint, and parameter gradient of that tape is a heap-allocated
//! `Vec<f64>`. A [`TensorPool`] keeps the buffers of finished tapes in
//! free-lists bucketed by exact element count, so the next step's tape (which
//! has the same shapes in steady state) performs zero tensor allocations: see
//! `Graph::new_in`. The training engine owns one pool and builds every step's
//! tape on its own thread, so the pool is deliberately not `Sync`.
//!
//! The pool never affects results: a reused buffer is either zeroed on
//! handout ([`TensorPool::take`]) or handed out raw for ops that overwrite
//! every element ([`TensorPool::take_raw`]), so pooled and unpooled runs are
//! bit-for-bit identical (asserted by the engine's determinism tests).

use std::collections::HashMap;

use crate::tensor::Tensor;

/// Counters exposed for the allocation-counting test harness and the kernel
/// benchmarks. `fresh_allocs` must stop growing once a training loop reaches
/// steady state — that is the "zero allocations per step" contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers the pool had to heap-allocate (free-list misses).
    pub fresh_allocs: u64,
    /// Buffers served from a free-list (hits).
    pub reuses: u64,
    /// High-water mark of buffers handed out and not yet returned.
    pub peak_live: usize,
}

/// Size-bucketed free-lists of tensor buffers.
#[derive(Debug, Default)]
pub struct TensorPool {
    /// Exact element count → stack of returned buffers of that size.
    buckets: HashMap<usize, Vec<Vec<f64>>>,
    stats: PoolStats,
    live: usize,
}

impl TensorPool {
    pub fn new() -> Self {
        Self::default()
    }

    fn take_buffer(&mut self, len: usize) -> Vec<f64> {
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        match self.buckets.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.stats.reuses += 1;
                buf
            }
            None => {
                self.stats.fresh_allocs += 1;
                vec![0.0; len]
            }
        }
    }

    /// Take a zeroed `rows × cols` tensor, reusing a returned buffer of the
    /// exact size when one is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut buf = self.take_buffer(rows * cols);
        buf.iter_mut().for_each(|v| *v = 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Take a tensor **without zeroing**: the buffer holds stale (but
    /// initialized) values from its previous life. Only for callers that
    /// overwrite every element before any read.
    pub fn take_raw(&mut self, rows: usize, cols: usize) -> Tensor {
        let buf = self.take_buffer(rows * cols);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Return a tensor's buffer to the pool. Empty tensors are ignored.
    pub fn put(&mut self, t: Tensor) {
        let buf = t.into_data();
        if buf.is_empty() {
            return;
        }
        self.live = self.live.saturating_sub(1);
        self.buckets.entry(buf.len()).or_default().push(buf);
    }

    /// Allocation counters since construction.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently handed out and not yet returned.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Drop every cached buffer (counters are kept).
    pub fn clear(&mut self) {
        self.buckets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_hits_after_return() {
        let mut pool = TensorPool::new();
        let t = pool.take(2, 3);
        assert_eq!(pool.stats().fresh_allocs, 1);
        pool.put(t);
        let t = pool.take(2, 3);
        assert_eq!(pool.stats().fresh_allocs, 1, "same-size take must reuse");
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(t.data(), &[0.0; 6], "reused buffers are zeroed");
    }

    #[test]
    fn reuse_is_by_element_count_not_shape() {
        let mut pool = TensorPool::new();
        pool.put(Tensor::from_vec(2, 3, vec![1.0; 6]));
        let t = pool.take_raw(3, 2);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(t.data(), &[1.0; 6], "take_raw hands out stale contents");
    }

    #[test]
    fn distinct_sizes_do_not_alias() {
        let mut pool = TensorPool::new();
        pool.put(Tensor::zeros(1, 4));
        let t = pool.take(1, 5);
        assert_eq!(t.len(), 5);
        assert_eq!(pool.stats().fresh_allocs, 1);
    }

    #[test]
    fn live_tracks_outstanding_buffers() {
        let mut pool = TensorPool::new();
        let a = pool.take(1, 2);
        let b = pool.take(1, 2);
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.stats().peak_live, 2);
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.stats().peak_live, 2);
    }
}
