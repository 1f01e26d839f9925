//! Shared trainable parameter storage.
//!
//! Parameter *values* and *gradients* live in separate stores. [`Parameters`]
//! holds the values and is read-only during a forward/backward pass, so any
//! number of tapes (a training step, or concurrent inference calls) can
//! share `&Parameters` without locking. Each [`crate::Graph`] accumulates
//! into its own private [`GradStore`], which an optimizer then consumes. This
//! mirrors the PyTorch `nn.Parameter` / optimizer split the paper's
//! implementation uses.

use serde::{Deserialize, Serialize};

use crate::pool::TensorPool;
use crate::tensor::Tensor;

/// Handle to one parameter tensor inside a [`Parameters`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index, stable for the lifetime of the store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A flat store of named parameter tensors (values only — see [`GradStore`]).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Parameters {
    values: Vec<Tensor>,
    names: Vec<String>,
}

impl Parameters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new parameter with an initial value.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.values.len()).map(ParamId)
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Copy all values from `other` (shapes must match; used for expert cloning
    /// and for initializing a supervised model from pre-trained WSCCL weights).
    pub fn copy_values_from(&mut self, other: &Parameters) {
        assert_eq!(self.values.len(), other.values.len(), "parameter count mismatch");
        for (dst, src) in self.values.iter_mut().zip(&other.values) {
            assert_eq!(dst.shape(), src.shape(), "parameter shape mismatch");
            *dst = src.clone();
        }
    }
}

/// Per-tape gradient accumulator, indexed by [`ParamId`].
///
/// Slots are allocated lazily: a parameter that never receives gradient costs
/// nothing (important for the frozen embedding tables, which dominate the
/// parameter count). A missing slot is semantically a zero gradient.
#[derive(Clone, Debug, Default)]
pub struct GradStore {
    grads: Vec<Option<Tensor>>,
}

impl GradStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Gradient for `id`, if any was accumulated (`None` ⇔ zero).
    pub fn grad(&self, id: ParamId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Mutable gradient slot for `id`, allocated as zeros on first touch.
    pub fn entry(&mut self, id: ParamId, rows: usize, cols: usize) -> &mut Tensor {
        if self.grads.len() <= id.0 {
            self.grads.resize(id.0 + 1, None);
        }
        let slot = &mut self.grads[id.0];
        let g = slot.get_or_insert_with(|| Tensor::zeros(rows, cols));
        debug_assert_eq!(g.shape(), (rows, cols), "gradient shape mismatch");
        g
    }

    /// Like [`GradStore::entry`], but the lazy zero-buffer comes from `pool`
    /// when one is supplied. Pool handouts are zeroed, so semantics are
    /// identical to `entry`.
    pub fn entry_pooled(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        pool: Option<&mut TensorPool>,
    ) -> &mut Tensor {
        if self.grads.len() <= id.0 {
            self.grads.resize(id.0 + 1, None);
        }
        let slot = &mut self.grads[id.0];
        let g = slot.get_or_insert_with(|| match pool {
            Some(p) => p.take(rows, cols),
            None => Tensor::zeros(rows, cols),
        });
        debug_assert_eq!(g.shape(), (rows, cols), "gradient shape mismatch");
        g
    }

    /// Return every allocated gradient buffer to `pool`, leaving the store
    /// empty. The end of a pooled training step.
    pub fn release_into(mut self, pool: &mut TensorPool) {
        for g in self.grads.drain(..).flatten() {
            pool.put(g);
        }
    }

    /// Iterate over all allocated (non-zero-capable) gradient slots.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> + '_ {
        self.grads.iter().enumerate().filter_map(|(i, g)| g.as_ref().map(|t| (ParamId(i), t)))
    }

    /// Number of allocated gradient slots.
    pub fn num_allocated(&self) -> usize {
        self.grads.iter().filter(|g| g.is_some()).count()
    }

    /// Drop all accumulated gradients.
    pub fn clear(&mut self) {
        self.grads.clear();
    }

    /// Multiply every accumulated gradient by `factor` (gradient clipping).
    pub fn scale(&mut self, factor: f64) {
        let kernels = crate::kernels::active();
        for g in self.grads.iter_mut().flatten() {
            kernels.scale_assign(g.data_mut(), factor);
        }
    }

    /// Global L2 norm over all accumulated gradients.
    ///
    /// Each tensor's sum of squares uses the backend-shared
    /// [`crate::kernels::Kernels::dot`] reduction, so the value is identical
    /// under scalar and SIMD backends.
    pub fn norm(&self) -> f64 {
        let kernels = crate::kernels::active();
        self.iter().map(|(_, g)| kernels.dot(g.data(), g.data())).sum::<f64>().sqrt()
    }

    /// Scale all gradients so the global norm does not exceed `max_norm`.
    pub fn clip_norm(&mut self, max_norm: f64) {
        let norm = self.norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut p = Parameters::new();
        let a = p.register("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = p.register("b", Tensor::scalar(3.0));
        assert_eq!(p.len(), 2);
        assert_eq!(p.value(a).data(), &[1.0, 2.0]);
        assert_eq!(p.value(b).item(), 3.0);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.num_scalars(), 3);
    }

    #[test]
    fn grad_clip_scales_down_only() {
        let mut p = Parameters::new();
        let a = p.register("w", Tensor::zeros(1, 2));
        let mut g = GradStore::new();
        *g.entry(a, 1, 2) = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        g.clip_norm(10.0);
        assert_eq!(g.grad(a).unwrap().data(), &[3.0, 4.0]);
        g.clip_norm(1.0);
        assert!((g.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grads_allocate_lazily() {
        let mut p = Parameters::new();
        let a = p.register("w", Tensor::zeros(4, 4));
        let b = p.register("frozen", Tensor::zeros(1000, 64));
        let mut g = GradStore::new();
        g.entry(a, 4, 4).data_mut()[0] = 1.0;
        assert_eq!(g.num_allocated(), 1, "untouched params must not allocate");
        assert!(g.grad(b).is_none());
        assert_eq!(g.grad(a).unwrap().get(0, 0), 1.0);
    }

    #[test]
    fn copy_values_roundtrip() {
        let mut a = Parameters::new();
        let ida = a.register("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let mut b = Parameters::new();
        b.register("w", Tensor::zeros(1, 2));
        b.copy_values_from(&a);
        assert_eq!(b.value(ida).data(), &[1.0, 2.0]);
    }
}
