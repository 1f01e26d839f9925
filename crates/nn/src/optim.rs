//! Optimizers: plain SGD and Adam (the paper trains with lr = 3e-4 Adam-style).
//!
//! Optimizers consume the [`GradStore`] produced by one tape and update the
//! shared [`Parameters`].
//! A parameter with no gradient slot is treated as having an exact zero
//! gradient: momentum/moment state still decays, matching dense behavior.

use serde::{Deserialize, Serialize};

use crate::params::{GradStore, Parameters};
use crate::tensor::Tensor;

/// Stochastic gradient descent with optional momentum.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Tensor>,
}

impl Sgd {
    pub fn new(lr: f64) -> Self {
        Self { lr, momentum: 0.0, velocity: Vec::new() }
    }

    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    pub fn lr(&self) -> f64 {
        self.lr
    }

    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Apply one update step using the given gradients.
    pub fn step(&mut self, params: &mut Parameters, grads: &GradStore) {
        if self.momentum != 0.0 && self.velocity.len() != params.len() {
            self.velocity = params
                .ids()
                .map(|id| {
                    let v = params.value(id);
                    Tensor::zeros(v.rows(), v.cols())
                })
                .collect();
        }
        for id in params.ids().collect::<Vec<_>>() {
            let grad = grads.grad(id);
            if self.momentum != 0.0 {
                let v = &mut self.velocity[id.index()];
                if let Some(g) = grad {
                    for (vv, gv) in v.data_mut().iter_mut().zip(g.data()) {
                        *vv = self.momentum * *vv + gv;
                    }
                } else {
                    v.data_mut().iter_mut().for_each(|vv| *vv *= self.momentum);
                }
                let v = self.velocity[id.index()].clone();
                params.value_mut(id).axpy(-self.lr, &v);
            } else if let Some(g) = grad {
                params.value_mut(id).axpy(-self.lr, g);
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba). Defaults: β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    /// Whether a parameter has ever received a gradient. While false its
    /// moments are exactly zero and the Adam update is a bitwise no-op
    /// (`p − lr·(0/bc₁)/(√(0/bc₂)+ε) ≡ p`), so the dense scan can skip it —
    /// important for frozen embedding tables that dominate the scalar count.
    #[serde(default)]
    touched: Vec<bool>,
}

impl Adam {
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            touched: Vec::new(),
        }
    }

    pub fn lr(&self) -> f64 {
        self.lr
    }

    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn ensure_state(&mut self, params: &Parameters) {
        if self.m.len() != params.len() {
            let zeros = |p: &Parameters| {
                p.ids()
                    .map(|id| {
                        let v = p.value(id);
                        Tensor::zeros(v.rows(), v.cols())
                    })
                    .collect::<Vec<_>>()
            };
            self.m = zeros(params);
            self.v = zeros(params);
            self.t = 0;
            self.touched = vec![false; params.len()];
        }
        if self.touched.len() != self.m.len() {
            // State deserialized from before `touched` existed: assume every
            // parameter has live moments (conservative, preserves behavior).
            self.touched = vec![true; self.m.len()];
        }
    }

    /// Apply one update step using the given gradients.
    pub fn step(&mut self, params: &mut Parameters, grads: &GradStore) {
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let kernels = crate::kernels::active();
        for id in params.ids().collect::<Vec<_>>() {
            let ix = id.index();
            match grads.grad(id) {
                Some(g) => {
                    self.touched[ix] = true;
                    kernels.adam_moments(
                        self.m[ix].data_mut(),
                        self.v[ix].data_mut(),
                        g.data(),
                        self.beta1,
                        self.beta2,
                    );
                }
                // Never-touched parameter: moments are exactly zero, decay
                // keeps them zero, and the update below would subtract an
                // exact +0.0 — a bitwise no-op. Skip the whole scan.
                None if !self.touched[ix] => continue,
                None => {
                    // Zero gradient: moments decay exactly as dense zeros would.
                    kernels.scale_assign(self.m[ix].data_mut(), self.beta1);
                    kernels.scale_assign(self.v[ix].data_mut(), self.beta2);
                }
            }
            let (m, v) = (&self.m[ix], &self.v[ix]);
            let value = params.value_mut(id);
            kernels.adam_update(value.data_mut(), m.data(), v.data(), self.lr, bc1, bc2, self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimize (w - 5)² and check both optimizers converge.
    fn quadratic_converges(mut step: impl FnMut(&mut Parameters, &GradStore), iters: usize) -> f64 {
        let mut params = Parameters::new();
        let w = params.register("w", Tensor::scalar(0.0));
        for _ in 0..iters {
            let mut g = Graph::new(&params);
            let wn = g.param(w);
            let t = g.input(Tensor::scalar(5.0));
            let d = g.sub(wn, t);
            let loss = g.mul(d, d);
            let (_, grads) = g.finish(loss);
            step(&mut params, &grads);
        }
        params.value(w).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = quadratic_converges(|p, g| opt.step(p, g), 200);
        assert!((w - 5.0).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let w = quadratic_converges(|p, g| opt.step(p, g), 300);
        assert!((w - 5.0).abs() < 1e-4, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let w = quadratic_converges(|p, g| opt.step(p, g), 300);
        assert!((w - 5.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_missing_grad_slot_matches_dense_zero() {
        // Two runs: one where a second parameter has an explicit zero grad,
        // one where its slot is absent. Updates must be identical.
        let run = |dense: bool| {
            let mut params = Parameters::new();
            let a = params.register("a", Tensor::scalar(1.0));
            let b = params.register("b", Tensor::scalar(2.0));
            let mut opt = Adam::new(0.1);
            for step in 0..5 {
                let mut grads = GradStore::new();
                *grads.entry(a, 1, 1) = Tensor::scalar(1.0 + step as f64);
                if dense {
                    grads.entry(b, 1, 1); // allocate an all-zero slot
                }
                opt.step(&mut params, &grads);
            }
            (params.value(a).item(), params.value(b).item())
        };
        assert_eq!(run(true), run(false));
    }
}
