//! Pluggable compute kernels behind the tape.
//!
//! Every blocked microkernel the autodiff hot path runs — the matmul family,
//! the elementwise accumulate family, and the fused-op activation/gate loops —
//! lives behind the [`Kernels`] trait with two implementations:
//!
//! * [`ScalarKernels`] — straight-line one-element-at-a-time loops, the
//!   correctness oracle;
//! * [`SimdKernels`] — x86_64 AVX2 via `core::arch` intrinsics with runtime
//!   `is_x86_feature_detected!` dispatch, falling back to the scalar loops on
//!   other targets (or when AVX2/FMA are absent).
//!
//! # Bit-identity contract (f64)
//!
//! Training is `f64` and must be **bit-for-bit identical** under either
//! backend — checkpoints, loss curves, and the engine's thread-count
//! determinism tests all rely on it. The SIMD f64 kernels therefore:
//!
//! * fuse every multiply-add **symmetrically**: the scalar oracle uses
//!   `f64::mul_add` wherever the vector form uses `_mm256_fmadd_pd`. Both are
//!   the correctly-rounded IEEE 754 fusedMultiplyAdd, so a fused site computes
//!   the same bits on either backend; Rust never contracts `a * b + c` on its
//!   own, so any site left unfused stays a separately-rounded mul + add on
//!   both sides. (On FMA hardware the scalar `mul_add` is re-dispatched
//!   through a `#[target_feature(enable = "fma")]` copy of the same body —
//!   see `fma_dispatch!` — so it costs one instruction, not a libm call.);
//! * keep each output element's reduction order exactly equal to the scalar
//!   loop — either by vectorizing across *output* lanes only, or, where a
//!   horizontal reduction is unavoidable (`matmul_nt_acc`), by defining the
//!   scalar oracle itself as the fixed four-lane interleaved `scalar::dot`
//!   that the vector form evaluates in-register;
//! * keep the `a == 0.0` skip of the scalar i-k-j kernels;
//! * evaluate transcendental activations (sigmoid/tanh, and the fused LSTM
//!   gate loop) through [`vmath`], a fixed-operation-order `exp` built purely
//!   from mul/add/div/floor/min/max and the fused multiply-add — `libm`'s
//!   `exp`/`tanh` have no bit-reproducible vector form, so both backends
//!   share this one algorithm, evaluated one lane at a time (scalar) or four
//!   lanes at a time (AVX2) with an identical operation sequence per element.
//!
//! The **f32 inference** kernels are exempt: they are compared to the f64
//! oracle by an error bound, not by bits (see `DESIGN.md`).
//!
//! # Selection
//!
//! The backend is resolved once per process, on the first kernel call: the
//! env var `WSCCL_KERNELS=scalar|simd|auto` when set (so CI can force both
//! paths over the whole suite; any other value panics there), CPU detection
//! otherwise. Tests and benches may flip the backend mid-process with
//! [`force`] — sound precisely because of the f64 bit-identity contract
//! above. The returned [`ForcedBackend`] guard holds a process-wide lock, so
//! concurrent tests that force different backends take turns instead of
//! switching each other's kernels mid-run.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which kernel backend to use. `Auto` picks SIMD when the CPU supports
/// AVX2 + FMA, scalar otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    Auto,
    Scalar,
    Simd,
}

/// The kernel set shared by the f64 tape and the f32 inference path.
///
/// All matrices are dense row-major slices; `out`/`dst` lengths are the
/// caller's responsibility ([`crate::Tensor`] asserts shapes before
/// delegating).
pub trait Kernels: Send + Sync {
    fn name(&self) -> &'static str;

    // ------------------------------------------------------ f64 matmul family

    /// `out (m×n) += a (m×k) · b (k×n)`.
    fn matmul_acc(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// `out (m×n) += a (m×d) · b (n×d)ᵀ`.
    fn matmul_nt_acc(&self, m: usize, d: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// `out (m×n) += a (k×m)ᵀ · b (k×n)`.
    fn matmul_tn_acc(&self, k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    // ------------------------------------------------------- f64 elementwise

    /// `out = a + b`.
    fn add_into(&self, a: &[f64], b: &[f64], out: &mut [f64]);
    /// `out = a - b`.
    fn sub_into(&self, a: &[f64], b: &[f64], out: &mut [f64]);
    /// `out = a ⊙ b`.
    fn mul_into(&self, a: &[f64], b: &[f64], out: &mut [f64]);
    /// `dst += src`.
    fn add_assign(&self, dst: &mut [f64], src: &[f64]);
    /// `dst ⊙= src`.
    fn mul_assign(&self, dst: &mut [f64], src: &[f64]);
    /// `dst *= c`.
    fn scale_assign(&self, dst: &mut [f64], c: f64);
    /// `dst += c · src`.
    fn axpy(&self, dst: &mut [f64], c: f64, src: &[f64]);
    /// `dst += x ⊙ y`.
    fn add_prod(&self, dst: &mut [f64], x: &[f64], y: &[f64]);
    /// Interleaved dot product `Σᵢ aᵢ·bᵢ` — the fixed four-lane reduction of
    /// `scalar::dot`. Both backends share the one implementation (its
    /// FMA-dispatched body autovectorizes), so the default is never
    /// overridden and the value is backend-independent by construction.
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        scalar::dot(a, b)
    }

    /// Add the `1×d` row `row` to each of the `n` rows of `dst` (bias add).
    fn add_row_assign(&self, n: usize, d: usize, dst: &mut [f64], row: &[f64]);
    /// `acc (1×d) += Σ_r rows[r]` — column-sum accumulate (bias gradients).
    fn add_rows_acc(&self, n: usize, d: usize, rows: &[f64], acc: &mut [f64]);

    // ------------------------------------------------------ f64 optimizer
    // The Adam hot loops touch every parameter every step. Division and
    // square root are correctly rounded in both scalar and AVX2 form, so
    // these vectorize bit-identically like the rest of the f64 family.

    /// Adam moment update with the exact scalar grouping:
    /// `m = β₁·m + (1−β₁)·g` and `v = β₂·v + ((1−β₂)·g)·g`.
    fn adam_moments(&self, m: &mut [f64], v: &mut [f64], g: &[f64], beta1: f64, beta2: f64);

    /// Adam parameter update: `p -= lr · (m/bc1) / (√(v/bc2) + ε)`.
    fn adam_update(
        &self,
        p: &mut [f64],
        m: &[f64],
        v: &[f64],
        lr: f64,
        bc1: f64,
        bc2: f64,
        eps: f64,
    );

    // ----------------------------------------------------- f64 activations
    // Provided methods default to the shared [`vmath`] scalar evaluation;
    // `SimdKernels` overrides them with the 4-lane AVX2 form of the *same*
    // operation sequence, so every backend produces identical bits.

    fn sigmoid_inplace(&self, xs: &mut [f64]) {
        scalar::sigmoid_inplace(xs);
    }

    fn tanh_inplace(&self, xs: &mut [f64]) {
        scalar::tanh_inplace(xs);
    }

    fn relu_inplace(&self, xs: &mut [f64]) {
        scalar::relu_inplace(xs);
    }

    /// Fused LSTM gate nonlinearity: from pre-activations `z (n×4h)` and the
    /// previous cell `c_old (n×h)`, fill `saved (n×5h)` with
    /// `[i | f | g | o | tanh(c_new)]` and `out (n×2h)` with
    /// `[h_new | c_new]`. Transcendentals go through the shared [`vmath`]
    /// pipeline, so the AVX2 override is bit-identical.
    fn lstm_gates(
        &self,
        n: usize,
        hidden: usize,
        z: &[f64],
        c_old: &[f64],
        saved: &mut [f64],
        out: &mut [f64],
    ) {
        scalar::lstm_gates(n, hidden, z, c_old, saved, out);
    }

    /// Backward of [`Kernels::lstm_gates`]: push the adjoint `g (n×2h)` of
    /// `[h_new | c_new]` through the saved gates into the pre-activation
    /// adjoint `dz (n×4h)` and the previous-cell adjoint `dc_old (n×h)`.
    /// Pure per-element arithmetic, so the SIMD form is bit-identical.
    fn lstm_gates_backward(
        &self,
        n: usize,
        hidden: usize,
        saved: &[f64],
        g: &[f64],
        c_old: &[f64],
        dz: &mut [f64],
        dc_old: &mut [f64],
    ) {
        scalar::lstm_gates_backward(n, hidden, saved, g, c_old, dz, dc_old);
    }

    // ------------------------------------------------- f32 inference kernels
    // Used only by the frozen inference path; compared to the f64 oracle by an
    // error bound, so FMA is allowed here.

    /// `out (m×n) += a (m×k) · b (k×n)` in f32.
    fn matmul_acc_f32(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `dst += src` in f32.
    fn add_assign_f32(&self, dst: &mut [f32], src: &[f32]);

    /// `dst *= c` in f32.
    fn scale_assign_f32(&self, dst: &mut [f32], c: f32);

    /// Single-row LSTM gate step for inference: given `z (1×4h)` and the cell
    /// state `c (1×h)`, update `c` and write `h = o ⊙ tanh(c_new)`.
    fn lstm_gates_infer_f32(&self, hidden: usize, z: &[f32], c: &mut [f32], h: &mut [f32]) {
        scalar::lstm_gates_infer_f32(hidden, z, c, h);
    }

    /// Batched [`Kernels::lstm_gates_infer_f32`]: `n` independent rows of
    /// `z (n×4h)`, `c (n×h)`, `h (n×h)`. Defined as the row loop over the
    /// single-row kernel, so each batched row is **bitwise identical** to the
    /// corresponding one-at-a-time call on either backend — the batched
    /// serving path relies on this for its parity-with-`embed` contract.
    fn lstm_gates_infer_batch_f32(
        &self,
        n: usize,
        hidden: usize,
        z: &[f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        for r in 0..n {
            self.lstm_gates_infer_f32(
                hidden,
                &z[r * 4 * hidden..(r + 1) * 4 * hidden],
                &mut c[r * hidden..(r + 1) * hidden],
                &mut h[r * hidden..(r + 1) * hidden],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar backend: the original tensor.rs / graph.rs loops, verbatim.
// ---------------------------------------------------------------------------

/// Compiles a `mul_add`-based kernel body twice — once plain, once with the
/// `fma` target feature — and dispatches on [`simd_available`] at run time.
///
/// `f64::mul_add` is the IEEE 754 fusedMultiplyAdd: correctly rounded in both
/// its libm software form and the `vfmadd` hardware instruction, so the
/// dispatch can never change a result — only whether each fused multiply-add
/// costs a libm call or a single instruction. This is what lets the scalar
/// oracle use the same fused operations as the AVX2 backend (bit-identity)
/// without paying a function call per element on FMA hardware.
macro_rules! fma_dispatch {
    ($impl_fn:ident, $fma_fn:ident,
     $(#[$meta:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block) => {
        #[inline(always)]
        fn $impl_fn($($arg: $ty),*) $(-> $ret)? $body

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "fma")]
        unsafe fn $fma_fn($($arg: $ty),*) $(-> $ret)? {
            $impl_fn($($arg),*)
        }

        $(#[$meta])*
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if crate::kernels::simd_available() {
                // SAFETY: `simd_available` implies the `fma` CPU feature.
                return unsafe { $fma_fn($($arg),*) };
            }
            $impl_fn($($arg),*)
        }
    };
}

/// Reference backend — straight-line loops defining the training semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarKernels;

/// The shared scalar loop bodies. `SimdKernels` falls back here on non-x86_64
/// targets and for remainder lanes, so both backends literally share tails.
pub(crate) mod scalar {
    fma_dispatch!(
        matmul_acc_impl,
        matmul_acc_fma,
        pub fn matmul_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
            for i in 0..m {
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    let crow = &mut out[i * n..(i + 1) * n];
                    for (c, o) in crow.iter_mut().zip(brow) {
                        *c = av.mul_add(*o, *c);
                    }
                }
            }
        }
    );

    fma_dispatch!(
        matmul_nt_acc_impl,
        matmul_nt_acc_fma,
        pub fn matmul_nt_acc(m: usize, d: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
            for i in 0..m {
                let arow = &a[i * d..(i + 1) * d];
                let crow = &mut out[i * n..(i + 1) * n];
                for (j, c) in crow.iter_mut().enumerate() {
                    *c += dot_impl(arow, &b[j * d..(j + 1) * d]);
                }
            }
        }
    );

    fma_dispatch!(
        dot_impl,
        dot_fma,
        /// Dot product with a fixed four-lane interleaved reduction — the one
        /// `matmul_nt_acc` algorithm shared by both backends. Lane `p` sums
        /// elements `p, p+4, …` with fused multiply-adds, the lanes combine as
        /// `(l0 + l2) + (l1 + l3)`, and the `len % 4` remainder accumulates onto
        /// the combined sum in ascending order. The AVX2 form holds the four
        /// lanes in one register and performs the identical operation sequence,
        /// so results are bit-identical.
        pub fn dot(a: &[f64], b: &[f64]) -> f64 {
            let d = a.len().min(b.len());
            let mut l = [0.0f64; 4];
            let mut kk = 0;
            while kk + 4 <= d {
                l[0] = a[kk].mul_add(b[kk], l[0]);
                l[1] = a[kk + 1].mul_add(b[kk + 1], l[1]);
                l[2] = a[kk + 2].mul_add(b[kk + 2], l[2]);
                l[3] = a[kk + 3].mul_add(b[kk + 3], l[3]);
                kk += 4;
            }
            let mut s = (l[0] + l[2]) + (l[1] + l[3]);
            while kk < d {
                s = a[kk].mul_add(b[kk], s);
                kk += 1;
            }
            s
        }
    );

    fma_dispatch!(
        matmul_tn_acc_impl,
        matmul_tn_acc_fma,
        pub fn matmul_tn_acc(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
            for kk in 0..k {
                let arow = &a[kk * m..(kk + 1) * m];
                let brow = &b[kk * n..(kk + 1) * n];
                for (i, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let crow = &mut out[i * n..(i + 1) * n];
                    for (c, bv) in crow.iter_mut().zip(brow) {
                        *c = av.mul_add(*bv, *c);
                    }
                }
            }
        }
    );

    #[inline]
    pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    #[inline]
    pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x - y;
        }
    }

    #[inline]
    pub fn mul_into(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    #[inline]
    pub fn add_assign(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    #[inline]
    pub fn mul_assign(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d *= s;
        }
    }

    #[inline]
    pub fn scale_assign(dst: &mut [f64], c: f64) {
        dst.iter_mut().for_each(|v| *v *= c);
    }

    fma_dispatch!(
        axpy_impl,
        axpy_fma,
        pub fn axpy(dst: &mut [f64], c: f64, src: &[f64]) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = c.mul_add(*s, *d);
            }
        }
    );

    fma_dispatch!(
        add_prod_impl,
        add_prod_fma,
        pub fn add_prod(dst: &mut [f64], x: &[f64], y: &[f64]) {
            for ((d, a), b) in dst.iter_mut().zip(x).zip(y) {
                *d = a.mul_add(*b, *d);
            }
        }
    );

    #[inline]
    pub fn add_row_assign(n: usize, d: usize, dst: &mut [f64], row: &[f64]) {
        for r in 0..n {
            add_assign(&mut dst[r * d..(r + 1) * d], row);
        }
    }

    #[inline]
    pub fn add_rows_acc(n: usize, d: usize, rows: &[f64], acc: &mut [f64]) {
        for r in 0..n {
            add_assign(acc, &rows[r * d..(r + 1) * d]);
        }
    }

    #[inline]
    pub fn sigmoid_inplace(xs: &mut [f64]) {
        xs.iter_mut().for_each(|v| *v = super::vmath::sigmoid(*v));
    }

    #[inline]
    pub fn tanh_inplace(xs: &mut [f64]) {
        xs.iter_mut().for_each(|v| *v = super::vmath::tanh(*v));
    }

    #[inline]
    pub fn relu_inplace(xs: &mut [f64]) {
        xs.iter_mut().for_each(|v| *v = v.max(0.0));
    }

    pub fn lstm_gates(
        n: usize,
        hidden: usize,
        z: &[f64],
        c_old: &[f64],
        saved: &mut [f64],
        out: &mut [f64],
    ) {
        for r in 0..n {
            let zrow = &z[r * 4 * hidden..(r + 1) * 4 * hidden];
            let crow = &c_old[r * hidden..(r + 1) * hidden];
            let srow = &mut saved[r * 5 * hidden..(r + 1) * 5 * hidden];
            let orow = &mut out[r * 2 * hidden..(r + 1) * 2 * hidden];
            for k in 0..hidden {
                lstm_gate_forward_lane(zrow, crow, srow, orow, hidden, k);
            }
        }
    }

    /// One lane of the LSTM gate forward — also the SIMD remainder tail.
    #[inline]
    pub fn lstm_gate_forward_lane(
        zrow: &[f64],
        crow: &[f64],
        srow: &mut [f64],
        orow: &mut [f64],
        hidden: usize,
        k: usize,
    ) {
        let i = super::vmath::sigmoid(zrow[k]);
        let f = super::vmath::sigmoid(zrow[hidden + k]);
        let g = super::vmath::tanh(zrow[2 * hidden + k]);
        let o = super::vmath::sigmoid(zrow[3 * hidden + k]);
        let c_new = super::vmath::fmadd(i, g, f * crow[k]);
        let tc = super::vmath::tanh(c_new);
        srow[k] = i;
        srow[hidden + k] = f;
        srow[2 * hidden + k] = g;
        srow[3 * hidden + k] = o;
        srow[4 * hidden + k] = tc;
        orow[k] = o * tc;
        orow[hidden + k] = c_new;
    }

    pub fn lstm_gates_backward(
        n: usize,
        hidden: usize,
        saved: &[f64],
        g: &[f64],
        c_old: &[f64],
        dz: &mut [f64],
        dc_old: &mut [f64],
    ) {
        for r in 0..n {
            let srow = &saved[r * 5 * hidden..(r + 1) * 5 * hidden];
            let grow = &g[r * 2 * hidden..(r + 1) * 2 * hidden];
            let crow = &c_old[r * hidden..(r + 1) * hidden];
            let dzrow = &mut dz[r * 4 * hidden..(r + 1) * 4 * hidden];
            let dcrow = &mut dc_old[r * hidden..(r + 1) * hidden];
            for k in 0..hidden {
                lstm_gate_backward_lane(srow, grow, crow, dzrow, dcrow, hidden, k);
            }
        }
    }

    /// One lane of the LSTM gate backward — also the SIMD remainder tail.
    #[inline]
    pub fn lstm_gate_backward_lane(
        srow: &[f64],
        grow: &[f64],
        crow: &[f64],
        dzrow: &mut [f64],
        dcrow: &mut [f64],
        hidden: usize,
        k: usize,
    ) {
        let iv = srow[k];
        let fv = srow[hidden + k];
        let gtv = srow[2 * hidden + k];
        let ov = srow[3 * hidden + k];
        let tc = srow[4 * hidden + k];
        let gh = grow[k];
        let gc = grow[hidden + k];
        // c_new receives gradient directly and through h_new = o ⊙ tanh(c_new).
        // The two `1 − x·x` terms and the `gc + …` accumulation are fused
        // multiply-adds, mirrored by `vfnmadd`/`vfmadd` in the AVX2 form.
        let dtc = super::vmath::fmadd(-tc, tc, 1.0);
        let dct = super::vmath::fmadd(gh * ov, dtc, gc);
        dcrow[k] = dct * fv;
        let dgo = gh * tc;
        dzrow[3 * hidden + k] = dgo * ov * (1.0 - ov);
        let di = dct * gtv;
        dzrow[k] = di * iv * (1.0 - iv);
        let df = dct * crow[k];
        dzrow[hidden + k] = df * fv * (1.0 - fv);
        let dg = dct * iv;
        dzrow[2 * hidden + k] = dg * super::vmath::fmadd(-gtv, gtv, 1.0);
    }

    // ---------------------------------------------------------- optimizer

    pub fn adam_moments(m: &mut [f64], v: &mut [f64], g: &[f64], beta1: f64, beta2: f64) {
        let om1 = 1.0 - beta1;
        let om2 = 1.0 - beta2;
        for ((mv, vv), gv) in m.iter_mut().zip(v.iter_mut()).zip(g) {
            *mv = beta1 * *mv + om1 * gv;
            *vv = beta2 * *vv + om2 * gv * gv;
        }
    }

    pub fn adam_update(p: &mut [f64], m: &[f64], v: &[f64], lr: f64, bc1: f64, bc2: f64, eps: f64) {
        for ((pv, mv), vv) in p.iter_mut().zip(m).zip(v) {
            let mhat = mv / bc1;
            let vhat = vv / bc2;
            *pv -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    // -------------------------------------------------------- f32 inference

    #[inline]
    pub fn matmul_acc_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let crow = &mut out[i * n..(i + 1) * n];
                for (c, o) in crow.iter_mut().zip(brow) {
                    *c += av * o;
                }
            }
        }
    }

    #[inline]
    pub fn add_assign_f32(dst: &mut [f32], src: &[f32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    #[inline]
    pub fn scale_assign_f32(dst: &mut [f32], c: f32) {
        dst.iter_mut().for_each(|v| *v *= c);
    }

    #[inline]
    pub fn lstm_gates_infer_f32(hidden: usize, z: &[f32], c: &mut [f32], h: &mut [f32]) {
        for k in 0..hidden {
            let i = 1.0 / (1.0 + (-z[k]).exp());
            let f = 1.0 / (1.0 + (-z[hidden + k]).exp());
            let g = z[2 * hidden + k].tanh();
            let o = 1.0 / (1.0 + (-z[3 * hidden + k]).exp());
            let c_new = f * c[k] + i * g;
            c[k] = c_new;
            h[k] = o * c_new.tanh();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared deterministic transcendentals.
// ---------------------------------------------------------------------------

pub mod vmath {
    //! Deterministic `exp` / `sigmoid` / `tanh` shared by both backends.
    //!
    //! `libm`'s `exp` and `tanh` are scalar-only — no vector form reproduces
    //! their bits — so using them would pin the fused activation loops to
    //! scalar speed forever. Instead both backends evaluate one fixed
    //! algorithm built purely from mul/add/div/floor/min/max and the
    //! correctly-rounded fused multiply-add: clamp,
    //! argument reduction against a hi/lo split of ln 2, a degree-13 Horner
    //! polynomial for `e^r` on |r| ≤ ln 2 / 2, and exponent reassembly
    //! through the f64 bit pattern. The scalar form here and the 4-lane AVX2
    //! form in the `avx2` module perform the identical operation sequence per
    //! element, so the backends stay bit-for-bit identical. Accuracy vs
    //! `libm` is a few ulp (asserted by tests below); `tanh` loses relative
    //! (not absolute) accuracy below |x| ≈ 1e-8 to the `(e^{2x}−1)` form,
    //! which is far below training's noise floor.
    //!
    //! Comparison helpers mirror `vminpd`/`vmaxpd` semantics (`if a < b { a }
    //! else { b }`: the second operand wins on NaN), so scalar and vector
    //! agree on non-finite inputs too.

    /// Clamp bound: `e^±708` is finite and normal in f64, so no special
    /// overflow/underflow lanes are needed.
    pub const HI: f64 = 708.0;
    pub const LO: f64 = -708.0;
    pub const LOG2E: f64 = core::f64::consts::LOG2_E;
    /// ln 2 split into an exactly-representable head and a small tail, so
    /// `x - n·LN2_HI` is exact and the reduced argument keeps full precision.
    pub const LN2_HI: f64 = 0.693_145_751_953_125;
    pub const LN2_LO: f64 = 1.428_606_820_309_417_232_12e-6;
    /// Taylor coefficients `1/k!`. Truncation error of the degree-13 Horner
    /// evaluation at |r| ≤ ln 2 / 2 is r¹⁴/14! < 5e-18 — below rounding.
    pub const TAYLOR: [f64; 14] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
        1.0 / 479_001_600.0,
        1.0 / 6_227_020_800.0,
    ];

    /// `vminpd` semantics: second operand on NaN.
    #[inline]
    fn min_like(a: f64, b: f64) -> f64 {
        if a < b {
            a
        } else {
            b
        }
    }

    /// `vmaxpd` semantics: second operand on NaN.
    #[inline]
    fn max_like(a: f64, b: f64) -> f64 {
        if a > b {
            a
        } else {
            b
        }
    }

    fma_dispatch!(
        fmadd_impl,
        fmadd_fma,
        /// Correctly-rounded fused `a·b + c`, the scalar twin of
        /// `_mm256_fmadd_pd`. Exposed so fused-op call sites outside this module
        /// (the LSTM cell update) hit the hardware instruction instead of a libm
        /// call per element.
        pub fn fmadd(a: f64, b: f64, c: f64) -> f64 {
            a.mul_add(b, c)
        }
    );

    fma_dispatch!(
        exp_impl,
        exp_fma,
        /// Fixed-operation-order `e^x`; a few ulp from `libm` (tested). The
        /// reduction and the Horner steps are fused multiply-adds, mirrored by
        /// `vfmadd`/`vfnmadd` in the AVX2 form.
        pub fn exp(x: f64) -> f64 {
            let x = max_like(min_like(x, HI), LO);
            let n = x.mul_add(LOG2E, 0.5).floor();
            let r = (-n).mul_add(LN2_HI, x);
            let r = (-n).mul_add(LN2_LO, r);
            let mut p = TAYLOR[13];
            for idx in (0..13).rev() {
                p = p.mul_add(r, TAYLOR[idx]);
            }
            // 2^n via the exponent bits; n ∈ [-1022, 1021] after the clamp, so
            // the biased exponent stays normal.
            let scale = f64::from_bits((((n as i64) + 1023) << 52) as u64);
            p * scale
        }
    );

    /// `1 / (1 + e^{-x})`.
    #[inline]
    pub fn sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + exp(-x))
    }

    /// `(e^{2x} − 1) / (e^{2x} + 1)`; saturates exactly to ±1.0 past
    /// |x| ≈ 19.1 because the clamp in [`exp`] caps the ratio.
    #[inline]
    pub fn tanh(x: f64) -> f64 {
        let e = exp(2.0 * x);
        (e - 1.0) / (e + 1.0)
    }
}

impl Kernels for ScalarKernels {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul_acc(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        scalar::matmul_acc(m, k, n, a, b, out);
    }

    fn matmul_nt_acc(&self, m: usize, d: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        scalar::matmul_nt_acc(m, d, n, a, b, out);
    }

    fn matmul_tn_acc(&self, k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        scalar::matmul_tn_acc(k, m, n, a, b, out);
    }

    fn add_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        scalar::add_into(a, b, out);
    }

    fn sub_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        scalar::sub_into(a, b, out);
    }

    fn mul_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        scalar::mul_into(a, b, out);
    }

    fn add_assign(&self, dst: &mut [f64], src: &[f64]) {
        scalar::add_assign(dst, src);
    }

    fn mul_assign(&self, dst: &mut [f64], src: &[f64]) {
        scalar::mul_assign(dst, src);
    }

    fn scale_assign(&self, dst: &mut [f64], c: f64) {
        scalar::scale_assign(dst, c);
    }

    fn axpy(&self, dst: &mut [f64], c: f64, src: &[f64]) {
        scalar::axpy(dst, c, src);
    }

    fn add_prod(&self, dst: &mut [f64], x: &[f64], y: &[f64]) {
        scalar::add_prod(dst, x, y);
    }

    fn add_row_assign(&self, n: usize, d: usize, dst: &mut [f64], row: &[f64]) {
        scalar::add_row_assign(n, d, dst, row);
    }

    fn add_rows_acc(&self, n: usize, d: usize, rows: &[f64], acc: &mut [f64]) {
        scalar::add_rows_acc(n, d, rows, acc);
    }

    fn adam_moments(&self, m: &mut [f64], v: &mut [f64], g: &[f64], beta1: f64, beta2: f64) {
        scalar::adam_moments(m, v, g, beta1, beta2);
    }

    fn adam_update(
        &self,
        p: &mut [f64],
        m: &[f64],
        v: &[f64],
        lr: f64,
        bc1: f64,
        bc2: f64,
        eps: f64,
    ) {
        scalar::adam_update(p, m, v, lr, bc1, bc2, eps);
    }

    fn matmul_acc_f32(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        scalar::matmul_acc_f32(m, k, n, a, b, out);
    }

    fn add_assign_f32(&self, dst: &mut [f32], src: &[f32]) {
        scalar::add_assign_f32(dst, src);
    }

    fn scale_assign_f32(&self, dst: &mut [f32], c: f32) {
        scalar::scale_assign_f32(dst, c);
    }
}

// ---------------------------------------------------------------------------
// SIMD backend: AVX2 on x86_64, scalar fallback elsewhere.
// ---------------------------------------------------------------------------

/// AVX2 backend. Every method dispatches on a cached runtime feature check,
/// so constructing it is always safe; without AVX2 + FMA it *is* the scalar
/// backend under another name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimdKernels;

/// Cached `is_x86_feature_detected!("avx2") && ("fma")`. Always false off
/// x86_64.
#[inline]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // 0 = unknown, 1 = no, 2 = yes.
        static CACHE: AtomicU8 = AtomicU8::new(0);
        match CACHE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                CACHE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 kernel bodies. All f64 kernels follow the bit-identity rules
    //! from the module docs: fused multiply-adds mirrored exactly by the
    //! scalar oracle's `mul_add` sites, scalar-order reductions, shared
    //! scalar tails.
    use core::arch::x86_64::*;

    use super::scalar;

    /// `crow (1×n) += Σ_kk a[kk·a_stride] · b[kk] (k×n)`: one output row,
    /// register-blocked. 32 output columns live in eight accumulators (then
    /// 16 in four, then 4 in one) across the whole `k` loop, so `crow` is
    /// loaded and stored once per block instead of once per `kk`. Each output
    /// element accumulates `a[kk] · b[kk][j]` in ascending `kk` starting from
    /// its original value — exactly the scalar i-k-j order — and the
    /// `a == 0.0` skip is retained. `a_stride` is 1 for a row of `a`
    /// ([`matmul_acc`]) and `m` for a column of `aᵀ` ([`matmul_tn_acc`]).
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA; `acol` is readable at `kk · a_stride`
    /// for every `kk < k`, `bp` at `kk · ldb + j` and `crow` readable and
    /// writable at `j` for every `kk < k`, `j < n`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_times_b(
        acol: *const f64,
        a_stride: usize,
        k: usize,
        n: usize,
        bp: *const f64,
        ldb: usize,
        crow: *mut f64,
    ) {
        let mut j = 0;
        while j + 32 <= n {
            let mut acc0 = _mm256_loadu_pd(crow.add(j));
            let mut acc1 = _mm256_loadu_pd(crow.add(j + 4));
            let mut acc2 = _mm256_loadu_pd(crow.add(j + 8));
            let mut acc3 = _mm256_loadu_pd(crow.add(j + 12));
            let mut acc4 = _mm256_loadu_pd(crow.add(j + 16));
            let mut acc5 = _mm256_loadu_pd(crow.add(j + 20));
            let mut acc6 = _mm256_loadu_pd(crow.add(j + 24));
            let mut acc7 = _mm256_loadu_pd(crow.add(j + 28));
            for kk in 0..k {
                let av = *acol.add(kk * a_stride);
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_pd(av);
                let brow = bp.add(kk * ldb + j);
                acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow), acc0);
                acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(4)), acc1);
                acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(8)), acc2);
                acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(12)), acc3);
                acc4 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(16)), acc4);
                acc5 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(20)), acc5);
                acc6 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(24)), acc6);
                acc7 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(28)), acc7);
            }
            _mm256_storeu_pd(crow.add(j), acc0);
            _mm256_storeu_pd(crow.add(j + 4), acc1);
            _mm256_storeu_pd(crow.add(j + 8), acc2);
            _mm256_storeu_pd(crow.add(j + 12), acc3);
            _mm256_storeu_pd(crow.add(j + 16), acc4);
            _mm256_storeu_pd(crow.add(j + 20), acc5);
            _mm256_storeu_pd(crow.add(j + 24), acc6);
            _mm256_storeu_pd(crow.add(j + 28), acc7);
            j += 32;
        }
        while j + 16 <= n {
            let mut acc0 = _mm256_loadu_pd(crow.add(j));
            let mut acc1 = _mm256_loadu_pd(crow.add(j + 4));
            let mut acc2 = _mm256_loadu_pd(crow.add(j + 8));
            let mut acc3 = _mm256_loadu_pd(crow.add(j + 12));
            for kk in 0..k {
                let av = *acol.add(kk * a_stride);
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_pd(av);
                let brow = bp.add(kk * ldb + j);
                acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow), acc0);
                acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(4)), acc1);
                acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(8)), acc2);
                acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow.add(12)), acc3);
            }
            _mm256_storeu_pd(crow.add(j), acc0);
            _mm256_storeu_pd(crow.add(j + 4), acc1);
            _mm256_storeu_pd(crow.add(j + 8), acc2);
            _mm256_storeu_pd(crow.add(j + 12), acc3);
            j += 16;
        }
        while j + 4 <= n {
            let mut acc = _mm256_loadu_pd(crow.add(j));
            for kk in 0..k {
                let av = *acol.add(kk * a_stride);
                if av == 0.0 {
                    continue;
                }
                let vb = _mm256_loadu_pd(bp.add(kk * ldb + j));
                acc = _mm256_fmadd_pd(_mm256_set1_pd(av), vb, acc);
            }
            _mm256_storeu_pd(crow.add(j), acc);
            j += 4;
        }
        while j < n {
            let mut s = *crow.add(j);
            for kk in 0..k {
                let av = *acol.add(kk * a_stride);
                if av == 0.0 {
                    continue;
                }
                s = av.mul_add(*bp.add(kk * ldb + j), s);
            }
            *crow.add(j) = s;
            j += 1;
        }
    }

    /// [`row_times_b`] for two output rows at once over the leading 16-column
    /// blocks: each load of `b` feeds both rows, halving the `b` traffic. The
    /// zero skip stays per row and per `kk`, so every element still sees the
    /// scalar sequence of fused multiply-adds. Returns the columns done.
    ///
    /// # Safety
    /// As for [`row_times_b`] with `ldb = n`, for both rows.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn two_rows_times_b(
        a0: *const f64,
        a1: *const f64,
        a_stride: usize,
        k: usize,
        n: usize,
        bp: *const f64,
        c0: *mut f64,
        c1: *mut f64,
    ) -> usize {
        let mut j = 0;
        while j + 16 <= n {
            let mut x0 = _mm256_loadu_pd(c0.add(j));
            let mut x1 = _mm256_loadu_pd(c0.add(j + 4));
            let mut x2 = _mm256_loadu_pd(c0.add(j + 8));
            let mut x3 = _mm256_loadu_pd(c0.add(j + 12));
            let mut y0 = _mm256_loadu_pd(c1.add(j));
            let mut y1 = _mm256_loadu_pd(c1.add(j + 4));
            let mut y2 = _mm256_loadu_pd(c1.add(j + 8));
            let mut y3 = _mm256_loadu_pd(c1.add(j + 12));
            for kk in 0..k {
                let (u, v) = (*a0.add(kk * a_stride), *a1.add(kk * a_stride));
                let brow = bp.add(kk * n + j);
                let b0 = _mm256_loadu_pd(brow);
                let b1 = _mm256_loadu_pd(brow.add(4));
                let b2 = _mm256_loadu_pd(brow.add(8));
                let b3 = _mm256_loadu_pd(brow.add(12));
                if u != 0.0 {
                    let vu = _mm256_set1_pd(u);
                    x0 = _mm256_fmadd_pd(vu, b0, x0);
                    x1 = _mm256_fmadd_pd(vu, b1, x1);
                    x2 = _mm256_fmadd_pd(vu, b2, x2);
                    x3 = _mm256_fmadd_pd(vu, b3, x3);
                }
                if v != 0.0 {
                    let vv = _mm256_set1_pd(v);
                    y0 = _mm256_fmadd_pd(vv, b0, y0);
                    y1 = _mm256_fmadd_pd(vv, b1, y1);
                    y2 = _mm256_fmadd_pd(vv, b2, y2);
                    y3 = _mm256_fmadd_pd(vv, b3, y3);
                }
            }
            _mm256_storeu_pd(c0.add(j), x0);
            _mm256_storeu_pd(c0.add(j + 4), x1);
            _mm256_storeu_pd(c0.add(j + 8), x2);
            _mm256_storeu_pd(c0.add(j + 12), x3);
            _mm256_storeu_pd(c1.add(j), y0);
            _mm256_storeu_pd(c1.add(j + 4), y1);
            _mm256_storeu_pd(c1.add(j + 8), y2);
            _mm256_storeu_pd(c1.add(j + 12), y3);
            j += 16;
        }
        j
    }

    /// `out (m×n) += Σ_kk a[·, kk] · b[kk]` over all `m` output rows, where
    /// row `i` reads `a` from `a_row(i)` with stride `a_stride`: rows in
    /// pairs through [`two_rows_times_b`], remaining columns and an odd last
    /// row through [`row_times_b`].
    ///
    /// # Safety
    /// As for [`row_times_b`] for every row `i < m` with `acol = a_row(i)`,
    /// `ldb = n` and `crow = out + i · n`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rows_times_b(
        m: usize,
        a_row: impl Fn(usize) -> *const f64,
        a_stride: usize,
        k: usize,
        n: usize,
        bp: *const f64,
        out: *mut f64,
    ) {
        let mut i = 0;
        while i + 2 <= m {
            let (c0, c1) = (out.add(i * n), out.add((i + 1) * n));
            let done = two_rows_times_b(a_row(i), a_row(i + 1), a_stride, k, n, bp, c0, c1);
            if done < n {
                row_times_b(a_row(i), a_stride, k, n - done, bp.add(done), n, c0.add(done));
                row_times_b(a_row(i + 1), a_stride, k, n - done, bp.add(done), n, c1.add(done));
            }
            i += 2;
        }
        if i < m {
            row_times_b(a_row(i), a_stride, k, n, bp, n, out.add(i * n));
        }
    }

    /// `out (m×n) += a (m×k) · b (k×n)` through [`rows_times_b`].
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA (slice lengths are checked).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
        rows_times_b(m, |i| a.as_ptr().add(i * k), 1, k, n, b.as_ptr(), out.as_mut_ptr());
    }

    /// `out (m×n) += a (k×m)ᵀ · b (k×n)`, k-inner: each output row `i` reads
    /// column `i` of `a` and accumulates over all `k` rows of `b` in
    /// registers, so `out` is read and written once per call instead of once
    /// per `kk` as in the scalar rank-1 loop. Per element the fused
    /// multiply-adds still run in ascending `kk` with the same `a == 0.0`
    /// skip, so the result is bit-identical to [`scalar::matmul_tn_acc`].
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA (slice lengths are checked).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_tn_acc(
        k: usize,
        m: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        assert!(a.len() >= k * m && b.len() >= k * n && out.len() >= m * n);
        rows_times_b(m, |i| a.as_ptr().add(i), m, k, n, b.as_ptr(), out.as_mut_ptr());
    }

    /// The four-lane interleaved reduction of [`scalar::dot`] held in one
    /// register: lane `p` sums elements `p, p+4, …` with fused multiply-adds,
    /// the lanes combine as `(l0 + l2) + (l1 + l3)`, the remainder
    /// accumulates onto the combined sum in ascending order — the identical
    /// operation sequence, so results are bit-identical.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum_dot(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd::<1>(acc);
        let pair = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
        _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair))
    }

    /// `out += a · bᵀ` — the reduction kernel. Each output column is the
    /// interleaved [`scalar::dot`]; eight columns run at once so eight
    /// independent FMA chains share every load of `a`.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA (slice lengths are checked).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_nt_acc(
        m: usize,
        d: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        assert!(a.len() >= m * d && b.len() >= n * d && out.len() >= m * n);
        for i in 0..m {
            let arow = a.as_ptr().add(i * d);
            let crow = out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j + 8 <= n {
                let b0 = b.as_ptr().add(j * d);
                let b1 = b.as_ptr().add((j + 1) * d);
                let b2 = b.as_ptr().add((j + 2) * d);
                let b3 = b.as_ptr().add((j + 3) * d);
                let b4 = b.as_ptr().add((j + 4) * d);
                let b5 = b.as_ptr().add((j + 5) * d);
                let b6 = b.as_ptr().add((j + 6) * d);
                let b7 = b.as_ptr().add((j + 7) * d);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                let mut acc2 = _mm256_setzero_pd();
                let mut acc3 = _mm256_setzero_pd();
                let mut acc4 = _mm256_setzero_pd();
                let mut acc5 = _mm256_setzero_pd();
                let mut acc6 = _mm256_setzero_pd();
                let mut acc7 = _mm256_setzero_pd();
                let mut kk = 0;
                while kk + 4 <= d {
                    let va = _mm256_loadu_pd(arow.add(kk));
                    acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b0.add(kk)), acc0);
                    acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b1.add(kk)), acc1);
                    acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b2.add(kk)), acc2);
                    acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b3.add(kk)), acc3);
                    acc4 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b4.add(kk)), acc4);
                    acc5 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b5.add(kk)), acc5);
                    acc6 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b6.add(kk)), acc6);
                    acc7 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b7.add(kk)), acc7);
                    kk += 4;
                }
                let mut s = [
                    hsum_dot(acc0),
                    hsum_dot(acc1),
                    hsum_dot(acc2),
                    hsum_dot(acc3),
                    hsum_dot(acc4),
                    hsum_dot(acc5),
                    hsum_dot(acc6),
                    hsum_dot(acc7),
                ];
                while kk < d {
                    let av = *arow.add(kk);
                    s[0] = av.mul_add(*b0.add(kk), s[0]);
                    s[1] = av.mul_add(*b1.add(kk), s[1]);
                    s[2] = av.mul_add(*b2.add(kk), s[2]);
                    s[3] = av.mul_add(*b3.add(kk), s[3]);
                    s[4] = av.mul_add(*b4.add(kk), s[4]);
                    s[5] = av.mul_add(*b5.add(kk), s[5]);
                    s[6] = av.mul_add(*b6.add(kk), s[6]);
                    s[7] = av.mul_add(*b7.add(kk), s[7]);
                    kk += 1;
                }
                for (p, sv) in s.iter().enumerate() {
                    *crow.add(j + p) += sv;
                }
                j += 8;
            }
            while j < n {
                let arow_s = core::slice::from_raw_parts(arow, d);
                let brow_s = core::slice::from_raw_parts(b.as_ptr().add(j * d), d);
                *crow.add(j) += scalar::dot(arow_s, brow_s);
                j += 1;
            }
        }
    }

    macro_rules! ew_binary {
        ($name:ident, $vop:ident, $sop:tt) => {
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $name(a: &[f64], b: &[f64], out: &mut [f64]) {
                let len = out.len().min(a.len()).min(b.len());
                let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
                let mut i = 0;
                while i + 4 <= len {
                    let va = _mm256_loadu_pd(pa.add(i));
                    let vb = _mm256_loadu_pd(pb.add(i));
                    _mm256_storeu_pd(po.add(i), $vop(va, vb));
                    i += 4;
                }
                while i < len {
                    *po.add(i) = *pa.add(i) $sop *pb.add(i);
                    i += 1;
                }
            }
        };
    }

    ew_binary!(add_into, _mm256_add_pd, +);
    ew_binary!(sub_into, _mm256_sub_pd, -);
    ew_binary!(mul_into, _mm256_mul_pd, *);

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_assign(dst: &mut [f64], src: &[f64]) {
        let len = dst.len().min(src.len());
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let vd = _mm256_loadu_pd(pd.add(i));
            let vs = _mm256_loadu_pd(ps.add(i));
            _mm256_storeu_pd(pd.add(i), _mm256_add_pd(vd, vs));
            i += 4;
        }
        while i < len {
            *pd.add(i) += *ps.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mul_assign(dst: &mut [f64], src: &[f64]) {
        let len = dst.len().min(src.len());
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let vd = _mm256_loadu_pd(pd.add(i));
            let vs = _mm256_loadu_pd(ps.add(i));
            _mm256_storeu_pd(pd.add(i), _mm256_mul_pd(vd, vs));
            i += 4;
        }
        while i < len {
            *pd.add(i) *= *ps.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_assign(dst: &mut [f64], c: f64) {
        let vc = _mm256_set1_pd(c);
        let pd = dst.as_mut_ptr();
        let len = dst.len();
        let mut i = 0;
        while i + 4 <= len {
            let vd = _mm256_loadu_pd(pd.add(i));
            _mm256_storeu_pd(pd.add(i), _mm256_mul_pd(vd, vc));
            i += 4;
        }
        while i < len {
            *pd.add(i) *= c;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(dst: &mut [f64], c: f64, src: &[f64]) {
        let vc = _mm256_set1_pd(c);
        let len = dst.len().min(src.len());
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let vd = _mm256_loadu_pd(pd.add(i));
            let vs = _mm256_loadu_pd(ps.add(i));
            _mm256_storeu_pd(pd.add(i), _mm256_fmadd_pd(vc, vs, vd));
            i += 4;
        }
        while i < len {
            *pd.add(i) = c.mul_add(*ps.add(i), *pd.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_moments(m: &mut [f64], v: &mut [f64], g: &[f64], beta1: f64, beta2: f64) {
        let len = m.len().min(v.len()).min(g.len());
        let (vb1, vo1) = (_mm256_set1_pd(beta1), _mm256_set1_pd(1.0 - beta1));
        let (vb2, vo2) = (_mm256_set1_pd(beta2), _mm256_set1_pd(1.0 - beta2));
        let (pm, pv, pg) = (m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let gv = _mm256_loadu_pd(pg.add(i));
            let mv = _mm256_loadu_pd(pm.add(i));
            let vv = _mm256_loadu_pd(pv.add(i));
            // Exact scalar grouping: β₁·m + (1−β₁)·g and β₂·v + ((1−β₂)·g)·g.
            let m_new = _mm256_add_pd(_mm256_mul_pd(vb1, mv), _mm256_mul_pd(vo1, gv));
            let v_new =
                _mm256_add_pd(_mm256_mul_pd(vb2, vv), _mm256_mul_pd(_mm256_mul_pd(vo2, gv), gv));
            _mm256_storeu_pd(pm.add(i), m_new);
            _mm256_storeu_pd(pv.add(i), v_new);
            i += 4;
        }
        if i < len {
            scalar::adam_moments(&mut m[i..len], &mut v[i..len], &g[i..len], beta1, beta2);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_update(
        p: &mut [f64],
        m: &[f64],
        v: &[f64],
        lr: f64,
        bc1: f64,
        bc2: f64,
        eps: f64,
    ) {
        let len = p.len().min(m.len()).min(v.len());
        let (vlr, vbc1) = (_mm256_set1_pd(lr), _mm256_set1_pd(bc1));
        let (vbc2, veps) = (_mm256_set1_pd(bc2), _mm256_set1_pd(eps));
        let (pp, pm, pv) = (p.as_mut_ptr(), m.as_ptr(), v.as_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let mv = _mm256_loadu_pd(pm.add(i));
            let vv = _mm256_loadu_pd(pv.add(i));
            let pvv = _mm256_loadu_pd(pp.add(i));
            // Division and sqrt are correctly rounded, so this matches the
            // scalar `lr·(m/bc1)/(√(v/bc2)+ε)` bit for bit.
            let mhat = _mm256_div_pd(mv, vbc1);
            let vhat = _mm256_div_pd(vv, vbc2);
            let denom = _mm256_add_pd(_mm256_sqrt_pd(vhat), veps);
            let step = _mm256_div_pd(_mm256_mul_pd(vlr, mhat), denom);
            _mm256_storeu_pd(pp.add(i), _mm256_sub_pd(pvv, step));
            i += 4;
        }
        if i < len {
            scalar::adam_update(&mut p[i..len], &m[i..len], &v[i..len], lr, bc1, bc2, eps);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_prod(dst: &mut [f64], x: &[f64], y: &[f64]) {
        let len = dst.len().min(x.len()).min(y.len());
        let (pd, px, py) = (dst.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let vd = _mm256_loadu_pd(pd.add(i));
            let vx = _mm256_loadu_pd(px.add(i));
            let vy = _mm256_loadu_pd(py.add(i));
            _mm256_storeu_pd(pd.add(i), _mm256_fmadd_pd(vx, vy, vd));
            i += 4;
        }
        while i < len {
            *pd.add(i) = (*px.add(i)).mul_add(*py.add(i), *pd.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_row_assign(n: usize, d: usize, dst: &mut [f64], row: &[f64]) {
        for r in 0..n {
            add_assign(&mut dst[r * d..(r + 1) * d], row);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_rows_acc(n: usize, d: usize, rows: &[f64], acc: &mut [f64]) {
        for r in 0..n {
            add_assign(acc, &rows[r * d..(r + 1) * d]);
        }
    }

    /// Vectorized LSTM gate backward. Per-element arithmetic only, with the
    /// exact operator grouping of the scalar lane, so results are
    /// bit-identical.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lstm_gates_backward(
        n: usize,
        hidden: usize,
        saved: &[f64],
        g: &[f64],
        c_old: &[f64],
        dz: &mut [f64],
        dc_old: &mut [f64],
    ) {
        let one = _mm256_set1_pd(1.0);
        for r in 0..n {
            let srow = saved.as_ptr().add(r * 5 * hidden);
            let grow = g.as_ptr().add(r * 2 * hidden);
            let crow = c_old.as_ptr().add(r * hidden);
            let dzrow = dz.as_mut_ptr().add(r * 4 * hidden);
            let dcrow = dc_old.as_mut_ptr().add(r * hidden);
            let mut k = 0;
            while k + 4 <= hidden {
                let iv = _mm256_loadu_pd(srow.add(k));
                let fv = _mm256_loadu_pd(srow.add(hidden + k));
                let gtv = _mm256_loadu_pd(srow.add(2 * hidden + k));
                let ov = _mm256_loadu_pd(srow.add(3 * hidden + k));
                let tc = _mm256_loadu_pd(srow.add(4 * hidden + k));
                let gh = _mm256_loadu_pd(grow.add(k));
                let gc = _mm256_loadu_pd(grow.add(hidden + k));
                let cv = _mm256_loadu_pd(crow.add(k));
                // dct = fma(gh*ov, fnma(tc, tc, 1), gc), as in the scalar lane.
                let dtc = _mm256_fnmadd_pd(tc, tc, one);
                let dct = _mm256_fmadd_pd(_mm256_mul_pd(gh, ov), dtc, gc);
                _mm256_storeu_pd(dcrow.add(k), _mm256_mul_pd(dct, fv));
                // dz_o = (gh*tc) * ov * (1 - ov)
                let dgo = _mm256_mul_pd(gh, tc);
                _mm256_storeu_pd(
                    dzrow.add(3 * hidden + k),
                    _mm256_mul_pd(_mm256_mul_pd(dgo, ov), _mm256_sub_pd(one, ov)),
                );
                // dz_i = (dct*gtv) * iv * (1 - iv)
                let di = _mm256_mul_pd(dct, gtv);
                _mm256_storeu_pd(
                    dzrow.add(k),
                    _mm256_mul_pd(_mm256_mul_pd(di, iv), _mm256_sub_pd(one, iv)),
                );
                // dz_f = (dct*c_old) * fv * (1 - fv)
                let df = _mm256_mul_pd(dct, cv);
                _mm256_storeu_pd(
                    dzrow.add(hidden + k),
                    _mm256_mul_pd(_mm256_mul_pd(df, fv), _mm256_sub_pd(one, fv)),
                );
                // dz_g = (dct*iv) * fnma(gtv, gtv, 1)
                let dg = _mm256_mul_pd(dct, iv);
                _mm256_storeu_pd(
                    dzrow.add(2 * hidden + k),
                    _mm256_mul_pd(dg, _mm256_fnmadd_pd(gtv, gtv, one)),
                );
                k += 4;
            }
            if k < hidden {
                let srow_s = core::slice::from_raw_parts(srow, 5 * hidden);
                let grow_s = core::slice::from_raw_parts(grow, 2 * hidden);
                let crow_s = core::slice::from_raw_parts(crow, hidden);
                let dzrow_s = core::slice::from_raw_parts_mut(dzrow, 4 * hidden);
                let dcrow_s = core::slice::from_raw_parts_mut(dcrow, hidden);
                while k < hidden {
                    scalar::lstm_gate_backward_lane(
                        srow_s, grow_s, crow_s, dzrow_s, dcrow_s, hidden, k,
                    );
                    k += 1;
                }
            }
        }
    }

    // ------------------------------------------------ shared transcendentals

    /// 4-lane [`vmath::exp`]: the identical operation sequence per lane
    /// (clamp, reduction, degree-13 Horner, exponent reassembly), so results
    /// are bit-identical to the scalar evaluation.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vexp(x: __m256d) -> __m256d {
        use super::vmath as vm;
        let x = _mm256_max_pd(_mm256_min_pd(x, _mm256_set1_pd(vm::HI)), _mm256_set1_pd(vm::LO));
        let n = _mm256_floor_pd(_mm256_fmadd_pd(x, _mm256_set1_pd(vm::LOG2E), _mm256_set1_pd(0.5)));
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(vm::LN2_HI), x);
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(vm::LN2_LO), r);
        let mut p = _mm256_set1_pd(vm::TAYLOR[13]);
        for idx in (0..13).rev() {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(vm::TAYLOR[idx]));
        }
        // 2^n through the exponent bits; n is an exact small integer, so the
        // i32 conversion is exact (mirrors the scalar `n as i64`).
        let ni = _mm256_cvtpd_epi32(n);
        let nl = _mm256_cvtepi32_epi64(ni);
        let bits = _mm256_slli_epi64::<52>(_mm256_add_epi64(nl, _mm256_set1_epi64x(1023)));
        _mm256_mul_pd(p, _mm256_castsi256_pd(bits))
    }

    /// 4-lane [`vmath::sigmoid`] (negation via sign-bit xor = Rust `-x`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vsigmoid(x: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let e = vexp(_mm256_xor_pd(x, _mm256_set1_pd(-0.0)));
        _mm256_div_pd(one, _mm256_add_pd(one, e))
    }

    /// 4-lane [`vmath::tanh`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vtanh(x: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let e = vexp(_mm256_mul_pd(_mm256_set1_pd(2.0), x));
        _mm256_div_pd(_mm256_sub_pd(e, one), _mm256_add_pd(e, one))
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sigmoid_inplace(xs: &mut [f64]) {
        let len = xs.len();
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= len {
            _mm256_storeu_pd(p.add(i), vsigmoid(_mm256_loadu_pd(p.add(i))));
            i += 4;
        }
        while i < len {
            *p.add(i) = super::vmath::sigmoid(*p.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_inplace(xs: &mut [f64]) {
        let len = xs.len();
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= len {
            _mm256_storeu_pd(p.add(i), vtanh(_mm256_loadu_pd(p.add(i))));
            i += 4;
        }
        while i < len {
            *p.add(i) = super::vmath::tanh(*p.add(i));
            i += 1;
        }
    }

    /// Vectorized LSTM gate forward: four hidden lanes per iteration, five
    /// shared-[`vmath`](super::vmath) transcendentals each, with the exact
    /// operator grouping of the scalar lane — bit-identical results.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lstm_gates(
        n: usize,
        hidden: usize,
        z: &[f64],
        c_old: &[f64],
        saved: &mut [f64],
        out: &mut [f64],
    ) {
        for r in 0..n {
            let zrow = z.as_ptr().add(r * 4 * hidden);
            let crow = c_old.as_ptr().add(r * hidden);
            let srow = saved.as_mut_ptr().add(r * 5 * hidden);
            let orow = out.as_mut_ptr().add(r * 2 * hidden);
            let mut k = 0;
            while k + 4 <= hidden {
                let iv = vsigmoid(_mm256_loadu_pd(zrow.add(k)));
                let fv = vsigmoid(_mm256_loadu_pd(zrow.add(hidden + k)));
                let gv = vtanh(_mm256_loadu_pd(zrow.add(2 * hidden + k)));
                let ov = vsigmoid(_mm256_loadu_pd(zrow.add(3 * hidden + k)));
                let cv = _mm256_loadu_pd(crow.add(k));
                // c_new = fma(i, g, f*c_old), same grouping as the scalar lane.
                let c_new = _mm256_fmadd_pd(iv, gv, _mm256_mul_pd(fv, cv));
                let tc = vtanh(c_new);
                _mm256_storeu_pd(srow.add(k), iv);
                _mm256_storeu_pd(srow.add(hidden + k), fv);
                _mm256_storeu_pd(srow.add(2 * hidden + k), gv);
                _mm256_storeu_pd(srow.add(3 * hidden + k), ov);
                _mm256_storeu_pd(srow.add(4 * hidden + k), tc);
                _mm256_storeu_pd(orow.add(k), _mm256_mul_pd(ov, tc));
                _mm256_storeu_pd(orow.add(hidden + k), c_new);
                k += 4;
            }
            if k < hidden {
                let zrow_s = core::slice::from_raw_parts(zrow, 4 * hidden);
                let crow_s = core::slice::from_raw_parts(crow, hidden);
                let srow_s = core::slice::from_raw_parts_mut(srow, 5 * hidden);
                let orow_s = core::slice::from_raw_parts_mut(orow, 2 * hidden);
                while k < hidden {
                    scalar::lstm_gate_forward_lane(zrow_s, crow_s, srow_s, orow_s, hidden, k);
                    k += 1;
                }
            }
        }
    }

    // -------------------------------------------------------- f32 inference

    /// f32 matmul accumulate with FMA, 8 lanes wide. Inference only — not
    /// bit-comparable to the scalar f32 kernel (FMA rounds once).
    ///
    /// Rows are processed in blocks of four so each weight vector is loaded
    /// once and fused into all four rows — at batch height the weight matrix
    /// is streamed `m/4` times instead of `m` times, which is what makes the
    /// batched serving path beat one-at-a-time on matrices that spill L1/L2.
    /// Per-row `kk` order is identical to the single-row loop below, so every
    /// output row is bitwise equal to an `m = 1` call (the batched-embed
    /// parity contract). Unlike the training kernels there is no `a == 0`
    /// skip: inference inputs are dense (learned embeddings, LSTM states), so
    /// the per-element test only cost ports — and both row paths must agree
    /// on it anyway for the parity contract.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_acc_f32(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let a0 = a.as_ptr().add(i * k);
            let (a1, a2, a3) = (a0.add(k), a0.add(2 * k), a0.add(3 * k));
            let c0 = out.as_mut_ptr().add(i * n);
            let (c1, c2, c3) = (c0.add(n), c0.add(2 * n), c0.add(3 * n));
            let mut j = 0;
            while j + 16 <= n {
                let mut acc00 = _mm256_loadu_ps(c0.add(j));
                let mut acc01 = _mm256_loadu_ps(c0.add(j + 8));
                let mut acc10 = _mm256_loadu_ps(c1.add(j));
                let mut acc11 = _mm256_loadu_ps(c1.add(j + 8));
                let mut acc20 = _mm256_loadu_ps(c2.add(j));
                let mut acc21 = _mm256_loadu_ps(c2.add(j + 8));
                let mut acc30 = _mm256_loadu_ps(c3.add(j));
                let mut acc31 = _mm256_loadu_ps(c3.add(j + 8));
                for kk in 0..k {
                    let brow = bp.add(kk * n + j);
                    let b0 = _mm256_loadu_ps(brow);
                    let b1 = _mm256_loadu_ps(brow.add(8));
                    let v = _mm256_set1_ps(*a0.add(kk));
                    acc00 = _mm256_fmadd_ps(v, b0, acc00);
                    acc01 = _mm256_fmadd_ps(v, b1, acc01);
                    let v = _mm256_set1_ps(*a1.add(kk));
                    acc10 = _mm256_fmadd_ps(v, b0, acc10);
                    acc11 = _mm256_fmadd_ps(v, b1, acc11);
                    let v = _mm256_set1_ps(*a2.add(kk));
                    acc20 = _mm256_fmadd_ps(v, b0, acc20);
                    acc21 = _mm256_fmadd_ps(v, b1, acc21);
                    let v = _mm256_set1_ps(*a3.add(kk));
                    acc30 = _mm256_fmadd_ps(v, b0, acc30);
                    acc31 = _mm256_fmadd_ps(v, b1, acc31);
                }
                _mm256_storeu_ps(c0.add(j), acc00);
                _mm256_storeu_ps(c0.add(j + 8), acc01);
                _mm256_storeu_ps(c1.add(j), acc10);
                _mm256_storeu_ps(c1.add(j + 8), acc11);
                _mm256_storeu_ps(c2.add(j), acc20);
                _mm256_storeu_ps(c2.add(j + 8), acc21);
                _mm256_storeu_ps(c3.add(j), acc30);
                _mm256_storeu_ps(c3.add(j + 8), acc31);
                j += 16;
            }
            if j < n {
                matmul_acc_f32_row_cols(k, n, j, a0, bp, c0);
                matmul_acc_f32_row_cols(k, n, j, a1, bp, c1);
                matmul_acc_f32_row_cols(k, n, j, a2, bp, c2);
                matmul_acc_f32_row_cols(k, n, j, a3, bp, c3);
            }
            i += 4;
        }
        for i in i..m {
            let arow = a.as_ptr().add(i * k);
            let crow = out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j + 32 <= n {
                let mut acc0 = _mm256_loadu_ps(crow.add(j));
                let mut acc1 = _mm256_loadu_ps(crow.add(j + 8));
                let mut acc2 = _mm256_loadu_ps(crow.add(j + 16));
                let mut acc3 = _mm256_loadu_ps(crow.add(j + 24));
                for kk in 0..k {
                    let va = _mm256_set1_ps(*arow.add(kk));
                    let brow = bp.add(kk * n + j);
                    acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
                    acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(8)), acc1);
                    acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(16)), acc2);
                    acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(24)), acc3);
                }
                _mm256_storeu_ps(crow.add(j), acc0);
                _mm256_storeu_ps(crow.add(j + 8), acc1);
                _mm256_storeu_ps(crow.add(j + 16), acc2);
                _mm256_storeu_ps(crow.add(j + 24), acc3);
                j += 32;
            }
            while j + 8 <= n {
                let mut acc = _mm256_loadu_ps(crow.add(j));
                for kk in 0..k {
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(*arow.add(kk)),
                        _mm256_loadu_ps(bp.add(kk * n + j)),
                        acc,
                    );
                }
                _mm256_storeu_ps(crow.add(j), acc);
                j += 8;
            }
            while j < n {
                let mut s = *crow.add(j);
                for kk in 0..k {
                    s += *arow.add(kk) * *bp.add(kk * n + j);
                }
                *crow.add(j) = s;
                j += 1;
            }
        }
    }

    /// One output row over columns `j0..n` — the column remainder of a
    /// 4-row block. Same 8-lane/scalar tails (and zero-skip) as the
    /// single-row loop in [`matmul_acc_f32`]. Also the column-remainder
    /// helper for the AVX-512 blocks, which produce the same per-element
    /// results at any vector width.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn matmul_acc_f32_row_cols(
        k: usize,
        n: usize,
        j0: usize,
        arow: *const f32,
        bp: *const f32,
        crow: *mut f32,
    ) {
        let mut j = j0;
        while j + 8 <= n {
            let mut acc = _mm256_loadu_ps(crow.add(j));
            for kk in 0..k {
                acc = _mm256_fmadd_ps(
                    _mm256_set1_ps(*arow.add(kk)),
                    _mm256_loadu_ps(bp.add(kk * n + j)),
                    acc,
                );
            }
            _mm256_storeu_ps(crow.add(j), acc);
            j += 8;
        }
        while j < n {
            let mut s = *crow.add(j);
            for kk in 0..k {
                s += *arow.add(kk) * *bp.add(kk * n + j);
            }
            *crow.add(j) = s;
            j += 1;
        }
    }

    /// 8-lane f32 exp: clamp, range reduction, degree-5 Horner (Cephes
    /// `expf` coefficients), exponent reassembly. ~2 f32 ULP — inference
    /// only; the f64 [`vexp`] remains the training-path oracle.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vexp_f32(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(88.376_26)), _mm256_set1_ps(-87.0));
        let n = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(std::f32::consts::LOG2_E),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.121_944_4e-4), r);
        let mut p = _mm256_set1_ps(1.987_569_1e-4);
        for &coef in &[1.398_2e-3f32, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 5.000_000_2e-1]
        {
            p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(coef));
        }
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), _mm256_set1_ps(1.0));
        let bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        ));
        _mm256_mul_ps(y, _mm256_castsi256_ps(bits))
    }

    /// 8-lane f32 `1 / (1 + e^{-x})`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vsigmoid_f32(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = vexp_f32(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    /// 8-lane f32 `tanh` via `(e^{2x} - 1) / (e^{2x} + 1)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn vtanh_f32(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = vexp_f32(_mm256_mul_ps(_mm256_set1_ps(2.0), x));
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }

    /// f32 LSTM gate inference: eight lanes evaluated natively in f32
    /// (short-polynomial exp, see [`vexp_f32`]); the `hidden % 8` remainder
    /// widens to f64 through the shared [`vmath`](super::vmath) pipeline as
    /// before. Both forms sit well inside the inference error budget against
    /// the scalar f32 libm path (`lstm_infer_f32_ulp`), and single-query and
    /// batched embeds share this one kernel, so batch-vs-single bitwise
    /// parity is preserved by construction.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lstm_gates_infer_f32(hidden: usize, z: &[f32], c: &mut [f32], h: &mut [f32]) {
        lstm_gates_infer_f32_from(0, hidden, z, c, h);
    }

    /// [`lstm_gates_infer_f32`] starting at lane `k0` — the `hidden % 16`
    /// remainder entry point for the AVX-512 kernel (same 8-lane body, f64
    /// 4-lane and scalar tails).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lstm_gates_infer_f32_from(
        k0: usize,
        hidden: usize,
        z: &[f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        let zp = z.as_ptr();
        let cp = c.as_mut_ptr();
        let hp = h.as_mut_ptr();
        let mut k = k0;
        while k + 8 <= hidden {
            let iv = vsigmoid_f32(_mm256_loadu_ps(zp.add(k)));
            let fv = vsigmoid_f32(_mm256_loadu_ps(zp.add(hidden + k)));
            let gv = vtanh_f32(_mm256_loadu_ps(zp.add(2 * hidden + k)));
            let ov = vsigmoid_f32(_mm256_loadu_ps(zp.add(3 * hidden + k)));
            let cv = _mm256_loadu_ps(cp.add(k));
            let c_new = _mm256_fmadd_ps(fv, cv, _mm256_mul_ps(iv, gv));
            let tc = vtanh_f32(c_new);
            _mm256_storeu_ps(cp.add(k), c_new);
            _mm256_storeu_ps(hp.add(k), _mm256_mul_ps(ov, tc));
            k += 8;
        }
        while k + 4 <= hidden {
            let iv = vsigmoid(_mm256_cvtps_pd(_mm_loadu_ps(zp.add(k))));
            let fv = vsigmoid(_mm256_cvtps_pd(_mm_loadu_ps(zp.add(hidden + k))));
            let gv = vtanh(_mm256_cvtps_pd(_mm_loadu_ps(zp.add(2 * hidden + k))));
            let ov = vsigmoid(_mm256_cvtps_pd(_mm_loadu_ps(zp.add(3 * hidden + k))));
            let cv = _mm256_cvtps_pd(_mm_loadu_ps(cp.add(k)));
            let c_new = _mm256_add_pd(_mm256_mul_pd(fv, cv), _mm256_mul_pd(iv, gv));
            let tc = vtanh(c_new);
            _mm_storeu_ps(cp.add(k), _mm256_cvtpd_ps(c_new));
            _mm_storeu_ps(hp.add(k), _mm256_cvtpd_ps(_mm256_mul_pd(ov, tc)));
            k += 4;
        }
        while k < hidden {
            let i = super::vmath::sigmoid(f64::from(*zp.add(k)));
            let f = super::vmath::sigmoid(f64::from(*zp.add(hidden + k)));
            let g = super::vmath::tanh(f64::from(*zp.add(2 * hidden + k)));
            let o = super::vmath::sigmoid(f64::from(*zp.add(3 * hidden + k)));
            let c_new = f * f64::from(*cp.add(k)) + i * g;
            let tc = super::vmath::tanh(c_new);
            *cp.add(k) = c_new as f32;
            *hp.add(k) = (o * tc) as f32;
            k += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_assign_f32(dst: &mut [f32], src: &[f32]) {
        let len = dst.len().min(src.len());
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 8 <= len {
            let vd = _mm256_loadu_ps(pd.add(i));
            let vs = _mm256_loadu_ps(ps.add(i));
            _mm256_storeu_ps(pd.add(i), _mm256_add_ps(vd, vs));
            i += 8;
        }
        while i < len {
            *pd.add(i) += *ps.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_assign_f32(dst: &mut [f32], c: f32) {
        let vc = _mm256_set1_ps(c);
        let pd = dst.as_mut_ptr();
        let len = dst.len();
        let mut i = 0;
        while i + 8 <= len {
            let vd = _mm256_loadu_ps(pd.add(i));
            _mm256_storeu_ps(pd.add(i), _mm256_mul_ps(vd, vc));
            i += 8;
        }
        while i < len {
            *pd.add(i) *= c;
            i += 1;
        }
    }
}

/// Cached `avx512f` (plus the avx2+fma baseline the shared remainder helpers
/// need). Always false off x86_64.
#[inline]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // 0 = unknown, 1 = no, 2 = yes.
        static CACHE: AtomicU8 = AtomicU8::new(0);
        match CACHE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("avx512f") && simd_available();
                CACHE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 bodies for the f32 inference hot path (batched serving).
    //!
    //! Vector lanes map to *independent* output elements (matmul columns,
    //! gate units), and each element still sees the exact same scalar-order
    //! `k` contraction / polynomial, one FMA per product — widening the
    //! registers from 8 to 16 lanes changes which elements share a register,
    //! never the arithmetic any single element observes. The matmul is
    //! therefore bitwise identical to [`super::avx2`]'s; the gate
    //! activations deviate from it by ~2 ulp where divisions become
    //! Newton-refined `rcp14` (see [`vrecip_mul_f32`]), well inside the
    //! `lstm_infer_f32_ulp` envelope. Batched-vs-single bitwise parity is
    //! untouched either way: both embed paths dispatch to the *same* kernel.
    //! Remainders (columns `% 32`, lanes `% 16`) fall through to the AVX2
    //! helpers themselves.
    use core::arch::x86_64::*;

    use super::avx2;

    /// `out += a · b`, 4 rows × 32 columns per block: eight zmm accumulators,
    /// two B-row loads and four broadcasts per `kk`, 128 MACs per iteration.
    /// The weight panel is read once per 4-row block instead of once per row,
    /// which is where the batched-embed speedup over single-query calls
    /// comes from.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn matmul_acc_f32(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let a0 = a.as_ptr().add(i * k);
            let (a1, a2, a3) = (a0.add(k), a0.add(2 * k), a0.add(3 * k));
            let c0 = out.as_mut_ptr().add(i * n);
            let (c1, c2, c3) = (c0.add(n), c0.add(2 * n), c0.add(3 * n));
            let mut j = 0;
            while j + 32 <= n {
                let mut acc00 = _mm512_loadu_ps(c0.add(j));
                let mut acc01 = _mm512_loadu_ps(c0.add(j + 16));
                let mut acc10 = _mm512_loadu_ps(c1.add(j));
                let mut acc11 = _mm512_loadu_ps(c1.add(j + 16));
                let mut acc20 = _mm512_loadu_ps(c2.add(j));
                let mut acc21 = _mm512_loadu_ps(c2.add(j + 16));
                let mut acc30 = _mm512_loadu_ps(c3.add(j));
                let mut acc31 = _mm512_loadu_ps(c3.add(j + 16));
                for kk in 0..k {
                    let brow = bp.add(kk * n + j);
                    let b0 = _mm512_loadu_ps(brow);
                    let b1 = _mm512_loadu_ps(brow.add(16));
                    let v = _mm512_set1_ps(*a0.add(kk));
                    acc00 = _mm512_fmadd_ps(v, b0, acc00);
                    acc01 = _mm512_fmadd_ps(v, b1, acc01);
                    let v = _mm512_set1_ps(*a1.add(kk));
                    acc10 = _mm512_fmadd_ps(v, b0, acc10);
                    acc11 = _mm512_fmadd_ps(v, b1, acc11);
                    let v = _mm512_set1_ps(*a2.add(kk));
                    acc20 = _mm512_fmadd_ps(v, b0, acc20);
                    acc21 = _mm512_fmadd_ps(v, b1, acc21);
                    let v = _mm512_set1_ps(*a3.add(kk));
                    acc30 = _mm512_fmadd_ps(v, b0, acc30);
                    acc31 = _mm512_fmadd_ps(v, b1, acc31);
                }
                _mm512_storeu_ps(c0.add(j), acc00);
                _mm512_storeu_ps(c0.add(j + 16), acc01);
                _mm512_storeu_ps(c1.add(j), acc10);
                _mm512_storeu_ps(c1.add(j + 16), acc11);
                _mm512_storeu_ps(c2.add(j), acc20);
                _mm512_storeu_ps(c2.add(j + 16), acc21);
                _mm512_storeu_ps(c3.add(j), acc30);
                _mm512_storeu_ps(c3.add(j + 16), acc31);
                j += 32;
            }
            if j < n {
                avx2::matmul_acc_f32_row_cols(k, n, j, a0, bp, c0);
                avx2::matmul_acc_f32_row_cols(k, n, j, a1, bp, c1);
                avx2::matmul_acc_f32_row_cols(k, n, j, a2, bp, c2);
                avx2::matmul_acc_f32_row_cols(k, n, j, a3, bp, c3);
            }
            i += 4;
        }
        for i in i..m {
            let arow = a.as_ptr().add(i * k);
            let crow = out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j + 32 <= n {
                let mut acc0 = _mm512_loadu_ps(crow.add(j));
                let mut acc1 = _mm512_loadu_ps(crow.add(j + 16));
                for kk in 0..k {
                    let va = _mm512_set1_ps(*arow.add(kk));
                    let brow = bp.add(kk * n + j);
                    acc0 = _mm512_fmadd_ps(va, _mm512_loadu_ps(brow), acc0);
                    acc1 = _mm512_fmadd_ps(va, _mm512_loadu_ps(brow.add(16)), acc1);
                }
                _mm512_storeu_ps(crow.add(j), acc0);
                _mm512_storeu_ps(crow.add(j + 16), acc1);
                j += 32;
            }
            if j < n {
                avx2::matmul_acc_f32_row_cols(k, n, j, arow, bp, crow);
            }
        }
    }

    /// 16-lane f32 exp — the same clamp, two-step Cody–Waite reduction,
    /// degree-5 Horner, and exponent reassembly as the AVX2
    /// [`vexp_f32`](super::avx2), lane for lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn vexp_f32(x: __m512) -> __m512 {
        let x = _mm512_max_ps(_mm512_min_ps(x, _mm512_set1_ps(88.376_26)), _mm512_set1_ps(-87.0));
        let n = _mm512_roundscale_ps::<0x09>(_mm512_fmadd_ps(
            x,
            _mm512_set1_ps(std::f32::consts::LOG2_E),
            _mm512_set1_ps(0.5),
        ));
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(0.693_359_4), x);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(-2.121_944_4e-4), r);
        let mut p = _mm512_set1_ps(1.987_569_1e-4);
        for &coef in &[1.398_2e-3f32, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 5.000_000_2e-1]
        {
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(coef));
        }
        let r2 = _mm512_mul_ps(r, r);
        let y = _mm512_add_ps(_mm512_fmadd_ps(p, r2, r), _mm512_set1_ps(1.0));
        let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvtps_epi32(n),
            _mm512_set1_epi32(127),
        ));
        _mm512_mul_ps(y, _mm512_castsi512_ps(bits))
    }

    /// 16-lane `a / d` as `a · rcp(d)`: `rcp14` seed refined by one Newton
    /// step (`r₁ = r₀·(2 − d·r₀)`), good to ~2 ulp of the exact quotient.
    /// `vdivps` on a zmm monopolizes the divider for ~10 cycles and each
    /// gate evaluation needs five of them; the refinement runs on the FMA
    /// ports instead and pipelines with the surrounding polynomial work.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn vrecip_mul_f32(a: __m512, d: __m512) -> __m512 {
        let r0 = _mm512_rcp14_ps(d);
        let r = _mm512_mul_ps(r0, _mm512_fnmadd_ps(d, r0, _mm512_set1_ps(2.0)));
        _mm512_mul_ps(a, r)
    }

    /// 16-lane f32 `1 / (1 + e^{-x})`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn vsigmoid_f32(x: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let neg = _mm512_castsi512_ps(_mm512_xor_epi32(
            _mm512_castps_si512(x),
            _mm512_set1_epi32(i32::MIN),
        ));
        vrecip_mul_f32(one, _mm512_add_ps(one, vexp_f32(neg)))
    }

    /// 16-lane f32 `tanh` via `(e^{2x} - 1) / (e^{2x} + 1)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn vtanh_f32(x: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let e = vexp_f32(_mm512_mul_ps(_mm512_set1_ps(2.0), x));
        vrecip_mul_f32(_mm512_sub_ps(e, one), _mm512_add_ps(e, one))
    }

    /// f32 LSTM gate inference, 16 units per iteration; the `hidden % 16`
    /// remainder runs the AVX2 kernel from where this loop stopped.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn lstm_gates_infer_f32(hidden: usize, z: &[f32], c: &mut [f32], h: &mut [f32]) {
        let zp = z.as_ptr();
        let cp = c.as_mut_ptr();
        let hp = h.as_mut_ptr();
        let mut k = 0;
        while k + 16 <= hidden {
            let iv = vsigmoid_f32(_mm512_loadu_ps(zp.add(k)));
            let fv = vsigmoid_f32(_mm512_loadu_ps(zp.add(hidden + k)));
            let gv = vtanh_f32(_mm512_loadu_ps(zp.add(2 * hidden + k)));
            let ov = vsigmoid_f32(_mm512_loadu_ps(zp.add(3 * hidden + k)));
            let cv = _mm512_loadu_ps(cp.add(k));
            let c_new = _mm512_fmadd_ps(fv, cv, _mm512_mul_ps(iv, gv));
            let tc = vtanh_f32(c_new);
            _mm512_storeu_ps(cp.add(k), c_new);
            _mm512_storeu_ps(hp.add(k), _mm512_mul_ps(ov, tc));
            k += 16;
        }
        if k < hidden {
            avx2::lstm_gates_infer_f32_from(k, hidden, z, c, h);
        }
    }

    /// Batched [`lstm_gates_infer_f32`]: the row loop lives *inside* one
    /// `target_feature` function so the per-row kernel inlines and the
    /// out-of-order core overlaps the exp/tanh latency chains of
    /// *independent rows*. A single row is latency-bound on those chains
    /// (the five activations of one lane group form one dependence tree);
    /// with the rows visible in one instruction stream the backend runs at
    /// throughput instead. Arithmetic per row is exactly the single-row
    /// kernel's, so batched rows stay bitwise equal to one-at-a-time calls.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn lstm_gates_infer_batch_f32(
        n: usize,
        hidden: usize,
        z: &[f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        let gates = 4 * hidden;
        for r in 0..n {
            lstm_gates_infer_f32(
                hidden,
                &z[r * gates..(r + 1) * gates],
                &mut c[r * hidden..(r + 1) * hidden],
                &mut h[r * hidden..(r + 1) * hidden],
            );
        }
    }
}

/// Dispatch one method body: AVX2 when available, scalar otherwise.
macro_rules! simd_or_scalar {
    ($avx:expr, $fallback:expr) => {{
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            // SAFETY: `simd_available()` checked avx2 + fma at runtime.
            unsafe { $avx };
            return;
        }
        $fallback
    }};
}

impl Kernels for SimdKernels {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn matmul_acc(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        simd_or_scalar!(
            avx2::matmul_acc(m, k, n, a, b, out),
            scalar::matmul_acc(m, k, n, a, b, out)
        );
    }

    fn matmul_nt_acc(&self, m: usize, d: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        simd_or_scalar!(
            avx2::matmul_nt_acc(m, d, n, a, b, out),
            scalar::matmul_nt_acc(m, d, n, a, b, out)
        );
    }

    fn matmul_tn_acc(&self, k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        simd_or_scalar!(
            avx2::matmul_tn_acc(k, m, n, a, b, out),
            scalar::matmul_tn_acc(k, m, n, a, b, out)
        );
    }

    fn add_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        simd_or_scalar!(avx2::add_into(a, b, out), scalar::add_into(a, b, out));
    }

    fn sub_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        simd_or_scalar!(avx2::sub_into(a, b, out), scalar::sub_into(a, b, out));
    }

    fn mul_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        simd_or_scalar!(avx2::mul_into(a, b, out), scalar::mul_into(a, b, out));
    }

    fn add_assign(&self, dst: &mut [f64], src: &[f64]) {
        simd_or_scalar!(avx2::add_assign(dst, src), scalar::add_assign(dst, src));
    }

    fn mul_assign(&self, dst: &mut [f64], src: &[f64]) {
        simd_or_scalar!(avx2::mul_assign(dst, src), scalar::mul_assign(dst, src));
    }

    fn scale_assign(&self, dst: &mut [f64], c: f64) {
        simd_or_scalar!(avx2::scale_assign(dst, c), scalar::scale_assign(dst, c));
    }

    fn axpy(&self, dst: &mut [f64], c: f64, src: &[f64]) {
        simd_or_scalar!(avx2::axpy(dst, c, src), scalar::axpy(dst, c, src));
    }

    fn add_prod(&self, dst: &mut [f64], x: &[f64], y: &[f64]) {
        simd_or_scalar!(avx2::add_prod(dst, x, y), scalar::add_prod(dst, x, y));
    }

    fn adam_moments(&self, m: &mut [f64], v: &mut [f64], g: &[f64], beta1: f64, beta2: f64) {
        simd_or_scalar!(
            avx2::adam_moments(m, v, g, beta1, beta2),
            scalar::adam_moments(m, v, g, beta1, beta2)
        );
    }

    fn adam_update(
        &self,
        p: &mut [f64],
        m: &[f64],
        v: &[f64],
        lr: f64,
        bc1: f64,
        bc2: f64,
        eps: f64,
    ) {
        simd_or_scalar!(
            avx2::adam_update(p, m, v, lr, bc1, bc2, eps),
            scalar::adam_update(p, m, v, lr, bc1, bc2, eps)
        );
    }

    fn add_row_assign(&self, n: usize, d: usize, dst: &mut [f64], row: &[f64]) {
        simd_or_scalar!(
            avx2::add_row_assign(n, d, dst, row),
            scalar::add_row_assign(n, d, dst, row)
        );
    }

    fn add_rows_acc(&self, n: usize, d: usize, rows: &[f64], acc: &mut [f64]) {
        simd_or_scalar!(avx2::add_rows_acc(n, d, rows, acc), scalar::add_rows_acc(n, d, rows, acc));
    }

    fn sigmoid_inplace(&self, xs: &mut [f64]) {
        simd_or_scalar!(avx2::sigmoid_inplace(xs), scalar::sigmoid_inplace(xs));
    }

    fn tanh_inplace(&self, xs: &mut [f64]) {
        simd_or_scalar!(avx2::tanh_inplace(xs), scalar::tanh_inplace(xs));
    }

    fn lstm_gates(
        &self,
        n: usize,
        hidden: usize,
        z: &[f64],
        c_old: &[f64],
        saved: &mut [f64],
        out: &mut [f64],
    ) {
        simd_or_scalar!(
            avx2::lstm_gates(n, hidden, z, c_old, saved, out),
            scalar::lstm_gates(n, hidden, z, c_old, saved, out)
        );
    }

    fn lstm_gates_backward(
        &self,
        n: usize,
        hidden: usize,
        saved: &[f64],
        g: &[f64],
        c_old: &[f64],
        dz: &mut [f64],
        dc_old: &mut [f64],
    ) {
        simd_or_scalar!(
            avx2::lstm_gates_backward(n, hidden, saved, g, c_old, dz, dc_old),
            scalar::lstm_gates_backward(n, hidden, saved, g, c_old, dz, dc_old)
        );
    }

    fn lstm_gates_infer_f32(&self, hidden: usize, z: &[f32], c: &mut [f32], h: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: `avx512_available()` checked avx512f (and avx2 + fma
            // for the remainder helpers) at runtime.
            unsafe { avx512::lstm_gates_infer_f32(hidden, z, c, h) };
            return;
        }
        simd_or_scalar!(
            avx2::lstm_gates_infer_f32(hidden, z, c, h),
            scalar::lstm_gates_infer_f32(hidden, z, c, h)
        );
    }

    fn lstm_gates_infer_batch_f32(
        &self,
        n: usize,
        hidden: usize,
        z: &[f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: as above.
            unsafe { avx512::lstm_gates_infer_batch_f32(n, hidden, z, c, h) };
            return;
        }
        for r in 0..n {
            self.lstm_gates_infer_f32(
                hidden,
                &z[r * 4 * hidden..(r + 1) * 4 * hidden],
                &mut c[r * hidden..(r + 1) * hidden],
                &mut h[r * hidden..(r + 1) * hidden],
            );
        }
    }

    fn matmul_acc_f32(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: as above.
            unsafe { avx512::matmul_acc_f32(m, k, n, a, b, out) };
            return;
        }
        simd_or_scalar!(
            avx2::matmul_acc_f32(m, k, n, a, b, out),
            scalar::matmul_acc_f32(m, k, n, a, b, out)
        );
    }

    fn add_assign_f32(&self, dst: &mut [f32], src: &[f32]) {
        simd_or_scalar!(avx2::add_assign_f32(dst, src), scalar::add_assign_f32(dst, src));
    }

    fn scale_assign_f32(&self, dst: &mut [f32], c: f32) {
        simd_or_scalar!(avx2::scale_assign_f32(dst, c), scalar::scale_assign_f32(dst, c));
    }
}

// ---------------------------------------------------------------------------
// Global backend selection.
// ---------------------------------------------------------------------------

static SCALAR: ScalarKernels = ScalarKernels;
static SIMD: SimdKernels = SimdKernels;

/// 0 = unresolved, 1 = scalar, 2 = simd.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn backend_code(backend: KernelBackend) -> u8 {
    match backend {
        KernelBackend::Scalar => 1,
        KernelBackend::Simd => 2,
        KernelBackend::Auto => {
            if simd_available() {
                2
            } else {
                1
            }
        }
    }
}

/// Parse a `WSCCL_KERNELS` value, case-insensitively. An empty value means
/// unset; anything else but `scalar`, `simd` or `auto` is an error.
fn parse_backend(value: &str) -> Result<Option<KernelBackend>, String> {
    match value.to_ascii_lowercase().as_str() {
        "" => Ok(None),
        "scalar" => Ok(Some(KernelBackend::Scalar)),
        "simd" => Ok(Some(KernelBackend::Simd)),
        "auto" => Ok(Some(KernelBackend::Auto)),
        _ => Err(format!(
            "WSCCL_KERNELS={value:?} names no kernel backend; use scalar, simd or auto"
        )),
    }
}

/// The `WSCCL_KERNELS` override. Panics on a value that names no backend,
/// so a typo cannot silently run the auto-detected one.
fn env_override() -> Option<KernelBackend> {
    let value = std::env::var_os("WSCCL_KERNELS")?;
    parse_backend(&value.to_string_lossy()).unwrap_or_else(|e| panic!("{e}"))
}

fn publish_gauge(code: u8) {
    // 0 = scalar, 1 = simd; NaN until resolved. No-op while metrics are off.
    wsccl_obs::global().gauge("nn.kernel_backend").set(f64::from(code) - 1.0);
}

fn from_code(code: u8) -> &'static dyn Kernels {
    if code == 2 {
        &SIMD
    } else {
        &SCALAR
    }
}

/// Resolve the process-wide backend on first use: the `WSCCL_KERNELS` env
/// var when set, CPU detection (`Auto`) otherwise. Only [`force`] changes it
/// afterwards.
fn resolve() -> u8 {
    let code = backend_code(env_override().unwrap_or(KernelBackend::Auto));
    match ACTIVE.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => {
            publish_gauge(code);
            code
        }
        Err(raced) => raced,
    }
}

/// Serializes [`force`] holders across the process.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Exclusive hold on the process-wide backend, returned by [`force`]. While
/// it lives, every other `force` call blocks. Dropping it — also when
/// unwinding from a panic — restores the backend that was active before the
/// hold began (for a process that never forced one: `Auto`, or the
/// `WSCCL_KERNELS` override).
#[must_use = "the forced backend is released when the guard drops"]
pub struct ForcedBackend {
    /// `ACTIVE` as found when the hold began.
    prev: u8,
    _hold: MutexGuard<'static, ()>,
}

impl ForcedBackend {
    /// Name of the forced backend (`"scalar"` or `"simd"`).
    pub fn name(&self) -> &'static str {
        active_name()
    }

    /// Switch to another backend without releasing the hold.
    pub fn switch(&mut self, backend: KernelBackend) -> &'static str {
        set_active(backend_code(backend));
        self.name()
    }
}

impl Drop for ForcedBackend {
    fn drop(&mut self) {
        ACTIVE.store(self.prev, Ordering::Relaxed);
        if self.prev != 0 {
            publish_gauge(self.prev);
        }
    }
}

fn set_active(code: u8) {
    ACTIVE.store(code, Ordering::Relaxed);
    publish_gauge(code);
}

/// Swap the active backend until the returned guard drops — for tests and
/// benches that need both in one process. Blocks while another guard is
/// held. Sound for f64 work because the backends are bit-identical; f32
/// inference results may legitimately differ within the documented error
/// budget.
pub fn force(backend: KernelBackend) -> ForcedBackend {
    // A holder that panicked poisons the lock, but its guard still restored
    // the backend on unwind, so the state behind the lock is sound.
    let hold = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = ACTIVE.load(Ordering::Relaxed);
    set_active(backend_code(backend));
    ForcedBackend { prev, _hold: hold }
}

/// The active kernel set, resolved on first use (see `resolve`).
pub fn active() -> &'static dyn Kernels {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => from_code(resolve()),
        code => from_code(code),
    }
}

/// Name of the active backend (`"scalar"` or `"simd"`).
pub fn active_name() -> &'static str {
    active().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn simd_matmuls_match_scalar_bitwise() {
        let (m, k, n) = (3, 5, 7); // n % 4 != 0 exercises the tails
        let a = seq(m * k, |i| (i as f64 * 0.37 - 1.0).sin());
        let b = seq(k * n, |i| (i as f64 * 0.11 + 0.5).cos());
        let mut s_out = seq(m * n, |i| i as f64 * 0.01);
        let mut v_out = s_out.clone();
        ScalarKernels.matmul_acc(m, k, n, &a, &b, &mut s_out);
        SimdKernels.matmul_acc(m, k, n, &a, &b, &mut v_out);
        assert_eq!(s_out, v_out, "matmul_acc");

        let bt = seq(n * k, |i| (i as f64 * 0.23).tan().atan());
        let mut s_out = seq(m * n, |i| i as f64 * 0.01);
        let mut v_out = s_out.clone();
        ScalarKernels.matmul_nt_acc(m, k, n, &a, &bt, &mut s_out);
        SimdKernels.matmul_nt_acc(m, k, n, &a, &bt, &mut v_out);
        assert_eq!(s_out, v_out, "matmul_nt_acc");

        let at = seq(k * m, |i| (i as f64 * 0.71 - 2.0).sin());
        let mut s_out = seq(m * n, |i| i as f64 * 0.01);
        let mut v_out = s_out.clone();
        ScalarKernels.matmul_tn_acc(k, m, n, &at, &b, &mut s_out);
        SimdKernels.matmul_tn_acc(k, m, n, &at, &b, &mut v_out);
        assert_eq!(s_out, v_out, "matmul_tn_acc");
    }

    #[test]
    fn backend_resolution_latches_and_force_overrides() {
        // Whatever is currently latched, force() must flip deterministically.
        let mut forced = force(KernelBackend::Scalar);
        assert_eq!(forced.name(), "scalar");
        assert_eq!(active_name(), "scalar");
        assert_eq!(
            forced.switch(KernelBackend::Simd),
            "simd",
            "Simd force always names simd (portable fallback inside)"
        );
    }

    #[test]
    fn a_second_force_waits_until_the_guard_drops() {
        use std::sync::mpsc;
        use std::time::Duration;
        let first = force(KernelBackend::Scalar);
        let (tx, rx) = mpsc::channel();
        let second = std::thread::spawn(move || {
            let forced = force(KernelBackend::Simd);
            tx.send(forced.name()).expect("receiver alive");
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "a second force ran while the first guard was held"
        );
        assert_eq!(active_name(), "scalar", "the held backend must not change under the guard");
        drop(first);
        let name = rx.recv_timeout(Duration::from_secs(30)).expect("second force never ran");
        assert_eq!(name, "simd");
        second.join().expect("second forcing thread");
    }

    #[test]
    fn the_guard_restores_the_previous_backend_when_unwinding() {
        active();
        let forced = force(KernelBackend::Scalar);
        let found = forced.prev;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut forced = forced;
            forced.switch(KernelBackend::Simd);
            panic!("a test failed while holding a forced backend");
        }));
        assert!(unwound.is_err());
        // The lock is free again (poisoning is tolerated), and the backend is
        // the one the unwound holder found.
        let next = force(KernelBackend::Scalar);
        assert_eq!(next.prev, found, "unwinding must restore the previous backend");
    }

    #[test]
    fn kernels_env_values_parse_or_name_the_choices() {
        assert_eq!(parse_backend("scalar"), Ok(Some(KernelBackend::Scalar)));
        assert_eq!(parse_backend("SIMD"), Ok(Some(KernelBackend::Simd)));
        assert_eq!(parse_backend("Auto"), Ok(Some(KernelBackend::Auto)));
        assert_eq!(parse_backend(""), Ok(None));
        for typo in ["simdd", "avx512", " scalar"] {
            let err = parse_backend(typo).expect_err(typo);
            assert!(err.contains(typo), "{err}");
            for choice in ["scalar", "simd", "auto"] {
                assert!(err.contains(choice), "{err} must name {choice}");
            }
        }
    }

    #[test]
    fn auto_matches_feature_detection() {
        let expect = if simd_available() { 2 } else { 1 };
        assert_eq!(backend_code(KernelBackend::Auto), expect);
    }

    #[test]
    fn vmath_exp_matches_libm_to_a_few_ulp() {
        for i in 0..20_000 {
            // Sweep the activation-relevant range densely plus the far tails.
            let x = -30.0 + i as f64 * 3e-3;
            let got = vmath::exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-14, "exp({x}): got {got}, libm {want}, rel {rel}");
        }
        for x in [-800.0, -708.0, 708.0, 750.0, 0.0, -0.0] {
            assert!(vmath::exp(x).is_finite(), "exp({x}) must stay finite under the clamp");
        }
        assert_eq!(vmath::exp(0.0), 1.0);
    }

    #[test]
    fn vmath_sigmoid_tanh_match_libm() {
        for i in 0..20_000 {
            let x = -25.0 + i as f64 * 2.5e-3;
            let sg = vmath::sigmoid(x);
            let sw = 1.0 / (1.0 + (-x).exp());
            assert!((sg - sw).abs() <= 1e-14 * sw.max(1e-300), "sigmoid({x}): got {sg}, libm {sw}");
            let tg = vmath::tanh(x);
            let tw = x.tanh();
            // Relative accuracy degrades to the absolute floor below |x|≈1e-8
            // (documented); everywhere else a few ulp.
            let tol = (1e-13 * tw.abs()).max(4e-16);
            assert!((tg - tw).abs() <= tol, "tanh({x}): got {tg}, libm {tw}");
        }
        assert_eq!(vmath::tanh(30.0), 1.0, "saturates exactly to 1");
        assert_eq!(vmath::tanh(-30.0), -1.0, "saturates exactly to -1");
    }

    #[test]
    fn simd_activations_match_scalar_bitwise() {
        // Lengths exercise the 4-lane body and every remainder tail.
        for len in [1usize, 3, 4, 7, 16, 21] {
            let xs = seq(len, |i| (i as f64 * 0.61 - 3.0).sin() * 6.0);
            let cases: [(&str, fn(&dyn Kernels, &mut [f64])); 3] = [
                ("sigmoid", |k, v| k.sigmoid_inplace(v)),
                ("tanh", |k, v| k.tanh_inplace(v)),
                ("relu", |k, v| k.relu_inplace(v)),
            ];
            for (name, f) in cases {
                let mut s = xs.clone();
                let mut v = xs.clone();
                f(&ScalarKernels, &mut s);
                f(&SimdKernels, &mut v);
                assert_eq!(s, v, "{name} len {len}");
            }
        }
    }

    #[test]
    fn simd_lstm_gates_match_scalar_bitwise() {
        for hidden in [1usize, 4, 5, 11, 16] {
            let n = 2;
            let z = seq(n * 4 * hidden, |i| (i as f64 * 0.23 - 2.0).cos() * 3.0);
            let c_old = seq(n * hidden, |i| (i as f64 * 0.71).sin());
            let mut s_saved = vec![0.0; n * 5 * hidden];
            let mut s_out = vec![0.0; n * 2 * hidden];
            let mut v_saved = s_saved.clone();
            let mut v_out = s_out.clone();
            ScalarKernels.lstm_gates(n, hidden, &z, &c_old, &mut s_saved, &mut s_out);
            SimdKernels.lstm_gates(n, hidden, &z, &c_old, &mut v_saved, &mut v_out);
            assert_eq!(s_saved, v_saved, "saved gates, hidden {hidden}");
            assert_eq!(s_out, v_out, "out, hidden {hidden}");
        }
    }

    #[test]
    fn simd_adam_kernels_match_scalar_bitwise() {
        for len in [1usize, 3, 4, 7, 16, 33] {
            let g = seq(len, |i| (i as f64 * 0.37 - 1.0).sin() * 2.0);
            let mut sm = seq(len, |i| (i as f64 * 0.11).cos() * 0.1);
            let mut sv = seq(len, |i| (i as f64 * 0.07).sin().abs() * 0.01);
            let mut sp = seq(len, |i| i as f64 * 0.05 - 0.8);
            let (mut vm, mut vv, mut vp) = (sm.clone(), sv.clone(), sp.clone());
            ScalarKernels.adam_moments(&mut sm, &mut sv, &g, 0.9, 0.999);
            SimdKernels.adam_moments(&mut vm, &mut vv, &g, 0.9, 0.999);
            assert_eq!(sm, vm, "adam m, len {len}");
            assert_eq!(sv, vv, "adam v, len {len}");
            ScalarKernels.adam_update(&mut sp, &sm, &sv, 3e-3, 0.1, 0.001, 1e-8);
            SimdKernels.adam_update(&mut vp, &vm, &vv, 3e-3, 0.1, 0.001, 1e-8);
            assert_eq!(sp, vp, "adam p, len {len}");
        }
    }
}
