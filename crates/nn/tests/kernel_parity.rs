//! Randomized scalar-vs-SIMD backend parity for every [`Kernels`] method.
//!
//! The f64 kernels carry a bitwise contract: on any shape — including column
//! counts whose `% 8` and `% 4` remainders exercise every vector tail — the
//! SIMD backend must reproduce the scalar oracle EXACTLY (0 ULP), because
//! training trajectories must not depend on the backend. The f32 inference
//! kernels are an error-bounded fast path instead: the AVX2 forms use fused
//! multiply-adds (matmul) or evaluate transcendentals in f64 (LSTM gates), so
//! they are compared against the scalar oracle under an explicit, documented
//! ULP/forward-error budget rather than bit equality.

use proptest::prelude::*;
use wsccl_nn::kernels::{Kernels, ScalarKernels, SimdKernels};

const SCALAR: ScalarKernels = ScalarKernels;
const SIMD: SimdKernels = SimdKernels;

fn vecf(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0f64..4.0, len..=len)
}

fn vecf32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len..=len)
}

/// Random (m, k, n) with sides up to 33: covers `% 8`, `% 4`, and `% 16`
/// remainders of every blocked kernel, plus the m = 1 hot shapes.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..6, 1usize..34, 1usize..34)
}

/// ULP distance between two f32 values of the same sign regime.
fn ulp_f32(a: f32, b: f32) -> u32 {
    let (ia, ib) = (a.to_bits() as i32, b.to_bits() as i32);
    // Map the bit patterns onto a monotonic integer line (sign-magnitude →
    // two's complement) so the distance is meaningful across ±0.
    let fix = |i: i32| if i < 0 { i32::MIN - i } else { i };
    fix(ia).abs_diff(fix(ib))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---------------------------------------------------------- f64: bitwise

    #[test]
    fn matmul_acc_parity((m, k, n) in dims(), seed in any::<u16>()) {
        let s = f64::from(seed) * 1e-3;
        let a: Vec<f64> = (0..m * k).map(|i| ((i as f64 + s) * 0.37).sin()).collect();
        let b: Vec<f64> = (0..k * n).map(|i| ((i as f64 - s) * 0.11).cos()).collect();
        let mut so: Vec<f64> = (0..m * n).map(|i| i as f64 * 1e-2).collect();
        let mut vo = so.clone();
        SCALAR.matmul_acc(m, k, n, &a, &b, &mut so);
        SIMD.matmul_acc(m, k, n, &a, &b, &mut vo);
        prop_assert_eq!(so, vo);
    }

    #[test]
    fn matmul_nt_acc_parity((m, d, n) in dims(), a in vecf(6 * 34), b in vecf(34 * 34)) {
        let a = &a[..m * d];
        let b = &b[..n * d];
        let mut so = vec![0.25f64; m * n];
        let mut vo = so.clone();
        SCALAR.matmul_nt_acc(m, d, n, a, b, &mut so);
        SIMD.matmul_nt_acc(m, d, n, a, b, &mut vo);
        prop_assert_eq!(so, vo);
    }

    #[test]
    fn matmul_tn_acc_parity((k, m, n) in dims(), a in vecf(6 * 34), b in vecf(6 * 34)) {
        let a = &a[..k * m];
        let b = &b[..k * n];
        let mut so = vec![-0.5f64; m * n];
        let mut vo = so.clone();
        SCALAR.matmul_tn_acc(k, m, n, a, b, &mut so);
        SIMD.matmul_tn_acc(k, m, n, a, b, &mut vo);
        prop_assert_eq!(so, vo);
    }

    /// The k-inner tiled `matmul_tn_acc`: odd output heights, widths
    /// through every 32/16/4-column block and tail, and exact zeros (both
    /// signs) in `a` so the per-element zero skip runs.
    #[test]
    fn matmul_tn_acc_tiled_parity(
        k in 1usize..=24,
        half_m in 0usize..21,
        (q, tail) in (0usize..9, 0usize..16),
        a in vecf(24 * 41),
        zeros in proptest::collection::vec(0u8..10, 24 * 41),
        b in vecf(24 * 143),
    ) {
        let m = 2 * half_m + 1;
        let n = (16 * q + tail).max(1);
        let a: Vec<f64> = a[..k * m]
            .iter()
            .zip(&zeros)
            .enumerate()
            .map(|(i, (&v, &z))| if z >= 3 { v } else if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        // A few infinities in `b`: a skipped zero leaves the output alone,
        // while a multiplied one would turn it into NaN.
        let b: Vec<f64> =
            b[..k * n].iter().enumerate().map(|(i, &v)| if i % 37 == 5 { f64::INFINITY } else { v }).collect();
        let mut so: Vec<f64> = (0..m * n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut vo = so.clone();
        SCALAR.matmul_tn_acc(k, m, n, &a, &b, &mut so);
        SIMD.matmul_tn_acc(k, m, n, &a, &b, &mut vo);
        prop_assert_eq!(so.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        vo.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    /// `matmul_acc` at widths of 32 and up, where the 32-column,
    /// 8-accumulator block runs, followed by every narrower tail.
    #[test]
    fn matmul_acc_wide_parity(
        (m, k) in (1usize..6, 1usize..34),
        n in 32usize..=160,
        a in vecf(5 * 33),
        zeros in proptest::collection::vec(0u8..10, 5 * 33),
        b in vecf(33 * 160),
    ) {
        let a: Vec<f64> =
            a[..m * k].iter().zip(&zeros).map(|(&v, &z)| if z < 3 { 0.0 } else { v }).collect();
        let b: Vec<f64> = b[..k * n]
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 37 == 5 { f64::INFINITY } else { v })
            .collect();
        let mut so: Vec<f64> = (0..m * n).map(|i| (i as f64 * 0.07).cos()).collect();
        let mut vo = so.clone();
        SCALAR.matmul_acc(m, k, n, &a, &b, &mut so);
        SIMD.matmul_acc(m, k, n, &a, &b, &mut vo);
        prop_assert_eq!(so.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        vo.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn elementwise_parity(len in 1usize..70, a in vecf(70), b in vecf(70), c in -3.0f64..3.0) {
        let (a, b) = (&a[..len], &b[..len]);
        let run = |kn: &dyn Kernels| {
            let mut out = vec![0.0; len];
            kn.add_into(a, b, &mut out);
            let mut acc = out.clone();
            kn.sub_into(a, b, &mut out);
            kn.add_assign(&mut acc, &out);
            kn.mul_into(a, b, &mut out);
            kn.mul_assign(&mut acc, &out);
            kn.scale_assign(&mut acc, c);
            kn.axpy(&mut acc, c, a);
            kn.add_prod(&mut acc, a, b);
            acc
        };
        prop_assert_eq!(run(&SCALAR), run(&SIMD));
    }

    #[test]
    fn dot_parity(len in 1usize..70, a in vecf(70), b in vecf(70)) {
        prop_assert_eq!(
            SCALAR.dot(&a[..len], &b[..len]).to_bits(),
            SIMD.dot(&a[..len], &b[..len]).to_bits()
        );
    }

    #[test]
    fn row_ops_parity((n, d) in (1usize..6, 1usize..34), rows in vecf(6 * 34), row in vecf(34)) {
        let rows = &rows[..n * d];
        let row = &row[..d];
        let run = |kn: &dyn Kernels| {
            let mut dst = rows.to_vec();
            kn.add_row_assign(n, d, &mut dst, row);
            let mut acc = row.to_vec();
            kn.add_rows_acc(n, d, rows, &mut acc);
            (dst, acc)
        };
        prop_assert_eq!(run(&SCALAR), run(&SIMD));
    }

    #[test]
    fn activations_parity(len in 1usize..70, xs in vecf(70)) {
        let fns: [fn(&dyn Kernels, &mut [f64]); 3] = [
            |k, v| k.sigmoid_inplace(v),
            |k, v| k.tanh_inplace(v),
            |k, v| k.relu_inplace(v),
        ];
        for f in fns {
            let mut s = xs[..len].to_vec();
            let mut v = s.clone();
            f(&SCALAR, &mut s);
            f(&SIMD, &mut v);
            prop_assert_eq!(s, v);
        }
    }

    #[test]
    fn adam_parity(len in 1usize..70, g in vecf(70), m0 in vecf(70), v0 in vecf(70), p0 in vecf(70)) {
        let run = |kn: &dyn Kernels| {
            let mut m = m0[..len].to_vec();
            let mut v: Vec<f64> = v0[..len].iter().map(|x| x.abs() * 1e-2).collect();
            let mut p = p0[..len].to_vec();
            kn.adam_moments(&mut m, &mut v, &g[..len], 0.9, 0.999);
            kn.adam_update(&mut p, &m, &v, 3e-3, 0.1, 1e-3, 1e-8);
            (m, v, p)
        };
        prop_assert_eq!(run(&SCALAR), run(&SIMD));
    }

    #[test]
    fn lstm_gates_parity((n, hidden) in (1usize..4, 1usize..20), z in vecf(3 * 19 * 4), c in vecf(3 * 19)) {
        let z = &z[..n * 4 * hidden];
        let c_old = &c[..n * hidden];
        let run = |kn: &dyn Kernels| {
            let mut saved = vec![0.0; n * 5 * hidden];
            let mut out = vec![0.0; n * 2 * hidden];
            kn.lstm_gates(n, hidden, z, c_old, &mut saved, &mut out);
            (saved, out)
        };
        let (s_saved, s_out) = run(&SCALAR);
        let (v_saved, v_out) = run(&SIMD);
        prop_assert_eq!(&s_saved, &v_saved);
        prop_assert_eq!(&s_out, &v_out);

        // Backward through the same saved gates with a random-ish adjoint.
        let adj: Vec<f64> = s_out.iter().map(|x| (x * 7.3).sin()).collect();
        let run_bwd = |kn: &dyn Kernels| {
            let mut dz = vec![0.0; n * 4 * hidden];
            let mut dc = vec![0.0; n * hidden];
            kn.lstm_gates_backward(n, hidden, &s_saved, &adj, c_old, &mut dz, &mut dc);
            (dz, dc)
        };
        prop_assert_eq!(run_bwd(&SCALAR), run_bwd(&SIMD));
    }

    // ------------------------------------------------- f32: ULP/error budget

    /// Budget: the AVX2 form fuses each `acc += a·b` step (one rounding where
    /// the scalar oracle has two), so per output element the difference is
    /// bounded by the classic forward-error envelope
    /// `(k + 2) · ε_f32 · (|out₀| + Σ|aᵢ·bᵢ|)`.
    #[test]
    fn matmul_f32_error_budget((m, k, n) in dims(), a in vecf32(6 * 34), b in vecf32(34 * 34)) {
        let a = &a[..m * k];
        let b = &b[..k * n];
        let mut so = vec![0.1f32; m * n];
        let mut vo = so.clone();
        SCALAR.matmul_acc_f32(m, k, n, a, b, &mut so);
        SIMD.matmul_acc_f32(m, k, n, a, b, &mut vo);
        for i in 0..m {
            for j in 0..n {
                let mag: f32 =
                    0.1 + (0..k).map(|kk| (a[i * k + kk] * b[kk * n + j]).abs()).sum::<f32>();
                let budget = (k as f32 + 2.0) * f32::EPSILON * mag;
                let (s, v) = (so[i * n + j], vo[i * n + j]);
                prop_assert!(
                    (s - v).abs() <= budget,
                    "out[{i},{j}]: scalar {s}, simd {v}, budget {budget}"
                );
            }
        }
    }

    /// Elementwise f32 kernels perform the identical per-element operation in
    /// both backends (no reductions, no FMA), so they stay bitwise equal.
    #[test]
    fn elementwise_f32_parity(len in 1usize..70, a in vecf32(70), b in vecf32(70), c in -3.0f32..3.0) {
        let run = |kn: &dyn Kernels| {
            let mut dst = a[..len].to_vec();
            kn.add_assign_f32(&mut dst, &b[..len]);
            kn.scale_assign_f32(&mut dst, c);
            dst
        };
        prop_assert_eq!(run(&SCALAR), run(&SIMD));
    }

    /// Budget: the scalar oracle evaluates the gates with f32 libm while the
    /// AVX2 form widens to f64, runs the shared `vmath` pipeline, and rounds
    /// once — each gate differs by ≲2 f32 ULP. `c_new = f·c + i·g` can
    /// cancel, so its error is bounded against the PRE-cancellation magnitude
    /// `|f·c| + |i·g| ≤ |c₀| + 1` (gates are bounded by 1), and `h` inherits
    /// that through the 1-Lipschitz `tanh` times `o < 1`. Either 16 ULP or
    /// that forward envelope must hold — both far inside the ~1e-4-relative
    /// drift budget of the whole inference path.
    #[test]
    fn lstm_infer_f32_ulp(hidden in 1usize..20, z in vecf32(4 * 19), c0 in vecf32(19)) {
        let z = &z[..4 * hidden];
        let run = |kn: &dyn Kernels| {
            let mut c = c0[..hidden].to_vec();
            let mut h = vec![0.0f32; hidden];
            kn.lstm_gates_infer_f32(hidden, z, &mut c, &mut h);
            (c, h)
        };
        let (sc, sh) = run(&SCALAR);
        let (vc, vh) = run(&SIMD);
        for k in 0..hidden {
            let envelope = 8.0 * f32::EPSILON * (c0[k].abs() + 1.0);
            let cd = (sc[k] - vc[k]).abs();
            prop_assert!(
                ulp_f32(sc[k], vc[k]) <= 16 || cd <= envelope,
                "c[{k}]: scalar {}, simd {}, envelope {envelope}",
                sc[k],
                vc[k]
            );
            let hd = (sh[k] - vh[k]).abs();
            prop_assert!(
                ulp_f32(sh[k], vh[k]) <= 16 || hd <= envelope + 8.0 * f32::EPSILON,
                "h[{k}]: scalar {}, simd {}, envelope {envelope}",
                sh[k],
                vh[k]
            );
        }
    }
}
