//! Bit-level guards on the LSTM layer.
//!
//! The digests below pin every bit of what `Lstm::forward` computes and what
//! its backward writes: the per-step outputs, the loss, every parameter
//! gradient and the adjoint of every input node. They cover sequence lengths
//! 1..=22 (the range of path lengths the encoder sees), one and two layers,
//! and hidden widths 32 and 5 (the four-lane SIMD body and its scalar
//! tails). Three losses reach the outputs differently: through every step,
//! through the last step only, and through a leading prefix only, so that
//! the trailing steps receive no adjoint at all.
//!
//! A change to the LSTM's tape ops or kernels must keep the same arithmetic
//! in the same order, so these values must never move under either kernel
//! backend; a change that moves them changes every trained model downstream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsccl_nn::layers::Lstm;
use wsccl_nn::{Graph, NodeId, Parameters, Tensor, TensorPool};

/// FNV-1a over the little-endian bits of every value.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Stands in for a missing gradient, so "no adjoint" and "zero adjoint"
/// digest differently.
const NO_GRAD: f64 = f64::MIN_POSITIVE;

/// Input width: odd, so the input-side kernels run their tails too.
const IN_DIM: usize = 7;
const MAX_LEN: usize = 22;

#[derive(Clone, Copy, Debug)]
enum Loss {
    /// Weighted sum over every step's output.
    All,
    /// The last step's output only.
    Last,
    /// The first `ceil(len / 2)` steps only: trailing steps get no adjoint.
    Prefix,
}

/// Deterministic values in (-1, 1) with exact zeros sprinkled in, so the
/// matmul kernels' zero-skip paths run.
fn values(seed: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if (i + seed) % 5 == 0 { 0.0 } else { ((i * 7 + seed * 13) as f64 * 0.29).sin() })
        .collect()
}

/// Run one forward + backward and return every value the digest covers.
fn run(
    lstm: &Lstm,
    params: &Parameters,
    x: wsccl_nn::ParamId,
    rows: usize,
    len: usize,
    loss: Loss,
    pool: Option<&mut TensorPool>,
) -> Vec<f64> {
    let hidden = lstm.hidden();
    let mut g = match pool {
        Some(p) => Graph::new_in(params, p),
        None => Graph::new(params),
    };
    let xs: Vec<NodeId> = (0..len)
        .map(|t| g.embed_lookup(x, &((t * rows)..((t + 1) * rows)).collect::<Vec<_>>()))
        .collect();
    let hs = lstm.forward(&mut g, &xs);
    assert_eq!(hs.len(), len);
    let reached = match loss {
        Loss::All => 0..len,
        Loss::Last => len - 1..len,
        Loss::Prefix => 0..len.div_ceil(2),
    };
    let terms: Vec<NodeId> = reached
        .map(|t| {
            let w = g.input(Tensor::from_vec(rows, hidden, values(t + 3, rows * hidden)));
            g.dot(hs[t], w)
        })
        .collect();
    let stacked = g.concat_rows(&terms);
    let l = g.sum_all(stacked);

    let mut out: Vec<f64> = hs.iter().flat_map(|&h| g.value(h).data().to_vec()).collect();
    out.push(g.value(l).item());
    g.backward(l);
    for id in params.ids() {
        match g.grads().grad(id) {
            Some(t) => out.extend_from_slice(t.data()),
            None => out.push(NO_GRAD),
        }
    }
    for &xn in &xs {
        match g.node_grad(xn) {
            Some(t) => out.extend_from_slice(t.data()),
            None => out.push(NO_GRAD),
        }
    }
    out
}

/// Digest of every length 1..=22 for one architecture and loss, computed on
/// a fresh tape and checked against a tape drawing from a dirtied pool.
fn case_digest(layers: usize, hidden: usize, rows: usize, loss: Loss) -> u64 {
    let mut rng = StdRng::seed_from_u64(17 + layers as u64 * 31 + hidden as u64);
    let mut params = Parameters::new();
    let lstm = Lstm::new(&mut params, &mut rng, "lstm", IN_DIM, hidden, layers);
    let x = params.register(
        "x",
        Tensor::from_vec(MAX_LEN * rows, IN_DIM, values(1, MAX_LEN * rows * IN_DIM)),
    );
    let mut pool = TensorPool::new();
    let mut all = Vec::new();
    for len in 1..=MAX_LEN {
        let fresh = run(&lstm, &params, x, rows, len, loss, None);
        let pooled = run(&lstm, &params, x, rows, len, loss, Some(&mut pool));
        assert!(
            fresh.iter().zip(&pooled).all(|(a, b)| a.to_bits() == b.to_bits())
                && fresh.len() == pooled.len(),
            "pooled tape diverged from a fresh tape at len {len} ({layers} layers, hidden {hidden}, {loss:?})"
        );
        all.extend(fresh);
    }
    digest(all)
}

fn check(layers: usize, hidden: usize, rows: usize, expected: [u64; 3]) {
    for (loss, want) in [Loss::All, Loss::Last, Loss::Prefix].into_iter().zip(expected) {
        let got = case_digest(layers, hidden, rows, loss);
        assert_eq!(
            got, want,
            "LSTM bits moved: {layers} layers, hidden {hidden}, {rows} rows, {loss:?} loss \
             (digest {got:#018x})"
        );
    }
}

#[test]
fn one_layer_hidden_32_bits_are_pinned() {
    check(1, 32, 1, [0xbf66907c78df8599, 0x09935efd917a5af9, 0x8b03061ee8017aa8]);
}

#[test]
fn one_layer_hidden_5_bits_are_pinned() {
    check(1, 5, 1, [0xf201649c94ff29a7, 0x74a4dd98fe8a8b77, 0xbe6afddfd1bf0160]);
}

#[test]
fn two_layer_hidden_32_bits_are_pinned() {
    check(2, 32, 1, [0x7b4d03290aabc82c, 0x3a071cf5aa914717, 0x150345cb07b9764b]);
}

#[test]
fn two_layer_hidden_5_bits_are_pinned() {
    check(2, 5, 1, [0x8f303219b4d0925e, 0x3169293c45a1d373, 0xd4ea43d269005de6]);
}

/// Timestep nodes may carry several rows (independent sequences in lockstep).
#[test]
fn multi_row_steps_bits_are_pinned() {
    check(2, 5, 3, [0x0a0763844552c8ae, 0x0b457dbffb76be77, 0xb507f43aeb953eee]);
}
