//! Finite-difference verification of every autodiff op and layer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsccl_nn::gradcheck::assert_gradients_close;
use wsccl_nn::layers::{Embedding, Gru, Linear, Lstm, SelfAttention};
use wsccl_nn::{Activation, Graph, Parameters, Tensor, TensorPool};

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-5;

fn rng() -> StdRng {
    StdRng::seed_from_u64(42)
}

fn rand_tensor(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
    wsccl_nn::init::uniform(rng, r, c, -1.0, 1.0)
}

#[test]
fn matmul_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 2, 3));
    let b = p.register("b", rand_tensor(&mut rng, 3, 4));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let c = g.matmul(an, bn);
            let l = g.sum_all(c);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn matmul_nt_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 2, 3));
    let b = p.register("b", rand_tensor(&mut rng, 4, 3));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let c = g.matmul_nt(an, bn);
            // Square to make the loss nonlinear in each factor.
            let sq = g.mul(c, c);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn elementwise_ops_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 3, 3));
    let b = p.register("b", rand_tensor(&mut rng, 3, 3));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let s = g.add(an, bn);
            let d = g.sub(s, bn);
            let m = g.mul(d, bn);
            let sc = g.scale(m, 0.7);
            let l = g.sum_all(sc);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn activations_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 2, 4));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let s = g.sigmoid(an);
            let t = g.tanh(s);
            let l = g.sum_all(t);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn relu_grad_away_from_kink() {
    let mut p = Parameters::new();
    // Keep values away from 0 so finite differences are valid.
    let a = p.register("a", Tensor::from_vec(1, 4, vec![0.5, -0.5, 1.5, -2.0]));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let r = g.relu(an);
            let sq = g.mul(r, r);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn ln_grad() {
    let mut p = Parameters::new();
    let a = p.register("a", Tensor::from_vec(1, 3, vec![0.5, 1.5, 2.5]));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let l0 = g.ln(an);
            let l = g.sum_all(l0);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn add_row_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 3, 4));
    let r = p.register("r", rand_tensor(&mut rng, 1, 4));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let rn = g.param(r);
            let s = g.add_row(an, rn);
            let sq = g.mul(s, s);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn slice_concat_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 2, 6));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let left = g.slice_cols(an, 0, 3);
            let right = g.slice_cols(an, 3, 6);
            let m = g.mul(left, right);
            let back = g.concat_cols(&[m, left]);
            let l = g.sum_all(back);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn concat_rows_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 2, 3));
    let b = p.register("b", rand_tensor(&mut rng, 1, 3));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let s = g.concat_rows(&[an, bn, an]);
            let sq = g.mul(s, s);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn mean_rows_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 4, 3));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let m = g.mean_rows(an);
            let sq = g.mul(m, m);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn softmax_rows_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 3, 4));
    let w = p.register("w", rand_tensor(&mut rng, 3, 4));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let wn = g.param(w);
            let s = g.softmax_rows(an);
            let m = g.mul(s, wn);
            let l = g.sum_all(m);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn cos_sim_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 1, 5));
    let b = p.register("b", rand_tensor(&mut rng, 1, 5));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let c = g.cos_sim(an, bn);
            g.finish(c)
        },
        EPS,
        TOL,
    );
}

#[test]
fn dot_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 1, 5));
    let b = p.register("b", rand_tensor(&mut rng, 1, 5));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let d = g.dot(an, bn);
            let sq = g.mul(d, d);
            g.finish(sq)
        },
        EPS,
        TOL,
    );
}

#[test]
fn log_sum_exp_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 1, 1));
    let b = p.register("b", rand_tensor(&mut rng, 1, 1));
    let c = p.register("c", rand_tensor(&mut rng, 1, 1));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let cn = g.param(c);
            let l = g.log_sum_exp(&[an, bn, cn]);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn cross_entropy_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("logits", rand_tensor(&mut rng, 1, 5));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let l = g.cross_entropy(an, 2);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn embedding_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let emb = Embedding::new(&mut p, &mut rng, "e", 5, 3);
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let e = emb.forward(&mut g, &[0, 2, 2, 4]);
            let sq = g.mul(e, e);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn linear_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let lin = Linear::new(&mut p, &mut rng, "l", 3, 2);
    let x = rand_tensor(&mut rng, 4, 3);
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let xn = g.input(x.clone());
            let y = lin.forward(&mut g, xn);
            let t = g.tanh(y);
            let l = g.sum_all(t);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn lstm_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let lstm = Lstm::new(&mut p, &mut rng, "lstm", 2, 3, 2);
    let xs: Vec<Tensor> = (0..3).map(|_| rand_tensor(&mut rng, 1, 2)).collect();
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let nodes: Vec<_> = xs.iter().map(|x| g.input(x.clone())).collect();
            let h = lstm.forward_last(&mut g, &nodes);
            let sq = g.mul(h, h);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn gru_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let gru = Gru::new(&mut p, &mut rng, "gru", 2, 3);
    let xs: Vec<Tensor> = (0..3).map(|_| rand_tensor(&mut rng, 1, 2)).collect();
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let nodes: Vec<_> = xs.iter().map(|x| g.input(x.clone())).collect();
            let h = gru.forward_last(&mut g, &nodes);
            let sq = g.mul(h, h);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn attention_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let attn = SelfAttention::new(&mut p, &mut rng, "a", 3);
    let x = rand_tensor(&mut rng, 4, 3);
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let xn = g.input(x.clone());
            let y = attn.forward(&mut g, xn);
            let sq = g.mul(y, y);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

/// A composite resembling the actual WSCCL loss: mean over cosine-similarity
/// log-ratios of LSTM-encoded sequences.
#[test]
fn contrastive_composite_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let lstm = Lstm::new(&mut p, &mut rng, "lstm", 2, 3, 1);
    let seqs: Vec<Vec<Tensor>> =
        (0..3).map(|_| (0..2).map(|_| rand_tensor(&mut rng, 1, 2)).collect()).collect();
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let reprs: Vec<_> = seqs
                .iter()
                .map(|seq| {
                    let nodes: Vec<_> = seq.iter().map(|x| g.input(x.clone())).collect();
                    let hs = lstm.forward(&mut g, &nodes);
                    let stacked = g.concat_rows(&hs);
                    g.mean_rows(stacked)
                })
                .collect();
            let pos = g.cos_sim(reprs[0], reprs[1]);
            let neg = g.cos_sim(reprs[0], reprs[2]);
            let lse = g.log_sum_exp(&[neg]);
            let obj = g.sub(pos, lse);
            let loss = g.scale(obj, -1.0);
            g.finish(loss)
        },
        EPS,
        TOL,
    );
}

#[test]
fn layer_norm_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 3, 5));
    let w = p.register("w", rand_tensor(&mut rng, 3, 5));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let wn = g.param(w);
            let ln = g.layer_norm_rows(an, 1e-5);
            let m = g.mul(ln, wn);
            let l = g.sum_all(m);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

#[test]
fn affine_grad_all_activations() {
    for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
        let mut rng = rng();
        let mut p = Parameters::new();
        let w = p.register("w", rand_tensor(&mut rng, 3, 2));
        let b = p.register("b", rand_tensor(&mut rng, 1, 2));
        let x = p.register("x", rand_tensor(&mut rng, 4, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let xn = g.param(x);
                let y = g.affine(xn, w, Some(b), act);
                let sq = g.mul(y, y);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }
}

#[test]
fn affine_grad_without_bias() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let w = p.register("w", rand_tensor(&mut rng, 3, 2));
    let x = p.register("x", rand_tensor(&mut rng, 4, 3));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let xn = g.param(x);
            let y = g.affine(xn, w, None, Activation::Tanh);
            let l = g.sum_all(y);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

/// The fused LSTM sequence op through `Lstm::forward`: `len` steps of
/// `rows`-row inputs, with the loss squaring the outputs of the first
/// `reached` steps. Inputs are parameter rows, so their adjoints are checked
/// too.
fn check_lstm_seq(len: usize, layers: usize, rows: usize, reached: usize) {
    let (in_dim, hidden) = (2, 3);
    let mut rng = rng();
    let mut p = Parameters::new();
    let lstm = Lstm::new(&mut p, &mut rng, "lstm", in_dim, hidden, layers);
    let x = p.register("x", rand_tensor(&mut rng, len * rows, in_dim));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let xs: Vec<_> = (0..len)
                .map(|t| g.embed_lookup(x, &(t * rows..(t + 1) * rows).collect::<Vec<_>>()))
                .collect();
            let hs = lstm.forward(&mut g, &xs);
            let stacked = g.concat_rows(&hs[..reached]);
            let sq = g.mul(stacked, stacked);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

/// Every output in the loss: each step's adjoint combines its own external
/// term with the recurrent (dh, dc) flow from the step after it.
#[test]
fn lstm_seq_grad() {
    for layers in [1, 2] {
        for len in [1, 2, 5] {
            check_lstm_seq(len, layers, 1, len);
        }
    }
    check_lstm_seq(5, 2, 2, 5);
}

/// Only a leading prefix in the loss: the trailing steps get no adjoint and
/// the earlier ones are reached through the recurrence alone.
#[test]
fn lstm_seq_prefix_grad() {
    for layers in [1, 2] {
        check_lstm_seq(2, layers, 1, 1);
        check_lstm_seq(5, layers, 1, 2);
    }
}

/// One input node fed to every step: its adjoint collects all steps' terms.
#[test]
fn lstm_seq_repeated_input_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let lstm = Lstm::new(&mut p, &mut rng, "lstm", 2, 3, 2);
    let x = p.register("x", rand_tensor(&mut rng, 1, 2));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let xn = g.param(x);
            let hs = lstm.forward(&mut g, &[xn, xn, xn, xn]);
            let stacked = g.concat_rows(&hs);
            let sq = g.mul(stacked, stacked);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

/// In-place variants must be gradient-identical to their allocating forms,
/// both when the steal succeeds (fresh single-consumer operands) and when it
/// falls back (operand op whose backward reads its own output).
#[test]
fn inplace_elementwise_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 3, 4));
    let b = p.register("b", rand_tensor(&mut rng, 3, 4));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let bn = g.param(b);
            let s = g.add(an, bn);
            let sc = g.scale_inplace(s, 0.7); // steals s (Add)
            let t = g.tanh(sc);
            let d = g.sub_inplace(t, bn); // falls back: Tanh reads own value
            let e = g.add_inplace(d, an); // steals d (Sub)
            let l = g.sum_all(e);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}

/// The pooled tape must produce the same gradients as the fresh-alloc tape —
/// run the same gradcheck through a dirtied pool.
#[test]
fn pooled_graph_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let w = p.register("w", rand_tensor(&mut rng, 3, 2));
    let b = p.register("b", rand_tensor(&mut rng, 1, 2));
    let x = p.register("x", rand_tensor(&mut rng, 4, 3));
    let mut pool = TensorPool::new();
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new_in(p, &mut pool);
            let xn = g.param(x);
            let y = g.affine(xn, w, Some(b), Activation::Sigmoid);
            let sq = g.mul(y, y);
            let l = g.sum_all(sq);
            g.finish(l)
        },
        EPS,
        TOL,
    );
    assert!(pool.stats().reuses > 0, "pool was never reused across gradcheck evaluations");
}

/// Completeness sweep: every [`OpKind`] the tape can record must map to a
/// registered finite-difference check, so adding a new op without a gradcheck
/// fails this test rather than silently shipping an unverified backward.
mod sweep {
    use super::*;
    use wsccl_nn::OpKind;

    /// Param, Mul, SumAll.
    fn params_square() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 2, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let sq = g.mul(an, an);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// Input (constant operand mixed into a param-dependent loss).
    fn input_times_param() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 2, 3));
        let x = rand_tensor(&mut rng, 2, 3);
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let xn = g.input(x.clone());
                let m = g.mul(an, xn);
                let l = g.sum_all(m);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// MatMul.
    fn matmul() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 2, 3));
        let b = p.register("b", rand_tensor(&mut rng, 3, 4));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, bn) = (g.param(a), g.param(b));
                let c = g.matmul(an, bn);
                let l = g.sum_all(c);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// MatMulNt.
    fn matmul_nt() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 2, 3));
        let b = p.register("b", rand_tensor(&mut rng, 4, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, bn) = (g.param(a), g.param(b));
                let c = g.matmul_nt(an, bn);
                let sq = g.mul(c, c);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// Add, Sub, Scale.
    fn elementwise() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 3, 3));
        let b = p.register("b", rand_tensor(&mut rng, 3, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, bn) = (g.param(a), g.param(b));
                let s = g.add(an, bn);
                let d = g.sub(s, bn);
                let sc = g.scale(d, 0.7);
                let m = g.mul(sc, bn);
                let l = g.sum_all(m);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// AddRow.
    fn add_row() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 3, 4));
        let r = p.register("r", rand_tensor(&mut rng, 1, 4));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, rn) = (g.param(a), g.param(r));
                let s = g.add_row(an, rn);
                let sq = g.mul(s, s);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// Sigmoid, Tanh.
    fn activations() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 2, 4));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let s = g.sigmoid(an);
                let t = g.tanh(s);
                let l = g.sum_all(t);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// Relu, at points away from the kink.
    fn relu() {
        let mut p = Parameters::new();
        let a = p.register("a", Tensor::from_vec(1, 4, vec![0.5, -0.5, 1.5, -2.0]));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let r = g.relu(an);
                let sq = g.mul(r, r);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// Ln, on strictly positive values.
    fn ln() {
        let mut p = Parameters::new();
        let a = p.register("a", Tensor::from_vec(1, 3, vec![0.5, 1.5, 2.5]));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let l0 = g.ln(an);
                let l = g.sum_all(l0);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// SliceCols, ConcatCols.
    fn slice_concat_cols() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 2, 6));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let left = g.slice_cols(an, 0, 3);
                let right = g.slice_cols(an, 3, 6);
                let m = g.mul(left, right);
                let back = g.concat_cols(&[m, left]);
                let l = g.sum_all(back);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// SliceRows, ConcatRows (with overlapping slices).
    fn slice_concat_rows() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 5, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let top = g.slice_rows(an, 0, 2);
                let mid = g.slice_rows(an, 1, 4);
                let tail = g.slice_rows(an, 3, 4);
                let joined = g.concat_rows(&[top, tail]);
                let prod = g.mul(mid, joined);
                let l = g.sum_all(prod);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// MeanRows.
    fn mean_rows() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 4, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let m = g.mean_rows(an);
                let sq = g.mul(m, m);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// SoftmaxRows.
    fn softmax() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 3, 4));
        let w = p.register("w", rand_tensor(&mut rng, 3, 4));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, wn) = (g.param(a), g.param(w));
                let s = g.softmax_rows(an);
                let m = g.mul(s, wn);
                let l = g.sum_all(m);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// CosSim.
    fn cos_sim() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 1, 5));
        let b = p.register("b", rand_tensor(&mut rng, 1, 5));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, bn) = (g.param(a), g.param(b));
                let c = g.cos_sim(an, bn);
                g.finish(c)
            },
            EPS,
            TOL,
        );
    }

    /// Dot.
    fn dot() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 1, 5));
        let b = p.register("b", rand_tensor(&mut rng, 1, 5));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, bn) = (g.param(a), g.param(b));
                let d = g.dot(an, bn);
                let sq = g.mul(d, d);
                g.finish(sq)
            },
            EPS,
            TOL,
        );
    }

    /// LogSumExp.
    fn log_sum_exp() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 1, 1));
        let b = p.register("b", rand_tensor(&mut rng, 1, 1));
        let c = p.register("c", rand_tensor(&mut rng, 1, 1));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, bn, cn) = (g.param(a), g.param(b), g.param(c));
                let l = g.log_sum_exp(&[an, bn, cn]);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// CrossEntropy.
    fn cross_entropy() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("logits", rand_tensor(&mut rng, 1, 5));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let an = g.param(a);
                let l = g.cross_entropy(an, 2);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// EmbedLookup, with a repeated index so gradients accumulate per row.
    fn embed_lookup() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let table = p.register("table", rand_tensor(&mut rng, 5, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let e = g.embed_lookup(table, &[0, 2, 2, 4]);
                let sq = g.mul(e, e);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// GatherRow: fused const/table-row gather, with one row spliced in twice
    /// so its gradient must accumulate.
    fn gather_row() {
        use wsccl_nn::GatherPart;
        let mut rng = rng();
        let mut p = Parameters::new();
        let t1 = p.register("t1", rand_tensor(&mut rng, 4, 3));
        let t2 = p.register("t2", rand_tensor(&mut rng, 2, 2));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let konst = [0.3, -0.7];
                let x = g.gather_concat_row(&[
                    GatherPart::Row(t1, 2),
                    GatherPart::Const(&konst),
                    GatherPart::Row(t2, 0),
                    GatherPart::Row(t1, 2),
                ]);
                let sq = g.mul(x, x);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// LayerNormRows.
    fn layer_norm() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let a = p.register("a", rand_tensor(&mut rng, 3, 5));
        let w = p.register("w", rand_tensor(&mut rng, 3, 5));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let (an, wn) = (g.param(a), g.param(w));
                let ln = g.layer_norm_rows(an, 1e-5);
                let m = g.mul(ln, wn);
                let l = g.sum_all(m);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// Affine (fused matmul + bias + activation).
    fn affine() {
        let mut rng = rng();
        let mut p = Parameters::new();
        let w = p.register("w", rand_tensor(&mut rng, 3, 2));
        let b = p.register("b", rand_tensor(&mut rng, 1, 2));
        let x = p.register("x", rand_tensor(&mut rng, 4, 3));
        assert_gradients_close(
            &mut p,
            |p| {
                let mut g = Graph::new(p);
                let xn = g.param(x);
                let y = g.affine(xn, w, Some(b), Activation::Tanh);
                let sq = g.mul(y, y);
                let l = g.sum_all(sq);
                g.finish(l)
            },
            EPS,
            TOL,
        );
    }

    /// LstmCell, LstmOut (fused two-layer sequence, every output in the loss).
    fn lstm_seq() {
        check_lstm_seq(5, 2, 1, 5);
    }

    /// The registry: every tape op kind → the check that exercises it. A
    /// check may cover several kinds, but every kind must appear.
    fn registry() -> Vec<(OpKind, fn())> {
        vec![
            (OpKind::Input, input_times_param),
            (OpKind::Param, params_square),
            (OpKind::MatMul, matmul),
            (OpKind::MatMulNt, matmul_nt),
            (OpKind::Add, elementwise),
            (OpKind::AddRow, add_row),
            (OpKind::Sub, elementwise),
            (OpKind::Mul, params_square),
            (OpKind::Scale, elementwise),
            (OpKind::Sigmoid, activations),
            (OpKind::Tanh, activations),
            (OpKind::Relu, relu),
            (OpKind::SliceCols, slice_concat_cols),
            (OpKind::ConcatCols, slice_concat_cols),
            (OpKind::ConcatRows, slice_concat_rows),
            (OpKind::MeanRows, mean_rows),
            (OpKind::SumAll, params_square),
            (OpKind::SoftmaxRows, softmax),
            (OpKind::CosSim, cos_sim),
            (OpKind::Dot, dot),
            (OpKind::LogSumExp, log_sum_exp),
            (OpKind::CrossEntropy, cross_entropy),
            (OpKind::EmbedLookup, embed_lookup),
            (OpKind::GatherRow, gather_row),
            (OpKind::Ln, ln),
            (OpKind::LayerNormRows, layer_norm),
            (OpKind::SliceRows, slice_concat_rows),
            (OpKind::Affine, affine),
            (OpKind::LstmCell, lstm_seq),
            (OpKind::LstmOut, lstm_seq),
        ]
    }

    #[test]
    fn every_op_kind_has_a_registered_gradcheck() {
        let checks = registry();
        let missing: Vec<&str> = OpKind::ALL
            .iter()
            .filter(|kind| !checks.iter().any(|(k, _)| k == *kind))
            .map(|kind| kind.name())
            .collect();
        assert!(
            missing.is_empty(),
            "op kinds without a finite-difference gradcheck: {missing:?} — \
             register one in sweep::registry()"
        );
        // Run each distinct check once per kernel backend: the finite
        // differences must validate the scalar oracle AND the SIMD kernels.
        let mut fns: Vec<fn()> = checks.iter().map(|&(_, f)| f).collect();
        fns.sort_by_key(|f| *f as usize);
        fns.dedup_by_key(|f| *f as usize);
        use wsccl_nn::kernels::{self, KernelBackend};
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            let _forced = kernels::force(backend);
            for f in &fns {
                f();
            }
        }
    }
}

#[test]
fn slice_rows_grad() {
    let mut rng = rng();
    let mut p = Parameters::new();
    let a = p.register("a", rand_tensor(&mut rng, 5, 3));
    assert_gradients_close(
        &mut p,
        |p| {
            let mut g = Graph::new(p);
            let an = g.param(a);
            let top = g.slice_rows(an, 0, 2);
            let mid = g.slice_rows(an, 1, 4);
            let top2 = g.slice_rows(an, 3, 4);
            let joined = g.concat_rows(&[top, top2]);
            let prod = g.mul(mid, joined);
            let l = g.sum_all(prod);
            g.finish(l)
        },
        EPS,
        TOL,
    );
}
