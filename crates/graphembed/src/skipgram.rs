//! Skip-gram with negative sampling (SGNS) over walk corpora.
//!
//! Gradients are closed-form, so this trains with hand-rolled SGD rather than
//! the autodiff stack — word2vec-style.
//!
//! Both tables are flat row-major `vocab × dim` buffers. The trained tables
//! are a pure function of the seed because every update keeps one order
//! (DESIGN.md §8.2): each dot product is a sequential left-to-right sum, each
//! update is `lr * g * x` evaluated left to right, and a pair applies its
//! positive term, then its negatives in draw order, then the `w_in` update.

use rand::rngs::StdRng;
use rand::RngExt;

/// SGNS model state: input ("in") and output ("out") embedding tables.
pub struct SkipGram {
    vocab: usize,
    dim: usize,
    w_in: Vec<f64>,
    w_out: Vec<f64>,
    /// The current pair's `w_in` gradient, reused across pairs.
    grad_in: Vec<f64>,
    /// The current pair's output rows: the context, then the kept negatives
    /// in draw order.
    rows: Vec<usize>,
    /// `σ(center · out)` of each entry of `rows` before the pair's updates.
    sig: Vec<f64>,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Cosine similarity of two vectors; 0 when either is (near) zero.
pub(crate) fn cosine(va: &[f64], vb: &[f64]) -> f64 {
    let dot: f64 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
    let na: f64 = va.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = vb.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Appends `σ(center · row)` for each row of `table` named in `rows`, in
/// order. Each dot product is the sequential left-to-right sum [`dot`]
/// computes (from -0.0, as `Iterator::sum` starts); up to eight rows share
/// one pass over `center`, so their independent add chains overlap in the
/// pipeline instead of running one after another.
fn sigmoids(center: &[f64], table: &[f64], rows: &[usize], out: &mut Vec<f64>) {
    fn group<const N: usize>(c: &[f64], table: &[f64], rows: &[usize], out: &mut Vec<f64>) {
        let dim = c.len();
        let o: [&[f64]; N] = std::array::from_fn(|k| &table[rows[k] * dim..][..dim]);
        let mut acc = [-0.0; N];
        for (d, &x) in c.iter().enumerate() {
            for k in 0..N {
                acc[k] += x * o[k][d];
            }
        }
        out.extend(acc.map(sigmoid));
    }
    for g in rows.chunks(8) {
        match g.len() {
            1 => group::<1>(center, table, g, out),
            2 => group::<2>(center, table, g, out),
            3 => group::<3>(center, table, g, out),
            4 => group::<4>(center, table, g, out),
            5 => group::<5>(center, table, g, out),
            6 => group::<6>(center, table, g, out),
            7 => group::<7>(center, table, g, out),
            _ => group::<8>(center, table, g, out),
        }
    }
}

impl SkipGram {
    pub fn new(rng: &mut StdRng, vocab: usize, dim: usize) -> Self {
        let mut init = || -> Vec<f64> {
            (0..vocab * dim).map(|_| rng.random_range(-0.5..0.5) / dim as f64).collect()
        };
        let w_in = init();
        let w_out = init();
        Self { vocab, dim, w_in, w_out, grad_in: vec![0.0; dim], rows: Vec::new(), sig: Vec::new() }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The row-major `vocab × dim` input table.
    pub(crate) fn into_input(self) -> Vec<f64> {
        self.w_in
    }

    /// One SGD update for a (center, context) pair with `negatives` sampled
    /// uniformly. Returns the pair's loss before the update.
    pub fn train_pair(
        &mut self,
        rng: &mut StdRng,
        center: usize,
        context: usize,
        negatives: usize,
        lr: f64,
    ) -> f64 {
        self.pair::<true>(rng, center, context, negatives, lr)
    }

    fn pair<const LOSS: bool>(
        &mut self,
        rng: &mut StdRng,
        center: usize,
        context: usize,
        negatives: usize,
        lr: f64,
    ) -> f64 {
        let Self { vocab, dim, w_in, w_out, grad_in, rows, sig } = self;
        let (vocab, dim) = (*vocab, *dim);
        let row = |v: usize| v * dim..(v + 1) * dim;

        // The draws do not depend on the tables, so take them all up front.
        rows.clear();
        rows.push(context);
        for _ in 0..negatives {
            let neg = rng.random_range(0..vocab);
            if neg != context {
                rows.push(neg);
            }
        }
        // Every row's first term sees the row as it was before the pair, so
        // those dot products are independent and can overlap.
        let c = &w_in[row(center)];
        sig.clear();
        sigmoids(c, w_out, rows, sig);

        // Positive term -log σ(z_c · z_ctx), then the negative terms
        // -log σ(-z_c · z_neg) in draw order.
        grad_in.fill(0.0);
        let mut loss = 0.0;
        for (k, &r) in rows.iter().enumerate() {
            let out = &mut w_out[row(r)];
            // A row drawn twice sees its earlier update.
            let s = if rows[..k].contains(&r) { sigmoid(dot(c, out)) } else { sig[k] };
            let g = if k == 0 { s - 1.0 } else { s }; // d loss / d dot
            for ((gi, o), x) in grad_in.iter_mut().zip(out.iter_mut()).zip(c) {
                *gi += g * *o;
                *o -= lr * g * x;
            }
            if LOSS {
                loss -= if k == 0 { s } else { 1.0 - s }.max(1e-12).ln();
            }
        }

        for (w, gi) in w_in[row(center)].iter_mut().zip(grad_in.iter()) {
            *w -= lr * gi;
        }
        loss
    }

    /// One epoch over a walk corpus with the given context window, without
    /// computing the loss.
    pub fn epoch(
        &mut self,
        rng: &mut StdRng,
        walks: &[Vec<usize>],
        window: usize,
        negatives: usize,
        lr: f64,
    ) {
        self.run_epoch::<false>(rng, walks, window, negatives, lr);
    }

    /// Train on a corpus of walks with the given context window.
    /// Returns the mean pair loss of the final epoch.
    pub fn train_walks(
        &mut self,
        rng: &mut StdRng,
        walks: &[Vec<usize>],
        window: usize,
        negatives: usize,
        lr: f64,
        epochs: usize,
    ) -> f64 {
        if epochs == 0 {
            return 0.0;
        }
        for _ in 1..epochs {
            self.epoch(rng, walks, window, negatives, lr);
        }
        self.run_epoch::<true>(rng, walks, window, negatives, lr)
    }

    /// One epoch; returns the mean pair loss when `LOSS`, else 0.
    fn run_epoch<const LOSS: bool>(
        &mut self,
        rng: &mut StdRng,
        walks: &[Vec<usize>],
        window: usize,
        negatives: usize,
        lr: f64,
    ) -> f64 {
        let mut total = 0.0;
        let mut pairs = 0usize;
        for walk in walks {
            for (i, &center) in walk.iter().enumerate() {
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(walk.len());
                for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                    if j != i {
                        total += self.pair::<LOSS>(rng, center, context, negatives, lr);
                        pairs += 1;
                    }
                }
            }
        }
        if pairs > 0 {
            total / pairs as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn loss_decreases_with_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = SkipGram::new(&mut rng, 20, 8);
        // Two tight clusters: walks alternate within {0..4} or within {5..9}.
        let mut walks = Vec::new();
        for s in 0..50 {
            let base = if s % 2 == 0 { 0 } else { 5 };
            walks.push((0..10).map(|i| base + (i + s) % 5).collect::<Vec<_>>());
        }
        let first = model.train_walks(&mut rng, &walks, 2, 3, 0.05, 1);
        let last = model.train_walks(&mut rng, &walks, 2, 3, 0.05, 10);
        assert!(last < first, "loss should drop: {first} → {last}");
    }

    #[test]
    fn co_occurring_nodes_become_similar() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = SkipGram::new(&mut rng, 10, 8);
        let mut walks = Vec::new();
        for s in 0..80 {
            let base = if s % 2 == 0 { 0 } else { 5 };
            walks.push((0..12).map(|i| base + (i + s) % 5).collect::<Vec<_>>());
        }
        model.train_walks(&mut rng, &walks, 2, 4, 0.05, 15);
        // Within-cluster similarity should exceed cross-cluster similarity.
        let input = |v: usize| &model.w_in[v * 8..(v + 1) * 8];
        let within = cosine(input(0), input(1));
        let cross = cosine(input(0), input(6));
        assert!(within > cross + 0.2, "within {within:.3} vs cross {cross:.3}");
    }

    /// `epoch` and `train_walks` apply the same updates; only the loss
    /// bookkeeping differs.
    #[test]
    fn epoch_matches_train_walks_updates() {
        let walks: Vec<Vec<usize>> =
            (0..30).map(|s| (0..9).map(|i| (i * 7 + s) % 13).collect()).collect();
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut a = SkipGram::new(&mut rng_a, 13, 6);
        let mut rng_b = StdRng::seed_from_u64(3);
        let mut b = SkipGram::new(&mut rng_b, 13, 6);
        for _ in 0..3 {
            a.epoch(&mut rng_a, &walks, 2, 3, 0.05);
        }
        let loss = b.train_walks(&mut rng_b, &walks, 2, 3, 0.05, 3);
        assert!(loss.is_finite() && loss > 0.0);
        let bits = |m: &SkipGram| m.w_in.iter().chain(&m.w_out).map(|x| x.to_bits()).collect();
        let (bits_a, bits_b): (Vec<u64>, Vec<u64>) = (bits(&a), bits(&b));
        assert_eq!(bits_a, bits_b);
    }

    /// The pair update written term by term on nested rows, with each
    /// negative drawn just before its term.
    fn reference_pair(
        w_in: &mut [Vec<f64>],
        w_out: &mut [Vec<f64>],
        rng: &mut StdRng,
        (center, context): (usize, usize),
        negatives: usize,
        lr: f64,
    ) -> f64 {
        let dim = w_in[center].len();
        let mut grad_in = vec![0.0; dim];
        let mut loss = 0.0;
        let mut term = |out: &mut Vec<f64>, positive: bool, grad_in: &mut Vec<f64>| {
            let dot: f64 = w_in[center].iter().zip(out.iter()).map(|(a, b)| a * b).sum();
            let s = sigmoid(dot);
            loss -= if positive { s } else { 1.0 - s }.max(1e-12).ln();
            let g = if positive { s - 1.0 } else { s };
            for d in 0..dim {
                grad_in[d] += g * out[d];
                out[d] -= lr * g * w_in[center][d];
            }
        };
        term(&mut w_out[context], true, &mut grad_in);
        for _ in 0..negatives {
            let neg = rng.random_range(0..w_out.len());
            if neg != context {
                term(&mut w_out[neg], false, &mut grad_in);
            }
        }
        for d in 0..dim {
            w_in[center][d] -= lr * grad_in[d];
        }
        loss
    }

    /// On a 3-node vocabulary most pairs draw a negative twice or draw the
    /// context, so the up-front draws and dot products must still reproduce
    /// the term-by-term update bit for bit.
    #[test]
    fn pair_matches_term_by_term_reference_with_repeated_rows() {
        let (vocab, dim, negatives, lr) = (3, 5, 9, 0.3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = SkipGram::new(&mut rng, vocab, dim);
        let nested = |t: &[f64]| t.chunks(dim).map(<[f64]>::to_vec).collect::<Vec<_>>();
        let (mut w_in, mut w_out) = (nested(&model.w_in), nested(&model.w_out));
        let mut ref_rng = rng.clone();
        for i in 0..200 {
            let pair = (i % vocab, (i * 2 + 1) % vocab);
            let loss = model.train_pair(&mut rng, pair.0, pair.1, negatives, lr);
            let want = reference_pair(&mut w_in, &mut w_out, &mut ref_rng, pair, negatives, lr);
            assert_eq!(loss.to_bits(), want.to_bits(), "pair {i}");
        }
        let flat = |t: &[Vec<f64>]| t.concat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&model.w_in), flat(&w_in));
        assert_eq!(bits(&model.w_out), flat(&w_out));
    }
}
