//! Order statistics over raw latency samples.

/// Tail samples a reported percentile must leave beyond itself.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample (NaN when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Percentile `q`, or `None` when fewer than `min_tail` samples lie beyond
/// its rank: a tail figure resting on a handful of samples is noise.
pub fn tail_percentile(sorted: &[f64], q: f64, min_tail: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || n - rank(n, q) < min_tail {
        return None;
    }
    Some(percentile(sorted, q))
}

/// The highest of the usual reporting percentiles that still leaves
/// `min_tail` samples beyond it, as `(quantile, value)`.
pub fn highest_tail_percentile(sorted: &[f64], min_tail: usize) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find_map(|q| tail_percentile(sorted, q, min_tail).map(|v| (q, v)))
}

/// Print the sample count, median and highest tail percentile to stderr.
pub fn log_tail(what: &str, sorted: &[f64]) {
    let tail = highest_tail_percentile(sorted, MIN_TAIL)
        .map_or("no tail".to_string(), |(q, v)| format!("p{} {v} us", q * 100.0));
    eprintln!(
        "{what} latency: {} samples, p50 {} us, {tail}",
        sorted.len(),
        percentile(sorted, 0.5)
    );
}

/// Sort ascending in place (total order; NaN sorts last).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    percentile(&s, 0.5)
}

/// Mean of the middle half of a sample: what is left after dropping the
/// lowest and the highest quarter (NaN when empty). Like the median, it
/// ignores a few outliers. Unlike the median, when a sample mixes two
/// levels (a host that ran faster for part of a run), it moves in
/// proportion to the mix rather than jumping from one level to the other.
pub fn iq_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A uniform sample of a run's op latencies in fixed, pre-touched memory,
/// so the sample's size does not grow with the program's speed (and with it
/// the process's peak RSS). Every op is kept until the buffer fills; then
/// every other kept sample is dropped and only every second op is kept from
/// there on, and so on.
pub struct LatencySample {
    buf: Vec<f64>,
    len: usize,
    stride: u64,
    seen: u64,
}

impl LatencySample {
    pub fn new(capacity: usize) -> Self {
        // Non-zero fill writes every page now rather than during the run.
        let capacity = capacity.max(2) & !1;
        Self { buf: vec![f64::NAN; capacity], len: 0, stride: 1, seen: 0 }
    }

    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.len == self.buf.len() {
                for i in 0..self.len / 2 {
                    self.buf[i] = self.buf[2 * i];
                }
                self.len /= 2;
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.buf[self.len] = v;
                self.len += 1;
            }
        }
        self.seen += 1;
    }

    /// Ops offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, ascending.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.buf[..self.len].to_vec();
        sort(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn latency_sample_stays_uniform_in_fixed_memory() {
        let mut s = LatencySample::new(1024);
        (0..10_000).for_each(|v| s.push(v as f64));
        assert_eq!(s.seen(), 10_000);
        let kept = s.sorted();
        assert!((512..=1024).contains(&kept.len()), "{} kept", kept.len());
        // Every 16th op survives: 0, 16, 32, ….
        assert!(kept.iter().all(|v| (*v as u64).is_multiple_of(16)));
        assert!((median(&kept) - 5000.0).abs() < 50.0);

        let mut small = LatencySample::new(1024);
        (0..100).for_each(|v| small.push(v as f64));
        assert_eq!(small.sorted(), ramp(100).iter().map(|v| v - 1.0).collect::<Vec<_>>());
    }

    #[test]
    fn interquartile_mean() {
        assert_eq!(iq_mean(&[2.0]), 2.0);
        assert_eq!(iq_mean(&[1.0, 3.0, 2.0]), 2.0);
        // 8 values: the lowest two and the highest two are dropped.
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 4.0, 6.0, 8.0, -50.0, 9.0]), 5.0);
        // A 3:5 mix of two levels lands between them; the median would not.
        let mix = [5.0, 5.0, 5.0, 7.0, 7.0, 7.0, 7.0, 7.0];
        assert_eq!(iq_mean(&mix), 6.5);
        assert_eq!(median(&mix), 7.0);
        assert!(iq_mean(&[]).is_nan());
    }

    #[test]
    fn nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(1000), 0.99, MIN_TAIL), Some(990.0));
        // 999 samples: rank 990 leaves 9 beyond — refused.
        assert_eq!(tail_percentile(&ramp(999), 0.99, MIN_TAIL), None);
        assert_eq!(tail_percentile(&[], 0.5, MIN_TAIL), None);
    }

    #[test]
    fn highest_percentile_with_a_tail() {
        assert_eq!(highest_tail_percentile(&ramp(10_000), MIN_TAIL), Some((0.999, 9990.0)));
        assert_eq!(highest_tail_percentile(&ramp(1000), MIN_TAIL), Some((0.99, 990.0)));
        assert_eq!(highest_tail_percentile(&ramp(200), MIN_TAIL), Some((0.95, 190.0)));
        assert_eq!(highest_tail_percentile(&ramp(15), MIN_TAIL), None);
    }
}
