//! Body of `BENCH_serve.json`, the recorded serving latency and throughput
//! of `wsccl-serve` (written by the `bench_serve` binary through
//! [`crate::record`]), and the exact latency percentile shared with the
//! `wsccl serve` CLI.

use serde::{Deserialize, Serialize};

pub const BENCH_SERVE_PATH: &str = "BENCH_serve.json";

/// One measured serving workload (e.g. single-request, batched, cache-warm).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeWorkloadResult {
    pub workload: String,
    /// Client threads issuing requests.
    pub clients: usize,
    /// Queries per client call: 1 = `Client::embed`, k = `embed_many`
    /// groups of k. `requests` always counts queries; latency percentiles
    /// are per call (so per group when `bulk > 1`).
    pub bulk: usize,
    /// Server-side `max_batch`.
    pub max_batch: usize,
    /// LRU capacity (0 = cache disabled for this workload).
    pub cache_capacity: usize,
    pub requests: u64,
    pub seconds: f64,
    pub requests_per_sec: f64,
    /// Client-observed request latency percentiles, microseconds (exact,
    /// from the full per-request sample, not histogram buckets).
    pub p50_us: f64,
    pub p99_us: f64,
    pub cache_hit_rate: f64,
}

/// Direct forward-path measurement, no server or channel in the loop:
/// looped single-query `embed()` calls vs one `embed_batch_with` call per
/// `batch` queries over the same query stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EmbedPathResult {
    /// Batch height of the fused pass (16 in the recorded contract).
    pub batch: usize,
    /// Embeddings/s through looped single-query calls.
    pub single_embeds_per_sec: f64,
    /// Embeddings/s through the fused batched pass.
    pub batched_embeds_per_sec: f64,
}

/// The body of the record (after `provenance` and `contracts`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeBench {
    pub workloads: Vec<ServeWorkloadResult>,
    /// Forward-path throughput, measured directly on the representer.
    pub embed_path: EmbedPathResult,
    /// End-to-end queries/s ratio of the `batched` workload (2 clients
    /// issuing `embed_many` groups of 16, `max_batch = 16`) over the
    /// `single` workload (one closed-loop client, one `embed()` in flight)
    /// — the batch-16 serving path's reason to exist; gated at ≥ 1.5 by the
    /// record's `batched_speedup` contract. The fused forward pass and the
    /// per-group (instead of per-query) wakeup overhead both contribute;
    /// `embed_path` isolates the former.
    pub batched_speedup: f64,
    /// Requests served across a hot checkpoint reload with zero drops.
    pub reload_requests: u64,
}

/// Exact percentile from a raw latency sample (nearest-rank); `sorted` must
/// be ascending.
pub fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile_us(&s, 0.50), 50.0);
        assert_eq!(percentile_us(&s, 0.99), 99.0);
        assert_eq!(percentile_us(&s, 1.0), 100.0);
        assert_eq!(percentile_us(&s, 0.0), 1.0);
        assert!(percentile_us(&[], 0.5).is_nan());
    }

    #[test]
    fn roundtrips_through_json() {
        let b = ServeBench {
            workloads: vec![ServeWorkloadResult {
                workload: "batched".into(),
                clients: 8,
                bulk: 16,
                max_batch: 16,
                cache_capacity: 0,
                requests: 1000,
                seconds: 0.5,
                requests_per_sec: 2000.0,
                p50_us: 40.0,
                p99_us: 180.0,
                cache_hit_rate: 0.0,
            }],
            embed_path: EmbedPathResult {
                batch: 16,
                single_embeds_per_sec: 30_000.0,
                batched_embeds_per_sec: 102_000.0,
            },
            batched_speedup: 3.4,
            reload_requests: 500,
        };
        let json = serde_json::to_string(&b).unwrap();
        let back: ServeBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workloads.len(), 1);
        assert_eq!(back.batched_speedup, 3.4);
    }
}
