//! `bench_serve` — measure serving latency/throughput and record it in
//! `BENCH_serve.json` (a [`wsccl_bench::record`]; the body is
//! [`wsccl_bench::ServeBench`]).
//!
//! Three workloads run against a fresh server each, same embedding budget:
//!
//! * `single`  — one closed-loop client issuing one `embed()` at a time,
//!   `max_batch = 1`, cache off: the one-at-a-time baseline. One query in
//!   flight at any moment, so throughput is the reciprocal of the full
//!   request round trip.
//! * `batched` — 2 clients each issuing `embed_many` groups of 16,
//!   `max_batch = 16`, cache off: the bulk route-ranking shape. Every query
//!   still pays a forward pass, but the 16 queries of a group fuse into one
//!   batched pass and share one queue/reply wake, so the per-request
//!   serving overhead is paid once per group. Latency percentiles are per
//!   group call; `requests` counts queries.
//! * `cached`  — 32 single-`embed` clients, `max_batch = 16`, LRU on, a
//!   small recurring query set: the warm-path ceiling. A warm key is
//!   answered on the client's own thread with no queue round trip, so this
//!   measures the cache probe under 32-way contention, not the server.
//!
//! `batched_speedup` is the end-to-end ratio `batched / single` requests/s,
//! gated by the record's contract at ≥ 1.5× (the binary exits 1 below it;
//! 3.07× was recorded when the batcher landed). The fused forward pass alone is
//! also recorded (`embed_path`: looped `embed()` vs `embed_batch_with` on
//! the bare representer) so the kernel-level and coalescing contributions
//! can be told apart. A final segment hammers a server across a hot model
//! reload and records the (drop-free) request count. Latency percentiles
//! are exact, computed from every client-observed request latency, not
//! histogram buckets.
//!
//! Weights are freshly initialized, untrained: serving cost depends only on
//! architecture and path length, and this keeps the bench fast.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wsccl_bench::record::{self, Contract};
use wsccl_bench::runner::WORLD_SEED;
use wsccl_bench::serve_bench::{percentile_us, BENCH_SERVE_PATH};
use wsccl_bench::{Scale, ServeBench, ServeWorkloadResult};

/// Contract: `batched_speedup` at least this.
const MIN_BATCHED_SPEEDUP: f64 = 1.5;
use wsccl_core::encoder::TemporalPathEncoder;
use wsccl_core::{TrainedRepresenter, WscModel};
use wsccl_datagen::CityDataset;
use wsccl_roadnet::{CityProfile, Path};
use wsccl_serve::{ServeConfig, Server};
use wsccl_traffic::SimTime;

struct Setup {
    queries: Vec<(Path, SimTime)>,
    encoder: Arc<TemporalPathEncoder>,
    params: wsccl_nn::Parameters,
    weights: wsccl_core::encoder::EncoderWeights,
}

impl Setup {
    fn new(scale: Scale) -> Self {
        let cfg = scale.wsccl(WORLD_SEED);
        let ds = CityDataset::generate(&scale.dataset(CityProfile::Aalborg, WORLD_SEED));
        let encoder = Arc::new(TemporalPathEncoder::new(&ds.net, cfg.encoder.clone(), cfg.seed));
        let model = WscModel::new(Arc::clone(&encoder), cfg, WORLD_SEED);
        let (params, weights) = model.weights();
        let (params, weights) = (params.clone(), weights.clone());
        let queries: Vec<(Path, SimTime)> = ds
            .unlabeled
            .iter()
            .take(256)
            .enumerate()
            .map(|(i, s)| (s.path.clone(), SimTime::new(s.departure.seconds() + 431 * i as u32)))
            .collect();
        Self { queries, encoder, params, weights }
    }

    fn representer(&self) -> TrainedRepresenter {
        TrainedRepresenter::from_parts(
            Arc::clone(&self.encoder),
            self.params.clone(),
            self.weights.clone(),
            "bench",
        )
    }
}

fn run_workload(
    setup: &Setup,
    name: &str,
    clients: usize,
    bulk: usize,
    max_batch: usize,
    cache_capacity: usize,
    total_requests: u64,
) -> ServeWorkloadResult {
    let server = Server::spawn(
        setup.representer(),
        ServeConfig { max_batch, cache_capacity, ..ServeConfig::default() },
    );
    // Warm up (JIT-free, but fills the cache and faults in buffers).
    let warm = server.client();
    for (p, t) in setup.queries.iter().take(64) {
        warm.embed(p, *t).expect("warmup");
    }

    let bulk = bulk.max(1);
    let per_client = (total_requests / (clients * bulk) as u64).max(1);
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                let queries = &setup.queries;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(per_client as usize);
                    let mut group: Vec<(&Path, SimTime)> = Vec::with_capacity(bulk);
                    for i in 0..per_client {
                        let base = c * 131 + i as usize * bulk;
                        if bulk == 1 {
                            let (p, t) = &queries[base % queries.len()];
                            let t1 = Instant::now();
                            client.embed(p, *t).expect("request served");
                            lats.push(t1.elapsed().as_nanos() as f64 / 1e3);
                        } else {
                            group.clear();
                            group.extend((0..bulk).map(|j| {
                                let (p, t) = &queries[(base + j) % queries.len()];
                                (p, *t)
                            }));
                            let t1 = Instant::now();
                            let got = client.embed_many(&group).expect("group served");
                            assert_eq!(got.len(), bulk);
                            lats.push(t1.elapsed().as_nanos() as f64 / 1e3);
                        }
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let stats = server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));

    let requests = per_client * (clients * bulk) as u64;
    let looked_up = stats.cache.hits + stats.cache.misses;
    let res = ServeWorkloadResult {
        workload: name.to_string(),
        clients,
        bulk,
        max_batch,
        cache_capacity,
        requests,
        seconds,
        requests_per_sec: requests as f64 / seconds.max(1e-9),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        cache_hit_rate: if looked_up == 0 {
            0.0
        } else {
            stats.cache.hits as f64 / looked_up as f64
        },
    };
    eprintln!(
        "[bench_serve] {name}: {} req in {seconds:.2}s = {:.0} req/s | p50 {:.1}us p99 {:.1}us \
         | hit rate {:.2} | max batch seen {}",
        res.requests,
        res.requests_per_sec,
        res.p50_us,
        res.p99_us,
        res.cache_hit_rate,
        stats.max_batch_seen
    );
    res
}

/// Direct forward-path throughput: the same `total` queries pushed through
/// looped single-query `embed()` calls and through batch-16
/// `embed_batch_with` calls, no server or channel in between.
fn run_embed_path_bench(setup: &Setup, total: u64) -> wsccl_bench::EmbedPathResult {
    const BATCH: usize = 16;
    let rep = setup.representer();
    let n = (total as usize).min(8 * 4096) / BATCH * BATCH;

    let t0 = Instant::now();
    for i in 0..n {
        let (p, t) = &setup.queries[i % setup.queries.len()];
        std::hint::black_box(rep.embed(p, *t));
    }
    let single_s = t0.elapsed().as_secs_f64();

    let mut scratch = wsccl_core::encoder::BatchScratch::default();
    let t0 = Instant::now();
    for chunk in 0..n / BATCH {
        let queries: Vec<(&Path, SimTime)> = (0..BATCH)
            .map(|j| {
                let (p, t) = &setup.queries[(chunk * BATCH + j) % setup.queries.len()];
                (p, *t)
            })
            .collect();
        std::hint::black_box(rep.embed_batch_with(&queries, &mut scratch));
    }
    let batched_s = t0.elapsed().as_secs_f64();

    let res = wsccl_bench::EmbedPathResult {
        batch: BATCH,
        single_embeds_per_sec: n as f64 / single_s.max(1e-9),
        batched_embeds_per_sec: n as f64 / batched_s.max(1e-9),
    };
    eprintln!(
        "[bench_serve] embed path: single {:.0}/s, batched(x{BATCH}) {:.0}/s ({n} embeds each)",
        res.single_embeds_per_sec, res.batched_embeds_per_sec
    );
    res
}

/// Hammer a server across a hot in-process reload; every request must be
/// served (the client asserts), so the returned count is drop-free.
fn run_reload_segment(setup: &Setup, total_requests: u64) -> u64 {
    let server = Server::spawn(setup.representer(), ServeConfig::default());
    let clients = 4usize;
    let per_client = (total_requests / clients as u64).max(1);
    std::thread::scope(|s| {
        for c in 0..clients {
            let client = server.client();
            let queries = &setup.queries;
            s.spawn(move || {
                for i in 0..per_client {
                    let (p, t) = &queries[(c * 61 + i as usize) % queries.len()];
                    client.embed(p, *t).expect("request must survive reload");
                }
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        server.client().reload(setup.representer()).expect("reload");
    });
    let stats = server.shutdown();
    assert!(stats.reloads == 1, "reload must have happened");
    eprintln!(
        "[bench_serve] reload segment: {} requests served across a hot swap, 0 dropped",
        per_client * clients as u64
    );
    per_client * clients as u64
}

fn main() {
    let scale = Scale::from_env();
    let total: u64 = match scale {
        Scale::Tiny => 4_000,
        Scale::Small => 20_000,
        Scale::Full => 100_000,
    };
    eprintln!(
        "[bench_serve] scale {} | kernel backend {} | {total} requests per workload",
        scale.name(),
        wsccl_nn::kernels::active_name()
    );
    let setup = Setup::new(scale);

    let single = run_workload(&setup, "single", 1, 1, 1, 0, total / 4);
    let batched = run_workload(&setup, "batched", 2, 16, 16, 0, total);
    let cached = run_workload(&setup, "cached", 32, 1, 16, 4096, total);
    let embed_path = run_embed_path_bench(&setup, total);
    let batched_speedup = batched.requests_per_sec / single.requests_per_sec.max(1e-9);
    let reload_requests = run_reload_segment(&setup, total.min(20_000));

    let contracts = [Contract::at_least("batched_speedup", batched_speedup, MIN_BATCHED_SPEEDUP)];
    let bench = ServeBench {
        workloads: vec![single, batched, cached],
        embed_path,
        batched_speedup,
        reload_requests,
    };
    if let Err(e) = record::save(BENCH_SERVE_PATH, &contracts, &bench) {
        eprintln!("[bench_serve] failed to write {BENCH_SERVE_PATH}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {BENCH_SERVE_PATH}: batched speedup {batched_speedup:.2}x, {} workloads",
        bench.workloads.len()
    );
    record::enforce(&contracts);
}
