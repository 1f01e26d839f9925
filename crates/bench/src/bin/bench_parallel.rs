//! Serial-vs-parallel timing harness for the data-parallel training and
//! lock-free inference paths. Writes `BENCH_parallel.json` and
//! `BENCH_kernels.json` (two [`wsccl_bench::record`]s without contracts),
//! and `results/profile.json`, in the working directory (see
//! `scripts/bench.sh`).
//!
//! For each shard count the *same logical step* (fixed seed, fixed shard
//! count) is timed at `threads = 1` and `threads = shards`; because the shard
//! count is part of the math, this isolates the execution knob. The records'
//! provenance carries the host's CPU count — on a single-core host the
//! parallel numbers legitimately match the serial ones.
//!
//! The kernels report compares pooled vs unpooled tape execution (same fused
//! kernels both ways — pooling only recycles buffers) for the WSCCL model and
//! a PIM-style LSTM baseline, recording per-step time plus the tape's
//! allocation counters during the timed window. A pooled steady state must
//! show zero fresh tensor allocations.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::RngExt;
use serde::Serialize;

use wsccl_bench::record;
use wsccl_core::config::WscclConfig;
use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::wsc::WscModel;
use wsccl_core::PathRepresenter;
use wsccl_datagen::{CityDataset, DatasetConfig};
use wsccl_nn::layers::Lstm;
use wsccl_nn::{
    kernels, Graph, KernelBackend, Kernels, NodeId, Parameters, ScalarKernels, SimdKernels,
};
use wsccl_roadnet::CityProfile;
use wsccl_traffic::PopLabeler;
use wsccl_train::{TrainSpec, Trainable, Trainer};

#[derive(Serialize)]
struct TrainTiming {
    shards: usize,
    threads: usize,
    steps: usize,
    ms_per_step: f64,
}

#[derive(Serialize)]
struct EmbedTiming {
    paths: usize,
    workers: usize,
    serial_ms: f64,
    parallel_ms: f64,
}

#[derive(Serialize)]
struct Report {
    train_step: Vec<TrainTiming>,
    eval_embed: EmbedTiming,
}

#[derive(Serialize)]
struct KernelTiming {
    model: &'static str,
    pooled: bool,
    steps: usize,
    ms_per_step: f64,
    /// Fresh tensor allocations during the timed (post-warmup) window.
    steady_fresh_allocs: u64,
    /// Pool reuses during the timed window.
    steady_reuses: u64,
    /// Peak simultaneously-live pooled tensors over the whole run.
    peak_live: usize,
}

/// Raw per-backend throughput for one matmul kernel shape (logical output
/// `m×n`, inner dimension `k`; the `nt`/`tn` variants are the LSTM backward
/// shapes of the same logical product).
#[derive(Serialize)]
struct MatmulRate {
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
    speedup: f64,
}

/// WSCCL train-step time with the kernel backend pinned.
#[derive(Serialize)]
struct BackendStep {
    backend: &'static str,
    steps: usize,
    ms_per_step: f64,
}

/// Single-path embedding latency: the f64 tape oracle vs the frozen f32
/// inference path under each backend.
#[derive(Serialize)]
struct EmbedLatency {
    path_len: usize,
    reps: usize,
    f64_tape_us: f64,
    f32_scalar_us: f64,
    f32_simd_us: f64,
}

/// The `kernels` section of `BENCH_kernels.json`: scalar-vs-SIMD backend
/// comparison (microkernel GFLOP/s, pinned-backend train steps, and the f32
/// inference fast path).
#[derive(Serialize)]
struct KernelsSection {
    simd_available: bool,
    matmul: Vec<MatmulRate>,
    wsccl_step: Vec<BackendStep>,
    embed: EmbedLatency,
}

#[derive(Serialize)]
struct KernelReport {
    train_step: Vec<KernelTiming>,
    kernels: KernelsSection,
}

#[derive(Serialize)]
struct OpRow {
    op: String,
    count: u64,
    forward_ms: f64,
    backward_ms: f64,
}

/// `results/profile.json`: metrics-on-vs-off step-time overhead for the
/// pooled WSCCL model, plus the per-op tape breakdown from a profiled run.
#[derive(Serialize)]
struct ProfileReport {
    host_cores: usize,
    steps: usize,
    metrics_off_ms_per_step: f64,
    metrics_on_ms_per_step: f64,
    /// `(on − off) / off`, percent. Negative values are timing noise.
    metrics_overhead_pct: f64,
    ops: Vec<OpRow>,
}

/// PIM-style LSTM baseline: encode a feature sequence, score the pooled
/// global representation against one of its own step states. Exercises the
/// fused LSTM cell through the shared engine without the WSCCL sampler.
struct LstmBench {
    lstm: Lstm,
    seqs: Vec<Vec<Vec<f64>>>,
}

impl Trainable for LstmBench {
    type Batch = usize;

    fn epoch_batches(&mut self, _epoch: u64, _rng: &mut StdRng) -> Vec<usize> {
        (0..self.seqs.len()).collect()
    }

    fn build_loss(&self, g: &mut Graph<'_>, &i: &usize, rng: &mut StdRng) -> Option<NodeId> {
        let feats = &self.seqs[i];
        let inputs: Vec<NodeId> = feats.iter().map(|f| g.input_row(f)).collect();
        let hs = self.lstm.forward(g, &inputs);
        let stacked = g.concat_rows(&hs);
        let global = g.mean_rows(stacked);
        let own = hs[rng.random_range(0..hs.len())];
        let score = g.dot(global, own);
        let sig = g.sigmoid(score);
        let ln = g.ln(sig);
        Some(g.scale_inplace(ln, -1.0))
    }
}

/// GFLOP/s for one matmul shape under both backends. `m`/`k`/`n` describe the
/// logical `m×n = m×k · k×n` product; the `nt`/`tn` rows time the transposed
/// layouts the LSTM backward pass uses for the same product.
fn matmul_rate(op: &'static str, m: usize, k: usize, n: usize) -> MatmulRate {
    // Non-zero inputs: `matmul_acc` skips a == 0.0, which would flatter both
    // backends equally but measure the wrong thing.
    let a: Vec<f64> = (0..m * k).map(|i| 0.5 + (i % 13) as f64 * 0.07).collect();
    let b: Vec<f64> = (0..k * n).map(|i| 0.25 + (i % 11) as f64 * 0.05).collect();
    let flops = (2 * m * k * n) as f64;
    let time_backend = |kn: &dyn Kernels| -> f64 {
        let mut out = vec![0.0f64; m * n];
        // ~2e8 flops per measurement keeps even the 1-row shapes over ~50 ms.
        let reps = ((2e8 / flops) as usize).clamp(100, 2_000_000);
        let run = |out: &mut [f64]| match op {
            "matmul_acc" => kn.matmul_acc(m, k, n, &a, &b, out),
            "matmul_nt_acc" => kn.matmul_nt_acc(m, k, n, &a, &b, out),
            "matmul_tn_acc" => kn.matmul_tn_acc(k, m, n, &a, &b, out),
            _ => unreachable!("unknown matmul op {op}"),
        };
        for _ in 0..reps / 10 {
            run(&mut out);
        }
        out.fill(0.0);
        let t = Instant::now();
        for _ in 0..reps {
            run(&mut out);
        }
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        flops * reps as f64 / secs / 1e9
    };
    let scalar_gflops = time_backend(&ScalarKernels);
    let simd_gflops = time_backend(&SimdKernels);
    let row = MatmulRate {
        op,
        m,
        k,
        n,
        scalar_gflops,
        simd_gflops,
        speedup: simd_gflops / scalar_gflops,
    };
    println!(
        "matmul {op:>13} {m}x{k}*{k}x{n}: scalar {scalar_gflops:.2} GFLOP/s, \
         simd {simd_gflops:.2} GFLOP/s ({:.2}x)",
        row.speedup
    );
    row
}

/// WSCCL train-step time with the backend pinned via `kernels::force` (sound:
/// the f64 backends are bit-identical, so swapping mid-process cannot change
/// the training trajectory). Reports the best of several timed repetitions —
/// the standard min-of-k estimator for a noisy shared host, where every
/// slowdown is external interference rather than the code under test.
fn time_wsccl_backend(
    enc: &Arc<TemporalPathEncoder>,
    ds: &CityDataset,
    backend: KernelBackend,
    steps: usize,
) -> BackendStep {
    let forced = kernels::force(backend);
    let name = forced.name();
    let mut model = warm_model(enc, ds, true);
    let mut ms_per_step = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..steps {
            model.train_step(&ds.unlabeled, &PopLabeler);
        }
        ms_per_step = ms_per_step.min(t.elapsed().as_secs_f64() * 1000.0 / steps as f64);
    }
    println!("kernels WSCCL backend={name}: {ms_per_step:.2} ms/step");
    BackendStep { backend: name, steps, ms_per_step }
}

/// Single-path embedding latency: f64 tape oracle vs the frozen f32 path
/// under each backend, on the longest TTE path (worst case).
fn embed_latency(enc: &Arc<TemporalPathEncoder>, ds: &CityDataset) -> EmbedLatency {
    let mut model = WscModel::new(Arc::clone(enc), WscclConfig::tiny(), 1);
    for _ in 0..3 {
        model.train_step(&ds.unlabeled, &PopLabeler);
    }
    let rep = model.into_representer("WSCCL");
    assert!(rep.has_frozen_path(), "LSTM encoder must freeze to an f32 inference path");
    let s = ds.tte.iter().max_by_key(|s| s.path.len()).expect("TTE set non-empty");
    let reps = 2000;
    let time_us = |f: &dyn Fn() -> Vec<f64>| -> f64 {
        for _ in 0..reps / 10 {
            std::hint::black_box(f());
        }
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let f64_tape_us = time_us(&|| rep.represent(&ds.net, &s.path, s.departure));
    let mut forced = kernels::force(KernelBackend::Scalar);
    let f32_scalar_us = time_us(&|| rep.embed(&s.path, s.departure));
    forced.switch(KernelBackend::Simd);
    let f32_simd_us = time_us(&|| rep.embed(&s.path, s.departure));
    drop(forced);
    println!(
        "embed 1 path (len {}): f64 tape {f64_tape_us:.1} us, \
         f32 scalar {f32_scalar_us:.1} us, f32 simd {f32_simd_us:.1} us",
        s.path.len()
    );
    EmbedLatency { path_len: s.path.len(), reps, f64_tape_us, f32_scalar_us, f32_simd_us }
}

fn time_wsccl_kernels(
    enc: &Arc<TemporalPathEncoder>,
    ds: &CityDataset,
    pooled: bool,
    steps: usize,
) -> KernelTiming {
    let mut model = warm_model(enc, ds, pooled);
    let warm = model.pool_stats();
    let t = Instant::now();
    for _ in 0..steps {
        model.train_step(&ds.unlabeled, &PopLabeler);
    }
    let ms_per_step = t.elapsed().as_secs_f64() * 1000.0 / steps as f64;
    let after = model.pool_stats();
    let row = KernelTiming {
        model: "WSCCL",
        pooled,
        steps,
        ms_per_step,
        steady_fresh_allocs: after.fresh_allocs - warm.fresh_allocs,
        steady_reuses: after.reuses - warm.reuses,
        peak_live: after.peak_live,
    };
    println!(
        "kernels WSCCL pooled={pooled}: {ms_per_step:.2} ms/step, \
         {} fresh allocs steady-state",
        row.steady_fresh_allocs
    );
    row
}

fn time_lstm_kernels(ds: &CityDataset, pooled: bool, steps: usize) -> KernelTiming {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let mut params = Parameters::new();
    let lstm = Lstm::new(&mut params, &mut rng, "bench.lstm", 8, 24, 1);
    let seqs: Vec<Vec<Vec<f64>>> = ds
        .unlabeled
        .iter()
        .take(16)
        .map(|s| {
            (0..s.path.len().max(2))
                .map(|_| (0..8).map(|_| rng.random_range(-1.0..1.0)).collect())
                .collect()
        })
        .collect();
    let mut bench = LstmBench { lstm, seqs };
    let n_seqs = bench.seqs.len();
    let spec = TrainSpec { pool_buffers: pooled, ..TrainSpec::adam(3e-3, 1, 9) };
    let mut trainer = Trainer::new(spec);
    for i in 0..n_seqs {
        trainer.step(&mut bench, &mut params, &i);
    }
    let warm = trainer.pool_stats();
    let t = Instant::now();
    for i in 0..steps {
        trainer.step(&mut bench, &mut params, &(i % n_seqs));
    }
    let ms_per_step = t.elapsed().as_secs_f64() * 1000.0 / steps as f64;
    let after = trainer.pool_stats();
    let row = KernelTiming {
        model: "PIM-LSTM",
        pooled,
        steps,
        ms_per_step,
        steady_fresh_allocs: after.fresh_allocs - warm.fresh_allocs,
        steady_reuses: after.reuses - warm.reuses,
        peak_live: after.peak_live,
    };
    println!(
        "kernels PIM-LSTM pooled={pooled}: {ms_per_step:.2} ms/step, \
         {} fresh allocs steady-state",
        row.steady_fresh_allocs
    );
    row
}

/// Warm a WSCCL model until its tape pool reaches steady state. Each step
/// samples a fresh batch, and tensor sizes depend on path length, so keep
/// stepping until the pool has seen the whole size spectrum — including the
/// worst simultaneous demand per size — i.e. a long calm streak without a
/// single fresh alloc.
fn warm_model(enc: &Arc<TemporalPathEncoder>, ds: &CityDataset, pooled: bool) -> WscModel {
    let cfg = WscclConfig { pooling: pooled, ..WscclConfig::default() };
    let mut model = WscModel::new(Arc::clone(enc), cfg, 1);
    let mut calm = 0;
    let mut last = model.pool_stats().fresh_allocs;
    for _ in 0..1000 {
        model.train_step(&ds.unlabeled, &PopLabeler);
        let now = model.pool_stats().fresh_allocs;
        calm = if now == last { calm + 1 } else { 0 };
        last = now;
        if calm >= 50 {
            break;
        }
    }
    model
}

/// Metrics overhead (registry on vs off on the *same* warmed model) plus the
/// per-op tape breakdown from a separately profiled run. Profiling is timed
/// apart from the overhead comparison because the per-node clock reads are
/// themselves a cost.
fn profile_report(enc: &Arc<TemporalPathEncoder>, ds: &CityDataset, steps: usize) -> ProfileReport {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let registry = wsccl_obs::global();
    let mut model = warm_model(enc, ds, true);

    let time_steps = |model: &mut WscModel| {
        let t = Instant::now();
        for _ in 0..steps {
            model.train_step(&ds.unlabeled, &PopLabeler);
        }
        t.elapsed().as_secs_f64() * 1000.0 / steps as f64
    };
    registry.set_enabled(false);
    let metrics_off_ms_per_step = time_steps(&mut model);
    registry.set_enabled(true);
    let metrics_on_ms_per_step = time_steps(&mut model);
    registry.set_enabled(false);
    registry.reset();
    let metrics_overhead_pct =
        (metrics_on_ms_per_step - metrics_off_ms_per_step) / metrics_off_ms_per_step * 100.0;
    println!(
        "metrics overhead: off {metrics_off_ms_per_step:.2} ms/step, \
         on {metrics_on_ms_per_step:.2} ms/step ({metrics_overhead_pct:+.1}%)"
    );

    let mut model = warm_model(enc, ds, true);
    model.enable_profiling();
    for _ in 0..steps {
        model.train_step(&ds.unlabeled, &PopLabeler);
    }
    let profile = model.profile();
    let ops = profile
        .ops
        .iter()
        .map(|o| OpRow {
            op: o.op.to_string(),
            count: o.count,
            forward_ms: o.forward_ns as f64 / 1e6,
            backward_ms: o.backward_ns as f64 / 1e6,
        })
        .collect();

    ProfileReport {
        host_cores,
        steps,
        metrics_off_ms_per_step,
        metrics_on_ms_per_step,
        metrics_overhead_pct,
        ops,
    }
}

fn time_train(
    enc: &Arc<TemporalPathEncoder>,
    ds: &CityDataset,
    shards: usize,
    threads: usize,
    steps: usize,
) -> TrainTiming {
    let cfg = WscclConfig { shards, threads, ..WscclConfig::default() };
    let mut model = WscModel::new(Arc::clone(enc), cfg, 1);
    // Warm-up: touch every code path (and Adam state) once.
    for _ in 0..2 {
        model.train_step(&ds.unlabeled, &PopLabeler);
    }
    let t = Instant::now();
    for _ in 0..steps {
        model.train_step(&ds.unlabeled, &PopLabeler);
    }
    let ms_per_step = t.elapsed().as_secs_f64() * 1000.0 / steps as f64;
    println!("train_step shards={shards} threads={threads}: {ms_per_step:.2} ms/step");
    TrainTiming { shards, threads, steps, ms_per_step }
}

fn main() {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host cores: {host_cores}");

    let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 1));
    let enc = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::tiny(), 1));

    let mut train_step = Vec::new();
    for shards in [1usize, 2, 4] {
        train_step.push(time_train(&enc, &ds, shards, 1, 10));
        if shards > 1 {
            train_step.push(time_train(&enc, &ds, shards, shards, 10));
        }
    }

    // Lock-free batched inference: embed the whole TTE set through a shared
    // representer, serial vs one worker per core.
    let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 1);
    for _ in 0..3 {
        model.train_step(&ds.unlabeled, &PopLabeler);
    }
    let rep = model.into_representer("WSCCL");
    let rep = &rep;
    let net = &ds.net;

    let t = Instant::now();
    for s in &ds.tte {
        std::hint::black_box(rep.represent(net, &s.path, s.departure));
    }
    let serial_ms = t.elapsed().as_secs_f64() * 1000.0;

    let workers = host_cores.min(ds.tte.len()).max(1);
    let chunk = ds.tte.len().div_ceil(workers);
    let t = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ds
            .tte
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    for s in c {
                        std::hint::black_box(rep.represent(net, &s.path, s.departure));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("embed worker");
        }
    });
    let parallel_ms = t.elapsed().as_secs_f64() * 1000.0;
    println!(
        "eval_embed {} paths: serial {serial_ms:.1} ms, parallel({workers}) {parallel_ms:.1} ms",
        ds.tte.len()
    );

    let report = Report {
        train_step,
        eval_embed: EmbedTiming { paths: ds.tte.len(), workers, serial_ms, parallel_ms },
    };
    record::save("BENCH_parallel.json", &[], &report).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");

    // Backend comparison. The LSTM matmul shapes at reproduction scale (input
    // width 51, four gates of hidden 32): the per-step recurrent `h·Wh` and
    // input adjoint `dz·Wxᵀ` (`nt`), and per 8-step path the stacked forward
    // `X·Wx` and the weight gradient `Xᵀ·dZ` (`tn`, k = 8), next to the k = 1
    // `tn` update one step at a time, and a batch-16 `x·Wx`.
    let matmul = vec![
        matmul_rate("matmul_acc", 1, 32, 128),
        matmul_rate("matmul_acc", 8, 51, 128),
        matmul_rate("matmul_nt_acc", 1, 128, 51),
        matmul_rate("matmul_tn_acc", 51, 8, 128),
        matmul_rate("matmul_tn_acc", 51, 1, 128),
        matmul_rate("matmul_acc", 16, 51, 128),
    ];
    let wsccl_step = vec![
        time_wsccl_backend(&enc, &ds, KernelBackend::Scalar, 20),
        time_wsccl_backend(&enc, &ds, KernelBackend::Simd, 20),
    ];
    let embed = embed_latency(&enc, &ds);

    let kernels = KernelReport {
        train_step: vec![
            time_wsccl_kernels(&enc, &ds, false, 20),
            time_wsccl_kernels(&enc, &ds, true, 20),
            time_lstm_kernels(&ds, false, 40),
            time_lstm_kernels(&ds, true, 40),
        ],
        kernels: KernelsSection {
            simd_available: wsccl_nn::kernels::simd_available(),
            matmul,
            wsccl_step,
            embed,
        },
    };
    record::save("BENCH_kernels.json", &[], &kernels).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");

    let profile = profile_report(&enc, &ds, 30);
    let top = profile.ops.iter().take(5);
    for o in top {
        println!(
            "profile {:>14}: {:>8} calls, fwd {:>8.2} ms, bwd {:>8.2} ms",
            o.op, o.count, o.forward_ms, o.backward_ms
        );
    }
    std::fs::create_dir_all("results").expect("create results dir");
    let json = serde_json::to_string(&profile).expect("serialize profile report");
    std::fs::write("results/profile.json", json).expect("write results/profile.json");
    println!("wrote results/profile.json");
}
