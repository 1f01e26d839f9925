//! `bench_workloads` — the two downstream workloads riding the frozen
//! representation at streaming scale, recorded in `BENCH_workloads.json`
//! (a [`wsccl_bench::record`]; the body is [`WorkloadsBench`]).
//!
//! **Similarity search.** A corpus of trajectory embeddings (each base path
//! replayed at many departure offsets, so every vector is a distinct
//! *temporal* trajectory) is indexed twice: exact brute-force scan
//! ([`ExactIndex`]) and IVF ANN ([`AnnIndex`]). Held-out query trajectories
//! measure mean per-query latency of both and recall@k of ANN against exact.
//! Contracts at the default 100k-vector corpus: recall@10 ≥ 0.9 at ≥ 5×
//! speedup (tiny scale: ≥ 0.6 at ≥ 1× — IVF cannot beat a brute-force scan
//! of a few thousand vectors by 5×).
//!
//! **OD travel-time estimation.** A commuter-style trip pool over a bounded
//! set of OD pairs (shortest path per pair, many departures each) is split
//! 80/20; [`OdtteModel`] aggregates the training trips per
//! `(origin, destination, hour slot)` and answers test queries *without
//! seeing the path*. Its MAE is gated against the full-path
//! [`EtaRegression`] head fit on the very same training trips — the
//! information ceiling: `od_mae / path_mae ≤ 1.25` (tiny scale: ≤ 2).
//! The binary exits 1 when a contract fails.
//!
//! Scale via `WSCCL_SCALE`: tiny (CI smoke, Aalborg, 4k vectors), small
//! (default, Chengdu, 100k vectors), full (Metro streaming profile, 100k
//! vectors).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use wsccl_bench::eval::par_map;
use wsccl_bench::record::{self, Contract};
use wsccl_bench::runner::{expected_travel_time, WORLD_SEED};
use wsccl_bench::{metro_dataset, Scale};
use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::{TrainedRepresenter, WscModel};
use wsccl_datagen::CityDataset;
use wsccl_downstream::index::{recall_at_k, to_f32, AnnConfig, AnnIndex, ExactIndex, VectorIndex};
use wsccl_downstream::{EtaRegression, OdTrip, OdtteConfig, OdtteModel, Task};
use wsccl_roadnet::shortest::dijkstra_to;
use wsccl_roadnet::{CityProfile, NodeId, Path, RoadNetwork};
use wsccl_traffic::{CongestionModel, SimTime, TciLabeler, WeakLabeler};

/// IVF lists probed per query. Replayed trajectories cluster tightly
/// around their base paths, so a few probed lists already reach recall ≥
/// 0.99 at a ~2.5% scan.
const NPROBE: usize = 8;

/// Similarity-search segment: exact scan vs. IVF ANN over the same
/// embedding set.
#[derive(Serialize)]
struct KnnWorkload {
    /// Vectors in the index.
    num_vectors: usize,
    /// Embedding dimensionality.
    dim: usize,
    /// Queries measured.
    num_queries: usize,
    /// Neighbors per query (the k of recall@k).
    k: usize,
    /// IVF inverted lists.
    n_lists: usize,
    /// Lists probed per query.
    nprobe: usize,
    /// Mean exact (brute-force) query latency, microseconds.
    exact_query_us: f64,
    /// Mean ANN query latency, microseconds.
    ann_query_us: f64,
    /// `exact_query_us / ann_query_us`.
    speedup: f64,
    /// Mean recall@k of ANN against exact.
    recall_at_k: f64,
    /// ANN index build time, milliseconds.
    build_ms: f64,
}

/// OD travel-time estimation segment: per-(O, D, slot) embedding aggregates
/// vs. the full-path ETA head on the same test trips.
#[derive(Serialize)]
struct OdtteWorkload {
    /// Training trips aggregated.
    train_trips: usize,
    /// Held-out trips scored.
    test_trips: usize,
    /// Distinct OD pairs in the training pool.
    od_pairs: usize,
    /// `(O, D, slot)` buckets with data.
    buckets: usize,
    /// OD-TTE MAE (seconds), path-free prediction.
    od_mae: f64,
    od_mare: f64,
    od_mape: f64,
    /// Full-path ETA head MAE (seconds) on the same test trips — the
    /// information ceiling the OD estimator is measured against.
    path_mae: f64,
    /// `od_mae / path_mae`.
    mae_ratio: f64,
    /// Test queries answered from the exact bucket / pair fallback / global
    /// fallback.
    fallback_counts: [usize; 3],
}

#[derive(Serialize)]
struct WorkloadsBench {
    knn: KnnWorkload,
    odtte: OdtteWorkload,
}

/// Replay each base trajectory at `count / base.len()` (rounded up)
/// departure offsets, 15 minutes apart, and embed every (path, departure)
/// through the frozen f32 fast path. Order: all offsets of base 0, then
/// base 1, … — deterministic.
fn embed_replays(
    rep: &TrainedRepresenter,
    base: &[(Path, SimTime)],
    count: usize,
) -> Vec<Vec<f64>> {
    let queries: Vec<(&Path, SimTime)> = (0..count)
        .map(|i| {
            let (path, dep) = &base[i % base.len()];
            ((i / base.len()) as f64 * 900.0, path, *dep)
        })
        .map(|(offset, path, dep)| (path, dep.advance(offset)))
        .collect();
    par_map(&queries, |&(p, t)| rep.embed(p, t))
}

/// One commuter trip: shortest path of an OD pair traversed at a sampled
/// departure, labeled with the TCI weak class of that departure.
fn make_trip(
    net: &RoadNetwork,
    congestion: &CongestionModel,
    labeler: &TciLabeler,
    rep: &TrainedRepresenter,
    origin: NodeId,
    dest: NodeId,
    path: &Path,
    dep: SimTime,
) -> OdTrip {
    OdTrip {
        origin: origin.index() as u64,
        dest: dest.index() as u64,
        departure_seconds: dep.seconds(),
        embedding: rep.embed(path, dep),
        weak_class: labeler.label(dep).class_index(),
        travel_time: expected_travel_time(net, congestion, path, dep),
    }
}

fn main() {
    let scale = Scale::from_env();
    let t0 = Instant::now();

    let (profile_name, ds_cfg, num_vectors, num_queries, od_pairs, trips_per_pair) = match scale {
        Scale::Tiny => {
            ("aalborg", Scale::Tiny.dataset(CityProfile::Aalborg, WORLD_SEED), 4_000, 64, 12, 30)
        }
        Scale::Small => (
            "chengdu",
            Scale::Small.dataset(CityProfile::Chengdu, WORLD_SEED),
            100_000,
            256,
            50,
            200,
        ),
        Scale::Full => ("metro", metro_dataset(WORLD_SEED, 2_000), 100_000, 256, 50, 200),
    };
    let k = 10;
    let nprobe = NPROBE;
    // Contract bounds: (min recall@k, min ANN speedup, max od/path MAE
    // ratio). IVF cannot beat a brute-force scan of a few thousand vectors
    // by 5×; the tiny smoke run only checks the machinery end to end.
    let (min_recall, min_speedup, max_ratio) = match scale {
        Scale::Tiny => (0.6, 1.0, 2.0),
        Scale::Small | Scale::Full => (0.9, 5.0, 1.25),
    };

    eprintln!("[bench_workloads] scale {} ({profile_name}), seed {WORLD_SEED}", scale.name());
    let ds = CityDataset::generate(&ds_cfg);
    eprintln!(
        "[bench_workloads] dataset ready: {} nodes, {} edges, {} unlabeled, {} tte ({:.1?})",
        ds.net.num_nodes(),
        ds.net.num_edges(),
        ds.unlabeled.len(),
        ds.tte.len(),
        t0.elapsed()
    );

    // Frozen representation: a short WSCCL pre-train on a bounded slice of
    // the unlabeled pool — both workloads consume embeddings, not weights,
    // so a light model keeps the bench about the *workloads*.
    let labeler = TciLabeler::new(&ds.net, &ds.congestion);
    let encoder = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::default(), WORLD_SEED));
    let train_pool: Vec<_> = ds.unlabeled.iter().take(500).cloned().collect();
    let epochs = if scale == Scale::Tiny { 1 } else { 2 };
    let mut model = WscModel::new(Arc::clone(&encoder), scale.wsccl(WORLD_SEED), WORLD_SEED);
    let t = Instant::now();
    model.train(&train_pool, &labeler, epochs);
    let rep = model.into_representer("wsccl");
    eprintln!(
        "[bench_workloads] pre-trained on {} samples in {:.1?}",
        train_pool.len(),
        t.elapsed()
    );

    // ---- Similarity search: exact vs. IVF ANN over the same corpus. ----
    let t = Instant::now();
    let corpus_base: Vec<(Path, SimTime)> =
        ds.unlabeled.iter().map(|s| (s.path.clone(), s.departure)).collect();
    let corpus: Vec<Vec<f32>> =
        embed_replays(&rep, &corpus_base, num_vectors).iter().map(|v| to_f32(v)).collect();
    let dim = corpus[0].len();
    // Queries come from the labeled pool — paths the corpus never saw.
    let query_base: Vec<(Path, SimTime)> =
        ds.tte.iter().map(|t| (t.path.clone(), t.departure)).collect();
    let queries: Vec<Vec<f32>> =
        embed_replays(&rep, &query_base, num_queries).iter().map(|v| to_f32(v)).collect();
    eprintln!(
        "[bench_workloads] embedded {num_vectors} corpus + {num_queries} query vectors (dim {dim}) \
         in {:.1?}",
        t.elapsed()
    );

    let ids: Vec<u64> = (0..corpus.len() as u64).collect();
    let exact = ExactIndex::build(dim, &ids, &corpus);
    let t = Instant::now();
    let ann_cfg = AnnConfig { nprobe, ..AnnConfig::default() };
    let ann = AnnIndex::build(dim, &ids, &corpus, &ann_cfg);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "[bench_workloads] ANN built: {} lists, nprobe {nprobe}, mean scan fraction {:.3} \
         ({build_ms:.0} ms)",
        ann.n_lists(),
        ann.mean_scan_fraction()
    );

    for q in queries.iter().take(8) {
        exact.knn(q, k);
        ann.knn(q, k);
    }
    // Min-of-3 passes (as in bench_parallel): the minimum is the least
    // scheduler-noise-contaminated estimate of the per-query cost.
    let time_pass = |index: &dyn VectorIndex| {
        let mut best = f64::INFINITY;
        let mut results = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            results = queries.iter().map(|q| index.knn(q, k)).collect();
            best = best.min(t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
        }
        (results, best)
    };
    let (exact_results, exact_query_us) = time_pass(&exact);
    let (ann_results, ann_query_us) = time_pass(&ann);
    let recall =
        exact_results.iter().zip(&ann_results).map(|(e, a)| recall_at_k(e, a)).sum::<f64>()
            / queries.len() as f64;
    let speedup = exact_query_us / ann_query_us.max(1e-9);
    eprintln!(
        "[bench_workloads] knn: exact {exact_query_us:.0} us/q, ann {ann_query_us:.0} us/q \
         ({speedup:.1}x), recall@{k} {recall:.3}"
    );
    let knn = KnnWorkload {
        num_vectors,
        dim,
        num_queries,
        k,
        n_lists: ann.n_lists(),
        nprobe,
        exact_query_us,
        ann_query_us,
        speedup,
        recall_at_k: recall,
        build_ms,
    };

    // ---- OD travel-time estimation over a bounded OD-pair pool. ----
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x0D7E);
    // Static (off-peak) travel time as the routing weight: commuters follow
    // the habitual shortest route, not a per-departure re-route.
    let t_route = SimTime::from_hm(0, 3, 0);
    let weight = |e| ds.congestion.edge_travel_time(&ds.net, e, t_route);
    let mut pool: Vec<(NodeId, NodeId, Path)> = Vec::new();
    while pool.len() < od_pairs {
        let o = NodeId(rng.random_range(0..ds.net.num_nodes() as u32));
        let d = NodeId(rng.random_range(0..ds.net.num_nodes() as u32));
        if o == d {
            continue;
        }
        if let Some(path) = dijkstra_to(&ds.net, o, d, &weight) {
            if path.edges().len() >= 3 {
                pool.push((o, d, path));
            }
        }
    }
    let mut trips: Vec<OdTrip> = Vec::new();
    for (o, d, path) in &pool {
        for _ in 0..trips_per_pair {
            let day = rng.random_range(0..7u32);
            let sec = rng.random_range(6 * 3600..22 * 3600u32);
            let dep = SimTime::from_day_time(day, sec);
            trips.push(make_trip(&ds.net, &ds.congestion, &labeler, &rep, *o, *d, path, dep));
        }
    }
    // Deterministic 80/20 split: every 5th trip is held out, so each OD
    // pair contributes to both sides.
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for (i, trip) in trips.into_iter().enumerate() {
        if i % 5 == 4 {
            test.push(trip);
        } else {
            train.push(trip);
        }
    }
    eprintln!(
        "[bench_workloads] od pool: {} pairs, {} train / {} test trips ({:.1?})",
        pool.len(),
        train.len(),
        test.len(),
        t.elapsed()
    );

    let t = Instant::now();
    let od = OdtteModel::fit(&train, &OdtteConfig::default());
    let (od_scores, fallback_counts) = od.evaluate(&test);
    eprintln!(
        "[bench_workloads] odtte: {} buckets, MAE {:.1}s, fallbacks {:?} ({:.1?})",
        od.n_buckets(),
        od_scores.mae,
        fallback_counts,
        t.elapsed()
    );

    // The full-path ceiling: the standard ETA head fit on the same training
    // trips, predicting from each test trip's own path embedding.
    let task = EtaRegression::default();
    let x: Vec<Vec<f64>> = train.iter().map(|t| t.embedding.clone()).collect();
    let y: Vec<f64> = train.iter().map(|t| t.travel_time).collect();
    let head = task.fit(&x, &y);
    let pred: Vec<f64> = test.iter().map(|t| task.predict(&head, &t.embedding)).collect();
    let truth: Vec<f64> = test.iter().map(|t| t.travel_time).collect();
    let path_scores = task.score(&truth, &pred, &[]);
    let mae_ratio = od_scores.mae / path_scores.mae.max(1e-9);
    eprintln!(
        "[bench_workloads] path head MAE {:.1}s -> od/path ratio {mae_ratio:.3}",
        path_scores.mae
    );
    let odtte = OdtteWorkload {
        train_trips: train.len(),
        test_trips: test.len(),
        od_pairs: pool.len(),
        buckets: od.n_buckets(),
        od_mae: od_scores.mae,
        od_mare: od_scores.mare,
        od_mape: od_scores.mape,
        path_mae: path_scores.mae,
        mae_ratio,
        fallback_counts,
    };

    let contracts = [
        Contract::at_least("knn_recall_at_10", recall, min_recall),
        Contract::at_least("knn_speedup", speedup, min_speedup),
        Contract::at_most("odtte_mae_ratio", mae_ratio, max_ratio),
    ];
    if let Err(e) = record::save("BENCH_workloads.json", &contracts, &WorkloadsBench { knn, odtte })
    {
        eprintln!("[bench_workloads] failed to write BENCH_workloads.json: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_workloads.json: recall@{k} {recall:.3} at {speedup:.1}x over {num_vectors} \
         vectors, od/path MAE ratio {mae_ratio:.3} in {:.1?}",
        t0.elapsed()
    );
    record::enforce(&contracts);
}
