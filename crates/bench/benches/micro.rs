//! Criterion microbenchmarks for the core computational kernels:
//! encoder forward/backward, WSC losses, node2vec walks and skip-gram,
//! Dijkstra/Yen, HMM map matching, and GBDT fitting.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use wsccl_core::config::WscclConfig;
use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::wsc::WscModel;
use wsccl_datagen::{CityDataset, DatasetConfig};
use wsccl_downstream::{EtaRegression, GbConfig, Task};
use wsccl_graphembed::skipgram::SkipGram;
use wsccl_graphembed::temporal::build_temporal_graph;
use wsccl_graphembed::walks::AdjGraph;
use wsccl_graphembed::Node2VecConfig;
use wsccl_mapmatch::{map_match, EdgeSpatialIndex, MatchConfig};
use wsccl_roadnet::shortest::dijkstra;
use wsccl_roadnet::yen::k_shortest_paths;
use wsccl_roadnet::{CityProfile, NodeId};
use wsccl_traffic::{CongestionModel, PopLabeler, SimTime, TripConfig, TripGenerator};

fn bench_encoder(c: &mut Criterion) {
    let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 1));
    let enc = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::default(), 1));
    let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::default(), 1);
    let sample = ds.unlabeled.iter().max_by_key(|s| s.path.len()).unwrap().clone();

    c.bench_function("encoder_embed_path", |b| {
        b.iter(|| model.embed(&sample.path, sample.departure))
    });

    c.bench_function("wsc_train_step_batch16", |b| {
        b.iter(|| model.train_step(&ds.unlabeled, &PopLabeler))
    });
}

/// Lock-free inference through a shared representer; compare against the
/// `bench_parallel` binary for serial-vs-parallel numbers.
fn bench_parallel_inference(c: &mut Criterion) {
    let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 1));
    let enc = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::tiny(), 1));
    let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 1);
    model.train_step(&ds.unlabeled, &PopLabeler);
    let rep = model.into_representer("WSCCL");
    use wsccl_core::PathRepresenter;
    c.bench_function("eval_embed_throughput", |b| {
        b.iter(|| {
            ds.tte
                .iter()
                .take(16)
                .map(|t| rep.represent(&ds.net, &t.path, t.departure).len())
                .sum::<usize>()
        })
    });
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let net = CityProfile::Chengdu.generate(2);
    c.bench_function("dijkstra_full_city", |b| {
        b.iter(|| dijkstra(&net, NodeId(0), &|e| net.edge(e).length, &[], &[]))
    });
    let w = |e| net.edge(e).length;
    c.bench_function("yen_k5", |b| {
        b.iter(|| k_shortest_paths(&net, NodeId(0), NodeId(200), 5, &w))
    });
}

fn bench_node2vec_walks(c: &mut Criterion) {
    let net = CityProfile::Aalborg.generate(3);
    let edges: Vec<(usize, usize)> =
        net.edges().iter().map(|e| (e.from.index(), e.to.index())).collect();
    let g = AdjGraph::from_edges(net.num_nodes(), &edges);
    c.bench_function("node2vec_walk_len20", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(7),
            |mut rng| g.node2vec_walk(&mut rng, 0, 20, 1.0, 2.0),
            BatchSize::SmallInput,
        )
    });
}

/// One skip-gram epoch over the temporal graph's walk corpus: the bulk of
/// building the frozen encoder tables.
fn bench_node2vec_sgns(c: &mut Criterion) {
    let g = build_temporal_graph();
    let cfg = Node2VecConfig { dim: 16, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(8);
    let walks: Vec<Vec<usize>> = (0..cfg.walks_per_node)
        .flat_map(|_| 0..g.num_nodes())
        .map(|start| g.node2vec_walk(&mut rng, start, cfg.walk_len, cfg.p, cfg.q))
        .collect();
    c.bench_function("node2vec_sgns_temporal", |b| {
        b.iter_batched(
            || {
                let mut rng = StdRng::seed_from_u64(9);
                let model = SkipGram::new(&mut rng, g.num_nodes(), cfg.dim);
                (rng, model)
            },
            |(mut rng, mut model)| {
                model.epoch(&mut rng, &walks, cfg.window, cfg.negatives, cfg.lr);
                model
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_map_matching(c: &mut Criterion) {
    let net = CityProfile::Aalborg.generate(4);
    let model = CongestionModel::new(&net, 1.5, 4);
    let mut generator = TripGenerator::new(&net, &model, TripConfig::default(), 4);
    let trip = generator.generate_trip_at(SimTime::from_hm(1, 9, 0));
    let traj = generator.trip_to_trajectory(&trip);
    let index = EdgeSpatialIndex::new(&net, 200.0);
    let cfg = MatchConfig::default();
    c.bench_function("hmm_map_match_one_trajectory", |b| {
        b.iter(|| map_match(&net, &index, &traj, &cfg))
    });
}

fn bench_gbdt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    use rand::RngExt;
    let x: Vec<Vec<f64>> =
        (0..400).map(|_| (0..32).map(|_| rng.random_range(-1.0..1.0)).collect()).collect();
    let y: Vec<f64> = x.iter().map(|r| r.iter().sum::<f64>()).collect();
    let task40 = EtaRegression { gb: GbConfig { n_trees: 40, ..Default::default() } };
    c.bench_function("gbr_fit_400x32", |b| b.iter(|| task40.fit(&x, &y)));
    let task = EtaRegression::default();
    let model = task.fit(&x, &y);
    c.bench_function("gbr_predict", |b| b.iter(|| task.predict(&model, &x[0])));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_encoder, bench_parallel_inference, bench_graph_algorithms,
              bench_node2vec_walks, bench_node2vec_sgns, bench_map_matching, bench_gbdt
}
criterion_main!(benches);
