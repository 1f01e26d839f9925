//! `serve_hot` and `serve_cold`: one closed-loop client against the serving
//! thread.
//!
//! * `serve_hot` sends single `eta` calls over a Zipf-skewed set of popular
//!   `(path, departure slot)` keys that fit in the embedding cache, warmed
//!   before timing: every call is a cache hit plus the ETA head, so the
//!   request path itself (queue, wakes, probe, reply) is what is measured.
//! * `serve_cold` sends trip-query sessions: `embed_many` over a candidate
//!   group at a fresh departure (cache misses, one fused forward pass), then
//!   `eta` and `knn` on the picked candidate (cache hits plus the ETA head
//!   and the IVF index scan).
//!
//! Both serve freshly initialised weights: serving cost depends only on the
//! architecture and path lengths, and training stays out of set-up. Every
//! answer is checked against the direct computation on the same weights.
//! Both run the client and the server on one CPU (see [`crate::pin`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use wsccl_core::encoder::BatchScratch;
use wsccl_core::{TemporalPathEncoder, TrainedRepresenter, WscModel, WscclConfig};
use wsccl_datagen::CityDataset;
use wsccl_downstream::index::{recall_at_k, to_f32, Neighbor, VectorIndex};
use wsccl_roadnet::Path;
use wsccl_serve::{Client, EmbeddingCache, ServeConfig, ServeError, ServeStats, Server};
use wsccl_traffic::SimTime;

use crate::pin::OneCpu;
use crate::inputs::{self, splitmix, DataSizes, HotKeys, Session, CANDIDATES, MODEL_SEED};
use crate::model::{self, secs, span_p50, EtaHead, Indexes, K};
use crate::provenance::Fnv;
use crate::report::Report;
use crate::stats::{self, LatencySample, MIN_TAIL};
use crate::trace::{Tracer, NO_OP};

/// Length of one measurement window of a timed phase.
const WINDOW: Duration = Duration::from_secs(1);
/// Latency samples kept per window (256 KiB).
const WINDOW_SAMPLES: usize = 1 << 15;
/// Requests from the head of the hot stream sent during warm-up.
const HOT_WARM_REQUESTS: usize = 20_000;

pub struct ServeParams {
    pub data: DataSizes,
    pub cfg: WscclConfig,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub hot_keys: usize,
    pub hot_stream: usize,
    /// Replayed trips in the similarity index.
    pub corpus: usize,
    pub nprobe: usize,
    /// Distinct sessions in the cold stream (it is cycled).
    pub sessions: usize,
    pub warm_sessions: usize,
    /// Sessions whose picks are scored for `recall_at_10`.
    pub recall_queries: usize,
}

impl ServeParams {
    pub fn bench() -> Self {
        Self {
            data: DataSizes { unlabeled: 1200, tte: 2000, groups: 300 },
            cfg: model::wsccl_config(),
            setup_reps: 5,
            hot_keys: 1000,
            hot_stream: 1 << 20,
            corpus: 3000,
            nprobe: 8,
            sessions: 300 * 100,
            warm_sessions: 600,
            recall_queries: 1000,
        }
    }
}

/// A running server and the direct-path twin of its model.
struct Served {
    ds: CityDataset,
    /// Same weights as the served model, called directly.
    rep: TrainedRepresenter,
    encoder: Arc<TemporalPathEncoder>,
    server: Server,
    eta: EtaHead,
    index: Option<Indexes>,
    gen_s: f64,
    encoder_s: f64,
    /// Encoder tables plus both representers: the wait for a servable model.
    model_s: f64,
}

fn set_up(seed: u64, p: &ServeParams, cold: bool, tracer: &mut Tracer) -> Served {
    let t = Instant::now();
    tracer.begin("datagen.generate", "datagen", NO_OP);
    let data = DataSizes { groups: if cold { p.data.groups } else { 0 }, ..p.data };
    let ds = inputs::generate(seed, data);
    tracer.end();
    let gen_s = secs(t);

    let t = Instant::now();
    tracer.begin("core.encoder_build", "graphembed", NO_OP);
    let encoder = Arc::new(TemporalPathEncoder::new(&ds.net, p.cfg.encoder.clone(), p.cfg.seed));
    tracer.end();
    let encoder_s = secs(t);
    let model = WscModel::new(Arc::clone(&encoder), p.cfg.clone(), MODEL_SEED);
    let (params, weights) = model.weights();
    let build = |name: &str| {
        TrainedRepresenter::from_parts(Arc::clone(&encoder), params.clone(), weights.clone(), name)
    };
    let (served, rep) = (build("served"), build("direct"));
    let model_s = secs(t);

    let eta = model::fit_eta(&rep, &ds, tracer);
    let index = cold.then(|| {
        let corpus = model::embed_all(&rep, &model::replay_corpus(&ds, p.corpus), tracer);
        model::build_indexes(&corpus, p.nprobe, tracer)
    });
    let server = Server::spawn(served, ServeConfig::default());
    let client = server.client();
    client.set_eta_head(eta.head.clone()).expect("server accepts the ETA head");
    if let Some(idx) = &index {
        let ann: Arc<dyn VectorIndex> = idx.ann.clone();
        client.set_index(ann).expect("server accepts the index");
    }
    Served { ds, rep, encoder, server, eta, index, gen_s, encoder_s, model_s }
}

/// Digest of embedding values, bit for bit.
fn emb_digest(v: &[f64]) -> u64 {
    v.iter().fold(0x243f_6a88_85a3_08d3, |h, x| splitmix(h ^ x.to_bits()))
}

/// A served ETA equals the head's prediction on the direct embedding, bit
/// for bit.
fn eta_matches(got: &Result<f64, ServeError>, want: f64) -> bool {
    got.as_ref().is_ok_and(|v| v.to_bits() == want.to_bits())
}

type Embeddings = Result<Vec<Result<Arc<Vec<f64>>, ServeError>>, ServeError>;

/// Served embeddings equal the direct path's, bit for bit (by digest).
fn embeddings_match(got: &Embeddings, want: &[u64]) -> bool {
    got.as_ref().is_ok_and(|e| {
        e.len() == want.len()
            && e.iter().zip(want).all(|(r, &d)| r.as_ref().is_ok_and(|v| emb_digest(v) == d))
    })
}

/// A served top-k equals the index's answer on the same embedding.
fn knn_matches(got: &Result<Vec<Neighbor>, ServeError>, want: &[Neighbor]) -> bool {
    got.as_ref().is_ok_and(|v| v == want)
}

/// One second of a timed phase.
struct Window {
    lat_us: LatencySample,
    wall_s: f64,
    traced: bool,
}

/// One timed phase, split into windows of `WINDOW` each. The end-to-end
/// figures are interquartile means over the windows ([`stats::iq_mean`]),
/// so a burst of interference from outside the process moves one window,
/// not the run's result. A traced
/// run alternates untraced and traced windows, so the tracing overhead is
/// measured side by side rather than across a drift of the host's speed.
struct Phase {
    windows: Vec<Window>,
    before: ServeStats,
    after: ServeStats,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.lat_us.seen()).sum()
    }

    /// Interquartile mean of `f` over the windows traced (or not) as asked.
    fn per_window(&self, traced: bool, f: impl Fn(&Window) -> Option<f64>) -> Option<f64> {
        let v: Option<Vec<f64>> =
            self.windows.iter().filter(|w| w.traced == traced).map(f).collect();
        v.filter(|v| !v.is_empty()).map(|v| stats::iq_mean(&v))
    }

    fn ops_per_s(&self, traced: bool) -> f64 {
        self.per_window(traced, |w| Some(w.lat_us.seen() as f64 / w.wall_s)).unwrap_or(f64::NAN)
    }

    fn p50_us(&self, traced: bool) -> f64 {
        self.per_window(traced, |w| Some(stats::percentile(&w.lat_us.sorted(), 0.5)))
            .unwrap_or(f64::NAN)
    }

    /// Interquartile mean of the windows' p99s; `None` unless every window has
    /// `MIN_TAIL` samples beyond its p99.
    fn p99_us(&self) -> Option<f64> {
        self.per_window(false, |w| stats::tail_percentile(&w.lat_us.sorted(), 0.99, MIN_TAIL))
    }

    /// Traced against untraced windows.
    fn report_overhead(&self, report: &mut Report) {
        report.metric(
            "trace.overhead_p50_ratio",
            self.p50_us(true) / self.p50_us(false) - 1.0,
            "ratio",
        );
        report.metric(
            "trace.overhead_ops_ratio",
            self.ops_per_s(false) / self.ops_per_s(true) - 1.0,
            "ratio",
        );
    }
}

fn stats_of(client: &Client) -> ServeStats {
    client.stats().expect("server answers stats")
}

/// Run `op(i)` for `i = start, start + 1, …` until `seconds` have passed;
/// `op` returns the op's own latency. When `tracer` is on, every other
/// window runs with it off.
fn closed_loop(
    client: &Client,
    seconds: f64,
    start: usize,
    tracer: &mut Tracer,
    mut op: impl FnMut(usize, &mut Tracer) -> Duration,
) -> Phase {
    let alternate = tracer.on();
    let n_windows = (seconds / WINDOW.as_secs_f64()).ceil().max(1.0) as usize;
    let mut samples: Vec<LatencySample> =
        (0..n_windows).map(|_| LatencySample::new(WINDOW_SAMPLES)).collect();
    let mut windows = Vec::with_capacity(n_windows);
    let before = stats_of(client);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (mut win_start, mut i) = (t0, start);
    let mut lat_us = samples.pop().expect("at least one window");
    tracer.set_on(false);
    loop {
        lat_us.push(op(i, tracer).as_secs_f64() * 1e6);
        i += 1;
        let now = Instant::now();
        let done = now >= deadline;
        if done || now - win_start >= WINDOW {
            let traced = tracer.on();
            windows.push(Window { lat_us, wall_s: (now - win_start).as_secs_f64(), traced });
            lat_us = samples.pop().unwrap_or_else(|| LatencySample::new(WINDOW_SAMPLES));
            win_start = now;
            tracer.set_on(alternate && windows.len() % 2 == 1);
        }
        if done {
            break;
        }
    }
    tracer.set_on(alternate);
    let after = stats_of(client);
    Phase { windows, before, after }
}

fn end_to_end(report: &mut Report, setup: &[f64], models: &[f64], ph: &Phase) {
    for (n, w) in ph.windows.iter().enumerate() {
        let rate = w.lat_us.seen() as f64 / w.wall_s;
        stats::log_tail(&format!("window {n} ({rate:.0} ops/s)"), &w.lat_us.sorted());
    }
    let p99 = ph.p99_us();
    report.check(
        "latency_p99_tail",
        p99.is_some(),
        format!("{} ops in {} windows", ph.ops(), ph.windows.len()),
    );
    report.metric("setup_s", stats::median(setup), "s");
    report.metric("ops_per_s", ph.ops_per_s(false), "1/s");
    report.metric("latency_p50_us", ph.p50_us(false), "us");
    report.metric("latency_p99_us", p99.unwrap_or(f64::NAN), "us");
    report.metric("time_to_model_s", stats::iq_mean(models), "s");
}

/// Quality metrics of the served model, shared by both workloads: the
/// installed ETA head's held-out error and one training epoch from the
/// served weights (profiled when tracing).
fn model_quality(s: &Served, cfg: &WscclConfig, tracer: &mut Tracer, report: &mut Report) {
    let eta_mae = s.eta.mae(tracer);
    let mut model = WscModel::new(Arc::clone(&s.encoder), cfg.clone(), MODEL_SEED);
    if tracer.on() {
        model.enable_profiling();
    }
    tracer.begin("train.epoch", "train", NO_OP);
    let log = model::one_epoch(&mut model, &s.ds);
    tracer.end();
    if tracer.on() {
        model::tape_metrics(report, &model, log.steps);
        report.metric("train.applied_step_ratio", log.applied as f64 / log.steps as f64, "ratio");
    } else {
        report.metric("eta_mae_s", eta_mae, "s");
        report.metric("final_loss", log.last_epoch_loss, "loss");
    }
}

/// Per-layer figures both workloads report the same way.
fn layer_common(s: &Served, setup: &[(f64, f64)], tracer: &Tracer, report: &mut Report) {
    let gen_s = stats::median(&setup.iter().map(|x| x.0).collect::<Vec<_>>());
    let paths = s.ds.unlabeled.len() + s.ds.tte.len() + s.ds.groups.len();
    report.metric("datagen.generate_s", gen_s, "s");
    report.metric("datagen.paths_per_s", paths as f64 / gen_s, "1/s");
    report.metric(
        "core.encoder_build_s",
        stats::median(&setup.iter().map(|x| x.1).collect::<Vec<_>>()),
        "s",
    );
    report.metric("core.embed_batch_us", span_p50(tracer, "core.embed_batch_with"), "us");
    report.metric("downstream.eta_fit_s", s.eta.fit_s, "s");
    report.metric("downstream.eta_predict_us", span_p50(tracer, "downstream.eta_predict"), "us");
}

fn serve_layer(report: &mut Report, ph: &Phase, tracer: &Tracer) {
    ph.report_overhead(report);
    let (b, a) = (&ph.before, &ph.after);
    let hits = a.cache.hits - b.cache.hits;
    let lookups = hits + a.cache.misses - b.cache.misses;
    let batches = a.batches - b.batches;
    report.metric("serve.cache.hit_rate", hits as f64 / lookups.max(1) as f64, "ratio");
    report.metric("serve.cache.evictions", (a.cache.evictions - b.cache.evictions) as f64, "count");
    report.metric("serve.batches", batches as f64, "count");
    report.metric(
        "serve.mean_batch",
        (a.batched_embeds - b.batched_embeds) as f64 / batches.max(1) as f64,
        "items",
    );
    report.metric("serve.max_batch_seen", a.max_batch_seen as f64, "items");
    for call in ["eta", "embed_many", "knn"] {
        let name = format!("serve.call.{call}");
        let mut d = tracer.durations_us(&name).to_vec();
        stats::sort(&mut d);
        let p50 = if d.is_empty() { 0.0 } else { stats::percentile(&d, 0.5) };
        let p99 = stats::tail_percentile(&d, 0.99, MIN_TAIL).unwrap_or(0.0);
        report.metric(&format!("{name}_us.p50"), p50, "us");
        report.metric(&format!("{name}_us.p99"), p99, "us");
    }
}

/// Median of per-chunk mean times, µs per item.
fn chunked_us(samples: &[(Duration, usize)]) -> f64 {
    let per: Vec<f64> =
        samples.iter().map(|(d, n)| d.as_secs_f64() * 1e6 / (*n).max(1) as f64).collect();
    stats::median(&per)
}

pub fn run_hot(
    seed: u64,
    seconds: f64,
    p: &ServeParams,
    tracer: &mut Tracer,
    report: &mut Report,
) -> String {
    let _cpu = OneCpu::enter();
    let mut setup = Vec::new();
    let mut parts = Vec::new();
    let mut models = Vec::new();
    let mut last = None;
    let mut digests = Vec::new();
    for _ in 0..p.setup_reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let s = set_up(seed, p, false, tracer);
        let hot = inputs::hot_keys(seed, &s.ds, p.hot_keys, p.hot_stream);
        // Warm-up: every key once, then a slice of the stream.
        let client = s.server.client();
        for &(i, t) in &hot.keys {
            client.eta(&s.ds.unlabeled[i].path, t).expect("warm-up eta");
        }
        for &k in hot.stream.iter().take(HOT_WARM_REQUESTS) {
            let (i, t) = hot.keys[k as usize];
            client.eta(&s.ds.unlabeled[i].path, t).expect("warm-up eta");
        }
        setup.push(secs(t));
        parts.push((s.gen_s, s.encoder_s));
        models.push(s.model_s);
        digests.push(hot_digest(&s.ds, &hot));
        last = Some((s, hot));
    }
    let (s, hot) = last.expect("at least one set-up");
    let digest = format!("{:016x}", digests[0]);
    report.check(
        "input_digest_stable",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} set-ups, digest {digest}", digests.len()),
    );

    // Oracle: the direct path's answer for every key.
    let key_paths: Vec<(&Path, SimTime)> =
        hot.keys.iter().map(|&(i, t)| (&s.ds.unlabeled[i].path, t)).collect();
    let key_embs = model::embed_all(&s.rep, &key_paths, tracer);
    let expected: Vec<f64> = key_embs
        .iter()
        .map(|e| {
            tracer.begin("downstream.eta_predict", "downstream", NO_OP);
            let v = s.eta.head.predict(e);
            tracer.end();
            v
        })
        .collect();

    let client = s.server.client();
    let ph = closed_loop(&client, seconds, HOT_WARM_REQUESTS, tracer, |i, tracer| {
        let k = hot.stream[i % hot.stream.len()] as usize;
        let (path, t) = key_paths[k];
        let t0 = Instant::now();
        let got = client.eta(path, t);
        let t1 = Instant::now();
        tracer.record("serve.call.eta", "serve", i as u64, t0, t1);
        report.op();
        if !eta_matches(&got, expected[k]) {
            report.op_failed(|| format!("eta for key {k}: {got:?}, direct {}", expected[k]));
        }
        t1 - t0
    });

    // A sample of served embeddings against the direct path.
    for k in (0..hot.keys.len()).step_by((hot.keys.len() / 64).max(1)) {
        let (path, t) = key_paths[k];
        let got = client.embed(path, t).map(|v| vec![Ok(v)]);
        if !embeddings_match(&got, &[emb_digest(&key_embs[k])]) {
            report.op_failed(|| format!("served embedding of key {k} differs: {got:?}"));
        }
    }
    let (b, a) = (&ph.before, &ph.after);
    let hits = a.cache.hits - b.cache.hits;
    let hit_rate = hits as f64 / (hits + a.cache.misses - b.cache.misses).max(1) as f64;
    report.check("hot_hit_rate", hit_rate >= 0.99, format!("{hit_rate} (>= 0.99)"));

    // Similarity search quality over the served embeddings.
    let corpus = model::embed_all(&s.rep, &model::replay_corpus(&s.ds, p.corpus), tracer);
    let idx = model::build_indexes(&corpus, p.nprobe, tracer);
    let recall = idx.recall(&key_embs, tracer);
    model_quality(&s, &p.cfg, tracer, report);

    if !tracer.on() {
        end_to_end(report, &setup, &models, &ph);
        report.metric("recall_at_10", recall, "ratio");
        report.metric("peak_rss_mib", model::peak_rss_mib(), "MiB");
        return digest;
    }
    layer_common(&s, &parts, tracer, report);
    report.metric("downstream.index_build_s", idx.build_s, "s");
    report.metric("downstream.knn_us", span_p50(tracer, "downstream.knn"), "us");
    report.metric("downstream.knn_scan_fraction", idx.ann.mean_scan_fraction(), "ratio");
    serve_layer(report, &ph, tracer);
    let eta_direct = span_p50(tracer, "downstream.eta_predict");
    report.metric("serve.overhead_us", span_p50(tracer, "serve.call.eta") - eta_direct, "us");

    // Standalone cache replaying the workload's keys: inserts, then the
    // request stream's probes.
    let cfg = ServeConfig::default();
    let cache = EmbeddingCache::new(cfg.cache_capacity, cfg.cache_shards);
    let mut inserts = Vec::new();
    for (chunk, embs) in key_paths.chunks(8).zip(key_embs.chunks(8)) {
        let vals: Vec<Arc<Vec<f64>>> = embs.iter().map(|e| Arc::new(e.clone())).collect();
        let t = Instant::now();
        for (&(path, dep), v) in chunk.iter().zip(vals) {
            cache.insert(EmbeddingCache::key(path, dep), path, v, cache.epoch());
        }
        inserts.push((t.elapsed(), chunk.len()));
    }
    let mut gets = Vec::new();
    for chunk in hot.stream.chunks(64).take(4096) {
        let t = Instant::now();
        for &k in chunk {
            let (path, dep) = key_paths[k as usize];
            std::hint::black_box(cache.get(&EmbeddingCache::key(path, dep), path));
        }
        gets.push((t.elapsed(), chunk.len()));
    }
    report.metric("serve.cache.get_us", chunked_us(&gets), "us");
    report.metric("serve.cache.insert_us", chunked_us(&inserts), "us");
    digest
}

fn hot_digest(ds: &CityDataset, hot: &HotKeys) -> u64 {
    let mut h = Fnv::default();
    inputs::digest_dataset(&mut h, ds);
    for &(i, t) in &hot.keys {
        h.u64(i as u64);
        h.u64(t.seconds() as u64);
    }
    hot.stream.iter().for_each(|&k| h.u64(k as u64));
    h.finish()
}

fn cold_digest(ds: &CityDataset, sessions: &[Session]) -> u64 {
    let mut h = Fnv::default();
    inputs::digest_dataset(&mut h, ds);
    for s in sessions {
        h.u64(s.group as u64);
        h.u64(s.pick as u64);
        h.u64(s.departure.seconds() as u64);
    }
    h.finish()
}

/// The direct path's answers for one session.
struct Expected {
    candidates: [u64; CANDIDATES],
    eta: f64,
    knn: Vec<Neighbor>,
}

fn session_queries<'a>(ds: &'a CityDataset, s: &Session) -> Vec<(&'a Path, SimTime)> {
    ds.groups[s.group].candidates.iter().map(|p| (p, s.departure)).collect()
}

pub fn run_cold(
    seed: u64,
    seconds: f64,
    p: &ServeParams,
    tracer: &mut Tracer,
    report: &mut Report,
) -> String {
    let _cpu = OneCpu::enter();
    let mut setup = Vec::new();
    let mut parts = Vec::new();
    let mut models = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for _ in 0..p.setup_reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let s = set_up(seed, p, true, tracer);
        let sessions = inputs::sessions(seed, &s.ds, p.sessions);
        // Warm-up: the first sessions of the stream, unchecked.
        let client = s.server.client();
        for sess in sessions.iter().take(p.warm_sessions) {
            let pick = &s.ds.groups[sess.group].candidates[sess.pick];
            client.embed_many(&session_queries(&s.ds, sess)).expect("warm-up embed_many");
            client.eta(pick, sess.departure).expect("warm-up eta");
            client.knn(pick, sess.departure, K).expect("warm-up knn");
        }
        setup.push(secs(t));
        parts.push((s.gen_s, s.encoder_s));
        models.push(s.model_s);
        digests.push(cold_digest(&s.ds, &sessions));
        last = Some((s, sessions));
    }
    let (s, sessions) = last.expect("at least one set-up");
    let digest = format!("{:016x}", digests[0]);
    report.check(
        "input_digest_stable",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} set-ups, digest {digest}", digests.len()),
    );
    let idx = s.index.as_ref().expect("the cold set-up builds an index");

    // Oracle: every session's answers on the direct path.
    let mut scratch = BatchScratch::default();
    let mut picks = Vec::new();
    let expected: Vec<Expected> = sessions
        .iter()
        .enumerate()
        .map(|(n, sess)| {
            tracer.begin("core.embed_batch_with", "core", NO_OP);
            let embs = s.rep.embed_batch_with(&session_queries(&s.ds, sess), &mut scratch);
            tracer.end();
            let pick = &embs[sess.pick];
            tracer.begin("downstream.eta_predict", "downstream", NO_OP);
            let eta = s.eta.head.predict(pick);
            tracer.end();
            let q = to_f32(pick);
            tracer.begin("downstream.knn", "downstream", NO_OP);
            let knn = idx.ann.knn(&q, K);
            tracer.end();
            if n < p.recall_queries {
                picks.push(q);
            }
            let mut candidates = [0; CANDIDATES];
            for (c, e) in candidates.iter_mut().zip(&embs) {
                *c = emb_digest(e);
            }
            Expected { candidates, eta, knn }
        })
        .collect();

    let client = s.server.client();
    let ph = closed_loop(&client, seconds, p.warm_sessions, tracer, |i, tracer| {
        let n = i % sessions.len();
        let (sess, want) = (&sessions[n], &expected[n]);
        let pick = &s.ds.groups[sess.group].candidates[sess.pick];
        let queries = session_queries(&s.ds, sess);
        tracer.begin("session", "bench", i as u64);
        let t0 = Instant::now();
        let embs = client.embed_many(&queries);
        let t1 = Instant::now();
        tracer.record("serve.call.embed_many", "serve", i as u64, t0, t1);
        let eta = client.eta(pick, sess.departure);
        let t2 = Instant::now();
        tracer.record("serve.call.eta", "serve", i as u64, t1, t2);
        let knn = client.knn(pick, sess.departure, K);
        let t3 = Instant::now();
        tracer.record("serve.call.knn", "serve", i as u64, t2, t3);
        tracer.end();

        report.op();
        let embs_ok = embeddings_match(&embs, &want.candidates);
        let eta_ok = eta_matches(&eta, want.eta);
        let knn_ok = knn_matches(&knn, &want.knn);
        if !(embs_ok && eta_ok && knn_ok) {
            report.op_failed(|| {
                    format!(
                        "session {n}: embeddings ok {embs_ok}, eta {eta:?} vs {} ok {eta_ok}, knn ok {knn_ok}",
                        want.eta
                    )
                });
        }
        t3 - t0
    });

    let (b, a) = (&ph.before, &ph.after);
    let miss_share =
        (a.cache.misses - b.cache.misses) as f64 / (CANDIDATES as f64 * ph.ops() as f64);
    report.check("cold_candidate_miss_share", miss_share >= 0.9, format!("{miss_share} (>= 0.9)"));
    report.check(
        "cold_max_batch_seen",
        a.max_batch_seen >= CANDIDATES,
        format!("{} (>= {CANDIDATES})", a.max_batch_seen),
    );
    // Served answers equal the IVF answers (checked per session); score
    // them against exact search over the same corpus.
    let recall = picks
        .iter()
        .zip(&expected)
        .map(|(q, want)| recall_at_k(&idx.exact.knn(q, K), &want.knn))
        .sum::<f64>()
        / picks.len().max(1) as f64;
    model_quality(&s, &p.cfg, tracer, report);

    if !tracer.on() {
        end_to_end(report, &setup, &models, &ph);
        report.metric("recall_at_10", recall, "ratio");
        report.metric("peak_rss_mib", model::peak_rss_mib(), "MiB");
        return digest;
    }
    layer_common(&s, &parts, tracer, report);
    report.metric("downstream.index_build_s", idx.build_s, "s");
    report.metric("downstream.knn_us", span_p50(tracer, "downstream.knn"), "us");
    report.metric("downstream.knn_scan_fraction", idx.ann.mean_scan_fraction(), "ratio");
    serve_layer(report, &ph, tracer);
    let direct = span_p50(tracer, "core.embed_batch_with")
        + span_p50(tracer, "downstream.eta_predict")
        + span_p50(tracer, "downstream.knn");
    report.metric("serve.overhead_us", span_p50(tracer, "session") - direct, "us");

    // Standalone cache replaying the session stream's lookups: candidate
    // probes and inserts, then the pick's two probes.
    let cfg = ServeConfig::default();
    let cache = EmbeddingCache::new(cfg.cache_capacity, cfg.cache_shards);
    let v = Arc::new(vec![0.0; s.encoder.out_dim()]);
    let (mut gets, mut inserts) = (Vec::new(), Vec::new());
    for sess in sessions.iter().take(20_000) {
        let queries = session_queries(&s.ds, sess);
        let keys: Vec<_> = queries.iter().map(|&(p, t)| EmbeddingCache::key(p, t)).collect();
        let pick = queries[sess.pick].0;
        let t = Instant::now();
        let misses: Vec<usize> =
            (0..CANDIDATES).filter(|&j| cache.get(&keys[j], queries[j].0).is_none()).collect();
        let t_get = t.elapsed();
        let t = Instant::now();
        for &j in &misses {
            cache.insert(keys[j], queries[j].0, Arc::clone(&v), cache.epoch());
        }
        inserts.push((t.elapsed(), misses.len()));
        let t = Instant::now();
        std::hint::black_box(cache.get(&keys[sess.pick], pick));
        std::hint::black_box(cache.get(&keys[sess.pick], pick));
        gets.push((t_get + t.elapsed(), CANDIDATES + 2));
    }
    report.metric("serve.cache.get_us", chunked_us(&gets), "us");
    report.metric("serve.cache.insert_us", chunked_us(&inserts), "us");
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeParams {
        ServeParams {
            data: DataSizes { unlabeled: 60, tte: 100, groups: 12 },
            cfg: WscclConfig { seed: MODEL_SEED, ..WscclConfig::tiny() },
            setup_reps: 2,
            hot_keys: 50,
            hot_stream: 4000,
            corpus: 300,
            nprobe: 4,
            sessions: 12 * 150,
            warm_sessions: 24,
            recall_queries: 50,
        }
    }

    fn ok_embs(vs: &[Vec<f64>]) -> Embeddings {
        Ok(vs.iter().map(|v| Ok(Arc::new(v.clone()))).collect())
    }

    #[test]
    fn eta_check_fires_on_any_difference() {
        assert!(eta_matches(&Ok(612.25), 612.25));
        assert!(!eta_matches(&Ok(612.25), f64::from_bits(612.25f64.to_bits() + 1)));
        assert!(!eta_matches(&Err(ServeError::NoEtaHead), 612.25));
    }

    #[test]
    fn embedding_check_fires_on_one_changed_bit() {
        let vs = vec![vec![0.5, -1.25], vec![3.0, 0.0]];
        let want: Vec<u64> = vs.iter().map(|v| emb_digest(v)).collect();
        assert!(embeddings_match(&ok_embs(&vs), &want));
        let mut bad = vs.clone();
        bad[1][1] = -0.0;
        assert!(!embeddings_match(&ok_embs(&bad), &want));
        assert!(!embeddings_match(&ok_embs(&vs[..1]), &want));
        assert!(!embeddings_match(&Err(ServeError::Closed), &want));
    }

    #[test]
    fn knn_check_fires_on_a_different_neighbour() {
        let want = vec![Neighbor { id: 3, dist: 0.5 }, Neighbor { id: 9, dist: 0.75 }];
        assert!(knn_matches(&Ok(want.clone()), &want));
        let mut bad = want.clone();
        bad[1].id = 8;
        assert!(!knn_matches(&Ok(bad), &want));
        assert!(!knn_matches(&Err(ServeError::NoIndex), &want));
    }

    #[test]
    fn hot_and_cold_runs_answer_correctly() {
        for cold in [false, true] {
            let mut tracer = Tracer::new(cold);
            let mut report = Report::default();
            let run = if cold { run_cold } else { run_hot };
            // A traced run needs a traced window: at least two seconds.
            run(4, if cold { 2.2 } else { 0.4 }, &tiny(), &mut tracer, &mut report);
            eprint!("{}", report.summary());
            assert!(report.correct(), "cold {cold}");
            assert!(report.attempted > 100);
            let want = if cold { "serve.call.knn_us.p50" } else { "latency_p50_us" };
            assert!(report.value(want).is_some_and(|v| v > 0.0), "{want}");
        }
    }
}
