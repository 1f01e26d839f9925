//! End-to-end serving tests: correctness against direct embedding, batching
//! under concurrent load, and hot checkpoint reload with zero dropped
//! requests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::{TrainedRepresenter, WscModel, WscclConfig};
use wsccl_datagen::{CityDataset, DatasetConfig};
use wsccl_downstream::index::{to_f32, ExactIndex, VectorIndex};
use wsccl_downstream::{EtaRegression, GbConfig, GbRegressor, Task};
use wsccl_roadnet::CityProfile;
use wsccl_serve::{ServeConfig, ServeError, Server};
use wsccl_traffic::{PopLabeler, SimTime};

fn setup(seed: u64, epochs: usize) -> (CityDataset, WscModel, Arc<TemporalPathEncoder>) {
    let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 11));
    let enc = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::tiny(), 11));
    let mut model = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), seed);
    model.train(&ds.unlabeled, &PopLabeler, epochs);
    (ds, model, enc)
}

/// A same-weights twin of `model`, for computing expected answers directly.
fn twin(model: &WscModel, enc: &Arc<TemporalPathEncoder>, name: &str) -> TrainedRepresenter {
    let cp = model.checkpoint(11);
    TrainedRepresenter::from_parts(Arc::clone(enc), cp.params, cp.weights, name)
}

/// An ETA head fitted on `rep`'s embeddings of the first 64 labeled trips,
/// with travel times scaled by `scale` (so two scales give distinct heads).
fn fit_head(rep: &TrainedRepresenter, ds: &CityDataset, scale: f64) -> GbRegressor {
    let x: Vec<Vec<f64>> =
        ds.tte.iter().take(64).map(|e| rep.embed(&e.path, e.departure)).collect();
    let y: Vec<f64> = ds.tte.iter().take(64).map(|e| e.travel_time * scale).collect();
    EtaRegression { gb: GbConfig { n_trees: 10, ..GbConfig::default() } }.fit(&x, &y)
}

/// An exact index over `rep`'s embeddings of the first 32 trips, with ids
/// starting at `first_id`.
fn index_over(rep: &TrainedRepresenter, ds: &CityDataset, first_id: u64) -> Arc<ExactIndex> {
    let vecs: Vec<Vec<f32>> =
        ds.unlabeled.iter().take(32).map(|s| to_f32(&rep.embed(&s.path, s.departure))).collect();
    let ids: Vec<u64> = (first_id..first_id + vecs.len() as u64).collect();
    Arc::new(ExactIndex::build(vecs[0].len(), &ids, &vecs))
}

#[test]
fn served_embeddings_match_direct_and_cache_hits_are_identical() {
    let (ds, model, enc) = setup(8, 1);
    // A second representer from the same weights (via checkpoint round-trip)
    // serves as the direct, unserved baseline.
    let cp = model.checkpoint(11);
    let direct = TrainedRepresenter::from_parts(
        Arc::clone(&enc),
        cp.params.clone(),
        cp.weights.clone(),
        "direct",
    );
    let rep = model.into_representer("WSCCL");

    let server = Server::spawn(rep, ServeConfig { max_batch: 8, ..ServeConfig::default() });
    let client = server.client();
    for (i, s) in ds.unlabeled.iter().take(24).enumerate() {
        let dep = SimTime::new(s.departure.seconds() + 211 * i as u32);
        let served = client.embed(&s.path, dep).expect("serve");
        assert_eq!(*served, direct.embed(&s.path, dep), "served must equal direct embed");
        // Second call is a cache hit and must return the identical value.
        let again = client.embed(&s.path, dep).expect("serve");
        assert_eq!(again, served);
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, 48);
    assert!(stats.cache.hits >= 24, "second pass must hit: {:?}", stats.cache);
}

#[test]
fn embed_many_matches_embed_in_order_and_counts_items() {
    let (ds, model, _enc) = setup(14, 1);
    let server = Server::spawn(
        model.into_representer("WSCCL"),
        ServeConfig { max_batch: 16, ..ServeConfig::default() },
    );
    let client = server.client();
    assert_eq!(client.embed_many(&[]).unwrap(), Vec::new());

    let queries: Vec<_> = ds
        .unlabeled
        .iter()
        .take(9)
        .enumerate()
        .map(|(i, s)| (s.path.clone(), SimTime::new(s.departure.seconds() + 97 * i as u32)))
        .collect();
    // Constructors reject empty paths, but deserialized input can carry one;
    // the server must fail that slot alone, not the whole group.
    let empty: wsccl_roadnet::Path =
        serde_json::from_str(r#"{"edges":[]}"#).expect("empty path via serde");
    let mut bulk: Vec<(&wsccl_roadnet::Path, SimTime)> =
        queries.iter().map(|(p, t)| (p, *t)).collect();
    bulk.insert(4, (&empty, SimTime::new(0)));

    let got = client.embed_many(&bulk).unwrap();
    assert_eq!(got.len(), bulk.len());
    assert_eq!(got[4], Err(ServeError::EmptyPath), "empty path fails only its own slot");
    for (j, (p, t)) in bulk.iter().enumerate() {
        if j == 4 {
            continue;
        }
        let direct = client.embed(p, *t).expect("single embed");
        assert_eq!(
            *got[j].as_ref().expect("bulk item served"),
            direct,
            "bulk result {j} must match the single-query path (cache-identical)"
        );
    }
    let stats = server.shutdown();
    // 10 bulk items + 9 follow-up singles; the empty path never hits the pass.
    assert_eq!(stats.served, 19);
    assert_eq!(stats.batched_embeds, 9);
    assert!(stats.max_batch_seen >= 2, "the bulk group must fuse: {stats:?}");
}

#[test]
fn eta_requests_flow_through_installed_head() {
    let (ds, model, _enc) = setup(9, 1);
    let rep = model.into_representer("WSCCL");
    let x: Vec<Vec<f64>> =
        ds.tte.iter().take(64).map(|e| rep.embed(&e.path, e.departure)).collect();
    let y: Vec<f64> = ds.tte.iter().take(64).map(|e| e.travel_time).collect();
    let task = EtaRegression { gb: GbConfig { n_trees: 10, ..GbConfig::default() } };
    let head = task.fit(&x, &y);

    let server = Server::spawn(rep, ServeConfig::default());
    let client = server.client();
    let e = &ds.tte[0];
    assert_eq!(client.eta(&e.path, e.departure), Err(ServeError::NoEtaHead));
    client.set_eta_head(head.clone()).unwrap();
    let eta = client.eta(&e.path, e.departure).unwrap();
    let direct = head.predict(&client.embed(&e.path, e.departure).unwrap());
    assert_eq!(eta, direct);
    assert!(eta.is_finite() && eta > 0.0, "eta should be a positive travel time: {eta}");
    server.shutdown();
}

#[test]
fn concurrent_clients_are_batched() {
    let (ds, model, _enc) = setup(10, 1);
    let server = Server::spawn(
        model.into_representer("WSCCL"),
        // Cache off so every request exercises the batched forward pass.
        ServeConfig { max_batch: 16, cache_capacity: 0, ..ServeConfig::default() },
    );
    let samples: Vec<_> = ds.unlabeled.iter().take(16).cloned().collect();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let client = server.client();
            let samples = &samples;
            s.spawn(move || {
                for i in 0..50usize {
                    let sm = &samples[(t * 7 + i) % samples.len()];
                    let dep = SimTime::new(sm.departure.seconds() + (i as u32) * 313);
                    client.embed(&sm.path, dep).expect("request must be served");
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.served, 400);
    assert_eq!(stats.batched_embeds, 400);
    assert!(
        stats.batches < 400,
        "8 hammering clients must produce some multi-request batches: {stats:?}"
    );
    assert!(stats.max_batch_seen > 1);
}

#[test]
fn hot_reload_hammer_drops_nothing_and_swaps_model() {
    let (ds, model, enc) = setup(12, 1);
    let rep = model.into_representer("v1");

    // A second, differently-trained model over the same encoder tables.
    let mut model2 = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 99);
    model2.train(&ds.unlabeled, &PopLabeler, 2);
    let rep2 = model2.into_representer("v2");
    let probe = ds.unlabeled[0].clone();
    let before = rep.embed(&probe.path, probe.departure);
    let after = rep2.embed(&probe.path, probe.departure);
    assert_ne!(before, after, "the two models must embed differently");

    let server = Server::spawn(rep, ServeConfig { max_batch: 8, ..ServeConfig::default() });
    let stop = AtomicBool::new(false);
    let dropped = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let client = server.client();
            let (stop, dropped) = (&stop, &dropped);
            let samples = &ds.unlabeled;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let sm = &samples[(t * 13 + i) % samples.len().min(32)];
                    match client.embed(&sm.path, sm.departure) {
                        Ok(e) => assert!(e.iter().all(|v| v.is_finite())),
                        Err(_) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += 1;
                }
            });
        }
        // Let the hammer warm the cache, then swap models mid-flight.
        std::thread::sleep(Duration::from_millis(50));
        server.client().reload(rep2).expect("reload");
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });

    // Post-reload, served embeddings come from the *new* model — including
    // for keys that were cached before the swap (invalidation).
    let served = server.client().embed(&probe.path, probe.departure).unwrap();
    assert_eq!(*served, after, "stale pre-reload embedding survived the swap");
    let stats = server.shutdown();
    assert_eq!(dropped.load(Ordering::Relaxed), 0, "no request may be dropped across reload");
    assert_eq!(stats.reloads, 1);
    assert!(stats.served > 0);
}

/// Hot reload during a drift episode: a [`ContinualTrainer`] re-trains the
/// model day over day while the server keeps answering — the watcher picks up
/// each published checkpoint, the epoch-fenced cache stops serving the stale
/// pre-drift embedding, and the hammer clients never see a dropped request.
#[test]
fn drift_episode_reload_swaps_model_without_drops() {
    use wsccl_core::{ContinualConfig, ContinualTrainer};

    let (ds, model, enc) = setup(21, 1);
    let cp0 = model.checkpoint(11);
    let rep = TrainedRepresenter::from_parts(
        Arc::clone(&enc),
        cp0.params.clone(),
        cp0.weights.clone(),
        "day0",
    );
    let probe = ds.unlabeled[2].clone();
    let before = rep.embed(&probe.path, probe.departure);

    let mut ct = ContinualTrainer::new(model, 11, ds.congestion.clone(), ContinualConfig::tiny(7));

    let dir = std::env::temp_dir().join(format!("wsccl-serve-drift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cp_path = dir.join("model.ckpt");
    let server = Server::spawn(
        rep,
        ServeConfig {
            watch: Some(cp_path.clone()),
            reload_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    // Seed the cache with the pre-drift embedding so the post-reload check
    // also proves the swap fenced the cache.
    assert_eq!(*server.client().embed(&probe.path, probe.departure).unwrap(), before);

    let stop = AtomicBool::new(false);
    let dropped = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let client = server.client();
            let (stop, dropped) = (&stop, &dropped);
            let samples = &ds.unlabeled;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let sm = &samples[(t * 17 + i) % samples.len().min(32)];
                    if client.embed(&sm.path, sm.departure).is_err() {
                        dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }

        // One drift day of incremental re-training, then publish the new
        // weights the way the watcher's docs prescribe (write-temp + rename).
        ct.run_day_quiet(&ds.net);
        let cp = ct.checkpoint();
        let after = TrainedRepresenter::from_parts(
            Arc::clone(&enc),
            cp.params.clone(),
            cp.weights.clone(),
            "day1",
        )
        .embed(&probe.path, probe.departure);
        assert_ne!(before, after, "a drift day of re-training must move the weights");
        let tmp = dir.join("model.ckpt.tmp");
        cp.save(&tmp).unwrap();
        std::fs::rename(&tmp, &cp_path).unwrap();

        let client = server.client();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            let got = client.embed(&probe.path, probe.departure).unwrap();
            if *got == after {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "watcher never served day-1 weights");
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = server.shutdown();
    assert_eq!(dropped.load(Ordering::Relaxed), 0, "no request may drop during the episode");
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.reload_errors, 0);
    assert!(stats.served > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watcher_reloads_from_checkpoint_file() {
    let (ds, mut model, enc) = setup(13, 1);
    let cp0 = model.checkpoint(11);
    let rep = TrainedRepresenter::from_parts(
        Arc::clone(&enc),
        cp0.params.clone(),
        cp0.weights.clone(),
        "v1",
    );
    let probe = ds.unlabeled[1].clone();
    let before = rep.embed(&probe.path, probe.departure);

    let dir = std::env::temp_dir().join(format!("wsccl-serve-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cp_path = dir.join("model.ckpt");

    let server = Server::spawn(
        rep,
        ServeConfig {
            watch: Some(cp_path.clone()),
            reload_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    assert_eq!(*client.embed(&probe.path, probe.departure).unwrap(), before);

    // Train further and publish a checkpoint (write-temp + rename, as the
    // watcher's docs prescribe).
    model.train(&ds.unlabeled, &PopLabeler, 2);
    let cp2 = model.checkpoint(11);
    // Expected post-reload value through the same frozen f32 path the
    // server uses (WscModel::embed itself stays on the f64 tape).
    let after = TrainedRepresenter::from_parts(
        Arc::clone(&enc),
        cp2.params.clone(),
        cp2.weights.clone(),
        "v2",
    )
    .embed(&probe.path, probe.departure);
    assert_ne!(before, after);
    let tmp = dir.join("model.ckpt.tmp");
    cp2.save(&tmp).unwrap();
    std::fs::rename(&tmp, &cp_path).unwrap();

    // Poll until the watcher has picked it up (debounce = 2 ticks min).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let got = client.embed(&probe.path, probe.departure).unwrap();
        if *got == after {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "watcher never reloaded");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.shutdown();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.reload_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn knn_requests_flow_through_installed_index() {
    use wsccl_downstream::index::{to_f32, ExactIndex, VectorIndex};

    let (ds, model, _enc) = setup(17, 1);
    let rep = model.into_representer("WSCCL");

    // Index the first 32 trips under their corpus indices as ids.
    let trips: Vec<_> = ds.unlabeled.iter().take(32).collect();
    let queries: Vec<_> = trips.iter().map(|s| (&s.path, s.departure)).collect();
    let embs = rep.embed_batch(&queries);
    let dim = embs[0].len();
    let vecs: Vec<Vec<f32>> = embs.iter().map(|e| to_f32(e)).collect();
    let ids: Vec<u64> = (0..vecs.len() as u64).collect();
    let index = Arc::new(ExactIndex::build(dim, &ids, &vecs));

    let server = Server::spawn(rep, ServeConfig::default());
    let client = server.client();
    let probe = trips[3];
    assert_eq!(client.knn(&probe.path, probe.departure, 5), Err(ServeError::NoIndex));

    client.set_index(Arc::clone(&index) as Arc<dyn VectorIndex>).unwrap();
    let got = client.knn(&probe.path, probe.departure, 5).expect("knn");
    assert_eq!(got.len(), 5);
    // The query IS stored trip 3: it must come back first at distance ~0.
    assert_eq!(got[0].id, 3);
    assert!(got[0].dist < 1e-5, "self-distance {}", got[0].dist);
    // The served search must equal searching the served embedding directly.
    let direct_emb = client.embed(&probe.path, probe.departure).unwrap();
    let direct = index.knn(&to_f32(&direct_emb), 5);
    assert_eq!(got.len(), direct.len());
    for (a, b) in got.iter().zip(&direct) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.dist.to_bits(), b.dist.to_bits());
    }

    let stats = server.shutdown();
    assert_eq!(stats.knn_served, 1, "only the post-install search counts");
}

#[test]
fn head_or_index_of_another_width_is_refused_and_serving_continues() {
    let (ds, model, _enc) = setup(16, 1);
    let rep = model.into_representer("WSCCL");
    let (head, index) = (fit_head(&rep, &ds, 1.0), index_over(&rep, &ds, 0));
    let dim = index.dim();
    // The same trips one column wider: an index and a head of width dim + 1.
    let wide: Vec<Vec<f64>> = ds
        .tte
        .iter()
        .take(64)
        .map(|e| {
            let mut row = rep.embed(&e.path, e.departure);
            row.push(1.0);
            row
        })
        .collect();
    let wide_f32: Vec<Vec<f32>> = wide.iter().take(32).map(|r| to_f32(r)).collect();
    let ids: Vec<u64> = (0..wide_f32.len() as u64).collect();
    let wide_index = Arc::new(ExactIndex::build(dim + 1, &ids, &wide_f32));
    let y: Vec<f64> = ds.tte.iter().take(64).map(|e| e.travel_time).collect();
    let wide_head =
        EtaRegression { gb: GbConfig { n_trees: 10, ..GbConfig::default() } }.fit(&wide, &y);

    let server = Server::spawn(rep, ServeConfig::default());
    let client = server.client();
    client.set_eta_head(head.clone()).unwrap();
    client.set_index(Arc::clone(&index) as Arc<dyn VectorIndex>).unwrap();
    let mismatch = Err(ServeError::WidthMismatch { expected: dim, found: dim + 1 });
    assert_eq!(client.set_index(wide_index), mismatch);
    assert_eq!(client.set_eta_head(wide_head), mismatch);

    // Both a miss (served on the serve thread) and a hit (on this thread)
    // still answer from what was installed before.
    for probe in &ds.unlabeled[..2] {
        let (path, dep) = (&probe.path, probe.departure);
        for _ in 0..2 {
            let emb = client.embed(path, dep).expect("embed");
            assert_eq!(client.eta(path, dep), Ok(head.predict(&emb)));
            assert_eq!(client.knn(path, dep, 3).expect("knn"), index.knn(&to_f32(&emb), 3));
        }
    }
    // A head without trees has no width and predicts its base value.
    let flat = EtaRegression { gb: GbConfig { n_trees: 0, ..GbConfig::default() } }.fit(&wide, &y);
    assert_eq!(flat.num_features(), None);
    client.set_eta_head(flat).expect("a treeless head fits any width");
    let stats = server.shutdown();
    assert_eq!(stats.knn_served, 4);
}

/// Run `call` on a helper thread and wait at most `secs` for its answer, so
/// a call that never returns fails the test instead of hanging it.
fn within<T: Send + 'static>(secs: u64, call: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(call());
    });
    rx.recv_timeout(Duration::from_secs(secs)).expect("call did not return in time")
}

#[test]
fn calls_after_shutdown_return_closed() {
    let (ds, model, _enc) = setup(15, 1);
    let rep = model.into_representer("WSCCL");
    let (head, index) = (fit_head(&rep, &ds, 1.0), index_over(&rep, &ds, 0));
    let server = Server::spawn(rep, ServeConfig::default());
    let client = server.client();
    client.set_eta_head(head).unwrap();
    client.set_index(index).unwrap();
    let probe = ds.unlabeled[0].clone();
    let (path, dep) = (probe.path.clone(), probe.departure);
    client.embed(&path, dep).expect("served before shutdown");
    // The key is cached now: these are answered on the calling thread.
    client.eta(&path, dep).expect("eta before shutdown");
    client.knn(&path, dep, 3).expect("knn before shutdown");
    let stats = server.shutdown();
    assert_eq!(stats.caller_hits, 2, "eta and knn were cache hits: {stats:?}");

    // A cached key must not outlive the server on the hit path either.
    let (late, p) = (client.clone(), path.clone());
    assert_eq!(within(5, move || late.embed(&p, dep)), Err(ServeError::Closed));
    let (late, p) = (client.clone(), path.clone());
    assert_eq!(within(5, move || late.eta(&p, dep)), Err(ServeError::Closed));
    let (late, p) = (client.clone(), path.clone());
    assert_eq!(within(5, move || late.knn(&p, dep, 3)), Err(ServeError::Closed));
    let late = client.clone();
    assert_eq!(within(5, move || late.stats().map(|s| s.served)), Err(ServeError::Closed));
}

/// Four clients hammer cached keys with embed, ETA and k-NN calls while the
/// model, the ETA head and the index are replaced in turn. Each replacement
/// bumps `phase` once its call has returned; a call that starts in phase
/// `p` may only get an answer some phase `>= p` gives, so no call that
/// starts after a reload returns sees the replaced model, head or index.
#[test]
fn hit_path_never_answers_from_a_replaced_model_head_or_index() {
    use std::sync::atomic::AtomicUsize;
    use wsccl_downstream::index::Neighbor;

    let (ds, model, enc) = setup(19, 1);
    let mut model2 = WscModel::new(Arc::clone(&enc), WscclConfig::tiny(), 77);
    model2.train(&ds.unlabeled, &PopLabeler, 2);
    let (rep1, rep2) = (twin(&model, &enc, "v1"), twin(&model2, &enc, "v2"));
    let (head1, head2) = (fit_head(&rep1, &ds, 1.0), fit_head(&rep1, &ds, 2.0));
    let (index1, index2) = (index_over(&rep1, &ds, 0), index_over(&rep2, &ds, 1000));

    const K: usize = 5;
    let keys: Vec<_> = ds.unlabeled.iter().take(12).map(|s| (&s.path, s.departure)).collect();
    // Per key, the answer of each phase: (embedding, ETA, neighbours).
    type Answers = (Vec<f64>, f64, Vec<Neighbor>);
    let expected: Vec<[Answers; 4]> = keys
        .iter()
        .map(|&(p, t)| {
            let (e1, e2) = (rep1.embed(p, t), rep2.embed(p, t));
            let answer = |e: &Vec<f64>, head: &GbRegressor, index: &ExactIndex| {
                (e.clone(), head.predict(e), index.knn(&to_f32(e), K))
            };
            [
                answer(&e1, &head1, &index1),
                answer(&e2, &head1, &index1),
                answer(&e2, &head2, &index1),
                answer(&e2, &head2, &index2),
            ]
        })
        .collect();
    for (a, name) in [(0, "model"), (1, "head"), (2, "index")] {
        let differs = |x: &[Answers; 4]| match a {
            0 => x[0].0 != x[1].0,
            1 => x[1].1 != x[2].1,
            _ => x[2].2 != x[3].2,
        };
        assert!(expected.iter().all(differs), "replacing the {name} must change every answer");
    }

    let server = Server::spawn(model.into_representer("v1"), ServeConfig::default());
    let control = server.client();
    control.set_eta_head(head1).unwrap();
    control.set_index(Arc::clone(&index1) as Arc<dyn VectorIndex>).unwrap();
    for &(p, t) in &keys {
        control.embed(p, t).unwrap();
    }
    let warm = control.stats().unwrap();

    let phase = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let checked: [std::sync::atomic::AtomicU64; 4] = Default::default();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let client = server.client();
            let (phase, stop, checked, keys, expected) =
                (&phase, &stop, &checked, &keys, &expected);
            s.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let p = phase.load(Ordering::Acquire);
                    let k = i % keys.len();
                    let (path, dep) = keys[k];
                    let allowed = &expected[k][p..];
                    let ok = match i % 3 {
                        0 => {
                            let got = client.embed(path, dep).expect("embed served");
                            allowed.iter().any(|a| *got == a.0)
                        }
                        1 => {
                            let got = client.eta(path, dep).expect("eta served");
                            allowed.iter().any(|a| got.to_bits() == a.1.to_bits())
                        }
                        _ => {
                            let got = client.knn(path, dep, K).expect("knn served");
                            allowed.iter().any(|a| got == a.2)
                        }
                    };
                    assert!(ok, "call {i} (key {k}) started in phase {p} got a stale answer");
                    checked[p].fetch_add(1, Ordering::Relaxed);
                    i += 4;
                }
            });
        }
        let pause = || std::thread::sleep(Duration::from_millis(40));
        pause();
        control.reload(twin(&model2, &enc, "v2")).unwrap();
        phase.store(1, Ordering::Release);
        pause();
        control.set_eta_head(head2).unwrap();
        phase.store(2, Ordering::Release);
        pause();
        control.set_index(index2).unwrap();
        phase.store(3, Ordering::Release);
        pause();
        stop.store(true, Ordering::Relaxed);
    });

    let stats = server.shutdown();
    for (p, n) in checked.iter().enumerate() {
        assert!(n.load(Ordering::Relaxed) > 0, "no call was checked in phase {p}");
    }
    assert_eq!(stats.reloads, 1);
    assert!(
        stats.caller_hits - warm.caller_hits > stats.batched_embeds - warm.batched_embeds,
        "the hammer must mostly take the hit path: {stats:?}"
    );
}

/// A miss on the calling thread is queued flagged as probed, so the serve
/// thread resolves it without probing again: every lookup counts exactly one
/// hit or one miss, wherever it happened.
#[test]
fn every_lookup_counts_one_hit_or_one_miss() {
    let (ds, model, _enc) = setup(22, 1);
    let server = Server::spawn(model.into_representer("WSCCL"), ServeConfig::default());
    let client = server.client();
    let keys: Vec<_> = ds.unlabeled.iter().take(6).map(|s| (&s.path, s.departure)).collect();
    let n = keys.len() as u64;

    // Cold keys: each misses on the caller and is computed by the server.
    for &(p, t) in &keys {
        client.embed(p, t).unwrap();
    }
    let s = client.stats().unwrap();
    assert_eq!((s.cache.hits, s.cache.misses, s.batched_embeds), (0, n, n), "{s:?}");
    assert_eq!(s.caller_hits, 0);

    // Warm keys: hits on the caller, then hits on the serve thread.
    for &(p, t) in &keys {
        client.embed(p, t).unwrap();
    }
    client.embed_many(&keys).unwrap();
    // A path with an unknown edge misses on the caller, once.
    let bad = wsccl_roadnet::Path::new_unchecked(vec![wsccl_roadnet::EdgeId(u32::MAX)]);
    assert_eq!(client.eta(&bad, keys[0].1), Err(ServeError::UnknownEdge));

    let s = server.shutdown();
    let lookups = 3 * n + 1;
    assert_eq!((s.cache.hits, s.cache.misses), (2 * n, n + 1), "{s:?}");
    assert_eq!(s.cache.hits + s.cache.misses, lookups);
    assert_eq!(s.caller_hits, n);
    assert_eq!(s.served, lookups, "every item is answered once, by one thread");
    assert_eq!(s.batched_embeds, n, "warm keys are never recomputed");
}

/// The watcher refuses a checkpoint whose weights are not all finite or do
/// not have the live model's shapes; the old model keeps serving, bit for
/// bit, and each refusal counts in `reload_errors`.
#[test]
fn watcher_rejects_non_finite_and_reshaped_checkpoints() {
    let (ds, mut model, enc) = setup(23, 1);
    let rep = twin(&model, &enc, "v1");
    let probe = ds.unlabeled[3].clone();
    let fresh = ds.unlabeled[4].clone();
    let (before, fresh_before) =
        (rep.embed(&probe.path, probe.departure), rep.embed(&fresh.path, fresh.departure));

    let dir = std::env::temp_dir().join(format!("wsccl-serve-reject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cp_path = dir.join("model.ckpt");
    let server = Server::spawn(
        rep,
        ServeConfig {
            watch: Some(cp_path.clone()),
            reload_poll: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    assert_eq!(*client.embed(&probe.path, probe.departure).unwrap(), before);

    // Further-trained weights: had either file gone live, answers would move.
    model.train(&ds.unlabeled, &PopLabeler, 1);
    let publish = |cp: &wsccl_core::persist::EngineCheckpoint, errors: u64| {
        let tmp = dir.join("model.ckpt.tmp");
        cp.save(&tmp).unwrap();
        std::fs::rename(&tmp, &cp_path).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while client.stats().unwrap().reload_errors < errors {
            assert!(std::time::Instant::now() < deadline, "checkpoint {errors} never rejected");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let mut poisoned = model.checkpoint(11);
    let id = poisoned.params.ids().last().unwrap();
    poisoned.params.value_mut(id).data_mut()[0] = f64::NAN;
    publish(&poisoned, 1);

    let mut reshaped = model.checkpoint(11);
    let (r, c) = reshaped.params.value(id).shape();
    *reshaped.params.value_mut(id) = wsccl_nn::Tensor::zeros(r + 1, c);
    publish(&reshaped, 2);

    assert_eq!(*client.embed(&probe.path, probe.departure).unwrap(), before);
    let got = client.embed(&fresh.path, fresh.departure).unwrap();
    assert_eq!(*got, fresh_before, "an uncached path is computed by the old model");
    let stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((stats.reloads, stats.reload_errors), (0, 2));
}

#[test]
fn unknown_edge_is_rejected_and_the_server_keeps_serving() {
    let (ds, model, _enc) = setup(16, 1);
    let server = Server::spawn(model.into_representer("WSCCL"), ServeConfig::default());
    let client = server.client();
    let probe = ds.unlabeled[0].clone();
    let before = client.embed(&probe.path, probe.departure).expect("valid embed");

    let n = ds.net.num_edges() as u32;
    let mut edges = probe.path.edges().to_vec();
    edges.push(wsccl_roadnet::EdgeId(n));
    let bad = wsccl_roadnet::Path::new_unchecked(edges);
    let c = client.clone();
    let dep = probe.departure;
    let got = within(5, move || c.embed(&bad, dep));
    assert_eq!(got, Err(ServeError::UnknownEdge));

    let bad = wsccl_roadnet::Path::new_unchecked(vec![wsccl_roadnet::EdgeId(u32::MAX)]);
    assert_eq!(client.eta(&bad, dep), Err(ServeError::UnknownEdge));
    assert_eq!(client.knn(&bad, dep, 3), Err(ServeError::UnknownEdge));
    let many = client.embed_many(&[(&probe.path, dep), (&bad, dep)]).expect("bulk call");
    assert_eq!(many[0].as_ref().expect("valid slot served"), &before);
    assert_eq!(many[1], Err(ServeError::UnknownEdge), "only the bad slot fails");

    let after = client.embed(&probe.path, probe.departure).expect("server still serving");
    assert_eq!(*after, *before, "the next valid call returns the same bits");
    server.shutdown();
}

/// The watcher must tick between batches: four clients submit 2048-path
/// groups back to back with the cache off and `max_batch` 1, so every
/// request is a long batch of its own and the queue refills before it can
/// drain. A watcher that ticked only on an idle queue would load the new
/// checkpoint hundreds of batches late, or never.
#[test]
fn watcher_reloads_while_clients_saturate_the_queue() {
    let (ds, mut model, enc) = setup(18, 1);
    let cp0 = model.checkpoint(11);
    let rep = TrainedRepresenter::from_parts(
        Arc::clone(&enc),
        cp0.params.clone(),
        cp0.weights.clone(),
        "v1",
    );
    let probe = ds.unlabeled[1].clone();

    let dir = std::env::temp_dir().join(format!("wsccl-serve-saturate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cp_path = dir.join("model.ckpt");
    let server = Server::spawn(
        rep,
        ServeConfig {
            max_batch: 1,
            cache_capacity: 0,
            watch: Some(cp_path.clone()),
            reload_poll: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );

    model.train(&ds.unlabeled, &PopLabeler, 2);
    let cp1 = model.checkpoint(11);
    let after = TrainedRepresenter::from_parts(
        Arc::clone(&enc),
        cp1.params.clone(),
        cp1.weights.clone(),
        "v2",
    )
    .embed(&probe.path, probe.departure);

    let stop = AtomicBool::new(false);
    let dropped = std::sync::atomic::AtomicU64::new(0);
    // Saturating requests answered so far; each one is a batch of its own.
    let answered = std::sync::atomic::AtomicU64::new(0);
    let batches_to_reload = std::thread::scope(|s| {
        for t in 0..4usize {
            let client = server.client();
            let (stop, dropped, answered) = (&stop, &dropped, &answered);
            let group: Vec<_> = ds
                .unlabeled
                .iter()
                .cycle()
                .skip(t * 16)
                .take(2048)
                .map(|sm| (&sm.path, sm.departure))
                .collect();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let served = match client.embed_many(&group) {
                        Ok(items) => items.iter().filter(|r| r.is_ok()).count(),
                        Err(_) => 0,
                    };
                    dropped.fetch_add((group.len() - served) as u64, Ordering::Relaxed);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let tmp = dir.join("model.ckpt.tmp");
        cp1.save(&tmp).unwrap();
        std::fs::rename(&tmp, &cp_path).unwrap();
        let published = answered.load(Ordering::Relaxed);

        let client = server.client();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let landed = loop {
            if *client.embed(&probe.path, probe.departure).unwrap() == after {
                break Some(answered.load(Ordering::Relaxed) - published);
            }
            if std::time::Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        stop.store(true, Ordering::Relaxed);
        landed
    });

    let stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let batches = batches_to_reload.expect("watcher never reloaded under saturation");
    assert!(batches <= 100, "reload landed {batches} saturating batches after the publish");
    assert_eq!(dropped.load(Ordering::Relaxed), 0, "no request may be dropped");
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.reload_errors, 0);
}
