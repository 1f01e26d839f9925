//! End-to-end serving tests: correctness against direct embedding, batching
//! under concurrent load, and hot checkpoint reload with zero dropped
//! requests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::{TrainedRepresenter, WscModel, WscclConfig};
use wsccl_datagen::{CityDataset, DatasetConfig};
use wsccl_downstream::{EtaRegression, GbConfig, Task};
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
    let server = Server::spawn(model.into_representer("WSCCL"), ServeConfig::default());
    let client = server.client();
    let probe = ds.unlabeled[0].clone();
    client.embed(&probe.path, probe.departure).expect("served before shutdown");
    server.shutdown();

    let late = client.clone();
    let got = within(5, move || late.embed(&probe.path, probe.departure));
    assert_eq!(got, Err(ServeError::Closed));
    let late = client.clone();
    assert_eq!(within(5, move || late.stats().map(|s| s.served)), Err(ServeError::Closed));
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
