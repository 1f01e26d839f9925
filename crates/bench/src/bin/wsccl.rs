//! `wsccl` — command-line interface to the reproduction pipeline.
//!
//! ```text
//! wsccl generate --city aalborg --seed 7 --out city.json
//! wsccl datagen  --city metro   --seed 7 --out metro.wsccl-ds [--threads N]
//! wsccl train    --city aalborg --seed 7 --out model.json   [--data city.json | --dataset f.wsccl-ds]
//! wsccl evaluate --city aalborg --seed 7 --model model.json [--data city.json]
//! wsccl embed    --model model.json --data city.json --index 0
//! wsccl serve    --city aalborg --seed 7 [--model model.json] [--requests N] [--clients N]
//!                [--batch N] [--watch ckpt.json] [--assert-p99-us US]
//! wsccl drift-demo --city aalborg --seed 7 [--days N] [--run-log NAME]
//! ```
//!
//! `--scale tiny|small|full` (or `WSCCL_SCALE`) controls dataset/training
//! sizes throughout; any other value exits 2. `wsccl train` writes an
//! engine checkpoint, the one format `evaluate`, `embed`, `serve --model`
//! and `serve --watch` read. `wsccl datagen` streams records straight to the
//! versioned on-disk `.wsccl-ds` format in bounded memory; `wsccl train
//! --dataset` memory-maps such a file instead of generating in memory.
//! `wsccl train --run-log NAME` additionally streams a structured JSONL run
//! log (per-step loss terms, timings, periodic metric snapshots) to
//! `results/runs/NAME.jsonl`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use wsccl_bench::eval::{evaluate_ranking, evaluate_tte};
use wsccl_bench::record::check_stale;
use wsccl_bench::Scale;
use wsccl_core::encoder::TemporalPathEncoder;
use wsccl_core::persist::EngineCheckpoint;
use wsccl_core::wsc::{TrainedRepresenter, WscModel};
use wsccl_core::PathRepresenter;
use wsccl_datagen::{CityDataset, DatasetSource, StreamConfig};
use wsccl_roadnet::{CityProfile, RoadNetwork};
use wsccl_traffic::PopLabeler;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wsccl <generate|datagen|train|evaluate|embed|serve|drift-demo> \
         [--city aalborg|harbin|chengdu|metro] [--seed N] [--scale tiny|small|full] \
         [--data FILE] [--dataset FILE.wsccl-ds] [--model FILE] [--out FILE] [--index N] \
         [--threads N] [--unlabeled N] [--tte N] [--groups N] [--run-log NAME] \
         [--requests N] [--clients N] [--batch N] [--watch CKPT] [--assert-p99-us US] \
         [--days N]"
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--")?;
        let value = it.next()?;
        flags.insert(key.to_string(), value.clone());
    }
    Some(flags)
}

fn parse_city(flags: &HashMap<String, String>) -> Option<CityProfile> {
    match flags.get("city").map(String::as_str).unwrap_or("aalborg") {
        "aalborg" => Some(CityProfile::Aalborg),
        "harbin" => Some(CityProfile::Harbin),
        "chengdu" => Some(CityProfile::Chengdu),
        "metro" => Some(CityProfile::Metro),
        other => {
            eprintln!("unknown city '{other}'");
            None
        }
    }
}

fn parse_scale(flags: &HashMap<String, String>) -> Option<Scale> {
    match flags.get("scale") {
        Some(name) => Scale::parse(name).map_err(|e| eprintln!("{e}")).ok(),
        None => Some(Scale::from_env()),
    }
}

/// Load a checkpoint written by `wsccl train` as a frozen representer over
/// `net` (the encoder tables are rebuilt from the stored config and seed).
fn load_model(path: &str, net: &RoadNetwork) -> Result<TrainedRepresenter, String> {
    let cp = EngineCheckpoint::load(path).map_err(|e| format!("load {path}: {e}"))?;
    let encoder = Arc::new(TemporalPathEncoder::new(net, cp.encoder_config, cp.encoder_seed));
    Ok(TrainedRepresenter::from_parts(encoder, cp.params, cp.weights, "WSCCL"))
}

fn warn_if_stale(bench_file: &str) {
    if let Some(warning) = check_stale(bench_file) {
        eprintln!("[warn] {warning}");
    }
}

fn load_or_generate(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<CityDataset, String> {
    if let Some(path) = flags.get("data") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    } else {
        Ok(CityDataset::generate(&scale.dataset(profile, seed)))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    let Some(flags) = parse_flags(rest) else { return usage() };
    let Some(profile) = parse_city(&flags) else { return usage() };
    let Some(scale) = parse_scale(&flags) else { return usage() };
    let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(2022);

    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags, profile, scale, seed),
        "datagen" => cmd_datagen(&flags, profile, scale, seed),
        "train" => cmd_train(&flags, profile, scale, seed),
        "evaluate" => cmd_evaluate(&flags, profile, scale, seed),
        "embed" => cmd_embed(&flags, profile, scale, seed),
        "serve" => cmd_serve(&flags, profile, scale, seed),
        "drift-demo" => cmd_drift_demo(&flags, profile, scale, seed),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_generate(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    let out = flags.get("out").cloned().unwrap_or_else(|| "city.json".into());
    let ds = CityDataset::generate(&scale.dataset(profile, seed));
    let s = ds.statistics();
    let json = serde_json::to_string(&ds).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out}: {} ({} nodes, {} edges, {} unlabeled paths, {} TTE labels, {} groups)",
        s.name, s.num_nodes, s.num_edges, s.unlabeled_paths, s.labeled_tte, s.labeled_groups
    );
    Ok(())
}

/// Stream a dataset straight to the versioned `.wsccl-ds` on-disk format in
/// bounded memory. For `--city metro` (100k+ edges) the record counts default
/// to the metro tier; otherwise the scale preset applies. `--unlabeled`,
/// `--tte`, and `--groups` override counts; `--threads` sets the producer
/// thread count (the file is byte-identical at any value).
fn cmd_datagen(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{}.{}", profile.name(), wsccl_datagen::disk::EXTENSION));
    let mut cfg = if profile == CityProfile::Metro {
        wsccl_bench::metro_dataset(seed, 20_000)
    } else {
        scale.dataset(profile, seed)
    };
    if let Some(n) = flags.get("unlabeled").and_then(|s| s.parse().ok()) {
        cfg.num_unlabeled = n;
    }
    if let Some(n) = flags.get("tte").and_then(|s| s.parse().ok()) {
        cfg.num_tte = n;
    }
    if let Some(n) = flags.get("groups").and_then(|s| s.parse().ok()) {
        cfg.num_groups = n;
    }
    let stream = match flags.get("threads").and_then(|s| s.parse().ok()) {
        Some(n) => StreamConfig::with_threads(n),
        None => StreamConfig::auto(),
    };
    let t = std::time::Instant::now();
    let stats = wsccl_datagen::write_dataset(&cfg, &stream, std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let records = stats.unlabeled_paths + stats.labeled_tte + stats.labeled_groups;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out}: {} ({} nodes, {} edges, {} unlabeled paths, {} TTE labels, {} groups; \
         {bytes} bytes, {:.0} records/s)",
        stats.name,
        stats.num_nodes,
        stats.num_edges,
        stats.unlabeled_paths,
        stats.labeled_tte,
        stats.labeled_groups,
        records as f64 / secs.max(1e-9),
    );
    Ok(())
}

fn cmd_train(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    let out = flags.get("out").cloned().unwrap_or_else(|| "model.json".into());
    let src = match flags.get("dataset") {
        Some(path) => {
            eprintln!("memory-mapping dataset {path}");
            DatasetSource::open(std::path::Path::new(path))
                .map_err(|e| format!("open {path}: {e}"))?
        }
        None => DatasetSource::Memory(load_or_generate(flags, profile, scale, seed)?),
    };
    let cfg = scale.wsccl(seed);
    eprintln!("training WSC on {} unlabeled paths ({} epochs)...", src.num_unlabeled(), cfg.epochs);
    let encoder = Arc::new(TemporalPathEncoder::new(src.net(), cfg.encoder.clone(), cfg.seed));
    let mut model = WscModel::new(Arc::clone(&encoder), cfg.clone(), cfg.seed);
    let pool = src.unlabeled_pool();
    if let Some(name) = flags.get("run-log") {
        wsccl_obs::global().set_enabled(true);
        let mut log = wsccl_train::JsonlObserver::to_file(name)
            .map_err(|e| format!("open run log '{name}': {e}"))?
            .with_metrics_every(50);
        log.set_phase("train");
        model.train_observed(pool, &PopLabeler, cfg.epochs, &mut log);
        log.flush().map_err(|e| format!("flush run log '{name}': {e}"))?;
        eprintln!("run log: {}", wsccl_train::run_log_path(name).display());
    } else {
        model.train(pool, &PopLabeler, cfg.epochs);
    }
    if let Some(loss) = model.loss_history.last() {
        eprintln!("final epoch loss: {loss:.4}");
    }
    model.checkpoint(cfg.seed).save(&out).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_evaluate(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    let ds = load_or_generate(flags, profile, scale, seed)?;
    let rep: Box<dyn PathRepresenter + Sync> = match flags.get("model") {
        Some(path) => Box::new(load_model(path, &ds.net)?),
        None => {
            eprintln!("no --model given; training from scratch");
            Box::new(wsccl_core::train_wsccl(
                &ds.net,
                &ds.unlabeled,
                &PopLabeler,
                &scale.wsccl(seed),
            ))
        }
    };
    let t = evaluate_tte(rep.as_ref(), &ds);
    let r = evaluate_ranking(rep.as_ref(), &ds);
    println!("city {}  (scale {})", ds.name, scale.name());
    println!("travel time: MAE {:.2} s | MARE {:.3} | MAPE {:.1}%", t.mae, t.mare, t.mape);
    println!("ranking:     MAE {:.3}   | tau {:.3} | rho {:.3}", r.mae, r.tau, r.rho);
    Ok(())
}

/// Stand up a `wsccl-serve` server over a trained (or freshly-trained)
/// model, fit an ETA head on the labeled split, fire a measured request
/// burst from client threads, and report latency percentiles + cache stats.
/// `--watch CKPT` enables hot checkpoint reload; `--assert-p99-us BOUND`
/// turns the run into a smoke test (nonzero exit when p99 exceeds it).
fn cmd_serve(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    warn_if_stale(wsccl_bench::serve_bench::BENCH_SERVE_PATH);
    let ds = load_or_generate(flags, profile, scale, seed)?;
    let rep = match flags.get("model") {
        Some(path) => load_model(path, &ds.net)?,
        None => {
            let cfg = scale.wsccl(seed);
            eprintln!("no --model given; training WSC for {} epochs first", cfg.epochs);
            let encoder =
                Arc::new(TemporalPathEncoder::new(&ds.net, cfg.encoder.clone(), cfg.seed));
            let mut model = WscModel::new(Arc::clone(&encoder), cfg.clone(), cfg.seed);
            model.train(&ds.unlabeled, &PopLabeler, cfg.epochs);
            model.into_representer("WSCCL")
        }
    };

    // Fit the ETA head on (a slice of) the labeled TTE split via the
    // downstream task layer — the served head is a plain EtaRegression head.
    let head = {
        use wsccl_downstream::{EtaRegression, Task};
        let take = ds.tte.len().min(512);
        let queries: Vec<(&wsccl_roadnet::Path, wsccl_traffic::SimTime)> =
            ds.tte.iter().take(take).map(|e| (&e.path, e.departure)).collect();
        let x = rep.embed_batch(&queries);
        let y: Vec<f64> = ds.tte.iter().take(take).map(|e| e.travel_time).collect();
        EtaRegression::default().fit(&x, &y)
    };

    let max_batch: usize = flags.get("batch").and_then(|s| s.parse().ok()).unwrap_or(16);
    let server = wsccl_serve::Server::spawn(
        rep,
        wsccl_serve::ServeConfig {
            max_batch,
            watch: flags.get("watch").map(std::path::PathBuf::from),
            ..wsccl_serve::ServeConfig::default()
        },
    );
    server.client().set_eta_head(head).map_err(|e| e.to_string())?;

    let requests: u64 = flags.get("requests").and_then(|s| s.parse().ok()).unwrap_or(1000);
    let clients: usize =
        flags.get("clients").and_then(|s| s.parse().ok()).unwrap_or(4).clamp(1, 64);
    let per_client = (requests / clients as u64).max(1);
    eprintln!(
        "serving: {clients} clients x {per_client} requests, max_batch {max_batch}{}",
        flags.get("watch").map(|w| format!(", watching {w}")).unwrap_or_default()
    );
    let t0 = std::time::Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                let samples = &ds.unlabeled;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(per_client as usize);
                    for i in 0..per_client {
                        let sm = &samples[(c * 127 + i as usize) % samples.len()];
                        let t1 = std::time::Instant::now();
                        // Mix embeds and ETAs 3:1, like a routing frontend.
                        let ok = if i % 4 == 3 {
                            client.eta(&sm.path, sm.departure).is_ok()
                        } else {
                            client.embed(&sm.path, sm.departure).is_ok()
                        };
                        assert!(ok, "request dropped");
                        lats.push(t1.elapsed().as_nanos() as f64 / 1e3);
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let p50 = wsccl_bench::serve_bench::percentile_us(&latencies, 0.50);
    let p99 = wsccl_bench::serve_bench::percentile_us(&latencies, 0.99);
    let stats = server.shutdown();

    let served = per_client * clients as u64;
    println!(
        "served {served} requests in {seconds:.2}s = {:.0} req/s | p50 {p50:.1}us p99 {p99:.1}us",
        served as f64 / seconds.max(1e-9)
    );
    println!(
        "batches {} (max size seen {}) | cache: {} hits / {} misses / {} evictions | \
         {} answered on the caller | reloads {} ({} rejected)",
        stats.batches,
        stats.max_batch_seen,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.caller_hits,
        stats.reloads,
        stats.reload_errors
    );
    if let Some(bound) = flags.get("assert-p99-us").and_then(|s| s.parse::<f64>().ok()) {
        if p99 > bound {
            return Err(format!("p99 {p99:.1}us exceeds bound {bound:.1}us"));
        }
        println!("p99 within bound ({p99:.1}us <= {bound:.1}us); shutdown clean");
    }
    Ok(())
}

/// Train-while-serve demo of the continual-learning loop: a server hot-
/// watches a checkpoint file while a [`ContinualTrainer`] runs a drift
/// episode next to it, publishing a re-trained checkpoint after every
/// simulated day (save to temp + rename, per the watcher protocol). A
/// background client hammers the server throughout — every request must be
/// served across every swap — and after each day the demo waits until the
/// served embedding matches the freshly published model before moving on.
fn cmd_drift_demo(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use wsccl_core::{ContinualConfig, ContinualTrainer};

    warn_if_stale("BENCH_drift.json");
    let days: u64 = flags.get("days").and_then(|s| s.parse().ok()).unwrap_or(3);
    let ds = CityDataset::generate(&scale.dataset(profile, seed));
    let cfg = scale.wsccl(seed);
    let labeler = wsccl_traffic::TciLabeler::new(&ds.net, &ds.congestion);

    eprintln!("pre-training base model ({} epochs)...", cfg.epochs);
    let encoder = Arc::new(TemporalPathEncoder::new(&ds.net, cfg.encoder.clone(), cfg.seed));
    let mut model = WscModel::new(Arc::clone(&encoder), cfg.clone(), cfg.seed);
    model.train(&ds.unlabeled, &labeler, cfg.epochs);

    let episode = ContinualConfig {
        retrain_epochs: 2,
        retrain_lr_scale: 0.25,
        ..ContinualConfig::tiny(seed)
    };
    let (params, weights) = model.weights();
    let rep = TrainedRepresenter::from_parts(
        Arc::clone(&encoder),
        params.clone(),
        weights.clone(),
        "WSCCL-day0",
    );
    let mut ct = ContinualTrainer::new(model, cfg.seed, ds.congestion.clone(), episode);

    let dir = std::env::temp_dir().join(format!("wsccl-drift-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ckpt = dir.join("model.ckpt");
    let server = wsccl_serve::Server::spawn(
        rep,
        wsccl_serve::ServeConfig {
            watch: Some(ckpt.clone()),
            reload_poll: std::time::Duration::from_millis(20),
            ..wsccl_serve::ServeConfig::default()
        },
    );

    // Background traffic across the whole episode: every request must be
    // served regardless of how many hot swaps happen under it.
    let done = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let probe = ds.unlabeled[0].clone();
    let outcome = std::thread::scope(|scope| -> Result<(), String> {
        for c in 0..2usize {
            let client = server.client();
            let samples = &ds.unlabeled;
            let (done, served) = (&done, &served);
            scope.spawn(move || {
                let mut i = c * 131;
                while !done.load(Ordering::Relaxed) {
                    let sm = &samples[i % samples.len()];
                    client.embed(&sm.path, sm.departure).expect("request dropped during swap");
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // Everything below must release the hammer threads on any exit path,
        // or the scope would never join.
        let episode_result = (|| -> Result<(), String> {
            let mut guard = wsccl_core::continual::AnomalyGuard::new(
                wsccl_core::continual::AnomalyPolicy::Record,
            );
            let mut log = match flags.get("run-log") {
                Some(name) => {
                    Some(wsccl_train::JsonlObserver::to_file(name).map_err(|e| e.to_string())?)
                }
                None => None,
            };
            let client = server.client();
            for _ in 0..days {
                let r = match log.as_mut() {
                    Some(log) => ct.run_day(&ds.net, log, &mut guard),
                    None => ct.run_day_quiet(&ds.net),
                };
                // Publish: write-temp + rename, as the watcher protocol requires.
                let cp = ct.checkpoint();
                let tmp = dir.join("model.ckpt.tmp");
                cp.save(&tmp).map_err(|e| e.to_string())?;
                std::fs::rename(&tmp, &ckpt).map_err(|e| e.to_string())?;
                // Expected served value through the same frozen inference path.
                let expected = TrainedRepresenter::from_parts(
                    Arc::clone(&encoder),
                    cp.params.clone(),
                    cp.weights.clone(),
                    "probe",
                )
                .embed(&probe.path, probe.departure);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                loop {
                    let got = client
                        .embed(&probe.path, probe.departure)
                        .map_err(|e| format!("probe request failed: {e:?}"))?;
                    if *got == expected {
                        break;
                    }
                    if std::time::Instant::now() > deadline {
                        return Err(format!("day {} checkpoint was not picked up in 20s", r.day));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                println!(
                    "day {}: {} incidents, peak shift {:+.2}h | margin {:+.4} -> {:+.4} | \
                 {} retrain steps | model live",
                    r.day,
                    r.drift.incidents,
                    r.drift.peak_shift,
                    r.quality_before,
                    r.quality_after,
                    r.retrain_steps
                );
            }
            if let Some(log) = log.as_mut() {
                log.flush().map_err(|e| e.to_string())?;
            }
            Ok(())
        })();
        done.store(true, Ordering::Relaxed);
        episode_result
    });
    let stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    outcome?;
    println!(
        "episode complete: {days} days trained while serving {} requests | {} reloads, {} \
         reload errors, 0 dropped",
        served.load(std::sync::atomic::Ordering::Relaxed),
        stats.reloads,
        stats.reload_errors
    );
    if stats.reloads != days || stats.reload_errors != 0 {
        return Err(format!(
            "expected {days} clean reloads, saw {} ({} errors)",
            stats.reloads, stats.reload_errors
        ));
    }
    Ok(())
}

fn cmd_embed(
    flags: &HashMap<String, String>,
    profile: CityProfile,
    scale: Scale,
    seed: u64,
) -> Result<(), String> {
    let ds = load_or_generate(flags, profile, scale, seed)?;
    let model_path = flags.get("model").ok_or("embed requires --model")?;
    let rep = load_model(model_path, &ds.net)?;
    let index: usize = flags.get("index").and_then(|s| s.parse().ok()).unwrap_or(0);
    let sample = ds
        .unlabeled
        .get(index)
        .ok_or_else(|| format!("index {index} out of range ({} paths)", ds.unlabeled.len()))?;
    let v = rep.represent(&ds.net, &sample.path, sample.departure);
    println!(
        "path #{index}: {} edges, departing day {} {:02}:{:02}",
        sample.path.len(),
        sample.departure.day(),
        sample.departure.seconds_of_day() / 3600,
        (sample.departure.seconds_of_day() % 3600) / 60,
    );
    println!("TPR[{}] = {v:?}", v.len());
    Ok(())
}
