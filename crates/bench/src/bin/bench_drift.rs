//! `bench_drift` — the continual-learning drift dashboard. Simulates a short
//! drift episode and records, per day, embedding-quality decay vs. re-training
//! cadence in `BENCH_drift.json` (a [`wsccl_bench::record`]; the body is
//! [`DriftBench`]).
//!
//! Two tracks run over the same deterministic drift episode:
//!
//! * **incremental** — a [`ContinualTrainer`]: warm-start from yesterday's
//!   weights, curriculum-restarted re-training on that day's fresh samples
//!   mixed with the bounded replay reservoir (pinned weak labels).
//! * **full** — the ceiling: a scratch model re-trained from random init on
//!   the entire accumulated corpus (original pre-training data plus every
//!   day's fresh samples so far) under the current day's labeler.
//!
//! Both tracks are scored with the repo's standard embedding-quality probe
//! shape (representation → GBR head, as in `eval::evaluate_tte`): the day's
//! held-out eval paths get noise-free expected travel times under that day's
//! drifted congestion, a small GBR is fit on each model's embeddings over
//! the train split, and quality is the ETA MAE on the test split (lower is
//! better). Drift moves the true travel times, so a stale embedding's MAE
//! rises; re-training pulls it back down.
//! `recovery = (mae_before - mae_after) / (mae_before - mae_full)` (capped
//! at 1, and defined as 1 when the full re-train finds no error to recover);
//! `step_cost = retrain_steps / full_steps`. The contracts — warm-start +
//! replay recovers ≥ 80% of the drift-induced drop at ≤ 30% of the full
//! re-train step cost — hold on the means over a 3-day episode; the binary
//! exits 1 when either fails.
//!
//! The episode's JSONL run log (drift/retrain phases, per-step records)
//! lands in `results/runs/drift-bench.jsonl`; the dashboard table in
//! `results/drift_dashboard.txt`.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use wsccl_bench::record::{self, Contract};
use wsccl_bench::runner::{expected_travel_time, WORLD_SEED};
use wsccl_bench::{Scale, Table};
use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::{ContinualConfig, ContinualTrainer, WscModel, WscclConfig};
use wsccl_datagen::{CityDataset, TemporalPathSample};
use wsccl_downstream::task::{kfold_modulo_mae, EtaRegression};
use wsccl_obs::{AnomalyGuard, AnomalyPolicy};
use wsccl_roadnet::{CityProfile, RoadNetwork};
use wsccl_traffic::{CongestionModel, TciLabeler};
use wsccl_train::{run_log_path, JsonlObserver};

/// Simulated days in the episode.
const DAYS: u64 = 3;
/// Epochs of the scratch full re-train each day. Together with the growing
/// corpus this sets the step budget the incremental track is measured
/// against.
const FULL_EPOCHS: usize = 8;
/// Epochs of the day-0 base pre-train.
const BASE_EPOCHS: usize = 8;
/// Incremental re-training learning rate as a fraction of the from-scratch
/// rate.
const LR_SCALE: f64 = 0.25;
/// Incremental full-pool re-train epochs per day.
const RETRAIN_EPOCHS: usize = 2;
/// Contract: mean recovery of the drift-induced drop, at least.
const MIN_RECOVERY: f64 = 0.8;
/// Contract: mean incremental step cost as a fraction of a full re-train,
/// at most.
const MAX_STEP_COST: f64 = 0.3;

/// One simulated day of the drift episode.
#[derive(Serialize)]
struct DriftDayRow {
    day: u64,
    /// Incidents placed that day.
    incidents: usize,
    /// Edges under roadworks that day.
    works_edges: usize,
    /// Seasonal peak shift, hours.
    peak_shift: f64,
    /// Probe ETA MAE of the stale model on that day's data.
    quality_before: f64,
    /// Probe ETA MAE after incremental re-training (warm-start + replay).
    quality_after: f64,
    /// Probe ETA MAE of a scratch full re-train on the same pool (ceiling).
    quality_full: f64,
    /// Optimizer steps of the incremental re-train.
    retrain_steps: u64,
    /// Optimizer steps of the scratch full re-train.
    full_steps: u64,
    /// `(before - after) / (before - full)`, capped at 1, and 1 when the
    /// full re-train shows no drop to recover.
    recovery: f64,
    /// `retrain_steps / full_steps`.
    step_cost: f64,
    /// Anomaly-guard events raised during re-training.
    anomalies: usize,
}

#[derive(Serialize)]
struct DriftBench {
    days: Vec<DriftDayRow>,
    mean_recovery: f64,
    mean_step_cost: f64,
    /// JSONL run log of the episode (drift/retrain phases, step records).
    run_log: String,
}

/// Embedding-quality probe: 4-fold cross-validated MAE of an
/// [`EtaRegression`] head fit on the model's embeddings against that day's
/// true expected travel times. Mirrors `eval::evaluate_tte` /
/// `kfold::kfold_tte_mae`, but against the drifted day's ground truth; the
/// modulo folds use every eval sample as test once, which keeps the probe
/// variance well below the drift effect.
fn tte_probe_mae(
    model: &WscModel,
    net: &RoadNetwork,
    day_model: &CongestionModel,
    samples: &[TemporalPathSample],
) -> f64 {
    let x: Vec<Vec<f64>> = samples.iter().map(|s| model.embed(&s.path, s.departure)).collect();
    let y: Vec<f64> = samples
        .iter()
        .map(|s| expected_travel_time(net, day_model, &s.path, s.departure))
        .collect();
    kfold_modulo_mae(&EtaRegression::default(), &x, &y, 4)
}

fn main() {
    eprintln!("[bench_drift] {DAYS}-day episode, seed {WORLD_SEED}");
    let t0 = Instant::now();
    let ds = CityDataset::generate(&Scale::Tiny.dataset(CityProfile::Aalborg, WORLD_SEED));
    let encoder = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::default(), WORLD_SEED));
    let cfg = WscclConfig::default();

    // Day-0 base model: pre-trained on the original corpus under the
    // un-drifted congestion, then handed to the continual trainer.
    let base_labeler = TciLabeler::new(&ds.net, &ds.congestion);
    let mut model = WscModel::new(Arc::clone(&encoder), cfg.clone(), WORLD_SEED);
    model.train(&ds.unlabeled, &base_labeler, BASE_EPOCHS);
    let episode = ContinualConfig {
        fresh_per_day: 128,
        eval_per_day: 128,
        replay_capacity: 128,
        retrain_epochs: RETRAIN_EPOCHS,
        retrain_lr_scale: LR_SCALE,
        ..ContinualConfig::tiny(WORLD_SEED)
    };
    let mut ct = ContinualTrainer::new(model, WORLD_SEED, ds.congestion.clone(), episode);

    let mut observer = JsonlObserver::to_file("drift-bench").expect("create run log");
    let mut guard = AnomalyGuard::new(AnomalyPolicy::Record);
    let mut corpus = ds.unlabeled.clone();
    let mut rows: Vec<DriftDayRow> = Vec::new();
    let mut table = Table::new(
        "Continual learning under drift — recovery vs. re-training cadence".to_string(),
        &[
            "Day",
            "Incid",
            "Works",
            "Shift",
            "MAE-stale",
            "MAE-incr",
            "MAE-full",
            "Steps",
            "FullSteps",
            "Recovery",
            "Cost",
            "Anom",
        ],
    );

    for day in 0..DAYS {
        // Full-retrain ceiling: scratch weights, accumulated corpus (incl.
        // today's fresh collection), current day's labeler, same eval set.
        let (fresh, eval) = ct.day_samples(&ds.net, day);
        let day_model = ct.day_model(&ds.net, day);
        let day_labeler = TciLabeler::new(&ds.net, &day_model);
        corpus.extend(fresh.iter().cloned());
        let mut full = WscModel::new(Arc::clone(&encoder), cfg.clone(), WORLD_SEED ^ day);
        full.train(&corpus, &day_labeler, FULL_EPOCHS);
        let quality_full = tte_probe_mae(&full, &ds.net, &day_model, &eval);
        let full_steps = full.global_step();

        let quality_before = tte_probe_mae(ct.model(), &ds.net, &day_model, &eval);
        let r = ct.run_day(&ds.net, &mut observer, &mut guard);
        let quality_after = tte_probe_mae(ct.model(), &ds.net, &day_model, &eval);
        // Quality is an error (MAE): the drift-induced drop is how far the
        // stale model sits above the full-retrain ceiling.
        let drop = quality_before - quality_full;
        let recovery =
            if drop <= 1e-9 { 1.0 } else { ((quality_before - quality_after) / drop).min(1.0) };
        let step_cost = r.retrain_steps as f64 / full_steps.max(1) as f64;
        eprintln!(
            "[bench_drift] day {day}: before {:.4} after {:.4} full {:.4} | {} vs {} steps | \
             recovery {recovery:.2} cost {step_cost:.2}",
            quality_before, quality_after, quality_full, r.retrain_steps, full_steps
        );
        table.row(vec![
            day.to_string(),
            r.drift.incidents.to_string(),
            r.drift.works_edges.to_string(),
            format!("{:+.2}h", r.drift.peak_shift),
            format!("{:.1}s", quality_before),
            format!("{:.1}s", quality_after),
            format!("{:.1}s", quality_full),
            r.retrain_steps.to_string(),
            full_steps.to_string(),
            format!("{recovery:.2}"),
            format!("{step_cost:.2}"),
            r.anomalies.to_string(),
        ]);
        rows.push(DriftDayRow {
            day,
            incidents: r.drift.incidents,
            works_edges: r.drift.works_edges,
            peak_shift: r.drift.peak_shift,
            quality_before,
            quality_after,
            quality_full,
            retrain_steps: r.retrain_steps,
            full_steps,
            recovery,
            step_cost,
            anomalies: r.anomalies,
        });
    }
    let _ = observer.flush();
    table.emit("drift_dashboard.txt");

    let n = rows.len().max(1) as f64;
    let mean_recovery = rows.iter().map(|r| r.recovery).sum::<f64>() / n;
    let mean_step_cost = rows.iter().map(|r| r.step_cost).sum::<f64>() / n;
    let contracts = [
        Contract::at_least("mean_recovery", mean_recovery, MIN_RECOVERY),
        Contract::at_most("mean_step_cost", mean_step_cost, MAX_STEP_COST),
    ];
    let bench = DriftBench {
        days: rows,
        mean_recovery,
        mean_step_cost,
        run_log: run_log_path("drift-bench").display().to_string(),
    };
    if let Err(e) = record::save("BENCH_drift.json", &contracts, &bench) {
        eprintln!("[bench_drift] failed to write BENCH_drift.json: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_drift.json: mean recovery {mean_recovery:.2}, mean step cost \
         {mean_step_cost:.2} over {DAYS} days in {:.1?}",
        t0.elapsed()
    );
    record::enforce(&contracts);
}
