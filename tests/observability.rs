//! Acceptance tests for the observability layer.
//!
//! The contract under test: instrumentation (metrics registry, per-op tape
//! profiling, anomaly guards, JSONL run logs) observes training but never
//! participates in it — a fully-instrumented run must be bit-for-bit
//! identical to a bare one — and the JSONL run log is schema-valid record by
//! record at a fixed seed (the golden trace).
//!
//! The metrics registry is a process-global, so the tests that toggle it are
//! serialized behind a mutex rather than racing each other.

use std::sync::{Mutex, OnceLock};

use wsccl_core::config::WscclConfig;
use wsccl_core::curriculum::{train_wsccl_with_strategy_observed, CurriculumStrategy};
use wsccl_core::encoder::{EncoderConfig, TemporalPathEncoder};
use wsccl_core::wsc::WscModel;
use wsccl_core::PathRepresenter;
use wsccl_core::{ContinualConfig, ContinualTrainer};
use wsccl_datagen::{CityDataset, DatasetConfig};
use wsccl_obs::{AnomalyGuard, AnomalyKind, AnomalyPolicy};
use wsccl_roadnet::CityProfile;
use wsccl_traffic::PopLabeler;
use wsccl_train::{EpochLine, JsonlObserver, LossCurve, MetricsLine, PhaseLine, StepLine};

use std::sync::Arc;

/// Serializes every test that flips the global metrics registry.
fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn dataset() -> &'static (CityDataset, Arc<TemporalPathEncoder>) {
    static DS: OnceLock<(CityDataset, Arc<TemporalPathEncoder>)> = OnceLock::new();
    DS.get_or_init(|| {
        let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 31));
        let enc = Arc::new(TemporalPathEncoder::new(&ds.net, EncoderConfig::tiny(), 31));
        (ds, enc)
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn full_observability_is_bit_invisible_for_wsccl() {
    let _guard = registry_lock();
    let (ds, enc) = dataset();
    let cfg = WscclConfig::tiny();

    // Bare run: registry off, no profiling, no guard, no observer.
    wsccl_obs::global().set_enabled(false);
    let mut bare = WscModel::new(Arc::clone(enc), cfg.clone(), 13);
    bare.train(&ds.unlabeled, &PopLabeler, 3);

    // Fully instrumented run: registry on, per-op profiling, a recording
    // anomaly guard, and a JSONL observer with periodic metric snapshots.
    wsccl_obs::global().reset();
    wsccl_obs::global().set_enabled(true);
    let mut inst = WscModel::new(Arc::clone(enc), cfg, 13);
    inst.enable_profiling();
    inst.set_anomaly_guard(AnomalyGuard::new(AnomalyPolicy::Record));
    let mut log = JsonlObserver::new(Vec::new()).with_metrics_every(2);
    inst.train_observed(&ds.unlabeled, &PopLabeler, 3, &mut log);
    wsccl_obs::global().set_enabled(false);

    assert_eq!(
        bits(&bare.loss_history),
        bits(&inst.loss_history),
        "loss history must be bit-identical with observability on vs off"
    );
    for s in ds.unlabeled.iter().take(5) {
        assert_eq!(
            bits(&bare.embed(&s.path, s.departure)),
            bits(&inst.embed(&s.path, s.departure)),
            "embeddings must be bit-identical with observability on vs off"
        );
    }

    // And the instrumentation actually observed something.
    let profile = inst.profile();
    assert!(!profile.ops.is_empty(), "profiling enabled but no ops recorded");
    assert!(profile.get("LstmCell").is_some(), "WSCCL training must exercise the fused LSTM cell");
    assert!(
        inst.anomaly_guard().is_some_and(|g| g.events().is_empty()),
        "healthy training must not trip the anomaly guard"
    );
    let text = String::from_utf8(log.into_inner()).expect("utf8 log");
    assert!(text.lines().count() > 0, "JSONL observer wrote nothing");
}

#[test]
fn full_observability_is_bit_invisible_for_pim_lstm_baseline() {
    let _guard = registry_lock();
    let (ds, _) = dataset();
    let cfg = wsccl_baselines::pim::PimConfig { epochs: 2, ..Default::default() };

    wsccl_obs::global().set_enabled(false);
    let mut bare_curve = LossCurve::new();
    let bare = wsccl_baselines::pim::train_observed(&ds.net, &ds.unlabeled, &cfg, &mut bare_curve);

    // Instrumented run: registry on, a JSONL log *and* a loss curve fed from
    // the same records through a fan-out observer.
    struct Tee<'a>(&'a mut dyn wsccl_train::TrainObserver, &'a mut dyn wsccl_train::TrainObserver);
    impl wsccl_train::TrainObserver for Tee<'_> {
        fn on_step(&mut self, r: &wsccl_train::StepRecord) {
            self.0.on_step(r);
            self.1.on_step(r);
        }
        fn on_epoch(&mut self, r: &wsccl_train::EpochRecord) {
            self.0.on_epoch(r);
            self.1.on_epoch(r);
        }
        fn on_phase(&mut self, name: &str) {
            self.0.on_phase(name);
            self.1.on_phase(name);
        }
    }
    wsccl_obs::global().reset();
    wsccl_obs::global().set_enabled(true);
    let mut inst_curve = LossCurve::new();
    let mut log = JsonlObserver::new(Vec::new()).with_metrics_every(1);
    let inst = wsccl_baselines::pim::train_observed(
        &ds.net,
        &ds.unlabeled,
        &cfg,
        &mut Tee(&mut log, &mut inst_curve),
    );
    wsccl_obs::global().set_enabled(false);
    assert!(!String::from_utf8(log.into_inner()).expect("utf8 log").is_empty());

    assert_eq!(
        bits(&bare_curve.step_losses),
        bits(&inst_curve.step_losses),
        "PIM step losses must be bit-identical with observability on vs off"
    );
    for s in ds.unlabeled.iter().take(5) {
        assert_eq!(
            bits(&bare.represent(&ds.net, &s.path, s.departure)),
            bits(&inst.represent(&ds.net, &s.path, s.departure)),
            "PIM representations must be bit-identical with observability on vs off"
        );
    }
}

/// Golden trace: at a fixed seed, every line of the run log must parse into
/// exactly one known record type, step counters must be monotone, and every
/// numeric field of a non-skipped step must be finite.
#[test]
fn golden_trace_run_log_is_schema_valid() {
    let _guard = registry_lock();
    let (ds, _) = dataset();
    let cfg = WscclConfig::tiny();

    wsccl_obs::global().reset();
    wsccl_obs::global().set_enabled(true);
    let mut log = JsonlObserver::new(Vec::new()).with_metrics_every(2);
    let rep = train_wsccl_with_strategy_observed(
        &ds.net,
        &ds.unlabeled,
        &PopLabeler,
        &cfg,
        CurriculumStrategy::Heuristic,
        "WSCCL-golden",
        &mut log,
    );
    wsccl_obs::global().set_enabled(false);
    let s = &ds.unlabeled[0];
    assert!(rep.represent(&ds.net, &s.path, s.departure).iter().all(|x| x.is_finite()));

    let text = String::from_utf8(log.into_inner()).expect("utf8 log");
    let (mut steps, mut epochs, mut phases, mut metrics) = (0usize, 0usize, 0usize, 0usize);
    let mut phase_names = Vec::new();
    let mut last_step: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        if let Ok(s) = serde_json::from_str::<StepLine>(line) {
            if s.record == "step" {
                steps += 1;
                // One trainer drives every curriculum segment, so the step
                // counter is strictly increasing across the whole log.
                if let Some(prev) = last_step {
                    assert!(
                        s.step > prev,
                        "line {i}: step counter went backwards ({prev} -> {})",
                        s.step
                    );
                }
                last_step = Some(s.step);
                if s.loss.is_finite() {
                    assert!(s.grad_norm.is_finite(), "line {i}: non-finite grad_norm");
                    assert!(s.lr.is_finite() && s.lr > 0.0, "line {i}: bad lr");
                    for (name, v) in &s.terms {
                        assert!(v.is_finite(), "line {i}: non-finite term {name}");
                    }
                    // lambda = 0.8 ∈ (0,1): both WSC objective terms present.
                    let names: Vec<&str> = s.terms.iter().map(|(n, _)| n.as_str()).collect();
                    assert!(names.contains(&"wsc/global"), "line {i}: missing wsc/global term");
                    assert!(names.contains(&"wsc/local"), "line {i}: missing wsc/local term");
                }
                assert!(s.ms >= 0.0, "line {i}: negative step time");
                assert!(!s.phase.is_empty(), "line {i}: step outside any phase");
                continue;
            }
        }
        if let Ok(e) = serde_json::from_str::<EpochLine>(line) {
            if e.record == "epoch" {
                epochs += 1;
                assert!(e.steps > 0, "line {i}: epoch with zero steps");
                assert!(e.ms >= 0.0, "line {i}: negative epoch time");
                continue;
            }
        }
        if let Ok(p) = serde_json::from_str::<PhaseLine>(line) {
            if p.record == "phase" {
                phases += 1;
                phase_names.push(p.phase);
                continue;
            }
        }
        if let Ok(m) = serde_json::from_str::<MetricsLine>(line) {
            if m.record == "metrics" {
                metrics += 1;
                let counter_names: Vec<&str> = m.counters.iter().map(|(n, _)| n.as_str()).collect();
                assert!(
                    counter_names.contains(&"train.steps"),
                    "line {i}: metrics snapshot missing train.steps"
                );
                for (name, v) in &m.gauges {
                    // Gauges are NaN (serialized null) until first set.
                    let _ = (name, v);
                }
                for h in &m.histograms {
                    assert!(h.sum.is_finite(), "line {i}: non-finite histogram sum {}", h.name);
                    let bucketed: u64 = h.buckets.iter().map(|&(_, c)| c).sum::<u64>() + h.overflow;
                    assert_eq!(bucketed, h.count, "line {i}: histogram {} counts disagree", h.name);
                }
                continue;
            }
        }
        panic!("line {i} is not a known record type: {line}");
    }
    assert!(steps > 0, "no step records in golden trace");
    assert!(epochs > 0, "no epoch records in golden trace");
    assert!(metrics > 0, "no metrics snapshots in golden trace");
    // Heuristic curriculum at tiny scale: num_meta_sets stages plus "final".
    assert!(phases >= 2, "expected curriculum stage phases plus final, got {phases}");
    assert_eq!(phase_names.last().map(String::as_str), Some("final"));
    assert!(phase_names.iter().any(|p| p.starts_with("curriculum/stage-")));
}

/// Golden trace for a drift episode: two days of incremental re-training must
/// log schema-valid records only, with the continual phases (`drift/day-N`,
/// `retrain/stage-K`, `retrain/final`) present and the step counter monotone
/// across the whole episode.
#[test]
fn drift_episode_run_log_is_schema_valid() {
    let _guard = registry_lock();
    let (ds, enc) = dataset();

    wsccl_obs::global().set_enabled(false);
    let mut model = WscModel::new(Arc::clone(enc), WscclConfig::tiny(), 33);
    model.train(&ds.unlabeled, &PopLabeler, 1);
    let mut ct = ContinualTrainer::new(model, 31, ds.congestion.clone(), ContinualConfig::tiny(43));

    let mut log = JsonlObserver::new(Vec::new());
    let mut guard = AnomalyGuard::new(AnomalyPolicy::Record);
    for _ in 0..2 {
        let r = ct.run_day(&ds.net, &mut log, &mut guard);
        assert_eq!(r.anomalies, 0, "healthy drift day must not trip the guard");
    }

    let text = String::from_utf8(log.into_inner()).expect("utf8 log");
    let mut phase_names = Vec::new();
    let mut last_step: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        if let Ok(s) = serde_json::from_str::<StepLine>(line) {
            if s.record == "step" {
                if let Some(prev) = last_step {
                    assert!(s.step > prev, "line {i}: step counter went backwards");
                }
                last_step = Some(s.step);
                assert!(!s.phase.is_empty(), "line {i}: step outside any phase");
                continue;
            }
        }
        if let Ok(e) = serde_json::from_str::<EpochLine>(line) {
            if e.record == "epoch" {
                assert!(e.steps > 0, "line {i}: epoch with zero steps");
                continue;
            }
        }
        if let Ok(p) = serde_json::from_str::<PhaseLine>(line) {
            if p.record == "phase" {
                phase_names.push(p.phase);
                continue;
            }
        }
        if let Ok(m) = serde_json::from_str::<MetricsLine>(line) {
            if m.record == "metrics" {
                continue;
            }
        }
        panic!("line {i} is not a known record type: {line}");
    }
    assert!(last_step.is_some(), "no step records in drift trace");
    for day in 0..2u64 {
        assert!(
            phase_names.iter().any(|p| p == &format!("drift/day-{day}")),
            "missing drift/day-{day} phase: {phase_names:?}"
        );
    }
    assert!(
        phase_names.iter().any(|p| p.starts_with("retrain/stage-")),
        "missing curriculum-restart stage phases: {phase_names:?}"
    );
    assert!(phase_names.iter().any(|p| p == "retrain/final"));
}

/// A NaN planted in the weights must be attributed: the drift day's parameter
/// sweep reports a `NonFiniteParam` event naming the poisoned parameter.
#[test]
fn drift_param_sweep_attributes_injected_nan() {
    let _guard = registry_lock();
    let (ds, enc) = dataset();

    wsccl_obs::global().set_enabled(false);
    let mut model = WscModel::new(Arc::clone(enc), WscclConfig::tiny(), 34);
    model.train(&ds.unlabeled, &PopLabeler, 1);
    let mut ct = ContinualTrainer::new(model, 31, ds.congestion.clone(), ContinualConfig::tiny(44));

    // Poison one parameter element. NaN survives every optimizer update, so
    // whatever else it contaminates, the sweep must still name this tensor.
    let params = ct.model_mut().params_mut();
    let id = params.ids().next().expect("model has parameters");
    let poisoned = params.name(id).to_string();
    params.value_mut(id).data_mut()[0] = f64::NAN;

    let mut log = JsonlObserver::new(Vec::new());
    let mut guard = AnomalyGuard::new(AnomalyPolicy::Record);
    let r = ct.run_day(&ds.net, &mut log, &mut guard);
    assert!(r.anomalies > 0, "poisoned run must raise anomalies");
    let hit = guard
        .events()
        .iter()
        .find(|e| e.kind == AnomalyKind::NonFiniteParam && e.context.contains(&poisoned))
        .unwrap_or_else(|| {
            panic!("no NonFiniteParam event names `{poisoned}`: {:?}", guard.events())
        });
    assert!(
        hit.context.contains("drift/day-0"),
        "attribution must cite the drift day: {}",
        hit.context
    );
    assert!(hit.value.is_nan());
}
