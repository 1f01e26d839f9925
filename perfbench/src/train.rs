//! `train`: the paper's learned-curriculum pipeline (§VI), end to end.
//!
//! Each op is one optimizer step of the main model, counted from
//! `curriculum/stage-1` to the call's return; the pipeline call is repeated
//! until the run's time is spent. Everything before the first stage
//! (encoder tables, expert models, difficulty scores) is inside
//! `time_to_model_s` but outside the step latencies.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsccl_core::curriculum::{
    curriculum_stages, difficulty_scores, meta_sets, train_wsccl_with_strategy_observed,
    CurriculumStrategy,
};
use wsccl_core::{TemporalPathEncoder, TrainedRepresenter, WscModel, WscclConfig};
use wsccl_datagen::{CityDataset, TemporalPathSample};
use wsccl_traffic::PopLabeler;
use wsccl_train::{EpochRecord, StepRecord, TrainObserver};

use crate::inputs::{self, DataSizes};
use crate::model::{self, secs, span_p50, EpochLog};
use crate::provenance::Fnv;
use crate::report::Report;
use crate::stats::{self, MIN_TAIL};
use crate::trace::{Tracer, NO_OP};

pub struct TrainParams {
    pub data: DataSizes,
    pub cfg: WscclConfig,
    /// Dataset generations before the first op (one more follows before
    /// each later pipeline call); `setup_s` is the median of them all.
    pub setup_reps: usize,
    /// Replayed trips indexed for `recall_at_10`.
    pub corpus: usize,
    pub nprobe: usize,
}

impl TrainParams {
    /// The benchmark's size: a full-scale Aalborg dataset, default config.
    pub fn bench() -> Self {
        Self {
            data: DataSizes { unlabeled: 1200, tte: 2000, groups: 0 },
            cfg: model::wsccl_config(),
            setup_reps: 5,
            corpus: 3000,
            nprobe: 8,
        }
    }
}

enum Event {
    Phase { stage_one: bool },
    Epoch,
    Step { loss: f64 },
}

/// Timestamps every phase and step the pipeline reports.
#[derive(Default)]
struct Clock {
    events: Vec<(Instant, Event)>,
    last_epoch_loss: f64,
}

impl TrainObserver for Clock {
    fn on_step(&mut self, r: &StepRecord) {
        self.events.push((Instant::now(), Event::Step { loss: r.loss }));
    }

    fn on_epoch(&mut self, r: &EpochRecord) {
        self.events.push((Instant::now(), Event::Epoch));
        self.last_epoch_loss = r.mean_loss;
    }

    fn on_phase(&mut self, name: &str) {
        let stage_one = name == "curriculum/stage-1";
        self.events.push((Instant::now(), Event::Phase { stage_one }));
    }
}

/// One pipeline call, as measured.
struct Call {
    traced: bool,
    wall_s: f64,
    pre_stage_s: f64,
    /// Stage 1 to return: the time the ops took.
    op_wall_s: f64,
    /// Gaps between consecutive steps of one epoch. The first step of an
    /// epoch also carries the epoch's set-up (subset, sampler, labels), so
    /// it counts as an op but not as a latency sample.
    gaps_us: Vec<f64>,
    steps: u64,
    applied: u64,
    /// Steps whose loss was not finite.
    nonfinite: u64,
    final_loss: f64,
}

fn train_call(
    ds: &CityDataset,
    cfg: &WscclConfig,
    tracer: &mut Tracer,
    first_op: u64,
) -> (Call, TrainedRepresenter) {
    let mut clock = Clock::default();
    tracer.begin("core.train_wsccl", "core", NO_OP);
    let t0 = Instant::now();
    let rep = train_wsccl_with_strategy_observed(
        &ds.net,
        &ds.unlabeled,
        &PopLabeler,
        cfg,
        CurriculumStrategy::Learned,
        "WSCCL",
        &mut clock,
    );
    let t1 = Instant::now();
    let stage_one = clock
        .events
        .iter()
        .position(|(_, e)| matches!(e, Event::Phase { stage_one: true }))
        .expect("the learned curriculum reports curriculum/stage-1");
    let t_stage = clock.events[stage_one].0;
    tracer.record("core.curriculum.pre_stage", "core", NO_OP, t0, t_stage);
    let mut call = Call {
        traced: tracer.on(),
        wall_s: (t1 - t0).as_secs_f64(),
        pre_stage_s: (t_stage - t0).as_secs_f64(),
        op_wall_s: (t1 - t_stage).as_secs_f64(),
        gaps_us: Vec::new(),
        steps: 0,
        applied: 0,
        nonfinite: 0,
        final_loss: clock.last_epoch_loss,
    };
    let (mut prev, mut after_step) = (t_stage, false);
    for (t, e) in &clock.events[stage_one..] {
        if let Event::Step { loss } = e {
            tracer.record("train.step", "train", first_op + call.steps, prev, *t);
            if after_step {
                call.gaps_us.push((*t - prev).as_secs_f64() * 1e6);
            }
            call.steps += 1;
            call.applied += loss.is_finite() as u64;
            call.nonfinite += !loss.is_finite() as u64;
        }
        after_step = matches!(e, Event::Step { .. });
        prev = *t;
    }
    tracer.end();
    (call, rep)
}

/// Pipeline calls until `seconds` have passed and `min_samples` step
/// latency samples are taken, and at least three calls of each kind. Before
/// every call but the first, `between` runs (untimed as an op). When
/// `tracer` is on, every other call runs with it off, so the tracing
/// overhead is measured side by side.
fn timed_calls(
    ds: &CityDataset,
    cfg: &WscclConfig,
    seconds: f64,
    tracer: &mut Tracer,
    min_samples: usize,
    keep: &mut Option<TrainedRepresenter>,
    between: &mut dyn FnMut(&mut Tracer),
) -> Vec<Call> {
    let alternate = tracer.on();
    let min_calls = 3 * (1 + alternate as usize);
    let start = Instant::now();
    let mut calls = Vec::new();
    let mut ops = 0;
    while calls.len() < min_calls
        || secs(start) < seconds
        || step_samples(&calls).len() < min_samples
    {
        if !calls.is_empty() {
            between(tracer);
        }
        tracer.set_on(alternate && calls.len() % 2 == 1);
        let (call, rep) = train_call(ds, cfg, tracer, ops);
        ops += call.steps;
        keep.get_or_insert(rep);
        calls.push(call);
    }
    tracer.set_on(alternate);
    calls
}

/// Step latency samples. The sample of step `j` in call `c` is the median
/// of step `j`'s gap in calls `c - 1`, `c` and `c + 1`, so the first and
/// last call give none of their own. The calls repeat the same steps on the
/// same data, so one step's gaps differ between calls only by what else the
/// host did at the time: a stall that hits one execution of a step drops
/// out, and a step that is slow every time stays slow.
fn step_samples(calls: &[Call]) -> Vec<f64> {
    let median3 = |a: f64, b: f64, c: f64| a.max(b).min(a.min(b).max(c));
    calls
        .windows(3)
        .flat_map(|w| {
            let n = w.iter().map(|c| c.gaps_us.len()).min().unwrap_or(0);
            (0..n).map(move |j| median3(w[0].gaps_us[j], w[1].gaps_us[j], w[2].gaps_us[j]))
        })
        .collect()
}

struct Summary {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: Option<f64>,
    time_to_model_s: f64,
    applied_ratio: f64,
}

/// Count every step as an op; a non-finite step loss, or a call whose
/// final loss differs from `expected`, is a failed op.
fn summarize(calls: &[Call], expected_loss: f64, report: &mut Report) -> Summary {
    for c in calls {
        for _ in 0..c.steps {
            report.op();
        }
        for _ in 0..c.nonfinite {
            report.op_failed(|| "a step reported a non-finite loss".into());
        }
        if c.final_loss.to_bits() != expected_loss.to_bits() || !c.final_loss.is_finite() {
            report.op_failed(|| {
                format!(
                    "final loss {:?} differs from the first call's {expected_loss:?}",
                    c.final_loss
                )
            });
        }
    }
    let mut gaps = step_samples(calls);
    stats::sort(&mut gaps);
    stats::log_tail("step", &gaps);
    let steps: u64 = calls.iter().map(|c| c.steps).sum();
    let applied: u64 = calls.iter().map(|c| c.applied).sum();
    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let rates: Vec<f64> = calls.iter().map(|c| c.steps as f64 / c.op_wall_s).collect();
    Summary {
        ops_per_s: stats::iq_mean(&rates),
        p50_us: stats::percentile(&gaps, 0.5),
        p99_us: stats::tail_percentile(&gaps, 0.99, MIN_TAIL),
        time_to_model_s: stats::iq_mean(&walls),
        applied_ratio: applied as f64 / steps.max(1) as f64,
    }
}

/// Set-up times and input digests of one run's dataset generations.
#[derive(Default)]
struct SetUps {
    secs: Vec<f64>,
    digests: Vec<u64>,
}

impl SetUps {
    fn generate(&mut self, seed: u64, data: DataSizes, tracer: &mut Tracer) -> CityDataset {
        let t = Instant::now();
        tracer.begin("datagen.generate", "datagen", NO_OP);
        let d = inputs::generate(seed, data);
        tracer.end();
        self.secs.push(secs(t));
        let mut h = Fnv::default();
        inputs::digest_dataset(&mut h, &d);
        self.digests.push(h.finish());
        d
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    p: &TrainParams,
    tracer: &mut Tracer,
    report: &mut Report,
) -> String {
    // Set-up: generate the seed's dataset several times before the first
    // op, and once more before each later pipeline call, so that the median
    // samples the host's speed across the whole run. Every generation must
    // produce the same records.
    let mut setups = SetUps::default();
    let mut ds = None;
    for _ in 0..p.setup_reps.max(1) {
        ds = Some(setups.generate(seed, p.data, tracer));
    }
    let ds = ds.expect("at least one set-up");

    let mut rep = None;
    // Enough samples for a p99 with MIN_TAIL samples beyond it.
    let min_samples = if tracer.on() { 0 } else { 100 * MIN_TAIL };
    let mut again = |tracer: &mut Tracer| drop(setups.generate(seed, p.data, tracer));
    let calls = timed_calls(&ds, &p.cfg, seconds, tracer, min_samples, &mut rep, &mut again);
    let digests = &setups.digests;
    let digest = format!("{:016x}", digests[0]);
    report.check(
        "input_digest_stable",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} generations, digest {digest}", digests.len()),
    );
    let setup = &setups.secs;
    let setup_s = stats::median(setup);

    let rep = rep.expect("at least one call");
    let final_loss = calls[0].final_loss;
    let (traced, untraced): (Vec<Call>, Vec<Call>) = calls.into_iter().partition(|c| c.traced);
    let sum = summarize(&untraced, final_loss, report);
    if tracer.on() {
        let t = summarize(&traced, final_loss, report);
        report.metric("trace.overhead_p50_ratio", t.p50_us / sum.p50_us - 1.0, "ratio");
        report.metric("trace.overhead_ops_ratio", sum.ops_per_s / t.ops_per_s - 1.0, "ratio");
    }
    report.check("final_loss_finite", final_loss.is_finite(), format!("{final_loss:?}"));

    // Quality of the trained model: ETA head and similarity search.
    let eta = model::fit_eta(&rep, &ds, tracer);
    let eta_mae = eta.mae(tracer);
    let corpus = model::embed_all(&rep, &model::replay_corpus(&ds, p.corpus), tracer);
    let idx = model::build_indexes(&corpus, p.nprobe, tracer);
    let queries: Vec<_> = ds.tte.iter().map(|t| (&t.path, t.departure)).collect();
    let recall = idx.recall(&model::embed_all(&rep, &queries, tracer), tracer);

    if !tracer.on() {
        report.check(
            "latency_p99_tail",
            sum.p99_us.is_some(),
            format!("{} step samples", step_samples(&untraced).len()),
        );
        report.metric("setup_s", setup_s, "s");
        report.metric("ops_per_s", sum.ops_per_s, "1/s");
        report.metric("latency_p50_us", sum.p50_us, "us");
        report.metric("latency_p99_us", sum.p99_us.unwrap_or(f64::NAN), "us");
        report.metric("time_to_model_s", sum.time_to_model_s, "s");
        report.metric("final_loss", final_loss, "loss");
        report.metric("eta_mae_s", eta_mae, "s");
        report.metric("recall_at_10", recall, "ratio");
        report.metric("peak_rss_mib", model::peak_rss_mib(), "MiB");
        return digest;
    }

    let gen_s = setup_s;
    let records = (p.data.unlabeled + p.data.tte + p.data.groups) as f64;
    report.metric("datagen.generate_s", gen_s, "s");
    report.metric("datagen.paths_per_s", records / gen_s, "1/s");
    report.metric(
        "core.curriculum.pre_stage_s",
        stats::median(&traced.iter().map(|c| c.pre_stage_s).collect::<Vec<_>>()),
        "s",
    );
    curriculum_breakdown(&ds, &p.cfg, final_loss, tracer, report);
    report.metric("train.applied_step_ratio", sum.applied_ratio, "ratio");
    report.metric("core.embed_batch_us", span_p50(tracer, "core.embed_batch_with"), "us");
    report.metric("downstream.eta_fit_s", eta.fit_s, "s");
    report.metric("downstream.eta_predict_us", span_p50(tracer, "downstream.eta_predict"), "us");
    report.metric("downstream.index_build_s", idx.build_s, "s");
    report.metric("downstream.knn_us", span_p50(tracer, "downstream.knn"), "us");
    report.metric("downstream.knn_scan_fraction", idx.ann.mean_scan_fraction(), "ratio");
    digest
}

/// Time the pipeline's pre-stage parts one by one, exactly as the pipeline
/// runs them, then replay the main model's steps with tape profiling on.
/// The replay must end on the pipeline's final loss bit for bit.
fn curriculum_breakdown(
    ds: &CityDataset,
    cfg: &WscclConfig,
    final_loss: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let data = &ds.unlabeled;
    let t = Instant::now();
    tracer.begin("core.encoder_build", "graphembed", NO_OP);
    let encoder = Arc::new(TemporalPathEncoder::new(&ds.net, cfg.encoder.clone(), cfg.seed));
    tracer.end();
    report.metric("core.encoder_build_s", secs(t), "s");

    let sets = meta_sets(data, cfg.num_meta_sets.clamp(1, data.len()));
    let mut membership = vec![0usize; data.len()];
    for (j, set) in sets.iter().enumerate() {
        set.iter().for_each(|&i| membership[i] = j);
    }
    let t = Instant::now();
    tracer.begin("core.expert_train", "core", NO_OP);
    let experts: Vec<WscModel> = std::thread::scope(|s| {
        let handles: Vec<_> = sets
            .iter()
            .enumerate()
            .map(|(j, set)| {
                let subset: Vec<TemporalPathSample> =
                    set.iter().map(|&i| data[i].clone()).collect();
                let encoder = Arc::clone(&encoder);
                s.spawn(move || {
                    let mut e = WscModel::new(encoder, cfg.clone(), cfg.seed ^ (j as u64 + 1));
                    e.train(&subset, &PopLabeler, cfg.expert_epochs);
                    e
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("expert thread")).collect()
    });
    tracer.end();
    report.metric("core.curriculum.expert_train_s", secs(t), "s");

    let t = Instant::now();
    tracer.begin("core.difficulty", "core", NO_OP);
    let scores = difficulty_scores(&experts, data, &membership);
    tracer.end();
    report.metric("core.curriculum.difficulty_s", secs(t), "s");
    drop(experts);

    let stages =
        curriculum_stages(&scores, sets.len(), &mut StdRng::seed_from_u64(cfg.seed ^ 0xC42));
    let mut model = WscModel::new(encoder, cfg.clone(), cfg.seed);
    model.enable_profiling();
    let mut log = EpochLog::default();
    tracer.begin("train.profiled_replay", "train", NO_OP);
    for stage in &stages {
        let subset: Vec<TemporalPathSample> = stage.iter().map(|&i| data[i].clone()).collect();
        model.train_observed(&subset, &PopLabeler, 1, &mut log);
    }
    model.train_observed(data, &PopLabeler, cfg.epochs, &mut log);
    tracer.end();
    model::tape_metrics(report, &model, log.steps);
    report.check(
        "profiled_replay_matches",
        log.last_epoch_loss.to_bits() == final_loss.to_bits(),
        format!("replay {:?} vs pipeline {final_loss:?}", log.last_epoch_loss),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(steps: u64, nonfinite: u64, final_loss: f64) -> Call {
        Call {
            traced: false,
            wall_s: 1.0,
            pre_stage_s: 0.5,
            op_wall_s: 0.5,
            gaps_us: vec![10.0; steps as usize],
            steps,
            applied: steps - nonfinite,
            nonfinite,
            final_loss,
        }
    }

    #[test]
    fn final_loss_check_fires_on_a_changed_bit_or_nan() {
        let mut r = Report::default();
        summarize(&[call(5, 0, 1.5), call(5, 0, 1.5)], 1.5, &mut r);
        assert_eq!((r.attempted, r.failed), (10, 0));

        let mut r = Report::default();
        summarize(
            &[call(5, 0, 1.5), call(5, 0, f64::from_bits(1.5f64.to_bits() + 1))],
            1.5,
            &mut r,
        );
        assert_eq!(r.failed, 1);

        let mut r = Report::default();
        summarize(&[call(5, 2, f64::NAN)], f64::NAN, &mut r);
        assert_eq!(r.failed, 3, "two non-finite steps and a non-finite final loss");
        assert!(!r.correct());
    }

    #[test]
    fn step_samples_drop_a_one_off_stall_and_keep_a_slow_step() {
        let mut calls: Vec<Call> = (0..4).map(|_| call(3, 0, 1.5)).collect();
        for c in &mut calls {
            c.gaps_us = vec![10.0, 20.0, 30.0];
        }
        calls[1].gaps_us[0] = 900.0;
        calls[2].gaps_us[2] = 5.0;
        // Windows (0, 1, 2) and (1, 2, 3): two samples per step.
        assert_eq!(step_samples(&calls), vec![10.0, 20.0, 30.0, 10.0, 20.0, 30.0]);
        assert!(step_samples(&calls[..2]).is_empty());
    }

    #[test]
    fn tiny_training_run_is_correct_and_traced() {
        let p = TrainParams {
            data: DataSizes { unlabeled: 80, tte: 60, groups: 0 },
            cfg: WscclConfig { seed: inputs::MODEL_SEED, ..WscclConfig::tiny() },
            setup_reps: 2,
            corpus: 200,
            nprobe: 4,
        };
        let mut tracer = Tracer::new(true);
        let mut report = Report::default();
        run(6, 0.2, &p, &mut tracer, &mut report);
        eprint!("{}", report.summary());
        assert!(report.correct());
        for name in ["core.curriculum.expert_train_s", "nn.op.LstmCell.fwd_ms_per_step"] {
            assert!(report.value(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}
