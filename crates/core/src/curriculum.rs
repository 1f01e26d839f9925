//! Contrastive curriculum learning (§VI): curriculum sample evaluation with
//! expert models (Eq. 13) and curriculum sample selection over easy-to-hard
//! stages, yielding the advanced WSCCL model.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use wsccl_datagen::TemporalPathSample;
use wsccl_roadnet::RoadNetwork;
use wsccl_traffic::WeakLabeler;

use crate::config::WscclConfig;
use crate::encoder::TemporalPathEncoder;
use crate::wsc::{TrainedRepresenter, WscModel};

/// How the training curriculum is constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurriculumStrategy {
    /// Expert-based difficulty scores (the paper's WSCCL, §VI-B).
    Learned,
    /// Sort by path length only (the paper's "Heuristic" baseline, Table V).
    Heuristic,
    /// No curriculum: plain WSC on shuffled data ("w/o CL", Table VI).
    None,
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Split data (sorted by path length, §VI-B) into `n` contiguous meta-sets.
/// Returns index sets into `data`.
pub fn meta_sets(data: &[TemporalPathSample], n: usize) -> Vec<Vec<usize>> {
    assert!(n >= 1 && n <= data.len(), "need 1 ≤ N ≤ |D|");
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.sort_by_key(|&i| data[i].path.len());
    let chunk = data.len().div_ceil(n);
    order.chunks(chunk).map(|c| c.to_vec()).collect()
}

/// Compute difficulty scores (Eq. 13): for `tp_i` in meta-set `j`, the sum
/// over other experts `k` of `sim(WSC_j(tp_i), WSC_k(tp_i))`. Higher = easier.
pub fn difficulty_scores(
    experts: &[WscModel],
    data: &[TemporalPathSample],
    membership: &[usize],
) -> Vec<f64> {
    let n_experts = experts.len();
    let mut scores = vec![0.0; data.len()];
    // Pre-embed every sample under every expert. Embedding is lock-free and
    // read-only, so each expert's pass runs on its own thread; collecting the
    // joins in expert order keeps the output deterministic.
    let reprs: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = experts
            .iter()
            .map(|expert| {
                scope.spawn(move || {
                    data.iter().map(|s| expert.embed(&s.path, s.departure)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("embed thread")).collect()
    });
    for (i, &own) in membership.iter().enumerate() {
        let own_repr = &reprs[own][i];
        let mut s = 0.0;
        for k in 0..n_experts {
            if k != own {
                s += cosine(own_repr, &reprs[k][i]);
            }
        }
        scores[i] = s;
    }
    scores
}

/// Partition sample indices into `m` stages, easiest (highest score) first,
/// shuffling within each stage (§VI-C).
pub fn curriculum_stages(scores: &[f64], m: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    assert!(m >= 1 && m <= scores.len(), "need 1 ≤ M ≤ |D|");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // Descending score = ascending difficulty.
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));
    let chunk = scores.len().div_ceil(m);
    order
        .chunks(chunk)
        .map(|c| {
            let mut stage = c.to_vec();
            stage.shuffle(rng);
            stage
        })
        .collect()
}

/// Train the full WSCCL pipeline and return a frozen representer.
///
/// With [`CurriculumStrategy::Learned`]: sort by length → N meta-sets → N
/// expert WSC models (trained in parallel) → difficulty scores → M = N stages
/// easy→hard, one epoch each → final stage on all data for `cfg.epochs`.
pub fn train_wsccl_with_strategy(
    net: &RoadNetwork,
    data: &[TemporalPathSample],
    labeler: &(dyn WeakLabeler + Sync),
    cfg: &WscclConfig,
    strategy: CurriculumStrategy,
    name: &str,
) -> TrainedRepresenter {
    train_wsccl_with_strategy_observed(
        net,
        data,
        labeler,
        cfg,
        strategy,
        name,
        &mut wsccl_train::NoopObserver,
    )
}

/// [`train_wsccl_with_strategy`] with a [`wsccl_train::TrainObserver`]
/// receiving the *main* model's training records (curriculum stages plus the
/// final full-data stage). Expert models train unobserved on their own
/// threads.
pub fn train_wsccl_with_strategy_observed(
    net: &RoadNetwork,
    data: &[TemporalPathSample],
    labeler: &(dyn WeakLabeler + Sync),
    cfg: &WscclConfig,
    strategy: CurriculumStrategy,
    name: &str,
    observer: &mut dyn wsccl_train::TrainObserver,
) -> TrainedRepresenter {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let encoder = Arc::new(TemporalPathEncoder::new(net, cfg.encoder.clone(), cfg.seed));
    let mut model = WscModel::new(Arc::clone(&encoder), cfg.clone(), cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC42);

    let stages: Vec<Vec<usize>> = match strategy {
        CurriculumStrategy::None => Vec::new(),
        CurriculumStrategy::Heuristic => {
            // Difficulty = path length: shorter paths are assumed easier.
            let scores: Vec<f64> = data.iter().map(|s| -(s.path.len() as f64)).collect();
            let m = cfg.num_meta_sets.clamp(1, data.len());
            curriculum_stages(&scores, m, &mut rng)
        }
        CurriculumStrategy::Learned => {
            let n = cfg.num_meta_sets.clamp(1, data.len());
            let sets = meta_sets(data, n);
            let mut membership = vec![0usize; data.len()];
            for (j, set) in sets.iter().enumerate() {
                for &i in set {
                    membership[i] = j;
                }
            }
            // Train experts in parallel: each on its own meta-set.
            let expert_cfg = cfg.clone();
            let experts: Vec<WscModel> = std::thread::scope(|scope| {
                let handles: Vec<_> = sets
                    .iter()
                    .enumerate()
                    .map(|(j, set)| {
                        let encoder = Arc::clone(&encoder);
                        let expert_cfg = expert_cfg.clone();
                        let subset: Vec<TemporalPathSample> =
                            set.iter().map(|&i| data[i].clone()).collect();
                        scope.spawn(move || {
                            let mut expert = WscModel::new(
                                encoder,
                                expert_cfg.clone(),
                                expert_cfg.seed ^ (j as u64 + 1),
                            );
                            expert.train(&subset, labeler, expert_cfg.expert_epochs);
                            expert
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("expert thread")).collect()
            });

            let scores = difficulty_scores(&experts, data, &membership);
            curriculum_stages(&scores, sets.len(), &mut rng)
        }
    };

    // Curriculum phase: one epoch per stage, easy → hard.
    for (i, stage) in stages.iter().enumerate() {
        observer.on_phase(&format!("curriculum/stage-{}", i + 1));
        let subset: Vec<TemporalPathSample> = stage.iter().map(|&i| data[i].clone()).collect();
        model.train_observed(&subset, labeler, 1, observer);
    }
    // Final stage S_{M+1}: the whole training set until convergence
    // (cfg.epochs at reproduction scale).
    observer.on_phase("final");
    model.train_observed(data, labeler, cfg.epochs, observer);
    model.into_representer(name)
}

/// Train the paper's default WSCCL (learned curriculum).
pub fn train_wsccl(
    net: &RoadNetwork,
    data: &[TemporalPathSample],
    labeler: &(dyn WeakLabeler + Sync),
    cfg: &WscclConfig,
) -> TrainedRepresenter {
    train_wsccl_with_strategy(net, data, labeler, cfg, CurriculumStrategy::Learned, "WSCCL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::represent::PathRepresenter;
    use wsccl_datagen::{CityDataset, DatasetConfig};
    use wsccl_roadnet::CityProfile;
    use wsccl_traffic::PopLabeler;

    fn tiny_data() -> CityDataset {
        CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 17))
    }

    #[test]
    fn meta_sets_partition_and_sort_by_length() {
        let ds = tiny_data();
        let sets = meta_sets(&ds.unlabeled, 3);
        assert_eq!(sets.len(), 3);
        let total: usize = sets.iter().map(Vec::len).sum();
        assert_eq!(total, ds.unlabeled.len());
        // Max length in set i ≤ min length in set i+1.
        for w in sets.windows(2) {
            let max_prev = w[0].iter().map(|&i| ds.unlabeled[i].path.len()).max().unwrap();
            let min_next = w[1].iter().map(|&i| ds.unlabeled[i].path.len()).min().unwrap();
            assert!(max_prev <= min_next);
        }
        // No overlaps.
        let mut all: Vec<usize> = sets.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), ds.unlabeled.len());
    }

    #[test]
    fn stages_order_easy_to_hard() {
        let scores = vec![5.0, 1.0, 4.0, 2.0, 3.0, 0.0];
        let mut rng = StdRng::seed_from_u64(1);
        let stages = curriculum_stages(&scores, 3, &mut rng);
        assert_eq!(stages.len(), 3);
        // First stage holds the two highest scores (easiest samples).
        let s0: std::collections::HashSet<usize> = stages[0].iter().copied().collect();
        assert_eq!(s0, [0usize, 2].into_iter().collect());
        let s2: std::collections::HashSet<usize> = stages[2].iter().copied().collect();
        assert_eq!(s2, [1usize, 5].into_iter().collect());
    }

    #[test]
    fn full_wsccl_pipeline_trains_and_represents() {
        let ds = tiny_data();
        let cfg = WscclConfig::tiny();
        let rep = train_wsccl(&ds.net, &ds.unlabeled, &PopLabeler, &cfg);
        let s = &ds.unlabeled[0];
        let v = rep.represent(&ds.net, &s.path, s.departure);
        assert_eq!(v.len(), rep.dim());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn heuristic_and_no_curriculum_variants_train() {
        let ds = tiny_data();
        let cfg = WscclConfig::tiny();
        for strategy in [CurriculumStrategy::Heuristic, CurriculumStrategy::None] {
            let rep = train_wsccl_with_strategy(
                &ds.net,
                &ds.unlabeled,
                &PopLabeler,
                &cfg,
                strategy,
                "variant",
            );
            let s = &ds.unlabeled[1];
            assert!(rep.represent(&ds.net, &s.path, s.departure).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn difficulty_scores_are_bounded_by_expert_count() {
        let ds = tiny_data();
        let encoder =
            Arc::new(TemporalPathEncoder::new(&ds.net, crate::encoder::EncoderConfig::tiny(), 1));
        let sets = meta_sets(&ds.unlabeled, 2);
        let mut membership = vec![0usize; ds.unlabeled.len()];
        for (j, set) in sets.iter().enumerate() {
            for &i in set {
                membership[i] = j;
            }
        }
        let experts: Vec<WscModel> = (0..2)
            .map(|j| WscModel::new(Arc::clone(&encoder), WscclConfig::tiny(), j as u64))
            .collect();
        let scores = difficulty_scores(&experts, &ds.unlabeled, &membership);
        // Score is a sum of N−1 cosines, each in [−1, 1].
        for &s in &scores {
            assert!((-1.0..=1.0).contains(&s), "score {s} out of range for N=2");
        }
    }
}
