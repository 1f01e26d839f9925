//! Shared experiment driver used by the per-table binaries.

use std::path::Path;
use std::time::Instant;

use wsccl_datagen::CityDataset;
use wsccl_roadnet::{CityProfile, Path as RoadPath, RoadNetwork};
use wsccl_traffic::{CongestionModel, SimTime};
use wsccl_train::LossCurve;

use crate::eval::{
    evaluate_ranking, evaluate_recommendation, evaluate_tte, evaluate_tte_predictor, RankMetrics,
    RecMetrics, TteMetrics,
};
use crate::methods::{train_method_observed, Method, MethodKind};
use crate::scale::Scale;

/// Master seed for all experiment binaries; change to re-draw the synthetic
/// world.
pub const WORLD_SEED: u64 = 2022;

/// Generate (deterministically) the dataset for one city at a scale. The
/// first call of a process warns when `BENCH_datagen.json` is missing or
/// was recorded by another tree or host.
pub fn load_city(profile: CityProfile, scale: Scale) -> CityDataset {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if let Some(warning) = crate::record::check_stale("BENCH_datagen.json") {
            eprintln!("[warn] {warning}");
        }
    });
    eprintln!("[gen] {} dataset at scale {}", profile.name(), scale.name());
    let t = Instant::now();
    let ds = CityDataset::generate(&scale.dataset(profile, WORLD_SEED));
    eprintln!("[gen] {} ready in {:.1?}", profile.name(), t.elapsed());
    ds
}

/// Noise-free expected travel time of `path` departing at `departure` under
/// `model`: the trip simulator's traversal recurrence minus its
/// multiplicative noise. The ground truth of the drift and OD-TTE benches.
pub fn expected_travel_time(
    net: &RoadNetwork,
    model: &CongestionModel,
    path: &RoadPath,
    departure: SimTime,
) -> f64 {
    let mut t = departure;
    let mut total = 0.0;
    for &e in path.edges() {
        let dt = model.edge_travel_time(net, e, t);
        total += dt;
        t = t.advance(dt);
    }
    total
}

/// Results of evaluating one trained method on one city.
pub struct MethodResult {
    pub method: Method,
    pub tte: Option<TteMetrics>,
    pub rank: Option<RankMetrics>,
    pub rec: Option<RecMetrics>,
}

/// Which downstream tasks to run.
#[derive(Clone, Copy)]
pub struct Tasks {
    pub tte: bool,
    pub rank: bool,
    pub rec: bool,
}

impl Tasks {
    pub const ALL: Tasks = Tasks { tte: true, rank: true, rec: true };
    pub const TTE_AND_RANK: Tasks = Tasks { tte: true, rank: true, rec: false };
    pub const REC_ONLY: Tasks = Tasks { tte: false, rank: false, rec: true };
}

/// Write a method's recorded loss curve to `results/loss_curves/`, mirroring
/// how tables land in `results/`. Methods without an engine loop (Node2vec)
/// record nothing and get no file.
fn save_loss_curve(method: Method, city: &str, curve: &LossCurve) {
    if curve.step_losses.is_empty() {
        return;
    }
    let dir = Path::new("results").join("loss_curves");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let slug: String = method
        .display_name()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    let file = dir.join(format!("{slug}_{city}.json"));
    if let Ok(json) = serde_json::to_string(curve) {
        let _ = std::fs::write(&file, json);
    }
}

/// Train one method and evaluate the requested tasks. The training loss curve
/// (per-step losses and gradient norms from the engine's observer) is saved
/// under `results/loss_curves/<method>_<city>.json`.
pub fn run_method(method: Method, ds: &CityDataset, scale: Scale, tasks: Tasks) -> MethodResult {
    let t = Instant::now();
    eprintln!("[train] {} on {}", method.display_name(), ds.name);
    let mut curve = LossCurve::new();
    let trained = train_method_observed(method, ds, scale, WORLD_SEED, &mut curve);
    eprintln!("[train] {} done in {:.1?}", method.display_name(), t.elapsed());
    save_loss_curve(method, &ds.name, &curve);
    match trained {
        MethodKind::Repr(rep) => MethodResult {
            method,
            tte: tasks.tte.then(|| evaluate_tte(rep.as_ref(), ds)),
            rank: tasks.rank.then(|| evaluate_ranking(rep.as_ref(), ds)),
            rec: tasks.rec.then(|| evaluate_recommendation(rep.as_ref(), ds)),
        },
        MethodKind::Tte(p) => MethodResult {
            method,
            tte: tasks.tte.then(|| evaluate_tte_predictor(p.as_ref(), ds)),
            rank: None,
            rec: None,
        },
    }
}

/// Standard ablation-style experiment: a list of methods evaluated on travel
/// time + ranking, one table per city. Used by Tables V–X.
pub fn ablation_tables(
    table_id: &str,
    title: &str,
    methods: &[Method],
    cities: &[CityProfile],
    scale: Scale,
) {
    for &profile in cities {
        let ds = load_city(profile, scale);
        let mut table = crate::report::Table::new(
            format!("{title} — {} (scale {})", profile.name(), scale.name()),
            &["Method", "MAE", "MARE", "MAPE", "Rank MAE", "tau", "rho"],
        );
        for &method in methods {
            let res = run_method(method, &ds, scale, Tasks::TTE_AND_RANK);
            let t = tte_cells(&res.tte);
            let r = rank_cells(&res.rank);
            table.row(vec![
                method.display_name().to_string(),
                t[0].clone(),
                t[1].clone(),
                t[2].clone(),
                r[0].clone(),
                r[1].clone(),
                r[2].clone(),
            ]);
        }
        table.emit(&format!("{table_id}_{}.txt", profile.name()));
    }
}

/// Format TTE metrics as three table cells ("-" when absent).
pub fn tte_cells(m: &Option<TteMetrics>) -> [String; 3] {
    match m {
        Some(t) => [format!("{:.2}", t.mae), format!("{:.2}", t.mare), format!("{:.2}", t.mape)],
        None => ["-".into(), "-".into(), "-".into()],
    }
}

/// Format ranking metrics as three table cells.
pub fn rank_cells(m: &Option<RankMetrics>) -> [String; 3] {
    match m {
        Some(r) => [format!("{:.3}", r.mae), format!("{:.2}", r.tau), format!("{:.2}", r.rho)],
        None => ["-".into(), "-".into(), "-".into()],
    }
}

/// Format recommendation metrics as two table cells.
pub fn rec_cells(m: &Option<RecMetrics>) -> [String; 2] {
    match m {
        Some(r) => [format!("{:.2}", r.acc), format!("{:.2}", r.hr)],
        None => ["-".into(), "-".into()],
    }
}
