//! Shared baseline infrastructure: raw edge featurization, time features,
//! and the closure-based representer wrapper.

use std::sync::{Mutex, PoisonError};

use wsccl_core::PathRepresenter;
use wsccl_roadnet::{EdgeId, Path, RoadNetwork, RoadType};
use wsccl_traffic::SimTime;

/// Raw (non-learned) per-edge feature vectors used by the baselines that do
/// not train their own categorical embeddings: one-hot road type, normalized
/// lane count, one-way and signal flags, and normalized length.
pub struct EdgeFeaturizer {
    features: Vec<Vec<f64>>,
}

impl EdgeFeaturizer {
    /// Width of the raw feature vector.
    pub const DIM: usize = RoadType::ALL.len() + 4;

    pub fn new(net: &RoadNetwork) -> Self {
        let features = net
            .edges()
            .iter()
            .map(|e| {
                let mut v = vec![0.0; Self::DIM];
                v[e.features.road_type.index()] = 1.0;
                let base = RoadType::ALL.len();
                v[base] = e.features.lanes as f64 / 4.0;
                v[base + 1] = e.features.one_way as u8 as f64;
                v[base + 2] = e.features.signals as u8 as f64;
                v[base + 3] = (e.length / 1000.0).min(2.0);
                v
            })
            .collect();
        Self { features }
    }

    pub fn dim(&self) -> usize {
        Self::DIM
    }

    pub fn edge(&self, e: EdgeId) -> &[f64] {
        &self.features[e.index()]
    }

    /// Feature sequence for a path.
    pub fn path(&self, path: &Path) -> Vec<Vec<f64>> {
        path.edges().iter().map(|&e| self.features[e.index()].to_vec()).collect()
    }
}

/// Cyclic time-of-day / day-of-week features used by the supervised baselines
/// that condition on departure time (DeepGTT, HMTRL, PathRank, STGCN).
pub const TIME_DIM: usize = 5;

/// `[sin(hour), cos(hour), sin(day), cos(day), is_weekday]`.
pub fn time_features(t: SimTime) -> Vec<f64> {
    let hour = t.hour_f() / 24.0 * std::f64::consts::TAU;
    let day = t.day() as f64 / 7.0 * std::f64::consts::TAU;
    vec![hour.sin(), hour.cos(), day.sin(), day.cos(), t.is_weekday() as u8 as f64]
}

type ReprFn = Box<dyn FnMut(&RoadNetwork, &Path, SimTime) -> Vec<f64> + Send>;

/// A [`PathRepresenter`] built from a closure over a trained model.
///
/// The closure typically captures the model's parameter store; a mutex makes
/// the whole representer `Sync` so the bench harness can share it.
pub struct FnRepresenter {
    name: String,
    dim: usize,
    f: Mutex<ReprFn>,
}

impl FnRepresenter {
    pub fn new(
        name: impl Into<String>,
        dim: usize,
        f: impl FnMut(&RoadNetwork, &Path, SimTime) -> Vec<f64> + Send + 'static,
    ) -> Self {
        Self { name: name.into(), dim, f: Mutex::new(Box::new(f)) }
    }
}

impl PathRepresenter for FnRepresenter {
    fn dim(&self) -> usize {
        self.dim
    }

    fn represent(&self, net: &RoadNetwork, path: &Path, departure: SimTime) -> Vec<f64> {
        let v = (self.f.lock().unwrap_or_else(PoisonError::into_inner))(net, path, departure);
        debug_assert_eq!(v.len(), self.dim, "representer '{}' produced wrong width", self.name);
        v
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Direct travel-time predictors (GCN / STGCN): these baselines sum per-edge
/// time estimates instead of producing a generic representation, so they only
/// participate in the travel-time task (§VII-A.3).
pub trait TravelTimePredictor {
    fn predict(&self, net: &RoadNetwork, path: &Path, departure: SimTime) -> f64;
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_roadnet::CityProfile;

    #[test]
    fn featurizer_produces_fixed_width_rows() {
        let net = CityProfile::Aalborg.generate(1);
        let f = EdgeFeaturizer::new(&net);
        for i in 0..net.num_edges().min(50) {
            let v = f.edge(EdgeId(i as u32));
            assert_eq!(v.len(), EdgeFeaturizer::DIM);
            // Exactly one road-type flag set.
            let ones = v[..RoadType::ALL.len()].iter().filter(|&&x| x == 1.0).count();
            assert_eq!(ones, 1);
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn time_features_are_cyclic() {
        let a = time_features(SimTime::from_hm(0, 0, 0));
        let b = time_features(SimTime::from_hm(0, 23, 59));
        // Near-midnight wraps close to midnight.
        let d: f64 = a[..2].iter().zip(&b[..2]).map(|(x, y)| (x - y).abs()).sum();
        assert!(d < 0.1, "cyclic encoding should wrap, diff {d}");
        let weekend = time_features(SimTime::from_hm(6, 12, 0));
        assert_eq!(weekend[4], 0.0);
    }

    #[test]
    fn fn_representer_wraps_closures() {
        let rep = FnRepresenter::new("const", 3, |_, _, _| vec![1.0, 2.0, 3.0]);
        let net = CityProfile::Aalborg.generate(1);
        let path = Path::new_unchecked(vec![EdgeId(0)]);
        assert_eq!(rep.represent(&net, &path, SimTime::from_hm(0, 8, 0)), vec![1.0, 2.0, 3.0]);
        assert_eq!(rep.name(), "const");
        assert_eq!(rep.dim(), 3);
    }
}
