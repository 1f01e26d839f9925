//! Model persistence: one checkpoint format, [`EngineCheckpoint`], for every
//! file a model is saved to.
//!
//! A checkpoint holds the weights plus the training-engine state (optimizer
//! moments, step/epoch counters, RNG stream), sufficient for
//! [`crate::wsc::WscModel::resume`] to continue a run bit-for-bit. The
//! frozen node2vec tables are not stored: they are rebuilt deterministically
//! from `(encoder_config, encoder_seed)`. Inference readers (`wsccl
//! evaluate`/`embed`/`serve`, the serve hot-reload watcher) take only the
//! encoder fields and the weights.

use std::io::{Read, Write};
use std::path::Path as FsPath;

use serde::{DeError, Deserialize, Serialize, Value};

use wsccl_nn::Parameters;
use wsccl_train::TrainerState;

use crate::config::WscclConfig;
use crate::continual::ContinualState;
use crate::encoder::{EncoderConfig, EncoderWeights};

/// Current checkpoint format version. Version 2 introduced the engine
/// checkpoint (trainer state alongside the weights).
pub const CHECKPOINT_VERSION: u32 = 2;

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    Encode(String),
    /// The file's version does not match [`CHECKPOINT_VERSION`].
    VersionMismatch {
        found: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            PersistError::Encode(e) => write!(f, "checkpoint encoding error: {e}"),
            PersistError::VersionMismatch { found } => {
                write!(f, "checkpoint version {found} != supported {CHECKPOINT_VERSION}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Header-level look at a checkpoint file: its version. Deserialized
/// manually so it tolerates (and ignores) every other field.
struct CheckpointProbe {
    version: u32,
}

impl Deserialize for CheckpointProbe {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object("checkpoint")?;
        let version = u32::from_value(serde::field(obj, "version", "checkpoint")?)?;
        Ok(Self { version })
    }
}

fn probe(buf: &str) -> Result<CheckpointProbe, PersistError> {
    serde_json::from_str(buf).map_err(|e| PersistError::Encode(e.to_string()))
}

/// A full training-run checkpoint: encoder config and seed, weights, the
/// model config, the engine state, and the loss history so far.
#[derive(Debug, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    pub version: u32,
    pub encoder_config: EncoderConfig,
    pub encoder_seed: u64,
    /// The model's training config (loss hyper-parameters etc.).
    pub config: WscclConfig,
    pub params: Parameters,
    pub weights: EncoderWeights,
    /// Optimizer moments, step/epoch counters, and engine RNG state.
    pub trainer: TrainerState,
    /// Mean training loss per completed epoch.
    pub loss_history: Vec<f64>,
    /// Continual-learning episode state (drift day counter + replay buffer);
    /// `None` for plain training runs. `#[serde(default)]` keeps checkpoints
    /// written before this field existed loadable, and the probe ignores it,
    /// so the version number stays at 2.
    #[serde(default)]
    pub continual: Option<ContinualState>,
}

impl EngineCheckpoint {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        encoder_config: EncoderConfig,
        encoder_seed: u64,
        config: WscclConfig,
        params: Parameters,
        weights: EncoderWeights,
        trainer: TrainerState,
        loss_history: Vec<f64>,
    ) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            encoder_config,
            encoder_seed,
            config,
            params,
            weights,
            trainer,
            loss_history,
            continual: None,
        }
    }

    /// Attach continual-learning episode state (builder style).
    pub fn with_continual(mut self, state: ContinualState) -> Self {
        self.continual = Some(state);
        self
    }

    /// Serialize to a writer as JSON.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), PersistError> {
        let json = serde_json::to_string(self).map_err(|e| PersistError::Encode(e.to_string()))?;
        w.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Deserialize from a reader, validating the version.
    pub fn read_from(r: &mut impl Read) -> Result<Self, PersistError> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        let head = probe(&buf)?;
        if head.version != CHECKPOINT_VERSION {
            return Err(PersistError::VersionMismatch { found: head.version });
        }
        serde_json::from_str(&buf).map_err(|e| PersistError::Encode(e.to_string()))
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<FsPath>) -> Result<(), PersistError> {
        let mut f = std::fs::File::create(path)?;
        self.write_to(&mut f)
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<FsPath>) -> Result<Self, PersistError> {
        let mut f = std::fs::File::open(path)?;
        Self::read_from(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::TemporalPathEncoder;
    use wsccl_roadnet::CityProfile;
    use wsccl_traffic::SimTime;

    /// A checkpoint of freshly initialized weights and an untouched trainer.
    pub(super) fn checkpoint(
        cfg: &EncoderConfig,
        params: Parameters,
        weights: EncoderWeights,
    ) -> EngineCheckpoint {
        let trainer = wsccl_train::Trainer::new(wsccl_train::TrainSpec::adam(1e-3, 1, 3));
        EngineCheckpoint::new(
            cfg.clone(),
            3,
            WscclConfig::tiny(),
            params,
            weights,
            trainer.state(),
            vec![1.0, 0.5],
        )
    }

    #[test]
    fn roundtrip_preserves_embeddings() {
        let net = CityProfile::Aalborg.generate(3);
        let cfg = EncoderConfig::tiny();
        let enc = TemporalPathEncoder::new(&net, cfg.clone(), 3);
        let mut params = Parameters::new();
        let weights = enc.init_weights(&mut params, 9);

        // A short valid path.
        let mut edges = Vec::new();
        let mut cur = wsccl_roadnet::NodeId(0);
        for _ in 0..4 {
            let e = net.out_edges(cur)[0];
            edges.push(e);
            cur = net.edge(e).to;
        }
        let path = wsccl_roadnet::Path::new_unchecked(edges);
        let t = SimTime::from_hm(0, 8, 0);
        let before = enc.embed(&params, &weights, &path, t);

        // Roundtrip through bytes.
        let cp = checkpoint(&cfg, params, weights);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).expect("write");
        let restored = EngineCheckpoint::read_from(&mut buf.as_slice()).expect("read");
        assert_eq!(restored.loss_history, vec![1.0, 0.5]);
        assert_eq!(restored.trainer.step, 0);

        // Rebuild the frozen encoder from (config, seed) and compare.
        let enc2 =
            TemporalPathEncoder::new(&net, restored.encoder_config.clone(), restored.encoder_seed);
        let after = enc2.embed(&restored.params, &restored.weights, &path, t);
        assert_eq!(before, after, "checkpoint roundtrip must be exact");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let net = CityProfile::Aalborg.generate(3);
        let cfg = EncoderConfig::tiny();
        let enc = TemporalPathEncoder::new(&net, cfg.clone(), 3);
        let mut params = Parameters::new();
        let weights = enc.init_weights(&mut params, 9);
        let mut cp = checkpoint(&cfg, params, weights);
        cp.version = 99;
        let mut buf = Vec::new();
        cp.write_to(&mut buf).expect("write");
        match EngineCheckpoint::read_from(&mut buf.as_slice()) {
            Err(PersistError::VersionMismatch { found: 99 }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_written_with_kernels_fields_still_loads() {
        // Model configs and trainer specs used to carry a `kernels` backend
        // field; files written then must keep loading.
        let net = CityProfile::Aalborg.generate(3);
        let cfg = EncoderConfig::tiny();
        let enc = TemporalPathEncoder::new(&net, cfg.clone(), 3);
        let mut params = Parameters::new();
        let weights = enc.init_weights(&mut params, 9);
        let mut buf = Vec::new();
        checkpoint(&cfg, params, weights).write_to(&mut buf).expect("write");
        let json = String::from_utf8(buf).expect("utf-8");
        let old = json
            .replacen("\"pooling\":true", "\"pooling\":true,\"kernels\":\"Auto\"", 1)
            .replacen("\"pool_buffers\":true", "\"pool_buffers\":true,\"kernels\":\"Simd\"", 1);
        assert_eq!(old.matches("\"kernels\"").count(), 2, "both fields injected");
        let restored = EngineCheckpoint::read_from(&mut old.as_bytes()).expect("old file loads");
        assert!(restored.config.pooling);
        assert!(restored.trainer.spec.pool_buffers);
        assert_eq!(restored.loss_history, vec![1.0, 0.5]);
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use crate::encoder::TemporalPathEncoder;
    use wsccl_roadnet::CityProfile;

    #[test]
    fn params_roundtrip_bit_exact() {
        let net = CityProfile::Aalborg.generate(3);
        let cfg = EncoderConfig::tiny();
        let enc = TemporalPathEncoder::new(&net, cfg.clone(), 3);
        let mut params = Parameters::new();
        let weights = enc.init_weights(&mut params, 9);
        let orig = params.clone();
        let cp = super::tests::checkpoint(&cfg, params, weights);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        let restored = EngineCheckpoint::read_from(&mut buf.as_slice()).unwrap();
        for id in orig.ids() {
            assert_eq!(orig.value(id).data(), restored.params.value(id).data(), "param {:?}", id);
        }
    }
}
