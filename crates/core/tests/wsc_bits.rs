//! Bit-level guards on WSCCL training.
//!
//! The digests below pin every bit of the per-epoch loss history and of every
//! final parameter after two epochs of `WscModel::train`, at the tiny test
//! configuration and at the default one. Training is f64 and bit-identical
//! across kernel backends, thread counts and buffer pooling, so these values
//! must never move under either kernel backend; a change that moves them
//! changes every trained model.

use std::sync::Arc;

use wsccl_core::{TemporalPathEncoder, WscModel, WscclConfig};
use wsccl_datagen::{CityDataset, DatasetConfig};
use wsccl_roadnet::CityProfile;
use wsccl_traffic::PopLabeler;

/// FNV-1a over the little-endian bits of every value.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(loss-history digest, final-parameter digest)` after two epochs.
fn train_digests(cfg: WscclConfig) -> (u64, u64) {
    let ds = CityDataset::generate(&DatasetConfig::tiny(CityProfile::Aalborg, 11));
    let enc = Arc::new(TemporalPathEncoder::new(&ds.net, cfg.encoder.clone(), 11));
    let mut model = WscModel::new(enc, cfg, 7);
    model.train(&ds.unlabeled, &PopLabeler, 2);
    assert_eq!(model.loss_history.len(), 2);
    let (params, _) = model.weights();
    let param_bits = digest(params.ids().flat_map(|id| params.value(id).data().to_vec()));
    (digest(model.loss_history.iter().copied()), param_bits)
}

#[test]
fn tiny_config_training_bits_are_pinned() {
    let (loss, params) = train_digests(WscclConfig::tiny());
    assert_eq!(loss, 0x437e7bf01c4cfb0d, "tiny-config loss history bits moved ({loss:#018x})");
    assert_eq!(
        params, 0x5cf63da77a277bd4,
        "tiny-config final parameter bits moved ({params:#018x})"
    );
}

#[test]
fn default_config_training_bits_are_pinned() {
    let (loss, params) = train_digests(WscclConfig::default());
    assert_eq!(loss, 0x9693634c118ff6d4, "default-config loss history bits moved ({loss:#018x})");
    assert_eq!(
        params, 0x22f3998f726285ca,
        "default-config final parameter bits moved ({params:#018x})"
    );
}
