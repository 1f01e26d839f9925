//! The `DatasetSource` abstraction: one handle over in-memory and on-disk
//! datasets, plus the [`SamplePool`] trait that batch construction and
//! training consume so they never care where samples live.

use std::path::Path as FsPath;

use wsccl_roadnet::RoadNetwork;
use wsccl_traffic::CongestionModel;

use crate::dataset::{
    CandidateGroup, CityDataset, DatasetConfig, DatasetStatistics, TemporalPathSample, TteExample,
};
use crate::disk::{DiskDataset, DiskError};
use crate::stream::{generate_streamed, StreamConfig};

/// A random-access pool of unlabeled temporal-path samples.
///
/// `get` returns an owned sample: the in-memory pool clones, the mmap-backed
/// pool decodes a record — symmetric O(path length) either way, so consumers
/// (batch samplers, trainers) are source-agnostic.
pub trait SamplePool {
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, i: usize) -> TemporalPathSample;
}

impl SamplePool for [TemporalPathSample] {
    fn len(&self) -> usize {
        <[TemporalPathSample]>::len(self)
    }

    fn get(&self, i: usize) -> TemporalPathSample {
        self[i].clone()
    }
}

impl SamplePool for Vec<TemporalPathSample> {
    fn len(&self) -> usize {
        <[TemporalPathSample]>::len(self)
    }

    fn get(&self, i: usize) -> TemporalPathSample {
        self[i].clone()
    }
}

impl SamplePool for DiskDataset {
    fn len(&self) -> usize {
        self.num_unlabeled()
    }

    fn get(&self, i: usize) -> TemporalPathSample {
        self.unlabeled(i)
    }
}

impl<P: SamplePool + ?Sized> SamplePool for &P {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn get(&self, i: usize) -> TemporalPathSample {
        (**self).get(i)
    }
}

/// A dataset, wherever it lives: generated in memory for the small tiers
/// (API-compatible with the original `CityDataset` flow) or memory-mapped
/// from a `.wsccl-ds` file for city-scale runs.
pub enum DatasetSource {
    Memory(CityDataset),
    Disk(DiskDataset),
}

impl DatasetSource {
    /// Generate in memory through the streaming pipeline.
    pub fn generate(cfg: &DatasetConfig, stream: &StreamConfig) -> Self {
        DatasetSource::Memory(generate_streamed(cfg, stream))
    }

    /// Memory-map a `.wsccl-ds` file.
    pub fn open(path: &FsPath) -> Result<Self, DiskError> {
        Ok(DatasetSource::Disk(DiskDataset::open(path)?))
    }

    pub fn name(&self) -> &str {
        match self {
            DatasetSource::Memory(ds) => &ds.name,
            DatasetSource::Disk(ds) => ds.name(),
        }
    }

    pub fn net(&self) -> &RoadNetwork {
        match self {
            DatasetSource::Memory(ds) => &ds.net,
            DatasetSource::Disk(ds) => ds.net(),
        }
    }

    pub fn congestion(&self) -> &CongestionModel {
        match self {
            DatasetSource::Memory(ds) => &ds.congestion,
            DatasetSource::Disk(ds) => ds.congestion(),
        }
    }

    pub fn num_unlabeled(&self) -> usize {
        match self {
            DatasetSource::Memory(ds) => ds.unlabeled.len(),
            DatasetSource::Disk(ds) => ds.num_unlabeled(),
        }
    }

    pub fn num_tte(&self) -> usize {
        match self {
            DatasetSource::Memory(ds) => ds.tte.len(),
            DatasetSource::Disk(ds) => ds.num_tte(),
        }
    }

    pub fn num_groups(&self) -> usize {
        match self {
            DatasetSource::Memory(ds) => ds.groups.len(),
            DatasetSource::Disk(ds) => ds.num_groups(),
        }
    }

    pub fn tte(&self, i: usize) -> TteExample {
        match self {
            DatasetSource::Memory(ds) => ds.tte[i].clone(),
            DatasetSource::Disk(ds) => ds.tte(i),
        }
    }

    pub fn group(&self, i: usize) -> CandidateGroup {
        match self {
            DatasetSource::Memory(ds) => ds.groups[i].clone(),
            DatasetSource::Disk(ds) => ds.group(i),
        }
    }

    /// The unlabeled pool, for batch construction and training.
    pub fn unlabeled_pool(&self) -> &dyn SamplePool {
        match self {
            DatasetSource::Memory(ds) => &ds.unlabeled,
            DatasetSource::Disk(ds) => ds,
        }
    }

    pub fn statistics(&self) -> DatasetStatistics {
        match self {
            DatasetSource::Memory(ds) => ds.statistics(),
            DatasetSource::Disk(ds) => ds.statistics(),
        }
    }

    pub fn as_memory(&self) -> Option<&CityDataset> {
        match self {
            DatasetSource::Memory(ds) => Some(ds),
            DatasetSource::Disk(_) => None,
        }
    }

    /// Pull everything into memory (small tiers; the table binaries want
    /// `CityDataset` slices).
    pub fn materialize(self) -> CityDataset {
        match self {
            DatasetSource::Memory(ds) => ds,
            DatasetSource::Disk(ds) => {
                let unlabeled = (0..ds.num_unlabeled()).map(|i| ds.unlabeled(i)).collect();
                let tte = (0..ds.num_tte()).map(|i| ds.tte(i)).collect();
                let groups = (0..ds.num_groups()).map(|i| ds.group(i)).collect();
                CityDataset {
                    name: ds.name().to_string(),
                    net: ds.net().clone(),
                    congestion: ds.congestion().clone(),
                    unlabeled,
                    tte,
                    groups,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_pool_is_object_safe_and_slices_work() {
        let samples: Vec<TemporalPathSample> = Vec::new();
        let pool: &dyn SamplePool = &samples;
        assert!(pool.is_empty());
        let slice: &[TemporalPathSample] = &samples;
        assert_eq!(SamplePool::len(slice), 0);
    }
}
