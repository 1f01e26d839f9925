//! Workload inputs, a pure function of the workload seed.
//!
//! Every workload runs in one fixed city (the Aalborg profile generated
//! from [`WORLD_SEED`]), as a deployment serves one map. The seed draws
//! everything that travels over it: which trips make up the training and
//! labelled sets (a seed-chosen window of the generator's per-index record
//! streams), the hot key set and its request stream, and the trip-query
//! sessions. Keeping the city fixed keeps the amount of work per run the
//! same across seeds, so the seed-to-seed spread measures the program.

use std::collections::HashSet;

use wsccl_datagen::{CityDataset, DatasetConfig, GenContext};
use wsccl_roadnet::CityProfile;
use wsccl_serve::EmbeddingCache;
use wsccl_traffic::time::TEMPORAL_NODES;
use wsccl_traffic::SimTime;

use crate::provenance::Fnv;

/// Seed of the road network and congestion model every workload uses.
pub const WORLD_SEED: u64 = 2022;
/// Model initialisation and trainer seed: configuration, not input.
pub const MODEL_SEED: u64 = 7;
/// Candidate paths per trip-query session.
pub const CANDIDATES: usize = 6;
const SLOT_SECONDS: u32 = 300;

/// SplitMix64 step: the seed expander for every draw below.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small deterministic generator for the benchmark's own draws.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64, stream: u64) -> Self {
        Draw(splitmix(seed ^ splitmix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Departure at the start of temporal slot `node` (week-wide, `0..2016`).
pub fn slot_time(node: usize) -> SimTime {
    SimTime::new((node % TEMPORAL_NODES) as u32 * SLOT_SECONDS)
}

#[derive(Clone, Copy, Debug)]
pub struct DataSizes {
    pub unlabeled: usize,
    pub tte: usize,
    pub groups: usize,
}

/// The seed's dataset in the fixed city: records `w, w+1, …` of each
/// section, where `w` is a seed-chosen window start.
pub fn generate(seed: u64, sizes: DataSizes) -> CityDataset {
    let cfg = DatasetConfig {
        profile: CityProfile::Aalborg,
        seed: WORLD_SEED,
        num_unlabeled: sizes.unlabeled,
        num_tte: sizes.tte,
        num_groups: sizes.groups,
        candidates_per_group: CANDIDATES,
        use_map_matching: false,
    };
    let ctx = GenContext::new(&cfg);
    let window = splitmix(seed ^ 0x005E_ED0F_7219) >> 24;
    // Sections reject only when the generator cannot build a record
    // (candidate groups on sparse OD pairs); bound the scan regardless.
    fn take<R>(n: usize, window: u64, at: impl Fn(u64) -> Option<R>) -> Vec<R> {
        let out: Vec<R> = (0..n as u64 * 50 + 100).filter_map(|i| at(window + i)).take(n).collect();
        assert_eq!(out.len(), n, "generator rejected too many records");
        out
    }
    let unlabeled = take(sizes.unlabeled, window, |i| ctx.unlabeled_at(i));
    let tte = take(sizes.tte, window, |i| ctx.tte_at(i));
    let groups = take(sizes.groups, window, |i| ctx.group_at(i));
    let (net, congestion) = ctx.into_city();
    CityDataset { name: "aalborg".into(), net, congestion, unlabeled, tte, groups }
}

/// The hot ETA key set: distinct `(unlabeled path, departure slot)` pairs,
/// and a Zipf-skewed request stream over them.
pub struct HotKeys {
    /// `(index into ds.unlabeled, departure)`.
    pub keys: Vec<(usize, SimTime)>,
    /// Key indices in request order; the timed loop cycles through it.
    pub stream: Vec<u32>,
}

pub fn hot_keys(seed: u64, ds: &CityDataset, n_keys: usize, stream_len: usize) -> HotKeys {
    let mut d = Draw::new(seed, 1);
    let mut seen = HashSet::new();
    let mut keys = Vec::with_capacity(n_keys);
    while keys.len() < n_keys {
        let i = d.below(ds.unlabeled.len());
        let t = slot_time(d.below(TEMPORAL_NODES));
        if seen.insert(EmbeddingCache::key(&ds.unlabeled[i].path, t)) {
            keys.push((i, t));
        }
    }
    // Zipf(0.9) popularity, spread evenly over path lengths.
    let mut cdf: Vec<f64> = (1..=n_keys).map(|r| (r as f64).powf(-0.9)).collect();
    for i in 1..n_keys {
        cdf[i] += cdf[i - 1];
    }
    let total = cdf[n_keys - 1];
    let mut by_len: Vec<u32> = (0..n_keys as u32).collect();
    by_len.sort_by_key(|&k| (ds.unlabeled[keys[k as usize].0].path.len(), k));
    let rank_to_key: Vec<u32> = stratified(n_keys).into_iter().map(|q| by_len[q]).collect();
    let stream = (0..stream_len)
        .map(|_| {
            let u = d.unit() * total;
            rank_to_key[cdf.partition_point(|&c| c <= u).min(n_keys - 1)]
        })
        .collect();
    HotKeys { keys, stream }
}

/// A permutation of `0..n` in which every prefix samples `0..n` evenly:
/// bit-reversed counting from the middle, so the order starts 1/2, 0, 3/4,
/// 1/4, 5/8, …. The hot keys' popularity ranks follow it through the keys
/// sorted by path length. A seed-shuffled order would give the same
/// lengths on average, but whether a long path drew one of the few most
/// requested ranks swung the `serve_hot` p99 by 12 % from seed to seed:
/// every request hashes and compares the whole path.
fn stratified(n: usize) -> Vec<usize> {
    let m = n.next_power_of_two();
    let bits = m.trailing_zeros();
    (0..m)
        .map(|v| (v.reverse_bits().checked_shr(usize::BITS - bits).unwrap_or(0) + m / 2) % m)
        .filter(|&q| q < n)
        .collect()
}

/// One trip query: a candidate group at a departure, and the candidate the
/// user picks.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    pub group: usize,
    pub departure: SimTime,
    pub pick: usize,
}

/// `count` sessions walking the candidate groups in passes; each pass
/// shifts the departure by one five-minute slot, so within the stream no
/// candidate key repeats and the embedding cache keeps missing.
pub fn sessions(seed: u64, ds: &CityDataset, count: usize) -> Vec<Session> {
    let groups = ds.groups.len();
    assert!(groups > 0 && count.div_ceil(groups) < TEMPORAL_NODES, "too many passes");
    let mut d = Draw::new(seed, 2);
    let offset = d.below(TEMPORAL_NODES);
    (0..count)
        .map(|s| {
            let group = s % groups;
            let pass = s / groups;
            let node = ds.groups[group].departure.temporal_node() + offset + pass;
            Session { group, departure: slot_time(node), pick: d.below(CANDIDATES) }
        })
        .collect()
}

/// Digest of a dataset's records.
pub fn digest_dataset(h: &mut Fnv, ds: &CityDataset) {
    let path = |h: &mut Fnv, p: &wsccl_roadnet::Path| {
        h.u64(p.len() as u64);
        for e in p.edges() {
            h.u64(e.0 as u64);
        }
    };
    h.u64(ds.net.num_edges() as u64);
    for s in &ds.unlabeled {
        path(h, &s.path);
        h.u64(s.departure.seconds() as u64);
    }
    for t in &ds.tte {
        path(h, &t.path);
        h.u64(t.departure.seconds() as u64);
        h.f64(t.travel_time);
    }
    for g in &ds.groups {
        h.u64(g.departure.seconds() as u64);
        for p in &g.candidates {
            path(h, p);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn small(seed: u64) -> CityDataset {
        generate(seed, DataSizes { unlabeled: 60, tte: 40, groups: 12 })
    }

    fn digest(seed: u64) -> u64 {
        let ds = small(seed);
        let mut h = Fnv::default();
        digest_dataset(&mut h, &ds);
        let hot = hot_keys(seed, &ds, 50, 500);
        for (i, t) in &hot.keys {
            h.u64(*i as u64);
            h.u64(t.seconds() as u64);
        }
        hot.stream.iter().for_each(|&k| h.u64(k as u64));
        for s in sessions(seed, &ds, 100) {
            h.u64((s.group * 31 + s.pick) as u64);
            h.u64(s.departure.seconds() as u64);
        }
        h.finish()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }

    #[test]
    fn seeds_share_the_city_but_not_the_trips() {
        let (a, b) = (small(1), small(2));
        assert_eq!(a.net.num_edges(), b.net.num_edges());
        assert_ne!(a.unlabeled[0].path.edges(), b.unlabeled[0].path.edges());
        assert_eq!(a.groups.len(), 12);
        assert!(a.groups.iter().all(|g| g.candidates.len() == CANDIDATES));
    }

    #[test]
    fn hot_stream_is_skewed_over_distinct_keys() {
        let ds = small(3);
        let hot = hot_keys(3, &ds, 50, 20_000);
        let distinct: HashSet<_> =
            hot.keys.iter().map(|&(i, t)| EmbeddingCache::key(&ds.unlabeled[i].path, t)).collect();
        assert_eq!(distinct.len(), 50);
        let mut counts = vec![0usize; 50];
        hot.stream.iter().for_each(|&k| counts[k as usize] += 1);
        counts.sort_unstable();
        assert!(counts[49] > 5 * counts[25], "head key should dominate: {counts:?}");
    }

    #[test]
    fn stratified_order_is_a_permutation_with_even_prefixes() {
        assert_eq!(stratified(8), vec![4, 0, 6, 2, 5, 1, 7, 3]);
        assert_eq!(stratified(1), vec![0]);
        for n in [5, 50, 1000] {
            let mut p = stratified(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
        assert_eq!(stratified(1000)[..4], [512, 0, 768, 256]);
    }

    /// Replays the session stream's candidate lookups through an LRU of the
    /// serving default size; the cold workload relies on them missing.
    pub(crate) fn candidate_miss_share(ds: &CityDataset, sessions: &[Session]) -> f64 {
        let cache = EmbeddingCache::new(4096, 8);
        let v = std::sync::Arc::new(vec![0.0]);
        let (mut lookups, mut misses) = (0u64, 0u64);
        for s in sessions.iter().chain(sessions) {
            for p in &ds.groups[s.group].candidates {
                let key = EmbeddingCache::key(p, s.departure);
                lookups += 1;
                if cache.get(&key, p).is_none() {
                    misses += 1;
                    cache.insert(key, p, v.clone(), cache.epoch());
                }
            }
        }
        misses as f64 / lookups as f64
    }

    #[test]
    fn session_candidates_miss_the_cache() {
        let ds = small(5);
        let s = sessions(5, &ds, 12 * 150);
        let share = candidate_miss_share(&ds, &s);
        assert!(share >= 0.9, "candidate miss share {share}");
        // The check can fire: a stream that never shifts the slot hits.
        let stuck: Vec<Session> =
            s.iter().map(|x| Session { departure: s[x.group].departure, ..*x }).collect();
        assert!(candidate_miss_share(&ds, &stuck) < 0.1);
    }
}
