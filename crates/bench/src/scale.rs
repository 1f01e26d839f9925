//! Experiment scale presets.

use wsccl_core::WscclConfig;
use wsccl_datagen::DatasetConfig;
use wsccl_roadnet::CityProfile;

/// Experiment scale, selected via `WSCCL_SCALE` (tiny / small / full).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes: every binary finishes in well under a minute.
    Tiny,
    /// Default: the headline shapes emerge, minutes per binary.
    Small,
    /// Largest CPU-feasible sizes.
    Full,
}

impl Scale {
    /// Parse a scale name: `tiny`, `small` or `full`, in any case.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            _ => Err(format!("unknown scale '{name}' (expected tiny, small or full)")),
        }
    }

    /// Read from the `WSCCL_SCALE` environment variable (default `small`
    /// when unset or empty). Exits the process with status 2 on any other
    /// value, naming the accepted ones.
    pub fn from_env() -> Self {
        match std::env::var("WSCCL_SCALE") {
            Ok(v) if !v.is_empty() => Scale::parse(&v).unwrap_or_else(|e| {
                eprintln!("WSCCL_SCALE: {e}");
                std::process::exit(2)
            }),
            _ => Scale::Small,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// Dataset generation parameters for a city at this scale.
    pub fn dataset(self, profile: CityProfile, seed: u64) -> DatasetConfig {
        let (unlabeled, tte, groups) = match self {
            Scale::Tiny => (120, 80, 30),
            Scale::Small => (500, 300, 200),
            Scale::Full => (1200, 500, 300),
        };
        DatasetConfig {
            profile,
            seed,
            num_unlabeled: unlabeled,
            num_tte: tte,
            num_groups: groups,
            candidates_per_group: 6,
            use_map_matching: false,
        }
    }

    /// WSCCL training configuration at this scale.
    pub fn wsccl(self, seed: u64) -> WscclConfig {
        let (epochs, meta, expert_epochs) = match self {
            Scale::Tiny => (1, 2, 1),
            Scale::Small => (3, 4, 1),
            Scale::Full => (4, 4, 2),
        };
        WscclConfig { epochs, num_meta_sets: meta, expert_epochs, seed, ..WscclConfig::default() }
    }

    /// Epoch budget for the neural baselines at this scale.
    pub fn baseline_epochs(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 3,
            Scale::Full => 5,
        }
    }
}

/// Dataset configuration for the `metro` profile (100k+ edges): unlabeled
/// trajectories dominate; candidate groups are disabled because Yen's
/// k-shortest search is O(city) per group and the metro tier exists to
/// exercise the *streaming* path, not ranking labels.
pub fn metro_dataset(seed: u64, num_unlabeled: usize) -> DatasetConfig {
    DatasetConfig {
        profile: CityProfile::Metro,
        seed,
        num_unlabeled,
        num_tte: (num_unlabeled / 20).min(5_000),
        num_groups: 0,
        candidates_per_group: 5,
        use_map_matching: false,
    }
}

/// The tiers measured by the `bench_datagen` binary and recorded in
/// `BENCH_datagen.json`. Two paper-city tiers always run; the metro tier is
/// added at `Scale::Full` (it generates a 100k+-edge network first, which
/// dominates the tier's wall time at small record counts).
pub fn datagen_tiers(scale: Scale, seed: u64) -> Vec<(String, DatasetConfig)> {
    let mut tiers = vec![
        ("aalborg-small".to_string(), Scale::Small.dataset(CityProfile::Aalborg, seed)),
        ("chengdu-small".to_string(), Scale::Small.dataset(CityProfile::Chengdu, seed)),
    ];
    if scale == Scale::Full {
        tiers.push(("metro-20k".to_string(), metro_dataset(seed, 20_000)));
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults_to_small() {
        // Note: avoids mutating the process env; exercises the mapping only.
        assert_eq!(Scale::Tiny.name(), "tiny");
        assert_eq!(Scale::Small.name(), "small");
        let cfg = Scale::Tiny.dataset(CityProfile::Aalborg, 1);
        assert!(cfg.num_unlabeled < Scale::Full.dataset(CityProfile::Aalborg, 1).num_unlabeled);
    }

    #[test]
    fn parse_accepts_the_three_scales_and_rejects_anything_else() {
        for s in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(Scale::parse(s.name()), Ok(s));
        }
        assert_eq!(Scale::parse("FULL"), Ok(Scale::Full));
        for bad in ["fulll", "medium", "", " tiny"] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains("expected tiny, small or full"), "{err}");
        }
    }
}
