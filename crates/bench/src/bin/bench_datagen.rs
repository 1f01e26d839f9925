//! `bench_datagen` — measure streaming-generation throughput per tier and
//! record it in `BENCH_datagen.json` (a [`wsccl_bench::record`] with no
//! contracts; the body is [`DatagenBench`]).
//!
//! Each tier is written through [`wsccl_datagen::write_dataset`] to a
//! temporary `.wsccl-ds` file (deleted afterwards), so the numbers reflect the
//! full generate → encode → stream-to-disk pipeline, not just in-memory
//! generation. Tiers come from [`wsccl_bench::datagen_tiers`]; the metro
//! 100k+-edge tier joins at `WSCCL_SCALE=full`.

use std::time::Instant;

use serde::Serialize;
use wsccl_bench::runner::WORLD_SEED;
use wsccl_bench::{datagen_tiers, record, Scale};
use wsccl_datagen::{write_dataset, StreamConfig};

/// One measured tier.
#[derive(Serialize)]
struct DatagenTierResult {
    tier: String,
    city: String,
    threads: usize,
    /// Accepted records across all sections.
    records: usize,
    seconds: f64,
    paths_per_sec: f64,
    /// Peak process RSS after the tier ran (0 when the platform can't say).
    peak_rss_bytes: u64,
    /// Size of the written `.wsccl-ds` file.
    file_bytes: u64,
}

#[derive(Serialize)]
struct DatagenBench {
    tiers: Vec<DatagenTierResult>,
}

fn main() {
    let scale = Scale::from_env();
    let stream = StreamConfig::auto();
    let threads = stream.threads;
    let dir = std::env::temp_dir();
    eprintln!("[bench_datagen] scale {} | {threads} producer threads", scale.name());

    let mut tiers = Vec::new();
    for (tier, cfg) in datagen_tiers(scale, WORLD_SEED) {
        let path = dir.join(format!("bench_datagen_{tier}.wsccl-ds"));
        let t = Instant::now();
        let stats = match write_dataset(&cfg, &stream, &path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[bench_datagen] tier {tier} failed: {e}");
                std::process::exit(1);
            }
        };
        let seconds = t.elapsed().as_secs_f64();
        let records = stats.unlabeled_paths + stats.labeled_tte + stats.labeled_groups;
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let _ = std::fs::remove_file(&path);
        let res = DatagenTierResult {
            tier: tier.clone(),
            city: cfg.profile.name().to_string(),
            threads,
            records,
            seconds,
            paths_per_sec: records as f64 / seconds.max(1e-9),
            peak_rss_bytes: wsccl_obs::peak_rss_bytes().unwrap_or(0),
            file_bytes,
        };
        eprintln!(
            "[bench_datagen] {tier}: {records} records in {seconds:.2}s ({:.0} paths/s, \
             {file_bytes} bytes on disk)",
            res.paths_per_sec
        );
        tiers.push(res);
    }

    let n = tiers.len();
    if let Err(e) = record::save("BENCH_datagen.json", &[], &DatagenBench { tiers }) {
        eprintln!("[bench_datagen] failed to write BENCH_datagen.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_datagen.json ({n} tiers)");
}
