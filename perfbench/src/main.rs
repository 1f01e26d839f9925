//! Closed-loop benchmark of the WSCCL training and serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve_hot|serve_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The line before it is the run's provenance. A wrong answer
//! or a failed workload self-check exits with code 1. See `README.md`.

mod pin;
mod inputs;
mod model;
mod provenance;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Report;
use trace::Tracer;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("time_to_model_s", "s"),
    ("final_loss", "loss"),
    ("eta_mae_s", "s"),
    ("recall_at_10", "ratio"),
];

/// Per-layer metrics and their units. A layer a workload does not run
/// reports 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("datagen.generate_s", "s"),
    ("datagen.paths_per_s", "1/s"),
    ("core.encoder_build_s", "s"),
    ("core.curriculum.pre_stage_s", "s"),
    ("core.curriculum.expert_train_s", "s"),
    ("core.curriculum.difficulty_s", "s"),
    ("nn.op.LstmCell.fwd_ms_per_step", "ms"),
    ("nn.op.LstmCell.bwd_ms_per_step", "ms"),
    ("nn.op.SliceCols.fwd_ms_per_step", "ms"),
    ("nn.op.SliceCols.bwd_ms_per_step", "ms"),
    ("nn.op.GatherRow.fwd_ms_per_step", "ms"),
    ("nn.op.GatherRow.bwd_ms_per_step", "ms"),
    ("nn.op.CosSim.fwd_ms_per_step", "ms"),
    ("nn.op.CosSim.bwd_ms_per_step", "ms"),
    ("nn.op.LogSumExp.fwd_ms_per_step", "ms"),
    ("nn.op.LogSumExp.bwd_ms_per_step", "ms"),
    ("nn.op.ConcatRows.fwd_ms_per_step", "ms"),
    ("nn.op.ConcatRows.bwd_ms_per_step", "ms"),
    ("nn.pool.fresh_allocs", "count"),
    ("train.applied_step_ratio", "ratio"),
    ("core.embed_batch_us", "us"),
    ("downstream.knn_us", "us"),
    ("downstream.knn_scan_fraction", "ratio"),
    ("downstream.eta_predict_us", "us"),
    ("downstream.eta_fit_s", "s"),
    ("downstream.index_build_s", "s"),
    ("serve.call.eta_us.p50", "us"),
    ("serve.call.eta_us.p99", "us"),
    ("serve.call.embed_many_us.p50", "us"),
    ("serve.call.embed_many_us.p99", "us"),
    ("serve.call.knn_us.p50", "us"),
    ("serve.call.knn_us.p99", "us"),
    ("serve.overhead_us", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "items"),
    ("serve.max_batch_seen", "items"),
    ("trace.overhead_p50_ratio", "ratio"),
    ("trace.overhead_ops_ratio", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["train", "serve_hot", "serve_cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Fill the per-layer metrics a traced run did not measure (layers the
/// workload does not run) with 0. Fail the run if it reported a metric that
/// does not belong to its kind, or lacks an end-to-end metric.
fn complete(report: &mut Report, trace: bool) {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let stray: Vec<String> =
        report.names().filter(|n| !wanted.iter().any(|(w, _)| w == n)).map(String::from).collect();
    for name in stray {
        report.check("metric_kind", false, format!("{name} does not belong in this run"));
    }
    for &(name, unit) in wanted {
        if report.value(name).is_none() {
            if trace {
                report.metric(name, 0.0, unit);
            } else {
                report.check("metric_present", false, format!("{name} was not measured"));
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let digest = match args.workload.as_str() {
        "train" => train::run(
            args.seed,
            args.seconds,
            &train::TrainParams::bench(),
            &mut tracer,
            &mut report,
        ),
        "serve_hot" => serve::run_hot(
            args.seed,
            args.seconds,
            &serve::ServeParams::bench(),
            &mut tracer,
            &mut report,
        ),
        _ => serve::run_cold(
            args.seed,
            args.seconds,
            &serve::ServeParams::bench(),
            &mut tracer,
            &mut report,
        ),
    };
    complete(&mut report, args.trace);

    let prov = provenance::json(&args.workload, args.seed, args.trace, &digest);
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let file = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, tracer.to_json(&prov)));
        match written {
            Ok(()) => eprintln!("trace written to {}", file.display()),
            Err(e) => report.check("trace_written", false, format!("{}: {e}", file.display())),
        }
        for (layer, s) in tracer.self_seconds() {
            eprintln!("self time {layer:<12} {s:.6} s");
        }
    }
    eprint!("{}", report.summary());
    println!("{{\"provenance\": {prov}}}");
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse_args(&s(&[
            "--workload",
            "serve_hot",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve_hot", 3, 10.0, true));
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "train", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics
    /// and workloads.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let quoted = |n: &str| format!("\"name\": \"{n}\"");
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
        for (n, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{}, \"unit\": \"{unit}\"", quoted(n));
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&quoted(w)), "BENCHMARK.json lacks workload {w}");
        }
    }

    #[test]
    fn trace_runs_report_every_layer_metric() {
        let mut r = Report::default();
        r.op();
        r.metric("serve.batches", 3.0, "count");
        complete(&mut r, true);
        assert!(r.correct());
        assert!(PER_LAYER.iter().all(|(n, _)| r.value(n).is_some()));
        assert_eq!(r.value("serve.batches"), Some(3.0));

        let mut r = Report::default();
        r.op();
        complete(&mut r, false);
        assert!(!r.correct(), "a missing end-to-end metric fails the run");

        let mut r = Report::default();
        r.op();
        r.metric("final_loss", 1.5, "loss");
        complete(&mut r, true);
        assert!(!r.correct(), "an end-to-end metric in a traced run fails it");
    }
}
