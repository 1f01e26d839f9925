//! Structured JSONL run logs.
//!
//! A [`JsonlObserver`] renders every [`StepRecord`]/[`EpochRecord`] (plus
//! phase transitions and periodic metric snapshots from the global
//! [`wsccl_obs`] registry) as one JSON object per line. Run logs live under
//! `results/runs/<name>.jsonl` (see [`run_log_path`]); the writer is generic
//! over [`io::Write`] so tests can log into a buffer.
//!
//! The line schemas are public structs ([`StepLine`], [`EpochLine`],
//! [`PhaseLine`], [`MetricsLine`]) that round-trip through `serde_json`,
//! which is how the golden-trace test validates a log record by record.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::observe::{EpochRecord, StepRecord, TrainObserver};

/// `results/runs/<name>.jsonl` relative to the working directory.
pub fn run_log_path(name: &str) -> PathBuf {
    PathBuf::from("results").join("runs").join(format!("{name}.jsonl"))
}

/// One optimizer step. `record` is always `"step"`; a skipped step (no loss,
/// or a non-finite one) carries `loss: null`, which parses back as NaN.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StepLine {
    pub record: String,
    /// Current phase label (empty until the driver announces one).
    pub phase: String,
    pub epoch: u64,
    pub step: u64,
    pub loss: f64,
    pub grad_norm: f64,
    pub lr: f64,
    /// Driver-side wall time for the whole step, milliseconds.
    pub ms: f64,
    /// Tracked loss terms: `[name, value]` pairs.
    pub terms: Vec<(String, f64)>,
}

/// One epoch summary (`record == "epoch"`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochLine {
    pub record: String,
    pub epoch: u64,
    pub steps: u64,
    pub mean_loss: f64,
    pub ms: f64,
}

/// A phase transition announced by a multi-stage driver (`record == "phase"`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseLine {
    pub record: String,
    pub phase: String,
}

/// One histogram inside a [`MetricsLine`]. `buckets` pairs each finite upper
/// bound with its (non-cumulative) count; `overflow` counts values above the
/// last bound.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistogramLine {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub buckets: Vec<(f64, u64)>,
    pub overflow: u64,
}

/// Periodic snapshot of the global metrics registry (`record == "metrics"`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsLine {
    pub record: String,
    pub step: u64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramLine>,
}

/// [`TrainObserver`] that streams run telemetry as JSON lines.
pub struct JsonlObserver<W: Write> {
    out: W,
    phase: String,
    /// Emit a metrics snapshot every N steps (0 = never).
    metrics_every: u64,
    /// A write failed; stop writing rather than panicking mid-training.
    broken: bool,
}

impl JsonlObserver<BufWriter<File>> {
    /// Log to `results/runs/<name>.jsonl`, creating directories as needed
    /// and truncating any previous log of the same name.
    pub fn to_file(name: &str) -> io::Result<Self> {
        let path = run_log_path(name);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlObserver<W> {
    pub fn new(out: W) -> Self {
        Self { out, phase: String::new(), metrics_every: 0, broken: false }
    }

    /// Also emit a [`MetricsLine`] from the global registry every `every`
    /// steps (snapshots are empty unless `wsccl_obs::global()` is enabled).
    pub fn with_metrics_every(mut self, every: u64) -> Self {
        self.metrics_every = every;
        self
    }

    /// Announce a phase: writes a [`PhaseLine`] and labels subsequent steps.
    pub fn set_phase(&mut self, phase: &str) {
        self.phase = phase.to_string();
        let line = PhaseLine { record: "phase".into(), phase: phase.to_string() };
        self.write_line(&line);
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flush and hand back the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn write_line<T: Serialize>(&mut self, line: &T) {
        if self.broken {
            return;
        }
        let json = serde_json::to_string(line).expect("JSONL record serialization cannot fail");
        if let Err(e) = writeln!(self.out, "{json}") {
            eprintln!("wsccl-train: run log write failed, disabling log: {e}");
            self.broken = true;
        }
    }

    fn snapshot_metrics(&mut self, step: u64) {
        let snap = wsccl_obs::global().snapshot();
        let line = MetricsLine {
            record: "metrics".into(),
            step,
            counters: snap.counters.into_iter().map(|s| (s.name, s.value)).collect(),
            gauges: snap.gauges.into_iter().map(|s| (s.name, s.value)).collect(),
            histograms: snap
                .histograms
                .into_iter()
                .map(|h| HistogramLine {
                    name: h.name,
                    count: h.count,
                    sum: h.sum,
                    buckets: h.buckets,
                    overflow: h.overflow,
                })
                .collect(),
        };
        self.write_line(&line);
    }
}

impl<W: Write> TrainObserver for JsonlObserver<W> {
    fn on_step(&mut self, r: &StepRecord) {
        let line = StepLine {
            record: "step".into(),
            phase: self.phase.clone(),
            epoch: r.epoch,
            step: r.step,
            loss: r.loss,
            grad_norm: r.grad_norm,
            lr: r.lr,
            ms: r.elapsed.as_secs_f64() * 1000.0,
            terms: r.terms.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        };
        self.write_line(&line);
        if self.metrics_every > 0 && r.step % self.metrics_every == 0 {
            self.snapshot_metrics(r.step);
        }
    }

    fn on_epoch(&mut self, r: &EpochRecord) {
        let line = EpochLine {
            record: "epoch".into(),
            epoch: r.epoch,
            steps: r.steps as u64,
            mean_loss: r.mean_loss,
            ms: r.elapsed.as_secs_f64() * 1000.0,
        };
        self.write_line(&line);
    }

    fn on_phase(&mut self, name: &str) {
        self.set_phase(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn step_record(step: u64, loss: f64) -> StepRecord {
        StepRecord {
            epoch: 0,
            step,
            loss,
            grad_norm: 0.5,
            lr: 1e-3,
            elapsed: Duration::from_micros(1500),
            terms: vec![("loss/global", -0.25), ("loss/local", -0.75)],
        }
    }

    #[test]
    fn step_lines_roundtrip_through_json() {
        let mut obs = JsonlObserver::new(Vec::new());
        obs.set_phase("pretrain");
        obs.on_step(&step_record(0, -0.5));
        obs.on_step(&step_record(1, f64::NAN));
        obs.on_epoch(&EpochRecord {
            epoch: 0,
            steps: 2,
            mean_loss: -0.5,
            elapsed: Duration::from_millis(3),
        });
        let text = String::from_utf8(obs.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);

        let phase: PhaseLine = serde_json::from_str(lines[0]).unwrap();
        assert_eq!((phase.record.as_str(), phase.phase.as_str()), ("phase", "pretrain"));

        let s0: StepLine = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(s0.record, "step");
        assert_eq!(s0.phase, "pretrain");
        assert_eq!(s0.loss.to_bits(), (-0.5f64).to_bits());
        assert_eq!(s0.terms, vec![("loss/global".into(), -0.25), ("loss/local".into(), -0.75)]);
        // Logs written while steps carried per-shard timings still parse.
        let old = format!("{},\"shard_ms\":[0.7,0.8]}}", lines[1].strip_suffix('}').unwrap());
        let s0_old: StepLine = serde_json::from_str(&old).unwrap();
        assert_eq!((s0_old.step, s0_old.loss.to_bits()), (s0.step, s0.loss.to_bits()));

        // Skipped step: NaN loss becomes null and parses back as NaN.
        let s1: StepLine = serde_json::from_str(lines[2]).unwrap();
        assert!(s1.loss.is_nan());

        let e: EpochLine = serde_json::from_str(lines[3]).unwrap();
        assert_eq!((e.record.as_str(), e.epoch, e.steps), ("epoch", 0, 2));
    }

    #[test]
    fn metrics_snapshots_fire_on_schedule() {
        let mut obs = JsonlObserver::new(Vec::new()).with_metrics_every(2);
        for step in 0..5 {
            obs.on_step(&step_record(step, -1.0));
        }
        let text = String::from_utf8(obs.into_inner()).unwrap();
        let metrics_lines = text
            .lines()
            .filter(|l| serde_json::from_str::<MetricsLine>(l).is_ok_and(|m| m.record == "metrics"))
            .count();
        // Steps 0, 2, 4.
        assert_eq!(metrics_lines, 3);
    }

    #[test]
    fn run_log_path_is_under_results_runs() {
        assert_eq!(run_log_path("demo"), PathBuf::from("results/runs/demo.jsonl"));
    }
}
