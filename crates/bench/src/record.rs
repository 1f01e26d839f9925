//! One record format for every `BENCH_*.json` file.
//!
//! A record is a JSON object whose first two fields are the same in every
//! file, followed by the bench's own body fields:
//!
//! * `provenance` — the source tree, host and kernel backend that produced
//!   the numbers ([`Provenance`]). [`check_stale`] compares it with the
//!   running process, so a number recorded on another tree or host shows up
//!   as stale instead of silently standing for the current code.
//! * `contracts` — every gated number with its bound ([`Contract`]). The
//!   bounds live in the writing binary as constants and are stored next to
//!   the value they gate; [`enforce`] prints them all and fails the process
//!   when one does not hold.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

/// Where a recording came from. `source_digest` uses the same definition
/// as the repository benchmark's provenance line (`perfbench`), so the two
/// can be compared.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Provenance {
    /// FNV-1a over the paths and bytes of every `.rs` and `.toml` file under
    /// `crates/` and `vendor/`, plus the workspace `Cargo.toml`.
    pub source_digest: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// SIMD features the kernels dispatch on.
    pub cpu_features: Vec<String>,
    /// Active kernel backend (`"scalar"` or `"simd"`).
    pub kernels: String,
}

impl Provenance {
    /// Provenance of this process, with the source tree read relative to the
    /// working directory (the repository root when run through cargo).
    pub fn current() -> Self {
        Self {
            source_digest: source_digest(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: cpu_features(),
            kernels: wsccl_nn::kernels::active_name().to_string(),
        }
    }

    /// What differs between a recorded provenance (`self`) and `now`, one
    /// phrase per field; empty when they match.
    fn differences(&self, now: &Provenance) -> Vec<String> {
        let mut out = Vec::new();
        if self.source_digest != now.source_digest {
            out.push(format!(
                "source digest {} (this tree: {})",
                self.source_digest, now.source_digest
            ));
        }
        if self.nproc != now.nproc {
            out.push(format!("nproc {} (this host: {})", self.nproc, now.nproc));
        }
        if self.cpu_features != now.cpu_features {
            out.push(format!(
                "cpu features [{}] (this host: [{}])",
                self.cpu_features.join(" "),
                now.cpu_features.join(" ")
            ));
        }
        if self.kernels != now.kernels {
            out.push(format!("kernels {} (this process: {})", self.kernels, now.kernels));
        }
        out
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_sources(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn source_digest() -> String {
    let mut files = Vec::new();
    for d in ["crates", "vendor"] {
        collect_sources(Path::new(d), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    // FNV-1a, 64-bit, over each file's path and then its bytes.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &x in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn cpu_features() -> Vec<String> {
    #[cfg(target_arch = "x86_64")]
    let detected = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let detected: [(&str, bool); 0] = [];
    detected.iter().filter(|(_, on)| *on).map(|(name, _)| name.to_string()).collect()
}

/// Which side of its bound a contract's value must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Better {
    /// `value >= bound`.
    Higher,
    /// `value <= bound`.
    Lower,
}

/// One gated number of a record and the bound it must hold.
#[derive(Debug, Serialize)]
pub struct Contract {
    pub name: String,
    pub value: f64,
    pub bound: f64,
    pub better: Better,
}

impl Contract {
    /// `value` must be at least `bound`.
    pub fn at_least(name: &str, value: f64, bound: f64) -> Self {
        Self { name: name.to_string(), value, bound, better: Better::Higher }
    }

    /// `value` must be at most `bound`.
    pub fn at_most(name: &str, value: f64, bound: f64) -> Self {
        Self { name: name.to_string(), value, bound, better: Better::Lower }
    }

    /// Whether the value holds its bound (a NaN value never does).
    pub fn holds(&self) -> bool {
        match self.better {
            Better::Higher => self.value >= self.bound,
            Better::Lower => self.value <= self.bound,
        }
    }
}

/// Write `{provenance, contracts, ..body}` to `path`, with the provenance of
/// this process. `body` must serialize to a JSON object.
pub fn save(path: &str, contracts: &[Contract], body: &impl Serialize) -> std::io::Result<()> {
    write_record(path, &Provenance::current(), contracts, body)
}

fn write_record(
    path: &str,
    provenance: &Provenance,
    contracts: &[Contract],
    body: &impl Serialize,
) -> std::io::Result<()> {
    let json = serde_json::to_string(&Record { provenance, contracts, body })
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)
}

struct Record<'a, B> {
    provenance: &'a Provenance,
    contracts: &'a [Contract],
    body: &'a B,
}

impl<B: Serialize> Serialize for Record<'_, B> {
    fn to_value(&self) -> Value {
        let Value::Object(body) = self.body.to_value() else {
            panic!("a record body must serialize to a JSON object");
        };
        let mut fields = vec![
            ("provenance".to_string(), self.provenance.to_value()),
            (
                "contracts".to_string(),
                Value::Array(self.contracts.iter().map(Contract::to_value).collect()),
            ),
        ];
        fields.extend(body);
        Value::Object(fields)
    }
}

/// Print every contract; exit the process with status 1 if any fails.
pub fn enforce(contracts: &[Contract]) {
    let mut failed = false;
    for c in contracts {
        let op = match c.better {
            Better::Higher => ">=",
            Better::Lower => "<=",
        };
        let verdict = if c.holds() { "ok" } else { "FAIL" };
        println!("contract {}: {:.4} (bound {op} {}) {verdict}", c.name, c.value, c.bound);
        failed |= !c.holds();
    }
    if failed {
        std::process::exit(1);
    }
}

/// The part of a record [`check_stale`] reads; every other field is ignored.
#[derive(Deserialize)]
struct Stamp {
    provenance: Provenance,
}

/// `None` when the record at `path` was made by this source tree on this
/// host and kernel backend. Otherwise a one-line warning naming what
/// differs (or that the file is missing or has no provenance).
pub fn check_stale(path: &str) -> Option<String> {
    // `BENCH_<x>.json` is written by `bench_<x>`; `BENCH_kernels.json` by
    // `bench_parallel`.
    let bench = path.trim_end_matches(".json").rsplit("BENCH_").next().unwrap_or(path);
    let bench = if bench == "kernels" { "parallel" } else { bench };
    let rerun = format!("re-record it with `cargo run --release --bin bench_{bench}`");
    let Ok(text) = std::fs::read_to_string(path) else {
        return Some(format!("{path} not found; {rerun}"));
    };
    let recorded = match serde_json::from_str::<Stamp>(&text) {
        Ok(stamp) => stamp.provenance,
        Err(e) => return Some(format!("{path} has no readable provenance ({e}); {rerun}")),
    };
    let diffs = recorded.differences(&Provenance::current());
    (!diffs.is_empty())
        .then(|| format!("{path} is stale: recorded at {}; {rerun}", diffs.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Body {
        answer: u64,
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir();
        dir.join(format!("wsccl-record-{}-{name}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn a_record_has_provenance_and_contracts_before_its_body() {
        let path = tmp("layout");
        let contracts = [Contract::at_least("speedup", 2.0, 1.5)];
        save(&path, &contracts, &Body { answer: 42 }).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with("{\"provenance\":{\"source_digest\":"), "{text}");
        assert!(
            text.contains(
                "\"contracts\":[{\"name\":\"speedup\",\"value\":2.0,\"bound\":1.5,\
                 \"better\":\"Higher\"}],\"answer\":42}"
            ),
            "{text}"
        );
    }

    #[test]
    fn check_stale_fires_on_a_changed_tree_or_host_and_not_on_a_fresh_record() {
        let now = Provenance::current();
        let body = Body { answer: 1 };
        let stale_after = |edit: &dyn Fn(&mut Provenance)| {
            let path = tmp("stale");
            let mut recorded = now.clone();
            edit(&mut recorded);
            write_record(&path, &recorded, &[], &body).expect("write");
            let warning = check_stale(&path);
            let _ = std::fs::remove_file(&path);
            warning
        };

        let fresh = tmp("fresh");
        save(&fresh, &[], &body).expect("save");
        assert_eq!(check_stale(&fresh), None, "a record this process just saved is current");
        let _ = std::fs::remove_file(&fresh);

        let w = stale_after(&|p| p.source_digest = "0000000000000000".into()).expect("digest");
        assert!(w.contains("source digest 0000000000000000"), "{w}");
        let w = stale_after(&|p| p.nproc += 1).expect("nproc");
        assert!(w.contains(&format!("nproc {}", now.nproc + 1)), "{w}");
        let w = stale_after(&|p| p.cpu_features.push("sse9".into())).expect("cpu features");
        assert!(w.contains("sse9"), "{w}");
        let w = stale_after(&|p| p.kernels = "other".into()).expect("kernels");
        assert!(w.contains("kernels other"), "{w}");
    }

    #[test]
    fn check_stale_reports_a_missing_or_provenance_free_file() {
        let missing = tmp("missing");
        let w = check_stale(&missing).expect("missing file");
        assert!(w.contains("not found"), "{w}");
        let w = check_stale("results/BENCH_kernels.json").expect("missing file");
        assert!(w.ends_with("--bin bench_parallel`"), "{w}");

        let old = tmp("old-format");
        std::fs::write(&old, "{\"serve_version\":\"0.1.0\",\"batched_speedup\":3.0}").unwrap();
        let w = check_stale(&old).expect("old format");
        let _ = std::fs::remove_file(&old);
        assert!(w.contains("no readable provenance"), "{w}");
    }

    #[test]
    fn contracts_hold_on_their_side_of_the_bound_and_never_on_nan() {
        assert!(Contract::at_least("r", 0.9, 0.9).holds());
        assert!(!Contract::at_least("r", 0.89, 0.9).holds());
        assert!(Contract::at_most("c", 0.3, 0.3).holds());
        assert!(!Contract::at_most("c", 0.31, 0.3).holds());
        assert!(!Contract::at_least("r", f64::NAN, 0.0).holds());
        assert!(!Contract::at_most("c", f64::NAN, 1.0).holds());
    }
}
