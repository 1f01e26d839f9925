//! Where a result came from: source tree, host and kernel backend.

use std::path::{Path, PathBuf};

use crate::report::json_str;

/// FNV-1a, 64-bit: a stable digest with no dependencies.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `git rev-parse HEAD` when the working directory is the root of a git
/// checkout. Git may not look for a repository above it.
fn git_revision() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
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

/// Digest of the program's sources (`crates/`, `vendor/`, the workspace
/// manifest): identifies the tree even where git is absent.
fn source_digest() -> String {
    let mut files = Vec::new();
    for d in ["crates", "vendor"] {
        collect_sources(Path::new(d), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn cpu_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            v.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            v.push("avx512f");
        }
    }
    v
}

/// Provenance as a JSON object.
pub fn json(workload: &str, seed: u64, trace: bool, input_digest: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features: Vec<String> = cpu_features().into_iter().map(json_str).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"git_revision\": {}, \
         \"source_digest\": {}, \"nproc\": {nproc}, \"cpu_features\": [{}], \
         \"kernels\": {}, \"input_digest\": {}}}",
        json_str(workload),
        git_revision().map_or("null".to_string(), |r| json_str(&r)),
        json_str(&source_digest()),
        features.join(", "),
        json_str(wsccl_nn::kernels::active_name()),
        json_str(input_digest),
    )
}
