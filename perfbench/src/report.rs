//! Run outcome: op counts, correctness failures, self-checks and metrics,
//! rendered as the one-line JSON result.

use std::fmt::Write as _;

/// Failure messages kept verbatim; later ones are only counted.
const KEPT_MESSAGES: usize = 8;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count one timed op.
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    /// Count one timed op that produced a wrong answer or an error.
    pub fn op_failed(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(what());
        }
    }

    /// A correctness or workload-shape check outside the op count.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Every op answered correctly, every check held, every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Human-readable lines for standard error.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (name, ok, detail) in &self.checks {
            let _ =
                writeln!(s, "check {:<28} {} {detail}", name, if *ok { "ok  " } else { "FAIL" });
        }
        for m in &self.messages {
            let _ = writeln!(s, "failed op: {m}");
        }
        for (name, v, unit) in &self.metrics {
            if !v.is_finite() {
                let _ = writeln!(s, "metric {name} is not finite ({v} {unit})");
            }
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "ops attempted {} failed {} error_rate {rate} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON numbers; `correct` is already
            // false for them.
            let v = if v.is_finite() { *v } else { -1.0 };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Minimal JSON string escaping for names and messages.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report::default();
        r.op();
        r.metric("latency_p50_us", 6.25, "us");
        r.metric("setup_s", 3.0, "s");
        assert!(r.correct());
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 6.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_a_failed_check_or_a_nan_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op();
        r.op_failed(|| "served eta differs".into());
        assert!(!r.correct());

        let mut r = Report::default();
        r.op();
        r.check("hit_rate", false, "0.5 < 0.99".into());
        assert!(!r.correct());

        let mut r = Report::default();
        r.op();
        r.metric("final_loss", f64::NAN, "loss");
        assert!(!r.correct());
        assert!(r.json_line().contains("\"value\": -1.0"));
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
