//! Numeric anomaly guards: non-finite loss/gradient detection and loss-spike
//! detection with a configurable response policy.
//!
//! The guard is an *observer*: it never changes what the training loop
//! computes. Under [`AnomalyPolicy::Record`] and [`AnomalyPolicy::Warn`] the
//! trajectory with a guard attached is bit-identical to one without;
//! [`AnomalyPolicy::Abort`] panics with context instead of letting a run
//! continue on poisoned numbers.

/// What to do when an anomaly is detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyPolicy {
    /// Keep the event for later inspection ([`AnomalyGuard::events`]).
    Record,
    /// Record and print a warning to stderr.
    Warn,
    /// Record, print, and panic with the event context.
    Abort,
}

/// The kind of numeric anomaly observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    NonFiniteLoss,
    NonFiniteGradient,
    /// A parameter tensor itself went non-finite (caught by post-hoc sweeps,
    /// e.g. the continual-learning loop's per-day parameter health check).
    NonFiniteParam,
    LossSpike,
}

impl AnomalyKind {
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::NonFiniteLoss => "non-finite-loss",
            AnomalyKind::NonFiniteGradient => "non-finite-gradient",
            AnomalyKind::NonFiniteParam => "non-finite-param",
            AnomalyKind::LossSpike => "loss-spike",
        }
    }
}

/// One detected anomaly, with enough context to debug it after the run.
#[derive(Clone, Debug)]
pub struct AnomalyEvent {
    /// Global step counter at detection time.
    pub step: u64,
    pub kind: AnomalyKind,
    /// The offending value (the loss, or the gradient element/norm).
    pub value: f64,
    /// Human-readable context — e.g. the offending parameter name.
    pub context: String,
}

impl std::fmt::Display for AnomalyEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "anomaly[{}] at step {}: value {} ({})",
            self.kind.name(),
            self.step,
            self.value,
            self.context
        )
    }
}

/// Watches the per-step loss stream and externally reported gradient
/// anomalies, applying an [`AnomalyPolicy`].
///
/// Spike detection keeps exponential moving averages of the loss and of its
/// absolute deviation; once `warmup` finite losses have been seen, a loss
/// farther than `spike_factor` deviations from the average is flagged. The
/// averages keep updating after a spike so a genuine regime change re-adapts
/// instead of flagging forever.
#[derive(Clone, Debug)]
pub struct AnomalyGuard {
    policy: AnomalyPolicy,
    spike_factor: f64,
    warmup: u64,
    /// EMA smoothing factor for mean and deviation.
    alpha: f64,
    ema: f64,
    dev: f64,
    seen: u64,
    events: Vec<AnomalyEvent>,
}

impl AnomalyGuard {
    pub fn new(policy: AnomalyPolicy) -> Self {
        Self {
            policy,
            spike_factor: 10.0,
            warmup: 20,
            alpha: 0.1,
            ema: 0.0,
            dev: 0.0,
            seen: 0,
            events: Vec::new(),
        }
    }

    /// Override spike sensitivity: flag losses farther than `factor`
    /// mean-absolute-deviations from the running average, after `warmup`
    /// finite losses have been observed.
    pub fn with_spike(mut self, factor: f64, warmup: u64) -> Self {
        assert!(factor > 0.0, "spike factor must be positive");
        self.spike_factor = factor;
        self.warmup = warmup;
        self
    }

    pub fn policy(&self) -> AnomalyPolicy {
        self.policy
    }

    /// Feed one per-step loss. Returns the event if this step was anomalous.
    /// Skipped steps (the engine reports them as NaN losses) count as
    /// non-finite.
    pub fn observe_loss(&mut self, step: u64, loss: f64) -> Option<&AnomalyEvent> {
        if !loss.is_finite() {
            return Some(self.report(step, AnomalyKind::NonFiniteLoss, loss, "step loss".into()));
        }
        let spiked = self.seen >= self.warmup && {
            // Deviation floor keeps a flat early curve (dev → 0) from turning
            // normal jitter into spikes.
            let floor = 1e-9 * (1.0 + self.ema.abs());
            (loss - self.ema).abs() > self.spike_factor * self.dev.max(floor)
        };
        let (prev_ema, prev_dev) = (self.ema, self.dev);
        if self.seen == 0 {
            self.ema = loss;
        } else {
            self.dev += self.alpha * ((loss - self.ema).abs() - self.dev);
            self.ema += self.alpha * (loss - self.ema);
        }
        self.seen += 1;
        if spiked {
            let context = format!("loss ema {prev_ema:.6e}, mean abs deviation {prev_dev:.6e}");
            return Some(self.report(step, AnomalyKind::LossSpike, loss, context));
        }
        None
    }

    /// Report an anomaly detected outside the guard (e.g. the training driver
    /// found a non-finite gradient and knows the offending parameter).
    pub fn report(
        &mut self,
        step: u64,
        kind: AnomalyKind,
        value: f64,
        context: String,
    ) -> &AnomalyEvent {
        let event = AnomalyEvent { step, kind, value, context };
        match self.policy {
            AnomalyPolicy::Record => {}
            AnomalyPolicy::Warn => eprintln!("wsccl-obs: {event}"),
            AnomalyPolicy::Abort => {
                eprintln!("wsccl-obs: {event}");
                panic!("training aborted by anomaly guard: {event}");
            }
        }
        self.events.push(event);
        self.events.last().expect("just pushed")
    }

    /// Every anomaly seen so far, in detection order.
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    pub fn take_events(&mut self) -> Vec<AnomalyEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_loss_is_flagged() {
        let mut g = AnomalyGuard::new(AnomalyPolicy::Record);
        assert!(g.observe_loss(0, 1.0).is_none());
        let e = g.observe_loss(1, f64::NAN).expect("NaN loss must flag");
        assert_eq!(e.kind, AnomalyKind::NonFiniteLoss);
        let e = g.observe_loss(2, f64::INFINITY).expect("inf loss must flag");
        assert_eq!(e.kind, AnomalyKind::NonFiniteLoss);
        assert_eq!(g.events().len(), 2);
    }

    #[test]
    fn spike_fires_after_warmup_and_readapts() {
        let mut g = AnomalyGuard::new(AnomalyPolicy::Record).with_spike(5.0, 10);
        // A noisy but stable loss around 1.0 must not flag.
        for i in 0..50u64 {
            let loss = 1.0 + 0.01 * (i as f64).sin();
            assert!(g.observe_loss(i, loss).is_none(), "false positive at {i}");
        }
        let e = g.observe_loss(50, 100.0).expect("100× jump must flag");
        assert_eq!(e.kind, AnomalyKind::LossSpike);
        assert_eq!(e.step, 50);
        // The EMAs keep adapting: a sustained new level stops flagging.
        let mut flagged = 0;
        for i in 51..200u64 {
            if g.observe_loss(i, 100.0).is_some() {
                flagged += 1;
            }
        }
        assert!(flagged < 60, "guard must re-adapt to a new loss level, flagged {flagged}");
        assert!(g.observe_loss(200, 100.0).is_none());
    }

    #[test]
    fn no_spike_detection_during_warmup() {
        let mut g = AnomalyGuard::new(AnomalyPolicy::Record).with_spike(2.0, 5);
        for (i, loss) in [1.0, 100.0, 0.01, 50.0].into_iter().enumerate() {
            assert!(g.observe_loss(i as u64, loss).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "training aborted by anomaly guard")]
    fn abort_policy_panics_with_context() {
        let mut g = AnomalyGuard::new(AnomalyPolicy::Abort);
        g.observe_loss(3, f64::NAN);
    }

    #[test]
    fn external_report_carries_context() {
        let mut g = AnomalyGuard::new(AnomalyPolicy::Record);
        g.report(7, AnomalyKind::NonFiniteGradient, f64::NEG_INFINITY, "param `enc.w1`".into());
        let e = &g.events()[0];
        assert_eq!(e.step, 7);
        assert!(e.context.contains("enc.w1"));
        assert!(format!("{e}").contains("non-finite-gradient"));
    }
}
