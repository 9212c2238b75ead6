//! Retry delay schedule ([`DelayBackoff`]).

/// Capped exponential **delay** schedule for retry loops.
///
/// `DelayBackoff` answers "how long do I sleep before retrying a failed
/// network operation": each step doubles the previous delay until a cap,
/// the classic retry-with-exponential-backoff shape registries expect from
/// clients hitting 429/5xx. Jitter is deliberately *not* applied here —
/// callers that need it (e.g. `dhub-faults::RetryPolicy`) derive it
/// deterministically from their own seed so schedules stay replayable.
#[derive(Clone, Copy, Debug)]
pub struct DelayBackoff {
    base: std::time::Duration,
    cap: std::time::Duration,
}

impl DelayBackoff {
    /// Schedule starting at `base` and doubling up to `cap`.
    pub fn new(base: std::time::Duration, cap: std::time::Duration) -> DelayBackoff {
        DelayBackoff { base, cap: cap.max(base) }
    }

    /// The raw (un-jittered) delay before retry attempt `attempt`
    /// (0-based): `min(cap, base << attempt)`, saturating.
    pub fn delay(&self, attempt: u32) -> std::time::Duration {
        let doubled = self
            .base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.cap);
        doubled.min(self.cap)
    }

    /// The configured cap.
    pub fn cap(&self) -> std::time::Duration {
        self.cap
    }

    /// The configured base delay.
    pub fn base(&self) -> std::time::Duration {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn delay_backoff_doubles_then_caps() {
        let d = DelayBackoff::new(Duration::from_millis(10), Duration::from_millis(80));
        assert_eq!(d.delay(0), Duration::from_millis(10));
        assert_eq!(d.delay(1), Duration::from_millis(20));
        assert_eq!(d.delay(2), Duration::from_millis(40));
        assert_eq!(d.delay(3), Duration::from_millis(80));
        assert_eq!(d.delay(4), Duration::from_millis(80), "capped");
        assert_eq!(d.delay(63), Duration::from_millis(80), "huge attempts saturate");
    }

    #[test]
    fn delay_backoff_cap_never_below_base() {
        let d = DelayBackoff::new(Duration::from_millis(50), Duration::from_millis(1));
        assert_eq!(d.delay(0), Duration::from_millis(50));
        assert_eq!(d.cap(), Duration::from_millis(50));
    }
}
