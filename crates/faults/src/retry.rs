//! Retry policy: capped exponential backoff with deterministic jitter.

use dhub_sync::DelayBackoff;
use proptest::TestRng;
use std::time::Duration;

/// How a failed operation should be treated by the retry loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryClass {
    /// Transient — worth another attempt (429, 5xx, dropped connection,
    /// truncated body, digest mismatch).
    Retryable,
    /// Permanent — retrying cannot help (401 auth wall, no `latest` tag,
    /// repo not found). The paper *classified* these rather than retrying.
    Terminal,
}

/// What [`RetryPolicy::run`] tells its caller's hook about a retryable
/// failure, alongside the error itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryEvent {
    /// The loop slept this long and is about to call `op` again.
    Retry(Duration),
    /// The retry budget is spent; `run` returns the error.
    GaveUp,
}

/// A replayable retry schedule: up to `max_retries` extra attempts, delays
/// doubling from `base` to `cap` ([`dhub_sync::DelayBackoff`]), each shrunk
/// by a deterministic jitter derived from `(seed, key, attempt)`.
///
/// Jitter is subtractive and bounded: the delay before attempt `n` lies in
/// `[raw_n * (1 - jitter), raw_n]` where `raw_n = min(cap, base * 2^n)`,
/// and the realized schedule is monotone non-decreasing (a jittered step
/// never undercuts its predecessor). `jitter` is clamped to `0..=0.5` —
/// above one half, doubling could no longer guarantee monotonicity.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// First retry delay.
    pub base: Duration,
    /// Delay ceiling.
    pub cap: Duration,
    /// Jitter fraction in `0..=0.5`.
    pub jitter: f64,
    /// Seed the jitter stream derives from.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// The downloader's default stance: 4 retries, 5 ms → 200 ms.
    fn default() -> Self {
        RetryPolicy::new(4)
    }
}

impl RetryPolicy {
    /// `max_retries` retries at the default 5 ms → 200 ms, 25 % jitter.
    pub fn new(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            jitter: 0.25,
            seed: 0,
        }
    }

    /// No retries: every error is final on first sight.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new(0)
    }

    /// A microsecond-scale schedule for tests and benches (retries cost
    /// wall-clock sleep; chaos suites want hundreds of them per second).
    pub fn fast(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_micros(20),
            cap: Duration::from_micros(320),
            jitter: 0.25,
            seed: 0,
        }
    }

    /// Builder: sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Builder: sets the jitter fraction (clamped to `0..=0.5`).
    pub fn with_jitter(mut self, jitter: f64) -> RetryPolicy {
        self.jitter = jitter.clamp(0.0, 0.5);
        self
    }

    fn backoff(&self) -> DelayBackoff {
        DelayBackoff::new(self.base, self.cap)
    }

    /// The delay before retry `attempt` (0-based) of operation `key`,
    /// jittered deterministically. Not monotonicity-clamped on its own —
    /// use [`RetryPolicy::schedule`] for the realized monotone schedule.
    pub fn delay(&self, key: u64, attempt: u32) -> Duration {
        let raw = self.backoff().delay(attempt);
        let jitter = self.jitter.clamp(0.0, 0.5);
        if jitter == 0.0 {
            return raw;
        }
        let mut rng =
            TestRng::new(self.seed ^ key.rotate_left(23) ^ ((attempt as u64) << 40) ^ 0xA5A5);
        let shrink = 1.0 - jitter * rng.unit_f64();
        Duration::from_nanos((raw.as_nanos() as f64 * shrink) as u64)
    }

    /// The full monotone non-decreasing schedule for operation `key`:
    /// `max_retries` delays, each within its jitter bounds and never below
    /// its predecessor.
    pub fn schedule(&self, key: u64) -> Vec<Duration> {
        let mut prev = Duration::ZERO;
        (0..self.max_retries)
            .map(|a| {
                let d = self.delay(key, a).max(prev);
                prev = d;
                d
            })
            .collect()
    }

    /// The realized delay before retry `attempt` of `key` — the raw
    /// jittered [`RetryPolicy::delay`] clamped so it never undercuts an
    /// earlier step, i.e. `schedule(key)[attempt]` without allocating.
    fn scheduled_delay(&self, key: u64, attempt: u32) -> Duration {
        (0..=attempt).map(|a| self.delay(key, a)).max().unwrap_or(Duration::ZERO)
    }

    /// The retry loop — the only one in the workspace. Calls `op` once per
    /// attempt until it succeeds, fails with an error `classify` calls
    /// [`RetryClass::Terminal`] (returned at once: no sleep, no event), or
    /// fails retryably with the budget spent (the last error is returned
    /// after one [`RetryEvent::GaveUp`]). Between attempts it sleeps
    /// `schedule(key)[attempt]`, `attempt` counting 0, 1, 2 … — the
    /// monotonicity guarantee holds for the delays actually slept — and
    /// then tells `on_event` how long: callers keep their own counters
    /// there, so retry-or-give-up is decided in exactly one place.
    pub fn run<T, E>(
        &self,
        key: u64,
        mut op: impl FnMut() -> Result<T, E>,
        classify: impl Fn(&E) -> RetryClass,
        mut on_event: impl FnMut(&E, RetryEvent),
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            let err = match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if classify(&err) == RetryClass::Terminal {
                return Err(err);
            }
            if attempt >= self.max_retries {
                on_event(&err, RetryEvent::GaveUp);
                return Err(err);
            }
            let slept = self.scheduled_delay(key, attempt);
            if !slept.is_zero() {
                std::thread::sleep(slept);
            }
            on_event(&err, RetryEvent::Retry(slept));
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_replayable() {
        let p = RetryPolicy::new(8).with_seed(1234);
        assert_eq!(p.schedule(7), p.schedule(7));
        let q = RetryPolicy::new(8).with_seed(1234);
        assert_eq!(p.schedule(7), q.schedule(7));
    }

    #[test]
    fn schedule_monotone_and_capped() {
        let p = RetryPolicy::new(10).with_seed(99);
        let s = p.schedule(42);
        assert_eq!(s.len(), 10);
        for w in s.windows(2) {
            assert!(w[0] <= w[1], "schedule must be non-decreasing: {s:?}");
        }
        for d in &s {
            assert!(*d <= p.cap, "delay {d:?} above cap {:?}", p.cap);
        }
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let p = RetryPolicy::new(6).with_seed(5).with_jitter(0.3);
        for key in 0..50u64 {
            for attempt in 0..6 {
                let raw = DelayBackoff::new(p.base, p.cap).delay(attempt);
                let d = p.delay(key, attempt);
                assert!(d <= raw);
                let floor = Duration::from_nanos((raw.as_nanos() as f64 * 0.7) as u64);
                assert!(d >= floor, "delay {d:?} below jitter floor {floor:?}");
            }
        }
    }

    #[test]
    fn zero_jitter_is_exact_backoff() {
        let p = RetryPolicy::new(5).with_jitter(0.0);
        for a in 0..5 {
            assert_eq!(p.delay(9, a), DelayBackoff::new(p.base, p.cap).delay(a));
        }
    }

    #[test]
    fn sleep_delay_matches_monotone_schedule() {
        // run() must sleep schedule(), not the un-clamped delay().
        let p = RetryPolicy::new(10).with_seed(99).with_jitter(0.5);
        for key in [7u64, 42, 1001] {
            let s = p.schedule(key);
            for (a, d) in s.iter().enumerate() {
                assert_eq!(p.scheduled_delay(key, a as u32), *d);
            }
        }
    }

    #[test]
    fn run_sleeps_the_schedule_then_gives_up_once() {
        // Every attempt fails retryably: `max_retries + 1` calls, the whole
        // schedule slept, one give-up, the last error returned. (The
        // general case is `run_follows_the_schedule` in tests/props.rs.)
        let p = RetryPolicy::fast(2).with_seed(9);
        let (mut calls, mut slept, mut gave_up) = (0u32, Vec::new(), 0u32);
        let out: Result<(), u32> = p.run(
            77,
            || {
                calls += 1;
                Err(calls)
            },
            |_| RetryClass::Retryable,
            |_, event| match event {
                RetryEvent::Retry(d) => slept.push(d),
                RetryEvent::GaveUp => gave_up += 1,
            },
        );
        assert_eq!((out, calls, gave_up), (Err(3), 3, 1));
        assert_eq!(slept, p.schedule(77));
    }

    #[test]
    fn run_returns_a_terminal_error_at_once() {
        let mut calls = 0u32;
        let out: Result<(), &str> = RetryPolicy::fast(5).run(
            1,
            || {
                calls += 1;
                Err("auth wall")
            },
            |_| RetryClass::Terminal,
            |_, event| panic!("terminal errors reach no hook, got {event:?}"),
        );
        assert_eq!((out, calls), (Err("auth wall"), 1));
    }

    #[test]
    fn none_policy_has_empty_schedule() {
        assert!(RetryPolicy::none().schedule(1).is_empty());
    }

    #[test]
    fn jitter_clamped_to_half() {
        let p = RetryPolicy::new(4).with_jitter(0.9);
        assert_eq!(p.jitter, 0.5);
    }
}
