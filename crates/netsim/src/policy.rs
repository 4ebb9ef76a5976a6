//! Bounded recovery policies.
//!
//! PR-1's fault layer made engines *survive* failures, but every recovery
//! loop was unbounded and instantaneous: a death was observed the moment it
//! happened and the task was re-dispatched forever until it stuck. A
//! [`RetryPolicy`] makes recovery honest and bounded:
//!
//! * **bounded retries** — after `max_attempts` failed attempts the task
//!   surfaces a typed [`PolicyError`] instead of spinning;
//! * **exponential backoff** — re-dispatch waits `base · factor^(k-1)`
//!   simulated seconds (capped) after the `k`-th failure, the standard
//!   thundering-herd guard;
//! * **detection delay** — a node death is noticed one heartbeat interval
//!   *after* it happens (Dask's worker heartbeat, a pilot agent's DB
//!   poll), so recovery cost is modelled, not assumed free;
//! * **per-attempt timeout and job deadline** — a watchdog kills attempts
//!   that run longer than `attempt_timeout_s`, and an attempt that could
//!   not finish by `deadline_s` fails fast.
//!
//! All engines derive their policy from
//! `FrameworkProfile::retry_policy()` and surface exhaustion as
//! `EngineError` values. A task-level policy is read in one place,
//! [`SimExecutor::run_task_recovering`](crate::SimExecutor::run_task_recovering):
//! the Spark map stage, the Dask task submit and the Pilot unit loop call
//! it with their price of re-dispatch, and
//! [`SimExecutor::run_task_policied`](crate::SimExecutor::run_task_policied)
//! — synthetic workloads, streams, the chaos harness — is the same loop
//! with a free one.

use std::error::Error;
use std::fmt;

/// Hard ceiling on any single backoff wait when no finite
/// [`RetryPolicy::backoff_cap_s`] is set. Without it, the default infinite
/// cap lets `base · factor^k` overflow into astronomical (or infinite)
/// waits at high attempt counts, which then poison every downstream
/// virtual-time computation. One simulated hour is far beyond any sane
/// re-dispatch wait.
pub const BACKOFF_SATURATION_S: f64 = 3_600.0;

/// Bounded-retry policy, all times in simulated seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff for each further attempt.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff wait.
    pub backoff_cap_s: f64,
    /// Heartbeat interval: how long after a node death the scheduler
    /// *notices* it. Timeout kills are noticed immediately (the watchdog
    /// is the observer).
    pub detection_delay_s: f64,
    /// Kill any attempt still running after this long.
    pub attempt_timeout_s: Option<f64>,
    /// Absolute virtual-time deadline: an attempt that cannot finish by
    /// this time fails fast with [`PolicyError::DeadlineExceeded`].
    pub deadline_s: Option<f64>,
    /// Heartbeat period of the suspicion-based failure detector. `0.0`
    /// disables suspicion: partitioned nodes are simply waited out and
    /// only real deaths are observed (via `detection_delay_s`).
    pub heartbeat_interval_s: f64,
    /// How long after the last received heartbeat the detector declares a
    /// node suspect. A network partition that outlives this window makes
    /// the detector *false-positive* on a live node — the scheduler
    /// reschedules while the original attempt survives as a zombie.
    pub suspicion_timeout_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and no backoff, detection
    /// delay, timeout, or deadline.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a task gets at least one attempt");
        RetryPolicy {
            max_attempts,
            backoff_base_s: 0.0,
            backoff_factor: 2.0,
            backoff_cap_s: f64::INFINITY,
            detection_delay_s: 0.0,
            attempt_timeout_s: None,
            deadline_s: None,
            heartbeat_interval_s: 0.0,
            suspicion_timeout_s: 0.0,
        }
    }

    /// Exponential backoff: wait `base · factor^(k-1)` (≤ `cap`) before
    /// re-dispatching after the `k`-th failure.
    pub fn with_backoff(mut self, base_s: f64, factor: f64, cap_s: f64) -> Self {
        assert!(base_s >= 0.0 && factor >= 1.0 && cap_s >= 0.0);
        self.backoff_base_s = base_s;
        self.backoff_factor = factor;
        self.backoff_cap_s = cap_s;
        self
    }

    /// Heartbeat-based failure detection: deaths are observed `delay_s`
    /// after they happen.
    pub fn with_detection_delay(mut self, delay_s: f64) -> Self {
        assert!(delay_s >= 0.0);
        self.detection_delay_s = delay_s;
        self
    }

    /// Watchdog: kill attempts still running after `timeout_s`.
    pub fn with_timeout(mut self, timeout_s: f64) -> Self {
        assert!(timeout_s > 0.0);
        self.attempt_timeout_s = Some(timeout_s);
        self
    }

    /// Absolute deadline for the whole task.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0);
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Enable the suspicion-based failure detector: workers heartbeat
    /// every `heartbeat_s`; a node whose heartbeats stop (death *or*
    /// partition) is declared suspect `timeout_s` after its last received
    /// heartbeat. `timeout_s` must be at least `heartbeat_s`, otherwise
    /// the detector would suspect healthy nodes between beats.
    pub fn with_suspicion(mut self, heartbeat_s: f64, timeout_s: f64) -> Self {
        assert!(heartbeat_s > 0.0, "heartbeat interval must be positive");
        assert!(
            timeout_s >= heartbeat_s,
            "suspicion timeout below the heartbeat interval suspects healthy nodes"
        );
        self.heartbeat_interval_s = heartbeat_s;
        self.suspicion_timeout_s = timeout_s;
        self
    }

    /// The configured suspicion detector, if any.
    pub fn detector(&self) -> Option<Detector> {
        if self.heartbeat_interval_s > 0.0 {
            Some(Detector {
                heartbeat_s: self.heartbeat_interval_s,
                timeout_s: self.suspicion_timeout_s,
            })
        } else {
            None
        }
    }

    /// Deadline gate for a retry decision. The failure was observed at
    /// `observed_s`; the next attempt would dispatch at `redispatch_s`
    /// (observation + backoff + any scheduler overheads the caller adds).
    /// When the redispatch already falls past `deadline_s` the backoff
    /// sleep is doomed — the typed error surfaces *now*, stamped with the
    /// observation time, instead of burning virtual time on a wait whose
    /// attempt could never be allowed to run. The executor gates an
    /// attempt the same way before placing it: decided at its start, due
    /// at its end.
    pub fn deadline_gate(&self, observed_s: f64, redispatch_s: f64) -> Result<(), PolicyError> {
        match self.deadline_s {
            Some(deadline) if redispatch_s > deadline => Err(PolicyError::DeadlineExceeded {
                deadline_s: deadline,
                at_s: observed_s,
            }),
            _ => Ok(()),
        }
    }

    /// Backoff wait applied before dispatching `attempt` (1-based). The
    /// first attempt never waits; attempt `k+1` waits
    /// `min(cap, base · factor^(k-1))`. The wait saturates instead of
    /// overflowing: with an infinite (default) cap it is bounded by
    /// [`BACKOFF_SATURATION_S`], and a non-finite intermediate product
    /// (e.g. `factor^60` overflowing) collapses to the effective cap.
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt <= 1 || self.backoff_base_s <= 0.0 {
            return 0.0;
        }
        let cap = if self.backoff_cap_s.is_finite() {
            self.backoff_cap_s
        } else {
            BACKOFF_SATURATION_S.max(self.backoff_base_s)
        };
        let exp = (attempt - 2).min(60);
        let raw = self.backoff_base_s * self.backoff_factor.powi(exp as i32);
        if raw.is_finite() {
            raw.min(cap)
        } else {
            cap
        }
    }
}

/// Suspicion-based failure detector in virtual time. Workers beat every
/// `heartbeat_s`; a node is suspect `timeout_s` after its last *received*
/// beat. Unlike the oracle `detection_delay_s`, this detector can
/// false-positive: a partitioned-but-alive node stops being heard without
/// being dead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detector {
    /// Heartbeat period.
    pub heartbeat_s: f64,
    /// Silence tolerated after the last received heartbeat.
    pub timeout_s: f64,
}

impl Detector {
    /// When the detector declares a node suspect, given that contact was
    /// lost (death or partition cut) at `lost_contact_s`. Heartbeats land
    /// on the grid `0, h, 2h, …`; the last one *received* is the last
    /// grid point strictly before the cut (a beat exactly at the cut is
    /// lost with it). The suspect time never precedes the cut itself,
    /// which keeps the `timeout_s == heartbeat_s` boundary honest: a cut
    /// just after a beat is suspected one full timeout later, a cut just
    /// before a beat almost immediately.
    pub fn suspect_time(&self, lost_contact_s: f64) -> f64 {
        let h = self.heartbeat_s;
        let last_beat = ((lost_contact_s / h).ceil() - 1.0).max(0.0) * h;
        (last_beat + self.timeout_s).max(lost_contact_s)
    }
}

/// Why a policied task gave up. Engines map these onto their own error
/// types; nothing in this crate panics or hangs on a fault plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyError {
    /// Every allowed attempt was killed by a node death.
    RetriesExhausted { attempts: u32, last_failure_s: f64 },
    /// The final allowed attempt was killed by the watchdog.
    Timeout {
        attempt: u32,
        timeout_s: f64,
        at_s: f64,
    },
    /// No attempt could finish before the deadline.
    DeadlineExceeded { deadline_s: f64, at_s: f64 },
    /// Every node that could host the task is dead.
    NoSurvivingCore { at_s: f64 },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::RetriesExhausted {
                attempts,
                last_failure_s,
            } => write!(
                f,
                "task failed after {attempts} attempts (last failure at {last_failure_s:.3}s)"
            ),
            PolicyError::Timeout {
                attempt,
                timeout_s,
                at_s,
            } => write!(
                f,
                "attempt {attempt} exceeded its {timeout_s:.3}s timeout at {at_s:.3}s"
            ),
            PolicyError::DeadlineExceeded { deadline_s, at_s } => write!(
                f,
                "cannot finish by the {deadline_s:.3}s deadline (checked at {at_s:.3}s)"
            ),
            PolicyError::NoSurvivingCore { at_s } => {
                write!(f, "no surviving core at {at_s:.3}s (all nodes dead)")
            }
        }
    }
}

impl Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::new(5).with_backoff(0.5, 2.0, 3.0);
        assert_eq!(p.backoff_before(1), 0.0, "first attempt never waits");
        assert_eq!(p.backoff_before(2), 0.5);
        assert_eq!(p.backoff_before(3), 1.0);
        assert_eq!(p.backoff_before(4), 2.0);
        assert_eq!(p.backoff_before(5), 3.0, "capped");
    }

    #[test]
    fn backoff_saturates_at_high_attempt_counts() {
        // Regression: with the default infinite cap, factor^k used to grow
        // unchecked (2^60 · base ≈ 1e18 s) or overflow to infinity. Every
        // wait must stay finite and bounded by the saturation ceiling.
        let p = RetryPolicy::new(u32::MAX).with_backoff(1.0, 2.0, f64::INFINITY);
        for attempt in [2, 10, 62, 1_000, u32::MAX] {
            let w = p.backoff_before(attempt);
            assert!(w.is_finite(), "attempt {attempt} backoff must be finite");
            assert!(w <= BACKOFF_SATURATION_S, "attempt {attempt} wait {w}");
        }
        assert_eq!(p.backoff_before(u32::MAX), BACKOFF_SATURATION_S);
        // A factor large enough to overflow f64 also saturates.
        let q = RetryPolicy::new(u32::MAX).with_backoff(1.0, 1e300, f64::INFINITY);
        assert_eq!(q.backoff_before(100), BACKOFF_SATURATION_S);
        // A finite user cap still wins, even above the saturation ceiling.
        let r = RetryPolicy::new(u32::MAX).with_backoff(1.0, 2.0, 7_200.0);
        assert_eq!(r.backoff_before(u32::MAX), 7_200.0);
        // Small attempt counts are unchanged by the fix.
        assert_eq!(p.backoff_before(1), 0.0);
        assert_eq!(p.backoff_before(2), 1.0);
        assert_eq!(p.backoff_before(3), 2.0);
    }

    #[test]
    fn zero_base_means_no_backoff() {
        let p = RetryPolicy::new(4);
        for k in 1..6 {
            assert_eq!(p.backoff_before(k), 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_attempts_rejected() {
        RetryPolicy::new(0);
    }

    #[test]
    fn suspicion_detector_math() {
        let p = RetryPolicy::new(3).with_suspicion(1.0, 3.0);
        let d = p.detector().expect("suspicion enabled");
        // Cut at 5.5: last received beat was at 5.0, suspect at 8.0.
        assert_eq!(d.suspect_time(5.5), 8.0);
        // Cut exactly on a beat: that beat is lost, last received is the
        // previous one.
        assert_eq!(d.suspect_time(5.0), 7.0);
        // Cut before the first beat: nothing was ever heard after t=0.
        assert_eq!(d.suspect_time(0.5), 3.0);
        assert_eq!(d.suspect_time(0.0), 3.0);
        // timeout == heartbeat boundary: suspicion can never precede the
        // cut, even though last_beat + timeout would.
        let tight = RetryPolicy::new(3).with_suspicion(2.0, 2.0);
        let d = tight.detector().unwrap();
        assert_eq!(d.suspect_time(3.9), 4.0, "last beat 2.0 + 2.0");
        assert_eq!(d.suspect_time(4.0), 4.0, "clamped to the cut itself");
        assert_eq!(d.suspect_time(4.1), 6.0);
    }

    #[test]
    fn suspicion_disabled_by_default() {
        assert_eq!(RetryPolicy::new(3).detector(), None);
    }

    #[test]
    #[should_panic]
    fn suspicion_timeout_below_heartbeat_rejected() {
        RetryPolicy::new(3).with_suspicion(2.0, 1.0);
    }

    #[test]
    fn errors_render() {
        let e = PolicyError::RetriesExhausted {
            attempts: 3,
            last_failure_s: 1.5,
        };
        assert!(e.to_string().contains("3 attempts"));
        let t = PolicyError::Timeout {
            attempt: 2,
            timeout_s: 4.0,
            at_s: 9.0,
        };
        assert!(t.to_string().contains("timeout"));
    }
}
