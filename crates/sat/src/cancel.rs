//! Composable cooperative cancellation for solver work.
//!
//! A [`CancelToken`] is the one cancellation carrier threaded from a
//! caller-facing session all the way into the CDCL restart loop. It
//! replaces the previous ad-hoc pair of an `Arc<AtomicBool>` stop flag
//! (raised by portfolio rivals) and a per-query wall-clock deadline kept
//! inside the solver: both are now *reasons* of the same token, alongside
//! a conflict quota, so whoever observes the stop can also report **why**
//! ([`SolverStats::stop_reason`](crate::SolverStats::stop_reason)).
//!
//! Tokens compose parent→child: cancelling a parent cancels every
//! descendant, while a child's own deadline or quota never affects its
//! parent. A typical session builds a small tree —
//!
//! ```text
//! session token (caller may .cancel())
//! └─ race token (portfolio winner cancels rivals)
//!    └─ query token (per-probe deadline + conflict quota)
//! ```
//!
//! — and installs the *leaf* on the solver; one poll sees every level.
//!
//! # Example
//!
//! ```
//! use revpebble_sat::{CancelReason, CancelToken};
//!
//! let session = CancelToken::new();
//! let query = session.child();
//! assert!(!query.is_cancelled());
//! session.cancel();
//! assert!(query.is_cancelled());
//! assert_eq!(query.reason(), Some(CancelReason::Cancelled));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a [`CancelToken`] fired (the first cause wins and latches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// Somebody called [`CancelToken::cancel`] — a caller abandoned the
    /// session, or a portfolio winner stopped its rivals.
    Cancelled,
    /// The token's wall-clock deadline passed (per-query timeouts, the
    /// paper's Table I methodology).
    Deadline,
    /// The token's conflict quota was used up
    /// (per-session work budgets in batch serving).
    QuotaExhausted,
}

impl CancelReason {
    /// Stable lower-case name (`cancelled` / `deadline` / `quota`),
    /// used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::Cancelled => "cancelled",
            CancelReason::Deadline => "deadline",
            CancelReason::QuotaExhausted => "quota",
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;
const QUOTA: u8 = 3;

#[derive(Debug)]
struct Inner {
    /// `LIVE` until the first cause latches one of the reason codes.
    state: AtomicU8,
    /// Wall-clock limit of this token (checked by [`CancelToken::poll`]).
    deadline: Option<Instant>,
    /// Conflict allowance of this token; `used` counts charges against it.
    quota: Option<u64>,
    used: AtomicU64,
    parent: Option<CancelToken>,
}

/// A shareable, composable cancellation token (see the [module
/// docs](self)). Cloning shares the token; [`child`](CancelToken::child)
/// derives a dependent one.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    fn build(deadline: Option<Instant>, quota: Option<u64>, parent: Option<CancelToken>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline,
                quota,
                used: AtomicU64::new(0),
                parent,
            }),
        }
    }

    /// A live root token with no deadline and no quota.
    pub fn new() -> Self {
        Self::build(None, None, None)
    }

    /// A root token with its own limits: it fires with
    /// [`CancelReason::Deadline`] once `deadline` passes and with
    /// [`CancelReason::QuotaExhausted`] once [`charge`](Self::charge)s
    /// reach `quota`.
    pub fn with_limits(deadline: Option<Instant>, quota: Option<u64>) -> Self {
        Self::build(deadline, quota, None)
    }

    /// Derives a child: cancelled whenever `self` is, with no additional
    /// limits of its own.
    pub fn child(&self) -> Self {
        Self::build(None, None, Some(self.clone()))
    }

    /// Derives a child with its own deadline and/or conflict quota on top
    /// of everything inherited from `self`.
    pub fn child_with_limits(&self, deadline: Option<Instant>, quota: Option<u64>) -> Self {
        Self::build(deadline, quota, Some(self.clone()))
    }

    /// Latches [`CancelReason::Cancelled`] (idempotent; a reason that
    /// already latched wins). Descendants observe it on their next poll.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    fn latch(&self, code: u8) {
        let _ = self
            .inner
            .state
            .compare_exchange(LIVE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Records `units` of work (conflicts) against this token **and every
    /// ancestor** that carries a quota; whichever allowance fills first
    /// latches [`CancelReason::QuotaExhausted`] on its token.
    pub fn charge(&self, units: u64) {
        let mut node = Some(self);
        while let Some(token) = node {
            if let Some(quota) = token.inner.quota {
                let used = token.inner.used.fetch_add(units, Ordering::Relaxed) + units;
                if used >= quota {
                    token.latch(QUOTA);
                }
            }
            node = token.inner.parent.as_ref();
        }
    }

    /// Cheap check suitable for hot loops: latched state of this token and
    /// its ancestors — a handful of relaxed atomic loads, **no clock
    /// read**. Deadlines latch on [`poll`](Self::poll), which the solver
    /// calls at its (rarer) budget-check sites.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// The latched reason, if any, without checking the clock. Ancestors'
    /// reasons shine through (nearest-to-root cause wins).
    pub fn reason(&self) -> Option<CancelReason> {
        if let Some(parent) = &self.inner.parent {
            if let Some(reason) = parent.reason() {
                return Some(reason);
            }
        }
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::Deadline),
            QUOTA => Some(CancelReason::QuotaExhausted),
            _ => None,
        }
    }

    /// Full check: consults the clock against this token's and every
    /// ancestor's deadline (latching [`CancelReason::Deadline`]) and then
    /// reports like [`reason`](Self::reason). This is the per-budget-site
    /// poll; the per-decision poll is [`is_cancelled`](Self::is_cancelled).
    pub fn poll(&self) -> Option<CancelReason> {
        if let Some(parent) = &self.inner.parent {
            if let Some(reason) = parent.poll() {
                return Some(reason);
            }
        }
        if self.inner.state.load(Ordering::Relaxed) == LIVE {
            if let Some(deadline) = self.inner.deadline {
                if Instant::now() >= deadline {
                    self.latch(DEADLINE);
                }
            }
        }
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::Deadline),
            QUOTA => Some(CancelReason::QuotaExhausted),
            _ => None,
        }
    }

    /// This token's own deadline, if any (ancestors' deadlines are polled
    /// transitively, not surfaced here).
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Conflicts charged so far against this token's own quota; a token
    /// without a quota counts nothing. The session watchdog reads this
    /// count as its liveness signal: a fired token whose count stands
    /// still belongs to a wedged job.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_tokens_are_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert_eq!(t.poll(), None);
    }

    #[test]
    fn cancel_latches_and_is_idempotent() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
        assert!(t.is_cancelled());
    }

    #[test]
    fn first_reason_wins() {
        let t = CancelToken::with_limits(None, Some(1));
        t.charge(5);
        t.cancel(); // too late: quota already latched
        assert_eq!(t.reason(), Some(CancelReason::QuotaExhausted));
    }

    #[test]
    fn parent_cancellation_reaches_children() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child_with_limits(None, Some(1_000_000));
        assert!(!grandchild.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert_eq!(grandchild.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn child_limits_do_not_cancel_the_parent() {
        let parent = CancelToken::new();
        let child = parent.child_with_limits(None, Some(2));
        child.charge(2);
        assert_eq!(child.reason(), Some(CancelReason::QuotaExhausted));
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn quota_charges_propagate_to_quota_bearing_ancestors() {
        let batch = CancelToken::with_limits(None, Some(10));
        let a = batch.child_with_limits(None, Some(8));
        let b = batch.child_with_limits(None, Some(8));
        a.charge(6);
        assert_eq!(a.reason(), None);
        b.charge(6); // batch total hits 12 >= 10
        assert_eq!(batch.reason(), Some(CancelReason::QuotaExhausted));
        assert!(a.is_cancelled(), "batch quota shines through to children");
        assert_eq!(a.used(), 6);
    }

    #[test]
    fn deadline_latches_on_poll_only() {
        let t = CancelToken::with_limits(Some(Instant::now() - Duration::from_millis(1)), None);
        // The expired deadline is invisible to the cheap check …
        assert!(!t.is_cancelled());
        // … until a poll consults the clock and latches it.
        assert_eq!(t.poll(), Some(CancelReason::Deadline));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn parent_deadline_is_polled_transitively() {
        let parent =
            CancelToken::with_limits(Some(Instant::now() - Duration::from_millis(1)), None);
        let child = parent.child();
        assert_eq!(child.poll(), Some(CancelReason::Deadline));
        assert!(parent.is_cancelled());
    }

    #[test]
    fn future_deadline_stays_live() {
        let t = CancelToken::with_limits(Some(Instant::now() + Duration::from_secs(3600)), None);
        assert_eq!(t.poll(), None);
        assert!(!t.is_cancelled());
    }

    #[test]
    fn shared_clones_observe_one_state() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
    }

    // --- concurrent-fire coverage -----------------------------------
    //
    // These stress the latch and quota paths from several threads; they
    // also run under the TSan CI job (`-p revpebble-sat cancel`), which
    // is what turns them into a real data-race check.

    #[test]
    fn a_child_cancelled_before_its_parent_keeps_the_parent_cause() {
        // Child latches Cancelled first; the parent's later latch must
        // still shine through as the nearest-to-root cause.
        for _ in 0..64 {
            let parent = CancelToken::with_limits(None, Some(1));
            let child = parent.child();
            let c = child.clone();
            let p = parent.clone();
            let t1 = std::thread::spawn(move || c.cancel());
            let t2 = std::thread::spawn(move || p.charge(1));
            t1.join().unwrap();
            t2.join().unwrap();
            // Whatever the interleaving, the child reports the parent's
            // quota (root cause wins) and both are latched exactly once.
            assert_eq!(child.reason(), Some(CancelReason::QuotaExhausted));
            assert_eq!(parent.reason(), Some(CancelReason::QuotaExhausted));
        }
    }

    #[test]
    fn a_parent_latch_is_visible_to_every_child_thread() {
        let parent = CancelToken::new();
        let children: Vec<CancelToken> = (0..8).map(|_| parent.child()).collect();
        let barrier = Arc::new(std::sync::Barrier::new(children.len() + 1));
        let spinners: Vec<_> = children
            .into_iter()
            .map(|child| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Spin until the parent's cancellation shines through;
                    // a missed latch would hang here (and trip the test
                    // timeout) rather than pass silently.
                    while !child.is_cancelled() {
                        std::hint::spin_loop();
                    }
                    child.reason()
                })
            })
            .collect();
        barrier.wait();
        parent.cancel();
        for spinner in spinners {
            assert_eq!(spinner.join().unwrap(), Some(CancelReason::Cancelled));
        }
    }

    #[test]
    fn concurrent_charges_race_to_one_quota_latch() {
        // Two threads charge one shared allowance; the total must be
        // exact (no lost updates) and the latch must fire exactly when
        // the allowance fills, regardless of interleaving.
        for _ in 0..64 {
            let batch = CancelToken::with_limits(None, Some(1_000));
            let a = batch.child();
            let b = batch.child();
            let ta = std::thread::spawn(move || {
                for _ in 0..600 {
                    a.charge(1);
                }
            });
            let tb = std::thread::spawn(move || {
                for _ in 0..600 {
                    b.charge(1);
                }
            });
            ta.join().unwrap();
            tb.join().unwrap();
            assert_eq!(batch.used(), 1_200);
            assert_eq!(batch.reason(), Some(CancelReason::QuotaExhausted));
        }
    }

    #[test]
    fn charges_below_the_quota_never_latch() {
        let batch = CancelToken::with_limits(None, Some(1_201));
        let a = batch.child();
        let b = batch.child();
        let ta = std::thread::spawn(move || {
            for _ in 0..600 {
                a.charge(1);
            }
        });
        let tb = std::thread::spawn(move || {
            for _ in 0..600 {
                b.charge(1);
            }
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(batch.used(), 1_200);
        assert_eq!(batch.reason(), None);
    }
}
