//! Deterministic fail-point injection for chaos testing.
//!
//! A [`FaultPlan`] arms one named **fail-point site** — a fixed place
//! in the solver/session stack ([`FaultSite`]) — with a fault to inject
//! on a specific visit. Sites are polled from hot paths, so the
//! disabled plan ([`FaultPlan::none`], the default everywhere) is a
//! single `Option` check and nothing else: no clock, no atomics, no
//! allocation.
//!
//! Determinism: every site keeps a per-plan visit counter, and the arm
//! fires on exactly the visit whose ordinal equals its `seed`.
//! Re-running the same workload with the same plan injects the fault at
//! the same site visit, which is what makes the chaos test matrix
//! (`tests/chaos.rs`) reproducible.
//!
//! The plan is [`Copy`] so it can ride inside the `Copy` config structs
//! (`SolverConfig`, and `SolverOptions` in `revpebble-core`) without
//! churn: the shared counters live in a leaked, process-lifetime
//! allocation. Plans are test/diagnostic artifacts — a handful per
//! process — so the leak is deliberate and bounded.
//!
//! # Example
//!
//! ```
//! use revpebble_sat::faults::{FaultKind, FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::inject(FaultSite::PoolPublish, FaultKind::Transient, 2);
//! assert_eq!(plan.check(FaultSite::PoolPublish), None); // visit 0
//! assert_eq!(plan.check(FaultSite::PoolPublish), None); // visit 1
//! assert_eq!(
//!     plan.check(FaultSite::PoolPublish),
//!     Some(FaultKind::Transient) // visit 2 fires
//! );
//! assert_eq!(plan.check(FaultSite::PoolPublish), None); // fired once, done
//! assert_eq!(plan.injected(), 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::cancel::CancelToken;

/// A named fail-point site in the solver/session stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The CDCL conflict branch in `revpebble-sat`'s search loop —
    /// the innermost, hottest site.
    SolverConflict,
    /// The learnt-clause export path, just before
    /// `SharedClausePool::publish`.
    PoolPublish,
    /// The start of a job submitted to the `Executor` (session jobs and
    /// portfolio worker tasks). A session answered from the result cache
    /// at spawn runs no job, so it never visits this site.
    ExecJob,
    /// The result-cache insert at the end of a session run.
    CacheInsert,
    /// The top of one minimization probe (one "is `p` pebbles enough?"
    /// SAT query).
    SessionProbe,
    /// A freshly accepted connection in the serve daemon, before any
    /// frame is read.
    ServeAccept,
    /// One request frame in the serve daemon, after parsing and before
    /// the session is spawned.
    ServeRequest,
}

impl FaultSite {
    /// Every site, in counter-index order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::SolverConflict,
        FaultSite::PoolPublish,
        FaultSite::ExecJob,
        FaultSite::CacheInsert,
        FaultSite::SessionProbe,
        FaultSite::ServeAccept,
        FaultSite::ServeRequest,
    ];

    /// Stable dotted name, used by `--fault-plan` and in panic payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::SolverConflict => "solver.conflict",
            FaultSite::PoolPublish => "pool.publish",
            FaultSite::ExecJob => "exec.job",
            FaultSite::CacheInsert => "cache.insert",
            FaultSite::SessionProbe => "session.probe",
            FaultSite::ServeAccept => "serve.accept",
            FaultSite::ServeRequest => "serve.request",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.as_str() == name)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SolverConflict => 0,
            FaultSite::PoolPublish => 1,
            FaultSite::ExecJob => 2,
            FaultSite::CacheInsert => 3,
            FaultSite::SessionProbe => 4,
            FaultSite::ServeAccept => 5,
            FaultSite::ServeRequest => 6,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an armed fail point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic with an `injected fault: …` payload — exercises unwind
    /// containment (`scatter_settle`, `SessionHandle::join`).
    Panic,
    /// Sleep for the arm's delay — exercises the liveness watchdog.
    Delay,
    /// Latch `Cancelled` on the nearest token — exercises the
    /// spurious-cancellation retry path (the token dies while its
    /// parent stays live).
    SpuriousCancel,
    /// Fail transiently, in the site's own vocabulary: a skipped
    /// publish/insert, or a retryable probe error. Sites with no error
    /// channel degrade this to [`FaultKind::SpuriousCancel`].
    Transient,
}

impl FaultKind {
    /// Stable name, used by `--fault-plan`.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay => "delay",
            FaultKind::SpuriousCancel => "cancel",
            FaultKind::Transient => "transient",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(name: &str) -> Option<FaultKind> {
        match name {
            "panic" => Some(FaultKind::Panic),
            "delay" => Some(FaultKind::Delay),
            "cancel" => Some(FaultKind::SpuriousCancel),
            "transient" => Some(FaultKind::Transient),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One armed fault: fire `kind` on the `seed`-th visit of `site`.
#[derive(Clone, Copy)]
struct Arm {
    site: FaultSite,
    kind: FaultKind,
    /// Zero-based ordinal of the site visit that fires this arm.
    seed: u64,
    /// Sleep length when `kind` is [`FaultKind::Delay`].
    delay: Duration,
}

impl fmt::Debug for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.kind, self.seed)?;
        if self.kind == FaultKind::Delay {
            write!(f, ":{}ms", self.delay.as_millis())?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct PlanInner {
    arm: Arm,
    /// Per-site visit counters, indexed by [`FaultSite::index`].
    hits: [AtomicU64; 7],
    /// How many times the arm has fired so far (0 or 1).
    injected: AtomicU64,
}

/// A seeded, deterministic fault-injection plan (see the [module
/// docs](self)).
///
/// `Copy` by design: the plan is a pointer to leaked, process-lifetime
/// state, so every copy shares the same visit counters. The disabled
/// plan is a null pointer — [`check`](Self::check) is then one branch.
#[derive(Clone, Copy, Default)]
pub struct FaultPlan {
    inner: Option<&'static PlanInner>,
}

impl FaultPlan {
    /// The disabled plan: every poll is a no-op (and nearly free).
    pub const fn none() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// Arms a single fault: fire `kind` on the `seed`-th visit of `site`
    /// (zero-based), with a 20 ms delay for [`FaultKind::Delay`].
    ///
    /// Leaks a small allocation that lives for the rest of the process —
    /// plans are test artifacts, not per-request state.
    pub fn inject(site: FaultSite, kind: FaultKind, seed: u64) -> FaultPlan {
        Self::inject_with_delay(site, kind, seed, Duration::from_millis(20))
    }

    /// Like [`inject`](Self::inject) with an explicit sleep length for
    /// [`FaultKind::Delay`] arms (watchdog tests want long stalls).
    pub fn inject_with_delay(
        site: FaultSite,
        kind: FaultKind,
        seed: u64,
        delay: Duration,
    ) -> FaultPlan {
        let inner = Box::leak(Box::new(PlanInner {
            arm: Arm {
                site,
                kind,
                seed,
                delay,
            },
            hits: Default::default(),
            injected: AtomicU64::new(0),
        }));
        FaultPlan { inner: Some(inner) }
    }

    /// Parses the `--fault-plan` spec `SITE:KIND:SEED[:DELAY_MS]`, e.g.
    /// `session.probe:panic:3` or `exec.job:delay:0:500`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            return Err(format!(
                "fault plan '{spec}' is not SITE:KIND:SEED[:DELAY_MS]"
            ));
        }
        let site = FaultSite::parse(parts[0])
            .ok_or_else(|| format!("unknown fault site '{}'", parts[0]))?;
        let kind = FaultKind::parse(parts[1])
            .ok_or_else(|| format!("unknown fault kind '{}'", parts[1]))?;
        let seed: u64 = parts[2]
            .parse()
            .map_err(|_| format!("fault seed '{}' is not a number", parts[2]))?;
        let delay = match parts.get(3) {
            Some(ms) => Duration::from_millis(
                ms.parse()
                    .map_err(|_| format!("fault delay '{ms}' is not a number of milliseconds"))?,
            ),
            None => Duration::from_millis(20),
        };
        Ok(Self::inject_with_delay(site, kind, seed, delay))
    }

    /// `true` when no fault is armed.
    pub fn is_none(&self) -> bool {
        self.inner.is_none()
    }

    /// Polls `site`: counts the visit and returns the armed fault if this
    /// is exactly the visit it fires on. The caller applies the fault;
    /// use [`trip`](Self::trip) for the common application.
    #[inline]
    pub fn check(&self, site: FaultSite) -> Option<FaultKind> {
        self.fire(site).map(|arm| arm.kind)
    }

    /// Counts a visit to `site` and returns the arm when it fires on it.
    #[inline]
    fn fire(&self, site: FaultSite) -> Option<&'static Arm> {
        let inner = self.inner?;
        let visit = inner.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        let arm = &inner.arm;
        if arm.site != site || arm.seed != visit {
            return None;
        }
        inner.injected.fetch_add(1, Ordering::Relaxed);
        Some(arm)
    }

    /// Polls `site` and applies the common faults in place: panics for
    /// [`FaultKind::Panic`], sleeps for [`FaultKind::Delay`], latches
    /// `Cancelled` on `token` for [`FaultKind::SpuriousCancel`]. Returns
    /// `true` when the site should fail **transiently** — the caller
    /// gives that its site-specific meaning (skip the publish or insert,
    /// return a retryable error, cancel the query). A spurious cancel
    /// with no token to latch also reports `true`.
    #[inline]
    pub fn trip(&self, site: FaultSite, token: Option<&CancelToken>) -> bool {
        let Some(arm) = self.fire(site) else {
            return false;
        };
        match arm.kind {
            FaultKind::Panic => panic!("injected fault: panic at {site}"),
            FaultKind::Delay => {
                std::thread::sleep(arm.delay);
                false
            }
            FaultKind::SpuriousCancel => match token {
                Some(token) => {
                    token.cancel();
                    false
                }
                None => true,
            },
            FaultKind::Transient => true,
        }
    }

    /// How many times the arm has fired so far (tests assert the fault
    /// actually triggered).
    pub fn injected(&self) -> u64 {
        self.inner
            .map(|inner| inner.injected.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Visits recorded at `site` so far.
    pub fn visits(&self, site: FaultSite) -> u64 {
        self.inner
            .map(|inner| inner.hits[site.index()].load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Renders only the armed fault, never the pointer or the counters, so
/// `Debug`-derived plan hashes are stable and the disabled plan always
/// renders as `FaultPlan(none)`.
impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner {
            None => f.write_str("FaultPlan(none)"),
            Some(inner) => write!(f, "FaultPlan([{:?}])", inner.arm),
        }
    }
}

/// Plans compare by identity: two copies of the same plan (sharing the
/// same counters) are equal; independently built plans are not, even
/// with an identical arm. Disabled plans are all equal.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        match (self.inner, other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }
}

impl Eq for FaultPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_disabled_plan_never_fires() {
        let plan = FaultPlan::none();
        for site in FaultSite::ALL {
            assert_eq!(plan.check(site), None);
            assert!(!plan.trip(site, None));
        }
        assert_eq!(plan.injected(), 0);
        assert!(plan.is_none());
    }

    #[test]
    fn an_arm_fires_on_exactly_the_seeded_visit() {
        let plan = FaultPlan::inject(FaultSite::SessionProbe, FaultKind::Transient, 3);
        for _ in 0..3 {
            assert_eq!(plan.check(FaultSite::SessionProbe), None);
        }
        assert_eq!(
            plan.check(FaultSite::SessionProbe),
            Some(FaultKind::Transient)
        );
        assert_eq!(plan.check(FaultSite::SessionProbe), None);
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.visits(FaultSite::SessionProbe), 5);
    }

    #[test]
    fn copies_share_one_set_of_counters() {
        let plan = FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, 1);
        let copy = plan;
        assert_eq!(copy.check(FaultSite::ExecJob), None); // visit 0
        assert_eq!(plan.check(FaultSite::ExecJob), Some(FaultKind::Panic));
        assert_eq!(plan, copy);
    }

    #[test]
    fn other_sites_are_unaffected() {
        let plan = FaultPlan::inject(FaultSite::PoolPublish, FaultKind::Delay, 0);
        assert_eq!(plan.check(FaultSite::SolverConflict), None);
        assert_eq!(plan.check(FaultSite::CacheInsert), None);
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn spurious_cancel_latches_the_token() {
        let plan = FaultPlan::inject(FaultSite::SolverConflict, FaultKind::SpuriousCancel, 0);
        let token = CancelToken::new();
        assert!(!plan.trip(FaultSite::SolverConflict, Some(&token)));
        assert!(token.is_cancelled());
    }

    #[test]
    fn spurious_cancel_without_a_token_degrades_to_transient() {
        let plan = FaultPlan::inject(FaultSite::CacheInsert, FaultKind::SpuriousCancel, 0);
        assert!(plan.trip(FaultSite::CacheInsert, None));
    }

    #[test]
    fn injected_panics_carry_the_site_name() {
        let plan = FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, 0);
        let payload = std::panic::catch_unwind(|| plan.trip(FaultSite::ExecJob, None))
            .expect_err("the armed panic fires");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic! with a formatted payload");
        assert_eq!(message, "injected fault: panic at exec.job");
    }

    #[test]
    fn debug_is_stable_and_pointer_free() {
        assert_eq!(format!("{:?}", FaultPlan::none()), "FaultPlan(none)");
        let plan = FaultPlan::inject(FaultSite::SessionProbe, FaultKind::Panic, 7);
        assert_eq!(format!("{plan:?}"), "FaultPlan([session.probe:panic:7])");
        let delayed = FaultPlan::inject_with_delay(
            FaultSite::ExecJob,
            FaultKind::Delay,
            2,
            Duration::from_millis(250),
        );
        assert_eq!(
            format!("{delayed:?}"),
            "FaultPlan([exec.job:delay:2:250ms])"
        );
    }

    #[test]
    fn parse_round_trips_the_cli_spec() {
        let plan = FaultPlan::parse("pool.publish:transient:4").expect("valid spec");
        for _ in 0..4 {
            assert_eq!(plan.check(FaultSite::PoolPublish), None);
        }
        assert_eq!(
            plan.check(FaultSite::PoolPublish),
            Some(FaultKind::Transient)
        );
        assert!(FaultPlan::parse("nope:panic:0").is_err());
        assert!(FaultPlan::parse("exec.job:frob:0").is_err());
        assert!(FaultPlan::parse("exec.job:panic").is_err());
        assert!(FaultPlan::parse("exec.job:delay:0:abc").is_err());
    }

    #[test]
    fn independently_built_plans_are_distinct() {
        let a = FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, 0);
        let b = FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, 0);
        assert_ne!(a, b);
        assert_eq!(FaultPlan::none(), FaultPlan::none());
    }
}
