//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The design follows the MiniSat lineage:
//!
//! - unit propagation with two watched literals and blocker literals;
//!   truth values are stored per literal, so a value is one load, and a
//!   two-literal clause is propagated from its 8-byte watcher alone,
//!   without reading the clause arena,
//! - first-UIP conflict analysis with clause minimization, into reused
//!   buffers (LBD counted with an epoch-stamped per-level array), so a
//!   conflict allocates nothing once the buffers have warmed up,
//! - VSIDS variable activities with phase saving,
//! - Luby-sequence restarts,
//! - activity/LBD-based learned-clause database reduction,
//! - incremental solving under assumptions,
//! - conflict and wall-clock budgets so callers can implement timeouts
//!   (the paper's Table I methodology relies on per-query timeouts).
//!
//! # Example
//!
//! ```
//! use revpebble_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause([a, b]);
//! solver.add_clause([!a, b]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```

use std::sync::Arc;

use crate::cancel::{CancelReason, CancelToken};
use crate::clause::{ClauseDb, ClauseRef};
use crate::faults::{FaultPlan, FaultSite};
use crate::heap::VarHeap;
use crate::pool::{ClauseBatch, Publish, SharedClausePool};
use crate::types::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it via
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The search exhausted its conflict or time budget.
    Unknown,
}

/// Search statistics, cumulative over the lifetime of the solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of [`Solver::solve`]/[`Solver::solve_with`] calls answered.
    /// Cumulative like every other counter, so a search that claims to
    /// reuse one incremental instance across `n` queries can be audited:
    /// its final stats show `solves == n`.
    pub solves: u64,
    /// Learnt clauses published to the attached [`SharedClausePool`].
    pub exported_clauses: u64,
    /// Rivals' clauses installed from the attached [`SharedClausePool`]
    /// (counting only clauses actually added, not ones already satisfied
    /// at level 0).
    pub imported_clauses: u64,
    /// Mark-compact garbage collections of the clause arena (run at
    /// clause-database-reduction time; see [`crate::clause::ClauseDb`]).
    pub arena_gcs: u64,
    /// Rivals' clauses this solver provably missed: lapped in the pool's
    /// ring buffers before this solver's import pass reached them, or
    /// overwritten mid-copy and discarded (see
    /// [`crate::pool::SharedClausePool::collect_new`]).
    pub dropped_clauses: u64,
    /// Own publications that overwrote the oldest slot of this solver's
    /// full export ring (they still count as exported; some slow reader
    /// will record a drop).
    pub overwritten_clauses: u64,
    /// Why the **last** [`Solver::solve`]/[`Solver::solve_with`] call
    /// returned [`SolveResult::Unknown`]: the reason observed on the
    /// installed [`CancelToken`] (cancelled / deadline / quota). `None`
    /// after a decisive (Sat/Unsat) answer.
    pub stop_reason: Option<CancelReason>,
}

/// One watch-list entry, 8 bytes: the clause and a blocker literal from
/// it. A true blocker proves the clause satisfied without reading it.
/// The top bit of the packed ref flags a two-literal clause, whose
/// blocker is always its other literal, so the watcher alone decides
/// whether the clause propagates or conflicts (arena offsets stay below
/// 2²⁹, see [`ClauseDb::alloc`]).
#[derive(Debug, Clone, Copy)]
struct Watcher {
    packed: u32,
    blocker: Lit,
}

/// The binary-clause flag of [`Watcher::packed`].
const BINARY: u32 = 1 << 31;

impl Watcher {
    #[inline]
    fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Self {
        let flag = if binary { BINARY } else { 0 };
        Watcher {
            packed: cref.index() as u32 | flag,
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> ClauseRef {
        ClauseRef::from_index((self.packed & !BINARY) as usize)
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.packed & BINARY != 0
    }
}

/// Decay for learned-clause activities (the clause increment grows by
/// `1/CLAUSE_DECAY` per conflict).
const CLAUSE_DECAY: f64 = 0.999;

/// Growth factor applied to the learned-clause cap at every reduction.
const LEARNTSIZE_INC: f64 = 1.1;

/// Tunable solver parameters. The defaults work well for the pebbling
/// encodings produced by `revpebble-core`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Multiplicative VSIDS decay (activity increment grows by `1/decay`).
    pub var_decay: f64,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Initial cap on the number of learned clauses, as a fraction of the
    /// number of problem clauses.
    pub learntsize_factor: f64,
    /// Floor of the learned-clause cap, in clauses. The default (1000)
    /// keeps reduction rare on small formulas; tests force frequent
    /// database reductions — and thus arena garbage collections — by
    /// lowering it.
    pub min_learnts: f64,
    /// Initial saved phase for fresh variables: `false` (the default)
    /// branches negative first, `true` positive first. Portfolio
    /// diversification flips this on some workers (HordeSat-style
    /// polarity inversion) so they explore the search space from the
    /// opposite corner.
    pub invert_polarity: bool,
    /// Amplitude of the random initial VSIDS activity given to every
    /// fresh variable, in activity units. `0.0` (the default) keeps
    /// tie-breaking deterministic; small positive values perturb the
    /// initial branching order per worker (variable-bump jitter).
    pub activity_noise: f64,
    /// Seed of the solver-internal PRNG that drives
    /// [`activity_noise`](Self::activity_noise). Distinct per-worker
    /// seeds make the jitter decorrelate the portfolio.
    pub seed: u64,
    /// Fault-injection plan for chaos testing (disabled by default; a
    /// single branch per fail-point poll when disabled). The solver
    /// polls [`FaultSite::SolverConflict`] on every conflict and
    /// [`FaultSite::PoolPublish`] on every clause export.
    pub faults: FaultPlan,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            restart_base: 100,
            learntsize_factor: 1.0 / 3.0,
            min_learnts: 1000.0,
            invert_polarity: false,
            activity_noise: 0.0,
            seed: 0,
            faults: FaultPlan::none(),
        }
    }
}

/// A CDCL SAT solver. See the [module documentation](self) for an overview.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    clauses: ClauseDb,
    /// watches[p] = clauses to inspect when literal `p` becomes true
    /// (they contain `¬p` as one of their two watched literals).
    watches: Vec<Vec<Watcher>>,
    /// Truth value of every literal, indexed by [`Lit::code`]: both
    /// polarities of a variable are stored, so a literal's value is one
    /// load.
    vals: Vec<LBool>,
    polarity: Vec<bool>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarHeap,
    /// false once the clause set is unsatisfiable at level 0.
    ok: bool,
    model: Vec<LBool>,
    stats: SolverStats,
    max_learnts: f64,
    // scratch buffers for conflict analysis (reused across conflicts so
    // the hot path stops allocating)
    seen: Vec<bool>,
    analyze_clear: Vec<Var>,
    analyze_lits: Vec<Lit>,
    /// The clause [`analyze`](Self::analyze) learns, minimized in place.
    learnt: Vec<Lit>,
    /// `level_stamp[l] == lbd_epoch` when decision level `l` was already
    /// counted in the current LBD computation.
    level_stamp: Vec<u64>,
    lbd_epoch: u64,
    /// Scratch for simplifying one imported clause against the level-0
    /// trail (reused so pool imports stop allocating per clause).
    import_tmp: Vec<Lit>,
    // conflict budget (per solve call)
    conflict_budget: Option<u64>,
    /// Cooperative cancellation: once the token fires — cancelled by a
    /// rival or caller, past its deadline, or out of conflict quota — the
    /// current and every future search unwinds with
    /// [`SolveResult::Unknown`]. The token persists across `solve` calls
    /// (a cancelled portfolio worker must stay cancelled for its remaining
    /// queries); callers install a fresh child token per query to express
    /// per-query deadlines.
    cancel: Option<CancelToken>,
    /// Failed assumptions of the last Unsat result (an unsat core over the
    /// assumption set), when the conflict involved assumptions.
    conflict_core: Vec<Lit>,
    /// Clause-sharing endpoint, when the solver runs in a cooperative
    /// portfolio (see [`Solver::attach_clause_pool`]).
    shared_pool: Option<PoolEndpoint>,
    /// SplitMix64 state behind [`SolverConfig::activity_noise`].
    rng_state: u64,
}

/// This solver's view of a [`SharedClausePool`]: its registration id,
/// per-ring read cursors, and clauses seen but not yet installable
/// (they mention variables this solver has not created yet).
#[derive(Debug)]
struct PoolEndpoint {
    pool: Arc<SharedClausePool>,
    source: usize,
    cursors: Vec<u64>,
    /// Clauses awaiting variables a rival's longer formula already has.
    deferred: ClauseBatch,
    /// Reusable staging buffer for [`Solver::import_shared_clauses`]:
    /// kept (empty) between imports so the pool round-trip allocates
    /// nothing once the buffers have warmed up.
    scratch: ClauseBatch,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with default [`SolverConfig`].
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            clauses: ClauseDb::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            polarity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarHeap::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            max_learnts: 0.0,
            seen: Vec::new(),
            analyze_clear: Vec::new(),
            analyze_lits: Vec::new(),
            learnt: Vec::new(),
            level_stamp: Vec::new(),
            lbd_epoch: 0,
            import_tmp: Vec::new(),
            conflict_budget: None,
            cancel: None,
            conflict_core: Vec::new(),
            shared_pool: None,
            rng_state: config.seed,
        }
    }

    /// The next value of the solver-internal SplitMix64 PRNG (seeded by
    /// [`SolverConfig::seed`]).
    fn next_rand(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars());
        let activity = if self.config.activity_noise > 0.0 {
            // A uniform draw in [0, noise): enough to perturb the initial
            // branching order, too small to outlive real VSIDS bumps.
            self.config.activity_noise * ((self.next_rand() >> 11) as f64 / (1u64 << 53) as f64)
        } else {
            0.0
        };
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.polarity.push(self.config.invert_polarity);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(activity);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(var, &self.activity);
        var
    }

    /// Creates `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of live problem clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.num_original()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the next [`solve`](Self::solve) call to roughly
    /// `conflicts` conflicts; `None` removes the limit.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Installs a cooperative cancellation token, shared with other
    /// threads (e.g. the portfolio's first-winner-takes-all broadcast).
    /// The search loop polls its latched state at every decision and its
    /// deadline at every budget-check site; once the token fires, the
    /// current and every future [`solve`](Self::solve) call return
    /// [`SolveResult::Unknown`] promptly and
    /// [`SolverStats::stop_reason`] records why. `None` removes the
    /// token.
    pub fn set_cancel_token(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether the installed cancellation token has latched a stop (cheap:
    /// no clock read; deadlines latch at the budget-check sites).
    #[inline]
    pub fn cancel_requested(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|token| token.is_cancelled())
    }

    /// Connects this solver to a clause-sharing pool: learnt clauses that
    /// pass the pool's length/LBD caps are published verbatim, and rivals'
    /// clauses are installed at every restart boundary and at the start of
    /// every [`solve`](Self::solve) call.
    ///
    /// Soundness is the *caller's* obligation: every solver attached to
    /// one pool must number the variables of one formula identically (see
    /// the [pool module docs](crate::pool)).
    pub fn attach_clause_pool(&mut self, pool: Arc<SharedClausePool>) {
        let source = pool.register();
        self.shared_pool = Some(PoolEndpoint {
            pool,
            source,
            cursors: Vec::new(),
            deferred: ClauseBatch::new(),
            scratch: ClauseBatch::new(),
        });
    }

    /// Publishes a freshly learnt clause to the pool, if it passes the
    /// caps.
    fn export_learnt(&mut self, lits: &[Lit], lbd: u32) {
        let Some(endpoint) = self.shared_pool.as_ref() else {
            return;
        };
        if !endpoint.pool.admits(lits.len(), lbd) {
            return;
        }
        // Fail point `pool.publish`: a transient fault drops this one
        // export on the floor — sharing is best-effort, so correctness
        // must not depend on any particular clause arriving.
        if self
            .config
            .faults
            .trip(FaultSite::PoolPublish, self.cancel.as_ref())
        {
            return;
        }
        match endpoint.pool.publish(endpoint.source, lits, lbd) {
            Publish::Stored => self.stats.exported_clauses += 1,
            Publish::Overwrote => {
                self.stats.exported_clauses += 1;
                self.stats.overwritten_clauses += 1;
            }
            Publish::Rejected => {}
        }
    }

    /// Installs rivals' pooled clauses. Must run at decision level 0 (the
    /// solver imports at restart boundaries and between queries). Clauses
    /// over variables this solver has not created yet — a rival's
    /// encoding may have grown further — are deferred and retried on
    /// later imports.
    fn import_shared_clauses(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(mut endpoint) = self.shared_pool.take() else {
            return;
        };
        // Stage = previously deferred clauses + everything new in the
        // pool; the two batches swap roles every import, so no per-import
        // (let alone per-clause) allocation survives warmup.
        let mut pending = std::mem::replace(
            &mut endpoint.deferred,
            std::mem::take(&mut endpoint.scratch),
        );
        debug_assert!(endpoint.deferred.is_empty());
        self.stats.dropped_clauses +=
            endpoint
                .pool
                .collect_new(endpoint.source, &mut endpoint.cursors, &mut pending);
        let num_vars = self.num_vars();
        for idx in 0..pending.len() {
            let (lits, lbd) = pending.get(idx);
            // Defer a clause over variables not created yet, and after
            // level-0 unsat (nothing left to strengthen) keep the rest so
            // the batch is not silently dropped.
            if !self.ok || lits.iter().any(|l| l.var().index() >= num_vars) {
                endpoint.deferred.push(lits, lbd);
                continue;
            }
            self.install_imported(lits, lbd);
        }
        pending.clear();
        endpoint.scratch = pending;
        self.shared_pool = Some(endpoint);
    }

    /// Adds one imported clause, simplified against the level-0 trail.
    /// Imported clauses are allocated as *learnt*, so database reduction
    /// can drop them again if they never participate in conflicts.
    fn install_imported(&mut self, lits: &[Lit], lbd: u32) {
        let mut remaining = std::mem::take(&mut self.import_tmp);
        remaining.clear();
        let mut satisfied = false;
        for &lit in lits {
            match self.value(lit) {
                // Only level-0 assignments exist here.
                LBool::True => {
                    satisfied = true;
                    break;
                }
                LBool::False => continue,
                LBool::Undef => remaining.push(lit),
            }
        }
        if !satisfied {
            self.stats.imported_clauses += 1;
            match remaining.len() {
                0 => self.ok = false,
                1 => {
                    self.unchecked_enqueue(remaining[0], None);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                }
                _ => {
                    let cref = self.clauses.alloc(&remaining, true);
                    self.clauses.set_lbd(cref, lbd);
                    self.bump_clause(cref);
                    self.attach(cref);
                }
            }
        }
        self.import_tmp = remaining;
    }

    /// Current truth value of `lit` in the solver's partial assignment.
    #[inline]
    fn value(&self, lit: Lit) -> LBool {
        self.vals[lit.code()]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the clause set became trivially
    /// unsatisfiable (the solver stays usable but will report `Unsat`).
    ///
    /// Duplicate literals are removed and tautological clauses
    /// (`x ∨ ¬x ∨ …`) are dropped. Must not be called between
    /// [`solve`](Self::solve) calls that left assumptions set — clauses may
    /// only be added at decision level 0, which is always the case when
    /// using the public API.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &lit) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == !lit {
                return true; // tautology: contains both polarities
            }
            match self.value(lit) {
                LBool::True if self.level[lit.var().index()] == 0 => return true,
                LBool::False if self.level[lit.var().index()] == 0 => continue,
                _ => simplified.push(lit),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.clauses.alloc(&simplified, false);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.clauses.lits(cref);
        let (l0, l1, binary) = (lits[0], lits[1], lits.len() == 2);
        self.watches[(!l0).code()].push(Watcher::new(cref, l1, binary));
        self.watches[(!l1).code()].push(Watcher::new(cref, l0, binary));
    }

    #[inline]
    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(lit), LBool::Undef);
        let vi = lit.var().index();
        self.vals[lit.code()] = LBool::True;
        self.vals[(!lit).code()] = LBool::False;
        self.level[vi] = self.decision_level();
        self.reason[vi] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    ///
    /// The watcher loop compacts `watches[p]` *in place* with a
    /// read/write cursor pair: relocated watchers are pushed onto other
    /// literals' lists (never `p`'s own — a new watch is by construction
    /// not the falsified literal), kept ones slide down, and one final
    /// `truncate` drops the tail. A true blocker keeps a watcher without
    /// touching the clause, and a binary watcher propagates or conflicts
    /// from the watcher alone; only longer clauses are read, through a
    /// single slice borrow into the flat arena.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let pi = p.code();
            let false_lit = !p;
            let end = self.watches[pi].len();
            let mut kept = 0usize;
            let mut i = 0usize;
            'watchers: while i < end {
                let w = self.watches[pi][i];
                i += 1;
                let blocker_value = self.vals[w.blocker.code()];
                if blocker_value == LBool::True {
                    self.watches[pi][kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.cref();
                let (first, first_value) = if w.is_binary() {
                    // The blocker is the other literal: no arena read.
                    self.watches[pi][kept] = w;
                    kept += 1;
                    if blocker_value == LBool::False {
                        // Analysis reads a conflict clause in order:
                        // keep the order a long clause's swap leaves.
                        self.clauses
                            .lits_mut(cref)
                            .copy_from_slice(&[w.blocker, false_lit]);
                    }
                    (w.blocker, blocker_value)
                } else {
                    let lits = self.clauses.lits_mut(cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    let first = lits[0];
                    let first_value = self.vals[first.code()];
                    if first_value == LBool::True {
                        self.watches[pi][kept] = Watcher::new(cref, first, false);
                        kept += 1;
                        continue;
                    }
                    // Look for a new literal to watch.
                    for k in 2..lits.len() {
                        let cand = lits[k];
                        if self.vals[cand.code()] != LBool::False {
                            lits.swap(1, k);
                            self.watches[(!cand).code()].push(Watcher::new(cref, first, false));
                            continue 'watchers;
                        }
                    }
                    // No new watch: the clause is unit or conflicting.
                    self.watches[pi][kept] = Watcher::new(cref, first, false);
                    kept += 1;
                    (first, first_value)
                };
                if first_value == LBool::False {
                    // Conflict: keep the remaining watchers and stop.
                    self.watches[pi].copy_within(i..end, kept);
                    self.watches[pi].truncate(kept + end - i);
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
            }
            self.watches[pi].truncate(kept);
        }
        None
    }

    /// Backtracks to `target_level`, unassigning everything above it.
    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level as usize];
        for idx in (bound..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let vi = lit.var().index();
            self.polarity[vi] = lit.is_positive();
            self.vals[lit.code()] = LBool::Undef;
            self.vals[(!lit).code()] = LBool::Undef;
            self.reason[vi] = None;
            self.order.insert(lit.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, var: Var) {
        let vi = var.index();
        self.activity[vi] += self.var_inc;
        if self.activity[vi] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.clause_inc /= CLAUSE_DECAY;
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        self.clauses.bump_activity(cref, self.clause_inc as f32);
        if self.clauses.activity(cref) > 1e20 {
            for r in self.clauses.iter_learnt_refs().collect::<Vec<_>>() {
                self.clauses.rescale_activity(r, 1e-20);
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Learns into the reusable
    /// [`learnt`](Self::learnt) buffer (asserting literal first, a literal
    /// of the backjump level second), minimizes it in place, and returns
    /// the backjump level and the clause's LBD. Allocates nothing once
    /// the buffers have warmed up.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for the UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.clauses.is_learnt(conflict) {
                self.bump_clause(conflict);
            }
            // Copy into the reusable scratch buffer (bumping activities
            // below needs `&mut self` while the literals live in the
            // clause arena): no allocation once the buffer has warmed up.
            self.analyze_lits.clear();
            self.analyze_lits
                .extend_from_slice(self.clauses.lits(conflict));
            for q_idx in 0..self.analyze_lits.len() {
                let q = self.analyze_lits[q_idx];
                // A reason clause's implied literal is `p` itself; a
                // binary clause may keep it in either position.
                if Some(q) == p {
                    continue;
                }
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.analyze_clear.push(q.var());
                    self.bump_var(q.var());
                    if self.level[vi] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            conflict = self.reason[lit.var().index()]
                .expect("non-decision literal on conflict path must have a reason");
        }
        learnt[0] = !p.expect("analysis visits at least one literal");

        // Clause minimization: drop literals implied by the rest.
        let mut len = 1;
        for i in 1..learnt.len() {
            if !self.is_redundant(learnt[i]) {
                learnt[len] = learnt[i];
                len += 1;
            }
        }
        learnt.truncate(len);

        // Find the backjump level and move its literal to position 1.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        for var in self.analyze_clear.drain(..) {
            self.seen[var.index()] = false;
        }
        let lbd = self.lbd(&learnt);
        self.learnt = learnt;
        (backtrack_level, lbd)
    }

    /// Local redundancy check: `lit` is redundant in the learned clause if
    /// the other literals of its reason clause are all already in the
    /// clause (i.e. `seen`) or assigned at level 0.
    fn is_redundant(&self, lit: Lit) -> bool {
        let Some(reason) = self.reason[lit.var().index()] else {
            return false;
        };
        self.clauses.lits(reason).iter().all(|&q| {
            let vi = q.var().index();
            q == !lit || self.seen[vi] || self.level[vi] == 0
        })
    }

    /// Literal block distance: the number of distinct decision levels
    /// among `lits` (none above the current level: analysis counts before
    /// it backjumps), in one pass over an epoch-stamped per-level array.
    /// Satisfied assumptions open levels without a decision, so levels
    /// can outnumber variables: the array grows on demand.
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_epoch += 1;
        let levels = self.decision_level() as usize + 1;
        if self.level_stamp.len() < levels {
            self.level_stamp.resize(levels, 0);
        }
        let mut count = 0;
        for lit in lits {
            let level = self.level[lit.var().index()] as usize;
            if self.level_stamp[level] != self.lbd_epoch {
                self.level_stamp[level] = self.lbd_epoch;
                count += 1;
            }
        }
        count
    }

    /// Whether `cref` is the reason of a current assignment. The implied
    /// literal of a reason is one of its two watched literals (a binary
    /// clause keeps it in either position), so both are checked.
    fn locked(&self, cref: ClauseRef) -> bool {
        self.clauses.lits(cref)[..2].iter().any(|&lit| {
            self.reason[lit.var().index()] == Some(cref) && self.value(lit) == LBool::True
        })
    }

    /// Removes roughly half of the learned clauses, preferring clauses with
    /// high LBD and low activity. Reason clauses of current assignments are
    /// kept. The freed arena space is reclaimed by a mark-compact garbage
    /// collection straight away, so the whole reduction costs O(live
    /// clauses + watchers) — there is no full-slot rescan and no watcher
    /// rebuild-from-scratch.
    fn reduce_db(&mut self) {
        let mut refs: Vec<ClauseRef> = self.clauses.iter_learnt_refs().collect();
        refs.sort_by(|&a, &b| {
            self.clauses.lbd(b).cmp(&self.clauses.lbd(a)).then(
                self.clauses
                    .activity(a)
                    .partial_cmp(&self.clauses.activity(b))
                    .expect("no NaN"),
            )
        });
        let target = refs.len() / 2;
        let mut removed = 0usize;
        for &cref in refs.iter() {
            if removed >= target {
                break;
            }
            if self.clauses.lbd(cref) <= 2 {
                continue; // glue clauses are kept forever
            }
            if self.locked(cref) {
                continue;
            }
            self.clauses.free(cref);
            removed += 1;
        }
        self.stats.deleted_clauses += removed as u64;
        self.collect_garbage();
    }

    /// Mark-compact garbage collection of the clause arena: compacts the
    /// records, then rewrites every [`ClauseRef`] held outside the arena —
    /// watcher lists (dropping watchers of freed clauses) and trail
    /// reasons — through the relocation map. Clauses that are the reason
    /// of a current assignment are never freed (see
    /// [`reduce_db`](Self::reduce_db)), so live reasons always relocate.
    fn collect_garbage(&mut self) {
        if self.clauses.wasted() == 0 {
            return;
        }
        self.gc_now();
    }

    fn gc_now(&mut self) {
        let reloc = self.clauses.compact();
        for list in &mut self.watches {
            list.retain_mut(|w| match reloc.relocate(w.cref()) {
                Some(new) => {
                    *w = Watcher::new(new, w.blocker, w.is_binary());
                    true
                }
                None => false,
            });
        }
        for reason in &mut self.reason {
            if let Some(cref) = reason {
                *reason = reloc.relocate(*cref);
                debug_assert!(reason.is_some(), "a live reason clause must relocate");
            }
        }
        self.stats.arena_gcs += 1;
    }

    /// Forces a mark-compact garbage collection of the clause arena right
    /// now (it normally runs as part of learned-clause database
    /// reduction, and only when there is something to reclaim). A
    /// diagnostic/testing hook: relocation of watcher lists and trail
    /// reasons is exercised deterministically this way, even on an arena
    /// with nothing to reclaim.
    pub fn force_clause_gc(&mut self) {
        self.gc_now();
    }

    /// Between-query hygiene for long-lived incremental instances, called
    /// when the assumed constraint window moves (a new budget is probed):
    ///
    /// 1. **Activity renormalization.** Variable and clause activities
    ///    earned under the *previous* query's assumptions keep steering
    ///    VSIDS — and shielding residue clauses from reduction — deep
    ///    into the next query, where the window has moved. Both profiles
    ///    are rescaled to unit range and the increments reset, demoting
    ///    the old ordering to a weak prior: it still breaks ties, but a
    ///    few hundred conflicts of the new query rewrite it completely
    ///    (exactly like a fresh solver's warm-up, minus the re-encoding).
    /// 2. **Reduction to the floor.** Earlier probes' low-value learnt
    ///    clauses (high LBD, low activity) are deleted until the database
    ///    fits [`SolverConfig::min_learnts`] again — not just halved
    ///    once, which after a long probe still leaves tens of thousands
    ///    of stale clauses taxing every propagation. Glue and locked
    ///    clauses always survive, so the loop terminates when only the
    ///    provably valuable residue remains.
    ///
    /// Instances below [`SolverConfig::min_learnts`] are untouched, so
    /// short-lived solvers keep their exact single-query behavior.
    ///
    /// Must be called at decision level 0 (between
    /// [`solve`](Self::solve) calls).
    pub fn forget_stale_learnts(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if (self.clauses.num_learnt() as f64) < self.config.min_learnts {
            return;
        }
        let max = self.activity.iter().fold(0.0f64, |m, &a| m.max(a));
        if max > 0.0 {
            // A uniform rescale preserves the order heap's comparisons,
            // so no rebuild is needed.
            for a in &mut self.activity {
                *a /= max;
            }
        }
        self.var_inc = 1.0;
        let refs: Vec<ClauseRef> = self.clauses.iter_learnt_refs().collect();
        let cla_max = refs
            .iter()
            .fold(0.0f32, |m, &r| m.max(self.clauses.activity(r)));
        if cla_max > 0.0 {
            for &r in &refs {
                self.clauses.rescale_activity(r, 1.0 / cla_max);
            }
        }
        self.clause_inc = 1.0;
        loop {
            let before = self.clauses.num_learnt();
            if (before as f64) < self.config.min_learnts {
                break;
            }
            self.reduce_db();
            if self.clauses.num_learnt() >= before {
                break; // only glue/locked clauses left
            }
        }
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.value(var.positive()) == LBool::Undef {
                return Some(var);
            }
        }
        None
    }

    /// Solves the clause set without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Analyzes why literal `p` is forced, collecting the subset of
    /// assumption (decision-level) literals responsible. The result — the
    /// failed assumptions including `p` itself when `p` is an assumption —
    /// lands in [`unsat_core`](Self::unsat_core).
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(!p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let bottom = self.trail_lim[0];
        for idx in (bottom..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let vi = lit.var().index();
            if !self.seen[vi] {
                continue;
            }
            match self.reason[vi] {
                None => {
                    // A decision below the branching region is an assumption.
                    self.conflict_core.push(lit);
                }
                Some(cref) => {
                    // Every literal but the implied one, `lit` itself.
                    for &q in self.clauses.lits(cref) {
                        if q != lit && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[vi] = false;
        }
        self.seen[p.var().index()] = false;
        // `seen` may still be set for level-bottom literals never reached;
        // clear defensively.
        for idx in bottom..self.trail.len() {
            self.seen[self.trail[idx].var().index()] = false;
        }
    }

    /// After a [`SolveResult::Unsat`] from
    /// [`solve_with`](Self::solve_with), the subset of assumptions that
    /// participated in the refutation (an *unsat core* over the assumption
    /// set). Empty when the clause set is unsatisfiable on its own.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Solves the clause set under the given assumptions.
    ///
    /// Assumptions act like temporary unit clauses: the result is relative
    /// to them and the solver can be reused afterwards with different
    /// assumptions (incremental solving).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.stats.stop_reason = None;
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        // Pick up rivals' clauses learnt since the last query (cheap no-op
        // without a pool). May conclude level-0 unsatisfiability.
        self.import_shared_clauses();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.model.clear();
        self.max_learnts = (self.clauses.num_original() as f64 * self.config.learntsize_factor)
            .max(self.config.min_learnts);

        let budget_start = self.stats.conflicts;
        let mut restarts = 0u64;
        let result = loop {
            let budget = luby(2.0, restarts) * self.config.restart_base as f64;
            match self.search(budget as u64, assumptions, budget_start) {
                LBool::True => break SolveResult::Sat,
                LBool::False => break SolveResult::Unsat,
                LBool::Undef => {
                    if let Some(reason) = self.stop_reason_now(budget_start) {
                        self.stats.stop_reason = Some(reason);
                        break SolveResult::Unknown;
                    }
                    restarts += 1;
                    self.stats.restarts += 1;
                    // Restart boundary: the trail is back at level 0, the
                    // cheapest moment to install rivals' clauses.
                    self.import_shared_clauses();
                    if !self.ok {
                        break SolveResult::Unsat;
                    }
                }
            }
        };
        self.cancel_until(0);
        self.conflict_budget = None;
        result
    }

    /// The full stop check, run at budget-check sites (restart boundaries
    /// and every 64th conflict): the token's latched state and deadline,
    /// then the per-query conflict budget (reported as quota exhaustion).
    fn stop_reason_now(&self, budget_start: u64) -> Option<CancelReason> {
        if let Some(reason) = self.cancel.as_ref().and_then(|token| token.poll()) {
            return Some(reason);
        }
        if let Some(max_conflicts) = self.conflict_budget {
            if self.stats.conflicts - budget_start >= max_conflicts {
                return Some(CancelReason::QuotaExhausted);
            }
        }
        None
    }

    fn budget_exhausted(&self, budget_start: u64) -> bool {
        self.stop_reason_now(budget_start).is_some()
    }

    /// Searches for a model or a conflict at level 0, restarting after
    /// `conflicts_allowed` conflicts. Returns `Undef` on restart or budget
    /// exhaustion.
    fn search(&mut self, conflicts_allowed: u64, assumptions: &[Lit], budget_start: u64) -> LBool {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                // Fail point `solver.conflict` (disabled plans cost one
                // branch). Transient has no error channel this deep, so
                // it degrades to a spurious cancellation of the query
                // token.
                if self
                    .config
                    .faults
                    .trip(FaultSite::SolverConflict, self.cancel.as_ref())
                {
                    if let Some(token) = &self.cancel {
                        token.cancel();
                    }
                }
                // Conflicts are the work unit of session quotas and the
                // session watchdog's liveness count: charge the token
                // (and its quota-bearing ancestors) as they happen, so a
                // batch-level allowance is shared accurately across
                // concurrent workers.
                if let Some(token) = &self.cancel {
                    token.charge(1);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return LBool::False;
                }
                let (bt_level, lbd) = self.analyze(conflict);
                self.cancel_until(bt_level);
                let learnt = std::mem::take(&mut self.learnt);
                self.export_learnt(&learnt, lbd);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.clauses.alloc(&learnt, true);
                    self.clauses.set_lbd(cref, lbd);
                    self.bump_clause(cref);
                    self.attach(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.learnt = learnt;
                self.decay_activities();
            } else {
                if conflicts_here >= conflicts_allowed
                    || self.cancel_requested()
                    || (self.stats.conflicts.is_multiple_of(64)
                        && self.budget_exhausted(budget_start))
                {
                    self.cancel_until(0);
                    return LBool::Undef;
                }
                if self.clauses.num_learnt() as f64 >= self.max_learnts + self.trail.len() as f64 {
                    self.max_learnts *= LEARNTSIZE_INC;
                    self.reduce_db();
                }
                // Apply assumptions as pseudo-decisions, then branch.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        LBool::True => {
                            // Already satisfied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // Conflicts with current forced assignments:
                            // record which earlier assumptions forced ¬a.
                            self.analyze_final(!a);
                            return LBool::False;
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(lit) => lit,
                    None => match self.pick_branch_var() {
                        Some(var) => Lit::new(var, self.polarity[var.index()]),
                        None => {
                            // Complete assignment: record the model, one
                            // value per variable (its positive literal's).
                            self.model.extend(self.vals.iter().step_by(2));
                            return LBool::True;
                        }
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    /// Truth value of `lit` in the most recent model.
    ///
    /// Returns `None` if the last [`solve`](Self::solve) call did not return
    /// [`SolveResult::Sat`] or if the variable did not exist at that time.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        let v = self.model.get(lit.var().index())?;
        let v = if lit.is_positive() { *v } else { v.negate() };
        v.to_bool()
    }

    /// The most recent model as a vector of booleans indexed by variable,
    /// or `None` if no model is available.
    pub fn model(&self) -> Option<Vec<bool>> {
        if self.model.is_empty() {
            return None;
        }
        self.model
            .iter()
            .map(|v| v.to_bool())
            .collect::<Option<Vec<bool>>>()
    }
}

/// The Luby sequence value `luby(y, i) = y^k` used for restart scheduling.
fn luby(y: f64, mut x: u64) -> f64 {
    // Find the finite subsequence that contains index x, and the size of
    // that subsequence.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn lit(solver_vars: &[Var], dimacs: i32) -> Lit {
        let v = solver_vars[(dimacs.unsigned_abs() - 1) as usize];
        Lit::new(v, dimacs > 0)
    }

    fn add(solver: &mut Solver, vars: &[Var], clause: &[i32]) {
        solver.add_clause(clause.iter().map(|&d| lit(vars, d)));
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<f64> = (0..15).map(|i| luby(2.0, i)).collect();
        let expected = [
            1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 8.0,
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v.positive()), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([v.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let vars = s.new_vars(4);
        add(&mut s, &vars, &[1]);
        add(&mut s, &vars, &[-1, 2]);
        add(&mut s, &vars, &[-2, 3]);
        add(&mut s, &vars, &[-3, 4]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vars {
            assert_eq!(s.model_value(v.positive()), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let vars = s.new_vars(6);
        let p = |i: usize, j: usize| vars[i * 2 + j].positive();
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_is_sat_with_correct_parity() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 0 is satisfiable.
        let mut s = Solver::new();
        let vars = s.new_vars(3);
        // x1 ^ x2 = 1
        add(&mut s, &vars, &[1, 2]);
        add(&mut s, &vars, &[-1, -2]);
        // x2 ^ x3 = 1
        add(&mut s, &vars, &[2, 3]);
        add(&mut s, &vars, &[-2, -3]);
        // x1 ^ x3 = 0
        add(&mut s, &vars, &[1, -3]);
        add(&mut s, &vars, &[-1, 3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let x1 = s.model_value(vars[0].positive()).expect("model");
        let x2 = s.model_value(vars[1].positive()).expect("model");
        let x3 = s.model_value(vars[2].positive()).expect("model");
        assert!(x1 ^ x2);
        assert!(x2 ^ x3);
        assert!(!(x1 ^ x3));
    }

    #[test]
    fn xor_chain_with_odd_cycle_is_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let vars = s.new_vars(3);
        add(&mut s, &vars, &[1, 2]);
        add(&mut s, &vars, &[-1, -2]);
        add(&mut s, &vars, &[2, 3]);
        add(&mut s, &vars, &[-2, -3]);
        add(&mut s, &vars, &[1, 3]);
        add(&mut s, &vars, &[-1, -3]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.negative(), b.positive()]);
        assert_eq!(
            s.solve_with(&[a.positive(), b.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve_with(&[a.positive()]), SolveResult::Sat);
        assert_eq!(s.model_value(b.positive()), Some(true));
        // Solver remains reusable.
        assert_eq!(s.solve_with(&[b.negative()]), SolveResult::Sat);
        assert_eq!(s.model_value(a.positive()), Some(false));
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let v = s.new_var();
        let w = s.new_var();
        assert!(s.add_clause([v.positive(), v.negative(), w.positive()]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let v = s.new_var();
        let w = s.new_var();
        s.add_clause([v.positive(), v.positive(), w.positive()]);
        s.add_clause([v.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(w.positive()), Some(true));
    }

    #[test]
    fn conflict_budget_returns_unknown_on_hard_instance() {
        // A pigeonhole instance large enough that 1 conflict can't solve it.
        let n = 8; // 9 pigeons into 8 holes
        let mut s = Solver::new();
        let vars = s.new_vars((n + 1) * n);
        let p = |i: usize, j: usize| vars[i * n + j].positive();
        for i in 0..=n {
            s.add_clause((0..n).map(|j| p(i, j)));
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Without a budget the instance is eventually proven unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let vars = s.new_vars(3);
        add(&mut s, &vars, &[1, 2, 3]);
        add(&mut s, &vars, &[-1, -2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    #[test]
    fn unsat_core_names_failing_assumptions() {
        // x0 -> x1, x1 -> x2; assuming x0 and ¬x2 is unsat, and the core
        // must mention only those two assumptions, not the irrelevant x3.
        let mut s = Solver::new();
        let vars = s.new_vars(4);
        add(&mut s, &vars, &[-1, 2]);
        add(&mut s, &vars, &[-2, 3]);
        let a0 = vars[0].positive();
        let a2 = vars[2].negative();
        let a3 = vars[3].positive();
        assert_eq!(s.solve_with(&[a0, a3, a2]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a0) || core.contains(&a2), "core: {core:?}");
        assert!(!core.contains(&a3), "x3 is irrelevant: {core:?}");
        // Dropping the core assumption makes the query satisfiable.
        assert_eq!(s.solve_with(&[a3, a2]), SolveResult::Sat);
    }

    #[test]
    fn unsat_core_empty_when_formula_alone_is_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([v.negative()]);
        let w = s.new_var();
        assert_eq!(s.solve_with(&[w.positive()]), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    /// A configuration that reduces the learned-clause database (and thus
    /// garbage-collects the arena) as aggressively as possible.
    fn aggressive_gc_config() -> SolverConfig {
        SolverConfig {
            min_learnts: 8.0,
            learntsize_factor: 0.0,
            ..SolverConfig::default()
        }
    }

    /// An `n+1`-pigeons-into-`n`-holes instance: unsatisfiable, and
    /// exponentially hard for resolution-based solvers as `n` grows.
    fn pigeonhole_with(n: usize, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        let vars = s.new_vars((n + 1) * n);
        let p = |i: usize, j: usize| vars[i * n + j].positive();
        for i in 0..=n {
            s.add_clause((0..n).map(|j| p(i, j)));
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s
    }

    fn pigeonhole(n: usize) -> Solver {
        pigeonhole_with(n, SolverConfig::default())
    }

    /// The counters that pin a search: every decision, propagation,
    /// conflict, restart, deletion and collection must repeat exactly.
    fn search_counters(stats: SolverStats) -> [u64; 6] {
        [
            stats.decisions,
            stats.propagations,
            stats.conflicts,
            stats.restarts,
            stats.deleted_clauses,
            stats.arena_gcs,
        ]
    }

    #[test]
    fn pigeonhole_search_is_pinned_counter_for_counter() {
        // Exact counters, not bounds: a kernel change that alters the
        // search (watch order, literal order in analysis, LBD values)
        // shows here first.
        let mut s = pigeonhole(7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(search_counters(s.stats()), [4264, 42706, 3494, 17, 2371, 4]);
        let mut s = pigeonhole_with(7, aggressive_gc_config());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(
            search_counters(s.stats()),
            [12399, 142473, 10125, 44, 9088, 56]
        );
    }

    #[test]
    fn assumption_sequence_is_pinned_counter_for_counter() {
        // Random 3-SAT below the phase transition (100 variables, 380
        // clauses, xorshift-seeded), re-solved under a walk of five-literal
        // assumption sets: Sat answers, and Unsat answers whose cores
        // `analyze_final` builds.
        let mut state = 0x5EED_0003_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut s = Solver::new();
        let vars = s.new_vars(100);
        for _ in 0..380 {
            let clause: Vec<Lit> = (0..3)
                .map(|_| Lit::new(vars[(next() % 100) as usize], next() & 1 == 0))
                .collect();
            s.add_clause(clause);
        }
        let mut answers = Vec::new();
        for round in 0..12 {
            let assumptions: Vec<Lit> = (0..5)
                .map(|i| Lit::new(vars[(i * 7 + round) % 100], (round >> (i % 4)) & 1 == 0))
                .collect();
            let result = s.solve_with(&assumptions);
            let core: Vec<i32> = s.unsat_core().iter().map(|l| l.to_dimacs()).collect();
            answers.push((result, core));
        }
        use SolveResult::{Sat, Unsat};
        let expected = [
            (Unsat, vec![29, 22, 15, 8, 1]),
            (Unsat, vec![-30, 23, 16, 9, -2]),
            (Sat, vec![]),
            (Sat, vec![]),
            (Sat, vec![]),
            (Sat, vec![]),
            (Sat, vec![]),
            (Unsat, vec![-36, 29, -22, -15, -8]),
            (Unsat, vec![37, -30, 23, 16, 9]),
            (Sat, vec![]),
            (Sat, vec![]),
            (Sat, vec![]),
        ];
        assert_eq!(answers, expected);
        assert_eq!(search_counters(s.stats()), [847, 14889, 579, 1, 0, 0]);
    }

    #[test]
    fn aggressive_reduction_garbage_collects_the_arena_mid_search() {
        // A tiny learned-clause cap forces database reductions (each one a
        // mark-compact GC relocating watchers and in-flight trail reasons)
        // throughout the refutation — and the answer must not change.
        let mut s = pigeonhole_with(7, aggressive_gc_config());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().deleted_clauses > 0, "reductions must fire");
        assert!(
            s.stats().arena_gcs >= 1,
            "every freeing reduction compacts the arena"
        );
        // The default configuration agrees, with (far) fewer collections.
        let mut reference = pigeonhole(7);
        assert_eq!(reference.solve(), SolveResult::Unsat);
    }

    #[test]
    fn forced_gc_between_queries_preserves_watchers_and_answers() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1 — solve under alternating assumptions
        // with a forced arena compaction between every query; a stale
        // watcher or reason ref would derail propagation immediately.
        let mut s = Solver::new();
        let vars = s.new_vars(3);
        add(&mut s, &vars, &[1, 2]);
        add(&mut s, &vars, &[-1, -2]);
        add(&mut s, &vars, &[2, 3]);
        add(&mut s, &vars, &[-2, -3]);
        for round in 0..4 {
            s.force_clause_gc();
            let a = Lit::new(vars[0], round % 2 == 0);
            assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
            assert_eq!(s.model_value(a), Some(true));
            let x2 = s.model_value(vars[1].positive()).expect("model");
            assert_eq!(x2, round % 2 != 0, "x1 ^ x2 must hold");
        }
        // Clauses added after a compaction coexist with relocated ones.
        s.force_clause_gc();
        add(&mut s, &vars, &[-3]);
        assert_eq!(s.solve_with(&[vars[1].negative()]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn level0_reason_refs_survive_a_forced_gc() {
        // A unit clause propagates a chain at level 0, leaving reason refs
        // on the trail. The forced compaction must rewrite them (the
        // locked-clause check of the next reduction dereferences reasons).
        let mut s = Solver::with_config(aggressive_gc_config());
        let vars = s.new_vars(4);
        add(&mut s, &vars, &[1]);
        add(&mut s, &vars, &[-1, 2]);
        add(&mut s, &vars, &[-2, 3]);
        add(&mut s, &vars, &[-3, 4]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.force_clause_gc();
        // Still solvable, and the level-0 chain still forces everything.
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vars {
            assert_eq!(s.model_value(v.positive()), Some(true));
        }
        assert_eq!(s.solve_with(&[vars[3].negative()]), SolveResult::Unsat);
    }

    #[test]
    fn unsat_cores_are_correct_after_arena_gcs() {
        // Same contract as `unsat_core_names_failing_assumptions`, but on
        // a solver whose arena has been compacted (conflict analysis and
        // `analyze_final` read reason clauses through relocated refs).
        let mut s = Solver::with_config(aggressive_gc_config());
        let vars = s.new_vars(4);
        add(&mut s, &vars, &[-1, 2]);
        add(&mut s, &vars, &[-2, 3]);
        s.force_clause_gc();
        let a0 = vars[0].positive();
        let a2 = vars[2].negative();
        let a3 = vars[3].positive();
        assert_eq!(s.solve_with(&[a0, a3, a2]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a0) || core.contains(&a2), "core: {core:?}");
        assert!(!core.contains(&a3), "x3 is irrelevant: {core:?}");
    }

    #[test]
    fn pool_endpoint_survives_forced_gcs() {
        use crate::pool::SharedClausePool;
        // The deferred-import buffer and per-shard cursors live outside
        // the arena; compaction must not disturb them. Mirrors
        // `imports_beyond_own_variables_are_deferred_until_the_vars_exist`
        // with a forced GC at every stage.
        let pool = Arc::new(SharedClausePool::new());
        let publisher = pool.register();
        let mut s = Solver::new();
        s.attach_clause_pool(Arc::clone(&pool));
        let v0 = s.new_var();
        pool.publish(
            publisher,
            &[v0.positive(), Lit::new(Var::from_index(5), true)],
            2,
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().imported_clauses, 0, "deferred, not installed");
        s.force_clause_gc();
        s.new_vars(5);
        s.add_clause([v0.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().imported_clauses, 1, "installed once v5 exists");
        s.force_clause_gc();
        assert_eq!(
            s.model_value(Lit::new(Var::from_index(5), true)),
            Some(true)
        );
        // The cursor advanced past the consumed clause: a fresh import
        // pass after the GC must not re-install it.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().imported_clauses, 1);
    }

    #[test]
    fn cancelled_token_preempts_search() {
        let mut s = pigeonhole(10);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(Some(token));
        // The token already fired: the solver must give up without
        // searching (a full refutation of PHP(11, 10) would take far
        // longer than this test allows).
        let start = Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(s.stats().stop_reason, Some(CancelReason::Cancelled));
        // The token persists across calls, unlike the per-call budgets.
        assert_eq!(s.solve(), SolveResult::Unknown);
    }

    #[test]
    fn token_cancelled_mid_search_stops_promptly() {
        let mut s = pigeonhole(10);
        let token = CancelToken::new();
        s.set_cancel_token(Some(token.clone()));
        let setter = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(Duration::from_millis(30));
                token.cancel();
            }
        });
        let start = Instant::now();
        let result = s.solve();
        setter.join().expect("setter thread");
        assert_eq!(result, SolveResult::Unknown);
        assert_eq!(s.stats().stop_reason, Some(CancelReason::Cancelled));
        // Generous bound: the search polls the token at every decision, so
        // cancellation latency is microseconds, not seconds.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn removing_the_cancel_token_resumes_solving() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(Some(token));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_cancel_token(None);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().stop_reason, None, "decisive answers clear it");
    }

    #[test]
    fn parent_cancellation_reaches_a_child_installed_on_the_solver() {
        let session = CancelToken::new();
        let mut s = pigeonhole(10);
        s.set_cancel_token(Some(session.child_with_limits(None, None)));
        session.cancel();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stats().stop_reason, Some(CancelReason::Cancelled));
    }

    #[test]
    fn token_deadline_stops_search_with_deadline_reason() {
        let mut s = pigeonhole(10);
        let deadline = Instant::now() + Duration::from_millis(50);
        s.set_cancel_token(Some(CancelToken::with_limits(Some(deadline), None)));
        let start = Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stats().stop_reason, Some(CancelReason::Deadline));
        // Deadlines are polled every 64 conflicts: latency is bounded.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn token_quota_stops_search_with_quota_reason() {
        let mut s = pigeonhole(10);
        s.set_cancel_token(Some(CancelToken::with_limits(None, Some(100))));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stats().stop_reason, Some(CancelReason::QuotaExhausted));
        // Conflicts are charged one by one and checked at the next
        // decision, so the overshoot is at most a restart's worth.
        assert!(s.stats().conflicts >= 100);
    }

    #[test]
    fn pooled_clauses_flow_between_identical_solvers() {
        use crate::pool::SharedClausePool;
        // Two solvers over the *same* formula with identical numbering:
        // whatever `a` learns is sound for `b`. Run `a` first, then `b`
        // imports `a`'s clauses at the start of its own solve call.
        let pool = Arc::new(SharedClausePool::new());
        let mut a = pigeonhole(6);
        let mut b = pigeonhole(6);
        a.attach_clause_pool(Arc::clone(&pool));
        b.attach_clause_pool(Arc::clone(&pool));
        assert_eq!(a.solve(), SolveResult::Unsat);
        assert!(
            a.stats().exported_clauses > 0,
            "PHP(7,6) must learn at least one short clause"
        );
        assert_eq!(b.solve(), SolveResult::Unsat);
        assert!(
            b.stats().imported_clauses > 0,
            "b must install a's pooled clauses"
        );
        assert_eq!(pool.stats().workers, 2);
        assert!(pool.stats().published >= a.stats().exported_clauses);
    }

    #[test]
    fn diversification_knobs_change_heuristics_not_answers() {
        let mut plain = pigeonhole(6);
        let mut jittered = pigeonhole_with(
            6,
            SolverConfig {
                invert_polarity: true,
                activity_noise: 0.1,
                seed: 0xDECAF,
                restart_base: 73,
                ..SolverConfig::default()
            },
        );
        assert_eq!(plain.solve(), SolveResult::Unsat);
        assert_eq!(jittered.solve(), SolveResult::Unsat);
        // And on a satisfiable instance, inverted polarity branches
        // positive first: an unconstrained variable lands true.
        let mut s = Solver::with_config(SolverConfig {
            invert_polarity: true,
            ..SolverConfig::default()
        });
        let free = s.new_var();
        let anchor = s.new_var();
        s.add_clause([anchor.positive(), free.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(free.positive()), Some(true));
    }

    #[test]
    fn imports_beyond_own_variables_are_deferred_until_the_vars_exist() {
        use crate::pool::SharedClausePool;
        let pool = Arc::new(SharedClausePool::new());
        let publisher = pool.register();
        // A clause over variables 0 and 5 arrives before the importer has
        // created variable 5: it must wait, not crash or be dropped.
        let mut s = Solver::new();
        s.attach_clause_pool(Arc::clone(&pool));
        let v0 = s.new_var();
        pool.publish(
            publisher,
            &[v0.positive(), Lit::new(Var::from_index(5), true)],
            2,
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().imported_clauses, 0, "deferred, not installed");
        s.new_vars(5);
        s.add_clause([v0.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().imported_clauses, 1, "installed once v5 exists");
        // The imported clause is active: with v0 false it forces v5.
        assert_eq!(
            s.model_value(Lit::new(Var::from_index(5), true)),
            Some(true)
        );
    }

    #[test]
    fn model_none_after_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([v.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.model(), None);
    }
}
