//! # revpebble-core
//!
//! SAT-based reversible pebbling for quantum memory management — the core
//! of the `revpebble` reproduction of Meuli, Soeken, Roetteler, Bjørner
//! and De Micheli, *"Reversible Pebbling Game for Quantum Memory
//! Management"*, DATE 2019 (arXiv:1904.02121).
//!
//! Quantum circuits must *uncompute* every intermediate value before they
//! finish; choosing when to compute and uncompute under a qubit budget is
//! exactly the reversible pebbling game on the dependency DAG. This crate
//! provides:
//!
//! - the game itself: [`PebbleConfig`], [`Move`], [`Strategy`] with an
//!   independent validity checker;
//! - baselines: [`baselines::bennett`] and [`baselines::cone_wise`];
//! - the paper's SAT encoding ([`encoding::PebbleEncoding`]) with
//!   sequential and parallel move semantics, several cardinality
//!   encodings, and a weighted-node extension;
//! - the search loops ([`PebbleSolver`] and the budget minimization
//!   behind [`PebblingSession::minimize`]) including the timeout
//!   methodology of the paper's Table I — budget minimization runs
//!   *incrementally*: one assumption-bounded encoding and solver instance
//!   serves every `(steps, pebbles)` probe
//!   ([`PebbleSolver::resolve_with_budget`]); a fixed budget `p` runs on
//!   the same engine as the one-point window `[p, p]`;
//! - multi-threaded [`portfolio`] races over several solver
//!   configurations with first-winner-takes-all cancellation, and over
//!   whole budget schedules with optional clause sharing;
//! - **the one front door**: [`session::PebblingSession`], a builder that
//!   reaches every engine above — it is the only way to run one —
//!   validates its configuration into a
//!   typed [`session::SessionError`] before running, streams
//!   [`session::ProbeEvent`]s while solving, and unifies every result
//!   into one [`session::Report`].
//!
//! ## Example: the paper's running example (Fig. 2 / Fig. 4)
//!
//! ```
//! use revpebble_core::{baselines, PebblingSession};
//! use revpebble_graph::generators::paper_example;
//!
//! let dag = paper_example();
//! // Bennett: 6 pebbles, 10 steps.
//! let bennett = baselines::bennett(&dag);
//! assert_eq!(bennett.max_pebbles(&dag), 6);
//! assert_eq!(bennett.num_steps(), 10);
//! // The SAT solver fits the same computation into 4 pebbles.
//! let report = PebblingSession::new(&dag).pebbles(4).run().expect("valid");
//! let strategy = report.into_strategy().expect("solvable");
//! strategy.validate(&dag, Some(4)).expect("the checker agrees");
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod bounds;
pub mod cache;
pub mod config;
pub mod encoding;
pub mod exact;
mod exec;
pub mod frontier;
pub mod optimize;
pub mod portfolio;
pub mod session;
pub mod sharing;
pub mod solver;
pub mod strategy;

pub use cache::ResultCache;
pub use config::PebbleConfig;
pub use encoding::{BoundMode, EncodingOptions, MoveMode, PebbleEncoding};
pub use exact::{exact_min_pebbles, solve_exact, ExactOutcome};
pub use frontier::FrontierPoint;
pub use portfolio::{
    default_minimize_portfolio, default_portfolio, diversify_minimize_portfolio, MinimizeConfig,
};
pub use session::{
    Engine, PebblingSession, ProbeEvent, Report, SessionError, SessionHandle, SessionOutcome,
    SessionPlan, SessionRuntime, StopReason, WorkerSummary,
};
pub use sharing::SharedSearchState;
pub use solver::{
    BudgetSchedule, MinimizeResult, PebbleOutcome, PebbleSolver, ProbeVerdict, RetryPolicy,
    SearchStats, SolverOptions, StepSchedule,
};
pub use strategy::{InvalidStrategy, Move, Step, Strategy};

pub use revpebble_sat::card::CardEncoding;
pub use revpebble_sat::faults;
pub use revpebble_sat::pool::SharedClausePool;
pub use revpebble_sat::{CancelReason, CancelToken, FaultKind, FaultPlan, FaultSite};
