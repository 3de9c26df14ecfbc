//! # revpebble-sat
//!
//! A self-contained CDCL SAT solver plus cardinality-constraint encodings,
//! built as the solving substrate for the `revpebble` reproduction of
//! *"Reversible Pebbling Game for Quantum Memory Management"* (Meuli et
//! al., DATE 2019). The paper uses Z3 as a black-box SAT oracle; this crate
//! provides an equivalent oracle implemented from scratch.
//!
//! ## Highlights
//!
//! - [`Solver`]: two-watched-literal propagation, first-UIP learning,
//!   VSIDS + phase saving, Luby restarts, clause-database reduction,
//!   incremental solving under assumptions, and cooperative cancellation
//!   with per-query deadlines and conflict quotas via [`CancelToken`]
//!   (needed for the paper's timeout-based pebble minimization).
//! - [`clause`](mod@clause): the flat clause arena underneath — one
//!   contiguous `u32`-word buffer with inline headers, reclaimed by a
//!   mark-compact garbage collector at reduction time, so the
//!   propagation hot path reads clauses through a single slice borrow.
//! - [`card`]: pairwise, sequential-counter and totalizer encodings of
//!   `Σ xᵢ ≤ k`, the building block of the paper's "at most `P` pebbles
//!   per step" constraint.
//! - [`pool`]: a lock-free [`SharedClausePool`] of per-worker broadcast
//!   rings (HordeSat-style) through which cooperative portfolio workers
//!   exchange short learnt clauses without ever blocking each other.
//! - [`dimacs`]: DIMACS CNF parsing and printing.
//! - [`reference`](mod@reference): an exponential DPLL oracle used to cross-validate the
//!   CDCL solver in tests.
//!
//! ## Example
//!
//! ```
//! use revpebble_sat::{card, Solver, SolveResult};
//! use revpebble_sat::card::CardEncoding;
//!
//! let mut solver = Solver::new();
//! let lits: Vec<_> = (0..5).map(|_| solver.new_var().positive()).collect();
//! // At most two of the five literals may be true …
//! card::at_most_k(&mut solver, &lits, 2, CardEncoding::SequentialCounter);
//! // … but we force three of them:
//! for lit in &lits[..3] {
//!     solver.add_clause([*lit]);
//! }
//! assert_eq!(solver.solve(), SolveResult::Unsat);
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod card;
pub mod clause;
pub mod dimacs;
pub mod faults;
mod heap;
pub mod pool;
pub mod reference;
pub mod solver;
pub mod types;

pub use cancel::{CancelReason, CancelToken};
pub use dimacs::{parse_dimacs, Cnf, ParseDimacsError};
pub use faults::{FaultKind, FaultPlan, FaultSite};
pub use pool::SharedClausePool;
pub use solver::{SolveResult, Solver, SolverConfig, SolverStats};
pub use types::{LBool, Lit, Var};
