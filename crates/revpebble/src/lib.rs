//! # revpebble
//!
//! **Reversible pebbling game for quantum memory management** — a
//! self-contained Rust reproduction of Meuli, Soeken, Roetteler, Bjørner
//! and De Micheli, DATE 2019 (arXiv:1904.02121).
//!
//! Quantum circuits may not discard intermediate values: every ancilla
//! must be *uncomputed* back to |0⟩ before the circuit ends, or garbage
//! entangles with the result. Scheduling when to compute and uncompute
//! each intermediate value under a qubit budget is exactly the
//! **reversible pebbling game** on the computation's dependency DAG. This
//! crate family solves the game with a SAT solver, exposing the
//! qubit/gate-count trade-off to the designer.
//!
//! This facade crate re-exports the whole public API:
//!
//! - [`sat`]: CDCL SAT solver + cardinality encodings (`revpebble-sat`);
//! - [`graph`]: DAGs, `.bench` netlists, straight-line programs,
//!   generators (`revpebble-graph`);
//! - [`core`]: the game, the SAT encoding, baselines, search loops and
//!   the [`PebblingSession`](core::PebblingSession) front door
//!   (`revpebble-core`);
//! - [`circuit`]: strategy → reversible-circuit compilation, simulation
//!   and Barenco decompositions (`revpebble-circuit`).
//!
//! ## Quick start: one front door
//!
//! Every engine — fixed-budget solving, budget minimization, racing
//! portfolios, cooperative clause-sharing portfolios, the trade-off
//! frontier — is reached through one builder,
//! [`PebblingSession`](core::PebblingSession):
//!
//! ```
//! use revpebble::prelude::*;
//!
//! // The paper's running example (Fig. 2): six operations, two outputs.
//! let dag = revpebble::graph::generators::paper_example();
//!
//! // Bennett's strategy needs one pebble (qubit) per node …
//! let naive = bennett(&dag);
//! assert_eq!(naive.max_pebbles(&dag), 6);
//!
//! // … the SAT solver fits the computation into 4 pebbles.
//! let report = PebblingSession::new(&dag).pebbles(4).run().expect("valid");
//! let tight = report.into_strategy().expect("solvable");
//! tight.validate(&dag, Some(4)).expect("independent checker agrees");
//!
//! // And the compiled circuit provably restores every ancilla.
//! let compiled = compile(&dag, &tight).expect("compiles");
//! assert!(matches!(verify(&dag, &compiled), VerifyOutcome::Correct { .. }));
//! ```
//!
//! Invalid configurations never reach a solver: the builder validates at
//! plan time and returns a typed [`SessionError`](core::SessionError):
//!
//! ```
//! use revpebble::prelude::*;
//!
//! let dag = revpebble::graph::generators::paper_example();
//! // Clause sharing needs a minimize portfolio to share within.
//! let err = PebblingSession::new(&dag)
//!     .minimize()
//!     .share_clauses()
//!     .run()
//!     .expect_err("rejected at plan time");
//! assert_eq!(err, SessionError::ShareClausesWithoutPortfolio);
//! ```
//!
//! ## Finding the smallest budget, cooperatively
//!
//! A minimize session races portfolio workers over budget schedules;
//! with [`share_clauses`](core::PebblingSession::share_clauses) they
//! exchange short learnt clauses through a
//! [`SharedClausePool`](sat::SharedClausePool) and pool certified
//! refutations — including budget-independent ones derived from unsat
//! cores — on one [`SharedSearchState`](core::SharedSearchState)
//! blackboard. Progress streams out as
//! [`ProbeEvent`](core::ProbeEvent)s:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use std::time::Duration;
//! use revpebble::prelude::*;
//!
//! let dag = revpebble::graph::generators::paper_example();
//! // The observer is `Send + 'static` (sessions can run on a shared
//! // worker pool), so collect events through an Arc.
//! let trace = Arc::new(Mutex::new(Vec::new()));
//! let sink = Arc::clone(&trace);
//! let report = PebblingSession::new(&dag)
//!     .minimize()
//!     .portfolio(2)
//!     .share_clauses()
//!     .max_steps(60)
//!     .per_query_timeout(Duration::from_secs(30))
//!     .on_event(move |event| sink.lock().unwrap().push(event))
//!     .run()
//!     .expect("valid");
//! assert_eq!(report.minimum, Some(4));
//! // The exhausted budget-3 probe certifies the floor: 4 is optimal.
//! assert!(report.floor <= 4);
//! // The terminal event arrives exactly once, after every worker.
//! assert!(matches!(
//!     trace.lock().unwrap().last(),
//!     Some(ProbeEvent::BudgetCertified { minimum: Some(4) })
//! ));
//! ```
//!
//! ## Serving many sessions
//!
//! Sessions are first-class jobs: a [`SessionRuntime`](core::SessionRuntime)
//! is one worker pool, an optional per-session conflict quota and a
//! shared [`ResultCache`](core::ResultCache) keyed by canonical DAG
//! fingerprint, so repeated instances skip the solver. Its
//! [`spawn`](core::SessionRuntime::spawn) hands a session to the pool
//! and returns a [`SessionHandle`](core::SessionHandle) to poll, cancel
//! or join; serve a whole workload by spawning every session and joining
//! the handles in submit order:
//!
//! ```
//! use revpebble::prelude::*;
//!
//! let dag = revpebble::graph::generators::paper_example();
//! let runtime = SessionRuntime::new(2)
//!     .expect("workers")
//!     .per_session_quota(5_000_000);
//! let handles: Vec<SessionHandle> = (0..2)
//!     .map(|_| {
//!         runtime
//!             .spawn(PebblingSession::new(&dag).pebbles(4), runtime.root().child())
//!             .expect("valid")
//!     })
//!     .collect();
//! for handle in handles {
//!     assert_eq!(handle.join().minimum, Some(4));
//! }
//! ```

#![deny(missing_docs)]

pub use revpebble_circuit as circuit;
pub use revpebble_core as core;
pub use revpebble_graph as graph;
pub use revpebble_sat as sat;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::circuit::{compile, verify, Circuit, CompiledCircuit, VerifyOutcome};
    pub use crate::core::baselines::{bennett, cone_wise};
    pub use crate::core::{
        BudgetSchedule, CancelReason, CancelToken, CardEncoding, EncodingOptions, Engine, Executor,
        FaultKind, FaultPlan, FaultSite, MinimizeResult, Move, MoveMode, PebbleOutcome,
        PebbleSolver, PebblingSession, PortfolioOutcome, ProbeEvent, ProbeVerdict, Report,
        ResultCache, RetryPolicy, SessionError, SessionHandle, SessionOutcome, SessionRuntime,
        SharedClausePool, SharedSearchState, SolverOptions, StopReason, Strategy,
    };
    pub use crate::graph::{parse_bench, Dag, NodeId, Op, Slp, Source};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let dag = crate::graph::generators::paper_example();
        assert_eq!(dag.num_nodes(), 6);
        let strategy = crate::core::baselines::bennett(&dag);
        assert!(strategy.validate(&dag, None).is_ok());
    }

    #[test]
    fn session_front_door_is_reachable_through_the_prelude() {
        use crate::prelude::*;
        let dag = crate::graph::generators::paper_example();
        let report = PebblingSession::new(&dag).pebbles(4).run().expect("valid");
        assert_eq!(report.engine, Engine::Single);
        assert_eq!(report.minimum, Some(4));
    }
}
