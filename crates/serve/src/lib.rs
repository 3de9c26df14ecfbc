//! # revpebble-serve
//!
//! Pebbling-as-a-service: a dependency-free TCP daemon that serves the
//! reversible pebbling solver of Meuli et al. (DATE 2019) to many
//! remote callers over one shared worker pool.
//!
//! The serving shape mirrors how parallel SAT services front a solver
//! pool (cf. HordeSat, Balyo/Sanders/Sinz SAT'15): clients speak a
//! newline-delimited JSON protocol, every request becomes one
//! [`PebblingSession`](revpebble_core::session::PebblingSession)
//! multiplexed onto a process-wide
//! [`SessionRuntime`](revpebble_core::session::SessionRuntime) —
//! one thread pool, one structure-keyed `ResultCache`, one
//! cancellation tree — and the answer comes back as the session's
//! `Report::to_json()`.
//!
//! No async runtime and no serialization crate: the listener is plain
//! `std::net` driven by a bounded pool of connection-handler threads,
//! and frames are parsed with `revpebble_graph::json`.
//!
//! ## Failure domains
//!
//! - a malformed frame poisons only that request: the client gets a
//!   typed error response and the connection keeps serving;
//! - a panicking request handler is quarantined by `catch_unwind`
//!   per request; a panicking connection handler is quarantined per
//!   connection; the daemon keeps accepting either way;
//! - a client that disconnects mid-solve fires its connection's
//!   [`CancelToken`](revpebble_sat::CancelToken) child, so the session
//!   stops (`stop_reason = "cancelled"`) and its pool slot frees;
//! - load beyond `--max-pending` admitted sessions is shed with an
//!   explicit `"overloaded"` response instead of queueing unboundedly;
//! - server shutdown (SIGTERM in the CLI, [`ServerHandle::shutdown`]
//!   in process) stops accepting, drains in-flight sessions and joins
//!   every thread before [`Server::run`] returns.
//!
//! ## Quickstart
//!
//! ```no_run
//! use revpebble_serve::{Client, ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".into(); // pick a free port
//! let server = Server::bind(config).expect("bind");
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let daemon = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).expect("connect");
//! let response = client
//!     .send_raw(r#"{"name":"demo","dag":"paper","minimize":true}"#)
//!     .expect("round trip");
//! assert!(response.contains("\"status\":\"ok\""));
//!
//! handle.shutdown();
//! let stats = daemon.join().expect("clean shutdown");
//! assert_eq!(stats.ok, 1);
//! ```

#![warn(missing_docs)]
// Error values are built only on the path that returns them.
#![warn(clippy::or_fun_call)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{submit_frame, Client};
pub use protocol::{DagSpec, Request, RequestError};
pub use server::{ServeConfig, ServeError, ServeStats, Server, ServerHandle};
