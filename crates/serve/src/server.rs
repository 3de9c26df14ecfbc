//! The daemon: a `std::net` listener, a bounded pool of
//! connection-handler threads, and one shared
//! [`SessionRuntime`] everything multiplexes onto.
//!
//! ## Threads
//!
//! - the caller's thread runs the blocking accept loop ([`Server::run`]);
//! - `connections` handler threads each own one client connection at a
//!   time (accepted sockets are handed over a bounded channel; overflow
//!   is shed at the door with an `"overloaded"` response);
//! - the runtime's `Executor` owns the solver worker pool.
//!
//! ## Cancellation tree
//!
//! ```text
//! runtime root ── connection token ── request token (deadline) ── session quota child
//! ```
//!
//! [`ServerHandle::shutdown`] only stops *accepting*; in-flight
//! sessions drain. A client disconnect cancels at the request token, a
//! quota/deadline trips at the leaves, and nothing can outlive the
//! root.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use revpebble_core::session::{PebblingSession, SessionRuntime, StopReason};
use revpebble_sat::faults::{FaultPlan, FaultSite};
use revpebble_sat::CancelToken;

use crate::protocol::{
    error_response, ok_response, overloaded_response, session_error_response, DagSpec, Request,
};

/// How often blocked reads and in-solve polls wake up to check for
/// shutdown, disconnects and finished reports.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long [`ServerHandle::shutdown`] waits for its wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Everything the daemon needs to bind: address, pool sizes, limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:7979"` (port 0 picks a free
    /// one — loopback tests use that).
    pub addr: String,
    /// Solver worker-pool threads shared by every session.
    pub workers: usize,
    /// Connection-handler threads — the most clients served
    /// concurrently (more may be briefly queued at the door).
    pub connections: usize,
    /// Admitted-session bound: requests beyond this many in flight are
    /// answered `"overloaded"` instead of queueing unboundedly.
    pub max_pending: usize,
    /// Default per-request SAT-conflict quota (a request's own `quota`
    /// field may tighten but never widen it).
    pub quota: Option<u64>,
    /// Hard cap on one frame line, so a hostile client cannot buffer
    /// without bound.
    pub max_frame_bytes: usize,
    /// Fail-point plan for the chaos suite (`serve.accept`,
    /// `serve.request` and every deeper site).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7979".into(),
            workers: 4,
            connections: 16,
            max_pending: 64,
            quota: None,
            max_frame_bytes: 1 << 20,
            faults: FaultPlan::none(),
        }
    }
}

/// Why the daemon could not come up.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Io(std::io::Error),
    /// The configuration is invalid (zero workers, zero connections).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "cannot bind: {err}"),
            ServeError::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

/// A monotonically growing snapshot of what the daemon has done, from
/// [`ServerHandle::stats`] (live) or [`Server::run`] (final).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeStats {
    /// Connections handed to a handler thread.
    pub connections: u64,
    /// Request frames read (including rejected ones).
    pub requests: u64,
    /// Requests answered `"status":"ok"`.
    pub ok: u64,
    /// Requests answered `"status":"error"` (bad frame, session error,
    /// quarantined panic).
    pub errors: u64,
    /// Requests shed with `"status":"overloaded"`.
    pub overloaded: u64,
    /// Sessions cancelled because their client disconnected mid-solve.
    pub cancelled_disconnects: u64,
    /// Panics quarantined without killing the daemon (per-request and
    /// per-connection).
    pub contained_panics: u64,
    /// Result-cache hits across all sessions.
    pub cache_hits: u64,
    /// Result-cache misses across all sessions.
    pub cache_misses: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    cancelled_disconnects: AtomicU64,
    contained_panics: AtomicU64,
}

struct ServerState {
    shutdown: AtomicBool,
    /// Where [`ServerHandle::shutdown`] connects to wake the blocking
    /// accept: the bound port on loopback (or on the bound address when
    /// it names one interface).
    wake_addr: SocketAddr,
    runtime: SessionRuntime,
    faults: FaultPlan,
    max_frame_bytes: usize,
    counters: Counters,
    /// Requests admitted and not yet answered (spawn through join).
    in_flight: AtomicUsize,
    /// Admission bound: [`admit`](Self::admit) sheds beyond it.
    max_pending: usize,
}

/// One admission slot; dropping it frees the slot.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Claims an admission slot, or `None` when `max_pending` requests
    /// are already in flight. The compare-exchange loop retries on
    /// contention, so no request is shed while a slot is free.
    fn admit(&self) -> Option<Admitted<'_>> {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
                (current < self.max_pending).then_some(current + 1)
            })
            .ok()
            .map(|_| Admitted(&self.in_flight))
    }

    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            connections: c.connections.load(Ordering::SeqCst),
            requests: c.requests.load(Ordering::SeqCst),
            ok: c.ok.load(Ordering::SeqCst),
            errors: c.errors.load(Ordering::SeqCst),
            overloaded: c.overloaded.load(Ordering::SeqCst),
            cancelled_disconnects: c.cancelled_disconnects.load(Ordering::SeqCst),
            contained_panics: c.contained_panics.load(Ordering::SeqCst),
            cache_hits: self.runtime.cache().hits(),
            cache_misses: self.runtime.cache().misses(),
        }
    }
}

/// A cloneable remote control for a running [`Server`]: request
/// graceful shutdown, observe stats.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Asks the daemon to shut down gracefully: stop accepting, let
    /// connections finish their current request, drain in-flight
    /// sessions, then return from [`Server::run`].
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept; it sees the flag before serving the
        // connection. Once the daemon has stopped, the connect fails.
        let _ = TcpStream::connect_timeout(&self.state.wake_addr, WAKE_TIMEOUT);
    }

    /// A live stats snapshot.
    pub fn stats(&self) -> ServeStats {
        self.state.stats()
    }

    /// Sessions currently admitted (for load observation).
    pub fn in_flight(&self) -> usize {
        self.state.in_flight.load(Ordering::SeqCst)
    }
}

/// The bound daemon. [`run`](Self::run) serves until a
/// [`ServerHandle::shutdown`] request, then drains and returns.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    connections: usize,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and builds the shared runtime. No thread is
    /// spawned yet; call [`run`](Self::run).
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        if config.connections == 0 {
            return Err(ServeError::Config(
                "at least one connection handler is required".into(),
            ));
        }
        let mut runtime = SessionRuntime::new(config.workers)
            .map_err(|err| ServeError::Config(err.to_string()))?;
        if let Some(quota) = config.quota {
            runtime = runtime.per_session_quota(quota);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let wake_ip = match local_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        Ok(Server {
            listener,
            local_addr,
            connections: config.connections,
            state: Arc::new(ServerState {
                shutdown: AtomicBool::new(false),
                wake_addr: SocketAddr::new(wake_ip, local_addr.port()),
                runtime,
                faults: config.faults,
                max_frame_bytes: config.max_frame_bytes,
                counters: Counters::default(),
                in_flight: AtomicUsize::new(0),
                max_pending: config.max_pending,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A remote control for this daemon.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested, then drains in-flight work,
    /// joins every handler thread and returns the final stats.
    pub fn run(self) -> ServeStats {
        // A bounded hand-off: accepted sockets briefly queue here (at
        // most one per handler) until a handler picks them up. When the
        // queue is full every handler is saturated with a backlog, so
        // the door sheds instead of buffering without bound.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(self.connections);
        let conn_rx = Arc::new(std::sync::Mutex::new(conn_rx));
        let handlers: Vec<_> = (0..self.connections)
            .map(|index| {
                let state = Arc::clone(&self.state);
                let conn_rx = Arc::clone(&conn_rx);
                thread::Builder::new()
                    .name(format!("serve-conn-{index}"))
                    .spawn(move || loop {
                        let Ok(stream) = conn_rx.lock().expect("receiver lock").recv() else {
                            break; // channel closed: shutdown
                        };
                        state.counters.connections.fetch_add(1, Ordering::SeqCst);
                        // Quarantine: a panicking connection handler
                        // must not take the daemon (or this thread's
                        // capacity) down with it.
                        if catch_unwind(AssertUnwindSafe(|| handle_connection(&state, stream)))
                            .is_err()
                        {
                            state
                                .counters
                                .contained_panics
                                .fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .expect("spawn connection handler")
            })
            .collect();

        // A blocking accept: `ServerHandle::shutdown` wakes it with a
        // connection of its own, which is dropped unserved.
        while !self.state.shutting_down() {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // Back off so a persistent failure (e.g. out of file
                // descriptors) cannot spin.
                Err(_) => {
                    thread::sleep(POLL_INTERVAL);
                    continue;
                }
            };
            if self.state.shutting_down() {
                break;
            }
            if let Err(
                mpsc::TrySendError::Full(mut stream) | mpsc::TrySendError::Disconnected(mut stream),
            ) = conn_tx.try_send(stream)
            {
                // Every handler is saturated: shed at the door.
                self.state
                    .counters
                    .overloaded
                    .fetch_add(1, Ordering::SeqCst);
                let _ = stream.write_all(overloaded_response("connection").as_bytes());
                let _ = stream.write_all(b"\n");
            }
        }

        drop(conn_tx);
        for handler in handlers {
            let _ = handler.join();
        }
        self.state.stats()
    }
}

/// What [`read_frame`] produced.
enum Frame {
    /// One complete `\n`-terminated frame line.
    Line(String),
    /// The client exceeded `max_frame_bytes` before finishing the frame
    /// — a buffering attack. The stream cannot be resynchronized (the
    /// frame boundary is unknown), so answer an error and close.
    Oversized,
    /// Close silently: EOF, a non-UTF-8 frame, an I/O error, or an idle
    /// connection during shutdown.
    Gone,
}

/// Reads one `\n`-terminated frame, polling the shutdown flag while the
/// connection is idle. The `max_frame_bytes` cap is enforced on the
/// bytes accumulated so far on *every* buffered chunk — not just when a
/// read times out — so a client streaming newline-free data
/// continuously cannot grow the buffer without bound.
fn read_frame(reader: &mut BufReader<TcpStream>, state: &ServerState) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.fill_buf() {
            Ok([]) => return Frame::Gone, // EOF
            Ok(chunk) => {
                let (take, complete) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => (pos + 1, true),
                    None => (chunk.len(), false),
                };
                if buf.len() + take > state.max_frame_bytes {
                    reader.consume(take);
                    return Frame::Oversized;
                }
                buf.extend_from_slice(&chunk[..take]);
                reader.consume(take);
                if complete {
                    return match String::from_utf8(buf) {
                        Ok(line) => Frame::Line(line),
                        Err(_) => Frame::Gone,
                    };
                }
            }
            Err(err)
                if matches!(
                    err.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                // Idle connections during shutdown just close.
                if state.shutting_down() && buf.is_empty() {
                    return Frame::Gone;
                }
            }
            Err(_) => return Frame::Gone,
        }
    }
}

fn write_response(stream: &mut TcpStream, response: &str) -> bool {
    stream
        .write_all(response.as_bytes())
        .and_then(|_| stream.write_all(b"\n"))
        .and_then(|_| stream.flush())
        .is_ok()
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // Fail point `serve.accept`: a transient fault drops the connection
    // on the floor (the client sees a reset), a panic exercises the
    // per-connection quarantine in the handler loop above.
    if state.faults.trip(FaultSite::ServeAccept, None) {
        return;
    }
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // Every request on this connection descends from one token, so a
    // disconnect (or a poisoned handler) can cancel whatever the
    // connection still has in flight with one shot.
    let connection_token = state.runtime.root().child();

    loop {
        let line = match read_frame(&mut reader, state) {
            Frame::Line(line) => line,
            Frame::Oversized => {
                state.counters.requests.fetch_add(1, Ordering::SeqCst);
                state.counters.errors.fetch_add(1, Ordering::SeqCst);
                write_response(
                    &mut writer,
                    &error_response("session", "bad-request", "frame exceeds the size limit"),
                );
                break;
            }
            Frame::Gone => break,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        state.counters.requests.fetch_add(1, Ordering::SeqCst);
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(err) => {
                state.counters.errors.fetch_add(1, Ordering::SeqCst);
                if !write_response(
                    &mut writer,
                    &error_response("session", "bad-request", &err.to_string()),
                ) {
                    break;
                }
                continue;
            }
        };
        let name = request.name.clone();
        // Quarantine: one poisoned request (e.g. the `serve.request`
        // panic fail point) answers an error and the connection lives.
        match catch_unwind(AssertUnwindSafe(|| {
            handle_request(state, &connection_token, request, &mut writer)
        })) {
            Ok(RequestOutcome::Answered(response)) => {
                if !write_response(&mut writer, &response) {
                    break;
                }
            }
            Ok(RequestOutcome::ClientGone) => break,
            Err(payload) => {
                state
                    .counters
                    .contained_panics
                    .fetch_add(1, Ordering::SeqCst);
                state.counters.errors.fetch_add(1, Ordering::SeqCst);
                let message = panic_message(payload.as_ref());
                if !write_response(&mut writer, &error_response(&name, "panic", &message)) {
                    break;
                }
            }
        }
    }
    // Whatever this connection still owns — nothing, normally — dies
    // with it.
    connection_token.cancel();
}

enum RequestOutcome {
    /// Write this response line.
    Answered(String),
    /// The client disconnected; there is nobody to answer.
    ClientGone,
}

fn handle_request(
    state: &Arc<ServerState>,
    connection_token: &CancelToken,
    request: Request,
    stream: &mut TcpStream,
) -> RequestOutcome {
    // Fail point `serve.request`: panics unwind into the quarantine in
    // `handle_connection`; a transient fault sheds the request.
    if state
        .faults
        .trip(FaultSite::ServeRequest, Some(connection_token))
    {
        state.counters.errors.fetch_add(1, Ordering::SeqCst);
        return RequestOutcome::Answered(error_response(
            &request.name,
            "session",
            "injected transient fault at serve.request",
        ));
    }

    // Backpressure: beyond `max_pending` admitted sessions the daemon
    // sheds load explicitly instead of queueing unboundedly. The guard
    // spans spawn-to-join, so "admitted" means "the pool owes an
    // answer".
    let Some(_admitted) = state.admit() else {
        state.counters.overloaded.fetch_add(1, Ordering::SeqCst);
        return RequestOutcome::Answered(overloaded_response(&request.name));
    };

    // An inline DAG moves out of the request; only a builtin is built.
    let dag = match request.dag {
        DagSpec::Inline(dag) => dag,
        builtin => builtin.resolve(),
    };
    let deadline = request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    // The request token rides the connection's token: client quotas and
    // deadlines are just limits on this child, and a connection-level
    // cancel reaches every request.
    let request_token = connection_token.child_with_limits(deadline, None);

    let mut session = PebblingSession::new(&dag)
        // Base options first — `weighted`/`max_steps` below write into
        // them. This threads the server's fault plan down to the solver
        // sites, so a chaos run exercises the whole stack over the wire.
        .solver_options(revpebble_core::SolverOptions {
            sat: revpebble_sat::SolverConfig {
                faults: state.faults,
                ..Default::default()
            },
            ..Default::default()
        })
        .per_query_timeout(Duration::from_millis(request.timeout_ms.unwrap_or(10_000)));
    if let Some(pebbles) = request.pebbles {
        session = session.pebbles(pebbles);
    }
    // An omitted budget asks the serving workload's natural question:
    // minimize.
    if request.minimize || request.pebbles.is_none() {
        session = session.minimize();
    }
    if let Some(portfolio) = request.portfolio {
        session = session.portfolio(portfolio);
    }
    if request.share_clauses {
        session = session.share_clauses();
    }
    if request.diversify {
        session = session.diversify();
    }
    if let Some(incremental) = request.incremental {
        session = session.incremental(incremental);
    }
    if request.weighted {
        session = session.weighted(true);
    }
    if let Some(max_steps) = request.max_steps {
        session = session.max_steps(max_steps);
    }
    // The runtime applies the server's default quota on spawn; a
    // request's own quota can only tighten it.
    if let Some(quota) = request.quota {
        session = session.quota(quota);
    }

    // `spawn` runs `plan()` first: a bad configuration comes back as a
    // typed SessionError without touching the pool.
    let mut handle = match state.runtime.spawn(session, request_token) {
        Ok(handle) => handle,
        Err(err) => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            return RequestOutcome::Answered(session_error_response(&request.name, &err));
        }
    };

    // Wait for the report, watching the socket: a half-closed peer
    // (peek reads 0) means the client is gone, so cancel the session
    // and free its slot instead of solving for nobody.
    let mut client_gone = false;
    let mut peek_buf = [0u8; 1];
    loop {
        if handle.try_report().is_some() {
            break;
        }
        if !client_gone {
            match stream.peek(&mut peek_buf) {
                Ok(0) => {
                    client_gone = true;
                    handle.cancel();
                }
                Ok(_) => {
                    // Pipelined data is waiting; the client is alive.
                    thread::sleep(POLL_INTERVAL);
                }
                Err(err)
                    if matches!(
                        err.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    // peek honors the read timeout: this arm is the
                    // steady-state "no news" tick.
                }
                Err(_) => {
                    client_gone = true;
                    handle.cancel();
                }
            }
        } else {
            thread::sleep(POLL_INTERVAL);
        }
    }
    // join() returns the ready report immediately (and owns watchdog
    // detach if a worker wedges during drain).
    let report = handle.join();

    if client_gone {
        if report.stop_reason == Some(StopReason::Cancelled) {
            state
                .counters
                .cancelled_disconnects
                .fetch_add(1, Ordering::SeqCst);
        }
        return RequestOutcome::ClientGone;
    }
    state.counters.ok.fetch_add(1, Ordering::SeqCst);
    RequestOutcome::Answered(ok_response(&request.name, &report))
}

/// Best-effort panic payload rendering (the common `&str` / `String`
/// payloads; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "request handler panicked".to_owned()
    }
}
