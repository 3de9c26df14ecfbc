//! Loopback acceptance suite for the `revpebble-serve` daemon: many
//! concurrent clients multiplexed onto one small worker pool, result
//! caching across requests, quota enforcement over the wire, explicit
//! load shedding, and the failure-domain walls — a malformed frame, a
//! mid-solve disconnect and an injected handler panic must each stay
//! contained to their own request or connection.
//!
//! Every daemon here binds port 0 on loopback and is shut down (and its
//! accept thread joined) before the test returns; nothing may hang — CI
//! wraps the suite in a hard `timeout`.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use revpebble::graph::json::JsonValue;
use revpebble::graph::parse_json;
use revpebble::sat::{FaultKind, FaultPlan, FaultSite};
use revpebble_serve::{
    submit_frame, Client, Request, ServeConfig, ServeStats, Server, ServerHandle,
};

/// A daemon on an ephemeral loopback port with its accept loop on a
/// background thread.
struct TestServer {
    addr: std::net::SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<ServeStats>,
}

fn start(config: ServeConfig) -> TestServer {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    /// Graceful shutdown: drain, join the accept thread, return the
    /// final stats.
    fn finish(self) -> ServeStats {
        self.handle.shutdown();
        self.thread.join().expect("the accept loop must not panic")
    }
}

/// The suite's fast workload: a fixed-budget solve of the paper's
/// six-node example (milliseconds), so concurrency tests measure the
/// daemon, not the SAT solver.
fn fast_request(name: &str) -> Request {
    let mut request = Request::builtin(name, "paper");
    request.pebbles = Some(4);
    request
}

/// Polls `probe` until it returns true or `deadline` elapses.
fn wait_until(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn status_of(response: &str) -> String {
    parse_json(response)
        .expect("every response line is valid JSON")
        .get("status")
        .and_then(|s| s.as_str().map(str::to_owned))
        .expect("every response carries a status")
}

#[test]
fn eight_concurrent_clients_share_a_four_worker_pool() {
    let server = start(ServeConfig {
        workers: 4,
        connections: 16,
        max_pending: 64,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let clients: Vec<_> = (0..8)
        .map(|index| {
            std::thread::spawn(move || {
                let frame = fast_request(&format!("client-{index}")).to_json();
                submit_frame(addr, &frame, Duration::from_secs(120)).expect("a response line")
            })
        })
        .collect();
    for (index, client) in clients.into_iter().enumerate() {
        let response = client.join().expect("client thread");
        let value = parse_json(&response).expect("valid JSON");
        assert_eq!(
            value.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "client {index} got {response}"
        );
        assert_eq!(
            value.get("name").and_then(|s| s.as_str()),
            Some(format!("client-{index}").as_str())
        );
    }
    let stats = server.finish();
    assert_eq!(stats.ok, 8);
    assert_eq!(stats.requests, 8);
    // All eight asked the same (dag, configuration) question, so the
    // shared cache answered most of them without solving.
    assert_eq!(stats.cache_hits + stats.cache_misses, 8);
    assert!(stats.cache_misses >= 1);
}

#[test]
fn resubmitting_an_isomorphic_dag_hits_the_result_cache() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr).expect("connect");
    let first = client.send(&fast_request("first")).expect("response");
    assert_eq!(status_of(&first), "ok");
    let misses_after_first = server.handle.stats().cache_misses;
    let again = client.send(&fast_request("again")).expect("response");
    assert_eq!(status_of(&again), "ok");
    let stats = server.finish();
    assert!(
        stats.cache_hits >= 1,
        "the resubmit must be answered from the cache: {stats:?}"
    );
    assert_eq!(stats.cache_misses, misses_after_first);
    // The cached report is the same answer, not a degraded one.
    let report = parse_json(&again).unwrap();
    assert_eq!(
        report
            .get("report")
            .and_then(|r| r.get("minimum"))
            .and_then(|m| m.as_u64()),
        Some(4)
    );
}

#[test]
fn a_repeat_is_answered_while_the_only_worker_is_busy() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let ask = |name: &str| {
        submit_frame(
            server.addr,
            &fast_request(name).to_json(),
            Duration::from_secs(30),
        )
        .expect("a response line")
    };
    assert_eq!(status_of(&ask("solved")), "ok");
    // The holder takes the only pool thread: edwards has no 10-pebble
    // strategy within the steps its probe reaches before the timeout.
    let mut holder = Client::connect(server.addr).expect("connect");
    let mut hold = Request::builtin("holder", "edwards");
    hold.pebbles = Some(10);
    hold.timeout_ms = Some(120_000);
    holder.send_only(&hold.to_json()).expect("frame written");
    let handle = server.handle.clone();
    assert!(
        wait_until(Duration::from_secs(30), || handle.in_flight() >= 1),
        "the holder must be admitted"
    );
    // The repeat needs no pool thread, so it does not queue behind the
    // holder.
    let again = ask("again");
    assert_eq!(status_of(&again), "ok", "{again}");
    let report = parse_json(&again).expect("valid JSON");
    assert_eq!(
        report
            .get("report")
            .and_then(|r| r.get("cache_hits"))
            .and_then(|hits| hits.as_u64()),
        Some(1),
        "{again}"
    );
    assert_eq!(handle.in_flight(), 1, "the holder still runs");
    // Dropping the holder cancels its session.
    drop(holder);
    assert!(
        wait_until(Duration::from_secs(30), || handle.in_flight() == 0),
        "the holder's slot must be released"
    );
    let stats = server.finish();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
}

#[test]
fn a_cached_answer_is_never_served_to_a_different_dag() {
    // Three `BUF` leaves a, b, c and three `AND` outputs: "shared" has
    // AND(a,b) twice and AND(c,c) (minimum 4); "triangle" has AND(a,b),
    // AND(b,c) and AND(c,a) (minimum 5). A structural fingerprint cannot
    // tell them apart.
    let frame = |name: &str, pairs: [&str; 3]| {
        let nodes: Vec<String> = ["a", "b", "c"]
            .iter()
            .map(|leaf| format!(r#"{{"name":"{leaf}","op":"buf","fanins":["x"]}}"#))
            .chain(pairs.iter().enumerate().map(|(index, pair)| {
                let (left, right) = pair.split_at(1);
                format!(r#"{{"name":"o{index}","op":"and","fanins":["{left}","{right}"]}}"#)
            }))
            .collect();
        format!(
            r#"{{"name":"{name}","minimize":true,"max_steps":44,"dag":{{"inputs":["x"],"nodes":[{}],"outputs":["o0","o1","o2"]}}}}"#,
            nodes.join(",")
        )
    };
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr).expect("connect");
    let mut ask = |frame: String| {
        let response = client.send_raw(&frame).expect("a response line");
        let report = parse_json(&response)
            .expect("valid JSON")
            .get("report")
            .cloned()
            .unwrap_or_else(|| panic!("an ok response: {response}"));
        let count = |key: &str| report.get(key).and_then(JsonValue::as_u64);
        (count("minimum"), count("cache_hits"))
    };
    assert_eq!(ask(frame("shared", ["ab", "ab", "cc"])), (Some(4), Some(0)));
    assert_eq!(
        ask(frame("triangle", ["ab", "bc", "ca"])),
        (Some(5), Some(0))
    );
    assert_eq!(ask(frame("again", ["ab", "bc", "ca"])), (Some(5), Some(1)));
    server.finish();
}

#[test]
fn request_quotas_are_enforced_over_the_wire() {
    // Server-side default quota 50; the request's own quota may tighten
    // but never widen it.
    let server = start(ServeConfig {
        quota: Some(50),
        ..ServeConfig::default()
    });
    let mut request = Request::builtin("strangled", "b3_m4");
    request.minimize = true;
    request.quota = Some(1_000_000); // wider than the server's: clamped
    let mut client = Client::connect(server.addr).expect("connect");
    let response = client.send(&request).expect("response");
    let value = parse_json(&response).expect("valid JSON");
    assert_eq!(value.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(
        value
            .get("report")
            .and_then(|r| r.get("stop_reason"))
            .and_then(|s| s.as_str()),
        Some("quota"),
        "a 50-conflict quota cannot finish b3_m4: {response}"
    );
    server.finish();
}

#[test]
fn a_fixed_budget_request_stops_at_its_probe_timeout() {
    // `timeout_ms` bounds every budget probe, and a fixed budget is one
    // probe: edwards at 10 pebbles (many seconds of SAT work) answers
    // after the 200 ms probe bound, long before the request deadline.
    let server = start(ServeConfig::default());
    let response = submit_frame(
        server.addr,
        r#"{"dag":"edwards","pebbles":10,"timeout_ms":200,"deadline_ms":10000}"#,
        Duration::from_secs(30),
    )
    .expect("the request is answered");
    let value = parse_json(&response).expect("valid JSON");
    assert_eq!(
        value.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{response}"
    );
    let report = value
        .get("report")
        .expect("an ok response carries a report");
    for key in ["stop_reason", "minimum"] {
        assert_eq!(report.get(key), Some(&JsonValue::Null), "{key}: {response}");
    }
    server.finish();
}

#[test]
fn a_malformed_frame_answers_an_error_and_the_connection_survives() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr).expect("connect");

    let garbage = client.send_raw("this is not json").expect("response");
    let value = parse_json(&garbage).expect("even rejections are valid JSON");
    assert_eq!(value.get("status").and_then(|s| s.as_str()), Some("error"));
    assert_eq!(
        value.get("kind").and_then(|k| k.as_str()),
        Some("bad-request")
    );

    let unknown_field = client
        .send_raw(r#"{"dag":"paper","surprise":1}"#)
        .expect("response");
    assert_eq!(status_of(&unknown_field), "error");

    // A duplicate key would silently shadow its second occurrence, so
    // it is rejected like a typo.
    let duplicate_field = client
        .send_raw(r#"{"dag":"paper","dag":"c17"}"#)
        .expect("response");
    assert_eq!(status_of(&duplicate_field), "error");

    // A race wider than the session allows is refused before any ring,
    // solver or pool job is allocated for it.
    let too_wide = client
        .send_raw(r#"{"dag":"paper","portfolio":65}"#)
        .expect("response");
    let value = parse_json(&too_wide).expect("valid JSON");
    assert_eq!(status_of(&too_wide), "error");
    assert_eq!(value.get("kind").and_then(|k| k.as_str()), Some("session"));
    assert_eq!(
        value.get("code").and_then(|c| c.as_str()),
        Some("PortfolioTooLarge")
    );

    // Two nodes of weight 65,535 would ask a weighted minimize for about
    // 4.3 × 10⁹ counter clauses per time point; the frame is refused
    // before any of them exists.
    let too_heavy = client
        .send_raw(
            r#"{"dag":{"inputs":["x"],"nodes":[{"name":"a","op":"buf","fanins":["x"],"weight":65535},{"name":"b","op":"buf","fanins":["a"],"weight":65535}],"outputs":["b"]},"weighted":true}"#,
        )
        .expect("response");
    let value = parse_json(&too_heavy).expect("valid JSON");
    assert_eq!(status_of(&too_heavy), "error");
    assert_eq!(value.get("kind").and_then(|k| k.as_str()), Some("session"));
    assert_eq!(
        value.get("code").and_then(|c| c.as_str()),
        Some("EncodingTooLarge")
    );

    // Unweighted, an incremental minimize keeps a full counter per time
    // point too: a 2,100-node chain would ask for about 2.2 million
    // clauses per time point, and is refused the same way.
    let nodes: Vec<String> = (0..2100)
        .map(|i| {
            let fanin = if i == 0 {
                "x".to_owned()
            } else {
                format!("n{}", i - 1)
            };
            format!(r#"{{"name":"n{i}","op":"buf","fanins":["{fanin}"]}}"#)
        })
        .collect();
    let too_long = client
        .send_raw(&format!(
            r#"{{"dag":{{"inputs":["x"],"nodes":[{}],"outputs":["n2099"]}},"minimize":true}}"#,
            nodes.join(",")
        ))
        .expect("response");
    let value = parse_json(&too_long).expect("valid JSON");
    assert_eq!(status_of(&too_long), "error");
    assert_eq!(
        value.get("code").and_then(|c| c.as_str()),
        Some("EncodingTooLarge")
    );

    // Same connection, next frame: served normally.
    let ok = client
        .send(&fast_request("after-garbage"))
        .expect("response");
    assert_eq!(status_of(&ok), "ok");

    let stats = server.finish();
    assert_eq!(stats.errors, 6);
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.connections, 1);
}

#[test]
fn a_newline_free_flood_is_capped_not_buffered() {
    use std::io::Write as _;

    // A hostile client streams bytes continuously without ever sending
    // a newline. The frame cap must trip on the accumulated bytes even
    // though data keeps arriving (no read ever times out), instead of
    // buffering the stream without bound.
    let server = start(ServeConfig {
        max_frame_bytes: 4096,
        ..ServeConfig::default()
    });
    let mut flood = std::net::TcpStream::connect(server.addr).expect("connect");
    let chunk = [b'x'; 1024];
    for _ in 0..256 {
        // Once the server bails it closes the socket; later writes
        // failing with EPIPE/ECONNRESET is the expected outcome.
        if flood.write_all(&chunk).is_err() {
            break;
        }
    }
    let handle = server.handle.clone();
    assert!(
        wait_until(Duration::from_secs(30), || handle.stats().errors >= 1),
        "the oversized frame must be rejected while the client is still streaming"
    );

    // The daemon survives and serves the next client normally.
    let response = submit_frame(
        server.addr,
        &fast_request("after-flood").to_json(),
        Duration::from_secs(120),
    )
    .expect("a response line");
    assert_eq!(status_of(&response), "ok");

    let stats = server.finish();
    assert!(stats.errors >= 1);
    assert_eq!(stats.ok, 1);
}

#[test]
fn a_disconnect_mid_solve_cancels_the_session() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    {
        let mut client = Client::connect(server.addr).expect("connect");
        // A solve that cannot finish quickly: minimize a 59-node SLP
        // with a generous per-query timeout and no quota.
        let mut slow = Request::builtin("abandoned", "b3_m4");
        slow.minimize = true;
        slow.timeout_ms = Some(120_000);
        client.send_only(&slow.to_json()).expect("frame written");
        let handle = server.handle.clone();
        assert!(
            wait_until(Duration::from_secs(30), || handle.in_flight() >= 1),
            "the slow request must be admitted"
        );
        // Dropping the client closes the socket mid-solve.
    }
    let handle = server.handle.clone();
    assert!(
        wait_until(Duration::from_secs(30), || {
            handle.stats().cancelled_disconnects >= 1
        }),
        "the disconnect must cancel the in-flight session: {:?}",
        server.handle.stats()
    );
    assert!(
        wait_until(Duration::from_secs(30), || handle.in_flight() == 0),
        "the cancelled session must release its admission slot"
    );
    let stats = server.finish();
    assert_eq!(stats.cancelled_disconnects, 1);
    assert_eq!(stats.ok, 0);
}

#[test]
fn load_beyond_max_pending_is_shed_with_an_overloaded_response() {
    let server = start(ServeConfig {
        workers: 1,
        connections: 8,
        max_pending: 1,
        ..ServeConfig::default()
    });
    // Occupy the single admission slot with a slow solve.
    let mut blocker = Client::connect(server.addr).expect("connect");
    let mut slow = Request::builtin("blocker", "b3_m4");
    slow.minimize = true;
    slow.timeout_ms = Some(120_000);
    blocker.send_only(&slow.to_json()).expect("frame written");
    let handle = server.handle.clone();
    assert!(
        wait_until(Duration::from_secs(30), || handle.in_flight() >= 1),
        "the blocker must be admitted"
    );

    // The next request finds the daemon full and is shed explicitly.
    let response = submit_frame(
        server.addr,
        &fast_request("shed").to_json(),
        Duration::from_secs(30),
    )
    .expect("a response line");
    assert_eq!(status_of(&response), "overloaded");

    // The disconnect cancels the slow session and frees its slot; the
    // next request is admitted again.
    drop(blocker);
    assert!(
        wait_until(Duration::from_secs(30), || handle.in_flight() == 0),
        "the blocker's slot must be released"
    );
    let response = submit_frame(
        server.addr,
        &fast_request("after-shed").to_json(),
        Duration::from_secs(30),
    )
    .expect("a response line");
    assert_eq!(status_of(&response), "ok");

    let stats = server.finish();
    assert!(stats.overloaded >= 1);
    assert_eq!(stats.ok, 1);
}

#[test]
fn connections_beyond_the_hand_off_are_shed_at_the_door() {
    // One handler and a one-slot hand-off: A owns the handler, B waits
    // in the hand-off, and C finds it full.
    let server = start(ServeConfig {
        connections: 1,
        ..ServeConfig::default()
    });
    let mut a = Client::connect(server.addr).expect("connect A");
    assert_eq!(status_of(&a.send(&fast_request("a")).expect("A")), "ok");
    let mut b = Client::connect(server.addr).expect("connect B");
    let c = TcpStream::connect(server.addr).expect("connect C");
    let mut line = String::new();
    BufReader::new(c)
        .read_line(&mut line)
        .expect("C reads the shed line");
    let value = parse_json(&line).expect("valid JSON");
    assert_eq!(status_of(&line), "overloaded");
    assert_eq!(
        value.get("name").and_then(|n| n.as_str()),
        Some("connection")
    );
    assert_eq!(server.handle.stats().overloaded, 1);

    // A leaves, so the handler takes B from the hand-off.
    drop(a);
    assert_eq!(status_of(&b.send(&fast_request("b")).expect("B")), "ok");
    drop(b);
    let stats = server.finish();
    assert_eq!(stats.overloaded, 1);
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.connections, 2);
}

#[test]
fn submit_frame_waits_once_and_names_how_it_ended() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    // The peer reads each frame before it acts: closing a socket with
    // unread data resets it, which the client would see as a reset
    // rather than an end of stream.
    let peer = std::thread::spawn(move || {
        let read_frame = |stream: TcpStream| {
            let mut reader = BufReader::new(stream);
            let mut frame = String::new();
            reader.read_line(&mut frame).expect("a frame");
            reader
        };
        let (silent, _) = listener.accept().expect("accept the silent call");
        let silent = read_frame(silent);
        let (closing, _) = listener.accept().expect("accept the closing call");
        drop(read_frame(closing));
        silent
    });
    let frame = fast_request("nobody-answers").to_json();

    let started = Instant::now();
    let silent = submit_frame(addr, &frame, Duration::from_millis(300)).expect_err("no answer");
    assert_eq!(silent.kind(), ErrorKind::TimedOut, "{silent}");
    assert!(
        started.elapsed() < Duration::from_millis(1500),
        "{:?}",
        started.elapsed()
    );

    let closed = submit_frame(addr, &frame, Duration::from_secs(30)).expect_err("closed");
    assert_eq!(closed.kind(), ErrorKind::UnexpectedEof, "{closed}");
    drop(peer.join().expect("the peer thread"));

    // A zero wait cannot be a socket timeout; it times out at once.
    let idle = TcpListener::bind("127.0.0.1:0").expect("bind");
    let zero = submit_frame(idle.local_addr().expect("address"), &frame, Duration::ZERO)
        .expect_err("a zero wait");
    assert_eq!(zero.kind(), ErrorKind::TimedOut, "{zero}");
}

#[test]
fn an_injected_request_panic_is_quarantined() {
    // Seed 0: the very first visit to `serve.request` panics; every
    // later request passes the fail point untouched.
    let server = start(ServeConfig {
        faults: FaultPlan::inject(FaultSite::ServeRequest, FaultKind::Panic, 0),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr).expect("connect");

    let poisoned = client.send(&fast_request("poisoned")).expect("response");
    let value = parse_json(&poisoned).expect("valid JSON");
    assert_eq!(value.get("status").and_then(|s| s.as_str()), Some("error"));
    assert_eq!(value.get("kind").and_then(|k| k.as_str()), Some("panic"));
    assert_eq!(
        value.get("name").and_then(|n| n.as_str()),
        Some("poisoned"),
        "the panic response still names the request"
    );

    // Same connection, same daemon: the next request is served.
    let healed = client.send(&fast_request("healed")).expect("response");
    assert_eq!(status_of(&healed), "ok");

    let stats = server.finish();
    assert_eq!(stats.contained_panics, 1);
    assert_eq!(stats.ok, 1);
}

#[test]
fn hostile_request_names_round_trip_through_the_wire() {
    let server = start(ServeConfig::default());
    let name = "job \"7\"\twith\\escapes\nand\u{1}controls";
    let response = submit_frame(
        server.addr,
        &fast_request(name).to_json(),
        Duration::from_secs(120),
    )
    .expect("a response line");
    let value = parse_json(&response).expect("valid JSON despite the hostile name");
    assert_eq!(value.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(value.get("name").and_then(|n| n.as_str()), Some(name));
    server.finish();
}

#[test]
fn a_session_job_that_dies_unreported_is_answered_not_wedged() {
    // Seed 0: the first session job panics at `exec.job` before it can
    // report. Every wait below is bounded, so a wedged daemon fails the
    // test instead of hanging it.
    let server = start(ServeConfig {
        workers: 2,
        connections: 2,
        faults: FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, 0),
        ..ServeConfig::default()
    });

    let dead = submit_frame(
        server.addr,
        &fast_request("dead").to_json(),
        Duration::from_secs(10),
    )
    .expect("the dead job's request is answered");
    let value = parse_json(&dead).expect("valid JSON");
    assert_eq!(value.get("status").and_then(|s| s.as_str()), Some("ok"));
    let report = value
        .get("report")
        .expect("an ok response carries a report");
    assert_eq!(
        report.get("stop_reason").and_then(|s| s.as_str()),
        Some("worker-panicked"),
        "{dead}"
    );

    let handle = server.handle.clone();
    assert!(
        wait_until(Duration::from_secs(10), || handle.in_flight() == 0),
        "the dead job's admission slot must be freed"
    );

    let next = submit_frame(
        server.addr,
        &fast_request("next").to_json(),
        Duration::from_secs(10),
    )
    .expect("the next request is served");
    assert_eq!(status_of(&next), "ok");
    assert!(next.contains("\"minimum\":4"), "{next}");

    server.handle.shutdown();
    assert!(
        wait_until(Duration::from_secs(10), || server.thread.is_finished()),
        "graceful shutdown must return"
    );
    let stats = server
        .thread
        .join()
        .expect("the accept loop must not panic");
    assert_eq!(stats.ok, 2);
}
