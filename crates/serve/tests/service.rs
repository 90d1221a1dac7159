//! End-to-end service contracts: content-addressed caching,
//! single-flight, thread-count determinism, backpressure, timeout,
//! drain, the NDJSON socket round-trip, and the observability plane
//! (access log, flight recorder, metric-name completeness, admin
//! protocol over the wire).

use aurora_core::{
    metric_names as names, AcceleratorConfig, AuroraSimulator, SimError, SimRequest, Telemetry,
};
use aurora_model::{LayerShape, ModelId};
use aurora_serve::{
    answer, serve, serve_with, Client, Endpoint, MemoryLog, ServeConfig, ServeError, ServerOptions,
    SimService,
};
use rayon::pool::ThreadPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_request(seed: u64) -> SimRequest {
    SimRequest::builder(ModelId::Gcn)
        .config(AcceleratorConfig::small(4))
        .rmat(128, 800, seed)
        .layer(LayerShape::new(32, 16))
        .workload("svc")
        .build()
        .expect("valid request")
}

fn service(config: ServeConfig) -> (SimService, Telemetry) {
    let telemetry = Telemetry::enabled();
    (SimService::new(config, telemetry.clone()), telemetry)
}

#[test]
fn digest_equal_requests_hit_the_cache() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let req = small_request(1);
    let first = svc.handle(&req).expect("first request runs");
    assert!(!first.cached, "first sight must miss");
    let second = svc.handle(&req).expect("second request hits");
    assert!(second.cached, "digest-equal request must hit");
    // the cached answer is the *same* report, not a re-run
    assert!(Arc::ptr_eq(&first.report, &second.report));

    let m = svc.metrics();
    assert_eq!(m.counter_total(names::SERVE_REQUESTS), 2);
    assert_eq!(m.counter_total(names::SERVE_CACHE_MISSES), 1);
    assert!(m.counter_total(names::SERVE_CACHE_HITS) >= 1);
    assert!(
        m.histogram_at(names::SERVE_LATENCY_US, &aurora_core::Scope::ROOT)
            .is_some(),
        "latency histogram observed"
    );
}

#[test]
fn reports_are_identical_across_thread_counts() {
    // workers = 0 executes on the calling thread, so the installed pool
    // is the one the engine's par_iter fan-out actually uses.
    let req = small_request(2);
    let run_at = |threads: usize| {
        let (svc, _tel) = service(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        ThreadPool::new(threads).install(|| {
            serde_json::to_string(&*svc.handle(&req).expect("runs").report).expect("serialise")
        })
    };
    let seq = run_at(1);
    let par = run_at(4);
    assert_eq!(seq, par, "reports diverged across thread counts");
}

#[test]
fn concurrent_identical_requests_simulate_once() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let svc = Arc::new(svc);
    // a slightly larger graph so followers actually overlap the run
    let req = SimRequest::builder(ModelId::Gcn)
        .config(AcceleratorConfig::small(4))
        .rmat(2_000, 16_000, 5)
        .layer(LayerShape::new(64, 32))
        .workload("single-flight")
        .build()
        .unwrap();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let req = req.clone();
            std::thread::spawn(move || svc.handle(&req).expect("request succeeds"))
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = &outcomes[0].report;
    for o in &outcomes {
        assert!(Arc::ptr_eq(first, &o.report), "all callers share one run");
    }
    let m = svc.metrics();
    assert_eq!(
        m.counter_total(names::SERVE_CACHE_MISSES),
        1,
        "exactly one engine run for 8 identical concurrent requests"
    );
    assert_eq!(m.counter_total(names::SERVE_CACHE_HITS), 7);
}

#[test]
fn full_queue_rejects_with_overloaded_instead_of_blocking() {
    // queue depth 0: every fresh digest is over budget immediately
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let err = svc.handle(&small_request(3)).unwrap_err();
    assert!(
        matches!(err, ServeError::Overloaded { capacity: 0, .. }),
        "got {err:?}"
    );
    let m = svc.metrics();
    assert_eq!(m.counter_total(names::SERVE_REJECT_OVERLOADED), 1);
    // the digest is leadable again: a retry after rejection is not
    // poisoned (it just gets rejected again while the cap is 0)
    assert!(matches!(
        svc.handle(&small_request(3)).unwrap_err(),
        ServeError::Overloaded { .. }
    ));
}

#[test]
fn saturating_flood_terminates_with_ok_or_overloaded() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        queue_depth: 2,
        timeout_ms: 60_000,
        ..ServeConfig::default()
    });
    let svc = Arc::new(svc);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.handle(&small_request(10 + i)))
        })
        .collect();
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for h in handles {
        match h.join().unwrap() {
            Ok(_) => ok += 1,
            Err(ServeError::Overloaded { .. }) => overloaded += 1,
            Err(other) => panic!("unexpected error under load: {other:?}"),
        }
    }
    assert_eq!(ok + overloaded, 8, "every request got a definite answer");
    assert!(ok >= 1, "the queue must still make progress");
}

#[test]
fn timed_out_request_still_warms_the_cache() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        timeout_ms: 0,
        ..ServeConfig::default()
    });
    // Occupy the single worker first, so the probe below is still queued
    // behind this run when its zero budget expires. (Alone, a small
    // request can finish before the caller's first deadline check and
    // answer `Ok`.) The blocker's own answer does not matter.
    let blocker = SimRequest::builder(ModelId::Gcn)
        .config(AcceleratorConfig::small(4))
        .rmat(8_192, 80_000, 99)
        .layer(LayerShape::new(64, 32))
        .workload("svc-blocker")
        .build()
        .expect("valid request");
    let _ = svc.handle(&blocker);
    // the blocker's own call may have counted a timeout; the probe's must
    // add exactly one more
    let timeouts_before = svc.metrics().counter_total(names::SERVE_TIMEOUTS);
    let req = small_request(4);
    let err = svc.handle(&req).unwrap_err();
    assert!(matches!(err, ServeError::Timeout { ms: 0 }), "got {err:?}");
    assert_eq!(
        svc.metrics().counter_total(names::SERVE_TIMEOUTS),
        timeouts_before + 1,
        "the probe's timeout is counted"
    );
    // the abandoned job completes in the background (after the blocker)
    // and lands in the cache; a zero-budget caller is then served
    // instantly from it
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        match svc.handle(&req) {
            Ok(outcome) => {
                assert!(outcome.cached, "warmed by the abandoned run");
                break;
            }
            Err(ServeError::Timeout { .. }) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "abandoned job never landed in the cache"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
}

#[test]
fn drain_rejects_new_work_and_joins_workers() {
    let (svc, _tel) = service(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let req = small_request(6);
    svc.handle(&req).expect("pre-drain request runs");
    svc.drain();
    assert_eq!(svc.handle(&req).unwrap_err(), ServeError::ShuttingDown);
    svc.drain(); // idempotent
}

#[test]
fn invalid_requests_are_typed_errors() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let invalid = SimRequest {
        layers: vec![],
        ..small_request(7)
    };
    assert_eq!(
        svc.handle(&invalid).unwrap_err(),
        ServeError::Sim(SimError::EmptyLayers)
    );
    assert_eq!(svc.metrics().counter_total(names::SERVE_ERRORS), 1);
    // rejected before taking leadership: the engine never ran
    assert_eq!(svc.metrics().counter_total(names::SERVE_CACHE_MISSES), 0);
}

/// Synthetic graph specs too large to build (vertex ids past `u32`, an
/// R-MAT draw count that overflows) are typed `InvalidRequest` errors,
/// rejected before any synthesis starts.
#[test]
fn oversized_graph_specs_are_invalid_request_lines() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let sim_json = serde_json::to_string(&small_request(23)).unwrap();
    let spec = r#"{"Rmat":{"vertices":128,"edges":800,"seed":23}}"#;
    assert!(sim_json.contains(spec));
    for bad in [
        r#"{"Rmat":{"vertices":4294967296,"edges":800,"seed":23}}"#,
        r#"{"Ring":{"vertices":4294967296}}"#,
        r#"{"Rmat":{"vertices":128,"edges":18446744073709551615,"seed":23}}"#,
    ] {
        let line = format!(r#"{{"id":5,"sim":{}}}"#, sim_json.replace(spec, bad));
        let req: aurora_serve::ServeRequest = serde_json::from_str(&line).unwrap();
        let (result, record) = svc.handle_traced(&req.sim);
        assert!(
            matches!(result, Err(ServeError::Sim(SimError::InvalidRequest(_)))),
            "{bad}: {result:?}"
        );
        assert_eq!(record.outcome, "error", "{bad}");
        let wire = respond_line(&svc, &line).error.expect("typed error");
        assert_eq!(wire.kind, "sim", "{bad}");
    }
    assert_eq!(svc.metrics().counter_total(names::SERVE_ERRORS), 6);
    assert_eq!(svc.metrics().counter_total(names::SERVE_CACHE_MISSES), 0);
}

#[test]
fn protocol_answers_malformed_lines_without_dropping() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let garbled = respond_line(&svc, "{this is not json");
    assert_eq!(garbled.error.as_ref().unwrap().kind, "bad_request");
    assert_eq!(garbled.id, 0);
    // a readable id in an otherwise bad envelope is echoed back
    let half = respond_line(&svc, "{\"id\": 9, \"sim\": 5}");
    assert_eq!(half.id, 9);
    assert_eq!(half.error.as_ref().unwrap().kind, "bad_request");
    // and a well-formed line still works on the same service
    let line = serde_json::to_string(&aurora_serve::ServeRequest {
        id: 11,
        version: aurora_core::WIRE_VERSION,
        sim: small_request(8),
    })
    .unwrap();
    let ok = respond_line(&svc, &line);
    assert_eq!(ok.id, 11);
    assert!(ok.is_ok(), "error: {:?}", ok.error);
    assert_eq!(ok.digest, small_request(8).digest());
}

#[test]
fn unix_socket_round_trip_serves_and_caches() {
    let sock = std::env::temp_dir().join(format!("aurora-serve-test-{}.sock", std::process::id()));
    let (svc, _tel) = service(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let svc = Arc::new(svc);
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let svc = Arc::clone(&svc);
        let shutdown = Arc::clone(&shutdown);
        let endpoint = Endpoint::Unix(sock.clone());
        std::thread::spawn(move || serve(svc, &endpoint, shutdown))
    };
    // wait for the socket to appear
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");
    let req = small_request(9);
    let first = client.request(&req).expect("first response");
    assert!(first.is_ok(), "error: {:?}", first.error);
    assert!(!first.cached);
    assert_eq!(first.digest, req.digest());
    let second = client.request(&req).expect("second response");
    assert!(second.cached, "repeat over the wire must hit the cache");
    assert_eq!(second.report, first.report, "cached report is identical");

    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("server exits cleanly");
    assert!(!sock.exists(), "socket file removed on shutdown");
}

/// Every metric constant in `names::SERVE_ALL` must appear in the
/// snapshot after one hit, one miss, one error, one timeout, and one
/// reject — a new `serve.*` name that nothing records fails here.
#[test]
fn every_serve_metric_name_is_recorded() {
    let telemetry = Telemetry::enabled();
    let normal = SimService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let req = small_request(20);
    normal.handle(&req).expect("miss runs");
    normal.handle(&req).expect("hit runs");
    let invalid = SimRequest {
        layers: vec![],
        ..small_request(21)
    };
    assert!(normal.handle(&invalid).is_err(), "invalid request errors");

    let impatient = SimService::new(
        ServeConfig {
            workers: 1,
            timeout_ms: 0,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    assert!(matches!(
        impatient.handle(&small_request(22)).unwrap_err(),
        ServeError::Timeout { .. }
    ));

    let choked = SimService::new(
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    assert!(matches!(
        choked.handle(&small_request(23)).unwrap_err(),
        ServeError::Overloaded { .. }
    ));

    let snap = telemetry.snapshot();
    for name in names::SERVE_ALL {
        assert!(
            snap.contains_name(name),
            "metric `{name}` was never recorded by hit/miss/error/timeout/reject traffic"
        );
    }
}

/// The transport writes exactly one access-log line per simulation
/// request — including parse failures — and none for admin traffic.
#[test]
fn access_log_gets_one_line_per_request() {
    let log = Arc::new(MemoryLog::default());
    let svc = SimService::with_access_log(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Telemetry::enabled(),
        Arc::clone(&log) as Arc<dyn aurora_serve::EventLog>,
    );
    let line = serde_json::to_string(&aurora_serve::ServeRequest {
        id: 1,
        version: aurora_core::WIRE_VERSION,
        sim: small_request(30),
    })
    .unwrap();
    let miss = answer(&svc, &line);
    let hit = answer(&svc, &line);
    answer(&svc, "{\"id\": 2, \"admin\": \"health\"}"); // never logged
    answer(&svc, "{broken json"); // logged as an error

    let lines = log.lines();
    assert_eq!(lines.len(), 3, "2 sim + 1 parse failure, admin excluded");
    let records: Vec<serde_json::Value> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("access line parses"))
        .collect();
    let outcome = |i: usize| records[i].get("outcome").and_then(|v| v.as_str()).unwrap();
    assert_eq!(outcome(0), "miss");
    assert_eq!(outcome(1), "hit");
    assert_eq!(outcome(2), "error");
    // monotonic sequence, real digests, and transport-measured sizes
    let seq = |i: usize| records[i].get("seq").and_then(|v| v.as_u64()).unwrap();
    assert!(seq(0) < seq(1) && seq(1) < seq(2), "seq must be monotonic");
    for (record, sent) in records.iter().zip([&miss, &hit]) {
        assert_eq!(
            record.get("digest").and_then(|v| v.as_str()),
            Some(small_request(30).digest().as_str())
        );
        assert_eq!(
            record.get("bytes_out").and_then(|v| v.as_u64()),
            Some(sent.len() as u64 + 1),
            "bytes_out counts the response line plus its newline"
        );
        for key in ["queue_wait_us", "execute_us", "latency_us"] {
            assert!(record.get(key).is_some(), "missing timing field `{key}`");
        }
    }
    assert!(
        records[2].get("error").and_then(|v| v.as_str()).is_some(),
        "parse failures carry the error message"
    );
}

/// With `slow_ms: 0` every request trips the flight recorder; executed
/// requests carry a bound-attribution profile, failures carry errors.
#[test]
fn flight_recorder_retains_slow_and_error_requests() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        slow_ms: 0,
        flight_capacity: 8,
        ..ServeConfig::default()
    });
    svc.handle(&small_request(40)).expect("miss runs");
    svc.handle(&small_request(40)).expect("hit runs");
    let invalid = SimRequest {
        layers: vec![],
        ..small_request(41)
    };
    assert!(svc.handle(&invalid).is_err());

    let flights = svc.flights();
    assert_eq!(flights.len(), 3, "slow_ms 0 records every request");
    assert_eq!(flights[0].outcome, "miss");
    let profile = flights[0]
        .profile
        .as_ref()
        .expect("executed request carries its bound attribution");
    assert!(profile.total_cycles > 0);
    assert!(
        ["compute", "noc", "dram", "imbalance"].contains(&profile.dominant.as_str()),
        "unexpected dominant bound `{}`",
        profile.dominant
    );
    assert_eq!(flights[1].outcome, "hit");
    assert!(
        flights[1].profile.is_some(),
        "hits replay the cached report's profile"
    );
    assert_eq!(flights[2].outcome, "error");
    assert!(flights[2].error.is_some(), "failures carry the message");
    assert!(flights[2].profile.is_none(), "no report, no profile");
    // each record preserves the request JSON for replay
    assert!(flights[0].request.get("model").is_some());
}

/// The drain grace window keeps open connections answering after
/// SIGTERM so pollers observe health flip from `ok` to `draining`.
#[test]
fn admin_health_flips_to_draining_over_the_wire() {
    let sock = std::env::temp_dir().join(format!("aurora-admin-test-{}.sock", std::process::id()));
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let svc = Arc::new(svc);
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let svc = Arc::clone(&svc);
        let shutdown = Arc::clone(&shutdown);
        let endpoint = Endpoint::Unix(sock.clone());
        std::thread::spawn(move || {
            serve_with(
                svc,
                &endpoint,
                shutdown,
                ServerOptions {
                    drain_grace: Duration::from_secs(10),
                },
            )
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");
    client.request(&small_request(50)).expect("sim runs");
    let health = client.admin("health").expect("health answers");
    assert_eq!(
        health.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "live daemon is ready"
    );
    let stats = client.admin("stats").expect("stats answers");
    let inner = stats.get("stats").expect("stats body");
    assert!(inner.get("requests").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert!(inner.get("latency_us").is_some(), "latency digest present");
    let metrics = client.admin("metrics").expect("metrics answers");
    let prometheus = metrics
        .get("prometheus")
        .and_then(|v| v.as_str())
        .expect("prometheus exposition present");
    assert!(
        prometheus.contains("aurora_serve_requests"),
        "exposition names the serve counters"
    );

    shutdown.store(true, Ordering::SeqCst);
    // the open connection stays answering through the grace window and
    // reports draining once the accept loop has handed off
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.admin("health").expect("health during drain");
        if health.get("status").and_then(|v| v.as_str()) == Some("draining") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health never flipped to draining"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    server.join().unwrap().expect("server exits cleanly");
    assert!(!sock.exists(), "socket file removed on shutdown");
}

/// The `"session"` protocol verb end to end, in-process: open runs the
/// base request and pins the warm state, delta re-simulates
/// incrementally with a reply bit-identical to a one-shot run of the
/// post-delta graph, close evicts. Also the envelope version gate.
#[test]
fn session_verb_open_delta_close_over_the_protocol() {
    use aurora_core::{GraphDelta, GraphSpec, SessionRequestBuilder};

    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let req = small_request(21);
    let sb = SessionRequestBuilder::from_request(req.clone());

    let line = |cmd: &aurora_core::SessionCommand| {
        serde_json::to_string(&aurora_serve::SessionLine {
            id: 7,
            version: aurora_core::WIRE_VERSION,
            session: cmd.clone(),
        })
        .unwrap()
    };

    // open: a fresh run, digest = d0 = the base request digest
    let opened = respond_line(&svc, &line(&sb.open().unwrap()));
    assert!(opened.is_ok(), "open failed: {:?}", opened.error);
    assert!(!opened.cached);
    assert_eq!(opened.digest, sb.sid());

    // delta: structurally grow the graph; the reply must equal a
    // one-shot run of the post-delta graph byte for byte
    let delta = GraphDelta {
        add_vertices: 1,
        insert_edges: vec![(0, 128)],
        ..GraphDelta::default()
    };
    let applied = respond_line(&svc, &line(&sb.delta(delta.clone())));
    assert!(applied.is_ok(), "delta failed: {:?}", applied.error);
    assert!(!applied.cached);
    assert_ne!(applied.digest, sb.sid(), "digest chain advanced");
    let fresh_req = SimRequest {
        graph: GraphSpec::Inline(delta.apply(&req.graph.resolve().unwrap()).unwrap()),
        ..req.clone()
    };
    let fresh = svc.handle(&fresh_req).expect("one-shot run");
    assert_eq!(
        serde_json::to_string(&applied.report.unwrap()).unwrap(),
        serde_json::to_string(&*fresh.report).unwrap(),
        "session reply must be bit-identical to a from-scratch run"
    );

    // an empty delta is a no-op hit that does not advance the chain
    let noop = respond_line(&svc, &line(&sb.delta(GraphDelta::default())));
    assert!(noop.cached);
    assert_eq!(noop.digest, applied.digest);

    // close evicts; a second close answers unknown_session
    let closed = respond_line(&svc, &line(&sb.close()));
    assert!(closed.is_ok());
    assert_eq!(closed.digest, applied.digest);
    assert_eq!(svc.session_len(), 0);
    let gone = respond_line(&svc, &line(&sb.close()));
    assert_eq!(gone.error.unwrap().kind, "unknown_session");

    // a line from the future is rejected with a typed error
    let future = line(&sb.open().unwrap()).replacen(
        &format!("\"version\":{}", aurora_core::WIRE_VERSION),
        &format!("\"version\":{}", aurora_core::WIRE_VERSION + 40),
        1,
    );
    let rejected = respond_line(&svc, &future);
    assert_eq!(rejected.error.unwrap().kind, "unsupported_version");
}

/// A sim envelope declaring a future version is refused with the typed
/// kind, while v0 envelopes (no version key at all) still answer.
#[test]
fn envelope_version_gate_on_sim_lines() {
    let (svc, _tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let req = small_request(22);
    let sim_json = serde_json::to_string(&req).unwrap();
    let v0 = format!("{{\"id\":1,\"sim\":{sim_json}}}");
    let ok = respond_line(&svc, &v0);
    assert!(ok.is_ok(), "v0 line must still answer: {:?}", ok.error);
    let future = format!("{{\"id\":2,\"version\":99,\"sim\":{sim_json}}}");
    let refused = respond_line(&svc, &future);
    assert_eq!(refused.id, 2);
    assert_eq!(refused.error.unwrap().kind, "unsupported_version");
}

/// Parses an answered protocol line back into the typed response.
fn respond_line(svc: &SimService, line: &str) -> aurora_core::SimResponse {
    serde_json::from_str(&answer(svc, line)).expect("response line parses")
}

/// A line over `MAX_LINE_BYTES` answers `bad_request` without killing
/// the connection, and is access-logged like any bad line; a line of
/// exactly the cap is still read and answered.
#[test]
fn overlong_line_is_refused_and_the_connection_keeps_serving() {
    use aurora_serve::MAX_LINE_BYTES;

    let sock = std::env::temp_dir().join(format!("aurora-serve-cap-{}.sock", std::process::id()));
    let log = Arc::new(MemoryLog::default());
    let svc = Arc::new(SimService::with_access_log(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Telemetry::enabled(),
        Arc::clone(&log) as Arc<dyn aurora_serve::EventLog>,
    ));
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let svc = Arc::clone(&svc);
        let shutdown = Arc::clone(&shutdown);
        let endpoint = Endpoint::Unix(sock.clone());
        std::thread::spawn(move || serve(svc, &endpoint, shutdown))
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");

    let line = serde_json::to_string(&aurora_serve::ServeRequest {
        id: 4,
        version: aurora_core::WIRE_VERSION,
        sim: small_request(50),
    })
    .unwrap();
    // trailing whitespace is valid JSON, so the padded line is a request
    let padded = |len: usize| format!("{line}{}", " ".repeat(len - line.len()));
    let parse = |reply: String| -> aurora_core::SimResponse {
        serde_json::from_str(&reply).expect("reply parses")
    };

    let over = parse(client.roundtrip(&padded(MAX_LINE_BYTES + 1)).unwrap());
    let err = over.error.expect("over-cap line is refused");
    assert_eq!(err.kind, "bad_request");
    assert!(
        err.message
            .contains(&format!("line longer than {MAX_LINE_BYTES} bytes")),
        "{}",
        err.message
    );
    assert_eq!(over.id, 0, "the refused line's id was never read");

    let at_cap = parse(client.roundtrip(&padded(MAX_LINE_BYTES)).unwrap());
    assert!(
        at_cap.is_ok(),
        "a line of exactly the cap answers: {:?}",
        at_cap.error
    );
    assert_eq!(at_cap.id, 4);
    let health = client.admin("health").expect("connection still serves");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));

    let records: Vec<serde_json::Value> = log
        .lines()
        .iter()
        .map(|l| serde_json::from_str(l).expect("access line parses"))
        .collect();
    assert_eq!(records.len(), 2, "refused line + request, admin excluded");
    assert_eq!(
        records[0].get("outcome").and_then(|v| v.as_str()),
        Some("error")
    );

    drop(client);
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("server exits cleanly");
}

/// One dataset spec at three input densities: three result-cache
/// misses, but the graph is synthesized twice (the repeated miss
/// admits it) and the third run resolves it from the graph cache and
/// replays the warm state the second run left.
#[test]
fn repeated_graph_spec_resolves_from_the_graph_cache() {
    let (svc, tel) = service(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for density in [1.0, 0.5, 0.25] {
        let req = SimRequest::builder(ModelId::Gcn)
            .config(AcceleratorConfig::small(4))
            .dataset(aurora_graph::Dataset::Cora, 8)
            .layer(LayerShape::new(32, 16))
            .input_density(density)
            .build()
            .expect("valid request");
        let fresh = AuroraSimulator::new(req.config)
            .run(&req)
            .expect("fresh run");
        let served = svc.handle(&req).expect("served");
        assert!(!served.cached);
        assert_eq!(
            serde_json::to_string(&*served.report).unwrap(),
            serde_json::to_string(&fresh).unwrap()
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.graph_cache_misses, 2);
    assert_eq!(stats.graph_cache_hits, 1);
    assert!(stats.graph_cache_bytes > 0);
    // the second run admits the plan's warm state, the third replays it
    assert_eq!((stats.warm_misses, stats.warm_hits), (2, 1));
    assert!(stats.warm_bytes > 0);
    let snap = tel.snapshot();
    for (name, value) in [
        (names::SERVE_GRAPH_CACHE_HITS, 1.0),
        (names::SERVE_GRAPH_CACHE_WARM_HITS, 1.0),
        (names::SERVE_GRAPH_CACHE_WARM_BYTES, stats.warm_bytes as f64),
    ] {
        assert_eq!(
            snap.gauge_at(name, &aurora_core::Scope::ROOT),
            Some(value),
            "{name}"
        );
    }
}
