//! Cluster contracts, end to end over the wire: digest affinity keeps
//! repeat requests on warm shards, a killed worker costs clients
//! nothing (failover + respawn), and a drain under load accounts for
//! every routed request exactly once in the access log.

use aurora_core::{AcceleratorConfig, SimRequest, Telemetry};
use aurora_model::{LayerShape, ModelId};
use aurora_serve::{
    serve, Backend, BackendHealth, Client, Endpoint, MemoryLog, Router, RouterConfig, ServeConfig,
    SimService, ThreadLauncher,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_request(seed: u64) -> SimRequest {
    SimRequest::builder(ModelId::Gcn)
        .config(AcceleratorConfig::small(4))
        .rmat(128, 800, seed)
        .layer(LayerShape::new(32, 16))
        .workload("cluster")
        .build()
        .expect("valid request")
}

fn scratch_sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "aurora-router-test-{}-{tag}.sock",
        std::process::id()
    ))
}

fn worker_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn fast_probe() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(25),
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(30),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
    }
}

/// Serves `router` on `sock` from a background thread; returns the
/// shutdown flag and the join handle.
fn serve_router(
    router: Arc<Router>,
    sock: PathBuf,
) -> (
    Arc<AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = {
        let shutdown = Arc::clone(&shutdown);
        let endpoint = Endpoint::Unix(sock.clone());
        std::thread::spawn(move || serve(router, &endpoint, shutdown))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "router never bound");
        std::thread::sleep(Duration::from_millis(10));
    }
    (shutdown, handle)
}

/// A supervised in-process worker shard for `tag`.
fn thread_backend(name: &str, tag: &str) -> Arc<Backend> {
    let sock = scratch_sock(tag);
    let _ = std::fs::remove_file(&sock);
    Arc::new(Backend::supervised(
        name,
        Endpoint::Unix(sock.clone()),
        Arc::new(ThreadLauncher {
            endpoint: Endpoint::Unix(sock),
            config: worker_config(),
        }),
    ))
}

#[test]
fn repeat_requests_stay_on_warm_shards() {
    let backends = vec![
        thread_backend("w0", "warm-0"),
        thread_backend("w1", "warm-1"),
    ];
    let router = Arc::new(Router::new(backends, fast_probe()));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 2);

    // determinism first: a second router over the same shard names
    // places every digest identically — affinity survives restarts
    let shadow = Router::new(
        vec![
            Arc::new(Backend::external("w0", Endpoint::Tcp("127.0.0.1:1".into()))),
            Arc::new(Backend::external("w1", Endpoint::Tcp("127.0.0.1:2".into()))),
        ],
        RouterConfig::default(),
    );
    for seed in 0..32u64 {
        let digest = small_request(seed).digest();
        assert_eq!(
            router.shard_for(&digest),
            shadow.shard_for(&digest),
            "placement of {digest} must depend only on shard names"
        );
    }

    let front = scratch_sock("warm-front");
    let _ = std::fs::remove_file(&front);
    let (shutdown, server) = serve_router(Arc::clone(&router), front.clone());

    let mut client = Client::connect(&Endpoint::Unix(front)).expect("connect to router");
    let requests: Vec<SimRequest> = (0..6).map(small_request).collect();
    let mut first_reports = Vec::new();
    for req in &requests {
        let reply = client.request(req).expect("routed response");
        assert!(reply.is_ok(), "error: {:?}", reply.error);
        first_reports.push(reply.report);
    }
    // every repeat must land on the shard that already holds the digest
    for (req, first) in requests.iter().zip(&first_reports) {
        let reply = client.request(req).expect("repeat response");
        assert!(
            reply.cached,
            "repeat of {} missed its warm shard",
            req.digest()
        );
        assert_eq!(&reply.report, first, "cached report diverged");
    }
    // the cluster aggregate sees all 6 hits
    let stats = client.admin("stats").expect("cluster stats");
    let agg = stats.get("stats").expect("aggregate body");
    assert_eq!(agg.get("cache_hits").and_then(|v| v.as_u64()), Some(6));
    assert_eq!(agg.get("cache_misses").and_then(|v| v.as_u64()), Some(6));
    // six distinct graphs, each synthesized once by the shard that ran it
    assert_eq!(
        agg.get("graph_cache_misses").and_then(|v| v.as_u64()),
        Some(6)
    );
    assert_eq!(
        agg.get("graph_cache_hits").and_then(|v| v.as_u64()),
        Some(0)
    );
    // no graph was resident, so every run was a warm miss
    for (key, value) in [("warm_misses", 6), ("warm_hits", 0), ("warm_bytes", 0)] {
        assert_eq!(agg.get(key).and_then(|v| v.as_u64()), Some(value), "{key}");
    }
    assert_eq!(
        stats
            .get("router")
            .and_then(|r| r.get("routed"))
            .and_then(|v| v.as_u64()),
        Some(12)
    );

    drop(client);
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("router exits cleanly");
}

/// A worker shard the *test* owns: the router sees only the endpoint,
/// so killing the serve thread is invisible until a forward fails.
fn external_worker(name: &str, tag: &str) -> (Arc<Backend>, Arc<AtomicBool>) {
    let sock = scratch_sock(tag);
    let _ = std::fs::remove_file(&sock);
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        let endpoint = Endpoint::Unix(sock.clone());
        let flag = Arc::clone(&shutdown);
        let service = Arc::new(SimService::new(worker_config(), Telemetry::enabled()));
        std::thread::spawn(move || {
            let _ = serve(service, &endpoint, flag);
        });
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "worker never bound");
        std::thread::sleep(Duration::from_millis(10));
    }
    (
        Arc::new(Backend::external(name, Endpoint::Unix(sock))),
        shutdown,
    )
}

#[test]
fn crashed_worker_fails_over_with_zero_client_errors() {
    let (b0, kill0) = external_worker("w0", "crash-0");
    let (b1, kill1) = external_worker("w1", "crash-1");
    let (b2, kill2) = external_worker("w2", "crash-2");
    let kills = [kill0, kill1, kill2];
    let log = Arc::new(MemoryLog::default());
    let router = Arc::new(Router::with_access_log(
        vec![b0, b1, b2],
        RouterConfig {
            // one startup probe pass, then effectively never again: the
            // router must discover the crash at the transport, not from
            // the prober racing ahead of the test
            probe_interval: Duration::from_secs(600),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(30),
            ..RouterConfig::default()
        },
        Arc::clone(&log) as Arc<dyn aurora_serve::EventLog>,
    ));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 3);

    let front = scratch_sock("crash-front");
    let _ = std::fs::remove_file(&front);
    let (shutdown, server) = serve_router(Arc::clone(&router), front.clone());
    let mut client = Client::connect(&Endpoint::Unix(front)).expect("connect to router");

    // warm a spread of digests so the victim provably owns traffic
    let requests: Vec<SimRequest> = (0..9).map(small_request).collect();
    for req in &requests {
        assert!(client.request(req).expect("warmup").is_ok());
    }
    let victim = router
        .shard_for(&requests[0].digest())
        .expect("routable")
        .to_string();
    let victim_index = router
        .backends()
        .iter()
        .position(|b| b.name == victim)
        .expect("victim exists");

    // crash it behind the router's back: the worker drains and unlinks
    // its socket while the router still believes it is healthy
    kills[victim_index].store(true, Ordering::SeqCst);
    let victim_sock = scratch_sock(&format!("crash-{victim_index}"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while victim_sock.exists() {
        assert!(Instant::now() < deadline, "victim never went away");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        router.backends()[victim_index].health(),
        BackendHealth::Ok,
        "precondition: the router must not know yet"
    );

    // every request — including the victim's — still answers correctly
    for req in &requests {
        let reply = client.request(req).expect("post-crash response");
        assert!(
            reply.is_ok(),
            "digest {} saw a client-visible error after the crash: {:?}",
            req.digest(),
            reply.error
        );
    }
    // the transport discovered the crash and re-routed
    assert_eq!(
        router.backends()[victim_index].health(),
        BackendHealth::Down
    );
    assert!(
        log.lines().iter().any(|l| l.contains("\"failover\"")),
        "no failover record despite a crashed shard"
    );
    assert!(router.totals().failovers >= 1);

    drop(client);
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("router exits cleanly");
    // stop the surviving workers too, and wait until every worker has
    // unlinked its socket, so no run leaves one behind
    for kill in &kills {
        kill.store(true, Ordering::SeqCst);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for i in 0..kills.len() {
        let sock = scratch_sock(&format!("crash-{i}"));
        while sock.exists() {
            assert!(Instant::now() < deadline, "worker {i} kept its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[test]
fn downed_supervised_worker_is_respawned_and_rejoins() {
    let backends = vec![
        thread_backend("w0", "respawn-0"),
        thread_backend("w1", "respawn-1"),
        thread_backend("w2", "respawn-2"),
    ];
    let router = Arc::new(Router::new(backends, fast_probe()));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 3);

    let front = scratch_sock("respawn-front");
    let _ = std::fs::remove_file(&front);
    let (shutdown, server) = serve_router(Arc::clone(&router), front.clone());
    let mut client = Client::connect(&Endpoint::Unix(front)).expect("connect to router");

    let requests: Vec<SimRequest> = (0..9).map(small_request).collect();
    for req in &requests {
        assert!(client.request(req).expect("warmup").is_ok());
    }
    let victim = router
        .shard_for(&requests[0].digest())
        .expect("routable")
        .to_string();
    let victim_index = router
        .backends()
        .iter()
        .position(|b| b.name == victim)
        .expect("victim exists");

    // take the victim down; the router routes around it immediately…
    router.backends()[victim_index].stop();
    for req in &requests {
        let reply = client.request(req).expect("post-stop response");
        assert!(reply.is_ok(), "error while victim down: {:?}", reply.error);
    }

    // …and the prober brings a successor back into rotation
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let b = &router.backends()[victim_index];
        if b.health() == BackendHealth::Ok && b.respawns() >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "victim never respawned (health {:?}, respawns {})",
            b.health(),
            b.respawns()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // and serves its digests again (fresh cache: a re-run, same answer)
    let reply = client.request(&requests[0]).expect("post-respawn response");
    assert!(reply.is_ok(), "error: {:?}", reply.error);

    drop(client);
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("router exits cleanly");
}

#[test]
fn drain_under_load_accounts_for_every_request_exactly_once() {
    let backends = vec![
        thread_backend("w0", "drain-0"),
        thread_backend("w1", "drain-1"),
    ];
    let log = Arc::new(MemoryLog::default());
    let router = Arc::new(Router::with_access_log(
        backends,
        fast_probe(),
        Arc::clone(&log) as Arc<dyn aurora_serve::EventLog>,
    ));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 2);

    let front = scratch_sock("drain-front");
    let _ = std::fs::remove_file(&front);
    let (shutdown, server) = serve_router(Arc::clone(&router), front.clone());

    const CONNS: usize = 4;
    const PER_CONN: usize = 8;
    let workers: Vec<_> = (0..CONNS)
        .map(|c| {
            let front = front.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(front)).expect("connect");
                let mut answered = 0usize;
                for r in 0..PER_CONN {
                    // a small digest set shared across connections, so
                    // the load mixes misses, joins, and warm hits
                    let req = small_request(100 + ((c + r) % 5) as u64);
                    let reply = client.request(&req).expect("response under load");
                    assert!(reply.is_ok(), "error under load: {:?}", reply.error);
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let answered: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(answered, CONNS * PER_CONN);

    // drain the cluster under no pending work: the router must stop
    // accepting, stop its workers, and exit cleanly
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("router exits cleanly");
    for b in router.backends() {
        assert_eq!(b.health(), BackendHealth::Down, "drain stops every worker");
    }

    // exact accounting: one RouteRecord per sim request, each seq once
    let lines = log.lines();
    assert_eq!(
        lines.len(),
        CONNS * PER_CONN,
        "access log must hold exactly one record per routed request"
    );
    let mut seqs = std::collections::BTreeSet::new();
    for line in &lines {
        let record: serde_json::Value = serde_json::from_str(line).expect("route record parses");
        assert_eq!(
            record.get("outcome").and_then(|v| v.as_str()),
            Some("ok"),
            "unexpected outcome in {line}"
        );
        let seq = record.get("seq").and_then(|v| v.as_u64()).expect("seq");
        assert!(seqs.insert(seq), "seq {seq} appeared twice");
        assert!(record.get("shard").and_then(|v| v.as_str()).is_some());
    }
    assert_eq!(*seqs.iter().next().unwrap(), 1, "seq starts at 1");
    assert_eq!(*seqs.iter().last().unwrap(), (CONNS * PER_CONN) as u64);
}

/// Streaming sessions through the router: every line of one session —
/// open, deltas, close — routes by the *same* digest (`d₀`), so the
/// whole session lands on the shard holding its warm state, and the
/// access log attributes every session line to that one shard.
#[test]
fn session_lines_pin_to_one_shard() {
    use aurora_core::{GraphDelta, SessionRequestBuilder};

    let backends = vec![
        thread_backend("s0", "sess-0"),
        thread_backend("s1", "sess-1"),
    ];
    let log = Arc::new(MemoryLog::default());
    let router = Arc::new(Router::with_access_log(
        backends,
        fast_probe(),
        Arc::clone(&log) as Arc<dyn aurora_serve::EventLog>,
    ));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 2);

    let front = scratch_sock("sess-front");
    let _ = std::fs::remove_file(&front);
    let (shutdown, server) = serve_router(Arc::clone(&router), front.clone());
    let mut client = Client::connect(&Endpoint::Unix(front)).expect("connect to router");

    let req = small_request(77);
    let sb = SessionRequestBuilder::from_request(req);
    let pinned = router
        .shard_for(sb.sid())
        .expect("routable shard")
        .to_string();

    let opened = client.session(&sb.open().unwrap()).expect("open routes");
    assert!(opened.is_ok(), "open failed: {:?}", opened.error);
    let mut digest = opened.digest.clone();
    for _ in 0..3 {
        let d = GraphDelta {
            add_vertices: 1,
            ..GraphDelta::default()
        };
        let applied = client.session(&sb.delta(d)).expect("delta routes");
        assert!(applied.is_ok(), "delta failed: {:?}", applied.error);
        assert_ne!(applied.digest, digest, "chain advances per delta");
        digest = applied.digest;
    }
    let closed = client.session(&sb.close()).expect("close routes");
    assert!(closed.is_ok());
    assert_eq!(closed.digest, digest);

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    server.join().unwrap().expect("router exits cleanly");

    // every session line was attributed to the pinned shard
    let records: Vec<serde_json::Value> = log
        .lines()
        .iter()
        .map(|l| serde_json::from_str(l).expect("route record parses"))
        .collect();
    assert_eq!(records.len(), 5, "open + 3 deltas + close");
    for r in &records {
        assert_eq!(
            r.get("shard").and_then(|v| v.as_str()),
            Some(pinned.as_str()),
            "session line left its pinned shard: {r:?}"
        );
        assert_eq!(r.get("outcome").and_then(|v| v.as_str()), Some("ok"));
    }
    // open routes by the request digest; delta/close by sid — one value
    let digests: std::collections::BTreeSet<_> = records
        .iter()
        .map(|r| {
            r.get("digest")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(digests.len(), 1, "all lines route by d0");
    assert!(digests.contains(sb.sid()));
}

/// A line nested 100,000 levels deep is a `bad_request` at both hops —
/// a worker and a router, each over a socket — and the connection that
/// carried it keeps answering. An unbounded recursive parser would
/// overflow the connection thread's stack here and abort the process.
#[test]
fn deeply_nested_line_is_a_bad_request_at_both_hops() {
    let deep = format!("{{\"id\":1,\"sim\":{}", "[".repeat(100_000));
    let (worker, stop_worker) = external_worker("w0", "deep-0");
    let router = Arc::new(Router::new(
        vec![thread_backend("r0", "deep-1")],
        fast_probe(),
    ));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 1);
    let front = scratch_sock("deep-front");
    let _ = std::fs::remove_file(&front);
    let (stop_router, server) = serve_router(Arc::clone(&router), front.clone());

    for endpoint in [worker.endpoint.clone(), Endpoint::Unix(front)] {
        let mut client = Client::connect(&endpoint).expect("connect");
        let reply: aurora_core::SimResponse =
            serde_json::from_str(&client.roundtrip(&deep).expect("answered")).unwrap();
        let error = reply.error.expect("typed error");
        assert_eq!(error.kind, "bad_request", "{endpoint}: {}", error.message);
        assert!(
            error.message.contains("nesting deeper than 128"),
            "{endpoint}: {}",
            error.message
        );
        let health = client.admin("health").expect("same connection answers");
        assert_eq!(
            health.get("status").and_then(|v| v.as_str()),
            Some("ok"),
            "{endpoint}"
        );
    }

    stop_router.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("router exits cleanly");
    stop_worker.store(true, Ordering::SeqCst);
}
