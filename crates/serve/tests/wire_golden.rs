//! Golden replies for the NDJSON request protocol, at both hops.
//!
//! Every line of a fixed corpus — valid requests, version-gated
//! envelopes, malformed JSON, wrong-typed ids, session verbs, admin
//! commands — is answered twice: in process through [`answer`] on a
//! fresh `SimService`, and over a Unix socket through a `Router` in
//! front of one `ThreadLauncher` shard. Each reply line is hashed with
//! FNV-1a/64 (the hash loop of `SimRequest::digest`), and the committed
//! fixture `tests/fixtures/wire_golden.txt` pins every hash. A change to
//! an id, an error kind or message, a digest or a report byte of any
//! reply shows up as a mismatch.
//!
//! For well-formed lines (the envelope decodes and passes the version
//! gate, or the line is an admin command) the fixture also pins the log
//! record the line leaves: the worker's access record
//! (`outcome|workload|digest`) and the router's route record
//! (`outcome|shard|digest`), or `-` for none. Other lines pin only
//! their reply bytes (`*` in the record column).
//!
//! Every reply at both hops is also read member by member with
//! `serde_json::from_str_member`, the router's reply check, which must
//! agree with a full parse.
//!
//! Upkeep needs no knob: on any mismatch the test prints the full table
//! as computed now. After a deliberate protocol change, check that the
//! change is meant to move the listed rows, paste the table into the
//! fixture, and say so in the change description.

use aurora_core::request::MAX_LAYERS;
use aurora_core::{
    AcceleratorConfig, GraphDelta, GraphSpec, SessionCommand, SimRequest, Telemetry, WIRE_VERSION,
};
use aurora_model::{LayerShape, ModelId};
use aurora_serve::{
    answer, serve, Backend, Client, Endpoint, EventLog, MemoryLog, Router, RouterConfig,
    ServeConfig, ServeRequest, SessionLine, SimService, ThreadLauncher,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIXTURE: &str = include_str!("fixtures/wire_golden.txt");

/// A sid no session ever opens.
const UNKNOWN_SID: &str = "deadbeefdeadbeef";

struct Case {
    name: &'static str,
    line: String,
    /// Pin the line's log record as well as its reply.
    well_formed: bool,
}

fn small_request(seed: u64) -> SimRequest {
    SimRequest::builder(ModelId::Gcn)
        .config(AcceleratorConfig::small(4))
        .rmat(128, 800, seed)
        .layer(LayerShape::new(32, 16))
        .workload("wire-golden")
        .build()
        .expect("valid request")
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn sim_line(id: u64, version: u32, sim: SimRequest) -> String {
    json(&ServeRequest { id, version, sim })
}

fn session_line(id: u64, version: u32, session: SessionCommand) -> String {
    json(&SessionLine {
        id,
        version,
        session,
    })
}

fn open(seed: u64) -> SessionCommand {
    SessionCommand {
        op: SessionCommand::OPEN.into(),
        sid: None,
        sim: Some(small_request(seed)),
        delta: None,
    }
}

fn corpus() -> Vec<Case> {
    let case = |name, line, well_formed| Case {
        name,
        line,
        well_formed,
    };
    let sim = |seed| json(&small_request(seed));
    let invalid = SimRequest {
        layers: vec![],
        ..small_request(5)
    };
    let unknown_delta = SessionCommand {
        op: SessionCommand::DELTA.into(),
        sid: Some(UNKNOWN_SID.into()),
        sim: None,
        delta: Some(GraphDelta {
            add_vertices: 1,
            ..GraphDelta::default()
        }),
    };
    let mut cases = vec![
        case("sim/v1", sim_line(1, WIRE_VERSION, small_request(1)), true),
        case("sim/v0", format!(r#"{{"id":2,"sim":{}}}"#, sim(2)), true),
        case(
            "sim/future-version",
            sim_line(3, WIRE_VERSION + 1, small_request(3)),
            false,
        ),
        case(
            "session/future-version",
            session_line(4, WIRE_VERSION + 1, open(4)),
            false,
        ),
        case("garbled", "{this is not json".into(), false),
        case("sim/not-an-object", r#"{"id":9,"sim":5}"#.into(), false),
        case(
            "id/negative",
            format!(r#"{{"id":-3,"sim":{}}}"#, sim(1)),
            false,
        ),
        case(
            "id/string",
            format!(r#"{{"id":"7","sim":{}}}"#, sim(1)),
            false,
        ),
        case(
            "id/float",
            format!(r#"{{"id":1.5,"sim":{}}}"#, sim(1)),
            false,
        ),
        case("sim/invalid", sim_line(10, WIRE_VERSION, invalid), true),
        case("array", "[]".into(), false),
        case(
            "session/open",
            session_line(11, WIRE_VERSION, open(6)),
            true,
        ),
        case(
            "session/delta-unknown-sid",
            session_line(12, WIRE_VERSION, unknown_delta),
            true,
        ),
        case(
            "session/bogus-op",
            r#"{"id":4,"session":{"op":"bogus"}}"#.into(),
            true,
        ),
        case(
            "session/no-id",
            format!(r#"{{"session":{{"op":"close","sid":"{UNKNOWN_SID}"}}}}"#),
            false,
        ),
        case("admin/unknown", r#"{"id":5,"admin":"nope"}"#.into(), true),
        case("admin/not-a-string", r#"{"id":6,"admin":5}"#.into(), true),
        case(
            "admin/with-sim",
            format!(r#"{{"id":13,"admin":"nope","sim":{}}}"#, sim(1)),
            true,
        ),
    ];
    // requests that once panicked in the engine or ran to a meaningless
    // report: each is one typed invalid_request now
    type Break = fn(&mut SimRequest);
    let broken: [(&'static str, Break); 14] = [
        ("sim/invalid/clock-zero", |r| r.config.clock_mhz = 0),
        ("sim/invalid/lanes-zero", |r| r.config.pe.lanes = 0),
        ("sim/invalid/dram-channels-zero", |r| {
            r.config.dram_channels = 0
        }),
        ("sim/invalid/feature-fraction", |r| {
            r.config.feature_fraction = 2.0
        }),
        ("sim/invalid/link-utilisation", |r| {
            r.config.link_utilisation = 0.0
        }),
        ("sim/invalid/layer-zero", |r| r.layers[0].f_in = 0),
        ("sim/invalid/layer-wide", |r| {
            r.layers = vec![LayerShape {
                f_in: 1 << 62,
                f_out: 1 << 62,
            }]
        }),
        ("sim/invalid/layer-chain", |r| {
            r.layers.push(LayerShape::new(8, 4));
        }),
        // a PE buffer must hold one vertex of the widest layer input
        ("sim/invalid/buffer-zero", |r| r.config.pe.buffer_bytes = 0),
        ("sim/invalid/buffer-one", |r| r.config.pe.buffer_bytes = 1),
        ("sim/invalid/buffer-64", |r| r.config.pe.buffer_bytes = 64),
        // more edges than 3 vertices have distinct non-self pairs
        ("sim/invalid/rmat-dense", |r| {
            r.graph = GraphSpec::Rmat {
                vertices: 3,
                edges: 1 << 27,
                seed: 7,
            }
        }),
        // a zero flit payload divides by zero in the flit count
        ("sim/invalid/words-per-flit-zero", |r| {
            r.config.words_per_flit = 0
        }),
        // one layer past the count cap, each layer a valid 32 → 32
        ("sim/invalid/layers-too-many", |r| {
            r.layers = vec![LayerShape::new(32, 32); MAX_LAYERS + 1]
        }),
    ];
    cases.extend(broken.into_iter().zip(20..).map(|((name, break_it), id)| {
        let mut req = small_request(7);
        break_it(&mut req);
        case(name, sim_line(id, WIRE_VERSION, req), true)
    }));
    cases
}

fn fnv1a64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The `|`-joined string fields of each new log record, `-` for none.
fn records(log: &MemoryLog, seen: &mut usize, fields: &[&str]) -> String {
    let lines = log.lines();
    let new = &lines[*seen..];
    *seen = lines.len();
    if new.is_empty() {
        return "-".into();
    }
    new.iter()
        .map(|line| {
            let record: serde_json::Value = serde_json::from_str(line).expect("record parses");
            fields
                .iter()
                .map(|f| record.get(f).and_then(|v| v.as_str()).unwrap_or("?"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Checks that the router's one-member reader sees in `reply` exactly
/// what a full parse sees, for each envelope member.
fn assert_members_read_like_a_full_parse(hop: &str, case: &Case, reply: &str) {
    for key in ["id", "digest", "report", "error"] {
        let full = serde_json::from_str::<serde_json::Value>(reply)
            .map(|v| v.get(key).cloned())
            .map_err(|e| e.to_string());
        let member = serde_json::from_str_member(reply, key).map_err(|e| e.to_string());
        assert_eq!(member, full, "{hop} {}: member `{key}`", case.name);
    }
}

/// One fixture row: `<hop> <case> <reply hash> <records>`.
fn row(hop: &str, case: &Case, reply: &str, records: String) -> String {
    assert_members_read_like_a_full_parse(hop, case, reply);
    let records = if case.well_formed {
        records
    } else {
        "*".into()
    };
    format!(
        "{hop} {} {} {records}",
        case.name,
        fnv1a64(reply.as_bytes())
    )
}

fn worker_rows(corpus: &[Case]) -> Vec<String> {
    let log = Arc::new(MemoryLog::new());
    let service = SimService::with_access_log(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Telemetry::disabled(),
        Arc::clone(&log) as Arc<dyn EventLog>,
    );
    let mut seen = 0;
    corpus
        .iter()
        .map(|case| {
            let reply = answer(&service, &case.line);
            let logged = records(&log, &mut seen, &["outcome", "workload", "digest"]);
            row("worker", case, &reply, logged)
        })
        .collect()
}

fn scratch_sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "aurora-wire-golden-{}-{tag}.sock",
        std::process::id()
    ))
}

fn router_rows(corpus: &[Case]) -> Vec<String> {
    let shard_sock = scratch_sock("w0");
    let _ = std::fs::remove_file(&shard_sock);
    let shard = Arc::new(Backend::supervised(
        "w0",
        Endpoint::Unix(shard_sock.clone()),
        Arc::new(ThreadLauncher {
            endpoint: Endpoint::Unix(shard_sock),
            config: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        }),
    ));
    let log = Arc::new(MemoryLog::new());
    let router = Arc::new(Router::with_access_log(
        vec![shard],
        RouterConfig {
            probe_interval: Duration::from_millis(25),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
        },
        Arc::clone(&log) as Arc<dyn EventLog>,
    ));
    router.start().expect("cluster starts");
    assert_eq!(router.wait_ready(Duration::from_secs(10)), 1);

    let front = scratch_sock("front");
    let _ = std::fs::remove_file(&front);
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let (router, shutdown) = (Arc::clone(&router), Arc::clone(&shutdown));
        let endpoint = Endpoint::Unix(front.clone());
        std::thread::spawn(move || serve(router, &endpoint, shutdown))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !front.exists() {
        assert!(Instant::now() < deadline, "router never bound");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut client = Client::connect(&Endpoint::Unix(front)).expect("connect to router");
    let mut seen = 0;
    let rows = corpus
        .iter()
        .map(|case| {
            let reply = client.roundtrip(&case.line).expect("router answers");
            let logged = records(&log, &mut seen, &["outcome", "shard", "digest"]);
            row("router", case, &reply, logged)
        })
        .collect();

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    server.join().unwrap().expect("router exits cleanly");
    rows
}

#[test]
fn replies_match_golden_digests() {
    let corpus = corpus();
    let mut table = worker_rows(&corpus);
    table.extend(router_rows(&corpus));

    let key = |row: &str| {
        let mut parts = row.splitn(3, ' ');
        format!("{} {}", parts.next().unwrap(), parts.next().unwrap())
    };
    let golden: BTreeMap<String, String> = FIXTURE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| (key(l), l.to_string()))
        .collect();
    let failures: Vec<String> = table
        .iter()
        .filter(|row| golden.get(&key(row)) != Some(*row))
        .map(|row| {
            let expected = golden.get(&key(row)).map_or("<missing>", String::as_str);
            format!("  now:     {row}\n  fixture: {expected}")
        })
        .collect();
    let stale: Vec<&String> = golden
        .keys()
        .filter(|k| table.iter().all(|row| &key(row) != *k))
        .collect();
    assert!(
        failures.is_empty() && stale.is_empty(),
        "wire replies drifted from the golden fixture:\n{}\nstale fixture rows: {stale:?}\n\
         table as computed now:\n{}",
        failures.join("\n"),
        table.join("\n")
    );
}
