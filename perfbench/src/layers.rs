//! The traced run's per-layer split, read from outside the program:
//! the router's and worker's `--access-log` records and the engine's
//! host span profile (`AURORA_HOST_PROFILE=1`, `AURORA_ALLOC_PROFILE=1`
//! → `SimReport.host_profile`).
//!
//! Session deltas come back without a host profile (the session path
//! does not attach one), so for `serve-mix` writes the engine stages
//! are measured by replaying the window's delta stream through the same
//! library calls (`open_session` + `apply_delta`) in this process, with
//! the same span profiler switched on. Each replayed delta must land on
//! the digest the worker answered.

use crate::cluster::{ROUTER_LOG, WORKER_LOG};
use crate::measure::{Inputs, Run};
use crate::workload::{self, Expect, Kind};
use aurora_core::AuroraSimulator;
use aurora_telemetry::{span, HostProfile, Stage};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed op, joined across the client, the router record and the
/// worker record.
pub struct OpTrace {
    pub kind: Kind,
    pub client_us: f64,
    pub router_us: f64,
    pub retries: f64,
    pub bytes_out: f64,
    pub worker_us: f64,
    pub queue_us: f64,
    pub execute_us: f64,
    pub hit: bool,
    pub delta: bool,
    pub profile: Option<HostProfile>,
}

fn records(path: &Path) -> Result<Vec<serde_json::Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e:?}", path.display())))
        .collect()
}

fn num(v: &serde_json::Value, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn text<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
    v.get(key).and_then(|x| x.as_str()).unwrap_or("")
}

/// Joins the traced run's timed ops with their log records, in order
/// (one client, one connection: both logs list lines as sent). Every
/// record must name the op's digest.
pub fn join(run: &Run, inputs: &Inputs) -> Result<Vec<OpTrace>, String> {
    let dir = run
        .log_dir
        .as_deref()
        .ok_or("the traced run kept no logs")?;
    let routes = records(&dir.join(ROUTER_LOG))?;
    let accesses = records(&dir.join(WORKER_LOG))?;
    let window = &run.window;
    let first = run.setup_lines;
    if routes.len() < first + window.ops.len() || accesses.len() < first + window.ops.len() {
        return Err("access logs are missing records of timed ops".into());
    }
    let mut replayed = replay_writes(inputs, window)?.into_iter();
    let mut traces = Vec::with_capacity(window.ops.len());
    for (i, (op, sample)) in window.ops.iter().zip(&window.samples).enumerate() {
        let route = &routes[first + i];
        let access = &accesses[first + i];
        let answered = match &op.expect {
            Expect::Miss { digest } | Expect::Delta { digest, .. } => digest,
            Expect::Hit { .. } => &op.route_digest,
        };
        if text(route, "digest") != op.route_digest || text(access, "digest") != answered {
            return Err(format!("log records out of step with timed op {i}"));
        }
        let delta = text(access, "workload") == "session:delta";
        let profile = match &sample.host_profile {
            Some(json) => Some(
                serde_json::from_str::<HostProfile>(json)
                    .map_err(|e| format!("host profile unparseable: {e:?}"))?,
            ),
            None if delta => replayed.next(),
            None => None,
        };
        traces.push(OpTrace {
            kind: op.kind,
            client_us: sample.latency_us,
            router_us: num(route, "latency_us"),
            retries: num(route, "retries"),
            bytes_out: num(route, "bytes_out"),
            worker_us: num(access, "latency_us"),
            queue_us: num(access, "queue_wait_us"),
            execute_us: num(access, "execute_us"),
            hit: text(access, "outcome") == "hit",
            delta,
            profile,
        });
    }
    Ok(traces)
}

/// Replays the window's writes in-process under the span profiler and
/// returns one host profile per write.
fn replay_writes(
    inputs: &Inputs,
    window: &crate::measure::Window,
) -> Result<Vec<HostProfile>, String> {
    let digests: Vec<&String> = window
        .ops
        .iter()
        .filter_map(|op| match &op.expect {
            Expect::Delta { digest, .. } => Some(digest),
            _ => None,
        })
        .collect();
    if digests.is_empty() {
        return Ok(Vec::new());
    }
    let stream = inputs.stream();
    let mix = stream.mix().ok_or("writes outside serve-mix")?;
    let base = workload::mix_base();
    span::set_span_profiling(true);
    aurora_telemetry::alloc::set_alloc_profiling(true);
    let result = (|| {
        let sim = AuroraSimulator::new(base.config);
        let mut session = sim.open_session(&base).map_err(|e| e.to_string())?;
        let mut profiles = Vec::with_capacity(digests.len());
        for (i, digest) in digests.into_iter().enumerate() {
            let (_, _, delta) = mix.delta(i);
            let mark = span::mark();
            let started = Instant::now();
            sim.apply_delta(&mut session, &delta)
                .map_err(|e| e.to_string())?;
            profiles.push(span::collect(&mark, started.elapsed()));
            if session.digest() != digest {
                return Err(format!("replayed write {i} left the worker's digest chain"));
            }
        }
        Ok(profiles)
    })();
    span::set_span_profiling(false);
    aurora_telemetry::alloc::set_alloc_profiling(false);
    result
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn wall_ms(p: &HostProfile, s: Stage) -> f64 {
    p.stage(s).map_or(0.0, |x| x.wall_us as f64 / 1e3)
}

/// Wall time of the disjoint top-level stages, ms.
fn covered_ms(p: &HostProfile) -> f64 {
    p.stages
        .iter()
        .filter(|s| s.stage.is_top_level())
        .map(|s| s.wall_us as f64 / 1e3)
        .sum()
}

/// The top-level engine stages, in pipeline order, as table rows.
pub const STAGES: [(Stage, &str); 8] = [
    (Stage::GraphLoad, "graph.resolve_ms"),
    (Stage::Workflow, "core.workflow_ms"),
    (Stage::Partition, "core.partition_ms"),
    (Stage::RouteTableBuild, "noc.route_table_build_ms"),
    (Stage::TilePrecompute, "core.tile_precompute_ms"),
    (Stage::TrafficKernels, "noc.traffic_kernels_ms"),
    (Stage::EngineWalk, "core.engine_walk_ms"),
    (Stage::Finalize, "core.finalize_ms"),
];

/// Serve-layer means over `ops`, ms (bytes for `bytes_out_per_op`).
fn serve_split(ops: &[&OpTrace], prefix: &str, out: &mut BTreeMap<String, f64>) {
    let m = |f: &dyn Fn(&OpTrace) -> f64| mean(ops.iter().map(|t| f(t)));
    let mut put = |name: &str, v: f64| {
        out.insert(format!("{prefix}{name}"), v);
    };
    put("serve.client_ms", m(&|t| (t.client_us - t.router_us) / 1e3));
    put("serve.router_ms", m(&|t| (t.router_us - t.worker_us) / 1e3));
    put(
        "serve.worker_overhead_ms",
        m(&|t| (t.worker_us - t.execute_us - t.queue_us) / 1e3),
    );
    put("serve.queue_wait_ms", m(&|t| t.queue_us / 1e3));
    put("serve.bytes_out_per_op", m(&|t| t.bytes_out));
    put(
        "other_ms",
        m(&|t| t.execute_us / 1e3 - t.profile.as_ref().map_or(0.0, covered_ms)),
    );
    put("latency_ms.mean", m(&|t| t.client_us / 1e3));
    // engine stages spread over every op of the split, so the table's
    // rows add up to the mean client latency
    let staged = |s: Stage| m(&|t| t.profile.as_ref().map_or(0.0, |p| wall_ms(p, s)));
    for (s, key) in STAGES {
        put(&format!("stage_per_op.{key}"), staged(s));
    }
    put("stage_per_op.mapping.map_ms", staged(Stage::Mapping));
}

/// Every per-layer value of one traced run (a superset of the metrics
/// `BENCHMARK.json` names; the rest feed the table).
pub fn per_layer(traces: &[OpTrace]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let all: Vec<&OpTrace> = traces.iter().collect();
    serve_split(&all, "", &mut out);
    for (kind, prefix) in [(Kind::Read, "read."), (Kind::Write, "write.")] {
        let ops: Vec<&OpTrace> = traces.iter().filter(|t| t.kind == kind).collect();
        serve_split(&ops, prefix, &mut out);
        out.insert(format!("{prefix}ops"), ops.len() as f64);
    }
    let n = traces.len().max(1) as f64;
    out.insert(
        "serve.cache_hit_ratio".into(),
        traces.iter().filter(|t| t.hit).count() as f64 / n,
    );
    out.insert(
        "serve.router_retries".into(),
        traces.iter().map(|t| t.retries).sum::<f64>() / n,
    );
    let latency = out["latency_ms.mean"];
    out.insert(
        "other_share".into(),
        if latency > 0.0 {
            out["other_ms"] / latency
        } else {
            0.0
        },
    );
    out.insert(
        "core.execute_ms".into(),
        mean(
            traces
                .iter()
                .filter(|t| t.execute_us > 0.0)
                .map(|t| t.execute_us / 1e3),
        ),
    );
    out.insert(
        "core.delta_apply_ms".into(),
        mean(
            traces
                .iter()
                .filter(|t| t.delta)
                .map(|t| t.execute_us / 1e3),
        ),
    );

    // engine stages: means per engine run
    let runs: Vec<&HostProfile> = traces.iter().filter_map(|t| t.profile.as_ref()).collect();
    let per_run = |f: &dyn Fn(&HostProfile) -> f64| mean(runs.iter().map(|p| f(p)));
    for (s, name) in STAGES {
        out.insert(name.into(), per_run(&|p| wall_ms(p, s)));
    }
    out.insert(
        "mapping.map_ms".into(),
        per_run(&|p| wall_ms(p, Stage::Mapping)),
    );
    out.insert(
        "core.tile_precompute_self_ms".into(),
        per_run(&|p| {
            p.stage(Stage::TilePrecompute)
                .map_or(0.0, |x| x.self_us as f64 / 1e3)
        }),
    );
    out.insert(
        "noc.route_table_builds".into(),
        per_run(&|p| {
            p.stage(Stage::RouteTableBuild)
                .map_or(0.0, |x| x.calls as f64)
        }),
    );
    out.insert(
        "core.allocs_per_op".into(),
        per_run(&|p| p.stages.iter().map(|s| s.alloc_count as f64).sum()),
    );
    out.insert(
        "core.alloc_mb_per_op".into(),
        per_run(&|p| p.stages.iter().map(|s| s.alloc_bytes as f64).sum::<f64>() / 1e6),
    );
    let wall: f64 = runs.iter().map(|p| p.total_wall_us as f64 / 1e3).sum();
    out.insert(
        "core.stage_coverage".into(),
        if wall > 0.0 {
            runs.iter().map(|p| covered_ms(p)).sum::<f64>() / wall
        } else {
            0.0
        },
    );
    out
}
