//! The repository benchmark: a closed-loop client driving
//! `aurora_serve --router` fronting one worker over Unix sockets.
//!
//! ```text
//! aurora-perfbench --serve PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced window and then a traced one, prints the stage table, and
//! reports the per-layer metrics. The last stdout line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `--workload all --trace 1` prints the table for every workload.
//! See `README.md` beside this crate.

mod cluster;
mod layers;
mod measure;
mod reply;
mod workload;

use measure::{Inputs, Run, SETUPS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Kind, Workload};

/// End-to-end metrics, from an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, from a traced run: name and unit. Values are
/// means per timed op, except the engine stages, which are means per
/// engine run. `read.`/`write.` restrict to one op kind and read 0 on a
/// workload that sends none of it.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graph.resolve_ms", "ms"),
    ("noc.route_table_build_ms", "ms"),
    ("noc.route_table_builds", "count"),
    ("noc.traffic_kernels_ms", "ms"),
    ("mapping.map_ms", "ms"),
    ("core.tile_precompute_self_ms", "ms"),
    ("core.engine_walk_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.delta_apply_ms", "ms"),
    ("core.allocs_per_op", "count"),
    ("core.alloc_mb_per_op", "MB"),
    ("core.stage_coverage", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.worker_overhead_ms", "ms"),
    ("serve.router_ms", "ms"),
    ("serve.client_ms", "ms"),
    ("serve.bytes_out_per_op", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.router_retries", "count"),
    ("other_ms", "ms"),
    ("other_share", "ratio"),
    ("read.serve.queue_wait_ms", "ms"),
    ("read.serve.worker_overhead_ms", "ms"),
    ("read.serve.router_ms", "ms"),
    ("read.serve.client_ms", "ms"),
    ("read.serve.bytes_out_per_op", "bytes"),
    ("write.serve.queue_wait_ms", "ms"),
    ("write.serve.worker_overhead_ms", "ms"),
    ("write.serve.router_ms", "ms"),
    ("write.serve.client_ms", "ms"),
    ("write.serve.bytes_out_per_op", "bytes"),
    ("write.other_ms", "ms"),
    ("read_latency_ms.p50", "ms"),
    ("write_latency_ms.p50", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    serve: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut serve = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve" => serve = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        serve: serve.ok_or("--serve is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // the in-process replay runs the engine under the same pool width
    // as the worker
    std::env::set_var("AURORA_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aurora-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = match (args.workload.as_str(), args.trace) {
        ("all", true) => Workload::ALL.to_vec(),
        (name, _) => match Workload::parse(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("aurora-perfbench: unknown workload {name}");
                return ExitCode::from(2);
            }
        },
    };
    if let Err(e) = cluster::pin_to_one_cpu() {
        eprintln!("aurora-perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let run_dir = PathBuf::from(".bench_run").join(format!("run-{}", std::process::id()));
    let result = run(&args, &workloads, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aurora-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the requested workloads and returns the result line.
fn run(args: &Args, workloads: &[Workload], run_dir: &Path) -> Result<String, String> {
    // absolute: the daemons start in their own directories
    let serve = args
        .serve
        .canonicalize()
        .map_err(|e| format!("no daemon binary at {}: {e}", args.serve.display()))?;
    if !args.trace {
        let inputs = Inputs::new(workloads[0], args.seed, args.seconds);
        let untraced = measure::run(&serve, run_dir, &inputs, SETUPS, false)?;
        return Ok(result_line(&[&untraced], &end_to_end(&untraced)));
    }
    let mut columns = Vec::new();
    let mut runs = Vec::new();
    let mut metrics = Vec::new();
    for &w in workloads {
        let inputs = Inputs::new(w, args.seed, args.seconds);
        let dir = run_dir.join(w.name());
        let untraced = measure::run(&serve, &dir, &inputs, 1, false)?;
        let mut traced = measure::run(&serve, &dir.join("traced"), &inputs, 1, true)?;
        if traced.sim_cycles != untraced.sim_cycles {
            traced
                .errors
                .push("profiling changed the simulated cycles".into());
        }
        let traces = layers::join(&traced, &inputs)?;
        let mut values = layers::per_layer(&traces);
        values.insert(
            "trace.overhead_pct".into(),
            (untraced.window.throughput() / traced.window.throughput() - 1.0) * 100.0,
        );
        for (kind, name) in [
            (Kind::Read, "read_latency_ms.p50"),
            (Kind::Write, "write_latency_ms.p50"),
        ] {
            values.insert(
                name.into(),
                median(&untraced.window.latencies_ms(Some(kind))),
            );
        }
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values[name]))
            .collect();
        columns.push(Column::new(w, &untraced, &traced, values));
        runs.extend([untraced, traced]);
    }
    print_table(&columns);
    if workloads.len() > 1 {
        // the table is the report; metric names are per workload
        metrics.clear();
    }
    Ok(result_line(&runs.iter().collect::<Vec<_>>(), &metrics))
}

fn end_to_end(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let attempted = run.window.samples.len() + run.errors.len();
    let values = [
        run.window.throughput(),
        median(&run.window.latencies_ms(None)),
        median(&run.setup_s),
        run.peak_rss_mib,
        run.sim_cycles[0] as f64,
        run.window.completed() as f64 / attempted as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

fn result_line(runs: &[&Run], metrics: &[(&str, &str, f64)]) -> String {
    let attempted: usize = runs
        .iter()
        .map(|r| r.window.samples.len() + r.errors.len())
        .sum();
    let failed: usize = runs
        .iter()
        .map(|r| r.window.failed() + r.errors.len())
        .sum();
    for e in runs.iter().flat_map(|r| &r.errors) {
        eprintln!("aurora-perfbench: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

/// Median of a sorted-or-not sample (mean of the middle two when even).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it, of
/// a sorted sample: `(label, value)`.
fn tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let n = sorted.len();
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| n as f64 * (1.0 - q) >= 10.0)
        .map(|(label, q)| {
            (
                label,
                sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
            )
        })
}

/// One workload's (or op kind's) column of the stage table.
struct Column {
    name: String,
    values: BTreeMap<String, f64>,
    /// The key prefix of the column's op kind ("" for all ops).
    prefix: &'static str,
    latency: String,
}

impl Column {
    /// The workload's column, plus one per op kind when it sends both.
    fn new(
        w: Workload,
        untraced: &Run,
        traced: &Run,
        values: BTreeMap<String, f64>,
    ) -> Vec<Column> {
        let kinds = [
            (None, "", ""),
            (Some(Kind::Read), "read.", "/read"),
            (Some(Kind::Write), "write.", "/write"),
        ];
        let mixed = values["read.ops"] > 0.0 && values["write.ops"] > 0.0;
        kinds
            .into_iter()
            .filter(|(kind, _, _)| kind.is_none() || mixed)
            .map(|(kind, prefix, suffix)| {
                let fmt = |run: &Run| {
                    let lat = run.window.latencies_ms(kind);
                    let tail = tail(&lat).map_or(String::new(), |(l, v)| format!(" {l} {v:.3}"));
                    format!("p50 {:.3}{tail} (n={})", median(&lat), lat.len())
                };
                Column {
                    name: format!("{}{suffix}", w.name()),
                    values: values.clone(),
                    prefix,
                    latency: format!("untraced {} | traced {}", fmt(untraced), fmt(traced)),
                }
            })
            .collect()
    }

    /// A serve-layer value for this column's op kind, or an engine/count
    /// value (shared by all kinds of one workload).
    fn get(&self, key: &str, per_kind: bool) -> f64 {
        let key = if per_kind {
            format!("{}{key}", self.prefix)
        } else {
            key.to_string()
        };
        self.values.get(&key).copied().unwrap_or(0.0)
    }
}

/// The stage × workload table: client-observed latency split into
/// layers, with the unexplained remainder as `other`.
fn print_table(columns: &[Vec<Column>]) {
    let cols: Vec<&Column> = columns.iter().flatten().collect();
    let mut out = String::new();
    let header: String = cols.iter().map(|c| format!("{:>16}", c.name)).collect();
    out.push_str(&format!("{:<34}{header}\n", "layer (ms per op)"));
    let row = |out: &mut String, label: &str, f: &dyn Fn(&Column) -> f64| {
        let cells: String = cols.iter().map(|c| format!("{:>16.4}", f(c))).collect();
        out.push_str(&format!("{label:<34}{cells}\n"));
    };
    for (label, key) in [
        ("client (socket, framing)", "serve.client_ms"),
        ("router hop", "serve.router_ms"),
        ("worker overhead", "serve.worker_overhead_ms"),
        ("queue wait", "serve.queue_wait_ms"),
    ] {
        row(&mut out, label, &|c| c.get(key, true));
    }
    for (_, key) in layers::STAGES {
        row(&mut out, &format!("  {key}"), &|c| {
            c.get(&format!("stage_per_op.{key}"), true)
        });
    }
    row(&mut out, "    of which mapping.map_ms", &|c| {
        c.get("stage_per_op.mapping.map_ms", true)
    });
    row(&mut out, "other (unexplained)", &|c| {
        c.get("other_ms", true)
    });
    row(&mut out, "= client-observed latency (mean)", &|c| {
        c.get("latency_ms.mean", true)
    });
    row(&mut out, "other share", &|c| {
        let lat = c.get("latency_ms.mean", true);
        if lat > 0.0 {
            c.get("other_ms", true) / lat
        } else {
            0.0
        }
    });
    for (label, key) in [
        ("core.execute_ms (per engine op)", "core.execute_ms"),
        ("core.delta_apply_ms", "core.delta_apply_ms"),
        ("noc.route_table_builds", "noc.route_table_builds"),
        ("core.allocs_per_op", "core.allocs_per_op"),
        ("core.alloc_mb_per_op", "core.alloc_mb_per_op"),
        ("core.stage_coverage", "core.stage_coverage"),
        ("serve.cache_hit_ratio", "serve.cache_hit_ratio"),
        ("serve.router_retries", "serve.router_retries"),
        ("trace.overhead_pct", "trace.overhead_pct"),
    ] {
        row(&mut out, label, &|c| c.get(key, false));
    }
    row(&mut out, "serve.bytes_out_per_op", &|c| {
        c.get("serve.bytes_out_per_op", true)
    });
    out.push_str("client-observed latency, ms:\n");
    for c in &cols {
        out.push_str(&format!("  {:<16} {}\n", c.name, c.latency));
    }
    print!("{out}");
}
