//! Set-up and the closed-loop timed window.

use crate::cluster::{Cluster, Conn};
use crate::reply::{self, split_host_profile};
use crate::workload::{self, read_id, sim_line, Expect, Kind, Op, Stream, Workload};
use aurora_graph::Csr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one set-up leaves for the timed window.
pub struct Setup {
    /// Simulated cycles summed over the set-up's fixed requests.
    pub sim_cycles: u64,
    /// Sim and session lines sent (router and worker log one record each).
    pub lines: usize,
    /// `serve-mix`: the primed cached reply of each read.
    pub primed: Vec<String>,
    /// `serve-mix`: the open report's body, which every revert repeats.
    pub open_body: String,
}

/// One timed op as the client saw it.
pub struct Sample {
    pub kind: Kind,
    pub latency_us: f64,
    pub ok: bool,
    /// The engine's host profile, when the reply carries a fresh one.
    pub host_profile: Option<String>,
}

pub struct Window {
    pub ops: Vec<Op>,
    pub samples: Vec<Sample>,
    pub seconds: f64,
}

impl Window {
    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    pub fn failed(&self) -> usize {
        self.samples.len() - self.completed()
    }

    pub fn throughput(&self) -> f64 {
        self.completed() as f64 / self.seconds
    }

    /// Client-observed latencies of the completed ops of `kind` (all
    /// kinds when `None`), ms, sorted.
    pub fn latencies_ms(&self, kind: Option<Kind>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.latency_us / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Everything a measured run produced.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub sim_cycles: Vec<u64>,
    pub peak_rss_mib: f64,
    pub window: Window,
    /// Set-up and bookkeeping failures (counted beside the window's).
    pub errors: Vec<String>,
    pub setup_lines: usize,
    /// The traced cluster's directory, kept for its access logs.
    pub log_dir: Option<PathBuf>,
}

/// The inputs a run needs besides the daemons.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub mix_graph: Option<Csr>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mix_graph = (workload == Workload::ServeMix).then(workload::mix_graph);
        Self {
            workload,
            seed,
            seconds,
            mix_graph,
        }
    }

    pub fn stream(&self) -> Stream {
        Stream::new(self.workload, self.seed, self.mix_graph.as_ref())
    }
}

/// `setups` fresh clusters timed from spawn to ready-for-traffic; the
/// last one then serves the timed window. With `traced`, the last
/// cluster logs and profiles, and its directory is kept.
pub fn run(
    serve: &Path,
    dir: &Path,
    inputs: &Inputs,
    setups: usize,
    traced: bool,
) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut sim_cycles = Vec::new();
    let mut errors = Vec::new();
    for i in 0..setups {
        let cluster_dir = dir.join(format!("setup{i}"));
        let started = Instant::now();
        let cluster = Cluster::start(serve, &cluster_dir, traced && i + 1 == setups)?;
        let mut conn = cluster.connect()?;
        let setup = set_up(&mut conn, inputs.workload);
        setup_s.push(started.elapsed().as_secs_f64());
        let setup = match setup {
            Ok(setup) => setup,
            Err(e) => {
                drop(conn);
                let _ = cluster.stop();
                return Err(format!("set-up failed: {e}"));
            }
        };
        sim_cycles.push(setup.sim_cycles);
        if i + 1 < setups {
            drop(conn);
            cluster.stop()?;
            std::fs::remove_dir_all(&cluster_dir).ok();
            continue;
        }

        let window = timed_window(&mut conn, &mut inputs.stream(), &setup, inputs.seconds);
        let peak_rss_mib = cluster.worker_peak_rss_mib()?;
        if inputs.workload == Workload::ServeMix {
            // the session ends like a client's would; not timed
            let mut reply = String::new();
            let sid = workload::mix_base().digest();
            conn.roundtrip(&workload::close_line(1, &sid), &mut reply)?;
            if reply::parse(&reply).and_then(|r| r.report).is_none() {
                errors.push(format!("session close failed: {reply}"));
            }
        }
        drop(conn);
        let log_dir = traced.then(|| cluster.dir().to_path_buf());
        cluster.stop()?;
        if !traced {
            std::fs::remove_dir_all(&cluster_dir).ok();
        }
        if sim_cycles.iter().any(|&c| c != sim_cycles[0]) {
            errors.push(format!("sim_cycles differ between set-ups: {sim_cycles:?}"));
        }
        return Ok(Run {
            setup_s,
            sim_cycles,
            peak_rss_mib,
            window,
            errors,
            setup_lines: setup.lines,
            log_dir,
        });
    }
    Err("no set-up ran".into())
}

/// Answers the workload's fixed requests (and, for `serve-mix`, opens
/// the session and primes the reads), checking every reply.
fn set_up(conn: &mut Conn, workload: Workload) -> Result<Setup, String> {
    let mut reply = String::new();
    let mut setup = Setup {
        sim_cycles: 0,
        lines: 0,
        primed: Vec::new(),
        open_body: String::new(),
    };
    let mut ask = |conn: &mut Conn, line: &str, reply: &mut String| -> Result<(), String> {
        setup.lines += 1;
        conn.roundtrip(line, reply)
    };
    if workload == Workload::ServeMix {
        let base = workload::mix_base();
        ask(conn, &workload::open_line(1, &base), &mut reply)?;
        let r = reply::parse(&reply).ok_or("unparseable open reply")?;
        let report = r.report.ok_or_else(|| format!("open failed: {reply}"))?;
        if r.digest != base.digest() {
            return Err("open reply digest is not the base request's".into());
        }
        setup.sim_cycles += reply::total_cycles(report)?;
        setup.open_body = split_host_profile(report).0.to_string();
    }
    for (i, req) in workload::fixed_set(workload).iter().enumerate() {
        let id = read_id(i);
        let line = sim_line(id, req);
        ask(conn, &line, &mut reply)?;
        let r = reply::parse(&reply).ok_or("unparseable reply")?;
        let report = r.report.ok_or_else(|| format!("request failed: {reply}"))?;
        if r.digest != req.digest() || r.cached {
            return Err(format!("fixed request {i}: wrong digest or a cache hit"));
        }
        setup.sim_cycles += reply::total_cycles(report)?;
        if workload == Workload::ServeMix {
            let mut again = String::new();
            ask(conn, &line, &mut again)?;
            let hit = reply::parse(&again).ok_or("unparseable reply")?;
            if !hit.cached || hit.report != Some(report) || hit.digest != r.digest {
                return Err(format!("read {i} was not re-served from cache unchanged"));
            }
            setup.primed.push(again);
        }
    }
    Ok(setup)
}

/// The closed loop: one connection, each op sent when the previous
/// reply is in, for `seconds`. Latency runs from the send to the whole
/// reply line; checks run after it, inside the window.
fn timed_window(conn: &mut Conn, stream: &mut Stream, setup: &Setup, seconds: f64) -> Window {
    let mut ops = Vec::new();
    let mut samples = Vec::new();
    let mut reply = String::new();
    let mut laps: Vec<Option<String>> = Vec::new();
    let started = Instant::now();
    loop {
        let op = stream.next_op();
        let sent = Instant::now();
        let io = conn.roundtrip(&op.line, &mut reply);
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        // a broken connection ends the window: nothing after it is answered
        let broken = io.is_err();
        let (ok, host_profile) = match io {
            Ok(()) => check(&op, &reply, setup, &mut laps),
            Err(_) => (false, None),
        };
        samples.push(Sample {
            kind: op.kind,
            latency_us,
            ok,
            host_profile,
        });
        ops.push(op);
        if broken || started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Window {
        ops,
        samples,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Checks one reply against its op. Returns whether it is correct and
/// the fresh host profile it carries, if any.
fn check(
    op: &Op,
    line: &str,
    setup: &Setup,
    laps: &mut Vec<Option<String>>,
) -> (bool, Option<String>) {
    let Some(r) = reply::parse(line) else {
        return (false, None);
    };
    let Some(report) = r.report else {
        return (false, None);
    };
    let (body, profile) = split_host_profile(report);
    let ok = match &op.expect {
        Expect::Miss { digest } => !r.cached && r.digest == digest,
        Expect::Hit { index } => setup.primed.get(*index).is_some_and(|p| p == line),
        Expect::Delta {
            digest,
            window,
            revert,
        } => {
            let same_state = if *revert {
                body == setup.open_body
            } else {
                if laps.len() <= *window {
                    laps.resize(*window + 1, None);
                }
                let first = laps[*window].get_or_insert_with(|| body.to_string());
                first == body
            };
            !r.cached && r.digest == digest && same_state
        }
    };
    let fresh = !r.cached;
    (ok, profile.filter(|_| fresh).map(str::to_string))
}
