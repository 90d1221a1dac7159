//! Admission control and scheduling: the in-process heart of the
//! daemon, usable (and tested) without any socket.
//!
//! Request lifecycle:
//!
//! 1. **Lookup** — the request digest is checked against the result
//!    cache. A ready report answers immediately; an identical in-flight
//!    run is joined (single-flight). Both count as `serve.cache.hits`.
//! 2. **Admission** — a leader tries to enqueue its job on the bounded
//!    queue. A full queue is an immediate typed
//!    [`ServeError::Overloaded`] — admission never blocks, so a
//!    saturated daemon degrades into fast rejections instead of
//!    unbounded latency.
//! 3. **Execution** — worker threads pop jobs in FIFO order and run the
//!    engine through the canonical [`AuroraSimulator::run_with`], which
//!    resolves spec graphs through the service's one bounded
//!    [`GraphCache`] (a repeated spec is synthesized once, and a
//!    repeated plan on it replays the cache's warm tile state); panics
//!    are caught and surfaced as internal errors, and a panicking run's
//!    warm state is dropped rather than returned. The leader (and any
//!    followers) wait on the flight with the per-request timeout. A
//!    timed-out waiter abandons the wait, but the job still completes
//!    and warms the cache.
//! 4. **Drain** — [`SimService::drain`] stops admission (new requests
//!    get [`ServeError::ShuttingDown`]), lets queued jobs finish, and
//!    joins the workers.
//!
//! Session lines (the `"session"` verb) skip the result cache and the
//! queue: they run on the connection thread against the [`GraphCache`]'s
//! store of warm entries, under the same panic guard as a job.
//!
//! Every request is also *observed*: [`SimService::handle_traced`]
//! returns an [`AccessRecord`] alongside the result (the transport
//! fills in `bytes_out` and writes it through the service's
//! [`EventLog`]), slow and failed requests land in the bounded
//! [`FlightRecorder`], and [`SimService::stats`] condenses the live
//! state plus the `serve.*` metrics into one serializable
//! [`ServiceStats`] for the `{"admin":"stats"}` command.

use crate::cache::{Lookup, ResultCache};
use crate::error::ServeError;
use crate::observe::{
    AccessRecord, EventLog, FlightProfile, FlightRecord, FlightRecorder, JobTiming, NullLog,
    Outcome,
};
use aurora_core::{
    metric_names as names, AuroraSimulator, GraphCache, Histogram, Scope, SessionCommand,
    SessionError, SessionReply, SimError, SimReport, SimRequest, Telemetry,
};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`SimService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads executing simulations. `0` means no pool: the
    /// leading caller runs its own job inline (useful in tests, where
    /// the caller controls the thread environment).
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it requests are rejected
    /// with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Result-cache capacity (completed reports retained, FIFO).
    pub cache_capacity: usize,
    /// Per-request wait budget in milliseconds.
    pub timeout_ms: u64,
    /// Flight-recorder slowness threshold: successful requests at least
    /// this slow (end to end) are recorded. `0` records every request;
    /// failures are recorded regardless.
    pub slow_ms: u64,
    /// Flight-recorder ring capacity (`0` disables recording).
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: rayon::configured_threads(),
            queue_depth: 64,
            cache_capacity: 256,
            timeout_ms: 30_000,
            slow_ms: 1_000,
            flight_capacity: 32,
        }
    }
}

/// A successfully answered request.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    pub digest: String,
    /// `true` when the report came from the cache or an in-flight join —
    /// i.e. this request ran no engine work of its own.
    pub cached: bool,
    /// `Hit`, `Join` or `Miss` — the cache path that answered.
    pub outcome: Outcome,
    /// Queue-wait/execute split of the led run (zeros for hits and
    /// joins, which ran nothing of their own).
    pub timing: JobTiming,
    pub report: Arc<SimReport>,
}

struct Job {
    digest: String,
    request: SimRequest,
    /// When the job entered the queue (or started inline), for the
    /// `serve.queue_wait_us` split.
    enqueued: Instant,
}

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Inner {
    cache: ResultCache,
    queue: Queue,
    draining: AtomicBool,
    inflight: AtomicI64,
    /// Monotonic request sequence, shared by the access log and the
    /// flight recorder.
    seq: AtomicU64,
    started: Instant,
    config: ServeConfig,
    telemetry: Telemetry,
    recorder: FlightRecorder,
    access_log: Arc<dyn EventLog>,
    /// The process's resolved graphs and warm tile state: the warm
    /// plans engine runs replay and the open sessions.
    graphs: GraphCache,
}

impl Inner {
    /// Runs one job's engine work and resolves its flight. Engine runs
    /// use a *disabled* telemetry handle: a long-running daemon must not
    /// grow an unbounded trace buffer, and per-run metric deltas would
    /// alias across concurrent requests. Service-level `serve.*`
    /// metrics live on the service handle instead.
    fn execute(&self, job: Job) {
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        let run_started = Instant::now();
        let sim = AuroraSimulator::new(job.request.config);
        let result =
            caught(|| sim.run_with(&job.request, Some(&self.graphs))).map_err(ServeError::Sim);
        self.export_graph_cache();
        let timing = JobTiming {
            queue_wait_us,
            execute_us: run_started.elapsed().as_micros() as u64,
        };
        self.cache.complete(&job.digest, result, timing);
    }

    /// Publishes the graph cache's totals, warm state included, as
    /// `serve.graph_cache.*` gauges.
    fn export_graph_cache(&self) {
        let graphs = &self.graphs;
        for (name, value) in [
            (names::SERVE_GRAPH_CACHE_HITS, graphs.hits()),
            (names::SERVE_GRAPH_CACHE_MISSES, graphs.misses()),
            (names::SERVE_GRAPH_CACHE_BYTES, graphs.bytes() as u64),
            (names::SERVE_GRAPH_CACHE_WARM_HITS, graphs.warm_hits()),
            (names::SERVE_GRAPH_CACHE_WARM_MISSES, graphs.warm_misses()),
            (
                names::SERVE_GRAPH_CACHE_WARM_BYTES,
                graphs.warm_bytes() as u64,
            ),
        ] {
            self.telemetry.gauge_set(name, &Scope::ROOT, value as f64);
        }
    }

    /// Runs one session op on the store, under the same panic guard
    /// as [`Self::execute`]: a panicking open or delta answers a typed
    /// internal error, and its entry went as the panic unwound.
    fn session(&self, cmd: &SessionCommand) -> Result<SessionReply, ServeError> {
        let graphs = &self.graphs;
        let sid = || cmd.sid.as_deref().expect("validated");
        let answer = caught(|| match cmd.op.as_str() {
            SessionCommand::OPEN => graphs.open_session(cmd.sim.as_ref().expect("validated")),
            SessionCommand::DELTA => {
                graphs.apply_delta(sid(), cmd.delta.as_ref().expect("validated"))
            }
            SessionCommand::CLOSE => graphs.close_session(sid()),
            _ => unreachable!("validate() rejected unknown ops"),
        });
        self.export_graph_cache();
        answer.map_err(|e| match e {
            SessionError::Sim(e) => ServeError::Sim(e),
            SessionError::Busy => ServeError::BadRequest(format!(
                "session {} is busy (delta in flight)",
                cmd.routing_digest().unwrap_or_default()
            )),
        })
    }

    fn worker_loop(&self) {
        loop {
            let mut jobs = self.queue.jobs.lock().unwrap();
            let job = loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if self.draining.load(Ordering::SeqCst) {
                    return;
                }
                jobs = self.queue.available.wait(jobs).unwrap();
            };
            drop(jobs);
            self.execute(job);
        }
    }
}

/// The concurrent simulation service: result cache + bounded queue +
/// worker pool. Cheap to clone-share via [`Arc`].
pub struct SimService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SimService {
    /// Builds the service and spawns its worker pool. `telemetry`
    /// receives the `serve.*` metrics (pass [`Telemetry::disabled`] to
    /// opt out). The access log is the [`NullLog`]; use
    /// [`SimService::with_access_log`] to plug a sink in.
    pub fn new(config: ServeConfig, telemetry: Telemetry) -> Self {
        Self::with_access_log(config, telemetry, Arc::new(NullLog))
    }

    /// [`SimService::new`] with an explicit access-log sink.
    pub fn with_access_log(
        config: ServeConfig,
        telemetry: Telemetry,
        access_log: Arc<dyn EventLog>,
    ) -> Self {
        let inner = Arc::new(Inner {
            cache: ResultCache::new(config.cache_capacity),
            queue: Queue {
                jobs: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            },
            draining: AtomicBool::new(false),
            inflight: AtomicI64::new(0),
            seq: AtomicU64::new(0),
            started: Instant::now(),
            config,
            telemetry,
            recorder: FlightRecorder::new(config.flight_capacity),
            access_log,
            graphs: GraphCache::new(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// A snapshot of the service's `serve.*` metrics, with the worker
    /// pool's `pool.*` gauges exported at the same instant — the admin
    /// `metrics` command and the Prometheus exposition both read this,
    /// so dashboards see engine-pool health next to request health.
    pub fn metrics(&self) -> aurora_core::MetricsSnapshot {
        aurora_core::export_pool_metrics(&self.inner.telemetry);
        self.inner.telemetry.snapshot()
    }

    /// Time since the service was built.
    pub fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// True once [`SimService::drain`] has started.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Requests currently inside the service (queued or executing).
    pub fn inflight(&self) -> u64 {
        self.inner.inflight.load(Ordering::SeqCst).max(0) as u64
    }

    /// Jobs waiting on the admission queue right now.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.jobs.lock().unwrap().len()
    }

    /// Ready entries in the result cache.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// The flight recorder's retained slow/error requests, oldest first.
    pub fn flights(&self) -> Vec<FlightRecord> {
        self.inner.recorder.dump()
    }

    /// Allocates the next request sequence number (also used by the
    /// transport for lines that never reach `handle_traced`).
    pub(crate) fn next_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Writes one finished access record through the configured sink.
    pub fn log_access(&self, record: &AccessRecord) {
        if !self.inner.access_log.enabled() {
            return;
        }
        let line = serde_json::to_string(record).expect("access record serializes");
        self.inner.access_log.emit(&line);
    }

    /// Answers one request: cache hit, in-flight join, or fresh engine
    /// run, under the configured timeout and queue budget.
    pub fn handle(&self, request: &SimRequest) -> Result<ServeOutcome, ServeError> {
        self.handle_traced(request).0
    }

    /// Open streaming sessions currently resident.
    pub fn session_len(&self) -> usize {
        self.inner.graphs.sessions()
    }

    /// Answers one session command (the `"session"` protocol verb):
    /// open runs the base request from scratch and keeps the session in
    /// the graph cache's store of warm entries, delta applies
    /// incrementally, close drops it and answers the final state.
    /// Returns the op's [`AccessRecord`] alongside (`bytes_out` is 0;
    /// the transport owns the wire size). Session
    /// lines share the sim lines' access log and error counters —
    /// dashboards see one request stream.
    pub fn handle_session_traced(
        &self,
        cmd: &SessionCommand,
    ) -> (Result<SessionReply, ServeError>, AccessRecord) {
        let inner = &*self.inner;
        let seq = self.next_seq();
        let started = Instant::now();
        let result = self.handle_session_inner(cmd);
        let latency_us = started.elapsed().as_micros() as u64;
        let tel = &inner.telemetry;
        tel.observe(names::SERVE_LATENCY_US, &Scope::ROOT, latency_us);
        if result.is_err() {
            tel.counter_add(names::SERVE_ERRORS, &Scope::ROOT, 1);
        }
        let outcome = match &result {
            Ok(reply) if reply.cached => Outcome::Hit,
            Ok(_) => Outcome::Miss,
            Err(e) => Outcome::of_error(e),
        };
        let record = AccessRecord {
            seq,
            digest: match &result {
                Ok(reply) => reply.digest.clone(),
                Err(_) => cmd.routing_digest().unwrap_or_default(),
            },
            workload: format!("session:{}", cmd.op),
            outcome: outcome.label().to_string(),
            queue_wait_us: 0,
            execute_us: if matches!(&result, Ok(r) if !r.cached) {
                latency_us
            } else {
                0
            },
            latency_us,
            bytes_out: 0,
            error: result.as_ref().err().map(|e| e.to_string()),
        };
        (result, record)
    }

    fn handle_session_inner(&self, cmd: &SessionCommand) -> Result<SessionReply, ServeError> {
        let inner = &*self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        cmd.validate().map_err(ServeError::Sim)?;
        let _inflight = InflightGuard::enter(inner);
        inner
            .telemetry
            .counter_add(names::SERVE_REQUESTS, &Scope::ROOT, 1);
        inner.session(cmd)
    }

    /// [`SimService::handle`] plus the request's [`AccessRecord`]. The
    /// record's `bytes_out` is 0 — the transport owns the wire size.
    /// Slow and failed requests are captured by the flight recorder
    /// here, so every entry point (socket or in-process) feeds it.
    pub fn handle_traced(
        &self,
        request: &SimRequest,
    ) -> (Result<ServeOutcome, ServeError>, AccessRecord) {
        let inner = &*self.inner;
        let seq = self.next_seq();
        let started = Instant::now();
        let result = self.handle_inner(request);
        let latency_us = started.elapsed().as_micros() as u64;

        let tel = &inner.telemetry;
        tel.observe(names::SERVE_LATENCY_US, &Scope::ROOT, latency_us);
        match &result {
            Err(ServeError::Overloaded { .. }) => {
                tel.counter_add(names::SERVE_REJECT_OVERLOADED, &Scope::ROOT, 1)
            }
            Err(ServeError::Timeout { .. }) => {
                tel.counter_add(names::SERVE_TIMEOUTS, &Scope::ROOT, 1)
            }
            Err(_) => tel.counter_add(names::SERVE_ERRORS, &Scope::ROOT, 1),
            Ok(_) => {}
        }

        let (outcome, timing, error) = match &result {
            Ok(o) => (o.outcome, o.timing, None),
            Err(e) => (
                Outcome::of_error(e),
                JobTiming::default(),
                Some(e.to_string()),
            ),
        };
        let record = AccessRecord {
            seq,
            digest: match &result {
                Ok(o) => o.digest.clone(),
                Err(_) => request.digest(),
            },
            workload: request.workload_label(),
            outcome: outcome.label().to_string(),
            queue_wait_us: timing.queue_wait_us,
            execute_us: timing.execute_us,
            latency_us,
            bytes_out: 0,
            error,
        };

        if outcome.is_failure() || latency_us >= inner.config.slow_ms.saturating_mul(1_000) {
            inner.recorder.record(FlightRecord {
                seq: record.seq,
                digest: record.digest.clone(),
                workload: record.workload.clone(),
                outcome: record.outcome.clone(),
                queue_wait_us: record.queue_wait_us,
                execute_us: record.execute_us,
                latency_us,
                error: record.error.clone(),
                request: serde::Serialize::to_value(request),
                profile: result
                    .as_ref()
                    .ok()
                    .and_then(|o| FlightProfile::of(&o.report)),
                // Only a led run has a fresh host profile of its own;
                // hits and joins would re-attribute the leader's.
                host_profile: result
                    .as_ref()
                    .ok()
                    .filter(|o| !o.cached)
                    .and_then(|o| o.report.host_profile.clone()),
            });
        }

        (result, record)
    }

    fn handle_inner(&self, request: &SimRequest) -> Result<ServeOutcome, ServeError> {
        let inner = &*self.inner;
        let tel = &inner.telemetry;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // Reject malformed requests before they take cache leadership.
        request.validate().map_err(ServeError::Sim)?;
        let digest = request.digest();
        let timeout = Duration::from_millis(inner.config.timeout_ms);

        let inflight = InflightGuard::enter(inner);
        tel.counter_add(names::SERVE_REQUESTS, &Scope::ROOT, 1);

        let flight = match inner.cache.lookup(&digest) {
            Lookup::Hit(report) => {
                tel.counter_add(names::SERVE_CACHE_HITS, &Scope::ROOT, 1);
                drop(inflight);
                return Ok(ServeOutcome {
                    digest,
                    cached: true,
                    outcome: Outcome::Hit,
                    timing: JobTiming::default(),
                    report,
                });
            }
            Lookup::Join(flight) => {
                let report = flight.wait(timeout)?;
                tel.counter_add(names::SERVE_CACHE_HITS, &Scope::ROOT, 1);
                drop(inflight);
                return Ok(ServeOutcome {
                    digest,
                    cached: true,
                    outcome: Outcome::Join,
                    timing: JobTiming::default(),
                    report,
                });
            }
            Lookup::Lead(flight) => flight,
        };
        tel.counter_add(names::SERVE_CACHE_MISSES, &Scope::ROOT, 1);

        let job = Job {
            digest: digest.clone(),
            request: request.clone(),
            enqueued: Instant::now(),
        };
        if inner.config.workers == 0 {
            // No pool: the leader executes inline on its own thread.
            inner.execute(job);
        } else {
            let rejected = {
                let mut jobs = inner.queue.jobs.lock().unwrap();
                if jobs.len() >= inner.config.queue_depth {
                    Some(jobs.len())
                } else {
                    jobs.push_back(job);
                    inner.queue.available.notify_one();
                    None
                }
            };
            if let Some(queued) = rejected {
                let err = ServeError::Overloaded {
                    queued,
                    capacity: inner.config.queue_depth,
                };
                // Release leadership so a later identical request can
                // lead; followers that already joined share the error.
                inner.cache.abort(&digest, err.clone());
                return Err(err);
            }
        }
        let report = flight.wait(timeout)?;
        // the worker measured the split and parked it on the flight
        let timing = flight.timing().unwrap_or_default();
        tel.observe(
            names::SERVE_QUEUE_WAIT_US,
            &Scope::ROOT,
            timing.queue_wait_us,
        );
        drop(inflight);
        Ok(ServeOutcome {
            digest,
            cached: false,
            outcome: Outcome::Miss,
            timing,
            report,
        })
    }

    /// Live + metric state condensed for `{"admin":"stats"}`.
    pub fn stats(&self) -> ServiceStats {
        let snap = self.metrics();
        let hits = snap.counter_total(names::SERVE_CACHE_HITS);
        let misses = snap.counter_total(names::SERVE_CACHE_MISSES);
        let answered = hits + misses;
        ServiceStats {
            status: if self.is_draining() { "draining" } else { "ok" }.to_string(),
            uptime_us: self.uptime().as_micros() as u64,
            requests: snap.counter_total(names::SERVE_REQUESTS),
            cache_hits: hits,
            cache_misses: misses,
            hit_ratio: if answered == 0 {
                0.0
            } else {
                hits as f64 / answered as f64
            },
            cache_size: self.cache_len() as u64,
            cache_capacity: self.inner.config.cache_capacity as u64,
            inflight: self.inflight(),
            queued: self.queue_len() as u64,
            queue_capacity: self.inner.config.queue_depth as u64,
            rejects: snap.counter_total(names::SERVE_REJECT_OVERLOADED),
            timeouts: snap.counter_total(names::SERVE_TIMEOUTS),
            errors: snap.counter_total(names::SERVE_ERRORS),
            latency_us: LatencySummary::of(
                snap.histogram_at(names::SERVE_LATENCY_US, &Scope::ROOT),
            ),
            queue_wait_us: LatencySummary::of(
                snap.histogram_at(names::SERVE_QUEUE_WAIT_US, &Scope::ROOT),
            ),
            flights: self.inner.recorder.len() as u64,
            graph_cache_hits: self.inner.graphs.hits(),
            graph_cache_misses: self.inner.graphs.misses(),
            graph_cache_bytes: self.inner.graphs.bytes() as u64,
            warm_hits: self.inner.graphs.warm_hits(),
            warm_misses: self.inner.graphs.warm_misses(),
            warm_bytes: self.inner.graphs.warm_bytes() as u64,
            warm_entries: self.inner.graphs.warm_entries() as u64,
            pool: PoolSummary::current(),
        }
    }

    /// Graceful shutdown: stop admitting, finish every queued job, join
    /// the workers. Idempotent.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue.available.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // workers == 0: queued jobs cannot exist (leaders ran inline)
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Quantile digest of one latency histogram, for stats payloads.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes a histogram; zeros when it was never observed.
    pub fn of(histogram: Option<&Histogram>) -> Self {
        match histogram {
            Some(h) => Self {
                count: h.count,
                mean_us: h.mean(),
                p50_us: h.p50(),
                p95_us: h.p95(),
                p99_us: h.p99(),
                max_us: h.max,
            },
            None => Self {
                count: 0,
                mean_us: 0.0,
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                max_us: 0,
            },
        }
    }
}

/// The `{"admin":"stats"}` payload: live service state plus the
/// `serve.*` metric family, one serializable struct.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceStats {
    /// `ok`, or `draining` once shutdown started.
    pub status: String,
    pub uptime_us: u64,
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Hits over answered (hits + misses); 0 before any answer.
    pub hit_ratio: f64,
    pub cache_size: u64,
    pub cache_capacity: u64,
    pub inflight: u64,
    pub queued: u64,
    pub queue_capacity: u64,
    pub rejects: u64,
    pub timeouts: u64,
    pub errors: u64,
    pub latency_us: LatencySummary,
    pub queue_wait_us: LatencySummary,
    /// Records currently retained by the flight recorder.
    pub flights: u64,
    /// Graph resolutions answered by the worker's graph cache.
    pub graph_cache_hits: u64,
    /// Graph resolutions that synthesized.
    pub graph_cache_misses: u64,
    /// CSR bytes resident in the graph cache.
    pub graph_cache_bytes: u64,
    /// Spec-graph runs that replayed the graph cache's warm state.
    pub warm_hits: u64,
    /// Spec-graph runs without warm state (cold, or admitting a plan).
    pub warm_misses: u64,
    /// Bytes of warm state (warm plans and open sessions) resident
    /// beside the cached graph.
    pub warm_bytes: u64,
    /// Warm entries resident: warm plans and open sessions.
    pub warm_entries: u64,
    /// Engine worker-pool counters (cumulative since process start).
    pub pool: PoolSummary,
}

/// The work-stealing pool's counters, condensed for stats payloads.
/// Cumulative over the life of the process, not this service alone.
#[derive(Debug, Clone, Serialize)]
pub struct PoolSummary {
    /// Pool size including the caller thread (≥ 1).
    pub workers: u64,
    /// Parallel regions executed, inline ones included.
    pub regions: u64,
    /// Deepest observed region nesting.
    pub max_depth: u64,
    pub tasks_executed: u64,
    pub tasks_stolen: u64,
    pub busy_us: u64,
    pub idle_us: u64,
}

impl PoolSummary {
    /// Snapshots the current pool.
    pub fn current() -> Self {
        let stats = rayon::current_stats();
        let totals = stats.totals();
        Self {
            workers: stats.threads as u64,
            regions: stats.regions,
            max_depth: stats.max_depth,
            tasks_executed: totals.executed,
            tasks_stolen: totals.stolen,
            busy_us: totals.busy_us,
            idle_us: totals.idle_us,
        }
    }
}

/// Runs `f`, answering a panic as a typed internal error.
fn caught<T, E: From<SimError>>(f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".into());
        Err(SimError::Internal(msg).into())
    })
}

/// RAII tracker of the `serve.inflight` gauge.
struct InflightGuard<'a> {
    inner: &'a Inner,
}

impl<'a> InflightGuard<'a> {
    fn enter(inner: &'a Inner) -> Self {
        let now = inner.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        inner
            .telemetry
            .gauge_set(names::SERVE_INFLIGHT, &Scope::ROOT, now as f64);
        Self { inner }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let now = self.inner.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.inner
            .telemetry
            .gauge_set(names::SERVE_INFLIGHT, &Scope::ROOT, now.max(0) as f64);
    }
}
