//! Canonical names of cross-crate metrics.
//!
//! Most probes name their metric at the call site; the constants here are
//! for metrics that are *written* by one crate and *asserted on* by
//! another (engine ↔ tests), where a typo'd string would silently record
//! into a fresh metric instead of failing to compile.

/// Route tables constructed (one per distinct `NocConfig` the engine's
/// traffic cache sees; a cached run builds each config's table once).
pub const NOC_ROUTE_TABLE_BUILDS: &str = "noc.route_table.builds";

/// Simulation requests admitted by the serve front end (accepted for
/// execution or answered from cache; rejected requests count under
/// [`SERVE_REJECT_OVERLOADED`] / [`SERVE_ERRORS`] instead).
pub const SERVE_REQUESTS: &str = "serve.requests";

/// Requests answered from the content-addressed result cache — including
/// followers that joined an identical in-flight simulation — without a
/// fresh engine run.
pub const SERVE_CACHE_HITS: &str = "serve.cache.hits";

/// Requests that led a fresh engine run (cache leader).
pub const SERVE_CACHE_MISSES: &str = "serve.cache.misses";

/// Requests currently inside the service (queued or executing). Gauge.
pub const SERVE_INFLIGHT: &str = "serve.inflight";

/// End-to-end request latency in microseconds, observed on every return
/// path (hit, miss, and error alike). Log2 histogram. **Inclusive**: a
/// sample covers queue wait, engine execution, and cache bookkeeping —
/// subtract [`SERVE_QUEUE_WAIT_US`] to isolate service time.
pub const SERVE_LATENCY_US: &str = "serve.latency_us";

/// Time a led job spent on the admission queue before a worker picked it
/// up, in microseconds. Log2 histogram, observed once per executed job
/// on the leader's return path (cache hits and joins queue nothing and
/// record nothing; a leader that times out waiting loses its sample).
pub const SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";

/// Requests rejected at admission because the bounded queue was full.
pub const SERVE_REJECT_OVERLOADED: &str = "serve.reject.overloaded";

/// Requests whose caller stopped waiting (the simulation still completes
/// and warms the cache).
pub const SERVE_TIMEOUTS: &str = "serve.timeouts";

/// Requests that failed with a typed error (bad request or `SimError`).
pub const SERVE_ERRORS: &str = "serve.errors";

/// Graph resolutions answered by the worker's resident graph cache
/// (no synthesis). Gauge holding the process total, refreshed after
/// every executed job and session open.
pub const SERVE_GRAPH_CACHE_HITS: &str = "serve.graph_cache.hits";

/// Graph resolutions that synthesized (spec not resident). Same gauge
/// discipline as [`SERVE_GRAPH_CACHE_HITS`].
pub const SERVE_GRAPH_CACHE_MISSES: &str = "serve.graph_cache.misses";

/// CSR bytes resident in the worker's graph cache. Gauge.
pub const SERVE_GRAPH_CACHE_BYTES: &str = "serve.graph_cache.bytes";

/// Spec-graph runs that replayed the graph cache's warm engine state
/// for their plan (no mapping, route tables or binning). Same gauge
/// discipline as [`SERVE_GRAPH_CACHE_HITS`].
pub const SERVE_GRAPH_CACHE_WARM_HITS: &str = "serve.graph_cache.warm_hits";

/// Spec-graph runs without warm state: cold, or filling a newly
/// admitted plan's state. Same gauge discipline.
pub const SERVE_GRAPH_CACHE_WARM_MISSES: &str = "serve.graph_cache.warm_misses";

/// Bytes of the warm engine state resident beside the cached graph.
/// Gauge.
pub const SERVE_GRAPH_CACHE_WARM_BYTES: &str = "serve.graph_cache.warm_bytes";

/// Every `serve.*` metric the service emits, for completeness tests: a
/// representative request mix must surface each of these in a snapshot,
/// so a typo'd or silently dropped probe fails a test instead of
/// shipping a dead dashboard panel.
pub const SERVE_ALL: &[&str] = &[
    SERVE_REQUESTS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_INFLIGHT,
    SERVE_LATENCY_US,
    SERVE_QUEUE_WAIT_US,
    SERVE_REJECT_OVERLOADED,
    SERVE_TIMEOUTS,
    SERVE_ERRORS,
    SERVE_GRAPH_CACHE_HITS,
    SERVE_GRAPH_CACHE_MISSES,
    SERVE_GRAPH_CACHE_BYTES,
    SERVE_GRAPH_CACHE_WARM_HITS,
    SERVE_GRAPH_CACHE_WARM_MISSES,
    SERVE_GRAPH_CACHE_WARM_BYTES,
];

/// Configured size of the work-stealing pool, counting the caller
/// thread (so ≥ 1 even when every region runs inline). Gauge at the
/// root scope.
pub const POOL_WORKERS: &str = "pool.workers";

/// Parallel regions executed since process start — including regions
/// the pool ran inline (single thread or single chunk). Gauge.
pub const POOL_REGIONS: &str = "pool.regions";

/// Deepest observed nesting of parallel regions on any one thread.
/// Gauge.
pub const POOL_MAX_DEPTH: &str = "pool.max_depth";

/// Region chunks executed, per worker (`phase="workerN"`; the caller
/// thread helping a region counts under `phase="caller"`). Gauge.
pub const POOL_TASKS_EXECUTED: &str = "pool.tasks.executed";

/// Chunks a thread took from *another* thread's deque rather than its
/// own. Same per-worker scoping as [`POOL_TASKS_EXECUTED`]. Gauge.
pub const POOL_TASKS_STOLEN: &str = "pool.tasks.stolen";

/// Wall microseconds a thread spent executing chunks (same per-worker
/// scoping). Gauge.
pub const POOL_BUSY_US: &str = "pool.busy_us";

/// Wall microseconds a worker spent parked waiting for work. The
/// caller's help-loop wait also counts here under `phase="caller"`.
/// Gauge.
pub const POOL_IDLE_US: &str = "pool.idle_us";

/// Every `pool.*` metric the pool-stats exporter emits, mirroring
/// [`SERVE_ALL`]: the completeness test drives a parallel workload and
/// asserts each name lands in the snapshot.
pub const POOL_ALL: &[&str] = &[
    POOL_WORKERS,
    POOL_REGIONS,
    POOL_MAX_DEPTH,
    POOL_TASKS_EXECUTED,
    POOL_TASKS_STOLEN,
    POOL_BUSY_US,
    POOL_IDLE_US,
];

/// Per-stage wall time from the host span profiler, exported with the
/// stage label as `phase`. Gauge, microseconds.
pub const HOST_SPAN_WALL_US: &str = "host.span.wall_us";

/// Per-stage span call count from the host span profiler. Gauge.
pub const HOST_SPAN_CALLS: &str = "host.span.calls";

/// Per-stage heap allocations attributed by the counting allocator
/// (`AURORA_ALLOC_PROFILE=1`). Gauge.
pub const HOST_ALLOC_COUNT: &str = "host.alloc.count";

/// Bytes requested by those allocations. Gauge.
pub const HOST_ALLOC_BYTES: &str = "host.alloc.bytes";

/// Every `host.*` metric the host-profile exporter emits, mirroring
/// [`SERVE_ALL`] for completeness tests.
pub const HOST_ALL: &[&str] = &[
    HOST_SPAN_WALL_US,
    HOST_SPAN_CALLS,
    HOST_ALLOC_COUNT,
    HOST_ALLOC_BYTES,
];
