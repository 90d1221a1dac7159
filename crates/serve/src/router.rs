//! The cluster front-end: shards sim requests across worker daemons
//! with digest-affinity routing, health-aware failover, and aggregated
//! admin introspection.
//!
//! Topology: one router process speaks the same NDJSON protocol as a
//! single worker — clients cannot tell the difference — and forwards
//! each sim line to one of N [`Backend`] shards over the existing
//! [`Client`]. Placement is **rendezvous (highest-random-weight)
//! hashing** of the request's content digest against each shard's
//! stable name: identical requests always land on the same worker, so
//! its content-addressed `ResultCache` stays warm (the serving-layer
//! analogue of the accelerator's locality-aware tile mapping), and
//! when a shard dies only *its* digests move — the survivors' cache
//! residency is untouched, which a mod-N scheme cannot promise.
//!
//! Failure model, in increasing severity:
//!
//! * **Stale pooled connection** (worker restarted): retried once on a
//!   fresh connection to the *same* shard — affinity is preserved.
//! * **Connection failure / worker answered `shutting_down` or
//!   `overloaded`**: the shard is marked down (resp. draining) and the
//!   request retries on the next-best shard by rendezvous order, each
//!   shard at most once. A killed worker therefore costs zero
//!   client-visible errors while its digests re-warm elsewhere.
//! * **Router-level read deadline**: surfaced to the client as a typed
//!   `timeout` — *not* retried, because the worker may still be
//!   computing (its own per-request timeout answers first in the
//!   normal case) and duplicating a long run on another shard would
//!   double the cluster's work.
//! * **No routable shard**: a typed `unavailable` error.
//!
//! The prober thread re-checks every shard each `probe_interval` via
//! `{"admin":"health"}` and respawns supervised workers under bounded
//! exponential backoff (see [`Backend::probe_and_heal`]).
//!
//! Admin on the router socket: `health` answers locally with per-shard
//! states; `stats` fans out to every live shard and returns the
//! aggregate (sums for counters, element-wise maxima for latency
//! quantiles — which preserves p50 ≤ p95 ≤ p99) alongside each shard's
//! raw stats body.

use crate::backend::{Backend, BackendHealth};
use crate::error::ServeError;
use crate::observe::{EventLog, NullLog};
use crate::server::{parse_reply, Client, ClientOptions, LineHandler};
use crate::wire::{self, Line};
use aurora_core::{fnv1a64, SimResponse};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Router`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// How often the prober re-checks every shard.
    pub probe_interval: Duration,
    /// Budget for establishing any connection to a shard.
    pub connect_timeout: Duration,
    /// Read deadline for a forwarded response. Must comfortably exceed
    /// the workers' per-request `timeout_ms`, so the worker's own typed
    /// timeout answers first and the router deadline only catches a
    /// wedged peer.
    pub read_timeout: Duration,
    /// First respawn backoff step; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(200),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Murmur3's 64-bit avalanche finalizer. Raw FNV is too linear for
/// rendezvous comparison — with a shared digest suffix the inter-shard
/// score *differences* are nearly digest-independent, so one shard wins
/// almost every digest. The finalizer makes the ordering pseudorandom
/// per digest while staying a pure function.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The rendezvous score of `digest` on the shard called `name`. Pure
/// and stable: affinity survives router restarts because it depends
/// only on the two strings.
pub fn hrw_score(name: &str, digest: &str) -> u64 {
    fmix64(fnv1a64(&[name.as_bytes(), digest.as_bytes()]))
}

/// One router access-log line: where a sim request went and how.
#[derive(Debug, Clone, Serialize)]
pub struct RouteRecord {
    /// Monotonic per-router request number (1-based).
    pub seq: u64,
    /// Request digest ("" when the line never parsed).
    pub digest: String,
    /// Shard that answered ("" when none did).
    pub shard: String,
    /// `ok` | `failover` (ok after ≥1 retry) | `timeout` | `reject`
    /// (router draining) | `error` (bad line) | `unavailable`.
    pub outcome: String,
    /// Forward attempts beyond the first.
    pub retries: u64,
    /// End-to-end router latency, µs.
    pub latency_us: u64,
    /// Response line size, newline included.
    pub bytes_out: u64,
}

/// Live routing counters for the `stats` admin reply.
#[derive(Debug, Clone, Serialize)]
pub struct RouterTotals {
    /// Sim lines routed (admin traffic excluded).
    pub routed: u64,
    /// Forward attempts beyond the first, summed.
    pub retries: u64,
    /// Requests that succeeded only after moving to another shard.
    pub failovers: u64,
    /// Requests answered `unavailable` (no routable shard).
    pub unavailable: u64,
    pub shards: u64,
    pub healthy: u64,
}

/// The cluster-wide stats aggregate: counter fields are sums over the
/// live shards, latency quantiles are element-wise maxima (an upper
/// bound per quantile that keeps p50 ≤ p95 ≤ p99 ordered), `hit_ratio`
/// is recomputed from the summed hits and misses.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusterStats {
    pub status: String,
    pub shards_reporting: u64,
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub hit_ratio: f64,
    pub cache_size: u64,
    pub inflight: u64,
    pub queued: u64,
    pub rejects: u64,
    pub timeouts: u64,
    pub errors: u64,
    pub graph_cache_hits: u64,
    pub graph_cache_misses: u64,
    pub graph_cache_bytes: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub warm_bytes: u64,
    pub warm_entries: u64,
    pub latency_us: QuantileBound,
    pub queue_wait_us: QuantileBound,
}

/// Element-wise upper bound of per-shard latency digests.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QuantileBound {
    /// Samples across all shards (summed).
    pub count: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl QuantileBound {
    fn absorb(&mut self, stats: &serde_json::Value, field: &str) {
        let at = |key: &str| {
            stats
                .get(field)
                .and_then(|v| v.get(key))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        self.count += at("count");
        self.p50_us = self.p50_us.max(at("p50_us"));
        self.p95_us = self.p95_us.max(at("p95_us"));
        self.p99_us = self.p99_us.max(at("p99_us"));
        self.max_us = self.max_us.max(at("max_us"));
    }
}

#[derive(Debug, Serialize)]
struct ShardHealth {
    name: String,
    endpoint: String,
    health: String,
    pid: Option<u32>,
    respawns: u64,
}

#[derive(Debug, Serialize)]
struct RouterHealthReply {
    id: u64,
    admin: String,
    /// `ok`, or `draining` once shutdown started — same field the
    /// single-process daemon answers, so pollers need no special case.
    status: String,
    role: String,
    uptime_us: u64,
    shards: Vec<ShardHealth>,
}

#[derive(Debug, Serialize)]
struct ShardStats {
    name: String,
    health: String,
    /// The shard's raw `ServiceStats` body; `None` when it could not be
    /// scraped this instant.
    stats: Option<serde_json::Value>,
}

#[derive(Debug, Serialize)]
struct RouterStatsReply {
    id: u64,
    admin: String,
    role: String,
    router: RouterTotals,
    /// The cluster aggregate, shaped like a `ServiceStats` where
    /// summation makes sense.
    stats: ClusterStats,
    shards: Vec<ShardStats>,
}

/// The sharding front-end. Implements [`LineHandler`], so
/// [`serve_with`](crate::server::serve_with) hosts it exactly like a
/// [`SimService`](crate::service::SimService).
pub struct Router {
    backends: Vec<Arc<Backend>>,
    config: RouterConfig,
    draining: AtomicBool,
    started: Instant,
    seq: AtomicU64,
    routed: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    unavailable: AtomicU64,
    access_log: Arc<dyn EventLog>,
    prober_stop: Arc<AtomicBool>,
    prober: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Builds a router over `backends` (not yet started — call
    /// [`Router::start`]).
    pub fn new(backends: Vec<Arc<Backend>>, config: RouterConfig) -> Self {
        Self::with_access_log(backends, config, Arc::new(NullLog))
    }

    /// [`Router::new`] with a route-record sink (one NDJSON
    /// [`RouteRecord`] per sim line, admin traffic excluded).
    pub fn with_access_log(
        backends: Vec<Arc<Backend>>,
        config: RouterConfig,
        access_log: Arc<dyn EventLog>,
    ) -> Self {
        Self {
            backends,
            config,
            draining: AtomicBool::new(false),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            access_log,
            prober_stop: Arc::new(AtomicBool::new(false)),
            prober: Mutex::new(None),
        }
    }

    /// The shards, in construction order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.backends
    }

    /// Launches supervised workers and starts the prober thread.
    pub fn start(self: &Arc<Self>) -> Result<(), ServeError> {
        for b in &self.backends {
            b.start()?;
        }
        let me = Arc::clone(self);
        let stop = Arc::clone(&self.prober_stop);
        let handle = std::thread::Builder::new()
            .name("router-prober".into())
            .spawn(move || {
                let opts = me.probe_options();
                while !stop.load(Ordering::SeqCst) {
                    for b in &me.backends {
                        b.probe_and_heal(opts, me.config.backoff_base, me.config.backoff_cap);
                    }
                    // sleep in short steps so drain never waits long on us
                    let deadline = Instant::now() + me.config.probe_interval;
                    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            })
            .map_err(|e| ServeError::Io(format!("spawn prober: {e}")))?;
        *self.prober.lock().expect("prober handle") = Some(handle);
        Ok(())
    }

    /// Blocks until every shard probes healthy, or `budget` elapses.
    /// Returns the number of healthy shards either way. Requires
    /// [`Router::start`] (the prober does the probing).
    pub fn wait_ready(&self, budget: Duration) -> usize {
        let deadline = Instant::now() + budget;
        loop {
            let healthy = self
                .backends
                .iter()
                .filter(|b| b.health() == BackendHealth::Ok)
                .count();
            if healthy == self.backends.len() || Instant::now() >= deadline {
                return healthy;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn probe_options(&self) -> ClientOptions {
        ClientOptions {
            connect_timeout: Some(self.config.connect_timeout),
            // health replies are tiny; the connect budget is plenty
            read_timeout: Some(self.config.connect_timeout),
        }
    }

    fn forward_options(&self) -> ClientOptions {
        ClientOptions {
            connect_timeout: Some(self.config.connect_timeout),
            read_timeout: Some(self.config.read_timeout),
        }
    }

    /// True once [`Router::drain`] has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The shard `digest` routes to right now (highest rendezvous score
    /// among routable shards), or `None` when none is routable.
    pub fn shard_for(&self, digest: &str) -> Option<&str> {
        self.pick(digest, &[])
            .map(|i| self.backends[i].name.as_str())
    }

    /// Rendezvous winner among routable shards, skipping `excluded`.
    fn pick(&self, digest: &str, excluded: &[usize]) -> Option<usize> {
        self.backends
            .iter()
            .enumerate()
            .filter(|(i, b)| !excluded.contains(i) && b.health().routable())
            .max_by_key(|(_, b)| hrw_score(&b.name, digest))
            .map(|(i, _)| i)
    }

    /// One forward attempt against one shard. A stale pooled connection
    /// is retried once on a fresh connection to the same shard;
    /// timeouts and fresh-connection failures propagate.
    fn forward(&self, backend: &Backend, line: &str) -> Result<String, ServeError> {
        if let Some(mut client) = backend.checkout() {
            match client.roundtrip(line) {
                Ok(reply) => {
                    backend.checkin(client);
                    return Ok(reply);
                }
                // a timed-out connection has a response in flight we
                // will never read — drop it, and don't mask the timeout
                Err(e @ ServeError::Timeout { .. }) => return Err(e),
                // stale pooled stream (worker restarted): fall through
                // to a fresh connection, same shard
                Err(_) => {}
            }
        }
        let mut client = Client::connect_with(&backend.endpoint, self.forward_options())?;
        let reply = client.roundtrip(line)?;
        backend.checkin(client);
        Ok(reply)
    }

    /// Routes one decoded sim or session line by `digest` (its error
    /// when the line cannot be routed) and writes its route record.
    fn route(&self, line: &str, id: u64, digest: Result<String, ServeError>) -> String {
        let started = Instant::now();
        let mut record = RouteRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            digest: String::new(),
            shard: String::new(),
            outcome: String::new(),
            retries: 0,
            latency_us: 0,
            bytes_out: 0,
        };
        self.routed.fetch_add(1, Ordering::Relaxed);
        let reply = self.place(line, id, digest, &mut record);
        if self.access_log.enabled() {
            record.latency_us = started.elapsed().as_micros() as u64;
            record.bytes_out = reply.len() as u64 + 1;
            self.access_log
                .emit(&serde_json::to_string(&record).expect("route record serializes"));
        }
        reply
    }

    /// Picks a shard by rendezvous and forwards with
    /// at-most-once-per-shard retries, answering locally only when
    /// nothing can. Fills in where the line went and how.
    fn place(
        &self,
        line: &str,
        id: u64,
        digest: Result<String, ServeError>,
        record: &mut RouteRecord,
    ) -> String {
        let local = |record: &mut RouteRecord, outcome: &str, err: ServeError| {
            record.outcome = outcome.to_string();
            let reply = SimResponse::err(id, record.digest.clone(), err.to_wire());
            serde_json::to_string(&reply).expect("response serializes")
        };
        if self.is_draining() {
            return local(record, "reject", ServeError::ShuttingDown);
        }
        match digest {
            Ok(digest) => record.digest = digest,
            Err(err) => return local(record, "error", err),
        }

        let mut excluded: Vec<usize> = Vec::new();
        let mut last_error: Option<ServeError> = None;
        loop {
            record.retries = excluded.len() as u64;
            let Some(i) = self.pick(&record.digest, &excluded) else {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
                let err = last_error.take().unwrap_or_else(|| {
                    ServeError::Unavailable(format!(
                        "none of {} shard(s) routable",
                        self.backends.len()
                    ))
                });
                // a shard-level timeout stays a timeout; everything
                // else collapses to unavailable for the client
                return match err {
                    e @ ServeError::Timeout { .. } => local(record, "timeout", e),
                    e => local(
                        record,
                        "unavailable",
                        ServeError::Unavailable(e.to_string()),
                    ),
                };
            };
            let backend = &self.backends[i];
            match self.forward(backend, line) {
                Ok(reply_line) => {
                    // Application-level failover: a shard that is
                    // draining or saturated answered, but another shard
                    // can still serve the request.
                    match reply_error_kind(&reply_line) {
                        Some("shutting_down") => {
                            backend.mark_draining();
                            excluded.push(i);
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            last_error = Some(ServeError::ShuttingDown);
                            continue;
                        }
                        Some("overloaded") => {
                            excluded.push(i);
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            last_error = Some(ServeError::Overloaded {
                                queued: 0,
                                capacity: 0,
                            });
                            continue;
                        }
                        _ => {}
                    }
                    record.shard = backend.name.clone();
                    record.outcome = if excluded.is_empty() {
                        "ok".to_string()
                    } else {
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        "failover".to_string()
                    };
                    return reply_line;
                }
                Err(e @ ServeError::Timeout { .. }) => {
                    // the worker may still be computing; don't duplicate
                    // the run elsewhere — surface the timeout
                    record.shard = backend.name.clone();
                    return local(record, "timeout", e);
                }
                Err(e) => {
                    backend.mark_down();
                    excluded.push(i);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    last_error = Some(e);
                }
            }
        }
    }

    /// Routing counters plus shard census.
    pub fn totals(&self) -> RouterTotals {
        RouterTotals {
            routed: self.routed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            shards: self.backends.len() as u64,
            healthy: self
                .backends
                .iter()
                .filter(|b| b.health() == BackendHealth::Ok)
                .count() as u64,
        }
    }

    fn admin_dispatch(&self, id: u64, command: &str) -> String {
        let reply = match command {
            "health" => serde_json::to_string(&RouterHealthReply {
                id,
                admin: command.to_string(),
                status: if self.is_draining() { "draining" } else { "ok" }.to_string(),
                role: "router".to_string(),
                uptime_us: self.started.elapsed().as_micros() as u64,
                shards: self
                    .backends
                    .iter()
                    .map(|b| ShardHealth {
                        name: b.name.clone(),
                        endpoint: b.endpoint.to_string(),
                        health: b.health().label().to_string(),
                        pid: b.pid(),
                        respawns: b.respawns(),
                    })
                    .collect(),
            }),
            "stats" => {
                let (aggregate, shards) = self.aggregate_stats();
                serde_json::to_string(&RouterStatsReply {
                    id,
                    admin: command.to_string(),
                    role: "router".to_string(),
                    router: self.totals(),
                    stats: aggregate,
                    shards,
                })
            }
            other => serde_json::to_string(&SimResponse::err(
                id,
                "",
                ServeError::BadRequest(format!(
                    "admin command `{other}` is not served by the router \
                     (it has: health, stats; scrape workers directly for \
                     metrics and flights)"
                ))
                .to_wire(),
            )),
        };
        reply.expect("router admin reply serializes")
    }

    /// Scrapes `{"admin":"stats"}` from every non-down shard and folds
    /// the bodies into a [`ClusterStats`].
    fn aggregate_stats(&self) -> (ClusterStats, Vec<ShardStats>) {
        let mut agg = ClusterStats {
            status: if self.is_draining() { "draining" } else { "ok" }.to_string(),
            ..ClusterStats::default()
        };
        let mut shards = Vec::with_capacity(self.backends.len());
        for b in &self.backends {
            let health = b.health();
            let body = if health == BackendHealth::Down {
                None
            } else {
                self.forward(b, "{\"admin\":\"stats\"}")
                    .and_then(|line| parse_reply::<serde_json::Value>(&line))
                    .ok()
                    .and_then(|reply| reply.get("stats").cloned())
            };
            if let Some(stats) = &body {
                let at = |key: &str| stats.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
                agg.shards_reporting += 1;
                agg.requests += at("requests");
                agg.cache_hits += at("cache_hits");
                agg.cache_misses += at("cache_misses");
                agg.cache_size += at("cache_size");
                agg.inflight += at("inflight");
                agg.queued += at("queued");
                agg.rejects += at("rejects");
                agg.timeouts += at("timeouts");
                agg.errors += at("errors");
                agg.graph_cache_hits += at("graph_cache_hits");
                agg.graph_cache_misses += at("graph_cache_misses");
                agg.graph_cache_bytes += at("graph_cache_bytes");
                agg.warm_hits += at("warm_hits");
                agg.warm_misses += at("warm_misses");
                agg.warm_bytes += at("warm_bytes");
                agg.warm_entries += at("warm_entries");
                agg.latency_us.absorb(stats, "latency_us");
                agg.queue_wait_us.absorb(stats, "queue_wait_us");
            }
            shards.push(ShardStats {
                name: b.name.clone(),
                health: health.label().to_string(),
                stats: body,
            });
        }
        let answered = agg.cache_hits + agg.cache_misses;
        agg.hit_ratio = if answered == 0 {
            0.0
        } else {
            agg.cache_hits as f64 / answered as f64
        };
        (agg, shards)
    }

    /// Graceful cluster shutdown: stop routing (new sim lines answer
    /// `shutting_down`), stop the prober, then terminate every
    /// supervised worker and wait for each to finish draining its
    /// in-flight requests. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.prober_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.prober.lock().expect("prober handle").take() {
            let _ = handle.join();
        }
        for b in &self.backends {
            b.stop();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.drain();
    }
}

impl LineHandler for Router {
    /// Decodes the line once: admin commands answer locally, everything
    /// else routes. Session lines route by the command's pinned digest —
    /// `d₀` for every op of one session (open derives it from the base
    /// request, delta/close carry it as `sid`) — so the whole session
    /// rendezvous-hashes to the shard holding its warm state. A line
    /// that cannot be routed is answered here with the error a worker
    /// would give it.
    fn answer_line(&self, line: &str) -> String {
        let (id, digest) = match wire::decode(line) {
            Ok(Line::Admin { id, command }) => return self.admin_dispatch(id, &command),
            Ok(Line::Sim(req)) => (req.id, Ok(req.sim.digest())),
            Ok(Line::Session(s)) => (s.id, s.session.routing_digest().map_err(ServeError::Sim)),
            Err(bad) => (bad.id, Err(bad.error)),
        };
        self.route(line, id, digest)
    }

    /// Refused lines never reach a shard: they answer here and land in
    /// the route log as errors, like an undecodable line.
    fn refuse_line(&self, error: ServeError) -> String {
        self.route("", 0, Err(error))
    }

    fn drain(&self) {
        Router::drain(self)
    }
}

/// The `error.kind` of a response line, when it carries one. Only the
/// `error` member is built; the rest of the line (the report) is lexed
/// and checked, so an unparseable line still reads as no error.
fn reply_error_kind(line: &str) -> Option<&'static str> {
    let error = serde_json::from_str_member(line, "error").ok()??;
    let kind = error.get("kind")?.as_str()?;
    // normalize to 'static for the match sites; only the kinds the
    // router acts on are distinguished
    match kind {
        "shutting_down" => Some("shutting_down"),
        "overloaded" => Some("overloaded"),
        _ => Some("other"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn router(names: &[&str]) -> Router {
        let backends = names
            .iter()
            .map(|n| {
                Arc::new(Backend::external(
                    *n,
                    Endpoint::Unix(PathBuf::from(format!("/tmp/aurora-hrw-{n}.sock"))),
                ))
            })
            .collect();
        Router::new(backends, RouterConfig::default())
    }

    use crate::server::Endpoint;

    #[test]
    fn hrw_scores_are_pure_functions() {
        assert_eq!(hrw_score("w0", "abc"), hrw_score("w0", "abc"));
        assert_ne!(hrw_score("w0", "abc"), hrw_score("w1", "abc"));
        assert_ne!(hrw_score("w0", "abc"), hrw_score("w0", "abd"));
        // separator keeps (name, digest) unambiguous
        assert_ne!(hrw_score("w", "0abc"), hrw_score("w0", "abc"));
    }

    #[test]
    fn placement_is_deterministic_and_covers_all_shards() {
        let a = router(&["w0", "w1", "w2"]);
        let b = router(&["w0", "w1", "w2"]);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            let digest = format!("{i:016x}");
            let sa = a.shard_for(&digest).expect("routable").to_string();
            let sb = b.shard_for(&digest).expect("routable").to_string();
            assert_eq!(sa, sb, "same shards, same digest, same placement");
            seen.insert(sa);
        }
        assert_eq!(seen.len(), 3, "256 digests must spread over all 3 shards");
    }

    #[test]
    fn losing_a_shard_only_moves_its_own_digests() {
        let full = router(&["w0", "w1", "w2"]);
        let digests: Vec<String> = (0..256).map(|i| format!("{i:016x}")).collect();
        let before: Vec<String> = digests
            .iter()
            .map(|d| full.shard_for(d).unwrap().to_string())
            .collect();
        // take w1 out of the candidate set
        full.backends()[1].stop(); // marks it Down
        for (d, owner) in digests.iter().zip(&before) {
            let after = full.shard_for(d).unwrap();
            if owner != "w1" {
                assert_eq!(
                    after, owner,
                    "digest {d} moved off a surviving shard — rendezvous must not reshuffle"
                );
            } else {
                assert_ne!(after, "w1");
            }
        }
    }

    #[test]
    fn no_routable_shard_yields_none() {
        let r = router(&["w0"]);
        r.backends()[0].stop();
        assert!(r.shard_for("abc").is_none());
    }

    #[test]
    fn reply_error_kind_reads_the_wire_envelope() {
        assert_eq!(
            reply_error_kind(
                "{\"id\":1,\"digest\":\"\",\"cached\":false,\"report\":null,\
                 \"error\":{\"kind\":\"shutting_down\",\"message\":\"x\"}}"
            ),
            Some("shutting_down")
        );
        assert_eq!(
            reply_error_kind("{\"id\":1,\"error\":{\"kind\":\"sim\",\"message\":\"x\"}}"),
            Some("other")
        );
        assert_eq!(reply_error_kind("{\"id\":1,\"error\":null}"), None);
        assert_eq!(reply_error_kind("not json"), None);
        // `error` need not be the last member, and an `error` key nested
        // in the report is not the envelope's
        assert_eq!(
            reply_error_kind(
                "{\"id\":1,\"error\":{\"kind\":\"overloaded\",\"message\":\"x\"},\
                 \"report\":{\"error\":{\"kind\":\"shutting_down\"}}}"
            ),
            Some("overloaded")
        );
        assert_eq!(
            reply_error_kind(
                "{\"id\":1,\"report\":{\"error\":{\"kind\":\"shutting_down\"}},\"error\":null}"
            ),
            None
        );
        // a duplicated key: the first one wins
        assert_eq!(
            reply_error_kind(
                "{\"error\":{\"kind\":\"shutting_down\"},\"error\":{\"kind\":\"overloaded\"}}"
            ),
            Some("shutting_down")
        );
        // an unparseable reply reads as no error, wherever it breaks
        let shutting = "{\"id\":1,\"error\":{\"kind\":\"shutting_down\",\"message\":\"x\"}";
        for broken in [
            "[".repeat(1_000_000),
            format!("{shutting},\"report\":{}}}", "[".repeat(1_000_000)),
            format!("{shutting},\"report\":\"unterminated}}"),
            format!("{shutting},\"report\":{{\"cycles\":12"),
            format!("{shutting},\"report\":{{\"cycles\":-}}}}"),
            format!("{shutting}}} trailing"),
        ] {
            assert_eq!(reply_error_kind(&broken), None, "{}", &broken[..60]);
        }
        assert_eq!(
            reply_error_kind(&format!("{shutting}}}")),
            Some("shutting_down")
        );
    }
}
