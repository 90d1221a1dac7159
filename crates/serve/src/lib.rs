//! `aurora-serve` — a concurrent simulation service in front of the
//! Aurora engine.
//!
//! This crate is the serving layer. A long-running daemon
//! ([`bin/aurora_serve`]) speaks newline-delimited JSON over a Unix
//! socket or TCP: each line is a [`ServeRequest`] envelope carrying a
//! serializable [`SimRequest`](aurora_core::SimRequest), each reply a
//! [`SimResponse`](aurora_core::SimResponse).
//!
//! Five layers, each independently testable:
//!
//! * [`cache`] — the bounded content-addressed result cache
//!   (request digest → [`SimReport`](aurora_core::SimReport), FIFO
//!   eviction, single-flight deduplication). Reports are deterministic
//!   pure functions of their request, so cached answers are exact.
//! * [`service`] — admission control and scheduling: a bounded queue in
//!   front of a worker pool, per-request timeouts, typed
//!   [`ServeError::Overloaded`] rejection instead of blocking, graceful
//!   drain, and `serve.*` telemetry.
//! * [`server`] — the NDJSON transport (listener, protocol loop, and a
//!   blocking [`Client`]). Every request line a worker or a router reads
//!   is decoded once, by the crate-private `wire` decoder: one JSON
//!   parse (nesting bounded at 128 levels), one typed lift, and one
//!   place that builds the reply and access record of a bad line.
//! * [`observe`] — the per-request observability plane: the structured
//!   access log behind the pluggable [`EventLog`] sink and the bounded
//!   [`FlightRecorder`] of slow/error requests.
//! * [`admin`] — the in-band introspection commands (`health`, `stats`,
//!   `metrics`, `flights`) answered on the same socket.
//!
//! Scale-out adds two more:
//!
//! * [`backend`] — one worker shard as seen by the router: health
//!   state, a small connection pool, and (for supervised workers)
//!   process lifecycle with bounded-backoff respawn.
//! * [`router`] — the sharding front-end: rendezvous digest-affinity
//!   placement, health-aware failover, and aggregated admin
//!   introspection, behind the same [`LineHandler`] transport as a
//!   single worker.

pub mod admin;
pub mod backend;
pub mod cache;
pub mod error;
pub mod observe;
pub mod router;
pub mod server;
pub mod service;
mod wire;

pub use backend::{
    Backend, BackendHealth, ProcessLauncher, ThreadLauncher, WorkerHandle, WorkerLauncher,
};
pub use cache::{Flight, Lookup, ResultCache};
pub use error::ServeError;
pub use observe::{
    AccessRecord, EventLog, FileLog, FlightProfile, FlightRecord, FlightRecorder, JobTiming,
    MemoryLog, NullLog, Outcome, StderrLog,
};
pub use router::{ClusterStats, RouteRecord, Router, RouterConfig, RouterTotals};
pub use server::{
    answer, serve, serve_with, Client, ClientOptions, Endpoint, LineHandler, ServeRequest,
    ServerOptions, SessionLine, MAX_LINE_BYTES,
};
pub use service::{LatencySummary, ServeConfig, ServeOutcome, ServiceStats, SimService};
