//! The admin side of the NDJSON protocol: introspection commands on the
//! same socket the simulation traffic uses.
//!
//! A request line whose top-level object carries an `"admin"` key is an
//! admin command instead of a simulation envelope:
//!
//! ```text
//! → {"id": 3, "admin": "health"}
//! ← {"id": 3, "admin": "health", "status": "ok", "inflight": 2, ...}
//! ```
//!
//! Commands (the `id` is optional and echoes back, 0 by default):
//!
//! * `health` — readiness (`ok`/`draining`), inflight and queued counts,
//!   uptime. Cheap enough for a router's poll loop.
//! * `stats` — the full [`ServiceStats`]: cache size/hit-ratio, queue
//!   depth, p50/p95/p99 latency and queue-wait digests.
//! * `metrics` — the raw `MetricsSnapshot` plus its Prometheus text
//!   exposition ([`expo::render`]), ready for a scraper.
//! * `flights` — the flight recorder's retained slow/error requests.
//!
//! Unknown commands get a `bad_request` error response; admin traffic is
//! never access-logged (it would recursively inflate its own counters).

use crate::error::ServeError;
use crate::observe::FlightRecord;
use crate::service::{ServiceStats, SimService};
use aurora_core::{expo, MetricsSnapshot, SimResponse};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct HealthReply {
    id: u64,
    admin: String,
    /// `ok`, or `draining` once SIGTERM landed.
    status: String,
    inflight: u64,
    queued: u64,
    uptime_us: u64,
}

#[derive(Debug, Serialize)]
struct StatsReply {
    id: u64,
    admin: String,
    stats: ServiceStats,
}

#[derive(Debug, Serialize)]
struct MetricsReply {
    id: u64,
    admin: String,
    snapshot: MetricsSnapshot,
    /// Prometheus text exposition of `snapshot`.
    prometheus: String,
}

#[derive(Debug, Serialize)]
struct FlightsReply {
    id: u64,
    admin: String,
    slow_ms: u64,
    capacity: u64,
    flights: Vec<FlightRecord>,
}

/// Answers one decoded admin line: `command` under the client's `id`.
/// Returns the serialized response line.
pub fn dispatch(service: &SimService, id: u64, command: &str) -> String {
    let reply = match command {
        "health" => serde_json::to_string(&HealthReply {
            id,
            admin: command.to_string(),
            status: if service.is_draining() {
                "draining"
            } else {
                "ok"
            }
            .to_string(),
            inflight: service.inflight(),
            queued: service.queue_len() as u64,
            uptime_us: service.uptime().as_micros() as u64,
        }),
        "stats" => serde_json::to_string(&StatsReply {
            id,
            admin: command.to_string(),
            stats: service.stats(),
        }),
        "metrics" => {
            let snapshot = service.metrics();
            let prometheus = expo::render(&snapshot);
            serde_json::to_string(&MetricsReply {
                id,
                admin: command.to_string(),
                snapshot,
                prometheus,
            })
        }
        "flights" => serde_json::to_string(&FlightsReply {
            id,
            admin: command.to_string(),
            slow_ms: service.config().slow_ms,
            capacity: service.config().flight_capacity as u64,
            flights: service.flights(),
        }),
        other => serde_json::to_string(&SimResponse::err(
            id,
            "",
            ServeError::BadRequest(format!("unknown admin command `{other}`")).to_wire(),
        )),
    };
    reply.expect("admin reply serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::answer;
    use crate::service::ServeConfig;
    use aurora_core::Telemetry;

    fn admin(service: &SimService, line: &str) -> serde_json::Value {
        serde_json::from_str(&answer(service, line)).expect("admin reply parses")
    }

    #[test]
    fn health_reports_ok_then_draining() {
        let svc = SimService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        );
        let reply = admin(&svc, "{\"id\": 3, \"admin\": \"health\"}");
        assert_eq!(reply.get("id").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(reply.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(reply.get("inflight").and_then(|v| v.as_u64()), Some(0));
        svc.drain();
        let reply = admin(&svc, "{\"admin\": \"health\"}");
        assert_eq!(
            reply.get("id").and_then(|v| v.as_u64()),
            Some(0),
            "id optional"
        );
        assert_eq!(
            reply.get("status").and_then(|v| v.as_str()),
            Some("draining")
        );
    }

    #[test]
    fn unknown_admin_command_is_bad_request() {
        let svc = SimService::new(
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        );
        let reply = admin(&svc, "{\"id\": 9, \"admin\": \"reboot\"}");
        assert_eq!(reply.get("id").and_then(|v| v.as_u64()), Some(9));
        let error = reply.get("error").expect("error body");
        assert_eq!(
            error.get("kind").and_then(|v| v.as_str()),
            Some("bad_request")
        );
    }
}
