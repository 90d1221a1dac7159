//! The daemon's streaming-session state: a bounded table of open
//! [`SimSession`]s keyed by session id (`d₀`, the base request digest).
//!
//! Sessions are *stateful* — the whole point is the warm per-tile
//! artifacts living on one worker — so the table enforces the
//! discipline the cache never needed:
//!
//! * **Exclusive applies.** A delta takes its session *out* of the
//!   table, runs the engine without holding the table lock, and puts it
//!   back. A second line for the same sid while one is out answers a
//!   typed `bad_request` ("session busy") instead of blocking a
//!   connection thread — the NDJSON protocol is one-line-one-reply, and
//!   a well-behaved client pipelines deltas on one connection anyway.
//! * **Bounded residency.** At most `session_capacity` open sessions;
//!   beyond that, opening evicts the least-recently-used idle session.
//!   Sessions idle past `session_ttl_ms` are evicted opportunistically
//!   on any table access. Eviction is safe by construction: a client
//!   whose session was evicted gets `unknown_session` and re-opens —
//!   the open replays from the base request, so nothing is lost but
//!   warmth.
//! * **Idempotent opens.** Re-opening an existing sid (same base
//!   request → same digest) replays the session's current report with
//!   `cached: true` rather than resetting it — a client retrying a
//!   dropped open must not rewind a session that already advanced.

use crate::error::ServeError;
use aurora_core::{
    AuroraSimulator, GraphCache, GraphDelta, SimError, SimReport, SimRequest, SimSession,
};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One session op's answer: the digest-chain head after the op, whether
/// the report was replayed rather than computed, and the report of the
/// session's current graph.
#[derive(Debug, Clone)]
pub struct SessionReply {
    pub digest: String,
    pub cached: bool,
    pub report: SimReport,
}

struct Slot {
    /// `None` while a delta has the session checked out.
    session: Option<SimSession>,
    last_used: Instant,
}

/// The bounded, TTL-evicting table of open sessions.
pub struct SessionTable {
    slots: Mutex<HashMap<String, Slot>>,
    capacity: usize,
    ttl: Duration,
}

impl SessionTable {
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            capacity,
            ttl,
        }
    }

    /// Open sessions (including checked-out ones).
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn unknown(sid: &str) -> ServeError {
        ServeError::Sim(SimError::UnknownSession(sid.to_string()))
    }

    fn busy(sid: &str) -> ServeError {
        ServeError::BadRequest(format!("session {sid} is busy (delta in flight)"))
    }

    /// Drops idle sessions whose last use is older than the TTL.
    /// Checked-out slots are left alone — the in-flight apply refreshes
    /// `last_used` when it returns.
    fn evict_expired(&self, slots: &mut HashMap<String, Slot>) {
        if self.ttl.is_zero() {
            return;
        }
        let now = Instant::now();
        slots.retain(|_, slot| {
            slot.session.is_none() || now.duration_since(slot.last_used) < self.ttl
        });
    }

    /// Makes room for one more session by evicting the least-recently
    /// used *idle* one. Fails (`Overloaded`) only when the table is full
    /// of checked-out sessions.
    fn evict_for_capacity(&self, slots: &mut HashMap<String, Slot>) -> Result<(), ServeError> {
        while slots.len() >= self.capacity.max(1) {
            let victim = slots
                .iter()
                .filter(|(_, slot)| slot.session.is_some())
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(sid, _)| sid.clone());
            match victim {
                Some(sid) => {
                    slots.remove(&sid);
                }
                None => {
                    return Err(ServeError::Overloaded {
                        queued: slots.len(),
                        capacity: self.capacity,
                    })
                }
            }
        }
        Ok(())
    }

    /// Opens (or idempotently re-opens) a session for `req`, resolving
    /// its graph through `graphs`.
    pub fn open(&self, req: &SimRequest, graphs: &GraphCache) -> Result<SessionReply, ServeError> {
        let sid = req.digest();
        {
            let mut slots = self.slots.lock().unwrap();
            self.evict_expired(&mut slots);
            if let Some(slot) = slots.get_mut(&sid) {
                let Some(session) = slot.session.as_ref() else {
                    return Err(Self::busy(&sid));
                };
                slot.last_used = Instant::now();
                return Ok(SessionReply {
                    digest: session.digest().to_string(),
                    cached: true,
                    report: session.last_report().clone(),
                });
            }
        }
        // The from-scratch run happens outside the table lock; two
        // concurrent first opens of one sid both run, and the second
        // insert wins — identical content, only wasted work.
        let session = AuroraSimulator::new(req.config)
            .open_session_with(req, Some(graphs))
            .map_err(ServeError::Sim)?;
        let reply = SessionReply {
            digest: session.digest().to_string(),
            cached: false,
            report: session.last_report().clone(),
        };
        let mut slots = self.slots.lock().unwrap();
        self.evict_expired(&mut slots);
        if !slots.contains_key(&sid) {
            self.evict_for_capacity(&mut slots)?;
        }
        slots.insert(
            sid,
            Slot {
                session: Some(session),
                last_used: Instant::now(),
            },
        );
        Ok(reply)
    }

    /// Applies a delta to an open session (checked out for the duration
    /// of the engine run). A failed apply keeps the session open — its
    /// graph and digest did not advance — so the client can correct and
    /// continue.
    pub fn apply(&self, sid: &str, delta: &GraphDelta) -> Result<SessionReply, ServeError> {
        let mut session = {
            let mut slots = self.slots.lock().unwrap();
            self.evict_expired(&mut slots);
            let slot = slots.get_mut(sid).ok_or_else(|| Self::unknown(sid))?;
            slot.session.take().ok_or_else(|| Self::busy(sid))?
        };
        let result = session.apply(delta);
        let reply = result.map(|outcome| SessionReply {
            digest: outcome.digest,
            cached: outcome.cached,
            report: session.last_report().clone(),
        });
        let mut slots = self.slots.lock().unwrap();
        // normal path: the slot waited for us. When it vanished while
        // checked out (drain cleared the table) the session just drops
        // and the reply still answers the delta that ran.
        if let Some(slot) = slots.get_mut(sid) {
            slot.session = Some(session);
            slot.last_used = Instant::now();
        }
        reply.map_err(ServeError::Sim)
    }

    /// Closes a session, answering its final digest and report.
    pub fn close(&self, sid: &str) -> Result<SessionReply, ServeError> {
        let mut slots = self.slots.lock().unwrap();
        self.evict_expired(&mut slots);
        match slots.get(sid) {
            None => Err(Self::unknown(sid)),
            Some(slot) if slot.session.is_none() => Err(Self::busy(sid)),
            Some(_) => {
                let slot = slots.remove(sid).expect("checked above");
                let session = slot.session.expect("checked above");
                Ok(SessionReply {
                    digest: session.digest().to_string(),
                    cached: true,
                    report: session.last_report().clone(),
                })
            }
        }
    }

    /// Drops every idle session (drain path). Checked-out sessions are
    /// dropped when their apply tries to put them back.
    pub fn clear(&self) {
        self.slots.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::AcceleratorConfig;
    use aurora_model::{LayerShape, ModelId};

    fn request(seed: u64) -> SimRequest {
        SimRequest::builder(ModelId::Gcn)
            .config(AcceleratorConfig::small(4))
            .rmat(128, 700, seed)
            .layer(LayerShape::new(8, 4))
            .build()
            .unwrap()
    }

    // A delta valid against any graph (edge membership is irrelevant to
    // the table semantics these tests cover).
    fn one_delta(table: &SessionTable, sid: &str) -> SessionReply {
        table
            .apply(
                sid,
                &GraphDelta {
                    add_vertices: 1,
                    ..GraphDelta::default()
                },
            )
            .unwrap()
    }

    #[test]
    fn open_apply_close_roundtrip() {
        let graphs = GraphCache::new();
        let table = SessionTable::new(4, Duration::from_secs(60));
        let req = request(1);
        let sid = req.digest();
        let opened = table.open(&req, &graphs).unwrap();
        assert!(!opened.cached);
        assert_eq!(opened.digest, sid);
        assert_eq!(table.len(), 1);
        // re-open replays instead of resetting
        let reopened = table.open(&req, &graphs).unwrap();
        assert!(reopened.cached);
        assert_eq!(reopened.digest, opened.digest);
        // a delta advances the chain
        let applied = one_delta(&table, &sid);
        assert!(!applied.cached);
        assert_ne!(applied.digest, sid);
        // close answers the advanced digest; the sid is then unknown
        let closed = table.close(&sid).unwrap();
        assert_eq!(closed.digest, applied.digest);
        assert_eq!(table.len(), 0);
        assert!(matches!(
            table.close(&sid),
            Err(ServeError::Sim(SimError::UnknownSession(_)))
        ));
        assert!(matches!(
            table.apply(&sid, &GraphDelta::default()),
            Err(ServeError::Sim(SimError::UnknownSession(_)))
        ));
    }

    #[test]
    fn failed_delta_keeps_session_open() {
        let graphs = GraphCache::new();
        let table = SessionTable::new(4, Duration::from_secs(60));
        let req = request(2);
        let sid = req.digest();
        table.open(&req, &graphs).unwrap();
        let bad = GraphDelta {
            remove_edges: vec![(0, 9999)],
            ..GraphDelta::default()
        };
        let err = table.apply(&sid, &bad).unwrap_err();
        assert_eq!(err.kind(), "invalid_delta");
        // still open and usable
        let ok = one_delta(&table, &sid);
        assert!(!ok.cached);
        table.close(&sid).unwrap();
    }

    #[test]
    fn capacity_evicts_least_recently_used_idle_session() {
        let graphs = GraphCache::new();
        let table = SessionTable::new(2, Duration::from_secs(60));
        let (a, b, c) = (request(3), request(4), request(5));
        table.open(&a, &graphs).unwrap();
        table.open(&b, &graphs).unwrap();
        // touch a so b is the LRU victim
        table.open(&a, &graphs).unwrap();
        table.open(&c, &graphs).unwrap();
        assert_eq!(table.len(), 2);
        assert!(matches!(
            table.close(&b.digest()),
            Err(ServeError::Sim(SimError::UnknownSession(_)))
        ));
        table.close(&a.digest()).unwrap();
        table.close(&c.digest()).unwrap();
    }

    #[test]
    fn ttl_evicts_idle_sessions() {
        let graphs = GraphCache::new();
        let table = SessionTable::new(4, Duration::from_millis(1));
        let req = request(6);
        let sid = req.digest();
        table.open(&req, &graphs).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(
            table.apply(
                &sid,
                &GraphDelta {
                    add_vertices: 1,
                    ..GraphDelta::default()
                }
            ),
            Err(ServeError::Sim(SimError::UnknownSession(_)))
        ));
    }

    /// A session opened on a resident graph answers the same open and
    /// delta reports as one opened without the cache, and its deltas
    /// never reach the shared graph.
    #[test]
    fn cached_open_matches_uncached_session() {
        let graphs = GraphCache::new();
        let req = request(7);
        let fresh_graph = req.graph.resolve().unwrap();
        graphs.resolve(&req.graph).unwrap();
        graphs.resolve(&req.graph).unwrap(); // the repeated miss admits
        let table = SessionTable::new(4, Duration::from_secs(60));
        let opened = table.open(&req, &graphs).unwrap();
        assert_eq!(graphs.hits(), 1, "the open resolved a resident graph");

        let sim = AuroraSimulator::new(req.config);
        let mut plain = sim.open_session(&req).unwrap();
        let json = |r: &SimReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&opened.report), json(plain.last_report()));

        let sid = req.digest();
        let (u, v) = fresh_graph.edges().next().unwrap();
        for delta in [
            GraphDelta {
                remove_edges: vec![(u, v)],
                ..GraphDelta::default()
            },
            GraphDelta {
                add_vertices: 1,
                insert_edges: vec![(128, 0)],
                ..GraphDelta::default()
            },
        ] {
            let applied = table.apply(&sid, &delta).unwrap();
            let outcome = plain.apply(&delta).unwrap();
            assert_eq!(applied.digest, outcome.digest);
            assert_eq!(json(&applied.report), json(plain.last_report()));
        }
        assert_eq!(*graphs.resolve(&req.graph).unwrap(), fresh_graph);
    }
}
