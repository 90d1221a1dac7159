//! The content-addressed result cache with single-flight deduplication.
//!
//! The cache is keyed by [`SimRequest::digest`](aurora_core::SimRequest::digest):
//! reports are deterministic pure functions of their request (the
//! engine's §VI-A op/access counting plus the worker pool's ordered-
//! gather contract), so a digest hit returns the *exact* report a fresh
//! run would produce. Eviction is FIFO with a bounded capacity.
//!
//! Single-flight: when several clients ask for the same digest
//! concurrently, exactly one (the *leader*) runs the engine; the others
//! (*followers*) park on the flight and are woken with the shared
//! result. Followers therefore count as cache hits — no engine work was
//! done on their behalf.

use crate::error::ServeError;
use crate::observe::JobTiming;
use aurora_core::SimReport;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One in-flight simulation, shared between its leader and any
/// followers. The leader resolves it exactly once.
pub struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    Done {
        result: Result<Arc<SimReport>, ServeError>,
        /// Queue-wait/execute split measured by whoever ran the job.
        timing: JobTiming,
    },
}

impl Flight {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    /// Resolves the flight and wakes every waiter. Idempotent only by
    /// construction: the cache guarantees one resolver per flight.
    fn resolve(&self, result: Result<Arc<SimReport>, ServeError>, timing: JobTiming) {
        let mut st = self.state.lock().unwrap();
        *st = FlightState::Done { result, timing };
        self.done.notify_all();
    }

    /// Blocks until the flight resolves or `timeout` elapses. A timeout
    /// abandons only this waiter — the flight itself keeps running and
    /// still warms the cache when it lands.
    pub fn wait(&self, timeout: Duration) -> Result<Arc<SimReport>, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let FlightState::Done { result, .. } = &*st {
                return result.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Timeout {
                    ms: timeout.as_millis() as u64,
                });
            }
            let (next, wait) = self.done.wait_timeout(st, deadline - now).unwrap();
            st = next;
            if wait.timed_out() {
                if let FlightState::Done { result, .. } = &*st {
                    return result.clone();
                }
                return Err(ServeError::Timeout {
                    ms: timeout.as_millis() as u64,
                });
            }
        }
    }

    /// Non-blocking probe of the flight's state.
    pub fn poll(&self) -> Option<Result<Arc<SimReport>, ServeError>> {
        match &*self.state.lock().unwrap() {
            FlightState::Pending => None,
            FlightState::Done { result, .. } => Some(result.clone()),
        }
    }

    /// The resolved flight's queue-wait/execute split; `None` while
    /// pending.
    pub fn timing(&self) -> Option<JobTiming> {
        match &*self.state.lock().unwrap() {
            FlightState::Pending => None,
            FlightState::Done { timing, .. } => Some(*timing),
        }
    }
}

/// The outcome of a cache lookup.
pub enum Lookup {
    /// The report was ready; no engine work needed.
    Hit(Arc<SimReport>),
    /// An identical request is already simulating — wait on its flight.
    Join(Arc<Flight>),
    /// This caller leads: it must run the engine and [`ResultCache::complete`]
    /// (or [`ResultCache::abort`]) the returned flight.
    Lead(Arc<Flight>),
}

struct CacheState {
    ready: HashMap<String, Arc<SimReport>>,
    /// Insertion order of `ready`, for FIFO eviction.
    order: VecDeque<String>,
    inflight: HashMap<String, Arc<Flight>>,
}

/// Bounded digest → report cache. All structural mutation happens under
/// one mutex; the engine runs outside it.
pub struct ResultCache {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` ready reports (in-flight
    /// entries are not counted — they are bounded by the admission
    /// queue). `capacity` 0 disables retention: every request leads.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                ready: HashMap::new(),
                order: VecDeque::new(),
                inflight: HashMap::new(),
            }),
            capacity,
        }
    }

    /// Looks `digest` up, joining an in-flight run when one exists, and
    /// otherwise registering the caller as leader.
    pub fn lookup(&self, digest: &str) -> Lookup {
        let mut st = self.state.lock().unwrap();
        if let Some(report) = st.ready.get(digest) {
            return Lookup::Hit(Arc::clone(report));
        }
        if let Some(flight) = st.inflight.get(digest) {
            return Lookup::Join(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        st.inflight.insert(digest.to_string(), Arc::clone(&flight));
        Lookup::Lead(flight)
    }

    /// Resolves a led flight: stores a success in the FIFO (evicting the
    /// oldest entry past capacity), wakes all followers with the shared
    /// result and the measured `timing`, and retires the flight. Errors
    /// are delivered to waiters but never cached — a later identical
    /// request retries.
    pub fn complete(&self, digest: &str, result: Result<SimReport, ServeError>, timing: JobTiming) {
        let shared = result.map(Arc::new);
        let mut st = self.state.lock().unwrap();
        if let Ok(report) = &shared {
            if self.capacity > 0 {
                // Residency first: re-completing a digest that is
                // already ready (two leaders can race across an
                // eviction window) replaces the entry in place — the
                // map does not grow, so evicting an unrelated live
                // entry for it would be a pure loss.
                if st.ready.contains_key(digest) {
                    st.ready.insert(digest.to_string(), Arc::clone(report));
                } else {
                    while st.ready.len() >= self.capacity {
                        match st.order.pop_front() {
                            Some(old) => {
                                st.ready.remove(&old);
                            }
                            None => break,
                        }
                    }
                    st.ready.insert(digest.to_string(), Arc::clone(report));
                    st.order.push_back(digest.to_string());
                }
            }
        }
        let flight = st.inflight.remove(digest);
        drop(st);
        if let Some(flight) = flight {
            flight.resolve(shared, timing);
        }
    }

    /// Retires a led flight without running it (admission failed after
    /// leadership was taken). Followers that joined in the window get
    /// `err`; the digest becomes leadable again.
    pub fn abort(&self, digest: &str, err: ServeError) {
        let flight = self.state.lock().unwrap().inflight.remove(digest);
        if let Some(flight) = flight {
            flight.resolve(Err(err), JobTiming::default());
        }
    }

    /// Number of ready (completed) entries.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().ready.len()
    }

    /// Whether no completed entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::{AcceleratorConfig, AuroraSimulator, SimReport, SimRequest};
    use aurora_graph::generate;
    use aurora_model::{LayerShape, ModelId};

    fn report(tag: &str) -> SimReport {
        let cfg = AcceleratorConfig::small(2);
        let req = SimRequest::builder(ModelId::Gcn)
            .config(cfg)
            .inline_graph(generate::ring(8))
            .layer(LayerShape::new(4, 2))
            .workload(tag)
            .build()
            .unwrap();
        AuroraSimulator::new(cfg).run(&req).unwrap()
    }

    #[test]
    fn hit_after_complete() {
        let cache = ResultCache::new(4);
        let Lookup::Lead(_) = cache.lookup("a") else {
            panic!("first sight must lead");
        };
        cache.complete("a", Ok(report("a")), JobTiming::default());
        match cache.lookup("a") {
            Lookup::Hit(r) => assert_eq!(r.workload, "a"),
            _ => panic!("completed digest must hit"),
        }
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        let cache = ResultCache::new(4);
        let leader = match cache.lookup("d") {
            Lookup::Lead(f) => f,
            _ => panic!("expected lead"),
        };
        let follower = match cache.lookup("d") {
            Lookup::Join(f) => f,
            _ => panic!("expected join"),
        };
        assert!(follower.poll().is_none());
        assert!(follower.timing().is_none(), "pending flight has no timing");
        cache.complete(
            "d",
            Ok(report("d")),
            JobTiming {
                queue_wait_us: 3,
                execute_us: 9,
            },
        );
        let got = follower.wait(Duration::from_secs(1)).unwrap();
        assert_eq!(got.workload, "d");
        assert_eq!(
            follower.timing(),
            Some(JobTiming {
                queue_wait_us: 3,
                execute_us: 9,
            }),
            "timing rides the resolved flight"
        );
        drop(leader);
    }

    #[test]
    fn fifo_eviction_is_bounded() {
        let cache = ResultCache::new(2);
        for d in ["a", "b", "c"] {
            let Lookup::Lead(_) = cache.lookup(d) else {
                panic!("lead {d}");
            };
            cache.complete(d, Ok(report(d)), JobTiming::default());
        }
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup("a"), Lookup::Lead(_)), "a evicted");
        assert!(matches!(cache.lookup("b"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup("c"), Lookup::Hit(_)));
    }

    #[test]
    fn errors_are_delivered_but_not_cached() {
        let cache = ResultCache::new(4);
        let Lookup::Lead(f) = cache.lookup("x") else {
            panic!("lead");
        };
        cache.complete("x", Err(ServeError::ShuttingDown), JobTiming::default());
        assert_eq!(
            f.wait(Duration::from_secs(1)).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert!(cache.is_empty());
        assert!(matches!(cache.lookup("x"), Lookup::Lead(_)), "retryable");
    }

    #[test]
    fn wait_times_out_on_pending_flight() {
        let cache = ResultCache::new(4);
        let Lookup::Lead(f) = cache.lookup("slow") else {
            panic!("lead");
        };
        let err = f.wait(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, ServeError::Timeout { .. }));
        // the flight is still live: completing it after the timeout works
        cache.complete("slow", Ok(report("slow")), JobTiming::default());
        assert!(matches!(cache.lookup("slow"), Lookup::Hit(_)));
    }

    /// Regression: re-completing a digest that is already resident must
    /// not run the eviction loop — the insert does not grow the map, so
    /// evicting an unrelated live entry for it loses a warm report.
    #[test]
    fn recompleting_resident_digest_evicts_nothing() {
        let cache = ResultCache::new(2);
        for d in ["a", "b"] {
            let Lookup::Lead(_) = cache.lookup(d) else {
                panic!("lead {d}");
            };
            cache.complete(d, Ok(report(d)), JobTiming::default());
        }
        assert_eq!(cache.len(), 2, "cache is exactly full");
        // a second leader for "a" (raced past an eviction window)
        // completes while "a" is still resident
        cache.complete("a", Ok(report("a")), JobTiming::default());
        assert_eq!(cache.len(), 2);
        assert!(
            matches!(cache.lookup("b"), Lookup::Hit(_)),
            "unrelated entry b must survive a re-completion of a"
        );
        assert!(matches!(cache.lookup("a"), Lookup::Hit(_)));
        // FIFO order is undisturbed: the next fresh insert evicts the
        // oldest ("a"), not "b"
        let Lookup::Lead(_) = cache.lookup("c") else {
            panic!("lead c");
        };
        cache.complete("c", Ok(report("c")), JobTiming::default());
        assert!(matches!(cache.lookup("a"), Lookup::Lead(_)), "a evicted");
        assert!(matches!(cache.lookup("b"), Lookup::Hit(_)));
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = ResultCache::new(0);
        let Lookup::Lead(_) = cache.lookup("a") else {
            panic!("lead");
        };
        cache.complete("a", Ok(report("a")), JobTiming::default());
        assert!(cache.is_empty());
        assert!(matches!(cache.lookup("a"), Lookup::Lead(_)));
    }

    #[test]
    fn abort_unparks_followers_and_releases_digest() {
        let cache = ResultCache::new(4);
        let Lookup::Lead(_) = cache.lookup("q") else {
            panic!("lead");
        };
        let Lookup::Join(follower) = cache.lookup("q") else {
            panic!("join");
        };
        cache.abort(
            "q",
            ServeError::Overloaded {
                queued: 1,
                capacity: 1,
            },
        );
        assert!(matches!(
            follower.wait(Duration::from_secs(1)).unwrap_err(),
            ServeError::Overloaded { .. }
        ));
        assert!(matches!(cache.lookup("q"), Lookup::Lead(_)));
    }
}
