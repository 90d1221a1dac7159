//! Observability layer for the Aurora simulator.
//!
//! Two coordinated facilities, both keyed on **simulated cycles**:
//!
//! * a thread-safe metrics [`ConcurrentRegistry`] — named counters,
//!   gauges and log-scale [`Histogram`]s, labeled with a [`Scope`]
//!   (model / layer / tile / phase) — snapshotted into the serializable
//!   [`MetricsSnapshot`] embedded in `SimReport`;
//! * a span/event recorder ([`TraceBuffer`]) that emits Chrome
//!   trace-event JSON loadable in Perfetto, with one track per
//!   sub-accelerator plus NoC, DRAM, tile-pipeline and controller
//!   tracks (see [`tracks`]).
//!
//! Snapshots also render to the Prometheus text exposition format via
//! [`expo::render`], the scrape surface of the serve daemon's
//! `{"admin":"metrics"}` command.
//!
//! A third facility observes the **host** instead of the simulated
//! machine: the wall-clock span profiler ([`span`]) and the env-gated
//! allocation accounting ([`alloc`]) attribute a run's wall-µs and
//! heap churn to canonical pipeline [`Stage`]s, surfaced as
//! `SimReport.host_profile`.
//!
//! Probes go through the cheap-to-clone [`Telemetry`] handle. A
//! disabled handle (the default) carries no [`Recorder`]: every probe is
//! a single `Option` check that branches over an empty body, so
//! instrumented code runs at full speed when observability is off. An
//! enabled handle's probes write straight into its recorder's registry
//! and trace buffer.

pub mod alloc;
pub mod expo;
pub mod metrics;
pub mod names;
pub mod scope;
pub mod span;
pub mod trace;

pub use metrics::{ConcurrentRegistry, Histogram, MetricsSnapshot};
pub use scope::Scope;
pub use span::{host_init, HostProfile, HostStage, Stage};
pub use trace::{tracks, ArgValue, TraceBuffer};

/// Counting wrapper around the system allocator, installed for every
/// binary linking this crate. Pass-through (one relaxed load) unless
/// `AURORA_ALLOC_PROFILE=1` switches accounting on.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

use std::sync::{Arc, Mutex, MutexGuard};

/// The recorder behind an enabled handle: a [`ConcurrentRegistry`] plus
/// a locked [`TraceBuffer`]. Safe to share across threads; metric
/// merges are commutative and snapshots/trace renders use one
/// deterministic order (see the field types' docs), so a parallel run
/// reports exactly what the sequential run would.
#[derive(Debug)]
pub struct Recorder {
    registry: ConcurrentRegistry,
    trace: Mutex<TraceBuffer>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            registry: ConcurrentRegistry::new(),
            trace: Mutex::new(TraceBuffer::with_canonical_tracks()),
        }
    }

    /// Serializable copy of every metric recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Chrome trace-event JSON of the recorded timeline.
    pub fn trace_json(&self) -> String {
        self.trace().to_chrome_json()
    }

    /// Number of timeline events recorded so far.
    pub fn trace_len(&self) -> usize {
        self.trace().len()
    }

    fn trace(&self) -> MutexGuard<'_, TraceBuffer> {
        self.trace.lock().expect("trace buffer poisoned")
    }
}

/// Cheap-to-clone handle threaded through the simulator. Disabled by
/// default ([`Telemetry::disabled`], also `Default`): probes on a
/// disabled handle reduce to one branch on a `None`. The handle is
/// `Send + Sync` — clones may record from any pool thread; counters go
/// through atomics and only histogram/trace probes take a short lock.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Recorder>>,
}

impl Telemetry {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle backed by a fresh [`Recorder`]. Clones share it.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Recorder::new())),
        }
    }

    /// Whether probes on this handle record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name` at `scope`.
    #[inline]
    pub fn counter_add(&self, name: &str, scope: &Scope, delta: u64) {
        if let Some(r) = &self.inner {
            r.registry.counter_add(name, scope, delta);
        }
    }

    /// Sets gauge `name` at `scope`.
    #[inline]
    pub fn gauge_set(&self, name: &str, scope: &Scope, value: f64) {
        if let Some(r) = &self.inner {
            r.registry.gauge_set(name, scope, value);
        }
    }

    /// Records a histogram sample for `name` at `scope`.
    #[inline]
    pub fn observe(&self, name: &str, scope: &Scope, value: u64) {
        if let Some(r) = &self.inner {
            r.registry.observe(name, scope, value);
        }
    }

    /// Records a complete span on a timeline track (cycles).
    #[inline]
    pub fn span(&self, track: &str, name: &str, ts: u64, dur: u64, args: Vec<(String, ArgValue)>) {
        if let Some(r) = &self.inner {
            r.trace().span(track, name, ts, dur, args);
        }
    }

    /// Records an instant marker on a timeline track (cycles).
    #[inline]
    pub fn instant(&self, track: &str, name: &str, ts: u64) {
        if let Some(r) = &self.inner {
            r.trace().instant(track, name, ts);
        }
    }

    /// Records a counter-series sample on a timeline track (cycles).
    #[inline]
    pub fn counter_sample(&self, track: &str, name: &str, ts: u64, value: f64) {
        if let Some(r) = &self.inner {
            r.trace().counter(track, name, ts, value);
        }
    }

    /// Serializable copy of every metric recorded so far. Empty when
    /// the handle is disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Chrome trace-event JSON of the recorded timeline, or `None`
    /// when the handle is disabled.
    pub fn trace_json(&self) -> Option<String> {
        self.inner.as_ref().map(|inner| inner.trace_json())
    }

    /// Number of timeline events recorded so far (0 when disabled).
    pub fn trace_len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.trace_len(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.counter_add("c", &Scope::ROOT, 1);
        t.span(tracks::SUB_A, "s", 0, 10, vec![]);
        assert!(!t.is_enabled());
        assert!(t.snapshot().is_empty());
        assert_eq!(t.trace_json(), None);
        assert_eq!(t.trace_len(), 0);
    }

    #[test]
    fn clones_share_one_recorder() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter_add("c", &Scope::ROOT, 2);
        t2.counter_add("c", &Scope::ROOT, 3);
        assert_eq!(t.snapshot().counter_at("c", &Scope::ROOT), Some(5));
    }

    #[test]
    fn events_route_to_registry_and_trace() {
        let t = Telemetry::enabled();
        let s = Scope::model("GCN").layer(0);
        t.observe("tile_cycles", &s, 123);
        t.gauge_set("balance", &s, 0.75);
        t.span(
            tracks::SUB_B,
            "vertex update",
            10,
            20,
            vec![("rows".into(), 8u64.into())],
        );
        t.instant(tracks::CONTROLLER, "map", 5);
        t.counter_sample(tracks::DRAM, "bytes", 10, 64.0);

        let snap = t.snapshot();
        assert_eq!(snap.histogram_at("tile_cycles", &s).unwrap().count, 1);
        assert_eq!(snap.gauge_at("balance", &s), Some(0.75));
        assert_eq!(t.trace_len(), 3);
        let json = t.trace_json().unwrap();
        assert!(json.contains("vertex update"));
        assert!(json.contains(tracks::SUB_B));
    }

    #[test]
    fn telemetry_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<Recorder>();
    }

    #[test]
    fn cross_thread_recording_merges_deterministically() {
        // The same probe stream recorded sequentially and split over 4
        // threads must yield identical snapshots: counter adds and
        // histogram merges are commutative, and snapshot/render order
        // comes from BTreeMaps, not thread arrival order.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 250;

        let sequential = Telemetry::enabled();
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let scope = Scope::model("GCN").layer(t);
                sequential.counter_add("edges", &scope, (i + 1) as u64);
                sequential.observe("tile_cycles", &scope, (i * 37 + t) as u64);
            }
        }

        let parallel = Telemetry::enabled();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let handle = parallel.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let scope = Scope::model("GCN").layer(t);
                        handle.counter_add("edges", &scope, (i + 1) as u64);
                        handle.observe("tile_cycles", &scope, (i * 37 + t) as u64);
                    }
                });
            }
        });

        assert_eq!(sequential.snapshot(), parallel.snapshot());
    }
}
