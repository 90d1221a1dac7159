//! The metrics registry: named counters, gauges and log-scale histograms
//! keyed by `(name, scope)`.

use crate::scope::Scope;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Log₂-bucketed histogram of `u64` samples. Bucket `i` counts samples
/// whose bit length is `i` (i.e. values in `[2^(i−1), 2^i)`; bucket 0
/// counts zeros), so the 65 buckets cover the full `u64` range with
/// relative-error resolution — the right shape for cycle and byte
/// distributions that span many orders of magnitude.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts samples with bit length `i` (65 entries,
    /// trailing zero buckets trimmed).
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Bucket index of a value: its bit length.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the inclusive upper bound of the first
    /// bucket at which the cumulative count reaches `q · count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                // upper bound of bucket i, capped at the observed max
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (approximate, bucket upper bound). 0 when empty.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 95th percentile (approximate, bucket upper bound). 0 when empty.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (approximate, bucket upper bound). 0 when empty.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// One-line `count/mean/p50/p95/max` summary for report footers.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} p50={} p95={} max={}",
            self.count,
            self.mean(),
            self.p50(),
            self.p95(),
            self.max
        )
    }
}

/// Histogram shard count. Samples for a given `(name, scope)` always
/// land in the same shard, so per-key histograms never need merging —
/// sharding only spreads lock contention across unrelated keys.
const HIST_SHARDS: usize = 8;

/// Thread-safe metric store backing [`crate::Recorder`]. Counters and
/// gauges are atomics behind a read-mostly lock (the write lock is only
/// taken to insert a new key); histograms take one shard `Mutex` per
/// sample. Every mutation is commutative per key — counter adds sum,
/// histogram merges are order-free, and gauge writes from the simulator
/// are per-run-scoped — so concurrent recording produces the same
/// snapshot as any sequential interleaving. Snapshots iterate
/// `BTreeMap`s, giving one deterministic merge order no matter which
/// thread recorded what.
#[derive(Debug, Default)]
pub struct ConcurrentRegistry {
    counters: RwLock<BTreeMap<(String, Scope), AtomicU64>>,
    /// Gauge values stored as `f64::to_bits`.
    gauges: RwLock<BTreeMap<(String, Scope), AtomicU64>>,
    histograms: [Mutex<BTreeMap<(String, Scope), Histogram>>; HIST_SHARDS],
}

/// Shard selector: a tiny deterministic hash of the metric name (the
/// scope shares the shard — one name rarely spans many scopes at once).
fn shard_of(name: &str) -> usize {
    let mut h: usize = 5381;
    for b in name.bytes() {
        h = h.wrapping_mul(33) ^ b as usize;
    }
    h % HIST_SHARDS
}

impl ConcurrentRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&self, name: &str, scope: &Scope, delta: u64) {
        {
            let read = self.counters.read().expect("counter map poisoned");
            if let Some(c) = read.get(&(name.to_string(), scope.clone())) {
                c.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        let mut write = self.counters.write().expect("counter map poisoned");
        write
            .entry((name.to_string(), scope.clone()))
            .or_default()
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&self, name: &str, scope: &Scope, value: f64) {
        {
            let read = self.gauges.read().expect("gauge map poisoned");
            if let Some(g) = read.get(&(name.to_string(), scope.clone())) {
                g.store(value.to_bits(), Ordering::Relaxed);
                return;
            }
        }
        let mut write = self.gauges.write().expect("gauge map poisoned");
        write
            .entry((name.to_string(), scope.clone()))
            .or_default()
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Records a histogram sample.
    pub fn observe(&self, name: &str, scope: &Scope, value: u64) {
        self.histograms[shard_of(name)]
            .lock()
            .expect("histogram shard poisoned")
            .entry((name.to_string(), scope.clone()))
            .or_default()
            .observe(value);
    }

    /// Immutable, serializable copy of every metric, in `(name, scope)`
    /// order regardless of which threads recorded.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("counter map poisoned")
            .iter()
            .map(|((name, scope), v)| CounterEntry {
                name: name.clone(),
                scope: scope.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("gauge map poisoned")
            .iter()
            .map(|((name, scope), v)| GaugeEntry {
                name: name.clone(),
                scope: scope.clone(),
                value: f64::from_bits(v.load(Ordering::Relaxed)),
            })
            .collect();
        let mut merged: BTreeMap<(String, Scope), Histogram> = BTreeMap::new();
        for shard in &self.histograms {
            for (key, h) in shard.lock().expect("histogram shard poisoned").iter() {
                merged.insert(key.clone(), h.clone());
            }
        }
        let histograms = merged
            .into_iter()
            .map(|((name, scope), histogram)| HistogramEntry {
                name,
                scope,
                histogram,
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    pub name: String,
    pub scope: Scope,
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    pub name: String,
    pub scope: Scope,
    pub value: f64,
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    pub name: String,
    pub scope: Scope,
    pub histogram: Histogram,
}

/// Serializable dump of a [`ConcurrentRegistry`], embedded in `SimReport` and
/// written by `aurora_sim --metrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterEntry>,
    pub gauges: Vec<GaugeEntry>,
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded (telemetry disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Sum of every counter with this name, across scopes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The counter with exactly this name and scope.
    pub fn counter_at(&self, name: &str, scope: &Scope) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && &c.scope == scope)
            .map(|c| c.value)
    }

    /// The gauge with exactly this name and scope.
    pub fn gauge_at(&self, name: &str, scope: &Scope) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && &g.scope == scope)
            .map(|g| g.value)
    }

    /// The histogram with exactly this name and scope.
    pub fn histogram_at(&self, name: &str, scope: &Scope) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name && &h.scope == scope)
            .map(|h| &h.histogram)
    }

    /// `(p50, p95, p99)` of the histogram `name` at `scope`, or zeros
    /// when it was never observed.
    pub fn quantiles_at(&self, name: &str, scope: &Scope) -> (u64, u64, u64) {
        match self.histogram_at(name, scope) {
            Some(h) => (h.p50(), h.p95(), h.p99()),
            None => (0, 0, 0),
        }
    }

    /// True when any counter, gauge or histogram (in any scope) carries
    /// this name — the metric-name completeness check.
    pub fn contains_name(&self, name: &str) -> bool {
        self.counters.iter().any(|c| c.name == name)
            || self.gauges.iter().any(|g| g.name == name)
            || self.histograms.iter().any(|h| h.name == name)
    }

    /// Per-name activity since `prev`: counter increments plus histogram
    /// sample-count increments (keyed `<name>.count`), summed across
    /// scopes and name-ordered. Names that did not move are absent, so
    /// an idle interval yields an empty map — the `--metrics-every`
    /// zero-delta suppression contract. Gauges are point-in-time and
    /// carry no delta semantics, so they are excluded.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> BTreeMap<String, u64> {
        fn totals(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
            let mut out = BTreeMap::new();
            for c in &snap.counters {
                *out.entry(c.name.clone()).or_insert(0) += c.value;
            }
            for h in &snap.histograms {
                *out.entry(format!("{}.count", h.name)).or_insert(0) += h.histogram.count;
            }
            out
        }
        let before = totals(prev);
        let mut now = totals(self);
        now.retain(|name, total| {
            let prior = before.get(name).copied().unwrap_or(0);
            *total = total.saturating_sub(prior);
            *total > 0
        });
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_scope() {
        let r = ConcurrentRegistry::new();
        let s0 = Scope::model("GCN").layer(0);
        let s1 = Scope::model("GCN").layer(1);
        r.counter_add("bytes", &s0, 10);
        r.counter_add("bytes", &s0, 5);
        r.counter_add("bytes", &s1, 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter_at("bytes", &s0), Some(15));
        assert_eq!(snap.counter_at("bytes", &s1), Some(3));
        assert_eq!(snap.counter_total("bytes"), 18);
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = ConcurrentRegistry::new();
        r.gauge_set("balance", &Scope::ROOT, 0.4);
        r.gauge_set("balance", &Scope::ROOT, 0.9);
        assert_eq!(r.snapshot().gauge_at("balance", &Scope::ROOT), Some(0.9));
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_floor(11), 1024);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1106);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        assert!(h.quantile(0.5) <= 100);
        assert_eq!(h.quantile(1.0), 1000);
        // zero goes to bucket 0
        h.observe(0);
        assert_eq!(h.min, 0);
        assert_eq!(h.buckets[0], 1);
    }

    #[test]
    fn quantiles_respect_bucket_boundaries() {
        let mut h = Histogram::default();
        // 10 samples of 8 (bucket 4: [8, 16)) and 1 sample of 1000
        // (bucket 10: [512, 1024)).
        for _ in 0..10 {
            h.observe(8);
        }
        h.observe(1000);
        // p50 lands in bucket 4; its inclusive upper bound is 15.
        assert_eq!(h.p50(), 15);
        // p95 needs ⌈0.95·11⌉ = 11 samples; only bucket 10's cumulative
        // count reaches that, and its upper bound is capped at max.
        assert_eq!(h.p95(), 1000);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn quantiles_on_boundary_values() {
        let mut h = Histogram::default();
        // Powers of two sit at the *bottom* of their bucket: 2^i has bit
        // length i+1, so 16 opens bucket 5 whose range is [16, 32).
        h.observe(16);
        assert_eq!(Histogram::bucket_of(16), 5);
        assert_eq!(Histogram::bucket_floor(5), 16);
        // With one sample every quantile is that sample, clamped by
        // min/max rather than the bucket bound (31).
        assert_eq!(h.p50(), 16);
        assert_eq!(h.p95(), 16);
        assert_eq!(h.quantile(1.0), 16);
    }

    #[test]
    fn summary_of_empty_histogram() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.summary(), "n=0 mean=0.0 p50=0 p95=0 max=0");
    }

    #[test]
    fn p99_sits_between_p95_and_max() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max);
        // p99 needs ⌈0.99·1000⌉ = 990 samples; bucket 10 ([512, 1024))
        // is the first to reach that, upper bound capped at max = 1000.
        assert_eq!(h.p99(), 1000);
    }

    #[test]
    fn snapshot_quantiles_and_name_lookup() {
        let r = ConcurrentRegistry::new();
        r.observe("lat", &Scope::ROOT, 8);
        r.counter_add("hits", &Scope::ROOT, 1);
        r.gauge_set("depth", &Scope::ROOT, 2.0);
        let snap = r.snapshot();
        let (p50, p95, p99) = snap.quantiles_at("lat", &Scope::ROOT);
        assert_eq!((p50, p95, p99), (8, 8, 8));
        assert_eq!(snap.quantiles_at("absent", &Scope::ROOT), (0, 0, 0));
        assert!(snap.contains_name("lat"));
        assert!(snap.contains_name("hits"));
        assert!(snap.contains_name("depth"));
        assert!(!snap.contains_name("absent"));
    }

    #[test]
    fn delta_since_reports_only_movement() {
        let r = ConcurrentRegistry::new();
        r.counter_add("reqs", &Scope::ROOT, 3);
        r.counter_add("reqs", &Scope::model("GCN"), 1);
        r.counter_add("idle", &Scope::ROOT, 5);
        r.observe("lat", &Scope::ROOT, 10);
        let before = r.snapshot();

        assert!(before.delta_since(&before).is_empty(), "idle interval");
        assert_eq!(
            before.delta_since(&MetricsSnapshot::default()),
            BTreeMap::from([
                ("idle".to_string(), 5),
                ("lat.count".to_string(), 1),
                ("reqs".to_string(), 4),
            ])
        );

        r.counter_add("reqs", &Scope::ROOT, 2);
        r.observe("lat", &Scope::ROOT, 20);
        r.observe("lat", &Scope::ROOT, 30);
        let after = r.snapshot();
        assert_eq!(
            after.delta_since(&before),
            BTreeMap::from([("lat.count".to_string(), 2), ("reqs".to_string(), 2)])
        );
    }

    #[test]
    fn snapshot_is_deterministic_and_serializable() {
        let r = ConcurrentRegistry::new();
        r.counter_add("z", &Scope::ROOT, 1);
        r.counter_add("a", &Scope::ROOT, 2);
        r.observe("lat", &Scope::model("GIN"), 7);
        let s1 = serde_json::to_string(&r.snapshot()).unwrap();
        let s2 = serde_json::to_string(&r.snapshot()).unwrap();
        assert_eq!(s1, s2);
        // names sorted: "a" before "z"
        assert!(s1.find("\"a\"").unwrap() < s1.find("\"z\"").unwrap());
        let back: MetricsSnapshot = serde_json::from_str(&s1).unwrap();
        assert_eq!(back, r.snapshot());
    }
}
