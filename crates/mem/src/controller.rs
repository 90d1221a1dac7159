//! Memory controller: the accelerator-facing DRAM interface.
//!
//! The accelerator-level simulators count *accesses* (the paper's
//! methodology: "the number of accesses to each memory hierarchy is used to
//! calculate the communication time") and convert them to cycles with the
//! analytic helpers here; the event-driven [`crate::Dram`] engine validates
//! those analytics (see tests).

use crate::dram::{Dram, DramRequest, DramStats};
use crate::timing::DramTiming;
use aurora_telemetry::{Scope, Telemetry};
use serde::{Deserialize, Serialize};

/// Access-counting view of off-chip traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficCounters {
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Bytes issued as sequential streams (row-buffer friendly).
    pub sequential_bytes: u64,
    /// Bytes issued as scattered accesses (row-buffer hostile).
    pub random_bytes: u64,
}

impl TrafficCounters {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Total DRAM accesses at burst granularity.
    pub fn accesses(&self, burst_bytes: u64) -> u64 {
        self.total_bytes().div_ceil(burst_bytes)
    }
}

/// Analytic + event-driven DRAM interface with `channels` channels.
#[derive(Debug, Clone)]
pub struct MemoryController {
    timing: DramTiming,
    channels: usize,
    /// Effective fraction of peak bandwidth achieved by sequential streams.
    seq_efficiency: f64,
    /// Effective fraction of peak bandwidth achieved by random bursts.
    rand_efficiency: f64,
    counters: TrafficCounters,
    next_id: u64,
    /// Observability handle (disabled by default: probes cost one branch).
    telemetry: Telemetry,
    /// Labels attributed to subsequent traffic (the engine narrows this to
    /// the current layer/tile).
    scope: Scope,
}

impl MemoryController {
    /// A controller over `channels` DDR3-1600 channels. The efficiency
    /// factors are calibrated against the event-driven engine (see the
    /// `analytic_matches_event_driven` test).
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0);
        Self {
            timing: DramTiming::ddr3_1600(),
            channels,
            seq_efficiency: 0.90,
            rand_efficiency: 0.35,
            counters: TrafficCounters::default(),
            next_id: 0,
            telemetry: Telemetry::disabled(),
            scope: Scope::ROOT,
        }
    }

    /// Attaches an observability handle; subsequent traffic is recorded
    /// as `dram.*` counters and a `dram.request_bytes` histogram under
    /// the current scope.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sets the scope attributed to subsequent traffic.
    pub fn set_scope(&mut self, scope: Scope) {
        self.scope = scope;
    }

    fn probe(&self, counter: &str, bytes: u64, sequential: bool) {
        if !self.telemetry.is_enabled() || bytes == 0 {
            return;
        }
        self.telemetry.counter_add(counter, &self.scope, bytes);
        let locality = if sequential {
            "dram.sequential_bytes"
        } else {
            "dram.random_bytes"
        };
        self.telemetry.counter_add(locality, &self.scope, bytes);
        self.telemetry
            .observe("dram.request_bytes", &self.scope, bytes);
    }

    /// Device timing.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Peak bandwidth in bytes per memory cycle across all channels.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.timing.peak_bytes_per_cycle() * self.channels as f64
    }

    /// Records a sequential read stream and returns its memory-cycle cost.
    pub fn stream_read(&mut self, bytes: u64) -> u64 {
        self.counters.read_bytes += bytes;
        self.counters.sequential_bytes += bytes;
        self.probe("dram.read_bytes", bytes, true);
        self.stream_cycles(bytes, true)
    }

    /// Records a sequential write stream.
    pub fn stream_write(&mut self, bytes: u64) -> u64 {
        self.counters.write_bytes += bytes;
        self.counters.sequential_bytes += bytes;
        self.probe("dram.write_bytes", bytes, true);
        self.stream_cycles(bytes, true)
    }

    /// Records scattered reads (graph-irregular gathers).
    pub fn random_read(&mut self, bytes: u64) -> u64 {
        self.counters.read_bytes += bytes;
        self.counters.random_bytes += bytes;
        self.probe("dram.read_bytes", bytes, false);
        self.stream_cycles(bytes, false)
    }

    /// Memory cycles to move `bytes` with the given locality.
    pub fn stream_cycles(&self, bytes: u64, sequential: bool) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let eff = if sequential {
            self.seq_efficiency
        } else {
            self.rand_efficiency
        };
        let cycles = bytes as f64 / (self.peak_bytes_per_cycle() * eff);
        cycles.ceil() as u64 + self.timing.closed_latency()
    }

    /// Converts memory cycles to accelerator cycles at `accel_mhz`.
    pub fn to_accel_cycles(&self, mem_cycles: u64, accel_mhz: u64) -> u64 {
        ((mem_cycles as u128 * accel_mhz as u128).div_ceil(self.timing.clock_mhz as u128)) as u64
    }

    /// Cumulative traffic counters.
    pub fn counters(&self) -> TrafficCounters {
        self.counters
    }

    /// Runs an access trace through the event-driven engine (one channel)
    /// and returns its statistics — used to validate the analytic model.
    pub fn replay(&mut self, addrs: &[u64], is_write: bool) -> DramStats {
        let mut dram = Dram::new(self.timing, crate::address::AddressMapping::default_ddr3());
        for &addr in addrs {
            dram.submit(DramRequest {
                id: self.next_id,
                addr,
                is_write,
                arrival: 0,
            });
            self.next_id += 1;
        }
        dram.run_to_completion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut mc = MemoryController::new(1);
        mc.stream_read(1000);
        mc.stream_write(500);
        mc.random_read(200);
        let c = mc.counters();
        assert_eq!(c.read_bytes, 1200);
        assert_eq!(c.write_bytes, 500);
        assert_eq!(c.sequential_bytes, 1500);
        assert_eq!(c.random_bytes, 200);
        assert_eq!(c.total_bytes(), 1700);
        assert_eq!(c.accesses(64), 27);
    }

    #[test]
    fn telemetry_mirrors_counters() {
        let mut mc = MemoryController::new(2);
        let t = Telemetry::enabled();
        mc.attach_telemetry(t.clone());
        mc.set_scope(Scope::model("GCN").layer(0));
        mc.stream_read(1000);
        mc.random_read(200);
        mc.set_scope(Scope::model("GCN").layer(1));
        mc.stream_write(500);
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("dram.read_bytes"), 1200);
        assert_eq!(snap.counter_total("dram.write_bytes"), 500);
        assert_eq!(snap.counter_total("dram.sequential_bytes"), 1500);
        assert_eq!(snap.counter_total("dram.random_bytes"), 200);
        assert_eq!(
            snap.counter_at("dram.write_bytes", &Scope::model("GCN").layer(1)),
            Some(500)
        );
        // telemetry mirrors, never replaces, the plain counters
        assert_eq!(mc.counters().total_bytes(), 1700);
    }

    #[test]
    fn detached_controller_records_nothing() {
        let mut mc = MemoryController::new(1);
        mc.stream_read(64);
        // no handle attached: the default telemetry is disabled
        assert!(!Telemetry::disabled().is_enabled());
    }

    #[test]
    fn random_slower_than_sequential() {
        let mc = MemoryController::new(1);
        let n = 1 << 20;
        assert!(mc.stream_cycles(n, false) > 2 * mc.stream_cycles(n, true));
    }

    #[test]
    fn more_channels_faster() {
        let one = MemoryController::new(1);
        let four = MemoryController::new(4);
        let n = 1 << 22;
        assert!(four.stream_cycles(n, true) < one.stream_cycles(n, true) / 2);
    }

    #[test]
    fn zero_bytes_free() {
        let mc = MemoryController::new(2);
        assert_eq!(mc.stream_cycles(0, true), 0);
    }

    #[test]
    fn clock_conversion() {
        let mc = MemoryController::new(1);
        // 800 memory cycles @ 800 MHz = 1 µs = 700 accel cycles @ 700 MHz
        assert_eq!(mc.to_accel_cycles(800, 700), 700);
    }

    /// The analytic sequential-stream model must agree with the
    /// event-driven engine within ~25 %.
    #[test]
    fn analytic_matches_event_driven() {
        let mut mc = MemoryController::new(1);
        let bursts = 2048u64;
        let addrs: Vec<u64> = (0..bursts).map(|i| i * 64).collect();
        let stats = mc.replay(&addrs, false);
        let analytic = mc.stream_cycles(bursts * 64, true);
        let measured = stats.finish_cycle;
        let ratio = analytic as f64 / measured as f64;
        assert!(
            (0.75..1.35).contains(&ratio),
            "analytic {analytic} vs measured {measured} (ratio {ratio:.2})"
        );
    }
}
