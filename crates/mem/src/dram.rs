//! Event-driven DRAM bank model with FR-FCFS scheduling — the DRAMSim2
//! substitute.

use crate::address::AddressMapping;
use crate::timing::DramTiming;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One memory request (burst granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramRequest {
    pub id: u64,
    pub addr: u64,
    pub is_write: bool,
    /// Memory cycle at which the request reached the controller.
    pub arrival: u64,
}

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    /// Accesses to banks with no open row.
    pub row_closed: u64,
    pub bytes: u64,
    /// Sum of (finish − arrival) over all requests.
    pub total_latency: u64,
    /// Cycle at which the last request finished.
    pub finish_cycle: u64,
}

impl DramStats {
    /// Total requests serviced.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the next column command may issue (CAS pipelining:
    /// one burst per `t_burst`).
    cmd_ready_at: u64,
    /// Earliest cycle the next activate may issue (row cycle `t_rc`).
    act_ready_at: u64,
}

/// A single-channel DRAM device.
#[derive(Debug, Clone)]
pub struct Dram {
    timing: DramTiming,
    mapping: AddressMapping,
    banks: Vec<Bank>,
    bus_free_at: u64,
    /// Whether the last burst was a write (for turnaround penalties).
    last_was_write: Option<bool>,
    pending: VecDeque<DramRequest>,
    now: u64,
    stats: DramStats,
}

impl Dram {
    /// A device with the given timing and mapping.
    pub fn new(timing: DramTiming, mapping: AddressMapping) -> Self {
        Self {
            banks: vec![Bank::default(); mapping.banks],
            bus_free_at: 0,
            last_was_write: None,
            pending: VecDeque::new(),
            now: 0,
            stats: DramStats::default(),
            timing,
            mapping,
        }
    }

    /// A DDR3-1600 channel with the default mapping.
    pub fn ddr3() -> Self {
        Self::new(DramTiming::ddr3_1600(), AddressMapping::default_ddr3())
    }

    /// Current time in memory cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Queues a request.
    pub fn submit(&mut self, req: DramRequest) {
        self.pending.push_back(req);
    }

    /// Number of outstanding requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Pushes `t` past any all-bank refresh window it lands in: a refresh
    /// of `t_rfc` cycles begins every `t_refi` cycles and stalls the whole
    /// device.
    fn after_refresh(&self, t: u64) -> u64 {
        let refi = self.timing.t_refi;
        if refi == 0 || t < refi {
            return t; // the first refresh is due after one full interval
        }
        let phase = t % refi;
        if phase < self.timing.t_rfc {
            t - phase + self.timing.t_rfc
        } else {
            t
        }
    }

    /// FR-FCFS: among schedulable requests prefer ready row hits, then the
    /// oldest request. Returns the pending-queue index.
    fn pick(&self) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        // earliest time any request could issue
        let mut best_hit: Option<(u64, usize)> = None; // (issue_time, idx)
        let mut best_any: Option<(u64, usize)> = None;
        for (i, r) in self.pending.iter().enumerate() {
            let (bank, row) = self.mapping.decode(r.addr);
            let b = self.banks[bank];
            let is_hit = b.open_row == Some(row);
            let issue = if is_hit {
                b.cmd_ready_at.max(r.arrival)
            } else {
                b.cmd_ready_at.max(b.act_ready_at).max(r.arrival)
            };
            if is_hit && best_hit.is_none_or(|(t, _)| issue < t) {
                best_hit = Some((issue, i));
            }
            if best_any.is_none_or(|(t, _)| issue < t) {
                best_any = Some((issue, i));
            }
        }
        // Prefer a row hit unless a non-hit could issue strictly earlier by
        // a full miss penalty (prevents starvation-style inversion).
        match (best_hit, best_any) {
            (Some((th, ih)), Some((ta, _))) if th <= ta + self.timing.miss_latency() => Some(ih),
            (_, Some((_, ia))) => Some(ia),
            _ => None,
        }
    }

    /// Services every queued request; returns the drained statistics view.
    pub fn run_to_completion(&mut self) -> DramStats {
        while let Some(idx) = self.pick() {
            let req = self.pending.remove(idx).unwrap();
            let (bank_id, row) = self.mapping.decode(req.addr);
            let bank = self.banks[bank_id];
            let is_hit = bank.open_row == Some(row);
            let issue = if is_hit {
                bank.cmd_ready_at.max(req.arrival)
            } else {
                bank.cmd_ready_at.max(bank.act_ready_at).max(req.arrival)
            };
            let (prep, kind) = match bank.open_row {
                Some(r) if r == row => (0, RowOutcome::Hit),
                Some(_) => (self.timing.t_rp + self.timing.t_rcd, RowOutcome::Miss),
                None => (self.timing.t_rcd, RowOutcome::Closed),
            };
            let issue = self.after_refresh(issue);
            let data_ready = issue + prep + self.timing.t_cl;
            // bus turnaround when the direction flips
            let turnaround = match self.last_was_write {
                Some(w) if w != req.is_write => self.timing.t_turnaround,
                _ => 0,
            };
            let burst_start = self.after_refresh(data_ready.max(self.bus_free_at + turnaround));
            let finish = burst_start + self.timing.t_burst;
            self.bus_free_at = finish;
            self.last_was_write = Some(req.is_write);
            let act_ready_at = if is_hit {
                bank.act_ready_at
            } else {
                // the activate issued at `issue + (t_rp if miss)` starts a
                // new row cycle
                issue + (prep - self.timing.t_rcd) + self.timing.t_rc
            };
            self.banks[bank_id] = Bank {
                open_row: Some(row),
                // next CAS to this bank pipelines one burst behind
                cmd_ready_at: burst_start,
                act_ready_at,
            };
            match kind {
                RowOutcome::Hit => self.stats.row_hits += 1,
                RowOutcome::Miss => self.stats.row_misses += 1,
                RowOutcome::Closed => self.stats.row_closed += 1,
            }
            if req.is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            self.stats.bytes += self.timing.burst_bytes;
            self.stats.total_latency += finish - req.arrival;
            self.stats.finish_cycle = self.stats.finish_cycle.max(finish);
        }
        self.now = self.now.max(self.stats.finish_cycle);
        self.stats
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The device timing.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }
}

enum RowOutcome {
    Hit,
    Miss,
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_requests(n: u64, stride: u64) -> Vec<DramRequest> {
        (0..n)
            .map(|i| DramRequest {
                id: i,
                addr: i * stride,
                is_write: false,
                arrival: 0,
            })
            .collect()
    }

    #[test]
    fn single_request_closed_bank() {
        let mut d = Dram::ddr3();
        d.submit(DramRequest {
            id: 0,
            addr: 0,
            is_write: false,
            arrival: 0,
        });
        let s = d.run_to_completion();
        assert_eq!(s.requests(), 1);
        assert_eq!(s.row_closed, 1);
        assert_eq!(s.finish_cycle, d.timing().closed_latency());
    }

    #[test]
    fn sequential_stream_is_bandwidth_bound() {
        let mut d = Dram::ddr3();
        let n = 256;
        for r in seq_requests(n, 64) {
            d.submit(r);
        }
        let s = d.run_to_completion();
        assert_eq!(s.requests(), n);
        // After warm-up the bus is the bottleneck: ~t_burst per request.
        let lower = n * d.timing().t_burst;
        let upper = lower + 20 * d.timing().miss_latency();
        assert!(
            s.finish_cycle >= lower && s.finish_cycle <= upper,
            "finish {} not in [{lower}, {upper}]",
            s.finish_cycle
        );
        assert!(s.hit_rate() > 0.8, "streaming should mostly hit rows");
    }

    #[test]
    fn distinct_rows_all_miss() {
        let mut d = Dram::ddr3();
        // bank 0, a fresh row every access: FR-FCFS cannot create hits
        let row_span = 8u64 * 8 * 1024;
        for i in 0..64u64 {
            d.submit(DramRequest {
                id: i,
                addr: i * row_span,
                is_write: false,
                arrival: 0,
            });
        }
        let s = d.run_to_completion();
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.row_misses + s.row_closed, 64);
    }

    #[test]
    fn frfcfs_reorders_for_row_hits() {
        let mut d = Dram::ddr3();
        // alternating rows on one bank: an in-order scheduler would miss
        // every time, FR-FCFS batches each row
        let row_span = 8u64 * 8 * 1024;
        for i in 0..64u64 {
            d.submit(DramRequest {
                id: i,
                addr: (i % 2) * row_span,
                is_write: false,
                arrival: 0,
            });
        }
        let s = d.run_to_completion();
        assert!(
            s.row_hits >= 60,
            "FR-FCFS should service row batches, hits = {}",
            s.row_hits
        );
    }

    #[test]
    fn random_traffic_slower_than_sequential() {
        let seq_finish = {
            let mut d = Dram::ddr3();
            for r in seq_requests(128, 64) {
                d.submit(r);
            }
            d.run_to_completion().finish_cycle
        };
        let rand_finish = {
            let mut d = Dram::ddr3();
            // one bank, a new row per access → t_rc-limited
            for r in seq_requests(128, 8 * 8 * 1024) {
                d.submit(r);
            }
            d.run_to_completion().finish_cycle
        };
        assert!(
            rand_finish > seq_finish,
            "random {rand_finish} !> sequential {seq_finish}"
        );
    }

    #[test]
    fn writes_counted_separately() {
        let mut d = Dram::ddr3();
        d.submit(DramRequest {
            id: 0,
            addr: 0,
            is_write: true,
            arrival: 0,
        });
        d.submit(DramRequest {
            id: 1,
            addr: 64,
            is_write: false,
            arrival: 0,
        });
        let s = d.run_to_completion();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes, 128);
    }

    #[test]
    fn refresh_adds_overhead_to_long_streams() {
        // a stream long enough to span several refresh intervals
        let n = 20_000u64;
        let with = {
            let mut d = Dram::ddr3();
            for r in seq_requests(n, 64) {
                d.submit(r);
            }
            d.run_to_completion().finish_cycle
        };
        let without = {
            let mut t = DramTiming::ddr3_1600();
            t.t_refi = 0; // disable refresh
            let mut d = Dram::new(t, AddressMapping::default_ddr3());
            for r in seq_requests(n, 64) {
                d.submit(r);
            }
            d.run_to_completion().finish_cycle
        };
        assert!(with > without, "refresh must cost something");
        let overhead = with as f64 / without as f64 - 1.0;
        assert!(overhead < 0.10, "refresh overhead {overhead} too large");
    }

    #[test]
    fn read_write_alternation_pays_turnaround() {
        let alternating = {
            let mut d = Dram::ddr3();
            for i in 0..512u64 {
                d.submit(DramRequest {
                    id: i,
                    addr: i * 64,
                    is_write: i % 2 == 0,
                    arrival: 0,
                });
            }
            d.run_to_completion().finish_cycle
        };
        let uniform = {
            let mut d = Dram::ddr3();
            for r in seq_requests(512, 64) {
                d.submit(r);
            }
            d.run_to_completion().finish_cycle
        };
        assert!(
            alternating > uniform,
            "alternating {alternating} !> uniform {uniform}"
        );
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        // 8 requests across 8 banks vs 8 requests to one bank's rows
        let spread = {
            let mut d = Dram::ddr3();
            for i in 0..8u64 {
                d.submit(DramRequest {
                    id: i,
                    addr: i * 64,
                    is_write: false,
                    arrival: 0,
                });
            }
            d.run_to_completion().finish_cycle
        };
        let single = {
            let mut d = Dram::ddr3();
            // all bank 0, different rows
            let row_span = 8u64 * 8 * 1024;
            for i in 0..8u64 {
                d.submit(DramRequest {
                    id: i,
                    addr: i * row_span,
                    is_write: false,
                    arrival: 0,
                });
            }
            d.run_to_completion().finish_cycle
        };
        assert!(spread < single, "spread {spread} !< single-bank {single}");
    }
}
