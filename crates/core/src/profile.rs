//! Bottleneck attribution: *which resource binds each phase*.
//!
//! The engine computes, per tile, a compute time per sub-accelerator, an
//! on-chip (NoC) time, and an off-chip (DRAM) time, then takes maxima to
//! form the double-buffered pipeline envelope. This module keeps the
//! losing bounds instead of throwing them away and decomposes every
//! tile's envelope slot into a four-way **bound taxonomy**:
//!
//! * [`Bound::Compute`] — balanced PE compute on the slower pipeline
//!   stage (the paper's vertex-update-heavy regime);
//! * [`Bound::Imbalance`] — the max-busy vs mean-busy gap of the mapped
//!   array: cycles the critical-path PE works while the mean PE idles;
//! * [`Bound::Noc`] — on-chip communication of the slower stage (the
//!   aggregation regime of Fig. 8);
//! * [`Bound::Dram`] — off-chip cycles *not hidden* by the double
//!   buffer (the exposed excess of `max(exec, dram)` over `exec`).
//!
//! The four cycle counts of a tile sum exactly to its envelope slot, so
//! summed over tiles (plus the exposed controller overhead) they
//! reproduce the run total — attribution that always adds up, which is
//! what makes it trustworthy enough to gate performance work on.

use aurora_telemetry::{Scope, Telemetry};
use serde::{Deserialize, Serialize};

/// The resource a span of cycles is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Bound {
    /// Balanced compute on the critical pipeline stage.
    Compute,
    /// On-chip communication of the critical pipeline stage.
    Noc,
    /// Exposed (un-overlapped) off-chip traffic.
    Dram,
    /// Compute lost to PE load imbalance (max-busy minus mean-busy).
    Imbalance,
}

impl Bound {
    /// All bounds, in reporting order.
    pub const ALL: [Bound; 4] = [Bound::Compute, Bound::Noc, Bound::Dram, Bound::Imbalance];

    /// Stable lower-case label (`compute`, `noc`, `dram`, `imbalance`).
    pub fn label(&self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Noc => "noc",
            Bound::Dram => "dram",
            Bound::Imbalance => "imbalance",
        }
    }
}

/// Cycles attributed to each bound. Adding mixes adds component-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundMix {
    pub compute: u64,
    pub noc: u64,
    pub dram: u64,
    pub imbalance: u64,
}

impl BoundMix {
    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.compute + self.noc + self.dram + self.imbalance
    }

    /// The cycles attributed to one bound.
    pub fn of(&self, bound: Bound) -> u64 {
        match bound {
            Bound::Compute => self.compute,
            Bound::Noc => self.noc,
            Bound::Dram => self.dram,
            Bound::Imbalance => self.imbalance,
        }
    }

    /// Fraction of the total attributed to one bound (0 when empty).
    pub fn fraction(&self, bound: Bound) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.of(bound) as f64 / t as f64
        }
    }

    /// `(bound, fraction)` for every bound, in reporting order. Fractions
    /// sum to 1 (± float error) whenever any cycles were attributed.
    pub fn fractions(&self) -> [(Bound, f64); 4] {
        Bound::ALL.map(|b| (b, self.fraction(b)))
    }

    /// The bound holding the largest share. Ties resolve in
    /// [`Bound::ALL`] order (compute, noc, dram, imbalance).
    pub fn dominant(&self) -> Bound {
        let mut best = Bound::Compute;
        for b in Bound::ALL {
            if self.of(b) > self.of(best) {
                best = b;
            }
        }
        best
    }

    /// Component-wise sum.
    pub fn add(&self, o: &BoundMix) -> BoundMix {
        BoundMix {
            compute: self.compute + o.compute,
            noc: self.noc + o.noc,
            dram: self.dram + o.dram,
            imbalance: self.imbalance + o.imbalance,
        }
    }
}

/// One pipeline stage's (sub-accelerator's) contribution to a tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SideAttribution {
    /// Balanced compute cycles (`t / imbalance`).
    pub compute_cycles: u64,
    /// Critical-path penalty: raw compute minus the balanced part.
    pub imbalance_cycles: u64,
    /// On-chip communication cycles of this stage.
    pub noc_cycles: u64,
    /// Max-busy / mean-busy ratio of the mapped work (≥ 1).
    pub imbalance: f64,
    /// The busiest router on this stage's traffic (linear id), if any
    /// traffic was routed.
    pub hot_router: Option<usize>,
}

impl SideAttribution {
    /// Splits `compute` cycles by the mapped work's `imbalance` ratio
    /// (max-busy / mean-busy, ≥ 1): the balanced share is what a
    /// perfectly level mapping would need, the rest is the critical-path
    /// penalty the busiest PE adds.
    pub fn new(compute: u64, noc: u64, imbalance: f64, hot_router: Option<usize>) -> Self {
        let rho = imbalance.max(1.0);
        let balanced = ((compute as f64 / rho).round() as u64).min(compute);
        SideAttribution {
            compute_cycles: balanced,
            imbalance_cycles: compute - balanced,
            noc_cycles: noc,
            imbalance: rho,
            hot_router,
        }
    }

    /// The stage's pipeline time (compute + penalty + traffic).
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.imbalance_cycles + self.noc_cycles
    }
}

/// Which sub-accelerator set a tile's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CriticalStage {
    /// Sub-accelerator A (edge update + aggregation).
    A,
    /// Sub-accelerator B (vertex update).
    B,
}

/// Full attribution of one tile's envelope slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileAttribution {
    pub layer: usize,
    pub tile: usize,
    /// Sub-accelerator A (edge update + aggregation).
    pub a: SideAttribution,
    /// Sub-accelerator B (vertex update); zeroed for single-accelerator
    /// models.
    pub b: SideAttribution,
    /// Off-chip cycles of this tile (converted to core cycles).
    pub dram_cycles: u64,
    /// The double-buffer envelope: `max(exec, dram)`.
    pub slot_cycles: u64,
    /// The stage that set `exec = max(A, B)`.
    pub critical: CriticalStage,
    /// The winning bound (see [`TileAttribution::candidate`]).
    pub bound: Bound,
    /// The slot decomposed into the four bounds (sums to `slot_cycles`).
    pub mix: BoundMix,
}

impl TileAttribution {
    /// Builds the attribution of one tile from its two stage profiles
    /// and its off-chip time.
    pub fn new(
        layer: usize,
        tile: usize,
        a: SideAttribution,
        b: SideAttribution,
        dram_cycles: u64,
    ) -> Self {
        let critical = if a.total() >= b.total() {
            CriticalStage::A
        } else {
            CriticalStage::B
        };
        let w = match critical {
            CriticalStage::A => &a,
            CriticalStage::B => &b,
        };
        let exec = w.total();
        let slot = exec.max(dram_cycles);
        let mix = BoundMix {
            compute: w.compute_cycles,
            noc: w.noc_cycles,
            imbalance: w.imbalance_cycles,
            dram: slot - exec,
        };
        let mut t = TileAttribution {
            layer,
            tile,
            a,
            b,
            dram_cycles,
            slot_cycles: slot,
            critical,
            bound: Bound::Compute,
            mix,
        };
        t.bound = t.dominant_candidate();
        t
    }

    /// Execution time of the tile: the slower pipeline stage.
    pub fn exec_cycles(&self) -> u64 {
        self.a.total().max(self.b.total())
    }

    /// The critical stage's attribution.
    pub fn critical_side(&self) -> &SideAttribution {
        match self.critical {
            CriticalStage::A => &self.a,
            CriticalStage::B => &self.b,
        }
    }

    /// A bound's *candidate pacing time* — the cycles it would take for
    /// that resource alone to finish the tile:
    ///
    /// * `Dram` — the full off-chip time when it exceeds execution (it
    ///   paces the slot), else 0 (fully hidden by the double buffer);
    /// * `Compute` / `Noc` / `Imbalance` — that component of the
    ///   critical stage.
    ///
    /// The winning bound is the arg-max of the candidates, so the label
    /// always agrees with the tile-time max: whenever `dram ≥ exec` the
    /// tile is DRAM-bound, otherwise the largest component of the
    /// critical stage wins.
    pub fn candidate(&self, bound: Bound) -> u64 {
        let w = self.critical_side();
        match bound {
            Bound::Compute => w.compute_cycles,
            Bound::Noc => w.noc_cycles,
            Bound::Imbalance => w.imbalance_cycles,
            Bound::Dram => {
                if self.dram_cycles >= self.exec_cycles() {
                    self.dram_cycles
                } else {
                    0
                }
            }
        }
    }

    /// Arg-max of the candidates; ties resolve in [`Bound::ALL`] order.
    fn dominant_candidate(&self) -> Bound {
        let mut best = Bound::Compute;
        for b in Bound::ALL {
            if self.candidate(b) > self.candidate(best) {
                best = b;
            }
        }
        best
    }

    /// A losing bound's slack: how many cycles behind the winner its
    /// candidate pacing time is (0 for the winner itself).
    pub fn slack(&self, bound: Bound) -> u64 {
        self.candidate(self.bound)
            .saturating_sub(self.candidate(bound))
    }

    /// Slot fractions per bound (sum to 1 ± float error for a non-empty
    /// slot).
    pub fn fractions(&self) -> [(Bound, f64); 4] {
        self.mix.fractions()
    }

    /// Records the tile's attribution as `bound.*_cycles` counters and a
    /// `bound.dominant` gauge (bound index in [`Bound::ALL`]) under
    /// `scope`, citing the critical stage's hottest router when known.
    pub fn record_to(&self, telemetry: &Telemetry, scope: &Scope) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.counter_add("bound.compute_cycles", scope, self.mix.compute);
        telemetry.counter_add("bound.noc_cycles", scope, self.mix.noc);
        telemetry.counter_add("bound.dram_cycles", scope, self.mix.dram);
        telemetry.counter_add("bound.imbalance_cycles", scope, self.mix.imbalance);
        let idx = Bound::ALL.iter().position(|b| *b == self.bound).unwrap();
        telemetry.gauge_set("bound.dominant", scope, idx as f64);
        if let Some(r) = self.critical_side().hot_router {
            telemetry.gauge_set("bound.hot_router", scope, r as f64);
        }
    }
}

/// Per-layer aggregation of the tile attributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    pub layer: usize,
    pub tiles: usize,
    /// Summed tile mixes (totals to the layer's tile-slot cycles).
    pub mix: BoundMix,
    /// Exposed controller cycles of this layer (map/partition decision +
    /// first NoC reconfiguration).
    pub overhead_cycles: u64,
    /// Sub-accelerator A busy fraction of the layer's slot cycles.
    pub util_a: f64,
    /// Sub-accelerator B busy fraction.
    pub util_b: f64,
    /// Off-chip busy fraction (including the hidden, overlapped part).
    pub util_dram: f64,
    /// Table-II ops of the layer.
    pub ops: u64,
    /// Off-chip bytes moved by the layer.
    pub dram_bytes: u64,
    /// Roofline x-coordinate: ops per DRAM byte.
    pub operational_intensity: f64,
    /// The layer's dominant bound (of the summed mix).
    pub dominant: Bound,
}

/// Whole-run bottleneck profile, embedded in `SimReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Summed tile mixes; `mix.total() + overhead_cycles` equals the
    /// run's `total_cycles`.
    pub mix: BoundMix,
    /// Exposed controller cycles across all layers.
    pub overhead_cycles: u64,
    pub layers: Vec<LayerProfile>,
    /// Every tile's attribution, in execution order.
    pub tiles: Vec<TileAttribution>,
    /// Total Table-II ops of the run.
    pub ops: u64,
    /// Total off-chip bytes.
    pub dram_bytes: u64,
    /// Roofline x-coordinate: ops per DRAM byte.
    pub operational_intensity: f64,
    /// Achieved throughput in GFLOP/s.
    pub achieved_gflops: f64,
    /// Array peak in GFLOP/s (`k² × per-PE FLOP/s`).
    pub peak_gflops: f64,
    /// Off-chip peak bandwidth in GB/s.
    pub dram_peak_gbps: f64,
    /// Achievable fraction of raw link bandwidth assumed by the NoC
    /// model (see `AcceleratorConfig::link_utilisation`).
    pub link_utilisation: f64,
    /// Route tables built by the engine's NoC-config interner — one per
    /// distinct NoC configuration seen across the tile × layer loop.
    pub route_table_builds: u64,
}

impl ProfileReport {
    /// True when no attribution was recorded (e.g. a baseline report).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty() && self.mix.total() == 0
    }

    /// Run-level slot fractions per bound.
    pub fn fractions(&self) -> [(Bound, f64); 4] {
        self.mix.fractions()
    }

    /// The run's dominant bound.
    pub fn dominant(&self) -> Bound {
        self.mix.dominant()
    }

    /// Fraction of the run spent in exposed controller overhead.
    pub fn overhead_fraction(&self) -> f64 {
        let t = self.mix.total() + self.overhead_cycles;
        if t == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / t as f64
        }
    }

    /// The `k` slot-heaviest tiles — where optimisation effort pays.
    pub fn top_limiting_tiles(&self, k: usize) -> Vec<&TileAttribution> {
        let mut v: Vec<&TileAttribution> = self.tiles.iter().collect();
        v.sort_by(|x, y| {
            y.slot_cycles
                .cmp(&x.slot_cycles)
                .then(x.layer.cmp(&y.layer))
                .then(x.tile.cmp(&y.tile))
        });
        v.truncate(k);
        v
    }

    /// Merges another run's profile into this one, offsetting its layer
    /// indices by `layer_offset` (batch simulation).
    pub fn merge(&mut self, other: &ProfileReport, layer_offset: usize) {
        self.mix = self.mix.add(&other.mix);
        self.overhead_cycles += other.overhead_cycles;
        self.layers
            .extend(other.layers.iter().cloned().map(|mut l| {
                l.layer += layer_offset;
                l
            }));
        self.tiles.extend(other.tiles.iter().cloned().map(|mut t| {
            t.layer += layer_offset;
            t
        }));
        self.ops += other.ops;
        self.dram_bytes += other.dram_bytes;
        self.route_table_builds += other.route_table_builds;
        self.operational_intensity = if self.dram_bytes == 0 {
            0.0
        } else {
            self.ops as f64 / self.dram_bytes as f64
        };
        // rates re-derive from the merged totals at finalize time; keep
        // the configuration header fields from self (same accelerator)
        self.achieved_gflops = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(compute: u64, noc: u64, rho: f64) -> SideAttribution {
        SideAttribution::new(compute, noc, rho, Some(3))
    }

    #[test]
    fn side_split_is_exact() {
        let s = side(100, 40, 2.0);
        assert_eq!(s.compute_cycles, 50);
        assert_eq!(s.imbalance_cycles, 50);
        assert_eq!(s.total(), 140);
        // degenerate ratios clamp
        let flat = side(100, 0, 0.5);
        assert_eq!(flat.compute_cycles, 100);
        assert_eq!(flat.imbalance_cycles, 0);
    }

    #[test]
    fn tile_mix_sums_to_slot() {
        let t = TileAttribution::new(0, 0, side(100, 40, 1.25), side(30, 10, 1.0), 200);
        assert_eq!(t.exec_cycles(), 140);
        assert_eq!(t.slot_cycles, 200);
        assert_eq!(t.mix.total(), t.slot_cycles);
        assert_eq!(t.bound, Bound::Dram, "dram paces the slot");
        let frac_sum: f64 = t.fractions().iter().map(|(_, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hidden_dram_never_dominates() {
        let t = TileAttribution::new(0, 1, side(100, 180, 1.0), side(0, 0, 1.0), 250);
        assert_eq!(t.slot_cycles, 280);
        assert_eq!(t.bound, Bound::Noc);
        assert_eq!(t.candidate(Bound::Dram), 0, "fully overlapped");
        let t2 = TileAttribution::new(0, 2, side(100, 180, 1.0), side(0, 0, 1.0), 300);
        assert_eq!(t2.bound, Bound::Dram, "now it paces the slot");
        assert!(t2.slack(Bound::Noc) == 120 && t2.slack(Bound::Dram) == 0);
    }

    #[test]
    fn critical_stage_selection() {
        let t = TileAttribution::new(1, 0, side(10, 5, 1.0), side(80, 0, 4.0), 0);
        assert_eq!(t.critical, CriticalStage::B);
        assert_eq!(t.bound, Bound::Imbalance);
        assert_eq!(t.mix.imbalance, 60);
        assert_eq!(t.mix.compute, 20);
    }

    #[test]
    fn profile_top_tiles_ordered() {
        let mut p = ProfileReport::default();
        for (i, slot) in [(0usize, 10u64), (1, 50), (2, 30)] {
            let t = TileAttribution::new(0, i, side(slot, 0, 1.0), side(0, 0, 1.0), 0);
            p.mix = p.mix.add(&t.mix);
            p.tiles.push(t);
        }
        let top = p.top_limiting_tiles(2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].tile, top[1].tile), (1, 2));
        assert_eq!(p.dominant(), Bound::Compute);
        assert!(!p.is_empty());
    }

    #[test]
    fn merge_offsets_layers() {
        let mk = |layer| {
            let mut p = ProfileReport::default();
            let t = TileAttribution::new(layer, 0, side(10, 0, 1.0), side(0, 0, 1.0), 0);
            p.mix = t.mix;
            p.tiles.push(t);
            p.overhead_cycles = 5;
            p.ops = 100;
            p.dram_bytes = 50;
            p
        };
        let mut a = mk(0);
        a.merge(&mk(0), 2);
        assert_eq!(a.tiles.len(), 2);
        assert_eq!(a.tiles[1].layer, 2);
        assert_eq!(a.overhead_cycles, 10);
        assert_eq!(a.ops, 200);
        assert!((a.operational_intensity - 2.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_records_bounds() {
        let t = Telemetry::enabled();
        let tile = TileAttribution::new(0, 0, side(100, 40, 1.25), side(0, 0, 1.0), 0);
        let scope = Scope::model("GCN").layer(0);
        tile.record_to(&t, &scope);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter_at("bound.compute_cycles", &scope),
            Some(tile.mix.compute)
        );
        assert_eq!(snap.gauge_at("bound.hot_router", &scope), Some(3.0));
        assert!(snap.gauge_at("bound.dominant", &scope).is_some());
    }
}
