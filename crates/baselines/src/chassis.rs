//! The shared analytic chassis all baseline models run on.
//!
//! Methodology (matching the paper's §VI-A): count each phase's arithmetic
//! operations and memory-hierarchy accesses under the baseline's dataflow,
//! convert to time through the engine throughputs and the shared DRAM
//! model, and overlap compute with off-chip transfer through double
//! buffering. All baselines are normalised to Aurora's multiplier count,
//! DRAM bandwidth and 100 MB of on-chip storage.
//!
//! On-chip communication uses the *same* route-walking estimator as the
//! Aurora engine (`aurora_core::noc_model`) — but with the hashing-based
//! mapping on a plain mesh-equivalent fabric, scaled by each design's
//! interconnect-quality factor ("HyGCN, AWB-GCN, GCNAX, ReGNN, and FlowGNN
//! only use simple interconnects … to enable the communication between
//! PEs", §VI-D). This makes the hot-spot effect of hash-mapped high-degree
//! vertices emerge mechanically for the baselines, exactly as it does for
//! Aurora.

use aurora_core::noc_model::{self, OnChipEstimate};
use aurora_core::report::{LayerReport, NocReport, PhaseCycles, SimReport};
use aurora_energy::{ActivityCounts, EnergyModel};
use aurora_graph::{Csr, Tiling};
use aurora_mapping::hashing;
use aurora_mem::MemoryController;
use aurora_model::{LayerShape, ModelCategory, ModelId, Phase, Workload};
use aurora_noc::NocConfig;
use aurora_partition::PartitionStrategy;
use serde::{Deserialize, Serialize};

/// Resources every baseline is normalised to (§VI-A "the baseline
/// accelerators are scaled to be equipped with the same number of
/// multipliers and DRAM bandwidth as Aurora … with 100 MB on-chip
/// storage").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineParams {
    pub num_multipliers: usize,
    pub clock_mhz: u64,
    pub dram_channels: usize,
    pub onchip_bytes: usize,
}

impl Default for BaselineParams {
    fn default() -> Self {
        Self {
            num_multipliers: 1024 * 16, // 1024 PEs × 16 lanes
            clock_mhz: 700,
            dram_channels: 4,
            onchip_bytes: 100 * 1024 * 1024,
        }
    }
}

impl BaselineParams {
    /// Mesh radix of the PE-grid-equivalent fabric (16 multipliers per PE,
    /// like Aurora's normalisation).
    pub fn mesh_k(&self) -> usize {
        (((self.num_multipliers / 16) as f64).sqrt().round() as usize).max(2)
    }
}

/// The dataflow knobs that differentiate the designs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataflowKnobs {
    /// Fraction of multipliers hard-wired to the irregular (aggregation)
    /// engine; `None` = one unified/rebalanced engine.
    pub engine_split: Option<f64>,
    /// Fraction of the shorter phase hidden by pipelining (0 = fully
    /// sequential phases, 1 = perfect tandem pipeline).
    pub pipeline_overlap: f64,
    /// Resident weight copies; each copy is streamed from DRAM and eats
    /// feature residency ("the weight matrix needs to be duplicated in all
    /// processing elements", §VI-B).
    pub weight_copies: usize,
    /// Fraction of on-chip storage available for feature residency.
    pub feature_budget_fraction: f64,
    /// Multiplier on neighbour-gather miss traffic (lower = smarter
    /// tiling/loop order).
    pub gather_efficiency: f64,
    /// Minimum gather miss rate even when the graph fits on chip —
    /// rigid buffer partitioning and streaming dataflows re-fetch.
    pub miss_floor: f64,
    /// Whether inter-phase intermediates spill to DRAM (designs without
    /// Aurora's direct A→B forwarding and without fused loops).
    pub spill_intermediates: bool,
    /// Fraction of aggregation operations eliminated as redundant
    /// (ReGNN's contribution).
    pub redundancy_elim: f64,
    /// Interconnect-quality multiplier on the mesh-equivalent on-chip
    /// estimate (≥ 1; crossbars between engines serialise, queues add
    /// latency).
    pub interconnect_factor: f64,
    /// Whether the design executes edge-update operations at all.
    pub supports_edge_ops: bool,
    /// Whether attention (A-GNN) models are supported.
    pub supports_attention: bool,
    /// Compute utilisation of the regular (dense) engine.
    pub util_regular: f64,
    /// Compute utilisation of the irregular (sparse) engine.
    pub util_irregular: f64,
}

/// One baseline accelerator = shared chassis + its knobs.
#[derive(Debug, Clone)]
pub struct BaselineChassis {
    pub name: &'static str,
    pub params: BaselineParams,
    pub knobs: DataflowKnobs,
}

impl BaselineChassis {
    /// Whether the design can execute `model` (Table I).
    pub fn supports(&self, model: ModelId) -> bool {
        let spec = model.spec();
        match spec.category {
            // GCN's scalar edge scaling folds into the adjacency matrix
            // for matrix-abstraction designs, so C-GNNs always run.
            ModelCategory::CGnn => true,
            ModelCategory::AGnn => self.knobs.supports_attention,
            ModelCategory::MpGnn => self.knobs.supports_edge_ops,
        }
    }

    /// On-chip estimate for one layer: hashing-mapped traffic on the
    /// mesh-equivalent fabric, first tile extrapolated across tiles.
    fn onchip_estimate(&self, g: &Csr, msg_words: usize, f_in: usize) -> OnChipEstimate {
        let k = self.params.mesh_k();
        let f_bytes = (f_in * 8).max(8);
        let c_pe = (self.params.onchip_bytes as f64 * self.knobs.feature_budget_fraction
            / (k * k) as f64
            / f_bytes as f64)
            .floor()
            .max(1.0) as usize;
        let tile_size = (k * k * c_pe).min(g.num_vertices().max(1));
        let tiling = Tiling::with_tile_size(g, tile_size.max(1));
        let cfg = NocConfig::mesh(k);
        let mut total = OnChipEstimate::default();
        for sg in tiling.subgraphs(g) {
            let range = sg.vertex_range();
            let degrees: Vec<u32> = range.clone().map(|v| g.degree(v) as u32).collect();
            let mapping = hashing::map(range, &degrees, k, c_pe);
            let est = noc_model::aggregation_traffic(
                &cfg,
                &mapping,
                sg.edges(),
                msg_words,
                noc_model::DEFAULT_LINK_UTILISATION,
            )
            .expect("plain mesh config routes every message");
            total = total.then(&est);
        }
        total.cycles = (total.cycles as f64 * self.knobs.interconnect_factor).ceil() as u64;
        total
    }

    /// Simulates inference over `g` through the given layer shapes,
    /// producing the same report shape as `AuroraSimulator::run`.
    ///
    /// # Panics
    /// Panics if the design does not support the model (check
    /// [`Self::supports`] first — the harness only compares on common
    /// ground, like the paper).
    pub fn simulate(
        &self,
        g: &Csr,
        model: ModelId,
        shapes: &[LayerShape],
        workload: &str,
    ) -> SimReport {
        assert!(
            self.supports(model),
            "{} does not support {}",
            self.name,
            model.name()
        );
        let p = &self.params;
        let kn = &self.knobs;
        let mut mem = MemoryController::new(p.dram_channels);
        let mut activity = ActivityCounts::default();
        let mut layers = Vec::new();
        let mut total_cycles = 0u64;
        let n = g.num_vertices();
        let m = g.num_edges();
        let clock_hz = p.clock_mhz as f64 * 1e6;

        for (li, &shape) in shapes.iter().enumerate() {
            let w = Workload::of(model, g, shape);
            let counts = w.op_counts();
            let spec = model.spec();

            // --- compute time ------------------------------------------
            let irregular =
                (counts.edge_update + counts.aggregation) as f64 * (1.0 - kn.redundancy_elim);
            let regular = counts.vertex_update as f64;
            let total_flops = 2.0 * p.num_multipliers as f64 * clock_hz;
            let (t_irr, t_reg) = match kn.engine_split {
                Some(f) => (
                    irregular / (total_flops * f * kn.util_irregular),
                    if regular == 0.0 {
                        0.0
                    } else {
                        regular / (total_flops * (1.0 - f) * kn.util_regular)
                    },
                ),
                None => (
                    irregular / (total_flops * kn.util_irregular),
                    regular / (total_flops * kn.util_regular),
                ),
            };
            // tandem engines overlap up to `pipeline_overlap` of the
            // shorter phase; a unified engine is inherently sequential.
            let overlap = if kn.engine_split.is_some() {
                kn.pipeline_overlap
            } else {
                0.0
            };
            let t_compute = t_irr.max(t_reg) + (1.0 - overlap) * t_irr.min(t_reg);
            let compute_cycles = (t_compute * clock_hz).ceil() as u64;

            // --- on-chip communication ---------------------------------
            let msg_words = if spec.has_edge_update() {
                spec.edge_feature_dim(shape.f_in)
            } else {
                shape.f_in
            };
            let noc = self.onchip_estimate(g, msg_words, shape.f_in);

            // --- DRAM traffic -------------------------------------------
            let f_bytes = (shape.f_in * 8) as u64;
            let weight_bytes = w.weight_bytes();
            let mut mem_cycles = 0u64;
            // duplicated weight copies each stream from DRAM
            mem_cycles += mem.stream_read(weight_bytes * kn.weight_copies as u64);
            mem_cycles += mem.stream_read(n as u64 * f_bytes); // base features
                                                               // residency window after weights claim their copies
            let budget = (p.onchip_bytes as f64 * kn.feature_budget_fraction
                - (weight_bytes * kn.weight_copies as u64) as f64)
                .max(f_bytes as f64);
            let window = (budget / f_bytes as f64).max(1.0);
            let p_miss = (1.0 - window / n as f64).max(kn.miss_floor);
            // Edge-driven misses, capped by sweep reuse: a window pass never
            // needs to re-stream the feature table more than twice per
            // window (high-average-degree graphs amortise).
            let windows = (n as f64 / window).ceil().max(1.0);
            let gather_elems =
                (m as f64 * p_miss * kn.gather_efficiency).min(2.0 * n as f64 * windows);
            let gather_bytes = (gather_elems * f_bytes as f64) as u64;
            mem_cycles += mem.random_read(gather_bytes);
            if spec.uses_edge_embeddings() {
                mem_cycles += mem.stream_read((m * msg_words * 8) as u64);
            }
            // inter-phase intermediates: Aurora forwards A→B directly;
            // these designs either stage in global SRAM or spill to DRAM.
            let inter_bytes = (n * shape.f_in * 8) as u64;
            if kn.spill_intermediates {
                mem_cycles += mem.stream_write(inter_bytes);
                mem_cycles += mem.stream_read(inter_bytes);
            } else {
                activity.global_sram_words += 2 * inter_bytes / 8;
            }
            let out_dim = if spec.has_vertex_update() {
                shape.f_out
            } else {
                msg_words.max(shape.f_in)
            };
            mem_cycles += mem.stream_write((n * out_dim * 8) as u64);
            let dram_cycles = mem.to_accel_cycles(mem_cycles, p.clock_mhz);

            // --- combine: compute+on-chip vs double-buffered DRAM --------
            let exec = compute_cycles + noc.cycles;
            let layer_cycles = exec.max(dram_cycles);
            total_cycles += layer_cycles;

            // --- activity ------------------------------------------------
            for ph in [Phase::EdgeUpdate, Phase::Aggregation, Phase::VertexUpdate] {
                let (mu, ad) = w.phase_mult_add(ph);
                if ph == Phase::Aggregation {
                    let keep = 1.0 - kn.redundancy_elim;
                    activity.fp_mults += (mu as f64 * keep) as u64;
                    activity.fp_adds += (ad as f64 * keep) as u64;
                } else {
                    activity.fp_mults += mu;
                    activity.fp_adds += ad;
                }
            }
            activity.local_sram_words += counts.total() + (n * (shape.f_in + out_dim)) as u64;
            activity.noc_flit_hops += noc.flit_hops;

            layers.push(LayerReport {
                layer: li,
                shape,
                partition: PartitionStrategy {
                    a: (p.num_multipliers as f64 * kn.engine_split.unwrap_or(1.0)) as usize / 16,
                    b: 0,
                    t_a: t_irr,
                    t_b: t_reg,
                },
                tiles: 1,
                op_counts: counts,
                compute_cycles,
                phase_cycles: PhaseCycles {
                    sub_a_compute: (t_irr * clock_hz).ceil() as u64,
                    sub_b_compute: (t_reg * clock_hz).ceil() as u64,
                    sub_a_noc: noc.cycles,
                    sub_b_noc: 0,
                },
                noc: NocReport::from(noc),
                dram_cycles,
                total_cycles: layer_cycles,
            });
        }

        activity.cycles = total_cycles;
        activity.dram_bytes = mem.counters().total_bytes();
        let energy = EnergyModel {
            clock_mhz: p.clock_mhz as f64,
            ..EnergyModel::default()
        }
        .evaluate(&activity);

        SimReport {
            accelerator: self.name.into(),
            model: model.name().into(),
            workload: workload.into(),
            layers,
            total_cycles,
            clock_mhz: p.clock_mhz,
            dram: mem.counters(),
            activity,
            energy,
            reconfigurations: 0,
            instructions: Vec::new(),
            metrics: aurora_telemetry::MetricsSnapshot::default(),
            // Baseline cost models don't decompose their pipeline; only
            // the Aurora engine produces a bound attribution.
            profile: aurora_core::profile::ProfileReport::default(),
            host_profile: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::BaselineKind;
    use aurora_graph::generate;

    #[test]
    fn chassis_runs_gcn() {
        let g = generate::rmat(256, 2000, Default::default(), 1);
        let b = BaselineKind::Gcnax.build(BaselineParams::default());
        let r = b.simulate(&g, ModelId::Gcn, &[LayerShape::new(64, 32)], "t");
        assert!(r.total_cycles > 0);
        assert!(r.dram.total_bytes() > 0);
        assert!(r.energy_joules() > 0.0);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_model_rejected() {
        let g = generate::ring(8);
        let b = BaselineKind::HyGcn.build(BaselineParams::default());
        b.simulate(&g, ModelId::GGcn, &[LayerShape::new(8, 4)], "t");
    }

    #[test]
    fn redundancy_elimination_reduces_ops() {
        let g = generate::rmat(128, 1000, Default::default(), 2);
        let regnn = BaselineKind::ReGnn.build(BaselineParams::default());
        let hygcn = BaselineKind::HyGcn.build(BaselineParams::default());
        let r1 = regnn.simulate(&g, ModelId::Gcn, &[LayerShape::new(32, 16)], "t");
        let r2 = hygcn.simulate(&g, ModelId::Gcn, &[LayerShape::new(32, 16)], "t");
        assert!(r1.activity.fp_adds < r2.activity.fp_adds);
    }

    #[test]
    fn mesh_k_matches_aurora_grid() {
        assert_eq!(BaselineParams::default().mesh_k(), 32);
    }
}
