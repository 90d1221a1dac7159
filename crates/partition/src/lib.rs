//! The Aurora partition heuristic — §V, Algorithm 2.
//!
//! A GNN layer's phases have unequal compute loads that depend on the graph
//! structure, feature sizes and model. Aurora splits its PE array into
//! **sub-accelerator A** (edge update + aggregation — the irregular phases)
//! and **sub-accelerator B** (vertex update — the regular neural phase),
//! sized so their pipeline stage times match: the partition sweeps
//! `a ∈ [0, P]` and minimises `|T_A − T_B|` where
//!
//! ```text
//! T_A = max(AComp1, AComp2) + AComp3
//! AComp1 = O_ue / (a · Flops)              (edge update)
//! AComp2 = (O_a − E_f · m) / (a · Flops)   (aggregation minus edge part)
//! AComp3 = (E_f · m) / (a · Flops)         (edge-aggregate)
//! T_B = O_uv / ((P − a) · Flops)           (vertex update)
//! ```
//!
//! Special cases (§V): with no vertex update only one accelerator forms
//! (`a = P`); with no edge update, `AComp1 = 0` and execution starts at
//! aggregation.
//!
//! ```
//! use aurora_model::{LayerShape, ModelId, Workload};
//! use aurora_partition::partition;
//!
//! let counts = Workload::from_sizes(ModelId::Gcn, 10_000, 80_000,
//!     LayerShape::new(128, 64)).op_counts();
//! let split = partition(&counts, 1024, 22.4e9);
//! assert_eq!(split.total(), 1024);
//! assert!(split.balance() > 0.95, "Algorithm 2 balances the stages");
//! ```

use aurora_model::PhaseOpCounts;
use aurora_telemetry::{Scope, Telemetry};
use serde::{Deserialize, Serialize};

/// The chosen split of `P` PEs into sub-accelerators A and B.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionStrategy {
    /// PEs assigned to sub-accelerator A (edge update + aggregation).
    pub a: usize,
    /// PEs assigned to sub-accelerator B (vertex update); `b = P − a`.
    pub b: usize,
    /// Estimated stage time of A in seconds.
    pub t_a: f64,
    /// Estimated stage time of B in seconds.
    pub t_b: f64,
}

impl PartitionStrategy {
    /// Total PEs.
    pub fn total(&self) -> usize {
        self.a + self.b
    }

    /// The pipeline stage time: the slower sub-accelerator bounds
    /// throughput.
    pub fn stage_time(&self) -> f64 {
        self.t_a.max(self.t_b)
    }

    /// Pipeline efficiency: ideal-work time over allocated-stage time
    /// (1.0 = perfectly balanced, → 0 as one side idles).
    pub fn balance(&self) -> f64 {
        let longest = self.stage_time();
        if longest == 0.0 {
            1.0
        } else {
            (self.t_a + self.t_b) / (2.0 * longest)
        }
    }

    /// Records this split under `scope`: PE allocation, the two stage
    /// times, and the Algorithm 2 balance figure. The engine calls this
    /// once per layer, so per-layer scopes show how the partition tracks
    /// each layer's phase mix.
    pub fn record_to(&self, telemetry: &Telemetry, scope: &Scope) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.gauge_set("partition.pes_a", scope, self.a as f64);
        telemetry.gauge_set("partition.pes_b", scope, self.b as f64);
        telemetry.gauge_set("partition.stage_a_seconds", scope, self.t_a);
        telemetry.gauge_set("partition.stage_b_seconds", scope, self.t_b);
        telemetry.gauge_set("partition.balance", scope, self.balance());
    }
}

/// Sub-accelerator A's stage time with `a` PEs (Algorithm 2 lines 2-7).
pub fn time_a(counts: &PhaseOpCounts, a: usize, flops_per_pe: f64) -> f64 {
    if a == 0 {
        return if counts.edge_update + counts.aggregation == 0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let cap = a as f64 * flops_per_pe;
    let edge_agg = counts.edge_aggregate_ops() as f64;
    let acomp1 = counts.edge_update as f64 / cap;
    let acomp2 = (counts.aggregation as f64 - edge_agg).max(0.0) / cap;
    let acomp3 = edge_agg / cap;
    acomp1.max(acomp2) + acomp3
}

/// Sub-accelerator B's stage time with `P − a` PEs (lines 9-11).
pub fn time_b(counts: &PhaseOpCounts, b: usize, flops_per_pe: f64) -> f64 {
    if b == 0 {
        return if counts.vertex_update == 0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    counts.vertex_update as f64 / (b as f64 * flops_per_pe)
}

/// Algorithm 2: sweeps `a ∈ [0, P]` and returns the split minimising
/// `|T_A − T_B|` (ties broken towards more PEs for A, matching the sweep
/// order). `flops_per_pe` is each PE's operations per second.
///
/// # Panics
/// Panics if `total_pes == 0` or `flops_per_pe <= 0`.
pub fn partition(counts: &PhaseOpCounts, total_pes: usize, flops_per_pe: f64) -> PartitionStrategy {
    assert!(total_pes > 0, "need at least one PE");
    assert!(flops_per_pe > 0.0, "PE throughput must be positive");

    // §V: "only one accelerator will be formed if vertex updates are not
    // required".
    if counts.vertex_update == 0 {
        let a = total_pes;
        return PartitionStrategy {
            a,
            b: 0,
            t_a: time_a(counts, a, flops_per_pe),
            t_b: 0.0,
        };
    }
    // Symmetrically, a pure-MLP layer needs no sub-accelerator A.
    if counts.edge_update + counts.aggregation == 0 {
        return PartitionStrategy {
            a: 0,
            b: total_pes,
            t_a: 0.0,
            t_b: time_b(counts, total_pes, flops_per_pe),
        };
    }

    let mut best: Option<PartitionStrategy> = None;
    for a in 0..=total_pes {
        let t_a = time_a(counts, a, flops_per_pe);
        let t_b = time_b(counts, total_pes - a, flops_per_pe);
        let diff = (t_a - t_b).abs();
        let better = match &best {
            None => true,
            Some(s) => diff < (s.t_a - s.t_b).abs(),
        };
        if better {
            best = Some(PartitionStrategy {
                a,
                b: total_pes - a,
                t_a,
                t_b,
            });
        }
    }
    best.expect("sweep is non-empty")
}

/// Extension beyond Algorithm 2: balance *total* stage times including
/// each side's communication cycles (`comm_a`, `comm_b` in seconds), i.e.
/// minimise `|T_A + comm_a − (T_B + comm_b)|`. With zero communication it
/// reduces exactly to [`partition`]. Useful when the on-chip estimate is
/// known before partitioning; documented in DESIGN.md as an extension.
pub fn partition_with_comm(
    counts: &PhaseOpCounts,
    total_pes: usize,
    flops_per_pe: f64,
    comm_a: f64,
    comm_b: f64,
) -> PartitionStrategy {
    assert!(total_pes > 0, "need at least one PE");
    assert!(flops_per_pe > 0.0, "PE throughput must be positive");
    assert!(
        comm_a >= 0.0 && comm_b >= 0.0,
        "communication times are non-negative"
    );
    if counts.vertex_update == 0 {
        let a = total_pes;
        return PartitionStrategy {
            a,
            b: 0,
            t_a: time_a(counts, a, flops_per_pe) + comm_a,
            t_b: 0.0,
        };
    }
    if counts.edge_update + counts.aggregation == 0 {
        return PartitionStrategy {
            a: 0,
            b: total_pes,
            t_a: 0.0,
            t_b: time_b(counts, total_pes, flops_per_pe) + comm_b,
        };
    }
    let mut best: Option<PartitionStrategy> = None;
    for a in 0..=total_pes {
        let t_a = time_a(counts, a, flops_per_pe) + comm_a;
        let t_b = time_b(counts, total_pes - a, flops_per_pe) + comm_b;
        let diff = (t_a - t_b).abs();
        let better = match &best {
            None => true,
            Some(s) => diff < (s.t_a - s.t_b).abs(),
        };
        if better {
            best = Some(PartitionStrategy {
                a,
                b: total_pes - a,
                t_a,
                t_b,
            });
        }
    }
    best.expect("sweep is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_graph::generate;
    use aurora_model::{LayerShape, ModelId, Workload};
    use proptest::prelude::*;

    fn counts_for(model: ModelId, n: usize, m: usize) -> PhaseOpCounts {
        Workload::from_sizes(model, n, m, LayerShape::new(32, 16)).op_counts()
    }

    #[test]
    fn balanced_loads_split_evenly() {
        // symmetric synthetic counts
        let c = PhaseOpCounts {
            edge_update: 0,
            aggregation: 1_000_000,
            vertex_update: 1_000_000,
            edge_feature_dim: 0,
            num_edges: 1,
            num_vertices: 1,
        };
        let s = partition(&c, 100, 1e9);
        assert_eq!(s.a, 50);
        assert_eq!(s.b, 50);
        assert!((s.t_a - s.t_b).abs() < 1e-12);
        assert!((s.balance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_vertex_update_gets_more_pes() {
        let c = PhaseOpCounts {
            edge_update: 0,
            aggregation: 1_000,
            vertex_update: 99_000,
            edge_feature_dim: 0,
            num_edges: 1,
            num_vertices: 1,
        };
        let s = partition(&c, 100, 1e9);
        assert!(s.b > 90, "B should dominate: {s:?}");
    }

    #[test]
    fn edgeconv_forms_single_accelerator() {
        // §V: EdgeConv has no vertex update → a = P.
        let c = counts_for(ModelId::EdgeConv1, 100, 500);
        let s = partition(&c, 64, 1e9);
        assert_eq!(s.a, 64);
        assert_eq!(s.b, 0);
        assert_eq!(s.t_b, 0.0);
    }

    #[test]
    fn gin_skips_edge_update_term() {
        // GIN: no edge update → AComp1 = 0, E_f = 0, AComp3 = 0.
        let c = counts_for(ModelId::Gin, 1000, 5000);
        assert_eq!(c.edge_update, 0);
        assert_eq!(c.edge_aggregate_ops(), 0);
        let t = time_a(&c, 10, 1e9);
        assert!((t - c.aggregation as f64 / 1e10).abs() < 1e-15);
    }

    #[test]
    fn gcn_acomp2_is_zero_when_aggregation_is_pure_edge_aggregate() {
        // For GCN the whole aggregation is the E_f × m term → AComp3.
        let c = counts_for(ModelId::Gcn, 1000, 5000);
        assert_eq!(c.aggregation, c.edge_aggregate_ops());
    }

    #[test]
    fn more_pes_never_slower() {
        let c = counts_for(ModelId::Gcn, 2000, 12000);
        let s64 = partition(&c, 64, 1e9);
        let s256 = partition(&c, 256, 1e9);
        assert!(s256.stage_time() <= s64.stage_time());
    }

    #[test]
    fn partition_of_all_zoo_models_is_sane() {
        let g = generate::rmat(256, 2000, Default::default(), 4);
        for id in ModelId::ALL {
            let c = Workload::of(id, &g, LayerShape::new(64, 32)).op_counts();
            let s = partition(&c, 1024, 1e9);
            assert_eq!(s.total(), 1024, "{}", id.name());
            let spec = id.spec();
            if !spec.has_vertex_update() {
                assert_eq!(s.b, 0, "{}", id.name());
            } else {
                assert!(s.a > 0 && s.b > 0, "{}: {s:?}", id.name());
            }
            assert!(s.stage_time().is_finite(), "{}", id.name());
        }
    }

    #[test]
    fn comm_aware_reduces_to_algorithm2_with_zero_comm() {
        let c = counts_for(ModelId::Gcn, 2000, 12000);
        let plain = partition(&c, 256, 1e9);
        let comm = partition_with_comm(&c, 256, 1e9, 0.0, 0.0);
        assert_eq!(plain.a, comm.a);
        assert_eq!(plain.b, comm.b);
    }

    #[test]
    fn comm_on_a_side_shifts_pes_to_a() {
        let c = PhaseOpCounts {
            edge_update: 0,
            aggregation: 1_000_000,
            vertex_update: 1_000_000,
            edge_feature_dim: 0,
            num_edges: 1,
            num_vertices: 1,
        };
        let plain = partition(&c, 100, 1e9);
        // heavy aggregation-side communication: balance needs more A PEs
        let comm = partition_with_comm(&c, 100, 1e9, 5e-4, 0.0);
        assert!(
            comm.a > plain.a,
            "comm-aware a = {} should exceed plain a = {}",
            comm.a,
            plain.a
        );
    }

    #[test]
    fn record_to_exports_stage_balance() {
        let c = counts_for(ModelId::Gcn, 2000, 12000);
        let s = partition(&c, 256, 1e9);
        let t = Telemetry::enabled();
        let scope = Scope::model("GCN").layer(1);
        s.record_to(&t, &scope);
        let snap = t.snapshot();
        assert_eq!(snap.gauge_at("partition.pes_a", &scope), Some(s.a as f64));
        assert_eq!(snap.gauge_at("partition.pes_b", &scope), Some(s.b as f64));
        assert_eq!(
            snap.gauge_at("partition.balance", &scope),
            Some(s.balance())
        );
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let c = counts_for(ModelId::Gcn, 10, 10);
        partition(&c, 0, 1e9);
    }

    proptest! {
        #[test]
        fn sweep_minimises_diff(
            oue in 0u64..1_000_000,
            oa in 1u64..1_000_000,
            ouv in 1u64..1_000_000,
            p in 2usize..300,
        ) {
            let c = PhaseOpCounts {
                edge_update: oue,
                aggregation: oa,
                vertex_update: ouv,
                edge_feature_dim: 0,
                num_edges: 1,
                num_vertices: 1,
            };
            let s = partition(&c, p, 1e9);
            let best_diff = (s.t_a - s.t_b).abs();
            for a in 0..=p {
                let d = (time_a(&c, a, 1e9) - time_b(&c, p - a, 1e9)).abs();
                prop_assert!(best_diff <= d + 1e-12, "a={a} beats chosen {s:?}");
            }
        }

        #[test]
        fn stage_times_scale_inversely_with_flops(
            oue in 1u64..100_000,
            oa in 1u64..100_000,
            ouv in 1u64..100_000,
        ) {
            let c = PhaseOpCounts {
                edge_update: oue,
                aggregation: oa,
                vertex_update: ouv,
                edge_feature_dim: 0,
                num_edges: 1,
                num_vertices: 1,
            };
            let slow = partition(&c, 64, 1e8);
            let fast = partition(&c, 64, 1e9);
            prop_assert_eq!(slow.a, fast.a, "split is flops-invariant");
            prop_assert!((slow.stage_time() / fast.stage_time() - 10.0).abs() < 1e-6);
        }
    }
}
