//! Workload mapping onto the PE array — §IV, Algorithm 1.
//!
//! Hashing-based mapping (the CGRA-ME baseline policy) is oblivious to
//! vertex degree, so several high-degree vertices frequently land on the
//! same row or column and their one-to-many aggregation traffic contends
//! for the same links. Aurora's **degree-aware mapping** places the PEs
//! that will host high-degree vertices (`S_PE`s) on an N-Queen pattern —
//! no two share a row, column or diagonal — so each can be served by its
//! row's and column's bypass link without contention.
//!
//! * [`nqueen`] — the N-Queen placement (Algorithm 1 lines 1-12);
//! * [`degree_aware`] — high-degree identification + placement
//!   (lines 13-25);
//! * [`hashing`] — the baseline modulo-hash policy;
//! * [`plan`] — bypass-segment planning ("the bypassing links will be used
//!   to bridge the longest communications for each high-degree vertex").

pub mod degree_aware;
pub mod hashing;
pub mod nqueen;
pub mod plan;

use aurora_telemetry::{Scope, Telemetry};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which mapping policy produced a [`VertexMapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Algorithm 1.
    DegreeAware,
    /// CGRA-ME-style modulo hashing.
    Hashing,
}

/// The placement of one subgraph's vertices onto a `k × k` PE array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexMapping {
    /// Which policy produced this mapping.
    pub policy: MappingPolicy,
    /// The contiguous global-vertex-id range that was mapped.
    pub range: Range<u32>,
    /// `pe_of[v - range.start]` = linear PE id (`y * k + x`). `u32`
    /// keeps the slab half the size of a word-per-vertex layout — the
    /// engine streams these per tile.
    pub pe_of: Vec<u32>,
    /// Array radix.
    pub k: usize,
    /// The S_PE positions chosen by the N-Queen step (empty for hashing).
    pub s_pes: Vec<usize>,
    /// The vertices identified as high-degree, in descending degree order.
    pub high_degree: Vec<u32>,
}

impl VertexMapping {
    /// A borrowed, allocation-free view of this mapping.
    pub fn view(&self) -> MapView<'_> {
        MapView {
            policy: self.policy,
            range: self.range.clone(),
            pe_of: &self.pe_of,
            k: self.k,
            s_pes: &self.s_pes,
            high_degree: &self.high_degree,
        }
    }

    /// The PE hosting global vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is outside the mapped range.
    pub fn pe_of(&self, v: u32) -> usize {
        assert!(self.range.contains(&v), "vertex {v} not in mapped range");
        self.pe_of[(v - self.range.start) as usize] as usize
    }

    /// `(x, y)` coordinate of the PE hosting `v`.
    pub fn coord_of(&self, v: u32) -> (usize, usize) {
        let pe = self.pe_of(v);
        (pe % self.k, pe / self.k)
    }

    /// Number of vertices mapped to each PE.
    pub fn load_per_pe(&self) -> Vec<usize> {
        self.view().load_per_pe()
    }

    /// Counts pairs of high-degree vertices sharing a row plus pairs
    /// sharing a column — the contention measure the degree-aware mapping
    /// drives to zero (its S_PEs are row/column-disjoint by construction).
    pub fn high_degree_conflicts(&self) -> usize {
        self.view().high_degree_conflicts()
    }

    /// Mean pairwise Manhattan distance between the S_PE positions — how
    /// far apart the N-Queen step spread the high-degree hosts (0 with
    /// fewer than two S_PEs). A larger spread means the bypass links serve
    /// disjoint regions of the array.
    pub fn s_pe_spread(&self) -> f64 {
        self.view().s_pe_spread()
    }
}

/// A borrowed view of one tile's placement — the shape the engine's
/// per-tile kernels consume. [`VertexMapping`] owns its buffers and
/// [`VertexMapping::view`]s them; the engine's arena path slices its
/// per-layer slabs into views directly, so the steady state never
/// materialises an owned mapping at all.
#[derive(Debug, Clone)]
pub struct MapView<'a> {
    /// Which policy produced this mapping.
    pub policy: MappingPolicy,
    /// The contiguous global-vertex-id range that was mapped.
    pub range: Range<u32>,
    /// `pe_of[v - range.start]` = linear PE id (`y * k + x`).
    pub pe_of: &'a [u32],
    /// Array radix.
    pub k: usize,
    /// The S_PE positions chosen by the N-Queen step (empty for hashing).
    pub s_pes: &'a [usize],
    /// The vertices identified as high-degree, in descending degree order.
    pub high_degree: &'a [u32],
}

impl MapView<'_> {
    /// The PE hosting global vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is outside the mapped range.
    pub fn pe_of(&self, v: u32) -> usize {
        assert!(self.range.contains(&v), "vertex {v} not in mapped range");
        self.pe_of[(v - self.range.start) as usize] as usize
    }

    /// `(x, y)` coordinate of the PE hosting `v`.
    pub fn coord_of(&self, v: u32) -> (usize, usize) {
        let pe = self.pe_of(v);
        (pe % self.k, pe / self.k)
    }

    /// Number of vertices mapped to each PE.
    pub fn load_per_pe(&self) -> Vec<usize> {
        let mut load = vec![0; self.k * self.k];
        for &pe in self.pe_of {
            load[pe as usize] += 1;
        }
        load
    }

    /// See [`VertexMapping::high_degree_conflicts`].
    pub fn high_degree_conflicts(&self) -> usize {
        let coords: Vec<(usize, usize)> =
            self.high_degree.iter().map(|&v| self.coord_of(v)).collect();
        let mut conflicts = 0;
        for i in 0..coords.len() {
            for j in (i + 1)..coords.len() {
                // co-located vertices share one S_PE (and its bypass), which
                // is not a link conflict
                if coords[i] == coords[j] {
                    continue;
                }
                if coords[i].0 == coords[j].0 || coords[i].1 == coords[j].1 {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }

    /// See [`VertexMapping::s_pe_spread`].
    pub fn s_pe_spread(&self) -> f64 {
        if self.s_pes.len() < 2 {
            return 0.0;
        }
        let coords: Vec<(usize, usize)> = self
            .s_pes
            .iter()
            .map(|&pe| (pe % self.k, pe / self.k))
            .collect();
        let mut total = 0usize;
        let mut pairs = 0usize;
        for i in 0..coords.len() {
            for j in (i + 1)..coords.len() {
                total += coords[i].0.abs_diff(coords[j].0) + coords[i].1.abs_diff(coords[j].1);
                pairs += 1;
            }
        }
        total as f64 / pairs as f64
    }
}

/// Reusable working memory for the `*_into` mapping kernels: the sort
/// order, per-PE load counters and fill order live here across tiles
/// and layers, so a warmed-up scratch maps without allocating.
#[derive(Debug, Default)]
pub struct MapScratch {
    pub(crate) order: Vec<u32>,
    pub(crate) load: Vec<u32>,
    pub(crate) fill_order: Vec<usize>,
    pub(crate) s_pes: Vec<usize>,
    pub(crate) is_s_pe: Vec<bool>,
    /// The radix `s_pes`/`is_s_pe` were computed for (0 = never).
    pub(crate) s_pes_k: usize,
}

impl MapScratch {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn prepare_s_pes(&mut self, k: usize) {
        if self.s_pes_k != k {
            self.s_pes = nqueen::s_pe_positions(k);
            self.is_s_pe.clear();
            self.is_s_pe.resize(k * k, false);
            for &p in &self.s_pes {
                self.is_s_pe[p] = true;
            }
            self.s_pes_k = k;
        }
    }
}

/// Upper bound on the number of high-degree vertices either policy can
/// emit for a tile of `n` vertices: `N_HN = (K − 1) · C_PE`, clamped to
/// the tile population. Callers of the `*_into` kernels size their
/// high-degree output slices with this.
pub fn high_degree_cap(n: usize, k: usize, c_pe: usize) -> usize {
    (k.saturating_sub(1) * c_pe).min(n)
}

/// Records a mapping's placement quality under `scope`: the row/column
/// conflict count among high-degree vertices (the quantity Algorithm 1
/// drives to zero), the high-degree population, the S_PE spread, and the
/// per-PE load imbalance. Allocation-free when telemetry is disabled (the
/// metric computations only run when a recorder is attached).
pub fn record_quality_view(telemetry: &Telemetry, scope: &Scope, mapping: &MapView<'_>) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.observe(
        "mapping.high_degree_conflicts",
        scope,
        mapping.high_degree_conflicts() as u64,
    );
    telemetry.observe(
        "mapping.high_degree_count",
        scope,
        mapping.high_degree.len() as u64,
    );
    telemetry.gauge_set("mapping.s_pe_spread", scope, mapping.s_pe_spread());
    let load = mapping.load_per_pe();
    let max = load.iter().copied().max().unwrap_or(0);
    let mean = if load.is_empty() {
        0.0
    } else {
        load.iter().sum::<usize>() as f64 / load.len() as f64
    };
    telemetry.gauge_set(
        "mapping.load_imbalance",
        scope,
        if mean > 0.0 { max as f64 / mean } else { 1.0 },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mapping() -> VertexMapping {
        VertexMapping {
            policy: MappingPolicy::Hashing,
            range: 10..14,
            pe_of: vec![0, 1, 2, 0],
            k: 2,
            s_pes: vec![],
            high_degree: vec![10, 11],
        }
    }

    #[test]
    fn lookup_and_coords() {
        let m = tiny_mapping();
        assert_eq!(m.pe_of(10), 0);
        assert_eq!(m.pe_of(13), 0);
        assert_eq!(m.coord_of(12), (0, 1));
    }

    #[test]
    #[should_panic(expected = "not in mapped range")]
    fn out_of_range_rejected() {
        tiny_mapping().pe_of(9);
    }

    #[test]
    fn load_counts() {
        let m = tiny_mapping();
        assert_eq!(m.load_per_pe(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn conflict_metric() {
        // high-degree at PE 0 (0,0) and PE 1 (1,0): same row → 1 conflict
        let m = tiny_mapping();
        assert_eq!(m.high_degree_conflicts(), 1);
        // co-located pair is not a conflict
        let m2 = VertexMapping {
            high_degree: vec![10, 13],
            ..m
        };
        assert_eq!(m2.high_degree_conflicts(), 0);
    }

    #[test]
    fn spread_of_spaced_spes() {
        let m = VertexMapping {
            s_pes: vec![0, 3], // (0,0) and (1,1) on k=2
            ..tiny_mapping()
        };
        assert_eq!(m.s_pe_spread(), 2.0);
        assert_eq!(tiny_mapping().s_pe_spread(), 0.0, "no S_PEs → 0");
    }

    #[test]
    fn quality_probe_records_conflicts_and_spread() {
        let t = Telemetry::enabled();
        let scope = Scope::model("GCN").layer(0);
        let m = VertexMapping {
            s_pes: vec![0, 3],
            ..tiny_mapping()
        };
        record_quality_view(&t, &scope, &m.view());
        let snap = t.snapshot();
        let conflicts = snap
            .histogram_at("mapping.high_degree_conflicts", &scope)
            .unwrap();
        assert_eq!(conflicts.count, 1);
        assert_eq!(conflicts.max, 1); // tiny_mapping has one row conflict
        assert_eq!(snap.gauge_at("mapping.s_pe_spread", &scope), Some(2.0));
        assert!(snap.gauge_at("mapping.load_imbalance", &scope).unwrap() > 1.0);
    }
}
