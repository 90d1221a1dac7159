//! Capacity-driven subgraph tiling.
//!
//! §IV: "Typically, real-world graphs are large, exceeding the on-chip
//! memory capacity. We tile the large graph into several subgraphs based on
//! on-chip memory size. [...] the mapping algorithm will be performed before
//! the execution of each subgraph. After mapping a subgraph to the PE array,
//! the next subgraph starts being loaded from DRAM to overlap the latency."
//!
//! Tiles are contiguous vertex-id intervals, so a [`Subgraph`] borrows its
//! rows straight out of the parent CSR. Edges whose destination falls
//! outside the tile are *halo* edges: their endpoint features must be
//! fetched from DRAM (or another tile's residency window), which is what
//! drives the off-chip traffic model.

use crate::csr::{Csr, VertexId};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Parameters that decide how many vertices fit in one tile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TilingConfig {
    /// Total on-chip buffer bytes available for vertex features.
    pub onchip_bytes: usize,
    /// Feature vector width (elements).
    pub feature_dim: usize,
    /// Bytes per feature element (8 for the paper's double precision).
    pub bytes_per_element: usize,
    /// Fraction of the buffer reserved for resident vertex features (the
    /// rest holds weights, edge embeddings and intermediates).
    pub feature_fraction: f64,
}

impl TilingConfig {
    /// The paper's configuration: 1024 PEs × 100 KB distributed bank buffer,
    /// double precision, half the capacity budgeted to resident features.
    pub fn paper_default(feature_dim: usize) -> Self {
        Self {
            onchip_bytes: 1024 * 100 * 1024,
            feature_dim,
            bytes_per_element: 8,
            feature_fraction: 0.5,
        }
    }

    /// Maximum number of resident vertices per tile (at least 1).
    pub fn vertices_per_tile(&self) -> usize {
        let bytes_per_vertex = self.feature_dim * self.bytes_per_element;
        let budget = (self.onchip_bytes as f64 * self.feature_fraction) as usize;
        (budget / bytes_per_vertex.max(1)).max(1)
    }
}

/// A partition of a graph's vertices into contiguous interval tiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tiling {
    ranges: Vec<Range<u32>>,
}

impl Tiling {
    /// Tiles `g` under `cfg` into ⌈n / vertices_per_tile⌉ intervals.
    pub fn build(g: &Csr, cfg: &TilingConfig) -> Self {
        Self::with_tile_size(g, cfg.vertices_per_tile())
    }

    /// Tiles with an explicit tile size (used by tests and ablations).
    pub fn with_tile_size(g: &Csr, tile_size: usize) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        let n = g.num_vertices() as u32;
        let ts = tile_size as u32;
        let mut ranges = Vec::new();
        let mut start = 0u32;
        while start < n {
            let end = (start + ts).min(n);
            ranges.push(start..end);
            start = end;
        }
        if ranges.is_empty() {
            ranges.push(0..0);
        }
        Self { ranges }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.ranges.len()
    }

    /// The vertex interval of tile `i`.
    pub fn range(&self, i: usize) -> Range<u32> {
        self.ranges[i].clone()
    }

    /// Iterates over the tiles of `g` as [`Subgraph`] views.
    pub fn subgraphs<'a>(&'a self, g: &'a Csr) -> impl Iterator<Item = Subgraph<'a>> + 'a {
        self.ranges.iter().enumerate().map(move |(i, r)| Subgraph {
            parent: g,
            index: i,
            range: r.clone(),
        })
    }

    /// The [`Subgraph`] view of tile `i` — the indexed counterpart of
    /// [`Self::subgraphs`], usable from parallel per-tile fan-outs.
    pub fn subgraph<'a>(&self, g: &'a Csr, i: usize) -> Subgraph<'a> {
        Subgraph {
            parent: g,
            index: i,
            range: self.ranges[i].clone(),
        }
    }

    /// The tile index owning vertex `v`.
    pub fn tile_of(&self, v: VertexId) -> usize {
        // Intervals are contiguous and sorted, so locate by division when
        // uniform; fall back to scan for the (rare) non-uniform final tile.
        self.ranges
            .binary_search_by(|r| {
                if v < r.start {
                    std::cmp::Ordering::Greater
                } else if v >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .expect("vertex outside all tiles")
    }
}

/// A view of one tile: the subgraph induced on the sources in `range`.
#[derive(Debug, Clone)]
pub struct Subgraph<'a> {
    parent: &'a Csr,
    index: usize,
    range: Range<u32>,
}

impl<'a> Subgraph<'a> {
    /// Tile index within the tiling.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The global vertex interval owned by this tile.
    pub fn vertex_range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Number of owned vertices.
    pub fn num_vertices(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// The parent graph.
    pub fn parent(&self) -> &'a Csr {
        self.parent
    }

    /// Whether a global vertex id is owned by this tile.
    pub fn owns(&self, v: VertexId) -> bool {
        self.range.contains(&v)
    }

    /// Out-neighbours (global ids) of an owned vertex.
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        assert!(self.owns(v), "vertex {v} not owned by tile {}", self.index);
        self.parent.neighbors(v)
    }

    /// All edges sourced in this tile, `(src, dst)` with global ids.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + 'a {
        let parent = self.parent;
        self.range
            .clone()
            .flat_map(move |v| parent.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Number of edges sourced in this tile.
    pub fn num_edges(&self) -> usize {
        let rp = self.parent.row_ptr();
        (rp[self.range.end as usize] - rp[self.range.start as usize]) as usize
    }

    /// Number of edges whose destination lies outside the tile.
    pub fn num_halo_edges(&self) -> usize {
        self.edges().filter(|&(_, dst)| !self.owns(dst)).count()
    }

    /// Sorted unique external destinations (vertices whose features must be
    /// brought in from outside the tile's residency window).
    pub fn halo_vertices(&self) -> Vec<VertexId> {
        let mut h: Vec<VertexId> = self
            .edges()
            .filter(|&(_, dst)| !self.owns(dst))
            .map(|(_, dst)| dst)
            .collect();
        h.sort_unstable();
        h.dedup();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use proptest::prelude::*;

    #[test]
    fn tile_count_rounds_up() {
        let g = generate::ring(10);
        let t = Tiling::with_tile_size(&g, 4);
        assert_eq!(t.num_tiles(), 3);
        assert_eq!(t.range(0), 0..4);
        assert_eq!(t.range(2), 8..10);
    }

    #[test]
    fn single_tile_when_capacity_suffices() {
        let g = generate::ring(10);
        let t = Tiling::with_tile_size(&g, 100);
        assert_eq!(t.num_tiles(), 1);
        let sg: Vec<_> = t.subgraphs(&g).collect();
        assert_eq!(sg[0].num_edges(), g.num_edges());
        assert_eq!(sg[0].num_halo_edges(), 0);
    }

    #[test]
    fn tiles_partition_vertices_and_edges() {
        let g = generate::rmat(200, 1200, Default::default(), 11);
        let t = Tiling::with_tile_size(&g, 37);
        let nv: usize = t.subgraphs(&g).map(|s| s.num_vertices()).sum();
        let ne: usize = t.subgraphs(&g).map(|s| s.num_edges()).sum();
        assert_eq!(nv, g.num_vertices());
        assert_eq!(ne, g.num_edges());
    }

    #[test]
    fn halo_edges_cross_tile_boundary() {
        let g = generate::ring(8);
        let t = Tiling::with_tile_size(&g, 4);
        let sgs: Vec<_> = t.subgraphs(&g).collect();
        // tile 0 = {0..4}: edge 3->4 crosses; tile 1 = {4..8}: edge 7->0.
        assert_eq!(sgs[0].num_halo_edges(), 1);
        assert_eq!(sgs[1].num_halo_edges(), 1);
        assert_eq!(sgs[0].halo_vertices(), vec![4]);
        assert_eq!(sgs[1].halo_vertices(), vec![0]);
    }

    #[test]
    fn tile_of_locates_owner() {
        let g = generate::ring(10);
        let t = Tiling::with_tile_size(&g, 3);
        assert_eq!(t.tile_of(0), 0);
        assert_eq!(t.tile_of(2), 0);
        assert_eq!(t.tile_of(3), 1);
        assert_eq!(t.tile_of(9), 3);
    }

    #[test]
    #[should_panic(expected = "vertex outside all tiles")]
    fn tile_of_rejects_out_of_range() {
        let g = generate::ring(4);
        Tiling::with_tile_size(&g, 4).tile_of(4);
    }

    #[test]
    fn config_vertices_per_tile() {
        let cfg = TilingConfig {
            onchip_bytes: 1_000,
            feature_dim: 10,
            bytes_per_element: 8,
            feature_fraction: 0.8,
        };
        assert_eq!(cfg.vertices_per_tile(), 10); // 800 / 80
        let paper = TilingConfig::paper_default(1433);
        // 51.2 MB / (1433*8 B) ≈ 4576 vertices
        assert!(paper.vertices_per_tile() > 4000 && paper.vertices_per_tile() < 5000);
    }

    #[test]
    fn tiny_capacity_still_progresses() {
        let cfg = TilingConfig {
            onchip_bytes: 1,
            feature_dim: 1_000_000,
            bytes_per_element: 8,
            feature_fraction: 0.5,
        };
        assert_eq!(cfg.vertices_per_tile(), 1);
    }

    proptest! {
        #[test]
        fn tiling_partitions_any_graph(
            n in 1usize..120,
            ts in 1usize..50,
            seed in 0u64..20
        ) {
            let m = (n * 3).min(n * (n - 1).max(1));
            let g = generate::rmat(n, m, Default::default(), seed);
            let t = Tiling::with_tile_size(&g, ts);
            let nv: usize = t.subgraphs(&g).map(|s| s.num_vertices()).sum();
            prop_assert_eq!(nv, g.num_vertices());
            let ne: usize = t.subgraphs(&g).map(|s| s.num_edges()).sum();
            prop_assert_eq!(ne, g.num_edges());
            // every vertex is owned by exactly the tile tile_of reports
            for v in 0..n as u32 {
                let ti = t.tile_of(v);
                prop_assert!(t.range(ti).contains(&v));
            }
        }
    }
}
