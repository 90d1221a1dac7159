//! Arena-backed scratch memory for the engine's steady state.
//!
//! The per-tile pipeline needs working memory for every tile of every
//! layer — degrees, placements, per-PE loads, bypass plans, traffic
//! estimates. This module keeps all of it alive across tiles, layers
//! *and* runs:
//!
//! * [`WorkerArena`] — one per pool worker thread (thread-local),
//!   holding the buffers a single tile's pure precompute needs. Fan-out
//!   over the worker pool touches only warmed-up thread-locals, so the
//!   parallel region is allocation-free after the first layer.
//! * [`TileArena`] — one per *calling* thread (thread-local, taken at
//!   the start of a run and put back at its end), holding the scratch
//!   [`SessionState`] a run that brings no state of its own computes
//!   into, the traffic stages' per-tile buffers ([`SeqScratch`]) and the
//!   N-Queen S_PE positions.
//!
//! A run's tile artifacts always live in a [`SessionState`]: per layer,
//! structure-of-arrays slabs the tiles write into ([`TileSlabs`]). The
//! SoA layout: one flat `pe_of` slab indexed by global vertex id
//! (tiles partition the vertex space contiguously), plus fixed-stride
//! per-tile slabs for high-degree ids and planned bypass segments.
//! Scalar per-tile outputs land in a [`TileOut`] row. Tile views borrow
//! straight into the slabs — the steady state never materialises an
//! owned `VertexMapping`. A tile's bypass plan stays a pair of segment
//! slices here; the engine's per-run route-table cache turns it into
//! the tile's `NocConfig`.

use crate::engine::SessionState;
use crate::noc_model::OnChipEstimate;
use aurora_mapping::plan::{PlanScratch, SegmentPlan};
use aurora_mapping::{MapScratch, MapView, MappingPolicy};
use aurora_model::{LayerShape, ModelId, Workload};
use std::cell::RefCell;
use std::ops::Range;

/// Per-worker-thread scratch for one tile's pure precompute.
#[derive(Debug, Default)]
pub(crate) struct WorkerArena {
    /// Out-degrees of the tile's vertices.
    pub degrees: Vec<u32>,
    /// Per-PE aggregation-side load (`1 + degree` per vertex).
    pub load_a: Vec<u64>,
    /// Per-PE vertex-update-side load (1 per vertex).
    pub load_b: Vec<u64>,
    /// Distinct halo vertices seen for the current tile (also the
    /// clear-list for `halo_seen`).
    halo: Vec<u32>,
    /// Graph-sized membership slab behind [`Self::halo_count`]; only the
    /// bits on the clear-list are ever true between calls.
    halo_seen: Vec<bool>,
    /// Mapping-kernel working memory.
    pub map: MapScratch,
    /// Bypass-planner working memory.
    pub plan: PlanScratch,
    /// Tile-sized workload, re-sized per tile instead of rebuilt.
    w_sg: Option<Workload>,
}

impl WorkerArena {
    /// The tile workload for `(model, shape)`, re-sized in place when
    /// the spec is already cached (the common case: one model per run).
    pub fn workload_for(&mut self, model: ModelId, shape: LayerShape) -> &mut Workload {
        let stale = match &self.w_sg {
            Some(w) => w.model.id != model || w.shape != shape,
            None => true,
        };
        if stale {
            self.w_sg = Some(Workload::from_sizes(model, 1, 1, shape));
        }
        self.w_sg.as_mut().expect("just ensured")
    }

    /// Number of distinct out-of-range destinations among `edges` —
    /// equals `Subgraph::halo_vertices().len()` without materialising
    /// (or sorting) the list. `num_vertices` sizes the membership slab;
    /// destinations must stay below it.
    pub fn halo_count(
        &mut self,
        range: Range<u32>,
        num_vertices: usize,
        edges: impl Iterator<Item = (u32, u32)>,
    ) -> u64 {
        if self.halo_seen.len() < num_vertices {
            self.halo_seen.resize(num_vertices, false);
        }
        self.halo.clear();
        for (_, dst) in edges {
            if !range.contains(&dst) && !self.halo_seen[dst as usize] {
                self.halo_seen[dst as usize] = true;
                self.halo.push(dst);
            }
        }
        let count = self.halo.len() as u64;
        // reset only the bits this tile set; the slab stays warm
        for &v in &self.halo {
            self.halo_seen[v as usize] = false;
        }
        count
    }
}

thread_local! {
    static WORKER: RefCell<WorkerArena> = RefCell::new(WorkerArena::default());
}

/// Runs `f` with this thread's worker arena.
pub(crate) fn with_worker<R>(f: impl FnOnce(&mut WorkerArena) -> R) -> R {
    WORKER.with(|w| f(&mut w.borrow_mut()))
}

/// Scalar outputs of one tile's precompute (one row of the SoA layout).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TileOut {
    /// The tile's global-vertex-id range.
    pub start: u32,
    pub end: u32,
    pub rho_a: f64,
    pub rho_b: f64,
    pub num_vertices: usize,
    pub num_edges: usize,
    pub halo: u64,
    pub t_a: u64,
    pub t_b: u64,
    pub est_b: OnChipEstimate,
    /// Entries used in the tile's high-degree slab slice.
    pub n_high: usize,
    /// Segments used in the tile's row/col plan slices.
    pub n_rows: usize,
    pub n_cols: usize,
}

/// The per-layer structure-of-arrays slabs tile views borrow from.
#[derive(Debug, Default)]
pub(crate) struct TileSlabs {
    /// `pe_of[v]` for the whole graph (tiles are contiguous).
    pub pe_of: Vec<u32>,
    /// Per-tile high-degree ids, `high_cap` stride.
    pub high: Vec<u32>,
    /// Per-tile planned segments, stride `k`.
    pub row_segs: Vec<SegmentPlan>,
    pub col_segs: Vec<SegmentPlan>,
    /// One scalar row per tile.
    pub outs: Vec<TileOut>,
    /// Stride of the `high` slab: the high-degree cap of the layer's
    /// longest tile.
    pub high_cap: usize,
}

impl TileSlabs {
    /// Sizes the slabs for a layer of `num_tiles` tiles over
    /// `num_vertices` vertices. No-op allocation-wise once capacities
    /// have warmed up.
    pub fn begin_layer(
        &mut self,
        num_vertices: usize,
        num_tiles: usize,
        k: usize,
        high_cap: usize,
    ) {
        self.pe_of.resize(num_vertices, 0);
        self.high.resize(num_tiles * high_cap, 0);
        self.row_segs.resize(num_tiles * k, SegmentPlan::default());
        self.col_segs.resize(num_tiles * k, SegmentPlan::default());
        self.outs.clear();
        self.outs.resize(num_tiles, TileOut::default());
        self.high_cap = high_cap;
    }

    /// Heap bytes the slabs hold (their capacities).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.pe_of.capacity() + self.high.capacity()) * size_of::<u32>()
            + (self.row_segs.capacity() + self.col_segs.capacity()) * size_of::<SegmentPlan>()
            + self.outs.capacity() * size_of::<TileOut>()
    }

    /// Tile `ti`'s planned row and column bypass segments (stride `k`).
    pub fn plan(&self, ti: usize, k: usize) -> (&[SegmentPlan], &[SegmentPlan]) {
        let out = &self.outs[ti];
        (
            &self.row_segs[ti * k..][..out.n_rows],
            &self.col_segs[ti * k..][..out.n_cols],
        )
    }

    /// Tile `ti`'s mapping, borrowed straight out of the slabs, with
    /// the run's S_PE positions (empty under hashing).
    pub fn map_view<'a>(
        &'a self,
        ti: usize,
        policy: MappingPolicy,
        k: usize,
        s_pes: &'a [usize],
    ) -> MapView<'a> {
        let out = &self.outs[ti];
        MapView {
            policy,
            range: out.start..out.end,
            pe_of: &self.pe_of[out.start as usize..out.end as usize],
            k,
            s_pes,
            high_degree: &self.high[ti * self.high_cap..][..out.n_high],
        }
    }
}

/// Per-tile buffers of the route-table and traffic-kernel stages.
#[derive(Debug, Default)]
pub(crate) struct SeqScratch {
    /// Each tile's NoC-config slot in the run's interner.
    pub slots: Vec<usize>,
    /// The tiles that bin, in tile order: all but the clean tiles,
    /// which replay their stored traffic profile.
    pub bin_tiles: Vec<usize>,
    /// Per-tile aggregation-traffic estimate, priced by the
    /// traffic-kernel stage.
    pub est_a: Vec<OnChipEstimate>,
}

impl SeqScratch {
    pub fn begin_layer(&mut self) {
        self.slots.clear();
        self.bin_tiles.clear();
        self.est_a.clear();
    }
}

/// The engine's per-run scratch: the state a run without one of its own
/// computes into, the traffic stages' buffers and the S_PE table. Held
/// in a thread-local of the calling thread between runs, so
/// back-to-back simulations (a serving worker, the autotuner, a bench
/// loop) reach zero steady-state allocations.
#[derive(Debug, Default)]
pub(crate) struct TileArena {
    /// Invalidated before every run that uses it, so such a run
    /// recomputes every tile; it keeps the last such run's layers.
    pub state: SessionState,
    pub seq: SeqScratch,
    /// N-Queen S_PE positions for radix `s_pes_k`, which every
    /// degree-aware tile view of a run borrows; the search is redone
    /// only when the radix changes.
    pub s_pes: Vec<usize>,
    pub s_pes_k: usize,
}

thread_local! {
    static ENGINE_SCRATCH: RefCell<Option<Box<TileArena>>> = const { RefCell::new(None) };
}

/// Takes the calling thread's engine scratch (or a fresh one). Pair
/// with [`put_engine_scratch`]; a nested run on the same thread
/// simply gets a fresh arena.
pub(crate) fn take_engine_scratch() -> Box<TileArena> {
    ENGINE_SCRATCH
        .with(|s| s.borrow_mut().take())
        .unwrap_or_default()
}

/// Returns the scratch for the next run on this thread.
pub(crate) fn put_engine_scratch(arena: Box<TileArena>) {
    ENGINE_SCRATCH.with(|s| *s.borrow_mut() = Some(arena));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_workload_reuses_spec_per_model() {
        let mut w = WorkerArena::default();
        let shape = LayerShape::new(8, 4);
        let a = w.workload_for(ModelId::Gcn, shape) as *const Workload;
        w.workload_for(ModelId::Gcn, shape).resize(10, 20);
        let b = w.workload_for(ModelId::Gcn, shape) as *const Workload;
        assert_eq!(a, b, "same model+shape must not rebuild the spec");
        assert_eq!(w.workload_for(ModelId::Gcn, shape).num_vertices, 10);
        let w2 = w.workload_for(ModelId::Gin, shape);
        assert_eq!(w2.model.id, ModelId::Gin, "model switch rebuilds");
    }

    #[test]
    fn halo_count_matches_distinct_out_of_range() {
        let mut w = WorkerArena::default();
        let edges = [(0u32, 5u32), (1, 5), (1, 6), (2, 3), (3, 9)];
        // range 0..4: out-of-range dsts {5, 5, 6, 9} → 3 distinct
        assert_eq!(w.halo_count(0..4, 10, edges.iter().copied()), 3);
        // reuse with a different range: {6, 9} remain out of range
        assert_eq!(w.halo_count(0..6, 10, edges.iter().copied()), 2);
    }
}
