//! The per-subgraph execution pipeline (§III-E walk-through).
//!
//! Each layer runs six stages, one function each, in order: `partition`
//! tiles the graph by on-chip capacity and sizes the sub-accelerators
//! with Algorithm 2 (it is "triggered by the arrival of a new sub-graph
//! or a GNN layer"); `tile_precompute` maps every tile (Algorithm 1) and
//! plans its NoC configuration; `route_tables` and `traffic_kernels`
//! estimate each tile's on-chip traffic; `engine_walk` executes
//! sub-accelerators A and B as a pipeline, overlapping each tile's
//! execution with the next tile's DRAM load (double buffering) — "after
//! mapping a subgraph to the PE array, the next subgraph starts being
//! loaded from DRAM to overlap the latency" (§IV); and `finalize_layer`
//! rolls the layer up. Each stage is one host-profiling span.
//!
//! Every run computes into a [`SessionState`]: a streaming session's,
//! the graph cache's for a repeated plan, or else the calling thread's
//! scratch, invalidated first. With it come the vertices whose
//! out-edges changed since the state was filled. That is the one replay
//! rule: in a layer computed under the run's tiling and Algorithm-2
//! split, every tile owning no touched vertex is clean and replays its
//! stored mapping, outputs and traffic profile. A fresh or invalidated
//! state recomputes every tile and fills the state for the next run.

use crate::arena::{
    put_engine_scratch, take_engine_scratch, with_worker, SeqScratch, TileArena, TileOut, TileSlabs,
};
use crate::config::AcceleratorConfig;
use crate::graph_cache::{GraphCache, PlanKey};
use crate::instr::Instruction;
use crate::noc_model::{self, OnChipEstimate, TrafficProfile};
use crate::profile::{BoundMix, LayerProfile, ProfileReport, SideAttribution, TileAttribution};
use crate::report::{LayerReport, NocReport, PhaseCycles, SimReport};
use crate::request::{validate_layers, GraphSpec, SimError, SimRequest};
use crate::workflow::Workflow;
use aurora_energy::{ActivityCounts, EnergyModel};
use aurora_graph::{Csr, Tiling, TilingConfig};
use aurora_mapping::plan::{plan_bypass_into, SegmentPlan};
use aurora_mapping::{degree_aware, hashing, MapView, MappingPolicy};
use aurora_mem::MemoryController;
use aurora_model::{LayerShape, ModelId, Phase, PhaseOpCounts, Workload};
use aurora_noc::{BypassSegment, NocConfig, RouteTable, TopologyMode};
use aurora_partition::{partition, PartitionStrategy};
use aurora_telemetry::span::{self, Stage};
use aurora_telemetry::{names, tracks, Scope, Telemetry};
use rayon::prelude::*;
use std::time::Instant;

/// The run's one owner of every tile's NoC configuration: an interner
/// from a tile's planned bypass segments to a slot holding the tile's
/// [`NocConfig`] and its lazily built [`RouteTable`]. A tile's binned
/// traffic profile lives in its layer's [`SessionLayerState`].
///
/// All interning happens on the sequential path of the engine, so slot
/// ids and build counts — and therefore every telemetry counter — are
/// identical at every `AURORA_THREADS` value.
#[derive(Default)]
struct TrafficCache {
    k: usize,
    /// The request's flit payload, carried by every interned config.
    words_per_flit: usize,
    tables: Vec<TableSlot>,
    builds: u64,
}

/// One interned NoC configuration. Interning is the countable "build"
/// for reports and telemetry; the dimension-factored leg table itself
/// (2k³ leg summaries plus a k² bypass-peer index) is only materialised
/// for tiles that actually bin edges — a session run with one dirty
/// tile routes one table, not one per tile.
struct TableSlot {
    /// Built and validated once, at interning.
    cfg: NocConfig,
    table: Option<RouteTable>,
}

/// Slot cap: per-tile bypass plans give each tile its own config, so a
/// deep multi-layer run can see many distinct tables; past the cap the
/// cache flushes wholesale (ids index `tables`, so selective eviction
/// would dangle the tiles' slot ids). A layer with more plans than the cap
/// keeps every slot but materialises at most this many tables at once
/// ([`TrafficCache::bin_in_chunks`]).
const MAX_ROUTE_TABLES: usize = 64;

/// One tile's binned unit-flit profile, or the NoC error binning hit.
type Binned = Result<TrafficProfile, aurora_noc::NocError>;

impl TrafficCache {
    /// Interns every tile's bypass plan, in tile order, into `slots` —
    /// the one place a tile's NoC config is decided. A new slot counts
    /// one build; its table waits for [`Self::ensure_built`]. A new slot
    /// past [`MAX_ROUTE_TABLES`] flushes the tables, at most once per
    /// layer, and the layer interns again from its first tile, so every
    /// id in `slots` names a live slot (a layer with more plans than the
    /// cap grows past it).
    fn intern_layer(
        &mut self,
        slabs: &TileSlabs,
        slots: &mut Vec<usize>,
        tel: &Telemetry,
        scope: &Scope,
    ) {
        let mut may_flush = true;
        slots.clear();
        while slots.len() < slabs.outs.len() {
            let ti = slots.len();
            let (rows, cols) = slabs.plan(ti, self.k);
            let table_id = match self.find(rows, cols) {
                Some(id) => id,
                None => {
                    let cfg = self.config_of(rows, cols);
                    // a rejected plan takes the mesh, whose slot may exist
                    let mesh = cfg.mode == TopologyMode::Mesh;
                    match self.find(&[], &[]).filter(|_| mesh) {
                        Some(id) => id,
                        None if self.tables.len() >= MAX_ROUTE_TABLES && may_flush => {
                            self.tables.clear();
                            may_flush = false;
                            slots.clear();
                            continue;
                        }
                        None => {
                            self.builds += 1;
                            tel.counter_add(names::NOC_ROUTE_TABLE_BUILDS, scope, 1);
                            self.tables.push(TableSlot { cfg, table: None });
                            self.tables.len() - 1
                        }
                    }
                }
            };
            slots.push(table_id);
        }
    }

    /// The slot whose config carries exactly these bypass segments (the
    /// mesh slot for an empty plan).
    fn find(&self, rows: &[SegmentPlan], cols: &[SegmentPlan]) -> Option<usize> {
        let same = |segs: &[BypassSegment], plan: &[SegmentPlan]| {
            let segs = segs.iter().map(|b| (b.index, b.from, b.to));
            segs.eq(plan.iter().map(|s| (s.index, s.from, s.to)))
        };
        self.tables
            .iter()
            .position(|t| same(&t.cfg.row_bypass, rows) && same(&t.cfg.col_bypass, cols))
    }

    /// The config a plan runs on: its bypass segments over the mesh, or
    /// the plain mesh for an empty plan (every tile's on a non-flexible
    /// fabric, which plans nothing) or one [`NocConfig::validate`]
    /// rejects (a planner bug), at the request's flit payload. No slot
    /// is ever a bypass config without segments.
    fn config_of(&self, rows: &[SegmentPlan], cols: &[SegmentPlan]) -> NocConfig {
        let segs = |plan: &[SegmentPlan]| {
            let seg = |s: &SegmentPlan| BypassSegment {
                index: s.index,
                from: s.from,
                to: s.to,
            };
            plan.iter().map(seg).collect()
        };
        let cfg = NocConfig::with_bypass(self.k, segs(rows), segs(cols));
        let cfg = if (rows.is_empty() && cols.is_empty()) || cfg.validate().is_err() {
            NocConfig::mesh(self.k)
        } else {
            cfg
        };
        NocConfig {
            words_per_flit: self.words_per_flit,
            ..cfg
        }
    }

    /// Materialises the route table for an interned id. A build error
    /// surfaces as [`SimError::Noc`] instead of aborting the run.
    fn ensure_built(&mut self, id: usize) -> Result<(), SimError> {
        let slot = &mut self.tables[id];
        if slot.table.is_none() {
            slot.table = Some(RouteTable::build(&slot.cfg)?);
        }
        Ok(())
    }

    /// True once a layer has interned more slots than
    /// [`MAX_ROUTE_TABLES`]: its tables are then built chunk by chunk
    /// during binning instead of all at once.
    fn chunked(&self) -> bool {
        self.tables.len() > MAX_ROUTE_TABLES
    }

    /// Bins a chunked layer's binning tiles (`ids[i]` is tile `i`'s
    /// slot) in tile order, in chunks that name at most
    /// [`MAX_ROUTE_TABLES`] slots: each chunk materialises its tables,
    /// bins through `bin`, then drops the tables again. The
    /// slots themselves stay, so ids, build counts and the flush rule
    /// are those of an unchunked layer, and route-table memory is
    /// bounded by the cap rather than by the layer's tile count. A
    /// chunk whose binning errs ends the layer; the caller meets that
    /// error first, in tile order.
    fn bin_in_chunks(
        &mut self,
        ids: &[usize],
        mut bin: impl FnMut(&TrafficCache, std::ops::Range<usize>) -> Vec<Binned>,
    ) -> Result<Vec<Binned>, SimError> {
        let mut binned = Vec::with_capacity(ids.len());
        let mut named: Vec<usize> = Vec::with_capacity(MAX_ROUTE_TABLES);
        let mut start = 0;
        while start < ids.len() && binned.iter().all(Result::is_ok) {
            named.clear();
            let mut end = start;
            while end < ids.len() {
                let id = ids[end];
                if !named.contains(&id) {
                    if named.len() == MAX_ROUTE_TABLES {
                        break;
                    }
                    named.push(id);
                }
                end += 1;
            }
            for &id in &named {
                self.ensure_built(id)?;
            }
            binned.extend(bin(self, start..end));
            for &id in &named {
                self.tables[id].table = None;
            }
            start = end;
        }
        Ok(binned)
    }

    fn table(&self, id: usize) -> &RouteTable {
        self.tables[id]
            .table
            .as_ref()
            .expect("route table materialised by the sequential ensure_built pass")
    }
}

/// One layer's tile artifacts: the SoA slabs the tile precompute wrote
/// (mapping, bypass plans, `TileOut` rows), each tile's unit-flit
/// traffic profile, what they were computed under, and the current
/// run's dirty mask over them.
#[derive(Debug, Default)]
struct SessionLayerState {
    slabs: TileSlabs,
    profiles: Vec<Option<TrafficProfile>>,
    /// What the slabs and profiles were computed under: the vertex
    /// count, the first tile's length and the Algorithm-2 split `(a, b)`;
    /// `None` for a fresh or invalidated layer. The first two stand for
    /// the tiling, which is a pure function of them
    /// ([`Tiling::with_tile_size`]). A run whose fresh tiling or split
    /// differs (a vertex delta moved a tile boundary, edge churn moved
    /// the op totals enough to shift the integer split) recomputes every
    /// tile: the per-tile `t_a`/`t_b` bake `(a, b)` in. Only the integer
    /// split matters — the strategy's layer-level time estimates are
    /// recomputed fresh each run.
    computed_under: Option<(usize, usize, (usize, usize))>,
    /// The current run's dirty mask, set by [`Self::enter`]: tile `ti`
    /// recomputes when `dirty[ti]`, and replays otherwise.
    dirty: Vec<bool>,
}

impl SessionLayerState {
    /// Decides the run's dirty set. A layer computed under this run's
    /// tiling and split (with the slab stride that follows from them)
    /// recomputes only the tiles owning a touched vertex — none, for a
    /// warm-state replay; any other layer recomputes every tile,
    /// repopulating the state. Both are bit-identical to a fresh run.
    fn enter(&mut self, ctx: &LayerCtx, touched: &[u32], k: usize, high_cap: usize) {
        let num_tiles = ctx.tiling.num_tiles();
        let under = (
            ctx.g.num_vertices(),
            ctx.tiling.range(0).len(),
            (ctx.strategy.a, ctx.strategy.b),
        );
        let warm = self.slabs.high_cap == high_cap && self.computed_under == Some(under);
        self.dirty.clear();
        self.dirty.resize(num_tiles, !warm);
        if warm {
            for &v in touched {
                self.dirty[ctx.tiling.tile_of(v)] = true;
            }
        } else {
            self.slabs
                .begin_layer(ctx.g.num_vertices(), num_tiles, k, high_cap);
            self.computed_under = Some(under);
            self.profiles.clear();
            self.profiles.resize(num_tiles, None);
        }
    }

    /// True when tile `ti` is clean: it replays its stored profile
    /// instead of binning. A clean tile keeps the slab rows its profile
    /// was binned under, and interning is a pure function of those rows,
    /// so the same mapping, edges and NoC config give the same profile
    /// without the O(E) pass or the table build.
    fn replays(&self, ti: usize) -> bool {
        !self.dirty[ti]
    }
}

/// Every layer's tile artifacts for one run: a
/// [`SimSession`](crate::delta::SimSession)'s, a [`GraphCache`] plan's,
/// or the calling thread's scratch for a run that brings none. A fresh
/// or invalidated state makes the next run recompute every tile;
/// otherwise the run's touched vertices decide which tiles recompute,
/// and every other tile replays.
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    layers: Vec<SessionLayerState>,
}

impl SessionState {
    /// Heap bytes held: every layer's slabs, stored profiles and dirty
    /// mask.
    pub(crate) fn bytes(&self) -> usize {
        let layer = |l: &SessionLayerState| {
            let profiles: usize = l.profiles.iter().flatten().map(TrafficProfile::bytes).sum();
            l.slabs.bytes()
                + profiles
                + l.profiles.capacity() * std::mem::size_of::<Option<TrafficProfile>>()
                + l.dirty.capacity()
        };
        self.layers.iter().map(layer).sum()
    }

    /// Forgets what every layer was computed under, so the next run
    /// recomputes every tile: a structural delta, a cold run on the
    /// thread's scratch, or a run that erred mid-layer and may have left
    /// the slabs half-written.
    pub(crate) fn invalidate(&mut self) {
        for layer in &mut self.layers {
            layer.computed_under = None;
        }
    }

    /// Layer `li`'s state, created empty on first use.
    fn layer(&mut self, li: usize) -> &mut SessionLayerState {
        if self.layers.len() <= li {
            self.layers.resize_with(li + 1, SessionLayerState::default);
        }
        &mut self.layers[li]
    }
}

/// One layer's immutable inputs, fixed by the partition stage before any
/// tile runs.
struct LayerCtx<'a> {
    g: &'a Csr,
    wf: &'a Workflow,
    shape: LayerShape,
    layer: usize,
    /// The `model/layer` telemetry scope.
    scope: Scope,
    tiling: Tiling,
    strategy: PartitionStrategy,
    /// Algorithm 2's op counts over the whole graph.
    counts: PhaseOpCounts,
    /// Per-PE vertex capacity at this layer's `f_in`.
    c_pe: usize,
    /// Per-edge message width in words, before compression.
    raw_msg_words: usize,
    /// Per-edge message width on the NoC, after compression.
    msg_words: usize,
    /// Sparse-input compression factor (1.0 for dense inputs).
    compress: f64,
}

/// The run's mutable state, threaded through every layer's stages.
struct RunState<'a> {
    mem: MemoryController,
    activity: ActivityCounts,
    instructions: Vec<Instruction>,
    cache: TrafficCache,
    /// The traffic stages' per-tile buffers, from the thread's arena.
    seq: &'a mut SeqScratch,
    /// The N-Queen S_PE positions every degree-aware tile view shares
    /// (empty under hashing).
    s_pes: &'a [usize],
    /// Every tile's bound attribution, in execution order.
    tiles: Vec<TileAttribution>,
}

/// The engine walk's per-layer roll-ups.
#[derive(Default)]
struct LayerTotals {
    /// Layer latency: the exposed controller overheads plus every tile's
    /// double-buffered slot.
    cycles: u64,
    phase_cycles: PhaseCycles,
    noc: OnChipEstimate,
    dram_cycles: u64,
    dram_bytes: u64,
    reconfigs: u64,
    mix: BoundMix,
}

/// One tile's mutable slices into the layer's SoA slabs — the unit of
/// work the tile precompute fans out over the pool. Disjoint
/// `split_at_mut` slices keep the parallel writes safe without locks.
struct TileTask<'a> {
    ti: usize,
    pe_of: &'a mut [u32],
    high: &'a mut [u32],
    rows: &'a mut [SegmentPlan],
    cols: &'a mut [SegmentPlan],
    out: &'a mut TileOut,
}

/// The Aurora accelerator simulator.
#[derive(Debug, Clone)]
pub struct AuroraSimulator {
    config: AcceleratorConfig,
    telemetry: Telemetry,
}

impl AuroraSimulator {
    /// A simulator with the given configuration. Telemetry starts
    /// disabled; see [`Self::with_telemetry`].
    pub fn new(config: AcceleratorConfig) -> Self {
        Self {
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The paper's 32 × 32 @ 700 MHz instance.
    pub fn paper() -> Self {
        Self::new(AcceleratorConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Attaches an observability handle: simulations record `dram.*`,
    /// `noc.*`, `mapping.*`, `partition.*` and per-tile metrics, plus a
    /// simulated-cycle timeline with one track per sub-accelerator
    /// (retrieve it with `telemetry.trace_json()`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached observability handle (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The canonical entry point: runs one complete, serializable
    /// [`SimRequest`] and returns the report or a typed [`SimError`].
    /// The `aurora-serve` daemon consumes only this method.
    ///
    /// The *request's* configuration drives the simulation, not the
    /// simulator's: a report must be a pure function of the request
    /// alone, which is what makes the content-addressed digest of the
    /// serve result cache exact. The simulator instance contributes only
    /// its telemetry handle.
    pub fn run(&self, req: &SimRequest) -> Result<SimReport, SimError> {
        self.run_with(req, None)
    }

    /// [`Self::run`], resolving a spec graph through `graphs` when given:
    /// a resident graph skips synthesis, a resident warm state for the
    /// request's plan replays every tile instead of mapping and binning
    /// it, and the report is identical either way. `aurora-serve`
    /// workers pass their process-wide [`GraphCache`].
    pub fn run_with(
        &self,
        req: &SimRequest,
        graphs: Option<&GraphCache>,
    ) -> Result<SimReport, SimError> {
        req.validate()?;
        let mut config = req.config;
        config.trace_instructions |= req.options.trace_instructions;
        let sim = AuroraSimulator {
            config,
            telemetry: self.telemetry.clone(),
        };
        let workload = req.workload_label();
        let density = req.options.input_density;
        let run = |g: &Csr, warm: Option<&mut SessionState>| {
            let session = warm.map(|state| (state, &[][..]));
            sim.run_core(g, req.model, &req.layers, &workload, density, session)
        };
        // Host profiling wraps graph resolution too, so GraphLoad time
        // lands inside the profiled window.
        span::host_init();
        let start = Instant::now();
        let profile_mark = span::span_profiling_enabled().then(span::mark);
        let mut report = match (&req.graph, graphs) {
            // borrow inline graphs; only spec variants synthesize
            (GraphSpec::Inline(g), _) => run(g, None)?,
            (spec, Some(cache)) => {
                cache.run_planned(spec, PlanKey::new(config, req.model, &req.layers), run)?
            }
            (spec, None) => {
                let g = {
                    let _span = span::enter(Stage::GraphLoad);
                    spec.resolve()?
                };
                run(&g, None)?
            }
        };
        if let Some(m) = &profile_mark {
            report.host_profile = Some(span::collect(m, start.elapsed()));
        }
        Ok(report)
    }

    /// The engine proper: the per-layer loop over the six stages plus
    /// run-level finalisation. `session` carries a warm state and the
    /// vertices whose out-edges changed since it was filled: in a layer
    /// computed under this run's tiling and split, the tiles owning a
    /// touched vertex recompute and every other tile replays its stored
    /// artifacts; a fresh or invalidated state recomputes every tile.
    /// The state is refreshed for the next run. On error the caller must
    /// invalidate or drop that state (the slabs may be half-written).
    /// `None` runs on the thread's scratch state, invalidated first, so
    /// a cold run takes the same path as a session open.
    pub(crate) fn run_core(
        &self,
        g: &Csr,
        model: ModelId,
        shapes: &[LayerShape],
        workload: &str,
        input_density: f64,
        session: Option<(&mut SessionState, &[u32])>,
    ) -> Result<SimReport, SimError> {
        if g.num_vertices() == 0 {
            return Err(SimError::EmptyGraph);
        }
        if shapes.is_empty() {
            return Err(SimError::EmptyLayers);
        }
        if !(0.0..=1.0).contains(&input_density) {
            return Err(SimError::InvalidDensity {
                density: input_density,
            });
        }
        let cfg = &self.config;
        let mut mem = MemoryController::new(cfg.dram_channels);
        mem.attach_telemetry(self.telemetry.clone());
        mem.set_scope(Scope::model(model.name()));
        let mut layers = Vec::with_capacity(shapes.len());
        let mut profile = ProfileReport {
            link_utilisation: cfg.link_utilisation,
            ..ProfileReport::default()
        };
        let wf = {
            let _span = span::enter(Stage::Workflow);
            Workflow::generate(model)
        };
        if self.telemetry.is_enabled() {
            self.telemetry
                .instant(tracks::CONTROLLER, "accept request", 0);
            self.telemetry
                .instant(tracks::CONTROLLER, "generate workflow", 0);
        }
        // The engine scratch persists across runs on this thread: a
        // warmed-up arena makes tile precompute and the walk
        // allocation-free in the steady state.
        let mut arena = take_engine_scratch();
        if cfg.mapping_policy == MappingPolicy::DegreeAware && arena.s_pes_k != cfg.k {
            arena.s_pes = aurora_mapping::nqueen::s_pe_positions(cfg.k);
            arena.s_pes_k = cfg.k;
        }
        let TileArena {
            state: scratch,
            seq,
            s_pes,
            ..
        } = &mut *arena;
        let (state, touched) = match session {
            Some(session) => session,
            None => {
                scratch.invalidate();
                (scratch, &[][..])
            }
        };
        // Interned NoC configs persist across the run's layers: a plan
        // seen in an earlier layer counts no second build.
        let mut run = RunState {
            mem,
            activity: ActivityCounts::default(),
            instructions: Vec::new(),
            cache: TrafficCache {
                k: cfg.k,
                words_per_flit: cfg.words_per_flit,
                ..TrafficCache::default()
            },
            seq,
            s_pes: match cfg.mapping_policy {
                MappingPolicy::DegreeAware => s_pes,
                MappingPolicy::Hashing => &[],
            },
            tiles: Vec::new(),
        };
        if cfg.trace_instructions {
            run.instructions.push(Instruction::AcceptRequest {
                model: model.name().to_string(),
                layers: shapes.len(),
            });
            run.instructions.push(Instruction::GenerateWorkflow {
                phases: wf.phases.len(),
                single_accelerator: wf.single_accelerator,
            });
        }

        let mut reconfigs = 0u64;
        let mut total_cycles = 0u64;
        let mut run_layers = || -> Result<(), SimError> {
            for (li, &shape) in shapes.iter().enumerate() {
                let density = if li == 0 { input_density } else { 1.0 };
                let layer = state.layer(li);
                let (ctx, w) = self.partition(g, &wf, shape, li, density, &mut run);
                self.tile_precompute(&ctx, layer, touched);
                self.route_tables(&ctx, &mut run, layer)?;
                self.traffic_kernels(&ctx, &mut run, layer)?;
                let totals = self.engine_walk(&ctx, &mut run, layer, w, total_cycles);
                let (report, layer_profile) = self.finalize_layer(ctx, &totals);
                reconfigs += totals.reconfigs;
                total_cycles += report.total_cycles;
                profile.mix = profile.mix.add(&layer_profile.mix);
                profile.overhead_cycles += layer_profile.overhead_cycles;
                profile.ops += layer_profile.ops;
                profile.layers.push(layer_profile);
                layers.push(report);
            }
            Ok(())
        };
        let result = run_layers();
        let RunState {
            mem,
            mut activity,
            instructions,
            cache,
            tiles,
            ..
        } = run;
        put_engine_scratch(arena);
        result?;

        activity.cycles = total_cycles;
        activity.dram_bytes = mem.counters().total_bytes();
        activity.reconfigurations = reconfigs;
        profile.tiles = tiles;
        profile.route_table_builds = cache.builds;
        profile.peak_gflops = cfg.num_pes() as f64 * cfg.flops_per_pe() / 1e9;
        profile.dram_peak_gbps =
            mem.peak_bytes_per_cycle() * mem.timing().clock_mhz as f64 * 1e6 / 1e9;
        let mut report = SimReport {
            accelerator: "Aurora".into(),
            model: model.name().into(),
            workload: workload.into(),
            layers,
            total_cycles,
            clock_mhz: cfg.clock_mhz,
            dram: mem.counters(),
            activity,
            energy: Default::default(),
            reconfigurations: reconfigs,
            instructions,
            metrics: Default::default(),
            profile,
            host_profile: None,
        };
        self.derive_totals(&mut report);
        if self.telemetry.is_enabled() {
            let scope = Scope::model(model.name());
            self.telemetry
                .counter_add("run.total_cycles", &scope, total_cycles);
            self.telemetry
                .counter_add("run.reconfigurations", &scope, reconfigs);
            self.telemetry
                .gauge_set("run.energy_joules", &scope, report.energy.total());
        }
        report.metrics = self.telemetry.snapshot();
        Ok(report)
    }

    /// The run-level figures derived from a report's totals: energy from
    /// the activity counts, and the roofline coordinates (operational
    /// intensity, achieved GFLOP/s) from ops, DRAM bytes and cycles.
    fn derive_totals(&self, report: &mut SimReport) {
        report.energy = EnergyModel {
            clock_mhz: self.config.clock_mhz as f64,
            ..EnergyModel::default()
        }
        .evaluate(&report.activity);
        let seconds = report.seconds();
        let p = &mut report.profile;
        p.dram_bytes = report.dram.total_bytes();
        p.operational_intensity = if p.dram_bytes == 0 {
            0.0
        } else {
            p.ops as f64 / p.dram_bytes as f64
        };
        p.achieved_gflops = if seconds > 0.0 {
            p.ops as f64 / seconds / 1e9
        } else {
            0.0
        };
    }

    /// Simulates inference over a *batch* of graphs (the point-cloud /
    /// molecule serving scenario: many small independent graphs through
    /// the same model). Weights stay resident across the batch — only the
    /// first graph pays the weight load — and the array reconfigures
    /// between graphs (one exposed `2k − 1` fill per batch; the rest
    /// overlap, as with subgraph tiles).
    ///
    /// Returns the merged report; `layers` holds each graph's layers
    /// back-to-back. An empty batch is [`SimError::EmptyBatch`]; a
    /// configuration or layer chain a request would be refused for is
    /// the same typed [`SimError::InvalidRequest`], before any graph
    /// runs; per-graph failures propagate.
    pub fn try_simulate_batch(
        &self,
        graphs: &[&Csr],
        model: ModelId,
        shapes: &[LayerShape],
        workload: &str,
    ) -> Result<SimReport, SimError> {
        if graphs.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        self.config.validate()?;
        validate_layers(&self.config, shapes)?;
        // One host-profiling window spans the whole batch: the merged
        // report's host_profile covers every graph.
        span::host_init();
        let start = Instant::now();
        let profile_mark = span::span_profiling_enabled().then(span::mark);
        let mut merged: Option<SimReport> = None;
        for (i, g) in graphs.iter().enumerate() {
            let r = self.run_core(g, model, shapes, workload, 1.0, None)?;
            merged = Some(match merged {
                None => r,
                Some(mut acc) => {
                    // weights were already resident: refund the repeated
                    // weight-load bytes (they were charged per run)
                    let w_bytes: u64 = shapes
                        .iter()
                        .map(|s| Workload::from_sizes(model, 1, 1, *s).weight_bytes())
                        .sum();
                    acc.total_cycles += r.total_cycles;
                    acc.layers.extend(r.layers.into_iter().map(|mut l| {
                        l.layer += i * shapes.len();
                        l
                    }));
                    acc.dram.read_bytes += r.dram.read_bytes.saturating_sub(w_bytes);
                    acc.dram.write_bytes += r.dram.write_bytes;
                    acc.dram.sequential_bytes += r.dram.sequential_bytes.saturating_sub(w_bytes);
                    acc.dram.random_bytes += r.dram.random_bytes;
                    acc.activity = acc.activity.add(&r.activity);
                    acc.activity.cycles = acc.total_cycles;
                    acc.activity.dram_bytes = acc.dram.total_bytes();
                    acc.reconfigurations += r.reconfigurations;
                    // the telemetry recorder is shared across the batch, so
                    // the latest snapshot is the cumulative one
                    acc.metrics = r.metrics;
                    acc.profile.merge(&r.profile, i * shapes.len());
                    acc
                }
            });
        }
        let mut report = merged.ok_or(SimError::EmptyBatch)?;
        // the batch refunds resident-weight bytes, so energy and the
        // roofline coordinates re-derive from the merged totals
        self.derive_totals(&mut report);
        if let Some(m) = &profile_mark {
            report.host_profile = Some(span::collect(m, start.elapsed()));
        }
        Ok(report)
    }

    /// Stage 1, partition: tiles the graph by on-chip capacity, sizes the
    /// sub-accelerators with Algorithm 2, and fixes the layer's context.
    /// The returned layer workload doubles as the walk's per-tile
    /// workload: a `resize` per tile yields the same values `from_sizes`
    /// would, without rebuilding the model spec.
    fn partition<'a>(
        &self,
        g: &'a Csr,
        wf: &'a Workflow,
        shape: LayerShape,
        layer: usize,
        input_density: f64,
        run: &mut RunState,
    ) -> (LayerCtx<'a>, Workload) {
        let _span = span::enter(Stage::Partition);
        let cfg = &self.config;
        let model = wf.model.id;
        let scope = Scope::model(model.name()).layer(layer);
        let tiling = Tiling::build(
            g,
            &TilingConfig {
                onchip_bytes: cfg.onchip_bytes(),
                feature_dim: shape.f_in,
                bytes_per_element: 8,
                feature_fraction: cfg.feature_fraction,
            },
        );
        let w = Workload::of(model, g, shape);
        let counts = w.op_counts();
        let strategy = if cfg.dynamic_partition {
            partition(&counts, cfg.num_pes(), cfg.flops_per_pe())
        } else {
            // ablation: a fixed 50/50 split (still honouring single-
            // accelerator models, which cannot use a B side at all)
            let a = if wf.single_accelerator {
                cfg.num_pes()
            } else {
                cfg.num_pes() / 2
            };
            PartitionStrategy {
                a,
                b: cfg.num_pes() - a,
                t_a: aurora_partition::time_a(&counts, a.max(1), cfg.flops_per_pe()),
                t_b: aurora_partition::time_b(
                    &counts,
                    (cfg.num_pes() - a).max(if wf.single_accelerator { 1 } else { 0 }),
                    cfg.flops_per_pe(),
                ),
            }
        };
        if cfg.trace_instructions {
            run.instructions.push(Instruction::Partition {
                a: strategy.a,
                b: strategy.b,
            });
        }
        strategy.record_to(&self.telemetry, &scope);
        // room for this layer's attributions before the walk pushes them
        run.tiles.reserve(tiling.num_tiles());

        let raw_msg_words = if wf.model.has_edge_update() {
            wf.model.edge_feature_dim(shape.f_in)
        } else {
            shape.f_in
        };
        // Sparse input features travel compressed over the flexible NoC;
        // a 2× index overhead and a floor keep the model honest, so dense
        // inputs (Reddit) see no compression at all.
        let compress = (2.0 * input_density).clamp(0.3, 1.0);
        let ctx = LayerCtx {
            g,
            wf,
            shape,
            layer,
            scope,
            tiling,
            strategy,
            counts,
            c_pe: cfg.pe.vertex_capacity(shape.f_in),
            raw_msg_words,
            msg_words: ((raw_msg_words as f64 * compress).ceil() as usize).max(1),
            compress,
        };
        (ctx, w)
    }

    /// Stage 2, tile precompute: everything about a tile that does not
    /// touch the memory controller, telemetry or the instruction trace —
    /// Algorithm 1's mapping (the nested `Mapping` span), the per-PE load
    /// balance, the bypass plan and both pipeline stages' times. The
    /// layer's dirty tiles fan out over the worker pool
    /// (`AURORA_THREADS`), each writing its own pre-split slab slices, so
    /// the walk sees exactly the sequential schedule and cycle results
    /// are bit-identical at every thread count.
    fn tile_precompute(&self, ctx: &LayerCtx, layer: &mut SessionLayerState, touched: &[u32]) {
        let _span = span::enter(Stage::TilePrecompute);
        let cfg = &self.config;
        let k = cfg.k;
        let (g, tiling, shape, strategy, c_pe) =
            (ctx.g, &ctx.tiling, ctx.shape, &ctx.strategy, ctx.c_pe);
        let (model, has_vertex_update) = (ctx.wf.model.id, ctx.wf.model.has_vertex_update());
        let num_tiles = tiling.num_tiles();
        let rings_cfg = NocConfig {
            words_per_flit: cfg.words_per_flit,
            ..NocConfig::rings(k)
        };
        // Uniform per-tile strides: the longest tile bounds the high-degree
        // slab (high_degree_cap is monotonic in n, so every tile fits its
        // slice), and each row/column plan is bounded by the k physical
        // wires.
        let max_len = (0..num_tiles)
            .map(|ti| tiling.subgraph(g, ti).num_vertices())
            .max()
            .unwrap_or(0);
        let high_cap = aurora_mapping::high_degree_cap(max_len, k, c_pe);
        layer.enter(ctx, touched, k, high_cap);
        let SessionLayerState { slabs, dirty, .. } = layer;

        // Hand-split the slabs into disjoint per-tile slices; the capacity
        // tiling partitions the vertex space contiguously from 0, so
        // sequential splits land each tile's `pe_of` slice at its global
        // offset.
        let mut tasks: Vec<TileTask> = Vec::with_capacity(num_tiles);
        {
            let mut pe_rest: &mut [u32] = &mut slabs.pe_of;
            let mut hi_rest: &mut [u32] = &mut slabs.high;
            let mut row_rest: &mut [SegmentPlan] = &mut slabs.row_segs;
            let mut col_rest: &mut [SegmentPlan] = &mut slabs.col_segs;
            let mut out_rest: &mut [TileOut] = &mut slabs.outs;
            let mut offset = 0usize;
            for (ti, &recompute) in dirty.iter().enumerate() {
                let range = tiling.subgraph(g, ti).vertex_range();
                debug_assert_eq!(range.start as usize, offset, "tiles must be contiguous");
                let n = (range.end - range.start) as usize;
                offset += n;
                let (pe_of, r) = std::mem::take(&mut pe_rest).split_at_mut(n);
                pe_rest = r;
                let (high, r) = std::mem::take(&mut hi_rest).split_at_mut(high_cap);
                hi_rest = r;
                let (rows, r) = std::mem::take(&mut row_rest).split_at_mut(k);
                row_rest = r;
                let (cols, r) = std::mem::take(&mut col_rest).split_at_mut(k);
                col_rest = r;
                let (out, r) = std::mem::take(&mut out_rest)
                    .split_first_mut()
                    .expect("one TileOut row per tile");
                out_rest = r;
                // Clean tiles keep their slab contents from the previous
                // run; only dirty tiles enter the parallel fan-out.
                if recompute {
                    tasks.push(TileTask {
                        ti,
                        pe_of,
                        high,
                        rows,
                        cols,
                        out,
                    });
                }
            }
        }

        tasks.into_par_iter().for_each(|task| {
            with_worker(|w| {
                // workers tag themselves for allocation attribution and
                // time the per-tile mapping work as worker-side CPU µs
                let _tag = span::stage_scope(Stage::TilePrecompute);
                let _map_span = span::enter(Stage::Mapping);
                let sg = tiling.subgraph(g, task.ti);
                let range = sg.vertex_range();
                w.degrees.clear();
                w.degrees.extend(range.clone().map(|v| g.degree(v) as u32));
                let n_high = match cfg.mapping_policy {
                    MappingPolicy::DegreeAware => degree_aware::map_into(
                        range.clone(),
                        &w.degrees,
                        k,
                        c_pe,
                        &mut w.map,
                        &mut *task.pe_of,
                        &mut *task.high,
                    ),
                    MappingPolicy::Hashing => hashing::map_into(
                        range.clone(),
                        &w.degrees,
                        k,
                        c_pe,
                        &mut w.map,
                        &mut *task.pe_of,
                        &mut *task.high,
                    ),
                };

                // Max-busy vs mean-busy of the mapped work, for
                // attribution, in one flat pass over the placement slice:
                // the A side's per-vertex work scales with `1 + degree`
                // (one message per edge plus the self term), the B side's
                // weight-stationary update is uniform per vertex.
                w.load_a.clear();
                w.load_a.resize(k * k, 0);
                w.load_b.clear();
                w.load_b.resize(k * k, 0);
                for (i, &pe) in task.pe_of.iter().enumerate() {
                    w.load_a[pe as usize] += 1 + w.degrees[i] as u64;
                    w.load_b[pe as usize] += 1;
                }
                let rho = |load: &[u64]| -> f64 {
                    let max = load.iter().copied().max().unwrap_or(0);
                    let total: u64 = load.iter().sum();
                    if total == 0 {
                        1.0
                    } else {
                        max as f64 * load.len() as f64 / total as f64
                    }
                };
                let (rho_a, rho_b) = (rho(&w.load_a), rho(&w.load_b));

                // Bypass planning emits straight into the tile's slab
                // slices; the route-table stage turns the plan into the
                // tile's NoC config.
                let (n_rows, n_cols) = if cfg.flexible_noc {
                    let view = MapView {
                        policy: cfg.mapping_policy,
                        range: range.clone(),
                        pe_of: &*task.pe_of,
                        k,
                        s_pes: &[],
                        high_degree: &task.high[..n_high],
                    };
                    plan_bypass_into(
                        &view,
                        sg.edges(),
                        &mut w.plan,
                        &mut *task.rows,
                        &mut *task.cols,
                    )
                } else {
                    (0, 0)
                };

                // Compute time of the two pipeline stages on this tile
                // (the worker's cached workload, re-sized).
                let w_sg = w.workload_for(model, shape);
                w_sg.resize(sg.num_vertices(), sg.num_edges());
                let c_sg = w_sg.op_counts();
                let t_a = cfg.cycles_of(aurora_partition::time_a(
                    &c_sg,
                    strategy.a.max(1),
                    cfg.flops_per_pe(),
                ));
                let t_b = if strategy.b == 0 {
                    0
                } else {
                    cfg.cycles_of(aurora_partition::time_b(
                        &c_sg,
                        strategy.b,
                        cfg.flops_per_pe(),
                    ))
                };

                // Vertex-update traffic (the aggregation estimate goes
                // through the route-table cache in the next two stages).
                // Without ring reconfiguration the vectors take mesh
                // routes: same volume, roughly same hops, but the
                // contention of a converging pattern — a 2× cycle
                // multiplier on the ring estimate.
                let est_b = if has_vertex_update {
                    let contention = if cfg.flexible_noc { 1 } else { 2 };
                    let mut e = noc_model::ring_traffic(
                        &rings_cfg,
                        sg.num_vertices(),
                        shape.f_in,
                        cfg.link_utilisation,
                    );
                    e.cycles *= contention;
                    e
                } else {
                    OnChipEstimate::default()
                };

                let halo = w.halo_count(range.clone(), g.num_vertices(), sg.edges());
                *task.out = TileOut {
                    start: range.start,
                    end: range.end,
                    rho_a,
                    rho_b,
                    num_vertices: sg.num_vertices(),
                    num_edges: sg.num_edges(),
                    halo,
                    t_a,
                    t_b,
                    est_b,
                    n_high,
                    n_rows,
                    n_cols,
                };
            });
        });
    }

    /// Stage 3, route tables: interns each tile's bypass plan into its
    /// NoC configuration's slot, then materialises the route table of
    /// every tile that bins — all but the clean tiles, which replay their
    /// stored profile — sequentially in tile order, so a rejected
    /// configuration errors at the same tile at every thread count. A
    /// layer past the slot cap leaves its tables to the traffic-kernel
    /// stage, which builds them chunk by chunk.
    fn route_tables(
        &self,
        ctx: &LayerCtx,
        run: &mut RunState,
        layer: &SessionLayerState,
    ) -> Result<(), SimError> {
        let _span = span::enter(Stage::RouteTableBuild);
        let (cache, seq) = (&mut run.cache, &mut *run.seq);
        seq.begin_layer();
        let (tel, scope) = (&self.telemetry, &ctx.scope);
        cache.intern_layer(&layer.slabs, &mut seq.slots, tel, scope);
        seq.bin_tiles
            .extend((0..seq.slots.len()).filter(|&ti| !layer.replays(ti)));
        if !cache.chunked() {
            for &ti in &seq.bin_tiles {
                cache.ensure_built(seq.slots[ti])?;
            }
        }
        Ok(())
    }

    /// Stage 4, traffic kernels: bins each binning tile's edges into a
    /// unit-flit profile over the pool (a layer past the slot cap builds
    /// and bins in chunks of at most [`MAX_ROUTE_TABLES`] tables) and
    /// stores it in the layer's state, sequentially in tile order, so the
    /// first erring tile decides the returned error at every thread
    /// count. It then prices every tile's stored profile at this layer's
    /// message width, in tile order.
    fn traffic_kernels(
        &self,
        ctx: &LayerCtx,
        run: &mut RunState,
        layer: &mut SessionLayerState,
    ) -> Result<(), SimError> {
        let _span = span::enter(Stage::TrafficKernels);
        let cfg = &self.config;
        let (cache, seq) = (&mut run.cache, &mut *run.seq);
        let binned: Vec<Binned> = {
            let (slabs, seq, s_pes) = (&layer.slabs, &*seq, run.s_pes);
            let bin = |cache: &TrafficCache, bins: std::ops::Range<usize>| -> Vec<Binned> {
                bins.into_par_iter()
                    .map(|i| {
                        let _tag = span::stage_scope(Stage::TrafficKernels);
                        let ti = seq.bin_tiles[i];
                        TrafficProfile::bin(
                            cache.table(seq.slots[ti]),
                            &slabs.map_view(ti, cfg.mapping_policy, cfg.k, s_pes),
                            ctx.tiling.subgraph(ctx.g, ti).edges(),
                        )
                    })
                    .collect()
            };
            if cache.chunked() {
                let ids: Vec<usize> = seq.bin_tiles.iter().map(|&ti| seq.slots[ti]).collect();
                cache.bin_in_chunks(&ids, bin)?
            } else {
                bin(cache, 0..seq.bin_tiles.len())
            }
        };
        let mut binned = binned.into_iter();
        for &ti in &seq.bin_tiles {
            layer.profiles[ti] = Some(binned.next().expect("one result per binning tile")?);
        }
        seq.est_a.extend(layer.profiles.iter().map(|p| {
            p.as_ref()
                .expect("every tile holds its binned profile")
                .estimate(ctx.msg_words, cfg.link_utilisation)
        }));
        Ok(())
    }

    /// Stage 5, engine walk: the memory controller, telemetry and the
    /// instruction trace consume the precomputed tiles strictly in order,
    /// and the tiles combine as the double-buffered A/B pipeline.
    /// `start_cycle` places the layer on the trace timeline.
    fn engine_walk(
        &self,
        ctx: &LayerCtx,
        run: &mut RunState,
        layer: &SessionLayerState,
        mut w_sg: Workload,
        start_cycle: u64,
    ) -> LayerTotals {
        let _span = span::enter(Stage::EngineWalk);
        let cfg = &self.config;
        let (k, tel, trace) = (cfg.k, &self.telemetry, cfg.trace_instructions);
        let (wf, shape, lscope) = (ctx.wf, ctx.shape, &ctx.scope);
        let RunState {
            mem,
            activity,
            instructions,
            cache,
            seq,
            s_pes,
            tiles,
        } = run;
        let slabs = &layer.slabs;
        let num_tiles = ctx.tiling.num_tiles();
        let dram_bytes_before = mem.counters().total_bytes();
        let mut t = LayerTotals::default();

        // Trace timeline: the exposed controller overheads lead the layer
        // — mapping + partition decisions (~100 cycles), then the first
        // NoC reconfiguration when the fabric is flexible; later ones
        // overlap the previous tile's execution. Tiles follow
        // back-to-back, each occupying max(execution, DRAM): the crossbar
        // streams a tile's data while the PEs execute and the next tile
        // prefetches meanwhile — the double-buffer envelope.
        let mut cursor = start_cycle;
        if tel.is_enabled() {
            tel.span(
                tracks::CONTROLLER,
                &format!("map+partition layer {}", ctx.layer),
                cursor,
                100,
                vec![
                    ("pes_a".into(), ctx.strategy.a.into()),
                    ("pes_b".into(), ctx.strategy.b.into()),
                ],
            );
        }
        cursor += 100;
        if cfg.flexible_noc {
            let recfg_cycles = (2 * k - 1) as u64;
            if tel.is_enabled() {
                tel.span(
                    tracks::CONTROLLER,
                    "NoC reconfigure (exposed)",
                    cursor,
                    recfg_cycles,
                    vec![],
                );
            }
            cursor += recfg_cycles;
        }

        for ti in 0..num_tiles {
            let (pre, noc_cfg) = (&slabs.outs[ti], &cache.tables[seq.slots[ti]].cfg);
            let map = slabs.map_view(ti, cfg.mapping_policy, k, s_pes);
            if tel.is_enabled() {
                // scope strings only matter to an attached recorder, and
                // building them clones — skip both when disabled
                mem.set_scope(lscope.tile(ti));
            }
            aurora_mapping::record_quality_view(tel, lscope, &map);
            let (rho_a, rho_b) = (pre.rho_a, pre.rho_b);
            let (t_a, t_b) = (pre.t_a, pre.t_b);
            let (est_a, est_b) = (seq.est_a[ti], pre.est_b);
            w_sg.resize(pre.num_vertices, pre.num_edges);
            let c_sg = w_sg.op_counts();
            if trace {
                instructions.push(Instruction::MapSubgraph {
                    tile: ti,
                    vertices: pre.num_vertices,
                    high_degree: map.high_degree.len(),
                });
            }
            if cfg.flexible_noc {
                t.reconfigs += 1;
                if trace {
                    instructions.push(Instruction::Configure {
                        tile: ti,
                        bypass_segments: noc_cfg.row_bypass.len() + noc_cfg.col_bypass.len(),
                        reconfig_cycles: (2 * k - 1) as u64,
                    });
                }
            }

            // DRAM traffic of this tile.
            let mut mem_cycles = 0u64;
            if ti == 0 {
                // Weights are loaded once per layer into sub-accelerator B
                // only — not duplicated per PE (§VI-B).
                mem_cycles += mem.stream_read(w_sg.weight_bytes());
            }
            let owned_bytes = (pre.num_vertices * shape.f_in * 8) as u64;
            mem_cycles += mem.stream_read(owned_bytes);
            if wf.model.uses_edge_embeddings() {
                let e_bytes = (pre.num_edges * ctx.raw_msg_words * 8) as u64;
                mem_cycles += mem.stream_read(e_bytes);
            }
            // Cross-tile neighbours are gathered once per tile (destination-
            // stationary aggregation); sparse input features stream in
            // compressed form — the flexible PE consumes CSR payloads
            // directly, which is how Aurora "fully utilizes the on-chip
            // buffer capacity" where baselines re-fetch (§VI-B).
            let halo = pre.halo;
            let halo_bytes = (halo as f64 * (shape.f_in * 8) as f64 * ctx.compress) as u64;
            mem_cycles += mem.random_read(halo_bytes);
            let out_dim = if wf.model.has_vertex_update() {
                shape.f_out
            } else {
                ctx.raw_msg_words.max(shape.f_in)
            };
            mem_cycles += mem.stream_write((pre.num_vertices * out_dim * 8) as u64);
            let d_cycles = mem.to_accel_cycles(mem_cycles, cfg.clock_mhz);
            if trace {
                instructions.push(Instruction::LoadTile {
                    tile: ti,
                    bytes: owned_bytes,
                });
                for p in &wf.phases {
                    let cyc = match p.sub_accelerator() {
                        aurora_model::phase::SubAccelerator::A => t_a + est_a.cycles,
                        aurora_model::phase::SubAccelerator::B => t_b + est_b.cycles,
                    };
                    instructions.push(Instruction::ExecutePhase {
                        tile: ti,
                        phase: *p,
                        cycles: cyc,
                    });
                }
                instructions.push(Instruction::WriteBack {
                    tile: ti,
                    bytes: (pre.num_vertices * out_dim * 8) as u64,
                });
            }

            // The two sub-accelerators pipeline: a tile's stage time is the
            // slower of A (edge update + aggregation + its traffic) and B
            // (vertex update + ring traffic) — B works on the previous
            // tile's output while A fills.
            let exec = (t_a + est_a.cycles).max(t_b + est_b.cycles);
            let slot = exec.max(d_cycles);
            if tel.is_enabled() {
                est_a.record_to(tel, &lscope.phase("aggregation"));
                est_b.record_to(tel, &lscope.phase("vertex-update"));
                tel.span(
                    tracks::TILES,
                    &format!("tile {ti}"),
                    cursor,
                    slot,
                    vec![
                        ("exec_cycles".into(), exec.into()),
                        ("dram_cycles".into(), d_cycles.into()),
                        ("hidden_cycles".into(), exec.min(d_cycles).into()),
                    ],
                );
                tel.span(
                    tracks::SUB_A,
                    &format!("edge update + aggregation (tile {ti})"),
                    cursor,
                    t_a + est_a.cycles,
                    vec![
                        ("compute_cycles".into(), t_a.into()),
                        ("noc_cycles".into(), est_a.cycles.into()),
                        ("vertices".into(), pre.num_vertices.into()),
                        ("edges".into(), pre.num_edges.into()),
                    ],
                );
                if t_b + est_b.cycles > 0 {
                    tel.span(
                        tracks::SUB_B,
                        &format!("vertex update (tile {ti})"),
                        cursor,
                        t_b + est_b.cycles,
                        vec![
                            ("compute_cycles".into(), t_b.into()),
                            ("noc_cycles".into(), est_b.cycles.into()),
                        ],
                    );
                }
                if d_cycles > 0 {
                    tel.span(
                        tracks::DRAM,
                        &format!("tile {ti} off-chip traffic"),
                        cursor,
                        d_cycles,
                        vec![
                            ("owned_bytes".into(), owned_bytes.into()),
                            ("halo_vertices".into(), halo.into()),
                        ],
                    );
                }
                if est_a.flit_hops + est_b.flit_hops > 0 {
                    // A and B traffic share the fabric concurrently, so the
                    // track span is clamped to the tile's slot
                    tel.span(
                        tracks::NOC,
                        &format!("tile {ti} on-chip traffic"),
                        cursor,
                        (est_a.cycles + est_b.cycles).clamp(1, slot.max(1)),
                        vec![
                            (
                                "flit_hops".into(),
                                (est_a.flit_hops + est_b.flit_hops).into(),
                            ),
                            (
                                "bypass_hops".into(),
                                (est_a.bypass_hops + est_b.bypass_hops).into(),
                            ),
                        ],
                    );
                }
                tel.observe("tile.exec_cycles", lscope, exec);
                tel.observe("tile.dram_cycles", lscope, d_cycles);
                tel.counter_add("tile.hidden_cycles", lscope, exec.min(d_cycles));
            }

            // Bound attribution: keep the losers' slack instead of
            // throwing the max() decisions away.
            let attr = TileAttribution::new(
                ctx.layer,
                ti,
                SideAttribution::new(t_a, est_a.cycles, rho_a, est_a.hot_router),
                SideAttribution::new(t_b, est_b.cycles, rho_b, est_b.hot_router),
                d_cycles,
            );
            debug_assert_eq!(attr.slot_cycles, slot, "attribution must cover the slot");
            if tel.is_enabled() {
                attr.record_to(tel, &lscope.tile(ti));
            }
            t.mix = t.mix.add(&attr.mix);
            tiles.push(attr);

            cursor += slot;
            t.dram_cycles += d_cycles;
            t.phase_cycles.sub_a_compute += t_a;
            t.phase_cycles.sub_b_compute += t_b;
            t.phase_cycles.sub_a_noc += est_a.cycles;
            t.phase_cycles.sub_b_noc += est_b.cycles;
            t.noc = t.noc.then(&est_a).then(&est_b);

            // Activity counters.
            for p in [Phase::EdgeUpdate, Phase::Aggregation, Phase::VertexUpdate] {
                let (m, a) = w_sg.phase_mult_add(p);
                activity.fp_mults += m;
                activity.fp_adds += a;
            }
            // bank-buffer traffic heuristic: one operand word per op plus
            // the tile's feature I/O
            activity.local_sram_words +=
                c_sg.total() + (pre.num_vertices * (shape.f_in + out_dim)) as u64;
            activity.noc_flit_hops += est_a.flit_hops + est_b.flit_hops;
            // datapath mode switches across the phase sequence, per tile
            t.reconfigs += wf.mode_switches();
        }
        t.cycles = cursor - start_cycle;
        t.dram_bytes = mem.counters().total_bytes() - dram_bytes_before;
        t
    }

    /// Stage 6, finalize: rolls the walk's totals into the layer's report
    /// and bottleneck profile, releasing the layer's context.
    fn finalize_layer(&self, ctx: LayerCtx, t: &LayerTotals) -> (LayerReport, LayerProfile) {
        let _span = span::enter(Stage::Finalize);
        let tel = &self.telemetry;
        let tiles = ctx.tiling.num_tiles();
        let pc = t.phase_cycles;
        let compute = pc.sub_a_compute + pc.sub_b_compute;
        if tel.is_enabled() {
            tel.counter_add("layer.total_cycles", &ctx.scope, t.cycles);
            tel.counter_add("layer.compute_cycles", &ctx.scope, compute);
            tel.counter_add("layer.reconfigurations", &ctx.scope, t.reconfigs);
            tel.gauge_set("layer.tiles", &ctx.scope, tiles as f64);
        }
        let report = LayerReport {
            layer: ctx.layer,
            shape: ctx.shape,
            partition: ctx.strategy,
            tiles,
            op_counts: ctx.counts,
            compute_cycles: compute,
            phase_cycles: pc,
            noc: NocReport::from(t.noc),
            dram_cycles: t.dram_cycles,
            total_cycles: t.cycles,
        };
        let slot_total = t.mix.total().max(1) as f64;
        let ops = ctx.counts.total();
        let profile = LayerProfile {
            layer: ctx.layer,
            tiles,
            mix: t.mix,
            overhead_cycles: t.cycles - t.mix.total(),
            util_a: (pc.sub_a_compute + pc.sub_a_noc) as f64 / slot_total,
            util_b: (pc.sub_b_compute + pc.sub_b_noc) as f64 / slot_total,
            util_dram: t.dram_cycles as f64 / slot_total,
            ops,
            dram_bytes: t.dram_bytes,
            operational_intensity: ops as f64 / (t.dram_bytes.max(1)) as f64,
            dominant: t.mix.dominant(),
        };
        (report, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_graph::{generate, Dataset};

    fn small_sim() -> AuroraSimulator {
        AuroraSimulator::new(AcceleratorConfig::small(4))
    }

    fn toy_graph() -> Csr {
        generate::rmat(128, 800, Default::default(), 3)
    }

    /// One-shot run of an inline graph through the request API.
    fn run_one(
        sim: &AuroraSimulator,
        g: &Csr,
        model: ModelId,
        shapes: &[LayerShape],
        workload: &str,
    ) -> SimReport {
        run_one_density(sim, g, model, shapes, workload, 1.0)
    }

    fn run_one_density(
        sim: &AuroraSimulator,
        g: &Csr,
        model: ModelId,
        shapes: &[LayerShape],
        workload: &str,
        density: f64,
    ) -> SimReport {
        let req = SimRequest::builder(model)
            .config(*sim.config())
            .inline_graph(g.clone())
            .layers(shapes)
            .workload(workload)
            .input_density(density)
            .build()
            .unwrap();
        sim.run(&req).unwrap()
    }

    #[test]
    fn gcn_runs_end_to_end() {
        let g = toy_graph();
        let r = run_one(
            &small_sim(),
            &g,
            ModelId::Gcn,
            &[LayerShape::new(32, 16)],
            "toy",
        );
        assert!(r.total_cycles > 0);
        assert!(r.dram.total_bytes() > 0);
        assert!(r.energy_joules() > 0.0);
        assert_eq!(r.layers.len(), 1);
        assert!(r.layers[0].partition.a > 0 && r.layers[0].partition.b > 0);
    }

    #[test]
    fn all_models_simulate() {
        let g = toy_graph();
        for id in ModelId::ALL {
            let r = run_one(&small_sim(), &g, id, &[LayerShape::new(16, 8)], "toy");
            assert!(r.total_cycles > 0, "{}", id.name());
            let spec = id.spec();
            if !spec.has_vertex_update() {
                assert_eq!(r.layers[0].partition.b, 0, "{}", id.name());
            }
        }
    }

    #[test]
    fn two_layers_cost_more_than_one() {
        let g = toy_graph();
        let s = small_sim();
        let one = run_one(&s, &g, ModelId::Gcn, &[LayerShape::new(32, 16)], "t");
        let two = run_one(
            &s,
            &g,
            ModelId::Gcn,
            &[LayerShape::new(32, 16), LayerShape::new(16, 8)],
            "t",
        );
        assert!(two.total_cycles > one.total_cycles);
        assert_eq!(two.layers.len(), 2);
    }

    #[test]
    fn degree_aware_beats_hashing_on_skewed_graph() {
        let g = generate::rmat(256, 4000, Default::default(), 9);
        let shape = [LayerShape::new(64, 32)];
        let da = run_one(&small_sim(), &g, ModelId::Gcn, &shape, "t");
        let hash_cfg = AcceleratorConfig {
            mapping_policy: MappingPolicy::Hashing,
            flexible_noc: false,
            ..AcceleratorConfig::small(4)
        };
        let hb = run_one(
            &AuroraSimulator::new(hash_cfg),
            &g,
            ModelId::Gcn,
            &shape,
            "t",
        );
        assert!(
            da.noc_cycles() <= hb.noc_cycles(),
            "degree-aware {} !≤ hashing {}",
            da.noc_cycles(),
            hb.noc_cycles()
        );
    }

    #[test]
    fn instruction_trace_follows_walkthrough() {
        let g = generate::ring(64);
        let cfg = AcceleratorConfig {
            trace_instructions: true,
            ..AcceleratorConfig::small(4)
        };
        let r = run_one(
            &AuroraSimulator::new(cfg),
            &g,
            ModelId::Gcn,
            &[LayerShape::new(8, 4)],
            "t",
        );
        let mnemonics: Vec<&str> = r.instructions.iter().map(|i| i.mnemonic()).collect();
        // §III-E order: request → workflow → partition → map → configure →
        // load → execute → write back
        assert_eq!(mnemonics[0], "REQ");
        assert_eq!(mnemonics[1], "WFG");
        assert_eq!(mnemonics[2], "PRT");
        let map_pos = mnemonics.iter().position(|m| *m == "MAP").unwrap();
        let cfg_pos = mnemonics.iter().position(|m| *m == "CFG").unwrap();
        let exe_pos = mnemonics.iter().position(|m| *m == "EXE").unwrap();
        assert!(map_pos < cfg_pos && cfg_pos < exe_pos);
        assert!(mnemonics.contains(&"WRB"));
    }

    #[test]
    fn sparse_inputs_cut_onchip_traffic_dense_do_not() {
        let g = generate::rmat(256, 2000, Default::default(), 6);
        let shapes = [LayerShape::new(128, 16)];
        let sim = small_sim();
        let dense = run_one_density(&sim, &g, ModelId::Gcn, &shapes, "t", 1.0);
        let sparse = run_one_density(&sim, &g, ModelId::Gcn, &shapes, "t", 0.01);
        assert!(
            sparse.noc_cycles() < dense.noc_cycles(),
            "sparse {} !< dense {}",
            sparse.noc_cycles(),
            dense.noc_cycles()
        );
        // Reddit-like density gets no compression at all
        let reddit_like = run_one_density(&sim, &g, ModelId::Gcn, &shapes, "t", 0.52);
        assert_eq!(reddit_like.noc_cycles(), dense.noc_cycles());
    }

    #[test]
    fn density_only_affects_the_input_layer() {
        let g = generate::rmat(128, 900, Default::default(), 2);
        let shapes = [LayerShape::new(64, 32), LayerShape::new(32, 8)];
        let sim = small_sim();
        let a = run_one_density(&sim, &g, ModelId::Gcn, &shapes, "t", 0.05);
        let b = run_one_density(&sim, &g, ModelId::Gcn, &shapes, "t", 1.0);
        assert!(a.layers[0].noc.cycles < b.layers[0].noc.cycles);
        assert_eq!(a.layers[1].noc, b.layers[1].noc, "hidden layers are dense");
    }

    #[test]
    fn phase_cycles_attribution_consistent() {
        let g = generate::rmat(200, 1500, Default::default(), 8);
        let r = run_one(
            &small_sim(),
            &g,
            ModelId::Gcn,
            &[LayerShape::new(32, 16)],
            "t",
        );
        let l = &r.layers[0];
        assert_eq!(
            l.phase_cycles.sub_a_compute + l.phase_cycles.sub_b_compute,
            l.compute_cycles
        );
        assert_eq!(
            l.phase_cycles.sub_a_noc + l.phase_cycles.sub_b_noc,
            l.noc.cycles
        );
        // EdgeConv: everything lands on the A side
        let e = run_one(
            &small_sim(),
            &g,
            ModelId::EdgeConv1,
            &[LayerShape::new(32, 32)],
            "t",
        );
        assert_eq!(e.layers[0].phase_cycles.sub_b_compute, 0);
        assert_eq!(e.layers[0].phase_cycles.sub_b_noc, 0);
    }

    #[test]
    fn larger_graph_costs_more() {
        let small = generate::rmat(64, 256, Default::default(), 1);
        let large = generate::rmat(512, 4096, Default::default(), 1);
        let s = small_sim();
        let shape = [LayerShape::new(32, 16)];
        let rs = run_one(&s, &small, ModelId::Gcn, &shape, "s");
        let rl = run_one(&s, &large, ModelId::Gcn, &shape, "l");
        assert!(rl.total_cycles > rs.total_cycles);
        assert!(rl.dram.total_bytes() > rs.dram.total_bytes());
    }

    #[test]
    fn batch_amortises_weight_loads() {
        let graphs: Vec<Csr> = (0..4)
            .map(|s| generate::rmat(96, 700, Default::default(), s))
            .collect();
        let refs: Vec<&Csr> = graphs.iter().collect();
        let sim = small_sim();
        let shapes = [LayerShape::new(64, 32)];
        let batch = sim
            .try_simulate_batch(&refs, ModelId::Gcn, &shapes, "batch")
            .unwrap();
        let singles: u64 = graphs
            .iter()
            .map(|g| {
                run_one(&sim, g, ModelId::Gcn, &shapes, "one")
                    .dram
                    .total_bytes()
            })
            .sum();
        assert_eq!(batch.layers.len(), 4);
        assert!(
            batch.dram.total_bytes() < singles,
            "resident weights must save DRAM traffic: {} !< {singles}",
            batch.dram.total_bytes()
        );
        // layer indices are globally unique
        let ids: std::collections::HashSet<_> = batch.layers.iter().map(|l| l.layer).collect();
        assert_eq!(ids.len(), 4);
        assert!(batch.energy_joules() > 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn engine_invariants_on_random_workloads(
            n in 16usize..300,
            density in 0.0f64..1.0,
            f_in in 4usize..64,
            f_out in 2usize..32,
            seed in 0u64..50,
        ) {
            let g = generate::rmat(n, n * 4, Default::default(), seed);
            let r = run_one_density(
                &small_sim(),
                &g,
                ModelId::Gcn,
                &[LayerShape::new(f_in, f_out)],
                "prop",
                density,
            );
            // cycles and energy are positive and layers sum to the total
            proptest::prop_assert!(r.total_cycles > 0);
            proptest::prop_assert!(r.energy_joules() > 0.0);
            let sum: u64 = r.layers.iter().map(|l| l.total_cycles).sum();
            proptest::prop_assert_eq!(sum, r.total_cycles);
            // DRAM must at least move the input features and outputs once
            let floor = (n * f_in * 8) as u64;
            proptest::prop_assert!(r.dram.total_bytes() >= floor);
            // activity mirrors the op counts
            let c = r.layers[0].op_counts;
            proptest::prop_assert_eq!(
                r.activity.fp_mults + r.activity.fp_adds,
                c.total()
            );
        }
    }

    #[test]
    fn telemetry_records_timeline_and_metrics() {
        let g = toy_graph();
        let t = Telemetry::enabled();
        let shapes = [LayerShape::new(32, 16), LayerShape::new(16, 8)];
        let r = run_one(
            &small_sim().with_telemetry(t.clone()),
            &g,
            ModelId::Gcn,
            &shapes,
            "toy",
        );

        // metrics mirror the report exactly
        assert!(!r.metrics.is_empty());
        assert_eq!(
            r.metrics.counter_total("dram.read_bytes"),
            r.dram.read_bytes
        );
        assert_eq!(
            r.metrics.counter_total("dram.write_bytes"),
            r.dram.write_bytes
        );
        assert_eq!(
            r.metrics.counter_total("layer.total_cycles"),
            r.total_cycles
        );
        let scope0 = Scope::model("GCN").layer(0);
        assert_eq!(
            r.metrics.gauge_at("partition.pes_a", &scope0),
            Some(r.layers[0].partition.a as f64)
        );
        assert!(r
            .metrics
            .histogram_at("tile.exec_cycles", &scope0)
            .is_some());

        // timeline has the sub-accelerator tracks and per-layer spans
        let json = t.trace_json().unwrap();
        assert!(json.contains(tracks::SUB_A));
        assert!(json.contains(tracks::SUB_B));
        assert!(json.contains(tracks::DRAM));
        assert!(json.contains("map+partition layer 1"));

        // an unobserved run produces identical numbers and no metrics
        let plain = run_one(&small_sim(), &g, ModelId::Gcn, &shapes, "toy");
        assert_eq!(plain.total_cycles, r.total_cycles);
        assert_eq!(plain.dram, r.dram);
        assert!(plain.metrics.is_empty());
    }

    #[test]
    fn inline_run_matches_spec_run_and_types_errors() {
        let shapes = [LayerShape::new(32, 16)];
        let sim = small_sim();
        // a spec graph resolves deterministically to the graph it names
        let spec_req = SimRequest::builder(ModelId::Gcn)
            .config(AcceleratorConfig::small(4))
            .rmat(128, 800, 3)
            .layers(&shapes)
            .workload("toy")
            .build()
            .unwrap();
        let via_spec = sim.run(&spec_req).unwrap();
        // the same graph inline through the request path: identical report
        let req = SimRequest::builder(ModelId::Gcn)
            .config(AcceleratorConfig::small(4))
            .inline_graph(toy_graph())
            .layers(&shapes)
            .workload("toy")
            .build()
            .unwrap();
        let via_inline = sim.run(&req).unwrap();
        assert_eq!(via_inline, via_spec);
        // the request's config wins over the simulator's (purity contract)
        let k8 = SimRequest {
            config: AcceleratorConfig::small(8),
            ..req.clone()
        };
        assert_ne!(sim.run(&k8).unwrap().total_cycles, via_inline.total_cycles);
        // user-reachable bad inputs are typed errors, not panics
        let empty_layers = SimRequest {
            layers: vec![],
            ..req.clone()
        };
        assert_eq!(sim.run(&empty_layers).unwrap_err(), SimError::EmptyLayers);
        let empty_graph = SimRequest {
            graph: GraphSpec::Inline(Csr::empty(0)),
            ..req.clone()
        };
        assert_eq!(sim.run(&empty_graph).unwrap_err(), SimError::EmptyGraph);
        let bad_density = SimRequest {
            options: crate::request::SimOptions {
                input_density: 2.0,
                ..req.options.clone()
            },
            ..req.clone()
        };
        assert!(matches!(
            sim.run(&bad_density).unwrap_err(),
            SimError::InvalidDensity { .. }
        ));
        assert_eq!(
            sim.try_simulate_batch(&[], ModelId::Gcn, &shapes, "b")
                .unwrap_err(),
            SimError::EmptyBatch
        );
    }

    #[test]
    fn batch_rejects_a_bad_config_or_layer_chain_before_any_graph() {
        let g = toy_graph();
        let good = [LayerShape::new(32, 16), LayerShape::new(16, 8)];
        let batch = |cfg: AcceleratorConfig, shapes: &[LayerShape]| {
            AuroraSimulator::new(cfg).try_simulate_batch(&[&g, &g], ModelId::Gcn, shapes, "b")
        };
        let invalid =
            |r: Result<SimReport, SimError>| matches!(r, Err(SimError::InvalidRequest(_)));
        // zero DRAM channels used to reach the memory controller's assert
        let no_dram = AcceleratorConfig {
            dram_channels: 0,
            ..AcceleratorConfig::small(4)
        };
        assert!(invalid(batch(no_dram, &good)));
        let tiny_buffer = AcceleratorConfig {
            pe: aurora_pe::PeConfig {
                buffer_bytes: 64,
                ..Default::default()
            },
            ..AcceleratorConfig::small(4)
        };
        assert!(invalid(batch(tiny_buffer, &good)));
        let cfg = AcceleratorConfig::small(4);
        let broken_chain = [LayerShape::new(32, 16), LayerShape::new(8, 4)];
        assert!(invalid(batch(cfg, &broken_chain)));
        let zero_width = [LayerShape { f_in: 0, f_out: 16 }];
        assert!(invalid(batch(cfg, &zero_width)));
        assert!(batch(cfg, &good).is_ok());
    }

    fn seg(index: usize, from: usize, to: usize) -> SegmentPlan {
        SegmentPlan { index, from, to }
    }

    /// Plan `j` of a family of distinct valid one-segment plans at k=8.
    fn distinct_plan(j: usize) -> (Vec<SegmentPlan>, Vec<SegmentPlan>) {
        let s = seg(j % 8, 0, 1 + (j / 8) % 7);
        if j < 56 {
            (vec![s], vec![])
        } else {
            (vec![], vec![s])
        }
    }

    /// Slabs with one single-vertex tile per `(rows, cols)` plan.
    fn plan_slabs(k: usize, plans: &[(Vec<SegmentPlan>, Vec<SegmentPlan>)]) -> TileSlabs {
        let mut slabs = TileSlabs::default();
        slabs.begin_layer(plans.len(), plans.len(), k, 0);
        for (ti, (rows, cols)) in plans.iter().enumerate() {
            slabs.row_segs[ti * k..][..rows.len()].copy_from_slice(rows);
            slabs.col_segs[ti * k..][..cols.len()].copy_from_slice(cols);
            slabs.outs[ti] = TileOut {
                start: ti as u32,
                end: ti as u32 + 1,
                n_rows: rows.len(),
                n_cols: cols.len(),
                ..TileOut::default()
            };
        }
        slabs
    }

    fn new_cache(k: usize) -> TrafficCache {
        TrafficCache {
            k,
            words_per_flit: 4,
            ..TrafficCache::default()
        }
    }

    /// Interns one layer of `slabs`; each tile's slot id.
    fn intern(cache: &mut TrafficCache, slabs: &TileSlabs) -> Vec<usize> {
        let mut slots = Vec::new();
        cache.intern_layer(slabs, &mut slots, &Telemetry::disabled(), &Scope::ROOT);
        slots
    }

    /// Whether slot `id` holds exactly `plan` (the mesh for an empty one).
    fn holds(cache: &TrafficCache, id: usize, plan: &(Vec<SegmentPlan>, Vec<SegmentPlan>)) -> bool {
        cache.find(&plan.0, &plan.1) == Some(id)
    }

    #[test]
    fn interner_gives_each_plan_one_slot() {
        let k = 4;
        let a = (vec![seg(1, 0, 3)], vec![]);
        let b = (vec![], vec![seg(2, 0, 2)]);
        let empty = (vec![], vec![]);
        let mut cache = new_cache(k);
        let layer = plan_slabs(k, &[a.clone(), empty.clone(), a.clone(), b.clone()]);
        // the same plan gives the same id with one build; an empty plan
        // maps to the mesh
        assert_eq!(intern(&mut cache, &layer), [0, 1, 0, 2]);
        assert_eq!(cache.builds, 3);
        assert_eq!(cache.tables[0].cfg.row_bypass.len(), 1);
        assert_eq!(cache.tables[1].cfg, NocConfig::mesh(k));
        assert_eq!(intern(&mut cache, &layer), [0, 1, 0, 2], "a second layer");
        assert_eq!(cache.builds, 3);
        // a plan the NoC layer rejects maps to the mesh slot
        let backwards = (vec![seg(1, 3, 1)], vec![]);
        assert_eq!(intern(&mut cache, &plan_slabs(k, &[backwards])), [1]);
        assert_eq!(cache.builds, 3);
        // a non-flexible fabric plans nothing, so every tile of every
        // layer maps to the one mesh slot
        let g = toy_graph();
        let shapes = [LayerShape::new(32, 16), LayerShape::new(16, 8)];
        let builds = |flexible_noc| {
            let mut cfg = AcceleratorConfig::small(4);
            (cfg.flexible_noc, cfg.pe.buffer_bytes) = (flexible_noc, 1024);
            let r = run_one(
                &AuroraSimulator::new(cfg),
                &g,
                ModelId::Gcn,
                &shapes,
                "mesh",
            );
            assert!(r.layers.iter().all(|l| l.tiles > 1));
            r.profile.route_table_builds
        };
        assert_eq!(builds(false), 1);
        assert!(builds(true) > 1);
    }

    #[test]
    fn interner_flush_recounts_builds_and_keeps_ids_live() {
        let k = 8;
        let plans: Vec<_> = (0..MAX_ROUTE_TABLES + 6).map(distinct_plan).collect();
        let mut cache = new_cache(k);
        let full = plan_slabs(k, &plans[..MAX_ROUTE_TABLES]);
        assert_eq!(intern(&mut cache, &full).len(), MAX_ROUTE_TABLES);
        assert_eq!(cache.builds, MAX_ROUTE_TABLES as u64);
        cache.ensure_built(0).unwrap();
        // a known plan, then one past the cap: the flush drops the
        // tables, and the layer interns again from its first tile, so
        // the known plan's build counts again
        let layer = [plans[0].clone(), plans[MAX_ROUTE_TABLES].clone()];
        let ids = intern(&mut cache, &plan_slabs(k, &layer));
        assert_eq!(ids, [0, 1]);
        assert_eq!(cache.builds, MAX_ROUTE_TABLES as u64 + 2);
        assert_eq!(cache.tables.len(), 2);
        assert!(cache.tables.iter().all(|t| t.table.is_none()));
        // a layer with more distinct plans than the cap flushes once and
        // then grows past the cap; every tile keeps its own slot
        let wide = plan_slabs(k, &plans);
        let ids = intern(&mut cache, &wide);
        assert_eq!(cache.tables.len(), plans.len());
        for (id, plan) in ids.iter().zip(&plans) {
            assert!(holds(&cache, *id, plan), "slot {id} lost its plan");
        }
        // such a layer bins in chunks: never more than the cap's tables
        // materialised at once, every slot kept, none left built
        assert!(cache.chunked());
        let builds = cache.builds;
        let live = |cache: &TrafficCache| cache.tables.iter().filter(|t| t.table.is_some()).count();
        let mut chunks = Vec::new();
        let binned = cache
            .bin_in_chunks(&ids, |cache, bins| {
                assert!(
                    live(cache) <= MAX_ROUTE_TABLES,
                    "{} tables built",
                    live(cache)
                );
                chunks.push(bins.len());
                bins.map(|i| {
                    let view = wide.map_view(i, MappingPolicy::Hashing, k, &[]);
                    TrafficProfile::bin(cache.table(ids[i]), &view, std::iter::empty())
                })
                .collect()
            })
            .unwrap();
        assert_eq!(chunks, [MAX_ROUTE_TABLES, plans.len() - MAX_ROUTE_TABLES]);
        assert!(binned.iter().all(Result::is_ok) && binned.len() == plans.len());
        assert_eq!((live(&cache), cache.builds), (0, builds));
        assert_eq!(cache.tables.len(), plans.len());
    }

    #[test]
    fn mid_layer_flush_leaves_layer_estimates_unchanged() {
        // 1 KiB buffers give 117 tiles over 64 distinct plans in layers 0
        // and 1; layer 2's new f_in brings new plans, and the first new
        // one (after a tile that reuses a slot) overflows the cache
        let sim = AuroraSimulator::new(AcceleratorConfig {
            pe: aurora_pe::PeConfig {
                buffer_bytes: 1024,
                ..Default::default()
            },
            ..AcceleratorConfig::small(8)
        });
        let g = generate::rmat(14_864, 148_640, Default::default(), 9);
        let shapes = [
            LayerShape::new(32, 32),
            LayerShape::new(32, 16),
            LayerShape::new(16, 8),
        ];
        let all = run_one(&sim, &g, ModelId::Gcn, &shapes, "flush");
        assert!(all.profile.route_table_builds > MAX_ROUTE_TABLES as u64);
        // layer 2 alone: the same tiles, estimated without any flush
        let alone = run_one(&sim, &g, ModelId::Gcn, &shapes[2..], "flush");
        assert_eq!(all.layers[2].noc, alone.layers[0].noc);
        assert_eq!(all.layers[2].phase_cycles, alone.layers[0].phase_cycles);
    }

    #[test]
    fn cold_runs_on_one_thread_match_fresh_threads() {
        let config = AcceleratorConfig {
            pe: aurora_pe::PeConfig {
                buffer_bytes: 1024,
                ..Default::default()
            },
            ..AcceleratorConfig::small(4)
        };
        let sim = AuroraSimulator::new(config);
        let shapes = [LayerShape::new(32, 16), LayerShape::new(16, 8)];
        let a = toy_graph();
        let tiling = Tiling::build(
            &a,
            &TilingConfig {
                onchip_bytes: config.onchip_bytes(),
                feature_dim: 32,
                bytes_per_element: 8,
                feature_fraction: config.feature_fraction,
            },
        );
        // B moves one of vertex 0's in-tile edges to a vertex of the last
        // tile: same degrees, tiling and Algorithm-2 split, so only a
        // state that replays tile 0 would miss the move
        let u = 0;
        let v = *a
            .neighbors(u)
            .iter()
            .find(|&&v| tiling.tile_of(v) == 0)
            .unwrap();
        let last = tiling.range(tiling.num_tiles() - 1);
        let w = last.clone().find(|w| !a.neighbors(u).contains(w)).unwrap();
        let b = crate::delta::GraphDelta {
            insert_edges: vec![(u, w)],
            remove_edges: vec![(u, v)],
            ..Default::default()
        }
        .apply(&a)
        .unwrap();
        let fresh = |g: &Csr| {
            let (sim, g) = (sim.clone(), g.clone());
            std::thread::spawn(move || run_one(&sim, &g, ModelId::Gcn, &shapes, "cold"))
                .join()
                .unwrap()
        };
        let (fresh_a, fresh_b) = (fresh(&a), fresh(&b));
        assert!(fresh_a.layers.iter().all(|l| l.tiles > 1));
        assert_ne!(fresh_a, fresh_b, "the moved edge must show in the report");
        std::thread::spawn(move || {
            assert_eq!(run_one(&sim, &a, ModelId::Gcn, &shapes, "cold"), fresh_a);
            assert_eq!(run_one(&sim, &b, ModelId::Gcn, &shapes, "cold"), fresh_b);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn words_per_flit_sets_the_flit_count() {
        let run = |words_per_flit| {
            let config = AcceleratorConfig {
                words_per_flit,
                ..AcceleratorConfig::small(4)
            };
            let req = SimRequest::builder(ModelId::Gcn)
                .config(config)
                .rmat(512, 4000, 7)
                .layers(&[LayerShape::new(32, 16)])
                .build()
                .unwrap();
            small_sim().run(&req).unwrap()
        };
        let hops = [4, 16, 64].map(|w| run(w).activity.noc_flit_hops);
        assert!(
            hops[0] > hops[1] && hops[1] > hops[2],
            "fewer flits per message at a wider payload: {hops:?}"
        );
        // 4 words per flit is the payload every config carried before
        // the request's value was read: its report is unchanged
        let json = serde_json::to_string(&run(4)).unwrap();
        assert_eq!(
            crate::request::fnv1a64(&[json.as_bytes()]),
            0xcb90_9447_053e_ab61,
            "the 4-words-per-flit report moved"
        );
    }

    #[test]
    fn scaled_dataset_simulates_with_paper_config() {
        // the full 32×32 configuration on a scaled-down Cora
        let spec = Dataset::Cora.spec().scaled(8);
        let g = spec.synthesize();
        let r = run_one(
            &AuroraSimulator::paper(),
            &g,
            ModelId::Gcn,
            &[LayerShape::new(spec.feature_dim.min(128), 16)],
            "Cora/8",
        );
        assert!(r.total_cycles > 0);
        assert!(r.energy.reconfiguration_fraction() < 0.03);
    }
}
