//! Streaming graph sessions: [`GraphDelta`] + incremental re-simulation.
//!
//! The one-shot API simulates every [`SimRequest`] from scratch, yet the
//! artifacts the engine computes per tile — mapping, bypass plan,
//! unit-flit traffic profile, `TileOut` scalars — are pure functions of
//! the tile's *own* vertex range and out-edges. A small graph edit leaves
//! almost all of them valid. A [`SimSession`] exploits that: it owns the
//! resolved CSR plus the last run's per-tile artifacts, applies a
//! [`GraphDelta`], computes the dirty-tile set from the partition, and
//! re-runs only the dirty tiles through the arena engine while replaying
//! the cached results for clean tiles — **bit-identical** to a
//! from-scratch run on the post-delta graph (`delta_bench` gates this).
//!
//! The dirty-tile rule: editing edge `(u, v)` dirties `tile_of(u)` only.
//! A tile's artifacts fold remote destinations into an anonymous halo
//! count, so `v`'s identity never enters another tile's state.
//! Vertex insertions/removals shift vertex ids and tile boundaries, so
//! those deltas invalidate the warm state first. An invalidated state, like a fresh one, makes the run
//! recompute every tile, and so does any layer whose fresh tiling or
//! Algorithm-2 split no longer matches the one its state was computed
//! under. A full recompute repopulates the warm state, still through
//! the session, so subsequent edge deltas are incremental again.
//!
//! Identity is digest-chained: a session opens at the base request's
//! digest `d₀` and each applied delta advances
//! `dᵢ₊₁ = fnv1a64(dᵢ ∥ 0xff ∥ canonical-JSON(delta))`. The *session id*
//! stays `d₀` — the serve router hashes it for shard affinity, so every
//! line of one session lands on the worker holding the warm state.

use crate::engine::{AuroraSimulator, SessionState};
use crate::graph_cache::{resolve_with, GraphCache};
use crate::report::SimReport;
use crate::request::{fnv1a64, SimError, SimRequest};
use aurora_graph::{Csr, GraphBuilder};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A serializable batch of graph edits, the unit a session applies.
///
/// Semantics: `add_vertices` appends that many isolated vertices at the
/// end of the current id space; edge batches may reference them. Edge
/// removals must name existing edges; insertions must be new. Removing a
/// vertex requires every incident edge (either direction) to be listed
/// in `remove_edges` — no silent cascades — and compacts the id space
/// (survivors shift down past the removed ids).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Directed edges to insert, `(src, dst)`.
    #[serde(default)]
    pub insert_edges: Vec<(u32, u32)>,
    /// Directed edges to remove; each must currently exist.
    #[serde(default)]
    pub remove_edges: Vec<(u32, u32)>,
    /// Isolated vertices appended at the end of the id space.
    #[serde(default)]
    pub add_vertices: u32,
    /// Vertices to remove (ids in the pre-delta space); all incident
    /// edges must appear in `remove_edges`.
    #[serde(default)]
    pub remove_vertices: Vec<u32>,
}

impl GraphDelta {
    /// Whether the delta edits nothing. Applying an empty delta is a
    /// no-op cache hit: the session replays its last report without
    /// re-running anything and the digest chain does not advance.
    pub fn is_empty(&self) -> bool {
        self.insert_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.add_vertices == 0
            && self.remove_vertices.is_empty()
    }

    /// Whether the delta changes the vertex set (forcing a full
    /// recompute: ids shift and tile boundaries move).
    pub fn is_structural(&self) -> bool {
        self.add_vertices > 0 || !self.remove_vertices.is_empty()
    }

    /// Graph-independent well-formedness: no duplicate edge within a
    /// batch, no edge both removed and inserted (remove-then-insert of
    /// the same edge is order-ambiguous — split it into two deltas),
    /// no duplicate vertex removal.
    pub fn validate(&self) -> Result<(), SimError> {
        let dup = |batch: &[(u32, u32)]| -> Option<(u32, u32)> {
            let mut seen = batch.to_vec();
            seen.sort_unstable();
            seen.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
        };
        if let Some((u, v)) = dup(&self.insert_edges) {
            return Err(SimError::Delta(format!(
                "duplicate edge ({u}, {v}) in insert batch"
            )));
        }
        if let Some((u, v)) = dup(&self.remove_edges) {
            return Err(SimError::Delta(format!(
                "duplicate edge ({u}, {v}) in remove batch"
            )));
        }
        if !self.insert_edges.is_empty() && !self.remove_edges.is_empty() {
            let mut removed = self.remove_edges.clone();
            removed.sort_unstable();
            for &(u, v) in &self.insert_edges {
                if removed.binary_search(&(u, v)).is_ok() {
                    return Err(SimError::Delta(format!(
                        "edge ({u}, {v}) both removed and inserted; \
                         remove-then-insert is a no-op — split it into two deltas"
                    )));
                }
            }
        }
        let mut vr = self.remove_vertices.clone();
        vr.sort_unstable();
        if let Some(w) = vr.windows(2).find(|w| w[0] == w[1]) {
            return Err(SimError::Delta(format!("vertex {} removed twice", w[0])));
        }
        Ok(())
    }

    /// Applies the delta to `g`, returning the post-delta graph or a
    /// typed error (insert of an existing edge, removal of a missing
    /// one, out-of-range endpoints, vertex removal with dangling
    /// incident edges). `g` is untouched on error.
    pub fn apply(&self, g: &Csr) -> Result<Csr, SimError> {
        self.apply_with(g, &mut SurgeryBuffers::default())
    }

    /// [`Self::apply`] with caller-owned scratch: the edge-only surgery
    /// path builds the new CSR inside `bufs`, so a session that recycles
    /// its retired graphs (see [`SimSession::apply`]) allocates nothing
    /// in steady state. Output is identical to `apply`.
    pub(crate) fn apply_with(&self, g: &Csr, bufs: &mut SurgeryBuffers) -> Result<Csr, SimError> {
        self.validate()?;
        let n = g.num_vertices() as u32;
        let n_ext = n + self.add_vertices;
        for &(u, v) in self.insert_edges.iter().chain(self.remove_edges.iter()) {
            if u >= n_ext || v >= n_ext {
                return Err(SimError::Delta(format!(
                    "edge ({u}, {v}) endpoint outside vertex range 0..{n_ext}"
                )));
            }
        }
        for &(u, v) in &self.remove_edges {
            // removals must reference the pre-delta graph, so both
            // endpoints are necessarily < n
            if u >= n || v >= n || !g.has_edge(u, v) {
                return Err(SimError::Delta(format!(
                    "edge ({u}, {v}) not present; cannot remove"
                )));
            }
        }
        for &(u, v) in &self.insert_edges {
            if u < n && v < n && g.has_edge(u, v) {
                return Err(SimError::Delta(format!(
                    "edge ({u}, {v}) already present; cannot insert"
                )));
            }
        }

        let mut removed_edges = self.remove_edges.clone();
        removed_edges.sort_unstable();
        let mut removed_vertices = self.remove_vertices.clone();
        removed_vertices.sort_unstable();
        if let Some(&v) = removed_vertices.iter().find(|&&v| v >= n) {
            return Err(SimError::Delta(format!(
                "vertex {v} outside vertex range 0..{n}; cannot remove"
            )));
        }
        if !removed_vertices.is_empty() {
            let is_removed_vertex = |v: u32| removed_vertices.binary_search(&v).is_ok();
            // every incident edge of a removed vertex must be explicitly
            // removed in the same delta — both the out-edges it owns and
            // the in-edges that reference it
            for (u, v) in g.edges() {
                if (is_removed_vertex(u) || is_removed_vertex(v))
                    && removed_edges.binary_search(&(u, v)).is_err()
                {
                    return Err(SimError::Delta(format!(
                        "removing vertex leaves dangling incident edge ({u}, {v}); \
                         list it in remove_edges"
                    )));
                }
            }
            for &(u, v) in &self.insert_edges {
                if is_removed_vertex(u) || is_removed_vertex(v) {
                    return Err(SimError::Delta(format!(
                        "inserted edge ({u}, {v}) references a removed vertex"
                    )));
                }
            }
        }

        // Edge-only fast path: no ids shift, so the CSR is edited by row
        // surgery — untouched rows copy wholesale, touched rows merge —
        // instead of the builder's O(E log E) rebuild, which would cost
        // more than the engine's own dirty-tile run on the session's
        // incremental hot path.
        if !self.is_structural() {
            let mut inserts = self.insert_edges.clone();
            inserts.sort_unstable();
            return Ok(edge_surgery(g, &inserts, &removed_edges, bufs));
        }

        // Survivor relabelling: new id = old id − (#removed ids ≤ old).
        let relabel = |v: u32| -> u32 { v - removed_vertices.partition_point(|&r| r <= v) as u32 };
        let n_new = n_ext as usize - removed_vertices.len();
        let mut b = GraphBuilder::new(n_new);
        for (u, v) in g.edges() {
            if removed_edges.binary_search(&(u, v)).is_err() {
                b.add_edge(relabel(u), relabel(v));
            }
        }
        for &(u, v) in &self.insert_edges {
            b.add_edge(relabel(u), relabel(v));
        }
        Ok(b.build())
    }

    /// The source vertices the delta's edge edits touch — exactly the
    /// vertices whose owning tiles must recompute under the minimal
    /// dirty rule (sorted, deduplicated).
    pub fn touched_sources(&self) -> Vec<u32> {
        let mut srcs: Vec<u32> = self
            .insert_edges
            .iter()
            .chain(self.remove_edges.iter())
            .map(|&(u, _)| u)
            .collect();
        srcs.sort_unstable();
        srcs.dedup();
        srcs
    }
}

/// Scratch for [`edge_surgery`]: the output CSR's arrays are built here,
/// so a caller that hands back a retired graph's allocations (via
/// [`Csr::into_raw`]) runs the surgery without touching the allocator.
#[derive(Debug, Default)]
pub(crate) struct SurgeryBuffers {
    pub(crate) row_ptr: Vec<u32>,
    pub(crate) col_idx: Vec<u32>,
}

/// Rewrites `g` with `inserts` added and `removes` dropped — both sorted
/// by `(source, dest)` and pre-validated (inserts absent from `g`,
/// removes present, no duplicates). Rows of untouched sources are copied
/// wholesale; each touched row is a sorted three-way merge. The result
/// is exactly what [`GraphBuilder`] would produce (sorted, duplicate-free
/// neighbour lists) without its whole-edge-list sort — which, with the
/// row-pointer shift done in wrapping `u32` (one vectorizable add) and
/// [`Csr::from_raw_unchecked`] skipping the re-validation passes, keeps
/// an apply on a 160k-edge graph in the ~0.1ms range instead of the
/// multi-ms a builder rebuild costs.
fn edge_surgery(
    g: &Csr,
    inserts: &[(u32, u32)],
    removes: &[(u32, u32)],
    bufs: &mut SurgeryBuffers,
) -> Csr {
    let old_rp = g.row_ptr();
    let old_ci = g.col_idx();
    let mut touched: Vec<u32> = inserts
        .iter()
        .chain(removes.iter())
        .map(|&(u, _)| u)
        .collect();
    touched.sort_unstable();
    touched.dedup();

    let mut row_ptr = std::mem::take(&mut bufs.row_ptr);
    let mut col_idx = std::mem::take(&mut bufs.col_idx);
    row_ptr.clear();
    col_idx.clear();
    row_ptr.reserve(old_rp.len());
    col_idx.reserve(old_ci.len() + inserts.len() - removes.len());
    row_ptr.push(0u32);
    let mut done = 0usize; // rows emitted so far
    let (mut ins_i, mut rem_i) = (0usize, 0usize);
    for &u in &touched {
        let u = u as usize;
        // rows [done, u) are unchanged: bulk-copy, pointers shifted by
        // the net edge change accumulated so far (wrapping: the shift
        // may be logically negative, new = old + (len − base) mod 2³²)
        let shift = (col_idx.len() as u32).wrapping_sub(old_rp[done]);
        col_idx.extend_from_slice(&old_ci[old_rp[done] as usize..old_rp[u] as usize]);
        row_ptr.extend(old_rp[done + 1..=u].iter().map(|&p| p.wrapping_add(shift)));
        // row u: merge the old (sorted) neighbour list with this row's
        // slice of inserts, skipping its slice of removes
        let ins_start = ins_i;
        while ins_i < inserts.len() && inserts[ins_i].0 as usize == u {
            ins_i += 1;
        }
        let rem_start = rem_i;
        while rem_i < removes.len() && removes[rem_i].0 as usize == u {
            rem_i += 1;
        }
        let add = &inserts[ins_start..ins_i];
        let del = &removes[rem_start..rem_i];
        let (mut ai, mut di) = (0usize, 0usize);
        for &v in &old_ci[old_rp[u] as usize..old_rp[u + 1] as usize] {
            while ai < add.len() && add[ai].1 < v {
                col_idx.push(add[ai].1);
                ai += 1;
            }
            if di < del.len() && del[di].1 == v {
                di += 1;
                continue;
            }
            col_idx.push(v);
        }
        for &(_, v) in &add[ai..] {
            col_idx.push(v);
        }
        row_ptr.push(col_idx.len() as u32);
        done = u + 1;
    }
    // the tail past the last touched row
    let shift = (col_idx.len() as u32).wrapping_sub(old_rp[done]);
    col_idx.extend_from_slice(&old_ci[old_rp[done] as usize..]);
    row_ptr.extend(old_rp[done + 1..].iter().map(|&p| p.wrapping_add(shift)));
    // invariants hold structurally: pointers are prefix sums of emitted
    // rows and every column came from the validated old CSR or delta
    Csr::from_raw_unchecked(row_ptr, col_idx)
}

/// Advances a session's digest chain: `fnv1a64(prev ∥ 0xff ∥
/// canonical-JSON(delta))`, rendered as 16 hex digits like
/// [`SimRequest::digest`]. The `0xff` separator cannot occur in either
/// the hex digest or JSON, so the chaining is unambiguous.
pub fn chain_digest(prev: &str, delta: &GraphDelta) -> String {
    let canonical = serde_json::to_string(delta).expect("delta serializes");
    format!("{:016x}", fnv1a64(&[prev.as_bytes(), canonical.as_bytes()]))
}

/// The outcome of one [`SimSession::apply`]: where the digest chain now
/// points and whether the report was replayed (empty delta) rather than
/// recomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// The chained digest after this delta (unchanged for a no-op).
    pub digest: String,
    /// `true` when the delta was empty and the last report was replayed
    /// without touching the engine.
    pub cached: bool,
}

/// A stateful simulation session over an evolving graph.
///
/// Owns the resolved CSR, the engine's warm per-layer artifacts, and the
/// last report. [`Self::apply`] advances the graph by a delta and
/// re-simulates incrementally; the report is always bit-identical to
/// `AuroraSimulator::new(config).run(..)` on the post-delta graph.
///
/// Sessions run *unobserved* (a disabled telemetry handle, like the
/// serve daemon's engine workers): the report's `metrics` snapshot must
/// be a function of the request alone, and a shared live handle would
/// accumulate across applies.
#[derive(Debug)]
pub struct SimSession {
    sim: AuroraSimulator,
    base: SimRequest,
    graph: Csr,
    /// Session id: the base request's digest, constant for the session's
    /// lifetime (the router's shard-affinity key).
    sid: String,
    /// Head of the digest chain.
    digest: String,
    state: SessionState,
    last: SimReport,
    /// Recycled CSR arrays: each successful edge-only apply builds the
    /// new graph here, then reclaims the retired graph's allocations —
    /// the surgery never touches the allocator in steady state.
    bufs: SurgeryBuffers,
    applied: u64,
    runs: u64,
}

impl SimSession {
    /// Opens a session: validates and resolves `req`, runs it once from
    /// scratch (populating the warm per-tile state), and returns the
    /// session positioned at `d₀ = req.digest()`. A spec graph resolves
    /// through `graphs` when given; the session always owns its own copy
    /// (deltas mutate it), so a shared cached graph is cloned, never
    /// touched.
    pub(crate) fn open(
        req: &SimRequest,
        graphs: Option<&GraphCache>,
    ) -> Result<SimSession, SimError> {
        req.validate()?;
        let mut config = req.config;
        config.trace_instructions |= req.options.trace_instructions;
        let sim = AuroraSimulator::new(config);
        let graph = Arc::unwrap_or_clone(resolve_with(&req.graph, graphs)?);
        let workload = req.workload_label();
        let mut state = SessionState::default();
        let last = sim.run_core(
            &graph,
            req.model,
            &req.layers,
            &workload,
            req.options.input_density,
            Some((&mut state, &[])),
        )?;
        let digest = req.digest();
        Ok(SimSession {
            sim,
            base: req.clone(),
            graph,
            sid: digest.clone(),
            digest,
            state,
            last,
            bufs: SurgeryBuffers::default(),
            applied: 0,
            runs: 1,
        })
    }

    /// Applies a delta and re-simulates. Edge-only deltas recompute just
    /// the tiles owning a touched source vertex; structural deltas (or a
    /// tiling/strategy shift) recompute everything through the session.
    /// An empty delta is a no-op hit. On error the graph, digest and
    /// last report are unchanged (the warm state is conservatively
    /// invalidated, so the next successful apply recomputes fully).
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<DeltaOutcome, SimError> {
        delta.validate()?;
        if delta.is_empty() {
            return Ok(DeltaOutcome {
                digest: self.digest.clone(),
                cached: true,
            });
        }
        let new_graph = delta.apply_with(&self.graph, &mut self.bufs)?;
        // vertex edits shift ids and tile boundaries: recompute every tile
        if delta.is_structural() {
            self.state.invalidate();
        }
        let touched = delta.touched_sources();
        let workload = self.base.workload_label();
        match self.sim.run_core(
            &new_graph,
            self.base.model,
            &self.base.layers,
            &workload,
            self.base.options.input_density,
            Some((&mut self.state, &touched)),
        ) {
            Ok(report) => {
                // the retired graph's arrays become the next surgery's
                // scratch — zero-alloc steady state
                let retired = std::mem::replace(&mut self.graph, new_graph);
                (self.bufs.row_ptr, self.bufs.col_idx) = retired.into_raw();
                self.digest = chain_digest(&self.digest, delta);
                self.last = report;
                self.applied += 1;
                self.runs += 1;
                Ok(DeltaOutcome {
                    digest: self.digest.clone(),
                    cached: false,
                })
            }
            Err(e) => {
                self.state.invalidate();
                Err(e)
            }
        }
    }

    /// The session id (`d₀`, the base request's digest).
    pub fn sid(&self) -> &str {
        &self.sid
    }

    /// The head of the digest chain.
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// The report of the session's current graph state.
    pub fn last_report(&self) -> &SimReport {
        &self.last
    }

    /// The current (post-delta) graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The request the session opened with.
    pub fn base_request(&self) -> &SimRequest {
        &self.base
    }

    /// Deltas successfully applied since open.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Engine runs performed (open + non-empty applies) — a no-op hit
    /// does not increment this.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

impl AuroraSimulator {
    /// Opens a [`SimSession`] for `req`: one from-scratch run populates
    /// the warm per-tile state, then [`Self::apply_delta`] (or
    /// [`SimSession::apply`]) advances it incrementally.
    pub fn open_session(&self, req: &SimRequest) -> Result<SimSession, SimError> {
        SimSession::open(req, None)
    }

    /// [`Self::open_session`], resolving a spec graph through `graphs`
    /// (the open report is identical either way).
    pub fn open_session_with(
        &self,
        req: &SimRequest,
        graphs: Option<&GraphCache>,
    ) -> Result<SimSession, SimError> {
        SimSession::open(req, graphs)
    }

    /// Applies `delta` to an open session — sugar for
    /// [`SimSession::apply`] so one-shot and streaming callers read the
    /// same (`sim.run(..)` / `sim.apply_delta(..)`).
    pub fn apply_delta(
        &self,
        session: &mut SimSession,
        delta: &GraphDelta,
    ) -> Result<DeltaOutcome, SimError> {
        session.apply(delta)
    }
}

/// One line of the NDJSON `"session"` verb: open / delta / close.
///
/// Wire shape: `{"id": N, "session": {"op": "open", "sim": {..}}}`,
/// `{"id": N, "session": {"op": "delta", "sid": "..", "delta": {..}}}`,
/// `{"id": N, "session": {"op": "close", "sid": ".."}}`. Replies reuse
/// the [`SimResponse`](crate::SimResponse) envelope (`digest` carries
/// the chained digest after the op).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCommand {
    /// `"open"`, `"delta"` or `"close"`.
    pub op: String,
    /// Session id (`d₀`); required for delta/close.
    #[serde(default)]
    pub sid: Option<String>,
    /// The base request; required for open.
    #[serde(default)]
    pub sim: Option<SimRequest>,
    /// The edit batch; required for delta.
    #[serde(default)]
    pub delta: Option<GraphDelta>,
}

impl SessionCommand {
    pub const OPEN: &'static str = "open";
    pub const DELTA: &'static str = "delta";
    pub const CLOSE: &'static str = "close";

    /// Structural validity: a known op with its required fields.
    pub fn validate(&self) -> Result<(), SimError> {
        match self.op.as_str() {
            Self::OPEN => {
                let sim = self.sim.as_ref().ok_or_else(|| {
                    SimError::InvalidRequest("session open requires a sim request".into())
                })?;
                sim.validate()
            }
            Self::DELTA => {
                if self.sid.is_none() {
                    return Err(SimError::InvalidRequest(
                        "session delta requires a sid".into(),
                    ));
                }
                let delta = self.delta.as_ref().ok_or_else(|| {
                    SimError::InvalidRequest("session delta requires a delta".into())
                })?;
                delta.validate()
            }
            Self::CLOSE => {
                if self.sid.is_none() {
                    return Err(SimError::InvalidRequest(
                        "session close requires a sid".into(),
                    ));
                }
                Ok(())
            }
            other => Err(SimError::InvalidRequest(format!(
                "unknown session op {other:?} (expected open/delta/close)"
            ))),
        }
    }

    /// The digest the router hashes for shard affinity: `d₀` for every
    /// op of one session (open derives it from the request, delta/close
    /// carry it as `sid`), so the whole session pins to one shard and
    /// its warm state.
    pub fn routing_digest(&self) -> Result<String, SimError> {
        self.validate()?;
        Ok(match self.op.as_str() {
            Self::OPEN => self.sim.as_ref().expect("validated").digest(),
            _ => self.sid.clone().expect("validated"),
        })
    }
}

/// Builder family counterpart of
/// [`SimRequestBuilder`](crate::SimRequestBuilder) for the session verb:
/// open/delta/close lines come from one typed source instead of
/// hand-built JSON.
///
/// ```
/// use aurora_core::{GraphDelta, SessionRequestBuilder, SimRequest};
/// use aurora_model::{LayerShape, ModelId};
///
/// let req = SimRequest::builder(ModelId::Gcn)
///     .rmat(128, 800, 3)
///     .layer(LayerShape::new(16, 8))
///     .build()
///     .unwrap();
/// let sb = SessionRequestBuilder::from_request(req);
/// let open = sb.open().unwrap();
/// let delta = sb.delta(GraphDelta {
///     insert_edges: vec![(1, 2)],
///     ..GraphDelta::default()
/// });
/// let close = sb.close();
/// assert_eq!(open.routing_digest().unwrap(), sb.sid());
/// assert_eq!(delta.routing_digest().unwrap(), sb.sid());
/// assert_eq!(close.routing_digest().unwrap(), sb.sid());
/// ```
#[derive(Debug, Clone)]
pub struct SessionRequestBuilder {
    sid: String,
    sim: Option<SimRequest>,
}

impl SessionRequestBuilder {
    /// A builder anchored to `req`; `sid` becomes `req.digest()`.
    pub fn from_request(req: SimRequest) -> Self {
        Self {
            sid: req.digest(),
            sim: Some(req),
        }
    }

    /// A builder resuming an already-open session by sid (can emit
    /// delta/close commands but not open).
    pub fn resume(sid: impl Into<String>) -> Self {
        Self {
            sid: sid.into(),
            sim: None,
        }
    }

    /// The session id every emitted command routes by.
    pub fn sid(&self) -> &str {
        &self.sid
    }

    /// The open command (requires construction via
    /// [`Self::from_request`]).
    pub fn open(&self) -> Result<SessionCommand, SimError> {
        let sim = self.sim.clone().ok_or_else(|| {
            SimError::InvalidRequest("open requires a builder made from_request".into())
        })?;
        Ok(SessionCommand {
            op: SessionCommand::OPEN.into(),
            sid: None,
            sim: Some(sim),
            delta: None,
        })
    }

    /// A delta command for this session.
    pub fn delta(&self, delta: GraphDelta) -> SessionCommand {
        SessionCommand {
            op: SessionCommand::DELTA.into(),
            sid: Some(self.sid.clone()),
            sim: None,
            delta: Some(delta),
        }
    }

    /// The close command for this session.
    pub fn close(&self) -> SessionCommand {
        SessionCommand {
            op: SessionCommand::CLOSE.into(),
            sid: Some(self.sid.clone()),
            sim: None,
            delta: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use aurora_model::{LayerShape, ModelId};

    fn line_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    fn base_request() -> SimRequest {
        SimRequest::builder(ModelId::Gcn)
            .config(AcceleratorConfig::small(4))
            .rmat(256, 1600, 11)
            .layer(LayerShape::new(16, 8))
            .workload("delta-test")
            .build()
            .unwrap()
    }

    /// The edge-only surgery path must be indistinguishable from a
    /// ground-truth rebuild through [`GraphBuilder`].
    #[test]
    fn edge_surgery_matches_builder_rebuild() {
        let g = aurora_graph::generate::rmat(512, 4_000, Default::default(), 7);
        // a messy but valid delta: removals from several rows (including
        // row 0 and the last row with edges), inserts interleaving below,
        // between, and above existing neighbours
        let mut remove_edges = Vec::new();
        for u in [0u32, 3, 200, 201, 511] {
            if let Some(&v) = g.neighbors(u).first() {
                remove_edges.push((u, v));
            }
            if let Some(&v) = g.neighbors(u).last() {
                if Some(&v) != g.neighbors(u).first() {
                    remove_edges.push((u, v));
                }
            }
        }
        let mut insert_edges = Vec::new();
        for u in [0u32, 5, 200, 450, 511] {
            for v in [1u32, 255, 510] {
                if u != v && !g.has_edge(u, v) && !insert_edges.contains(&(u, v)) {
                    insert_edges.push((u, v));
                }
            }
        }
        let d = GraphDelta {
            insert_edges: insert_edges.clone(),
            remove_edges: remove_edges.clone(),
            ..GraphDelta::default()
        };
        let fast = d.apply(&g).unwrap();
        // ground truth: full rebuild
        let mut removed = remove_edges.clone();
        removed.sort_unstable();
        let mut b = GraphBuilder::new(g.num_vertices());
        for (u, v) in g.edges() {
            if removed.binary_search(&(u, v)).is_err() {
                b.add_edge(u, v);
            }
        }
        for &(u, v) in &insert_edges {
            b.add_edge(u, v);
        }
        let slow = b.build();
        assert_eq!(fast.row_ptr(), slow.row_ptr());
        assert_eq!(fast.col_idx(), slow.col_idx());
    }

    #[test]
    fn validate_rejects_duplicate_edge_in_one_batch() {
        let d = GraphDelta {
            insert_edges: vec![(1, 2), (3, 4), (1, 2)],
            ..GraphDelta::default()
        };
        let err = d.validate().unwrap_err();
        assert_eq!(err.kind(), "invalid_delta");
        assert!(err.to_string().contains("duplicate edge (1, 2)"));
        let d = GraphDelta {
            remove_edges: vec![(7, 8), (7, 8)],
            ..GraphDelta::default()
        };
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_remove_then_insert_of_same_edge() {
        let d = GraphDelta {
            insert_edges: vec![(2, 3)],
            remove_edges: vec![(2, 3)],
            ..GraphDelta::default()
        };
        let err = d.validate().unwrap_err();
        assert_eq!(err.kind(), "invalid_delta");
        assert!(err.to_string().contains("both removed and inserted"));
    }

    #[test]
    fn apply_rejects_vertex_remove_with_dangling_edges() {
        let g = line_graph(6); // 0→1→2→3→4→5
                               // removing vertex 2 without removing (1,2) and (2,3) dangles
        let d = GraphDelta {
            remove_vertices: vec![2],
            ..GraphDelta::default()
        };
        let err = d.apply(&g).unwrap_err();
        assert_eq!(err.kind(), "invalid_delta");
        assert!(err.to_string().contains("dangling incident edge"));
        // removing only the out-edge still dangles the in-edge
        let d = GraphDelta {
            remove_edges: vec![(2, 3)],
            remove_vertices: vec![2],
            ..GraphDelta::default()
        };
        assert!(d.apply(&g).is_err());
        // listing both incident edges succeeds and compacts ids
        let d = GraphDelta {
            remove_edges: vec![(1, 2), (2, 3)],
            remove_vertices: vec![2],
            ..GraphDelta::default()
        };
        let g2 = d.apply(&g).unwrap();
        assert_eq!(g2.num_vertices(), 5);
        // surviving edges 0→1, 3→4→5 relabel to 0→1, 2→3→4
        assert!(g2.has_edge(0, 1));
        assert!(g2.has_edge(2, 3));
        assert!(g2.has_edge(3, 4));
        assert_eq!(g2.num_edges(), 3);
    }

    #[test]
    fn apply_typed_errors_for_membership_and_range() {
        let g = line_graph(4);
        let exists = GraphDelta {
            insert_edges: vec![(0, 1)],
            ..GraphDelta::default()
        };
        assert!(exists
            .apply(&g)
            .unwrap_err()
            .to_string()
            .contains("already present"));
        let missing = GraphDelta {
            remove_edges: vec![(0, 2)],
            ..GraphDelta::default()
        };
        assert!(missing
            .apply(&g)
            .unwrap_err()
            .to_string()
            .contains("not present"));
        let oob = GraphDelta {
            insert_edges: vec![(0, 9)],
            ..GraphDelta::default()
        };
        assert!(oob
            .apply(&g)
            .unwrap_err()
            .to_string()
            .contains("outside vertex range"));
        // inserts may target freshly added vertices
        let grow = GraphDelta {
            insert_edges: vec![(0, 4)],
            add_vertices: 1,
            ..GraphDelta::default()
        };
        let g2 = grow.apply(&g).unwrap();
        assert_eq!(g2.num_vertices(), 5);
        assert!(g2.has_edge(0, 4));
    }

    #[test]
    fn empty_delta_is_a_noop_hit_not_a_rerun() {
        let sim = AuroraSimulator::paper();
        let mut session = sim.open_session(&base_request()).unwrap();
        let runs_before = session.runs();
        let digest_before = session.digest().to_string();
        let report_before = serde_json::to_string(session.last_report()).unwrap();
        let out = session.apply(&GraphDelta::default()).unwrap();
        assert!(out.cached, "empty delta must be served from the session");
        assert_eq!(out.digest, digest_before, "digest chain must not advance");
        assert_eq!(session.runs(), runs_before, "engine must not re-run");
        assert_eq!(
            serde_json::to_string(session.last_report()).unwrap(),
            report_before
        );
    }

    #[test]
    fn incremental_apply_matches_from_scratch() {
        let req = base_request();
        let sim = AuroraSimulator::paper();
        let mut session = sim.open_session(&req).unwrap();
        // the open replays the plain run exactly
        let fresh0 = AuroraSimulator::new(req.config).run(&req).unwrap();
        assert_eq!(
            serde_json::to_string(session.last_report()).unwrap(),
            serde_json::to_string(&fresh0).unwrap(),
            "open must match a one-shot run of the base request"
        );
        // a small edge delta stays bit-identical to a from-scratch run
        let g = session.graph().clone();
        let (ru, rv) = g.edges().next().unwrap();
        let mut iv = 0;
        let insert = loop {
            if !(g.has_edge(3, iv) || (ru == 3 && rv == iv)) {
                break (3u32, iv);
            }
            iv += 1;
        };
        let delta = GraphDelta {
            insert_edges: vec![insert],
            remove_edges: vec![(ru, rv)],
            ..GraphDelta::default()
        };
        let out = sim.apply_delta(&mut session, &delta).unwrap();
        assert!(!out.cached);
        assert_eq!(out.digest, chain_digest(&req.digest(), &delta));
        let fresh_req = SimRequest {
            graph: crate::GraphSpec::Inline(delta.apply(&g).unwrap()),
            ..req.clone()
        };
        let fresh = AuroraSimulator::new(req.config).run(&fresh_req).unwrap();
        // options.workload is set, so the inline fresh request reports the
        // same label and whole reports must match byte for byte
        assert_eq!(
            serde_json::to_string(session.last_report()).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "incremental ≠ from-scratch"
        );
        // a structural delta falls back to full recompute, still identical
        let delta2 = GraphDelta {
            add_vertices: 2,
            insert_edges: vec![(10, 256), (256, 257)],
            ..GraphDelta::default()
        };
        let g2 = session.graph().clone();
        sim.apply_delta(&mut session, &delta2).unwrap();
        let fresh_req2 = SimRequest {
            graph: crate::GraphSpec::Inline(delta2.apply(&g2).unwrap()),
            ..req.clone()
        };
        let fresh2 = AuroraSimulator::new(req.config).run(&fresh_req2).unwrap();
        assert_eq!(
            serde_json::to_string(session.last_report()).unwrap(),
            serde_json::to_string(&fresh2).unwrap(),
            "structural fallback must still match from-scratch"
        );
    }

    /// Multi-layer, multi-tile sessions: both an edge delta (dirty tiles
    /// only) and a structural delta (full recompute) must reproduce a
    /// from-scratch run byte for byte.
    #[test]
    fn multi_layer_session_matches_from_scratch() {
        let g = aurora_graph::generate::rmat(16_384, 160_000, Default::default(), 21);
        let shapes = [LayerShape::new(256, 256), LayerShape::new(256, 64)];
        let fresh = |req: &SimRequest, g: &Csr| {
            let req = SimRequest {
                graph: crate::GraphSpec::Inline(g.clone()),
                ..req.clone()
            };
            let r = AuroraSimulator::new(req.config).run(&req).unwrap();
            serde_json::to_string(&r).unwrap()
        };
        for k in [4, 8] {
            for flexible_noc in [true, false] {
                let req = SimRequest::builder(ModelId::Gcn)
                    .config(AcceleratorConfig {
                        flexible_noc,
                        ..AcceleratorConfig::small(k)
                    })
                    .inline_graph(g.clone())
                    .layers(&shapes)
                    .workload("delta-multi")
                    .build()
                    .unwrap();
                let cell = format!("k={k} flexible={flexible_noc}");
                let mut session = SimSession::open(&req, None).unwrap();
                let open = session.last_report();
                assert!(open.layers[0].tiles > 1, "{cell}: need several tiles");

                let base = session.graph().clone();
                let (u, v) = base.edges().nth(1_000).unwrap();
                let edge = GraphDelta {
                    remove_edges: vec![(u, v)],
                    ..GraphDelta::default()
                };
                session.apply(&edge).unwrap();
                let g1 = edge.apply(&base).unwrap();
                assert_eq!(
                    serde_json::to_string(session.last_report()).unwrap(),
                    fresh(&req, &g1),
                    "{cell}: edge delta ≠ from-scratch"
                );

                let n = g1.num_vertices() as u32;
                let structural = GraphDelta {
                    add_vertices: 1,
                    insert_edges: vec![(n, 0), (7, n)],
                    ..GraphDelta::default()
                };
                session.apply(&structural).unwrap();
                let g2 = structural.apply(&g1).unwrap();
                assert_eq!(
                    serde_json::to_string(session.last_report()).unwrap(),
                    fresh(&req, &g2),
                    "{cell}: structural delta ≠ from-scratch"
                );
            }
        }
    }

    #[test]
    fn failed_apply_leaves_session_usable() {
        let sim = AuroraSimulator::paper();
        let mut session = sim.open_session(&base_request()).unwrap();
        let digest = session.digest().to_string();
        let bad = GraphDelta {
            remove_edges: vec![(0, 999)],
            ..GraphDelta::default()
        };
        assert!(session.apply(&bad).is_err());
        assert_eq!(session.digest(), digest, "failed apply must not advance");
        // and a later good delta still matches from-scratch
        let g = session.graph().clone();
        let (u, v) = g.edges().next().unwrap();
        let d = GraphDelta {
            remove_edges: vec![(u, v)],
            ..GraphDelta::default()
        };
        session.apply(&d).unwrap();
        let req = session.base_request().clone();
        let fresh_req = SimRequest {
            graph: crate::GraphSpec::Inline(d.apply(&g).unwrap()),
            ..req.clone()
        };
        let fresh = AuroraSimulator::new(req.config).run(&fresh_req).unwrap();
        assert_eq!(
            serde_json::to_string(session.last_report()).unwrap(),
            serde_json::to_string(&fresh).unwrap()
        );
    }

    #[test]
    fn digest_chain_is_order_sensitive_and_deterministic() {
        let d1 = GraphDelta {
            insert_edges: vec![(1, 2)],
            ..GraphDelta::default()
        };
        let d2 = GraphDelta {
            remove_edges: vec![(1, 2)],
            ..GraphDelta::default()
        };
        let a = chain_digest(&chain_digest("d0", &d1), &d2);
        let b = chain_digest(&chain_digest("d0", &d2), &d1);
        assert_ne!(a, b, "chain must encode order");
        assert_eq!(a, chain_digest(&chain_digest("d0", &d1), &d2));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn session_commands_validate_and_route() {
        let req = base_request();
        let sid = req.digest();
        let sb = SessionRequestBuilder::from_request(req);
        assert_eq!(sb.sid(), sid);
        let open = sb.open().unwrap();
        open.validate().unwrap();
        assert_eq!(open.routing_digest().unwrap(), sid);
        let delta = sb.delta(GraphDelta::default());
        assert_eq!(delta.routing_digest().unwrap(), sid);
        let close = sb.close();
        assert_eq!(close.routing_digest().unwrap(), sid);
        // resume builders cannot open
        assert!(SessionRequestBuilder::resume(&sid).open().is_err());
        // malformed commands are typed errors
        let bad = SessionCommand {
            op: "delta".into(),
            sid: None,
            sim: None,
            delta: Some(GraphDelta::default()),
        };
        assert!(bad.validate().is_err());
        let unknown = SessionCommand {
            op: "poke".into(),
            sid: None,
            sim: None,
            delta: None,
        };
        assert!(unknown.validate().is_err());
        // commands round-trip the wire
        let json = serde_json::to_string(&delta).unwrap();
        let back: SessionCommand = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
    }
}
