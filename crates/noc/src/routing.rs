//! Route computation for the three fabric modes.
//!
//! * **Mesh** — dimension-ordered XY routing (deadlock-free).
//! * **MeshWithBypass** — XY routing where a bypass segment in the current
//!   dimension is taken when it brings the flit strictly closer than the
//!   mesh hop would; dimension order is preserved, so deadlock freedom is
//!   too.
//! * **Rings** — each row circulates in the +x direction, wrapping from
//!   `x = k − 1` back to `x = 0` over the row's bypass wire. A dateline at
//!   the wrap switches packets to VC 1, breaking the ring's cyclic channel
//!   dependency.
//!
//! The rule reads a router's bypass attachments from a [`PeerIndex`],
//! built once per configuration: a [`RouteTable`] builds one for its
//! legs, and the cycle-level [`Network`](crate::Network) builds one for
//! its links and the [`compute_route`] of every head flit.

use crate::config::{NocConfig, TopologyMode};
use crate::error::NocError;
use crate::topology::{Coord, NodeId, Port};

/// [`PeerIndex`] sentinel for "no attachment".
const NO_PEER: u32 = u32::MAX;

/// Every router's bypass attachments: for each of the k² routers, the
/// far end of the horizontal segment tapping it (a column) and of the
/// vertical one (a row). The fabric's one answer to "where does this
/// router's bypass lead": the routing rule, the cycle-level network's
/// links and the traffic model's ejection widths all read it. Built
/// once per configuration in O(k² + segments); a lookup is O(1).
#[derive(Debug, Clone)]
pub struct PeerIndex {
    k: usize,
    /// Per router, the far end along its row and along its column
    /// (indexed by `Axis as usize`), or [`NO_PEER`].
    peers: Vec<[u32; 2]>,
}

impl PeerIndex {
    /// Indexes `cfg`'s bypass segments. Where two segments tap one
    /// router in one dimension, which [`NocConfig::validate`] rejects,
    /// the first wins.
    ///
    /// # Panics
    /// Panics if a segment lies off the `k × k` fabric, which
    /// [`NocConfig::validate`] also rejects.
    pub fn build(cfg: &NocConfig) -> PeerIndex {
        let k = cfg.k;
        let mut peers = vec![[NO_PEER; 2]; k * k];
        let mut attach = |dim: usize, a: NodeId, b: NodeId, far_a: usize, far_b: usize| {
            for (at, far) in [(a, far_a), (b, far_b)] {
                if peers[at][dim] == NO_PEER {
                    peers[at][dim] = far as u32;
                }
            }
        };
        for s in &cfg.row_bypass {
            attach(0, s.index * k + s.from, s.index * k + s.to, s.to, s.from);
        }
        for s in &cfg.col_bypass {
            attach(1, s.from * k + s.index, s.to * k + s.index, s.to, s.from);
        }
        PeerIndex { k, peers }
    }

    /// The position along `c`'s row (`Axis::Row`) or column
    /// (`Axis::Col`) at the far end of the segment tapping `c`, if any.
    fn far(&self, c: Coord, axis: Axis) -> Option<usize> {
        let p = self.peers[c.id(self.k)][axis as usize];
        (p != NO_PEER).then_some(p as usize)
    }

    /// The router at the far end of `id`'s horizontal (`Axis::Row`) or
    /// vertical (`Axis::Col`) bypass segment, if one taps it.
    pub fn peer(&self, id: NodeId, axis: Axis) -> Option<NodeId> {
        let c = Coord::of(id, self.k);
        self.far(c, axis).map(|p| {
            match axis {
                Axis::Row => Coord { x: p, ..c },
                Axis::Col => Coord { y: p, ..c },
            }
            .id(self.k)
        })
    }

    /// Whether any bypass segment taps router `id`.
    pub fn tapped(&self, id: NodeId) -> bool {
        self.peers[id] != [NO_PEER; 2]
    }
}

/// The routing rule: the output port at `c` towards `d`, with the
/// bypass attachments read from `peers`.
fn route(cfg: &NocConfig, peers: &PeerIndex, c: Coord, d: Coord) -> Result<Port, NocError> {
    if c == d {
        return Ok(Port::Local);
    }
    match cfg.mode {
        TopologyMode::Rings => {
            if c.y != d.y {
                return Err(NocError::CrossRowRingRoute {
                    cur: c.id(cfg.k),
                    dst: d.id(cfg.k),
                });
            }
            Ok(Port::East) // +x, wrapping at k − 1
        }
        TopologyMode::Mesh | TopologyMode::MeshWithBypass => {
            if c.x != d.x {
                // Resolve X first. Consider the horizontal bypass if it
                // strictly beats the mesh hop.
                if cfg.mode == TopologyMode::MeshWithBypass {
                    if let Some(px) = peers.far(c, Axis::Row) {
                        let cur_gap = c.x.abs_diff(d.x);
                        let peer_gap = px.abs_diff(d.x);
                        if peer_gap + 1 < cur_gap {
                            return Ok(Port::BypassH);
                        }
                    }
                }
                if c.x < d.x {
                    Ok(Port::East)
                } else {
                    Ok(Port::West)
                }
            } else {
                // X resolved; resolve Y, considering the vertical bypass.
                if cfg.mode == TopologyMode::MeshWithBypass {
                    if let Some(py) = peers.far(c, Axis::Col) {
                        let cur_gap = c.y.abs_diff(d.y);
                        let peer_gap = py.abs_diff(d.y);
                        if peer_gap + 1 < cur_gap {
                            return Ok(Port::BypassV);
                        }
                    }
                }
                if c.y < d.y {
                    Ok(Port::South)
                } else {
                    Ok(Port::North)
                }
            }
        }
    }
}

/// The router reached by leaving `c` through `port`, with the bypass
/// attachments read from `peers` (see [`next_node`]).
fn advance(
    cfg: &NocConfig,
    peers: &PeerIndex,
    c: Coord,
    port: Port,
) -> Result<Option<Coord>, NocError> {
    let k = cfg.k;
    let unattached = || NocError::MissingBypassAttachment { cur: c.id(k), port };
    let next = match port {
        Port::Local => return Ok(None),
        Port::North => (c.y > 0).then(|| Coord { y: c.y - 1, ..c }),
        Port::South => (c.y + 1 < k).then(|| Coord { y: c.y + 1, ..c }),
        Port::East if c.x + 1 < k => Some(Coord { x: c.x + 1, ..c }),
        // wrap over the row bypass wire
        Port::East => (cfg.mode == TopologyMode::Rings).then_some(Coord { x: 0, ..c }),
        Port::West => (c.x > 0).then(|| Coord { x: c.x - 1, ..c }),
        Port::BypassH => {
            return Ok(Some(Coord {
                x: peers.far(c, Axis::Row).ok_or_else(unattached)?,
                ..c
            }))
        }
        Port::BypassV => {
            return Ok(Some(Coord {
                y: peers.far(c, Axis::Col).ok_or_else(unattached)?,
                ..c
            }))
        }
    };
    next.map(Some)
        .ok_or(NocError::OffMeshEdge { cur: c.id(k), port })
}

/// One hop of the routing rule: the port `c` forwards on towards `d` and
/// the router it leads to (`None` for Local). The table build and the
/// error replay step through this, as [`compute_route`] and
/// [`next_node`] do one half each, so there is one copy of the bypass
/// decision.
fn hop(
    cfg: &NocConfig,
    peers: &PeerIndex,
    c: Coord,
    d: Coord,
) -> Result<(Port, Option<Coord>), NocError> {
    let port = route(cfg, peers, c, d)?;
    Ok((port, advance(cfg, peers, c, port)?))
}

/// Computes the output port for a flit at `cur` destined to `dst`, with
/// `peers` built from `cfg`.
///
/// Ring mode only routes within a row (ring traffic is intra-row by
/// construction of the vertex-update dataflow); a cross-row request
/// yields [`NocError::CrossRowRingRoute`] instead of aborting the run.
pub fn compute_route(
    cfg: &NocConfig,
    peers: &PeerIndex,
    cur: NodeId,
    dst: NodeId,
) -> Result<Port, NocError> {
    route(cfg, peers, Coord::of(cur, cfg.k), Coord::of(dst, cfg.k))
}

/// The VC a flit occupies on the downstream router after leaving `cur`
/// through `out`. Ring wrap crossings move to VC 1 (dateline); everything
/// else keeps its VC.
pub fn next_vc(cfg: &NocConfig, cur: NodeId, out: Port, in_vc: usize) -> usize {
    if cfg.mode == TopologyMode::Rings && out == Port::East && cur % cfg.k == cfg.k - 1 {
        1.min(cfg.vcs - 1)
    } else {
        in_vc
    }
}

/// Precomputed summary of one route or route leg: everything a traffic
/// estimator needs except the per-node identities (walk those with
/// [`RouteTable::load_nodes`] / [`RouteTable::leg_nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSummary {
    /// Router-to-router hops (0 when `src == dst`).
    pub hops: u32,
    /// How many of those hops ride a bypass segment.
    pub bypass_hops: u32,
}

/// One precomputed leg: its hop and bypass-hop counts, and the
/// position along its line that its first hop leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leg {
    hops: u32,
    bypass_hops: u32,
    next: u32,
}

impl Leg {
    /// The leg from a position to itself.
    const EMPTY: Leg = Leg {
        hops: 0,
        bypass_hops: 0,
        next: 0,
    };

    /// Sentinel for "the routing rule fails on this leg".
    const ERR: Leg = Leg {
        hops: u32::MAX,
        bypass_hops: 0,
        next: 0,
    };
}

/// The dimension a route leg runs along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The X leg: from `(sx, sy)` along row `sy` to `(dx, sy)`.
    Row,
    /// The Y leg: from `(dx, sy)` along column `dx` to `(dx, dy)`.
    Col,
}

/// Precomputed routes of one [`NocConfig`], factored by dimension: a
/// row-leg and a column-leg table of k³ entries each, plus the config's
/// [`PeerIndex`].
///
/// Every mode routes one dimension at a time. Under mesh and
/// mesh-with-bypass XY routing a flit resolves X first, and each X-phase
/// decision depends only on its row position, `dx` and that row's
/// bypass taps. Once `x == dx` it resolves Y, and each Y-phase decision
/// depends only on its column position, `dy` and that column's taps.
/// The route `src → dst` is therefore exactly the row leg
/// `(sx, sy) → (dx, sy)` followed by the column leg
/// `(dx, sy) → (dx, dy)`, and its summary is their sum — 2k³ legs stand
/// in for k⁴ pairs (65,536 legs at the paper's k = 32, built in
/// O(k³)). Rings fit the same shape: a row leg is the directed +x
/// distance, and a column leg between different rows fails.
///
/// Routes are pure functions of the configuration, so the table is built
/// **once** per config, together with the config's [`PeerIndex`]
/// ([`Self::peers`]), by stepping the same fallible routing rule the
/// cycle-level engine uses ([`compute_route`] / [`next_node`]): a
/// mis-segmented bypass config fails [`RouteTable::build`] up front, and
/// per-pair route errors (e.g. a cross-row ring request) are returned
/// exactly as the hop-by-hop walk would produce them — a pair fails
/// exactly when one of its legs does, and [`Self::summary`] then replays
/// the walk to re-derive the precise [`NocError`]. Traffic estimators bin
/// messages by leg and charge each *distinct* leg once, scaled by its
/// multiplicity. Each leg also keeps the position its first hop leads
/// to, so [`Self::leg_nodes`] and [`Self::load_nodes`] list a route's
/// forwarding routers by chasing those links.
#[derive(Debug, Clone)]
pub struct RouteTable {
    cfg: NocConfig,
    peers: PeerIndex,
    /// Every node's `[x, y]`, so leg indices need no division on the
    /// binning hot path.
    xy: Vec<[u32; 2]>,
    /// `row[(y·k + sx)·k + dx]`: the leg `(sx, y) → (dx, y)`, or
    /// [`Leg::ERR`] — keyed by the source node and `dx`.
    row: Vec<Leg>,
    /// `col[(sy·k + dy)·k + x]`: the leg `(x, sy) → (x, dy)`, or
    /// [`Leg::ERR`] — keyed by `sy` and the destination node, so a
    /// route's two leg indices need only its endpoints' coordinates (see
    /// [`Self::leg_index`]).
    col: Vec<Leg>,
}

impl RouteTable {
    /// Builds the table for `cfg`. Configuration-level problems surface
    /// here as the [`NocConfig::validate`] error; per-pair routing errors
    /// are recorded per leg and returned by the accessors.
    pub fn build(cfg: &NocConfig) -> Result<RouteTable, NocError> {
        cfg.validate()?;
        let k = cfg.k;
        let peers = PeerIndex::build(cfg);
        let mut row = vec![Leg::ERR; k * k * k];
        let mut col = vec![Leg::ERR; k * k * k];
        let mut line = LineScratch::new(k);
        // One routing step of a leg; a failing rule ends the leg.
        let step = |c: Coord, d: Coord| match hop(cfg, &peers, c, d) {
            Ok((port, Some(next))) => Some((next, matches!(port, Port::BypassH | Port::BypassV))),
            Err(_) | Ok((_, None)) => None,
        };
        for y in 0..k {
            line.fill(
                &mut row,
                |s, d| (y * k + s) * k + d,
                |s, d| {
                    step(Coord { x: s, y }, Coord { x: d, y }).map(|(next, byp)| {
                        debug_assert_eq!(next.y, y, "an X leg stays in its row");
                        (next.x, byp)
                    })
                },
            );
        }
        for x in 0..k {
            line.fill(
                &mut col,
                |s, d| (s * k + d) * k + x,
                |s, d| {
                    step(Coord { x, y: s }, Coord { x, y: d }).map(|(next, byp)| {
                        debug_assert_eq!(next.x, x, "a Y leg stays in its column");
                        (next.y, byp)
                    })
                },
            );
        }
        Ok(RouteTable {
            cfg: cfg.clone(),
            peers,
            xy: (0..k * k)
                .map(|id| [(id % k) as u32, (id / k) as u32])
                .collect(),
            row,
            col,
        })
    }

    /// Replays the hop-by-hop walk of a pair with a failing leg,
    /// reproducing the exact [`NocError`] the walk yields — including the
    /// livelock guard.
    fn derive_error(&self, src: NodeId, dst: NodeId) -> NocError {
        let k = self.cfg.k;
        let (mut cur, d) = (Coord::of(src, k), Coord::of(dst, k));
        let mut guard = 0;
        while cur != d {
            cur = match hop(&self.cfg, &self.peers, cur, d) {
                Ok((_, Some(next))) => next,
                Ok((_, None)) => return NocError::RoutingLivelock { src, dst },
                Err(e) => return e,
            };
            guard += 1;
            if guard > 4 * k * k {
                return NocError::RoutingLivelock { src, dst };
            }
        }
        unreachable!("pair certified unroutable by the build")
    }

    /// The configuration this table was built for.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The bypass-peer index the table was built with.
    pub fn peers(&self) -> &PeerIndex {
        &self.peers
    }

    /// Legs per axis (k³); leg indices run over `0..num_legs()`.
    pub fn num_legs(&self) -> usize {
        self.row.len()
    }

    /// The index of the `axis` leg of the `src → dst` route: `src·k + dx`
    /// for the row leg, `sy·k² + dst` for the column leg.
    #[inline]
    pub fn leg_index(&self, axis: Axis, src: NodeId, dst: NodeId) -> usize {
        let k = self.cfg.k;
        match axis {
            Axis::Row => src * k + self.xy[dst][0] as usize,
            Axis::Col => self.xy[src][1] as usize * (k * k) + dst,
        }
    }

    fn legs(&self, axis: Axis) -> &[Leg] {
        match axis {
            Axis::Row => &self.row,
            Axis::Col => &self.col,
        }
    }

    /// The summary of leg `i` of `axis`, or `None` if the routing rule
    /// fails on it.
    pub fn leg(&self, axis: Axis, i: usize) -> Option<RouteSummary> {
        let leg = self.legs(axis)[i];
        (leg != Leg::ERR).then_some(RouteSummary {
            hops: leg.hops,
            bypass_hops: leg.bypass_hops,
        })
    }

    /// The nodes that forward along leg `i` of `axis`: its start and
    /// every router before its arrival node, in route order. Empty for a
    /// failing leg. A route's row-leg and column-leg nodes together are
    /// exactly its [`Self::load_nodes`].
    pub fn leg_nodes(&self, axis: Axis, i: usize) -> LegNodes<'_> {
        let k = self.cfg.k;
        let (line, pos, end) = match axis {
            // i = (y·k + sx)·k + dx
            Axis::Row => (i / (k * k), i / k % k, i % k),
            // i = (sy·k + dy)·k + x
            Axis::Col => (i % k, i / (k * k), i / k % k),
        };
        let leg = self.legs(axis)[i];
        LegNodes {
            table: self,
            axis,
            line,
            pos,
            end,
            remaining: if leg == Leg::ERR { 0 } else { leg.hops },
        }
    }

    /// The row leg and the column leg of `src → dst`, or `None` if
    /// either fails.
    fn route_legs(&self, src: NodeId, dst: NodeId) -> Option<(usize, usize)> {
        let r = self.leg_index(Axis::Row, src, dst);
        let c = self.leg_index(Axis::Col, src, dst);
        (self.row[r] != Leg::ERR && self.col[c] != Leg::ERR).then_some((r, c))
    }

    /// The precomputed summary of the `src → dst` route: its row leg
    /// plus its column leg.
    pub fn summary(&self, src: NodeId, dst: NodeId) -> Result<RouteSummary, NocError> {
        match self.route_legs(src, dst) {
            Some((r, c)) => Ok(RouteSummary {
                hops: self.row[r].hops + self.col[c].hops,
                bypass_hops: self.row[r].bypass_hops + self.col[c].bypass_hops,
            }),
            None => Err(self.derive_error(src, dst)),
        }
    }

    /// Hop count of the `src → dst` route.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Result<usize, NocError> {
        self.summary(src, dst).map(|s| s.hops as usize)
    }

    /// The nodes that *forward* a `src → dst` message — `src` and every
    /// intermediate router, excluding `dst` (which ejects) — in route
    /// order: the row leg's nodes, then the column leg's. Exactly the
    /// nodes whose load a hop-by-hop walk increments. Empty for
    /// unroutable pairs.
    pub fn load_nodes(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.route_legs(src, dst).into_iter().flat_map(|(r, c)| {
            self.leg_nodes(Axis::Row, r)
                .chain(self.leg_nodes(Axis::Col, c))
        })
    }
}

/// Scratch for resolving the legs of one row or column.
struct LineScratch {
    k: usize,
    known: Vec<bool>,
    on_stack: Vec<bool>,
    stack: Vec<(usize, bool)>,
}

impl LineScratch {
    fn new(k: usize) -> Self {
        Self {
            k,
            known: vec![false; k],
            on_stack: vec![false; k],
            stack: Vec::with_capacity(k),
        }
    }

    /// Resolves every leg of one line: `legs[at(s, d)]` becomes the leg
    /// from position `s` to position `d`, or [`Leg::ERR`]. `step(s, d)`
    /// applies the routing rule once at `s` towards `d`: the next
    /// position and whether that hop rides a bypass, or `None` where the
    /// rule fails. Chases are memoized with back-fill, so each position
    /// is walked at most once per destination — O(k²) per line, O(k³)
    /// for the table. A cycle fails every leg on it; the error replay
    /// then reports it through the livelock guard.
    fn fill(
        &mut self,
        legs: &mut [Leg],
        at: impl Fn(usize, usize) -> usize,
        mut step: impl FnMut(usize, usize) -> Option<(usize, bool)>,
    ) {
        for d in 0..self.k {
            self.known.fill(false);
            legs[at(d, d)] = Leg::EMPTY;
            self.known[d] = true;
            for s in 0..self.k {
                if self.known[s] {
                    continue;
                }
                self.stack.clear();
                let mut cur = s;
                let terminal = loop {
                    if self.known[cur] {
                        break legs[at(cur, d)];
                    }
                    if self.on_stack[cur] {
                        break Leg::ERR; // cycle in the next-hop graph
                    }
                    match step(cur, d) {
                        Some((next, byp)) => {
                            self.on_stack[cur] = true;
                            self.stack.push((cur, byp));
                            cur = next;
                        }
                        None => {
                            // Record the failure where the rule hit it, so
                            // later chases through `cur` stop at once.
                            legs[at(cur, d)] = Leg::ERR;
                            self.known[cur] = true;
                            break Leg::ERR;
                        }
                    }
                };
                // Back-fill the walked prefix, each node one hop further
                // from `d` than its successor.
                let (mut acc, mut next) = (terminal, cur);
                for &(node, byp) in self.stack.iter().rev() {
                    self.on_stack[node] = false;
                    if acc != Leg::ERR {
                        acc = Leg {
                            hops: acc.hops + 1,
                            bypass_hops: acc.bypass_hops + byp as u32,
                            next: next as u32,
                        };
                    }
                    legs[at(node, d)] = acc;
                    self.known[node] = true;
                    next = node;
                }
            }
        }
    }
}

/// Iterator over the forwarding nodes of one leg (see
/// [`RouteTable::leg_nodes`]), chasing the legs' next-position links.
#[derive(Debug)]
pub struct LegNodes<'a> {
    table: &'a RouteTable,
    axis: Axis,
    /// The row `y` or column `x` the leg runs along.
    line: usize,
    /// Position along the line of the next node to yield.
    pos: usize,
    /// Position the leg arrives at.
    end: usize,
    remaining: u32,
}

impl Iterator for LegNodes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let k = self.table.cfg.k;
        let (node, i) = match self.axis {
            Axis::Row => (
                self.line * k + self.pos,
                (self.line * k + self.pos) * k + self.end,
            ),
            Axis::Col => (
                self.pos * k + self.line,
                (self.pos * k + self.end) * k + self.line,
            ),
        };
        self.pos = self.table.legs(self.axis)[i].next as usize;
        Some(node)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for LegNodes<'_> {}

/// The node reached by leaving `cur` through `port` (`Ok(None)` for
/// Local), with `peers` built from `cfg`. A port that steps off the
/// fabric — the mesh edge in a non-ring mode, or a bypass port at a
/// node without an attachment, as produced by mis-segmented bypass
/// configs — is a [`NocError`] rather than a panic.
pub fn next_node(
    cfg: &NocConfig,
    peers: &PeerIndex,
    cur: NodeId,
    port: Port,
) -> Result<Option<NodeId>, NocError> {
    let k = cfg.k;
    Ok(advance(cfg, peers, Coord::of(cur, k), port)?.map(|c| c.id(k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BypassSegment;
    use proptest::prelude::*;

    /// `compute_route` under `cfg`, with its peer index built here.
    fn port(cfg: &NocConfig, cur: NodeId, dst: NodeId) -> Result<Port, NocError> {
        compute_route(cfg, &PeerIndex::build(cfg), cur, dst)
    }

    /// `next_node` under `cfg`, with its peer index built here.
    fn next(cfg: &NocConfig, cur: NodeId, port: Port) -> Result<Option<NodeId>, NocError> {
        next_node(cfg, &PeerIndex::build(cfg), cur, port)
    }

    /// Hop count of `src → dst` under `cfg`, read from its route table.
    fn hops(cfg: &NocConfig, src: NodeId, dst: NodeId) -> Result<usize, NocError> {
        RouteTable::build(cfg)?.hops(src, dst)
    }

    #[test]
    fn xy_routes_x_first() {
        let cfg = NocConfig::mesh(4);
        // from (0,0) to (2,2): East first
        assert_eq!(port(&cfg, 0, 10), Ok(Port::East));
        // from (2,0) to (2,2): x resolved, go South
        assert_eq!(port(&cfg, 2, 10), Ok(Port::South));
        assert_eq!(port(&cfg, 10, 10), Ok(Port::Local));
        // from (3,3) to (0,0)
        assert_eq!(port(&cfg, 15, 0), Ok(Port::West));
    }

    #[test]
    fn mesh_hop_count_is_manhattan() {
        let table = RouteTable::build(&NocConfig::mesh(5)).unwrap();
        for src in 0..25 {
            for dst in 0..25 {
                let c = Coord::of(src, 5);
                let d = Coord::of(dst, 5);
                assert_eq!(table.hops(src, dst), Ok(c.manhattan(d)));
            }
        }
    }

    #[test]
    fn bypass_shortens_long_row_route() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![BypassSegment {
                index: 0,
                from: 0,
                to: 7,
            }],
            vec![],
        );
        // (0,0) → (7,0): mesh = 7 hops, bypass = 1
        assert_eq!(port(&cfg, 0, 7), Ok(Port::BypassH));
        assert_eq!(hops(&cfg, 0, 7), Ok(1));
        // (1,0) → (7,0): mesh from 1 is 6; via West to 0 then bypass would
        // be 2, but dimension-ordered greedy at node 1 only looks at its own
        // attachment — node 1 has none, so it walks East.
        assert_eq!(port(&cfg, 1, 7), Ok(Port::East));
    }

    #[test]
    fn bypass_not_taken_when_worse() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![BypassSegment {
                index: 0,
                from: 0,
                to: 7,
            }],
            vec![],
        );
        // (0,0) → (2,0): bypass to 7 is worse; mesh East.
        assert_eq!(port(&cfg, 0, 2), Ok(Port::East));
    }

    #[test]
    fn vertical_bypass_used_after_x_resolved() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![],
            vec![BypassSegment {
                index: 3,
                from: 0,
                to: 6,
            }],
        );
        // (3,0) → (3,7): V bypass 0→6 then one mesh hop
        assert_eq!(port(&cfg, 3, 3 + 7 * 8), Ok(Port::BypassV));
        assert_eq!(hops(&cfg, 3, 3 + 7 * 8), Ok(2));
    }

    #[test]
    fn ring_wraps_and_switches_vc() {
        let cfg = NocConfig::rings(4);
        // (3,1) → (0,1): East over the wrap
        let cur = 4 + 3;
        assert_eq!(port(&cfg, cur, 4), Ok(Port::East));
        assert_eq!(next(&cfg, cur, Port::East), Ok(Some(4)));
        assert_eq!(next_vc(&cfg, cur, Port::East, 0), 1, "dateline crossing");
        assert_eq!(next_vc(&cfg, 4, Port::East, 0), 0, "no dateline mid-row");
        // full circle is k−... from (1,1) to (0,1): 3 hops around
        assert_eq!(hops(&cfg, 5, 4), Ok(3));
    }

    #[test]
    fn ring_rejects_cross_row() {
        let cfg = NocConfig::rings(4);
        assert_eq!(
            port(&cfg, 0, 5),
            Err(crate::NocError::CrossRowRingRoute { cur: 0, dst: 5 })
        );
    }

    #[test]
    fn walking_off_the_fabric_is_an_error_not_a_panic() {
        let cfg = NocConfig::mesh(4);
        // East off the right edge (node 3 = (3,0)).
        assert!(matches!(
            next(&cfg, 3, Port::East),
            Err(crate::NocError::OffMeshEdge { cur: 3, .. })
        ));
        // North off the top edge.
        assert!(matches!(
            next(&cfg, 1, Port::North),
            Err(crate::NocError::OffMeshEdge { cur: 1, .. })
        ));
        // West off the left edge.
        assert!(matches!(
            next(&cfg, 4, Port::West),
            Err(crate::NocError::OffMeshEdge { cur: 4, .. })
        ));
        // Bypass port at a node with no attachment.
        assert!(matches!(
            next(&cfg, 0, Port::BypassH),
            Err(crate::NocError::MissingBypassAttachment { cur: 0, .. })
        ));
    }

    /// Walks the route hop-by-hop through the public [`compute_route`] /
    /// [`next_node`], as the cycle-level network forwards a head flit:
    /// the route's summary and its forwarding nodes, or the walk's
    /// error. The oracle for the factored table.
    fn walk(
        cfg: &NocConfig,
        peers: &PeerIndex,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(RouteSummary, Vec<NodeId>), NocError> {
        let mut cur = src;
        let mut s = RouteSummary {
            hops: 0,
            bypass_hops: 0,
        };
        let mut nodes = Vec::new();
        while cur != dst {
            let port = compute_route(cfg, peers, cur, dst)?;
            nodes.push(cur);
            s.hops += 1;
            s.bypass_hops += matches!(port, Port::BypassH | Port::BypassV) as u32;
            cur =
                next_node(cfg, peers, cur, port)?.ok_or(NocError::RoutingLivelock { src, dst })?;
            if s.hops as usize > 4 * cfg.k * cfg.k {
                return Err(NocError::RoutingLivelock { src, dst });
            }
        }
        Ok((s, nodes))
    }

    /// Asserts the table agrees with the walker on every pair of `cfg`:
    /// summary (or the exact error) and the forwarding-node sequence.
    fn assert_table_matches_walker(cfg: &NocConfig) {
        let table = RouteTable::build(cfg).unwrap();
        let n = cfg.k * cfg.k;
        assert_eq!(table.num_legs(), n * cfg.k);
        for src in 0..n {
            for dst in 0..n {
                let walked = walk(cfg, table.peers(), src, dst);
                let nodes: Vec<_> = table.load_nodes(src, dst).collect();
                assert_eq!(
                    table.summary(src, dst),
                    walked.as_ref().map(|w| w.0).map_err(Clone::clone),
                    "{cfg:?} {src}->{dst}"
                );
                assert_eq!(
                    nodes,
                    walked.map(|w| w.1).unwrap_or_default(),
                    "{cfg:?} {src}->{dst}"
                );
            }
        }
    }

    /// Disjoint, valid bypass segments from raw `(index, a, b)` draws:
    /// each draw becomes the segment `min(a, b) → max(a, b)` on line
    /// `index` (all mod `k`), kept unless it is empty or touches a kept
    /// segment on the same line (overlap or a shared tap).
    fn disjoint_segments(k: usize, raw: &[(usize, usize, usize)]) -> Vec<BypassSegment> {
        let mut segs: Vec<BypassSegment> = Vec::new();
        for &(index, a, b) in raw {
            let (index, a, b) = (index % k, a % k, b % k);
            let (from, to) = (a.min(b), a.max(b));
            let clash = segs
                .iter()
                .any(|s| s.index == index && s.from <= to && from <= s.to);
            if from < to && !clash {
                segs.push(BypassSegment { index, from, to });
            }
        }
        segs
    }

    #[test]
    fn ring_hop_counts_are_directed_distances() {
        // Regression: table hop counts on rings must keep the directed
        // +x distance (b − a mod k) within a row and the cross-row error
        // outside it.
        let k = 4;
        let table = RouteTable::build(&NocConfig::rings(k)).unwrap();
        for row in 0..k {
            for a in 0..k {
                for b in 0..k {
                    let src = row * k + a;
                    let dst = row * k + b;
                    assert_eq!(table.hops(src, dst), Ok((b + k - a) % k));
                }
            }
        }
        assert_eq!(
            table.hops(0, 5),
            Err(NocError::CrossRowRingRoute { cur: 0, dst: 5 })
        );
    }

    /// The paper's radix with a bypass segment on every row and column:
    /// sampled pairs (the full 1M-pair sweep is too slow unoptimised).
    #[test]
    fn route_table_matches_walker_at_paper_radix() {
        let k = 32;
        let segs = |stride: usize| {
            (0..k)
                .map(|i| BypassSegment {
                    index: i,
                    from: i % stride,
                    to: k - 1 - i % (stride + 1),
                })
                .collect()
        };
        let cfg = NocConfig::with_bypass(k, segs(5), segs(7));
        let table = RouteTable::build(&cfg).unwrap();
        for src in (0..k * k).step_by(37) {
            for dst in (0..k * k).step_by(11) {
                let (s, nodes) = walk(&cfg, table.peers(), src, dst).unwrap();
                assert_eq!(table.summary(src, dst), Ok(s), "{src}->{dst}");
                assert!(table.load_nodes(src, dst).eq(nodes), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn route_table_rejects_invalid_config() {
        let mut cfg = NocConfig::mesh(4);
        cfg.vcs = 0;
        assert_eq!(
            RouteTable::build(&cfg).unwrap_err(),
            NocError::NoVirtualChannels
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random valid configs — several disjoint segments per row and
        /// column at arbitrary positions, plain meshes and rings — route
        /// every pair exactly as the hop-by-hop walker does.
        #[test]
        fn route_table_matches_walked_routes(
            k in 1usize..11,
            mode in 0u8..4,
            rows in proptest::collection::vec((0usize..16, 0usize..16, 0usize..16), 0..24),
            cols in proptest::collection::vec((0usize..16, 0usize..16, 0usize..16), 0..24),
        ) {
            let cfg = match mode {
                0 => NocConfig::mesh(k),
                1 => NocConfig::rings(k),
                _ => NocConfig::with_bypass(
                    k,
                    disjoint_segments(k, &rows),
                    disjoint_segments(k, &cols),
                ),
            };
            cfg.validate().unwrap();
            assert_table_matches_walker(&cfg);
        }
    }

    /// Brute-force reading of a segment list: the far end of the first
    /// segment on line `index` that taps position `pos`.
    fn scan_far_end(segs: &[BypassSegment], index: usize, pos: usize) -> Option<usize> {
        segs.iter()
            .find_map(|s| match (s.index == index, s.from == pos, s.to == pos) {
                (true, true, _) => Some(s.to),
                (true, _, true) => Some(s.from),
                _ => None,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Every router's index entries equal a scan of the config's
        /// segment lists, for random disjoint segment sets.
        #[test]
        fn peer_index_matches_segment_scan(
            k in 1usize..17,
            rows in proptest::collection::vec((0usize..16, 0usize..16, 0usize..16), 0..32),
            cols in proptest::collection::vec((0usize..16, 0usize..16, 0usize..16), 0..32),
        ) {
            let cfg = NocConfig::with_bypass(
                k,
                disjoint_segments(k, &rows),
                disjoint_segments(k, &cols),
            );
            cfg.validate().unwrap();
            let peers = PeerIndex::build(&cfg);
            for id in 0..k * k {
                let (x, y) = (id % k, id / k);
                let h = scan_far_end(&cfg.row_bypass, y, x).map(|px| y * k + px);
                let v = scan_far_end(&cfg.col_bypass, x, y).map(|py| py * k + x);
                prop_assert_eq!(peers.peer(id, Axis::Row), h, "router {}", id);
                prop_assert_eq!(peers.peer(id, Axis::Col), v, "router {}", id);
                prop_assert_eq!(peers.tapped(id), h.is_some() || v.is_some());
            }
        }
    }

    proptest! {
        #[test]
        fn routes_always_terminate_with_bypass(
            src in 0usize..64,
            dst in 0usize..64,
            row_to in 2usize..8,
            col_to in 2usize..8,
        ) {
            let cfg = NocConfig::with_bypass(
                8,
                vec![BypassSegment { index: 3, from: 0, to: row_to.min(7) }],
                vec![BypassSegment { index: 5, from: 1, to: col_to.min(7) }],
            );
            cfg.validate().unwrap();
            let h = hops(&cfg, src, dst).unwrap();
            let manhattan = Coord::of(src, 8).manhattan(Coord::of(dst, 8));
            prop_assert!(h <= manhattan, "bypass never lengthens a route");
        }
    }
}
