//! The cycle-driven network engine.

use crate::config::{NocConfig, TopologyMode};
use crate::error::NocError;
use crate::flit::{Flit, Packet, PacketId};
use crate::router::Router;
use crate::routing::{compute_route, next_vc, Axis, PeerIndex};
use crate::stats::NetworkStats;
use crate::topology::{NodeId, Port};
use std::collections::VecDeque;

/// A `k × k` flexible NoC instance.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NocConfig,
    /// `cfg`'s bypass attachments, read by every head flit's route.
    peers: PeerIndex,
    routers: Vec<Router>,
    /// `links[node][port] = (downstream node, downstream input port)`.
    links: Vec<[Option<(NodeId, Port)>; Port::COUNT]>,
    /// Unbounded per-node injection queues (PE → router back-pressure is
    /// visible as queue growth).
    inject_q: Vec<VecDeque<Flit>>,
    /// VC currently assigned to the packet being injected at each node.
    inject_vc: Vec<Option<usize>>,
    next_packet: PacketId,
    cycle: u64,
    stats: NetworkStats,
    /// Exact per-packet latencies, recorded at tail ejection.
    latencies: Vec<u64>,
}

impl Network {
    /// Builds and validates the network.
    ///
    /// # Panics
    /// Panics when `cfg` fails validation. Use [`Network::try_new`] to
    /// handle malformed configurations gracefully.
    pub fn new(cfg: NocConfig) -> Self {
        Self::try_new(cfg).expect("invalid NoC config")
    }

    /// Builds the network, reporting a malformed configuration as a
    /// [`NocError`] instead of panicking.
    pub fn try_new(cfg: NocConfig) -> Result<Self, NocError> {
        cfg.validate()?;
        let k = cfg.k;
        let n = k * k;
        let peers = PeerIndex::build(&cfg);
        let mut links = vec![[None; Port::COUNT]; n];
        for (id, node_links) in links.iter_mut().enumerate() {
            let (x, y) = (id % k, id / k);
            if y > 0 {
                node_links[Port::North.index()] = Some((id - k, Port::South));
            }
            if y + 1 < k {
                node_links[Port::South.index()] = Some((id + k, Port::North));
            }
            if x + 1 < k {
                node_links[Port::East.index()] = Some((id + 1, Port::West));
            } else if cfg.mode == TopologyMode::Rings {
                // wrap-up link over the row bypass wire
                node_links[Port::East.index()] = Some((y * k, Port::West));
            }
            if x > 0 {
                node_links[Port::West.index()] = Some((id - 1, Port::East));
            }
            if let Some(peer) = peers.peer(id, Axis::Row) {
                node_links[Port::BypassH.index()] = Some((peer, Port::BypassH));
            }
            if let Some(peer) = peers.peer(id, Axis::Col) {
                node_links[Port::BypassV.index()] = Some((peer, Port::BypassV));
            }
        }
        Ok(Self {
            routers: (0..n).map(|_| Router::new(cfg.vcs)).collect(),
            links,
            inject_q: vec![VecDeque::new(); n],
            inject_vc: vec![None; n],
            next_packet: 0,
            cycle: 0,
            stats: NetworkStats::new(n),
            latencies: Vec::new(),
            cfg,
            peers,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Queues a packet carrying `payload_words` f64 words from `src` to
    /// `dst`. Returns its id.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, payload_words: usize) -> PacketId {
        assert!(src < self.routers.len(), "src out of range");
        assert!(dst < self.routers.len(), "dst out of range");
        let id = self.next_packet;
        self.next_packet += 1;
        let p = Packet::for_payload(id, src, dst, payload_words, self.cfg.words_per_flit);
        for f in p.flits(self.cycle) {
            self.inject_q[src].push_back(f);
        }
        id
    }

    /// Flits still anywhere in the system.
    pub fn in_flight(&self) -> usize {
        self.inject_q.iter().map(|q| q.len()).sum::<usize>()
            + self.routers.iter().map(|r| r.occupancy()).sum::<usize>()
    }

    /// Advances one cycle. Routing failures — a cross-row injection in
    /// ring mode, or a route stepping off a mis-segmented fabric — come
    /// back as a [`NocError`] instead of a panic.
    pub fn step(&mut self) -> Result<(), NocError> {
        let n = self.routers.len();
        let vcs = self.cfg.vcs;
        let depth = self.cfg.vc_depth;

        // 1. Injection: move ≤ 1 flit/node from the PE into the local port.
        for node in 0..n {
            let Some(&flit) = self.inject_q[node].front() else {
                continue;
            };
            let li = Port::Local.index();
            let vc = match self.inject_vc[node] {
                Some(vc) => vc,
                None => {
                    debug_assert!(flit.kind.is_head(), "packet must start with a head flit");
                    // pick the first VC with room for the head flit
                    match (0..vcs).find(|&v| self.routers[node].inputs[li][v].queue.len() < depth) {
                        Some(v) => v,
                        None => continue, // all VCs full: back-pressure
                    }
                }
            };
            if self.routers[node].inputs[li][vc].queue.len() < depth {
                let flit = self.inject_q[node].pop_front().unwrap();
                let is_tail = flit.kind.is_tail();
                self.routers[node].inputs[li][vc].queue.push_back(flit);
                self.inject_vc[node] = if is_tail { None } else { Some(vc) };
            }
        }

        // 2. Route computation for head flits at VC queue heads.
        for node in 0..n {
            for p in 0..Port::COUNT {
                for v in 0..vcs {
                    let vc = &mut self.routers[node].inputs[p][v];
                    if vc.route.is_none() {
                        if let Some(f) = vc.queue.front() {
                            if f.kind.is_head() {
                                vc.route =
                                    Some(compute_route(&self.cfg, &self.peers, node, f.dst)?);
                            }
                        }
                    }
                }
            }
        }

        // 3. Snapshot downstream occupancy for credit checks.
        let occupancy: Vec<Vec<Vec<usize>>> = self
            .routers
            .iter()
            .map(|r| {
                r.inputs
                    .iter()
                    .map(|p| p.iter().map(|vc| vc.queue.len()).collect())
                    .collect()
            })
            .collect();

        // 4. Switch allocation + traversal planning.
        struct Move {
            node: NodeId,
            in_port: usize,
            in_vc: usize,
            out: Port,
            downstream: Option<(NodeId, Port, usize)>,
        }
        let mut moves: Vec<Move> = Vec::new();
        for node in 0..n {
            for out in Port::ALL {
                let Some((p, v)) = self.routers[node].allocate(out) else {
                    continue;
                };
                let downstream = if out == Port::Local {
                    None
                } else {
                    let (dn, dport) = self.links[node][out.index()]
                        .ok_or(NocError::MissingLink { node, port: out })?;
                    let dvc = next_vc(&self.cfg, node, out, v);
                    if occupancy[dn][dport.index()][dvc] >= depth {
                        // no credit: the winning flit stalls this cycle
                        self.stats.per_router_stalls[node] += 1;
                        continue;
                    }
                    Some((dn, dport, dvc))
                };
                // Establish wormhole ownership on head flits.
                let head_kind = self.routers[node].inputs[p][v].queue.front().unwrap().kind;
                if head_kind.is_head() {
                    self.routers[node].out_owner[out.index()] = Some((p, v));
                }
                moves.push(Move {
                    node,
                    in_port: p,
                    in_vc: v,
                    out,
                    downstream,
                });
            }
        }

        // 5. Execute traversals.
        for m in moves {
            let flit = {
                let vc = &mut self.routers[m.node].inputs[m.in_port][m.in_vc];
                let mut f = vc.queue.pop_front().unwrap();
                if f.kind.is_tail() {
                    vc.route = None;
                    self.routers[m.node].out_owner[m.out.index()] = None;
                }
                f.hops += 1;
                f
            };
            self.routers[m.node].forwarded += 1;
            self.stats.per_router_forwarded[m.node] += 1;
            if matches!(m.out, Port::BypassH | Port::BypassV) {
                self.stats.bypass_traversals += 1;
            }
            match m.downstream {
                None => {
                    // Ejection at the destination PE.
                    debug_assert_eq!(flit.dst, m.node, "ejected at wrong node");
                    self.stats.flits_delivered += 1;
                    self.stats.total_hops += flit.hops as u64 - 1; // ejection isn't a hop
                    if flit.kind.is_tail() {
                        self.stats.packets_delivered += 1;
                        let lat = self.cycle + 1 - flit.injected_at;
                        self.stats.total_packet_latency += lat;
                        self.stats.max_packet_latency = self.stats.max_packet_latency.max(lat);
                        self.latencies.push(lat);
                    }
                }
                Some((dn, dport, dvc)) => {
                    self.routers[dn].inputs[dport.index()][dvc]
                        .queue
                        .push_back(flit);
                }
            }
        }

        self.cycle += 1;
        self.stats.cycles = self.cycle;
        Ok(())
    }

    /// Runs until all traffic is delivered or `max_cycles` elapse.
    /// Returns `Ok(cycles run)` on drain; a timeout yields
    /// [`NocError::Saturated`] carrying the in-flight flit count and the
    /// most-stalled router, and routing failures propagate from
    /// [`Network::step`].
    pub fn drain(&mut self, max_cycles: u64) -> Result<u64, NocError> {
        let start = self.cycle;
        while self.in_flight() > 0 {
            if self.cycle - start >= max_cycles {
                return Err(NocError::Saturated {
                    residual: self.in_flight(),
                    hot_router: self.stats.hottest_router(),
                });
            }
            self.step()?;
        }
        Ok(self.cycle - start)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Mean link utilisation so far: flit-hops delivered over link-cycles
    /// available (0 when nothing ran).
    pub fn utilization(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        let links = {
            let k = self.cfg.k as u64;
            let mesh = 4 * k * (k - 1);
            let bypass = 2 * (self.cfg.row_bypass.len() + self.cfg.col_bypass.len()) as u64;
            let wrap = if self.cfg.mode == TopologyMode::Rings {
                k
            } else {
                0
            };
            mesh + bypass + wrap
        };
        self.stats.total_hops as f64 / (links as f64 * self.cycle as f64)
    }

    /// `(p50, p90, p99)` packet-latency percentiles over everything
    /// delivered so far (zeros when nothing was delivered).
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        if self.latencies.is_empty() {
            return (0, 0, 0);
        }
        let mut l = self.latencies.clone();
        l.sort_unstable();
        let pick = |p: f64| l[((l.len() - 1) as f64 * p).round() as usize];
        (pick(0.50), pick(0.90), pick(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BypassSegment;
    use proptest::prelude::*;

    #[test]
    fn single_packet_crosses_mesh() {
        let mut net = Network::new(NocConfig::mesh(4));
        net.inject(0, 15, 4); // 1 flit, 6 hops
        let cycles = net.drain(1_000).unwrap();
        let s = net.stats();
        assert_eq!(s.packets_delivered, 1);
        assert_eq!(s.flits_delivered, 1);
        assert_eq!(s.total_hops, 6);
        assert!(cycles >= 7, "at least hops + injection");
        assert!(s.max_packet_latency >= 7);
        assert!(s.max_packet_latency <= 20, "uncontended latency small");
    }

    #[test]
    fn local_delivery_zero_hops() {
        let mut net = Network::new(NocConfig::mesh(2));
        net.inject(3, 3, 1);
        net.drain(100).unwrap();
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.stats().total_hops, 0);
    }

    #[test]
    fn multi_flit_packet_delivered_in_order() {
        let mut net = Network::new(NocConfig::mesh(3));
        net.inject(0, 8, 20); // 5 flits
        net.drain(1_000).unwrap();
        let s = net.stats();
        assert_eq!(s.packets_delivered, 1);
        assert_eq!(s.flits_delivered, 5);
    }

    #[test]
    fn contention_serialises() {
        // Two single-flit packets from different sources into one sink.
        let mut uncontended = Network::new(NocConfig::mesh(4));
        uncontended.inject(0, 3, 4);
        uncontended.drain(100).unwrap();
        let solo = uncontended.stats().max_packet_latency;

        let mut net = Network::new(NocConfig::mesh(4));
        for src in [0, 4, 8, 12] {
            net.inject(src, 3, 4);
        }
        net.drain(1_000).unwrap();
        assert_eq!(net.stats().packets_delivered, 4);
        assert!(
            net.stats().max_packet_latency > solo,
            "sharing the column into node 3 must add queueing delay"
        );
    }

    #[test]
    fn bypass_reduces_latency_and_is_counted() {
        let far = 7; // (7,0)
        let mut mesh = Network::new(NocConfig::mesh(8));
        mesh.inject(0, far, 4);
        mesh.drain(100).unwrap();
        let mesh_lat = mesh.stats().max_packet_latency;

        let cfg = NocConfig::with_bypass(
            8,
            vec![BypassSegment {
                index: 0,
                from: 0,
                to: 7,
            }],
            vec![],
        );
        let mut byp = Network::new(cfg);
        byp.inject(0, far, 4);
        byp.drain(100).unwrap();
        assert!(byp.stats().bypass_traversals > 0);
        assert!(
            byp.stats().max_packet_latency < mesh_lat,
            "bypass {} !< mesh {}",
            byp.stats().max_packet_latency,
            mesh_lat
        );
        assert_eq!(byp.stats().total_hops, 1);
    }

    #[test]
    fn ring_mode_circulates() {
        let mut net = Network::new(NocConfig::rings(4));
        // (2,1) → (1,1): must go East around the wrap: 3 hops
        let src = 4 + 2;
        let dst = 4 + 1;
        net.inject(src, dst, 4);
        net.drain(100).unwrap();
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.stats().total_hops, 3);
    }

    #[test]
    fn vc_buffers_never_overflow() {
        let cfg = NocConfig {
            vc_depth: 2,
            ..NocConfig::mesh(4)
        };
        let mut net = Network::new(cfg);
        for s in 0..16usize {
            for _ in 0..4 {
                net.inject(s, 15 - s, 8);
            }
        }
        let depth = net.cfg.vc_depth;
        for _ in 0..2_000 {
            net.step().unwrap();
            for r in &net.routers {
                for p in &r.inputs {
                    for vc in p {
                        assert!(vc.queue.len() <= depth, "VC overflow");
                    }
                }
            }
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "network failed to drain");
        assert_eq!(net.stats().packets_delivered, 64);
    }

    #[test]
    fn wormhole_stress_long_packets_tiny_buffers() {
        // depth-1 VCs, 16-flit packets, many crossing flows: the sternest
        // wormhole test — XY routing must still drain without deadlock and
        // without losing flits
        let cfg = NocConfig {
            vc_depth: 1,
            vcs: 2,
            ..NocConfig::mesh(4)
        };
        let mut net = Network::new(cfg);
        for s in 0..16usize {
            net.inject(s, 15 - s, 64); // 16 flits each
            net.inject(s, (s + 7) % 16, 64);
        }
        net.drain(2_000_000).expect("no deadlock");
        assert_eq!(net.stats().packets_delivered, 32);
        assert_eq!(net.stats().flits_delivered, 32 * 16);
    }

    #[test]
    fn try_new_rejects_malformed_bypass_config() {
        // Overlapping segments on row 0: caught by validation up front,
        // never reaching route computation.
        let cfg = NocConfig::with_bypass(
            8,
            vec![
                BypassSegment {
                    index: 0,
                    from: 0,
                    to: 4,
                },
                BypassSegment {
                    index: 0,
                    from: 4,
                    to: 7,
                },
            ],
            vec![],
        );
        assert!(matches!(
            Network::try_new(cfg),
            Err(NocError::SegmentOverlap { .. })
        ));
    }

    #[test]
    fn cross_row_ring_injection_errors_instead_of_panicking() {
        let mut net = Network::new(NocConfig::rings(4));
        net.inject(0, 5, 4); // (0,0) → (1,1): crosses rows
        let err = net.drain(1_000).unwrap_err();
        assert_eq!(err, NocError::CrossRowRingRoute { cur: 0, dst: 5 });
    }

    #[test]
    fn drain_timeout_reports_residual_and_hot_router() {
        let mut net = Network::new(NocConfig::mesh(4));
        for _ in 0..8 {
            net.inject(0, 15, 64);
        }
        // 2 cycles is nowhere near enough: must saturate, not panic.
        match net.drain(2) {
            Err(NocError::Saturated {
                residual,
                hot_router: _,
            }) => assert!(residual > 0),
            other => panic!("expected saturation, got {other:?}"),
        }
        // The same network finishes the job with a real budget.
        net.drain(100_000).unwrap();
    }

    #[test]
    fn injection_rejects_out_of_range() {
        let mut net = Network::new(NocConfig::mesh(2));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.inject(0, 4, 1);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn percentiles_order_and_bounds() {
        let mut net = Network::new(NocConfig::mesh(4));
        for s in 0..16usize {
            net.inject(s, 15 - s, 8);
        }
        net.drain(100_000).unwrap();
        let (p50, p90, p99) = net.latency_percentiles();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= net.stats().max_packet_latency);
        assert!(p50 > 0);
    }

    #[test]
    fn utilization_bounded_and_positive() {
        let mut net = Network::new(NocConfig::mesh(4));
        assert_eq!(net.utilization(), 0.0);
        for s in 0..16usize {
            net.inject(s, 15 - s, 16);
        }
        net.drain(100_000).unwrap();
        let u = net.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn hotspot_shows_in_router_load() {
        let mut net = Network::new(NocConfig::mesh(4));
        // all traffic through the column of node 5
        for _ in 0..10 {
            net.inject(4, 6, 4);
        }
        net.drain(10_000).unwrap();
        assert!(net.stats().load_imbalance() > 1.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_traffic_fully_delivered(
            pairs in proptest::collection::vec((0usize..16, 0usize..16, 1usize..24), 1..60),
            use_bypass in proptest::bool::ANY,
        ) {
            let cfg = if use_bypass {
                NocConfig::with_bypass(
                    4,
                    vec![BypassSegment { index: 1, from: 0, to: 3 }],
                    vec![BypassSegment { index: 2, from: 0, to: 3 }],
                )
            } else {
                NocConfig::mesh(4)
            };
            let mut net = Network::new(cfg);
            let mut flits = 0u64;
            for (s, d, w) in &pairs {
                net.inject(*s, *d, *w);
                flits += (*w).div_ceil(4).max(1) as u64;
            }
            net.drain(200_000).expect("network must drain");
            prop_assert_eq!(net.stats().packets_delivered, pairs.len() as u64);
            prop_assert_eq!(net.stats().flits_delivered, flits);
        }
    }
}
