//! Cycle-level flexible Network-on-Chip — §III-B/C, Figs. 2-4.
//!
//! Aurora's interconnect is a 2-D mesh augmented with one **bi-directional
//! bypassing link per row and per column**. Each bypassing link contains
//! link switches, so it can be segmented into shorter express links that
//! bridge long-distance communication, provide extra injection bandwidth
//! for high-degree vertices, or serve as the wrap-up link that closes each
//! row into a **ring** for weight-stationary dataflow in the vertex-update
//! sub-accelerator.
//!
//! The router (Fig. 4) is a conventional VC wormhole router — route
//! computation, VC allocation, switch allocation, VC buffers, crossbar —
//! with muxes at +x/+y that attach the bypass segments.
//!
//! The simulation is flit-level and cycle-driven: one flit per link per
//! cycle, credit-based backpressure, round-robin switch allocation, and
//! wormhole output ownership from head to tail.
//!
//! ```
//! use aurora_noc::{Network, NocConfig};
//!
//! let mut net = Network::new(NocConfig::mesh(4));
//! net.inject(0, 15, 32); // 32 words from corner to corner
//! net.drain(10_000).expect("delivered");
//! assert_eq!(net.stats().packets_delivered, 1);
//! assert_eq!(net.stats().avg_hops(), 6.0); // Manhattan distance on XY
//! ```

pub mod config;
pub mod error;
pub mod flit;
pub mod network;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use config::{BypassSegment, NocConfig, TopologyMode};
pub use error::{BypassKind, NocError};
pub use flit::{Flit, FlitKind, Packet, PacketId};
pub use network::Network;
pub use routing::{Axis, PeerIndex, RouteSummary, RouteTable};
pub use stats::NetworkStats;
pub use topology::{Coord, NodeId, Port};
pub use traffic::{run_pattern, run_pattern_with_budget, Pattern, PatternRun};
