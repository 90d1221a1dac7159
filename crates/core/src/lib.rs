//! The Aurora accelerator simulator — §III (architecture), §VI-A
//! (methodology).
//!
//! Following the paper's simulator: it "monitors the number of arithmetic
//! operations and the number of accesses to each memory hierarchy, taking
//! the degree-aware mapping algorithm, partition algorithm, and system
//! configuration parameters into account"; off-package time comes from the
//! DRAM model, on-package time from the NoC model, and the phases overlap
//! through double buffering.
//!
//! * [`config`] — the accelerator configuration (32 × 32 PEs @ 700 MHz,
//!   100 KB per-PE buffers, flexible NoC, policies and ablation switches);
//! * [`workflow`] — the adaptive workflow generator (§III-E step 3);
//! * [`instr`] — the instruction stream the controllers dispatch;
//! * [`noc_model`] — route-walking on-chip traffic estimation, validated
//!   against the cycle-level `aurora-noc` engine;
//! * [`engine`] — the per-subgraph execution pipeline (map → configure →
//!   execute A ∥ B → write back, overlapped with the next tile's load);
//! * [`graph_cache`] — the bounded `GraphSpec → Arc<Csr>` cache a
//!   long-running worker resolves repeated graphs through, and the one
//!   byte-budgeted store of warm tile state: the warm plans a repeated
//!   plan replays and the open sessions deltas apply to;
//! * [`functional`] — functional-mode execution: numeric results computed
//!   on the mapped PE array, validated against the reference executors;
//! * [`report`] — the simulation report (cycles, DRAM, NoC, energy).
//!
//! ```
//! use aurora_core::{AcceleratorConfig, AuroraSimulator, SimRequest};
//! use aurora_model::{LayerShape, ModelId};
//!
//! let req = SimRequest::builder(ModelId::Gcn)
//!     .config(AcceleratorConfig::small(8))
//!     .rmat(512, 4_000, 7)
//!     .layer(LayerShape::new(32, 16))
//!     .workload("demo")
//!     .build()
//!     .unwrap();
//! let sim = AuroraSimulator::new(req.config);
//! let report = sim.run(&req).unwrap();
//! assert!(report.total_cycles > 0);
//! assert!(report.energy_joules() > 0.0);
//! ```

mod arena;
pub mod config;
pub mod delta;
pub mod engine;
pub mod functional;
pub mod graph_cache;
pub mod host;
pub mod instr;
pub mod noc_model;
pub mod profile;
pub mod report;
pub mod request;
pub mod workflow;

pub use config::AcceleratorConfig;
pub use delta::{
    chain_digest, DeltaOutcome, GraphDelta, SessionCommand, SessionRequestBuilder, SimSession,
};
pub use engine::AuroraSimulator;
pub use graph_cache::{GraphCache, SessionError, SessionReply};
pub use instr::Instruction;
pub use profile::{Bound, BoundMix, LayerProfile, ProfileReport, TileAttribution};
pub use report::{LayerReport, NocReport, SimReport};
pub use request::{
    fnv1a64, GraphSpec, SimError, SimOptions, SimRequest, SimRequestBuilder, SimResponse,
    WireError, WIRE_VERSION,
};
pub use workflow::Workflow;

pub use host::{export_host_metrics, export_pool_metrics};

// Re-exported so simulator drivers can enable observability without
// depending on aurora-telemetry directly.
pub use aurora_telemetry::{
    expo, host_init, names as metric_names, span, Histogram, HostProfile, HostStage,
    MetricsSnapshot, Scope, Stage, Telemetry,
};
