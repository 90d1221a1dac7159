//! Experiment harness regenerating the paper's evaluation (§VI).
//!
//! Every table and figure has a binary (see DESIGN.md's experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_coverage` | Table I — model-coverage matrix |
//! | `table2_ops` | Table II — per-phase operations |
//! | `fig7_dram` | Fig. 7 — normalized DRAM accesses |
//! | `fig8_noc` | Fig. 8 — on-chip communication latency |
//! | `fig9_perf` | Fig. 9 — normalized execution time + speedup ranges |
//! | `fig10_energy` | Fig. 10 — normalized energy |
//! | `area_table` | §VI-F — area breakdown |
//! | `ablation_mapping` | §IV — degree-aware vs hashing mapping |
//! | `ablation_partition` | §V — dynamic vs fixed partitioning |
//!
//! The shared [`sweep`] runs the paper's protocol — a two-layer GCN over
//! the five datasets on Aurora and all five baselines, every design
//! normalised to the same multipliers/bandwidth/storage — and each binary
//! prints its figure's metric from those runs.

pub mod cli;
pub mod emit;
pub mod history;
pub mod host_fmt;
pub mod profile_fmt;
pub mod protocol;
pub mod sweep;
pub mod table;

pub use emit::{Cell, Table};
pub use protocol::{shapes_for, EvalProtocol};
pub use sweep::{run_standard, CellResult, SweepResult};
pub use table::{normalized_table, print_normalized};

use aurora_core::{AuroraSimulator, SimReport, SimRequest};
use aurora_graph::Csr;
use aurora_model::{LayerShape, ModelId};

/// One-shot Aurora run of an in-memory graph through the request API,
/// for the bench binaries. Panics on request-build or simulation errors.
pub fn run_inline(
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
        .unwrap_or_else(|e| panic!("simulation failed: {e}"));
    sim.run(&req)
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}
