//! Timing for the aggregation-traffic kernel.
//!
//! ```text
//! noc_kernel_bench [--reps N] [--quick]
//! ```
//!
//! Times the shipped route-table kernel in its two steps: the
//! dimension-factored [`RouteTable`] build (2k³ row/column legs, O(k³))
//! and the O(E + k³) leg-binning pass that turns a tile's edges into a
//! traffic estimate, and prints absolute times per workload. Rows run
//! R-MAT graphs at a k=8 sub-array and at the paper's k=32 array (a
//! Pubmed-sized graph, once with the bypass configuration the engine's
//! planner picks and once on the plain mesh). The kernel's bit-identity
//! with the seed's per-edge walker over that full-size k=32 graph is a
//! unit test in `aurora_core::noc_model`
//! (`kernel_matches_legacy_oracle_at_full_size`).
//!
//! Wall-clock only — simulated cycles are identical by construction.
//! `scripts/check.sh` runs this with `--quick` as an informational
//! step; it never gates.

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{Cell, Table};
use aurora_core::noc_model::{TrafficProfile, DEFAULT_LINK_UTILISATION};
use aurora_graph::{generate, Csr};
use aurora_mapping::plan::{plan_bypass_into, PlanScratch, SegmentPlan};
use aurora_mapping::{degree_aware, VertexMapping};
use aurora_noc::{BypassSegment, NocConfig, RouteTable};
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

/// The bypass configuration the engine's planner picks for `mapping`'s
/// traffic over `g` (a plain mesh when it plans no segment).
fn planned_cfg(mapping: &VertexMapping, g: &Csr) -> NocConfig {
    let k = mapping.k;
    let mut rows = vec![SegmentPlan::default(); k];
    let mut cols = vec![SegmentPlan::default(); k];
    let (nr, nc) = plan_bypass_into(
        &mapping.view(),
        g.edges(),
        &mut PlanScratch::new(),
        &mut rows,
        &mut cols,
    );
    if nr + nc == 0 {
        return NocConfig::mesh(k);
    }
    let seg = |s: &SegmentPlan| BypassSegment {
        index: s.index,
        from: s.from,
        to: s.to,
    };
    NocConfig::with_bypass(
        k,
        rows[..nr].iter().map(seg).collect(),
        cols[..nc].iter().map(seg).collect(),
    )
}

fn main() {
    let mut reps = 10usize;
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => reps = args.parse("--reps"),
            "--quick" => reps = 3,
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let reps = reps.max(1);

    let msg_words = 16;
    let rmat = |n, m, seed| generate::rmat(n, m, Default::default(), seed);
    let workloads = [
        ("rmat-4k", 8, false, rmat(4_096, 40_000, 7)),
        ("rmat-16k", 8, false, rmat(16_384, 160_000, 9)),
        ("rmat-pubmed", 32, true, rmat(19_717, 88_648, 5)),
        ("rmat-pubmed", 32, false, rmat(19_717, 88_648, 5)),
    ];

    let mut t = Table::new(format!(
        "noc_kernel_bench — {msg_words}-word messages, best of {reps}"
    ))
    .columns(&["workload", "k", "noc", "edges", "build ms", "bin ms"]);

    for (name, k, flexible, g) in &workloads {
        // One tile spanning the whole graph: every edge is binned.
        let k = *k;
        let n = g.num_vertices();
        let c_pe = n.div_ceil(k * k);
        let mapping = degree_aware::map(0..n as u32, &g.degrees(), k, c_pe);
        let cfg = if *flexible {
            planned_cfg(&mapping, g)
        } else {
            NocConfig::mesh(k)
        };

        let (build_ms, table) = time_ms(reps, || {
            RouteTable::build(&cfg).expect("planned configs validate")
        });
        let (bin_ms, _) = time_ms(reps, || {
            TrafficProfile::bin(&table, &mapping.view(), g.edges())
                .expect("validated configs route every pair")
                .estimate(msg_words, DEFAULT_LINK_UTILISATION)
        });

        t.row(vec![
            Cell::Str((*name).to_string()),
            Cell::UInt(k as u64),
            Cell::Str(if *flexible { "flex" } else { "mesh" }.to_string()),
            Cell::UInt(g.num_edges() as u64),
            Cell::float(build_ms, 2),
            Cell::float(bin_ms, 2),
        ]);
    }
    t.note("wall-clock only, cycles unchanged by construction");
    t.print();
}
