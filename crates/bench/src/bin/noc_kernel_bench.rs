//! Old-vs-new timing for the aggregation-traffic estimator.
//!
//! ```text
//! noc_kernel_bench [--reps N] [--quick]
//! ```
//!
//! Times the seed's O(E·hops) per-edge route walker (inlined below —
//! the library keeps it only as a `#[cfg(test)]` oracle) against the
//! shipped route-table kernel, and prints the speedup per workload. The
//! kernel is split into its two steps: the dimension-factored
//! [`RouteTable`] build (2k³ row/column legs, O(k³)) and the O(E + k³)
//! leg-binning pass that turns a tile's edges into a traffic estimate.
//! Rows run R-MAT graphs at a k=8 sub-array and at the paper's k=32
//! array (a Pubmed-sized graph, once with the bypass configuration the
//! engine's planner picks and once on the plain mesh). Every timed pair
//! is also checked for bit-identical estimates, so the bench doubles as
//! an end-to-end equivalence test over full-size graphs.
//!
//! Wall-clock only — simulated cycles are identical by construction.
//! `scripts/check.sh` runs this with `--quick` as an informational
//! step; it never gates.

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{Cell, Table};
use aurora_core::noc_model::{OnChipEstimate, TrafficProfile, DEFAULT_LINK_UTILISATION};
use aurora_graph::{generate, Csr};
use aurora_mapping::plan::{plan_bypass_into, PlanScratch, SegmentPlan};
use aurora_mapping::{degree_aware, VertexMapping};
use aurora_noc::routing::{compute_route, next_node};
use aurora_noc::{BypassSegment, NocConfig, NocError, Port, RouteTable, TopologyMode};
use std::time::Instant;

/// The seed's estimator: walk every edge's route hop by hop. Kept here
/// verbatim (plus the `finalize` folding it shares with the kernel) so
/// the bench measures the real replaced code path, not a strawman.
fn legacy_aggregation_traffic(
    cfg: &NocConfig,
    mapping: &VertexMapping,
    edges: impl Iterator<Item = (u32, u32)>,
    msg_words: usize,
    link_utilisation: f64,
) -> Result<OnChipEstimate, NocError> {
    let k = cfg.k;
    let flits_per_msg = msg_words.div_ceil(cfg.words_per_flit).max(1) as u64;
    let mut load = vec![0u64; k * k];
    let mut eject = vec![0u64; k * k];
    let mut flit_hops = 0u64;
    let mut bypass_hops = 0u64;
    let mut messages = 0u64;
    let mut total_hops = 0u64;

    for (u, v) in edges {
        if !mapping.range.contains(&u) {
            continue;
        }
        let src = mapping.pe_of(u);
        let dst = if mapping.range.contains(&v) {
            mapping.pe_of(v)
        } else {
            src % k
        };
        messages += 1;
        let mut cur = src;
        let mut guard = 0;
        while cur != dst {
            let port = compute_route(cfg, cur, dst)?;
            load[cur] += flits_per_msg;
            flit_hops += flits_per_msg;
            total_hops += 1;
            if matches!(port, Port::BypassH | Port::BypassV) {
                bypass_hops += flits_per_msg;
            }
            cur = next_node(cfg, cur, port)?.ok_or(NocError::RoutingLivelock { src, dst })?;
            guard += 1;
            if guard > 4 * k * k {
                return Err(NocError::RoutingLivelock { src, dst });
            }
        }
        eject[cur] += flits_per_msg;
    }

    for (node, e) in eject.iter().enumerate() {
        let width =
            1 + (cfg.h_bypass_peer(node).is_some() || cfg.v_bypass_peer(node).is_some()) as u64;
        load[node] += e.div_ceil(width.max(1));
    }

    if messages == 0 {
        return Ok(OnChipEstimate::default());
    }
    let (hot_router, max_router_load) = load
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(i, l)| (Some(i), l))
        .unwrap_or((None, 0));
    let kk = cfg.k as u64;
    let links = 4 * kk * (kk - 1)
        + 2 * (cfg.row_bypass.len() + cfg.col_bypass.len()) as u64
        + if cfg.mode == TopologyMode::Rings {
            kk
        } else {
            0
        };
    let bandwidth_bound = (flit_hops as f64 / (links as f64 * link_utilisation)).ceil() as u64;
    let avg_hops = total_hops as f64 / messages as f64;
    let cycles = bandwidth_bound.max(max_router_load) + avg_hops.ceil() as u64 + flits_per_msg;
    Ok(OnChipEstimate {
        cycles,
        flit_hops,
        messages,
        avg_hops,
        max_router_load,
        hot_router,
        bypass_hops,
    })
}

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
    .columns(&[
        "workload",
        "k",
        "noc",
        "edges",
        "walker ms",
        "build ms",
        "bin ms",
        "speedup",
    ]);

    for (name, k, flexible, g) in &workloads {
        // One tile spanning the whole graph: worst case for the walker
        // (every edge routed), steady state for the kernel.
        let k = *k;
        let n = g.num_vertices();
        let c_pe = n.div_ceil(k * k);
        let mapping = degree_aware::map(0..n as u32, &g.degrees(), k, c_pe);
        let cfg = if *flexible {
            planned_cfg(&mapping, g)
        } else {
            NocConfig::mesh(k)
        };

        let (walker_ms, walker) = time_ms(reps, || {
            legacy_aggregation_traffic(
                &cfg,
                &mapping,
                g.edges(),
                msg_words,
                DEFAULT_LINK_UTILISATION,
            )
            .expect("validated configs route every pair")
        });
        let (build_ms, table) = time_ms(reps, || {
            RouteTable::build(&cfg).expect("planned configs validate")
        });
        let (bin_ms, kernel) = time_ms(reps, || {
            TrafficProfile::bin(&table, &mapping.view(), g.edges())
                .expect("validated configs route every pair")
                .estimate(&cfg, msg_words, DEFAULT_LINK_UTILISATION)
        });
        assert_eq!(kernel, walker, "{name}: kernel must match the walker");

        t.row(vec![
            Cell::Str((*name).to_string()),
            Cell::UInt(k as u64),
            Cell::Str(if *flexible { "flex" } else { "mesh" }.to_string()),
            Cell::UInt(g.num_edges() as u64),
            Cell::float(walker_ms, 2),
            Cell::float(build_ms, 2),
            Cell::float(bin_ms, 2),
            Cell::ratio(walker_ms / (build_ms + bin_ms), 1),
        ]);
    }
    t.note("speedup = walker / (build + bin); estimates asserted bit-identical; wall-clock only, cycles unchanged by construction");
    t.print();
}
