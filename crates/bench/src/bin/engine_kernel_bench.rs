//! Wall-clock timing and steady-state allocation audit of the engine's
//! per-tile pipeline.
//!
//! ```text
//! engine_kernel_bench [--reps N] [--quick] [--alloc-budget N]
//! ```
//!
//! Runs GCN 64→32→16 on R-MAT workloads at the paper's k=8 sub-array
//! radix and prints the best-of-`reps` wall time per workload (`--quick`:
//! rmat-4k only, 3 reps). Report contents are pinned by the
//! `engine_golden` test; this binary only times them.
//!
//! With `--alloc-budget N` the run fails if a warmed-up run attributes
//! more than N heap allocations to the steady-state stages (tile
//! precompute + mapping + engine walk) — the regression gate
//! `scripts/check.sh` uses.

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{Cell, Table};
use aurora_bench::run_inline;
use aurora_core::{AcceleratorConfig, AuroraSimulator, SimReport};
use aurora_graph::{generate, Csr};
use aurora_model::{LayerShape, ModelId};
use aurora_telemetry::span;
use aurora_telemetry::Stage;
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn run(sim: &AuroraSimulator, g: &Csr, shapes: &[LayerShape]) -> SimReport {
    run_inline(sim, g, ModelId::Gcn, shapes, "engine_kernel_bench", 1.0)
}

/// Allocations a warmed-up run attributes to the steady-state
/// stages, per stage (tile precompute, mapping, engine walk).
fn steady_allocs(sim: &AuroraSimulator, g: &Csr, shapes: &[LayerShape]) -> [(Stage, u64); 3] {
    aurora_telemetry::alloc::set_alloc_profiling(true);
    // two warm-up runs: the first sizes the arena, the second settles
    // allocator reuse; the third run is the measured steady state
    run(sim, g, shapes);
    run(sim, g, shapes);
    let mark = span::mark();
    let start = Instant::now();
    run(sim, g, shapes);
    let profile = span::collect(&mark, start.elapsed());
    aurora_telemetry::alloc::set_alloc_profiling(false);
    [Stage::TilePrecompute, Stage::Mapping, Stage::EngineWalk]
        .map(|s| (s, profile.stage(s).map_or(0, |h| h.alloc_count)))
}

fn main() {
    let mut reps = 10usize;
    let mut quick = false;
    let mut alloc_budget: Option<u64> = None;
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => reps = args.parse("--reps"),
            "--quick" => {
                quick = true;
                reps = 3;
            }
            "--alloc-budget" => alloc_budget = Some(args.parse("--alloc-budget")),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let reps = reps.max(1);

    let k = 8usize;
    let shapes = [LayerShape::new(64, 32), LayerShape::new(32, 16)];
    let mut graphs = vec![(
        "rmat-4k",
        generate::rmat(4_096, 40_000, Default::default(), 7),
    )];
    if !quick {
        graphs.push((
            "rmat-16k",
            generate::rmat(16_384, 160_000, Default::default(), 9),
        ));
    }

    let sim = AuroraSimulator::new(AcceleratorConfig::small(k));

    let mut t = Table::new(format!(
        "engine_kernel_bench — k={k}, GCN 64→32→16, best of {reps}"
    ))
    .columns(&["workload", "edges", "ms"]);
    for (name, g) in &graphs {
        let ms = time_ms(reps, || run(&sim, g, &shapes));
        t.row(vec![
            Cell::Str((*name).to_string()),
            Cell::UInt(g.num_edges() as u64),
            Cell::float(ms, 2),
        ]);
    }
    t.note("host wall-clock only; report contents are pinned by the engine_golden test");
    t.print();

    // Steady-state allocation audit on the largest workload.
    let (_, g) = graphs.last().expect("at least one workload");
    let stages = steady_allocs(&sim, g, &shapes);
    let total: u64 = stages.iter().map(|(_, c)| c).sum();
    println!();
    println!("steady-state allocations (warmed arena, one run):");
    for (stage, count) in &stages {
        println!("  {stage:?}: {count}");
    }
    println!("  total: {total}");

    if let Some(budget) = alloc_budget {
        if total > budget {
            fail(&format!(
                "steady-state allocations {total} exceed the budget of {budget} \
                 (tile precompute + mapping + engine walk must stay arena-backed)"
            ));
        }
        println!("  within budget of {budget}");
    }
}
