//! Golden report digests for the engine core.
//!
//! Every cell below is one simulation whose whole `SimReport` is
//! serialised to JSON and hashed with FNV-1a/64 (the hash loop of
//! `SimRequest::digest`). The committed fixture
//! `tests/fixtures/engine_golden.txt` maps each cell name to its digest.
//! The digests were recorded from the pre-arena per-tile-`Vec` engine
//! core, and the arena core matched them at 1, 2 and 4 pool threads
//! before that core was deleted. The fixture is now the oracle: any
//! change to a cycle count, a byte count, a float or a field of the
//! report shows up as a digest mismatch.
//!
//! Why each cell is here:
//!
//! * `grid/...` — k ∈ {2, 4, 8} × NoC (flexible bypass fabric or plain
//!   mesh) × mapping policy × {GCN, GIN, SAGE-mean} on one 512-vertex
//!   R-MAT graph, two layers 32→16→8. This covers the radix, routing,
//!   Algorithm 1 and model-shape axes (single- and two-accelerator
//!   workflows) of the per-tile pipeline.
//! * `full/rmat-4k`, `full/rmat-16k` — full-size graphs at k=8, GCN
//!   64→32→16: many tiles per layer, so the run's NoC-config interner
//!   and the per-tile slabs are exercised at scale.
//! * `paper/pubmed-k32/Gcn` — the paper's own 32×32 configuration
//!   (`AcceleratorConfig::default()`) on Pubmed, GCN F→16→classes at
//!   input density 1.0: the request shape of perfbench's `paper-k32`.
//!   Per-tile bypass plans give each tile its own k=32 route table, so
//!   this pins the paper-scale route tables and traffic kernels.
//! * `full/rmat-4k/k32/mesh/Gcn` — the same radix with `flexible_noc`
//!   off: the plain-mesh routing path at k=32.
//! * `batch/...` — `try_simulate_batch` over four small graphs: the
//!   resident-weight refund and the merged profile.
//! * `flush/rmat-15k/k8/buf1k/Gcn` — 1 KiB PE buffers cut the graph
//!   into 117 tiles per layer whose bypass plans intern exactly 64
//!   distinct NoC configs. The second layer has the first one's `f_in`,
//!   so its tiles reuse the first layer's slots (and bin again). The
//!   third layer's new `f_in` brings new plans, and its first tile
//!   overflows the 64-slot route-table cache, which flushes.
//!
//! Every cell is checked at 1, 2 and 4 worker threads (reports must not
//! depend on the pool size). A separate test reruns one cell three times
//! back to back on one simulator, so a warmed-up thread-local arena can
//! never leak state from one run into the next.
//!
//! Upkeep needs no knob: on any mismatch the test prints the full
//! `cell digest` table as computed now. After a deliberate model change,
//! check that the change is meant to move the listed cells, paste the
//! table into the fixture, and say so in the change description.

use aurora_bench::run_inline;
use aurora_core::{AcceleratorConfig, AuroraSimulator};
use aurora_graph::{generate, Csr, Dataset};
use aurora_mapping::MappingPolicy;
use aurora_model::{LayerShape, ModelId};
use rayon::pool::ThreadPool;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/engine_golden.txt");

/// The pool sizes every cell is checked at.
const THREADS: [usize; 3] = [1, 2, 4];

/// The cell the warm-arena rerun test repeats.
const WARM_CELL: &str = "grid/k4/flex/DegreeAware/Gcn";

/// The cell that overflows the route-table cache after a layer that
/// reuses every slot of the one before.
const FLUSH_CELL: &str = "flush/rmat-15k/k8/buf1k/Gcn";

/// One simulation: a single graph through `run`, or several graphs as
/// one `try_simulate_batch`.
struct Cell {
    name: String,
    cfg: AcceleratorConfig,
    model: ModelId,
    shapes: Vec<LayerShape>,
    graphs: Vec<Csr>,
}

impl Cell {
    fn digest(&self, sim: &AuroraSimulator) -> String {
        let mut report = match self.graphs.as_slice() {
            [g] => run_inline(sim, g, self.model, &self.shapes, "golden", 1.0),
            batch => {
                let refs: Vec<&Csr> = batch.iter().collect();
                sim.try_simulate_batch(&refs, self.model, &self.shapes, "golden")
                    .expect("batch runs")
            }
        };
        // host wall-clock (present only under AURORA_HOST_PROFILE=1) is
        // not model output
        report.host_profile = None;
        let json = serde_json::to_string(&report).expect("report serialises");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in json.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

fn cells() -> Vec<Cell> {
    let grid = generate::rmat(512, 512 * 6, Default::default(), 11);
    let mut cells = Vec::new();
    for k in [2usize, 4, 8] {
        for flexible_noc in [true, false] {
            for policy in [MappingPolicy::DegreeAware, MappingPolicy::Hashing] {
                for model in [ModelId::Gcn, ModelId::Gin, ModelId::SageMean] {
                    let noc = if flexible_noc { "flex" } else { "mesh" };
                    cells.push(Cell {
                        name: format!("grid/k{k}/{noc}/{policy:?}/{model:?}"),
                        cfg: AcceleratorConfig {
                            flexible_noc,
                            mapping_policy: policy,
                            ..AcceleratorConfig::small(k)
                        },
                        model,
                        shapes: vec![LayerShape::new(32, 16), LayerShape::new(16, 8)],
                        graphs: vec![grid.clone()],
                    });
                }
            }
        }
    }
    for (name, n, m, seed) in [
        ("rmat-4k", 4_096, 40_000, 7),
        ("rmat-16k", 16_384, 160_000, 9),
    ] {
        cells.push(Cell {
            name: format!("full/{name}/k8/Gcn"),
            cfg: AcceleratorConfig::small(8),
            model: ModelId::Gcn,
            shapes: vec![LayerShape::new(64, 32), LayerShape::new(32, 16)],
            graphs: vec![generate::rmat(n, m, Default::default(), seed)],
        });
    }
    let pubmed = Dataset::Pubmed.spec();
    cells.push(Cell {
        name: "paper/pubmed-k32/Gcn".into(),
        cfg: AcceleratorConfig::default(),
        model: ModelId::Gcn,
        shapes: vec![
            LayerShape::new(pubmed.feature_dim, 16),
            LayerShape::new(16, pubmed.classes.max(2)),
        ],
        graphs: vec![pubmed.synthesize()],
    });
    cells.push(Cell {
        name: "full/rmat-4k/k32/mesh/Gcn".into(),
        cfg: AcceleratorConfig {
            flexible_noc: false,
            ..AcceleratorConfig::default()
        },
        model: ModelId::Gcn,
        shapes: vec![LayerShape::new(64, 32), LayerShape::new(32, 16)],
        graphs: vec![generate::rmat(4_096, 40_000, Default::default(), 7)],
    });
    let mut flush_cfg = AcceleratorConfig::small(8);
    flush_cfg.pe.buffer_bytes = 1024;
    cells.push(Cell {
        name: FLUSH_CELL.into(),
        cfg: flush_cfg,
        model: ModelId::Gcn,
        shapes: vec![
            LayerShape::new(32, 32),
            LayerShape::new(32, 16),
            LayerShape::new(16, 8),
        ],
        graphs: vec![generate::rmat(14_880, 148_800, Default::default(), 9)],
    });
    cells.push(Cell {
        name: "batch/k4/Gcn/x4".into(),
        cfg: AcceleratorConfig::small(4),
        model: ModelId::Gcn,
        shapes: vec![LayerShape::new(64, 32)],
        graphs: (0..4)
            .map(|s| generate::rmat(96, 700, Default::default(), s))
            .collect(),
    });
    cells
}

/// The committed `cell → digest` table (`#` lines are comments).
fn golden() -> BTreeMap<String, String> {
    FIXTURE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (cell, digest) = l.split_once(' ').expect("`cell digest` line");
            (cell.to_string(), digest.trim().to_string())
        })
        .collect()
}

#[test]
fn engine_reports_match_golden_digests() {
    let cells = cells();
    let golden = golden();
    let mut table = Vec::new();
    let mut failures = Vec::new();
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        for cell in &cells {
            let sim = AuroraSimulator::new(cell.cfg);
            let digest = pool.install(|| cell.digest(&sim));
            let expected = golden.get(&cell.name);
            if expected != Some(&digest) {
                failures.push(format!(
                    "{} at {threads} threads: {digest}, fixture {}",
                    cell.name,
                    expected.map_or("<missing>", String::as_str)
                ));
            }
            if threads == THREADS[0] {
                table.push(format!("{} {digest}", cell.name));
            }
        }
    }
    let stale: Vec<&String> = golden
        .keys()
        .filter(|name| cells.iter().all(|c| &c.name != *name))
        .collect();
    if !failures.is_empty() || !stale.is_empty() {
        println!("current cell → digest table (paste into tests/fixtures/engine_golden.txt):");
        for line in &table {
            println!("{line}");
        }
        panic!(
            "{} digest mismatch(es), {} stale fixture cell(s): {failures:#?} {stale:?}",
            failures.len(),
            stale.len()
        );
    }
}

/// Back-to-back runs on one simulator (the serving steady state) must
/// keep the warmed-up arena invisible: the same digest every run.
#[test]
fn warm_arena_reruns_match_golden_digest() {
    let cell = cells()
        .into_iter()
        .find(|c| c.name == WARM_CELL)
        .expect("warm cell exists");
    let expected = golden().remove(WARM_CELL).expect("warm cell in fixture");
    let sim = AuroraSimulator::new(cell.cfg);
    for run in 0..3 {
        assert_eq!(
            cell.digest(&sim),
            expected,
            "run {run} of {WARM_CELL} on a warm arena drifted"
        );
    }
}

/// The flush cell must keep covering what it is there for: more route
/// tables than the 64-slot cache holds.
#[test]
fn flush_cell_overflows_the_route_table_cache() {
    let cell = cells()
        .into_iter()
        .find(|c| c.name == FLUSH_CELL)
        .expect("flush cell exists");
    let sim = AuroraSimulator::new(cell.cfg);
    let report = run_inline(
        &sim,
        &cell.graphs[0],
        cell.model,
        &cell.shapes,
        "golden",
        1.0,
    );
    let p = &report.profile;
    assert!(
        p.route_table_builds > 64,
        "{} route-table builds: the cache never flushed",
        p.route_table_builds
    );
}
