//! Golden digests of every graph generator's output.
//!
//! Each cell below is one synthesized [`Csr`], serialised to JSON and
//! hashed with FNV-1a/64 (the hash loop of `engine_golden.rs` and
//! `SimRequest::digest`). The committed fixture
//! `tests/fixtures/csr_golden.txt` maps each cell name to its digest.
//! The digests were recorded from the sort-based builder (one pair
//! buffer, a global sort and dedup), so they pin the exact graphs every
//! report, cached digest and benchmark cycle count is computed on: a
//! faster generator must reproduce them bit for bit.
//!
//! Why each cell is here:
//!
//! * `dataset/...` — all five datasets at `EvalProtocol::standard()`
//!   scales (Pubmed is at scale 1 there), the graphs every figure
//!   binary simulates.
//! * `rmat/16384/160000/s{1,2}` — perfbench's fixed `rmat-k8` requests.
//! * `rmat/{1,3,1000,19717}/...` — vertex counts that are not powers of
//!   two (the draw folds `u % n`), and the single-vertex graph whose
//!   every draw is a self loop.
//! * `rmat/{65536,65537,100000}/...` — vertex counts on both sides of
//!   2¹⁶, the largest `n` whose two endpoints pack into one `u32`, and
//!   one well past it. No dataset cell at the standard scales has more
//!   than 2¹⁶ vertices.
//! * `ring`, `star`, `grid`, `complete`, `erdos_renyi`, `symmetric` —
//!   one output of each `GraphBuilder` route.
//!
//! Upkeep needs no knob: on any mismatch the test prints the full
//! `cell digest` table as computed now. A generator change that is
//! meant to move these graphs also moves `engine_golden` and
//! `BENCH_seed.json`, and must say so in its change description.

use aurora_bench::EvalProtocol;
use aurora_graph::{generate, Csr, GraphBuilder};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/csr_golden.txt");

fn cells() -> Vec<(String, Csr)> {
    let mut cells = Vec::new();
    for p in EvalProtocol::standard() {
        let name = format!("dataset/{}/s{}", p.dataset.name(), p.scale);
        cells.push((name, p.spec().synthesize()));
    }
    for (n, m, seed) in [
        (16_384, 160_000, 1),
        (16_384, 160_000, 2),
        (1, 10, 5),
        (3, 40, 6),
        (1_000, 9_000, 7),
        (19_717, 88_648, 8),
        (65_536, 400_000, 9),
        (65_537, 400_000, 10),
        (100_000, 300_000, 11),
    ] {
        let g = generate::rmat(n, m, Default::default(), seed);
        cells.push((format!("rmat/{n}/{m}/s{seed}"), g));
    }
    cells.push(("ring/1000".into(), generate::ring(1_000)));
    cells.push(("star/500".into(), generate::star(500)));
    cells.push(("grid/17x23".into(), generate::grid(17, 23)));
    cells.push(("complete/40".into(), generate::complete(40)));
    cells.push((
        "erdos_renyi/700/5000/s3".into(),
        generate::erdos_renyi(700, 5_000, 3),
    ));
    let mut b = GraphBuilder::new(300);
    b.extend_edges((0..2_000u32).map(|i| ((i * 7 + 3) % 300, (i * 13) % 300)));
    cells.push(("symmetric/300".into(), b.build_symmetric()));
    cells
}

fn digest(g: &Csr) -> String {
    let json = serde_json::to_string(g).expect("csr serialises");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
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
fn generated_graphs_match_golden_digests() {
    let cells = cells();
    let golden = golden();
    let mut table = Vec::new();
    let mut failures = Vec::new();
    for (name, g) in &cells {
        let digest = digest(g);
        let expected = golden.get(name);
        if expected != Some(&digest) {
            failures.push(format!(
                "{name}: {digest}, fixture {}",
                expected.map_or("<missing>", String::as_str)
            ));
        }
        table.push(format!("{name} {digest}"));
    }
    let stale: Vec<&String> = golden
        .keys()
        .filter(|name| cells.iter().all(|(c, _)| c != *name))
        .collect();
    if !failures.is_empty() || !stale.is_empty() {
        println!("current cell → digest table (paste into tests/fixtures/csr_golden.txt):");
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
