//! Microbenchmarks of the mapping path (§IV): the decision must stay far
//! below the tile-execution time it overlaps with.

use aurora_graph::generate;
use aurora_mapping::plan::{plan_bypass_into, PlanScratch, SegmentPlan};
use aurora_mapping::{degree_aware, hashing, nqueen};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_mapping(c: &mut Criterion) {
    let k = 32;
    let n = 8192;
    let g = generate::rmat(n, 8 * n, Default::default(), 7);
    let degrees = g.degrees();

    c.bench_function("nqueen_solve_32", |b| {
        b.iter(|| nqueen::solve(black_box(32)).unwrap())
    });

    c.bench_function("degree_aware_map_8k_vertices", |b| {
        b.iter(|| degree_aware::map(black_box(0..n as u32), &degrees, k, 16))
    });

    c.bench_function("hashing_map_8k_vertices", |b| {
        b.iter(|| hashing::map(black_box(0..n as u32), &degrees, k, 16))
    });

    let mapping = degree_aware::map(0..n as u32, &degrees, k, 16);
    let mut scratch = PlanScratch::new();
    let mut rows = vec![SegmentPlan::default(); k];
    let mut cols = vec![SegmentPlan::default(); k];
    c.bench_function("plan_bypass_8k_vertices", |b| {
        b.iter(|| {
            plan_bypass_into(
                black_box(&mapping.view()),
                g.edges(),
                &mut scratch,
                &mut rows,
                &mut cols,
            )
        })
    });
}

criterion_group!(benches, bench_mapping);
criterion_main!(benches);
