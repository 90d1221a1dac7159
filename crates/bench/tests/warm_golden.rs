//! Golden report digests for a worker's request stream.
//!
//! A serving worker answers every request through one process-wide
//! [`GraphCache`], so what one request leaves resident may serve the
//! next. This test runs a fixed request sequence through one cache with
//! [`AuroraSimulator::run_with`], in order, and pins the FNV-1a/64 of
//! each report's JSON (host wall-clock stripped) to the committed
//! fixture `tests/fixtures/warm_golden.txt`. Every report must also
//! equal a cold [`AuroraSimulator::run`] of the same request: nothing
//! the cache keeps may show in a report.
//!
//! Why each step is here:
//!
//! * `paper-k32/d*` — perfbench's `paper-k32` request (Pubmed, the
//!   paper's 32×32 configuration, GCN F→16→classes) at input densities
//!   1.0, 0.5, 0.3, 0.15 (the compression floor), 0.1 and 0.0. Only the
//!   first layer's message width depends on the density.
//! * `paper-k32/d0.3/trace` — the same request with the instruction
//!   trace on, between two trace-off ones.
//! * `k16/...`, then `paper-k32/...` again — a different radix on the
//!   same graph mid-sequence, and the return to k=32.
//! * `mesh/...` — `flexible_noc: false` (every tile on the plain mesh).
//! * `hashing/...` — the hashing mapping policy.
//! * `deep/...` — three layers where layer 2 repeats layer 1's `f_in`,
//!   so its tiles reuse the NoC configs layer 1 interned.
//! * `wide/...` — 256-byte PE buffers on an R-MAT graph at k=8: one
//!   layer with more distinct bypass plans than the 64-slot route-table
//!   cache holds.
//!
//! Each configuration is sent several times in a row at different
//! densities, as a density sweep would send it. Densities at or above
//! 0.5 all give dense messages, and those at or below 0.15 all give the
//! floor's, so most runs of one configuration differ in their reports.
//!
//! Upkeep needs no knob: on any mismatch the test prints the full
//! `step digest` table as computed now.

use aurora_core::{fnv1a64, AcceleratorConfig, AuroraSimulator, GraphCache, SimRequest};
use aurora_graph::Dataset;
use aurora_mapping::MappingPolicy;
use aurora_model::{LayerShape, ModelId};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/warm_golden.txt");

/// A Pubmed GCN request at `density` with the given config and layers.
fn pubmed(config: AcceleratorConfig, layers: &[LayerShape], density: f64) -> SimRequest {
    SimRequest::builder(ModelId::Gcn)
        .config(config)
        .dataset(Dataset::Pubmed, 1)
        .layers(layers)
        .input_density(density)
        .workload("paper-k32")
        .build()
        .expect("valid request")
}

/// The request sequence, in the order it runs.
fn steps() -> Vec<(String, SimRequest)> {
    let spec = Dataset::Pubmed.spec();
    let paper = [
        LayerShape::new(spec.feature_dim, 16),
        LayerShape::new(16, spec.classes.max(2)),
    ];
    let deep = [
        LayerShape::new(spec.feature_dim, 16),
        LayerShape::new(16, 16),
        LayerShape::new(16, spec.classes.max(2)),
    ];
    let k32 = AcceleratorConfig::default();
    let k16 = AcceleratorConfig::small(16);
    let mesh = AcceleratorConfig {
        flexible_noc: false,
        ..k32
    };
    let hashing = AcceleratorConfig {
        mapping_policy: MappingPolicy::Hashing,
        ..k32
    };
    let mut steps = Vec::new();
    let mut push = |name: &str, req: SimRequest| steps.push((name.to_string(), req));
    push("paper-k32/d1.0", pubmed(k32, &paper, 1.0));
    push("paper-k32/d0.5", pubmed(k32, &paper, 0.5));
    push("paper-k32/d0.3", pubmed(k32, &paper, 0.3));
    let mut traced = pubmed(k32, &paper, 0.3);
    traced.options.trace_instructions = true;
    push("paper-k32/d0.3/trace", traced);
    push("paper-k32/d0.15", pubmed(k32, &paper, 0.15));
    for density in [0.45, 0.25, 0.1] {
        push(&format!("k16/d{density}"), pubmed(k16, &paper, density));
    }
    push("paper-k32/d0.1", pubmed(k32, &paper, 0.1));
    push("paper-k32/d0.0", pubmed(k32, &paper, 0.0));
    push("paper-k32/d1.0/again", pubmed(k32, &paper, 1.0));
    for density in [0.5, 0.3, 0.1] {
        push(&format!("mesh/d{density}"), pubmed(mesh, &paper, density));
    }
    for density in [0.5, 0.3, 0.1] {
        push(
            &format!("hashing/d{density}"),
            pubmed(hashing, &paper, density),
        );
    }
    for density in [0.5, 0.3, 0.1] {
        push(&format!("deep/d{density}"), pubmed(k32, &deep, density));
    }
    let mut wide = AcceleratorConfig::small(8);
    wide.pe.buffer_bytes = 256;
    for density in [0.5, 0.3, 0.1] {
        let req = SimRequest::builder(ModelId::Gcn)
            .config(wide)
            .rmat(16_384, 160_000, 7)
            .layer(LayerShape::new(32, 16))
            .input_density(density)
            .workload("wide")
            .build()
            .expect("valid request");
        push(&format!("wide/d{density}"), req);
    }
    steps
}

/// FNV-1a/64 of the report's JSON, host wall-clock stripped.
fn digest(sim: &AuroraSimulator, req: &SimRequest, graphs: Option<&GraphCache>) -> String {
    let mut report = sim.run_with(req, graphs).expect("request runs");
    report.host_profile = None;
    let json = serde_json::to_string(&report).expect("report serialises");
    format!("{:016x}", fnv1a64(&[json.as_bytes()]))
}

/// The committed `step → digest` table (`#` lines are comments).
fn golden() -> BTreeMap<String, String> {
    FIXTURE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (step, digest) = l.split_once(' ').expect("`step digest` line");
            (step.to_string(), digest.trim().to_string())
        })
        .collect()
}

#[test]
fn worker_stream_reports_match_golden_and_cold_runs() {
    let steps = steps();
    let golden = golden();
    let cache = GraphCache::new();
    let mut table = Vec::new();
    let mut failures = Vec::new();
    for (name, req) in &steps {
        let sim = AuroraSimulator::new(req.config);
        let warm = digest(&sim, req, Some(&cache));
        let cold = digest(&sim, req, None);
        if warm != cold {
            failures.push(format!("{name}: {warm} through the cache, {cold} cold"));
        }
        let expected = golden.get(name);
        if expected != Some(&warm) {
            failures.push(format!(
                "{name}: {warm}, fixture {}",
                expected.map_or("<missing>", String::as_str)
            ));
        }
        table.push(format!("{name} {warm}"));
    }
    let stale: Vec<&String> = golden
        .keys()
        .filter(|name| steps.iter().all(|(s, _)| s != *name))
        .collect();
    if !failures.is_empty() || !stale.is_empty() {
        println!("current step → digest table (paste into tests/fixtures/warm_golden.txt):");
        for line in &table {
            println!("{line}");
        }
        panic!(
            "{} mismatch(es), {} stale fixture step(s): {failures:#?} {stale:?}",
            failures.len(),
            stale.len()
        );
    }
}
