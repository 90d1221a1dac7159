//! End-to-end invariants of the bottleneck-attribution profiler.
//!
//! Runs every Table I model through the Aurora engine and checks that
//! the bound taxonomy is conservative: per-tile fractions sum to 1, the
//! mixes roll up exactly into the layer and run totals, and the
//! dominant-bound label always agrees with the tile-time maxima the
//! engine actually took.

use aurora_core::profile::CriticalStage;
use aurora_core::{
    metric_names, AcceleratorConfig, AuroraSimulator, Bound, SimReport, SimRequest, Telemetry,
};
use aurora_graph::generate;
use aurora_model::{LayerShape, ModelId};

const EPS: f64 = 1e-6;

fn run(model: ModelId) -> SimReport {
    let g = generate::rmat(1_024, 8_000, Default::default(), 5);
    let shapes = [LayerShape::new(32, 16), LayerShape::new(16, 8)];
    run_request(
        &AuroraSimulator::new(AcceleratorConfig::small(8)),
        &g,
        model,
        &shapes,
        "rmat-1k",
        1.0,
    )
}

/// One-shot Aurora run through the request API.
fn run_request(
    sim: &AuroraSimulator,
    g: &aurora_graph::Csr,
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
        .unwrap();
    sim.run(&req).unwrap()
}

#[test]
fn fractions_sum_to_one_for_every_tile_of_every_model() {
    for model in ModelId::ALL {
        let r = run(model);
        assert!(!r.profile.tiles.is_empty(), "{}: no tiles", model.name());
        for t in &r.profile.tiles {
            assert!(t.slot_cycles > 0, "{}: empty slot", model.name());
            assert_eq!(
                t.mix.total(),
                t.slot_cycles,
                "{}: tile ({}, {}) mix must cover its slot exactly",
                model.name(),
                t.layer,
                t.tile
            );
            let sum: f64 = t.fractions().iter().map(|(_, f)| f).sum();
            assert!(
                (sum - 1.0).abs() < EPS,
                "{}: tile ({}, {}) fractions sum to {sum}",
                model.name(),
                t.layer,
                t.tile
            );
        }
    }
}

#[test]
fn dominant_bound_matches_tile_time_max() {
    for model in ModelId::ALL {
        let r = run(model);
        for t in &r.profile.tiles {
            // The engine's slot is max(exec, dram) with exec = max(A, B):
            // re-derive both maxima and check the label agrees.
            let exec = t.a.total().max(t.b.total());
            assert_eq!(t.exec_cycles(), exec);
            assert_eq!(t.slot_cycles, exec.max(t.dram_cycles));
            match t.critical {
                CriticalStage::A => assert!(t.a.total() >= t.b.total()),
                CriticalStage::B => assert!(t.b.total() > t.a.total()),
            }
            if t.dram_cycles >= exec {
                assert_eq!(
                    t.bound,
                    Bound::Dram,
                    "{}: tile ({}, {}) is paced by DRAM but labelled {}",
                    model.name(),
                    t.layer,
                    t.tile,
                    t.bound.label()
                );
            } else {
                // Execution paces the slot: the label is the largest
                // component of the critical stage, and hidden DRAM can
                // never win.
                assert_ne!(t.bound, Bound::Dram);
                let w = t.critical_side();
                let max_comp = w.compute_cycles.max(w.noc_cycles).max(w.imbalance_cycles);
                assert_eq!(t.candidate(t.bound), max_comp);
            }
            // The winner has no slack; losers' slack is the gap.
            assert_eq!(t.slack(t.bound), 0);
            for b in Bound::ALL {
                assert!(t.candidate(t.bound) >= t.candidate(b));
            }
        }
    }
}

#[test]
fn mixes_roll_up_into_layer_and_run_totals() {
    for model in ModelId::ALL {
        let r = run(model);
        let p = &r.profile;
        // Tile mixes sum to the layer mix, layer mixes to the run mix,
        // and attributed cycles plus exposed overhead equal the run.
        for l in &p.layers {
            let mut sum = aurora_core::BoundMix::default();
            for t in p.tiles.iter().filter(|t| t.layer == l.layer) {
                sum = sum.add(&t.mix);
            }
            assert_eq!(
                sum,
                l.mix,
                "{}: layer {} mix mismatch",
                model.name(),
                l.layer
            );
            let layer_total = r.layers[l.layer].total_cycles;
            assert_eq!(
                l.mix.total() + l.overhead_cycles,
                layer_total,
                "{}: layer {} attribution must cover the layer",
                model.name(),
                l.layer
            );
        }
        assert_eq!(
            p.mix.total() + p.overhead_cycles,
            r.total_cycles,
            "{}: run attribution must cover total_cycles",
            model.name()
        );
        let frac_sum: f64 = p.fractions().iter().map(|(_, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < EPS);
    }
}

#[test]
fn traffic_cache_counters_reconcile_with_telemetry() {
    let g = generate::rmat(1_024, 8_000, Default::default(), 5);
    // Two layers with the same input width: identical tilings, vertex
    // mappings and per-tile NoC configs, so layer 1 interns no new
    // config and sees the same traffic as layer 0.
    let shapes = [LayerShape::new(32, 32), LayerShape::new(32, 16)];
    let r = run_request(
        &AuroraSimulator::new(AcceleratorConfig::small(8)).with_telemetry(Telemetry::enabled()),
        &g,
        ModelId::Gcn,
        &shapes,
        "rmat-1k",
        1.0,
    );
    let p = &r.profile;

    assert_eq!(p.layers.len(), 2);
    assert_eq!(p.layers[0].tiles, p.layers[1].tiles);
    let tiles = p.layers[0].tiles as u64;
    assert!(tiles > 0);

    // Tables are keyed by distinct NocConfig: at least one build, never
    // more than one per tile of a layer.
    assert!(p.route_table_builds >= 1);
    assert!(p.route_table_builds <= tiles);

    // The telemetry counter and the report field are two views of the
    // same interner state.
    let m = &r.metrics;
    assert_eq!(
        m.counter_total(metric_names::NOC_ROUTE_TABLE_BUILDS),
        p.route_table_builds
    );

    // A cold single-layer run of the same first layer reports identical
    // cycles and builds, and both layers see the same traffic (same
    // tiles, same message width).
    let cold = run_request(
        &AuroraSimulator::new(AcceleratorConfig::small(8)),
        &g,
        ModelId::Gcn,
        &shapes[..1],
        "rmat-1k",
        1.0,
    );
    assert_eq!(cold.layers[0].total_cycles, r.layers[0].total_cycles);
    assert_eq!(cold.profile.route_table_builds, p.route_table_builds);
    assert_eq!(r.layers[0].noc, r.layers[1].noc);

    // A run without telemetry still fills the report fields.
    let quiet = run(ModelId::Gcn);
    assert!(quiet.profile.route_table_builds >= 1);
    assert!(quiet.metrics.is_empty());
}

#[test]
fn profile_header_and_roofline_are_populated() {
    let r = run(ModelId::Gcn);
    let p = &r.profile;
    assert_eq!(
        p.link_utilisation,
        AcceleratorConfig::default().link_utilisation
    );
    assert!(p.ops > 0);
    assert_eq!(p.dram_bytes, r.dram.total_bytes());
    assert!(p.operational_intensity > 0.0);
    assert!(p.achieved_gflops > 0.0);
    assert!(p.peak_gflops > p.achieved_gflops);
    assert!(p.dram_peak_gbps > 0.0);
    // Layer dram_bytes partition the run's total.
    let by_layer: u64 = p.layers.iter().map(|l| l.dram_bytes).sum();
    assert_eq!(by_layer, p.dram_bytes);
    // Top-k is ordered by slot and bounded by k.
    let top = p.top_limiting_tiles(3);
    assert!(top.len() <= 3);
    assert!(top.windows(2).all(|w| w[0].slot_cycles >= w[1].slot_cycles));
}
