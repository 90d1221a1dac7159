//! The engine's analytic on-chip estimator vs the cycle-level NoC on
//! realistic traffic, across fabric configurations.

use aurora::core::noc_model;
use aurora::graph::generate;
use aurora::mapping::plan::{plan_bypass_into, PlanScratch, SegmentPlan};
use aurora::mapping::{degree_aware, hashing};
use aurora::noc::{BypassSegment, Network, NocConfig};

fn detailed_cycles(cfg: NocConfig, traffic: &[(usize, usize, usize)]) -> u64 {
    let mut net = Network::new(cfg);
    for &(s, d, w) in traffic {
        if s != d {
            net.inject(s, d, w);
        }
    }
    net.drain(5_000_000).expect("network must drain")
}

#[test]
fn estimator_tracks_engine_on_random_graph() {
    let k = 6;
    let g = generate::rmat(96, 800, Default::default(), 3);
    let mapping = degree_aware::map(0..96, &g.degrees(), k, 4);
    let cfg = NocConfig::mesh(k);
    let words = 12;
    let est = noc_model::aggregation_traffic(
        &cfg,
        &mapping,
        g.edges(),
        words,
        noc_model::DEFAULT_LINK_UTILISATION,
    )
    .unwrap();
    let traffic: Vec<_> = g
        .edges()
        .map(|(u, v)| (mapping.pe_of(u), mapping.pe_of(v), words))
        .collect();
    let cycles = detailed_cycles(cfg, &traffic);
    let ratio = est.cycles as f64 / cycles as f64;
    assert!(
        (0.15..6.0).contains(&ratio),
        "estimate {} vs engine {cycles} (ratio {ratio:.2})",
        est.cycles
    );
}

#[test]
fn estimator_and_engine_agree_bypass_helps_a_star() {
    let k = 6;
    let g = generate::star(72);
    let mapping = degree_aware::map(0..72, &g.degrees(), k, 2);
    let words = 8;

    let mesh = NocConfig::mesh(k);
    let est_mesh = noc_model::aggregation_traffic(
        &mesh,
        &mapping,
        g.edges(),
        words,
        noc_model::DEFAULT_LINK_UTILISATION,
    )
    .unwrap();

    let mut rows = vec![SegmentPlan::default(); k];
    let mut cols = vec![SegmentPlan::default(); k];
    let (nr, nc) = plan_bypass_into(
        &mapping.view(),
        g.edges(),
        &mut PlanScratch::new(),
        &mut rows,
        &mut cols,
    );
    let to_seg = |s: &SegmentPlan| BypassSegment {
        index: s.index,
        from: s.from,
        to: s.to,
    };
    let byp = NocConfig::with_bypass(
        k,
        rows[..nr].iter().map(to_seg).collect(),
        cols[..nc].iter().map(to_seg).collect(),
    );
    let est_byp = noc_model::aggregation_traffic(
        &byp,
        &mapping,
        g.edges(),
        words,
        noc_model::DEFAULT_LINK_UTILISATION,
    )
    .unwrap();
    assert!(
        est_byp.avg_hops <= est_mesh.avg_hops,
        "estimator: bypass shortens"
    );

    let traffic: Vec<_> = g
        .edges()
        .map(|(u, v)| (mapping.pe_of(u), mapping.pe_of(v), words))
        .collect();
    let c_mesh = detailed_cycles(mesh, &traffic);
    let c_byp = detailed_cycles(byp, &traffic);
    assert!(
        c_byp <= c_mesh,
        "engine: bypass config ({c_byp}) should not lose to mesh ({c_mesh})"
    );
}

#[test]
fn hashing_hotspots_show_in_both_models() {
    let k = 6;
    let g = generate::rmat(144, 1500, Default::default(), 13);
    let words = 8;
    let h = hashing::map(0..144, &g.degrees(), k, 5);
    let d = degree_aware::map(0..144, &g.degrees(), k, 5);
    let cfg = NocConfig::mesh(k);

    let est_h = noc_model::aggregation_traffic(
        &cfg,
        &h,
        g.edges(),
        words,
        noc_model::DEFAULT_LINK_UTILISATION,
    )
    .unwrap();
    let est_d = noc_model::aggregation_traffic(
        &cfg,
        &d,
        g.edges(),
        words,
        noc_model::DEFAULT_LINK_UTILISATION,
    )
    .unwrap();
    // identical message volume; placement only changes the distribution
    assert_eq!(est_h.messages, est_d.messages);

    let run = |m: &aurora::mapping::VertexMapping| {
        let mut net = Network::new(NocConfig::mesh(k));
        for (u, v) in g.edges() {
            let (s, dd) = (m.pe_of(u), m.pe_of(v));
            if s != dd {
                net.inject(s, dd, words);
            }
        }
        net.drain(5_000_000).unwrap();
        net.stats().load_imbalance()
    };
    let imb_h = run(&h);
    let imb_d = run(&d);
    // the cycle-level engine sees an imbalance for both, and the
    // degree-aware placement never makes it *worse* by much
    assert!(imb_h > 1.0 && imb_d > 1.0);
    assert!(
        imb_d <= imb_h * 1.5,
        "degree-aware {imb_d} vs hashing {imb_h}"
    );
}

#[test]
fn ring_estimate_matches_engine_rotation() {
    let k = 4;
    let cfg = NocConfig::rings(k);
    // one full rotation: each node sends to its ring predecessor (k−1 hops)
    let mut net = Network::new(cfg.clone());
    for y in 0..k {
        for x in 0..k {
            let src = y * k + x;
            let dst = y * k + (x + k - 1) % k;
            net.inject(src, dst, 4);
        }
    }
    let cycles = net.drain(100_000).unwrap();
    let est = noc_model::ring_traffic(&cfg, k * k, 4, noc_model::DEFAULT_LINK_UTILISATION);
    // both models are within a small factor for this uniform pattern
    let ratio = est.cycles as f64 / cycles as f64;
    assert!(
        (0.1..10.0).contains(&ratio),
        "ring estimate {} vs engine {cycles}",
        est.cycles
    );
    assert_eq!(net.stats().packets_delivered, (k * k) as u64);
}
