//! Incremental-vs-from-scratch gate for streaming graph sessions.
//!
//! ```text
//! delta_bench [--quick] [--gate RATIO] [--deltas N]
//! ```
//!
//! Drives a sliding-window edit stream — each delta removes existing
//! edges whose sources fall in a small vertex window and inserts fresh
//! ones there, the window sliding per delta — through a [`SimSession`]
//! and, for every applied delta, re-runs the post-delta graph from
//! scratch through the one-shot `AuroraSimulator::run`. Three contracts
//! are hard failures in every mode:
//!
//! * **Bit-identity** — the session's report is byte-identical
//!   (serialized JSON) to the from-scratch report after every delta,
//!   across k ∈ {4, 8} × {mesh+bypass, mesh-only} × worker threads
//!   {1, 2, 4}, and invalid deltas produce the *same typed error* as
//!   `GraphDelta::apply` with the session left usable.
//! * **Burst replay** — re-applying the recorded delta stream on a
//!   second session from the same base reproduces the digest chain and
//!   final report exactly.
//! * **No-op hit** — an empty delta answers from the session without an
//!   engine run and does not advance the digest chain.
//!
//! The wall-clock claim is gated only in full mode (`--gate`, default
//! 5.0): on rmat-16k with per-delta churn ≤ 1 % of edges, the
//! incremental re-simulation must be at least `RATIO`× faster than the
//! from-scratch runs it replaces. `--quick` shrinks the workloads for
//! the CI gate (`scripts/check.sh`) and prints the speedup
//! informationally.

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{Cell, Table};
use aurora_core::{
    chain_digest, AcceleratorConfig, AuroraSimulator, GraphDelta, GraphSpec, SimRequest,
};
use aurora_graph::Csr;
use aurora_model::{LayerShape, ModelId};
use rayon::pool::ThreadPool;
use std::time::Instant;

/// xorshift64* — deterministic, dependency-free stream randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One sliding-window delta against `g`: remove up to `churn` existing
/// edges sourced inside `window`, insert the same number of new ones
/// sourced there (destinations anywhere). The window is what makes the
/// stream *incremental-friendly* — touched sources span a handful of
/// tiles, the realistic shape of an evolving graph region.
fn window_delta(g: &Csr, window: std::ops::Range<u32>, churn: usize, rng: &mut Rng) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let mut in_window: Vec<(u32, u32)> = Vec::new();
    for v in window.clone() {
        for &d in g.neighbors(v) {
            in_window.push((v, d));
        }
    }
    // sample removals without replacement
    let mut remove_edges = Vec::with_capacity(churn.min(in_window.len()));
    for _ in 0..churn.min(in_window.len()) {
        let i = rng.below(in_window.len() as u64) as usize;
        remove_edges.push(in_window.swap_remove(i));
    }
    remove_edges.sort_unstable();
    let mut insert_edges: Vec<(u32, u32)> = Vec::with_capacity(remove_edges.len());
    let mut tries = 0usize;
    while insert_edges.len() < remove_edges.len() && tries < churn * 64 {
        tries += 1;
        let u = window.start + rng.below((window.end - window.start) as u64) as u32;
        let v = rng.below(n) as u32;
        let e = (u, v);
        if u == v
            || g.has_edge(u, v)
            || insert_edges.contains(&e)
            || remove_edges.binary_search(&e).is_ok()
        {
            continue;
        }
        insert_edges.push(e);
    }
    GraphDelta {
        insert_edges,
        remove_edges,
        ..GraphDelta::default()
    }
}

/// The feature width sets the tile count: the capacity tiling fits
/// `onchip_bytes × feature_fraction / (f_in × 8)` vertices per tile, so
/// a GNN-realistic hidden width (128–256) splits these graphs into
/// several tiles — the shape the dirty-tile skip exists for. A tiny
/// `f_in` would collapse every graph into one tile and the "incremental"
/// run would redo all the work.
fn base_request(cfg: AcceleratorConfig, n: usize, m: usize, f_in: usize, seed: u64) -> SimRequest {
    SimRequest::builder(ModelId::Gcn)
        .config(cfg)
        .rmat(n, m, seed)
        .layers(&[LayerShape::new(f_in, f_in / 4)])
        .workload("delta_bench")
        .build()
        .expect("valid request")
}

fn report_json(r: &aurora_core::SimReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// Runs the post-delta graph from scratch through the one-shot path the
/// sessions must be indistinguishable from.
fn from_scratch(req: &SimRequest, g: &Csr) -> (aurora_core::SimReport, f64) {
    let fresh_req = SimRequest {
        graph: GraphSpec::Inline(g.clone()),
        ..req.clone()
    };
    let sim = AuroraSimulator::new(req.config);
    let start = Instant::now();
    let report = sim.run(&fresh_req).expect("from-scratch run");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

struct StreamOutcome {
    /// Serialized final report (the cross-thread identity key).
    final_json: String,
    /// Digest chain head after the stream.
    final_digest: String,
    /// Summed per-delta apply time, ms.
    incremental_ms: f64,
    /// Summed per-delta from-scratch time, ms.
    scratch_ms: f64,
}

/// Opens a session on `req`, applies `deltas` sliding-window edits of
/// `churn` edges each, and checks every contract the bench gates.
fn run_stream(req: &SimRequest, deltas: usize, window_len: u32, churn: usize) -> StreamOutcome {
    let sim = AuroraSimulator::new(req.config);
    let mut session = sim.open_session(req).expect("session opens");
    // the open replays the one-shot run exactly
    let (fresh0, _) = from_scratch(req, session.graph());
    assert_eq!(
        report_json(session.last_report()),
        report_json(&fresh0),
        "open must match a one-shot run of the base request"
    );

    let n = session.graph().num_vertices() as u32;
    let mut rng = Rng::new(0x5eed ^ req.digest().len() as u64 ^ (churn as u64) << 7);
    let mut recorded: Vec<GraphDelta> = Vec::new();
    let mut expect_digest = session.digest().to_string();
    let mut incremental_ms = 0.0;
    let mut scratch_ms = 0.0;

    for step in 0..deltas {
        // stride the window across the whole vertex range so successive
        // deltas exercise different tiles (R-MAT packs its hubs into the
        // low ids; re-hitting only tile 0 would measure the single most
        // expensive tile rather than typical streaming churn)
        let stride = (n / deltas.max(1) as u32).max(window_len);
        let start = (step as u32 * stride) % n.saturating_sub(window_len).max(1);
        let delta = window_delta(
            session.graph(),
            start..(start + window_len).min(n),
            churn,
            &mut rng,
        );
        assert!(
            !delta.is_empty(),
            "window {start} produced an empty delta; widen the window"
        );
        let t = Instant::now();
        let outcome = session.apply(&delta).expect("delta applies");
        incremental_ms += t.elapsed().as_secs_f64() * 1e3;
        assert!(!outcome.cached);
        expect_digest = chain_digest(&expect_digest, &delta);
        assert_eq!(outcome.digest, expect_digest, "digest chain drifted");

        let (fresh, fresh_ms) = from_scratch(req, session.graph());
        scratch_ms += fresh_ms;
        assert_eq!(
            report_json(session.last_report()),
            report_json(&fresh),
            "incremental report diverged from from-scratch at delta {step}"
        );
        recorded.push(delta);
    }

    // error identity: an invalid delta fails with exactly the typed
    // error the pure apply produces, and the session stays usable
    let bad = GraphDelta {
        remove_edges: vec![(0, n + 17)],
        ..GraphDelta::default()
    };
    let direct = bad.apply(session.graph()).expect_err("bad delta rejected");
    let through_session = session.apply(&bad).expect_err("session rejects too");
    assert_eq!(
        direct.to_string(),
        through_session.to_string(),
        "session error must be identical to the pure apply error"
    );
    assert_eq!(session.digest(), expect_digest, "failed apply advanced");
    let (fresh_after, _) = from_scratch(req, session.graph());
    assert_eq!(
        report_json(session.last_report()),
        report_json(&fresh_after),
        "session diverged after a failed apply"
    );

    // empty delta: a replay, not a run
    let runs = session.runs();
    let noop = session
        .apply(&GraphDelta::default())
        .expect("no-op applies");
    assert!(noop.cached, "empty delta must be served from the session");
    assert_eq!(noop.digest, expect_digest);
    assert_eq!(session.runs(), runs, "no-op must not run the engine");

    // burst replay: a second session over the recorded stream lands on
    // the same digests and the same final report
    let mut replay = sim.open_session(req).expect("replay session opens");
    for (i, delta) in recorded.iter().enumerate() {
        let out = replay.apply(delta).expect("replay applies");
        assert!(!out.cached, "replay delta {i} unexpectedly cached");
    }
    assert_eq!(replay.digest(), session.digest(), "replay digest diverged");
    assert_eq!(
        report_json(replay.last_report()),
        report_json(session.last_report()),
        "replay final report diverged"
    );

    StreamOutcome {
        final_json: report_json(session.last_report()),
        final_digest: expect_digest,
        incremental_ms,
        scratch_ms,
    }
}

fn main() {
    let mut quick = false;
    let mut gate = 5.0f64;
    let mut deltas = 0usize; // 0 = per-mode default
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = args.parse("--gate"),
            "--deltas" => deltas = args.parse("--deltas"),
            other => fail(&format!("unknown flag {other}")),
        }
    }

    // Identity matrix: every radix × NoC mode × thread count must be
    // indistinguishable from one-shot runs, and identical across thread
    // counts.
    let (n, m, steps) = if quick {
        (2_048, 16_000, if deltas > 0 { deltas } else { 2 })
    } else {
        (4_096, 40_000, if deltas > 0 { deltas } else { 3 })
    };
    let window_len = 128u32;
    let churn = (m / 200).max(8); // ≤ 1% of edges counting inserts + removes

    let mut t = Table::new(format!(
        "delta_bench identity matrix — rmat-{n} ({m} edges), {steps} deltas of ≤{churn}+{churn} edges"
    ))
    .columns(&["config", "threads", "incr ms", "scratch ms", "speedup"]);

    for k in [4usize, 8] {
        for flexible in [true, false] {
            let mut cfg = AcceleratorConfig::small(k);
            cfg.flexible_noc = flexible;
            let req = base_request(cfg, n, m, 128, 11);
            let mode = if flexible { "bypass" } else { "mesh" };
            let mut golden: Option<(String, String)> = None;
            for threads in [1usize, 2, 4] {
                let outcome =
                    ThreadPool::new(threads).install(|| run_stream(&req, steps, window_len, churn));
                match &golden {
                    None => {
                        golden = Some((outcome.final_json.clone(), outcome.final_digest.clone()))
                    }
                    Some((json, digest)) => {
                        assert_eq!(
                            &outcome.final_json, json,
                            "k={k} {mode}: report differs at {threads} threads"
                        );
                        assert_eq!(
                            &outcome.final_digest, digest,
                            "k={k} {mode}: digest differs at {threads} threads"
                        );
                    }
                }
                t.row(vec![
                    Cell::Str(format!("k={k} {mode}")),
                    Cell::UInt(threads as u64),
                    Cell::float(outcome.incremental_ms, 1),
                    Cell::float(outcome.scratch_ms, 1),
                    Cell::ratio(outcome.scratch_ms / outcome.incremental_ms.max(1e-9), 1),
                ]);
            }
        }
    }
    t.note("every row bit-identical to from-scratch runs; burst replay + error identity + no-op checked per row");
    t.print();

    // Wall-clock gate (full mode): rmat-16k, ≤1 % churn per delta.
    if quick {
        println!(
            "delta_bench --quick: identity gates passed; speedup gate skipped (full mode only)"
        );
        return;
    }
    let (n, m) = (16_384usize, 160_000usize);
    // 8 windows stride the full vertex range: the stream visits the
    // expensive hub tile (R-MAT packs hubs into the low ids) once and
    // spends the rest on ordinary tiles, the steady-state mix of a
    // sliding-window stream
    let steps = if deltas > 0 { deltas } else { 8 };
    let churn = m / 800; // inserts + removes ≤ 0.25% of edges, well under 1%
    let req = base_request(AcceleratorConfig::small(8), n, m, 256, 9);
    // best-of-3: wall-clock on shared CI hosts is noisy in one direction
    // only, so the minimum of repeated runs is the standard estimator of
    // the true cost; every repetition still checks all the identity
    // contracts
    let (mut incr_ms, mut scratch_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let outcome = run_stream(&req, steps, 128, churn);
        incr_ms = incr_ms.min(outcome.incremental_ms);
        scratch_ms = scratch_ms.min(outcome.scratch_ms);
    }
    let speedup = scratch_ms / incr_ms.max(1e-9);
    let mut g = Table::new(format!(
        "delta_bench speedup gate — rmat-16k, {steps} deltas of ≤{churn}+{churn} edges (≤1% churn)"
    ))
    .columns(&["incr ms", "scratch ms", "speedup", "gate"]);
    g.row(vec![
        Cell::float(incr_ms, 1),
        Cell::float(scratch_ms, 1),
        Cell::ratio(speedup, 2),
        Cell::ratio(gate, 2),
    ]);
    g.print();
    assert!(
        speedup >= gate,
        "incremental re-simulation speedup {speedup:.2}x below the {gate:.2}x gate"
    );
    println!("delta_bench: all gates passed");
}
