//! Deterministic synthetic graph generators.
//!
//! Real-world GNN datasets follow heavy-tailed (power-law) degree
//! distributions — the property the degree-aware mapping (§IV) exploits
//! ("considering the power-law distribution of real-world graphs, each graph
//! partition could only have a few high-degree vertices"). The R-MAT
//! recursive generator reproduces that skew; Erdős–Rényi provides a
//! no-skew control, and a few regular toys support unit tests.
//!
//! Every generator is a pure function of its arguments. [`rmat`] in
//! particular is a pure function of `(n, edges, params, seed)`. Up to
//! 2¹⁶ vertices it runs its SplitMix64 draw loop once, packing each kept
//! draw into one `u32` key `(u << levels) | v`, and sorts and
//! deduplicates the keys in place. Above 2¹⁶ a `u32` cannot hold both
//! endpoints, so it replays the draw loop from the seed once per pass of
//! the builder's two-pass counting sort instead. Both paths hold one
//! `u32` per kept draw at their peak, the size of the pre-dedup
//! `col_idx`, and both are bit-identical to the earlier
//! pair-buffer-and-global-sort build (pinned by
//! `crates/bench/tests/csr_golden.rs`, by an oracle proptest against a
//! test-only copy of that build, and by a proptest of one path against
//! the other).

use crate::builder::{csr_from_packed, csr_from_replay, GraphBuilder};
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// R-MAT quadrant probabilities. The classic skewed setting is
/// `a=0.57, b=0.19, c=0.19, d=0.05`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

impl RmatParams {
    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!(
            (s - 1.0).abs() < 1e-9,
            "RMAT quadrant probabilities must sum to 1 (got {s})"
        );
        assert!(self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0);
    }

    /// The three quadrant boundaries as exact integer cuts on a 53-bit
    /// draw `m = next_u64() >> 11`. The unit float a draw stands for is
    /// `r = m · 2⁻⁵³` (exact), so `r < t ⇔ m < ⌈t · 2⁵³⌉`: the integer
    /// compare takes the same branch as the float compare for every `m`.
    fn cuts(&self) -> [u64; 3] {
        let ab = self.a + self.b;
        [cut(self.a), cut(ab), cut(ab + self.c)]
    }
}

/// `⌈t · 2⁵³⌉`, the integer cut equivalent to the float test `r < t`.
fn cut(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// How many R-MAT draws [`rmat`] makes for `target_edges`: dedup and the
/// self-loop filter discard some draws, so it oversamples by a quarter
/// plus 16. `None` when the count overflows `usize`.
pub fn rmat_draw_count(target_edges: usize) -> Option<usize> {
    target_edges.checked_add(target_edges / 4)?.checked_add(16)
}

/// Generates an R-MAT graph with `n` vertices (rounded up to a power of two
/// internally, then vertices folded back into range) and approximately
/// `target_edges` unique directed edges.
///
/// The output is a pure function of `(n, target_edges, params, seed)`.
/// Which build runs depends on `n` alone, and both build the same graph:
/// - `n ≤ 2¹⁶`: one pass of draws, each kept draw packed into a `u32`
///   key, then one in-place sort and dedup of the keys;
/// - `n > 2¹⁶`: the draw loop is replayed from `seed` for each pass of
///   the two-pass CSR build.
///
/// # Panics
/// Panics if `params` do not sum to 1, `n` is 0 or exceeds `u32`, or the
/// draw count overflows (see [`rmat_draw_count`]).
pub fn rmat(n: usize, target_edges: usize, params: RmatParams, seed: u64) -> Csr {
    params.validate();
    assert!(n > 0, "graph must have at least one vertex");
    assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
    let draws = rmat_draw_count(target_edges).expect("R-MAT edge target overflows the draw count");
    let levels = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let edges = || rmat_edges(n, levels, draws, params.cuts(), seed);
    if 2 * levels <= u32::BITS {
        csr_from_packed(n, levels, draws, edges())
    } else {
        csr_from_replay(n, edges)
    }
}

/// The kept edges of `draws` R-MAT draws from `seed`, in draw order:
/// each draw descends `levels` quadrants, folds both endpoints into
/// range with `% n`, and is dropped if it is a self loop.
fn rmat_edges(
    n: usize,
    levels: u32,
    draws: usize,
    cuts: [u64; 3],
    seed: u64,
) -> impl Iterator<Item = (VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws).filter_map(move |_| {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..levels {
            // quadrant 0..4 = a, b, c, d; its bits are (du, dv)
            let m = rng.next_u64() >> 11;
            let q = (m >= cuts[0]) as usize + (m >= cuts[1]) as usize + (m >= cuts[2]) as usize;
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        let (u, v) = ((u % n) as VertexId, (v % n) as VertexId);
        (u != v).then_some((u, v))
    })
}

/// Erdős–Rényi G(n, m): `m` unique directed edges chosen uniformly.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n > 1, "need at least two vertices");
    let max_edges = n * (n - 1);
    assert!(
        m <= max_edges,
        "cannot place {m} unique edges in {n} vertices"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut placed = std::collections::HashSet::with_capacity(m);
    while placed.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && placed.insert((u, v)) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A directed ring 0→1→…→(n−1)→0.
pub fn ring(n: usize) -> Csr {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        b.add_edge(v, ((v as usize + 1) % n) as u32);
    }
    b.build()
}

/// A star with centre 0 and `n − 1` undirected spokes — the degenerate
/// high-degree-vertex case the degree-aware mapping targets.
pub fn star(n: usize) -> Csr {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_undirected_edge(0, v);
    }
    b.build()
}

/// A 2-D grid of `rows × cols` vertices with undirected 4-neighbour links.
pub fn grid(rows: usize, cols: usize) -> Csr {
    assert!(rows > 0 && cols > 0);
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_undirected_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.add_undirected_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build()
}

/// A complete directed graph on `n` vertices (no self loops).
pub fn complete(n: usize) -> Csr {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The R-MAT generator as it was before the two-pass build: float
    /// quadrant if-chain, one pair buffer, a global sort and dedup. The
    /// oracle both builds of [`rmat`] must match exactly.
    fn rmat_sorted_oracle(n: usize, target_edges: usize, params: RmatParams, seed: u64) -> Csr {
        params.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = (usize::BITS - (n - 1).leading_zeros()).max(1);
        let mut edges = Vec::new();
        for _ in 0..target_edges + target_edges / 4 + 16 {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..levels {
                let r: f64 = rng.gen();
                let (du, dv) = if r < params.a {
                    (0, 0)
                } else if r < params.a + params.b {
                    (0, 1)
                } else if r < params.a + params.b + params.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            let (u, v) = ((u % n) as VertexId, (v % n) as VertexId);
            if u != v {
                edges.push((u, v));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut row_ptr = vec![0u32; n + 1];
        for &(u, _) in &edges {
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr::from_raw(row_ptr, edges.into_iter().map(|(_, v)| v).collect())
    }

    /// Valid quadrant probabilities from raw weights; `shape` forces the
    /// corners `a = 1` (1), `d = 0` (2) and `d = 1` (4), or zeroes `b`
    /// (3). Both `a = 1` and `d = 1` make every draw a self loop.
    fn params_from(shape: u8, w: (f64, f64, f64, f64)) -> RmatParams {
        let (a, b, c, d) = match shape {
            1 => (1.0, 0.0, 0.0, 0.0),
            2 => (w.0, w.1, w.2, 0.0),
            3 => (w.0, 0.0, w.2, w.3),
            4 => (0.0, 0.0, 0.0, 1.0),
            _ => w,
        };
        let s = a + b + c + d;
        RmatParams {
            a: a / s,
            b: b / s,
            c: c / s,
            d: d / s,
        }
    }

    /// A vertex count from one of four bands: `n ∈ {1, 2}`, small
    /// graphs, either side of the packed path's `n ≤ 2¹⁶` limit, or
    /// anywhere up to well past it.
    fn vertices_from(band: u8, raw: usize) -> usize {
        match band {
            0 => 1 + raw % 2,
            1 => 1 + raw % 4_096,
            2 => (1 << 16) - 64 + raw % 128,
            _ => 1 + raw % 140_000,
        }
    }

    /// [`rmat`] through the replay build, whatever `n` is: the reference
    /// the packed build must match.
    fn rmat_replayed(n: usize, target_edges: usize, params: RmatParams, seed: u64) -> Csr {
        let draws = rmat_draw_count(target_edges).unwrap();
        let levels = (usize::BITS - (n - 1).leading_zeros()).max(1);
        csr_from_replay(n, || rmat_edges(n, levels, draws, params.cuts(), seed))
    }

    proptest! {
        #[test]
        fn rmat_matches_sorted_oracle(
            band in 0u8..4,
            raw in 0usize..1 << 20,
            edges in 0usize..20_000,
            seed in 0u64..u64::MAX,
            shape in 0u8..5,
            w in (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0)
        ) {
            let n = vertices_from(band, raw);
            let params = params_from(shape, w);
            prop_assert_eq!(
                rmat(n, edges, params, seed),
                rmat_sorted_oracle(n, edges, params, seed),
                "n={} edges={} seed={} params={:?}", n, edges, seed, params
            );
        }

        #[test]
        fn packed_build_matches_replay_build(
            band in 0u8..3,
            raw in 0usize..1 << 20,
            edges in 0usize..40_000,
            seed in 0u64..u64::MAX,
            shape in 0u8..5,
            w in (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0)
        ) {
            let n = vertices_from(band, raw).min(1 << 16);
            let params = params_from(shape, w);
            prop_assert_eq!(
                rmat(n, edges, params, seed),
                rmat_replayed(n, edges, params, seed),
                "n={} edges={} seed={} params={:?}", n, edges, seed, params
            );
        }
    }

    #[test]
    fn rmat_matches_sorted_oracle_at_dataset_shapes() {
        for (n, m) in [
            (1, 10),
            (2, 0),
            (2_708, 10_556),
            (2_855, 30_000),
            (16_384, 160_000),
            (65_536, 100_000),
            (65_537, 100_000),
        ] {
            let p = RmatParams::default();
            assert_eq!(
                rmat(n, m, p, 9),
                rmat_sorted_oracle(n, m, p, 9),
                "n={n} m={m}"
            );
        }
    }

    /// `a = 1` and `d = 1` send every draw to one diagonal corner, so
    /// every draw is a self loop and both builds return an empty graph.
    #[test]
    fn self_loop_corners_build_empty_graphs() {
        let corners = [
            params_from(1, (1.0, 1.0, 1.0, 1.0)),
            params_from(4, (1.0, 1.0, 1.0, 1.0)),
        ];
        for params in corners {
            for n in [1, 2, 3, 2_855, 1 << 16, (1 << 16) + 1] {
                let g = rmat(n, 1_000, params, 5);
                assert_eq!(
                    (g.num_vertices(), g.num_edges()),
                    (n, 0),
                    "n={n} {params:?}"
                );
                assert_eq!(g, rmat_replayed(n, 1_000, params, 5), "n={n} {params:?}");
            }
        }
    }

    /// The integer cut takes the float compare's branch on both sides of
    /// every boundary, including the degenerate thresholds 0 and 1.
    #[test]
    fn integer_cuts_agree_with_float_compare() {
        let unit = |m: u64| m as f64 * (1.0 / (1u64 << 53) as f64);
        for t in [
            0.0,
            1.0,
            0.57,
            0.76,
            0.95,
            0.05,
            1e-300,
            1.0 + f64::EPSILON,
            1.0 / 3.0,
        ] {
            let c = cut(t);
            for m in [c.saturating_sub(1), c, c + 1, 0, 1, (1 << 53) - 1] {
                assert_eq!(m < c, unit(m) < t, "t={t} m={m} cut={c}");
            }
        }
        assert_eq!(cut(0.0), 0);
        assert_eq!(cut(1.0), 1 << 53);
    }

    #[test]
    fn draw_count_overflow_is_none() {
        assert_eq!(rmat_draw_count(160_000), Some(200_016));
        assert_eq!(rmat_draw_count(usize::MAX), None);
        assert_eq!(rmat_draw_count(usize::MAX / 5 * 4 + 3), None);
    }

    #[test]
    fn rmat_is_deterministic() {
        let g1 = rmat(256, 1000, RmatParams::default(), 42);
        let g2 = rmat(256, 1000, RmatParams::default(), 42);
        assert_eq!(g1, g2);
        let g3 = rmat(256, 1000, RmatParams::default(), 43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_hits_edge_target_roughly() {
        let g = rmat(1024, 5000, RmatParams::default(), 7);
        let m = g.num_edges();
        assert!(m > 3500 && m < 6500, "edge count {m} far from target 5000");
    }

    #[test]
    fn rmat_is_skewed_relative_to_er() {
        let n = 2048;
        let m = 16 * n;
        let r = rmat(n, m, RmatParams::default(), 1);
        let e = erdos_renyi(n, m, 1);
        assert!(
            r.max_degree() > 2 * e.max_degree(),
            "rmat max {} vs er max {}",
            r.max_degree(),
            e.max_degree()
        );
    }

    #[test]
    fn rmat_no_self_loops() {
        let g = rmat(128, 600, RmatParams::default(), 3);
        assert!(g.edges().all(|(u, v)| u != v));
    }

    #[test]
    fn erdos_renyi_exact_edge_count() {
        let g = erdos_renyi(100, 500, 9);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn ring_degrees() {
        let g = ring(5);
        assert_eq!(g.num_edges(), 5);
        assert!((0..5).all(|v| g.degree(v) == 1));
        assert!(g.has_edge(4, 0));
    }

    #[test]
    fn star_centre_degree() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10).all(|v| g.degree(v) == 1));
        assert!(g.is_symmetric());
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4);
        // undirected edges: 3*3 horizontal + 2*4 vertical = 17, doubled
        assert_eq!(g.num_edges(), 34);
        assert!(g.is_symmetric());
    }

    #[test]
    fn complete_graph() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 20);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_params() {
        rmat(
            16,
            10,
            RmatParams {
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
            },
            0,
        );
    }
}
