//! Bypass-segment planning: "the bypassing links will be used to bridge
//! the longest communications for each high-degree vertex" (§IV).
//!
//! Under XY routing, every message to a high-degree vertex `hv` at
//! `(x, y)` finishes its journey on **column `x`** (the vertical leg) and
//! the messages injected by `hv`'s own row peers travel along **row `y`**.
//! For each high-degree vertex we therefore plan:
//!
//! * a vertical segment on column `x` spanning the sender rows' extremes;
//! * a horizontal segment on row `y` spanning the same-row senders'
//!   extremes.
//!
//! Each physical row/column has a single bypass wire, so when several
//! high-degree vertices want a segment on the same row/column the longest
//! requirement wins. (The N-Queen placement makes such collisions rare:
//! S_PEs occupy distinct rows and columns.)

use crate::MapView;
use serde::{Deserialize, Serialize};

/// One planned express segment (crate-neutral mirror of the NoC's
/// `BypassSegment`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentPlan {
    /// Row index (horizontal) or column index (vertical).
    pub index: usize,
    pub from: usize,
    pub to: usize,
}

impl SegmentPlan {
    /// Segment length in hops bridged.
    pub fn span(&self) -> usize {
        self.to - self.from
    }
}

/// Reusable working memory for [`plan_bypass_into`]: the per-row/column
/// span slots and the per-vertex high-degree membership flags. The flag
/// slab turns the membership test from an O(N_HN) scan per edge (the
/// historical hot spot of tile precompute) into one byte load, and a
/// warmed-up scratch plans without allocating.
#[derive(Debug, Default)]
pub struct PlanScratch {
    row_span: Vec<Option<(usize, usize)>>,
    col_span: Vec<Option<(usize, usize)>>,
    /// `is_high[v - range.start]`; only the bits set for the current
    /// tile's high-degree list are ever true, and they are cleared again
    /// on exit, so growth is the only cost of a larger tile.
    is_high: Vec<bool>,
}

impl PlanScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Plans bypass segments for the communication pattern `edges` (messages
/// flow `src → dst`; for aggregation that is neighbour → centre) under
/// `mapping`, emitting into caller-provided segment buffers (each must
/// hold at least `k` entries — one physical wire per row/column bounds
/// the plan). Returns the number of row and column segments written.
/// Edges touching vertices outside the mapped range are skipped (they
/// travel via DRAM, not the NoC).
pub fn plan_bypass_into(
    mapping: &MapView<'_>,
    edges: impl Iterator<Item = (u32, u32)>,
    scratch: &mut PlanScratch,
    rows_out: &mut [SegmentPlan],
    cols_out: &mut [SegmentPlan],
) -> (usize, usize) {
    let k = mapping.k;
    assert!(
        rows_out.len() >= k && cols_out.len() >= k,
        "segment outputs must hold k entries"
    );
    let start = mapping.range.start;
    let n = (mapping.range.end - start) as usize;
    scratch.row_span.clear();
    scratch.row_span.resize(k, None);
    scratch.col_span.clear();
    scratch.col_span.resize(k, None);
    if scratch.is_high.len() < n {
        scratch.is_high.resize(n, false);
    }
    for &hv in mapping.high_degree {
        scratch.is_high[(hv - start) as usize] = true;
    }

    // With no high-degree vertices no edge passes the filter below —
    // skip the O(E) scan outright.
    let n_u32 = mapping.range.end - start;
    if !mapping.high_degree.is_empty() {
        for (src, dst) in edges {
            // single-compare range test: out-of-range wraps to a huge value
            let ls = src.wrapping_sub(start);
            let ld = dst.wrapping_sub(start);
            if ls >= n_u32 || ld >= n_u32 {
                continue;
            }
            if !scratch.is_high[ld as usize] && !scratch.is_high[ls as usize] {
                continue;
            }
            let s_pe = mapping.pe_of[ls as usize] as usize;
            let d_pe = mapping.pe_of[ld as usize] as usize;
            let (sx, sy) = (s_pe % k, s_pe / k);
            let (dx, dy) = (d_pe % k, d_pe / k);
            // XY route: horizontal leg on row sy, vertical leg on column dx.
            if sx != dx {
                let (a, b) = (sx.min(dx), sx.max(dx));
                widen(&mut scratch.row_span[sy], a, b);
            }
            if sy != dy {
                let (a, b) = (sy.min(dy), sy.max(dy));
                widen(&mut scratch.col_span[dx], a, b);
            }
        }
    }

    // reset only the flags this tile set; the slab stays warm
    for &hv in mapping.high_degree {
        scratch.is_high[(hv - start) as usize] = false;
    }

    let emit = |spans: &[Option<(usize, usize)>], out: &mut [SegmentPlan]| {
        let mut len = 0usize;
        for (index, s) in spans.iter().enumerate() {
            if let Some((from, to)) = *s {
                // an express link over adjacent routers buys nothing
                if to - from >= 2 {
                    out[len] = SegmentPlan { index, from, to };
                    len += 1;
                }
            }
        }
        len
    };
    let n_rows = emit(&scratch.row_span, rows_out);
    let n_cols = emit(&scratch.col_span, cols_out);
    (n_rows, n_cols)
}

fn widen(slot: &mut Option<(usize, usize)>, a: usize, b: usize) {
    *slot = Some(match *slot {
        None => (a, b),
        Some((x, y)) => {
            // keep the single widest span (one physical wire per row/col)
            if b - a > y - x {
                (a, b)
            } else {
                (x, y)
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{degree_aware, VertexMapping};
    use aurora_graph::generate;

    /// The planned bypass configuration for one mapped subgraph.
    #[derive(Debug)]
    struct BypassPlan {
        rows: Vec<SegmentPlan>,
        cols: Vec<SegmentPlan>,
    }

    /// The independent reference planner [`plan_bypass_into`] is checked
    /// against: owned outputs, a linear high-degree membership scan and
    /// coordinates from [`VertexMapping::coord_of`].
    fn plan_bypass(mapping: &VertexMapping, edges: impl Iterator<Item = (u32, u32)>) -> BypassPlan {
        let k = mapping.k;
        // per row/col: the widest requested span
        let mut row_span: Vec<Option<(usize, usize)>> = vec![None; k];
        let mut col_span: Vec<Option<(usize, usize)>> = vec![None; k];
        let is_high = |v: u32| mapping.high_degree.contains(&v);

        for (src, dst) in edges {
            if !mapping.range.contains(&src) || !mapping.range.contains(&dst) {
                continue;
            }
            if !is_high(dst) && !is_high(src) {
                continue;
            }
            let (sx, sy) = mapping.coord_of(src);
            let (dx, dy) = mapping.coord_of(dst);
            // XY route: horizontal leg on row sy, vertical leg on column dx.
            if sx != dx {
                let (a, b) = (sx.min(dx), sx.max(dx));
                widen(&mut row_span[sy], a, b);
            }
            if sy != dy {
                let (a, b) = (sy.min(dy), sy.max(dy));
                widen(&mut col_span[dx], a, b);
            }
        }

        let collect = |spans: &[Option<(usize, usize)>]| {
            spans
                .iter()
                .enumerate()
                .filter_map(|(index, s)| {
                    s.and_then(|(from, to)| {
                        // an express link over adjacent routers buys nothing
                        (to - from >= 2).then_some(SegmentPlan { index, from, to })
                    })
                })
                .collect()
        };
        BypassPlan {
            rows: collect(&row_span),
            cols: collect(&col_span),
        }
    }

    #[test]
    fn star_gets_column_bridge() {
        let g = generate::star(16);
        let m = degree_aware::map(0..16, &g.degrees(), 4, 2);
        let plan = plan_bypass(&m, g.edges());
        let (hx, _) = m.coord_of(0);
        // spokes converge on the hub's column
        assert!(
            plan.cols.iter().any(|s| s.index == hx && s.span() >= 2),
            "expected a vertical bridge on column {hx}: {plan:?}"
        );
    }

    #[test]
    fn no_high_degree_no_plan() {
        let g = generate::ring(16); // uniform degree 1: top-(K−1)·C_PE still
                                    // selects vertices, but spans stay short
        let m = degree_aware::map(0..16, &g.degrees(), 4, 2);
        let plan = plan_bypass(&m, g.edges());
        // all planned segments must be genuine (span ≥ 2) and within range
        for s in plan.rows.iter().chain(&plan.cols) {
            assert!(s.span() >= 2);
            assert!(s.index < 4 && s.to < 4);
        }
    }

    #[test]
    fn at_most_one_segment_per_row_and_column() {
        let g = generate::rmat(64, 600, Default::default(), 9);
        let m = degree_aware::map(0..64, &g.degrees(), 4, 4);
        let plan = plan_bypass(&m, g.edges());
        let rows: std::collections::HashSet<_> = plan.rows.iter().map(|s| s.index).collect();
        assert_eq!(rows.len(), plan.rows.len());
        let cols: std::collections::HashSet<_> = plan.cols.iter().map(|s| s.index).collect();
        assert_eq!(cols.len(), plan.cols.len());
    }

    #[test]
    fn into_variant_matches_legacy_with_reused_scratch() {
        let mut scratch = PlanScratch::new();
        for seed in 0..6 {
            let g = generate::rmat(64, 600, Default::default(), seed);
            let m = degree_aware::map(0..64, &g.degrees(), 4, 4);
            let reference = plan_bypass(&m, g.edges());
            let mut rows = [SegmentPlan::default(); 4];
            let mut cols = [SegmentPlan::default(); 4];
            let (nr, nc) =
                plan_bypass_into(&m.view(), g.edges(), &mut scratch, &mut rows, &mut cols);
            assert_eq!(&rows[..nr], reference.rows.as_slice());
            assert_eq!(&cols[..nc], reference.cols.as_slice());
        }
    }

    #[test]
    fn out_of_range_edges_ignored() {
        let g = generate::star(16);
        let m = degree_aware::map(0..8, &g.degrees()[..8].to_vec().clone(), 4, 2);
        // edges referencing vertices ≥ 8 must be skipped silently
        let plan = plan_bypass(&m, g.edges());
        for s in plan.rows.iter().chain(&plan.cols) {
            assert!(s.to < 4);
        }
    }
}
