//! Incremental edge-list construction of [`Csr`] graphs.
//!
//! Both [`GraphBuilder`] finalisers, and the R-MAT generator above 2¹⁶
//! vertices, build through `csr_from_replay`, a two-pass counting sort
//! over a replayable edge source: no global sort, and no pair buffer for
//! a source that can regenerate its edges. Up to 2¹⁶ vertices the R-MAT
//! generator builds through `csr_from_packed` instead, which reads its
//! source once, packs each edge into one `u32` key and sorts the keys.
//! Either output is the CSR of the source's edge set (sorted,
//! duplicate-free rows), the same graph the earlier pair-sort builder
//! produced.

use crate::csr::{Csr, VertexId};

/// Accumulates directed edges and finalises them into a [`Csr`].
///
/// Duplicate edges are collapsed; neighbour lists come out sorted, which the
/// CSR's binary-search `has_edge` relies on.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert!((u as usize) < self.n, "source {u} out of range");
        assert!((v as usize) < self.n, "destination {v} out of range");
        self.edges.push((u, v));
        self
    }

    /// Adds both `(u, v)` and `(v, u)`.
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.add_edge(u, v);
        if u != v {
            self.add_edge(v, u);
        }
        self
    }

    /// Bulk-adds directed edges.
    pub fn extend_edges(
        &mut self,
        it: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalises into a CSR, deduplicating and sorting neighbour lists.
    pub fn build(self) -> Csr {
        csr_from_replay(self.n, || self.edges.iter().copied())
    }

    /// Builds the symmetrised graph: every added edge is mirrored.
    pub fn build_symmetric(self) -> Csr {
        csr_from_replay(self.n, || {
            let mirrored = self
                .edges
                .iter()
                .filter(|(u, v)| u != v)
                .map(|&(u, v)| (v, u));
            self.edges.iter().copied().chain(mirrored)
        })
    }
}

/// Builds the CSR of the edge set yielded by `edges()` on `n` vertices.
///
/// `edges` must be *replayable*: every call returns an iterator over the
/// same multiset of edges (order is free). It is called exactly twice:
///
/// 1. count every source's out-degree and prefix-sum the counts into
///    row ends;
/// 2. replay and scatter each destination into an exactly sized
///    `col_idx`, filling each row from its end down to its start.
///
/// Each row is then sorted and deduplicated, and `col_idx` is compacted
/// in place, so the result is a pure function of the edge multiset.
///
/// # Panics
/// Panics if a source is `>= n`, a destination is out of range (via
/// [`Csr::from_raw`]'s validation), or the edge count exceeds `u32`.
pub(crate) fn csr_from_replay<I, F>(n: usize, edges: F) -> Csr
where
    F: Fn() -> I,
    I: Iterator<Item = (VertexId, VertexId)>,
{
    let mut row_ptr = vec![0u32; n + 1];
    let degree = &mut row_ptr[..n];
    for (u, _) in edges() {
        degree[u as usize] += 1;
    }
    // inclusive prefix sum: row_ptr[u] becomes the end of row u
    let mut total = 0u32;
    for end in degree.iter_mut() {
        total = total
            .checked_add(*end)
            .expect("edge count exceeds u32 range");
        *end = total;
    }
    row_ptr[n] = total;

    let mut col_idx = vec![0 as VertexId; total as usize];
    for (u, v) in edges() {
        let slot = &mut row_ptr[u as usize];
        *slot -= 1;
        col_idx[*slot as usize] = v;
    }
    // row_ptr[u] is now the start of row u; rows are contiguous, so row
    // u ends where row u + 1 starts (still unwritten when u is visited)
    let mut kept = 0usize;
    for u in 0..n {
        let (start, end) = (row_ptr[u] as usize, row_ptr[u + 1] as usize);
        col_idx[start..end].sort_unstable();
        row_ptr[u] = kept as u32;
        for i in start..end {
            let v = col_idx[i];
            if i == start || v != col_idx[i - 1] {
                col_idx[kept] = v;
                kept += 1;
            }
        }
    }
    row_ptr[n] = kept as u32;
    col_idx.truncate(kept);
    col_idx.shrink_to_fit();
    Csr::from_raw(row_ptr, col_idx)
}

/// Builds the CSR of the edges `edges` yields on `n` vertices, reading
/// the source once.
///
/// Each edge `(u, v)` becomes the key `(u << shift) | v` in one buffer
/// of `capacity` keys; every key fits because `u, v < n ≤ 2^shift` and
/// `2 · shift ≤ 32`. Sorting the keys sorts the edges by source, then
/// destination. One pass then drops duplicate keys, counts each source's
/// row and compacts the destinations (`key & mask`) into the front of
/// the same buffer, which becomes `col_idx`. A source without self
/// loops has fewer than `n · n ≤ 2³²` distinct keys, so its edge count
/// fits `u32`.
///
/// `capacity` should be an upper bound on the edge count, so the buffer
/// is allocated once.
///
/// # Panics
/// Panics if a source is `>= n` or a destination is out of range (via
/// [`Csr::from_raw`]'s validation), given that both fit in `shift` bits.
pub(crate) fn csr_from_packed(
    n: usize,
    shift: u32,
    capacity: usize,
    edges: impl Iterator<Item = (VertexId, VertexId)>,
) -> Csr {
    debug_assert!(2 * shift <= u32::BITS && n <= 1 << shift);
    let mut keys: Vec<u32> = Vec::with_capacity(capacity);
    keys.extend(edges.map(|(u, v)| (u << shift) | v));
    keys.sort_unstable();
    let mask = (1u32 << shift) - 1;
    let mut row_ptr = vec![0u32; n + 1];
    let mut kept = 0usize;
    // `keys[..kept]` already holds masked destinations, so a key is
    // compared with the last key read, never with a slot behind it
    let mut last = None;
    for i in 0..keys.len() {
        let key = keys[i];
        if last != Some(key) {
            last = Some(key);
            row_ptr[(key >> shift) as usize + 1] += 1;
            keys[kept] = key & mask;
            kept += 1;
        }
    }
    for u in 0..n {
        row_ptr[u + 1] += row_ptr[u];
    }
    keys.truncate(kept);
    keys.shrink_to_fit();
    Csr::from_raw(row_ptr, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_sorted_dedup() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 1)
            .add_edge(0, 3)
            .add_edge(0, 1)
            .add_edge(0, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn trailing_isolated_vertices_closed() {
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        for v in 1..10 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn undirected_edges_mirrored() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 2);
        let g = b.build();
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert!(g.is_symmetric());
    }

    #[test]
    fn symmetrise_after_the_fact() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build_symmetric();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn self_loop_added_once_undirected() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    proptest! {
        #[test]
        fn csr_roundtrips_edge_set(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..200)
        ) {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let mut b = GraphBuilder::new(n);
            b.extend_edges(edges.iter().copied());
            let g = b.build();

            let mut expect: Vec<(u32, u32)> = edges;
            expect.sort_unstable();
            expect.dedup();
            let got: Vec<(u32, u32)> = g.edges().collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn neighbor_lists_sorted(
            n in 1usize..30,
            raw in proptest::collection::vec((0u32..30, 0u32..30), 0..150)
        ) {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)));
            let g = b.build();
            for v in 0..n as u32 {
                let nb = g.neighbors(v);
                prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
            }
        }

        #[test]
        fn transpose_preserves_degree_sum(
            n in 1usize..30,
            raw in proptest::collection::vec((0u32..30, 0u32..30), 0..150)
        ) {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)));
            let g = b.build();
            let t = g.transpose();
            prop_assert_eq!(g.num_edges(), t.num_edges());
            prop_assert_eq!(t.transpose(), g);
        }
    }
}
