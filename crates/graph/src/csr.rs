//! Compressed-sparse-row adjacency structure.
//!
//! Vertex identifiers are `u32` — the largest evaluated dataset (Reddit,
//! ~233 k vertices / ~11.6 M edges) fits comfortably, and the narrower index
//! type halves the memory traffic of the hot neighbour scans.

use serde::{Deserialize, Serialize};

/// Vertex identifier. The simulator never needs more than `u32::MAX` vertices.
pub type VertexId = u32;

/// A directed graph in compressed-sparse-row form.
///
/// `row_ptr` has `n + 1` entries; the out-neighbours of vertex `v` are
/// `col_idx[row_ptr[v] as usize .. row_ptr[v + 1] as usize]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    row_ptr: Vec<u32>,
    col_idx: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR directly from its raw arrays.
    ///
    /// # Panics
    /// Panics if the arrays break an invariant of [`Self::validate`].
    pub fn from_raw(row_ptr: Vec<u32>, col_idx: Vec<VertexId>) -> Self {
        let g = Self { row_ptr, col_idx };
        if let Err(e) = g.validate() {
            panic!("{e}");
        }
        g
    }

    /// [`Self::from_raw`] without the O(V+E) validation passes — the
    /// invariants are `debug_assert!`ed only. For hot paths that
    /// construct the arrays by direct surgery on an existing CSR and
    /// can prove the invariants structurally (e.g. the session delta
    /// path); everything else should pay for [`Self::from_raw`].
    ///
    /// Callers must uphold everything `from_raw` checks *plus* the
    /// sorted-neighbour-list invariant `has_edge` relies on.
    pub fn from_raw_unchecked(row_ptr: Vec<u32>, col_idx: Vec<VertexId>) -> Self {
        let g = Self { row_ptr, col_idx };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Checks the CSR invariants: `row_ptr` is non-empty, starts at 0,
    /// ends at the edge count and is monotonically non-decreasing, and
    /// every column index is `< n`. A CSR deserialized from untrusted
    /// input must pass this before anything indexes into it.
    pub fn validate(&self) -> Result<(), String> {
        let Some(&last) = self.row_ptr.last() else {
            return Err("row_ptr must have at least one entry".into());
        };
        if self.row_ptr[0] != 0 {
            return Err("row_ptr must start at 0".into());
        }
        if last as usize != self.col_idx.len() {
            return Err(format!(
                "row_ptr must end at the edge count ({last} != {})",
                self.col_idx.len()
            ));
        }
        if !self.row_ptr.windows(2).all(|w| w[0] <= w[1]) {
            return Err("row_ptr must be monotone".into());
        }
        let n = self.num_vertices();
        match self.col_idx.iter().find(|&&c| c as usize >= n) {
            Some(c) => Err(format!("column index {c} out of range (n = {n})")),
            None => Ok(()),
        }
    }

    /// Decomposes into `(row_ptr, col_idx)` — the inverse of
    /// [`Self::from_raw`]. Lets hot paths recycle a retired graph's
    /// allocations instead of freeing them.
    pub fn into_raw(self) -> (Vec<u32>, Vec<VertexId>) {
        (self.row_ptr, self.col_idx)
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            row_ptr: vec![0; n + 1],
            col_idx: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.row_ptr[v + 1] - self.row_ptr[v]) as usize
    }

    /// Out-neighbours of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col_idx[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }

    /// The raw row-pointer array (length `n + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The raw column-index array (length `m`).
    #[inline]
    pub fn col_idx(&self) -> &[VertexId] {
        &self.col_idx
    }

    /// Iterates over all directed edges `(src, dst)` in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Out-degree of every vertex.
    pub fn degrees(&self) -> Vec<u32> {
        self.row_ptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Maximum out-degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.row_ptr
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Whether edge `(u, v)` exists (binary search; neighbour lists are
    /// sorted by [`crate::GraphBuilder`]).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The transpose (reverse) graph: edge `(u, v)` becomes `(v, u)`.
    ///
    /// Uses the standard two-pass counting transpose, O(n + m).
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut counts = vec![0u32; n + 1];
        for &dst in &self.col_idx {
            counts[dst as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut cursor = counts;
        let mut col_idx = vec![0u32; self.num_edges()];
        for (src, dst) in self.edges() {
            let slot = &mut cursor[dst as usize];
            col_idx[*slot as usize] = src;
            *slot += 1;
        }
        // Each destination bucket was filled in ascending source order, so
        // the neighbour lists of the transpose are already sorted.
        Csr { row_ptr, col_idx }
    }

    /// Whether the adjacency is symmetric (every edge has its reverse).
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Returns a copy with a self-loop added at every vertex that lacks one
    /// (GCN aggregates over `N(v) ∪ v`, Eq. 1).
    pub fn with_self_loops(&self) -> Csr {
        let n = self.num_vertices();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.num_edges() + n);
        row_ptr.push(0u32);
        for v in 0..n as u32 {
            let nbrs = self.neighbors(v);
            let mut inserted = false;
            for &u in nbrs {
                if !inserted && u >= v {
                    if u != v {
                        col_idx.push(v);
                    }
                    inserted = true;
                }
                col_idx.push(u);
            }
            if !inserted {
                col_idx.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr { row_ptr, col_idx }
    }

    /// Extracts the subgraph induced on `vertices` (must be sorted,
    /// deduplicated and in range) as an owned graph with relabelled ids
    /// `0..vertices.len()`. Edges with either endpoint outside the set are
    /// dropped.
    ///
    /// # Panics
    /// Panics if `vertices` is unsorted, has duplicates, or leaves range.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> Csr {
        let n = self.num_vertices() as u32;
        assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertex set must be sorted and unique"
        );
        if let Some(&last) = vertices.last() {
            assert!(last < n, "vertex {last} out of range");
        }
        let mut local = vec![u32::MAX; self.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut b = crate::builder::GraphBuilder::new(vertices.len());
        for &v in vertices {
            for &u in self.neighbors(v) {
                if local[u as usize] != u32::MAX {
                    b.add_edge(local[v as usize], local[u as usize]);
                }
            }
        }
        b.build()
    }

    /// Vertex ids sorted by descending out-degree (ties broken by id for
    /// determinism). This is the sort at the heart of Algorithm 1's
    /// high-degree-vertex identification.
    pub fn vertices_by_degree_desc(&self) -> Vec<VertexId> {
        let mut ids: Vec<VertexId> = (0..self.num_vertices() as u32).collect();
        ids.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0
        Csr::from_raw(vec![0, 2, 3, 4], vec![1, 2, 2, 0])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Csr::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn edges_iterator_matches_neighbors() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let g = triangle();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u), "missing reversed edge ({v},{u})");
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let g = triangle();
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn self_loops_added_once() {
        let g = triangle();
        let s = g.with_self_loops();
        assert_eq!(s.num_edges(), g.num_edges() + 3);
        for v in 0..3 {
            assert!(s.has_edge(v, v));
        }
        // Idempotent.
        assert_eq!(s.with_self_loops(), s);
    }

    #[test]
    fn self_loops_keep_sorted_neighbors() {
        let g = Csr::from_raw(vec![0, 1, 2], vec![1, 0]);
        let s = g.with_self_loops();
        for v in 0..s.num_vertices() as u32 {
            let nb = s.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted: {nb:?}");
        }
    }

    #[test]
    fn symmetric_detection() {
        let sym = Csr::from_raw(vec![0, 1, 2], vec![1, 0]);
        assert!(sym.is_symmetric());
        assert!(!triangle().is_symmetric());
    }

    #[test]
    fn degree_sort_descending_stable() {
        let g = triangle();
        let order = g.vertices_by_degree_desc();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = triangle(); // 0->1, 0->2, 1->2, 2->0
        let s = g.induced_subgraph(&[0, 2]);
        assert_eq!(s.num_vertices(), 2);
        // kept: 0->2 (as 0->1) and 2->0 (as 1->0); dropped: edges touching 1
        assert_eq!(s.num_edges(), 2);
        assert!(s.has_edge(0, 1) && s.has_edge(1, 0));
    }

    #[test]
    fn induced_subgraph_empty_set() {
        let s = triangle().induced_subgraph(&[]);
        assert_eq!(s.num_vertices(), 0);
        assert_eq!(s.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn induced_subgraph_rejects_unsorted() {
        triangle().induced_subgraph(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_rejects_nonmonotone() {
        let _ = Csr::from_raw(vec![0, 2, 1, 4], vec![1, 2, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_raw_rejects_bad_column() {
        let _ = Csr::from_raw(vec![0, 1], vec![7]);
    }

    #[test]
    #[should_panic(expected = "edge count")]
    fn from_raw_rejects_bad_tail() {
        let _ = Csr::from_raw(vec![0, 3], vec![0]);
    }

    #[test]
    fn validate_rejects_each_broken_invariant() {
        let bad = [
            (vec![], vec![]),
            (vec![1, 1], vec![0]),
            (vec![0, 5], vec![9]),
            (vec![0, 2, 1, 2], vec![0, 1]),
            (vec![0, 1], vec![1]),
        ];
        for (row_ptr, col_idx) in bad {
            let g = Csr { row_ptr, col_idx };
            assert!(g.validate().is_err(), "{g:?} passed validate");
        }
        assert_eq!(triangle().validate(), Ok(()));
        assert_eq!(Csr::empty(0).validate(), Ok(()));
    }
}
