//! The five-dataset catalog of the paper's evaluation (§VI-A).
//!
//! The raw datasets (Planetoid citation graphs, NELL, Reddit) are not
//! redistributable here, so each is *synthesised*: an R-MAT graph with the
//! published vertex count, edge count, feature width, class count and
//! feature density. Everything the cycle-level simulator consumes — degree
//! distribution shape, |V|, |E|, feature dimensions, sparsity — is matched;
//! the numeric feature values themselves never influence cycle counts.
//!
//! [`DatasetSpec::scaled`] produces a proportionally smaller instance, which
//! keeps whole-suite sweeps over the largest graphs (Reddit) interactive;
//! the experiment harness documents which scale each figure uses.

use crate::csr::Csr;
use crate::generate::{rmat, RmatParams};
use serde::{Deserialize, Serialize};

/// The evaluated datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    Cora,
    Citeseer,
    Pubmed,
    Nell,
    Reddit,
}

impl Dataset {
    /// All five, in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Cora,
        Dataset::Citeseer,
        Dataset::Pubmed,
        Dataset::Nell,
        Dataset::Reddit,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Cora => "Cora",
            Dataset::Citeseer => "Citeseer",
            Dataset::Pubmed => "Pubmed",
            Dataset::Nell => "Nell",
            Dataset::Reddit => "Reddit",
        }
    }

    /// The published statistics for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Cora => DatasetSpec {
                dataset: self,
                vertices: 2_708,
                edges: 10_556,
                feature_dim: 1_433,
                classes: 7,
                feature_density: 0.0127,
            },
            Dataset::Citeseer => DatasetSpec {
                dataset: self,
                vertices: 3_327,
                edges: 9_104,
                feature_dim: 3_703,
                classes: 6,
                feature_density: 0.0085,
            },
            Dataset::Pubmed => DatasetSpec {
                dataset: self,
                vertices: 19_717,
                edges: 88_648,
                feature_dim: 500,
                classes: 3,
                feature_density: 0.10,
            },
            Dataset::Nell => DatasetSpec {
                dataset: self,
                vertices: 65_755,
                edges: 251_550,
                feature_dim: 5_414,
                classes: 210,
                feature_density: 0.00011,
            },
            Dataset::Reddit => DatasetSpec {
                dataset: self,
                vertices: 232_965,
                edges: 114_615_892 / 2, // directed edge count of the symmetric graph / 2 per side
                feature_dim: 602,
                classes: 41,
                // §VI-D: "the density of feature vectors in Reddit (larger
                // than 50%) is higher than that of other datasets".
                feature_density: 0.516,
            },
        }
    }
}

/// Published statistics of a dataset, plus synthesis helpers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    pub dataset: Dataset,
    /// |V|.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Input feature vector width.
    pub feature_dim: usize,
    /// Output classes (width of the final layer).
    pub classes: usize,
    /// Fraction of nonzero entries in the input feature matrix.
    pub feature_density: f64,
}

impl DatasetSpec {
    /// A proportionally scaled-down copy: vertex and edge counts divided by
    /// `factor` (feature dimensions unchanged — they set per-message volume,
    /// not graph size). `factor = 1` returns the full-size spec.
    pub fn scaled(&self, factor: usize) -> DatasetSpec {
        assert!(factor >= 1);
        DatasetSpec {
            vertices: (self.vertices / factor).max(8),
            edges: (self.edges / factor).max(8),
            ..*self
        }
    }

    /// Average degree implied by the published counts.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }

    /// Synthesises the graph structure: a deterministic R-MAT instance with
    /// the spec's vertex and edge counts (seeded by the dataset name so each
    /// dataset gets a distinct but reproducible topology).
    pub fn synthesize(&self) -> Csr {
        let seed = self
            .dataset
            .name()
            .bytes()
            .fold(0xA02_u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        rmat(self.vertices, self.edges, RmatParams::default(), seed)
    }

    /// Bytes of one double-precision feature vector.
    pub fn feature_bytes(&self) -> usize {
        self.feature_dim * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_ordered() {
        let names: Vec<_> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["Cora", "Citeseer", "Pubmed", "Nell", "Reddit"]);
    }

    #[test]
    fn specs_match_published_sizes() {
        let cora = Dataset::Cora.spec();
        assert_eq!(cora.vertices, 2708);
        assert_eq!(cora.feature_dim, 1433);
        assert_eq!(cora.classes, 7);
        let reddit = Dataset::Reddit.spec();
        assert!(
            reddit.feature_density > 0.5,
            "Reddit is >50% dense per §VI-D"
        );
        assert!(reddit.vertices > Dataset::Nell.spec().vertices);
    }

    #[test]
    fn scaling_reduces_proportionally() {
        let s = Dataset::Pubmed.spec();
        let t = s.scaled(10);
        assert_eq!(t.vertices, s.vertices / 10);
        assert_eq!(t.edges, s.edges / 10);
        assert_eq!(t.feature_dim, s.feature_dim);
    }

    #[test]
    fn scaling_never_degenerates() {
        let t = Dataset::Cora.spec().scaled(1_000_000);
        assert!(t.vertices >= 8 && t.edges >= 8);
    }

    #[test]
    fn synthesis_matches_spec_roughly() {
        let spec = Dataset::Cora.spec();
        let g = spec.synthesize();
        assert_eq!(g.num_vertices(), spec.vertices);
        let m = g.num_edges() as f64;
        let target = spec.edges as f64;
        assert!(
            (m - target).abs() / target < 0.3,
            "edges {m} vs target {target}"
        );
    }

    #[test]
    fn synthesis_is_deterministic_per_dataset() {
        let a = Dataset::Citeseer.spec().scaled(4).synthesize();
        let b = Dataset::Citeseer.spec().scaled(4).synthesize();
        assert_eq!(a, b);
        let c = Dataset::Cora.spec().scaled(4).synthesize();
        assert_ne!(a.num_vertices(), c.num_vertices());
    }

    #[test]
    fn synthesized_graphs_are_skewed() {
        let g = Dataset::Pubmed.spec().scaled(8).synthesize();
        assert!(
            g.max_degree() as f64 > 5.0 * g.avg_degree(),
            "expected power-law skew: max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }
}
