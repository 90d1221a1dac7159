//! The evaluation protocol: datasets, scales and layer shapes.

use aurora_graph::{Dataset, DatasetSpec};
use aurora_model::LayerShape;
use serde::{Deserialize, Serialize};

/// How one dataset is instantiated for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalProtocol {
    pub dataset: Dataset,
    /// Down-scaling factor applied to |V| and |E| (1 = full size). Nell
    /// and Reddit are scaled to keep the figure and sweep binaries,
    /// which run every dataset under every design, interactive: full
    /// Reddit is 57.3 M directed edges, and each run synthesizes its
    /// graph and walks every edge once per layer. Graph synthesis is no
    /// longer the limit: the generator's peak memory is its CSR before
    /// dedup (EXPERIMENTS.md gives full-size wall time and peak memory). Scaling preserves the degree-distribution
    /// shape (R-MAT is self-similar) and the feature/class dimensions
    /// that set per-message volume. DESIGN.md's substitution table
    /// documents this.
    pub scale: usize,
    /// Hidden width of the two-layer GCN (Kipf & Welling use 16).
    pub hidden: usize,
}

impl EvalProtocol {
    /// The paper's five-dataset suite at harness-friendly scales.
    pub fn standard() -> Vec<EvalProtocol> {
        Dataset::ALL
            .iter()
            .map(|&dataset| EvalProtocol {
                dataset,
                scale: match dataset {
                    Dataset::Cora | Dataset::Citeseer | Dataset::Pubmed => 1,
                    Dataset::Nell => 2,
                    Dataset::Reddit => 16,
                },
                hidden: 16,
            })
            .collect()
    }

    /// A miniature suite for fast tests.
    pub fn tiny() -> Vec<EvalProtocol> {
        Dataset::ALL
            .iter()
            .map(|&dataset| EvalProtocol {
                dataset,
                scale: match dataset {
                    Dataset::Cora | Dataset::Citeseer => 4,
                    Dataset::Pubmed => 16,
                    Dataset::Nell => 64,
                    Dataset::Reddit => 512,
                },
                hidden: 16,
            })
            .collect()
    }

    /// The scaled dataset spec.
    pub fn spec(&self) -> DatasetSpec {
        self.dataset.spec().scaled(self.scale)
    }
}

/// The two-layer GCN shapes for a dataset: `F → hidden → classes`.
pub fn shapes_for(spec: &DatasetSpec, hidden: usize) -> [LayerShape; 2] {
    [
        LayerShape::new(spec.feature_dim, hidden),
        LayerShape::new(hidden, spec.classes.max(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_covers_all_datasets() {
        let p = EvalProtocol::standard();
        assert_eq!(p.len(), 5);
        assert!(p
            .iter()
            .any(|e| e.dataset == Dataset::Reddit && e.scale > 1));
        assert!(p.iter().any(|e| e.dataset == Dataset::Cora && e.scale == 1));
    }

    #[test]
    fn shapes_follow_dataset_dims() {
        let spec = Dataset::Cora.spec();
        let s = shapes_for(&spec, 16);
        assert_eq!(s[0].f_in, 1433);
        assert_eq!(s[0].f_out, 16);
        assert_eq!(s[1].f_in, 16);
        assert_eq!(s[1].f_out, 7);
    }
}
