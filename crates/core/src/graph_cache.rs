//! A one-graph cache of synthesized graphs keyed by [`GraphSpec`].
//!
//! The paper's evaluation sweeps one dataset many times — input density
//! (§VI-D), array size, mapping and NoC ablations — so a long-running
//! worker sees the same spec many times in a row. Synthesis is a pure
//! function of the spec, so a resolved [`Csr`] can be shared read-only
//! behind an [`Arc`] and reports stay bit-identical to a fresh run.
//!
//! The cache holds at most one graph, and three rules keep it from
//! costing more than it saves:
//!
//! * **Admission on a repeated miss.** A miss replaces the resident
//!   graph only when the previous miss had the same spec key, so a sweep
//!   over one graph is admitted on its second request. A stream of
//!   one-off specs (a distinct R-MAT seed per request) retains no graph
//!   at all; neither do specs that alternate (A, B, A, B).
//! * **A size cap.** A graph over [`GRAPH_CACHE_MAX_BYTES`] is never
//!   admitted.
//! * **No lock across synthesis.** The lock covers the lookup and the
//!   insert only, so concurrent misses synthesize in parallel (two
//!   misses of one spec may both synthesize; the graphs are identical).
//!
//! `Inline` graphs are never cached: the engine borrows them.

use crate::request::{GraphSpec, SimError};
use aurora_graph::{Csr, Dataset};
use std::sync::{Arc, Mutex};

/// The largest graph (CSR array bytes) the cache retains: room for every
/// graph of the standard evaluation protocol (the largest, Reddit at
/// scale 16, is 9.5 MiB; Pubmed is 0.5 MiB), not for full Reddit.
pub const GRAPH_CACHE_MAX_BYTES: usize = 16 << 20;

/// The cacheable spec variants, as a comparable key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecKey {
    Dataset(Dataset, usize),
    Rmat(usize, usize, u64),
    Ring(usize),
}

impl SpecKey {
    fn of(spec: &GraphSpec) -> Option<SpecKey> {
        match *spec {
            GraphSpec::Dataset { dataset, scale } => Some(SpecKey::Dataset(dataset, scale)),
            GraphSpec::Rmat {
                vertices,
                edges,
                seed,
            } => Some(SpecKey::Rmat(vertices, edges, seed)),
            GraphSpec::Ring { vertices } => Some(SpecKey::Ring(vertices)),
            GraphSpec::Inline(_) => None,
        }
    }
}

#[derive(Default)]
struct State {
    resident: Option<(SpecKey, Arc<Csr>)>,
    /// The doorkeeper: the key of the last miss.
    last_miss: Option<SpecKey>,
    hits: u64,
    misses: u64,
}

/// The `GraphSpec → Arc<Csr>` cache. One per worker process; share it
/// by reference across threads.
pub struct GraphCache {
    state: Mutex<State>,
    max_bytes: usize,
}

impl Default for GraphCache {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphCache {
    /// An empty cache capped at [`GRAPH_CACHE_MAX_BYTES`].
    pub fn new() -> Self {
        Self::with_max_bytes(GRAPH_CACHE_MAX_BYTES)
    }

    fn with_max_bytes(max_bytes: usize) -> Self {
        Self {
            state: Mutex::new(State::default()),
            max_bytes,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("graph cache lock poisoned")
    }

    /// Lookups answered by the resident graph.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that synthesized (`Inline` specs are not lookups).
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// CSR bytes of the resident graph (0 when empty; always ≤ the cap).
    pub fn bytes(&self) -> usize {
        self.lock()
            .resident
            .as_ref()
            .map_or(0, |(_, g)| csr_bytes(g))
    }

    /// Resolves `spec`: validates it exactly as [`GraphSpec::resolve`]
    /// does (same typed errors), then answers the resident graph or
    /// synthesizes one, which replaces the resident graph when the
    /// previous miss had the same spec. `Inline` graphs are cloned,
    /// never cached.
    pub fn resolve(&self, spec: &GraphSpec) -> Result<Arc<Csr>, SimError> {
        let Some(key) = SpecKey::of(spec) else {
            return spec.resolve().map(Arc::new);
        };
        spec.validate()?;
        let admit = {
            let mut state = self.lock();
            if let Some((resident, graph)) = &state.resident {
                if *resident == key {
                    let graph = Arc::clone(graph);
                    state.hits += 1;
                    return Ok(graph);
                }
            }
            state.misses += 1;
            state.last_miss.replace(key) == Some(key)
        };
        let graph = Arc::new(spec.resolve()?);
        if admit && csr_bytes(&graph) <= self.max_bytes {
            self.lock().resident = Some((key, Arc::clone(&graph)));
        }
        Ok(graph)
    }
}

/// Heap bytes of a CSR's two arrays.
fn csr_bytes(g: &Csr) -> usize {
    std::mem::size_of_val(g.row_ptr()) + std::mem::size_of_val(g.col_idx())
}

/// Resolves a spec through `graphs` when given, else synthesizes it
/// fresh — the one resolution step of a run and of a session open.
pub(crate) fn resolve_with(
    spec: &GraphSpec,
    graphs: Option<&GraphCache>,
) -> Result<Arc<Csr>, SimError> {
    match graphs {
        Some(cache) => cache.resolve(spec),
        None => spec.resolve().map(Arc::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcceleratorConfig, AuroraSimulator, SimRequest};
    use aurora_model::{LayerShape, ModelId};

    fn request(graph: GraphSpec, density: f64) -> SimRequest {
        SimRequest {
            graph,
            ..SimRequest::builder(ModelId::Gcn)
                .config(AcceleratorConfig::small(4))
                .graph(GraphSpec::Ring { vertices: 8 })
                .layer(LayerShape::new(32, 16))
                .layer(LayerShape::new(16, 8))
                .input_density(density)
                .workload("graph-cache")
                .build()
                .unwrap()
        }
    }

    fn report_json(req: &SimRequest, graphs: Option<&GraphCache>) -> String {
        let mut report = AuroraSimulator::new(req.config)
            .run_with(req, graphs)
            .unwrap();
        report.host_profile = None;
        serde_json::to_string(&report).unwrap()
    }

    fn rmat(seed: u64) -> GraphSpec {
        GraphSpec::Rmat {
            vertices: 256,
            edges: 2_000,
            seed,
        }
    }

    #[test]
    fn cache_hit_reports_match_fresh_runs() {
        for spec in [
            GraphSpec::Dataset {
                dataset: Dataset::Cora,
                scale: 8,
            },
            rmat(3),
            GraphSpec::Ring { vertices: 300 },
        ] {
            let cache = GraphCache::new();
            // two sightings admit; the third and fourth runs hit
            for density in [1.0, 0.5, 0.25, 0.125] {
                let req = request(spec.clone(), density);
                assert_eq!(
                    report_json(&req, Some(&cache)),
                    report_json(&req, None),
                    "{spec:?} at density {density}"
                );
            }
            assert_eq!((cache.misses(), cache.hits()), (2, 2), "{spec:?}");
            assert!(cache.bytes() > 0);
        }
    }

    #[test]
    fn distinct_specs_are_never_admitted() {
        let cache = GraphCache::new();
        for seed in 0..10 {
            cache.resolve(&rmat(seed)).unwrap();
        }
        assert_eq!(cache.bytes(), 0);
        assert_eq!((cache.misses(), cache.hits()), (10, 0));
    }

    #[test]
    fn inline_graphs_bypass_the_cache() {
        let cache = GraphCache::new();
        let inline = GraphSpec::Inline(rmat(1).resolve().unwrap());
        for _ in 0..3 {
            cache.resolve(&inline).unwrap();
        }
        assert_eq!((cache.misses(), cache.hits(), cache.bytes()), (0, 0, 0));
    }

    #[test]
    fn a_graph_over_the_cap_is_never_admitted() {
        let bytes = csr_bytes(&rmat(1).resolve().unwrap());
        let cache = GraphCache::with_max_bytes(bytes - 1);
        for _ in 0..4 {
            cache.resolve(&rmat(1)).unwrap();
        }
        assert_eq!((cache.misses(), cache.hits(), cache.bytes()), (4, 0, 0));
        let exact = GraphCache::with_max_bytes(bytes);
        for _ in 0..3 {
            exact.resolve(&rmat(1)).unwrap();
        }
        assert_eq!((exact.hits(), exact.bytes()), (1, bytes));
    }

    #[test]
    fn an_admitted_graph_replaces_the_resident_one() {
        let cache = GraphCache::new();
        let admit = |seed| {
            cache.resolve(&rmat(seed)).unwrap();
            cache.resolve(&rmat(seed)).unwrap();
            let resident = csr_bytes(&rmat(seed).resolve().unwrap());
            assert_eq!(cache.bytes(), resident, "seed {seed} is the one resident");
            assert!(cache.bytes() <= GRAPH_CACHE_MAX_BYTES);
        };
        admit(1);
        admit(2);
        let hits = cache.hits();
        cache.resolve(&rmat(2)).unwrap();
        assert_eq!(cache.hits(), hits + 1, "seed 2 is resident");
        cache.resolve(&rmat(1)).unwrap();
        assert_eq!(cache.hits(), hits + 1, "seed 1 was replaced");
    }

    #[test]
    fn interleaved_specs_are_never_admitted() {
        let cache = GraphCache::new();
        for _ in 0..3 {
            cache.resolve(&rmat(1)).unwrap();
            cache.resolve(&rmat(2)).unwrap();
        }
        assert_eq!((cache.misses(), cache.hits(), cache.bytes()), (6, 0, 0));
    }

    #[test]
    fn invalid_specs_fail_identically_with_and_without_the_cache() {
        let cache = GraphCache::new();
        for spec in [
            GraphSpec::Dataset {
                dataset: Dataset::Cora,
                scale: 0,
            },
            GraphSpec::Ring {
                vertices: u32::MAX as usize + 1,
            },
            GraphSpec::Rmat {
                vertices: 128,
                edges: usize::MAX,
                seed: 1,
            },
            GraphSpec::Ring { vertices: 0 },
        ] {
            let fresh = spec.resolve().unwrap_err();
            assert_eq!(cache.resolve(&spec).unwrap_err(), fresh, "{spec:?}");
            let req = request(spec.clone(), 1.0);
            let sim = AuroraSimulator::new(req.config);
            assert_eq!(
                sim.run_with(&req, Some(&cache)).unwrap_err(),
                sim.run(&req).unwrap_err(),
                "{spec:?}"
            );
        }
        assert_eq!((cache.misses(), cache.hits()), (0, 0));
    }
}
