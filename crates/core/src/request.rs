//! The unified simulation request API and its wire envelope.
//!
//! A [`SimRequest`] is a *complete, self-contained* description of one
//! simulation: accelerator configuration, graph source, model, layer
//! shapes and options. The paper's methodology (§VI-A) makes a report a
//! deterministic pure function of exactly these inputs — the simulator
//! "monitors the number of arithmetic operations and the number of
//! accesses to each memory hierarchy" from the config/graph/model alone,
//! and the worker pool's ordered-gather contract keeps results
//! bit-identical at every thread count. That purity is what lets
//! `aurora-serve` cache whole reports content-addressed by
//! [`SimRequest::digest`]: digest-equal requests *must* produce
//! byte-equal reports, so a cached answer is exact, never approximate.
//!
//! [`AuroraSimulator::run`](crate::AuroraSimulator::run) is the one
//! canonical entry point consuming a request.

use crate::config::AcceleratorConfig;
use crate::report::SimReport;
use aurora_graph::{generate, Csr, Dataset};
use aurora_model::{LayerShape, ModelId};
use aurora_noc::NocError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Largest vertex count of a synthesized (`Rmat` or `Ring`) graph. The
/// largest in-repo spec has 16,384 vertices; at this limit a ring's CSR
/// is about 200 MB, where `u32::MAX` vertices would need about 32 GB.
pub const MAX_SYNTH_VERTICES: usize = 1 << 24;

/// Largest R-MAT edge target: above the largest paper dataset (Reddit,
/// 114.6M directed edges) and far above the largest in-repo spec
/// (160,000). It also keeps the R-MAT draw count from overflowing.
pub const MAX_SYNTH_EDGES: usize = 1 << 27;

/// Largest PE-array radix. A route table holds 2k³ legs of 12 bytes,
/// about 6 MiB at this limit; k=1000 would need about 24 GB. The largest
/// in-repo radix is 48 (`sweep_radix`).
pub const MAX_K: usize = 64;

/// Widest layer `f_in`/`f_out`: twelve times every in-repo dataset's
/// `feature_dim` (the widest is Nell's 5,414), and far below where
/// `feature_dim * 8` byte counts wrap (a width of 2⁶² divides by zero
/// in `PeConfig::vertex_capacity`).
pub const MAX_LAYER_WIDTH: usize = 1 << 16;

/// Most layers one request may stack: above the deepest published GNNs
/// (about a thousand layers) and far above every in-repo request, which
/// stack a handful. Without it, about 200,000 layers fit in one 4 MiB
/// line, and 2,000 layers on Cora/16 already take 30 ms.
pub const MAX_LAYERS: usize = 1 << 10;

/// Where a request's graph comes from. Every variant is serializable so
/// requests can travel over the `aurora-serve` wire; the spec variants
/// synthesize deterministically (same spec ⇒ same [`Csr`]), which keeps
/// the content-addressed digest honest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphSpec {
    /// One of the paper's datasets, down-scaled by `scale` (1 = full).
    Dataset { dataset: Dataset, scale: usize },
    /// A synthetic R-MAT graph (the perf-harness workloads).
    Rmat {
        vertices: usize,
        edges: usize,
        seed: u64,
    },
    /// A ring lattice (cheap smoke workloads).
    Ring { vertices: usize },
    /// A fully materialised graph carried inline. Used by in-process
    /// callers that already hold a graph; service clients normally send
    /// a spec and let the daemon synthesize, keeping request lines small.
    Inline(Csr),
}

impl GraphSpec {
    /// Resolves the spec to a concrete graph, synthesizing it afresh on
    /// every call (after [`Self::validate`], so an invalid spec costs a
    /// typed error, never a synthesis). `Inline` clones; the engine's
    /// `run` borrows inline graphs instead of calling this. Callers that
    /// see one spec repeatedly resolve through a
    /// [`GraphCache`](crate::GraphCache), which returns the same graph
    /// and the same errors.
    pub fn resolve(&self) -> Result<Csr, SimError> {
        self.validate()?;
        Ok(match self {
            GraphSpec::Dataset { dataset, scale } => dataset.spec().scaled(*scale).synthesize(),
            GraphSpec::Rmat {
                vertices,
                edges,
                seed,
            } => generate::rmat(*vertices, *edges, Default::default(), *seed),
            GraphSpec::Ring { vertices } => generate::ring(*vertices),
            GraphSpec::Inline(g) => g.clone(),
        })
    }

    /// Structural validity of the spec itself (cheap; no synthesis).
    pub fn validate(&self) -> Result<(), SimError> {
        match self {
            GraphSpec::Dataset { scale, .. } if *scale == 0 => Err(SimError::InvalidRequest(
                "dataset scale must be >= 1".into(),
            )),
            GraphSpec::Rmat { vertices: 0, .. } | GraphSpec::Ring { vertices: 0 } => {
                Err(SimError::EmptyGraph)
            }
            GraphSpec::Rmat { vertices, .. } | GraphSpec::Ring { vertices }
                if *vertices > MAX_SYNTH_VERTICES =>
            {
                Err(SimError::InvalidRequest(format!(
                    "{vertices} vertices exceed the synthetic-graph limit of {MAX_SYNTH_VERTICES}"
                )))
            }
            GraphSpec::Rmat { edges, .. } if *edges > MAX_SYNTH_EDGES => {
                Err(SimError::InvalidRequest(format!(
                    "{edges} R-MAT edges exceed the limit of {MAX_SYNTH_EDGES}"
                )))
            }
            // R-MAT keeps unique non-self edges, so more could never be met
            GraphSpec::Rmat {
                vertices, edges, ..
            } if *edges > vertices * (vertices - 1) => Err(SimError::InvalidRequest(format!(
                "{edges} R-MAT edges exceed the distinct non-self edges of {vertices} vertices"
            ))),
            GraphSpec::Inline(g) => {
                g.validate()
                    .map_err(|e| SimError::InvalidRequest(format!("inline graph: {e}")))?;
                if g.num_vertices() == 0 {
                    Err(SimError::EmptyGraph)
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// Short human-readable label, used as the default workload name.
    pub fn label(&self) -> String {
        match self {
            GraphSpec::Dataset { dataset, scale } if *scale <= 1 => dataset.name().to_string(),
            GraphSpec::Dataset { dataset, scale } => format!("{}/{}", dataset.name(), scale),
            GraphSpec::Rmat {
                vertices, edges, ..
            } => format!("rmat-{vertices}v-{edges}e"),
            GraphSpec::Ring { vertices } => format!("ring-{vertices}"),
            GraphSpec::Inline(g) => format!("inline-{}v-{}e", g.num_vertices(), g.num_edges()),
        }
    }
}

/// Per-request options that do not change the hardware model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Free-form label copied into the report.
    pub workload: String,
    /// Input feature density in `[0, 1]` (first layer only; §VI-D).
    pub input_density: f64,
    /// Record the controller instruction trace in the report.
    pub trace_instructions: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            workload: String::new(),
            input_density: 1.0,
            trace_instructions: false,
        }
    }
}

/// FNV-1a/64 over `parts` joined by a `0xff` byte, the hash behind
/// every content digest: [`SimRequest::digest`] (one part),
/// [`chain_digest`](crate::chain_digest) and the router's rendezvous
/// scores (two parts). `0xff` never occurs in UTF-8, so the framing is
/// unambiguous for string parts.
pub fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, part) in parts.iter().enumerate() {
        let sep: &[u8] = if i > 0 { &[0xff] } else { &[] };
        for &b in sep.iter().chain(*part) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Highest request/envelope `version` this build understands. Version 0
/// is the original unversioned schema (absent fields deserialize to 0);
/// version 1 added the field itself plus the session protocol. Servers
/// reject anything above this with a typed `unsupported_version` error
/// instead of guessing at future semantics.
pub const WIRE_VERSION: u32 = 1;

/// A complete, serializable simulation request — the canonical input of
/// [`AuroraSimulator::run`](crate::AuroraSimulator::run) and the unit the
/// `aurora-serve` result cache is keyed on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRequest {
    /// Wire-schema version. `#[serde(default)]` keeps v0 clients (which
    /// omit the field) parseable; [`SimRequest::validate`] rejects
    /// versions above [`WIRE_VERSION`]. The field always serializes, so
    /// a request's digest covers it.
    #[serde(default)]
    pub version: u32,
    pub config: AcceleratorConfig,
    pub graph: GraphSpec,
    pub model: ModelId,
    pub layers: Vec<LayerShape>,
    pub options: SimOptions,
}

impl SimRequest {
    /// Starts a builder for `model`. A graph source and at least one
    /// layer must be supplied before [`SimRequestBuilder::build`].
    pub fn builder(model: ModelId) -> SimRequestBuilder {
        SimRequestBuilder {
            version: 0,
            config: AcceleratorConfig::default(),
            graph: None,
            model,
            layers: Vec::new(),
            options: SimOptions::default(),
        }
    }

    /// Validates the request without running it: the version is
    /// supported, a graph is present and non-empty (spec-level), layers
    /// are non-empty, the density is in range, the configuration is
    /// usable ([`AcceleratorConfig::validate`]) and the layers fit it
    /// ([`validate_layers`]).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.version > WIRE_VERSION {
            return Err(SimError::UnsupportedVersion {
                got: self.version,
                supported: WIRE_VERSION,
            });
        }
        self.graph.validate()?;
        if self.layers.is_empty() {
            return Err(SimError::EmptyLayers);
        }
        if !(0.0..=1.0).contains(&self.options.input_density) {
            return Err(SimError::InvalidDensity {
                density: self.options.input_density,
            });
        }
        self.config.validate()?;
        validate_layers(&self.config, &self.layers)
    }

    /// Content-addressed identity: an FNV-1a 64-bit hash of the
    /// request's canonical (compact, declaration-ordered) JSON, rendered
    /// as 16 hex digits. Two requests share a digest exactly when their
    /// serialized forms are identical, and the engine's determinism
    /// contract then guarantees identical reports — the invariant the
    /// serve cache relies on.
    pub fn digest(&self) -> String {
        let canonical = serde_json::to_string(self).expect("request serializes");
        format!("{:016x}", fnv1a64(&[canonical.as_bytes()]))
    }

    /// The workload label, falling back to the graph's label.
    pub fn workload_label(&self) -> String {
        if self.options.workload.is_empty() {
            self.graph.label()
        } else {
            self.options.workload.clone()
        }
    }
}

/// Rejects a layer chain `config` cannot run, as one typed
/// [`SimError::InvalidRequest`]: more than [`MAX_LAYERS`] layers (checked
/// before any layer is read), a width outside `1..=MAX_LAYER_WIDTH`,
/// an `f_in` that is not the previous layer's `f_out`, or a PE buffer
/// that cannot hold one vertex of the widest layer input
/// (`pe.buffer_bytes < 8 × f_in`). An empty chain passes; callers
/// reject it first.
pub(crate) fn validate_layers(
    config: &AcceleratorConfig,
    layers: &[LayerShape],
) -> Result<(), SimError> {
    if layers.len() > MAX_LAYERS {
        return Err(SimError::InvalidRequest(format!(
            "layers holds {} layers, more than {MAX_LAYERS}",
            layers.len()
        )));
    }
    let mut prev_out: Option<usize> = None;
    for (i, l) in layers.iter().enumerate() {
        for (name, width) in [("f_in", l.f_in), ("f_out", l.f_out)] {
            if !(1..=MAX_LAYER_WIDTH).contains(&width) {
                return Err(SimError::InvalidRequest(format!(
                    "layers[{i}].{name} must be in 1..={MAX_LAYER_WIDTH}, got {width}"
                )));
            }
        }
        if let Some(prev) = prev_out.filter(|&p| p != l.f_in) {
            return Err(SimError::InvalidRequest(format!(
                "layers[{i}].f_in {} does not match layers[{}].f_out {prev}",
                l.f_in,
                i - 1
            )));
        }
        prev_out = Some(l.f_out);
    }
    let widest = layers.iter().map(|l| l.f_in).max().unwrap_or(0);
    if config.pe.buffer_bytes < 8 * widest {
        return Err(SimError::InvalidRequest(format!(
            "config.pe.buffer_bytes {} cannot hold one vertex of layer input width {widest} \
             (needs >= {})",
            config.pe.buffer_bytes,
            8 * widest
        )));
    }
    Ok(())
}

/// Builder for [`SimRequest`] (the ergonomic construction path; wire
/// clients deserialize requests directly).
#[derive(Debug, Clone)]
pub struct SimRequestBuilder {
    version: u32,
    config: AcceleratorConfig,
    graph: Option<GraphSpec>,
    model: ModelId,
    layers: Vec<LayerShape>,
    options: SimOptions,
}

impl SimRequestBuilder {
    /// Wire-schema version to stamp on the request (default 0, the
    /// original schema; must be ≤ [`WIRE_VERSION`]).
    pub fn version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Accelerator configuration (default: the paper's 32×32 instance).
    pub fn config(mut self, config: AcceleratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Any graph source.
    pub fn graph(mut self, graph: GraphSpec) -> Self {
        self.graph = Some(graph);
        self
    }

    /// A paper dataset at `1/scale` size.
    pub fn dataset(self, dataset: Dataset, scale: usize) -> Self {
        self.graph(GraphSpec::Dataset { dataset, scale })
    }

    /// A synthetic R-MAT graph.
    pub fn rmat(self, vertices: usize, edges: usize, seed: u64) -> Self {
        self.graph(GraphSpec::Rmat {
            vertices,
            edges,
            seed,
        })
    }

    /// A fully materialised graph carried inline.
    pub fn inline_graph(self, g: Csr) -> Self {
        self.graph(GraphSpec::Inline(g))
    }

    /// Appends one layer shape.
    pub fn layer(mut self, shape: LayerShape) -> Self {
        self.layers.push(shape);
        self
    }

    /// Replaces the layer list.
    pub fn layers(mut self, shapes: &[LayerShape]) -> Self {
        self.layers = shapes.to_vec();
        self
    }

    /// Workload label for the report.
    pub fn workload(mut self, label: impl Into<String>) -> Self {
        self.options.workload = label.into();
        self
    }

    /// Input feature density (first layer only).
    pub fn input_density(mut self, density: f64) -> Self {
        self.options.input_density = density;
        self
    }

    /// Record the controller instruction trace.
    pub fn trace_instructions(mut self, on: bool) -> Self {
        self.options.trace_instructions = on;
        self
    }

    /// Finishes and validates the request.
    pub fn build(self) -> Result<SimRequest, SimError> {
        let graph = self
            .graph
            .ok_or_else(|| SimError::InvalidRequest("a graph source is required".into()))?;
        let req = SimRequest {
            version: self.version,
            config: self.config,
            graph,
            model: self.model,
            layers: self.layers,
            options: self.options,
        };
        req.validate()?;
        Ok(req)
    }
}

/// Everything that can go wrong running a [`SimRequest`]. These used to
/// be `assert!`/`expect` aborts deep inside the engine; user-reachable
/// inputs now surface as typed errors through
/// [`AuroraSimulator::run`](crate::AuroraSimulator::run).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The layer list is empty.
    EmptyLayers,
    /// The graph has no vertices.
    EmptyGraph,
    /// `try_simulate_batch` was handed no graphs.
    EmptyBatch,
    /// The input feature density is outside `[0, 1]`.
    InvalidDensity { density: f64 },
    /// A structurally invalid request (bad scale, missing graph, k = 0).
    InvalidRequest(String),
    /// The request (or wire envelope) declares a schema version newer
    /// than this build understands.
    UnsupportedVersion { got: u32, supported: u32 },
    /// A [`GraphDelta`](crate::delta::GraphDelta) was malformed or could
    /// not be applied to the session's graph.
    Delta(String),
    /// A session verb referenced an unknown (or expired/evicted) sid.
    UnknownSession(String),
    /// The NoC layer rejected a configuration or could not route a
    /// tile message (carries the typed cause).
    Noc(NocError),
    /// An engine invariant broke (a bug, not a bad request).
    Internal(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyLayers => write!(f, "need at least one layer"),
            SimError::EmptyGraph => write!(f, "graph has no vertices"),
            SimError::EmptyBatch => write!(f, "need at least one graph in the batch"),
            SimError::InvalidDensity { density } => {
                write!(f, "input density {density} outside [0, 1]")
            }
            SimError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            SimError::UnsupportedVersion { got, supported } => {
                write!(f, "wire version {got} not supported (max {supported})")
            }
            SimError::Delta(msg) => write!(f, "invalid delta: {msg}"),
            SimError::UnknownSession(sid) => write!(f, "unknown session: {sid}"),
            SimError::Noc(e) => write!(f, "NoC error: {e}"),
            SimError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<NocError> for SimError {
    fn from(e: NocError) -> Self {
        SimError::Noc(e)
    }
}

impl SimError {
    /// Stable machine-readable kind, used as the wire error code.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::EmptyLayers => "empty_layers",
            SimError::EmptyGraph => "empty_graph",
            SimError::EmptyBatch => "empty_batch",
            SimError::InvalidDensity { .. } => "invalid_density",
            SimError::InvalidRequest(_) => "invalid_request",
            SimError::UnsupportedVersion { .. } => "unsupported_version",
            SimError::Delta(_) => "invalid_delta",
            SimError::UnknownSession(_) => "unknown_session",
            SimError::Noc(_) => "noc",
            SimError::Internal(_) => "internal",
        }
    }
}

/// A typed error on the wire: a stable `kind` plus a human message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    pub kind: String,
    pub message: String,
}

impl WireError {
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            message: message.into(),
        }
    }
}

impl From<&SimError> for WireError {
    fn from(e: &SimError) -> Self {
        WireError::new(e.kind(), e.to_string())
    }
}

/// The response envelope `aurora-serve` writes for every request line:
/// either a report (with its cache provenance) or a typed error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResponse {
    /// Echo of the client-chosen request id.
    pub id: u64,
    /// The request's content digest ([`SimRequest::digest`]); empty when
    /// the request line could not even be parsed.
    pub digest: String,
    /// Whether the report was served from the result cache (or by
    /// joining an identical in-flight simulation) rather than a fresh
    /// engine run.
    pub cached: bool,
    pub report: Option<SimReport>,
    pub error: Option<WireError>,
}

impl SimResponse {
    pub fn ok(id: u64, digest: impl Into<String>, cached: bool, report: SimReport) -> Self {
        Self {
            id,
            digest: digest.into(),
            cached,
            report: Some(report),
            error: None,
        }
    }

    pub fn err(id: u64, digest: impl Into<String>, error: WireError) -> Self {
        Self {
            id,
            digest: digest.into(),
            cached: false,
            report: None,
            error: Some(error),
        }
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.report.is_some() && self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_request() -> SimRequest {
        SimRequest::builder(ModelId::Gcn)
            .rmat(128, 800, 3)
            .layer(LayerShape::new(32, 16))
            .workload("toy")
            .build()
            .expect("valid request")
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            SimRequest::builder(ModelId::Gcn)
                .rmat(128, 800, 3)
                .build()
                .unwrap_err(),
            SimError::EmptyLayers
        );
        assert!(matches!(
            SimRequest::builder(ModelId::Gcn)
                .layer(LayerShape::new(8, 4))
                .build()
                .unwrap_err(),
            SimError::InvalidRequest(_)
        ));
        assert_eq!(
            SimRequest::builder(ModelId::Gcn)
                .rmat(0, 0, 0)
                .layer(LayerShape::new(8, 4))
                .build()
                .unwrap_err(),
            SimError::EmptyGraph
        );
        assert!(matches!(
            SimRequest::builder(ModelId::Gcn)
                .rmat(16, 40, 0)
                .layer(LayerShape::new(8, 4))
                .input_density(1.5)
                .build()
                .unwrap_err(),
            SimError::InvalidDensity { .. }
        ));
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = toy_request();
        let b = toy_request();
        assert_eq!(a.digest(), b.digest(), "equal content, equal digest");
        let c = SimRequest {
            layers: vec![LayerShape::new(32, 8)],
            ..toy_request()
        };
        assert_ne!(a.digest(), c.digest(), "different layers, new digest");
        let d = SimRequest {
            options: SimOptions {
                workload: "renamed".into(),
                ..a.options.clone()
            },
            ..toy_request()
        };
        // the label is part of the content: renaming re-keys the cache
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.digest().len(), 16);
    }

    #[test]
    fn version_gating() {
        // v0 lines (no version field) still parse and validate.
        let json = serde_json::to_string(&toy_request()).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Map(entries) = &mut v {
            entries.retain(|(k, _)| k != "version");
        }
        let back: SimRequest = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(back.version, 0);
        assert!(back.validate().is_ok());
        // the current version is accepted; anything newer is rejected.
        let cur = SimRequest {
            version: WIRE_VERSION,
            ..toy_request()
        };
        assert!(cur.validate().is_ok());
        let future = SimRequest {
            version: WIRE_VERSION + 1,
            ..toy_request()
        };
        let err = future.validate().unwrap_err();
        assert_eq!(err.kind(), "unsupported_version");
        assert!(
            matches!(err, SimError::UnsupportedVersion { got, supported }
            if got == WIRE_VERSION + 1 && supported == WIRE_VERSION)
        );
        // the version participates in the digest (it re-keys the cache).
        assert_ne!(toy_request().digest(), cur.digest());
    }

    #[test]
    fn malformed_inline_csr_is_rejected_by_validate() {
        let inline = SimRequest {
            graph: GraphSpec::Inline(Csr::empty(1)),
            ..toy_request()
        };
        let json = serde_json::to_string(&inline).unwrap();
        let graph = serde_json::to_string(&inline.graph).unwrap();
        assert!(json.contains(&graph));
        // an empty row_ptr (num_vertices() would wrap) and a column
        // index past the vertex count, straight off the wire
        for bad in [
            r#"{"Inline":{"row_ptr":[],"col_idx":[]}}"#,
            r#"{"Inline":{"row_ptr":[0,5],"col_idx":[9]}}"#,
        ] {
            let req: SimRequest = serde_json::from_str(&json.replace(&graph, bad)).unwrap();
            let err = req.validate().unwrap_err();
            assert!(matches!(err, SimError::InvalidRequest(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn oversized_synthetic_specs_are_rejected_by_validate() {
        let too_wide = u32::MAX as usize + 1;
        for graph in [
            GraphSpec::Rmat {
                vertices: too_wide,
                edges: 10,
                seed: 1,
            },
            GraphSpec::Ring { vertices: too_wide },
            GraphSpec::Ring {
                vertices: u32::MAX as usize,
            },
            GraphSpec::Ring {
                vertices: MAX_SYNTH_VERTICES + 1,
            },
            GraphSpec::Rmat {
                vertices: MAX_SYNTH_VERTICES + 1,
                edges: 10,
                seed: 1,
            },
            GraphSpec::Rmat {
                vertices: 128,
                edges: MAX_SYNTH_EDGES + 1,
                seed: 1,
            },
            GraphSpec::Rmat {
                vertices: 128,
                edges: usize::MAX,
                seed: 1,
            },
            GraphSpec::Rmat {
                vertices: 128,
                edges: usize::MAX - usize::MAX / 5,
                seed: 1,
            },
            // more edges than 3 vertices have distinct non-self pairs
            GraphSpec::Rmat {
                vertices: 3,
                edges: MAX_SYNTH_EDGES,
                seed: 1,
            },
        ] {
            let req = SimRequest {
                graph: graph.clone(),
                ..toy_request()
            };
            let err = req.validate().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidRequest(_)),
                "{graph:?}: {err:?}"
            );
            assert_eq!(graph.resolve().unwrap_err(), err);
        }
        // a radix past the limit asks for a route table of 2k³ legs
        for k in [MAX_K + 1, 1000] {
            let mut req = toy_request();
            req.config.k = k;
            assert!(
                matches!(req.validate(), Err(SimError::InvalidRequest(_))),
                "k={k} accepted"
            );
        }
        // the limits themselves are still accepted
        assert!(GraphSpec::Ring {
            vertices: MAX_SYNTH_VERTICES
        }
        .validate()
        .is_ok());
        assert!(GraphSpec::Rmat {
            vertices: MAX_SYNTH_VERTICES,
            edges: MAX_SYNTH_EDGES,
            seed: 1,
        }
        .validate()
        .is_ok());
        assert!(GraphSpec::Rmat {
            vertices: 3,
            edges: 6,
            seed: 1,
        }
        .validate()
        .is_ok());
        let mut req = toy_request();
        req.config.k = MAX_K;
        assert!(req.validate().is_ok());
    }

    #[test]
    fn unrunnable_configs_and_layer_chains_are_typed_errors() {
        let with = |f: fn(&mut SimRequest)| {
            let mut req = toy_request();
            f(&mut req);
            req.validate()
        };
        type Break = fn(&mut SimRequest);
        let broken: [(&str, Break); 12] = [
            ("clock_mhz", |r| r.config.clock_mhz = 0),
            ("pe.lanes", |r| r.config.pe.lanes = 0),
            ("dram_channels", |r| r.config.dram_channels = 0),
            ("feature_fraction", |r| r.config.feature_fraction = -1.0),
            ("link_utilisation", |r| r.config.link_utilisation = 0.0),
            ("layers[0].f_in", |r| r.layers[0].f_in = 0),
            ("layers[0].f_out", |r| r.layers[0].f_out = 0),
            ("layers[0].f_in", |r| {
                r.layers[0] = LayerShape {
                    f_in: 1 << 62,
                    f_out: 1 << 62,
                }
            }),
            ("layers[1].f_in 8 does not match layers[0].f_out 16", |r| {
                r.layers.push(LayerShape::new(8, 4))
            }),
            // one vertex of the 32-wide input needs 256 bytes
            ("pe.buffer_bytes 255", |r| r.config.pe.buffer_bytes = 255),
            ("pe.buffer_bytes 0", |r| r.config.pe.buffer_bytes = 0),
            // the count is checked first: these layers are also too wide
            ("more than 1024", |r| {
                r.layers = vec![LayerShape { f_in: 0, f_out: 0 }; MAX_LAYERS + 1]
            }),
        ];
        for (what, break_it) in broken {
            match with(break_it) {
                Err(SimError::InvalidRequest(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: {other:?}"),
            }
        }
        // the widest allowed layer on a buffer that holds one of its
        // vertices, a buffer of exactly one vertex, and a connected chain
        // are accepted
        assert!(with(|r| {
            r.layers = vec![LayerShape::new(MAX_LAYER_WIDTH, 1)];
            r.config.pe.buffer_bytes = 8 * MAX_LAYER_WIDTH;
        })
        .is_ok());
        assert!(with(|r| r.config.pe.buffer_bytes = 256).is_ok());
        assert!(with(|r| r.layers.push(LayerShape::new(16, 4))).is_ok());
        assert!(with(|r| r.layers = vec![LayerShape::new(32, 32); MAX_LAYERS]).is_ok());
        assert!(with(|r| r.layers[0].f_in = MAX_LAYER_WIDTH + 1).is_err());
    }

    #[test]
    fn request_roundtrips_through_json() {
        let req = toy_request();
        let json = serde_json::to_string(&req).unwrap();
        let back: SimRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.digest(), req.digest());
    }

    #[test]
    fn graph_specs_resolve() {
        let g = GraphSpec::Ring { vertices: 16 }.resolve().unwrap();
        assert_eq!(g.num_vertices(), 16);
        let d = GraphSpec::Dataset {
            dataset: Dataset::Cora,
            scale: 64,
        }
        .resolve()
        .unwrap();
        assert!(d.num_vertices() > 0);
        assert_eq!(
            GraphSpec::Dataset {
                dataset: Dataset::Cora,
                scale: 0
            }
            .resolve()
            .unwrap_err()
            .kind(),
            "invalid_request"
        );
        assert_eq!(
            GraphSpec::Inline(Csr::empty(0)).resolve().unwrap_err(),
            SimError::EmptyGraph
        );
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            GraphSpec::Dataset {
                dataset: Dataset::Cora,
                scale: 1
            }
            .label(),
            "Cora"
        );
        assert_eq!(
            GraphSpec::Dataset {
                dataset: Dataset::Reddit,
                scale: 16
            }
            .label(),
            "Reddit/16"
        );
        assert_eq!(toy_request().workload_label(), "toy");
        let unnamed = SimRequest {
            options: SimOptions::default(),
            ..toy_request()
        };
        assert_eq!(unnamed.workload_label(), "rmat-128v-800e");
    }

    #[test]
    fn response_envelope_roundtrips() {
        let resp = SimResponse::err(7, "abc", WireError::new("overloaded", "queue full"));
        let json = serde_json::to_string(&resp).unwrap();
        let back: SimResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
        assert!(!back.is_ok());
        assert_eq!(back.error.unwrap().kind, "overloaded");
    }
}
