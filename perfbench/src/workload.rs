//! The three workloads and the seeded inputs they send.
//!
//! Every timed op is one NDJSON line on the router socket. The seed
//! picks the timed lines; the set-up lines (whose simulated cycles form
//! the `sim_cycles` metric) are the same for every seed, so that sum
//! repeats exactly from run to run.

use aurora_core::{chain_digest, AcceleratorConfig, GraphDelta, SimRequest, WIRE_VERSION};
use aurora_graph::{generate, Csr, Dataset};
use aurora_model::{LayerShape, ModelId};
use std::collections::HashSet;

/// splitmix64: a small, fully specified generator, so a seed means the
/// same inputs on every platform and build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pubmed, 2-layer GCN (hidden 16) on the paper's 32×32 array; each
    /// request a distinct input density, so every one misses the cache.
    PaperK32,
    /// R-MAT 16k vertices / 160k edges at k=8, GCN 256→64→16; each
    /// request a distinct R-MAT seed.
    RmatK8,
    /// One session delta, then four cached one-shot reads, repeated.
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperK32, Workload::RmatK8, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperK32 => "paper-k32",
            Workload::RmatK8 => "rmat-k8",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A one-shot read (a `sim` line) or a write (a `session` delta line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// What a reply must be for the op to count as correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A fresh engine run (`cached: false`) answered under this digest.
    Miss { digest: String },
    /// A cache hit byte-identical to the primed reply `index`.
    Hit { index: usize },
    /// A session delta answered under the chained `digest`. `window` and
    /// `revert` say which report it must reproduce.
    Delta {
        digest: String,
        window: usize,
        revert: bool,
    },
}

/// One timed op: the wire line plus the check its reply must pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: Kind,
    pub line: String,
    /// The digest the router logs for this line (the session id for
    /// session lines).
    pub route_digest: String,
    pub expect: Expect,
}

pub fn sim_line(id: u64, req: &SimRequest) -> String {
    format!(
        "{{\"id\":{id},\"version\":{WIRE_VERSION},\"sim\":{}}}",
        serde_json::to_string(req).expect("request serializes")
    )
}

fn session_line(id: u64, session: &str) -> String {
    format!("{{\"id\":{id},\"version\":{WIRE_VERSION},\"session\":{session}}}")
}

pub fn open_line(id: u64, req: &SimRequest) -> String {
    let cmd = format!(
        "{{\"op\":\"open\",\"sim\":{}}}",
        serde_json::to_string(req).expect("request serializes")
    );
    session_line(id, &cmd)
}

fn delta_line(id: u64, sid: &str, delta: &GraphDelta) -> String {
    let cmd = format!(
        "{{\"op\":\"delta\",\"sid\":\"{sid}\",\"delta\":{}}}",
        serde_json::to_string(delta).expect("delta serializes")
    );
    session_line(id, &cmd)
}

pub fn close_line(id: u64, sid: &str) -> String {
    session_line(id, &format!("{{\"op\":\"close\",\"sid\":\"{sid}\"}}"))
}

fn request(
    label: &str,
    config: AcceleratorConfig,
    build: impl FnOnce(aurora_core::SimRequestBuilder) -> aurora_core::SimRequestBuilder,
) -> SimRequest {
    build(SimRequest::builder(ModelId::Gcn))
        .version(WIRE_VERSION)
        .config(config)
        .workload(label)
        .build()
        .expect("benchmark requests are valid")
}

/// The `EvalProtocol` Pubmed cell: full size, GCN F→16→classes, k=32.
pub fn paper_k32(density: f64) -> SimRequest {
    let spec = Dataset::Pubmed.spec();
    request("paper-k32", AcceleratorConfig::default(), |b| {
        b.dataset(Dataset::Pubmed, 1)
            .layers(&[
                LayerShape::new(spec.feature_dim, 16),
                LayerShape::new(16, spec.classes.max(2)),
            ])
            .input_density(density)
    })
}

/// The `engine_kernel_bench` / `perf_regress` R-MAT shape at k=8 with a
/// GNN-realistic first layer.
pub fn rmat_k8(graph_seed: u64) -> SimRequest {
    request("rmat-k8", AcceleratorConfig::small(8), |b| {
        b.rmat(16_384, 160_000, graph_seed)
            .layers(&[LayerShape::new(256, 64), LayerShape::new(64, 16)])
    })
}

/// `delta_bench`'s session base: rmat-16k, one GCN layer 256→64, k=8.
pub fn mix_base() -> SimRequest {
    request("serve-mix", AcceleratorConfig::small(8), |b| {
        b.rmat(16_384, 160_000, 9).layer(LayerShape::new(256, 64))
    })
}

/// The eight small one-shot requests `serve-mix` reads back from cache.
pub fn mix_reads() -> Vec<SimRequest> {
    (1..=8)
        .map(|seed| {
            request("serve-mix-read", AcceleratorConfig::small(8), |b| {
                b.rmat(1_024, 8_000, seed)
                    .layers(&[LayerShape::new(64, 32), LayerShape::new(32, 16)])
            })
        })
        .collect()
}

/// The seed-independent requests each set-up answers; their simulated
/// cycles sum to `sim_cycles`. For `serve-mix` the session open and the
/// reads are set up separately (see [`Workload::ServeMix`]).
pub fn fixed_set(workload: Workload) -> Vec<SimRequest> {
    match workload {
        Workload::PaperK32 => vec![paper_k32(1.0), paper_k32(0.5)],
        Workload::RmatK8 => vec![rmat_k8(1), rmat_k8(2)],
        Workload::ServeMix => mix_reads(),
    }
}

/// Vertices per sliding window and edits per delta, as in `delta_bench`:
/// 200 removals plus 200 insertions is 0.25% of 160k edges.
const WINDOW: u32 = 128;
const CHURN: usize = 160_000 / 800;
/// Windows per lap of the stream.
const WINDOWS: usize = 32;

/// The timed op stream of one workload, generated from the seed.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    next_id: u64,
    issued: u64,
    seen_densities: HashSet<u64>,
    mix: Option<MixStream>,
}

/// The `serve-mix` write side: per window a delta and its inverse,
/// both drawn against the base graph. Applying them in pairs returns
/// the session to the base graph after every second write, so each
/// revert must reproduce the open report and each lap the first lap's
/// reports.
pub struct MixStream {
    sid: String,
    head: String,
    writes: usize,
    deltas: Vec<GraphDelta>,
    /// The read lines and their digests, serialized once.
    reads: Vec<(String, String)>,
}

impl MixStream {
    fn new(base: &Csr, sid: String, rng: &mut Rng) -> Self {
        // the windows stride the vertex range at fixed places, so every
        // seed dirties the same tiles; the seed picks the edges
        let stride = base.num_vertices() as u32 / WINDOWS as u32;
        let deltas = (0..WINDOWS as u32)
            .map(|w| window_delta(base, w * stride..w * stride + WINDOW, CHURN, rng))
            .collect();
        let reads = mix_reads()
            .iter()
            .enumerate()
            .map(|(i, req)| (sim_line(read_id(i), req), req.digest()))
            .collect();
        Self {
            head: sid.clone(),
            sid,
            writes: 0,
            deltas,
            reads,
        }
    }

    /// The `i`-th write's delta: window `i / 2 mod WINDOWS`, inverted
    /// on odd `i`.
    pub fn delta(&self, i: usize) -> (usize, bool, GraphDelta) {
        let window = (i / 2) % self.deltas.len();
        let d = &self.deltas[window];
        if i.is_multiple_of(2) {
            (window, false, d.clone())
        } else {
            let inverse = GraphDelta {
                insert_edges: d.remove_edges.clone(),
                remove_edges: d.insert_edges.clone(),
                ..GraphDelta::default()
            };
            (window, true, inverse)
        }
    }
}

/// One sliding-window delta against `g` (`delta_bench`'s shape): remove
/// `churn` existing edges sourced inside `window`, insert as many new
/// ones sourced there.
fn window_delta(g: &Csr, window: std::ops::Range<u32>, churn: usize, rng: &mut Rng) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let mut in_window: Vec<(u32, u32)> = window
        .clone()
        .flat_map(|v| g.neighbors(v).iter().map(move |&d| (v, d)))
        .collect();
    let mut remove_edges: Vec<(u32, u32)> = (0..churn.min(in_window.len()))
        .map(|_| in_window.swap_remove(rng.below(in_window.len() as u64) as usize))
        .collect();
    remove_edges.sort_unstable();
    let mut insert_edges: Vec<(u32, u32)> = Vec::with_capacity(remove_edges.len());
    while insert_edges.len() < remove_edges.len() {
        let u = window.start + rng.below((window.end - window.start) as u64) as u32;
        let v = rng.below(n) as u32;
        if u != v
            && !g.has_edge(u, v)
            && !insert_edges.contains(&(u, v))
            && remove_edges.binary_search(&(u, v)).is_err()
        {
            insert_edges.push((u, v));
        }
    }
    insert_edges.sort_unstable();
    GraphDelta {
        insert_edges,
        remove_edges,
        ..GraphDelta::default()
    }
}

impl Stream {
    /// The timed stream for `workload` under `seed`. `serve-mix` needs
    /// its session base graph to draw deltas against.
    pub fn new(workload: Workload, seed: u64, mix_graph: Option<&Csr>) -> Self {
        let mut rng = Rng::new(seed ^ 0xa0a0_5eed_0000_0000);
        let mix = (workload == Workload::ServeMix).then(|| {
            let g = mix_graph.expect("serve-mix needs its base graph");
            MixStream::new(g, mix_base().digest(), &mut rng)
        });
        Self {
            workload,
            rng,
            next_id: 1_000,
            issued: 0,
            seen_densities: HashSet::new(),
            mix,
        }
    }

    pub fn mix(&self) -> Option<&MixStream> {
        self.mix.as_ref()
    }

    /// The next timed op.
    pub fn next_op(&mut self) -> Op {
        let id = self.next_id;
        self.next_id += 1;
        let n = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::PaperK32 => {
                // a distinct density per request, in millionths, away
                // from the fixed set's 1.0 and 0.5
                let density = loop {
                    let micros = 50_000 + self.rng.below(900_000);
                    if micros != 500_000 && self.seen_densities.insert(micros) {
                        break micros as f64 / 1e6;
                    }
                };
                miss_op(id, &paper_k32(density))
            }
            // seeds at or above 2^32 never meet the fixed set's 1 and 2
            Workload::RmatK8 => miss_op(id, &rmat_k8(self.rng.next_u64() | 1 << 32)),
            Workload::ServeMix => {
                let mix = self.mix.as_mut().expect("serve-mix stream");
                if n.is_multiple_of(5) {
                    let (window, revert, delta) = mix.delta(mix.writes);
                    mix.writes += 1;
                    mix.head = chain_digest(&mix.head, &delta);
                    Op {
                        kind: Kind::Write,
                        line: delta_line(id, &mix.sid, &delta),
                        route_digest: mix.sid.clone(),
                        expect: Expect::Delta {
                            digest: mix.head.clone(),
                            window,
                            revert,
                        },
                    }
                } else {
                    // reads reuse their priming id, so a hit's reply is
                    // byte-identical to the primed one
                    let index = ((n - n / 5 - 1) as usize) % mix.reads.len();
                    let (line, digest) = &mix.reads[index];
                    Op {
                        kind: Kind::Read,
                        line: line.clone(),
                        route_digest: digest.clone(),
                        expect: Expect::Hit { index },
                    }
                }
            }
        }
    }
}

/// The wire id of `serve-mix` read `index`, at priming and when timed.
pub fn read_id(index: usize) -> u64 {
    100 + index as u64
}

fn miss_op(id: u64, req: &SimRequest) -> Op {
    let digest = req.digest();
    Op {
        kind: Kind::Read,
        line: sim_line(id, req),
        route_digest: digest.clone(),
        expect: Expect::Miss { digest },
    }
}

/// The session base graph, resolved client-side to draw deltas against.
pub fn mix_graph() -> Csr {
    let aurora_core::GraphSpec::Rmat {
        vertices,
        edges,
        seed,
    } = mix_base().graph
    else {
        unreachable!("the serve-mix base is an R-MAT spec")
    };
    generate::rmat(vertices, edges, Default::default(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(workload: Workload, seed: u64, graph: Option<&Csr>, n: usize) -> Vec<Op> {
        let mut s = Stream::new(workload, seed, graph);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_ops_and_digests() {
        let g = mix_graph();
        for w in Workload::ALL {
            let a = ops(w, 7, Some(&g), 12);
            let b = ops(w, 7, Some(&g), 12);
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn different_seed_different_ops() {
        let g = mix_graph();
        for w in Workload::ALL {
            let a = ops(w, 7, Some(&g), 12);
            let b = ops(w, 8, Some(&g), 12);
            let digests = |ops: &[Op]| -> Vec<String> {
                ops.iter()
                    .map(|op| match &op.expect {
                        Expect::Miss { digest } | Expect::Delta { digest, .. } => digest.clone(),
                        Expect::Hit { index } => index.to_string(),
                    })
                    .collect()
            };
            assert_ne!(digests(&a), digests(&b), "{}", w.name());
        }
    }

    #[test]
    fn timed_requests_are_distinct_and_miss_the_fixed_set() {
        for w in [Workload::PaperK32, Workload::RmatK8] {
            let fixed: HashSet<String> = fixed_set(w).iter().map(|r| r.digest()).collect();
            let mut seen = HashSet::new();
            for op in ops(w, 3, None, 200) {
                let Expect::Miss { digest } = op.expect else {
                    panic!("{} sends only misses", w.name())
                };
                assert!(!fixed.contains(&digest));
                assert!(seen.insert(digest), "{} repeats a request", w.name());
            }
        }
    }

    #[test]
    fn fixed_set_does_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let digests: Vec<String> = fixed_set(w).iter().map(|r| r.digest()).collect();
            assert!(!digests.is_empty());
            assert_eq!(
                digests,
                fixed_set(w).iter().map(|r| r.digest()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mix_interleaves_one_write_to_four_reads_and_reverts_to_base() {
        let g = mix_graph();
        let mut s = Stream::new(Workload::ServeMix, 5, Some(&g));
        let kinds: Vec<Kind> = (0..10).map(|_| s.next_op().kind).collect();
        let w = Kind::Write;
        let r = Kind::Read;
        assert_eq!(kinds, [w, r, r, r, r, w, r, r, r, r]);
        let mix = s.mix().unwrap();
        let mut graph = g.clone();
        for i in 0..4 {
            let (_, _, delta) = mix.delta(i);
            delta.validate().unwrap();
            assert!(delta.insert_edges.len() + delta.remove_edges.len() <= 400);
            graph = delta.apply(&graph).unwrap();
            if i % 2 == 1 {
                assert_eq!(graph, g, "a delta and its inverse restore the base graph");
            }
        }
    }
}
