//! A worker's graph cache and its one store of warm tile state: the
//! resident graph keyed by [`GraphSpec`], and a byte-budgeted list of
//! warm entries (warm plans and open sessions).
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
//! **Warm entries.** Beside the graph the store keeps engine state that
//! a later run replays instead of recomputing: the per-layer slabs
//! (mapping, bypass plans, per-tile outputs), traffic profiles, and the
//! tiling and A/B split they were computed under (§III-E: the controller
//! fixes mapping, partitioning and NoC configuration before a subgraph
//! executes). Two kinds of entry differ only in payload and key, and
//! keys compare by equality, never by hash, so no collision can serve a
//! wrong report:
//!
//! * A **warm plan** is a bare [`SessionState`], keyed by the graph's
//!   spec key and the request's *plan key*: everything in the request
//!   except the graph spec, `options.input_density` and the workload
//!   label, with `trace_instructions` folded into the config as
//!   [`AuroraSimulator::run_with`](crate::AuroraSimulator::run_with)
//!   folds it. None of the state depends on the input density, which
//!   reaches the engine only through layer 0's message width. So a run
//!   on the resident graph whose plan is warm replays every tile as a
//!   clean session tile: no mapping, no route-table build, no binning,
//!   only its stored profile re-priced at the current message width.
//! * An **open session** is a [`SimSession`], keyed by its session id
//!   (`d₀`, the base request's digest).
//!
//! One set of rules covers both:
//!
//! * **Checkout.** A run takes its entry's payload out under the lock
//!   and runs without it; one `Checkout` guard puts it back. The
//!   caller decides what a checked-out entry or a failed run means: a
//!   plan that finds its entry out runs cold, and a failed plan run
//!   drops its entry; a session op that finds its session out answers
//!   [`SessionError::Busy`], and a failed delta checks its session back
//!   in (its state invalidated by [`SimSession::apply`]). A panic
//!   unwinding through either drops the entry.
//! * **Admission.** A plan is admitted on its second consecutive miss on
//!   the resident graph (the plan doorkeeper); a session by its open.
//!   Admission checks out an empty entry, which the run fills: the entry
//!   is in the store at once, checked out, and the checkout rules above
//!   apply unchanged.
//! * **One byte budget.** The resident CSR plus every entry's bytes — a
//!   plan's state; a session's CSR, recycled CSR arrays and state —
//!   counted as of the entry's last check-in, fit in
//!   [`GRAPH_CACHE_MAX_BYTES`]. Whenever a check-in or a new resident
//!   graph overruns it, idle entries are evicted least recently used
//!   first until the total fits. A checked-out entry is never evicted,
//!   and a check-in evicts only other entries: an entry too large for
//!   the budget (a session on Reddit at scale 16 holds 19.2 MiB after
//!   its first delta) stays usable until another check-in or a new
//!   resident graph needs its room. An evicted session answers
//!   `unknown_session`, and its client re-opens it: nothing is lost but
//!   warmth.
//!
//! A warm plan belongs to its graph's residency: admitting a new
//! resident graph drops the idle plans of the one it replaces, and a
//! plan checked out across that admission goes at its check-in. No run
//! could reach either until that graph was admitted again. Kept, they
//! fragment the heap: a five-dataset stream peaked 17 MiB higher in a
//! third of its runs (EXPERIMENTS.md, "One store for warm tile state").
//!
//! `Inline` graphs are never cached: the engine borrows them.

use crate::config::AcceleratorConfig;
use crate::delta::{DeltaOutcome, GraphDelta, SimSession};
use crate::engine::SessionState;
use crate::report::SimReport;
use crate::request::{GraphSpec, SimError, SimRequest};
use aurora_graph::{Csr, Dataset};
use aurora_model::{LayerShape, ModelId};
use aurora_telemetry::span::{self, Stage};
use std::sync::{Arc, Mutex};

/// The byte budget of the resident graph plus every warm entry (CSR
/// array bytes, [`SessionState`] bytes, and a session's own CSR): room
/// for every graph of the standard evaluation protocol (the largest,
/// Reddit at scale 16, is 9.5 MiB; Pubmed is 0.5 MiB), not for full
/// Reddit.
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

/// Everything a run's warm state depends on besides the graph: the
/// config (with `trace_instructions` folded in), the model and the
/// layer chain.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanKey {
    config: AcceleratorConfig,
    model: ModelId,
    layers: Vec<LayerShape>,
}

impl PlanKey {
    pub(crate) fn new(config: AcceleratorConfig, model: ModelId, layers: &[LayerShape]) -> Self {
        Self {
            config,
            model,
            layers: layers.to_vec(),
        }
    }
}

/// What a warm entry is found by.
#[derive(Debug, Clone, PartialEq)]
enum WarmKey {
    Plan(SpecKey, PlanKey),
    Session(String),
}

/// A warm entry's payload; a plan key always holds a `Plan`, a session
/// key a `Session`.
enum Warm {
    Plan(SessionState),
    Session(Box<SimSession>),
}

impl Warm {
    fn bytes(&self) -> usize {
        match self {
            Warm::Plan(state) => state.bytes(),
            Warm::Session(session) => session.bytes(),
        }
    }
}

struct Entry {
    key: WarmKey,
    /// `None` while checked out.
    warm: Option<Warm>,
    /// [`Warm::bytes`] at the last check-in (0 until the first).
    bytes: usize,
    /// The store tick of the last use; eviction takes the smallest.
    used: u64,
}

/// One session op's answer: the digest-chain head after the op, whether
/// the report was replayed rather than computed, and the report of the
/// session's current graph.
#[derive(Debug, Clone)]
pub struct SessionReply {
    pub digest: String,
    pub cached: bool,
    pub report: SimReport,
}

impl SessionReply {
    fn of(session: &SimSession, cached: bool) -> Self {
        Self {
            digest: session.digest().to_string(),
            cached,
            report: session.last_report().clone(),
        }
    }
}

/// Why a session op has no [`SessionReply`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Another op has the session checked out.
    Busy,
    /// `unknown_session`, or the open's or the delta's own error.
    Sim(SimError),
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

#[derive(Default)]
struct State {
    resident: Option<(SpecKey, Arc<Csr>)>,
    /// The doorkeeper: the key of the last miss.
    last_miss: Option<SpecKey>,
    /// The plan doorkeeper: the key of the last plan miss.
    last_plan_miss: Option<WarmKey>,
    warm: Vec<Entry>,
    /// Bumped on every use of an entry.
    tick: u64,
    hits: u64,
    misses: u64,
    warm_hits: u64,
    warm_misses: u64,
}

impl State {
    /// `key`'s entry, marked as used now.
    fn find(&mut self, key: &WarmKey) -> Option<&mut Entry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.warm.iter_mut().find(|e| e.key == *key)?;
        entry.used = tick;
        Some(entry)
    }

    /// Admits `key` as an entry checked out with nothing in it yet.
    fn reserve(&mut self, key: WarmKey) {
        self.tick += 1;
        self.warm.push(Entry {
            key,
            warm: None,
            bytes: 0,
            used: self.tick,
        });
    }

    /// Ends the checkout of `key`: puts `warm` back, or drops the entry
    /// when there is nothing to put back or it is a plan of a graph that
    /// is no longer resident. Only other idle entries make room for the
    /// entry checked in, so an entry over the budget stays until another
    /// check-in or a new resident graph needs its bytes.
    fn check_in(&mut self, key: &WarmKey, warm: Option<Warm>, max_bytes: usize) {
        let out = self
            .warm
            .iter()
            .position(|e| e.warm.is_none() && e.key == *key);
        let Some(i) = out else {
            return;
        };
        let mut entry = self.warm.swap_remove(i);
        let orphaned = self.resident.as_ref().is_some_and(|(r, _)| stale(key, *r));
        let Some(warm) = warm.filter(|_| !orphaned) else {
            return;
        };
        self.tick += 1;
        (entry.bytes, entry.used) = (warm.bytes(), self.tick);
        entry.warm = Some(warm);
        self.fit(max_bytes.saturating_sub(entry.bytes));
        self.warm.push(entry);
    }

    /// Evicts idle entries, least recently used first, until the
    /// resident graph and every entry fit in `max_bytes`.
    fn fit(&mut self, max_bytes: usize) {
        let graph = self.resident.as_ref().map_or(0, |(_, g)| csr_bytes(g));
        let mut total = graph + self.warm.iter().map(|e| e.bytes).sum::<usize>();
        while total > max_bytes {
            let idle = self
                .warm
                .iter()
                .enumerate()
                .filter(|(_, e)| e.warm.is_some());
            let Some((i, _)) = idle.min_by_key(|(_, e)| e.used) else {
                return;
            };
            total -= self.warm.swap_remove(i).bytes;
        }
    }

    /// The warm state a run of `plan` checks out: its entry's state to
    /// replay when `resident` (the plan's graph is the resident one), or
    /// a fresh state to fill when the plan doorkeeper admits it. None —
    /// a cold run — when its entry is checked out or it is not admitted.
    fn checkout_plan(&mut self, plan: &WarmKey, resident: bool) -> Option<SessionState> {
        let found = if resident { self.find(plan) } else { None };
        if let Some(entry) = found {
            let warm = entry.warm.take();
            let Some(warm) = warm else {
                self.warm_misses += 1;
                return None;
            };
            let Warm::Plan(state) = warm else {
                unreachable!("a plan key holds a plan state")
            };
            self.warm_hits += 1;
            return Some(state);
        }
        self.warm_misses += 1;
        let repeat = self.last_plan_miss.as_ref() == Some(plan);
        if !repeat {
            self.last_plan_miss = Some(plan.clone());
        }
        if !(repeat && resident) {
            return None;
        }
        self.reserve(plan.clone());
        Some(SessionState::default())
    }
}

/// The `GraphSpec → Arc<Csr>` cache and store of warm entries. One per
/// worker process; share it by reference across threads.
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
    /// An empty cache with a budget of [`GRAPH_CACHE_MAX_BYTES`].
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

    /// CSR bytes of the resident graph (0 when empty).
    pub fn bytes(&self) -> usize {
        self.lock()
            .resident
            .as_ref()
            .map_or(0, |(_, g)| csr_bytes(g))
    }

    /// Spec-graph runs that replayed a warm plan.
    pub fn warm_hits(&self) -> u64 {
        self.lock().warm_hits
    }

    /// Spec-graph runs without warm state (cold, or admitting one).
    pub fn warm_misses(&self) -> u64 {
        self.lock().warm_misses
    }

    /// Bytes of every warm entry, plans and sessions, counted while
    /// checked out too. With [`Self::bytes`] within the budget whenever
    /// no entry is checked out.
    pub fn warm_bytes(&self) -> usize {
        self.lock().warm.iter().map(|e| e.bytes).sum()
    }

    /// Warm entries held, plans and sessions, checked out or not.
    pub fn warm_entries(&self) -> usize {
        self.lock().warm.len()
    }

    /// Open sessions, checked out or not.
    pub fn sessions(&self) -> usize {
        let state = self.lock();
        let sessions = state
            .warm
            .iter()
            .filter(|e| matches!(e.key, WarmKey::Session(_)));
        sessions.count()
    }

    /// Resolves `spec`: validates it exactly as [`GraphSpec::resolve`]
    /// does (same typed errors), then answers the resident graph or
    /// synthesizes one, which replaces the resident graph when the
    /// previous miss had the same spec. `Inline` graphs are cloned,
    /// never cached.
    pub fn resolve(&self, spec: &GraphSpec) -> Result<Arc<Csr>, SimError> {
        match SpecKey::of(spec) {
            Some(key) => self.lookup(spec, key, None).map(|(g, _)| g),
            None => spec.resolve().map(Arc::new),
        }
    }

    /// The one lookup behind [`Self::resolve`] and [`Self::run_planned`]:
    /// the graph, plus — when `plan` is given — the warm state its run
    /// checks out, if any.
    fn lookup(
        &self,
        spec: &GraphSpec,
        key: SpecKey,
        plan: Option<&WarmKey>,
    ) -> Result<(Arc<Csr>, Option<SessionState>), SimError> {
        spec.validate()?;
        let admit = {
            let mut state = self.lock();
            if let Some((resident, graph)) = &state.resident {
                if *resident == key {
                    let graph = Arc::clone(graph);
                    state.hits += 1;
                    let warm = plan.and_then(|plan| state.checkout_plan(plan, true));
                    return Ok((graph, warm));
                }
            }
            state.misses += 1;
            state.last_miss.replace(key) == Some(key)
        };
        let graph = Arc::new(spec.resolve()?);
        let mut state = self.lock();
        let resident = admit && csr_bytes(&graph) <= self.max_bytes;
        if resident {
            state.resident = Some((key, Arc::clone(&graph)));
            // drop the replaced graph's idle plans; a checked-out one
            // goes at its check-in
            state
                .warm
                .retain(|e| e.warm.is_none() || !stale(&e.key, key));
            state.fit(self.max_bytes);
        }
        let warm = plan.and_then(|plan| state.checkout_plan(plan, resident));
        Ok((graph, warm))
    }

    /// Runs `run` on `spec`'s graph with whatever warm state the store
    /// checks out for `plan` (see the module doc): an entry's state to
    /// replay, a fresh state to fill, or none. The state is checked back
    /// in only after a successful run.
    pub(crate) fn run_planned(
        &self,
        spec: &GraphSpec,
        plan: PlanKey,
        run: impl FnOnce(&Csr, Option<&mut SessionState>) -> Result<SimReport, SimError>,
    ) -> Result<SimReport, SimError> {
        let Some(spec_key) = SpecKey::of(spec) else {
            return run(&spec.resolve()?, None);
        };
        let key = WarmKey::Plan(spec_key, plan);
        let (graph, warm) = {
            let _span = span::enter(Stage::GraphLoad);
            self.lookup(spec, spec_key, Some(&key))?
        };
        let Some(mut state) = warm else {
            return run(&graph, None);
        };
        let mut out = Checkout::new(self, key);
        let report = run(&graph, Some(&mut state))?;
        out.warm = Some(Warm::Plan(state));
        Ok(report)
    }

    /// Opens a session for `req`, resolving its graph through this
    /// cache, and keeps it as an entry. Re-opening an open session (same
    /// base request, same sid) answers its current digest and report with
    /// `cached: true` rather than resetting it: a client retrying a
    /// dropped open must not rewind a session that already advanced.
    /// An open that finds the sid's entry checked out — a delta, a close,
    /// or an earlier open still running — answers [`SessionError::Busy`].
    pub fn open_session(&self, req: &SimRequest) -> Result<SessionReply, SessionError> {
        self.run_open(req, || SimSession::open(req, Some(self)))
    }

    /// [`Self::open_session`] with the open step given as `open`.
    fn run_open(
        &self,
        req: &SimRequest,
        open: impl FnOnce() -> Result<SimSession, SimError>,
    ) -> Result<SessionReply, SessionError> {
        let key = WarmKey::Session(req.digest());
        {
            let mut state = self.lock();
            match state.find(&key) {
                Some(Entry {
                    warm: Some(Warm::Session(session)),
                    ..
                }) => return Ok(SessionReply::of(session, true)),
                Some(_) => return Err(SessionError::Busy),
                None => state.reserve(key.clone()),
            }
        }
        let mut out = Checkout::new(self, key);
        let session = open()?;
        let reply = SessionReply::of(&session, false);
        out.warm = Some(Warm::Session(Box::new(session)));
        Ok(reply)
    }

    /// Applies `delta` to open session `sid`, checked out for the run. A
    /// failed apply checks the session back in: its graph and digest did
    /// not advance, so the client can correct and continue.
    pub fn apply_delta(&self, sid: &str, delta: &GraphDelta) -> Result<SessionReply, SessionError> {
        self.run_delta(sid, |session| session.apply(delta))
    }

    /// [`Self::apply_delta`] with the apply step given as `apply`.
    fn run_delta(
        &self,
        sid: &str,
        apply: impl FnOnce(&mut SimSession) -> Result<DeltaOutcome, SimError>,
    ) -> Result<SessionReply, SessionError> {
        let (mut out, mut session) = self.checkout_session(sid)?;
        let applied = apply(&mut session);
        let reply = applied.map(|outcome| SessionReply::of(&session, outcome.cached));
        out.warm = Some(Warm::Session(session));
        Ok(reply?)
    }

    /// Closes session `sid`, answering its final digest and report.
    pub fn close_session(&self, sid: &str) -> Result<SessionReply, SessionError> {
        // checked out and never checked back in: the entry goes
        let (_out, session) = self.checkout_session(sid)?;
        Ok(SessionReply::of(&session, true))
    }

    /// Checks open session `sid` out.
    fn checkout_session(&self, sid: &str) -> Result<(Checkout<'_>, Box<SimSession>), SessionError> {
        let key = WarmKey::Session(sid.to_string());
        let warm = {
            let mut state = self.lock();
            let entry = state.find(&key);
            let entry = entry.ok_or_else(|| SimError::UnknownSession(sid.to_string()))?;
            entry.warm.take()
        };
        match warm {
            Some(Warm::Session(session)) => Ok((Checkout::new(self, key), session)),
            None => Err(SessionError::Busy),
            Some(Warm::Plan(_)) => unreachable!("a session key holds a session"),
        }
    }
}

/// One entry's payload out of the store. Dropping it checks `warm` back
/// in when the caller put a payload there; otherwise — a failed run, a
/// close, or a panic unwinding through the run — the entry goes.
struct Checkout<'a> {
    cache: &'a GraphCache,
    key: WarmKey,
    warm: Option<Warm>,
}

impl<'a> Checkout<'a> {
    fn new(cache: &'a GraphCache, key: WarmKey) -> Self {
        Self {
            cache,
            key,
            warm: None,
        }
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if let Ok(mut state) = self.cache.state.lock() {
            state.check_in(&self.key, self.warm.take(), self.cache.max_bytes);
        }
    }
}

/// Whether `key` is a plan of a graph other than the `resident` one: no
/// run can reach it until that graph is admitted again.
fn stale(key: &WarmKey, resident: SpecKey) -> bool {
    matches!(key, WarmKey::Plan(k, _) if *k != resident)
}

/// Heap bytes of a CSR's two arrays.
pub(crate) fn csr_bytes(g: &Csr) -> usize {
    std::mem::size_of_val(g.row_ptr()) + std::mem::size_of_val(g.col_idx())
}

/// Resolves a spec through `graphs` when given, else synthesizes it
/// fresh — the graph resolution step of a session open.
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
            // the second run admits the plan, the third and fourth replay
            assert_eq!((cache.warm_misses(), cache.warm_hits()), (2, 2), "{spec:?}");
            assert!(cache.warm_bytes() > 0);
            assert!(cache.bytes() + cache.warm_bytes() <= GRAPH_CACHE_MAX_BYTES);
        }
    }

    /// `request` on `graph` with `f_out` as its last layer's width: one
    /// plan per `f_out`.
    fn plan_request(graph: GraphSpec, f_out: usize, density: f64) -> SimRequest {
        let mut req = request(graph, density);
        req.layers[1] = LayerShape::new(16, f_out);
        req
    }

    #[test]
    fn distinct_plans_on_a_resident_graph_retain_no_state() {
        let cache = GraphCache::new();
        let spec = rmat(3);
        cache.resolve(&spec).unwrap();
        cache.resolve(&spec).unwrap();
        assert!(cache.bytes() > 0, "the graph is resident");
        for f_out in 2..12 {
            let req = plan_request(spec.clone(), f_out, 0.3);
            assert_eq!(report_json(&req, Some(&cache)), report_json(&req, None));
        }
        assert_eq!((cache.warm_misses(), cache.warm_hits()), (10, 0));
        assert_eq!(cache.warm_bytes(), 0);
        // alternating plans are never admitted either
        for f_out in [2, 3, 2, 3] {
            report_json(&plan_request(spec.clone(), f_out, 0.3), Some(&cache));
        }
        assert_eq!((cache.warm_hits(), cache.warm_bytes()), (0, 0));
    }

    #[test]
    fn distinct_graphs_of_one_plan_never_run_warm() {
        let cache = GraphCache::new();
        for seed in 0..6 {
            let req = request(rmat(seed), 0.3);
            assert_eq!(report_json(&req, Some(&cache)), report_json(&req, None));
        }
        assert_eq!((cache.warm_misses(), cache.warm_hits()), (6, 0));
        assert_eq!((cache.bytes(), cache.warm_bytes()), (0, 0));
    }

    /// A new plan joins the warm plans under the byte budget; a new
    /// resident graph drops the plans of the graph it replaces.
    #[test]
    fn a_new_plan_or_graph_replaces_the_warm_state() {
        let cache = GraphCache::new();
        let warm = |req: &SimRequest| {
            let hits = cache.warm_hits();
            report_json(req, Some(&cache));
            cache.warm_hits() > hits
        };
        let (a, b) = (plan_request(rmat(1), 4, 0.3), plan_request(rmat(1), 6, 0.3));
        assert_eq!([warm(&a), warm(&a), warm(&a)], [false, false, true]);
        // b is admitted on its second miss beside a, which stays warm
        assert_eq!(
            [warm(&b), warm(&b), warm(&b), warm(&a)],
            [false, false, true, true]
        );
        assert_eq!(cache.warm_entries(), 2);
        // admitting another graph drops the warm state with the graph
        let other = request(rmat(2), 0.3);
        warm(&other);
        warm(&other);
        assert_eq!(cache.warm_entries(), 1, "only rmat(2)'s plan is left");
        assert!(!warm(&b), "rmat(1)'s warm state went with rmat(1)");
    }

    #[test]
    fn a_failed_or_panicking_replay_drops_its_state() {
        let cache = GraphCache::new();
        let req = request(rmat(1), 0.3);
        let plan = || PlanKey::new(req.config, req.model, &req.layers);
        let admit = |cache: &GraphCache| {
            for _ in 0..3 {
                report_json(&req, Some(cache));
            }
            assert_eq!(cache.warm_hits(), 1);
            assert!(cache.warm_bytes() > 0);
        };
        admit(&cache);
        let failed = cache.run_planned(&req.graph, plan(), |_, session| {
            assert!(session.is_some(), "the replay checks the state out");
            Err(SimError::Internal("injected".into()))
        });
        assert_eq!(failed.unwrap_err(), SimError::Internal("injected".into()));
        assert_eq!(cache.warm_bytes(), 0, "the failed replay cleared its slot");

        let cache = GraphCache::new();
        admit(&cache);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.run_planned(&req.graph, plan(), |_, _| panic!("injected"))
        }));
        assert!(panicked.is_err());
        assert_eq!(
            cache.warm_bytes(),
            0,
            "the panicking replay cleared its slot"
        );
        // the doorkeeper still holds the plan: the next miss admits it
        // afresh and the run after replays again (the panicking run
        // counted as the second hit)
        report_json(&req, Some(&cache));
        report_json(&req, Some(&cache));
        assert_eq!(cache.warm_hits(), 3);
    }

    #[test]
    fn a_failed_or_panicking_admission_leaves_the_slot_empty() {
        let spec = rmat(1);
        let (a, b) = (
            plan_request(spec.clone(), 4, 0.3),
            plan_request(spec, 6, 0.3),
        );
        for panics in [false, true] {
            let cache = GraphCache::new();
            for _ in 0..3 {
                report_json(&a, Some(&cache));
            }
            assert_eq!(cache.warm_hits(), 1);
            let a_bytes = cache.warm_bytes();
            assert!(a_bytes > 0, "a is warm");
            // b's first miss runs cold; its second is the admission
            report_json(&b, Some(&cache));
            let admission = |_: &Csr, session: Option<&mut SessionState>| {
                assert!(session.is_some(), "the admission checks a fresh state out");
                assert_eq!(
                    cache.warm_bytes(),
                    a_bytes,
                    "b's empty entry holds no bytes"
                );
                if panics {
                    panic!("injected");
                }
                Err(SimError::Internal("injected".into()))
            };
            let plan = PlanKey::new(b.config, b.model, &b.layers);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.run_planned(&b.graph, plan, admission)
            }));
            match out {
                Ok(failed) => {
                    assert!(!panics);
                    assert_eq!(failed.unwrap_err(), SimError::Internal("injected".into()));
                }
                Err(_) => assert!(panics, "only the injected panic unwinds"),
            }
            assert_eq!(
                cache.warm_bytes(),
                a_bytes,
                "the failed admission left no state"
            );
            // the next miss of b admits it again, and the run after replays
            let hits = cache.warm_hits();
            report_json(&b, Some(&cache));
            assert_eq!(cache.warm_hits(), hits, "panics: {panics}");
            assert!(cache.warm_bytes() > a_bytes, "b was admitted again");
            report_json(&b, Some(&cache));
            assert_eq!(cache.warm_hits(), hits + 1, "panics: {panics}");
        }
    }

    #[test]
    fn concurrent_runs_of_one_plan_match_cold_runs() {
        let cache = GraphCache::new();
        let spec = rmat(5);
        for density in [1.0, 0.5] {
            report_json(&request(spec.clone(), density), Some(&cache));
        }
        let densities = [0.45, 0.4, 0.35, 0.3, 0.25, 0.2];
        let cold: Vec<String> = densities
            .iter()
            .map(|&d| report_json(&request(spec.clone(), d), None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for (d, cold) in densities.iter().zip(&cold) {
                        let req = request(spec.clone(), *d);
                        assert_eq!(&report_json(&req, Some(&cache)), cold, "density {d}");
                    }
                });
            }
        });
        // a run that found the state checked out ran cold
        assert_eq!(cache.warm_hits() + cache.warm_misses(), 2 + 12);
        assert!(cache.warm_hits() >= 6);
        assert!(cache.warm_bytes() > 0, "the state went back in");
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

    /// A session base request on `rmat(7)`: every density gives the same
    /// graph and plan, so the same bytes, under a sid of its own.
    fn session_request(density: f64) -> SimRequest {
        request(rmat(7), density)
    }

    fn one_delta(cache: &GraphCache, sid: &str) -> Result<SessionReply, SessionError> {
        let delta = GraphDelta {
            add_vertices: 1,
            ..GraphDelta::default()
        };
        cache.apply_delta(sid, &delta)
    }

    fn unknown(sid: &str) -> SessionError {
        SessionError::Sim(SimError::UnknownSession(sid.to_string()))
    }

    /// The store's entries, least recently used first: `plan`, or a
    /// session's sid.
    fn lru(cache: &GraphCache) -> Vec<String> {
        let state = cache.lock();
        let mut entries: Vec<&Entry> = state.warm.iter().collect();
        entries.sort_by_key(|e| e.used);
        let label = |e: &&Entry| match &e.key {
            WarmKey::Plan(..) => "plan".to_string(),
            WarmKey::Session(sid) => sid.clone(),
        };
        entries.iter().map(label).collect()
    }

    #[test]
    fn a_session_opens_reopens_applies_and_closes() {
        let cache = GraphCache::new();
        let req = session_request(1.0);
        let sid = req.digest();
        let opened = cache.open_session(&req).unwrap();
        assert!(!opened.cached);
        assert_eq!(opened.digest, sid);
        assert_eq!(cache.sessions(), 1);
        // a re-open replays instead of resetting
        let reopened = cache.open_session(&req).unwrap();
        assert!(reopened.cached);
        assert_eq!(reopened.digest, opened.digest);
        // a delta advances the chain, and a re-open answers its head
        let applied = one_delta(&cache, &sid).unwrap();
        assert!(!applied.cached);
        assert_ne!(applied.digest, sid);
        let reopened = cache.open_session(&req).unwrap();
        assert!(reopened.cached);
        assert_eq!(reopened.digest, applied.digest);
        let json = |r: &SimReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&reopened.report), json(&applied.report));
        // close answers the advanced digest; the sid is then unknown
        let closed = cache.close_session(&sid).unwrap();
        assert_eq!(closed.digest, applied.digest);
        assert_eq!((cache.sessions(), cache.warm_bytes()), (0, 0));
        assert_eq!(cache.close_session(&sid).unwrap_err(), unknown(&sid));
        assert_eq!(one_delta(&cache, &sid).unwrap_err(), unknown(&sid));
    }

    #[test]
    fn a_failed_delta_checks_its_session_back_in() {
        let cache = GraphCache::new();
        let req = session_request(1.0);
        let sid = req.digest();
        cache.open_session(&req).unwrap();
        let bad = GraphDelta {
            remove_edges: vec![(0, 9999)],
            ..GraphDelta::default()
        };
        match cache.apply_delta(&sid, &bad).unwrap_err() {
            SessionError::Sim(e) => assert_eq!(e.kind(), "invalid_delta"),
            busy => panic!("expected invalid_delta, got {busy:?}"),
        }
        // still open and usable
        assert!(!one_delta(&cache, &sid).unwrap().cached);
        cache.close_session(&sid).unwrap();
    }

    #[test]
    fn a_failed_or_panicking_delta_or_open_drops_its_session() {
        let cache = GraphCache::new();
        let req = session_request(1.0);
        let sid = req.digest();
        cache.open_session(&req).unwrap();
        assert!(cache.warm_bytes() > 0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.run_delta(&sid, |_| panic!("injected"))
        }));
        assert!(panicked.is_err());
        assert_eq!((cache.sessions(), cache.warm_bytes()), (0, 0));
        assert_eq!(one_delta(&cache, &sid).unwrap_err(), unknown(&sid));
        // a failed open leaves no entry either
        let mut invalid = req.clone();
        invalid.options.input_density = 2.0;
        let failed = cache.open_session(&invalid).unwrap_err();
        assert!(matches!(
            failed,
            SessionError::Sim(SimError::InvalidDensity { .. })
        ));
        assert_eq!(cache.sessions(), 0);
        // a re-open starts the session afresh
        assert!(!cache.open_session(&req).unwrap().cached);
    }

    #[test]
    fn a_second_op_answers_busy_while_a_delta_is_out() {
        let cache = GraphCache::new();
        let req = session_request(1.0);
        let sid = req.digest();
        cache.open_session(&req).unwrap();
        let first = cache.run_delta(&sid, |session| {
            assert_eq!(one_delta(&cache, &sid).unwrap_err(), SessionError::Busy);
            assert_eq!(cache.open_session(&req).unwrap_err(), SessionError::Busy);
            assert_eq!(cache.close_session(&sid).unwrap_err(), SessionError::Busy);
            session.apply(&GraphDelta {
                add_vertices: 1,
                ..GraphDelta::default()
            })
        });
        assert!(!first.unwrap().cached);
        // back in: the next delta runs
        assert!(!one_delta(&cache, &sid).unwrap().cached);
        // an open retried while the first open still runs answers busy
        cache.close_session(&sid).unwrap();
        let opened = cache.run_open(&req, || {
            assert_eq!(cache.open_session(&req).unwrap_err(), SessionError::Busy);
            assert_eq!(one_delta(&cache, &sid).unwrap_err(), SessionError::Busy);
            SimSession::open(&req, Some(&cache))
        });
        assert!(!opened.unwrap().cached);
        assert!(cache.open_session(&req).unwrap().cached);
    }

    #[test]
    fn an_entry_over_the_budget_stays_until_another_needs_its_room() {
        let req = session_request(1.0);
        let sid = req.digest();
        let probe = GraphCache::new();
        probe.open_session(&req).unwrap();
        let s = probe.warm_bytes();
        let g = csr_bytes(&rmat(7).resolve().unwrap());
        assert!(g < s - 1, "the graph fits, the session does not");
        let cache = GraphCache::with_max_bytes(s - 1);
        cache.open_session(&req).unwrap();
        assert_eq!(cache.sessions(), 1, "the open kept its session");
        // each delta finds the session its last op checked in
        for _ in 0..2 {
            assert!(!one_delta(&cache, &sid).unwrap().cached);
            assert!(cache.warm_bytes() > s, "recycled arrays joined it");
        }
        // a plan's check-in needs the room: the idle session goes
        let plan = request(rmat(7), 0.3);
        for _ in 0..3 {
            report_json(&plan, Some(&cache));
        }
        assert_eq!((cache.warm_hits(), cache.sessions()), (1, 0));
        assert_eq!(one_delta(&cache, &sid).unwrap_err(), unknown(&sid));
    }

    #[test]
    fn a_plan_checked_out_across_a_new_graph_goes_at_its_check_in() {
        let cache = GraphCache::new();
        let req = request(rmat(1), 0.3);
        let cold = AuroraSimulator::new(req.config).run(&req).unwrap();
        for _ in 0..3 {
            report_json(&req, Some(&cache));
        }
        assert_eq!((cache.warm_hits(), cache.warm_entries()), (1, 1));
        let plan = PlanKey::new(req.config, req.model, &req.layers);
        let replayed = cache.run_planned(&req.graph, plan, |_, state| {
            assert!(state.is_some(), "the replay checks the plan out");
            cache.resolve(&rmat(2)).unwrap();
            cache.resolve(&rmat(2)).unwrap(); // admits rmat(2)
            assert_eq!(cache.warm_entries(), 1, "the checked-out plan stays");
            Ok(cold.clone())
        });
        assert!(replayed.is_ok());
        assert_eq!((cache.warm_entries(), cache.warm_bytes()), (0, 0));
    }

    #[test]
    fn the_budget_evicts_idle_entries_least_recently_used_first() {
        let plan = request(rmat(7), 0.3);
        let warm_plan = |cache: &GraphCache| {
            for _ in 0..3 {
                report_json(&plan, Some(cache));
            }
        };
        // the graph's, the plan's and one session's bytes
        let probe = GraphCache::new();
        warm_plan(&probe);
        let (g, p) = (probe.bytes(), probe.warm_bytes());
        probe.open_session(&session_request(1.0)).unwrap();
        let s = probe.warm_bytes() - p;
        assert!(s > p, "a session holds its own CSR beside its state");

        // room for the graph, the plan and two sessions
        let cache = GraphCache::with_max_bytes(g + p + 2 * s);
        warm_plan(&cache);
        let [s1, s2, s3, s4] = [1.0, 0.5, 0.25, 0.125].map(session_request);
        let [d1, d2, d3, d4] = [&s1, &s2, &s3, &s4].map(SimRequest::digest);
        cache.open_session(&s1).unwrap();
        cache.open_session(&s2).unwrap();
        report_json(&plan, Some(&cache));
        assert_eq!(lru(&cache), [d1.as_str(), d2.as_str(), "plan"]);
        // a third session evicts the least recently used one
        cache.open_session(&s3).unwrap();
        assert_eq!(lru(&cache), [d2.as_str(), "plan", d3.as_str()]);
        assert_eq!(one_delta(&cache, &d1).unwrap_err(), unknown(&d1));
        // with s2 touched, a fourth evicts the plan and then s3
        assert!(cache.open_session(&s2).unwrap().cached);
        cache.open_session(&s4).unwrap();
        assert_eq!(lru(&cache), [d2.as_str(), d4.as_str()]);
        assert!(cache.bytes() + cache.warm_bytes() <= g + p + 2 * s);
        let hits = cache.warm_hits();
        report_json(&plan, Some(&cache));
        assert_eq!(cache.warm_hits(), hits, "the plan was evicted");
    }

    #[test]
    fn a_checked_out_entry_survives_eviction() {
        let [s1, s2, s3] = [1.0, 0.5, 0.25].map(session_request);
        let [d1, d2, d3] = [&s1, &s2, &s3].map(SimRequest::digest);
        let g = csr_bytes(&rmat(7).resolve().unwrap());
        let probe = GraphCache::new();
        probe.open_session(&s1).unwrap();
        let s = probe.warm_bytes();
        // room for the graph and one session, not two
        let cache = GraphCache::with_max_bytes(g + s + s / 2);
        cache.open_session(&s1).unwrap();
        let out = cache.run_delta(&d1, |session| {
            // s2's open admits the graph; its check-in finds s1 out and
            // no other idle entry
            assert!(!cache.open_session(&s2).unwrap().cached);
            assert_eq!(cache.bytes(), g);
            assert_eq!(lru(&cache), [d1.as_str(), d2.as_str()]);
            // s3's check-in evicts the idle s2, never the checked-out s1
            assert!(!cache.open_session(&s3).unwrap().cached);
            assert_eq!(lru(&cache), [d1.as_str(), d3.as_str()]);
            session.apply(&GraphDelta::default())
        });
        assert!(out.unwrap().cached);
        // s1's check-in evicts s3
        assert_eq!(lru(&cache), [d1.as_str()]);
        assert!(!one_delta(&cache, &d1).unwrap().cached);
        assert_eq!(one_delta(&cache, &d2).unwrap_err(), unknown(&d2));
        assert_eq!(one_delta(&cache, &d3).unwrap_err(), unknown(&d3));
    }

    /// A session opened on a resident graph answers the same open and
    /// delta reports as one opened without the cache, and its deltas
    /// never reach the shared graph.
    #[test]
    fn a_session_on_a_resident_graph_matches_an_uncached_one() {
        let cache = GraphCache::new();
        let req = session_request(1.0);
        let fresh_graph = req.graph.resolve().unwrap();
        cache.resolve(&req.graph).unwrap();
        cache.resolve(&req.graph).unwrap(); // the repeated miss admits
        let opened = cache.open_session(&req).unwrap();
        assert_eq!(cache.hits(), 1, "the open resolved a resident graph");

        let sim = AuroraSimulator::new(req.config);
        let mut plain = sim.open_session(&req).unwrap();
        let json = |r: &SimReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&opened.report), json(plain.last_report()));

        let sid = req.digest();
        let (u, v) = fresh_graph.edges().next().unwrap();
        for delta in [
            GraphDelta {
                remove_edges: vec![(u, v)],
                ..GraphDelta::default()
            },
            GraphDelta {
                add_vertices: 1,
                insert_edges: vec![(256, 0)],
                ..GraphDelta::default()
            },
        ] {
            let applied = cache.apply_delta(&sid, &delta).unwrap();
            let outcome = plain.apply(&delta).unwrap();
            assert_eq!(applied.digest, outcome.digest);
            assert_eq!(json(&applied.report), json(plain.last_report()));
        }
        assert_eq!(*cache.resolve(&req.graph).unwrap(), fresh_graph);
    }
}
