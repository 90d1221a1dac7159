//! The daemon's request-level observability: structured access log and
//! the flight recorder.
//!
//! Two complementary views of the same traffic:
//!
//! * the **access log** — one NDJSON [`AccessRecord`] per request,
//!   written through a pluggable [`EventLog`] sink ([`StderrLog`], a
//!   line-buffered [`FileLog`], or the default [`NullLog`]). Complete
//!   but shallow: id, digest, outcome, timing split, bytes out.
//! * the **flight recorder** — a bounded ring of [`FlightRecord`]s for
//!   the *interesting* requests (slower than the `--slow-ms` threshold,
//!   or failed), each keeping the full request JSON and the engine's
//!   bound-attribution summary. Shallow in coverage but deep per entry:
//!   enough to replay and explain a slow request after the fact.
//!
//! Outcome taxonomy (the `outcome` field of both record kinds):
//! `hit` (ready cache entry), `join` (piggybacked on an identical
//! in-flight run), `miss` (led a fresh engine run), `timeout` (caller's
//! budget elapsed), `reject` (queue full or draining), `error` (invalid
//! request or engine failure).

use crate::error::ServeError;
use aurora_core::SimReport;
use serde::Serialize;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write as IoWrite;
use std::sync::Mutex;

/// How a request was answered, as logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered from a ready cache entry.
    Hit,
    /// Joined an identical in-flight run.
    Join,
    /// Led a fresh engine run.
    Miss,
    /// The caller's wait budget elapsed (the run itself continues).
    Timeout,
    /// Turned away without work: queue full or draining.
    Reject,
    /// Invalid request or engine failure.
    Error,
}

impl Outcome {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Join => "join",
            Outcome::Miss => "miss",
            Outcome::Timeout => "timeout",
            Outcome::Reject => "reject",
            Outcome::Error => "error",
        }
    }

    /// The outcome of a failed request.
    pub fn of_error(err: &ServeError) -> Self {
        match err {
            ServeError::Timeout { .. } => Outcome::Timeout,
            ServeError::Overloaded { .. } | ServeError::ShuttingDown => Outcome::Reject,
            ServeError::BadRequest(_)
            | ServeError::Sim(_)
            | ServeError::Io(_)
            | ServeError::Unavailable(_) => Outcome::Error,
        }
    }

    /// True for the outcomes the flight recorder always captures.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Timeout | Outcome::Reject | Outcome::Error)
    }
}

/// Queue-wait vs execution split of one led job, measured by the worker
/// that ran it and delivered to the leader through the flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct JobTiming {
    /// Time the job sat on the admission queue, µs.
    pub queue_wait_us: u64,
    /// Engine execution time, µs.
    pub execute_us: u64,
}

/// One access-log line: everything the daemon knows about one answered
/// request. `queue_wait_us`/`execute_us` are zero for requests that ran
/// no engine work of their own (hits, joins, rejects).
#[derive(Debug, Clone, Serialize)]
pub struct AccessRecord {
    /// Monotonic per-service request number (1-based).
    pub seq: u64,
    /// Request digest; empty when the line never parsed.
    pub digest: String,
    /// Workload label of the request ("" when unparseable).
    pub workload: String,
    /// `hit` / `join` / `miss` / `timeout` / `reject` / `error`.
    pub outcome: String,
    pub queue_wait_us: u64,
    pub execute_us: u64,
    /// Inclusive latency. The transport (`server::answer`) times it
    /// from the line's arrival to the rendered reply, decode and render
    /// included; in-process callers of `handle_traced` get the service
    /// part alone (the `serve.latency_us` sample).
    pub latency_us: u64,
    /// Serialized response size, newline included (0 until the
    /// transport fills it in; in-process callers have no wire form).
    pub bytes_out: u64,
    /// The error message for non-success outcomes.
    pub error: Option<String>,
}

/// Destination for access-log lines. Implementations must be safe to
/// share across connection threads.
pub trait EventLog: Send + Sync {
    /// Writes one pre-serialized NDJSON line (no trailing newline).
    fn emit(&self, line: &str);

    /// False when lines are dropped unread — lets callers skip the
    /// serialization work entirely.
    fn enabled(&self) -> bool {
        true
    }
}

/// The default sink: drops everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullLog;

impl EventLog for NullLog {
    fn emit(&self, _line: &str) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Writes each line to stderr. `eprintln!` locks stderr per call, so
/// concurrent connection threads never interleave partial lines.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrLog;

impl EventLog for StderrLog {
    fn emit(&self, line: &str) {
        eprintln!("{line}");
    }
}

/// Appends lines to a file. Each `emit` writes one complete line and
/// flushes it — crash-safe in the sense that a killed daemon loses at
/// most the line being written, never leaves a torn earlier line.
#[derive(Debug)]
pub struct FileLog {
    file: Mutex<File>,
}

impl FileLog {
    /// Opens (or creates) `path` for appending.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }
}

impl EventLog for FileLog {
    fn emit(&self, line: &str) {
        let mut file = self.file.lock().expect("access log poisoned");
        // one write_all per line: the newline travels with its line
        let _ = file.write_all(format!("{line}\n").as_bytes());
        let _ = file.flush();
    }
}

/// Collects lines in memory — the test sink.
#[derive(Debug, Default)]
pub struct MemoryLog {
    lines: Mutex<Vec<String>>,
}

impl MemoryLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every line emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory log poisoned").clone()
    }
}

impl EventLog for MemoryLog {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .expect("memory log poisoned")
            .push(line.to_string());
    }
}

/// The engine's bound attribution of one recorded flight, condensed to
/// the shares a human (or the cluster router) acts on.
#[derive(Debug, Clone, Serialize)]
pub struct FlightProfile {
    pub total_cycles: u64,
    /// `compute` / `noc` / `dram` / `imbalance` — the largest share.
    pub dominant: String,
    pub compute_frac: f64,
    pub noc_frac: f64,
    pub dram_frac: f64,
    pub imbalance_frac: f64,
    pub overhead_frac: f64,
}

impl FlightProfile {
    /// Summarizes a report's profile; `None` when profiling was off.
    pub fn of(report: &SimReport) -> Option<Self> {
        let p = &report.profile;
        if p.is_empty() {
            return None;
        }
        let frac = |b| p.mix.fraction(b);
        use aurora_core::profile::Bound;
        Some(Self {
            total_cycles: report.total_cycles,
            dominant: p.dominant().label().to_string(),
            compute_frac: frac(Bound::Compute),
            noc_frac: frac(Bound::Noc),
            dram_frac: frac(Bound::Dram),
            imbalance_frac: frac(Bound::Imbalance),
            overhead_frac: p.overhead_fraction(),
        })
    }
}

/// One flight-recorder entry: an access record's fields plus the full
/// request JSON and the engine's attribution summary.
#[derive(Debug, Clone, Serialize)]
pub struct FlightRecord {
    pub seq: u64,
    pub digest: String,
    pub workload: String,
    pub outcome: String,
    pub queue_wait_us: u64,
    pub execute_us: u64,
    pub latency_us: u64,
    pub error: Option<String>,
    /// The request as received — enough to replay it verbatim.
    pub request: serde_json::Value,
    /// Bound attribution of the run; `None` for requests that never
    /// reached the engine (rejects, bad requests).
    pub profile: Option<FlightProfile>,
    /// Host-side per-stage wall/allocation split of the run. `None`
    /// unless the daemon ran with span profiling on
    /// (`AURORA_HOST_PROFILE=1`) *and* this request led the engine run
    /// — hits and joins ran nothing of their own.
    pub host_profile: Option<aurora_core::HostProfile>,
}

/// Bounded ring of the last `capacity` slow/error flights. Capacity 0
/// disables recording entirely.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<FlightRecord>>,
    capacity: usize,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            capacity,
        }
    }

    /// Maximum retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, evicting the oldest past capacity.
    pub fn record(&self, record: FlightRecord) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        while ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn dump(&self) -> Vec<FlightRecord> {
        self.ring
            .lock()
            .expect("flight ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// True when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> FlightRecord {
        FlightRecord {
            seq,
            digest: format!("d{seq}"),
            workload: "w".into(),
            outcome: "miss".into(),
            queue_wait_us: 1,
            execute_us: 2,
            latency_us: 3,
            error: None,
            request: serde_json::Value::Null,
            profile: None,
            host_profile: None,
        }
    }

    #[test]
    fn outcome_labels_and_error_mapping() {
        assert_eq!(Outcome::Hit.label(), "hit");
        assert_eq!(
            Outcome::of_error(&ServeError::Timeout { ms: 5 }),
            Outcome::Timeout
        );
        assert_eq!(
            Outcome::of_error(&ServeError::Overloaded {
                queued: 1,
                capacity: 1
            }),
            Outcome::Reject
        );
        assert_eq!(
            Outcome::of_error(&ServeError::ShuttingDown),
            Outcome::Reject
        );
        assert_eq!(
            Outcome::of_error(&ServeError::BadRequest("x".into())),
            Outcome::Error
        );
        assert!(Outcome::Timeout.is_failure());
        assert!(!Outcome::Miss.is_failure());
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let rec = FlightRecorder::new(2);
        for seq in 1..=3 {
            rec.record(record(seq));
        }
        let dump = rec.dump();
        assert_eq!(rec.len(), 2);
        assert_eq!(dump[0].seq, 2, "oldest evicted first");
        assert_eq!(dump[1].seq, 3);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::new(0);
        rec.record(record(1));
        assert!(rec.is_empty());
    }

    #[test]
    fn memory_log_collects_lines() {
        let log = MemoryLog::new();
        assert!(log.enabled());
        log.emit("a");
        log.emit("b");
        assert_eq!(log.lines(), vec!["a", "b"]);
        assert!(!NullLog.enabled());
    }

    #[test]
    fn file_log_appends_whole_lines() {
        let path = std::env::temp_dir().join(format!("aurora-access-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).expect("open");
            log.emit("{\"seq\":1}");
            log.emit("{\"seq\":2}");
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(body, "{\"seq\":1}\n{\"seq\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn access_record_serializes_to_one_json_object() {
        let r = AccessRecord {
            seq: 7,
            digest: "abc".into(),
            workload: "w".into(),
            outcome: "hit".into(),
            queue_wait_us: 0,
            execute_us: 0,
            latency_us: 12,
            bytes_out: 120,
            error: None,
        };
        let line = serde_json::to_string(&r).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("seq").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("outcome").and_then(|x| x.as_str()), Some("hit"));
        assert!(line.starts_with('{') && !line.contains('\n'));
    }
}
