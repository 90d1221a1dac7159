//! The newline-delimited-JSON transport: listener, per-connection
//! protocol loop, and a small blocking client.
//!
//! Wire format (one JSON document per line, both directions):
//!
//! ```text
//! → {"id": 7, "sim": { ...SimRequest... }}
//! ← {"id": 7, "digest": "…16 hex…", "cached": false,
//!    "report": { ...SimReport... }, "error": null}
//! ```
//!
//! A request line may hold at most [`MAX_LINE_BYTES`] bytes before its
//! newline. A longer line is answered `bad_request` ("line longer than
//! N bytes", id `0`) without being buffered: the transport discards its
//! bytes up to the next newline and keeps serving the connection.
//!
//! Each line is decoded once, by the crate's one request-line decoder
//! (`wire::decode`), which both this loop and the cluster router call.
//! A line that fails to decode — including one nested deeper than the
//! parser's 128-level limit — gets a `bad_request` response with the
//! request id when the line holds one (id `0` otherwise); the
//! connection stays open. Requests on one connection are answered in
//! order. Concurrency comes from concurrent connections — each gets its
//! own thread, and the bounded admission queue inside [`SimService`]
//! does the real scheduling.
//!
//! The transport is generic over what answers a line: a [`LineHandler`]
//! is anything that turns one request line into one response line and
//! knows how to drain. [`SimService`] is the single-process handler; a
//! [`Router`](crate::router::Router) is the cluster front-end one. The
//! listener, shutdown, drain-grace, and socket-cleanup behavior is
//! shared — a router daemon and a worker daemon stop identically.
//!
//! Lines carrying an `"admin"` key are introspection commands (see
//! [`crate::admin`]) answered on the same connection. Every other line
//! — sim, session, or undecodable — additionally produces one
//! access-log record (with the serialized response size as
//! `bytes_out`) through the service's `EventLog`; admin traffic is not
//! logged.

use crate::admin;
use crate::error::ServeError;
use crate::observe::{AccessRecord, Outcome};
use crate::service::SimService;
use crate::wire::{self, Line};
use aurora_core::{SessionCommand, SimError, SimRequest, SimResponse, WIRE_VERSION};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest request line the transport accepts, newline excluded. Every
/// in-repo client sends spec-sized lines (a few KiB); the cap bounds a
/// connection's buffer, not a useful request.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Transport tuning for [`serve_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// How long connection threads keep answering after the shutdown
    /// flag flips. `0` (the default, and [`serve`]'s behavior) closes
    /// connections at the next read timeout; a grace window lets
    /// clients observe the drain — `{"admin":"health"}` answers
    /// `draining`, sim lines get `shutting_down` — until they hang up
    /// or the window closes.
    pub drain_grace: Duration,
}

/// One request line: a client-chosen id plus the simulation request.
/// `version` gates the envelope itself (a server rejects lines newer
/// than its [`WIRE_VERSION`] with a typed `unsupported_version` error);
/// absent on v0 lines, which deserialize as 0 and stay accepted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    pub id: u64,
    #[serde(default)]
    pub version: u32,
    pub sim: SimRequest,
}

/// One session line: a client-chosen id plus the session command
/// (`{"id":N,"session":{"op":"open","sim":{..}}}` and friends).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionLine {
    pub id: u64,
    #[serde(default)]
    pub version: u32,
    pub session: SessionCommand,
}

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq)]
pub enum Endpoint {
    /// A Unix-domain socket at the given path (removed on bind and on
    /// shutdown).
    Unix(PathBuf),
    /// A TCP listen address, e.g. `127.0.0.1:7700`.
    Tcp(String),
}

impl Endpoint {
    /// Parses `unix:PATH`, `tcp:ADDR`, or a bare filesystem path
    /// (treated as a Unix socket) — the `--backend` flag's grammar.
    pub fn parse(s: &str) -> Self {
        if let Some(path) = s.strip_prefix("unix:") {
            Endpoint::Unix(PathBuf::from(path))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Endpoint::Tcp(addr.to_string())
        } else {
            Endpoint::Unix(PathBuf::from(s))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// What the transport serves: one response line per request line, plus
/// a drain hook the listener calls exactly once on the way out.
///
/// Implemented by [`SimService`] (answer locally with the engine) and by
/// [`Router`](crate::router::Router) (forward to a worker shard).
pub trait LineHandler: Send + Sync + 'static {
    /// Answers one protocol line (input and output both carry no
    /// trailing newline).
    fn answer_line(&self, line: &str) -> String;

    /// Answers a line the transport refused before reading it whole (one
    /// longer than [`MAX_LINE_BYTES`]) with `error`, accounting for it
    /// like any other bad line.
    fn refuse_line(&self, error: ServeError) -> String;

    /// Stops taking new work and finishes what is in flight. Called by
    /// [`serve_with`] after the accept loop stops — on *every* exit
    /// path, including accept errors. Must be idempotent.
    fn drain(&self);
}

impl LineHandler for SimService {
    fn answer_line(&self, line: &str) -> String {
        answer(self, line)
    }

    fn refuse_line(&self, error: ServeError) -> String {
        let received = Instant::now();
        let (response, record) = rejected(self, 0, String::new(), String::new(), error);
        finish(self, &response, record, received)
    }

    fn drain(&self) {
        SimService::drain(self)
    }
}

/// Serves `handler` on `endpoint` until `shutdown` becomes true (the
/// signal handler's flag), then drains and returns. Blocks the calling
/// thread for the daemon's lifetime.
pub fn serve<H: LineHandler>(
    handler: Arc<H>,
    endpoint: &Endpoint,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    serve_with(handler, endpoint, shutdown, ServerOptions::default())
}

/// [`serve`] with explicit [`ServerOptions`].
///
/// Every exit — a clean shutdown *or* a fatal accept error — goes
/// through the same teardown: the handler drains, connection threads
/// are joined (they observe the shutdown flag, which is forced on even
/// when the exit was an error), and a Unix socket file is unlinked. An
/// accept failure therefore never abandons in-flight requests or leaves
/// a stale socket path behind.
pub fn serve_with<H: LineHandler>(
    handler: Arc<H>,
    endpoint: &Endpoint,
    shutdown: Arc<AtomicBool>,
    options: ServerOptions,
) -> std::io::Result<()> {
    let listener = match endpoint {
        Endpoint::Unix(path) => {
            // a stale socket file from a crashed daemon would fail the
            // bind; nothing can be listening on it if we can remove it
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Listener::Unix(l)
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Listener::Tcp(l)
        }
    };

    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let loop_result = accept_loop(&listener, &handler, &shutdown, options, &mut connections);

    // Teardown, shared by the clean path and the error path. The flag
    // must be forced on first: after an accept *error* it is still
    // false, and the connection threads exit only by observing it (or
    // client EOF) — joining without setting it would hang forever.
    shutdown.store(true, Ordering::SeqCst);
    handler.drain();
    for h in connections {
        let _ = h.join();
    }
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    loop_result
}

/// Nonblocking accept + poll: the listener wakes every few tens of
/// milliseconds to observe the shutdown flag — no signal-safe
/// self-pipe machinery needed. Accepted streams get a short read
/// timeout so idle connection threads can observe the flag too (an
/// idle client must not hold up a drain).
fn accept_loop<H: LineHandler>(
    listener: &Listener,
    handler: &Arc<H>,
    shutdown: &Arc<AtomicBool>,
    options: ServerOptions,
    connections: &mut Vec<std::thread::JoinHandle<()>>,
) -> std::io::Result<()> {
    const POLL: Duration = Duration::from_millis(25);
    while !shutdown.load(Ordering::SeqCst) {
        let accepted: Option<Box<dyn Conn>> = match listener {
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_read_timeout(Some(POLL))?;
                    Some(Box::new(stream))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_read_timeout(Some(POLL))?;
                    Some(Box::new(stream))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        match accepted {
            Some(conn) => {
                let handler = Arc::clone(handler);
                let shutdown = Arc::clone(shutdown);
                connections.push(std::thread::spawn(move || {
                    let _ = handle_connection(conn, &*handler, &shutdown, options.drain_grace);
                }));
            }
            None => std::thread::sleep(POLL),
        }
        connections.retain(|h| !h.is_finished());
    }
    Ok(())
}

/// A bidirectional stream that can split into an owned reader + writer.
trait Conn: Send {
    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)>;
}

impl Conn for UnixStream {
    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        let reader = self.try_clone()?;
        Ok((Box::new(BufReader::new(reader)), Box::new(*self)))
    }
}

impl Conn for TcpStream {
    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        let reader = self.try_clone()?;
        Ok((Box::new(BufReader::new(reader)), Box::new(*self)))
    }
}

fn handle_connection(
    conn: Box<dyn Conn>,
    handler: &dyn LineHandler,
    shutdown: &AtomicBool,
    drain_grace: Duration,
) -> std::io::Result<()> {
    let (mut reader, mut writer) = conn.split()?;
    let mut line = Vec::new();
    let mut shutdown_seen: Option<Instant> = None;
    loop {
        line.clear();
        let mut overlong = false;
        // Assemble one line, polling the shutdown flag on every read
        // timeout. `read_capped_line` keeps its progress in `line` and
        // `overlong`, so resuming after a timeout never loses data. Once
        // shutdown is observed the connection stays answerable for
        // `drain_grace` (clients poll health for the drain transition),
        // then closes.
        let eof = loop {
            match read_capped_line(&mut *reader, &mut line, &mut overlong) {
                Ok(ended) => break !ended,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if shutdown.load(Ordering::SeqCst) {
                        let seen = *shutdown_seen.get_or_insert_with(Instant::now);
                        if seen.elapsed() >= drain_grace {
                            return Ok(());
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        };
        let reply = if overlong {
            Some(handler.refuse_line(ServeError::BadRequest(format!(
                "line longer than {MAX_LINE_BYTES} bytes"
            ))))
        } else {
            let text = std::str::from_utf8(&line)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
            (!text.trim().is_empty()).then(|| handler.answer_line(text))
        };
        if let Some(mut out) = reply {
            out.push('\n');
            writer.write_all(out.as_bytes())?;
            writer.flush()?;
        }
        if eof {
            return Ok(());
        }
    }
}

/// Reads the rest of one line into `line`, newline excluded, and
/// returns whether a newline ended it (`false` at EOF). Once the line
/// outgrows [`MAX_LINE_BYTES`], `overlong` is set, `line` is emptied and
/// the remaining bytes through the newline are consumed without being
/// kept. A read error (the poll timeout included) leaves all progress in
/// `line` and `overlong`, so a repeated call resumes the same line.
fn read_capped_line(
    reader: &mut dyn BufRead,
    line: &mut Vec<u8>,
    overlong: &mut bool,
) -> std::io::Result<bool> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(false);
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        if !*overlong {
            if line.len() + body.len() > MAX_LINE_BYTES {
                *overlong = true;
                line.clear();
            } else {
                line.extend_from_slice(body);
            }
        }
        let taken = body.len() + usize::from(newline.is_some());
        reader.consume(taken);
        if newline.is_some() {
            return Ok(true);
        }
    }
}

/// Answers one protocol line — admin, session or sim — returning the
/// response line (no trailing newline). The line is decoded once by
/// [`wire::decode`]; every non-admin line, bad ones included, becomes
/// one reply plus one access record, logged through the service's sink
/// with the response size filled in. The record's `latency_us` runs
/// from here to the rendered reply, so it covers the line's decode and
/// the reply's render as well as the service. Admin lines are not
/// logged. This is the function the connection loop speaks.
pub fn answer(service: &SimService, line: &str) -> String {
    let received = Instant::now();
    let (response, record) = match wire::decode(line) {
        Ok(Line::Admin { id, command }) => return admin::dispatch(service, id, &command),
        Ok(Line::Sim(req)) if req.version > WIRE_VERSION => rejected(
            service,
            req.id,
            req.sim.digest(),
            req.sim.workload_label(),
            unsupported(req.version),
        ),
        Ok(Line::Session(s)) if s.version > WIRE_VERSION => rejected(
            service,
            s.id,
            String::new(),
            format!("session:{}", s.session.op),
            unsupported(s.version),
        ),
        // an error reply carries the record's digest: the request's, or
        // the session's pinned one
        Ok(Line::Sim(req)) => {
            let (result, record) = service.handle_traced(&req.sim);
            let response = match result {
                Ok(o) => SimResponse::ok(req.id, o.digest, o.cached, (*o.report).clone()),
                Err(e) => SimResponse::err(req.id, record.digest.clone(), e.to_wire()),
            };
            (response, record)
        }
        Ok(Line::Session(s)) => {
            let (result, record) = service.handle_session_traced(&s.session);
            let response = match result {
                Ok(r) => SimResponse::ok(s.id, r.digest, r.cached, r.report),
                Err(e) => SimResponse::err(s.id, record.digest.clone(), e.to_wire()),
            };
            (response, record)
        }
        Err(bad) => rejected(
            service,
            bad.id,
            String::new(),
            bad.workload.into(),
            bad.error,
        ),
    };
    finish(service, &response, record, received)
}

/// Serializes a reply and logs its access record with the wire size and
/// the latency since the line was `received`.
fn finish(
    service: &SimService,
    response: &SimResponse,
    mut record: AccessRecord,
    received: Instant,
) -> String {
    let out = serde_json::to_string(response).expect("response serializes");
    record.bytes_out = out.len() as u64 + 1; // the newline ships too
    record.latency_us = received.elapsed().as_micros() as u64;
    service.log_access(&record);
    out
}

/// The refusal of an envelope newer than this server.
fn unsupported(got: u32) -> ServeError {
    ServeError::Sim(SimError::UnsupportedVersion {
        got,
        supported: WIRE_VERSION,
    })
}

/// The reply and access record of a line refused before it reached the
/// service: a bad line, or an unsupported envelope version.
fn rejected(
    service: &SimService,
    id: u64,
    digest: String,
    workload: String,
    error: ServeError,
) -> (SimResponse, AccessRecord) {
    let record = AccessRecord {
        seq: service.next_seq(),
        digest,
        workload,
        outcome: Outcome::of_error(&error).label().to_string(),
        queue_wait_us: 0,
        execute_us: 0,
        latency_us: 0,
        bytes_out: 0,
        error: Some(error.to_string()),
    };
    (
        SimResponse::err(id, record.digest.clone(), error.to_wire()),
        record,
    )
}

/// Connection and read-deadline budgets for a [`Client`].
///
/// The defaults (both `None`) preserve fully blocking behavior. The
/// router's health prober and forwarding path always set both — a
/// wedged worker daemon must cost a typed [`ServeError::Timeout`], not
/// a hung prober thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientOptions {
    /// Budget for establishing the connection.
    pub connect_timeout: Option<Duration>,
    /// Per-response read deadline. Measured per [`Client::roundtrip`]
    /// call, not per byte: a response that trickles in slower than the
    /// deadline still times out.
    pub read_timeout: Option<Duration>,
}

impl ClientOptions {
    /// Both budgets set to the same value.
    pub fn timeout(budget: Duration) -> Self {
        Self {
            connect_timeout: Some(budget),
            read_timeout: Some(budget),
        }
    }
}

/// How often a deadline-bounded client wakes to check its budget.
const CLIENT_POLL: Duration = Duration::from_millis(25);

/// A small blocking client for the NDJSON protocol, used by the
/// cluster router's forwarding path, `serve_bench`, and the smoke
/// tests.
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    read_timeout: Option<Duration>,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon with no budgets (fully blocking).
    pub fn connect(endpoint: &Endpoint) -> Result<Self, ServeError> {
        Self::connect_with(endpoint, ClientOptions::default())
    }

    /// Connects to a daemon under explicit [`ClientOptions`].
    pub fn connect_with(endpoint: &Endpoint, options: ClientOptions) -> Result<Self, ServeError> {
        let (reader, writer): (Box<dyn BufRead + Send>, Box<dyn Write + Send>) = match endpoint {
            Endpoint::Unix(path) => {
                let stream = match options.connect_timeout {
                    None => UnixStream::connect(path)?,
                    Some(budget) => connect_unix_timeout(path.clone(), budget)?,
                };
                if options.read_timeout.is_some() {
                    stream.set_read_timeout(Some(CLIENT_POLL))?;
                }
                Box::new(stream).split()?
            }
            Endpoint::Tcp(addr) => {
                let stream = match options.connect_timeout {
                    None => TcpStream::connect(addr.as_str())?,
                    Some(budget) => connect_tcp_timeout(addr, budget)?,
                };
                if options.read_timeout.is_some() {
                    stream.set_read_timeout(Some(CLIENT_POLL))?;
                }
                Box::new(stream).split()?
            }
        };
        Ok(Self {
            reader,
            writer,
            read_timeout: options.read_timeout,
            next_id: 1,
        })
    }

    /// Sends one raw protocol line (no trailing newline) and blocks for
    /// exactly one response line, returned without its newline. The
    /// router's forwarding path uses this so responses pass through
    /// byte-identical; [`Client::request`]/[`Client::admin`] build on
    /// it.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, ServeError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.recv_line()
    }

    /// Reads one line under the configured deadline.
    fn recv_line(&mut self) -> Result<String, ServeError> {
        let deadline = self.read_timeout.map(|t| (Instant::now() + t, t));
        let mut reply = String::new();
        loop {
            match self.reader.read_line(&mut reply) {
                Ok(0) if reply.is_empty() => {
                    return Err(ServeError::Io("connection closed by daemon".into()))
                }
                // EOF mid-line or a complete line: hand back what we got
                Ok(_) => return Ok(reply.trim_end_matches('\n').to_string()),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if let Some((at, budget)) = deadline {
                        if Instant::now() >= at {
                            return Err(ServeError::Timeout {
                                ms: budget.as_millis() as u64,
                            });
                        }
                    }
                    // no deadline configured: the stream itself is
                    // blocking, so this arm is unreachable then
                }
                Err(e) => return Err(ServeError::Io(e.to_string())),
            }
        }
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, sim: &SimRequest) -> Result<SimResponse, ServeError> {
        self.call("sim", sim.to_value())
    }

    /// Sends one session command (open/delta/close — see
    /// [`SessionRequestBuilder`](aurora_core::SessionRequestBuilder))
    /// and blocks for its response.
    pub fn session(&mut self, command: &SessionCommand) -> Result<SimResponse, ServeError> {
        self.call("session", command.to_value())
    }

    /// Sends one admin command (`health`, `stats`, `metrics`,
    /// `flights`) and blocks for its reply as a raw JSON value.
    pub fn admin(&mut self, command: &str) -> Result<serde_json::Value, ServeError> {
        self.call("admin", serde_json::Value::Str(command.to_string()))
    }

    /// Sends one `{"id":N,"version":V,<verb>:<body>}` envelope under the
    /// next id and parses the reply line.
    fn call<T: Deserialize>(
        &mut self,
        verb: &str,
        body: serde_json::Value,
    ) -> Result<T, ServeError> {
        use serde_json::Value;
        let id = self.next_id;
        self.next_id += 1;
        let envelope = Value::Map(vec![
            ("id".to_string(), Value::UInt(id)),
            ("version".to_string(), Value::UInt(WIRE_VERSION.into())),
            (verb.to_string(), body),
        ]);
        let line = serde_json::to_string(&envelope).expect("request serializes");
        let reply = self.roundtrip(&line)?;
        parse_reply(&reply)
    }
}

/// Parses one reply line from a daemon.
pub(crate) fn parse_reply<T: Deserialize>(line: &str) -> Result<T, ServeError> {
    serde_json::from_str(line).map_err(|e| ServeError::Io(format!("unparseable reply: {e:?}")))
}

/// `UnixStream::connect` has no native timeout in std; run the connect
/// on a scratch thread and give up waiting after `budget`. The thread
/// is detached on timeout — a connect that eventually lands is dropped
/// (closing the stream), one that fails dies quietly.
fn connect_unix_timeout(path: PathBuf, budget: Duration) -> Result<UnixStream, ServeError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(UnixStream::connect(&path));
    });
    match rx.recv_timeout(budget) {
        Ok(result) => result.map_err(ServeError::from),
        Err(_) => Err(ServeError::Timeout {
            ms: budget.as_millis() as u64,
        }),
    }
}

/// TCP connect with std's native per-address timeout, trying each
/// resolved address under the same budget.
fn connect_tcp_timeout(addr: &str, budget: Duration) -> Result<TcpStream, ServeError> {
    let addrs: Vec<_> = addr.to_socket_addrs().map_err(ServeError::from)?.collect();
    let mut last = ServeError::Io(format!("{addr}: no addresses resolved"));
    for a in addrs {
        match TcpStream::connect_timeout(&a, budget) {
            Ok(stream) => return Ok(stream),
            Err(e) if e.kind() == ErrorKind::TimedOut => {
                last = ServeError::Timeout {
                    ms: budget.as_millis() as u64,
                }
            }
            Err(e) => last = ServeError::from(e),
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_grammar() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/a.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/a.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7700"),
            Endpoint::Tcp("127.0.0.1:7700".to_string())
        );
        assert_eq!(
            Endpoint::parse("/tmp/bare.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/bare.sock")),
            "bare paths are unix sockets"
        );
    }

    #[test]
    fn connect_timeout_to_missing_unix_socket_is_an_error() {
        let err = match Client::connect_with(
            &Endpoint::Unix(PathBuf::from("/tmp/aurora-definitely-missing.sock")),
            ClientOptions::timeout(Duration::from_millis(200)),
        ) {
            Ok(_) => panic!("connecting to a missing socket must fail"),
            Err(e) => e,
        };
        // refused immediately (Io), never a hang; a slow filesystem
        // could legitimately surface the budget instead
        assert!(
            matches!(err, ServeError::Io(_) | ServeError::Timeout { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn read_deadline_times_out_on_a_mute_server() {
        // a listener that accepts and then never answers
        let sock = std::env::temp_dir().join(format!("aurora-mute-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).expect("bind");
        let server = std::thread::spawn(move || {
            // hold the connection open, answer nothing
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let mut client = Client::connect_with(
            &Endpoint::Unix(sock.clone()),
            ClientOptions {
                connect_timeout: Some(Duration::from_secs(1)),
                read_timeout: Some(Duration::from_millis(100)),
            },
        )
        .expect("connect");
        let err = client
            .roundtrip("{\"id\":1,\"admin\":\"health\"}")
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Timeout { ms: 100 }),
            "mute server must cost a typed timeout, got {err:?}"
        );
        server.join().unwrap();
        let _ = std::fs::remove_file(&sock);
    }
}
