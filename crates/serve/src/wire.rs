//! The one request-line decoder. Every NDJSON line a worker or a router
//! reads goes through [`decode`]: one JSON parse, then typed lifts from
//! that same tree. Bounded nesting is the parser's job (it refuses
//! documents nested deeper than serde_json's limit of 128), so a hostile
//! line costs a `bad_request` reply, never a stack overflow.

use crate::error::ServeError;
use crate::server::{ServeRequest, SessionLine};
use serde::Deserialize;
use serde_json::Value;

/// One decoded request line.
pub(crate) enum Line {
    /// An introspection command (`{"admin": …}`). `command` is empty
    /// when the key does not hold a string; `id` is 0 when absent.
    Admin { id: u64, command: String },
    /// A streaming-session command (`{"session": …}`).
    Session(SessionLine),
    /// A simulation request (`{"sim": …}`).
    Sim(ServeRequest),
}

/// A line that decodes to no request.
pub(crate) struct BadLine {
    /// The line's `id` when it holds one (0 otherwise), so even a bad
    /// line gets an addressed reply.
    pub id: u64,
    /// The typed `bad_request` error.
    pub error: ServeError,
    /// Access-log workload label: `session` for a line carrying a
    /// `session` key, empty otherwise.
    pub workload: &'static str,
}

/// Decodes one request line. Precedence follows the keys: a line with
/// an `admin` key is an admin command whatever else it carries, then a
/// `session` key makes a session line, and anything else must be a sim
/// envelope.
pub(crate) fn decode(line: &str) -> Result<Line, BadLine> {
    let bad = |id, workload, what, e: serde::Error| BadLine {
        id,
        error: ServeError::BadRequest(format!("unparseable {what}: {e:?}")),
        workload,
    };
    let value: Value = serde_json::from_str(line).map_err(|e| bad(0, "", "request", e))?;
    let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
    if let Some(command) = value.get("admin") {
        let command = command.as_str().unwrap_or_default().to_string();
        return Ok(Line::Admin { id, command });
    }
    if value.get("session").is_some() {
        return SessionLine::from_value(&value)
            .map(Line::Session)
            .map_err(|e| bad(id, "session", "session line", e));
    }
    ServeRequest::from_value(&value)
        .map(Line::Sim)
        .map_err(|e| bad(id, "", "request", e))
}
