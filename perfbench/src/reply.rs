//! Reading reply lines without a full JSON parse.
//!
//! The daemon writes `SimResponse` fields in declaration order —
//! `{"id":N,"digest":"…","cached":B,"report":{…},"error":null}` — so
//! the envelope can be checked by position. Timed ops use this to keep
//! the client's per-op cost small next to the layers being measured.

pub struct Reply<'a> {
    pub digest: &'a str,
    pub cached: bool,
    /// The report object; `None` when the reply carries an error.
    pub report: Option<&'a str>,
}

pub fn parse(line: &str) -> Option<Reply<'_>> {
    let rest = line.strip_prefix("{\"id\":")?;
    let (_, rest) = rest.split_once(",\"digest\":\"")?;
    let (digest, rest) = rest.split_once("\",\"cached\":")?;
    let (cached, rest) = match rest.strip_prefix("true") {
        Some(rest) => (true, rest),
        None => (false, rest.strip_prefix("false")?),
    };
    let rest = rest.strip_prefix(",\"report\":")?;
    let report = rest
        .strip_suffix(",\"error\":null}")
        .filter(|r| r.starts_with('{'));
    Some(Reply {
        digest,
        cached,
        report,
    })
}

const HOST_PROFILE: &str = ",\"host_profile\":";

/// Splits a report into its body and its `host_profile` value (the
/// report's last field, which only profiled runs fill in). The body is
/// what must repeat exactly: host timings differ from run to run.
pub fn split_host_profile(report: &str) -> (&str, Option<&str>) {
    match report.rfind(HOST_PROFILE) {
        Some(i) => {
            let profile = &report[i + HOST_PROFILE.len()..report.len() - 1];
            (&report[..i], (profile != "null").then_some(profile))
        }
        None => (report, None),
    }
}

/// `total_cycles` of a report, by a full parse (set-up replies only).
pub fn total_cycles(report: &str) -> Result<u64, String> {
    let report: aurora_core::SimReport =
        serde_json::from_str(report).map_err(|e| format!("report unparseable: {e:?}"))?;
    Ok(report.total_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_ok_and_error_envelopes() {
        let ok = r#"{"id":3,"digest":"00ff","cached":true,"report":{"a":1,"host_profile":null},"error":null}"#;
        let r = parse(ok).unwrap();
        assert_eq!((r.digest, r.cached), ("00ff", true));
        assert_eq!(r.report, Some(r#"{"a":1,"host_profile":null}"#));
        assert_eq!(split_host_profile(r.report.unwrap()), (r#"{"a":1"#, None));

        let err = r#"{"id":3,"digest":"","cached":false,"report":null,"error":{"kind":"x","message":"y"}}"#;
        assert!(parse(err).unwrap().report.is_none());
        assert!(parse("{\"admin\":\"health\"}").is_none());
    }

    #[test]
    fn splits_a_filled_host_profile() {
        let report = r#"{"a":1,"host_profile":{"total_wall_us":5}}"#;
        assert_eq!(
            split_host_profile(report),
            (r#"{"a":1"#, Some(r#"{"total_wall_us":5}"#))
        );
    }
}
