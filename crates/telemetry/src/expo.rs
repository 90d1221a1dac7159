//! Prometheus text-format exposition of a [`MetricsSnapshot`].
//!
//! [`render`] turns a snapshot into the plain-text format every
//! Prometheus-compatible scraper understands, so the serve daemon's
//! `{"admin":"metrics"}` answer can be piped straight into a collector.
//! The rendering is fully deterministic: snapshots are already in
//! `(name, scope)` order, names sanitize by a pure character map, and
//! numbers format without locale or hash-order influence — the same
//! snapshot always renders byte-identically (golden-tested below).
//!
//! Mapping:
//!
//! * metric names gain an `aurora_` prefix and non-`[A-Za-z0-9_]`
//!   characters become `_` (`serve.latency_us` →
//!   `aurora_serve_latency_us`);
//! * [`Scope`] fields become the `model` / `layer` / `tile` / `phase`
//!   labels;
//! * counters and gauges are one sample line per scope under a shared
//!   `# TYPE` header;
//! * the log₂ [`Histogram`](crate::Histogram) renders as cumulative
//!   `_bucket{le="..."}` lines (bucket *i*'s inclusive upper bound is
//!   `2^i − 1`), a `+Inf` bucket, `_sum`, and `_count` — the standard
//!   Prometheus histogram triple.
//!
//! Counters keep their recorded names (no `_total` suffix is invented):
//! the names are already a stable cross-crate contract in
//! [`names`](crate::names).

use crate::metrics::MetricsSnapshot;
use crate::scope::Scope;
use std::fmt::Write;

/// Renders `snapshot` in the Prometheus text exposition format.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let mut last: Option<&str> = None;
    for c in &snapshot.counters {
        type_header(&mut out, &mut last, &c.name, "counter");
        let _ = writeln!(
            out,
            "{}{} {}",
            metric_name(&c.name),
            labels(&c.scope, &[]),
            c.value
        );
    }

    let mut last: Option<&str> = None;
    for g in &snapshot.gauges {
        type_header(&mut out, &mut last, &g.name, "gauge");
        let _ = writeln!(
            out,
            "{}{} {}",
            metric_name(&g.name),
            labels(&g.scope, &[]),
            float(g.value)
        );
    }

    let mut last: Option<&str> = None;
    for h in &snapshot.histograms {
        type_header(&mut out, &mut last, &h.name, "histogram");
        let name = metric_name(&h.name);
        let mut cumulative = 0u64;
        for (i, &count) in h.histogram.buckets.iter().enumerate() {
            cumulative += count;
            let le = bucket_le(i);
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                labels(&h.scope, &[("le", &le)])
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            labels(&h.scope, &[("le", "+Inf")]),
            h.histogram.count
        );
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            labels(&h.scope, &[]),
            h.histogram.sum
        );
        let _ = writeln!(
            out,
            "{name}_count{} {}",
            labels(&h.scope, &[]),
            h.histogram.count
        );
    }

    out
}

/// Emits one `# TYPE` header per metric family. Snapshot entries are
/// name-sorted, so a family's scopes are contiguous and `last` suffices.
fn type_header<'a>(out: &mut String, last: &mut Option<&'a str>, name: &'a str, kind: &str) {
    if *last != Some(name) {
        let _ = writeln!(out, "# TYPE {} {kind}", metric_name(name));
        *last = Some(name);
    }
}

/// `aurora_`-prefixed name with every non-`[A-Za-z0-9_]` byte mapped to
/// `_` — a pure function, so identical names always collide identically.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("aurora_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Inclusive upper bound of log₂ bucket `i` as an `le` label value.
fn bucket_le(i: usize) -> String {
    if i == 0 {
        "0".to_string()
    } else if i >= 64 {
        u64::MAX.to_string()
    } else {
        ((1u64 << i) - 1).to_string()
    }
}

/// `{model="GCN",layer="0",le="15"}` — scope labels in canonical order
/// plus any extra pairs; empty string for a root scope with no extras.
fn labels(scope: &Scope, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, String)> = Vec::new();
    if let Some(m) = &scope.model {
        pairs.push(("model", m.clone()));
    }
    if let Some(l) = scope.layer {
        pairs.push(("layer", l.to_string()));
    }
    if let Some(t) = scope.tile {
        pairs.push(("tile", t.to_string()));
    }
    if let Some(p) = &scope.phase {
        pairs.push(("phase", p.clone()));
    }
    for (k, v) in extra {
        pairs.push((k, v.to_string()));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Gauge value formatting: shortest round-trip decimal, with the
/// Prometheus spellings for the non-finite cases.
fn float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ConcurrentRegistry;

    #[test]
    fn names_sanitize_deterministically() {
        assert_eq!(metric_name("serve.latency_us"), "aurora_serve_latency_us");
        assert_eq!(
            metric_name("noc.route_table.builds"),
            "aurora_noc_route_table_builds"
        );
        assert_eq!(metric_name("a-b c"), "aurora_a_b_c");
    }

    #[test]
    fn label_values_escape() {
        let s = Scope::model("G\"C\\N");
        assert_eq!(labels(&s, &[]), "{model=\"G\\\"C\\\\N\"}");
    }

    #[test]
    fn bucket_bounds_are_inclusive_powers_of_two() {
        assert_eq!(bucket_le(0), "0");
        assert_eq!(bucket_le(1), "1");
        assert_eq!(bucket_le(4), "15");
        assert_eq!(bucket_le(64), u64::MAX.to_string());
    }

    /// Golden exposition: pins the exact text format. A diff here is a
    /// contract change for every scraper of `{"admin":"metrics"}` —
    /// update deliberately.
    #[test]
    fn golden_exposition_format() {
        let r = ConcurrentRegistry::new();
        r.counter_add("serve.requests", &Scope::ROOT, 5);
        r.counter_add("serve.requests", &Scope::model("GCN").layer(0), 2);
        r.gauge_set("serve.inflight", &Scope::ROOT, 2.0);
        for v in [0u64, 1, 3, 8] {
            r.observe("serve.latency_us", &Scope::ROOT, v);
        }
        let expected = "\
# TYPE aurora_serve_requests counter
aurora_serve_requests 5
aurora_serve_requests{model=\"GCN\",layer=\"0\"} 2
# TYPE aurora_serve_inflight gauge
aurora_serve_inflight 2
# TYPE aurora_serve_latency_us histogram
aurora_serve_latency_us_bucket{le=\"0\"} 1
aurora_serve_latency_us_bucket{le=\"1\"} 2
aurora_serve_latency_us_bucket{le=\"3\"} 3
aurora_serve_latency_us_bucket{le=\"7\"} 3
aurora_serve_latency_us_bucket{le=\"15\"} 4
aurora_serve_latency_us_bucket{le=\"+Inf\"} 4
aurora_serve_latency_us_sum 12
aurora_serve_latency_us_count 4
";
        assert_eq!(render(&r.snapshot()), expected);
    }

    #[test]
    fn rendering_is_deterministic_across_recording_orders() {
        let a = ConcurrentRegistry::new();
        a.counter_add("z", &Scope::ROOT, 1);
        a.counter_add("a", &Scope::model("GIN"), 2);
        a.observe("lat", &Scope::ROOT, 7);
        let b = ConcurrentRegistry::new();
        b.observe("lat", &Scope::ROOT, 7);
        b.counter_add("a", &Scope::model("GIN"), 2);
        b.counter_add("z", &Scope::ROOT, 1);
        assert_eq!(render(&a.snapshot()), render(&b.snapshot()));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render(&MetricsSnapshot::default()), "");
    }
}
