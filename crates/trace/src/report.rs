//! Snapshot types and exporters: stable JSON (in-repo writer, same
//! policy as the bench's `BENCH_*.json`) and a human-readable table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{bucket_floor, Histogram, BUCKETS};
use crate::spans::SpanSiteStat;

/// Schema version stamped into every trace JSON document.
///
/// v2 added the `windowed` section (rolling-window p50/p99 summaries)
/// and the `spans` section (ring drop count + per-site aggregates)
/// between `histograms` and `rows`. Early v2 documents also end with
/// the two keys of the since-removed event ring; readers ignore them.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// An immutable copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (wrapping).
    pub sum: u64,
    /// Smallest sample, `None` when empty.
    pub min: Option<u64>,
    /// Largest sample, `None` when empty.
    pub max: Option<u64>,
    /// Sparse buckets: `(bucket floor value, count)` for every
    /// non-empty log₂ bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Snapshot a live histogram (relaxed loads).
    pub fn of(h: &Histogram) -> Self {
        let buckets = (0..BUCKETS)
            .filter_map(|k| {
                let n = h.bucket(k);
                (n > 0).then(|| (bucket_floor(k), n))
            })
            .collect();
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets,
        }
    }

    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile of the recorded samples, resolved to the floor
    /// of the log₂ bucket containing that rank (`q` is clamped to
    /// `[0, 1]`; `None` when the histogram is empty).
    ///
    /// Buckets give a lower bound, not the exact sample: the true
    /// value lies within the bucket, i.e. less than twice the returned
    /// floor (plus one for the `[0]` and `[1]` buckets). That is the
    /// usual contract for log-bucketed latency percentiles — p50/p99
    /// rows derived from it are stable across runs because bucket
    /// edges are fixed.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q * count), with
        // q = 0 mapped to the first sample.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(floor, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(floor);
            }
        }
        self.buckets.last().map(|&(floor, _)| floor)
    }

    /// Convenience: the median bucket floor ([`quantile`](Self::quantile) at 0.5).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// Convenience: the 99th-percentile bucket floor.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// A rolling-window summary: the last-window shape of one
/// [`RollingHistogram`](crate::RollingHistogram), reduced to the four
/// numbers the schema exports (full bucket detail stays in-process;
/// the wire cares about "what was p99 just now").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedSnapshot {
    /// Samples inside the window.
    pub count: u64,
    /// Sum of those samples (wrapping).
    pub sum: u64,
    /// Median bucket floor over the window, `None` when empty.
    pub p50: Option<u64>,
    /// 99th-percentile bucket floor over the window, `None` when empty.
    pub p99: Option<u64>,
}

impl WindowedSnapshot {
    /// Reduce a merged window snapshot to the exported summary.
    #[must_use]
    pub fn of(window: &HistogramSnapshot) -> WindowedSnapshot {
        WindowedSnapshot {
            count: window.count,
            sum: window.sum,
            p50: window.p50(),
            p99: window.p99(),
        }
    }
}

/// A point-in-time copy of the whole registry, ready for export.
///
/// `rows` is an optional per-label breakdown (the bench fills it with
/// per-row counter deltas); it is empty in ordinary snapshots.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Whether tracing was enabled when the snapshot was taken.
    pub enabled: bool,
    /// All counters by name, sorted (BTreeMap iteration order).
    pub counters: BTreeMap<String, u64>,
    /// All histograms by name, sorted.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Rolling-window summaries by name, sorted (schema v2).
    pub windowed: BTreeMap<String, WindowedSnapshot>,
    /// Per-site span aggregates, hottest first (schema v2).
    pub span_sites: Vec<SpanSiteStat>,
    /// Span records evicted from full per-thread rings (schema v2).
    pub spans_dropped: u64,
    /// Optional per-label counter breakdowns (bench rows).
    pub rows: BTreeMap<String, BTreeMap<String, u64>>,
}

impl TraceReport {
    /// The value of counter `name`, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counter-wise difference `self - earlier` (saturating), covering
    /// every counter present in either snapshot. Used by the bench to
    /// attribute counter traffic to individual rows.
    pub fn delta_counters(&self, earlier: &TraceReport) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, &now) in &self.counters {
            let before = earlier.counter(name);
            out.insert(name.clone(), now.saturating_sub(before));
        }
        for name in earlier.counters.keys() {
            out.entry(name.clone()).or_insert(0);
        }
        out
    }

    /// Serialize to the stable trace JSON schema (version
    /// [`TRACE_SCHEMA_VERSION`]): sorted keys, sparse histogram
    /// buckets as `[floor, count]` pairs.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"kpa_trace\": {TRACE_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"enabled\": {},", self.enabled);
        let _ = writeln!(s, "  \"workload\": {},", json_str(workload));
        s.push_str("  \"counters\": {");
        push_counter_map(&mut s, &self.counters, "    ");
        s.push_str("  },\n");
        s.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json_str(name),
                h.count,
                h.sum,
                json_opt(h.min),
                json_opt(h.max)
            );
            for (j, (floor, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{floor}, {n}]");
            }
            s.push_str("]}");
        }
        if !self.histograms.is_empty() {
            s.push('\n');
        }
        s.push_str("  },\n");
        s.push_str("  \"windowed\": {");
        for (i, (name, w)) in self.windowed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "    {}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                json_str(name),
                w.count,
                w.sum,
                json_opt(w.p50),
                json_opt(w.p99)
            );
        }
        if !self.windowed.is_empty() {
            s.push('\n');
        }
        s.push_str("  },\n");
        let _ = write!(
            s,
            "  \"spans\": {{\"dropped\": {}, \"sites\": {{",
            self.spans_dropped
        );
        for (i, site) in self.span_sites.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "    {}: {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                json_str(site.site),
                site.count,
                site.total_ns,
                site.max_ns
            );
        }
        if !self.span_sites.is_empty() {
            s.push('\n');
        }
        s.push_str("  }},\n");
        s.push_str("  \"rows\": {");
        for (i, (label, counters)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(s, "    {}: {{", json_str(label));
            push_counter_map(&mut s, counters, "      ");
            s.push_str("    }");
        }
        if !self.rows.is_empty() {
            s.push('\n');
        }
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Render a fixed-width human-readable table (counters, then
    /// histograms with count/mean/min/max), for `kpa-explore --trace`
    /// and the examples.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "trace report ({})",
            if self.enabled { "enabled" } else { "disabled" }
        );
        if self.counters.is_empty() && self.histograms.is_empty() {
            s.push_str("  (no metrics recorded)\n");
            return s;
        }
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(8);
        if !self.counters.is_empty() {
            let _ = writeln!(s, "  {:<width$}  {:>12}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(s, "  {name:<width$}  {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>12}  {:>12}  {:>12}  {:>12}",
                "histogram", "count", "mean", "min", "max"
            );
            for (name, h) in &self.histograms {
                let mean = h
                    .mean()
                    .map(|m| format!("{m:.1}"))
                    .unwrap_or_else(|| "-".into());
                let fmt_opt =
                    |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    s,
                    "  {name:<width$}  {:>12}  {mean:>12}  {:>12}  {:>12}",
                    h.count,
                    fmt_opt(h.min),
                    fmt_opt(h.max)
                );
            }
        }
        if !self.windowed.is_empty() {
            let fmt_opt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                s,
                "  {:<width$}  {:>12}  {:>12}  {:>12}",
                "windowed", "count", "p50", "p99"
            );
            for (name, w) in &self.windowed {
                let _ = writeln!(
                    s,
                    "  {name:<width$}  {:>12}  {:>12}  {:>12}",
                    w.count,
                    fmt_opt(w.p50),
                    fmt_opt(w.p99)
                );
            }
        }
        if !self.span_sites.is_empty() {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>12}  {:>12}  {:>12}",
                "span site", "count", "total_ns", "max_ns"
            );
            for site in &self.span_sites {
                let _ = writeln!(
                    s,
                    "  {:<width$}  {:>12}  {:>12}  {:>12}",
                    site.site, site.count, site.total_ns, site.max_ns
                );
            }
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(
                s,
                "  ({} span records dropped from per-thread rings)",
                self.spans_dropped
            );
        }
        s
    }
}

fn push_counter_map(s: &mut String, map: &BTreeMap<String, u64>, indent: &str) {
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        let _ = write!(s, "{indent}{}: {v}", json_str(name));
    }
    if !map.is_empty() {
        s.push('\n');
    }
}

fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".into(),
    }
}

/// Minimal JSON string escaper: quotes the string and escapes
/// quotes/backslashes/control characters so the output is always a
/// well-formed JSON string literal. Public because downstream
/// protocol writers (`kpa-serve`) build their line-delimited JSON on
/// the same stable serialization rules as the trace reports.
#[must_use]
pub fn json_escape(s: &str) -> String {
    json_str(s)
}

/// Internal alias kept short for the writer above.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> TraceReport {
        let h = Histogram::new();
        h.record(0);
        h.record(5);
        let mut counters = BTreeMap::new();
        counters.insert("a.b".to_owned(), 3u64);
        let mut histograms = BTreeMap::new();
        histograms.insert("lat_ns".to_owned(), HistogramSnapshot::of(&h));
        let mut windowed = BTreeMap::new();
        windowed.insert(
            "lat_ns".to_owned(),
            WindowedSnapshot::of(&HistogramSnapshot::of(&h)),
        );
        TraceReport {
            enabled: true,
            counters,
            histograms,
            windowed,
            span_sites: vec![SpanSiteStat {
                site: "demo.step_ns",
                count: 2,
                total_ns: 110,
                max_ns: 100,
            }],
            spans_dropped: 0,
            rows: BTreeMap::new(),
        }
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let r = tiny_report();
        let a = r.to_json("unit");
        let b = r.to_json("unit");
        assert_eq!(a, b, "serialization must be deterministic");
        assert!(a.starts_with("{\n  \"kpa_trace\": 2,"));
        assert!(a.contains("\"workload\": \"unit\""));
        assert!(a.contains("\"a.b\": 3"));
        assert!(a.contains("\"buckets\": [[0, 1], [4, 1]]"));
        assert!(a.contains("\"lat_ns\": {\"count\": 2, \"sum\": 5, \"p50\": 0, \"p99\": 4}"));
        assert!(a.contains("\"spans\": {\"dropped\": 0, \"sites\": {"));
        assert!(a.contains("\"demo.step_ns\": {\"count\": 2, \"total_ns\": 110, \"max_ns\": 100}"));
        assert!(a.trim_end().ends_with('}'));
        // Braces and brackets balance (stringless schema sanity).
        let opens = a.matches('{').count() + a.matches('[').count();
        let closes = a.matches('}').count() + a.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn delta_counters_saturate_and_cover_both_sides() {
        let mut earlier = tiny_report();
        earlier.counters.insert("only.before".into(), 10);
        let mut later = tiny_report();
        later.counters.insert("a.b".into(), 8);
        later.counters.insert("only.after".into(), 2);
        let d = later.delta_counters(&earlier);
        assert_eq!(d["a.b"], 5);
        assert_eq!(d["only.after"], 2);
        assert_eq!(d["only.before"], 0, "shrinking counters saturate at 0");
    }

    #[test]
    fn table_renders_all_metrics() {
        let t = tiny_report().render_table();
        assert!(t.contains("a.b"));
        assert!(t.contains("lat_ns"));
        assert!(t.contains("enabled"));
        assert!(t.contains("windowed"));
        assert!(t.contains("demo.step_ns"));
    }

    #[test]
    fn quantiles_resolve_to_bucket_floors() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = HistogramSnapshot::of(&h);
        assert_eq!(snap.quantile(0.0), Some(1));
        assert_eq!(snap.p50(), Some(2), "rank 3 of 5 lands in the [2,4) bucket");
        assert_eq!(snap.p99(), Some(512), "rank 5 lands in 1000's bucket");
        assert_eq!(snap.quantile(1.0), Some(512));
        let empty = HistogramSnapshot::of(&Histogram::new());
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn json_escapes_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
