//! Scoped metric groups, and the one map shape and get-or-create path
//! every metric group in the crate — the process-global registry
//! included — is built from.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Histogram};
use crate::report::{HistogramSnapshot, TraceReport, WindowedSnapshot};
use crate::rolling::RollingHistogram;

/// A name → shared-handle map: the one shape every metric group in
/// this crate (a [`Scope`]'s three maps, the registry's span sites)
/// is stored in.
pub(crate) type Map<T> = Mutex<BTreeMap<String, Arc<T>>>;

/// Look up `name` in `map`, creating its entry with `make` on first
/// use. The one get-or-create path of the crate.
pub(crate) fn get_or_create<T>(map: &Map<T>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    let mut map = map.lock().expect("trace metric map");
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::new(make());
    map.insert(name.to_owned(), Arc::clone(&m));
    m
}

fn snapshot_map<T, S>(map: &Map<T>, of: impl Fn(&T) -> S) -> BTreeMap<String, S> {
    let map = map.lock().expect("trace metric map");
    map.iter().map(|(k, m)| (k.clone(), of(m))).collect()
}

/// A named, independently owned group of counters, histograms and
/// rolling windows: metrics whose lifetime is an object, not the
/// process.
///
/// The process-global [`Registry`](crate::Registry) is one `Scope`
/// that lives forever — exactly right for the fixed vocabulary of
/// instrumentation points, and exactly wrong for *per-entity* metrics
/// like "queries answered by session 17", whose names are unbounded.
/// A `Scope` of its own drops with its owner, snapshots into the same
/// [`TraceReport`] (so the stable JSON writer and the fixed-width
/// table render it unchanged), and is **not** gated by the global
/// trace switch — a session's own statistics must be reportable
/// whether or not `KPA_TRACE` is on.
///
/// Metric handles are shared `Arc`s: look one up once and update it
/// lock-free from any thread; the scope's maps are only locked on
/// first registration and at snapshot time.
///
/// # Examples
///
/// ```
/// let scope = kpa_trace::Scope::new("session-1");
/// scope.counter("queries").add(3);
/// scope.histogram("batch_ns").record(1800);
/// let report = scope.snapshot();
/// assert_eq!(report.counter("queries"), 3);
/// assert_eq!(report.histograms["batch_ns"].count, 1);
/// // Dropping the scope releases every metric it owned.
/// ```
#[derive(Debug, Default)]
pub struct Scope {
    label: String,
    counters: Map<Counter>,
    histograms: Map<Histogram>,
    rollings: Map<RollingHistogram>,
}

impl Scope {
    /// An empty scope labelled `label` (the label becomes the
    /// `workload` field of exported snapshots).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Scope {
        Scope {
            label: label.into(),
            ..Scope::default()
        }
    }

    /// The scope's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Look up (or create) the scope-local counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// Look up (or create) the scope-local histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, Histogram::new)
    }

    /// Record one sample into the scope-local histogram called `name`.
    ///
    /// Convenience for `scope.histogram(name).record(v)` — it takes
    /// the registration lock each call, so hot paths should cache the
    /// `Arc` from [`Scope::histogram`] instead.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Look up (or create) the scope-local rolling-window histogram
    /// called `name`. Rolling histograms wrap cumulative ones at the
    /// call site; [`Scope::record_windowed`] records into both.
    pub fn rolling(&self, name: &str) -> Arc<RollingHistogram> {
        get_or_create(&self.rollings, name, RollingHistogram::new)
    }

    /// Record one sample into both the cumulative histogram and the
    /// rolling window called `name`, so old readers of the cumulative
    /// stream are untouched while new readers get recent quantiles.
    /// Takes the registration locks each call; hot paths should cache
    /// the two handles instead.
    pub fn record_windowed(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
        self.rolling(name).record(v);
    }

    /// A point-in-time copy of every metric in the scope, in the same
    /// [`TraceReport`] shape the global registry snapshots into — so
    /// [`TraceReport::to_json`] and [`TraceReport::render_table`] work
    /// on it unchanged. Scope reports always carry `enabled: true`
    /// (scopes are not gated) and have no span sites or rows.
    #[must_use]
    pub fn snapshot(&self) -> TraceReport {
        TraceReport {
            enabled: true,
            counters: snapshot_map(&self.counters, Counter::get),
            histograms: snapshot_map(&self.histograms, HistogramSnapshot::of),
            windowed: snapshot_map(&self.rollings, |r| WindowedSnapshot::of(&r.window())),
            span_sites: Vec::new(),
            spans_dropped: 0,
            rows: BTreeMap::new(),
        }
    }

    /// Zero every metric in the scope, keeping the registrations (and
    /// so every handle callers cached) alive.
    pub(crate) fn reset(&self) {
        for c in self.counters.lock().expect("trace metric map").values() {
            c.reset();
        }
        for h in self.histograms.lock().expect("trace metric map").values() {
            h.reset();
        }
        for r in self.rollings.lock().expect("trace metric map").values() {
            r.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_metrics_are_independent_of_the_registry() {
        let scope = Scope::new("unit");
        assert_eq!(scope.label(), "unit");
        scope.counter("q").add(2);
        scope.counter("q").incr();
        scope.histogram("lat_ns").record(100);
        scope.record("lat_ns", 200);
        scope.record_windowed("frame_ns", 1800);
        let report = scope.snapshot();
        assert_eq!(report.counter("q"), 3);
        assert_eq!(report.histograms["lat_ns"].count, 2);
        assert_eq!(
            report.histograms["frame_ns"].count, 1,
            "windowed recording feeds the cumulative stream too"
        );
        assert_eq!(report.windowed["frame_ns"].count, 1);
        assert_eq!(report.windowed["frame_ns"].p50, Some(1024));
        // Nothing reached the process-global registry.
        assert_eq!(crate::registry().snapshot().counter("q"), 0);
        // A second scope with the same metric names starts from zero.
        let other = Scope::new("unit-2");
        assert_eq!(other.snapshot().counter("q"), 0);
    }

    #[test]
    fn scope_handles_are_shared() {
        let scope = Scope::new("unit");
        let a = scope.counter("x");
        let b = scope.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.incr();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn scope_snapshot_serializes_via_the_stable_writer() {
        let scope = Scope::new("session");
        scope.counter("frames").add(7);
        let json = scope.snapshot().to_json("session");
        assert!(json.contains("\"frames\": 7"));
        assert!(json.contains("\"workload\": \"session\""));
    }
}
