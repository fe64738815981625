//! The process-global metric registry: one [`Scope`] that lives for
//! the whole process, plus the `span!` call sites.
//!
//! Registration (first lookup of a name) takes the scope's map lock;
//! every later access goes through the returned `Arc` handle and is
//! lock-free. Call sites that fire repeatedly cache that handle in a
//! `OnceLock` (the `count!` / `record!` / `span!` macros do this
//! automatically), so the steady state never touches the registry lock
//! at all.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::metrics::{Counter, Histogram};
use crate::report::TraceReport;
use crate::rolling::RollingHistogram;
use crate::scope::{get_or_create, Map, Scope};
use crate::spans::{self, SpanSite, SpanSiteStat};

/// Process-global registry of named counters, histograms, rolling
/// windows and span sites. Obtain it via [`registry`].
#[derive(Debug)]
pub struct Registry {
    metrics: Scope,
    span_sites: Map<SpanSite>,
    epoch: Instant,
}

/// The process-global [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Scope::new("registry"),
        span_sites: Map::default(),
        epoch: Instant::now(),
    })
}

impl Registry {
    /// Look up (or create) the counter called `name`. Cache the handle
    /// and skip the lookup on the hot path; dynamic names (e.g.
    /// per-shard) are fine.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.metrics.counter(name)
    }

    /// Look up (or create) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.metrics.histogram(name)
    }

    /// Look up (or create) the rolling-window histogram called `name`.
    ///
    /// Rolling histograms *wrap* cumulative ones at the call site —
    /// record into both — so existing cumulative readers see the same
    /// stream they always did.
    pub fn rolling(&self, name: &str) -> Arc<RollingHistogram> {
        self.metrics.rolling(name)
    }

    /// Look up (or create) the `span!` call site called `name`: the
    /// site's cumulative histogram plus its name, interned once so span
    /// records can carry it as a `&'static str`.
    pub fn span_site(&self, name: &str) -> Arc<SpanSite> {
        get_or_create(&self.span_sites, name, || {
            let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
            SpanSite::new(interned, self.histogram(name))
        })
    }

    /// Nanoseconds elapsed since the registry was created (the time
    /// base of [`SpanRecord::start_ns`](crate::SpanRecord::start_ns)).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per-site span aggregates, hottest (largest total time) first,
    /// and the number of span records the per-thread rings evicted.
    ///
    /// The aggregates are read from each site's cumulative histogram,
    /// so they are exact over every span recorded since the last
    /// [`Registry::reset`], however many records the rings dropped.
    /// Sites with no spans are left out.
    #[must_use]
    pub fn span_sites(&self) -> (Vec<SpanSiteStat>, u64) {
        let mut stats: Vec<SpanSiteStat> = self
            .span_sites
            .lock()
            .expect("trace metric map")
            .values()
            .filter_map(|site| site.stat())
            .collect();
        stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.site.cmp(b.site)));
        (stats, spans::dropped_span_records())
    }

    /// A point-in-time copy of every metric and span-site aggregate.
    ///
    /// Snapshots are cheap (relaxed loads) and safe to take while
    /// workers are still recording; concurrent updates may or may not
    /// be visible, which is fine at the quiescent points where reports
    /// are taken.
    pub fn snapshot(&self) -> TraceReport {
        let (span_sites, spans_dropped) = self.span_sites();
        TraceReport {
            enabled: crate::enabled(),
            span_sites,
            spans_dropped,
            ..self.metrics.snapshot()
        }
    }

    /// Zero every counter, histogram and rolling window and empty the
    /// span rings. Used between bench rows to get per-row deltas from a
    /// shared process-global registry.
    pub fn reset(&self) {
        self.metrics.reset();
        spans::reset_spans();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_names_once() {
        let reg = registry();
        let a = reg.counter("test.registry.intern");
        let b = reg.counter("test.registry.intern");
        assert!(Arc::ptr_eq(&a, &b), "same name must yield same counter");
        let h1 = reg.histogram("test.registry.hist");
        let h2 = reg.histogram("test.registry.hist");
        assert!(Arc::ptr_eq(&h1, &h2));
        let r1 = reg.rolling("test.registry.roll");
        let r2 = reg.rolling("test.registry.roll");
        assert!(Arc::ptr_eq(&r1, &r2));
        let s1 = reg.span_site("test.registry.site_ns");
        let s2 = reg.span_site("test.registry.site_ns");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert!(std::ptr::eq(s1.name(), s2.name()), "names interned once");
        assert!(
            Arc::ptr_eq(s1.histogram(), &reg.histogram("test.registry.site_ns")),
            "a span site shares the same-named cumulative histogram"
        );
    }
}
