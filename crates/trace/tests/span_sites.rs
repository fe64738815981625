//! Span-site aggregates are exact however many spans a site records:
//! they come from the site's cumulative histogram, not from the
//! bounded per-thread span ring. Its own test binary, because it flips
//! the process-global trace switch.

const SPANS: u64 = 5000;

#[test]
fn span_site_aggregates_are_exact_beyond_the_ring() {
    assert!(SPANS as usize > kpa_trace::SPAN_RING_CAPACITY);
    kpa_trace::set_enabled(true);
    for _ in 0..SPANS {
        let _span = kpa_trace::span!("test.span_sites.step_ns");
    }
    let report = kpa_trace::registry().snapshot();
    kpa_trace::set_enabled(false);

    let hist = &report.histograms["test.span_sites.step_ns"];
    let site = report
        .span_sites
        .iter()
        .find(|s| s.site == "test.span_sites.step_ns")
        .expect("the site is reported");
    assert_eq!(hist.count, SPANS);
    assert_eq!(site.count, SPANS, "every span counts, not only the ring's");
    assert_eq!(site.count, hist.count);
    assert_eq!(site.total_ns, hist.sum);
    assert_eq!(Some(site.max_ns), hist.max);
    assert!(report.spans_dropped > 0, "the ring itself still evicts");
}
