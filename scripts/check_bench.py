#!/usr/bin/env python3
"""Bench-regression gate for the bench JSON files (stdlib only).

Compares a freshly generated ``BENCH_N.json`` against the committed
baseline and fails (exit 1) when any asserted row regressed by more
than the tolerance.  Which keys are gated is chosen by the files' own
``bench`` field (``"kernel"`` for BENCH_8, ``"shared"`` for BENCH_6,
``"scale"`` for the BENCH_9 size ladder); the two files must agree on
it.

The two files are usually produced on *different machines* (the
committed baseline on a developer box, the fresh run on a CI runner),
so absolute row seconds are not comparable.  What *is* comparable is
each run's own ``speedups`` block: every speedup is a ratio of two rows
measured in the same process on the same host, so host speed divides
out.  The default mode therefore checks, per asserted speedup key:

  1. ``fresh >= baseline * (1 - TOLERANCE)``  -- the relative gate: a
     fresh ratio more than 30% below the committed one means the
     optimized path lost >30% throughput against its own reference
     path, i.e. a real regression rather than a slow runner.
  2. ``fresh >= floor(key)``                   -- the absolute floor the
     bench itself asserts (e.g. the dense measure kernel and the sample
     plan must each stay >= 2x their naive paths).

``par_sat_threads4_vs_1`` and ``shared_threads4_vs_1`` are deliberately
*not* asserted: they measure core-count scaling and legitimately sit
near 1x on single-core runners (the kernel bench skips its own assert
below 4 cores for the same reason).  ``shared_artifact_qps`` is an
absolute rate rather than a same-host ratio, so it is only required to
be present and positive.

With ``--same-host`` the gate additionally compares absolute row
seconds (fresh <= baseline * (1 + TOLERANCE) per row), for use when
both files verifiably come from the same machine.

With ``--trace`` the two files are kpa-trace reports (``TRACE_N.json``)
instead of bench rows.  The gate then:

  1. schema-checks the fresh report (``kpa_trace`` version 2, counters
     as string -> non-negative int, each histogram's ``count`` equal to
     its bucket mass, well-formed rows, and the v2 sections:
     ``windowed`` rolling summaries with ordered ``p50 <= p99`` and
     ``spans`` per-site aggregates -- both required present, and the
     fresh report's window must actually hold samples);
  2. requires the counters that prove the dense path was exercised
     (``measure.dense_query`` > 0, ``measure.kernel_built`` > 0,
     ``logic.plan_hit`` > 0) and zero ``assign.generic_measure``
     fallbacks on the dense row;
  3. computes the sample-plan hit rate
     ``plan_hit / (plan_hit + plan_fallback)`` on the planned bench row
     and asserts fresh >= baseline - HIT_RATE_SLACK.

Counter *counts* are host-independent (they are functions of the
workload, not the clock), so the trace gate is exact where the timing
gate must tolerate noise.

With ``--selftest`` the gate checks *itself* against synthetic inputs
-- profile lookup failures must name the offending files, the floor,
relative, and positivity gates must each fire, and a clean run must
pass -- so CI proves the gate still fails when it should.

Usage:
    python3 scripts/check_bench.py BASELINE.json FRESH.json [--same-host]
    python3 scripts/check_bench.py --trace TRACE_BASELINE.json TRACE_FRESH.json
    python3 scripts/check_bench.py --selftest
"""

import json
import sys

# A fresh ratio may drop at most this fraction below the baseline.
TOLERANCE = 0.30

# Per-bench gating profiles, keyed by the JSON files' own "bench"
# field.  Each profile lists:
#
#   asserted -- speedup keys gated relatively against the baseline,
#               with the hard floor each must also clear regardless of
#               the baseline (None = relative gate only).  The floors
#               mirror the asserts inside the bench binaries so a stale
#               baseline cannot weaken them.
#   positive -- keys that are host-dependent absolute rates (e.g. a
#               queries/s figure): required to be present and > 0, but
#               never compared across hosts.
#   excluded -- ratios excluded on purpose (core-count scaling figures
#               that legitimately sit near 1x on single-core runners);
#               listed so a typo'd key is caught below.
PROFILES = {
    "kernel": {
        "asserted": {
            "sat_bitset_vs_btreeset": 2.0,
            "measure_dense_vs_generic": 2.0,
            "pr_ge_dag_on_vs_off": 2.0,
            "pr_ge_plan_on_vs_off": 2.0,
        },
        "positive": set(),
        "excluded": {"par_sat_threads4_vs_1"},
    },
    "shared": {
        "asserted": {
            # ~1x on one core, > 1x with real parallelism; the relative
            # gate catches a sharding regression on either kind of host.
            "sharded_memo_vs_mutex": None,
        },
        "positive": {"shared_artifact_qps"},
        "excluded": {"shared_threads4_vs_1"},
    },
    "serve": {
        # The soak bench (BENCH_7) asserts bit-identity against the
        # serial model in-process before timing anything, so the gate
        # only has host-dependent rates left to check: the aggregate
        # query rate over the wire and the p50/p99 of the per-frame
        # service latency histogram. All are absolute figures, so like
        # shared_artifact_qps they are presence + positivity only; the
        # latency *ordering* (p99 >= p50 > 0) is asserted by the bench
        # binary itself and re-checked below in check_serve_latency.
        "asserted": {},
        "positive": {
            "serve_qps",
            "serve_frame_p50_ns",
            "serve_frame_p99_ns",
        },
        "excluded": {"serve_clients4_vs_1"},
    },
    "scale": {
        # The BENCH_9 size ladder (10^4 -> 10^6 points, 10^7 opt-in).
        # Only the 10^6 rung's wide-vs-narrow ratio carries the hard
        # floor: at a million points the 4xu64 + footprint-skip kernel
        # must beat the scalar full-span reference by >= 2x, and the
        # relative gate keeps the committed margin (~400x) from eroding
        # silently.  The small-rung ratios are the same-host quantity
        # but their wide passes sit in the low microseconds, where
        # timer jitter swamps a 30% tolerance -- so they are gated as
        # presence + positivity only.  The per-point throughputs are
        # host-dependent absolute rates, positivity-only like
        # shared_artifact_qps.
        "asserted": {
            "ladder_wide_vs_narrow_1e6": 2.0,
        },
        "positive": {
            "ladder_wide_vs_narrow_1e4",
            "ladder_wide_vs_narrow_1e5",
            "sat_pts_per_s_1e4",
            "sat_pts_per_s_1e5",
            "sat_pts_per_s_1e6",
            "knows_pts_per_s_1e4",
            "knows_pts_per_s_1e5",
            "knows_pts_per_s_1e6",
            "pr_family_pts_per_s_1e4",
            "pr_family_pts_per_s_1e5",
            "pr_family_pts_per_s_1e6",
            "measure_pts_per_s_1e4",
            "measure_pts_per_s_1e5",
            "measure_pts_per_s_1e6",
        },
        # The 10^7 rung only runs under KPA_LADDER_1E7=1 (tens of
        # seconds of build time on the 1-CPU CI runner), so its keys
        # are recognized but never required nor compared.
        "excluded": {
            "ladder_wide_vs_narrow_1e7",
            "sat_pts_per_s_1e7",
            "knows_pts_per_s_1e7",
            "pr_family_pts_per_s_1e7",
            "measure_pts_per_s_1e7",
        },
    },
}

# --trace mode: the schema version this gate understands.  v2 added the
# "windowed" (rolling-window p50/p99 summaries) and "spans" (dropped
# count + per-site aggregates) sections; both are required-present.
TRACE_SCHEMA_VERSION = 2

# --trace mode: the plan hit rate may drop at most this much (absolute)
# below the committed baseline before the gate fails.
HIT_RATE_SLACK = 0.10

# --trace mode: counters that must be present and positive in the fresh
# report's global counter map — each proves a PR 1-4/8/9 fast path
# actually ran (dense measure kernel, kernel construction, planned Pr
# sweep, sharded space cache, hash-consed formula arena, footprint-
# skipping set ops, wide block scans).
TRACE_REQUIRED_POSITIVE = (
    "measure.dense_query",
    "measure.kernel_built",
    "logic.plan_hit",
    "assign.space_cache_hit",
    "logic.terms_interned",
    "system.footprint_skipped_words",
    "measure.wide_blocks",
)

# --trace mode: the bench row whose counters carry the planned sweep
# (label prefix; the suffix encodes the point count).
PLAN_ROW_PREFIX = "pr_ge_family/plan_on/"
DENSE_ROW_PREFIX = "measure_interval/dense/"


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")


def bench_profile(baseline, fresh, baseline_path, fresh_path):
    """The gating profile both files agree on, or (None, failures)."""
    failures = []
    base_kind = baseline.get("bench")
    fresh_kind = fresh.get("bench")
    if base_kind != fresh_kind:
        failures.append(
            f"bench kinds differ: {baseline_path} is {base_kind!r}, "
            f"{fresh_path} is {fresh_kind!r} -- not comparable"
        )
        return None, failures
    if fresh_kind not in PROFILES:
        # Name the files carrying the kind: with stacked BENCH_N.json
        # baselines on disk, "unknown bench kind" alone does not say
        # which pair the gate choked on.
        failures.append(
            f"unknown bench kind {fresh_kind!r} in {baseline_path} and "
            f"{fresh_path}: add a profile to PROFILES in "
            "scripts/check_bench.py"
        )
        return None, failures
    return PROFILES[fresh_kind], failures


def check_speedups(profile, baseline, fresh):
    """Relative + floor + positivity gates over the profile's keys."""
    failures = []
    base_sp = baseline.get("speedups", {})
    fresh_sp = fresh.get("speedups", {})
    asserted = profile["asserted"]
    for key, floor in sorted(asserted.items()):
        if key not in base_sp:
            failures.append(f"baseline is missing speedup {key!r}")
            continue
        if key not in fresh_sp:
            failures.append(f"fresh run is missing speedup {key!r}")
            continue
        base, new = float(base_sp[key]), float(fresh_sp[key])
        cutoff = base * (1.0 - TOLERANCE)
        status = "ok"
        if new < cutoff:
            status = f"REGRESSED (> {TOLERANCE:.0%} below baseline)"
            failures.append(
                f"{key}: {new:.2f}x vs baseline {base:.2f}x "
                f"(cutoff {cutoff:.2f}x)"
            )
        if floor is not None and new < floor:
            status = f"BELOW FLOOR {floor:.1f}x"
            failures.append(f"{key}: {new:.2f}x is below the {floor:.1f}x floor")
        print(
            f"  {key:28s} baseline {base:8.2f}x  fresh {new:8.2f}x  {status}"
        )
    # Host-dependent absolute rates: must exist and be positive in the
    # fresh run, but two hosts' values are never compared.
    for key in sorted(profile["positive"]):
        if key not in fresh_sp:
            failures.append(f"fresh run is missing rate {key!r}")
            continue
        new = float(fresh_sp[key])
        status = "ok (host-dependent; presence only)"
        if not new > 0.0:
            status = "NOT POSITIVE"
            failures.append(f"{key}: {new} must be a positive rate")
        print(f"  {key:28s} fresh {new:16.0f}   {status}")
    # Keys neither asserted, positive-only, nor excluded are new rows
    # someone forgot to gate -- surface them rather than silently
    # ignoring.
    known = set(asserted) | profile["positive"] | profile["excluded"]
    for key in sorted(fresh_sp):
        if key not in known:
            failures.append(
                f"unrecognized speedup {key!r}: add it to the "
                f"{fresh.get('bench')!r} profile in scripts/check_bench.py"
            )
    return failures


def check_serve_latency(fresh):
    """Latency-histogram block validation for the "serve" bench.

    The quantile figures are host-dependent, so no cross-host
    comparison is made; what IS checked is internal consistency:
    0 < p50 <= p99, and the ``frame_latency/p50``/``p99`` rows must
    restate the same nanosecond figures in seconds (the rows exist so
    --same-host runs gate them like any other row).
    """
    failures = []
    sp = fresh.get("speedups", {})
    rows = {r["label"]: float(r["seconds"]) for r in fresh.get("rows", [])}
    p50 = float(sp.get("serve_frame_p50_ns", 0))
    p99 = float(sp.get("serve_frame_p99_ns", 0))
    status = "ok"
    if not 0 < p50 <= p99:
        status = "MISORDERED"
        failures.append(
            f"frame latency quantiles must satisfy 0 < p50 <= p99 "
            f"(got p50={p50}ns, p99={p99}ns)"
        )
    print(f"  {'frame latency ordering':28s} p50 {p50:10.0f}ns  p99 {p99:10.0f}ns  {status}")
    for label, ns in (("frame_latency/p50", p50), ("frame_latency/p99", p99)):
        secs = rows.get(label)
        if secs is None:
            failures.append(f"fresh run is missing the {label!r} row")
        elif abs(secs - ns / 1e9) > 1e-12:
            failures.append(
                f"{label} row ({secs}s) disagrees with the speedups "
                f"block ({ns}ns)"
            )
    return failures


def check_rows_same_host(baseline, fresh):
    """Absolute per-row seconds gate (--same-host only)."""
    failures = []
    base_rows = {r["label"]: float(r["seconds"]) for r in baseline.get("rows", [])}
    for row in fresh.get("rows", []):
        label, secs = row["label"], float(row["seconds"])
        if label not in base_rows:
            print(f"  {label:44s} (new row, no baseline)")
            continue
        base = base_rows[label]
        limit = base * (1.0 + TOLERANCE)
        status = "ok"
        if secs > limit:
            status = f"REGRESSED (> {TOLERANCE:.0%} slower)"
            failures.append(
                f"{label}: {secs * 1e3:.3f}ms vs baseline {base * 1e3:.3f}ms"
            )
        print(
            f"  {label:44s} baseline {base * 1e3:10.3f}ms  "
            f"fresh {secs * 1e3:10.3f}ms  {status}"
        )
    return failures


def check_trace_schema(report, path):
    """Structural checks on one kpa-trace report."""
    failures = []

    def err(msg):
        failures.append(f"{path}: {msg}")

    if report.get("kpa_trace") != TRACE_SCHEMA_VERSION:
        err(
            f"kpa_trace version {report.get('kpa_trace')!r} != "
            f"{TRACE_SCHEMA_VERSION}"
        )
    if not isinstance(report.get("enabled"), bool):
        err("'enabled' must be a boolean")
    counters = report.get("counters")
    if not isinstance(counters, dict):
        err("'counters' must be an object")
        counters = {}
    for name, val in counters.items():
        if not isinstance(name, str) or not isinstance(val, int) or val < 0:
            err(f"counter {name!r} must map a string to a non-negative int")
    hists = report.get("histograms")
    if not isinstance(hists, dict):
        err("'histograms' must be an object")
        hists = {}
    for name, h in hists.items():
        for field in ("count", "sum", "min", "max", "buckets"):
            if field not in h:
                err(f"histogram {name!r} is missing {field!r}")
        mass = sum(n for _, n in h.get("buckets", []))
        if h.get("count") != mass:
            err(
                f"histogram {name!r}: count {h.get('count')} != "
                f"bucket mass {mass}"
            )
        floors = [f for f, _ in h.get("buckets", [])]
        if floors != sorted(floors):
            err(f"histogram {name!r}: bucket floors must ascend")
    windowed = report.get("windowed")
    if not isinstance(windowed, dict):
        err("'windowed' must be an object (schema v2)")
        windowed = {}
    for name, w in windowed.items():
        for field in ("count", "sum", "p50", "p99"):
            if field not in w:
                err(f"windowed {name!r} is missing {field!r}")
        for field in ("count", "sum"):
            val = w.get(field, 0)
            if not isinstance(val, int) or val < 0:
                err(f"windowed {name!r}: {field!r} must be a non-negative int")
        p50, p99 = w.get("p50"), w.get("p99")
        for field, val in (("p50", p50), ("p99", p99)):
            if val is not None and (not isinstance(val, int) or val < 0):
                err(f"windowed {name!r}: {field!r} must be null or a "
                    "non-negative int")
        if isinstance(p50, int) and isinstance(p99, int) and p50 > p99:
            err(f"windowed {name!r}: p50 {p50} > p99 {p99}")
        if w.get("count", 0) > 0 and p50 is None:
            err(f"windowed {name!r}: a non-empty window must carry p50")
    spans = report.get("spans")
    if not isinstance(spans, dict):
        err("'spans' must be an object (schema v2)")
        spans = {}
    s_dropped = spans.get("dropped")
    if not isinstance(s_dropped, int) or s_dropped < 0:
        err("spans 'dropped' must be a non-negative int")
    sites = spans.get("sites")
    if not isinstance(sites, dict):
        err("spans 'sites' must be an object")
        sites = {}
    for name, site in sites.items():
        for field in ("count", "total_ns", "max_ns"):
            val = site.get(field)
            if not isinstance(val, int) or val < 0:
                err(f"span site {name!r}: {field!r} must be a "
                    "non-negative int")
        if site.get("max_ns", 0) > site.get("total_ns", 0):
            err(f"span site {name!r}: max_ns exceeds total_ns")
    rows = report.get("rows")
    if not isinstance(rows, dict):
        err("'rows' must be an object")
        rows = {}
    for label, row in rows.items():
        if not isinstance(row, dict) or any(
            not isinstance(v, int) or v < 0 for v in row.values()
        ):
            err(f"row {label!r} must map counter names to non-negative ints")
    return failures


def find_row(report, prefix):
    """The single bench row whose label starts with ``prefix``."""
    matches = [r for label, r in report.get("rows", {}).items()
               if label.startswith(prefix)]
    return matches[0] if len(matches) == 1 else None


def plan_hit_rate(row):
    hits = row.get("logic.plan_hit", 0)
    fallbacks = row.get("logic.plan_fallback", 0)
    total = hits + fallbacks
    return hits / total if total else 0.0


def check_trace(baseline, fresh, baseline_path, fresh_path):
    """Schema + dense-path + plan-hit-rate gates over trace reports."""
    failures = check_trace_schema(fresh, fresh_path)
    failures += check_trace_schema(baseline, baseline_path)

    counters = fresh.get("counters", {})
    for name in TRACE_REQUIRED_POSITIVE:
        val = counters.get(name, 0)
        status = "ok" if val > 0 else "MISSING/ZERO"
        print(f"  {name:28s} {val:12d}  {status}")
        if val <= 0:
            failures.append(f"required counter {name!r} is absent or zero")

    # Schema v2: the traced bench feeds every row's wall time into the
    # "bench.row_ns" rolling window, so a fresh report with an empty
    # windowed section means the rolling path silently stopped
    # recording.
    windows = fresh.get("windowed", {})
    win_samples = sum(
        w.get("count", 0) for w in windows.values() if isinstance(w, dict)
    )
    status = "ok" if win_samples > 0 else "EMPTY"
    print(f"  {'windowed samples':28s} {win_samples:12d}  {status}")
    if win_samples <= 0:
        failures.append(
            "fresh report's 'windowed' section holds no samples; the "
            "traced bench must record into a rolling window"
        )
    n_sites = len(fresh.get("spans", {}).get("sites", {}))
    status = "ok" if n_sites > 0 else "EMPTY"
    print(f"  {'span sites':28s} {n_sites:12d}  {status}")
    if n_sites <= 0:
        failures.append(
            "fresh report recorded no span sites; the traced bench runs "
            "instrumented span! scopes and must surface them"
        )

    dense_row = find_row(fresh, DENSE_ROW_PREFIX)
    if dense_row is None:
        failures.append(f"no unique row with prefix {DENSE_ROW_PREFIX!r}")
    else:
        fallbacks = dense_row.get("assign.generic_measure", 0)
        status = "ok" if fallbacks == 0 else "FELL BACK"
        print(f"  {'dense-row generic fallbacks':28s} {fallbacks:12d}  {status}")
        if fallbacks:
            failures.append(
                f"dense bench row took {fallbacks} generic fallback(s); "
                "the kernel rows must exercise the dense path"
            )

    fresh_row = find_row(fresh, PLAN_ROW_PREFIX)
    base_row = find_row(baseline, PLAN_ROW_PREFIX)
    if fresh_row is None or base_row is None:
        failures.append(f"no unique row with prefix {PLAN_ROW_PREFIX!r}")
    else:
        base_rate, new_rate = plan_hit_rate(base_row), plan_hit_rate(fresh_row)
        cutoff = base_rate - HIT_RATE_SLACK
        status = "ok" if new_rate >= cutoff else "REGRESSED"
        print(
            f"  {'plan hit rate':28s} baseline {base_rate:6.1%}  "
            f"fresh {new_rate:6.1%}  {status}"
        )
        if new_rate < cutoff:
            failures.append(
                f"plan hit rate {new_rate:.1%} fell more than "
                f"{HIT_RATE_SLACK:.0%} below baseline {base_rate:.1%}"
            )
    return failures


def selftest():
    """Checks the gate's own failure paths against synthetic inputs.

    A gate that silently stopped failing is worse than no gate, so CI
    runs this before trusting any PASS: profile lookup errors must name
    the offending files, and the floor, relative, positivity, and
    unrecognized-key checks must each fire on inputs built to trip
    them -- then a clean pair must pass with zero failures.
    """
    import contextlib
    import io

    def bench(kind, speedups):
        return {"bench": kind, "speedups": speedups}

    def run_speedups(profile, base, fresh):
        # The row-by-row prints are for the real gate's log, not ours.
        with contextlib.redirect_stdout(io.StringIO()):
            return check_speedups(profile, base, fresh)

    # Profile lookup: an unknown kind must name BOTH files, so the
    # operator knows which BENCH_N pair to fix.
    profile, fails = bench_profile(
        bench("warp", {}), bench("warp", {}), "base.json", "fresh.json"
    )
    assert profile is None and len(fails) == 1, fails
    assert "base.json" in fails[0] and "fresh.json" in fails[0], fails
    assert "'warp'" in fails[0], fails
    print("  profile lookup: unknown kind names both files      ok")

    # Mismatched kinds are named file-by-file too.
    profile, fails = bench_profile(
        bench("kernel", {}), bench("scale", {}), "base.json", "fresh.json"
    )
    assert profile is None and len(fails) == 1, fails
    assert "base.json" in fails[0] and "fresh.json" in fails[0], fails
    print("  profile lookup: kind mismatch names both files     ok")

    # A known kind resolves with no failures.
    profile, fails = bench_profile(
        bench("scale", {}), bench("scale", {}), "b", "f"
    )
    assert profile is PROFILES["scale"] and not fails, fails
    print("  profile lookup: known kind resolves                ok")

    prof = {"asserted": {"ratio": 2.0}, "positive": {"rate"}, "excluded": set()}
    ok_base = bench("x", {"ratio": 3.0, "rate": 10.0})

    # Floor: below the hard 2.0x even though the baseline is worse
    # (the relative gate alone would wave it through).
    fails = run_speedups(prof, bench("x", {"ratio": 1.0, "rate": 1.0}),
                         bench("x", {"ratio": 1.5, "rate": 1.0}))
    assert any("below the 2.0x floor" in f for f in fails), fails
    print("  speedup gate: absolute floor fires                 ok")

    # Relative: above the floor but > TOLERANCE below the baseline.
    fails = run_speedups(prof, bench("x", {"ratio": 10.0, "rate": 1.0}),
                         bench("x", {"ratio": 6.0, "rate": 1.0}))
    assert any("vs baseline" in f for f in fails), fails
    print("  speedup gate: relative tolerance fires             ok")

    # Positivity: a zero rate fails even though no ratio regressed.
    fails = run_speedups(prof, ok_base, bench("x", {"ratio": 3.0, "rate": 0.0}))
    assert any("must be a positive rate" in f for f in fails), fails
    print("  speedup gate: positivity fires                     ok")

    # Unrecognized keys surface instead of passing silently.
    fails = run_speedups(prof, ok_base,
                         bench("x", {"ratio": 3.0, "rate": 1.0, "novel": 9.0}))
    assert any("unrecognized speedup 'novel'" in f for f in fails), fails
    print("  speedup gate: unrecognized key fires               ok")

    # And a clean pair passes with zero failures.
    fails = run_speedups(prof, ok_base, bench("x", {"ratio": 2.9, "rate": 5.0}))
    assert fails == [], fails
    print("  speedup gate: clean pair passes                    ok")

    # Trace schema v2: a well-formed report passes clean, and the
    # windowed / spans validators each fire on inputs built to trip
    # them.
    def trace_report(**overrides):
        report = {
            "kpa_trace": TRACE_SCHEMA_VERSION,
            "enabled": True,
            "counters": {"measure.dense_query": 3},
            "histograms": {},
            "windowed": {
                "bench.row_ns": {"count": 2, "sum": 12, "p50": 4, "p99": 8}
            },
            "spans": {
                "dropped": 0,
                "sites": {
                    "system.build_ns": {
                        "count": 2, "total_ns": 9, "max_ns": 7
                    }
                },
            },
            "rows": {},
        }
        report.update(overrides)
        return report

    assert check_trace_schema(trace_report(), "t.json") == []
    print("  trace schema: well-formed v2 report passes         ok")

    fails = check_trace_schema(trace_report(kpa_trace=1), "t.json")
    assert any("kpa_trace version" in f for f in fails), fails
    print("  trace schema: stale version fires                  ok")

    fails = check_trace_schema(
        {k: v for k, v in trace_report().items() if k != "windowed"}, "t.json"
    )
    assert any("'windowed' must be an object" in f for f in fails), fails
    fails = check_trace_schema(
        {k: v for k, v in trace_report().items() if k != "spans"}, "t.json"
    )
    assert any("'spans' must be an object" in f for f in fails), fails
    print("  trace schema: missing v2 sections fire             ok")

    fails = check_trace_schema(
        trace_report(windowed={"w": {"count": 1, "sum": 9,
                                     "p50": 9, "p99": 3}}),
        "t.json",
    )
    assert any("p50 9 > p99 3" in f for f in fails), fails
    fails = check_trace_schema(
        trace_report(windowed={"w": {"count": 1, "sum": 9,
                                     "p50": None, "p99": None}}),
        "t.json",
    )
    assert any("must carry p50" in f for f in fails), fails
    print("  trace schema: windowed quantile checks fire        ok")

    fails = check_trace_schema(
        trace_report(spans={"dropped": 0, "sites": {
            "s": {"count": 1, "total_ns": 2, "max_ns": 5}}}),
        "t.json",
    )
    assert any("max_ns exceeds total_ns" in f for f in fails), fails
    fails = check_trace_schema(
        trace_report(spans={"dropped": -1, "sites": {}}), "t.json"
    )
    assert any("'dropped' must be a non-negative int" in f for f in fails), fails
    print("  trace schema: span site checks fire                ok")

    # The trace gate end to end: a clean pair passes, and a fresh
    # report whose rolling window went silent is rejected.
    def full_trace(**overrides):
        counters = {name: 5 for name in TRACE_REQUIRED_POSITIVE}
        return trace_report(
            counters=counters,
            rows={
                "measure_interval/dense/8x100": {"measure.dense_query": 5},
                "pr_ge_family/plan_on/100": {
                    "logic.plan_hit": 9, "logic.plan_fallback": 1
                },
            },
            **overrides,
        )

    with contextlib.redirect_stdout(io.StringIO()):
        fails = check_trace(full_trace(), full_trace(), "b.json", "f.json")
    assert fails == [], fails
    with contextlib.redirect_stdout(io.StringIO()):
        fails = check_trace(
            full_trace(), full_trace(windowed={}), "b.json", "f.json"
        )
    assert any("holds no samples" in f for f in fails), fails
    with contextlib.redirect_stdout(io.StringIO()):
        fails = check_trace(
            full_trace(),
            full_trace(spans={"dropped": 0, "sites": {}}),
            "b.json",
            "f.json",
        )
    assert any("no span sites" in f for f in fails), fails
    print("  trace gate: clean pass + empty-window/site firing  ok")

    # Every committed profile is structurally sound and internally
    # disjoint (a key in two buckets would be gated ambiguously).
    for kind, p in PROFILES.items():
        assert set(p) == {"asserted", "positive", "excluded"}, kind
        buckets = [set(p["asserted"]), p["positive"], p["excluded"]]
        total = sum(len(b) for b in buckets)
        assert len(set().union(*buckets)) == total, f"{kind}: overlapping keys"
    print(f"  profiles: {len(PROFILES)} structurally sound and disjoint    ok")

    print("selftest passed.")
    return 0


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    flags = set(argv) - set(args)
    unknown = flags - {"--same-host", "--trace", "--selftest"}
    usage = "\n".join(__doc__.strip().splitlines()[-3:])
    if "--selftest" in flags:
        if unknown or args or flags != {"--selftest"}:
            sys.exit(usage)
        print("check_bench selftest:")
        return selftest()
    if unknown or len(args) != 2:
        sys.exit(usage)
    baseline_path, fresh_path = args
    baseline, fresh = load(baseline_path), load(fresh_path)

    if "--trace" in flags:
        print(f"trace gate: {fresh_path} vs baseline {baseline_path}")
        failures = check_trace(baseline, fresh, baseline_path, fresh_path)
        if failures:
            print(f"\nFAIL: {len(failures)} trace gate failure(s):",
                  file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("trace gate passed.")
        return 0

    print(f"bench gate: {fresh_path} vs baseline {baseline_path}")
    profile, failures = bench_profile(baseline, fresh, baseline_path, fresh_path)
    if profile is not None:
        print(
            f"speedup ratios [{fresh.get('bench')}] "
            f"(tolerance {TOLERANCE:.0%}, host-independent):"
        )
        failures += check_speedups(profile, baseline, fresh)
        if fresh.get("bench") == "serve":
            failures += check_serve_latency(fresh)
    if "--same-host" in flags:
        print("absolute row seconds (--same-host):")
        failures += check_rows_same_host(baseline, fresh)

    if failures:
        print(f"\nFAIL: {len(failures)} bench regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
