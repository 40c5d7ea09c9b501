"""The CI perf-regression gate: newest trajectory point vs a baseline.

This module gates **recorded evidence**: the newest collected trajectory
point against the chosen baseline point, **per backend** — the per-backend
table is what a throughput regression actually shows up in (a design row
can drift with workload tweaks; a backend losing half its regions/sec is a
kernel regression).  ``python -m repro report --check --tolerance X``
exposes it on the command line, and it is the repo's one regression gate:
CI fails on it.

Semantics: for every backend the two points share, the newest point's
regions/sec must be at least ``tolerance`` times the baseline's.  No shared
backend, no baseline, or a nonsensical tolerance all raise — a gate that
cannot run must fail loudly, never pass vacuously.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.perfbench import point_backend_rps
from repro.report.bundle import ReportBundle

__all__ = ["check_bundle", "format_check", "regression_rows"]


def regression_rows(
    newest: Mapping[str, object],
    baseline: Mapping[str, object],
    tolerance: float,
) -> List[Dict[str, object]]:
    """Per-backend comparison of two normalized trajectory points.

    Returns one row per shared backend: ``{"backend", "regions_per_sec",
    "baseline_regions_per_sec", "ratio", "ok"}``, sorted by backend name.
    ``ok`` is ``ratio >= tolerance``.  Raises :class:`ValueError` when the
    tolerance is not positive or the points share no measured backend.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    fresh = point_backend_rps(newest)
    recorded = point_backend_rps(baseline)
    shared = sorted(name for name in fresh if name in recorded)
    if not shared:
        raise ValueError(
            "no shared backends between the newest point "
            f"({', '.join(sorted(fresh)) or 'none'}) and the baseline "
            f"({', '.join(sorted(recorded)) or 'none'})"
        )
    rows: List[Dict[str, object]] = []
    for name in shared:
        ratio = fresh[name] / recorded[name] if recorded[name] else 0.0
        rows.append({
            "backend": name,
            "regions_per_sec": fresh[name],
            "baseline_regions_per_sec": recorded[name],
            "ratio": ratio,
            "ok": ratio >= tolerance,
        })
    return rows


def check_bundle(
    bundle: ReportBundle, tolerance: float
) -> List[Dict[str, object]]:
    """Run the regression gate over a collected bundle.

    Raises :class:`ValueError` when the bundle has no trajectory point to
    check or no baseline was resolved (a single-point trajectory with no
    explicit ``--baseline``) — the conditions under which "pass" would be
    meaningless.
    """
    newest = bundle.newest_point
    if newest is None:
        raise ValueError("no trajectory points were collected; nothing to check")
    if bundle.baseline is None:
        raise ValueError(
            "no baseline to check against: the collected trajectory has a "
            "single point — pass --baseline PATH (e.g. the committed "
            "BENCH_kernel.json) or collect a trajectory with history"
        )
    return regression_rows(newest, bundle.baseline, tolerance)


def format_check(
    rows: Sequence[Mapping[str, object]],
    tolerance: float,
    baseline_source: Optional[str] = None,
) -> str:
    """Human-readable rendering of a :func:`check_bundle` result."""
    against = f" against {baseline_source}" if baseline_source else ""
    lines = [
        f"per-backend regions/sec vs baseline{against} (tolerance {tolerance:.2f}x):"
    ]
    for row in rows:
        verdict = "ok" if row["ok"] else "REGRESSED"
        lines.append(
            "  {backend:>10}: {regions_per_sec:>12,.0f} regions/s vs "
            "{baseline_regions_per_sec:>12,.0f} baseline "
            "({ratio:.2f}x) {verdict}".format(verdict=verdict, **row)
        )
    return "\n".join(lines)
