"""Reporting pipeline: collect recorded evidence, render it, gate on it.

The subsystem behind ``python -m repro report`` (see ``docs/report.md``):

* :mod:`repro.report.bundle` — the versioned :class:`ReportBundle` that
  normalizes every input into one JSON payload.
* :mod:`repro.report.collect` — gathers ``BENCH_*.json`` trajectories
  (schema 2 onward), saved sweep/scenario reports, and run-journal
  resilience counters into a bundle.
* :mod:`repro.report.render` — the pluggable renderer registry with the
  built-in self-contained HTML and CI-postable markdown renderers.
* :mod:`repro.report.check` — the per-backend perf-regression gate CI
  fails on (``repro report --check --tolerance X``).
* :mod:`repro.report.svg` — stdlib-only inline SVG charts for the HTML
  renderer.

Like every registry-backed package in the repo, importing this package
imports the modules that register components, so the renderer catalog is
complete after ``import repro.report``.
"""

from repro.report import render as _render_module  # registers html/md renderers
from repro.report.bundle import (
    REPORT_SCHEMA_VERSION,
    ReportBundle,
)
from repro.report.check import check_bundle, format_check, regression_rows
from repro.report.collect import collect_bundle, summarize_journals
from repro.report.render import (
    RENDERER_REGISTRY,
    render_bundle,
    render_html,
    render_markdown,
    renderer_names,
)

del _render_module

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "RENDERER_REGISTRY",
    "ReportBundle",
    "check_bundle",
    "collect_bundle",
    "format_check",
    "regression_rows",
    "render_bundle",
    "render_html",
    "render_markdown",
    "renderer_names",
    "summarize_journals",
]
