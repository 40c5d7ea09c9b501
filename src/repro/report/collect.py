"""Collect run artifacts into a :class:`~repro.report.bundle.ReportBundle`.

The pipeline's first stage: gather whatever evidence a run left behind —
bench trajectory files (``BENCH_*.json``, schema 2 onward), saved sweep
reports (``python -m repro sweep --save-report``), run-journal directories —
normalize all of it, and return one bundle the renderers and the regression
gate consume.  The shape follows the artifacts→report pipelines of perf
tooling: collection is separate from rendering, so the same bundle can be
rendered as HTML for humans and markdown for CI.

Normalization rules:

* Trajectory points are schema-checked on the way in
  (:func:`repro.perfbench.normalized_trajectory`): schema 2 and 3 share one
  field vocabulary and collect side by side; an older point is refused.
* Sweep files are read through :func:`repro.api.load_reports` (both the
  ``--save-report`` layout and redirected ``--json`` stdout); their
  :class:`~repro.sweep.SweepStats` counters are summed into the bundle's
  resilience section.
* The regression baseline is resolved here, once: an explicit baseline file
  beats the trajectory's own previous point; a single-point trajectory with
  no explicit baseline yields ``baseline=None`` and the gate refuses to run
  instead of comparing a point against itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.perfbench import normalized_trajectory
from repro.report.bundle import ReportBundle

__all__ = ["collect_bundle", "summarize_journals"]


def summarize_journals(directory: Union[str, Path]) -> Dict[str, int]:
    """Fold a run-journal directory into plain counters.

    Scans every ``*.jsonl`` journal (see :class:`repro.resilience.RunJournal`)
    and counts journals, cells they expected (header ``cells`` fields) and
    cell records they hold.  Unreadable files and torn lines degrade to
    smaller counts — mirroring ``RunJournal.load``'s own tolerance — and a
    missing directory is simply zero journals, so the collector never fails
    because a sweep happened not to journal.
    """
    counters = {"journals": 0, "journal_cells_expected": 0, "journal_cells_recorded": 0}
    directory = Path(directory)
    if not directory.is_dir():
        return counters
    for path in sorted(directory.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        counters["journals"] += 1
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            if "schema" in payload:
                cells = payload.get("cells")
                if isinstance(cells, int):
                    counters["journal_cells_expected"] += cells
            elif isinstance(payload.get("key"), str):
                counters["journal_cells_recorded"] += 1
    return counters


def _resolve_baseline(
    trajectory: List[Dict[str, object]],
    trajectory_sources: List[str],
    baseline_path: Optional[Union[str, Path]],
) -> ReportBundle:
    """Attach the regression baseline to a partially built bundle."""
    bundle = ReportBundle(
        trajectory=trajectory, trajectory_sources=trajectory_sources
    )
    if baseline_path is not None:
        points = normalized_trajectory(baseline_path)
        if not points:
            raise ValueError(f"baseline trajectory {baseline_path} has no points")
        bundle.baseline = points[-1]
        bundle.baseline_source = f"{baseline_path} (latest point)"
    elif len(trajectory) >= 2:
        # The newest point is the one under test; its predecessor is the
        # natural in-file baseline.
        bundle.baseline = trajectory[-2]
        source = trajectory_sources[-1] if trajectory_sources else "trajectory"
        bundle.baseline_source = f"{source} (previous point)"
    return bundle


def collect_bundle(
    bench_paths: Sequence[Union[str, Path]] = (),
    sweep_paths: Sequence[Union[str, Path]] = (),
    journal_dir: Optional[Union[str, Path]] = None,
    baseline_path: Optional[Union[str, Path]] = None,
    title: str = "repro report",
) -> ReportBundle:
    """Gather artifacts into one normalized :class:`ReportBundle`.

    ``bench_paths`` are trajectory files, collected oldest-first in the
    given order; ``sweep_paths`` are saved sweep-report files;
    ``journal_dir`` (optional) adds journal counters to the resilience
    section; ``baseline_path`` (optional) names the trajectory file whose
    latest point is the regression baseline — when omitted, the previous
    point of the collected trajectory serves, if there is one.

    A named file that is missing or unreadable raises (``OSError`` /
    :class:`ValueError` naming the path) — the caller asked for evidence
    that is not there, which must not silently produce a thinner report.
    An *empty* trajectory file collects as zero points; the renderers state
    that explicitly instead of drawing empty charts.
    """
    from repro.api import load_reports  # local: keep import cost off the hot path

    trajectory: List[Dict[str, object]] = []
    sources: List[str] = []
    for path in bench_paths:
        points = normalized_trajectory(path)
        trajectory.extend(points)
        sources.append(str(path))

    bundle = _resolve_baseline(trajectory, sources, baseline_path)
    bundle.title = title

    resilience: Dict[str, int] = {}
    for path in sweep_paths:
        reports, stats = load_reports(path)
        bundle.sweeps.append({
            "source": str(path),
            "reports": {name: report.to_dict() for name, report in reports.items()},
            "stats": dict(stats),
        })
        for key, value in stats.items():
            resilience[key] = resilience.get(key, 0) + value
    if journal_dir is not None:
        for key, value in summarize_journals(journal_dir).items():
            resilience[key] = resilience.get(key, 0) + value
    bundle.resilience = resilience
    return bundle
