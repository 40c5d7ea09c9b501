"""The :class:`ReportBundle`: one normalized, versioned unit of evidence.

Everything the reporting pipeline renders — bench trajectory points, sweep
:class:`~repro.api.RunReport` summaries, resilience counters — is first
folded into a *bundle* of plain-JSON fields (``docs/report.md`` documents
them field by field; :data:`REPORT_SCHEMA_VERSION` versions the layout),
which the renderers and the regression gate read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "ReportBundle",
]

#: Bumped whenever the bundle layout changes meaning.
REPORT_SCHEMA_VERSION = 1


@dataclass
class ReportBundle:
    """Normalized evidence for one report: trajectory + sweeps + resilience.

    Attributes:
        title: human heading for the rendered report.
        trajectory: bench trajectory points, oldest first, every point
            schema 2 or later (:func:`repro.perfbench.normalized_trajectory`)
            so renderers and the regression gate read one field vocabulary.
        trajectory_sources: the trajectory files the points came from.
        sweeps: one entry per collected sweep-report file:
            ``{"source": str, "reports": {workload: RunReport dict},
            "stats": {counter: int}}``.
        resilience: the sweep resilience counters summed across ``sweeps``
            plus any journal-directory scan
            (:func:`repro.report.collect.summarize_journals`).
        baseline: the chosen regression-baseline trajectory point
            (normalized like ``trajectory``), or ``None`` when no baseline
            could be determined — the regression gate then refuses to run
            rather than silently passing.
        baseline_source: where the baseline came from, for the rendered
            provenance line.
    """

    title: str = "repro report"
    trajectory: List[Dict[str, object]] = field(default_factory=list)
    trajectory_sources: List[str] = field(default_factory=list)
    sweeps: List[Dict[str, object]] = field(default_factory=list)
    resilience: Dict[str, int] = field(default_factory=dict)
    baseline: Optional[Dict[str, object]] = None
    baseline_source: Optional[str] = None

    @property
    def newest_point(self) -> Optional[Dict[str, object]]:
        """The latest collected trajectory point (what the gate checks)."""
        return self.trajectory[-1] if self.trajectory else None
