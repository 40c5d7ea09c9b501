"""Tests for the reporting pipeline (:mod:`repro.report`).

Collection (mixed-schema trajectories, sweep files, journals), the
per-backend regression gate, and the renderers — including golden-file snapshots of the
HTML and markdown output.  Regenerate the snapshots with
``REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_report.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import RunReport, load_reports, save_reports
from repro.report import (
    ReportBundle,
    check_bundle,
    collect_bundle,
    format_check,
    regression_rows,
    render_bundle,
    renderer_names,
    summarize_journals,
)
from repro.report.svg import bar_chart, line_chart

GOLDEN_DIR = Path(__file__).parent / "golden"


# --------------------------------------------------------------------------- #
# Fixture payloads: one trajectory point per supported schema version
# --------------------------------------------------------------------------- #

def _schema2_point(scale: float = 1.0) -> dict:
    return {
        "schema": 2,
        "bench": "kernel_hotloop",
        "config": {"profile": "oltp_db2", "scale": 0.1, "instructions": 20000,
                   "seed": 3, "repeats": 2, "backend": "scalar"},
        "designs": [
            {"design": "baseline", "backend": "scalar",
             "regions_per_sec": 52_000.0 * scale, "ipc": 0.70},
            {"design": "confluence", "backend": "scalar",
             "regions_per_sec": 31_000.0 * scale, "ipc": 0.74},
        ],
        "backends": [
            {"backend": "reference", "design": "baseline",
             "regions_per_sec": 21_000.0 * scale, "ipc": 0.70},
            {"backend": "scalar", "design": "baseline",
             "regions_per_sec": 52_000.0 * scale, "ipc": 0.70},
        ],
        "speedup_over_reference": 2.48,
    }


def _schema3_point(scale: float = 1.0) -> dict:
    point = _schema2_point(scale)
    point["schema"] = 3
    point["scenario"] = {
        "name": "consolidated_oltp_dss", "cores": 4,
        "regions_per_sec": 40_000.0 * scale, "ipc": 0.72,
    }
    return point


def _write_trajectory(path: Path, points: list) -> Path:
    path.write_text(json.dumps({"bench": "kernel_hotloop", "points": points}))
    return path


def _sweep_report(profile: str = "oltp_db2") -> RunReport:
    def summary(design: str, ipc: float, speedup: float) -> dict:
        return {
            "design": design, "instructions": 40_000, "cycles": 57_000,
            "ipc": ipc, "speedup": speedup, "btb_mpki": 11.2 if design == "baseline" else 1.3,
            "l1i_mpki": 7.4, "area_mm2": 0.62,
        }

    return RunReport(
        profile=profile, scale=0.1, cores=4, instructions_per_core=10_000,
        baseline="baseline", order=["baseline", "confluence"],
        results={
            "baseline": summary("baseline", 0.70, 1.0),
            "confluence": summary("confluence", 0.78, 1.114),
        },
    )


def _scenario_report() -> RunReport:
    report = _sweep_report("consolidated_oltp_dss")
    for design, summary in report.results.items():
        summary["per_profile"] = {
            "oltp_db2": {"cores": 2, "ipc": 0.68 if design == "baseline" else 0.75,
                         "btb_mpki": 12.0, "l1i_mpki": 8.1},
            "dss_qry2": {"cores": 2, "ipc": 0.73 if design == "baseline" else 0.80,
                         "btb_mpki": 9.9, "l1i_mpki": 6.6},
        }
    return report


def _fixture_bundle(tmp_path: Path) -> ReportBundle:
    """A fully populated bundle built from fixture artifacts on disk.

    Collected with relative paths (chdir into ``tmp_path``) so the bundle's
    provenance strings — and therefore the golden snapshots — are stable
    across runs.
    """
    _write_trajectory(
        tmp_path / "bench.json",
        [_schema2_point(), _schema3_point(0.9)],
    )
    save_reports(
        tmp_path / "sweep.report.json",
        {"oltp_db2": _sweep_report(), "consolidated_oltp_dss": _scenario_report()},
        stats={"cells": 4, "simulated": 2, "cache_hits": 2, "retried": 1},
    )
    previous = os.getcwd()
    os.chdir(tmp_path)
    try:
        return collect_bundle(
            bench_paths=["bench.json"], sweep_paths=["sweep.report.json"],
            title="Fixture report",
        )
    finally:
        os.chdir(previous)


# --------------------------------------------------------------------------- #
# Collection
# --------------------------------------------------------------------------- #

class TestCollect:
    def test_mixed_schema_points_normalize_to_one_vocabulary(self, tmp_path):
        bench = _write_trajectory(
            tmp_path / "bench.json", [_schema2_point(), _schema3_point()]
        )
        bundle = collect_bundle(bench_paths=[bench])
        # Schema 2 and 3 share one vocabulary and pass through untouched.
        assert bundle.trajectory == [_schema2_point(), _schema3_point()]
        # A point older than schema 2 is refused, not silently rendered.
        old = _write_trajectory(
            tmp_path / "old.json", [{"schema": 1, "bench": "kernel_hotloop"}]
        )
        with pytest.raises(ValueError, match="not a known bench trajectory point"):
            collect_bundle(bench_paths=[old])

    def test_empty_trajectory_collects_as_zero_points(self, tmp_path):
        bench = _write_trajectory(tmp_path / "empty.json", [])
        bundle = collect_bundle(bench_paths=[bench])
        assert bundle.trajectory == []
        assert bundle.newest_point is None
        assert bundle.baseline is None

    def test_missing_named_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            collect_bundle(bench_paths=[tmp_path / "nope.json"])

    def test_previous_point_is_the_default_baseline(self, tmp_path):
        bench = _write_trajectory(
            tmp_path / "bench.json", [_schema2_point(), _schema3_point(0.9)]
        )
        bundle = collect_bundle(bench_paths=[bench])
        assert bundle.baseline == _schema2_point()
        assert "previous point" in bundle.baseline_source

    def test_explicit_baseline_file_wins(self, tmp_path):
        bench = _write_trajectory(
            tmp_path / "bench.json", [_schema2_point(), _schema3_point(0.9)]
        )
        base = _write_trajectory(tmp_path / "base.json", [_schema2_point(1.1)])
        bundle = collect_bundle(bench_paths=[bench], baseline_path=base)
        assert bundle.baseline == _schema2_point(1.1)
        assert "base.json" in bundle.baseline_source

    def test_empty_baseline_file_raises(self, tmp_path):
        bench = _write_trajectory(tmp_path / "bench.json", [_schema2_point()])
        base = _write_trajectory(tmp_path / "base.json", [])
        with pytest.raises(ValueError, match="has no points"):
            collect_bundle(bench_paths=[bench], baseline_path=base)

    def test_sweep_stats_sum_into_resilience(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_reports(first, {"oltp_db2": _sweep_report()},
                     stats={"cells": 4, "simulated": 4})
        save_reports(second, {"dss_qry2": _sweep_report("dss_qry2")},
                     stats={"cells": 4, "simulated": 0, "cache_hits": 4})
        bundle = collect_bundle(sweep_paths=[first, second])
        assert bundle.resilience["cells"] == 8
        assert bundle.resilience["simulated"] == 4
        assert bundle.resilience["cache_hits"] == 4
        assert [sweep["source"] for sweep in bundle.sweeps] == [str(first), str(second)]

    def test_journal_counters_join_resilience(self, tmp_path):
        journals = tmp_path / "journals"
        journals.mkdir()
        (journals / "run.jsonl").write_text(
            '{"schema": 1, "sweep": "abc", "cells": 3}\n'
            '{"key": "k1", "summary": {}}\n'
            '{"key": "k2", "summary": {}}\n'
            "not json\n"
        )
        bench = _write_trajectory(tmp_path / "bench.json", [_schema2_point()])
        bundle = collect_bundle(bench_paths=[bench], journal_dir=journals)
        assert bundle.resilience["journals"] == 1
        assert bundle.resilience["journal_cells_expected"] == 3
        assert bundle.resilience["journal_cells_recorded"] == 2

    def test_missing_journal_dir_is_zero_journals(self, tmp_path):
        assert summarize_journals(tmp_path / "missing") == {
            "journals": 0, "journal_cells_expected": 0,
            "journal_cells_recorded": 0,
        }


# --------------------------------------------------------------------------- #
# Saved sweep reports (the sweep --save-report artifact)
# --------------------------------------------------------------------------- #

class TestSavedSweepReports:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        saved = save_reports(path, {"oltp_db2": _sweep_report()},
                             stats={"cells": 4})
        assert saved == path
        reports, stats = load_reports(path)
        assert reports["oltp_db2"].to_dict() == _sweep_report().to_dict()
        assert stats == {"cells": 4}

    def test_accepts_redirected_cli_json(self, tmp_path):
        # `python -m repro sweep --json > file` emits {"reports", "stats"}
        # without the kind/schema envelope; load_reports takes both.
        path = tmp_path / "stdout.json"
        path.write_text(json.dumps({
            "reports": {"oltp_db2": _sweep_report().to_dict()},
            "stats": {"cells": 2},
        }))
        reports, stats = load_reports(path)
        assert reports["oltp_db2"].cores == 4
        assert stats == {"cells": 2}

    def test_wrong_schema_refused(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({
            "schema": 99, "kind": "repro-sweep-reports",
            "reports": {}, "stats": {},
        }))
        with pytest.raises(ValueError, match="schema"):
            load_reports(path)

    def test_wrong_layout_refused(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"whatever": 1}))
        with pytest.raises(ValueError):
            load_reports(path)


# --------------------------------------------------------------------------- #
# The regression gate
# --------------------------------------------------------------------------- #

class TestRegressionGate:
    def test_per_backend_rows(self):
        rows = regression_rows(_schema3_point(0.9), _schema2_point(), 0.5)
        assert [row["backend"] for row in rows] == ["reference", "scalar"]
        assert all(row["ok"] for row in rows)
        assert rows[0]["ratio"] == pytest.approx(0.9)

    def test_regression_beyond_tolerance_flags(self):
        rows = regression_rows(_schema2_point(0.4), _schema2_point(), 0.5)
        assert not any(row["ok"] for row in rows)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            regression_rows(_schema2_point(), _schema2_point(), 0.0)

    def test_no_shared_backends_raises(self):
        lonely = _schema2_point()
        lonely["backends"] = [
            {"backend": "exotic", "regions_per_sec": 1.0},
        ]
        with pytest.raises(ValueError, match="no shared backends"):
            regression_rows(lonely, _schema2_point(), 0.5)

    def test_gate_refuses_empty_trajectory(self):
        with pytest.raises(ValueError, match="no trajectory points"):
            check_bundle(ReportBundle(), 0.5)

    def test_gate_refuses_missing_baseline(self, tmp_path):
        bench = _write_trajectory(tmp_path / "one.json", [_schema2_point()])
        bundle = collect_bundle(bench_paths=[bench])
        with pytest.raises(ValueError, match="no baseline"):
            check_bundle(bundle, 0.5)

    def test_format_check_names_the_verdicts(self, tmp_path):
        bundle = _fixture_bundle(tmp_path)
        rows = check_bundle(bundle, 0.5)
        text = format_check(rows, 0.5, bundle.baseline_source)
        assert "tolerance 0.50x" in text
        assert "ok" in text and "REGRESSED" not in text


# --------------------------------------------------------------------------- #
# Renderers
# --------------------------------------------------------------------------- #

def _assert_matches_golden(name: str, rendered: str) -> None:
    golden = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(rendered, encoding="utf-8")
    assert golden.exists(), (
        f"golden file {golden} missing — regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert rendered == golden.read_text(encoding="utf-8")


class TestRenderers:
    def test_registry_lists_builtin_formats(self):
        assert set(renderer_names()) >= {"html", "md"}

    def test_unknown_format_raises_with_catalog(self, tmp_path):
        from repro.registry import UnknownComponentError

        with pytest.raises(UnknownComponentError, match="html"):
            render_bundle(_fixture_bundle(tmp_path), "pdf")

    def test_html_is_self_contained(self, tmp_path):
        html = render_bundle(_fixture_bundle(tmp_path), "html", tolerance=0.5)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<style>" in html
        # Self-contained: no scripts, no external fetches of any kind.
        assert "<script" not in html
        assert "http" not in html.replace("http://www.w3.org/2000/svg", "")
        # The paper-shaped sections are all present.
        assert "Perf trajectory" in html
        assert "Regression deltas" in html
        assert "speedup matrix" in html
        assert "Per-profile breakdown" in html
        assert "Resilience counters" in html

    def test_rendering_is_deterministic(self, tmp_path):
        bundle = _fixture_bundle(tmp_path)
        assert render_bundle(bundle, "html") == render_bundle(bundle, "html")
        assert render_bundle(bundle, "md") == render_bundle(bundle, "md")

    def test_empty_bundle_renders_the_absence(self):
        html = render_bundle(ReportBundle(title="Empty"), "html")
        assert "No trajectory points were collected." in html
        assert "No sweep reports were collected." in html
        md = render_bundle(ReportBundle(title="Empty"), "md")
        assert "_No trajectory points were collected._" in md

    def test_markdown_tables_escape_pipes(self, tmp_path):
        bundle = _fixture_bundle(tmp_path)
        bundle.sweeps[0]["reports"]["oltp_db2"]["results"]["baseline"]["design"] = "a|b"
        md = render_bundle(bundle, "md")
        assert "a\\|b" in md

    def test_golden_html_snapshot(self, tmp_path):
        _assert_matches_golden(
            "report.html",
            render_bundle(_fixture_bundle(tmp_path), "html", tolerance=0.5),
        )

    def test_golden_markdown_snapshot(self, tmp_path):
        _assert_matches_golden(
            "report.md",
            render_bundle(_fixture_bundle(tmp_path), "md", tolerance=0.5),
        )


class TestSvg:
    def test_line_chart_breaks_on_gaps(self):
        svg = line_chart(
            {"scalar": [1.0, None, 3.0], "reference": [0.5, 0.6, 0.7]},
            title="t",
        )
        # The gapped series draws no polyline (isolated points only); the
        # full series draws one.
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == 5

    def test_line_chart_rejects_ragged_series(self):
        with pytest.raises(ValueError, match="lengths differ"):
            line_chart({"a": [1.0], "b": [1.0, 2.0]}, title="t")

    def test_bar_chart_labels_every_item(self):
        svg = bar_chart([("baseline", 10.0), ("confluence", 5.0)], title="t",
                        unit="r/s")
        assert "baseline" in svg and "confluence" in svg
        assert svg.count("<rect") == 2

    def test_charts_escape_markup(self):
        svg = line_chart({"<evil>": [1.0]}, title="a<b")
        assert "<evil>" not in svg and "&lt;evil&gt;" in svg
