"""Kernel hot-loop benchmark harness: the tracked perf trajectory.

Performance PRs need a recorded baseline to argue against, so this module
measures the simulation kernel end to end — trace generation, the columnar
artifact round trip, and the per-design hot loop on a selected backend —
and emits the numbers in a *stable* JSON schema.  ``python -m repro bench
--json BENCH_kernel.json`` appends one trajectory point; the committed
``BENCH_kernel.json`` at the repo root holds the recorded history, and CI
re-runs the benchmark at smoke scale on every push, failing on schema drift
(``--expect-schema``).  Throughput regressions are gated on the recorded
points by ``python -m repro report --check`` (:mod:`repro.report.check`).

The headline numbers:

* ``designs[*].regions_per_sec`` — hot-loop throughput per design on the
  selected backend,
* ``backends[*].regions_per_sec`` — the first design driven through every
  *available* registered backend (``scalar``, ``reference``, ``batch``,
  anything user-registered), giving ``speedup_over_reference`` for the
  selected backend,
* ``scenario`` — aggregate regions/sec of an 8-core homogeneous CMP on
  ``scalar`` vs the lane-vectorized ``batch`` backend
  (``batch_speedup_over_scalar`` is the PR-8 headline metric),
* ``stages`` — per-stage wall times (generate / save / load),
* ``peak_rss_kb`` — the process's peak resident set, which the mmap-backed
  trace store is meant to keep flat as worker counts grow.

Scale knobs mirror the benchmark suite: ``REPRO_BENCH_SMOKE=1`` selects the
tiny CI operating point; explicit CLI flags always win.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backends.base import DEFAULT_BACKEND, backend_names, get_backend
from repro.core.designs import design_from_spec, resolve_design
from repro.core.frontend import FrontendResult, FrontendSimulator
from repro.sweep import _atomic_write_text
from repro.workloads import generate_trace, get_profile, synthesize_program
from repro.workloads.packed import load_packed
from repro.workloads.trace import Trace

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "append_trajectory_point",
    "default_bench_settings",
    "format_bench_report",
    "load_trajectory",
    "load_trajectory_point",
    "normalized_trajectory",
    "point_backend_rps",
    "run_kernel_benchmark",
    "schema_signature",
    "schemas_match",
    "trajectory_backend_series",
]

#: Bumped whenever the emitted JSON layout changes meaning; CI compares the
#: recursive key structure of a fresh run against the committed trajectory
#: point, so accidental drift fails fast.
#: (2: pluggable backends — design rows carry ``backend``, the per-backend
#: ``backends`` table replaces ``record_path``, and ``packed_speedup``
#: generalizes to ``speedup_over_reference``.)
#: (3: the ``scenario`` section — aggregate regions/sec of an 8-core
#: homogeneous CMP on the ``scalar`` and lane-vectorized ``batch`` backends,
#: plus ``batch_speedup_over_scalar``; unavailable backends are skipped in
#: the per-backend table instead of crashing the bench.)
BENCH_SCHEMA_VERSION = 3

#: (scale, instructions, repeats) operating points: the full point is what
#: BENCH_kernel.json trajectory entries are recorded at; the smoke point is
#: what CI runs on every push.
_FULL_POINT = (0.2, 200_000, 3)
_SMOKE_POINT = (0.08, 20_000, 1)


def default_bench_settings() -> Dict[str, object]:
    """Operating point implied by ``REPRO_BENCH_SMOKE`` (CLI flags override)."""
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    scale, instructions, repeats = _SMOKE_POINT if smoke else _FULL_POINT
    return {
        "smoke": smoke,
        "scale": scale,
        "instructions": instructions,
        "repeats": repeats,
    }


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in kilobytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        peak //= 1024
    return int(peak)


def _time_run(
    simulator: FrontendSimulator, trace: Trace, backend: str
) -> Tuple[FrontendResult, float]:
    start = time.perf_counter()
    result = simulator.run(trace, backend=backend)
    return result, time.perf_counter() - start


def _scenario_benchmark(
    program: object,
    design: str,
    instructions: int,
    repeats: int,
    cores: int = 8,
) -> Dict[str, object]:
    """Aggregate throughput of a ``cores``-core homogeneous CMP.

    The headline comparison the lane-vectorized ``batch`` backend exists
    for: the same chip driven by ``scalar`` (one core at a time) and by
    ``batch`` (all co-located cores as lanes of one vectorized call).
    Traces are generated *before* timing so both sides measure pure
    simulation; best-of-``repeats`` on each side.  When ``batch`` is
    unavailable the batch columns record 0.0 and ``batch_available`` is
    ``False`` — the schema stays stable either way.
    """
    from repro.core.cmp import ChipMultiprocessor

    cmp_ = ChipMultiprocessor(
        program, cores=cores, instructions_per_core=instructions  # type: ignore[arg-type]
    )
    # Pre-generate (and memoize) every core's trace outside the timed region.
    traces = cmp_._core_traces()
    regions = sum(len(trace) for trace in traces)

    def _best(run_backend: str) -> float:
        best_s: Optional[float] = None
        for _ in range(repeats):
            # Fresh trace objects per run: none carries a memoized
            # prediction pass from the previous run.
            cmp_._traces = [
                Trace.from_packed(trace.packed.slice(0)) for trace in traces
            ]
            start = time.perf_counter()
            cmp_.run_design(design, backend=run_backend)
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        assert best_s is not None
        return best_s

    scalar_s = _best("scalar")
    scalar_rps = regions / scalar_s if scalar_s else 0.0
    batch_available = get_backend("batch").available()
    if batch_available:
        batch_s = _best("batch")
        batch_rps = regions / batch_s if batch_s else 0.0
    else:
        batch_s = 0.0
        batch_rps = 0.0
    return {
        "cores": cores,
        "design": design,
        "instructions_per_core": instructions,
        "regions": regions,
        "scalar_seconds": scalar_s,
        "scalar_regions_per_sec": scalar_rps,
        "batch_available": batch_available,
        "batch_seconds": batch_s,
        "batch_regions_per_sec": batch_rps,
        "batch_speedup_over_scalar": (
            batch_rps / scalar_rps if scalar_rps and batch_rps else 0.0
        ),
    }


def run_kernel_benchmark(
    profile_name: str = "oltp_db2",
    scale: float = 0.2,
    instructions: int = 200_000,
    seed: int = 3,
    designs: Sequence[str] = ("baseline", "confluence"),
    repeats: int = 3,
    artifact_dir: Optional[str] = None,
    backend: str = DEFAULT_BACKEND,
) -> Dict[str, object]:
    """Measure the simulation kernel and return one trajectory point.

    The trace is generated once, round-tripped through the columnar artifact
    format, mapped back in zero-copy, and then driven through every design's
    hot loop on ``backend`` ``repeats`` times (best-of is reported — the
    interesting quantity is the kernel's speed, not the scheduler's noise).
    The first design is additionally driven through *every* registered
    backend, so the point records each backend's regions/sec and the
    selected backend's ``speedup_over_reference`` (the gated trajectory
    metric; both sides of the ratio get the same repeats/best-of treatment
    so they absorb scheduler noise identically).
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if not designs:
        raise ValueError("at least one design is required")
    get_backend(backend)  # unknown names fail before any simulation
    specs = [resolve_design(design) for design in designs]

    profile = get_profile(profile_name)
    if scale != 1.0:
        profile = profile.scaled(scale)

    start = time.perf_counter()
    program = synthesize_program(profile)
    trace = generate_trace(program, instructions, seed=seed, name=profile.name)
    generate_s = time.perf_counter() - start

    def _measure(directory: str) -> Dict[str, object]:
        artifact = Path(directory) / "bench.trace"
        start = time.perf_counter()
        trace.packed.save(artifact)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        packed = load_packed(artifact)
        load_s = time.perf_counter() - start
        mapped_trace = Trace.from_packed(packed)
        return {
            "save_s": save_s,
            "load_s": load_s,
            "artifact_bytes": artifact.stat().st_size,
            "mapped": packed.mapped,
            "trace": mapped_trace,
        }

    if artifact_dir is not None:
        round_trip = _measure(artifact_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
            round_trip = _measure(directory)
    bench_trace: Trace = round_trip.pop("trace")
    regions = len(bench_trace)

    def _fresh_trace() -> Trace:
        # Every timed run gets its own trace object over the same mapping
        # (slicing a memoryview copies nothing), so no run inherits the
        # prediction pass an earlier run memoized on the trace: the
        # regions/sec figures include the pass, as a first run on a trace
        # does.
        return Trace.from_packed(bench_trace.packed.slice(0))

    def _best_of(spec_name: str, run_backend: str) -> Tuple[float, FrontendResult]:
        best_s: Optional[float] = None
        result: Optional[FrontendResult] = None
        for _ in range(repeats):
            simulator, _ = design_from_spec(resolve_design(spec_name), program)
            result, elapsed = _time_run(simulator, _fresh_trace(), run_backend)
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        assert best_s is not None and result is not None
        return best_s, result

    design_rows: List[Dict[str, object]] = []
    for spec in specs:
        best_s, result = _best_of(spec.name, backend)
        design_rows.append({
            "design": spec.name,
            "backend": backend,
            "seconds": best_s,
            "regions_per_sec": regions / best_s if best_s else 0.0,
            "ipc": result.ipc,
        })

    # Every *available* registered backend drives the first design: the
    # per-backend regions/sec table is what makes a new backend's
    # cost/benefit visible the moment it registers.  A backend missing its
    # optional dependency (an unavailable ``batch``) is skipped, not fatal.
    # The backends take turns within each repeat, so a slow stretch of the
    # host lands on every side of ``speedup_over_reference`` alike rather
    # than on one backend's whole block of repeats.
    available = [name for name in backend_names() if get_backend(name).available()]
    best: Dict[str, Tuple[float, FrontendResult]] = {}
    for _ in range(repeats):
        for name in available:
            simulator, _ = design_from_spec(resolve_design(specs[0].name), program)
            result, elapsed = _time_run(simulator, _fresh_trace(), name)
            if name not in best or elapsed < best[name][0]:
                best[name] = (elapsed, result)
    backend_rows: List[Dict[str, object]] = []
    per_backend_rps: Dict[str, float] = {}
    for name in available:
        best_s, result = best[name]
        rps = regions / best_s if best_s else 0.0
        per_backend_rps[name] = rps
        backend_rows.append({
            "backend": name,
            "design": specs[0].name,
            "seconds": best_s,
            "regions_per_sec": rps,
            "ipc": result.ipc,
        })

    reference_rps = per_backend_rps.get("reference", 0.0)
    selected_rps = per_backend_rps.get(backend, 0.0)

    scenario_row = _scenario_benchmark(program, specs[0].name, instructions, repeats)

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": "kernel_hotloop",
        "config": {
            "profile": profile_name,
            "scale": scale,
            "instructions": instructions,
            "seed": seed,
            "designs": [spec.name for spec in specs],
            "repeats": repeats,
            "backend": backend,
        },
        "trace": {
            "regions": regions,
            "instructions": bench_trace.instruction_count,
            "artifact_bytes": round_trip["artifact_bytes"],
            "mapped": round_trip["mapped"],
        },
        "stages": {
            "generate_s": generate_s,
            "save_s": round_trip["save_s"],
            "load_s": round_trip["load_s"],
        },
        "designs": design_rows,
        "backends": backend_rows,
        "scenario": scenario_row,
        "speedup_over_reference": (
            selected_rps / reference_rps if reference_rps else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb(),
        "host": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "machine": platform.machine(),
        },
    }


def schema_signature(payload: object) -> object:
    """Recursive key structure of a bench payload (values erased).

    Two payloads with the same signature have the same shape: identical
    nested dict keys, with every list reduced to the signature of its
    elements (which must agree with each other).  This is what the CI smoke
    job compares against the committed trajectory point — timing values
    change every run, the schema must not.
    """
    if isinstance(payload, dict):
        return {key: schema_signature(value) for key, value in sorted(payload.items())}
    if isinstance(payload, list):
        signatures = [schema_signature(item) for item in payload]
        unique: List[object] = []
        for signature in signatures:
            if signature not in unique:
                unique.append(signature)
        return unique
    return type(payload).__name__


def schemas_match(left: object, right: object) -> bool:
    """True when two payloads share a schema (bool/int/float treated alike)."""

    def normalize(signature: object) -> object:
        if isinstance(signature, dict):
            return {key: normalize(value) for key, value in signature.items()}
        if isinstance(signature, list):
            return [normalize(item) for item in signature]
        if signature in ("int", "float", "bool"):
            return "number"
        return signature

    return normalize(schema_signature(left)) == normalize(schema_signature(right))


def format_bench_report(payload: Dict[str, object]) -> str:
    """Human-readable rendering of one trajectory point."""
    lines = [
        f"kernel hot-loop benchmark (schema {payload['schema']})",
        "  trace: {regions} regions / {instructions} instructions "
        "({artifact_bytes} bytes on disk, mapped={mapped})".format(**payload["trace"]),
        "  stages: generate {generate_s:.3f}s, save {save_s:.3f}s, "
        "load {load_s:.3f}s".format(**payload["stages"]),
    ]
    for row in payload["designs"]:
        lines.append(
            "  {design:>16}: {regions_per_sec:>12,.0f} regions/s "
            "({seconds:.3f}s best, {backend} backend)".format(**row)
        )
    for row in payload["backends"]:
        lines.append(
            "  backend {backend:>10}: {regions_per_sec:>12,.0f} regions/s "
            "on {design}".format(**row)
        )
    scenario = payload.get("scenario")
    if isinstance(scenario, dict):
        lines.append(
            "  {cores}-core CMP ({design}): scalar "
            "{scalar_regions_per_sec:,.0f} regions/s".format(**scenario)
        )
        if scenario.get("batch_available"):
            lines.append(
                "    batch {batch_regions_per_sec:,.0f} regions/s "
                "({batch_speedup_over_scalar:.2f}x over scalar)".format(**scenario)
            )
        else:
            lines.append("    batch backend unavailable (see `python -m repro backends`)")
    lines.append(
        "  speedup over reference backend: "
        f"{payload['speedup_over_reference']:.2f}x"
    )
    lines.append(f"  peak RSS: {payload['peak_rss_kb']} KB")
    return "\n".join(lines)


def _trajectory_points(payload: object, path: Union[str, Path]) -> List[Dict[str, object]]:
    """The ``points`` list of a trajectory file, each point a dict."""
    if not (isinstance(payload, dict) and isinstance(payload.get("points"), list)):
        raise ValueError(f"{path} is not a bench trajectory file")
    points = [point for point in payload["points"] if isinstance(point, dict)]
    if len(points) != len(payload["points"]) or not points:
        raise ValueError(f"{path} has malformed trajectory points")
    return points


def load_trajectory(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read every recorded point of a trajectory file, oldest first.

    The file is ``{"bench": ..., "points": [...]}``.  Points come back as
    recorded, unchecked; :func:`load_trajectory_point` and
    :func:`normalized_trajectory` are the schema-checking readers.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return _trajectory_points(payload, path)


def _check_point_schema(point: Dict[str, object], path: Union[str, Path]) -> None:
    """Refuse a point outside the supported schema range (2..current)."""
    schema = point.get("schema")
    if not isinstance(schema, int) or not 2 <= schema <= BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"a point in {path} is not a known bench trajectory point "
            f"(schema {schema!r}, supported 2..{BENCH_SCHEMA_VERSION})"
        )


def load_trajectory_point(path: Union[str, Path]) -> Dict[str, object]:
    """Read the latest committed trajectory point, schema-checked.

    Any point from schema 2 on shares the per-design and per-backend
    vocabulary, so ``bench --expect-schema`` accepts history recorded by
    older builds; anything else raises :class:`ValueError`.
    """
    latest = load_trajectory(path)[-1]
    _check_point_schema(latest, path)
    return latest


def normalized_trajectory(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Every recorded point of a trajectory file, schema-checked, oldest first.

    The bundle-export hook behind ``python -m repro report``: every point
    must be schema 2 or later (:class:`ValueError` otherwise), so renderers
    and the regression gate all read one field vocabulary.  Unlike
    :func:`load_trajectory`, an explicitly *empty* trajectory
    (``{"points": []}``) is returned as an empty list — a brand-new file is
    a legitimate "nothing recorded yet" state for a report, not corruption.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and payload.get("points") == []:
        return []
    points = _trajectory_points(payload, path)
    for point in points:
        _check_point_schema(point, path)
    return points


def point_backend_rps(point: Mapping[str, object]) -> Dict[str, float]:
    """``{backend name: regions/sec}`` from one normalized point.

    Reads the per-backend table every schema-2+ point carries; rows without
    a throughput value (or a malformed table) are simply absent, so the
    regression gate and the trend chart degrade to "fewer comparable
    backends" rather than crashing on history recorded by older builds.
    """
    rows = point.get("backends")
    series: Dict[str, float] = {}
    if not isinstance(rows, list):
        return series
    for row in rows:
        if not isinstance(row, dict):
            continue
        backend = row.get("backend")
        rps = row.get("regions_per_sec")
        if isinstance(backend, str) and isinstance(rps, (int, float)):
            series[backend] = float(rps)
    return series


def trajectory_backend_series(
    points: Sequence[Mapping[str, object]],
) -> Dict[str, List[Optional[float]]]:
    """Per-backend regions/sec series across a normalized trajectory.

    Returns ``{backend: [rps or None per point]}`` with one slot per input
    point — ``None`` where that point did not measure the backend (e.g. the
    ``batch`` backend on a host where it is unavailable).  This is the series
    the report's trend chart draws, one line per backend.
    """
    per_point = [point_backend_rps(point) for point in points]
    backends: List[str] = []
    for rps in per_point:
        for name in rps:
            if name not in backends:
                backends.append(name)
    return {
        name: [rps.get(name) for rps in per_point]
        for name in sorted(backends)
    }


def append_trajectory_point(
    path: Union[str, Path], payload: Dict[str, object]
) -> int:
    """Append one point to a trajectory file; returns the new point count.

    Creates the file when missing.  The write is atomic (temp file + rename), the ``put`` idiom of
    the result cache.
    """
    path = Path(path)
    points: List[Dict[str, object]] = []
    if path.exists():
        points = load_trajectory(path)
    points.append(dict(payload))
    document = {"bench": "kernel_hotloop", "points": points}
    _atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return len(points)
