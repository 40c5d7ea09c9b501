"""Repository benchmark: paper figures, a cold grid and a warm grid.

Run from the root of a checkout::

    python3 repobench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: the next repetition starts
when the previous one has exited, until ``--seconds`` have passed.  Every
repetition is a fresh interpreter (``child.py``) with private result-cache,
trace-store and journal directories under ``.repobench_work/``, so nothing a
repetition builds in memory or on disk warms the next one unless the
workload says so.  The outputs of every repetition are checked exactly
against ``expected/<workload>.json``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json`` (host time, medians
over repetitions).  With ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones (see ``README.md``).  The
lines before it print every metric by name and unit, and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import tracing

HERE = Path(__file__).resolve().parent

#: Every run must exit within this many seconds, set-up included.
RUN_BUDGET_S = 170.0
#: Set-up time is the median of at least this many interpreter starts.
SETUP_SAMPLES = 9

#: 75k instructions per core, not 50k: at 50k the region count of a 4-core
#: ``oltp_db2`` cell ranged over 51k-93k for seeds 0-9 (quartile spread 0.23
#: of the median), so the seed, not the code, set the cold grid's wall time;
#: at 75k the spread over seeds 0-23 is 0.06.
COLD_SWEEP = (
    "--profiles", "oltp_db2", "web_frontend", "--designs", "baseline", "fdp",
    "confluence", "--scale", "0.2", "--cores", "4", "--instructions-per-core",
    "75000", "--workers", "2", "--backend", "batch",
)
WARM_SWEEP = ("--scale", "0.1", "--cores", "2", "--instructions-per-core", "5000")

WORKLOADS = ("figures", "grid_cold", "grid_warm")


def sweep_args(workload: str, seed: int, prime: bool = False) -> List[str]:
    """``python -m repro sweep`` arguments of one grid invocation."""
    if workload == "grid_cold":
        args = list(COLD_SWEEP)
    elif prime:
        args = [*WARM_SWEEP, "--workers", "2"]
    else:
        args = [*WARM_SWEEP, "--expect-cached"]
    return [*args, "--trace-seed-base", str(seed), "--json"]


@dataclass
class Rep:
    """One repetition: host times, peak memory and the child's result."""

    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    exit_code: int
    result: Dict = field(default_factory=dict)
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)


class Bench:
    """Runs one workload's repetitions inside one checkout."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / ".repobench_work" / f"{workload}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        self.serial = 0

    def run_id(self, rep: str) -> str:
        """Identifier shared by every span of one repetition."""
        return f"{self.work.name}-{rep}"

    def dirs(self, name: str) -> Dict[str, str]:
        """Private cache, trace-store and (inside the cache) journal dirs."""
        base = self.work / name
        return {"REPRO_CACHE_DIR": str(base / "cache"),
                "REPRO_TRACE_DIR": str(base / "traces")}

    def spawn(self, store: Dict[str, str], setup_only: bool = False,
              trace_dir: Optional[Path] = None, prime: bool = False) -> Rep:
        """Run ``child.py`` once and wait for its whole process tree."""
        self.serial += 1
        out = self.work / f"rep{self.serial}.json"
        kind = "figures" if self.workload == "figures" else "grid"
        command = [sys.executable, str(HERE / "child.py"), "--workload", kind,
                   "--seed", str(self.seed), "--out", str(out),
                   "--run-id", self.run_id(f"rep{self.serial}")]
        if setup_only:
            command.append("--setup-only")
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        if kind == "grid":
            command += ["--", *sweep_args(self.workload, self.seed, prime=prime)]
        log = self.work / f"rep{self.serial}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted before a repetition")
        with open(log, "wb") as sink:
            start = time.monotonic()
            child = subprocess.Popen(
                command, cwd=self.root, env={**self.env, **store},
                stdin=subprocess.DEVNULL, stdout=sink, stderr=sink,
                start_new_session=True,
            )
            timer = threading.Timer(remaining, os.killpg, (child.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                # Interrupted: take the repetition's whole process group down.
                os.killpg(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        result: Dict = {}
        if child.returncode == 0 and out.exists():
            result = json.loads(out.read_text(encoding="utf-8"))
        else:
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
        setup = result.get("setup_done")
        return Rep(
            wall_s=end - start,
            setup_s=setup - start if setup is not None else None,
            # wait4 reports the largest peak RSS of the child and of every
            # descendant it reaped, i.e. of the pool workers too.
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=child.returncode,
            result=result,
            traced=trace_dir is not None,
        )

    def prepare(self) -> Optional[Rep]:
        """Untimed set-up: compile and page in the package; prime the cache."""
        self.work.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(self.root / "src")],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        self.spawn(self.dirs("warmup"), setup_only=True)
        if self.workload == "grid_warm":
            return self.spawn(self.dirs("warm"), prime=True)
        return None

    def repetition(self, traced: bool) -> Rep:
        name = f"rep{self.serial + 1}"
        store = self.dirs("warm" if self.workload == "grid_warm" else name)
        trace_dir = self.work / name / "spans" if traced else None
        rep = self.spawn(store, trace_dir=trace_dir)
        if traced:
            records = tracing.load_records(trace_dir)
            rep.layers = layer_metrics(records)
            kept = self.root / ".repobench_work" / "spans"
            kept.mkdir(parents=True, exist_ok=True)
            (kept / f"{self.run_id(name)}.json").write_text(json.dumps(records), encoding="utf-8")
        shutil.rmtree(self.work / name, ignore_errors=True)
        return rep

    def run(self, seconds: float, traced: bool) -> List[Rep]:
        """Closed loop: repeat until ``seconds`` of measurement have passed.

        With ``traced`` the repetitions alternate untraced and traced, so the
        tracing overhead is measured on the same host minutes.
        """
        reps: List[Rep] = []
        stop = time.monotonic() + seconds
        while True:
            rep = self.repetition(traced=traced and len(reps) % 2 == 1)
            reps.append(rep)
            enough = not traced or any(r.traced for r in reps)
            if time.monotonic() >= stop and enough:
                return reps

    def setup_samples(self, reps: List[Rep]) -> List[float]:
        """Set-up times of the untraced repetitions, topped up by set-up-only
        interpreter starts until there are :data:`SETUP_SAMPLES`."""
        samples = [r.setup_s for r in reps if not r.traced and r.setup_s is not None]
        while len(samples) < SETUP_SAMPLES:
            probe = self.spawn(self.dirs("warmup"), setup_only=True)
            if probe.setup_s is None:
                break
            samples.append(probe.setup_s)
        return samples


# --------------------------------------------------------------------------- #
# Checking outputs
# --------------------------------------------------------------------------- #

def load_expected(workload: str, seed: int) -> Optional[Dict[str, Dict]]:
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


@dataclass
class Check:
    """Operations attempted and failed across a run's repetitions."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(why)


def check_reps(workload: str, reps: List[Rep], reference: Dict[str, Dict],
               check: Check) -> None:
    """Compare every repetition's operations with ``reference`` exactly.

    An operation is a simulation or figure table (``figures``), a cell
    (``grid_cold``) or an invocation (``grid_warm``).  A non-zero exit fails
    every operation of its repetition.
    """
    for index, rep in enumerate(reps, 1):
        ops = rep.result.get("ops", {})
        stats = rep.result.get("stats", {})
        expected_ops = reference
        if workload == "grid_warm":
            check.attempted += 1
            if rep.exit_code != 0 or rep.result.get("exit", 0) != 0:
                check.fail(1, f"rep {index}: exit {rep.exit_code}/{rep.result.get('exit')}")
            elif stats.get("simulated") != 0 or stats.get("cache_hits") != len(expected_ops):
                check.fail(1, f"rep {index}: not served from cache: {stats}")
            elif ops != expected_ops:
                check.fail(1, f"rep {index}: cached summaries differ from expected")
            continue
        check.attempted += len(expected_ops.keys() | ops.keys())
        if rep.exit_code != 0 or rep.result.get("exit", 0) != 0:
            check.fail(len(expected_ops), f"rep {index}: exit code {rep.exit_code}")
            continue
        if workload == "grid_cold" and (stats.get("cache_hits") or stats.get("resumed")):
            check.fail(len(expected_ops), f"rep {index}: cold grid was not cold: {stats}")
            continue
        wrong = [name for name, value in expected_ops.items() if ops.get(name) != value]
        wrong += [name for name in ops if name not in expected_ops]
        if wrong:
            check.fail(len(wrong), f"rep {index}: {len(wrong)} ops differ, e.g. {wrong[0]}")


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (all of its processes)."""
    totals: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for record in records:
        for name, (calls, total, self_time) in record["totals"].items():
            merged = totals.setdefault(name, [0, 0.0, 0.0])
            merged[0] += calls
            merged[1] += total
            merged[2] += self_time
        for name, value in record["counts"].items():
            if name == "sweep.workers":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value

    def calls(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[2]

    count = counts.get
    backends = [name for name in totals if name.startswith("backends.")]
    pool_overhead = 0.0
    if calls("sweep.run_cells"):
        pool_overhead = total("sweep.run_cells") - total("sweep.cell") / max(
            count("sweep.workers", 1), 1)
    return {
        "workloads.synthesize_s": total("workloads.synthesize"),
        "workloads.generate_s": total("workloads.generate"),
        "workloads.regions": count("workloads.regions", 0),
        "sweep.cell_key_s": total("sweep.cell_key"),
        "sweep.cache_get_s": total("sweep.cache_get"),
        "sweep.cache_hit_ratio": _ratio(count("sweep.cache_get_hit", 0),
                                        count("sweep.cache_get", 0)),
        "sweep.cache_put_s": total("sweep.cache_put"),
        "sweep.trace_put_s": total("sweep.trace_put"),
        "sweep.trace_load_s": total("sweep.trace_load"),
        "sweep.trace_reuse_ratio": _ratio(count("sweep.trace_load_hit", 0),
                                          count("sweep.trace_load", 0)),
        "sweep.cell_s": total("sweep.cell"),
        "sweep.pool_overhead_s": pool_overhead,
        "sweep.retried": count("sweep.retried", 0),
        "sweep.quarantined": count("sweep.quarantined", 0),
        "resilience.journal_s": total("resilience.journal"),
        "backends.scalar.run_s": total("backends.scalar.run"),
        "backends.batch.run_lanes_s": total("backends.batch.run_lanes"),
        "backends.loop_self_s": sum(self_time(name) for name in backends),
        "branch.direction_self_s": self_time("branch.direction"),
        "branch.direction_calls": calls("branch.direction"),
        "branch.unit_self_s": self_time("branch.unit"),
        "branch.unit_calls": calls("branch.unit"),
        "branch.btb_self_s": self_time("branch.btb"),
        "branch.btb_calls": calls("branch.btb"),
        "core.airbtb_self_s": self_time("core.airbtb"),
        "core.airbtb_calls": calls("core.airbtb"),
        "core.cmp.run_design_s": total("core.cmp.run_design"),
        "caches.l1i_self_s": self_time("caches.l1i"),
        "caches.l1i_calls": calls("caches.l1i"),
        "caches.llc_self_s": self_time("caches.llc"),
        "caches.llc_calls": calls("caches.llc"),
        "prefetch.shift_self_s": self_time("prefetch.shift"),
        "prefetch.shift_calls": calls("prefetch.shift"),
        "prefetch.fdp_self_s": self_time("prefetch.fdp"),
        "prefetch.fdp_calls": calls("prefetch.fdp"),
        "prefetch.accuracy": _ratio(count("prefetch.hits", 0), count("prefetch.issued", 0)),
        "analysis.btb_coverage_s": total("analysis.btb_coverage"),
        "analysis.frontend_comparison_s": total("analysis.frontend_comparison"),
    }


def host_metadata() -> Dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": str(os.cpu_count()), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    # A terminated benchmark still takes its repetitions down (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro source tree (src/repro); run the "
              "benchmark from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    bench = Bench(root, args.workload, args.seed, started + RUN_BUDGET_S)
    try:
        primed = bench.prepare()
        reps = bench.run(args.seconds, traced=bool(args.trace))
        setups = bench.setup_samples(reps)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    reference = load_expected(args.workload, args.seed)
    check = Check()
    if reference is None:
        print(f"note: no committed expectation for seed {args.seed}; checking that "
              "every repetition reproduces the first one", file=sys.stderr)
        source = primed if primed is not None else reps[0]
        reference = source.result.get("ops") or None
    if reference is None:
        check.attempted += 1
        check.fail(1, "no reference output: the first repetition failed")
    else:
        check_reps(args.workload, reps, reference, check)
    for problem in check.problems:
        print(f"mismatch: {problem}", file=sys.stderr)

    plain = [r for r in reps if not r.traced]
    wall = statistics.median(r.wall_s for r in plain)
    replayed = statistics.median(r.result.get("replayed", 0) for r in plain)
    summary = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        "sim_ips": replayed / wall,
        "failed_frac": _ratio(check.failed, check.attempted),
    }
    if args.trace:
        traced = [r for r in reps if r.traced]
        for name in traced[0].layers:
            summary[name] = statistics.median(r.layers[name] for r in traced)
        summary["tracing.wall_s"] = statistics.median(r.wall_s for r in traced)
        summary["tracing.overhead_s"] = summary["tracing.wall_s"] - wall
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    host = host_metadata()
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced + "
          f"{len(reps) - len(plain)} traced repetitions, {len(setups)} set-up samples, "
          f"{check.attempted} operations checked, {check.failed} failed")
    print("host: " + ", ".join(f"{key}={value}" for key, value in host.items()))
    print("repetition wall_s: " + " ".join(
        f"{r.wall_s:.3f}{'*' if r.traced else ''}" for r in reps) + "  (* traced)")
    shown = dict.fromkeys(["wall_s", "setup_s", "sim_ips", "peak_rss_mb", "failed_frac"])
    shown.update(dict.fromkeys(names))
    for name in shown:
        print(f"  {name:<34} {summary[name]:>16.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": summary[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
