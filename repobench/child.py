"""One timed repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so nothing a previous
repetition built (program and CMP memos, imported modules, warm caches)
survives into the next one.  The script imports ``repro``, parses its
arguments, notes the monotonic clock (the end of set-up), optionally installs
the layer tracing, runs the workload and writes a JSON result file::

    python3 repobench/child.py --workload figures --seed 1 --out result.json
    python3 repobench/child.py --workload grid --seed 1 --out result.json \\
        -- <python -m repro sweep arguments>

``--setup-only`` stops right after set-up; ``--trace-dir DIR`` turns on
tracing and writes the span records into ``DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import repro.__main__ as cli
from repro.analysis import experiments
from repro.core.frontend import FrontendSimulator
from repro.workloads import cfg, generator, get_profile

#: The ``figures`` workload: two profiles at scale 0.2, one trace each, cut
#: to a fixed number of fetch regions (about 60k instructions).  Simulation
#: cost follows the region count, and at a fixed 60k instructions the
#: ``oltp_db2`` region count alone ranged over 13.5k-24.6k for seeds 0-9, so
#: the seed, not the code, would set the workload's wall time.
FIGURE_PROFILES = ("oltp_db2", "web_frontend")
FIGURE_SCALE = 0.2
FIGURE_TRACE_REGIONS = 18_000
#: Generated before the cut; enough for every seed's first 18k regions.
FIGURE_TRACE_INSTRUCTIONS = 120_000
#: The nine catalog design points, named here so that a catalog change is a
#: benchmark change.
FIGURE_DESIGNS = (
    "baseline", "fdp", "phantom_fdp", "2level_fdp", "phantom_shift",
    "2level_shift", "idealbtb_shift", "confluence", "ideal",
)


def digest(value: object) -> str:
    """Short stable digest of a JSON-compatible value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _record_simulations(log: list) -> None:
    """Log every simulation's raw output, in call order (58 calls per run)."""
    run = FrontendSimulator.run
    coverage = experiments.run_btb_coverage

    def logged_run(self, trace, *args, **kwargs):
        result = run(self, trace, *args, **kwargs)
        log.append(("frontend", trace.name, dataclasses.asdict(result)))
        return result

    def logged_coverage(btb, trace, *args, **kwargs):
        misses, instructions = coverage(btb, trace, *args, **kwargs)
        log.append(("btb", trace.name, {"btb": btb.name, "taken_misses": misses,
                                        "instructions": instructions}))
        return misses, instructions

    FrontendSimulator.run = logged_run
    experiments.run_btb_coverage = logged_coverage


def run_figures(seed: int) -> dict:
    """The figure slice: Figs 1, 2/6/7, 8, 9, 10 and Table 2 on two traces.

    Returns ``{"ops": {name: {"digest": ..., **counters}}, "replayed": n}``
    where an op is one simulation (frontend run or standalone-BTB walk) or
    one figure table.
    """
    log: list = []
    _record_simulations(log)
    tables = {}
    trace_instructions = {}
    for name in FIGURE_PROFILES:
        profile = get_profile(name).scaled(FIGURE_SCALE)
        program = cfg.synthesize_program(profile)
        trace = generator.generate_trace(
            program, FIGURE_TRACE_INSTRUCTIONS, seed=seed, name=name
        )
        if len(trace.packed) < FIGURE_TRACE_REGIONS:
            raise ValueError(f"{name} seed {seed}: trace shorter than "
                             f"{FIGURE_TRACE_REGIONS} regions")
        trace = trace.head(FIGURE_TRACE_REGIONS)
        trace_instructions[trace.name] = sum(trace.packed.instruction_counts)
        outcomes = experiments.frontend_comparison(program, trace, FIGURE_DESIGNS)
        tables[name] = {
            "fig01": experiments.btb_capacity_sweep(trace),
            "fig02_06_07": experiments.performance_area_frontier(outcomes),
            "fig08": experiments.airbtb_ablation(program, trace),
            "fig09": experiments.miss_coverage_comparison(program, trace),
            "fig10": {f"{b}x{o}": value for (b, o), value
                      in experiments.airbtb_sensitivity(program, trace).items()},
            "tab02": experiments.branch_density_table(program, trace),
        }
    ops = {}
    for index, (kind, workload, fields) in enumerate(log):
        counters = {key: fields[key] for key in (
            ("instructions", "btb_taken_misses", "l1i_misses", "direction_mispredictions")
            if kind == "frontend" else ("taken_misses", "instructions"))}
        label = fields.get("design", fields.get("btb"))
        ops[f"sim{index:02d}:{workload}:{label}"] = {"digest": digest(fields), **counters}
    for workload, figures in tables.items():
        for figure, table in figures.items():
            ops[f"table:{workload}:{figure}"] = {"digest": digest(table)}
    replayed = sum(trace_instructions[workload] for _, workload, _ in log)
    return {"ops": ops, "replayed": replayed}


def run_grid(args: argparse.Namespace) -> dict:
    """One ``python -m repro sweep --json`` invocation; an op is one cell."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = args.handler(args)
    if code != 0:
        return {"exit": code, "ops": {}, "stats": {}, "replayed": 0}
    payload = json.loads(stdout.getvalue())
    ops = {}
    for profile, report in sorted(payload["reports"].items()):
        for design, summary in sorted(report["results"].items()):
            ops[f"{profile}/{design}"] = {
                "digest": digest(summary),
                **{key: summary[key] for key in
                   ("instructions", "cycles", "btb_mpki", "l1i_mpki")},
            }
    stats = payload["stats"]
    replayed = stats["simulated"] * args.cores * args.instructions_per_core
    return {"exit": 0, "ops": ops, "stats": stats, "replayed": replayed}


def main(argv: list) -> int:
    own, sweep_argv = argv, []
    if "--" in argv:
        split = argv.index("--")
        own, sweep_argv = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figures", "grid"), required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed of the figures workload")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(own)
    sweep_args = (
        cli._build_parser().parse_args(["sweep", *sweep_argv])
        if args.workload == "grid" else None
    )
    setup_done = time.monotonic()

    result: dict = {"setup_done": setup_done}
    if not args.setup_only:
        tracer = None
        if args.trace_dir is not None:
            from tracing import install

            tracer = install(args.run_id, args.trace_dir)
        if args.workload == "figures":
            result.update(run_figures(args.seed))
        else:
            result.update(run_grid(sweep_args))
        if tracer is not None:
            tracer.flush()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
