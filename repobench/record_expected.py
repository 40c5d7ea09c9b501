"""Record the expected outputs that ``run.py`` checks every repetition against.

    python3 repobench/record_expected.py --seeds 0-31 [--workloads figures ...]

For each workload and seed this runs one untimed repetition through the same
code path as the benchmark and stores its operations (digests plus a few
exact simulated counters) in ``expected/<workload>.json``.  For
``grid_warm`` the cache-served invocation must reproduce the priming sweep
exactly, and for ``grid_cold`` every cell must have been simulated.

Changing these files is a benchmark change.  A change that claims a gain may
not make it: the simulator is deterministic, so a faster simulator must
reproduce them bit for bit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from run import HERE, WORKLOADS, Bench

DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def dump(data: dict) -> str:
    """The expectations as JSON with one line per seed."""
    seeds = ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(ops, sort_keys=True, separators=(',', ':'))}"
        for seed, ops in data["seeds"].items()
    )
    header = {key: value for key, value in data.items() if key != "seeds"}
    return (json.dumps(header, sort_keys=True)[:-1]
            + ', "seeds": {\n' + seeds + "\n}}\n")


def record(root: Path, workload: str, seed: int) -> dict:
    bench = Bench(root, workload, seed, deadline=time.monotonic() + 600)
    try:
        primed = bench.prepare()
        rep = bench.repetition(traced=False)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if rep.exit_code != 0 or rep.result.get("exit", 0) != 0:
        raise RuntimeError(f"{workload} seed {seed}: repetition failed")
    stats = rep.result.get("stats", {})
    if workload == "grid_cold" and stats["simulated"] != len(rep.result["ops"]):
        raise RuntimeError(f"grid_cold seed {seed}: not every cell simulated: {stats}")
    if workload == "grid_warm" and (
        stats["simulated"] != 0 or rep.result["ops"] != primed.result["ops"]
    ):
        raise RuntimeError(f"grid_warm seed {seed}: cache did not reproduce the priming")
    return rep.result["ops"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[DEFAULT_SEED, HELD_OUT_SEED])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args()
    root = Path.cwd()
    for workload in args.workloads:
        path = HERE / "expected" / f"{workload}.json"
        data = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "seeds": {}}
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
        for seed in args.seeds:
            data["seeds"][str(seed)] = record(root, workload, seed)
            print(f"{workload} seed {seed}: {len(data['seeds'][str(seed)])} ops", flush=True)
            data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
            path.parent.mkdir(exist_ok=True)
            path.write_text(dump(data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
