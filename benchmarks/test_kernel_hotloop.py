"""Microbenchmark of the simulation kernel (the PR-4 hot loop).

Runs the same harness as ``python -m repro bench`` at the suite's benchmark
scale: trace generation, the columnar artifact round trip (mmap-backed), and
the scalar backend's allocation-free loop per design, against the
``reference`` record-view oracle backend on the identical trace.  The
acceptance gate this pins: the scalar backend must sustain at least 1.5x the
reference backend's regions/sec (asserted only outside smoke mode — CI
machines are too noisy to gate on timing, which is why the CI job checks the
JSON *schema* instead, plus a tolerant ``--compare``).

The committed ``BENCH_kernel.json`` at the repo root is the recorded
trajectory of these numbers, one point per perf PR; refresh it with
``python -m repro bench --json BENCH_kernel.json`` after kernel work (the
flag *appends* a point, keeping the history).
"""

from repro.backends import backend_names, get_backend
from repro.perfbench import run_kernel_benchmark

DESIGNS = ("baseline", "confluence")


def test_kernel_hotloop(benchmark, bench_scale, bench_instructions,
                        shape_assertions):
    scale = min(bench_scale, 0.2)
    instructions = min(bench_instructions, 200_000)

    payload = benchmark.pedantic(
        run_kernel_benchmark,
        kwargs=dict(
            profile_name="oltp_db2",
            scale=scale,
            instructions=instructions,
            seed=3,
            designs=DESIGNS,
            # Best-of-3, as at the recorded full operating point: the 1.5x
            # gate below is a ratio of two timings, and with a single run of
            # each side one scheduler hiccup can decide it.
            repeats=3,
        ),
        rounds=1,
        iterations=1,
    )

    print()
    for row in payload["designs"]:
        print(f"  {row['design']:>12}: {row['regions_per_sec']:>12,.0f} "
              f"regions/s ({row['backend']} backend)")
    for row in payload["backends"]:
        print(f"  backend {row['backend']:>10}: "
              f"{row['regions_per_sec']:>12,.0f} regions/s on {row['design']}")
    print(f"  speedup over reference: {payload['speedup_over_reference']:.2f}x, "
          f"peak RSS {payload['peak_rss_kb']} KB")
    scenario = payload["scenario"]
    print(f"  {scenario['cores']}-core CMP: scalar "
          f"{scenario['scalar_regions_per_sec']:,.0f} regions/s, batch "
          f"{scenario['batch_regions_per_sec']:,.0f} regions/s "
          f"({scenario['batch_speedup_over_scalar']:.2f}x)")

    # Structure holds at any scale: every design timed, every *available*
    # registered backend timed (``batch`` drops out without numpy), artifact
    # mapped zero-copy, stable schema fields present.
    assert [row["design"] for row in payload["designs"]] == list(DESIGNS)
    assert payload["trace"]["mapped"] is True
    assert all(row["regions_per_sec"] > 0 for row in payload["designs"])
    assert {row["backend"] for row in payload["backends"]} \
        == {name for name in backend_names() if get_backend(name).available()}
    assert scenario["batch_available"] == get_backend("batch").available()

    if not shape_assertions:
        return
    # The acceptance gate carried over from the packed-kernel PR: the
    # allocation-free scalar backend beats the reference oracle by >= 1.5x
    # on the same trace.
    assert payload["speedup_over_reference"] >= 1.5
