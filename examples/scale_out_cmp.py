#!/usr/bin/env python
"""Scale-out CMP study: shared instruction-supply metadata across cores.

Simulates a few cores of the 16-core CMP running the media-streaming
workload through the Session facade.  All cores share one SHIFT history
(virtualized in the LLC); only core 0 records it, the others replay it — the
sharing that lets Confluence amortize its metadata across the chip.  The
session's design points run through the sweep engine: ``workers=2`` spreads
the three (profile, design) cells over the engine's two-process cell pool,
each cell simulating its four cores in turn, bit-identically to the serial
path (see examples/grid_sweep.py for multi-profile grids and the on-disk
result cache).
"""

from repro import Session


def main() -> None:
    session = Session(profile="media_streaming", scale=0.35, cores=4,
                      instructions_per_core=120_000, workers=2)
    print(f"Simulating a {session.cores}-core slice of the CMP on "
          f"'{session.profile.name}'...\n")
    report = session.run(["baseline", "2level_shift", "confluence"])

    print(f"{'design':<16} {'throughput (IPC)':>17} {'speedup':>9} "
          f"{'BTB MPKI':>9} {'L1-I MPKI':>10}")
    for design in report.designs:
        row = report[design]
        print(f"{design:<16} {row['ipc']:>17.3f} {row['speedup']:>9.3f} "
              f"{row['btb_mpki']:>9.2f} {row['l1i_mpki']:>10.2f}")

    saved = report["2level_shift"]["area_mm2"] - report["confluence"]["area_mm2"]
    print(f"\nPer-core area: Confluence {report['confluence']['area_mm2']:.3f} mm^2 vs "
          f"2LevelBTB+SHIFT {report['2level_shift']['area_mm2']:.3f} mm^2 "
          f"(saves {saved:.3f} mm^2 per core, {16 * saved:.1f} mm^2 across the chip).")


if __name__ == "__main__":
    main()
