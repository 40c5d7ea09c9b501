"""The lane-vectorized ``batch`` backend (PR 8).

Cross-backend parity on generated traces already lives in
``test_frontend_parity.py`` (the ``sim_backend`` fixture covers ``batch``
the moment it registers).  This file pins what that suite cannot see:

* the multi-lane ``run_lanes`` entry point — one lane, unequal lane
  lengths, warm component reuse across runs — against per-core scalar runs,
* the divergence-mask edge cases (regions where *every* lane misfetches and
  regions where *no* lane does),
* the CMP lane-grouped dispatch: homogeneous and heterogeneous chips must
  reproduce the serial scalar path bit for bit, grouped one ``run_lanes``
  call per co-located profile, with the scalar fallback for designs outside
  the vectorized envelope,
* the optional-dependency story: without numpy the backend stays registered
  but reports unavailable and raises a :class:`ValueError` naming numpy.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends import get_backend
from repro.core.cmp import ChipMultiprocessor
from repro.core.designs import design_from_spec, resolve_design
from repro.isa.instruction import BranchKind
from repro.workloads import generate_trace
from repro.workloads.scenario import Scenario, ScenarioEntry
from repro.workloads.trace import FetchRecord, Trace

np = pytest.importorskip("numpy")


def _simulator(program, design="baseline"):
    simulator, _ = design_from_spec(resolve_design(design), program)
    return simulator


def _scalar_results(program, traces, design="baseline", warmup=None):
    results = []
    for trace in traces:
        simulator = _simulator(program, design)
        kwargs = {} if warmup is None else {"warmup_fraction": warmup}
        results.append(simulator.run(trace, backend="scalar", **kwargs))
    return results


def _as_dicts(results):
    return [dataclasses.asdict(result) for result in results]


class TestRunLanes:
    def test_single_lane_matches_scalar(self, tiny_program, tiny_trace):
        batch = get_backend("batch")
        lane = batch.run_lanes(
            [_simulator(tiny_program)], [tiny_trace], [0.2]
        )
        oracle = _scalar_results(tiny_program, [tiny_trace], warmup=0.2)
        assert _as_dicts(lane) == _as_dicts(oracle)

    def test_unequal_lane_lengths_match_scalar(self, tiny_program):
        # Lanes retire at different region counts; the shorter lanes' masks
        # go dead while the longest keeps running.
        batch = get_backend("batch")
        traces = [
            generate_trace(tiny_program, budget, seed=7 + i)
            for i, budget in enumerate((6_000, 21_000, 33_000))
        ]
        sims = [_simulator(tiny_program) for _ in traces]
        lanes = batch.run_lanes(sims, traces, [0.2] * len(traces))
        oracle = _scalar_results(tiny_program, traces, warmup=0.2)
        assert _as_dicts(lanes) == _as_dicts(oracle)

    def test_warm_reuse_across_runs_matches_scalar(self, tiny_program):
        # A second trace through the same simulator starts with warm caches
        # and predictors on both backends (the "core moves to the next
        # trace" model) — the warm-state import/export must round-trip.
        first = generate_trace(tiny_program, 12_000, seed=11)
        second = generate_trace(tiny_program, 12_000, seed=12)
        batch_sim = _simulator(tiny_program)
        scalar_sim = _simulator(tiny_program)
        for trace in (first, second):
            via_batch = batch_sim.run(trace, backend="batch")
            via_scalar = scalar_sim.run(trace, backend="scalar")
            assert dataclasses.asdict(via_batch) == dataclasses.asdict(via_scalar)


class TestDivergenceMaskEdges:
    _BASE = 0x4000_0000

    def _all_misfetch_trace(self, regions=240):
        # Every region ends in a taken conditional at a never-before-seen
        # pc: the BTB misses everywhere, so the misfetch mask is all-lanes
        # true on every region.
        records = []
        for index in range(regions):
            start = self._BASE + index * 0x1000
            target = self._BASE + (index + 1) * 0x1000
            records.append(FetchRecord(
                start=start, instruction_count=4, branch_pc=start + 12,
                kind=BranchKind.CONDITIONAL, taken=True, target=target,
                next_pc=target,
            ))
        return Trace(records, name="all_misfetch")

    def _steady_loop_trace(self, regions=240):
        # One taken loop branch repeated: after the first visit the BTB and
        # direction predictor are warm and nothing ever diverges again.
        records = []
        for _ in range(regions):
            records.append(FetchRecord(
                start=self._BASE, instruction_count=4,
                branch_pc=self._BASE + 12, kind=BranchKind.CONDITIONAL,
                taken=True, target=self._BASE, next_pc=self._BASE,
            ))
        return Trace(records, name="steady_loop")

    def test_every_lane_misfetches_every_region(self, tiny_program):
        batch = get_backend("batch")
        traces = [self._all_misfetch_trace() for _ in range(3)]
        sims = [_simulator(tiny_program) for _ in traces]
        lanes = batch.run_lanes(sims, traces, [0.0] * len(traces))
        oracle = _scalar_results(tiny_program, traces, warmup=0.0)
        assert _as_dicts(lanes) == _as_dicts(oracle)
        for result in lanes:
            assert result.misfetches == result.fetch_regions

    def test_no_lane_ever_misfetches(self, tiny_program):
        batch = get_backend("batch")
        traces = [self._steady_loop_trace() for _ in range(3)]
        sims = [_simulator(tiny_program) for _ in traces]
        lanes = batch.run_lanes(sims, traces, [0.2] * len(traces))
        oracle = _scalar_results(tiny_program, traces, warmup=0.2)
        assert _as_dicts(lanes) == _as_dicts(oracle)
        for result in lanes:
            # Post-warmup the loop is steady state: no misfetches, no
            # direction mispredictions, in any lane.
            assert result.misfetches == 0
            assert result.direction_mispredictions == 0


class TestRunLanesValidation:
    def test_mismatched_lane_sequences_raise(self, tiny_program, tiny_trace):
        batch = get_backend("batch")
        with pytest.raises(ValueError, match="matching lane sequences"):
            batch.run_lanes([_simulator(tiny_program)], [tiny_trace], [0.2, 0.2])

    def test_records_only_trace_raises(self, tiny_program, tiny_trace):
        class RecordsOnly:
            name = "records_only"
            packed = None
            records = tiny_trace.records

        batch = get_backend("batch")
        with pytest.raises(ValueError, match="cannot consume trace"):
            batch.run_lanes([_simulator(tiny_program)], [RecordsOnly()], [0.2])

    def test_non_vectorizing_design_raises_in_run_lanes(
        self, tiny_program, tiny_trace
    ):
        batch = get_backend("batch")
        confluence = _simulator(tiny_program, "confluence")
        assert not batch.vectorizes(confluence)
        with pytest.raises(ValueError, match="does not vectorize"):
            batch.run_lanes([confluence], [tiny_trace], [0.2])

    def test_run_delegates_non_vectorizing_designs_to_scalar(
        self, tiny_program, tiny_trace
    ):
        via_batch = _simulator(tiny_program, "confluence").run(
            tiny_trace, backend="batch"
        )
        oracle = _simulator(tiny_program, "confluence").run(
            tiny_trace, backend="scalar"
        )
        assert dataclasses.asdict(via_batch) == dataclasses.asdict(oracle)


class TestCMPDispatch:
    def _cmp(self, tiny_program, **kwargs):
        return ChipMultiprocessor(
            tiny_program, cores=4, instructions_per_core=8_000, **kwargs
        )

    def test_homogeneous_chip_matches_scalar(self, tiny_program):
        scalar = self._cmp(tiny_program).run_design("baseline", backend="scalar")
        batch = self._cmp(tiny_program).run_design("baseline", backend="batch")
        assert _as_dicts(scalar.core_results) == _as_dicts(batch.core_results)

    def test_homogeneous_chip_is_one_run_lanes_call(self, tiny_program, monkeypatch):
        from repro.backends.batch import BatchBackend

        calls = []
        original = BatchBackend.run_lanes

        def counting(self, simulators, traces, warmups):
            calls.append(len(simulators))
            return original(self, simulators, traces, warmups)

        monkeypatch.setattr(BatchBackend, "run_lanes", counting)
        self._cmp(tiny_program).run_design("baseline", backend="batch")
        assert calls == [4]  # all co-located cores ride one vectorized call

    def test_heterogeneous_scenario_groups_per_profile(self, monkeypatch):
        # A seeded two-profile mix with unequal per-entry budgets: the batch
        # path must issue one run_lanes call per profile group and land on
        # the scalar serial path's results, core for core.
        scenario = Scenario(
            name="mixed_test",
            description="two-profile mix with unequal per-entry budgets",
            entries=(
                ScenarioEntry("oltp_db2", weight=1, instructions=7_000),
                ScenarioEntry("web_frontend", weight=1, instructions=9_000),
            ),
        )

        def run(backend):
            cmp_ = ChipMultiprocessor(
                scenario=scenario.bind(cores=4, trace_seed_base=42)
            )
            return cmp_.run_design("baseline", backend=backend)

        scalar = run("scalar")

        from repro.backends.batch import BatchBackend

        calls = []
        original = BatchBackend.run_lanes

        def counting(self, simulators, traces, warmups):
            calls.append(len(simulators))
            return original(self, simulators, traces, warmups)

        monkeypatch.setattr(BatchBackend, "run_lanes", counting)
        batch = run("batch")
        assert calls == [2, 2]  # one call per co-located profile group
        assert _as_dicts(scalar.core_results) == _as_dicts(batch.core_results)
        assert scalar.per_profile() == batch.per_profile()

    def test_non_vectorizing_design_falls_back_per_core(self, tiny_program):
        scalar = self._cmp(tiny_program).run_design("confluence", backend="scalar")
        batch = self._cmp(tiny_program).run_design("confluence", backend="batch")
        assert _as_dicts(scalar.core_results) == _as_dicts(batch.core_results)


class TestNumpyAbsent:
    """Registered-but-unavailable: clear errors, never an AttributeError.

    The ``no_numpy`` fixture (conftest) makes ``import numpy`` fail for a
    freshly built backend, the same condition a host without numpy has.
    """

    def test_reports_unavailable(self, no_numpy):
        batch = get_backend("batch")
        assert not batch.available()
        assert "numpy" in batch.unavailable_reason()

    def test_run_raises_a_value_error_naming_numpy(
        self, no_numpy, tiny_program, tiny_trace
    ):
        simulator = _simulator(tiny_program)
        with pytest.raises(ValueError, match="requires numpy"):
            simulator.run(tiny_trace, backend="batch")

    def test_vectorizes_is_false_without_numpy(self, no_numpy, tiny_program):
        batch = get_backend("batch")
        assert not batch.vectorizes(_simulator(tiny_program))

    def test_cmp_dispatch_skips_the_lane_path(self, no_numpy, tiny_program):
        # _batch_backend returns None when unavailable; the per-core path
        # then surfaces the backend's "requires numpy" error on the first run.
        cmp_ = ChipMultiprocessor(tiny_program, cores=2, instructions_per_core=6_000)
        with pytest.raises(ValueError, match="requires numpy"):
            cmp_.run_design("baseline", backend="batch")
