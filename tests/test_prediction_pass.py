"""The trace-only prediction pass against the live branch prediction unit.

:func:`repro.branch.prediction_pass.trace_predictions` replays the direction
predictor, the RAS and the indirect target cache once per trace; the
``scalar`` backend reads its columns instead of driving those components
region by region.  These tests pin the pass against a region-by-region walk
of a live :class:`BranchPredictionUnit` (``predict_region`` then
``resolve_region``) on handcrafted traces that hit the edge cases, and pin
the simulator state a ``scalar`` run leaves behind against the
``reference`` oracle's.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.branch.btb_conventional import PerfectBTB
from repro.branch.direction import HybridDirectionPredictor
from repro.branch.prediction_pass import (
    BTB_TARGET,
    _memo_key,
    trace_predictions,
)
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchPredictionUnit
from repro.core.designs import design_from_spec, resolve_design
from repro.isa.instruction import BranchKind
from repro.workloads.packed import NO_VALUE
from repro.workloads.trace import FetchRecord, Trace

BASE = 0x4000_0000


def _region(start, branch_pc, kind, taken, next_pc, target=None, count=4):
    return FetchRecord(start=start, instruction_count=count, branch_pc=branch_pc,
                       kind=kind, taken=taken, target=target, next_pc=next_pc)


def _ras_trace(depth):
    """``depth`` nested calls, then ``depth + 3`` returns: past 64 the RAS
    overflows, and the last returns underflow."""
    records = []
    for level in range(depth):
        start = BASE + level * 0x100
        records.append(_region(start, start + 12, BranchKind.CALL, True,
                               start + 0x100, target=start + 0x100))
    for level in reversed(range(-3, depth)):
        start = BASE + 0x10_0000 + (level + 3) * 0x40
        records.append(_region(start, start + 12, BranchKind.RETURN, True,
                               BASE + level * 0x100 + 16))
    return Trace(records, name="ras")


def _indirect_trace():
    """Two indirect branches whose cache index aliases (1024 entries), one
    indirect call that repeats its target, a kindless branch and branchless
    regions in between."""
    alias = 1024 * 4
    records = []
    for repeat in range(30):
        for pc in (BASE + 0x20C, BASE + 0x20C + alias):
            target = BASE + 0x8000 + (repeat % 3) * 0x40
            records.append(_region(pc - 12, pc, BranchKind.INDIRECT, True, target))
            records.append(_region(target, None, None, False, target + 16))
        records.append(_region(BASE + 0x300, BASE + 0x30C, BranchKind.INDIRECT_CALL,
                               True, BASE + 0x9000))
        records.append(_region(BASE + 0x9000, BASE + 0x900C, None, repeat % 2 == 0,
                               BASE + 0x9400, target=BASE + 0x9400))
        records.append(_region(BASE + 0x9400, BASE + 0x940C, BranchKind.RETURN, True,
                               BASE + 0x310))
        # A conditional with a period-3 pattern, and a branchless region
        # whose raw taken flag is set.
        records.append(_region(BASE + 0x310, BASE + 0x31C, BranchKind.CONDITIONAL,
                               repeat % 3 == 0, BASE + 0x500, target=BASE + 0x500))
        records.append(_region(BASE + 0x500, None, None, True, BASE + 0x600))
    return Trace(records, name="indirect")


def _live_walk(trace, bpu, depth):
    """Drive ``bpu`` region by region; returns its predictions and, per
    region, FDP's runahead stop probed with live ``direction.predict``."""
    records = list(trace.records)
    takens, targets, stops = [], [], []
    for index, record in enumerate(records):
        stop = depth
        for position in range(index, min(index + depth, len(records) - 1)):
            ahead = records[position]
            if (ahead.branch_pc is not None and ahead.kind is BranchKind.CONDITIONAL
                    and bpu.direction.predict(ahead.branch_pc) != ahead.taken):
                stop = position - index
                break
        stops.append(stop)
        prediction = bpu.predict_region(record.branch_pc, record.kind, record.taken,
                                        record.next_pc, record.fallthrough)
        takens.append(int(prediction.predicted_taken))
        if (record.branch_pc is None or not prediction.predicted_taken
                or record.kind is None or not record.kind.is_indirect):
            targets.append(BTB_TARGET)
        else:
            target = prediction.predicted_target
            targets.append(NO_VALUE if target is None else target)
        bpu.resolve_region(record.branch_pc, record.kind, record.taken, record.target,
                           record.next_pc, record.fallthrough)
    return takens, targets, stops


def _predictor_state(bpu):
    direction, ras, indirect = bpu.direction, bpu.ras, bpu.indirect
    return {
        "gshare": list(direction.gshare._table.counters),
        "bimodal": list(direction.bimodal._table.counters),
        "meta": list(direction._meta.counters),
        "history": direction.gshare.history,
        "direction": (direction.predictions, direction.mispredictions),
        "ras": (list(ras._stack), ras.pushes, ras.pops, ras.overflows, ras.underflows),
        "indirect": (dict(indirect._tags), dict(indirect._targets),
                     indirect.lookups, indirect.hits, indirect.correct),
        "bpu": (bpu.predictions, bpu.misfetches, bpu.direction_mispredictions),
    }


def _simulator_state(simulator):
    state = _predictor_state(simulator.bpu)
    state["btb"] = dataclasses.asdict(simulator.bpu.btb.stats)
    prefetcher = simulator.prefetcher
    state["fdp"] = (getattr(prefetcher, "runahead_stops_on_misprediction", None),
                    getattr(prefetcher, "runahead_stops_on_btb_miss", None))
    state["issued"] = prefetcher.issued_prefetches
    return state


def _fresh_bpu():
    return BranchPredictionUnit(PerfectBTB())


class TestPassAgainstLiveUnit:
    @pytest.fixture(params=["ras", "indirect", "generated"])
    def trace(self, request, tiny_trace):
        if request.param == "ras":
            return _ras_trace(70)
        if request.param == "indirect":
            return _indirect_trace()
        return tiny_trace

    def test_columns_stops_and_end_state_match(self, trace):
        depth = 6
        live = _fresh_bpu()
        takens, targets, stops = _live_walk(trace, live, depth)

        predictions = trace_predictions(trace.packed, _fresh_bpu())
        assert list(predictions.predicted_takens) == takens
        pass_targets = [
            target if taken else BTB_TARGET
            for target, taken in zip(predictions.predicted_targets, takens, strict=True)
        ]
        assert pass_targets == targets
        assert list(predictions.runahead_stops(depth)) == stops

        installed = _fresh_bpu()
        predictions.install(installed)
        live_state = _predictor_state(live)
        installed_state = _predictor_state(installed)
        # The loop, not the pass, counts misfetches (they need the BTB).
        assert installed_state.pop("bpu")[::2] == live_state.pop("bpu")[::2]
        assert installed_state == live_state

    def test_ras_overflow_and_underflow_are_exercised(self):
        bpu = _fresh_bpu()
        trace_predictions(_ras_trace(70).packed, bpu).install(bpu)
        assert bpu.ras.overflows == 70 - 64
        assert bpu.ras.underflows > 0

    def test_aliasing_indirect_branches_score_their_hits(self):
        bpu = _fresh_bpu()
        trace_predictions(_indirect_trace().packed, bpu).install(bpu)
        indirect = bpu.indirect
        # The aliasing pair evicts each other (no hits); the indirect call
        # always finds its own entry and repeats its target.
        assert indirect.lookups == 90
        assert indirect.hits == indirect.correct == 29

    @pytest.mark.parametrize("depth", [1, 3])
    def test_stops_at_other_depths(self, tiny_trace, depth):
        _, _, stops = _live_walk(tiny_trace, _fresh_bpu(), depth)
        predictions = trace_predictions(tiny_trace.packed, _fresh_bpu())
        assert list(predictions.runahead_stops(depth)) == stops


class TestMemo:
    def test_constructed_units_share_one_pass(self, tiny_trace):
        packed = tiny_trace.packed.slice(0)
        first = trace_predictions(packed, _fresh_bpu())
        assert trace_predictions(packed, _fresh_bpu()) is first

    def test_key_covers_geometry(self, tiny_trace):
        packed = tiny_trace.packed.slice(0)
        stock = trace_predictions(packed, _fresh_bpu())
        small = BranchPredictionUnit(
            PerfectBTB(), direction=HybridDirectionPredictor(entries=1024)
        )
        shallow = BranchPredictionUnit(PerfectBTB(), ras=ReturnAddressStack(entries=8))
        assert trace_predictions(packed, small) is not stock
        assert trace_predictions(packed, shallow) is not stock
        assert len(packed._memo) == 3

    def test_warm_unit_recomputes(self, tiny_trace):
        packed = tiny_trace.packed.slice(0)
        cold = trace_predictions(packed, _fresh_bpu())
        warm = _fresh_bpu()
        cold.install(warm)
        assert _memo_key(warm) is None
        again = trace_predictions(packed, warm)
        assert again is not cold
        assert len(packed._memo) == 1
        # A warm unit predicts differently from a cold one.
        assert again.predicted_takens != cold.predicted_takens

    def test_pickled_trace_arrives_without_the_memo(self, tiny_trace):
        packed = tiny_trace.packed.slice(0)
        trace_predictions(packed, _fresh_bpu())
        assert packed._memo
        assert pickle.loads(pickle.dumps(packed))._memo is None


def _run(design, program, trace, backend):
    simulator, _ = design_from_spec(resolve_design(design), program)
    return simulator, simulator.run(trace, backend=backend)


class TestPostRunStateParity:
    """``scalar`` leaves the simulator exactly as ``reference`` does."""

    @pytest.mark.parametrize("design", ["baseline", "fdp", "confluence", "2level_fdp"])
    def test_two_designs_on_one_trace(self, tiny_program, tiny_trace, design):
        trace = Trace.from_packed(tiny_trace.packed.slice(0))
        # The first design computes the pass, the second hits the memo.
        for name in ("baseline", design):
            fast, fast_result = _run(name, tiny_program, trace, "scalar")
            oracle, oracle_result = _run(name, tiny_program, trace, "reference")
            assert dataclasses.asdict(fast_result) == dataclasses.asdict(oracle_result)
            assert _simulator_state(fast) == _simulator_state(oracle)
        assert len(trace.packed._memo) == 1

    @pytest.mark.parametrize("design", ["baseline", "fdp"])
    def test_warm_second_run(self, tiny_program, tiny_trace, small_trace, design):
        states = {}
        for backend in ("scalar", "reference"):
            simulator, first = _run(design, tiny_program, tiny_trace, backend)
            second = simulator.run(tiny_trace, backend=backend)
            third = simulator.run(small_trace, backend=backend)
            states[backend] = (
                [dataclasses.asdict(result) for result in (first, second, third)],
                _simulator_state(simulator),
            )
        assert states["scalar"] == states["reference"]

    def test_pickled_trace(self, tiny_program, tiny_trace):
        trace = pickle.loads(pickle.dumps(tiny_trace))
        assert trace.packed._memo is None
        fast, fast_result = _run("fdp", tiny_program, trace, "scalar")
        oracle, oracle_result = _run("fdp", tiny_program, trace, "reference")
        assert dataclasses.asdict(fast_result) == dataclasses.asdict(oracle_result)
        assert _simulator_state(fast) == _simulator_state(oracle)


class TestIndirectAccuracy:
    def test_every_backend_scores_the_same_accuracy(self, tiny_program, tiny_trace,
                                                    sim_backend):
        assert tiny_trace.statistics().indirect_count > 0
        fast, _ = _run("baseline", tiny_program, tiny_trace, sim_backend)
        oracle, _ = _run("baseline", tiny_program, tiny_trace, "reference")
        assert fast.bpu.indirect.accuracy > 0
        assert fast.bpu.indirect.accuracy == oracle.bpu.indirect.accuracy
        assert fast.bpu.indirect.correct == oracle.bpu.indirect.correct


def test_unreplayable_unit_runs_on_the_reference_loop(tiny_program, tiny_trace):
    # The pass inlines the stock predictor; a subclass must not be bypassed.
    class AlwaysTaken(HybridDirectionPredictor):
        def predict(self, branch_pc):
            return True

    states = {}
    for backend in ("scalar", "reference"):
        simulator, _ = design_from_spec(resolve_design("fdp"), tiny_program)
        simulator.bpu.direction = AlwaysTaken()
        result = simulator.run(tiny_trace, backend=backend)
        states[backend] = (dataclasses.asdict(result), _simulator_state(simulator))
    assert states["scalar"] == states["reference"]
