"""Trace-only branch prediction: one pass per trace, shared by every design.

The direction predictor, the return address stack and the indirect target
cache see the same branch stream under every frontend design point: what
they predict depends on the trace and on their own state, never on the BTB,
the L1-I, the prefetcher or timing.  :func:`trace_predictions` therefore
replays the three components over a trace's packed columns once — predict,
then resolve, region by region, exactly as
:class:`~repro.branch.unit.BranchPredictionUnit` drives them — and returns
a :class:`TracePredictions` holding:

* ``predicted_takens`` — per region, 1 when the unit predicts the
  terminating branch taken (0 for a branchless region);
* ``predicted_targets`` — per predicted-taken region, the target the RAS
  or the indirect cache supplies (:data:`~repro.workloads.packed.NO_VALUE`
  when it has none), or :data:`BTB_TARGET` when fetch follows the BTB;
* the components' final state and statistics, which
  :meth:`TracePredictions.install` writes into a live unit;
* on demand, :meth:`TracePredictions.runahead_stops` — FDP's per-region
  "the runahead stops on a misprediction at offset k" column.

The ``scalar`` backend runs only the BTB, the L1-I and the prefetcher
region by region and reads the rest from these columns.  A pass that starts
from a unit's constructed state is memoized on the
:class:`~repro.workloads.packed.PackedTrace` object, keyed by the
predictors' geometry and initial state, so every design simulated on one
trace object shares it; a warm predictor recomputes.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.branch.direction import HybridDirectionPredictor
from repro.branch.indirect import IndirectTargetCache
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchPredictionUnit
from repro.isa.instruction import INSTRUCTION_SIZE_BYTES, BranchKind
from repro.staticcheck.markers import hot_loop
from repro.workloads.packed import NO_VALUE, Column, PackedTrace, kind_code

__all__ = [
    "BTB_TARGET",
    "TracePredictions",
    "replays",
    "trace_predictions",
]

#: ``predicted_targets`` marker: fetch follows the BTB's target.  Distinct
#: from ``NO_VALUE`` (the RAS or the indirect cache had no target).
BTB_TARGET = -2

_CONDITIONAL = kind_code(BranchKind.CONDITIONAL)
_CALL = kind_code(BranchKind.CALL)
_INDIRECT = kind_code(BranchKind.INDIRECT)
_INDIRECT_CALL = kind_code(BranchKind.INDIRECT_CALL)
_RETURN = kind_code(BranchKind.RETURN)

#: gshare, bimodal and meta counters plus the global history.
_DirectionState = Tuple[bytearray, bytearray, bytearray, int]
#: gshare, bimodal and meta index masks plus the history mask.
_DirectionMasks = Tuple[int, int, int, int]
#: A runahead-stop column: bytes while the depth fits one, else ``array``.
Stops = Union[bytearray, array]


def replays(bpu: BranchPredictionUnit) -> bool:
    """Whether the pass reproduces ``bpu`` exactly: the stock unit and
    components, whose decision logic the pass inlines."""
    return (
        type(bpu) is BranchPredictionUnit
        and type(bpu.direction) is HybridDirectionPredictor
        and type(bpu.ras) is ReturnAddressStack
        and type(bpu.indirect) is IndirectTargetCache
    )


class _DirectionReplay:
    """A private copy of a hybrid predictor's tables, trained in place."""

    __slots__ = ("gshare", "bimodal", "meta", "history",
                 "g_mask", "b_mask", "m_mask", "h_mask")

    def __init__(self, masks: _DirectionMasks, state: _DirectionState) -> None:
        self.g_mask, self.b_mask, self.m_mask, self.h_mask = masks
        gshare, bimodal, meta, self.history = state
        self.gshare = list(gshare)
        self.bimodal = list(bimodal)
        self.meta = list(meta)

    def predict(self, branch_pc: int) -> bool:
        """:meth:`HybridDirectionPredictor.predict` on the copy."""
        word = branch_pc >> 2
        if self.meta[word & self.m_mask] >= 2:
            return self.gshare[(word ^ self.history) & self.g_mask] >= 2
        return self.bimodal[word & self.b_mask] >= 2

    def train(self, branch_pc: int, taken: int) -> bool:
        """:meth:`HybridDirectionPredictor.update` on the copy; returns the
        prediction made before training."""
        word = branch_pc >> 2
        g_slot = (word ^ self.history) & self.g_mask
        b_slot = word & self.b_mask
        m_slot = word & self.m_mask
        gshare = self.gshare
        bimodal = self.bimodal
        g_counter = gshare[g_slot]
        b_counter = bimodal[b_slot]
        g_taken = g_counter >= 2
        b_taken = b_counter >= 2
        m_counter = self.meta[m_slot]
        predicted = g_taken if m_counter >= 2 else b_taken
        # The meta selector trains toward the component that was right.
        if g_taken != b_taken:
            if g_taken == taken:
                if m_counter < 3:
                    self.meta[m_slot] = m_counter + 1
            elif m_counter > 0:
                self.meta[m_slot] = m_counter - 1
        if taken:
            if g_counter < 3:
                gshare[g_slot] = g_counter + 1
            if b_counter < 3:
                bimodal[b_slot] = b_counter + 1
        else:
            if g_counter > 0:
                gshare[g_slot] = g_counter - 1
            if b_counter > 0:
                bimodal[b_slot] = b_counter - 1
        self.history = ((self.history << 1) | taken) & self.h_mask
        return predicted

    def state(self) -> _DirectionState:
        return (bytearray(self.gshare), bytearray(self.bimodal),
                bytearray(self.meta), self.history)


def _direction_masks(direction: HybridDirectionPredictor) -> _DirectionMasks:
    return (
        direction.gshare._table.mask,
        direction.bimodal._table.mask,
        direction._meta.mask,
        direction.gshare._history_mask,
    )


def _direction_state(direction: HybridDirectionPredictor) -> _DirectionState:
    return (
        bytearray(direction.gshare._table.counters),
        bytearray(direction.bimodal._table.counters),
        bytearray(direction._meta.counters),
        direction.gshare.history,
    )


class TracePredictions:
    """The trace-only prediction columns and end state of one trace.

    Immutable once built (memoized instances are shared by every simulation
    of the trace), except for the per-depth runahead-stop columns it builds
    on demand.
    """

    __slots__ = (
        "predicted_takens",
        "predicted_targets",
        "direction_mispredictions",
        "_columns",
        "_masks",
        "_initial",
        "_final",
        "_conditionals",
        "_ras",
        "_indirect",
        "_stops",
    )

    def __init__(
        self,
        predicted_takens: bytearray,
        predicted_targets: array,
        direction_mispredictions: int,
        columns: Tuple[Column, Column, Column],
        masks: _DirectionMasks,
        initial: _DirectionState,
        final: _DirectionState,
        conditionals: Tuple[int, int],
        ras: Tuple[array, int, int, int, int],
        indirect: Tuple[array, array, array, int, int, int],
    ) -> None:
        self.predicted_takens = predicted_takens
        self.predicted_targets = predicted_targets
        #: Branch regions whose predicted direction differs from the outcome.
        self.direction_mispredictions = direction_mispredictions
        self._columns = columns
        self._masks = masks
        self._initial = initial
        self._final = final
        self._conditionals = conditionals
        self._ras = ras
        self._indirect = indirect
        self._stops: Dict[int, Stops] = {}

    def __len__(self) -> int:
        return len(self.predicted_takens)

    def runahead_stops(self, depth: int) -> Stops:
        """Per region ``i``: the offset ``k < depth`` of the first region
        ``i + k`` (``i + k`` before the last region) whose conditional
        branch the direction predictor mispredicts, or ``depth`` when none
        does.  Every prediction uses the state *before* region ``i`` trains
        — the state FDP's runahead from region ``i`` sees."""
        stops = self._stops.get(depth)
        if stops is None:
            stops = self._stops[depth] = _runahead_stops(self, depth)
        return stops

    def install(self, bpu: BranchPredictionUnit) -> None:
        """Leave ``bpu``'s direction predictor, RAS, indirect cache and its
        trace-only counters as a region-by-region run would have.

        ``bpu`` must hold the state this pass started from.  Tables are
        copied, never shared: the memoized pass serves other units too.
        """
        direction = bpu.direction
        gshare, bimodal, meta, history = self._final
        direction.gshare._table.counters[:] = gshare
        direction.bimodal._table.counters[:] = bimodal
        direction._meta.counters[:] = meta
        direction.gshare._history = history
        predictions, mispredictions = self._conditionals
        direction.predictions += predictions
        direction.mispredictions += mispredictions

        ras = bpu.ras
        stack, pushes, pops, overflows, underflows = self._ras
        ras._stack[:] = stack
        ras.pushes += pushes
        ras.pops += pops
        ras.overflows += overflows
        ras.underflows += underflows

        indirect = bpu.indirect
        slots, tags, targets, lookups, hits, correct = self._indirect
        indirect._tags = dict(zip(slots, tags))
        indirect._targets = dict(zip(slots, targets))
        indirect.lookups += lookups
        indirect.hits += hits
        indirect.correct += correct

        bpu.predictions += len(self)
        bpu.direction_mispredictions += self.direction_mispredictions


def _memo_key(bpu: BranchPredictionUnit) -> Optional[Hashable]:
    """The memo key of a pass from ``bpu``'s current state, or ``None``.

    Only the state a unit is built with — every counter table uniform, an
    empty RAS and indirect cache — is keyed (by the geometry, the uniform
    counter values and the history); a warm unit gets ``None`` and its pass
    is computed fresh, never memoized.
    """
    direction = bpu.direction
    if bpu.ras.depth or bpu.indirect._tags:
        return None
    key: List[Hashable] = [
        "trace_predictions",
        direction.gshare.history_bits,
        direction.gshare.history,
        bpu.ras.entries,
        bpu.indirect.entries,
    ]
    for table in (direction.gshare._table, direction.bimodal._table, direction._meta):
        counters = table.counters
        if counters.count(counters[0]) != len(counters):
            return None
        key += (table.entries, counters[0])
    return tuple(key)


def trace_predictions(packed: PackedTrace, bpu: BranchPredictionUnit) -> TracePredictions:
    """The prediction pass of ``packed`` from ``bpu``'s current state.

    ``bpu`` must satisfy :func:`replays`; it is only read.  Memoized on
    ``packed`` when ``bpu`` is in its constructed state.
    """
    key = _memo_key(bpu)
    if key is None:
        return _walk(packed, bpu)
    return packed.memoized(key, lambda: _walk(packed, bpu))


@hot_loop
def _walk(packed: PackedTrace, bpu: BranchPredictionUnit) -> TracePredictions:
    """Replay the direction predictor, RAS and indirect cache over ``packed``."""
    masks = _direction_masks(bpu.direction)
    initial = _direction_state(bpu.direction)
    replay = _DirectionReplay(masks, initial)
    train = replay.train
    stack = list(bpu.ras._stack)
    capacity = bpu.ras.entries
    tags = dict(bpu.indirect._tags)
    targets = dict(bpu.indirect._targets)
    indirect_mask = bpu.indirect._mask

    total = len(packed)
    predicted_takens = bytearray(total)
    predicted_targets = array("q", (BTB_TARGET,)) * total
    branch_pcs = packed.branch_pcs
    kinds = packed.kinds
    takens = packed.takens
    next_pcs = packed.next_pcs
    instruction_size = INSTRUCTION_SIZE_BYTES
    conditional, return_ = _CONDITIONAL, _RETURN
    indirect_codes = (_INDIRECT, _INDIRECT_CALL)
    call_codes = (_CALL, _INDIRECT_CALL)

    misses = conditionals = conditional_misses = 0
    pushes = pops = overflows = underflows = 0
    lookups = hits = correct = 0
    for index in range(total):
        branch_pc = branch_pcs[index]
        if branch_pc == NO_VALUE:
            continue
        code = kinds[index]
        taken = 1 if takens[index] else 0
        if code == conditional:
            conditionals += 1
            predicted = train(branch_pc, taken)
            predicted_takens[index] = predicted
            if predicted != taken:
                misses += 1
                conditional_misses += 1
            continue
        # Every other branch (a kindless one too) is predicted taken.
        predicted_takens[index] = 1
        if not taken:
            misses += 1
        if code == return_:
            # The RAS predicts by peeking; resolution pops the same entry.
            pops += 1
            if stack:
                predicted_targets[index] = stack.pop()
            else:
                underflows += 1
                predicted_targets[index] = NO_VALUE
            continue
        if code in indirect_codes:
            lookups += 1
            slot = (branch_pc >> 2) & indirect_mask
            next_pc = next_pcs[index]
            if tags.get(slot) == branch_pc:
                hits += 1
                target = targets[slot]
                predicted_targets[index] = target
                if target == next_pc:
                    correct += 1
            else:
                predicted_targets[index] = NO_VALUE
            tags[slot] = branch_pc
            targets[slot] = next_pc
        if code in call_codes:
            pushes += 1
            if len(stack) >= capacity:
                # Circular overwrite: the oldest entry is lost.
                overflows += 1
                stack.pop(0)
            stack.append(branch_pc + instruction_size)

    return TracePredictions(
        predicted_takens,
        predicted_targets,
        misses,
        (branch_pcs, kinds, takens),
        masks,
        initial,
        replay.state(),
        (conditionals, conditional_misses),
        (array("q", stack), pushes, pops, overflows, underflows),
        (
            array("q", tags.keys()),
            array("q", tags.values()),
            array("q", (targets[slot] for slot in tags)),
            lookups,
            hits,
            correct,
        ),
    )


@hot_loop
def _runahead_stops(predictions: TracePredictions, depth: int) -> Stops:
    """Build :meth:`TracePredictions.runahead_stops` for one depth."""
    branch_pcs, kinds, takens = predictions._columns
    replay = _DirectionReplay(predictions._masks, predictions._initial)
    predict = replay.predict
    train = replay.train
    total = len(branch_pcs)
    last = total - 1
    conditional = _CONDITIONAL
    stops: Stops = bytearray(total) if depth < 256 else array("I", bytes(4 * total))
    for index in range(total):
        stop = depth
        for position in range(index, min(index + depth, last)):
            branch_pc = branch_pcs[position]
            if (
                kinds[position] == conditional
                and branch_pc != NO_VALUE
                and predict(branch_pc) != bool(takens[position])
            ):
                stop = position - index
                break
        stops[index] = stop
        branch_pc = branch_pcs[index]
        if kinds[index] == conditional and branch_pc != NO_VALUE:
            train(branch_pc, 1 if takens[index] else 0)
    return stops
