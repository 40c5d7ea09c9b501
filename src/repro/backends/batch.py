"""The ``batch`` backend: N cores simulated as numpy lanes in lockstep.

With no prefetcher and no Confluence, timing never feeds back into
architectural state: the BTB, direction predictor, RAS, indirect cache and
L1-I each see exactly the sequence of accesses the trace dictates, regardless
of what the cycle counter says.  The simulation therefore *factorizes* into
independent per-component passes over the packed columns, and several cores
("lanes") can ride through the vectorized passes together:

* **BTB pass** (per lane, sequential): insertion-ordered dicts model true
  LRU; payloads are small integer tokens so the pass never builds
  :class:`~repro.branch.btb_base.BTBEntry` objects mid-flight.
* **Direction pass** (lanes concatenated): 2-bit saturating-counter trains
  are associative under composition, so a segmented Hillis-Steele scan over
  (slot-sorted) events yields every pre-update counter value at once.  The
  gshare history is a 12-bit sliding window — twelve shifted adds.
* **L1-I pass** (lanes concatenated): blocks are bucketed by cache set and
  replayed set-lockstep — round ``t`` touches the ``t``-th access of every
  set at once — in the ``@hot_loop`` kernel :func:`_lockstep_rounds`.
* **RAS / indirect passes** (per lane, sparse): sequential over only the
  call/return/indirect events.

Every pass works on *copies* of the component state and the results are
written back only in :meth:`_Lane.finish`, after all passes succeeded — a
failure mid-run leaves the simulator untouched.  The ``scalar`` backend is
the bit-exact oracle: for any simulator where :meth:`BatchBackend.vectorizes`
is False, :meth:`BatchBackend.run` simply delegates to it.

This backend needs numpy, and it is the only module in the library that
imports it: not at import time, but when :func:`get_backend` first builds
a :class:`BatchBackend`, so ``import repro`` and every other backend never
load numpy, while a batch sweep still loads it once in the parent before the
pool forks.  The backend registers unconditionally so ``python -m repro
backends`` can list it with an annotation; running it without numpy raises
a :class:`ValueError` naming the missing dependency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

from repro.backends.base import BACKEND_REGISTRY, SimBackend, get_backend
from repro.branch.btb_base import BTBEntry
from repro.branch.btb_conventional import ConventionalBTB
from repro.branch.direction import HybridDirectionPredictor
from repro.branch.indirect import IndirectTargetCache
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchPredictionUnit
from repro.caches.l1i import InstructionCache
from repro.caches.llc import SharedLLC
from repro.core.frontend import FrontendResult
from repro.isa.instruction import BLOCK_SIZE_BYTES, INSTRUCTION_SIZE_BYTES
from repro.prefetch.base import NullPrefetcher
from repro.staticcheck.markers import hot_loop
from repro.workloads.packed import KIND_CODES, NO_VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.frontend import FrontendSimulator
    from repro.workloads.trace import Trace

#: The numpy module, bound by the first :class:`BatchBackend` built with
#: numpy installed; every pass below runs only after that.
np: Any = None

#: Branch-kind codes the passes test against (indices into KIND_CODES).
_CODE_CONDITIONAL = 0
_CODE_CALL = 2
_CODE_INDIRECT = 3
_CODE_INDIRECT_CALL = 4
_CODE_RETURN = 5

# --------------------------------------------------------------------------- #
# 2-bit saturating counters as composable transforms
# --------------------------------------------------------------------------- #
# A counter train is a map {0..3} -> {0..3}; packed base-4 into one byte it
# becomes an index into precomputed composition/application tables, so a
# whole segment of trains collapses into a single byte via a parallel scan.

_TRANSFORM_ID = 0 + 4 * 1 + 16 * 2 + 64 * 3  # identity: [0, 1, 2, 3]
_TRANSFORM_UP = 1 + 4 * 2 + 16 * 3 + 64 * 3  # train taken: [1, 2, 3, 3]
_TRANSFORM_DOWN = 0 + 4 * 0 + 16 * 1 + 64 * 2  # train not-taken: [0, 0, 1, 2]

_tables: Optional[Tuple[Any, Any]] = None


def _transform_tables() -> Tuple[Any, Any]:
    """(COMPOSE, UNPACK): ``COMPOSE[a, b] = a∘b`` (b first), ``UNPACK[f, s] = f(s)``."""
    global _tables
    if _tables is None:
        codes = np.arange(256)
        unpack = np.zeros((256, 4), dtype=np.uint8)
        for state in range(4):
            unpack[:, state] = (codes >> (2 * state)) & 3
        compose = np.zeros((256, 256), dtype=np.uint8)
        rows = codes[:, None]
        for state in range(4):
            compose |= unpack[rows, unpack[:, state][None, :]] << (2 * state)
        _tables = (compose, unpack)
    return _tables


def _segmented_scan(
    slots: Any, transforms: Any, init_counters: Any
) -> Tuple[Any, Any, Any]:
    """Apply per-slot transform sequences; return pre-values and finals.

    ``slots[i]`` names the counter event ``i`` touches, ``transforms[i]`` the
    packed train it applies, ``init_counters`` the warm counter values.
    Returns ``(before, final_slots, final_vals)`` where ``before[i]`` is the
    counter value event ``i`` observed (pre-update, in event order) and the
    finals give each touched slot's post-run value.
    """
    compose, unpack = _transform_tables()
    events = len(slots)
    if events == 0:
        empty_u8 = np.zeros(0, dtype=np.uint8)
        return empty_u8, np.zeros(0, dtype=np.int64), empty_u8
    order = np.argsort(slots, kind="stable")
    sorted_slots = slots[order]
    inclusive = transforms[order].copy()
    segment_start = np.empty(events, dtype=bool)
    segment_start[0] = True
    segment_start[1:] = sorted_slots[1:] != sorted_slots[:-1]
    segment_id = np.cumsum(segment_start) - 1
    distance = 1
    while distance < events:
        previous = np.empty(events, dtype=np.uint8)
        previous[:distance] = _TRANSFORM_ID
        previous[distance:] = inclusive[:-distance]
        same = np.zeros(events, dtype=bool)
        same[distance:] = segment_id[distance:] == segment_id[:-distance]
        inclusive = np.where(same, compose[inclusive, previous], inclusive)
        distance *= 2
    exclusive = np.empty(events, dtype=np.uint8)
    exclusive[0] = _TRANSFORM_ID
    exclusive[1:] = inclusive[:-1]
    exclusive[segment_start] = _TRANSFORM_ID
    init_sorted = init_counters[sorted_slots]
    before = np.empty(events, dtype=np.uint8)
    before[order] = unpack[exclusive, init_sorted]
    segment_end = np.empty(events, dtype=bool)
    segment_end[:-1] = segment_start[1:]
    segment_end[-1] = True
    final_slots = sorted_slots[segment_end]
    final_vals = unpack[inclusive[segment_end], init_counters[final_slots]]
    return before, final_slots, final_vals


# --------------------------------------------------------------------------- #
# L1-I set-lockstep kernel
# --------------------------------------------------------------------------- #


@hot_loop
def _lockstep_rounds(
    group_ids: Any,
    group_starts: Any,
    group_sizes: Any,
    sorted_blocks: Any,
    tags: Any,
    recency: Any,
    hit_out: Any,
    rounds: int,
) -> None:
    """Replay every cache set's access stream, one round per LRU step.

    Round ``t`` resolves the ``t``-th access of every still-active set at
    once: a vectorized tag compare, then LRU victim selection for the misses.
    ``tags``/``recency`` are the preallocated per-set way arrays (mutated in
    place); ``hit_out`` receives the per-access outcome on the sorted axis.
    R001 polices this loop: numpy calls that would allocate a fresh array per
    round must go through preallocated buffers via ``out=``.
    """
    equal_buffer = np.empty(tags.shape, dtype=bool)
    for current in range(rounds):
        active = group_sizes > current
        rows = group_ids[active]
        events = group_starts[active] + current
        keys = sorted_blocks[events]
        row_tags = tags[rows]
        equal = equal_buffer[: len(rows)]
        np.equal(row_tags, keys.reshape(-1, 1), out=equal)
        hit = equal.any(axis=1)
        hit_out[events] = hit
        ways = equal.argmax(axis=1)
        missed = ~hit
        ways[missed] = recency[rows].argmin(axis=1)[missed]
        tags[rows, ways] = keys
        recency[rows, ways] = current


# --------------------------------------------------------------------------- #
# Per-lane state and passes
# --------------------------------------------------------------------------- #

#: Warm recency values: occupied ways count up to -1 (oldest most negative);
#: empty ways sit far below so they are always filled before any eviction.
_EMPTY_WAY_RECENCY = -(1 << 40)


class _Lane:
    """One simulator+trace pair riding through the vectorized passes."""

    def __init__(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> None:
        self.simulator = simulator
        self.trace = trace
        packed = trace.packed
        self.total = len(packed)
        self.boundary = int(self.total * warmup)

        self.counts = np.frombuffer(packed.instruction_counts, dtype=np.int32)
        self.block_firsts = np.frombuffer(packed.block_firsts, dtype=np.int64)
        self.block_counts = np.frombuffer(packed.block_counts, dtype=np.int32)
        pcs = np.frombuffer(packed.branch_pcs, dtype=np.int64)
        kinds = np.frombuffer(packed.kinds, dtype=np.int8)
        takens = np.frombuffer(packed.takens, dtype=np.int8)
        targets = np.frombuffer(packed.targets, dtype=np.int64)
        next_pcs = np.frombuffer(packed.next_pcs, dtype=np.int64)

        # The event axis: branch-terminated regions only.  Branchless regions
        # contribute nothing to any predictor (the unit returns before
        # touching one) beyond the per-region prediction count.
        self.event_regions = np.flatnonzero(pcs != NO_VALUE)
        self.ev_pc = pcs[self.event_regions]
        self.ev_code = kinds[self.event_regions]
        self.ev_taken = takens[self.event_regions] != 0
        self.ev_target = targets[self.event_regions]
        self.ev_next = next_pcs[self.event_regions]
        self.ev_fallthrough = self.ev_pc + INSTRUCTION_SIZE_BYTES
        self.events = len(self.event_regions)
        # Insert policy (mirrors ConventionalBTB.update): taken branches and
        # unconditional kinds allocate; a kindless not-taken branch would
        # crash the scalar oracle, so it cannot occur in a consumable trace.
        self.ev_insert = self.ev_taken | (self.ev_code >= 1)
        self.cond_mask = self.ev_code == _CODE_CONDITIONAL

        # Pass outputs, filled in by run_lanes.
        self.btb_hit: Any = None
        self.btb_target: Any = None
        self.ret_peek: Any = None
        self.indirect_pred: Any = None
        self.cond_pred: Any = None
        self.l1i_hit_blocks: Any = None
        self.l1i_region_of_block: Any = None
        self.l1i_evictions = 0
        self.l1i_final_sets: List[List[Tuple[int, object]]] = []
        self._btb_outcome: Any = None
        self._btb_writeback: Any = None
        self._ras_writeback: Any = None
        self._indirect_writeback: Any = None
        self._gshare_finals: Any = None
        self._bimodal_finals: Any = None
        self._meta_finals: Any = None

    # -- BTB ---------------------------------------------------------------- #

    def btb_pass(self) -> None:
        """Sequential LRU replay of the main + victim structures.

        Payloads are integer tokens: event index ``i`` for an entry written
        by event ``i``, ``-(j + 1)`` for the ``j``-th warm (pre-existing)
        payload.  Dict insertion order doubles as LRU order, exactly like
        :class:`~repro.caches.sram.SetAssociativeCache`'s OrderedDicts.
        """
        btb = self.simulator.bpu.btb
        assert isinstance(btb, ConventionalBTB)
        main = btb._main
        set_count = main.sets
        set_mask = set_count - 1
        index_shift = main.index_shift
        ways = main.ways
        victim = btb._victim
        victim_ways = victim.ways if victim is not None else 0

        warm_payloads: List[object] = []
        main_state: List[Dict[int, int]] = []
        for storage in main._storage:
            tokens: Dict[int, int] = {}
            for key, payload in storage.items():
                tokens[key] = -(len(warm_payloads) + 1)
                warm_payloads.append(payload)
            main_state.append(tokens)
        victim_state: Optional[Dict[int, int]] = None
        if victim is not None:
            victim_state = {}
            for key, payload in victim._storage[0].items():
                victim_state[key] = -(len(warm_payloads) + 1)
                warm_payloads.append(payload)

        events = self.events
        pcs = self.ev_pc.tolist()
        sets = ((self.ev_pc >> index_shift) & set_mask).tolist()
        inserts = self.ev_insert.tolist()
        outcome = bytearray(events)  # 0 miss, 1 main hit, 2 victim hit
        token_of = [0] * events
        main_insertions = main_evictions = 0
        victim_insertions = victim_evictions = promotions = 0

        for i in range(events):
            pc = pcs[i]
            bucket = main_state[sets[i]]
            token = bucket.get(pc)
            if token is not None:
                outcome[i] = 1
                del bucket[pc]
                bucket[pc] = i if inserts[i] else token
                token_of[i] = token
                continue
            if victim_state is not None:
                token = victim_state.get(pc)
                if token is not None:
                    del victim_state[pc]
                    if len(bucket) >= ways:
                        old = next(iter(bucket))
                        old_token = bucket.pop(old)
                        main_evictions += 1
                        if old in victim_state:
                            # Mirrors insert()'s refresh path; unreachable
                            # while main and victim stay disjoint.
                            del victim_state[old]
                            victim_state[old] = old_token
                        else:
                            if len(victim_state) >= victim_ways:
                                del victim_state[next(iter(victim_state))]
                                victim_evictions += 1
                            victim_state[old] = old_token
                            victim_insertions += 1
                    bucket[pc] = i if inserts[i] else token
                    main_insertions += 1
                    promotions += 1
                    outcome[i] = 2
                    token_of[i] = token
                    continue
            if inserts[i]:
                if len(bucket) >= ways:
                    old = next(iter(bucket))
                    old_token = bucket.pop(old)
                    main_evictions += 1
                    if victim_state is not None:
                        if old in victim_state:
                            del victim_state[old]
                            victim_state[old] = old_token
                        else:
                            if len(victim_state) >= victim_ways:
                                del victim_state[next(iter(victim_state))]
                                victim_evictions += 1
                            victim_state[old] = old_token
                            victim_insertions += 1
                bucket[pc] = i
                main_insertions += 1

        outcome_arr = np.frombuffer(bytes(outcome), dtype=np.uint8)
        tokens_arr = np.asarray(token_of, dtype=np.int64)
        self._btb_outcome = outcome_arr
        self.btb_hit = outcome_arr != 0
        target = np.full(events, NO_VALUE, dtype=np.int64)
        if events:
            warm_targets = np.asarray(
                [
                    payload.target
                    if isinstance(payload, BTBEntry) and payload.target is not None
                    else NO_VALUE
                    for payload in warm_payloads
                ]
                + [NO_VALUE],
                dtype=np.int64,
            )
            fresh = self.btb_hit & (tokens_arr >= 0)
            target[fresh] = self.ev_target[tokens_arr[fresh]]
            warm = self.btb_hit & (tokens_arr < 0)
            target[warm] = warm_targets[-tokens_arr[warm] - 1]
        self.btb_target = target

        self._btb_writeback = (
            main_state,
            victim_state,
            warm_payloads,
            main_insertions,
            main_evictions,
            victim_insertions,
            victim_evictions,
            promotions,
        )

    def _btb_entry_for(self, token: int, warm_payloads: List[object]) -> object:
        if token < 0:
            return warm_payloads[-token - 1]
        code = int(self.ev_code[token])
        raw_target = int(self.ev_target[token])
        return BTBEntry(
            branch_pc=int(self.ev_pc[token]),
            kind=KIND_CODES[code] if code >= 0 else None,  # type: ignore[arg-type]
            target=raw_target if raw_target != NO_VALUE else None,
        )

    # -- RAS ---------------------------------------------------------------- #

    def ras_pass(self) -> None:
        """Sequential replay of call pushes and return peek/pops."""
        ras = self.simulator.bpu.ras
        stack = list(ras._stack)
        capacity = ras.entries
        pushes = pops = overflows = underflows = 0
        peeks = np.full(self.events, NO_VALUE, dtype=np.int64)
        touched = np.flatnonzero(
            (self.ev_code == _CODE_CALL)
            | (self.ev_code == _CODE_INDIRECT_CALL)
            | (self.ev_code == _CODE_RETURN)
        )
        codes = self.ev_code[touched].tolist()
        fallthroughs = self.ev_fallthrough[touched].tolist()
        for position, event in enumerate(touched.tolist()):
            if codes[position] == _CODE_RETURN:
                # predict peeks before resolve pops, within the same event.
                if stack:
                    peeks[event] = stack[-1]
                    stack.pop()
                else:
                    underflows += 1
                pops += 1
            else:
                pushes += 1
                if len(stack) >= capacity:
                    overflows += 1
                    stack.pop(0)
                stack.append(fallthroughs[position])
        self.ret_peek = peeks
        self._ras_writeback = (stack, pushes, pops, overflows, underflows)

    # -- Indirect target cache ---------------------------------------------- #

    def indirect_pass(self) -> None:
        """Sequential predict-then-update replay of the indirect cache."""
        indirect = self.simulator.bpu.indirect
        tags = dict(indirect._tags)
        targets = dict(indirect._targets)
        mask = indirect._mask
        hits = correct = 0
        predictions = np.full(self.events, NO_VALUE, dtype=np.int64)
        touched = np.flatnonzero(
            (self.ev_code == _CODE_INDIRECT) | (self.ev_code == _CODE_INDIRECT_CALL)
        )
        pcs = self.ev_pc[touched].tolist()
        next_pcs = self.ev_next[touched].tolist()
        for position, event in enumerate(touched.tolist()):
            pc = pcs[position]
            slot = (pc >> 2) & mask
            if tags.get(slot) == pc:
                hits += 1
                predicted = targets.get(slot)
                if predicted is not None:
                    predictions[event] = predicted
                    correct += predicted == next_pcs[position]
            tags[slot] = pc
            targets[slot] = next_pcs[position]
        self.indirect_pred = predictions
        self._indirect_writeback = (tags, targets, len(touched), hits, correct)

    # -- Finish: write state and stats back, build the result ---------------- #

    def finish(self) -> FrontendResult:
        simulator = self.simulator
        bpu = simulator.bpu
        btb = bpu.btb
        assert isinstance(btb, ConventionalBTB)
        boundary = self.boundary
        post_event = self.event_regions >= boundary

        # --- BTB state + stats --------------------------------------------- #
        (
            main_state,
            victim_state,
            warm_payloads,
            main_insertions,
            main_evictions,
            victim_insertions,
            victim_evictions,
            promotions,
        ) = self._btb_writeback
        for index, tokens in enumerate(main_state):
            rebuilt: "OrderedDict[int, object]" = OrderedDict()
            for key, token in tokens.items():
                rebuilt[key] = self._btb_entry_for(token, warm_payloads)
            btb._main._storage[index] = rebuilt
        if btb._victim is not None and victim_state is not None:
            rebuilt_victim: "OrderedDict[int, object]" = OrderedDict()
            for key, token in victim_state.items():
                rebuilt_victim[key] = self._btb_entry_for(token, warm_payloads)
            btb._victim._storage[0] = rebuilt_victim

        events = self.events
        taken_count = int(self.ev_taken.sum())
        hit = self.btb_hit
        taken_misses = int((self.ev_taken & ~hit).sum())
        not_taken_misses = int((~self.ev_taken & ~hit).sum())
        btb.stats.lookups += events
        btb.stats.taken_lookups += taken_count
        btb.stats.taken_misses += taken_misses
        btb.stats.not_taken_lookups += events - taken_count
        btb.stats.not_taken_misses += not_taken_misses
        btb.stats.insertions += int(self.ev_insert.sum())
        main_hits = int((self._btb_outcome == 1).sum())
        btb._main.stats.lookups += events
        btb._main.stats.hits += main_hits
        btb._main.stats.misses += events - main_hits
        btb._main.stats.insertions += main_insertions
        btb._main.stats.evictions += main_evictions
        if btb._victim is not None:
            victim_lookups = events - main_hits
            btb._victim.stats.lookups += victim_lookups
            btb._victim.stats.hits += promotions
            btb._victim.stats.misses += victim_lookups - promotions
            btb._victim.stats.insertions += victim_insertions
            btb._victim.stats.evictions += victim_evictions

        # --- RAS ------------------------------------------------------------ #
        stack, pushes, pops, overflows, underflows = self._ras_writeback
        ras = bpu.ras
        ras._stack = stack
        ras.pushes += pushes
        ras.pops += pops
        ras.overflows += overflows
        ras.underflows += underflows

        # --- Indirect target cache ------------------------------------------ #
        tags, targets, indirect_lookups, indirect_hits, indirect_correct = self._indirect_writeback
        indirect = bpu.indirect
        indirect._tags = tags
        indirect._targets = targets
        indirect.lookups += indirect_lookups
        indirect.hits += indirect_hits
        indirect.correct += indirect_correct

        # --- Prediction/misfetch accounting --------------------------------- #
        predicted_taken = np.ones(events, dtype=bool)
        predicted_taken[self.cond_mask] = self.cond_pred
        predicted_target = self.btb_target.copy()
        is_return = self.ev_code == _CODE_RETURN
        predicted_target[is_return] = self.ret_peek[is_return]
        is_indirect = (self.ev_code == _CODE_INDIRECT) | (
            self.ev_code == _CODE_INDIRECT_CALL
        )
        predicted_target[is_indirect] = self.indirect_pred[is_indirect]
        not_taken_pred = ~predicted_taken
        predicted_target[not_taken_pred] = self.ev_fallthrough[not_taken_pred]
        misfetch = (
            self.ev_taken
            & predicted_taken
            & (~hit | (predicted_target != self.ev_next))
        )
        direction_miss = predicted_taken != self.ev_taken

        bpu.predictions += self.total
        bpu.misfetches += int(misfetch.sum())
        bpu.direction_mispredictions += int(direction_miss.sum())

        direction = bpu.direction
        cond_count = int(self.cond_mask.sum())
        direction.predictions += cond_count
        cond_taken = self.ev_taken[self.cond_mask]
        direction.mispredictions += int((self.cond_pred != cond_taken).sum())

        # --- L1-I state + stats --------------------------------------------- #
        config = simulator.config
        llc_latency = simulator.llc.round_trip_latency_cycles
        post_l1i_misses = 0
        if not simulator.perfect_l1i and self.l1i_hit_blocks is not None:
            l1i = simulator.l1i
            miss_mask = ~self.l1i_hit_blocks
            total_misses = int(miss_mask.sum())
            total_blocks = len(self.l1i_hit_blocks)
            miss_regions = np.bincount(
                self.l1i_region_of_block[miss_mask], minlength=self.total
            )
            post_l1i_misses = int(miss_regions[boundary:].sum())
            l1i.stats.lookups += total_blocks
            l1i.stats.hits += total_blocks - total_misses
            l1i.stats.misses += total_misses
            l1i.stats.insertions += total_misses
            l1i.stats.evictions += self.l1i_evictions
            l1i.demand_fills += total_misses
            simulator.llc.instruction_reads += total_misses
            for index, entries in enumerate(self.l1i_final_sets):
                rebuilt_set: "OrderedDict[int, object]" = OrderedDict()
                for key, payload in entries:
                    rebuilt_set[key] = payload
                l1i._cache._storage[index] = rebuilt_set

        # --- Direction table/history writeback ------------------------------- #
        self._direction_writeback()

        # --- The measured result --------------------------------------------- #
        result = FrontendResult(design=simulator.design_name, workload=self.trace.name)
        result.instructions = int(self.counts[boundary:].sum())
        result.fetch_regions = self.total - boundary
        result.base_cycles = float(result.instructions * int(config.base_cpi))
        result.misfetches = int((misfetch & post_event).sum())
        result.misfetch_stall_cycles = (
            config.misfetch_penalty_cycles * result.misfetches
        )
        result.direction_mispredictions = int((direction_miss & post_event).sum())
        result.direction_stall_cycles = (
            config.direction_mispredict_penalty_cycles
            * result.direction_mispredictions
        )
        bubble = max(0, btb.latency_cycles - 1)
        result.btb_latency_stall_cycles = bubble * int((hit & post_event).sum())
        result.btb_taken_lookups = int((self.ev_taken & post_event).sum())
        result.btb_taken_misses = int((self.ev_taken & ~hit & post_event).sum())
        result.l1i_accesses = int(self.block_counts[boundary:].sum())
        result.l1i_misses = post_l1i_misses
        result.l1i_stall_cycles = llc_latency * post_l1i_misses
        simulator._finalize(result)
        return result

    def _direction_writeback(self) -> None:
        direction = self.simulator.bpu.direction
        for table, finals in (
            (direction.gshare._table, self._gshare_finals),
            (direction.bimodal._table, self._bimodal_finals),
            (direction._meta, self._meta_finals),
        ):
            slots, values = finals
            counters = table.counters
            for slot, value in zip(slots.tolist(), values.tolist()):
                counters[slot] = value
        gshare = direction.gshare
        history = gshare._history
        cond_taken = self.ev_taken[self.cond_mask]
        for taken in cond_taken[-gshare.history_bits :].tolist():
            history = ((history << 1) | int(taken)) & gshare._history_mask
        gshare._history = history


# --------------------------------------------------------------------------- #
# Cross-lane passes
# --------------------------------------------------------------------------- #


def _direction_pass(lanes: Sequence[_Lane]) -> None:
    """Hybrid-predictor pass over all lanes' conditional events at once.

    Lanes are concatenated on the event axis with per-lane slot offsets, so
    heterogeneous table geometries still share the three segmented scans
    (gshare, bimodal, meta).  Each lane's 12-bit gshare history is rebuilt
    from shifted adds of its own taken bits (plus the warm history's
    contribution to the first ``history_bits`` events).
    """
    slot_arrays: List[Tuple[Any, Any, Any]] = []
    g_offset = b_offset = m_offset = 0
    g_init: List[Any] = []
    b_init: List[Any] = []
    m_init: List[Any] = []
    taken_parts: List[Any] = []
    lane_events: List[int] = []
    for lane in lanes:
        direction = lane.simulator.bpu.direction
        gshare = direction.gshare
        g_table = gshare._table
        b_table = direction.bimodal._table
        m_table = direction._meta
        pcs = lane.ev_pc[lane.cond_mask]
        taken = lane.ev_taken[lane.cond_mask]
        count = len(pcs)
        lane_events.append(count)
        taken_parts.append(taken)

        bits = taken.astype(np.int64)
        history = np.zeros(count, dtype=np.int64)
        for bit in range(gshare.history_bits):
            if bit + 1 < count:
                history[bit + 1 :] |= bits[: count - bit - 1] << bit
        warm_span = min(gshare.history_bits, count)
        if warm_span:
            shifts = np.arange(warm_span, dtype=np.int64)
            history[:warm_span] |= (gshare._history << shifts) & gshare._history_mask

        g_slots = (((pcs >> 2) ^ history) & g_table.mask) + g_offset
        b_slots = ((pcs >> 2) & b_table.mask) + b_offset
        m_slots = ((pcs >> 2) & m_table.mask) + m_offset
        slot_arrays.append((g_slots, b_slots, m_slots))
        g_init.append(np.asarray(g_table.counters, dtype=np.uint8))
        b_init.append(np.asarray(b_table.counters, dtype=np.uint8))
        m_init.append(np.asarray(m_table.counters, dtype=np.uint8))
        g_offset += g_table.entries
        b_offset += b_table.entries
        m_offset += m_table.entries

    all_taken = np.concatenate(taken_parts) if taken_parts else np.zeros(0, dtype=bool)
    train = np.where(all_taken, _TRANSFORM_UP, _TRANSFORM_DOWN).astype(np.uint8)
    g_all = np.concatenate([slots[0] for slots in slot_arrays])
    b_all = np.concatenate([slots[1] for slots in slot_arrays])
    m_all = np.concatenate([slots[2] for slots in slot_arrays])
    g_before, g_fslots, g_fvals = _segmented_scan(g_all, train, np.concatenate(g_init))
    b_before, b_fslots, b_fvals = _segmented_scan(b_all, train, np.concatenate(b_init))

    g_pred = g_before >= 2
    b_pred = b_before >= 2
    g_correct = g_pred == all_taken
    b_correct = b_pred == all_taken
    meta_train = np.where(
        g_correct == b_correct,
        _TRANSFORM_ID,
        np.where(g_correct, _TRANSFORM_UP, _TRANSFORM_DOWN),
    ).astype(np.uint8)
    m_before, m_fslots, m_fvals = _segmented_scan(
        m_all, meta_train, np.concatenate(m_init)
    )
    prediction = np.where(m_before >= 2, g_pred, b_pred)

    start = 0
    g_offset = b_offset = m_offset = 0
    for lane, count in zip(lanes, lane_events):
        lane.cond_pred = prediction[start : start + count]
        start += count
        direction = lane.simulator.bpu.direction
        for finals_attr, slots, values, offset, entries in (
            ("_gshare_finals", g_fslots, g_fvals, g_offset,
             direction.gshare._table.entries),
            ("_bimodal_finals", b_fslots, b_fvals, b_offset,
             direction.bimodal._table.entries),
            ("_meta_finals", m_fslots, m_fvals, m_offset, direction._meta.entries),
        ):
            window = (slots >= offset) & (slots < offset + entries)
            setattr(lane, finals_attr, (slots[window] - offset, values[window]))
        g_offset += direction.gshare._table.entries
        b_offset += direction.bimodal._table.entries
        m_offset += direction._meta.entries


def _l1i_pass(lanes: Sequence[_Lane]) -> None:
    """Set-lockstep L1-I pass over every non-perfect lane at once.

    Each lane's block stream is bucketed into its own band of set groups;
    one :func:`_lockstep_rounds` call then replays all bands together.
    Evictions are counted analytically — a set that starts with ``occupied``
    warm blocks absorbs ``ways - occupied`` misses before evicting — and the
    final per-set contents come straight from the kernel's tag/recency state.
    """
    active = [lane for lane in lanes if not lane.simulator.perfect_l1i]
    if not active:
        return
    group_base = 0
    max_ways = 0
    group_parts: List[Any] = []
    block_parts: List[Any] = []
    lane_meta: List[Tuple[_Lane, int, int, int]] = []  # lane, base, sets, blocks
    for lane in active:
        cache = lane.simulator.l1i._cache
        sets, ways = cache.sets, cache.ways
        max_ways = max(max_ways, ways)
        expanded = lane.block_counts.astype(np.int64)
        total_blocks = int(expanded.sum())
        region_of_block = np.repeat(np.arange(lane.total), expanded)
        offsets = np.arange(total_blocks) - np.repeat(
            np.cumsum(expanded) - expanded, expanded
        )
        blocks = lane.block_firsts[region_of_block] + offsets * BLOCK_SIZE_BYTES
        groups = ((blocks >> cache.index_shift) & (sets - 1)) + group_base
        lane.l1i_region_of_block = region_of_block
        group_parts.append(groups)
        block_parts.append(blocks)
        lane_meta.append((lane, group_base, sets, total_blocks))
        group_base += sets

    groups_all = np.concatenate(group_parts)
    blocks_all = np.concatenate(block_parts)
    total = len(groups_all)
    if total == 0:
        for lane, _, _, _ in lane_meta:
            lane.l1i_hit_blocks = np.zeros(0, dtype=bool)
            lane.l1i_final_sets = [
                list(storage.items())
                for storage in lane.simulator.l1i._cache._storage
            ]
        return

    order = np.argsort(groups_all, kind="stable")
    sorted_groups = groups_all[order]
    sorted_blocks = blocks_all[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_groups[1:] != sorted_groups[:-1]
    group_starts_sparse = np.flatnonzero(boundary)
    sizes_sparse = np.diff(np.concatenate((group_starts_sparse, [total])))
    group_starts = np.zeros(group_base, dtype=np.int64)
    group_sizes = np.zeros(group_base, dtype=np.int64)
    group_starts[sorted_groups[group_starts_sparse]] = group_starts_sparse
    group_sizes[sorted_groups[group_starts_sparse]] = sizes_sparse

    # Warm seeding: occupied ways get their resident tag and a negative
    # recency preserving LRU order; empty ways sit lower still, padded
    # (nonexistent) ways get an impossible tag and a recency no round reaches.
    tags = np.full((group_base, max_ways), -2, dtype=np.int64)
    recency = np.full((group_base, max_ways), 1 << 60, dtype=np.int64)
    occupancy = np.zeros(group_base, dtype=np.int64)
    ways_of_group = np.zeros(group_base, dtype=np.int64)
    warm_payloads: List[Dict[int, object]] = []
    for lane, base, sets, _ in lane_meta:
        cache = lane.simulator.l1i._cache
        for index in range(sets):
            row = base + index
            ways_of_group[row] = cache.ways
            storage = cache._storage[index]
            occupied = len(storage)
            occupancy[row] = occupied
            for way, (key, payload) in enumerate(storage.items()):
                tags[row, way] = key
                recency[row, way] = way - occupied
            for way in range(occupied, cache.ways):
                tags[row, way] = -1
                recency[row, way] = way + _EMPTY_WAY_RECENCY
        warm_payloads.append(
            {key: payload for storage in cache._storage for key, payload in storage.items()}
        )

    hit_sorted = np.zeros(total, dtype=bool)
    rounds = int(sizes_sparse.max()) if len(sizes_sparse) else 0
    _lockstep_rounds(
        np.arange(group_base),
        group_starts,
        group_sizes,
        sorted_blocks,
        tags,
        recency,
        hit_sorted,
        rounds,
    )
    hits = np.empty(total, dtype=bool)
    hits[order] = hit_sorted

    start = 0
    for position, (lane, base, sets, total_blocks) in enumerate(lane_meta):
        lane_hits = hits[start : start + total_blocks]
        lane_groups = groups_all[start : start + total_blocks]
        lane.l1i_hit_blocks = lane_hits
        miss_per_group = np.bincount(
            lane_groups[~lane_hits] - base, minlength=sets
        )
        headroom = ways_of_group[base : base + sets] - occupancy[base : base + sets]
        lane.l1i_evictions = int(
            np.maximum(0, miss_per_group - headroom).sum()
        )
        payloads = warm_payloads[position]
        final_sets: List[List[Tuple[int, object]]] = []
        for index in range(sets):
            row = base + index
            row_recency = recency[row]
            row_tags = tags[row]
            way_order = np.argsort(row_recency, kind="stable")
            entries: List[Tuple[int, object]] = []
            for way in way_order.tolist():
                tag = int(row_tags[way])
                if tag >= 0 and row_recency[way] < (1 << 59):
                    entries.append((tag, payloads.get(tag)))
            final_sets.append(entries)
        lane.l1i_final_sets = final_sets
        start += total_blocks


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #


@BACKEND_REGISTRY.register("batch")
class BatchBackend(SimBackend):
    """Numpy lane-lockstep loop: N cores ride the vectorized passes together."""

    name = "batch"
    trace_form = "columnar (.packed)"

    def __init__(self) -> None:
        global np
        try:
            import numpy
        except ImportError:
            self._has_numpy = False
        else:
            np = numpy
            self._has_numpy = True

    def available(self) -> bool:
        return self._has_numpy

    def unavailable_reason(self) -> Optional[str]:
        if self._has_numpy:
            return None
        return "numpy is not installed"

    def _require_numpy(self) -> None:
        if not self._has_numpy:
            raise ValueError(
                "the 'batch' simulation backend requires numpy, which is not "
                "installed; install numpy or pick a pure-python alternative "
                "(e.g. the default 'scalar' simulation backend)"
            )

    def consumes(self, trace: "Trace") -> bool:
        return getattr(trace, "packed", None) is not None

    def vectorizes(self, simulator: "FrontendSimulator") -> bool:
        """Whether the factorized passes reproduce this simulator bit-exactly.

        The passes assume the stock component set (subclasses may override
        any hook the passes bypass), no prefetcher/Confluence feedback, an
        integer-valued base CPI (so vectorized summation stays exact) and no
        L1-I fill listeners.  Anything else delegates to ``scalar``.
        """
        if not self._has_numpy:
            return False
        bpu = simulator.bpu
        return (
            type(bpu) is BranchPredictionUnit
            and type(bpu.btb) is ConventionalBTB
            and type(bpu.direction) is HybridDirectionPredictor
            and type(bpu.ras) is ReturnAddressStack
            and type(bpu.indirect) is IndirectTargetCache
            and type(simulator.prefetcher) is NullPrefetcher
            and simulator.confluence is None
            and type(simulator.l1i) is InstructionCache
            and not simulator.l1i._listeners
            and simulator.l1i.config.block_bytes == BLOCK_SIZE_BYTES
            and type(simulator.llc) is SharedLLC
            and float(simulator.config.base_cpi).is_integer()
            and not simulator._inflight
        )

    def run(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> FrontendResult:
        self._require_numpy()
        if not self.vectorizes(simulator):
            # The scalar oracle handles every component combination; results
            # are identical by the parity suite, only the speed differs.
            return get_backend("scalar").run(simulator, trace, warmup)
        return self.run_lanes([simulator], [trace], [warmup])[0]

    def run_lanes(
        self,
        simulators: Sequence["FrontendSimulator"],
        traces: Sequence["Trace"],
        warmups: Sequence[float],
    ) -> List[FrontendResult]:
        """Simulate N (simulator, trace) lanes through the shared passes.

        All lanes must satisfy :meth:`vectorizes`; callers batching mixed
        designs group the vectorizable ones and run the rest via
        :meth:`run`'s scalar delegation.
        """
        self._require_numpy()
        if not (len(simulators) == len(traces) == len(warmups)):
            raise ValueError(
                f"run_lanes needs matching lane sequences, got "
                f"{len(simulators)} simulators, {len(traces)} traces, "
                f"{len(warmups)} warmups"
            )
        if not simulators:
            return []
        for simulator, trace in zip(simulators, traces):
            if not self.consumes(trace):
                raise ValueError(
                    f"backend 'batch' cannot consume trace {trace.name!r}: it "
                    f"requires the {self.trace_form} trace form"
                )
            if not self.vectorizes(simulator):
                raise ValueError(
                    f"design {simulator.design_name!r} does not vectorize; "
                    "run it through BatchBackend.run (which delegates to the "
                    "scalar oracle) instead of run_lanes"
                )
        lanes = [
            _Lane(simulator, trace, warmup)
            for simulator, trace, warmup in zip(simulators, traces, warmups)
        ]
        for lane in lanes:
            lane.btb_pass()
            lane.ras_pass()
            lane.indirect_pass()
        _direction_pass(lanes)
        _l1i_pass(lanes)
        return [lane.finish() for lane in lanes]
