"""The ``scalar`` backend: zero-allocation columnar hot loop.

This is the production simulation path (and :data:`~repro.backends.base.DEFAULT_BACKEND`).
It walks the trace's packed structure-of-arrays form directly — no
:class:`~repro.workloads.trace.FetchRecord` objects, no per-region allocation
— and is pinned bit-exact against the ``reference`` backend by the parity
suite.  The loop body is covered by staticcheck rule R001 through the
``@hot_loop`` marker: comprehensions, container displays and constructor
calls inside the loop are build errors, not review comments.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.backends.base import BACKEND_REGISTRY, SimBackend, get_backend
from repro.branch.prediction_pass import BTB_TARGET, replays, trace_predictions
from repro.branch.unit import PredictionSlot
from repro.core.frontend import FrontendResult
from repro.isa.instruction import BLOCK_SIZE_BYTES
from repro.prefetch.base import NullPrefetcher, PrefetchContext
from repro.staticcheck.markers import hot_loop
from repro.workloads.packed import KIND_CODES, NO_VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.frontend import FrontendSimulator
    from repro.workloads.trace import Trace


@BACKEND_REGISTRY.register("scalar")
class ScalarBackend(SimBackend):
    """Columnar fast loop: one pass over the packed arrays, no records."""

    name = "scalar"
    trace_form = "columnar (.packed)"

    def consumes(self, trace: "Trace") -> bool:
        return getattr(trace, "packed", None) is not None

    @hot_loop
    def run(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> FrontendResult:
        """Simulate ``trace``; statistics cover the post-warmup portion.

        Directions and RAS/indirect targets come from the trace's memoized
        prediction pass (:mod:`repro.branch.prediction_pass`), whose end
        state is installed after the loop; the loop runs the BTB, the L1-I
        and the prefetcher in the ``reference`` backend's order, so results
        are bit-identical.  It is *allocation-free*: one reusable
        :class:`~repro.branch.unit.PredictionSlot` takes every BTB lookup,
        one :class:`~repro.prefetch.base.PrefetchContext` is mutated per
        region, and designs with no prefetcher or a perfect L1-I skip that
        machinery.  A unit the pass cannot replay runs on ``reference``.
        """
        bpu = simulator.bpu
        if not replays(bpu):
            return get_backend("reference").run(simulator, trace, warmup)
        packed = trace.packed
        predictions = trace_predictions(packed, bpu)
        total = len(packed)
        warmup_boundary = int(total * warmup)
        result = FrontendResult(design=simulator.design_name, workload=trace.name)

        config = simulator.config
        base_cpi = config.base_cpi
        misfetch_penalty = config.misfetch_penalty_cycles
        direction_penalty = config.direction_mispredict_penalty_cycles
        llc_latency = simulator.llc.round_trip_latency_cycles
        demand_penalty = (
            simulator.confluence.demand_fill_penalty_cycles
            if simulator.confluence is not None
            else 0
        )
        perfect = simulator.perfect_l1i
        btb_lookup_into = bpu.btb.lookup_into
        btb_update = bpu.btb.update
        l1i = simulator.l1i
        l1i_access = l1i.access
        l1i_fill = l1i.fill
        l1i_contains = l1i.contains
        llc_fetch = simulator.llc.fetch_instruction_block
        prefetcher = simulator.prefetcher
        prefetch_targets = prefetcher.prefetch_targets
        max_lead = prefetcher.max_lead_cycles
        inflight = simulator._inflight
        cycle = simulator._cycle

        # The one BTB-lookup scratch the whole loop writes into, and — for
        # designs that prefetch at all — the one context the prefetcher sees
        # (index/cycle/demand_miss_block are rewritten per iteration).  A
        # plain NullPrefetcher never observes anything, so its designs skip
        # the context and the target loop altogether (a subclass overriding
        # ``prefetch_targets`` still gets called).
        slot = PredictionSlot()
        null_prefetch = type(prefetcher) is NullPrefetcher
        context = None if null_prefetch else PrefetchContext(
            records=trace.records,  # lazy view, handed to custom prefetchers
            index=0,
            cycle=0,
            l1i=l1i,
            bpu=bpu,
            demand_miss_block=None,
            packed=packed,
            predictions=predictions,
        )

        instruction_counts = packed.instruction_counts
        branch_pcs = packed.branch_pcs
        kinds = packed.kinds
        takens = packed.takens
        target_col = packed.targets
        next_pcs = packed.next_pcs
        block_firsts = packed.block_firsts
        block_counts = packed.block_counts
        predicted_takens = predictions.predicted_takens
        predicted_targets = predictions.predicted_targets
        block_size = BLOCK_SIZE_BYTES
        kind_table = KIND_CODES
        misfetches = 0

        for index in range(total):
            count = instruction_counts[index]
            branch_pc = branch_pcs[index]
            taken = bool(takens[index])

            # --- branch prediction (a branchless region predicts nothing) ---
            btb_bubble = 0
            misfetch = direction_miss = False
            if branch_pc != NO_VALUE:
                btb_lookup_into(slot, branch_pc, taken=taken)
                if slot.btb_hit and slot.btb_latency_cycles > 1:
                    btb_bubble = slot.btb_latency_cycles - 1
                predicted_taken = predicted_takens[index]
                if taken and predicted_taken:
                    predicted_target = predicted_targets[index]
                    if predicted_target == BTB_TARGET:
                        predicted_target = slot.btb_target
                    misfetch = not slot.btb_hit or predicted_target != next_pcs[index]
                    misfetches += misfetch
                else:
                    direction_miss = taken != bool(predicted_taken)

            # --- instruction fetch ------------------------------------------
            fetch_stall = 0
            demand_miss_block: Optional[int] = None
            prefetch_hits = 0
            misses = 0
            accesses = block_counts[index]
            if not perfect:
                first = block_firsts[index]
                stop = first + accesses * block_size
                for block in range(first, stop, block_size):
                    if l1i_access(block):
                        if inflight:
                            ready = inflight.pop(block, None)
                            if ready is not None:
                                remaining = max(0.0, ready - cycle)
                                if max_lead is not None:
                                    remaining = max(remaining, llc_latency - max_lead)
                                fetch_stall += int(round(remaining))
                                prefetch_hits += 1
                        continue
                    misses += 1
                    demand_miss_block = block if demand_miss_block is None else demand_miss_block
                    fetch_stall += llc_latency + demand_penalty
                    llc_fetch(block)
                    l1i_fill(block, demand=True)

            # --- cycle accounting -------------------------------------------
            cycle += count * base_cpi
            if misfetch:
                cycle += misfetch_penalty
            if direction_miss:
                cycle += direction_penalty
            cycle += btb_bubble + fetch_stall

            # --- prefetching ------------------------------------------------
            issued = 0
            if not null_prefetch:
                context.index = index
                context.cycle = cycle
                context.demand_miss_block = demand_miss_block
                for target in prefetch_targets(context):
                    if perfect:
                        break
                    if l1i_contains(target) or target in inflight:
                        continue
                    inflight[target] = cycle + llc_latency
                    llc_fetch(target)
                    l1i_fill(target, demand=False)
                    issued += 1

            # --- BTB training -----------------------------------------------
            if branch_pc != NO_VALUE:
                # A branch may carry no kind: -1 decodes to None, never wraps.
                code = kinds[index]
                raw_target = target_col[index]
                btb_update(branch_pc, kind_table[code] if code >= 0 else None,
                           raw_target if raw_target != NO_VALUE else None, taken)

            if index < warmup_boundary:
                continue
            result.instructions += count
            result.fetch_regions += 1
            result.base_cycles += count * base_cpi
            result.misfetch_stall_cycles += misfetch_penalty if misfetch else 0
            result.direction_stall_cycles += direction_penalty if direction_miss else 0
            result.btb_latency_stall_cycles += btb_bubble
            result.l1i_stall_cycles += fetch_stall
            result.misfetches += int(misfetch)
            if branch_pc != NO_VALUE and taken:
                result.btb_taken_lookups += 1
                if not slot.btb_hit:
                    result.btb_taken_misses += 1
            if branch_pc != NO_VALUE and slot.btb_level == "l2":
                result.second_level_accesses += 1
            result.l1i_accesses += accesses
            result.l1i_misses += misses
            result.l1i_prefetch_hits += prefetch_hits
            result.direction_mispredictions += int(direction_miss)
            result.prefetches_issued += issued

        predictions.install(bpu)
        bpu.misfetches += misfetches
        simulator._cycle = cycle
        simulator._finalize(result)
        return result
