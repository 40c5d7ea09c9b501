"""The backend registry and the ``SimBackend`` dispatch contract.

Parity (every backend == the reference oracle) lives in
``test_frontend_parity.py``; this file pins the plumbing around it — the
registry surface, instance memoization, the trace-form mismatch error that
replaced the old silent record-view fallback, and the extension story for
out-of-tree backends.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.backends import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    ReferenceBackend,
    ScalarBackend,
    SimBackend,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.core.designs import design_from_spec, resolve_design
from repro.registry import UnknownComponentError


class TestRegistrySurface:
    def test_builtins_are_registered(self):
        names = backend_names()
        assert "scalar" in names and "reference" in names
        assert DEFAULT_BACKEND in names

    def test_get_backend_memoizes_one_instance(self):
        assert get_backend("scalar") is get_backend("scalar")
        assert isinstance(get_backend("scalar"), ScalarBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(UnknownComponentError, match="unknown backend") as info:
            get_backend("vector9000")
        # The message must name the known backends (the CLI prints it as-is).
        assert "scalar" in str(info.value) and "reference" in str(info.value)
        assert isinstance(info.value, KeyError)  # except KeyError sites work

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            BACKEND_REGISTRY.register("scalar", ScalarBackend)

    def test_non_backend_factory_is_a_type_error(self):
        BACKEND_REGISTRY.register("broken", dict)
        try:
            with pytest.raises(TypeError, match="expected a SimBackend"):
                get_backend("broken")
        finally:
            BACKEND_REGISTRY.unregister("broken")

    def test_custom_backend_register_and_unregister(self, tiny_program, tiny_trace):
        # The extension story: subclass SimBackend, register, and the whole
        # stack (resolve, simulator dispatch) picks it up by name.
        @BACKEND_REGISTRY.register("delegating")
        class DelegatingBackend(SimBackend):
            """Toy backend that defers to the reference oracle."""

            name = "delegating"
            trace_form = "record view (.records)"

            def consumes(self, trace):
                return get_backend("reference").consumes(trace)

            def run(self, simulator, trace, warmup):
                return get_backend("reference").run(simulator, trace, warmup)

        try:
            assert "delegating" in backend_names()
            simulator, _ = design_from_spec(
                resolve_design("baseline"), tiny_program
            )
            oracle_sim, _ = design_from_spec(
                resolve_design("baseline"), tiny_program
            )
            via_custom = simulator.run(tiny_trace, backend="delegating")
            oracle = oracle_sim.run(tiny_trace, backend="reference")
            assert dataclasses.asdict(via_custom) == dataclasses.asdict(oracle)
        finally:
            BACKEND_REGISTRY.unregister("delegating")
        with pytest.raises(UnknownComponentError):
            get_backend("delegating")


class TestResolveBackend:
    def test_none_resolves_to_the_default(self):
        assert resolve_backend(None) is get_backend(DEFAULT_BACKEND)

    def test_instance_passes_through(self):
        instance = get_backend("reference")
        assert resolve_backend(instance) is instance

    def test_name_resolves_through_the_registry(self):
        assert resolve_backend("reference") is get_backend("reference")


class _RecordsOnly:
    """Trace-like object with a record view but no columnar form."""

    name = "records_only"
    packed = None

    def __init__(self, records):
        self.records = records


class TestTraceFormMismatch:
    """The satellite bugfix: no silent fallback across trace forms.

    The old loop duck-typed ``getattr(trace, "packed", None)`` and silently
    fell back to the 2x-slower record walk; now the selected backend either
    consumes the trace's form or the run raises.
    """

    def test_scalar_refuses_a_records_only_trace(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec(resolve_design("baseline"), tiny_program)
        fake = _RecordsOnly(tiny_trace.records)
        with pytest.raises(ValueError, match="cannot consume trace"):
            simulator.run(fake, backend="scalar")

    def test_the_error_names_the_required_form(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec(resolve_design("baseline"), tiny_program)
        with pytest.raises(ValueError, match=r"columnar \(\.packed\)"):
            simulator.run(_RecordsOnly(tiny_trace.records), backend="scalar")

    def test_reference_consumes_the_same_object(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec(resolve_design("baseline"), tiny_program)
        oracle_sim, _ = design_from_spec(resolve_design("baseline"), tiny_program)
        fake = _RecordsOnly(tiny_trace.records)
        fake.name = tiny_trace.name  # results carry the workload name
        via_fake = simulator.run(fake, backend="reference")
        oracle = oracle_sim.run(tiny_trace, backend="reference")
        assert dataclasses.asdict(via_fake) == dataclasses.asdict(oracle)

    def test_consumes_predicates(self, tiny_trace):
        fake = _RecordsOnly(tiny_trace.records)
        assert get_backend("reference").consumes(fake)
        assert not get_backend("scalar").consumes(fake)
        assert get_backend("scalar").consumes(tiny_trace)
        assert get_backend("reference").consumes(tiny_trace)


class TestSimulatorBackendKnob:
    def test_constructor_backend_is_the_run_default(self, tiny_program, tiny_trace):
        spec = resolve_design("baseline")
        default_sim, _ = design_from_spec(spec, tiny_program)
        oracle = default_sim.run(tiny_trace, backend="reference")

        pinned_sim, _ = design_from_spec(spec, tiny_program)
        pinned_sim.backend = "reference"
        assert dataclasses.asdict(pinned_sim.run(tiny_trace)) == (
            dataclasses.asdict(oracle)
        )

    def test_run_argument_overrides_the_constructor(self, tiny_program, tiny_trace):
        spec = resolve_design("baseline")
        simulator, _ = design_from_spec(spec, tiny_program)
        simulator.backend = "scalar"
        fake = _RecordsOnly(tiny_trace.records)
        # The per-run override wins: reference consumes what scalar cannot.
        result = simulator.run(fake, backend="reference")
        assert result.fetch_regions > 0


class TestNumpyStaysOptional:
    """numpy is loaded by the ``batch`` backend and by nothing else."""

    SCRIPT = textwrap.dedent("""
        import json, sys
        import repro, repro.__main__, repro.analysis
        from repro.analysis.experiments import branch_density_table
        from repro.backends import get_backend
        from repro.workloads import generate_trace, get_profile, synthesize_program

        get_backend("scalar")
        program = synthesize_program(get_profile("oltp_db2").scaled(0.05))
        trace = generate_trace(program, 2_000, seed=1)
        branch_density_table(program, trace)
        trace.statistics()
        before = "numpy" in sys.modules
        batch = get_backend("batch")
        print(json.dumps({"before": before, "after": "numpy" in sys.modules,
                          "available": batch.available()}))
    """)

    def test_only_the_batch_backend_imports_numpy(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        seen = json.loads(result.stdout.strip().splitlines()[-1])
        assert seen["before"] is False
        try:
            import numpy  # noqa: F401
        except ImportError:
            has_numpy = False
        else:
            has_numpy = True
        assert seen["available"] is has_numpy
        assert seen["after"] is has_numpy
