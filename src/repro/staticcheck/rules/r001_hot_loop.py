"""R001 — hot-loop allocation discipline.

Functions marked ``@hot_loop`` (:mod:`repro.staticcheck.markers`) promise
the zero-allocation discipline the packed simulation kernel is built on
(PR 4): the steady state constructs no objects, builds no containers and
defines no closures — scratch objects are hoisted into the prelude and
mutated in place.  The monkeypatch-counting allocation tests proved this at
runtime for the configurations they happened to run; this rule proves it at
analysis time for every code path of every marked function.

Hot region:

* a marked function containing loops is checked inside its loop bodies
  (the prelude may allocate — hoisting is the point of the discipline);
* a marked function without loops is a per-iteration leaf (``lookup_into``,
  ``predict_region_into``) and is checked in full.

Flagged inside the hot region: comprehensions and generator expressions,
``lambda`` and nested ``def`` (closure objects), list/set/dict displays and
non-constant tuple displays, f-strings, calls packing ``*args``/
``**kwargs``, ``setattr`` (dynamic attribute creation), calls to container
constructors (``list``, ``dict``, ``set``, ...) and calls to CamelCase
names (the class-construction heuristic).  Scalar builtins (``int``,
``bool``, ``range``, ``min``...) are free or interned and stay allowed.

Two carve-outs keep the vectorized ``batch`` kernel lintable (PR 8):

* index tuples — a ``Tuple`` serving as a ``Subscript``'s slice
  (``tags[rows, ways]``) parses as a Load-context tuple but performs numpy
  advanced indexing, not a tuple allocation, and is exempt;
* numpy module calls (``np.*``/``numpy.*``) inside the hot region are
  flagged *unless* they pass an ``out=`` keyword — the allow-pattern is a
  buffer preallocated in the prelude and filled in place per iteration
  (``np.equal(a, b, out=buffer)``).  Method calls on arrays are judged by
  the existing heuristics, like any other call.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List

from repro.staticcheck.astutil import (
    call_name,
    decorator_names,
    functions,
    is_constant_tuple,
    last_attr,
)
from repro.staticcheck.model import (
    Finding,
    PackageGraph,
    ParsedModule,
    enclosing_symbol,
)
from repro.staticcheck.registry import RULE_REGISTRY

RULE_ID = "R001"

#: Builtin constructors that always heap-allocate a fresh container.
_CONTAINER_BUILTINS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "bytearray", "memoryview",
     "object", "deque", "defaultdict", "Counter", "OrderedDict"}
)

#: Names the numpy module conventionally travels under (the ``batch``
#: backend binds it as ``np``); ``_np`` stays for modules that alias it
#: privately.
_NUMPY_MODULES = frozenset({"np", "numpy", "_np"})


def _is_hot_loop_marked(node: ast.FunctionDef) -> bool:
    return any(name == "hot_loop" or name.endswith(".hot_loop")
               for name in decorator_names(node))


def _loops(func: ast.FunctionDef) -> List[ast.AST]:
    return [node for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]


def _camelcase(name: str) -> bool:
    return bool(name) and name[0].isupper() and not name.isupper()


def _numpy_call_without_out(name: str, node: ast.Call) -> bool:
    """A ``np.*`` call in the hot region allocates a fresh array per
    iteration unless it writes into a preallocated buffer via ``out=``."""
    head, _, rest = name.partition(".")
    if head not in _NUMPY_MODULES or not rest:
        return False
    return not any(keyword.arg == "out" for keyword in node.keywords)


def _check_region(
    module: ParsedModule,
    func: ast.FunctionDef,
    nodes: Iterator[ast.AST],
    symbol: str,
    index_tuples: FrozenSet[int],
) -> Iterator[Finding]:
    for node in nodes:
        message = None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            message = "comprehension builds a fresh container per iteration"
        elif isinstance(node, ast.GeneratorExp):
            message = "generator expression allocates a generator object"
        elif isinstance(node, ast.Lambda):
            message = "lambda allocates a closure object"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            message = f"nested function {node.name!r} allocates a closure object"
        elif isinstance(node, ast.List):
            message = "list display allocates"
        elif isinstance(node, ast.Set):
            message = "set display allocates"
        elif isinstance(node, ast.Dict):
            message = "dict display allocates"
        elif isinstance(node, ast.Tuple) and not is_constant_tuple(node):
            # Index tuples (a Subscript's slice) are numpy advanced
            # indexing, not a container allocation.
            if isinstance(node.ctx, ast.Load) and id(node) not in index_tuples:
                message = "non-constant tuple display allocates"
        elif isinstance(node, ast.JoinedStr):
            message = "f-string builds strings"
        elif isinstance(node, ast.Call):
            name = call_name(node)
            tail = last_attr(name) if name is not None else None
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords
            ):
                message = "*args/**kwargs call packs a container per call"
            elif tail == "setattr" and name == "setattr":
                message = "setattr creates attributes dynamically"
            elif name in _CONTAINER_BUILTINS:
                message = f"{name}() allocates a container"
            elif name is not None and _numpy_call_without_out(name, node):
                message = (
                    f"{name}() allocates a fresh array per iteration "
                    "(preallocate the buffer in the prelude and pass out=)"
                )
            elif tail is not None and _camelcase(tail):
                message = f"call to {name}() constructs an object"
        if message is None:
            continue
        line = getattr(node, "lineno", func.lineno)
        if module.allows(line, RULE_ID):
            continue
        yield Finding(
            rule=RULE_ID,
            path=module.relpath,
            line=line,
            symbol=symbol,
            message=f"allocation in @hot_loop function: {message}",
        )


@RULE_REGISTRY.register(RULE_ID)
def check_hot_loop_allocations(package: PackageGraph) -> Iterator[Finding]:
    """@hot_loop functions must not allocate in their steady state."""
    for module in package:
        for func in functions(module.tree):
            if not _is_hot_loop_marked(func):
                continue
            loops = _loops(func)
            symbol = enclosing_symbol(module, func)
            hot_nodes: List[ast.AST] = []
            seen = set()
            if loops:
                # Nested loops are already covered by walking the outer
                # body; the id-set keeps each node checked exactly once.
                # A loop's else: clause runs once and counts as prelude.
                regions = [stmt for loop in loops for stmt in loop.body]
            else:
                regions = list(func.body)
            index_tuple_ids = set()
            for stmt in regions:
                for node in ast.walk(stmt):
                    if id(node) not in seen:
                        seen.add(id(node))
                        hot_nodes.append(node)
                    if isinstance(node, ast.Subscript) and isinstance(
                        node.slice, ast.Tuple
                    ):
                        index_tuple_ids.add(id(node.slice))
            yield from _check_region(
                module, func, iter(hot_nodes), symbol, frozenset(index_tuple_ids)
            )
