"""Columnar (structure-of-arrays) fetch-region traces.

A trace is a long, homogeneous stream of fetch regions, and every consumer —
the frontend timing loop, the prefetchers, the statistics — walks it start to
finish.  Materializing one frozen dataclass per region makes that walk pay
Python object construction and attribute-protocol overhead per region, and
makes a trace cost hundreds of bytes of heap per record.  :class:`PackedTrace`
stores the same information as parallel ``array`` columns (~50 bytes per
region), which the hot loops index directly; :class:`repro.workloads.trace.Trace`
keeps the record-level API as thin lazy views on top.

Columns (one slot per fetch region):

* ``starts`` — address of the region's first instruction,
* ``instruction_counts`` — instructions executed in the region,
* ``branch_pcs`` — terminating branch address (``-1`` = no branch),
* ``kinds`` — :data:`KIND_CODES` index of the branch kind (``-1`` = none),
* ``takens`` — dynamic outcome of the terminating branch (0/1),
* ``targets`` — statically-encoded target (``-1`` = none/dynamic),
* ``next_pcs`` — address of the next region actually executed,
* ``block_firsts`` / ``block_counts`` — precomputed span of 64 B instruction
  blocks the region touches, so the L1-I loops never recompute it.

Traces are built through :class:`PackedTraceBuilder`, which buffers appends
in plain lists and flushes them into the arrays in chunks, so generation
never holds more than one chunk of Python objects.

On disk (the :class:`repro.sweep.TraceStore` artifact) a trace is one
file with one layout, written by :meth:`PackedTrace.save` and read by
:func:`load_packed`:

* a header — magic ``RPKT``, :data:`PACKED_TRACE_FORMAT_VERSION`, byte
  order, name and region count;
* the nine columns, in ``_COLUMNS`` order, each one contiguous block
  zero-padded to an 8-byte boundary (so every column starts aligned);
* a trailer — total regions, total instructions and the SHA-256 of every
  byte before the trailer.

:func:`load_packed` maps the file and checks the digest and the totals
before it hands out a column, so a truncated or bit-flipped artifact is
a :class:`ValueError`, never a silently wrong trace.  The columns it
returns are read-only ``memoryview``s over the mapping: every process
sharing a trace store reads the same page-cache pages instead of each
holding a private heap copy.  Columns may equally be ``array`` objects
(the heap form the builder produces); both behave identically (the parity
suite pins it), and pickling a mapped trace (e.g. handing it to a worker
process) materializes heap arrays.

The reductions (:attr:`PackedTrace.instruction_count`,
:meth:`PackedTrace.statistics_tuple`) are plain walks over the ``array``
columns; the test suite checks them against an independent record walk.
"""

from __future__ import annotations

import hashlib
import mmap as _mmap_module
import struct
import sys
from array import array
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.isa.instruction import (
    BLOCK_SIZE_BYTES,
    INSTRUCTION_SIZE_BYTES,
    BranchKind,
    block_address,
)

if TYPE_CHECKING:  # import cycle guard: trace.py imports this module
    from repro.workloads.trace import FetchRecord

__all__ = [
    "KIND_CODES",
    "PACKED_TRACE_FORMAT_VERSION",
    "PackedTrace",
    "PackedTraceBuilder",
    "kind_code",
    "kind_from_code",
    "load_packed",
]

#: Branch-kind encoding used by the ``kinds`` column; index = stored code.
KIND_CODES: Tuple[BranchKind, ...] = (
    BranchKind.CONDITIONAL,
    BranchKind.UNCONDITIONAL,
    BranchKind.CALL,
    BranchKind.INDIRECT,
    BranchKind.INDIRECT_CALL,
    BranchKind.RETURN,
)

_T = TypeVar("_T")

_KIND_TO_CODE = {kind: code for code, kind in enumerate(KIND_CODES)}

#: Sentinel for "no value" in the address-valued columns and ``kinds``.
NO_VALUE = -1

#: Bumped whenever the on-disk column layout changes meaning; readers reject
#: files written under another version instead of misreading them.
PACKED_TRACE_FORMAT_VERSION = 2

#: (column attribute, array typecode).  ``q`` columns hold addresses (or the
#: ``-1`` sentinel), ``i`` columns hold small counts, ``b`` columns hold the
#: kind code / taken flag.  The order is the on-disk column order.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("starts", "q"),
    ("instruction_counts", "i"),
    ("branch_pcs", "q"),
    ("kinds", "b"),
    ("takens", "b"),
    ("targets", "q"),
    ("next_pcs", "q"),
    ("block_firsts", "q"),
    ("block_counts", "i"),
)

_MAGIC = b"RPKT"
#: magic, format version, byte order (0 = little, 1 = big), name length in
#: bytes, region count.  Header fields are little-endian on every host.
_HEADER = struct.Struct("<4sHBxHQ")
#: total regions, total instructions, SHA-256 of every byte before it.
_TRAILER = struct.Struct("<QQ32s")
_NATIVE_BYTEORDER = 0 if sys.byteorder == "little" else 1
_ITEMSIZE = {typecode: array(typecode).itemsize for _, typecode in _COLUMNS}


def _pad(size: int) -> int:
    """Zero bytes after a ``size``-byte block so the next starts 8-aligned."""
    return -size % 8


def kind_code(kind: Optional[BranchKind]) -> int:
    """Column encoding of a branch kind (``-1`` for no branch)."""
    if kind is None:
        return NO_VALUE
    return _KIND_TO_CODE[kind]


def kind_from_code(code: int) -> Optional[BranchKind]:
    """Inverse of :func:`kind_code`."""
    if code == NO_VALUE:
        return None
    return KIND_CODES[code]


def _empty_columns() -> List[array]:
    return [array(typecode) for _, typecode in _COLUMNS]


#: A column is either a heap ``array`` or a (cast) read-only ``memoryview``
#: over an mmap of the artifact file; both index, slice, iterate and
#: ``tobytes()`` identically, which is all the consumers use.
Column = Union[array, memoryview]


def _column_typecode(column: Column) -> str:
    """Element type of a column, whichever backing it has."""
    typecode = getattr(column, "typecode", None)
    if typecode is not None:
        return typecode
    return column.format


class PackedTrace:
    """Structure-of-arrays representation of a fetch-region trace.

    Instances are built by :class:`PackedTraceBuilder` (or :func:`load_packed`)
    and are conceptually immutable afterwards; consumers index the column
    attributes directly.  Columns are ``array``s, or ``memoryview``s over an
    mmap of the on-disk artifact (see :meth:`from_buffers` /
    :func:`load_packed`); :attr:`mapped` tells the two apart.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS) + (
        "name",
        "_instruction_count",
        "_memo",
    )

    def __init__(self, columns: Iterable[Column], name: str = "trace") -> None:
        columns = list(columns)
        if len(columns) != len(_COLUMNS):
            raise ValueError(
                f"expected {len(_COLUMNS)} columns, got {len(columns)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        for (attr, typecode), column in zip(_COLUMNS, columns, strict=True):
            if _column_typecode(column) != typecode:
                raise ValueError(
                    f"column {attr!r} must have typecode {typecode!r}, "
                    f"got {_column_typecode(column)!r}"
                )
            setattr(self, attr, column)
        self.name = name
        self._instruction_count: Optional[int] = None
        self._memo: Optional[Dict[Hashable, object]] = None

    @classmethod
    def from_buffers(
        cls, buffers: Sequence[Column], name: str = "trace"
    ) -> "PackedTrace":
        """Wrap existing column buffers (typically mmap-backed memoryviews).

        The buffers are adopted as-is — no copy — so the caller's backing
        storage (an ``mmap``, a shared-memory segment) serves every read.
        The memoryviews keep their exporter alive, so the mapping cannot be
        reclaimed while any view (or any :meth:`slice` of one) is reachable.
        """
        return cls(buffers, name=name)

    @property
    def mapped(self) -> bool:
        """True when the columns are memoryviews over a loaded artifact (its
        mmap, or its bytes where the file cannot be mapped), not arrays."""
        return isinstance(self.starts, memoryview)

    def __reduce__(
        self,
    ) -> Tuple[
        Callable[[str, Tuple[bytes, ...]], "PackedTrace"],
        Tuple[str, Tuple[bytes, ...]],
    ]:
        # Pickling (e.g. shipping a trace to a worker process) materializes
        # heap arrays: a memoryview cannot cross a process boundary, and the
        # receiving side re-maps from the artifact path when it wants
        # zero-copy (the sweep scheduler hands workers paths, not traces).
        raw = tuple(
            getattr(self, attr).tobytes() for attr, _ in _COLUMNS
        )
        return (_unpickle_packed, (self.name, raw))

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def instruction_count(self) -> int:
        if self._instruction_count is None:
            self._instruction_count = sum(self.instruction_counts)
        return self._instruction_count

    def memoized(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, computed once per ``key`` for this trace object.

        Derived per-trace data that every simulation of the trace shares
        (the trace-only branch prediction pass) lives here, on the object:
        it dies with the trace, a :meth:`slice` or a pickled copy starts
        without it, and ``key`` must name everything ``compute`` reads
        besides the columns.
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = compute()
        return cast(_T, memo[key])

    def region_blocks(self, index: int) -> Tuple[int, ...]:
        """Block addresses touched by region ``index``, in fetch order."""
        first = self.block_firsts[index]
        count = self.block_counts[index]
        return tuple(range(first, first + count * BLOCK_SIZE_BYTES, BLOCK_SIZE_BYTES))

    def slice(self, start: int, stop: Optional[int] = None) -> "PackedTrace":
        """A new packed trace over ``[start:stop]`` (list-slice semantics)."""
        return PackedTrace(
            (getattr(self, attr)[start:stop] for attr, _ in _COLUMNS),
            name=self.name,
        )

    @classmethod
    def concatenate(
        cls, traces: Iterable["PackedTrace"], name: str = "concat"
    ) -> "PackedTrace":
        columns = _empty_columns()
        for trace in traces:
            for column, (attr, _) in zip(columns, _COLUMNS, strict=True):
                column.extend(getattr(trace, attr))
        return cls(columns, name=name)

    # ------------------------------------------------------------------ #
    # Columnar walks
    # ------------------------------------------------------------------ #

    def iter_block_spans(self) -> Iterator[Tuple[int, int]]:
        """(first block address, block count) per region, in trace order."""
        return zip(self.block_firsts, self.block_counts, strict=True)

    def iter_blocks(self) -> Iterator[int]:
        """Every block address touched, region by region, in fetch order
        (duplicates included — the L1-I dedup lives in ``Trace.block_stream``).
        """
        block_size = BLOCK_SIZE_BYTES
        for first, count in zip(self.block_firsts, self.block_counts, strict=True):
            if count == 1:
                yield first
            else:
                yield from range(first, first + count * block_size, block_size)

    def statistics_tuple(self) -> Tuple[int, ...]:
        """Aggregate counters in one columnar pass.

        Returns the raw counter tuple ``(instructions, regions, branches,
        taken, conditionals, conditional_taken, calls, returns, indirects,
        unique_blocks, unique_taken_branches)``;
        :meth:`repro.workloads.trace.Trace.statistics` wraps it in a
        :class:`~repro.workloads.trace.TraceStatistics`.
        """
        counters = [self.instruction_count, len(self)] + [0] * 7
        blocks = set(self.iter_blocks())
        taken_pcs: Set[int] = set()
        cond = _KIND_TO_CODE[BranchKind.CONDITIONAL]
        ret = _KIND_TO_CODE[BranchKind.RETURN]
        call_codes = (
            _KIND_TO_CODE[BranchKind.CALL],
            _KIND_TO_CODE[BranchKind.INDIRECT_CALL],
        )
        indirect_codes = (
            _KIND_TO_CODE[BranchKind.INDIRECT],
            _KIND_TO_CODE[BranchKind.INDIRECT_CALL],
            _KIND_TO_CODE[BranchKind.RETURN],
        )
        for branch_pc, code, taken in zip(self.branch_pcs, self.kinds, self.takens, strict=True):
            if branch_pc == NO_VALUE:
                continue
            counters[2] += 1
            if code == cond:
                counters[4] += 1
                if taken:
                    counters[5] += 1
            if code in call_codes:
                counters[6] += 1
            if code == ret:
                counters[7] += 1
            if code in indirect_codes:
                counters[8] += 1
            if taken:
                counters[3] += 1
                taken_pcs.add(branch_pc)
        return tuple(counters) + (len(blocks), len(taken_pcs))

    # ------------------------------------------------------------------ #
    # On-disk form
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` in the packed binary format.

        The SHA-256 in the trailer is folded in as the bytes are written,
        so the artifact is never read back to checksum it.
        """
        encoded_name = self.name.encode("utf-8")
        digest = hashlib.sha256()
        with open(path, "wb") as handle:

            def emit(data: Union[bytes, Column]) -> None:
                handle.write(data)
                digest.update(data)

            emit(_HEADER.pack(
                _MAGIC, PACKED_TRACE_FORMAT_VERSION, _NATIVE_BYTEORDER,
                len(encoded_name), len(self),
            ))
            emit(encoded_name)
            emit(bytes(_pad(_HEADER.size + len(encoded_name))))
            for attr, typecode in _COLUMNS:
                emit(getattr(self, attr))
                emit(bytes(_pad(len(self) * _ITEMSIZE[typecode])))
            handle.write(
                _TRAILER.pack(len(self), self.instruction_count, digest.digest())
            )


def _unpickle_packed(name: str, raw_columns: Tuple[bytes, ...]) -> PackedTrace:
    """Rebuild a pickled :class:`PackedTrace` as heap arrays."""
    columns = []
    for (_, typecode), raw in zip(_COLUMNS, raw_columns, strict=True):
        column = array(typecode)
        column.frombytes(raw)
        columns.append(column)
    return PackedTrace(columns, name=name)


def load_packed(path: Union[str, Path]) -> PackedTrace:
    """Read a packed trace written by :meth:`PackedTrace.save`.

    The columns are memoryviews straight over an mmap of the file — no heap
    copy, one page-cache copy shared by every process mapping it — or over
    the file's bytes where the file cannot be mapped.  The trailer's digest
    and totals are checked before the trace is handed out, so a truncated,
    bit-flipped or foreign-byte-order artifact raises :class:`ValueError`.
    """
    with open(path, "rb") as handle:
        try:
            view = memoryview(
                _mmap_module.mmap(handle.fileno(), 0, access=_mmap_module.ACCESS_READ)
            )
        except (ValueError, OSError):
            # Empty file or a filesystem without mmap: parse the bytes.
            view = memoryview(handle.read())
    if len(view) < _HEADER.size:
        raise ValueError(f"truncated packed trace file: {path}")
    magic, version, byteorder, name_length, regions = _HEADER.unpack_from(view)
    if magic != _MAGIC:
        raise ValueError(f"not a packed trace file: {path}")
    if version != PACKED_TRACE_FORMAT_VERSION:
        raise ValueError(
            f"packed trace format version {version} is not supported "
            f"(expected {PACKED_TRACE_FORMAT_VERSION})"
        )
    if byteorder != _NATIVE_BYTEORDER:
        raise ValueError(
            f"packed trace {path} was written with the other byte order"
        )
    offset = _HEADER.size + name_length
    offset += _pad(offset)
    spans = []
    for _, typecode in _COLUMNS:
        size = regions * _ITEMSIZE[typecode]
        spans.append((offset, offset + size))
        offset += size + _pad(size)
    if len(view) != offset + _TRAILER.size:
        raise ValueError(
            f"truncated or torn packed trace file: {path} holds {len(view)} "
            f"bytes, its header implies {offset + _TRAILER.size}"
        )
    total_regions, total_instructions, digest = _TRAILER.unpack_from(view, offset)
    if hashlib.sha256(view[:offset]).digest() != digest:
        raise ValueError(f"packed trace {path} does not match its checksum")
    trace = PackedTrace.from_buffers(
        [
            view[start:stop].cast(typecode)
            for (start, stop), (_, typecode) in zip(spans, _COLUMNS, strict=True)
        ],
        name=bytes(view[_HEADER.size:_HEADER.size + name_length]).decode("utf-8"),
    )
    if total_regions != len(trace) or total_instructions != trace.instruction_count:
        raise ValueError(
            f"packed trace trailer mismatch in {path}: "
            f"{len(trace)} regions/{trace.instruction_count} instructions read, "
            f"trailer says {total_regions}/{total_instructions}"
        )
    return trace


class PackedTraceBuilder:
    """Chunked appender producing a :class:`PackedTrace`.

    Appends accumulate in plain Python lists (the fastest append path) and
    are flushed into the arrays every ``chunk_regions`` entries, so building
    an N-region trace never holds more than one chunk of boxed integers.
    """

    def __init__(self, name: str = "trace", chunk_regions: int = 1 << 16) -> None:
        if chunk_regions <= 0:
            raise ValueError("chunk_regions must be positive")
        self.name = name
        self.chunk_regions = chunk_regions
        self._columns = _empty_columns()
        self._buffers: List[List[int]] = [[] for _ in _COLUMNS]
        self._buffered = 0

    def __len__(self) -> int:
        return len(self._columns[0]) + self._buffered

    def append(
        self,
        start: int,
        instruction_count: int,
        branch_pc: int,
        kind: int,
        taken: int,
        target: int,
        next_pc: int,
    ) -> None:
        """Append one region; ``branch_pc``/``kind``/``target`` use ``-1`` for None.

        The block-span columns are derived here, once, so every later
        consumer reads them instead of recomputing the span.
        """
        first = block_address(start)
        last = block_address(start + (instruction_count - 1) * INSTRUCTION_SIZE_BYTES)
        buffers = self._buffers
        buffers[0].append(start)
        buffers[1].append(instruction_count)
        buffers[2].append(branch_pc)
        buffers[3].append(kind)
        buffers[4].append(taken)
        buffers[5].append(target)
        buffers[6].append(next_pc)
        buffers[7].append(first)
        buffers[8].append((last - first) // BLOCK_SIZE_BYTES + 1)
        self._buffered += 1
        if self._buffered >= self.chunk_regions:
            self._flush()

    def append_record(self, record: "FetchRecord") -> None:
        """Append a :class:`~repro.workloads.trace.FetchRecord` (view-path compat)."""
        branch_pc = record.branch_pc if record.branch_pc is not None else NO_VALUE
        target = record.target if record.target is not None else NO_VALUE
        self.append(
            record.start,
            record.instruction_count,
            branch_pc,
            kind_code(record.kind),
            1 if record.taken else 0,
            target,
            record.next_pc,
        )

    def _flush(self) -> None:
        for column, buffer in zip(self._columns, self._buffers, strict=True):
            column.extend(buffer)
            del buffer[:]
        self._buffered = 0

    def build(self) -> PackedTrace:
        """Finish and return the packed trace (the builder can be reused)."""
        self._flush()
        trace = PackedTrace(self._columns, name=self.name)
        self._columns = _empty_columns()
        return trace
