"""Indirect target cache.

A 1K-entry, direct-mapped cache of the most recent target of each indirect
branch (Table 1).  Return instructions are predicted by the RAS instead.
"""

from __future__ import annotations

from typing import Dict, Optional


class IndirectTargetCache:
    """Last-target predictor for indirect branches and indirect calls."""

    def __init__(self, entries: int = 1024) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("indirect target cache size must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._targets: Dict[int, int] = {}
        self._tags: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0
        self.correct = 0

    def _index(self, branch_pc: int) -> int:
        return (branch_pc >> 2) & self._mask

    def predict(self, branch_pc: int) -> Optional[int]:
        """Predicted target, or None when the entry belongs to another branch."""
        self.lookups += 1
        target = self.peek(branch_pc)
        if target is not None:
            self.hits += 1
        return target

    def peek(self, branch_pc: int) -> Optional[int]:
        """:meth:`predict` without touching the statistics."""
        index = self._index(branch_pc)
        if self._tags.get(index) != branch_pc:
            return None
        return self._targets.get(index)

    def update(self, branch_pc: int, target: int, predicted: Optional[int] = None) -> None:
        """Record the resolved target; optionally score the prediction."""
        if predicted is not None and predicted == target:
            self.correct += 1
        index = self._index(branch_pc)
        self._tags[index] = branch_pc
        self._targets[index] = target

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.correct / self.lookups
