"""Pareto optimality and the leximin solution, by exhaustive enumeration.

These are ground-truth verifiers, not solvers: no heuristics, every scan is
over the complete allocation space, guarded by the enumeration budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, getitem
from typing import Optional

from .core import Allocation, Instance, enumerate_allocations


def utilities(inst: Instance, alloc: Allocation) -> tuple:
    """Per-agent own-bundle values, in agent order."""
    return tuple(v.table[b] for v, b in zip(inst.valuations, alloc))


def utility_vector(inst: Instance, alloc: Allocation) -> tuple:
    """Own-bundle values sorted non-decreasing."""
    return tuple(sorted(utilities(inst, alloc)))


def leximin_cmp(u: tuple, w: tuple) -> int:
    """-1, 0 or 1: lexicographic order of sorted utility vectors.

    1 means ``u`` leximin-dominates ``w``.  Vectors must have equal length.
    """
    if len(u) != len(w):
        raise ValueError(f"utility vectors of different lengths: {len(u)} vs {len(w)}")
    return (u > w) - (u < w)


def pareto_improves(inst: Instance, b: Allocation, a: Allocation) -> bool:
    """True iff ``b`` makes every agent weakly and some agent strictly better."""
    strict = False
    for v, bb, ba in zip(inst.valuations, b, a):
        wb = v.table[bb]
        wa = v.table[ba]
        if wb < wa:
            return False
        if wb > wa:
            strict = True
    return strict


@dataclass(frozen=True)
class PoVerdict:
    """Pareto-optimality result; carries an improving allocation on failure."""

    satisfied: bool
    improver: Optional[Allocation] = None


def check_po(inst: Instance, alloc: Allocation, budget: Optional[int] = None) -> PoVerdict:
    """Scan the full allocation space for a Pareto improvement."""
    tables = [v.table for v in inst.valuations]
    base = [t[b] for t, b in zip(tables, alloc)]
    n = inst.n
    for other in enumerate_allocations(inst, budget):
        strict = False
        for i in range(n):
            w = tables[i][other[i]]
            if w < base[i]:
                break
            if w > base[i]:
                strict = True
        else:
            if strict:
                return PoVerdict(False, other)
    return PoVerdict(True)


def pareto_front(inst: Instance, budget: Optional[int] = None) -> frozenset:
    """The utility profiles (see :func:`utilities`) that no allocation dominates.

    An allocation is Pareto-optimal iff its profile is in the front.  One scan
    collects the distinct profiles; a skyline pass then visits them by
    descending sum and keeps each one that no kept profile weakly dominates.
    A dominating profile has a strictly larger sum, so it is always visited
    first, and distinct profiles with equal sums never dominate each other:
    every comparison stays exact.  Raises :class:`BudgetExceededError` like
    :func:`enumerate_allocations`.
    """
    tables = [v.table for v in inst.valuations]
    profiles = {tuple(map(getitem, tables, alloc))
                for alloc in enumerate_allocations(inst, budget)}
    front: list = []
    for prof in sorted(profiles, key=sum, reverse=True):
        if not any(all(map(ge, kept, prof)) for kept in front):
            front.append(prof)
    return frozenset(front)


def leximin_set(inst: Instance, budget: Optional[int] = None) -> list:
    """All leximin-maximal allocations, in enumeration order.

    Ties are all returned; callers wanting a single representative take the
    first element, which is deterministic.
    """
    tables = [v.table for v in inst.valuations]
    best_vec = None
    best: list = []
    for alloc in enumerate_allocations(inst, budget):
        vec = sorted(tables[i][alloc[i]] for i in range(inst.n))
        if best_vec is None or vec > best_vec:
            best_vec = vec
            best = [alloc]
        elif vec == best_vec:
            best.append(alloc)
    return best
