"""Pareto optimality and the leximin solution, by exhaustive enumeration.

These are ground-truth verifiers, not solvers: no heuristics, every scan is
over the complete allocation space, guarded by the enumeration budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import ge
from typing import Iterator, Optional

from .core import Allocation, Instance, allocation_blocks, enumerate_allocations


def utilities(inst: Instance, alloc: Allocation) -> tuple:
    """Per-agent own-bundle values, in agent order."""
    return tuple(v.table[b] for v, b in zip(inst.valuations, alloc))


def utility_vector(inst: Instance, alloc: Allocation) -> tuple:
    """Own-bundle values sorted non-decreasing."""
    return tuple(sorted(utilities(inst, alloc)))


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
    """Scan the full allocation space for a Pareto improvement; the verdict
    carries the first improver in enumeration order."""
    improver = next((o for o in enumerate_allocations(inst, budget)
                     if pareto_improves(inst, o, alloc)), None)
    return PoVerdict(improver is None, improver)


def pareto_front(inst: Instance, budget: Optional[int] = None) -> frozenset:
    """The utility profiles (see :func:`utilities`) that no allocation dominates.

    An allocation is Pareto-optimal iff its profile is in the front.  One scan
    collects the distinct profiles, a block of allocations at a time; a
    skyline pass then visits them by descending sum and keeps each one that
    no kept profile weakly dominates.  A dominating profile has a strictly
    larger sum, so it is always visited first, and distinct profiles with
    equal sums never dominate each other: every comparison stays exact.
    Raises :class:`BudgetExceededError` like :func:`enumerate_allocations`.
    """
    profiles: set = set()
    for _, profs in allocation_blocks(inst, budget):
        profiles.update(profs)
    front: list = []
    for prof in sorted(profiles, key=sum, reverse=True):
        if not any(all(map(ge, kept, prof)) for kept in front):
            front.append(prof)
    return frozenset(front)


def pareto_optimal_allocations(inst: Instance,
                               budget: Optional[int] = None) -> Iterator[Allocation]:
    """The Pareto-optimal allocations, lazily, in enumeration order.

    The front is computed at the call, so the budget is checked there; each
    block's allocations are then picked by their profiles' membership in it.
    """
    front = pareto_front(inst, budget)
    return chain.from_iterable(compress(allocs, map(front.__contains__, profiles))
                               for allocs, profiles in allocation_blocks(inst, budget))


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
