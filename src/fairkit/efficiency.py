"""Pareto optimality and the leximin solution, by exhaustive enumeration.

These are ground-truth verifiers, not solvers: no heuristics, every scan is
over the complete allocation space, guarded by the enumeration budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ge
from typing import Optional

from .core import (  # enumerate_allocations: no longer called here, but benchmark spans wrap it
    Allocation,
    Instance,
    allocation_blocks,
    enumerate_allocations,
)


def utilities(inst: Instance, alloc: Allocation) -> tuple:
    """Per-agent own-bundle values, in agent order."""
    return tuple(v.table[b] for v, b in zip(inst.valuations, alloc))


def utility_vector(inst: Instance, alloc: Allocation) -> tuple:
    """Own-bundle values sorted non-decreasing."""
    return tuple(sorted(utilities(inst, alloc)))


def pareto_improves(inst: Instance, b: Allocation, a: Allocation) -> bool:
    """True iff ``b`` makes every agent weakly and some agent strictly better.

    On profiles p of ``b`` and q of ``a``: ``p > q and all(map(ge, p, q))``.
    Under weak dominance, p > q (lexicographic) is the same as p != q, and on
    its own it is a cheap first test that most non-improvers fail.
    """
    p = utilities(inst, b)
    q = utilities(inst, a)
    return p > q and all(map(ge, p, q))


@dataclass(frozen=True)
class PoVerdict:
    """Pareto-optimality result; carries an improving allocation on failure."""

    satisfied: bool
    improver: Optional[Allocation] = None


def check_po(inst: Instance, alloc: Allocation, budget: Optional[int] = None) -> PoVerdict:
    """Scan the full allocation space for a Pareto improvement; the verdict
    carries the first improver in enumeration order.  Each candidate's
    profile is tested against the allocation's as in :func:`pareto_improves`."""
    base = utilities(inst, alloc)
    improver = next((o for allocs, profiles in allocation_blocks(inst, budget)
                     for o, p in zip(allocs, profiles)
                     if p > base and all(map(ge, p, base))), None)
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


def leximin_set(inst: Instance, budget: Optional[int] = None) -> list:
    """All leximin-maximal allocations, in enumeration order.

    Ties are all returned; callers wanting a single representative take the
    first element, which is deterministic.  Each block's profiles are sorted
    into leximin vectors, and the block's best vector is compared with the
    best so far.
    """
    best_vec = None
    best: list = []
    for allocs, profiles in allocation_blocks(inst, budget):
        vecs = list(map(sorted, profiles))
        top = max(vecs)
        if best_vec is None or top > best_vec:
            best_vec, best = top, []
        if top == best_vec:
            best += compress(allocs, map(top.__eq__, vecs))
    return best
