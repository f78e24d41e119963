"""Pareto optimality and the leximin solution, by exhaustive enumeration.

These are ground-truth verifiers, not solvers: no heuristics, every scan is
over the complete allocation space, guarded by the enumeration budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge, lt
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


def _improves(p: tuple, q: tuple) -> bool:
    """Profile ``p`` is weakly better for every agent and strictly for some.

    Under weak dominance, p > q (lexicographic) is the same as p != q, and on
    its own it is a cheap first test that most non-improvers fail.
    """
    return p > q and all(map(ge, p, q))


def pareto_improves(inst: Instance, b: Allocation, a: Allocation) -> bool:
    """True iff ``b`` makes every agent weakly and some agent strictly better."""
    return _improves(utilities(inst, b), utilities(inst, a))


@dataclass(frozen=True)
class PoVerdict:
    """Pareto-optimality result; carries an improving allocation on failure."""

    satisfied: bool
    improver: Optional[Allocation] = None


def check_po(inst: Instance, alloc: Allocation, budget: Optional[int] = None) -> PoVerdict:
    """Scan the full allocation space for a Pareto improvement; the verdict
    carries the first improver in enumeration order, tested as in
    :func:`pareto_improves`.  Each block's values are read before its first
    test, so even an early improver costs one block's reads."""
    base = utilities(inst, alloc)
    improver = next((o for allocs, profiles in allocation_blocks(inst, budget)
                     for o, p in zip(allocs, profiles) if _improves(p, base)), None)
    return PoVerdict(improver is None, improver)


def pareto_front(inst: Instance, budget: Optional[int] = None) -> frozenset:
    """The utility profiles (see :func:`utilities`) that no allocation dominates.

    An allocation is Pareto-optimal iff its profile is in the front.  One scan
    collects the distinct profiles, a block of allocations at a time; then
    elimination rounds run over them in descending-sum order.  Each round's
    top, the first profile left, joins the front, and one C-level pass keeps
    only the profiles that beat it in some coordinate, which drops the top
    and everything it weakly dominates.  The top is on the front: a profile
    that dominates it has a strictly larger sum and so came first; it was
    an earlier top or dropped by one, and that top dominates this one too
    and would have dropped it.  Every comparison is exact.
    Raises :class:`BudgetExceededError` like :func:`enumerate_allocations`.
    """
    profiles: set = set()
    for _, profs in allocation_blocks(inst, budget):
        profiles.update(profs)
    rest = sorted(profiles, key=sum, reverse=True)
    front: list = []
    while rest:
        top = rest[0]
        front.append(top)
        rest = list(compress(rest, map(any, map(map, repeat(lt), repeat(top), rest))))
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
