"""Item and problem classification.

An item is good (bad) for an agent with respect to a bundle when its marginal
there is >= 0 (<= 0), and generally good (bad) when that holds against every
bundle.  An item is mixed when some complementary bipartition (M, N) of the
remaining items carries a strictly positive marginal on M for one agent and a
strictly negative marginal on N for another (possibly the same) agent.

All functions are pure brute-force scans over the subset lattice; with the
default 16-item cap that stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Instance, Valuation


def _scan_general(v: Valuation, item: int) -> tuple[bool, bool]:
    """(generally good, generally bad) in one pass over all bundles."""
    bit = 1 << item
    rest = ((1 << v.m) - 1) & ~bit
    t = v.table
    good = bad = True
    sub = rest
    while True:
        d = t[sub | bit] - t[sub]
        if d < 0:
            good = False
        elif d > 0:
            bad = False
        if not (good or bad):
            break
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return good, bad


@dataclass(frozen=True)
class MixedWitness:
    """A bipartition certifying mixedness of one item.

    ``positive_bundle`` and ``negative_bundle`` partition the other items;
    the named agents see a strictly positive / strictly negative marginal.
    """

    item: int
    positive_agent: int
    positive_bundle: int
    negative_agent: int
    negative_bundle: int


def mixed_witness(inst: Instance, item: int) -> Optional[MixedWitness]:
    """The first witness of the scan below, or None.

    The scan walks the bundles M of the remaining items in ascending mask
    order and pairs each with its complement N.  At each M it first tries M
    as the positive side: the first agent i with marginal(i, M, item) > 0
    and the first agent j with marginal(j, N, item) < 0 (i = j allowed).
    Then it tries N as the positive side, with the first agent positive on N
    and the first agent negative on M.  So the positive side need not have
    the least mask of any witness: it can be the complement of an earlier M.
    """
    bit = 1 << item
    rest = inst.full & ~bit
    tables = [v.table for v in inst.valuations]
    sub = 0
    while True:
        pos_agent = neg_agent = -1
        for a, t in enumerate(tables):
            d = t[sub | bit] - t[sub]
            if d > 0 and pos_agent < 0:
                pos_agent = a
            if d < 0 and neg_agent < 0:
                neg_agent = a
        comp = rest ^ sub
        if pos_agent >= 0:
            for a, t in enumerate(tables):
                if t[comp | bit] - t[comp] < 0:
                    return MixedWitness(item, pos_agent, sub, a, comp)
        if neg_agent >= 0:
            for a, t in enumerate(tables):
                if t[comp | bit] - t[comp] > 0:
                    return MixedWitness(item, a, comp, neg_agent, sub)
        if sub == rest:
            break
        sub = ((sub | ~rest) + 1) & rest
    return None


@dataclass(frozen=True)
class ItemClassMatrix:
    """Per (agent, item) generally-good/bad flags plus per-item mixedness."""

    generally_good: tuple  # [agent][item] -> bool
    generally_bad: tuple   # [agent][item] -> bool
    mixed: tuple           # [item] -> bool
    mixed_witnesses: tuple  # [item] -> MixedWitness | None


@dataclass(frozen=True)
class ProblemClass:
    generally_good_bad_items: bool
    no_mixed_items: bool


def classify(inst: Instance) -> tuple[ProblemClass, ItemClassMatrix]:
    """Classify every item and derive the problem-level flags.

    ``generally_good_bad_items`` holds when every (agent, item) pair is
    generally good or generally bad; items whose marginals are all zero count
    as both.  ``no_mixed_items`` holds when no item is mixed.
    """
    good_rows = []
    bad_rows = []
    for v in inst.valuations:
        goods = []
        bads = []
        for o in range(inst.m):
            g, b = _scan_general(v, o)
            goods.append(g)
            bads.append(b)
        good_rows.append(tuple(goods))
        bad_rows.append(tuple(bads))
    witnesses = tuple(mixed_witness(inst, o) for o in range(inst.m))
    mixed = tuple(w is not None for w in witnesses)
    ggb = all(
        good_rows[a][o] or bad_rows[a][o]
        for a in range(inst.n)
        for o in range(inst.m)
    )
    matrix = ItemClassMatrix(tuple(good_rows), tuple(bad_rows), mixed, witnesses)
    return ProblemClass(ggb, not any(mixed)), matrix
