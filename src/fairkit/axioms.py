"""Fairness-axiom checkers with violation witnesses, and one fused scan.

Envy is strict: agent i envies agent j when v_i(A_i) < v_i(A_j).  Each axiom
is one row of a clause table.  For an envying pair the row picks the pair's
candidate items, each with the one inequality by which moving it would
repair the envy.  EF, EF1 and EF1-pm ask for envy-freeness up to *some*
item: a pair passes when some candidate repairs it (EF has none).  The EFX
family, its variants and chen-liu ask for it up to *any* item: a pair passes
when every candidate repairs it, so a pair with no candidate at all passes
vacuously, and such pairs are surfaced on the verdict's ``vacuous`` list so
reports stay self-explanatory.  When an envying pair has a candidate and EFX
(EFX-pm) accepts it, EF1 (EF1-pm) accepts it too: the candidate repairs it.

:func:`check_axiom` is the one witness checker: it walks every ordered
envying pair once and reports all violations, each as a :class:`Witness`
whose lhs < rhs reproduces the failed inequality; :func:`satisfies` is its
yes or no for one allocation.  For scans over many allocations, :func:`held`
decides many axioms at once without witnesses: one bit per axiom, from one
pass over each envying pair's two bundles, and none at all for an envy-free
allocation.  Both read the one clause table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import Allocation, Instance
from .taxonomy import classify

# axiom identifiers (CLI spelling)
EF = "ef"
EF1 = "ef1"
EFX = "efx"
EF1PM = "ef1pm"
EFXPM = "efxpm"
EFX0 = "efx0"
EFXPM0 = "efxpm0"
VARIANT_A = "variant-a"
VARIANT_B = "variant-b"
CHEN_LIU = "chen-liu"

# ---------------------------------------------------------------------------
# the clause table
#
# Every axiom is one row of _GROUPS_OF: the clause groups it is made of.  For
# an envying pair (own bundle a, envied bundle b, va = t[a] < vb = t[b]
# through the envier's table t), each item o is a candidate of the groups its
# values fall into, and fails a group's axioms unless it repairs the envy:
#   over b, rb = t[b - o], failing when va < rb (witness removed-good):
#     rb < vb           _X_LT  the EFX-style removal clause
#     rb == vb          _X_EQ  the same, zero variants only
#     t[a + o] > va     _P_GT  the "pm" removal clause
#     t[a + o] == va    _P_EQ  the same, zero variants only
#     o generally good  _CL    chen-liu
#   over a, ra = t[a - o], ab = t[b + o]:
#     ra > va           _OX_GT the EFX-style own-item clause, failing when
#                              ra < vb (witness removed-bad)
#     ra == va          _OX_EQ the same, zero variants only
#     ra > va           _OP_GT the "pm" own-item clause, failing when va < ab
#                              (witness added-bad)
#     ra == va          _OP_EQ the same, zero variants only
#     o generally bad   _CL    chen-liu, failing as _OP_GT
# An envying pair with no candidate satisfies these axioms vacuously.
# EF (_EF) fails on every envying pair; EF1 (_EF1) and EF1-pm (_EF1PM) fail
# unless some item repairs the pair: va >= rb repairs both, ra >= vb EF1, and
# ra > va with va >= ab EF1-pm.
_EF, _EF1, _EF1PM, _CL, _X_LT, _X_EQ, _P_GT, _P_EQ, _OX_GT, _OX_EQ, _OP_GT, _OP_EQ = range(12)

_GROUPS_OF = {
    EF: (_EF,),
    EF1: (_EF1,),
    EFX: (_X_LT, _OX_GT),
    EF1PM: (_EF1PM,),
    EFXPM: (_P_GT, _OP_GT),
    EFX0: (_X_LT, _X_EQ, _OX_GT, _OX_EQ),
    EFXPM0: (_P_GT, _P_EQ, _OP_GT, _OP_EQ),
    VARIANT_A: (_P_GT, _OX_GT),
    VARIANT_B: (_X_LT, _OP_GT),
    CHEN_LIU: (_CL,),
}

ALL_AXIOMS = tuple(_GROUPS_OF)

# witness condition tags
REMOVED_GOOD = "removed-good"
REMOVED_BAD = "removed-bad"
ADDED_BAD = "added-bad"
VACUOUS_ENVY = "vacuous-envy"


class NotWellDefinedError(Exception):
    """An axiom was asked about an instance outside its domain."""


@dataclass(frozen=True)
class Witness:
    """One concrete failed (or, for vacuous tags, unrepaired) inequality.

    ``item`` is the item index involved, or None when the witness is the bare
    envy inequality itself.
    """

    envier: int
    envied: int
    condition: str
    item: Optional[int]
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Verdict:
    axiom: str
    satisfied: bool
    violations: tuple = ()
    vacuous: tuple = ()


def envies(inst: Instance, alloc: Allocation, i: int, j: int) -> bool:
    """Strict envy of agent i toward agent j.  Error when i == j."""
    if i == j:
        raise ValueError("an agent cannot envy itself")
    t = inst.valuations[i].table
    return t[alloc[i]] < t[alloc[j]]


# ---------------------------------------------------------------------------
# the Chen-Liu variant (generally good/bad problems only)

def _item_classes(inst):
    """``classify(inst)``, computed on first use and kept on the instance.

    Instances are immutable, so the classes never go stale.  As with
    :func:`functools.cached_property`, the value lives in the instance's
    ``__dict__``, which the dataclass's field-based equality ignores.
    """
    try:
        return inst.__dict__["_item_classes"]
    except KeyError:
        classes = inst.__dict__["_item_classes"] = classify(inst)
        return classes


def well_defined(inst: Instance, axiom: str) -> bool:
    """False only for chen-liu on an instance with an item that is neither
    generally good nor generally bad for some agent."""
    return axiom != CHEN_LIU or _item_classes(inst)[0].generally_good_bad_items


def _chen_liu_masks(inst, axiom_ids):
    """Per agent, its chen-liu ``(good, bad)`` item masks if ``axiom_ids``
    has chen-liu, else ``(0, 0)``.  Raises ``ValueError`` for an unknown
    axiom and :class:`NotWellDefinedError` for chen-liu outside its domain."""
    for ax in axiom_ids:
        if ax not in _GROUPS_OF:
            raise ValueError(f"unknown axiom {ax!r}")
    if CHEN_LIU not in axiom_ids:
        return ((0, 0),) * inst.n
    if not well_defined(inst, CHEN_LIU):
        raise NotWellDefinedError(
            "the chen-liu variant is only well-defined for problems with "
            "generally good/bad items"
        )
    matrix = _item_classes(inst)[1]
    return [tuple(sum(1 << o for o, flag in enumerate(row) if flag) for row in rows)
            for rows in zip(matrix.generally_good, matrix.generally_bad)]


# ---------------------------------------------------------------------------
# the witness checker

def _reading(groups):
    """The flags by which :func:`check_axiom` reads one row of the table."""
    g = set(groups)
    return (bool(g & {_EF, _EF1, _EF1PM}),  # some: one repairing candidate suffices
            _CL in g,                       # own_first: chen-liu lists a's items first
            bool(g - {_EF, _CL}),           # walks: item values are read, not masks only
            bool(g & {_EF1, _EF1PM}),       # every item of b is a candidate
            _EF1 in g,                      # every item of a is a candidate
            _X_LT in g, _X_EQ in g,         # o in b with t[b - o] < vb, == vb
            _P_GT in g, _P_EQ in g,         # o in b with t[a + o] > va, == va
            bool(g & {_EF1PM, _OX_GT, _OP_GT}),  # o in a with t[a - o] > va
            bool(g & {_OX_EQ, _OP_EQ}),          # o in a with t[a - o] == va
            bool(g & {_EF1, _OX_GT, _OX_EQ}))  # removal: a's inequality is removed-bad


_READING_OF = {ax: _reading(groups) for ax, groups in _GROUPS_OF.items()}


def check_axiom(inst: Instance, alloc: Allocation, axiom: str) -> Verdict:
    """The verdict of ``axiom`` on one allocation, with every witness.

    One candidate pass per ordered pair (i, j) in which i envies j reads the
    axiom's row of the clause table.  Each candidate is the witness
    ``(condition, item, lhs, rhs)`` of the inequality lhs >= rhs by which it
    would repair the envy.  Under EF, EF1 and EF1-pm (up to *some* item), a
    pair that no candidate repairs reports each side's closest candidate
    (least rhs - lhs, the first in item order on ties), or the bare envy if
    it has none.  Under the other axioms (up to *any* item), a pair reports
    every candidate that does not repair it, chen-liu's own items first, and
    goes on ``vacuous`` if it has no candidate.
    """
    masks = _chen_liu_masks(inst, (axiom,))
    (some, own_first, walks, every_b, every_a,
     x_lt, x_eq, p_gt, p_eq, a_gt, a_eq, removal) = _READING_OF[axiom]
    violations = []
    vacuous = []
    for i, v in enumerate(inst.valuations):
        t = v.table
        a = alloc[i]
        va = t[a]
        good, bad = masks[i]
        for j, b in enumerate(alloc):
            vb = t[b]
            if va >= vb:  # no envy, always so for j == i
                continue
            repaired = False
            on_b = []  # the candidates of each side that do not repair the envy
            s = b if walks else b & good
            while s:
                bit = s & -s
                s ^= bit
                rb = t[b ^ bit]
                if (every_b or x_lt and rb < vb or x_eq and rb == vb or good & bit
                        or p_gt and t[a | bit] > va or p_eq and t[a | bit] == va):
                    if va < rb:
                        on_b.append((REMOVED_GOOD, bit.bit_length() - 1, va, rb))
                    else:
                        repaired = True
            on_a = []
            s = a if walks else a & bad
            while s:
                bit = s & -s
                s ^= bit
                ra = t[a ^ bit]
                if every_a or a_gt and ra > va or a_eq and ra == va or bad & bit:
                    c = ((REMOVED_BAD, bit.bit_length() - 1, ra, vb) if removal
                         else (ADDED_BAD, bit.bit_length() - 1, va, t[b | bit]))
                    if c[2] < c[3]:
                        on_a.append(c)
                    else:
                        repaired = True
            if not (on_b or on_a):
                if not repaired:  # no candidate: the bare envy
                    bare = Witness(i, j, VACUOUS_ENVY, None, va, vb)
                    (violations if some else vacuous).append(bare)
            elif not some:
                sides = on_a + on_b if own_first else on_b + on_a
                violations += [Witness(i, j, *c) for c in sides]
            elif not repaired:
                violations += [Witness(i, j, *min(side, key=lambda c: c[3] - c[2]))
                               for side in (on_b, on_a) if side]
    return Verdict(axiom, not violations, tuple(violations), tuple(vacuous))


def satisfies(inst: Instance, alloc: Allocation, axiom: str) -> bool:
    """Boolean form of :func:`check_axiom`, for one allocation.

    A scan over many allocations should build :func:`held` once instead, and
    decide all its axioms per allocation in one pass.
    """
    return check_axiom(inst, alloc, axiom).satisfied


# ---------------------------------------------------------------------------
# the fused scan
#
# One scan decides every requested axiom for one allocation and builds no
# witness; each axiom owns one bit.  An envying pair gets one pass over the
# items of b and one over those of a, and each item outcome fails the axioms
# of its clause groups (see the clause table) or repairs EF1 or EF1-pm.  A
# pair's passes stop as soon as its outcome is settled.

@lru_cache(maxsize=64)
def _pair_pass(axiom_ids):
    """``fails(t, a, b, va, vb, good, bad)``: the bits that one envying pair
    fails, the k-th of the (distinct) ``axiom_ids`` owning ``1 << k``, with
    ``good``/``bad`` the envier's chen-liu masks.  Cached: a scan's setup is
    a noticeable share of a scan of a small instance."""
    groups = [0] * (_OP_EQ + 1)
    for k, ax in enumerate(axiom_ids):
        for g in _GROUPS_OF[ax]:
            groups[g] |= 1 << k
    ef, ef1, ef1pm, cl, x_lt, x_eq, p_gt, p_eq, ox_gt, ox_eq, op_gt, op_eq = groups
    unrepaired = ef | ef1 | ef1pm
    keep_ef1 = ~ef1
    keep_ef1pm = ~ef1pm
    keep_removal = keep_ef1 & keep_ef1pm
    added = op_gt | ef1pm
    # failures only set bits and repairs only clear EF1 and EF1-pm bits, so
    # once every other bit has failed and those two are repaired, the pair's
    # outcome can no longer change
    settled = ((1 << len(axiom_ids)) - 1) & keep_removal

    def fails(t, a, b, va, vb, good, bad):
        out = unrepaired
        s = b
        while s:
            if out == settled:
                return out
            bit = s & -s
            s ^= bit
            rb = t[b ^ bit]
            if va >= rb:
                out &= keep_removal
                continue
            if rb < vb:
                out |= x_lt
            elif rb == vb:
                out |= x_eq
            if p_gt:
                g = t[a | bit]
                if g > va:
                    out |= p_gt
                elif g == va:
                    out |= p_eq
            if good & bit:
                out |= cl
        s = a
        while s:
            if out == settled:
                return out
            bit = s & -s
            s ^= bit
            ra = t[a ^ bit]
            if ra > va:
                if ra >= vb:
                    out &= keep_ef1
                else:
                    out |= ox_gt
                if added:
                    if va < t[b | bit]:
                        out |= op_gt
                    else:
                        out &= keep_ef1pm
            elif ra == va:
                out |= ox_eq
                if op_eq and va < t[b | bit]:
                    out |= op_eq
            if bad & bit and va < t[b | bit]:
                out |= cl
        return out
    return fails


def held(inst: Instance, axiom_ids) -> tuple:
    """``(bit_of, scan)`` deciding the axioms ``axiom_ids`` for one scan.

    ``bit_of`` maps each distinct axiom id, in order, to ``1 << k``.
    ``scan(alloc, want)`` returns the bits of ``want`` whose axioms the
    allocation satisfies, each agreeing with ``check_axiom(...).satisfied``.
    It reads each ordered pair's two bundle values once; an allocation with
    no envying pair returns ``want`` untouched, and the pass over an envying
    pair drops the bits it fails from ``want``, returning 0 once none is
    left.  Nothing is kept on the instance.  Raises ``ValueError`` for an
    unknown axiom and :class:`NotWellDefinedError` for chen-liu outside its
    domain.
    """
    ids = tuple(dict.fromkeys(axiom_ids))
    masks = _chen_liu_masks(inst, ids)
    n = inst.n
    tabs = [v.table for v in inst.valuations]
    pairs = [(i, j, tabs[i], *masks[i]) for i in range(n) for j in range(n) if i != j]
    fails = _pair_pass(ids)
    bit_of = {ax: 1 << k for k, ax in enumerate(ids)}

    def scan(alloc, want):
        if not want:
            return 0
        for i, j, t, good, bad in pairs:
            a = alloc[i]
            b = alloc[j]
            va = t[a]
            vb = t[b]
            if va < vb:
                want &= ~fails(t, a, b, va, vb, good, bad)
                if not want:
                    return 0
        return want
    return bit_of, scan
