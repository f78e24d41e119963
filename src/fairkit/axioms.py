"""Fairness-axiom checkers with violation witnesses, and one fused scan.

Envy is strict: agent i envies agent j when v_i(A_i) < v_i(A_j).
:func:`check_axiom` is the one witness checker: it walks every ordered
envying pair once and reports all violations, each as a :class:`Witness`
whose lhs < rhs reproduces the failed inequality; :func:`satisfies` is its
yes or no for one allocation.  For scans over many allocations, :func:`held`
decides many axioms at once without witnesses: one bit per axiom, from one
pass over each envying pair's two bundles, and none at all for an envy-free
allocation.  Both read one clause table, in which each axiom is one row.

The "up to any item" family (EFX and friends) uses universally quantified
clauses over strictly qualifying items, so an envying pair with no qualifying
item at all is satisfied vacuously; such pairs are surfaced on the verdict's
``vacuous`` list so reports stay self-explanatory.  The "up to some item"
family (EF1, EF1-pm) demands an actual single-item repair.  Per envying pair,
when some item qualifies and EFX (EFX-pm) accepts the pair, EF1 (EF1-pm)
accepts it too, because the qualifying item is the repair.
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
# through the envier's table t), each item o qualifies for the groups its
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
# An envying pair with no qualifying item satisfies these axioms vacuously.
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
# the pair functions: (violations, saw_qualifying) for one envying pair

def _efx_pair(t, a, b, va, vb, i, j, groups, good, bad):
    """The pair's violations of an axiom of the qualifying-item groups, and
    whether any item qualified; ``good`` and ``bad`` are the envier's
    chen-liu masks.  Chen-liu lists its own-item violations first."""
    removed = []
    own = []
    saw = False
    s = b
    while s:
        bit = s & -s
        s ^= bit
        rb = t[b ^ bit]
        if (_X_LT in groups and rb < vb or _X_EQ in groups and rb == vb
                or _P_GT in groups and t[a | bit] > va or _P_EQ in groups and t[a | bit] == va
                or _CL in groups and good & bit):
            saw = True
            if va < rb:
                removed.append(Witness(i, j, REMOVED_GOOD, bit.bit_length() - 1, va, rb))
    s = a
    while s:
        bit = s & -s
        s ^= bit
        ra = t[a ^ bit]
        if ((_OX_GT in groups or _OP_GT in groups) and ra > va
                or (_OX_EQ in groups or _OP_EQ in groups) and ra == va
                or _CL in groups and bad & bit):
            saw = True
            if _OX_GT in groups:
                if ra < vb:
                    own.append(Witness(i, j, REMOVED_BAD, bit.bit_length() - 1, ra, vb))
            else:
                ab = t[b | bit]
                if va < ab:
                    own.append(Witness(i, j, ADDED_BAD, bit.bit_length() - 1, va, ab))
    return (own + removed if _CL in groups else removed + own), saw


def _ef1_pair(t, a, b, va, vb, i, j, groups, good, bad):
    """(violations, True) for one envying pair, violations [] when repaired.

    EF1 repairs by removing some item from either bundle.  The pm variant
    repairs by removing some item from the envied bundle or by adding some
    own item that is a strict bad for the envier to the envied bundle.  On
    violation the closest single-item repair of each clause is reported; if a
    clause has no candidate items it contributes no witness.
    """
    pm = _EF1PM in groups
    best_removed = None
    s = b
    while s:
        bit = s & -s
        s ^= bit
        rb = t[b ^ bit]
        if va >= rb:
            return [], True
        if best_removed is None or rb < best_removed[1]:
            best_removed = (bit.bit_length() - 1, rb)
    best_second = None
    s = a
    while s:
        bit = s & -s
        s ^= bit
        ra = t[a ^ bit]
        if pm:
            if ra > va:  # only strict bads may move over
                ab = t[b | bit]
                if va >= ab:
                    return [], True
                if best_second is None or ab < best_second[1]:
                    best_second = (bit.bit_length() - 1, ab)
        else:
            if ra >= vb:
                return [], True
            if best_second is None or ra > best_second[1]:
                best_second = (bit.bit_length() - 1, ra)
    viol = []
    if best_removed is not None:
        viol.append(Witness(i, j, REMOVED_GOOD, best_removed[0], va, best_removed[1]))
    if best_second is not None:
        o, val = best_second
        if pm:
            viol.append(Witness(i, j, ADDED_BAD, o, va, val))
        else:
            viol.append(Witness(i, j, REMOVED_BAD, o, val, vb))
    if not viol:
        viol.append(Witness(i, j, VACUOUS_ENVY, None, va, vb))
    return viol, True


def _ef_pair(t, a, b, va, vb, i, j, groups, good, bad):
    return [Witness(i, j, VACUOUS_ENVY, None, va, vb)], True


_PAIR_OF = {_EF: _ef_pair, _EF1: _ef1_pair, _EF1PM: _ef1_pair}


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

def check_axiom(inst: Instance, alloc: Allocation, axiom: str) -> Verdict:
    """The verdict of ``axiom`` on one allocation, with every witness.

    One pass over the ordered pairs (i, j) in which i envies j calls the
    pair function of the axiom's groups once per pair; an envying pair in
    which no item qualifies (EFX family and chen-liu) is listed as vacuous.
    """
    masks = _chen_liu_masks(inst, (axiom,))
    groups = _GROUPS_OF[axiom]
    pair = _PAIR_OF.get(groups[0], _efx_pair)
    violations = []
    vacuous = []
    for i, v in enumerate(inst.valuations):
        t = v.table
        a = alloc[i]
        va = t[a]
        good, bad = masks[i]
        for j, b in enumerate(alloc):
            vb = t[b]
            if va < vb:  # never true for j == i
                viol, saw = pair(t, a, b, va, vb, i, j, groups, good, bad)
                violations += viol
                if not saw:
                    vacuous.append(Witness(i, j, VACUOUS_ENVY, None, va, vb))
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
