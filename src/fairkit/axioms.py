"""Fairness-axiom checkers with violation witnesses.

Envy is strict: agent i envies agent j when v_i(A_i) < v_i(A_j).  Every
checker evaluates every ordered agent pair and reports all violations, each
as a :class:`Witness` whose lhs < rhs reproduces the failed inequality.

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

ALL_AXIOMS = (EF, EF1, EFX, EF1PM, EFXPM, EFX0, EFXPM0, VARIANT_A, VARIANT_B, CHEN_LIU)
VARIANT_AXIOMS = (EFX0, EFXPM0, VARIANT_A, VARIANT_B, CHEN_LIU)

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
# the "up to any item" family
#
# Clause shapes, for an envying pair (i, j) with own bundle a and envied
# bundle b, all values through v_i:
#   removal clause   qualify "x":  v(b) > v(b - o)        (good judged at b)
#   removal clause   qualify "pm": v(a + o) > v(a)        (good judged at a)
#   both repair with              v(a) >= v(b - o)
#   own-item clause  qualify:     v(a) < v(a - o)         (bad judged at a)
#   repair "x":                   v(a - o) >= v(b)
#   repair "pm":                  v(a) >= v(b + o)
# The zero variants turn the strict qualifying comparisons non-strict.

_EFX_FAMILY = {
    EFX: (False, False, True),
    EFXPM: (True, True, True),
    EFX0: (False, False, False),
    EFXPM0: (True, True, False),
    VARIANT_A: (True, False, True),
    VARIANT_B: (False, True, True),
}


def _efx_pair(t, a, b, i, j, pm_removal, pm_own, strict):
    """(violations, saw_qualifying) for one envying pair."""
    va = t[a]
    vb = t[b]
    viol = []
    saw = False
    s = b
    while s:
        bit = s & -s
        s ^= bit
        rb = t[b ^ bit]
        if pm_removal:
            q = t[a | bit] > va if strict else t[a | bit] >= va
        else:
            q = vb > rb if strict else vb >= rb
        if q:
            saw = True
            if va < rb:
                viol.append(Witness(i, j, REMOVED_GOOD, bit.bit_length() - 1, va, rb))
    s = a
    while s:
        bit = s & -s
        s ^= bit
        ra = t[a ^ bit]
        if (ra > va) if strict else (ra >= va):
            saw = True
            if pm_own:
                ab = t[b | bit]
                if va < ab:
                    viol.append(Witness(i, j, ADDED_BAD, bit.bit_length() - 1, va, ab))
            else:
                if ra < vb:
                    viol.append(Witness(i, j, REMOVED_BAD, bit.bit_length() - 1, ra, vb))
    return viol, saw


def _check_efx_family(inst, alloc, axiom):
    pm_removal, pm_own, strict = _EFX_FAMILY[axiom]
    violations = []
    vacuous = []
    n = inst.n
    for i in range(n):
        t = inst.valuations[i].table
        va = t[alloc[i]]
        for j in range(n):
            if i == j or va >= t[alloc[j]]:
                continue
            viol, saw = _efx_pair(t, alloc[i], alloc[j], i, j, pm_removal, pm_own, strict)
            violations.extend(viol)
            if not saw:
                vacuous.append(Witness(i, j, VACUOUS_ENVY, None, va, t[alloc[j]]))
    return Verdict(axiom, not violations, tuple(violations), tuple(vacuous))


# ---------------------------------------------------------------------------
# the "up to some item" family

def _ef1_pair(t, a, b, i, j, pm):
    """Violation witnesses for one envying pair, or [] when repaired.

    EF1 repairs by removing some item from either bundle.  The pm variant
    repairs by removing some item from the envied bundle or by adding some
    own item that is a strict bad for the envier to the envied bundle.  On
    violation the closest single-item repair of each clause is reported; if a
    clause has no candidate items it contributes no witness.
    """
    va = t[a]
    vb = t[b]
    best_removed = None
    s = b
    while s:
        bit = s & -s
        s ^= bit
        rb = t[b ^ bit]
        if va >= rb:
            return []
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
                    return []
                if best_second is None or ab < best_second[1]:
                    best_second = (bit.bit_length() - 1, ab)
        else:
            if ra >= vb:
                return []
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
    return viol


def _check_ef1_family(inst, alloc, axiom):
    pm = axiom == EF1PM
    violations = []
    n = inst.n
    for i in range(n):
        t = inst.valuations[i].table
        va = t[alloc[i]]
        for j in range(n):
            if i == j or va >= t[alloc[j]]:
                continue
            violations.extend(_ef1_pair(t, alloc[i], alloc[j], i, j, pm))
    return Verdict(axiom, not violations, tuple(violations))


def _check_ef(inst, alloc):
    violations = []
    n = inst.n
    for i in range(n):
        t = inst.valuations[i].table
        va = t[alloc[i]]
        for j in range(n):
            if i == j:
                continue
            vb = t[alloc[j]]
            if va < vb:
                violations.append(Witness(i, j, VACUOUS_ENVY, None, va, vb))
    return Verdict(EF, not violations, tuple(violations))


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


def _check_chen_liu(inst, alloc):
    if not well_defined(inst, CHEN_LIU):
        raise NotWellDefinedError(
            "the chen-liu variant is only well-defined for problems with "
            "generally good/bad items"
        )
    matrix = _item_classes(inst)[1]
    violations = []
    vacuous = []
    n = inst.n
    for i in range(n):
        t = inst.valuations[i].table
        good = matrix.generally_good[i]
        bad = matrix.generally_bad[i]
        a = alloc[i]
        va = t[a]
        for j in range(n):
            if i == j:
                continue
            b = alloc[j]
            if va >= t[b]:
                continue
            saw = False
            s = a
            while s:
                bit = s & -s
                s ^= bit
                o = bit.bit_length() - 1
                if bad[o]:
                    saw = True
                    ab = t[b | bit]
                    if va < ab:
                        violations.append(Witness(i, j, ADDED_BAD, o, va, ab))
            s = b
            while s:
                bit = s & -s
                s ^= bit
                o = bit.bit_length() - 1
                if good[o]:
                    saw = True
                    rb = t[b ^ bit]
                    if va < rb:
                        violations.append(Witness(i, j, REMOVED_GOOD, o, va, rb))
            if not saw:
                vacuous.append(Witness(i, j, VACUOUS_ENVY, None, va, t[b]))
    return Verdict(CHEN_LIU, not violations, tuple(violations), tuple(vacuous))


# ---------------------------------------------------------------------------
# public entry points

def check_ef(inst: Instance, alloc: Allocation) -> Verdict:
    return _check_ef(inst, alloc)


def check_ef1(inst: Instance, alloc: Allocation) -> Verdict:
    return _check_ef1_family(inst, alloc, EF1)


def check_ef1pm(inst: Instance, alloc: Allocation) -> Verdict:
    return _check_ef1_family(inst, alloc, EF1PM)


def check_efx(inst: Instance, alloc: Allocation) -> Verdict:
    return _check_efx_family(inst, alloc, EFX)


def check_efxpm(inst: Instance, alloc: Allocation) -> Verdict:
    return _check_efx_family(inst, alloc, EFXPM)


def check_chen_liu(inst: Instance, alloc: Allocation) -> Verdict:
    return _check_chen_liu(inst, alloc)


def check_variant(inst: Instance, alloc: Allocation, axiom: str) -> Verdict:
    if axiom not in VARIANT_AXIOMS:
        raise ValueError(f"{axiom!r} is not a variant axiom")
    return check_axiom(inst, alloc, axiom)


def check_axiom(inst: Instance, alloc: Allocation, axiom: str) -> Verdict:
    if axiom == EF:
        return _check_ef(inst, alloc)
    if axiom in (EF1, EF1PM):
        return _check_ef1_family(inst, alloc, axiom)
    if axiom in _EFX_FAMILY:
        return _check_efx_family(inst, alloc, axiom)
    if axiom == CHEN_LIU:
        return _check_chen_liu(inst, alloc)
    raise ValueError(f"unknown axiom {axiom!r}")


def satisfies(inst: Instance, alloc: Allocation, axiom: str) -> bool:
    """Boolean form of :func:`check_axiom` (same semantics)."""
    return check_axiom(inst, alloc, axiom).satisfied
