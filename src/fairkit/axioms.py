"""Fairness-axiom checkers with violation witnesses, and boolean kernels.

Envy is strict: agent i envies agent j when v_i(A_i) < v_i(A_j).  Every
checker evaluates every ordered agent pair and reports all violations, each
as a :class:`Witness` whose lhs < rhs reproduces the failed inequality.
:func:`kernels` decides the same axioms without witnesses, for scans that
only need yes or no; :func:`satisfies` is one kernel applied once.

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
# Chen-Liu qualifies the agent's generally good items for the removal clause
# and its generally bad own items for the "pm" own-item clause.

_EFX_FAMILY = {
    EFX: (False, False, True),
    EFXPM: (True, True, True),
    EFX0: (False, False, False),
    EFXPM0: (True, True, False),
    VARIANT_A: (True, False, True),
    VARIANT_B: (False, True, True),
}


def _efx_pair(t, a, b, i, j, pm_removal, pm_own, strict, good=None, bad=None):
    """(violations, saw_qualifying) for one envying pair.

    ``good`` and ``bad`` (chen-liu) are item masks that replace the
    qualifying comparisons of the removal and own-item clauses; chen-liu
    lists its own-item violations first.
    """
    va = t[a]
    vb = t[b]
    removed = []
    own = []
    saw = False
    s = b
    while s:
        bit = s & -s
        s ^= bit
        rb = t[b ^ bit]
        if good is not None:
            q = good & bit
        elif pm_removal:
            q = t[a | bit] > va if strict else t[a | bit] >= va
        else:
            q = vb > rb if strict else vb >= rb
        if q:
            saw = True
            if va < rb:
                removed.append(Witness(i, j, REMOVED_GOOD, bit.bit_length() - 1, va, rb))
    s = a
    while s:
        bit = s & -s
        s ^= bit
        ra = t[a ^ bit]
        if bad is not None:
            q = bad & bit
        else:
            q = ra > va if strict else ra >= va
        if q:
            saw = True
            if pm_own:
                ab = t[b | bit]
                if va < ab:
                    own.append(Witness(i, j, ADDED_BAD, bit.bit_length() - 1, va, ab))
            else:
                if ra < vb:
                    own.append(Witness(i, j, REMOVED_BAD, bit.bit_length() - 1, ra, vb))
    return (own + removed if good is not None else removed + own), saw


def _check_efx_family(inst, alloc, axiom):
    n = inst.n
    if axiom == CHEN_LIU:
        _require_chen_liu(inst)
        matrix = _item_classes(inst)[1]
        pm_removal, pm_own, strict = False, True, True
        goods = _masks(matrix.generally_good)
        bads = _masks(matrix.generally_bad)
    else:
        pm_removal, pm_own, strict = _EFX_FAMILY[axiom]
        goods = bads = (None,) * n
    violations = []
    vacuous = []
    for i in range(n):
        t = inst.valuations[i].table
        va = t[alloc[i]]
        for j in range(n):
            if i == j or va >= t[alloc[j]]:
                continue
            viol, saw = _efx_pair(t, alloc[i], alloc[j], i, j, pm_removal, pm_own, strict,
                                  goods[i], bads[i])
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


def _require_chen_liu(inst):
    if not well_defined(inst, CHEN_LIU):
        raise NotWellDefinedError(
            "the chen-liu variant is only well-defined for problems with "
            "generally good/bad items"
        )


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
    return _check_efx_family(inst, alloc, CHEN_LIU)


def check_variant(inst: Instance, alloc: Allocation, axiom: str) -> Verdict:
    if axiom not in VARIANT_AXIOMS:
        raise ValueError(f"{axiom!r} is not a variant axiom")
    return check_axiom(inst, alloc, axiom)


def check_axiom(inst: Instance, alloc: Allocation, axiom: str) -> Verdict:
    if axiom == EF:
        return _check_ef(inst, alloc)
    if axiom in (EF1, EF1PM):
        return _check_ef1_family(inst, alloc, axiom)
    if axiom in _EFX_FAMILY or axiom == CHEN_LIU:
        return _check_efx_family(inst, alloc, axiom)
    raise ValueError(f"unknown axiom {axiom!r}")


def satisfies(inst: Instance, alloc: Allocation, axiom: str) -> bool:
    """Boolean form of :func:`check_axiom` (same semantics, no witnesses).

    A scan over many allocations should build :func:`kernels` once instead.
    """
    return kernels(inst, (axiom,))[axiom](alloc)


# ---------------------------------------------------------------------------
# boolean kernels
#
# A kernel decides one axiom for one allocation, stops at the first failing
# envying pair and builds no witness.  The clauses that look at one bundle at
# a time are read from one-removal rows.  For a table t and a bundle x, with
# r_o = t[x - o] over the items o of x, the row holds
#   lo = min r_o,   hi = max r_o,
#   below = max{r_o < t[x]},   below0 = max{r_o <= t[x]},
#   above = min{r_o > t[x]},   above0 = min{r_o >= t[x]}.
# A max over no item is the table's minimum and a min over no item its
# maximum.  For an envying pair, t[a] < t[b], so an empty set makes an
# "exists" clause read false and a "for all" clause read true, and every
# comparison stays exact.  For the envying pair (a, b) of one agent:
#   EF1            t[a] >= lo[b]  or  hi[a] >= t[b]
#   EFX removal    t[a] >= below[b]       (EFX0: below0)
#   EFX own item   above[a] >= t[b]       (EFX0: above0)
#   EF1-pm         t[a] >= lo[b]  or  an own strict bad o with t[a] >= t[b + o]
#   chen-liu       t[a] >= the max of r_o over the agent's generally good o in b
# The pm clauses and chen-liu's added-bad clause depend on both bundles and
# keep an early-exit scan over the items.

_LO, _HI, _BELOW, _BELOW0, _ABOVE, _ABOVE0 = range(6)


def _one_removal_row(t, x, tmin, tmax):
    """(lo, hi, below, below0, above, above0) of bundle ``x`` under table ``t``."""
    v = t[x]
    lo = above = tmax
    hi = below = tmin
    tie = False
    s = x
    while s:
        bit = s & -s
        s ^= bit
        r = t[x ^ bit]
        if r < lo:
            lo = r
        if r > hi:
            hi = r
        if r < v:
            if r > below:
                below = r
        elif r > v:
            if r < above:
                above = r
        else:
            tie = True
    return lo, hi, below, v if tie else below, above, v if tie else above


class _Rows:
    """One table's rows for one scan, each filled on first use.

    ``cols`` holds the six one-removal columns.  For chen-liu, ``good`` and
    ``bad`` are the masks of the agent's generally good and bad items and
    ``good_max[x]`` is the max of ``t[x - o]`` over the good items o of x.
    """

    __slots__ = ("t", "tmin", "tmax", "cols", "good", "bad", "good_max")

    def __init__(self, t, good=None, bad=None):
        empty = [None] * len(t)
        self.t = t
        self.tmin = min(t)
        self.tmax = max(t)
        self.cols = (empty, empty[:], empty[:], empty[:], empty[:], empty[:])
        self.good = good
        self.bad = bad
        self.good_max = None if good is None else empty[:]

    def fill(self, x):
        row = _one_removal_row(self.t, x, self.tmin, self.tmax)
        lo, hi, below, below0, above, above0 = self.cols
        lo[x], hi[x], below[x], below0[x], above[x], above0[x] = row
        return row

    def fill_good(self, x):
        t = self.t
        best = self.tmin
        s = x & self.good
        while s:
            bit = s & -s
            s ^= bit
            r = t[x ^ bit]
            if r > best:
                best = r
        self.good_max[x] = best
        return best


# Pair tests ok(rows, t, a, b, va, vb): one envying pair of an agent with
# table t and rows ``rows``, own bundle a, envied bundle b, va = t[a] < vb = t[b].

def _never(rows, t, a, b, va, vb):
    return False


def _both(first, second):
    return lambda rows, t, a, b, va, vb: (first(rows, t, a, b, va, vb)
                                          and second(rows, t, a, b, va, vb))


def _either(first, second):
    return lambda rows, t, a, b, va, vb: (first(rows, t, a, b, va, vb)
                                          or second(rows, t, a, b, va, vb))


def _removal_col(k):
    """va >= column k of the envied bundle's row."""
    def ok(rows, t, a, b, va, vb):
        x = rows.cols[k][b]
        if x is None:
            x = rows.fill(b)[k]
        return va >= x
    return ok


def _own_col(k):
    """Column k of the own bundle's row >= vb."""
    def ok(rows, t, a, b, va, vb):
        x = rows.cols[k][a]
        if x is None:
            x = rows.fill(a)[k]
        return x >= vb
    return ok


def _good_removal(rows, t, a, b, va, vb):
    """chen-liu's removal clause: va >= the max of t[b - o] over good o."""
    x = rows.good_max[b]
    if x is None:
        x = rows.fill_good(b)
    return va >= x


def _pm_removal(strict):
    """Every o in b that is a good at a (t[a + o] > va, or >=) has va >= t[b - o]."""
    def ok(rows, t, a, b, va, vb):
        s = b
        while s:
            bit = s & -s
            s ^= bit
            g = t[a | bit]
            if ((g > va) if strict else (g >= va)) and va < t[b ^ bit]:
                return False
        return True
    return ok


def _pm_own(strict):
    """Every own o that is a bad at a (t[a - o] > va, or >=) has va >= t[b + o]."""
    def ok(rows, t, a, b, va, vb):
        s = a
        while s:
            bit = s & -s
            s ^= bit
            r = t[a ^ bit]
            if ((r > va) if strict else (r >= va)) and va < t[b | bit]:
                return False
        return True
    return ok


def _ef1pm_own(rows, t, a, b, va, vb):
    """Some own strict bad o has va >= t[b + o]."""
    s = a
    while s:
        bit = s & -s
        s ^= bit
        if t[a ^ bit] > va and va >= t[b | bit]:
            return True
    return False


def _chen_liu_own(rows, t, a, b, va, vb):
    """Every own generally bad o has va >= t[b + o]."""
    s = a & rows.bad
    while s:
        bit = s & -s
        s ^= bit
        if va < t[b | bit]:
            return False
    return True


def _efx_pair_test(pm_removal, pm_own, strict):
    removal = _pm_removal(strict) if pm_removal else _removal_col(_BELOW if strict else _BELOW0)
    own = _pm_own(strict) if pm_own else _own_col(_ABOVE if strict else _ABOVE0)
    return _both(removal, own)


_PAIR_TESTS = {
    EF: _never,
    EF1: _either(_removal_col(_LO), _own_col(_HI)),
    EF1PM: _either(_removal_col(_LO), _ef1pm_own),
    CHEN_LIU: _both(_good_removal, _chen_liu_own),
    **{ax: _efx_pair_test(*spec) for ax, spec in _EFX_FAMILY.items()},
}

# the axioms whose pair tests read no rows
_ROWLESS = frozenset([EF, EFXPM, EFXPM0])


def _masks(flags):
    """Per-agent item flags -> per-agent item masks."""
    return [sum(1 << o for o, flag in enumerate(row) if flag) for row in flags]


def kernels(inst: Instance, axiom_ids) -> dict:
    """Boolean kernels ``alloc -> bool``, one per axiom id, for one scan.

    Each kernel agrees with ``check_axiom(...).satisfied`` but stops at the
    first failing envying pair and builds no witness.  The kernels share
    their rows, and agents holding the same table object share its rows.
    Build them once per scan and drop them with it: the rows are not kept on
    the instance.  Raises ``ValueError`` for an unknown axiom and
    :class:`NotWellDefinedError` for chen-liu outside its domain.
    """
    tests = {}
    for ax in axiom_ids:
        test = _PAIR_TESTS.get(ax)
        if test is None:
            raise ValueError(f"unknown axiom {ax!r}")
        tests[ax] = test
    tabs = tuple(v.table for v in inst.valuations)
    n = len(tabs)
    rows: list = [None] * n
    if not _ROWLESS.issuperset(tests):
        goods = bads = (None,) * n
        if CHEN_LIU in tests:
            _require_chen_liu(inst)
            matrix = _item_classes(inst)[1]
            goods = _masks(matrix.generally_good)
            bads = _masks(matrix.generally_bad)
        shared: dict = {}
        for i, t in enumerate(tabs):
            r = shared.get(id(t))
            if r is None:
                r = shared[id(t)] = _Rows(t, goods[i], bads[i])
            rows[i] = r
    pairs = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    return {ax: _over_envying_pairs(pairs, tabs, rows, test) for ax, test in tests.items()}


def _over_envying_pairs(pairs, tabs, rows, ok):
    """The kernel: every envying ordered pair passes ``ok``."""
    def holds(alloc):
        for i, j in pairs:
            t = tabs[i]
            a = alloc[i]
            b = alloc[j]
            va = t[a]
            vb = t[b]
            if va < vb and not ok(rows[i], t, a, b, va, vb):
                return False
        return True
    return holds
