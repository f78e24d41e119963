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
allocation.  With two agents, :func:`held_columns` decides them, and Pareto
optimality, for every allocation at once, with no pair pass: integer
arithmetic over order-preserving codes of the agents' values, packed in
8-, 16- or 32-bit lanes, decides every bundle of both agents at once, and one AND of
the two agents' columns gives the held sets of all allocations as one lane
string.  All three read the one clause table through one cached reading of
its rows.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, repeat
from typing import Optional

from .core import TWO_AGENT_GETTERS, Allocation, Instance
from .efficiency import _maxima
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


@lru_cache(maxsize=64)
def _groups(ids):
    """Per clause group, the bits of the axioms ``ids`` that contain it, the
    k-th axiom owning ``1 << k``: the one reading of the table's rows, by
    which the witness checker, the pair pass and the lanes all decide.
    Cached, as a scan's setup is a noticeable share of a small scan."""
    groups = [0] * (_OP_EQ + 1)
    for k, ax in enumerate(ids):
        for g in _GROUPS_OF[ax]:
            groups[g] |= 1 << k
    return tuple(groups)


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

def _reading(ef, ef1, ef1pm, cl, x_lt, x_eq, p_gt, p_eq, ox_gt, ox_eq, op_gt, op_eq):
    """The flags by which :func:`check_axiom` reads one axiom's groups (:func:`_groups`)."""
    return (ef | ef1 | ef1pm,           # some: one repairing candidate suffices
            cl,                         # own_first: chen-liu lists a's items first
            ef1 | ef1pm,                # every item of b is a candidate
            ef1,                        # every item of a is a candidate
            x_lt, x_eq,                 # o in b with t[b - o] < vb, == vb
            p_gt, p_eq,                 # o in b with t[a + o] > va, == va
            ef1pm | ox_gt | op_gt,      # o in a with t[a - o] > va
            ox_eq | op_eq,              # o in a with t[a - o] == va
            ef1 | ox_gt | ox_eq)        # removal: a's inequality is removed-bad


_READING_OF = {ax: _reading(*_groups((ax,))) for ax in ALL_AXIOMS}


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
    reading = _READING_OF[axiom]
    (some, own_first, every_b, every_a,
     x_lt, x_eq, p_gt, p_eq, a_gt, a_eq, removal) = reading
    clauses = any(reading[2:10])  # some item can be a candidate, not only by mask
    violations = []
    vacuous = []
    for i, v in enumerate(inst.valuations):
        t = v.table
        a = alloc[i]
        va = t[a]
        good, bad = masks[i]
        walk = clauses or good or bad
        for j, b in enumerate(alloc):
            vb = t[b]
            if va >= vb:  # no envy, always so for j == i
                continue
            repaired = False
            on_b = []  # the candidates of each side that do not repair the envy
            s = b if walk else 0
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
            s = a if walk else 0
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
    ef, ef1, ef1pm, cl, x_lt, x_eq, p_gt, p_eq, ox_gt, ox_eq, op_gt, op_eq = _groups(axiom_ids)
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


def held(inst: Instance, axiom_ids):
    """``scan(alloc)``: the bits of the axioms ``axiom_ids`` that the
    allocation satisfies, the k-th distinct id owning ``1 << k``, each
    agreeing with ``check_axiom(...).satisfied``.

    It reads each ordered pair's two bundle values once; an allocation with
    no envying pair holds every bit, and the pass over an envying pair drops
    the bits it fails, returning 0 once none is left.  With no axiom, the
    scan returns 0 at once and no pair pass is built.  Nothing is kept on
    the instance.  Raises ``ValueError`` for an unknown axiom and
    :class:`NotWellDefinedError` for chen-liu outside its domain.
    """
    ids = tuple(dict.fromkeys(axiom_ids))
    masks = _chen_liu_masks(inst, ids)
    if not ids:
        return _nothing
    n = inst.n
    tabs = [v.table for v in inst.valuations]
    pairs = [(i, j, tabs[i], *masks[i]) for i in range(n) for j in range(n) if i != j]
    fails = _pair_pass(ids)
    every = (1 << len(ids)) - 1

    def scan(alloc):
        want = every
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
    return scan


def _nothing(alloc):
    """The scan of no axiom."""
    return 0


def held_columns(inst: Instance, axiom_ids, po: bool = False):
    """The held sets of a two-agent instance's 2**m allocations, in
    enumeration order, as one lane string: entry k holds the bits of the
    axioms ``axiom_ids`` (numbered as in :func:`held`) that allocation k
    satisfies and, with ``po``, the po bit ``1 << len(ids)`` (``ids`` the
    distinct ids) iff its profile is on the Pareto front.  A ``bytes`` for
    8-bit lanes, an ``array`` for 16- and 32-bit ones.

    With two agents the envied bundle is the complement of the envier's, so
    whether agent i envies, and which axioms its pair fails, depends on its
    own bundle x alone.  :func:`_columns` decides every bundle of both
    agents at once: entry x of agent i's column holds every bit when i does
    not envy, else every bit but those that i's pair pass against
    ``full ^ x`` (``_pair_pass``) fails.  Allocation k holds
    ``c0[full ^ k] & c1[k]``, which is :func:`held`'s ``scan`` of it: one
    big-int AND of the two columns, each read in allocation order through
    its agent's ``core.TWO_AGENT_GETTERS``.  The po bit comes from the same
    ranks, read the same way (:func:`_on_front`).  When every value is an
    ``int`` in [-64, 63] and the held bits fit 8-bit lanes, each value v's
    rank is the offset code v + 64, made at C level (:func:`_offset_ranks`);
    otherwise (a ``Fraction``, an int outside that window, or more than 8
    held bits) one rank map over the distinct values of both tables gives
    the ranks, and lanes are the narrowest of 8, 16 and 32 bits that hold
    every rank and every bit, the po bit included.  A lane int is 512 KB
    at 2x16 with 32-bit lanes; one call with ``po`` peaked at 34.6 MB there
    (every value distinct), and at 1.7 MB at 2x14 with 8-bit lanes.  Errors
    as in :func:`held`, and ``ValueError`` unless n is 2.
    """
    if inst.n != 2:
        raise ValueError(f"held_columns needs two agents, got {inst.n}")
    ids = tuple(dict.fromkeys(axiom_ids))
    masks = _chen_liu_masks(inst, ids)
    t0, t1 = (v.table for v in inst.valuations)
    m, k = inst.m, len(ids)
    bits = (1 << (k + po)) - 1
    ranks = _offset_ranks(m, t0, t1) if bits < 1 << 8 else None
    if ranks is not None:
        d, w = 1 << 7, 8
    else:
        # one rank map serves both tables, so ranking costs one sort
        rank = dict(zip(sorted({*t0, *t1}), count()))
        d = len(rank)
        w = 8 if d <= 1 << 7 and bits < 1 << 8 else 16 if d <= 1 << 15 and bits < 1 << 16 else 32
        ranks = map(rank.__getitem__, t0 + t1)
        ranks = bytes(ranks) if w == 8 else array(_TYPECODE[w], ranks)
    size = 1 << m
    get0, get1 = TWO_AGENT_GETTERS
    held = 0
    if ids:
        both = _unpack(_columns(ranks, m, w, (1 << k) - 1, _groups(ids), masks), w, 2 * size)
        held = _pack(get0(both[:size])) & _pack(get1(both[size:]))
    if po:
        held |= _on_front(get0(ranks[:size]), get1(ranks[size:]), d, w) >> (w - 1 - k)
    return _unpack(held, w, size)


# ---------------------------------------------------------------------------
# the lane-parallel columns
#
# The two agents' tables become Python ints of 2 * 2**m lanes, w bits each,
# agent i's bundle x in lane x + i * 2**m: VA holds the rank of t_i[x] and
# VB that of t_i[full ^ x], the envier's va and vb when it owns x.  A rank
# is any injective, order-preserving code of the values of both tables, so
# it keeps every comparison of the pair pass, which compares values of one
# table.  Int tables within [-64, 63] take the offset code v + 64, in
# [0, 127], with 8-bit lanes whenever the held bits fit them; every other
# table (a Fraction, an int outside the window), and every call with more
# than 8 held bits, takes the rank map, the position of a value among the
# distinct values of both tables, and w is the narrowest of 8, 16 and 32
# whose lanes hold every rank below their top bit and every held bit, the
# po bit included.  With H the top bit
# of every lane, ((A | H) - B) & H has a lane's top bit set iff A >= B
# there, and no lane borrows from the next; ((A | H) - (B + 1)) & H tests
# A > B, and ~(((X | H) - L1) | X) & H that X is 0.  The memory figures in
# :func:`held_columns` are tracemalloc peaks, with the rank map and the
# cached masks, taken before the offset code.
#
# For item o, shifting VA and VB down by o lanes (D_A = VA >> s, D_B =
# VB >> s) puts t[y | o] and t[full ^ (y | o)] in each lane y that lacks o.
# That one frame serves both sides of the pair pass:
#   on b (o not in x = y): va = VA, vb = VB, t[a + o] = D_A, t[b - o] = D_B;
#   on a (o in x = y | o): va = D_A, vb = D_B, t[a - o] = VA, t[b + o] = VB,
# and a-side outcomes are shifted up by o lanes, into lane x.  Each clause
# group collects the lanes where one of its items fails (for EF1 and EF1-pm,
# where one repairs), and an axiom fails on the envying lanes where one of
# its groups does; a group that no axiom has is not built.

_TYPECODE = {8: "B", 16: "H", 32: "I", 64: "Q"}
_SWAP = sys.byteorder == "big"  # lane ints are read and written little-endian
_PLUS64 = bytes(b + 64 & 255 for b in range(256))  # the signed byte v to v + 64


@lru_cache(maxsize=8)
def _signed_bytes(m):
    """The packer of both tables' 2 * 2**m values as signed bytes; cached
    like :func:`_lanes`."""
    return struct.Struct(f"<{2 << m}b")


def _offset_ranks(m, t0, t1):
    """The 8-bit codes v + 64 of the values v of ``t0`` then ``t1``, if
    every one is an ``int`` in [-64, 63], else None, at C level: one pack
    (a ``Fraction`` or an int outside [-128, 127] fails it) and one
    ``translate``, which takes [-64, 63] to [0, 127] and the rest of
    [-128, 127] to 128 and above."""
    try:
        codes = _signed_bytes(m).pack(*t0, *t1).translate(_PLUS64)
    except struct.error:
        return None
    return codes if codes.isascii() else None


@lru_cache(maxsize=8)
def _lanes(m, w):
    """``(L1, H, HB)`` for 2 * 2**m lanes of w bits: L1 holds 1 in every
    lane, H every lane's top bit, and ``HB[j]`` the top bits of the lanes
    whose bundle lacks item j.  Built from bytes in linear time; cached
    like :func:`core._layout` (0.5 MB at 2x14 with 8-bit lanes)."""
    size, lanes = w >> 3, 2 << m
    one, top = (1).to_bytes(size, "little"), (1 << w - 1).to_bytes(size, "little")
    l1 = int.from_bytes(one * lanes, "little")
    his = tuple(int.from_bytes((top * (1 << j) + bytes(size << j)) * (lanes >> j + 1), "little")
                for j in range(m))
    return l1, l1 << w - 1, his


def _columns(ranks, m, w, want, groups, masks):
    """Both agents' columns (see :func:`held_columns`) as one lane int,
    agent i's bundle x in lane x + i * 2**m, over their values' ``ranks``
    in that order (w-bit lanes), holding the bits of ``want`` that they
    leave, for the axioms whose clause groups are ``groups``
    (:func:`_groups`) and the agents' chen-liu ``masks``."""
    ef, ef1, ef1pm, cl, x_lt, x_eq, p_gt, p_eq, ox_gt, ox_eq, op_gt, op_eq = groups
    rep = ef1 | ef1pm                    # repairs
    eq = p_eq | ox_eq | op_eq            # an item leaving va unchanged
    up = ox_gt | op_gt | ef1pm           # o in a with t[a - o] > va
    above = op_gt | op_eq | ef1pm | cl   # o in a, read at t[b + o]
    reads_a = p_gt | eq | up | above     # t[a + o] and t[a - o] are read
    items = rep | x_lt | x_eq | reads_a  # any item at all
    half = w << m
    va = _pack(ranks)
    vb = _pack(ranks[::-1])  # agent 1's reversed table, then agent 0's
    vb = vb >> half | (vb & ((1 << half) - 1)) << half
    l1, h, his = _lanes(m, w)
    va1, vbh = va + l1, vb | h
    vbh1 = vbh - l1  # (vbh1 - X) & H: VB > X
    if cl:  # per item, the lanes of the agents for whom it is good, bad
        agent0 = (1 << half) - 1
        goods, bads = ([((g0 >> j & 1) * agent0 | (g1 >> j & 1) * agent0 << half) & hb
                        for j, hb in enumerate(his)] for g0, g1 in zip(*masks))
    # per group, the lanes where some item fails it; for EF1 and EF1-pm,
    # where some item repairs it.  A flag set keeps only top bits of the
    # lanes lacking the item (hb); a bare difference, whose top bits are
    # its flags, is only read through an AND with one.
    f_cl = f_xlt = f_xeq = f_pgt = f_peq = f_oxgt = f_oxeq = f_opgt = f_opeq = 0
    rep1 = rep2 = 0
    for j, hb in enumerate(his if items else ()):
        s = w << j
        db = vb >> s
        u = ((db | h) - va1) & hb  # b: va < t[b - o]; a: t[a - o] < vb
        if rep:
            fixed = hb ^ u  # b: va >= t[b - o]; a: t[a - o] >= vb
            rep1 |= fixed | fixed << s
            rep2 |= fixed
        if x_lt | x_eq:
            lt = vbh1 - db  # b: t[b - o] < vb
            if x_lt:
                f_xlt |= u & lt
            if x_eq:
                f_xeq |= u & (vbh - db ^ lt)
        if not reads_a:
            continue
        da = va >> s
        dah = da | h
        ge = (dah - va) & hb  # b: t[a + o] >= va; a: va >= t[a - o]
        if p_gt | eq:
            gt = dah - va1  # b: t[a + o] > va
            if p_gt:
                f_pgt |= u & gt
            if eq:
                same = (ge ^ gt) & hb  # b: t[a + o] == va; a: t[a - o] == va
                if p_eq:
                    f_peq |= u & same
                if ox_eq:
                    f_oxeq |= same << s
        if up:
            rises = hb ^ ge  # a: t[a - o] > va
            if ox_gt:
                f_oxgt |= (rises & u) << s
        if above:
            lower = vbh1 - da  # a: va < t[b + o]
            if op_gt | ef1pm:
                rises_lower = rises & lower
                if op_gt:
                    f_opgt |= rises_lower << s
                if ef1pm:
                    rep2 |= (rises ^ rises_lower) << s
            if op_eq:
                f_opeq |= (same & lower) << s
            if cl:
                f_cl |= u & goods[j] | (lower & bads[j]) << s
    acc = (h, h ^ rep1, h ^ rep2, f_cl, f_xlt, f_xeq, f_pgt, f_peq,
           f_oxgt, f_oxeq, f_opgt, f_opeq)  # indexed by group
    envy = (vbh - va1) & h
    fail = 0
    for k in range(want.bit_length()):  # per bit: its axiom's groups
        flags = 0
        for f, bits in zip(acc, groups):
            if bits >> k & 1:
                flags |= f
        fail |= (envy & flags) >> (w - 1 - k)
    return want * l1 ^ fail


def _on_front(r0, r1, d, w):
    """The top bit of lane k where allocation k's profile, of ranks
    ``r0[k]`` and ``r1[k]`` among ``d``, is on the Pareto front, from lane
    sequences of w bits.  The distinct profiles are collected at C level,
    as one 2w-bit key per allocation, and the front is their
    :func:`efficiency._maxima`.  Two front points never share agent 0's
    rank, so the front is a table from it to agent 1's rank, all-ones (no
    rank) where it has none, and lane k is on it iff the table maps
    ``r0[k]`` to ``r1[k]``: a ``translate`` (8 bits) or a C-level ``map``
    and one lane-equality test."""
    size = len(r0)  # 2**m
    keys = bytearray(2 * size) if w == 8 else array(_TYPECODE[w], bytes(size * w >> 2))
    keys[_SWAP::2] = r1
    keys[1 - _SWAP::2] = r0  # read as 2w-bit lanes: r0 << w | r1
    table = bytearray(b"\xff") * 256 if w == 8 else [(1 << w) - 1] * d
    for a, b in _maxima(map(divmod, set(array(_TYPECODE[2 * w], bytes(keys))), repeat(1 << w))):
        table[a] = b
    on = r0.translate(table) if w == 8 else array(_TYPECODE[w], map(table.__getitem__, r0))
    l1 = _lanes(size.bit_length() - 1, w)[0] >> size * w  # 1 in each of the 2**m lanes
    h = l1 << w - 1
    x = _pack(on) ^ _pack(r1)
    return ~((x | h) - l1 | x) & h  # lanes where x is 0


def _pack(lanes):
    """The lane int of a ``bytes`` or ``array`` of lanes, lane 0 lowest."""
    if _SWAP and not isinstance(lanes, bytes):
        lanes = array(lanes.typecode, lanes)
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack(x, w, lanes):
    """The first ``lanes`` w-bit lanes of the int x: a ``bytes`` for 8-bit
    lanes, an ``array`` for wider ones."""
    out = x.to_bytes(lanes * w >> 3, "little")
    if w == 8:
        return out
    out = array(_TYPECODE[w], out)
    if _SWAP:
        out.byteswap()
    return out
