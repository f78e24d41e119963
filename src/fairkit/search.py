"""Seeded instance generation and counterexample mining.

Random draws come from SplitMix64, a fixed 64-bit mixing generator, so a
(params, count) pair reproduces the same instances on any platform.  Mining
scans instances built from consecutive seeds (``seed + k`` for the k-th
instance) and keeps those whose axiom landscape matches a predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

from . import axioms
from .core import (
    DEFAULT_ITEM_CAP,
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    allocation_blocks,
    check_budget,
    check_size,
    enumerate_allocations,  # noqa: F401  (no longer called here, but benchmark spans wrap it)
)
from .axioms import satisfies  # noqa: F401  (still importable from here; landscape uses held)
from .efficiency import pareto_front
from .taxonomy import classify  # noqa: F401  (importable from here for bench/spans.py)

ITEM_CLASSES = ("any", "generallyGoodBad", "noMixed")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: deterministic 64-bit stream, identical on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; modulo bias is negligible here."""
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def bit(self) -> int:
        return self.next_u64() & 1


@dataclass(frozen=True)
class GenParams:
    """Constraints for one family of random instances.

    ``item_class`` is one of ``any``, ``generallyGoodBad`` or ``noMixed``.
    Every constraint is met by construction: identical agents share one
    drawn table, disjointly normalised tables draw half their entries and
    pair the rest with them, non-zero marginals come from entries that avoid
    their neighbours' values, and the item classes compose monotone tables.
    An item class combines with neither ``additive`` nor
    ``disjointly_normalised``.
    """

    agents: int = 2
    items: int = 3
    lo: int = -8
    hi: int = 8
    identical: bool = False
    additive: bool = False
    nonzero_marginals: bool = False
    disjointly_normalised: bool = False
    item_class: str = "any"
    seed: int = 0

    def __post_init__(self):
        check_size(self.agents, self.items)
        if self.lo > self.hi:
            raise ValueError("empty value range")
        if self.item_class not in ITEM_CLASSES:
            raise ValueError(f"item_class must be one of {ITEM_CLASSES}")
        if self.item_class != "any" and (self.additive or self.disjointly_normalised):
            raise ValueError(f"item_class {self.item_class!r} takes neither additive nor "
                             "disjointly_normalised (an additive instance already has "
                             "generally good/bad items)")


class RejectionBudgetError(Exception):
    """No value in [lo, hi] keeps the marginals non-zero (only if hi - lo + 1 <= m)."""


@lru_cache(maxsize=DEFAULT_ITEM_CAP)
def _item_names(m: int) -> tuple:
    return tuple(chr(ord("a") + i) for i in range(m))  # m <= DEFAULT_ITEM_CAP (16)


def _draw(rng, p, avoid=()) -> int:
    """Uniform draw from [p.lo, p.hi] minus ``avoid``; with nothing to avoid, ``rng.randint``."""
    skip = sorted({a for a in avoid if p.lo <= a <= p.hi})
    size = p.hi - p.lo + 1 - len(skip)
    if size < 1:
        raise RejectionBudgetError(
            f"no value in [{p.lo}, {p.hi}] keeps non-zero marginals for {p}")
    v = p.lo + rng.next_u64() % size
    for a in skip:  # the (v - lo)-th value of the range that is not skipped
        if a <= v:
            v += 1
    return v


def _monotone_table(rng, members: int, m: int, lo: int, hi: int, increasing: bool,
                    strict: bool) -> list:
    """Random monotone function over the subsets of ``members``; 0 at empty.

    Non-strict mode draws a value per bundle and clamps it against the
    bundle's subsets; strict mode adds a signed increment of at least 1 on
    top of the extreme subset value (values may then leave [lo, hi]).
    """
    table = [0] * (1 << m)
    step = max(1, hi - lo)
    sub = 0
    while True:
        if sub:
            extreme = None
            s = sub
            while s:
                bit = s & -s
                s ^= bit
                prev = table[sub ^ bit]
                if extreme is None:
                    extreme = prev
                elif increasing:
                    extreme = max(extreme, prev)
                else:
                    extreme = min(extreme, prev)
            if strict:
                inc = rng.randint(1, step)
                table[sub] = extreme + inc if increasing else extreme - inc
            else:
                draw = rng.randint(lo, hi)
                table[sub] = max(draw, extreme) if increasing else min(draw, extreme)
        if sub == members:
            break
        sub = ((sub | ~members) + 1) & members
    return table


def _item_class_table(rng, p, shared_split) -> ExplicitValuation:
    """Goods/bads composition: every item generally good or generally bad.

    The agent splits the items into goods and bads (``shared_split`` under
    ``noMixed``, so all agents agree on directions) and values a bundle as a
    monotone-increasing function of its goods plus a monotone-decreasing
    function of its bads, strictly monotone under ``nonzero_marginals``.
    """
    m = p.items
    goods = shared_split if shared_split is not None else sum(rng.bit() << i for i in range(m))
    bads = ((1 << m) - 1) ^ goods
    up = _monotone_table(rng, goods, m, p.lo, p.hi, True, p.nonzero_marginals)
    down = _monotone_table(rng, bads, m, p.lo, p.hi, False, p.nonzero_marginals)
    return ExplicitValuation._exact(tuple(up[mask & goods] + down[mask & bads]
                                          for mask in range(1 << m)))


def _additive_table(rng, p, c) -> AdditiveValuation:
    """Item values from [lo, hi]; with a constant ``c`` the last item makes the
    sum c.  Under ``nonzero_marginals`` every drawn value avoids 0, and the
    last drawn one also avoids making the last item 0."""
    m = p.items
    items: list = []
    for o in range(m if c is None else m - 1):
        avoid = ()
        if p.nonzero_marginals:
            avoid = (0, c - sum(items)) if o == m - 2 and c is not None else (0,)
        items.append(_draw(rng, p, avoid))
    if c is not None:
        items.append(c - sum(items))
    return AdditiveValuation(tuple(items))


def _explicit_table(rng, p, c) -> ExplicitValuation:
    """Table entries drawn in ascending mask order.

    With a constant ``c`` only the masks below their complement are drawn,
    and each sets its complement to c minus it.  Under ``nonzero_marginals``
    an entry avoids the value of every set one-item neighbour.  That covers
    the complements too: a complement's marginals are the entry's, negated.
    """
    m = p.items
    if c is None and not p.nonzero_marginals:
        return ExplicitValuation._exact(tuple(rng.randint(p.lo, p.hi) for _ in range(1 << m)))
    full = (1 << m) - 1
    t: list = [None] * (1 << m)
    for x in range(1 << m if c is None else 1 << (m - 1)):
        avoid: list = []
        if p.nonzero_marginals:
            avoid = [t[x ^ (1 << o)] for o in range(m) if t[x ^ (1 << o)] is not None]
            if c is not None and m == 1 and c % 2 == 0:
                avoid.append(c // 2)  # the one item's neighbour is x's own complement
        t[x] = _draw(rng, p, avoid)
        if c is not None:
            t[full ^ x] = c - t[x]
    return ExplicitValuation._exact(tuple(t))


def generate(params: GenParams) -> Instance:
    """Deterministically generate one instance that meets the constraints.

    All draws come from one SplitMix64 stream seeded with ``params.seed``,
    and every constraint holds by construction (see :class:`GenParams`).
    Raises :class:`RejectionBudgetError` when ``nonzero_marginals`` meets a
    value range too small to leave a choice.
    """
    p = params
    rng = SplitMix64(p.seed)
    agents = 1 if p.identical else p.agents
    if p.item_class != "any":
        shared = sum(rng.bit() << i for i in range(p.items)) if p.item_class == "noMixed" else None
        vals = [_item_class_table(rng, p, shared) for _ in range(agents)]
    else:
        lone_item = p.additive and p.nonzero_marginals and p.items == 1  # its value is c
        c = _draw(rng, p, (0,) if lone_item else ()) if p.disjointly_normalised else None
        table = _additive_table if p.additive else _explicit_table
        vals = [table(rng, p, c) for _ in range(agents)]
    return Instance(_item_names(p.items), tuple(vals * (p.agents // agents)))


# ---------------------------------------------------------------------------
# landscape

def parse_axioms(names: Iterable[str]) -> tuple:
    """The axiom ids of a list such as ``"efx,EFX,po".split(",")``: each name
    stripped and lower-cased, empty ones skipped, repeats dropped in
    first-seen order, and ``"po"`` accepted.  ``ValueError`` for an unknown
    name or an empty list.  Every axiom list from outside (``--axioms``, a
    predicate's combo, a catalog combo) is read here."""
    ids = tuple(dict.fromkeys(filter(None, (name.strip().lower() for name in names))))
    for ax in ids:
        if ax != "po" and ax not in axioms.ALL_AXIOMS:
            known = ", ".join(axioms.ALL_AXIOMS + ("po",))
            raise ValueError(f"unknown axiom {ax!r}; known: {known}")
    if not ids:
        raise ValueError("no axioms requested")
    return ids


DEFAULT_COMBOS = (
    ("ef",), ("ef1",), ("efx",), ("ef1pm",), ("efxpm",), ("efx0",), ("efxpm0",),
    ("po",),
    ("efx", "efxpm"), ("efx", "po"), ("efxpm", "po"),
    ("ef1", "po"), ("ef1pm", "po"),
)


@dataclass(frozen=True)
class LandscapeRow:
    combo: tuple
    count: int
    example: Optional[tuple]


def held_walk(inst: Instance, combos: Sequence[tuple],
              budget: Optional[int] = None) -> tuple:
    """``(needs, walk)``: the one walk that decides axiom and PO combos.

    ``walk`` yields ``(allocation, held)`` in enumeration order and covers at
    least every allocation that satisfies one of the combos.  An allocation
    satisfies ``combos[k]`` iff ``held & needs[k] == needs[k]``; ``held`` has
    no bit outside the combos' masks.  PO is membership of the allocation's
    profile in :func:`pareto_front`, and the axioms come from one fused scan
    (:func:`axioms.held`) per allocation; an axiom that occurs only in combos
    with ``"po"`` is decided on Pareto-optimal allocations only.  When every
    combo has ``"po"``, only the Pareto-optimal allocations are walked,
    picked out of each block at C level; with the empty combo ``()``, every
    allocation is, and with no combo, none.  Without ``"po"`` no profile is
    built, though each block still reads its agents' values (one getter
    call per agent, :func:`~fairkit.core.allocation_blocks`).  The combos
    must be well-defined for the instance.  The budget is checked, and the
    front computed, at the call.
    """
    if not combos:
        check_budget(inst.n, inst.m, budget)
        return [], iter(())
    blocks = allocation_blocks(inst, budget)  # the budget is checked before any work
    names = sorted({ax for combo in combos for ax in combo} - {"po"})
    bit_of, scan = axioms.held(inst, names)
    bit_of["po"] = po_bit = 1 << len(names)
    needs = [sum(bit_of[ax] for ax in set(combo)) for combo in combos]
    on_front = po_bit - 1
    with_po = ["po" in combo for combo in combos]
    front = pareto_front(inst, budget) if any(with_po) else None
    if all(with_po):
        picked = chain.from_iterable(compress(allocs, map(front.__contains__, profiles))
                                     for allocs, profiles in blocks)
        return needs, ((alloc, scan(alloc, on_front) | po_bit) for alloc in picked)
    everywhere = sum({bit_of[ax] for combo in combos if "po" not in combo for ax in combo})
    flagged = chain.from_iterable(
        zip(allocs, repeat(False) if front is None else map(front.__contains__, profiles))
        for allocs, profiles in blocks)  # (allocation, is it PO)
    return needs, ((alloc, scan(alloc, on_front) | po_bit if po else scan(alloc, everywhere))
                   for alloc, po in flagged)


def landscape(inst: Instance, combos: Optional[Sequence[tuple]] = None,
              budget: Optional[int] = None) -> list:
    """Count satisfying allocations per axiom combination over the full space.

    Combos are tuples of axiom ids, optionally including ``"po"``.  Rows for
    the chen-liu axiom are skipped when it is not well-defined for the
    instance.  Each row's example is its first satisfying allocation in
    enumeration order.  The combos are decided by :func:`held_walk`, which
    the allocations' held sets are tallied from.
    """
    combos = tuple(DEFAULT_COMBOS if combos is None else combos)
    check_budget(inst.n, inst.m, budget)  # before any work
    combos = tuple(c for c in combos if all(axioms.well_defined(inst, ax) for ax in c))
    needs, walk = held_walk(inst, combos, budget)
    tally: dict = {}  # set of held axioms (as bits) -> allocations holding exactly it
    first: dict = {}  # set of held axioms -> its first allocation, in order of first sight
    for alloc, held in walk:
        if held in tally:
            tally[held] += 1
        else:
            tally[held] = 1
            first[held] = alloc
    rows = []
    for combo, need in zip(combos, needs):
        sets = [held for held in first if held & need == need]
        example = first[sets[0]] if sets else None
        rows.append(LandscapeRow(tuple(combo), sum(tally[held] for held in sets), example))
    return rows


# ---------------------------------------------------------------------------
# mining

_PREDICATE_OPS = ("<=", ">=", "=")


@dataclass(frozen=True)
class Predicate:
    """A count condition over one landscape combo, e.g. efxpm&po = 0."""

    combo: tuple
    op: str
    target: object  # int or "all"

    def settled(self, lo: int, hi: int, total: int) -> Optional[bool]:
        """The predicate's value if it is the same for every count in
        ``lo..hi``, else None."""
        want = total if self.target == "all" else self.target
        if self.op == "=":
            if lo == hi:
                return lo == want
            return None if lo <= want <= hi else False
        if self.op == "<=":
            return True if hi <= want else False if lo > want else None
        return True if lo >= want else False if hi < want else None

    def text(self) -> str:
        return "&".join(self.combo) + self.op + str(self.target)


def parse_predicate(text: str) -> Predicate:
    """Parse ``"efx=0"``, ``"efxpm&po>=1"`` or ``"ef=all"``; the combo is
    read by :func:`parse_axioms`, and the target is ``all`` or an integer."""
    for op in _PREDICATE_OPS:
        if op in text:
            left, _, right = text.partition(op)
            combo = parse_axioms(left.split("&"))
            right = right.strip()
            try:
                target: object = "all" if right == "all" else int(right)
            except ValueError:
                break
            return Predicate(combo, op, target)
    raise ValueError(f"cannot parse predicate {text!r} (use e.g. 'efx=0' or 'efxpm&po>=1')")


@dataclass(frozen=True)
class MineHit:
    seed: int
    instance: Instance
    rows: tuple


def mine(params: GenParams, predicate: Predicate, count: int,
         budget: Optional[int] = None) -> list:
    """Scan ``count`` seeded instances and keep those matching the predicate.

    Instance k is generated from ``params.seed + k``, so a run is fully
    reproducible from (params, count).  Every hit carries its landscape so it
    can be re-validated independently.  See :func:`mine_seeds`.
    """
    return [hit for _, hit, _ in mine_seeds(params, predicate, count, budget)
            if hit is not None]


def mine_seeds(params: GenParams, predicate: Predicate, count: int,
               budget: Optional[int] = None) -> Iterator[tuple]:
    """:func:`mine`, one ``(seed, hit, skipped)`` triple per seed.

    ``hit`` is the seed's :class:`MineHit` or None.  ``skipped`` is None, or
    the reason the seed was skipped: the message of the
    :class:`RejectionBudgetError` that ``generate`` raised for it.  Each
    instance's predicate is decided by the smallest scan that settles it
    (:func:`_matches`); the landscape row of the predicate's combo is
    computed for hits only.  A negative ``count`` (ValueError) and
    an allocation space over the budget (:class:`BudgetExceededError`) are
    rejected at the call, before any instance is generated.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    check_budget(params.agents, params.items, budget)
    return _mine_seeds(params, predicate, count, budget)


def _mine_seeds(params, predicate, count, budget):
    """The per-seed generator of :func:`mine_seeds`, over checked arguments."""
    for k in range(count):
        seed = params.seed + k
        try:
            inst = generate(replace(params, seed=seed))
        except RejectionBudgetError as exc:
            yield seed, None, str(exc)
            continue
        if _matches(inst, predicate, budget):
            rows = tuple(landscape(inst, [predicate.combo], budget))
            yield seed, MineHit(seed, inst, rows), None
        else:
            yield seed, None, None


def _matches(inst: Instance, predicate: Predicate, budget: Optional[int]) -> bool:
    """Whether the predicate holds on ``landscape(inst, [predicate.combo])``,
    without the landscape.

    The combo's count is kept within lo <= count <= hi over
    :func:`held_walk`, and the walk stops as soon as the predicate has one
    value on that whole range.  A combo with ``po`` walks the Pareto-optimal
    allocations only, so when they run out, the count is lo.
    """
    combo = predicate.combo
    if not all(axioms.well_defined(inst, ax) for ax in combo):
        return False  # landscape has no row for the combo
    [want], walk = held_walk(inst, [combo], budget)
    total = inst.n ** inst.m
    lo, hi = 0, total
    for _, held in walk:
        verdict = predicate.settled(lo, hi, total)
        if verdict is not None:
            return verdict
        if held & want == want:
            lo += 1
        else:
            hi -= 1
    return predicate.settled(lo, lo, total)
