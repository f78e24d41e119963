"""Seeded instance generation and counterexample mining.

Random draws come from SplitMix64, a fixed 64-bit mixing generator, so a
(params, count) pair reproduces the same instances on any platform.  Mining
scans instances built from consecutive seeds (``seed + k`` for the k-th
instance) and keeps those whose axiom landscape matches a predicate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import getitem, itemgetter, or_
from typing import Iterable, Iterator, Optional, Sequence

from . import axioms
from .core import (
    DEFAULT_ITEM_CAP,
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    _Allocations,
    _blocks,
    check_budget,
    check_size,
    enumerate_allocations,  # noqa: F401  (no longer called here, but benchmark spans wrap it)
)
from .axioms import satisfies  # noqa: F401  (still importable from here; landscape uses held)
from .efficiency import pareto_front
from .taxonomy import classify  # noqa: F401  (importable from here for bench/spans.py)

ITEM_CLASSES = ("any", "generallyGoodBad", "noMixed")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHUNK = 1024  # values mixed at once by SplitMix64.take


class SplitMix64:
    """SplitMix64: deterministic 64-bit stream, identical on every platform.

    Values are mixed many at a time (:meth:`take`): a chunk of up to 1,024
    is one Python int of 128-bit lanes, lane i holding the state ``i + 1``
    steps on, and each xor-shift-multiply step of the mixer runs on the
    whole int (:func:`_mix`).  :meth:`take` is the one reader: a single
    value is ``next(rng.take(1))``.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def take(self, k: int) -> Iterator[int]:
        """The next k values of the stream, in order.

        The state moves on by k steps at the call.  A read of at most one
        chunk is mixed at the call; a longer read is mixed chunk by chunk as
        the iterator is read, so at most one chunk of values is held.
        """
        start = self._state
        self._state = (start + k * _GAMMA) & _MASK64
        if k <= _CHUNK:  # one chunk, as most reads are: no chain to build
            return iter(_mix(start, k))
        return chain.from_iterable(_mix((start + i * _GAMMA) & _MASK64, min(_CHUNK, k - i))
                                   for i in range(0, k, _CHUNK))


@lru_cache(maxsize=16)
def _stream_lanes(k):
    """``(ONES, STEPS, MASK)`` for k 128-bit lanes: ONES holds 1 in every
    lane, STEPS ``(i + 1) * gamma`` mod 2**64 in lane i, and MASK the low 64
    bits of every lane.  Built from bytes; cached like ``axioms._lanes``
    (48 KB for a full chunk)."""
    ones = int.from_bytes((1).to_bytes(16, "little") * k, "little")
    steps = int.from_bytes(b"".join((i * _GAMMA & _MASK64).to_bytes(16, "little")
                                    for i in range(1, k + 1)), "little")
    return ones, steps, ones * _MASK64


def _mix(state, k):
    """The k SplitMix64 values after ``state``, as an ``array`` of 64-bit
    lanes.  Lane i of the int starts at ``state + (i + 1) * gamma``, masked
    to 64 bits.  Each step's product of a 64-bit lane and a 64-bit constant
    fits its 128-bit lane, so nothing carries into the next one; the mask
    after each xor-shift and product clears what a right shift pulled down
    from the next lane, or a product left above bit 63.  The last xor-shift
    needs no mask: only the low 64 bits of each lane are read out."""
    ones, steps, mask = _stream_lanes(k)
    z = (state * ones + steps) & mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return axioms._unpack(z ^ z >> 31, 64, 2 * k)[::2]


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
        for name in ("agents", "items", "lo", "hi", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
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


def _draw(u, p, avoid=()) -> int:
    """The drawn 64-bit value ``u`` as a uniform pick from [p.lo, p.hi]
    minus ``avoid``; with nothing to avoid, ``p.lo + u % (p.hi - p.lo + 1)``
    (the modulo bias is negligible for ranges this small)."""
    skip = sorted({a for a in avoid if p.lo <= a <= p.hi})
    size = p.hi - p.lo + 1 - len(skip)
    if size < 1:
        raise RejectionBudgetError(
            f"no value in [{p.lo}, {p.hi}] keeps non-zero marginals for {p}")
    v = p.lo + u % size
    for a in skip:  # the (v - lo)-th value of the range that is not skipped
        if a <= v:
            v += 1
    return v


def _split(rng, m) -> int:
    """An item mask from m draws, item i in it iff draw i is odd."""
    return sum((u & 1) << i for i, u in enumerate(rng.take(m)))


def _monotone_table(draws, members: int, m: int, lo: int, hi: int, increasing: bool,
                    strict: bool) -> list:
    """Random monotone function over the subsets of ``members``; 0 at empty.

    Each non-empty subset reads one value of the iterator ``draws``, in
    the order the subsets are built.  Non-strict mode reads a value in
    [lo, hi] per bundle and clamps it against the bundle's subsets; strict
    mode adds a signed increment of at least 1 on top of the extreme subset
    value (values may then leave [lo, hi]).
    """
    table = [0] * (1 << m)
    step = max(1, hi - lo)
    width = hi - lo + 1
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
                inc = 1 + next(draws) % step
                table[sub] = extreme + inc if increasing else extreme - inc
            else:
                draw = lo + next(draws) % width
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
    Once the split is known, both functions read from one take of
    ``2**g + 2**(m - g) - 2`` values, g the number of goods.
    """
    m = p.items
    goods = shared_split if shared_split is not None else _split(rng, m)
    bads = ((1 << m) - 1) ^ goods
    g = goods.bit_count()
    draws = rng.take((1 << g) + (1 << m - g) - 2)
    up = _monotone_table(draws, goods, m, p.lo, p.hi, True, p.nonzero_marginals)
    down = _monotone_table(draws, bads, m, p.lo, p.hi, False, p.nonzero_marginals)
    return ExplicitValuation._exact(tuple(up[mask & goods] + down[mask & bads]
                                          for mask in range(1 << m)))


def _additive_table(rng, p, c) -> AdditiveValuation:
    """Item values from [lo, hi]; with a constant ``c`` the last item makes the
    sum c.  Under ``nonzero_marginals`` every drawn value avoids 0, and the
    last drawn one also avoids making the last item 0."""
    m = p.items
    items: list = []
    for o, u in enumerate(rng.take(m if c is None else m - 1)):
        avoid = ()
        if p.nonzero_marginals:
            avoid = (0, c - sum(items)) if o == m - 2 and c is not None else (0,)
        items.append(_draw(u, p, avoid))
    if c is not None:
        items.append(c - sum(items))
    return AdditiveValuation(tuple(items))


def _explicit_table(rng, p, c) -> ExplicitValuation:
    """Table entries drawn in ascending mask order, one take for the table.

    With a constant ``c`` only the masks below their complement are drawn,
    and each sets its complement to c minus it.  Under ``nonzero_marginals``
    an entry avoids the value of every set one-item neighbour.  That covers
    the complements too: a complement's marginals are the entry's, negated.
    """
    m = p.items
    if c is None and not p.nonzero_marginals:
        width = p.hi - p.lo + 1
        return ExplicitValuation._exact(tuple(map(p.lo.__add__,
                                                  map(width.__rmod__, rng.take(1 << m)))))
    full = (1 << m) - 1
    t: list = [None] * (1 << m)
    for x, u in enumerate(rng.take(1 << m if c is None else 1 << (m - 1))):
        avoid: list = []
        if p.nonzero_marginals:
            avoid = [t[x ^ (1 << o)] for o in range(m) if t[x ^ (1 << o)] is not None]
            if c is not None and m == 1 and c % 2 == 0:
                avoid.append(c // 2)  # the one item's neighbour is x's own complement
        t[x] = _draw(u, p, avoid)
        if c is not None:
            t[full ^ x] = c - t[x]
    return ExplicitValuation._exact(tuple(t))


def generate(params: GenParams) -> Instance:
    """Deterministically generate one instance that meets the constraints.

    All draws come from one SplitMix64 stream seeded with ``params.seed``,
    and every constraint holds by construction (see :class:`GenParams`).
    Each table, item split and disjoint constant takes the exact number of
    values it needs in one :meth:`SplitMix64.take`, so the stream is the
    one a value-at-a-time reader would see.  Raises
    :class:`RejectionBudgetError` when ``nonzero_marginals`` meets a value
    range too small to leave a choice.
    """
    p = params
    rng = SplitMix64(p.seed)
    agents = 1 if p.identical else p.agents
    if p.item_class != "any":
        shared = _split(rng, p.items) if p.item_class == "noMixed" else None
        vals = [_item_class_table(rng, p, shared) for _ in range(agents)]
    else:
        lone_item = p.additive and p.nonzero_marginals and p.items == 1  # its value is c
        c = (_draw(next(rng.take(1)), p, (0,) if lone_item else ())
             if p.disjointly_normalised else None)
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

    ``walk`` yields ``(allocations, helds)`` blocks in enumeration order,
    two iterables over the same allocations, and covers at least every
    allocation that satisfies one of the combos.  An allocation's held set
    has a bit for each named axiom it satisfies, the k-th of the sorted
    names owning ``1 << k``, and the po bit above them when its profile is
    in :func:`pareto_front`.  So it satisfies ``combos[k]`` iff
    ``held & needs[k] == needs[k]``, and it has no bit outside the combos'
    masks.  When every combo has ``"po"``, only the Pareto-optimal
    allocations are walked, one block each, and each is scanned
    (:func:`axioms.held`) when reached, so a reader that stops early scans
    no further.  Otherwise every allocation is walked.  With two agents
    the walk is one block: a sequence of the allocations that builds one
    only when it is read or indexed (``core._Allocations``), and the held
    sets of all of them as one lane string from
    :func:`axioms.held_columns`, a ``bytes`` or an ``array``, with the po
    bit only if a combo has ``"po"``.  With more agents each allocation gets
    one fused scan (:func:`_full_walk`).  The combos must be well-defined
    for the instance.  The budget is checked, and the lane string or the
    front computed, at the call.
    """
    check_budget(inst.n, inst.m, budget)  # before any work
    if not combos:
        return [], iter(())
    names = sorted({ax for combo in combos for ax in combo} - {"po"})
    bit_of = {ax: 1 << k for k, ax in enumerate(names)}
    bit_of["po"] = po_bit = 1 << len(names)
    needs = [sum(bit_of[ax] for ax in set(combo)) for combo in combos]
    with_po = ["po" in combo for combo in combos]
    n, m = inst.n, inst.m
    if n == 2 and not all(with_po):
        return needs, iter([(_Allocations(n, m), axioms.held_columns(inst, names, any(with_po)))])
    scan = axioms.held(inst, names)
    front = pareto_front(inst, budget) if any(with_po) else None
    blocks = _blocks(n, m, [v.table for v in inst.valuations] if front is not None else [])
    if all(with_po):
        return needs, _front_walk(blocks, front, scan, po_bit)
    return needs, _full_walk(blocks, scan, front, po_bit)


def _front_walk(blocks, front, scan, po_bit):
    """:func:`held_walk`'s blocks when every combo has ``"po"``: one per
    Pareto-optimal allocation, scanned when it is reached."""
    for allocs, profiles in blocks:
        for alloc in compress(allocs, map(front.__contains__, profiles)):
            yield (alloc,), (scan(alloc) | po_bit,)


def _full_walk(blocks, scan, front, po_bit):
    """:func:`held_walk`'s blocks over every allocation of three or more
    agents: each block's allocations are listed and scanned as they are
    read, and with a front, the po bit is ORed in where the profile, read
    from the same block, is on it."""
    on = (0, po_bit)
    for allocs, profiles in blocks:
        allocs = list(allocs)  # each one is read by its scan
        helds = map(scan, allocs)
        if front is not None:
            helds = map(or_, helds, map(getitem, repeat(on), map(front.__contains__, profiles)))
        yield allocs, helds


def landscape(inst: Instance, combos: Optional[Sequence[tuple]] = None,
              budget: Optional[int] = None) -> list:
    """Count satisfying allocations per axiom combination over the full space.

    Combos are tuples of axiom ids, optionally including ``"po"``.  Rows for
    the chen-liu axiom are skipped when it is not well-defined for the
    instance.  Each row's example is its first satisfying allocation in
    enumeration order.  The combos are decided by :func:`held_walk`.  A
    two-agent lane string of 8-bit lanes is tallied with one C-level
    ``count`` per distinct held set, and any other block with one
    ``Counter.update``; the first allocation of each new set is found by
    ``index`` and taken from the block by that index, so no other
    allocation of a two-agent walk is built.
    """
    combos = tuple(DEFAULT_COMBOS if combos is None else combos)
    check_budget(inst.n, inst.m, budget)  # before any work
    combos = tuple(c for c in combos if all(axioms.well_defined(inst, ax) for ax in c))
    needs, walk = held_walk(inst, combos, budget)
    tally: Counter = Counter()  # set of held axioms (as bits) -> allocations holding exactly it
    first: dict = {}  # set of held axioms -> its first allocation, in order of first sight
    for allocs, helds in walk:
        if isinstance(helds, bytes):  # a lane string: one C-level count per distinct set
            sets = set(helds)
            tally.update(dict(zip(sets, map(helds.count, sets))))
        else:
            helds = list(helds)
            tally.update(helds)
        if len(tally) > len(first):  # new sets: their first allocations, decoded by index
            for k in sorted(map(helds.index, tally.keys() - first.keys())):
                first[helds[k]] = allocs[k]
    rows = []
    for combo, need in zip(combos, needs):
        sets = [held for held in first if held & need == need]
        example = first[sets[0]] if sets else None
        rows.append(LandscapeRow(tuple(combo), sum(tally[held] for held in sets), example))
    return rows


# ---------------------------------------------------------------------------
# mining

# each comparison's accepted counts a..b, from the target t and the total n
_PREDICATE_OPS = {"<=": lambda t, n: (0, t), ">=": lambda t, n: (t, n), "=": lambda t, n: (t, t)}


@dataclass(frozen=True)
class Predicate:
    """A count condition over one landscape combo, e.g. efxpm&po = 0."""

    combo: tuple
    op: str
    target: object  # int or "all"

    def settled(self, lo: int, hi: int, total: int) -> Optional[bool]:
        """True if every count in ``lo..hi`` is accepted, False if none is, else None."""
        a, b = _PREDICATE_OPS[self.op](total if self.target == "all" else self.target, total)
        return True if a <= lo and hi <= b else False if hi < a or b < lo else None

    def text(self) -> str:
        return "&".join(self.combo) + self.op + str(self.target)


def parse_predicate(text: str) -> Predicate:
    """Parse ``"efx=0"``, ``"efxpm&po>=1"`` or ``"ef=all"``; the combo is
    read by :func:`parse_axioms`, and the target is ``all`` or ASCII digits
    (no sign, no ``_``).  Every count claim, ``mine --predicate`` or a
    catalog row, is read here."""
    for op in _PREDICATE_OPS:  # in insertion order: "=" after "<=" and ">=", which hold it
        if op in text:
            left, _, right = text.partition(op)
            combo, target = parse_axioms(left.split("&")), right.strip()
            if target == "all" or target.isascii() and target.isdigit():
                return Predicate(combo, op, target if target == "all" else int(target))
            break
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
    for held in chain.from_iterable(map(itemgetter(1), walk)):
        verdict = predicate.settled(lo, hi, total)
        if verdict is not None:
            return verdict
        if held & want == want:
            lo += 1
        else:
            hi -= 1
    return predicate.settled(lo, lo, total)
