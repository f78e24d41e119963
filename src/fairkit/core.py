"""Instances, valuations, bundles and allocation-space enumeration.

Bundles are m-bit masks (item ``o`` is bit ``1 << o``), allocations are
tuples of ``n`` pairwise-disjoint masks covering all items.  Every type here
is immutable after construction and every operation is pure, so concurrent
use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter, mul, or_
from typing import Iterable, Iterator, Optional, Sequence

from .values import Value, as_value

DEFAULT_ITEM_CAP = 16
DEFAULT_AGENT_CAP = 64
DEFAULT_BUDGET = 10_000_000
_BLOCK_CAP = 1024  # allocations per block: larger ones barely speed a scan up but cost memory

Allocation = tuple  # tuple[int, ...], one bundle mask per agent

# The two-agent order: allocation k gives agent 0 the bundle ``full ^ k`` and
# agent 1 the bundle k, so agent i's getter reads a run of values indexed by
# bundle, ``t[h:h + 2**L]`` or a whole table, in allocation order.
TWO_AGENT_GETTERS = (itemgetter(slice(None, None, -1)), itemgetter(slice(None)))


class BudgetExceededError(Exception):
    """Raised when an exhaustive scan would exceed its allocation budget."""

    def __init__(self, total: int, budget: int):
        super().__init__(
            f"allocation space has {total} allocations, exceeding budget {budget}"
        )
        self.total = total
        self.budget = budget


# ---------------------------------------------------------------------------
# input rules: every entry point (instances, documents, generator parameters)
# checks through these before it builds any table

def check_size(n: int, m: int) -> None:
    """2..``DEFAULT_AGENT_CAP`` agents and 1..``DEFAULT_ITEM_CAP`` items, else ``ValueError``."""
    if n < 2:
        raise ValueError("an instance needs at least 2 agents")
    if n > DEFAULT_AGENT_CAP:
        raise ValueError(f"agent count {n} exceeds the cap of {DEFAULT_AGENT_CAP}")
    if not 1 <= m <= DEFAULT_ITEM_CAP:
        raise ValueError(f"item count {m} outside 1..{DEFAULT_ITEM_CAP}")


def check_item_names(names: Sequence[str]) -> None:
    """Unique names, none empty or containing ",", else ``ValueError``: bundle
    keys join names with "," and "" is the empty bundle's key."""
    if len(set(names)) != len(names):
        raise ValueError("item names must be unique")
    for name in names:
        if not name or "," in name:
            raise ValueError(f"item name {name!r} is empty or contains ','")


# ---------------------------------------------------------------------------
# bundle masks

def mask_from_names(item_names: Sequence[str], names: Iterable[str]) -> int:
    """The mask of the bundle holding ``names``.  ``ValueError`` for an
    unknown or repeated name reads "unknown item 'x'" or "duplicate item 'x'",
    so a caller can say where it came from."""
    mask = 0
    for name in names:
        try:
            i = item_names.index(name)
        except ValueError:
            raise ValueError(f"unknown item {name!r}") from None
        bit = 1 << i
        if mask & bit:
            raise ValueError(f"duplicate item {name!r}")
        mask |= bit
    return mask


def names_of(item_names: Sequence[str], mask: int) -> tuple[str, ...]:
    """The names of the items in ``mask``, in item order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(item_names[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def joined_by_mask(parts: Iterable[str], sep: str) -> list:
    """For every mask, its items' ``parts`` joined by ``sep`` in item order,
    indexed by mask ("" for the empty bundle)."""
    out = [""]
    for part in parts:  # the masks whose highest item is this one
        tail = sep + part
        out += [part] + [s + tail for s in out[1:]]
    return out


# ---------------------------------------------------------------------------
# valuations

class Valuation:
    """Common surface of the two valuation kinds.

    Both kinds expose a dense ``table`` with ``2**m`` entries indexed by
    bundle mask, which the axiom checkers index directly.
    """

    m: int
    table: tuple

    def marginal(self, bundle: int, item: int) -> Value:
        """v(B + o) - v(B).  Error if ``item`` is already in ``bundle``."""
        bit = 1 << item
        if bundle & bit:
            raise ValueError(f"item {item} is already in the bundle")
        t = self.table
        return t[bundle | bit] - t[bundle]


@dataclass(frozen=True)
class AdditiveValuation(Valuation):
    """v(B) = sum of per-item values; v(empty) = 0."""

    item_values: tuple
    table: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, item_values: Iterable[object]):
        vals = tuple(as_value(v) for v in item_values)
        object.__setattr__(self, "item_values", vals)
        m = len(vals)
        table = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            table[mask] = table[mask ^ low] + vals[low.bit_length() - 1]
        object.__setattr__(self, "table", tuple(table))

    @property
    def m(self) -> int:
        return len(self.item_values)


@dataclass(frozen=True)
class ExplicitValuation(Valuation):
    """Total table over all ``2**m`` bundles, indexed by bundle mask."""

    table: tuple

    def __init__(self, table: Iterable[object]):
        self._set_table(tuple(as_value(v) for v in table))

    def _set_table(self, table: tuple) -> None:
        size = len(table)
        if size == 0 or size & (size - 1):
            raise ValueError(f"explicit table length {size} is not a power of two")
        object.__setattr__(self, "table", table)

    @classmethod
    def _exact(cls, table: tuple) -> "ExplicitValuation":
        """A valuation over ``table``, whose entries are already exact and
        normalised (``int``, or ``Fraction`` with a denominator above 1), as
        :func:`~fairkit.values.as_value` would return them.  Only the length
        is checked."""
        self = object.__new__(cls)
        self._set_table(table)
        return self

    @property
    def m(self) -> int:
        return len(self.table).bit_length() - 1


def nonzero_marginals(v: Valuation) -> bool:
    """True iff every marginal of every item is non-zero for this valuation."""
    full = (1 << v.m) - 1
    t = v.table
    for o in range(v.m):
        bit = 1 << o
        rest = full & ~bit
        sub = rest
        while True:
            if t[sub | bit] == t[sub]:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return True


def is_additive_consistent(v: Valuation) -> bool:
    """True iff the valuation equals the additive extension of its singletons."""
    if isinstance(v, AdditiveValuation):
        return True
    t = v.table
    if t[0] != 0:
        return False
    for mask in range(3, 1 << v.m):
        low = mask & -mask
        if low == mask:
            continue
        if t[mask] != t[mask ^ low] + t[low]:
            return False
    return True


# ---------------------------------------------------------------------------
# instances

@dataclass(frozen=True)
class Instance:
    """n agents, m named items, one valuation per agent."""

    item_names: tuple
    valuations: tuple

    def __init__(self, item_names: Iterable[str], valuations: Iterable[Valuation]):
        names = tuple(item_names)
        vals = tuple(valuations)
        check_size(len(vals), len(names))
        check_item_names(names)
        for v in vals:
            if v.m != len(names):
                raise ValueError(f"valuation over {v.m} items in an instance with {len(names)}")
        object.__setattr__(self, "item_names", names)
        object.__setattr__(self, "valuations", vals)

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return len(self.item_names)

    @property
    def full(self) -> int:
        return (1 << self.m) - 1

    def item_index(self, name: str) -> int:
        """The index of item ``name``; an unknown name is :func:`mask_from_names`'s ``ValueError``."""
        return mask_from_names(self.item_names, (name,)).bit_length() - 1

    def is_identical(self) -> bool:
        """True iff all agents agree on every bundle."""
        t0 = self.valuations[0].table
        return all(v.table == t0 for v in self.valuations[1:])

    def has_nonzero_marginals(self) -> bool:
        """True iff no agent has a zero marginal for any item on any bundle."""
        return all(nonzero_marginals(v) for v in self.valuations)


# ---------------------------------------------------------------------------
# allocations

def validate_allocation(inst: Instance, bundles: Sequence[int]) -> Allocation:
    """Check the allocation invariants and return the canonical tuple.

    Bundles must be pairwise disjoint masks whose union covers all items.
    """
    if len(bundles) != inst.n:
        raise ValueError(f"allocation has {len(bundles)} bundles for {inst.n} agents")
    seen = 0
    for b in bundles:
        if b & ~inst.full:
            raise ValueError(f"bundle mask {b} uses items outside the instance")
        if b & seen:
            raise ValueError("bundles are not pairwise disjoint")
        seen |= b
    if seen != inst.full:
        raise ValueError("allocation does not cover all items")
    return tuple(bundles)


def enumerate_allocations(inst: Instance, budget: Optional[int] = None) -> Iterator[Allocation]:
    """Iterate over every complete allocation exactly once, in a fixed order.

    Order: allocation k assigns item o to agent ``(k // n**o) % n`` — a base-n
    assignment counter with item 0 as the least significant digit — and k runs
    from 0 to ``n**m - 1``.  Raises :class:`BudgetExceededError` at the call,
    before any allocation is built, when ``n**m`` exceeds the budget (default
    ``DEFAULT_BUDGET``).  No value is read (:func:`_blocks` with no tables).
    """
    check_budget(inst.n, inst.m, budget)
    return iter(_Allocations(inst.n, inst.m))


class _Allocations:
    """The allocations of n agents and m items as a sequence in enumeration
    order that builds only what is read: iterating it walks :func:`_blocks`
    with no tables, and ``[k]`` decodes allocation k alone."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m

    def __len__(self) -> int:
        return self.n ** self.m

    def __iter__(self) -> Iterator[Allocation]:
        return chain.from_iterable(allocs for allocs, _ in _blocks(self.n, self.m, []))

    def __getitem__(self, k: int) -> Allocation:
        if not 0 <= k < len(self):
            raise IndexError(f"no allocation {k} among {len(self)}")
        bundles = [0] * self.n
        for o in range(self.m):  # item o goes to agent (k // n**o) % n
            k, agent = divmod(k, self.n)
            bundles[agent] |= 1 << o
        return tuple(bundles)


def check_budget(n: int, m: int, budget: Optional[int] = None) -> None:
    """Raise :class:`BudgetExceededError` when the ``n**m`` allocations of n
    agents and m items exceed the budget (default ``DEFAULT_BUDGET``)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if n ** m > budget:
        raise BudgetExceededError(n ** m, budget)


def allocation_blocks(inst: Instance, budget: Optional[int] = None) -> Iterator[tuple]:
    """The allocations of :func:`enumerate_allocations`, block by block
    (:func:`_blocks`).  Each block is a pair of iterators over the same run
    of allocations, in enumeration order: the allocations, and their
    utility profiles (per agent, the value of its own bundle).  The budget
    is checked as in :func:`enumerate_allocations`."""
    check_budget(inst.n, inst.m, budget)
    return _blocks(inst.n, inst.m, [v.table for v in inst.valuations])


def _blocks(n: int, m: int, tables: list) -> Iterator[tuple]:
    """The one allocation stream of n agents and m items, with profiles read
    from ``tables``: one sequence per agent indexed by mask, such as a
    valuation table (none, and no value read, if empty).
    The items split into a low block of L items, with L the largest value
    up to min(m, 8) such that ``n**L <= _BLOCK_CAP`` (1024), and the rest.
    A block holds one assignment of the high items and runs through all
    ``n**L`` assignments of the low ones.  The low block's per-agent mask
    columns and value getters (:func:`_layout`) are built once per shape,
    at the first block of its first scan.  In a block whose high part gives
    an agent the mask ``h`` (bits L and up only), its masks are
    ``map(or_, repeat(h), column)``, built only as the allocations are
    read, and its values ``getter(table[h:h + 2**L])`` (two agents: a
    slice, reversed for agent 0), read whole before the block's first
    allocation is tested.  A shape with ``m == L`` is one block: the
    columns and ``getter(table)``.
    """
    low, columns, getters = _layout(n, m)
    if low == m:
        yield zip(*columns), zip(*[g(t) for g, t in zip(getters, tables)])
        return
    span = 1 << low
    for high in _high_parts(n, low, m):
        yield (zip(*[map(or_, repeat(h), col) for col, h in zip(columns, high)]),
               zip(*[g(t[h:h + span]) for g, t, h in zip(getters, tables, high)]))


@lru_cache(maxsize=32)
def _layout(n: int, m: int) -> tuple:
    """``(L, columns, getters)`` for n agents and m items: the low block's
    size, its per-agent mask columns (:func:`_low_columns`) and one value
    getter per column, immutable and shared by every scan of the shape;
    masks come from the columns.  With two agents, agent 0's column counts
    down from ``2**L - 1`` and agent 1's up from 0, so their getters are
    ``TWO_AGENT_GETTERS``.  With more, each is an
    ``operator.itemgetter(*column)``, which returns a tuple (``n**L >= 2``)
    and holds an 8-byte pointer per entry (the masks are small ints, which
    Python shares): ``8 * n * n**L`` bytes per shape plus about 100 per
    agent, 17.9 KB at 3x6, at most 266 KB (n = 32, L = 2)."""
    low = 0
    while low < min(m, 8) and n ** (low + 1) <= _BLOCK_CAP:
        low += 1
    columns = _low_columns(n, low)
    if n == 2:
        return low, columns, TWO_AGENT_GETTERS
    return low, columns, tuple(itemgetter(*col) for col in columns)


_WITH_BIT = tuple(bytes(map((1 << o).__or__, range(256))) for o in range(8))


def _low_columns(n: int, low: int) -> tuple:
    """Per-agent masks of items ``0..low-1`` over the ``n**low`` low assignments.

    One byte per mask (``low <= 8``), built with C-level ``bytes.translate``
    once per shape and kept in :func:`_layout`'s cache beside the getters
    built from them: ``n * n**low`` bytes, at most 32 KB (n = 32, L = 2).
    Keeping them leaves peak RSS flat: landscape-2x14 read 28.38 MB
    (benchmark median of 5 runs) against 28.27 MB when each scan rebuilt
    them.
    """
    columns = [b"\0"] * n
    for o in range(low):  # item o, the most significant so far, goes to agent j in run j
        with_o = _WITH_BIT[o]
        columns = [col * j + col.translate(with_o) + col * (n - 1 - j)
                   for j, col in enumerate(columns)]
    return tuple(columns)


def _high_parts(n: int, low: int, m: int) -> Iterator[tuple]:
    """Per-agent masks of items ``low..m-1`` in the counter order: the
    allocations of m - low items (:func:`_blocks`), each mask shifted up by
    ``low`` items."""
    return map(tuple, map(map, repeat(mul), repeat(repeat(1 << low)), _Allocations(n, m - low)))
