from fractions import Fraction
from operator import itemgetter

import pytest

import fairkit.core
from fairkit import (
    AdditiveValuation,
    BudgetExceededError,
    ExplicitValuation,
    Instance,
    enumerate_allocations,
    fixture,
    is_additive_consistent,
    mask_from_names,
    validate_allocation,
)
from fairkit.core import allocation_blocks
from fairkit.search import GenParams, generate

from reference import all_allocations, ref_disjoint_constant, to_sets, value_maps

T1 = fixture("FIX-T1").instance
T2 = fixture("FIX-T2").instance
T4 = fixture("FIX-T4").instance
OBS1 = fixture("FIX-OBS1").instance


def bundle(inst, *names):
    return mask_from_names(inst.item_names, names)


# ---------------------------------------------------------------------------
# valuations

def test_bundle_value_examples():
    assert T1.valuations[0].table[bundle(T1, "a", "b", "d")] == 8
    assert AdditiveValuation((3, -1)).table[0] == 0
    assert OBS1.valuations[0].table[bundle(OBS1, "a", "b")] == 2


def test_marginal_examples():
    v = T1.valuations[0]
    assert v.marginal(bundle(T1, "c"), 0) == -2
    assert v.marginal(bundle(T1, "b", "d"), 0) == 2
    add = AdditiveValuation((3, -1, 7))
    for mask in (0, 2, 4, 6):
        assert add.marginal(mask, 0) == 3


def test_marginal_rejects_member_item():
    v = T1.valuations[0]
    with pytest.raises(ValueError):
        v.marginal(bundle(T1, "a", "b"), 0)


def test_telescoping_sums():
    for k in range(40):
        inst = generate(GenParams(agents=2, items=4, lo=-9, hi=9, seed=1000 + k))
        v = inst.valuations[k % 2]
        t = v.table
        for base in (0, 4, 8, 12):  # every bundle without items 0 and 1
            assert t[base | 0b11] == t[base] + v.marginal(base, 0) + v.marginal(base | 1, 1)


def test_additive_is_additive_on_disjoint_unions():
    v = AdditiveValuation((2, -3, Fraction(1, 2), 4))
    pairs = [(b1, b2) for b1 in range(16) for b2 in range(16) if not b1 & b2]
    assert len(pairs) == 3 ** 4  # each item in b1, in b2 or in neither
    for b1, b2 in pairs:
        assert v.table[b1 | b2] == v.table[b1] + v.table[b2]


def test_explicit_table_requires_all_bundles_except_empty():
    # a table holds one value per bundle; documents default the empty bundle to
    # 0 and name a missing one (test_serialize)
    for table in ((), (0, 1, 2)):
        with pytest.raises(ValueError, match=rf"^explicit table length {len(table)} is not a "):
            ExplicitValuation(table)


def test_explicit_rejects_floats():
    with pytest.raises(ValueError):
        ExplicitValuation((0, 1.5, 2, 3))


def test_is_additive_consistent():
    assert all(is_additive_consistent(v) for v in OBS1.valuations)
    assert not is_additive_consistent(T1.valuations[0])  # v({a,b}) = 6 != 10
    assert is_additive_consistent(AdditiveValuation((1, 2)))
    # explicit tables: the additive extension of the singletons, and v(empty) != 0
    assert is_additive_consistent(ExplicitValuation((0, 3, -1, 2, 5, 8, 4, 7)))
    assert not is_additive_consistent(ExplicitValuation((1, 4, -1, 2)))


# ---------------------------------------------------------------------------
# instances

def test_instance_validation():
    v = AdditiveValuation((1, 2))
    with pytest.raises(ValueError):
        Instance(("a", "b"), (v,))  # one agent
    with pytest.raises(ValueError):
        Instance(("a", "a"), (v, v))  # duplicate names
    with pytest.raises(ValueError):
        Instance(("a",), (v, v))  # m mismatch
    with pytest.raises(ValueError):
        Instance(tuple(f"o{i}" for i in range(17)),
                 (AdditiveValuation((1,) * 17),) * 2)  # above the item cap
    # a "," would make bundle keys ambiguous, and "" is the empty bundle's key
    for names in (("a,b", "c"), ("", "c")):
        for w in (v, ExplicitValuation((0, 1, 2, 3))):
            with pytest.raises(ValueError, match="is empty or contains ','"):
                Instance(names, (w, w))
    # the agent cap holds for every instance, not only for documents and generator parameters
    with pytest.raises(ValueError, match="agent count 65 exceeds the cap of 64"):
        Instance(("a", "b"), (v,) * 65)
    assert Instance(("a", "b"), (v,) * 64).n == 64


def test_item_index_reads_the_bundle_name_rule():
    assert [T1.item_index(name) for name in T1.item_names] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match=r"^unknown item 'x'$"):
        T1.item_index("x")


def test_single_item_instance_is_accepted():
    inst = Instance(("a",), (AdditiveValuation((1,)), AdditiveValuation((2,))))
    assert len(list(enumerate_allocations(inst))) == 2


def test_is_identical():
    assert T1.is_identical()
    assert not OBS1.is_identical()
    v = AdditiveValuation((5, -2))
    assert Instance(("a", "b"), (v, v, v)).is_identical()


def test_has_nonzero_marginals():
    assert T1.has_nonzero_marginals()
    assert not fixture("FIX-EX2").instance.has_nonzero_marginals()
    assert Instance(("a", "b"), (AdditiveValuation((1, -2)),) * 2).has_nonzero_marginals()


def test_disjoint_normalisation():
    # the oracle that the generator's disjointly normalised draws are checked with
    def constant(inst):
        return ref_disjoint_constant(value_maps(inst), inst.m)

    # additive valuations with equal totals share c = v(all)
    add = Instance(("a", "b", "c"), (AdditiveValuation((1, 2, 3)), AdditiveValuation((3, 2, 1))))
    assert constant(add) == 6
    assert constant(T4) is None  # 0+4 vs -1+3
    assert constant(T2) is None  # -9 vs -12
    # equal-total requirement is across agents too
    uneven = Instance(("a", "b"), (AdditiveValuation((1, 1)), AdditiveValuation((1, 2))))
    assert constant(uneven) is None


# ---------------------------------------------------------------------------
# enumeration

def test_enumeration_counts():
    for n, m, want in ((2, 2, 4), (2, 4, 16), (3, 2, 9)):
        inst = Instance(tuple("abcd"[:m]), (AdditiveValuation((1,) * m),) * n)
        assert len(list(enumerate_allocations(inst))) == want


def test_enumeration_is_distinct_valid_and_matches_reference():
    inst = Instance(("a", "b", "c"), (AdditiveValuation((1, 2, 3)),) * 3)
    seen = list(enumerate_allocations(inst))
    assert len(set(seen)) == 27
    for alloc in seen:
        validate_allocation(inst, alloc)
    assert {to_sets(a) for a in seen} == set(all_allocations(3, 3))


def test_enumeration_order_is_base_n_counter():
    inst = Instance(("a", "b"), (AdditiveValuation((1, 1)),) * 2)
    order = list(enumerate_allocations(inst))
    assert order == [(3, 0), (2, 1), (1, 2), (0, 3)]
    # item 0 is the least significant digit: allocation k sends item o to (k // n**o) % n
    inst3 = Instance(("a", "b"), (AdditiveValuation((1, 1)),) * 3)
    for k, alloc in enumerate(enumerate_allocations(inst3)):
        for o in range(2):
            agent = (k // 3**o) % 3
            assert alloc[agent] >> o & 1


def _counter_order(n, m):
    """Allocation k sends item o to agent (k // n**o) % n, for k = 0 .. n**m - 1."""
    out = []
    for k in range(n ** m):
        masks = [0] * n
        for o in range(m):
            masks[k // n ** o % n] |= 1 << o
        out.append(tuple(masks))
    return out


def _low_block_size(n, m):
    """n**L for the largest L <= min(m, 8) with n**L <= 1024."""
    size = 1
    for _ in range(min(m, 8)):
        if size * n > 1024:
            break
        size *= n
    return size


def _instance(n, m):
    return Instance(tuple(f"o{i}" for i in range(m)), (AdditiveValuation((1,) * m),) * n)


def test_blocked_enumeration_follows_the_counter_order():
    # every (n, m) with n**m <= 20000 covers m < L, m = L and m = L + 1 for
    # each n = 2..5 (L = 8, 6, 5, 4), so both block parts are exercised
    for n in range(2, 6):
        for m in range(1, 16):
            if n ** m > 20_000:
                break
            assert list(enumerate_allocations(_instance(n, m))) == _counter_order(n, m), (n, m)


def test_allocation_sequence_decodes_each_index_in_the_counter_order():
    for n, m in ((2, 1), (2, 5), (2, 9), (3, 4), (3, 7), (5, 3)):
        order = _counter_order(n, m)
        space = fairkit.core._Allocations(n, m)
        assert len(space) == len(order) and list(space) == order, (n, m)
        assert [space[k] for k in range(len(order))] == order, (n, m)
        for k in (-1, len(order)):
            with pytest.raises(IndexError):
                space[k]


def test_allocation_blocks_split_at_the_largest_low_block_under_the_cap():
    for n, m in ((2, 7), (2, 8), (2, 9), (2, 14), (3, 6), (3, 7), (4, 5), (4, 6),
                 (5, 4), (5, 5), (6, 4), (3, 2), (17, 3), (32, 2), (64, 2)):
        inst = Instance(tuple(f"o{i}" for i in range(m)),
                        tuple(AdditiveValuation(range(i, i + m)) for i in range(n)))
        blocks = [(list(allocs), list(profiles)) for allocs, profiles in allocation_blocks(inst)]
        size = _low_block_size(n, m)
        assert [len(allocs) for allocs, _ in blocks] == [size] * (n ** m // size), (n, m)
        assert [len(profiles) for _, profiles in blocks] == [size] * (n ** m // size), (n, m)
        allocs = [alloc for block, _ in blocks for alloc in block]
        assert allocs == _counter_order(n, m), (n, m)
        profiles = [prof for _, block in blocks for prof in block]
        assert profiles == [tuple(v.table[b] for v, b in zip(inst.valuations, alloc))
                            for alloc in allocs], (n, m)


def test_block_layout_is_built_at_the_first_scan(monkeypatch):
    def forbidden(*args):
        raise AssertionError("layout built")

    fairkit.core._layout.cache_clear()
    monkeypatch.setattr(fairkit.core, "_low_columns", forbidden)
    with pytest.raises(BudgetExceededError):
        allocation_blocks(T1, budget=10)
    blocks = allocation_blocks(T1)  # in budget, but nothing built until the first block
    with pytest.raises(AssertionError, match="layout built"):
        next(blocks)
    monkeypatch.undo()
    first = list(enumerate_allocations(T1))  # builds the 2x4 layout
    monkeypatch.setattr(fairkit.core, "_low_columns", forbidden)
    assert list(enumerate_allocations(T2)) == first  # same shape: nothing built


def test_warm_layout_scans_match_the_counter_order():
    # a cold scan, a warm one, and a scan of another instance of the same
    # shape read one cached layout; each must give the documented order
    def scan(inst):
        blocks = [(list(allocs), list(profiles)) for allocs, profiles in allocation_blocks(inst)]
        return ([a for allocs, _ in blocks for a in allocs],
                [p for _, profiles in blocks for p in profiles])

    def immutable(x):
        return isinstance(x, (int, bytes)) or isinstance(x, tuple) and all(map(immutable, x))

    for n in range(2, 6):
        for m in range(1, 16):
            if n ** m > 20_000:
                break
            fairkit.core._layout.cache_clear()
            order = _counter_order(n, m)
            names = tuple(f"o{i}" for i in range(m))
            inst = Instance(names, tuple(AdditiveValuation(range(i, i + m)) for i in range(n)))
            other = Instance(names, tuple(ExplicitValuation(tuple(range(i, i + 2 ** m)))
                                          for i in range(n)))
            for scanned in (inst, inst, other):  # cold, warm, same shape
                assert scan(scanned) == (order, [
                    tuple(v.table[b] for v, b in zip(scanned.valuations, a)) for a in order
                ]), (n, m)
            # a multi-block shape also reads the layout of its high items' shape
            shapes = 1 if _low_block_size(n, m) == n ** m else 2
            info = fairkit.core._layout.cache_info()
            assert (info.misses, info.hits) == (shapes, 2 * shapes), (n, m)
            low, columns, getters = fairkit.core._layout(n, m)
            assert immutable((low, columns)) and len(getters) == len(columns) == n, (n, m)
            assert n ** low >= 2, (n, m)  # a one-index itemgetter returns a scalar
            for getter, col in zip(getters, columns):  # each getter reads exactly its column
                assert isinstance(getter, itemgetter), (n, m)
                assert tuple(getter(range(n ** low))) == tuple(col), (n, m)
                # two agents' columns count down and up, read as slices; more, by index
                indices = getter.__reduce__()[1]
                assert all(type(k) is (slice if n == 2 else int) for k in indices), (n, m)


def test_budget_error_reports_total():
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_allocations(T1, budget=10))
    assert err.value.total == 16
    assert err.value.budget == 10
    # raised at the call, before the first allocation is built
    with pytest.raises(BudgetExceededError):
        enumerate_allocations(T1, budget=10)


def test_validate_allocation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_allocation(T1, (1, 2))  # not covering
    with pytest.raises(ValueError):
        validate_allocation(T1, (3, 3 ^ 15, 0))  # wrong agent count
    with pytest.raises(ValueError):
        validate_allocation(T1, (3, 14))  # overlap on item b
    with pytest.raises(ValueError, match="bundle mask 16 uses items outside the instance"):
        validate_allocation(T1, (15, 16))  # a fifth item in a 4-item instance
