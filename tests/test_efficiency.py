import random
from fractions import Fraction
from operator import ge

import pytest
from hypothesis import given, settings, strategies as st

from fairkit import (
    AdditiveValuation,
    BudgetExceededError,
    ExplicitValuation,
    Instance,
    PoVerdict,
    check_po,
    enumerate_allocations,
    fixture,
    leximin_set,
    mask_from_names,
    pareto_front,
    pareto_improves,
    utilities,
    utility_vector,
)
from fairkit.search import GenParams, generate, landscape

from reference import (
    all_allocations,
    ref_ef1,
    ref_efx,
    ref_efxpm,
    ref_leximin,
    ref_po,
    to_sets,
    value_maps,
)

T1 = fixture("FIX-T1").instance
T2 = fixture("FIX-T2").instance
T4 = fixture("FIX-T4").instance
EX2 = fixture("FIX-EX2").instance
D1 = fixture("FIX-D1").instance


def alloc(inst, *bundles):
    return tuple(mask_from_names(inst.item_names, b) for b in bundles)


def test_utility_vector_examples():
    assert utility_vector(T1, alloc(T1, ("c",), ("a", "b", "d"))) == (5, 8)
    assert utility_vector(T2, alloc(T2, ("a", "b"), ("c", "d"))) == (-7, -5)
    flat = Instance(("a",), (AdditiveValuation((0,)),) * 2)
    for a in enumerate_allocations(flat):
        assert utility_vector(flat, a) == (0, 0)


def test_pareto_improves_examples():
    assert pareto_improves(T2, alloc(T2, ("a", "b"), ("c", "d")),
                           alloc(T2, ("d",), ("a", "b", "c")))
    a = alloc(T2, ("a", "b"), ("c", "d"))
    assert not pareto_improves(T2, a, a)
    assert pareto_improves(T4, (0, T4.full), alloc(T4, ("a",), ("b", "c", "d")))


def test_pareto_improves_is_irreflexive_and_transitive():
    for k in range(15):
        inst = generate(GenParams(agents=2, items=3, lo=-3, hi=3, seed=6400 + k))
        allocs = list(enumerate_allocations(inst))
        improves = {
            (x, y) for x in allocs for y in allocs if pareto_improves(inst, x, y)
        }
        for a in allocs:
            assert (a, a) not in improves
        for x, y in improves:
            for z in allocs:
                if (y, z) in improves:
                    assert (x, z) in improves


def test_check_po_examples():
    assert check_po(EX2, alloc(EX2, ("s",), ("l1", "l2", "l3"))).satisfied
    v = check_po(EX2, alloc(EX2, ("s", "l1"), ("l2", "l3")))
    assert not v.satisfied
    assert pareto_improves(EX2, v.improver, alloc(EX2, ("s", "l1"), ("l2", "l3")))
    assert check_po(D1, alloc(D1, ("a", "b"), ())).satisfied


def test_check_po_reports_the_first_improver_in_enumeration_order():
    # values in [-2, 2] give tied profiles; agent 0's values are thirds
    for k in range(12):
        base = generate(GenParams(agents=2 + k % 2, items=4 - k % 2, lo=-2, hi=2,
                                  seed=7100 + k))
        thirds = ExplicitValuation(tuple(Fraction(x, 3) for x in base.valuations[0].table))
        inst = Instance(base.item_names, (thirds,) + base.valuations[1:])
        vm = value_maps(inst)
        allocs = list(enumerate_allocations(inst))
        profile = {a: tuple(vm[i][s] for i, s in enumerate(to_sets(a))) for a in allocs}
        for a in allocs:
            p = profile[a]
            first = next((b for b in allocs if profile[b] != p
                          and all(x >= y for x, y in zip(profile[b], p))), None)
            assert check_po(inst, a) == PoVerdict(first is None, first)


def test_leximin_set_examples():
    lm1 = leximin_set(T1)
    assert set(lm1) == {alloc(T1, ("c",), ("a", "b", "d")), alloc(T1, ("a", "b", "d"), ("c",))}
    lm2 = leximin_set(T2)
    assert alloc(T2, ("a", "b"), ("c", "d")) in lm2
    assert alloc(T2, ("c", "d"), ("a", "b")) in lm2
    want = {a for a in enumerate_allocations(T2) if utility_vector(T2, a) == (-7, -5)}
    assert set(lm2) == want


def test_leximin_set_is_in_enumeration_order():
    order = {a: k for k, a in enumerate(enumerate_allocations(T2))}
    lm = leximin_set(T2)
    assert [order[a] for a in lm] == sorted(order[a] for a in lm)


def test_leximin_and_po_match_reference():
    for k in range(25):
        inst = generate(GenParams(agents=2 + k % 2, items=3, lo=-4, hi=4, seed=7000 + k))
        vm = value_maps(inst)
        best, arg = ref_leximin(vm, inst.n, inst.m)
        lm = leximin_set(inst)
        assert {to_sets(a) for a in lm} == arg
        assert utility_vector(inst, lm[0]) == best
        for a in enumerate_allocations(inst):
            assert check_po(inst, a).satisfied == ref_po(vm, to_sets(a), inst.n, inst.m)


def test_every_leximin_allocation_is_po():
    from dataclasses import replace

    cases = [
        GenParams(agents=2, items=4, lo=-5, hi=5, seed=7600),
        GenParams(agents=3, items=3, lo=-5, hi=5, identical=True, seed=7700),
        GenParams(agents=2, items=4, lo=-5, hi=5, additive=True, seed=7800),
    ]
    for base in cases:
        for k in range(25):
            inst = generate(replace(base, seed=base.seed + k))
            for a in leximin_set(inst):
                assert check_po(inst, a).satisfied


def _assert_front_matches_ref_po(inst):
    vm = value_maps(inst)
    front = pareto_front(inst)
    for a in enumerate_allocations(inst):
        assert (utilities(inst, a) in front) == ref_po(vm, to_sets(a), inst.n, inst.m)
    return front


def test_pareto_front_matches_reference_on_seeded_instances():
    from dataclasses import replace

    cases = [
        GenParams(agents=2, items=4, lo=-4, hi=4, seed=8100),
        GenParams(agents=3, items=3, lo=-4, hi=4, seed=8200),
        GenParams(agents=4, items=2, lo=-4, hi=4, seed=8300),
        GenParams(agents=3, items=3, lo=-2, hi=2, identical=True, seed=8400),
        GenParams(agents=2, items=4, lo=-3, hi=3, additive=True, seed=8500),
        GenParams(agents=4, items=3, lo=-1, hi=1, additive=True, seed=8600),
        GenParams(agents=3, items=3, item_class="generallyGoodBad", seed=8700),
    ]
    for base in cases:
        for k in range(6):
            _assert_front_matches_ref_po(generate(replace(base, seed=base.seed + k)))


def test_pareto_front_with_ties_and_fractions():
    zero = ExplicitValuation((0,) * 8)
    half = ExplicitValuation((0, Fraction(1, 2), Fraction(1, 2), 1,
                              Fraction(-1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)))
    for vals in [(zero, zero), (zero, zero, zero, zero), (half, half), (half, zero, half),
                 (AdditiveValuation((1, 1, Fraction(3, 2))),) * 3]:
        inst = Instance(("a", "b", "c"), vals)
        _assert_front_matches_ref_po(inst)
    # every profile of an all-zero instance ties, so every allocation is PO
    flat = Instance(("a", "b", "c"), (zero,) * 4)
    assert pareto_front(flat) == {(0, 0, 0, 0)}


def _anti_correlated(n, m, seed, top=9, unit=1):
    """Additive agents whose values of each item sum to the same total: the
    more one agent values an item, the less the others do."""
    rng = random.Random(seed)
    rows = [[rng.randint(1, top) * unit for _ in range(m)] for _ in range(n - 1)]
    rows.append([(top + 1) * (n - 1) * unit - sum(col) for col in zip(*rows)])
    return Instance(tuple("abcdefgh"[:m]), tuple(map(AdditiveValuation, rows)))


def test_pareto_front_matches_reference_on_wide_fronts():
    """Fronts of many profiles, so that the skyline runs many elimination rounds."""
    for seed in range(3):
        assert len(_assert_front_matches_ref_po(_anti_correlated(2, 8, 8800 + seed))) == 9
        assert len(_assert_front_matches_ref_po(_anti_correlated(3, 5, 8900 + seed))) >= 20
        halves = _anti_correlated(3, 4, 9000 + seed, top=2, unit=Fraction(1, 2))
        assert len(_assert_front_matches_ref_po(halves)) >= 10
    # identical additive agents: every profile has the same sum, so no profile
    # dominates another and each of the distinct profiles is on the front
    for values, n in [((1, 2, 4, 8), 3), ((Fraction(1, 2), 1, 2, 4, 8, 16, 32, 64), 2)]:
        antichain = Instance(tuple("abcdefgh"[:len(values)]), (AdditiveValuation(values),) * n)
        assert len(_assert_front_matches_ref_po(antichain)) == n ** len(values)
    rng = random.Random(9100)
    thirds = (0, 0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, Fraction(-1, 2))
    for _ in range(3):
        tables = [ExplicitValuation([rng.choice(thirds) for _ in range(16)]) for _ in range(3)]
        _assert_front_matches_ref_po(Instance(tuple("abcd"), tables))
    zero = Instance(tuple("abcde"), (AdditiveValuation((0,) * 5),) * 3)
    assert _assert_front_matches_ref_po(zero) == {(0, 0, 0)}


_VALUES = st.sampled_from((-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def _small_instances(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4 if n == 2 else 3))
    kind = draw(st.sampled_from(("explicit", "additive", "identical")))
    if kind == "additive":
        vals = [AdditiveValuation(draw(st.lists(_VALUES, min_size=m, max_size=m)))
                for _ in range(n)]
    else:
        tables = [draw(st.lists(_VALUES, min_size=1 << m, max_size=1 << m))
                  for _ in range(1 if kind == "identical" else n)]
        vals = [ExplicitValuation(t) for t in tables] * (n if kind == "identical" else 1)
    return Instance(tuple("abcd"[:m]), vals)


@settings(max_examples=60)
@given(_small_instances())
def test_pareto_front_matches_reference_property(inst):
    _assert_front_matches_ref_po(inst)


def test_pareto_front_checks_the_budget_before_any_work():
    with pytest.raises(BudgetExceededError) as err:
        pareto_front(T1, budget=15)
    assert err.value.total == 16
    assert pareto_front(T1, budget=16)


# Multi-block shapes (n, m, n**L): their blocks read masks and values through
# the cached getters from ``range(h, h + 2**L)`` and ``table[h:h + 2**L]``.
_MULTI_BLOCK = ((2, 9, 256), (2, 10, 256), (3, 7, 729), (4, 6, 1024))
_NOISE = (Fraction(1, 2), -1, 0, 1, Fraction(-3, 2))


def test_multi_block_scans_match_the_reference():
    """Pareto front, leximin, landscape counts and examples, and check_po's
    first improver, against the naive oracles on tables with ties, negatives
    and fractions.  ref_po's O(n**(2m)) is too slow here, so PO comes from a
    naive skyline over the distinct profiles of ``all_allocations``, with
    ref_po itself checked on a few allocations."""
    def dominates(p, q):
        return p != q and all(map(ge, p, q))

    for n, m, block in _MULTI_BLOCK:
        rng = random.Random(9200 + 10 * n + m)
        noise = _NOISE[:12 // n - 1]  # fewer values for more agents keeps the skyline small
        # 4 per item outweighs the noise, so profiles trade items off and the
        # front is wide; the top item costs agent 0 and gives agent 1 more
        # than any other change of bundle, so every allocation of the first
        # block (agent 0 holds all the high items) is improved in a later one
        bonus = (-10, 10) + (0,) * (n - 2)
        inst = Instance(tuple(f"o{i}" for i in range(m)), tuple(
            ExplicitValuation([4 * bin(mask).count("1") + rng.choice(noise)
                               + bonus[i] * (mask >> (m - 1)) for mask in range(1 << m)])
            for i in range(n)))
        vm = value_maps(inst)
        order = sorted(all_allocations(n, m),
                       key=lambda s: sum(i * n ** o for i, b in enumerate(s) for o in b))
        masks = [tuple(sum(1 << o for o in b) for b in s) for s in order]
        profile = [tuple(vm[i][b] for i, b in enumerate(s)) for s in order]
        first = {}  # distinct profile -> its first allocation's index
        for k, p in enumerate(profile):
            first.setdefault(p, k)
        front = {q for q in first if not any(dominates(p, q) for p in first)}
        assert pareto_front(inst) == front and len(front) >= 10, (n, m)
        for k in (0, first[min(front)], len(order) - 1):
            assert ref_po(vm, order[k], n, m) == (profile[k] in front), (n, m, k)

        best, arg = ref_leximin(vm, n, m)
        lm = leximin_set(inst)
        assert [to_sets(a) for a in lm] == [s for s in order if s in arg], (n, m)
        assert utility_vector(inst, lm[0]) == best, (n, m)

        # no first-block profile dominates the one with the first block's
        # largest sum, so its first improver is in a later block
        late = first[max(profile[:block], key=sum)]
        picked = {late, *range(0, len(order), 211), *(first[q] for q in sorted(front)[:2])}
        for k in sorted(picked):
            j = min((first[p] for p in first if dominates(p, profile[k])), default=None)
            assert k != late or j >= block, (n, m)
            want = PoVerdict(j is None, None if j is None else masks[j])
            assert check_po(inst, masks[k]) == want, (n, m, k)

        ref = {"ef1": ref_ef1, "efx": ref_efx, "efxpm": ref_efxpm}
        flags = {ax: [f(vm, s) for s in order] for ax, f in ref.items()}
        flags["po"] = [p in front for p in profile]
        for combos in ((("po",), ("efx", "po"), ("efxpm", "po")),
                       (("ef1",), ("efx", "efxpm"), ("efxpm", "po"), ())):
            want = []
            for combo in combos:
                hits = [k for k in range(len(order)) if all(flags[ax][k] for ax in combo)]
                want.append((combo, len(hits), masks[hits[0]] if hits else None))
            got = [(r.combo, r.count, r.example) for r in landscape(inst, combos)]
            assert got == want, (n, m, combos)
