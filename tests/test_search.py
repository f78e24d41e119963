import hashlib
import json
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations, islice, product
from operator import ge

import pytest
from hypothesis import given, settings, strategies as st

import fairkit.axioms
import fairkit.cli
import fairkit.search
from fairkit import BudgetExceededError, dumps_instance, fixture
from fairkit.axioms import ALL_AXIOMS, check_axiom
from fairkit.core import is_additive_consistent
from fairkit.efficiency import pareto_front, utilities
from fairkit.search import (
    DEFAULT_COMBOS,
    ITEM_CLASSES,
    GenParams,
    LandscapeRow,
    RejectionBudgetError,
    SplitMix64,
    generate,
    held_walk,
    landscape,
    mine,
    parse_axioms,
    parse_predicate,
)
from fairkit.taxonomy import classify

from conftest import scaled
from reference import (
    oracle_flags,
    oracle_landscape,
    oracle_rows,
    ref_chen_liu,
    ref_disjoint_constant,
    ref_generally_good_bad,
    rows_as_sets,
    splitmix64,
    to_sets,
    value_maps,
)


def test_splitmix_take_matches_the_scalar_stream():
    # lane sums wrap past 2**64 from the two high seeds; 1,024 values make a chunk
    for seed in (0, 2 ** 63, 2 ** 64 - 1):
        for k in (0, 1, 2, 1023, 1024, 1025, 2049):
            rng = SplitMix64(seed)
            ref = list(islice(splitmix64(seed), k))
            assert list(rng.take(k)) == [value for _, value in ref], (seed, k)
            assert rng._state == (ref[-1][0] if ref else seed)
        for a, b in ((0, 3), (1, 1024), (1023, 2), (1024, 1025), (2049, 1)):
            rng = SplitMix64(seed)
            first, second = rng.take(a), rng.take(b)  # each reads from the state at its call
            ref = list(islice(splitmix64(seed), a + b))
            assert list(second) + list(first) == [v for _, v in ref[a:] + ref[:a]], (seed, a, b)
            assert rng._state == ref[-1][0]
            assert next(rng.take(1)) == next(islice(splitmix64(seed), a + b, None))[1]


def test_splitmix_is_stable():
    # reference values of the splitmix64 stream from seed 0
    assert list(SplitMix64(0).take(3)) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_generate_is_deterministic():
    p = GenParams(agents=3, items=4, lo=-9, hi=9, seed=99)
    assert generate(p) == generate(p)
    assert generate(p) != generate(GenParams(agents=3, items=4, lo=-9, hi=9, seed=100))


@st.composite
def _gen_params(draw, lo=st.integers(-5, 2), width=None):
    """Generator parameters; ``width`` draws hi - lo + 1 from the item count."""
    items, lo = draw(st.integers(1, 4)), draw(lo)
    hi = draw(st.integers(lo, 5)) if width is None else lo + draw(width(items)) - 1
    item_class = draw(st.sampled_from(ITEM_CLASSES))
    free = item_class == "any"  # an item class takes neither additive nor dn
    return GenParams(agents=draw(st.integers(2, 3)), items=items, lo=lo, hi=hi,
                     identical=draw(st.booleans()),
                     additive=free and draw(st.booleans()),
                     nonzero_marginals=draw(st.booleans()),
                     disjointly_normalised=free and draw(st.booleans()),
                     item_class=item_class, seed=draw(st.integers(0, 2 ** 64)))


def _generated(params):
    """The canonical export of ``generate(params)``, or the error it raised."""
    try:
        return dumps_instance(generate(params))
    except RejectionBudgetError as exc:
        return repr(exc)


@given(_gen_params())
@settings(max_examples=80)
def test_generate_is_deterministic_property(params):
    first = _generated(params)
    assert _generated(replace(params)) == first
    assert _generated(params) == first


_PINNED_STREAMS = {  # family -> sha256 prefix of its instances over the grid below
    "any": ({}, "2c721fd3405ebbf3"),
    "generallyGoodBad": (dict(item_class="generallyGoodBad"), "01d93eec5f432bef"),
    "noMixed": (dict(item_class="noMixed"), "a322d27430dada1f"),
    "identical": (dict(identical=True), "0f53d234abb703fa"),
    "additive": (dict(additive=True), "092305bd03d4f18c"),
    "dn": (dict(disjointly_normalised=True), "1638db08b3ca090c"),
    "additive+dn": (dict(additive=True, disjointly_normalised=True), "86fba0e6cbeec3ed"),
    "generallyGoodBad+nz": (dict(item_class="generallyGoodBad", nonzero_marginals=True),
                            "0e809ec6fcfaab7a"),
    "nz": (dict(nonzero_marginals=True), "0661a55e96a83923"),
    "additive+nz": (dict(additive=True, nonzero_marginals=True), "48f86f3dc92b9aef"),
}

# family -> sha256 prefix over a grid at m = 11, where an explicit table
# takes 2,048 draws: more than one chunk of SplitMix64.take
_PINNED_STREAMS_11 = {
    "any": "468522e4d931a6b4",
    "generallyGoodBad": "33fe790fd84112f7",
    "noMixed": "4b978bb00538271b",
    "identical": "385451a1bfba5ee2",
    "additive": "2ad328a44102affa",
    "dn": "2d63bda55e0c7a9f",
    "additive+dn": "17dc70ac0c304863",
    "generallyGoodBad+nz": "098b338f2740cee2",
    "nz": "e711d3d753660eea",
    "additive+nz": "c92c601956c58c39",
}


@pytest.mark.parametrize("family", sorted(_PINNED_STREAMS))
def test_generate_streams_are_pinned(family):
    # every family yields the same bytes per seed as when it was pinned, so
    # mined seeds and benchmark inputs stay reproducible
    kw, want = _PINNED_STREAMS[family]
    h = hashlib.sha256()
    for n, m in ((2, 3), (2, 4), (3, 4), (2, 6), (3, 6)):
        for lo, hi in ((-8, 8), (-3, 5)):
            for seed in range(4):
                p = GenParams(agents=n, items=m, lo=lo, hi=hi, seed=seed, **kw)
                h.update(dumps_instance(generate(p)).encode())
    assert h.hexdigest()[:16] == want


@pytest.mark.parametrize("family", sorted(_PINNED_STREAMS_11))
def test_generate_streams_are_pinned_across_chunks(family):
    kw, _ = _PINNED_STREAMS[family]
    h = hashlib.sha256()
    for n in (2, 3):
        for lo, hi in ((-8, 8), (-1000, 1000)):
            for seed in range(2):
                p = GenParams(agents=n, items=11, lo=lo, hi=hi, seed=seed, **kw)
                h.update(dumps_instance(generate(p)).encode())
    assert h.hexdigest()[:16] == _PINNED_STREAMS_11[family]


def test_generate_peak_memory_stays_near_its_tables():
    # draws are mixed one chunk at a time, never as one list of the stream
    p = GenParams(agents=2, items=16, seed=5)
    generate(replace(p, items=11))  # the chunk constants are built outside the trace
    tracemalloc.start()
    try:
        inst = generate(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sum(sys.getsizeof(v.table) for v in inst.valuations)


def _assert_meets_constraints(inst, p):
    assert inst.n == p.agents and inst.m == p.items
    if p.identical:
        assert inst.is_identical()
    if p.additive:
        assert all(is_additive_consistent(v) for v in inst.valuations)
    if p.disjointly_normalised:
        assert ref_disjoint_constant(value_maps(inst), inst.m) is not None
    if p.nonzero_marginals:
        assert inst.has_nonzero_marginals()
    if p.item_class != "any":
        problem, _ = classify(inst)
        if p.item_class == "generallyGoodBad":
            assert problem.generally_good_bad_items
        else:
            assert problem.no_mixed_items


def test_generated_instances_meet_constraints():
    nz6 = dict(nonzero_marginals=True, items=6)
    combos = [
        dict(identical=True),
        dict(additive=True),
        dict(identical=True, additive=True),
        dict(disjointly_normalised=True),
        dict(additive=True, disjointly_normalised=True),
        dict(nonzero_marginals=True),
        dict(item_class="generallyGoodBad"),
        dict(item_class="noMixed"),
        dict(item_class="generallyGoodBad", nonzero_marginals=True),
        dict(nz6, disjointly_normalised=True),
        dict(nz6, additive=True, disjointly_normalised=True),
        dict(nz6, identical=True),
    ]
    for base_seed, kw in enumerate(combos):
        for k in range(20):
            p = GenParams(**{"agents": 2 + k % 2, "items": 3 + k % 2, "lo": -6, "hi": 6,
                             "seed": base_seed * 1000 + k, **kw})
            _assert_meets_constraints(generate(p), p)


@pytest.mark.parametrize("kw", [dict(), dict(disjointly_normalised=True), dict(additive=True),
                                dict(identical=True)], ids=["plain", "dn", "additive", "identical"])
def test_nonzero_marginals_at_six_items_come_from_one_draw(kw):
    for seed in range(200):
        p = GenParams(agents=2, items=6, nonzero_marginals=True, seed=seed, **kw)
        _assert_meets_constraints(generate(p), p)


@pytest.mark.parametrize("kw", [dict(), dict(disjointly_normalised=True), dict(additive=True),
                                dict(additive=True, disjointly_normalised=True)],
                         ids=["plain", "dn", "additive", "additive+dn"])
def test_nonzero_marginals_on_the_narrowest_range_that_always_works(kw):
    # hi - lo + 1 = m + 1: one value is left after the most an entry avoids
    for m in range(1, 5):
        for seed in range(30):
            p = GenParams(agents=2, items=m, lo=-(m // 2) - 1, hi=m - m // 2 - 1,
                          nonzero_marginals=True, seed=seed, **kw)
            _assert_meets_constraints(generate(p), p)


@given(_gen_params(lo=st.integers(-12, 4),
                   width=lambda m: st.integers(m + 1, 2 * m + 3)))
@settings(max_examples=150)
def test_generate_never_rejects_a_range_wider_than_the_items(params):
    # an entry avoids at most m values, so hi - lo + 1 > m always leaves one
    _assert_meets_constraints(generate(params), params)


def test_item_classes_take_neither_additive_nor_disjointly_normalised():
    for item_class in ("generallyGoodBad", "noMixed"):
        for kw in (dict(additive=True), dict(disjointly_normalised=True)):
            with pytest.raises(ValueError, match="already has generally good/bad items"):
                GenParams(item_class=item_class, **kw)
    with pytest.raises(ValueError, match="item_class must be one of"):
        GenParams(item_class="x")


@pytest.mark.parametrize("kw, name", [(dict(lo=-1.5, hi=2.5, seed=1), "lo"),
                                      (dict(lo=True, hi=3), "lo"),
                                      (dict(agents=2.0), "agents")])
def test_gen_params_take_only_ints(kw, name):
    # a float value would reach the explicit tables, past the exactness contract
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        GenParams(**kw)


def test_generate_values_stay_in_range_without_structural_constraints():
    p = GenParams(agents=2, items=3, lo=-2, hi=2, seed=5)
    inst = generate(p)
    for v in inst.valuations:
        assert all(-2 <= x <= 2 for x in v.table)


def test_rejection_budget_error():
    # all-zero range cannot produce non-zero marginals
    p = GenParams(agents=2, items=2, lo=0, hi=0, nonzero_marginals=True, seed=0)
    with pytest.raises(RejectionBudgetError):
        generate(p)


def test_landscape_fixture_rows():
    t1 = fixture("FIX-T1").instance
    rows = {r.combo: r for r in landscape(t1)}
    assert rows[("efx",)].count == 0 and rows[("efx",)].example is None
    t2 = fixture("FIX-T2").instance
    rows2 = {r.combo: r.count for r in landscape(t2)}
    assert rows2[("efx", "efxpm")] == 0
    assert rows2[("efx", "po")] == 0
    assert rows2[("efx",)] == 2
    t4 = fixture("FIX-T4").instance
    rows4 = {r.combo: r.count for r in landscape(t4)}
    assert rows4[("ef1", "po")] == 0
    assert rows4[("ef1pm", "po")] == 0
    assert rows4[("ef1",)] == 10


def test_landscape_counts_are_bounded_and_examples_satisfy():
    inst = generate(GenParams(agents=2, items=3, lo=-4, hi=4, seed=77))
    total = 2 ** 3
    for row in landscape(inst):
        assert 0 <= row.count <= total
        if row.count:
            assert row.example is not None


def test_landscape_skips_chen_liu_when_undefined():
    ex1 = fixture("FIX-EX1").instance
    rows = landscape(ex1, combos=[("efx",), ("chen-liu",)])
    assert [r.combo for r in rows] == [("efx",)]
    d1 = fixture("FIX-D1").instance
    rows = landscape(d1, combos=[("chen-liu", "po")])
    assert rows[0].count == 0


def test_two_agent_landscape_builds_only_its_examples(monkeypatch):
    """A two-agent landscape walks no allocation stream: it tallies one
    lane string and decodes one allocation per distinct held set, on 8- and
    16-bit lanes, with and without po, with rows equal to those counted
    from the walk's allocations."""
    decoded = []
    real_getitem = fairkit.core._Allocations.__getitem__

    def forbidden(*args):
        raise AssertionError("an allocation stream was walked")

    for kw in (dict(items=9), dict(items=9, lo=-300, hi=300), dict(items=4)):
        inst = generate(GenParams(agents=2, seed=9990, **kw))
        combos = [*DEFAULT_COMBOS, ("efx0", "efxpm0")]
        for case in (combos, [c for c in combos if "po" not in c]):
            needs, walk = held_walk(inst, case)
            walked = _walked(walk)
            want = [LandscapeRow(combo, sum(held & need == need for _, held in walked),
                                 next((a for a, held in walked if held & need == need), None))
                    for combo, need in zip(case, needs)]
            with monkeypatch.context() as patched:
                patched.setattr(fairkit.core, "_blocks", forbidden)
                patched.setattr(fairkit.core._Allocations, "__getitem__",
                                lambda self, k: decoded.append(k) or real_getitem(self, k))
                decoded.clear()
                assert landscape(inst, case) == want
            assert len(decoded) == len(set(held for _, held in walked)), kw


def test_landscape_with_no_defined_combo_walks_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("allocations walked for no combo")

    monkeypatch.setattr(fairkit.search, "_blocks", forbidden)
    ex1 = fixture("FIX-EX1").instance  # chen-liu is undefined here
    assert landscape(ex1, [("chen-liu",)]) == landscape(ex1, [("chen-liu", "po")]) == []


def test_parse_predicate():
    p = parse_predicate("efxpm&po>=1")
    assert p.combo == ("efxpm", "po") and p.op == ">=" and p.target == 1
    assert parse_predicate("ef=all").target == "all"
    with pytest.raises(ValueError):
        parse_predicate("bogus=0")
    with pytest.raises(ValueError):
        parse_predicate("efx~0")
    # the target is all or ASCII digits: no sign, no underscore, no other script's digits
    for text in ("efx=x", "efx=1.5", "efx&po>=", "po<=al", "efx>=-1", "efx=-1", "efx= -1 ",
                 "efx<=+1", "efx=\u0663", "efx=1_000", "efx=\u00b2", "efx=1 0", "efx=ALL"):
        with pytest.raises(ValueError, match=r"cannot parse predicate .* \(use e\.g\. 'efx=0'"):
            parse_predicate(text)
    assert parse_predicate("efx= 012 ").target == 12


def test_predicate_axiom_names_read_like_the_axioms_option():
    # stripped, lower-cased and each once in first-seen order, as --axioms reads them
    p = parse_predicate(" EFXPM & PO & efxpm =0")
    assert p.combo == ("efxpm", "po") and p.text() == "efxpm&po=0"
    assert parse_axioms(["EFX", " efx ", "", "po"]) == ("efx", "po")
    with pytest.raises(ValueError, match="no axioms requested"):
        parse_predicate(" & =0")
    with pytest.raises(ValueError, match="unknown axiom 'efz'; known: ef, ef1, "):
        parse_predicate("po&EFZ=0")


def test_mine_finds_zero_variant_gap_instances():
    params = GenParams(agents=2, items=2, lo=0, hi=1, identical=True,
                       additive=True, seed=0)
    hits = mine(params, parse_predicate("efxpm0=0"), 10)
    assert hits
    for hit in hits:
        rows = {r.combo: r.count for r in landscape(hit.instance, combos=[("efxpm0",)])}
        assert rows[("efxpm0",)] == 0
        values = {v for v in hit.instance.valuations[0].item_values}
        assert values == {0, 1}


def test_generate_additive_nonzero_means_nonzero_item_values():
    for k in range(30):
        p = GenParams(agents=2, items=4, lo=-3, hi=3, additive=True,
                      nonzero_marginals=True, seed=9000 + k)
        inst = generate(p)
        for v in inst.valuations:
            assert all(x != 0 for x in v.item_values)


def test_mine_efx_impossibility_hits_revalidate():
    # identical valuations with non-zero marginals can still rule EFX out
    # entirely; every hit must reproduce its landscape when re-run
    params = GenParams(agents=2, items=4, lo=-8, hi=8, identical=True,
                       nonzero_marginals=True, seed=0)
    hits = mine(params, parse_predicate("efx=0"), 300)
    assert hits
    for hit in hits:
        assert hit.instance.is_identical()
        assert hit.instance.has_nonzero_marginals()
        again = {r.combo: r.count for r in landscape(hit.instance, combos=[("efx",)])}
        assert again[("efx",)] == 0


def test_mine_trivial_always_envy_free():
    params = GenParams(agents=2, items=2, lo=0, hi=0, identical=True, seed=0)
    hits = mine(params, parse_predicate("ef=all"), 1)
    assert len(hits) == 1 and hits[0].seed == 0


def test_mine_is_reproducible():
    params = GenParams(agents=2, items=3, lo=-3, hi=3, seed=12)
    pred = parse_predicate("efx>=1")
    a = mine(params, pred, 25)
    b = mine(params, pred, 25)
    assert [h.seed for h in a] == [h.seed for h in b]
    assert [h.instance for h in a] == [h.instance for h in b]


def test_mine_seeds_are_consecutive_offsets():
    params = GenParams(agents=2, items=2, lo=-1, hi=1, seed=40)
    hits = mine(params, parse_predicate("ef1>=0"), 5)  # always true
    assert [h.seed for h in hits] == [40, 41, 42, 43, 44]


def test_landscape_matches_naive_oracle():
    cases = [
        GenParams(agents=2, items=4, lo=-4, hi=4, seed=9100),
        GenParams(agents=3, items=3, lo=-3, hi=3, seed=9200),
        GenParams(agents=4, items=2, lo=-3, hi=3, seed=9300),
        GenParams(agents=2, items=4, lo=-2, hi=2, identical=True, seed=9400),
        GenParams(agents=3, items=3, lo=-2, hi=2, additive=True, seed=9500),
    ]
    for base in cases:
        for k in range(4):
            inst = generate(replace(base, seed=base.seed + k))
            want = oracle_landscape(inst, DEFAULT_COMBOS)
            assert rows_as_sets(landscape(inst)) == want


def test_landscape_chen_liu_rows_match_naive_oracle():
    combos = (("chen-liu",), ("chen-liu", "po"), ("efxpm", "po"), ("po",))
    for k in range(8):
        inst = generate(GenParams(agents=2 + k % 2, items=3, item_class="generallyGoodBad",
                                  seed=9600 + k))
        assert rows_as_sets(landscape(inst, combos)) == oracle_landscape(inst, combos)


_WALK_COMBO_SETS = (
    (("po",),),
    (("efx", "po"), ("efxpm", "po"), ("ef1pm", "efx0", "po")),  # every combo has po
    (("ef1",), ("efx", "po"), ("po",)),
    ((), ("efxpm0",), ("efx0", "po")),
    ((), ("po",)),
    (("efxpm", "po"), ()),
)


def _walked(walk):
    """A walk's ``(allocation, held)`` pairs, block by block; each block's two
    iterables cover the same run of allocations."""
    pairs = []
    for allocs, helds in walk:
        allocs, helds = list(allocs), list(helds)
        assert len(allocs) == len(helds)
        pairs += zip(allocs, helds)
    return pairs


def test_held_walk_matches_the_reference_in_enumeration_order():
    grids = (GenParams(agents=2, items=4, lo=-1, hi=1, seed=9900),
             GenParams(agents=3, items=3, lo=-2, hi=2, item_class="generallyGoodBad", seed=9910),
             GenParams(agents=2, items=3, lo=0, hi=1, identical=True, seed=9920),
             GenParams(agents=4, items=2, lo=-1, hi=1, additive=True, seed=9930))
    axes = {ax for combos in _WALK_COMBO_SETS for combo in combos for ax in combo}
    front_only = 0
    for params in grids:
        for k in range(3):
            seeded = generate(replace(params, seed=params.seed + k))
            for inst in (seeded, scaled(seeded, 3)):
                order, flags = oracle_flags(inst, axes)
                for combos in _WALK_COMBO_SETS:
                    needs, walk = held_walk(inst, combos)
                    walked = [(to_sets(alloc), held) for alloc, held in _walked(walk)]
                    if all("po" in combo for combo in combos):
                        front_only += 1
                        po = {s for s, is_po in zip(order, flags["po"]) if is_po}
                        assert all(s in po for s, _ in walked)
                    else:
                        assert [s for s, _ in walked] == order
                    for combo, need in zip(combos, needs):
                        want = [s for i, s in enumerate(order)
                                if all(flags[ax][i] for ax in combo)]
                        assert [s for s, held in walked if held & need == need] == want, combo
    assert front_only == 2 * 2 * 3 * len(grids)


_DENSE_PAIR_SHAPES = (  # (items, families, Fraction copies too): single-block up to m = 8
    [(m, ("ties", "goodBad", "identical", "additive", "normalised"), True) for m in range(1, 9)]
    + [(9, ("ties", "identical"), True), (10, ("goodBad", "additive", "normalised"), False),
       (12, ("ties", "goodBad"), False)])
_DENSE_PAIR_FAMILIES = {
    "ties": dict(lo=-1, hi=1), "goodBad": dict(lo=-2, hi=2, item_class="generallyGoodBad"),
    "identical": dict(lo=-2, hi=2, identical=True), "additive": dict(lo=-2, hi=2, additive=True),
    "normalised": dict(lo=-2, hi=2, disjointly_normalised=True),
}
_BESIDE_PO_COMBOS = (("efx",), ("efxpm", "po"), ("ef1pm", "efx0", "po"), ("chen-liu", "po"))


def _ref_po_flags(inst, order):
    """PO of each allocation of ``order`` from a naive skyline over the
    distinct profiles (``ref_po`` per allocation is O(4**m) here)."""
    vm = value_maps(inst)
    profiles = [tuple(vm[i][s[i]] for i in range(inst.n)) for s in order]
    distinct = set(profiles)
    front = {p for p in distinct if not any(q != p and all(map(ge, q, p)) for q in distinct)}
    return [p in front for p in profiles]


def test_dense_two_agent_walks_match_the_reference(tmp_path, capsys):
    """Two-agent walks over every allocation, from the per-agent columns,
    against the naive oracles: ``landscape`` with the default combos and
    with every axiom alone and with po, a walk that names some axioms only
    beside po (chen-liu on generallyGoodBad instances among them), and
    ``enumerate``'s rows, on 2x1 to 2x12 (one block up to m = 8, several
    above) with ties, Fraction tables and identical, additive and
    disjointly normalised agents."""
    solo_and_po = [(ax,) for ax in ALL_AXIOMS] + [(ax, "po") for ax in ALL_AXIOMS]
    checked = {"chen-liu": 0, "multi-block": 0}
    for m, families, thirds in _DENSE_PAIR_SHAPES:
        for f, family in enumerate(families):
            seeded = generate(GenParams(agents=2, items=m, seed=9950 + 10 * m + f,
                                        **_DENSE_PAIR_FAMILIES[family]))
            for inst in (seeded, scaled(seeded, 3)) if thirds else (seeded,):
                chen_liu = ref_generally_good_bad(value_maps(inst), m)
                defined = [ax for ax in ALL_AXIOMS if chen_liu or ax != "chen-liu"]
                order, flags = oracle_flags(inst, defined)
                flags["po"] = _ref_po_flags(inst, order)
                checked["chen-liu"] += "chen-liu" in defined
                checked["multi-block"] += m > 8
                solo = [c for c in solo_and_po if c[0] in defined]
                assert rows_as_sets(landscape(inst)) == oracle_rows(order, flags, DEFAULT_COMBOS)
                assert rows_as_sets(landscape(inst, solo_and_po)) == oracle_rows(order, flags,
                                                                                 solo)
                combos = [c for c in _BESIDE_PO_COMBOS if c[0] in defined]
                needs, walk = held_walk(inst, combos)
                walked = [(to_sets(alloc), held) for alloc, held in _walked(walk)]
                assert [s for s, _ in walked] == order
                for combo, need in zip(combos, needs):
                    assert [held & need == need for _, held in walked] == [
                        all(flags[ax][k] for ax in combo) for k in range(len(order))], combo
                path = tmp_path / "inst.json"
                path.write_text(dumps_instance(inst))
                requested = defined + ["po"]
                assert fairkit.cli.main(["enumerate", str(path), "--axioms",
                                         ",".join(requested)]) == 0
                rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
                assert [r["index"] for r in rows] == list(range(len(order)))
                assert [tuple(frozenset(inst.item_names.index(x) for x in b)
                              for b in r["bundles"]) for r in rows] == order
                assert [r["axioms"] for r in rows] == [
                    {ax: flags[ax][k] for ax in requested} for k in range(len(order))]
    assert checked["chen-liu"] >= 10 and checked["multi-block"] >= 7


def test_held_sets_carry_every_named_axiom_on_and_off_the_front():
    """Every walked allocation holds the bits of the named axioms that
    ``check_axiom`` accepts, the k-th sorted name owning ``1 << k``, and the
    po bit above them iff its profile is on the Pareto front, on single-
    and multi-block shapes (2x9, 2x10, 3x7) of both walks."""
    combos = [("ef",), ("efxpm", "po"), ("chen-liu", "efx", "po"), ()]
    names = ["chen-liu", "ef", "efx", "efxpm"]
    for k, (n, m) in enumerate(((2, 4), (2, 9), (2, 10), (3, 4), (3, 7))):
        inst = generate(GenParams(agents=n, items=m, item_class="generallyGoodBad",
                                  seed=9960 + k))
        front = pareto_front(inst)
        needs, walk = held_walk(inst, combos)
        assert needs == [0b00010, 0b11000, 0b10101, 0]
        walked = _walked(walk)
        assert [alloc for alloc, _ in walked] == list(fairkit.search.enumerate_allocations(inst))
        assert [held for _, held in walked] == [
            sum(1 << b for b, ax in enumerate(names) if check_axiom(inst, alloc, ax).satisfied)
            | (utilities(inst, alloc) in front) << len(names) for alloc, _ in walked], (n, m)


class _Unread:
    """A profile iterator that fails the test when it is read."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("a profile was read for a walk without po")


def test_held_walk_without_po_reads_no_profile(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a Pareto front was computed for a walk without po")

    lanes = []  # the two-agent walk's lane strings: the only values a walk without po reads
    reads = []
    real_columns, real_blocks, real_layout = (
        fairkit.axioms.held_columns, fairkit.search._blocks, fairkit.core._layout)

    def recording(inst, axiom_ids, po):
        assert not po, "the po bit was asked for by a walk without po"
        lanes.append(real_columns(inst, axiom_ids, po))
        return lanes[-1]

    def blocks(n, m, tables):
        assert not tables, "a valuation table was streamed for a walk without po"
        return ((allocs, _Unread()) for allocs, _ in real_blocks(n, m, tables))

    def checked(getter):
        def read(values):
            reads.append(len(values))
            return getter(values)
        return read

    monkeypatch.setattr(fairkit.axioms, "held_columns", recording)
    monkeypatch.setattr(fairkit.search, "_blocks", blocks)
    monkeypatch.setattr(fairkit.core, "_layout", lambda n, m: real_layout(n, m)[:2] + (
        tuple(map(checked, real_layout(n, m)[2])),))
    monkeypatch.setattr(fairkit.search, "pareto_front", forbidden)
    monkeypatch.setattr(fairkit.axioms, "_on_front", forbidden)
    # a single-block and a multi-block shape for each of the two walks without po
    for n, m, seed in ((3, 3, 9940), (3, 7, 9942), (2, 4, 9943), (2, 10, 9941)):
        lanes.clear()
        reads.clear()
        inst = generate(GenParams(agents=n, items=m, lo=-1, hi=1, seed=seed))
        order, flags = oracle_flags(inst, {"ef"})
        assert [to_sets(alloc) for alloc in fairkit.search.enumerate_allocations(inst)] == order
        [ef, anything], walk = held_walk(inst, [("ef",), ()])
        walked = _walked(walk)
        assert [to_sets(alloc) for alloc, _ in walked] == order
        assert [held & ef == ef for _, held in walked] == flags["ef"]
        assert anything == 0 and any(flags["ef"]) and not all(flags["ef"])
        assert not reads, (n, m)  # no value read through an allocation stream
        if n == 2:  # one block: the lane string, built once
            assert len(lanes) == 1 and [held for _, held in walked] == list(lanes[0])


def test_landscape_checks_each_axiom_once(monkeypatch):
    """One scan over the named axioms, each once, and one call of it per
    allocation, the off-front ones included."""
    inst = generate(GenParams(agents=3, items=4, item_class="generallyGoodBad", seed=9700))
    scanned = []
    builds = []
    real = fairkit.axioms.held

    def counting(inst, axiom_ids):
        scan = real(inst, axiom_ids)
        builds.append(tuple(axiom_ids))
        return lambda alloc: scanned.append(alloc) or scan(alloc)

    monkeypatch.setattr(fairkit.axioms, "held", counting)
    allocs = list(fairkit.search.enumerate_allocations(inst))
    landscape(inst, (("efx",), ("efx", "po"), ("efxpm", "po"), ("chen-liu", "efxpm", "po")))
    assert builds == [("chen-liu", "efx", "efxpm")]
    assert scanned == allocs


def test_landscape_checks_the_budget_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(fairkit.axioms, "held", forbidden)
    monkeypatch.setattr(fairkit.axioms, "classify", forbidden)
    ex1 = fixture("FIX-EX1").instance
    for combos in (None, [("chen-liu",)], [("efxpm", "po")]):
        with pytest.raises(BudgetExceededError):
            landscape(ex1, combos, budget=3)


def test_chen_liu_classifies_each_instance_once(monkeypatch):
    inst = generate(GenParams(agents=3, items=3, item_class="generallyGoodBad", seed=9800))
    calls = []
    monkeypatch.setattr(fairkit.axioms, "classify",
                        lambda inst: calls.append(1) or classify(inst))
    vm = value_maps(inst)
    for a in fairkit.search.enumerate_allocations(inst):
        sets = tuple(frozenset(o for o in range(inst.m) if b >> o & 1) for b in a)
        assert fairkit.axioms.satisfies(inst, a, "chen-liu") == ref_chen_liu(vm, sets, inst.m)
    assert len(calls) == 1
    ex1 = fixture("FIX-EX1").instance
    for a in fairkit.search.enumerate_allocations(ex1):
        with pytest.raises(fairkit.axioms.NotWellDefinedError):
            fairkit.axioms.check_axiom(ex1, a, "chen-liu")


def test_gen_params_reject_items_over_the_cap():
    for items in (17, 21):
        with pytest.raises(ValueError, match=f"item count {items} outside 1..16"):
            GenParams(items=items)
    assert GenParams(items=16).items == 16


def test_gen_params_reject_agents_over_the_cap():
    for agents in (65, 10 ** 12):
        with pytest.raises(ValueError, match="cap of 64"):
            GenParams(agents=agents, identical=True)
    assert GenParams(agents=64, identical=True).agents == 64


# ---------------------------------------------------------------------------
# mine decides each predicate without a landscape

_MINE_GRIDS = (
    GenParams(agents=2, items=3, lo=-3, hi=3, seed=500),
    GenParams(agents=2, items=4, lo=-3, hi=3, item_class="generallyGoodBad", seed=600),
    GenParams(agents=3, items=3, lo=-2, hi=2, seed=700),
    GenParams(agents=2, items=3, lo=0, hi=1, identical=True, seed=800),
    GenParams(agents=3, items=3, lo=-3, hi=3, seed=900),
)
_MINE_SEEDS = 10
_MINE_COMBOS = (("ef",), ("efx",), ("efx", "efxpm"), ("po",), ("efxpm", "po"), ("ef1", "po"),
                ("chen-liu",), ("chen-liu", "po"))
_MINE_TARGETS = (0, 1, 2, 3, 4, 5, "all")


def test_mine_decides_every_predicate_like_a_full_landscape():
    undefined = boundary = 0
    for params in _MINE_GRIDS:
        seen = []  # (seed, instance, {combo: row of the full landscape})
        for k in range(_MINE_SEEDS):
            inst = generate(replace(params, seed=params.seed + k))
            rows = {r.combo: r for r in landscape(inst, _MINE_COMBOS)}
            undefined += ("chen-liu",) not in rows
            seen.append((params.seed + k, inst, rows))
        total = params.agents ** params.items
        for combo in _MINE_COMBOS:
            for op in ("=", "<=", ">="):
                for target in _MINE_TARGETS:
                    pred = parse_predicate("&".join(combo) + op + str(target))
                    want = [(seed, inst, (rows[combo],)) for seed, inst, rows in seen
                            if combo in rows
                            and pred.settled(rows[combo].count, rows[combo].count, total)]
                    got = [(h.seed, h.instance, h.rows) for h in mine(params, pred, _MINE_SEEDS)]
                    assert got == want, (params, pred.text())
                    boundary += sum(target != "all" and rows[combo].count in (target - 1, target)
                                    for _, _, rows in seen if combo in rows)
    assert undefined and boundary > 100  # chen-liu undefined somewhere; counts at the targets


def test_mine_builds_a_landscape_for_hits_only(monkeypatch):
    calls = []
    real = fairkit.search.landscape
    monkeypatch.setattr(fairkit.search, "landscape",
                        lambda inst, *a: calls.append(inst) or real(inst, *a))
    params = GenParams(agents=3, items=4, lo=-3, hi=3, item_class="generallyGoodBad", seed=950)
    hits = mine(params, parse_predicate("efx&po>=3"), 20)
    assert hits and len(hits) < 20
    assert calls == [h.instance for h in hits]


def test_mine_po_scan_tests_front_allocations_only(monkeypatch):
    tested = []
    real = fairkit.axioms.held

    def recording(inst, axiom_ids):
        scan = real(inst, axiom_ids)

        def scan_and_record(alloc):
            tested.append((inst, alloc))
            return scan(alloc)
        return scan_and_record

    monkeypatch.setattr(fairkit.axioms, "held", recording)
    params = GenParams(agents=3, items=3, lo=-3, hi=3, seed=975)
    mine(params, parse_predicate("efxpm&po>=5"), 10)
    assert tested
    fronts = {}
    for inst, alloc in tested:
        if inst not in fronts:
            fronts[inst] = pareto_front(inst)
        assert utilities(inst, alloc) in fronts[inst]


def test_mine_checks_the_budget_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work done before the budget check")

    for module, name in ((fairkit.axioms, "held"), (fairkit.axioms, "classify"),
                         (fairkit.search, "pareto_front"),
                         (fairkit.search, "landscape"), (fairkit.core, "_layout")):
        monkeypatch.setattr(module, name, forbidden)
    params = GenParams(agents=2, items=4, seed=3)
    for text in ("efxpm&po=0", "efx>=1", "chen-liu=0"):
        with pytest.raises(BudgetExceededError):
            mine(params, parse_predicate(text), 2, budget=15)


def test_mine_seeds_checks_its_arguments_at_the_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(fairkit.search, "generate", forbidden)
    params, predicate = GenParams(agents=2, items=4), parse_predicate("efx>=0")
    with pytest.raises(ValueError, match="count must be >= 0"):
        fairkit.search.mine_seeds(params, predicate, -1)
    with pytest.raises(BudgetExceededError):
        fairkit.search.mine_seeds(params, predicate, 3, budget=15)
    fairkit.search.mine_seeds(params, predicate, 3, budget=16)  # generates only when iterated


def test_predicate_settles_only_when_every_count_in_range_agrees():
    cases = {  # (text, lo, hi) -> value, or None while undecided
        ("efx=2", 0, 5): None, ("efx=2", 3, 5): False, ("efx=2", 0, 1): False,
        ("efx=2", 2, 2): True, ("efx=all", 8, 8): True, ("efx=all", 0, 7): False,
        ("efx<=2", 0, 2): True, ("efx<=2", 0, 3): None, ("efx<=2", 3, 8): False,
        ("efx>=2", 2, 8): True, ("efx>=2", 1, 8): None, ("efx>=2", 0, 1): False,
        ("efx>=0", 0, 8): True, ("efx<=all", 0, 8): True,
    }
    for (text, lo, hi), want in cases.items():
        assert parse_predicate(text).settled(lo, hi, 8) is want, (text, lo, hi)
    # by definition: True if every count in lo..hi meets the bound, False if none does
    meets = {"=": int.__eq__, "<=": int.__le__, ">=": int.__ge__}
    for op, target, total in product(meets, [*range(11), "all"], (0, 1, 4, 8)):
        p = parse_predicate(f"efx{op}{target}")
        t = total if target == "all" else target
        for lo, hi in combinations(range(total + 2), 2):
            met = {meets[op](c, t) for c in range(lo, hi)}
            want = met.pop() if len(met) == 1 else None
            assert p.settled(lo, hi - 1, total) is want, (p.text(), lo, hi - 1, total)


def test_mine_seeds_reports_skipped_seeds():
    params = GenParams(agents=2, items=2, lo=0, hi=0, nonzero_marginals=True, seed=5)
    scans = list(fairkit.search.mine_seeds(params, parse_predicate("efx>=0"), 3))
    assert [(seed, hit) for seed, hit, _ in scans] == [(5, None), (6, None), (7, None)]
    assert all("non-zero marginals" in reason for _, _, reason in scans)
    assert mine(params, parse_predicate("efx>=0"), 3) == []
    ok = list(fairkit.search.mine_seeds(replace(params, hi=3), parse_predicate("efx>=0"), 2))
    assert [(seed, hit.seed, reason) for seed, hit, reason in ok] == [(5, 5, None), (6, 6, None)]


def test_mine_seeds_rejects_a_negative_count():
    params, predicate = GenParams(agents=2, items=2), parse_predicate("efx>=0")
    with pytest.raises(ValueError, match="count must be >= 0"):
        next(fairkit.search.mine_seeds(params, predicate, -1))
    with pytest.raises(ValueError, match="count must be >= 0"):
        mine(params, predicate, -1)
    assert list(fairkit.search.mine_seeds(params, predicate, 0)) == []
