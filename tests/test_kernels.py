"""The fused axiom scan (``held``) and the two-agent lane string
(``held_columns``) against the witness checkers, the pair pass, the Pareto
front and the naive oracles."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import fairkit.axioms
import fairkit.catalog
import fairkit.search
from fairkit import (
    ExplicitValuation,
    Instance,
    check_axiom,
    enumerate_allocations,
    classify,
    cut_and_choose,
    fixture,
    held,
    landscape,
    leximin_set,
)
from fairkit.axioms import (
    ALL_AXIOMS,
    CHEN_LIU,
    EFX,
    EFX0,
    EFXPM,
    EFXPM0,
    EF1,
    EF1PM,
    VARIANT_B,
    NotWellDefinedError,
    well_defined,
)
from fairkit.efficiency import pareto_front, utilities
from fairkit.search import DEFAULT_COMBOS, ITEM_CLASSES, GenParams, generate

from conftest import scaled, small_instances
from reference import (
    ref_chen_liu,
    ref_ef,
    ref_ef1,
    ref_ef1pm,
    ref_efx,
    ref_efxpm,
    ref_variant_a,
    ref_variant_b,
    to_sets,
    value_maps,
)

REFS = {
    "ef": lambda vm, s, m: ref_ef(vm, s),
    "ef1": lambda vm, s, m: ref_ef1(vm, s),
    "efx": lambda vm, s, m: ref_efx(vm, s),
    "ef1pm": lambda vm, s, m: ref_ef1pm(vm, s),
    "efxpm": lambda vm, s, m: ref_efxpm(vm, s),
    "efx0": lambda vm, s, m: ref_efx(vm, s, zero=True),
    "efxpm0": lambda vm, s, m: ref_efxpm(vm, s, zero=True),
    "variant-a": lambda vm, s, m: ref_variant_a(vm, s),
    "variant-b": lambda vm, s, m: ref_variant_b(vm, s),
    "chen-liu": ref_chen_liu,
}


def _assert_three_way_agreement(inst):
    """Each scan bit, ``check_axiom(...).satisfied`` and the oracle agree everywhere,
    and scans built over fewer axioms (each alone, each run of three, and
    all of them in reverse order), whose pair passes stop early at other
    points, give the same answers, each numbering its own axioms.  Returns
    the axioms that were defined on ``inst``.
    """
    axioms = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    scan = held(inst, axioms)
    subsets = [[ax] for ax in axioms] + [axioms[k:k + 3] for k in range(len(axioms) - 2)]
    narrower = [(subset, held(inst, subset)) for subset in subsets + [axioms[::-1]]]
    vm = value_maps(inst)
    for a in enumerate_allocations(inst):
        got = scan(a)
        sets = to_sets(a)
        for k, ax in enumerate(axioms):
            want = REFS[ax](vm, sets, inst.m)
            assert bool(got >> k & 1) == check_axiom(inst, a, ax).satisfied == want, (
                ax, inst, a)
        assert got < 1 << len(axioms), (inst, a)
        for subset, sub_scan in narrower:
            expected = sum(1 << k for k, ax in enumerate(subset) if got >> axioms.index(ax) & 1)
            assert sub_scan(a) == expected, (subset, inst, a)
    return axioms


def test_kernels_match_checkers_and_reference_on_seeded_grid():
    families = [
        dict(lo=-4, hi=4),
        dict(lo=-4, hi=4, item_class="generallyGoodBad"),
        dict(lo=-4, hi=4, additive=True),
        dict(lo=-2, hi=2, identical=True),
    ]
    grid = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]
    chen_liu_checked = 0
    for f, family in enumerate(families):
        base = GenParams(seed=12_000 + 100 * f, **family)
        for k, (n, m) in enumerate(grid * 3):
            inst = generate(replace(base, agents=n, items=m, seed=base.seed + k))
            chen_liu_checked += CHEN_LIU in _assert_three_way_agreement(inst)
    assert chen_liu_checked >= len(grid) * 3  # every generallyGoodBad instance at least


@given(small_instances())
def test_kernels_match_reference_property(inst):
    _assert_three_way_agreement(inst)


def test_kernels_on_the_up_to_any_vs_up_to_some_boundary_instance():
    table = [0, -1, -1, 5, -1, 5, 5, 4]
    inst = Instance(("a", "b", "c"), (ExplicitValuation(tuple(table)),) * 2)
    scan = held(inst, (EFX, EFXPM, EF1, EF1PM))
    a = (0, inst.full)
    assert scan(a) == 0b0011  # efx and efxpm, the first two ids
    _assert_three_way_agreement(inst)


def test_kernels_reject_unknown_and_undefined_axioms():
    ex1 = fixture("FIX-EX1").instance
    with pytest.raises(ValueError, match="unknown axiom 'po'"):
        held(ex1, ("efx", "po"))
    with pytest.raises(NotWellDefinedError):
        held(ex1, (CHEN_LIU,))
    allocs = list(enumerate_allocations(ex1))
    assert [held(ex1, ())(a) for a in allocs] == [0] * len(allocs)
    repeated = held(ex1, (EFX, EF1, EFX))  # bit k is the k-th distinct id
    assert [repeated(a) for a in allocs] == [
        check_axiom(ex1, a, EFX).satisfied | check_axiom(ex1, a, EF1).satisfied << 1
        for a in allocs]
    with pytest.raises(ValueError, match="unknown axiom 'po'"):
        fairkit.axioms.held_columns(ex1, ("efx", "po"))
    with pytest.raises(NotWellDefinedError):
        fairkit.axioms.held_columns(ex1, (CHEN_LIU,))
    assert (fairkit.axioms.held_columns(ex1, (EFX, EF1, EFX))
            == fairkit.axioms.held_columns(ex1, (EFX, EF1)))
    with pytest.raises(ValueError, match="two agents, got 3"):
        fairkit.axioms.held_columns(generate(GenParams(agents=3, items=2, seed=12_400)), (EFX,))


def test_scans_keep_nothing_on_the_instance():
    for inst in (generate(GenParams(agents=2, items=5, seed=12_500)),
                 generate(GenParams(agents=3, items=4, item_class="generallyGoodBad",
                                    seed=12_501))):
        before = set(inst.__dict__)
        landscape(inst, [(ax,) for ax in ALL_AXIOMS if well_defined(inst, ax)] + [("po",)])
        fairkit.catalog._scan(inst, tuple(ax for ax in ALL_AXIOMS if well_defined(inst, ax))
                              + ("po",))
        assert set(inst.__dict__) - before <= {"_item_classes"}


def test_landscape_builds_one_scan_and_skips_envy_free_allocations(monkeypatch):
    """One build per landscape, over exactly the axioms its combos name.
    With three agents, each allocation is scanned once, and no envy-free
    allocation reaches a pair pass.  With two, the columns make no pair
    pass at all.  Either way an allocation holds every named axiom it
    satisfies, and the po bit when it is PO."""
    builds, scanned, passed, pass_builds = [], [], [], []
    real_held = fairkit.axioms.held
    real_columns = fairkit.axioms.held_columns
    real_pass = fairkit.axioms._pair_pass

    def counting_pass(axiom_ids):
        pass_builds.append(axiom_ids)
        fails = real_pass(axiom_ids)

        def recorded(t, a, b, *rest):  # the allocation being scanned, if any, and the pair
            passed.append((scanned[-1] if scanned else None, t, a, b))
            return fails(t, a, b, *rest)
        return recorded

    def recording_held(inst, axiom_ids):
        builds.append(tuple(axiom_ids))
        scan = real_held(inst, axiom_ids)
        return lambda alloc: scanned.append(alloc) or scan(alloc)

    def recording_columns(inst, axiom_ids, po):
        builds.append(tuple(axiom_ids))
        return real_columns(inst, axiom_ids, po)

    monkeypatch.setattr(fairkit.axioms, "_pair_pass", counting_pass)
    monkeypatch.setattr(fairkit.axioms, "held", recording_held)
    monkeypatch.setattr(fairkit.axioms, "held_columns", recording_columns)
    combos = [("ef1",), ("efx", "efx0"), ("chen-liu", "efx", "po"), ("efxpm", "po"), ("po",)]
    for inst in (generate(GenParams(agents=2, items=6, item_class="generallyGoodBad",
                                    seed=12_600)),
                 generate(GenParams(agents=3, items=4, item_class="generallyGoodBad",
                                    identical=True, seed=12_601))):
        builds.clear()
        scanned.clear()
        passed.clear()
        pass_builds.clear()
        landscape(inst, combos)
        assert builds == [("chen-liu", "ef1", "efx", "efx0", "efxpm")]
        allocs = list(enumerate_allocations(inst))
        front = pareto_front(inst)
        if inst.n == 2:
            assert not scanned and not pass_builds and not passed
        else:
            assert scanned == allocs
            envious = {a for a in allocs if not check_axiom(inst, a, "ef").satisfied}
            assert envious and {alloc for alloc, *_ in passed} == envious
        needs, walk = fairkit.search.held_walk(inst, combos)
        walked = [(a, held) for allocs_, helds in walk for a, held in zip(allocs_, helds)]
        assert [a for a, _ in walked] == allocs
        scan = real_held(inst, ["chen-liu", "ef1", "efx", "efx0", "efxpm"])
        assert [held for _, held in walked] == [
            scan(a) | (0b100000 if utilities(inst, a) in front else 0) for a in allocs]  # po


# ---------------------------------------------------------------------------
# the two-agent lane string against one pair pass per envying bundle, and
# against the fused scan and the Pareto front

def _passed_lanes(inst, axiom_ids, indices, po=False):
    """``held_columns``' entries at the allocation ``indices``: per agent,
    one ``_pair_pass`` per envying bundle and ``want`` (every axiom bit)
    where the agent does not envy, ANDed as ``c0[full ^ k] & c1[k]``; with
    ``po``, the po bit above them where the profile is in ``pareto_front``."""
    ids = tuple(dict.fromkeys(axiom_ids))
    want = (1 << len(ids)) - 1
    fails = fairkit.axioms._pair_pass(ids)
    full = inst.full
    columns = [[want & ~fails(t, x, full ^ x, t[x], t[full ^ x], good, bad)
                if t[x] < t[full ^ x] else want for x in range(full + 1)]
               for t, (good, bad) in zip([v.table for v in inst.valuations],
                                         fairkit.axioms._chen_liu_masks(inst, ids))]
    t0, t1 = (v.table for v in inst.valuations)
    front = pareto_front(inst) if po else ()
    return [columns[0][full ^ k] & columns[1][k] | ((t0[full ^ k], t1[k]) in front) << len(ids)
            for k in indices]


def _assert_columns_match_the_pair_pass(inst, axiom_sets=None, indices=None):
    """The lane string equals the per-bundle passes for every defined axiom
    alone, all of them together and reversed (or ``axiom_sets``), each
    holding its axioms' bits only, and with ``po`` the po bit above them;
    at the allocation ``indices`` only, if given."""
    defined = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    if axiom_sets is None:
        axiom_sets = [[ax] for ax in defined] + [defined, defined[::-1]]
    indices = range(inst.full + 1) if indices is None else indices
    for ids in axiom_sets:
        for po in (False, True):
            lanes = fairkit.axioms.held_columns(inst, ids, po)
            assert len(lanes) == inst.full + 1
            assert [lanes[k] for k in indices] == _passed_lanes(inst, ids, indices, po), (
                ids, po, inst)
    return defined


def _assert_lanes_match_the_scan(inst, axiom_ids, indices=None):
    """The lane string with ``po`` equals :func:`held`'s scan of each
    allocation ORed with the po bit from ``pareto_front``, allocation by
    allocation in enumeration order (at ``indices`` only, if given)."""
    ids = tuple(dict.fromkeys(axiom_ids))
    allocs = list(enumerate_allocations(inst))
    indices = range(len(allocs)) if indices is None else indices
    lanes = fairkit.axioms.held_columns(inst, ids, True)
    scan = held(inst, ids)
    front = pareto_front(inst)
    assert len(lanes) == len(allocs)
    assert [lanes[k] for k in indices] == [
        scan(allocs[k]) | (utilities(inst, allocs[k]) in front) << len(ids) for k in indices]


def test_columns_match_the_pair_pass_on_seeded_grids():
    chen_liu = 0
    for c, item_class in enumerate(ITEM_CLASSES):
        for m in range(1, 11):
            inst = generate(GenParams(agents=2, items=m, item_class=item_class,
                                      seed=13_000 + 100 * c + m))
            chen_liu += CHEN_LIU in _assert_columns_match_the_pair_pass(inst)
            if m % 3 == 0:
                _assert_columns_match_the_pair_pass(scaled(inst, 2))
    assert chen_liu >= 10  # every generallyGoodBad instance at least
    for m in (2, 5, 8):  # many ties, one table shared by both agents
        for kw in (dict(lo=-1, hi=1), dict(lo=0, hi=1, identical=True)):
            _assert_columns_match_the_pair_pass(
                generate(GenParams(agents=2, items=m, seed=13_400 + m, **kw)))


def _with_levels(m, levels, seed, unit=Fraction(1, 7)):
    """A two-agent instance on m items whose tables take exactly ``levels``
    distinct values between them, of both signs, each a multiple of
    ``unit``."""
    rng = random.Random(seed)
    pool = list(range(levels)) + [rng.randrange(levels) for _ in range((2 << m) - levels)]
    rng.shuffle(pool)
    values = [(2 * v - levels) * unit for v in pool]
    return Instance([f"i{o}" for o in range(m)],
                    (ExplicitValuation(values[:1 << m]), ExplicitValuation(values[1 << m:])))


def test_lane_widths_hold_every_rank_and_every_bit(monkeypatch):
    """Lanes widen from 8 to 16 bits past 128 distinct values or 8 held
    bits (8 axioms, or 7 and the po bit), and to 32 bits past 32,768
    values; either side of each edge, the lane string equals the per-bundle
    passes, and with po, the fused scan ORed with the po bit of the Pareto
    front, at each width with 8 named axioms and po."""
    widths = []
    real_lanes = fairkit.axioms._lanes
    monkeypatch.setattr(fairkit.axioms, "_lanes", lambda m, w: widths.append(w) or real_lanes(m, w))
    eight = [ax for ax in ALL_AXIOMS if ax != CHEN_LIU][:8]  # 8 axioms: 8 bits
    for levels, width in ((126, 8), (127, 8), (128, 8), (129, 16), (200, 16)):
        inst = _with_levels(7, levels, seed=13_500 + levels)
        for ids, po, want in ((eight, False, width), ([EFX, EF1PM], False, width),
                              (eight[:7], True, width), (eight, True, 16)):
            widths.clear()
            assert list(fairkit.axioms.held_columns(inst, ids, po)) == _passed_lanes(
                inst, ids, range(inst.full + 1), po), (levels, ids, po)
            assert set(widths) == {want}, (levels, ids, po, widths)
        widths.clear()
        _assert_lanes_match_the_scan(inst, eight)
        assert set(widths) == {16}
        if width == 8:
            widths.clear()
            _assert_lanes_match_the_scan(inst, eight[:7])
            assert set(widths) == {8}
    # 128 values with agent 1's top rank, 127, in two thirds of its bundles: a
    # rank with no front point maps to all-ones, which 127 differs from in
    # the top bit only
    inst = Instance([f"i{o}" for o in range(7)],
                    (ExplicitValuation([x * 5 % 127 for x in range(128)]),
                     ExplicitValuation([127 if x % 3 else x % 127 for x in range(128)])))
    widths.clear()
    _assert_lanes_match_the_scan(inst, eight[:7])
    assert set(widths) == {8}
    inst = generate(GenParams(agents=2, items=6, item_class="generallyGoodBad", seed=13_600))
    assert well_defined(inst, CHEN_LIU)
    for ids, po, width in ((ALL_AXIOMS[:8], False, 8), (ALL_AXIOMS[2:], False, 8),
                           (ALL_AXIOMS[:7], True, 8), (ALL_AXIOMS[:9], False, 16),
                           (ALL_AXIOMS[:8], True, 16), (ALL_AXIOMS, True, 16)):
        widths.clear()
        assert list(fairkit.axioms.held_columns(inst, ids, po)) == _passed_lanes(
            inst, ids, range(inst.full + 1), po)
        assert set(widths) == {width}, (len(ids), po, widths)
    sample = [*range(0, 1 << 15, 97), (1 << 15) - 1]
    for levels, width in ((1 << 15, 16), ((1 << 15) + 1, 32)):
        inst = _with_levels(15, levels, seed=13_700, unit=1)
        widths.clear()
        _assert_columns_match_the_pair_pass(inst, [[EFX, EF1, EFXPM0]], sample)
        _assert_lanes_match_the_scan(inst, eight, sample)
        assert set(widths) == {width}
    inst = _with_levels(16, 1 << 17, seed=13_800, unit=1)  # 2x16, every value distinct
    widths.clear()
    _assert_columns_match_the_pair_pass(inst, [[EFX0, EF1PM, VARIANT_B]],
                                        [*range(0, 1 << 16, 331), (1 << 16) - 1])
    assert set(widths) == {32}


def test_offset_codes_and_the_rank_map_give_the_pair_pass_lanes(monkeypatch):
    """Int tables within [-64, 63], both ends among their values, take the
    offset code (``_offset_ranks`` returns codes); one value of -65 or 64,
    or one ``Fraction``, sends them to the rank map (it returns None), and
    so do 8 named axioms with po, whose 9 held bits leave 8-bit lanes (it
    is not called).  On each path the lane string equals the per-bundle
    passes, without and with po."""
    codes = []
    real = fairkit.axioms._offset_ranks
    monkeypatch.setattr(fairkit.axioms, "_offset_ranks",
                        lambda m, t0, t1: codes.append(real(m, t0, t1)) or codes[-1])
    eight = [ax for ax in ALL_AXIOMS if ax != CHEN_LIU][:8]
    nine = [eight[:7], [eight[7], VARIANT_B]]  # every axiom but chen-liu, in 8-bit lanes with po
    for m in range(1, 9):
        rng = random.Random(13_900 + m)
        values = [rng.randint(-64, 63) for _ in range(2 << m)]
        low, high, odd = rng.sample(range(2 << m), 3)
        values[low], values[high] = -64, 63
        for x, offset in ((None, True), (-65, False), (64, False), (Fraction(1, 2), False)):
            if x is not None:
                values[odd] = x
            inst = Instance([f"i{o}" for o in range(m)], (ExplicitValuation(values[:1 << m]),
                                                          ExplicitValuation(values[1 << m:])))
            codes.clear()
            _assert_columns_match_the_pair_pass(inst, [*nine, eight])
            assert len(codes) == 5, (m, x)  # every call but the one of eight with po
            assert {c is not None for c in codes} == {offset}, (m, x)


# ---------------------------------------------------------------------------
# metamorphic relations: maps that keep each agent's order keep every verdict

_MAX_ITEMS = {2: 10, 3: 5, 4: 3}  # two agents: up to four blocks of 256 allocations


@st.composite
def _reordered(draw):
    """A seeded instance of 2 agents and up to 10 items, 3 and up to 5, or 4
    and up to 3; a copy whose values went through one positive rational
    scale, or through a strictly increasing map per agent with ``Fraction``
    images of either sign; and whether it was a scale."""
    n = draw(st.integers(2, 4))
    m = draw(st.sampled_from(range(1, _MAX_ITEMS[n] + 1)))
    inst = generate(GenParams(agents=n, items=m, item_class=draw(st.sampled_from(ITEM_CLASSES)),
                              seed=draw(st.integers(0, 10**6))))
    scaled = draw(st.booleans())
    if scaled:
        scale = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
        maps = [scale.__mul__] * n
    else:
        maps = []
        for v in inst.valuations:
            levels = sorted(set(v.table))
            start = Fraction(draw(st.integers(-60, 20)), draw(st.integers(1, 9)))
            steps = draw(st.lists(st.fractions(Fraction(1, 9), 5, max_denominator=9),
                                  min_size=len(levels), max_size=len(levels)))
            maps.append(dict(zip(levels, accumulate(steps, initial=start))).__getitem__)
    moved = Instance(inst.item_names, tuple(ExplicitValuation(list(map(f, v.table)))
                                            for f, v in zip(maps, inst.valuations)))
    return inst, moved, scaled


def _flag_rows(inst):
    """``enumerate``'s rows of axiom flags, for every defined axiom and po,
    in enumeration order."""
    defined = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    needs, walk = fairkit.search.held_walk(inst, [(ax,) for ax in [*defined, "po"]] + [()])
    return [tuple(held & need == need for need in needs) for _, helds in walk for held in helds]


@settings(max_examples=100, deadline=None)
@given(_reordered())
def test_order_preserving_maps_keep_columns_and_landscapes(case):
    """Two-agent columns, landscape rows with their examples and the flag
    rows are unchanged, and under a scale the leximin set too; and the
    moved instance's rows, each computed alone (so a combo whose every
    axiom comes with po is decided by the per-allocation scan), equal the
    original's computed together."""
    inst, moved, scaled = case
    defined = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    assert defined == [ax for ax in ALL_AXIOMS if well_defined(moved, ax)]
    if inst.n == 2:
        for po in (False, True):
            assert (fairkit.axioms.held_columns(moved, defined, po)
                    == fairkit.axioms.held_columns(inst, defined, po))
    combos = [*DEFAULT_COMBOS, *[(ax,) for ax in defined if (ax,) not in DEFAULT_COMBOS],
              *[(ax, "po") for ax in defined]]
    rows = landscape(inst, combos)
    assert landscape(moved, combos) == rows
    assert [row for combo in combos for row in landscape(moved, [combo])] == rows
    assert _flag_rows(moved) == _flag_rows(inst)
    if scaled:  # leximin compares values across agents: only a common scale keeps it
        assert leximin_set(moved) == leximin_set(inst)


@st.composite
def _common_order(draw):
    """A seeded instance of the shapes of :func:`_reordered`, and a copy
    whose values all went through one strictly increasing map, shared by
    every agent, with ``Fraction`` images of either sign."""
    n = draw(st.integers(2, 4))
    m = draw(st.sampled_from(range(1, _MAX_ITEMS[n] + 1)))
    inst = generate(GenParams(agents=n, items=m, item_class=draw(st.sampled_from(ITEM_CLASSES)),
                              seed=draw(st.integers(0, 10**6))))
    levels = sorted(set().union(*(v.table for v in inst.valuations)))
    start = Fraction(draw(st.integers(-60, 20)), draw(st.integers(1, 9)))
    steps = draw(st.lists(st.fractions(Fraction(1, 9), 5, max_denominator=9),
                          min_size=len(levels), max_size=len(levels)))
    image = dict(zip(levels, accumulate(steps, initial=start)))
    return inst, Instance(inst.item_names, tuple(ExplicitValuation([image[x] for x in v.table])
                                                 for v in inst.valuations))


@settings(max_examples=100, deadline=None)
@given(_common_order())
def test_one_increasing_map_for_every_agent_keeps_leximin(case):
    """Leximin compares the sorted profiles, which one increasing map for
    all agents keeps in order, so the leximin set and both cutters'
    cut-and-choose allocations are unchanged."""
    inst, moved = case
    assert leximin_set(moved) == leximin_set(inst)
    if inst.n == 2:
        assert [cut_and_choose(moved, c) for c in (0, 1)] == [cut_and_choose(inst, c)
                                                               for c in (0, 1)]


# ---------------------------------------------------------------------------
# metamorphic relations: renaming agents or items permutes every verdict

@st.composite
def _permuted(draw):
    """A seeded instance of 2 agents and up to 10 items, 3 and up to 5, or 4
    and up to 3; two copies, one whose agents and one whose items were
    permuted; and the two permutations (new agent i is old agent
    ``agents[i]``, new item o is old item ``items[o]``)."""
    n = draw(st.integers(2, 4))
    m = draw(st.sampled_from(range(1, _MAX_ITEMS[n] + 1)))
    inst = generate(GenParams(agents=n, items=m, item_class=draw(st.sampled_from(ITEM_CLASSES)),
                              seed=draw(st.integers(0, 10**6))))
    agents = draw(st.permutations(range(n)))
    by_agents = Instance(inst.item_names, tuple(inst.valuations[i] for i in agents))
    items = draw(st.permutations(range(m)))
    old_mask = [sum(1 << items[o] for o in range(m) if x >> o & 1) for x in range(1 << m)]
    by_items = Instance(inst.item_names, tuple(ExplicitValuation([v.table[y] for y in old_mask])
                                               for v in inst.valuations))
    return inst, by_agents, by_items, agents, items


def _counts_and_rows(inst):
    """Every landscape count (the default combos, and each defined axiom
    alone and with po), the counts of the po combos walked on their own
    (front allocations only), and the multiset of ``enumerate``'s rows of
    axiom flags for every defined axiom and po."""
    defined = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    combos = [*DEFAULT_COMBOS, *[(ax,) for ax in defined], *[(ax, "po") for ax in defined]]
    counts = [(row.combo, row.count) for row in landscape(inst, combos)]
    with_po = [(row.combo, row.count) for row in landscape(inst, [c for c in combos if "po" in c])]
    return counts, with_po, Counter(_flag_rows(inst))


def _flags(inst):
    """``classify``'s problem flags, and its per-agent rows and per-item
    column of item flags (the witnesses name bundles and agents, so they
    are left out)."""
    problem, matrix = classify(inst)
    return problem, matrix.generally_good, matrix.generally_bad, matrix.mixed


@settings(deadline=None)
@given(_permuted())
def test_permuting_agents_keeps_counts_and_rows(case):
    inst, by_agents, _, agents, _ = case
    assert _counts_and_rows(by_agents) == _counts_and_rows(inst)
    problem, good, bad, mixed = _flags(inst)
    assert _flags(by_agents) == (problem, tuple(good[i] for i in agents),
                                 tuple(bad[i] for i in agents), mixed)


@settings(deadline=None)
@given(_permuted())
def test_permuting_items_keeps_counts_and_rows(case):
    inst, _, by_items, _, items = case
    assert _counts_and_rows(by_items) == _counts_and_rows(inst)
    problem, good, bad, mixed = _flags(inst)

    def moved(row):
        return tuple(row[o] for o in items)

    assert _flags(by_items) == (problem, tuple(map(moved, good)), tuple(map(moved, bad)),
                                moved(mixed))
