"""The fused axiom scan (``held``) against the witness checkers and the naive oracles."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fairkit.axioms
import fairkit.catalog
from fairkit import (
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    check_axiom,
    enumerate_allocations,
    fixture,
    held,
    landscape,
)
from fairkit.axioms import (
    ALL_AXIOMS,
    CHEN_LIU,
    EFX,
    EFXPM,
    EF1,
    EF1PM,
    NotWellDefinedError,
    well_defined,
)
from fairkit.efficiency import pareto_front, utilities
from fairkit.search import GenParams, generate

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
    and narrower scans give the same answers.

    The narrower scans are the same scan asked for fewer bits (every single
    bit, two halves of the axioms as a landscape splits them into everywhere
    and front-only bits, their union, and a mask that changes with the
    allocation), and scans built over fewer axioms (each alone, each run of
    three, and all of them in reverse order), whose pair passes stop early at
    other points.  Returns the axioms that were defined on ``inst``.
    """
    axioms = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    bit_of, scan = held(inst, axioms)
    every = sum(bit_of.values())
    everywhere = sum(bit_of[ax] for ax in axioms[::2])
    front_only = every ^ everywhere
    subsets = [[ax] for ax in axioms] + [axioms[k:k + 3] for k in range(len(axioms) - 2)]
    narrower = [held(inst, subset) for subset in subsets + [axioms[::-1]]]
    vm = value_maps(inst)
    for k, a in enumerate(enumerate_allocations(inst)):
        got = scan(a, every)
        sets = to_sets(a)
        for ax in axioms:
            want = REFS[ax](vm, sets, inst.m)
            assert bool(got & bit_of[ax]) == check_axiom(inst, a, ax).satisfied == want, (
                ax, inst, a)
        for w in [*bit_of.values(), everywhere, front_only, every, (k * 0x9E37) & every]:
            assert scan(a, w) == w & got, (w, inst, a)
        for sub_bits, sub_scan in narrower:
            expected = sum(bit for ax, bit in sub_bits.items() if got & bit_of[ax])
            assert sub_scan(a, sum(sub_bits.values())) == expected, (list(sub_bits), inst, a)
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


@given(_small_instances())
def test_kernels_match_reference_property(inst):
    _assert_three_way_agreement(inst)


def test_kernels_on_the_up_to_any_vs_up_to_some_boundary_instance():
    table = [0, -1, -1, 5, -1, 5, 5, 4]
    inst = Instance(("a", "b", "c"), (ExplicitValuation(tuple(table)),) * 2)
    bit_of, scan = held(inst, (EFX, EFXPM, EF1, EF1PM))
    a = (0, inst.full)
    assert scan(a, sum(bit_of.values())) == bit_of[EFX] | bit_of[EFXPM]
    _assert_three_way_agreement(inst)


def test_kernels_reject_unknown_and_undefined_axioms():
    ex1 = fixture("FIX-EX1").instance
    with pytest.raises(ValueError, match="unknown axiom 'po'"):
        held(ex1, ("efx", "po"))
    with pytest.raises(NotWellDefinedError):
        held(ex1, (CHEN_LIU,))
    bit_of, scan = held(ex1, ())
    assert bit_of == {} and scan((0, ex1.full), 0) == 0
    assert held(ex1, (EFX, EF1, EFX))[0] == {EFX: 1, EF1: 2}


def test_scans_keep_nothing_on_the_instance():
    for inst in (generate(GenParams(agents=2, items=5, seed=12_500)),
                 generate(GenParams(agents=3, items=4, item_class="generallyGoodBad",
                                    seed=12_501))):
        before = set(inst.__dict__)
        landscape(inst, [(ax,) for ax in ALL_AXIOMS if well_defined(inst, ax)] + [("po",)])
        fairkit.catalog._scan(inst, "&".join([ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
                                             + ["po"]))
        assert set(inst.__dict__) - before <= {"_item_classes"}


def test_landscape_builds_one_scan_and_skips_envy_free_allocations(monkeypatch):
    """One scan per landscape, over exactly the axioms its combos name; each
    allocation is scanned once, for the front-only bits only when it is PO;
    and no envy-free allocation reaches a pair pass."""
    builds, scanned, passed = [], [], []
    real_held = fairkit.axioms.held
    real_pass = fairkit.axioms._pair_pass

    def counting_pass(axiom_ids):
        fails = real_pass(axiom_ids)
        return lambda *args: passed.append(scanned[-1][0]) or fails(*args)

    def recording_held(inst, axiom_ids):
        builds.append(tuple(axiom_ids))
        bit_of, scan = real_held(inst, axiom_ids)
        return bit_of, lambda alloc, want: scanned.append((alloc, want)) or scan(alloc, want)

    monkeypatch.setattr(fairkit.axioms, "_pair_pass", counting_pass)
    monkeypatch.setattr(fairkit.axioms, "held", recording_held)
    combos = [("ef1",), ("efx", "efx0"), ("chen-liu", "efx", "po"), ("efxpm", "po"), ("po",)]
    for inst in (generate(GenParams(agents=2, items=6, item_class="generallyGoodBad",
                                    seed=12_600)),
                 generate(GenParams(agents=3, items=4, item_class="generallyGoodBad",
                                    identical=True, seed=12_601))):
        builds.clear()
        scanned.clear()
        passed.clear()
        landscape(inst, combos)
        assert builds == [("chen-liu", "ef1", "efx", "efx0", "efxpm")]
        allocs = list(enumerate_allocations(inst))
        assert [a for a, _ in scanned] == allocs
        front = pareto_front(inst)
        everywhere, on_front = 0b01110, 0b11111  # ef1, efx, efx0 | chen-liu, efxpm
        assert [want for _, want in scanned] == [
            on_front if utilities(inst, a) in front else everywhere for a in allocs]
        envious = {a for a in allocs if not check_axiom(inst, a, "ef").satisfied}
        assert envious and set(passed) == envious
