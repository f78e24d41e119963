"""The boolean axiom kernels against the witness checkers and the naive oracles."""

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
    kernels,
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
    """Kernel, ``check_axiom(...).satisfied`` and the oracle agree everywhere.

    Returns the axioms that were defined on ``inst``.
    """
    axioms = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
    holds = kernels(inst, axioms)
    vm = value_maps(inst)
    for a in enumerate_allocations(inst):
        sets = to_sets(a)
        for ax in axioms:
            want = REFS[ax](vm, sets, inst.m)
            assert holds[ax](a) == check_axiom(inst, a, ax).satisfied == want, (ax, inst, a)
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
    holds = kernels(inst, (EFX, EFXPM, EF1, EF1PM))
    a = (0, inst.full)
    assert holds[EFX](a) and holds[EFXPM](a)
    assert not holds[EF1](a) and not holds[EF1PM](a)
    _assert_three_way_agreement(inst)


def test_kernels_reject_unknown_and_undefined_axioms():
    ex1 = fixture("FIX-EX1").instance
    with pytest.raises(ValueError, match="unknown axiom 'po'"):
        kernels(ex1, ("efx", "po"))
    with pytest.raises(NotWellDefinedError):
        kernels(ex1, (CHEN_LIU,))
    assert kernels(ex1, ()) == {}


def test_scans_keep_nothing_on_the_instance():
    for inst in (generate(GenParams(agents=2, items=5, seed=12_500)),
                 generate(GenParams(agents=3, items=4, item_class="generallyGoodBad",
                                    seed=12_501))):
        before = set(inst.__dict__)
        landscape(inst, [(ax,) for ax in ALL_AXIOMS if well_defined(inst, ax)] + [("po",)])
        fairkit.catalog._allocs(inst, *[ax for ax in ALL_AXIOMS if well_defined(inst, ax)],
                                po=True)
        assert set(inst.__dict__) - before <= {"_item_classes"}


def test_a_scan_fills_each_row_at_most_once(monkeypatch):
    filled = []
    real_row = fairkit.axioms._one_removal_row
    real_good = fairkit.axioms._Rows.fill_good

    def counting_row(t, x, tmin, tmax):
        filled.append(("one-removal", id(t), x))
        return real_row(t, x, tmin, tmax)

    def counting_good(rows, x):
        filled.append(("good", id(rows.t), x))
        return real_good(rows, x)

    monkeypatch.setattr(fairkit.axioms, "_one_removal_row", counting_row)
    monkeypatch.setattr(fairkit.axioms._Rows, "fill_good", counting_good)
    combos = [(ax,) for ax in ALL_AXIOMS] + [("chen-liu", "efx", "po")]
    for inst in (generate(GenParams(agents=2, items=6, item_class="generallyGoodBad",
                                    seed=12_600)),
                 generate(GenParams(agents=3, items=4, item_class="generallyGoodBad",
                                    identical=True, seed=12_601))):
        filled.clear()
        landscape(inst, combos)
        assert filled and len(filled) == len(set(filled))
        tables = {id(v.table) for v in inst.valuations}
        assert {key for _, key, _ in filled} <= tables
