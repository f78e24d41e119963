import hashlib

import pytest

from fairkit import (
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    check_axiom,
    fixture,
    satisfies,
)
from fairkit.axioms import (
    ADDED_BAD,
    ALL_AXIOMS,
    CHEN_LIU,
    EF,
    EF1,
    EF1PM,
    EFX,
    EFX0,
    EFXPM,
    EFXPM0,
    REMOVED_BAD,
    REMOVED_GOOD,
    VACUOUS_ENVY,
    VARIANT_A,
    VARIANT_B,
    NotWellDefinedError,
    Witness,
    well_defined,
)
from fairkit.core import enumerate_allocations
from fairkit.search import GenParams, generate

from conftest import alloc, scaled
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

EX1 = fixture("FIX-EX1").instance
EX2 = fixture("FIX-EX2").instance
T1 = fixture("FIX-T1").instance
T2 = fixture("FIX-T2").instance
T4 = fixture("FIX-T4").instance
D1 = fixture("FIX-D1").instance
ZM = fixture("FIX-ZM").instance


# ---------------------------------------------------------------------------
# EF1

def test_ef1_examples():
    assert check_axiom(T4, alloc(T4, ("a",), ("b", "c", "d")), EF1).satisfied
    v = check_axiom(T4, alloc(T4, (), ("a", "b", "c", "d")), EF1)
    assert not v.satisfied
    for ax in (EF1, EF1PM):
        for a in enumerate_allocations(T4):
            if satisfies(T4, a, EFX):
                assert satisfies(T4, a, ax)


def test_ef1_violation_reports_best_repairs():
    v = check_axiom(T4, alloc(T4, (), ("a", "b", "c", "d")), EF1)
    (w,) = v.violations
    assert w.condition == REMOVED_GOOD and w.lhs == 0 and w.rhs == 3
    v2 = check_axiom(T4, alloc(T4, ("a", "b", "c"), ("d",)), EF1)
    conds = {w.condition for w in v2.violations}
    assert conds == {REMOVED_GOOD, REMOVED_BAD}


# ---------------------------------------------------------------------------
# EFX

def test_efx_examples():
    v = check_axiom(T1, alloc(T1, ("a", "b"), ("c", "d")), EFX)
    assert not v.satisfied
    assert Witness(1, 0, REMOVED_GOOD, 0, 3, 5) in v.violations
    assert check_axiom(T2, alloc(T2, ("a", "b", "c"), ("d",)), EFX).satisfied
    assert check_axiom(EX2, alloc(EX2, ("s", "l1"), ("l2", "l3")), EFX).satisfied


# ---------------------------------------------------------------------------
# EFX-pm

def test_efxpm_examples():
    v = check_axiom(T2, alloc(T2, ("a", "b", "c"), ("d",)), EFXPM)
    assert not v.satisfied
    assert Witness(0, 1, ADDED_BAD, 0, -8, -7) in v.violations
    ok = check_axiom(T1, alloc(T1, ("c",), ("a", "b", "d")), EFXPM)
    assert ok.satisfied
    assert len(ok.vacuous) == 1 and ok.vacuous[0].condition == VACUOUS_ENVY
    assert check_axiom(EX2, alloc(EX2, ("s",), ("l1", "l2", "l3")), EFXPM).satisfied


# ---------------------------------------------------------------------------
# EF1-pm

def test_ef1pm_examples():
    assert check_axiom(T4, alloc(T4, ("a",), ("b", "c", "d")), EF1PM).satisfied
    assert not check_axiom(T4, alloc(T4, (), ("a", "b", "c", "d")), EF1PM).satisfied
    for a in enumerate_allocations(T2):
        if satisfies(T2, a, EFXPM):
            assert satisfies(T2, a, EF1PM)


def test_t4_pins_the_efxpm_vs_ef1pm_gap():
    # handing everything to agent 2 satisfies efxpm only vacuously, yet no
    # single-item repair exists, so ef1pm rejects it; this is the recorded
    # boundary between the two families
    a = (0, T4.full)
    verdict = check_axiom(T4, a, EFXPM)
    assert verdict.satisfied and verdict.vacuous
    assert not check_axiom(T4, a, EF1PM).satisfied


# ---------------------------------------------------------------------------
# variants

def test_zero_variant_gap_on_zm():
    allocs = list(enumerate_allocations(ZM))
    assert sum(satisfies(ZM, a, EFXPM0) for a in allocs) == 0
    assert sum(satisfies(ZM, a, EFXPM) for a in allocs) == 4
    assert check_axiom(ZM, alloc(ZM, ("b",), ("a",)), EFXPM0).satisfied is False
    assert check_axiom(ZM, alloc(ZM, ("b",), ("a",)), EFXPM).satisfied


def test_variant_b_on_t2():
    v = check_axiom(T2, alloc(T2, ("a", "b", "c"), ("d",)), VARIANT_B)
    assert not v.satisfied
    assert Witness(0, 1, ADDED_BAD, 0, -8, -7) in v.violations


def test_zero_variants_are_stronger():
    for k in range(60):
        inst = generate(GenParams(agents=2, items=4, lo=-4, hi=4, seed=2200 + k))
        for a in enumerate_allocations(inst):
            if satisfies(inst, a, EFX0):
                assert satisfies(inst, a, EFX)
            if satisfies(inst, a, EFXPM0):
                assert satisfies(inst, a, EFXPM)


# ---------------------------------------------------------------------------
# chen-liu

def test_chen_liu_examples():
    v = check_axiom(D1, alloc(D1, ("a", "b"), ()), CHEN_LIU)
    assert not v.satisfied
    assert Witness(1, 0, REMOVED_GOOD, 1, 0, 1) in v.violations
    with pytest.raises(NotWellDefinedError):
        check_axiom(EX1, alloc(EX1, ("b",), ("r",)), CHEN_LIU)


def test_check_axiom_rejects_at_the_call():
    # on an envy-free allocation no candidate pass runs, so these errors
    # cannot come from the walk over the envying pairs
    ef = alloc(EX1, ("r",), ("b",))
    assert check_axiom(EX1, ef, EF).satisfied
    for axiom in ("bogus", "po"):
        with pytest.raises(ValueError):
            check_axiom(EX1, ef, axiom)
    with pytest.raises(NotWellDefinedError):
        check_axiom(EX1, ef, CHEN_LIU)


def test_chen_liu_envy_free_allocations_pass():
    inst = Instance(("a", "b"), (AdditiveValuation((2, 2)),) * 2)
    for a in enumerate_allocations(inst):
        if check_axiom(inst, a, EF).satisfied:
            assert check_axiom(inst, a, CHEN_LIU).satisfied


def test_chen_liu_added_bad_clause():
    inst = Instance(("a", "b"), (AdditiveValuation((-1, 3)),) * 2)
    v = check_axiom(inst, alloc(inst, ("a",), ("b",)), CHEN_LIU)
    assert not v.satisfied
    assert Witness(0, 1, ADDED_BAD, 0, -1, 2) in v.violations
    assert Witness(0, 1, REMOVED_GOOD, 1, -1, 0) in v.violations


# ---------------------------------------------------------------------------
# structural properties

def _revalidate(inst, alloc_, w):
    t = inst.valuations[w.envier].table
    a, b = alloc_[w.envier], alloc_[w.envied]
    if w.condition == VACUOUS_ENVY:
        lhs, rhs = t[a], t[b]
    elif w.condition == REMOVED_GOOD:
        lhs, rhs = t[a], t[b ^ (1 << w.item)]
    elif w.condition == REMOVED_BAD:
        lhs, rhs = t[a ^ (1 << w.item)], t[b]
    else:
        lhs, rhs = t[a], t[b | (1 << w.item)]
    assert (lhs, rhs) == (w.lhs, w.rhs)
    assert lhs < rhs


def test_witnesses_revalidate_everywhere():
    for k in range(30):
        inst = generate(GenParams(agents=2 + k % 2, items=3, lo=-5, hi=5, seed=2600 + k))
        for a in enumerate_allocations(inst):
            for ax in (EF, EF1, EFX, EF1PM, EFXPM, EFX0, EFXPM0, VARIANT_A, VARIANT_B):
                verdict = check_axiom(inst, a, ax)
                assert verdict.satisfied == (not verdict.violations)
                for w in verdict.violations + verdict.vacuous:
                    assert w.envier != w.envied
                    _revalidate(inst, a, w)


def test_agent_relabeling_permutes_verdicts():
    perm = (2, 0, 1)
    for k in range(10):
        inst = generate(GenParams(agents=3, items=3, lo=-5, hi=5, seed=3100 + k))
        relabeled = Instance(inst.item_names, tuple(inst.valuations[p] for p in perm))
        for a in enumerate_allocations(inst):
            ra = tuple(a[p] for p in perm)
            for ax in (EF, EF1, EFX, EF1PM, EFXPM):
                assert satisfies(inst, a, ax) == satisfies(relabeled, ra, ax)


def test_checkers_match_reference_implementations():
    refs = {
        EF: ref_ef,
        EF1: ref_ef1,
        EFX: ref_efx,
        EF1PM: ref_ef1pm,
        EFXPM: ref_efxpm,
        VARIANT_A: ref_variant_a,
        VARIANT_B: ref_variant_b,
        EFX0: lambda vm, s: ref_efx(vm, s, zero=True),
        EFXPM0: lambda vm, s: ref_efxpm(vm, s, zero=True),
    }
    for k in range(80):
        inst = generate(GenParams(agents=2 + k % 2, items=3 + (k // 2) % 2,
                                  lo=-5, hi=5, seed=4000 + k))
        vm = value_maps(inst)
        for a in enumerate_allocations(inst):
            sets = to_sets(a)
            for ax, ref in refs.items():
                assert satisfies(inst, a, ax) == ref(vm, sets), (ax, inst, a)


def test_chen_liu_matches_reference_on_ggb_instances():
    for k in range(40):
        inst = generate(GenParams(agents=2, items=3, lo=-5, hi=5,
                                  item_class="generallyGoodBad", seed=4600 + k))
        vm = value_maps(inst)
        for a in enumerate_allocations(inst):
            assert satisfies(inst, a, CHEN_LIU) == ref_chen_liu(vm, to_sets(a), inst.m)


def test_additive_instances_collapse_pm_variants():
    for k in range(60):
        inst = generate(GenParams(agents=2 + k % 2, items=4, lo=-6, hi=6,
                                  additive=True, seed=5200 + k))
        for a in enumerate_allocations(inst):
            assert satisfies(inst, a, EFX) == satisfies(inst, a, EFXPM)
            assert satisfies(inst, a, EF1) == satisfies(inst, a, EF1PM)


def test_ef_implies_every_axiom():
    for k in range(40):
        inst = generate(GenParams(agents=2, items=4, lo=-6, hi=6, seed=5800 + k))
        for a in enumerate_allocations(inst):
            if satisfies(inst, a, EF):
                for ax in (EF1, EFX, EF1PM, EFXPM, EFX0, EFXPM0, VARIANT_A, VARIANT_B):
                    assert satisfies(inst, a, ax)


def test_up_to_any_vs_up_to_some_boundary_instance():
    # complement-heavy table: singletons repel, pairs attract; handing
    # everything away leaves envy that no qualifying item can express, so the
    # "any item" family is satisfied vacuously while the "some item" family
    # correctly reports the unrepairable envy
    table = [0, -1, -1, 5, -1, 5, 5, 4]
    inst = Instance(("a", "b", "c"), (ExplicitValuation(tuple(table)),) * 2)
    a = (0, inst.full)
    assert satisfies(inst, a, EFX)
    assert satisfies(inst, a, EFXPM)
    for verdict in (check_axiom(inst, a, EFX), check_axiom(inst, a, EFXPM)):
        assert [(w.envier, w.envied, w.condition) for w in verdict.vacuous] == [
            (0, 1, VACUOUS_ENVY)]
    assert not satisfies(inst, a, EF1)
    assert not satisfies(inst, a, EF1PM)


# sha256 over repr(check_axiom(...)) for every defined axiom and allocation of
# the grid below, taken before chen-liu was folded into the efx-family checker
_WITNESS_DIGEST = "b76be7185a46f8d9f8a14dadf532ccae0ea3b00355892b9780628500125c4329"


def test_witness_output_is_unchanged():
    digest = hashlib.sha256()
    for k in range(24):
        inst = generate(GenParams(agents=2 + k % 2, items=3, lo=-4, hi=4,
                                  item_class=("any", "generallyGoodBad")[k % 2],
                                  seed=13_000 + k))
        for a in enumerate_allocations(inst):
            for ax in ALL_AXIOMS:
                if well_defined(inst, ax):
                    digest.update(repr(check_axiom(inst, a, ax)).encode())
    assert digest.hexdigest() == _WITNESS_DIGEST


# the same digest over a tie-heavy grid, where the zero variants' and the pm
# clauses' equality groups occur: values in -1..1, identical and noMixed
# agents, 3x4 and 4x3, each instance also with every value halved (Fraction)
_TIE_WITNESS_DIGEST = "bf4dc95032f2b2df2586e49644fbeb99f984669d99947743cdddf1638e951841"


def test_witness_output_on_ties_is_unchanged():
    digest = hashlib.sha256()
    for k in range(16):
        n, m = ((3, 4), (4, 3))[k % 2]
        base = generate(GenParams(agents=n, items=m, lo=-1, hi=1, identical=(k // 2) % 2 == 0,
                                  item_class=("noMixed", "any")[(k // 4) % 2], seed=14_000 + k))
        for inst in (base, scaled(base, 2)):
            for a in enumerate_allocations(inst):
                for ax in ALL_AXIOMS:
                    if well_defined(inst, ax):
                        digest.update(repr(check_axiom(inst, a, ax)).encode())
    assert digest.hexdigest() == _TIE_WITNESS_DIGEST


# the same digest over a wider grid: 2x3, 3x3, 4x3 and 2x5, the three item
# classes, values in -1..1, -3..3 and -8..8, identical agents on alternate
# blocks of nine seeds, every fifth seed also an additive instance, and each
# instance also with every value divided by 3 (Fraction)
_WIDE_WITNESS_DIGEST = "84c214f0fc5d6ad22fb5342906b1852b1140bf9ec9aeaf0b6a45832fcc3afa07"


def test_witness_output_on_a_wide_grid_is_unchanged():
    digest = hashlib.sha256()
    for k in range(150):
        n, m = ((2, 3), (3, 3), (4, 3), (2, 5))[k % 4]
        r = (1, 3, 8)[(k // 12) % 3]
        shape = dict(agents=n, items=m, lo=-r, hi=r, identical=(k // 9) % 2 == 1, seed=15_000 + k)
        bases = [generate(GenParams(item_class=("any", "generallyGoodBad", "noMixed")[k % 3],
                                    **shape))]
        if k % 5 == 0:
            bases.append(generate(GenParams(additive=True, **shape)))
        for base in bases:
            for inst in (base, scaled(base, 3)):
                for a in enumerate_allocations(inst):
                    for ax in ALL_AXIOMS:
                        if well_defined(inst, ax):
                            digest.update(repr(check_axiom(inst, a, ax)).encode())
    assert digest.hexdigest() == _WIDE_WITNESS_DIGEST


def test_chen_liu_lists_added_bad_violations_first():
    inst = Instance(("a", "b"), (AdditiveValuation((-1, 3)),) * 2)
    v = check_axiom(inst, alloc(inst, ("a",), ("b",)), CHEN_LIU)
    assert v.violations == (Witness(0, 1, ADDED_BAD, 0, -1, 2),
                            Witness(0, 1, REMOVED_GOOD, 1, -1, 0))
