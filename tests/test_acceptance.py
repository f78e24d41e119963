"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Property-suite failures
print the offending instance as a JSON artifact so they can be replayed.
"""

import json
import operator
from itertools import permutations

from fairkit import (
    check_axiom,
    check_po,
    cut_and_choose,
    dumps_instance,
    enumerate_allocations,
    envies,
    fixture,
    leximin_set,
    mask_from_names,
    pareto_improves,
    satisfies,
    utilities,
    utility_vector,
    verify_claims,
)
from fairkit.axioms import (
    CHEN_LIU,
    EF,
    EF1,
    EF1PM,
    EFX,
    EFXPM,
    EFXPM0,
    REMOVED_GOOD,
    Witness,
)
from fairkit.search import GenParams, generate
from fairkit.serialize import allocation_to_document
from fairkit.taxonomy import classify
from reference import value_maps

T1 = fixture("FIX-T1").instance
T2 = fixture("FIX-T2").instance
T4 = fixture("FIX-T4").instance
EX1 = fixture("FIX-EX1").instance
EX2 = fixture("FIX-EX2").instance
OBS1 = fixture("FIX-OBS1").instance
OBS3 = fixture("FIX-OBS3").instance
D1 = fixture("FIX-D1").instance
ZM = fixture("FIX-ZM").instance


def alloc(inst, *bundles):
    return tuple(mask_from_names(inst.item_names, b) for b in bundles)


def _report(cid, desc, ok, extra=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {cid} failed: {desc}\n{extra}"


def _artifact(inst, allocation=None, note=""):
    parts = [note, "instance:", dumps_instance(inst)]
    if allocation is not None:
        parts.append("allocation: " + json.dumps(allocation_to_document(inst, allocation)))
    return "\n".join(p for p in parts if p)


# ---------------------------------------------------------------------------
# criteria 1-10: fixture facts

def test_criterion_01_t1_no_efx_with_witnesses():
    allocs = list(enumerate_allocations(T1))
    count = sum(check_axiom(T1, a, EFX).satisfied for a in allocs)
    rows = (  # envied bundle, removed item, lhs < rhs
        (("a", "b", "c", "d"), "c", 0, 8),
        (("b", "c", "d"), "c", 5, 6),
        (("a", "c", "d"), "c", 5, 6),
        (("a", "b", "d"), "d", 5, 6),
        (("a", "b", "c"), "c", 5, 6),
        (("a", "b"), "a", 3, 5),
        (("b", "d"), "b", 3, 5),
        (("a", "d"), "d", 3, 5),
    )
    witnesses_ok = True
    for bundle, item, lhs, rhs in rows:
        envied = mask_from_names(T1.item_names, bundle)
        o = T1.item_index(item)
        for envied_pos in (0, 1):  # stated agent-swap symmetry
            a = (envied, T1.full ^ envied) if envied_pos == 0 else (T1.full ^ envied, envied)
            want = Witness(1 - envied_pos, envied_pos, REMOVED_GOOD, o, lhs, rhs)
            verdict = check_axiom(T1, a, EFX)
            witnesses_ok &= (not verdict.satisfied) and want in verdict.violations
    _report(1, "FIX-T1: efx count 0 and all recorded removed-good witnesses present",
            count == 0 and len(allocs) == 16 and witnesses_ok)


def test_criterion_02_t1_leximin():
    lm = leximin_set(T1)
    want = {alloc(T1, ("c",), ("a", "b", "d")), alloc(T1, ("a", "b", "d"), ("c",))}
    ok = (set(lm) == want
          and utility_vector(T1, lm[0]) == (5, 8)
          and all(check_axiom(T1, a, EFXPM).satisfied and check_po(T1, a).satisfied for a in lm))
    _report(2, "FIX-T1: leximin set is {c}|{a,b,d} and swap at (5,8), both efxpm and po", ok)


def test_criterion_03_t1_marginals_and_mixed_item():
    _, mat = classify(T1)
    w = mat.mixed_witnesses[0]
    v = T1.valuations[0]
    neg = mask_from_names(T1.item_names, ("c",))
    pos = mask_from_names(T1.item_names, ("b", "d"))
    ok = (T1.has_nonzero_marginals()
          and mat.mixed[0]
          and w is not None
          and w.negative_bundle == neg and w.positive_bundle == pos
          and v.marginal(neg, 0) == -2 and v.marginal(pos, 0) == 2)
    _report(3, "FIX-T1: non-zero marginals; item a mixed via {c} (-2) vs {b,d} (+2)", ok)


def test_criterion_04_t2_efx_landscape():
    allocs = list(enumerate_allocations(T2))
    efx_set = {a for a in allocs if check_axiom(T2, a, EFX).satisfied}
    want = {alloc(T2, ("a", "b", "c"), ("d",)), alloc(T2, ("d",), ("a", "b", "c"))}
    both = sum(1 for a in efx_set if check_axiom(T2, a, EFXPM).satisfied)
    efx_po = sum(1 for a in efx_set if check_po(T2, a).satisfied)
    improves = pareto_improves(
        T2, alloc(T2, ("a", "b"), ("c", "d")), alloc(T2, ("d",), ("a", "b", "c")))
    vec = utility_vector(T2, leximin_set(T2)[0])
    ok = efx_set == want and both == 0 and efx_po == 0 and improves and vec == (-7, -5)
    _report(4, "FIX-T2: efx set exact, efx&efxpm=0, efx&po=0, pareto witness, leximin (-7,-5)", ok)


def test_criterion_05_t4_ef1_sets_and_po():
    allocs = list(enumerate_allocations(T4))
    ef1_set = {a for a in allocs if satisfies(T4, a, EF1)}
    ef1pm_set = {a for a in allocs if satisfies(T4, a, EF1PM)}
    want = {a for a in allocs if bin(a[0]).count("1") in (1, 2)}
    po_set = {a for a in allocs if check_po(T4, a).satisfied}
    empty_all = (0, T4.full)
    ok = (ef1_set == want and ef1pm_set == want and len(want) == 10
          and not (ef1_set & po_set) and not (ef1pm_set & po_set)
          and empty_all in po_set and utilities(T4, empty_all) == (0, 4))
    _report(5, "FIX-T4: ef1 set = ef1pm set = the 10; no overlap with po; (∅,all) po at (0,4)", ok)


def test_criterion_06_ex2_profiles():
    a1 = alloc(EX2, ("s",), ("l1", "l2", "l3"))
    a2 = alloc(EX2, ("s", "l1"), ("l2", "l3"))
    ok = (check_axiom(EX2, a1, EFXPM).satisfied and check_po(EX2, a1).satisfied
          and not check_axiom(EX2, a1, EFX).satisfied
          and check_axiom(EX2, a2, EFX).satisfied and check_axiom(EX2, a2, EFXPM).satisfied
          and not check_po(EX2, a2).satisfied)
    _report(6, "FIX-EX2: ({s}|rest) efxpm+po not efx; ({s,l1}|rest) efx+efxpm not po", ok)


def test_criterion_07_obs1_obs3():
    _, mat1 = classify(OBS1)
    b = OBS1.item_index("b")
    obs1_ok = mat1.mixed[b] and mat1.generally_bad[0][b] and mat1.generally_good[1][b]
    pc3, mat3 = classify(OBS3)
    v = OBS3.valuations[0]
    from fractions import Fraction
    m = lambda *names: mask_from_names(OBS3.item_names, names)
    obs3_ok = (pc3.no_mixed_items
               and all(not mat3.generally_good[a][0] and not mat3.generally_bad[a][0]
                       for a in range(OBS3.n))
               and v.marginal(m("b"), 0) == 1
               and v.marginal(m("c", "d"), 0) == 2
               and v.marginal(m("c"), 0) == -1
               and v.marginal(m("b", "d"), 0) == Fraction(-1, 2))
    _report(7, "FIX-OBS1 item b profile; FIX-OBS3 no mixed items and exact sign witnesses",
            obs1_ok and obs3_ok)


def test_criterion_08_d1_chen_liu_vs_po():
    allocs = list(enumerate_allocations(D1))
    po_set = {a for a in allocs if check_po(D1, a).satisfied}
    want = {alloc(D1, ("a", "b"), ()), alloc(D1, (), ("a", "b"))}
    witnesses_ok = True
    for a in want:
        envier = 1 if a[0] else 0
        verdict = check_axiom(D1, a, CHEN_LIU)
        expected = Witness(envier, 1 - envier, REMOVED_GOOD, D1.item_index("b"), 0, 1)
        witnesses_ok &= (not verdict.satisfied) and expected in verdict.violations
    combined = sum(1 for a in allocs
                   if check_po(D1, a).satisfied and check_axiom(D1, a, CHEN_LIU).satisfied)
    _report(8, "FIX-D1: po set exact, both violate chen-liu with (0 < 1 = v({a})), chen-liu&po=0",
            po_set == want and witnesses_ok and combined == 0)


def test_criterion_09_ex1_protocol_and_profiles():
    out = cut_and_choose(EX1)
    br = mask_from_names(EX1.item_names, ("b", "r"))
    protocol_ok = out == (0, br) and check_axiom(EX1, out, EFXPM).satisfied
    profiles_ok = True
    for a in enumerate_allocations(EX1):
        verdict = check_axiom(EX1, a, EFXPM)
        profiles_ok &= verdict.satisfied
        if a in ((br, 0), (0, br)):
            profiles_ok &= bool(verdict.vacuous)
        else:
            profiles_ok &= check_axiom(EX1, a, EF).satisfied
    _report(9, "FIX-EX1: cut-and-choose gives agent 2 {b,r}; vacuous efxpm twice, envy-free twice",
            protocol_ok and profiles_ok)


def test_criterion_10_zm_zero_variant_gap():
    allocs = list(enumerate_allocations(ZM))
    zero_count = sum(satisfies(ZM, a, EFXPM0) for a in allocs)
    pm_count = sum(satisfies(ZM, a, EFXPM) for a in allocs)
    _report(10, "FIX-ZM: efxpm0 count 0 while efxpm count >= 1",
            zero_count == 0 and pm_count >= 1)


# ---------------------------------------------------------------------------
# criterion 11: seeded property suite (>= 500 instances per class)

GRID = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
GRID2 = ((2, 3), (2, 4), (2, 5))
COUNT = 500


def _instances(seed, grid=GRID, count=COUNT, **kw):
    for k in range(count):
        n, m = grid[k % len(grid)]
        yield generate(GenParams(agents=n, items=m, lo=-8, hi=8, seed=seed + k, **kw))


def _has_qualifying_item(vi, ai, aj, axiom):
    """Whether some item qualifies for a clause of ``axiom`` on the pair (ai, aj).

    States the qualifying comparisons of EFX and EFX-pm itself, as
    ``(pm_removal, strict)``, and applies them to a frozenset value map as
    built by ``reference.value_maps``, sharing no code with the checkers.
    """
    pm_removal, strict = {EFX: (False, True), EFXPM: (True, True)}[axiom]
    above = operator.gt if strict else operator.ge
    removal = (above(vi[ai | {o}], vi[ai]) if pm_removal else above(vi[aj], vi[aj - {o}])
               for o in aj)
    own = (above(vi[ai - {o}], vi[ai]) for o in ai)
    return any(removal) or any(own)


def test_criterion_11a_implication_lattice():
    # Allocation-level EFX => EF1 is false on general valuations: an envying
    # pair with no qualifying item satisfies the "any item" axiom vacuously
    # (tests/test_axioms.py pins the minimal instance).  What holds is the
    # per-pair implication: a pair the "some item" axiom leaves unrepaired is
    # one the "any item" axiom rejects, or one with no qualifying item.
    bad = []
    gaps = {EFX: 0, EFXPM: 0}
    for inst in _instances(110_000):
        vm = value_maps(inst)
        items = range(inst.m)
        for a in enumerate_allocations(inst):
            sets = tuple(frozenset(o for o in items if b >> o & 1) for b in a)
            envying = [(i, j) for i, j in permutations(range(inst.n), 2)
                       if vm[i][sets[i]] < vm[i][sets[j]]]
            for anyx, somex in ((EFX, EF1), (EFXPM, EF1PM)):
                any_v = check_axiom(inst, a, anyx)
                some_v = check_axiom(inst, a, somex)
                rejected = {(w.envier, w.envied) for w in any_v.violations}
                unrepaired = {(w.envier, w.envied) for w in some_v.violations}
                vacuous = {(i, j) for i, j in envying
                           if not _has_qualifying_item(vm[i], sets[i], sets[j], anyx)}
                if vacuous != {(w.envier, w.envied) for w in any_v.vacuous}:
                    bad.append((inst, a, f"{anyx} vacuous pairs disagree with the clause table"))
                for pair in sorted(unrepaired - rejected - vacuous):
                    bad.append((inst, a, f"pair {pair} fails {somex} but is a non-vacuous "
                                         f"{anyx} pass"))
                gaps[anyx] += any_v.satisfied and not some_v.satisfied
    extra = ""
    if bad:
        inst, a, note = bad[0]
        extra = _artifact(inst, a, f"counterexample ({note}); {len(bad)} failures in sample")
    _report("11a", "per envying pair efx=>ef1 and efxpm=>ef1pm unless no item qualifies "
                   f"({gaps[EFX]} efx&!ef1 and {gaps[EFXPM]} efxpm&!ef1pm allocations, "
                   "all by vacuous pairs)",
            not bad and gaps[EFX] > 0 and gaps[EFXPM] > 0, extra)


def test_criterion_11b_additive_equivalences():
    for inst in _instances(120_000, additive=True):
        for a in enumerate_allocations(inst):
            ok = (satisfies(inst, a, EFX) == satisfies(inst, a, EFXPM)
                  and satisfies(inst, a, EF1) == satisfies(inst, a, EF1PM))
            if not ok:
                _report("11b", "additive instances: efx<=>efxpm and ef1<=>ef1pm",
                        False, _artifact(inst, a))
    _report("11b", "additive instances: efx<=>efxpm and ef1<=>ef1pm per allocation", True)


def test_criterion_11c_leximin_is_po():
    for inst in _instances(130_000):
        for a in leximin_set(inst):
            if not check_po(inst, a).satisfied:
                _report("11c", "every leximin allocation is po", False, _artifact(inst, a))
    _report("11c", "every leximin allocation is po", True)


def test_criterion_11d_identical_leximin_is_efxpm():
    for inst in _instances(140_000, identical=True):
        for a in leximin_set(inst):
            if not check_axiom(inst, a, EFXPM).satisfied:
                _report("11d", "identical instances: every leximin allocation is efxpm",
                        False, _artifact(inst, a))
    _report("11d", "identical instances: every leximin allocation is efxpm", True)


def test_criterion_11e_disjointly_normalised_leximin():
    for inst in _instances(150_000, grid=GRID2, disjointly_normalised=True):
        for a in leximin_set(inst):
            if not (check_axiom(inst, a, EFXPM).satisfied and check_po(inst, a).satisfied):
                _report("11e", "2-agent disjointly normalised: leximin is efxpm and po",
                        False, _artifact(inst, a))
    _report("11e", "2-agent disjointly normalised: every leximin allocation is efxpm and po", True)


def test_criterion_11f_cut_and_choose_is_efxpm():
    for inst in _instances(160_000, grid=GRID2):
        out = cut_and_choose(inst)
        if not check_axiom(inst, out, EFXPM).satisfied or envies(inst, out, 1, 0):
            _report("11f", "2-agent instances: cut-and-choose output is efxpm",
                    False, _artifact(inst, out))
    _report("11f", "2-agent instances: cut-and-choose output is efxpm, chooser envy-free", True)


def test_criterion_11g_identical_ggb_has_no_mixed_items():
    for inst in _instances(170_000, identical=True, item_class="generallyGoodBad"):
        problem, _ = classify(inst)
        if not problem.generally_good_bad_items or not problem.no_mixed_items:
            _report("11g", "identical generally-good/bad instances have no mixed items",
                    False, _artifact(inst))
    # organically sampled small identical instances: the implication holds too
    for inst in _instances(175_000, grid=((2, 3), (3, 3)), count=200, identical=True):
        problem, _ = classify(inst)
        if problem.generally_good_bad_items and not problem.no_mixed_items:
            _report("11g", "identical generally-good/bad instances have no mixed items",
                    False, _artifact(inst))
    _report("11g", "identical generally-good/bad instances have no mixed items", True)


# ---------------------------------------------------------------------------
# criterion 12: the claim verifier

def test_criterion_12_verify_paper():
    report = verify_claims()
    exploratory_fails = [
        r for r in report.results
        if r.status == "fail" and not r.claim.gating and r.claim.kind == "exploratory"
    ]
    ok = (report.ok
          and {r.claim.id for r in exploratory_fails}
          == {"t1-variant-a-portability", "t2-variant-b-portability"})
    _report(12, "verifier: gating claims all pass; the two variant-portability "
                "discrepancies are present and non-gating", ok)
