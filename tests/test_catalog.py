import hashlib
import json

import pytest

import fairkit.catalog as catalog
from fairkit import (
    ExplicitValuation,
    Instance,
    dumps_instance,
    enumerate_allocations,
    fixture,
    list_fixtures,
    satisfies,
    verify_claims,
)
from fairkit.axioms import ALL_AXIOMS, EF1, EF1PM, EFX, EFXPM, well_defined
from fairkit.search import _matches, parse_predicate

from reference import oracle_flags, oracle_rows, ref_generally_good_bad, value_maps

EXPECTED_IDS = {
    "FIX-EX1", "FIX-EX2", "FIX-OBS1", "FIX-OBS3", "FIX-T1", "FIX-T2",
    "FIX-T4", "FIX-D1", "FIX-ZM",
}


def test_fixture_ids():
    assert set(list_fixtures()) == EXPECTED_IDS


def test_unknown_fixture_errors():
    with pytest.raises(ValueError):
        fixture("FIX-NOPE")


def test_fixtures_are_wellformed():
    for fid in list_fixtures():
        f = fixture(fid)
        assert f.instance.n >= 2
        assert f.claims
        assert all(claim.kind for claim in f.claims)


def test_allocation_strings_pass_the_allocation_rule():
    t1 = fixture("FIX-T1").instance
    assert catalog._parse(t1, "a,b|c,d") == (0b0011, 0b1100)
    for text, reason in (("a,b|b,c,d", "not pairwise disjoint"), ("a|b", "does not cover"),
                         ("a|b|c,d", "3 bundles for 2 agents")):
        with pytest.raises(ValueError, match=reason):
            catalog._parse(t1, text)
    with pytest.raises(ValueError, match="not pairwise disjoint"):
        catalog._allocation("a,b|b,c,d", holds="ef1")(t1)  # the claim forms parse with it


def test_every_gating_claim_passes():
    report = verify_claims()
    failures = [r for r in report.results if r.status == "fail" and r.claim.gating]
    assert not failures, failures
    assert report.ok


def _claim(fid, cid):
    return next(claim for claim in fixture(fid).claims if claim.id == cid)


# each claim checked on an instance it does not hold for: the detail says why
@pytest.mark.parametrize("fid, cid, inst, detail", [
    ("FIX-T1", "t1-efx-witnesses", fixture("FIX-T2").instance,
     "a,b,c,d| lacks the efx witness Witness(envier=1, envied=0, condition='removed-good', "
     "item=2, lhs=0, rhs=8)"),
    ("FIX-T1", "t1-item-a-mixed", fixture("FIX-T2").instance,
     "item a not reported mixed; marginals of a: {c} -1, {b,d} -1"),
    ("FIX-D1", "d1-chen-liu-breaks", Instance(("a", "b"), (ExplicitValuation((0, 1, 1, 2)),) * 2),
     "the rows do not hold exactly the po allocations"),
], ids=["witness", "mixed-item", "rows"])
def test_claims_fail_on_instances_they_do_not_hold_for(fid, cid, inst, detail):
    claim = _claim(fid, cid)
    assert claim.gating
    assert claim.check(inst) == (False, detail)
    assert claim.check(fixture(fid).instance)[0] is True


def test_count_claims_decide_like_mine_and_the_oracle():
    """A count claim is a ``mine --predicate`` string: on every fixture, for
    every defined axiom alone and with po, its verdict is ``_matches``' and
    the one the reference count gives, and its detail names that count; a
    combo that is not defined fails, as mine does not match it."""
    for fid in list_fixtures():
        inst = fixture(fid).instance
        chen_liu = ref_generally_good_bad(value_maps(inst), inst.m)
        assert chen_liu == well_defined(inst, "chen-liu"), fid
        defined = [ax for ax in ALL_AXIOMS if chen_liu or ax != "chen-liu"]
        order, flags = oracle_flags(inst, defined + ["po"])
        combos = [(ax,) for ax in defined] + [(ax, "po") for ax in defined]
        for combo, count, _ in oracle_rows(order, flags, combos):
            total = len(order)
            for bound, want in (("=0", count == 0), (">=1", count >= 1), ("<=1", count <= 1),
                                ("=all", count == total)):
                text = "&".join(combo) + bound
                passed, detail = catalog._count(text)(inst)
                assert passed is want is _matches(inst, parse_predicate(text), None), text
                assert detail.startswith(f"{'&'.join(combo)} satisfied by {count} of {total} "
                                         "allocations"), (text, detail)
        for text in ([] if chen_liu else ["chen-liu=0", "chen-liu&po>=1", "chen-liu=all"]):
            # no landscape row for the combo: mine matches nothing, and the claim fails
            combo = text.partition("=")[0].rstrip("<>")
            assert catalog._count(text)(inst) == (False, f"{combo} is not defined on this instance")
            assert _matches(inst, parse_predicate(text), None) is False
    t1 = fixture("FIX-T1").instance
    assert catalog._count("efx>=1")(t1) == (False, "efx satisfied by 0 of 16 allocations")
    assert catalog._count("EFXPM & PO>=2")(t1) == (
        True, "efxpm&po satisfied by 2 of 16 allocations, e.g. a,b,d|c")
    for text in ("efx>=-1", "efx=1_000", "efx<3"):  # read by parse_predicate, when built
        with pytest.raises(ValueError, match="cannot parse predicate"):
            catalog._count(text)


def test_variant_portability_rows_are_failing_and_non_gating():
    report = verify_claims()
    rows = {r.claim.id: r for r in report.results}
    for cid in ("t1-variant-a-portability", "t2-variant-b-portability"):
        assert rows[cid].status == "fail"
        assert not rows[cid].claim.gating
        assert rows[cid].claim.kind == "exploratory"


def test_catalog_open_note_present():
    report = verify_claims()
    opens = [r for r in report.results if r.status == "open"]
    assert len(opens) == 1 and opens[0].fixture_id == "CATALOG"


def test_single_fixture_report():
    report = verify_claims("FIX-ZM")
    assert {r.fixture_id for r in report.results} == {"FIX-ZM"}
    assert report.ok


def test_swap_symmetry_on_identical_fixtures():
    # agents swapping bundles get the same verdicts when valuations agree
    for fid in ("FIX-T1", "FIX-T2", "FIX-EX1", "FIX-D1"):
        inst = fixture(fid).instance
        for a in enumerate_allocations(inst):
            swapped = (a[1], a[0])
            for ax in (EF1, EFX, EF1PM, EFXPM):
                assert satisfies(inst, a, ax) == satisfies(inst, swapped, ax)


# (fixture, claim, kind, gating, status) of every report row, in report order
PINNED_ROWS = [
    ("FIX-EX1", "ex1-identical", "instance-predicate", True, "pass"),
    ("FIX-EX1", "ex1-all-items-mixed", "instance-predicate", True, "pass"),
    ("FIX-EX1", "ex1-singles-envy-free", "allocation-has", True, "pass"),
    ("FIX-EX1", "ex1-efxpm-set", "set-equality", True, "pass"),
    ("FIX-EX1", "ex1-cut-and-choose", "allocation-has", True, "pass"),
    ("FIX-EX2", "ex2-seminar-vs-lectures", "allocation-has", True, "pass"),
    ("FIX-EX2", "ex2-two-two-split", "allocation-has", True, "pass"),
    ("FIX-EX2", "ex2-cut-and-choose", "allocation-has", True, "pass"),
    ("FIX-OBS1", "obs1-additive-not-identical", "instance-predicate", True, "pass"),
    ("FIX-OBS1", "obs1-item-b", "instance-predicate", True, "pass"),
    ("FIX-OBS1", "obs1-class", "instance-predicate", True, "pass"),
    ("FIX-OBS3", "obs3-class", "instance-predicate", True, "pass"),
    ("FIX-OBS3", "obs3-item-a-unclassified", "instance-predicate", True, "pass"),
    ("FIX-OBS3", "obs3-item-a-marginals", "instance-predicate", True, "pass"),
    ("FIX-T1", "t1-base", "instance-predicate", True, "pass"),
    ("FIX-T1", "t1-item-a-mixed", "instance-predicate", True, "pass"),
    ("FIX-T1", "t1-no-efx", "no-allocation", True, "pass"),
    ("FIX-T1", "t1-efx-witnesses", "allocation-lacks", True, "pass"),
    ("FIX-T1", "t1-leximin", "set-equality", True, "pass"),
    ("FIX-T1", "t1-leximin-efxpm-po", "allocation-has", True, "pass"),
    ("FIX-T1", "t1-variant-a-portability", "exploratory", False, "fail"),
    ("FIX-T2", "t2-base", "instance-predicate", True, "pass"),
    ("FIX-T2", "t2-efx-set", "set-equality", True, "pass"),
    ("FIX-T2", "t2-no-efx-efxpm", "no-allocation", True, "pass"),
    ("FIX-T2", "t2-no-efx-po", "no-allocation", True, "pass"),
    ("FIX-T2", "t2-efxpm-witness", "allocation-lacks", True, "pass"),
    ("FIX-T2", "t2-pareto-improvements", "allocation-has", True, "pass"),
    ("FIX-T2", "t2-leximin", "set-equality", True, "pass"),
    ("FIX-T2", "t2-variant-b-portability", "exploratory", False, "fail"),
    ("FIX-T4", "t4-base", "instance-predicate", True, "pass"),
    ("FIX-T4", "t4-ef1-set", "set-equality", True, "pass"),
    ("FIX-T4", "t4-ef1pm-equals-ef1", "set-equality", True, "pass"),
    ("FIX-T4", "t4-no-ef1-po", "no-allocation", True, "pass"),
    ("FIX-T4", "t4-no-ef1pm-po", "no-allocation", True, "pass"),
    ("FIX-T4", "t4-empty-all-po", "allocation-has", True, "pass"),
    ("FIX-D1", "d1-base", "instance-predicate", True, "pass"),
    ("FIX-D1", "d1-po-set", "set-equality", True, "pass"),
    ("FIX-D1", "d1-chen-liu-breaks", "allocation-lacks", True, "pass"),
    ("FIX-D1", "d1-no-chenliu-po", "no-allocation", True, "pass"),
    ("FIX-ZM", "zm-base", "instance-predicate", True, "pass"),
    ("FIX-ZM", "zm-no-efxpm0", "no-allocation", True, "pass"),
    ("FIX-ZM", "zm-efxpm-exists", "exists-allocation", True, "pass"),
    ("FIX-ZM", "zm-pair-split", "allocation-has", True, "pass"),
    ("CATALOG", "generally-good-efxpm-po-gap", "exploratory", False, "open"),
]

# sha256 of the JSON list of the rows above with each claim's description appended
PINNED_ROWS_SHA256 = "3370b6bd4deff2c7ce85d5d7946da87fb93ce2305c2a1e81f138087ff8611307"

PINNED_INSTANCE_SHA256 = {
    "FIX-EX1": "6c688abe1d296c68677a245058b14016f2250ec06bd7124be7aab2a54d3da069",
    "FIX-EX2": "c0367360afaf917107cbd3366509ba98a74b4c949d308a2aa020430a9acd070c",
    "FIX-OBS1": "78a86dae7275aeb8c142057246417b43b9ff72427ba2b294c831fe44f9f771e1",
    "FIX-OBS3": "960da7ab9a88657bbb1b893cc9542a7a7529561d243cec1e1c3a8a5239cec5d0",
    "FIX-T1": "fb140d4e3f4ccc10569fe2307abfca07a338dda2d3bf2ee7d80149b6558672ce",
    "FIX-T2": "2acd23c6216a260646fb7a725cb112362fd9d81168911cbd618fca0491c15e81",
    "FIX-T4": "d60b5654a7f74f11ea39edc99ccc8bcad433d2d06ada1c864b92c73ab8d43aa2",
    "FIX-D1": "91928163360ed9d5bcfc3ef2049867e7e0cfa997a16d23919c921869e8ce2801",
    "FIX-ZM": "4a8aa55c19d38b8e2fbee795ce5df9339db46947786f6baaf0e7479f40784b0f",
}


def test_report_rows_and_fixture_instances_are_pinned():
    # detail strings are free to change wording; everything else is pinned
    results = verify_claims().results
    rows = [(r.fixture_id, r.claim.id, r.claim.kind, r.claim.gating, r.status)
            for r in results]
    assert rows == PINNED_ROWS
    described = [row + (r.claim.description,) for row, r in zip(rows, results)]
    digest = hashlib.sha256(json.dumps(described).encode()).hexdigest()
    assert digest == PINNED_ROWS_SHA256
    assert {fid: hashlib.sha256(dumps_instance(fixture(fid).instance).encode()).hexdigest()
            for fid in list_fixtures()} == PINNED_INSTANCE_SHA256
