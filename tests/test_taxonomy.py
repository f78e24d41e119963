import pytest

from fairkit import (
    AdditiveValuation,
    Instance,
    classify,
    fixture,
    mask_from_names,
    mixed_witness,
)
from fairkit.search import GenParams, generate

from reference import ref_generally_bad, ref_generally_good, ref_mixed, value_maps

EX1 = fixture("FIX-EX1").instance
OBS1 = fixture("FIX-OBS1").instance
OBS3 = fixture("FIX-OBS3").instance
T1 = fixture("FIX-T1").instance
T2 = fixture("FIX-T2").instance


def bundle(inst, *names):
    return mask_from_names(inst.item_names, names)


def test_good_wrt_examples():
    v = EX1.valuations[0]
    b = EX1.item_index("b")
    assert v.marginal(bundle(EX1, "r"), b) >= 0      # 2 >= -1: good w.r.t. {r}
    assert v.marginal(0, b) < 0                      # -1 < 0: not good w.r.t. {}
    assert v.marginal(0, b) <= 0                     # bad w.r.t. {}


def test_zero_marginal_item_is_good_and_bad():
    v = AdditiveValuation((0, 3))
    assert v.marginal(0, 0) == 0
    _, mat = classify(Instance(("a", "b"), (v, v)))
    assert mat.generally_good[0][0] and mat.generally_bad[0][0]


def test_item_inside_bundle_has_no_marginal():
    v = EX1.valuations[0]
    with pytest.raises(ValueError):
        v.marginal(EX1.full, 0)


def test_generally_good_bad_examples():
    _, mat = classify(OBS1)
    assert mat.generally_bad[0][OBS1.item_index("b")]
    assert mat.generally_good[1][OBS1.item_index("b")]
    b = EX1.item_index("b")
    _, mat = classify(EX1)
    for agent in range(EX1.n):
        assert not mat.generally_good[agent][b] and not mat.generally_bad[agent][b]


def test_mixed_examples():
    assert mixed_witness(T1, T1.item_index("a")) is not None
    assert mixed_witness(OBS1, OBS1.item_index("b")) is not None
    for o in range(OBS3.m):
        assert mixed_witness(OBS3, o) is None
    for o in range(EX1.m):
        assert mixed_witness(EX1, o) is not None


def test_mixed_witness_revalidates():
    w = mixed_witness(T1, 0)
    v_pos = T1.valuations[w.positive_agent]
    v_neg = T1.valuations[w.negative_agent]
    assert v_pos.marginal(w.positive_bundle, 0) > 0
    assert v_neg.marginal(w.negative_bundle, 0) < 0
    assert (w.positive_bundle | w.negative_bundle) == T1.full & ~1
    assert w.positive_bundle & w.negative_bundle == 0
    # the recorded bipartition: marginals -2 on {c} and +2 on {b,d}
    assert w.negative_bundle == bundle(T1, "c")
    assert w.positive_bundle == bundle(T1, "b", "d")


def test_classify_examples():
    pc1, _ = classify(OBS1)
    assert pc1.generally_good_bad_items and not pc1.no_mixed_items
    pc3, _ = classify(OBS3)
    assert pc3.no_mixed_items and not pc3.generally_good_bad_items
    pc2, mat2 = classify(T2)
    assert pc2.generally_good_bad_items
    assert all(mat2.generally_bad[a][o] for a in range(T2.n) for o in range(T2.m))


def test_matrix_matches_reference_on_random_instances():
    for k in range(60):
        inst = generate(GenParams(agents=2 + k % 2, items=3 + k % 2, lo=-4, hi=4, seed=300 + k))
        vm = value_maps(inst)
        _, mat = classify(inst)
        for a in range(inst.n):
            for o in range(inst.m):
                assert mat.generally_good[a][o] == ref_generally_good(vm[a], o, inst.m)
                assert mat.generally_bad[a][o] == ref_generally_bad(vm[a], o, inst.m)
        for o in range(inst.m):
            assert mat.mixed[o] == ref_mixed(vm, o, inst.m)


def test_both_general_flags_iff_all_marginals_zero():
    for k in range(40):
        inst = generate(GenParams(agents=2, items=3, lo=-1, hi=1, seed=900 + k))
        _, mat = classify(inst)
        for a, v in enumerate(inst.valuations):
            for o in range(inst.m):
                rest = inst.full & ~(1 << o)
                all_zero = all(
                    v.marginal(sub, o) == 0
                    for sub in range(inst.full + 1) if sub & ~rest == 0
                )
                both = mat.generally_good[a][o] and mat.generally_bad[a][o]
                assert both == all_zero


def test_identical_ggb_instances_have_no_mixed_items():
    # consensus direction problems cannot contain mixed items
    for k in range(50):
        inst = generate(GenParams(agents=2, items=4, lo=-5, hi=5, identical=True,
                                  item_class="generallyGoodBad", seed=1300 + k))
        pc, _ = classify(inst)
        assert pc.generally_good_bad_items
        assert pc.no_mixed_items


def test_identical_nonzero_classes_are_pairwise_exclusive():
    # with identical valuations and non-zero marginals an item is never two of
    # {generally good for all, generally bad for all, mixed} at once; OBS3
    # shows the three cases are not exhaustive, so no exhaustiveness here
    seen_unclassified = False
    for k in range(40):
        inst = generate(GenParams(agents=2, items=3, lo=-6, hi=6, identical=True,
                                  nonzero_marginals=True, seed=1700 + k))
        pc, mat = classify(inst)
        for o in range(inst.m):
            flags = (mat.generally_good[0][o], mat.generally_bad[0][o], mat.mixed[o])
            assert sum(flags) <= 1
            if not any(flags):
                seen_unclassified = True
    _, mat3 = classify(OBS3)
    assert not mat3.generally_good[0][0] and not mat3.generally_bad[0][0] and not mat3.mixed[0]
