import pytest

from fairkit import (
    AdditiveValuation,
    Instance,
    check_axiom,
    cut_and_choose,
    fixture,
)
from fairkit.search import GenParams, generate

EX1 = fixture("FIX-EX1").instance
EX2 = fixture("FIX-EX2").instance


def test_ex1_protocol():
    out = cut_and_choose(EX1)
    assert out == (0, 3)  # agent 2 takes {b,r}
    assert check_axiom(EX1, out, "efxpm").satisfied


def test_ex2_protocol_gives_chooser_a_triple():
    out = cut_and_choose(EX2)
    assert EX2.valuations[1].table[out[1]] == 12
    assert check_axiom(EX2, out, "efxpm").satisfied


def test_symmetric_two_items_is_envy_free():
    inst = Instance(("a", "b"), (AdditiveValuation((1, 1)),) * 2)
    out = cut_and_choose(inst)
    assert check_axiom(inst, out, "ef").satisfied


def test_requires_two_agents():
    inst = Instance(("a", "b"), (AdditiveValuation((1, 1)),) * 3)
    with pytest.raises(ValueError):
        cut_and_choose(inst)
    with pytest.raises(ValueError):
        cut_and_choose(EX1, cutter=2)


def test_cutter_swap():
    inst = Instance(("a", "b"),
                    (AdditiveValuation((5, 1)), AdditiveValuation((1, 5))))
    for cutter in (0, 1):
        out = cut_and_choose(inst, cutter=cutter)
        assert check_axiom(inst, out, "efxpm").satisfied
        chooser = 1 - cutter
        t = inst.valuations[chooser].table
        assert t[out[chooser]] >= t[out[cutter]]  # the chooser does not envy


def test_deterministic():
    for k in range(20):
        inst = generate(GenParams(agents=2, items=4, lo=-6, hi=6, seed=8200 + k))
        assert cut_and_choose(inst) == cut_and_choose(inst)


def test_identical_instances_realise_a_leximin_cut_vector():
    from fairkit import leximin_set, utility_vector

    for k in range(40):
        inst = generate(GenParams(agents=2, items=4, lo=-6, hi=6,
                                  identical=True, seed=9600 + k))
        out = cut_and_choose(inst)
        best = utility_vector(inst, leximin_set(inst)[0])
        assert utility_vector(inst, out) == best


def test_random_instances_end_efxpm_with_envy_free_chooser():
    for k in range(120):
        params = GenParams(agents=2, items=3 + k % 3, lo=-7, hi=7,
                           identical=bool(k % 4 == 0), seed=8600 + k)
        inst = generate(params)
        out = cut_and_choose(inst)
        assert check_axiom(inst, out, "efxpm").satisfied
        t = inst.valuations[1].table
        assert t[out[1]] >= t[out[0]]  # the chooser does not envy
