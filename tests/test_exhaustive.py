"""Bounded-exhaustive tests: every instance of the smallest shapes against
the naive oracles of ``reference.py``: ``landscape``, the per-allocation
rows of ``held_walk`` that ``enumerate`` prints, each allocation's
``check_axiom`` and ``check_po`` verdicts, ``pareto_front``,
``leximin_set``, ``classify`` and ``cut_and_choose``.

Every verdict but ``leximin_set``'s reads only each agent's weak order on
its 2**m bundles, so a shape has finitely many instances up to
order-preserving maps: with two items, one of the 75 weak orders on 4
bundles per agent.  (Leximin compares values across agents, so its layer
covers these rank tables only; the cut of ``cut_and_choose`` is a leximin
partition of one agent's table, which one order-preserving map keeps.)
At 2x2 that is 5,625 instances, all checked here.  At 3x2 the 73,150
multisets of three weak orders stand for all 421,875 instances up to agent
order; Tier-1 checks every 40th (1,829) and CI all of them, through
:func:`check_three_by_two`.  Seeded tests sample; these cover the whole
shape, so a slip in a comparison within one table, which every
order-preserving relation keeps, shows on some instance here.

Run every 3x2 instance (about two minutes) with::

    python -c 'import sys; sys.path[:0] = ["tests"]; import test_exhaustive as t; t.check_three_by_two(1)'

The two-agent lane string has two ways to rank the tables' values
(``axioms.held_columns``): an offset code for small ints, and a rank map
for everything else.  The 2x2 instances reach only the first, so
:func:`check_rank_paths` compares each with a copy that takes the second:
every third instance in Tier-1, and all 5,625 (about two seconds) with::

    python -c 'import sys; sys.path[:0] = ["tests"]; import test_exhaustive as t; t.check_rank_paths(1)'
"""

from itertools import combinations_with_replacement, product

import pytest

from fairkit import (
    ExplicitValuation,
    Instance,
    NotWellDefinedError,
    check_axiom,
    check_po,
    classify,
    cut_and_choose,
    landscape,
    leximin_set,
    pareto_front,
)
from fairkit.axioms import ALL_AXIOMS, VACUOUS_ENVY, _offset_ranks, held_columns, well_defined
from fairkit.search import held_walk

from reference import (
    oracle_flags,
    oracle_rows,
    ref_cut_and_choose,
    ref_envy,
    ref_generally_good_bad,
    ref_item_classes,
    ref_leximin,
    ref_mixed,
    rows_as_sets,
    to_sets,
    value_maps,
    weak_orders,
)

ORDERS = weak_orders(4)  # the 75 weak orders on the bundles of two items
COMBOS = [(ax,) for ax in ALL_AXIOMS] + [(ax, "po") for ax in ALL_AXIOMS] + [("po",)]


def check_instances(types) -> int:
    """Landscape counts and examples of every axiom alone and with po, and
    po alone, on the two-item instance of each tuple of ``types`` (agent i
    holds the weak order ``ORDERS[types[i]]``); the po combos are also walked
    without the others, which walks the Pareto-optimal allocations only and
    scans each with the pair pass (``_front_walk``).  Each instance's rows
    go through :func:`check_rows` and its other verdicts through
    :func:`check_verdicts`.  Returns how many instances have chen-liu
    defined."""
    tables = [ExplicitValuation(ranks) for ranks in ORDERS]
    chen_liu_defined = 0
    for agents in types:
        inst = Instance(("a", "b"), tuple(tables[k] for k in agents))
        vm = value_maps(inst)
        chen_liu = ref_generally_good_bad(vm, 2)
        chen_liu_defined += chen_liu
        want_combos = [c for c in COMBOS if chen_liu or c[0] != "chen-liu"]
        order, flags = oracle_flags(inst, {ax for c in want_combos for ax in c})
        want = oracle_rows(order, flags, want_combos)
        assert rows_as_sets(landscape(inst, COMBOS)) == want, agents
        po_rows = [row for row in want if "po" in row[0]]
        assert rows_as_sets(landscape(inst, [row[0] for row in po_rows])) == po_rows, agents
        check_rows(inst, order, flags)
        check_verdicts(inst, vm, order, flags)
    return chen_liu_defined


def check_rows(inst, order, flags):
    """The walk that ``enumerate`` prints, of each axiom of ``flags`` alone
    and ``()``, against the oracle: allocation k is ``order[k]`` and holds the
    bit of ``(ax,)`` iff ``flags[ax][k]``.  ``order`` and ``flags`` are
    :func:`oracle_flags`'s."""
    needs, walk = held_walk(inst, [(ax,) for ax in flags] + [()])
    rows = [(to_sets(a), held) for allocs, helds in walk
            for a, held in zip(allocs, helds, strict=True)]
    assert [alloc for alloc, _ in rows] == order, inst
    for ax, need in zip(flags, needs):
        assert [held & need == need for _, held in rows] == flags[ax], (ax, inst)


def check_verdicts(inst, vm, order, flags):
    """The single-allocation and whole-instance verdicts against the oracle:
    ``check_axiom`` of every axiom in ``flags`` (chen-liu raising
    ``NotWellDefinedError`` when it is not among them) and ``check_po`` on
    every allocation of ``order``; ``pareto_front``; ``leximin_set``'s tie
    set in enumeration order; ``classify``'s generally good and bad matrices
    and mixed flags; and with two agents, ``cut_and_choose`` with either
    cutter.  ``order`` and ``flags`` are :func:`oracle_flags`'s,
    ``vm`` is :func:`value_maps`'s."""
    n, m = inst.n, inst.m
    allocs = [tuple(sum(1 << o for o in bundle) for bundle in s) for s in order]
    verdicts = {}
    for ax, want in flags.items():
        got = verdicts[ax] = [check_po(inst, a) if ax == "po" else check_axiom(inst, a, ax)
                              for a in allocs]
        assert [verdict.satisfied for verdict in got] == want, (ax, vm)
    # ef has no candidate item, so its every witness is the bare envy
    assert [[(w.envier, w.envied, w.condition, w.item, w.lhs, w.rhs) for w in verdict.violations]
            + list(verdict.vacuous) for verdict in verdicts["ef"]] == [
        [(i, j, VACUOUS_ENVY, None, lhs, rhs) for i, j, lhs, rhs in ref_envy(vm, s)]
        for s in order], vm
    if "chen-liu" not in flags:
        with pytest.raises(NotWellDefinedError):
            check_axiom(inst, allocs[0], "chen-liu")
    profile = [tuple(vm[i][s[i]] for i in range(n)) for s in order]
    assert pareto_front(inst) == {p for p, po in zip(profile, flags["po"]) if po}, vm
    _, ties = ref_leximin(vm, n, m)
    assert [to_sets(a) for a in leximin_set(inst)] == [s for s in order if s in ties], vm
    _, matrix = classify(inst)
    good, bad = ref_item_classes(vm, m)
    assert (matrix.generally_good, matrix.generally_bad) == (
        tuple(map(tuple, good)), tuple(map(tuple, bad))), vm
    assert list(matrix.mixed) == [ref_mixed(vm, o, m) for o in range(m)], vm
    if n == 2:
        for cutter in (0, 1):
            assert to_sets(cut_and_choose(inst, cutter)) == ref_cut_and_choose(
                vm, m, order, cutter), (cutter, vm)


def check_rank_paths(stride):
    """On every ``stride``-th of the 5,625 2x2 instances, by type indices,
    ``held_columns`` of the defined axioms, in two groups that each fit
    8-bit lanes with the po bit, without and with po, equals the same call
    on a copy whose every value x is 100 * (x + 1): the ranks 0..3 take the
    offset code of ``_offset_ranks``, and 100..400 the rank map."""
    tables = [ExplicitValuation(ranks) for ranks in ORDERS]
    wide = [ExplicitValuation([100 * (x + 1) for x in ranks]) for ranks in ORDERS]
    for agents in list(product(range(len(ORDERS)), repeat=2))[::stride]:
        inst = Instance(("a", "b"), tuple(tables[k] for k in agents))
        copy = Instance(("a", "b"), tuple(wide[k] for k in agents))
        assert _offset_ranks(2, *(v.table for v in inst.valuations)) is not None
        assert _offset_ranks(2, *(v.table for v in copy.valuations)) is None
        defined = [ax for ax in ALL_AXIOMS if well_defined(inst, ax)]
        for ids in (defined[:7], defined[7:]):
            for po in (False, True):
                assert held_columns(inst, ids, po) == held_columns(copy, ids, po), (agents, ids)


def check_three_by_two(stride):
    """:func:`check_instances` on every ``stride``-th of the 73,150 3x2 type
    triples, sorted by type index."""
    triples = list(combinations_with_replacement(range(len(ORDERS)), 3))
    assert len(triples) == 73_150
    sample = triples[::stride]
    assert 0 < check_instances(sample) < len(sample)


def test_every_two_by_two_instance_matches_the_oracle():
    assert len(ORDERS) == 75
    assert 0 < check_instances(product(range(75), repeat=2)) < 75 ** 2


def test_every_third_two_by_two_instance_has_one_lane_string_on_both_rank_paths():
    check_rank_paths(3)


def test_every_fortieth_three_by_two_instance_matches_the_oracle():
    check_three_by_two(40)
