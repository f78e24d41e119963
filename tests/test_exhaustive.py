"""Bounded-exhaustive tests: every instance of the smallest shapes against
the naive oracles of ``reference.py``.

Every verdict ``landscape`` decides reads only each agent's weak order on
its 2**m bundles, so a shape has finitely many instances up to
order-preserving maps: with two items, one of the 75 weak orders on 4
bundles per agent.  At 2x2 that is 5,625 instances, all checked here.  At
3x2 the 73,150 multisets of three weak orders stand for all 421,875
instances up to agent order; Tier-1 checks every 40th (1,829) and CI all of
them, through :func:`check_three_by_two`.  Seeded tests sample; these cover
the whole shape, so a slip in a comparison within one table, which every
order-preserving relation keeps, shows on some instance here.

Run every 3x2 instance (about two minutes) with::

    python -c 'import sys; sys.path[:0] = ["tests"]; import test_exhaustive as t; t.check_three_by_two(1)'
"""

from itertools import combinations_with_replacement, product

from fairkit import ExplicitValuation, Instance, landscape
from fairkit.axioms import ALL_AXIOMS

from reference import (
    oracle_flags,
    oracle_rows,
    ref_generally_good_bad,
    rows_as_sets,
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
    scans each with the pair pass (``_front_walk``).  Returns how many
    instances have chen-liu defined."""
    tables = [ExplicitValuation(ranks) for ranks in ORDERS]
    chen_liu_defined = 0
    for agents in types:
        inst = Instance(("a", "b"), tuple(tables[k] for k in agents))
        chen_liu = ref_generally_good_bad(value_maps(inst), 2)
        chen_liu_defined += chen_liu
        want_combos = [c for c in COMBOS if chen_liu or c[0] != "chen-liu"]
        order, flags = oracle_flags(inst, {ax for c in want_combos for ax in c})
        want = oracle_rows(order, flags, want_combos)
        assert rows_as_sets(landscape(inst, COMBOS)) == want, agents
        po_rows = [row for row in want if "po" in row[0]]
        assert rows_as_sets(landscape(inst, [row[0] for row in po_rows])) == po_rows, agents
    return chen_liu_defined


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


def test_every_fortieth_three_by_two_instance_matches_the_oracle():
    check_three_by_two(40)
