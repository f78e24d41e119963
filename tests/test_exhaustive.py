"""Bounded-exhaustive tests: every instance of the smallest shapes against
the naive oracles of ``reference.py``.

Every verdict ``landscape`` decides reads only each agent's weak order on
its 2**m bundles, so a shape has finitely many instances up to
order-preserving maps: at 2x2, one of the 75 weak orders on 4 bundles per
agent, 5,625 instances.  Seeded tests sample; these cover the whole shape,
so a slip in a comparison within one table, which every order-preserving
relation keeps, shows on some instance here.
"""

from itertools import product

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


def test_every_two_by_two_instance_matches_the_oracle():
    """Landscape counts and examples of every axiom alone and with po, and
    po alone, on every 2x2 instance; the po combos are also walked without
    the others, which walks the Pareto-optimal allocations only and scans
    each with the pair pass (``_front_walk``)."""
    orders = weak_orders(4)
    assert len(orders) == 75
    tables = [ExplicitValuation(ranks) for ranks in orders]
    combos = [(ax,) for ax in ALL_AXIOMS] + [(ax, "po") for ax in ALL_AXIOMS] + [("po",)]
    chen_liu_defined = 0
    for v0, v1 in product(tables, repeat=2):
        inst = Instance(("a", "b"), (v0, v1))
        chen_liu = ref_generally_good_bad(value_maps(inst), 2)
        chen_liu_defined += chen_liu
        want_combos = [c for c in combos if chen_liu or c[0] != "chen-liu"]
        order, flags = oracle_flags(inst, {ax for c in want_combos for ax in c})
        want = oracle_rows(order, flags, want_combos)
        assert rows_as_sets(landscape(inst, combos)) == want, (v0.table, v1.table)
        po_rows = [row for row in want if "po" in row[0]]
        assert rows_as_sets(landscape(inst, [row[0] for row in po_rows])) == po_rows, (
            v0.table, v1.table)
    assert 0 < chen_liu_defined < len(tables) ** 2
