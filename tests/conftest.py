"""Shared test settings and the helpers several test modules use.

Helpers that build fairkit objects live here; the naive oracles, which share
no code with the library, live in ``reference.py``.
"""

import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from fairkit import AdditiveValuation, ExplicitValuation, Instance, mask_from_names

# Property tests draw from a fixed seed and keep no example database, so every
# run of the suite checks the same examples.
settings.register_profile("fairkit", derandomize=True, deadline=None, database=None)
settings.load_profile("fairkit")


def alloc(inst: Instance, *bundles):
    """The allocation giving agent i the items named in ``bundles[i]``."""
    return tuple(mask_from_names(inst.item_names, b) for b in bundles)


def scaled(inst: Instance, d: int) -> Instance:
    """``inst`` with every value divided by ``d``: Fraction tables with the same ties."""
    return Instance(inst.item_names, tuple(ExplicitValuation([Fraction(x, d) for x in v.table])
                                           for v in inst.valuations))


VALUES = st.sampled_from((-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def small_instances(draw):
    """2-4 agents and 1-4 items (1-3 with more than two agents), explicit,
    additive or identical explicit valuations over ``VALUES``."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4 if n == 2 else 3))
    kind = draw(st.sampled_from(("explicit", "additive", "identical")))
    if kind == "additive":
        vals = [AdditiveValuation(draw(st.lists(VALUES, min_size=m, max_size=m)))
                for _ in range(n)]
    else:
        tables = [draw(st.lists(VALUES, min_size=1 << m, max_size=1 << m))
                  for _ in range(1 if kind == "identical" else n)]
        vals = [ExplicitValuation(t) for t in tables] * (n if kind == "identical" else 1)
    return Instance(tuple("abcd"[:m]), vals)
