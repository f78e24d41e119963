"""Independent answers the benchmark compares fairkit's output with.

Axiom verdicts, leximin and the item taxonomy come from the naive oracles in
``tests/reference.py`` (frozenset bundles, itertools enumeration).  Pareto
optimality comes from the skyline below, because ``ref_po``'s all-pairs scan
is too slow at 2x14 and 3x6.  Nothing here calls fairkit's algorithms; the
instances are only read through their valuation tables.
"""

from __future__ import annotations

from fractions import Fraction

import reference as R

REF_AXIOMS = {
    "ef": R.ref_ef,
    "ef1": R.ref_ef1,
    "efx": R.ref_efx,
    "ef1pm": R.ref_ef1pm,
    "efxpm": R.ref_efxpm,
    "efx0": lambda vm, alloc: R.ref_efx(vm, alloc, zero=True),
    "efxpm0": lambda vm, alloc: R.ref_efxpm(vm, alloc, zero=True),
}


class Oracle:
    """Every allocation of one instance with its utility profile and PO flag."""

    def __init__(self, inst):
        self.n, self.m = inst.n, inst.m
        self.names = inst.item_names
        self.vm = R.value_maps(inst)
        self.allocs = list(R.all_allocations(self.n, self.m))
        self.profiles = [self.profile(a) for a in self.allocs]
        self.front = pareto_front(self.profiles)

    def profile(self, sets) -> tuple:
        return tuple(self.vm[i][b] for i, b in enumerate(sets))

    def is_po(self, sets) -> bool:
        return self.profile(sets) in self.front

    def sets_from_names(self, bundles) -> tuple:
        return tuple(frozenset(self.names.index(x) for x in b) for b in bundles)

    def satisfies(self, sets, combo) -> bool:
        return all(self.is_po(sets) if ax == "po" else REF_AXIOMS[ax](self.vm, sets)
                   for ax in combo)

    def counts(self, combos) -> dict:
        axes = sorted({ax for combo in combos for ax in combo if ax != "po"})
        flags = {ax: [REF_AXIOMS[ax](self.vm, a) for a in self.allocs] for ax in axes}
        flags["po"] = [p in self.front for p in self.profiles]
        return {combo: sum(all(flags[ax][k] for ax in combo) for k in range(len(self.allocs)))
                for combo in combos}

    def efxpm_po_count(self) -> int:
        return sum(1 for a, p in zip(self.allocs, self.profiles)
                   if p in self.front and R.ref_efxpm(self.vm, a))

    def generally_good_bad(self) -> bool:
        return all(R.ref_generally_good(v, o, self.m) or R.ref_generally_bad(v, o, self.m)
                   for v in self.vm for o in range(self.m))


def pareto_front(profiles) -> set:
    """Non-dominated distinct profiles.

    A profile can only be dominated by one with a strictly larger sum, and
    whatever dominates it is itself dominated by, or is, a front member seen
    earlier in descending-sum order; so one pass against the front suffices.
    """
    front: list = []
    for p in sorted(set(profiles), key=sum, reverse=True):
        if not any(all(qi >= pi for qi, pi in zip(q, p)) for q in front):
            front.append(p)
    return set(front)


def fmt(v) -> str:
    """The CLI's exact value spelling: "5" or "-3/2"."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
