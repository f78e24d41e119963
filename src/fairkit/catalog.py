"""Built-in benchmark instances and their machine-checked claims.

Every fixture is a byte-exact transcription of a published worked example,
and each carries the claims stated for it as executable checks over the full
allocation space.  Gating claims decide the verifier's exit status;
exploratory claims are reported but never gate, which keeps recorded
discrepancies visible without failing the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import axioms
from .axioms import (
    ADDED_BAD,
    CHEN_LIU,
    EF,
    EFX,
    EFXPM,
    EFXPM0,
    REMOVED_GOOD,
    Witness,
    check_chen_liu,
    check_efx,
    check_efxpm,
    kernels,
    satisfies,
)
from .core import (
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    enumerate_allocations,
    is_additive_consistent,
    mask_from_names,
)
from .efficiency import (
    check_po,
    leximin_set,
    pareto_front,
    pareto_improves,
    utilities,
    utility_vector,
)
from .protocols import cut_and_choose
from .taxonomy import classify


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    description: str
    gating: bool
    check: Callable  # Instance -> (Optional[bool], str); None means "open"


@dataclass(frozen=True)
class Fixture:
    id: str
    title: str
    instance: Instance
    claims: tuple


@dataclass(frozen=True)
class ClaimResult:
    fixture_id: str
    claim: Claim
    status: str  # "pass" | "fail" | "open"
    detail: str


@dataclass(frozen=True)
class ClaimReport:
    results: tuple

    @property
    def gating_failures(self) -> int:
        return sum(1 for r in self.results if r.status == "fail" and r.claim.gating)

    @property
    def ok(self) -> bool:
        return self.gating_failures == 0


# ---------------------------------------------------------------------------
# construction helpers

def _explicit(names, table):
    entries = {
        mask_from_names(names, key.split(",") if key else []): v
        for key, v in table.items()
    }
    return ExplicitValuation.from_map(len(names), entries)


def _mask(inst, *names):
    return mask_from_names(inst.item_names, names)


def _alloc(inst, *bundles):
    return tuple(mask_from_names(inst.item_names, b) for b in bundles)


def _fmt(inst, alloc):
    parts = []
    for b in alloc:
        members = ",".join(n for i, n in enumerate(inst.item_names) if b >> i & 1)
        parts.append("{" + members + "}")
    return "(" + ", ".join(parts) + ")"


def _allocs(inst, *axiom_ids, po=False):
    """Allocations satisfying every listed axiom (and po), in enumeration order."""
    front = pareto_front(inst) if po else None
    holds = kernels(inst, axiom_ids).values()
    return [a for a in enumerate_allocations(inst)
            if (front is None or utilities(inst, a) in front)
            and all(kernel(a) for kernel in holds)]


# ---------------------------------------------------------------------------
# claim body helpers; each returns (passed, detail)

def _predicate(fn):
    def check(inst):
        ok, detail = fn(inst)
        return bool(ok), detail
    return check


def _no_allocation(*axiom_ids, and_po=False):
    def check(inst):
        hits = _allocs(inst, *axiom_ids, po=and_po)
        label = "&".join(axiom_ids) + ("&po" if and_po else "")
        if hits:
            return False, f"{label} satisfied by {len(hits)} allocations, e.g. {_fmt(inst, hits[0])}"
        return True, f"{label} satisfied by 0 allocations"
    return check


def _exists_allocation(*axiom_ids):
    def check(inst):
        hits = _allocs(inst, *axiom_ids)
        if hits:
            return True, f"witness {_fmt(inst, hits[0])}"
        return False, "no satisfying allocation"
    return check


# ---------------------------------------------------------------------------
# fixtures

def _fix_ex1() -> Fixture:
    names = ("b", "r")
    v = _explicit(names, {"": 0, "b": -1, "r": -1, "b,r": 2})
    inst = Instance(names, (v, v))

    def all_mixed(inst):
        _, mat = classify(inst)
        unclassified = all(
            not mat.generally_good[a][o] and not mat.generally_bad[a][o]
            for a in range(inst.n) for o in range(inst.m)
        )
        return all(mat.mixed) and unclassified, (
            f"mixed={list(mat.mixed)}, no (agent,item) pair generally good or bad"
        )

    def singles_envy_free(inst):
        pairs = [_alloc(inst, ("b",), ("r",)), _alloc(inst, ("r",), ("b",))]
        ok = all(map(kernels(inst, (EF,))[EF], pairs))
        return ok, "both one-item splits are envy-free"

    def efxpm_everywhere(inst):
        sat = _allocs(inst, EFXPM)
        vac = [a for a in sat if check_efxpm(inst, a).vacuous]
        return len(sat) == 4 and len(vac) == 2, (
            f"efxpm holds on {len(sat)}/4 allocations, {len(vac)} vacuously"
        )

    def cut_choose(inst):
        out = cut_and_choose(inst)
        want = _alloc(inst, (), ("b", "r"))
        ok = out == want and satisfies(inst, out, EFXPM)
        return ok, f"protocol returned {_fmt(inst, out)}"

    return Fixture(
        "FIX-EX1",
        "one ball and one racket, complementary pair",
        inst,
        (
            Claim("ex1-identical", "instance-predicate",
                  "both agents share one valuation", True,
                  _predicate(lambda i: (i.is_identical(), "identical tables"))),
            Claim("ex1-all-items-mixed", "instance-predicate",
                  "every item is mixed and none is generally good or bad for anyone",
                  True, all_mixed),
            Claim("ex1-singles-envy-free", "allocation-has",
                  "the two one-item splits are envy-free", True, singles_envy_free),
            Claim("ex1-efxpm-set", "set-equality",
                  "efxpm holds on all four allocations, vacuously on the two lopsided ones",
                  True, efxpm_everywhere),
            Claim("ex1-cut-and-choose", "allocation-has",
                  "cut-and-choose gives agent 2 the full pair and is efxpm", True,
                  cut_choose),
        ),
    )


def _fix_ex2() -> Fixture:
    names = ("s", "l1", "l2", "l3")

    def credit(mask):
        size = bin(mask).count("1")
        if size == 0:
            return 0
        if size == 1:
            return 6
        if size == 2:
            return 6 if mask & 1 else 9
        if size == 3:
            return 12
        return 18

    v = ExplicitValuation(tuple(credit(m) for m in range(16)))
    inst = Instance(names, (v, v))

    def outcome_a(inst):
        a = _alloc(inst, ("s",), ("l1", "l2", "l3"))
        ok = (satisfies(inst, a, EFXPM) and check_po(inst, a).satisfied
              and not satisfies(inst, a, EFX)
              and utilities(inst, a) == (6, 12))
        return ok, f"{_fmt(inst, a)}: efxpm and po hold, efx fails, credits (6, 12)"

    def outcome_b(inst):
        a = _alloc(inst, ("s", "l1"), ("l2", "l3"))
        ok = (satisfies(inst, a, EFX) and satisfies(inst, a, EFXPM)
              and not check_po(inst, a).satisfied
              and utilities(inst, a) == (6, 9))
        return ok, f"{_fmt(inst, a)}: efx and efxpm hold, po fails, credits (6, 9)"

    def cut_choose(inst):
        out = cut_and_choose(inst)
        t = inst.valuations[1].table
        ok = t[out[1]] == 12 and satisfies(inst, out, EFXPM)
        return ok, f"protocol returned {_fmt(inst, out)}, chooser credits {t[out[1]]}"

    return Fixture(
        "FIX-EX2",
        "seminar plus three lectures, course credits",
        inst,
        (
            Claim("ex2-seminar-vs-lectures", "allocation-has",
                  "seminar-only split is efxpm and po but not efx", True, outcome_a),
            Claim("ex2-two-two-split", "allocation-has",
                  "seminar+lecture split is efx and efxpm but not po", True, outcome_b),
            Claim("ex2-cut-and-choose", "allocation-has",
                  "cut-and-choose hands the chooser a 12-credit module and is efxpm",
                  True, cut_choose),
        ),
    )


def _fix_obs1() -> Fixture:
    names = ("a", "b")
    inst = Instance(names, (AdditiveValuation((3, -1)), AdditiveValuation((1, 1))))

    def additive_not_identical(inst):
        ok = all(is_additive_consistent(v) for v in inst.valuations) and not inst.is_identical()
        return ok, "additive valuations, agents disagree"

    def item_b(inst):
        _, mat = classify(inst)
        ok = mat.mixed[1] and mat.generally_bad[0][1] and mat.generally_good[1][1]
        return ok, "item b: mixed, generally bad for agent 1, generally good for agent 2"

    def pclass(inst):
        pc, _ = classify(inst)
        return pc.generally_good_bad_items and not pc.no_mixed_items, str(pc)

    return Fixture(
        "FIX-OBS1",
        "additive two-agent instance with a mixed item",
        inst,
        (
            Claim("obs1-additive-not-identical", "instance-predicate",
                  "valuations are additive but not identical", True, additive_not_identical),
            Claim("obs1-item-b", "instance-predicate",
                  "item b is mixed yet generally classified by each agent", True, item_b),
            Claim("obs1-class", "instance-predicate",
                  "generally good/bad items, mixed items present", True, pclass),
        ),
    )


def _fix_obs3() -> Fixture:
    names = ("a", "b", "c", "d")
    v = _explicit(names, {
        "": 0, "a": 1, "b": 1, "c": 3, "d": 1,
        "a,b": 2, "a,c": 2, "a,d": 2, "b,c": 2, "b,d": 2, "c,d": 2,
        "a,b,c": 4, "a,b,d": Fraction(3, 2), "a,c,d": 4, "b,c,d": 4,
        "a,b,c,d": 5,
    })
    inst = Instance(names, (v, v))

    def pclass(inst):
        pc, _ = classify(inst)
        return pc.no_mixed_items and not pc.generally_good_bad_items, str(pc)

    def item_a_unclassified(inst):
        _, mat = classify(inst)
        ok = all(not mat.generally_good[ag][0] and not mat.generally_bad[ag][0]
                 for ag in range(inst.n))
        return ok, "item a is neither generally good nor generally bad for any agent"

    def item_a_sign_witnesses(inst):
        v0 = inst.valuations[0]
        vals = (
            v0.marginal(_mask(inst, "b"), 0),
            v0.marginal(_mask(inst, "c", "d"), 0),
            v0.marginal(_mask(inst, "c"), 0),
            v0.marginal(_mask(inst, "b", "d"), 0),
        )
        ok = vals == (1, 2, -1, Fraction(-1, 2))
        return ok, f"marginals of a: {vals[0]}, {vals[1]} vs {vals[2]}, {vals[3]}"

    return Fixture(
        "FIX-OBS3",
        "identical instance without mixed items where item a resists classification",
        inst,
        (
            Claim("obs3-class", "instance-predicate",
                  "no mixed items, yet not a generally good/bad problem", True, pclass),
            Claim("obs3-item-a-unclassified", "instance-predicate",
                  "item a is not generally good/bad for anyone", True, item_a_unclassified),
            Claim("obs3-item-a-marginals", "instance-predicate",
                  "item a is good in the {a,b}|{c,d} split and bad in the {a,c}|{b,d} split",
                  True, item_a_sign_witnesses),
        ),
    )


def _fix_t1() -> Fixture:
    names = ("a", "b", "c", "d")
    v = _explicit(names, {
        "": 0, "a": 5, "b": 5, "c": 5, "d": 5,
        "a,b": 6, "a,c": 3, "a,d": 6, "b,c": 3, "b,d": 6, "c,d": 3,
        "a,b,c": 7, "a,b,d": 8, "a,c,d": 7, "b,c,d": 7,
        "a,b,c,d": 9,
    })
    inst = Instance(names, (v, v))

    # per complement pair: envied bundle, removed item, lhs < rhs
    efx_rows = (
        (("a", "b", "c", "d"), "c", 0, 8),
        (("b", "c", "d"), "c", 5, 6),
        (("a", "c", "d"), "c", 5, 6),
        (("a", "b", "d"), "d", 5, 6),
        (("a", "b", "c"), "c", 5, 6),
        (("a", "b"), "a", 3, 5),
        (("b", "d"), "b", 3, 5),
        (("a", "d"), "d", 3, 5),
    )

    def base_facts(inst):
        ok = inst.is_identical() and inst.has_nonzero_marginals()
        return ok, "identical valuations with non-zero marginals"

    def item_a_mixed(inst):
        _, mat = classify(inst)
        w = mat.mixed_witnesses[0]
        if w is None:
            return False, "item a not reported mixed"
        v0 = inst.valuations[0]
        ok = (v0.marginal(w.positive_bundle, 0) > 0 > v0.marginal(w.negative_bundle, 0)
              and (w.positive_bundle | w.negative_bundle) == inst.full & ~1)
        neg = _mask(inst, "c")
        pos = _mask(inst, "b", "d")
        seen = (v0.marginal(neg, 0), v0.marginal(pos, 0))
        return ok and seen == (-2, 2), (
            f"witness bundles {_fmt(inst, (w.positive_bundle, w.negative_bundle))}, "
            f"recorded pair has marginals -2 and +2"
        )

    def no_efx(inst):
        count = len(_allocs(inst, EFX))
        return count == 0, f"efx satisfied by {count} of 16 allocations"

    def efx_witnesses(inst):
        full = inst.full
        for bundle, item_name, lhs, rhs in efx_rows:
            envied = _mask(inst, *bundle)
            o = inst.item_index(item_name)
            for envied_pos in (0, 1):
                alloc = (envied, full ^ envied) if envied_pos == 0 else (full ^ envied, envied)
                want = Witness(1 - envied_pos, envied_pos, REMOVED_GOOD, o, lhs, rhs)
                verdict = check_efx(inst, alloc)
                if verdict.satisfied or want not in verdict.violations:
                    return False, f"{_fmt(inst, alloc)} missing witness {want}"
        return True, "all 16 allocations carry their recorded removed-good witness"

    def leximin_facts(inst):
        lm = leximin_set(inst)
        want = {_alloc(inst, ("c",), ("a", "b", "d")), _alloc(inst, ("a", "b", "d"), ("c",))}
        ok = set(lm) == want and utility_vector(inst, lm[0]) == (5, 8)
        return ok, f"leximin tie-set {[ _fmt(inst, a) for a in lm ]}, vector (5, 8)"

    def leximin_efxpm_po(inst):
        ok = set(leximin_set(inst)) <= set(_allocs(inst, EFXPM, po=True))
        return ok, "every leximin allocation is efxpm and po"

    def variant_a_portability(inst):
        sat = _allocs(inst, axioms.VARIANT_A)
        if sat:
            return False, (
                f"recorded as impossible, but variant-a holds on {len(sat)} allocations, "
                f"e.g. {_fmt(inst, sat[0])} (literal clause reading)"
            )
        return True, "variant-a satisfied by 0 allocations"

    return Fixture(
        "FIX-T1",
        "identical mixed-manna instance where no allocation is efx",
        inst,
        (
            Claim("t1-base", "instance-predicate",
                  "identical valuations, non-zero marginals", True, base_facts),
            Claim("t1-item-a-mixed", "instance-predicate",
                  "item a is mixed; the {c} vs {b,d} bipartition certifies it", True,
                  item_a_mixed),
            Claim("t1-no-efx", "no-allocation",
                  "no allocation satisfies efx", True, no_efx),
            Claim("t1-efx-witnesses", "allocation-lacks",
                  "every allocation fails efx with its recorded removed-good witness",
                  True, efx_witnesses),
            Claim("t1-leximin", "set-equality",
                  "the leximin tie-set is {c}|{a,b,d} and its swap, vector (5, 8)",
                  True, leximin_facts),
            Claim("t1-leximin-efxpm-po", "allocation-has",
                  "both leximin allocations satisfy efxpm and po", True, leximin_efxpm_po),
            Claim("t1-variant-a-portability", "exploratory",
                  "recorded: the efx impossibility carries over to variant-a", False,
                  variant_a_portability),
        ),
    )


def _fix_t2() -> Fixture:
    names = ("a", "b", "c", "d")
    v = _explicit(names, {
        "": 0, "a": -4, "b": -4, "c": -4, "d": -6,
        "a,b": -5, "a,c": -5, "b,c": -5, "a,d": -7, "b,d": -7, "c,d": -7,
        "a,b,c": -8, "a,b,d": -8, "a,c,d": -8, "b,c,d": -8,
        "a,b,c,d": -9,
    })
    inst = Instance(names, (v, v))

    def base_facts(inst):
        pc, mat = classify(inst)
        all_bad = all(mat.generally_bad[ag][o] for ag in range(inst.n) for o in range(inst.m))
        ok = (inst.is_identical() and inst.has_nonzero_marginals()
              and pc.generally_good_bad_items and all_bad)
        return ok, "identical, non-zero marginals, every item generally bad"

    def efx_set(inst):
        sat = _allocs(inst, EFX)
        want = {_alloc(inst, ("a", "b", "c"), ("d",)), _alloc(inst, ("d",), ("a", "b", "c"))}
        return set(sat) == want, f"efx set = {[_fmt(inst, a) for a in sat]}"

    def efxpm_witness(inst):
        a = _alloc(inst, ("a", "b", "c"), ("d",))
        verdict = check_efxpm(inst, a)
        want = Witness(0, 1, ADDED_BAD, 0, -8, -7)
        ok = not verdict.satisfied and want in verdict.violations
        return ok, f"{_fmt(inst, a)} fails efxpm with added-bad witness a (-8 < -7)"

    def improvements(inst):
        c = _alloc(inst, ("a", "b"), ("c", "d"))
        d = _alloc(inst, ("c", "d"), ("a", "b"))
        a = _alloc(inst, ("d",), ("a", "b", "c"))
        b = _alloc(inst, ("a", "b", "c"), ("d",))
        ok = pareto_improves(inst, c, a) and pareto_improves(inst, d, b)
        return ok, "the two-two splits pareto-improve the efx allocations"

    def leximin_facts(inst):
        lm = leximin_set(inst)
        vec = utility_vector(inst, lm[0])
        want = {al for al in enumerate_allocations(inst) if utility_vector(inst, al) == (-7, -5)}
        ok = vec == (-7, -5) and set(lm) == want and len(lm) == 6
        return ok, f"leximin vector {vec}, tie-set of {len(lm)} two-two splits"

    def variant_b_portability(inst):
        hits = _allocs(inst, axioms.VARIANT_B, po=True)
        if hits:
            return False, (
                f"recorded as impossible, but variant-b & po holds on {len(hits)} "
                f"allocations, e.g. {_fmt(inst, hits[0])} (literal clause reading)"
            )
        return True, "variant-b & po satisfied by 0 allocations"

    return Fixture(
        "FIX-T2",
        "identical generally-bad instance separating efx from efxpm and po",
        inst,
        (
            Claim("t2-base", "instance-predicate",
                  "identical, non-zero marginals, all items generally bad", True, base_facts),
            Claim("t2-efx-set", "set-equality",
                  "exactly the triple/single splits satisfy efx", True, efx_set),
            Claim("t2-no-efx-efxpm", "no-allocation",
                  "no allocation satisfies efx and efxpm together", True,
                  _no_allocation(EFX, EFXPM)),
            Claim("t2-no-efx-po", "no-allocation",
                  "no efx allocation is pareto-optimal", True,
                  _no_allocation(EFX, and_po=True)),
            Claim("t2-efxpm-witness", "allocation-lacks",
                  "the triple/single split fails efxpm by adding item a", True,
                  efxpm_witness),
            Claim("t2-pareto-improvements", "allocation-has",
                  "each efx allocation is pareto-improved by a two-two split", True,
                  improvements),
            Claim("t2-leximin", "set-equality",
                  "leximin vector is (-7, -5), achieved by all six two-two splits",
                  True, leximin_facts),
            Claim("t2-variant-b-portability", "exploratory",
                  "recorded: the efx/po incompatibility carries over to variant-b", False,
                  variant_b_portability),
        ),
    )


def _fix_t4() -> Fixture:
    names = ("a", "b", "c", "d")
    s1 = (0, -1, -2, 3, 4)
    s2 = (0, 1, 2, 3, 4)
    v1 = ExplicitValuation(tuple(s1[bin(m).count("1")] for m in range(16)))
    v2 = ExplicitValuation(tuple(s2[bin(m).count("1")] for m in range(16)))
    inst = Instance(names, (v1, v2))

    def base_facts(inst):
        pc, _ = classify(inst)
        ok = (not inst.is_identical() and inst.has_nonzero_marginals()
              and not pc.no_mixed_items)
        return ok, "non-identical, non-zero marginals, mixed items present"

    def _expected(inst):
        return {a for a in enumerate_allocations(inst) if bin(a[0]).count("1") in (1, 2)}

    def ef1_set(inst):
        sat = set(_allocs(inst, axioms.EF1))
        ok = sat == _expected(inst) and len(sat) == 10
        return ok, f"ef1 set = the {len(sat)} allocations giving agent 1 one or two items"

    def ef1pm_set(inst):
        sat = set(_allocs(inst, axioms.EF1PM))
        ok = sat == set(_allocs(inst, axioms.EF1)) == _expected(inst)
        return ok, f"ef1pm set equals the ef1 set ({len(sat)} allocations)"

    def empty_all_po(inst):
        a = (0, inst.full)
        ok = check_po(inst, a).satisfied and utilities(inst, a) == (0, 4)
        return ok, f"{_fmt(inst, a)} is po with utilities (0, 4)"

    return Fixture(
        "FIX-T4",
        "cardinality valuations where ef1 and pareto-optimality clash",
        inst,
        (
            Claim("t4-base", "instance-predicate",
                  "non-identical valuations with non-zero marginals and mixed items",
                  True, base_facts),
            Claim("t4-ef1-set", "set-equality",
                  "ef1 holds exactly when agent 1 gets one or two items", True, ef1_set),
            Claim("t4-ef1pm-equals-ef1", "set-equality",
                  "the ef1pm set coincides with the ef1 set", True, ef1pm_set),
            Claim("t4-no-ef1-po", "no-allocation",
                  "no ef1 allocation is pareto-optimal", True,
                  _no_allocation(axioms.EF1, and_po=True)),
            Claim("t4-no-ef1pm-po", "no-allocation",
                  "no ef1pm allocation is pareto-optimal", True,
                  _no_allocation(axioms.EF1PM, and_po=True)),
            Claim("t4-empty-all-po", "allocation-has",
                  "handing everything to agent 2 is pareto-optimal at utilities (0, 4)",
                  True, empty_all_po),
        ),
    )


def _fix_d1() -> Fixture:
    names = ("a", "b")
    v = _explicit(names, {"": 0, "a": 1, "b": 0, "a,b": 2})
    inst = Instance(names, (v, v))

    def base_facts(inst):
        pc, mat = classify(inst)
        all_good = all(mat.generally_good[ag][o] for ag in range(inst.n) for o in range(inst.m))
        ok = (inst.is_identical() and pc.generally_good_bad_items and all_good
              and not inst.has_nonzero_marginals())
        return ok, "identical, generally good items, zero marginals present"

    def po_set(inst):
        po = _allocs(inst, po=True)
        want = [_alloc(inst, ("a", "b"), ()), _alloc(inst, (), ("a", "b"))]
        return set(po) == set(want), f"po set = {[_fmt(inst, a) for a in po]}"

    def chen_liu_breaks(inst):
        for a in _allocs(inst, po=True):
            verdict = check_chen_liu(inst, a)
            envier = 1 if a[0] else 0
            want = Witness(envier, 1 - envier, REMOVED_GOOD, 1, 0, 1)
            if verdict.satisfied or want not in verdict.violations:
                return False, f"{_fmt(inst, a)} missing chen-liu witness (b, 0 < 1)"
        return True, "both po allocations fail chen-liu with witness item b (0 < 1)"

    return Fixture(
        "FIX-D1",
        "zero-marginal generally-good instance breaking the chen-liu variant under po",
        inst,
        (
            Claim("d1-base", "instance-predicate",
                  "identical generally-good valuations with a zero marginal", True,
                  base_facts),
            Claim("d1-po-set", "set-equality",
                  "only the two all-or-nothing allocations are pareto-optimal", True,
                  po_set),
            Claim("d1-chen-liu-breaks", "allocation-lacks",
                  "both po allocations violate chen-liu by removing item b", True,
                  chen_liu_breaks),
            Claim("d1-no-chenliu-po", "no-allocation",
                  "no allocation satisfies chen-liu and po together", True,
                  _no_allocation(CHEN_LIU, and_po=True)),
        ),
    )


def _fix_zm() -> Fixture:
    names = ("a", "b")
    inst = Instance(names, (AdditiveValuation((0, 1)), AdditiveValuation((0, 1))))

    def base_facts(inst):
        ok = inst.is_identical() and all(is_additive_consistent(v) for v in inst.valuations)
        return ok, "identical additive valuations over values {0, 1}"

    def pair_split(inst):
        a = _alloc(inst, ("b",), ("a",))
        return satisfies(inst, a, EFXPM), f"{_fmt(inst, a)} satisfies efxpm"

    return Fixture(
        "FIX-ZM",
        "zero/one additive pair separating efxpm from its zero-marginal variant",
        inst,
        (
            Claim("zm-base", "instance-predicate",
                  "identical additive instance with item values 0 and 1", True, base_facts),
            Claim("zm-no-efxpm0", "no-allocation",
                  "no allocation satisfies the zero-marginal variant efxpm0", True,
                  _no_allocation(EFXPM0)),
            Claim("zm-efxpm-exists", "exists-allocation",
                  "efxpm allocations exist", True, _exists_allocation(EFXPM)),
            Claim("zm-pair-split", "allocation-has",
                  "giving the valued item to agent 1 satisfies efxpm", True, pair_split),
        ),
    )


_BUILDERS = (_fix_ex1, _fix_ex2, _fix_obs1, _fix_obs3, _fix_t1, _fix_t2, _fix_t4,
             _fix_d1, _fix_zm)
_FIXTURES: dict = {}


def _fixtures() -> dict:
    if not _FIXTURES:
        for build in _BUILDERS:
            f = build()
            _FIXTURES[f.id] = f
    return _FIXTURES


def list_fixtures() -> tuple:
    return tuple(_fixtures().keys())


def fixture(fixture_id: str) -> Fixture:
    try:
        return _fixtures()[fixture_id]
    except KeyError:
        raise ValueError(f"unknown fixture {fixture_id!r}; known: {', '.join(list_fixtures())}") from None


_OPEN_NOTE = ClaimResult(
    "CATALOG",
    Claim("generally-good-efxpm-po-gap", "exploratory",
          "a generally-good-items instance with no efxpm & po allocation exists "
          "but no concrete table is recorded; use the miner to search for one",
          False, lambda inst: (None, "")),
    "open",
    "no recorded witness instance; mining target",
)


def verify_claims(fixture_id: Optional[str] = None) -> ClaimReport:
    """Evaluate claims by exhaustive enumeration and report per-claim status.

    With no argument, every fixture is verified and the catalog-level open
    note is appended.  Gating failures are counted on the report; exploratory
    rows never gate.
    """
    if fixture_id is None:
        fixtures = list(_fixtures().values())
    else:
        fixtures = [fixture(fixture_id)]
    results = []
    for f in fixtures:
        for claim in f.claims:
            passed, detail = claim.check(f.instance)
            if passed is None:
                status = "open"
            else:
                status = "pass" if passed else "fail"
            results.append(ClaimResult(f.id, claim, status, detail))
    if fixture_id is None:
        results.append(_OPEN_NOTE)
    return ClaimReport(tuple(results))
