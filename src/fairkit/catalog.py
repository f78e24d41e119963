"""Built-in benchmark instances and their machine-checked claims.

Every fixture is a byte-exact transcription of a published worked example,
and each carries the claims stated for it as executable checks over the full
allocation space.  Gating claims decide the verifier's exit status;
exploratory claims are reported but never gate, which keeps recorded
discrepancies visible without failing the run.

Fixtures are data: each row of ``_SPECS`` holds the id, title, item names,
valuations and claim rows ``(id, kind, description, check)``, and each check
comes from the few shared forms below.  A claim gates unless its kind is
``exploratory``.  A combo is written ``"efx&po"`` and read by
:func:`~fairkit.search.parse_axioms`, and an allocation ``"a,b|c"`` (agent 1
gets a and b, agent 2 c).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional

from .axioms import (
    ADDED_BAD,
    EFXPM,
    REMOVED_GOOD,
    Witness,
    _item_classes,
    check_axiom,
)
from .core import (
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    enumerate_allocations,
    is_additive_consistent,
    mask_from_names,
    names_of,
)
from .efficiency import (
    leximin_set,
    pareto_improves,
    utilities,
    utility_vector,
)
from .protocols import cut_and_choose
from .search import held_walk, parse_axioms
from .values import format_value


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    description: str
    check: Callable  # Instance -> (Optional[bool], str); None means "open"

    @property
    def gating(self) -> bool:
        """Every claim gates except the exploratory ones."""
        return self.kind != "exploratory"


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
# notation

@lru_cache(maxsize=None)
def _bundle(item_names, key):
    """``"a,b"`` -> the mask of items a and b; ``""`` is the empty bundle."""
    return mask_from_names(item_names, key.split(",") if key else [])


def _parse(inst, text):
    """``"a,b|c"`` -> the allocation giving a and b to agent 1 and c to agent 2."""
    return tuple(_bundle(inst.item_names, part) for part in text.split("|"))


def _fmt(inst, *allocs):
    """Allocations in ``"a,b|c"`` notation, separated by spaces."""
    names = inst.item_names
    return " ".join("|".join(",".join(names_of(names, b)) for b in alloc) for alloc in allocs)


def _scan(inst, combo):
    """The allocations satisfying ``combo``, e.g. ``"efx&po"``, in enumeration order."""
    [want], walk = held_walk(inst, [parse_axioms(combo.split("&"))])
    return [alloc for alloc, held in walk if held == want]


def _meets(inst, alloc, holds, fails, utils):
    """``alloc`` meets the combo ``holds``, none of the axioms of ``fails``, and
    ``utils`` unless None."""
    return ((not holds or alloc in _scan(inst, holds))
            and not any(alloc in _scan(inst, ax) for ax in filter(None, fails.split("&")))
            and (utils is None or utilities(inst, alloc) == utils))


def _values(values):
    return "(" + ", ".join(map(format_value, values)) + ")"


def _utils(inst, alloc):
    return _values(utilities(inst, alloc))


# ---------------------------------------------------------------------------
# check forms; each returns a check ``Instance -> (passed, detail)``

_FACTS = {
    "identical": Instance.is_identical,
    "additive": lambda inst: all(map(is_additive_consistent, inst.valuations)),
    "nonzero_marginals": Instance.has_nonzero_marginals,
    "generally_good_bad": lambda inst: _item_classes(inst)[0].generally_good_bad_items,
    "no_mixed": lambda inst: _item_classes(inst)[0].no_mixed_items,
    "all_good": lambda inst: all(map(all, _item_classes(inst)[1].generally_good)),
    "all_bad": lambda inst: all(map(all, _item_classes(inst)[1].generally_bad)),
}


def _facts(**want):
    """Instance-level flags named in ``_FACTS``, e.g. ``_facts(identical=True)``."""
    def check(inst):
        seen = {name: _FACTS[name](inst) for name in want}
        return seen == want, ", ".join(f"{name}={flag}" for name, flag in seen.items())
    return check


def _items(names, mixed, good, bad):
    """Each item of ``names`` ("a,b") has these mixed and per-agent general flags."""
    def check(inst):
        _, mat = _item_classes(inst)
        seen = {}
        for name in names.split(","):
            o = inst.item_index(name)
            seen[name] = (mat.mixed[o], tuple(row[o] for row in mat.generally_good),
                          tuple(row[o] for row in mat.generally_bad))
        ok = all(flags == (mixed, good, bad) for flags in seen.values())
        return ok, "; ".join(f"item {name}: mixed={m}, generally good={g}, generally bad={b}"
                             for name, (m, g, b) in seen.items())
    return check


def _marginals(item, bundles):
    """Agent 1's marginal of ``item`` on each named bundle ("b,d" -> value)."""
    def check(inst):
        v, o = inst.valuations[0], inst.item_index(item)
        seen = {key: v.marginal(_bundle(inst.item_names, key), o) for key in bundles}
        return seen == bundles, f"marginals of {item}: " + ", ".join(
            f"{{{key}}} {format_value(x)}" for key, x in seen.items())
    return check


def _count(combo, n, at_least=False):
    """``combo`` holds on exactly ``n`` allocations (at least ``n`` with ``at_least``)."""
    def check(inst):
        hits = _scan(inst, combo)
        ok = len(hits) >= n if at_least else len(hits) == n
        example = f", e.g. {_fmt(inst, hits[0])}" if hits else ""
        return ok, f"{combo} satisfied by {len(hits)} of {inst.n ** inst.m} allocations{example}"
    return check


def _allocs_are(allocs, *combos):
    """Each of ``combos`` holds on exactly the allocations ``allocs``."""
    def check(inst):
        want = {_parse(inst, a) for a in allocs}
        found = {combo: _scan(inst, combo) for combo in combos}
        ok = all(set(hits) == want for hits in found.values())
        return ok, "; ".join(f"{combo} holds on {len(hits)}: {_fmt(inst, *hits)}"
                             for combo, hits in found.items())
    return check


def _allocation(*allocs, holds="", fails="", utils=None):
    """Each allocation meets ``holds``, ``fails`` and ``utils`` as in :func:`_meets`."""
    def check(inst):
        parsed = [_parse(inst, a) for a in allocs]
        ok = all(_meets(inst, a, holds, fails, utils) for a in parsed)
        return ok, "; ".join(f"{_fmt(inst, a)}: {holds or '-'} required, {fails or '-'} "
                             f"refuted, utilities {_utils(inst, a)}" for a in parsed)
    return check


def _witnesses(axiom, condition, rows, covers=None):
    """Each row ``(allocation, envier, envied, item, lhs, rhs)`` fails ``axiom``
    with that witness; the rows hold exactly the ``covers`` combo's allocations."""
    def check(inst):
        if covers is not None and set(_scan(inst, covers)) != {_parse(inst, r[0]) for r in rows}:
            return False, f"the rows do not hold exactly the {covers} allocations"
        for text, envier, envied, item, lhs, rhs in rows:
            witness = Witness(envier, envied, condition, inst.item_index(item), lhs, rhs)
            verdict = check_axiom(inst, _parse(inst, text), axiom)
            if verdict.satisfied or witness not in verdict.violations:
                return False, f"{text} lacks the {axiom} witness {witness}"
        text, _, _, item, lhs, rhs = rows[0]
        return True, (f"{len(rows)} allocations fail {axiom} with their {condition} witness, "
                      f"e.g. {text} item {item} ({lhs} < {rhs})")
    return check


def _leximin(allocs, vector, holds=""):
    """The leximin tie-set is ``allocs``, every allocation with ``vector``; all meet ``holds``."""
    def check(inst):
        lm = leximin_set(inst)
        tied = {a for a in enumerate_allocations(inst) if utility_vector(inst, a) == vector}
        ok = (set(lm) == {_parse(inst, a) for a in allocs} == tied
              and (not holds or set(lm) <= set(_scan(inst, holds))))
        vec = _values(utility_vector(inst, lm[0]))
        return ok, f"leximin tie-set {_fmt(inst, *lm)}, vector {vec}"
    return check


def _cut_and_choose(alloc, holds="", utils=None):
    """Cut-and-choose (agent 1 cuts) returns ``alloc``, which meets ``holds`` and ``utils``."""
    def check(inst):
        out = cut_and_choose(inst)
        ok = out == _parse(inst, alloc) and _meets(inst, out, holds, "", utils)
        return ok, f"protocol returned {_fmt(inst, out)}, utilities {_utils(inst, out)}"
    return check


def _improves(*pairs):
    """In each ``(better, worse)`` pair the first allocation Pareto-improves the second."""
    def check(inst):
        ok = all(pareto_improves(inst, _parse(inst, b), _parse(inst, w)) for b, w in pairs)
        return ok, "; ".join(f"{b} {_utils(inst, _parse(inst, b))} over "
                             f"{w} {_utils(inst, _parse(inst, w))}" for b, w in pairs)
    return check


# ---------------------------------------------------------------------------
# the two claims no form fits

def _ex1_vacuous(inst):
    """efxpm holds everywhere, vacuously on exactly the two lopsided allocations."""
    sat = _scan(inst, EFXPM)
    vacuous = [a for a in sat if check_axiom(inst, a, EFXPM).vacuous]
    ok = len(sat) == 4 and set(vacuous) == {(inst.full, 0), (0, inst.full)}
    return ok, f"efxpm holds on {len(sat)} of 4 allocations, vacuously on {_fmt(inst, *vacuous)}"


def _t1_mixed_witness(inst):
    """Item a's mixed witness splits the other items into a bundle where a's
    marginal is positive and one where it is negative; {c} vs {b,d} gives -2, +2."""
    w = _item_classes(inst)[1].mixed_witnesses[0]
    recorded, detail = _marginals("a", {"c": -2, "b,d": 2})(inst)
    if w is None:
        return False, f"item a not reported mixed; {detail}"
    v = inst.valuations[0]
    ok = (v.marginal(w.positive_bundle, 0) > 0 > v.marginal(w.negative_bundle, 0)
          and w.positive_bundle | w.negative_bundle == inst.full & ~1)
    split = _fmt(inst, (w.positive_bundle, w.negative_bundle))
    return ok and recorded, f"witness bundles {split}; {detail}"


# ---------------------------------------------------------------------------
# fixtures

# the splits of items a, b, c, d that give agent 1 one item, or two
_ONE_THREE = ("a|b,c,d", "b|a,c,d", "c|a,b,d", "d|a,b,c")
_TWO_TWO = ("a,b|c,d", "a,c|b,d", "a,d|b,c", "b,c|a,d", "b,d|a,c", "c,d|a,b")

# A valuation is a table over named bundles (the empty bundle defaults to 0),
# ("additive", item values) or ("size", value by bundle size).  A single
# valuation is held by both agents.
_SPECS = (
    ("FIX-EX1", "one ball and one racket, complementary pair", "b r",
     ({"": 0, "b": -1, "r": -1, "b,r": 2},), (
        ("ex1-identical", "instance-predicate", "both agents share one valuation",
         _facts(identical=True)),
        ("ex1-all-items-mixed", "instance-predicate",
         "every item is mixed and none is generally good or bad for anyone",
         _items("b,r", mixed=True, good=(False, False), bad=(False, False))),
        ("ex1-singles-envy-free", "allocation-has", "the two one-item splits are envy-free",
         _allocation("b|r", "r|b", holds="ef")),
        ("ex1-efxpm-set", "set-equality",
         "efxpm holds on all four allocations, vacuously on the two lopsided ones", _ex1_vacuous),
        ("ex1-cut-and-choose", "allocation-has",
         "cut-and-choose gives agent 2 the full pair and is efxpm",
         _cut_and_choose("|b,r", holds="efxpm")),
    )),
    ("FIX-EX2", "seminar plus three lectures, course credits", "s l1 l2 l3",
     ({"s": 6, "l1": 6, "l2": 6, "l3": 6,
       "s,l1": 6, "s,l2": 6, "s,l3": 6, "l1,l2": 9, "l1,l3": 9, "l2,l3": 9,
       "s,l1,l2": 12, "s,l1,l3": 12, "s,l2,l3": 12, "l1,l2,l3": 12, "s,l1,l2,l3": 18},), (
        ("ex2-seminar-vs-lectures", "allocation-has",
         "seminar-only split is efxpm and po but not efx",
         _allocation("s|l1,l2,l3", holds="efxpm&po", fails="efx", utils=(6, 12))),
        ("ex2-two-two-split", "allocation-has", "seminar+lecture split is efx and efxpm but not po",
         _allocation("s,l1|l2,l3", holds="efx&efxpm", fails="po", utils=(6, 9))),
        ("ex2-cut-and-choose", "allocation-has",
         "cut-and-choose hands the chooser a 12-credit module and is efxpm",
         _cut_and_choose("s|l1,l2,l3", holds="efxpm", utils=(6, 12))),
    )),
    ("FIX-OBS1", "additive two-agent instance with a mixed item", "a b",
     (("additive", (3, -1)), ("additive", (1, 1))), (
        ("obs1-additive-not-identical", "instance-predicate",
         "valuations are additive but not identical", _facts(additive=True, identical=False)),
        ("obs1-item-b", "instance-predicate",
         "item b is mixed yet generally classified by each agent",
         _items("b", mixed=True, good=(False, True), bad=(True, False))),
        ("obs1-class", "instance-predicate", "generally good/bad items, mixed items present",
         _facts(generally_good_bad=True, no_mixed=False)),
    )),
    ("FIX-OBS3",
     "identical instance without mixed items where item a resists classification", "a b c d",
     ({"": 0, "a": 1, "b": 1, "c": 3, "d": 1,
       "a,b": 2, "a,c": 2, "a,d": 2, "b,c": 2, "b,d": 2, "c,d": 2,
       "a,b,c": 4, "a,b,d": Fraction(3, 2), "a,c,d": 4, "b,c,d": 4, "a,b,c,d": 5},), (
        ("obs3-class", "instance-predicate", "no mixed items, yet not a generally good/bad problem",
         _facts(no_mixed=True, generally_good_bad=False)),
        ("obs3-item-a-unclassified", "instance-predicate",
         "item a is not generally good/bad for anyone",
         _items("a", mixed=False, good=(False, False), bad=(False, False))),
        ("obs3-item-a-marginals", "instance-predicate",
         "item a is good in the {a,b}|{c,d} split and bad in the {a,c}|{b,d} split",
         _marginals("a", {"b": 1, "c,d": 2, "c": -1, "b,d": Fraction(-1, 2)})),
    )),
    ("FIX-T1", "identical mixed-manna instance where no allocation is efx", "a b c d",
     ({"": 0, "a": 5, "b": 5, "c": 5, "d": 5,
       "a,b": 6, "a,c": 3, "a,d": 6, "b,c": 3, "b,d": 6, "c,d": 3,
       "a,b,c": 7, "a,b,d": 8, "a,c,d": 7, "b,c,d": 7, "a,b,c,d": 9},), (
        ("t1-base", "instance-predicate", "identical valuations, non-zero marginals",
         _facts(identical=True, nonzero_marginals=True)),
        ("t1-item-a-mixed", "instance-predicate",
         "item a is mixed; the {c} vs {b,d} bipartition certifies it", _t1_mixed_witness),
        ("t1-no-efx", "no-allocation", "no allocation satisfies efx", _count("efx", 0)),
        ("t1-efx-witnesses", "allocation-lacks",
         "every allocation fails efx with its recorded removed-good witness",
         _witnesses("efx", REMOVED_GOOD, (
             ("a,b,c,d|", 1, 0, "c", 0, 8), ("|a,b,c,d", 0, 1, "c", 0, 8),
             ("b,c,d|a", 1, 0, "c", 5, 6), ("a|b,c,d", 0, 1, "c", 5, 6),
             ("a,c,d|b", 1, 0, "c", 5, 6), ("b|a,c,d", 0, 1, "c", 5, 6),
             ("a,b,d|c", 1, 0, "d", 5, 6), ("c|a,b,d", 0, 1, "d", 5, 6),
             ("a,b,c|d", 1, 0, "c", 5, 6), ("d|a,b,c", 0, 1, "c", 5, 6),
             ("a,b|c,d", 1, 0, "a", 3, 5), ("c,d|a,b", 0, 1, "a", 3, 5),
             ("b,d|a,c", 1, 0, "b", 3, 5), ("a,c|b,d", 0, 1, "b", 3, 5),
             ("a,d|b,c", 1, 0, "d", 3, 5), ("b,c|a,d", 0, 1, "d", 3, 5),
         ))),
        ("t1-leximin", "set-equality",
         "the leximin tie-set is {c}|{a,b,d} and its swap, vector (5, 8)",
         _leximin(("c|a,b,d", "a,b,d|c"), (5, 8))),
        ("t1-leximin-efxpm-po", "allocation-has", "both leximin allocations satisfy efxpm and po",
         _leximin(("c|a,b,d", "a,b,d|c"), (5, 8), holds="efxpm&po")),
        ("t1-variant-a-portability", "exploratory",
         "recorded: the efx impossibility carries over to variant-a", _count("variant-a", 0)),
    )),
    ("FIX-T2", "identical generally-bad instance separating efx from efxpm and po", "a b c d",
     ({"": 0, "a": -4, "b": -4, "c": -4, "d": -6,
       "a,b": -5, "a,c": -5, "b,c": -5, "a,d": -7, "b,d": -7, "c,d": -7,
       "a,b,c": -8, "a,b,d": -8, "a,c,d": -8, "b,c,d": -8, "a,b,c,d": -9},), (
        ("t2-base", "instance-predicate", "identical, non-zero marginals, all items generally bad",
         _facts(identical=True, nonzero_marginals=True, generally_good_bad=True, all_bad=True)),
        ("t2-efx-set", "set-equality", "exactly the triple/single splits satisfy efx",
         _allocs_are(("a,b,c|d", "d|a,b,c"), "efx")),
        ("t2-no-efx-efxpm", "no-allocation", "no allocation satisfies efx and efxpm together",
         _count("efx&efxpm", 0)),
        ("t2-no-efx-po", "no-allocation", "no efx allocation is pareto-optimal",
         _count("efx&po", 0)),
        ("t2-efxpm-witness", "allocation-lacks",
         "the triple/single split fails efxpm by adding item a",
         _witnesses("efxpm", ADDED_BAD, (("a,b,c|d", 0, 1, "a", -8, -7),))),
        ("t2-pareto-improvements", "allocation-has",
         "each efx allocation is pareto-improved by a two-two split",
         _improves(("a,b|c,d", "d|a,b,c"), ("c,d|a,b", "a,b,c|d"))),
        ("t2-leximin", "set-equality",
         "leximin vector is (-7, -5), achieved by all six two-two splits",
         _leximin(_TWO_TWO, (-7, -5))),
        ("t2-variant-b-portability", "exploratory",
         "recorded: the efx/po incompatibility carries over to variant-b",
         _count("variant-b&po", 0)),
    )),
    ("FIX-T4", "cardinality valuations where ef1 and pareto-optimality clash", "a b c d",
     (("size", (0, -1, -2, 3, 4)), ("size", (0, 1, 2, 3, 4))), (
        ("t4-base", "instance-predicate",
         "non-identical valuations with non-zero marginals and mixed items",
         _facts(identical=False, nonzero_marginals=True, no_mixed=False)),
        ("t4-ef1-set", "set-equality", "ef1 holds exactly when agent 1 gets one or two items",
         _allocs_are(_ONE_THREE + _TWO_TWO, "ef1")),
        ("t4-ef1pm-equals-ef1", "set-equality", "the ef1pm set coincides with the ef1 set",
         _allocs_are(_ONE_THREE + _TWO_TWO, "ef1pm", "ef1")),
        ("t4-no-ef1-po", "no-allocation", "no ef1 allocation is pareto-optimal",
         _count("ef1&po", 0)),
        ("t4-no-ef1pm-po", "no-allocation", "no ef1pm allocation is pareto-optimal",
         _count("ef1pm&po", 0)),
        ("t4-empty-all-po", "allocation-has",
         "handing everything to agent 2 is pareto-optimal at utilities (0, 4)",
         _allocation("|a,b,c,d", holds="po", utils=(0, 4))),
    )),
    ("FIX-D1", "zero-marginal generally-good instance breaking the chen-liu variant under po",
     "a b", ({"": 0, "a": 1, "b": 0, "a,b": 2},), (
        ("d1-base", "instance-predicate",
         "identical generally-good valuations with a zero marginal",
         _facts(identical=True, generally_good_bad=True, all_good=True, nonzero_marginals=False)),
        ("d1-po-set", "set-equality", "only the two all-or-nothing allocations are pareto-optimal",
         _allocs_are(("a,b|", "|a,b"), "po")),
        ("d1-chen-liu-breaks", "allocation-lacks",
         "both po allocations violate chen-liu by removing item b",
         _witnesses("chen-liu", REMOVED_GOOD,
                    (("a,b|", 1, 0, "b", 0, 1), ("|a,b", 0, 1, "b", 0, 1)), covers="po")),
        ("d1-no-chenliu-po", "no-allocation", "no allocation satisfies chen-liu and po together",
         _count("chen-liu&po", 0)),
    )),
    ("FIX-ZM", "zero/one additive pair separating efxpm from its zero-marginal variant", "a b",
     (("additive", (0, 1)),), (
        ("zm-base", "instance-predicate", "identical additive instance with item values 0 and 1",
         _facts(identical=True, additive=True)),
        ("zm-no-efxpm0", "no-allocation",
         "no allocation satisfies the zero-marginal variant efxpm0", _count("efxpm0", 0)),
        ("zm-efxpm-exists", "exists-allocation", "efxpm allocations exist",
         _count("efxpm", 1, at_least=True)),
        ("zm-pair-split", "allocation-has", "giving the valued item to agent 1 satisfies efxpm",
         _allocation("b|a", holds="efxpm")),
    )),
)


def _valuation(names, spec):
    if isinstance(spec, dict):
        return ExplicitValuation.from_map(
            len(names), {_bundle(names, key): v for key, v in spec.items()})
    kind, values = spec
    if kind == "additive":
        return AdditiveValuation(values)
    return ExplicitValuation(tuple(values[bin(x).count("1")] for x in range(1 << len(names))))


def _build(fid, title, items, valuations, claims) -> Fixture:
    names = tuple(items.split())
    vals = tuple(_valuation(names, spec) for spec in valuations)
    inst = Instance(names, vals * 2 if len(vals) == 1 else vals)
    return Fixture(fid, title, inst, tuple(Claim(*row) for row in claims))


@lru_cache(maxsize=None)
def _fixtures() -> dict:
    return {spec[0]: _build(*spec) for spec in _SPECS}


def list_fixtures() -> tuple:
    return tuple(_fixtures().keys())


def fixture(fixture_id: str) -> Fixture:
    try:
        return _fixtures()[fixture_id]
    except KeyError:
        known = ", ".join(list_fixtures())
        raise ValueError(f"unknown fixture {fixture_id!r}; known: {known}") from None


_OPEN_NOTE = ClaimResult(
    "CATALOG",
    Claim("generally-good-efxpm-po-gap", "exploratory",
          "a generally-good-items instance with no efxpm & po allocation exists "
          "but no concrete table is recorded; use the miner to search for one",
          lambda inst: (None, "")),
    "open",
    "no recorded witness instance; mining target",
)


def verify_claims(fixture_id: Optional[str] = None) -> ClaimReport:
    """Evaluate claims by exhaustive enumeration and report per-claim status.

    With no argument, every fixture is verified and the catalog-level open
    note is appended.  Gating failures are counted on the report; exploratory
    rows never gate.
    """
    fixtures = _fixtures().values() if fixture_id is None else [fixture(fixture_id)]
    results = []
    for f in fixtures:
        for claim in f.claims:
            passed, detail = claim.check(f.instance)
            status = "open" if passed is None else "pass" if passed else "fail"
            results.append(ClaimResult(f.id, claim, status, detail))
    if fixture_id is None:
        results.append(_OPEN_NOTE)
    return ClaimReport(tuple(results))
