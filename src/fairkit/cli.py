"""Command-line frontend.

Subcommands: check, enumerate, leximin, taxonomy, cut-and-choose,
verify-paper, mine.  Reports are indented JSON; ``enumerate`` streams one
compact JSON line per allocation, and ``check`` and ``verify-paper`` take
--table for a plain text view instead.  Exit codes: 0 all requested checks
passed, 1 an axiom or gating claim failed, 2 input error, 3 enumeration
budget exceeded.  The commands that enumerate (check, enumerate, leximin,
cut-and-choose, mine) take --budget; without it, the environment variable
FAIRKIT_BUDGET overrides the default enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import axioms
from .axioms import NotWellDefinedError, Verdict, Witness, check_axiom
from .catalog import fixture, list_fixtures, verify_claims
from .core import (  # enumerate_allocations: no longer called here, but benchmark spans wrap it
    BudgetExceededError,
    Instance,
    allocation_blocks,
    enumerate_allocations,
    joined_by_mask,
    names_of,
)
from .efficiency import check_po, leximin_set, pareto_front, utilities, utility_vector
from .protocols import cut_and_choose
from .search import (
    GenParams,
    ITEM_CLASSES,
    RejectionBudgetError,
    mine_seeds,
    parse_predicate,
)
from .serialize import (
    DocumentError,
    allocation_to_document,
    dumps_instance,
    instance_to_document,
    loads_allocation,
    loads_instance,
)
from .taxonomy import classify
from .values import format_value

CHECK_DEFAULT_AXIOMS = "ef,ef1,efx,ef1pm,efxpm"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _load_instance(args) -> Instance:
    return loads_instance(_read(args.instance))


def _budget(args) -> Optional[int]:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("FAIRKIT_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise DocumentError(f"FAIRKIT_BUDGET must be an integer, got {env!r}") from None
    return None


def _axiom_list(text: str) -> list:
    out = []
    for raw in text.split(","):
        ax = raw.strip().lower()
        if not ax:
            continue
        if ax != "po" and ax not in axioms.ALL_AXIOMS:
            raise DocumentError(
                f"unknown axiom {ax!r}; known: {', '.join(axioms.ALL_AXIOMS + ('po',))}"
            )
        out.append(ax)
    if not out:
        raise DocumentError("no axioms requested")
    return list(dict.fromkeys(out))  # each axiom once, in first-seen order


def _witness_doc(inst: Instance, w: Witness) -> dict:
    return {
        "envier": w.envier,
        "envied": w.envied,
        "condition": w.condition,
        "item": None if w.item is None else inst.item_names[w.item],
        "lhs": format_value(w.lhs),
        "rhs": format_value(w.rhs),
    }


def _verdict_doc(inst: Instance, v: Verdict) -> dict:
    return {
        "satisfied": v.satisfied,
        "violations": [_witness_doc(inst, w) for w in v.violations],
        "vacuous": [_witness_doc(inst, w) for w in v.vacuous],
    }


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    inst = _load_instance(args)
    alloc = loads_allocation(inst, _read(args.allocation))
    requested = _axiom_list(args.axioms)
    budget = _budget(args)
    report: dict = {
        "allocation": allocation_to_document(inst, alloc)["bundles"],
        "utilities": [format_value(u) for u in utilities(inst, alloc)],
        "axioms": {},
    }
    all_ok = True
    for ax in requested:
        if ax == "po":
            po = check_po(inst, alloc, budget)
            entry = {"satisfied": po.satisfied}
            if po.improver is not None:
                entry["improver"] = allocation_to_document(inst, po.improver)["bundles"]
            report["axioms"]["po"] = entry
            all_ok &= po.satisfied
        else:
            verdict = check_axiom(inst, alloc, ax)
            report["axioms"][ax] = _verdict_doc(inst, verdict)
            all_ok &= verdict.satisfied
    if args.table:
        for ax in requested:
            entry = report["axioms"][ax]
            mark = "satisfied" if entry["satisfied"] else "VIOLATED"
            print(f"{ax:10} {mark}")
            for w in entry.get("violations", []):
                print(f"           agent {w['envier']} vs {w['envied']}: "
                      f"{w['condition']} item={w['item']} {w['lhs']} < {w['rhs']}")
    else:
        _emit(report)
    return 0 if all_ok else 1


def cmd_enumerate(args) -> int:
    inst = _load_instance(args)
    requested = _axiom_list(args.axioms)
    budget = _budget(args)
    front = pareto_front(inst, budget) if "po" in requested else frozenset()
    blocks = allocation_blocks(inst, budget)  # the budget is checked before any work
    bit_of, scan = axioms.held(inst, [ax for ax in requested if ax != "po"])
    want = sum(bit_of.values())
    po = bit_of["po"] = 1 << len(bit_of)
    # Each row is printed as json.dumps would print it, from fragments encoded
    # once per scan: every bundle's name array, every utility, every axiom key.
    bundle = [f"[{names}]" for names in joined_by_mask(map(json.dumps, inst.item_names), ", ")]
    utility = {u: json.dumps(format_value(u))
               for u in set().union(*(v.table for v in inst.valuations))}
    keys = [(json.dumps(ax) + ": ", bit_of[ax]) for ax in requested]
    flags: dict = {}  # the bits of an allocation's satisfied axioms -> its "axioms" object
    k = 0
    for allocs, profiles in blocks:
        lines = []
        for alloc, prof in zip(allocs, profiles):
            got = scan(alloc, want) | (po if prof in front else 0)
            text = flags.get(got)
            if text is None:
                text = flags[got] = ", ".join(
                    key + ("true" if got & bit else "false") for key, bit in keys)
            bundles = ", ".join(map(bundle.__getitem__, alloc))
            utils = ", ".join(map(utility.__getitem__, prof))
            lines.append(f'{{"index": {k}, "bundles": [{bundles}], "utilities": [{utils}], '
                         f'"axioms": {{{text}}}}}')
            k += 1
        print("\n".join(lines))
    return 0


def cmd_leximin(args) -> int:
    inst = _load_instance(args)
    allocations = leximin_set(inst, _budget(args))
    doc = {
        "utilityVector": [format_value(u) for u in utility_vector(inst, allocations[0])],
        "count": len(allocations),
        "allocations": [
            [list(names_of(inst.item_names, b)) for b in alloc] for alloc in allocations
        ],
    }
    _emit(doc)
    return 0


def cmd_taxonomy(args) -> int:
    inst = _load_instance(args)
    problem, matrix = classify(inst)
    items = []
    for o, name in enumerate(inst.item_names):
        entry = {
            "name": name,
            "mixed": matrix.mixed[o],
            "agents": [
                {
                    "generallyGood": matrix.generally_good[a][o],
                    "generallyBad": matrix.generally_bad[a][o],
                }
                for a in range(inst.n)
            ],
        }
        w = matrix.mixed_witnesses[o]
        if w is not None:
            entry["mixedWitness"] = {
                "positiveAgent": w.positive_agent,
                "positiveBundle": list(names_of(inst.item_names, w.positive_bundle)),
                "negativeAgent": w.negative_agent,
                "negativeBundle": list(names_of(inst.item_names, w.negative_bundle)),
            }
        items.append(entry)
    _emit({
        "generallyGoodBadItems": problem.generally_good_bad_items,
        "noMixedItems": problem.no_mixed_items,
        "items": items,
    })
    return 0


def cmd_cut_and_choose(args) -> int:
    inst = _load_instance(args)
    alloc = cut_and_choose(inst, cutter=args.cutter - 1, budget=_budget(args))
    verdict = check_axiom(inst, alloc, axioms.EFXPM)
    _emit({
        "bundles": [list(names_of(inst.item_names, b)) for b in alloc],
        "cutter": args.cutter,
        "utilities": [format_value(u) for u in utilities(inst, alloc)],
        "efxpm": _verdict_doc(inst, verdict),
    })
    return 0


def cmd_verify_paper(args) -> int:
    report = verify_claims(args.fixture)
    if args.export_instances:
        ids = [args.fixture] if args.fixture else list_fixtures()
        path = args.export_instances
        try:
            os.makedirs(path, exist_ok=True)
            for fid in ids:
                path = os.path.join(args.export_instances, f"{fid}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dumps_instance(fixture(fid).instance) + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {path}: {exc}") from None
    rows = [
        {
            "fixture": r.fixture_id,
            "claim": r.claim.id,
            "kind": r.claim.kind,
            "gating": r.claim.gating,
            "status": r.status,
            "description": r.claim.description,
            "detail": r.detail,
        }
        for r in report.results
    ]
    if args.table:
        for r in rows:
            tag = "" if r["gating"] else " [exploratory]"
            print(f"{r['status'].upper():5} {r['fixture']:9} {r['claim']:30}{tag} {r['detail']}")
        print(f"gating failures: {report.gating_failures}")
    else:
        _emit({"rows": rows, "gatingFailures": report.gating_failures})
    return 0 if report.ok else 1


def cmd_mine(args) -> int:
    params = GenParams(
        agents=args.agents,
        items=args.items,
        lo=args.lo,
        hi=args.hi,
        identical=args.identical,
        additive=args.additive,
        nonzero_marginals=args.nonzero_marginals,
        disjointly_normalised=args.disjointly_normalised,
        item_class=args.item_class,
        seed=args.seed,
    )
    try:
        predicate = parse_predicate(args.predicate)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    hits, skipped, scanned = [], [], 0
    for seed, hit, reason in mine_seeds(params, predicate, args.count, budget=_budget(args)):
        scanned += 1
        if hit is not None:
            hits.append(hit)
        if reason is not None:
            skipped.append({"seed": seed, "reason": reason})
    doc = {
        "predicate": predicate.text(),
        "scanned": scanned,
        "skipped": skipped,
        "hits": [
            {
                "seed": h.seed,
                "instance": instance_to_document(h.instance),
                "landscape": [
                    {"combo": "&".join(r.combo), "count": r.count} for r in h.rows
                ],
            }
            for h in hits
        ],
    }
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairkit",
        description="Check fairness axioms, efficiency and protocols on fair-division instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, budget=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
        if budget:  # only for the commands that enumerate
            p.add_argument("--budget", type=int, default=None,
                           help="enumeration budget (overrides FAIRKIT_BUDGET)")

    p = sub.add_parser("check", help="check axioms on one allocation")
    common(p)
    p.add_argument("--table", action="store_true", help="plain text instead of JSON")
    p.add_argument("allocation", help="allocation JSON file")
    p.add_argument("--axioms", default=CHECK_DEFAULT_AXIOMS,
                   help=f"comma-separated axiom list (default {CHECK_DEFAULT_AXIOMS})")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="stream every allocation with axiom flags")
    common(p)
    p.add_argument("--axioms", default=CHECK_DEFAULT_AXIOMS)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("leximin", help="print the leximin tie-set")
    common(p)
    p.set_defaults(func=cmd_leximin)

    p = sub.add_parser("taxonomy", help="classify items and the problem")
    common(p, budget=False)
    p.set_defaults(func=cmd_taxonomy)

    p = sub.add_parser("cut-and-choose", help="run the two-agent protocol")
    common(p)
    p.add_argument("--cutter", type=int, choices=(1, 2), default=1,
                   help="which agent cuts (1-based, default 1)")
    p.set_defaults(func=cmd_cut_and_choose)

    p = sub.add_parser("verify-paper", help="re-check every recorded catalog claim")
    p.add_argument("--table", action="store_true", help="plain text instead of JSON")
    p.add_argument("--fixture", default=None,
                   help="restrict to one fixture id (e.g. FIX-T1)")
    p.add_argument("--export-instances", default=None, metavar="DIR",
                   help="also write each fixture instance as JSON into DIR")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("mine", help="search seeded instances for landscape patterns")
    common(p, instance=False)
    p.add_argument("--predicate", required=True,
                   help="landscape condition, e.g. 'efx=0' or 'efxpm&po=0' or 'ef=all'")
    p.add_argument("--agents", "-n", type=int, default=2)
    p.add_argument("--items", "-m", type=int, default=3)
    p.add_argument("--lo", type=int, default=-8)
    p.add_argument("--hi", type=int, default=8)
    p.add_argument("--identical", action="store_true")
    p.add_argument("--additive", action="store_true")
    p.add_argument("--nonzero-marginals", action="store_true")
    p.add_argument("--disjointly-normalised", action="store_true")
    p.add_argument("--item-class", choices=ITEM_CLASSES, default="any")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100,
                   help="how many consecutive seeds to scan")
    p.set_defaults(func=cmd_mine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DocumentError, NotWellDefinedError, RejectionBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
