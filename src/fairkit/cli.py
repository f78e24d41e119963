"""Command-line frontend.

Subcommands: check, enumerate, leximin, taxonomy, cut-and-choose,
verify-paper, mine.  Reports are indented JSON; ``enumerate`` streams one
compact JSON line per allocation, and ``check`` and ``verify-paper`` take
--table for a plain text view instead.  Exit codes: 0 all requested checks
passed, 1 an axiom or gating claim failed, 2 input error, 3 enumeration
budget exceeded.  The commands that enumerate (check, enumerate, leximin,
cut-and-choose, mine) take --budget, the only source of a budget other than
the default; :func:`main` rejects a negative one as an input error before the
command runs.  The argument parser is built once per process and shared by
every :func:`main` call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from itertools import chain, islice, starmap
from operator import getitem, itemgetter

from . import axioms
from .axioms import NotWellDefinedError, Verdict, Witness, check_axiom
from .catalog import fixture, list_fixtures, verify_claims
from .core import (  # enumerate_allocations: no longer called here, but benchmark spans wrap it
    BudgetExceededError,
    Instance,
    enumerate_allocations,
    joined_by_mask,
    names_of,
)
from .efficiency import check_po, leximin_set, utilities, utility_vector
from .protocols import cut_and_choose
from .search import (
    GenParams,
    ITEM_CLASSES,
    held_walk,
    mine_seeds,
    parse_axioms,
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
_ROWS_PER_PRINT = 1024  # enumerate prints its rows as one string per run of this many


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _load_instance(args) -> Instance:
    return loads_instance(_read(args.instance))


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
    requested = parse_axioms(args.axioms.split(","))
    report: dict = {
        "allocation": allocation_to_document(inst, alloc)["bundles"],
        "utilities": [format_value(u) for u in utilities(inst, alloc)],
        "axioms": {},
    }
    all_ok = True
    for ax in requested:
        if ax == "po":
            po = check_po(inst, alloc, args.budget)
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
    requested = parse_axioms(args.axioms.split(","))
    # the empty combo holds everywhere, so the walk covers every allocation
    needs, walk = held_walk(inst, [(ax,) for ax in requested] + [()], args.budget)
    # Each row is printed as json.dumps would print it, from fragments encoded
    # once per scan: every bundle's name array, every utility, every axiom key.
    bundle = [f"[{names}]" for names in joined_by_mask(map(json.dumps, inst.item_names), ", ")]
    tables = [v.table for v in inst.valuations]
    utility = {u: json.dumps(format_value(u)) for u in set().union(*tables)}
    keys = [(json.dumps(ax) + ": ", need) for ax, need in zip(requested, needs)]
    flags: dict = {}  # the bits of an allocation's satisfied axioms -> its "axioms" object
    rows = enumerate(chain.from_iterable(starmap(zip, walk)))
    while True:
        lines = []
        for k, (alloc, held) in islice(rows, _ROWS_PER_PRINT):
            text = flags.get(held)
            if text is None:
                text = flags[held] = ", ".join(
                    key + ("true" if held & bit else "false") for key, bit in keys)
            bundles = ", ".join(itemgetter(*alloc)(bundle))  # a tuple: n >= 2 masks
            utils = ", ".join(map(utility.__getitem__, map(getitem, tables, alloc)))
            lines.append(f'{{"index": {k}, "bundles": [{bundles}], "utilities": [{utils}], '
                         f'"axioms": {{{text}}}}}')
        if not lines:
            return 0
        print("\n".join(lines))


def cmd_leximin(args) -> int:
    inst = _load_instance(args)
    allocations = leximin_set(inst, args.budget)
    doc = {
        "utilityVector": [format_value(u) for u in utility_vector(inst, allocations[0])],
        "count": len(allocations),
        "allocations": [allocation_to_document(inst, a)["bundles"] for a in allocations],
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
    alloc = cut_and_choose(inst, cutter=args.cutter - 1, budget=args.budget)
    verdict = check_axiom(inst, alloc, axioms.EFXPM)
    _emit({
        "bundles": allocation_to_document(inst, alloc)["bundles"],
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
    params = GenParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GenParams)})
    predicate = parse_predicate(args.predicate)
    hits, skipped, scanned = [], [], 0
    for seed, hit, reason in mine_seeds(params, predicate, args.count, budget=args.budget):
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fairkit`` argument parser, built at the first call and shared by
    every later one: callers must not mutate it.  The commands are bound as
    ``cmd_*`` functions, which look up the library functions they call (such
    as ``check_po``) at call time."""
    parser = argparse.ArgumentParser(
        prog="fairkit",
        description="Check fairness axioms, efficiency and protocols on fair-division instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, budget=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
        if budget:  # only for the commands that enumerate
            p.add_argument("--budget", type=int, default=None, help="enumeration budget")

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
    p.add_argument("--agents", "-n", type=int)
    p.add_argument("--items", "-m", type=int)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.add_argument("--identical", action="store_true")
    p.add_argument("--additive", action="store_true")
    p.add_argument("--nonzero-marginals", action="store_true")
    p.add_argument("--disjointly-normalised", action="store_true")
    p.add_argument("--item-class", choices=ITEM_CLASSES)
    p.add_argument("--seed", type=int)
    p.set_defaults(**dataclasses.asdict(GenParams()))
    p.add_argument("--count", type=int, default=100,
                   help="how many consecutive seeds to scan")
    p.set_defaults(func=cmd_mine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (getattr(args, "budget", None) or 0) < 0:  # before the command reads any file
            raise DocumentError(f"--budget must be >= 0, got {args.budget}")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DocumentError, NotWellDefinedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
