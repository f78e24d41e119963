"""The benchmark's workloads.

Each workload builds its inputs from the seed with fairkit's own generator,
offers one round of timed units (a unit is one call into fairkit covering
one or more operations), and checks the first round's answers against
independent computations after timing has ended.  Later rounds must repeat
the first round's answers exactly.

Every call into fairkit goes through a module attribute looked up at call
time (``S.mine``, not a bound reference), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as R
from checks import Oracle, fmt

PREDICATE = "efxpm&po=0"
GGB = "generallyGoodBad"


@dataclass
class Unit:
    label: str
    n_ops: int
    fn: Callable


@dataclass
class Verdict:
    """Outcome of checking one unit's answer."""

    wrong: set = field(default_factory=set)  # operations answered wrongly
    failed: set = field(default_factory=set)  # operations that gave no answer
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, note: str, op: int = 0) -> None:
        if not ok:
            self.wrong.add(op)
            self.notes.append(note)

    def fail(self, note: str, op: int = 0) -> None:
        self.failed.add(op)
        self.notes.append(note)


class MineWorkload:
    """``mine`` with ``efxpm&po=0`` over consecutive generallyGoodBad seeds."""

    def __init__(self, agents: int, items: int, seeds: int, block: int):
        self.agents, self.items, self.seeds, self.block = agents, items, seeds, block
        self.figures: dict = {}

    def params(self, seed: int):
        return self.fk.search.GenParams(agents=self.agents, items=self.items,
                                        item_class=GGB, seed=seed)

    def setup(self, fk, seed: int, workdir: str) -> None:
        self.fk = fk
        S = fk.search
        pred = S.parse_predicate(PREDICATE)
        self.starts = range(seed * 1000, seed * 1000 + self.seeds, self.block)
        self.units = [
            Unit(f"mine seeds {s}..{s + self.block - 1}", self.block,
                 lambda p=self.params(s): S.mine(p, pred, self.block))
            for s in self.starts
        ]
        S.mine(self.params(seed * 1000), pred, 1)

    @staticmethod
    def digest(hits):
        return tuple((h.seed, h.rows) for h in hits)

    def check(self, ui: int, hits) -> Verdict:
        S, ser = self.fk.search, self.fk.serialize
        v = Verdict()
        by_seed = {h.seed: h for h in hits}
        fronts = profiles = 0
        for seed in range(self.starts[ui], self.starts[ui] + self.block):
            try:
                inst = S.generate(self.params(seed))
            except S.RejectionBudgetError:
                v.fail(f"seed {seed}: generate rejected it, so mine skipped it", seed)
                by_seed.pop(seed, None)
                continue
            oracle = Oracle(inst)
            fronts += len(oracle.front)
            profiles += len(set(oracle.profiles))
            v.expect(oracle.generally_good_bad(), f"seed {seed}: not generally good/bad", seed)
            want_hit = oracle.efxpm_po_count() == 0
            hit = by_seed.pop(seed, None)
            v.expect((hit is not None) == want_hit,
                     f"seed {seed}: mine says hit={hit is not None}, reference says {want_hit}",
                     seed)
            if hit is not None:
                counts = {r.combo: r.count for r in hit.rows}
                v.expect(counts.get(("efxpm", "po")) == 0, f"seed {seed}: hit row count", seed)
                v.expect(ser.dumps_instance(hit.instance) == ser.dumps_instance(inst),
                         f"seed {seed}: hit instance differs from a re-generated one", seed)
        v.expect(not by_seed, f"hits for seeds outside the block: {sorted(by_seed)}")
        checked = self.block - len(v.failed)
        if checked:
            self.figures.setdefault("pareto_front_per_instance", []).append(fronts / checked)
            self.figures.setdefault("distinct_profiles_per_instance", []).append(profiles / checked)
        self.figures["allocations_per_op"] = self.agents ** self.items
        return v


class LandscapeWorkload:
    """Default 13-combo ``landscape`` on fixed seeded any-class instances."""

    def __init__(self, agents: int, items: int, count: int):
        self.agents, self.items, self.count = agents, items, count
        self.figures: dict = {}

    def setup(self, fk, seed: int, workdir: str) -> None:
        self.fk = fk
        S = fk.search
        self.params = [S.GenParams(agents=self.agents, items=self.items, seed=seed * 1000 + k)
                       for k in range(self.count)]
        self.instances = [S.generate(p) for p in self.params]
        self.units = [Unit(f"landscape seed {p.seed}", 1, lambda inst=inst: S.landscape(inst))
                      for p, inst in zip(self.params, self.instances)]
        S.landscape(S.generate(S.GenParams(agents=2, items=8, seed=seed * 1000)))

    @staticmethod
    def digest(rows):
        return tuple(rows)

    def check(self, ui: int, rows) -> Verdict:
        S, ser = self.fk.search, self.fk.serialize
        inst = self.instances[ui]
        v = Verdict()
        v.expect(ser.dumps_instance(S.generate(self.params[ui])) == ser.dumps_instance(inst),
                 "re-generated instance is not byte-equal")
        combos = [r.combo for r in rows]
        v.expect(combos == list(S.DEFAULT_COMBOS), f"rows cover {combos}")
        oracle = Oracle(inst)
        want = oracle.counts(combos)
        got = {r.combo: r.count for r in rows}
        for combo in combos:
            v.expect(got[combo] == want[combo],
                     f"{'&'.join(combo)}: count {got[combo]}, reference {want[combo]}")
        singles = [c for c in combos if len(c) == 1 and c != ("po",)]
        for c in singles:
            v.expect(got[("ef",)] <= got[c], f"ef count exceeds {c[0]} count")
        for c in combos:
            for ax in c:
                if (ax,) in got:
                    v.expect(got[c] <= got[(ax,)], f"{'&'.join(c)} count exceeds {ax} count")
        v.expect(got.get(("po",), 0) >= 1, "no Pareto-optimal allocation")
        for r in rows:
            if r.example is None:
                v.expect(r.count == 0, f"{'&'.join(r.combo)}: count without an example")
            else:
                v.expect(oracle.satisfies(R.to_sets(r.example), r.combo),
                         f"{'&'.join(r.combo)}: example {r.example} does not satisfy it")
        self.figures.setdefault("pareto_front_per_instance", []).append(len(oracle.front))
        self.figures.setdefault("distinct_profiles_per_instance", []).append(
            len(set(oracle.profiles)))
        self.figures["allocations_per_op"] = self.agents ** self.items
        return v


class CliInputs:
    """One set of CLI input files, all drawn from one seed."""

    def __init__(self, fk, base: int, workdir: str):
        S, ser = fk.search, fk.serialize
        self.base = base
        self.params = {
            "any36": S.GenParams(agents=3, items=6, seed=base),
            "ggb36": S.GenParams(agents=3, items=6, item_class=GGB, seed=base + 1),
            "any210": S.GenParams(agents=2, items=10, seed=base + 2),
        }
        self.instances = {k: S.generate(p) for k, p in self.params.items()}
        self.files = {key: self._write(workdir, f"{base}-{key}.json", ser.dumps_instance(inst))
                      for key, inst in self.instances.items()}
        k = random.Random(base).randrange(3 ** 6)
        masks = [0, 0, 0]
        for o in range(6):
            masks[k // 3 ** o % 3] |= 1 << o
        self.alloc36 = tuple(masks)
        self.files["alloc36"] = self._write(
            workdir, f"{base}-alloc36.json",
            ser.dumps_allocation(self.instances["any36"], self.alloc36))
        self.export_dir = os.path.join(workdir, f"{base}-export")
        self.oracles: dict = {}

    @staticmethod
    def _write(workdir: str, name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return path

    def commands(self) -> tuple:
        f = self.files
        return (
            ("check", ["check", f["any36"], f["alloc36"], "--axioms", "po"]),
            ("enumerate-po", ["enumerate", f["any36"], "--axioms", "po"]),
            ("enumerate-chen-liu", ["enumerate", f["ggb36"], "--axioms", "chen-liu"]),
            ("leximin", ["leximin", f["any210"]]),
            ("taxonomy", ["taxonomy", f["any210"]]),
            ("cut-and-choose", ["cut-and-choose", f["any210"]]),
            ("verify-paper", ["verify-paper", "--export-instances", self.export_dir]),
        )

    def oracle(self, key: str) -> Oracle:
        if key not in self.oracles:
            self.oracles[key] = Oracle(self.instances[key])
        return self.oracles[key]


class CliWorkload:
    """In-process ``fairkit.cli.main`` over JSON files written in set-up.

    A round runs the seven commands on each of ``sets`` input sets, so that
    one instance's cost does not set the whole run's figure.
    """

    def __init__(self, sets: int):
        self.sets = sets
        self.figures: dict = {}

    def setup(self, fk, seed: int, workdir: str) -> None:
        self.fk = fk
        self.inputs = [CliInputs(fk, seed * 1000 + 10 * j, workdir) for j in range(self.sets)]
        self.commands = [(label, inputs, argv) for inputs in self.inputs
                         for label, argv in inputs.commands()]
        self.units = [Unit(f"{label} on seed {inputs.base}", 1, lambda argv=argv: self.run(argv))
                      for label, inputs, argv in self.commands]
        self.run(["taxonomy", self.inputs[0].files["any210"]])
        self.run(["verify-paper", "--fixture", "FIX-EX1"])

    def run(self, argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.fk.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def digest(result):
        rc, out, err = result
        return rc, hashlib.sha256(out.encode()).hexdigest(), err

    def stdout_bytes(self, results) -> float:
        return sum(len(out.encode()) for _, out, _ in results) / len(results)

    def check(self, ui: int, result) -> Verdict:
        label, inputs, _ = self.commands[ui]
        rc, out, err = result
        v = Verdict()
        v.expect(not err, f"{label}: stderr {err.strip()[:200]!r}")
        getattr(self, "_check_" + label.replace("-", "_"))(v, inputs, rc, out)
        S, ser = self.fk.search, self.fk.serialize
        for key, params in inputs.params.items():
            with open(inputs.files[key], encoding="utf-8") as fh:
                v.expect(fh.read() == ser.dumps_instance(S.generate(params)) + "\n",
                         f"{key}: re-generated instance is not byte-equal")
        self.figures.setdefault("stdout_bytes", {}).setdefault(label, []).append(
            len(out.encode()))
        return v

    def _check_check(self, v, inputs, rc, out):
        o = inputs.oracle("any36")
        sets = R.to_sets(inputs.alloc36)
        doc = json.loads(out)
        want = o.is_po(sets)
        po = doc["axioms"]["po"]
        v.expect(po["satisfied"] == want and rc == (0 if want else 1),
                 f"check: po={po['satisfied']} rc={rc}, reference po={want}")
        v.expect(doc["utilities"] == [fmt(x) for x in o.profile(sets)], "check: utilities")
        if not want:
            better = o.profile(o.sets_from_names(po["improver"]))
            base = o.profile(sets)
            v.expect(all(b >= a for a, b in zip(base, better)) and better != base,
                     "check: the improver does not Pareto-improve")

    @staticmethod
    def _enumerated(v, label, o, rc, out):
        rows = [json.loads(line) for line in out.splitlines()]
        sets = [o.sets_from_names(r["bundles"]) for r in rows]
        v.expect(rc == 0, f"{label}: rc={rc}")
        v.expect(len(sets) == len(o.allocs) and set(sets) == set(o.allocs),
                 f"{label}: rows do not list every allocation once")
        return rows, sets

    def _check_enumerate_po(self, v, inputs, rc, out):
        o = inputs.oracle("any36")
        rows, sets = self._enumerated(v, "enumerate-po", o, rc, out)
        bad = sum(r["axioms"]["po"] != o.is_po(s) for r, s in zip(rows, sets))
        v.expect(bad == 0, f"enumerate-po: {bad} po flags disagree with the reference")
        self.figures.setdefault("enumerate_po_front", []).append(len(o.front))

    def _check_enumerate_chen_liu(self, v, inputs, rc, out):
        o = inputs.oracle("ggb36")
        rows, sets = self._enumerated(v, "enumerate-chen-liu", o, rc, out)
        bad = sum(r["axioms"]["chen-liu"] != R.ref_chen_liu(o.vm, s, o.m)
                  for r, s in zip(rows, sets))
        v.expect(bad == 0, f"enumerate-chen-liu: {bad} flags disagree with ref_chen_liu")

    def _check_leximin(self, v, inputs, rc, out):
        o = inputs.oracle("any210")
        doc = json.loads(out)
        best, arg = R.ref_leximin(o.vm, o.n, o.m)
        got = {o.sets_from_names(a) for a in doc["allocations"]}
        v.expect(rc == 0 and doc["utilityVector"] == [fmt(x) for x in best],
                 f"leximin: vector {doc['utilityVector']}, reference {[fmt(x) for x in best]}")
        v.expect(doc["count"] == len(arg) and got == arg, "leximin: tie-set differs")

    def _check_taxonomy(self, v, inputs, rc, out):
        o = inputs.oracle("any210")
        doc = json.loads(out)
        v.expect(rc == 0, f"taxonomy: rc={rc}")
        ggb, mixed_any = True, False
        for idx, item in enumerate(doc["items"]):
            mixed = R.ref_mixed(o.vm, idx, o.m)
            mixed_any |= mixed
            v.expect(item["name"] == o.names[idx] and item["mixed"] == mixed,
                     f"taxonomy: item {idx} mixed flag")
            for a, flags in enumerate(item["agents"]):
                good = R.ref_generally_good(o.vm[a], idx, o.m)
                bad = R.ref_generally_bad(o.vm[a], idx, o.m)
                ggb &= good or bad
                v.expect(flags == {"generallyGood": good, "generallyBad": bad},
                         f"taxonomy: agent {a} item {idx} flags")
        v.expect(doc["generallyGoodBadItems"] == ggb and doc["noMixedItems"] == (not mixed_any),
                 "taxonomy: problem flags")

    def _check_cut_and_choose(self, v, inputs, rc, out):
        o = inputs.oracle("any210")
        doc = json.loads(out)
        cut, chosen = o.sets_from_names(doc["bundles"])
        v.expect(rc == 0 and not cut & chosen and len(cut | chosen) == o.m,
                 "cut-and-choose: bundles do not partition the items")
        v.expect(o.vm[1][chosen] >= o.vm[1][cut], "cut-and-choose: the chooser envies the cutter")
        v.expect(doc["efxpm"]["satisfied"] == R.ref_efxpm(o.vm, (cut, chosen)),
                 "cut-and-choose: efxpm verdict disagrees with the reference")

    def _check_verify_paper(self, v, inputs, rc, out):
        doc = json.loads(out)
        v.expect(rc == 0 and doc["gatingFailures"] == 0,
                 f"verify-paper: rc={rc}, gating failures {doc['gatingFailures']}")
        fixtures = {r["fixture"] for r in doc["rows"]} - {"CATALOG"}
        v.expect(set(os.listdir(inputs.export_dir)) == {f"{fid}.json" for fid in fixtures},
                 "verify-paper: exported files do not match the fixtures")


WORKLOADS = {
    "mine-2x4": lambda: MineWorkload(2, 4, seeds=1000, block=40),
    "mine-3x6": lambda: MineWorkload(3, 6, seeds=300, block=1),
    "landscape-2x14": lambda: LandscapeWorkload(2, 14, count=6),
    "cli-session": lambda: CliWorkload(sets=9),
}
