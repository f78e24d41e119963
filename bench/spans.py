"""Spans around fairkit's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces a public function in the module namespace its
caller looks it up in (``fairkit.search.satisfies`` for the call inside
``landscape``, ``fairkit.cli.check_axiom`` for the CLI) with a wrapper that
records one span per call: name, start, end, parent and the sampler time that
fell inside it.  ``uninstall`` puts the originals back, so untraced rounds run
the unmodified program.  Spans live in flat arrays until the run ends.

A span's busy time is its duration minus the sampler's handler time inside
it.  Its self time is its busy time minus its children's busy time and minus
the wrapper work each child call costs outside its own span, which
``calibrate`` measures once per run.  The allocation generator is wrapped so
that only the time spent producing allocations counts: its consumers run
between the yields.
"""

from __future__ import annotations

import statistics
from array import array

from sampler import clock_ns

CALL, AXIOM, GEN = "call", "axiom", "gen"

# (fairkit submodule, attribute, span name, kind)
WRAPS = (
    ("search", "mine", "search.mine", CALL),
    ("search", "generate", "search.generate", CALL),
    ("search", "Instance", "core.Instance", CALL),
    ("search", "landscape", "search.landscape", CALL),
    ("search", "satisfies", "axioms.satisfies", AXIOM),
    ("search", "classify", "taxonomy.classify", CALL),
    ("search", "enumerate_allocations", "core.enumerate_allocations", GEN),
    ("axioms", "classify", "taxonomy.classify", CALL),
    ("efficiency", "enumerate_allocations", "core.enumerate_allocations", GEN),
    ("protocols", "leximin_set", "efficiency.leximin_set", CALL),
    ("serialize", "instance_to_document", "serialize.instance_to_document", CALL),
    ("cli", "main", "cli.main", CALL),
    ("cli", "check_axiom", "axioms.check_axiom", AXIOM),
    ("cli", "check_po", "efficiency.check_po", CALL),
    ("cli", "leximin_set", "efficiency.leximin_set", CALL),
    ("cli", "cut_and_choose", "protocols.cut_and_choose", CALL),
    ("cli", "verify_claims", "catalog.verify_claims", CALL),
    ("cli", "classify", "taxonomy.classify", CALL),
    ("cli", "loads_instance", "serialize.loads_instance", CALL),
    ("cli", "dumps_instance", "serialize.dumps_instance", CALL),
    ("cli", "enumerate_allocations", "core.enumerate_allocations", GEN),
)


class Tracer:
    def __init__(self, sampler):
        self.sampler = sampler
        self.names: list = []
        self._ids: dict = {}
        self.name = array("l")
        self.parent = array("l")
        self.interval = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stolen = array("q")
        self.gen_busy: dict = {}  # span -> ns spent inside the generator
        self.gen_items: dict = {}  # span -> allocations yielded
        self.stack: list = []
        self.current_interval = -1
        self._saved: list = []
        self.outside_ns = 0.0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, push: bool) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.interval.append(self.current_interval)
        self.stolen.append(self.sampler.stolen_ns)
        self.end.append(0)
        if push:
            self.stack.append(idx)
        self.start.append(clock_ns())
        return idx

    def _close(self, idx: int, pop: bool) -> None:
        self.end[idx] = clock_ns()
        self.stolen[idx] = self.sampler.stolen_ns - self.stolen[idx]
        if pop:
            self.stack.pop()

    def _wrap_call(self, fn, name):
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid, True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, True)
        return wrapper

    def _wrap_axiom(self, fn, name):
        ids: dict = {}

        def wrapper(inst, alloc, axiom):
            nid = ids.get(axiom)
            if nid is None:
                nid = ids[axiom] = self._name_id(f"{name}|{axiom}")
            idx = self._open(nid, True)
            try:
                return fn(inst, alloc, axiom)
            finally:
                self._close(idx, True)
        return wrapper

    def _wrap_gen(self, fn, name):
        nid = self._name_id(name)
        sampler = self.sampler

        def wrapper(*args, **kwargs):
            idx = self._open(nid, False)
            busy = items = 0
            try:
                it = fn(*args, **kwargs)
                while True:
                    s0 = sampler.stolen_ns
                    t0 = clock_ns()
                    try:
                        alloc = next(it)
                    except StopIteration:
                        return
                    finally:
                        busy += clock_ns() - t0 - (sampler.stolen_ns - s0)
                    items += 1
                    yield alloc
            finally:
                self._close(idx, False)
                self.gen_busy[idx] = busy
                self.gen_items[idx] = items
        return wrapper

    def install(self, fk) -> None:
        wrap = {CALL: self._wrap_call, AXIOM: self._wrap_axiom, GEN: self._wrap_gen}
        for module_name, attr, name, kind in WRAPS:
            module = getattr(fk, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap[kind](original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def calibrate(self, calls: int = 2000, batches: int = 5) -> float:
        """Wrapper cost per call that falls outside the span it records."""
        probe = Tracer(self.sampler)
        noop = probe._wrap_call(lambda: None, "noop")
        estimates = []
        for _ in range(batches):
            first = len(probe.start)
            stolen0 = self.sampler.stolen_ns
            t0 = clock_ns()
            for _ in range(calls):
                noop()
            total = clock_ns() - t0 - (self.sampler.stolen_ns - stolen0)
            inside = sum(probe.busy_ns(i) for i in range(first, len(probe.start)))
            estimates.append((total - inside) / calls)
        self.outside_ns = statistics.median(estimates)
        return self.outside_ns

    # -- results -----------------------------------------------------------

    def busy_ns(self, idx: int) -> int:
        if idx in self.gen_busy:
            return self.gen_busy[idx]
        return self.end[idx] - self.start[idx] - self.stolen[idx]

    def aggregate(self, factors: list, is_op: list) -> dict:
        """Per span name and phase ("op" or "setup"): calls, busy and self
        time (normalised ns) and allocations yielded."""
        count = len(self.start)
        busy = [self.busy_ns(i) for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                children[p] += busy[i] + (0 if i in self.gen_busy else self.outside_ns)
        agg: dict = {}
        for i in range(count):
            iv = self.interval[i]
            key = (self.names[self.name[i]], "op" if is_op[iv] else "setup")
            a = agg.get(key)
            if a is None:
                a = agg[key] = {"calls": 0, "busy": 0.0, "self": 0.0, "items": 0}
            a["calls"] += 1
            a["busy"] += busy[i] * factors[iv]
            a["self"] += (busy[i] - children[i]) * factors[iv]
            a["items"] += self.gen_items.get(i, 0)
        return agg

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,interval,start_ns,end_ns,busy_ns,items\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.interval[i]},"
                         f"{self.start[i]},{self.end[i]},{self.busy_ns(i)},"
                         f"{self.gen_items.get(i, '')}\n")


AXES = ("ef", "ef1", "efx", "ef1pm", "efxpm", "efx0", "efxpm0", "chen-liu")


def layer_metrics(agg: dict, traced_ops: int) -> dict:
    """The per-layer figures named in BENCHMARK.json, from aggregated spans.

    Counts are per timed operation.  Times per call come from the spans
    inside timed operations; a layer that only set-up reaches (``generate``
    on landscape-2x14 and cli-session) is timed over set-up instead.  A layer
    the workload never reaches reads 0.
    """
    def stats(*names, phase=None):
        out = {"calls": 0, "busy": 0.0, "self": 0.0, "items": 0}
        for ph in ((phase,) if phase else ("op", "setup")):
            for name in names:
                for k, v in agg.get((name, ph), {}).items():
                    out[k] += v
            if out["calls"]:
                break
        return out

    def per(num, den, scale=1.0):
        return num / den / scale if den else 0.0

    names = {n for n, _ in agg}
    satisfies = [n for n in names if n.startswith("axioms.satisfies|")]
    check_axiom = [n for n in names if n.startswith("axioms.check_axiom|")]
    out = {}
    for ax in AXES:
        a = stats(f"axioms.satisfies|{ax}", f"axioms.check_axiom|{ax}")
        out[f"axioms.{ax}.us_per_alloc"] = (per(a["busy"], a["calls"], 1e3), "us")
    out["axioms.satisfies.calls"] = (per(stats(*satisfies, phase="op")["calls"], traced_ops),
                                     "count")
    a = stats(*check_axiom)
    out["axioms.check_axiom.us_per_call"] = (per(a["busy"], a["calls"], 1e3), "us")
    a = stats("search.landscape")
    out["search.landscape.ms_per_call"] = (per(a["busy"], a["calls"], 1e6), "ms")
    out["search.landscape.self_ms_per_call"] = (per(a["self"], a["calls"], 1e6), "ms")
    out["core.enumerate_allocations.allocations"] = (
        per(stats("core.enumerate_allocations", phase="op")["items"], traced_ops), "count")
    a = stats("core.enumerate_allocations")
    out["core.enumerate_allocations.ns_per_alloc"] = (per(a["busy"], a["items"]), "ns")
    a = stats("search.generate")
    out["search.generate.us_per_call"] = (per(a["busy"], a["calls"], 1e3), "us")
    phase = "op" if agg.get(("search.generate", "op")) else "setup"
    out["search.generate.attempts_per_instance"] = (
        per(stats("core.Instance", phase=phase)["calls"], a["calls"]), "ratio")
    out["taxonomy.classify.calls"] = (
        per(stats("taxonomy.classify", phase="op")["calls"], traced_ops), "count")
    a = stats("taxonomy.classify")
    out["taxonomy.classify.us_per_call"] = (per(a["busy"], a["calls"], 1e3), "us")
    for name in ("efficiency.check_po", "efficiency.leximin_set",
                 "protocols.cut_and_choose", "catalog.verify_claims"):
        a = stats(name)
        out[f"{name}.ms_per_call"] = (per(a["busy"], a["calls"], 1e6), "ms")
    for name in ("serialize.loads_instance", "serialize.instance_to_document"):
        a = stats(name)
        out[f"{name}.us_per_call"] = (per(a["busy"], a["calls"], 1e3), "us")
    a = stats("cli.main")
    out["cli.main.self_ms_per_call"] = (per(a["self"], a["calls"], 1e6), "ms")
    return out
