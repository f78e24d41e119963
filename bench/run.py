"""fairkit benchmark: end-to-end figures, or per-layer figures when traced.

    python3 bench/run.py --workload mine-3x6 --seed 1 --seconds 20 --trace 0

Run it from the root of a fairkit checkout.  One process runs one workload:
it sets up several times, runs whole rounds of timed operations until
``--seconds`` have passed, reads the peak RSS, and only then checks every
answer against independent computations.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the raw wall-clock figures, the reference loop's
spread and what the checks found.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import types
from dataclasses import dataclass
from pathlib import Path

from sampler import SpeedSampler, Stopwatch, clock_ns
from spans import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 11
SUBMODULES = ("core", "axioms", "taxonomy", "efficiency", "protocols", "catalog",
              "search", "serialize", "cli")


@dataclass
class Interval:
    """One timed stretch: a set-up repetition or one unit of operations."""

    watch: Stopwatch
    kind: str  # "setup" or "op"
    n_ops: int = 0
    unit: int = -1
    traced: bool = False
    ok: bool = True


def import_fairkit():
    """Import fairkit afresh, so every set-up repetition pays for the import."""
    for name in [n for n in sys.modules if n == "fairkit" or n.startswith("fairkit.")]:
        del sys.modules[name]
    importlib.import_module("fairkit")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"fairkit.{m}") for m in SUBMODULES})


def summarise(figures: dict) -> dict:
    """Lists of per-input figures become their mean, min and max."""
    out = {}
    for key, value in figures.items():
        if isinstance(value, dict):
            out[key] = summarise(value)
        elif isinstance(value, list):
            out[key] = {"mean": statistics.fmean(value), "min": min(value),
                        "max": max(value), "inputs": len(value)}
        else:
            out[key] = value
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"samples": len(values), "p50": statistics.median(values)}
    ordered = sorted(values)
    for pct in (99.9, 99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = ordered[int(len(values) * pct / 100)]
            break
    return out


class Bench:
    def __init__(self, name: str, workload, seed: int, seconds: int, traced: bool,
                 workdir: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sampler = SpeedSampler()
        self.tracer = Tracer(self.sampler) if traced else None
        self.workdir = workdir
        self.intervals: list = []
        self.attempted = self.failed = self.wrong = 0
        self.rounds = 0
        self.notes: list = []

    def _interval(self, kind: str, **kw) -> Interval:
        if self.tracer:
            self.tracer.current_interval = len(self.intervals)
        iv = Interval(Stopwatch(self.sampler), kind, **kw)
        self.intervals.append(iv)
        return iv

    def set_up(self) -> None:
        for _ in range(SETUP_REPS):
            iv = self._interval("setup", traced=self.tracer is not None)
            with iv.watch:
                self.fk = import_fairkit()
                if self.tracer:
                    self.tracer.install(self.fk)
                try:
                    self.workload.setup(self.fk, self.seed, str(self.workdir))
                finally:
                    if self.tracer:
                        self.tracer.uninstall()
            # Each re-import leaves the previous modules as cyclic garbage;
            # collect it now so the peak RSS does not depend on gc timing.
            gc.collect()

    def run_rounds(self) -> None:
        """Whole rounds until the time is up; a traced run alternates
        untraced and traced rounds and ends on a traced one."""
        units = self.workload.units
        self.answers = [None] * len(units)
        self.digests = [None] * len(units)
        self.repeats = [0] * len(units)
        deadline = clock_ns() + self.seconds * 10 ** 9
        while True:
            traced = self.tracer is not None and self.rounds % 2 == 1
            if traced:
                self.tracer.install(self.fk)
            try:
                for ui, unit in enumerate(units):
                    self._run_unit(ui, unit, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.rounds += 1
            if clock_ns() >= deadline and (self.tracer is None or self.rounds % 2 == 0):
                break

    def _run_unit(self, ui: int, unit, traced: bool) -> None:
        self.attempted += unit.n_ops
        iv = self._interval("op", n_ops=unit.n_ops, unit=ui, traced=traced)
        try:
            with iv.watch:
                result = unit.fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            iv.ok = False
            self.failed += unit.n_ops
            self._note(f"{unit.label}: {type(exc).__name__}: {exc}")
            return
        digest = self.workload.digest(result)
        if self.digests[ui] is None:
            self.digests[ui], self.answers[ui] = digest, result
        if digest == self.digests[ui]:
            self.repeats[ui] += 1
        else:
            self.failed += unit.n_ops
            self.wrong += unit.n_ops
            self._note(f"{unit.label}: answer differs from the first round's")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def check(self) -> None:
        for ui, unit in enumerate(self.workload.units):
            if self.answers[ui] is None:
                continue
            try:
                v = self.workload.check(ui, self.answers[ui])
            except Exception as exc:  # a malformed answer is a wrong answer
                wrong, failed = unit.n_ops, 0
                notes = [f"{unit.label}: check raised {type(exc).__name__}: {exc}"]
            else:
                wrong = min(unit.n_ops, len(v.wrong))
                failed = min(unit.n_ops - wrong, len(v.failed - v.wrong))
                notes = v.notes
            self.wrong += wrong * self.repeats[ui]
            self.failed += (wrong + failed) * self.repeats[ui]
            for note in notes:
                self._note(note)

    def _ops(self, traced=None) -> list:
        return [(iv, f) for iv, f in zip(self.intervals, self.factors)
                if iv.kind == "op" and iv.ok and (traced is None or iv.traced == traced)]

    def end_to_end(self, rss_mb: float) -> tuple:
        ops = self._ops()
        if not ops:
            raise SystemExit("error: no operation succeeded, nothing to report")
        n_ops = sum(iv.n_ops for iv, _ in ops)
        setups = [(iv, f) for iv, f in zip(self.intervals, self.factors) if iv.kind == "setup"]

        def figures(scale) -> dict:
            per_op_ms = [iv.watch.net_ns * scale(f) / iv.n_ops / 1e6 for iv, f in ops]
            total_s = sum(iv.watch.net_ns * scale(f) for iv, f in ops) / 1e9
            return {
                "ops_per_s": n_ops / total_s,
                "op_ms": tail(per_op_ms),
                "setup_s": statistics.median(iv.watch.net_ns * scale(f) / 1e9
                                             for iv, f in setups),
            }

        norm = figures(lambda f: f)
        raw = figures(lambda f: 1.0)
        by_kind: dict = {}
        units = self.workload.units
        for iv, f in ops:
            by_kind.setdefault(units[iv.unit].label.split()[0], []).append(
                iv.watch.net_ns * f / iv.n_ops / 1e6)
        norm["op_ms_by_kind"] = {k: statistics.median(v) for k, v in by_kind.items()}
        metrics = {
            "ops_per_s": (norm["ops_per_s"], "op/s"),
            "op_p50_ms": (norm["op_ms"]["p50"], "ms"),
            "setup_s": (norm["setup_s"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return metrics, {"normalised": norm, "raw": raw}

    def per_layer(self) -> tuple:
        is_op = [iv.kind == "op" for iv in self.intervals]
        agg = self.tracer.aggregate(self.factors, is_op)
        traced, untraced = self._ops(True), self._ops(False)
        metrics = layer_metrics(agg, sum(iv.n_ops for iv, _ in traced))

        def per_op_ns(ops):
            return (sum(iv.watch.net_ns * f for iv, f in ops)
                    / sum(iv.n_ops for iv, _ in ops))

        overhead = per_op_ns(traced) / per_op_ns(untraced)
        stdout = getattr(self.workload, "stdout_bytes", None)
        metrics["cli.stdout_bytes"] = (stdout(self.answers) if stdout else 0, "B")
        metrics["trace.overhead"] = (overhead, "ratio")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.name}-seed{self.seed}.csv"
        self.tracer.write_csv(path)
        return metrics, {"trace_file": str(path.relative_to(ROOT)),
                         "spans": len(self.tracer.start), "tracing_overhead": overhead,
                         "wrapper_ns_outside_span": self.tracer.outside_ns}

    def run(self) -> dict:
        self.sampler.start()
        try:
            if self.tracer:
                self.tracer.calibrate()
            self.set_up()
            self.run_rounds()
            rss_mb = peak_rss_mb()
        finally:
            self.sampler.stop()
        self.factors = [self.sampler.factor(iv.watch.start, iv.watch.end)
                        for iv in self.intervals]
        self.check()
        if self.tracer:
            metrics, detail = self.per_layer()
        else:
            metrics, detail = self.end_to_end(rss_mb)
        detail.update({
            "workload": self.name,
            "seed": self.seed,
            "rounds": self.rounds,
            "reference_loop": self.sampler.spread(),
            "figures": summarise(self.workload.figures),
            "notes": self.notes,
        })
        print(json.dumps(detail, default=str))
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    if not ((ROOT / "src" / "fairkit" / "__init__.py").is_file()
            and (ROOT / "tests" / "reference.py").is_file()):
        print(f"error: {ROOT} is not a fairkit checkout (src/fairkit and "
              "tests/reference.py are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, WORKLOADS[args.workload](), args.seed, args.seconds,
                      bool(args.trace), workdir)
        result = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
