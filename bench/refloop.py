"""Frozen reference loop used to normalise timings to the host's speed.

The host's speed drifts by tens of percent between processes and over
seconds.  The benchmark runs this loop beside every timed interval and scales
the interval by ``NOMINAL_NS / (loop time measured nearby)``, so figures are
expressed in "nominal-host" time.

The loop has two halves that mimic fairkit's two kinds of work: bit tricks
and table lookups over a subset lattice (the axiom clause loops), and tuple
building, generators and small calls (enumeration and the Pareto passes).
Each half alone left 3-4% spread between processes timing the same work;
their sum left about 2% (eight processes each, on mine-3x6 and cli-session).

Do not edit this file: changing the loop or ``NOMINAL_NS`` changes the unit
every normalised figure is expressed in, and makes results from before and
after the edit incomparable.  It imports nothing from fairkit, so no change
to the program under test can move it.
"""

_TABLE = tuple((k * 2654435761) % 1009 - 504 for k in range(256))


class _Valuation:
    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table


_VALUATIONS = (
    _Valuation(tuple((k * 2654435761) % 1009 - 504 for k in range(64))),
    _Valuation(tuple((k * 40503) % 1013 - 506 for k in range(64))),
)

# The frozen unit.  On a 2-core VM with Python 3.11 the loop's median moved
# between 400 and 800 µs as the host's speed drifted.
NOMINAL_NS = 500_000


def _lattice() -> int:
    t = _TABLE
    acc = 0
    for _ in range(2):
        for b in range(1, 256):
            vb = t[b]
            s = b
            while s:
                bit = s & -s
                s ^= bit
                if t[b ^ bit] < vb:
                    acc += 1
    return acc


def _splits():
    for k in range(64):
        yield (k, 63 ^ k)


def _dominates(o, p) -> bool:
    return all(a >= b for a, b in zip(o, p)) and o != p


def _pareto() -> int:
    profiles = [tuple(v.table[b] for v, b in zip(_VALUATIONS, a)) for a in _splits()]
    return sum(1 for p in profiles[:24] if not any(_dominates(o, p) for o in profiles))


def ref_loop() -> int:
    return _lattice() + _pareto()
