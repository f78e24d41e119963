"""The golden outputs of the fairkit command line: one row per command.

Each row of ``GOLDENS`` is ``(name, command, code, sha256)``.  The command's
words run with ``{d}`` standing for a work directory that holds ``FILES``.
The row expects exit ``code``, keeps stdout as ``{d}/name`` and compares its
sha256 with the row's value; a row with ``None`` only builds an input.  Three
``@`` commands are run here rather than by fairkit: ``@hit`` prints a ``mine``
output's first hit instance, ``@halve`` an instance with every value halved,
and ``@landscape`` an instance's ``landscape`` rows as JSON, over the
``;``-separated combos of its second word if there is one.

A change that alters printed output on purpose edits the row's hash and says
why.  ``test_cli.test_golden_outputs`` runs the rows through ``cli.main``;
``python tests/goldens.py`` runs them through the installed console script.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from fairkit import landscape, loads_instance

FILES = {
    "alloc.json": {"bundles": [["a", "b", "c"], ["d"]]},
    "ex1-alloc.json": {"bundles": [["b", "r"], []]},
    # on the 2x10 hit: allocation 161 (block 0) has its first improver, 985, in
    # block 3; 985 is Pareto-optimal (full scan)
    "alloc-161.json": {"bundles": [["b", "c", "d", "e", "g", "i", "j"], ["a", "f", "h"]]},
    "alloc-985.json": {"bundles": [["b", "c", "f"], ["a", "d", "e", "g", "h", "i", "j"]]},
}

TEN = "ef,ef1,efx,ef1pm,efxpm,efx0,efxpm0,variant-a,variant-b,chen-liu"
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no output

GOLDENS = (
    ("verify-paper.txt", "verify-paper --table", 0,
     "ba2ca15995d020a3c468325896221f9de533199b55ae0c44247ea72215c4bbe1"),
    ("export.json", "verify-paper --export-instances {d}", 0,
     "5def186a533c45393dd06f2e455a882d4efb2263cca51948df878d03468ba411"),
    ("export-into-a-file.json", "verify-paper --export-instances {d}/FIX-T1.json", 2, EMPTY),
    ("enumerate-t1.jsonl", "enumerate {d}/FIX-T1.json --axioms ef,efxpm,po", 0,
     "69a9d325953e96bbb30a05c4e6317721780acbe9ec89cde2090b458e5b4ded56"),
    ("enumerate-t1-po.jsonl", "enumerate {d}/FIX-T1.json --axioms po", 0,
     "3e8334de3da2eb9c307a45c62575f7c9e8fbe4a329c72692cca2e228b7af0eb4"),
    ("check-t2-efx.txt", "check {d}/FIX-T2.json {d}/alloc.json --axioms efx,EFX --table", 0,
     "7c319d455a79e3d4c135a6c4dd2e87ea9da254fc5603abc29ff43d9607e30c94"),
    ("check-t2-ten.txt", "check {d}/FIX-T2.json {d}/alloc.json --table --axioms " + TEN, 1,
     "b63edabce9b2d9ba537403542a96427513e4ef6a110a9b7155136f29ee6c3341"),
    ("check-t2.json", "check {d}/FIX-T2.json {d}/alloc.json --axioms efxpm,ef1,efx", 1,
     "25cb58461f1bc5a09329cd4026db4d6001f735b9039d545b55af863ed6acecd7"),
    ("check-ex1.json", "check {d}/FIX-EX1.json {d}/ex1-alloc.json --axioms efxpm", 0,
     "a9a2fb09bf63e8ed25603b622dbc1d585fa7aa7ddfc61e39004cf4a83f7739e5"),
    ("leximin-negative-budget.json", "leximin {d}/FIX-T1.json --budget -1", 2, EMPTY),
    ("mine-negative-target.json", "mine --predicate efx>=-1 -n 2 -m 2 --count 1", 2, EMPTY),
    ("mine-2x3.json", "mine --predicate efx>=0 -n 2 -m 3 --count 2", 0,
     "aa7fb76a8d6d4aacc76b8d01dac1881d31b44db773d0e40c54ddaa03288d5135"),
    ("mine-2x6-nonzero.json", "mine --predicate efx>=0 -n 2 -m 6 --nonzero-marginals --count 3",
     0, "6d9b71e65a87f307e42e24379c08fc5bc1f180c0b7fda727c95c8af5d6885a55"),
    ("mine-3x4-ggb.json",
     "mine --predicate efxpm&po=0 -n 3 -m 4 --item-class generallyGoodBad --count 40", 0,
     "d51d31a7860d990334468c19f883434ae13a3bd63728103cb39014793ce0f37d"),
    # predicate axiom names are case-insensitive: both print the same
    ("mine-upper.json", "mine --predicate EFXPM&PO=0 -n 2 -m 3 --count 20", 0,
     "ce1a9e083def37e2bdefbbdfed80b0a5819d6c0f2239d9f9aa72fe9e95ede835"),
    ("mine-lower.json", "mine --predicate efxpm&po=0 -n 2 -m 3 --count 20", 0,
     "ce1a9e083def37e2bdefbbdfed80b0a5819d6c0f2239d9f9aa72fe9e95ede835"),
    # a single-block shape (2x4) and a four-block one (2x10), each with hits
    ("mine-2x4.json", "mine --predicate efxpm&po=0 -n 2 -m 4 --seed 1050 --count 20", 0,
     "994e023380d17bb7b61e84081218fe59ca8237dee2f34addbb6cbaa8e8444a8f"),
    ("mine-2x10.json", "mine --predicate ef&po<=2 -n 2 -m 10 --count 6", 0,
     "30577d7d402439904759440f494332325cb58781ae33246881ddc2275ddf2285"),
    # three-agent multi-block scans (3x7: three blocks of 729)
    ("mine-3x7.json",
     "mine --predicate efxpm&po=0 -n 3 -m 7 --item-class generallyGoodBad --count 5", 0,
     "2d2aa1be220993559b7ae631e1260d0da89aa875b7f2e74177b350820a79e0dc"),
    ("mine-3x7-hits.json",
     "mine --predicate efxpm&po>=1 -n 3 -m 7 --item-class generallyGoodBad --count 5", 0,
     "811382c16594a9e102749c7b01755a167a0caa9ced8791be38cea4dc787bcb0a"),
    # leximin, PO and cut-and-choose scans of the first 2x10 hit (four blocks of
    # 256); cut-and-choose takes leximin over the cutter's identical proxy
    ("2x10.json", "@hit {d}/mine-2x10.json", 0, None),
    ("leximin-2x10.json", "leximin {d}/2x10.json", 0,
     "5da41e81ff76d6c9b3b06b9bfea5797a3044c940a39cb89c387e09a43a761d02"),
    ("enumerate-2x10.jsonl", "enumerate {d}/2x10.json --axioms po", 0,
     "a3044d6ea81be5ccb0cc220934e1b253db9ecc9b0945848e6bfd89a8e832bfda"),
    ("check-po-161.json", "check {d}/2x10.json {d}/alloc-161.json --axioms po", 1,
     "5c7805f39cec0e9ee8108cd0b2bcd507486e81ffb5fa797969c5c112fcb8a8df"),
    ("check-po-985.json", "check {d}/2x10.json {d}/alloc-985.json --axioms po", 0,
     "4c9e3446ce30965b18ee60acc2d9c6cb746248ea5d0600bcf122b9a961a5abf0"),
    ("cut-and-choose-2x10-1.json", "cut-and-choose {d}/2x10.json --cutter 1", 0,
     "bdbe95b0137cf4b7998e4313ee93fe9d6ece336421f966092596d5a48ac6cf8f"),
    ("cut-and-choose-2x10-2.json", "cut-and-choose {d}/2x10.json --cutter 2", 0,
     "7951e9a218e5e351958ed57ea891a26c86dbaf3488e6e7adeaeda2f20fad1fe0"),
    # dense two-agent walks (every allocation, from per-agent columns): enumerate
    # with po over four blocks, and a mine predicate without po, with hits
    ("enumerate-2x10-all.jsonl",
     "enumerate {d}/2x10.json --axioms ef,ef1,efx,ef1pm,efxpm,efx0,efxpm0,po", 0,
     "3204db7c1bd3e17bedd47b2b999ae4ea2db6d84dcc89027ff93d03f8340313b2"),
    ("mine-2x10-dense.json", "mine --predicate ef1pm>=900 -n 2 -m 10 --count 6", 0,
     "acd2b30538a6bddf6536d302c8258591f41029194d66c9adeeda348628c85216"),
    # ranked two-agent columns on non-integer values, and exact printing of
    # Fraction utilities, leximin vectors, cut sides and a po improver
    ("2x10-halved.json", "@halve {d}/2x10.json", 0, None),
    ("landscape-2x10-halved.json", "@landscape {d}/2x10-halved.json", 0,
     "44fe50604b20a142699b910ba71b8ff4a1a8a0966c3bd1d1680eef75aa2e06ca"),
    ("leximin-2x10-halved.json", "leximin {d}/2x10-halved.json", 0,
     "cff4264fab9cec154de06c2459b8fd40ef94395fdbdce54f788b601bf3f0cf6a"),
    ("cut-and-choose-2x10-halved-1.json", "cut-and-choose {d}/2x10-halved.json --cutter 1", 0,
     "d98104371e750870caca0f0f4363b058ae09021bd53f08427d0b51eff6879abe"),
    ("cut-and-choose-2x10-halved-2.json", "cut-and-choose {d}/2x10-halved.json --cutter 2", 0,
     "a25a605530734440b5eb715c553bf74e76499e930ecbbd925f2b44cc8182f3cf"),
    ("check-161-halved.json",
     "check {d}/2x10-halved.json {d}/alloc-161.json --axioms ef1,efx,efxpm,po", 1,
     "af7cf2c1bf2190521b026da4b45c07ca01908399c67910945512e88250d435d6"),
    # more than 8 held bits (all ten axioms on a 2x9 generallyGoodBad instance),
    # and column walks that read only some clause groups
    ("mine-2x9-ggb.json",
     "mine --predicate ef1>=0 -n 2 -m 9 --item-class generallyGoodBad --count 1", 0, None),
    ("2x9-ggb.json", "@hit {d}/mine-2x9-ggb.json", 0, None),
    ("enumerate-2x9-ten.jsonl", "enumerate {d}/2x9-ggb.json --axioms " + TEN, 0,
     "e5f4e09ca102461200053fafe00c4e6913b4d316b13377482a12ee1b67fb23d2"),
    ("enumerate-2x9-chen-liu.jsonl", "enumerate {d}/2x9-ggb.json --axioms chen-liu", 0,
     "b9557b74aae070e09752823b58b229f94de1b442e83adc4d40d1599c703e2318"),
    ("enumerate-2x9-efx0.jsonl", "enumerate {d}/2x9-ggb.json --axioms efx0", 0,
     "54d43ecc8e50cc0c1f94c921fc488a82faa5bba71664ffa68eb2cf765fa3adf9"),
    ("enumerate-2x9-variant-a-ef1.jsonl", "enumerate {d}/2x9-ggb.json --axioms variant-a,ef1",
     0, "6c9298c84c6dc63f03a1884679da9a5341a9c3103ecce2536d7f36067bedab52"),
    # a generallyGoodBad stream at m = 11: split bits and monotone tables
    ("mine-2x11-ggb.json",
     "mine --predicate ef1>=0 -n 2 -m 11 --item-class generallyGoodBad --count 1", 0,
     "74d1b71700c023b6e2cde3f95e15b6cb52d06ec37a0b42e82a3c42419917e1d6"),
    ("mine-2x12-efx.json", "mine --predicate efx>=1 -n 2 -m 12 --count 4", 0,
     "f086fe66422e3b65097687ca2e01624f7eebc719fee30082533156b0bfffa6a8"),
    # enumerate printed this when every flag still came from check_axiom
    ("mine-3x5-ggb.json", "mine --predicate ef1>=0 -n 3 -m 5 --item-class generallyGoodBad"
     " --seed 500 --count 1", 0, None),
    ("3x5-ggb.json", "@hit {d}/mine-3x5-ggb.json", 0, None),
    ("enumerate-3x5-ten.jsonl", "enumerate {d}/3x5-ggb.json --axioms " + TEN, 0,
     "6bb6777fbec52da25b1bdf9116e8b7287b3667ad8afabae2e8a60b0bd9bf442f"),
    # full walks whose held sets carry every named axiom, on the front and off
    # it: combos naming some axioms only beside po, on the 2x10 hit (four
    # blocks) and on the first 3x7 hit (three blocks of 729)
    ("3x7.json", "@hit {d}/mine-3x7-hits.json", 0, None),
    ("landscape-2x10-custom.json", "@landscape {d}/2x10.json ef;efxpm,po;efx,ef1pm,po;chen-liu,po",
     0, "69012c43d9158f07c6e84b657cadcbf1b115d4ca0fb05d108c5ce61c106afba2"),
    ("landscape-3x7-custom.json", "@landscape {d}/3x7.json ef;efxpm,po;efx,ef1pm,po;chen-liu,po",
     0, "329587349c4a43fbe7b24b689f5ce68b243dd2c7c19c5a0fbe6f6426889ff0a0"),
    # a two-agent full walk with po on 16-bit lanes: the first hit of a 2x10
    # mine over [-300, 300] (587 distinct values)
    ("mine-2x10-wide.json", "mine --predicate ef1>=0 -n 2 -m 10 --lo -300 --hi 300 --count 1",
     0, "a71b0b31c610f20c66a889c784b035210949dcfc9d90a822708a9ad406cfd3ae"),
    ("2x10-wide.json", "@hit {d}/mine-2x10-wide.json", 0, None),
    ("landscape-2x10-wide.json", "@landscape {d}/2x10-wide.json", 0,
     "7d55e7507e307077ef349cb63aa920bd2288f0d567f69e284279196e7429548a"),
    ("enumerate-2x10-wide.jsonl", "enumerate {d}/2x10-wide.json --axioms ef,efx,efxpm,po", 0,
     "16d209a134d21fef256b862ba9203e52f936cb21ef3eff7d3fa6925b78ce78e4"),
    # ... and on 32-bit lanes: a 2x15 mine over [-100000, 100000] (more than
    # 2^15 distinct values) and its 32,768 rows
    ("mine-2x15-wide.json",
     "mine --predicate ef1>=0 -n 2 -m 15 --lo -100000 --hi 100000 --seed 3 --count 1", 0,
     "9ad463faccd5a7b92cf7b65be59b0790ecdfdc98620d27b04956bddb7762ef6f"),
    ("2x15-wide.json", "@hit {d}/mine-2x15-wide.json", 0, None),
    ("enumerate-2x15-wide.jsonl", "enumerate {d}/2x15-wide.json --axioms ef,efx,efxpm,po", 0,
     "0b9db488e8ff34ac0c550a6af8944ecb85b58ecc22ac4e1238f5933bc574eb16"),
)


def _read(path):
    return json.loads(Path(path).read_text())


def _hit(path):
    return json.dumps(_read(path)["hits"][0]["instance"])


def _halve(path):
    doc = _read(path)
    for v in doc["valuations"]:
        v["values"] = {k: str(Fraction(x) / 2) for k, x in v["values"].items()}
    return json.dumps(doc)


def _landscape(path, combos=None):
    rows = landscape(loads_instance(Path(path).read_text()),
                     combos and [tuple(c.split(",")) for c in combos.split(";")])
    return json.dumps([[list(r.combo), r.count, r.example] for r in rows]) + "\n"


BUILT_IN = {"@hit": _hit, "@halve": _halve, "@landscape": _landscape}


def run(d, invoke) -> list:
    """Run every row in directory ``d``, each fairkit command through
    ``invoke(argv) -> (exit code, stdout)``; one message per failed row."""
    for name, doc in FILES.items():
        Path(d, name).write_text(json.dumps(doc))
    failures = []
    for name, command, code, sha256 in GOLDENS:
        words = [w.replace("{d}", str(d)) for w in command.split()]
        if words[0] in BUILT_IN:
            got, out = 0, BUILT_IN[words[0]](*words[1:])
        else:
            got, out = invoke(words)
        Path(d, name).write_text(out)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if got != code:
            failures.append(f"{name}: `{command}` exited {got}, expected {code}")
        elif sha256 is not None and digest != sha256:
            failures.append(f"{name}: `{command}` printed sha256 {digest}, expected {sha256}")
    return failures


def _console_script(argv):
    done = subprocess.run(["fairkit", *argv], stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        failures = run(d, _console_script)
    sys.exit("\n".join(failures) or None)
