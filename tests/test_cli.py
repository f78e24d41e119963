import ast
import importlib
import json
import os
from pathlib import Path

import pytest

from fractions import Fraction

import fairkit.axioms
import fairkit.cli

from fairkit import (
    AdditiveValuation,
    Instance,
    check_axiom,
    check_po,
    dumps_instance,
    enumerate_allocations,
    fixture,
    format_value,
    loads_instance,
    mask_from_names,
    names_of,
    pareto_front,
    utilities,
    verify_claims,
)
from fairkit.cli import main
from fairkit.search import GenParams, generate

import goldens
from conftest import scaled


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_golden_outputs(tmp_path, capsys):
    assert goldens.run(tmp_path, lambda argv: run(capsys, argv)[:2]) == []


def test_check_t2_efx_vs_efxpm(files, capsys):
    inst = files("t2.json", dumps_instance(fixture("FIX-T2").instance))
    alloc = files("alloc.json", {"bundles": [["a", "b", "c"], ["d"]]})
    code, out, _ = run(capsys, ["check", inst, alloc, "--axioms", "efx,efxpm"])
    assert code == 1
    report = json.loads(out)
    assert report["axioms"]["efx"]["satisfied"] is True
    assert report["axioms"]["efxpm"]["satisfied"] is False
    witness = report["axioms"]["efxpm"]["violations"][0]
    assert witness["item"] == "a" and witness["lhs"] == "-8" and witness["rhs"] == "-7"


def test_check_ex2_efxpm_po_passes(files, capsys):
    inst = files("ex2.json", dumps_instance(fixture("FIX-EX2").instance))
    alloc = files("alloc.json", {"bundles": [["s"], ["l1", "l2", "l3"]]})
    code, out, _ = run(capsys, ["check", inst, alloc, "--axioms", "efxpm,po"])
    assert code == 0
    report = json.loads(out)
    assert report["axioms"]["po"]["satisfied"] is True


def test_check_reports_po_improver(files, capsys):
    inst = files("ex2.json", dumps_instance(fixture("FIX-EX2").instance))
    alloc = files("alloc.json", {"bundles": [["s", "l1"], ["l2", "l3"]]})
    code, out, _ = run(capsys, ["check", inst, alloc, "--axioms", "po"])
    assert code == 1
    assert json.loads(out)["axioms"]["po"]["improver"]


def test_malformed_bundle_key_exits_2(files, capsys):
    inst = files("bad.json", {
        "items": ["a", "b"], "agents": 2, "identical": True,
        "valuations": [{"kind": "explicit", "values": {"b,a": 1, "a": 1, "b": 1}}],
    })
    code, _, err = run(capsys, ["leximin", inst])
    assert code == 2
    assert "canonical" in err


@pytest.mark.parametrize("kind", ["additive", "explicit"])
def test_item_name_with_a_comma_or_empty_exits_2(files, capsys, kind):
    for name in ("a,b", ""):
        values = ({name: 1, "c": 2} if kind == "additive"
                  else {"": 0, name: 1, "c": 2, f"{name},c": 3})
        inst = files("bad.json", {"items": [name, "c"], "agents": 2, "identical": True,
                                  "valuations": [{"kind": kind, "values": values}]})
        code, out, err = run(capsys, ["taxonomy", inst])
        assert code == 2 and out == "" and f"item name {name!r} is empty" in err


def test_duplicate_json_key_exits_2(files, capsys):
    inst = files("dup.json", '{"items": ["a", "b"], "agents": 2, "identical": true, "valuations":'
                             ' [{"kind": "explicit", "values": {"a": "1", "a": "7", "b": "1",'
                             ' "a,b": "2"}}]}')
    code, out, err = run(capsys, ["enumerate", inst])
    assert code == 2 and out == "" and "duplicate key 'a'" in err


def test_unknown_axiom_exits_2(files, capsys):
    inst = files("ex1.json", dumps_instance(fixture("FIX-EX1").instance))
    alloc = files("alloc.json", {"bundles": [["b"], ["r"]]})
    code, _, err = run(capsys, ["check", inst, alloc, "--axioms", "efz"])
    assert code == 2 and "unknown axiom" in err
    for argv in (["check", inst, alloc, "--axioms", ","], ["enumerate", inst, "--axioms", " , "]):
        code, out, err = run(capsys, argv)  # a list with no ids
        assert code == 2 and out == "" and err == "error: no axioms requested\n"


def test_budget_exits_3(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    code, _, err = run(capsys, ["leximin", inst, "--budget", "3"])
    assert code == 3 and "exceeding budget" in err


def test_budget_env_var_is_not_read(files, capsys, monkeypatch):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    want = run(capsys, ["leximin", inst])
    monkeypatch.setenv("FAIRKIT_BUDGET", "3")  # below FIX-T1's 16 allocations
    assert run(capsys, ["leximin", inst]) == want and want[0] == 0


def test_negative_budget_exits_2_before_any_work(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    missing = "/nonexistent/instance.json"
    for argv in (["enumerate", inst, "--budget", "-5"],
                 ["leximin", missing, "--budget", "-1"],
                 ["check", missing, missing, "--budget", "-1"],
                 ["cut-and-choose", missing, "--budget", "-1"],
                 ["mine", "--predicate", "efx=0", "--budget", "-1"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: --budget must be >= 0, got {argv[-1]}\n"), argv
    code, _, _ = run(capsys, ["taxonomy", inst])  # takes no budget, so reads none
    assert code == 0


def test_zero_budget_exits_3(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    code, _, err = run(capsys, ["enumerate", inst, "--budget", "0"])
    assert code == 3 and "exceeding budget 0" in err


def test_calls_in_sequence_share_one_parser_and_print_as_alone(files, capsys):
    inst = files("t2.json", dumps_instance(fixture("FIX-T2").instance))
    alloc = files("alloc.json", {"bundles": [["a", "b", "c"], ["d"]]})
    argvs = [["check", inst, alloc, "--axioms", "efxpm,po", "--table"],
             ["check", inst, alloc, "--axioms", "efxpm,po"],
             ["mine", "--predicate", "efx=0"]]
    in_sequence = [run(capsys, argv) for argv in argvs]
    assert fairkit.cli.build_parser() is fairkit.cli.build_parser()
    for argv, seen in zip(argvs, in_sequence):
        fairkit.cli.build_parser.cache_clear()
        assert run(capsys, argv) == seen


def test_enumerate_streams_rows_with_flags(files, capsys):
    inst = files("ex1.json", dumps_instance(fixture("FIX-EX1").instance))
    code, out, _ = run(capsys, ["enumerate", inst, "--axioms", "ef,efx,efxpm,po"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert all(set(r["axioms"]) == {"ef", "efx", "efxpm", "po"} for r in rows)
    by_bundles = {tuple(tuple(b) for b in r["bundles"]): r for r in rows}
    assert by_bundles[(("b",), ("r",))]["axioms"]["ef"] is True
    assert by_bundles[((), ("b", "r"))]["axioms"]["po"] is True


def test_enumerate_po_does_no_axiom_work(files, capsys, monkeypatch):
    """``--axioms po`` names no axiom: no lane column and no pair pass is
    built, and each row flags exactly the Pareto-optimal allocations."""
    def forbidden(*args):
        raise AssertionError("axiom work for a walk that names no axiom")

    for n, m, seed in ((2, 10, 14_000), (3, 6, 14_001)):
        inst = generate(GenParams(agents=n, items=m, item_class="generallyGoodBad", seed=seed))
        path = files(f"{n}x{m}.json", dumps_instance(inst))
        with monkeypatch.context() as patched:
            patched.setattr(fairkit.axioms, "_columns", forbidden)
            patched.setattr(fairkit.axioms, "_pair_pass", forbidden)
            code, out, _ = run(capsys, ["enumerate", path, "--axioms", "po"])
        assert code == 0
        front = pareto_front(inst)
        assert [json.loads(line)["axioms"] for line in out.splitlines()] == [
            {"po": utilities(inst, a) in front} for a in enumerate_allocations(inst)]


def test_leximin_t1(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    code, out, _ = run(capsys, ["leximin", inst])
    assert code == 0
    doc = json.loads(out)
    assert doc["utilityVector"] == ["5", "8"]
    assert [["a", "b", "d"], ["c"]] in doc["allocations"]
    assert [["c"], ["a", "b", "d"]] in doc["allocations"]


def test_taxonomy_obs1(files, capsys):
    inst = files("obs1.json", dumps_instance(fixture("FIX-OBS1").instance))
    code, out, _ = run(capsys, ["taxonomy", inst])
    assert code == 0
    doc = json.loads(out)
    assert doc["generallyGoodBadItems"] is True
    assert doc["noMixedItems"] is False
    b = next(item for item in doc["items"] if item["name"] == "b")
    assert b["mixed"] is True
    assert b["agents"][0]["generallyBad"] and b["agents"][1]["generallyGood"]


def test_cut_and_choose_ex1(files, capsys):
    inst = files("ex1.json", dumps_instance(fixture("FIX-EX1").instance))
    code, out, _ = run(capsys, ["cut-and-choose", inst])
    assert code == 0
    doc = json.loads(out)
    assert doc["bundles"] == [[], ["b", "r"]]
    assert doc["efxpm"]["satisfied"] is True


def test_cut_and_choose_needs_two_agents(files, capsys):
    from fairkit import AdditiveValuation, Instance
    inst3 = Instance(("a", "b"), (AdditiveValuation((1, 2)),) * 3)
    path = files("three.json", dumps_instance(inst3))
    code, _, err = run(capsys, ["cut-and-choose", path])
    assert code == 2 and "2 agents" in err


def test_verify_paper_exit_zero_and_labels(capsys):
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gatingFailures"] == 0
    exploratory = [r for r in doc["rows"] if not r["gating"]]
    failing_exploratory = [r for r in exploratory if r["status"] == "fail"]
    assert len(failing_exploratory) == 2
    assert {r["claim"] for r in failing_exploratory} == {
        "t1-variant-a-portability", "t2-variant-b-portability",
    }


def test_verify_paper_table_prints_one_line_per_row(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--table"])
    *lines, last = out.splitlines()
    results = verify_claims().results
    assert code == 0 and last == "gating failures: 0" and len(lines) == len(results)
    for line, r in zip(lines, results):
        assert line.split()[:3] == [r.status.upper(), r.fixture_id, r.claim.id]
        assert ("[exploratory]" in line) is (not r.claim.gating)


def test_verify_paper_single_fixture_and_export(tmp_path, capsys):
    out_dir = str(tmp_path / "exports")
    code, out, _ = run(capsys, ["verify-paper", "--fixture", "FIX-ZM",
                                "--export-instances", out_dir])
    assert code == 0
    doc = json.loads(out)
    assert {r["fixture"] for r in doc["rows"]} == {"FIX-ZM"}
    exported = os.path.join(out_dir, "FIX-ZM.json")
    assert os.path.exists(exported)
    with open(exported, encoding="utf-8") as f:
        assert loads_instance(f.read()) == fixture("FIX-ZM").instance


def test_verify_paper_export_to_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, ["verify-paper", "--export-instances", str(taken)])
    assert code == 2 and out == "" and err.startswith("error: cannot write")


def test_mine_cli(capsys):
    code, out, _ = run(capsys, [
        "mine", "--predicate", "efxpm0=0", "-n", "2", "-m", "2",
        "--lo", "0", "--hi", "1", "--identical", "--additive", "--count", "6",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["hits"]
    assert all(h["landscape"][0]["count"] == 0 for h in doc["hits"])


def test_mine_cli_lists_skipped_seeds(capsys):
    # a value range of one value cannot give any item a non-zero marginal
    code, out, _ = run(capsys, ["mine", "--predicate", "efx>=0", "-n", "2", "-m", "6",
                                "--lo", "1", "--hi", "1", "--nonzero-marginals", "--count", "2"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["predicate", "scanned", "skipped", "hits"]
    assert doc["scanned"] == 2 and doc["hits"] == []
    assert [s["seed"] for s in doc["skipped"]] == [0, 1]
    assert all("non-zero marginals" in s["reason"] for s in doc["skipped"])
    code, out, _ = run(capsys, ["mine", "--predicate", "efx>=0", "-n", "2", "-m", "2",
                                "--count", "2"])
    doc = json.loads(out)
    assert doc["skipped"] == [] and [h["seed"] for h in doc["hits"]] == [0, 1]


def test_mine_cli_nonzero_marginals_at_six_items_scans_every_seed(capsys):
    code, out, _ = run(capsys, ["mine", "--predicate", "efx>=0", "-n", "2", "-m", "6",
                                "--nonzero-marginals", "--count", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped"] == [] and [h["seed"] for h in doc["hits"]] == [0, 1, 2]
    for h in doc["hits"]:
        assert loads_instance(json.dumps(h["instance"])).has_nonzero_marginals()


def test_mine_cli_rejects_an_item_class_with_additive(capsys):
    code, out, err = run(capsys, ["mine", "--predicate", "efx>=0", "--item-class",
                                  "generallyGoodBad", "--additive"])
    assert code == 2 and out == "" and "already has generally good/bad items" in err


def test_mine_cli_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, ["mine", "--predicate", "efx>=0", "--count", "-5"])
    assert code == 2 and out == "" and "count must be >= 0" in err
    code, out, _ = run(capsys, ["mine", "--predicate", "efx>=0", "-m", "2", "--count", "0"])
    assert code == 0 and json.loads(out)["scanned"] == 0


def test_verify_paper_takes_no_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--budget", "-1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_only_enumerating_commands_take_a_budget(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    with pytest.raises(SystemExit) as exc:
        main(["taxonomy", inst, "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err
    alloc = files("alloc.json", {"bundles": [["a", "b"], ["c", "d"]]})
    for argv in (["check", inst, alloc, "--axioms", "po"], ["enumerate", inst],
                 ["leximin", inst], ["cut-and-choose", inst],
                 ["mine", "--predicate", "efx>=0", "-m", "4", "--count", "1"]):
        code, _, err = run(capsys, argv + ["--budget", "15"])
        assert code == 3 and "exceeding budget 15" in err, argv


def test_table_is_only_for_check_and_verify_paper(files, capsys):
    inst = files("t2.json", dumps_instance(fixture("FIX-T2").instance))
    for argv in (["leximin", inst, "--table"], ["taxonomy", inst, "--table"],
                 ["check", inst, inst, "--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    alloc = files("alloc.json", {"bundles": [["a", "b", "c"], ["d"]]})
    code, out, _ = run(capsys, ["check", inst, alloc, "--axioms", "efx", "--table"])
    assert code == 0 and out == "efx        satisfied\n"


def test_check_repeated_axioms_are_decided_and_printed_once(files, capsys, monkeypatch):
    inst = files("t2.json", dumps_instance(fixture("FIX-T2").instance))
    alloc = files("alloc.json", {"bundles": [["a", "b", "c"], ["d"]]})
    _, once, _ = run(capsys, ["check", inst, alloc, "--axioms", "efx,po"])
    calls = []
    monkeypatch.setattr(fairkit.cli, "check_po",
                        lambda *args: calls.append(args) or check_po(*args))
    _, twice, _ = run(capsys, ["check", inst, alloc, "--axioms", "efx,EFX,po,po"])
    assert twice == once and len(calls) == 1
    _, table, _ = run(capsys, ["check", inst, alloc, "--axioms", "efx,EFX,po,po", "--table"])
    assert [line.split()[0] for line in table.splitlines()] == ["efx", "po"]
    assert len(calls) == 2


def test_check_table_prints_the_witnesses_of_a_violated_axiom(files, capsys):
    inst = files("t2.json", dumps_instance(fixture("FIX-T2").instance))
    alloc = files("alloc.json", {"bundles": [["a", "b", "c"], ["d"]]})
    code, out, _ = run(capsys, ["check", inst, alloc, "--axioms", "efxpm,po", "--table"])
    assert code == 1
    assert out.splitlines() == (
        ["efxpm      VIOLATED"]
        + [f"           agent 0 vs 1: added-bad item={o} -8 < -7" for o in "abc"]
        + ["po         VIOLATED"])


def test_mine_cli_defaults_are_the_generator_defaults(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(fairkit.cli, "mine_seeds",
                        lambda params, *args, **kwargs: seen.append(params) or iter(()))
    code, _, _ = run(capsys, ["mine", "--predicate", "efx=0"])
    assert code == 0 and seen == [GenParams()]


def test_mine_cli_unknown_axiom_in_predicate_exits_2(capsys):
    code, out, err = run(capsys, ["mine", "--predicate", "bogus=0"])
    known = "ef, ef1, efx, ef1pm, efxpm, efx0, efxpm0, variant-a, variant-b, chen-liu, po"
    assert code == 2 and out == "" and err == f"error: unknown axiom 'bogus'; known: {known}\n"


def test_mine_cli_predicate_axiom_names_are_case_insensitive(capsys):
    args = ["-n", "2", "-m", "3", "--count", "20"]
    upper = run(capsys, ["mine", "--predicate", "EFXPM&PO=0"] + args)
    assert upper == run(capsys, ["mine", "--predicate", "efxpm&po=0"] + args)
    assert upper[0] == 0 and json.loads(upper[1])["predicate"] == "efxpm&po=0"


@pytest.mark.parametrize("argv, message", [
    (["-n", "1"], "an instance needs at least 2 agents"),
    (["-m", "0"], "item count 0 outside 1..16"),
    (["--lo", "3", "--hi", "1"], "empty value range"),
    (["--predicate", "efx=x"], "cannot parse predicate 'efx=x' (use e.g. 'efx=0' or 'efxpm&po>=1')"),
    (["--predicate", "efx=1.5"],
     "cannot parse predicate 'efx=1.5' (use e.g. 'efx=0' or 'efxpm&po>=1')"),
], ids=["one-agent", "no-items", "empty-range", "target-x", "target-1.5"])
def test_mine_cli_rejects_bad_parameters_before_any_seed(capsys, argv, message):
    code, out, err = run(capsys, ["mine", "--predicate", "efx=0", "--count", "1"] + argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["leximin", "/nonexistent/instance.json"])
    assert code == 2 and "cannot read" in err


def test_enumerate_po_flags_match_check_po(files, capsys):
    for k, (n, m) in enumerate([(2, 4), (3, 3), (4, 2), (2, 3)]):
        inst = generate(GenParams(agents=n, items=m, lo=-2, hi=2, identical=k == 3,
                                  seed=300 + k))
        path = files(f"inst{k}.json", dumps_instance(inst))
        code, out, _ = run(capsys, ["enumerate", path, "--axioms", "po,ef"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == n ** m
        for r in rows:
            alloc = tuple(mask_from_names(inst.item_names, b) for b in r["bundles"])
            assert r["axioms"]["po"] is check_po(inst, alloc).satisfied


def test_enumerate_over_budget_prints_nothing(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    for axioms in ("po", "ef,po", "ef"):
        code, out, err = run(capsys, ["enumerate", inst, "--axioms", axioms, "--budget", "15"])
        assert code == 3 and out == "" and "exceeding budget" in err


def test_items_over_the_cap_exit_2(files, capsys):
    code, _, err = run(capsys, ["mine", "--predicate", "efx=0", "-m", "17", "--count", "1"])
    assert code == 2 and err == "error: item count 17 outside 1..16\n"
    doc = {"items": [f"o{i}" for i in range(21)],
           "valuations": [{"kind": "additive", "values": {f"o{i}": 1 for i in range(21)}}] * 2}
    code, _, err = run(capsys, ["taxonomy", files("big.json", doc)])
    assert code == 2 and "item count 21" in err


def test_enumerate_all_axioms_output_is_unchanged(files, capsys):
    inst = generate(GenParams(agents=3, items=5, item_class="generallyGoodBad", seed=500))
    axioms = "ef,ef1,efx,ef1pm,efxpm,efx0,efxpm0,variant-a,variant-b,chen-liu"
    code, out, err = run(capsys, ["enumerate", files("ggb.json", dumps_instance(inst)),
                                  "--axioms", axioms])
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3 ** 5
    for row, alloc in zip(rows, enumerate_allocations(inst)):
        assert row["axioms"] == {ax: check_axiom(inst, alloc, ax).satisfied
                                 for ax in axioms.split(",")}


def test_agents_over_the_cap_exit_2(files, capsys):
    code, _, err = run(capsys, ["mine", "--predicate", "efx=0", "-n", str(10 ** 12),
                                "--identical", "--count", "1"])
    assert code == 2 and "agent count 1000000000000 exceeds the cap of 64" in err
    doc = {"items": ["a", "b"], "agents": 10 ** 12, "identical": True,
           "valuations": [{"kind": "additive", "values": {"a": "1", "b": "2"}}]}
    code, out, err = run(capsys, ["taxonomy", files("many.json", doc)])
    assert code == 2 and out == "" and "agent count 1000000000000" in err


def _reference_rows(inst, axioms):
    """The enumerate rows, one json.dumps each, from check_axiom and pareto_front."""
    requested = [ax.strip().lower() for ax in axioms.split(",") if ax.strip()]
    front = pareto_front(inst)
    for k, alloc in enumerate(enumerate_allocations(inst)):
        utils = utilities(inst, alloc)
        row = {"index": k,
               "bundles": [list(names_of(inst.item_names, b)) for b in alloc],
               "utilities": [format_value(u) for u in utils],
               "axioms": {}}
        for ax in requested:
            row["axioms"][ax] = (utils in front if ax == "po"
                                 else check_axiom(inst, alloc, ax).satisfied)
        yield json.dumps(row)


def _thirds(inst):
    """``scaled(inst, 3)`` with the last agent additive over halves."""
    halves = AdditiveValuation([Fraction(k - 1, 2) for k in range(inst.m)])
    return Instance(inst.item_names, scaled(inst, 3).valuations[:-1] + (halves,))


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (4, 2)])
def test_enumerate_rows_equal_json_dumps_of_the_reference_rows(files, capsys, n, m):
    plain = generate(GenParams(agents=n, items=m, lo=-3, hi=3, seed=700 + n))
    ggb = generate(GenParams(agents=n, items=m, item_class="generallyGoodBad", seed=710 + n))
    cases = [(plain, "PO,ef,EFX,ef,efxpm"), (_thirds(plain), "ef1, efx0,ef1pm,Ef1,po"),
             (_thirds(plain), "efxpm0,po,variant-a,variant-b"),
             (ggb, "chen-liu,efxpm,po,chen-liu"), (ggb, "po,chen-liu"), (plain, "po"),
             (ggb, "chen-liu")]
    for k, (inst, axioms) in enumerate(cases):
        path = files(f"inst{k}.json", dumps_instance(inst))
        code, out, err = run(capsys, ["enumerate", path, "--axioms", axioms])
        assert code == 0 and err == ""
        assert out.splitlines() == list(_reference_rows(loads_instance(dumps_instance(inst)),
                                                        axioms)), axioms


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """Each (module, attribute) row of ``WRAPS`` in ``bench/spans.py`` names
    an attribute of that fairkit module.  Some exist only for the tracer
    (``search.satisfies``, ``search.classify`` and the ``enumerate_allocations``
    imports in ``search``, ``efficiency`` and ``cli``); deleting one breaks a
    traced benchmark run.  The table is read as source, so the tracer is
    neither imported nor installed."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "spans.py").read_text())
    wraps = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"])
    rows = [(row.elts[0].value, row.elts[1].value) for row in wraps.elts]
    assert ("search", "satisfies") in rows
    assert [(module, attr) for module, attr in rows
            if not hasattr(importlib.import_module(f"fairkit.{module}"), attr)] == []
