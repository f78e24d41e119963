import hashlib
import json
import os

import pytest

from fractions import Fraction

import fairkit.cli

from fairkit import (
    AdditiveValuation,
    ExplicitValuation,
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
)
from fairkit.cli import main
from fairkit.search import GenParams, generate


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


def test_budget_exits_3(files, capsys):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    code, _, err = run(capsys, ["leximin", inst, "--budget", "3"])
    assert code == 3 and "exceeding budget" in err


def test_budget_env_var(files, capsys, monkeypatch):
    inst = files("t1.json", dumps_instance(fixture("FIX-T1").instance))
    monkeypatch.setenv("FAIRKIT_BUDGET", "3")
    code, _, _ = run(capsys, ["leximin", inst])
    assert code == 3
    monkeypatch.setenv("FAIRKIT_BUDGET", "1000")
    code, _, _ = run(capsys, ["leximin", inst])
    assert code == 0


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
    assert code == 2 and "cap" in err
    doc = {"items": [f"o{i}" for i in range(21)],
           "valuations": [{"kind": "additive", "values": {f"o{i}": 1 for i in range(21)}}] * 2}
    code, _, err = run(capsys, ["taxonomy", files("big.json", doc)])
    assert code == 2 and "item count 21" in err


# sha256 of the stdout that enumerate printed for this input when every flag
# still came from check_axiom(...).satisfied, before the boolean kernels
_ENUMERATE_ALL_AXIOMS_SHA256 = "6bb6777fbec52da25b1bdf9116e8b7287b3667ad8afabae2e8a60b0bd9bf442f"


def test_enumerate_all_axioms_output_is_unchanged(files, capsys):
    inst = generate(GenParams(agents=3, items=5, item_class="generallyGoodBad", seed=500))
    axioms = "ef,ef1,efx,ef1pm,efxpm,efx0,efxpm0,variant-a,variant-b,chen-liu"
    code, out, err = run(capsys, ["enumerate", files("ggb.json", dumps_instance(inst)),
                                  "--axioms", axioms])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _ENUMERATE_ALL_AXIOMS_SHA256
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
    """The instance with every value divided by 3, the last agent additive over halves."""
    vals = [ExplicitValuation(tuple(Fraction(x, 3) for x in v.table)) for v in inst.valuations]
    vals[-1] = AdditiveValuation([Fraction(k - 1, 2) for k in range(inst.m)])
    return Instance(inst.item_names, vals)


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (4, 2)])
def test_enumerate_rows_equal_json_dumps_of_the_reference_rows(files, capsys, n, m):
    plain = generate(GenParams(agents=n, items=m, lo=-3, hi=3, seed=700 + n))
    ggb = generate(GenParams(agents=n, items=m, item_class="generallyGoodBad", seed=710 + n))
    cases = [(plain, "PO,ef,EFX,ef,efxpm"), (_thirds(plain), "ef1, efx0,ef1pm,Ef1,po"),
             (_thirds(plain), "efxpm0,po,variant-a,variant-b"),
             (ggb, "chen-liu,efxpm,po,chen-liu"), (ggb, "po,chen-liu")]
    for k, (inst, axioms) in enumerate(cases):
        path = files(f"inst{k}.json", dumps_instance(inst))
        code, out, err = run(capsys, ["enumerate", path, "--axioms", axioms])
        assert code == 0 and err == ""
        assert out.splitlines() == list(_reference_rows(loads_instance(dumps_instance(inst)),
                                                        axioms)), axioms
