import json
from fractions import Fraction

import pytest

import fairkit.serialize
from fairkit import fixture, list_fixtures
from fairkit.serialize import (
    DocumentError,
    allocation_from_document,
    allocation_to_document,
    dumps_instance,
    instance_from_document,
    instance_to_document,
    loads_allocation,
    loads_instance,
    mask_from_key,
)

T1 = fixture("FIX-T1").instance
OBS1 = fixture("FIX-OBS1").instance
OBS3 = fixture("FIX-OBS3").instance


def test_round_trip_every_fixture():
    for fid in list_fixtures():
        inst = fixture(fid).instance
        text = dumps_instance(inst)
        again = loads_instance(text)
        assert again == inst
        assert dumps_instance(again) == text  # canonical form is a fixed point


def test_canonical_document_is_byte_stable():
    doc = {
        "items": ["x", "y"],
        "agents": 2,
        "identical": True,
        "valuations": [
            {"kind": "explicit", "values": {"x": "-1", "y": "-1", "x,y": "2"}}
        ],
    }
    text = json.dumps(doc, indent=2)
    assert dumps_instance(loads_instance(text)) == text


def test_value_formats_accepted():
    doc = {
        "items": ["a", "b"],
        "valuations": [
            {"kind": "additive", "values": {"a": 1, "b": "3/2"}},
            {"kind": "additive", "values": {"a": "1.5", "b": "-2"}},
        ],
    }
    inst = instance_from_document(doc)
    from fractions import Fraction
    assert inst.valuations[0].item_values == (1, Fraction(3, 2))
    assert inst.valuations[1].item_values == (Fraction(3, 2), -2)


def test_rationals_survive_round_trip():
    text = dumps_instance(OBS3)
    assert '"3/2"' in text
    assert loads_instance(text) == OBS3


def test_empty_bundle_defaults_to_zero():
    doc = {
        "items": ["a"],
        "agents": 2,
        "identical": True,
        "valuations": [{"kind": "explicit", "values": {"a": 4}}],
    }
    inst = instance_from_document(doc)
    assert inst.valuations[0].value(0) == 0
    # a non-zero empty value is exported explicitly and parsed back
    doc["valuations"][0]["values"][""] = "7"
    inst2 = instance_from_document(doc)
    assert inst2.valuations[0].value(0) == 7
    assert loads_instance(dumps_instance(inst2)) == inst2


def test_identical_collapse_controls_export_shape():
    doc = instance_to_document(T1)
    assert doc["identical"] is True and len(doc["valuations"]) == 1
    expanded = instance_to_document(T1, identical=False)
    assert len(expanded["valuations"]) == 2
    assert instance_from_document(expanded) == T1


def test_bad_documents_raise():
    bad_docs = [
        {"items": [], "valuations": []},
        {"items": ["a"], "valuations": []},
        {"items": ["a", "a"], "valuations": [{"kind": "additive", "values": {"a": 1}}]},
        # identical without agent count
        {"items": ["a"], "identical": True,
         "valuations": [{"kind": "additive", "values": {"a": 1}}]},
        # identical with two valuation objects
        {"items": ["a"], "agents": 2, "identical": True,
         "valuations": [{"kind": "additive", "values": {"a": 1}}] * 2},
        # agents disagrees with valuations
        {"items": ["a"], "agents": 3,
         "valuations": [{"kind": "additive", "values": {"a": 1}}] * 2},
        # wrong kind
        {"items": ["a"], "valuations": [{"kind": "magic", "values": {"a": 1}}] * 2},
        # missing bundle
        {"items": ["a", "b"], "agents": 2, "identical": True,
         "valuations": [{"kind": "explicit", "values": {"a": 1, "b": 1}}]},
        # float value
        {"items": ["a"], "valuations": [{"kind": "additive", "values": {"a": 1.5}}] * 2},
        # additive missing an item
        {"items": ["a", "b"],
         "valuations": [{"kind": "additive", "values": {"a": 1}}] * 2},
    ]
    for doc in bad_docs:
        with pytest.raises(DocumentError):
            instance_from_document(doc)


def test_non_canonical_bundle_keys_rejected():
    for key in ("b,a", "a,a", "a,z", ",a"):
        with pytest.raises(DocumentError):
            mask_from_key(("a", "b"), key)
    assert mask_from_key(("a", "b"), "") == 0
    assert mask_from_key(("a", "b"), "a,b") == 3


def test_allocation_documents():
    doc = {"bundles": [["a", "c"], ["b", "d"]]}
    alloc = allocation_from_document(T1, doc)
    assert alloc == (0b0101, 0b1010)
    assert allocation_to_document(T1, alloc) == doc
    for bad in (
        {"bundles": [["a"], ["b", "c"]]},            # incomplete
        {"bundles": [["a", "b", "c", "d"]]},          # one bundle for two agents
        {"bundles": [["a", "a"], ["b", "c", "d"]]},   # duplicate
        {"bundles": [["a", "x"], ["b", "c", "d"]]},   # unknown item
        {"allocs": []},
    ):
        with pytest.raises(DocumentError):
            allocation_from_document(T1, bad)


def test_loads_rejects_invalid_json():
    with pytest.raises(DocumentError):
        loads_instance("{not json")
    with pytest.raises(DocumentError):
        loads_allocation(T1, "[1,")


def test_item_count_is_capped_before_any_valuation_is_built(monkeypatch):
    def forbidden(*args):
        raise AssertionError("valuation built for an over-cap document")

    monkeypatch.setattr(fairkit.serialize, "AdditiveValuation", forbidden)
    monkeypatch.setattr(fairkit.serialize, "ExplicitValuation", forbidden)
    for m in (17, 21):
        names = [f"o{i}" for i in range(m)]
        doc = {"items": names,
               "valuations": [{"kind": "additive", "values": {x: "1" for x in names}}] * 2}
        with pytest.raises(DocumentError, match=f"item count {m} outside 1..16"):
            instance_from_document(doc)


def test_first_bad_value_in_document_order_is_reported():
    def doc(values):
        return {"items": ["a", "b", "c"], "agents": 2, "identical": True,
                "valuations": [{"kind": "additive", "values": values}]}

    with pytest.raises(DocumentError, match=r"\['b'\].*'x'"):
        instance_from_document(doc({"a": "1", "b": "x", "c": "x"}))
    with pytest.raises(DocumentError, match=r"\['c'\]: cannot parse"):
        instance_from_document(doc({"a": "1", "b": "1", "c": "1/0"}))
    # a value already parsed does not let a boolean through
    with pytest.raises(DocumentError, match=r"\['b'\]: boolean"):
        instance_from_document(doc({"a": 1, "b": True, "c": "1"}))
    inst = instance_from_document(doc({"a": "1/2", "b": 1, "c": "1/2"}))
    assert inst.valuations[0].item_values == (Fraction(1, 2), 1, Fraction(1, 2))


def test_agent_count_is_capped_before_any_valuation_is_built(monkeypatch):
    def forbidden(*args):
        raise AssertionError("valuation built for an over-cap document")

    monkeypatch.setattr(fairkit.serialize, "AdditiveValuation", forbidden)
    monkeypatch.setattr(fairkit.serialize, "ExplicitValuation", forbidden)
    one = {"kind": "additive", "values": {"a": "1"}}
    for doc in ({"items": ["a"], "agents": 10 ** 12, "identical": True, "valuations": [one]},
                {"items": ["a"], "agents": 65, "identical": True, "valuations": [one]},
                {"items": ["a"], "valuations": [one] * 65}):
        with pytest.raises(DocumentError, match=r"agent count \d+ exceeds the cap of 64"):
            instance_from_document(doc)
    monkeypatch.undo()
    doc = {"items": ["a"], "agents": 64, "identical": True, "valuations": [one]}
    assert instance_from_document(doc).n == 64
