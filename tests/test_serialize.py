import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairkit.serialize
from fairkit import AdditiveValuation, ExplicitValuation, Instance, fixture, list_fixtures
from fairkit.search import ITEM_CLASSES, GenParams, generate
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


_VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _canonical_exports(draw):
    """Canonical text of a generated instance or of one with drawn rational tables."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        lo = draw(st.integers(-4, 0))
        item_class = draw(st.sampled_from(ITEM_CLASSES))
        return dumps_instance(generate(GenParams(
            agents=n, items=m, lo=lo, hi=draw(st.integers(lo, 4)),
            identical=draw(st.booleans()),
            additive=item_class == "any" and draw(st.booleans()),  # item classes take no additive
            item_class=item_class, seed=draw(st.integers(0, 2 ** 64)))))

    def valuation():
        if draw(st.booleans()):
            return AdditiveValuation(draw(st.lists(_VALUES, min_size=m, max_size=m)))
        return ExplicitValuation(draw(st.lists(_VALUES, min_size=1 << m, max_size=1 << m)))

    vals = (valuation(),) * n if draw(st.booleans()) else tuple(valuation() for _ in range(n))
    inst = Instance(tuple(f"o{i}" for i in range(m)), vals)
    return dumps_instance(inst)


@given(_canonical_exports())
@settings(max_examples=80)
def test_canonical_export_round_trips_byte_for_byte(text):
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


def test_identical_collapse_refuses_agents_that_differ():
    assert not OBS1.is_identical()
    for write in (instance_to_document, dumps_instance):
        with pytest.raises(ValueError, match="valuations differ"):
            write(OBS1, identical=True)
    assert loads_instance(dumps_instance(OBS1, identical=False)) == OBS1


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


def _explicit(values, items=("a", "b")):
    return json.dumps({"items": list(items), "agents": 2, "identical": True,
                       "valuations": [{"kind": "explicit", "values": values}]})


# each message as the loader printed it when every key went through mask_from_key
@pytest.mark.parametrize("text, message", [
    (_explicit({"a": "1", "b": "1", "a,z": "2"}), "unknown item 'z' in bundle key 'a,z'"),
    (_explicit({"z": "1", "a": "1", "b": "1"}), "unknown item 'z' in bundle key 'z'"),
    (_explicit({"a": "1", "b": "1", "b,a": "2"}),
     "bundle key 'b,a' is not canonical (items must follow the items array order)"),
    (_explicit({"a": "1", "b": "1", "a,a": "2"}),
     "bundle key 'a,a' is not canonical (items must follow the items array order)"),
    (_explicit({",a": "1", "b": "1", "a,b": "2"}), "unknown item '' in bundle key ',a'"),
    (_explicit({"a": "1", "b": "1", "a, b": "2"}), "unknown item ' b' in bundle key 'a, b'"),
    (_explicit({"a": "1"}, items=("a", "b", "c")),
     "valuations[0]: explicit table is missing 6 bundles, e.g. mask 2"),
    (_explicit({"a": "1", "b": "2", "a,b": "3"}, items=("a", "b", "c")),
     "valuations[0]: explicit table is missing 4 bundles, e.g. mask 4"),
    (_explicit({"a": "1", "b": "x", "a,b": "y"}),
     "valuations[0]['b']: cannot parse exact value from 'x'"),
    (_explicit({"a": True, "b": "x", "a,b": "2"}), "valuations[0]['a']: boolean is not a value"),
    (_explicit({"a": "1", "b": 1, "a,b": False}),
     "valuations[0]['a,b']: boolean is not a value"),
    (_explicit({"a": "1", "b": 1.5, "a,b": "2"}),
     "valuations[0]['b']: values must be strings or integers, got float"),
    (_explicit({"": "x", "a": "1", "b": "1", "a,b": "2"}),
     "valuations[0]['']: cannot parse exact value from 'x'"),
    # a bad value and a bad key are reported in document order
    (_explicit({"a": "x", "q": "1", "a,b": "2"}),
     "valuations[0]['a']: cannot parse exact value from 'x'"),
    (_explicit({"q": "1", "a": "x", "a,b": "2"}), "unknown item 'q' in bundle key 'q'"),
    # a "," in an item name makes keys ambiguous; such keys are read item by item
    (_explicit({"x,y": "1", "z": "1", "x,y,z": "2"}, items=("x,y", "z")),
     "unknown item 'x' in bundle key 'x,y'"),
], ids=["unknown-item", "unknown-first", "out-of-order", "repeated-item", "leading-comma",
        "space", "missing-6", "missing-4", "bad-value", "boolean", "boolean-last", "float",
        "bad-empty-value", "value-before-key", "key-before-value", "comma-in-name"])
def test_malformed_explicit_tables_keep_their_messages(text, message):
    with pytest.raises(DocumentError) as exc:
        loads_instance(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    '{"items": ["a"], "items": ["a", "b"], "agents": 2, "identical": true,'
    ' "valuations": [{"kind": "additive", "values": {"a": "1", "b": "1"}}]}',
    '{"items": ["a", "b"], "agents": 2, "identical": true, "valuations":'
    ' [{"kind": "explicit", "values": {"a": "1", "a": "7", "b": "1", "a,b": "2"}}]}',
    '{"items": ["a", "b"], "agents": 2, "identical": true, "valuations":'
    ' [{"kind": "additive", "kind": "explicit", "values": {"a": "1", "b": "1", "a,b": "2"}}]}',
    '{"items": ["a"], "valuations": [{"kind": "additive", "values": {"a": "1", "a": "2"}},'
    ' {"kind": "additive", "values": {"a": "1"}}]}',
], ids=["items", "bundle-key", "kind", "additive-item"])
def test_duplicate_json_keys_are_rejected(text):
    with pytest.raises(DocumentError, match="duplicate key"):
        loads_instance(text)


def test_duplicate_json_keys_in_allocations_are_rejected():
    with pytest.raises(DocumentError, match="duplicate key 'bundles'"):
        loads_allocation(T1, '{"bundles": [["a"], ["b", "c", "d"]],'
                             ' "bundles": [["a", "b"], ["c", "d"]]}')
    assert loads_allocation(T1, '{"bundles": [["a"], ["b", "c", "d"]]}') == (0b0001, 0b1110)


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
