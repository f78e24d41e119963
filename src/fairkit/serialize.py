"""JSON documents for instances, allocations and witnesses.

Values are serialized as strings ("5", "3/2") so exactness survives JSON;
plain JSON integers are accepted on input.  Bundle keys are item names joined
by "," in the order of the ``items`` array, with "" denoting the empty
bundle, whose value defaults to 0 when omitted.  :func:`dumps_instance`
produces a canonical form: parsing and re-exporting a canonical document is
byte-identical.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .core import (
    DEFAULT_AGENT_CAP,
    DEFAULT_ITEM_CAP,
    AdditiveValuation,
    Allocation,
    ExplicitValuation,
    Instance,
    Valuation,
    names_of,
    validate_allocation,
)
from .values import Value, as_value, format_value


class DocumentError(Exception):
    """Malformed instance or allocation document."""


# ---------------------------------------------------------------------------
# bundle keys

def bundle_key(item_names: Sequence[str], mask: int) -> str:
    return ",".join(names_of(item_names, mask))


def mask_from_key(item_names: Sequence[str], key: str) -> int:
    """Parse a canonical bundle key; order must follow the items array."""
    if key == "":
        return 0
    mask = 0
    last = -1
    for name in key.split(","):
        try:
            i = item_names.index(name)
        except ValueError:
            raise DocumentError(f"unknown item {name!r} in bundle key {key!r}") from None
        if i <= last:
            raise DocumentError(
                f"bundle key {key!r} is not canonical (items must follow the items array order)"
            )
        last = i
        mask |= 1 << i
    return mask


def _value_in(raw: object, where: str) -> Value:
    if isinstance(raw, bool):
        raise DocumentError(f"{where}: boolean is not a value")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return as_value(raw)
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    raise DocumentError(f"{where}: values must be strings or integers, got {type(raw).__name__}")


# ---------------------------------------------------------------------------
# instances

def instance_from_document(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise DocumentError("instance document must be a JSON object")
    items = doc.get("items")
    if (not isinstance(items, list) or not items
            or not all(isinstance(x, str) for x in items)):
        raise DocumentError("'items' must be a non-empty array of strings")
    if len(set(items)) != len(items):
        raise DocumentError("item names must be unique")
    item_names = tuple(items)
    m = len(item_names)
    if m > DEFAULT_ITEM_CAP:  # before any 2**m table is built
        raise DocumentError(f"item count {m} outside 1..{DEFAULT_ITEM_CAP}")

    identical = doc.get("identical", False)
    if not isinstance(identical, bool):
        raise DocumentError("'identical' must be a boolean")
    raw_vals = doc.get("valuations")
    if not isinstance(raw_vals, list) or not raw_vals:
        raise DocumentError("'valuations' must be a non-empty array")

    agents = doc.get("agents")
    if agents is not None and (isinstance(agents, bool) or not isinstance(agents, int)):
        raise DocumentError("'agents' must be an integer")
    if identical:
        if len(raw_vals) != 1:
            raise DocumentError("identical instances carry exactly one valuation object")
        if agents is None:
            raise DocumentError("identical instances must state 'agents'")
    else:
        if agents is None:
            agents = len(raw_vals)
        elif agents != len(raw_vals):
            raise DocumentError(
                f"'agents' is {agents} but {len(raw_vals)} valuations are given"
            )
    if agents > DEFAULT_AGENT_CAP:  # before any valuation is built or repeated
        raise DocumentError(f"agent count {agents} exceeds the cap of {DEFAULT_AGENT_CAP}")

    parsed: dict = {}  # value string -> value; each distinct string is parsed once

    def value_in(raw, where) -> Value:
        if not isinstance(raw, str):
            return _value_in(raw, where)
        found = parsed.get(raw)
        if found is None:
            found = parsed[raw] = _value_in(raw, where)
        return found

    def build(raw, idx) -> Valuation:
        where = f"valuations[{idx}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where} must be an object")
        kind = raw.get("kind")
        values = raw.get("values")
        if not isinstance(values, dict):
            raise DocumentError(f"{where}: 'values' must be an object")
        if kind == "additive":
            per_item = {}
            for name, v in values.items():
                if name not in item_names:
                    raise DocumentError(f"{where}: unknown item {name!r}")
                per_item[name] = value_in(v, f"{where}[{name!r}]")
            missing = [n for n in item_names if n not in per_item]
            if missing:
                raise DocumentError(f"{where}: missing item value for {missing[0]!r}")
            return AdditiveValuation(tuple(per_item[n] for n in item_names))
        if kind == "explicit":
            entries = {}
            for key, v in values.items():
                mask = mask_from_key(item_names, key)
                if mask in entries:
                    raise DocumentError(f"{where}: duplicate bundle key {key!r}")
                entries[mask] = value_in(v, f"{where}[{key!r}]")
            try:
                return ExplicitValuation.from_map(m, entries)
            except ValueError as exc:
                raise DocumentError(f"{where}: {exc}") from None
        raise DocumentError(f"{where}: 'kind' must be 'explicit' or 'additive'")

    valuations = [build(raw, idx) for idx, raw in enumerate(raw_vals)]
    if identical:
        valuations = valuations * agents
    try:
        return Instance(item_names, tuple(valuations))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _valuation_to_document(item_names, v: Valuation) -> dict:
    if isinstance(v, AdditiveValuation):
        return {
            "kind": "additive",
            "values": {name: format_value(x) for name, x in zip(item_names, v.item_values)},
        }
    values = {}
    if v.table[0] != 0:
        values[""] = format_value(v.table[0])
    for mask in range(1, len(v.table)):
        values[bundle_key(item_names, mask)] = format_value(v.table[mask])
    return {"kind": "explicit", "values": values}


def instance_to_document(inst: Instance, identical: Optional[bool] = None) -> dict:
    """Canonical document; collapses to one valuation when agents agree."""
    if identical is None:
        identical = inst.is_identical()
    vals = inst.valuations[:1] if identical else inst.valuations
    return {
        "items": list(inst.item_names),
        "agents": inst.n,
        "identical": identical,
        "valuations": [_valuation_to_document(inst.item_names, v) for v in vals],
    }


def dumps_instance(inst: Instance, identical: Optional[bool] = None) -> str:
    return json.dumps(instance_to_document(inst, identical), indent=2)


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    return instance_from_document(doc)


# ---------------------------------------------------------------------------
# allocations

def allocation_from_document(inst: Instance, doc: dict) -> Allocation:
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise DocumentError("allocation document must be an object with 'bundles'")
    bundles = doc["bundles"]
    if not isinstance(bundles, list):
        raise DocumentError("'bundles' must be an array of arrays of item names")
    masks = []
    for k, bundle in enumerate(bundles):
        if not isinstance(bundle, list):
            raise DocumentError(f"bundles[{k}] must be an array of item names")
        mask = 0
        for name in bundle:
            if not isinstance(name, str):
                raise DocumentError(f"bundles[{k}] must contain item names")
            try:
                i = inst.item_names.index(name)
            except ValueError:
                raise DocumentError(f"unknown item {name!r} in bundles[{k}]") from None
            bit = 1 << i
            if mask & bit:
                raise DocumentError(f"duplicate item {name!r} in bundles[{k}]")
            mask |= bit
        masks.append(mask)
    try:
        return validate_allocation(inst, masks)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def allocation_to_document(inst: Instance, alloc: Allocation) -> dict:
    return {"bundles": [list(names_of(inst.item_names, b)) for b in alloc]}


def loads_allocation(inst: Instance, text: str) -> Allocation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    return allocation_from_document(inst, doc)


def dumps_allocation(inst: Instance, alloc: Allocation) -> str:
    return json.dumps(allocation_to_document(inst, alloc), indent=2)
