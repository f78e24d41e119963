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
    _complete,
    joined_by_mask,
    names_of,
    validate_allocation,
)
from .values import Value, as_value, format_value


class DocumentError(Exception):
    """Malformed instance or allocation document."""


# ---------------------------------------------------------------------------
# bundle keys

def bundle_keys(item_names: Sequence[str]) -> list:
    """The canonical key of every bundle, indexed by mask."""
    return joined_by_mask(item_names, ",")


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


def _value_in(raw: object, where: str, name: str) -> Value:
    """The value ``raw`` of the entry ``name`` in ``where``; the error message
    is formatted only when there is an error."""
    if isinstance(raw, bool):
        reason = "boolean is not a value"
    elif isinstance(raw, int):
        return raw
    elif isinstance(raw, str):
        try:
            return as_value(raw)
        except ValueError as exc:
            reason = str(exc)
    else:
        reason = f"values must be strings or integers, got {type(raw).__name__}"
    raise DocumentError(f"{where}[{name!r}]: {reason}")


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for :func:`json.loads`: a JSON object as a dict,
    rejecting a key given twice."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _parse(text: str) -> object:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


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
    mask_of: dict = {}  # canonical bundle key -> mask, built at the first explicit table

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
                per_item[name] = _value_in(v, where, name)
            missing = [n for n in item_names if n not in per_item]
            if missing:
                raise DocumentError(f"{where}: missing item value for {missing[0]!r}")
            return AdditiveValuation(tuple(per_item[n] for n in item_names))
        if kind == "explicit":
            if not mask_of and not any("," in name for name in item_names):
                # with a "," in a name, keys are ambiguous: mask_from_key reads each one
                mask_of.update((key, mask) for mask, key in enumerate(bundle_keys(item_names)))
            table: list = [None] * (1 << m)
            for key, v in values.items():  # in document order: the first bad entry is reported
                mask = mask_of.get(key)
                if mask is None:
                    mask = mask_from_key(item_names, key)  # raises: canonical keys are all known
                if type(v) is str:
                    value = parsed.get(v)
                    if value is None:
                        value = parsed[v] = _value_in(v, where, key)
                else:
                    value = _value_in(v, where, key)
                table[mask] = value
            try:
                return ExplicitValuation._exact(tuple(_complete(table)))
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


def _valuation_to_document(item_names, keys, v: Valuation) -> dict:
    if isinstance(v, AdditiveValuation):
        return {
            "kind": "additive",
            "values": {name: format_value(x) for name, x in zip(item_names, v.item_values)},
        }
    values = dict(zip(keys, map(format_value, v.table)))
    if v.table[0] == 0:
        del values[""]
    return {"kind": "explicit", "values": values}


def instance_to_document(inst: Instance, identical: Optional[bool] = None) -> dict:
    """Canonical document; collapses to one valuation when agents agree.

    ``identical=True`` raises ``ValueError`` when the agents' valuations
    differ, since the one valuation written would stand for all of them.
    """
    if identical is None:
        identical = inst.is_identical()
    elif identical and not inst.is_identical():
        raise ValueError("identical=True, but the agents' valuations differ")
    vals = inst.valuations[:1] if identical else inst.valuations
    explicit = not all(isinstance(v, AdditiveValuation) for v in vals)
    keys = bundle_keys(inst.item_names) if explicit else None
    return {
        "items": list(inst.item_names),
        "agents": inst.n,
        "identical": identical,
        "valuations": [_valuation_to_document(inst.item_names, keys, v) for v in vals],
    }


def dumps_instance(inst: Instance, identical: Optional[bool] = None) -> str:
    return json.dumps(instance_to_document(inst, identical), indent=2)


def loads_instance(text: str) -> Instance:
    return instance_from_document(_parse(text))


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
    return allocation_from_document(inst, _parse(text))


def dumps_allocation(inst: Instance, alloc: Allocation) -> str:
    return json.dumps(allocation_to_document(inst, alloc), indent=2)
