"""JSON documents for instances and allocations, and the bundle keys both use.

Witness and verdict documents are built by the CLI (``cli._witness_doc``).

Values are serialized as strings ("5", "3/2") so exactness survives JSON;
plain JSON integers are accepted on input.  Every input value is checked by
:func:`~fairkit.values.as_value`, whose message follows the entry's
``valuations[i]['key']: `` prefix.  Bundle keys are item names joined
by "," in the order of the ``items`` array, with "" denoting the empty
bundle, whose value defaults to 0 when omitted.  :func:`dumps_instance`
produces a canonical form: parsing and re-exporting a canonical document is
byte-identical.
"""

from __future__ import annotations

import json
from typing import Sequence

from .core import (
    AdditiveValuation,
    Allocation,
    ExplicitValuation,
    Instance,
    Valuation,
    check_item_names,
    check_size,
    joined_by_mask,
    mask_from_names,
    names_of,
    validate_allocation,
)
from .values import as_value, format_value


class DocumentError(Exception):
    """Malformed instance or allocation document."""


# ---------------------------------------------------------------------------
# bundle keys

def bundle_keys(item_names: Sequence[str]) -> list:
    """The canonical key of every bundle, indexed by mask."""
    return joined_by_mask(item_names, ",")


def mask_from_key(item_names: Sequence[str], key: str) -> int:
    """Parse a canonical bundle key; order must follow the items array."""
    names = key.split(",") if key else []
    try:
        mask = mask_from_names(item_names, dict.fromkeys(names))  # a repeat is not canonical
    except ValueError as exc:
        raise DocumentError(f"{exc} in bundle key {key!r}") from None
    if list(names_of(item_names, mask)) != names:
        raise DocumentError(
            f"bundle key {key!r} is not canonical (items must follow the items array order)"
        )
    return mask


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


def _checked(build, *args):
    """``build(*args)``, with its ``ValueError`` raised as a :class:`DocumentError`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


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
    item_names = tuple(items)
    _checked(check_item_names, item_names)  # before any bundle key is read
    m = len(item_names)

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
    _checked(check_size, agents, m)  # before any valuation is built or repeated

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
            try:
                for name, v in values.items():
                    if name not in item_names:
                        raise DocumentError(f"{where}: unknown item {name!r}")
                    per_item[name] = as_value(v)
            except ValueError as exc:
                raise DocumentError(f"{where}[{name!r}]: {exc}") from None
            missing = [n for n in item_names if n not in per_item]
            if missing:
                raise DocumentError(f"{where}: missing item value for {missing[0]!r}")
            return AdditiveValuation(tuple(per_item[n] for n in item_names))
        if kind == "explicit":
            if not mask_of:
                mask_of.update((key, mask) for mask, key in enumerate(bundle_keys(item_names)))
            table: list = [None] * (1 << m)
            try:
                for key, v in values.items():  # in document order: the first bad entry is reported
                    mask = mask_of.get(key)
                    if mask is None:
                        mask = mask_from_key(item_names, key)  # raises: each canonical key is known
                    if type(v) is str:
                        value = parsed.get(v)
                        if value is None:
                            value = parsed[v] = as_value(v)
                    else:
                        value = as_value(v)
                    table[mask] = value
            except ValueError as exc:
                raise DocumentError(f"{where}[{key!r}]: {exc}") from None
            if table[0] is None:  # the empty bundle defaults to 0
                table[0] = 0
            if None in table:
                raise DocumentError(f"{where}: explicit table is missing {table.count(None)} "
                                    f"bundles, e.g. mask {table.index(None)}")
            return ExplicitValuation._exact(tuple(table))
        raise DocumentError(f"{where}: 'kind' must be 'explicit' or 'additive'")

    valuations = [build(raw, idx) for idx, raw in enumerate(raw_vals)]
    if identical:
        valuations = valuations * agents
    return _checked(Instance, item_names, tuple(valuations))


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


def instance_to_document(inst: Instance) -> dict:
    """Canonical document; collapses to one valuation when agents agree."""
    identical = inst.is_identical()
    vals = inst.valuations[:1] if identical else inst.valuations
    explicit = not all(isinstance(v, AdditiveValuation) for v in vals)
    keys = bundle_keys(inst.item_names) if explicit else None
    return {
        "items": list(inst.item_names),
        "agents": inst.n,
        "identical": identical,
        "valuations": [_valuation_to_document(inst.item_names, keys, v) for v in vals],
    }


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_document(inst), indent=2)


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
        if not all(isinstance(name, str) for name in bundle):
            raise DocumentError(f"bundles[{k}] must contain item names")
        try:
            masks.append(mask_from_names(inst.item_names, bundle))
        except ValueError as exc:
            raise DocumentError(f"{exc} in bundles[{k}]") from None
    return _checked(validate_allocation, inst, masks)


def allocation_to_document(inst: Instance, alloc: Allocation) -> dict:
    return {"bundles": [list(names_of(inst.item_names, b)) for b in alloc]}


def loads_allocation(inst: Instance, text: str) -> Allocation:
    return allocation_from_document(inst, _parse(text))


def dumps_allocation(inst: Instance, alloc: Allocation) -> str:
    return json.dumps(allocation_to_document(inst, alloc), indent=2)
