"""Configuration tables and their one checker.

Each input file (plant.json, control.json, a scenario, train-detector's
training config) declares its fields once, in a table of ``Field``
entries kept beside the code it configures, and ``check_fields`` walks
it: at load, and again at loop entry with the plant's n and n_c for the
per-joint lengths. A number is an int or a float: a boolean or a string
is never one. Every bad value raises ``ConfigError`` naming its field.
"""
from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass

import numpy as np

__all__ = ["ConfigError", "Field", "check_fields", "config_section"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class Field:
    """One field of a config table.

    ``kind`` is ``number``, ``integer``, ``string``, ``joints`` (per-joint
    numbers; one number stands for all joints unless ``scalar`` is False),
    ``indices`` (a list of joint indices), ``integers`` (a list of
    integers), ``object`` (keys from ``table``;
    with no table, its owner checks it) or ``objects`` (a list of
    such objects). ``bound`` is empty (finite only) or one or two limits
    joined by ``", "``, each ``"> x"``, ``">= x"``, ``"< x"`` or ``"<= x"``
    (``">= 0, < 1"``). ``size`` (``"n"`` or ``"n_c"``) is the plant size a joints
    field's length or an indices field's range is checked against."""

    kind: str = "number"
    bound: str = ""
    size: str = ""
    scalar: bool = True
    required: bool = False
    table: dict | None = None


_KIND_TEXT = {"number": "a single number", "integer": "an integer", "pose": "a list of numbers",
              "joints": "a number or a list of numbers", "indices": "a list of joint indices",
              "integers": "a list of integers"}
_BOUND_TEST = {">": np.greater, ">=": np.greater_equal, "<": np.less, "<=": np.less_equal}


def _check_numbers(value, spec: Field, name: str, sizes: dict | None) -> np.ndarray:
    """A number field's value as a float array, sized to the plant when
    ``sizes`` is given; ConfigError unless it has the field's kind and bound."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    single = not isinstance(items, (list, tuple))
    if spec.kind in ("number", "integer"):
        shape_ok = single
    elif single:
        shape_ok = spec.kind == "joints" and spec.scalar
    else:
        shape_ok = len(items) > 0
    want = numbers.Integral if spec.kind in ("integer", "indices", "integers") else numbers.Real
    seq = [items] if single else items
    text = _KIND_TEXT["pose" if spec.kind == "joints" and not spec.scalar else spec.kind]
    must = f"{name} must be {text}{' ' + spec.bound if spec.bound else ''}"
    if not shape_ok or not all(isinstance(x, want) and not isinstance(x, bool) for x in seq):
        raise ConfigError(must)
    try:
        arr = np.array(seq, dtype=float)
    except OverflowError:  # an integer beyond the float range
        arr = np.array([np.inf])
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} has a non-finite value")
    for limit in filter(None, spec.bound.split(", ")):
        op, value = limit.split()
        if not _BOUND_TEST[op](arr, float(value)).all():
            raise ConfigError(must)
    if sizes is None or not spec.size:
        return arr
    size = sizes[spec.size]
    if spec.kind == "indices":
        if (arr >= size).any():
            raise ConfigError(f"{name} must be joint indices below {size}")
    elif single:
        arr = np.full(size, arr[0])
    elif arr.size != size:
        raise ConfigError(f"{name} must have length {size}")
    return arr


def check_fields(values, table: dict, name: str, sizes: dict | None = None) -> dict:
    """Check a config object (a dict from a file, or a config dataclass)
    against its table of Fields, in table order; ``name`` labels it in
    messages, a field as ``f"{name} {key}"``. With ``sizes`` ({"n": ...,
    "n_c": ...}) the per-joint lengths and joint indices are checked against
    the plant. Returns each joints field as a float array (a single number
    repeated once sized) and each object field's own such dict.
    ConfigError names the first field that breaks its entry."""
    values = vars(values) if is_dataclass(values) else values
    if not isinstance(values, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(values) - set(table)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    out = {}
    for key, spec in table.items():
        if key not in values:
            if spec.required:
                raise ConfigError(f"{name} needs field {key!r}")
            continue
        value, label = values[key], f"{name} {key}"
        if spec.kind == "string":
            if not isinstance(value, str):
                raise ConfigError(f"{label} must be a string")
        elif spec.kind == "object":
            if spec.table is not None:
                out[key] = check_fields(value, spec.table, label, sizes)
        elif spec.kind == "objects":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{label} must be a list of objects")
            for i, item in enumerate(value):
                check_fields(item, spec.table, f"{label}[{i}]", sizes)
        else:
            arr = _check_numbers(value, spec, label, sizes)
            if spec.kind == "joints":
                out[key] = arr
    return out


@contextmanager
def config_section(name: str):
    """Turn a bad value's TypeError or ValueError, or an unreadable file,
    into a ConfigError naming it."""
    try:
        yield
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
