"""Shared plumbing: deterministic strict-JSON reports, CSV mirroring and
the field readers every JSON constructor validates its input with."""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import reprlib
import time
from pathlib import Path

import numpy as np

SCHEMA = "gst-1"


def report(command: str, params: dict, results: dict,
           started: float, meta: dict | None = None) -> dict:
    """The report; ``meta`` adds work counters next to the runtime and
    stays out of the deterministic ``results``."""
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "results": results,
        "meta": {
            "runtime_s": round(time.time() - started, 6),
            **(meta or {}),
        },
    }


def _plain(obj):
    """``obj`` as plain JSON values: numpy values, complex numbers and
    objects converted, and every non-finite float made None."""
    if isinstance(obj, float):  # numpy float64 too
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return _plain(obj.tolist())
    if isinstance(obj, complex):
        return _plain({"re": obj.real, "im": obj.imag})
    if hasattr(obj, "__dict__"):
        return _plain(obj.__dict__)
    return str(obj)


def nan_field(obj, path: str = "results") -> str | None:
    """The path of the first NaN in a results block, or None."""
    if isinstance(obj, float):
        return path if math.isnan(obj) else None
    if isinstance(obj, dict):
        items = ((f"{path}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for where, value in items:
        if (found := nan_field(value, where)) is not None:
            return found
    return None


def emit(rep: dict, out: str | None, csv_path: str | None = None) -> None:
    """Write the report as strict JSON: a non-finite float becomes null."""
    rep = _plain(rep)
    text = json.dumps(rep, indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if csv_path:
        rows = _tabular_rows(rep.get("results", {}))
        if rows:
            write_csv(csv_path, rows)


def _tabular_rows(results: dict):
    for value in results.values():
        if (isinstance(value, list) and value
                and all(isinstance(r, dict) for r in value)):
            return value
    return None


def write_csv(path: str, rows: list) -> None:
    keys = sorted({k for r in rows for k in r})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in keys})


# -- field readers: each returns the value it checked or raises a
# ValueError that names the field ---------------------------------------------

def _invalid(what: str, need: str, value) -> ValueError:
    return ValueError(f"{what} must be {need}, got {reprlib.repr(value)}")


def as_int(value, what: str) -> int:
    """``value`` as an int: ints and integral floats pass, anything else
    (10.7, inf, nan, a string, a bool) raises ValueError instead of being
    truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise _invalid(what, "an integer", value)
    return operator.index(value)


def as_float(value, what: str) -> float:
    """``value`` as a finite float: real numbers pass; NaN, infinities,
    bools, strings and None raise ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise _invalid(what, "a finite number", value)


def as_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise _invalid(what, "a string", value)
    return value


def as_list(value, what: str, length: int | None = None) -> list:
    """``value`` as a list: a JSON array (or a tuple), of ``length``
    entries when given."""
    if not isinstance(value, (list, tuple)):
        raise _invalid(what, "a list", value)
    if length is not None and len(value) != length:
        raise _invalid(what, f"a list of {length}", value)
    return list(value)


def as_floats(value, what: str, length: int | None = None) -> list:
    """A flat list of finite numbers, each read by ``as_float``."""
    return [as_float(x, what) for x in as_list(value, what, length)]


def as_dict(value, what: str) -> dict:
    """``value`` as a JSON object (any keys)."""
    if not isinstance(value, dict):
        raise _invalid(what, "a JSON object", value)
    return value


def fields(obj, what: str, *required: str, optional=()) -> dict:
    """``obj`` if it is a JSON object holding every ``required`` key and no
    key outside ``required`` and ``optional``."""
    as_dict(obj, what)
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} needs the field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has the unknown field "
                             f"{reprlib.repr(key)}")
    return obj
