"""Shared plumbing: deterministic JSON reports and CSV mirroring."""

from __future__ import annotations

import csv
import json
import operator
import time
from pathlib import Path

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


def _default(obj):
    import numpy as np
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)


def emit(rep: dict, out: str | None, csv_path: str | None = None) -> None:
    text = json.dumps(rep, indent=2, default=_default, sort_keys=True)
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


def load_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def as_int(value, what: str) -> int:
    """``value`` as an int: ints and integral floats pass, anything else
    (10.7, inf, nan, a string) raises ValueError instead of being truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)
