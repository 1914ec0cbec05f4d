"""The CLI's experiment record: CSV columns plus the JSON summary.

Only `curvelab.cli` builds these; the library returns plain values.  The
columns go to the CSV only, one header cell per key, where floats print with
17 significant digits so they round-trip float64 exactly.  The JSON holds
what the CSV cannot: the fitted values, the verdict, the flags, the runtime
and the config echo used for replay.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["ExperimentReport", "format_value"]


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class ExperimentReport:
    columns: dict  # CSV header cell -> the column's values, a list or an array
    fitted: dict = field(default_factory=dict)
    passed: Optional[bool] = None
    flags: dict = field(default_factory=dict)
    name: str = ""
    runtime_s: float = 0.0
    config: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.columns)
            for row in zip(*cells):
                w.writerow([format_value(v) for v in row])

    def to_json(self, path) -> None:
        doc = {
            "name": self.name,
            "fitted": self.fitted,
            "passed": self.passed,
            "flags": self.flags,
            "runtime_s": self.runtime_s,
            "config": self.config,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, default=_jsonable)


def _jsonable(v):
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")
