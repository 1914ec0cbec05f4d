"""Tabular experiment records with CSV/JSON serialization.

The rows go to the CSV only, where floats print with 17 significant digits
so they round-trip float64 exactly.  The JSON holds what the CSV cannot: the
fitted values, the verdict, the flags, the runtime and the config echo used
for replay.
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
    name: str
    rows: list = field(default_factory=list)
    fitted: dict = field(default_factory=dict)
    passed: Optional[bool] = None
    flags: dict = field(default_factory=dict)
    runtime_s: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def columns(self) -> list:
        return list(self.rows[0].keys()) if self.rows else []

    def to_csv(self, path) -> None:
        columns = self.columns
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(columns)
            for row in self.rows:
                w.writerow([format_value(row.get(c)) for c in columns])

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "fitted": self.fitted,
            "passed": self.passed,
            "flags": self.flags,
            "runtime_s": self.runtime_s,
            "config": self.config,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, default=_jsonable)


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
