"""Output checks: stored references for two seeds, invariants for the rest.

Reports are flattened to ``{"a/b/c": leaf}`` dicts.  Against a stored
reference (``reference/<workload>_seed<n>.json``):

* strings, bools, ints and integral floats (cycles, bytes, MAC counts,
  win/loss winners) must match exactly;
* training accuracies must match within :data:`ACC_ATOL`;
* every other float (EDP, speedup ratios, retained-score fractions) must
  match within :data:`FLOAT_RTOL` relative.

``ACC_ATOL`` admits the ~1e-15 drift a float summation-order change
leaves in a mean accuracy, and still catches a single flipped test
prediction (at least 1/160: the proxy test sets hold 80 to 160 samples).  Any other seed is
checked for invariants only, and its output digest is printed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List

#: Absolute tolerance on training accuracies (see module docstring).
ACC_ATOL = 1e-9
#: Relative tolerance on non-integral floats other than accuracies.
FLOAT_RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (0, 1000)


def flatten(obj: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts/lists/dataclasses to ``{path: leaf}``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        if hasattr(obj, "item"):  # numpy scalar
            obj = obj.item()
        return {prefix: obj}
    out: Dict[str, Any] = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}/{key}" if prefix else str(key)))
    return out


def _is_accuracy(report: str, path: str) -> bool:
    return report == "table1" or (report == "fig1" and path.endswith("/quality"))


def _leaf_matches(report: str, path: str, got: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if _is_accuracy(report, path):
            return abs(got - want) <= ACC_ATOL
        if want.is_integer():
            return got == want
        return math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    return type(got) is type(want) and got == want


def compare(report: str, got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Mismatches between a flattened report and its reference."""
    problems = [f"{report}: missing {k}" for k in sorted(want.keys() - got.keys())]
    problems += [f"{report}: unexpected {k}" for k in sorted(got.keys() - want.keys())]
    for key in sorted(want.keys() & got.keys()):
        if not _leaf_matches(report, key, got[key], want[key]):
            problems.append(f"{report}: {key} = {got[key]!r}, reference {want[key]!r}")
    return problems


def _finite(flat: Dict[str, Any]) -> List[str]:
    return [
        f"non-finite {k}"
        for k, v in flat.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


def invariants(report: str, output: Any) -> List[str]:
    """Seed-independent properties of one report's output."""
    flat = flatten(output)
    problems = _finite(flat)
    if report == "table1":
        problems += [f"accuracy {k}={v} outside [0,1]" for k, v in flat.items() if not 0 <= v <= 1]
    elif report == "fig1":
        for point in output["points"]:
            if not (0 <= point.quality <= 1 and point.cost > 0):
                problems.append(f"bad fig1 point {point}")
        if not output["frontier"] or any(p not in output["points"] for p in output["frontier"]):
            problems.append("fig1 frontier is empty or not a subset of the points")
    elif report == "scenarios":
        problems += _scenario_table_problems(output)
    elif report == "fig13":
        for model, row in output.items():
            if row["speedup"].get("TC") != 1.0 or any(v <= 0 for v in row["edp"].values()):
                problems.append(f"fig13 {model}: TC speedup not 1 or non-positive EDP")
    elif report == "wide":
        for scenario, row in output.items():
            for key, value in row.items():
                if key in ("greedy", "exact", "tsenor") and not 0 < value <= 1:
                    problems.append(f"wide {scenario}/{key} retained score {value} outside (0,1]")
    return problems


def _scenario_table_problems(output: Dict[str, Any]) -> List[str]:
    """A complete win/loss table: every family x regime x format x orientation."""
    from repro.formats.registry import available_formats
    from repro.workloads.scenarios import SCENARIO_FAMILIES, SCENARIO_PATTERNS

    problems = []
    winners = set(SCENARIO_PATTERNS) | {"tie"}
    for family in SCENARIO_FAMILIES:
        entry = output.get(family)
        if entry is None:
            problems.append(f"scenarios: family {family} missing")
            continue
        if set(entry["patterns"]) != set(SCENARIO_PATTERNS):
            problems.append(f"scenarios {family}: regimes {sorted(entry['patterns'])}")
        if any(row["cycles"] <= 0 for row in entry["patterns"].values()):
            problems.append(f"scenarios {family}: non-positive cycles")
        if entry["cycle_winner"] not in winners:
            problems.append(f"scenarios {family}: cycle_winner {entry['cycle_winner']!r}")
        if list(entry["formats"]) != list(available_formats()):
            problems.append(f"scenarios {family}: formats {list(entry['formats'])}")
        for fmt, per_orient in entry["formats"].items():
            for orient in ("forward", "transposed"):
                row = per_orient.get(orient, {})
                if row.get("winner") not in winners or any(
                    not row.get(p, 0) > 0 for p in SCENARIO_PATTERNS
                ):
                    problems.append(f"scenarios {family}/{fmt}/{orient}: incomplete row {row}")
    return problems


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}_seed{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def digest(flat_reports: Dict[str, Dict[str, Any]]) -> str:
    blob = json.dumps(flat_reports, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
