"""Golden regression corpus over the paper tables/figures.

A *golden* is a checked-in JSON snapshot of one experiment's measured
rows (``goldens/<id>.json``): the rows themselves, a canonical sha256
digest (the same canonicalization ``repro bench --report`` uses, so the
sequential-vs-parallel determinism check and this gate agree), and
per-column tolerance annotations.

The comparison harness distinguishes three outcomes:

* **match** — the digests are byte-identical (the expected state: the
  flow is deterministic),
* **drift** — rows differ but every numeric deviation is inside its
  column's tolerance (reported, still passing — e.g. a float-summation
  reorder),
* **regression** — a numeric deviation outside tolerance, or any
  *structural* change: different row count, different columns, a
  non-numeric cell that changed.  CI fails; the author must regenerate
  the goldens explicitly (``repro goldens --update-goldens``) to assert
  the shift is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

GOLDEN_SCHEMA = 1

# The corpus: every all-numbers paper table/figure the flow reproduces
# end to end (Tables 2/4/7/13/14/16, Figs 3/4/11), plus the scenario-space
# extensions (4-tier fold, mesh NoC).  Fig. 11 is the one entry that
# pins power away from the default activity factors.
GOLDEN_EXPERIMENTS = ("table2", "table4", "table7", "table13", "table14",
                      "table16", "fig3", "fig4", "fig11", "scn4t",
                      "scnnoc")

# Number-bearing string cells: "+41.7%", "-12.3", "0.25 ns", "1.28x".
_NUMERIC_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
                         r"\s*(%|x|ns|ps|um|mW)?\s*$")


def default_golden_dir() -> Path:
    """``$REPRO_GOLDEN_DIR``, else ``goldens/`` at the repo root."""
    env = os.environ.get("REPRO_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "goldens"


def row_digest(rows: Sequence[Dict[str, object]]) -> str:
    """Canonical digest of measured rows (same as ``bench --report``)."""
    return hashlib.sha256(
        json.dumps(list(rows), sort_keys=True, default=str).encode()
    ).hexdigest()


def parse_numeric(value: object) -> Optional[float]:
    """The number inside a cell, or None for genuinely textual cells."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        m = _NUMERIC_RE.match(value)
        if m:
            return float(m.group(1))
    return None


def default_tolerance(column: str, value: object) -> Dict[str, float]:
    """Per-column tolerance for golden generation.

    Percent-difference cells get an absolute band in percentage points;
    slack columns an absolute band in ps (they hover near zero where a
    relative test is meaningless); everything else a small relative
    band.  The bands absorb numeric drift (float reordering, library
    re-characterization noise), not behavioural change.
    """
    if isinstance(value, str) and value.rstrip().endswith("%"):
        return {"abs": 2.0, "rel": 0.0}
    lowered = column.lower()
    if "wns" in lowered or "slack" in lowered:
        return {"abs": 5.0, "rel": 0.0}
    if "utilization" in lowered or lowered.endswith("(%)"):
        return {"abs": 2.0, "rel": 0.0}
    return {"abs": 1e-9, "rel": 0.02}


@dataclass
class Deviation:
    """One golden-vs-measured cell (or structure) difference."""

    row: int
    column: str
    golden: object
    measured: object
    kind: str             # "numeric" | "structural"
    within: bool          # inside tolerance (always False for structural)

    def describe(self) -> str:
        mark = "within tol" if self.within else "OUT OF TOLERANCE"
        return (f"row {self.row} [{self.column}]: golden={self.golden!r} "
                f"measured={self.measured!r} ({self.kind}, {mark})")


@dataclass
class GoldenDiff:
    """Outcome of comparing measured rows against one golden."""

    experiment: str
    status: str           # "match" | "drift" | "regression" | "missing"
    deviations: List[Deviation] = field(default_factory=list)
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("match", "drift")

    def summary(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "status": self.status,
            "deviations": len(self.deviations),
            "out_of_tolerance": sum(1 for d in self.deviations
                                    if not d.within),
            "message": self.message,
        }


def golden_path(experiment: str,
                directory: Optional[Path] = None) -> Path:
    return (directory or default_golden_dir()) / f"{experiment}.json"


def load_golden(experiment: str,
                directory: Optional[Path] = None) -> Optional[Dict]:
    path = golden_path(experiment, directory)
    if not path.exists():
        return None
    with open(path) as stream:
        return json.load(stream)


def make_golden(experiment: str,
                rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The golden payload for one experiment's measured rows."""
    tolerances: Dict[str, Dict[str, float]] = {}
    for row in rows:
        for column, value in row.items():
            if column not in tolerances and parse_numeric(value) is not None:
                tolerances[column] = default_tolerance(column, value)
    return {
        "experiment": experiment,
        "schema": GOLDEN_SCHEMA,
        "digest": row_digest(rows),
        "tolerances": tolerances,
        "rows": [dict(row) for row in rows],
    }


def write_golden(experiment: str, rows: Sequence[Dict[str, object]],
                 directory: Optional[Path] = None) -> Path:
    path = golden_path(experiment, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as stream:
        json.dump(make_golden(experiment, rows), stream, indent=2,
                  sort_keys=True)
        stream.write("\n")
    return path


def compare_rows(golden: Dict[str, object],
                 rows: Sequence[Dict[str, object]]) -> GoldenDiff:
    """Tolerance-aware comparison of measured rows against a golden."""
    experiment = str(golden.get("experiment", "?"))
    golden_rows = golden.get("rows", [])
    if row_digest(rows) == golden.get("digest"):
        return GoldenDiff(experiment=experiment, status="match",
                          message="digests identical")

    deviations: List[Deviation] = []
    if len(rows) != len(golden_rows):
        return GoldenDiff(
            experiment=experiment, status="regression",
            message=(f"row count changed: golden {len(golden_rows)}, "
                     f"measured {len(rows)} (structural)"))

    tolerances: Dict[str, Dict[str, float]] = golden.get("tolerances", {})
    for i, (want, got) in enumerate(zip(golden_rows, rows)):
        if set(want) != set(got):
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            return GoldenDiff(
                experiment=experiment, status="regression",
                message=(f"row {i} columns changed: missing {missing}, "
                         f"extra {extra} (structural)"))
        for column in want:
            gv, mv = want[column], got[column]
            if gv == mv:
                continue
            gn, mn = parse_numeric(gv), parse_numeric(mv)
            if gn is None or mn is None:
                deviations.append(Deviation(
                    row=i, column=column, golden=gv, measured=mv,
                    kind="structural", within=False))
                continue
            tol = tolerances.get(column,
                                 default_tolerance(column, gv))
            band = max(tol.get("abs", 0.0),
                       tol.get("rel", 0.0) * abs(gn))
            deviations.append(Deviation(
                row=i, column=column, golden=gv, measured=mv,
                kind="numeric", within=abs(mn - gn) <= band))

    if any(not d.within for d in deviations):
        return GoldenDiff(experiment=experiment, status="regression",
                          deviations=deviations,
                          message="deviation(s) outside tolerance")
    return GoldenDiff(experiment=experiment, status="drift",
                      deviations=deviations,
                      message="numeric drift within tolerance")


def check_golden(experiment: str, rows: Sequence[Dict[str, object]],
                 directory: Optional[Path] = None) -> GoldenDiff:
    """Compare measured rows against the checked-in golden."""
    golden = load_golden(experiment, directory)
    if golden is None:
        return GoldenDiff(
            experiment=experiment, status="missing",
            message=(f"no golden at {golden_path(experiment, directory)}; "
                     f"generate with `repro goldens --update-goldens`"))
    return compare_rows(golden, rows)
