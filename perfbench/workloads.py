"""The benchmark's workloads: what each one runs and how it is checked.

Every repetition runs in a fresh process (see ``child.py``), so the
program's in-process caches start cold, as they do for every CLI
invocation.  A workload has three parts:

* ``prepare()`` imports what the work needs and names the cell
  libraries to build; both belong to set-up, not to the measured work;
* ``run(seed, workdir, recorder)`` does the fixed work once;
* the same call checks the outputs and returns the operation counts.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import statistics
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).resolve().parent
                       / "expected.json").read_text())


def frontier_results(document: dict) -> dict:
    """The results in a ``repro dse --json`` frontier document.

    Leaves out its bookkeeping: checkpoint keys, cache hits and the
    provenance rows' stage counts and trace digests follow the store
    format, the stage layout and the tracer, not the flow's outputs.
    """
    return {
        "points": [{field: point[field] for field in
                    ("assignment", "objectives", "cost", "on_front")}
                   for point in document["points"]],
        "frontier": {field: document["frontier"][field] for field in
                     ("indices", "ideal", "nadir", "hypervolume", "knee",
                      "best")},
        "failures": [{field: failure[field] for field in
                      ("assignment", "error", "message")}
                     for failure in document["failures"]],
    }


def frontier_digest(text: str) -> str:
    """sha256 of a frontier document's results, canonically encoded."""
    return hashlib.sha256(json.dumps(
        frontier_results(json.loads(text)), sort_keys=True).encode()
    ).hexdigest()


class TablesSeq:
    """Regenerate the paper's core tables in one process, sequentially.

    The five 45 nm iso-performance comparisons (ten flows) behind Tables
    4, 13, 16 and Fig. 3, plus Table 2's transistor-level cell
    characterization, with no checkpoint store: what ``repro bench
    table2 table4 table13 table16 fig3`` does, without printing.  The
    model layers do all the work; the store and the pool do none.  The
    paper's netlist seed is fixed, because the goldens pin it.
    """

    ids = ("table2", "table4", "table13", "table16", "fig3")
    libraries = (("45nm", False), ("45nm", True))

    def prepare(self) -> None:
        from repro.check.goldens import row_digest
        from repro.experiments import EXPERIMENTS

        self.row_digest = row_digest
        self.modules = {
            experiment: importlib.import_module(
                f"repro.experiments.{EXPERIMENTS[experiment]}")
            for experiment in self.ids}
        self.goldens = {
            experiment: json.loads(
                (ROOT / "goldens" / f"{experiment}.json").read_text())
            ["digest"]
            for experiment in self.ids}

    def run(self, seed: int, workdir: Path, recorder) -> Dict[str, object]:
        attempted = failed = 0
        mismatched = []
        produced = {}
        for experiment in self.ids:
            index = recorder.begin("experiments") if recorder else None
            rows = self.modules[experiment].run()
            if recorder:
                recorder.end(index)
            produced[experiment] = rows
            attempted += len(rows)
            if self.row_digest(rows) != self.goldens[experiment]:
                failed += len(rows)
                mismatched.append(experiment)
        return {"attempted": attempted, "failed": failed,
                "mismatched": mismatched,
                "paper_err_pp": self.paper_error(produced["table4"])}

    def paper_error(self, rows) -> float:
        """Mean |measured - paper| of Table 4's total-power change, in
        percentage points, over the five circuits."""
        paper = self.modules["table4"].PAPER
        return statistics.fmean(
            abs(float(row["total power"].rstrip("%"))
                - paper[row["circuit"].lower()][2])
            for row in rows)


class SweepJ2:
    """A late-stage design-space sweep around one design, two workers.

    ``repro -j 2 dse fpu --scale 0.5`` over a 3 x 3 grid of router
    detour coefficient and primary-input activity (grid strategy,
    default objectives), on a fresh ephemeral store.  Both workers start
    cold on the shared synthesis and placement stages; each detour value
    re-routes and re-optimizes, each activity value recomputes only
    power, and the provenance pass replays the frontier from the store.
    The netlist seed is the default, 0: other seeds change the sweep's
    work by several percent, which would add to the run-to-run spread.
    """

    axes = (("router_detour_coeff", (0.3, 0.5, 0.7)),
            ("pi_activity", (0.1, 0.2, 0.3)))
    libraries = (("45nm", False),)

    def prepare(self) -> None:
        from repro import cli

        # Imported lazily by the dse command; import them in set-up.
        importlib.import_module("repro.dse")
        importlib.import_module("repro.parallel")
        self.cli = cli
        self.frontier = EXPECTED["sweep-j2"]["results_sha256"]

    def argv(self, out: Path, jobs: int = 2):
        command = ["-j", str(jobs), "dse", "fpu", "--scale", "0.5"]
        for name, values in self.axes:
            command += ["--set", f"{name}={','.join(map(str, values))}"]
        return command + ["--json", str(out)]

    def run(self, seed: int, workdir: Path, recorder) -> Dict[str, object]:
        out = workdir / "frontier.json"
        status = self.cli.main(self.argv(out))
        attempted = math.prod(len(values) for _, values in self.axes)
        ok = False
        if status == 0 and out.exists():
            text = out.read_text()
            ok = (frontier_digest(text) == self.frontier
                  and all(row["replay_ok"]
                          for row in json.loads(text)["provenance"]))
        return {"attempted": attempted, "failed": 0 if ok else attempted,
                "mismatched": [] if ok else ["frontier"],
                "paper_err_pp": None}


WORKLOADS = {"tables-seq": TablesSeq, "sweep-j2": SweepJ2}
