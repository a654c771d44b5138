#!/usr/bin/env python3
"""Record the sweep's expected frontier digest in ``expected.json``.

    python3 perfbench/record_frontiers.py

Runs the ``sweep-j2`` workload's ``repro dse`` command twice, with one
worker and with two, each in a fresh process; requires the two frontier
documents to be byte-identical; and writes the sha256 digest of their
results (``workloads.frontier_results``) to ``perfbench/expected.json``.
Run it only for a change that is meant to alter the sweep's results, and
say so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import ONE_THREAD, ROOT
from workloads import SweepJ2, frontier_digest

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def frontier_document(jobs: int, workdir: Path) -> str:
    out = workdir / f"frontier-j{jobs}.json"
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(workdir))
    subprocess.run([sys.executable, "-m", "repro"]
                   + SweepJ2().argv(out, jobs=jobs),
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return out.read_text()


def main() -> int:
    workdir = ROOT / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        one, two = (frontier_document(jobs, workdir) for jobs in (1, 2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if one != two:
        print("-j 1 and -j 2 frontier documents differ", file=sys.stderr)
        return 1
    digest = frontier_digest(one)
    EXPECTED.write_text(json.dumps(
        {"sweep-j2": {"results_sha256": digest}}, indent=2) + "\n")
    print(f"sweep-j2 frontier results sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
