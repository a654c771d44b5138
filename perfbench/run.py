#!/usr/bin/env python3
"""Benchmark of the reproduction, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads (``workloads.py``): ``tables-seq`` regenerates the paper's core
tables, ``sweep-j2`` runs a design-space sweep on two workers.  Both run
on pinned inputs, the paper's netlist seed and the sweep's default seed,
because their reference outputs (the goldens, ``expected.json``) are
recorded for those; ``--seed`` is accepted and reported.

A run repeats the workload's fixed work until ``--seconds`` have passed
(at least once), every repetition in a fresh process with cold caches and
one BLAS/OpenMP thread; an untraced run then sets the program up on its
own until it has ``SETUP_SAMPLES`` set-up times.  It checks every
repetition's outputs and prints, as the last line of standard output, one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``wall_s`` (the fixed work, set-up excluded), ``cpu_s`` (user+sys of the
process and all its workers over the same interval), ``setup_s``
(process start to ready: interpreter, imports, cell libraries; median of
every set-up in the run) and ``peak_rss_mb`` (largest resident set of the
process or any worker; MB = 2**20 bytes).  ``wall_s`` and ``cpu_s`` are
reference seconds: the measured seconds scaled by how much slower than
its reference time a fixed calibration kernel ran in the same processes
during the work (``calibrate.py``), so that the shared host's changing
speed drops out; the measured seconds are printed beside them.
``setup_s`` is measured seconds: scaling did not steady it.
``--trace 1`` installs the per-layer wrappers of ``layers.py`` and
reports the per-layer metrics in measured seconds, plus
``experiments.paper_err_pp`` (Table 4's mean |measured - paper|
total-power change in percentage points; 0 where no Table 4 is made)
and ``trace.wall_s``, the traced run's ``wall_s`` in reference seconds:
tracing overhead is ``trace.wall_s`` minus the untraced ``wall_s``.

``attempted``/``failed`` count operations: experiment rows for the tables
(an experiment whose row digest differs from ``goldens/<id>.json`` fails
all its rows) and grid points for the sweep (a frontier whose results
hash differently from ``expected.json``, or a failed provenance replay,
fails the whole sweep).  Lines before the result give every
repetition's timings beside the host's steal time over it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per run: every repetition is one; set-up-only processes make up
# the rest.
SETUP_SAMPLES = 3
# Hard stop for one run: no repetition starts that would end past it,
# and a stuck one is killed there.
RUN_LIMIT_S = 165.0
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class ChildFailed(RuntimeError):
    pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(50):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


class Session:
    """The child processes of one run, all under one scratch directory."""

    def __init__(self, workload: str, seed: int, rundir: Path,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.deadline = deadline

    def child(self, tag: str, setup_only: bool = False,
              trace: bool = False) -> dict:
        workdir = self.rundir / tag
        (workdir / "tmp").mkdir(parents=True)
        out = workdir / "result.json"
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--out", str(out)]
        if setup_only:
            command.append("--setup-only")
        if trace:
            (workdir / "trace").mkdir()
            command += ["--trace-dir", str(workdir / "trace")]
        env = dict(os.environ, **ONE_THREAD,
                   PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir / "tmp"),
                   REPRO_CHECKPOINT_DIR=str(workdir / "store"))
        log_path = workdir / "log.txt"
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                status = proc.wait(
                    timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                status = "timeout"
            finally:
                _stop_group(proc)
        if status != 0 or not out.exists():
            tail = log_path.read_text()[-2000:]
            raise ChildFailed(f"{tag} ended with {status}:\n{tail}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - spawned
        return result


def measure(args: argparse.Namespace, session: Session):
    reps = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(session.child(f"rep{len(reps)}", trace=bool(args.trace)))
        now = time.monotonic()
        if now - start >= args.seconds:
            break
        if now + 1.5 * (now - began) > session.deadline:
            print(f"stopping after {len(reps)} repetition(s): another "
                  f"would pass the run's time limit", file=sys.stderr)
            break
    setups = [rep["setup_s"] for rep in reps]
    if not args.trace:
        setups += [session.child(f"setup{i}", setup_only=True)["setup_s"]
                   for i in range(SETUP_SAMPLES - len(reps))]
    return setups, reps


def report(args: argparse.Namespace, setups, reps) -> dict:
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"trace {args.trace}, set-ups (s): "
          + " ".join(f"{setup:.3f}" for setup in setups))
    for number, rep in enumerate(reps, 1):
        steal = ("n/a" if rep["steal_s"] is None
                 else f"{rep['steal_s']:.2f}")
        print(f"  rep {number}: wall_s {rep['wall_s']:.3f} "
              f"(host {rep['host_wall_s']:.3f})  cpu_s {rep['cpu_s']:.3f} "
              f"(host {rep['host_cpu_s']:.3f})  kernel_ms "
              f"{1e3 * rep['kernel_s']:.2f} x {rep['samples']}  "
              f"peak_rss_mb {rep['peak_rss_mb']:.1f}  steal_s {steal}  "
              f"setup_s {rep['setup_s']:.3f}  "
              f"ops {rep['attempted']}  failed {rep['failed']}"
              + (f"  mismatched {rep['mismatched']}"
                 if rep["mismatched"] else ""))
    if reps[0]["paper_err_pp"] is not None:
        print(f"  paper_err_pp {reps[0]['paper_err_pp']:.4f} pp "
              f"(Table 4 total power, mean |measured - paper|)")

    def med(key):
        return stats.median([rep[key] for rep in reps])

    if args.trace:
        values = {name: stats.median([rep["layers"][name] for rep in reps])
                  for name in reps[0]["layers"]}
        values["experiments.paper_err_pp"] = reps[0]["paper_err_pp"] or 0.0
        values["trace.wall_s"] = med("wall_s")
    else:
        values = {"wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
                  "setup_s": stats.median(setups),
                  "peak_rss_mb": med("peak_rss_mb")}
    # Names and units are those BENCHMARK.json declares.
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in config["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name} {values[name]:.6g} {unit}")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(f"  {attempted} operation(s), {failed} failed "
          f"({stats.failure_share(failed, attempted):.1%})")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        setups, reps = measure(args, Session(args.workload, args.seed,
                                             rundir, deadline))
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report(args, setups, reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
