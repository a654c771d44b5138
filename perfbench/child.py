"""One repetition of a workload in a fresh process; ``run.py`` starts it.

    python3 perfbench/child.py --workload NAME --seed N --out PATH
                               [--setup-only] [--trace-dir DIR]

Set-up ends at ``ready``: interpreter start, the imports the workload
needs, the traced run's wrappers, and the cell libraries.  The fixed
work follows, with ``calibrate.Sampler`` timing its kernel in this
process and every worker.  The result is one JSON document at ``--out``
holding the ready time on the host's monotonic clock; the work's wall
seconds and CPU seconds (this process plus every worker it waited for),
as measured (``host_wall_s``, ``host_cpu_s``) and scaled to the
kernel's reference speed (``wall_s``, ``cpu_s``); the kernel's mean
wall time and sample count; the peak resident set of this process or
any worker; the host's steal seconds over the work; the output check
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent


def host_steal_s():
    """Seconds the hypervisor ran other guests on this host's CPUs."""
    try:
        with open("/proc/stat") as stream:
            fields = stream.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + workers.ru_utime + workers.ru_stime)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare()
    recorder = None
    if args.trace_dir:
        import layers

        recorder = layers.Recorder(Path(args.trace_dir))
        layers.install(recorder)
    from repro.flow.design_flow import library_for

    for node_name, is_3d in workload.libraries:
        library_for(node_name, is_3d)
    result = {"ready": time.monotonic()}

    if not args.setup_only:
        samples = Path(args.out).parent / "calibrate"
        samples.mkdir()
        sampler = calibrate.Sampler(samples, recorder)
        cpu_before, steal_before = cpu_s(), host_steal_s()
        start = time.monotonic()
        sampler.start()
        outcome = workload.run(args.seed, Path(args.out).parent, recorder)
        sampler.stop()
        wall = time.monotonic() - start
        cpu = cpu_s() - cpu_before
        kernel_wall, kernel_cpu = calibrate.load(samples)
        result["host_wall_s"], result["host_cpu_s"] = wall, cpu
        result["kernel_s"] = statistics.fmean(kernel_wall)
        result["samples"] = len(kernel_wall)
        result["wall_s"] = calibrate.reference_seconds(wall, kernel_wall)
        result["cpu_s"] = calibrate.reference_seconds(cpu, kernel_cpu)
        result["peak_rss_mb"] = peak_rss_mb()
        steal_after = host_steal_s()
        result["steal_s"] = (None if steal_before is None
                             else steal_after - steal_before)
        result.update(outcome)
        if recorder is not None:
            result["layers"] = layers.summarize(layers.collect(recorder))
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
