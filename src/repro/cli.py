"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compare CIRCUIT        iso-performance 2D vs T-MI comparison (Table 4 row)
experiment ID          regenerate one paper table/figure (e.g. table4, fig3)
trace ID               run one experiment under the span tracer; print a
                       per-stage/per-kernel summary (default), the full
                       trace as JSON (``--json``), or write a Chrome
                       ``traceEvents`` file (``--chrome PATH``)
bench [ID ...]         regenerate several tables/figures as one session,
                       deduplicating and (with --jobs) parallelizing the
                       shared flow runs
audit [CIRCUIT ...]    run the flow and every invariant check
                       (placement legality, routing opens/shorts/capacity,
                       STA consistency, power accounting, 2D<->T-MI
                       conservation); exit 1 on any error finding.
                       ``--inject KIND`` plants a defect first to prove
                       the checks catch it
goldens [ID ...]       compare regenerated paper rows against the
                       checked-in golden corpus (goldens/*.json);
                       ``--update-goldens`` rewrites the corpus
store fsck|gc|stats    maintain the on-disk checkpoint store: verify and
                       repair entries (``fsck`` exits 0 when clean, 1
                       when problems were repaired/quarantined, 2 on
                       unrepairable I/O errors), evict LRU entries down
                       to a budget (``gc``), or report inventory and
                       reclaimable space (``stats``)
dse [CIRCUIT]          explore a declarative design space: sweep axes
                       (``--set FIELD=V1,V2,...`` or ``--space FILE``),
                       grid or adaptive-refinement strategy, weighted
                       cost function, Pareto frontier with per-point
                       checkpoint provenance; ``--json [PATH]`` emits
                       the deterministic frontier report
whatif CIRCUIT         digest-diff report of a parameter change (--set
                       KEY=VALUE) vs the base config: which flow stages
                       would reuse their checkpoints and which recompute;
                       ``whatif --list`` prints every sweepable field and
                       the stages it invalidates
cells                  list the characterized library
export-lib PATH        write the library as a Liberty .lib file
export-layout CIRCUIT PATH    run the flow, write a JSON layout summary
export-verilog CIRCUIT PATH   write a benchmark netlist as Verilog

Session flags (before the command)
----------------------------------
--jobs/-j N            run the session's deduplicated task graph on N
                       worker processes before assembling rows (results
                       are exchanged through the checkpoint store; table
                       output is byte-identical to a sequential run)
--resume               persist flow results to the on-disk checkpoint
                       store and reuse any already checkpointed run, so a
                       killed bench session continues where it stopped
--fresh                clear the checkpoint store first (use with
                       ``--resume`` to force recomputation)
--keep-going           degrade gracefully: a failed experiment row
                       becomes an error-marked row plus an exit summary
                       (exit code 1) instead of aborting the session
--timeout SECONDS      per-stage wall-clock budget for supervised flow
                       stages; a stage that overruns it stops at its
                       next deadline check (a kernel entry or the stage's
                       end) and fails with ``StageTimeoutError``
--checkpoint-dir PATH  where the checkpoint store lives (default:
                       ``$REPRO_CHECKPOINT_DIR`` or
                       ``~/.cache/repro/checkpoints``)
--profile              trace the invocation and print its run journal as
                       a per-stage wall/CPU/peak-RSS table after the
                       command output, plus flow metrics and the trace
                       digest; parallel sessions merge every worker into
                       one trace and one journal
--trace-out PATH       write the invocation's Chrome ``traceEvents``
                       trace to PATH (implies tracing on)
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.cells.folding import FOLD_STYLES
from repro.circuits.generators import BENCHMARKS
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.flow.reports import format_table
from repro.obs import trace as obs_trace
from repro.tech.miv import MIV_KOZ_DEFAULT
from repro.tech.node import node_names

# Default experiment set for `repro bench`: the group that shares the
# five 45 nm comparisons (the session with the most dedup to exploit).
BENCH_DEFAULT = ("table4", "table13", "table16", "fig3")

# Argument choices derive from the registries, so a new benchmark
# generator or technology node is immediately addressable everywhere.
CIRCUIT_CHOICES = sorted(BENCHMARKS)
NODE_CHOICES = node_names()
# The five paper benchmarks (Table 12) — the default audit set; the
# scenario workloads opt in by name.
PAPER_CIRCUITS = ("fpu", "aes", "ldpc", "des", "m256")


def _add_scenario_args(p) -> None:
    """The scenario knobs shared by flow-running commands."""
    p.add_argument("--tiers", type=int, default=2,
                   help="T-MI fold tier count (default 2, the paper)")
    p.add_argument("--fold-style", default="pn", choices=list(FOLD_STYLES),
                   help="how device polarities map to tiers (default pn); "
                        "gate places planar cells on 2 tiers (G-MI)")
    p.add_argument("--koz", type=float, default=MIV_KOZ_DEFAULT,
                   help="MIV keep-out, in MIV diameters beyond the via "
                        f"(default {MIV_KOZ_DEFAULT})")


def _scenario_kwargs(args: argparse.Namespace) -> dict:
    """The scenario knobs as FlowConfig kwargs."""
    return {"tiers": args.tiers, "fold_style": args.fold_style,
            "miv_koz_diameters": args.koz}


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import cached_comparison

    if args.scenario:
        from repro.flow.scenario import get_scenario

        _description, values = get_scenario(args.scenario)
        values = dict(values)
    elif args.circuit is None:
        print("compare: name a circuit or a --scenario", file=sys.stderr)
        return 2
    else:
        values = {"node_name": args.node, "scale": args.scale,
                  **_scenario_kwargs(args)}
    if args.circuit:
        values["circuit"] = args.circuit
    cmp = cached_comparison(target_clock_ns=args.clock, **values)
    config = cmp.result_2d.config
    print(format_table(cmp.detail_rows(),
                       f"{config.circuit.upper()} at {config.node_name}, "
                       f"clock {cmp.clock_ns:.2f} ns"))
    print()
    print(format_table([cmp.summary_row()], "T-MI vs 2D (% difference)"))
    return 0


def _prefetch_for(ids, jobs: int) -> Optional[object]:
    """Run the deduplicated task graph of ``ids`` on ``jobs`` workers."""
    from repro.experiments import runner
    from repro.parallel import build_plan

    graph = build_plan(ids)
    if not graph.tasks and not graph.deferred:
        return None
    report = runner.prefetch(graph, jobs=jobs)
    summary = report.summary()
    print(f"[parallel] {summary['tasks']} task(s) on {summary['jobs']} "
          f"worker(s) in {summary['wall_s']:.1f} s "
          f"(utilization {summary['utilization']:.0%}, "
          f"{summary['cached']} from checkpoint)", file=sys.stderr)
    return report


def _run_one_experiment(experiment_id: str) -> list:
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[experiment_id]}")
    rows = module.run()
    print(format_table(rows, f"{experiment_id} — measured"))
    print()
    print(format_table(module.reference(), f"{experiment_id} — paper"))
    return rows


def _report_session_errors() -> int:
    from repro.experiments import runner

    errors = runner.session_errors()
    if errors:
        print(f"\n{len(errors)} row(s) failed (--keep-going):",
              file=sys.stderr)
        for err in errors:
            print(f"  {err.summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.id.lower().replace(" ", "")
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {args.id!r}; known: {known}",
              file=sys.stderr)
        return 2
    if args.jobs > 1:
        _prefetch_for([key], args.jobs)
    _run_one_experiment(key)
    return _report_session_errors()


def _stage_table() -> List[dict]:
    """The invocation's run journal, one row per flow stage."""
    from repro.flow.design_flow import FLOW_STAGES
    from repro.runtime.session import current_session

    return current_session().supervisor.journal.stage_table(FLOW_STAGES)


def _print_obs_summary(tracer: obs_trace.Tracer) -> None:
    """The human-facing observability readout (``--profile``, ``trace``)."""
    rows = _stage_table()
    if rows:
        print(format_table(rows, "per-stage profile"))
        print()
    kernels = tracer.totals("kernel")
    if kernels:
        print(format_table(
            [{"kernel": name, "total (s)": round(total, 3)}
             for name, total in sorted(kernels.items())],
            "hot kernels"))
        print()
    counters = tracer.counts()
    if counters:
        print(format_table(
            [{"metric": name, "value": value}
             for name, value in sorted(counters.items())],
            "flow metrics"))
        print()
    print(f"trace: {len(tracer.snapshot())} span(s), "
          f"digest {tracer.digest()[:16]}")


def _write_chrome_trace(tracer: obs_trace.Tracer, path: str) -> None:
    import json

    with open(path, "w") as stream:
        json.dump(tracer.to_chrome_trace(), stream, indent=2,
                  sort_keys=True)
        stream.write("\n")
    print(f"wrote Chrome trace to {path} "
          f"(open at https://ui.perfetto.dev)", file=sys.stderr)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment under a fresh tracer."""
    import json

    from repro.runtime.session import override

    key = args.id.lower().replace(" ", "")
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {args.id!r}; known: {known}",
              file=sys.stderr)
        return 2
    with override(tracer=obs_trace.Tracer()) as session:
        tracer = session.tracer
        if args.jobs > 1:
            _prefetch_for([key], args.jobs)
        if args.json:
            # Pure-JSON stdout: run silently, emit one document.
            module = importlib.import_module(
                f"repro.experiments.{EXPERIMENTS[key]}")
            module.run()
        else:
            _run_one_experiment(key)
            print()
        if args.json:
            print(json.dumps({
                "experiment": key,
                "trace": tracer.to_dict(),
                "metrics": {"counters": tracer.counts()},
                "profile": [r.to_dict()
                            for r in session.supervisor.journal.records],
            }, indent=2, sort_keys=True))
        else:
            _print_obs_summary(tracer)
        if args.chrome:
            _write_chrome_trace(tracer, args.chrome)
    return _report_session_errors()


def _cmd_bench(args: argparse.Namespace) -> int:
    """Regenerate several experiments as one deduplicated session."""
    import json
    import time

    from repro.check.goldens import row_digest
    from repro.experiments import runner
    from repro.runtime.session import current_session

    ids = [i.lower().replace(" ", "") for i in (args.ids or BENCH_DEFAULT)]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment id(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    engine_report = (_prefetch_for(ids, args.jobs)
                     if args.jobs > 1 else None)
    digests = {}
    for experiment_id in ids:
        rows = _run_one_experiment(experiment_id)
        print()
        # The golden gate's digest: the determinism check across -j
        # levels compares these.
        digests[experiment_id] = row_digest(rows)
    wall_s = time.perf_counter() - start

    status = _report_session_errors()
    if args.report:
        payload = {
            "experiments": ids,
            "jobs": args.jobs,
            "wall_s": round(wall_s, 3),
            "row_digests": digests,
            "errors": [e.summary() for e in runner.session_errors()],
            "engine": (engine_report.to_dict()
                       if engine_report is not None else None),
        }
        tracer = current_session().tracer
        if tracer.enabled:
            payload["trace_digest"] = tracer.digest()
            payload["kernels"] = {
                name: round(total, 6)
                for name, total in sorted(tracer.totals("kernel").items())}
            payload["profile"] = _stage_table()
        from pathlib import Path

        report_path = Path(args.report)
        if report_path.parent != Path("."):
            report_path.parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote session report to {args.report}", file=sys.stderr)
    return status


def _cmd_audit(args: argparse.Namespace) -> int:
    """Run flows under artifact capture and audit every invariant."""
    from repro.check import audit as audit_mod
    from repro.check.findings import AuditReport
    from repro.flow.compare import run_iso_performance_comparison
    from repro.flow.design_flow import FlowConfig, run_flow

    circuits = args.circuits or list(PAPER_CIRCUITS)
    scenario_kwargs = _scenario_kwargs(args)
    report = AuditReport()
    with audit_mod.capture_artifacts() as bucket:
        for circuit in circuits:
            if args.style == "both":
                start = len(bucket)
                run_iso_performance_comparison(
                    circuit, node_name=args.node, scale=args.scale,
                    target_clock_ns=args.clock, **scenario_kwargs)
                art_2d, art_3d = bucket[start], bucket[start + 1]
                report.merge(audit_mod.audit_pair(art_2d, art_3d))
            else:
                config = FlowConfig(
                    circuit=circuit, node_name=args.node,
                    is_3d=args.style == "tmi", scale=args.scale,
                    target_clock_ns=args.clock, **scenario_kwargs)
                run_flow(config)
                report.merge(audit_mod.audit_artifacts(bucket[-1]))
            if args.inject:
                injected = audit_mod.inject_defect(bucket[-1], args.inject)
                report.merge(audit_mod.audit_artifacts(
                    injected, library_checks=False))
    if report.findings:
        print(format_table([f.row() for f in report.findings],
                           "audit findings"))
        print()
    summary = report.summary()
    print(f"audit: {summary['checks']} check(s), "
          f"{summary['errors']} error(s), "
          f"{summary['warnings']} warning(s)")
    if args.json:
        import json

        with open(args.json, "w") as stream:
            json.dump(report.to_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote audit report to {args.json}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_goldens(args: argparse.Namespace) -> int:
    """Compare regenerated rows against (or rewrite) the golden corpus."""
    from pathlib import Path

    from repro.check import goldens as goldens_mod

    ids = [i.lower().replace(" ", "")
           for i in (args.ids or goldens_mod.GOLDEN_EXPERIMENTS)]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment id(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    if args.jobs > 1:
        _prefetch_for(ids, args.jobs)
    directory = Path(args.dir) if args.dir else None

    failed = False
    for experiment_id in ids:
        module = importlib.import_module(
            f"repro.experiments.{EXPERIMENTS[experiment_id]}")
        rows = module.run()
        if args.update_goldens:
            path = goldens_mod.write_golden(experiment_id, rows, directory)
            print(f"{experiment_id}: wrote {path}")
            continue
        diff = goldens_mod.check_golden(experiment_id, rows, directory)
        print(f"{experiment_id}: {diff.status} — {diff.message}")
        for deviation in diff.deviations:
            if args.verbose or not deviation.within:
                print(f"  {deviation.describe()}")
        failed = failed or not diff.ok
    status = _report_session_errors()
    return 1 if failed else status


def _store_for(args: argparse.Namespace):
    from repro.runtime.checkpoint import CheckpointStore

    return CheckpointStore(args.checkpoint_dir)


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    """Verify/repair the store.  Exit codes: 0 the store was already
    clean; 1 problems were found and repaired or quarantined (the store
    is serviceable again); 2 unrepairable I/O errors remain."""
    store = _store_for(args)
    report = store.fsck(purge_corrupt=args.purge_corrupt)
    rows = [{"check": key, "count": value}
            for key, value in report.to_dict().items()
            if key not in ("root", "clean", "repairs")]
    print(format_table(rows, f"fsck {report.root}"))
    if report.clean:
        print("store is clean")
        return 0
    print(f"{report.repairs} repair(s), {report.corrupt_pending} "
          f"quarantined entr(ies) pending, {report.io_errors} I/O "
          f"error(s)", file=sys.stderr)
    return 2 if report.io_errors else 1


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _store_for(args)
    report = store.gc(max_bytes=args.max_bytes,
                      max_entries=args.max_entries)
    print(f"gc {report.root}: evicted {report.evicted} entr(ies), "
          f"freed {report.freed_bytes} byte(s); "
          f"{report.entries} entr(ies) / {report.bytes} byte(s) remain")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _store_for(args)
    stats = store.stats()
    rows = [{"stat": key, "value": value}
            for key, value in stats.items()]
    print(format_table(rows, f"checkpoint store {stats['root']}"))
    reclaimable = stats["orphaned_tmp_bytes"] + stats["corrupt_bytes"]
    print(f"reclaimable: {reclaimable} byte(s) "
          f"({stats['orphaned_tmp_files']} orphaned tmp file(s), "
          f"{stats['corrupt_files']} quarantined entr(ies)) — "
          f"run `repro store fsck --purge-corrupt`")
    return 0


def _coerce_config_value(text: str, default: object) -> object:
    """Parse a ``--set`` value against the field's current value."""
    low = text.strip().lower()
    if low in ("none", "null"):
        return None
    if low in ("true", "false") or isinstance(default, bool):
        return low == "true"
    try:
        if isinstance(default, int):
            return int(text)
        return float(text)
    except ValueError:
        return text


def _cmd_dse(args: argparse.Namespace) -> int:
    """Explore a declarative design space and report its Pareto front."""
    from pathlib import Path

    from repro.dse import (
        Axis,
        CostFunction,
        DseEngine,
        SweepSpace,
        make_strategy,
    )
    from repro.flow.design_flow import FlowConfig

    base = None
    if args.circuit:
        base = FlowConfig(circuit=args.circuit, node_name=args.node,
                          is_3d=args.style == "tmi", scale=args.scale,
                          target_clock_ns=args.clock,
                          **_scenario_kwargs(args))
    axes = [Axis.parse(expression) for expression in args.axes]
    if args.space:
        space = SweepSpace.from_file(args.space, base=base)
        if axes:
            space = SweepSpace(space.base, list(space.axes) + axes)
    else:
        if base is None:
            print("dse: name a circuit or give --space FILE",
                  file=sys.stderr)
            return 2
        if not axes:
            print("dse: declare at least one --set FIELD=V1,V2,... axis",
                  file=sys.stderr)
            return 2
        space = SweepSpace(base, axes)

    exponents = {}
    for item in args.weight:
        name, sep, value = item.partition("=")
        if not sep:
            print(f"bad --weight {item!r}; expected OBJECTIVE=EXPONENT",
                  file=sys.stderr)
            return 2
        try:
            exponents[name.strip()] = float(value)
        except ValueError:
            print(f"bad --weight {item!r}; exponent must be a number",
                  file=sys.stderr)
            return 2
    objectives = [name.strip() for name in args.objectives.split(",")
                  if name.strip()]
    engine = DseEngine(
        space,
        objectives=objectives,
        cost=CostFunction(exponents=exponents, mode=args.cost_mode,
                          normalization=args.normalization),
        strategy=make_strategy(args.strategy),
        budget=args.budget,
        jobs=args.jobs,
    )
    result = engine.explore()

    if args.json == "-":
        # Pure-JSON stdout: the deterministic frontier document only.
        sys.stdout.write(result.to_json())
    else:
        title = (f"dse {space.base.circuit} {space.base.style()}: "
                 + " x ".join(f"{axis.name}[{len(axis.values)}]"
                              for axis in space.axes))
        print(format_table(result.point_rows(), title))
        print()
        if result.provenance:
            print(format_table(result.provenance_rows(),
                               "frontier provenance (replay vs store)"))
            print()
        summary = result.summary()
        print(f"{len(result.points)} evaluation(s) in {result.rounds} "
              f"round(s), {result.dedup_skips} deduplicated, "
              f"{result.cache_hits} stage checkpoint hit(s) on replay")
        print(f"frontier: {summary['size']} point(s), hypervolume "
              f"{summary['hypervolume']:.4f}, knee #{summary['knee']}, "
              f"best #{summary['best']}")
        if args.json:
            path = Path(args.json)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(result.to_json())
            print(f"wrote frontier report to {args.json}", file=sys.stderr)
    if result.failures:
        print(f"{len(result.failures)} point(s) failed (--keep-going)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    """Digest-diff two configs: which stages a parameter change reruns."""
    import dataclasses

    from repro.flow import stagecache
    from repro.flow.design_flow import FlowConfig

    if args.list:
        print(format_table(stagecache.field_report(),
                           "sweepable flow inputs (stage-digest registry)"))
        print("any field above is a legal `repro dse --set` axis")
        return 0
    if not args.circuit:
        print("whatif: name a circuit (or use --list)", file=sys.stderr)
        return 2
    base = FlowConfig(circuit=args.circuit, node_name=args.node,
                      is_3d=args.style == "tmi", scale=args.scale,
                      target_clock_ns=args.clock)
    fields = {f.name: f for f in dataclasses.fields(FlowConfig)}
    changes = {}
    for item in args.changes:
        key, sep, value = item.partition("=")
        if not sep or key not in fields:
            known = ", ".join(sorted(fields))
            print(f"bad --set {item!r}; expected KEY=VALUE with KEY one "
                  f"of: {known}", file=sys.stderr)
            return 2
        changes[key] = _coerce_config_value(value, getattr(base, key))
    changed = dataclasses.replace(base, **changes)

    rows = stagecache.whatif(base, changed, store=_store_for(args))
    display = []
    for row in rows:
        warm = row["warm"]
        display.append({
            "stage": row["stage"],
            "action": "reuse" if row["reused"] else "recompute",
            "warm checkpoint": ("-" if warm is None
                                else "yes" if warm else "no"),
            "note": row["note"],
        })
    label = ", ".join(f"{k}={v}" for k, v in changes.items()) or "(no change)"
    print(format_table(display,
                       f"whatif {args.circuit} {base.style()}: {label}"))
    reused = sum(1 for row in rows if row["reused"])
    print(f"{reused} stage(s) reused, {len(rows) - reused} recomputed")
    return 0


def _cmd_cells(args: argparse.Namespace) -> int:
    from repro.flow.design_flow import library_for

    library = library_for(args.node, args.style == "tmi")
    rows = []
    for cell in library:
        rows.append({
            "cell": cell.name,
            "area (um2)": round(cell.area_um2, 3),
            "input cap (fF)": round(cell.max_input_cap_ff(), 3),
            "delay@med (ps)": round(cell.delay_ps(37.5, 3.2), 1),
            "leakage (nW)": round(cell.leakage_mw * 1e6, 2),
        })
    print(format_table(rows, f"{library.name} ({len(library)} cells)"))
    return 0


def _cmd_export_lib(args: argparse.Namespace) -> int:
    from repro.characterize.liberty_writer import write_liberty
    from repro.flow.design_flow import library_for

    library = library_for(args.node, args.style == "tmi")
    with open(args.path, "w") as stream:
        write_liberty(library, stream)
    print(f"wrote {len(library)} cells to {args.path}")
    return 0


def _cmd_export_layout(args: argparse.Namespace) -> int:
    from repro.flow.design_flow import FlowConfig, run_flow
    from repro.flow.export import write_layout_json

    config = FlowConfig(circuit=args.circuit, node_name=args.node,
                        is_3d=args.style == "tmi", scale=args.scale,
                        **_scenario_kwargs(args))
    result = run_flow(config)
    with open(args.path, "w") as stream:
        write_layout_json(result, stream)
    print(f"wrote layout summary to {args.path} "
          f"(power {result.power.total_mw:.4g} mW, "
          f"WNS {result.wns_ps:+.0f} ps)")
    return 0


def _cmd_export_verilog(args: argparse.Namespace) -> int:
    from repro.circuits.generators import generate_benchmark
    from repro.circuits.verilog import write_verilog
    from repro.flow.design_flow import library_for

    library = library_for(args.node, False)
    module = generate_benchmark(args.circuit, scale=args.scale)
    with open(args.path, "w") as stream:
        write_verilog(module, library, stream)
    print(f"wrote {module.n_cells} cells / {module.n_nets} nets "
          f"to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'13 transistor-level monolithic 3D power study, "
                    "reproduced in Python",
    )
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="run the session's deduplicated task graph "
                             "on N worker processes before assembling "
                             "rows (1 = sequential)")
    parser.add_argument("--resume", action="store_true",
                        help="persist/reuse flow results in the on-disk "
                             "checkpoint store")
    parser.add_argument("--fresh", action="store_true",
                        help="clear the checkpoint store before running")
    parser.add_argument("--keep-going", action="store_true",
                        help="record failed experiment rows and keep "
                             "running instead of aborting")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-stage wall-clock budget for supervised "
                             "flow stages; an overrunning stage stops at "
                             "its next deadline check (a kernel entry or "
                             "the stage's end)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="PATH",
                        help="checkpoint store directory (default: "
                             "$REPRO_CHECKPOINT_DIR or "
                             "~/.cache/repro/checkpoints)")
    parser.add_argument("--profile", action="store_true",
                        help="trace the invocation; prints its per-stage "
                             "wall/CPU/RSS table and flow metrics after "
                             "the command output")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the invocation's Chrome traceEvents "
                             "file to PATH (implies tracing on)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="iso-performance 2D vs T-MI run")
    p.add_argument("circuit", nargs="?", default=None,
                   choices=CIRCUIT_CHOICES)
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--clock", type=float, default=None,
                   help="target clock in ns (default: auto-closed)")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="run a named scenario: it sets the workload, "
                        "node, scale and fold knobs, overriding --node, "
                        "--scale and the fold flags (a circuit named "
                        "here still wins over its workload)")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("experiment",
                       help="regenerate a paper table/figure")
    p.add_argument("id", help="e.g. table4, fig3")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("trace",
                       help="run one experiment under the span tracer "
                            "and summarize (or export) the trace")
    p.add_argument("id", help="e.g. table4, fig3")
    p.add_argument("--json", action="store_true",
                   help="print the full trace document (spans, metrics, "
                        "profile) as JSON on stdout instead of tables")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="also write the Chrome traceEvents file to PATH")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bench",
                       help="regenerate several tables/figures as one "
                            "deduplicated (optionally parallel) session")
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="experiment ids (default: "
                        + " ".join(BENCH_DEFAULT) + ")")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write a JSON session report (timings, row "
                        "digests, engine stats) to PATH")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("audit",
                       help="run the flow and every invariant check; "
                            "exit 1 on any error finding")
    p.add_argument("circuits", nargs="*", metavar="CIRCUIT",
                   help="benchmarks to audit (default: all five)")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--style", default="both",
                   choices=["both", "2d", "tmi"],
                   help="audit one style, or the iso-performance pair "
                        "including 2D<->T-MI conservation (default)")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--clock", type=float, default=None,
                   help="target clock in ns (default: auto-closed)")
    p.add_argument("--inject", default=None,
                   choices=["overlap", "open", "short", "timing", "power"],
                   help="plant one defect class before auditing (the "
                        "audit must then fail)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the structured findings report to PATH")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("goldens",
                       help="check regenerated paper rows against the "
                            "golden regression corpus")
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="experiment ids (default: the full corpus)")
    p.add_argument("--update-goldens", action="store_true",
                   help="rewrite the goldens from this run's rows "
                        "instead of comparing")
    p.add_argument("--dir", default=None, metavar="PATH",
                   help="golden corpus directory (default: "
                        "$REPRO_GOLDEN_DIR or goldens/ at the repo root)")
    p.add_argument("--verbose", action="store_true",
                   help="also print within-tolerance deviations")
    p.set_defaults(func=_cmd_goldens)

    p = sub.add_parser("store",
                       help="inspect and maintain the checkpoint store")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    ps = store_sub.add_parser(
        "fsck", help="verify every entry; quarantine corrupt ones, evict "
                     "stale schemas, sweep leftovers (exit 0 clean, "
                     "1 repaired, 2 I/O errors)")
    ps.add_argument("--purge-corrupt", action="store_true",
                    help="also delete quarantined .corrupt files")
    ps.set_defaults(func=_cmd_store_fsck)
    ps = store_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a budget")
    ps.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="keep at most N bytes of entries")
    ps.add_argument("--max-entries", type=int, default=None, metavar="N",
                    help="keep at most N entries")
    ps.set_defaults(func=_cmd_store_gc)
    ps = store_sub.add_parser(
        "stats", help="entry counts/bytes, reclaimable orphaned temp "
                      "space, quarantined entries, degradation state")
    ps.set_defaults(func=_cmd_store_stats)

    p = sub.add_parser("dse",
                       help="explore a declarative design space and "
                            "report its Pareto frontier")
    p.add_argument("circuit", nargs="?", default=None,
                   choices=CIRCUIT_CHOICES,
                   help="base circuit (optional when --space names one)")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--style", default="2d", choices=["2d", "tmi"])
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--clock", type=float, default=None,
                   help="base target clock in ns (default: auto-closed)")
    p.add_argument("--space", default=None, metavar="FILE",
                   help="JSON space document "
                        "{\"base\": {...}, \"axes\": {field: [v, ...]}}")
    p.add_argument("--set", dest="axes", action="append", default=[],
                   metavar="FIELD=V1,V2,...",
                   help="sweep axis over a registered flow input "
                        "(repeatable), e.g. --set pin_cap_scale=0.6,0.8,1")
    p.add_argument("--objectives", default="power,delay",
                   metavar="A,B,...",
                   help="objectives to minimize (default: power,delay); "
                        "known: power, delay, area, wirelength, leakage, "
                        "net_power, slack")
    p.add_argument("--strategy", default="grid",
                   choices=["grid", "adaptive"],
                   help="grid = full cartesian product; adaptive = coarse "
                        "subgrid then bisection around the frontier")
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help="maximum number of evaluations")
    p.add_argument("--weight", action="append", default=[],
                   metavar="OBJECTIVE=EXPONENT",
                   help="cost-function exponent (repeatable; default 1)")
    p.add_argument("--cost-mode", default="product",
                   choices=["product", "sum"],
                   help="cost scalarization (default: product of "
                        "normalized objectives ^ exponent)")
    p.add_argument("--normalization", default="reference",
                   choices=["reference", "minmax", "none"],
                   help="objective normalization for the cost "
                        "(reference = the evaluated set's ideal point)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="emit the deterministic frontier report as JSON "
                        "(to PATH, or stdout when no PATH is given)")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_dse)

    p = sub.add_parser("whatif",
                       help="which flow stages a parameter change would "
                            "reuse vs recompute (digest diff; runs "
                            "nothing)")
    p.add_argument("circuit", nargs="?", default=None,
                   choices=CIRCUIT_CHOICES)
    p.add_argument("--list", action="store_true",
                   help="print every sweepable FlowConfig field, the "
                        "stages that read it, and the stages a change "
                        "invalidates (the same registry that validates "
                        "`repro dse` axes)")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--style", default="2d", choices=["2d", "tmi"])
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--clock", type=float, default=None,
                   help="target clock in ns (default: auto-closed)")
    p.add_argument("--set", dest="changes", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="changed FlowConfig field (repeatable), e.g. "
                        "--set router_detour_coeff=0.5")
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser("cells", help="list the characterized library")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--style", default="2d", choices=["2d", "tmi"])
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("export-lib", help="write a Liberty .lib file")
    p.add_argument("path")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--style", default="2d", choices=["2d", "tmi"])
    p.set_defaults(func=_cmd_export_lib)

    p = sub.add_parser("export-layout",
                       help="run the flow and write a JSON layout summary")
    p.add_argument("circuit",
                   choices=CIRCUIT_CHOICES)
    p.add_argument("path")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--style", default="2d", choices=["2d", "tmi"])
    p.add_argument("--scale", type=float, default=0.1)
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_export_layout)

    p = sub.add_parser("export-verilog",
                       help="write a benchmark netlist as Verilog")
    p.add_argument("circuit",
                   choices=CIRCUIT_CHOICES)
    p.add_argument("path")
    p.add_argument("--node", default="45nm", choices=NODE_CHOICES)
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(func=_cmd_export_verilog)
    return parser


def _finish_observability(args: argparse.Namespace,
                          tracer: obs_trace.Tracer) -> None:
    if args.profile:
        print()
        _print_obs_summary(tracer)
    if args.trace_out:
        _write_chrome_trace(tracer, args.trace_out)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments import runner
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.session import Session, current_session, use_session
    from repro.runtime.supervisor import StageSupervisor

    parser = build_parser()
    args = parser.parse_args(argv)
    traced = bool(args.profile or args.trace_out)
    # Every invocation runs in a fresh session (store binding,
    # keep-going, memos, error records, a supervisor journaling only
    # this invocation's attempts); the caller's is restored on exit, so
    # in-process callers inherit nothing from the run.  Only the
    # caller's fault plan carries over, which is how tests inject faults
    # into a CLI run.
    session = Session(
        keep_going=args.keep_going,
        supervisor=StageSupervisor(timeout_s=args.timeout),
        tracer=obs_trace.Tracer() if traced else obs_trace.NULL_TRACER,
        faults=current_session().faults)
    try:
        with use_session(session):
            if args.fresh:
                store = CheckpointStore(args.checkpoint_dir)
                n = store.clear()
                print(f"cleared {n} checkpoint entr(ies) from {store.root}",
                      file=sys.stderr)
            if args.resume:
                runner.use_persistent_cache(args.checkpoint_dir)
            try:
                return args.func(args)
            finally:
                if traced:
                    _finish_observability(args, session.tracer)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
