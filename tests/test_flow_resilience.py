"""End-to-end resilience tests: congestion fallback via fault injection,
checkpoint resume, keep-going degradation, and stage timeouts."""

import pytest

from repro.errors import (
    CongestionError,
    RetryExhaustedError,
    RoutingError,
    StageTimeoutError,
)
from repro.experiments import runner
from repro.flow.design_flow import (
    CONGESTION_UTIL_STEP,
    MAX_ROUTE_RETRIES,
    FlowConfig,
    run_flow,
)
from repro.flow.stagecache import run_key
from repro.runtime import faults
from repro.runtime.faults import ALWAYS, FaultSpec
from repro.runtime.session import override
from repro.runtime.supervisor import StageSupervisor

# Small, fast, naturally congestion-free configuration.
SMALL = dict(circuit="fpu", scale=0.06)


pytestmark = pytest.mark.usefixtures("fresh_session")


def _congestion_fault(**kwargs):
    """A layout-stage fault that mimics real congestion: it fires after
    the attempt completed and attaches the partial layout, exactly like
    run_flow's own overflow check."""
    return FaultSpec(
        stage="layout", where="after",
        factory=lambda result: CongestionError(
            "injected congestion", partial=result, overflow=9.9),
        **kwargs)


def test_supervised_flow_journal_covers_all_stages():
    sup = StageSupervisor()
    with override(supervisor=sup):
        run_flow(FlowConfig(**SMALL))
    stages = [r.stage for r in sup.journal.records if r.outcome == "ok"]
    assert stages == ["prepare", "synthesis", "layout", "post_route",
                      "signoff", "power", "audit"]


def test_congestion_retry_steps_utilization():
    sup = StageSupervisor()
    with override(supervisor=sup), faults.inject(_congestion_fault(times=2)):
        result = run_flow(FlowConfig(**SMALL))
    # Two congested attempts -> two utilization steps, then success.
    assert sup.journal.outcomes("layout") == ["retried", "retried", "ok"]
    assert result.utilization_target == pytest.approx(
        0.80 * CONGESTION_UTIL_STEP ** 2)


def test_congestion_gives_up_after_max_retries_and_degrades():
    sup = StageSupervisor()
    with override(supervisor=sup), \
            faults.inject(_congestion_fault(times=ALWAYS)):
        result = run_flow(FlowConfig(**SMALL))
    outcomes = sup.journal.outcomes("layout")
    assert len(outcomes) == MAX_ROUTE_RETRIES
    assert outcomes == ["retried"] * (MAX_ROUTE_RETRIES - 1) + ["degraded"]
    # Utilization stepped only between attempts, never after the last.
    assert result.utilization_target == pytest.approx(
        0.80 * CONGESTION_UTIL_STEP ** (MAX_ROUTE_RETRIES - 1))
    # The degraded (congested) layout still signs off into a full result.
    assert result.n_cells > 0
    assert result.power.total_mw > 0.0


def test_injected_routing_error_exhausts_retries():
    # A hard RoutingError (no partial layout) cannot degrade: after
    # MAX_ROUTE_RETRIES attempts the supervisor raises RetryExhaustedError.
    sup = StageSupervisor()
    with override(supervisor=sup), \
            faults.inject(FaultSpec(stage="layout", error="RoutingError",
                                    times=ALWAYS)) as plan:
        with pytest.raises(RetryExhaustedError) as info:
            run_flow(FlowConfig(**SMALL))
    assert plan.fired("layout") == MAX_ROUTE_RETRIES
    assert info.value.attempts == MAX_ROUTE_RETRIES
    assert isinstance(info.value.last_error, RoutingError)


def test_paired_run_does_not_retry_on_congestion():
    # With an externally fixed clock the floorplan policy is part of the
    # experiment setup: congestion must not trigger a utilization retry.
    sup = StageSupervisor()
    with override(supervisor=sup):
        result = run_flow(FlowConfig(target_clock_ns=2.0, **SMALL))
    assert sup.journal.outcomes("layout") == ["ok"]
    assert result.utilization_target == pytest.approx(0.80)


# -- persistent checkpointing / --resume ----------------------------------

class _FakeResult:
    def __init__(self, tag):
        self.tag = tag


def test_resume_skips_recomputation_entirely(tmp_path, monkeypatch):
    """A killed bench session restarted with --resume completes without
    recomputing any checkpointed flow run: zero run_flow calls."""
    runner.use_persistent_cache(tmp_path)
    config = FlowConfig(**SMALL)

    calls = []

    def fake_run_flow(cfg):
        calls.append(cfg)
        return _FakeResult("computed")

    monkeypatch.setattr(runner, "run_flow", fake_run_flow)
    first = runner.cached_flow(config)
    assert len(calls) == 1
    assert first.tag == "computed"

    # Simulate the process dying: all in-memory memoization is lost.
    runner.clear_caches()

    def exploding_run_flow(cfg):
        raise AssertionError("run_flow must not be called on resume")

    monkeypatch.setattr(runner, "run_flow", exploding_run_flow)
    resumed = runner.cached_flow(FlowConfig(**SMALL))
    assert resumed.tag == "computed"


def test_resume_recomputes_after_corruption(tmp_path, monkeypatch):
    store = runner.use_persistent_cache(tmp_path)
    config = FlowConfig(**SMALL)
    calls = []
    monkeypatch.setattr(
        runner, "run_flow",
        lambda cfg: calls.append(cfg) or _FakeResult("v"))
    runner.cached_flow(config)
    runner.clear_caches()

    path = store.path_for(run_key(config))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    runner.cached_flow(config)          # corrupt entry -> recompute
    assert len(calls) == 2


def test_comparison_checkpointing(tmp_path, monkeypatch):
    # A comparison is its two flow runs, each checkpointed on its own.
    runner.use_persistent_cache(tmp_path)
    calls = []

    def fake_run(config):
        calls.append(config.style())
        result = _FakeResult(config.style())
        result.clock_ns, result.utilization_target = 2.5, 0.7
        return result

    monkeypatch.setattr(runner, "run_flow", fake_run)
    runner.cached_comparison("fpu", scale=0.06)
    assert calls == ["2D", "3D"]
    runner.clear_caches()
    resumed = runner.cached_comparison("fpu", scale=0.06)
    assert calls == ["2D", "3D"]
    assert (resumed.result_2d.tag, resumed.result_3d.tag) == ("2D", "3D")


# -- keep-going degradation (--keep-going) --------------------------------

def test_keep_going_records_error_rows():
    from repro.experiments import table04_45nm_summary

    runner.set_keep_going(True)
    with faults.inject(FaultSpec(stage="prepare", error="RoutingError",
                                 times=ALWAYS)):
        rows = table04_45nm_summary.run()
    assert len(rows) == 5
    assert all("error" in row for row in rows)
    errors = runner.session_errors()
    assert len(errors) == 5
    assert all(err.error == "RoutingError" for err in errors)


def test_without_keep_going_failure_aborts():
    from repro.experiments import table04_45nm_summary

    with faults.inject(FaultSpec(stage="prepare", error="RoutingError",
                                 times=ALWAYS)):
        with pytest.raises(RoutingError):
            table04_45nm_summary.run()


def test_keep_going_cli_yields_error_rows_and_nonzero_exit(capsys):
    from repro.cli import main

    with faults.inject(FaultSpec(stage="prepare", error="RoutingError",
                                 times=ALWAYS)):
        rc = main(["--keep-going", "experiment", "table4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "RoutingError" in captured.out      # error-marked table rows
    assert "row(s) failed" in captured.err     # exit summary
    assert "Traceback" not in captured.err


def test_cli_without_keep_going_reports_single_error(capsys):
    from repro.cli import main

    with faults.inject(FaultSpec(stage="prepare", error="RoutingError",
                                 times=ALWAYS)):
        rc = main(["experiment", "table4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: RoutingError" in captured.err
    assert "Traceback" not in captured.err


def test_partial_failure_keeps_good_rows(monkeypatch):
    runner.set_keep_going(True)
    good = _FakeResult("good")
    good_row = {"circuit": "OK", "value": 1}

    def row_fn(item):
        if item == "bad":
            raise RoutingError("boom")
        return good_row

    rows = runner.resilient_rows(["a", "bad", "c"], row_fn)
    assert rows[0] == good_row
    assert rows[2] == good_row
    assert rows[1]["circuit"] == "BAD"
    assert "RoutingError" in rows[1]["error"]
    assert len(runner.session_errors()) == 1


# -- store degradation mid-run --------------------------------------------

def test_store_degrades_to_cache_off_during_retry_loop(tmp_path):
    """ENOSPC while the supervisor is retrying congestion: the stage
    store flips to cache-off and the retry loop still completes the
    flow — a sick disk costs checkpoints, never the run."""
    from repro.runtime.faults import FsFaultSpec

    store = runner.use_persistent_cache(tmp_path)
    sup = StageSupervisor()
    with override(supervisor=sup), faults.inject(
            _congestion_fault(times=2),
            FsFaultSpec(kind="enospc", op="store", times=ALWAYS)) as plan:
        result = run_flow(FlowConfig(**SMALL))
    # The congestion retries ran to completion despite the dead store.
    assert sup.journal.outcomes("layout") == ["retried", "retried", "ok"]
    assert result.utilization_target == pytest.approx(
        0.80 * CONGESTION_UTIL_STEP ** 2)
    assert result.power.total_mw > 0.0
    # The store degraded on the first write and went silent: exactly
    # one injected fault fired, nothing landed on disk.
    assert store.degraded
    assert plan.fs_fired("enospc") == 1
    assert store.stats()["entries"] == 0


def test_degraded_store_keeps_results_in_memory(tmp_path):
    """cached_flow on a cache-off store: the computed result stays
    usable through the in-process memo, try_store never raises."""
    from repro.runtime.faults import FsFaultSpec

    runner.use_persistent_cache(tmp_path)
    config = FlowConfig(**SMALL)
    with faults.inject(FsFaultSpec(kind="enospc", op="store",
                                   times=ALWAYS)):
        first = runner.cached_flow(config)
        again = runner.cached_flow(config)
    assert again is first               # served from the in-process memo


# -- stage timeouts / --timeout -------------------------------------------

def test_stage_timeout_through_flow():
    sup = StageSupervisor(timeout_s=0.05)
    with override(supervisor=sup), \
            faults.inject(FaultSpec(stage="synthesis", delay_s=1.0)):
        with pytest.raises(StageTimeoutError) as info:
            run_flow(FlowConfig(**SMALL))
    assert info.value.stage == "synthesis"
    assert sup.journal.outcomes("synthesis") == ["timeout"]


def test_timeout_cli_flag(capsys):
    from repro.cli import main

    with faults.inject(FaultSpec(stage="prepare", delay_s=1.0)):
        rc = main(["--timeout", "0.05", "compare", "fpu",
                   "--scale", "0.06"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "StageTimeoutError" in captured.err


def test_timeouts_stop_the_stage_they_time_out(monkeypatch, capsys):
    """Under ``--keep-going --timeout`` every table4 row fails in the
    same stage on every run: the timed-out stage stops on the main
    thread, and no stage body outlives ``main()`` to race the next row
    (or the next run) for the library cache."""
    import re
    import threading

    from repro.cli import main
    from repro.flow import design_flow

    probe_threads = []

    def probe(result):
        probe_threads.append(threading.current_thread())
        return None

    probes = [FaultSpec(stage=stage, where="after", factory=probe,
                        times=ALWAYS)
              for stage in design_flow.FLOW_STAGES]
    threads_before = set(threading.enumerate())
    failed_in = []
    for _ in range(2):
        monkeypatch.setattr(design_flow, "_LIBRARY_CACHE", {})
        with faults.inject(*probes):
            rc = main(["--keep-going", "--timeout", "0.01",
                       "experiment", "table4"])
        assert rc == 1
        assert set(threading.enumerate()) <= threads_before
        failed_in.append(dict(re.findall(
            r"^  (\w+): StageTimeoutError: stage '(\w+)'",
            capsys.readouterr().err, re.MULTILINE)))
    assert sorted(failed_in[0]) == ["aes", "des", "fpu", "ldpc", "m256"]
    assert failed_in[1] == failed_in[0]
    assert probe_threads
    assert all(t is threading.main_thread() for t in probe_threads)
