"""CLI smoke tests for ``repro trace``, ``--profile`` and ``--trace-out``.

Experiments that run no flows (table10) keep the pure-JSON checks cheap;
tiny flows cover the per-stage profile table, the journal rows of
``trace --json``, the Chrome trace schema, and each invocation's own
supervisor.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.flow.design_flow import FLOW_STAGES
from repro.runtime.session import current_session, override
from repro.runtime.supervisor import StageRecord, StageSupervisor


pytestmark = pytest.mark.usefixtures("fresh_session")


def test_trace_json_round_trips(capsys):
    rc = main(["trace", "table10", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)                 # stdout must be pure JSON
    assert set(doc) == {"experiment", "metrics", "profile", "trace"}
    assert doc["experiment"] == "table10"
    assert doc["trace"]["digest"]
    assert doc["trace"]["n_spans"] == len(doc["trace"]["spans"])


def test_trace_json_profile_has_one_row_per_stage_attempt(capsys):
    """``profile`` holds the run journal: one row per supervised stage
    attempt (as many as the trace's ``stage:*`` spans), every flow stage
    covered, each with its CPU time and peak RSS."""
    rc = main(["trace", "fig8", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    rows = doc["profile"]
    attempts = [s for s in doc["trace"]["spans"]
                if s["name"].startswith("stage:")]
    assert len(rows) == len(attempts) > len(FLOW_STAGES)
    assert {r["stage"] for r in rows} == set(FLOW_STAGES)
    assert all(r["cpu_s"] >= 0.0 and r["peak_rss_kb"] > 0.0 for r in rows)


def test_trace_rejects_unknown_experiment(capsys):
    rc = main(["trace", "nosuch"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_profile_emits_stage_rows_and_chrome_trace(tmp_path, capsys):
    """One tiny flow under ``--profile --trace-out``: the per-stage table
    lists every flow stage and the exported Chrome trace validates
    against the event schema."""
    trace_path = tmp_path / "flow.trace.json"
    rc = main(["--profile", "--trace-out", str(trace_path),
               "export-layout", "fpu", str(tmp_path / "layout.json"),
               "--scale", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0

    # The profile table resolves every stage of the flow.
    assert "per-stage profile" in out
    for stage in FLOW_STAGES:
        assert stage in out
    assert "hot kernels" in out and "flow metrics" in out
    assert "digest" in out

    # Chrome traceEvents schema: complete spans plus instant events.
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in ("X", "i")
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
    names = {e["name"] for e in events}
    assert {f"stage:{s}" for s in FLOW_STAGES} <= names
    assert any(n.startswith("place.") for n in names)
    assert any(n.startswith("sta.") for n in names)


def test_main_runs_under_its_own_supervisor(capsys):
    """Two in-process invocations leave the caller's journal as it was,
    and the second one's ``--profile`` table counts only its own
    attempts: one 2D and one T-MI flow, one attempt per stage each."""
    caller = StageSupervisor()
    mark = StageRecord(stage="caller", attempt=1, outcome="ok",
                       wall_time_s=0.0)
    caller.journal.record(mark)
    with override(supervisor=caller):
        assert main(["compare", "fpu", "--scale", "0.03"]) == 0
        capsys.readouterr()
        assert main(["--profile", "compare", "fpu", "--scale", "0.03"]) == 0
        assert current_session().supervisor is caller
    assert caller.journal.records == [mark]
    out = capsys.readouterr().out
    table = out.split("per-stage profile", 1)[1].split("\n\n", 1)[0]
    rows = {line.split()[0]: line.split()[-1]
            for line in table.splitlines()[3:]}
    assert rows == {stage: "2" for stage in FLOW_STAGES}


def test_bench_report_gains_profile_fields(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["--profile", "bench", "table10",
               "--report", str(report_path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert "trace_digest" in report
    assert "profile" in report
    assert "kernels" in report


def test_report_has_no_profile_fields_when_off(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["bench", "table10", "--report", str(report_path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert "trace_digest" not in report
    assert "profile" not in report
