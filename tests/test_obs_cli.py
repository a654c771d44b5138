"""CLI smoke tests for ``repro trace``, ``--profile`` and ``--trace-out``.

Experiments that run no flows (table10) keep the pure-JSON checks cheap;
one tiny export-layout flow covers the per-stage profile table and the
Chrome trace schema.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

FLOW_STAGES = ("prepare", "synthesis", "layout", "post_route", "signoff",
               "power")


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
