"""Audit engine tests: clean flows pass, injected defects are caught.

The flow-level tests share one tiny captured AES comparison (session
fixture); defect injections audit deep copies of those artifacts, so
each class costs an audit, not a flow run.  The CLI tests run the
smallest circuit at a tiny scale.
"""

import dataclasses
import json

import pytest

from repro.check import (
    INJECTION_KINDS,
    audit_artifacts,
    audit_pair,
    capture_artifacts,
    inject_defect,
)
from repro.check.audit import deposit
from repro.check.timing import check_timing
from repro.circuits.netlist import PO_SINK
from repro.cli import main

# Injected defect class -> the check that must catch it (as an error).
EXPECTED_CHECK = {
    "overlap": "placement.overlap",
    "open": "routing.open",
    "short": "routing.short",
    "timing": "sta.slack_arithmetic",
    "power": "power.sum",
}

CLI_ARGS = ["audit", "fpu", "--scale", "0.04", "--style", "tmi"]


def test_expected_checks_cover_every_injection_kind():
    assert set(EXPECTED_CHECK) == set(INJECTION_KINDS)


def test_clean_artifacts_audit_without_errors(aes_capture_small):
    _comparison, bucket = aes_capture_small
    assert len(bucket) == 2
    for artifacts in bucket:
        report = audit_artifacts(artifacts)
        assert report.ok, [f.to_dict() for f in
                           report.by_severity("error")]
        assert report.n_checks > 15


def test_pair_audit_includes_conservation_checks(aes_capture_small):
    _comparison, bucket = aes_capture_small
    report = audit_pair(bucket[0], bucket[1])
    assert report.ok
    runs = {f.run for f in report.findings}
    # Pair-level findings (if any) carry the combined run label; the
    # conservation checks must at least have executed.
    assert report.n_checks > 40
    assert all("+" not in run for run in runs)


def test_run_flow_attaches_audit_report(aes_capture_small):
    _comparison, bucket = aes_capture_small
    for artifacts in bucket:
        assert artifacts.result is not None
        assert artifacts.result.audit is not None
        assert artifacts.result.audit.n_checks > 0


@pytest.mark.parametrize("kind", INJECTION_KINDS)
def test_injected_defect_is_caught(aes_capture_small, kind):
    _comparison, bucket = aes_capture_small
    artifacts = bucket[1]          # the T-MI run
    injected = inject_defect(artifacts, kind)
    report = audit_artifacts(injected, library_checks=False)
    expected = EXPECTED_CHECK[kind]
    errors = [f for f in report.for_check(expected)
              if f.severity == "error"]
    assert errors, (kind, [f.to_dict() for f in report.findings])
    assert all(f.run.endswith(f"+{kind}") for f in errors)


@pytest.mark.parametrize("kind", INJECTION_KINDS)
def test_injection_does_not_mutate_original(aes_capture_small, kind):
    _comparison, bucket = aes_capture_small
    artifacts = bucket[1]
    inject_defect(artifacts, kind)
    # The original artifacts still audit clean.
    assert audit_artifacts(artifacts, library_checks=False).ok


def test_slack_audit_flags_po_endpoint_naming_no_net(aes_capture_small):
    # A primary-output key whose name matches no net cannot be checked
    # against an arrival, so the audit reports it as unknown.
    artifacts = aes_capture_small[1][1]
    report = artifacts.timing_report
    slacks = dict(report.endpoint_slack_ps)
    slacks[(PO_SINK, "no_such_net")] = report.clock_ps
    forged = dataclasses.replace(report, endpoint_slack_ps=slacks)
    findings, _checks = check_timing(artifacts.module, artifacts.library,
                                     forged, artifacts.clock_ns)
    errors = [f for f in findings if f.check == "sta.slack_arithmetic"]
    assert errors and errors[0].severity == "error"
    clean, _checks = check_timing(artifacts.module, artifacts.library,
                                  report, artifacts.clock_ns)
    assert not [f for f in clean if f.check == "sta.slack_arithmetic"]


def test_inject_rejects_unknown_kind(aes_capture_small):
    with pytest.raises(ValueError):
        inject_defect(aes_capture_small[1][0], "gremlins")


def test_capture_scope_is_reentrant():
    with capture_artifacts() as outer:
        with capture_artifacts() as inner:
            pass
        assert outer == [] and inner == []


def test_nested_capture_keeps_filling_the_outer_bucket():
    """A deposit reaches every open bucket, and closing the inner one
    leaves the outer open even though both hold the same runs."""
    with capture_artifacts() as outer:
        with capture_artifacts() as inner:
            deposit("run-a")
        deposit("run-b")
    assert outer == ["run-a", "run-b"] and inner == ["run-a"]


# -- CLI ------------------------------------------------------------------


def test_cli_audit_clean_run_exits_zero(capsys):
    rc = main(CLI_ARGS)
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 error(s)" in out


@pytest.mark.parametrize("kind", INJECTION_KINDS)
def test_cli_audit_injection_exits_nonzero(tmp_path, capsys, kind):
    report_path = tmp_path / "audit.json"
    rc = main(CLI_ARGS + ["--inject", kind, "--json", str(report_path)])
    capsys.readouterr()
    assert rc == 1
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["errors"] >= 1
    caught = {f["check"] for f in payload["findings"]
              if f["severity"] == "error"
              and f["run"].endswith(f"+{kind}")}
    assert EXPECTED_CHECK[kind] in caught
